//! Load generation: the saturated closed loop and the paced open loop.
//!
//! Submission ids are unique across the whole process (each connection
//! starts its ids at its own `base`), so an id doubles as the request id
//! that ties a request's spans together.

use crate::conn::{self, Answer};
use crate::procfs;
use crate::trace::Tracer;
use obase_exec::TxnSpec;
use obase_ser::Json;
use obase_serve::Server;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Connections of the saturated phase, each with its own thread.
pub const SATURATED_CONNS: usize = 2;
/// Submissions each saturated connection keeps outstanding: two
/// connections fill ingress batches of up to 64 back to back while staying
/// well inside the server's default admission-queue depth (256).
pub const OUTSTANDING_PER_CONN: usize = 64;

/// Accounting of every submission a phase made.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub sent: u64,
    pub committed: u64,
    pub gave_up: u64,
    pub rejected: u64,
    pub submit_bytes: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.committed += other.committed;
        self.gave_up += other.gave_up;
        self.rejected += other.rejected;
        self.submit_bytes += other.submit_bytes;
    }

    pub fn acked(&self) -> u64 {
        self.committed + self.gave_up
    }
}

/// A sample of the process and server counters at one instant.
#[derive(Clone, Debug)]
pub struct Sample {
    pub at: Instant,
    pub cpu_s: f64,
    pub steal_s: f64,
    pub ctx_switches: u64,
    pub status: Json,
}

impl Sample {
    pub fn take(server: &Server) -> Sample {
        Sample {
            at: Instant::now(),
            cpu_s: procfs::cpu_seconds(),
            steal_s: procfs::host_steal_seconds(),
            ctx_switches: procfs::ctx_switches(),
            status: server.status(),
        }
    }
}

/// What the saturated phase measured inside its steady-state window.
pub struct Saturated {
    pub tally: Tally,
    pub before: Sample,
    pub after: Sample,
    /// Acks whose arrival fell inside the window.
    pub window_acks: u64,
    /// Client-observed latency (send → ack, µs) of each of those acks.
    pub window_latency_us: Vec<f64>,
}

impl Saturated {
    pub fn window_s(&self) -> f64 {
        (self.after.at - self.before.at).as_secs_f64()
    }

    pub fn acks_per_s(&self) -> f64 {
        self.window_acks as f64 / self.window_s()
    }
}

/// One saturated connection's share.
#[derive(Default)]
struct LoopOut {
    tally: Tally,
    window_acks: u64,
    window_latency_us: Vec<f64>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Closed loop over [`SATURATED_CONNS`] connections, each keeping
/// [`OUTSTANDING_PER_CONN`] submissions in flight. Acks that arrive within
/// `ramp` of the start are left out; the window then lasts `window`, after
/// which the connections stop submitting and drain.
pub fn saturated(
    server: &Server,
    stream: &[TxnSpec],
    next: &AtomicUsize,
    id_base: u64,
    ramp: Duration,
    window: Duration,
    tracer: &Tracer,
) -> Result<Saturated, String> {
    let addr = server.addr();
    let window_start = Instant::now() + ramp;
    let window_end = window_start + window;
    std::thread::scope(|s| {
        let loops: Vec<_> = (0..SATURATED_CONNS)
            .map(|c| {
                let base = id_base + ((c as u64) << 32);
                s.spawn(move || {
                    closed_loop(
                        addr,
                        c,
                        base,
                        stream,
                        next,
                        (window_start, window_end),
                        tracer,
                    )
                })
            })
            .collect();
        sleep_until(window_start);
        let before = Sample::take(server);
        sleep_until(window_end);
        let after = Sample::take(server);
        let mut out = Saturated {
            tally: Tally::default(),
            before,
            after,
            window_acks: 0,
            window_latency_us: Vec::new(),
        };
        for l in loops {
            let l = l.join().expect("saturated connection thread panicked")?;
            out.tally.add(&l.tally);
            out.window_acks += l.window_acks;
            out.window_latency_us.extend(l.window_latency_us);
        }
        Ok(out)
    })
}

fn closed_loop(
    addr: SocketAddr,
    conn: usize,
    id_base: u64,
    stream: &[TxnSpec],
    next: &AtomicUsize,
    (window_start, window_end): (Instant, Instant),
    tracer: &Tracer,
) -> Result<LoopOut, String> {
    let (mut tx, mut rx) = conn::connect(addr, &format!("saturated-{conn}"), tracer)?;
    let mut out = LoopOut::default();
    // id → (send instant, request span)
    let mut in_flight: HashMap<u64, (Instant, Option<u64>)> = HashMap::new();
    let mut id = id_base;
    loop {
        if Instant::now() < window_end {
            while in_flight.len() < OUTSTANDING_PER_CONN {
                id += 1;
                let idx = next.fetch_add(1, Ordering::Relaxed) % stream.len();
                let span = tracer.reserve();
                in_flight.insert(id, (Instant::now(), span));
                tx.submit(id, format!("t{idx}"), &stream[idx].body, span)?;
            }
        }
        if in_flight.is_empty() {
            break;
        }
        let answer = rx.next_answer(|id| in_flight.get(&id).and_then(|e| e.1))?;
        let ack = Instant::now();
        let (id, committed) = match answer {
            Answer::Result { id, committed, .. } => (id, Some(committed)),
            Answer::Reject { id, reason } => {
                eprintln!("servebench: submission {id} rejected: {reason}");
                (id, None)
            }
        };
        let (sent, span) = in_flight
            .remove(&id)
            .ok_or_else(|| format!("answer for unknown submission {id}"))?;
        tracer.record(span, "serve.request", sent, ack, None, Some(id));
        match committed {
            Some(true) => out.tally.committed += 1,
            Some(false) => out.tally.gave_up += 1,
            None => out.tally.rejected += 1,
        }
        if committed.is_some() && ack >= window_start && ack < window_end {
            out.window_acks += 1;
            out.window_latency_us.push((ack - sent).as_secs_f64() * 1e6);
        }
    }
    out.tally.sent = tx.submits;
    out.tally.submit_bytes = tx.submit_bytes;
    tx.goodbye()?;
    rx.closed()?;
    Ok(out)
}

/// What the paced phase measured.
pub struct Paced {
    pub tally: Tally,
    /// Ack time minus *intended* send time, µs, one per ack.
    pub latency_us: Vec<f64>,
    /// For each entry of `latency_us`, the second of the phase its
    /// submission was due in.
    pub latency_second: Vec<u64>,
    /// Actual send time minus intended send time, µs, one per submission.
    pub late_us: Vec<f64>,
    /// `Result.latency_us` as the server reported it.
    pub server_latency_us: Vec<f64>,
    /// Client-observed (actual send → ack) minus server-reported latency.
    pub transit_us: Vec<f64>,
}

/// Open loop over one connection: submission `i` is due at
/// `start + i / rate`, whatever happened to earlier ones. A sender thread
/// keeps the schedule; the calling thread reads acks.
pub fn paced(
    server: &Server,
    stream: &[TxnSpec],
    next: &AtomicUsize,
    id_base: u64,
    rate: f64,
    duration: Duration,
    tracer: &Tracer,
) -> Result<Paced, String> {
    let n = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
    let (mut tx, mut rx) = conn::connect(server.addr(), "paced", tracer)?;
    let start = Instant::now() + Duration::from_millis(5);
    let due = move |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    // Per submission: (id, actual send instant, request span), queued for
    // the reader before the frame goes out, so it is always there first.
    let (sent_tx, sent_rx) = mpsc::channel::<(u64, Instant, Option<u64>)>();
    let mut out = Paced {
        tally: Tally::default(),
        latency_us: Vec::with_capacity(n as usize),
        latency_second: Vec::with_capacity(n as usize),
        late_us: Vec::with_capacity(n as usize),
        server_latency_us: Vec::with_capacity(n as usize),
        transit_us: Vec::with_capacity(n as usize),
    };
    let (sender, read_result) = std::thread::scope(|s| {
        let sender = s.spawn(move || -> Result<(conn::Sender, Vec<f64>), String> {
            let mut late = Vec::with_capacity(n as usize);
            for i in 0..n {
                let intended = due(i);
                sleep_until(intended);
                let now = Instant::now();
                late.push((now - intended).as_secs_f64() * 1e6);
                let id = id_base + i;
                let idx = next.fetch_add(1, Ordering::Relaxed) % stream.len();
                let span = tracer.reserve();
                sent_tx
                    .send((id, now, span))
                    .map_err(|_| "paced reader ended early".to_owned())?;
                tx.submit(id, format!("t{idx}"), &stream[idx].body, span)?;
            }
            Ok((tx, late))
        });
        let read_result = read_paced(
            &mut rx,
            &sent_rx,
            n,
            id_base,
            (start, rate),
            tracer,
            &mut out,
        );
        (
            sender.join().expect("paced sender thread panicked"),
            read_result,
        )
    });
    let (mut tx, late) = sender?;
    read_result?;
    out.tally.sent = tx.submits;
    out.tally.submit_bytes = tx.submit_bytes;
    out.late_us = late;
    tx.goodbye()?;
    rx.closed()?;
    Ok(out)
}

fn read_paced(
    rx: &mut conn::Receiver,
    sent_rx: &mpsc::Receiver<(u64, Instant, Option<u64>)>,
    n: u64,
    id_base: u64,
    (start, rate): (Instant, f64),
    tracer: &Tracer,
    out: &mut Paced,
) -> Result<(), String> {
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    let mut sends: HashMap<u64, (Instant, Option<u64>)> = HashMap::new();
    for _ in 0..n {
        // Pick up every send recorded so far, so the decode span can name
        // its request span.
        while let Ok((id, at, span)) = sent_rx.try_recv() {
            sends.insert(id, (at, span));
        }
        let answer = rx.next_answer(|id| sends.get(&id).and_then(|e| e.1))?;
        let ack = Instant::now();
        let (id, outcome) = match answer {
            Answer::Result {
                id,
                committed,
                server_latency_us,
            } => (id, Some((committed, server_latency_us))),
            Answer::Reject { id, reason } => {
                eprintln!("servebench: submission {id} rejected: {reason}");
                (id, None)
            }
        };
        while !sends.contains_key(&id) {
            let (sid, at, span) = sent_rx
                .recv()
                .map_err(|_| format!("answer for unknown submission {id}"))?;
            sends.insert(sid, (at, span));
        }
        let (sent, span) = sends.remove(&id).expect("just ensured present");
        tracer.record(span, "serve.request", sent, ack, None, Some(id));
        let Some((committed, server_us)) = outcome else {
            out.tally.rejected += 1;
            continue;
        };
        if committed {
            out.tally.committed += 1;
        } else {
            out.tally.gave_up += 1;
        }
        out.latency_us
            .push((ack - due(id - id_base)).as_secs_f64() * 1e6);
        out.latency_second
            .push(((id - id_base) as f64 / rate) as u64);
        let observed = (ack - sent).as_secs_f64() * 1e6;
        out.server_latency_us.push(server_us as f64);
        out.transit_us.push(observed - server_us as f64);
    }
    Ok(())
}
