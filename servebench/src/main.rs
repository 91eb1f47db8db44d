//! servebench — served-traffic benchmark for `obase-serve`.
//!
//! One process runs an in-process server on loopback and drives one
//! workload through it:
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload hot-counters --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics: set-up time,
//! then a saturated closed loop (throughput, CPU per ack) for half of
//! `--seconds` and a paced open loop (latency from the intended send time)
//! for the other half. With `--trace 1` it records spans around every call
//! it makes into a layer, replays the stream through the per-batch layers
//! the server uses, prints the per-layer ledger and writes the spans to a
//! JSON file. Every run first makes an untimed check pass against the
//! serialisability oracle and the benchmark's own model, and holds every
//! server it starts to the accounting checks. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod conn;
mod load;
mod model;
mod procfs;
mod replay;
mod trace;

use load::{Paced, Sample, Saturated, Tally};
use obase_exec::TxnSpec;
use obase_scenario::Scenario;
use obase_ser::Json;
use obase_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads: scenario-DSL JSON plus a `"bench"` object carrying the
/// paced rate and the mvcc flag (the retry budget is the scenario's own
/// `retries`).
const WORKLOADS: [(&str, &str); 2] = [
    (
        "hot-counters",
        include_str!("../workloads/hot-counters.json"),
    ),
    (
        "wide-accounts",
        include_str!("../workloads/wide-accounts.json"),
    ),
];

/// Set-up is timed on at least `SETUP_MIN` servers, each started and fed
/// one transaction, and on more until `SETUP_BUDGET` has passed (at most
/// `SETUP_MAX`); the median is reported.
const SETUP_MIN: usize = 21;
const SETUP_MAX: usize = 201;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Transactions of the untimed check pass.
const CHECK_TXNS: usize = 256;
/// Saturated acks before the steady-state window are left out.
const RAMP: Duration = Duration::from_secs(1);
/// Little's law must hold within this share.
const LITTLE_TOLERANCE: f64 = 0.15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

const USAGE: &str = "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 \
                     [--spans-out PATH]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => args.spans_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(args)
}

/// One workload, with its scenario re-seeded from `--seed`.
struct Workload {
    scenario: Scenario,
    paced_rate: f64,
    mvcc: bool,
}

fn load_workload(name: &str, seed: u64) -> Result<Workload, String> {
    let text = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, text)| *text)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!(
                "unknown workload {name:?}; pick one of {}",
                names.join(", ")
            )
        })?;
    let json = Json::parse(text).map_err(|e| e.render(text))?;
    let bench = json
        .get("bench")
        .ok_or_else(|| format!("{name}: no \"bench\" settings"))?;
    let paced_rate = bench
        .get("paced_rate")
        .and_then(Json::as_float)
        .filter(|r| *r > 0.0)
        .ok_or_else(|| format!("{name}: bench.paced_rate must be a positive number"))?;
    let mvcc = bench
        .get("mvcc")
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("{name}: bench.mvcc must be a boolean"))?;
    let mut scenario = Scenario::parse(text).map_err(|e| format!("{name}: {e}"))?;
    scenario.seed = seed;
    scenario.validate().map_err(|e| format!("{name}: {e}"))?;
    Ok(Workload {
        scenario,
        paced_rate,
        mvcc,
    })
}

/// The value at quantile `q` of `values` (nearest rank); 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median latency of each second of the paced phase, by the second
/// each submission was due in.
fn second_medians(paced: &Paced) -> Vec<f64> {
    let mut by_second: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (second, latency) in paced.latency_second.iter().zip(&paced.latency_us) {
        by_second.entry(*second).or_default().push(*latency);
    }
    by_second.values().map(|v| quantile(v, 0.5)).collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// An integer field of the status document, by path.
fn status_int(status: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(status, |j, key| j.get(key))
        .and_then(|j| j.as_int().or_else(|| j.as_float().map(|f| f as i64)))
        .unwrap_or(0) as f64
}

/// Change of a status field across the window.
fn delta(before: &Sample, after: &Sample, path: &[&str]) -> f64 {
    status_int(&after.status, path) - status_int(&before.status, path)
}

/// Everything one run gathers for its final line.
struct Report {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Adds a phase's submissions to the operation counts; the phase's
    /// accounting checks run separately, against its server's summary.
    fn count(&mut self, tally: &Tally) {
        self.attempted += tally.sent;
        self.failed += tally.sent - tally.committed;
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failures.push(format!("metric {name} is {value}"));
        }
        self.metrics.push((name, value, unit));
    }
}

fn setup_once(
    scenario: &Scenario,
    config: ServeConfig,
    first: &TxnSpec,
    report: &mut Report,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let server =
        Server::for_scenario(scenario, config, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let (mut tx, mut rx) = conn::connect(server.addr(), "setup", &Tracer::off())?;
    tx.submit(1, "t0".into(), &first.body, None)?;
    let answer = rx.next_answer(|_| None)?;
    let secs = t0.elapsed().as_secs_f64();
    let mut tally = Tally {
        sent: 1,
        ..Tally::default()
    };
    match answer {
        conn::Answer::Result {
            committed: true, ..
        } => tally.committed = 1,
        conn::Answer::Result { .. } => tally.gave_up = 1,
        conn::Answer::Reject { .. } => tally.rejected = 1,
    }
    tx.goodbye()?;
    rx.closed()?;
    let summary = server.shutdown();
    report.count(&tally);
    report.failures.extend(
        check::accounting(&tally, &summary)
            .into_iter()
            .map(|f| format!("setup: {f}")),
    );
    Ok(secs)
}

fn saturated_checks(sat: &Saturated, report: &mut Report) {
    let outstanding = (load::SATURATED_CONNS * load::OUTSTANDING_PER_CONN) as f64;
    let little = mean(&sat.window_latency_us) / 1e6 * sat.acks_per_s();
    if (little - outstanding).abs() > LITTLE_TOLERANCE * outstanding {
        report.failures.push(format!(
            "Little's law: mean latency × throughput = {little:.1}, but {outstanding} \
             submissions were outstanding"
        ));
    }
    eprintln!(
        "saturated window {:.2} s: {} acks, Little's law L = {little:.1} (outstanding \
         {outstanding}); host steal {:.1}% of a CPU",
        sat.window_s(),
        sat.window_acks,
        100.0 * (sat.after.steal_s - sat.before.steal_s) / sat.window_s()
    );
}

fn run(args: &Args) -> Result<Report, String> {
    let workload = load_workload(&args.workload, args.seed)?;
    let scenario = &workload.scenario;
    let compiled = scenario.compile();
    let stream = &compiled.transactions;
    let config = ServeConfig {
        retries: scenario.retries,
        mvcc: workload.mvcc,
        keep_history: false,
        ..ServeConfig::default()
    };
    let mut report = Report {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };

    // Untimed check pass, on every run.
    let pass = check::check_pass(
        scenario,
        ServeConfig {
            keep_history: true,
            ..config.clone()
        },
        stream,
        CHECK_TXNS,
    )?;
    report.count(&pass.tally);
    report.failures.extend(
        pass.failures
            .into_iter()
            .map(|f| format!("check pass: {f}")),
    );

    let next = AtomicUsize::new(0);
    let seconds = args.seconds;
    if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_MIN);
        let started = Instant::now();
        while setups.len() < SETUP_MIN
            || (setups.len() < SETUP_MAX && started.elapsed() < SETUP_BUDGET)
        {
            setups.push(setup_once(
                scenario,
                config.clone(),
                &stream[0],
                &mut report,
            )?);
        }

        let server = Server::for_scenario(scenario, config.clone(), "127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        let half = Duration::from_secs_f64(seconds / 2.0);
        let sat = load::saturated(&server, stream, &next, 1 << 40, RAMP, half, &Tracer::off())?;
        let paced = load::paced(
            &server,
            stream,
            &next,
            2 << 40,
            workload.paced_rate,
            half,
            &Tracer::off(),
        )?;
        let summary = server.shutdown();
        let mut tally = sat.tally.clone();
        tally.add(&paced.tally);
        report.count(&tally);
        report.failures.extend(check::accounting(&tally, &summary));
        saturated_checks(&sat, &mut report);

        let cpu_s = sat.after.cpu_s - sat.before.cpu_s;
        eprintln!(
            "set-up over {} servers: min {:.4} s, median {:.4} s, max {:.4} s",
            setups.len(),
            quantile(&setups, 0.0),
            quantile(&setups, 0.5),
            quantile(&setups, 1.0)
        );
        report.metric("setup_s", quantile(&setups, 0.5), "s");
        report.metric("acks_per_s", sat.acks_per_s(), "txn/s");
        report.metric(
            "cpu_us_per_ack",
            cpu_s * 1e6 / sat.window_acks.max(1) as f64,
            "us",
        );
        // The median over the phase's seconds of each second's median: a
        // second in which the host stalled everything moves it less than
        // it moves the median of all samples.
        let medians = second_medians(&paced);
        report.metric("lat_p50_us", quantile(&medians, 0.5), "us");
        let medians: Vec<String> = medians.iter().map(|m| format!("{m:.0}")).collect();
        eprintln!(
            "paced per-second median latency, us: [{}]",
            medians.join(" ")
        );
        let lat = |q| quantile(&paced.latency_us, q);
        eprintln!(
            "paced: {} acks at {} txn/s; latency samples {} (p99 has {} beyond it): \
             p50 {:.0} p90 {:.0} p99 {:.0} p999 {:.0} max {:.0} us; \
             generator late p50 {:.0} us, p99 {:.0} us, max {:.0} us",
            paced.tally.acked(),
            workload.paced_rate,
            paced.latency_us.len(),
            paced.latency_us.len() / 100,
            lat(0.5),
            lat(0.9),
            lat(0.99),
            lat(0.999),
            lat(1.0),
            quantile(&paced.late_us, 0.5),
            quantile(&paced.late_us, 0.99),
            quantile(&paced.late_us, 1.0)
        );
    } else {
        traced(args, &workload, &config, stream, &next, &mut report)?;
    }
    Ok(report)
}

/// The traced run: an untraced and a traced saturated window (their gap
/// is the tracing overhead), a traced paced phase, then the layer replay.
fn traced(
    args: &Args,
    workload: &Workload,
    config: &ServeConfig,
    stream: &[TxnSpec],
    next: &AtomicUsize,
    report: &mut Report,
) -> Result<(), String> {
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let tracer = Tracer::on();
    let server = Server::for_scenario(&workload.scenario, config.clone(), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let plain = load::saturated(
        &server,
        stream,
        next,
        1 << 40,
        RAMP,
        quarter,
        &Tracer::off(),
    )?;
    let sat = load::saturated(
        &server,
        stream,
        next,
        2 << 40,
        Duration::from_millis(250),
        quarter,
        &tracer,
    )?;
    let paced: Paced = load::paced(
        &server,
        stream,
        next,
        3 << 40,
        workload.paced_rate,
        quarter,
        &tracer,
    )?;
    let summary = server.shutdown();
    let mut tally = plain.tally.clone();
    tally.add(&sat.tally);
    tally.add(&paced.tally);
    report.count(&tally);
    report.failures.extend(check::accounting(&tally, &summary));
    saturated_checks(&plain, report);
    saturated_checks(&sat, report);

    let (b, a) = (&sat.before, &sat.after);
    let batches = delta(b, a, &["batches"]);
    let acks = delta(b, a, &["committed"]) + delta(b, a, &["gave_up"]);
    let engine_committed = delta(b, a, &["metrics", "committed"]);
    let txn_per_batch = delta(b, a, &["admitted"]) / batches.max(1.0);
    let batch_wall_us = delta(b, a, &["metrics", "wall_micros"]) / batches.max(1.0);
    // In the untraced saturated window the executor runs one batch after
    // another, so window time per batch minus engine wall time per batch
    // is the server's own per-batch work around the engine: verification,
    // carry-forward and answering.
    let (pb, pa) = (&plain.before, &plain.after);
    let outside_engine_us = (plain.window_s() * 1e6 - delta(pb, pa, &["metrics", "wall_micros"]))
        / delta(pb, pa, &["batches"]).max(1.0);

    let rp = replay::replay(
        workload.scenario.compile_def(),
        config,
        stream,
        txn_per_batch.round() as usize,
        quarter,
        &tracer,
    );
    report.failures.extend(rp.failures.iter().cloned());

    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let self_mean = |name: &str| selfs.get(name).map_or(0.0, trace::SelfTime::mean_us);
    let phase_p50 = |phase: &str| status_int(&a.status, &["latency", "phases", phase, "p50"]);

    report.metric(
        "wire.submit_bytes",
        tally.submit_bytes as f64 / tally.sent.max(1) as f64,
        "bytes",
    );
    report.metric("wire.encode_us", self_mean("wire.encode"), "us");
    report.metric("wire.decode_us", self_mean("wire.decode"), "us");
    report.metric("serve.txn_per_batch", txn_per_batch, "txn");
    report.metric(
        "serve.server_lat_p50_us",
        quantile(&paced.server_latency_us, 0.5),
        "us",
    );
    report.metric(
        "serve.transit_p50_us",
        quantile(&paced.transit_us, 0.5),
        "us",
    );
    report.metric("serve.rejects", tally.rejected as f64, "count");
    report.metric(
        "engine.us_per_ack",
        delta(b, a, &["metrics", "wall_micros"]) / acks.max(1.0),
        "us",
    );
    report.metric(
        "engine.aborts_per_commit",
        delta(b, a, &["metrics", "aborts"]) / engine_committed.max(1.0),
        "ratio",
    );
    report.metric(
        "engine.blocked_per_commit",
        delta(b, a, &["metrics", "blocked_events"]) / engine_committed.max(1.0),
        "ratio",
    );
    report.metric("engine.queue_wait_p50_us", phase_p50("queue_wait"), "us");
    report.metric("engine.blocked_p50_us", phase_p50("blocked"), "us");
    report.metric("engine.execute_p50_us", phase_p50("execute"), "us");
    report.metric("engine.certify_p50_us", phase_p50("certify"), "us");
    report.metric("engine.wall_per_batch_us", batch_wall_us, "us");
    report.metric("runtime.build_us", self_mean("runtime.build"), "us");
    report.metric("runtime.run_us", self_mean("runtime.run"), "us");
    report.metric("verify.legal_us", self_mean("verify.legal"), "us");
    report.metric("verify.sg_us", self_mean("verify.sg"), "us");
    report.metric(
        "verify.sg_edges",
        rp.sg_edges as f64 / rp.batches.max(1) as f64,
        "count",
    );
    report.metric(
        "carry.final_states_us",
        self_mean("carry.final_states"),
        "us",
    );
    report.metric("carry.def_clone_us", self_mean("carry.def_clone"), "us");
    report.metric("serve.batch_outside_engine_us", outside_engine_us, "us");
    report.metric(
        "mvcc.snapshot_reads_per_ack",
        delta(b, a, &["metrics", "snapshot_reads"]) / acks.max(1.0),
        "ratio",
    );
    report.metric(
        "proc.ctx_switches_per_ack",
        (a.ctx_switches - b.ctx_switches) as f64 / sat.window_acks.max(1) as f64,
        "ratio",
    );
    report.metric("load.gen_late_p99_us", quantile(&paced.late_us, 0.99), "us");
    report.metric("load.lat_p90_us", quantile(&paced.latency_us, 0.90), "us");
    report.metric("load.lat_p99_us", quantile(&paced.latency_us, 0.99), "us");
    report.metric("load.lat_samples", paced.latency_us.len() as f64, "count");
    report.metric("proc.peak_rss_mb", procfs::peak_rss_mb(), "MB");
    let (plain_rate, traced_rate) = (plain.acks_per_s(), sat.acks_per_s());
    report.metric("trace.acks_per_s", traced_rate, "txn/s");
    let overhead = 100.0 * (plain_rate - traced_rate) / plain_rate;
    report.metric("trace.overhead_pct", overhead, "%");

    print_ledger(&selfs, &rp, batch_wall_us, outside_engine_us, txn_per_batch);
    println!(
        "tracing overhead: untraced {plain_rate:.1} acks/s, traced {traced_rate:.1} acks/s \
         ({overhead:+.1}%)"
    );

    let path = args.spans_out.clone().unwrap_or_else(|| {
        format!(
            "{}/spans/{}-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        )
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, trace::spans_json(&spans).to_string() + "\n")
        .map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {} spans to {path}", spans.len());
    Ok(())
}

/// The layer ledger: self time per span name, with the replayed per-batch
/// layers set beside the served batch's engine wall time and the server's
/// own work around the engine.
fn print_ledger(
    selfs: &BTreeMap<&'static str, trace::SelfTime>,
    rp: &replay::Replay,
    served_wall_us: f64,
    served_outside_us: f64,
    txn_per_batch: f64,
) {
    println!("layer ledger (self time; spans recorded by the benchmark around its calls)");
    println!(
        "{:<22} {:>9} {:>12} {:>12} {:>14}",
        "span", "count", "total ms", "mean us", "per batch us"
    );
    for (name, t) in selfs {
        let per_batch = if name.starts_with("wire.") || *name == "serve.request" {
            String::new()
        } else {
            format!("{:.1}", t.self_us / rp.batches.max(1) as f64)
        };
        println!(
            "{:<22} {:>9} {:>12.2} {:>12.1} {:>14}",
            name,
            t.count,
            t.self_us / 1e3,
            t.mean_us(),
            per_batch
        );
    }
    let replayed: f64 = selfs
        .iter()
        .filter(|(n, _)| !n.starts_with("wire.") && **n != "serve.request")
        .map(|(_, t)| t.self_us)
        .sum::<f64>()
        / rp.batches.max(1) as f64;
    println!(
        "replayed {} batches of {} txns: {replayed:.1} us per batch (restated.* spans time the \
         benchmark's copy of the server's private rebuild, not the server's own)",
        rp.batches,
        txn_per_batch.round()
    );
    println!(
        "served: {:.1} us per batch = engine wall {served_wall_us:.1} + outside the engine \
         {served_outside_us:.1}",
        served_wall_us + served_outside_us
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("--workload is required\n{USAGE}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    };
    for f in &report.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!(
        "{} seed {} trace {}: attempted {}, failed {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>14.3} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
