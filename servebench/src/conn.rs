//! A client connection split into a sending and a receiving half, so an
//! open-loop generator can send on schedule from one thread while another
//! reads acks. Frames are encoded with `obase_serve::wire::encode_frame`
//! and decoded with `decode_frame`; the benchmark reads the length-prefixed
//! bytes itself so a decode span holds no socket wait.

use crate::trace::Tracer;
use obase_exec::Program;
use obase_serve::wire::{decode_frame, encode_frame, Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// The sending half.
pub struct Sender {
    stream: TcpStream,
    tracer: Tracer,
    /// Bytes of every submit frame sent, length prefix included.
    pub submit_bytes: u64,
    pub submits: u64,
}

/// The receiving half.
pub struct Receiver {
    reader: BufReader<TcpStream>,
    tracer: Tracer,
    buf: Vec<u8>,
}

/// What one received frame said about one submission.
pub enum Answer {
    Result {
        id: u64,
        committed: bool,
        server_latency_us: u64,
    },
    Reject {
        id: u64,
        reason: String,
    },
}

/// Connects, completes the hello/welcome handshake and splits the stream.
pub fn connect(
    addr: SocketAddr,
    label: &str,
    tracer: &Tracer,
) -> Result<(Sender, Receiver), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("set_nodelay: {e}"))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut tx = Sender {
        stream,
        tracer: tracer.clone(),
        submit_bytes: 0,
        submits: 0,
    };
    let mut rx = Receiver {
        reader: BufReader::with_capacity(64 << 10, read_half),
        tracer: tracer.clone(),
        buf: Vec::new(),
    };
    tx.write(&encode_frame(&Frame::Hello {
        client: label.to_owned(),
        protocol: PROTOCOL_VERSION,
    }))?;
    match rx.read_frame()?.0 {
        Frame::Welcome { .. } => Ok((tx, rx)),
        other => Err(format!("expected welcome, got {:?}", other.tag())),
    }
}

impl Sender {
    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("socket write: {e}"))
    }

    /// Sends one submission. `request` is the request span the encode
    /// span hangs under (`None` when tracing is off).
    pub fn submit(
        &mut self,
        id: u64,
        name: String,
        body: &Program,
        request: Option<u64>,
    ) -> Result<(), String> {
        let start = Instant::now();
        let bytes = encode_frame(&Frame::Submit {
            id,
            name,
            body: body.clone(),
        });
        if self.tracer.enabled() {
            let span = self.tracer.reserve();
            self.tracer.record(
                span,
                "wire.encode",
                start,
                Instant::now(),
                request,
                Some(id),
            );
        }
        self.submit_bytes += bytes.len() as u64;
        self.submits += 1;
        self.write(&bytes)
    }

    /// Polite close: the server answers a goodbye with a goodbye.
    pub fn goodbye(&mut self) -> Result<(), String> {
        self.write(&encode_frame(&Frame::Goodbye))
    }
}

impl Receiver {
    /// Reads one frame; returns it with the instants its decode began and
    /// ended.
    fn read_frame(&mut self) -> Result<(Frame, Instant, Instant), String> {
        let mut prefix = [0u8; 4];
        self.reader
            .read_exact(&mut prefix)
            .map_err(|e| format!("socket read: {e}"))?;
        let len = u32::from_be_bytes(prefix);
        if len > MAX_FRAME_LEN {
            return Err(format!("frame of {len} bytes exceeds {MAX_FRAME_LEN}"));
        }
        self.buf.clear();
        self.buf.extend_from_slice(&prefix);
        self.buf.resize(4 + len as usize, 0);
        self.reader
            .read_exact(&mut self.buf[4..])
            .map_err(|e| format!("socket read: {e}"))?;
        let start = Instant::now();
        let (frame, _) = decode_frame(&self.buf).map_err(|e| format!("decode: {e}"))?;
        Ok((frame, start, Instant::now()))
    }

    /// Reads the next answer to a submission. `request_span` maps a
    /// submission id to its request span, which the decode span hangs
    /// under.
    pub fn next_answer(
        &mut self,
        request_span: impl Fn(u64) -> Option<u64>,
    ) -> Result<Answer, String> {
        let (frame, start, end) = self.read_frame()?;
        let answer = match frame {
            Frame::Result {
                id,
                committed,
                latency_us,
            } => Answer::Result {
                id,
                committed,
                server_latency_us: latency_us,
            },
            Frame::Reject { id, reason } => Answer::Reject {
                id,
                reason: reason.key().to_owned(),
            },
            Frame::Error { code, detail } => return Err(format!("server error {code}: {detail}")),
            other => return Err(format!("unexpected {:?} frame", other.tag())),
        };
        if self.tracer.enabled() {
            let id = match &answer {
                Answer::Result { id, .. } | Answer::Reject { id, .. } => *id,
            };
            let span = self.tracer.reserve();
            self.tracer
                .record(span, "wire.decode", start, end, request_span(id), Some(id));
        }
        Ok(answer)
    }

    /// Waits for the server's goodbye after [`Sender::goodbye`].
    pub fn closed(mut self) -> Result<(), String> {
        match self.read_frame()?.0 {
            Frame::Goodbye => Ok(()),
            other => Err(format!("expected goodbye, got {:?}", other.tag())),
        }
    }
}
