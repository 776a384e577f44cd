//! Real network transport: Conv workers as separate OS processes.
//!
//! Everything below the Central node's `Sender`/`Receiver` seams. The
//! collector in [`crate::central`] still hands [`WorkerMsg`]s to per-worker
//! bounded channels and drains its one inbound channel; this module bridges
//! those channels to length-prefixed frames over TCP or Unix-domain
//! sockets, so dispatch, deadlines, re-dispatch and zero-fill are untouched
//! — the collector's machine cannot tell a thread from a process. See
//! DESIGN.md §15.
//!
//! # Framing
//!
//! Every message is `[u32 LE length][u8 tag][body]`, where `length` counts
//! the tag byte plus the body and is capped by [`MAX_FRAME_BYTES`] —
//! reading a frame can never allocate more than the cap, and the body
//! decoders ([`TileTask::decode`], [`TileResult::decode`]) are the hardened
//! checked-arithmetic paths, so a corrupt or hostile peer can cost at most
//! one connection, never a panic or an OOM.
//!
//! # Handshake
//!
//! A worker connects and sends `HELLO {magic, version, caps}`. The
//! acceptor validates it, claims a free worker slot, and the slot's
//! supervisor replies `WELCOME {worker_id, model spec}`. The
//! [`RemoteModelSpec`] is deterministic-by-seed: both sides rebuild
//! identical weights (the paper stores the separable-block filter weights
//! in the Conv nodes, §6.1 — shipping the generating seed is the
//! reproduction's equivalent), so a freshly exec'd process computes
//! bit-identical tiles to an in-process worker thread.
//!
//! # Supervision
//!
//! One supervisor thread per worker slot owns that slot's channel
//! *persistently* — across disconnects — so the Central node's channel
//! seam never breaks. Nothing in this module polls: the supervisor waits
//! in one blocking `recv()` on that channel, which carries the collector's
//! [`WorkerMsg::Tiles`] rounds and [`WorkerMsg::Shutdown`], the acceptor's
//! [`WorkerMsg::Conn`] and the connection reader's exit,
//! [`WorkerMsg::ReaderGone`] — so a disconnect is seen the moment the
//! reader hits EOF. The acceptor blocks in `accept()` and is woken for stop
//! by one self-connect. While a slot is down its supervisor drops stale
//! rounds as they arrive (the lifecycle already re-dispatched or
//! zero-filled their tiles: a tile must never be computed twice from one
//! queue handoff). A
//! handshake reports the slot up and a disconnect reports it down, as
//! messages on the collector's inbound channel — the same `Down` an
//! in-process worker thread sends when it exits. The collector's machine
//! owns liveness: a down slot's speed is 0, and a reconnect is a *fresh
//! join* that restarts the EWMA at the fresh-join prior
//! ([`Pipeline::worker_up`](adcnn_core::pipeline::Pipeline::worker_up)).
//! A connection generation counter guards the demux: a reader whose
//! generation has been superseded stops forwarding, so a result from a
//! dead connection can neither double-count a tile nor resurrect the dead
//! worker's statistics.
//!
//! # Rounds
//!
//! The collector hands a slot one [`WorkerMsg::Tiles`] round per dispatch
//! step, and the supervisor writes it as that many ordinary `TASK` frames
//! in one `write_all`. Both directions read through a [`BufReader`]: the
//! worker computes every task frame already whole in its buffer and
//! answers them with one write of `RESULT` frames, and the reader forwards
//! every result frame already whole in its buffer as one
//! `Inbound::Results`. Nothing waits for a frame that is not yet whole,
//! so on a slow link a reply leaves as soon as the buffered work is done.
//! Frames, tags and the protocol version are those of a frame-per-message
//! peer, which still interoperates.

use crate::central::Inbound;
use crate::worker::{observe_tile, process_tile, Compression, WorkerMsg, WorkerStats};
use adcnn_core::compress::{CompressScratch, Quantizer};
use adcnn_core::fdsp::TileGrid;
use adcnn_core::obs::SinkHandle;
use adcnn_core::wire::{TileResult, TileTask};
use adcnn_core::ClippedRelu;
use adcnn_nn::infer::InferScratch;
use adcnn_nn::layer::QuantizeSte;
use adcnn_nn::small::shapes_cnn;
use adcnn_nn::Network;
use adcnn_retrain::PartitionedModel;
use bytes::BytesMut;
use crossbeam::channel::{bounded, Receiver, SendError, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame magic in `HELLO` ("ADCN").
pub const MAGIC: u32 = 0x4144_434E;
/// Wire protocol version; bumped on any frame-layout change.
pub const PROTOCOL_VERSION: u32 = 1;
/// Hard cap on one frame's declared length (tag + body). Large enough for
/// a [`MAX_TILE_ELEMS`](adcnn_core::wire::MAX_TILE_ELEMS)-element f32 tile
/// plus headers, small enough that a hostile length word cannot OOM the
/// receiver.
pub const MAX_FRAME_BYTES: usize = (1 << 26) + 4096;

/// Worker → Central greeting: `{magic, version, caps}`.
pub const TAG_HELLO: u8 = 1;
/// Central → worker slot assignment: `{worker_id, RemoteModelSpec}`.
pub const TAG_WELCOME: u8 = 2;
/// Central → worker tile dispatch: a [`TileTask`] body.
pub const TAG_TASK: u8 = 3;
/// Worker → Central result: `{compute_ns, compress_ns, TileResult}`.
pub const TAG_RESULT: u8 = 4;
/// Central → worker clean stop (also sent to connections with no free
/// slot).
pub const TAG_SHUTDOWN: u8 = 5;

// ---------------------------------------------------------------------------
// Little-endian cursor helpers (frame bodies only; tensors go through the
// hardened decoders in `adcnn_core::wire`).

fn rd_u8(b: &mut &[u8]) -> Option<u8> {
    let (&v, rest) = b.split_first()?;
    *b = rest;
    Some(v)
}

fn rd_u32(b: &mut &[u8]) -> Option<u32> {
    let (head, rest) = b.split_at_checked(4)?;
    *b = rest;
    Some(u32::from_le_bytes(head.try_into().unwrap()))
}

fn rd_u64(b: &mut &[u8]) -> Option<u64> {
    let (head, rest) = b.split_at_checked(8)?;
    *b = rest;
    Some(u64::from_le_bytes(head.try_into().unwrap()))
}

fn rd_f32(b: &mut &[u8]) -> Option<f32> {
    rd_u32(b).map(f32::from_bits)
}

// ---------------------------------------------------------------------------
// Framing

/// Append one `[len][tag][body]` frame to `buf`, its body written in place
/// by `body`. A frame over [`MAX_FRAME_BYTES`] is an error, and `buf` is then
/// not worth sending.
fn push_frame(buf: &mut BytesMut, tag: u8, body: impl FnOnce(&mut BytesMut)) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0, 0, 0, 0, tag]);
    body(buf);
    let len = buf.len() - start - 4;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME_BYTES"));
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Write one `[len][tag][body]` frame and flush it.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, body: &[u8]) -> io::Result<()> {
    // One buffered write per frame: small frames must not straddle
    // segments, and the flush keeps latency off the Nagle path.
    let mut buf = BytesMut::with_capacity(5 + body.len());
    push_frame(&mut buf, tag, |b| b.extend_from_slice(body))?;
    write_frames(w, &buf)
}

/// Write `frames`, one or more whole frames, in one `write_all`, and flush.
fn write_frames<W: Write>(w: &mut W, frames: &[u8]) -> io::Result<()> {
    w.write_all(frames)?;
    w.flush()
}

/// Whether `buf` starts with a whole frame — a length word and that many
/// bytes — so that [`read_frame`] on a reader holding `buf` cannot block.
fn frame_buffered(buf: &[u8]) -> bool {
    match buf.split_first_chunk::<4>() {
        Some((len, body)) => body.len() >= u32::from_le_bytes(*len) as usize,
        None => false,
    }
}

/// Each side's read buffer: a whole round of the hub's ≈ 3 KB task frames
/// fits with room to spare.
const READ_BUF_BYTES: usize = 1 << 16;

/// Read one frame. `Ok(None)` is a clean EOF *between* frames; EOF inside
/// a frame is an error. A declared length of zero (no tag byte) or above
/// [`MAX_FRAME_BYTES`] is rejected before any allocation.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    // `[len][tag]`, read together so the body lands in its own buffer.
    let mut head = [0u8; 5];
    // Hand-rolled first read so a clean close at a frame boundary is
    // distinguishable from a mid-frame truncation.
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame header"))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of bounds"),
        ));
    }
    let mut body = vec![0u8; len - 1];
    r.read_exact(&mut body)?;
    Ok(Some((head[4], body)))
}

/// Encode the `HELLO` body.
pub fn encode_hello(caps: u32) -> Vec<u8> {
    let mut b = Vec::with_capacity(12);
    b.extend_from_slice(&MAGIC.to_le_bytes());
    b.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    b.extend_from_slice(&caps.to_le_bytes());
    b
}

/// Decode and validate a `HELLO` body; returns the capability bits.
pub fn decode_hello(mut b: &[u8]) -> Option<u32> {
    let magic = rd_u32(&mut b)?;
    let version = rd_u32(&mut b)?;
    let caps = rd_u32(&mut b)?;
    (magic == MAGIC && version == PROTOCOL_VERSION).then_some(caps)
}

/// Encode a `WELCOME` body: the assigned worker id plus the model spec.
pub fn encode_welcome(worker_id: u32, spec: &RemoteModelSpec) -> Vec<u8> {
    let mut b = Vec::with_capacity(40);
    b.extend_from_slice(&worker_id.to_le_bytes());
    spec.encode_into(&mut b);
    b
}

/// Decode a `WELCOME` body.
pub fn decode_welcome(mut b: &[u8]) -> Option<(u32, RemoteModelSpec)> {
    let worker_id = rd_u32(&mut b)?;
    let spec = RemoteModelSpec::decode(&mut b)?;
    Some((worker_id, spec))
}

/// Encode a `RESULT` body: observed compute/compress nanoseconds, then the
/// result itself in the canonical wire layout.
pub fn encode_result_body(res: &TileResult, compute_ns: u64, compress_ns: u64) -> BytesMut {
    let mut buf = BytesMut::new();
    put_result_body(&mut buf, res, compute_ns, compress_ns);
    buf
}

/// Append [`encode_result_body`]'s bytes to `buf`.
fn put_result_body(buf: &mut BytesMut, res: &TileResult, compute_ns: u64, compress_ns: u64) {
    buf.extend_from_slice(&compute_ns.to_le_bytes());
    buf.extend_from_slice(&compress_ns.to_le_bytes());
    res.encode_into(buf);
}

/// Decode a `RESULT` body; `None` on a structurally unreadable frame (a
/// readable header with a corrupt *payload* still decodes — the lifecycle
/// machine owns that case).
pub fn decode_result_body(mut b: &[u8]) -> Option<(u64, u64, TileResult)> {
    let compute_ns = rd_u64(&mut b)?;
    let compress_ns = rd_u64(&mut b)?;
    let res = TileResult::decode(b)?;
    Some((compute_ns, compress_ns, res))
}

// ---------------------------------------------------------------------------
// Endpoints, connections, listeners

/// Where workers connect: `tcp://host:port` or (Unix only) `uds:///path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP; the string is a `host:port` socket address.
    Tcp(String),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Uds(PathBuf),
}

impl Endpoint {
    /// Parse an endpoint URL.
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(addr) = s.strip_prefix("tcp://") {
            if addr.is_empty() {
                return Err(format!("endpoint '{s}' has an empty address"));
            }
            return Ok(Endpoint::Tcp(addr.to_string()));
        }
        #[cfg(unix)]
        if let Some(path) = s.strip_prefix("uds://") {
            if path.is_empty() {
                return Err(format!("endpoint '{s}' has an empty path"));
            }
            return Ok(Endpoint::Uds(PathBuf::from(path)));
        }
        Err(format!("endpoint '{s}' must start with tcp:// or uds://"))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}

/// One accepted or dialed connection, transport-agnostic.
pub enum Conn {
    /// A TCP stream (`TCP_NODELAY` set: tile latencies sit under the
    /// lifecycle's `T_L`, so delayed ACKs are not acceptable).
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    /// Dial `endpoint` once.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Conn> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => Ok(Conn::Uds(UnixStream::connect(path)?)),
        }
    }

    /// Dial with retries (a worker process typically races the listener).
    pub fn connect_retry(endpoint: &Endpoint, attempts: u32, delay: Duration) -> io::Result<Conn> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match Conn::connect(endpoint) {
                Ok(c) => return Ok(c),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(delay);
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connect attempts")))
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
        }
    }

    fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Conn::Uds(s) => s.shutdown(Shutdown::Both),
        }
    }

    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_read_timeout(d),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
        }
    }
}

enum ListenerInner {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

/// A bound listener workers connect to. For `tcp://…:0` the resolved
/// endpoint (with the kernel-assigned port) is available from
/// [`endpoint`](WorkerListener::endpoint) — pass *that* to the worker
/// processes. Removes its socket file on drop (UDS).
pub struct WorkerListener {
    inner: ListenerInner,
    endpoint: Endpoint,
}

impl WorkerListener {
    /// Bind `endpoint`. A stale UDS socket file (a previous run that never
    /// cleaned up) is removed and the bind retried once.
    pub fn bind(endpoint: &Endpoint) -> io::Result<WorkerListener> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let actual = l.local_addr()?;
                Ok(WorkerListener {
                    inner: ListenerInner::Tcp(l),
                    endpoint: Endpoint::Tcp(actual.to_string()),
                })
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                let l = match UnixListener::bind(path) {
                    Ok(l) => l,
                    Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                        std::fs::remove_file(path)?;
                        UnixListener::bind(path)?
                    }
                    Err(e) => return Err(e),
                };
                Ok(WorkerListener {
                    inner: ListenerInner::Uds(l, path.clone()),
                    endpoint: endpoint.clone(),
                })
            }
        }
    }

    /// The resolved endpoint (actual port for `tcp://…:0`).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Block until a worker connects.
    fn accept(&self) -> io::Result<Conn> {
        match &self.inner {
            ListenerInner::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            ListenerInner::Uds(l, _) => Ok(Conn::Uds(l.accept()?.0)),
        }
    }
}

impl Drop for WorkerListener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let ListenerInner::Uds(_, path) = &self.inner {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Model spec

/// Everything a worker process needs to rebuild its half of the model,
/// carried in the `WELCOME` frame. Both sides call [`build`](Self::build):
/// the weights are deterministic in `seed`, so the Central's suffix and
/// every worker's prefix come from the *same* model without shipping
/// tensors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RemoteModelSpec {
    /// Classifier width of the generated [`shapes_cnn`] model.
    pub classes: usize,
    /// Weight-generation seed.
    pub seed: u64,
    /// FDSP grid rows.
    pub grid_rows: usize,
    /// FDSP grid columns.
    pub grid_cols: usize,
    /// Boundary clipped-ReLU `(lo, hi)`; `None` disables boundary
    /// compression (comparison mode).
    pub crelu: Option<(f32, f32)>,
    /// Boundary quantizer bit width (used when `crelu` is set).
    pub quant_bits: u8,
}

impl RemoteModelSpec {
    /// The paper-default spec: 4-bit quantization over a `[0, 2]` clipped
    /// ReLU at the boundary.
    pub fn paper_default(classes: usize, seed: u64, grid: TileGrid) -> Self {
        RemoteModelSpec {
            classes,
            seed,
            grid_rows: grid.rows,
            grid_cols: grid.cols,
            crelu: Some((0.0, 2.0)),
            quant_bits: 4,
        }
    }

    /// Rebuild the partitioned model this spec describes; panics if the
    /// grid does not divide the model's input.
    pub fn build(&self) -> PartitionedModel {
        self.checked_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`build`](Self::build), or the reason this spec names no model: a
    /// grid that does not divide the input. A received spec goes through
    /// here, so a bad one is an error and not a panic.
    pub(crate) fn checked_build(&self) -> Result<PartitionedModel, String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let grid = TileGrid::new(self.grid_rows, self.grid_cols);
        let model = shapes_cnn(self.classes, &mut rng);
        let (_, h, w) = model.input;
        if h % grid.rows != 0 || w % grid.cols != 0 {
            return Err(format!("input {h}x{w} not divisible by {grid}"));
        }
        let mut m = PartitionedModel::fdsp(model, grid);
        if let Some((lo, hi)) = self.crelu {
            let cr = ClippedRelu::new(lo, hi);
            m = m.with_crelu(cr).with_quant(QuantizeSte::new(self.quant_bits, cr.range()));
        }
        Ok(m)
    }

    /// Serialize into `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.classes as u32).to_le_bytes());
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&(self.grid_rows as u32).to_le_bytes());
        buf.extend_from_slice(&(self.grid_cols as u32).to_le_bytes());
        match self.crelu {
            Some((lo, hi)) => {
                buf.push(1);
                buf.extend_from_slice(&lo.to_bits().to_le_bytes());
                buf.extend_from_slice(&hi.to_bits().to_le_bytes());
            }
            None => {
                buf.push(0);
                buf.extend_from_slice(&[0u8; 8]);
            }
        }
        buf.push(self.quant_bits);
    }

    /// Deserialize, advancing `b` past the spec.
    pub fn decode(b: &mut &[u8]) -> Option<RemoteModelSpec> {
        let classes = rd_u32(b)? as usize;
        let seed = rd_u64(b)?;
        let grid_rows = rd_u32(b)? as usize;
        let grid_cols = rd_u32(b)? as usize;
        let has_crelu = rd_u8(b)?;
        let lo = rd_f32(b)?;
        let hi = rd_f32(b)?;
        let quant_bits = rd_u8(b)?;
        if classes == 0 || grid_rows == 0 || grid_cols == 0 {
            return None;
        }
        let crelu = match has_crelu {
            0 => None,
            1 if lo.is_finite() && hi.is_finite() && lo < hi => Some((lo, hi)),
            _ => return None,
        };
        // The nibble RLE codec carries at most 4-bit levels.
        if crelu.is_some() && !(1..=4).contains(&quant_bits) {
            return None;
        }
        Some(RemoteModelSpec { classes, seed, grid_rows, grid_cols, crelu, quant_bits })
    }
}

/// Cut a model down to the worker-side prefix network and its boundary
/// compression — the same formula `AdcnnRuntime::launch` applies, so a
/// remote worker's pipeline is byte-identical to an in-process thread's.
pub(crate) fn prefix_and_compression(
    mut model: PartitionedModel,
) -> (Network, Option<Compression>) {
    let compression = model.boundary_crelu.map(|cr| Compression {
        crelu: cr,
        quantizer: Quantizer::new(model.boundary_quant.map(|q| q.bits).unwrap_or(4), cr.range()),
    });
    model.net.blocks.truncate(model.prefix);
    (model.net, compression)
}

// ---------------------------------------------------------------------------
// Central side: acceptor + per-slot supervisors

/// What one worker slot's supervisor, its connection's reader and the
/// acceptor share.
struct SlotCtx {
    slot: usize,
    spec: RemoteModelSpec,
    /// The slot's one channel: the collector's tiles and shutdown, the
    /// acceptor's connections and the reader's exit all arrive here, so the
    /// supervisor waits in a single `recv()`.
    tx: Sender<WorkerMsg>,
    /// Set by the acceptor in the same step that hands this slot a
    /// connection; cleared by the slot's supervisor once that connection is
    /// gone (handshake failure or disconnect). A flag the supervisor raised
    /// only after its handshake would leave a window in which the acceptor
    /// queues a second connection behind the first in this slot while
    /// another slot stays empty.
    claimed: AtomicBool,
    /// Connection generation: a reader captures the value at spawn and
    /// stops forwarding the moment it moves on, so a superseded
    /// connection's results can never reach the demux (no double-counting,
    /// no EWMA resurrection for a worker the lifecycle already buried).
    generation: AtomicU64,
    inbound: Sender<Inbound>,
    stats: Arc<WorkerStats>,
    sink: SinkHandle,
    epoch: Instant,
}

/// The Central node's transport half: the acceptor thread plus one
/// supervisor thread per worker slot. The supervisors double as the
/// runtime's worker "handles": they exit on [`WorkerMsg::Shutdown`], after
/// forwarding it to a connected worker process.
pub(crate) struct RemoteCluster {
    stop: Arc<AtomicBool>,
    /// Where the acceptor listens; [`stop`](Self::stop) dials it once to
    /// wake the blocking `accept()`.
    endpoint: Endpoint,
    acceptor: Option<JoinHandle<()>>,
}

/// What [`RemoteCluster::start`] hands back to `launch_remote`: the
/// cluster handle, the per-slot task senders (the collector's dispatch
/// seam) and the supervisor join handles.
pub(crate) type ClusterSeams = (RemoteCluster, Vec<Sender<WorkerMsg>>, Vec<JoinHandle<()>>);

impl RemoteCluster {
    /// Start the acceptor and one supervisor per entry of `worker_stats`.
    /// The supervisors send each slot's results and its ups and downs to
    /// the collector's `inbound` channel; readers mirror each tile's spans
    /// into `sink`, stamped against `epoch`.
    pub(crate) fn start(
        listener: WorkerListener,
        spec: RemoteModelSpec,
        task_queue_cap: usize,
        inbound: Sender<Inbound>,
        worker_stats: Vec<Arc<WorkerStats>>,
        sink: SinkHandle,
        epoch: Instant,
    ) -> ClusterSeams {
        let mut slots = Vec::with_capacity(worker_stats.len());
        let mut task_txs = Vec::with_capacity(worker_stats.len());
        let mut handles = Vec::with_capacity(worker_stats.len());
        for (slot, stats) in worker_stats.into_iter().enumerate() {
            let (tx, rx) = bounded(task_queue_cap);
            task_txs.push(tx.clone());
            let ctx = Arc::new(SlotCtx {
                slot,
                spec,
                tx,
                claimed: AtomicBool::new(false),
                generation: AtomicU64::new(0),
                inbound: inbound.clone(),
                stats,
                sink: sink.clone(),
                epoch,
            });
            slots.push(ctx.clone());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("conv-slot-{slot}"))
                    .spawn(move || supervise_slot(&ctx, rx))
                    .expect("failed to spawn slot supervisor"),
            );
        }
        let stop = Arc::new(AtomicBool::new(false));
        let endpoint = listener.endpoint().clone();
        let acceptor = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("adcnn-acceptor".into())
                .spawn(move || acceptor_loop(listener, slots, stop))
                .expect("failed to spawn acceptor thread")
        };
        (RemoteCluster { stop, endpoint, acceptor: Some(acceptor) }, task_txs, handles)
    }

    /// Stop accepting connections and join the acceptor (supervisors are
    /// joined by the runtime through their handles).
    pub(crate) fn stop(&mut self) {
        let Some(h) = self.acceptor.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept(); the acceptor sees the flag and exits.
        // A dial that fails leaves nothing to wake it: detach, never hang.
        if Conn::connect(&self.endpoint).is_ok() {
            let _ = h.join();
        }
    }
}

impl Drop for RemoteCluster {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop(listener: WorkerListener, slots: Vec<Arc<SlotCtx>>, stop: Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return; // `listener` drops here: UDS socket file removed
        }
        if let Ok(conn) = conn {
            admit_connection(conn, &slots);
        }
    }
}

/// Validate a new connection's `HELLO` and hand it to a free slot; refuse
/// (with a best-effort `SHUTDOWN`) when every slot is occupied.
fn admit_connection(mut conn: Conn, slots: &[Arc<SlotCtx>]) {
    // Bound the handshake: a connection that never sends HELLO must not
    // wedge the acceptor.
    if conn.set_read_timeout(Some(Duration::from_secs(1))).is_err() {
        return;
    }
    let ok = matches!(
        read_frame(&mut conn),
        Ok(Some((TAG_HELLO, body))) if decode_hello(&body).is_some()
    );
    if !ok || conn.set_read_timeout(None).is_err() {
        return; // drop: not a worker speaking our protocol
    }
    for slot in slots {
        // Claim the slot and hand the connection over as one step: a slot
        // stays skipped from here until its supervisor releases it. An
        // unclaimed slot's supervisor is down, so it is receiving: the send
        // waits at most for the stale tiles queued ahead of it, and fails
        // only once the supervisor has exited.
        if slot.claimed.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            continue;
        }
        match slot.tx.send(WorkerMsg::Conn(conn)) {
            Ok(()) => return,
            Err(SendError(msg)) => {
                slot.claimed.store(false, Ordering::SeqCst);
                let WorkerMsg::Conn(c) = msg else { unreachable!("sent a Conn") };
                conn = c;
            }
        }
    }
    let _ = write_frame(&mut conn, TAG_SHUTDOWN, &[]);
}

/// One worker slot's supervisor: owns the slot's channel for the runtime's
/// life and waits on it in one blocking `recv()`, bridging its tiles to
/// whatever connection currently backs the slot and reporting the slot up
/// or down on `inbound`. Exits on [`WorkerMsg::Shutdown`].
fn supervise_slot(ctx: &Arc<SlotCtx>, rx: Receiver<WorkerMsg>) {
    loop {
        // --- down: wait for a connection, dropping stale tiles as they
        // arrive. The lifecycle already recovered them (send_to refuses
        // dead workers; anything still queued predates the death) — a tile
        // handed to a dead slot must never be computed on reconnect.
        let mut conn = loop {
            match rx.recv() {
                Ok(WorkerMsg::Conn(c)) => break c,
                Ok(WorkerMsg::Shutdown) | Err(_) => return,
                Ok(_) => {}
            }
        };
        let my_gen = ctx.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let welcome = encode_welcome(ctx.slot as u32, &ctx.spec);
        let reader_conn =
            match write_frame(&mut conn, TAG_WELCOME, &welcome).and_then(|()| conn.try_clone()) {
                Ok(c) => c,
                Err(_) => {
                    // A failed handshake releases the acceptor's claim.
                    ctx.claimed.store(false, Ordering::SeqCst);
                    continue;
                }
            };
        let reader = {
            let ctx = ctx.clone();
            std::thread::Builder::new()
                .name(format!("conv-slot-{}-rx", ctx.slot))
                .spawn(move || reader_loop(&ctx, reader_conn, my_gen))
                .expect("failed to spawn slot reader")
        };
        let _ = ctx.inbound.send(Inbound::Up(ctx.slot));

        // --- up: forward rounds until the reader reports its connection
        // gone, a write fails, or the runtime shuts down. A round is its
        // tiles' `TASK` frames, encoded into one reused buffer and written
        // at once.
        let (mut shutting_down, mut reader_gone) = (false, false);
        let mut frames = BytesMut::new();
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Tiles(round) => {
                    frames.clear();
                    let encoded = round.iter().try_for_each(|task| {
                        push_frame(&mut frames, TAG_TASK, |b| task.encode_into(b))
                    });
                    if encoded.and_then(|()| write_frames(&mut conn, &frames)).is_err() {
                        break;
                    }
                }
                WorkerMsg::Shutdown => {
                    let _ = write_frame(&mut conn, TAG_SHUTDOWN, &[]);
                    shutting_down = true;
                    break;
                }
                WorkerMsg::ReaderGone(g) if g == my_gen => {
                    reader_gone = true;
                    break;
                }
                // No second connection while the slot is claimed.
                _ => {}
            }
        }

        // --- teardown: supersede the reader *first* (so nothing more is
        // forwarded) and unblock it, then receive until it says goodbye
        // before joining it: its `ReaderGone` may be waiting for room in
        // this very channel. Tiles arriving meanwhile are stale.
        ctx.generation.fetch_add(1, Ordering::SeqCst);
        let _ = conn.shutdown();
        while !reader_gone {
            match rx.recv() {
                Ok(WorkerMsg::ReaderGone(g)) => reader_gone = g == my_gen,
                Ok(WorkerMsg::Shutdown) => shutting_down = true,
                Ok(_) => {}
                Err(_) => reader_gone = true,
            }
        }
        let _ = reader.join();
        ctx.claimed.store(false, Ordering::SeqCst);
        if shutting_down {
            return;
        }
        let _ = ctx.inbound.send(Inbound::Down(ctx.slot));
    }
}

/// Drain `RESULT` frames from one connection into the collector's inbound
/// channel, observing each tile (stats and compute/compress spans) at
/// arrival time. The frames already whole in the read buffer travel
/// together as one [`Inbound::Results`]; the reader never waits for more to
/// fill a reply. Exits on EOF, error, a protocol violation, or generation
/// supersession — after forwarding the results read before it — and then
/// sends its supervisor exactly one [`WorkerMsg::ReaderGone`].
fn reader_loop(ctx: &SlotCtx, conn: Conn, my_gen: u64) {
    let mut conn = BufReader::with_capacity(READ_BUF_BYTES, conn);
    loop {
        let mut results = Vec::new();
        let open = loop {
            // Anything else out of read_frame — clean EOF, mid-frame
            // truncation, socket error, or a frame this direction never
            // carries — ends the connection, and so do a structurally
            // unreadable body and a superseded generation (this connection's
            // results no longer count).
            let Ok(Some((TAG_RESULT, body))) = read_frame(&mut conn) else { break false };
            let Some((compute_ns, compress_ns, res)) = decode_result_body(&body) else {
                break false;
            };
            if ctx.generation.load(Ordering::SeqCst) != my_gen {
                break false;
            }
            observe_tile(
                &ctx.stats,
                &ctx.sink,
                ctx.slot,
                ctx.epoch.elapsed().as_secs_f64(),
                Duration::from_nanos(compute_ns),
                Duration::from_nanos(compress_ns),
                &res,
            );
            results.push(res);
            if !frame_buffered(conn.buffer()) {
                break true;
            }
        };
        if !results.is_empty() && ctx.inbound.send(Inbound::Results(ctx.slot, results)).is_err() {
            break; // runtime gone
        }
        if !open {
            break;
        }
    }
    // A peer that broke protocol may still be connected and not reading:
    // close the socket so the supervisor's next write fails instead of
    // blocking.
    let _ = conn.get_ref().shutdown();
    let _ = ctx.tx.send(WorkerMsg::ReaderGone(my_gen));
}

// ---------------------------------------------------------------------------
// Worker side

/// Connect to a Central node at `endpoint` and serve tiles until it sends
/// `SHUTDOWN` or closes the connection. This is the whole Conv-node
/// process: handshake, rebuild the prefix from the [`RemoteModelSpec`] in
/// the `WELCOME`, then a `TASK` → `process_tile` → `RESULT` loop sharing
/// the in-process workers' exact compute path, one reply per batch of
/// buffered tasks (module docs, "Rounds").
pub fn run_worker(endpoint: &Endpoint) -> io::Result<()> {
    let conn = Conn::connect(endpoint)?;
    run_worker_on(conn)
}

/// [`run_worker`] with connect retries (worker processes usually race the
/// Central node's listener at startup).
pub fn run_worker_retry(endpoint: &Endpoint, attempts: u32, delay: Duration) -> io::Result<()> {
    let conn = Conn::connect_retry(endpoint, attempts, delay)?;
    run_worker_on(conn)
}

fn run_worker_on(mut conn: Conn) -> io::Result<()> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    write_frame(&mut conn, TAG_HELLO, &encode_hello(0))?;
    let (tag, body) = read_frame(&mut conn)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "closed before WELCOME"))?;
    if tag == TAG_SHUTDOWN {
        return Ok(()); // no free slot: a clean refusal, not an error
    }
    if tag != TAG_WELCOME {
        return Err(bad("expected WELCOME"));
    }
    let (_worker_id, spec) = decode_welcome(&body).ok_or_else(|| bad("unreadable WELCOME"))?;
    let model = spec.checked_build().map_err(|e| bad(&e))?;
    let (prefix, compression) = prefix_and_compression(model);
    let mut scratch = InferScratch::new();
    let mut cs = CompressScratch::new();
    // Buffered from here on: the handshake was read frame by frame, so no
    // byte of it can be stranded in the buffer.
    let mut conn = BufReader::with_capacity(READ_BUF_BYTES, conn);
    let mut replies = BytesMut::new();
    loop {
        // Compute every task frame already whole in the buffer, then answer
        // them with one write: the reply never waits for a frame still on
        // its way.
        replies.clear();
        loop {
            match read_frame(&mut conn)? {
                None | Some((TAG_SHUTDOWN, _)) => return Ok(()),
                Some((TAG_TASK, body)) => {
                    let task = TileTask::decode(&body).ok_or_else(|| bad("unreadable TASK"))?;
                    let (res, compute, compress) =
                        process_tile(&prefix, compression, &task, &mut scratch, &mut cs);
                    let (compute, compress) =
                        (compute.as_nanos() as u64, compress.as_nanos() as u64);
                    push_frame(&mut replies, TAG_RESULT, |b| {
                        put_result_body(b, &res, compute, compress)
                    })?;
                }
                Some(_) => return Err(bad("unexpected frame tag")),
            }
            if !frame_buffered(conn.buffer()) {
                break;
            }
        }
        write_frames(conn.get_mut(), &replies)?;
    }
}

/// Run a worker on a thread inside this process, over a *real* socket —
/// loopback transport with in-process lifetimes (tests and benches). It
/// dials once: bind the listener first, and the kernel's backlog holds the
/// connection until the acceptor takes it.
pub fn spawn_loopback_worker(endpoint: Endpoint) -> JoinHandle<io::Result<()>> {
    std::thread::Builder::new()
        .name("loopback-conv-worker".into())
        .spawn(move || run_worker(&endpoint))
        .expect("failed to spawn loopback worker thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcnn_core::wire::TileKey;
    use adcnn_tensor::Tensor;

    #[test]
    fn endpoint_parse_display_roundtrip() {
        let t = Endpoint::parse("tcp://127.0.0.1:9000").unwrap();
        assert_eq!(t, Endpoint::Tcp("127.0.0.1:9000".into()));
        assert_eq!(t.to_string(), "tcp://127.0.0.1:9000");
        #[cfg(unix)]
        {
            let u = Endpoint::parse("uds:///tmp/adcnn.sock").unwrap();
            assert_eq!(u, Endpoint::Uds(PathBuf::from("/tmp/adcnn.sock")));
            assert_eq!(u.to_string(), "uds:///tmp/adcnn.sock");
        }
        assert!(Endpoint::parse("http://x").is_err());
        assert!(Endpoint::parse("tcp://").is_err());
        assert!(Endpoint::parse("").is_err());
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_TASK, b"hello").unwrap();
        write_frame(&mut wire, TAG_SHUTDOWN, b"").unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some((TAG_TASK, b"hello".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((TAG_SHUTDOWN, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF between frames");
    }

    #[test]
    fn frame_rejects_oversized_and_zero_lengths() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        assert!(read_frame(&mut &wire[..]).is_err(), "over-cap length must not allocate");
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut &zero[..]).is_err(), "zero length has no tag byte");
        // EOF inside the header is an error, not a clean close.
        let partial = [1u8, 0];
        assert!(read_frame(&mut &partial[..]).is_err());
    }

    #[test]
    fn hello_welcome_roundtrip() {
        assert_eq!(decode_hello(&encode_hello(7)), Some(7));
        let mut bad = encode_hello(0);
        bad[0] ^= 0xFF; // wrong magic
        assert_eq!(decode_hello(&bad), None);
        let spec = RemoteModelSpec::paper_default(6, 42, TileGrid::new(2, 2));
        let welcome = encode_welcome(3, &spec);
        assert_eq!(decode_welcome(&welcome), Some((3, spec)));
        assert_eq!(decode_welcome(&welcome[..welcome.len() - 1]), None, "truncated");
    }

    #[test]
    fn spec_codec_rejects_out_of_domain_values() {
        let mut spec = RemoteModelSpec::paper_default(6, 1, TileGrid::new(2, 2));
        spec.crelu = Some((2.0, 0.0)); // lo >= hi
        let mut b = Vec::new();
        spec.encode_into(&mut b);
        assert_eq!(RemoteModelSpec::decode(&mut &b[..]), None);
        let mut spec = RemoteModelSpec::paper_default(6, 1, TileGrid::new(2, 2));
        spec.quant_bits = 0;
        let mut b = Vec::new();
        spec.encode_into(&mut b);
        assert_eq!(RemoteModelSpec::decode(&mut &b[..]), None);
        // The nibble RLE codec carries at most 4-bit levels.
        for (bits, ok) in [(4u8, true), (5, false), (8, false)] {
            spec.quant_bits = bits;
            let mut b = Vec::new();
            spec.encode_into(&mut b);
            assert_eq!(RemoteModelSpec::decode(&mut &b[..]).is_some(), ok, "{bits} bits");
        }
        // No compression: quant_bits is unconstrained and preserved.
        let spec = RemoteModelSpec {
            classes: 4,
            seed: 9,
            grid_rows: 1,
            grid_cols: 2,
            crelu: None,
            quant_bits: 0,
        };
        let mut b = Vec::new();
        spec.encode_into(&mut b);
        assert_eq!(RemoteModelSpec::decode(&mut &b[..]), Some(spec));
    }

    /// A WELCOME whose grid does not divide the input ends the worker with
    /// an error; building the model from it must not panic.
    #[test]
    fn a_worker_handed_an_undividable_grid_ends_with_an_error() {
        let listener = WorkerListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
        let worker = spawn_loopback_worker(listener.endpoint().clone());
        let mut conn = listener.accept().expect("accept");
        let (tag, _) = read_frame(&mut conn).expect("read").expect("HELLO");
        assert_eq!(tag, TAG_HELLO);
        let spec = RemoteModelSpec::paper_default(6, 1, TileGrid::new(3, 3));
        write_frame(&mut conn, TAG_WELCOME, &encode_welcome(0, &spec)).expect("WELCOME");
        let err = worker.join().expect("the worker must not panic").expect_err("nor serve");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not divisible"), "{err}");
    }

    #[test]
    fn spec_builds_identical_models_on_both_sides() {
        let spec = RemoteModelSpec::paper_default(6, 11, TileGrid::new(2, 2));
        let (prefix_a, comp_a) = prefix_and_compression(spec.build());
        let (prefix_b, comp_b) = prefix_and_compression(spec.build());
        let x = Tensor::full([1, 3, 16, 16], 0.3);
        let ya = prefix_a.forward_infer_with(&x, &mut InferScratch::new()).to_tensor();
        let yb = prefix_b.forward_infer_with(&x, &mut InferScratch::new()).to_tensor();
        assert!(ya.approx_eq(&yb, 0.0), "same seed must rebuild identical weights");
        let (ca, cb) = (comp_a.unwrap(), comp_b.unwrap());
        assert_eq!(
            (ca.quantizer.bits, ca.quantizer.range),
            (cb.quantizer.bits, cb.quantizer.range)
        );
    }

    #[test]
    fn result_body_roundtrips_timing_and_payload() {
        let key = TileKey { image_id: 8, tile_id: 1 };
        let t = Tensor::full([1, 2, 4, 4], 0.5);
        let q = Quantizer::new(4, 2.0);
        let compressed = adcnn_core::compress::compress(t.as_slice(), q);
        let res =
            adcnn_core::wire::make_result_from_parts(key, [1, 2, 4, 4], 32, &compressed.payload, q);
        let body = encode_result_body(&res, 1234, 567);
        let (compute_ns, compress_ns, back) = decode_result_body(&body).unwrap();
        assert_eq!((compute_ns, compress_ns), (1234, 567));
        assert_eq!(back.key, key);
        assert_eq!(back.to_tensor().unwrap().as_slice(), res.to_tensor().unwrap().as_slice());
        assert!(decode_result_body(&body[..10]).is_none(), "truncated timing header");
    }

    /// A reader that hands out 1–7 bytes per `read` and counts its calls.
    struct Trickle<'a> {
        data: &'a [u8],
        rng: StdRng,
        reads: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            use rand::Rng;
            self.reads += 1;
            let n = self.rng.gen_range(1..8usize).min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A round as the supervisor writes it: task frames of two sizes, then
    /// an empty frame, all in one buffer. Returns the bytes and each
    /// frame's end.
    fn a_round() -> (BytesMut, Vec<usize>) {
        let mut round = BytesMut::new();
        let mut ends = Vec::new();
        for (t, side) in [(0u32, 4usize), (1, 2), (2, 4)] {
            let task = TileTask {
                key: TileKey { image_id: 6, tile_id: t },
                tile: Tensor::full([1, 3, side, side], 0.25 * t as f32),
            };
            push_frame(&mut round, TAG_TASK, |b| task.encode_into(b)).unwrap();
            ends.push(round.len());
        }
        push_frame(&mut round, TAG_SHUTDOWN, |_| {}).unwrap();
        ends.push(round.len());
        (round, ends)
    }

    #[test]
    fn buffered_reads_of_a_trickled_round_match_the_unbuffered_path() {
        let (round, _) = a_round();
        let mut plain = &round[..];
        let mut want = Vec::new();
        while let Some(frame) = read_frame(&mut plain).unwrap() {
            want.push(frame);
        }
        assert_eq!(want.len(), 4);
        for (seed, cap) in [(1, 5), (2, 64), (3, READ_BUF_BYTES)] {
            let inner = Trickle { data: &round, rng: StdRng::seed_from_u64(seed), reads: 0 };
            let mut rd = BufReader::with_capacity(cap, inner);
            let mut got = Vec::new();
            loop {
                // A frame reported whole is read without touching the socket.
                let (whole, before) = (frame_buffered(rd.buffer()), rd.get_ref().reads);
                let Some(frame) = read_frame(&mut rd).unwrap() else { break };
                if whole {
                    assert_eq!(rd.get_ref().reads, before, "a whole buffered frame read again");
                }
                got.push(frame);
            }
            assert_eq!(got, want, "capacity {cap}");
        }
    }

    #[test]
    fn a_frame_is_buffered_only_once_its_body_is() {
        let (round, ends) = a_round();
        let mut start = 0;
        for &end in &ends {
            for cut in start..end {
                assert!(!frame_buffered(&round[start..cut]), "short body at {cut} of {end}");
            }
            assert!(frame_buffered(&round[start..end]));
            assert!(frame_buffered(&round[start..]), "with more frames behind it");
            start = end;
        }
        // A zero length word is whole: read_frame rejects it at once.
        assert!(frame_buffered(&0u32.to_le_bytes()));
        assert!(!frame_buffered(&[0, 0, 0]));
    }

    #[test]
    fn a_round_cut_off_mid_body_takes_the_slot_down() {
        use crate::central::{AdcnnRuntime, RuntimeConfig};
        let listener = WorkerListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let endpoint = listener.endpoint().clone();
        let honest = spawn_loopback_worker(endpoint.clone());
        // A worker that answers its first task with a round of two result
        // frames, the second cut off halfway through its body, then dies.
        let cut = std::thread::spawn(move || {
            let mut conn = Conn::connect(&endpoint).unwrap();
            write_frame(&mut conn, TAG_HELLO, &encode_hello(0)).unwrap();
            let Ok(Some((TAG_WELCOME, body))) = read_frame(&mut conn) else { panic!("welcome") };
            let (slot, _) = decode_welcome(&body).unwrap();
            let Ok(Some((TAG_TASK, body))) = read_frame(&mut conn) else { panic!("a task") };
            let task = TileTask::decode(&body).unwrap();
            let q = Quantizer::new(4, 2.0);
            let zeros = adcnn_core::compress::compress(&[0.0; 4], q);
            let res = adcnn_core::wire::make_result_from_parts(
                task.key,
                [1, 1, 2, 2],
                4,
                &zeros.payload,
                q,
            );
            let mut reply = BytesMut::new();
            push_frame(&mut reply, TAG_RESULT, |b| put_result_body(b, &res, 1, 1)).unwrap();
            let whole = reply.len();
            push_frame(&mut reply, TAG_RESULT, |b| put_result_body(b, &res, 1, 1)).unwrap();
            conn.write_all(&reply[..whole + (reply.len() - whole) / 2]).unwrap();
            slot as usize
        });
        let spec = RemoteModelSpec::paper_default(6, 42, TileGrid::new(2, 2));
        let mut rt = AdcnnRuntime::launch_remote(
            spec,
            2,
            RuntimeConfig::default(),
            listener,
            Duration::from_secs(10),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let out = rt.infer(&Tensor::randn([1, 3, 32, 32], 0.5, &mut rng));
        let slot = cut.join().unwrap();
        assert_eq!(out.zero_filled, 0, "the honest worker recovers every tile");
        assert_eq!(out.received[slot], 0, "a cut-off round delivers no tile");
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.live_workers()[slot] {
            assert!(Instant::now() < deadline, "the cut-off slot never went down");
            std::thread::sleep(Duration::from_millis(5));
        }
        let out = rt.infer(&Tensor::randn([1, 3, 32, 32], 0.5, &mut rng));
        assert_eq!((out.zero_filled, out.alloc[slot]), (0, 0), "served on without it");
        rt.shutdown();
        honest.join().unwrap().unwrap();
    }
}
