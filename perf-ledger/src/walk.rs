//! The walk: one image's pipeline performed serially through the layers'
//! public functions, with a span around every call.
//!
//! With the tracer off this is the serial reference every served output is
//! compared against bit for bit. With it on, the spans give each layer's
//! time from outside — the per-layer metrics, each span name's self time,
//! and a Chrome trace. On one CPU nothing in the served pipeline overlaps,
//! so the walk's stage sum is what a served image's latency should
//! reconcile with; what is left over is channel hops, wake-ups and clones.

use crate::models::{ops_of, Op, Pipeline};
use crate::quiet::percentile;
use adcnn_core::compress::{clip_and_compress_into, CompressScratch};
use adcnn_core::lifecycle::{Action, Event, LifecyclePolicy, TileLifecycle};
use adcnn_core::sched::TileAllocator;
use adcnn_core::wire::{make_result_from_parts, TileKey, TileTask};
use adcnn_nn::infer::InferScratch;
use adcnn_runtime::transport::{
    decode_result_body, encode_result_body, read_frame, write_frame, Conn, Endpoint, TAG_RESULT,
    TAG_TASK,
};
use adcnn_tensor::conv::conv2d_into;
use adcnn_tensor::gemm::{gemm_fused, FusedAct};
use adcnn_tensor::pool::maxpool2d_into;
use adcnn_tensor::{ActBuf, Scratch, Tensor};
use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The image the work belonged to, when it belonged to one.
    pub image: Option<u64>,
}

/// In-memory span recorder. Disabled, every call is a branch and nothing
/// else — that is how the reference is built.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Self and total time of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub self_us: f64,
    pub total_us: f64,
    pub spans: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Switch recording on or off. Spans entered while off are not
    /// recorded, so toggle only between spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under whichever span is open now.
    pub fn enter(&mut self, name: &'static str, image: Option<u64>) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start_us = self.now_us();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_us, end_us: start_us, parent, image });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_us = end_us;
    }

    /// How many spans have been recorded: a position to measure from.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Median duration in µs of the spans called `name` recorded since
    /// `mark` (0 for all of them).
    pub fn median_us(&self, name: &str, mark: usize) -> f64 {
        let mut d: Vec<f64> = self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect();
        d.sort_by(f64::total_cmp);
        percentile(&d, 0.5)
    }

    /// Per span name: total time, and self time = total minus the part its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let e = out.entry(s.name).or_default();
            let total = s.end_us - s.start_us;
            e.total_us += total;
            e.self_us += total - child;
            e.spans += 1;
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
    /// events on one track, parent index and image id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let image = s.image.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"image\":{image}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// What one walked image produced, with the exact counts that ride along.
#[derive(Clone, Debug, Default)]
pub struct ImageOut {
    /// The network output, bit patterns.
    pub output: Vec<u32>,
    /// Σ `TileResult::wire_bits` — what `InferOutcome.wire_bits` must equal.
    pub wire_bits: u64,
    /// Σ compressed payload bytes.
    pub payload_bytes: u64,
    /// Σ `TASK` frame bytes (length word + tag + body).
    pub task_frame_bytes: u64,
    /// Σ `RESULT` frame bytes.
    pub result_frame_bytes: u64,
    /// Boundary elements, and how many of them decode to exact zero.
    pub elems: u64,
    pub zero_elems: u64,
}

/// Frame overhead: `u32` length word + tag byte.
const FRAME_HEADER_BYTES: u64 = 5;

/// Serial executor of one model's pipeline. Owns the same kinds of scratch
/// the runtime's threads own, so steady-state calls allocate what theirs do.
pub struct Walker<'a> {
    p: &'a Pipeline,
    prefix_scratch: InferScratch,
    suffix_scratch: InferScratch,
    cs: CompressScratch,
    allocator: TileAllocator,
    rng: StdRng,
    workers: usize,
    /// Last task and result bodies, kept for the transport walk.
    pub task_body: BytesMut,
    pub result_body: BytesMut,
}

impl<'a> Walker<'a> {
    pub fn new(p: &'a Pipeline, workers: usize) -> Walker<'a> {
        Walker {
            p,
            prefix_scratch: InferScratch::new(),
            suffix_scratch: InferScratch::new(),
            cs: CompressScratch::new(),
            allocator: TileAllocator::unbounded(workers),
            rng: StdRng::seed_from_u64(42),
            workers,
            task_body: BytesMut::new(),
            result_body: BytesMut::new(),
        }
    }

    /// Bytes held by the prefix and suffix inference scratch.
    pub fn scratch_bytes(&self) -> usize {
        self.prefix_scratch.capacity_bytes() + self.suffix_scratch.capacity_bytes()
    }

    /// One image, front to back: partition → allocate → lifecycle → per tile
    /// (task codec → prefix → compress → result codec → decode → paste) →
    /// suffix. Tiles and results pass *through* the wire codecs, so the
    /// dataflow is the socket carrier's; the in-process carrier skips the
    /// codecs and must produce the same bits.
    pub fn image(&mut self, x: &Tensor, id: u64, t: &mut Tracer) -> ImageOut {
        let grid = self.p.grid;
        let d = grid.tiles();
        let image = Some(id);
        let mut out = ImageOut::default();
        t.enter("image", image);

        t.enter("core.fdsp.extract", image);
        let tiles = grid.extract(x);
        t.exit();

        let speeds = vec![1.0f64; self.workers];
        t.enter("core.sched.allocate", image);
        let alloc = self.allocator.allocate(d, &speeds, &mut self.rng);
        t.exit();

        // The healthy event sequence of one image, on a synthetic clock
        // (the machine is sans-IO: it never looks at a real one).
        t.enter("core.lifecycle.image", image);
        let live = vec![true; self.workers];
        let (mut lc, acts) =
            TileLifecycle::begin(LifecyclePolicy::default(), 0.0, d, &alloc, &speeds, &live);
        let mut owner = vec![0usize; d];
        for act in acts {
            if let Action::Dispatch { tile, to } = act {
                owner[tile] = to;
                lc.handle(Event::TileDelivered { tile });
            }
        }
        lc.handle(Event::SendComplete { at: 1e-4 });
        for (tile, &worker) in owner.iter().enumerate() {
            let at = 1e-3 * (tile + 1) as f64;
            lc.handle(Event::ResultArrived { at, tile, worker, ok: true });
        }
        assert!(lc.is_complete(), "healthy lifecycle did not complete");
        t.exit();

        // Sized from the first decoded tile.
        let mut assembled: Option<Tensor> = None;
        for (i, tile) in tiles.into_iter().enumerate() {
            let key = TileKey { image_id: id, tile_id: i as u32 };
            let task = TileTask { key, tile };

            t.enter("core.wire.task_codec", image);
            self.task_body.clear();
            task.encode_into(&mut self.task_body);
            let task = TileTask::decode(&self.task_body).expect("task body round-trips");
            t.exit();
            out.task_frame_bytes += FRAME_HEADER_BYTES + self.task_body.len() as u64;

            t.enter("nn.infer.prefix_tile", image);
            let act = self.p.prefix.forward_infer_with(&task.tile, &mut self.prefix_scratch);
            t.exit();
            let dims = act.dims();
            let shape = [dims[0], dims[1], dims[2], dims[3]];
            let elems = act.numel();

            t.enter("core.compress.encode", image);
            let encoded = clip_and_compress_into(
                act.as_slice(),
                self.p.crelu,
                self.p.quantizer,
                &mut self.cs,
            );
            t.exit();

            t.enter("core.wire.result_codec", image);
            let res = make_result_from_parts(key, shape, elems, encoded, self.p.quantizer);
            self.result_body = encode_result_body(&res, 0, 0);
            let (_, _, res) = decode_result_body(&self.result_body).expect("result round-trips");
            t.exit();
            out.result_frame_bytes += FRAME_HEADER_BYTES + self.result_body.len() as u64;
            out.wire_bits += res.wire_bits();
            out.payload_bytes += res.payload.payload.len() as u64;

            t.enter("core.compress.decode", image);
            let decoded = res.to_tensor().expect("healthy payload decodes");
            t.exit();
            out.elems += decoded.numel() as u64;
            out.zero_elems += decoded.as_slice().iter().filter(|v| **v == 0.0).count() as u64;

            let (_, oc, oh, ow) = decoded.shape().nchw();
            let map = assembled
                .get_or_insert_with(|| Tensor::zeros([1, oc, oh * grid.rows, ow * grid.cols]));
            let (gr, gc) = grid.tile_pos(i);
            t.enter("core.fdsp.paste", image);
            map.paste_spatial(&decoded, gr * oh, gc * ow);
            t.exit();
        }

        let assembled = assembled.expect("grid has at least one tile");
        let n = self.p.suffix.len();
        t.enter("nn.infer.suffix", image);
        let logits = self
            .p
            .suffix
            .forward_infer_range_with(&assembled, 0..n, &mut self.suffix_scratch)
            .to_tensor();
        t.exit();
        out.output = logits.as_slice().iter().map(|v| v.to_bits()).collect();

        t.exit();
        out
    }
}

/// One model layer timed as a kernel.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// `prefix` (per tile) or `suffix` (per image).
    pub site: &'static str,
    /// `conv` or `maxpool`.
    pub kind: &'static str,
    /// The im2col GEMM `M×K · K×N` of a conv; channels, window size and
    /// outputs per channel of a max-pool.
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Calls per served image.
    pub per_image: usize,
    pub reps: usize,
    /// Median µs of `gemm_fused` on this shape (convs only).
    pub gemm_us: f64,
    /// Median µs of the public op (`conv2d_into` / `maxpool2d_into`).
    pub op_us: f64,
}

impl KernelRow {
    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }
}

/// Call `f` once unrecorded, then under a span called `name` until `until`
/// (three calls at least, 200 at most). Returns the median span in µs and
/// the number of recorded calls.
fn timed_calls(
    t: &mut Tracer,
    name: &'static str,
    until: Instant,
    mut f: impl FnMut(),
) -> (f64, usize) {
    f();
    let mark = t.mark();
    let mut n = 0;
    while n < 3 || (n < 200 && Instant::now() < until) {
        t.enter(name, None);
        f();
        t.exit();
        n += 1;
    }
    (t.median_us(name, mark), n)
}

/// Time every conv and max-pool of the served model as stand-alone kernels
/// on the shapes serving gives them: `gemm_fused` on the im2col `(M, K, N)`,
/// then `conv2d_into` with the real weights (im2col + B-pack + epilogue on
/// top of the same GEMM), and `maxpool2d_into`. `budget` is shared evenly
/// among the layers.
pub fn kernels(p: &Pipeline, t: &mut Tracer, budget: Duration) -> Vec<KernelRow> {
    let (prefix_ops, (bc, bh, bw)) = ops_of(&p.prefix, p.tile_dims());
    let (suffix_ops, _) = ops_of(&p.suffix, (bc, bh * p.grid.rows, bw * p.grid.cols));
    let tiles = p.grid.tiles();
    let sites: Vec<(&'static str, usize, Op)> = prefix_ops
        .into_iter()
        .map(|op| ("prefix", tiles, op))
        .chain(suffix_ops.into_iter().map(|op| ("suffix", 1, op)))
        .collect();

    let per_op = budget / sites.len().max(1) as u32;
    let mut rng = StdRng::seed_from_u64(7);
    let mut scratch = Scratch::new();
    let mut out = ActBuf::new();
    let mut rows = Vec::new();
    t.enter("kernels", None);
    for (site, per_image, op) in sites {
        let start = Instant::now();
        match op {
            Op::Conv { input: (c, h, w), weight, bias, p: cp, relu } => {
                let (m, k) = (weight.dims()[0], c * cp.kernel * cp.kernel);
                let n = cp.out_dim(h) * cp.out_dim(w);
                let act = if relu { FusedAct::Relu } else { FusedAct::Identity };
                let x = Tensor::randn([1, c, h, w], 0.5, &mut rng);
                let b = Tensor::randn([k, n], 0.5, &mut rng);
                let mut cbuf = vec![0.0f32; m * n];
                let (gemm_us, reps) = timed_calls(t, "tensor.gemm", start + per_op / 2, || {
                    let (a, b) = (weight.as_slice(), b.as_slice());
                    gemm_fused(m, k, n, a, b, &mut cbuf, Some(&bias), act, &mut scratch);
                    std::hint::black_box(&cbuf);
                });
                let (op_us, _) = timed_calls(t, "tensor.conv", start + per_op, || {
                    let dims = (1, c, h, w);
                    conv2d_into(
                        x.as_slice(),
                        dims,
                        &weight,
                        &bias,
                        cp,
                        act,
                        &mut scratch,
                        &mut out,
                    );
                    std::hint::black_box(out.as_slice());
                });
                rows.push(KernelRow {
                    site,
                    kind: "conv",
                    m,
                    k,
                    n,
                    per_image,
                    reps,
                    gemm_us,
                    op_us,
                });
            }
            Op::MaxPool { input: (c, h, w), p: pp } => {
                let x = Tensor::randn([1, c, h, w], 0.5, &mut rng);
                let (op_us, reps) = timed_calls(t, "tensor.pool", start + per_op, || {
                    maxpool2d_into(x.as_slice(), (1, c, h, w), pp, &mut out);
                    std::hint::black_box(out.as_slice());
                });
                let (k, n) = (pp.kernel * pp.kernel, pp.out_dim(h) * pp.out_dim(w));
                rows.push(KernelRow {
                    site,
                    kind: "maxpool",
                    m: c,
                    k,
                    n,
                    per_image,
                    reps,
                    gemm_us: 0.0,
                    op_us,
                });
            }
        }
    }
    t.exit();
    rows
}

/// Answer every `TASK` frame on `stream` with a `RESULT` frame carrying
/// `reply`, until the peer closes.
fn echo<S: Read + Write>(mut stream: S, reply: Vec<u8>) {
    while let Ok(Some((TAG_TASK, _))) = read_frame(&mut stream) {
        if write_frame(&mut stream, TAG_RESULT, &reply).is_err() {
            break;
        }
    }
}

/// Task frame out, result frame back, `reps` times, over `conn`.
fn round_trips(
    mut conn: Conn,
    name: &'static str,
    task: &[u8],
    reps: usize,
    t: &mut Tracer,
) -> std::io::Result<()> {
    for i in 0..reps + 10 {
        // Ten unrecorded round trips first: connection warm-up.
        let record = i >= 10;
        if record {
            t.enter(name, None);
        }
        write_frame(&mut conn, TAG_TASK, task)?;
        let back = read_frame(&mut conn)?;
        if record {
            t.exit();
        }
        if !matches!(back, Some((TAG_RESULT, _))) {
            return Err(std::io::Error::other("echo peer answered with the wrong frame"));
        }
    }
    Ok(())
}

/// The transport layer from outside: a frame written and read back through
/// memory, then real round trips (one tile's `TASK` frame out, its
/// `RESULT` frame back) against an echo thread over loopback TCP and over
/// a Unix-domain socket at `uds_path`. Every thread and socket is gone
/// when this returns.
pub fn transport(
    task: &[u8],
    result: &[u8],
    reps: usize,
    uds_path: &std::path::Path,
    t: &mut Tracer,
) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(result.len() + 8);
    for _ in 0..reps {
        t.enter("runtime.transport.frame", None);
        wire.clear();
        write_frame(&mut wire, TAG_RESULT, result)?;
        let back = read_frame(&mut wire.as_slice())?;
        t.exit();
        std::hint::black_box(back);
    }

    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let reply = result.to_vec();
    let server = std::thread::spawn(move || {
        if let Ok((s, _)) = listener.accept() {
            let _ = s.set_nodelay(true);
            echo(s, reply);
        }
    });
    let tcp = Conn::connect(&Endpoint::Tcp(addr.to_string()))
        .and_then(|c| round_trips(c, "runtime.transport.rtt_tcp", task, reps, t));
    if tcp.is_err() {
        // Unblock an echo thread still parked in accept().
        let _ = std::net::TcpStream::connect(addr);
    }
    server.join().expect("tcp echo thread panicked");
    tcp?;

    #[cfg(unix)]
    {
        let _ = std::fs::remove_file(uds_path);
        let listener = std::os::unix::net::UnixListener::bind(uds_path)?;
        let reply = result.to_vec();
        let server = std::thread::spawn(move || {
            if let Ok((s, _)) = listener.accept() {
                echo(s, reply);
            }
        });
        let uds = Conn::connect(&Endpoint::Uds(uds_path.to_path_buf()))
            .and_then(|c| round_trips(c, "runtime.transport.rtt_uds", task, reps, t));
        if uds.is_err() {
            let _ = std::os::unix::net::UnixStream::connect(uds_path);
        }
        server.join().expect("uds echo thread panicked");
        let _ = std::fs::remove_file(uds_path);
        uds?;
    }
    Ok(())
}
