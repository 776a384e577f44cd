//! Serving through the real runtime: launch a cluster, drive it from one
//! closed-loop generator thread, check every outcome against the serial
//! reference, shut everything down and join it.

use crate::models;
use crate::quiet::{Completion, Window};
use crate::spec::{Carrier, Workload, GRID, WORKERS};
use crate::sys::process_cpu_s;
use crate::walk::{ImageOut, Tracer, Walker};
use adcnn_core::report::AttributionSink;
use adcnn_core::{MetricsSink, SinkHandle};
use adcnn_runtime::transport::spawn_loopback_worker;
use adcnn_runtime::{
    AdcnnRuntime, Endpoint, InferHandle, InferOutcome, RuntimeConfig, WorkerListener,
    WorkerOptions, WorkerStatsSnapshot,
};
use adcnn_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The seed's acceptor can hand two back-to-back connections to one slot
/// (the second lands in the slot's queue while its supervisor has taken the
/// first but not yet marked the slot up); the join barrier then never
/// completes. Two seconds is two hundred times a healthy loopback join.
const TCP_JOIN_TIMEOUT: Duration = Duration::from_secs(2);
/// Relaunches before a stuck join is treated as a real failure.
const TCP_LAUNCH_ATTEMPTS: u32 = 5;

/// A workload's traffic and the answers it must produce.
pub struct Traffic {
    pub pool: Vec<Tensor>,
    /// `reference[i]` is the walk's result for `pool[i]`.
    pub reference: Vec<ImageOut>,
}

impl Traffic {
    /// Draw the pool from `seed` and walk every image of it once (tracer
    /// off) for the reference outputs and the exact per-image counts.
    pub fn new(w: &Workload, p: &models::Pipeline, seed: u64) -> Traffic {
        let pool = models::image_pool(p.input, w.pool, seed);
        let mut walker = Walker::new(p, WORKERS);
        let mut off = Tracer::new(false);
        let reference =
            pool.iter().enumerate().map(|(i, x)| walker.image(x, i as u64, &mut off)).collect();
        Traffic { pool, reference }
    }

    /// Sum of one exact per-image count over the pool.
    pub fn total(&self, f: impl Fn(&ImageOut) -> u64) -> u64 {
        self.reference.iter().map(f).sum()
    }
}

/// A workload's runtime config. `traced` switches on what the traced pass
/// measures the cost of: per-image attribution plus a `MetricsSink`, the
/// sinks the ROADMAP wants cheap enough to leave on. The reports come back
/// inside each `InferOutcome`; the metrics sink is load, never read.
fn config(w: &Workload, traced: bool) -> RuntimeConfig {
    let b = RuntimeConfig::builder().pipeline_depth(w.depth);
    let b = match w.t_l_ms {
        Some(ms) => b.t_l(Duration::from_millis(ms)),
        None => b,
    };
    let b = if traced {
        b.sink(SinkHandle::new(Arc::new(MetricsSink::new())))
            .attribution(Arc::new(AttributionSink::new()))
    } else {
        b.sink(SinkHandle::null())
    };
    b.build().expect("benchmark runtime config is valid")
}

/// A launched runtime plus whatever the carrier needs joined afterwards.
pub struct Cluster {
    pub rt: AdcnnRuntime,
    loopback: Vec<JoinHandle<std::io::Result<()>>>,
    /// `launch_remote` calls that timed out in the join barrier and were
    /// torn down and repeated.
    pub launch_retries: u32,
}

impl Cluster {
    /// Launch `w`'s cluster: two in-process worker threads, or two loopback
    /// TCP worker threads behind `launch_remote`. `worker_opts` (in-process
    /// only) overrides the healthy default — the straggler probe uses it.
    pub fn launch(w: &Workload, traced: bool, worker_opts: Option<&[WorkerOptions]>) -> Cluster {
        let cfg = config(w, traced);
        match w.carrier {
            Carrier::InProcess => {
                let healthy = [WorkerOptions::default(); WORKERS];
                let opts = worker_opts.unwrap_or(&healthy);
                let rt = AdcnnRuntime::launch(models::build(w.model), opts, cfg);
                Cluster { rt, loopback: Vec::new(), launch_retries: 0 }
            }
            Carrier::Tcp => {
                assert!(worker_opts.is_none(), "socket workers take no fault options");
                let spec = models::shapes_spec();
                let mut retries = 0;
                loop {
                    let listener = WorkerListener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
                        .expect("bind a loopback listener");
                    let endpoint = listener.endpoint().clone();
                    let loopback: Vec<_> =
                        (0..WORKERS).map(|_| spawn_loopback_worker(endpoint.clone())).collect();
                    match AdcnnRuntime::launch_remote(
                        spec,
                        WORKERS,
                        cfg.clone(),
                        listener,
                        TCP_JOIN_TIMEOUT,
                    ) {
                        Ok(rt) => return Cluster { rt, loopback, launch_retries: retries },
                        Err(e) => {
                            // The failed launch tore its side down; the
                            // stranded worker sees its socket close.
                            for h in loopback {
                                let _ = h.join().expect("loopback worker panicked");
                            }
                            retries += 1;
                            assert!(
                                retries < TCP_LAUNCH_ATTEMPTS,
                                "launch_remote failed {retries} times in a row: {e}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Shut the runtime down (collector, workers or supervisors, acceptor:
    /// all joined inside) and join the loopback worker threads.
    pub fn shutdown(self) {
        self.rt.shutdown();
        for h in self.loopback {
            h.join().expect("loopback worker panicked").expect("loopback worker failed");
        }
    }
}

/// Tallies of one phase (cold cycles, warm-up, a window).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn json(&self) -> crate::json::Value {
        crate::json::Value::obj([
            ("attempted", self.attempted.into()),
            ("succeeded", (self.attempted - self.failed).into()),
            ("failed", self.failed.into()),
        ])
    }
}

/// An image is correct when no tile was zero-filled and the output equals
/// the walk's, bit for bit.
fn correct(out: &InferOutcome, want: &ImageOut) -> bool {
    out.zero_filled == 0
        && out.output.numel() == want.output.len()
        && out.output.as_slice().iter().zip(&want.output).all(|(g, w)| g.to_bits() == *w)
}

/// One cold set-up cycle, timed: model build → launch returns → first
/// image's outcome → shutdown joined.
pub fn cold_cycle(w: &Workload, traffic: &Traffic, tally: &mut Tally, retries: &mut u32) -> f64 {
    let t0 = Instant::now();
    let cluster = Cluster::launch(w, false, None);
    let out = cluster.rt.submit(&traffic.pool[0]).wait();
    *retries += cluster.launch_retries;
    cluster.shutdown();
    let s = t0.elapsed().as_secs_f64();
    tally.attempted += 1;
    tally.failed += u64::from(!correct(&out, &traffic.reference[0]));
    s
}

/// Everything one served window yields.
#[derive(Clone, Debug, Default)]
pub struct Served {
    pub window: Window,
    pub tally: Tally,
    /// Σ `InferOutcome.wire_bits` and image count over whole pool cycles.
    pub cycle_wire_bits: u64,
    pub cycle_images: u64,
    /// Images whose `wire_bits` differ from the walk's exact count.
    pub wire_mismatches: u64,
    pub zero_filled_tiles: u64,
    pub redispatched: u64,
    /// Σ tiles allocated, and Σ of those allocated to worker 1.
    pub alloc_tiles: u64,
    pub alloc_w1: u64,
    /// Images by how many of their tiles worker 1 was allocated (0..=D).
    pub alloc_w1_hist: [u64; GRID * GRID + 1],
    /// Worker counters over the window (after − before).
    pub worker_tiles: u64,
    pub worker_compute_ns: u64,
    pub worker_compress_ns: u64,
    /// Process CPU over the whole window including the drain.
    pub cpu_s: f64,
    /// Per-image samples, filled only when the runtime attributes
    /// (`ImageReport` present): intake wait, `queued + latency`, per-tile
    /// queue wait and transfer.
    pub queued_us: Vec<f64>,
    pub reported_latency_ms: Vec<f64>,
    pub tile_queue_wait_us: Vec<f64>,
    pub transfer_us: Vec<f64>,
    /// Largest `ImageReport.merge_s` seen.
    pub merge_s_max: f64,
}

fn worker_totals(stats: &[WorkerStatsSnapshot]) -> (u64, u64, u64) {
    stats.iter().fold((0, 0, 0), |a, s| (a.0 + s.tiles, a.1 + s.compute_ns, a.2 + s.compress_ns))
}

/// Drive `rt` closed-loop for `open`: keep `depth` images outstanding from
/// this one thread, wait for the oldest, check it, submit the next while
/// submissions are open, then drain. `next` is the pool cursor and carries
/// over from the warm-up so a window does not restart the cycle.
pub fn serve_window(
    rt: &AdcnnRuntime,
    traffic: &Traffic,
    depth: usize,
    open: Duration,
    next: &mut usize,
) -> Served {
    let n = traffic.pool.len();
    let mut s = Served::default();
    let before = worker_totals(&rt.worker_stats());
    let mut outstanding: VecDeque<(usize, Instant, InferHandle)> = VecDeque::with_capacity(depth);
    // Wire bits of the pool cycle in progress; committed when it completes.
    let (mut cycle_bits, mut cycle_images) = (0u64, 0u64);
    let start = Instant::now();
    let start_cpu_s = process_cpu_s();
    s.window = Window::new(open.as_secs_f64(), start_cpu_s);

    let submit = |outstanding: &mut VecDeque<_>, next: &mut usize| {
        let idx = *next % n;
        *next += 1;
        let at = Instant::now();
        outstanding.push_back((idx, at, rt.submit(&traffic.pool[idx])));
    };
    for _ in 0..depth {
        submit(&mut outstanding, next);
    }
    while let Some((idx, submitted, handle)) = outstanding.pop_front() {
        let out = handle.wait();
        let done = Instant::now();
        let want = &traffic.reference[idx];
        let ok = correct(&out, want);
        s.window.push(Completion {
            done_s: done.duration_since(start).as_secs_f64(),
            latency_s: done.duration_since(submitted).as_secs_f64(),
            cpu_s: process_cpu_s(),
            correct: ok,
        });
        s.tally.attempted += 1;
        s.tally.failed += u64::from(!ok);
        s.wire_mismatches += u64::from(out.wire_bits != want.wire_bits);
        // A count, exact for a seed: whole cycles of the pool only, so the
        // mean does not depend on how many images this machine got through.
        cycle_bits += out.wire_bits;
        cycle_images += 1;
        if cycle_images == n as u64 {
            s.cycle_wire_bits += cycle_bits;
            s.cycle_images += cycle_images;
            (cycle_bits, cycle_images) = (0, 0);
        }
        s.zero_filled_tiles += u64::from(out.zero_filled);
        s.redispatched += u64::from(out.redispatched);
        s.alloc_tiles += out.alloc.iter().map(|&a| u64::from(a)).sum::<u64>();
        let w1 = out.alloc.get(1).copied().unwrap_or(0);
        s.alloc_w1 += u64::from(w1);
        s.alloc_w1_hist[(w1 as usize).min(GRID * GRID)] += 1;
        if let Some(report) = &out.report {
            s.queued_us.push(out.queued.as_secs_f64() * 1e6);
            s.reported_latency_ms.push((out.queued + out.latency).as_secs_f64() * 1e3);
            s.merge_s_max = s.merge_s_max.max(report.merge_s);
            for t in &report.tiles {
                s.tile_queue_wait_us.push(t.queue_wait_s * 1e6);
                s.transfer_us.push(t.transfer_s * 1e6);
            }
        }
        if done.duration_since(start) < open {
            submit(&mut outstanding, next);
        }
    }
    s.cpu_s = process_cpu_s() - start_cpu_s;
    let after = worker_totals(&rt.worker_stats());
    s.worker_tiles = after.0 - before.0;
    s.worker_compute_ns = after.1 - before.1;
    s.worker_compress_ns = after.2 - before.2;

    if s.cycle_images == 0 {
        // Not one whole cycle (smoke runs of the slow model): take what there is.
        (s.cycle_wire_bits, s.cycle_images) = (cycle_bits, cycle_images);
    }
    s
}

/// Options of the straggler probe's cluster: worker 1 sleeps `delay` before
/// every tile.
pub fn straggler_opts(delay: Duration) -> [WorkerOptions; WORKERS] {
    let mut opts = [WorkerOptions::default(); WORKERS];
    opts[1] = WorkerOptions::builder()
        .artificial_delay(delay)
        .build()
        .expect("straggler worker options are valid");
    opts
}
