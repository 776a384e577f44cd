//! One benchmark run in a fresh process: the untraced pass that yields the
//! end-to-end metrics, or the traced pass that yields the per-layer ones.

use crate::clock::{self, ClockSampler, ClockSamples, REF_NS_PER_STEP};
use crate::json::Value;
use crate::models::Pipeline;
use crate::quiet::{self, percentile, Estimate};
use crate::serve::{self, Cluster, Served, Tally, Traffic};
use crate::spec::{self, Carrier, Metric, Workload, GRID, WORKERS};
use crate::sys::{self, Machine};
use crate::walk::{self, Tracer, Walker};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Cold set-up cycles per run; `setup_s` is their lower quartile. A model
/// whose cycle is slow stops early — after [`SETUP_BUDGET`], never before
/// [`MIN_SETUP_CYCLES`] — so set-up cannot push a run past its time cap.
const SETUP_CYCLES: usize = 31;
const MIN_SETUP_CYCLES: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Warm-up served before the measured window: caches, scratch buffers and
/// the Algorithm 2 statistics settle.
const WARMUP: Duration = Duration::from_secs(2);
/// The straggler probe's per-tile delay on worker 1.
const STRAGGLER_DELAY: Duration = Duration::from_millis(3);

/// Command-line options of a run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Short windows, three set-up cycles, lenient estimator; tagged
    /// `mode: "smoke"` so its numbers are never mistaken for a measurement.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// What a run hands back to `main`: the driver's result line and the full
/// document (facts, metrics, phases, detail) written beside the traces.
pub struct RunDoc {
    pub result_line: Value,
    pub document: Value,
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.0))
}

fn facts(a: &RunArgs, m: Machine) -> Value {
    Value::obj([
        ("clock", "wall".into()),
        ("mode", if a.smoke { "smoke" } else { "full" }.into()),
        ("nproc", m.nproc.into()),
        ("pinned_cpu", m.pinned_cpu.into()),
        ("clock_cpu", m.clock_cpu.into()),
        ("simd", sys::simd_tier().into()),
        ("rayon_threads", adcnn_tensor::gemm::current_threads().into()),
        ("deps", "offline stand-ins (perf-ledger/offline)".into()),
        ("workers", WORKERS.into()),
        ("grid", format!("{GRID}x{GRID}").into()),
        ("commit", sys::git_commit().into()),
        ("seed", a.seed.into()),
        ("seconds", a.seconds.into()),
    ])
}

fn metrics_json(table: &[Metric], values: &[(&str, f64)]) -> Value {
    let got: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(got, want, "metrics computed differ from the spec table");
    Value::obj(table.iter().zip(values).map(|(m, (_, v))| {
        (m.name, Value::obj([("value", Value::from(*v)), ("unit", m.unit.into())]))
    }))
}

fn finish(
    a: &RunArgs,
    machine: Machine,
    metrics: Value,
    phases: Vec<(&str, Tally)>,
    detail: Value,
    extra_ok: bool,
) -> RunDoc {
    let mut total = Tally::default();
    for (_, t) in &phases {
        total.add(*t);
    }
    let correct = total.failed == 0 && extra_ok;
    let result_line = Value::obj([
        ("correct", correct.into()),
        ("attempted", total.attempted.into()),
        ("failed", total.failed.into()),
        ("metrics", metrics.clone()),
    ]);
    let document = Value::obj([
        ("schema", "adcnn-perf-ledger/run/1".into()),
        ("workload", a.workload.name.into()),
        ("trace", u64::from(a.trace).into()),
        ("facts", facts(a, machine)),
        ("correct", correct.into()),
        ("attempted", total.attempted.into()),
        ("failed", total.failed.into()),
        ("metrics", metrics),
        ("phases", Value::obj(phases.iter().map(|(n, t)| (*n, t.json())))),
        ("detail", detail),
    ]);
    RunDoc { result_line, document }
}

fn figures_json(f: &quiet::Figures) -> Value {
    Value::obj([
        ("images", f.images.into()),
        ("elapsed_s", f.elapsed_s.into()),
        ("images_per_s", f.images_per_s.into()),
        ("latency_p50_ms", f.latency_p50_ms.into()),
        ("latency_p95_ms", f.latency_p95_ms.into()),
        ("latency_p99_ms", f.latency_p99_ms.into()),
        ("cpu_ms_per_image", f.cpu_ms_per_image.into()),
    ])
}

fn clock_json(c: &ClockSamples, during_quiet_tenth: Option<f64>) -> Value {
    Value::obj([
        ("samples", c.len().into()),
        ("quiet_ns_per_step", c.quiet_ns_per_step().into()),
        ("median_ns_per_step", c.median_ns_per_step().into()),
        ("reference_ns_per_step", REF_NS_PER_STEP.into()),
        ("during_quiet_tenth_ns_per_step", during_quiet_tenth.into()),
        ("slowdown", during_quiet_tenth.map(clock::slowdown).into()),
    ])
}

fn estimate_json(e: &Estimate) -> Value {
    Value::obj([
        ("blocks", e.blocks.into()),
        ("kept_blocks", e.kept_blocks.into()),
        ("quiet", figures_json(&e.quiet)),
        ("whole", figures_json(&e.whole)),
        ("slowdown_share", e.slowdown_share.into()),
    ])
}

/// The untraced pass: cold set-up cycles, launch, warm-up, one measured
/// window with `SinkHandle::null()`, shutdown.
pub fn end_to_end(a: &RunArgs, machine: Machine) -> Result<RunDoc, String> {
    let w = a.workload;
    let pipeline = Pipeline::new(w.model);
    let traffic = Traffic::new(w, &pipeline, a.seed);

    let (cycles, min_cycles) = if a.smoke { (3, 3) } else { (SETUP_CYCLES, MIN_SETUP_CYCLES) };
    let (mut cold, mut retries) = (Tally::default(), 0u32);
    let cold_started = Instant::now();
    let mut setup: Vec<f64> = Vec::with_capacity(cycles);
    while setup.len() < min_cycles
        || (setup.len() < cycles && cold_started.elapsed() < SETUP_BUDGET)
    {
        setup.push(serve::cold_cycle(w, &traffic, &mut cold, &mut retries));
    }
    let cycles = setup.len();
    setup.sort_by(f64::total_cmp);
    let setup_s = percentile(&setup, 0.25);

    let cluster = Cluster::launch(w, false, None);
    retries += cluster.launch_retries;
    let mut next = 0usize;
    let warmup = if a.smoke { secs(0.3) } else { WARMUP };
    let warm = serve::serve_window(&cluster.rt, &traffic, w.depth, warmup, &mut next);
    let sampler = ClockSampler::start(machine.clock_cpu);
    // Microseconds before the window's own origin; the pairing below works
    // to a tenth of a second.
    let opened = Instant::now();
    let m = serve::serve_window(&cluster.rt, &traffic, w.depth, secs(a.seconds), &mut next);
    let clock = sampler.finish()?;
    cluster.shutdown();

    // Quiet-tenth figures, restated at the reference clock: a machine that
    // ticked slower than it during this window gets its rates scaled up and
    // its latencies scaled down by the same factor.
    let est = quiet::estimate(&m.window, !a.smoke)?;
    let clock_ns = match machine.clock_cpu {
        Some(_) => clock
            .ns_per_step_during(opened, &est.kept_spans)
            .ok_or("no clock sample fell inside the quiet tenth")?,
        // Sharing the program's CPU, most samples were time-sliced with it;
        // only the fastest ones ran undisturbed and still show the clock.
        None => clock.quiet_ns_per_step(),
    };
    let slowdown = clock::slowdown(clock_ns);
    let images_per_s = est.quiet.images_per_s * slowdown;
    let latency_p50_ms = est.quiet.latency_p50_ms / slowdown;
    let latency_p95_ms = est.quiet.latency_p95_ms / slowdown;
    let wire_bytes_per_image = m.cycle_wire_bits as f64 / 8.0 / m.cycle_images as f64;
    let peak_rss_mb = sys::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    eprintln!(
        "[{}] quiet tenth, as measured: {:.1} img/s  p50 {:.3} ms  p95 {:.3} ms  ({} of {} blocks, {} images)",
        w.name,
        est.quiet.images_per_s,
        est.quiet.latency_p50_ms,
        est.quiet.latency_p95_ms,
        est.kept_blocks,
        est.blocks,
        est.quiet.images
    );
    eprintln!(
        "[{}] clock on cpu {:?}: {:.4} ns/step during the quiet tenth (best {:.4}, median {:.4} of {} samples) -> x{:.4} to the {} ns reference: {:.1} img/s  p50 {:.3} ms  p95 {:.3} ms",
        w.name,
        machine.clock_cpu.or(machine.pinned_cpu),
        clock_ns,
        clock.quiet_ns_per_step(),
        clock.median_ns_per_step(),
        clock.len(),
        slowdown,
        REF_NS_PER_STEP,
        images_per_s,
        latency_p50_ms,
        latency_p95_ms
    );
    eprintln!(
        "[{}] whole window: {:.1} img/s  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  slowdown_share {:.4}  cpu {:.4} ms/img (quiet {:.4})",
        w.name,
        est.whole.images_per_s,
        est.whole.latency_p50_ms,
        est.whole.latency_p95_ms,
        est.whole.latency_p99_ms,
        est.slowdown_share,
        est.whole.cpu_ms_per_image,
        est.quiet.cpu_ms_per_image
    );

    let metrics = metrics_json(
        &spec::END_TO_END,
        &[
            ("images_per_s", images_per_s),
            ("latency_p50_ms", latency_p50_ms),
            ("wire_bytes_per_image", wire_bytes_per_image),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", setup_s),
        ],
    );
    let detail = Value::obj([
        ("estimate", estimate_json(&est)),
        ("clock", clock_json(&clock, Some(clock_ns))),
        (
            "block_images_per_s",
            Value::Arr(m.window.block_rates().into_iter().map(Value::from).collect()),
        ),
        ("setup_cycles", cycles.into()),
        ("setup_s_min", setup[0].into()),
        ("setup_s_median", percentile(&setup, 0.5).into()),
        ("setup_s_max", setup[setup.len() - 1].into()),
        ("tcp_launch_retries", u64::from(retries).into()),
        ("zero_filled_tiles", m.zero_filled_tiles.into()),
        ("redispatched", m.redispatched.into()),
        ("wire_mismatches", m.wire_mismatches.into()),
        ("alloc_share_w1", (m.alloc_w1 as f64 / m.alloc_tiles as f64).into()),
        ("alloc_w1_hist", Value::Arr(m.alloc_w1_hist.iter().map(|n| Value::from(*n)).collect())),
        ("window_cpu_s", m.cpu_s.into()),
        ("wire_cycle_images", m.cycle_images.into()),
    ]);
    let phases = vec![("cold", cold), ("warmup", warm.tally), ("measured", m.tally)];
    Ok(finish(a, machine, metrics, phases, detail, m.wire_mismatches == 0))
}

/// One served window on a fresh cluster: launch, short warm-up, measure,
/// shut down. Returns the measured window and the warm-up's tally.
fn fresh_window(
    w: &Workload,
    traffic: &Traffic,
    traced: bool,
    opts: Option<&[adcnn_runtime::WorkerOptions]>,
    warmup: Duration,
    open: Duration,
    retries: &mut u32,
) -> (Served, Tally) {
    let cluster = Cluster::launch(w, traced, opts);
    *retries += cluster.launch_retries;
    let mut next = 0usize;
    let warm = serve::serve_window(&cluster.rt, traffic, w.depth, warmup, &mut next);
    let served = serve::serve_window(&cluster.rt, traffic, w.depth, open, &mut next);
    cluster.shutdown();
    (served, warm.tally)
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

fn p50(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// The traced pass. Half of `seconds` serves — untraced and traced windows
/// alternated on fresh clusters so drift cancels in the overhead share,
/// then the straggler probe beside a healthy window — and half walks.
/// Nothing here feeds an end-to-end metric.
pub fn traced(a: &RunArgs, machine: Machine) -> Result<RunDoc, String> {
    let w = a.workload;
    let started = Instant::now();
    let sampler = ClockSampler::start(machine.clock_cpu);
    let pipeline = Pipeline::new(w.model);
    let traffic = Traffic::new(w, &pipeline, a.seed);
    let mut retries = 0u32;
    let mut phases: Vec<(&str, Tally)> = Vec::new();

    // --- serving half: fourteen units; four alternated windows of 2.2,
    // a healthy in-process window of 1.5 and the straggler probe of 3.
    let unit = a.seconds / 2.0 / 14.0;
    let warmup = secs(0.3 * unit);
    let (mut untraced, mut traced_w): (Vec<Served>, Vec<Served>) = (Vec::new(), Vec::new());
    let mut warm_tally = Tally::default();
    for _ in 0..2 {
        for on in [false, true] {
            let (s, warm) =
                fresh_window(w, &traffic, on, None, warmup, secs(1.9 * unit), &mut retries);
            warm_tally.add(warm);
            if on { &mut traced_w } else { &mut untraced }.push(s);
        }
    }
    let tally_of = |windows: &[Served]| {
        windows.iter().fold(Tally::default(), |mut t, s| {
            t.add(s.tally);
            t
        })
    };
    let est = |s: &Served| quiet::estimate(&s.window, false);
    let un_est: Vec<Estimate> = untraced.iter().map(est).collect::<Result<_, _>>()?;
    let tr_est: Vec<Estimate> = traced_w.iter().map(est).collect::<Result<_, _>>()?;
    let un_ips = mean(un_est.iter().map(|e| e.quiet.images_per_s));
    let tr_ips = mean(tr_est.iter().map(|e| e.quiet.images_per_s));
    let latency_p50_ms = mean(un_est.iter().map(|e| e.quiet.latency_p50_ms));
    let latency_p95_ms = mean(un_est.iter().map(|e| e.quiet.latency_p95_ms));

    // The probe runs in-process whatever the workload's carrier (socket
    // workers take no fault options), on the workload's model and depth.
    let probe_w = Workload { carrier: Carrier::InProcess, ..*w };
    let (healthy, warm) =
        fresh_window(&probe_w, &traffic, false, None, warmup, secs(1.2 * unit), &mut retries);
    warm_tally.add(warm);
    let opts = serve::straggler_opts(STRAGGLER_DELAY);
    let probe_open = secs((2.7 * unit).min(3.0));
    let (straggler, warm) =
        fresh_window(&probe_w, &traffic, false, Some(&opts), warmup, probe_open, &mut retries);
    warm_tally.add(warm);
    let healthy_est = est(&healthy)?;
    let straggler_est = est(&straggler)?;
    let mut probe_tally = healthy.tally;
    probe_tally.add(straggler.tally);
    phases.extend([
        ("warmup", warm_tally),
        ("untraced", tally_of(&untraced)),
        ("traced", tally_of(&traced_w)),
        ("probe", probe_tally),
    ]);
    let serving_s = started.elapsed().as_secs_f64();

    // --- walking half
    let walk_budget = a.seconds / 2.0;
    let mut t = Tracer::new(true);
    let kernel_rows = walk::kernels(&pipeline, &mut t, secs(0.35 * walk_budget));
    let mut walker = Walker::new(&pipeline, WORKERS);
    t.set_enabled(false);
    for (i, x) in traffic.pool.iter().take(3).enumerate() {
        walker.image(x, i as u64, &mut t);
    }
    t.set_enabled(true);
    let walk_until = Instant::now() + secs(0.45 * walk_budget);
    let mut walked = 0usize;
    let mut walk_ok = true;
    while walked < 5 || (walked < 200 && Instant::now() < walk_until) {
        let idx = walked % traffic.pool.len();
        let out = walker.image(&traffic.pool[idx], walked as u64, &mut t);
        walk_ok &= out.output == traffic.reference[idx].output;
        walked += 1;
    }
    std::fs::create_dir_all(&a.out_dir).map_err(|e| format!("create {:?}: {e}", a.out_dir))?;
    let uds_path = a.out_dir.join(format!("{}.sock", w.name));
    walk::transport(&walker.task_body, &walker.result_body, 200, &uds_path, &mut t)
        .map_err(|e| format!("transport walk: {e}"))?;

    let clock = sampler.finish()?;

    // --- the per-layer metrics (as measured; `machine.clock.ns_per_step`
    // is there to rescale them by)
    let med = |name: &str| t.median_us(name, 0);
    let tiles = (GRID * GRID) as f64;
    let convs: Vec<&walk::KernelRow> = kernel_rows.iter().filter(|r| r.kind == "conv").collect();
    let weighted = |f: &dyn Fn(&walk::KernelRow) -> f64, rows: &[&walk::KernelRow]| -> f64 {
        rows.iter().map(|r| r.per_image as f64 * f(r)).sum()
    };
    let conv_flops = weighted(&|r| r.flops(), &convs);
    let gemm_us = weighted(&|r| r.gemm_us, &convs);
    let conv_us = weighted(&|r| r.op_us, &convs);
    let pools: Vec<&walk::KernelRow> = kernel_rows.iter().filter(|r| r.kind == "maxpool").collect();
    let pool_us = weighted(&|r| r.op_us, &pools);

    let stage_sum_ms = (med("core.fdsp.extract")
        + med("core.sched.allocate")
        + med("core.lifecycle.image")
        + tiles
            * (med("nn.infer.prefix_tile")
                + med("core.compress.encode")
                + med("core.wire.result_codec")
                + med("core.compress.decode")
                + med("core.fdsp.paste"))
        + med("nn.infer.suffix"))
        / 1e3;

    let sum =
        |f: &dyn Fn(&Served) -> u64, ws: &[Served]| -> f64 { ws.iter().map(f).sum::<u64>() as f64 };
    let tr_tiles = sum(&|s| s.worker_tiles, &traced_w);
    let tr_cpu_s: f64 = traced_w.iter().map(|s| s.cpu_s).sum();
    let tr_images = sum(&|s| s.tally.attempted, &traced_w);
    let un_cpu_s: f64 = untraced.iter().map(|s| s.cpu_s).sum();
    let un_images = sum(&|s| s.tally.attempted, &untraced);
    let healthy_served: Vec<&Served> = untraced.iter().chain(&traced_w).collect();
    let alloc_share_w1 = healthy_served.iter().map(|s| s.alloc_w1).sum::<u64>() as f64
        / healthy_served.iter().map(|s| s.alloc_tiles).sum::<u64>() as f64;
    let collect = |f: &dyn Fn(&Served) -> &Vec<f64>| -> Vec<f64> {
        traced_w.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let mut traced_latency_ms: Vec<f64> = traced_w
        .iter()
        .flat_map(|s| s.window.latencies_ms().iter().map(|ms| f64::from(*ms)))
        .collect();
    traced_latency_ms.sort_by(f64::total_cmp);
    let n_ref = traffic.reference.len() as f64;
    let pool_tiles = n_ref * tiles;
    let payload_bytes = traffic.total(|r| r.payload_bytes) as f64;
    let elems = traffic.total(|r| r.elems) as f64;

    let values: Vec<(&str, f64)> = vec![
        ("tensor.gemm.gflops", conv_flops / gemm_us / 1e3),
        ("tensor.conv.gflops", conv_flops / conv_us / 1e3),
        ("tensor.conv.overhead_share", 1.0 - gemm_us / conv_us),
        ("tensor.pool.us", pool_us),
        ("nn.infer.prefix_tile_us", med("nn.infer.prefix_tile")),
        ("nn.infer.suffix_us", med("nn.infer.suffix")),
        ("nn.infer.scratch_kb", walker.scratch_bytes() as f64 / 1024.0),
        ("core.fdsp.extract_us", med("core.fdsp.extract")),
        ("core.fdsp.paste_us", med("core.fdsp.paste")),
        ("core.sched.allocate_us", med("core.sched.allocate")),
        ("core.sched.alloc_share_w1", alloc_share_w1),
        (
            "core.sched.straggler_alloc_share",
            straggler.alloc_w1 as f64 / straggler.alloc_tiles as f64,
        ),
        (
            "core.sched.straggler_throughput_ratio",
            straggler_est.quiet.images_per_s / healthy_est.quiet.images_per_s,
        ),
        ("core.lifecycle.image_us", med("core.lifecycle.image")),
        ("core.compress.encode_us", med("core.compress.encode")),
        ("core.compress.decode_us", med("core.compress.decode")),
        ("core.compress.bytes_per_tile", payload_bytes / pool_tiles),
        ("core.compress.ratio_vs_f32", payload_bytes / (elems * 4.0)),
        ("core.compress.zero_share", traffic.total(|r| r.zero_elems) as f64 / elems),
        ("core.wire.task_codec_us", med("core.wire.task_codec")),
        ("core.wire.result_codec_us", med("core.wire.result_codec")),
        ("runtime.transport.frame_us", med("runtime.transport.frame")),
        ("runtime.transport.rtt_us_tcp", med("runtime.transport.rtt_tcp")),
        ("runtime.transport.rtt_us_uds", med("runtime.transport.rtt_uds")),
        (
            "runtime.transport.task_frame_bytes",
            traffic.total(|r| r.task_frame_bytes) as f64 / pool_tiles,
        ),
        (
            "runtime.transport.result_frame_bytes",
            traffic.total(|r| r.result_frame_bytes) as f64 / pool_tiles,
        ),
        (
            "runtime.worker.compute_us_per_tile",
            sum(&|s| s.worker_compute_ns, &traced_w) / tr_tiles / 1e3,
        ),
        (
            "runtime.worker.compress_us_per_tile",
            sum(&|s| s.worker_compress_ns, &traced_w) / tr_tiles / 1e3,
        ),
        (
            "runtime.worker.cpu_share",
            (sum(&|s| s.worker_compute_ns, &traced_w) + sum(&|s| s.worker_compress_ns, &traced_w))
                / (tr_cpu_s * 1e9),
        ),
        ("runtime.central.queued_p50_us", p50(collect(&|s| &s.queued_us))),
        ("runtime.central.reported_latency_p50_ms", p50(collect(&|s| &s.reported_latency_ms))),
        ("runtime.central.tile_queue_wait_p50_us", p50(collect(&|s| &s.tile_queue_wait_us))),
        ("runtime.central.transfer_p50_us", p50(collect(&|s| &s.transfer_us))),
        ("runtime.central.redispatch_per_image", sum(&|s| s.redispatched, &traced_w) / tr_images),
        (
            "runtime.central.zero_fill_per_tile",
            sum(&|s| s.zero_filled_tiles, &traced_w) / (tr_images * tiles),
        ),
        ("runtime.central.stage_sum_ms", stage_sum_ms),
        (
            "runtime.central.unattributed_share",
            1.0 - stage_sum_ms * w.depth as f64 / latency_p50_ms,
        ),
        ("runtime.central.latency_p95_ms", latency_p95_ms),
        ("runtime.central.latency_p99_ms", percentile(&traced_latency_ms, 0.99)),
        ("runtime.process.cpu_ms_per_image", un_cpu_s * 1e3 / un_images),
        ("runtime.process.slowdown_share", mean(un_est.iter().map(|e| e.slowdown_share))),
        ("core.obs.trace_overhead_share", 1.0 - tr_ips / un_ips),
        ("machine.clock.ns_per_step", clock.quiet_ns_per_step()),
    ];
    let metrics = metrics_json(&spec::PER_LAYER, &values);

    let chrome = a.out_dir.join(format!("{}.chrome-trace.json", w.name));
    std::fs::write(&chrome, t.chrome_json()).map_err(|e| format!("write {chrome:?}: {e}"))?;

    let detail = Value::obj([
        ("serving_s", serving_s.into()),
        ("total_s", started.elapsed().as_secs_f64().into()),
        ("clock", clock_json(&clock, None)),
        ("tcp_launch_retries", u64::from(retries).into()),
        ("untraced_images_per_s", un_ips.into()),
        ("traced_images_per_s", tr_ips.into()),
        ("untraced_latency_p50_ms", latency_p50_ms.into()),
        ("untraced", Value::Arr(un_est.iter().map(estimate_json).collect())),
        ("traced", Value::Arr(tr_est.iter().map(estimate_json).collect())),
        ("probe_healthy", estimate_json(&healthy_est)),
        ("probe_straggler", estimate_json(&straggler_est)),
        ("probe_straggler_zero_filled_tiles", straggler.zero_filled_tiles.into()),
        ("probe_straggler_redispatched", straggler.redispatched.into()),
        (
            "image_report_merge_s_max",
            traced_w.iter().map(|s| s.merge_s_max).fold(0.0, f64::max).into(),
        ),
        ("walked_images", walked.into()),
        (
            "kernel_shapes",
            Value::Arr(
                kernel_rows
                    .iter()
                    .map(|r| {
                        Value::obj([
                            ("site", r.site.into()),
                            ("kind", r.kind.into()),
                            ("m", r.m.into()),
                            ("k", r.k.into()),
                            ("n", r.n.into()),
                            ("per_image", r.per_image.into()),
                            ("reps", r.reps.into()),
                            ("gemm_us", r.gemm_us.into()),
                            ("op_us", r.op_us.into()),
                            (
                                "gemm_gflops",
                                if r.kind == "conv" {
                                    r.flops() / r.gemm_us / 1e3
                                } else {
                                    f64::NAN
                                }
                                .into(),
                            ),
                            (
                                "conv_gflops",
                                if r.kind == "conv" { r.flops() / r.op_us / 1e3 } else { f64::NAN }
                                    .into(),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "span_self_time",
            Value::obj(t.self_times().into_iter().map(|(name, s)| {
                (
                    name,
                    Value::obj([
                        ("self_us", s.self_us.into()),
                        ("total_us", s.total_us.into()),
                        ("spans", s.spans.into()),
                        ("median_us", t.median_us(name, 0).into()),
                    ]),
                )
            })),
        ),
        ("chrome_trace", chrome.to_string_lossy().into_owned().into()),
    ]);
    Ok(finish(a, machine, metrics, phases, detail, walk_ok))
}
