//! Differential test for the sans-IO tile lifecycle: replay identical
//! event traces through `adcnn_core::lifecycle::replay` — the one replay
//! loop — under each driver's contribution to it: the simulator's clock
//! (identity) and the runtime's (`replay_clock()`, the `Instant` roundtrip
//! the collector itself performs). The decision sequences —
//! dispatch/re-dispatch targets, zero-fill sets, rate-update attribution,
//! completion — the emitted `ObsEvent`s and the attribution reports must be
//! identical. This is the contract that makes a deployment plan validated
//! in `adcnn-netsim` trustworthy on `adcnn-runtime`: both sides drive the
//! same `adcnn_core::lifecycle::TileLifecycle`, and neither side's clock
//! may perturb a single decision.
//!
//! The multi-image cases at the end drive the machine above the lifecycle,
//! `adcnn_core::pipeline::Pipeline` — allocation, the Algorithm 2
//! statistics, worker liveness — the same way under both clocks.
//!
//! Trace timestamps are millisecond-grain so the runtime's
//! `f64 → Duration → f64` roundtrip is bit-exact.

use adcnn_core::lifecycle::{replay, Action, Event, LifecyclePolicy, TimerPolicy};
use adcnn_core::obs::{ObsEvent, RecordingSink, SinkHandle};
use adcnn_core::pipeline::{Pipeline, Split};
use adcnn_core::report::AttributionSink;
use adcnn_core::sched::TileAllocator;
use adcnn_runtime::central::replay_clock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

fn policy() -> LifecyclePolicy {
    LifecyclePolicy { t_l: 0.030, ..Default::default() }
}

/// What the two drivers agreed on, rendered the way the assertions read
/// it: Debug-formatted decision lines (prefixed `[i] ` with the owning
/// image index when more than one image is in flight), Debug-formatted
/// `ObsEvent`s, and image 0's `ImageReport` as canonical JSON.
struct Agreed {
    decisions: Vec<String>,
    events: Vec<String>,
    report: Option<String>,
}

/// Replay an interleaved `(image, event)` trace — the shape the pipelined
/// collector demultiplexes; one image is the one-alloc case — under both
/// drivers and assert the whole outcome (decisions, `ObsEvent`
/// schema/ordering/fields, per-image critical-path reports) is identical.
fn assert_identical(
    policy: LifecyclePolicy,
    d: usize,
    allocs: &[Vec<u32>],
    speeds: &[f64],
    live: &[bool],
    trace: &[(usize, Event)],
) -> Agreed {
    let sim = replay(policy, d, allocs, speeds, live, trace, |at| at);
    let rt = replay(policy, d, allocs, speeds, live, trace, replay_clock());
    assert_eq!(rt, sim, "runtime and simulator drivers disagree");
    assert!(!rt.decisions.is_empty(), "a non-trivial trace must produce decisions");
    assert!(!rt.events.is_empty(), "a non-trivial trace must emit events");
    let report = rt.reports[0].clone();
    if let Some(r) = &report {
        assert!(adcnn_core::obs::json::is_well_formed(r), "malformed report JSON: {r}");
    }
    Agreed {
        decisions: rt
            .decisions
            .iter()
            .map(|(i, a)| if allocs.len() > 1 { format!("[{i}] {a:?}") } else { format!("{a:?}") })
            .collect(),
        events: rt.events.iter().map(|e| format!("{e:?}")).collect(),
        report,
    }
}

/// [`assert_identical`] for a single image.
fn assert_identical_one(
    policy: LifecyclePolicy,
    d: usize,
    alloc: &[u32],
    speeds: &[f64],
    live: &[bool],
    trace: &[Event],
) -> Agreed {
    let tagged: Vec<(usize, Event)> = trace.iter().map(|&ev| (0, ev)).collect();
    assert_identical(policy, d, &[alloc.to_vec()], speeds, live, &tagged)
}

#[test]
fn healthy_trace_emits_identical_event_sequences() {
    let trace = [
        Event::TileDelivered { tile: 0 },
        Event::TileDelivered { tile: 1 },
        Event::SendComplete { at: 0.004 },
        Event::ResultArrived { at: 0.020, tile: 0, worker: 0, ok: true },
        Event::ResultArrived { at: 0.021, tile: 1, worker: 1, ok: true },
    ];
    let events =
        assert_identical_one(policy(), 2, &[1, 1], &[1.0, 1.0], &[true, true], &trace).events;
    assert!(events[0].starts_with("ImageStart"), "{events:?}");
    assert_eq!(events.iter().filter(|e| e.starts_with("TileDispatch")).count(), 2);
    assert_eq!(events.iter().filter(|e| e.starts_with("TileArrival")).count(), 2);
    assert_eq!(events.iter().filter(|e| e.starts_with("RateUpdate")).count(), 2);
    assert!(events.last().unwrap().starts_with("ImageFinish"), "{events:?}");
}

#[test]
fn faulty_trace_emits_identical_event_sequences() {
    // Same scenario as `dead_worker_redispatch_then_zero_fill_is_identical`:
    // a death, a recovery round, a zero-fill — the full fault taxonomy must
    // come out of both drivers in the same order with the same fields.
    let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
    let dl1 = 0.010 + 0.010 * p.slack + p.t_l;
    let dl2 = dl1 + 0.010 * p.slack * 2.0 + p.t_l;
    let trace = [
        Event::TileDelivered { tile: 0 },
        Event::TileDelivered { tile: 1 },
        Event::TileDelivered { tile: 2 },
        Event::TileDelivered { tile: 3 },
        Event::SendComplete { at: 0.004 },
        Event::ResultArrived { at: 0.010, tile: 1, worker: 1, ok: true },
        Event::ResultArrived { at: 0.012, tile: 3, worker: 1, ok: true },
        Event::WorkerDied { worker: 0 },
        Event::DeadlineFired { at: dl1 },
        // Timestamps between the deadlines are literals (not float sums):
        // the event stream carries `at` fields, so every time must survive
        // the runtime's nanosecond-grain Duration roundtrip bit-exactly.
        Event::ResultArrived { at: 0.055, tile: 0, worker: 1, ok: true },
        Event::DeadlineFired { at: dl2 },
        // one corrupt straggler after completion: Late, not Accept
        Event::ResultArrived { at: 0.110, tile: 2, worker: 0, ok: false },
    ];
    let events = assert_identical_one(p, 4, &[2, 2], &[1.0, 5.0], &[true, true], &trace).events;
    for kind in
        ["WorkerDead", "DeadlineFired", "TileRedispatch", "TileZeroFill", "TileLate", "ImageFinish"]
    {
        assert!(events.iter().any(|e| e.starts_with(kind)), "missing {kind}: {events:?}");
    }
}

#[test]
fn healthy_trace_produces_identical_image_reports() {
    let trace = [
        Event::TileDelivered { tile: 0 },
        Event::TileDelivered { tile: 1 },
        Event::SendComplete { at: 0.004 },
        Event::ResultArrived { at: 0.020, tile: 0, worker: 0, ok: true },
        Event::ResultArrived { at: 0.021, tile: 1, worker: 1, ok: true },
    ];
    let report = assert_identical_one(policy(), 2, &[1, 1], &[1.0, 1.0], &[true, true], &trace)
        .report
        .expect("trace must finish the image and yield a report");
    // Tile 1 arrives last: it is the critical path on both drivers.
    assert!(report.contains("\"critical_tile\":1"), "{report}");
    assert!(report.contains("\"zero_filled\":0"), "{report}");
}

#[test]
fn faulty_trace_produces_identical_image_reports() {
    // The fault taxonomy trace: a death, a recovery round, a zero-fill.
    // The attribution layer must make the same critical-path call — the
    // zero-filled tile's open wait dominates — on both drivers.
    let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
    let dl1 = 0.010 + 0.010 * p.slack + p.t_l;
    let dl2 = dl1 + 0.010 * p.slack * 2.0 + p.t_l;
    let trace = [
        Event::TileDelivered { tile: 0 },
        Event::TileDelivered { tile: 1 },
        Event::TileDelivered { tile: 2 },
        Event::TileDelivered { tile: 3 },
        Event::SendComplete { at: 0.004 },
        Event::ResultArrived { at: 0.010, tile: 1, worker: 1, ok: true },
        Event::ResultArrived { at: 0.012, tile: 3, worker: 1, ok: true },
        Event::WorkerDied { worker: 0 },
        Event::DeadlineFired { at: dl1 },
        Event::ResultArrived { at: 0.055, tile: 0, worker: 1, ok: true },
        Event::DeadlineFired { at: dl2 },
        Event::ResultArrived { at: 0.110, tile: 2, worker: 0, ok: false },
    ];
    let report = assert_identical_one(p, 4, &[2, 2], &[1.0, 5.0], &[true, true], &trace)
        .report
        .expect("trace must finish the image and yield a report");
    assert!(report.contains("\"zero_filled\":1"), "{report}");
    assert!(report.contains("\"redispatched\":2"), "{report}");
    // Tile 2 never came back: the zero-fill at dl2 closes the image, and
    // its open queue wait is the dominant phase.
    assert!(report.contains("\"critical_tile\":2"), "{report}");
    assert!(report.contains("\"dominant_phase\":\"queue_wait\""), "{report}");
}

#[test]
fn healthy_completion_is_identical() {
    let trace = [
        Event::TileDelivered { tile: 0 },
        Event::TileDelivered { tile: 1 },
        Event::TileDelivered { tile: 2 },
        Event::TileDelivered { tile: 3 },
        Event::SendComplete { at: 0.004 },
        Event::ResultArrived { at: 0.020, tile: 0, worker: 0, ok: true },
        Event::ResultArrived { at: 0.021, tile: 1, worker: 1, ok: true },
        Event::ResultArrived { at: 0.030, tile: 2, worker: 0, ok: true },
        Event::ResultArrived { at: 0.032, tile: 3, worker: 1, ok: true },
    ];
    let log =
        assert_identical_one(policy(), 4, &[2, 2], &[1.0, 1.0], &[true, true], &trace).decisions;
    // dispatch round-robin, one Accept per tile, rates for both, Complete
    assert_eq!(log.iter().filter(|l| l.starts_with("Dispatch")).count(), 4);
    assert_eq!(log.iter().filter(|l| l.starts_with("Accept")).count(), 4);
    assert_eq!(log.iter().filter(|l| l.starts_with("RecordRate")).count(), 2);
    assert_eq!(log.last().unwrap(), "Complete");
}

#[test]
fn dead_worker_redispatch_then_zero_fill_is_identical() {
    // Worker 0 never answers; the deadline re-dispatches its tiles to
    // worker 1, one recovery succeeds, the next deadline zero-fills the
    // rest. Deadline times are computed from the policy formula so the
    // machine treats them as live, not stale.
    let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
    // first result at 10 ms → span = pu*slack*(max_alloc-1) + t_l
    let dl1 = 0.010 + 0.010 * p.slack + p.t_l;
    // re-dispatch of 2 tiles to 1 candidate → span = pu*slack*2 + t_l
    let dl2 = dl1 + 0.010 * p.slack * 2.0 + p.t_l;
    let trace = [
        Event::TileDelivered { tile: 0 },
        Event::TileDelivered { tile: 1 },
        Event::TileDelivered { tile: 2 },
        Event::TileDelivered { tile: 3 },
        Event::SendComplete { at: 0.004 },
        Event::ResultArrived { at: 0.010, tile: 1, worker: 1, ok: true },
        Event::ResultArrived { at: 0.012, tile: 3, worker: 1, ok: true },
        Event::WorkerDied { worker: 0 },
        Event::DeadlineFired { at: dl1 },
        // A literal, not `dl1 + 0.005`: the whole replay is compared now,
        // `at` fields included, so it must be nanosecond-grain (see above).
        Event::ResultArrived { at: 0.0575, tile: 0, worker: 1, ok: true },
        Event::DeadlineFired { at: dl2 },
    ];
    let log = assert_identical_one(p, 4, &[2, 2], &[1.0, 5.0], &[true, true], &trace).decisions;
    assert_eq!(log.iter().filter(|l| l.starts_with("Redispatch")).count(), 2);
    assert!(log.iter().any(|l| l.starts_with("ZeroFill")), "{log:?}");
    assert_eq!(log.last().unwrap(), "Complete");
}

#[test]
fn send_rejection_reroute_is_identical() {
    // Worker 2's queue refuses both of its tiles; they must hop to the
    // fastest untried live workers in the same order on both drivers.
    let trace = [
        Event::SendRejected { tile: 2, worker: 2 },
        Event::SendRejected { tile: 5, worker: 2 },
        Event::SendComplete { at: 0.003 },
        Event::ResultArrived { at: 0.011, tile: 0, worker: 0, ok: true },
        Event::ResultArrived { at: 0.012, tile: 1, worker: 1, ok: true },
        Event::ResultArrived { at: 0.013, tile: 2, worker: 1, ok: true },
        Event::ResultArrived { at: 0.014, tile: 3, worker: 0, ok: true },
        Event::ResultArrived { at: 0.015, tile: 4, worker: 1, ok: true },
        Event::ResultArrived { at: 0.016, tile: 5, worker: 1, ok: true },
    ];
    let log = assert_identical_one(
        policy(),
        6,
        &[2, 2, 2],
        &[1.0, 2.0, 0.5],
        &[true, true, true],
        &trace,
    )
    .decisions;
    // the two rejected tiles are re-dispatched as fresh Dispatch actions
    assert_eq!(log.iter().filter(|l| l.starts_with("Dispatch")).count(), 8);
    assert_eq!(log.last().unwrap(), "Complete");
}

#[test]
fn duplicate_and_corrupt_handling_is_identical() {
    let trace = [
        Event::TileDelivered { tile: 0 },
        Event::TileDelivered { tile: 1 },
        Event::SendComplete { at: 0.002 },
        // corrupt first copy: tile stays open
        Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: false },
        // good copy accepted
        Event::ResultArrived { at: 0.014, tile: 0, worker: 0, ok: true },
        // duplicate from the other worker: counted, no action
        Event::ResultArrived { at: 0.015, tile: 0, worker: 1, ok: true },
        Event::ResultArrived { at: 0.016, tile: 1, worker: 1, ok: true },
    ];
    let log =
        assert_identical_one(policy(), 2, &[1, 1], &[1.0, 1.0], &[true, true], &trace).decisions;
    assert_eq!(log.iter().filter(|l| l.starts_with("Accept")).count(), 2);
    assert_eq!(log.last().unwrap(), "Complete");
}

#[test]
fn after_send_and_wait_all_policies_are_identical() {
    // AfterSend: T_L fires before anything returns → everything zero-fills.
    let p = LifecyclePolicy { timer: TimerPolicy::AfterSend, ..policy() };
    let trace = [
        Event::SendComplete { at: 0.005 },
        Event::DeadlineFired { at: 0.035 },
        Event::ResultArrived { at: 0.040, tile: 0, worker: 0, ok: true }, // late
    ];
    let log = assert_identical_one(p, 2, &[1, 1], &[1.0, 1.0], &[true, true], &trace).decisions;
    assert!(log.iter().any(|l| l.starts_with("ZeroFill")));

    // WaitAll: a pre-hard-timeout fire is ignored; the hard timeout closes.
    let p = LifecyclePolicy { timer: TimerPolicy::WaitAll, hard_timeout: 2.0, ..policy() };
    let trace = [
        Event::SendComplete { at: 0.005 },
        Event::ResultArrived { at: 0.020, tile: 0, worker: 0, ok: true },
        Event::DeadlineFired { at: 1.0 }, // ignored: WaitAll never arms
        Event::DeadlineFired { at: 2.0 }, // the hard timeout
    ];
    let log = assert_identical_one(p, 2, &[1, 1], &[1.0, 1.0], &[true, true], &trace).decisions;
    assert!(log.iter().any(|l| l.starts_with("ZeroFill")));
    assert_eq!(log.last().unwrap(), "Complete");
}

#[test]
fn interleaved_multi_image_trace_is_identical() {
    // Two images in flight at once, their events interleaved the way the
    // pipelined collector sees them: image 1's dispatches land while image
    // 0 is still waiting on results, image 0 loses a worker and zero-fills
    // while image 1 completes cleanly. Every decision must stay attributed
    // to its own machine on both drivers — no cross-image bleed.
    let p = LifecyclePolicy { max_redispatch_rounds: 0, ..policy() };
    let dl0 = 0.010 + 0.010 * p.slack + p.t_l;
    let trace: Vec<(usize, Event)> = vec![
        (0, Event::TileDelivered { tile: 0 }),
        (0, Event::TileDelivered { tile: 1 }),
        (0, Event::SendComplete { at: 0.002 }),
        (1, Event::TileDelivered { tile: 0 }),
        (1, Event::TileDelivered { tile: 1 }),
        (1, Event::SendComplete { at: 0.004 }),
        (0, Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true }),
        (1, Event::ResultArrived { at: 0.011, tile: 0, worker: 0, ok: true }),
        (0, Event::WorkerDied { worker: 1 }),
        (1, Event::ResultArrived { at: 0.013, tile: 1, worker: 1, ok: true }),
        (0, Event::DeadlineFired { at: dl0 }),
    ];
    let log = assert_identical(p, 2, &[vec![1, 1], vec![1, 1]], &[1.0, 1.0], &[true, true], &trace)
        .decisions;
    // Image 0 zero-fills its lost tile; image 1 never does.
    assert!(log.iter().any(|l| l.starts_with("[0] ZeroFill")), "{log:?}");
    assert!(!log.iter().any(|l| l.starts_with("[1] ZeroFill")), "{log:?}");
    assert_eq!(log.iter().filter(|l| l.ends_with("Complete")).count(), 2, "{log:?}");
}

#[test]
fn interleaved_multi_image_events_are_identical() {
    // Same interleaving through the observability plumbing: the shared
    // sink sees both images' events tagged with the right image id, in the
    // same order, from both drivers.
    let trace: Vec<(usize, Event)> = vec![
        (0, Event::TileDelivered { tile: 0 }),
        (0, Event::TileDelivered { tile: 1 }),
        (0, Event::SendComplete { at: 0.002 }),
        (1, Event::TileDelivered { tile: 0 }),
        (1, Event::TileDelivered { tile: 1 }),
        (1, Event::SendComplete { at: 0.004 }),
        (1, Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true }),
        (0, Event::ResultArrived { at: 0.011, tile: 0, worker: 0, ok: true }),
        (1, Event::ResultArrived { at: 0.012, tile: 1, worker: 1, ok: true }),
        (0, Event::ResultArrived { at: 0.013, tile: 1, worker: 1, ok: true }),
    ];
    let rt = assert_identical(
        policy(),
        2,
        &[vec![1, 1], vec![1, 1]],
        &[1.0, 1.0],
        &[true, true],
        &trace,
    )
    .events;
    // Both images start, both finish, and image 1 finishes first (its last
    // result lands at 0.012, before image 0's at 0.013).
    assert_eq!(rt.iter().filter(|e| e.starts_with("ImageStart")).count(), 2, "{rt:?}");
    let finishes: Vec<&String> = rt.iter().filter(|e| e.starts_with("ImageFinish")).collect();
    assert_eq!(finishes.len(), 2, "{rt:?}");
    assert!(finishes[0].contains("image: 1"), "out-of-order completion lost: {finishes:?}");
    assert!(finishes[1].contains("image: 0"), "out-of-order completion lost: {finishes:?}");
}

#[test]
fn storage_shortfall_and_abort_are_identical() {
    // Σ alloc = 2 < d = 4 (storage caps): the shortfall is abandoned; an
    // abort then zero-fills whatever is still open.
    let trace = [
        Event::SendComplete { at: 0.002 },
        Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true },
        Event::Abort,
    ];
    let log =
        assert_identical_one(policy(), 4, &[1, 1], &[1.0, 1.0], &[true, true], &trace).decisions;
    assert_eq!(log.iter().filter(|l| l.starts_with("Dispatch")).count(), 2);
    assert!(log.iter().any(|l| l.starts_with("ZeroFill")));
    assert_eq!(log.last().unwrap(), "Complete");
}

/// One step of a scripted run of the multi-image machine, in trace seconds.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Admit `image`: its dispatches are handed off at once, as the
    /// runtime's collector does, and sending completes at `at`.
    Submit {
        image: u64,
        at: f64,
    },
    /// Every tile of `image` that `worker` holds comes back at `at`.
    Deliver {
        image: u64,
        worker: usize,
        at: f64,
    },
    /// `image`'s armed deadline fires.
    Deadline {
        image: u64,
    },
    /// The driver knows `worker` is gone before the Central can tell (the
    /// simulator's scheduled deaths).
    Unreachable(usize),
    Down(usize),
    Up(usize),
    Retire {
        image: u64,
    },
}

/// Drive a [`Pipeline`] over two workers and four tiles per image through
/// `script`, with every trace timestamp passed through `clock`, and return
/// what came out: the image-tagged decisions with the estimates and live set
/// after every step, the `ObsEvent`s, and each image's report.
fn run_machine(
    policy: LifecyclePolicy,
    script: &[Step],
    clock: impl Fn(f64) -> f64,
) -> (Vec<String>, Vec<ObsEvent>, Vec<Option<String>>) {
    let rec = Arc::new(RecordingSink::new());
    let attr = Arc::new(AttributionSink::new());
    let sink = SinkHandle::new(rec.clone()).tee(attr.clone());
    let mut pipe: Pipeline<()> =
        Pipeline::new(policy, 4, 0.9, Split::Adaptive, TileAllocator::unbounded(2), true, sink);
    let mut rng = StdRng::seed_from_u64(11);
    // Which worker holds each open (image, tile) — the last send's target.
    let mut held: BTreeMap<(u64, usize), usize> = BTreeMap::new();
    let mut log = Vec::new();
    let mut images = Vec::new();
    for &step in script {
        let mut events: Vec<(u64, Event)> = Vec::new();
        let mut decided: Vec<(u64, Action)> = Vec::new();
        match step {
            Step::Submit { image, at } => {
                images.push(image);
                for a in pipe.submit(image, clock(at), (), &mut rng) {
                    if let Action::Dispatch { tile, .. } = a {
                        events.push((image, Event::TileDelivered { tile }));
                    }
                    decided.push((image, a));
                }
                events.push((image, Event::SendComplete { at: clock(at) }));
            }
            Step::Deliver { image, worker, at } => {
                let tiles: Vec<usize> = held
                    .iter()
                    .filter(|&(&(i, _), &w)| i == image && w == worker)
                    .map(|(&(_, t), _)| t)
                    .collect();
                for tile in tiles {
                    events.push((
                        image,
                        Event::ResultArrived { at: clock(at), tile, worker, ok: true },
                    ));
                }
            }
            Step::Deadline { image } => {
                let at = pipe.get(image).expect("deadline of an image in flight");
                events.push((image, Event::DeadlineFired { at: at.lifecycle().next_deadline() }));
            }
            Step::Unreachable(w) => pipe.set_reachable(w, false),
            Step::Down(w) => log.push(format!("down {w}: {}", pipe.worker_down(w))),
            Step::Up(w) => log.push(format!("up {w}: {}", pipe.worker_up(w))),
            Step::Retire { image } => {
                let (_, lc) = pipe.retire(image).expect("retire an image in flight");
                log.push(format!("retired {image}: {:?} alloc {:?}", lc.counters(), lc.alloc()));
            }
        }
        for (image, ev) in events {
            decided.extend(pipe.handle(image, ev).into_iter().map(|a| (image, a)));
        }
        for (image, a) in decided {
            match a {
                Action::Dispatch { tile, to } | Action::Redispatch { tile, to } => {
                    held.insert((image, tile), to);
                }
                Action::Accept { tile, .. } => {
                    held.remove(&(image, tile));
                }
                _ => {}
            }
            log.push(format!("[{image}] {a:?}"));
        }
        log.push(format!("speeds {:?} live {:?}", pipe.speeds(), pipe.live()));
    }
    let reports = images.iter().map(|&i| attr.report_for(i).map(|r| r.to_json())).collect();
    (log, rec.events(), reports)
}

/// [`run_machine`] under the simulator's clock and the runtime's, asserting
/// the two runs agree on every decision, event and report.
fn assert_machine_identical(policy: LifecyclePolicy, script: &[Step]) -> Vec<String> {
    let (sim_log, sim_events, sim_reports) = run_machine(policy, script, |at| at);
    let (rt_log, rt_events, rt_reports) = run_machine(policy, script, replay_clock());
    assert_eq!(rt_log, sim_log, "runtime and simulator clocks disagree on decisions");
    assert_eq!(rt_events, sim_events, "runtime and simulator clocks disagree on events");
    assert_eq!(rt_reports, sim_reports, "runtime and simulator clocks disagree on reports");
    for r in rt_reports.iter().flatten() {
        assert!(adcnn_core::obs::json::is_well_formed(r), "malformed report JSON: {r}");
    }
    rt_log
}

#[test]
fn multi_image_machine_through_a_death_and_rejoin_is_identical() {
    // Two images in flight when worker 1 dies; each learns of the death at
    // its own deadline and recovers on worker 0, a third image is admitted
    // while worker 1 is down, and after the rejoin a fourth gets tiles on
    // it again.
    let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
    let script = [
        Step::Submit { image: 0, at: 0.000 },
        Step::Submit { image: 1, at: 0.002 },
        Step::Deliver { image: 0, worker: 0, at: 0.010 },
        Step::Deliver { image: 1, worker: 0, at: 0.012 },
        Step::Down(1),
        Step::Deadline { image: 0 },
        Step::Deliver { image: 0, worker: 0, at: 0.060 },
        Step::Submit { image: 2, at: 0.061 },
        Step::Deadline { image: 1 },
        Step::Up(1),
        Step::Deliver { image: 1, worker: 0, at: 0.100 },
        Step::Deliver { image: 2, worker: 0, at: 0.125 },
        Step::Submit { image: 3, at: 0.130 },
        Step::Deliver { image: 3, worker: 1, at: 0.140 },
        Step::Deliver { image: 3, worker: 0, at: 0.141 },
        Step::Retire { image: 0 },
        Step::Retire { image: 1 },
        Step::Retire { image: 2 },
        Step::Retire { image: 3 },
    ];
    let log = assert_machine_identical(p, &script);
    let has = |s: &str| log.iter().any(|l| l.contains(s));
    // Both pre-death images re-dispatch worker 1's tiles to worker 0, and
    // nothing is ever sent to worker 1 while it is down.
    assert!(has("[0] Redispatch { tile: 1, to: 0 }") && has("[1] Redispatch { tile: 3, to: 0 }"));
    assert!(!has("[2] Dispatch { tile: 1, to: 1 }"), "{log:?}");
    assert!(has("retired 2: ") && log.iter().any(|l| l.contains("alloc [4, 0]")), "{log:?}");
    assert!(has("up 1: true") && has("[3] Dispatch { tile: 1, to: 1 }"), "{log:?}");
    assert_eq!(log.iter().filter(|l| l.ends_with("Complete")).count(), 4, "{log:?}");
    assert!(!has("ZeroFill"), "every tile is recovered: {log:?}");
}

#[test]
fn multi_image_machine_with_an_unreachable_node_is_identical() {
    // The simulator's order of knowledge: worker 1 is unreachable before
    // any deadline reveals it, so a new image still allocates to it (its
    // estimate stands) but no lifecycle routes there; the first deadline
    // takes it down.
    let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
    let script = [
        Step::Submit { image: 0, at: 0.000 },
        Step::Unreachable(1),
        Step::Submit { image: 1, at: 0.004 },
        Step::Deliver { image: 0, worker: 0, at: 0.010 },
        Step::Deliver { image: 1, worker: 0, at: 0.014 },
        Step::Down(1),
        Step::Deadline { image: 0 },
        Step::Deadline { image: 1 },
        Step::Deliver { image: 0, worker: 0, at: 0.070 },
        Step::Deliver { image: 1, worker: 0, at: 0.071 },
        Step::Retire { image: 0 },
        Step::Retire { image: 1 },
    ];
    let log = assert_machine_identical(p, &script);
    let has = |s: &str| log.iter().any(|l| l.contains(s));
    assert!(has("[1] Dispatch { tile: 1, to: 1 }"), "the estimate still allocates: {log:?}");
    assert!(has("[1] Redispatch { tile: 1, to: 0 }"), "{log:?}");
    assert_eq!(log.iter().filter(|l| l.ends_with("Complete")).count(), 2, "{log:?}");
}
