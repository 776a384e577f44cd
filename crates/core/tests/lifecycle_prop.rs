//! Property tests for the sans-IO tile-lifecycle state machine: for
//! arbitrary event interleavings,
//!
//! - every tile ends in exactly one terminal state (accepted once, or
//!   zero-filled/abandoned — never both, never neither),
//! - re-dispatch rounds never exceed `max_redispatch_rounds`,
//! - no action is emitted after image completion;
//!
//! and the multi-image machine above it keeps every image and its liveness
//! promises under the same kind of interleavings — the thread-free seed of
//! a schedule explorer.
//!
//! The event stream is decoded from flat integer/float/bool vectors (not
//! composite strategies) so the test runs against any proptest-compatible
//! sampler.

use adcnn_core::lifecycle::{
    Action, Event, LifecycleCounters, LifecyclePolicy, TileLifecycle, TimerPolicy,
};
use adcnn_core::obs::SinkHandle;
use adcnn_core::pipeline::{Pipeline, Split};
use adcnn_core::sched::TileAllocator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Decode one raw sample into an event. `kind` selects the variant; `at`
/// is scaled into a plausible window per variant; `idx` picks tiles and
/// workers.
fn decode_event(kind: usize, at: f64, idx: usize, ok: bool, d: usize, k: usize) -> Event {
    match kind % 6 {
        0 => Event::TileDelivered { tile: idx % d },
        1 => Event::SendComplete { at: at * 0.1 },
        2 => Event::ResultArrived { at: at * 0.5, tile: idx % d, worker: idx % k, ok },
        3 => Event::DeadlineFired { at: at * 6.0 },
        4 => Event::WorkerDied { worker: idx % k },
        _ => Event::SendRejected { tile: idx % d, worker: idx % k },
    }
}

/// Accepted/zero-filled tiles observed in the action stream.
#[derive(Default)]
struct Observed {
    accepts: Vec<usize>,
    zero_filled: Vec<usize>,
    complete: usize,
}

fn observe(acts: &[Action], obs: &mut Observed) {
    for a in acts {
        match a {
            Action::Accept { tile, .. } => obs.accepts.push(*tile),
            Action::ZeroFill { tiles } => obs.zero_filled.extend_from_slice(tiles),
            Action::Complete => obs.complete += 1,
            _ => {}
        }
    }
}

fn check_terminal(d: usize, obs: &Observed, c: &LifecycleCounters) {
    // Each tile was accepted at most once, and never both accepted and
    // zero-filled.
    let mut accepted = vec![false; d];
    for &t in &obs.accepts {
        assert!(!accepted[t], "tile {t} accepted twice");
        accepted[t] = true;
    }
    for &t in &obs.zero_filled {
        assert!(!accepted[t], "tile {t} both accepted and zero-filled");
    }
    // Every tile is accounted for exactly once: accepted, or counted in
    // zero_filled (which includes the abandoned shortfall).
    assert_eq!(
        obs.accepts.len() + c.zero_filled as usize,
        d,
        "tiles not conserved: {} accepted + {} zero-filled != {d}",
        obs.accepts.len(),
        c.zero_filled
    );
    assert_eq!(obs.complete, 1, "Complete must be emitted exactly once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lifecycle_invariants_hold_for_arbitrary_interleavings(
        k in 1usize..5,
        d in 1usize..10,
        raw_alloc in proptest::collection::vec(0u32..4, 4..5),
        raw_speeds in proptest::collection::vec(0.0..2.0f64, 4..5),
        timer_idx in 0usize..3,
        rounds in 0u32..4,
        n_steps in 0usize..40,
        kinds in proptest::collection::vec(0usize..6, 40..41),
        ats in proptest::collection::vec(0.0..1.0f64, 40..41),
        idxs in proptest::collection::vec(0usize..16, 40..41),
        oks in proptest::collection::vec(any::<bool>(), 40..41),
    ) {
        // Build alloc/speeds of length k, with Σ alloc <= d (the Algorithm
        // 3 contract: the shortfall under storage caps is abandoned).
        let mut alloc: Vec<u32> = (0..k).map(|i| raw_alloc[i % raw_alloc.len()]).collect();
        let mut total: u32 = alloc.iter().sum();
        while total > d as u32 {
            for a in alloc.iter_mut() {
                if total > d as u32 && *a > 0 {
                    *a -= 1;
                    total -= 1;
                }
            }
        }
        let speeds: Vec<f64> = (0..k).map(|i| raw_speeds[i % raw_speeds.len()]).collect();
        let live = vec![true; k];
        let timer =
            [TimerPolicy::AfterSend, TimerPolicy::Deadline, TimerPolicy::WaitAll][timer_idx];
        let policy = LifecyclePolicy {
            max_redispatch_rounds: rounds,
            timer,
            hard_timeout: 5.0,
            ..Default::default()
        };

        let (mut lc, acts) = TileLifecycle::begin(policy, 0.0, d, &alloc, &speeds, &live);
        let mut obs = Observed::default();
        observe(&acts, &mut obs);

        for i in 0..n_steps {
            let ev = decode_event(kinds[i], ats[i], idxs[i], oks[i], d, k);
            let was_complete = lc.is_complete();
            let acts = lc.handle(ev);
            if was_complete {
                prop_assert!(acts.is_empty(), "action emitted after completion: {acts:?}");
            }
            observe(&acts, &mut obs);
            prop_assert!(
                lc.counters().rounds <= policy.max_redispatch_rounds,
                "rounds {} > max {}",
                lc.counters().rounds,
                policy.max_redispatch_rounds
            );
        }

        // Close the image out: firing at the hard deadline always finishes
        // (past that instant nothing is recoverable).
        if !lc.is_complete() {
            let acts = lc.handle(Event::DeadlineFired { at: lc.hard_deadline() });
            observe(&acts, &mut obs);
        }
        prop_assert!(lc.is_complete(), "hard deadline must complete the image");
        check_terminal(d, &obs, lc.counters());

        // And the machine stays silent forever after.
        for ev in [
            Event::DeadlineFired { at: lc.hard_deadline() + 1.0 },
            Event::SendComplete { at: 9.0 },
            Event::Abort,
            Event::SendRejected { tile: 0, worker: 0 },
            // late results are counted but must not produce actions
            Event::ResultArrived { at: 9.0, tile: 0, worker: 0, ok: true },
        ] {
            prop_assert!(lc.handle(ev).is_empty(), "action after completion: {ev:?}");
        }
        prop_assert!(lc.counters().rounds <= policy.max_redispatch_rounds);
    }
}

/// One image's decisions as the multi-image property sees them.
#[derive(Default)]
struct Image {
    /// Last send target per tile.
    held: Vec<usize>,
    complete: usize,
}

/// Record `acts` for `image`, checking the liveness invariants on the way:
/// no send goes to a down worker while any worker is live.
fn record(pipe: &Pipeline<()>, images: &mut [Image], image: usize, acts: &[Action]) {
    let any_live = pipe.live().contains(&true);
    for a in acts {
        match *a {
            Action::Dispatch { tile, to } | Action::Redispatch { tile, to } => {
                assert!(
                    !any_live || pipe.live()[to],
                    "image {image}: {a:?} targets down worker {to}"
                );
                images[image].held[tile] = to;
            }
            Action::Complete => images[image].complete += 1,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The multi-image machine with N >= 4 images in flight under random
    /// interleavings of results, deadlines, admissions, and workers going
    /// down and coming back up:
    ///
    /// - every submitted image completes exactly once;
    /// - a down worker's speed is 0 and nothing is sent to it, re-dispatch
    ///   included, while some worker is live — `submit` included, so it gets
    ///   no tile while a live node has room;
    /// - a worker that comes back up restarts at speed 1.0.
    #[test]
    fn pipeline_invariants_hold_for_arbitrary_interleavings(
        k in 2usize..5,
        d in 1usize..9,
        in_flight in 4usize..7,
        rounds in 0u32..3,
        seed in 0u64..1000,
        kinds in proptest::collection::vec(0usize..6, 80..81),
        idxs in proptest::collection::vec(0usize..64, 80..81),
        oks in proptest::collection::vec(any::<bool>(), 80..81),
    ) {
        let policy = LifecyclePolicy { max_redispatch_rounds: rounds, ..Default::default() };
        let allocator = TileAllocator::unbounded(k);
        let mut pipe: Pipeline<()> =
            Pipeline::new(policy, d, 0.9, Split::Adaptive, allocator, true, SinkHandle::null());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut images: Vec<Image> = Vec::new();
        let mut now = 0.0;
        let mut submit = |pipe: &mut Pipeline<()>, images: &mut Vec<Image>, now: f64| {
            let image = images.len();
            images.push(Image { held: vec![usize::MAX; d], complete: 0 });
            let acts = pipe.submit(image as u64, now, (), &mut rng);
            record(pipe, images, image, &acts);
            for a in acts {
                if let Action::Dispatch { tile, .. } = a {
                    pipe.handle(image as u64, Event::TileDelivered { tile });
                }
            }
            let acts = pipe.handle(image as u64, Event::SendComplete { at: now });
            record(pipe, images, image, &acts);
        };
        for _ in 0..in_flight {
            submit(&mut pipe, &mut images, now);
        }
        for i in 0..kinds.len() {
            now += 0.001;
            let (idx, image) = (idxs[i], idxs[i] % images.len());
            match kinds[i] {
                0 | 1 => {
                    let tile = idx / images.len() % d;
                    let worker = images[image].held[tile];
                    if worker < k {
                        let ev = Event::ResultArrived { at: now, tile, worker, ok: oks[i] };
                        let acts = pipe.handle(image as u64, ev);
                        record(&pipe, &mut images, image, &acts);
                    }
                }
                2 => {
                    if let Some(f) = pipe.get(image as u64) {
                        now = now.max(f.lifecycle().next_deadline());
                        let acts = pipe.handle(image as u64, Event::DeadlineFired { at: now });
                        record(&pipe, &mut images, image, &acts);
                    }
                }
                3 => {
                    pipe.worker_down(idx % k);
                }
                4 => {
                    if pipe.worker_up(idx % k) {
                        prop_assert_eq!(pipe.speeds()[idx % k], 1.0);
                    }
                }
                _ => submit(&mut pipe, &mut images, now),
            }
            for w in 0..k {
                prop_assert!(pipe.live()[w] || pipe.speeds()[w] == 0.0, "down worker {} has speed", w);
            }
        }
        // Close every image out at its hard deadline, then retire it.
        for image in 0..images.len() as u64 {
            let f = pipe.get(image).expect("no image is retired before the end");
            let at = f.lifecycle().hard_deadline();
            let acts = pipe.handle(image, Event::DeadlineFired { at });
            record(&pipe, &mut images, image as usize, &acts);
            prop_assert!(pipe.retire(image).is_some_and(|(_, lc)| lc.is_complete()));
        }
        for (i, img) in images.iter().enumerate() {
            prop_assert_eq!(img.complete, 1, "image {} completed {} times", i, img.complete);
        }
        prop_assert!(pipe.is_empty());
    }
}
