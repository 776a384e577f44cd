//! Minimal discrete-event machinery: a deterministic event queue, a FIFO
//! transfer resource, and a CPU with a piecewise-constant speed schedule.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: fires at `time`; ties break by insertion sequence so
/// runs are fully deterministic.
struct Entry<E> {
    time: f64,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic min-heap of timed events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `ev` at absolute time `time` (seconds).
    pub fn push(&mut self, time: f64, ev: E) {
        assert!(time.is_finite(), "event time must be finite");
        self.heap.push(Entry { time, seq: self.seq, ev });
        self.seq += 1;
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.ev))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A serially-shared FIFO resource (the half-duplex WiFi channel, a CPU
/// without preemption). Callers must acquire in nondecreasing `now` order —
/// which the event loop guarantees, and a `debug_assert!` enforces: an
/// out-of-order acquire would silently model a transfer that starts in the
/// past, so new drivers must fail loudly instead.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoResource {
    free_at: f64,
    busy_total: f64,
    last_now: f64,
}

impl FifoResource {
    /// New, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the resource for `duration` starting no earlier than `now`.
    /// Returns `(start, end)`.
    pub fn acquire(&mut self, now: f64, duration: f64) -> (f64, f64) {
        debug_assert!(
            now >= self.last_now,
            "FifoResource acquired out of order: now={now} after now={}",
            self.last_now
        );
        self.last_now = now;
        self.occupy(now, duration)
    }

    /// Occupy the resource for `duration` starting no earlier than `at`,
    /// where `at` may lie in the future (a pre-booked chained transfer,
    /// e.g. a re-dispatch round sending tile after tile). Does not advance
    /// the monotonicity clock, so events still pending at earlier
    /// timestamps can keep acquiring through [`FifoResource::acquire`].
    pub fn acquire_queued(&mut self, at: f64, duration: f64) -> (f64, f64) {
        debug_assert!(
            at >= self.last_now,
            "FifoResource pre-booked in the past: at={at} before now={}",
            self.last_now
        );
        self.occupy(at, duration)
    }

    fn occupy(&mut self, now: f64, duration: f64) -> (f64, f64) {
        assert!(duration >= 0.0, "negative duration");
        let start = now.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy_total += duration;
        (start, end)
    }

    /// Time the resource becomes free.
    #[allow(dead_code)] // crate-internal API completeness; used by tests
    pub fn free_at(&self) -> f64 {
        self.free_at
    }

    /// Total busy seconds so far.
    pub fn busy_total(&self) -> f64 {
        self.busy_total
    }
}

/// Piecewise-constant speed multiplier over time: `(from_time, multiplier)`
/// change points, sorted by time. Before the first change point the
/// multiplier is 1.0. Models CPUlimit-style throttling (§7.3).
#[derive(Clone, Debug, Default)]
pub struct SpeedSchedule {
    points: Vec<(f64, f64)>,
}

impl SpeedSchedule {
    /// Constant full speed.
    pub fn constant() -> Self {
        Self::default()
    }

    /// From explicit change points; must be time-sorted with positive or
    /// zero multipliers (zero = node dead from that point).
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        for w in points.windows(2) {
            assert!(w[0].0 <= w[1].0, "schedule not time-sorted");
        }
        for &(_, m) in &points {
            assert!(m >= 0.0, "negative multiplier");
        }
        SpeedSchedule { points }
    }

    /// Throttle to `mult` from time `t` onward.
    pub fn throttle_at(t: f64, mult: f64) -> Self {
        Self::from_points(vec![(t, mult)])
    }

    /// True if the node is dead (multiplier 0) at time `t` — such a node
    /// can accept tiles but will never finish computing them, so it is
    /// excluded from re-dispatch candidate selection.
    pub fn is_dead_at(&self, t: f64) -> bool {
        self.multiplier_at(t) <= 0.0
    }

    /// Layer another schedule on top of this one: the composed multiplier
    /// at any time is the *product* of the two. This is how churn plans
    /// stack — a diurnal speed curve composed with a join/leave schedule
    /// composed with an operator-injected fault — without any layer
    /// knowing about the others.
    pub fn compose(&self, other: &SpeedSchedule) -> SpeedSchedule {
        let mut times: Vec<f64> =
            self.points.iter().chain(other.points.iter()).map(|&(from, _)| from).collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        let points = times
            .into_iter()
            .map(|t| (t, self.multiplier_at(t) * other.multiplier_at(t)))
            .collect();
        SpeedSchedule { points }
    }

    /// The times at which `is_dead_at` flips, with the state it flips *to*
    /// (`true` = dies, `false` = revives), in time order. The fleet driver
    /// turns these into churn events so the hot loop maintains an indexed
    /// dead-set instead of re-walking every node's schedule at every timer.
    pub fn dead_transitions(&self) -> Vec<(f64, bool)> {
        let mut out = Vec::new();
        let mut dead = false; // multiplier is 1.0 before the first point
        for &(from, mult) in &self.points {
            let now_dead = mult <= 0.0;
            if now_dead != dead {
                out.push((from, now_dead));
                dead = now_dead;
            }
        }
        out
    }

    /// The multiplier in effect at time `t`.
    pub fn multiplier_at(&self, t: f64) -> f64 {
        let mut m = 1.0;
        for &(from, mult) in &self.points {
            if from <= t {
                m = mult;
            } else {
                break;
            }
        }
        m
    }

    /// Finish time for `work` seconds of full-speed execution starting at
    /// `start`, honoring the multiplier schedule. Returns `f64::INFINITY`
    /// if the schedule drops to 0 before the work completes.
    pub fn finish_time(&self, start: f64, work: f64) -> f64 {
        if work <= 0.0 {
            return start;
        }
        let mut t = start;
        let mut remaining = work;
        // Walk segment boundaries after `start`.
        let mut boundaries: Vec<f64> =
            self.points.iter().map(|&(from, _)| from).filter(|&b| b > start).collect();
        boundaries.push(f64::INFINITY);
        for b in boundaries {
            let m = self.multiplier_at(t);
            if m <= 0.0 {
                if b.is_infinite() {
                    return f64::INFINITY;
                }
                t = b;
                continue;
            }
            let seg = b - t;
            let can_do = seg * m;
            if can_do >= remaining {
                return t + remaining / m;
            }
            remaining -= can_do;
            t = b;
        }
        f64::INFINITY
    }
}

/// A CPU processing work items FIFO under a [`SpeedSchedule`].
#[derive(Clone, Debug)]
pub struct ThrottledCpu {
    /// The speed schedule (shared with metrics readers).
    pub schedule: SpeedSchedule,
    free_at: f64,
    busy_total: f64,
}

impl ThrottledCpu {
    /// Idle CPU with the given schedule.
    pub fn new(schedule: SpeedSchedule) -> Self {
        ThrottledCpu { schedule, free_at: 0.0, busy_total: 0.0 }
    }

    /// Enqueue `work` full-speed seconds arriving at `now`; returns
    /// `(start, end)` of the execution.
    pub fn run(&mut self, now: f64, work: f64) -> (f64, f64) {
        let start = now.max(self.free_at);
        let end = self.schedule.finish_time(start, work);
        if end.is_finite() {
            self.free_at = end;
            self.busy_total += end - start;
        } else {
            // Dead node: park the CPU forever.
            self.free_at = f64::MAX;
        }
        (start, end)
    }

    /// Wall-clock busy time so far.
    pub fn busy_total(&self) -> f64 {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a");
        q.push(2.0, "c");
        assert_eq!(q.pop().unwrap(), (1.0, "a"));
        assert_eq!(q.pop().unwrap(), (2.0, "b"));
        assert_eq!(q.pop().unwrap(), (2.0, "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_resource_serializes() {
        let mut r = FifoResource::new();
        let (s1, e1) = r.acquire(0.0, 2.0);
        let (s2, e2) = r.acquire(1.0, 3.0);
        assert_eq!((s1, e1), (0.0, 2.0));
        assert_eq!((s2, e2), (2.0, 5.0)); // waits for first transfer
        let (s3, _) = r.acquire(9.0, 1.0);
        assert_eq!(s3, 9.0); // idle gap
        assert_eq!(r.busy_total(), 6.0);
    }

    #[test]
    fn schedule_constant_is_identity() {
        let s = SpeedSchedule::constant();
        assert_eq!(s.finish_time(3.0, 2.0), 5.0);
        assert_eq!(s.multiplier_at(100.0), 1.0);
    }

    #[test]
    fn schedule_throttle_halves_speed() {
        let s = SpeedSchedule::throttle_at(10.0, 0.5);
        // entirely before throttle
        assert_eq!(s.finish_time(0.0, 5.0), 5.0);
        // entirely after throttle: 4s of work at 0.5 = 8s
        assert_eq!(s.finish_time(20.0, 4.0), 28.0);
        // straddling: 2s at full (8..10), then 3s of work at 0.5 = 6s
        assert_eq!(s.finish_time(8.0, 5.0), 16.0);
    }

    #[test]
    fn schedule_death_is_observable() {
        let s = SpeedSchedule::throttle_at(5.0, 0.0);
        assert!(!s.is_dead_at(4.9));
        assert!(s.is_dead_at(5.0));
        let revived = SpeedSchedule::from_points(vec![(1.0, 0.0), (3.0, 0.5)]);
        assert!(revived.is_dead_at(2.0));
        assert!(!revived.is_dead_at(3.5));
    }

    #[test]
    fn schedule_zero_speed_never_finishes() {
        let s = SpeedSchedule::throttle_at(5.0, 0.0);
        assert_eq!(s.finish_time(0.0, 4.0), 4.0);
        assert!(s.finish_time(0.0, 10.0).is_infinite());
        assert!(s.finish_time(6.0, 0.001).is_infinite());
    }

    #[test]
    fn schedule_recovery_resumes_work() {
        // dead from 1..3, then full speed again
        let s = SpeedSchedule::from_points(vec![(1.0, 0.0), (3.0, 1.0)]);
        // 2s of work starting at 0: 1s done by t=1, stall 1..3, finish at 4
        assert_eq!(s.finish_time(0.0, 2.0), 4.0);
    }

    #[test]
    fn cpu_fifo_and_busy_accounting() {
        let mut cpu = ThrottledCpu::new(SpeedSchedule::constant());
        let (s1, e1) = cpu.run(0.0, 2.0);
        let (s2, e2) = cpu.run(0.5, 1.0);
        assert_eq!((s1, e1), (0.0, 2.0));
        assert_eq!((s2, e2), (2.0, 3.0));
        assert_eq!(cpu.busy_total(), 3.0);
    }

    #[test]
    fn cpu_dead_node_parks() {
        let mut cpu = ThrottledCpu::new(SpeedSchedule::throttle_at(0.0, 0.0));
        let (_, end) = cpu.run(1.0, 1.0);
        assert!(end.is_infinite());
        let (_, end2) = cpu.run(2.0, 1.0);
        assert!(end2.is_infinite());
    }

    #[test]
    #[should_panic]
    fn schedule_rejects_unsorted() {
        SpeedSchedule::from_points(vec![(5.0, 0.5), (1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "FifoResource acquired out of order")]
    fn fifo_resource_rejects_time_travel() {
        let mut r = FifoResource::new();
        r.acquire(5.0, 1.0);
        // An event loop must never acquire at an earlier `now` than a
        // previous acquire — this models a transfer starting in the past.
        r.acquire(4.0, 1.0);
    }

    #[test]
    fn schedule_compose_is_pointwise_product() {
        let a = SpeedSchedule::throttle_at(10.0, 0.5);
        let b = SpeedSchedule::from_points(vec![(5.0, 0.8), (20.0, 0.0)]);
        let c = a.compose(&b);
        for &t in &[0.0, 4.9, 5.0, 9.9, 10.0, 19.9, 20.0, 100.0] {
            assert_eq!(c.multiplier_at(t), a.multiplier_at(t) * b.multiplier_at(t), "at t={t}");
        }
        // composition with the identity is the identity
        let id = SpeedSchedule::constant();
        for &t in &[0.0, 7.0, 15.0, 30.0] {
            assert_eq!(a.compose(&id).multiplier_at(t), a.multiplier_at(t));
        }
    }

    #[test]
    fn schedule_dead_transitions_track_is_dead() {
        let s = SpeedSchedule::from_points(vec![(1.0, 0.5), (2.0, 0.0), (4.0, 0.0), (6.0, 1.0)]);
        assert_eq!(s.dead_transitions(), vec![(2.0, true), (6.0, false)]);
        assert!(SpeedSchedule::constant().dead_transitions().is_empty());
        assert_eq!(SpeedSchedule::throttle_at(0.0, 0.0).dead_transitions(), vec![(0.0, true)]);
    }
}

#[cfg(test)]
mod queue_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pops are globally nondecreasing in time, and FIFO within equal
        /// timestamps (the seq tiebreak): the determinism contract every
        /// driver builds on.
        #[test]
        fn prop_pops_ordered_and_fifo_on_ties(
            times in proptest::collection::vec(0u32..50, 1..200),
        ) {
            let mut q = EventQueue::new();
            prop_assert!(q.is_empty());
            for (i, &t) in times.iter().enumerate() {
                q.push(t as f64, i);
            }
            prop_assert_eq!(q.len(), times.len());
            let mut popped = Vec::with_capacity(times.len());
            while let Some((t, id)) = q.pop() {
                popped.push((t, id));
            }
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.len(), 0);
            prop_assert_eq!(popped.len(), times.len());
            for w in popped.windows(2) {
                let ((t0, id0), (t1, id1)) = (w[0], w[1]);
                prop_assert!(t0 <= t1, "time went backwards: {t0} -> {t1}");
                if t0 == t1 {
                    // equal timestamps pop in insertion order
                    prop_assert!(id0 < id1, "FIFO violated at t={t0}: {id0} before {id1}");
                }
            }
            // every pushed event came back exactly once
            let mut ids: Vec<usize> = popped.iter().map(|&(_, id)| id).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..times.len()).collect::<Vec<_>>());
        }

        /// Interleaved push/pop keeps `len` exact and never reorders what
        /// is already due.
        #[test]
        fn prop_len_tracks_interleaved_ops(
            // 0..20 => push with that time offset; 20..40 => pop
            ops in proptest::collection::vec(0u32..40, 1..100),
        ) {
            let mut q = EventQueue::new();
            let mut expected_len = 0usize;
            let mut last_popped = f64::NEG_INFINITY;
            let mut max_pushed = f64::NEG_INFINITY;
            for (i, &op) in ops.iter().enumerate() {
                let (t, do_pop) = (op % 20, op >= 20);
                if do_pop {
                    match q.pop() {
                        Some((pt, _)) => {
                            expected_len -= 1;
                            prop_assert!(pt <= max_pushed);
                            last_popped = last_popped.max(pt);
                        }
                        None => prop_assert_eq!(expected_len, 0),
                    }
                } else {
                    // pushes at or after the last popped time, as an event
                    // loop would issue them
                    let at = last_popped.max(0.0) + t as f64;
                    q.push(at, i);
                    max_pushed = max_pushed.max(at);
                    expected_len += 1;
                }
                prop_assert_eq!(q.len(), expected_len);
                prop_assert_eq!(q.is_empty(), expected_len == 0);
            }
        }
    }
}
