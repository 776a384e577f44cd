//! The Central node's scheduling machinery: Algorithm 2 (statistics
//! collection) and Algorithm 3 (input tile allocation).
//!
//! Both are deliberately tiny, deterministic data structures so the same
//! code runs inside the real multi-threaded runtime (`adcnn-runtime`) and
//! inside the discrete-event simulator (`adcnn-netsim`).

use rand::Rng;
use serde::Serialize;

/// Algorithm 2: per-node EWMA of how many intermediate results arrive
/// within the time limit `T_L` for each input image.
///
/// `s_k ← (1 − γ)·s_k + γ·n_k^i`
///
/// The paper uses `γ = 0.9` and `T_L = 30 ms` in the testbed (§7.2);
/// enforcing the time limit is the caller's job (the runtime counts only
/// results that arrived before its timer fired), this struct just maintains
/// the running statistics.
#[derive(Clone, Debug, Serialize)]
pub struct StatsCollector {
    /// Decay parameter γ ∈ (0, 1].
    pub gamma: f64,
    s: Vec<f64>,
    /// Nodes whose estimate was zeroed by [`StatsCollector::mark_failed`]
    /// and have not produced a fresh positive observation since. While
    /// flagged, zero observations keep the estimate pinned at zero, and
    /// the first positive observation *restarts* the estimate from that
    /// measured sample instead of blending it with the stale pre-failure
    /// history.
    failed: Vec<bool>,
}

impl StatsCollector {
    /// Create for `k` Conv nodes with decay `gamma`. Nodes start with a
    /// small uniform prior so the very first allocation is balanced.
    pub fn new(k: usize, gamma: f64) -> Self {
        assert!(k > 0, "need at least one Conv node");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        StatsCollector { gamma, s: vec![1.0; k], failed: vec![false; k] }
    }

    /// Record one finished input image: `counts[k]` is the number of
    /// intermediate results received from node `k` within `T_L`.
    pub fn record_image(&mut self, counts: &[u32]) {
        assert_eq!(counts.len(), self.s.len(), "count vector length mismatch");
        for (k, &n) in counts.iter().enumerate() {
            self.record_node(k, n as f64);
        }
    }

    /// Record one node's in-time result count for an image without touching
    /// the others (used when a node was assigned no tiles this image, so
    /// there is no observation to fold in for the rest).
    pub fn record_node(&mut self, k: usize, n: f64) {
        assert!(n >= 0.0, "negative count");
        if self.failed[k] {
            // A node that was positively observed dead: nothing short of a
            // fresh positive observation may move its estimate, and that
            // observation *restarts* the EWMA rather than blending — the
            // pre-failure history describes a machine that no longer
            // exists (it crashed, restarted, or was rescheduled).
            if n > 0.0 {
                self.s[k] = n;
                self.failed[k] = false;
            }
            return;
        }
        self.s[k] = (1.0 - self.gamma) * self.s[k] + self.gamma * n;
    }

    /// Eagerly fail node `k` (§6.3, strengthened): its estimate drops to
    /// zero *immediately* instead of decaying over several images, so the
    /// very next Algorithm 3 allocation assigns it nothing. Used when the
    /// runtime positively observes death (task channel disconnected) rather
    /// than inferring slowness from missed deadlines. Until the node
    /// produces a fresh positive observation, late stragglers recorded for
    /// it cannot resurrect the estimate.
    pub fn mark_failed(&mut self, k: usize) {
        self.s[k] = 0.0;
        self.failed[k] = true;
    }

    /// A previously-failed node positively rejoined (transport reconnect):
    /// restart its estimate from the fresh-join prior — the same `1.0`
    /// every node starts with — so the next allocation assigns it work
    /// again. This is *not* the stale-result path [`Self::mark_failed`]
    /// guards against: a reconnect is a positive liveness observation of a
    /// (possibly restarted) machine, so the pre-failure EWMA stays
    /// discarded and the estimate re-converges from measurements, exactly
    /// like a worker that just joined. No-op for nodes not flagged failed.
    pub fn rejoin(&mut self, k: usize) {
        if self.failed[k] {
            self.s[k] = 1.0;
            self.failed[k] = false;
        }
    }

    /// Current speed estimate `s_k` for node `k`.
    pub fn speed(&self, k: usize) -> f64 {
        self.s[k]
    }

    /// All current estimates.
    pub fn speeds(&self) -> &[f64] {
        &self.s
    }
}

/// Algorithm 3: greedy minimum-makespan allocation of `D` tiles over `K`
/// nodes with per-node storage caps.
///
/// Solves (greedily) the paper's Equation 1:
/// `min_x max_k x_k / s_k` s.t. `Σ x_k = D`, `M·x_k ≤ H_k`.
#[derive(Clone, Debug)]
pub struct TileAllocator {
    /// Size of one tile in bits (`M` in Equation 1).
    pub tile_bits: u64,
    /// Per-node storage capacity in bits (`H_k`).
    pub storage_bits: Vec<u64>,
}

impl TileAllocator {
    /// Allocator with effectively unlimited storage (the common testbed
    /// configuration).
    pub fn unbounded(k: usize) -> Self {
        TileAllocator { tile_bits: 1, storage_bits: vec![u64::MAX; k] }
    }

    /// Allocator with explicit per-node storage caps.
    pub fn with_storage(tile_bits: u64, storage_bits: Vec<u64>) -> Self {
        assert!(tile_bits > 0);
        TileAllocator { tile_bits, storage_bits }
    }

    /// Maximum tiles node `k` can hold.
    fn cap(&self, k: usize) -> u64 {
        self.storage_bits[k] / self.tile_bits
    }

    /// Allocate `d` tiles given speed statistics `speeds` (from
    /// [`StatsCollector`]). Ties are broken uniformly at random via `rng`,
    /// as in the paper's Algorithm 3.
    ///
    /// Returns `x` with `x.len() == speeds.len()` and `Σ x = d` (or fewer if
    /// storage is exhausted — callers treat the remainder as unschedulable).
    /// A node with `s_k == 0` (failed, per §6.3) receives no tiles as long
    /// as any live node has capacity.
    pub fn allocate(&self, d: usize, speeds: &[f64], rng: &mut impl Rng) -> Vec<u32> {
        assert_eq!(speeds.len(), self.storage_bits.len(), "speeds/storage length mismatch");
        let k = speeds.len();
        let mut x = vec![0u32; k];
        for _ in 0..d {
            // Find the node minimizing the resulting makespan increase,
            // i.e. the smallest (x_k + 1) / s_k among nodes with capacity.
            let mut best: Option<(f64, Vec<usize>)> = None;
            for node in 0..k {
                if (x[node] as u64) >= self.cap(node) {
                    continue;
                }
                if speeds[node] <= 0.0 {
                    continue;
                }
                let load = (x[node] + 1) as f64 / speeds[node];
                match &mut best {
                    None => best = Some((load, vec![node])),
                    Some((b, ties)) => {
                        if load < *b - 1e-12 {
                            best = Some((load, vec![node]));
                        } else if (load - *b).abs() <= 1e-12 {
                            ties.push(node);
                        }
                    }
                }
            }
            match best {
                Some((_, ties)) => {
                    let pick = ties[rng.gen_range(0..ties.len())];
                    x[pick] += 1;
                }
                // All live nodes are out of storage: fall back to nodes
                // with capacity (even failed ones) so tiles are not lost;
                // spread the overflow across them — the least-loaded node
                // first, largest remaining capacity on ties — instead of
                // piling everything onto the lowest index. If truly
                // nothing has room, stop.
                None => {
                    let fallback =
                        (0..k).filter(|&n| (x[n] as u64) < self.cap(n)).min_by(|&a, &b| {
                            x[a].cmp(&x[b])
                                .then((self.cap(b) - x[b] as u64).cmp(&(self.cap(a) - x[a] as u64)))
                                .then(a.cmp(&b))
                        });
                    match fallback {
                        Some(node) => x[node] += 1,
                        None => break,
                    }
                }
            }
        }
        x
    }

    /// The makespan `max_k x_k / s_k` of an allocation (∞ if any tile sits
    /// on a zero-speed node).
    pub fn makespan(x: &[u32], speeds: &[f64]) -> f64 {
        x.iter()
            .zip(speeds)
            .map(|(&xi, &s)| {
                if xi == 0 {
                    0.0
                } else if s <= 0.0 {
                    f64::INFINITY
                } else {
                    xi as f64 / s
                }
            })
            .fold(0.0, f64::max)
    }
}

/// Round-robin allocation (ablation baseline: ignores node speeds).
pub fn allocate_round_robin(d: usize, k: usize) -> Vec<u32> {
    let mut x = vec![0u32; k];
    for t in 0..d {
        x[t % k] += 1;
    }
    x
}

/// Speed-proportional randomized allocation (ablation baseline).
pub fn allocate_proportional(d: usize, speeds: &[f64], rng: &mut impl Rng) -> Vec<u32> {
    let total: f64 = speeds.iter().filter(|s| **s > 0.0).sum();
    let mut x = vec![0u32; speeds.len()];
    if total <= 0.0 {
        return x;
    }
    for _ in 0..d {
        let mut r = rng.gen_range(0.0..total);
        for (k, &s) in speeds.iter().enumerate() {
            if s <= 0.0 {
                continue;
            }
            if r < s {
                x[k] += 1;
                break;
            }
            r -= s;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn stats_converge_to_steady_counts() {
        // Feeding a constant count vector must converge s_k to those counts
        // (the fixed point of the EWMA).
        let mut sc = StatsCollector::new(3, 0.9);
        for _ in 0..50 {
            sc.record_image(&[8, 4, 2]);
        }
        assert!((sc.speed(0) - 8.0).abs() < 1e-6);
        assert!((sc.speed(1) - 4.0).abs() < 1e-6);
        assert!((sc.speed(2) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn stats_track_degradation_quickly_at_high_gamma() {
        // §7.3: after nodes are throttled the system re-balances within a
        // few images because γ = 0.9 weights recent observations heavily.
        let mut sc = StatsCollector::new(1, 0.9);
        for _ in 0..20 {
            sc.record_image(&[8]);
        }
        sc.record_image(&[3]);
        sc.record_image(&[3]);
        assert!(sc.speed(0) < 3.5, "stale estimate {}", sc.speed(0));
    }

    #[test]
    fn failed_node_estimate_decays_to_zero() {
        // §6.3: "If node k fails, s_k will become zero and no tiles will be
        // assigned to it."
        let mut sc = StatsCollector::new(2, 0.9);
        for _ in 0..10 {
            sc.record_image(&[8, 8]);
        }
        for _ in 0..15 {
            sc.record_image(&[8, 0]);
        }
        assert!(sc.speed(1) < 1e-10);
        let alloc = TileAllocator::unbounded(2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = alloc.allocate(64, sc.speeds(), &mut rng);
        assert_eq!(x[1], 0);
        assert_eq!(x[0], 64);
    }

    #[test]
    fn mark_failed_starves_node_immediately() {
        // Eager death detection: one observation of a disconnect must zero
        // the estimate at once, unlike the multi-image EWMA decay.
        let mut sc = StatsCollector::new(3, 0.9);
        for _ in 0..10 {
            sc.record_image(&[8, 8, 8]);
        }
        sc.mark_failed(1);
        assert_eq!(sc.speed(1), 0.0);
        let alloc = TileAllocator::unbounded(3);
        let mut rng = StdRng::seed_from_u64(11);
        let x = alloc.allocate(16, sc.speeds(), &mut rng);
        assert_eq!(x[1], 0, "{x:?}");
        assert_eq!(x.iter().sum::<u32>(), 16);
        // a recovered node re-enters through fresh observations
        sc.record_node(1, 8.0);
        assert!(sc.speed(1) > 0.0);
    }

    #[test]
    fn late_stragglers_cannot_resurrect_a_failed_node() {
        // Regression: a result that was in flight when the node died used
        // to blend the stale pre-failure rate back into the estimate, so
        // Algorithm 3 kept assigning tiles to a corpse.
        let mut sc = StatsCollector::new(2, 0.9);
        for _ in 0..10 {
            sc.record_image(&[8, 8]);
        }
        sc.mark_failed(1);
        assert_eq!(sc.speed(1), 0.0);
        // late straggler counted as zero timely results: stays pinned
        sc.record_node(1, 0.0);
        sc.record_image(&[8, 0]);
        assert_eq!(sc.speed(1), 0.0, "zero observations must not unpin a failed node");
        // the healthy node keeps learning normally meanwhile
        assert!((sc.speed(0) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn recovery_restarts_from_the_measured_sample() {
        // A cleared node restarts from what was actually measured, not a
        // blend with the pre-failure history (the machine that produced
        // that history is gone).
        let mut sc = StatsCollector::new(2, 0.9);
        for _ in 0..10 {
            sc.record_image(&[8, 8]);
        }
        sc.mark_failed(1);
        sc.record_node(1, 3.0);
        assert_eq!(sc.speed(1), 3.0, "recovery must restart from the sample");
        // subsequent observations blend normally again
        sc.record_node(1, 5.0);
        assert!((sc.speed(1) - (0.1 * 3.0 + 0.9 * 5.0)).abs() < 1e-9);
    }

    #[test]
    fn rejoin_restarts_from_the_fresh_join_prior() {
        // A transport reconnect is a positive liveness observation: the
        // node re-enters allocation at the uniform prior, without its
        // pre-failure history and without waiting to be handed work it
        // would never receive at speed 0.
        let mut sc = StatsCollector::new(2, 0.9);
        for _ in 0..10 {
            sc.record_image(&[8, 8]);
        }
        sc.mark_failed(1);
        assert_eq!(sc.speed(1), 0.0);
        sc.rejoin(1);
        assert_eq!(sc.speed(1), 1.0, "rejoin restarts at the fresh-join prior");
        // measurements blend normally from there (flag cleared)
        sc.record_node(1, 5.0);
        assert!((sc.speed(1) - (0.1 * 1.0 + 0.9 * 5.0)).abs() < 1e-9);
        // rejoin on a healthy node is a no-op
        let before = sc.speed(0);
        sc.rejoin(0);
        assert_eq!(sc.speed(0), before);
    }

    #[test]
    fn equal_speeds_balanced_allocation() {
        // §7.2: identical Conv nodes each get the same number of tiles.
        let alloc = TileAllocator::unbounded(8);
        let mut rng = StdRng::seed_from_u64(2);
        let x = alloc.allocate(64, &[1.0; 8], &mut rng);
        assert!(x.iter().all(|&xi| xi == 8), "{x:?}");
    }

    #[test]
    fn allocation_proportional_to_speed() {
        // Figure 15(c): after nodes 5–8 slow down, nodes 1–4 get 12 tiles
        // each and the slow nodes get the remainder. Recreate that ratio:
        // 4 nodes at full speed, 2 at 45%, 2 at 24%.
        let speeds = [8.0, 8.0, 8.0, 8.0, 3.6, 3.6, 1.9, 1.9];
        let alloc = TileAllocator::unbounded(8);
        let mut rng = StdRng::seed_from_u64(3);
        let x = alloc.allocate(64, &speeds, &mut rng);
        assert_eq!(x.iter().sum::<u32>(), 64);
        // fast nodes get most of the work
        for i in 0..4 {
            assert!((11..=13).contains(&x[i]), "fast node {i}: {x:?}");
        }
        for i in 4..6 {
            assert!((4..=7).contains(&x[i]), "mid node {i}: {x:?}");
        }
        for i in 6..8 {
            assert!((2..=4).contains(&x[i]), "slow node {i}: {x:?}");
        }
    }

    #[test]
    fn greedy_is_optimal_for_two_nodes() {
        // For K=2 the greedy min-makespan is provably optimal; check
        // against brute force on small instances.
        let alloc = TileAllocator::unbounded(2);
        let mut rng = StdRng::seed_from_u64(4);
        for &(d, s0, s1) in &[(10usize, 1.0, 1.0), (17, 3.0, 1.0), (9, 2.5, 1.5)] {
            let x = alloc.allocate(d, &[s0, s1], &mut rng);
            let got = TileAllocator::makespan(&x, &[s0, s1]);
            let best = (0..=d)
                .map(|a| TileAllocator::makespan(&[a as u32, (d - a) as u32], &[s0, s1]))
                .fold(f64::INFINITY, f64::min);
            assert!((got - best).abs() < 1e-9, "d={d}: {got} vs optimal {best}");
        }
    }

    #[test]
    fn storage_cap_respected() {
        // Equation 1's constraint M·x_k ≤ H_k.
        let alloc = TileAllocator::with_storage(100, vec![250, 10_000]);
        let mut rng = StdRng::seed_from_u64(5);
        let x = alloc.allocate(20, &[1.0, 1.0], &mut rng);
        assert!(x[0] <= 2, "{x:?}");
        assert_eq!(x.iter().sum::<u32>(), 20);
    }

    #[test]
    fn storage_exhaustion_allocates_what_fits() {
        let alloc = TileAllocator::with_storage(100, vec![300, 300]);
        let mut rng = StdRng::seed_from_u64(6);
        let x = alloc.allocate(64, &[1.0, 1.0], &mut rng);
        assert_eq!(x.iter().sum::<u32>(), 6);
    }

    #[test]
    fn storage_fallback_spreads_across_nodes_with_capacity() {
        // Regression: when every *live* node is out of storage, the
        // overflow used to pile onto the lowest-index node with capacity
        // until it filled. It must spread across all nodes with room.
        let alloc = TileAllocator::with_storage(100, vec![600, 600, 600]);
        let mut rng = StdRng::seed_from_u64(9);
        // No live node at all: the entire demand goes through the fallback.
        let x = alloc.allocate(9, &[0.0, 0.0, 0.0], &mut rng);
        assert_eq!(x, vec![3, 3, 3], "fallback did not spread: {x:?}");
        // One live node with 2 slots, two failed nodes with plenty: the
        // live node fills first, the overflow splits across the rest.
        let alloc = TileAllocator::with_storage(100, vec![200, 600, 600]);
        let x = alloc.allocate(10, &[1.0, 0.0, 0.0], &mut rng);
        assert_eq!(x[0], 2, "live node must fill to its cap first: {x:?}");
        assert_eq!(x[1] + x[2], 8);
        assert!(x[1].abs_diff(x[2]) <= 1, "overflow not spread: {x:?}");
    }

    #[test]
    fn round_robin_ignores_speed() {
        let x = allocate_round_robin(10, 4);
        assert_eq!(x, vec![3, 3, 2, 2]);
    }

    #[test]
    fn proportional_tracks_speeds_statistically() {
        let mut rng = StdRng::seed_from_u64(7);
        let speeds = [3.0, 1.0];
        let mut totals = [0u32; 2];
        for _ in 0..200 {
            let x = allocate_proportional(4, &speeds, &mut rng);
            totals[0] += x[0];
            totals[1] += x[1];
        }
        let frac = totals[0] as f64 / (totals[0] + totals[1]) as f64;
        assert!((0.68..0.82).contains(&frac), "frac {frac}");
    }

    #[test]
    fn greedy_beats_round_robin_on_heterogeneous_nodes() {
        // The design-choice ablation in miniature.
        let speeds = [4.0, 1.0, 1.0, 1.0];
        let alloc = TileAllocator::unbounded(4);
        let mut rng = StdRng::seed_from_u64(8);
        let greedy = alloc.allocate(28, &speeds, &mut rng);
        let rr = allocate_round_robin(28, 4);
        let mg = TileAllocator::makespan(&greedy, &speeds);
        let mr = TileAllocator::makespan(&rr, &speeds);
        assert!(mg < mr, "greedy {mg} !< rr {mr}");
    }

    proptest! {
        #[test]
        fn prop_allocation_sums_to_d(d in 0usize..200, k in 1usize..10, seed in 0u64..1000) {
            let alloc = TileAllocator::unbounded(k);
            let mut rng = StdRng::seed_from_u64(seed);
            let speeds: Vec<f64> = (0..k).map(|i| 1.0 + (i as f64) * 0.37).collect();
            let x = alloc.allocate(d, &speeds, &mut rng);
            prop_assert_eq!(x.iter().sum::<u32>() as usize, d);
        }

        #[test]
        fn prop_greedy_within_one_tile_of_fluid_optimum(d in 1usize..300, seed in 0u64..100) {
            // The greedy solution's makespan never exceeds the fluid lower
            // bound D/Σs plus one tile on the slowest-filled node.
            let speeds = vec![2.0, 1.0, 4.0, 3.0];
            let alloc = TileAllocator::unbounded(4);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = alloc.allocate(d, &speeds, &mut rng);
            let got = TileAllocator::makespan(&x, &speeds);
            let fluid = d as f64 / speeds.iter().sum::<f64>();
            let slack = 1.0 / speeds.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assert!(got <= fluid + slack + 1e-9, "{} > {} + {}", got, fluid, slack);
        }

        #[test]
        fn prop_zero_speed_gets_nothing(d in 1usize..100, seed in 0u64..100) {
            let speeds = vec![1.0, 0.0, 2.0];
            let alloc = TileAllocator::unbounded(3);
            let mut rng = StdRng::seed_from_u64(seed);
            let x = alloc.allocate(d, &speeds, &mut rng);
            prop_assert_eq!(x[1], 0);
        }
    }
}
