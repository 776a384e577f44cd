//! The Central node's statistics-collection block (§6.1, Figure 8) as one
//! sans-IO machine over every image in flight.
//!
//! [`TileLifecycle`] decides one image's tiles. [`Pipeline`] is the layer
//! above it: it allocates each admitted image with Algorithm 3, begins the
//! image's lifecycle, routes each per-image [`Event`] to that lifecycle,
//! folds the Algorithm 2 observations the lifecycles emit into `s_k`
//! ([`Action::RecordRate`] never leaves the machine), and stops routing to
//! a node once it is down (§6.3). It owns no clock, channel, thread or event
//! queue. The payload `P` is the driver's per-image state: the runtime's
//! collector keeps the input and the boundary map it assembles there, the
//! simulator its modeled transport. The collector holds one machine and
//! every netsim tenant one, so a decision taken in simulation is the
//! decision taken on the wire.
//!
//! A node is down once the driver says so ([`Pipeline::worker_down`]): its
//! estimate drops to zero, no new image routes to it, no rate is folded in
//! for it, and each in-flight image learns of the death just before its next
//! deadline is judged. A driver that knows of a death before the Central
//! node could detect it — the simulator, whose deaths are scheduled — marks
//! the node unreachable meanwhile ([`Pipeline::set_reachable`]): new images
//! and rate observations avoid it, but its estimate stands until
//! `worker_down`.

use crate::lifecycle::{Action, Event, LifecyclePolicy, TileLifecycle};
use crate::obs::SinkHandle;
use crate::sched::{allocate_round_robin, StatsCollector, TileAllocator};
use rand::Rng;

/// How an admitted image's tiles are split across the nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// Algorithm 3 over the Algorithm 2 estimates: the paper's ADCNN.
    Adaptive,
    /// Round-robin over every node the allocator may place on, down or up:
    /// Figure 15's no-adaptation control.
    RoundRobin,
}

/// One image in flight: the driver's payload beside its lifecycle.
#[derive(Debug)]
pub struct InFlight<P> {
    id: u64,
    /// The driver's per-image state.
    pub payload: P,
    lc: TileLifecycle,
}

impl<P> InFlight<P> {
    /// The image's lifecycle (events reach it through [`Pipeline::handle`]).
    pub fn lifecycle(&self) -> &TileLifecycle {
        &self.lc
    }
}

/// The multi-image machine. See the module docs.
#[derive(Debug)]
pub struct Pipeline<P> {
    policy: LifecyclePolicy,
    tiles: usize,
    split: Split,
    stats: StatsCollector,
    /// Equation 1's storage caps; a zero cap hides a node from allocation
    /// and from every lifecycle this machine begins.
    allocator: TileAllocator,
    live: Vec<bool>,
    reachable: Vec<bool>,
    images: Vec<InFlight<P>>,
    sink: SinkHandle,
}

impl<P> Pipeline<P> {
    /// A machine for the nodes `allocator` covers, all initially `live` or
    /// not, splitting each image into `tiles` tiles and mirroring every
    /// lifecycle decision into `sink`.
    pub fn new(
        policy: LifecyclePolicy,
        tiles: usize,
        gamma: f64,
        split: Split,
        allocator: TileAllocator,
        live: bool,
        sink: SinkHandle,
    ) -> Self {
        let k = allocator.storage_bits.len();
        Pipeline {
            policy,
            tiles,
            split,
            stats: StatsCollector::new(k, gamma),
            allocator,
            live: vec![live; k],
            reachable: vec![true; k],
            images: Vec::new(),
            sink,
        }
    }

    /// Admit `image` at `at`: allocate its tiles (ties broken by `rng`),
    /// begin its lifecycle, and return the initial dispatches.
    pub fn submit(&mut self, image: u64, at: f64, payload: P, rng: &mut impl Rng) -> Vec<Action> {
        let k = self.live.len();
        let placed = |n: usize| self.allocator.storage_bits[n] > 0;
        let alloc = match self.split {
            Split::Adaptive => self.allocator.allocate(self.tiles, self.stats.speeds(), rng),
            Split::RoundRobin => {
                let nodes: Vec<usize> = (0..k).filter(|&n| placed(n)).collect();
                let mut x = vec![0; k];
                for (&n, share) in nodes.iter().zip(allocate_round_robin(self.tiles, nodes.len())) {
                    x[n] = share;
                }
                x
            }
        };
        let live: Vec<bool> =
            (0..k).map(|n| self.live[n] && self.reachable[n] && placed(n)).collect();
        let (lc, acts) = TileLifecycle::begin_observed(
            self.policy,
            at,
            self.tiles,
            &alloc,
            self.stats.speeds(),
            &live,
            image,
            self.sink.clone(),
        );
        self.images.push(InFlight { id: image, payload, lc });
        acts
    }

    /// Feed one of `image`'s lifecycle events; returns its actions (none
    /// when the image is not in flight). Before a deadline or an abort is
    /// judged the lifecycle learns of every node that is down or
    /// unreachable, in node order, and a rejected send first tells it when
    /// the target is one of them.
    pub fn handle(&mut self, image: u64, ev: Event) -> Vec<Action> {
        let Some(f) = self.images.iter_mut().find(|f| f.id == image) else {
            return Vec::new();
        };
        let routes_to = |w: usize| self.live[w] && self.reachable[w];
        match ev {
            Event::DeadlineFired { .. } | Event::Abort if !f.lc.is_complete() => {
                for worker in (0..self.live.len()).filter(|&w| !routes_to(w)) {
                    f.lc.handle(Event::WorkerDied { worker });
                }
            }
            Event::SendRejected { worker, .. } if !routes_to(worker) => {
                f.lc.handle(Event::WorkerDied { worker });
            }
            _ => {}
        }
        let mut acts = f.lc.handle(ev);
        // A rate for a node known to be gone would resurrect the estimate
        // `worker_down` zeroed.
        acts.retain(|a| match *a {
            Action::RecordRate { worker, rate } => {
                if routes_to(worker) {
                    self.stats.record_node(worker, rate);
                }
                false
            }
            _ => true,
        });
        acts
    }

    /// Worker `w` is down: speed 0 from the next allocation on. `true` if
    /// that is news (the first report of this spell).
    pub fn worker_down(&mut self, w: usize) -> bool {
        if !std::mem::replace(&mut self.live[w], false) {
            return false;
        }
        self.stats.mark_failed(w);
        true
    }

    /// Worker `w` (re)joined as a fresh worker: a node that was down
    /// restarts at the fresh-join prior, never at the dead incarnation's
    /// estimate. `true` if it was down.
    pub fn worker_up(&mut self, w: usize) -> bool {
        if std::mem::replace(&mut self.live[w], true) {
            return false;
        }
        self.stats.rejoin(w);
        true
    }

    /// Whether the driver can reach node `w` (see the module docs).
    pub fn set_reachable(&mut self, w: usize, reachable: bool) {
        self.reachable[w] = reachable;
    }

    /// Replace the allocator from the next admission on.
    pub fn set_allocator(&mut self, allocator: TileAllocator) {
        assert_eq!(allocator.storage_bits.len(), self.live.len(), "allocator node count");
        self.allocator = allocator;
    }

    /// Take `image` out of the machine: its payload and final lifecycle.
    /// Until then a completed image still counts late results.
    pub fn retire(&mut self, image: u64) -> Option<(P, TileLifecycle)> {
        let i = self.images.iter().position(|f| f.id == image)?;
        let f = self.images.swap_remove(i);
        Some((f.payload, f.lc))
    }

    /// The image `image`, if it is in flight.
    pub fn get(&self, image: u64) -> Option<&InFlight<P>> {
        self.images.iter().find(|f| f.id == image)
    }

    /// [`get`](Self::get), with the payload writable.
    pub fn get_mut(&mut self, image: u64) -> Option<&mut InFlight<P>> {
        self.images.iter_mut().find(|f| f.id == image)
    }

    /// The earliest timer of any incomplete image, as `(image, at)`.
    pub fn next_deadline(&self) -> Option<(u64, f64)> {
        self.images
            .iter()
            .filter(|f| !f.lc.is_complete())
            .map(|f| (f.id, f.lc.next_deadline()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Images in flight.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// No image in flight.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The Algorithm 2 estimates `s_k`.
    pub fn speeds(&self) -> &[f64] {
        self.stats.speeds()
    }

    /// Which nodes are not down.
    pub fn live(&self) -> &[bool] {
        &self.live
    }
}
