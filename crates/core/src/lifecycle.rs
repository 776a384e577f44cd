//! Clock-agnostic, sans-IO tile-lifecycle state machine shared by the real
//! runtime (`adcnn-runtime`) and the discrete-event simulator
//! (`adcnn-netsim`).
//!
//! Both systems implement the same §6 Central-node policy: tiles are
//! dispatched to Conv nodes, an *expected-makespan deadline* (first-result
//! time × largest allocation × slack, plus `T_L` grace) arms when the first
//! result lands, missing tiles are speculatively re-dispatched to the
//! fastest live nodes for a bounded number of rounds, and whatever still
//! has not arrived is zero-filled. Algorithm 2 rates count only results
//! inside the measurement cutoff (the deadline as first armed), so
//! late-recovery deliveries never poison the rescuer's estimate.
//!
//! Before this module existed, that policy lived twice — once against
//! wall-clock `Instant`s in `runtime/central.rs` and once against simulated
//! seconds in `netsim/cluster.rs` — and the two copies had already started
//! to drift. [`TileLifecycle`] owns the decisions; the drivers own the IO:
//!
//! - **time** is an abstract `f64` in seconds from an arbitrary epoch. The
//!   runtime maps `Instant`s onto it; the simulator feeds its event
//!   timestamps directly. The machine never reads a clock.
//! - **input**: [`Event`]s describe what happened and when
//!   ([`Event::ResultArrived`], [`Event::DeadlineFired`],
//!   [`Event::WorkerDied`], [`Event::SendRejected`], …).
//! - **output**: [`Action`]s describe what the driver must do
//!   ([`Action::Dispatch`]/[`Action::Redispatch`] a tile,
//!   [`Action::ArmDeadline`] a timer, [`Action::ZeroFill`],
//!   [`Action::RecordRate`] into the Algorithm 2 statistics). The machine
//!   never touches a channel, a thread, or an event queue.
//!
//! One [`TileLifecycle`] instance covers one image from dispatch to
//! completion; both drivers reach it through the multi-image machine,
//! [`crate::pipeline::Pipeline`], which begins one per admitted image and
//! feeds it that image's events. Shared knobs live in [`LifecyclePolicy`] — including the
//! deadline slack factor that both old copies hard-coded as `1.25`.
//! [`replay`] drives the machine from a recorded trace under a
//! caller-supplied clock: the cross-driver differential test's one loop.

use crate::obs::{ObsEvent, RecordingSink, SinkHandle};
use crate::report::AttributionSink;
use serde::Serialize;
use std::sync::Arc;

/// Comparison epsilon for abstract timestamps (well below both the
/// nanosecond granularity of `Instant` and any simulated event spacing).
const EPS: f64 = 1e-9;

/// When does the Central node stop waiting for intermediate results?
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum TimerPolicy {
    /// Paper text, literally: `T_L` after the image's tiles finished
    /// sending. Taken at face value this expires long before honest
    /// Conv-node computation can return and zero-fills nearly everything;
    /// kept for controlled comparisons.
    AfterSend,
    /// Default: the expected-makespan deadline extrapolated from the first
    /// result, with re-dispatch recovery rounds before zero-fill.
    Deadline,
    /// Never arm a deadline; wait for every result (the hard timeout still
    /// applies if the driver enforces one — the real runtime does, the
    /// simulator does not).
    WaitAll,
}

/// The shared tile-lifecycle knobs — one home for the constants that were
/// previously duplicated (and already drifting) between `RuntimeConfig`
/// and `AdcnnSimConfig`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct LifecyclePolicy {
    /// Timeout grace `T_L` in seconds (the paper uses 30 ms): added on top
    /// of the extrapolated makespan before the deadline fires, and the
    /// unit results-per-`T_L` rates are expressed in.
    pub t_l: f64,
    /// Multiplier on the extrapolated makespan (the historical `1.25` —
    /// +25% slack — that used to be a magic literal in two files).
    pub slack: f64,
    /// Speculative re-dispatch rounds per image after the deadline fires,
    /// before the remaining tiles are zero-filled. `0` restores the
    /// paper's pure zero-fill policy (§6.3).
    pub max_redispatch_rounds: u32,
    /// Hard cap in seconds on the total wait for one image, measured from
    /// dispatch start. Fires regardless of [`TimerPolicy`] whenever the
    /// driver delivers a matching [`Event::DeadlineFired`].
    pub hard_timeout: f64,
    /// Timeout interpretation.
    pub timer: TimerPolicy,
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        LifecyclePolicy {
            t_l: 0.030,
            slack: 1.25,
            max_redispatch_rounds: 2,
            hard_timeout: 5.0,
            timer: TimerPolicy::Deadline,
        }
    }
}

/// Lifecycle state of one tile (Central-node view).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TileSlot {
    /// Last worker the tile was handed to (initial dispatch or
    /// re-dispatch).
    At(usize),
    /// No live worker accepted the send; retried at the next deadline.
    Unplaced,
    /// Unschedulable (storage caps / no live workers): zero-filled at
    /// completion, never retried.
    Abandoned,
}

/// What happened, expressed in abstract seconds. The driver translates its
/// native notion of time and transport into these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// An original (round-0) tile physically reached its worker. The
    /// runtime sends this immediately after a successful queue handoff;
    /// the simulator sends it when the modeled transfer completes. Used to
    /// avoid judging a deadline while inputs are still in flight.
    TileDelivered { tile: usize },
    /// Every placed tile has been handed to the transport.
    SendComplete { at: f64 },
    /// A result for `tile` arrived from `worker`. `ok` is false when the
    /// payload failed to decode (the tile stays open for recovery).
    ResultArrived { at: f64, tile: usize, worker: usize, ok: bool },
    /// A timer the driver armed (via [`Action::ArmDeadline`] or the hard
    /// timeout) fired. Stale timers are detected and ignored internally,
    /// so drivers never need to cancel.
    DeadlineFired { at: f64 },
    /// The driver positively observed worker death (disconnected channel,
    /// modeled crash). Removes the worker from re-dispatch candidacy.
    WorkerDied { worker: usize },
    /// The transport refused a previously emitted dispatch/re-dispatch of
    /// `tile` to `worker` (bounded queue full, channel closed). The
    /// machine reroutes or marks the tile unplaced.
    SendRejected { tile: usize, worker: usize },
    /// Nothing can ever arrive again (every worker gone): zero-fill the
    /// remainder and complete.
    Abort,
}

impl Event {
    /// The same event with its timestamp, if it carries one, passed through
    /// `clock` — a driver's mapping from trace seconds onto the machine's
    /// time axis. The match is exhaustive on purpose: a new timed variant
    /// cannot be added without deciding here whether a clock touches it.
    pub fn map_time(self, clock: impl Fn(f64) -> f64) -> Event {
        match self {
            Event::SendComplete { at } => Event::SendComplete { at: clock(at) },
            Event::ResultArrived { at, tile, worker, ok } => {
                Event::ResultArrived { at: clock(at), tile, worker, ok }
            }
            Event::DeadlineFired { at } => Event::DeadlineFired { at: clock(at) },
            Event::TileDelivered { .. }
            | Event::WorkerDied { .. }
            | Event::SendRejected { .. }
            | Event::Abort => self,
        }
    }
}

/// What the driver must do. Decisions only — no IO happens here.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Hand `tile` to `to` (initial, round-0 placement).
    Dispatch { tile: usize, to: usize },
    /// Re-send `tile` to `to` (deadline-fired recovery).
    Redispatch { tile: usize, to: usize },
    /// The result for `tile` is fresh (not a duplicate, decodable):
    /// paste it into the boundary map and credit `from`.
    Accept { tile: usize, from: usize },
    /// Arm (or re-arm) the deadline timer `span` seconds after the event
    /// that produced this action.
    ArmDeadline { span: f64 },
    /// These tiles missed every recovery attempt: treat them as zeros.
    ZeroFill { tiles: Vec<usize> },
    /// Fold one node's Algorithm 2 observation into the statistics
    /// (results within the measurement window per second, scaled by
    /// `T_L`). Emitted once per allocated node at completion.
    RecordRate { worker: usize, rate: f64 },
    /// The image is done: every tile either arrived or was zero-filled.
    Complete,
}

/// Per-image bookkeeping the drivers read back after completion.
#[derive(Clone, Debug, Default)]
pub struct LifecycleCounters {
    /// Results accepted per worker (re-dispatched tiles credit the worker
    /// that actually delivered them).
    pub received: Vec<u32>,
    /// Results per worker inside the Algorithm 2 measurement window.
    pub timely: Vec<u32>,
    /// Tiles that ended zero-filled (including never-placed ones).
    pub zero_filled: u32,
    /// Tiles that were never schedulable (subset of `zero_filled`).
    pub abandoned: u32,
    /// Re-dispatch sends issued (and not bounced by the transport).
    pub redispatched: u32,
    /// Re-dispatch recovery rounds consumed.
    pub rounds: u32,
    /// Results discarded because another copy arrived first.
    pub duplicate: u32,
    /// Results that arrived after completion.
    pub late: u32,
    /// Results that failed to decode.
    pub corrupt: u32,
}

/// The per-image tile-lifecycle state machine. See the module docs.
#[derive(Clone, Debug)]
pub struct TileLifecycle {
    policy: LifecyclePolicy,
    d: usize,
    k: usize,
    start: f64,
    alloc: Vec<u32>,
    max_alloc: u32,
    /// Speed snapshot for re-dispatch target ordering (zeroed by
    /// [`Event::WorkerDied`]); rates still come out via
    /// [`Action::RecordRate`], this is never written back.
    speeds: Vec<f64>,
    live: Vec<bool>,
    slots: Vec<TileSlot>,
    got: Vec<bool>,
    got_total: usize,
    /// Workers already tried for a tile in the current placement attempt
    /// (reset when the tile is re-dispatched in a later round).
    attempted: Vec<Vec<bool>>,
    /// Workers that held a missing tile at a deadline without having
    /// delivered *anything* since the previous round. A silent fault (a
    /// crashed node whose queue still accepts sends) looks exactly like
    /// this, so re-dispatch avoids suspects while any non-suspect worker
    /// is live — re-sending to a swallower burns a round for nothing. A
    /// merely slow node keeps producing results, so it never trips this
    /// and stays a (deprioritized-by-speed) candidate.
    suspect: Vec<bool>,
    /// Results seen per worker since the last deadline evaluation (the
    /// liveness evidence that clears/avoids `suspect`). Duplicate, late
    /// and corrupt results all count: they prove the worker is alive.
    progress: Vec<bool>,
    /// Original sends currently accepted by the transport / delivered.
    sent: u32,
    delivered: u32,
    send_complete: bool,
    deadline: Option<f64>,
    cutoff: Option<f64>,
    per_unit: Option<f64>,
    last_span: f64,
    last_result_at: Vec<Option<f64>>,
    counters: LifecycleCounters,
    complete: bool,
    /// Image id stamped on every emitted [`ObsEvent`].
    image: u64,
    /// Observability sink; the default (from [`TileLifecycle::begin`]) is
    /// the null handle, under which events are never even constructed.
    sink: SinkHandle,
    /// High-water mark of observed time, used to timestamp events that
    /// arrive without their own clock reading ([`Event::WorkerDied`],
    /// [`Event::SendRejected`], [`Event::Abort`]).
    now: f64,
}

impl TileLifecycle {
    /// Start one image: `d` tiles allocated as `alloc` (Algorithm 3
    /// output; `Σ alloc` may be less than `d` under storage caps — the
    /// shortfall is abandoned and zero-fills at completion). Placement is
    /// round-robin across nodes honoring the counts. Returns the machine
    /// plus the initial [`Action::Dispatch`] batch.
    pub fn begin(
        policy: LifecyclePolicy,
        at: f64,
        d: usize,
        alloc: &[u32],
        speeds: &[f64],
        live: &[bool],
    ) -> (Self, Vec<Action>) {
        Self::begin_observed(policy, at, d, alloc, speeds, live, 0, SinkHandle::null())
    }

    /// [`TileLifecycle::begin`] with observability: every decision this
    /// machine takes for image `image` is mirrored into `sink` as a
    /// structured [`ObsEvent`] (constructed only when the sink is
    /// enabled).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_observed(
        policy: LifecyclePolicy,
        at: f64,
        d: usize,
        alloc: &[u32],
        speeds: &[f64],
        live: &[bool],
        image: u64,
        sink: SinkHandle,
    ) -> (Self, Vec<Action>) {
        let k = alloc.len();
        assert_eq!(speeds.len(), k, "speeds/alloc length mismatch");
        assert_eq!(live.len(), k, "live/alloc length mismatch");
        let placed: usize = alloc.iter().map(|&a| a as usize).sum::<usize>().min(d);
        let mut slots = vec![TileSlot::Abandoned; d];
        {
            let mut remaining = alloc.to_vec();
            let mut t = 0usize;
            while t < placed {
                for (node, rem) in remaining.iter_mut().enumerate() {
                    if *rem > 0 && t < placed {
                        *rem -= 1;
                        slots[t] = TileSlot::At(node);
                        t += 1;
                    }
                }
            }
        }
        let mut lc = TileLifecycle {
            policy,
            d,
            k,
            start: at,
            max_alloc: alloc.iter().copied().max().unwrap_or(1).max(1),
            alloc: alloc.to_vec(),
            speeds: speeds.to_vec(),
            live: live.to_vec(),
            got: vec![false; d],
            got_total: 0,
            attempted: vec![vec![false; k]; d],
            suspect: vec![false; k],
            progress: vec![false; k],
            sent: 0,
            delivered: 0,
            send_complete: false,
            deadline: None,
            cutoff: None,
            per_unit: None,
            last_span: policy.t_l,
            last_result_at: vec![None; k],
            counters: LifecycleCounters {
                received: vec![0; k],
                timely: vec![0; k],
                abandoned: (d - placed) as u32,
                ..Default::default()
            },
            complete: false,
            slots,
            image,
            sink,
            now: at,
        };
        lc.sink.emit_with(|| ObsEvent::ImageStart {
            at,
            image,
            tiles: d as u32,
            placed: placed as u32,
        });
        let mut actions = Vec::with_capacity(placed);
        for t in 0..d {
            if let TileSlot::At(node) = lc.slots[t] {
                lc.sent += 1;
                lc.sink.emit_with(|| ObsEvent::TileDispatch {
                    at,
                    image,
                    tile: t as u32,
                    worker: node as u32,
                });
                actions.push(Action::Dispatch { tile: t, to: node });
            }
        }
        (lc, actions)
    }

    /// Feed one event; execute every returned action before feeding the
    /// next event (rejections of those actions come back as
    /// [`Event::SendRejected`]).
    pub fn handle(&mut self, ev: Event) -> Vec<Action> {
        match ev {
            Event::TileDelivered { .. } => {
                if self.delivered < self.sent {
                    self.delivered += 1;
                }
                Vec::new()
            }
            Event::SendComplete { at } => {
                self.now = self.now.max(at);
                self.on_send_complete(at)
            }
            Event::ResultArrived { at, tile, worker, ok } => {
                self.now = self.now.max(at);
                self.on_result(at, tile, worker, ok)
            }
            Event::DeadlineFired { at } => {
                self.now = self.now.max(at);
                self.on_deadline(at)
            }
            Event::WorkerDied { worker } => {
                if worker < self.k && self.live[worker] {
                    self.live[worker] = false;
                    self.speeds[worker] = 0.0;
                    self.sink.emit_with(|| ObsEvent::WorkerDead {
                        at: self.now,
                        image: self.image,
                        worker: worker as u32,
                    });
                }
                Vec::new()
            }
            Event::SendRejected { tile, worker } => self.on_send_rejected(tile, worker),
            Event::Abort => {
                if self.complete {
                    return Vec::new();
                }
                let missing = self.missing();
                let mut acts = Vec::new();
                self.finish(missing, &mut acts);
                acts
            }
        }
    }

    // --- queries (read-only driver helpers) ----------------------------

    /// True once [`Action::Complete`] has been emitted.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// True while `tile` can still be satisfied by an arriving result
    /// (drivers use this to skip decoding duplicates).
    pub fn tile_open(&self, tile: usize) -> bool {
        tile < self.d && !self.got[tile] && !self.complete
    }

    /// The next instant the driver's timer should fire, if any: the armed
    /// deadline capped by the hard timeout (or the hard timeout alone
    /// under [`TimerPolicy::Deadline`]/[`TimerPolicy::WaitAll`] before any
    /// deadline is armed).
    pub fn next_deadline(&self) -> f64 {
        let hard = self.hard_deadline();
        match self.deadline {
            Some(dl) => dl.min(hard),
            None => hard,
        }
    }

    /// Absolute time of the hard timeout (dispatch start + the policy
    /// cap).
    pub fn hard_deadline(&self) -> f64 {
        self.start + self.policy.hard_timeout
    }

    /// Every original tile the transport accepted has been delivered
    /// ([`Event::TileDelivered`]).
    pub fn all_delivered(&self) -> bool {
        self.delivered == self.sent
    }

    /// Per-image bookkeeping (valid any time; final once complete).
    pub fn counters(&self) -> &LifecycleCounters {
        &self.counters
    }

    /// The allocation this image was begun with.
    pub fn alloc(&self) -> &[u32] {
        &self.alloc
    }

    // --- event handlers ------------------------------------------------

    fn on_send_complete(&mut self, at: f64) -> Vec<Action> {
        if self.complete {
            return Vec::new();
        }
        self.send_complete = true;
        let mut acts = Vec::new();
        // Nobody live: tiles that never found a queue can never arrive.
        if !self.live.iter().any(|&l| l) {
            for s in self.slots.iter_mut() {
                if *s == TileSlot::Unplaced {
                    *s = TileSlot::Abandoned;
                    self.counters.abandoned += 1;
                }
            }
        }
        if self.terminal() {
            let missing = self.missing();
            self.finish(missing, &mut acts);
            return acts;
        }
        if self.policy.timer == TimerPolicy::AfterSend {
            // Paper text, literally: T_L after the last tile went out.
            let span = self.policy.t_l;
            self.deadline = Some(at + span);
            self.cutoff = Some(at + span);
            self.last_span = span;
            self.sink.emit_with(|| ObsEvent::DeadlineArmed { at, image: self.image, span });
            acts.push(Action::ArmDeadline { span });
        }
        acts
    }

    fn on_result(&mut self, at: f64, tile: usize, worker: usize, ok: bool) -> Vec<Action> {
        if self.complete {
            self.counters.late += 1;
            self.sink.emit_with(|| ObsEvent::TileLate {
                at,
                image: self.image,
                tile: tile as u32,
                worker: worker as u32,
            });
            return Vec::new();
        }
        if tile >= self.d || worker >= self.k {
            return Vec::new();
        }
        self.progress[worker] = true;
        if self.suspect[worker] {
            self.suspect[worker] = false;
            self.sink.emit_with(|| ObsEvent::WorkerCleared {
                at,
                image: self.image,
                worker: worker as u32,
            });
        }
        if self.got[tile] {
            self.counters.duplicate += 1;
            self.sink.emit_with(|| ObsEvent::TileDuplicate {
                at,
                image: self.image,
                tile: tile as u32,
                worker: worker as u32,
            });
            return Vec::new();
        }
        if !ok {
            // Undecodable payload: the tile stays open so a re-dispatch
            // round can recover it.
            self.counters.corrupt += 1;
            self.sink.emit_with(|| ObsEvent::TileCorrupt {
                at,
                image: self.image,
                tile: tile as u32,
                worker: worker as u32,
            });
            return Vec::new();
        }
        self.got[tile] = true;
        self.got_total += 1;
        self.counters.received[worker] += 1;
        self.sink.emit_with(|| ObsEvent::TileArrival {
            at,
            image: self.image,
            tile: tile as u32,
            worker: worker as u32,
        });
        let mut acts = vec![Action::Accept { tile, from: worker }];
        let completing = self.terminal();
        if self.deadline.is_none() && self.policy.timer == TimerPolicy::Deadline {
            // First result: extrapolate the expected makespan — the
            // slowest node's whole batch should take about max_alloc × the
            // first-result time — and add slack plus T_L grace.
            let pu = (at - self.start).max(1e-6);
            let span = pu * self.policy.slack * (self.max_alloc - 1) as f64 + self.policy.t_l;
            self.per_unit = Some(pu);
            self.deadline = Some(at + span);
            self.cutoff = Some(at + span);
            self.last_span = span;
            if !completing {
                self.sink.emit_with(|| ObsEvent::DeadlineArmed { at, image: self.image, span });
                acts.push(Action::ArmDeadline { span });
            }
        }
        // Algorithm 2 measurement window: only results before the cutoff
        // (the deadline as first armed) build the worker's reputation.
        if self.cutoff.is_none_or(|c| at <= c) {
            self.counters.timely[worker] += 1;
            self.last_result_at[worker] = Some(at);
        }
        if completing {
            self.finish(Vec::new(), &mut acts);
        }
        acts
    }

    fn on_deadline(&mut self, at: f64) -> Vec<Action> {
        if self.complete {
            return Vec::new();
        }
        // Stale or early timers (from an earlier arming, or a speculative
        // hard-timeout fallback) are simply ignored; drivers never cancel.
        if at + EPS < self.next_deadline() {
            return Vec::new();
        }
        self.sink.emit_with(|| ObsEvent::DeadlineFired { at, image: self.image });
        let missing = self.missing();
        let mut acts = Vec::new();
        if missing.is_empty() {
            self.finish(missing, &mut acts);
            return acts;
        }
        let recoverable = self.policy.timer == TimerPolicy::Deadline
            && at + EPS < self.hard_deadline()
            && self.counters.rounds < self.policy.max_redispatch_rounds;
        if recoverable {
            // Original tiles still on the transport: the deadline cannot
            // be judged yet, re-arm with the same span.
            if self.delivered < self.sent {
                let span = self.last_span.max(self.policy.t_l);
                self.deadline = Some(at + span);
                self.sink.emit_with(|| ObsEvent::DeadlineArmed { at, image: self.image, span });
                return vec![Action::ArmDeadline { span }];
            }
            // A worker holding a missing tile that has produced *nothing*
            // since the last round is silent — dead behind a live queue,
            // or wedged; either way a recovery copy sent there is lost
            // too. A straggler keeps delivering and stays trusted.
            for &t in &missing {
                if let TileSlot::At(owner) = self.slots[t] {
                    if !self.progress[owner] && !self.suspect[owner] {
                        self.suspect[owner] = true;
                        self.sink.emit_with(|| ObsEvent::WorkerSuspect {
                            at,
                            image: self.image,
                            worker: owner as u32,
                        });
                    }
                }
            }
            self.progress = vec![false; self.k];
            let all = self.candidates();
            let trusted: Vec<usize> = all.iter().copied().filter(|&w| !self.suspect[w]).collect();
            let cands = if trusted.is_empty() { all } else { trusted };
            if !cands.is_empty() {
                self.counters.rounds += 1;
                for (i, &t) in missing.iter().enumerate() {
                    let mut dest = cands[i % cands.len()];
                    if let TileSlot::At(owner) = self.slots[t] {
                        // Prefer anyone but the worker that already failed
                        // to deliver this tile.
                        if dest == owner && cands.len() > 1 {
                            dest = cands[(i + 1) % cands.len()];
                        }
                    }
                    self.slots[t] = TileSlot::At(dest);
                    self.attempted[t] = vec![false; self.k];
                    self.counters.redispatched += 1;
                    self.sink.emit_with(|| ObsEvent::TileRedispatch {
                        at,
                        image: self.image,
                        tile: t as u32,
                        worker: dest as u32,
                        round: self.counters.rounds,
                    });
                    acts.push(Action::Redispatch { tile: t, to: dest });
                }
                // Re-arm: expected time for the candidates to absorb the
                // re-sent tiles, with the same slack + T_L grace.
                let pu = self.per_unit.unwrap_or(self.policy.t_l);
                let share = missing.len().div_ceil(cands.len());
                let span = pu * self.policy.slack * share as f64 + self.policy.t_l;
                self.last_span = span;
                self.deadline = Some(at + span);
                self.sink.emit_with(|| ObsEvent::DeadlineArmed { at, image: self.image, span });
                acts.push(Action::ArmDeadline { span });
                return acts;
            }
        }
        self.finish(missing, &mut acts);
        acts
    }

    fn on_send_rejected(&mut self, tile: usize, worker: usize) -> Vec<Action> {
        if self.complete || tile >= self.d || worker >= self.k || self.got[tile] {
            return Vec::new();
        }
        // Only honor rejections for the current owner (stale rejections of
        // an already-rerouted send are meaningless).
        if self.slots[tile] != TileSlot::At(worker) {
            return Vec::new();
        }
        self.attempted[tile][worker] = true;
        let redispatching = self.counters.rounds > 0;
        if redispatching {
            self.counters.redispatched = self.counters.redispatched.saturating_sub(1);
        } else {
            self.sent = self.sent.saturating_sub(1);
        }
        let next = self.candidates().into_iter().find(|&w| !self.attempted[tile][w]);
        match next {
            Some(w) => {
                self.slots[tile] = TileSlot::At(w);
                if redispatching {
                    self.counters.redispatched += 1;
                    self.sink.emit_with(|| ObsEvent::TileRedispatch {
                        at: self.now,
                        image: self.image,
                        tile: tile as u32,
                        worker: w as u32,
                        round: self.counters.rounds,
                    });
                    vec![Action::Redispatch { tile, to: w }]
                } else {
                    self.sent += 1;
                    self.sink.emit_with(|| ObsEvent::TileDispatch {
                        at: self.now,
                        image: self.image,
                        tile: tile as u32,
                        worker: w as u32,
                    });
                    vec![Action::Dispatch { tile, to: w }]
                }
            }
            None => {
                // Every live worker refused: park the tile until the next
                // deadline round (fresh attempts there).
                self.slots[tile] = TileSlot::Unplaced;
                self.attempted[tile] = vec![false; self.k];
                // Mid-recovery, if nothing is left in flight for any
                // missing tile, waiting cannot help: zero-fill now (the
                // runtime's historical `sent == 0` bail-out).
                if redispatching
                    && self.missing().iter().all(|&t| !matches!(self.slots[t], TileSlot::At(_)))
                {
                    let missing = self.missing();
                    let mut acts = Vec::new();
                    self.finish(missing, &mut acts);
                    return acts;
                }
                Vec::new()
            }
        }
    }

    // --- internals -----------------------------------------------------

    /// Live workers, fastest first (stable on index for determinism).
    fn candidates(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.k).filter(|&w| self.live[w]).collect();
        order.sort_by(|&a, &b| self.speeds[b].total_cmp(&self.speeds[a]).then(a.cmp(&b)));
        order
    }

    /// Tiles that are still wanted: not arrived, not abandoned.
    fn missing(&self) -> Vec<usize> {
        (0..self.d).filter(|&t| !self.got[t] && self.slots[t] != TileSlot::Abandoned).collect()
    }

    /// Every tile accounted for (arrived or abandoned)?
    fn terminal(&self) -> bool {
        self.got_total + self.counters.abandoned as usize == self.d
    }

    /// Close out the image: zero-fill `missing`, emit the Algorithm 2 rate
    /// observations, and mark complete.
    fn finish(&mut self, missing: Vec<usize>, acts: &mut Vec<Action>) {
        debug_assert!(!self.complete);
        self.counters.zero_filled = (self.d - self.got_total) as u32;
        if self.sink.enabled() {
            // One event per zero-filled tile (including never-placed
            // abandoned ones), so the metrics counter reconciles with
            // `counters.zero_filled` exactly.
            for t in 0..self.d {
                if !self.got[t] {
                    self.sink.emit_with(|| ObsEvent::TileZeroFill {
                        at: self.now,
                        image: self.image,
                        tile: t as u32,
                    });
                }
            }
        }
        if !missing.is_empty() {
            acts.push(Action::ZeroFill { tiles: missing });
        }
        for node in 0..self.k {
            if self.alloc[node] == 0 {
                // No observation for a node that was assigned nothing —
                // recording 0 would permanently starve a merely-skipped
                // node.
                continue;
            }
            if !self.live[node] {
                // A positively-dead worker gets no rate observation at
                // all: the driver already called `mark_failed`, and a
                // stale "timely before it died" rate would resurrect the
                // estimate of a node that cannot serve.
                continue;
            }
            let rate = match self.last_result_at[node] {
                Some(t) if self.counters.timely[node] > 0 => {
                    let elapsed = (t - self.start).max(1e-6);
                    self.counters.timely[node] as f64 / elapsed * self.policy.t_l
                }
                _ => 0.0,
            };
            self.sink.emit_with(|| ObsEvent::RateUpdate {
                at: self.now,
                image: self.image,
                worker: node as u32,
                rate,
            });
            acts.push(Action::RecordRate { worker: node, rate });
        }
        self.sink.emit_with(|| ObsEvent::ImageFinish {
            at: self.now,
            image: self.image,
            latency: self.now - self.start,
            zero_filled: self.counters.zero_filled,
            redispatched: self.counters.redispatched,
        });
        acts.push(Action::Complete);
        self.complete = true;
    }
}

/// Everything one [`replay`] pass produced.
#[derive(Debug, PartialEq)]
pub struct Replay {
    /// Every action in emission order, tagged with the index (into
    /// `allocs`) of the image whose machine took it.
    pub decisions: Vec<(usize, Action)>,
    /// The structured events the machines mirrored into their shared sink.
    pub events: Vec<ObsEvent>,
    /// Per image, the attribution fold's [`ImageReport`](crate::report::ImageReport)
    /// as canonical JSON; `None` where the trace never finished the image.
    pub reports: Vec<Option<String>>,
}

/// Replay an abstract event trace through the lifecycle machine with the
/// transport abstracted away: one machine per entry of `allocs` (image id =
/// index, all begun at `clock(0.0)`, in order), then the interleaved
/// `(image_index, event)` trace — the shape a pipelined collector
/// demultiplexes; a single image is the one-alloc case. Every timestamp
/// reaches the machine through `clock`, which is the only thing a driver
/// contributes: the simulator's is the identity, the runtime's is its
/// `Instant` roundtrip. Decisions, events and reports all come out of the
/// same pass, so the cross-driver differential test compares whole
/// [`Replay`]s.
pub fn replay(
    policy: LifecyclePolicy,
    d: usize,
    allocs: &[Vec<u32>],
    speeds: &[f64],
    live: &[bool],
    trace: &[(usize, Event)],
    clock: impl Fn(f64) -> f64,
) -> Replay {
    let rec = Arc::new(RecordingSink::new());
    let attr = Arc::new(AttributionSink::new());
    let sink = SinkHandle::new(rec.clone()).tee(attr.clone());
    let mut decisions = Vec::new();
    let mut machines = Vec::with_capacity(allocs.len());
    for (i, alloc) in allocs.iter().enumerate() {
        let (lc, acts) = TileLifecycle::begin_observed(
            policy,
            clock(0.0),
            d,
            alloc,
            speeds,
            live,
            i as u64,
            sink.clone(),
        );
        decisions.extend(acts.into_iter().map(|a| (i, a)));
        machines.push(lc);
    }
    for &(i, ev) in trace {
        decisions.extend(machines[i].handle(ev.map_time(&clock)).into_iter().map(|a| (i, a)));
    }
    Replay {
        decisions,
        events: rec.events(),
        reports: (0..allocs.len())
            .map(|i| attr.report_for(i as u64).map(|r| r.to_json()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> LifecyclePolicy {
        LifecyclePolicy { t_l: 0.030, ..Default::default() }
    }

    fn dispatches(acts: &[Action]) -> Vec<(usize, usize)> {
        acts.iter()
            .filter_map(|a| match a {
                Action::Dispatch { tile, to } => Some((*tile, *to)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn begin_places_round_robin_honoring_alloc() {
        let (lc, acts) = TileLifecycle::begin(policy(), 0.0, 4, &[2, 1, 1], &[1.0; 3], &[true; 3]);
        assert_eq!(dispatches(&acts), vec![(0, 0), (1, 1), (2, 2), (3, 0)]);
        assert_eq!(lc.counters().abandoned, 0);
        assert!(!lc.is_complete());
    }

    #[test]
    fn storage_shortfall_is_abandoned_not_waited_for() {
        // Σ alloc = 2 < d = 4: the shortfall zero-fills at completion
        // without any deadline wait.
        let (mut lc, acts) = TileLifecycle::begin(policy(), 0.0, 4, &[1, 1], &[1.0; 2], &[true; 2]);
        assert_eq!(dispatches(&acts).len(), 2);
        assert_eq!(lc.counters().abandoned, 2);
        lc.handle(Event::TileDelivered { tile: 0 });
        lc.handle(Event::TileDelivered { tile: 1 });
        lc.handle(Event::SendComplete { at: 0.001 });
        lc.handle(Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true });
        let acts = lc.handle(Event::ResultArrived { at: 0.011, tile: 1, worker: 1, ok: true });
        assert!(lc.is_complete());
        assert!(acts.contains(&Action::Complete));
        assert_eq!(lc.counters().zero_filled, 2);
        assert_eq!(lc.counters().redispatched, 0);
    }

    #[test]
    fn first_result_arms_expected_makespan_deadline() {
        let (mut lc, _) = TileLifecycle::begin(policy(), 0.0, 4, &[2, 2], &[1.0; 2], &[true; 2]);
        for t in 0..4 {
            lc.handle(Event::TileDelivered { tile: t });
        }
        lc.handle(Event::SendComplete { at: 0.0 });
        let acts = lc.handle(Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true });
        // span = pu * slack * (max_alloc - 1) + t_l
        let p = policy();
        let want = 0.010 * p.slack + p.t_l;
        assert!(acts
            .iter()
            .any(|a| matches!(a, Action::ArmDeadline { span } if (span - want).abs() < 1e-12)));
        assert!((lc.next_deadline() - (0.010 + want)).abs() < 1e-12);
    }

    #[test]
    fn deadline_redispatches_then_zero_fills() {
        let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
        let (mut lc, _) = TileLifecycle::begin(p, 0.0, 4, &[2, 2], &[1.0, 5.0], &[true; 2]);
        for t in 0..4 {
            lc.handle(Event::TileDelivered { tile: t });
        }
        lc.handle(Event::SendComplete { at: 0.0 });
        // worker 1 (tiles 1 and 3) delivers; worker 0 never does
        lc.handle(Event::ResultArrived { at: 0.010, tile: 1, worker: 1, ok: true });
        lc.handle(Event::ResultArrived { at: 0.012, tile: 3, worker: 1, ok: true });
        let dl = lc.next_deadline();
        let acts = lc.handle(Event::DeadlineFired { at: dl });
        // missing tiles 0 and 2, previously at worker 0 → fastest live is 1
        let re: Vec<_> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Redispatch { tile, to } => Some((*tile, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(re, vec![(0, 1), (2, 1)]);
        assert_eq!(lc.counters().rounds, 1);
        // recovery delivers one; the next deadline zero-fills the other
        lc.handle(Event::ResultArrived { at: dl + 0.001, tile: 0, worker: 1, ok: true });
        let acts = lc.handle(Event::DeadlineFired { at: lc.next_deadline() });
        assert!(acts.contains(&Action::ZeroFill { tiles: vec![2] }));
        assert!(lc.is_complete());
        assert_eq!(lc.counters().zero_filled, 1);
        // the late recovery was received but not timely
        assert_eq!(lc.counters().received, vec![0, 3]);
        assert_eq!(lc.counters().timely, vec![0, 2]);
    }

    #[test]
    fn silent_workers_are_excluded_from_redispatch_but_stragglers_are_not() {
        // Worker 2 swallows its tiles without a word; worker 1 is slow but
        // delivering. Recovery must avoid the swallower entirely while
        // still counting the straggler as a candidate.
        let (mut lc, _) =
            TileLifecycle::begin(policy(), 0.0, 6, &[2, 2, 2], &[3.0, 2.0, 1.0], &[true; 3]);
        for t in 0..6 {
            lc.handle(Event::TileDelivered { tile: t });
        }
        lc.handle(Event::SendComplete { at: 0.0 });
        lc.handle(Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true });
        lc.handle(Event::ResultArrived { at: 0.012, tile: 3, worker: 0, ok: true });
        lc.handle(Event::ResultArrived { at: 0.013, tile: 1, worker: 1, ok: true });
        lc.handle(Event::ResultArrived { at: 0.025, tile: 4, worker: 1, ok: true });
        // missing: tiles 2 and 5 (worker 2, silent). Worker 2 produced
        // nothing → suspect; workers 0 and 1 share the recovery copies —
        // the slow-but-delivering worker 1 stays a candidate.
        let acts = lc.handle(Event::DeadlineFired { at: lc.next_deadline() });
        let re: Vec<(usize, usize)> = acts
            .iter()
            .filter_map(|a| match a {
                Action::Redispatch { tile, to } => Some((*tile, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(re, vec![(2, 0), (5, 1)]);
    }

    #[test]
    fn stale_timers_are_ignored() {
        let (mut lc, _) = TileLifecycle::begin(policy(), 0.0, 2, &[1, 1], &[1.0; 2], &[true; 2]);
        lc.handle(Event::TileDelivered { tile: 0 });
        lc.handle(Event::TileDelivered { tile: 1 });
        lc.handle(Event::SendComplete { at: 0.0 });
        lc.handle(Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true });
        // a timer armed before the deadline moved is stale
        assert!(lc.handle(Event::DeadlineFired { at: 0.005 }).is_empty());
        assert!(!lc.is_complete());
    }

    #[test]
    fn duplicates_and_corrupt_results_are_counted_not_pasted() {
        let (mut lc, _) = TileLifecycle::begin(policy(), 0.0, 2, &[1, 1], &[1.0; 2], &[true; 2]);
        lc.handle(Event::SendComplete { at: 0.0 });
        let a = lc.handle(Event::ResultArrived { at: 0.01, tile: 0, worker: 0, ok: false });
        assert!(a.is_empty());
        assert!(lc.tile_open(0));
        lc.handle(Event::ResultArrived { at: 0.02, tile: 0, worker: 0, ok: true });
        assert!(!lc.tile_open(0));
        let a = lc.handle(Event::ResultArrived { at: 0.03, tile: 0, worker: 1, ok: true });
        assert!(a.is_empty());
        assert_eq!(lc.counters().duplicate, 1);
        assert_eq!(lc.counters().corrupt, 1);
    }

    #[test]
    fn send_rejection_reroutes_to_fastest_untried_live_worker() {
        let (mut lc, acts) =
            TileLifecycle::begin(policy(), 0.0, 2, &[1, 1], &[1.0, 2.0], &[true; 2]);
        assert_eq!(dispatches(&acts), vec![(0, 0), (1, 1)]);
        // worker 0's queue is full: tile 0 moves to worker 1
        let re = lc.handle(Event::SendRejected { tile: 0, worker: 0 });
        assert_eq!(dispatches(&re), vec![(0, 1)]);
        // worker 1 also refuses: nowhere left, parked as unplaced
        let re = lc.handle(Event::SendRejected { tile: 0, worker: 1 });
        assert!(re.is_empty());
        assert!(!lc.is_complete());
    }

    #[test]
    fn dead_workers_are_skipped_on_reroute() {
        let (mut lc, _) = TileLifecycle::begin(policy(), 0.0, 2, &[1, 1], &[1.0, 2.0], &[true; 2]);
        lc.handle(Event::WorkerDied { worker: 1 });
        // tile 1 was at (dead) worker 1; rejection must route to 0, the
        // only live worker
        let re = lc.handle(Event::SendRejected { tile: 1, worker: 1 });
        assert_eq!(dispatches(&re), vec![(1, 0)]);
    }

    #[test]
    fn after_send_policy_arms_t_l_exactly() {
        let p = LifecyclePolicy { timer: TimerPolicy::AfterSend, ..policy() };
        let (mut lc, _) = TileLifecycle::begin(p, 0.0, 2, &[1, 1], &[1.0; 2], &[true; 2]);
        let acts = lc.handle(Event::SendComplete { at: 0.005 });
        assert!(acts.contains(&Action::ArmDeadline { span: 0.030 }));
        // AfterSend never re-dispatches: the deadline zero-fills directly
        let acts = lc.handle(Event::DeadlineFired { at: 0.035 });
        assert!(acts.contains(&Action::ZeroFill { tiles: vec![0, 1] }));
        assert!(lc.is_complete());
    }

    #[test]
    fn wait_all_only_fires_on_hard_timeout() {
        let p = LifecyclePolicy { timer: TimerPolicy::WaitAll, ..policy() };
        let (mut lc, _) = TileLifecycle::begin(p, 0.0, 2, &[1, 1], &[1.0; 2], &[true; 2]);
        lc.handle(Event::SendComplete { at: 0.0 });
        assert!(lc.handle(Event::DeadlineFired { at: 1.0 }).is_empty());
        assert!(!lc.is_complete());
        let acts = lc.handle(Event::DeadlineFired { at: lc.hard_deadline() });
        assert!(acts.contains(&Action::ZeroFill { tiles: vec![0, 1] }));
        assert!(lc.is_complete());
    }

    #[test]
    fn abort_zero_fills_the_remainder() {
        let (mut lc, _) = TileLifecycle::begin(policy(), 0.0, 3, &[2, 1], &[1.0; 2], &[true; 2]);
        lc.handle(Event::SendComplete { at: 0.0 });
        lc.handle(Event::ResultArrived { at: 0.01, tile: 0, worker: 0, ok: true });
        let acts = lc.handle(Event::Abort);
        assert!(acts.contains(&Action::ZeroFill { tiles: vec![1, 2] }));
        assert!(lc.is_complete());
        assert_eq!(lc.counters().zero_filled, 2);
    }

    #[test]
    fn dead_workers_get_no_rate_observation() {
        // Worker 0 delivers one timely result, then is positively
        // observed dead. Its stale "timely before it died" rate must NOT
        // come out as a RecordRate — the driver already mark_failed'd it,
        // and a blend from the pre-failure rate would resurrect it.
        let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
        let (mut lc, _) = TileLifecycle::begin(p, 0.0, 4, &[2, 2], &[1.0, 1.0], &[true; 2]);
        for t in 0..4 {
            lc.handle(Event::TileDelivered { tile: t });
        }
        lc.handle(Event::SendComplete { at: 0.0 });
        lc.handle(Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true });
        lc.handle(Event::ResultArrived { at: 0.011, tile: 1, worker: 1, ok: true });
        lc.handle(Event::ResultArrived { at: 0.012, tile: 3, worker: 1, ok: true });
        lc.handle(Event::WorkerDied { worker: 0 });
        // tile 2 recovers on worker 1, completing the image
        lc.handle(Event::DeadlineFired { at: lc.next_deadline() });
        let acts = lc.handle(Event::ResultArrived {
            at: lc.next_deadline(),
            tile: 2,
            worker: 1,
            ok: true,
        });
        assert!(lc.is_complete());
        let rates: Vec<usize> = acts
            .iter()
            .filter_map(|a| match a {
                Action::RecordRate { worker, .. } => Some(*worker),
                _ => None,
            })
            .collect();
        assert_eq!(rates, vec![1], "only the live worker may produce a rate observation");
        assert_eq!(lc.counters().timely[0], 1, "the pre-death result was timely, yet suppressed");
    }

    #[test]
    fn observed_run_emits_reconciling_events() {
        use crate::obs::{EventSink, ObsEvent, RecordingSink, SinkHandle};
        use std::sync::Arc;
        let rec = Arc::new(RecordingSink::new());
        let sink = SinkHandle::new(rec.clone() as Arc<dyn EventSink>);
        let p = LifecyclePolicy { max_redispatch_rounds: 1, ..policy() };
        let (mut lc, _) =
            TileLifecycle::begin_observed(p, 0.0, 4, &[2, 2], &[1.0, 5.0], &[true; 2], 7, sink);
        for t in 0..4 {
            lc.handle(Event::TileDelivered { tile: t });
        }
        lc.handle(Event::SendComplete { at: 0.0 });
        lc.handle(Event::ResultArrived { at: 0.010, tile: 1, worker: 1, ok: true });
        lc.handle(Event::ResultArrived { at: 0.012, tile: 3, worker: 1, ok: true });
        lc.handle(Event::DeadlineFired { at: lc.next_deadline() });
        lc.handle(Event::DeadlineFired { at: lc.next_deadline() });
        assert!(lc.is_complete());
        let evs = rec.events();
        let count = |k: &str| evs.iter().filter(|e| e.kind() == k).count() as u32;
        assert_eq!(count("image_start"), 1);
        assert_eq!(count("image_finish"), 1);
        assert_eq!(count("tile_dispatch"), 4);
        assert_eq!(count("tile_redispatch"), lc.counters().redispatched);
        assert_eq!(count("tile_arrival"), 2);
        assert_eq!(count("tile_zero_fill"), lc.counters().zero_filled);
        assert_eq!(count("worker_suspect"), 1, "silent worker 0 must be flagged");
        // every event carries the image id it was begun with
        assert!(evs.iter().all(|e| match e {
            ObsEvent::ImageStart { image, .. } | ObsEvent::ImageFinish { image, .. } => *image == 7,
            _ => true,
        }));
        // the finish event restates the counters exactly
        let fin = evs.iter().find(|e| e.kind() == "image_finish").unwrap();
        if let ObsEvent::ImageFinish { zero_filled, redispatched, .. } = fin {
            assert_eq!(*zero_filled, lc.counters().zero_filled);
            assert_eq!(*redispatched, lc.counters().redispatched);
        }
    }

    #[test]
    fn map_time_rewrites_exactly_the_three_timed_variants() {
        let shift = |at: f64| at + 1.0;
        assert_eq!(
            Event::SendComplete { at: 0.5 }.map_time(shift),
            Event::SendComplete { at: 1.5 }
        );
        assert_eq!(
            Event::ResultArrived { at: 0.25, tile: 3, worker: 1, ok: false }.map_time(shift),
            Event::ResultArrived { at: 1.25, tile: 3, worker: 1, ok: false }
        );
        assert_eq!(
            Event::DeadlineFired { at: 2.0 }.map_time(shift),
            Event::DeadlineFired { at: 3.0 }
        );
        for untimed in [
            Event::TileDelivered { tile: 2 },
            Event::WorkerDied { worker: 1 },
            Event::SendRejected { tile: 2, worker: 1 },
            Event::Abort,
        ] {
            assert_eq!(untimed.map_time(|_| panic!("{untimed:?} carries no timestamp")), untimed);
        }
    }

    #[test]
    fn identity_replay_equals_a_hand_driven_machine_on_a_faulty_trace() {
        // Worker 0 dies silent: its tiles are re-dispatched to worker 1, one
        // recovery lands, the next deadline zero-fills the other.
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
        ];
        let (alloc, speeds, live) = ([2u32, 2], [1.0, 5.0], [true, true]);

        let rec = Arc::new(RecordingSink::new());
        let sink = SinkHandle::new(rec.clone());
        let (mut lc, mut want) =
            TileLifecycle::begin_observed(p, 0.0, 4, &alloc, &speeds, &live, 0, sink);
        for ev in trace {
            want.extend(lc.handle(ev));
        }
        assert!(want.contains(&Action::Redispatch { tile: 0, to: 1 }), "{want:?}");
        assert!(want.contains(&Action::ZeroFill { tiles: vec![2] }), "{want:?}");
        assert_eq!(want.last(), Some(&Action::Complete));

        let tagged: Vec<(usize, Event)> = trace.iter().map(|&ev| (0, ev)).collect();
        let got = replay(p, 4, &[alloc.to_vec()], &speeds, &live, &tagged, |at| at);
        let want: Vec<(usize, Action)> = want.into_iter().map(|a| (0, a)).collect();
        assert_eq!(got.decisions, want);
        assert_eq!(got.events, rec.events());
        let report = got.reports[0].as_deref().expect("the trace finishes the image");
        assert!(report.contains("\"zero_filled\":1"), "{report}");
    }

    #[test]
    fn rates_scale_timely_results_by_t_l() {
        let (mut lc, _) = TileLifecycle::begin(policy(), 0.0, 2, &[1, 1], &[1.0; 2], &[true; 2]);
        lc.handle(Event::SendComplete { at: 0.0 });
        lc.handle(Event::ResultArrived { at: 0.010, tile: 0, worker: 0, ok: true });
        let acts = lc.handle(Event::ResultArrived { at: 0.020, tile: 1, worker: 1, ok: true });
        let rates: Vec<(usize, f64)> = acts
            .iter()
            .filter_map(|a| match a {
                Action::RecordRate { worker, rate } => Some((*worker, *rate)),
                _ => None,
            })
            .collect();
        assert_eq!(rates.len(), 2);
        assert!((rates[0].1 - 1.0 / 0.010 * 0.030).abs() < 1e-9);
        assert!((rates[1].1 - 1.0 / 0.020 * 0.030).abs() < 1e-9);
    }
}
