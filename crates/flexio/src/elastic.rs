//! Closed-loop elastic placement: live autoscaling + mid-run migration
//! (paper §III.B.2 run *online*).
//!
//! The placement crate implements the paper's holistic allocation formula
//! — scale the analytics so its per-interval processing time fits inside
//! the simulation's I/O interval — as an offline calculation over
//! profiled numbers. This module closes the loop at runtime:
//!
//! ```text
//!   writer seals step N ──relay──▶ MonitorSink replica
//!                                        │
//!                               ElasticController (this module)
//!                       interval ← StepSeal gaps; lag ← seals − delivered
//!                       target  ← allocate_sync(scaling, interval, max)
//!                                        │
//!                                 ElasticRoster  ◀── reader rank pool
//!                       (desired member count + plug-in placement)
//!                                        │
//!            reader coordinator stamps `e_gen`/`e_active` into step N's
//!            "go" broadcast ⇒ membership changes commit at the step
//!            boundary; step N+1 runs on the new roster (quiesce
//!            handshake — no step is ever split across two rosters)
//! ```
//!
//! Elastic membership rides the `NO_CACHING` handshake: because the
//! coordinator re-gathers subscriptions and re-plans the MxN
//! redistribution *every* step (§II.C.2), adding or retiring reader
//! ranks needs no new writer-side protocol — the writer already reads
//! the reader count and per-rank selections fresh from each
//! `READER_INFO` reply and plans around empty columns. Plug-in
//! migration reuses the `PLUGIN_UPDATE` control path (§II.F): the
//! controller's placement request is applied by the coordinator at the
//! next step boundary, and the reader's fallback copies keep
//! conditioning exactly-once across the handover.
//!
//! The controller runs as the control plane's periodic loop
//! ([`ElasticController::into_task`], see [`crate::task`]) beside the
//! monitor-sink drain that feeds its replica.

use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use placement::{allocate_sync, AnalyticsScaling};

use crate::manager::{ManagerPolicy, PlacementManager};
use crate::monitor::{MonitorEvent, PerfMonitor};
use crate::plugins::PluginPlacement;
use crate::task::{periodic, LoopHandle};

/// One config for the whole elastic control plane: the controller's
/// cadence and bounds, the scaling model the allocation formula reads,
/// and the placement-manager policy — so the autoscaler and the plug-in
/// placement loop can never disagree on tunables.
///
/// Construct through [`ElasticConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs stay additive.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ElasticConfig {
    /// Decision cadence of the controller loop.
    pub interval: Duration,
    /// Floor on the reader roster (never scale below; ≥ 1).
    pub min_readers: usize,
    /// Ceiling on the reader roster (the provisioned rank slots).
    pub max_readers: usize,
    /// Steps the readers may trail the writer before the controller adds
    /// a rank on top of the formula's answer.
    pub target_lag: u64,
    /// Plug-in placement policy shared with the [`PlacementManager`].
    pub policy: ManagerPolicy,
    /// Placement the managed plug-in starts from.
    pub initial_placement: PluginPlacement,
    /// Amdahl model of the analytics (`serial_s + parallel_s / n`),
    /// fitted from profiling as in the paper's methodology. Zero means
    /// "unknown": the controller then holds the roster steady.
    pub scaling: AnalyticsScaling,
    /// Per-step wire volume below which writer-side conditioning stops
    /// paying for itself and the plug-in migrates back to the reader
    /// side. Kept below `policy.wire_bytes_threshold` for hysteresis.
    pub low_wire_bytes: u64,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            interval: Duration::from_millis(100),
            min_readers: 1,
            max_readers: 1,
            target_lag: 2,
            policy: ManagerPolicy::default(),
            initial_placement: PluginPlacement::ReaderSide,
            scaling: AnalyticsScaling { serial_s: 0.0, parallel_s: 0.0 },
            low_wire_bytes: (1 << 20) / 4,
        }
    }
}

impl ElasticConfig {
    /// Fluent builder starting from the defaults.
    pub fn builder() -> ElasticConfigBuilder {
        ElasticConfigBuilder { cfg: ElasticConfig::default() }
    }
}

/// Builder returned by [`ElasticConfig::builder`] (also reachable as
/// `PlacementManager::builder()`).
#[derive(Debug, Clone)]
pub struct ElasticConfigBuilder {
    cfg: ElasticConfig,
}

impl ElasticConfigBuilder {
    /// Decision cadence of the controller loop.
    pub fn interval(mut self, interval: Duration) -> Self {
        self.cfg.interval = interval;
        self
    }

    /// Reader roster floor (clamped to ≥ 1).
    pub fn min_readers(mut self, n: usize) -> Self {
        self.cfg.min_readers = n.max(1);
        self
    }

    /// Reader roster ceiling (clamped to ≥ 1).
    pub fn max_readers(mut self, n: usize) -> Self {
        self.cfg.max_readers = n.max(1);
        self
    }

    /// Step lag that triggers an extra rank beyond the formula's answer.
    pub fn target_lag(mut self, lag: u64) -> Self {
        self.cfg.target_lag = lag;
        self
    }

    /// Placement-manager policy.
    pub fn policy(mut self, policy: ManagerPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Placement the managed plug-in starts from.
    pub fn initial_placement(mut self, placement: PluginPlacement) -> Self {
        self.cfg.initial_placement = placement;
        self
    }

    /// Amdahl scaling model of the analytics.
    pub fn scaling(mut self, scaling: AnalyticsScaling) -> Self {
        self.cfg.scaling = scaling;
        self
    }

    /// Wire-volume floor under which the plug-in migrates reader-side.
    pub fn low_wire_bytes(mut self, bytes: u64) -> Self {
        self.cfg.low_wire_bytes = bytes;
        self
    }

    /// Finish, normalizing `min ≤ max`.
    pub fn build(mut self) -> ElasticConfig {
        self.cfg.max_readers = self.cfg.max_readers.max(self.cfg.min_readers);
        self.cfg
    }

    /// Finish and build just the [`PlacementManager`] half.
    pub fn build_manager(self) -> PlacementManager {
        PlacementManager::from_elastic(&self.build())
    }
}

/// The shared membership ledger between the controller (who decides how
/// many reader ranks should run and where the plug-in lives) and the
/// reader side (whose coordinator commits those decisions at step
/// boundaries and whose rank pool parks/unparks member tasks).
///
/// `active` is the *desired* member count over the provisioned rank
/// slots `0..max`; the coordinator announces it inside the next step's
/// `go` broadcast, which is what makes a change take effect — every
/// participant of a step learned the roster for step N+1 before step
/// N+1 begins.
#[derive(Debug)]
pub struct ElasticRoster {
    active: AtomicUsize,
    generation: AtomicU64,
    desired_placement: Mutex<Option<PluginPlacement>>,
    steps_delivered: AtomicU64,
    activations: AtomicU64,
    retirements: AtomicU64,
    migrations: AtomicU64,
    closed: AtomicBool,
}

impl ElasticRoster {
    /// A roster starting with `initial` active ranks (≥ 1: rank 0, the
    /// coordinator, never retires).
    pub fn new(initial: usize) -> ElasticRoster {
        ElasticRoster {
            active: AtomicUsize::new(initial.max(1)),
            generation: AtomicU64::new(0),
            desired_placement: Mutex::new(None),
            steps_delivered: AtomicU64::new(0),
            activations: AtomicU64::new(0),
            retirements: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Desired member count.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Membership generation (bumped by every resize).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Set the desired member count; returns whether it changed. Rank 0
    /// never retires, so the count is clamped to ≥ 1.
    pub fn resize(&self, n: usize) -> bool {
        let n = n.max(1);
        let prev = self.active.swap(n, Ordering::AcqRel);
        if n == prev {
            return false;
        }
        if n > prev {
            self.activations.fetch_add((n - prev) as u64, Ordering::Relaxed);
        } else {
            self.retirements.fetch_add((prev - n) as u64, Ordering::Relaxed);
        }
        self.generation.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Ask the reader coordinator to migrate the managed plug-in(s) to
    /// `placement` at the next step boundary.
    pub fn request_placement(&self, placement: PluginPlacement) {
        *self.desired_placement.lock() = Some(placement);
    }

    /// Take a pending placement request (the coordinator's rank pool
    /// calls this once per step boundary; `None` = nothing to migrate).
    pub fn take_placement(&self) -> Option<PluginPlacement> {
        self.desired_placement.lock().take()
    }

    /// Record one applied placement migration.
    pub fn note_migration(&self) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one fully-delivered step (the coordinator's step loop
    /// calls this after `end_step`); the controller reads the running
    /// count to estimate reader lag.
    pub fn note_step_delivered(&self) {
        self.steps_delivered.fetch_add(1, Ordering::Release);
    }

    /// Steps the reader side has fully delivered.
    pub fn steps_delivered(&self) -> u64 {
        self.steps_delivered.load(Ordering::Acquire)
    }

    /// Rank activations recorded by resizes (sum of upward deltas).
    pub fn activations(&self) -> u64 {
        self.activations.load(Ordering::Relaxed)
    }

    /// Rank retirements recorded by resizes (sum of downward deltas).
    pub fn retirements(&self) -> u64 {
        self.retirements.load(Ordering::Relaxed)
    }

    /// Placement migrations applied so far.
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Mark the coupling over: parked member tasks exit instead of
    /// waiting for reactivation.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether the coupling is over.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// The writer coordinator's rank: the monitoring series the controller
/// reads its step seals and wire bytes from.
const WRITER_COORD: usize = 0;

/// One controller decision, with the inputs that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticDecision {
    /// Reader ranks the roster was resized to.
    pub target_readers: usize,
    /// Live estimate of the simulation's I/O interval (seconds; 0 until
    /// the first two step seals arrive).
    pub interval_s: f64,
    /// Steps sealed by the writer but not yet delivered by the readers.
    pub lag: u64,
    /// Plug-in placement the decision settled on.
    pub placement: PluginPlacement,
    /// Human-readable justification (from the placement manager).
    pub reason: String,
}

/// The closed-loop controller: drains live monitoring off a sink
/// replica, runs the §III.B.2 allocation formula against the observed
/// I/O interval, and writes the verdict into the [`ElasticRoster`].
pub struct ElasticController {
    cfg: ElasticConfig,
    manager: PlacementManager,
    replica: PerfMonitor,
    roster: Arc<ElasticRoster>,
    last_placement: PluginPlacement,
}

impl ElasticController {
    /// Build over the live monitor `replica` (e.g. a
    /// `MonitorSink::monitor().clone()` taken before the sink's
    /// `into_task` — the sink keeps draining into it while the controller
    /// reads) and the shared roster.
    pub fn new(
        cfg: ElasticConfig,
        replica: PerfMonitor,
        roster: Arc<ElasticRoster>,
    ) -> ElasticController {
        let manager = PlacementManager::from_elastic(&cfg);
        let last_placement = cfg.initial_placement;
        ElasticController { cfg, manager, replica, roster, last_placement }
    }

    /// The shared roster this controller writes.
    pub fn roster(&self) -> &Arc<ElasticRoster> {
        &self.roster
    }

    /// Run one decision round: estimate the I/O interval from the
    /// writer's recent step-seal gaps, size the roster with
    /// [`allocate_sync`] (falling back to the ceiling when even that
    /// many ranks cannot keep up — scaling out as far as we can beats
    /// the offline escape hatch mid-run), add a rank while the readers
    /// trail beyond `target_lag`, and re-decide plug-in placement.
    pub fn decide_once(&mut self) -> ElasticDecision {
        let window = self.cfg.policy.window.max(1);
        let seals = self.replica.nanos_per_step(MonitorEvent::StepSeal, WRITER_COORD);
        let recent: Vec<u64> =
            seals.iter().rev().map(|&(_, n)| n).filter(|&n| n > 0).take(window).collect();
        let interval_s = if recent.is_empty() {
            0.0
        } else {
            recent.iter().sum::<u64>() as f64 / recent.len() as f64 / 1e9
        };

        let has_model = self.cfg.scaling.parallel_s > 0.0 || self.cfg.scaling.serial_s > 0.0;
        let mut target = if interval_s > 0.0 && has_model {
            allocate_sync(&self.cfg.scaling, interval_s, self.cfg.max_readers)
                .unwrap_or(self.cfg.max_readers)
        } else {
            self.roster.active()
        };
        target = target.clamp(self.cfg.min_readers, self.cfg.max_readers);

        let sealed = seals.len() as u64;
        let lag = sealed.saturating_sub(self.roster.steps_delivered());
        if lag > self.cfg.target_lag && target < self.cfg.max_readers {
            target += 1;
        }
        self.roster.resize(target);

        // Placement: the manager's thresholds push writer-side under
        // wire pressure; the low-water mark pulls back reader-side once
        // the traffic no longer pays for stealing simulation cycles.
        let rec = self.manager.decide(&self.replica, WRITER_COORD);
        let wire = PlacementManager::recent_mean(
            &self.replica.bytes_per_step(MonitorEvent::DataSend, WRITER_COORD),
            window,
        );
        let placement = if (wire as u64) < self.cfg.low_wire_bytes {
            PluginPlacement::ReaderSide
        } else {
            rec.placement
        };
        if placement != self.last_placement {
            self.last_placement = placement;
            self.roster.request_placement(placement);
        }

        ElasticDecision { target_readers: target, interval_s, lag, placement, reason: rec.reason }
    }

    /// Convert into the control plane's periodic decision loop
    /// ([`crate::task`]), one [`Self::decide_once`] per `cfg.interval`,
    /// each [`ElasticDecision`] published through the handle. It ends on
    /// its own once the roster closes (the coupling is over); a relay
    /// that dies upstream only stops the replica changing, which is
    /// harmless.
    pub fn into_task(mut self) -> (LoopHandle<ElasticDecision>, impl Future<Output = ()> + Send) {
        periodic(self.cfg.interval, move || {
            if self.roster.is_closed() {
                return (None, true);
            }
            (Some(self.decide_once()), false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_normalize_min_over_max() {
        let c = ElasticConfig::builder().min_readers(8).max_readers(2).build();
        assert_eq!((c.min_readers, c.max_readers), (8, 8));
    }

    #[test]
    fn roster_counts_activations_and_retirements() {
        let r = ElasticRoster::new(1);
        assert!(r.resize(4));
        assert!(!r.resize(4), "same size is not a change");
        assert!(r.resize(2));
        assert_eq!(r.active(), 2);
        assert_eq!(r.activations(), 3);
        assert_eq!(r.retirements(), 2);
        assert_eq!(r.generation(), 2);
    }

    #[test]
    fn roster_resize_zero_clamps_to_one() {
        let r = ElasticRoster::new(3);
        assert!(r.resize(0));
        assert_eq!(r.active(), 1);
    }

    fn seal(replica: &PerfMonitor, step: u64, gap_ns: u64, bytes: u64) {
        replica.record(MonitorEvent::DataSend, step, 0, bytes, 0);
        replica.record(MonitorEvent::StepSeal, step, 0, bytes, gap_ns);
    }

    #[test]
    fn controller_sizes_roster_from_observed_interval() {
        // Amdahl model: 1 ms serial + 12 ms parallel. At a 21 ms
        // interval one rank keeps up (1+12 ≤ 21); at 5 ms it takes
        // 12/(5-1) = 3 ranks.
        let cfg = ElasticConfig::builder()
            .max_readers(8)
            .scaling(AnalyticsScaling { serial_s: 0.001, parallel_s: 0.012 })
            .build();
        let replica = PerfMonitor::new();
        let roster = Arc::new(ElasticRoster::new(1));
        let mut ctl = ElasticController::new(cfg, replica.clone(), roster.clone());

        for step in 0..4 {
            seal(&replica, step, 21_000_000, 100);
            roster.note_step_delivered();
        }
        assert_eq!(ctl.decide_once().target_readers, 1);

        for step in 4..8 {
            seal(&replica, step, 5_000_000, 100);
            roster.note_step_delivered();
        }
        let d = ctl.decide_once();
        assert_eq!(d.target_readers, 3, "{d:?}");
        assert_eq!(roster.active(), 3);
    }

    #[test]
    fn lag_adds_a_rank_and_impossible_interval_scales_to_ceiling() {
        let cfg = ElasticConfig::builder()
            .max_readers(4)
            .target_lag(1)
            .scaling(AnalyticsScaling { serial_s: 0.001, parallel_s: 0.012 })
            .build();
        let replica = PerfMonitor::new();
        let roster = Arc::new(ElasticRoster::new(1));
        let mut ctl = ElasticController::new(cfg, replica.clone(), roster.clone());

        // 21 ms interval says 1 rank, but the readers trail 4 steps.
        for step in 0..4 {
            seal(&replica, step, 21_000_000, 100);
        }
        assert_eq!(ctl.decide_once().target_readers, 2, "lag bumps the formula's answer");

        // Sub-serial interval: allocate_sync says offline; mid-run the
        // controller scales to the ceiling instead.
        for step in 4..8 {
            seal(&replica, step, 500_000, 100);
        }
        assert_eq!(ctl.decide_once().target_readers, 4);
    }

    #[test]
    fn placement_follows_wire_volume_with_hysteresis() {
        let cfg = ElasticConfig::builder().max_readers(2).build();
        let low = cfg.low_wire_bytes;
        let replica = PerfMonitor::new();
        let roster = Arc::new(ElasticRoster::new(1));
        let mut ctl = ElasticController::new(cfg, replica.clone(), roster.clone());

        // Heavy wire → writer-side migration requested.
        for step in 0..4 {
            seal(&replica, step, 10_000_000, 50 << 20);
        }
        assert_eq!(ctl.decide_once().placement, PluginPlacement::WriterSide);
        assert_eq!(roster.take_placement(), Some(PluginPlacement::WriterSide));

        // Traffic collapses below the low-water mark → back reader-side.
        for step in 4..10 {
            seal(&replica, step, 10_000_000, low / 8);
        }
        assert_eq!(ctl.decide_once().placement, PluginPlacement::ReaderSide);
        assert_eq!(roster.take_placement(), Some(PluginPlacement::ReaderSide));
        // Steady state: no new request queued.
        seal(&replica, 10, 10_000_000, low / 8);
        ctl.decide_once();
        assert_eq!(roster.take_placement(), None);
    }
}
