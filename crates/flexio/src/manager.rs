//! Runtime placement management (paper §II.G + §IV):
//!
//! "For runtime management, monitoring data captured from the simulation
//! side can be gathered online and transferred to the analytics side. The
//! analytics process(es) can then use it to dynamically schedule data
//! movement and decide the placement of DC Plug-ins." The evaluation
//! "demonstrates the utility of Data Conditioning Plug-ins to enable
//! dynamic placement of analytics at runtime."
//!
//! [`PlacementManager`] is that decision loop: it watches the monitor's
//! per-step wire volume and plug-in execution cost and recommends where a
//! conditioning plug-in should run —
//!
//! * high wire volume + effective reduction ⇒ **writer side** (condition
//!   before the transport, shrink traffic);
//! * heavy plug-in cost relative to the simulation's budget ⇒ **reader
//!   side** (don't steal simulation cycles).
//!
//! On a staging node the decision loop runs as the control plane's
//! periodic loop ([`PlacementManager::into_task`], see [`crate::task`]).

use std::future::Future;
use std::sync::Arc;
use std::time::Duration;

use crate::directory::DirectoryService;
use crate::monitor::{MonitorEvent, PerfMonitor};
use crate::plugins::PluginPlacement;
use crate::task::{periodic, LoopHandle};

/// Tunables of the decision policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagerPolicy {
    /// Per-step wire bytes above which writer-side conditioning is worth
    /// pursuing (the transport is the bottleneck).
    pub wire_bytes_threshold: u64,
    /// Maximum fraction of a simulation step the plug-in may consume
    /// before it must be evicted to the reader side.
    pub max_writer_cpu_fraction: f64,
    /// The simulation's step budget in nanoseconds (from profiling).
    pub sim_step_ns: u64,
    /// Steps of history to average over.
    pub window: usize,
}

impl Default for ManagerPolicy {
    fn default() -> Self {
        ManagerPolicy {
            wire_bytes_threshold: 1 << 20,
            max_writer_cpu_fraction: 0.05,
            sim_step_ns: 1_000_000_000,
            window: 3,
        }
    }
}

/// A recommendation with its reasoning (surfaced to users/traces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recommendation {
    /// Where the plug-in should run next.
    pub placement: PluginPlacement,
    /// Human-readable justification.
    pub reason: String,
}

/// Online placement decision loop for one conditioning plug-in.
#[derive(Debug, Clone)]
pub struct PlacementManager {
    policy: ManagerPolicy,
    current: PluginPlacement,
}

impl PlacementManager {
    /// Fluent construction over [`crate::elastic::ElasticConfig`] — the
    /// one config that also drives the elastic controller, so the
    /// manager and the controller can never disagree on policy.
    pub fn builder() -> crate::elastic::ElasticConfigBuilder {
        crate::elastic::ElasticConfig::builder()
    }

    /// Build from an assembled [`crate::elastic::ElasticConfig`].
    pub fn from_elastic(cfg: &crate::elastic::ElasticConfig) -> PlacementManager {
        PlacementManager { policy: cfg.policy, current: cfg.initial_placement }
    }

    /// Current placement.
    pub fn current(&self) -> PluginPlacement {
        self.current
    }

    /// Mean of the last `window` values of a per-step series.
    pub(crate) fn recent_mean(series: &[(u64, u64)], window: usize) -> f64 {
        if series.is_empty() {
            return 0.0;
        }
        let tail = &series[series.len().saturating_sub(window)..];
        tail.iter().map(|&(_, v)| v as f64).sum::<f64>() / tail.len() as f64
    }

    /// Inspect the monitor and decide the plug-in's next placement.
    /// `rank` selects whose monitoring series to read (typically the
    /// writer rank whose address space hosts the plug-in).
    pub fn decide(&mut self, monitor: &PerfMonitor, rank: usize) -> Recommendation {
        let wire = Self::recent_mean(
            &monitor.bytes_per_step(MonitorEvent::DataSend, rank),
            self.policy.window,
        );
        let plugin_execs = monitor.count(MonitorEvent::PluginExec);
        let plugin_ns = if plugin_execs == 0 {
            0.0
        } else {
            monitor.total_nanos(MonitorEvent::PluginExec) as f64 / plugin_execs as f64
        };
        let cpu_fraction = plugin_ns / self.policy.sim_step_ns as f64;

        let rec = if cpu_fraction > self.policy.max_writer_cpu_fraction {
            Recommendation {
                placement: PluginPlacement::ReaderSide,
                reason: format!(
                    "plug-in consumes {:.1}% of the simulation step (budget {:.1}%): evict to analytics",
                    cpu_fraction * 100.0,
                    self.policy.max_writer_cpu_fraction * 100.0
                ),
            }
        } else if wire as u64 > self.policy.wire_bytes_threshold {
            Recommendation {
                placement: PluginPlacement::WriterSide,
                reason: format!(
                    "wire volume {:.0} B/step exceeds {} B: condition before the transport",
                    wire, self.policy.wire_bytes_threshold
                ),
            }
        } else {
            Recommendation {
                placement: self.current,
                reason: "within budgets: keep current placement".to_string(),
            }
        };
        self.current = rec.placement;
        rec
    }

    /// Convert the manager into the control plane's periodic decision
    /// loop ([`crate::task`]): every `interval` it re-decides stream
    /// `name`'s placement from the live link's monitor and publishes the
    /// [`Recommendation`]. It ends on its own once a stream it has seen
    /// is unregistered: the coupling is gone and won't come back under
    /// the same registration.
    pub fn into_task(
        mut self,
        directory: Arc<dyn DirectoryService>,
        name: String,
        rank: usize,
        interval: Duration,
    ) -> (LoopHandle<Recommendation>, impl Future<Output = ()> + Send) {
        let mut seen = false;
        periodic(interval, move || match directory.try_lookup(&name) {
            Some(link) => {
                seen = true;
                (Some(self.decide(&link.monitor, rank)), false)
            }
            None => (None, seen),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor_with(wire_per_step: u64, plugin_ns: u64, steps: u64) -> PerfMonitor {
        let m = PerfMonitor::new();
        for step in 0..steps {
            m.record(MonitorEvent::DataSend, step, 0, wire_per_step, 0);
            if plugin_ns > 0 {
                m.record(MonitorEvent::PluginExec, step, 0, 0, plugin_ns);
            }
        }
        m
    }

    #[test]
    fn heavy_wire_volume_pushes_plugin_to_writer() {
        let m = monitor_with(50 << 20, 1000, 5);
        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::ReaderSide)
            .build_manager();
        let rec = mgr.decide(&m, 0);
        assert_eq!(rec.placement, PluginPlacement::WriterSide);
        assert!(rec.reason.contains("wire volume"));
    }

    #[test]
    fn expensive_plugin_is_evicted_to_reader() {
        // Plug-in eats 20% of the step: must not run in the simulation.
        let m = monitor_with(50 << 20, 200_000_000, 5);
        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::WriterSide)
            .build_manager();
        let rec = mgr.decide(&m, 0);
        assert_eq!(rec.placement, PluginPlacement::ReaderSide);
        assert!(rec.reason.contains("evict"));
    }

    #[test]
    fn quiet_stream_keeps_current_placement() {
        let m = monitor_with(1000, 100, 5);
        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::ReaderSide)
            .build_manager();
        let rec = mgr.decide(&m, 0);
        assert_eq!(rec.placement, PluginPlacement::ReaderSide);
        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::WriterSide)
            .build_manager();
        let rec = mgr.decide(&m, 0);
        assert_eq!(rec.placement, PluginPlacement::WriterSide);
    }

    #[test]
    fn eviction_wins_over_wire_pressure() {
        // Both triggers fire: CPU safety beats bandwidth savings.
        let m = monitor_with(500 << 20, 400_000_000, 5);
        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::WriterSide)
            .build_manager();
        assert_eq!(mgr.decide(&m, 0).placement, PluginPlacement::ReaderSide);
    }

    #[test]
    fn window_averages_recent_steps_only() {
        let m = PerfMonitor::new();
        // Old steps were heavy; recent steps are light.
        for step in 0..5u64 {
            m.record(MonitorEvent::DataSend, step, 0, 100 << 20, 0);
        }
        for step in 5..10u64 {
            m.record(MonitorEvent::DataSend, step, 0, 1000, 0);
        }
        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::ReaderSide)
            .build_manager();
        let rec = mgr.decide(&m, 0);
        assert_eq!(rec.placement, PluginPlacement::ReaderSide, "{}", rec.reason);
    }
}
