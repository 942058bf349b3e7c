//! The two-stage pipeline simulator.
//!
//! Events are step completions; the recurrence below is the exact
//! discrete-event solution of a producer → mover → consumer pipeline with
//! a bounded buffer, so no event queue is needed:
//!
//! ```text
//! produce[k] = max(produce[k-1], accept[k]) + step_compute + io_visible
//! move_done[k] = produce[k] + movement (async overlaps the next compute)
//! ana_done[k] = max(move_done[k], ana_done[k-1]) + analytics
//! accept[k]  = ana_done[k - queue_depth]   (backpressure)
//! ```

/// Inputs of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineParams {
    /// Output steps to simulate.
    pub n_steps: u64,
    /// Simulation cycles between outputs (GTS: 2, S3D: 10).
    pub cycles_per_step: u64,
    /// Seconds per simulation cycle under this placement (includes core
    /// surrender, cache interference and async-movement interference).
    pub sim_cycle_s: f64,
    /// Simulation-visible I/O time per output (the write call itself:
    /// inline analytics time, shm handoff, sync RDMA, or file write).
    pub io_visible_s: f64,
    /// Transport time per output after the write call returns.
    pub movement_s: f64,
    /// If true, movement overlaps the next compute phase (asynchronous
    /// write, §II.C.2); if false it extends the critical path between
    /// production and analytics like a synchronous rendezvous.
    pub movement_async: bool,
    /// Analytics processing time per step at the allocated scale.
    pub analytics_s: f64,
    /// Steps that may be in flight before the simulation stalls
    /// (1 = fully synchronous hand-off; 2 = double buffering).
    pub queue_depth: usize,
}

/// Outputs of one pipeline run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineReport {
    /// End-to-end time: start of the simulation to the completion of the
    /// last analytics step — the paper's Total Execution Time.
    pub total_s: f64,
    /// Seconds the simulation spent computing cycles.
    pub sim_compute_s: f64,
    /// Seconds the simulation spent in visible I/O.
    pub sim_io_s: f64,
    /// Seconds the simulation spent stalled on backpressure.
    pub sim_stall_s: f64,
    /// Seconds of transport occupancy.
    pub movement_s: f64,
    /// Seconds the analytics spent busy.
    pub analytics_busy_s: f64,
    /// Seconds the analytics spent idle between steps (Fig. 7's "Idle").
    pub analytics_idle_s: f64,
}

#[cfg(test)]
impl PipelineReport {
    /// Analytics idle fraction of the total run (paper §IV.A.2: "analytics
    /// processes are idle for 67% of time").
    pub(crate) fn analytics_idle_fraction(&self) -> f64 {
        if self.total_s == 0.0 {
            0.0
        } else {
            self.analytics_idle_s / self.total_s
        }
    }
}

/// Run the pipeline recurrence.
pub fn simulate_pipeline(p: &PipelineParams) -> PipelineReport {
    assert!(p.n_steps >= 1);
    assert!(p.queue_depth >= 1);
    let step_compute = p.cycles_per_step as f64 * p.sim_cycle_s;
    let mut produce_done = vec![0.0f64; p.n_steps as usize];
    let mut ana_done = vec![0.0f64; p.n_steps as usize];
    let mut stall_total = 0.0;
    let mut ana_busy = 0.0;
    let mut prev_produce = 0.0f64;
    let mut prev_ana_done = 0.0f64;
    for k in 0..p.n_steps as usize {
        // Backpressure: cannot start computing step k's cycles before the
        // analytics has drained step k - queue_depth.
        let accept = if k >= p.queue_depth { ana_done[k - p.queue_depth] } else { 0.0 };
        let start = prev_produce.max(accept);
        stall_total += start - prev_produce;
        let produced = start + step_compute + p.io_visible_s;
        produce_done[k] = produced;
        prev_produce = produced;

        let move_done = produced + p.movement_s;
        let ana_start = move_done.max(prev_ana_done);
        ana_done[k] = ana_start + p.analytics_s;
        ana_busy += p.analytics_s;
        prev_ana_done = ana_done[k];
    }
    let _ = p.movement_async; // same recurrence; asynchrony is reflected in
                              // how callers fold interference into
                              // `sim_cycle_s` vs `io_visible_s`.
    let total = prev_produce.max(prev_ana_done);
    let ana_span = prev_ana_done;
    PipelineReport {
        total_s: total,
        sim_compute_s: p.n_steps as f64 * step_compute,
        sim_io_s: p.n_steps as f64 * p.io_visible_s,
        sim_stall_s: stall_total,
        movement_s: p.n_steps as f64 * p.movement_s,
        analytics_busy_s: ana_busy,
        analytics_idle_s: (ana_span - ana_busy).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PipelineParams {
        PipelineParams {
            n_steps: 10,
            cycles_per_step: 2,
            sim_cycle_s: 1.0,
            io_visible_s: 0.1,
            movement_s: 0.2,
            movement_async: true,
            analytics_s: 0.5,
            queue_depth: 2,
        }
    }

    #[test]
    fn fast_analytics_never_stalls_simulation() {
        let r = simulate_pipeline(&base());
        assert_eq!(r.sim_stall_s, 0.0);
        // Total ≈ sim time + tail of the last step's movement+analytics.
        let sim_span = 10.0 * 2.1;
        assert!(r.total_s >= sim_span);
        assert!(r.total_s <= sim_span + 0.2 + 0.5 + 1e-9);
    }

    #[test]
    fn slow_analytics_backpressures() {
        let mut p = base();
        p.analytics_s = 5.0; // much slower than the 2.1 s production period
        let r = simulate_pipeline(&p);
        assert!(r.sim_stall_s > 0.0, "simulation must stall");
        // Steady state is analytics-bound: total ≈ n × analytics.
        assert!(r.total_s >= 10.0 * 5.0);
        assert!(r.analytics_idle_s < r.total_s * 0.2);
    }

    #[test]
    fn deeper_queue_reduces_stall() {
        let mut p = base();
        p.analytics_s = 3.0;
        p.queue_depth = 1;
        let shallow = simulate_pipeline(&p);
        p.queue_depth = 4;
        let deep = simulate_pipeline(&p);
        assert!(deep.sim_stall_s <= shallow.sim_stall_s);
        assert!(deep.total_s <= shallow.total_s + 1e-9);
    }

    #[test]
    fn idle_fraction_of_overprovisioned_analytics() {
        // Analytics much faster than production → mostly idle (the
        // paper's 67% idle observation for conservative allocation).
        let mut p = base();
        p.analytics_s = 0.3;
        let r = simulate_pipeline(&p);
        assert!(r.analytics_idle_fraction() > 0.5, "{}", r.analytics_idle_fraction());
    }

    #[test]
    fn movement_extends_tail_only_when_pipeline_is_balanced() {
        let quick = simulate_pipeline(&base());
        let mut p = base();
        p.movement_s = 2.0;
        let slow_move = simulate_pipeline(&p);
        assert!(slow_move.total_s > quick.total_s);
    }

    #[test]
    fn zero_overhead_case_is_pure_compute() {
        let p = PipelineParams {
            n_steps: 5,
            cycles_per_step: 4,
            sim_cycle_s: 0.5,
            io_visible_s: 0.0,
            movement_s: 0.0,
            movement_async: true,
            analytics_s: 0.0,
            queue_depth: 2,
        };
        let r = simulate_pipeline(&p);
        assert!((r.total_s - 10.0).abs() < 1e-12);
        assert_eq!(r.sim_stall_s, 0.0);
    }

    #[test]
    fn conservation_of_time() {
        let r = simulate_pipeline(&base());
        // Simulation-side accounting: compute + io + stall == produce end.
        let accounted = r.sim_compute_s + r.sim_io_s + r.sim_stall_s;
        assert!(accounted <= r.total_s + 1e-9);
    }
}
