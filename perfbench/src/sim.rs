//! The `sim-paper` workload: `SimPipeline` on the paper's Table 2 world
//! (`Scenario::paper`: 10k nodes, ≈200 km², l = 250, α = 128, z = 0.5)
//! with the measured window shortened to 600 s, LIRA lane only.

use std::time::Instant;

use lira_core::telemetry::TelemetrySnapshot;
use lira_sim::pipeline::SimPipeline;
use lira_sim::runner::Policy;
use lira_workload::scenario::Scenario;

use crate::stats::hist_sum_s;

/// The measured window (s): long enough for ≈10 s runs on two hardware
/// threads, short enough to repeat a run inside one benchmark invocation.
pub const PAPER_WINDOW_S: f64 = 600.0;

/// The `sim-paper` scenario for `seed`.
pub fn paper(seed: u64) -> Scenario {
    Scenario {
        duration_s: PAPER_WINDOW_S,
        ..Scenario::paper(seed)
    }
}

/// A seconds-scale stand-in with the same shape, for the self-test.
pub fn smoke(seed: u64) -> Scenario {
    Scenario::small(seed)
}

/// What one pipeline run produced and how long its stages took.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Wall time of `SimPipeline::run`, measured around the call (s).
    pub wall_s: f64,
    /// The pipeline's own stage timers (exact sums, s); zero when the
    /// pipeline ran without telemetry.
    pub setup_s: f64,
    /// Trace recording stage (s).
    pub trace_s: f64,
    /// Reference replay stage (s).
    pub reference_s: f64,
    /// Policy lane stage (s).
    pub lanes_s: f64,
    /// LIRA's mean position error E^P_rr (m).
    pub pos_err_m: f64,
    /// LIRA's mean containment error E^C_rr.
    pub contain_err: f64,
    /// Updates the reference server ingested.
    pub reference_updates: u64,
    /// Updates the LIRA lane's server ingested.
    pub lane_updates: u64,
    /// Planner time per adaptation, from the lane's exact samples (µs).
    pub adapt_micros: Vec<u64>,
    /// GRIDREDUCE gain evaluations (lane counter).
    pub gain_evals: u64,
    /// GREEDYINCREMENT steps (lane counter).
    pub greedy_steps: u64,
}

impl SimRun {
    /// The system's own work on the recorded trace: the reference replay
    /// and the LIRA lane (s). Setup and trace recording build the inputs:
    /// the road network, the warmed-up traffic and its 600 s of motion.
    pub fn replay_s(&self) -> f64 {
        self.reference_s + self.lanes_s
    }

    /// Position updates the pipeline's two engines absorbed per
    /// wall-second of the run after setup.
    pub fn ingest_ups(&self) -> f64 {
        (self.reference_updates + self.lane_updates) as f64 / (self.wall_s - self.setup_s)
    }

    /// The accuracy pair, compared bit-for-bit between runs of one seed.
    pub fn accuracy_bits(&self) -> (u64, u64) {
        (self.pos_err_m.to_bits(), self.contain_err.to_bits())
    }

    /// Wall time no pipeline stage covers (s).
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - (self.setup_s + self.trace_s + self.reference_s + self.lanes_s)
    }
}

fn counter(s: &TelemetrySnapshot, name: &str) -> u64 {
    s.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Runs the LIRA lane over `sc`, rebalancing pinned off.
pub fn run(sc: &Scenario, telemetry: bool) -> SimRun {
    let pipeline = SimPipeline::new()
        .with_rebalance(false)
        .with_telemetry(telemetry);
    let started = Instant::now();
    let report = pipeline.run(sc, &[Policy::Lira]);
    let wall_s = started.elapsed().as_secs_f64();
    let lane = &report.outcomes[0];
    let p = &report.pipeline_telemetry;
    SimRun {
        wall_s,
        setup_s: hist_sum_s(p, "pipeline.setup_us").0,
        trace_s: hist_sum_s(p, "pipeline.trace_us").0,
        reference_s: hist_sum_s(p, "pipeline.reference_us").0,
        lanes_s: hist_sum_s(p, "pipeline.lanes_us").0,
        pos_err_m: lane.metrics.mean_position,
        contain_err: lane.metrics.mean_containment,
        reference_updates: report.reference_updates,
        lane_updates: lane.updates_processed,
        adapt_micros: lane.adapt_micros.clone(),
        gain_evals: counter(&lane.telemetry, "grid_reduce.gain_evals"),
        greedy_steps: counter(&lane.telemetry, "greedy.steps"),
    }
}
