//! The composable simulation pipeline behind
//! [`run_scenario`](crate::runner::run_scenario).
//!
//! A scenario run decomposes into stages with explicit data products:
//!
//! 1. [`SimSetup`] — road network, traffic demand, a warmed-up (and
//!    optionally model-calibrating) [`TrafficSimulator`], and the query
//!    workload. Shared by the fixed-`z` runner and the closed-loop
//!    [`run_adaptive`](crate::adaptive::run_adaptive).
//! 2. [`TrafficTrace`] — the measured window's car states, recorded once.
//!    The trace is the *only* coupling between the traffic model and the
//!    servers, so every downstream lane sees byte-identical inputs.
//! 3. [`ReferenceTimeline`] — the `Δ⊢` reference server replayed over the
//!    trace: its update count, and per evaluation round its query results
//!    and per-node predicted positions (the paper's `R*(q)` and `p*(o)`).
//! 4. N independent policy lanes — each owns its CQ server, dead
//!    reckoners, statistics grid, policy (a
//!    [`SheddingPolicy`] trait object), and metrics accumulator. Lanes
//!    share the trace and reference read-only, so with two or more
//!    policies they run on scoped threads ([`std::thread::scope`], no
//!    extra dependencies).
//!
//! Lane results are deterministic regardless of execution mode: each lane
//! derives its RNG from the scenario seed and its policy index
//! (`seed + 1000 + index`, the same rule the sequential runner always
//! used), and touches no shared mutable state — so a parallel run is
//! bit-identical to [`Parallelism::Sequential`], which exists for tests
//! and debugging.

use std::time::Instant;

use lira_core::config::LiraConfig;
use lira_core::geometry::{Point, Rect};
use lira_core::plan::SheddingPlan;
use lira_core::policy::{RoundFeedback, SheddingPolicy};
use lira_core::reduction::ReductionModel;
use lira_core::stats_grid::StatsGrid;
use lira_mobility::generator::{generate_network, NetworkConfig};
use lira_mobility::motion::DeadReckoner;
use lira_mobility::simulator::{TrafficConfig, TrafficSimulator};
use lira_server::channel::FaultyChannel;
use lira_server::cq_engine::{rebalance_from_env, CqServer, EvalEngine};
use lira_server::query::{QueryResult, RangeQuery};
use lira_workload::scenario::PhaseSchedule;
use lira_workload::{generate_queries, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{FaultReport, MetricsAccumulator};
use crate::runner::{Policy, PolicyOutcome, RunReport};
use crate::scenario::Scenario;
use crate::telemetry::{LaneTelemetry, PipelineTelemetry};

/// How policy lanes are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One scoped thread per lane when two or more policies are evaluated.
    #[default]
    Auto,
    /// Lanes run one after another on the calling thread. Produces
    /// bit-identical results to [`Parallelism::Auto`]; useful for tests
    /// and single-threaded profiling.
    Sequential,
}

/// Stage 1: everything the measured window depends on — validated config,
/// reduction model (analytic or trace-calibrated), warmed-up traffic, and
/// the query workload.
pub struct SimSetup {
    /// Validated LIRA configuration derived from the scenario.
    pub config: LiraConfig,
    /// The monitored space.
    pub bounds: Rect,
    /// The update-reduction model `f(Δ)`.
    pub model: ReductionModel,
    /// The traffic simulator, already past `warmup_s`.
    pub sim: TrafficSimulator,
    /// The scenario's demand-phase schedule, advanced through warmup and
    /// consumed by [`record_trace`](Self::record_trace) (or by a caller
    /// driving `sim` itself — apply before every step).
    pub phases: PhaseSchedule,
    /// The registered continual queries.
    pub queries: Vec<RangeQuery>,
}

impl SimSetup {
    /// Builds the substrate for a scenario. When `calibrate` is set the
    /// analytic `f(Δ)` is replaced by one measured from a cloned traffic
    /// probe (the clone leaves the measured run untouched).
    pub fn build(sc: &Scenario, calibrate: bool) -> Self {
        let config = sc.lira_config();
        config
            .validate()
            .expect("scenario produces a valid LiraConfig");
        sc.validate()
            .expect("scenario extensions (phases/fleet/dead zones) validate");
        let bounds = sc.bounds();
        let model = ReductionModel::analytic(sc.delta_min, sc.delta_max, config.kappa());

        let network = generate_network(&NetworkConfig {
            bounds,
            spacing: sc.road_spacing,
            arterial_period: sc.arterial_period,
            expressway_period: sc.expressway_period,
            jitter_frac: 0.2,
            dead_zones: sc.dead_zones.clone(),
            seed: sc.seed,
        });
        let demand = sc.base_demand();
        let mut sim = TrafficSimulator::new(
            network,
            &demand,
            TrafficConfig {
                num_cars: sc.num_cars,
                seed: sc.seed,
            },
        );
        if let Some(scales) = sc.fleet_speed_scales() {
            // Applied after spawning, so a heterogeneous fleet's RNG
            // streams stay aligned with the homogeneous baseline.
            sim.scale_speeds(|id| scales[id as usize]);
        }
        let mut phases = PhaseSchedule::new(sc);
        for _ in 0..(sc.warmup_s / sc.dt).round() as usize {
            phases.apply_due(&mut sim);
            sim.step(sc.dt);
        }

        let model = if calibrate {
            let mut probe = sim.clone();
            let trace = lira_mobility::trace::Trace::record(
                &mut probe,
                180.0_f64.min(sc.duration_s),
                sc.dt,
            );
            trace
                .calibrate_reduction(sc.delta_min, sc.delta_max, config.kappa(), 10)
                .expect("calibration trace produces updates")
        } else {
            model
        };

        let positions: Vec<_> = sim.cars().iter().map(|c| c.position()).collect();
        let queries = generate_queries(
            &bounds,
            &positions,
            &WorkloadConfig::from_ratio(
                sc.query_distribution,
                sc.num_cars,
                sc.query_ratio,
                sc.query_side,
                sc.seed,
            ),
        );

        SimSetup {
            config,
            bounds,
            model,
            sim,
            phases,
            queries,
        }
    }

    /// Advances the setup's simulator through the measured window,
    /// recording the traffic trace every downstream stage replays.
    /// Demand-phase switches scheduled inside the window fire here.
    pub fn record_trace(&mut self, sc: &Scenario) -> TrafficTrace {
        let total_ticks = (sc.duration_s / sc.dt).round() as usize;
        let phases = &mut self.phases;
        TrafficTrace::record_with(&mut self.sim, total_ticks, sc.dt, |sim| {
            phases.apply_due(sim)
        })
    }

    /// A CQ server over this setup's space with the workload registered,
    /// using the default [`EvalEngine`].
    pub fn new_server(&self, sc: &Scenario) -> CqServer {
        self.new_server_with(sc, EvalEngine::default())
    }

    /// A CQ server with the workload registered and an explicit engine.
    pub fn new_server_with(&self, sc: &Scenario, engine: EvalEngine) -> CqServer {
        self.new_server_opts(sc, engine, false, false)
    }

    /// [`new_server_with`](Self::new_server_with), optionally forcing
    /// every evaluation phase onto the calling thread and/or enabling
    /// the online re-striper. [`Parallelism::Sequential`] passes
    /// `sequential_eval = true` so a "sequential" pipeline run spawns no
    /// threads anywhere — not even inside the unified engine (which is
    /// bit-identical either way); `rebalance` switches the unified
    /// engine to load-aware boundaries plus online re-striping (also
    /// bit-identical — see `restripe_equiv.rs`).
    pub fn new_server_opts(
        &self,
        sc: &Scenario,
        engine: EvalEngine,
        sequential_eval: bool,
        rebalance: bool,
    ) -> CqServer {
        let mut s = CqServer::new(self.bounds, sc.num_cars)
            .with_engine(engine)
            .with_sequential_eval(sequential_eval)
            .with_rebalance(rebalance);
        s.register_queries(self.queries.iter().copied());
        s
    }
}

/// One car's kinematic state at one trace tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarState {
    /// Position (m).
    pub position: Point,
    /// Velocity vector (m/s).
    pub velocity: (f64, f64),
}

impl CarState {
    /// Scalar speed (m/s).
    pub fn speed(&self) -> f64 {
        (self.velocity.0 * self.velocity.0 + self.velocity.1 * self.velocity.1).sqrt()
    }
}

/// Stage 2: the recorded traffic of the measured window, tick-major.
/// Tick 0 is the post-warmup snapshot (where the initial adaptation runs);
/// ticks `1..=ticks()` follow each simulation step.
pub struct TrafficTrace {
    num_cars: usize,
    times: Vec<f64>,
    states: Vec<CarState>,
}

impl TrafficTrace {
    /// Advances `sim` by `total_ticks` steps of `dt`, recording every car's
    /// state at every tick (including the starting state).
    pub fn record(sim: &mut TrafficSimulator, total_ticks: usize, dt: f64) -> Self {
        Self::record_with(sim, total_ticks, dt, |_| {})
    }

    /// [`record`](Self::record) with a hook invoked immediately before
    /// every step — the pipeline threads demand-phase switches through it
    /// (see [`PhaseSchedule::apply_due`]).
    pub fn record_with<F: FnMut(&mut TrafficSimulator)>(
        sim: &mut TrafficSimulator,
        total_ticks: usize,
        dt: f64,
        mut before_step: F,
    ) -> Self {
        let num_cars = sim.cars().len();
        let mut times = Vec::with_capacity(total_ticks + 1);
        let mut states = Vec::with_capacity((total_ticks + 1) * num_cars);
        let snapshot =
            |sim: &TrafficSimulator, times: &mut Vec<f64>, states: &mut Vec<CarState>| {
                times.push(sim.time());
                states.extend(sim.cars().iter().map(|c| CarState {
                    position: c.position(),
                    velocity: c.velocity(),
                }));
            };
        snapshot(sim, &mut times, &mut states);
        for _ in 0..total_ticks {
            before_step(sim);
            sim.step(dt);
            snapshot(sim, &mut times, &mut states);
        }
        TrafficTrace {
            num_cars,
            times,
            states,
        }
    }

    /// Number of recorded steps (excluding the starting snapshot).
    pub fn ticks(&self) -> usize {
        self.times.len() - 1
    }

    /// Number of cars per tick.
    pub fn num_cars(&self) -> usize {
        self.num_cars
    }

    /// Simulation time at `tick`.
    pub fn time(&self, tick: usize) -> f64 {
        self.times[tick]
    }

    /// All car states at `tick`.
    pub fn cars(&self, tick: usize) -> &[CarState] {
        &self.states[tick * self.num_cars..(tick + 1) * self.num_cars]
    }
}

/// One evaluation round of the reference server.
pub struct EvalFrame {
    /// The trace tick the round ran at.
    pub tick: usize,
    /// Simulation time of the round.
    pub time: f64,
    /// The reference result sets `R*(q)`, index-aligned with the queries.
    pub results: Vec<QueryResult>,
    /// The reference predicted position `p*(o)` per node id.
    pub predictions: Vec<Option<Point>>,
}

/// Stage 3: the `Δ⊢` reference server replayed over the trace — the
/// paper's definition of the correct answer, computed once and shared
/// read-only by every policy lane.
pub struct ReferenceTimeline {
    /// Updates the reference server received (the unshed volume).
    pub reference_updates: u64,
    /// One frame per evaluation round, in tick order.
    pub frames: Vec<EvalFrame>,
}

impl ReferenceTimeline {
    /// Replays the reference server (threshold `Δ⊢` everywhere) over the
    /// trace, evaluating every `sc.eval_period_s`.
    pub fn compute(trace: &TrafficTrace, setup: &SimSetup, sc: &Scenario) -> Self {
        Self::compute_with(trace, setup, sc, EvalEngine::default())
    }

    /// [`compute`](Self::compute) with an explicit evaluation engine.
    pub fn compute_with(
        trace: &TrafficTrace,
        setup: &SimSetup,
        sc: &Scenario,
        engine: EvalEngine,
    ) -> Self {
        Self::compute_opts(trace, setup, sc, engine, false, false)
    }

    /// [`compute_with`](Self::compute_with), optionally forcing the
    /// reference server's evaluation onto the calling thread and/or
    /// enabling the online re-striper (see
    /// [`SimSetup::new_server_opts`]).
    pub fn compute_opts(
        trace: &TrafficTrace,
        setup: &SimSetup,
        sc: &Scenario,
        engine: EvalEngine,
        sequential_eval: bool,
        rebalance: bool,
    ) -> Self {
        let mut server = setup.new_server_opts(sc, engine, sequential_eval, rebalance);
        let mut reckoners = vec![DeadReckoner::new(); trace.num_cars()];
        let eval_every = (sc.eval_period_s / sc.dt).round().max(1.0) as usize;
        let mut reference_updates = 0u64;
        let mut frames = Vec::new();

        for tick in 1..=trace.ticks() {
            let t = trace.time(tick);
            for (i, car) in trace.cars(tick).iter().enumerate() {
                if let Some(rep) =
                    reckoners[i].observe(i as u32, t, car.position, car.velocity, sc.delta_min)
                {
                    reference_updates += 1;
                    server.ingest(rep.node, t, rep.model.origin, rep.model.velocity);
                }
            }
            if tick % eval_every == 0 {
                let results = server.evaluate(t);
                let predictions = (0..trace.num_cars() as u32)
                    .map(|n| server.predict(n, t))
                    .collect();
                frames.push(EvalFrame {
                    tick,
                    time: t,
                    results,
                    predictions,
                });
            }
        }
        ReferenceTimeline {
            reference_updates,
            frames,
        }
    }
}

/// What one position update carries across the uplink: node id, motion
/// model origin, velocity, and the shedding-region index the sender was
/// in (`u32::MAX` when the plan resolved no region) — the last field
/// exists so per-region admission accounting survives the channel's
/// delay. Send time rides on the channel envelope.
type UplinkPayload = (u32, Point, (f64, f64), u32);

/// Region sentinel for "the plan had no region covering this position".
const NO_REGION: u32 = u32::MAX;

/// Stage 4: one policy's isolated simulation state. Owns everything it
/// mutates, so lanes can run on separate threads.
struct PolicyLane {
    policy: Policy,
    shedding: Box<dyn SheddingPolicy>,
    server: CqServer,
    reckoners: Vec<DeadReckoner>,
    grid: StatsGrid,
    plan: SheddingPlan,
    drop_rng: SmallRng,
    /// The uplink between this lane's dead reckoners and its server;
    /// `None` is the historical perfect channel.
    channel: Option<FaultyChannel<UplinkPayload>>,
    updates_sent: u64,
    updates_processed: u64,
    adapt_micros: Vec<u64>,
    accumulator: MetricsAccumulator,
    /// The lane's evaluation-round result buffer, reused across rounds
    /// (the unified engine writes into it without allocating).
    shed_results: Vec<QueryResult>,
    tel: LaneTelemetry,
    /// Updates admitted per plan region in the current plan epoch. Kept
    /// as plain vectors — maintained identically whether telemetry is
    /// enabled or not, so the lane does the same work either way.
    region_admitted: Vec<u64>,
    /// Updates shed (server-actuated admission drop) per plan region in
    /// the current plan epoch.
    region_shed: Vec<u64>,
    /// Accumulator totals at the previous evaluation round, so each
    /// round's error mass can be diffed out as policy feedback.
    prev_totals: (f64, f64),
    /// Per-node `Δ` caps for heterogeneous fleets (`None` = uncapped,
    /// the historical fast path).
    delta_caps: Option<Vec<f64>>,
    /// Where this epoch's server-actuated drops landed, on a fixed
    /// [`SKEW_GRID`]×[`SKEW_GRID`] partition of the monitored space. A
    /// *fixed* grid, not the plan's regions: Random Drop's plan is a
    /// single region, which would make its skew vacuously zero, and a
    /// plan-relative measure could not be compared across policies.
    skew_cells: Vec<u64>,
    /// The monitored space (for mapping drop positions to skew cells).
    bounds: Rect,
    /// Shed-volume-weighted sum of per-epoch shed-skew CoVs (numerator
    /// of [`PolicyOutcome::shed_skew`]).
    shed_skew_sum: f64,
    /// Total server-actuated drops across all epochs (its denominator).
    shed_skew_weight: f64,
    /// Sum and count of per-epoch plan-threshold CoVs (for
    /// [`PolicyOutcome::plan_skew`]).
    plan_skew_sum: f64,
    plan_epochs: u64,
}

/// Side of the fixed spatial grid used for shed-skew accounting (see
/// [`PolicyLane::skew_cells`]).
const SKEW_GRID: usize = 4;

/// Coefficient of variation (stddev/mean) of `values`; `0` when there are
/// fewer than two values or the mean is zero.
fn coefficient_of_variation(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let (mut n, mut sum) = (0u64, 0.0f64);
    for v in values.clone() {
        n += 1;
        sum += v;
    }
    if n < 2 || sum == 0.0 {
        return 0.0;
    }
    let mean = sum / n as f64;
    let var = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    var.sqrt() / mean
}

impl PolicyLane {
    /// Builds the lane for `policy` at position `index` in the run. The
    /// lane RNG seed is `scenario seed + 1000 + index`, matching the
    /// historical sequential runner so results stay reproducible; the
    /// channel RNG extends the same rule at offset 2000, keeping fault
    /// draws out of the admission stream (a faulty run perturbs traffic,
    /// never the drop decisions of an identically-seeded perfect run).
    #[allow(clippy::too_many_arguments)]
    fn new(
        policy: Policy,
        index: usize,
        setup: &SimSetup,
        sc: &Scenario,
        telemetry: bool,
        engine: EvalEngine,
        sequential_eval: bool,
        rebalance: bool,
    ) -> Self {
        PolicyLane {
            policy,
            shedding: policy.build(sc, &setup.config, &setup.model),
            server: setup.new_server_opts(sc, engine, sequential_eval, rebalance),
            reckoners: vec![DeadReckoner::new(); sc.num_cars],
            grid: StatsGrid::new(sc.alpha, setup.bounds).expect("valid grid"),
            plan: SheddingPlan::uniform(setup.bounds, sc.delta_min),
            drop_rng: SmallRng::seed_from_u64(sc.seed.wrapping_add(1000 + index as u64)),
            channel: sc.faults.clone().map(|profile| {
                FaultyChannel::new(profile, sc.seed.wrapping_add(2000 + index as u64))
            }),
            updates_sent: 0,
            updates_processed: 0,
            adapt_micros: Vec::new(),
            accumulator: MetricsAccumulator::new(setup.queries.len()),
            shed_results: Vec::new(),
            tel: LaneTelemetry::new(telemetry),
            region_admitted: Vec::new(),
            region_shed: Vec::new(),
            prev_totals: (0.0, 0.0),
            delta_caps: sc.fleet_delta_caps(),
            skew_cells: vec![0; SKEW_GRID * SKEW_GRID],
            bounds: setup.bounds,
            shed_skew_sum: 0.0,
            shed_skew_weight: 0.0,
            plan_skew_sum: 0.0,
            plan_epochs: 0,
        }
    }

    /// Records one server-actuated drop at the sender's reported origin
    /// for shed-skew accounting.
    fn bump_skew_cell(&mut self, p: &Point) {
        let k = SKEW_GRID as f64;
        let fx = ((p.x - self.bounds.min.x) / self.bounds.width() * k) as usize;
        let fy = ((p.y - self.bounds.min.y) / self.bounds.height() * k) as usize;
        let cell = fy.min(SKEW_GRID - 1) * SKEW_GRID + fx.min(SKEW_GRID - 1);
        self.skew_cells[cell] += 1;
    }

    /// Closes the current plan epoch's shed-skew accounting: the CoV of
    /// server-actuated drops across the fixed spatial grid, weighted by
    /// the epoch's drop volume (epochs that shed nothing contribute
    /// nothing), then resets the epoch counters.
    fn flush_shed_skew(&mut self) {
        let total: u64 = self.skew_cells.iter().sum();
        if total == 0 {
            return;
        }
        let cov = coefficient_of_variation(self.skew_cells.iter().map(|&c| c as f64));
        self.shed_skew_sum += cov * total as f64;
        self.shed_skew_weight += total as f64;
        self.skew_cells.iter_mut().for_each(|c| *c = 0);
    }

    /// One adaptation round: snapshot statistics from the tick's car
    /// states and the workload, then let the policy re-plan. Only the
    /// policy's own computation is timed (the paper's server-side cost).
    fn adapt(&mut self, cars: &[CarState], queries: &[RangeQuery], z: f64) {
        // Close out the outgoing plan's per-region epoch before replacing
        // it (the region indices are only meaningful against one plan).
        self.tel
            .flush_regions(&self.region_admitted, &self.region_shed);
        self.flush_shed_skew();
        self.grid.begin_snapshot();
        for car in cars {
            self.grid.observe_node(&car.position, car.speed(), 1.0);
        }
        for q in queries {
            self.grid.observe_query(&q.range);
        }
        self.grid.commit_snapshot();
        let started = Instant::now();
        self.plan = self
            .shedding
            .adapt(&self.grid, z)
            .expect("adaptation succeeds on a committed snapshot");
        let micros = started.elapsed().as_micros() as u64;
        self.adapt_micros.push(micros);
        self.plan_skew_sum +=
            coefficient_of_variation(self.plan.regions().iter().map(|r| r.throttler));
        self.plan_epochs += 1;
        self.tel
            .on_adapt(micros, z, self.shedding.last_cost(), &self.plan);
        self.tel.on_utility(self.shedding.utility_scores());
        self.region_admitted.clear();
        self.region_admitted.resize(self.plan.len(), 0);
        self.region_shed.clear();
        self.region_shed.resize(self.plan.len(), 0);
    }

    /// Bumps a per-region epoch counter, ignoring the [`NO_REGION`]
    /// sentinel and indices from a superseded plan.
    fn bump_region(counts: &mut [u64], region: u32) {
        if let Some(slot) = counts.get_mut(region as usize) {
            *slot += 1;
        }
    }

    /// Replays the lane over the whole trace and produces its outcome.
    fn run(
        mut self,
        trace: &TrafficTrace,
        reference: &ReferenceTimeline,
        queries: &[RangeQuery],
        sc: &Scenario,
    ) -> PolicyOutcome {
        let total_ticks = trace.ticks();
        let adapt_every = (sc.adapt_period_s / sc.dt).round().max(1.0) as usize;
        let admission = self.shedding.admission(sc.throttle);

        self.adapt(trace.cars(0), queries, sc.throttle);
        let mut next_frame = 0usize;

        for tick in 1..=total_ticks {
            let t = trace.time(tick);
            for (i, car) in trace.cars(tick).iter().enumerate() {
                // One lookup resolves both the throttler and the region
                // index (identical cost to the old `throttler_at` path).
                let (region, delta) = self.plan.region_at(&car.position);
                let region = region.map_or(NO_REGION, |r| r as u32);
                // Heterogeneous fleets cap the plan's threshold per node
                // (a pedestrian's consumers reject wide Δ).
                let delta = match &self.delta_caps {
                    Some(caps) => delta.min(caps[i]),
                    None => delta,
                };
                if let Some(rep) =
                    self.reckoners[i].observe(i as u32, t, car.position, car.velocity, delta)
                {
                    self.updates_sent += 1;
                    self.tel.on_sent();
                    match &mut self.channel {
                        // Perfect channel: the historical inline path.
                        // Server-actuated policies (Random Drop) admit
                        // only a fraction of the arrivals; the wireless
                        // cost is already paid at this point.
                        None => {
                            if admission >= 1.0 || self.drop_rng.gen_bool(admission) {
                                self.updates_processed += 1;
                                self.tel.on_admitted();
                                Self::bump_region(&mut self.region_admitted, region);
                                self.server.ingest(
                                    rep.node,
                                    t,
                                    rep.model.origin,
                                    rep.model.velocity,
                                );
                            } else {
                                self.tel.on_shed();
                                Self::bump_region(&mut self.region_shed, region);
                                self.bump_skew_cell(&rep.model.origin);
                            }
                        }
                        // The sender's true position is declared so
                        // regional outages (failed base stations) can
                        // match it; without regional outages in the
                        // profile this is bit-identical to plain `send`.
                        Some(ch) => ch.send_from(
                            t,
                            car.position,
                            (rep.node, rep.model.origin, rep.model.velocity, region),
                        ),
                    }
                }
            }
            if let Some(ch) = &mut self.channel {
                for d in ch.poll(t) {
                    // Admission is drawn per arrival: server-actuated
                    // drops happen at the input queue, after the wireless
                    // hop. A zero-fault profile delivers same-tick in
                    // send order, so the draw sequence is identical to
                    // the perfect-channel path above.
                    let (node, origin, velocity, region) = d.payload;
                    if admission >= 1.0 || self.drop_rng.gen_bool(admission) {
                        // Ingest at *send* time: delayed copies arrive
                        // stale, and the node store's per-node reorder
                        // guard (not this loop) decides what still
                        // applies — duplicates and overtaken reports
                        // fall out there.
                        if self.server.ingest(node, d.sent_at, origin, velocity) {
                            self.updates_processed += 1;
                            self.tel.on_admitted();
                            Self::bump_region(&mut self.region_admitted, region);
                        }
                    } else {
                        self.tel.on_shed();
                        Self::bump_region(&mut self.region_shed, region);
                        self.bump_skew_cell(&origin);
                    }
                }
            }

            if tick % adapt_every == 0 && tick != total_ticks {
                self.adapt(trace.cars(tick), queries, sc.throttle);
            }

            if reference
                .frames
                .get(next_frame)
                .is_some_and(|f| f.tick == tick)
            {
                let frame = &reference.frames[next_frame];
                self.server.evaluate_into(t, &mut self.shed_results);
                let server = &self.server;
                self.accumulator.record_round(
                    &frame.results,
                    &self.shed_results,
                    |n| frame.predictions[n as usize],
                    |n| server.predict(n, t),
                );
                // Hand the round's realized error mass to feedback-aware
                // policies (a no-op for the feed-forward Section 4.2
                // policies, keeping their outcomes bit-identical).
                let (c_tot, p_tot) = self.accumulator.totals();
                let round_queries = frame.results.len().max(1) as f64;
                self.shedding.observe_round(&RoundFeedback {
                    position_error: (p_tot - self.prev_totals.1) / round_queries,
                    containment_error: (c_tot - self.prev_totals.0) / round_queries,
                    region_admitted: &self.region_admitted,
                    region_shed: &self.region_shed,
                    regions: self.plan.regions(),
                });
                self.prev_totals = (c_tot, p_tot);
                next_frame += 1;
            }
        }

        let faults = match &self.channel {
            Some(ch) => FaultReport::from_channel(ch.stats(), ch.pending()),
            None => FaultReport::default(),
        };
        self.tel
            .flush_regions(&self.region_admitted, &self.region_shed);
        self.flush_shed_skew();
        if let Some(ch) = &self.channel {
            self.tel.on_channel(&ch.stats());
        }
        // End-of-run per-shard accounting (unified engine): final
        // node ownership, cumulative round wall time, total handoffs,
        // and the online re-striper's migration counters.
        if let Some(stats) = self.server.shard_stats() {
            self.tel.on_shards(&stats);
        }
        if let Some(rs) = self.server.restripe_stats() {
            self.tel.on_restripe(&rs);
        }
        let telemetry = self.tel.snapshot(&format!("lane:{}", self.policy.name()));
        PolicyOutcome {
            policy: self.policy,
            metrics: self.accumulator.report(),
            faults,
            telemetry,
            updates_sent: self.updates_sent,
            updates_processed: self.updates_processed,
            processed_fraction: if reference.reference_updates > 0 {
                self.updates_processed as f64 / reference.reference_updates as f64
            } else {
                0.0
            },
            adapt_micros: self.adapt_micros,
            plan_regions: self.plan.len(),
            shed_skew: if self.shed_skew_weight > 0.0 {
                self.shed_skew_sum / self.shed_skew_weight
            } else {
                0.0
            },
            plan_skew: if self.plan_epochs > 0 {
                self.plan_skew_sum / self.plan_epochs as f64
            } else {
                0.0
            },
        }
    }
}

/// The composed pipeline: setup → trace → reference → policy lanes.
#[derive(Debug, Clone, Copy)]
pub struct SimPipeline {
    parallelism: Parallelism,
    telemetry: bool,
    engine: EvalEngine,
    rebalance: bool,
}

impl Default for SimPipeline {
    fn default() -> Self {
        SimPipeline {
            parallelism: Parallelism::default(),
            telemetry: true,
            engine: EvalEngine::default(),
            rebalance: rebalance_from_env(false),
        }
    }
}

impl SimPipeline {
    /// A pipeline with automatic lane parallelism and telemetry enabled.
    pub fn new() -> Self {
        SimPipeline::default()
    }

    /// Overrides how policy lanes are executed.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables or disables telemetry recording at runtime. Disabled
    /// lanes do identical simulation work and produce bit-identical
    /// policy outcomes; only the snapshots come back empty.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Selects the CQ evaluation engine used by the reference server and
    /// every policy lane. Every engine configuration yields bit-identical
    /// reports (asserted by `tests/pipeline.rs`).
    #[must_use]
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables or disables the unified engine's load-aware striping and
    /// online re-striper for the reference server and every policy lane
    /// (bit-identical either way — `restripe_equiv.rs`). The default
    /// follows the `LIRA_REBALANCE` environment variable (off when
    /// unset).
    #[must_use]
    pub fn with_rebalance(mut self, rebalance: bool) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Runs the scenario for the given policies and reports the comparison.
    pub fn run(&self, sc: &Scenario, policies: &[Policy]) -> RunReport {
        let ptel = PipelineTelemetry::new(self.telemetry);
        let stage = Instant::now();
        let mut setup = SimSetup::build(sc, sc.calibrate_model);
        ptel.on_setup(stage.elapsed().as_micros() as u64);
        let stage = Instant::now();
        let trace = setup.record_trace(sc);
        ptel.on_trace(stage.elapsed().as_micros() as u64);
        // Sequential mode means *no* spawned threads at all: lanes on the
        // calling thread, and unified evaluation phases inlined too.
        let sequential_eval = self.parallelism == Parallelism::Sequential;
        let stage = Instant::now();
        let reference = ReferenceTimeline::compute_opts(
            &trace,
            &setup,
            sc,
            self.engine,
            sequential_eval,
            self.rebalance,
        );
        ptel.on_reference(stage.elapsed().as_micros() as u64);

        let lanes: Vec<PolicyLane> = policies
            .iter()
            .enumerate()
            .map(|(i, &policy)| {
                PolicyLane::new(
                    policy,
                    i,
                    &setup,
                    sc,
                    self.telemetry,
                    self.engine,
                    sequential_eval,
                    self.rebalance,
                )
            })
            .collect();

        let stage = Instant::now();
        let run_parallel = self.parallelism == Parallelism::Auto && lanes.len() >= 2;
        let outcomes: Vec<PolicyOutcome> = if run_parallel {
            let (trace, reference, queries) = (&trace, &reference, &setup.queries[..]);
            std::thread::scope(|scope| {
                let handles: Vec<_> = lanes
                    .into_iter()
                    .map(|lane| scope.spawn(move || lane.run(trace, reference, queries, sc)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("policy lane panicked"))
                    .collect()
            })
        } else {
            lanes
                .into_iter()
                .map(|lane| lane.run(&trace, &reference, &setup.queries, sc))
                .collect()
        };
        ptel.on_lanes(stage.elapsed().as_micros() as u64);

        RunReport {
            reference_updates: reference.reference_updates,
            num_queries: setup.queries.len(),
            num_cars: sc.num_cars,
            outcomes,
            pipeline_telemetry: ptel.snapshot(),
        }
    }
}
