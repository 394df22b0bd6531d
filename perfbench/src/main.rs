//! `lira-perfbench`: the repository's benchmark. One command runs one
//! named workload, prints every metric by name and unit, checks that the
//! program's outputs are correct, and ends with one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-ingest|sim-paper> --seed N \
//!     --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from a separate traced run. The served end-to-end
//! runs have no tracing; `sim-paper`'s run with the pipeline's telemetry
//! on, which it needs to read `pipeline.setup_us`.
//! See `perfbench/README.md` for why each workload exists and which layer
//! metric moves which end-to-end metric.

mod served;
mod sim;
mod stats;

use std::time::Instant;

use lira_serve::storm::StormReport;
use served::{ServedSpec, TcpRun};
use stats::{median, peak_rss_mb, percentile_lines, Admission};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeIngest,
    SimPaper,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::ServeIngest, Workload::SimPaper];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeIngest => "serve-ingest",
            Workload::SimPaper => "sim-paper",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn served_spec(self, smoke: bool) -> Option<ServedSpec> {
        let nodes = if smoke { 20_000 } else { 1_000_000 };
        match self {
            Workload::ServeIngest => Some(ServedSpec::ingest(nodes, if smoke { 20 } else { 120 })),
            Workload::SimPaper => None,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Shrinks every workload to seconds: the self-test's scale, never set
    /// from the command line.
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one invocation measured.
#[derive(Debug)]
struct Outcome {
    /// Human-readable lines: configuration, then every metric with its
    /// unit and sample count.
    lines: Vec<String>,
    /// The metrics of the final JSON line.
    metrics: Vec<Metric>,
    /// Correctness failures (empty = correct).
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|x| {
                // JSON has no NaN; `run` fails any such metric.
                let value = if x.value.is_finite() {
                    x.value.to_string()
                } else {
                    "null".into()
                };
                format!(
                    r#""{}": {{"value": {value}, "unit": "{}"}}"#,
                    x.name, x.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Hardware threads of this host (the served session's shard count).
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn provenance(args: &Args) -> Vec<String> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    vec![
        format!(
            "# workload={} seed={} seconds={} trace={} scale={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            if args.smoke { "smoke" } else { "full" }
        ),
        format!(
            "# git_head={} profile={} hardware_threads={} LIRA_REBALANCE={} LIRA_TEST_SHARDS={} \
             (shards pinned to hardware threads, rebalance pinned off)",
            git_head(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            hardware_threads(),
            env("LIRA_REBALANCE"),
            env("LIRA_TEST_SHARDS"),
        ),
    ]
}

/// Why a workload could not run.
type BoxError = Box<dyn std::error::Error>;

/// Runs one workload. `Err` means it could not run at all (no result is
/// printed); correctness failures come back inside the outcome.
fn run(args: &Args) -> Result<Outcome, BoxError> {
    let mut out = match (args.workload.served_spec(args.smoke), args.trace) {
        (Some(spec), false) => served_e2e(&spec, args),
        (Some(spec), true) => served_layers(&spec, args),
        (None, false) => sim_e2e(args),
        (None, true) => sim_layers(args),
    }?;
    for x in &out.metrics {
        if !x.value.is_finite() {
            out.failures.push(format!("{} is not finite", x.name));
        }
    }
    let mut lines = provenance(args);
    lines.append(&mut out.lines);
    out.lines = lines;
    Ok(out)
}

/// Every per-layer metric with its unit, in report order. Every workload
/// prints all of them; a layer the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 27] = [
    ("trace.wall_s", "s"),
    ("session.build_s", "s"),
    ("storm.client_s", "s"),
    ("protocol.encode_s", "s"),
    ("protocol.decode_s", "s"),
    ("protocol.bytes", "bytes"),
    ("session.batch_s", "s"),
    ("session.eval_s", "s"),
    ("session.window_s", "s"),
    ("session.drain_s", "s"),
    ("session.control_s", "s"),
    ("cq_engine.round_s", "s"),
    ("queue.admitted", "count"),
    ("queue.dropped", "count"),
    ("queue.admit_ratio", "ratio"),
    ("queue.drop_frac", "ratio"),
    ("policy.adapt_ms", "ms"),
    ("unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("pipeline.setup_s", "s"),
    ("pipeline.trace_s", "s"),
    ("pipeline.reference_s", "s"),
    ("pipeline.lanes_s", "s"),
    ("grid_reduce.gain_evals", "count"),
    ("greedy_increment.steps", "count"),
    ("lane.pos_err_m", "m"),
    ("lane.contain_err", "ratio"),
];

/// [`PER_LAYER`] with `measured` filled in and the rest zero.
fn per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|x| x.name == name)
                .cloned()
                .unwrap_or_else(|| m(name, 0.0, unit))
        })
        .collect()
}

fn metric_lines(metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|x| format!("{} = {} {}", x.name, x.value, x.unit))
        .collect()
}

fn elapsed_s(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Correctness checks over every storm of one served invocation.
#[derive(Default)]
struct ServedChecks {
    failures: Vec<String>,
    protocol_errors: u64,
}

impl ServedChecks {
    /// The report must balance, carry no protocol error, and have the
    /// same deterministic core as `reference`.
    fn check(
        &mut self,
        label: &str,
        report: &StormReport,
        reference: &str,
    ) -> Result<Admission, String> {
        let core = report.deterministic_core();
        let a = Admission::from_core(&core)?;
        let sent = report.updates_sent;
        self.protocol_errors += a.protocol_errors;
        if !a.balances(sent) {
            self.failures.push(format!(
                "{label}: report does not balance against {sent} sent: {a:?}"
            ));
        }
        if a.protocol_errors != 0 {
            self.failures
                .push(format!("{label}: {} protocol errors", a.protocol_errors));
        }
        if core != reference {
            self.failures.push(format!(
                "{label}: deterministic core differs from the first storm's"
            ));
        }
        Ok(a)
    }
}

/// Extra storms of the served workloads that stop after the prime
/// (`rounds = 0`): cheap set-ups that steady the `setup_s` median.
const SETUP_ONLY_STORMS: usize = 5;

fn served_e2e(spec: &ServedSpec, args: &Args) -> Result<Outcome, BoxError> {
    let shards = hardware_threads();
    let server = served::ServerThread::start();
    let tcp = |spec: &ServedSpec| served::run_tcp(&server, spec, shards, args.seed);
    // The process's first 1M-node storm pays first-touch page faults that
    // later ones reuse: it is the warm-up, checked but not timed. The twin
    // runs last, on the client thread, whose freed memory it reuses.
    let warmup = tcp(spec)?;
    let started = Instant::now();
    let mut runs: Vec<TcpRun> = Vec::new();
    while runs.len() < 3 || elapsed_s(started) < args.seconds {
        runs.push(tcp(spec)?);
    }
    let setup_only = ServedSpec { rounds: 0, ..*spec };
    let primes = (0..SETUP_ONLY_STORMS)
        .map(|_| tcp(&setup_only))
        .collect::<Result<Vec<_>, _>>()?;
    server.stop()?;
    let (twin_wall, twin) = served::run_untraced(spec, shards, args.seed)?;

    let reference = warmup.report.deterministic_core();
    let mut checks = ServedChecks::default();
    let a = checks.check("warm-up storm", &warmup.report, &reference)?;
    let mut ingest = Vec::new();
    let mut lines = vec![format!(
        "# 1 warm-up tcp storm, {} tcp storms, {SETUP_ONLY_STORMS} prime-only tcp storms, \
         1 in-process twin ({twin_wall:.3} s); nodes={} space_m={:.0} rounds={} query_side_m={:.0} eval_every={} \
         window_every={} shards={shards}",
        runs.len(),
        spec.nodes,
        spec.space_m,
        spec.rounds,
        spec.query_side,
        spec.eval_every,
        spec.window_every
    )];
    for (i, r) in runs.iter().enumerate() {
        let a = checks.check(&format!("tcp storm {i}"), &r.report, &reference)?;
        ingest.push(a.ingest_ups(r.wall_s));
        lines.push(format!(
            "storm {i}: setup_s = {} s, wall_s = {} s, ingest_ups = {} 1/s, eval_ms_p50 = {} ms, \
             window_ms_p50 = {} ms",
            r.setup_s,
            r.wall_s,
            a.ingest_ups(r.wall_s),
            median(&r.eval_ms),
            median(&r.window_ms)
        ));
    }
    let prime_core = primes[0].report.deterministic_core();
    for (i, r) in primes.iter().enumerate() {
        checks.check(&format!("prime-only storm {i}"), &r.report, &prime_core)?;
    }
    checks.check("in-process twin", &twin, &reference)?;
    let sent = runs[0].report.updates_sent;
    let eval: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.eval_ms.iter().copied())
        .collect();
    let window: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.window_ms.iter().copied())
        .collect();
    if eval.is_empty() || window.is_empty() {
        checks
            .failures
            .push("no evaluation or window samples".into());
    }
    let setups: Vec<f64> = runs.iter().chain(&primes).map(|r| r.setup_s).collect();
    let setup = median(&setups);
    let rss = peak_rss_mb().ok_or("peak RSS unavailable (/proc/self/status)")?;

    lines.extend([
        format!(
            "updates_sent = {sent} count (per storm; wire rate {:.0} 1/s)",
            median(
                &runs
                    .iter()
                    .map(|r| sent as f64 / r.wall_s)
                    .collect::<Vec<_>>()
            )
        ),
        format!("updates_admitted = {} count (per storm)", a.admitted),
        format!("updates_dropped = {} count (per storm)", a.dropped),
        format!("drop_frac = {} ratio", a.drop_frac(sent)),
        format!(
            "ingest_ups = {} 1/s (median of {} storms)",
            median(&ingest),
            runs.len()
        ),
    ]);
    lines.extend(percentile_lines("eval_ms", "ms", &eval));
    lines.extend(percentile_lines("window_ms", "ms", &window));
    lines.push(format!(
        "setup_s = {setup} s (median of {} set-ups)",
        setups.len()
    ));
    lines.push(format!("peak_rss_mb = {rss} MiB"));
    let metrics = vec![
        m("setup_s", setup, "s"),
        m("ingest_ups", median(&ingest), "1/s"),
        m("result_ms_p50", median(&eval), "ms"),
        m("peak_rss_mb", rss, "MiB"),
    ];
    let all = || std::iter::once(&warmup).chain(&runs).chain(&primes);
    Ok(Outcome {
        lines,
        metrics,
        failures: checks.failures,
        attempted: all().map(|r| r.frames_sent).sum(),
        failed: checks.protocol_errors,
    })
}

fn served_layers(spec: &ServedSpec, args: &Args) -> Result<Outcome, BoxError> {
    let shards = hardware_threads();
    // The tcp storm runs first and doubles as the warm-up.
    let started = Instant::now();
    let server = served::ServerThread::start();
    let tcp = served::run_tcp(&server, spec, shards, args.seed)?;
    server.stop()?;
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    while traced.is_empty() || elapsed_s(started) < args.seconds {
        traced.push(served::run_traced(spec, shards, args.seed)?);
        untraced.push(served::run_untraced(spec, shards, args.seed)?);
    }

    let reference = tcp.report.deterministic_core();
    let mut checks = ServedChecks::default();
    let a = checks.check("tcp storm", &tcp.report, &reference)?;
    for (i, t) in traced.iter().enumerate() {
        checks.check(&format!("traced storm {i}"), &t.report, &reference)?;
    }
    for (i, (_, r)) in untraced.iter().enumerate() {
        checks.check(&format!("untraced storm {i}"), r, &reference)?;
    }

    let med = |f: &dyn Fn(&served::Layers) -> f64| {
        median(&traced.iter().map(|t| f(&t.layers)).collect::<Vec<_>>())
    };
    let traced_wall = med(&|l| l.wall_s);
    let untraced_wall = median(&untraced.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    let attributed = med(&|l| l.attributed_frac());
    let measured = vec![
        m("trace.wall_s", traced_wall, "s"),
        m("session.build_s", med(&|l| l.session_build_s), "s"),
        m("storm.client_s", med(&|l| l.storm_client_s), "s"),
        m("protocol.encode_s", med(&|l| l.protocol_encode_s), "s"),
        m("protocol.decode_s", med(&|l| l.protocol_decode_s), "s"),
        m(
            "protocol.bytes",
            traced[0].layers.protocol_bytes as f64,
            "bytes",
        ),
        m("session.batch_s", med(&|l| l.session_batch_s), "s"),
        m("session.eval_s", med(&|l| l.session_eval_s), "s"),
        m("session.window_s", med(&|l| l.session_window_s), "s"),
        m("session.drain_s", med(&|l| l.session_drain_s()), "s"),
        m("session.control_s", med(&|l| l.session_control_s), "s"),
        m("cq_engine.round_s", med(&|l| l.engine_round_s), "s"),
        m("queue.admitted", a.admitted as f64, "count"),
        m("queue.dropped", a.dropped as f64, "count"),
        m("queue.admit_ratio", a.admit_ratio(), "ratio"),
        m(
            "queue.drop_frac",
            a.drop_frac(tcp.report.updates_sent),
            "ratio",
        ),
        m("policy.adapt_ms", med(&|l| l.adapt_ms()), "ms"),
        m("unattributed_s", med(&|l| l.unattributed_s()), "s"),
        m(
            "trace.overhead_frac",
            traced_wall / untraced_wall - 1.0,
            "ratio",
        ),
    ];
    let metrics = per_layer(measured);
    let mut lines = vec![format!(
        "# 1 tcp storm (also the warm-up), {} traced + {} untraced in-process storms; nodes={} rounds={} shards={shards}",
        traced.len(),
        untraced.len(),
        spec.nodes,
        spec.rounds
    )];
    lines.extend(metric_lines(&metrics));
    lines.push(format!(
        "attributed_frac = {attributed} ratio (named layers over traced wall; untraced wall \
         {untraced_wall:.3} s)"
    ));
    let attempted = tcp.frames_sent * (1 + traced.len() + untraced.len()) as u64;
    Ok(Outcome {
        lines,
        metrics,
        failures: checks.failures,
        attempted,
        failed: checks.protocol_errors,
    })
}

/// The worlds every `sim-paper` invocation measures. The set is fixed, so
/// every commit measures the same inputs however fast it runs; one
/// world's timings vary with its road network and hotspots by ≈10%.
const SIM_WORLDS: u64 = 3;

/// The scenario seed of world `i`. World 0 is `--seed` itself; distinct
/// seeds below 2^32 never share a world.
fn world_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i << 32)
}

fn sim_scenario(args: &Args, i: u64) -> lira_workload::scenario::Scenario {
    let seed = world_seed(args.seed, i);
    if args.smoke {
        sim::smoke(seed)
    } else {
        sim::paper(seed)
    }
}

/// Accuracy must be finite, and runs of one world must agree bit-for-bit.
fn check_sim(same_world: &[&sim::SimRun], failures: &mut Vec<String>) {
    for r in same_world {
        if !(r.pos_err_m.is_finite() && r.contain_err.is_finite()) {
            failures.push(format!("accuracy is not finite ({r:?})"));
        }
        if r.accuracy_bits() != same_world[0].accuracy_bits() {
            failures.push(format!(
                "one seed gave accuracy ({}, {}) and then ({}, {})",
                same_world[0].pos_err_m, same_world[0].contain_err, r.pos_err_m, r.contain_err
            ));
        }
    }
}

/// Runs world 0 once as the warm-up, then the fixed world set
/// ([`SIM_WORLDS`]) in round-robin order, one run at a time, until
/// `--seconds` have passed and every world has run at least once. Each
/// figure is the median over the worlds of each world's median. Every
/// run of a world, the warm-up included, must agree bit-for-bit.
fn sim_e2e(args: &Args) -> Result<Outcome, BoxError> {
    let worlds: Vec<_> = (0..SIM_WORLDS).map(|i| sim_scenario(args, i)).collect();
    let warmup = sim::run(&worlds[0], true);
    let started = Instant::now();
    let mut runs: Vec<Vec<sim::SimRun>> = vec![Vec::new(); worlds.len()];
    let mut count = 0;
    while count < worlds.len() || elapsed_s(started) < args.seconds {
        let i = count % worlds.len();
        runs[i].push(sim::run(&worlds[i], true));
        count += 1;
    }
    let mut failures = Vec::new();
    for (i, world_runs) in runs.iter().enumerate() {
        let warm = (i == 0).then_some(&warmup);
        check_sim(
            &warm.into_iter().chain(world_runs).collect::<Vec<_>>(),
            &mut failures,
        );
    }
    let over_worlds = |f: &dyn Fn(&sim::SimRun) -> f64| {
        let per_world: Vec<f64> = runs
            .iter()
            .map(|world_runs| median(&world_runs.iter().map(f).collect::<Vec<_>>()))
            .collect();
        median(&per_world)
    };
    let setup = over_worlds(&|r| r.setup_s);
    let ingest = over_worlds(&|r| r.ingest_ups());
    let result_ms = over_worlds(&|r| r.wall_s * 1e3);
    let all_result_ms: Vec<f64> = runs.iter().flatten().map(|r| r.wall_s * 1e3).collect();
    let rss = peak_rss_mb().ok_or("peak RSS unavailable (/proc/self/status)")?;
    let sc = &worlds[0];
    let mut lines = vec![format!(
        "# 1 warm-up run of world 0, then {count} runs over {} worlds in turn; nodes={} \
         duration_s={} regions={} alpha={} z={}",
        worlds.len(),
        sc.num_cars,
        sc.duration_s,
        sc.num_regions,
        sc.alpha,
        sc.throttle
    )];
    for (i, world_runs) in runs.iter().enumerate() {
        for (k, r) in world_runs.iter().enumerate() {
            lines.push(format!(
                "world {i} (seed {}) run {k}: pos_err_m = {} m, contain_err = {} ratio, \
                 sim_s = {} s, setup_s = {} s, trace_s = {} s, replay_s = {} s, adapt_ms = {:?}",
                world_seed(args.seed, i as u64),
                r.pos_err_m,
                r.contain_err,
                r.wall_s,
                r.setup_s,
                r.trace_s,
                r.replay_s(),
                r.adapt_micros
                    .iter()
                    .map(|&us| us as f64 / 1e3)
                    .collect::<Vec<_>>()
            ));
        }
    }
    let of_worlds = format!("median over {} worlds of each world's median", worlds.len());
    lines.push(format!("sim_s = {} s ({of_worlds})", result_ms / 1e3));
    lines.extend(percentile_lines("result_ms", "ms", &all_result_ms));
    lines.push(format!("ingest_ups = {ingest} 1/s ({of_worlds})"));
    lines.push(format!("setup_s = {setup} s ({of_worlds})"));
    lines.push(format!("peak_rss_mb = {rss} MiB"));
    let metrics = vec![
        m("setup_s", setup, "s"),
        m("ingest_ups", ingest, "1/s"),
        m("result_ms_p50", result_ms, "ms"),
        m("peak_rss_mb", rss, "MiB"),
    ];
    Ok(Outcome {
        lines,
        metrics,
        attempted: all_result_ms.len() as u64 + 1,
        failed: failures.len() as u64,
        failures,
    })
}

fn sim_layers(args: &Args) -> Result<Outcome, BoxError> {
    let sc = sim_scenario(args, 0);
    let started = Instant::now();
    let warmup = sim::run(&sc, false);
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    while traced.is_empty() || elapsed_s(started) < args.seconds {
        traced.push(sim::run(&sc, true));
        untraced.push(sim::run(&sc, false));
    }
    let mut failures = Vec::new();
    let all = std::iter::once(&warmup).chain(&traced).chain(&untraced);
    check_sim(&all.collect::<Vec<_>>(), &mut failures);
    let med = |f: &dyn Fn(&sim::SimRun) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let traced_wall = med(&|r| r.wall_s);
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let r0 = &traced[0];
    let adapt_ms = med(&|r| {
        r.adapt_micros.iter().sum::<u64>() as f64 / 1e3 / r.adapt_micros.len().max(1) as f64
    });
    let measured = vec![
        m("trace.wall_s", traced_wall, "s"),
        m("pipeline.setup_s", med(&|r| r.setup_s), "s"),
        m("pipeline.trace_s", med(&|r| r.trace_s), "s"),
        m("pipeline.reference_s", med(&|r| r.reference_s), "s"),
        m("pipeline.lanes_s", med(&|r| r.lanes_s), "s"),
        m("grid_reduce.gain_evals", r0.gain_evals as f64, "count"),
        m("greedy_increment.steps", r0.greedy_steps as f64, "count"),
        m("lane.pos_err_m", r0.pos_err_m, "m"),
        m("lane.contain_err", r0.contain_err, "ratio"),
        m("policy.adapt_ms", adapt_ms, "ms"),
        m("unattributed_s", med(&|r| r.unattributed_s()), "s"),
        m(
            "trace.overhead_frac",
            traced_wall / untraced_wall - 1.0,
            "ratio",
        ),
    ];
    let metrics = per_layer(measured);
    let mut lines = vec![format!(
        "# 1 warm-up run, then {} runs with pipeline telemetry + {} without; nodes={} duration_s={}",
        traced.len(),
        untraced.len(),
        sc.num_cars,
        sc.duration_s
    )];
    lines.extend(metric_lines(&metrics));
    Ok(Outcome {
        lines,
        metrics,
        attempted: (traced.len() + untraced.len()) as u64,
        failed: failures.len() as u64,
        failures,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lira-perfbench: {e}");
            eprintln!(
                "usage: lira-perfbench --workload <serve-ingest|sim-paper> --seed N \
                 --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lira-perfbench: {} did not run: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    for l in &out.lines {
        println!("{l}");
    }
    for f in &out.failures {
        eprintln!("INCORRECT: {f}");
    }
    println!("{}", out.json());
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lira_core::telemetry::json::Json;

    const END_TO_END: [&str; 4] = ["setup_s", "ingest_ups", "result_ms_p50", "peak_rss_mb"];

    fn smoke(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 3,
            seconds: 0.01,
            trace,
            smoke: true,
        }
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|x| {
                x.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = names(spec.get("workloads").unwrap());
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(names(spec.get("end_to_end").unwrap()), END_TO_END);
        let layers: Vec<&str> = PER_LAYER.iter().map(|x| x.0).collect();
        assert_eq!(names(spec.get("per_layer").unwrap()), layers);
    }

    #[test]
    fn every_workload_reports_every_metric_at_smoke_scale() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let out = run(&smoke(w, trace)).expect("the workload runs");
                let tag = format!("{} trace={trace}", w.name());
                assert!(out.failures.is_empty(), "{tag}: {:?}", out.failures);
                let got: Vec<&str> = out.metrics.iter().map(|x| x.name).collect();
                if trace {
                    let want: Vec<&str> = PER_LAYER.iter().map(|x| x.0).collect();
                    assert_eq!(got, want, "{tag}");
                } else {
                    assert_eq!(got, END_TO_END, "{tag}");
                    for x in &out.metrics {
                        assert!(x.value > 0.0, "{tag}: {} = {}", x.name, x.value);
                    }
                }
                let json = Json::parse(&out.json()).expect("the result line is JSON");
                assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
                assert!(json.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
                assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
                for x in &out.metrics {
                    let v = json
                        .get("metrics")
                        .and_then(|m| m.get(x.name))
                        .expect(x.name);
                    assert_eq!(
                        v.get("value").and_then(Json::as_f64),
                        Some(x.value),
                        "{tag}"
                    );
                    assert_eq!(v.get("unit").and_then(Json::as_str), Some(x.unit), "{tag}");
                }
                assert!(
                    out.lines.iter().any(|l| l.starts_with("# git_head=")),
                    "{tag}"
                );
            }
        }
    }

    #[test]
    fn traced_served_layers_cover_the_wall_time() {
        let spec = Workload::ServeIngest.served_spec(true).unwrap();
        let run = served::run_traced(&spec, 2, 5).unwrap();
        let l = &run.layers;
        assert!(l.attributed_frac() >= 0.95, "{l:?}");
        assert!(l.engine_round_s > 0.0 && l.engine_round_s <= l.session_eval_s);
        assert!(l.adapt_count > 0 && l.adapt_s <= l.session_window_s);
    }

    #[test]
    fn flags_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload sim-paper --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace, ok.smoke),
            (Workload::SimPaper, 4, true, false)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sim-paper --seed 1 --seconds 0 --trace 0",
            "--workload sim-paper --seed 1 --seconds 1 --trace 2",
            "--workload sim-paper --seconds 1 --trace 0",
            "--workload sim-paper --seed 1 --seconds 1 --trace 0 --fast",
            "--workload sim-paper --seed 1 --seconds 1 --trace 0 --smoke",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
