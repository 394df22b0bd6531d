//! `exp_shard` — scaling of the unified engine's column stripes.
//!
//! Benchmarks `EvalEngine::Unified` at shard counts 1/2/4/8 — with
//! load-aware striping and the online re-striper enabled — against the
//! sweep baseline (`with_dirty_tracking(false)` — the round structure of
//! the retired inverted engine, which walked every stored node each
//! round; the JSON keeps its `inverted` keys for schema stability) on
//! two churning populations:
//!
//! * **uniform** — the classic seeded scatter with uniformly placed
//!   queries; stripes carry near-equal load and the re-striper should
//!   stay quiet;
//! * **hotspot** — 80 % of the fleet squeezed into a drifting band a
//!   tenth of the space wide, with Proportional query placement
//!   (DESIGN.md §15). Uniform stripe boundaries collapse to one hot
//!   shard here; this is the scenario the load model and the online
//!   re-striper exist for.
//!
//! Before timing, each scale cross-checks every shard count against the
//! baseline for equal results — a benchmark of a wrong engine is
//! worthless (and this doubles as a rebalance-on bit-identity check at
//! benchmark scale).
//!
//! ```text
//! exp_shard [--quick] [--assert] [--min-speedup X] [--mono-tol X] [--churn F] [--out PATH]
//! ```
//!
//! * default: the full ladder up to 1 000 000 nodes × 10 000 queries
//!   (the monitored space grows with √nodes so density stays constant),
//!   both scenarios per scale;
//! * `--quick` — the hotspot scenario at two scales (including the
//!   100 000-node rung), for the CI perf-smoke step;
//! * `--churn F` — fraction of nodes re-reporting between evaluation
//!   rounds (default 0.05);
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_shard.json` in the current directory);
//! * `--assert` — exit nonzero unless (a) at every scale and scenario,
//!   `speedup_vs_shard1` is monotone in the shard count within
//!   `--mono-tol` (default 0.6 — each rung must keep at least that
//!   fraction of the previous rung's speedup; the slack absorbs the
//!   stripe-maintenance and budgeted rebalance-pause overhead a
//!   single-core host pays with no parallel win to offset it — measured
//!   up to ~0.65 on the 1→2-shard rung at mid scales — and on any host
//!   it absorbs timing noise at the sub-10 µs scales), and
//!   (b) at the largest
//!   scale of each scenario, unified `evaluate` at 4 shards is at least
//!   `--min-speedup`× (default 1.0×) faster than the sweep baseline.
//!
//! What the numbers mean: a benchmark round is churn-ingest + evaluate
//! at an unchanged evaluation time, the steady-state round of a CQ
//! server between timestamp advances. The baseline's sweep round walks
//! every stored node; the unified engine's dirty round touches only the
//! re-reported ones (plus the emit copy), which is where the single-core
//! speedup comes from. Worker threads add parallelism on multi-core
//! hosts but are *not* required for the win — on a single-core host the
//! engine detects the core count and stays sequential, so the
//! `speedup_vs_shard1` curve is flat (≈1.0) rather than monotonically
//! rising, which the `--mono-tol` gate still accepts. `shards = 1`
//! measures the pure dirty-tracking gain (`speedup_vs_shard1` isolates
//! the striping gain on top of it). Results are bit-identical across
//! shard counts and across rebalances (`shard_equiv.rs`,
//! `restripe_equiv.rs`). Peak RSS per scale is the process high-water
//! mark, cumulative up to that rung of the ladder.

use criterion::{black_box, Criterion};
use lira_bench::{peak_rss_bytes, ChurnWorkload};
use lira_core::geometry::{Point, Rect};
use lira_core::telemetry::json::Json;
use lira_server::prelude::*;
use lira_workload::churn::HotspotSpec;
use lira_workload::{generate_queries, QueryDistribution, WorkloadConfig};

/// Monitored space at the reference scale (10 000 nodes): the paper's
/// 10 km × 10 km region. Larger scales grow the side with √nodes.
const SPACE_M: f64 = 10_000.0;
/// Reference node count for the space scaling.
const REF_NODES: f64 = 10_000.0;
/// Default churn fraction per round (see `--churn`).
const CHURN_FRAC: f64 = 0.05;
/// Shard counts under test.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Query side length (m): small enough coverage per query that the emit
/// copy does not drown the round-structure signal at the top scales.
const QUERY_SIDE: f64 = 500.0;

/// The two churning populations each scale runs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scen {
    Uniform,
    Hotspot,
}

impl Scen {
    fn name(self) -> &'static str {
        match self {
            Scen::Uniform => "uniform",
            Scen::Hotspot => "hotspot",
        }
    }

    /// Query placement: hotspot queries follow the (skewed) population,
    /// as a real deployment's demand would.
    fn distribution(self) -> QueryDistribution {
        match self {
            Scen::Uniform => QueryDistribution::Random,
            Scen::Hotspot => QueryDistribution::Proportional,
        }
    }

    fn workload(self, num_nodes: usize, churn_frac: f64, space_m: f64) -> ChurnWorkload {
        match self {
            Scen::Uniform => ChurnWorkload::new(num_nodes, 7, churn_frac, space_m),
            Scen::Hotspot => ChurnWorkload::with_hotspot(
                num_nodes,
                7,
                churn_frac,
                space_m,
                HotspotSpec::default(),
            ),
        }
    }
}

/// Space side for a node count: constant density from the reference
/// scale up, never below the paper's 10 km.
fn space_for(num_nodes: usize) -> f64 {
    SPACE_M * (num_nodes as f64 / REF_NODES).max(1.0).sqrt()
}

fn make_server(
    num_nodes: usize,
    space_m: f64,
    queries: &[RangeQuery],
    engine: EvalEngine,
) -> CqServer {
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let mut server = CqServer::new(bounds, num_nodes)
        .with_engine(engine)
        .with_rebalance(rebalance_from_env(true));
    server.register_queries(queries.iter().copied());
    server
}

/// Cross-checks every shard count (rebalance on) against the sweep
/// baseline before timing, on the exact workload pattern the timing loop
/// replays.
fn verify_engines_agree(
    scen: Scen,
    num_nodes: usize,
    space_m: f64,
    queries: &[RangeQuery],
    churn_frac: f64,
) {
    let mut base =
        make_server(num_nodes, space_m, queries, EvalEngine::default()).with_dirty_tracking(false);
    let mut w_base = scen.workload(num_nodes, churn_frac, space_m);
    w_base.prime(&mut base);
    let mut striped: Vec<(usize, CqServer, ChurnWorkload)> = SHARD_COUNTS
        .iter()
        .map(|&s| {
            let mut server = make_server(
                num_nodes,
                space_m,
                queries,
                EvalEngine::Unified { shards: s },
            );
            let w = scen.workload(num_nodes, churn_frac, space_m);
            w.prime(&mut server);
            (s, server, w)
        })
        .collect();
    for round in 0..5 {
        w_base.step(&mut base);
        let want = base.evaluate(0.5);
        for (s, server, w) in &mut striped {
            w.step(server);
            assert_eq!(
                server.evaluate(0.5),
                want,
                "unified({s}) disagrees with the sweep baseline ({} {num_nodes} nodes, round \
                 {round})",
                scen.name()
            );
        }
    }
}

/// Runs one benchmark and returns its mean ns/iter from the shim.
fn bench_one(c: &mut Criterion, label: String, mut f: impl FnMut(&mut criterion::Bencher)) -> f64 {
    c.bench_function(label, &mut f);
    c.results().last().expect("benchmark just ran").1
}

/// Times the steady-state round (churn + evaluate) for one server.
fn bench_engine(
    c: &mut Criterion,
    label: String,
    scen: Scen,
    num_nodes: usize,
    space_m: f64,
    server: CqServer,
    churn_frac: f64,
) -> (f64, Option<Vec<ShardStats>>, Option<RestripeStats>) {
    let mut server = server;
    let mut workload = scen.workload(num_nodes, churn_frac, space_m);
    workload.prime(&mut server);
    let mut results = Vec::new();
    let ns = bench_one(c, label, |b: &mut criterion::Bencher| {
        b.iter(|| {
            workload.step(&mut server);
            server.evaluate_into(0.5, &mut results);
            black_box(results.len())
        });
    });
    (ns, server.shard_stats(), server.restripe_stats())
}

struct StripedRow {
    shards: usize,
    ns: f64,
    handoffs: u64,
    restripes: u64,
    moved_cols: u64,
}

struct ScaleResult {
    scenario: &'static str,
    nodes: usize,
    queries: usize,
    space_m: f64,
    peak_rss_bytes: u64,
    /// Sweep-baseline round time (kept under its historical JSON name
    /// `inverted_ns`).
    baseline_ns: f64,
    striped: Vec<StripedRow>,
}

impl ScaleResult {
    fn shard1_ns(&self) -> f64 {
        self.striped
            .iter()
            .find(|r| r.shards == 1)
            .map(|r| r.ns)
            .unwrap_or(f64::NAN)
    }
}

fn bench_scale(
    c: &mut Criterion,
    scen: Scen,
    num_nodes: usize,
    num_queries: usize,
    churn_frac: f64,
) -> ScaleResult {
    let space_m = space_for(num_nodes);
    let bounds = Rect::from_coords(0.0, 0.0, space_m, space_m);
    let node_positions: Vec<Point> = scen.workload(num_nodes, churn_frac, space_m).positions;
    let cfg = WorkloadConfig {
        distribution: scen.distribution(),
        count: num_queries,
        side_length: QUERY_SIDE,
        seed: 11,
    };
    let queries = generate_queries(&bounds, &node_positions, &cfg);
    verify_engines_agree(scen, num_nodes, space_m, &queries, churn_frac);

    let tag = format!("{}/{num_nodes}x{num_queries}", scen.name());
    let (baseline_ns, _, _) = bench_engine(
        c,
        format!("evaluate/baseline/{tag}"),
        scen,
        num_nodes,
        space_m,
        make_server(num_nodes, space_m, &queries, EvalEngine::default()).with_dirty_tracking(false),
        churn_frac,
    );
    let striped: Vec<StripedRow> = SHARD_COUNTS
        .iter()
        .map(|&s| {
            let (ns, stats, restripe) = bench_engine(
                c,
                format!("evaluate/unified{s}/{tag}"),
                scen,
                num_nodes,
                space_m,
                make_server(
                    num_nodes,
                    space_m,
                    &queries,
                    EvalEngine::Unified { shards: s },
                ),
                churn_frac,
            );
            let handoffs = stats
                .expect("unified engine reports stats")
                .iter()
                .map(|st| st.handoffs)
                .sum();
            let rs = restripe.expect("unified engine reports restripe stats");
            println!(
                "evaluate_speedup_{}_{num_nodes}x{num_queries}_shards{s}={:.2} restripes={}",
                scen.name(),
                baseline_ns / ns.max(1e-9),
                rs.restripes
            );
            StripedRow {
                shards: s,
                ns,
                handoffs,
                restripes: rs.restripes,
                moved_cols: rs.moved_cols,
            }
        })
        .collect();
    let peak_rss = peak_rss_bytes();
    println!(
        "peak_rss_bytes_{}_{num_nodes}x{num_queries}={peak_rss}",
        scen.name()
    );
    ScaleResult {
        scenario: scen.name(),
        nodes: num_nodes,
        queries: queries.len(),
        space_m,
        peak_rss_bytes: peak_rss,
        baseline_ns,
        striped,
    }
}

fn report_json(mode: &str, churn_frac: f64, scales: &[ScaleResult]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str("exp_shard".into())),
        ("mode".into(), Json::Str(mode.into())),
        ("churn_frac".into(), Json::Float(churn_frac)),
        ("query_side_m".into(), Json::Float(QUERY_SIDE)),
        (
            "scales".into(),
            Json::Arr(
                scales
                    .iter()
                    .map(|s| {
                        let shard1_ns = s.shard1_ns();
                        Json::Obj(vec![
                            ("scenario".into(), Json::Str(s.scenario.into())),
                            ("nodes".into(), Json::UInt(s.nodes as u64)),
                            ("queries".into(), Json::UInt(s.queries as u64)),
                            ("space_m".into(), Json::Float(s.space_m)),
                            ("peak_rss_bytes".into(), Json::UInt(s.peak_rss_bytes)),
                            ("inverted_ns".into(), Json::Float(s.baseline_ns)),
                            (
                                "sharded".into(),
                                Json::Arr(
                                    s.striped
                                        .iter()
                                        .map(|r| {
                                            Json::Obj(vec![
                                                ("shards".into(), Json::UInt(r.shards as u64)),
                                                ("evaluate_ns".into(), Json::Float(r.ns)),
                                                (
                                                    "speedup_vs_inverted".into(),
                                                    Json::Float(s.baseline_ns / r.ns.max(1e-9)),
                                                ),
                                                (
                                                    "speedup_vs_shard1".into(),
                                                    Json::Float(shard1_ns / r.ns.max(1e-9)),
                                                ),
                                                ("handoffs".into(), Json::UInt(r.handoffs)),
                                                ("restripes".into(), Json::UInt(r.restripes)),
                                                ("moved_cols".into(), Json::UInt(r.moved_cols)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `--assert` gates: per-scale monotonicity of `speedup_vs_shard1`
/// within tolerance, plus the historical 4-shard floor against the sweep
/// baseline at each scenario's largest scale.
fn run_asserts(scales: &[ScaleResult], min_speedup: f64, mono_tol: f64) -> Result<(), String> {
    for s in scales {
        let shard1_ns = s.shard1_ns();
        let mut prev: Option<(usize, f64)> = None;
        for r in &s.striped {
            let sp = shard1_ns / r.ns.max(1e-9);
            if let Some((ps, psp)) = prev {
                if sp < psp * mono_tol {
                    return Err(format!(
                        "speedup_vs_shard1 not monotone at {} {}x{}: {ps} shards {psp:.2}x → \
                         {} shards {sp:.2}x (tolerance {mono_tol})",
                        s.scenario, s.nodes, s.queries, r.shards
                    ));
                }
            }
            prev = Some((r.shards, sp));
        }
    }
    for scenario in ["uniform", "hotspot"] {
        let Some(largest) = scales.iter().rfind(|s| s.scenario == scenario) else {
            continue;
        };
        let four = largest
            .striped
            .iter()
            .find(|r| r.shards == 4)
            .expect("4-shard cell benched");
        let speedup = largest.baseline_ns / four.ns.max(1e-9);
        if speedup < min_speedup {
            return Err(format!(
                "unified(4) evaluate speedup {speedup:.2}x below required {min_speedup:.2}x at \
                 {scenario} {}x{}",
                largest.nodes, largest.queries
            ));
        }
        println!(
            "PASS: unified(4) evaluate {speedup:.2}x faster than the sweep baseline at {scenario} \
             {}x{}",
            largest.nodes, largest.queries
        );
    }
    println!("PASS: speedup_vs_shard1 monotone within {mono_tol} at every scale");
    Ok(())
}

fn main() {
    let mut quick = false;
    let mut do_assert = false;
    let mut min_speedup = 1.0f64;
    let mut mono_tol = 0.6f64;
    let mut churn_frac = CHURN_FRAC;
    let mut out_path = String::from("BENCH_shard.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--assert" => do_assert = true,
            "--min-speedup" => {
                min_speedup = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--min-speedup needs a factor"));
            }
            "--mono-tol" => {
                mono_tol = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--mono-tol needs a factor"));
            }
            "--churn" => {
                churn_frac = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--churn needs a fraction"));
            }
            "--out" => {
                out_path = it.next().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--help" | "-h" => usage(
                "exp_shard [--quick] [--assert] [--min-speedup X] [--mono-tol X] [--churn F] \
                 [--out PATH]",
            ),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    // Quick mode runs the skewed scenario only (that's the hard case the
    // re-striper must win), and must keep a 100 000-node rung — below
    // ~100k the dirty set is too small for the parallel step path to
    // engage at all.
    let (mode, runs): (&str, Vec<(Scen, usize, usize)>) = if quick {
        (
            "quick",
            vec![(Scen::Hotspot, 2_000, 100), (Scen::Hotspot, 100_000, 2_000)],
        )
    } else {
        let ladder = [
            (10_000, 400),
            (100_000, 2_000),
            (250_000, 4_000),
            (1_000_000, 10_000),
        ];
        (
            "full",
            ladder
                .iter()
                .flat_map(|&(n, q)| [(Scen::Uniform, n, q), (Scen::Hotspot, n, q)])
                .collect(),
        )
    };
    println!(
        "== exp_shard: load-aware unified stripes vs sweep baseline, {mode} ladder ({} runs, \
         shards {:?}, {:.0}% churn/round, rebalance on)",
        runs.len(),
        SHARD_COUNTS,
        churn_frac * 100.0
    );

    let mut criterion = Criterion::default();
    let scales: Vec<ScaleResult> = runs
        .iter()
        .map(|&(scen, n, q)| bench_scale(&mut criterion, scen, n, q, churn_frac))
        .collect();

    let json = report_json(mode, churn_frac, &scales);
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_shard.json");
    println!("report={out_path}");

    if do_assert {
        if let Err(msg) = run_asserts(&scales, min_speedup, mono_tol) {
            eprintln!("FAIL: {msg}");
            std::process::exit(1);
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
