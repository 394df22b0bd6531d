//! Criterion micro-benchmarks of the LIRA server-side algorithms and hot
//! paths. `adaptation/*` is the Criterion companion of Figure 14 (wall
//! clock of one full adaptation step); the rest cover the per-update and
//! per-lookup costs the paper argues are negligible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lira_core::prelude::*;
use lira_mobility::motion::DeadReckoner;
use lira_server::cq_engine::CqServer;
use lira_server::queue::UpdateQueue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn build_grid(alpha: usize, bounds: Rect, seed: u64) -> StatsGrid {
    let mut grid = StatsGrid::new(alpha, bounds).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    grid.begin_snapshot();
    for _ in 0..10_000 {
        let (cx, cy, sigma) = match rng.gen_range(0..4) {
            0 => (0.3, 0.3, 0.05),
            1 => (0.7, 0.6, 0.08),
            2 => (0.2, 0.8, 0.04),
            _ => (0.5, 0.5, 0.5),
        };
        let x = (cx + sigma * (rng.gen::<f64>() - 0.5)).clamp(0.0, 0.999);
        let y = (cy + sigma * (rng.gen::<f64>() - 0.5)).clamp(0.0, 0.999);
        grid.observe_node(
            &Point::new(x * bounds.width(), y * bounds.height()),
            rng.gen_range(3.0..30.0),
            1.0,
        );
    }
    for _ in 0..100 {
        let x = rng.gen_range(0.0..0.9) * bounds.width();
        let y = rng.gen_range(0.0..0.9) * bounds.height();
        grid.observe_query(&Rect::from_coords(x, y, x + 1000.0, y + 1000.0));
    }
    grid.commit_snapshot();
    grid
}

fn bounds() -> Rect {
    Rect::from_coords(0.0, 0.0, 14_142.0, 14_142.0)
}

/// Figure 14 companion: the full adaptation step at paper parameters.
fn bench_adaptation(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptation");
    group.sample_size(20);
    for (l, alpha) in [(100usize, 64usize), (250, 128), (1000, 256)] {
        let grid = build_grid(alpha, bounds(), 7);
        let mut config = LiraConfig::default();
        config.bounds = bounds();
        config.num_regions = l;
        config.alpha = alpha;
        let shedder = LiraShedder::new(config, 1000).unwrap();
        group.bench_function(BenchmarkId::from_parameter(format!("l{l}_a{alpha}")), |b| {
            b.iter(|| {
                let a = shedder.adapt_with_throttle(black_box(&grid), 0.5).unwrap();
                black_box(a.plan.len())
            })
        });
    }
    group.finish();
}

/// GRIDREDUCE alone (stage I + II).
fn bench_grid_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_reduce");
    group.sample_size(30);
    let model = ReductionModel::analytic(5.0, 100.0, 95);
    for (l, alpha) in [(100usize, 64usize), (250, 128), (1000, 256)] {
        let grid = build_grid(alpha, bounds(), 7);
        let params = GridReduceParams::new(l, 0.5, 50.0, true);
        group.bench_function(BenchmarkId::from_parameter(format!("l{l}_a{alpha}")), |b| {
            b.iter(|| {
                black_box(
                    grid_reduce(black_box(&grid), &model, &params)
                        .unwrap()
                        .regions
                        .len(),
                )
            })
        });
    }
    group.finish();
}

/// GREEDYINCREMENT alone over l regions.
fn bench_greedy_increment(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_increment");
    let model = ReductionModel::analytic(5.0, 100.0, 95);
    let mut rng = SmallRng::seed_from_u64(3);
    for l in [100usize, 250, 1000, 4000] {
        let regions: Vec<RegionInput> = (0..l)
            .map(|_| {
                RegionInput::new(
                    rng.gen_range(0.0..200.0),
                    if rng.gen_bool(0.3) {
                        rng.gen_range(0.0..5.0)
                    } else {
                        0.0
                    },
                    rng.gen_range(3.0..30.0),
                )
            })
            .collect();
        let params = GreedyParams {
            throttle: 0.5,
            fairness: 50.0,
            use_speed: true,
        };
        group.bench_function(BenchmarkId::from_parameter(l), |b| {
            b.iter(|| black_box(greedy_increment(black_box(&regions), &model, &params).steps))
        });
    }
    group.finish();
}

/// The mobile node's hot path: throttler lookup in a deployed plan.
fn bench_plan_lookup(c: &mut Criterion) {
    let grid = build_grid(128, bounds(), 7);
    let mut config = LiraConfig::default();
    config.bounds = bounds();
    let shedder = LiraShedder::new(config, 1000).unwrap();
    let plan = shedder.adapt_with_throttle(&grid, 0.5).unwrap().plan;
    let mut rng = SmallRng::seed_from_u64(5);
    let points: Vec<Point> = (0..1024)
        .map(|_| Point::new(rng.gen_range(0.0..14_142.0), rng.gen_range(0.0..14_142.0)))
        .collect();
    c.bench_function("plan_lookup/1024_points", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(plan.throttler_at(black_box(&points[i])))
        })
    });
}

/// Update-efficiency comparison: TPR-tree vs grid for position updates
/// and range queries (the paper cites the TPR-tree as the update-efficient
/// index family LIRA complements).
fn bench_tpr_tree(c: &mut Criterion) {
    use lira_server::tpr_tree::{MovingPoint, TprTree};
    let mut rng = SmallRng::seed_from_u64(13);
    let points: Vec<MovingPoint> = (0..10_000u32)
        .map(|n| MovingPoint {
            node: n,
            time: 0.0,
            origin: Point::new(rng.gen_range(0.0..14_142.0), rng.gen_range(0.0..14_142.0)),
            velocity: (rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0)),
        })
        .collect();
    let mut tree = TprTree::new(60.0);
    for p in &points {
        tree.update(*p);
    }
    c.bench_function("tpr_tree/update", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % points.len();
            tree.update(black_box(points[i]));
        })
    });
    let mut out = Vec::new();
    c.bench_function("tpr_tree/range_query_1km", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % points.len();
            let p = points[i].origin;
            let range = Rect::from_coords(p.x, p.y, p.x + 1000.0, p.y + 1000.0);
            out.clear();
            tree.query_into(black_box(&range), 30.0, &mut out);
            black_box(out.len())
        })
    });
}

/// The server's hot path: a position update through `CqServer::ingest`
/// (the node store plus the unified engine's per-node state).
fn bench_server_ingest(c: &mut Criterion) {
    let mut server = CqServer::new(bounds(), 10_000);
    let mut rng = SmallRng::seed_from_u64(9);
    let moves: Vec<(u32, Point)> = (0..10_000u32)
        .map(|n| {
            (
                n,
                Point::new(rng.gen_range(0.0..14_142.0), rng.gen_range(0.0..14_142.0)),
            )
        })
        .collect();
    c.bench_function("cq_server/ingest", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let (n, p) = moves[i % moves.len()];
            // A fresh report time each pass, so no update reads as stale.
            let t = (i / moves.len()) as f64;
            server.ingest(black_box(n), t, black_box(p), (1.0, 0.0))
        })
    });
}

/// The mobile node's per-tick cost: one dead-reckoning observation.
fn bench_dead_reckoning(c: &mut Criterion) {
    let mut reckoner = DeadReckoner::new();
    let mut t = 0.0;
    c.bench_function("dead_reckoning/observe", |b| {
        b.iter(|| {
            t += 1.0;
            // A gently curving trajectory that reports occasionally.
            let p = Point::new(10.0 * t, 30.0 * (t / 40.0).sin());
            black_box(reckoner.observe(0, t, black_box(p), (10.0, 0.5), 25.0))
        })
    });
}

/// The input queue under load: offer + drain batches.
fn bench_queue(c: &mut Criterion) {
    c.bench_function("queue/offer_service_100", |b| {
        let mut queue: UpdateQueue<u64> = UpdateQueue::new(10_000);
        b.iter(|| {
            for i in 0..100u64 {
                queue.offer(black_box(i));
            }
            black_box(queue.service_at(100).len())
        })
    });
}

/// Statistics-grid maintenance: the constant-time per-update observation.
fn bench_stats_grid(c: &mut Criterion) {
    let mut grid = StatsGrid::new(128, bounds()).unwrap();
    grid.begin_snapshot();
    let mut rng = SmallRng::seed_from_u64(11);
    let points: Vec<Point> = (0..4096)
        .map(|_| Point::new(rng.gen_range(0.0..14_142.0), rng.gen_range(0.0..14_142.0)))
        .collect();
    c.bench_function("stats_grid/observe_node", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 4095;
            grid.observe_node(black_box(&points[i]), 12.0, 1.0);
        })
    });
}

criterion_group!(
    benches,
    bench_adaptation,
    bench_grid_reduce,
    bench_greedy_increment,
    bench_plan_lookup,
    bench_server_ingest,
    bench_tpr_tree,
    bench_dead_reckoning,
    bench_queue,
    bench_stats_grid,
);
criterion_main!(benches);
