//! Property-based equivalence suite for the unified engine across shard
//! counts: unified at shards ∈ {1, 2, 3, 7, 8} (plus a pool-free
//! sequential run and the `LIRA_TEST_SHARDS` CI count) ≡ the
//! dirty-tracking-off baseline ≡ store scan ≡ brute force, for `evaluate`,
//! `evaluate_uncertain`, and `nearest`.
//!
//! Coordinates reuse the lattice trick from `eval_equiv.rs` — every
//! generated coordinate is a multiple of 62.5 m (binary-exact) over a
//! 1 km² space — and the dedicated boundary test pins the query count so
//! the evaluation grid has exactly 8 columns, making lattice points land
//! *exactly* on stripe boundaries for every tested shard count. Rounds
//! are evaluated twice per step (advancing `t`, then the same `t` again
//! after more ingests) so the engine's work-skipping dirty rounds are
//! exercised as hard as its full sweeps and handoffs.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use proptest::prelude::*;

/// The coordinate lattice unit (m); binary-exact.
const U: f64 = 62.5;
const NUM_NODES: usize = 24;
/// Shard counts under test: degenerate (1), even splits (2, 8 — at 8 the
/// boundary test's grid gives every shard exactly one column), uneven
/// splits that leave stripes of different widths (3, 7).
const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 7, 8];

fn bounds() -> Rect {
    Rect::from_coords(0.0, 0.0, 1000.0, 1000.0)
}

#[derive(Clone, Debug)]
struct Update {
    node: u32,
    t: f64,
    pos: Point,
    vel: (f64, f64),
}

fn updates(max: usize) -> impl Strategy<Value = Vec<Update>> {
    prop::collection::vec(
        (
            0u32..NUM_NODES as u32,
            0u32..5,
            -2i32..19,
            -2i32..19,
            -4i32..5,
            -2i32..3,
        )
            .prop_map(|(node, k, i, j, vi, vj)| Update {
                node,
                t: k as f64,
                pos: Point::new(i as f64 * U, j as f64 * U),
                // x-velocities reach ±25 m/s so nodes cross stripe
                // boundaries between rounds.
                vel: (vi as f64 * 6.25, vj as f64 * 6.25),
            }),
        1..max,
    )
}

fn query_set(max: usize) -> impl Strategy<Value = Vec<RangeQuery>> {
    prop::collection::vec(
        (-1i32..17, -1i32..17, 1i32..8, 1i32..8).prop_map(|(i, j, w, h)| {
            Rect::from_coords(
                i as f64 * U,
                j as f64 * U,
                (i + w) as f64 * U,
                (j + h) as f64 * U,
            )
        }),
        1..max,
    )
    .prop_map(|rects| {
        rects
            .into_iter()
            .enumerate()
            .map(|(id, range)| RangeQuery {
                id: id as u32,
                range,
            })
            .collect()
    })
}

/// `(model time, origin, velocity)` — the oracle's motion model.
type Model = (f64, Point, (f64, f64));

/// The brute-force oracle: last-writer-wins motion models with the node
/// store's exact staleness rule and the same prediction arithmetic,
/// evaluated by full scans.
#[derive(Clone)]
struct Oracle {
    models: Vec<Option<Model>>,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            models: vec![None; NUM_NODES],
        }
    }

    fn apply(&mut self, u: &Update) {
        let slot = &mut self.models[u.node as usize];
        if let Some((time, _, _)) = slot {
            if *time > u.t {
                return;
            }
        }
        *slot = Some((u.t, u.pos, u.vel));
    }

    fn predict(&self, node: usize, t: f64) -> Option<Point> {
        self.models[node].map(|(time, origin, vel)| {
            let dt = t - time;
            Point::new(origin.x + vel.0 * dt, origin.y + vel.1 * dt)
        })
    }

    fn evaluate(&self, queries: &[RangeQuery], t: f64) -> Vec<QueryResult> {
        queries
            .iter()
            .map(|q| QueryResult {
                query: q.id,
                nodes: (0..NUM_NODES)
                    .filter(|&n| self.predict(n, t).is_some_and(|p| q.range.contains(&p)))
                    .map(|n| n as u32)
                    .collect(),
            })
            .collect()
    }

    fn evaluate_uncertain(
        &self,
        queries: &[RangeQuery],
        t: f64,
        max_delta: f64,
        delta_of: impl Fn(u32, Point) -> f64,
    ) -> Vec<UncertainResult> {
        queries
            .iter()
            .map(|q| {
                let mut must = Vec::new();
                let mut maybe = Vec::new();
                for n in 0..NUM_NODES {
                    let Some(p) = self.predict(n, t) else {
                        continue;
                    };
                    let delta = delta_of(n as u32, p).clamp(0.0, max_delta);
                    if q.range.contains(&p) && q.range.interior_depth(&p) >= delta {
                        must.push(n as u32);
                    } else if q.range.distance_to_point(&p) <= delta {
                        maybe.push(n as u32);
                    }
                }
                UncertainResult {
                    query: q.id,
                    must,
                    maybe,
                }
            })
            .collect()
    }

    fn nearest(&self, center: Point, k: usize, t: f64) -> Vec<(u32, f64)> {
        let mut hits: Vec<(u32, f64)> = (0..NUM_NODES)
            .filter_map(|n| self.predict(n, t).map(|p| (n as u32, p.distance(&center))))
            .collect();
        hits.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        hits.truncate(k);
        hits
    }
}

/// Every engine configuration under test, fed identically: the two
/// reference servers (the dirty-tracking-off baseline — the retired
/// inverted engine's every-node incremental round — and the store-scan
/// reference), one pooled unified server per count in `SHARD_COUNTS`, one
/// forced onto the calling thread (sequential ≡ parallel), and one with
/// the CI matrix's `LIRA_TEST_SHARDS` count.
struct Fleet {
    baseline: CqServer,
    legacy: CqServer,
    unified: Vec<(usize, CqServer)>,
}

impl Fleet {
    fn new(queries: &[RangeQuery]) -> Self {
        let b = bounds();
        // The CI matrix's LIRA_REBALANCE leg runs the whole battery with
        // the online re-striper enabled on every unified server.
        let rb = rebalance_from_env(false);
        let mut unified: Vec<(usize, CqServer)> = SHARD_COUNTS
            .iter()
            .map(|&s| {
                (
                    s,
                    CqServer::new(b, NUM_NODES)
                        .with_engine(EvalEngine::Unified { shards: s })
                        .with_rebalance(rb),
                )
            })
            .collect();
        // Shards = 4 again, but with every phase on the calling thread:
        // must be bit-identical to the pooled run.
        unified.push((
            4,
            CqServer::new(b, NUM_NODES)
                .with_engine(EvalEngine::Unified { shards: 4 })
                .with_rebalance(rb)
                .with_sequential_eval(true),
        ));
        // The CI matrix leg (LIRA_TEST_SHARDS ∈ {4, 8}) widens coverage.
        unified.push((
            0, // label: env-selected
            CqServer::new(b, NUM_NODES).with_engine(EvalEngine::unified_from_env(4)),
        ));
        // Re-striper always on regardless of the environment (builder
        // order deliberately reversed vs the servers above: the flag must
        // survive `with_engine`'s state reset).
        unified.push((
            33, // label: shards = 3 with load-aware striping forced on
            CqServer::new(b, NUM_NODES)
                .with_rebalance(true)
                .with_engine(EvalEngine::Unified { shards: 3 }),
        ));
        let mut fleet = Fleet {
            baseline: CqServer::new(b, NUM_NODES).with_dirty_tracking(false),
            legacy: CqServer::new(b, NUM_NODES).with_engine(EvalEngine::Legacy),
            unified,
        };
        fleet.baseline.register_queries(queries.iter().copied());
        fleet.legacy.register_queries(queries.iter().copied());
        for (_, s) in &mut fleet.unified {
            s.register_queries(queries.iter().copied());
        }
        fleet
    }

    fn ingest(&mut self, u: &Update) {
        self.baseline.ingest(u.node, u.t, u.pos, u.vel);
        self.legacy.ingest(u.node, u.t, u.pos, u.vel);
        for (_, s) in &mut self.unified {
            s.ingest(u.node, u.t, u.pos, u.vel);
        }
    }

    fn replace(&mut self, queries: &[RangeQuery]) {
        self.baseline.replace_queries(queries.iter().copied());
        self.legacy.replace_queries(queries.iter().copied());
        for (_, s) in &mut self.unified {
            s.replace_queries(queries.iter().copied());
        }
    }
}

/// The deterministic per-node Δ all engines and the oracle use in
/// uncertain evaluation (binary-exact multiples of U/4).
fn delta_of(n: u32, _p: Point) -> f64 {
    (n % 4) as f64 * 15.625
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn evaluate_equivalent_across_shard_counts(
        ups in updates(60),
        qs in query_set(8),
        qs2 in query_set(5),
    ) {
        let mut fleet = Fleet::new(&qs);
        let mut oracle = Oracle::new();
        for (round, chunk) in ups.chunks(8).enumerate() {
            let (head, tail) = chunk.split_at(chunk.len() / 2);
            for u in head {
                fleet.ingest(u);
                oracle.apply(u);
            }
            // Advancing-t round: full sweeps, stripe handoffs.
            let t = round as f64 + 0.5;
            let want = oracle.evaluate(&qs, t);
            prop_assert_eq!(&fleet.baseline.evaluate(t), &want, "baseline t={}", t);
            prop_assert_eq!(&fleet.legacy.evaluate(t), &want, "legacy t={}", t);
            for (s, server) in &mut fleet.unified {
                prop_assert_eq!(&server.evaluate(t), &want, "unified({}) t={}", *s, t);
            }
            // Same-t round after more ingests: the unified engine's
            // dirty path re-places only the re-reported nodes.
            for u in tail {
                fleet.ingest(u);
                oracle.apply(u);
            }
            let want = oracle.evaluate(&qs, t);
            prop_assert_eq!(&fleet.baseline.evaluate(t), &want, "baseline same-t {}", t);
            for (s, server) in &mut fleet.unified {
                prop_assert_eq!(&server.evaluate(t), &want, "unified({}) same-t {}", *s, t);
            }
        }
        // Workload swap: stripe indexes must invalidate and rebuild.
        fleet.replace(&qs2);
        let t = 9.0;
        let want = oracle.evaluate(&qs2, t);
        prop_assert_eq!(&fleet.baseline.evaluate(t), &want, "baseline after swap");
        for (s, server) in &mut fleet.unified {
            prop_assert_eq!(&server.evaluate(t), &want, "unified({}) after swap", *s);
        }
    }

    #[test]
    fn evaluate_uncertain_equivalent_across_shard_counts(
        ups in updates(50),
        qs in query_set(6),
        dmax_step in 1i32..4,
    ) {
        // Δ⊣ at binary-exact multiples of half a cell, so the expanded
        // covers also align with cell (and stripe) boundaries.
        let max_delta = dmax_step as f64 * 31.25;
        let mut fleet = Fleet::new(&qs);
        let mut oracle = Oracle::new();
        for (round, chunk) in ups.chunks(10).enumerate() {
            for u in chunk {
                fleet.ingest(u);
                oracle.apply(u);
            }
            let t = round as f64 + 0.25;
            let want = oracle.evaluate_uncertain(&qs, t, max_delta, delta_of);
            prop_assert_eq!(
                &fleet.baseline.evaluate_uncertain(t, max_delta, delta_of),
                &want, "baseline t={}", t
            );
            prop_assert_eq!(
                &fleet.legacy.evaluate_uncertain(t, max_delta, delta_of),
                &want, "legacy t={}", t
            );
            for (s, server) in &mut fleet.unified {
                prop_assert_eq!(
                    &server.evaluate_uncertain(t, max_delta, delta_of),
                    &want, "unified({}) t={}", *s, t
                );
            }
        }
    }

    #[test]
    fn nearest_equivalent_across_shard_counts(
        ups in updates(40),
        qs in query_set(3),
        ci in -1i32..18,
        cj in -1i32..18,
        k in 0usize..8,
    ) {
        let center = Point::new(ci as f64 * U, cj as f64 * U);
        let mut fleet = Fleet::new(&qs);
        let mut oracle = Oracle::new();
        for u in &ups {
            fleet.ingest(u);
            oracle.apply(u);
        }
        let t = 4.0;
        let want = oracle.nearest(center, k, t);
        prop_assert_eq!(&fleet.baseline.nearest(center, k, t), &want, "baseline");
        for (s, server) in &mut fleet.unified {
            prop_assert_eq!(&server.nearest(center, k, t), &want, "unified({})", *s);
        }
    }
}

/// Four queries make `side_for(4) = 8` grid columns of 125 m, so stripe
/// boundaries for shards ∈ {1, 2, 3, 7} all fall on multiples of 125 m
/// — and the lattice nodes below sit *exactly* on them. Crossing
/// traffic shuttles nodes across the boundaries round after round.
#[test]
fn stripe_boundary_alignment_is_exact() {
    let qs: Vec<RangeQuery> = [
        Rect::from_coords(0.0, 0.0, 250.0, 1000.0),
        Rect::from_coords(250.0, 0.0, 625.0, 1000.0), // edges on stripe bounds
        Rect::from_coords(625.0, 0.0, 1000.0, 1000.0),
        Rect::from_coords(125.0, 250.0, 875.0, 750.0), // spans every stripe
    ]
    .into_iter()
    .enumerate()
    .map(|(id, range)| RangeQuery {
        id: id as u32,
        range,
    })
    .collect();
    let mut fleet = Fleet::new(&qs);
    let mut oracle = Oracle::new();
    // Nodes pinned to stripe-boundary columns (x ∈ {125·k}) with
    // velocities that push them back and forth across the boundaries.
    for n in 0..NUM_NODES as u32 {
        let u = Update {
            node: n,
            t: 0.0,
            pos: Point::new(125.0 * (n % 9) as f64, 62.5 * (n % 16) as f64),
            vel: (if n % 2 == 0 { 125.0 } else { -125.0 }, 6.25),
        };
        fleet.ingest(&u);
        oracle.apply(&u);
    }
    for round in 0..8 {
        // t advances by exactly one cell width per round: every moving
        // node lands on the next boundary, many crossing stripes.
        let t = round as f64;
        let want = oracle.evaluate(&qs, t);
        assert_eq!(fleet.baseline.evaluate(t), want, "baseline t={t}");
        assert_eq!(fleet.legacy.evaluate(t), want, "legacy t={t}");
        for (s, server) in &mut fleet.unified {
            assert_eq!(server.evaluate(t), want, "unified({s}) t={t}");
        }
        let wantu = oracle.evaluate_uncertain(&qs, t, 125.0, delta_of);
        for (s, server) in &mut fleet.unified {
            assert_eq!(
                server.evaluate_uncertain(t, 125.0, delta_of),
                wantu,
                "unified({s}) uncertain t={t}"
            );
        }
    }
    // The crossing traffic must actually have exercised handoffs, and
    // ownership must still cover every node exactly once.
    for (s, server) in &fleet.unified {
        let stats = server.shard_stats().expect("unified engine");
        let owned: usize = stats.iter().map(|st| st.nodes).sum();
        assert_eq!(owned, NUM_NODES, "unified({s}): every node owned once");
        if *s > 1 {
            let handoffs: u64 = stats.iter().map(|st| st.handoffs).sum();
            assert!(handoffs > 0, "unified({s}): crossing traffic hands off");
        }
    }
}

/// `shard_stats` reports the stripe layout and node occupancy.
#[test]
fn shard_stats_reflect_layout_and_occupancy() {
    let qs: Vec<RangeQuery> = (0..4)
        .map(|id| RangeQuery {
            id,
            range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
        })
        .collect();
    let mut server =
        CqServer::new(bounds(), NUM_NODES).with_engine(EvalEngine::Unified { shards: 3 });
    assert_eq!(server.shard_stats(), Some(Vec::new()), "no stripes yet");
    server.register_queries(qs);
    // All nodes in the westmost column.
    for n in 0..NUM_NODES as u32 {
        server.ingest(n, 0.0, Point::new(10.0, 10.0 + n as f64), (0.0, 0.0));
    }
    server.evaluate(0.0);
    let stats = server.shard_stats().unwrap();
    assert_eq!(stats.len(), 3);
    // side_for(4) = 8 columns split 2/3/3.
    assert_eq!(stats[0].columns, (0, 2));
    assert_eq!(stats[1].columns, (2, 5));
    assert_eq!(stats[2].columns, (5, 8));
    assert_eq!(stats[0].nodes, NUM_NODES, "west stripe owns everything");
    assert_eq!(stats[1].nodes + stats[2].nodes, 0);
    // The unified engine always has stripes — the default server reports
    // its single degenerate one; only the store-scan reference has none.
    let mut default_server = CqServer::new(bounds(), 4);
    default_server.register_query(RangeQuery {
        id: 0,
        range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
    });
    default_server.evaluate(0.0);
    let stats = default_server.shard_stats().expect("unified default");
    assert_eq!(stats.len(), 1, "shards = 1 is one degenerate stripe");
    assert_eq!(stats[0].columns, (0, 4), "side_for(1) = 4 columns");
    assert_eq!(
        CqServer::new(bounds(), 4)
            .with_engine(EvalEngine::Legacy)
            .shard_stats(),
        None,
        "the store-scan reference has no shards"
    );
}
