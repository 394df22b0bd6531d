//! Property-based equivalence suite for the CQ evaluation engines:
//! unified-incremental ≡ store scan ≡ brute force, for `evaluate`,
//! `evaluate_uncertain`, and `nearest`. The unified engine runs at the
//! shard count the CI matrix selects via `LIRA_TEST_SHARDS` (default 1,
//! the degenerate single-stripe case).
//!
//! Every generated coordinate is a multiple of 62.5 m (exactly
//! representable in binary) over a 1 km² space — so nodes routinely land
//! *exactly* on query-range borders and on the unified engine's cell
//! boundaries, the places where different traversal orders could
//! disagree. Positions outside the bounds exercise the clamped border
//! cells.

use lira_core::geometry::{Point, Rect};
use lira_server::prelude::*;
use proptest::prelude::*;

/// The coordinate lattice unit (m); binary-exact.
const U: f64 = 62.5;
const NUM_NODES: usize = 24;

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
            -2i32..3,
            -2i32..3,
        )
            .prop_map(|(node, k, i, j, vi, vj)| Update {
                node,
                t: k as f64,
                pos: Point::new(i as f64 * U, j as f64 * U),
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
/// store's exact staleness rule (reject strictly older, accept ties) and
/// the same prediction arithmetic, evaluated by full scans.
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

    /// The uncertain-membership specification: `must` ⇔ the prediction is
    /// inside with interior depth ≥ the node's Δ; `maybe` ⇔ not must but
    /// within Δ of the range. Candidate-set independent by construction.
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

/// Both engines under test, fed identically.
struct Pair {
    uni: CqServer,
    scan: CqServer,
}

impl Pair {
    fn new(queries: &[RangeQuery]) -> Self {
        let b = bounds();
        let mut pair = Pair {
            uni: CqServer::new(b, NUM_NODES).with_engine(EvalEngine::unified_from_env(1)),
            scan: CqServer::new(b, NUM_NODES).with_engine(EvalEngine::Legacy),
        };
        pair.uni.register_queries(queries.iter().copied());
        pair.scan.register_queries(queries.iter().copied());
        pair
    }

    fn ingest(&mut self, u: &Update) {
        self.uni.ingest(u.node, u.t, u.pos, u.vel);
        self.scan.ingest(u.node, u.t, u.pos, u.vel);
    }

    fn replace(&mut self, queries: &[RangeQuery]) {
        self.uni.replace_queries(queries.iter().copied());
        self.scan.replace_queries(queries.iter().copied());
    }
}

/// The deterministic per-node Δ both the servers and the oracle use in
/// uncertain evaluation (binary-exact multiples of U/4).
fn delta_of(n: u32, _p: Point) -> f64 {
    (n % 4) as f64 * 15.625
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn evaluate_equivalent_across_engines_and_rounds(
        ups in updates(60),
        qs in query_set(8),
        qs2 in query_set(5),
    ) {
        let mut pair = Pair::new(&qs);
        let mut oracle = Oracle::new();
        // Interleave ingest and evaluation so the unified engine runs
        // genuine incremental rounds (round 0 is its full rebuild).
        for (round, chunk) in ups.chunks(8).enumerate() {
            for u in chunk {
                pair.ingest(u);
                oracle.apply(u);
            }
            let t = round as f64 + 0.5;
            let want = oracle.evaluate(&qs, t);
            prop_assert_eq!(&pair.uni.evaluate(t), &want, "unified t={}", t);
            prop_assert_eq!(&pair.scan.evaluate(t), &want, "scan t={}", t);
        }
        // Workload swap: the query index must invalidate and rebuild.
        pair.replace(&qs2);
        let t = 9.0;
        let want = oracle.evaluate(&qs2, t);
        prop_assert_eq!(&pair.uni.evaluate(t), &want, "unified after swap");
        prop_assert_eq!(&pair.scan.evaluate(t), &want, "scan after swap");
    }

    #[test]
    fn evaluate_uncertain_equivalent_across_engines(
        ups in updates(50),
        qs in query_set(6),
        dmax_step in 1i32..4,
    ) {
        // Δ⊣ at binary-exact multiples of half a lattice unit, so expanded
        // query edges also align with lattice points.
        let max_delta = dmax_step as f64 * 31.25;
        let mut pair = Pair::new(&qs);
        let mut oracle = Oracle::new();
        for (round, chunk) in ups.chunks(10).enumerate() {
            for u in chunk {
                pair.ingest(u);
                oracle.apply(u);
            }
            let t = round as f64 + 0.25;
            let want = oracle.evaluate_uncertain(&qs, t, max_delta, delta_of);
            prop_assert_eq!(
                &pair.uni.evaluate_uncertain(t, max_delta, delta_of),
                &want, "unified t={}", t
            );
            prop_assert_eq!(
                &pair.scan.evaluate_uncertain(t, max_delta, delta_of),
                &want, "scan t={}", t
            );
        }
    }

    #[test]
    fn nearest_equivalent_across_engines(
        ups in updates(40),
        qs in query_set(3),
        ci in -1i32..18,
        cj in -1i32..18,
        k in 0usize..8,
    ) {
        let center = Point::new(ci as f64 * U, cj as f64 * U);
        let mut pair = Pair::new(&qs);
        let mut oracle = Oracle::new();
        for u in &ups {
            pair.ingest(u);
            oracle.apply(u);
        }
        let t = 4.0;
        let want = oracle.nearest(center, k, t);
        prop_assert_eq!(&pair.uni.nearest(center, k, t), &want, "unified");
        prop_assert_eq!(&pair.scan.nearest(center, k, t), &want, "scan");
    }
}

/// Hand-picked border geometry: nodes exactly on the inclusive min edge,
/// the exclusive max edge, cell boundaries, and outside the bounds.
#[test]
fn border_points_resolve_identically_on_every_engine() {
    let range = Rect::from_coords(250.0, 250.0, 500.0, 500.0);
    let qs = [RangeQuery { id: 0, range }];
    let mut pair = Pair::new(&qs);
    let mut oracle = Oracle::new();
    let cases = [
        Point::new(250.0, 250.0),   // min corner: inside (half-open)
        Point::new(500.0, 500.0),   // max corner: outside
        Point::new(500.0, 300.0),   // max x edge: outside
        Point::new(250.0, 499.999), // min x edge: inside
        Point::new(375.0, 250.0),   // min y edge, on a cell boundary
        Point::new(-62.5, 300.0),   // out of bounds west (clamped cell)
        Point::new(300.0, 1062.5),  // out of bounds north
        Point::new(499.999, 499.999),
    ];
    for (n, p) in cases.iter().enumerate() {
        let u = Update {
            node: n as u32,
            t: 0.0,
            pos: *p,
            vel: (0.0, 0.0),
        };
        pair.ingest(&u);
        oracle.apply(&u);
    }
    let want = oracle.evaluate(&qs, 0.0);
    assert_eq!(pair.uni.evaluate(0.0), want);
    assert_eq!(pair.scan.evaluate(0.0), want);
    // Nodes sitting at distance exactly Δ from the range must classify
    // identically too (the maybe-boundary).
    let want = oracle.evaluate_uncertain(&qs, 0.0, 62.5, |_, _| 62.5);
    assert_eq!(pair.uni.evaluate_uncertain(0.0, 62.5, |_, _| 62.5), want);
    assert_eq!(pair.scan.evaluate_uncertain(0.0, 62.5, |_, _| 62.5), want);
    // Zero Δ degenerates to exact evaluation for `must`; `maybe` shrinks
    // to exactly the nodes sitting *on* the closed boundary (distance 0
    // but outside the half-open rect).
    let exact = oracle.evaluate(&qs, 0.0);
    let zero = pair.uni.evaluate_uncertain(0.0, 0.0, |_, _| 0.0);
    assert_eq!(zero[0].must, exact[0].nodes);
    assert_eq!(zero, pair.scan.evaluate_uncertain(0.0, 0.0, |_, _| 0.0));
    for &n in &zero[0].maybe {
        let p = oracle.predict(n as usize, 0.0).unwrap();
        assert!(!range.contains(&p));
        assert_eq!(range.distance_to_point(&p), 0.0, "node {n} at {p:?}");
    }
}
