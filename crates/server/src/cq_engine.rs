//! The mobile CQ server: ingests dead-reckoned position updates and
//! periodically re-evaluates the registered continual range queries over
//! the *predicted* node positions, in the style of SINA-like periodic
//! evaluation. Each node has one record: its last motion model in the
//! [`NodeStore`], plus the unified engine's per-node cell state.

use lira_core::geometry::{Point, Rect};

use crate::node_store::NodeStore;
use crate::query::{QueryResult, RangeQuery, UncertainResult};
use crate::unified::{RestripeStats, ShardStats, UnifiedEval};

/// Which evaluation strategy [`CqServer`] uses.
///
/// Every engine produces identical results (`tests/eval_equiv.rs` and
/// `tests/shard_equiv.rs` prove the equivalence property-style); they
/// differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalEngine {
    /// The production engine (`crate::unified`; DESIGN.md §13): a
    /// cell→queries index with per-query member sets maintained
    /// incrementally across rounds, O(churn) rounds at an unchanged
    /// evaluation time via dirty tracking, cut into `shards` contiguous
    /// column stripes evaluated on a persistent worker pool. `shards =
    /// 1` is the degenerate single-stripe case and runs entirely on the
    /// calling thread with no pool. Results are bit-identical at every
    /// shard count. `shards` is clamped to
    /// `1..=`[`MAX_SHARDS`](crate::unified::MAX_SHARDS).
    Unified {
        /// Number of spatial stripes; stripes are evaluated on
        /// `shards − 1` worker threads plus the calling thread.
        shards: usize,
    },
    /// The store-scan reference: every round tests each reported node's
    /// predicted position against every query. It keeps no derived state,
    /// which makes it the plain reference the test batteries and the
    /// benchmarks compare the unified engine against.
    Legacy,
}

impl Default for EvalEngine {
    /// The unified engine in its degenerate single-stripe form.
    fn default() -> Self {
        EvalEngine::Unified { shards: 1 }
    }
}

impl EvalEngine {
    /// The unified engine with the shard count taken from the
    /// `LIRA_TEST_SHARDS` environment variable (the CI matrix hook used
    /// by the cross-engine test battery), falling back to
    /// `default_shards` when unset or unparsable.
    pub fn unified_from_env(default_shards: usize) -> EvalEngine {
        let shards = std::env::var("LIRA_TEST_SHARDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&s| s >= 1)
            .unwrap_or(default_shards);
        EvalEngine::Unified { shards }
    }

    /// Whether this engine is the unified one (at any shard count).
    #[inline]
    fn is_unified(self) -> bool {
        matches!(self, EvalEngine::Unified { .. })
    }
}

/// Whether the unified engine's online re-striper should be enabled,
/// taken from the `LIRA_REBALANCE` environment variable (the CI matrix
/// hook, mirroring [`EvalEngine::unified_from_env`]): `1`/`true` ⇒ on,
/// `0`/`false` ⇒ off, unset or unparsable ⇒ `default`.
pub fn rebalance_from_env(default: bool) -> bool {
    match std::env::var("LIRA_REBALANCE").ok().as_deref() {
        Some("1") | Some("true") => true,
        Some("0") | Some("false") => false,
        _ => default,
    }
}

/// A mobile CQ server instance.
#[derive(Debug, Clone)]
pub struct CqServer {
    bounds: Rect,
    store: NodeStore,
    queries: Vec<RangeQuery>,
    evaluations: u64,
    engine: EvalEngine,
    /// Unified-engine state (boxed: it carries per-shard state, global
    /// per-node arrays and a lazily-created worker pool). Always present
    /// — unused (and empty) while the store-scan reference is selected.
    unified: Box<UnifiedEval>,
    /// Force evaluation rounds onto the calling thread (no worker pool);
    /// see [`CqServer::with_sequential_eval`].
    sequential_eval: bool,
    /// Whether unified rounds at an unchanged evaluation time may skip
    /// clean nodes; see [`CqServer::with_dirty_tracking`].
    dirty_tracking: bool,
    /// Whether the unified engine's online re-striper is enabled; see
    /// [`CqServer::with_rebalance`].
    rebalance: bool,
}

// The simulation pipeline moves whole servers into per-policy lane
// threads; keep that property from regressing (e.g. by an Rc sneaking
// into the store or the engine).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CqServer>();
};

impl CqServer {
    /// Creates a server for node ids `0..num_nodes` over `bounds`.
    pub fn new(bounds: Rect, num_nodes: usize) -> Self {
        CqServer {
            bounds,
            store: NodeStore::new(num_nodes),
            queries: Vec::new(),
            evaluations: 0,
            engine: EvalEngine::default(),
            unified: Box::new(UnifiedEval::new(bounds, num_nodes, 1)),
            sequential_eval: false,
            dirty_tracking: true,
            rebalance: false,
        }
    }

    /// Selects the evaluation engine (builder-style; the default is
    /// [`EvalEngine::Unified`] with one shard).
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        if let EvalEngine::Unified { shards } = engine {
            self.unified = Box::new(UnifiedEval::new(self.bounds, self.store.len(), shards));
            self.unified.set_dirty_tracking(self.dirty_tracking);
            self.unified.set_rebalance(self.rebalance);
        }
        self
    }

    /// Enables the unified engine's load-aware striping and online
    /// re-striper (builder-style; off by default, DESIGN.md §15). With it
    /// on, stripe boundaries are solved from the per-column load model at
    /// index-build time and a rebalance controller migrates whole cell
    /// columns between shards when sustained imbalance is detected —
    /// results stay bit-identical at every shard count either way. No
    /// effect at one shard or on the store-scan reference.
    pub fn with_rebalance(mut self, enabled: bool) -> Self {
        self.rebalance = enabled;
        self.unified.set_rebalance(enabled);
        self
    }

    /// Forces unified evaluation rounds to run every shard on the
    /// calling thread, in shard order, with no worker pool
    /// (builder-style). The state transitions are identical, so results
    /// stay bit-identical — this is what lets
    /// `Parallelism::Sequential` in the simulation pipeline mean
    /// *no threads at all*, including intra-lane ones. (At `shards = 1`
    /// rounds are pool-free already.)
    pub fn with_sequential_eval(mut self, sequential: bool) -> Self {
        self.sequential_eval = sequential;
        self
    }

    /// Enables or disables the unified engine's unchanged-time dirty
    /// shortcut (builder-style; on by default). With it off, every round
    /// re-places every owned node — the retired inverted engine's
    /// incremental round, kept reachable as the benchmark baseline
    /// (`exp_eval`/`exp_shard`). Results are bit-identical either way.
    pub fn with_dirty_tracking(mut self, enabled: bool) -> Self {
        self.dirty_tracking = enabled;
        self.unified.set_dirty_tracking(enabled);
        self
    }

    /// The active evaluation engine.
    #[inline]
    pub fn engine(&self) -> EvalEngine {
        self.engine
    }

    /// The monitored space.
    #[inline]
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    /// Registers one continual range query.
    pub fn register_query(&mut self, query: RangeQuery) {
        self.queries.push(query);
        self.invalidate_engines();
    }

    /// Registers many continual range queries.
    pub fn register_queries<Q: IntoIterator<Item = RangeQuery>>(&mut self, queries: Q) {
        self.queries.extend(queries);
        self.invalidate_engines();
    }

    /// Marks the engine's derived query structures stale.
    fn invalidate_engines(&mut self) {
        self.unified.invalidate();
    }

    /// The registered queries.
    #[inline]
    pub fn queries(&self) -> &[RangeQuery] {
        &self.queries
    }

    /// Replaces the whole query set (continual queries come and go; LIRA
    /// re-adapts to the new workload at its next adaptation step).
    pub fn replace_queries<Q: IntoIterator<Item = RangeQuery>>(&mut self, queries: Q) {
        self.queries.clear();
        self.queries.extend(queries);
        self.invalidate_engines();
    }

    /// Ingests one position update (a new motion model for `node`). Stale
    /// (reordered) updates are rejected by the store and never reach the
    /// engine. Returns whether the update was applied.
    pub fn ingest(&mut self, node: u32, t: f64, position: Point, velocity: (f64, f64)) -> bool {
        let first_report = !self.store.has(node);
        if self.store.apply(node, t, position, velocity) {
            if self.engine.is_unified() {
                self.unified.on_ingest(node, first_report);
            }
            true
        } else {
            false
        }
    }

    /// Removes `node` from the server (the node deregistered or timed
    /// out): its model is forgotten and it disappears from every query
    /// result at the next round. Returns whether the node had a model.
    /// A later report re-registers the node from scratch (even one
    /// time-stamped before the removed model — removal forgets history).
    pub fn remove_node(&mut self, node: u32) -> bool {
        if self.store.remove(node) {
            if self.engine.is_unified() {
                self.unified.on_remove(node);
            }
            true
        } else {
            false
        }
    }

    /// Evaluates every registered query at time `t` against the predicted
    /// node positions. Results are sorted by node id.
    pub fn evaluate(&mut self, t: f64) -> Vec<QueryResult> {
        let mut results = Vec::with_capacity(self.queries.len());
        self.evaluate_into(t, &mut results);
        results
    }

    /// Like [`evaluate`](Self::evaluate), but writes into `out`, reusing
    /// its allocations — the steady-state entry point for simulation
    /// lanes, which evaluate every round.
    pub fn evaluate_into(&mut self, t: f64, out: &mut Vec<QueryResult>) {
        self.evaluations += 1;
        match self.engine {
            EvalEngine::Unified { .. } => {
                self.unified.evaluate_into(
                    &self.queries,
                    &self.store,
                    t,
                    out,
                    self.sequential_eval,
                );
            }
            EvalEngine::Legacy => {
                out.resize_with(self.queries.len(), QueryResult::default);
                out.truncate(self.queries.len());
                for (slot, q) in out.iter_mut().zip(&self.queries) {
                    slot.query = q.id;
                    slot.nodes.clear();
                }
                // Ascending node order keeps every result sorted.
                for (n, p) in self.predictions(t) {
                    for (slot, q) in out.iter_mut().zip(&self.queries) {
                        if q.range.contains(&p) {
                            slot.nodes.push(n);
                        }
                    }
                }
            }
        }
    }

    /// Evaluates every query at time `t` with three-valued membership:
    /// `delta_of(node, predicted_position)` supplies an *upper bound* on
    /// the node's current inaccuracy threshold, and `max_delta` caps it
    /// (`Δ⊣`). Dead reckoning guarantees `|true − predicted| ≤ Δ`, so with
    /// a sound bound every node in `must` is certainly in the range, and
    /// every node truly in the range appears in `must ∪ maybe`.
    ///
    /// Note the node's threshold is looked up at its *true* position,
    /// which the server only knows to within Δ — use
    /// [`SheddingPlan::max_throttler_within`](lira_core::plan::SheddingPlan::max_throttler_within)
    /// with radius `Δ⊣` for a sound bound near region borders.
    /// `delta_of` must be a pure function of `(node, position)`: the
    /// engines call it in different orders (the store scan once per node
    /// in id order, unified once per node from whichever worker owns the
    /// node's stripe — hence the `Sync` bound), so a stateful closure
    /// would diverge.
    pub fn evaluate_uncertain(
        &mut self,
        t: f64,
        max_delta: f64,
        delta_of: impl Fn(u32, Point) -> f64 + Sync,
    ) -> Vec<UncertainResult> {
        let mut results = Vec::with_capacity(self.queries.len());
        self.evaluate_uncertain_into(t, max_delta, delta_of, &mut results);
        results
    }

    /// Like [`evaluate_uncertain`](Self::evaluate_uncertain), but writes
    /// into `out`, reusing its allocations.
    pub fn evaluate_uncertain_into(
        &mut self,
        t: f64,
        max_delta: f64,
        delta_of: impl Fn(u32, Point) -> f64 + Sync,
        out: &mut Vec<UncertainResult>,
    ) {
        assert!(max_delta >= 0.0);
        self.evaluations += 1;
        match self.engine {
            EvalEngine::Unified { .. } => {
                self.unified.evaluate_uncertain_into(
                    &self.queries,
                    &self.store,
                    t,
                    max_delta,
                    &delta_of,
                    out,
                    self.sequential_eval,
                );
            }
            EvalEngine::Legacy => {
                out.resize_with(self.queries.len(), UncertainResult::default);
                out.truncate(self.queries.len());
                for (slot, q) in out.iter_mut().zip(&self.queries) {
                    slot.query = q.id;
                    slot.must.clear();
                    slot.maybe.clear();
                }
                for (n, p) in self.predictions(t) {
                    let delta = delta_of(n, p).clamp(0.0, max_delta);
                    for (slot, q) in out.iter_mut().zip(&self.queries) {
                        if q.range.contains(&p) && q.range.interior_depth(&p) >= delta {
                            slot.must.push(n);
                        } else if q.range.distance_to_point(&p) <= delta {
                            slot.maybe.push(n);
                        }
                    }
                }
            }
        }
    }

    /// The `k` nodes nearest to `center` at time `t` (by predicted
    /// position), as `(node, distance)` sorted by ascending distance, ties
    /// by node id — the paper's motivating Ride Finder query ("monitor
    /// nearby taxis"). An exact scan of the store, shared by every engine.
    /// Returns fewer than `k` entries when fewer nodes have reported.
    pub fn nearest(&mut self, center: Point, k: usize, t: f64) -> Vec<(u32, f64)> {
        if k == 0 {
            return Vec::new();
        }
        self.evaluations += 1;
        let mut hits: Vec<(u32, f64)> = self
            .predictions(t)
            .map(|(n, p)| (n, p.distance(&center)))
            .collect();
        let by_distance = |a: &(u32, f64), b: &(u32, f64)| {
            a.1.partial_cmp(&b.1)
                .expect("finite distances")
                .then(a.0.cmp(&b.0))
        };
        if hits.len() > k {
            hits.select_nth_unstable_by(k - 1, by_distance);
            hits.truncate(k);
        }
        hits.sort_unstable_by(by_distance);
        hits
    }

    /// Every reported node with its predicted position at `t`, in
    /// ascending id order.
    fn predictions(&self, t: f64) -> impl Iterator<Item = (u32, Point)> + '_ {
        (0..self.store.len() as u32).filter_map(move |n| self.store.predict(n, t).map(|p| (n, p)))
    }

    /// Predicted position of `node` at `t` (`None` until it reports).
    #[inline]
    pub fn predict(&self, node: u32, t: f64) -> Option<Point> {
        self.store.predict(node, t)
    }

    /// The underlying node store.
    #[inline]
    pub fn store(&self) -> &NodeStore {
        &self.store
    }

    /// Number of evaluation rounds performed.
    #[inline]
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Per-shard telemetry of the unified engine — node count, columns,
    /// cumulative round wall time and handoff count per stripe (one
    /// entry at `shards = 1`). `None` while the store-scan reference is
    /// selected; empty until the first evaluation builds the stripes.
    pub fn shard_stats(&self) -> Option<Vec<ShardStats>> {
        if self.engine.is_unified() {
            Some(self.unified.stats())
        } else {
            None
        }
    }

    /// The unified engine's re-striper accounting — rebalances performed,
    /// columns migrated, cumulative migration pause, and the live
    /// per-shard load CoV. `None` while the store-scan reference is
    /// selected.
    /// Counters stay zero unless [`with_rebalance`](Self::with_rebalance)
    /// (or [`force_restripe`](Self::force_restripe)) is used.
    pub fn restripe_stats(&self) -> Option<RestripeStats> {
        if self.engine.is_unified() {
            Some(self.unified.restripe_stats())
        } else {
            None
        }
    }

    /// Forces one boundary re-solve + column migration from live
    /// occupancy, bypassing the imbalance trigger (test/benchmark hook;
    /// works even without [`with_rebalance`](Self::with_rebalance)).
    /// Returns the number of columns that changed owner — 0 before the
    /// first evaluation, at one shard, or on the store-scan reference.
    pub fn force_restripe(&mut self) -> usize {
        if self.engine.is_unified() {
            self.unified.force_restripe(&self.queries)
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> CqServer {
        CqServer::new(Rect::from_coords(0.0, 0.0, 1000.0, 1000.0), 8)
    }

    #[test]
    fn evaluate_on_reported_positions() {
        let mut s = server();
        s.register_query(RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
        });
        s.ingest(0, 0.0, Point::new(50.0, 50.0), (0.0, 0.0));
        s.ingest(1, 0.0, Point::new(500.0, 500.0), (0.0, 0.0));
        let r = s.evaluate(0.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].nodes, vec![0]);
        assert_eq!(s.evaluations(), 1);
    }

    #[test]
    fn evaluation_uses_predicted_positions() {
        let mut s = server();
        s.register_query(RangeQuery {
            id: 0,
            range: Rect::from_coords(90.0, 0.0, 200.0, 50.0),
        });
        // Node reported at x=50 moving +10 m/s in x: enters the range at
        // t=4 (x=90 is the inclusive min edge... half-open: x >= 90).
        s.ingest(0, 0.0, Point::new(50.0, 10.0), (10.0, 0.0));
        assert!(s.evaluate(0.0)[0].nodes.is_empty());
        assert_eq!(s.evaluate(5.0)[0].nodes, vec![0]);
        // And leaves it by t=16 (x=210).
        assert!(s.evaluate(16.0)[0].nodes.is_empty());
    }

    #[test]
    fn unreported_nodes_are_invisible() {
        let mut s = server();
        s.register_query(RangeQuery {
            id: 3,
            range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
        });
        let r = s.evaluate(1.0);
        assert!(r[0].nodes.is_empty());
        s.ingest(4, 1.0, Point::new(10.0, 10.0), (0.0, 0.0));
        let r = s.evaluate(1.0);
        assert_eq!(r[0].nodes, vec![4]);
    }

    #[test]
    fn multiple_queries_evaluated_together() {
        let mut s = server();
        s.register_queries([
            RangeQuery {
                id: 0,
                range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
            },
            RangeQuery {
                id: 1,
                range: Rect::from_coords(0.0, 0.0, 1000.0, 1000.0),
            },
        ]);
        s.ingest(2, 0.0, Point::new(400.0, 400.0), (0.0, 0.0));
        s.ingest(5, 0.0, Point::new(10.0, 20.0), (0.0, 0.0));
        let r = s.evaluate(0.0);
        assert_eq!(r[0].nodes, vec![5]);
        assert_eq!(r[1].nodes, vec![2, 5]);
    }

    #[test]
    fn replace_queries_swaps_workload() {
        let mut s = server();
        s.register_query(RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
        });
        s.ingest(0, 0.0, Point::new(50.0, 50.0), (0.0, 0.0));
        assert_eq!(s.evaluate(0.0).len(), 1);
        s.replace_queries([
            RangeQuery {
                id: 5,
                range: Rect::from_coords(0.0, 0.0, 60.0, 60.0),
            },
            RangeQuery {
                id: 6,
                range: Rect::from_coords(500.0, 500.0, 900.0, 900.0),
            },
        ]);
        let r = s.evaluate(0.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].query, 5);
        assert_eq!(r[0].nodes, vec![0]);
        assert!(r[1].nodes.is_empty());
    }

    #[test]
    fn uncertain_evaluation_three_valued_membership() {
        let mut s = server();
        s.register_query(RangeQuery {
            id: 0,
            range: Rect::from_coords(100.0, 100.0, 300.0, 300.0),
        });
        // Deep inside (depth 100 > delta 20): must.
        s.ingest(0, 0.0, Point::new(200.0, 200.0), (0.0, 0.0));
        // Near the inner edge (depth 5 < delta 20): maybe.
        s.ingest(1, 0.0, Point::new(105.0, 200.0), (0.0, 0.0));
        // Just outside (distance 10 < delta 20): maybe.
        s.ingest(2, 0.0, Point::new(90.0, 200.0), (0.0, 0.0));
        // Far outside (distance 100 > delta 20): neither.
        s.ingest(3, 0.0, Point::new(0.0, 200.0), (0.0, 0.0));
        let r = s.evaluate_uncertain(0.0, 100.0, |_, _| 20.0);
        assert_eq!(r[0].must, vec![0]);
        assert_eq!(r[0].maybe, vec![1, 2]);
    }

    #[test]
    fn uncertain_with_zero_delta_equals_exact() {
        let mut s = server();
        s.register_query(RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 500.0, 500.0),
        });
        for i in 0..6u32 {
            s.ingest(i, 0.0, Point::new(i as f64 * 150.0, 100.0), (0.0, 0.0));
        }
        let exact = s.evaluate(0.0);
        let uncertain = s.evaluate_uncertain(0.0, 100.0, |_, _| 0.0);
        assert_eq!(uncertain[0].must, exact[0].nodes);
        assert!(uncertain[0].maybe.is_empty());
    }

    #[test]
    fn stale_updates_do_not_corrupt_results() {
        let mut s = server();
        s.register_query(RangeQuery {
            id: 0,
            range: Rect::from_coords(0.0, 0.0, 100.0, 100.0),
        });
        assert!(s.ingest(0, 10.0, Point::new(50.0, 50.0), (0.0, 0.0)));
        // A delayed packet placing the node far away at an earlier time.
        assert!(!s.ingest(0, 2.0, Point::new(900.0, 900.0), (0.0, 0.0)));
        assert_eq!(s.evaluate(10.0)[0].nodes, vec![0]);
    }

    #[test]
    fn nearest_neighbors_basic() {
        let mut s = server();
        for i in 0..6u32 {
            // Nodes on a line at x = 100·(i+1).
            s.ingest(
                i,
                0.0,
                Point::new(100.0 * (i + 1) as f64, 500.0),
                (0.0, 0.0),
            );
        }
        let knn = s.nearest(Point::new(0.0, 500.0), 3, 0.0);
        assert_eq!(
            knn.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(knn[0].1, 100.0);
        assert_eq!(knn[2].1, 300.0);
        // k larger than the population returns everyone.
        assert_eq!(s.nearest(Point::new(0.0, 500.0), 50, 0.0).len(), 6);
        // k = 0 is empty.
        assert!(s.nearest(Point::new(0.0, 500.0), 0, 0.0).is_empty());
    }

    #[test]
    fn nearest_uses_predicted_positions() {
        let mut s = server();
        // Node 0 starts far but races toward the query point.
        s.ingest(0, 0.0, Point::new(900.0, 500.0), (-50.0, 0.0));
        s.ingest(1, 0.0, Point::new(300.0, 500.0), (0.0, 0.0));
        // At t = 0 node 1 is nearer to x=100...
        let knn = s.nearest(Point::new(100.0, 500.0), 1, 0.0);
        assert_eq!(knn[0].0, 1);
        // ...at t = 14 node 0 has moved to x = 200, closer than node 1.
        let knn = s.nearest(Point::new(100.0, 500.0), 1, 14.0);
        assert_eq!(knn[0].0, 0);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let mut s = CqServer::new(bounds, 80);
        let mut truth = Vec::new();
        for i in 0..80u32 {
            let p = Point::new(
                ((i as f64 * 131.7) % 997.0) + 1.0,
                ((i as f64 * 77.3) % 983.0) + 1.0,
            );
            let v = ((i % 5) as f64 - 2.0, (i % 3) as f64 - 1.0);
            s.ingest(i, 0.0, p, v);
            truth.push((i, p, v));
        }
        for (t, cx, cy, k) in [
            (0.0, 10.0, 10.0, 5usize),
            (20.0, 500.0, 500.0, 10),
            (40.0, 990.0, 5.0, 1),
            // Far outside the bounds: every node is still a candidate.
            (0.0, -5000.0, 9000.0, 3),
        ] {
            let center = Point::new(cx, cy);
            let mut expected: Vec<(u32, f64)> = truth
                .iter()
                .map(|(n, p, v)| {
                    let q = Point::new(p.x + v.0 * t, p.y + v.1 * t);
                    (*n, q.distance(&center))
                })
                .collect();
            expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            expected.truncate(k);
            let got = s.nearest(center, k, t);
            assert_eq!(got.len(), k, "t={t}");
            for ((gn, gd), (en, ed)) in got.iter().zip(&expected) {
                assert_eq!(gn, en, "t={t}");
                assert!((gd - ed).abs() < 1e-9, "t={t}");
            }
        }
    }

    #[test]
    fn engines_agree_across_incremental_rounds() {
        // Several consecutive rounds with interleaved updates exercise the
        // incremental path (cell crossings, partial-cell retests, the
        // skip fast path) against the store-scan reference.
        let bounds = Rect::from_coords(0.0, 0.0, 1000.0, 1000.0);
        let mut inv = CqServer::new(bounds, 60);
        let mut leg = CqServer::new(bounds, 60).with_engine(EvalEngine::Legacy);
        let queries = [
            RangeQuery {
                id: 7,
                range: Rect::from_coords(0.0, 0.0, 300.0, 1000.0),
            },
            RangeQuery {
                id: 8,
                range: Rect::from_coords(250.0, 250.0, 750.0, 750.0),
            },
            RangeQuery {
                id: 9,
                range: Rect::from_coords(900.0, 0.0, 1000.0, 100.0),
            },
        ];
        inv.register_queries(queries);
        leg.register_queries(queries);
        for i in 0..60u32 {
            let p = Point::new((i as f64 * 83.0) % 1000.0, (i as f64 * 41.0) % 1000.0);
            let v = ((i % 9) as f64 - 4.0, (i % 11) as f64 - 5.0);
            inv.ingest(i, 0.0, p, v);
            leg.ingest(i, 0.0, p, v);
        }
        for round in 1..20 {
            let t = round as f64 * 3.0;
            // A few nodes re-report between rounds.
            for i in (round % 7..60).step_by(7) {
                let i = i as u32;
                let p = Point::new((i as f64 * 59.0 + t * 13.0) % 1000.0, (t * 29.0) % 1000.0);
                inv.ingest(i, t, p, (1.0, -1.0));
                leg.ingest(i, t, p, (1.0, -1.0));
            }
            assert_eq!(inv.evaluate(t), leg.evaluate(t), "round {round}");
            let u_inv = inv.evaluate_uncertain(t, 50.0, |n, _| (n % 5) as f64 * 12.0);
            let u_leg = leg.evaluate_uncertain(t, 50.0, |n, _| (n % 5) as f64 * 12.0);
            assert_eq!(u_inv, u_leg, "uncertain round {round}");
        }
        // Swapping the workload invalidates and re-primes the query index.
        let swapped = [RangeQuery {
            id: 1,
            range: Rect::from_coords(100.0, 600.0, 900.0, 1000.0),
        }];
        inv.replace_queries(swapped);
        leg.replace_queries(swapped);
        assert_eq!(inv.evaluate(60.0), leg.evaluate(60.0));
    }

    #[test]
    fn results_exact_versus_brute_force() {
        let mut s = server();
        let q = Rect::from_coords(200.0, 300.0, 700.0, 650.0);
        s.register_query(RangeQuery { id: 0, range: q });
        let positions = [
            (0u32, Point::new(199.9, 400.0)),
            (1, Point::new(200.0, 300.0)),
            (2, Point::new(699.9, 649.9)),
            (3, Point::new(700.0, 400.0)),
            (4, Point::new(450.0, 500.0)),
            (5, Point::new(0.0, 0.0)),
        ];
        for (n, p) in positions {
            s.ingest(n, 0.0, p, (0.0, 0.0));
        }
        let got = s.evaluate(0.0);
        let want: Vec<u32> = positions
            .iter()
            .filter(|(_, p)| q.contains(p))
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(got[0].nodes, want);
    }
}
