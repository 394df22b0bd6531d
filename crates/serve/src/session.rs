//! The transport-agnostic session core: everything `lira-serve` does
//! *between* the socket and the engine. One [`SessionCore`] owns the CQ
//! server, the slice-routing table, the per-shard bounded input queues,
//! the THROTLOOP controller, the statistics grid and the LIRA shedder —
//! and turns incoming [`Frame`]s into reply/broadcast frames.
//!
//! Splitting the core from the socket loop is what makes the acceptance
//! criterion *testable*: the TCP transport and the in-process transport
//! feed the identical frame stream to the identical core, so the
//! deterministic report produced over loopback is bit-identical to the
//! in-process one by construction — and the loopback test asserts it.
//!
//! Determinism contract: every field of the deterministic report is a
//! pure function of the frame sequence. Wall-clock only feeds the
//! latency *histograms* (telemetry), never the report core.

use std::time::Instant;

use lira_core::config::LiraConfig;
use lira_core::geometry::{Point, Rect};
use lira_core::plan::SheddingPlan;
use lira_core::policy::{LiraPolicy, SheddingPolicy};
use lira_core::reduction::ReductionModel;
use lira_core::stats_grid::StatsGrid;
use lira_core::telemetry::json::Json;
use lira_core::telemetry::{Counter, Gauge, Histogram, MetricSpec, Telemetry};
use lira_core::throt_loop::{QueueObservation, ThrotLoop};
use lira_core::utility::{UtilityGreedy, UtilityModel};
use lira_server::cq_engine::{rebalance_from_env, CqServer, EvalEngine};
use lira_server::query::{QueryResult, RangeQuery};
use lira_server::queue::UpdateQueue;
use std::sync::Arc;

use crate::protocol::{self, digest_round, kind, Frame, WireUpdate};
use crate::slices::SliceTable;

/// Which shedding policy drives the session's plan broadcasts (CLI
/// `--policy`). Only source-actuated policies are offered: the serving
/// path has no server-side random-drop stage, and every listed policy
/// emits ordinary [`SheddingPlan`]s over the unchanged 16 B/region wire
/// format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServePolicy {
    /// Full LIRA: GRIDREDUCE + GREEDYINCREMENT (the default).
    #[default]
    Lira,
    /// eSPICE-style utility-greedy shedding (`lira-core`'s
    /// [`UtilityGreedy`]).
    UtilityGreedy,
    /// gSPICE-style model-based utility shedding (`lira-core`'s
    /// [`UtilityModel`]).
    UtilityModel,
}

impl ServePolicy {
    /// Parses a CLI policy name (`lira`, `utility-greedy`,
    /// `utility-model`).
    pub fn from_flag(name: &str) -> Option<Self> {
        match name {
            "lira" => Some(ServePolicy::Lira),
            "utility-greedy" => Some(ServePolicy::UtilityGreedy),
            "utility-model" => Some(ServePolicy::UtilityModel),
            _ => None,
        }
    }

    /// The CLI flag spelling (inverse of [`Self::from_flag`]).
    pub fn flag_name(self) -> &'static str {
        match self {
            ServePolicy::Lira => "lira",
            ServePolicy::UtilityGreedy => "utility-greedy",
            ServePolicy::UtilityModel => "utility-model",
        }
    }
}

/// Configuration of one serving session (CLI flags map onto this 1:1;
/// see `docs/OPERATIONS.md`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Monitored space (must be square — LIRA's grids require it).
    pub bounds: Rect,
    /// Node-id capacity of the engine: a `Batch` carrying an id ≥ this
    /// is rejected whole.
    pub num_nodes: usize,
    /// Engine shards (spatial stripes of the unified engine).
    pub shards: usize,
    /// Routing slices (≥ shards; 64 by default).
    pub slices: usize,
    /// Total bounded input-queue capacity `B`, split evenly across
    /// shards.
    pub queue_capacity: usize,
    /// Provisioned service rate µ in updates/sec — the capacity THROTLOOP
    /// steers arrivals toward.
    pub service_rate: f64,
    /// Run a plan adaptation every this many closed windows.
    pub adapt_every_windows: u32,
    /// LIRA region budget `l` (`l mod 3 == 1`).
    pub num_regions: usize,
    /// Minimum inaccuracy threshold Δ_min (m) — also the plan default.
    pub delta_min: f64,
    /// Maximum inaccuracy threshold Δ_max (m).
    pub delta_max: f64,
    /// Enable the telemetry registry (histograms, counters, gauges).
    pub telemetry: bool,
    /// Load-aware rebalancing: the unified engine stripes by load and
    /// re-stripes online (see `lira-server`'s DESIGN.md §15), and the
    /// session rewrites the slice→shard routing table at window close
    /// when per-window admission counts leave the shard queues
    /// imbalanced. Defaults from the `LIRA_REBALANCE` environment
    /// variable (off when unset).
    pub rebalance: bool,
    /// The shedding policy behind the plan broadcasts (CLI `--policy`;
    /// LIRA by default).
    pub policy: ServePolicy,
}

impl ServeConfig {
    /// A session over a `space_m`-sided square with Table-2-style
    /// defaults scaled to `num_nodes`.
    pub fn new(space_m: f64, num_nodes: usize) -> Self {
        ServeConfig {
            bounds: Rect::from_coords(0.0, 0.0, space_m, space_m),
            num_nodes,
            shards: 4,
            slices: 64,
            queue_capacity: (num_nodes / 10).max(64),
            service_rate: (num_nodes as f64).max(1000.0),
            adapt_every_windows: 1,
            num_regions: 250,
            delta_min: 5.0,
            delta_max: 100.0,
            telemetry: true,
            rebalance: rebalance_from_env(false),
            policy: ServePolicy::default(),
        }
    }

    /// The LIRA shedder configuration this session derives.
    pub fn lira_config(&self) -> LiraConfig {
        let mut c = LiraConfig {
            bounds: self.bounds,
            num_regions: self.num_regions,
            delta_min: self.delta_min,
            delta_max: self.delta_max,
            ..LiraConfig::default()
        };
        c.alpha = LiraConfig::alpha_for(c.num_regions, 2.0);
        c
    }
}

/// Per-connection counters, surfaced in the session report. Plain fields
/// (not registry metrics): connection count is dynamic and the registry's
/// metric names are static by design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnStats {
    /// Session id assigned at `Hello` (connection ordinal).
    pub id: u32,
    /// Frames received from this connection.
    pub frames: u64,
    /// Wire bytes received from this connection (headers included).
    pub bytes: u64,
    /// Position updates received from this connection.
    pub updates: u64,
    /// Batch frames received from this connection.
    pub batches: u64,
    /// Protocol/semantic errors charged to this connection.
    pub errors: u64,
}

/// Registry-backed aggregate metrics (component `serve`). All names are
/// listed in `docs/TELEMETRY.md`.
pub struct ServeTelemetry {
    /// The registry itself (snapshot source).
    pub registry: Telemetry,
    rx_frames: Arc<Counter>,
    rx_bytes: Arc<Counter>,
    rx_updates: Arc<Counter>,
    queue_admitted: Arc<Counter>,
    queue_dropped: Arc<Counter>,
    plan_broadcasts: Arc<Counter>,
    plan_bytes: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    ctl_z: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
    eval_us: Arc<Histogram>,
    adapt_us: Arc<Histogram>,
    batch_updates: Arc<Histogram>,
}

impl ServeTelemetry {
    fn new(enabled: bool) -> Self {
        let registry = Telemetry::toggled(enabled);
        ServeTelemetry {
            rx_frames: registry.counter(MetricSpec::new("serve.rx.frames", "serve", "frames")),
            rx_bytes: registry.counter(MetricSpec::new("serve.rx.bytes", "serve", "bytes")),
            rx_updates: registry.counter(MetricSpec::new("serve.rx.updates", "serve", "updates")),
            queue_admitted: registry.counter(MetricSpec::new(
                "serve.queue.admitted",
                "serve",
                "updates",
            )),
            queue_dropped: registry.counter(MetricSpec::new(
                "serve.queue.dropped",
                "serve",
                "updates",
            )),
            plan_broadcasts: registry.counter(MetricSpec::new(
                "serve.plan.broadcasts",
                "serve",
                "frames",
            )),
            plan_bytes: registry.counter(MetricSpec::new("serve.plan.bytes", "serve", "bytes")),
            protocol_errors: registry.counter(MetricSpec::new(
                "serve.protocol.errors",
                "serve",
                "errors",
            )),
            ctl_z: registry.gauge(MetricSpec::new("serve.ctl.z", "serve", "fraction")),
            queue_depth: registry.gauge(MetricSpec::new("serve.queue.depth", "serve", "updates")),
            queue_wait_us: registry.histogram(MetricSpec::new(
                "serve.queue.wait_us",
                "serve",
                "us",
            )),
            eval_us: registry.histogram(MetricSpec::new("serve.eval.round_us", "serve", "us")),
            adapt_us: registry.histogram(MetricSpec::new("serve.adapt.us", "serve", "us")),
            batch_updates: registry.histogram(MetricSpec::new(
                "serve.rx.batch_updates",
                "serve",
                "updates",
            )),
            registry,
        }
    }
}

/// What [`SessionCore::handle`] produced: frames to send back to the
/// originating connection, and frames to broadcast to every
/// plan-subscribed connection (the originator included, if subscribed).
#[derive(Debug, Default)]
pub struct Output {
    /// Replies to the originating connection, in order.
    pub replies: Vec<Frame>,
    /// Broadcast frames for all subscribed connections.
    pub broadcast: Vec<Frame>,
}

/// One queued update: the wire record plus the sim-time of its batch.
#[derive(Debug, Clone, Copy)]
struct Pending {
    u: WireUpdate,
    t: f64,
}

/// The session core. See the module docs for the determinism contract.
pub struct SessionCore {
    cfg: ServeConfig,
    server: CqServer,
    table: SliceTable,
    queues: Vec<UpdateQueue<Pending>>,
    throt: ThrotLoop,
    grid: StatsGrid,
    policy: Box<dyn SheddingPolicy>,
    plan: SheddingPlan,
    plan_epoch: u64,
    queries: Vec<RangeQuery>,
    z: f64,
    windows: u64,
    eval_rounds: u64,
    digest: u64,
    last_results: u64,
    updates_rx: u64,
    updates_admitted: u64,
    batches_rx: u64,
    /// Updates admitted per routing slice in the current window (reset
    /// at every `WindowClose`) — the load signal the slice rebalancer
    /// acts on.
    slice_admits: Vec<u64>,
    /// Slice→shard reassignments applied over the session, external
    /// (`SetSlice`) and automatic alike.
    slice_rewrites: u64,
    plan_broadcasts: u64,
    plan_bytes: u64,
    protocol_errors: u64,
    observed_since_adapt: u64,
    conns: Vec<ConnStats>,
    results_buf: Vec<QueryResult>,
    tel: ServeTelemetry,
    started: Instant,
}

impl SessionCore {
    /// Builds a session core. Panics on invalid configuration (the
    /// binaries validate flags first; tests construct valid configs).
    pub fn new(cfg: ServeConfig) -> Self {
        let lira = cfg.lira_config();
        lira.validate()
            .expect("serve config produces a valid LiraConfig");
        let per_shard = (cfg.queue_capacity / cfg.shards).max(1);
        let server = CqServer::new(cfg.bounds, cfg.num_nodes)
            .with_engine(EvalEngine::Unified { shards: cfg.shards })
            .with_rebalance(cfg.rebalance);
        let mut grid = StatsGrid::new(lira.alpha, cfg.bounds).expect("alpha/bounds validated");
        grid.begin_snapshot();
        let model = ReductionModel::analytic(cfg.delta_min, cfg.delta_max, lira.kappa());
        let policy: Box<dyn SheddingPolicy> = match cfg.policy {
            ServePolicy::Lira => Box::new(
                LiraPolicy::new(lira, cfg.queue_capacity.max(2)).expect("validated config"),
            ),
            ServePolicy::UtilityGreedy => Box::new(UtilityGreedy::new(lira, model)),
            ServePolicy::UtilityModel => Box::new(UtilityModel::new(lira, model)),
        };
        SessionCore {
            table: SliceTable::new(cfg.slices, cfg.shards),
            queues: (0..cfg.shards)
                .map(|_| UpdateQueue::new(per_shard))
                .collect(),
            throt: ThrotLoop::new(cfg.queue_capacity.max(2)).expect("capacity ≥ 2"),
            grid,
            policy,
            plan: SheddingPlan::uniform(cfg.bounds, cfg.delta_min),
            plan_epoch: 0,
            queries: Vec::new(),
            z: 1.0,
            windows: 0,
            eval_rounds: 0,
            digest: 0,
            last_results: 0,
            updates_rx: 0,
            updates_admitted: 0,
            batches_rx: 0,
            slice_admits: vec![0; cfg.slices],
            slice_rewrites: 0,
            plan_broadcasts: 0,
            plan_bytes: 0,
            protocol_errors: 0,
            observed_since_adapt: 0,
            conns: Vec::new(),
            results_buf: Vec::new(),
            tel: ServeTelemetry::new(cfg.telemetry),
            server,
            started: Instant::now(),
            cfg,
        }
    }

    /// The configuration this session runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The current shedding plan.
    pub fn plan(&self) -> &SheddingPlan {
        &self.plan
    }

    /// Total protocol errors charged so far (wire violations + semantic
    /// rejections).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors
    }

    /// A snapshot of the session's telemetry registry (component
    /// `serve`; plain data, safe to ship across threads). Harnesses read
    /// service-latency percentiles from the `serve.queue.wait_us`
    /// histogram here.
    pub fn telemetry_snapshot(&self) -> lira_core::telemetry::TelemetrySnapshot {
        self.tel.registry.snapshot("serve")
    }

    /// Registers a new connection; returns its session id.
    pub fn open_conn(&mut self) -> u32 {
        let id = self.conns.len() as u32;
        self.conns.push(ConnStats {
            id,
            ..ConnStats::default()
        });
        id
    }

    /// Charges one received frame to a connection's counters. The
    /// transport calls this for every frame *before* [`Self::handle`];
    /// `wire_len` is the full frame length including the header.
    pub fn note_frame(&mut self, conn: u32, frame: &Frame, wire_len: usize) {
        let c = &mut self.conns[conn as usize];
        c.frames += 1;
        c.bytes += wire_len as u64;
        if let Frame::Batch { updates, .. } = frame {
            c.batches += 1;
            c.updates += updates.len() as u64;
        }
        self.tel.rx_frames.incr();
        self.tel.rx_bytes.add(wire_len as u64);
    }

    /// Charges a wire-protocol violation (undecodable bytes) to a
    /// connection. The transport closes the connection afterwards.
    pub fn note_protocol_error(&mut self, conn: u32) {
        self.conns[conn as usize].errors += 1;
        self.protocol_errors += 1;
        self.tel.protocol_errors.incr();
    }

    /// Seconds of wall clock since the session started (feeds latency
    /// histograms only — never the deterministic report).
    fn wall(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Processes one client frame and returns the frames it produced.
    pub fn handle(&mut self, conn: u32, frame: Frame) -> Output {
        let mut out = Output::default();
        match frame {
            Frame::Hello { .. } => {
                out.replies.push(Frame::Welcome {
                    session: conn,
                    slices: self.cfg.slices as u32,
                    shards: self.cfg.shards as u32,
                    queue_capacity: self.cfg.queue_capacity as u32,
                    default_delta: self.cfg.delta_min,
                    bounds: [
                        self.cfg.bounds.min.x,
                        self.cfg.bounds.min.y,
                        self.cfg.bounds.max.x,
                        self.cfg.bounds.max.y,
                    ],
                });
            }
            Frame::Register { queries } => {
                self.queries = queries.iter().map(|q| q.to_query()).collect();
                self.server.replace_queries(self.queries.iter().copied());
                out.replies.push(Frame::Ack { of: kind::REGISTER });
            }
            Frame::Batch { t, updates } => {
                // One bad id would panic the engine at the next drain and
                // take every connection down with it, so the whole frame
                // is refused before any of it is queued.
                if let Some(u) = updates.iter().find(|u| u.id as usize >= self.cfg.num_nodes) {
                    let message = format!(
                        "node id {} out of range (num_nodes {})",
                        u.id, self.cfg.num_nodes
                    );
                    out.replies
                        .push(self.reject(conn, protocol::ERR_INVALID, message));
                    return out;
                }
                self.batches_rx += 1;
                self.updates_rx += updates.len() as u64;
                self.tel.rx_updates.add(updates.len() as u64);
                self.tel.batch_updates.record(updates.len() as u64);
                let wall = self.wall();
                let mut admitted = 0u64;
                let offered = updates.len() as u64;
                for u in updates {
                    let slice = self.table.slice_of(u.id);
                    let shard = self.table.assignments()[slice] as usize;
                    if self.queues[shard].offer_at(wall, Pending { u, t }) {
                        admitted += 1;
                        self.slice_admits[slice] += 1;
                    }
                }
                self.updates_admitted += admitted;
                self.tel.queue_admitted.add(admitted);
                self.tel.queue_dropped.add(offered - admitted);
            }
            Frame::EvalReq { t } => {
                self.drain();
                let t0 = Instant::now();
                let mut buf = std::mem::take(&mut self.results_buf);
                self.server.evaluate_into(t, &mut buf);
                self.eval_rounds += 1;
                self.digest = digest_round(self.digest, t, &buf);
                self.last_results = buf.len() as u64;
                self.results_buf = buf;
                self.tel.eval_us.record(t0.elapsed().as_micros() as u64);
                out.replies.push(Frame::EvalRes {
                    t,
                    round: self.eval_rounds,
                    results: self.last_results,
                    digest: self.digest,
                });
            }
            Frame::WindowClose { t, window_s } => {
                if !(window_s.is_finite() && window_s > 0.0) {
                    out.replies.push(self.reject(
                        conn,
                        protocol::ERR_INVALID,
                        format!("window_s must be positive and finite, got {window_s}"),
                    ));
                    return out;
                }
                let depth: u64 = self.queues.iter().map(|q| q.len() as u64).sum();
                self.drain();
                // The queues are empty here, so moving slices between
                // shards cannot reorder a node's in-flight updates — the
                // only safe point to actuate a rebalance.
                if self.cfg.rebalance {
                    self.auto_rebalance();
                }
                for a in &mut self.slice_admits {
                    *a = 0;
                }
                let lambda: f64 = self
                    .queues
                    .iter_mut()
                    .map(|q| q.window_observation(window_s, 0.0).arrival_rate)
                    .sum();
                let mu = self.cfg.service_rate;
                self.z = self.throt.observe(QueueObservation {
                    arrival_rate: lambda,
                    service_rate: mu,
                });
                self.windows += 1;
                self.tel.ctl_z.set(self.z);
                self.tel.queue_depth.set(depth as f64);
                let adapt_due = self.cfg.adapt_every_windows > 0
                    && self
                        .windows
                        .is_multiple_of(self.cfg.adapt_every_windows as u64)
                    && self.observed_since_adapt > 0;
                let mut adapted = 0u8;
                if adapt_due {
                    let t0 = Instant::now();
                    for q in &self.queries {
                        self.grid.observe_query(&q.range);
                    }
                    self.grid.commit_snapshot();
                    match self.policy.adapt(&self.grid, self.z) {
                        Ok(plan) => {
                            self.plan = plan;
                            self.plan_epoch += 1;
                            adapted = 1;
                            let frame = protocol::plan_frame(
                                &self.plan,
                                self.plan_epoch,
                                t,
                                self.cfg.delta_min,
                            );
                            let bytes = frame.encode().len() as u64;
                            self.plan_broadcasts += 1;
                            self.plan_bytes += bytes;
                            self.tel.plan_broadcasts.incr();
                            self.tel.plan_bytes.add(bytes);
                            out.broadcast.push(frame);
                        }
                        Err(_) => {
                            // Degenerate snapshot (e.g. all mass in one
                            // cell): keep the previous plan, stay alive.
                        }
                    }
                    self.grid.begin_snapshot();
                    self.observed_since_adapt = 0;
                    self.tel.adapt_us.record(t0.elapsed().as_micros() as u64);
                }
                out.replies.push(Frame::WindowAck {
                    t,
                    z: self.z,
                    lambda,
                    mu,
                    depth,
                    dropped: self.dropped(),
                    adapted,
                });
            }
            Frame::SetSlice { slice, shard } => {
                if self.table.set(slice as usize, shard as usize) {
                    self.slice_rewrites += 1;
                    out.replies.push(Frame::Ack {
                        of: kind::SET_SLICE,
                    });
                } else {
                    out.replies.push(self.reject(
                        conn,
                        protocol::ERR_INVALID,
                        format!(
                            "slice {slice} or shard {shard} out of range ({}×{})",
                            self.cfg.slices, self.cfg.shards
                        ),
                    ));
                }
            }
            Frame::ReportReq => {
                self.drain();
                out.replies.push(Frame::ReportRes {
                    json: self.report_json(),
                });
            }
            Frame::Bye => {
                // The transport closes the connection after flushing.
            }
            // Server-bound connections must never send server→client kinds.
            Frame::Welcome { .. }
            | Frame::EvalRes { .. }
            | Frame::WindowAck { .. }
            | Frame::Plan { .. }
            | Frame::Ack { .. }
            | Frame::ReportRes { .. }
            | Frame::Error { .. } => {
                out.replies.push(self.reject(
                    conn,
                    protocol::ERR_UNEXPECTED,
                    format!("kind {} is server→client only", frame.kind()),
                ));
            }
        }
        out
    }

    /// Builds an `Error` reply and charges it to the connection.
    fn reject(&mut self, conn: u32, code: u16, message: String) -> Frame {
        self.conns[conn as usize].errors += 1;
        self.protocol_errors += 1;
        self.tel.protocol_errors.incr();
        Frame::Error { code, message }
    }

    /// Total updates dropped at the bounded queues since session start.
    fn dropped(&self) -> u64 {
        self.queues.iter().map(|q| q.dropped()).sum()
    }

    /// Greedy slice rebalancer: using the window's per-slice admission
    /// counts as the load signal, repeatedly moves the heaviest slice off
    /// the most loaded shard onto the least loaded one while that
    /// strictly lowers the peak. Runs only at window close, after
    /// [`Self::drain`] — empty queues make the slice→shard rewrite
    /// invisible to per-node FIFO order, so the report digest is
    /// unchanged (asserted by `tests/loopback.rs`).
    fn auto_rebalance(&mut self) {
        let shards = self.cfg.shards;
        if shards < 2 {
            return;
        }
        let mut asg = self.table.assignments().to_vec();
        let mut load = vec![0u64; shards];
        for (&w, &owner) in self.slice_admits.iter().zip(asg.iter()) {
            load[owner as usize] += w;
        }
        for _ in 0..self.cfg.slices {
            let h = (0..shards).max_by_key(|&s| load[s]).unwrap();
            let l = (0..shards).min_by_key(|&s| load[s]).unwrap();
            if h == l || load[h] == load[l] {
                break;
            }
            // Heaviest non-empty slice on the hot shard whose move
            // strictly improves the peak (lowest index breaks ties, so
            // the outcome is a pure function of the admission counts).
            let mut pick: Option<(usize, u64)> = None;
            for (slice, &owner) in asg.iter().enumerate() {
                if owner as usize != h {
                    continue;
                }
                let w = self.slice_admits[slice];
                if w == 0 || load[l] + w >= load[h] {
                    continue;
                }
                if pick.map(|(_, pw)| w > pw).unwrap_or(true) {
                    pick = Some((slice, w));
                }
            }
            let Some((slice, w)) = pick else { break };
            asg[slice] = l as u32;
            load[h] -= w;
            load[l] += w;
            self.table.set(slice, l);
            self.slice_rewrites += 1;
        }
    }

    /// Drains every shard queue into the engine, in shard order. Within a
    /// shard the queue is FIFO and a node always routes to the same
    /// shard, so per-node update order is preserved — and updates of
    /// distinct nodes commute in the engine, making the drain order
    /// equivalent to arrival order.
    ///
    /// Every update of one `Batch` carries the same arrival stamp, so the
    /// queue wait is recorded once per run of equal stamps.
    fn drain(&mut self) {
        let wall = self.wall();
        let wait_us = |offered: f64| ((wall - offered).max(0.0) * 1e6) as u64;
        for queue in &mut self.queues {
            self.observed_since_adapt += queue.len() as u64;
            let (mut stamp, mut run) = (f64::NAN, 0u64);
            for (offered, p) in queue.service_at(usize::MAX) {
                let origin = Point::new(p.u.x, p.u.y);
                let speed = (p.u.vx * p.u.vx + p.u.vy * p.u.vy).sqrt();
                self.server.ingest(p.u.id, p.t, origin, (p.u.vx, p.u.vy));
                self.grid.observe_node(&origin, speed, 1.0);
                if offered != stamp {
                    self.tel.queue_wait_us.record_n(wait_us(stamp), run);
                    (stamp, run) = (offered, 0);
                }
                run += 1;
            }
            self.tel.queue_wait_us.record_n(wait_us(stamp), run);
        }
    }

    /// The deterministic report core: a pure function of the frame
    /// sequence, compared bit-for-bit between wire and in-process runs.
    pub fn deterministic_json(&self) -> String {
        let conns = self
            .conns
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("id".into(), Json::UInt(c.id as u64)),
                    ("frames".into(), Json::UInt(c.frames)),
                    ("bytes".into(), Json::UInt(c.bytes)),
                    ("updates".into(), Json::UInt(c.updates)),
                    ("batches".into(), Json::UInt(c.batches)),
                    ("errors".into(), Json::UInt(c.errors)),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "protocol_version".into(),
                Json::UInt(protocol::VERSION as u64),
            ),
            ("slices".into(), Json::UInt(self.cfg.slices as u64)),
            ("shards".into(), Json::UInt(self.cfg.shards as u64)),
            (
                "queue_capacity".into(),
                Json::UInt(self.cfg.queue_capacity as u64),
            ),
            (
                "frames_rx".into(),
                Json::UInt(self.conns.iter().map(|c| c.frames).sum()),
            ),
            ("batches_rx".into(), Json::UInt(self.batches_rx)),
            ("updates_rx".into(), Json::UInt(self.updates_rx)),
            ("updates_admitted".into(), Json::UInt(self.updates_admitted)),
            ("updates_dropped".into(), Json::UInt(self.dropped())),
            ("eval_rounds".into(), Json::UInt(self.eval_rounds)),
            ("last_results".into(), Json::UInt(self.last_results)),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            ("windows".into(), Json::UInt(self.windows)),
            ("z".into(), Json::Float(self.z)),
            ("plan_epoch".into(), Json::UInt(self.plan_epoch)),
            ("plan_broadcasts".into(), Json::UInt(self.plan_broadcasts)),
            ("plan_bytes".into(), Json::UInt(self.plan_bytes)),
            ("plan_regions".into(), Json::UInt(self.plan.len() as u64)),
            (
                "registered_queries".into(),
                Json::UInt(self.queries.len() as u64),
            ),
            ("slice_rewrites".into(), Json::UInt(self.slice_rewrites)),
            ("protocol_errors".into(), Json::UInt(self.protocol_errors)),
            ("connections".into(), Json::Arr(conns)),
        ])
        .to_string()
    }

    /// The full session report: the deterministic core plus the telemetry
    /// snapshot (whose wall-clock histograms are *not* deterministic).
    pub fn report_json(&self) -> String {
        let core = Json::parse(&self.deterministic_json()).expect("own JSON parses");
        let snapshot = self.tel.registry.snapshot("serve");
        let tel = Json::parse(&snapshot.to_json()).expect("snapshot JSON parses");
        Json::Obj(vec![
            ("deterministic".into(), core),
            ("telemetry".into(), tel),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SessionCore {
        let mut cfg = ServeConfig::new(1000.0, 100);
        cfg.shards = 2;
        cfg.slices = 8;
        cfg.queue_capacity = 64;
        cfg.service_rate = 50.0;
        SessionCore::new(cfg)
    }

    fn upd(id: u32, x: f64, y: f64) -> WireUpdate {
        WireUpdate {
            id,
            x,
            y,
            vx: 1.0,
            vy: 0.0,
        }
    }

    #[test]
    fn hello_register_batch_eval_flow() {
        let mut s = tiny();
        let conn = s.open_conn();
        let out = s.handle(conn, Frame::Hello { flags: 1 });
        assert!(matches!(out.replies[0], Frame::Welcome { session: 0, .. }));

        let out = s.handle(
            conn,
            Frame::Register {
                queries: vec![crate::protocol::WireQuery {
                    id: 0,
                    min_x: 0.0,
                    min_y: 0.0,
                    max_x: 500.0,
                    max_y: 500.0,
                }],
            },
        );
        assert_eq!(out.replies, vec![Frame::Ack { of: kind::REGISTER }]);

        s.handle(
            conn,
            Frame::Batch {
                t: 0.0,
                updates: vec![upd(1, 100.0, 100.0), upd(2, 900.0, 900.0)],
            },
        );
        let out = s.handle(conn, Frame::EvalReq { t: 0.0 });
        match &out.replies[0] {
            Frame::EvalRes { round, results, .. } => {
                assert_eq!(*round, 1);
                assert_eq!(*results, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Node 1 is inside the query, node 2 outside.
        assert_eq!(s.server.evaluate(0.0)[0].nodes, vec![1]);
    }

    #[test]
    fn utility_policies_drive_the_plan_broadcast_path() {
        assert_eq!(
            ServePolicy::from_flag("utility-greedy"),
            Some(ServePolicy::UtilityGreedy)
        );
        assert_eq!(ServePolicy::from_flag("nope"), None);
        for policy in [ServePolicy::UtilityGreedy, ServePolicy::UtilityModel] {
            assert_eq!(ServePolicy::from_flag(policy.flag_name()), Some(policy));
            let mut cfg = ServeConfig::new(1000.0, 100);
            cfg.shards = 2;
            cfg.slices = 8;
            cfg.queue_capacity = 64;
            cfg.service_rate = 50.0;
            cfg.policy = policy;
            let mut s = SessionCore::new(cfg);
            let conn = s.open_conn();
            s.handle(conn, Frame::Hello { flags: 1 });
            let updates: Vec<WireUpdate> = (0..100)
                .map(|i| {
                    upd(
                        i,
                        (i % 10) as f64 * 100.0 + 5.0,
                        (i / 10) as f64 * 100.0 + 5.0,
                    )
                })
                .collect();
            s.handle(conn, Frame::Batch { t: 0.0, updates });
            let out = s.handle(
                conn,
                Frame::WindowClose {
                    t: 1.0,
                    window_s: 1.0,
                },
            );
            // The utility policy's plan rides the ordinary 16 B/region
            // wire format, exactly like LIRA's.
            assert_eq!(out.broadcast.len(), 1, "{policy:?}");
            match &out.broadcast[0] {
                Frame::Plan { epoch, regions, .. } => {
                    assert_eq!(*epoch, 1, "{policy:?}");
                    assert!(!regions.is_empty(), "{policy:?}");
                    assert_eq!(regions.len() % crate::protocol::REGION_WIRE_LEN, 0);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn window_close_runs_throtloop_and_broadcasts_a_plan() {
        let mut s = tiny();
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 1 });
        // Overdrive arrivals: λ = 100/1s ≫ µ = 50/s, so z must fall.
        let updates: Vec<WireUpdate> = (0..100)
            .map(|i| {
                upd(
                    i,
                    (i % 10) as f64 * 100.0 + 5.0,
                    (i / 10) as f64 * 100.0 + 5.0,
                )
            })
            .collect();
        s.handle(conn, Frame::Batch { t: 0.0, updates });
        let out = s.handle(
            conn,
            Frame::WindowClose {
                t: 1.0,
                window_s: 1.0,
            },
        );
        match &out.replies[0] {
            Frame::WindowAck {
                z, lambda, adapted, ..
            } => {
                assert!(*lambda > 99.0, "λ {lambda}");
                assert!(*z < 1.0, "overload must throttle, z {z}");
                assert_eq!(*adapted, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(out.broadcast.len(), 1, "plan broadcast to subscribers");
        match &out.broadcast[0] {
            Frame::Plan { epoch, regions, .. } => {
                assert_eq!(*epoch, 1);
                assert!(!regions.is_empty());
                assert_eq!(regions.len() % crate::protocol::REGION_WIRE_LEN, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn queue_overflow_drops_and_reports() {
        let mut s = tiny(); // capacity 64 over 2 shards = 32 each
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let updates: Vec<WireUpdate> = (0..500).map(|i| upd(i % 100, 10.0, 10.0)).collect();
        s.handle(conn, Frame::Batch { t: 0.0, updates });
        let out = s.handle(
            conn,
            Frame::WindowClose {
                t: 1.0,
                window_s: 1.0,
            },
        );
        match &out.replies[0] {
            Frame::WindowAck { dropped, .. } => {
                assert_eq!(*dropped, 500 - 64, "tail drop beyond capacity");
            }
            other => panic!("unexpected {other:?}"),
        }
        let report = s.deterministic_json();
        let parsed = Json::parse(&report).unwrap();
        assert_eq!(
            parsed.get("updates_dropped").unwrap().as_u64(),
            Some(500 - 64)
        );
        assert_eq!(parsed.get("updates_admitted").unwrap().as_u64(), Some(64));
    }

    #[test]
    fn semantic_rejections_are_counted_not_fatal() {
        let mut s = tiny();
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        let out = s.handle(
            conn,
            Frame::SetSlice {
                slice: 999,
                shard: 0,
            },
        );
        assert!(matches!(
            out.replies[0],
            Frame::Error {
                code: protocol::ERR_INVALID,
                ..
            }
        ));
        let out = s.handle(conn, Frame::Ack { of: 1 });
        assert!(matches!(
            out.replies[0],
            Frame::Error {
                code: protocol::ERR_UNEXPECTED,
                ..
            }
        ));
        assert_eq!(s.protocol_errors(), 2);
        // The session still works.
        let out = s.handle(conn, Frame::SetSlice { slice: 3, shard: 1 });
        assert_eq!(
            out.replies,
            vec![Frame::Ack {
                of: kind::SET_SLICE
            }]
        );
    }

    /// Runs a well-behaved client through five evaluated rounds; with
    /// `hostile`, a second connection sends a `Batch` carrying an id past
    /// `num_nodes` before every round. Returns the good client's last
    /// digest and the session.
    fn good_client_digest(hostile: bool) -> (u64, SessionCore) {
        let mut s = tiny();
        let good = s.open_conn();
        let bad = s.open_conn();
        s.handle(good, Frame::Hello { flags: 1 });
        s.handle(
            good,
            Frame::Register {
                queries: vec![crate::protocol::WireQuery {
                    id: 0,
                    min_x: 0.0,
                    min_y: 0.0,
                    max_x: 500.0,
                    max_y: 1000.0,
                }],
            },
        );
        let mut digest = 0;
        for r in 0..5 {
            let t = r as f64;
            if hostile {
                let out = s.handle(
                    bad,
                    Frame::Batch {
                        t,
                        updates: vec![upd(3, 10.0, 10.0), upd(100, 20.0, 20.0)],
                    },
                );
                assert!(matches!(
                    out.replies[..],
                    [Frame::Error {
                        code: protocol::ERR_INVALID,
                        ..
                    }]
                ));
            }
            let updates = (0..40)
                .map(|i| upd(i, (i as f64 * 23.0 + t) % 1000.0, 400.0))
                .collect();
            s.handle(good, Frame::Batch { t, updates });
            s.handle(good, Frame::WindowClose { t, window_s: 1.0 });
            match &s.handle(good, Frame::EvalReq { t }).replies[..] {
                [Frame::EvalRes { digest: d, .. }] => digest = *d,
                other => panic!("unexpected {other:?}"),
            }
        }
        (digest, s)
    }

    #[test]
    fn out_of_range_node_ids_are_refused_without_harming_other_clients() {
        let (clean, clean_session) = good_client_digest(false);
        let (attacked, s) = good_client_digest(true);
        assert_eq!(attacked, clean, "the good client's results are untouched");
        assert_eq!(s.protocol_errors(), 5);
        assert_eq!(s.conns[1].errors, 5);
        assert_eq!(s.conns[0].errors, 0);
        // None of the refused frames' updates were admitted or counted.
        let report = Json::parse(&s.deterministic_json()).unwrap();
        let clean_report = Json::parse(&clean_session.deterministic_json()).unwrap();
        for key in ["updates_admitted", "updates_rx", "batches_rx"] {
            assert_eq!(report.get(key), clean_report.get(key), "{key}");
        }
    }

    #[test]
    fn queue_wait_counts_every_drained_update() {
        let mut s = tiny(); // 32 slots per shard
        let conn = s.open_conn();
        s.handle(conn, Frame::Hello { flags: 0 });
        // Several batches (distinct arrival stamps) per drain, one of them
        // overflowing a shard queue.
        for r in 0..3 {
            for b in 0..4u32 {
                let updates = (0..10 + 7 * b)
                    .map(|i| upd(i, (i * 31 % 1000) as f64, 500.0))
                    .collect();
                s.handle(
                    conn,
                    Frame::Batch {
                        t: r as f64,
                        updates,
                    },
                );
            }
            s.handle(conn, Frame::EvalReq { t: r as f64 });
        }
        let snap = s.telemetry_snapshot();
        let wait = snap.histogram("serve.queue.wait_us").unwrap();
        assert_eq!(wait.count, s.updates_admitted);
        assert_eq!(
            s.updates_admitted,
            s.queues.iter().map(|q| q.serviced()).sum::<u64>()
        );
        assert!(s.dropped() > 0, "the overflow case ran");
    }

    #[test]
    fn deterministic_report_is_frame_sequence_function() {
        let run = || {
            let mut s = tiny();
            let conn = s.open_conn();
            s.handle(conn, Frame::Hello { flags: 1 });
            for r in 0..5 {
                let updates: Vec<WireUpdate> = (0..40)
                    .map(|i| upd(i, (i as f64 * 17.0 + r as f64) % 1000.0, 500.0))
                    .collect();
                s.handle(
                    conn,
                    Frame::Batch {
                        t: r as f64,
                        updates,
                    },
                );
                s.handle(conn, Frame::EvalReq { t: r as f64 });
                s.handle(
                    conn,
                    Frame::WindowClose {
                        t: r as f64,
                        window_s: 1.0,
                    },
                );
            }
            s.deterministic_json()
        };
        assert_eq!(run(), run(), "bit-identical across runs");
    }
}
