//! The served workloads: a `lira-storm` client (one `run_storm` thread
//! over one connection, standing for one base-station gateway) against a
//! `lira-serve` session, closed-loop — the client waits for every
//! `EvalRes` and `WindowAck` before it goes on.
//!
//! Three drivers share one workload definition:
//!
//! * [`run_tcp`] — the measured path: the session's socket loop on an
//!   ephemeral localhost port in a [`ServerThread`], the client wrapped in
//!   [`ClientClock`], which timestamps every request and reply it sees;
//! * [`run_traced`] — the in-process twin driven through [`LayerClock`],
//!   a transport that times encode, decode and `SessionCore::handle` per
//!   frame kind, for the per-layer numbers;
//! * [`run_untraced`] — the same twin through the crate's own
//!   `InprocTransport`, the baseline for the tracing overhead.
//!
//! All three must leave bit-identical deterministic report cores.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lira_serve::protocol::{kind, Decoder, Frame, HELLO_SUBSCRIBE_PLANS};
use lira_serve::server::{serve, ServeOptions};
use lira_serve::session::{ServeConfig, SessionCore};
use lira_serve::storm::{
    run_storm, InprocTransport, StormConfig, StormReport, TcpTransport, Transport,
};

use crate::stats::hist_sum_s;

/// One served workload: the fleet, the query set and the request cadence.
#[derive(Debug, Clone, Copy)]
pub struct ServedSpec {
    /// Fleet size.
    pub nodes: usize,
    /// Side of the square space (m).
    pub space_m: f64,
    /// Churn rounds per storm (after the prime).
    pub rounds: usize,
    /// Query side (m).
    pub query_side: f64,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
    /// Close a THROTLOOP window every this many rounds.
    pub window_every: usize,
}

/// Space side for `nodes` at `exp_serve`'s density (10 km for 10k nodes,
/// growing with √nodes).
fn space_for(nodes: usize) -> f64 {
    10_000.0 * (nodes as f64 / 10_000.0).max(1.0).sqrt()
}

impl ServedSpec {
    /// `serve-ingest`: `StormConfig::new`'s fleet and 10% churn at
    /// `nodes`, with 1 km queries, a window (and so a queue drain) every
    /// round and evaluation every 20 rounds.
    pub fn ingest(nodes: usize, rounds: usize) -> Self {
        ServedSpec {
            nodes,
            space_m: space_for(nodes),
            rounds,
            query_side: 1_000.0,
            eval_every: 20,
            window_every: 1,
        }
    }

    /// The storm configuration for `seed`.
    pub fn storm(&self, seed: u64) -> StormConfig {
        let mut s = StormConfig::new(self.nodes, self.space_m);
        s.rounds = self.rounds;
        s.query_side = self.query_side;
        s.eval_every = self.eval_every;
        s.window_every = self.window_every;
        s.seed = seed;
        s
    }

    /// `ServeConfig::new` defaults with the shard count pinned to
    /// `shards` and rebalancing off, whatever the environment says.
    pub fn session(&self, shards: usize) -> ServeConfig {
        let mut c = ServeConfig::new(self.space_m, self.nodes);
        c.shards = shards;
        c.rebalance = false;
        c
    }
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Wraps a client transport and timestamps what the client observes:
/// `EvalReq` until its `EvalRes`; `WindowClose` until its `WindowAck`, or
/// until the plan broadcast that trails an adapting ack; and the end of
/// the prime (the last send before the first frame that is not `Hello`,
/// `Register` or a `Batch` at `t = 0`).
pub struct ClientClock<T> {
    inner: T,
    /// Client-observed evaluation latencies (ms).
    pub eval_ms: Vec<f64>,
    /// Client-observed window-to-plan latencies (ms).
    pub window_ms: Vec<f64>,
    /// When the last prime frame had been handed to the transport.
    pub prime_done: Option<Instant>,
    /// Client frames sent.
    pub frames_sent: u64,
    eval_sent: Option<Instant>,
    window_sent: Option<Instant>,
    awaiting_plan: bool,
    last_send_end: Option<Instant>,
}

impl<T: Transport> ClientClock<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        ClientClock {
            inner,
            eval_ms: Vec::new(),
            window_ms: Vec::new(),
            prime_done: None,
            frames_sent: 0,
            eval_sent: None,
            window_sent: None,
            awaiting_plan: false,
            last_send_end: None,
        }
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl<T: Transport> Transport for ClientClock<T> {
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        let priming = match frame {
            Frame::Hello { .. } | Frame::Register { .. } => true,
            Frame::Batch { t, .. } => *t == 0.0,
            _ => false,
        };
        if self.prime_done.is_none() && !priming {
            self.prime_done = self.last_send_end;
        }
        let t0 = Instant::now();
        match frame {
            Frame::EvalReq { .. } => self.eval_sent = Some(t0),
            Frame::WindowClose { .. } => self.window_sent = Some(t0),
            _ => {}
        }
        self.inner.send(frame)?;
        self.frames_sent += 1;
        self.last_send_end = Some(Instant::now());
        Ok(())
    }

    fn recv(&mut self) -> std::io::Result<Frame> {
        let f = self.inner.recv()?;
        match &f {
            Frame::EvalRes { .. } => {
                if let Some(t0) = self.eval_sent.take() {
                    self.eval_ms.push(ms_since(t0));
                }
            }
            Frame::WindowAck { adapted, .. } => {
                if *adapted == 1 {
                    self.awaiting_plan = true;
                } else if let Some(t0) = self.window_sent.take() {
                    self.window_ms.push(ms_since(t0));
                }
            }
            Frame::Plan { .. } if self.awaiting_plan => {
                self.awaiting_plan = false;
                if let Some(t0) = self.window_sent.take() {
                    self.window_ms.push(ms_since(t0));
                }
            }
            _ => {}
        }
        Ok(f)
    }
}

/// One storm over TCP.
pub struct TcpRun {
    /// Session build, handshake, `Register` and the prime (s).
    pub setup_s: f64,
    /// The storm's own wall clock: prime plus rounds (s).
    pub wall_s: f64,
    /// Client-observed evaluation latencies (ms).
    pub eval_ms: Vec<f64>,
    /// Client-observed window-to-plan latencies (ms).
    pub window_ms: Vec<f64>,
    /// Client frames sent.
    pub frames_sent: u64,
    /// What the client saw, including the server's report.
    pub report: StormReport,
}

/// What the server thread reports about one session.
enum ServerEvent {
    /// The session's listener is bound here.
    Listening(SocketAddr),
    /// The session's only connection has ended.
    Finished(std::io::Result<()>),
}

/// One server thread for every storm of an invocation. Each storm gets a
/// fresh session on a fresh ephemeral port, but the thread — and with it
/// its allocator arena — lives on, so the sessions reuse the memory of
/// the ones before instead of faulting in new pages each time.
pub struct ServerThread {
    requests: Option<mpsc::Sender<ServeConfig>>,
    events: mpsc::Receiver<ServerEvent>,
    handle: Option<JoinHandle<()>>,
}

impl ServerThread {
    /// Starts the thread; it waits for [`run_tcp`] requests.
    pub fn start() -> Self {
        let (requests, inbox) = mpsc::channel::<ServeConfig>();
        let (notify, events) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            for cfg in inbox {
                let served = TcpListener::bind("127.0.0.1:0").and_then(|listener| {
                    // A send fails only once the client side is gone.
                    let _ = notify.send(ServerEvent::Listening(listener.local_addr()?));
                    let mut session = SessionCore::new(cfg);
                    let opts = ServeOptions {
                        exit_after_conns: Some(1),
                        verbose: false,
                        ..ServeOptions::default()
                    };
                    serve(listener, &mut session, &opts).map(|_| ())
                });
                let _ = notify.send(ServerEvent::Finished(served));
            }
        });
        ServerThread {
            requests: Some(requests),
            events,
            handle: Some(handle),
        }
    }

    fn next_event(&self) -> std::io::Result<ServerEvent> {
        self.events
            .recv()
            .map_err(|_| io_err("the server thread ended".into()))
    }

    /// Stops the thread and reports whether it panicked.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.join()
    }

    fn join(&mut self) -> std::io::Result<()> {
        // Closing the request channel ends the thread's loop.
        self.requests = None;
        match self.handle.take() {
            Some(h) => h
                .join()
                .map_err(|_| io_err("the server thread panicked".into())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerThread {
    fn drop(&mut self) {
        // An early return has already failed the run; only the join matters.
        let _ = self.join();
    }
}

/// Runs one storm against a fresh session served by `server` over a
/// localhost socket.
pub fn run_tcp(
    server: &ServerThread,
    spec: &ServedSpec,
    shards: usize,
    seed: u64,
) -> std::io::Result<TcpRun> {
    let storm = spec.storm(seed);
    let started = Instant::now();
    server
        .requests
        .as_ref()
        .expect("requests close only in stop")
        .send(spec.session(shards))
        .map_err(|_| io_err("the server thread ended".into()))?;
    let addr = match server.next_event()? {
        ServerEvent::Listening(addr) => addr,
        ServerEvent::Finished(r) => {
            r?;
            return Err(io_err("the server finished before it listened".into()));
        }
    };
    let client = TcpStream::connect(addr).and_then(TcpTransport::new);
    // The clock (and with it the socket) is dropped before waiting for
    // the server, so the serve loop sees its only connection end even on
    // failure.
    let outcome = client.and_then(|t| {
        let mut clock = ClientClock::new(t);
        let report = run_storm(&mut clock, &storm).map_err(|e| io_err(e.to_string()))?;
        let prime_done = clock
            .prime_done
            .ok_or_else(|| io_err("the storm sent nothing after its prime".into()))?;
        Ok(TcpRun {
            setup_s: (prime_done - started).as_secs_f64(),
            wall_s: report.wall_s,
            eval_ms: clock.eval_ms,
            window_ms: clock.window_ms,
            frames_sent: clock.frames_sent,
            report,
        })
    });
    let finished = match server.next_event()? {
        ServerEvent::Finished(r) => r,
        ServerEvent::Listening(_) => Err(io_err("the server listened twice".into())),
    };
    let run = outcome?;
    finished?;
    Ok(run)
}

/// Busy time per layer of one traced in-process storm.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Wall time of the whole traced run: session build through the
    /// storm's return (s).
    pub wall_s: f64,
    /// `SessionCore::new` (s).
    pub session_build_s: f64,
    /// Storm self time: workload stepping, dead reckoning, batching —
    /// everything `run_storm` does outside the transport (s).
    pub storm_client_s: f64,
    /// Client frame encoding (s).
    pub protocol_encode_s: f64,
    /// Client frame decoding (s).
    pub protocol_decode_s: f64,
    /// Encoded client frame bytes.
    pub protocol_bytes: u64,
    /// `handle(Batch)`: routing and queue admission (s).
    pub session_batch_s: f64,
    /// `handle(EvalReq)`: queue drain plus the engine round (s).
    pub session_eval_s: f64,
    /// `handle(WindowClose)`: queue drain, THROTLOOP and the planner (s).
    pub session_window_s: f64,
    /// `handle` of every other kind: `Hello`, `Register`, `ReportReq`,
    /// `Bye` (s).
    pub session_control_s: f64,
    /// Exact sum of the session's `serve.eval.round_us` (s).
    pub engine_round_s: f64,
    /// Exact sum of the session's `serve.adapt.us` (s).
    pub adapt_s: f64,
    /// Plan adaptations the session ran.
    pub adapt_count: u64,
}

impl Layers {
    /// The queue drain into the engine: evaluation and window handling
    /// outside the engine round and the planner (s).
    pub fn session_drain_s(&self) -> f64 {
        (self.session_eval_s - self.engine_round_s) + (self.session_window_s - self.adapt_s)
    }

    /// Mean planner time per adaptation (ms).
    pub fn adapt_ms(&self) -> f64 {
        if self.adapt_count == 0 {
            0.0
        } else {
            self.adapt_s * 1e3 / self.adapt_count as f64
        }
    }

    /// Wall time no named layer covers (the traced transport's own
    /// bookkeeping, mostly). Child layers (engine round, planner, drain)
    /// are inside `session_*` and are not added twice.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.named_s()
    }

    fn named_s(&self) -> f64 {
        self.session_build_s
            + self.storm_client_s
            + self.protocol_encode_s
            + self.protocol_decode_s
            + self.session_batch_s
            + self.session_eval_s
            + self.session_window_s
            + self.session_control_s
    }

    /// Share of the wall time the named layers account for.
    pub fn attributed_frac(&self) -> f64 {
        self.named_s() / self.wall_s
    }
}

/// In-process transport that does exactly what the crate's
/// `InprocTransport` does — client frames through the wire codec into
/// `SessionCore::handle`, replies and broadcasts straight into an inbox —
/// and times each layer it crosses.
pub struct LayerClock {
    session: SessionCore,
    conn: u32,
    subscribed: bool,
    inbox: VecDeque<Frame>,
    /// Accumulated layer times.
    pub layers: Layers,
    /// Time spent inside `send`/`recv`, for the storm's self time.
    in_transport: Duration,
}

impl LayerClock {
    fn new(mut session: SessionCore) -> Self {
        let conn = session.open_conn();
        LayerClock {
            session,
            conn,
            subscribed: false,
            inbox: VecDeque::new(),
            layers: Layers::default(),
            in_transport: Duration::ZERO,
        }
    }
}

impl Transport for LayerClock {
    fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        let entered = Instant::now();
        let bytes = frame.encode();
        let encoded = Instant::now();
        let mut d = Decoder::new();
        d.push(&bytes);
        let frame = d
            .next()
            .map_err(|e| io_err(e.to_string()))?
            .ok_or_else(|| io_err("a whole frame did not decode".into()))?;
        let decoded = Instant::now();
        self.layers.protocol_encode_s += (encoded - entered).as_secs_f64();
        self.layers.protocol_decode_s += (decoded - encoded).as_secs_f64();
        self.layers.protocol_bytes += bytes.len() as u64;
        self.session.note_frame(self.conn, &frame, bytes.len());
        if let Frame::Hello { flags } = &frame {
            self.subscribed = flags & HELLO_SUBSCRIBE_PLANS != 0;
        }
        let kind = frame.kind();
        let t0 = Instant::now();
        let out = self.session.handle(self.conn, frame);
        let handled = t0.elapsed().as_secs_f64();
        let l = &mut self.layers;
        *match kind {
            kind::BATCH => &mut l.session_batch_s,
            kind::EVAL_REQ => &mut l.session_eval_s,
            kind::WINDOW_CLOSE => &mut l.session_window_s,
            _ => &mut l.session_control_s,
        } += handled;
        self.inbox.extend(out.replies);
        if self.subscribed {
            self.inbox.extend(out.broadcast);
        }
        self.in_transport += entered.elapsed();
        Ok(())
    }

    fn recv(&mut self) -> std::io::Result<Frame> {
        let entered = Instant::now();
        let f = self.inbox.pop_front().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::WouldBlock,
                "no server frame pending (client expected one)",
            )
        });
        self.in_transport += entered.elapsed();
        f
    }
}

/// One traced in-process storm.
pub struct TracedRun {
    /// Per-layer busy times.
    pub layers: Layers,
    /// What the client saw, including the server's report.
    pub report: StormReport,
}

/// Runs the in-process twin through [`LayerClock`].
pub fn run_traced(spec: &ServedSpec, shards: usize, seed: u64) -> std::io::Result<TracedRun> {
    let started = Instant::now();
    let session = SessionCore::new(spec.session(shards));
    let built = started.elapsed();
    let mut t = LayerClock::new(session);
    let storm_started = Instant::now();
    let report = run_storm(&mut t, &spec.storm(seed)).map_err(|e| io_err(e.to_string()))?;
    let storm_wall = storm_started.elapsed();
    let mut layers = t.layers;
    layers.wall_s = started.elapsed().as_secs_f64();
    layers.session_build_s = built.as_secs_f64();
    layers.storm_client_s = (storm_wall - t.in_transport).as_secs_f64();
    let snapshot = t.session.telemetry_snapshot();
    (layers.engine_round_s, _) = hist_sum_s(&snapshot, "serve.eval.round_us");
    (layers.adapt_s, layers.adapt_count) = hist_sum_s(&snapshot, "serve.adapt.us");
    Ok(TracedRun { layers, report })
}

/// Runs the in-process twin through the crate's own `InprocTransport`;
/// returns the wall time (session build through the storm's return) and
/// the report.
pub fn run_untraced(
    spec: &ServedSpec,
    shards: usize,
    seed: u64,
) -> std::io::Result<(f64, StormReport)> {
    let started = Instant::now();
    let mut t = InprocTransport::new(SessionCore::new(spec.session(shards)));
    let report = run_storm(&mut t, &spec.storm(seed)).map_err(|e| io_err(e.to_string()))?;
    Ok((started.elapsed().as_secs_f64(), report))
}
