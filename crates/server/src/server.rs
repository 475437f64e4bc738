//! The decode server: an accept loop handing each connection to a scoped
//! handler thread and every decode to the gateway, whose workers share one
//! [`EaszDecoder`] (and therefore one model zoo), behind the framing
//! protocol of [`crate::protocol`].

use crate::batcher::{Batcher, GatewayConfig, WorkerExit};
use crate::metrics::{ServerMetrics, ServerStats};
use crate::protocol::{self, EngineTier, ErrorCode, FrameReadError, WireError};
use crate::reactor::{self, ReactorConfig};
use crate::trace::{SpanCtx, TraceConfig, TraceStage, Tracer};
use easz_codecs::CodecRegistry;
use easz_core::{EaszDecoder, EaszEncoded, EaszError, Reconstructor};
use easz_image::ImageF32;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long shutdown lets handler threads write the replies they still owe
/// before hard-closing their sockets (the reactor's default drain grace).
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Registry of live connection sockets so shutdown can unblock handler
/// threads stuck in a read — a blocked `recv` only returns once its socket
/// is shut down, and `thread::scope` will not join before then.
#[derive(Debug, Default)]
struct Connections {
    streams: Mutex<Vec<(u64, TcpStream)>>,
    next_id: AtomicU64,
}

impl Connections {
    /// Registers a connection, returning its registry id. `None` if the
    /// socket could not be cloned — that connection just cannot be
    /// force-closed.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.streams.lock().expect("connection registry poisoned").push((id, clone));
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.streams.lock().expect("connection registry poisoned").retain(|(i, _)| *i != id);
    }

    /// Shuts every registered socket down in direction `how`; either
    /// direction wakes blocked reads with EOF.
    fn shutdown_all(&self, how: Shutdown) {
        for (_, stream) in self.streams.lock().expect("connection registry poisoned").iter() {
            let _ = stream.shutdown(how);
        }
    }
}

/// Tunables of a [`EaszServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest inbound frame payload accepted; a frame announcing more is
    /// answered with [`ErrorCode::Oversize`] and the connection is closed.
    pub max_frame_len: usize,
    /// Largest number of containers accepted in one `DECODE_BATCH` frame.
    pub max_batch: usize,
    /// Per-connection read timeout; an idle connection past it is closed.
    /// `None` (the default) or a zero duration keeps connections open
    /// indefinitely (a zero `Duration` is invalid for the OS socket
    /// timeout, so it is normalised to "no timeout" rather than erroring).
    pub read_timeout: Option<Duration>,
    /// The cross-connection decode gateway, the only path to the decoder
    /// on both front ends: requests from every connection are parked in
    /// batching windows so concurrent connections share transformer
    /// forwards (see [`GatewayConfig`]; the default adapts its windows to
    /// the arrival rate). A request the gateway refuses (full queue or
    /// shutdown) is answered with the typed `BUSY` error.
    pub gateway: GatewayConfig,
    /// The event-driven reactor front end. `None` (the default) serves
    /// each connection on its own blocking handler thread; `Some` runs one
    /// epoll readiness loop over nonblocking sockets instead (see
    /// [`ReactorConfig`]).
    pub reactor: Option<ReactorConfig>,
    /// Request tracing. `None` (the default) captures no spans — request
    /// structs carry no trace context and the instrumented sites reduce to
    /// inlined `Option` checks; `Some` attaches a [`Tracer`] whose sampled
    /// spans and slow-request log are served via the `TRACE` frame (see
    /// [`TraceConfig`]). The always-on latency histograms in
    /// [`ServerMetrics`] do not depend on this.
    pub trace: Option<TraceConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame_len: 16 << 20,
            max_batch: 64,
            read_timeout: None,
            gateway: GatewayConfig::default(),
            reactor: None,
            trace: None,
        }
    }
}

/// A batched `.easz` decode server over TCP.
///
/// One model zoo serves every connection: handler threads run under
/// [`std::thread::scope`] and hand every container to the decode gateway,
/// whose workers share a single [`EaszDecoder`] — one transformer forward
/// per fusable group of a batching window rather than one per stream.
/// The generic model answers containers carrying model id 0 (including
/// every pre-zoo container); [`with_model`](Self::with_model) mounts
/// fine-tuned models under nonzero ids, and a container naming an
/// unmounted id gets a typed `UNKNOWN_MODEL` error instead of a wrong
/// reconstruction.
///
/// ```no_run
/// use easz_core::zoo;
/// use easz_server::{EaszClient, EaszServer};
///
/// let model = zoo::pretrained(zoo::PretrainSpec::quick());
/// let handle = EaszServer::new(model).spawn("127.0.0.1:0").expect("bind");
/// let mut client = EaszClient::connect(handle.addr()).expect("connect");
/// assert_eq!(client.ping().expect("ping"), easz_server::protocol::PROTOCOL_VERSION);
/// handle.shutdown().expect("clean shutdown");
/// ```
pub struct EaszServer {
    model: Arc<Reconstructor>,
    /// Fine-tuned zoo models mounted under nonzero ids, sorted by id.
    extra_models: Vec<(u8, Arc<Reconstructor>)>,
    registry: CodecRegistry,
    config: ServerConfig,
    metrics: Arc<ServerMetrics>,
}

impl std::fmt::Debug for EaszServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EaszServer")
            .field("registry", &self.registry)
            .field("config", &self.config)
            .finish()
    }
}

impl EaszServer {
    /// Creates a server around a trained reconstructor with the default
    /// codec registry and configuration.
    pub fn new(model: Arc<Reconstructor>) -> Self {
        Self {
            model,
            extra_models: Vec::new(),
            registry: CodecRegistry::with_defaults(),
            config: ServerConfig::default(),
            metrics: Arc::new(ServerMetrics::new()),
        }
    }

    /// Replaces the codec registry (e.g. an allow-list of inner codecs).
    pub fn with_registry(mut self, registry: CodecRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Mounts a zoo model under `id`, serving containers whose header
    /// carries that model id. Id `0` replaces the generic model passed to
    /// [`new`](Self::new); mounting the same nonzero id twice keeps the
    /// later model. The gateway never fuses requests across model ids, so
    /// mounted models stay bit-exact to their local serial decodes.
    pub fn with_model(mut self, id: u8, model: Arc<Reconstructor>) -> Self {
        if id == 0 {
            self.model = model;
            return self;
        }
        match self.extra_models.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(pos) => self.extra_models[pos].1 = model,
            Err(pos) => self.extra_models.insert(pos, (id, model)),
        }
        self
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the per-connection read timeout: an idle or half-open client
    /// past it is disconnected instead of pinning its handler thread. A
    /// zero duration means "no timeout".
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.config.read_timeout = Some(timeout);
        self
    }

    /// Replaces the decode gateway's tunables. Requests from every
    /// connection are parked into batching windows (closed on
    /// [`max_batch`](GatewayConfig::max_batch) or the window's wait budget)
    /// and decoded by a shared worker pool, so concurrent clients share
    /// transformer forwards even when their mask seeds differ. Replies are
    /// byte-identical to local serial decoding.
    pub fn with_gateway(mut self, gateway: GatewayConfig) -> Self {
        self.config.gateway = gateway;
        self
    }

    /// Selects the event-driven reactor front end: one epoll readiness
    /// loop over nonblocking sockets replaces the thread-per-connection
    /// accept loop, scaling in connections instead of threads and adding
    /// admission control (`BUSY` beyond
    /// [`max_connections`](ReactorConfig::max_connections)). Decodes go
    /// through the same gateway, with the same `BUSY` shedding when its
    /// queue saturates, and replies stay byte-identical to the threaded
    /// path. Linux-only; serving fails with
    /// [`io::ErrorKind::Unsupported`] elsewhere.
    pub fn with_reactor(mut self, reactor: ReactorConfig) -> Self {
        self.config.reactor = Some(reactor);
        self
    }

    /// Enables request tracing on both front ends: every request carries a
    /// span stamping its pipeline milestones, every `sample_every`-th span
    /// (plus every request slower than `slow_threshold_us`, always) is
    /// kept in a fixed-size ring, and decode-stage hooks are installed on
    /// the shared decoder. Drain the spans with
    /// [`EaszClient::trace`](crate::EaszClient::trace) or the `easz-top`
    /// inspector. Replies stay byte-identical with tracing on or off.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = Some(trace);
        self
    }

    /// The server's live metrics registry (also served to clients via the
    /// `STATS` frame). The handle survives the server, so an embedder can
    /// scrape it after shutdown.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        self.metrics.clone()
    }

    /// Serves connections on `listener` until the process exits, blocking
    /// the calling thread. Each connection gets a scoped handler thread;
    /// a handler failure (connection reset mid-reply) never takes down the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Only fatal accept-loop errors; per-connection I/O errors are
    /// swallowed after closing that connection.
    pub fn serve(self, listener: TcpListener) -> io::Result<()> {
        self.serve_until(listener, &AtomicBool::new(false), &Connections::default())
    }

    /// Binds `addr` and serves on a background thread, returning a handle
    /// that reports the bound address and can shut the server down.
    ///
    /// # Errors
    ///
    /// Bind or thread-spawn failures.
    pub fn spawn(self, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
        self.spawn_on(TcpListener::bind(addr)?)
    }

    /// As [`spawn`](Self::spawn), but serves an already-bound listener —
    /// for embedders (and `easz-serve`) that bind themselves and keep the
    /// handle around for signal-driven graceful drain.
    ///
    /// # Errors
    ///
    /// Local-address lookup or thread-spawn failures.
    pub fn spawn_on(self, listener: TcpListener) -> io::Result<ServerHandle> {
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Connections::default());
        let metrics = self.metrics.clone();
        let (flag, conns) = (shutdown.clone(), connections.clone());
        let thread = std::thread::Builder::new()
            .name("easz-serve".into())
            .spawn(move || self.serve_until(listener, &flag, &conns))?;
        Ok(ServerHandle { addr, shutdown, connections, metrics, thread: Some(thread) })
    }

    fn serve_until(
        self,
        listener: TcpListener,
        shutdown: &AtomicBool,
        connections: &Connections,
    ) -> io::Result<()> {
        let Self { model, extra_models, registry, config, metrics } = self;
        let mut decoder = EaszDecoder::with_registry(&model, registry);
        for (id, extra) in &extra_models {
            decoder.add_model(*id, extra);
        }
        // With tracing on, the shared decoder reports its per-stage wall
        // times (parse/plan/forward/finish) into the tracer's accumulators.
        let tracer = config.trace.map(|cfg| Arc::new(Tracer::new(cfg)));
        if let Some(tracer) = &tracer {
            let sink = tracer.clone();
            decoder.set_stage_sink(Arc::new(move |stage, us| sink.record_decode_stage(stage, us)));
        }
        let tracer = tracer.as_deref();
        let decoder = decoder;
        let batcher = Batcher::new(config.gateway.clone(), metrics.clone());
        std::thread::scope(|scope| {
            // The gateway threads live inside the connection scope so they
            // can borrow the shared decoder; they exit when `shutdown()`
            // below flushes the queue.
            scope.spawn(|| batcher.run_scheduler());
            for _ in 0..config.gateway.workers {
                let (batcher, decoder, metrics) = (&batcher, &decoder, &metrics);
                // Supervisor loop: a worker poisoned by a caught decode
                // panic is respawned in place (same thread, fresh
                // `run_worker`), so the pool never shrinks under faults.
                scope.spawn(move || loop {
                    match batcher.run_worker(decoder) {
                        WorkerExit::Shutdown => break,
                        WorkerExit::Poisoned => metrics.record_worker_respawn(),
                    }
                });
            }
            let result = if let Some(reactor_config) = &config.reactor {
                reactor::run(
                    listener,
                    shutdown,
                    &config,
                    reactor_config,
                    &metrics,
                    &batcher,
                    tracer,
                )
            } else {
                loop {
                    let (stream, _) = match listener.accept() {
                        Ok(conn) => conn,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => break Err(e),
                    };
                    if shutdown.load(Ordering::Acquire) {
                        // The waking connection is dropped unanswered; the
                        // scope drains in-flight handlers (unblocked by
                        // `shutdown_all`) before we return.
                        break Ok(());
                    }
                    let ctx = ConnCtx {
                        config: &config,
                        metrics: &metrics,
                        batcher: &batcher,
                        tracer,
                        source: 0,
                    };
                    scope.spawn(move || {
                        // A connection that cannot be registered (fd pressure
                        // broke the try_clone) could never be force-closed and
                        // would pin shutdown forever — refuse it instead of
                        // serving it.
                        let Some(id) = connections.register(&stream) else {
                            ctx.metrics.record_connection_refused();
                            return;
                        };
                        // The registry id doubles as the gateway fairness
                        // source: one id per connection.
                        let ctx = ConnCtx { source: id, ..ctx };
                        // Re-check after registering: a shutdown signalled
                        // between accept and register has already swept the
                        // registry, and this handler must not start a blocking
                        // read it would never be woken from.
                        if !shutdown.load(Ordering::Acquire) {
                            ctx.metrics.record_connection_open();
                            let _ = handle_connection(stream, &ctx);
                            ctx.metrics.record_connection_close();
                        }
                        connections.deregister(id);
                    });
                }
            };
            // Stop the gateway before the scope joins: the scheduler
            // flushes parked jobs into final windows, workers drain them
            // (so draining connections still get replies), then all gateway
            // threads exit.
            batcher.shutdown();
            result
        })
    }
}

/// Everything a connection handler needs, bundled so handler signatures
/// stay readable.
#[derive(Clone, Copy)]
struct ConnCtx<'a> {
    config: &'a ServerConfig,
    metrics: &'a ServerMetrics,
    batcher: &'a Batcher,
    /// The request tracer, when tracing is enabled.
    tracer: Option<&'a Tracer>,
    /// This connection's gateway fairness source id.
    source: u64,
}

/// What a gateway-parked request's channel carries back: the result plus
/// the request's trace span (stamped through the queue milestones).
type GatewayReply = (Result<ImageF32, EaszError>, Option<SpanCtx>);

/// One container's place in a connection's reply order.
enum Slot {
    /// The container did not parse; answered with its typed error.
    ParseError(EaszError),
    /// Parked in the gateway; the result arrives on this channel.
    Pending(Receiver<GatewayReply>),
    /// Refused by the gateway (full queue or shutdown): shed, and answered
    /// with this `BUSY` error.
    Shed(WireError, Option<SpanCtx>),
}

impl ConnCtx<'_> {
    /// Opens a trace span for a freshly read request frame (`None` when
    /// tracing is off), already stamped `Admitted` — the threaded front
    /// end has no admission gate, so assembly is admission.
    fn begin_span(&self, frame_type: u8) -> Option<SpanCtx> {
        self.tracer.map(|t| {
            let mut span = t.begin(frame_type, self.source);
            span.stamp(TraceStage::Admitted);
            span
        })
    }

    /// Parses one container and parks it in the gateway with a
    /// channel-backed reply, so this handler thread can block on the
    /// receiver. `tier`, when present, overrides the container's standing
    /// engine preference.
    fn submit(&self, container: &[u8], tier: Option<EngineTier>, frame_type: u8) -> Slot {
        let encoded = match EaszEncoded::from_bytes(container) {
            Ok(encoded) => encoded,
            Err(e) => return Slot::ParseError(e),
        };
        let engine = tier.map_or_else(|| encoded.preferred_engine(), EngineTier::engine);
        let (tx, rx) = mpsc::channel();
        let reply = Box::new(move |result, span| {
            let _ = tx.send((result, span));
        });
        match self.batcher.submit(encoded, engine, self.source, self.begin_span(frame_type), reply)
        {
            Ok(()) => Slot::Pending(rx),
            Err((_, span, _)) => Slot::Shed(shed_error(self.metrics), span),
        }
    }
}

/// The overload policy of both front ends: a decode the gateway refuses
/// (full queue or shutdown) is counted as shed and answered with the typed
/// `BUSY` error, which [`RetryPolicy`](crate::RetryPolicy) retries.
pub(crate) fn shed_error(metrics: &ServerMetrics) -> WireError {
    metrics.record_request_shed();
    metrics.record_error(ErrorCode::Busy);
    WireError { code: ErrorCode::Busy, message: "decode queue is saturated, retry later".into() }
}

/// Handle to a server running on a background thread (see
/// [`EaszServer::spawn`]).
///
/// Dropping the handle shuts the server down; call
/// [`shutdown`](Self::shutdown) instead to observe the accept loop's exit
/// status. Shutdown drains in-flight connections before returning.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    connections: Arc<Connections>,
    metrics: Arc<ServerMetrics>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on (with the ephemeral port
    /// resolved, so `spawn("127.0.0.1:0")` is directly connectable).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The running server's metrics registry — the same counters the
    /// `STATS` frame serves, scrapeable in-process (and after shutdown).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Signals shutdown and joins the server thread.
    fn stop(&mut self) -> Option<std::thread::Result<io::Result<()>>> {
        let thread = self.thread.take()?;
        self.shutdown.store(true, Ordering::Release);
        // Stop reading: handler threads stuck mid-read (idle keep-alive
        // clients would otherwise pin the scope join forever) wake with
        // EOF, while replies they still owe — parked jobs the gateway
        // flushes on shutdown — can still be written. Then wake the
        // blocking accept; a connect error just means it is already dead.
        self.connections.shutdown_all(Shutdown::Read);
        let _ = TcpStream::connect(self.addr);
        // A handler blocked writing to a peer that stopped reading would
        // pin the join forever: past the grace, close sockets outright.
        let deadline = Instant::now() + DRAIN_GRACE;
        while !thread.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if !thread.is_finished() {
            self.connections.shutdown_all(Shutdown::Both);
        }
        Some(thread.join())
    }

    /// Stops accepting, drains in-flight connections (every parked decode
    /// is answered) and returns the accept loop's exit status.
    ///
    /// # Errors
    ///
    /// The accept loop's fatal error, if it died before shutdown.
    pub fn shutdown(mut self) -> io::Result<()> {
        match self.stop().expect("thread present until shutdown/drop") {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Serves one connection until clean EOF, a timeout, or a framing-level
/// violation. Container-level failures are answered with typed error frames
/// and never close the connection, let alone the server.
fn handle_connection(mut stream: TcpStream, ctx: &ConnCtx<'_>) -> io::Result<()> {
    let (config, metrics) = (ctx.config, ctx.metrics);
    // A zero Duration means "no timeout" here, but is InvalidInput to the
    // OS call — normalise it instead of silently dropping the connection.
    stream.set_read_timeout(config.read_timeout.filter(|t| !t.is_zero()))?;
    loop {
        let (frame_type, payload) = match protocol::read_frame(&mut stream, config.max_frame_len) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()), // clean EOF between frames
            Err(FrameReadError::Oversize { announced, limit }) => {
                let err = WireError {
                    code: ErrorCode::Oversize,
                    message: format!("frame announces {announced} bytes, limit is {limit}"),
                };
                // Unread payload bytes follow, so framing is lost: close —
                // but drain what the peer already sent first, else the
                // kernel turns our close into an RST that discards the
                // error frame before the peer can read it.
                metrics.record_error(ErrorCode::Oversize);
                let result = protocol::write_frame(&mut stream, protocol::ERROR, &err.to_payload());
                drain_bounded(&mut stream, announced);
                return result;
            }
            Err(FrameReadError::Io(e)) => {
                return match e.kind() {
                    // Mid-frame disconnects and idle timeouts end the
                    // connection without being server errors.
                    io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::ConnectionReset => Ok(()),
                    _ => Err(e),
                };
            }
        };
        // The frame is assembled: the service-time clock (always on) and
        // the request's trace span (tracing only) both start here.
        let received = Instant::now();
        match frame_type {
            protocol::DECODE | protocol::DECODE_TIERED => {
                // A tiered request prefixes the container with one engine
                // byte that overrides the container's standing preference.
                let (tier, container) = if frame_type == protocol::DECODE_TIERED {
                    match split_tier(&payload) {
                        Ok(pair) => pair,
                        Err(message) => {
                            send_wire_error(&mut stream, ErrorCode::Protocol, message, metrics)?;
                            continue;
                        }
                    }
                } else {
                    (None, payload.as_slice())
                };
                metrics.record_requests(1);
                decode_and_reply(&mut stream, ctx, &[container], tier, frame_type, received)?;
            }
            protocol::DECODE_BATCH | protocol::DECODE_BATCH_TIERED => {
                let (tier, batch_payload) = if frame_type == protocol::DECODE_BATCH_TIERED {
                    match split_tier(&payload) {
                        Ok(pair) => pair,
                        Err(message) => {
                            send_wire_error(&mut stream, ErrorCode::Protocol, message, metrics)?;
                            continue;
                        }
                    }
                } else {
                    (None, payload.as_slice())
                };
                match protocol::decode_batch_payload(batch_payload, config.max_batch) {
                    Err(message) => {
                        send_wire_error(&mut stream, ErrorCode::Protocol, message, metrics)?;
                    }
                    Ok(containers) => {
                        metrics.record_requests(containers.len() as u64);
                        decode_and_reply(
                            &mut stream,
                            ctx,
                            &containers,
                            tier,
                            frame_type,
                            received,
                        )?;
                    }
                }
            }
            protocol::PING => {
                if payload.len() == 1 {
                    protocol::write_frame(
                        &mut stream,
                        protocol::PONG,
                        &[protocol::PROTOCOL_VERSION],
                    )?;
                } else {
                    let message = format!("ping payload must be 1 byte, got {}", payload.len());
                    send_wire_error(&mut stream, ErrorCode::Protocol, message, metrics)?;
                }
            }
            protocol::STATS => {
                if payload.is_empty() {
                    let snapshot: ServerStats = metrics.snapshot();
                    protocol::write_frame(
                        &mut stream,
                        protocol::STATS_REPLY,
                        &snapshot.to_payload(),
                    )?;
                } else {
                    let message = format!("stats payload must be empty, got {}", payload.len());
                    send_wire_error(&mut stream, ErrorCode::Protocol, message, metrics)?;
                }
            }
            protocol::TRACE => {
                if payload.is_empty() {
                    // With tracing off the reply is a valid empty report,
                    // so inspectors degrade instead of erroring.
                    let report = ctx.tracer.map(Tracer::drain).unwrap_or_default();
                    protocol::write_frame(
                        &mut stream,
                        protocol::TRACE_REPLY,
                        &report.to_payload(),
                    )?;
                } else {
                    let message = format!("trace payload must be empty, got {}", payload.len());
                    send_wire_error(&mut stream, ErrorCode::Protocol, message, metrics)?;
                }
            }
            other => {
                let err = WireError {
                    code: ErrorCode::UnknownFrame,
                    message: format!("unknown frame type 0x{other:02x}"),
                };
                // The peer speaks something else: answer once and close.
                metrics.record_error(ErrorCode::UnknownFrame);
                return protocol::write_frame(&mut stream, protocol::ERROR, &err.to_payload());
            }
        }
    }
}

/// Splits the leading engine-tier byte off a tiered request payload
/// (shared with the reactor's frame dispatcher).
///
/// # Errors
///
/// A `PROTOCOL`-class message for an empty payload or a reserved tier byte
/// (the connection stays open; only the request is unhonourable).
pub(crate) fn split_tier(payload: &[u8]) -> Result<(Option<EngineTier>, &[u8]), String> {
    let (&tier_byte, rest) =
        payload.split_first().ok_or("tiered request is missing its engine byte")?;
    let tier = EngineTier::from_byte(tier_byte)
        .ok_or_else(|| format!("unknown engine tier byte {tier_byte}"))?;
    Ok((Some(tier), rest))
}

/// Submits every container of a decode request to the gateway, one job
/// per container, then replies strictly in request order. `tier`, when
/// present, overrides every container's standing engine preference. Each
/// parsed container gets its own trace span — a batch frame is one wire
/// frame but many requests — and may share a window with requests from
/// other connections (though never across engine tiers).
///
/// # Errors
///
/// Reply-write failures, and `ConnectionAborted` when the gateway dropped
/// a parked job (shutdown beat the reply): either way the connection
/// closes.
fn decode_and_reply(
    stream: &mut TcpStream,
    ctx: &ConnCtx<'_>,
    containers: &[&[u8]],
    tier: Option<EngineTier>,
    frame_type: u8,
    received: Instant,
) -> io::Result<()> {
    // Park everything before waiting on anything, so the request's
    // containers can share windows with each other.
    let slots: Vec<Slot> = containers.iter().map(|c| ctx.submit(c, tier, frame_type)).collect();
    for slot in slots {
        let (reply, span) = match slot {
            Slot::ParseError(e) => (decode_outcome(Err(e), ctx.metrics), None),
            Slot::Pending(rx) => match rx.recv() {
                Ok((result, span)) => (decode_outcome(result, ctx.metrics), span),
                Err(_) => return Err(io::ErrorKind::ConnectionAborted.into()),
            },
            Slot::Shed(err, span) => (Err(err), span),
        };
        write_traced_reply(stream, ctx, reply, span, received)?;
    }
    Ok(())
}

/// Counts one decode outcome and turns its error into the wire form.
fn decode_outcome(
    result: Result<ImageF32, EaszError>,
    metrics: &ServerMetrics,
) -> Result<ImageF32, WireError> {
    metrics.record_decode(result.is_ok());
    result.map_err(|e| {
        let err = WireError::from_easz(&e);
        metrics.record_error(err.code);
        err
    })
}

/// Reads and discards up to `limit` pending bytes so closing the socket
/// does not reset the connection under the peer's feet. Bounded in time
/// (two seconds) as well as bytes — a peer that keeps trickling data gets
/// the reset it asked for.
fn drain_bounded(stream: &mut TcpStream, limit: usize) {
    use std::io::Read;
    use std::time::{Duration, Instant};
    if stream.set_read_timeout(Some(Duration::from_millis(250))).is_err() {
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut remaining = limit;
    let mut sink = [0u8; 64 * 1024];
    while remaining > 0 && Instant::now() < deadline {
        let chunk = remaining.min(sink.len());
        match stream.read(&mut sink[..chunk]) {
            Ok(0) | Err(_) => return,
            Ok(n) => remaining -= n,
        }
    }
}

/// Writes a decode reply with the observability bookkeeping of the
/// threaded path: the always-on service-time histogram sample (assembled
/// frame → reply written) and, with tracing on, the span's reply
/// milestones and its hand-off to the tracer.
fn write_traced_reply(
    stream: &mut TcpStream,
    ctx: &ConnCtx<'_>,
    reply: Result<ImageF32, WireError>,
    mut span: Option<SpanCtx>,
    received: Instant,
) -> io::Result<()> {
    if let Some(span) = &mut span {
        span.stamp(TraceStage::ReplyQueued);
    }
    let ok = reply.is_ok();
    let written = match reply {
        Ok(image) => {
            protocol::write_frame(stream, protocol::IMAGE, &protocol::encode_image(&image.to_u8()))
        }
        Err(err) => protocol::write_frame(stream, protocol::ERROR, &err.to_payload()),
    };
    ctx.metrics.record_service(received.elapsed().as_micros() as u64);
    if let (Some(tracer), Some(mut span)) = (ctx.tracer, span) {
        span.stamp(TraceStage::ReplyWritten);
        tracer.finish(span, ok && written.is_ok());
    }
    written
}

/// Writes one typed error frame, counting it in the metrics registry.
fn send_wire_error(
    stream: &mut TcpStream,
    code: ErrorCode,
    message: String,
    metrics: &ServerMetrics,
) -> io::Result<()> {
    metrics.record_error(code);
    let err = WireError { code, message };
    protocol::write_frame(stream, protocol::ERROR, &err.to_payload())
}
