//! A minimal, dependency-free HTTP/1.1 front end over
//! `std::net::TcpListener`, hardened for sustained traffic.
//!
//! The API is versioned under `/v1`; every route also exists at its
//! historical unversioned path as a thin alias (deprecated, kept for
//! old clients, metered separately in `/metrics`):
//!
//! | Method & `/v1` path          | Meaning                                        |
//! |------------------------------|------------------------------------------------|
//! | `POST /v1/jobs` (or `/v1/layout`) | submit a job: body = GFA (or `?graph=<id>`); query = typed `JobSpec` params → ticket |
//! | `GET /v1/jobs/<id>`          | job status JSON (state, progress, priority, …) |
//! | `GET /v1/jobs/<id>/events`   | **chunked stream** of the job's event log      |
//! | `GET /v1/jobs/<id>/trace`    | phase timeline: span offsets + durations       |
//! | `POST /v1/jobs/<id>/cancel`  | request cancellation (also `DELETE /v1/jobs/<id>`) |
//! | `GET /v1/result/<id>`        | finished layout as TSV (`?format=lay` binary)  |
//! | `POST /v1/graphs`            | body = GFA; parse once → `{graph_id, nodes, …}`|
//! | `GET /v1/graphs`             | list stored graphs (`ETag` / `If-None-Match`)  |
//! | `DELETE /v1/graphs/<id>`     | delete a stored graph                          |
//! | `GET /v1/stats`              | service + cache + graph-store + HTTP counters  |
//! | `GET /v1/metrics`            | Prometheus-style text exposition               |
//! | `GET /v1/engines`            | registered engine names                        |
//! | `GET /v1/healthz`            | liveness probe                                 |
//!
//! Submission query parameters (parsed into one validated
//! [`crate::spec::JobSpec`]): `engine` (default `cpu`), `iters`,
//! `threads`, `seed`, `batch`, `soa`, `graph=<id>` (lay out a stored
//! graph by reference — the **upload-once** flow), plus the scheduling
//! dimensions `priority=interactive|normal|bulk`, `client=<key>` (the
//! fair-share identity; defaults to the peer IP the rate limiter also
//! uses), and `ttl_ms=<n>` (fail the job if still queued after `n` ms).
//! Under `/v1` unknown parameters are a `400`; the legacy routes keep
//! ignoring them.
//!
//! `GET /v1/jobs/<id>/events?from=<seq>` answers with
//! `Transfer-Encoding: chunked` and writes one NDJSON line per job
//! event (state transitions and coalesced progress), blocking until new
//! events arrive and closing the stream after the terminal event —
//! clients watch a job without polling. Heartbeat lines
//! (`{"event":"heartbeat"}`) flow during long gaps so dead clients are
//! detected. A stream pins its handler thread for the job's lifetime,
//! so at most half the handler pool may stream concurrently
//! ([`max_event_streams`]); excess watchers are shed with `503 +
//! Retry-After`.
//!
//! ## Traffic model
//!
//! One acceptor thread feeds a **bounded queue** drained by a fixed pool
//! of [`HttpConfig::max_conns`] handler threads. When the queue is full
//! the acceptor answers `503 Service Unavailable` with a `Retry-After`
//! header instead of spawning unboundedly or hanging the client — an
//! overloaded server stays responsive and sheds load explicitly.
//!
//! Handlers speak **HTTP/1.1 keep-alive**: sequential requests are
//! served on one connection until the client sends `Connection: close`,
//! the idle timeout [`HttpConfig::keep_alive`] expires, or a per-
//! connection request cap is reached. `pgl batch`-style clients thus pay
//! one TCP handshake for a whole polling session, not one per request.
//!
//! Every answered request lands in [`HttpMetrics`]: per-route counters
//! plus log2-bucketed latency histograms, surfaced through both
//! `GET /stats` (JSON) and `GET /metrics` (Prometheus text). Legacy
//! aliases and `/v1` routes are metered under distinct labels so the
//! deprecation is observable.
//!
//! With [`HttpConfig::rate_limit`] set, a per-client-IP token bucket
//! ([`crate::ratelimit::RateLimiter`]) throttles request processing:
//! clients over their budget get `429 Too Many Requests` +
//! `Retry-After`, counted in `/metrics` as
//! `pgl_http_rate_limited_total`.

use crate::httpmetrics::{route_index, HttpMetrics, OTHER_ROUTE};
use crate::job::{EventKind, JobEvent, JobId};
use crate::obs;
use crate::ratelimit::RateLimiter;
use crate::service::{LayoutService, SubmitError};
use crate::spec::parse_job_spec;
use pangraph::store::{content_hash, ContentHash};
use pgio::{layout_to_tsv, write_lay};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Largest accepted request body (a chromosome-scale GFA fits well
/// inside this).
const MAX_BODY: usize = 1 << 30;

/// Longest accepted request/header line and maximum header count —
/// generous for real clients, fatal for memory-exhaustion abuse.
const MAX_HEADER_LINE: usize = 16 * 1024;
const MAX_HEADERS: usize = 128;

/// Deadline for reading the rest of a request once its first line has
/// arrived, and for writing responses.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// Requests served on one connection before the server forces a close —
/// a backstop so a single client cannot pin a handler thread forever.
const MAX_REQUESTS_PER_CONN: u64 = 1000;

/// Plain requests slower than this are logged at `warn` with their
/// route and status — the structured-log counterpart of the latency
/// histogram's tail. Event streams are exempt (they block by design).
const SLOW_REQUEST_WARN: Duration = Duration::from_secs(1);

/// How long an event stream waits for new events before emitting a
/// heartbeat line (which doubles as dead-client detection: the write
/// fails once the peer is gone).
const EVENT_HEARTBEAT: Duration = Duration::from_secs(15);

/// Ceiling on concurrent event streams as a fraction of the handler
/// pool: streams pin handler threads for a job's whole lifetime, so
/// without a cap a handful of watchers could exhaust `max_conns` and
/// 503 every other request. At most half the pool may stream; the
/// excess is shed with `503 + Retry-After`.
fn max_event_streams(cfg: &HttpConfig) -> usize {
    (cfg.max_conns / 2).max(1)
}

/// Tuning knobs for the HTTP front end.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Handler threads; also the bound of the pending-connection queue,
    /// so at most `2 × max_conns` connections are admitted at once
    /// (half being served, half waiting). Beyond that: `503`.
    pub max_conns: usize,
    /// Keep-alive idle timeout between requests on one connection.
    /// Zero disables connection reuse (every response closes).
    pub keep_alive: Duration,
    /// Seconds advertised in the `Retry-After` header of overload 503s.
    pub retry_after_secs: u32,
    /// Sustained requests per second allowed per client IP (burst of
    /// about one second's worth). `0.0` disables rate limiting.
    pub rate_limit: f64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            max_conns: 64,
            keep_alive: Duration::from_secs(5),
            retry_after_secs: 1,
            rate_limit: 0.0,
        }
    }
}

/// A bound-but-not-yet-serving HTTP server.
pub struct HttpServer {
    listener: TcpListener,
    service: Arc<LayoutService>,
    stop: Arc<AtomicBool>,
    cfg: HttpConfig,
    metrics: Arc<HttpMetrics>,
    role: Arc<crate::cluster::ClusterRole>,
}

impl HttpServer {
    /// Bind to `addr` (e.g. `127.0.0.1:7878`, port 0 for ephemeral) with
    /// the default [`HttpConfig`].
    pub fn bind(addr: &str, service: Arc<LayoutService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            service,
            stop: Arc::new(AtomicBool::new(false)),
            cfg: HttpConfig::default(),
            metrics: Arc::new(HttpMetrics::new()),
            role: crate::cluster::ClusterRole::standalone(),
        })
    }

    /// Set the cluster role surfaced in `/healthz` (builder style).
    /// Defaults to standalone; `pgl serve --join` passes a worker role.
    pub fn with_role(mut self, role: Arc<crate::cluster::ClusterRole>) -> Self {
        self.role = role;
        self
    }

    /// Replace the traffic configuration (builder style).
    pub fn with_config(mut self, cfg: HttpConfig) -> Self {
        self.cfg = HttpConfig {
            max_conns: cfg.max_conns.max(1),
            ..cfg
        };
        self
    }

    /// The server's request metrics (shared with the handler pool).
    pub fn metrics(&self) -> Arc<HttpMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Serve until [`ServerHandle::stop`] is called (or forever).
    pub fn serve(self) {
        let Self {
            listener,
            service,
            stop,
            cfg,
            metrics,
            role,
        } = self;
        let limiter = RateLimiter::maybe(cfg.rate_limit).map(Arc::new);
        let queue = Arc::new(ConnQueue::new(cfg.max_conns));
        // Live event-stream count, shared by the handler pool (see
        // `max_event_streams`).
        let streams = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        // One slot per handler holding a clone of the connection it is
        // serving, so shutdown can sever blocked reads instead of
        // waiting out keep-alive idle timeouts.
        let active: Arc<Vec<Mutex<Option<TcpStream>>>> =
            Arc::new((0..cfg.max_conns).map(|_| Mutex::new(None)).collect());
        let handlers: Vec<_> = (0..cfg.max_conns)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let active = Arc::clone(&active);
                let service = Arc::clone(&service);
                let metrics = Arc::clone(&metrics);
                let cfg = cfg.clone();
                let stop = Arc::clone(&stop);
                let limiter = limiter.clone();
                let streams = Arc::clone(&streams);
                let role = Arc::clone(&role);
                std::thread::Builder::new()
                    .name(format!("pgl-http-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            *active[i].lock().unwrap() = stream.try_clone().ok();
                            // Re-check stop after publishing the slot:
                            // the sever pass may have scanned it in the
                            // instant before this connection landed.
                            if stop.load(Ordering::Relaxed) {
                                *active[i].lock().unwrap() = None;
                                break;
                            }
                            handle_connection(
                                stream,
                                &service,
                                &metrics,
                                &cfg,
                                limiter.as_deref(),
                                &stop,
                                &streams,
                                &role,
                            );
                            *active[i].lock().unwrap() = None;
                        }
                    })
                    .expect("spawn http handler")
            })
            .collect();
        for stream in listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            match queue.try_push(stream) {
                Ok(()) => metrics.record_accepted(),
                Err(stream) => {
                    metrics.record_rejected();
                    reject_overloaded(stream, &cfg);
                }
            }
        }
        queue.close();
        for slot in active.iter() {
            if let Some(stream) = slot.lock().unwrap().as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    }

    /// Serve on a background thread; the returned handle stops it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let stop = Arc::clone(&self.stop);
        let handle = std::thread::Builder::new()
            .name("pgl-http-accept".into())
            .spawn(move || self.serve())
            .expect("spawn accept loop");
        ServerHandle {
            addr,
            stop,
            handle: Some(handle),
        }
    }
}

/// Bounded handoff between the acceptor and the handler pool.
struct ConnQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

struct QueueState {
    pending: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueue, or hand the stream back when the queue is full/closed so
    /// the caller can shed it with a 503.
    fn try_push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.pending.len() >= self.cap {
            return Err(stream);
        }
        st.pending.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until a connection arrives; `None` once closed.
    fn pop(&self) -> Option<TcpStream> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return None;
            }
            if let Some(s) = st.pending.pop_front() {
                return Some(s);
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Close the queue, dropping (and thereby resetting) any still-
    /// pending connections: the server is shutting down, and handing
    /// them to handlers now would only delay the join.
    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        st.pending.clear();
        self.cv.notify_all();
    }
}

/// Controls a background [`HttpServer`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) query: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
    /// Client-side keep-alive verdict (version default + `Connection`).
    pub(crate) keep_alive: bool,
    /// `If-None-Match` value, for `ETag` revalidation on `GET /graphs`.
    pub(crate) if_none_match: Option<String>,
}

impl Request {
    pub(crate) fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

pub(crate) struct Response {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: Vec<u8>,
    /// Seconds for a `Retry-After` header (rate-limit 429s).
    pub(crate) retry_after: Option<u32>,
    /// `ETag` header value (already quoted), when the resource has one.
    pub(crate) etag: Option<String>,
}

impl Response {
    pub(crate) fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
            etag: None,
        }
    }

    pub(crate) fn bytes(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self {
            status,
            content_type,
            body,
            retry_after: None,
            etag: None,
        }
    }

    pub(crate) fn error(status: u16, message: &str) -> Self {
        Self::json(status, format!("{{\"error\":{}}}", json_str(message)))
    }
}

/// How the dispatcher wants a request answered: a plain response, or a
/// long-lived chunked event stream that takes over the connection.
enum Routed {
    Plain(Response),
    /// Stream `job`'s event log from sequence `from` until terminal.
    Events {
        job: JobId,
        from: u64,
    },
}

/// Reason phrases for every status the server can emit. Unknown codes
/// fall back to a neutral `"Error"` — never a misleading
/// `"Internal Server Error"` on, say, an overload 503.
fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Ceiling on concurrent shed threads; beyond it connections are
/// dropped outright (still load shedding, minus the courtesy note).
const MAX_CONCURRENT_REJECTS: usize = 32;

/// Shed one connection with `503` + `Retry-After` without occupying a
/// handler thread — and without stalling the acceptor: the write and
/// the drain below run on a short-lived, count-bounded thread.
fn reject_overloaded(stream: TcpStream, cfg: &HttpConfig) {
    static ACTIVE_REJECTS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    if ACTIVE_REJECTS.fetch_add(1, Ordering::Relaxed) >= MAX_CONCURRENT_REJECTS {
        ACTIVE_REJECTS.fetch_sub(1, Ordering::Relaxed);
        return; // flood: drop without ceremony
    }
    let retry_after_secs = cfg.retry_after_secs;
    let spawned = std::thread::Builder::new()
        .name("pgl-http-shed".into())
        .spawn(move || {
            write_503(stream, retry_after_secs);
            ACTIVE_REJECTS.fetch_sub(1, Ordering::Relaxed);
        });
    if spawned.is_err() {
        ACTIVE_REJECTS.fetch_sub(1, Ordering::Relaxed);
    }
}

fn write_503(mut stream: TcpStream, retry_after_secs: u32) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut response = Response::error(503, "server overloaded; retry later");
    response.retry_after = Some(retry_after_secs);
    let _ = write_response(&mut stream, &response, false, &HttpConfig::default());
    // FIN our side, then briefly drain whatever request the client
    // already sent, so the kernel cannot RST the 503 away.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    drain_briefly(&mut stream);
}

/// Serve sequential requests on one connection until the client closes,
/// goes idle past the keep-alive timeout, asks to close, or the server
/// is stopping.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    service: &LayoutService,
    metrics: &HttpMetrics,
    cfg: &HttpConfig,
    limiter: Option<&RateLimiter>,
    stop: &AtomicBool,
    streams: &std::sync::atomic::AtomicUsize,
    role: &Arc<crate::cluster::ClusterRole>,
) {
    let _ = stream.set_write_timeout(Some(REQUEST_TIMEOUT));
    // Every response goes out in one write (see `write_response`), so
    // Nagle buys nothing here; with it on, a keep-alive response that
    // spans two segments would wait for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    // Rate limiting keys on the peer IP; an unreadable peer address
    // (vanishingly rare) shares one fallback bucket rather than
    // bypassing the limiter. The same identity is the default
    // fair-share client key for submissions.
    let peer = stream
        .peer_addr()
        .map(|a| a.ip())
        .unwrap_or(IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED));
    let mut reader = BufReader::new(stream);
    let mut served = 0u64;
    loop {
        let idle = if cfg.keep_alive.is_zero() {
            REQUEST_TIMEOUT
        } else {
            cfg.keep_alive
        };
        if reader.get_ref().set_read_timeout(Some(idle)).is_err() {
            return;
        }
        let (response, keep) = match read_request_head(&mut reader) {
            Ok(None) => return, // clean close or idle timeout
            Ok(Some(head)) => {
                if served > 0 {
                    metrics.record_keepalive_reuse();
                }
                let started = Instant::now();
                let route_idx = route_index(&head.path);
                // The rate limiter is consulted *before* the body is
                // read, so a throttled client cannot make the server
                // receive (and buffer) a multi-gigabyte upload just to
                // be told 429.
                if limiter.is_some_and(|l| !l.allow(peer)) {
                    metrics.record_rate_limited();
                    metrics.observe_idx(route_idx, 429, started.elapsed());
                    let mut response = Response::error(429, "rate limit exceeded; retry later");
                    response.retry_after = Some(cfg.retry_after_secs.max(1));
                    if head.content_length <= RATE_LIMIT_DRAIN_MAX
                        && read_request_body(&mut reader, head.content_length).is_ok()
                    {
                        // Small body consumed: the connection stays
                        // usable for the client's retry.
                        let keep = head.keep_alive
                            && !cfg.keep_alive.is_zero()
                            && served + 1 < MAX_REQUESTS_PER_CONN
                            && !stop.load(Ordering::Relaxed);
                        (response, keep)
                    } else {
                        // A payload not worth receiving just to refuse:
                        // answer, FIN our side, drain a bounded amount so
                        // the kernel does not RST the 429 away, and close.
                        let _ = write_response(reader.get_mut(), &response, false, cfg);
                        let stream = reader.get_mut();
                        let _ = stream.shutdown(std::net::Shutdown::Write);
                        drain_briefly(stream);
                        return;
                    }
                } else {
                    match read_request_body(&mut reader, head.content_length) {
                        Ok(body) => {
                            let mut req = Request {
                                method: head.method,
                                path: head.path,
                                query: head.query,
                                body,
                                keep_alive: head.keep_alive,
                                if_none_match: head.if_none_match,
                            };
                            match route(&mut req, service, metrics, peer, role) {
                                Routed::Plain(response) => {
                                    let elapsed = started.elapsed();
                                    metrics.observe_idx(route_idx, response.status, elapsed);
                                    if elapsed >= SLOW_REQUEST_WARN {
                                        obs::warn(
                                            "http",
                                            "slow request",
                                            &[
                                                ("method", req.method.clone()),
                                                ("path", req.path.clone()),
                                                ("status", response.status.to_string()),
                                                ("ms", elapsed.as_millis().to_string()),
                                            ],
                                        );
                                    }
                                    let keep = req.keep_alive
                                        && !cfg.keep_alive.is_zero()
                                        && served + 1 < MAX_REQUESTS_PER_CONN
                                        && !stop.load(Ordering::Relaxed);
                                    (response, keep)
                                }
                                Routed::Events { job, from } => {
                                    // Streams pin this handler thread
                                    // until the job's log completes;
                                    // shed beyond the pool-share cap.
                                    if streams.fetch_add(1, Ordering::Relaxed)
                                        >= max_event_streams(cfg)
                                    {
                                        streams.fetch_sub(1, Ordering::Relaxed);
                                        let mut response = Response::error(
                                            503,
                                            "too many concurrent event streams; retry later",
                                        );
                                        response.retry_after = Some(cfg.retry_after_secs.max(1));
                                        metrics.observe_idx(route_idx, 503, started.elapsed());
                                        let keep = req.keep_alive
                                            && !cfg.keep_alive.is_zero()
                                            && served + 1 < MAX_REQUESTS_PER_CONN
                                            && !stop.load(Ordering::Relaxed);
                                        (response, keep)
                                    } else {
                                        let outcome = stream_job_events(
                                            reader.get_mut(),
                                            service,
                                            job,
                                            from,
                                            stop,
                                        );
                                        streams.fetch_sub(1, Ordering::Relaxed);
                                        metrics.observe_idx(
                                            route_idx,
                                            if outcome.is_ok() { 200 } else { 408 },
                                            started.elapsed(),
                                        );
                                        // The connection closes after a
                                        // stream (Connection: close sent).
                                        return;
                                    }
                                }
                            }
                        }
                        Err(msg) => {
                            metrics.record_bad_request();
                            metrics.observe_idx(OTHER_ROUTE, 400, Duration::ZERO);
                            (Response::error(400, &msg), false)
                        }
                    }
                }
            }
            Err(msg) => {
                metrics.record_bad_request();
                metrics.observe_idx(OTHER_ROUTE, 400, Duration::ZERO);
                (Response::error(400, &msg), false)
            }
        };
        if write_response(reader.get_mut(), &response, keep, cfg).is_err() {
            return;
        }
        if !keep {
            return;
        }
        served += 1;
    }
}

/// Briefly drain whatever the client already sent (bounded in bytes and
/// time): closing a socket with unread bytes in the receive buffer makes
/// the kernel send RST, which can destroy the response in flight.
fn drain_briefly(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 8192];
    let mut drained = 0usize;
    while drained < 1 << 20 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

pub(crate) fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    keep: bool,
    cfg: &HttpConfig,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len()
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if let Some(etag) = &response.etag {
        head.push_str(&format!("ETag: {etag}\r\n"));
    }
    if keep {
        head.push_str(&format!(
            "Connection: keep-alive\r\nKeep-Alive: timeout={}\r\n",
            cfg.keep_alive.as_secs().max(1)
        ));
    } else {
        head.push_str("Connection: close\r\n");
    }
    head.push_str("\r\n");
    // Head and body leave in a single write: split across two, the body
    // can sit behind Nagle until the peer ACKs the head.
    let mut wire = head.into_bytes();
    wire.extend_from_slice(&response.body);
    stream.write_all(&wire)?;
    stream.flush()
}

/// Write one chunk of a `Transfer-Encoding: chunked` response — size
/// line, data and trailing CRLF in a single write.
pub(crate) fn write_chunk(stream: &mut TcpStream, data: &[u8]) -> std::io::Result<()> {
    let mut wire = format!("{:x}\r\n", data.len()).into_bytes();
    wire.extend_from_slice(data);
    wire.extend_from_slice(b"\r\n");
    stream.write_all(&wire)?;
    stream.flush()
}

/// How often a parked event stream re-checks the server stop flag. A
/// stream waits on the *service's* condvar, which severing its socket
/// cannot interrupt, so this slice — not the heartbeat interval — is
/// what bounds shutdown latency (PR 2's prompt-stop guarantee).
const STREAM_STOP_CHECK: Duration = Duration::from_millis(250);

/// Serve `GET /v1/jobs/<id>/events`: a chunked NDJSON stream of the
/// job's event log from sequence `from`, blocking for new events and
/// ending (0-chunk, connection close) once the job is terminal or the
/// server is stopping. The route handler has already verified the job
/// exists.
fn stream_job_events(
    stream: &mut TcpStream,
    service: &LayoutService,
    job: JobId,
    mut from: u64,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
          Transfer-Encoding: chunked\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
    )?;
    let mut last_activity = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match service.wait_events(job, from, STREAM_STOP_CHECK) {
            // Job evicted from the retention window mid-stream: its log
            // is gone, so the stream honestly ends.
            None => break,
            Some((events, terminal)) => {
                for event in &events {
                    write_chunk(stream, event_json(service, job, event).as_bytes())?;
                    from = event.seq + 1;
                    last_activity = Instant::now();
                }
                if terminal {
                    break;
                }
                if events.is_empty() && last_activity.elapsed() >= EVENT_HEARTBEAT {
                    // Nothing new within the heartbeat window: emit a
                    // keep-alive line (and learn whether the client is
                    // still there — a dead peer fails this write).
                    write_chunk(stream, b"{\"event\":\"heartbeat\"}\n")?;
                    last_activity = Instant::now();
                }
            }
        }
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// One NDJSON line for a job event. Failed-state events carry the
/// job's error message when it is still available.
fn event_json(service: &LayoutService, job: JobId, event: &JobEvent) -> String {
    match &event.kind {
        EventKind::State(state) => {
            let error = match state {
                crate::job::JobState::Failed => service
                    .status(job)
                    .and_then(|s| s.error)
                    .map(|e| format!(",\"error\":{}", json_str(&e)))
                    .unwrap_or_default(),
                _ => String::new(),
            };
            format!(
                "{{\"job\":{},\"seq\":{},\"event\":\"state\",\"state\":\"{}\"{}}}\n",
                job,
                event.seq,
                state.as_str(),
                error
            )
        }
        EventKind::Progress(p) => format!(
            "{{\"job\":{},\"seq\":{},\"event\":\"progress\",\"progress\":{:.3}}}\n",
            job, event.seq, p
        ),
        EventKind::Metrics {
            terms_applied,
            updates_per_sec,
            iteration,
            iteration_max,
        } => format!(
            "{{\"job\":{},\"seq\":{},\"event\":\"metrics\",\"terms_applied\":{},\
             \"updates_per_sec\":{:.1},\"iteration\":{},\"iteration_max\":{}}}\n",
            job, event.seq, terms_applied, updates_per_sec, iteration, iteration_max
        ),
    }
}

/// Read one CRLF-terminated line with a hard length cap, so an endless
/// header cannot grow memory without bound. `Ok(None)` means the peer
/// closed, timed out, or otherwise went away — nothing to answer.
fn read_capped_line(
    reader: &mut BufReader<TcpStream>,
    what: &str,
) -> Result<Option<String>, String> {
    let mut line = String::new();
    let mut limited = reader.take(MAX_HEADER_LINE as u64);
    match limited.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => {
            if line.len() >= MAX_HEADER_LINE && !line.ends_with('\n') {
                return Err(format!("{what} exceeds {MAX_HEADER_LINE} bytes"));
            }
            Ok(Some(line))
        }
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            Err(format!("{what} is not valid UTF-8"))
        }
        // Timeouts and resets: the connection is dead, close quietly.
        Err(_) => Ok(None),
    }
}

/// Request line + headers, parsed before any body byte is read — the
/// point where rate limiting can refuse cheaply.
pub(crate) struct RequestHead {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) query: Vec<(String, String)>,
    pub(crate) keep_alive: bool,
    pub(crate) content_length: usize,
    pub(crate) if_none_match: Option<String>,
}

/// Largest body still drained (rather than the connection closed) when
/// its request is refused by the rate limiter.
const RATE_LIMIT_DRAIN_MAX: usize = 64 * 1024;

/// Read one request's line and headers. `Ok(None)` = connection closed /
/// idle timeout before a request arrived; `Err` = malformed (answer 400).
pub(crate) fn read_request_head(
    reader: &mut BufReader<TcpStream>,
) -> Result<Option<RequestHead>, String> {
    let Some(line) = read_capped_line(reader, "request line")? else {
        return Ok(None);
    };
    // A request is in flight: switch from the idle timeout to the
    // (longer) per-request deadline for the rest of it.
    let _ = reader.get_ref().set_read_timeout(Some(REQUEST_TIMEOUT));
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 (and anything odd) to
    // close. The Connection header below overrides either way.
    let mut keep_alive = parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.1"));
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length: Option<usize> = None;
    let mut if_none_match: Option<String> = None;
    let mut headers_done = false;
    for _ in 0..MAX_HEADERS {
        let header = read_capped_line(reader, "header")?.ok_or("connection closed mid-headers")?;
        let header = header.trim_end();
        if header.is_empty() {
            headers_done = true;
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // With keep-alive, conflicting Content-Length values are
                // a request-smuggling vector (RFC 9112 §6.3): the server
                // and any intermediary may disagree on where the next
                // request starts. Reject unless all values agree.
                for piece in value.split(',') {
                    let parsed: usize = piece
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?;
                    match content_length {
                        Some(prev) if prev != parsed => {
                            return Err("conflicting Content-Length headers".into());
                        }
                        _ => content_length = Some(parsed),
                    }
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Same smuggling class: we never emit or consume chunked
                // bodies, so any Transfer-Encoding is an error here.
                return Err("Transfer-Encoding is not supported".into());
            } else if name.eq_ignore_ascii_case("connection") {
                let v = value.trim().to_ascii_lowercase();
                if v.split(',').any(|t| t.trim() == "close") {
                    keep_alive = false;
                } else if v.split(',').any(|t| t.trim() == "keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("if-none-match") {
                if_none_match = Some(value.trim().to_string());
            }
        }
    }
    if !headers_done {
        // Falling through here and treating the rest of the header
        // block as body bytes would corrupt the request.
        return Err(format!("more than {MAX_HEADERS} headers"));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    Ok(Some(RequestHead {
        method,
        path,
        query,
        keep_alive,
        content_length,
        if_none_match,
    }))
}

/// Read the announced body. Read via `take` so memory grows with bytes
/// actually received, not with whatever Content-Length a client merely
/// claims.
pub(crate) fn read_request_body(
    reader: &mut BufReader<TcpStream>,
    content_length: usize,
) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    reader
        .take(content_length as u64)
        .read_to_end(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    if body.len() < content_length {
        return Err(format!(
            "body truncated: got {} of {content_length} bytes",
            body.len()
        ));
    }
    Ok(body)
}

/// Dispatch one request. `/v1/...` is the canonical surface; the same
/// paths without the prefix are the deprecated legacy aliases (identical
/// behavior except for `/v1`'s strict query-parameter validation).
fn route(
    req: &mut Request,
    service: &LayoutService,
    metrics: &HttpMetrics,
    peer: IpAddr,
    role: &crate::cluster::ClusterRole,
) -> Routed {
    let path = req.path.clone();
    let all: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let (v1, segments) = match all.as_slice() {
        ["v1", rest @ ..] => (true, rest),
        rest => (false, rest),
    };
    let plain = |r: Response| Routed::Plain(r);
    // /v1 validates query parameters strictly on EVERY route — a typo
    // like `?frm=5` fails loudly instead of being silently ignored.
    // The legacy aliases keep their historical lenient behavior.
    if v1 {
        let allowed: &[&str] = match (req.method.as_str(), segments) {
            ("POST", ["layout"]) | ("POST", ["jobs"]) => &crate::spec::KNOWN_PARAMS[..],
            ("GET", ["jobs", _, "events"]) => &["from"],
            ("GET", ["result", _]) => &["format"],
            _ => &[],
        };
        if let Some((k, _)) = req
            .query
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            return plain(Response::error(400, &format!("unknown parameter {k:?}")));
        }
    }
    match (req.method.clone().as_str(), segments) {
        // POST /v1/jobs is the canonical submission; /layout is kept on
        // both surfaces for continuity with the original API.
        ("POST", ["layout"]) | ("POST", ["jobs"]) => plain(post_layout(req, service, peer)),
        ("POST", ["graphs"]) => plain(post_graph(req, service)),
        ("GET", ["graphs"]) => plain(list_graphs(service, req.if_none_match.as_deref())),
        ("DELETE", ["graphs", id]) => plain(match ContentHash::from_hex(id) {
            Some(id) => delete_graph(id, service),
            None => Response::error(400, "graph id must be 32 hex digits"),
        }),
        ("GET", ["jobs", id, "events"]) => match parse_id(id) {
            Some(job) => {
                let from = match req.param("from").map(str::parse::<u64>) {
                    None => 0,
                    Some(Ok(n)) => n,
                    Some(Err(_)) => {
                        return plain(Response::error(400, "from must be a sequence number"))
                    }
                };
                if service.status(job).is_none() {
                    return plain(Response::error(404, &format!("no such job {job}")));
                }
                Routed::Events { job, from }
            }
            None => plain(Response::error(400, "job id must be a number")),
        },
        ("GET", ["jobs", id, "trace"]) => plain(match parse_id(id) {
            Some(id) => job_trace(id, service),
            None => Response::error(400, "job id must be a number"),
        }),
        ("GET", ["jobs", id]) => plain(match parse_id(id) {
            Some(id) => job_status(id, service),
            None => Response::error(400, "job id must be a number"),
        }),
        ("POST", ["jobs", id, "cancel"]) | ("DELETE", ["jobs", id]) => plain(match parse_id(id) {
            Some(id) => cancel_job(id, service),
            None => Response::error(400, "job id must be a number"),
        }),
        ("GET", ["result", id]) => plain(match parse_id(id) {
            Some(id) => job_result(id, req.param("format").unwrap_or("tsv"), service),
            None => Response::error(400, "job id must be a number"),
        }),
        ("GET", ["stats"]) => plain(stats(service, metrics)),
        ("GET", ["metrics"]) => {
            // One exposition: HTTP front-end families followed by the
            // service's job/engine/cache families.
            let mut text = metrics.render_prometheus();
            text.push_str(&service.metrics_prometheus());
            plain(Response::bytes(
                200,
                "text/plain; version=0.0.4",
                text.into_bytes(),
            ))
        }
        ("GET", ["engines"]) => {
            let names: Vec<String> = service.engine_names().iter().map(|n| json_str(n)).collect();
            plain(Response::json(
                200,
                format!("{{\"engines\":[{}]}}", names.join(",")),
            ))
        }
        ("GET", ["healthz"]) => plain(healthz(service, role)),
        ("GET", _) | ("POST", _) | ("DELETE", _) => plain(Response::error(404, "no such route")),
        _ => plain(Response::error(405, "method not supported")),
    }
}

/// `POST /graphs` — intern one GFA document as a server-side artifact.
fn post_graph(req: &mut Request, service: &LayoutService) -> Response {
    // Consume the body in place: cloning would double peak memory for
    // large GFA uploads.
    let gfa = match String::from_utf8(std::mem::take(&mut req.body)) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "GFA body must be UTF-8"),
    };
    match service.upload_graph(&gfa) {
        Ok(up) => Response::json(
            if up.dedup { 200 } else { 201 },
            format!(
                "{{\"graph_id\":{},\"nodes\":{},\"paths\":{},\"steps\":{},\"dedup\":{}}}",
                json_str(&up.id.hex()),
                up.nodes,
                up.paths,
                up.steps,
                up.dedup
            ),
        ),
        Err(SubmitError::ShuttingDown) => Response::error(503, "service is shutting down"),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// `GET /graphs` — list stored graphs, with an `ETag` over the listing
/// so pollers revalidate with `If-None-Match` → `304` instead of
/// re-downloading an unchanged catalog.
fn list_graphs(service: &LayoutService, if_none_match: Option<&str>) -> Response {
    let graphs: Vec<String> = service
        .graphs()
        .iter()
        .map(|m| {
            format!(
                "{{\"graph_id\":{},\"nodes\":{},\"paths\":{},\"steps\":{},\"bytes\":{},\
                 \"resident\":{}}}",
                json_str(&m.id.hex()),
                m.nodes,
                m.paths,
                m.steps,
                m.bytes,
                m.resident
            )
        })
        .collect();
    let body = format!(
        "{{\"count\":{},\"graphs\":[{}]}}",
        graphs.len(),
        graphs.join(",")
    );
    let etag = format!("\"{}\"", content_hash(body.as_bytes()).hex());
    if if_none_match.is_some_and(|header| etag_matches(header, &etag)) {
        let mut response = Response::bytes(304, "application/json", Vec::new());
        response.etag = Some(etag);
        return response;
    }
    let mut response = Response::json(200, body);
    response.etag = Some(etag);
    response
}

/// Does an `If-None-Match` header match this entity tag? Accepts `*`,
/// comma-separated lists, and weak validators (`W/"…"` compares equal
/// to its strong form — byte-identical JSON is the only way we ever
/// reuse a tag).
fn etag_matches(header: &str, etag: &str) -> bool {
    header.split(',').map(str::trim).any(|candidate| {
        candidate == "*" || candidate == etag || candidate.strip_prefix("W/") == Some(etag)
    })
}

/// `DELETE /graphs/<id>` — drop a stored graph from every tier.
fn delete_graph(id: ContentHash, service: &LayoutService) -> Response {
    if service.delete_graph(id) {
        Response::json(200, format!("{{\"deleted\":{}}}", json_str(&id.hex())))
    } else {
        Response::error(404, &format!("no such graph {}", id.hex()))
    }
}

/// `POST /v1/jobs` / `POST /layout` — parse the query + body into one
/// typed [`crate::spec::JobSpec`] and submit it. The fair-share client
/// key defaults to the peer IP (the same identity the rate limiter
/// buckets by) when `?client=` is absent. Unknown-parameter strictness
/// is owned by [`route`]'s `/v1` allowlist check, so the parse here is
/// always lenient.
fn post_layout(req: &mut Request, service: &LayoutService, peer: IpAddr) -> Response {
    // Consume the body in place: cloning would double peak memory for
    // large GFA uploads.
    let body = std::mem::take(&mut req.body);
    let mut spec = match parse_job_spec(&req.query, body, false) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    if spec.client.is_none() {
        spec.client = Some(peer.to_string());
    }
    match service.submit_spec(spec) {
        Ok(ticket) => {
            let state = if ticket.cached { "done" } else { "queued" };
            Response::json(
                202,
                format!(
                    "{{\"job\":{},\"cached\":{},\"state\":\"{}\",\"graph\":{},\"priority\":\"{}\"}}",
                    ticket.id,
                    ticket.cached,
                    state,
                    json_str(&ticket.graph.hex()),
                    ticket.priority.as_str()
                ),
            )
        }
        Err(SubmitError::Rejected(msg)) => Response::error(400, &msg),
        Err(SubmitError::Invalid(e)) => Response::error(400, &e.to_string()),
        Err(SubmitError::NoSuchGraph(msg)) => Response::error(404, &msg),
        Err(SubmitError::ShuttingDown) => Response::error(503, "service is shutting down"),
    }
}

fn job_status(id: JobId, service: &LayoutService) -> Response {
    match service.status(id) {
        Some(s) => Response::json(200, status_json(&s)),
        None => Response::error(404, &format!("no such job {id}")),
    }
}

/// `GET /v1/jobs/<id>/trace` — the job's phase timeline: ordered spans
/// with offsets from submission and wall-clock durations. A span still
/// open (the job is mid-phase) reports `"dur_us":null`.
fn job_trace(id: JobId, service: &LayoutService) -> Response {
    let Some(s) = service.status(id) else {
        return Response::error(404, &format!("no such job {id}"));
    };
    let spans: Vec<String> = s
        .trace
        .spans()
        .iter()
        .map(|span| {
            format!(
                "{{\"phase\":{},\"start_us\":{},\"dur_us\":{}}}",
                json_str(span.phase),
                span.start_us,
                match span.dur_us {
                    Some(us) => us.to_string(),
                    None => "null".into(),
                }
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"job\":{},\"state\":\"{}\",\"wall_ms\":{},\"total_us\":{},\"spans\":[{}]}}",
            s.id,
            s.state.as_str(),
            s.wall_ms,
            s.trace.total_us(),
            spans.join(",")
        ),
    )
}

/// The feature axes this build serves: registered engines and the
/// precisions the layout kernels support. Shared by `/healthz` and
/// `/stats` so probes and dashboards see one truth.
fn features_json(service: &LayoutService) -> String {
    let engines: Vec<String> = service.engine_names().iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"engines\":[{}],\"precisions\":[\"f32\",\"f64\"]}}",
        engines.join(",")
    )
}

/// `GET /healthz` — liveness plus enough identity for a probe log:
/// version, uptime, feature axes, and the process's cluster role
/// (workers also report their coordinator and last-heartbeat age).
fn healthz(service: &LayoutService, role: &crate::cluster::ClusterRole) -> Response {
    let s = service.stats();
    Response::json(
        200,
        format!(
            "{{\"ok\":true,{},\"version\":{},\"uptime_s\":{},\"features\":{}}}",
            role.json_fields(),
            json_str(env!("CARGO_PKG_VERSION")),
            s.uptime_ms / 1000,
            features_json(service)
        ),
    )
}

fn cancel_job(id: JobId, service: &LayoutService) -> Response {
    match service.cancel(id) {
        Ok(_) => job_status(id, service),
        Err(msg) => Response::error(404, &msg),
    }
}

fn job_result(id: JobId, format: &str, service: &LayoutService) -> Response {
    let Some(status) = service.status(id) else {
        return Response::error(404, &format!("no such job {id}"));
    };
    let Some(layout) = service.result(id) else {
        return Response::error(
            409,
            &format!("job {id} is {}, not done", status.state.as_str()),
        );
    };
    match format {
        "tsv" => Response::bytes(
            200,
            "text/tab-separated-values",
            layout_to_tsv(&layout).into_bytes(),
        ),
        "lay" => Response::bytes(200, "application/octet-stream", write_lay(&layout).to_vec()),
        other => Response::error(400, &format!("unknown format {other:?} (tsv, lay)")),
    }
}

fn stats(service: &LayoutService, metrics: &HttpMetrics) -> Response {
    let s = service.stats();
    let h = metrics.snapshot();
    Response::json(
        200,
        format!(
            "{{\"version\":{version},\"uptime_s\":{uptime_s},\"features\":{features},\
             \"jobs\":{{\"submitted\":{},\"queued\":{},\"running\":{},\"done\":{},\
             \"failed\":{},\"cancelled\":{},\"expired\":{},\
             \"queued_interactive\":{},\"queued_normal\":{},\"queued_bulk\":{},\
             \"active_clients\":{}}},\
             \"cache\":{{\"entries\":{},\"bytes\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"insertions\":{},\"disk_hits\":{},\"disk_writes\":{},\
             \"disk_errors\":{},\"disk_cap_evictions\":{},\"disk_ttl_evictions\":{}}},\
             \"graphs\":{{\"resident\":{},\"bytes\":{},\"parses\":{},\"hits\":{},\
             \"disk_hits\":{},\"misses\":{},\"evictions\":{},\"deletes\":{},\
             \"disk_writes\":{},\"disk_errors\":{},\"disk_cap_evictions\":{},\
             \"disk_ttl_evictions\":{},\"preloaded\":{}}},\
             \"http\":{{\"accepted\":{},\"rejected_503\":{},\"keepalive_reuses\":{},\
             \"bad_requests\":{},\"rate_limited_429\":{},\"requests\":{}}},\
             \"workers\":{},\"uptime_ms\":{}}}",
            s.submitted,
            s.queued,
            s.running,
            s.done,
            s.failed,
            s.cancelled,
            s.expired,
            s.queued_by_band[0],
            s.queued_by_band[1],
            s.queued_by_band[2],
            s.active_clients,
            s.cache_entries,
            s.cache_bytes,
            s.cache.hits,
            s.cache.misses,
            s.cache.evictions,
            s.cache.insertions,
            s.cache.disk_hits,
            s.cache.disk_writes,
            s.cache.disk_errors,
            s.cache.disk_cap_evictions,
            s.cache.disk_ttl_evictions,
            s.graph_entries,
            s.graph_bytes,
            s.graphs.parses,
            s.graphs.hits,
            s.graphs.disk_hits,
            s.graphs.misses,
            s.graphs.evictions,
            s.graphs.deletes,
            s.graphs.disk_writes,
            s.graphs.disk_errors,
            s.graphs.disk_cap_evictions,
            s.graphs.disk_ttl_evictions,
            s.graphs.preloaded,
            h.accepted,
            h.rejected_503,
            h.keepalive_reuses,
            h.bad_requests,
            h.rate_limited_429,
            h.requests,
            s.workers,
            s.uptime_ms,
            version = json_str(env!("CARGO_PKG_VERSION")),
            uptime_s = s.uptime_ms / 1000,
            features = features_json(service),
        ),
    )
}

fn status_json(s: &crate::job::JobStatus) -> String {
    // Per-phase summary of the trace: closed spans only, keyed by phase
    // name (the full timeline lives at `/v1/jobs/<id>/trace`).
    let phases: Vec<String> = s
        .trace
        .spans()
        .iter()
        .filter_map(|span| {
            span.dur_us
                .map(|us| format!("{}:{us}", json_str(span.phase)))
        })
        .collect();
    format!(
        "{{\"job\":{},\"state\":\"{}\",\"progress\":{:.3},\"engine\":{},\
         \"priority\":\"{}\",\"client\":{},\"cached\":{},\
         \"nodes\":{},\"graph\":{},\"wall_ms\":{},\"phases_us\":{{{}}}{}}}",
        s.id,
        s.state.as_str(),
        s.progress,
        json_str(&s.engine),
        s.priority.as_str(),
        json_str(&s.client),
        s.cached,
        s.nodes,
        json_str(&s.graph.hex()),
        s.wall_ms,
        phases.join(","),
        match &s.error {
            Some(e) => format!(",\"error\":{}", json_str(e)),
            None => String::new(),
        }
    )
}

fn parse_id(s: &str) -> Option<JobId> {
    s.parse().ok()
}

/// Minimal percent-decoding (`%XX` and `+` → space).
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                // Decode from the byte slice, not the &str: slicing the
                // string panics when a multibyte char follows the '%'.
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_basics() {
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("%zz"), "%zz", "bad escapes pass through");
        assert_eq!(percent_decode("trail%2"), "trail%2");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        assert_eq!(reason_phrase(200), "OK");
        assert_eq!(reason_phrase(304), "Not Modified");
        assert_eq!(reason_phrase(429), "Too Many Requests");
        assert_eq!(reason_phrase(503), "Service Unavailable");
        assert_eq!(reason_phrase(500), "Internal Server Error");
        // Unknown codes stay neutral rather than claiming a server error.
        assert_eq!(reason_phrase(599), "Error");
        assert_eq!(reason_phrase(302), "Error");
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = HttpConfig::default();
        assert!(cfg.max_conns >= 1);
        assert!(!cfg.keep_alive.is_zero());
        assert!(cfg.retry_after_secs >= 1);
    }

    #[test]
    fn etag_matching_covers_lists_stars_and_weak_forms() {
        let tag = "\"abc\"";
        assert!(etag_matches("\"abc\"", tag));
        assert!(etag_matches("*", tag));
        assert!(etag_matches("\"x\", \"abc\"", tag));
        assert!(etag_matches("W/\"abc\"", tag));
        assert!(!etag_matches("\"abd\"", tag));
        assert!(!etag_matches("", tag));
    }
}
