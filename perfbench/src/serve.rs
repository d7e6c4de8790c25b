//! The service job loops: a closed loop of clients against an
//! in-process `HttpServer` + `LayoutService` (`serve-mix`), or against an
//! in-process `Coordinator` with one joined worker (`fleet`).
//!
//! Each client holds one connection at a time and runs cycles back to
//! back. A fresh cycle uploads a graph it has never sent, submits it by
//! reference, follows the job's event stream to its end and fetches the
//! `.lay` result. Every `REPEAT_EVERY`-th cycle instead resubmits the
//! client's last fresh (graph, config) pair, which the layout cache
//! answers: uploads (the write path) and cached resubmits (the read
//! path) run side by side. The coordinator answers `GET /v1/result`
//! with 409 until its monitor has collected the finished job; the
//! client retries every `RESULT_RETRY` and counts the retries.

use crate::check;
use crate::client::{json_bool, json_num, json_str, prom_value, Client};
use crate::layout;
use crate::quality;
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::{SpanId, Tracer};
use layout_core::{CpuEngine, LayoutConfig};
use pangraph::lean::LeanGraph;
use pgl_service::{
    spawn_heartbeat, ClusterRole, Coordinator, CoordinatorConfig, CoordinatorHandle,
    EngineRegistry, HttpServer, LayoutService, ServerHandle, ServiceConfig,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Every this-many cycles a client resubmits instead of uploading.
const REPEAT_EVERY: usize = 3;

/// Pause between `GET /v1/result` attempts answered 409.
const RESULT_RETRY: Duration = Duration::from_millis(5);

/// A job whose result is not in hand this long after submission fails.
const JOB_DEADLINE: Duration = Duration::from_secs(30);

/// A service result's trimmed stress may be at most this multiple of
/// the in-process engine's on the same graph and config.
const PARITY_BOUND: f64 = 1.5;

/// Server start-ups per run; the last one serves the loop.
const SETUPS: usize = 15;

/// Shape of one service workload.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Route through a coordinator with one joined worker.
    pub fleet: bool,
    /// Closed-loop clients.
    pub clients: usize,
    /// Graphs generated before timing; the loop ends early if the
    /// clients use them all.
    pub pool: usize,
    /// Iterations of each job's schedule.
    pub iters: u32,
    /// Reference bounds on each computed layout's stress.
    pub stress_bounds: layout::StressBounds,
}

impl ServeWorkload {
    /// The `LayoutConfig` every job runs under (what the job query asks
    /// for, defaults elsewhere).
    pub fn job_config(&self) -> LayoutConfig {
        LayoutConfig {
            iter_max: self.iters,
            threads: 1,
            ..LayoutConfig::default()
        }
    }

    fn job_query(&self, graph: &str) -> String {
        format!(
            "/v1/jobs?graph={graph}&engine=cpu&iters={}&threads=1",
            self.iters
        )
    }
}

/// Generate the workload's input graphs (GFA text) from the seed.
pub fn make_pool(n: usize, seed: u64) -> Vec<String> {
    workloads::small_graph_family(n, seed)
        .iter()
        .map(|spec| pangraph::write_gfa(&workloads::generate(spec)))
        .collect()
}

/// The system under test, running in process.
enum System {
    Serve {
        service: Arc<LayoutService>,
        server: ServerHandle,
    },
    Fleet {
        coordinator: CoordinatorHandle,
        service: Arc<LayoutService>,
        server: ServerHandle,
        beat_stop: Arc<AtomicBool>,
        beat: JoinHandle<()>,
    },
}

impl System {
    /// Start the system; returns it with the seconds from start to the
    /// first request accepted (for a fleet: until the coordinator lists
    /// the worker as alive).
    fn start(fleet: bool) -> std::io::Result<(System, f64)> {
        let t0 = Instant::now();
        let service = Arc::new(LayoutService::start(
            EngineRegistry::with_default_engines(),
            ServiceConfig::default(),
        ));
        let system = if fleet {
            let coordinator =
                Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())?.spawn();
            let role = ClusterRole::worker(coordinator.addr().to_string());
            let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service))?
                .with_role(Arc::clone(&role))
                .spawn();
            let beat_stop = Arc::new(AtomicBool::new(false));
            let beat = spawn_heartbeat(
                coordinator.addr().to_string(),
                server.addr().to_string(),
                Duration::from_secs(2),
                role,
                Arc::clone(&beat_stop),
            );
            System::Fleet {
                coordinator,
                service,
                server,
                beat_stop,
                beat,
            }
        } else {
            let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service))?.spawn();
            System::Serve { service, server }
        };
        let addr = system.addr();
        let deadline = t0 + Duration::from_secs(30);
        loop {
            let ready = Client::new(addr)
                .request("GET", "/v1/healthz", b"")
                .ok()
                .filter(|r| r.status == 200)
                .is_some_and(|r| !fleet || json_num(&r.text(), "workers_alive") >= Some(1.0));
            if ready {
                return Ok((system, t0.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                system.stop();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "system never became ready",
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// The address clients talk to.
    fn addr(&self) -> SocketAddr {
        match self {
            System::Serve { server, .. } => server.addr(),
            System::Fleet { coordinator, .. } => coordinator.addr(),
        }
    }

    /// Stop every thread the system started and wait for them.
    fn stop(self) {
        match self {
            System::Serve { service, server } => {
                server.stop();
                service.shutdown();
            }
            System::Fleet {
                coordinator,
                service,
                server,
                beat_stop,
                beat,
            } => {
                beat_stop.store(true, Ordering::Relaxed);
                let _ = beat.join();
                coordinator.stop();
                server.stop();
                service.shutdown();
            }
        }
    }
}

/// Engine terms the system has applied so far.
fn engine_terms(fleet: bool, addr: SocketAddr) -> Option<f64> {
    let mut c = Client::new(addr);
    if fleet {
        let r = c.request("GET", "/v1/stats", b"").ok()?;
        json_num(&r.text(), "engine_terms_applied")
    } else {
        let r = c.request("GET", "/v1/metrics", b"").ok()?;
        prom_value(&r.text(), "pgl_engine_terms_applied_total")
    }
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    upload_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    events_ms: Vec<f64>,
    result_ms: Vec<f64>,
    ttl_s: Vec<f64>,
    job_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    uploads: u64,
    resubmits: u64,
    cached_tickets: u64,
    retries: u64,
    connects: u64,
    completed: u64,
    outcomes: Vec<Result<(), String>>,
    /// `(pool index, result)` of every computed layout, checked after
    /// the loop.
    computed: Vec<(usize, pangraph::layout2d::Layout2D)>,
    /// `(job latency ms, server trace JSON)` per computed job (traced).
    traces: Vec<(f64, String)>,
}

/// The last fresh graph a client uploaded: `(graph id, nodes, pool index)`.
type Fresh = (String, usize, usize);

struct Loop<'a> {
    w: &'a ServeWorkload,
    addr: SocketAddr,
    pool: &'a [String],
    next: AtomicUsize,
    deadline: Instant,
    tracer: &'a Tracer,
}

fn status_ok(what: &str, status: u16, body: &str) -> Result<(), String> {
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!("{what}: HTTP {status}: {}", body.trim()))
    }
}

impl Loop<'_> {
    /// Run one client's cycles until the deadline.
    fn client(&self) -> ClientLog {
        let mut log = ClientLog::default();
        let mut http = Client::new(self.addr);
        let mut last: Option<Fresh> = None;
        let mut cycle = 0usize;
        while Instant::now() < self.deadline {
            cycle += 1;
            let repeat = match &last {
                Some(fresh) if cycle.is_multiple_of(REPEAT_EVERY) => Some(fresh.clone()),
                _ => None,
            };
            let outcome = match repeat {
                Some(fresh) => self.resubmit(&mut http, &fresh, &mut log),
                None => {
                    let idx = self.next.fetch_add(1, Ordering::Relaxed);
                    if idx >= self.pool.len() {
                        break;
                    }
                    self.fresh(&mut http, idx, &mut log)
                        .map(|fresh| last = Some(fresh))
                }
            };
            if outcome.is_ok() {
                log.completed += 1;
            }
            log.outcomes.push(outcome);
        }
        log.connects = http.connects;
        log
    }

    fn fresh(&self, http: &mut Client, idx: usize, log: &mut ClientLog) -> Result<Fresh, String> {
        let req = self.tracer.request();
        let cycle = self.tracer.begin("bench.cycle", req, None);
        let t0 = Instant::now();
        let body = self.pool[idx].as_bytes();
        let r = self
            .tracer
            .time("http.upload", req, Some(cycle), || {
                http.request("POST", "/v1/graphs", body)
            })
            .map_err(|e| format!("upload: {e}"))?;
        log.upload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        log.uploads += 1;
        let text = r.text();
        status_ok("upload", r.status, &text)?;
        let graph = json_str(&text, "graph_id").ok_or("upload answer lacks graph_id")?;
        let nodes = json_num(&text, "nodes").ok_or("upload answer lacks nodes")? as usize;
        let done = self.job(http, &graph, nodes, req, cycle, log)?;
        self.tracer.end(cycle);
        log.ttl_s.push(t0.elapsed().as_secs_f64());
        log.job_ms.push(done.ms);
        log.computed.push((idx, done.layout));
        if let Some(trace) = done.trace {
            log.traces.push((done.ms, trace));
        }
        Ok((graph, nodes, idx))
    }

    fn resubmit(
        &self,
        http: &mut Client,
        fresh: &Fresh,
        log: &mut ClientLog,
    ) -> Result<(), String> {
        let req = self.tracer.request();
        let cycle = self.tracer.begin("bench.cycle", req, None);
        log.resubmits += 1;
        let done = self.job(http, &fresh.0, fresh.1, req, cycle, log)?;
        self.tracer.end(cycle);
        log.hit_ms.push(done.ms);
        Ok(())
    }

    /// Submit, follow events, fetch and check the result.
    fn job(
        &self,
        http: &mut Client,
        graph: &str,
        nodes: usize,
        req: u64,
        cycle: SpanId,
        log: &mut ClientLog,
    ) -> Result<JobDone, String> {
        let tracer = self.tracer;
        let t0 = Instant::now();
        let r = tracer
            .time("http.submit", req, Some(cycle), || {
                http.request("POST", &self.w.job_query(graph), b"")
            })
            .map_err(|e| format!("submit: {e}"))?;
        log.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let text = r.text();
        status_ok("submit", r.status, &text)?;
        let id = json_num(&text, "job").ok_or("submit answer lacks job")? as u64;
        if json_bool(&text, "cached") == Some(true) {
            log.cached_tickets += 1;
        }
        let t = Instant::now();
        let (status, state) = tracer
            .time("http.events", req, Some(cycle), || {
                http.follow_events(&format!("/v1/jobs/{id}/events"))
            })
            .map_err(|e| format!("events of job {id}: {e}"))?;
        log.events_ms.push(t.elapsed().as_secs_f64() * 1e3);
        status_ok("events", status, "")?;
        if state.as_deref() != Some("done") {
            return Err(format!("job {id} ended {state:?}"));
        }
        let path = format!("/v1/result/{id}?format=lay");
        let bytes = loop {
            let t = Instant::now();
            let r = tracer
                .time("http.result", req, Some(cycle), || {
                    http.request("GET", &path, b"")
                })
                .map_err(|e| format!("result of job {id}: {e}"))?;
            log.result_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if r.status == 409 && t0.elapsed() < JOB_DEADLINE {
                log.retries += 1;
                std::thread::sleep(RESULT_RETRY);
                continue;
            }
            status_ok("result", r.status, &r.text())?;
            break r.body;
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let layout = check::decode_lay(&bytes, nodes).map_err(|e| format!("job {id}: {e}"))?;
        let trace = if tracer.enabled() {
            let r = http
                .request("GET", &format!("/v1/jobs/{id}/trace"), b"")
                .map_err(|e| format!("trace of job {id}: {e}"))?;
            Some(r.text())
        } else {
            None
        };
        Ok(JobDone { ms, layout, trace })
    }
}

/// A job whose result is in hand and checked.
struct JobDone {
    /// Submit sent → last result byte, milliseconds.
    ms: f64,
    layout: pangraph::layout2d::Layout2D,
    /// The server's trace of the job (traced runs).
    trace: Option<String>,
}

/// Everything a service loop measured, merged over clients.
#[derive(Default)]
struct LoopResult {
    log: ClientLog,
    wall_s: f64,
    engine_terms: f64,
    pool_exhausted: bool,
}

fn run_loop(
    w: &ServeWorkload,
    addr: SocketAddr,
    pool: &[String],
    seconds: f64,
    tracer: &Tracer,
) -> LoopResult {
    let terms_before = engine_terms(w.fleet, addr);
    let start = Instant::now();
    let lp = Loop {
        w,
        addr,
        pool,
        next: AtomicUsize::new(0),
        deadline: start + Duration::from_secs_f64(seconds),
        tracer,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients).map(|_| s.spawn(|| lp.client())).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let terms_after = engine_terms(w.fleet, addr);
    let mut m = ClientLog::default();
    for l in logs {
        m.upload_ms.extend(l.upload_ms);
        m.submit_ms.extend(l.submit_ms);
        m.events_ms.extend(l.events_ms);
        m.result_ms.extend(l.result_ms);
        m.ttl_s.extend(l.ttl_s);
        m.job_ms.extend(l.job_ms);
        m.hit_ms.extend(l.hit_ms);
        m.uploads += l.uploads;
        m.resubmits += l.resubmits;
        m.cached_tickets += l.cached_tickets;
        m.retries += l.retries;
        m.connects += l.connects;
        m.completed += l.completed;
        m.outcomes.extend(l.outcomes);
        m.computed.extend(l.computed);
        m.traces.extend(l.traces);
    }
    LoopResult {
        pool_exhausted: lp.next.load(Ordering::Relaxed) >= pool.len(),
        log: m,
        wall_s,
        engine_terms: match (terms_before, terms_after) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        },
    }
}

/// Check every computed layout's stress against the bounds, and return
/// each one's stress parity: its trimmed stress over that of the layout
/// the in-process engine computes for the same graph and config (1.0
/// when the service returns the library's layout). Per-graph stress
/// spans a factor of ten across the small-graph family, so the ratio,
/// not the raw value, is what stays comparable between seeds.
fn check_stress(
    w: &ServeWorkload,
    pool: &[String],
    r: &LoopResult,
    report: &mut Report,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(r.log.computed.len());
    let quiet = Tracer::new(false);
    let engine = CpuEngine::new(w.job_config());
    for (idx, layout) in &r.log.computed {
        let outcome = pangraph::parse_gfa(&pool[*idx])
            .map_err(|e| format!("reparse of graph {idx}: {e}"))
            .and_then(|g| {
                let lean = LeanGraph::from_graph(&g);
                let (trimmed, _, outcome) = w.stress_bounds.check(layout, &lean, &quiet, 0);
                let reference = quality::trimmed_stress(&engine.run(&lean).0, &lean);
                let parity = trimmed / reference;
                out.push(parity);
                outcome
                    .and_then(|()| {
                        if parity <= PARITY_BOUND {
                            Ok(())
                        } else {
                            Err(format!(
                                "stress {parity}x the in-process engine's on the same graph"
                            ))
                        }
                    })
                    .map_err(|e| format!("graph {idx}: {e}"))
            });
        if outcome.is_err() {
            report.operation(outcome);
        }
    }
    out
}

/// Run a service workload: set up `SETUPS` times, run the closed loop
/// for `seconds` (twice when traced: untraced, then traced), check
/// every result, and report.
pub fn run(
    w: &ServeWorkload,
    pool: &[String],
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Option<Tracer> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut system = None;
    for i in 0..SETUPS {
        match System::start(w.fleet) {
            Ok((s, secs)) => {
                setups.push(secs);
                if i + 1 < SETUPS {
                    s.stop();
                } else {
                    system = Some(s);
                }
            }
            Err(e) => {
                report.operation(Err(format!("start: {e}")));
                return None;
            }
        }
    }
    let system = system.expect("last setup keeps the system");
    let addr = system.addr();

    // A traced run gets a pool twice the size: the traced loop must
    // upload graphs the untraced loop never sent.
    let (plain_pool, traced_pool) = pool.split_at(if traced { pool.len() / 2 } else { pool.len() });
    let plain = run_loop(w, addr, plain_pool, seconds, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced_loop = traced.then(|| run_loop(w, addr, traced_pool, seconds, &tracer));
    let stats_text = if traced {
        Client::new(addr)
            .request("GET", "/v1/stats", b"")
            .map(|r| r.text())
            .unwrap_or_default()
    } else {
        String::new()
    };
    system.stop();

    for r in std::iter::once(&plain).chain(traced_loop.iter()) {
        for o in &r.log.outcomes {
            report.operation(o.clone());
        }
        if r.pool_exhausted {
            report.context.push(format!(
                "the clients used all {} pre-generated graphs before the deadline",
                plain_pool.len()
            ));
        }
    }
    let stress = check_stress(w, plain_pool, &plain, report);
    let l = &plain.log;
    let jobs = l.job_ms.len();
    report.e2e("setup_s", median(&setups), setups.len());
    report.e2e("time_to_layout_s", median(&l.ttl_s), l.ttl_s.len());
    report.e2e("updates_per_s", plain.engine_terms / plain.wall_s, 1);
    report.e2e("stress", median(&stress), stress.len());
    report.e2e("peak_rss_mb", crate::stats::peak_rss_mb(), 1);
    report.e2e("job_p50_ms", median(&l.job_ms), jobs);
    report.e2e("job_p90_ms", quantile(&l.job_ms, 0.9), jobs);
    report.e2e(
        "jobs_per_s",
        l.completed as f64 / plain.wall_s,
        l.completed as usize,
    );
    report.context.push(format!(
        "closed loop: {} clients, {:.1} s, {} computed jobs, {} resubmits, {} uploads",
        w.clients, plain.wall_s, jobs, l.resubmits, l.uploads
    ));
    // The write and read paths side by side, printed on every run; traced
    // runs report them per layer (`http.upload_ms`, `service.hit_ms`).
    report.context.push(format!(
        "upload_p50_ms {:.3} ms (n={}), hit_p50_ms {:.3} ms (n={}) for cached resubmits",
        median(&l.upload_ms),
        l.upload_ms.len(),
        median(&l.hit_ms),
        l.hit_ms.len()
    ));

    let t = traced_loop?;
    check_stress(w, traced_pool, &t, report);
    let totals = (l.uploads + t.log.uploads, l.resubmits + t.log.resubmits);
    report_service_layers(w, &t, totals, &stats_text, report);
    let traced_p50 = median(&t.log.job_ms);
    report.layer(
        "trace.overhead_frac",
        traced_p50 / median(&l.job_ms) - 1.0,
        jobs,
    );
    report.context.push(format!(
        "traced loop: {} spans, job_p50_ms {traced_p50:.3} traced vs {:.3} untraced",
        tracer.len(),
        median(&l.job_ms)
    ));

    // The engine-side layers, measured in process on a graph of median
    // size from the pool under the jobs' config.
    let mut sizes: Vec<(usize, usize)> = pool
        .iter()
        .take(16)
        .enumerate()
        .map(|(i, g)| (g.len(), i))
        .collect();
    sizes.sort_unstable();
    let text = &pool[sizes[sizes.len() / 2].1];
    let cfg = w.job_config();
    let s = layout::layout_loop(
        std::slice::from_ref(text),
        &cfg,
        w.stress_bounds,
        5,
        0.0,
        &tracer,
        report,
    );
    if s.lean.is_some() {
        layout::report_layers(&s, &cfg, &tracer, report);
    }
    Some(tracer)
}

/// Per-layer metrics of the service, HTTP and cluster layers from a
/// traced loop. `totals` are the uploads and resubmits of both loops,
/// the base of the server's cumulative counters in `stats`.
fn report_service_layers(
    w: &ServeWorkload,
    t: &LoopResult,
    totals: (u64, u64),
    stats: &str,
    report: &mut Report,
) {
    let (uploads, resubmits) = (totals.0 as f64, totals.1 as f64);
    let l = &t.log;
    let jobs = l.job_ms.len().max(1);
    let mut phases: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut overhead = Vec::new();
    for (job_ms, trace) in &l.traces {
        for span in trace.split("{\"phase\":").skip(1) {
            let phase = span.split('"').nth(1).unwrap_or("");
            if let Some(us) = json_num(span, "dur_us") {
                phases.entry(phase_key(phase)).or_default().push(us / 1e3);
            }
        }
        if let Some(total_us) = json_num(trace, "total_us") {
            overhead.push(job_ms - total_us / 1e3);
        }
    }
    for (name, phase) in [
        ("service.queue_wait_ms", "queue_wait"),
        ("service.graph_lookup_ms", "graph_lookup"),
        ("service.cache_probe_ms", "cache_probe"),
        ("service.layout_ms", "layout"),
        ("service.spill_ms", "spill"),
    ] {
        let v = phases.get(phase).map(Vec::as_slice).unwrap_or(&[]);
        report.layer(name, median(v), v.len());
    }
    // The coordinator answers every ticket `cached: false`; the fleet's
    // hits are counted by its worker.
    let hit_ratio = if w.fleet {
        json_num(stats, "cache_hits").unwrap_or(f64::NAN) / resubmits
    } else {
        l.cached_tickets as f64 / l.resubmits as f64
    };
    report.layer("service.cache_hit_ratio", hit_ratio, l.resubmits as usize);
    report.layer("service.hit_ms", median(&l.hit_ms), l.hit_ms.len());
    let parses = json_num(stats, "parses").unwrap_or(f64::NAN);
    report.layer(
        "service.parses_per_upload",
        parses / uploads,
        uploads as usize,
    );
    for (name, v) in [
        ("http.upload_ms", &l.upload_ms),
        ("http.submit_ms", &l.submit_ms),
        ("http.events_ms", &l.events_ms),
        ("http.result_ms", &l.result_ms),
    ] {
        report.layer(name, median(v), v.len());
    }
    let cycles = (l.job_ms.len() + l.hit_ms.len()).max(1);
    report.layer(
        "http.connects_per_job",
        l.connects as f64 / cycles as f64,
        cycles,
    );
    if w.fleet {
        let coord = stats.split("\"coordinator\":{").nth(1).unwrap_or("");
        let field = |f: &str| json_num(coord, f).unwrap_or(f64::NAN);
        report.layer("cluster.overhead_ms", median(&overhead), overhead.len());
        report.layer(
            "cluster.result_retries",
            l.retries as f64 / cycles as f64,
            cycles,
        );
        report.layer(
            "cluster.graph_pushes_per_upload",
            field("graph_pushes") / uploads,
            uploads as usize,
        );
        report.layer(
            "cluster.forwards_per_job",
            field("forwarded") / field("submitted"),
            jobs,
        );
    } else {
        report.layers_not_on_path(&["cluster"]);
    }
}

/// A graph phase is a store hit (`graph_lookup`) or a real parse
/// (`graph_parse`); both resolve the job's graph.
fn phase_key(phase: &str) -> &str {
    match phase {
        "graph_parse" => "graph_lookup",
        p => p,
    }
}
