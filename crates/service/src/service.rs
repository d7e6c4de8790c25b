//! The layout orchestration service: a priority + fair-share scheduled
//! job queue fanned across a worker thread pool, backed by the engine
//! registry, the graph store, and the layout cache.
//!
//! ```text
//! upload(gfa) ──► GraphStore: hash ─► parse once ─► Arc<LeanGraph>
//!
//! submit_spec(JobSpec{engine, graph, config, priority, client, ttl})
//!    │  layout-cache hit ─────────► job born Done (cached=true)
//!    ▼  miss
//!    resolve graph (store hit, disk reload, or — inline only — parse)
//!    ▼
//! FairScheduler ──► worker: registry.create(engine) ─►
//!  (priority bands,  engine.layout_controlled(lean, ctl)
//!   DRR per client)    ─► cache.insert ─► Done
//! ```
//!
//! **Parse-once pipeline:** graphs are content-addressed artifacts
//! ([`pangraph::GraphStore`]). An inline GFA body is interned at submit
//! time — hashed, parsed if never seen, validated (zero-segment bodies
//! are rejected *before* a queue slot is spent) — and from then on every
//! job, across every engine, shares one `Arc<LeanGraph>`. A by-reference
//! request (`GraphSpec::Stored`) never touches GFA text at all: the
//! layout cache keys off the graph's content hash, so the request costs
//! O(config) to key and zero bytes of graph transfer.
//!
//! **Scheduling:** the queue is a [`FairScheduler`] — strict
//! [`Priority`] bands with deficit round-robin across client keys
//! inside each band — so one client's bulk flood cannot starve another
//! client's interactive job. Jobs may carry a queue TTL; a job still
//! queued when its TTL expires is failed (`expired in queue`) instead
//! of run.
//!
//! **Events:** every job keeps a sequence-numbered log of state
//! transitions and coalesced progress updates ([`crate::job::JobEvent`]),
//! fed by a [`LayoutControl`] progress observer on the engine thread.
//! [`LayoutService::wait_events`] blocks until the log grows past a
//! client's cursor, which is what the HTTP front end's chunked
//! `GET /v1/jobs/<id>/events` stream drains.
//!
//! Cancellation flows through [`LayoutControl`]: queued jobs are marked
//! cancelled directly (and removed from the scheduler); running jobs get
//! their control flag flipped and the engine stops at its next iteration
//! boundary.

use crate::cache::{cache_key, write_spill, CacheKey, CacheStats, LayoutCache};
use crate::job::{GraphSpec, Job, JobEvent, JobId, JobRequest, JobState, JobStatus};
use crate::obs::{self, ServiceMetrics};
use crate::registry::{EngineRegistry, EngineRequest};
use crate::sched::{job_cost, FairScheduler};
use crate::spec::{JobSpec, Priority};
use layout_core::LayoutControl;
use pangraph::store::{
    content_hash, evict_dir_to_cap, evict_dir_to_ttl, load_graph_spill, write_graph_spill,
    ContentHash, GraphMeta, GraphStore, GraphStoreStats,
};
use pangraph::{parse_gfa, Layout2D, LeanGraph};
use pgio::load_lay;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Fair-share key used when a spec names no client and the transport
/// provides no identity (embedded callers, tests).
pub const ANONYMOUS_CLIENT: &str = "anonymous";

/// Minimum spacing between live-telemetry (`metrics`) samples in a
/// job's event stream. Short jobs emit none; long runs give streaming
/// watchers a few updates/s readings per second.
const METRICS_EVENT_PERIOD: Duration = Duration::from_millis(200);

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (0 ⇒ one per available core).
    pub workers: usize,
    /// Layout-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Graph-store capacity in parsed graphs resident in memory
    /// (0 ⇒ unbounded — a batch run's graphs are its working set).
    pub graph_entries: usize,
    /// Terminal jobs retained for status/result queries; the oldest are
    /// evicted beyond this, so the job table cannot grow without bound.
    pub max_finished_jobs: usize,
    /// Disk tier for the layout cache and the graph store: layouts are
    /// written through to this directory (`<key>.lay`), parsed graphs
    /// to a `graphs/` subdirectory (`<hash>.lean`), and both reload
    /// lazily on memory misses, so a restarted service still hits on
    /// previously computed work. `None` keeps both memory-only.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Byte cap applied to each disk tier independently (0 ⇒ unbounded):
    /// when a spill pushes a directory past the cap, its oldest spill
    /// files are evicted first.
    pub cache_max_bytes: u64,
    /// Age cap for both disk tiers (`None` ⇒ keep forever): spill files
    /// older than this are swept whenever a spill runs the eviction
    /// pass, alongside the byte cap. Bounds *staleness* where the byte
    /// cap bounds *space*.
    pub cache_ttl: Option<Duration>,
    /// Per-graph in-flight quota for the scheduler (0 ⇒ unlimited): at
    /// most this many jobs for any single graph hash may run at once,
    /// so one hot graph cannot occupy every worker.
    pub graph_quota: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            cache_entries: 64,
            graph_entries: 16,
            max_finished_jobs: 1024,
            cache_dir: None,
            cache_max_bytes: 0,
            cache_ttl: None,
            graph_quota: 0,
        }
    }
}

impl ServiceConfig {
    /// Resolved worker count.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Why a submission was refused, mapped by the HTTP front end onto
/// status codes (400 / 404 / 503).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Malformed request: unknown engine, empty or unparseable GFA,
    /// zero-segment graph. (HTTP 400.)
    Rejected(String),
    /// The request failed typed [`crate::spec::JobSpec`] validation.
    /// (HTTP 400.)
    Invalid(crate::spec::SpecError),
    /// A by-reference request named a graph the store does not hold.
    /// (HTTP 404.)
    NoSuchGraph(String),
    /// The service is shutting down. (HTTP 503.)
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Rejected(msg) | SubmitError::NoSuchGraph(msg) => write!(f, "{msg}"),
            SubmitError::Invalid(e) => write!(f, "{e}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<crate::spec::SpecError> for SubmitError {
    fn from(e: crate::spec::SpecError) -> Self {
        SubmitError::Invalid(e)
    }
}

/// Ticket returned by [`LayoutService::submit`].
#[derive(Debug, Clone, Copy)]
pub struct SubmitTicket {
    /// The new job's id.
    pub id: JobId,
    /// `true` when the result was served from the cache (job is already
    /// `Done`).
    pub cached: bool,
    /// Content hash identifying the job's graph.
    pub graph: ContentHash,
    /// Band the job was scheduled under.
    pub priority: Priority,
}

/// Receipt for one graph upload ([`LayoutService::upload_graph`]).
#[derive(Debug, Clone, Copy)]
pub struct GraphUpload {
    /// The graph's content-addressed id — what `POST /layout?graph=`
    /// references.
    pub id: ContentHash,
    /// Node count.
    pub nodes: usize,
    /// Path count.
    pub paths: usize,
    /// Total path steps.
    pub steps: usize,
    /// `true` when the graph was already interned (no parse happened).
    pub dedup: bool,
}

/// What [`LayoutService::preload_dir`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreloadReport {
    /// Graphs interned from `.gfa` / `.lean` files.
    pub loaded: usize,
    /// Files whose graph was already in the store (no work).
    pub dedup: usize,
    /// Files that failed to read, parse, or decode.
    pub failed: usize,
}

/// Aggregate service counters for `GET /stats`.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Jobs ever submitted.
    pub submitted: u64,
    /// Jobs currently waiting in the queue.
    pub queued: usize,
    /// Queued jobs per priority band (interactive, normal, bulk).
    pub queued_by_band: [usize; 3],
    /// Distinct client keys with queued jobs right now.
    pub active_clients: usize,
    /// Jobs currently running on a worker.
    pub running: usize,
    /// Jobs finished successfully (including cache hits).
    pub done: u64,
    /// Jobs that failed (including queue-TTL expiries).
    pub failed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs failed specifically because their queue TTL expired (also
    /// counted in `failed`).
    pub expired: u64,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Cached layouts resident right now.
    pub cache_entries: usize,
    /// Approximate cache payload bytes.
    pub cache_bytes: usize,
    /// Cache counters.
    pub cache: CacheStats,
    /// Parsed graphs resident in the store right now.
    pub graph_entries: usize,
    /// Resident parsed-graph bytes.
    pub graph_bytes: u64,
    /// Graph-store counters (`parses` is the number the whole
    /// architecture exists to minimize).
    pub graphs: GraphStoreStats,
    /// Milliseconds since the service started.
    pub uptime_ms: u128,
}

struct Shared {
    registry: EngineRegistry,
    jobs: Mutex<HashMap<JobId, Arc<Mutex<Job>>>>,
    queue: Mutex<FairScheduler>,
    queue_cv: Condvar,
    /// Paired with `jobs`; notified whenever any job reaches a terminal
    /// state *or* grows its event log, so `wait` and `wait_events` can
    /// block instead of spin.
    done_cv: Condvar,
    cache: Mutex<LayoutCache>,
    graphs: Mutex<GraphStore>,
    /// Graph hashes with a parse currently in flight, so concurrent
    /// uploads of the same (possibly multi-gigabyte) GFA wait for one
    /// parse instead of each running their own.
    parsing: Mutex<std::collections::HashSet<ContentHash>>,
    parsing_cv: Condvar,
    /// Terminal job ids in completion order, oldest first; drives
    /// eviction from `jobs` beyond `max_finished`.
    finished: Mutex<VecDeque<JobId>>,
    max_finished: usize,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    /// Disk-tier TTL ([`ServiceConfig::cache_ttl`]), applied by the
    /// insert paths' eviction passes.
    cache_ttl: Option<Duration>,
    /// Phase/queue-wait histograms and engine-level counters for
    /// `/metrics`.
    metrics: ServiceMetrics,
    started: Instant,
    submitted: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    running: AtomicU64,
}

/// A running layout service: engine registry + graph store + fair
/// scheduler + worker pool + layout cache.
pub struct LayoutService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    worker_count: usize,
}

impl LayoutService {
    /// Start the worker pool.
    pub fn start(registry: EngineRegistry, cfg: ServiceConfig) -> Self {
        let workers = cfg.resolved_workers();
        let cache = match &cfg.cache_dir {
            Some(dir) => {
                LayoutCache::with_disk(cfg.cache_entries, dir, cfg.cache_max_bytes).unwrap_or_else(
                    |e| {
                        // A broken disk tier must not take the service
                        // down; degrade to memory-only and say so.
                        obs::warn(
                            "service",
                            "disk cache unavailable; running memory-only",
                            &[
                                ("path", dir.display().to_string()),
                                ("error", e.to_string()),
                            ],
                        );
                        LayoutCache::new(cfg.cache_entries)
                    },
                )
            }
            None => LayoutCache::new(cfg.cache_entries),
        };
        let graphs = match &cfg.cache_dir {
            Some(dir) => {
                let gdir = dir.join("graphs");
                GraphStore::with_disk(cfg.graph_entries, &gdir, cfg.cache_max_bytes).unwrap_or_else(
                    |e| {
                        obs::warn(
                            "service",
                            "graph store disk tier unavailable; running memory-only",
                            &[
                                ("path", gdir.display().to_string()),
                                ("error", e.to_string()),
                            ],
                        );
                        GraphStore::new(cfg.graph_entries)
                    },
                )
            }
            None => GraphStore::new(cfg.graph_entries),
        };
        let shared = Arc::new(Shared {
            registry,
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(FairScheduler::with_graph_quota(cfg.graph_quota)),
            queue_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cache: Mutex::new(cache),
            graphs: Mutex::new(graphs),
            parsing: Mutex::new(std::collections::HashSet::new()),
            parsing_cv: Condvar::new(),
            finished: Mutex::new(VecDeque::new()),
            max_finished: cfg.max_finished_jobs.max(1),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            cache_ttl: cfg.cache_ttl,
            metrics: ServiceMetrics::new(),
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            running: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pgl-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(handles),
            worker_count: workers,
        }
    }

    /// Start with the default engines and configuration.
    pub fn with_defaults() -> Self {
        Self::start(
            EngineRegistry::with_default_engines(),
            ServiceConfig::default(),
        )
    }

    /// Intern one GFA document as a content-addressed graph artifact:
    /// upload once, lay out many times. Re-uploading an already-known
    /// graph is a cheap dedup (hash + store hit, no parse), and
    /// concurrent uploads of the same bytes wait for one parse instead
    /// of each running their own. Zero-segment documents are rejected —
    /// a layout server must not accept graphs it can only fail on.
    pub fn upload_graph(&self, gfa: &str) -> Result<GraphUpload, SubmitError> {
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }
        if gfa.trim().is_empty() {
            return Err(SubmitError::Rejected("empty GFA body".into()));
        }
        let id = content_hash(gfa.as_bytes());
        let (graph, parsed) =
            intern_gfa_once(&self.shared, id, gfa).map_err(SubmitError::Rejected)?;
        Ok(GraphUpload {
            id,
            nodes: graph.node_count(),
            paths: graph.path_count(),
            steps: graph.total_steps(),
            dedup: !parsed,
        })
    }

    /// Intern every `.gfa` and `.lean` file in `dir` (sorted by name)
    /// into the graph store — the `pgl serve --preload-graphs` warm-up,
    /// so a fresh server answers by-reference requests immediately.
    /// `.lean` files must be named `<content-hash>.lean` (the spill
    /// naming); others are counted as failures. Interned graphs are
    /// recorded in the store's `preloaded` counter (`/stats`).
    pub fn preload_dir(&self, dir: &std::path::Path) -> std::io::Result<PreloadReport> {
        let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension()
                    .is_some_and(|ext| ext == "gfa" || ext == "lean")
            })
            .collect();
        entries.sort();
        let mut report = PreloadReport::default();
        for path in entries {
            let is_lean = path.extension().is_some_and(|e| e == "lean");
            let outcome = if is_lean {
                self.preload_lean(&path)
            } else {
                match std::fs::read_to_string(&path) {
                    Err(e) => Err(format!("read {}: {e}", path.display())),
                    Ok(gfa) => self
                        .upload_graph(&gfa)
                        .map(|up| up.dedup)
                        .map_err(|e| e.to_string()),
                }
            };
            match outcome {
                Ok(true) => report.dedup += 1,
                Ok(false) => {
                    self.shared.graphs.lock().unwrap().record_preload();
                    report.loaded += 1;
                }
                Err(msg) => {
                    obs::warn(
                        "service",
                        "preload failed",
                        &[("path", path.display().to_string()), ("error", msg)],
                    );
                    report.failed += 1;
                }
            }
        }
        Ok(report)
    }

    /// Load one `.lean` spill file named `<hash>.lean`. `Ok(true)` =
    /// already interned (dedup), `Ok(false)` = freshly loaded.
    fn preload_lean(&self, path: &std::path::Path) -> Result<bool, String> {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let id = ContentHash::from_hex(stem)
            .ok_or_else(|| format!("file stem {stem:?} is not a 32-hex-digit content hash"))?;
        if graph_known(&self.shared, id) {
            return Ok(true);
        }
        let graph = load_graph_spill(path).map_err(|e| format!("decode: {e}"))?;
        graph_insert(&self.shared, id, &Arc::new(graph));
        Ok(false)
    }

    /// Every graph the store knows about (resident or disk-spilled).
    pub fn graphs(&self) -> Vec<GraphMeta> {
        self.shared.graphs.lock().unwrap().list()
    }

    /// Metadata for one stored graph.
    pub fn graph_meta(&self, id: ContentHash) -> Option<GraphMeta> {
        self.shared.graphs.lock().unwrap().meta(id)
    }

    /// Delete a graph from the store (memory and disk tiers). Jobs
    /// already holding the parsed artifact are unaffected — they share
    /// an `Arc` — but new by-reference requests will miss. Returns
    /// whether anything was removed.
    pub fn delete_graph(&self, id: ContentHash) -> bool {
        self.shared.graphs.lock().unwrap().remove(id)
    }

    /// Submit a layout request with default scheduling (normal
    /// priority, anonymous client, no TTL). See
    /// [`LayoutService::submit_spec`] for the full surface.
    pub fn submit(&self, request: JobRequest) -> Result<SubmitTicket, SubmitError> {
        self.submit_spec(request.into())
    }

    /// Submit one fully-specified job. Returns immediately; on a
    /// layout-cache hit the job is born `Done` with the cached layout
    /// attached. Inline GFA is interned (parsed at most once) and
    /// validated here, so malformed or empty graphs never consume a
    /// queue slot. The job is queued under `(priority, client)` in the
    /// fair scheduler; its event log starts with the birth state.
    pub fn submit_spec(&self, spec: JobSpec) -> Result<SubmitTicket, SubmitError> {
        // Trace origin: every span offset (and the job's wall clock) is
        // measured from here, so the timeline covers graph resolution
        // and the cache probe, not just queue + run.
        let t0 = Instant::now();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(SubmitError::ShuttingDown);
        }
        // Fail fast on unknown engines rather than at run time.
        if !self.shared.registry.contains(&spec.engine) {
            return Err(SubmitError::Rejected(
                self.shared.registry.unknown_engine_error(&spec.engine),
            ));
        }
        let graph_hash = match &spec.graph {
            GraphSpec::Gfa(text) => {
                if text.trim().is_empty() {
                    return Err(SubmitError::Rejected("empty GFA body".into()));
                }
                content_hash(text.as_bytes())
            }
            GraphSpec::Stored(id) => {
                // Existence is checked before the layout cache so a
                // DELETEd graph really stops answering: a stale cached
                // layout must not resurrect a removed resource. The
                // check is O(1) store metadata + one `stat`, not a
                // graph load.
                if !graph_known(&self.shared, *id) {
                    return Err(SubmitError::NoSuchGraph(format!(
                        "no such graph {}",
                        id.hex()
                    )));
                }
                *id
            }
        };
        let key = cache_key(&spec.engine, &spec.config, spec.batch_size, graph_hash);
        let probe_start = t0.elapsed();
        let hit = cache_lookup(&self.shared, key);
        let probe_dur = t0.elapsed().saturating_sub(probe_start);
        // Resolve the parsed graph only on a cache miss: a hit never
        // loads the artifact, and an inline hit never re-parses. The
        // phase name distinguishes a real parse from a store hit — the
        // split the parse-once architecture exists to create.
        let graph_start = t0.elapsed();
        let mut graph_phase = "graph_lookup";
        let graph = match &hit {
            Some(_) => None,
            None => Some(match &spec.graph {
                GraphSpec::Gfa(text) => {
                    let (g, parsed) = intern_gfa_once(&self.shared, graph_hash, text)
                        .map_err(SubmitError::Rejected)?;
                    if parsed {
                        graph_phase = "graph_parse";
                    }
                    g
                }
                GraphSpec::Stored(id) => graph_lookup(&self.shared, *id).ok_or_else(|| {
                    SubmitError::NoSuchGraph(format!("no such graph {}", id.hex()))
                })?,
            }),
        };
        let graph_dur = t0.elapsed().saturating_sub(graph_start);
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let now = t0;
        let cached = hit.is_some();
        let nodes = match (&hit, &graph) {
            (Some(layout), _) => layout.node_count(),
            (None, Some(g)) => g.node_count(),
            (None, None) => 0,
        };
        let state = if cached {
            JobState::Done
        } else {
            JobState::Queued
        };
        let client = spec
            .client
            .clone()
            .unwrap_or_else(|| ANONYMOUS_CLIENT.to_string());
        let priority = spec.priority;
        // DRR cost: proportional to graph size (layout cost is linear in
        // path steps), so one client's chromosome-scale jobs cannot
        // monopolize a band against a neighbor's small ones. Cache hits
        // never queue, so the cost only matters on the miss path where
        // the parsed graph is in hand.
        let cost = graph
            .as_ref()
            .map(|g| job_cost(g.total_steps() as u64))
            .unwrap_or(1);
        let mut job = Job::new(
            id,
            &spec,
            client.clone(),
            graph_hash,
            graph,
            key,
            state,
            nodes,
            hit,
            now,
        );
        job.push_state_event(state);
        // Submit-side trace spans, in chronological order. Cached jobs
        // end here; misses open their queue-wait span, closed by the
        // worker that claims them.
        let us = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        job.trace
            .record("cache_probe", us(probe_start), us(probe_dur));
        self.shared
            .metrics
            .observe_phase("cache_probe", us(probe_dur));
        if !cached {
            job.trace
                .record(graph_phase, us(graph_start), us(graph_dur));
            self.shared
                .metrics
                .observe_phase(graph_phase, us(graph_dur));
            job.trace.begin("queue_wait", us(t0.elapsed()));
        }
        self.shared
            .jobs
            .lock()
            .unwrap()
            .insert(id, Arc::new(Mutex::new(job)));
        if cached {
            self.shared.done.fetch_add(1, Ordering::Relaxed);
            self.shared.done_cv.notify_all();
            retire_job(&self.shared, id);
        } else {
            self.shared
                .queue
                .lock()
                .unwrap()
                .push_keyed(priority, &client, id, cost, graph_hash);
            self.shared.queue_cv.notify_one();
        }
        Ok(SubmitTicket {
            id,
            cached,
            graph: graph_hash,
            priority,
        })
    }

    /// Current status of a job, if it exists. A queued job past its
    /// TTL is expired here (lazily) so observers never see a zombie
    /// `queued` — the deadline holds even while every worker is busy
    /// elsewhere and the scheduler never selects the job.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let job = self.job(id)?;
        self.expire_if_overdue(id, &job);
        let status = job.lock().unwrap().status();
        Some(status)
    }

    /// Transition a queued-past-deadline job to `Failed` (expired).
    /// No-op for any other state. Lock order is job → queue, the same
    /// as `cancel`, so this cannot deadlock against the worker loop
    /// (which never nests the two).
    fn expire_if_overdue(&self, id: JobId, job: &Arc<Mutex<Job>>) {
        let expired = {
            let mut guard = job.lock().unwrap();
            let overdue = guard.state == JobState::Queued
                && guard
                    .deadline
                    .is_some_and(|deadline| Instant::now() > deadline);
            if overdue {
                guard.state = JobState::Failed;
                guard.error = Some(format!(
                    "expired in queue after {} ms (queue TTL exceeded)",
                    guard.submitted.elapsed().as_millis()
                ));
                guard.finished = Some(Instant::now());
                guard.graph = None;
                guard.push_state_event(JobState::Failed);
                self.shared.queue.lock().unwrap().remove(id);
            }
            overdue
        };
        if expired {
            self.shared.failed.fetch_add(1, Ordering::Relaxed);
            self.shared.expired.fetch_add(1, Ordering::Relaxed);
            retire_job(&self.shared, id);
            self.shared.done_cv.notify_all();
        }
    }

    /// The finished layout, if the job exists and is `Done`.
    pub fn result(&self, id: JobId) -> Option<Arc<Layout2D>> {
        let job = self.job(id)?;
        let job = job.lock().unwrap();
        match job.state {
            JobState::Done => job.result.clone(),
            _ => None,
        }
    }

    /// The job's event log from sequence number `from` on, plus whether
    /// the job is terminal (its log is complete). `None` = unknown job.
    /// Queued-past-TTL jobs expire here, so a streaming watcher sees
    /// the failure instead of heartbeats forever.
    pub fn events_since(&self, id: JobId, from: u64) -> Option<(Vec<JobEvent>, bool)> {
        let job = self.job(id)?;
        self.expire_if_overdue(id, &job);
        let job = job.lock().unwrap();
        let events = job
            .events
            .iter()
            .filter(|e| e.seq >= from)
            .cloned()
            .collect();
        Some((events, job.state.is_terminal()))
    }

    /// Block until the job's event log grows past `from` (or the job is
    /// terminal), up to `timeout`; returns whatever is available then.
    /// `None` = unknown job (including evicted mid-wait).
    pub fn wait_events(
        &self,
        id: JobId,
        from: u64,
        timeout: Duration,
    ) -> Option<(Vec<JobEvent>, bool)> {
        let deadline = Instant::now() + timeout;
        loop {
            let (events, terminal) = self.events_since(id, from)?;
            if !events.is_empty() || terminal {
                return Some((events, terminal));
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return Some((events, terminal));
            };
            let jobs = self.shared.jobs.lock().unwrap();
            // Chunked waits bound the latency of a notify that lands
            // between the probe above and this wait.
            let _ = self
                .shared
                .done_cv
                .wait_timeout(jobs, remaining.min(Duration::from_millis(50)))
                .unwrap();
        }
    }

    /// Request cancellation. Queued jobs cancel immediately (and leave
    /// the scheduler); running jobs stop at the engine's next iteration
    /// boundary. Returns the state observed at the time of the request.
    pub fn cancel(&self, id: JobId) -> Result<JobState, String> {
        let job = self.job(id).ok_or_else(|| format!("no such job {id}"))?;
        let (outcome, newly_terminal) = {
            let mut job = job.lock().unwrap();
            match job.state {
                JobState::Queued => {
                    job.state = JobState::Cancelled;
                    job.finished = Some(Instant::now());
                    job.graph = None;
                    job.push_state_event(JobState::Cancelled);
                    self.shared.queue.lock().unwrap().remove(id);
                    self.shared.cancelled.fetch_add(1, Ordering::Relaxed);
                    self.shared.done_cv.notify_all();
                    (JobState::Cancelled, true)
                }
                JobState::Running => {
                    job.control.cancel();
                    (JobState::Running, false)
                }
                terminal => (terminal, false),
            }
        };
        if newly_terminal {
            retire_job(&self.shared, id);
        }
        Ok(outcome)
    }

    /// Block until the job reaches a terminal state, up to `timeout`.
    /// Returns the final status, or `None` on timeout or unknown id.
    /// Goes through [`LayoutService::status`] each probe, so queue-TTL
    /// expiry lands even when no worker ever pops the job.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(id)?;
            if status.state.is_terminal() {
                return Some(status);
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let jobs = self.shared.jobs.lock().unwrap();
            // Chunked waits bound the latency of a notify that lands
            // between the probe above and this wait.
            let _ = self
                .shared
                .done_cv
                .wait_timeout(jobs, remaining.min(Duration::from_millis(50)))
                .unwrap();
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServiceStats {
        let (cache_entries, cache_bytes, cache) = {
            let cache = self.shared.cache.lock().unwrap();
            (cache.len(), cache.bytes(), cache.stats())
        };
        let (graph_entries, graph_bytes, graphs) = {
            let store = self.shared.graphs.lock().unwrap();
            (store.len(), store.bytes(), store.stats())
        };
        let (queued, queued_by_band, active_clients) = {
            let queue = self.shared.queue.lock().unwrap();
            (
                queue.len(),
                [
                    queue.band_len(Priority::Interactive),
                    queue.band_len(Priority::Normal),
                    queue.band_len(Priority::Bulk),
                ],
                queue.active_clients(),
            )
        };
        ServiceStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            queued,
            queued_by_band,
            active_clients,
            running: self.shared.running.load(Ordering::Relaxed) as usize,
            done: self.shared.done.load(Ordering::Relaxed),
            failed: self.shared.failed.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
            expired: self.shared.expired.load(Ordering::Relaxed),
            workers: self.worker_count,
            cache_entries,
            cache_bytes,
            cache,
            graph_entries,
            graph_bytes,
            graphs,
            uptime_ms: self.shared.started.elapsed().as_millis(),
        }
    }

    /// Service-level Prometheus families for `GET /metrics`: windowed
    /// queue-wait and phase histograms, live engine gauges, scheduler
    /// depth, cache-tier hit ratios, and disk-index op counters. The
    /// HTTP front end concatenates this with the request-level families
    /// from [`crate::httpmetrics::HttpMetrics::render_prometheus`].
    pub fn metrics_prometheus(&self) -> String {
        use crate::httpmetrics::family;
        use std::fmt::Write as _;
        let stats = self.stats();
        // Terms applied by jobs still running: sampled from their live
        // engine telemetry so the total counter moves between
        // completions.
        let live_terms: u64 = {
            let jobs = self.shared.jobs.lock().unwrap();
            jobs.values()
                .map(|job| {
                    let job = job.lock().unwrap();
                    if job.state == JobState::Running {
                        job.control.telemetry().terms_applied()
                    } else {
                        0
                    }
                })
                .sum()
        };
        let mut out = self
            .shared
            .metrics
            .render_prometheus(stats.running as u64, live_terms);

        family(
            &mut out,
            "pgl_queue_depth",
            "gauge",
            "Queued jobs, by priority band.",
        );
        for (i, band) in obs::QUEUE_BANDS.iter().enumerate() {
            let _ = writeln!(
                out,
                "pgl_queue_depth{{band=\"{band}\"}} {}",
                stats.queued_by_band[i]
            );
        }
        family(
            &mut out,
            "pgl_queue_active_clients",
            "gauge",
            "Distinct client keys with queued jobs.",
        );
        let _ = writeln!(out, "pgl_queue_active_clients {}", stats.active_clients);

        family(
            &mut out,
            "pgl_jobs_total",
            "counter",
            "Jobs by terminal outcome (expired also counts as failed).",
        );
        for (outcome, n) in [
            ("done", stats.done),
            ("failed", stats.failed),
            ("cancelled", stats.cancelled),
            ("expired", stats.expired),
        ] {
            let _ = writeln!(out, "pgl_jobs_total{{outcome=\"{outcome}\"}} {n}");
        }

        family(
            &mut out,
            "pgl_cache_entries",
            "gauge",
            "Resident entries per cache tier.",
        );
        let _ = writeln!(
            out,
            "pgl_cache_entries{{tier=\"layout\"}} {}",
            stats.cache_entries
        );
        let _ = writeln!(
            out,
            "pgl_cache_entries{{tier=\"graph\"}} {}",
            stats.graph_entries
        );
        family(
            &mut out,
            "pgl_cache_bytes",
            "gauge",
            "Resident payload bytes per cache tier.",
        );
        let _ = writeln!(
            out,
            "pgl_cache_bytes{{tier=\"layout\"}} {}",
            stats.cache_bytes
        );
        let _ = writeln!(
            out,
            "pgl_cache_bytes{{tier=\"graph\"}} {}",
            stats.graph_bytes
        );

        // Hit ratio over every lookup that reached the tier (memory or
        // disk hit ÷ all lookups); 0 before any traffic.
        let ratio = |hits: u64, disk_hits: u64, misses: u64| {
            let total = hits + disk_hits + misses;
            if total == 0 {
                0.0
            } else {
                (hits + disk_hits) as f64 / total as f64
            }
        };
        family(
            &mut out,
            "pgl_cache_hit_ratio",
            "gauge",
            "Lookup hit ratio per cache tier (memory + disk hits over all lookups).",
        );
        let _ = writeln!(
            out,
            "pgl_cache_hit_ratio{{tier=\"layout\"}} {:.4}",
            ratio(stats.cache.hits, stats.cache.disk_hits, stats.cache.misses)
        );
        let _ = writeln!(
            out,
            "pgl_cache_hit_ratio{{tier=\"graph\"}} {:.4}",
            ratio(
                stats.graphs.hits,
                stats.graphs.disk_hits,
                stats.graphs.misses
            )
        );

        family(
            &mut out,
            "pgl_disk_index_ops_total",
            "counter",
            "Disk-tier index operations, by tier and op.",
        );
        let tiers = [
            ("layout", self.shared.cache.lock().unwrap().index_ops()),
            ("graph", self.shared.graphs.lock().unwrap().index_ops()),
        ];
        for (tier, ops) in tiers {
            let Some(ops) = ops else { continue };
            for (op, n) in [
                ("append", ops.appends),
                ("snapshot", ops.snapshots),
                ("rebuild_scan", ops.rebuild_scans),
            ] {
                let _ = writeln!(
                    out,
                    "pgl_disk_index_ops_total{{tier=\"{tier}\",op=\"{op}\"}} {n}"
                );
            }
        }
        out
    }

    /// Registered engine names.
    pub fn engine_names(&self) -> Vec<String> {
        self.shared
            .registry
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    /// Stop accepting work, cancel running jobs, and join the workers.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for job in self.shared.jobs.lock().unwrap().values() {
            job.lock().unwrap().control.cancel();
        }
        self.shared.queue_cv.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    fn job(&self, id: JobId) -> Option<Arc<Mutex<Job>>> {
        self.shared.jobs.lock().unwrap().get(&id).cloned()
    }
}

impl Drop for LayoutService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Parse + flatten + validate one GFA document (the only place the
/// service ever parses).
fn parse_lean(gfa: &str) -> Result<Arc<LeanGraph>, String> {
    let graph = parse_gfa(gfa).map_err(|e| format!("GFA parse error: {e}"))?;
    let lean = LeanGraph::from_graph(&graph);
    if lean.node_count() == 0 {
        // The parser skips lines it does not understand, so arbitrary
        // text "parses" into an empty graph; a layout server must
        // reject that rather than accept a job it can only fail.
        return Err("GFA parse error: no segments found in body".into());
    }
    Ok(Arc::new(lean))
}

/// Is `id` producible by the store right now (resident, catalogued, or
/// spilled on disk)? Pure memory — the disk tier answers through its
/// index, so this costs no `stat` even on huge cache directories.
fn graph_known(shared: &Shared, id: ContentHash) -> bool {
    let store = shared.graphs.lock().unwrap();
    store.contains(id) || store.disk_contains(id)
}

/// Intern one GFA document under the parse-once guarantee: memory tier,
/// then disk tier, then — holding a per-hash in-flight reservation — a
/// single parse, no matter how many threads submit the same bytes
/// concurrently. Returns the artifact and whether *this* call parsed.
/// Parsing and file I/O run outside every lock.
fn intern_gfa_once(
    shared: &Shared,
    id: ContentHash,
    text: &str,
) -> Result<(Arc<LeanGraph>, bool), String> {
    loop {
        if let Some(g) = graph_lookup(shared, id) {
            return Ok((g, false));
        }
        let mut parsing = shared.parsing.lock().unwrap();
        if parsing.insert(id) {
            break; // this thread owns the parse
        }
        // Someone else is parsing these bytes: wait, then re-probe the
        // store (their insert lands before they clear the reservation).
        let _guard = shared.parsing_cv.wait(parsing).unwrap();
    }
    let result = parse_lean(text);
    if let Ok(lean) = &result {
        shared.graphs.lock().unwrap().record_parse();
        graph_insert(shared, id, lean);
    }
    let mut parsing = shared.parsing.lock().unwrap();
    parsing.remove(&id);
    shared.parsing_cv.notify_all();
    drop(parsing);
    result.map(|lean| (lean, true))
}

/// Two-tier graph lookup with the disk read performed *outside* the
/// store lock, so reloading a multi-gigabyte spill cannot serialize
/// every upload and submission behind one file read.
fn graph_lookup(shared: &Shared, id: ContentHash) -> Option<Arc<LeanGraph>> {
    let disk_path = {
        let mut store = shared.graphs.lock().unwrap();
        if let Some(g) = store.lookup(id) {
            return Some(g);
        }
        // Index-gated probe: a definite miss returns None here and
        // never touches the spill directory.
        store.probe_path(id)
    };
    let Some(path) = disk_path else {
        shared.graphs.lock().unwrap().record_miss();
        return None;
    };
    match load_graph_spill(&path) {
        Ok(graph) => {
            let graph = Arc::new(graph);
            shared.graphs.lock().unwrap().record_disk_hit(id, &graph);
            Some(graph)
        }
        Err(e) => {
            let mut store = shared.graphs.lock().unwrap();
            if e.kind() == std::io::ErrorKind::NotFound {
                // A sibling evicted the spill: self-heal the index.
                store.record_disk_gone(id);
            } else {
                store.record_disk_error();
            }
            store.record_miss();
            None
        }
    }
}

/// Insert a parsed graph: spill to the disk tier and enforce its byte
/// and TTL caps (file I/O outside the store lock), then place it in
/// memory.
fn graph_insert(shared: &Shared, id: ContentHash, graph: &Arc<LeanGraph>) {
    let (spill, cap, dir) = {
        let store = shared.graphs.lock().unwrap();
        (store.disk_path(id), store.disk_cap(), store.disk_dir())
    };
    let spill_ok = spill.map(|path| write_graph_spill(graph, &path));
    let cap_evicted = cap.map(|(dir, max)| evict_dir_to_cap(&dir, max, "lean"));
    let ttl_evicted = match (shared.cache_ttl, dir) {
        (Some(ttl), Some(dir)) => Some(evict_dir_to_ttl(&dir, ttl, "lean")),
        _ => None,
    };
    let mut store = shared.graphs.lock().unwrap();
    if let Some(ok) = spill_ok {
        store.record_spill(id, ok);
    }
    if let Some(removed) = cap_evicted {
        store.record_cap_evictions(&removed);
    }
    if let Some(removed) = ttl_evicted {
        store.record_ttl_evictions(&removed);
    }
    store.insert(id, Arc::clone(graph));
}

/// Two-tier cache lookup with the disk read performed *outside* the
/// cache lock, so a slow spill directory cannot serialize every
/// submission and completion behind one file read.
fn cache_lookup(shared: &Shared, key: CacheKey) -> Option<Arc<Layout2D>> {
    let disk_path = {
        let mut cache = shared.cache.lock().unwrap();
        if let Some(hit) = cache.lookup(key) {
            return Some(hit);
        }
        // Index-gated probe: a definite miss never touches the spill
        // directory.
        cache.probe_path(key)
    };
    let Some(path) = disk_path else {
        shared.cache.lock().unwrap().record_miss();
        return None;
    };
    match load_lay(&path) {
        Ok(layout) => {
            let layout = Arc::new(layout);
            shared.cache.lock().unwrap().record_disk_hit(key, &layout);
            Some(layout)
        }
        Err(e) => {
            let mut cache = shared.cache.lock().unwrap();
            if e.kind() == std::io::ErrorKind::NotFound {
                cache.record_disk_gone(key);
            } else {
                cache.record_disk_error();
            }
            cache.record_miss();
            None
        }
    }
}

/// Insert a finished layout: spill to the disk tier and enforce its
/// byte and TTL caps (file I/O outside the cache lock), then place it
/// in the memory tier.
fn cache_insert(shared: &Shared, key: CacheKey, layout: &Arc<Layout2D>) {
    let (spill, cap, dir) = {
        let cache = shared.cache.lock().unwrap();
        (
            cache.disk_path(key),
            cache.disk_cap(),
            cache.disk_dir().map(|d| d.to_path_buf()),
        )
    };
    let spill_ok = spill.map(|path| write_spill(layout, &path));
    let cap_evicted = cap.map(|(dir, max)| evict_dir_to_cap(&dir, max, "lay"));
    let ttl_evicted = match (shared.cache_ttl, dir) {
        (Some(ttl), Some(dir)) => Some(evict_dir_to_ttl(&dir, ttl, "lay")),
        _ => None,
    };
    let mut cache = shared.cache.lock().unwrap();
    if let Some(ok) = spill_ok {
        cache.record_spill(key, ok);
    }
    if let Some(removed) = cap_evicted {
        cache.record_cap_evictions(&removed);
    }
    if let Some(removed) = ttl_evicted {
        cache.record_ttl_evictions(&removed);
    }
    cache.insert_memory(key, Arc::clone(layout));
}

/// Free a popped job's per-graph quota slot and wake a parked worker.
/// Every id a worker pops must pass through here exactly once, whatever
/// became of the job — `release` is idempotent, but a leaked slot would
/// park its graph's backlog forever.
fn release_quota(shared: &Shared, id: JobId) {
    if shared.queue.lock().unwrap().release(id) {
        shared.queue_cv.notify_all();
    }
}

/// Bookkeeping once a job has reached a terminal state: record it for
/// retention accounting and evict the oldest terminal jobs beyond the
/// cap, so the job table (and the layout data its entries hold) cannot
/// grow without bound. Never called while a job mutex is held.
fn retire_job(shared: &Shared, id: JobId) {
    let evicted: Vec<JobId> = {
        let mut finished = shared.finished.lock().unwrap();
        finished.push_back(id);
        let excess = finished.len().saturating_sub(shared.max_finished);
        finished.drain(..excess).collect()
    };
    if !evicted.is_empty() {
        let mut jobs = shared.jobs.lock().unwrap();
        for old in evicted {
            jobs.remove(&old);
        }
    }
}

/// What the claim step decided about a popped job id. The run payload
/// is boxed: it dwarfs the unit variants, and one allocation per
/// claimed job is noise next to the layout it precedes.
enum Claim {
    /// Run it: everything the engine needs, captured under the job lock.
    Run(Box<RunClaim>),
    /// Already terminal (e.g. cancelled between pop and claim), or gone.
    Skip,
    /// Still queued but past its queue TTL: failed without running.
    Expired,
}

struct RunClaim {
    engine: String,
    config: layout_core::LayoutConfig,
    batch_size: usize,
    graph: Arc<LeanGraph>,
    control: Arc<LayoutControl>,
    key: CacheKey,
    /// Job submission instant — the trace's time origin.
    submitted: Instant,
    /// Microseconds the job waited in the queue (closed at claim).
    queue_wait_us: u64,
    /// Band index, for the per-band queue-wait histogram.
    band: usize,
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // Pop the next job id (priority band, then fair share), or park
        // until one arrives / shutdown.
        let id = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(id) = queue.pop() {
                    break id;
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).unwrap();
            }
        };
        let Some(job) = shared.jobs.lock().unwrap().get(&id).cloned() else {
            release_quota(shared, id);
            continue;
        };
        // Claim: Queued → Running (it may have been cancelled or have
        // expired meanwhile).
        let claim = {
            let mut guard = job.lock().unwrap();
            if guard.state != JobState::Queued {
                Claim::Skip
            } else if guard
                .deadline
                .is_some_and(|deadline| Instant::now() > deadline)
            {
                guard.state = JobState::Failed;
                guard.error = Some(format!(
                    "expired in queue after {} ms (queue TTL exceeded)",
                    guard.submitted.elapsed().as_millis()
                ));
                guard.finished = Some(Instant::now());
                guard.graph = None;
                guard.push_state_event(JobState::Failed);
                Claim::Expired
            } else {
                match guard.graph.clone() {
                    None => Claim::Skip, // unreachable: queued jobs carry a graph
                    Some(graph) => {
                        guard.state = JobState::Running;
                        guard.push_state_event(JobState::Running);
                        let now_us = guard.submitted.elapsed().as_micros() as u64;
                        let queue_wait_us = guard.trace.end("queue_wait", now_us).unwrap_or(0);
                        guard.trace.begin("layout", now_us);
                        Claim::Run(Box::new(RunClaim {
                            engine: guard.engine.clone(),
                            config: guard.config.clone(),
                            batch_size: guard.batch_size,
                            graph,
                            control: Arc::clone(&guard.control),
                            key: guard.cache_key,
                            submitted: guard.submitted,
                            queue_wait_us,
                            band: guard.priority.band(),
                        }))
                    }
                }
            }
        };
        let Claim::Run(run) = claim else {
            if matches!(claim, Claim::Expired) {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                shared.expired.fetch_add(1, Ordering::Relaxed);
                retire_job(shared, id);
                shared.done_cv.notify_all();
            }
            release_quota(shared, id);
            continue;
        };
        let RunClaim {
            engine,
            config,
            batch_size,
            graph,
            control,
            key,
            submitted,
            queue_wait_us,
            band,
        } = *run;
        shared.metrics.observe_queue_wait(band, queue_wait_us);
        shared.done_cv.notify_all(); // Running event is visible
                                     // Feed the engine's progress into the job's event log: the
                                     // observer runs on the engine thread, holds only the job mutex
                                     // briefly, and uses weak references so a retained closure can
                                     // never keep a job (or the service) alive. It also samples the
                                     // engine's live telemetry at most once per
                                     // `METRICS_EVENT_PERIOD`, so streaming watchers see updates/s
                                     // without the event log scaling with iteration count.
        {
            let weak_job: Weak<Mutex<Job>> = Arc::downgrade(&job);
            let weak_shared: Weak<Shared> = Arc::downgrade(shared);
            let weak_ctl: Weak<LayoutControl> = Arc::downgrade(&control);
            let sample = Mutex::new((Instant::now(), 0u64));
            control.set_observer(move |progress| {
                let Some(job) = weak_job.upgrade() else {
                    return;
                };
                let mut appended = job.lock().unwrap().push_progress_event(progress);
                if let Some(ctl) = weak_ctl.upgrade() {
                    let mut last = sample.lock().unwrap();
                    let dt = last.0.elapsed();
                    if dt >= METRICS_EVENT_PERIOD {
                        let terms = ctl.telemetry().terms_applied();
                        let (iter, iter_max) = ctl.telemetry().iteration();
                        let ups = terms.saturating_sub(last.1) as f64 / dt.as_secs_f64();
                        *last = (Instant::now(), terms);
                        drop(last);
                        job.lock()
                            .unwrap()
                            .push_metrics_event(terms, ups, iter, iter_max);
                        appended = true;
                    }
                }
                if appended {
                    if let Some(shared) = weak_shared.upgrade() {
                        shared.done_cv.notify_all();
                    }
                }
            });
        }
        shared.running.fetch_add(1, Ordering::Relaxed);
        let outcome = run_job(shared, &engine, &config, batch_size, &graph, &control);
        shared.running.fetch_sub(1, Ordering::Relaxed);
        // The engine is done: no more observer calls are possible, so
        // clearing here (outside the job mutex) cannot race or deadlock.
        control.clear_observer();
        drop(graph);
        let layout_end_us = submitted.elapsed().as_micros() as u64;
        // The engine's applied-terms total moves from "live" to
        // "finished" in the service aggregate (any outcome — partial
        // work from a cancelled run still happened).
        shared
            .metrics
            .add_terms_finished(control.telemetry().terms_applied());

        // Cache the result before touching the job record: the spill
        // write would otherwise run while holding the job mutex and
        // block every status poll on this job behind disk I/O.
        let mut spill_span = None;
        if let Ok(layout) = &outcome {
            let spill_start_us = submitted.elapsed().as_micros() as u64;
            cache_insert(shared, key, layout);
            let spill_dur_us = (submitted.elapsed().as_micros() as u64) - spill_start_us;
            shared.metrics.observe_phase("spill", spill_dur_us);
            spill_span = Some((spill_start_us, spill_dur_us));
        }

        let mut guard = job.lock().unwrap();
        guard.finished = Some(Instant::now());
        guard.graph = None;
        if let Some(layout_us) = guard.trace.end("layout", layout_end_us) {
            shared.metrics.observe_phase("layout", layout_us);
        }
        if let Some((start, dur)) = spill_span {
            guard.trace.record("spill", start, dur);
        }
        match outcome {
            Ok(layout) => {
                guard.result = Some(layout);
                guard.state = JobState::Done;
                guard.push_state_event(JobState::Done);
                shared.done.fetch_add(1, Ordering::Relaxed);
            }
            Err(None) => {
                guard.state = JobState::Cancelled;
                guard.push_state_event(JobState::Cancelled);
                shared.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(Some(msg)) => {
                obs::error(
                    "service",
                    "job failed",
                    &[
                        ("job", id.to_string()),
                        ("engine", engine.clone()),
                        ("error", msg.clone()),
                    ],
                );
                guard.state = JobState::Failed;
                guard.error = Some(msg);
                guard.push_state_event(JobState::Failed);
                shared.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(guard);
        retire_job(shared, id);
        release_quota(shared, id);
        shared.done_cv.notify_all();
    }
}

/// Run one job body on an already-parsed graph. `Err(None)` means
/// cancelled, `Err(Some(msg))` failed.
fn run_job(
    shared: &Shared,
    engine_name: &str,
    config: &layout_core::LayoutConfig,
    batch_size: usize,
    lean: &LeanGraph,
    control: &LayoutControl,
) -> Result<Arc<Layout2D>, Option<String>> {
    let engine_req = EngineRequest {
        config: config.clone(),
        batch_size,
        node_count: lean.node_count(),
    };
    let engine = shared
        .registry
        .create(engine_name, &engine_req)
        .map_err(Some)?;
    // A panicking engine must fail the job, not kill the worker.
    let result =
        std::panic::catch_unwind(AssertUnwindSafe(|| engine.layout_controlled(lean, control)))
            .map_err(|_| Some(format!("engine {engine_name:?} panicked")))?;
    match result {
        Some(layout) => Ok(Arc::new(layout)),
        None => Err(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::EventKind;
    use layout_core::LayoutConfig;
    use pangraph::write_gfa;
    use workloads::{generate, PangenomeSpec};

    fn small_gfa(seed: u64) -> String {
        write_gfa(&generate(&PangenomeSpec::basic("svc", 40, 3, seed)))
    }

    fn quick_request(engine: &str, gfa: String) -> JobRequest {
        JobRequest {
            engine: engine.into(),
            config: LayoutConfig {
                iter_max: 4,
                threads: 1,
                ..LayoutConfig::default()
            },
            batch_size: 256,
            graph: GraphSpec::Gfa(Arc::new(gfa)),
        }
    }

    fn quick_spec(engine: &str, gfa: String) -> JobSpec {
        JobSpec::from(quick_request(engine, gfa))
    }

    fn service(workers: usize) -> LayoutService {
        LayoutService::start(
            EngineRegistry::with_default_engines(),
            ServiceConfig {
                workers,
                cache_entries: 8,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn finished_jobs_are_evicted_beyond_the_retention_cap() {
        let svc = LayoutService::start(
            EngineRegistry::with_default_engines(),
            ServiceConfig {
                workers: 1,
                cache_entries: 8,
                max_finished_jobs: 2,
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..3)
            .map(|i| svc.submit(quick_request("cpu", small_gfa(40 + i))).unwrap())
            .collect();
        for t in &tickets {
            svc.wait(t.id, Duration::from_secs(60)).expect("completes");
        }
        // Oldest terminal job disappears (eviction runs just after the
        // completion notification, so poll briefly); newest stay.
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.status(tickets[0].id).is_some() {
            assert!(Instant::now() < deadline, "job 0 never evicted");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(svc.status(tickets[1].id).is_some());
        assert!(svc.result(tickets[2].id).is_some());
    }

    #[test]
    fn lifecycle_submit_wait_result() {
        let svc = service(2);
        let t = svc.submit(quick_request("cpu", small_gfa(1))).unwrap();
        assert!(!t.cached);
        assert_eq!(t.priority, Priority::Normal);
        let status = svc.wait(t.id, Duration::from_secs(60)).expect("finishes");
        assert_eq!(status.state, JobState::Done);
        assert!(status.nodes > 0);
        assert_eq!(status.progress, 1.0);
        assert_eq!(status.graph, t.graph);
        assert_eq!(status.client, ANONYMOUS_CLIENT);
        let layout = svc.result(t.id).expect("result available");
        assert_eq!(layout.node_count(), status.nodes);
        assert!(layout.all_finite());
    }

    #[test]
    fn identical_resubmission_is_served_from_cache() {
        let svc = service(1);
        let gfa = small_gfa(2);
        let first = svc.submit(quick_request("cpu", gfa.clone())).unwrap();
        svc.wait(first.id, Duration::from_secs(60)).unwrap();
        let second = svc.submit(quick_request("cpu", gfa.clone())).unwrap();
        assert!(second.cached, "identical request must hit the cache");
        let status = svc.status(second.id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(
            svc.result(first.id).unwrap().as_ref(),
            svc.result(second.id).unwrap().as_ref(),
            "cache returns the same layout"
        );
        // A different engine misses the layout cache but shares the
        // parsed graph: still exactly one parse.
        let third = svc.submit(quick_request("batch", gfa)).unwrap();
        assert!(!third.cached);
        assert_eq!(
            svc.wait(third.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
        let stats = svc.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.graphs.parses, 1, "one parse across three submits");
    }

    #[test]
    fn bad_gfa_is_rejected_at_submit() {
        let svc = service(1);
        // Text without segments no longer wastes a queue slot: it is
        // rejected before enqueueing, not failed inside a worker.
        let err = svc
            .submit(JobRequest::new("cpu", "this is not gfa\n"))
            .unwrap_err();
        match &err {
            SubmitError::Rejected(msg) => {
                assert!(msg.contains("parse"), "names the parse failure: {msg}")
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
        // A structurally invalid document is rejected the same way.
        let err = svc.submit(JobRequest::new("cpu", "S\tx\t*\n")).unwrap_err();
        assert!(matches!(err, SubmitError::Rejected(_)));
        assert_eq!(svc.stats().submitted, 0, "no queue slot was consumed");
    }

    #[test]
    fn unknown_engine_is_rejected_at_submit() {
        let svc = service(1);
        let err = svc
            .submit(quick_request("warp-drive", small_gfa(3)))
            .unwrap_err()
            .to_string();
        assert!(err.contains("warp-drive") && err.contains("cpu"));
        assert!(
            svc.submit(JobRequest::new("cpu", "")).is_err(),
            "empty body rejected"
        );
    }

    #[test]
    fn upload_then_layout_by_reference_parses_once() {
        let svc = service(2);
        let gfa = small_gfa(50);
        let up = svc.upload_graph(&gfa).unwrap();
        assert!(!up.dedup);
        assert!(up.nodes > 0 && up.steps > 0);
        let again = svc.upload_graph(&gfa).unwrap();
        assert!(again.dedup, "re-upload is a dedup hit");
        assert_eq!(again.id, up.id);

        // Three by-reference jobs across two engines: zero extra parses.
        let mut cfg = LayoutConfig {
            iter_max: 4,
            threads: 1,
            ..LayoutConfig::default()
        };
        for (engine, iters) in [("cpu", 4), ("cpu", 5), ("batch", 4)] {
            cfg.iter_max = iters;
            let req = JobRequest {
                engine: engine.into(),
                config: cfg.clone(),
                batch_size: 256,
                graph: GraphSpec::Stored(up.id),
            };
            let t = svc.submit(req).unwrap();
            assert_eq!(t.graph, up.id);
            assert_eq!(
                svc.wait(t.id, Duration::from_secs(60)).unwrap().state,
                JobState::Done
            );
        }
        let stats = svc.stats();
        assert_eq!(stats.graphs.parses, 1, "uploaded graph parsed exactly once");
        assert!(stats.graphs.hits >= 3);
    }

    #[test]
    fn by_reference_requests_for_unknown_graphs_404() {
        let svc = service(1);
        let bogus = content_hash(b"never uploaded");
        let err = svc.submit(JobRequest::by_ref("cpu", bogus)).unwrap_err();
        match err {
            SubmitError::NoSuchGraph(msg) => assert!(msg.contains(&bogus.hex())),
            other => panic!("expected NoSuchGraph, got {other:?}"),
        }
    }

    #[test]
    fn deleting_an_in_use_graph_does_not_sink_its_jobs() {
        let svc = service(1);
        let up = svc.upload_graph(&small_gfa(51)).unwrap();
        let mut req = JobRequest::by_ref("cpu", up.id);
        req.config.iter_max = 6;
        req.config.threads = 1;
        let t = svc.submit(req).unwrap();
        // Delete while the job is queued or running: the job's Arc keeps
        // the parsed graph alive.
        assert!(svc.delete_graph(up.id));
        assert_eq!(
            svc.wait(t.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
        // But new by-reference requests miss.
        assert!(matches!(
            svc.submit(JobRequest::by_ref("cpu", up.id)).unwrap_err(),
            SubmitError::NoSuchGraph(_)
        ));
        assert!(!svc.delete_graph(up.id), "double delete is a no-op");
    }

    #[test]
    fn deleted_graphs_stop_answering_even_with_cached_layouts() {
        let svc = service(1);
        let up = svc.upload_graph(&small_gfa(55)).unwrap();
        let mut req = JobRequest::by_ref("cpu", up.id);
        req.config.iter_max = 4;
        req.config.threads = 1;
        let t = svc.submit(req.clone()).unwrap();
        svc.wait(t.id, Duration::from_secs(60)).unwrap();
        // The identical reference request is a cache hit…
        assert!(svc.submit(req.clone()).unwrap().cached);
        // …until the graph is deleted: a removed resource must not be
        // resurrected by its stale cached layout.
        assert!(svc.delete_graph(up.id));
        assert!(matches!(
            svc.submit(req).unwrap_err(),
            SubmitError::NoSuchGraph(_)
        ));
    }

    #[test]
    fn concurrent_uploads_of_the_same_gfa_parse_once() {
        let svc = Arc::new(service(2));
        let gfa = Arc::new(small_gfa(56));
        let uploads: Vec<GraphUpload> = (0..8)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let gfa = Arc::clone(&gfa);
                std::thread::spawn(move || svc.upload_graph(&gfa).unwrap())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert!(uploads.windows(2).all(|w| w[0].id == w[1].id));
        assert_eq!(
            uploads.iter().filter(|u| !u.dedup).count(),
            1,
            "exactly one caller parsed"
        );
        assert_eq!(
            svc.stats().graphs.parses,
            1,
            "dogpiled uploads share one parse"
        );
    }

    #[test]
    fn graph_store_lru_eviction_is_bounded_and_listed() {
        let svc = LayoutService::start(
            EngineRegistry::with_default_engines(),
            ServiceConfig {
                workers: 1,
                graph_entries: 1,
                ..ServiceConfig::default()
            },
        );
        let a = svc.upload_graph(&small_gfa(60)).unwrap();
        let b = svc.upload_graph(&small_gfa(61)).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.graph_entries, 1, "memory tier bounded");
        assert_eq!(stats.graphs.evictions, 1);
        assert_eq!(svc.graphs().len(), 1, "evicted graph forgotten (no disk)");
        assert!(svc.graph_meta(b.id).is_some());
        // The evicted graph is gone: by-reference requests miss...
        assert!(matches!(
            svc.submit(JobRequest::by_ref("cpu", a.id)).unwrap_err(),
            SubmitError::NoSuchGraph(_)
        ));
        // ...but re-uploading re-interns it (one more parse).
        let re = svc.upload_graph(&small_gfa(60)).unwrap();
        assert!(!re.dedup);
        assert_eq!(re.id, a.id);
    }

    /// Cancel one long-running job on `engine` once it reports progress;
    /// only works promptly when the engine overrides `layout_controlled`
    /// with real per-iteration progress + cancellation.
    fn cancel_mid_run(engine: &str) {
        let svc = service(1);
        let mut req = quick_request(engine, small_gfa(4));
        req.config.iter_max = 100_000; // would run ~forever without cancel
        let t = svc.submit(req).unwrap();
        // Wait until it is actually running, then cancel.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let s = svc.status(t.id).unwrap();
            if s.state == JobState::Running && s.progress > 0.0 {
                break;
            }
            assert!(Instant::now() < deadline, "{engine} job never started");
            std::thread::sleep(Duration::from_millis(2));
        }
        svc.cancel(t.id).unwrap();
        let status = svc.wait(t.id, Duration::from_secs(60)).expect("terminates");
        assert_eq!(status.state, JobState::Cancelled, "{engine}");
        assert!(status.error.is_none(), "cancellation is not an error");
        assert!(svc.result(t.id).is_none());
    }

    #[test]
    fn running_jobs_can_be_cancelled() {
        cancel_mid_run("cpu");
    }

    #[test]
    fn running_batch_jobs_can_be_cancelled() {
        cancel_mid_run("batch");
    }

    #[test]
    fn running_gpu_jobs_can_be_cancelled() {
        cancel_mid_run("gpu");
    }

    #[test]
    fn disk_cache_hits_across_a_service_restart() {
        let dir = std::env::temp_dir().join(format!("pgl_svc_disk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = || ServiceConfig {
            workers: 1,
            cache_entries: 8,
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let gfa = small_gfa(77);
        let first_layout = {
            let svc = LayoutService::start(EngineRegistry::with_default_engines(), cfg());
            let t = svc.submit(quick_request("cpu", gfa.clone())).unwrap();
            assert!(!t.cached);
            svc.wait(t.id, Duration::from_secs(60)).unwrap();
            assert!(svc.stats().cache.disk_writes >= 1, "layout spilled to disk");
            assert!(
                svc.stats().graphs.disk_writes >= 1,
                "parsed graph spilled to disk"
            );
            svc.result(t.id).unwrap()
        }; // service dropped: memory tiers gone, disk tiers persist
        let svc2 = LayoutService::start(EngineRegistry::with_default_engines(), cfg());
        let t = svc2.submit(quick_request("cpu", gfa.clone())).unwrap();
        assert!(t.cached, "restarted service hits the disk tier");
        assert_eq!(svc2.stats().cache.disk_hits, 1);
        assert_eq!(
            svc2.result(t.id).unwrap().as_ref(),
            first_layout.as_ref(),
            "disk tier returns the identical layout"
        );
        // The graph disk tier answers by-reference requests without
        // this process ever having parsed the GFA.
        let id = content_hash(gfa.as_bytes());
        let mut req = JobRequest::by_ref("cpu", id);
        req.config = LayoutConfig {
            iter_max: 5,
            threads: 1,
            ..LayoutConfig::default()
        };
        let t2 = svc2.submit(req).unwrap();
        assert_eq!(
            svc2.wait(t2.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
        assert_eq!(svc2.stats().graphs.parses, 0, "restart never re-parses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_report_cancelled() {
        let svc = service(1);
        // Occupy the single worker…
        let mut slow = quick_request("cpu", small_gfa(5));
        slow.config.iter_max = 100_000;
        let running = svc.submit(slow).unwrap();
        // …then cancel a job that is still queued behind it.
        let queued = svc.submit(quick_request("cpu", small_gfa(6))).unwrap();
        assert_eq!(svc.cancel(queued.id).unwrap(), JobState::Cancelled);
        let status = svc.status(queued.id).unwrap();
        assert_eq!(
            status.state,
            JobState::Cancelled,
            "cancelled-while-queued reports cancelled, never failed"
        );
        assert!(status.error.is_none());
        assert_eq!(status.progress, 0.0);
        // The event log agrees: queued → cancelled, nothing else.
        let (events, terminal) = svc.events_since(queued.id, 0).unwrap();
        assert!(terminal);
        assert!(matches!(events[0].kind, EventKind::State(JobState::Queued)));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::State(JobState::Cancelled)
        ));
        let stats = svc.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.failed, 0, "a cancel is not a failure");
        svc.cancel(running.id).unwrap();
        svc.wait(running.id, Duration::from_secs(30)).unwrap();
    }

    #[test]
    fn interactive_jobs_overtake_a_bulk_backlog() {
        let svc = service(1);
        // Hold the single worker until the whole backlog is queued (the
        // blocker is cancelled below; it must never finish on its own).
        let mut blocker = quick_spec("cpu", small_gfa(90));
        blocker.config.iter_max = 200_000;
        let blocker = svc.submit_spec(blocker).unwrap();
        // Queue bulk work, then one interactive job after it.
        let mut bulk_ids = Vec::new();
        for i in 0..4 {
            let mut spec = quick_spec("cpu", small_gfa(91 + i)).priority(Priority::Bulk);
            spec.client = Some("bulk-bot".into());
            // Long enough that the race described below fits at most
            // one bulk job even with an optimized engine.
            spec.config.iter_max = 40;
            bulk_ids.push(svc.submit_spec(spec).unwrap().id);
        }
        let mut inter = quick_spec("cpu", small_gfa(99)).priority(Priority::Interactive);
        inter.client = Some("human".into());
        let inter = svc.submit_spec(inter).unwrap();
        assert_eq!(inter.priority, Priority::Interactive);
        let stats = svc.stats();
        assert_eq!(stats.queued_by_band[0], 1, "{:?}", stats.queued_by_band);
        // The blocker sits in the normal band only until the worker
        // picks it up, so 0 or 1 here.
        assert!(stats.queued_by_band[1] <= 1, "{:?}", stats.queued_by_band);
        assert_eq!(stats.queued_by_band[2], 4, "{:?}", stats.queued_by_band);
        assert!(stats.active_clients >= 2);
        // Free the worker: the interactive job must be served next and
        // finish while every bulk job still waits.
        svc.cancel(blocker.id).unwrap();
        svc.wait(inter.id, Duration::from_secs(120)).unwrap();
        // Between the interactive completion and this observation the
        // freed worker may already have raced through one (tiny) bulk
        // job on a loaded machine — but never more than one while this
        // thread is runnable.
        let unfinished = bulk_ids
            .iter()
            .filter(|&&id| !svc.status(id).unwrap().state.is_terminal())
            .count();
        assert!(
            unfinished >= 3,
            "interactive overtook the bulk backlog ({unfinished}/4 still queued)"
        );
        for id in bulk_ids {
            assert_eq!(
                svc.wait(id, Duration::from_secs(120)).unwrap().state,
                JobState::Done
            );
        }
        assert_eq!(
            svc.wait(blocker.id, Duration::from_secs(120))
                .unwrap()
                .state,
            JobState::Cancelled
        );
    }

    #[test]
    fn queue_ttl_expires_stale_jobs_instead_of_running_them() {
        let svc = service(1);
        // Hold the worker long enough for the TTL to lapse.
        let mut blocker = quick_spec("cpu", small_gfa(70));
        blocker.config.iter_max = 50_000;
        let blocker = svc.submit_spec(blocker).unwrap();
        let mut stale = quick_spec("cpu", small_gfa(71));
        stale.queue_ttl = Some(Duration::from_millis(50));
        let stale = svc.submit_spec(stale).unwrap();
        std::thread::sleep(Duration::from_millis(120));
        // Expiry is visible *while the worker is still busy*: the TTL
        // holds even if the scheduler never selects the job.
        let status = svc.status(stale.id).unwrap();
        assert_eq!(status.state, JobState::Failed, "lazy expiry on status");
        svc.cancel(blocker.id).unwrap();
        let status = svc.wait(stale.id, Duration::from_secs(60)).unwrap();
        assert_eq!(status.state, JobState::Failed);
        let err = status.error.expect("expiry carries an error message");
        assert!(err.contains("expired in queue"), "{err}");
        let stats = svc.stats();
        assert_eq!(stats.expired, 1);
        assert!(stats.failed >= 1);
        // A TTL that has not lapsed runs normally.
        let mut fresh = quick_spec("cpu", small_gfa(72));
        fresh.queue_ttl = Some(Duration::from_secs(3600));
        let fresh = svc.submit_spec(fresh).unwrap();
        assert_eq!(
            svc.wait(fresh.id, Duration::from_secs(60)).unwrap().state,
            JobState::Done
        );
    }

    #[test]
    fn event_logs_trace_the_full_lifecycle() {
        let svc = service(1);
        let mut spec = quick_spec("cpu", small_gfa(80));
        spec.config.iter_max = 600; // enough iterations for progress events
        let t = svc.submit_spec(spec).unwrap();
        svc.wait(t.id, Duration::from_secs(120)).unwrap();
        let (events, terminal) = svc.events_since(t.id, 0).unwrap();
        assert!(terminal);
        // Sequence numbers are dense and ordered.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        assert!(matches!(events[0].kind, EventKind::State(JobState::Queued)));
        assert!(matches!(
            events[1].kind,
            EventKind::State(JobState::Running)
        ));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::State(JobState::Done)
        ));
        let progress: Vec<f64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Progress(p) => Some(p),
                _ => None,
            })
            .collect();
        assert!(
            progress.len() >= 3,
            "multi-iteration run logs several progress events, got {progress:?}"
        );
        assert!(
            progress.windows(2).all(|w| w[0] < w[1]),
            "progress is monotonic: {progress:?}"
        );
        assert_eq!(*progress.last().unwrap(), 1.0);
        // A resume cursor sees only the tail.
        let (tail, _) = svc.events_since(t.id, events.len() as u64 - 1).unwrap();
        assert_eq!(tail.len(), 1);
        // wait_events returns immediately on a terminal log.
        let (all, terminal) = svc.wait_events(t.id, 0, Duration::from_secs(5)).unwrap();
        assert_eq!(all.len(), events.len());
        assert!(terminal);
        assert!(svc.events_since(9999, 0).is_none(), "unknown job is None");
    }

    #[test]
    fn cached_jobs_are_born_done_in_their_event_log() {
        let svc = service(1);
        let gfa = small_gfa(81);
        let first = svc.submit(quick_request("cpu", gfa.clone())).unwrap();
        svc.wait(first.id, Duration::from_secs(60)).unwrap();
        let second = svc.submit(quick_request("cpu", gfa)).unwrap();
        assert!(second.cached);
        let (events, terminal) = svc.events_since(second.id, 0).unwrap();
        assert!(terminal);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].kind, EventKind::State(JobState::Done)));
    }

    #[test]
    fn preload_dir_interns_gfa_and_lean_files() {
        let dir = std::env::temp_dir().join(format!("pgl_preload_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // One .gfa, one .lean (spill-named), one junk .lean, one ignored.
        let gfa = small_gfa(85);
        std::fs::write(dir.join("a.gfa"), &gfa).unwrap();
        let lean_src = small_gfa(86);
        let lean_id = content_hash(lean_src.as_bytes());
        let lean = parse_lean(&lean_src).unwrap();
        assert!(write_graph_spill(
            &lean,
            &dir.join(format!("{}.lean", lean_id.hex()))
        ));
        std::fs::write(dir.join("junk.lean"), b"not a lean file").unwrap();
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();

        let svc = service(1);
        let report = svc.preload_dir(&dir).unwrap();
        assert_eq!(report.loaded, 2, "{report:?}");
        assert_eq!(report.failed, 1, "junk .lean counted");
        assert_eq!(report.dedup, 0);
        assert_eq!(svc.stats().graphs.preloaded, 2);
        // Both graphs answer by-reference submissions with no parse
        // beyond the .gfa's own.
        for id in [content_hash(gfa.as_bytes()), lean_id] {
            let mut req = JobRequest::by_ref("cpu", id);
            req.config.iter_max = 3;
            req.config.threads = 1;
            let t = svc.submit(req).unwrap();
            assert_eq!(
                svc.wait(t.id, Duration::from_secs(60)).unwrap().state,
                JobState::Done
            );
        }
        assert_eq!(svc.stats().graphs.parses, 1, "only the .gfa parsed");
        // Preloading again is pure dedup.
        let again = svc.preload_dir(&dir).unwrap();
        assert_eq!(again.loaded, 0);
        assert_eq!(again.dedup, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reflect_the_workload() {
        let svc = service(2);
        let gfa = small_gfa(7);
        let a = svc.submit(quick_request("cpu", gfa.clone())).unwrap();
        svc.wait(a.id, Duration::from_secs(60)).unwrap();
        let b = svc.submit(quick_request("cpu", gfa)).unwrap();
        assert!(b.cached);
        let s = svc.stats();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.done, 2);
        assert_eq!(s.cache.hits, 1);
        assert_eq!(s.cache_entries, 1);
        assert!(s.cache_bytes > 0);
        assert_eq!(s.graphs.parses, 1);
        assert_eq!(s.graph_entries, 1);
        assert!(s.graph_bytes > 0);
        assert_eq!(s.workers, 2);
        assert_eq!(s.queued_by_band, [0, 0, 0]);
        assert_eq!(s.expired, 0);
        assert_eq!(svc.engine_names(), vec!["cpu", "batch", "gpu", "gpu-a100"]);
    }

    #[test]
    fn fan_out_many_graphs_across_workers() {
        let svc = service(4);
        let tickets: Vec<_> = (0..6)
            .map(|i| svc.submit(quick_request("cpu", small_gfa(10 + i))).unwrap())
            .collect();
        for t in tickets {
            let s = svc.wait(t.id, Duration::from_secs(120)).expect("completes");
            assert_eq!(s.state, JobState::Done);
        }
        assert_eq!(svc.stats().done, 6);
    }
}
