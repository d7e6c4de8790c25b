//! The coordinator tier: one process that speaks the existing `/v1`
//! surface and fans jobs out over a fleet of ordinary `pgl serve`
//! workers.
//!
//! ```text
//!   clients ──► coordinator ──► rendezvous ring ──► worker A (pgl serve --join)
//!      /v1         │   │            (ContentHash)    worker B (pgl serve --join)
//!                  │   └── graph vault: raw GFA, pushed to a worker
//!                  │       on its first by-reference miss
//!                  └────── FairScheduler: priority bands + per-client
//!                          DRR + per-graph in-flight quotas, fleet-wide
//! ```
//!
//! Design decisions, in one place:
//!
//! * **The typed [`JobSpec`] is the wire format.** Forwarding a job is
//!   `POST /v1/jobs?{spec.to_query()}` — the exact surface a human
//!   client uses, so workers need zero cluster-specific code paths for
//!   execution. Inline-GFA submissions are interned into the
//!   coordinator's vault and converted to by-reference specs, so the
//!   graph body crosses the wire at most once per worker.
//! * **Routing is rendezvous hashing on the graph's `ContentHash`**
//!   ([`super::ring::HashRing`]): every job for a graph lands on the
//!   worker whose parsed-graph and layout caches already hold it, and
//!   membership changes remap only ~1/N of graphs.
//! * **Workers own execution, the coordinator owns placement.** A
//!   worker that misses a referenced graph answers `404`; the
//!   coordinator pushes the vaulted GFA (`POST /v1/graphs`) and
//!   resubmits. Both hash the same bytes, so the ids agree by
//!   construction.
//! * **Death is drain-and-requeue, at-least-once.** Workers heartbeat;
//!   after [`CoordinatorConfig::dead_after`] missed intervals (or a
//!   connection error) a worker is marked dead and its forwarded jobs
//!   are pushed back into the queue, routing to the next worker in the
//!   ring's preference order. A job that was mid-run on a partitioned
//!   worker may therefore execute twice — layouts are deterministic
//!   per spec, so duplicated work is wasted, not wrong. A job is
//!   failed only after [`CoordinatorConfig::max_attempts`] forwards.
//! * **Proxies rewrite only the job id.** Status, trace, result, and
//!   event-stream bytes come from the owning worker with the remote id
//!   swapped for the coordinator's. A proxied event stream tracks the
//!   worker's per-line `seq` through a [`StreamCursor`]: re-attaching
//!   to the *same* run after a transient drop resumes with
//!   `?from=<last_seq+1>` (a dedupe guard drops anything the worker
//!   replays anyway), while a job requeued onto a *new* worker is a new
//!   run and deliberately replays from sequence 0.
//! * **Accepted work survives restarts when `--journal-dir` is set.**
//!   Submits and graph interns are fsync'd into a write-ahead
//!   [`Journal`] before they are acknowledged; GFA bodies spill to a
//!   `vault/` tier on disk (bounded by
//!   [`CoordinatorConfig::vault_max_bytes`]) instead of living in
//!   memory. At boot the journal replays: queued jobs re-enter the
//!   scheduler, formerly in-flight jobs are resolved adopt-or-requeue
//!   by probing the recorded owner, and the bumped journal epoch is
//!   advertised in heartbeat replies so workers observe the restart.

use super::client::{self, Backoff};
use super::journal::{self, GraphRecord, JobRecordState, Journal};
use super::ring::HashRing;
use crate::http::{
    read_request_body, read_request_head, write_chunk, write_response, HttpConfig, Request,
    Response,
};
use crate::job::{GraphSpec, JobId};
use crate::obs;
use crate::sched::{job_cost, FairScheduler};
use crate::spec::{parse_job_spec, JobSpec, Priority, KNOWN_PARAMS};
use pangraph::parse_gfa;
use pangraph::store::{content_hash, evict_dir_to_cap, ContentHash};
use std::collections::HashMap;
use std::io::BufReader;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for a coordinator.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker heartbeat interval, advertised in the join/heartbeat
    /// response so the fleet shares one clock.
    pub heartbeat: Duration,
    /// Missed heartbeat intervals before a worker is declared dead and
    /// its in-flight jobs are requeued.
    pub dead_after: u32,
    /// Forward attempts per job before it is failed outright.
    pub max_attempts: u32,
    /// Fleet-wide cap on concurrently forwarded jobs per graph
    /// (`0` = unlimited): one hot graph cannot monopolize its owning
    /// worker while other graphs' jobs wait.
    pub graph_quota: usize,
    /// Concurrent client connections served; excess is shed with 503.
    pub max_conns: usize,
    /// Directory for the write-ahead job journal and the on-disk graph
    /// vault. `None` (the default) keeps all state in memory — exactly
    /// the pre-journal behavior, nothing survives a restart.
    pub journal_dir: Option<PathBuf>,
    /// Byte cap on the on-disk graph vault (`0` = unbounded). Only
    /// meaningful with `journal_dir`; oldest spills are evicted first
    /// and evicted graphs must be re-uploaded before by-reference use.
    pub vault_max_bytes: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            heartbeat: Duration::from_secs(2),
            dead_after: 3,
            max_attempts: 5,
            graph_quota: 0,
            max_conns: 64,
            journal_dir: None,
            vault_max_bytes: 0,
        }
    }
}

/// Job states a worker reports that end the coordinator's involvement.
const TERMINAL_STATES: [&str; 4] = ["done", "failed", "cancelled", "expired"];

/// How long parked loops (dispatcher idle, monitor tick ceiling, event
/// streams between state checks) wait before re-checking shared state
/// and the stop flag.
const PARK: Duration = Duration::from_millis(250);

/// Idle gap after which a proxied event stream emits its own heartbeat
/// line (only reachable while the job is still queued coordinator-side;
/// once forwarded, the worker's heartbeats flow through instead).
const EVENT_HEARTBEAT: Duration = Duration::from_secs(15);

struct WorkerEntry {
    last_beat: Instant,
    alive: bool,
}

/// A graph interned at the coordinator: the raw GFA (what gets pushed
/// to workers) plus the parse-derived counts that validate uploads and
/// price jobs for the scheduler. With a journal the GFA body lives in
/// the on-disk vault instead (`gfa: None`) and is reloaded on demand,
/// so coordinator memory stays bounded and the vault survives restart.
struct GraphEntry {
    gfa: Option<Arc<String>>,
    nodes: usize,
    paths: usize,
    steps: usize,
    bytes: u64,
}

#[derive(Clone)]
enum CoordJobState {
    /// Waiting in the coordinator's scheduler.
    Queued,
    /// Accepted by `worker` under its local id `remote`.
    Forwarded { worker: String, remote: JobId },
    /// Finished. `body` is the final status JSON (already rewritten to
    /// the coordinator's id); `worker`/`remote` are kept when a worker
    /// ran the job, so `/result` and `/trace` can still proxy.
    Terminal {
        worker: Option<String>,
        remote: Option<JobId>,
        body: String,
    },
}

struct CoordJob {
    spec: JobSpec,
    graph: ContentHash,
    client: String,
    priority: Priority,
    cost: u64,
    attempts: u32,
    cancel_requested: bool,
    submitted: Instant,
    state: CoordJobState,
}

#[derive(Default)]
struct CoordCounters {
    submitted: AtomicU64,
    forwarded: AtomicU64,
    requeues: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    joins: AtomicU64,
    deaths: AtomicU64,
    graph_pushes: AtomicU64,
    vault_spills: AtomicU64,
    vault_evictions: AtomicU64,
    /// Non-terminal jobs replayed from the journal at boot.
    recovered: AtomicU64,
}

struct CoordShared {
    cfg: CoordinatorConfig,
    started: Instant,
    stop: AtomicBool,
    workers: Mutex<HashMap<String, WorkerEntry>>,
    vault: Mutex<HashMap<ContentHash, GraphEntry>>,
    queue: Mutex<FairScheduler>,
    queue_cv: Condvar,
    jobs: Mutex<HashMap<JobId, CoordJob>>,
    jobs_cv: Condvar,
    next_id: AtomicU64,
    counters: CoordCounters,
    /// The write-ahead journal; `None` runs the pre-journal in-memory
    /// mode. Locked after (never while holding) `vault`/`jobs`.
    journal: Option<Mutex<Journal>>,
    /// `<journal-dir>/vault`, where GFA bodies spill.
    vault_dir: Option<PathBuf>,
    /// Journal epoch for this incarnation (0 with no journal); constant
    /// after boot and advertised in heartbeat replies.
    epoch: u64,
    /// Jobs found in the journal at boot (terminal ones included).
    replayed: u64,
}

/// A bound-but-not-yet-serving coordinator.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<CoordShared>,
}

impl Coordinator {
    /// Bind to `addr` (port 0 for ephemeral). With
    /// [`CoordinatorConfig::journal_dir`] set, this opens (or creates)
    /// the write-ahead journal, replays any state a prior incarnation
    /// logged, and re-enters recovered queued jobs into the scheduler —
    /// formerly in-flight jobs are resolved by the monitor once serving
    /// starts (adopt if the recorded owner still runs them, requeue
    /// otherwise).
    pub fn bind(addr: &str, cfg: CoordinatorConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let mut queue = FairScheduler::with_graph_quota(cfg.graph_quota);
        let mut vault = HashMap::new();
        let mut jobs = HashMap::new();
        let mut journal_cell = None;
        let mut vault_dir = None;
        let mut epoch = 0u64;
        let mut replayed = 0u64;
        let mut recovered = 0u64;
        let mut next_id = 0u64;
        if let Some(dir) = &cfg.journal_dir {
            let journal = Journal::open(dir)?;
            let vdir = dir.join("vault");
            std::fs::create_dir_all(&vdir)?;
            epoch = journal.epoch();
            replayed = journal.replayed() as u64;
            for g in journal.live_graphs() {
                vault.insert(
                    g.id,
                    GraphEntry {
                        gfa: None,
                        nodes: g.nodes,
                        paths: g.paths,
                        steps: g.steps,
                        bytes: g.bytes,
                    },
                );
            }
            for rec in journal.live_jobs() {
                next_id = next_id.max(rec.id);
                let spec = match JobSpec::from_query(&rec.query) {
                    Ok(spec) => spec,
                    Err(e) => {
                        obs::warn(
                            "cluster",
                            "skipping unreplayable journaled job",
                            &[("job", rec.id.to_string()), ("error", e.to_string())],
                        );
                        continue;
                    }
                };
                let GraphSpec::Stored(graph) = spec.graph else {
                    continue; // journaled jobs are by-reference by construction
                };
                let client_key = spec.client.clone().unwrap_or_else(|| "recovered".into());
                let priority = spec.priority;
                let cost = vault
                    .get(&graph)
                    .map_or_else(|| job_cost(0), |g: &GraphEntry| job_cost(g.steps as u64));
                let state = match &rec.state {
                    JobRecordState::Queued => {
                        queue.push_keyed(priority, &client_key, rec.id, cost, graph);
                        recovered += 1;
                        CoordJobState::Queued
                    }
                    JobRecordState::Forwarded { worker, remote } => {
                        recovered += 1;
                        CoordJobState::Forwarded {
                            worker: worker.clone(),
                            remote: *remote,
                        }
                    }
                    JobRecordState::Terminal {
                        state,
                        worker,
                        remote,
                    } => CoordJobState::Terminal {
                        worker: worker.clone(),
                        remote: *remote,
                        body: format!(
                            "{{\"job\":{},\"state\":\"{state}\",\"progress\":0.000,\
                             \"engine\":{},\"priority\":\"{}\",\"client\":{},\
                             \"cached\":false,\"graph\":{},\"wall_ms\":0,\
                             \"recovered\":true}}",
                            rec.id,
                            json_str(&spec.engine),
                            priority.as_str(),
                            json_str(&client_key),
                            json_str(&graph.hex()),
                        ),
                    },
                };
                jobs.insert(
                    rec.id,
                    CoordJob {
                        spec,
                        graph,
                        client: client_key,
                        priority,
                        cost,
                        attempts: 0,
                        cancel_requested: false,
                        submitted: Instant::now(),
                        state,
                    },
                );
            }
            if replayed > 0 {
                obs::info(
                    "cluster",
                    "journal replayed",
                    &[
                        ("epoch", epoch.to_string()),
                        ("jobs", replayed.to_string()),
                        ("recovered", recovered.to_string()),
                        ("graphs", vault.len().to_string()),
                    ],
                );
            }
            journal_cell = Some(Mutex::new(journal));
            vault_dir = Some(vdir);
        }
        let counters = CoordCounters::default();
        counters.recovered.store(recovered, Ordering::Relaxed);
        let shared = Arc::new(CoordShared {
            queue: Mutex::new(queue),
            cfg,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            workers: Mutex::new(HashMap::new()),
            vault: Mutex::new(vault),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(jobs),
            jobs_cv: Condvar::new(),
            next_id: AtomicU64::new(next_id),
            counters,
            journal: journal_cell,
            vault_dir,
            epoch,
            replayed,
        });
        Ok(Self { listener, shared })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Serve until [`CoordinatorHandle::stop`] (or forever): accept
    /// loop here, dispatcher + death-sweep/poll monitor on background
    /// threads.
    pub fn serve(self) {
        let Self { listener, shared } = self;
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pgl-coord-dispatch".into())
                .spawn(move || dispatcher(&shared))
                .expect("spawn dispatcher")
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pgl-coord-monitor".into())
                .spawn(move || monitor(&shared))
                .expect("spawn monitor")
        };
        let active = Arc::new(AtomicUsize::new(0));
        for stream in listener.incoming() {
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if active.load(Ordering::Relaxed) >= shared.cfg.max_conns {
                let mut stream = stream;
                let mut resp = Response::error(503, "coordinator overloaded; retry later");
                resp.retry_after = Some(1);
                let _ = write_response(&mut stream, &resp, false, &HttpConfig::default());
                continue;
            }
            active.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            let slot = Arc::clone(&active);
            let spawned = std::thread::Builder::new()
                .name("pgl-coord-conn".into())
                .spawn(move || {
                    handle_conn(stream, &shared);
                    slot.fetch_sub(1, Ordering::Relaxed);
                });
            if spawned.is_err() {
                active.fetch_sub(1, Ordering::Relaxed);
            }
        }
        shared.queue_cv.notify_all();
        shared.jobs_cv.notify_all();
        let _ = dispatcher.join();
        let _ = monitor.join();
    }

    /// Serve on a background thread; the returned handle stops it.
    pub fn spawn(self) -> CoordinatorHandle {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("pgl-coord-accept".into())
            .spawn(move || self.serve())
            .expect("spawn coordinator accept loop");
        CoordinatorHandle {
            addr,
            shared,
            handle: Some(handle),
        }
    }
}

/// Controls a background [`Coordinator`].
pub struct CoordinatorHandle {
    addr: SocketAddr,
    shared: Arc<CoordShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CoordinatorHandle {
    /// Address the coordinator is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and join the background threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.queue_cv.notify_all();
        self.shared.jobs_cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CoordinatorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ─── dispatcher: queue → ring owner ─────────────────────────────────

fn dispatcher(shared: &Arc<CoordShared>) {
    while !shared.stop.load(Ordering::Relaxed) {
        // Don't pop (and start burning attempts) while the fleet is
        // empty: jobs queued during a total outage just wait.
        if !has_alive_worker(shared) {
            std::thread::sleep(PARK);
            continue;
        }
        let Some(id) = pop_next(shared) else { continue };
        dispatch_one(shared, id);
    }
}

fn has_alive_worker(shared: &CoordShared) -> bool {
    shared.workers.lock().unwrap().values().any(|w| w.alive)
}

/// Pop the next runnable job, waiting briefly when the queue is empty
/// (or fully quota-blocked). `None` means "nothing yet, re-check".
fn pop_next(shared: &CoordShared) -> Option<JobId> {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(id) = queue.pop() {
            return Some(id);
        }
        let (guard, timeout) = shared.queue_cv.wait_timeout(queue, PARK).unwrap();
        queue = guard;
        if timeout.timed_out() {
            return None;
        }
    }
}

/// The ring over currently-alive workers.
fn alive_ring(shared: &CoordShared) -> HashRing {
    HashRing::from_workers(
        shared
            .workers
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, w)| w.alive)
            .map(|(addr, _)| addr.clone()),
    )
}

enum Forward {
    Accepted { remote: JobId },
    Down(String),
    Rejected(String),
}

fn dispatch_one(shared: &Arc<CoordShared>, id: JobId) {
    // Snapshot under the lock, forward outside it.
    let (query, graph, cancel) = {
        let jobs = shared.jobs.lock().unwrap();
        match jobs.get(&id) {
            Some(job) if matches!(job.state, CoordJobState::Queued) => {
                (job.spec.to_query(), job.graph, job.cancel_requested)
            }
            // Gone or already handled: just free the quota slot.
            _ => {
                release_quota(shared, id);
                return;
            }
        }
    };
    if cancel {
        finish_local(shared, id, "cancelled", Some("cancelled while queued"));
        return;
    }
    let owners: Vec<String> = alive_ring(shared)
        .owners(graph)
        .into_iter()
        .map(str::to_string)
        .collect();
    if owners.is_empty() {
        requeue(shared, id, false, "no alive workers");
        std::thread::sleep(PARK);
        return;
    }
    // Rendezvous preference order doubles as the failover order: if the
    // owner is unreachable, the next-ranked worker is exactly where the
    // graph routes once the death sweep catches up.
    for worker in &owners {
        match forward_to(shared, worker, &query, graph) {
            Forward::Accepted { remote } => {
                {
                    let mut jobs = shared.jobs.lock().unwrap();
                    if let Some(job) = jobs.get_mut(&id) {
                        job.state = CoordJobState::Forwarded {
                            worker: worker.clone(),
                            remote,
                        };
                    }
                }
                journal_forwarded(shared, id, worker, remote);
                shared.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                shared.jobs_cv.notify_all();
                return;
            }
            Forward::Down(err) => mark_dead(shared, worker, &err),
            Forward::Rejected(msg) => {
                finish_local(shared, id, "failed", Some(&msg));
                return;
            }
        }
    }
    requeue(shared, id, true, "every candidate worker unreachable");
}

/// Submit one job to one worker; on a by-reference miss, push the
/// vaulted GFA and retry once. Both sides hash the same bytes, so the
/// pushed graph's id matches the spec's reference by construction.
///
/// Requests go through [`client::request_retry`]: transient faults
/// (refused connections, severed responses, injected 500s) are retried
/// with jittered exponential backoff before the worker is declared
/// down. A duplicate forward caused by a severed 202 is benign — the
/// monitor adopts whichever accepted run it finds, and layouts are
/// deterministic per spec (at-least-once, never lost).
fn forward_to(shared: &CoordShared, worker: &str, query: &str, graph: ContentHash) -> Forward {
    let backoff = Backoff::default();
    let path = format!("/v1/jobs?{query}");
    for pushed in [false, true] {
        let (status, body) = match client::request_retry(worker, "POST", &path, b"", &backoff) {
            Ok(answer) => answer,
            Err(e) => return Forward::Down(e),
        };
        let text = String::from_utf8_lossy(&body).into_owned();
        match status {
            202 => {
                return match client::json_u64(&text, "job") {
                    Some(remote) => Forward::Accepted { remote },
                    None => Forward::Rejected(format!("unparseable ticket from {worker}: {text}")),
                }
            }
            404 if !pushed => {
                // First miss on this worker: push the graph body.
                let Some(gfa) = vault_gfa(shared, graph) else {
                    return Forward::Rejected(format!("graph {} no longer interned", graph.hex()));
                };
                match client::request_retry(worker, "POST", "/v1/graphs", gfa.as_bytes(), &backoff)
                {
                    Err(e) => return Forward::Down(e),
                    Ok((200 | 201, _)) => {
                        shared.counters.graph_pushes.fetch_add(1, Ordering::Relaxed);
                        obs::info(
                            "cluster",
                            "pushed graph to worker",
                            &[("worker", worker.to_string()), ("graph", graph.hex())],
                        );
                    }
                    Ok((status, body)) => {
                        return Forward::Rejected(format!(
                            "graph push to {worker} answered {status}: {}",
                            String::from_utf8_lossy(&body).trim()
                        ))
                    }
                }
            }
            _ => return Forward::Rejected(format!("{worker} answered {status}: {}", text.trim())),
        }
    }
    unreachable!("second pass either accepts, rejects, or reports the worker down")
}

/// The GFA bytes for an interned graph: straight from memory in
/// in-memory mode, reloaded (hash-verified) from the on-disk vault in
/// journal mode. `None` if the graph was deleted, evicted, or its
/// spill is corrupt.
fn vault_gfa(shared: &CoordShared, graph: ContentHash) -> Option<Arc<String>> {
    let resident = {
        let vault = shared.vault.lock().unwrap();
        let entry = vault.get(&graph)?;
        entry.gfa.clone()
    };
    match resident {
        Some(gfa) => Some(gfa),
        None => journal::read_vault_gfa(shared.vault_dir.as_ref()?, graph).map(Arc::new),
    }
}

/// Free the scheduler's per-graph quota slot held by a popped job.
fn release_quota(shared: &CoordShared, id: JobId) {
    if shared.queue.lock().unwrap().release(id) {
        shared.queue_cv.notify_all();
    }
}

// Journal write hooks: no-ops without `--journal-dir`. Callers invoke
// these after releasing the `jobs`/`vault` locks (lock order: state
// locks strictly before the journal lock).

/// Journal a job accept — fsync'd, so the 202 the caller is about to
/// send is a durable promise.
fn journal_accept(shared: &CoordShared, id: JobId, query: &str) {
    if let Some(j) = &shared.journal {
        j.lock().unwrap().accept(id, query);
    }
}

fn journal_forwarded(shared: &CoordShared, id: JobId, worker: &str, remote: JobId) {
    if let Some(j) = &shared.journal {
        j.lock().unwrap().forwarded(id, worker, remote);
    }
}

fn journal_terminal(
    shared: &CoordShared,
    id: JobId,
    state: &str,
    worker: Option<&str>,
    remote: Option<JobId>,
) {
    if let Some(j) = &shared.journal {
        j.lock().unwrap().terminal(id, state, worker, remote);
    }
}

/// Put a job back in the queue (after a worker death or forward
/// failure); `count` burns one of its attempts. Exhausted jobs fail
/// loudly instead of looping forever.
fn requeue(shared: &Arc<CoordShared>, id: JobId, count: bool, reason: &str) {
    let exhausted = {
        let mut jobs = shared.jobs.lock().unwrap();
        let Some(job) = jobs.get_mut(&id) else {
            release_quota(shared, id);
            return;
        };
        if count {
            job.attempts += 1;
        }
        if job.attempts >= shared.cfg.max_attempts {
            true
        } else {
            job.state = CoordJobState::Queued;
            let (priority, client, cost, graph) =
                (job.priority, job.client.clone(), job.cost, job.graph);
            let mut queue = shared.queue.lock().unwrap();
            queue.release(id);
            queue.push_keyed(priority, &client, id, cost, graph);
            false
        }
    };
    if exhausted {
        finish_local(
            shared,
            id,
            "failed",
            Some(&format!(
                "gave up after {} forward attempts ({reason})",
                shared.cfg.max_attempts
            )),
        );
        return;
    }
    shared.counters.requeues.fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_all();
    shared.jobs_cv.notify_all();
    obs::warn(
        "cluster",
        "requeued job",
        &[("job", id.to_string()), ("reason", reason.to_string())],
    );
}

/// Terminate a job coordinator-side (never ran, or cancelled while
/// queued) with a synthesized status body.
fn finish_local(shared: &Arc<CoordShared>, id: JobId, state: &str, error: Option<&str>) {
    {
        let mut jobs = shared.jobs.lock().unwrap();
        let Some(job) = jobs.get_mut(&id) else { return };
        if matches!(job.state, CoordJobState::Terminal { .. }) {
            return;
        }
        let body = format!(
            "{{\"job\":{id},\"state\":\"{state}\",\"progress\":0.000,\"engine\":{},\
             \"priority\":\"{}\",\"client\":{},\"cached\":false,\"graph\":{},\
             \"wall_ms\":{}{}}}",
            json_str(&job.spec.engine),
            job.priority.as_str(),
            json_str(&job.client),
            json_str(&job.graph.hex()),
            job.submitted.elapsed().as_millis(),
            match error {
                Some(e) => format!(",\"error\":{}", json_str(e)),
                None => String::new(),
            }
        );
        job.state = CoordJobState::Terminal {
            worker: None,
            remote: None,
            body,
        };
    }
    journal_terminal(shared, id, state, None, None);
    let counter = match state {
        "cancelled" => &shared.counters.cancelled,
        _ => &shared.counters.failed,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    release_quota(shared, id);
    shared.jobs_cv.notify_all();
}

// ─── monitor: heartbeats, death sweep, terminal-state collection ────

fn monitor(shared: &Arc<CoordShared>) {
    let tick = (shared.cfg.heartbeat / 2).clamp(Duration::from_millis(50), PARK);
    while !shared.stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        death_sweep(shared);
        poll_forwarded(shared);
    }
}

fn death_sweep(shared: &Arc<CoordShared>) {
    let deadline = shared.cfg.heartbeat * shared.cfg.dead_after;
    let newly_dead: Vec<String> = {
        let mut workers = shared.workers.lock().unwrap();
        workers
            .iter_mut()
            .filter(|(_, w)| w.alive && w.last_beat.elapsed() > deadline)
            .map(|(addr, w)| {
                w.alive = false;
                addr.clone()
            })
            .collect()
    };
    for addr in newly_dead {
        shared.counters.deaths.fetch_add(1, Ordering::Relaxed);
        obs::warn(
            "cluster",
            "worker died (missed heartbeats)",
            &[("worker", addr.clone())],
        );
        drain_worker(shared, &addr);
    }
}

/// Mark a worker dead after a connection failure (faster than waiting
/// out the heartbeat deadline) and requeue everything it was running.
fn mark_dead(shared: &Arc<CoordShared>, addr: &str, err: &str) {
    let was_alive = {
        let mut workers = shared.workers.lock().unwrap();
        match workers.get_mut(addr) {
            Some(w) if w.alive => {
                w.alive = false;
                true
            }
            Some(_) => false,
            // A worker this incarnation has never heard from — e.g. the
            // recorded owner of a journal-replayed job after a restart.
            // Register it dead and drain, so recovered in-flight jobs
            // whose owner is gone get requeued instead of stranded.
            None => {
                workers.insert(
                    addr.to_string(),
                    WorkerEntry {
                        last_beat: Instant::now(),
                        alive: false,
                    },
                );
                true
            }
        }
    };
    if was_alive {
        shared.counters.deaths.fetch_add(1, Ordering::Relaxed);
        obs::warn(
            "cluster",
            "worker unreachable",
            &[("worker", addr.to_string()), ("error", err.to_string())],
        );
        drain_worker(shared, addr);
    }
}

/// Requeue every job forwarded to a (now dead) worker.
fn drain_worker(shared: &Arc<CoordShared>, addr: &str) {
    let stranded: Vec<JobId> = {
        let jobs = shared.jobs.lock().unwrap();
        jobs.iter()
            .filter(|(_, j)| matches!(&j.state, CoordJobState::Forwarded { worker, .. } if worker == addr))
            .map(|(id, _)| *id)
            .collect()
    };
    for id in stranded {
        requeue(shared, id, true, &format!("worker {addr} died"));
    }
}

/// Poll every forwarded job's status on its worker; collect terminal
/// snapshots, requeue jobs a restarted worker no longer knows.
fn poll_forwarded(shared: &Arc<CoordShared>) {
    let targets: Vec<(JobId, String, JobId)> = {
        let jobs = shared.jobs.lock().unwrap();
        jobs.iter()
            .filter_map(|(id, j)| match &j.state {
                CoordJobState::Forwarded { worker, remote } => Some((*id, worker.clone(), *remote)),
                _ => None,
            })
            .collect()
    };
    for (id, worker, remote) in targets {
        match client::request(&worker, "GET", &format!("/v1/jobs/{remote}"), b"") {
            Err(e) => mark_dead(shared, &worker, &e),
            Ok((200, body)) => {
                let text = String::from_utf8_lossy(&body);
                let Some(state) = client::json_field_str(&text, "state") else {
                    continue;
                };
                if !TERMINAL_STATES.contains(&state.as_str()) {
                    continue;
                }
                let rewritten = rewrite_job_id(text.trim(), id);
                {
                    let mut jobs = shared.jobs.lock().unwrap();
                    match jobs.get_mut(&id) {
                        // Guard against a racing requeue: only collect if
                        // the job is still forwarded to this worker.
                        Some(job)
                            if matches!(&job.state, CoordJobState::Forwarded { worker: w, remote: r }
                                if *w == worker && *r == remote) =>
                        {
                            job.state = CoordJobState::Terminal {
                                worker: Some(worker.clone()),
                                remote: Some(remote),
                                body: rewritten,
                            };
                        }
                        _ => continue,
                    }
                }
                journal_terminal(shared, id, &state, Some(&worker), Some(remote));
                let counter = match state.as_str() {
                    "done" => &shared.counters.completed,
                    "cancelled" => &shared.counters.cancelled,
                    _ => &shared.counters.failed,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                release_quota(shared, id);
                shared.jobs_cv.notify_all();
            }
            // The worker restarted and lost the job (its id space reset):
            // run it again somewhere.
            Ok((404, _)) => requeue(shared, id, true, "worker lost the job"),
            Ok(_) => {}
        }
    }
}

// ─── HTTP front end ─────────────────────────────────────────────────

enum CoordRouted {
    Plain(Response),
    Events { id: JobId },
}

fn handle_conn(stream: TcpStream, shared: &Arc<CoordShared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(60)));
    // Responses and stream chunks each go out in one write, so Nagle
    // has nothing to coalesce and would only delay them.
    let _ = stream.set_nodelay(true);
    let peer = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut reader = BufReader::new(stream);
    // One request per connection: every response closes. The CLI client
    // and curl both speak Connection: close, and control-plane traffic
    // is light enough that handshake reuse buys nothing here.
    let head = match read_request_head(&mut reader) {
        Ok(Some(head)) => head,
        Ok(None) => return,
        Err(msg) => {
            respond(reader.get_mut(), &Response::error(400, &msg));
            return;
        }
    };
    let body = match read_request_body(&mut reader, head.content_length) {
        Ok(body) => body,
        Err(msg) => {
            respond(reader.get_mut(), &Response::error(400, &msg));
            return;
        }
    };
    let mut req = Request {
        method: head.method,
        path: head.path,
        query: head.query,
        body,
        keep_alive: false,
        if_none_match: head.if_none_match,
    };
    match route_coord(&mut req, shared, &peer) {
        CoordRouted::Plain(response) => respond(reader.get_mut(), &response),
        CoordRouted::Events { id } => {
            let _ = stream_proxy(reader.get_mut(), shared, id);
        }
    }
}

fn respond(stream: &mut TcpStream, response: &Response) {
    let _ = write_response(stream, response, false, &HttpConfig::default());
}

fn route_coord(req: &mut Request, shared: &Arc<CoordShared>, peer: &str) -> CoordRouted {
    let path = req.path.clone();
    let all: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let (v1, segments) = match all.as_slice() {
        ["v1", rest @ ..] => (true, rest),
        rest => (false, rest),
    };
    let plain = CoordRouted::Plain;
    // Mirror the worker front end's /v1 strictness: unknown query
    // parameters fail loudly.
    if v1 {
        let allowed: &[&str] = match (req.method.as_str(), segments) {
            ("POST", ["layout"]) | ("POST", ["jobs"]) => &KNOWN_PARAMS[..],
            ("POST", ["cluster", _]) => &["addr"],
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
        ("POST", ["cluster", "join"]) => plain(register(shared, req.param("addr"), true)),
        ("POST", ["cluster", "heartbeat"]) => plain(register(shared, req.param("addr"), false)),
        ("POST", ["graphs"]) => plain(intern_graph(req, shared)),
        ("GET", ["graphs"]) => plain(list_graphs(shared)),
        ("DELETE", ["graphs", id]) => plain(match ContentHash::from_hex(id) {
            Some(id) => delete_graph(shared, id),
            None => Response::error(400, "graph id must be 32 hex digits"),
        }),
        ("POST", ["layout"]) | ("POST", ["jobs"]) => plain(submit(req, shared, peer)),
        ("GET", ["jobs", id, "events"]) => match id.parse::<JobId>() {
            Ok(id) => {
                if shared.jobs.lock().unwrap().contains_key(&id) {
                    CoordRouted::Events { id }
                } else {
                    plain(Response::error(404, &format!("no such job {id}")))
                }
            }
            Err(_) => plain(Response::error(400, "job id must be a number")),
        },
        ("GET", ["jobs", id, "trace"]) => plain(with_job_id(id, |id| trace_proxy(shared, id))),
        ("GET", ["jobs", id]) => plain(with_job_id(id, |id| job_status(shared, id))),
        ("POST", ["jobs", id, "cancel"]) | ("DELETE", ["jobs", id]) => {
            plain(with_job_id(id, |id| cancel(shared, id)))
        }
        ("GET", ["result", id]) => {
            let format = req.param("format").unwrap_or("tsv").to_string();
            plain(with_job_id(id, |id| result_proxy(shared, id, &format)))
        }
        ("GET", ["stats"]) => plain(fleet_stats(shared)),
        ("GET", ["metrics"]) => plain(coord_metrics(shared)),
        ("GET", ["healthz"]) => plain(healthz(shared)),
        ("GET", ["engines"]) => plain(engines_proxy(shared)),
        ("GET", _) | ("POST", _) | ("DELETE", _) => plain(Response::error(404, "no such route")),
        _ => plain(Response::error(405, "method not supported")),
    }
}

fn with_job_id(id: &str, f: impl FnOnce(JobId) -> Response) -> Response {
    match id.parse::<JobId>() {
        Ok(id) => f(id),
        Err(_) => Response::error(400, "job id must be a number"),
    }
}

/// `POST /v1/cluster/join` | `/heartbeat` — (re)register a worker. Both
/// endpoints are idempotent upserts: a heartbeat from an unknown
/// address is an implicit join (the coordinator may have restarted and
/// forgotten the fleet), and a join from a known one just refreshes it.
fn register(shared: &Arc<CoordShared>, addr: Option<&str>, is_join: bool) -> Response {
    let Some(addr) = addr.filter(|a| !a.is_empty() && !a.contains(char::is_whitespace)) else {
        return Response::error(400, "missing ?addr=<host:port> the coordinator can reach");
    };
    let (resurrected, total) = {
        let mut workers = shared.workers.lock().unwrap();
        let known = workers.len();
        let entry = workers
            .entry(addr.to_string())
            .or_insert_with(|| WorkerEntry {
                last_beat: Instant::now(),
                alive: false,
            });
        let resurrected = !entry.alive;
        entry.alive = true;
        entry.last_beat = Instant::now();
        (resurrected, known.max(workers.len()))
    };
    if resurrected {
        shared.counters.joins.fetch_add(1, Ordering::Relaxed);
        obs::info(
            "cluster",
            if is_join {
                "worker joined"
            } else {
                "worker re-joined via heartbeat"
            },
            &[("worker", addr.to_string())],
        );
        // New capacity may unblock jobs parked on "no alive workers".
        shared.queue_cv.notify_all();
    }
    // `epoch` bumps on every journal-backed restart, so workers can
    // tell "my coordinator came back from a crash" apart from a blip.
    Response::json(
        200,
        format!(
            "{{\"ok\":true,\"heartbeat_ms\":{},\"workers\":{total},\"epoch\":{}}}",
            shared.cfg.heartbeat.as_millis(),
            shared.epoch
        ),
    )
}

/// `POST /v1/graphs` — intern a GFA document into the coordinator's
/// vault: parse once to validate and count, keep the raw text for
/// push-on-miss to workers.
fn intern_graph(req: &mut Request, shared: &Arc<CoordShared>) -> Response {
    let gfa = match String::from_utf8(std::mem::take(&mut req.body)) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "GFA body must be UTF-8"),
    };
    if gfa.trim().is_empty() {
        return Response::error(400, "empty GFA body");
    }
    match intern_gfa(shared, gfa) {
        Err(response) => response,
        Ok((id, nodes, paths, steps, dedup)) => Response::json(
            if dedup { 200 } else { 201 },
            format!(
                "{{\"graph_id\":{},\"nodes\":{},\"paths\":{},\"steps\":{},\"dedup\":{}}}",
                json_str(&id.hex()),
                nodes,
                paths,
                steps,
                dedup
            ),
        ),
    }
}

/// Intern a GFA document (upload or inline submit): dedupe by content
/// hash, validate-parse new documents, and — in journal mode — spill
/// the bytes to the on-disk vault write-through (they do not stay
/// resident), journal the `G` record (fsync'd), and enforce the vault
/// byte cap. Returns `(id, nodes, paths, steps, dedup)`.
fn intern_gfa(
    shared: &Arc<CoordShared>,
    gfa: String,
) -> Result<(ContentHash, usize, usize, usize, bool), Response> {
    let id = content_hash(gfa.as_bytes());
    if let Some(entry) = shared.vault.lock().unwrap().get(&id) {
        return Ok((id, entry.nodes, entry.paths, entry.steps, true));
    }
    let parsed = parse_gfa(&gfa).map_err(|e| Response::error(400, &e.to_string()))?;
    let (nodes, paths, steps) = (
        parsed.node_count(),
        parsed.path_count(),
        parsed.total_path_steps() as usize,
    );
    let bytes = gfa.len() as u64;
    let resident = match &shared.vault_dir {
        Some(dir) => {
            // Spill before publishing the catalog entry, so a graph is
            // never interned without its bytes being durable.
            if !journal::write_vault_gfa(dir, id, &gfa) {
                return Err(Response::error(
                    500,
                    "failed to spill the graph to the vault directory",
                ));
            }
            shared.counters.vault_spills.fetch_add(1, Ordering::Relaxed);
            None
        }
        None => Some(Arc::new(gfa)),
    };
    let raced = {
        let mut vault = shared.vault.lock().unwrap();
        match vault.entry(id) {
            std::collections::hash_map::Entry::Occupied(_) => true, // concurrent identical upload
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(GraphEntry {
                    gfa: resident,
                    nodes,
                    paths,
                    steps,
                    bytes,
                });
                false
            }
        }
    };
    if !raced {
        if let Some(j) = &shared.journal {
            j.lock().unwrap().graph_vaulted(&GraphRecord {
                id,
                nodes,
                paths,
                steps,
                bytes,
            });
        }
        enforce_vault_cap(shared);
    }
    Ok((id, nodes, paths, steps, raced))
}

/// Evict the oldest vault spills until the on-disk tier fits
/// [`CoordinatorConfig::vault_max_bytes`]. Evicted graphs leave the
/// catalog and the journal; a by-reference submit for one answers 404
/// until the client re-uploads it.
fn enforce_vault_cap(shared: &CoordShared) {
    let Some(dir) = &shared.vault_dir else { return };
    if shared.cfg.vault_max_bytes == 0 {
        return;
    }
    for id in evict_dir_to_cap(dir, shared.cfg.vault_max_bytes, "gfa") {
        if shared.vault.lock().unwrap().remove(&id).is_some() {
            shared
                .counters
                .vault_evictions
                .fetch_add(1, Ordering::Relaxed);
            if let Some(j) = &shared.journal {
                j.lock().unwrap().graph_deleted(id);
            }
            obs::warn(
                "cluster",
                "evicted vaulted graph past the byte cap",
                &[("graph", id.hex())],
            );
        }
    }
}

/// `GET /v1/graphs` — the vault's catalog.
fn list_graphs(shared: &Arc<CoordShared>) -> Response {
    let vault = shared.vault.lock().unwrap();
    let mut rows: Vec<(String, String)> = vault
        .iter()
        .map(|(id, g)| {
            (
                id.hex(),
                format!(
                    "{{\"graph_id\":{},\"nodes\":{},\"paths\":{},\"steps\":{},\"bytes\":{}}}",
                    json_str(&id.hex()),
                    g.nodes,
                    g.paths,
                    g.steps,
                    g.bytes
                ),
            )
        })
        .collect();
    rows.sort();
    let graphs: Vec<String> = rows.into_iter().map(|(_, row)| row).collect();
    Response::json(
        200,
        format!(
            "{{\"count\":{},\"graphs\":[{}]}}",
            graphs.len(),
            graphs.join(",")
        ),
    )
}

/// `DELETE /v1/graphs/<id>` — drop from the vault and (best effort)
/// from every alive worker's store.
fn delete_graph(shared: &Arc<CoordShared>, id: ContentHash) -> Response {
    let existed = shared.vault.lock().unwrap().remove(&id).is_some();
    if !existed {
        return Response::error(404, &format!("no such graph {}", id.hex()));
    }
    if let Some(dir) = &shared.vault_dir {
        let _ = std::fs::remove_file(journal::vault_path(dir, id));
    }
    if let Some(j) = &shared.journal {
        j.lock().unwrap().graph_deleted(id);
    }
    let ring = alive_ring(shared);
    for worker in ring.owners(id) {
        let _ = client::request(worker, "DELETE", &format!("/v1/graphs/{}", id.hex()), b"");
    }
    Response::json(200, format!("{{\"deleted\":{}}}", json_str(&id.hex())))
}

/// `POST /v1/jobs` — parse the spec exactly like a worker would, intern
/// inline GFA into the vault (converting the job to by-reference), and
/// enqueue for dispatch.
fn submit(req: &mut Request, shared: &Arc<CoordShared>, peer: &str) -> Response {
    let body = std::mem::take(&mut req.body);
    let mut spec = match parse_job_spec(&req.query, body, false) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    if spec.client.is_none() {
        spec.client = Some(peer.to_string());
    }
    let (graph, steps) = match &spec.graph {
        GraphSpec::Gfa(text) => {
            let (id, _, _, steps, _) = match intern_gfa(shared, text.as_ref().clone()) {
                Ok(interned) => interned,
                Err(response) => return response,
            };
            // Forward by reference: the body already lives in the vault.
            spec.graph = GraphSpec::Stored(id);
            (id, steps)
        }
        GraphSpec::Stored(id) => match shared.vault.lock().unwrap().get(id) {
            Some(entry) => (*id, entry.steps),
            None => {
                return Response::error(
                    404,
                    &format!(
                        "no such graph {} (upload it to the coordinator first)",
                        id.hex()
                    ),
                )
            }
        },
    };
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let cost = job_cost(steps as u64);
    let client_key = spec.client.clone().expect("client defaulted above");
    let priority = spec.priority;
    // The accepted wire form, journaled (fsync'd) *before* the job can
    // be dispatched and before the 202 below: an acknowledged submit
    // survives `kill -9`.
    let query = spec.to_query();
    {
        let mut jobs = shared.jobs.lock().unwrap();
        jobs.insert(
            id,
            CoordJob {
                spec,
                graph,
                client: client_key.clone(),
                priority,
                cost,
                attempts: 0,
                cancel_requested: false,
                submitted: Instant::now(),
                state: CoordJobState::Queued,
            },
        );
    }
    journal_accept(shared, id, &query);
    shared
        .queue
        .lock()
        .unwrap()
        .push_keyed(priority, &client_key, id, cost, graph);
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    shared.queue_cv.notify_all();
    Response::json(
        202,
        format!(
            "{{\"job\":{id},\"cached\":false,\"state\":\"queued\",\"graph\":{},\"priority\":\"{}\"}}",
            json_str(&graph.hex()),
            priority.as_str()
        ),
    )
}

/// Synthesized status for a job the coordinator still holds (queued or
/// mid-failover): same field shape as a worker's status JSON.
fn synthesize_status(
    shared: &Arc<CoordShared>,
    id: JobId,
    state: &str,
    worker: Option<&str>,
) -> Response {
    let jobs = shared.jobs.lock().unwrap();
    let Some(job) = jobs.get(&id) else {
        return Response::error(404, &format!("no such job {id}"));
    };
    Response::json(
        200,
        format!(
            "{{\"job\":{id},\"state\":\"{state}\",\"progress\":0.000,\"engine\":{},\
             \"priority\":\"{}\",\"client\":{},\"cached\":false,\"graph\":{},\
             \"wall_ms\":{},\"attempts\":{}{}}}",
            json_str(&job.spec.engine),
            job.priority.as_str(),
            json_str(&job.client),
            json_str(&job.graph.hex()),
            job.submitted.elapsed().as_millis(),
            job.attempts,
            match worker {
                Some(w) => format!(",\"worker\":{}", json_str(w)),
                None => String::new(),
            }
        ),
    )
}

fn job_state(shared: &Arc<CoordShared>, id: JobId) -> Option<CoordJobState> {
    shared
        .jobs
        .lock()
        .unwrap()
        .get(&id)
        .map(|j| j.state.clone())
}

/// `GET /v1/jobs/<id>` — proxy to the owning worker (id rewritten), or
/// answer locally for queued/terminal jobs.
fn job_status(shared: &Arc<CoordShared>, id: JobId) -> Response {
    match job_state(shared, id) {
        None => Response::error(404, &format!("no such job {id}")),
        Some(CoordJobState::Queued) => synthesize_status(shared, id, "queued", None),
        Some(CoordJobState::Forwarded { worker, remote }) => {
            match client::request(&worker, "GET", &format!("/v1/jobs/{remote}"), b"") {
                Ok((200, body)) => Response::json(
                    200,
                    rewrite_job_id(String::from_utf8_lossy(&body).trim(), id),
                ),
                // Unreachable or amnesiac worker: the monitor is about to
                // requeue; report the job as still in flight.
                _ => synthesize_status(shared, id, "running", Some(&worker)),
            }
        }
        Some(CoordJobState::Terminal { body, .. }) => Response::json(200, body),
    }
}

/// `GET /v1/jobs/<id>/trace` — proxy when a worker has (or had) the
/// job; queued and never-ran jobs answer with an empty span list.
fn trace_proxy(shared: &Arc<CoordShared>, id: JobId) -> Response {
    let target = match job_state(shared, id) {
        None => return Response::error(404, &format!("no such job {id}")),
        Some(CoordJobState::Forwarded { worker, remote }) => Some((worker, remote, "running")),
        Some(CoordJobState::Terminal {
            worker: Some(w),
            remote: Some(r),
            ref body,
        }) => {
            let state = client::json_field_str(body, "state").unwrap_or_else(|| "done".into());
            let leaked = Box::leak(state.into_boxed_str());
            Some((w, r, &*leaked))
        }
        Some(CoordJobState::Queued) => None,
        Some(CoordJobState::Terminal { ref body, .. }) => {
            let state = client::json_field_str(body, "state").unwrap_or_else(|| "failed".into());
            return Response::json(
                200,
                format!("{{\"job\":{id},\"state\":\"{state}\",\"wall_ms\":0,\"total_us\":0,\"spans\":[]}}"),
            );
        }
    };
    let Some((worker, remote, fallback_state)) = target else {
        return Response::json(
            200,
            format!(
                "{{\"job\":{id},\"state\":\"queued\",\"wall_ms\":0,\"total_us\":0,\"spans\":[]}}"
            ),
        );
    };
    match client::request(&worker, "GET", &format!("/v1/jobs/{remote}/trace"), b"") {
        Ok((200, body)) => Response::json(
            200,
            rewrite_job_id(String::from_utf8_lossy(&body).trim(), id),
        ),
        _ => Response::json(
            200,
            format!(
                "{{\"job\":{id},\"state\":\"{fallback_state}\",\"wall_ms\":0,\"total_us\":0,\"spans\":[]}}"
            ),
        ),
    }
}

/// `POST /v1/jobs/<id>/cancel` — cancel locally while queued, proxy to
/// the owning worker once forwarded.
fn cancel(shared: &Arc<CoordShared>, id: JobId) -> Response {
    let state = {
        let mut jobs = shared.jobs.lock().unwrap();
        match jobs.get_mut(&id) {
            None => return Response::error(404, &format!("no such job {id}")),
            Some(job) => {
                job.cancel_requested = true;
                job.state.clone()
            }
        }
    };
    match state {
        CoordJobState::Queued => {
            let removed = shared.queue.lock().unwrap().remove(id);
            if removed {
                finish_local(shared, id, "cancelled", Some("cancelled while queued"));
            }
            // Not in the queue ⇒ mid-dispatch; the dispatcher checks the
            // cancel flag before forwarding. Either way, report status.
            job_status(shared, id)
        }
        CoordJobState::Forwarded { worker, remote } => {
            match client::request(&worker, "POST", &format!("/v1/jobs/{remote}/cancel"), b"") {
                Ok((200, body)) => Response::json(
                    200,
                    rewrite_job_id(String::from_utf8_lossy(&body).trim(), id),
                ),
                Ok((_, _)) => job_status(shared, id),
                Err(_) => Response::error(
                    503,
                    "owning worker unreachable; the job will be requeued or collected shortly",
                ),
            }
        }
        CoordJobState::Terminal { body, .. } => Response::json(200, body),
    }
}

/// `GET /v1/result/<id>` — proxy the finished layout from the worker
/// that computed it.
fn result_proxy(shared: &Arc<CoordShared>, id: JobId, format: &str) -> Response {
    let content_type: &'static str = match format {
        "tsv" => "text/tab-separated-values",
        "lay" => "application/octet-stream",
        other => return Response::error(400, &format!("unknown format {other:?} (tsv, lay)")),
    };
    match job_state(shared, id) {
        None => Response::error(404, &format!("no such job {id}")),
        Some(CoordJobState::Queued) | Some(CoordJobState::Forwarded { .. }) => {
            Response::error(409, &format!("job {id} is not done yet"))
        }
        Some(CoordJobState::Terminal {
            worker: Some(worker),
            remote: Some(remote),
            body,
        }) if body.contains("\"state\":\"done\"") => {
            match client::request(
                &worker,
                "GET",
                &format!("/v1/result/{remote}?format={format}"),
                b"",
            ) {
                Ok((200, bytes)) => Response::bytes(200, content_type, bytes),
                Ok((status, bytes)) => Response::error(
                    if status == 404 { 404 } else { 409 },
                    &format!(
                        "worker answered {status}: {}",
                        String::from_utf8_lossy(&bytes).trim()
                    ),
                ),
                Err(_) => Response::error(503, "worker holding the result is unreachable"),
            }
        }
        Some(CoordJobState::Terminal { body, .. }) => {
            let state = client::json_field_str(&body, "state").unwrap_or_else(|| "failed".into());
            Response::error(409, &format!("job {id} is {state}, not done"))
        }
    }
}

/// `GET /v1/engines` — proxied from any alive worker (the fleet is
/// homogeneous: every worker registers the same engine set).
fn engines_proxy(shared: &Arc<CoordShared>) -> Response {
    let ring = alive_ring(shared);
    for worker in ring.owners(content_hash(b"engines-probe")) {
        if let Ok((200, body)) = client::request(worker, "GET", "/v1/engines", b"") {
            return Response::json(200, String::from_utf8_lossy(&body).into_owned());
        }
    }
    Response::error(503, "no alive workers to answer for")
}

/// `GET /v1/healthz` — coordinator liveness + fleet shape + journal
/// health (absent when running without `--journal-dir`).
fn healthz(shared: &Arc<CoordShared>) -> Response {
    let (alive, total) = worker_counts(shared);
    Response::json(
        200,
        format!(
            "{{\"ok\":true,\"role\":\"coordinator\",\"version\":{},\"uptime_s\":{},\
             \"heartbeat_ms\":{},\"workers_alive\":{alive},\"workers_total\":{total}{}}}",
            json_str(env!("CARGO_PKG_VERSION")),
            shared.started.elapsed().as_secs(),
            shared.cfg.heartbeat.as_millis(),
            journal_health_json(shared)
        ),
    )
}

/// `,"journal":{...}` for `/healthz` and `/v1/stats`, or empty when the
/// journal is off.
fn journal_health_json(shared: &CoordShared) -> String {
    let Some(j) = &shared.journal else {
        return String::new();
    };
    let j = j.lock().unwrap();
    format!(
        ",\"journal\":{{\"epoch\":{},\"replayed\":{},\"recovered\":{},\
         \"snapshot_age_s\":{},\"bytes\":{}}}",
        shared.epoch,
        shared.replayed,
        shared.counters.recovered.load(Ordering::Relaxed),
        j.snapshot_age_s(),
        j.bytes()
    )
}

fn worker_counts(shared: &Arc<CoordShared>) -> (usize, usize) {
    let workers = shared.workers.lock().unwrap();
    (workers.values().filter(|w| w.alive).count(), workers.len())
}

/// Selected numeric fields pulled from one worker's `/v1/stats` and
/// `/v1/metrics`, for the fleet rollup.
#[derive(Default)]
struct WorkerDigest {
    queued: u64,
    running: u64,
    done: u64,
    failed: u64,
    parses: u64,
    cache_hits: u64,
    cache_misses: u64,
    engine_terms: u64,
    engine_ups: f64,
}

/// `GET /v1/stats` — the fleet rollup: per-worker queue depth, cache
/// behavior, and `pgl_engine_*` telemetry, plus fleet-wide sums and
/// the coordinator's own counters.
fn fleet_stats(shared: &Arc<CoordShared>) -> Response {
    let mut members: Vec<(String, bool)> = {
        let workers = shared.workers.lock().unwrap();
        workers.iter().map(|(a, w)| (a.clone(), w.alive)).collect()
    };
    members.sort();
    let mut rows = Vec::new();
    let mut fleet = WorkerDigest::default();
    let mut alive_count = 0usize;
    for (addr, alive) in &members {
        if !*alive {
            rows.push(format!("{{\"addr\":{},\"alive\":false}}", json_str(addr)));
            continue;
        }
        match worker_digest(addr) {
            Some(d) => {
                alive_count += 1;
                rows.push(format!(
                    "{{\"addr\":{},\"alive\":true,\"queued\":{},\"running\":{},\"done\":{},\
                     \"failed\":{},\"parses\":{},\"cache_hits\":{},\"cache_misses\":{},\
                     \"engine_terms_applied\":{},\"engine_updates_per_sec\":{:.1}}}",
                    json_str(addr),
                    d.queued,
                    d.running,
                    d.done,
                    d.failed,
                    d.parses,
                    d.cache_hits,
                    d.cache_misses,
                    d.engine_terms,
                    d.engine_ups
                ));
                fleet.queued += d.queued;
                fleet.running += d.running;
                fleet.done += d.done;
                fleet.failed += d.failed;
                fleet.parses += d.parses;
                fleet.cache_hits += d.cache_hits;
                fleet.cache_misses += d.cache_misses;
                fleet.engine_terms += d.engine_terms;
                fleet.engine_ups += d.engine_ups;
            }
            None => rows.push(format!(
                "{{\"addr\":{},\"alive\":true,\"reachable\":false}}",
                json_str(addr)
            )),
        }
    }
    let coord_queued = {
        let jobs = shared.jobs.lock().unwrap();
        jobs.values()
            .filter(|j| matches!(j.state, CoordJobState::Queued))
            .count()
    };
    let graphs_interned = shared.vault.lock().unwrap().len();
    let c = &shared.counters;
    Response::json(
        200,
        format!(
            "{{\"role\":\"coordinator\",\"workers\":[{}],\
             \"fleet\":{{\"workers_alive\":{alive_count},\"workers_total\":{},\
             \"queued\":{},\"running\":{},\"done\":{},\"failed\":{},\"parses\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"engine_terms_applied\":{},\
             \"engine_updates_per_sec\":{:.1}}},\
             \"coordinator\":{{\"submitted\":{},\"forwarded\":{},\"requeues\":{},\
             \"completed\":{},\"failed\":{},\"cancelled\":{},\"joins\":{},\"deaths\":{},\
             \"graph_pushes\":{},\"vault_spills\":{},\"vault_evictions\":{},\
             \"graphs_interned\":{graphs_interned},\
             \"queued\":{coord_queued},\"uptime_s\":{}{}}}}}",
            rows.join(","),
            members.len(),
            fleet.queued,
            fleet.running,
            fleet.done,
            fleet.failed,
            fleet.parses,
            fleet.cache_hits,
            fleet.cache_misses,
            fleet.engine_terms,
            fleet.engine_ups,
            c.submitted.load(Ordering::Relaxed),
            c.forwarded.load(Ordering::Relaxed),
            c.requeues.load(Ordering::Relaxed),
            c.completed.load(Ordering::Relaxed),
            c.failed.load(Ordering::Relaxed),
            c.cancelled.load(Ordering::Relaxed),
            c.joins.load(Ordering::Relaxed),
            c.deaths.load(Ordering::Relaxed),
            c.graph_pushes.load(Ordering::Relaxed),
            c.vault_spills.load(Ordering::Relaxed),
            c.vault_evictions.load(Ordering::Relaxed),
            shared.started.elapsed().as_secs(),
            journal_health_json(shared)
        ),
    )
}

/// Fetch one worker's `/v1/stats` + `/v1/metrics` and digest the fields
/// the rollup surfaces. `None` when the worker is unreachable.
fn worker_digest(addr: &str) -> Option<WorkerDigest> {
    let (status, body) = client::request(addr, "GET", "/v1/stats", b"").ok()?;
    if status != 200 {
        return None;
    }
    let text = String::from_utf8_lossy(&body);
    let mut d = WorkerDigest {
        queued: client::json_u64(&text, "queued").unwrap_or(0),
        running: client::json_u64(&text, "running").unwrap_or(0),
        done: client::json_u64(&text, "done").unwrap_or(0),
        failed: client::json_u64(&text, "failed").unwrap_or(0),
        parses: client::json_u64(&text, "parses").unwrap_or(0),
        // First "hits"/"misses" in the stats body are the layout cache's.
        cache_hits: client::json_u64(&text, "hits").unwrap_or(0),
        cache_misses: client::json_u64(&text, "misses").unwrap_or(0),
        ..WorkerDigest::default()
    };
    if let Ok((200, metrics)) = client::request(addr, "GET", "/v1/metrics", b"") {
        let metrics = String::from_utf8_lossy(&metrics);
        d.engine_terms = prom_value(&metrics, "pgl_engine_terms_applied_total")
            .map(|v| v as u64)
            .unwrap_or(0);
        d.engine_ups = prom_value(&metrics, "pgl_engine_updates_per_sec").unwrap_or(0.0);
    }
    Some(d)
}

/// The value of an unlabelled Prometheus sample line (`name value`).
fn prom_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse().ok()
    })
}

/// `GET /v1/metrics` — the coordinator's own counters, Prometheus text.
fn coord_metrics(shared: &Arc<CoordShared>) -> Response {
    let (alive, total) = worker_counts(shared);
    let graphs = shared.vault.lock().unwrap().len();
    let (journal_stats, journal_bytes) = match &shared.journal {
        Some(j) => {
            let j = j.lock().unwrap();
            (j.stats(), j.bytes())
        }
        None => (Default::default(), 0),
    };
    let c = &shared.counters;
    let mut out = String::new();
    let counters: [(&str, &str, u64); 15] = [
        (
            "pgl_coord_jobs_submitted_total",
            "Jobs accepted by the coordinator.",
            c.submitted.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_forwarded_total",
            "Forwards accepted by workers.",
            c.forwarded.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_requeued_total",
            "Jobs requeued after worker failure.",
            c.requeues.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_completed_total",
            "Jobs that finished done.",
            c.completed.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_failed_total",
            "Jobs that finished failed/expired.",
            c.failed.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_jobs_cancelled_total",
            "Jobs cancelled.",
            c.cancelled.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_worker_joins_total",
            "Worker joins and resurrections.",
            c.joins.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_worker_deaths_total",
            "Workers declared dead.",
            c.deaths.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_graph_pushes_total",
            "Graph bodies pushed to workers on miss.",
            c.graph_pushes.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_journal_appends_total",
            "Records appended to the write-ahead journal.",
            journal_stats.appends,
        ),
        (
            "pgl_coord_journal_syncs_total",
            "Journal fsyncs (accepts and graph interns).",
            journal_stats.syncs,
        ),
        (
            "pgl_coord_journal_snapshots_total",
            "Journal snapshot compactions (boot included).",
            journal_stats.snapshots,
        ),
        (
            "pgl_coord_journal_recovered_jobs_total",
            "Non-terminal jobs recovered from the journal at boot.",
            c.recovered.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_vault_spills_total",
            "Graph bodies spilled to the on-disk vault.",
            c.vault_spills.load(Ordering::Relaxed),
        ),
        (
            "pgl_coord_vault_evictions_total",
            "Vaulted graphs evicted past the byte cap.",
            c.vault_evictions.load(Ordering::Relaxed),
        ),
    ];
    for (name, help, value) in counters {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    }
    let gauges: [(&str, &str, usize); 5] = [
        ("pgl_coord_workers_alive", "Workers currently alive.", alive),
        ("pgl_coord_workers_total", "Workers ever registered.", total),
        (
            "pgl_coord_graphs_interned",
            "Graphs in the coordinator vault.",
            graphs,
        ),
        (
            "pgl_coord_journal_epoch",
            "Journal epoch of this incarnation (0 = journal off).",
            shared.epoch as usize,
        ),
        (
            "pgl_coord_journal_bytes",
            "On-disk size of the journal log.",
            journal_bytes as usize,
        ),
    ];
    for (name, help, value) in gauges {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    }
    Response::bytes(200, "text/plain; version=0.0.4", out.into_bytes())
}

// ─── event-stream proxying ──────────────────────────────────────────

/// Tracks the relay position of one proxied event stream across
/// (re-)attachments. Worker event lines carry a dense, 0-based `seq`;
/// heartbeat lines carry none. Re-attaching to the *same* `(worker,
/// remote)` run — after a severed connection or read timeout — resumes
/// from `last_seq + 1`, and [`StreamCursor::admit`] drops any lines
/// the worker replays anyway, so the downstream client never sees a
/// duplicate. A *different* run (the job was requeued onto another
/// worker) resets the cursor: new runs replay from 0 by design.
struct StreamCursor {
    worker: String,
    remote: JobId,
    last_seq: Option<u64>,
}

impl StreamCursor {
    fn new() -> Self {
        Self {
            worker: String::new(),
            remote: 0,
            last_seq: None,
        }
    }

    /// The `?from=` value for (re-)attaching to `worker`/`remote`.
    fn attach(&mut self, worker: &str, remote: JobId) -> u64 {
        if self.worker == worker && self.remote == remote {
            self.last_seq.map_or(0, |s| s + 1)
        } else {
            self.worker = worker.to_string();
            self.remote = remote;
            self.last_seq = None;
            0
        }
    }

    /// Should this relayed line reach the client? Seq-less lines
    /// (heartbeats) always pass; sequenced lines pass once.
    fn admit(&mut self, line: &str) -> bool {
        match client::json_u64(line, "seq") {
            None => true,
            Some(seq) => {
                if self.last_seq.is_some_and(|last| seq <= last) {
                    return false;
                }
                self.last_seq = Some(seq);
                true
            }
        }
    }
}

/// `GET /v1/jobs/<id>/events` — chunked NDJSON, transparently proxied.
/// While the job is queued coordinator-side, synthetic `queued` +
/// heartbeat lines flow; once forwarded, the worker's stream is piped
/// through with ids rewritten. If the connection to the worker drops
/// mid-stream the proxy *stays open*, waits, and re-attaches — resuming
/// the same run from the last relayed `seq` (see [`StreamCursor`]).
fn stream_proxy(
    stream: &mut TcpStream,
    shared: &Arc<CoordShared>,
    id: JobId,
) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
          Transfer-Encoding: chunked\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
    )?;
    let mut emitted_queued = false;
    let mut last_activity = Instant::now();
    let mut cursor = StreamCursor::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match job_state(shared, id) {
            None => break,
            Some(CoordJobState::Queued) => {
                if !emitted_queued {
                    write_chunk(
                        stream,
                        format!("{{\"job\":{id},\"event\":\"state\",\"state\":\"queued\"}}\n")
                            .as_bytes(),
                    )?;
                    emitted_queued = true;
                    last_activity = Instant::now();
                }
                {
                    let jobs = shared.jobs.lock().unwrap();
                    let _ = shared.jobs_cv.wait_timeout(jobs, PARK).unwrap();
                }
                if last_activity.elapsed() >= EVENT_HEARTBEAT {
                    write_chunk(stream, b"{\"event\":\"heartbeat\"}\n")?;
                    last_activity = Instant::now();
                }
            }
            Some(CoordJobState::Forwarded { worker, remote }) => {
                let mut write_err = None;
                let from = cursor.attach(&worker, remote);
                let piped = client::stream_lines(
                    &worker,
                    &format!("/v1/jobs/{remote}/events?from={from}"),
                    &mut |line| {
                        if !cursor.admit(line) {
                            return true; // already relayed before the drop
                        }
                        let rewritten = rewrite_job_id(line, id);
                        match write_chunk(stream, format!("{rewritten}\n").as_bytes()) {
                            Ok(()) => true,
                            Err(e) => {
                                write_err = Some(e);
                                false
                            }
                        }
                    },
                );
                if let Some(e) = write_err {
                    return Err(e); // downstream client went away
                }
                match piped {
                    // The worker's stream ended cleanly — it delivered
                    // the terminal event; nothing more to say.
                    Ok(true) => break,
                    Ok(false) => break,
                    // Worker died mid-stream: hold the connection while
                    // the monitor requeues, then re-attach.
                    Err(_) => std::thread::sleep(PARK),
                }
            }
            Some(CoordJobState::Terminal { body, .. }) => {
                let state = client::json_field_str(&body, "state").unwrap_or_else(|| "done".into());
                let error = client::json_field_str(&body, "error")
                    .map(|e| format!(",\"error\":{}", json_str(&e)))
                    .unwrap_or_default();
                write_chunk(
                    stream,
                    format!("{{\"job\":{id},\"event\":\"state\",\"state\":\"{state}\"{error}}}\n")
                        .as_bytes(),
                )?;
                break;
            }
        }
    }
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// Swap the first `"job":<digits>` for the coordinator's id — the only
/// rewrite proxied bodies need (worker-local ids never leak).
fn rewrite_job_id(line: &str, id: JobId) -> String {
    let Some(at) = line.find("\"job\":") else {
        return line.to_string();
    };
    let digits_start = at + "\"job\":".len();
    let digits = line[digits_start..]
        .bytes()
        .take_while(u8::is_ascii_digit)
        .count();
    if digits == 0 {
        return line.to_string();
    }
    format!(
        "{}{}{}",
        &line[..digits_start],
        id,
        &line[digits_start + digits..]
    )
}

/// JSON string literal with escaping (the coordinator's copy of the
/// front end's helper — both are tiny and module-private).
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
    fn job_id_rewriting() {
        assert_eq!(
            rewrite_job_id("{\"job\":7,\"state\":\"done\"}", 42),
            "{\"job\":42,\"state\":\"done\"}"
        );
        assert_eq!(
            rewrite_job_id("{\"event\":\"heartbeat\"}", 42),
            "{\"event\":\"heartbeat\"}",
            "lines without a job id pass through"
        );
        assert_eq!(rewrite_job_id("{\"job\":}", 9), "{\"job\":}");
    }

    #[test]
    fn prom_value_reads_unlabelled_samples() {
        let text =
            "# HELP x y\npgl_engine_terms_applied_total 1500\npgl_engine_updates_per_sec 12.5\n";
        assert_eq!(
            prom_value(text, "pgl_engine_terms_applied_total"),
            Some(1500.0)
        );
        assert_eq!(prom_value(text, "pgl_engine_updates_per_sec"), Some(12.5));
        assert_eq!(prom_value(text, "pgl_engine_running_jobs"), None);
    }

    #[test]
    fn config_defaults_are_sane() {
        let cfg = CoordinatorConfig::default();
        assert!(cfg.heartbeat >= Duration::from_millis(100));
        assert!(cfg.dead_after >= 1);
        assert!(cfg.max_attempts >= 1);
        assert!(cfg.max_conns >= 1);
        assert!(cfg.journal_dir.is_none(), "journal is opt-in");
        assert_eq!(cfg.vault_max_bytes, 0, "vault cap off by default");
    }

    #[test]
    fn stream_cursor_resumes_same_run_and_dedupes_replays() {
        let mut cursor = StreamCursor::new();
        assert_eq!(cursor.attach("w1", 7), 0, "first attach starts at 0");
        assert!(cursor.admit("{\"job\":7,\"seq\":0,\"event\":\"state\"}"));
        assert!(cursor.admit("{\"job\":7,\"seq\":1,\"event\":\"progress\"}"));
        assert!(
            cursor.admit("{\"event\":\"heartbeat\"}"),
            "seq-less always pass"
        );
        // Connection drops; re-attach to the SAME run resumes past 1.
        assert_eq!(cursor.attach("w1", 7), 2);
        assert!(
            !cursor.admit("{\"job\":7,\"seq\":1,\"event\":\"progress\"}"),
            "replayed lines are deduped"
        );
        assert!(cursor.admit("{\"job\":7,\"seq\":2,\"event\":\"progress\"}"));
    }

    #[test]
    fn stream_cursor_resets_for_a_new_run() {
        let mut cursor = StreamCursor::new();
        assert_eq!(cursor.attach("w1", 7), 0);
        assert!(cursor.admit("{\"job\":7,\"seq\":5,\"event\":\"progress\"}"));
        // Requeued onto another worker (or a new remote id): new run,
        // replay from 0 — its seq 0 must not be mistaken for a dupe.
        assert_eq!(cursor.attach("w2", 3), 0);
        assert!(cursor.admit("{\"job\":3,\"seq\":0,\"event\":\"state\"}"));
        assert_eq!(cursor.attach("w2", 3), 1, "subsequent re-attach resumes");
    }
}
