//! End-to-end tests of the cluster tier: a coordinator routing jobs
//! across two in-process `pgl serve`-shaped workers.
//!
//! The two load-bearing claims, verified over real sockets:
//!
//! * **Consistent-hash routing keeps caches hot** — repeated
//!   by-reference submits for one graph land on the same worker, so
//!   the fleet-wide parse count stays at 1 no matter how many jobs run.
//! * **Worker death is drain-and-requeue, never silent loss** — kill
//!   the worker that owns the graph and every accepted job still
//!   reaches a terminal state, completing on the survivor.
//! * **Coordinator death loses no accepted work** — with a journal
//!   armed, kill the coordinator with jobs still queued, restart it on
//!   the same `--journal-dir`, and every accepted job replays and
//!   reaches a terminal state once workers join.

use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{
    spawn_heartbeat, ClusterRole, Coordinator, CoordinatorConfig, ServerHandle,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One blocking HTTP/1.1 exchange; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete header");
    let head = String::from_utf8_lossy(&response[..header_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, response[header_end + 4..].to_vec())
}

fn body_text(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

/// Pull `"field":<digits>` out of a flat JSON body.
fn json_u64(json: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let at = json.find(&needle)? + needle.len();
    let digits: String = json[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Pull `"field":"<string>"` out of a flat JSON body.
fn json_string(json: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":\"");
    let at = json.find(&needle)? + needle.len();
    Some(json[at..].chars().take_while(|c| *c != '"').collect())
}

/// Poll `check` until it returns `Some` or the deadline passes.
fn wait_for<T>(what: &str, timeout: Duration, mut check: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = check() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// An in-process worker: a one-thread layout service behind an HTTP
/// front end, enrolled in the fleet at `coordinator`.
struct Worker {
    addr: SocketAddr,
    server: Option<ServerHandle>,
    beat_stop: Arc<AtomicBool>,
}

fn spawn_worker(coordinator: SocketAddr) -> Worker {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    ));
    let role = ClusterRole::worker(coordinator.to_string());
    let server = HttpServer::bind("127.0.0.1:0", service)
        .expect("bind worker")
        .with_config(HttpConfig {
            max_conns: 4,
            ..HttpConfig::default()
        })
        .with_role(Arc::clone(&role));
    let handle = server.spawn();
    let addr = handle.addr();
    let beat_stop = Arc::new(AtomicBool::new(false));
    let _ = spawn_heartbeat(
        coordinator.to_string(),
        addr.to_string(),
        Duration::from_millis(100),
        role,
        Arc::clone(&beat_stop),
    );
    Worker {
        addr,
        server: Some(handle),
        beat_stop,
    }
}

impl Worker {
    /// Kill the worker outright: stop heartbeating, stop serving.
    fn kill(&mut self) {
        self.beat_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.server.take() {
            handle.stop();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

fn submit_by_ref(coord: SocketAddr, graph: &str) -> u64 {
    let path = format!("/v1/jobs?graph={graph}&engine=cpu&iters=4&threads=1&seed=7");
    let (status, body) = http(coord, "POST", &path, b"");
    assert_eq!(status, 202, "{}", body_text(&body));
    json_u64(&body_text(&body), "job").expect("job ticket")
}

/// Poll a job on the coordinator until it is terminal; returns its
/// final state.
fn wait_terminal(coord: SocketAddr, job: u64) -> String {
    wait_for(
        &format!("job {job} terminal"),
        Duration::from_secs(30),
        || {
            let (status, body) = http(coord, "GET", &format!("/v1/jobs/{job}"), b"");
            assert_eq!(status, 200, "{}", body_text(&body));
            let state = json_string(&body_text(&body), "state").expect("state field");
            ["done", "failed", "cancelled", "expired"]
                .contains(&state.as_str())
                .then_some(state)
        },
    )
}

#[test]
fn fleet_routes_by_graph_hash_and_survives_worker_death() {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorConfig {
            heartbeat: Duration::from_millis(100),
            ..CoordinatorConfig::default()
        },
    )
    .expect("bind coordinator");
    let coord = coordinator.local_addr();
    let _coord_handle = coordinator.spawn();

    let mut workers = [spawn_worker(coord), spawn_worker(coord)];

    // Both workers register and report as workers in their own healthz.
    wait_for("both workers alive", Duration::from_secs(10), || {
        let (status, body) = http(coord, "GET", "/v1/healthz", b"");
        assert_eq!(status, 200);
        let text = body_text(&body);
        assert!(text.contains("\"role\":\"coordinator\""), "{text}");
        (json_u64(&text, "workers_alive") == Some(2)).then_some(())
    });
    let (status, body) = http(workers[0].addr, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert!(text.contains("\"role\":\"worker\""), "{text}");
    assert!(
        text.contains(&format!("\"coordinator\":\"{coord}\"")),
        "{text}"
    );

    // Upload once to the coordinator; every submit below is by-reference.
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("cluster", 40, 3, 5)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json_string(&body_text(&body), "graph_id").expect("graph id");

    // Same graph hash ⇒ same ring owner ⇒ one worker parses, once.
    let jobs: Vec<u64> = (0..3).map(|_| submit_by_ref(coord, &graph)).collect();
    for &job in &jobs {
        assert_eq!(wait_terminal(coord, job), "done");
    }
    let (status, body) = http(coord, "GET", "/v1/stats", b"");
    assert_eq!(status, 200);
    let stats = body_text(&body);
    let fleet = stats.split("\"fleet\":").nth(1).expect("fleet block");
    assert_eq!(
        json_u64(fleet, "parses"),
        Some(1),
        "all same-graph jobs must land on one worker: {stats}"
    );

    // A finished job's event stream replays through the proxy and ends
    // with the terminal state under the coordinator's job id.
    let (status, body) = http(coord, "GET", &format!("/v1/jobs/{}/events", jobs[0]), b"");
    assert_eq!(status, 200);
    let events = body_text(&body);
    assert!(events.contains("\"state\":\"done\""), "{events}");
    assert!(events.contains(&format!("\"job\":{}", jobs[0])), "{events}");

    // Kill the worker that owns the graph (the one that parsed it).
    let owner = wait_for("finding the parsing worker", Duration::from_secs(5), || {
        workers.iter().position(|w| {
            let (status, body) = http(w.addr, "GET", "/v1/stats", b"");
            status == 200 && {
                let graphs = body_text(&body);
                let graphs = graphs
                    .split("\"graphs\":")
                    .nth(1)
                    .unwrap_or_default()
                    .to_string();
                json_u64(&graphs, "parses") == Some(1)
            }
        })
    });
    workers[owner].kill();

    // The next submit must still complete — requeued and re-routed to
    // the survivor, which parses the pushed graph itself.
    let failover_job = submit_by_ref(coord, &graph);
    assert_eq!(wait_terminal(coord, failover_job), "done");

    // No accepted job may be lost: everything submitted reaches a
    // terminal state. Wait on state rather than checking once — a job
    // requeued by the failover may still be finishing on the survivor.
    for &job in jobs.iter().chain([&failover_job]) {
        wait_terminal(coord, job);
    }

    // The death was observed and the fleet shrank to one alive worker.
    let (status, body) = http(coord, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert_eq!(json_u64(&text, "workers_alive"), Some(1), "{text}");
}

#[test]
fn coordinator_restart_recovers_journaled_jobs() {
    let journal_dir = std::env::temp_dir().join(format!(
        "pgl_cluster_journal_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&journal_dir);

    let config = || CoordinatorConfig {
        heartbeat: Duration::from_millis(100),
        journal_dir: Some(journal_dir.clone()),
        ..CoordinatorConfig::default()
    };

    // First life: accept a graph and three jobs, with no workers to
    // run them — everything is queued when the coordinator dies.
    let coordinator = Coordinator::bind("127.0.0.1:0", config()).expect("bind coordinator");
    let coord = coordinator.local_addr();
    let handle = coordinator.spawn();

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("journal", 40, 3, 5)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json_string(&body_text(&body), "graph_id").expect("graph id");
    let jobs: Vec<u64> = (0..3).map(|_| submit_by_ref(coord, &graph)).collect();
    let (status, body) = http(coord, "GET", &format!("/v1/jobs/{}", jobs[0]), b"");
    assert_eq!(status, 200);
    assert_eq!(
        json_string(&body_text(&body), "state").as_deref(),
        Some("queued")
    );
    handle.stop();

    // Second life, same journal dir, fresh port: the journal replays.
    let coordinator = Coordinator::bind("127.0.0.1:0", config()).expect("rebind coordinator");
    let coord = coordinator.local_addr();
    let _handle = coordinator.spawn();

    let (status, body) = http(coord, "GET", "/v1/healthz", b"");
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert_eq!(json_u64(&text, "epoch"), Some(2), "{text}");
    assert_eq!(json_u64(&text, "replayed"), Some(3), "{text}");

    // The graph catalog survived too: by-reference submits need no
    // re-upload (the GFA reloads from the vault spill on demand).
    let extra = submit_by_ref(coord, &graph);

    // Workers join the new incarnation and drain everything accepted
    // by either life of the coordinator.
    let _workers = [spawn_worker(coord), spawn_worker(coord)];
    for &job in jobs.iter().chain([&extra]) {
        assert_eq!(wait_terminal(coord, job), "done", "job {job}");
    }

    let (status, body) = http(coord, "GET", "/v1/metrics", b"");
    assert_eq!(status, 200);
    let metrics = body_text(&body);
    assert!(
        metrics.contains("pgl_coord_journal_recovered_jobs_total 3"),
        "{metrics}"
    );
    assert!(metrics.contains("pgl_coord_journal_epoch 2"), "{metrics}");

    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn jobs_queue_without_workers_and_cancel_cleanly() {
    let coordinator =
        Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default()).expect("bind coordinator");
    let coord = coordinator.local_addr();
    let _handle = coordinator.spawn();

    // By-reference submits for unknown graphs are refused up front.
    let (status, body) = http(
        coord,
        "POST",
        "/v1/jobs?graph=00000000000000000000000000000000&engine=cpu",
        b"",
    );
    assert_eq!(status, 404, "{}", body_text(&body));

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("queue", 30, 2, 4)));
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 201, "{}", body_text(&body));
    let graph = json_string(&body_text(&body), "graph_id").unwrap();

    // Uploading the same bytes again dedups.
    let (status, body) = http(coord, "POST", "/v1/graphs", gfa.as_bytes());
    assert_eq!(status, 200);
    assert!(body_text(&body).contains("\"dedup\":true"));

    // With no workers the job waits (queued), then cancels locally.
    let job = submit_by_ref(coord, &graph);
    let (status, body) = http(coord, "GET", &format!("/v1/jobs/{job}"), b"");
    assert_eq!(status, 200);
    assert_eq!(
        json_string(&body_text(&body), "state").as_deref(),
        Some("queued")
    );
    let (status, _) = http(coord, "POST", &format!("/v1/jobs/{job}/cancel"), b"");
    assert_eq!(status, 200);
    assert_eq!(wait_terminal(coord, job), "cancelled");

    // Unknown query parameters fail loudly, like the worker /v1 surface.
    let (status, body) = http(
        coord,
        "POST",
        &format!("/v1/jobs?graph={graph}&bogus=1"),
        b"",
    );
    assert_eq!(status, 400, "{}", body_text(&body));
}
