//! End-to-end tests of the layout service's HTTP API: job round trips
//! and cache hits, plus the traffic-hardening behaviors — overload
//! shedding (503 + Retry-After from the bounded connection queue),
//! HTTP/1.1 keep-alive reuse, request metrics, duplicate-Content-Length
//! rejection, and disk-tier cache hits across a server restart.

use rapid_pangenome_layout::prelude::*;
use rapid_pangenome_layout::service::{
    EngineRegistry, HttpConfig, HttpServer, LayoutService, ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
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

#[test]
fn layout_jobs_round_trip_over_http_and_hit_the_cache() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 8,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind ephemeral");
    let handle = server.spawn();
    let addr = handle.addr();

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("http", 50, 3, 7)));
    let post_path = "/layout?engine=cpu&iters=4&threads=1&seed=42";

    // Health and stats respond before any work.
    let (status, body) = http(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200, "{}", body_text(&body));
    let (status, _) = http(addr, "GET", "/stats", b"");
    assert_eq!(status, 200);

    // Submit the first job.
    let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
    let text = body_text(&body);
    assert_eq!(status, 202, "{text}");
    assert!(
        text.contains("\"cached\":false"),
        "first request computes: {text}"
    );
    let job = json_u64(&text, "job").expect("job id");

    // Poll to completion.
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_status = loop {
        let (status, body) = http(addr, "GET", &format!("/jobs/{job}"), b"");
        assert_eq!(status, 200);
        let text = body_text(&body);
        if text.contains("\"state\":\"done\"") {
            break text;
        }
        assert!(
            !text.contains("\"state\":\"failed\"") && !text.contains("\"state\":\"cancelled\""),
            "job should succeed: {text}"
        );
        assert!(Instant::now() < deadline, "timed out polling job: {text}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        final_status.contains("\"progress\":1.000"),
        "{final_status}"
    );

    // Fetch the TSV result.
    let (status, tsv_bytes) = http(addr, "GET", &format!("/result/{job}"), b"");
    assert_eq!(status, 200);
    let tsv = body_text(&tsv_bytes);
    assert!(
        tsv.starts_with("#idx"),
        "TSV header expected, got: {}",
        &tsv[..tsv.len().min(60)]
    );
    assert!(tsv.lines().count() > 1, "TSV has coordinate rows");

    // The identical request is served from the cache, already done.
    let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
    let text = body_text(&body);
    assert_eq!(status, 202);
    assert!(
        text.contains("\"cached\":true"),
        "second request hits the cache: {text}"
    );
    assert!(text.contains("\"state\":\"done\""), "{text}");
    let job2 = json_u64(&text, "job").expect("job id");
    assert_ne!(job, job2);
    let (status, body2) = http(addr, "GET", &format!("/result/{job2}"), b"");
    assert_eq!(status, 200);
    assert_eq!(tsv_bytes, body2, "cached layout is byte-identical");

    // A *different* config misses the cache.
    let (status, body) = http(
        addr,
        "POST",
        "/layout?engine=cpu&iters=5&threads=1&seed=42",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    assert!(body_text(&body).contains("\"cached\":false"));

    // Stats agree: one hit so far.
    let (status, body) = http(addr, "GET", "/stats", b"");
    assert_eq!(status, 200);
    let stats = body_text(&body);
    assert_eq!(json_u64(&stats, "hits"), Some(1), "{stats}");
    assert!(json_u64(&stats, "submitted").unwrap() >= 3, "{stats}");

    // Error paths: unknown job, result of unknown job, bad engine, 404s.
    let (status, _) = http(addr, "GET", "/jobs/99999", b"");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/result/99999", b"");
    assert_eq!(status, 404);
    let (status, body) = http(addr, "POST", "/layout?engine=quantum", gfa.as_bytes());
    assert_eq!(status, 400);
    assert!(body_text(&body).contains("quantum"));
    let (status, _) = http(addr, "GET", "/no/such/route", b"");
    assert_eq!(status, 404);

    handle.stop();
}

#[test]
fn http_cancellation_stops_a_running_job() {
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers: 1,
            cache_entries: 4,
            ..ServiceConfig::default()
        },
    ));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let handle = server.spawn();
    let addr = handle.addr();

    let gfa = write_gfa(&generate(&PangenomeSpec::basic("cancel", 120, 4, 3)));
    // Enough iterations that only cancellation ends the job promptly.
    let (status, body) = http(
        addr,
        "POST",
        "/layout?engine=cpu&iters=100000&threads=1",
        gfa.as_bytes(),
    );
    assert_eq!(status, 202);
    let job = json_u64(&body_text(&body), "job").unwrap();

    // Wait until it is running, cancel, then confirm the terminal state.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/jobs/{job}"), b"");
        if body_text(&body).contains("\"state\":\"running\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, _) = http(addr, "POST", &format!("/jobs/{job}/cancel"), b"");
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/jobs/{job}"), b"");
        let text = body_text(&body);
        if text.contains("\"state\":\"cancelled\"") {
            break;
        }
        assert!(Instant::now() < deadline, "cancel never landed: {text}");
        std::thread::sleep(Duration::from_millis(5));
    }
    // No result for a cancelled job.
    let (status, _) = http(addr, "GET", &format!("/result/{job}"), b"");
    assert_eq!(status, 409);

    handle.stop();
}

/// Read exactly one HTTP response (status line + headers + a
/// Content-Length body) without consuming bytes of the next one, so a
/// connection can be reused. Returns (status, raw head, body).
fn read_response(stream: &mut TcpStream) -> (u16, String, Vec<u8>) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("read header byte");
        head.push(byte[0]);
        assert!(head.len() < 64 * 1024, "runaway response head");
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status code in {head:?}"));
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            if k.eq_ignore_ascii_case("content-length") {
                v.trim().parse().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, head, body)
}

/// Write one request on an existing connection (keep-alive by default),
/// head and body in a single write.
fn send_request(stream: &mut TcpStream, method: &str, path: &str, extra: &str, body: &[u8]) {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n{extra}\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    stream.write_all(&wire).unwrap();
    stream.flush().unwrap();
}

fn spawn_server(
    service: &Arc<LayoutService>,
    http_cfg: HttpConfig,
) -> rapid_pangenome_layout::service::ServerHandle {
    HttpServer::bind("127.0.0.1:0", Arc::clone(service))
        .expect("bind ephemeral")
        .with_config(http_cfg)
        .spawn()
}

fn small_service(workers: usize) -> Arc<LayoutService> {
    Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        ServiceConfig {
            workers,
            cache_entries: 8,
            ..ServiceConfig::default()
        },
    ))
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let service = small_service(1);
    let handle = spawn_server(
        &service,
        HttpConfig {
            max_conns: 4,
            keep_alive: Duration::from_secs(5),
            ..HttpConfig::default()
        },
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Three requests ride the same TCP connection.
    for _ in 0..3 {
        send_request(&mut stream, "GET", "/healthz", "", b"");
        let (status, head, body) = read_response(&mut stream);
        assert_eq!(status, 200, "{}", body_text(&body));
        assert!(
            head.to_lowercase().contains("connection: keep-alive"),
            "server advertises reuse: {head}"
        );
        assert!(head.to_lowercase().contains("keep-alive: timeout="));
    }

    // The metrics endpoint (request 4 on the same socket) has seen the
    // reuses and the per-route histogram.
    send_request(&mut stream, "GET", "/metrics", "", b"");
    let (status, _, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    let text = body_text(&body);
    assert!(text.contains("pgl_http_keepalive_reuses_total 3"), "{text}");
    assert!(
        text.contains("pgl_http_requests_total{route=\"/healthz\",class=\"2xx\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("pgl_http_request_duration_us_bucket{route=\"/healthz\",le=\"+Inf\"} 3"),
        "{text}"
    );
    assert!(
        text.contains("quantile=\"0.99\""),
        "quantiles derivable: {text}"
    );

    // `Connection: close` is honored: the server answers and hangs up.
    send_request(&mut stream, "GET", "/healthz", "Connection: close\r\n", b"");
    let (status, head, _) = read_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.to_lowercase().contains("connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "nothing follows a closed response");

    drop(stream);
    handle.stop();
}

/// Sequential keep-alive requests must not wait on the client's delayed
/// ACK. A server that writes a response's head and body separately
/// without `TCP_NODELAY` has Nagle hold the body until the head is
/// ACKed, about 40 ms per request on Linux; a sub-millisecond upload
/// should round-trip far faster. The median keeps one descheduled
/// request from failing the test.
#[test]
fn keep_alive_round_trips_do_not_wait_for_delayed_acks() {
    let service = small_service(1);
    let handle = spawn_server(&service, HttpConfig::default());
    // Each request leaves in one write with Nagle off, so only the
    // server's writes can stall a round trip.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let gfa = b"S\t1\tAC\nS\t2\tGT\nL\t1\t+\t2\t+\t0M\nP\tp\t1+,2+\t*\n";
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            send_request(&mut stream, "POST", "/v1/graphs", "", gfa);
            let (status, _, body) = read_response(&mut stream);
            let elapsed = t0.elapsed();
            assert!(
                status == 200 || status == 201,
                "{status}: {}",
                body_text(&body)
            );
            elapsed
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median keep-alive round trip {median:?} (all: {round_trips:?})"
    );

    drop(stream);
    handle.stop();
}

#[test]
fn overloaded_server_sheds_load_with_503_and_retry_after() {
    let service = small_service(1);
    // One handler thread and a one-slot queue: the third concurrent
    // connection must be shed.
    let handle = spawn_server(
        &service,
        HttpConfig {
            max_conns: 1,
            keep_alive: Duration::from_secs(1),
            ..HttpConfig::default()
        },
    );
    let addr = handle.addr();
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("load", 40, 2, 5)));
    let (first_half, second_half) = gfa.as_bytes().split_at(gfa.len() / 2);

    // Connection A occupies the only handler: full headers, half a body.
    let mut a = TcpStream::connect(addr).expect("connect A");
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    a.write_all(
        format!(
            "POST /layout?engine=cpu&iters=2&threads=1 HTTP/1.1\r\nHost: x\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            gfa.len()
        )
        .as_bytes(),
    )
    .unwrap();
    a.write_all(first_half).unwrap();
    a.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300)); // handler takes A

    // Connection B fills the single queue slot.
    let b = TcpStream::connect(addr).expect("connect B");
    std::thread::sleep(Duration::from_millis(150));

    // Connection C: queue full → immediate 503 from the acceptor, with
    // Retry-After, instead of hanging.
    let mut c = TcpStream::connect(addr).expect("connect C");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let (status, head, body) = read_response(&mut c);
    assert_eq!(status, 503, "{}", body_text(&body));
    assert!(head.contains("Retry-After:"), "{head}");
    assert!(body_text(&body).contains("overloaded"));

    // A finishes its upload and is served normally.
    a.write_all(second_half).unwrap();
    a.flush().unwrap();
    let (status, _, body) = read_response(&mut a);
    assert_eq!(status, 202, "{}", body_text(&body));
    assert!(body_text(&body).contains("\"job\""));

    drop(a);
    drop(b);
    drop(c);
    // The shed connection shows up in the stats.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http(addr, "GET", "/stats", b"");
        assert_eq!(status, 200);
        if json_u64(&body_text(&body), "rejected_503") == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "503 never counted");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.stop();
}

#[test]
fn disk_cache_hit_survives_a_server_restart() {
    let dir = std::env::temp_dir().join(format!("pgl_http_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServiceConfig {
        workers: 1,
        cache_entries: 8,
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let gfa = write_gfa(&generate(&PangenomeSpec::basic("disk", 50, 3, 9)));
    let post_path = "/layout?engine=cpu&iters=4&threads=1&seed=7";

    // First server computes the layout and spills it to the disk tier.
    let first_tsv = {
        let service = Arc::new(LayoutService::start(
            EngineRegistry::with_default_engines(),
            cfg(),
        ));
        let handle = spawn_server(&service, HttpConfig::default());
        let addr = handle.addr();
        let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
        assert_eq!(status, 202);
        let text = body_text(&body);
        assert!(text.contains("\"cached\":false"), "{text}");
        let job = json_u64(&text, "job").unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let (_, body) = http(addr, "GET", &format!("/jobs/{job}"), b"");
            let text = body_text(&body);
            if text.contains("\"state\":\"done\"") {
                break;
            }
            assert!(Instant::now() < deadline, "job never finished: {text}");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (status, tsv) = http(addr, "GET", &format!("/result/{job}"), b"");
        assert_eq!(status, 200);
        handle.stop();
        tsv
    }; // the whole first service (and its in-memory cache) is dropped here

    // A freshly started server answers the same request from the disk
    // tier without recomputation: the ticket is born cached.
    let service = Arc::new(LayoutService::start(
        EngineRegistry::with_default_engines(),
        cfg(),
    ));
    let handle = spawn_server(&service, HttpConfig::default());
    let addr = handle.addr();
    let (status, body) = http(addr, "POST", post_path, gfa.as_bytes());
    assert_eq!(status, 202);
    let text = body_text(&body);
    assert!(
        text.contains("\"cached\":true") && text.contains("\"state\":\"done\""),
        "restarted server hits the disk tier: {text}"
    );
    let job = json_u64(&text, "job").unwrap();
    let (status, tsv) = http(addr, "GET", &format!("/result/{job}"), b"");
    assert_eq!(status, 200);
    assert_eq!(tsv, first_tsv, "disk tier serves the identical layout");
    let (_, stats) = http(addr, "GET", "/stats", b"");
    assert_eq!(json_u64(&body_text(&stats), "disk_hits"), Some(1));

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stop_is_prompt_even_with_idle_keep_alive_connections() {
    let service = small_service(1);
    // A long idle timeout: stop() must not wait it out.
    let handle = spawn_server(
        &service,
        HttpConfig {
            max_conns: 2,
            keep_alive: Duration::from_secs(30),
            ..HttpConfig::default()
        },
    );
    let idle = TcpStream::connect(handle.addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(200)); // handler picks it up
    let t0 = Instant::now();
    handle.stop();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stop() blocked for {:?} behind an idle connection",
        t0.elapsed()
    );
    drop(idle);
}

#[test]
fn conflicting_content_length_headers_are_rejected() {
    let service = small_service(1);
    let handle = spawn_server(&service, HttpConfig::default());
    let addr = handle.addr();

    // Conflicting values: a request-smuggling probe → 400, no body read.
    let mut probe = TcpStream::connect(addr).expect("connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    probe
        .write_all(
            b"POST /layout HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\
              Content-Length: 6\r\nConnection: close\r\n\r\nabcd",
        )
        .unwrap();
    let (status, _, body) = read_response(&mut probe);
    assert_eq!(status, 400, "{}", body_text(&body));
    assert!(
        body_text(&body).contains("Content-Length"),
        "{}",
        body_text(&body)
    );

    // Identical duplicates are harmless and accepted (RFC 9112 §6.3).
    let gfa = "S\t1\tAC\nS\t2\tGT\nL\t1\t+\t2\t+\t0M\nP\tp\t1+,2+\t*\n";
    let mut dup = TcpStream::connect(addr).expect("connect");
    dup.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    dup.write_all(
        format!(
            "POST /layout?iters=2&threads=1 HTTP/1.1\r\nHost: x\r\nContent-Length: {len}\r\n\
             Content-Length: {len}\r\nConnection: close\r\n\r\n{gfa}",
            len = gfa.len()
        )
        .as_bytes(),
    )
    .unwrap();
    let (status, _, _) = read_response(&mut dup);
    assert_eq!(status, 202, "identical duplicates behave as one header");

    // Transfer-Encoding (the other smuggling vector) is refused too.
    let mut te = TcpStream::connect(addr).expect("connect");
    te.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    te.write_all(
        b"POST /layout HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\
          Connection: close\r\n\r\n0\r\n\r\n",
    )
    .unwrap();
    let (status, _, _) = read_response(&mut te);
    assert_eq!(status, 400);

    handle.stop();
}
