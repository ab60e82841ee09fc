//! Functional tests for the daemon: the happy path, warm sharing,
//! admission control, deadlines and coalescing.

use hgl_corpus::inject::elf_image;
use hgl_corpus::xen::{build_study, gen_study_binary, ExpectedOutcome, StudySpec};
use hgl_serve::{Client, Json, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hgl-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn status(resp: &Json) -> &str {
    resp.get("status").and_then(Json::as_str).unwrap_or("<missing>")
}

fn quick_config() -> ServeConfig {
    ServeConfig { workers: 2, ..ServeConfig::default() }
}

/// How long [`occupy_worker`]'s lift holds the worker.
const BUSY_MS: u64 = 2000;

/// Send a budget-bound study unit with a `deadline_ms` of [`BUSY_MS`]
/// from its own thread, and return once a worker has taken it off the
/// queue. The unit explores until its deadline or the state budget
/// stops it (about 0.6 s in a release build), so on a one-worker
/// daemon every request sent next waits in the queue or is shed,
/// however fast the connection threads parse frames.
fn occupy_worker<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    addr: &str,
) -> std::thread::ScopedJoinHandle<'s, Json> {
    let study = build_study(&StudySpec::mini(), 7);
    let unit = study
        .units
        .iter()
        .find(|u| u.expected == ExpectedOutcome::Timeout)
        .expect("the mini study has a budget-bound unit");
    let image = elf_image(&unit.binary);
    let busy_addr = addr.to_string();
    let busy = scope.spawn(move || {
        let mut c = Client::connect(&busy_addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
        c.lift(&image, Some(BUSY_MS), false).expect("busy response")
    });
    wait_for(addr, "a worker to take the budget-bound lift", |m| {
        server_counter(m, "admitted") == 1 && m.get("queue_depth").and_then(Json::as_u64) == Some(0)
    });
    busy
}

/// Poll the `metrics` op until `ready` holds.
fn wait_for(addr: &str, what: &str, ready: impl Fn(&Json) -> bool) {
    let mut c = Client::connect(addr).expect("connect");
    let give_up = Instant::now() + Duration::from_secs(60);
    loop {
        let m = c.metrics().expect("metrics");
        if ready(&m) {
            return;
        }
        assert!(Instant::now() < give_up, "gave up waiting for {what}: {m:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn server_counter(metrics: &Json, key: &str) -> u64 {
    metrics.get("server").and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn ping_metrics_and_shutdown() {
    let mut server = Server::bind("127.0.0.1:0", quick_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let pong = c.ping().expect("ping");
    assert_eq!(status(&pong), "ok");

    let m = c.metrics().expect("metrics");
    assert_eq!(status(&m), "ok");
    assert!(m.get("uptime_ms").and_then(Json::as_u64).is_some(), "{m:?}");
    assert!(m.get("server").is_some(), "{m:?}");
    assert!(m.get("solver_cache").is_some(), "{m:?}");

    let bye = c.shutdown().expect("shutdown");
    assert_eq!(status(&bye), "ok");
    server.join();
}

#[test]
fn lift_round_trip_and_full_report() {
    let mut server = Server::bind("127.0.0.1:0", quick_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let image = elf_image(&gen_study_binary(3, false));
    let resp = c.lift(&image, None, false).expect("lift");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("lifted").and_then(Json::as_bool), Some(true), "{resp:?}");
    assert!(resp.get("functions").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert!(resp.get("instructions").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert_eq!(resp.get("reject"), Some(&Json::Null));

    // full=true embeds the complete hgl-lift-v* report inline.
    let full = c.lift(&image, None, true).expect("full lift");
    let report = full.get("report").expect("embedded report");
    assert!(
        report.get("schema").and_then(Json::as_str).unwrap_or("").starts_with("hgl-lift"),
        "{full:?}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn lint_reports_severity_counts() {
    let mut server = Server::bind("127.0.0.1:0", quick_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let image = elf_image(&hgl_corpus::failures::callee_saved_clobber());
    let resp = c.lint(&image, true).expect("lint");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert!(resp.get("diags").and_then(Json::as_u64).is_some(), "{resp:?}");
    let report = resp.get("report").expect("embedded lint report");
    assert!(
        report.get("schema").and_then(Json::as_str).unwrap_or("").starts_with("hgl-lint"),
        "{resp:?}"
    );

    server.shutdown();
    server.join();
}

/// A lift frame of a real-sized image — 2 MiB, so 4 MiB of hex, under
/// both the payload and the frame cap — is read, parsed and answered
/// well within the client's timeout: the frame scan and the JSON reader
/// are linear in the frame size.
#[test]
fn large_frame_gets_a_structured_answer() {
    let mut server = Server::bind("127.0.0.1:0", quick_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(30))).expect("timeout");

    let mut image = elf_image(&gen_study_binary(3, false));
    image.resize(2 << 20, 0);
    let resp = c.lift(&image, None, false).expect("an answer within the timeout");
    assert_eq!(status(&resp), "ok", "{resp:?}");
    assert_eq!(resp.get("lifted").and_then(Json::as_bool), Some(true), "{resp:?}");

    server.shutdown();
    server.join();
}

/// Two frames sent in one write are answered back to back, and the
/// second answer leaves at once. Under Nagle's algorithm the daemon
/// would hold it until the client acknowledged the first, which a
/// client in delayed-ACK mode does only with its next frame or when
/// its delayed-ACK timer fires (40 ms on Linux).
#[test]
fn pipelined_answers_are_not_held_for_an_ack() {
    let mut server = Server::bind("127.0.0.1:0", quick_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(10))).expect("timeout");

    let mut waits = Vec::new();
    for i in 0..30u64 {
        let sent = Instant::now();
        let (a, b) = (2 * i, 2 * i + 1);
        c.send_line(&format!("{{\"id\":{a},\"op\":\"ping\"}}\n{{\"id\":{b},\"op\":\"ping\"}}"))
            .expect("send two frames");
        for id in [a, b] {
            let pong = c.recv().expect("pong");
            assert_eq!(pong.get("id").and_then(Json::as_u64), Some(id), "{pong:?}");
        }
        waits.push(sent.elapsed());
        // A gap under the delayed-ACK timer, as an open-loop client's.
        std::thread::sleep(Duration::from_millis(25));
    }
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(median < Duration::from_millis(20), "median {median:?}; all {waits:?}");

    server.shutdown();
    server.join();
}

#[test]
fn malformed_binary_is_answered_not_crashed() {
    let mut server = Server::bind("127.0.0.1:0", quick_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let resp = c.lift(b"this is not an elf image", None, false).expect("lift garbage");
    assert_eq!(status(&resp), "ok");
    assert_eq!(resp.get("lifted").and_then(Json::as_bool), Some(false), "{resp:?}");
    let reject = resp.get("reject").and_then(Json::as_str).unwrap_or("");
    assert!(reject.contains("MalformedBinary"), "{resp:?}");

    // The daemon is still alive and serving.
    assert_eq!(status(&c.ping().expect("ping after garbage")), "ok");
    server.shutdown();
    server.join();
}

#[test]
fn repeat_lifts_share_the_warm_cache_and_store() {
    let dir = tmpdir("warm");
    let config = ServeConfig { workers: 2, store_dir: Some(dir.clone()), ..ServeConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");

    let image = elf_image(&gen_study_binary(11, false));
    let cold = c.lift(&image, None, false).expect("cold lift");
    assert_eq!(cold.get("lifted").and_then(Json::as_bool), Some(true));
    let warm = c.lift(&image, None, false).expect("warm lift");
    assert_eq!(warm.get("lifted").and_then(Json::as_bool), Some(true));

    // Same structural result either way.
    for key in ["functions", "instructions", "states"] {
        assert_eq!(cold.get(key), warm.get(key), "{key} differs between cold and warm");
    }
    // And the shared state shows activity: the store holds artifacts
    // and served hits on the warm pass.
    let m = c.metrics().expect("metrics");
    let store = m.get("store").expect("store metrics");
    assert!(store.get("objects").and_then(Json::as_u64).unwrap_or(0) > 0, "{m:?}");
    assert!(store.get("hits").and_then(Json::as_u64).unwrap_or(0) > 0, "{m:?}");

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_degrades_to_partial_not_error() {
    let mut server = Server::bind("127.0.0.1:0", quick_config()).expect("bind");
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(30))).expect("timeout");

    let image = elf_image(&gen_study_binary(5, false));
    // deadline_ms=0: the budget is exhausted on the engine's first
    // check, so the response is a *structured partial* ("ok" with a
    // Timeout reject), or — if the watchdog wins the race — a
    // structured "deadline". Either way it is answered.
    let resp = c.lift(&image, Some(0), false).expect("zero-deadline lift");
    match status(&resp) {
        "ok" => {
            assert_eq!(resp.get("lifted").and_then(Json::as_bool), Some(false), "{resp:?}");
            let reject = resp.get("reject").and_then(Json::as_str).unwrap_or("");
            assert!(reject.contains("Timeout"), "{resp:?}");
        }
        "deadline" => {}
        other => panic!("unexpected status {other}: {resp:?}"),
    }

    // A generous deadline changes nothing about the result.
    let fine = c.lift(&image, Some(20_000), false).expect("generous deadline");
    assert_eq!(status(&fine), "ok");
    assert_eq!(fine.get("lifted").and_then(Json::as_bool), Some(true), "{fine:?}");

    server.shutdown();
    server.join();
}

#[test]
fn saturation_sheds_with_retry_hint() {
    // One busy worker, a tiny queue, and a pile of simultaneous
    // requests: the overflow must come back as `overloaded` with a
    // usable hint, and everything admitted must still be answered.
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();

    // Distinct binaries so coalescing cannot absorb the flood.
    let images: Vec<Vec<u8>> =
        (0..12).map(|i| elf_image(&gen_study_binary(100 + i, false))).collect();
    let barrier = Barrier::new(images.len());
    let answers: Vec<String> = std::thread::scope(|scope| {
        let busy = occupy_worker(scope, &addr);
        let handles: Vec<_> = images
            .iter()
            .map(|image| {
                let addr = addr.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
                    barrier.wait();
                    let resp = c.lift(image, None, false).expect("response");
                    let s = resp.get("status").and_then(Json::as_str).unwrap_or("?").to_string();
                    if s == "overloaded" {
                        assert!(
                            resp.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0) > 0,
                            "{resp:?}"
                        );
                    }
                    s
                })
            })
            .collect();
        let answers = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        busy.join().expect("busy client");
        answers
    });

    let ok = answers.iter().filter(|s| *s == "ok").count();
    let shed = answers.iter().filter(|s| *s == "overloaded").count();
    assert_eq!(ok + shed, answers.len(), "every request answered: {answers:?}");
    assert!(ok > 0, "some requests served: {answers:?}");
    assert!(shed > 0, "1 worker + queue of 2 must shed under 12 concurrent: {answers:?}");

    server.shutdown();
    server.join();
}

#[test]
fn identical_inflight_requests_coalesce() {
    // One slow worker; many clients ask for the same binary at once.
    // At most a few computations run; the rest attach as followers and
    // come back flagged `coalesced`.
    let config = ServeConfig { workers: 1, queue_capacity: 64, ..ServeConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();

    let image = elf_image(&gen_study_binary(42, true));
    // Connect first, release together: the requests must overlap the
    // leader's computation for followers to attach.
    let barrier = std::sync::Barrier::new(10);
    let responses: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..10)
            .map(|_| {
                let addr = addr.clone();
                let image = &image;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
                    barrier.wait();
                    c.lift(image, None, false).expect("response")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut coalesced = 0;
    for resp in &responses {
        assert_eq!(status(resp), "ok", "{resp:?}");
        assert_eq!(resp.get("lifted").and_then(Json::as_bool), Some(true), "{resp:?}");
        if resp.get("coalesced").and_then(Json::as_bool) == Some(true) {
            coalesced += 1;
        }
    }
    // All ten raced in before the single worker could finish the
    // leader, so at least some must have shared its computation. (The
    // exact count depends on scheduling; zero would mean coalescing is
    // broken.)
    let mut c = Client::connect(&addr).expect("connect");
    let m = c.metrics().expect("metrics");
    let server_counters = m.get("server").expect("server block");
    assert_eq!(
        server_counters.get("coalesced").and_then(Json::as_u64).unwrap_or(0),
        coalesced as u64,
        "{m:?}"
    );
    assert!(coalesced > 0, "identical concurrent requests must coalesce: {responses:?}");

    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_queued_requests_with_structured_answers() {
    let config = ServeConfig { workers: 1, queue_capacity: 64, ..ServeConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();

    // Queue work behind a lift that is still running, then shut down
    // mid-flight.
    let images: Vec<Vec<u8>> =
        (0..6).map(|i| elf_image(&gen_study_binary(200 + i, false))).collect();
    let answers: Vec<String> = std::thread::scope(|scope| {
        let busy = occupy_worker(scope, &addr);
        let handles: Vec<_> = images
            .iter()
            .map(|image| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut c = Client::connect(&addr).expect("connect");
                    c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
                    let resp = c.lift(image, None, false).expect("response");
                    resp.get("status").and_then(Json::as_str).unwrap_or("?").to_string()
                })
            })
            .collect();
        wait_for(&addr, "the six lifts to queue", |m| server_counter(m, "admitted") == 7);
        server.shutdown();
        let answers = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        busy.join().expect("busy client");
        answers
    });
    server.join();

    for s in &answers {
        assert!(
            s == "ok" || s == "shutting_down",
            "drained requests answer ok/shutting_down, got {answers:?}"
        );
    }
    assert!(answers.iter().any(|s| s == "shutting_down"), "{answers:?}");
}
