//! The daemon fault-injection campaign.
//!
//! One small daemon (2 workers, tiny queue, fault hooks enabled, a
//! live store) is bombarded concurrently with every failure mode the
//! protocol can meet:
//!
//! - malformed JSONL frames (garbage bytes, truncated JSON, wrong
//!   types, unknown ops, bad hex, oversized frames);
//! - corrupted ELF payloads (random byte-level faults from the corpus
//!   injector);
//! - mid-request disconnects (send a lift, slam the connection);
//! - panicking lifts (the `inject_panic` hook);
//! - deadline storms (floods of `deadline_ms: 0..5` requests);
//! - a store directory corrupted *under load*;
//! - honest traffic interleaved with all of the above.
//!
//! Success criteria, asserted at the end:
//!
//! 1. zero crashes — the daemon still answers, every worker is alive;
//! 2. totality — every request sent on a surviving connection got
//!    exactly one structured response;
//! 3. bounded state — the queue and in-flight table drain back to
//!    empty;
//! 4. integrity — honest traffic *after* the storm still lifts
//!    correctly and still hits the warm cache.

use hgl_corpus::inject::{elf_image, Fault};
use hgl_corpus::xen::gen_study_binary;
use hgl_serve::proto::hex_encode;
use hgl_serve::{Client, Json, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("hgl-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create temp dir");
    d
}

fn status(resp: &Json) -> String {
    resp.get("status").and_then(Json::as_str).unwrap_or("<missing>").to_string()
}

/// Every status the protocol is allowed to answer with.
fn is_structured(s: &str) -> bool {
    matches!(
        s,
        "ok" | "bad_request" | "overloaded" | "deadline" | "shutting_down" | "internal"
    )
}

#[test]
fn chaos_campaign() {
    let dir = tmpdir("campaign");
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        max_frame_bytes: 1 << 20,
        max_request_wall: Duration::from_secs(10),
        store_dir: Some(dir.clone()),
        enable_fault_injection: true,
    };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().to_string();

    let honest_image = elf_image(&gen_study_binary(1, false));

    // Warm the daemon once so post-storm integrity can check cache
    // reuse.
    {
        let mut c = Client::connect(&addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let r = c.lift(&honest_image, None, false).expect("warm-up lift");
        assert_eq!(status(&r), "ok");
    }

    let mut answered: usize = 0;

    // ---- wave 1: malformed frames, all on one surviving connection.
    {
        let mut c = Client::connect(&addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let frames = [
            "garbage that is not json",
            "{\"id\":1,\"op\":",
            "[1,2,3]",
            "\"a bare string\"",
            "{\"id\":2}",
            "{\"id\":3,\"op\":\"frobnicate\"}",
            "{\"id\":4,\"op\":\"lift\"}",
            "{\"id\":5,\"op\":\"lift\",\"binary\":\"zz\"}",
            "{\"id\":6,\"op\":\"lift\",\"binary\":\"abc\"}",
            "{\"id\":7,\"op\":\"lift\",\"binary\":\"00\",\"deadline_ms\":\"soon\"}",
            "{\"id\":8,\"op\":\"lift\",\"binary\":\"00\",\"full\":\"yes\"}",
        ];
        for frame in frames {
            c.send_line(frame).expect("send");
            let resp = c.recv().expect("structured answer to malformed frame");
            assert_eq!(status(&resp), "bad_request", "{frame} -> {resp:?}");
            answered += 1;
        }
        // An oversized frame is rejected and the connection survives.
        let huge = format!("{{\"id\":9,\"op\":\"lift\",\"binary\":\"{}\"}}", "00".repeat(700_000));
        assert!(huge.len() > 1 << 20);
        c.send_line(&huge).expect("send oversized");
        let resp = c.recv().expect("oversized answered");
        assert_eq!(status(&resp), "bad_request", "{resp:?}");
        answered += 1;
        // ...and the same connection still works for honest traffic.
        let pong = c.ping().expect("ping after malformed storm");
        assert_eq!(status(&pong), "ok");
        answered += 1;
    }

    // ---- wave 2: concurrent storm of everything at once.
    let waves: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();

        // Corrupted-ELF clients: random byte-level faults.
        for client_id in 0..3u64 {
            let addr = addr.clone();
            handles.push(scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ client_id);
                let mut c = Client::connect(&addr).expect("connect");
                c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
                let mut statuses = Vec::new();
                for i in 0..8 {
                    let mut image = elf_image(&gen_study_binary(50 + client_id * 8 + i, false));
                    Fault::random(&mut rng, image.len()).apply(&mut image);
                    let resp = c.lift(&image, Some(2_000), false).expect("corrupt lift answered");
                    statuses.push(status(&resp));
                }
                statuses
            }));
        }

        // Panicking lifts.
        {
            let addr = addr.clone();
            let image = honest_image.clone();
            handles.push(scope.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
                let mut statuses = Vec::new();
                for _ in 0..6 {
                    let resp = c
                        .request(
                            "lift",
                            &[
                                ("binary", Json::Str(hex_encode(&image))),
                                ("inject_panic", Json::Bool(true)),
                            ],
                        )
                        .expect("panicking lift answered");
                    statuses.push(status(&resp));
                }
                statuses
            }));
        }

        // Deadline storm: deadlines of 0..5 ms against real work.
        for client_id in 0..2u64 {
            let addr = addr.clone();
            handles.push(scope.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
                let mut statuses = Vec::new();
                for i in 0..10 {
                    let image = elf_image(&gen_study_binary(300 + client_id * 10 + i, false));
                    let resp =
                        c.lift(&image, Some(i % 5), false).expect("deadline-storm answered");
                    statuses.push(status(&resp));
                }
                statuses
            }));
        }

        // Mid-request disconnects: fire a lift, slam the socket.
        {
            let addr = addr.clone();
            let image = honest_image.clone();
            handles.push(scope.spawn(move || {
                for i in 0..6 {
                    let Ok(mut s) = TcpStream::connect(&addr) else { continue };
                    let frame = format!(
                        "{{\"id\":{i},\"op\":\"lift\",\"binary\":\"{}\"}}\n",
                        hex_encode(&image)
                    );
                    let _ = s.write_all(frame.as_bytes());
                    drop(s); // vanish before the answer
                }
                Vec::new()
            }));
        }

        // Honest traffic riding through the storm.
        {
            let addr = addr.clone();
            let image = honest_image.clone();
            handles.push(scope.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");
                let mut statuses = Vec::new();
                for _ in 0..6 {
                    let resp = c.lift(&image, None, false).expect("honest lift answered");
                    statuses.push(status(&resp));
                    std::thread::sleep(Duration::from_millis(5));
                }
                statuses
            }));
        }

        // Store corruption under load: replace published objects with
        // garbage and scatter crash-leftover tmp files while lifts are
        // in flight.
        {
            let dir = dir.clone();
            handles.push(scope.spawn(move || {
                for i in 0..10 {
                    if let Ok(entries) = std::fs::read_dir(&dir) {
                        for e in entries.flatten().take(3) {
                            let _ = std::fs::write(e.path(), b"corrupted under load");
                        }
                    }
                    let _ = std::fs::write(dir.join(format!("wreck-{i}.tmp77")), b"leftover");
                    std::thread::sleep(Duration::from_millis(10));
                }
                Vec::new()
            }));
        }

        handles
            .into_iter()
            .flat_map(|h| h.join().expect("chaos client thread survived"))
            .collect()
    });

    // Totality: every answered request carried a structured status.
    for s in &waves {
        assert!(is_structured(s), "unstructured status {s:?}");
    }
    answered += waves.len();
    assert!(answered >= 60, "campaign exercised enough traffic: {answered}");

    // ---- verdicts, on a fresh connection.
    let mut c = Client::connect(&addr).expect("post-storm connect");
    c.set_timeout(Some(Duration::from_secs(60))).expect("timeout");

    // 1. Zero crashes: all workers alive, daemon answering.
    let m = c.metrics().expect("post-storm metrics");
    assert_eq!(status(&m), "ok");
    assert_eq!(m.get("workers").and_then(Json::as_u64), Some(2), "all workers alive: {m:?}");
    let server_counters = m.get("server").expect("server block");
    let count = |key: &str| server_counters.get(key).and_then(Json::as_u64).unwrap_or(0);
    assert!(count("bad_frames") >= 12, "malformed wave counted: {m:?}");
    assert!(count("panics_isolated") >= 6, "every injected panic isolated: {m:?}");
    assert!(count("completed") > 0, "{m:?}");

    // 2. Bounded state: the daemon drained back to idle. (The
    //    in-flight table may lag the last response by a beat.)
    let mut drained = false;
    for _ in 0..50 {
        let m = c.metrics().expect("drain metrics");
        if m.get("queue_depth").and_then(Json::as_u64) == Some(0)
            && m.get("inflight").and_then(Json::as_u64) == Some(0)
        {
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(drained, "queue and inflight table must drain to empty");

    // 3. Integrity: honest traffic still works, and the store —
    //    corrupted mid-campaign — heals to recompute rather than
    //    serving garbage.
    let after = c.lift(&honest_image, None, false).expect("post-storm lift");
    assert_eq!(status(&after), "ok", "{after:?}");
    assert_eq!(after.get("lifted").and_then(Json::as_bool), Some(true), "{after:?}");

    let bye = c.shutdown().expect("shutdown");
    assert_eq!(status(&bye), "ok");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
