//! `serve_open`: an in-process daemon on loopback with a store
//! directory, as `hgl serve --store` deploys it, driven open-loop over
//! one pipelined connection. A sender thread writes each frame with one
//! `write` on a `TCP_NODELAY` socket; the calling thread receives.
//!
//! Frames go out on a fixed schedule at [`NOMINAL_RPS`], a rate the
//! parent commit sustains, and each latency is timed from the frame's
//! due time, so a stall also charges the requests queued behind it. A
//! request fails on any status other than `ok` or when it is never
//! answered.
//!
//! At this commit an answer's last byte waits for the ACK that the next
//! frame carries, so latencies sit near one request gap. The end-to-end
//! figures of this workload therefore do not move for a service-time
//! regression smaller than one gap; `serve.service_ms` does.

use crate::report::{digest, mix, percentile, PassReport};
use crate::trace::span;
use crate::PassOpts;
use hgl_corpus::inject::elf_image;
use hgl_corpus::xen::gen_study_binary;
use hgl_serve::{hex_encode, Json, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests per second.
const NOMINAL_RPS: f64 = 32.0;
/// Share of `--seconds` the schedule lasts.
const NOMINAL_SHARE: f64 = 0.8;
/// A generator more than this late (p95) invalidates the run.
const LAG_LIMIT_MS: f64 = 5.0;
/// How long after the last due time unanswered frames are waited for.
const DRAIN: Duration = Duration::from_secs(5);
/// Set-ups per pass; `setup_s` is their median.
const SETUPS: usize = 5;
/// Shares of the request mix, in percent: first-seen binaries and
/// `lint` ops; the rest repeat a binary sent before. These shares are an
/// assumption, not a measured deployment: a build server or CI fleet
/// (the daemon's use case in the top-level README) re-lifts binaries it
/// has seen, and no document gives the proportions. The measured share
/// of repeats and of their functions served from the store are the
/// per-layer `serve.repeat_share` and `serve.store_hit_share`.
const P_COLD: u64 = 40;
const P_LINT: u64 = 15;

/// One scheduled request.
struct Req {
    due: Duration,
    lint: bool,
    /// Its binary was sent before.
    repeat: bool,
    frame: Vec<u8>,
}

/// How one request went.
#[derive(Default, Clone)]
struct Answer {
    sent: Option<Instant>,
    recv: Option<Instant>,
    ok: bool,
    elapsed_ms: f64,
    functions: u64,
    coalesced: bool,
}

/// The seeded stream of inputs: binary images in first-seen order, hex
/// encoded once, and the request mix drawn over them.
struct Mix {
    seed: u64,
    hex: Vec<String>,
}

impl Mix {
    fn image(&mut self, idx: usize) -> &str {
        while self.hex.len() <= idx {
            let i = self.hex.len() as u64;
            // Both study shapes, so frame sizes (and parse cost) vary.
            let bin = span("corpus.gen_study_binary", i, || {
                gen_study_binary(mix(self.seed, i), !i.is_multiple_of(3))
            });
            let img = elf_image(&bin);
            self.hex
                .push(span("serve.hex_encode", i, || hex_encode(&img)));
        }
        &self.hex[idx]
    }

    /// `n` requests due `1/rate` seconds apart, ids from 0.
    fn schedule(&mut self, rate: f64, n: f64) -> Vec<Req> {
        (0..n.round() as u64)
            .map(|id| {
                let draw = mix(self.seed ^ 0x5eed, id);
                let seen = self.hex.len();
                let roll = draw % 100;
                // A first-seen binary, or a lint or a repeat of one seen.
                let repeat = seen > 0 && roll >= P_COLD;
                let idx = if repeat {
                    (draw >> 8) as usize % seen
                } else {
                    seen
                };
                let lint = repeat && roll < P_COLD + P_LINT;
                let op = if lint { "lint" } else { "lift" };
                let frame = format!(
                    "{{\"id\":{id},\"op\":\"{op}\",\"binary\":\"{}\"}}\n",
                    self.image(idx)
                );
                Req {
                    due: Duration::from_secs_f64(id as f64 / rate),
                    lint,
                    repeat,
                    frame: frame.into_bytes(),
                }
            })
            .collect()
    }
}

/// Sends `reqs` open-loop at their due times on a fresh connection and
/// collects the answers. Returns the time origin with the answers:
/// request `j` (id `j`) was due at `t0 + reqs[j].due`.
fn run_schedule(addr: SocketAddr, reqs: &[Req]) -> (Instant, Vec<Answer>) {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut writer = stream.try_clone().expect("clone socket");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream);
    let mut answers = vec![Answer::default(); reqs.len()];
    let t0 = Instant::now() + Duration::from_millis(20);
    let last_due = reqs.last().map_or(Duration::ZERO, |r| r.due);
    let give_up = t0 + last_due + DRAIN;
    let sent: Vec<Instant> = std::thread::scope(|s| {
        // The sender never waits for answers, so it finishes on its own
        // schedule whatever the daemon does.
        let sender = s.spawn(|| {
            span("bench.sender", 0, || {
                reqs.iter()
                    .enumerate()
                    .map(|(j, r)| {
                        let due = t0 + r.due;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let at = Instant::now();
                        span("serve.write", j as u64, || writer.write_all(&r.frame))
                            .expect("send frame");
                        at
                    })
                    .collect()
            })
        });
        let mut pending = reqs.len();
        // A read that times out mid-line keeps its bytes in `line`;
        // only a complete line is consumed.
        let mut line = Vec::new();
        while pending > 0 && Instant::now() < give_up {
            match span("serve.read", 0, || reader.read_until(b'\n', &mut line)) {
                Ok(0) => break,
                Ok(_) if line.ends_with(b"\n") => {}
                Ok(_) => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(e) => panic!("daemon connection failed: {e}"),
            }
            let recv = Instant::now();
            let text = String::from_utf8_lossy(&line).into_owned();
            line.clear();
            let doc =
                span("bench.check", 0, || Json::parse(text.trim())).expect("daemon answers json");
            let Some(a) = doc
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|j| answers.get_mut(j as usize))
            else {
                continue;
            };
            if a.recv.is_none() {
                pending -= 1;
            }
            a.recv = Some(recv);
            a.ok = doc.get("status").and_then(Json::as_str) == Some("ok");
            a.elapsed_ms = doc.get("elapsed_ms").and_then(Json::as_u64).unwrap_or(0) as f64;
            a.functions = doc.get("functions").and_then(Json::as_u64).unwrap_or(0);
            a.coalesced = doc.get("coalesced").and_then(Json::as_bool) == Some(true);
        }
        sender.join().expect("sender thread")
    });
    for (a, s) in answers.iter_mut().zip(sent) {
        a.sent = Some(s);
    }
    (t0, answers)
}

/// Milliseconds from due time to answer (None when unanswered).
fn latency_ms(t0: Instant, r: &Req, a: &Answer) -> Option<f64> {
    a.recv.map(|recv| (recv - (t0 + r.due)).as_secs_f64() * 1e3)
}

pub fn pass(o: &PassOpts) -> PassReport {
    let mut r = PassReport::default();
    let mut setups = Vec::new();
    let mut built = None;
    for k in 0..SETUPS {
        // Earlier set-ups are timed and discarded; the last one serves.
        drop(built.take());
        let started = Instant::now();
        let mut m = Mix {
            seed: o.seed,
            hex: Vec::new(),
        };
        let reqs = m.schedule(NOMINAL_RPS, NOMINAL_RPS * NOMINAL_SHARE * o.seconds);
        let dir = o.work_dir.join(format!("serve-store-{k}"));
        let config = ServeConfig {
            store_dir: Some(dir),
            ..ServeConfig::default()
        };
        let server =
            span("serve.bind", 0, || Server::bind("127.0.0.1:0", config)).expect("bind daemon");
        setups.push(started.elapsed().as_secs_f64());
        built = Some((reqs, server));
    }
    let (mut reqs, mut server) = built.expect("at least one set-up");
    r.setup_s = crate::report::median(&setups);
    if o.plant {
        // The planted case: one more frame, on the schedule, with an op
        // the daemon does not know. It answers `bad_request`, which the
        // check below must count.
        let id = reqs.len();
        reqs.push(Req {
            due: Duration::from_secs_f64(id as f64 / NOMINAL_RPS),
            lint: false,
            repeat: false,
            frame: format!("{{\"id\":{id},\"op\":\"planted\"}}\n").into_bytes(),
        });
    }
    // Every frame carries its binary, so hashing the frames covers all
    // the inputs.
    r.digest = digest(reqs.iter().map(|q| q.frame.as_slice()));
    let addr = server.local_addr();

    let work = Instant::now();
    let (t0, answers) = span("serve.nominal", 0, || run_schedule(addr, &reqs));
    r.work_s = work.elapsed().as_secs_f64();
    let mut lags = Vec::new();
    let mut lint = Vec::new();
    let (mut service, mut wait) = (0.0, 0.0);
    let mut repeat_fns = 0;
    for (q, a) in reqs.iter().zip(&answers) {
        r.attempted += 1;
        let Some(lat) = latency_ms(t0, q, a).filter(|_| a.ok) else {
            r.failed += 1;
            continue;
        };
        r.ops_ms.push(lat);
        let sent = a.sent.expect("sent");
        lags.push((sent - (t0 + q.due)).as_secs_f64() * 1e3);
        let round_trip = (a.recv.expect("answered") - sent).as_secs_f64() * 1e3;
        service += a.elapsed_ms;
        wait += (round_trip - a.elapsed_ms).max(0.0);
        if q.lint {
            lint.push(lat);
        }
        if q.repeat && !a.coalesced {
            repeat_fns += a.functions;
        }
    }
    // Goodput at the offered load: it falls below the offered rate only
    // when the daemon cannot keep up.
    let last = answers.iter().filter(|a| a.ok).filter_map(|a| a.recv).max();
    r.rate_num = r.ops_ms.len() as f64;
    r.rate_den = last.map_or(f64::INFINITY, |l| (l - t0).as_secs_f64());
    let lag_p95 = percentile(&lags, 0.95);
    if lag_p95 > LAG_LIMIT_MS {
        eprintln!(
            "serve_open: INVALID run: generator ran {lag_p95:.2} ms late (p95) at the nominal rate"
        );
        std::process::exit(3);
    }

    let metrics = span("serve.metrics", 0, || daemon_metrics(addr));
    let field = |block: &str, k: &str| {
        metrics
            .get(block)
            .and_then(|s| s.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    r.add("serve.shed", field("server", "shed"));
    r.add("serve.coalesced", field("server", "coalesced"));
    r.add("serve.deadline_fired", field("server", "deadline_fired"));
    r.add("solver.hits", field("solver_cache", "hits"));
    r.add("solver.misses", field("solver_cache", "misses"));
    r.add("store.hits", field("store", "hits"));
    r.add("store.inserts", field("store", "inserts"));
    let repeats = reqs.iter().filter(|q| q.repeat).count();
    r.add(
        "serve.repeat_share",
        repeats as f64 / reqs.len().max(1) as f64,
    );
    r.add(
        "serve.store_hit_share",
        field("store", "hits") / repeat_fns.max(1) as f64,
    );
    let answered = r.ops_ms.len().max(1) as f64;
    r.add("serve.service_ms", service / answered);
    r.add("serve.wait_ms", wait / answered);
    r.add("serve.gen_lag_ms", lag_p95);
    r.add("serve.lint_p50_ms", percentile(&lint, 0.5));
    span("serve.shutdown", 0, || {
        server.shutdown();
        server.join();
    });
    r
}

/// The daemon's own counters, through its `metrics` op.
fn daemon_metrics(addr: SocketAddr) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .write_all(b"{\"id\":0,\"op\":\"metrics\"}\n")
        .expect("send metrics op");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read metrics");
    Json::parse(line.trim()).expect("metrics answer is json")
}
