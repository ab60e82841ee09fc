//! The lifting daemon: a TCP acceptor, a bounded admission queue, a
//! worker pool multiplexing requests onto the parallel engine, and a
//! deadline watchdog.
//!
//! # Robustness invariants
//!
//! 1. **Totality** — every frame received produces exactly one
//!    response: parsed and executed (`ok` / `internal`), shed
//!    (`overloaded`), expired (`deadline`), drained (`shutting_down`)
//!    or rejected (`bad_request`). Nothing is silently dropped, and a
//!    malformed frame never closes the connection.
//! 2. **Isolation** — a request that panics inside the engine is
//!    caught at the worker (`catch_unwind`), answered with `internal`,
//!    and leaves the daemon fully operational. The engine additionally
//!    isolates per-function panics below that.
//! 3. **Bounded memory** — the admission queue, the per-connection
//!    read buffer, the binary payload size and the connection count
//!    are all capped; overload converts to `overloaded` responses with
//!    a retry hint, never to unbounded buffering.
//! 4. **Bounded latency** — every request gets a deadline: the tighter
//!    of the client's `deadline_ms` and the server ceiling. The
//!    deadline composes into the engine's wall-clock budget (a partial
//!    Hoare Graph with frontier annotations comes back, not an error),
//!    and a server-side watchdog answers for requests that overrun it
//!    anyway.
//!
//! # Sharing
//!
//! All requests share one solver [`QueryCache`] and (optionally) one
//! artifact [`Store`]: repeat lifts of a binary the daemon has seen
//! replay memoized verdicts and stored function artifacts. Identical
//! in-flight requests — same op, same payload digest, same report
//! shape — are *coalesced*: followers attach to the leader's
//! computation and receive its result, consuming no queue slot and no
//! worker.

use crate::proto::{
    error_response, one_line, overloaded_response, parse_request, response_head, write_frame, Op,
    Request,
};
use hgl_analysis::{analyze, Severity};
use hgl_core::lift::panic_message;
use hgl_core::{ArtifactStore, Lifter};
use hgl_elf::Binary;
use hgl_export::json::write_json_string;
use hgl_export::{export_json, export_lint_json};
use hgl_solver::QueryCache;
use hgl_store::sha256::sha256;
use hgl_store::Store;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum simultaneously served connections; excess connections
/// receive one `overloaded` frame and are closed.
const MAX_CONNECTIONS: usize = 256;

/// Watchdog slack past a request's deadline before the server answers
/// `deadline` on the worker's behalf. Covers the gap between the
/// engine's own (cooperative) budget checks.
const WATCHDOG_GRACE: Duration = Duration::from_millis(250);

/// Daemon configuration. The defaults are sized for a shared
/// development box. Tests and the chaos campaign shrink the worker
/// pool, the queue and the frame cap to saturate the daemon
/// deterministically; every request is lifted under
/// [`LiftConfig::default`](hgl_core::LiftConfig).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing lift/lint requests (`0` = one per
    /// available core).
    pub workers: usize,
    /// Admission-queue capacity; a full queue sheds with `overloaded`.
    pub queue_capacity: usize,
    /// Maximum bytes in one JSONL frame; longer frames are rejected
    /// with `bad_request` and the remainder of the line is discarded.
    pub max_frame_bytes: usize,
    /// Server-side ceiling on any request's lifetime. Composed with the
    /// client's `deadline_ms`: the effective deadline is the tighter of
    /// the two, so no request lives unbounded even if the client asks.
    pub max_request_wall: Duration,
    /// Persistent artifact store directory; `None` disables the store.
    pub store_dir: Option<PathBuf>,
    /// Honor the `inject_panic` test hook in requests. Off by default;
    /// the fault campaign turns it on.
    pub enable_fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_capacity: 64,
            max_frame_bytes: 64 << 20,
            max_request_wall: Duration::from_secs(30),
            store_dir: None,
            enable_fault_injection: false,
        }
    }
}

/// Server-side counters, all monotonic. Snapshot via the `metrics` op.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    frames: AtomicU64,
    bad_frames: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
    completed: AtomicU64,
    deadline_fired: AtomicU64,
    deadline_skipped: AtomicU64,
    panics_isolated: AtomicU64,
    drained: AtomicU64,
}

/// The write half of one request: first responder wins, every later
/// send is a silent no-op. This is what makes watchdog vs. worker vs.
/// drain races safe — a request is answered exactly once no matter who
/// gets there first.
struct Responder {
    /// Pre-serialised JSON of the client's `id`.
    id: String,
    writer: Arc<Mutex<TcpStream>>,
    responded: AtomicBool,
}

impl Responder {
    /// Send `line` if nobody has responded yet; returns whether this
    /// call won. Write errors (client went away) are swallowed: a dead
    /// peer must never take the worker down with it.
    fn send(&self, line: &str) -> bool {
        if self.responded.swap(true, Ordering::SeqCst) {
            return false;
        }
        send_line(&self.writer, line);
        true
    }

    fn is_responded(&self) -> bool {
        self.responded.load(Ordering::SeqCst)
    }
}

/// Coalescing key: op, report shape, fault hook, payload digest.
type CoalesceKey = (&'static str, bool, bool, [u8; 32]);

/// One in-flight computation; followers park here. `waiters` is only
/// ever touched under the `inflight` map lock, which is what makes
/// attach vs. drain race-free (an entry is drained only after it is
/// removed from the map, and attaching requires finding it there).
struct Inflight {
    /// The leader's *relative* budget. A follower may join only if its
    /// own budget is no larger — the leader's result is then at least
    /// as complete as the follower's own computation would have been.
    leader_rel: Duration,
    waiters: Mutex<Vec<Arc<Responder>>>,
}

/// A queued request.
struct Job {
    request: Request,
    deadline: Instant,
    responder: Arc<Responder>,
    /// The coalescing entry this job owns (leaders only): removed and
    /// drained at completion.
    entry: Option<(CoalesceKey, Arc<Inflight>)>,
}

struct Inner {
    config: ServeConfig,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    inflight: Mutex<HashMap<CoalesceKey, Arc<Inflight>>>,
    /// Watchdog subscriptions: (fire time, request). Weak, so a
    /// completed request's entry just evaporates.
    watch: Mutex<Vec<(Instant, Weak<Responder>)>>,
    cache: Arc<QueryCache>,
    store: Option<Store>,
    counters: Counters,
    started: Instant,
    conn_count: AtomicUsize,
    live_workers: AtomicUsize,
    /// EWMA of lift/lint service time in nanoseconds; feeds the
    /// `retry_after_ms` hint.
    ewma_service_ns: AtomicU64,
}

/// A running daemon. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] + [`Server::join`] (or a client `shutdown` op).
pub struct Server {
    inner: Arc<Inner>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let store = match &config.store_dir {
            Some(dir) => Some(Store::open(dir)?),
            None => None,
        };
        let workers = if config.workers == 0 {
            hgl_core::engine::default_workers()
        } else {
            config.workers
        };
        let inner = Arc::new(Inner {
            config,
            addr: local,
            shutting_down: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            watch: Mutex::new(Vec::new()),
            cache: Arc::new(QueryCache::new()),
            store,
            counters: Counters::default(),
            started: Instant::now(),
            conn_count: AtomicUsize::new(0),
            live_workers: AtomicUsize::new(workers),
            ewma_service_ns: AtomicU64::new(50_000_000),
        });

        let acceptor = {
            let inner = inner.clone();
            std::thread::spawn(move || inner.accept_loop(listener))
        };
        let worker_handles = (0..workers)
            .map(|_| {
                let inner = inner.clone();
                std::thread::spawn(move || {
                    inner.worker_loop();
                    inner.live_workers.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let watchdog = {
            let inner = inner.clone();
            std::thread::spawn(move || inner.watchdog_loop())
        };
        Ok(Server { inner, acceptor: Some(acceptor), workers: worker_handles, watchdog: Some(watchdog) })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Begin graceful shutdown: stop accepting, drain the queue with
    /// `shutting_down` responses, let in-flight requests finish.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Wait for the acceptor, workers and watchdog to exit.
    pub fn join(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

impl Inner {
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a wake-up connection; unblock the
        // workers via the condvar.
        let _ = TcpStream::connect(self.addr);
        self.queue_cv.notify_all();
    }

    // ------------------------------------------------------------------
    // Acceptor + connections
    // ------------------------------------------------------------------

    fn accept_loop(self: Arc<Inner>, listener: TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                // Only a draining (non-blocking) listener reports this:
                // the backlog is empty, so stop.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => continue,
            };
            // Once shutdown begins, keep serving the connections already
            // queued — dropping the listener would reset them with their
            // frames unread — and stop when the backlog is empty. Their
            // frames get `shutting_down` answers like any other.
            if self.shutting_down.load(Ordering::SeqCst) && listener.set_nonblocking(true).is_err() {
                return;
            }
            if self.conn_count.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                let mut s = stream;
                let _ = write_frame(&mut s, &overloaded_response("null", self.retry_after_ms()));
                continue;
            }
            self.conn_count.fetch_add(1, Ordering::SeqCst);
            self.counters.connections.fetch_add(1, Ordering::Relaxed);
            let inner = self.clone();
            std::thread::spawn(move || {
                inner.serve_connection(stream);
                inner.conn_count.fetch_sub(1, Ordering::SeqCst);
            });
        }
    }

    /// One connection: poll-read lines, answer each. Never propagates a
    /// panic and never errors the connection over a bad frame.
    fn serve_connection(self: &Arc<Inner>, stream: TcpStream) {
        // Streams accepted while draining may inherit the listener's
        // non-blocking mode on some platforms; reads rely on the timeout.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        // Every frame is one complete write, so Nagle's algorithm has
        // nothing to merge. It would hold an answer written while an
        // earlier one is unacknowledged until the client's next frame
        // carries the ACK; on a pipelined connection every later answer
        // would then wait one request gap as well.
        let _ = stream.set_nodelay(true);
        let writer = Arc::new(Mutex::new(match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        }));
        let mut reader = stream;
        let mut buf: Vec<u8> = Vec::new();
        // The prefix of `buf` already searched for a newline: each read
        // searches only the bytes it appended, so a frame is scanned once.
        let mut scanned = 0;
        let mut chunk = [0u8; 16 * 1024];
        // When a frame overruns `max_frame_bytes` we answer once and
        // then discard bytes until the next newline.
        let mut discarding = false;
        loop {
            let n = match reader.read(&mut chunk) {
                Ok(0) => return, // peer closed
                Ok(n) => n,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Close on shutdown only once the peer has gone quiet
                    // with no partial frame buffered: closing with sent
                    // bytes unread would reset the connection instead of
                    // answering them.
                    if self.shutting_down.load(Ordering::SeqCst) && buf.is_empty() {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            };
            buf.extend_from_slice(&chunk[..n]);
            loop {
                match buf[scanned..].iter().position(|&b| b == b'\n') {
                    Some(at) => {
                        let line: Vec<u8> = buf.drain(..=scanned + at).collect();
                        scanned = 0;
                        if discarding {
                            discarding = false;
                            continue;
                        }
                        let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                        let line = line.trim();
                        if !line.is_empty() {
                            self.handle_frame(line, &writer);
                        }
                    }
                    None if buf.len() > self.config.max_frame_bytes => {
                        if !discarding {
                            self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                            send_line(
                                &writer,
                                &error_response(
                                    "null",
                                    "bad_request",
                                    &format!(
                                        "frame exceeds {} bytes",
                                        self.config.max_frame_bytes
                                    ),
                                ),
                            );
                            discarding = true;
                        }
                        buf.clear();
                        scanned = 0;
                        break;
                    }
                    None => {
                        scanned = buf.len();
                        break;
                    }
                }
            }
        }
    }

    /// Parse, admit or answer one frame. Runs on the connection thread;
    /// only `lift`/`lint` ever leave it.
    fn handle_frame(self: &Arc<Inner>, line: &str, writer: &Arc<Mutex<TcpStream>>) {
        self.counters.frames.fetch_add(1, Ordering::Relaxed);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(bad) => {
                self.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                send_line(writer, &error_response(&bad.id, "bad_request", &bad.error));
                return;
            }
        };
        match req.op {
            Op::Ping => {
                send_line(writer, &(response_head(&req.id, "ok") + ",\"op\":\"ping\"}"));
            }
            Op::Metrics => {
                send_line(writer, &self.metrics_response(&req.id));
            }
            Op::Shutdown => {
                send_line(writer, &(response_head(&req.id, "ok") + ",\"op\":\"shutdown\"}"));
                self.begin_shutdown();
            }
            Op::Lift | Op::Lint => self.admit(req, writer),
        }
    }

    // ------------------------------------------------------------------
    // Admission control + coalescing
    // ------------------------------------------------------------------

    /// The relative budget a request gets: the client ask clamped by
    /// the server ceiling.
    fn relative_budget(&self, req: &Request) -> Duration {
        match req.deadline_ms {
            Some(ms) => Duration::from_millis(ms).min(self.config.max_request_wall),
            None => self.config.max_request_wall,
        }
    }

    /// Answer a frame that arrived while draining with `shutting_down`.
    fn refuse_draining(&self, id: &str, writer: &Arc<Mutex<TcpStream>>) {
        self.counters.drained.fetch_add(1, Ordering::Relaxed);
        send_line(writer, &error_response(id, "shutting_down", "daemon is draining"));
    }

    fn admit(self: &Arc<Inner>, req: Request, writer: &Arc<Mutex<TcpStream>>) {
        if self.shutting_down.load(Ordering::SeqCst) {
            self.refuse_draining(&req.id, writer);
            return;
        }
        let rel = self.relative_budget(&req);
        let deadline = Instant::now() + rel;
        let responder =
            Arc::new(Responder { id: req.id.clone(), writer: writer.clone(), responded: AtomicBool::new(false) });

        let key: CoalesceKey = (req.op.tag(), req.full, req.inject_panic, sha256(&req.binary));
        // Coalesce: attach to an identical in-flight computation when
        // its budget covers ours.
        {
            let inflight = self.inflight.lock().expect("inflight lock");
            if let Some(entry) = inflight.get(&key) {
                if entry.leader_rel >= rel {
                    entry.waiters.lock().expect("waiters lock").push(responder.clone());
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    self.watch_request(deadline, &responder);
                    return;
                }
            }
        }

        // Admission: a full queue sheds instead of buffering.
        {
            let mut queue = self.queue.lock().expect("queue lock");
            // Re-checked under the queue lock: workers exit only after
            // seeing the flag and an empty queue under this lock, so a
            // job pushed below is always executed or drained, never
            // stranded by a shutdown that began after the check above.
            if self.shutting_down.load(Ordering::SeqCst) {
                drop(queue);
                self.refuse_draining(&req.id, writer);
                return;
            }
            if queue.len() >= self.config.queue_capacity {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                drop(queue);
                send_line(writer, &overloaded_response(&req.id, self.retry_after_ms()));
                return;
            }
            // Become the coalescing leader (first writer wins; a racing
            // identical leader just runs uncoalesced).
            let entry = {
                let mut inflight = self.inflight.lock().expect("inflight lock");
                match inflight.entry(key) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        let e = Arc::new(Inflight { leader_rel: rel, waiters: Mutex::new(Vec::new()) });
                        v.insert(e.clone());
                        Some((key, e))
                    }
                    std::collections::hash_map::Entry::Occupied(_) => None,
                }
            };
            self.counters.admitted.fetch_add(1, Ordering::Relaxed);
            queue.push_back(Job { request: req, deadline, responder: responder.clone(), entry });
        }
        self.queue_cv.notify_one();
        self.watch_request(deadline, &responder);
    }

    /// How long a shed client should wait: queue drain time at the
    /// current service rate, clamped to something a client can use.
    fn retry_after_ms(&self) -> u64 {
        let depth = self.queue.lock().map(|q| q.len() as u64).unwrap_or(0).max(1);
        let ewma_ns = self.ewma_service_ns.load(Ordering::Relaxed);
        let workers = self.live_workers.load(Ordering::SeqCst).max(1) as u64;
        (depth * ewma_ns / workers / 1_000_000).clamp(10, 10_000)
    }

    // ------------------------------------------------------------------
    // Watchdog
    // ------------------------------------------------------------------

    fn watch_request(&self, deadline: Instant, responder: &Arc<Responder>) {
        self.watch
            .lock()
            .expect("watch lock")
            .push((deadline + WATCHDOG_GRACE, Arc::downgrade(responder)));
    }

    /// Fires `deadline` responses for requests that overran their
    /// deadline plus grace. Sweeps completed (dead-weak) entries.
    fn watchdog_loop(self: Arc<Inner>) {
        loop {
            if self.shutting_down.load(Ordering::SeqCst)
                && self.live_workers.load(Ordering::SeqCst) == 0
            {
                // Final sweep: anything still watched is answered now.
                let entries = std::mem::take(&mut *self.watch.lock().expect("watch lock"));
                for (_, weak) in entries {
                    if let Some(r) = weak.upgrade() {
                        if r.send(&error_response(&r.id, "shutting_down", "daemon is draining")) {
                            self.counters.drained.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                return;
            }
            let now = Instant::now();
            let mut fired = Vec::new();
            {
                let mut watch = self.watch.lock().expect("watch lock");
                watch.retain(|(fire_at, weak)| match weak.upgrade() {
                    None => false,
                    Some(r) if r.is_responded() => false,
                    Some(r) => {
                        if *fire_at <= now {
                            fired.push(r);
                            false
                        } else {
                            true
                        }
                    }
                });
            }
            for r in fired {
                if r.send(&error_response(
                    &r.id,
                    "deadline",
                    "deadline expired before completion",
                )) {
                    self.counters.deadline_fired.fetch_add(1, Ordering::Relaxed);
                }
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    // ------------------------------------------------------------------
    // Workers
    // ------------------------------------------------------------------

    fn worker_loop(self: &Arc<Inner>) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.shutting_down.load(Ordering::SeqCst) {
                        break None;
                    }
                    let (q, _) = self
                        .queue_cv
                        .wait_timeout(queue, Duration::from_millis(100))
                        .expect("queue wait");
                    queue = q;
                }
            };
            let Some(job) = job else { return };
            if self.shutting_down.load(Ordering::SeqCst) {
                self.drain_job(job);
                continue;
            }
            self.execute(job);
        }
    }

    /// Answer a queued job with `shutting_down` (graceful drain).
    fn drain_job(&self, job: Job) {
        let line = error_response(&job.responder.id, "shutting_down", "daemon is draining");
        if job.responder.send(&line) {
            self.counters.drained.fetch_add(1, Ordering::Relaxed);
        }
        for w in self.remove_entry(&job) {
            if w.send(&error_response(&w.id, "shutting_down", "daemon is draining")) {
                self.counters.drained.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Detach the job's coalescing entry (if it owns one) and return
    /// the waiters accumulated so far. After this, no new follower can
    /// attach.
    fn remove_entry(&self, job: &Job) -> Vec<Arc<Responder>> {
        let Some((key, _)) = &job.entry else { return Vec::new() };
        let mut inflight = self.inflight.lock().expect("inflight lock");
        match inflight.remove(key) {
            Some(entry) => std::mem::take(&mut *entry.waiters.lock().expect("waiters lock")),
            None => Vec::new(),
        }
    }

    /// Run one lift/lint job with panic isolation, then answer the
    /// leader and every coalesced follower.
    fn execute(self: &Arc<Inner>, job: Job) {
        // Deadline-storm fast path: if the watchdog already answered
        // the leader and no follower is waiting, skip the compute
        // entirely so a storm of expired requests can't occupy workers.
        if job.responder.is_responded() {
            let waiters = self.remove_entry(&job);
            if waiters.iter().all(|w| w.is_responded()) {
                self.counters.deadline_skipped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // A live follower still needs the result: compute anyway
            // (the expired leader's entry is already detached).
            let (status, fields) = self.outcome(&job);
            self.answer_followers(waiters, &status, &fields);
            return;
        }
        let started = Instant::now();
        let (status, fields) = self.outcome(&job);
        let service_ns = started.elapsed().as_nanos() as u64;
        let prev = self.ewma_service_ns.load(Ordering::Relaxed);
        self.ewma_service_ns.store(prev - prev / 8 + service_ns / 8, Ordering::Relaxed);

        // Remove the entry *before* answering so late followers start a
        // fresh computation instead of attaching to a drained one.
        let waiters = self.remove_entry(&job);
        let line = format!("{}{}{}", response_head(&job.responder.id, &status), fields, "}");
        if job.responder.send(&line) {
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        self.answer_followers(waiters, &status, &fields);
    }

    /// Run the job's handler with panic isolation: a panic becomes the
    /// `internal` status, with the panic message as its `error`.
    fn outcome(&self, job: &Job) -> (String, String) {
        catch_unwind(AssertUnwindSafe(|| self.handle(&job.request, job.deadline))).unwrap_or_else(
            |payload| {
                self.counters.panics_isolated.fetch_add(1, Ordering::Relaxed);
                let msg = panic_message(payload);
                let mut fields = String::from(",\"error\":");
                write_json_string(&format!("request panicked (isolated): {msg}"), &mut fields);
                ("internal".to_string(), fields)
            },
        )
    }

    /// Answer every coalesced follower with the leader's outcome.
    fn answer_followers(&self, waiters: Vec<Arc<Responder>>, status: &str, fields: &str) {
        for w in waiters {
            let line = format!(
                "{}{}{}",
                response_head(&w.id, status),
                fields,
                ",\"coalesced\":true}"
            );
            if w.send(&line) {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Request handlers
    // ------------------------------------------------------------------

    /// Execute a lift or lint. Returns `(status, extra response fields)`
    /// where the fields string starts with `,`.
    fn handle(&self, req: &Request, deadline: Instant) -> (String, String) {
        if req.inject_panic && self.config.enable_fault_injection {
            panic!("injected request panic (fault campaign)");
        }
        let bin = match Binary::parse(&req.binary) {
            Ok(bin) => bin,
            Err(e) => {
                let mut fields = String::from(",\"lifted\":false,\"reject\":");
                write_json_string(&format!("MalformedBinary: {e}"), &mut fields);
                return ("ok".to_string(), fields);
            }
        };
        let started = Instant::now();
        let lifter = Lifter::new(&bin)
            .with_cache(self.cache.clone())
            .with_deadline(deadline);
        let lifter = match &self.store {
            Some(store) => lifter.with_store(store as &dyn ArtifactStore),
            None => lifter,
        };
        let report = lifter.lift_all();
        let elapsed_ms = started.elapsed().as_millis() as u64;

        let r = &report.result;
        let lifted_fns = r.functions.values().filter(|f| f.is_lifted()).count();
        let mut fields = format!(
            ",\"lifted\":{},\"functions\":{},\"lifted_functions\":{},\"instructions\":{},\
             \"states\":{},\"roots\":{},\"elapsed_ms\":{}",
            r.is_lifted(),
            r.functions.len(),
            lifted_fns,
            r.instruction_count(),
            r.state_count(),
            report.roots.len(),
            elapsed_ms,
        );
        match r.reject_reason() {
            Some(reason) => {
                fields.push_str(",\"reject\":");
                write_json_string(&format!("{reason:?}"), &mut fields);
            }
            None => fields.push_str(",\"reject\":null"),
        }

        match req.op {
            Op::Lift => {
                if req.full {
                    fields.push_str(",\"report\":");
                    fields.push_str(&one_line(&export_json(r)));
                }
            }
            Op::Lint => {
                let analysis = analyze(&bin, r);
                fields.push_str(&format!(
                    ",\"diags\":{},\"errors\":{},\"warnings\":{},\"infos\":{}",
                    analysis.diags.len(),
                    analysis.count(Severity::Error),
                    analysis.count(Severity::Warning),
                    analysis.count(Severity::Info),
                ));
                if req.full {
                    fields.push_str(",\"report\":");
                    fields.push_str(&one_line(&export_lint_json(&analysis)));
                }
            }
            Op::Ping | Op::Metrics | Op::Shutdown => unreachable!("control ops never reach a worker"),
        }
        ("ok".to_string(), fields)
    }

    /// The `metrics` op: server counters + shared cache + store.
    fn metrics_response(&self, id: &str) -> String {
        let c = &self.counters;
        let mut out = response_head(id, "ok");
        out.push_str(&format!(
            ",\"uptime_ms\":{},\"queue_depth\":{},\"inflight\":{},\"workers\":{},\
             \"ewma_service_ms\":{}",
            self.started.elapsed().as_millis(),
            self.queue.lock().map(|q| q.len()).unwrap_or(0),
            self.inflight.lock().map(|m| m.len()).unwrap_or(0),
            self.live_workers.load(Ordering::SeqCst),
            self.ewma_service_ns.load(Ordering::Relaxed) / 1_000_000,
        ));
        out.push_str(&format!(
            ",\"server\":{{\"connections\":{},\"frames\":{},\"bad_frames\":{},\"admitted\":{},\
             \"shed\":{},\"coalesced\":{},\"completed\":{},\"deadline_fired\":{},\
             \"deadline_skipped\":{},\"panics_isolated\":{},\"drained\":{}}}",
            c.connections.load(Ordering::Relaxed),
            c.frames.load(Ordering::Relaxed),
            c.bad_frames.load(Ordering::Relaxed),
            c.admitted.load(Ordering::Relaxed),
            c.shed.load(Ordering::Relaxed),
            c.coalesced.load(Ordering::Relaxed),
            c.completed.load(Ordering::Relaxed),
            c.deadline_fired.load(Ordering::Relaxed),
            c.deadline_skipped.load(Ordering::Relaxed),
            c.panics_isolated.load(Ordering::Relaxed),
            c.drained.load(Ordering::Relaxed),
        ));
        let cs = self.cache.stats();
        out.push_str(&format!(
            ",\"solver_cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"hit_rate\":{:.4}}}",
            cs.hits,
            cs.misses,
            cs.entries,
            cs.hit_rate(),
        ));
        if let Some(store) = &self.store {
            let ss = store.stats();
            out.push_str(&format!(
                ",\"store\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"tmp_swept\":{},\
                 \"write_retries\":{},\"write_failures\":{},\"objects\":{}}}",
                ss.hits,
                ss.misses,
                ss.inserts,
                ss.tmp_swept,
                ss.write_retries,
                ss.write_failures,
                store.object_count(),
            ));
        }
        out.push('}');
        out
    }
}

/// Best-effort write of one response line; errors (dead peer) are
/// dropped on the floor by design.
fn send_line(writer: &Arc<Mutex<TcpStream>>, line: &str) {
    if let Ok(mut w) = writer.lock() {
        let _ = write_frame(&mut *w, line);
    }
}
