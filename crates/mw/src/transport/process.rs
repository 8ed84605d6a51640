//! Multi-process master–worker execution: a pool of real worker *processes*
//! connected over Unix-domain sockets, and a [`SamplingBackend`] that ships
//! stream extensions to them over the wire format of [`super::frame`].
//!
//! # Supervision (DESIGN.md §9, over a wire)
//!
//! Worker death shows up as socket EOF or a broken pipe; the pool reaps the
//! child, respawns a fresh incarnation while the respawn budget lasts, and
//! reports every job that was riding the dead link as lost so the backend
//! can re-dispatch from its master-side backups — bit-identically, because
//! the backups carry the RNG state. When the budget is exhausted and no
//! worker is alive the pool is *failed* and the backend degrades to inline
//! execution, surfacing through [`SamplingBackend::degraded`] and
//! `mw.backend.degraded`.
//!
//! Retry, per-attempt deadlines, hedging and degradation live in the
//! dispatch loop shared with the threaded backend (`crate::dispatch`);
//! this file supplies the socket side of it (the `Link` impl for
//! [`ProcessPool`]). Unlike threads, a wire cannot distinguish a lost frame
//! from a slow worker, so the socket link always brings a per-attempt
//! deadline: [`RetryPolicy::timeout`] when set, [`DEFAULT_ATTEMPT_TIMEOUT`]
//! otherwise.
//!
//! # Service-level resilience (DESIGN.md §16)
//!
//! Two policies from [`crate::resilience`] harden the transport beyond
//! crash recovery, and the shared loop adds straggler hedging:
//!
//! * **Heartbeat liveness** (`NSX_HEARTBEAT`, on by default): the pool
//!   sends a `Ping` frame on any link silent past the interval; a link
//!   whose ping goes unanswered past the timeout is buried and its jobs
//!   re-dispatched, so a wedged worker or half-dead socket is detected in
//!   bounded time instead of wedging a rendezvous until the attempt
//!   timeout.
//! * **Reconnect backoff** (`NSX_RESPAWN_BACKOFF`, on by default): repeated
//!   respawns of one slot are deferred by a jittered exponential delay —
//!   skipped, not slept, so no caller blocks — with dispatch allowed to
//!   force past the deferral as a last resort rather than degrade inline.
//! * **Straggler hedging** (`NSX_HEDGE`, off by default): a job in flight
//!   past a P²-tracked latency quantile is speculatively re-dispatched from
//!   its master-side backup to another worker; first answer wins, the loser
//!   is forgotten. Because both legs run the identical stream clone, the
//!   result bits cannot differ — hedging trims tail latency only.
//!
//! # Determinism
//!
//! Streams cross the wire via `save_state`/`load_state`, which are
//! bit-exact; workers run the same `extend` the master would. Submission
//! order is preserved by slot bookkeeping on the master. Therefore
//! `NSX_TRANSPORT=process` results are `f64::to_bits`-identical to inproc
//! and serial runs — the property `dist_scaleup` and the distributed CI
//! legs assert.
//!
//! Streams whose type has no [`SampleStream::wire_id`] cannot be expressed
//! on the wire; the link reports them unsupported and they run in-process
//! (counted in `mw.transport.inline_jobs`). That is a capability limit, not
//! a fault, so it does **not** set the degraded flag. A job a worker refuses
//! runs inline the same way (`mw.transport.unsupported`), and an
//! undecodable result counts as a lost copy.

use super::worker::{ensure_linked, WORKER_FAULTS_ENV, WORKER_SOCKET_ENV};
use super::{wire, FaultedTransport, Frame, FrameKind, SocketTransport, Transport, TransportError};
use crate::backend::{hardware_threads, workers_setting};
use crate::dispatch::{Dispatcher, LegId, Link, Outcome, Shipped};
use crate::faults::FaultPlan;
use crate::pool::{default_respawn_budget, RetryPolicy};
use crate::resilience::{BackoffPolicy, HeartbeatPolicy, HedgePolicy};
use obs::{Counter, MetricsRegistry};
use std::collections::HashMap;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use stoch_eval::backend::{SamplingBackend, StreamJob};
use stoch_eval::codec::{Reader, Writer};
use stoch_eval::objective::SampleStream;

/// Per-attempt timeout when [`RetryPolicy::timeout`] is `None`. A dropped
/// frame produces no disconnect — only silence — so the process transport
/// cannot run without an attempt deadline.
pub const DEFAULT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(5);

/// How long to wait for a spawned worker to connect and say `Hello`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `Drop` waits for workers to exit after `Shutdown` before
/// killing them.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(500);

/// Cap on one blocking wait inside [`ProcessPool::collect`]. The wait
/// targets a single link, so this bounds how long a frame arriving on a
/// *different* link can sit in the kernel before the next nonblocking sweep
/// picks it up.
const WAIT_SLICE: Duration = Duration::from_millis(5);

/// Uniquifies socket paths across pools within one master process.
static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Wire/transport metric handles. Names: `mw.transport.frames_sent`,
/// `frames_received`, `bytes_sent`, `bytes_received`, `corrupt`,
/// `reconnects`, `stale`, `unsupported`, `inline_jobs`,
/// `heartbeat_deaths`. The retry, hedge and degradation series belong to
/// the dispatch loop.
struct TransportObs {
    frames_sent: Arc<Counter>,
    frames_received: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_received: Arc<Counter>,
    corrupt: Arc<Counter>,
    reconnects: Arc<Counter>,
    stale: Arc<Counter>,
    unsupported: Arc<Counter>,
    inline_jobs: Arc<Counter>,
    heartbeat_deaths: Arc<Counter>,
}

impl TransportObs {
    fn register(registry: &MetricsRegistry) -> Self {
        TransportObs {
            frames_sent: registry.counter("mw.transport.frames_sent"),
            frames_received: registry.counter("mw.transport.frames_received"),
            bytes_sent: registry.counter("mw.transport.bytes_sent"),
            bytes_received: registry.counter("mw.transport.bytes_received"),
            corrupt: registry.counter("mw.transport.corrupt"),
            reconnects: registry.counter("mw.transport.reconnects"),
            stale: registry.counter("mw.transport.stale"),
            unsupported: registry.counter("mw.transport.unsupported"),
            inline_jobs: registry.counter("mw.transport.inline_jobs"),
            heartbeat_deaths: registry.counter("mw.transport.heartbeat_deaths"),
        }
    }
}

/// What the pool knows about one job seq it accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollOutcome {
    /// The worker answered with a result payload (see `wire::decode_result`).
    Result(Vec<u8>),
    /// The worker refused the job with a typed error message (unknown wire
    /// id, undecodable state). The job itself is intact master-side.
    Refused(String),
    /// The link carrying the job died before answering. Re-dispatch.
    Lost,
}

/// One master⇄worker-process link.
struct WorkerLink {
    transport: Option<FaultedTransport<SocketTransport>>,
    child: Option<Child>,
    incarnation: u32,
    /// Seqs dispatched on this link and not yet resolved or forgotten.
    pending: Vec<u64>,
    /// When the last frame arrived on this link (liveness evidence).
    last_heard: Instant,
    /// An unanswered heartbeat probe: `(ping seq, when it was sent)`.
    outstanding_ping: Option<(u64, Instant)>,
    /// Respawn deferral gate ([`BackoffPolicy`]); `None` when the slot is
    /// not waiting out a backoff.
    not_before: Option<Instant>,
}

impl WorkerLink {
    fn vacant() -> Self {
        WorkerLink {
            transport: None,
            child: None,
            incarnation: 0,
            pending: Vec::new(),
            last_heard: Instant::now(),
            outstanding_ping: None,
            not_before: None,
        }
    }
}

struct Inner {
    workers: Vec<WorkerLink>,
    respawn_budget: u64,
    next_seq: u64,
    rr: usize,
    failed: bool,
    /// Outcomes drained off the sockets (or synthesized on link death) that
    /// no caller has claimed yet, keyed by seq.
    completed: HashMap<u64, PollOutcome>,
}

/// A supervised pool of worker processes. Jobs are opaque payload byte
/// vectors (the [`wire`] job schema); results come back keyed by the seq
/// assigned at submission.
pub struct ProcessPool {
    inner: Mutex<Inner>,
    faults: FaultPlan,
    obs: Option<TransportObs>,
    /// Ping/Pong liveness schedule (`NSX_HEARTBEAT`, DESIGN.md §16).
    heartbeat: HeartbeatPolicy,
    /// Respawn deferral schedule (`NSX_RESPAWN_BACKOFF`, DESIGN.md §16).
    backoff: BackoffPolicy,
}

impl ProcessPool {
    /// Spawn `n_workers` worker processes (re-executions of the current
    /// binary — see [`super::worker`]). Workers that fail to spawn consume
    /// respawn budget; a pool that cannot field a single worker is *failed*
    /// from birth and the backend above it degrades to inline execution
    /// rather than erroring.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        ensure_linked();
        let obs = registry.map(TransportObs::register);
        let mut inner = Inner {
            workers: Vec::with_capacity(n_workers),
            respawn_budget,
            next_seq: 0,
            rr: 0,
            failed: false,
            completed: HashMap::new(),
        };
        for idx in 0..n_workers.max(1) {
            let mut link = WorkerLink::vacant();
            match spawn_worker(idx, 0, &faults) {
                Ok((transport, child)) => {
                    link.transport = Some(transport);
                    link.child = Some(child);
                }
                Err(_) => {
                    // Count the failed spawn against the budget like any
                    // other worker loss; revival is attempted at dispatch.
                    inner.respawn_budget = inner.respawn_budget.saturating_sub(1);
                }
            }
            inner.workers.push(link);
        }
        update_failed(&mut inner);
        ProcessPool {
            inner: Mutex::new(inner),
            faults,
            obs,
            heartbeat: HeartbeatPolicy::from_env(),
            backoff: BackoffPolicy::from_env(),
        }
    }

    /// Override the heartbeat schedule (tests and exhibits; production uses
    /// `NSX_HEARTBEAT`).
    pub fn with_heartbeat(mut self, heartbeat: HeartbeatPolicy) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Override the respawn backoff schedule (tests and exhibits; production
    /// uses `NSX_RESPAWN_BACKOFF`).
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = backoff;
        self
    }

    /// Spawn with faults from `NSX_FAULTS` and the default respawn budget.
    pub fn new(n_workers: usize) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            default_respawn_budget(n_workers),
            None,
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of worker slots (not all necessarily alive).
    pub fn n_workers(&self) -> usize {
        self.lock().workers.len()
    }

    /// Worker slots with a live link right now.
    pub fn alive_workers(&self) -> usize {
        self.lock()
            .workers
            .iter()
            .filter(|w| w.transport.is_some())
            .count()
    }

    /// OS pids of the currently live worker processes.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.lock()
            .workers
            .iter()
            .filter(|w| w.transport.is_some())
            .filter_map(|w| w.child.as_ref().map(Child::id))
            .collect()
    }

    /// True when no worker is alive and the respawn budget is exhausted.
    pub fn is_failed(&self) -> bool {
        self.lock().failed
    }

    /// Dispatch job payloads (round-robin over live links, reviving dead
    /// ones while budget lasts), one write per link for its whole share.
    /// Returns, per payload, the seq to collect on, or `None` when no worker
    /// could take it — the caller should run that job inline.
    pub fn submit_all(&self, mut payloads: Vec<Vec<u8>>) -> Vec<Option<u64>> {
        let mut inner = self.lock();
        let mut seqs = vec![None; payloads.len()];
        let mut unplaced: Vec<usize> = (0..payloads.len()).collect();
        while !unplaced.is_empty() {
            let mut shares: Vec<Vec<usize>> = vec![Vec::new(); inner.workers.len()];
            for i in unplaced.drain(..) {
                if let Some(idx) = self.place(&mut inner) {
                    shares[idx].push(i);
                }
            }
            for (idx, share) in shares.into_iter().enumerate() {
                if share.is_empty() {
                    continue;
                }
                let first = inner.next_seq;
                inner.next_seq += share.len() as u64;
                let frames: Vec<Frame> = (first..)
                    .zip(&share)
                    .map(|(seq, &i)| {
                        Frame::new(FrameKind::Job, seq, std::mem::take(&mut payloads[i]))
                    })
                    .collect();
                let sent = match &mut inner.workers[idx].transport {
                    Some(t) => t.send_all(&frames),
                    None => Err(TransportError::Closed),
                };
                if sent.is_err() {
                    // Re-place this share on the next pass; placement
                    // revives or skips the buried slot.
                    self.bury(&mut inner, idx);
                    for (f, i) in frames.into_iter().zip(share) {
                        payloads[i] = f.payload;
                        unplaced.push(i);
                    }
                    continue;
                }
                if let Some(o) = &self.obs {
                    o.frames_sent.add(frames.len() as u64);
                    o.bytes_sent
                        .add(frames.iter().map(|f| f.encoded_len() as u64).sum());
                }
                for (f, i) in frames.iter().zip(share) {
                    inner.workers[idx].pending.push(f.seq);
                    seqs[i] = Some(f.seq);
                }
            }
        }
        update_failed(&mut inner);
        seqs
    }

    /// The next live slot in round-robin order, reviving dead ones while
    /// budget lasts. Pass 0 respects respawn backoff deferrals; pass 1
    /// forces revival past them — a pool that still has budget must field
    /// a worker rather than let the backend degrade to inline forever.
    fn place(&self, inner: &mut Inner) -> Option<usize> {
        let n = inner.workers.len();
        for force in [false, true] {
            for _ in 0..n {
                let idx = inner.rr % n;
                inner.rr = inner.rr.wrapping_add(1);
                self.revive_opts(inner, idx, force);
                if inner.workers[idx].transport.is_some() {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Wait up to `max_wait` for outcomes for any of `interested`, draining
    /// sockets as results arrive. Outcomes for seqs outside `interested`
    /// (other callers sharing the pool) stay parked in the pool; outcomes
    /// for seqs nobody tracks any more are counted as stale and dropped by
    /// the caller.
    ///
    /// The wait is event-driven, not polled: after a nonblocking sweep of
    /// every link with outstanding work, the pool blocks directly on the
    /// link carrying the oldest in-flight seq (jobs complete roughly in
    /// dispatch order), so a healthy round trip costs the worker's compute
    /// time plus syscall overhead — not a timer tick.
    pub fn collect(&self, interested: &[u64], max_wait: Duration) -> Vec<(u64, PollOutcome)> {
        let deadline = Instant::now() + max_wait;
        loop {
            let mut inner = self.lock();
            // Nonblocking sweep: pick up everything already buffered.
            for idx in 0..inner.workers.len() {
                if !inner.workers[idx].pending.is_empty() {
                    self.service_link(&mut inner, idx, Duration::ZERO);
                }
            }
            self.check_heartbeats(&mut inner);
            let mut got = Vec::new();
            for seq in interested {
                if let Some(outcome) = inner.completed.remove(seq) {
                    got.push((*seq, outcome));
                }
            }
            let now = Instant::now();
            if !got.is_empty() || now >= deadline {
                return got;
            }
            let target = inner
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.transport.is_some())
                .filter_map(|(i, w)| w.pending.first().map(|&s| (i, s)))
                .min_by_key(|&(_, s)| s)
                .map(|(i, _)| i);
            match target {
                Some(idx) => {
                    // WAIT_SLICE caps the wait so frames landing on other
                    // links are swept up promptly on the next pass.
                    let slice = deadline.saturating_duration_since(now).min(WAIT_SLICE);
                    self.service_link(&mut inner, idx, slice);
                }
                None => {
                    // Nothing in flight on any live link; an outcome can
                    // only appear through another caller's dispatch.
                    drop(inner);
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// Abandon a seq: the caller stopped waiting for it (per-attempt
    /// timeout). A straggling result arriving later is counted as stale.
    pub fn forget(&self, seq: u64) {
        let mut inner = self.lock();
        inner.completed.remove(&seq);
        for link in &mut inner.workers {
            link.pending.retain(|&s| s != seq);
        }
    }

    /// Heartbeat liveness sweep (DESIGN.md §16): bury links whose Ping has
    /// gone unanswered past the timeout, and probe links that have been
    /// silent past the interval. Any received frame refreshes `last_heard`,
    /// so links with steady result traffic are never probed. Runs on every
    /// `collect` pass — a pool nobody is collecting from is not monitored,
    /// which is fine: dispatch revives dead links on demand anyway.
    fn check_heartbeats(&self, inner: &mut Inner) {
        if !self.heartbeat.enabled {
            return;
        }
        let now = Instant::now();
        for idx in 0..inner.workers.len() {
            if inner.workers[idx].transport.is_none() {
                continue;
            }
            if let Some((_, sent)) = inner.workers[idx].outstanding_ping {
                if now.duration_since(sent) >= self.heartbeat.timeout {
                    // Unanswered probe: the worker is wedged or the link is
                    // half-dead. Bury it so pending jobs re-dispatch.
                    if let Some(o) = &self.obs {
                        o.heartbeat_deaths.inc();
                    }
                    self.bury(inner, idx);
                    self.revive(inner, idx);
                    update_failed(inner);
                }
                continue;
            }
            if now.duration_since(inner.workers[idx].last_heard) < self.heartbeat.interval {
                continue;
            }
            let seq = inner.next_seq;
            let frame = Frame::new(FrameKind::Ping, seq, Vec::new());
            let link = &mut inner.workers[idx];
            let sent = match &mut link.transport {
                Some(t) => t.send(&frame),
                None => continue,
            };
            match sent {
                Ok(()) => {
                    inner.next_seq += 1;
                    inner.workers[idx].outstanding_ping = Some((seq, now));
                    if let Some(o) = &self.obs {
                        o.frames_sent.inc();
                        o.bytes_sent.add(frame.encoded_len() as u64);
                    }
                }
                Err(_) => {
                    self.bury(inner, idx);
                    self.revive(inner, idx);
                    update_failed(inner);
                }
            }
        }
    }

    /// Receive from link `idx`: one wait of up to `first_wait`, then drain
    /// whatever else is already buffered without blocking. A link error
    /// buries the worker and attempts a revival.
    fn service_link(&self, inner: &mut Inner, idx: usize, first_wait: Duration) {
        let mut wait = first_wait;
        loop {
            let link = &mut inner.workers[idx];
            let Some(t) = &mut link.transport else { return };
            match t.recv_timeout(wait) {
                Ok(Some(frame)) => {
                    self.accept_frame(inner, idx, frame);
                    wait = Duration::ZERO;
                }
                Ok(None) => return,
                Err(e) => {
                    if matches!(e, TransportError::Corrupt(_)) {
                        if let Some(o) = &self.obs {
                            o.corrupt.inc();
                        }
                    }
                    self.bury(inner, idx);
                    self.revive(inner, idx);
                    update_failed(inner);
                    return;
                }
            }
        }
    }

    /// Route one frame received on link `idx` into `completed`.
    fn accept_frame(&self, inner: &mut Inner, idx: usize, frame: Frame) {
        if let Some(o) = &self.obs {
            o.frames_received.inc();
            o.bytes_received.add(frame.encoded_len() as u64);
        }
        let link = &mut inner.workers[idx];
        // Any frame is proof of life, whatever its kind.
        link.last_heard = Instant::now();
        let claimed = {
            let before = link.pending.len();
            link.pending.retain(|&s| s != frame.seq);
            link.pending.len() != before
        };
        match frame.kind {
            FrameKind::Result if claimed => {
                inner
                    .completed
                    .insert(frame.seq, PollOutcome::Result(frame.payload));
            }
            FrameKind::Error if claimed => {
                let msg = String::from_utf8_lossy(&frame.payload).into_owned();
                inner.completed.insert(frame.seq, PollOutcome::Refused(msg));
            }
            FrameKind::Pong => {
                // A pong (even a stale one) clears the outstanding probe;
                // `last_heard` above already restarts the quiet-time clock.
                link.outstanding_ping = None;
            }
            FrameKind::Hello => {} // late duplicate hello; ignore
            _ => {
                // Stale (forgotten seq) or nonsensical kind.
                if let Some(o) = &self.obs {
                    o.stale.inc();
                }
            }
        }
    }

    /// Tear down a dead link: reap the child and surface every pending seq
    /// as [`PollOutcome::Lost`].
    fn bury(&self, inner: &mut Inner, idx: usize) {
        let link = &mut inner.workers[idx];
        link.transport = None;
        link.outstanding_ping = None;
        if let Some(mut child) = link.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let lost = std::mem::take(&mut link.pending);
        for seq in lost {
            inner.completed.insert(seq, PollOutcome::Lost);
        }
    }

    /// Respawn worker slot `idx` (next incarnation) while budget remains,
    /// honoring the jittered reconnect backoff (DESIGN.md §16).
    fn revive(&self, inner: &mut Inner, idx: usize) {
        self.revive_opts(inner, idx, false);
    }

    /// [`revive`](Self::revive) with backoff control: `force` ignores an
    /// active deferral (used as dispatch's last resort). A deferred revival
    /// does **not** consume respawn budget — the slot is skipped this pass
    /// and tried again later, so waiting costs nothing.
    fn revive_opts(&self, inner: &mut Inner, idx: usize, force: bool) {
        if inner.respawn_budget == 0 || inner.workers[idx].transport.is_some() {
            return;
        }
        let incarnation = inner.workers[idx].incarnation + 1;
        let now = Instant::now();
        let delay = self.backoff.delay_for(idx, incarnation);
        let not_before = *inner.workers[idx].not_before.get_or_insert(now + delay);
        if !force && now < not_before {
            return;
        }
        inner.respawn_budget -= 1;
        if let Ok((transport, child)) = spawn_worker(idx, incarnation, &self.faults) {
            let link = &mut inner.workers[idx];
            link.transport = Some(transport);
            link.child = Some(child);
            link.incarnation = incarnation;
            link.last_heard = Instant::now();
            link.outstanding_ping = None;
            link.not_before = None;
            if let Some(o) = &self.obs {
                o.reconnects.inc();
            }
        } else if self.backoff.enabled {
            // Spawn failed (budget already charged): re-arm the deferral so
            // a dying host is not hammered in a tight loop.
            inner.workers[idx].not_before = Some(now + delay.max(self.backoff.base));
        } else {
            inner.workers[idx].not_before = None;
        }
    }
}

fn update_failed(inner: &mut Inner) {
    if inner.respawn_budget == 0 && inner.workers.iter().all(|w| w.transport.is_none()) {
        inner.failed = true;
    }
}

impl Drop for ProcessPool {
    fn drop(&mut self) {
        let mut inner = self.lock();
        for link in &mut inner.workers {
            if let Some(t) = &mut link.transport {
                let _ = t.send(&Frame::new(FrameKind::Shutdown, 0, Vec::new()));
            }
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for link in &mut inner.workers {
            let Some(mut child) = link.child.take() else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}

/// Spawn one worker process and complete the connect + `Hello` handshake.
fn spawn_worker(
    idx: usize,
    incarnation: u32,
    faults: &FaultPlan,
) -> std::io::Result<(FaultedTransport<SocketTransport>, Child)> {
    let fault = faults.fault_for(idx, incarnation);
    let path = socket_path(idx, incarnation);
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)?;
    listener.set_nonblocking(true)?;

    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.env(WORKER_SOCKET_ENV, &path)
        // Env hygiene: the worker must not re-enter process transport,
        // re-apply plan-level chaos, or write checkpoints of its own.
        .env_remove("NSX_TRANSPORT")
        .env_remove("NSX_FAULTS")
        .env_remove("NSX_BACKEND")
        .env_remove("NSX_CHECKPOINT")
        .env_remove(WORKER_FAULTS_ENV)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let directives = fault.to_worker_directives();
    if !directives.is_empty() {
        cmd.env(WORKER_FAULTS_ENV, directives);
    }
    let mut child = cmd.spawn().inspect_err(|_| {
        let _ = std::fs::remove_file(&path);
    })?;

    let mut accept = || -> std::io::Result<std::os::unix::net::UnixStream> {
        let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
        loop {
            match listener.accept() {
                Ok((stream, _)) => return Ok(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if child.try_wait()?.is_some() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::BrokenPipe,
                            "worker exited before connecting",
                        ));
                    }
                    if Instant::now() >= deadline {
                        return Err(std::io::ErrorKind::TimedOut.into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    };
    let stream = match accept() {
        Ok(s) => s,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
    };
    // The rendezvous point is single-use; unlink it now so nothing can
    // connect to a stale path and no cleanup is owed at shutdown.
    drop(listener);
    let _ = std::fs::remove_file(&path);

    let mut transport = SocketTransport::new(stream)?;
    match transport.recv_timeout(HANDSHAKE_TIMEOUT) {
        Ok(Some(f)) if f.kind == FrameKind::Hello => {}
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "worker did not say hello",
            ));
        }
    }
    Ok((FaultedTransport::new(transport, fault.net), child))
}

fn socket_path(idx: usize, incarnation: u32) -> PathBuf {
    let unique = SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nsx-{}-{}-w{}i{}.sock",
        std::process::id(),
        unique,
        idx,
        incarnation
    ))
}

/// Worker-process count for the shared pool: `NSX_WORKERS` verbatim when
/// set, otherwise hardware parallelism capped at 8 (processes are heavier
/// than threads; tests sharing the global pool don't need more).
pub fn default_process_workers() -> usize {
    workers_setting().unwrap_or_else(|| hardware_threads().min(8))
}

/// The socket link: a ticket is the job's seq plus the slot its result must
/// echo, and the master waits in [`ProcessPool::collect`].
impl<S: SampleStream> Link<S> for ProcessPool {
    type Ticket = (u64, usize);

    const DEFAULT_TIMEOUT: Option<Duration> = Some(DEFAULT_ATTEMPT_TIMEOUT);

    fn ship(&self, jobs: &[StreamJob<S>]) -> Vec<Shipped<Self::Ticket>> {
        let Some(wire_id) = S::wire_id() else {
            if let Some(o) = &self.obs {
                o.inline_jobs.add(jobs.len() as u64);
            }
            return jobs.iter().map(|_| Shipped::Unsupported).collect();
        };
        // Encode every job; a stream whose state will not save cannot ship.
        let mut shipped = Vec::with_capacity(jobs.len());
        let mut payloads = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut w = Writer::new();
            if job.stream.save_state(&mut w).is_ok() {
                payloads.push(wire::encode_job(
                    wire_id,
                    job.slot as u64,
                    job.dt,
                    &w.into_bytes(),
                ));
                shipped.push(Shipped::Ticket((0, job.slot))); // seq set below
            } else {
                shipped.push(Shipped::Unavailable);
            }
        }
        let mut seqs = self.submit_all(payloads).into_iter();
        for s in &mut shipped {
            if let Shipped::Ticket((_, slot)) = *s {
                *s = match seqs.next().flatten() {
                    Some(seq) => Shipped::Ticket((seq, slot)),
                    None => Shipped::Unavailable,
                };
            }
        }
        shipped
    }

    fn wait(
        &self,
        legs: &[(LegId, &Self::Ticket)],
        max_wait: Duration,
    ) -> Vec<(LegId, Outcome<S>)> {
        let seqs: Vec<u64> = legs.iter().map(|(_, (seq, _))| *seq).collect();
        self.collect(&seqs, max_wait)
            .into_iter()
            .filter_map(|(seq, outcome)| {
                let (id, &(_, slot)) = legs.iter().find(|(_, t)| t.0 == seq)?;
                let outcome = match outcome {
                    // An undecodable or misrouted result is a lost copy,
                    // never a guessed sample.
                    PollOutcome::Result(payload) => decode_stream(&payload, slot)
                        .map_or(Outcome::Lost, |s| Outcome::Done(s, Instant::now())),
                    // The worker's registry refused the job; running it on
                    // this pool will never work.
                    PollOutcome::Refused(_) => {
                        if let Some(o) = &self.obs {
                            o.unsupported.inc();
                        }
                        Outcome::Unsupported
                    }
                    PollOutcome::Lost => Outcome::Lost,
                };
                Some((*id, outcome))
            })
            .collect()
    }

    fn forget(&self, (seq, _): Self::Ticket) {
        ProcessPool::forget(self, seq);
    }

    fn supervise(&self) {
        // Reaping, heartbeats and revival run inside `collect` and `submit_all`.
    }

    fn is_failed(&self) -> bool {
        ProcessPool::is_failed(self)
    }
}

static SHARED: OnceLock<Arc<ProcessBackend>> = OnceLock::new();

/// A [`SamplingBackend`] that runs batches on [`ProcessPool`] workers over
/// the frame protocol, surviving worker-process loss and network faults
/// (see module docs).
pub struct ProcessBackend {
    pool: ProcessPool,
    dispatch: Dispatcher,
}

impl ProcessBackend {
    /// Spawn a dedicated pool of `n_workers` processes, faults from
    /// `NSX_FAULTS`.
    pub fn new(n_workers: usize) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::from_env(),
            RetryPolicy::default(),
            default_respawn_budget(n_workers),
            None,
        )
    }

    /// Full-control constructor mirroring `ThreadedBackend::with_options`.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        retry: RetryPolicy,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        ProcessBackend {
            pool: ProcessPool::with_options(n_workers, faults, respawn_budget, registry),
            dispatch: Dispatcher::new(retry, registry),
        }
    }

    /// Override the hedging policy (tests and exhibits; production uses
    /// `NSX_HEDGE`). Resets the latency estimator to the new quantile.
    pub fn with_hedge(mut self, hedge: HedgePolicy) -> Self {
        self.dispatch.set_hedge(hedge);
        self
    }

    /// The backend's hedging policy.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.dispatch.hedge_policy()
    }

    /// Override the pool's heartbeat schedule (tests and exhibits;
    /// production uses `NSX_HEARTBEAT`).
    pub fn with_heartbeat(mut self, heartbeat: HeartbeatPolicy) -> Self {
        self.pool.heartbeat = heartbeat;
        self
    }

    /// Override the pool's respawn backoff schedule (tests and exhibits;
    /// production uses `NSX_RESPAWN_BACKOFF`).
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.pool.backoff = backoff;
        self
    }

    /// The process-wide shared backend, sized by [`default_process_workers`]
    /// on first use — engines selecting `NSX_TRANSPORT=process` without
    /// custom options all share these worker processes.
    pub fn shared() -> Arc<ProcessBackend> {
        Arc::clone(SHARED.get_or_init(|| Arc::new(ProcessBackend::new(default_process_workers()))))
    }

    /// The underlying process pool.
    pub fn pool(&self) -> &ProcessPool {
        &self.pool
    }

    /// The backend's retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.dispatch.retry_policy()
    }
}

impl<S: SampleStream + 'static> SamplingBackend<S> for ProcessBackend {
    fn extend_batch(&self, jobs: Vec<StreamJob<S>>) -> Vec<StreamJob<S>> {
        self.dispatch.extend_batch(&self.pool, jobs)
    }

    fn name(&self) -> &'static str {
        "process"
    }

    fn degraded(&self) -> bool {
        self.dispatch.degraded() || self.pool.is_failed()
    }
}

/// Decode a result payload back into a stream, checking the slot echo.
fn decode_stream<S: SampleStream>(payload: &[u8], slot: usize) -> Option<S> {
    let res = wire::decode_result(payload).ok()?;
    if res.slot != slot as u64 {
        return None;
    }
    let mut r = Reader::new(&res.state);
    let stream = S::load_state(&mut r).ok()?;
    r.finish().ok()?;
    Some(stream)
}

#[cfg(test)]
mod tests {
    // Behaviour both backends share is covered by the conformance suite in
    // `dispatch.rs`; the heartbeat and respawn backoff live only here.
    use super::*;
    use crate::dispatch::tests::{assert_batches_identical, jobs_at, Stream};
    use stoch_eval::backend::SerialBackend;
    use stoch_eval::functions::Rosenbrock;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::sampler::Noisy;

    #[test]
    fn heartbeat_buries_a_wedged_worker_and_recovers() {
        let reg = MetricsRegistry::new();
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(2.0));
        let serial = SerialBackend.extend_batch(jobs_at(&obj, 3));
        // The sole worker's first incarnation wedges for 30 s on every job;
        // the heartbeat declares it dead in ~interval+timeout, well before
        // the 5 s attempt deadline, and the healthy respawn answers the
        // re-dispatch bit-identically.
        let backend = ProcessBackend::with_options(
            1,
            FaultPlan::none().delay(0, 0, 30_000),
            RetryPolicy::default(),
            default_respawn_budget(1),
            Some(&reg),
        )
        .with_heartbeat(HeartbeatPolicy::parse("on:interval_ms=100:timeout_ms=300").unwrap());
        let start = Instant::now();
        let procd = backend.extend_batch(jobs_at(&obj, 3));
        assert_batches_identical(&serial, &procd);
        assert!(!SamplingBackend::<Stream>::degraded(&backend));
        assert!(reg.counter("mw.transport.heartbeat_deaths").get() >= 1);
        assert!(reg.counter("mw.transport.reconnects").get() >= 1);
        // Recovery must beat the 5 s attempt timeout by a wide margin.
        assert!(start.elapsed() < Duration::from_secs(4));
    }

    #[test]
    fn repeated_revivals_defer_with_backoff_but_dispatch_forces_through() {
        // Unit-level check of the deferral bookkeeping: a slot on its second
        // respawn is deferred by revive() but submit_all()'s forced pass still
        // fields a worker instead of letting the backend degrade.
        let pool = ProcessPool::with_options(1, FaultPlan::none(), 8, None)
            .with_backoff(BackoffPolicy::parse("on:base_ms=60000:cap_ms=60000").unwrap());
        {
            let mut inner = pool.lock();
            // Simulate two prior deaths: incarnation 1 already used.
            inner.workers[0].incarnation = 1;
            pool.bury(&mut inner, 0);
            pool.revive(&mut inner, 0);
            // Deferred: no transport, budget untouched by the deferral.
            assert!(inner.workers[0].transport.is_none());
            assert_eq!(inner.respawn_budget, 8);
            assert!(inner.workers[0].not_before.is_some());
        }
        // Dispatch forces past the deferral rather than failing.
        let mut w = Writer::new();
        let local = stoch_eval::sampler::GaussianStream::new(1.0, 1.0, 3);
        local.save_state(&mut w).unwrap();
        let payload = wire::encode_job("gaussian.v1", 0, 1.0, &w.into_bytes());
        assert!(pool.submit_all(vec![payload])[0].is_some());
        assert_eq!(pool.alive_workers(), 1);
    }
}
