//! The MW worker pool: real OS threads fed over channels, with supervision.
//!
//! This is the in-process substitute for the paper's MPI-connected worker
//! ranks (see DESIGN.md, substitutions): the master submits jobs, workers
//! execute them, and results return over a per-job channel — structurally
//! the send/recv pattern of the original `MWRMComm` layer. Tasks and workers
//! never communicate with each other, only with the master, exactly as in
//! §3.1.
//!
//! The pool is *supervised* (DESIGN.md §9): every worker slot carries a
//! liveness flag armed by an RAII guard on the worker thread, so a worker
//! that panics or is reclaimed mid-job (the paper's §4.2 Condor scenario) is
//! detected by [`MwPool::supervise`], which joins the corpse and respawns a
//! fresh worker into the slot while a respawn budget remains. A lost job is
//! never silent: its result channel disconnects and the caller's
//! [`JobHandle`] reports [`WorkerLost`] instead of hanging or panicking.
//! When the budget is exhausted and every worker is dead the pool marks
//! itself failed, drains the queue (erroring every pending handle), and all
//! further submissions fail fast — callers degrade gracefully rather than
//! wedge.

use crate::faults::{FaultPlan, WorkerFault};
use crate::resilience::BackoffPolicy;
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use obs::{Counter, Gauge, MetricsRegistry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A unit of work: called with the worker's slot index and a flag telling it
/// to discard (not send) its result — the fault injector's lost-message case.
type Job = Box<dyn FnOnce(usize, bool) + Send + 'static>;

/// Per-worker execution counters.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Jobs executed by this worker.
    pub jobs: AtomicU64,
    /// Total busy time in nanoseconds.
    pub busy_nanos: AtomicU64,
    /// Total idle time (blocked waiting for work) in nanoseconds.
    pub idle_nanos: AtomicU64,
}

/// Registry handles mirrored by the pool when one is attached at
/// construction ([`MwPool::with_metrics`]). Metric names:
/// `mw.pool.jobs_submitted`, `mw.pool.queue_depth_hwm`,
/// `mw.pool.workers_lost`, `mw.pool.respawns`, and per worker `w`
/// `mw.pool.worker{w}.{jobs,busy_nanos,idle_nanos}`.
struct PoolObs {
    jobs_submitted: Arc<Counter>,
    queue_depth_hwm: Arc<Gauge>,
    workers_lost: Arc<Counter>,
    respawns: Arc<Counter>,
    worker_jobs: Vec<Arc<Counter>>,
    worker_busy_nanos: Vec<Arc<Counter>>,
    worker_idle_nanos: Vec<Arc<Counter>>,
}

impl PoolObs {
    fn register(registry: &MetricsRegistry, n_workers: usize) -> Self {
        PoolObs {
            jobs_submitted: registry.counter("mw.pool.jobs_submitted"),
            queue_depth_hwm: registry.gauge("mw.pool.queue_depth_hwm"),
            workers_lost: registry.counter("mw.pool.workers_lost"),
            respawns: registry.counter("mw.pool.respawns"),
            worker_jobs: (0..n_workers)
                .map(|w| registry.counter(&format!("mw.pool.worker{w}.jobs")))
                .collect(),
            worker_busy_nanos: (0..n_workers)
                .map(|w| registry.counter(&format!("mw.pool.worker{w}.busy_nanos")))
                .collect(),
            worker_idle_nanos: (0..n_workers)
                .map(|w| registry.counter(&format!("mw.pool.worker{w}.idle_nanos")))
                .collect(),
        }
    }
}

/// Wakes masters blocked in a batch wait whenever something that can change
/// a pending [`JobHandle`]'s outcome happens: a job finishes (result sent
/// *or* dropped), a worker dies, or the failed-pool drain discards queued
/// jobs. Callers snapshot [`generation`](CompletionNotifier::generation)
/// *before* scanning their handles, then [`wait`](CompletionNotifier::wait)
/// on that snapshot — a completion racing the scan bumps past the snapshot
/// and the wait returns immediately, so no wakeup is ever lost.
// Mutex<u64> + Condvar is the textbook generation counter for parking
// waiters; an atomic (what clippy::mutex_integer suggests) cannot pair with
// a condvar's wait/notify.
#[allow(clippy::mutex_integer)]
pub(crate) struct CompletionNotifier {
    generation: Mutex<u64>,
    cond: Condvar,
}

impl CompletionNotifier {
    fn new() -> Self {
        CompletionNotifier {
            generation: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// Poison-proof lock: a waiter must keep waking even if a panicking
    /// thread poisoned the counter mid-bump.
    fn lock(&self) -> MutexGuard<'_, u64> {
        match self.generation.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The current completion generation.
    pub(crate) fn generation(&self) -> u64 {
        *self.lock()
    }

    /// Record a completion event and wake every waiter.
    fn bump(&self) {
        let mut g = self.lock();
        *g = g.wrapping_add(1);
        drop(g);
        self.cond.notify_all();
    }

    /// Block until the generation advances past `seen` or `timeout`
    /// elapses, whichever comes first (spurious wakeups re-wait only for
    /// the remainder).
    pub(crate) fn wait(&self, seen: u64, timeout: Duration) {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.lock();
        while *g == seen {
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return;
            };
            let (guard, _) = match self.cond.wait_timeout(g, remaining) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            g = guard;
        }
    }
}

/// The worker executing a job died (or panicked) before reporting a result.
///
/// In the paper's deployment this is the Condor-style opportunistic case:
/// a worker node is reclaimed mid-task and the master must reassign the
/// work (§4.2, "When a worker is restarted by the master...").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLost;

impl std::fmt::Display for WorkerLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MW worker died before reporting its result")
    }
}

impl std::error::Error for WorkerLost {}

/// How a master-side caller re-dispatches work lost to worker failure.
///
/// Used by the dispatch loop behind both backends (and available to any
/// pool client): an attempt that ends in [`WorkerLost`] — or exceeds
/// `timeout` — is re-submitted, up to `max_attempts` total tries, sleeping
/// an exponentially growing `backoff` between tries. Because retried jobs
/// are re-created from master-side state (cloned streams carrying their
/// RNG), a retry reproduces the lost result bit for bit; see DESIGN.md §9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per job, including the first (≥ 1).
    pub max_attempts: u32,
    /// Per-attempt wall-clock limit; `None` waits indefinitely (supervision
    /// still detects dead workers, so only a *slow* worker prolongs the
    /// wait, and slowness does not corrupt results).
    pub timeout: Option<Duration>,
    /// Base sleep between attempts, doubled each further attempt. Zero (the
    /// default) retries immediately — in-process respawn is cheap, unlike
    /// waiting for a batch scheduler to hand back a node.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            timeout: None,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// The sleep before try number `attempt` (1-based; the first try never
    /// waits): `backoff * 2^(attempt-2)`.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        if attempt <= 1 || self.backoff.is_zero() {
            return Duration::ZERO;
        }
        self.backoff.saturating_mul(1u32 << (attempt - 2).min(16))
    }
}

/// A handle on a submitted job's eventual result.
///
/// Every receive path is non-panicking: a lost worker surfaces as
/// [`WorkerLost`], never as a poisoned thread or an unwrap.
pub struct JobHandle<R> {
    rx: Receiver<R>,
    /// When the job was submitted — the anchor for attempt deadlines.
    dispatched: Instant,
}

impl<R> JobHandle<R> {
    fn new(rx: Receiver<R>) -> Self {
        JobHandle {
            rx,
            dispatched: Instant::now(),
        }
    }

    /// Time since the job was dispatched (submitted to the pool). This is
    /// the attempt's age, independent of when the caller started waiting.
    pub fn elapsed(&self) -> Duration {
        self.dispatched.elapsed()
    }

    /// Block until the worker finishes; reports [`WorkerLost`] if the worker
    /// died mid-job (or the job was dropped by a failed pool).
    pub fn recv(self) -> Result<R, WorkerLost> {
        self.rx.recv().map_err(|_| WorkerLost)
    }

    /// Block until the job is `timeout` old, measured **from dispatch**, not
    /// from this call: a handle that sat unobserved for a while gets only
    /// the remainder of its budget, and a budget already spent returns
    /// immediately. This is what makes per-attempt retry deadlines honest —
    /// the clock starts when the job is issued, wherever the master happens
    /// to be looping. `Ok(Some(r))` on completion, `Ok(None)` on timeout
    /// (the job may still be running — poll again, typically after a
    /// [`MwPool::supervise`] pass), `Err(WorkerLost)` if the result can no
    /// longer arrive.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<R>, WorkerLost> {
        let remaining = timeout.saturating_sub(self.elapsed());
        match self.rx.recv_timeout(remaining) {
            Ok(r) => Ok(Some(r)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(WorkerLost),
        }
    }

    /// Non-blocking poll with the same contract as
    /// [`recv_timeout`](JobHandle::recv_timeout).
    pub fn try_recv(&self) -> Result<Option<R>, WorkerLost> {
        match self.rx.try_recv() {
            Ok(r) => Ok(Some(r)),
            Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam_channel::TryRecvError::Disconnected) => Err(WorkerLost),
        }
    }
}

/// Shutdown found workers that had died rather than exited cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownError {
    /// Workers (over the pool's lifetime, respawns included) that drained
    /// the queue and exited cleanly.
    pub clean: usize,
    /// Workers that died — panicked, or killed by fault injection.
    pub lost: usize,
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} MW worker(s) died before shutdown ({} exited cleanly)",
            self.lost, self.clean
        )
    }
}

impl std::error::Error for ShutdownError {}

/// The default worker-respawn budget for `n` workers: `max(2n, 4)` respawns
/// over the pool's lifetime before it declares itself failed.
pub fn default_respawn_budget(n_workers: usize) -> u64 {
    (2 * n_workers as u64).max(4)
}

/// One worker slot: the thread handle plus the liveness flag its
/// [`AliveGuard`] disarms on exit.
struct Slot {
    handle: Option<JoinHandle<()>>,
    alive: Arc<AtomicBool>,
    incarnation: u32,
    /// Earliest instant a respawn of this slot may happen, set by the
    /// jittered-backoff policy when supervision first observes the death
    /// (DESIGN.md §16). `None` while the worker is alive or the respawn is
    /// not deferred.
    not_before: Option<Instant>,
}

struct Core {
    job_tx: Option<Sender<Job>>,
    slots: Vec<Slot>,
    respawn_budget: u64,
    shutdown_outcome: Option<Result<usize, ShutdownError>>,
}

/// A supervised pool of MW workers. See the module docs for the fault model.
pub struct MwPool {
    core: Mutex<Core>,
    /// Kept so the master can respawn workers onto the same queue and drain
    /// it when the pool fails; also means `send` cannot race a disconnect.
    job_rx: Receiver<Job>,
    n_workers: usize,
    stats: Arc<Vec<WorkerStats>>,
    queue_depth: Arc<AtomicU64>,
    workers_lost: Arc<AtomicU64>,
    respawns: AtomicU64,
    failed: AtomicBool,
    faults: FaultPlan,
    /// Deferral schedule for repeated respawns of one slot (`NSX_RESPAWN_BACKOFF`).
    backoff: BackoffPolicy,
    notifier: Arc<CompletionNotifier>,
    /// Set at construction when a registry is passed, or later via
    /// [`MwPool::attach_registry`] (the shared-pool case); write-once so the
    /// mirrored handles stay stable for the pool's lifetime.
    obs: OnceLock<Arc<PoolObs>>,
}

/// RAII liveness beacon held by each worker thread. Dropping it — whether by
/// clean return, injected death, or panic unwind — flips the slot's `alive`
/// flag; unless the exit was `defuse`d (clean shutdown), the drop also
/// counts a lost worker.
struct AliveGuard {
    alive: Arc<AtomicBool>,
    lost: Arc<AtomicU64>,
    lost_obs: Option<Arc<Counter>>,
    notifier: Arc<CompletionNotifier>,
    defused: bool,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::SeqCst);
        if !self.defused {
            self.lost.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = &self.lost_obs {
                c.inc();
            }
        }
        // A worker exit can disconnect an in-flight job's channel; wake any
        // master blocked on a batch so it observes the loss now.
        self.notifier.bump();
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    w: usize,
    incarnation: u32,
    fault: WorkerFault,
    rx: Receiver<Job>,
    stats: Arc<Vec<WorkerStats>>,
    queue_depth: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
    lost: Arc<AtomicU64>,
    notifier: Arc<CompletionNotifier>,
    obs: Option<Arc<PoolObs>>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("mw-worker-{w}.{incarnation}"))
        .spawn(move || {
            let mut guard = AliveGuard {
                alive,
                lost,
                lost_obs: obs.as_ref().map(|o| Arc::clone(&o.workers_lost)),
                notifier: Arc::clone(&notifier),
                defused: false,
            };
            // MWWorker loop: execute a task, report the result, wait for
            // another task.
            let mut executed = 0u64;
            loop {
                let t_wait = std::time::Instant::now();
                let Ok(job) = rx.recv() else {
                    // Master dropped the job sender: clean shutdown.
                    guard.defused = true;
                    break;
                };
                let idle = t_wait.elapsed().as_nanos() as u64;
                stats[w].idle_nanos.fetch_add(idle, Ordering::Relaxed);
                if let Some(o) = &obs {
                    o.worker_idle_nanos[w].add(idle);
                }
                queue_depth.fetch_sub(1, Ordering::Relaxed);
                if fault.kill_after.is_some_and(|n| executed >= n) {
                    // Injected fault: the node is reclaimed with a job in
                    // hand — its result is never sent. The guard must drop
                    // FIRST: dropping the job unblocks the master with
                    // `WorkerLost`, and a `supervise()` call racing in right
                    // then must already see the slot dead or it would skip
                    // the respawn.
                    drop(guard);
                    drop(job);
                    return;
                }
                if let Some(d) = fault.delay_for(executed) {
                    std::thread::sleep(d);
                }
                let drop_result = fault.drop_at == Some(executed);
                // Count the job before running it: the job's last act is
                // delivering its result, and a caller unblocked by that
                // delivery must see this job in the counters.
                stats[w].jobs.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = &obs {
                    o.worker_jobs[w].inc();
                }
                let t0 = std::time::Instant::now();
                job(w, drop_result);
                executed += 1;
                let dt = t0.elapsed().as_nanos() as u64;
                stats[w].busy_nanos.fetch_add(dt, Ordering::Relaxed);
                if let Some(o) = &obs {
                    o.worker_busy_nanos[w].add(dt);
                }
                // The job either sent its result or dropped the sender
                // (injected loss): either way a pending handle resolved.
                notifier.bump();
            }
        })
        .unwrap_or_else(|e| panic!("failed to spawn MW worker {w}: {e}"))
}

impl MwPool {
    /// Spawn `n_workers` supervised worker threads (no faults, default
    /// respawn budget).
    pub fn new(n_workers: usize) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::none(),
            default_respawn_budget(n_workers),
            None,
        )
    }

    /// Spawn `n_workers` worker threads with run accounting mirrored into
    /// `registry` (job submissions, queue-depth high-water mark, lost
    /// workers, respawns, per-worker jobs and busy/idle nanoseconds).
    pub fn with_metrics(n_workers: usize, registry: &MetricsRegistry) -> Self {
        Self::with_options(
            n_workers,
            FaultPlan::none(),
            default_respawn_budget(n_workers),
            Some(registry),
        )
    }

    /// Spawn supervised workers with the given fault plan and the default
    /// respawn budget.
    pub fn supervised(n_workers: usize, faults: FaultPlan) -> Self {
        Self::with_options(n_workers, faults, default_respawn_budget(n_workers), None)
    }

    /// Spawn workers with legacy fault injection and *no* respawn budget:
    /// worker `w` dies (stops pulling work, dropping its in-flight job's
    /// result) immediately after executing `faults[w]` jobs, and stays dead.
    /// Workers beyond `faults.len()` are immortal. Used to test master-side
    /// reassignment with exact loss counts.
    pub fn with_fault_injection(n_workers: usize, faults: &[Option<u64>]) -> Self {
        Self::with_options(n_workers, FaultPlan::from_die_after(faults), 0, None)
    }

    /// Full-control constructor: worker count, fault plan, respawn budget,
    /// and optional metrics registry.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        assert!(n_workers >= 1);
        let (job_tx, job_rx) = unbounded::<Job>();
        let stats: Arc<Vec<WorkerStats>> =
            Arc::new((0..n_workers).map(|_| WorkerStats::default()).collect());
        let queue_depth = Arc::new(AtomicU64::new(0));
        let workers_lost = Arc::new(AtomicU64::new(0));
        let notifier = Arc::new(CompletionNotifier::new());
        let obs: OnceLock<Arc<PoolObs>> = OnceLock::new();
        if let Some(reg) = registry {
            let _ = obs.set(Arc::new(PoolObs::register(reg, n_workers)));
        }
        let slots = (0..n_workers)
            .map(|w| {
                let alive = Arc::new(AtomicBool::new(true));
                let handle = spawn_worker(
                    w,
                    0,
                    faults.fault_for(w, 0),
                    job_rx.clone(),
                    Arc::clone(&stats),
                    Arc::clone(&queue_depth),
                    Arc::clone(&alive),
                    Arc::clone(&workers_lost),
                    Arc::clone(&notifier),
                    obs.get().cloned(),
                );
                Slot {
                    handle: Some(handle),
                    alive,
                    incarnation: 0,
                    not_before: None,
                }
            })
            .collect();
        MwPool {
            core: Mutex::new(Core {
                job_tx: Some(job_tx),
                slots,
                respawn_budget,
                shutdown_outcome: None,
            }),
            job_rx,
            n_workers,
            stats,
            queue_depth,
            workers_lost,
            respawns: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            faults,
            backoff: BackoffPolicy::from_env(),
            notifier,
            obs,
        }
    }

    /// A mutex-poison-proof lock: supervision must keep working even if some
    /// thread panicked while holding the core lock.
    fn lock_core(&self) -> MutexGuard<'_, Core> {
        match self.core.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of worker slots (the pool's nominal width).
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Mirror this pool's accounting into `registry` after construction.
    ///
    /// The process-wide shared pool is built lazily by the first run, before
    /// any service-level registry exists, so its construction-time hook is
    /// always `None`; this late attachment is how a multi-run service gets a
    /// pool-wide `mw.pool.queue_depth_hwm` that accounts for jobs queued by
    /// *all* runs sharing the pool. First attachment wins (the mirrored
    /// handles are pool-lifetime); later calls return `false` and change
    /// nothing. Workers already running keep their per-worker mirroring off
    /// (their hooks were captured at spawn); submissions, respawns, and the
    /// queue-depth high-water mark are mirrored from this point on.
    pub fn attach_registry(&self, registry: &MetricsRegistry) -> bool {
        self.obs
            .set(Arc::new(PoolObs::register(registry, self.n_workers)))
            .is_ok()
    }

    /// Workers currently alive (slots whose thread is running).
    pub fn live_workers(&self) -> usize {
        self.lock_core()
            .slots
            .iter()
            .filter(|s| s.handle.is_some() && s.alive.load(Ordering::SeqCst))
            .count()
    }

    /// Workers lost (died without a clean exit) over the pool's lifetime.
    pub fn workers_lost(&self) -> u64 {
        self.workers_lost.load(Ordering::Relaxed)
    }

    /// Workers respawned by supervision over the pool's lifetime.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// True once the pool has permanently failed: every worker dead and the
    /// respawn budget exhausted. All pending and future jobs report
    /// [`WorkerLost`]; callers should fall back to inline execution.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    /// One supervision pass: reap dead workers, respawn them into their
    /// slots while the respawn budget lasts, and — if every worker is dead
    /// with no budget left — mark the pool failed and drain the job queue so
    /// no pending handle waits forever. Returns the number of live workers.
    ///
    /// Respawned workers are healthy regardless of the fault plan (a
    /// restarted node is a fresh node); they continue pulling from the same
    /// queue, so queued work survives any death the budget covers.
    ///
    /// A slot's *first* respawn is immediate; repeated respawns of the same
    /// slot are deferred by the jittered exponential [`BackoffPolicy`]
    /// (`NSX_RESPAWN_BACKOFF`, DESIGN.md §16). Deferral never sleeps — the
    /// slot is simply skipped until its deadline, and a deferred slot keeps
    /// its budget and does not count toward pool failure.
    pub fn supervise(&self) -> usize {
        let mut core = self.lock_core();
        if core.job_tx.is_none() {
            return 0; // shut down: nothing to supervise
        }
        let now = Instant::now();
        let mut live = 0;
        let mut deferred = 0;
        for w in 0..core.slots.len() {
            if core.slots[w].alive.load(Ordering::SeqCst) {
                live += 1;
                continue;
            }
            // Dead worker: reap the thread (join is quick — the guard drops
            // at the very end of the worker fn), then respawn if we can.
            if let Some(h) = core.slots[w].handle.take() {
                let _ = h.join();
            }
            if core.respawn_budget == 0 {
                continue;
            }
            // Jittered exponential backoff on repeated deaths of this slot,
            // anchored at the pass that first observed the death.
            let delay = self.backoff.delay_for(w, core.slots[w].incarnation + 1);
            let not_before = *core.slots[w].not_before.get_or_insert(now + delay);
            if now < not_before {
                deferred += 1;
                continue;
            }
            core.respawn_budget -= 1;
            let incarnation = core.slots[w].incarnation + 1;
            let alive = Arc::new(AtomicBool::new(true));
            let handle = spawn_worker(
                w,
                incarnation,
                self.faults.fault_for(w, incarnation),
                self.job_rx.clone(),
                Arc::clone(&self.stats),
                Arc::clone(&self.queue_depth),
                Arc::clone(&alive),
                Arc::clone(&self.workers_lost),
                Arc::clone(&self.notifier),
                self.obs.get().cloned(),
            );
            core.slots[w] = Slot {
                handle: Some(handle),
                alive,
                incarnation,
                not_before: None,
            };
            self.respawns.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = self.obs.get() {
                o.respawns.inc();
            }
            live += 1;
        }
        if live == 0 && deferred == 0 {
            // Out of workers and out of budget: fail fast. The flag is set
            // before the lock is released, so any submit that observes it
            // clear will have enqueued before the drain below. (A deferred
            // respawn is *not* failure: budget remains and the slot revives
            // once its backoff deadline passes.)
            self.failed.store(true, Ordering::SeqCst);
            drop(core);
            self.drain_queue();
        }
        live
    }

    /// Discard every queued job. Each dropped job drops its result sender,
    /// so the corresponding [`JobHandle`] reports [`WorkerLost`] promptly.
    fn drain_queue(&self) {
        let mut drained = false;
        while let Ok(job) = self.job_rx.try_recv() {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            drop(job);
            drained = true;
        }
        if drained {
            // Dropped jobs disconnected their handles; wake blocked masters.
            self.notifier.bump();
        }
    }

    /// Snapshot the completion generation. Take this *before* scanning
    /// pending handles; pass it to [`wait_for_completion`]
    /// (MwPool::wait_for_completion) so a completion that lands mid-scan
    /// wakes the wait immediately instead of being lost.
    pub(crate) fn completion_generation(&self) -> u64 {
        self.notifier.generation()
    }

    /// Block until any job completion / worker death / queue drain happens
    /// after the `seen` snapshot, or `timeout` elapses.
    pub(crate) fn wait_for_completion(&self, seen: u64, timeout: Duration) {
        self.notifier.wait(seen, timeout);
    }

    /// Submit a job; returns immediately with a handle. Never panics: on a
    /// failed or shut-down pool the handle reports [`WorkerLost`].
    pub fn submit<R, F>(&self, f: F) -> JobHandle<R>
    where
        R: Send + 'static,
        F: FnOnce(usize) -> R + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        if self.is_failed() {
            // tx drops here: the handle is born disconnected.
            return JobHandle::new(rx);
        }
        let job: Job = Box::new(move |worker, drop_result| {
            let r = f(worker);
            if !drop_result {
                // A dropped receiver just means the master lost interest.
                let _ = tx.send(r);
            }
        });
        let core = self.lock_core();
        let Some(job_tx) = core.job_tx.as_ref() else {
            return JobHandle::new(rx); // shut down: handle is disconnected
        };
        // `queue_depth` is pool-global, so on a shared pool this high-water
        // mark accounts for jobs queued by every run submitting to it, not
        // just the caller's.
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(o) = self.obs.get() {
            o.jobs_submitted.inc();
            o.queue_depth_hwm.record(depth);
        }
        if job_tx.send(job).is_err() {
            // Unreachable while the pool holds `job_rx`, but stay honest.
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        JobHandle::new(rx)
    }

    /// Submit and block for the result (RPC style).
    pub fn call<R, F>(&self, f: F) -> Result<R, WorkerLost>
    where
        R: Send + 'static,
        F: FnOnce(usize) -> R + Send + 'static,
    {
        self.submit(f).recv()
    }

    /// Snapshot of per-worker job counts.
    pub fn job_counts(&self) -> Vec<u64> {
        self.stats
            .iter()
            .map(|s| s.jobs.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshot of per-worker busy time in seconds.
    pub fn busy_seconds(&self) -> Vec<f64> {
        self.stats
            .iter()
            .map(|s| s.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect()
    }

    /// Snapshot of per-worker idle (waiting-for-work) time in seconds.
    pub fn idle_seconds(&self) -> Vec<f64> {
        self.stats
            .iter()
            .map(|s| s.idle_nanos.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect()
    }

    /// Jobs currently submitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Shut the pool down: stop accepting work, let workers drain the queue,
    /// and join them all. Idempotent — repeat calls return the first
    /// outcome. `Ok(clean)` reports how many workers (respawns included)
    /// exited cleanly; [`ShutdownError`] reports that some had died.
    pub fn shutdown(&self) -> Result<usize, ShutdownError> {
        let mut core = self.lock_core();
        if let Some(outcome) = core.shutdown_outcome {
            return outcome;
        }
        core.job_tx.take(); // workers drain the queue, then exit cleanly
        let handles: Vec<JoinHandle<()>> = core
            .slots
            .iter_mut()
            .filter_map(|s| s.handle.take())
            .collect();
        // Joining under the lock is safe (workers never lock the core) and
        // makes concurrent shutdown/supervise callers wait for the outcome.
        for h in handles {
            let _ = h.join();
        }
        let spawned = self.n_workers + self.respawns.load(Ordering::Relaxed) as usize;
        let lost = self.workers_lost.load(Ordering::Relaxed) as usize;
        let clean = spawned.saturating_sub(lost);
        let outcome = if lost == 0 {
            Ok(clean)
        } else {
            Err(ShutdownError { clean, lost })
        };
        core.shutdown_outcome = Some(outcome);
        outcome
    }
}

impl Drop for MwPool {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_returns_result() {
        let pool = MwPool::new(2);
        let r = pool.call(|_w| 2 + 2).unwrap();
        assert_eq!(r, 4);
    }

    #[test]
    fn submit_runs_concurrently() {
        let pool = MwPool::new(4);
        let handles: Vec<_> = (0..8).map(|i| pool.submit(move |_| i * i)).collect();
        let results: Vec<i32> = handles.into_iter().map(|h| h.recv().unwrap()).collect();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn stats_count_jobs() {
        let pool = MwPool::new(3);
        for _ in 0..30 {
            pool.call(|_| ()).unwrap();
        }
        let counts = pool.job_counts();
        assert_eq!(counts.iter().sum::<u64>(), 30);
    }

    #[test]
    fn workers_see_their_ids() {
        let pool = MwPool::new(4);
        let ids: Vec<usize> = (0..32).map(|_| pool.call(|w| w).unwrap()).collect();
        assert!(ids.iter().all(|&w| w < 4));
    }

    #[test]
    fn shutdown_joins_cleanly_and_is_idempotent() {
        let pool = MwPool::new(2);
        pool.call(|_| ()).unwrap();
        assert_eq!(pool.shutdown(), Ok(2));
        assert_eq!(
            pool.shutdown(),
            Ok(2),
            "second shutdown returns the cached outcome"
        );
        // A post-shutdown submission fails fast instead of panicking.
        assert_eq!(pool.submit(|_| 1).recv(), Err(WorkerLost));
    }

    #[test]
    fn shutdown_reports_lost_workers() {
        let pool = MwPool::with_fault_injection(2, &[Some(0), None]);
        let _ = pool.submit(|w| w).recv(); // feeds the dying worker (maybe)
                                           // Make sure worker 0 actually got a job and died.
        while pool.workers_lost() == 0 {
            match pool.submit(|w| w).recv() {
                Ok(_) | Err(WorkerLost) => {}
            }
        }
        let err = pool.shutdown().unwrap_err();
        assert_eq!(err.lost, 1);
        assert_eq!(err.clean, 1);
    }

    /// Kill the (sole) worker of `pool` by feeding it a panicking job, and
    /// wait until supervision can observe the death.
    fn kill_sole_worker(pool: &MwPool) {
        let h = pool.submit::<(), _>(|_| panic!("injected worker death"));
        assert_eq!(h.recv(), Err(WorkerLost));
        // The liveness flag flips when the worker's guard drops, marginally
        // after the in-flight job's channel disconnects; wait it out.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.live_workers() > 0 {
            assert!(Instant::now() < deadline, "death never became observable");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn repeated_deaths_defer_respawn_with_jittered_backoff() {
        let pool = MwPool::with_options(1, FaultPlan::none(), 8, None);
        // First death of the slot: respawn is immediate (backoff's respawn
        // #1 is always free).
        kill_sole_worker(&pool);
        assert_eq!(pool.supervise(), 1, "first respawn must be immediate");
        assert_eq!(pool.respawns(), 1);
        // Second death of the same slot: the default backoff policy defers
        // the respawn, without consuming budget or failing the pool.
        kill_sole_worker(&pool);
        assert_eq!(pool.supervise(), 0, "second respawn must be deferred");
        assert_eq!(pool.respawns(), 1, "no respawn during the deferral");
        assert!(!pool.is_failed(), "a deferred respawn is not pool failure");
        // Once the (jittered, capped) delay passes, supervision revives the
        // slot and the pool serves work again.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.supervise() == 0 {
            assert!(Instant::now() < deadline, "deferred respawn never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(pool.respawns(), 2);
        assert_eq!(pool.call(|_| 7).unwrap(), 7);
    }

    /// Submit two jobs to a two-worker pool so that each worker takes
    /// exactly one: the first job holds its worker until the second has
    /// resolved, so the second must go to the other worker. A plain
    /// sequence of jobs on the shared queue may never reach a worker that
    /// is slow to wake.
    fn one_job_per_worker(pool: &MwPool) -> [Result<usize, WorkerLost>; 2] {
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let held = pool.submit(move |w| {
            let _ = gate.recv();
            w
        });
        let other = pool.submit(|w| w).recv();
        let _ = open.send(());
        [held.recv(), other]
    }

    #[test]
    fn injected_fault_surfaces_as_worker_lost() {
        let pool = MwPool::with_fault_injection(2, &[Some(0), None]);
        let mut lost = 0;
        let mut ok = 0;
        let first_two = one_job_per_worker(&pool);
        let rest = (2..20).map(|_| pool.submit(|w| w).recv());
        for r in first_two.into_iter().chain(rest) {
            match r {
                Ok(_) => ok += 1,
                Err(WorkerLost) => lost += 1,
            }
        }
        assert_eq!(
            lost, 1,
            "exactly the one in-flight job on the dying worker is lost"
        );
        assert_eq!(ok, 19);
    }

    #[test]
    fn pool_survives_partial_worker_death() {
        let pool = MwPool::with_fault_injection(3, &[Some(2), None, None]);
        let results: Vec<Result<usize, WorkerLost>> =
            (0..40).map(|_| pool.submit(|w| w).recv()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert!(ok >= 39, "{ok} of 40 succeeded");
    }

    #[test]
    fn supervise_respawns_dead_workers() {
        // Worker 0 dies after 2 jobs; supervision must bring the pool back
        // to full strength and keep it serving.
        let pool = MwPool::supervised(2, FaultPlan::none().kill(0, 2));
        let mut lost = 0;
        // Three jobs per worker first, so worker 0 reaches its third job.
        for _ in 0..3 {
            lost += one_job_per_worker(&pool)
                .iter()
                .filter(|r| r.is_err())
                .count();
            pool.supervise();
        }
        for _ in 6..40 {
            if pool.call(|w| w).is_err() {
                lost += 1;
            }
            pool.supervise();
        }
        assert_eq!(
            lost, 1,
            "only the in-flight job on the dying worker is lost"
        );
        assert_eq!(pool.live_workers(), 2);
        assert_eq!(pool.workers_lost(), 1);
        assert_eq!(pool.respawns(), 1);
        assert!(!pool.is_failed());
    }

    #[test]
    fn respawned_workers_are_healthy() {
        // kill:0:after=0 would kill every incarnation if faults reapplied;
        // the plan must only poison incarnation 0.
        let pool = MwPool::supervised(1, FaultPlan::none().kill(0, 0));
        assert_eq!(pool.submit(|w| w).recv(), Err(WorkerLost));
        assert!(pool.supervise() >= 1);
        for _ in 0..10 {
            assert!(pool.call(|w| w).is_ok());
        }
        assert_eq!(pool.workers_lost(), 1);
    }

    #[test]
    fn exhausted_budget_fails_pool_and_drains_queue() {
        // Single worker, dies immediately, no budget: the pool must fail
        // fast — every pending and future handle errors, nothing hangs.
        let pool = MwPool::with_options(1, FaultPlan::none().kill(0, 0), 0, None);
        let pending: Vec<_> = (0..5).map(|i| pool.submit(move |_| i)).collect();
        // Wait for the worker to take the first job and die.
        while pool.workers_lost() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.supervise(), 0);
        assert!(pool.is_failed());
        for h in pending {
            assert_eq!(h.recv(), Err(WorkerLost));
        }
        assert_eq!(pool.submit(|_| 0).recv(), Err(WorkerLost));
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn recv_timeout_polls_then_completes() {
        let pool = MwPool::new(1);
        let h = pool.submit(|_| {
            std::thread::sleep(Duration::from_millis(40));
            7
        });
        assert_eq!(h.recv_timeout(Duration::from_millis(5)), Ok(None));
        // The deadline is dispatch-anchored, so a poll loop must grow its
        // budget rather than repeat a spent one.
        let mut got = None;
        for i in 1..=100u64 {
            if let Some(r) = h.recv_timeout(Duration::from_millis(10 * i)).unwrap() {
                got = Some(r);
                break;
            }
        }
        assert_eq!(got, Some(7));
    }

    #[test]
    fn recv_timeout_is_anchored_at_dispatch_not_call() {
        let pool = MwPool::new(1);
        let h = pool.submit(|_| {
            std::thread::sleep(Duration::from_millis(300));
            7
        });
        // Burn most of a 100ms budget before the first call: the call may
        // only wait for the remainder, not a fresh 100ms.
        std::thread::sleep(Duration::from_millis(70));
        let t0 = Instant::now();
        assert_eq!(h.recv_timeout(Duration::from_millis(100)), Ok(None));
        assert!(
            t0.elapsed() < Duration::from_millis(90),
            "call re-anchored the deadline: waited {:?} of a budget with only ~30ms left",
            t0.elapsed()
        );
        // A budget already spent at call time returns immediately.
        let t0 = Instant::now();
        assert_eq!(h.recv_timeout(Duration::from_millis(20)), Ok(None));
        assert!(t0.elapsed() < Duration::from_millis(20));
        assert!(h.elapsed() >= Duration::from_millis(70));
        // A budget generous from dispatch still completes.
        assert_eq!(h.recv_timeout(Duration::from_secs(10)), Ok(Some(7)));
    }

    #[test]
    fn delay_fault_slows_but_does_not_lose() {
        let pool = MwPool::supervised(1, FaultPlan::none().delay(0, 0, 15));
        let t0 = std::time::Instant::now();
        assert_eq!(pool.call(|_| 3), Ok(3));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn drop_fault_loses_exactly_that_result() {
        // Worker 0's second job (index 1) executes but its result is
        // discarded — lost on the wire, not a dead worker.
        let pool = MwPool::supervised(1, FaultPlan::none().drop_result(0, 1));
        assert_eq!(pool.call(|_| 0), Ok(0));
        assert_eq!(pool.call(|_| 1), Err(WorkerLost));
        assert_eq!(pool.call(|_| 2), Ok(2));
        assert_eq!(pool.workers_lost(), 0, "the worker itself stayed alive");
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn metrics_mirror_pool_activity() {
        let reg = obs::MetricsRegistry::new();
        let pool = MwPool::with_metrics(3, &reg);
        let handles: Vec<_> = (0..24).map(|i| pool.submit(move |_| i)).collect();
        for h in handles {
            h.recv().unwrap();
        }
        assert_eq!(reg.counter("mw.pool.jobs_submitted").get(), 24);
        let per_worker: u64 = (0..3)
            .map(|w| reg.counter(&format!("mw.pool.worker{w}.jobs")).get())
            .sum();
        assert_eq!(per_worker, 24);
        assert!(reg.gauge("mw.pool.queue_depth_hwm").max() >= 1);
        assert_eq!(pool.shutdown(), Ok(3));
    }

    #[test]
    fn late_attached_registry_accounts_for_all_submitters() {
        let pool = Arc::new(MwPool::new(2));
        let reg = obs::MetricsRegistry::new();
        assert!(pool.attach_registry(&reg));
        assert!(!pool.attach_registry(&reg), "second attach is a no-op");
        // Two concurrent submitters share the one pool; the mirrored
        // counters and the queue-depth high-water mark must cover both.
        std::thread::scope(|s| {
            for _ in 0..2 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    let handles: Vec<_> = (0..50).map(|i| pool.submit(move |_| i)).collect();
                    for h in handles {
                        h.recv().unwrap();
                    }
                });
            }
        });
        assert_eq!(reg.counter("mw.pool.jobs_submitted").get(), 100);
        assert!(reg.gauge("mw.pool.queue_depth_hwm").max() >= 1);
    }

    #[test]
    fn metrics_count_losses_and_respawns() {
        let reg = obs::MetricsRegistry::new();
        let pool = MwPool::with_options(
            2,
            FaultPlan::none().kill(0, 0),
            default_respawn_budget(2),
            Some(&reg),
        );
        while pool.workers_lost() == 0 {
            let _ = pool.submit(|w| w).recv();
        }
        pool.supervise();
        assert_eq!(reg.counter("mw.pool.workers_lost").get(), 1);
        assert_eq!(reg.counter("mw.pool.respawns").get(), 1);
    }

    #[test]
    fn idle_time_accrues_while_waiting() {
        let pool = MwPool::new(1);
        pool.call(|_| ()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        pool.call(|_| ()).unwrap();
        let idle = pool.idle_seconds();
        assert!(
            idle[0] >= 0.015,
            "worker should have idled ~20ms, got {}s",
            idle[0]
        );
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn heavy_fanout_completes() {
        let pool = MwPool::new(8);
        let handles: Vec<_> = (0..1000u64).map(|i| pool.submit(move |_| i)).collect();
        let sum: u64 = handles.into_iter().map(|h| h.recv().unwrap()).sum();
        assert_eq!(sum, 999 * 1000 / 2);
    }

    #[test]
    fn retry_policy_backoff_doubles() {
        let p = RetryPolicy {
            max_attempts: 4,
            timeout: None,
            backoff: Duration::from_millis(10),
        };
        assert_eq!(p.backoff_before(1), Duration::ZERO);
        assert_eq!(p.backoff_before(2), Duration::from_millis(10));
        assert_eq!(p.backoff_before(3), Duration::from_millis(20));
        assert_eq!(p.backoff_before(4), Duration::from_millis(40));
        assert_eq!(RetryPolicy::default().backoff_before(3), Duration::ZERO);
    }
}
