//! The MW worker pool: real OS threads fed over channels, with supervision.
//!
//! This is the in-process substitute for the paper's MPI-connected worker
//! ranks (see DESIGN.md, substitutions): the master hands work to the
//! workers and they hand results back — structurally the send/recv pattern
//! of the original `MWRMComm` layer. Tasks and workers never communicate
//! with each other, only with the master, exactly as in §3.1.
//!
//! Work reaches the workers in one shape, the round: a slot per job, reached
//! through entries on one shared queue that all point at it. The master
//! queues one entry, and each worker that joins queues the next while jobs
//! are left, up to one entry per worker. A worker that takes an entry claims
//! the round's jobs one at a time until none are left, and each result
//! lands in its job's slot. A sampling round (`MwPool::submit_round`,
//! behind the threaded backend) carries one job per stream extension.
//!
//! The master sleeps on the pool's completion notifier, which wakes it when
//! the last job it still awaits in the round lands or when a job is lost:
//! once per round, not once per job. A round too cheap to be worth that
//! wake-up never reaches the pool: the dispatch loop runs it on the master
//! (DESIGN.md §8).
//!
//! The pool is *supervised* (DESIGN.md §9): every worker slot carries a
//! liveness flag armed by an RAII guard on the worker thread, so a worker
//! that panics or is reclaimed mid-job (the paper's §4.2 Condor scenario) is
//! detected by [`MwPool::supervise`], which joins the corpse and respawns a
//! fresh worker into the slot while a respawn budget remains. A lost job is
//! never silent: a job held by a dying worker (or whose result was dropped)
//! turns Lost in its slot, as do a round's unclaimed jobs once no queue
//! entry for the round is left, and the master reads it as [`WorkerLost`].
//! Faults, job counters and losses are all per job.
//! When the budget is exhausted and every worker is dead the pool marks
//! itself failed, drains the queue (erroring every pending job), and all
//! further submissions fail fast — callers degrade gracefully rather than
//! wedge.

use crate::faults::{FaultPlan, WorkerFault};
use crate::resilience::BackoffPolicy;
use crossbeam_channel::{unbounded, Receiver, Sender};
use obs::{Counter, Gauge, MetricsRegistry};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Wakes masters blocked on a round whenever something that can change a
/// pending job's outcome happens: a round's last awaited job lands, a job
/// is lost (its worker died holding it or dropped its result, or no queue
/// entry for its round is left), or a worker dies. Callers snapshot
/// [`generation`](CompletionNotifier::generation) *before* scanning their
/// round slots, then [`wait`](CompletionNotifier::wait)
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

/// Where one job of a [`Round`] stands.
enum RoundJob<T, R> {
    /// Not yet claimed by a worker.
    Queued(T),
    /// In a worker's hand.
    Running,
    /// Finished at the given instant, not yet collected by the master.
    Done(R, Instant),
    /// Will never answer (again): its worker died holding it or dropped its
    /// result, no worker was left to claim it, or the master already
    /// collected its result.
    Lost,
}

/// One job's slot in a [`Round`].
struct RoundSlot<T, R> {
    job: RoundJob<T, R>,
    /// Still counted in [`Round::awaited`]: neither resolved nor forgotten.
    awaited: bool,
}

/// A round shipped by [`MwPool::submit_round`]: one slot per job, a claim
/// cursor shared by the queue entries serving the round, and the count
/// that decides when the master is woken.
pub(crate) struct Round<T, R> {
    /// Runs one job, given the id of the worker that claimed it.
    work: fn(T, usize) -> R,
    slots: Vec<Mutex<RoundSlot<T, R>>>,
    /// The next unclaimed position.
    next: AtomicUsize,
    /// Queue entries ([`Share`]s) for this round not yet dropped.
    shares: AtomicUsize,
    /// Entries the round may still put on the queue to bring in another
    /// worker.
    spare: AtomicUsize,
    /// The pool's job queue; gone once the pool shuts down.
    queue: Weak<Sender<Share>>,
    /// Jobs the master still waits for: neither resolved nor forgotten.
    awaited: AtomicUsize,
    notifier: Arc<CompletionNotifier>,
    queue_depth: Arc<AtomicU64>,
}

impl<T, R> Round<T, R> {
    /// Poison-proof lock of job `pos`'s slot.
    fn slot(&self, pos: usize) -> MutexGuard<'_, RoundSlot<T, R>> {
        self.slots[pos].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take job `pos`'s outcome if it has one: its result and when its
    /// worker finished it, or [`WorkerLost`]. `None` while it is queued or
    /// running. A taken result cannot arrive again, so the slot then reads
    /// as Lost.
    pub(crate) fn poll(&self, pos: usize) -> Option<Result<(R, Instant), WorkerLost>> {
        let mut slot = self.slot(pos);
        match slot.job {
            RoundJob::Queued(_) | RoundJob::Running => None,
            _ => match std::mem::replace(&mut slot.job, RoundJob::Lost) {
                RoundJob::Done(r, finished) => Some(Ok((r, finished))),
                _ => Some(Err(WorkerLost)),
            },
        }
    }

    /// Stop waiting for job `pos`. Its late answer is discarded, and it no
    /// longer holds back the wakeup for the rest of the round.
    pub(crate) fn forget(&self, pos: usize) {
        if std::mem::replace(&mut self.slot(pos).awaited, false) {
            self.awaited.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Record job `pos`'s outcome. True when the master must be woken: the
    /// job was lost, or it was the last job the master still awaited.
    fn settle(&self, pos: usize, job: RoundJob<T, R>) -> bool {
        let lost = matches!(job, RoundJob::Lost);
        let mut slot = self.slot(pos);
        slot.job = job;
        let awaited = std::mem::replace(&mut slot.awaited, false);
        drop(slot);
        awaited && (self.awaited.fetch_sub(1, Ordering::AcqRel) == 1 || lost)
    }
}

/// What a worker needs of a round, whatever its job and result types.
trait RoundWork: Send + Sync {
    /// Claim the next unclaimed job, or `None` once every job is claimed.
    fn claim(&self) -> Option<usize>;
    /// Run claimed job `pos` on worker `worker`, keeping its result unless
    /// `drop_result`. True when the master must be woken (see
    /// [`Round::settle`]); waking it is the caller's part.
    fn run(&self, pos: usize, worker: usize, drop_result: bool) -> bool;
    /// Claimed job `pos` will never answer; the master is woken.
    fn lose(&self, pos: usize);
    /// Take one of the round's spare entries, if a job is still unclaimed
    /// and the pool is up: the queue to put it on, with the entry already
    /// counted in the round's shares.
    fn spare_entry(&self) -> Option<Arc<Sender<Share>>>;
    /// One queue entry for the round is gone. When it was the last, every
    /// job still unclaimed turns Lost.
    fn release(&self);
}

impl<T: Send, R: Send> RoundWork for Round<T, R> {
    fn claim(&self) -> Option<usize> {
        let pos = self.next.fetch_add(1, Ordering::AcqRel);
        (pos < self.slots.len()).then(|| {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            pos
        })
    }

    fn run(&self, pos: usize, worker: usize, drop_result: bool) -> bool {
        let RoundJob::Queued(input) = std::mem::replace(&mut self.slot(pos).job, RoundJob::Running)
        else {
            return false; // claims are unique, so a claimed job is always queued
        };
        let out = (self.work)(input, worker);
        let job = if drop_result {
            RoundJob::Lost
        } else {
            RoundJob::Done(out, Instant::now())
        };
        self.settle(pos, job)
    }

    fn lose(&self, pos: usize) {
        if self.settle(pos, RoundJob::Lost) {
            self.notifier.bump();
        }
    }

    fn spare_entry(&self) -> Option<Arc<Sender<Share>>> {
        if self.next.load(Ordering::Acquire) >= self.slots.len() {
            return None;
        }
        self.spare
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |k| k.checked_sub(1))
            .ok()?;
        let queue = self.queue.upgrade()?;
        self.shares.fetch_add(1, Ordering::AcqRel);
        Some(queue)
    }

    fn release(&self) {
        if self.shares.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let n = self.slots.len();
        let first = self.next.fetch_max(n, Ordering::AcqRel);
        if first >= n {
            return;
        }
        self.queue_depth
            .fetch_sub((n - first) as u64, Ordering::Relaxed);
        let wake = (first..n).fold(false, |wake, pos| self.settle(pos, RoundJob::Lost) | wake);
        if wake {
            self.notifier.bump();
        }
    }
}

/// A queue entry for a round, held by the worker serving it. Dropping the
/// round's last share — its holder is done claiming, died, or the entry was
/// drained from a failed pool's queue — loses every job still unclaimed.
struct Share(Arc<dyn RoundWork>);

impl Share {
    /// Claim the round's next job, if any is left.
    fn claim(&self) -> Option<Claim<'_>> {
        let pos = self.0.claim()?;
        Some(Claim {
            round: &*self.0,
            pos,
            ran: false,
        })
    }

    /// Bring one more worker into the round while a job is left for it.
    /// The master queues a single entry per round and each worker that
    /// joins queues the next: a wake-up then comes from a running worker
    /// rather than from the master waking several workers back to back,
    /// which on a small host stacks two of them on one CPU while another
    /// idles.
    fn invite(&self) {
        if let Some(queue) = self.0.spare_entry() {
            // An entry the queue refuses drops here, like any other share.
            let _ = queue.send(Share(Arc::clone(&self.0)));
        }
    }
}

impl Drop for Share {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// A round job in a worker's hand. Dropped without having run — its
/// worker died holding it, or the job panicked — it turns Lost and the
/// master is woken.
struct Claim<'a> {
    round: &'a dyn RoundWork,
    pos: usize,
    ran: bool,
}

impl Claim<'_> {
    /// Run the job; true when the master must be woken.
    fn run(mut self, worker: usize, drop_result: bool) -> bool {
        let wake = self.round.run(self.pos, worker, drop_result);
        self.ran = true;
        wake
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if !self.ran {
            self.round.lose(self.pos);
        }
    }
}

/// How a master-side caller re-dispatches work lost to worker failure.
///
/// Used by the dispatch loop behind both backends: an attempt that ends in [`WorkerLost`] — or exceeds
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
    /// Shared so rounds can queue their own entries (see [`Share::invite`])
    /// without keeping the queue open once the pool shuts down.
    job_tx: Option<Arc<Sender<Share>>>,
    slots: Vec<Slot>,
    respawn_budget: u64,
    shutdown_outcome: Option<Result<usize, ShutdownError>>,
}

/// A supervised pool of MW workers. See the module docs for the fault model.
pub struct MwPool {
    core: Mutex<Core>,
    /// Kept so the master can respawn workers onto the same queue and drain
    /// it when the pool fails; also means `send` cannot race a disconnect.
    job_rx: Receiver<Share>,
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
        // Wake any master blocked on a round, so that a supervision pass it
        // makes next finds this slot dead.
        self.notifier.bump();
    }
}

/// A worker thread's own state: its slot, its faults, and how many jobs it
/// has executed (the count the faults are keyed on).
struct Worker {
    w: usize,
    fault: WorkerFault,
    executed: u64,
    stats: Arc<Vec<WorkerStats>>,
    obs: Option<Arc<PoolObs>>,
}

impl Worker {
    /// Account the time since `t_wait` as waiting for work.
    fn idle_since(&self, t_wait: Instant) {
        let idle = t_wait.elapsed().as_nanos() as u64;
        self.stats[self.w]
            .idle_nanos
            .fetch_add(idle, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.worker_idle_nanos[self.w].add(idle);
        }
    }

    /// Apply the fault plan to the job in hand: `None` when the worker dies
    /// now, holding it; otherwise whether to drop its result.
    fn admit(&self) -> Option<bool> {
        if self.fault.kill_after.is_some_and(|n| self.executed >= n) {
            return None;
        }
        if let Some(d) = self.fault.delay_for(self.executed) {
            std::thread::sleep(d);
        }
        Some(self.fault.drop_at == Some(self.executed))
    }

    /// Run one admitted job, timing it as busy.
    fn execute(&mut self, job: impl FnOnce()) {
        // Count the job before running it: the job's last act is delivering
        // its result, and a caller unblocked by that delivery must see this
        // job in the counters.
        self.stats[self.w].jobs.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.worker_jobs[self.w].inc();
        }
        let t0 = Instant::now();
        job();
        self.executed += 1;
        let dt = t0.elapsed().as_nanos() as u64;
        self.stats[self.w]
            .busy_nanos
            .fetch_add(dt, Ordering::Relaxed);
        if let Some(o) = &self.obs {
            o.worker_busy_nanos[self.w].add(dt);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    w: usize,
    incarnation: u32,
    fault: WorkerFault,
    rx: Receiver<Share>,
    stats: Arc<Vec<WorkerStats>>,
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
            let mut me = Worker {
                w,
                fault,
                executed: 0,
                stats,
                obs,
            };
            // MWWorker loop: execute a task, report the result, wait for
            // another task. An injected kill reclaims the node with a job in
            // hand, whose result is never sent. The guard must drop FIRST:
            // dropping the job wakes the master with the loss, and a
            // `supervise()` call racing in right then must already see the
            // slot dead or it would skip the respawn.
            loop {
                let t_wait = Instant::now();
                let Ok(share) = rx.recv() else {
                    // Master dropped the job sender: clean shutdown.
                    guard.defused = true;
                    break;
                };
                // Claim before accounting the wait, so a worker's idle time
                // moves only once it holds a job (or found the round
                // already claimed).
                let mut claim = share.claim();
                if claim.is_some() {
                    share.invite();
                }
                me.idle_since(t_wait);
                while let Some(job) = claim {
                    let Some(drop_result) = me.admit() else {
                        drop(guard);
                        drop(job);
                        return;
                    };
                    // Wake the master only once the job's busy time is
                    // counted: the dispatch loop reads it to cost the round.
                    let mut wake = false;
                    me.execute(|| wake = job.run(w, drop_result));
                    if wake {
                        notifier.bump();
                    }
                    claim = share.claim();
                }
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

    /// Full-control constructor: worker count, fault plan, respawn budget,
    /// and optional metrics registry.
    pub fn with_options(
        n_workers: usize,
        faults: FaultPlan,
        respawn_budget: u64,
        registry: Option<&MetricsRegistry>,
    ) -> Self {
        assert!(n_workers >= 1);
        let (job_tx, job_rx) = unbounded::<Share>();
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
                job_tx: Some(Arc::new(job_tx)),
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
    /// no pending job waits forever. Returns the number of live workers.
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

    /// Discard every queued entry. A round whose last entry this drops
    /// turns its unclaimed jobs Lost and wakes the master.
    fn drain_queue(&self) {
        while self.job_rx.try_recv().is_ok() {}
    }

    /// Snapshot the completion generation. Take this *before* scanning
    /// pending jobs; pass it to [`wait_for_completion`]
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

    /// Ship `inputs` as one round, each job running `work` on whichever
    /// worker claims it. The round goes on the queue as one entry, and up
    /// to `min(workers, jobs)` workers join it (see [`Share::invite`]). The
    /// completion notifier is bumped when the last job the master awaits
    /// lands or when a job is lost, not after every job. On a failed or
    /// shut-down pool every job is Lost at once.
    pub(crate) fn submit_round<T, R>(
        &self,
        inputs: Vec<T>,
        work: fn(T, usize) -> R,
    ) -> Arc<Round<T, R>>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        let n = inputs.len();
        // Enqueue under the core lock, so a pool failing concurrently
        // drains this round's entry rather than stranding it.
        let core = self.lock_core();
        let queue = core.job_tx.as_ref().filter(|_| !self.is_failed());
        let round = Arc::new(Round {
            work,
            slots: inputs
                .into_iter()
                .map(|input| {
                    Mutex::new(RoundSlot {
                        job: RoundJob::Queued(input),
                        awaited: true,
                    })
                })
                .collect(),
            next: AtomicUsize::new(0),
            shares: AtomicUsize::new(usize::from(n > 0)),
            spare: AtomicUsize::new(self.n_workers.min(n).saturating_sub(1)),
            queue: queue.map_or_else(Weak::new, Arc::downgrade),
            awaited: AtomicUsize::new(n),
            notifier: Arc::clone(&self.notifier),
            queue_depth: Arc::clone(&self.queue_depth),
        });
        if n == 0 {
            return round;
        }
        // Every job counts as queued until a worker claims it or the
        // round's last share drops, so a share dropped unsent loses the
        // whole round. `queue_depth` is pool-global, so on a shared pool the
        // high-water mark covers every submitter's jobs.
        let depth = self.queue_depth.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        let share = Share(Arc::clone(&round) as Arc<dyn RoundWork>);
        let Some(queue) = queue else {
            return round;
        };
        if let Some(o) = self.obs.get() {
            o.jobs_submitted.add(n as u64);
            o.queue_depth_hwm.record(depth);
        }
        // Unreachable while the pool holds `job_rx`; a refused share drops
        // and the round still resolves.
        let _ = queue.send(share);
        round
    }

    /// True when the pool injects no faults.
    pub(crate) fn fault_free(&self) -> bool {
        self.faults.is_empty()
    }

    /// Jobs run and busy nanoseconds, each summed over the workers.
    pub(crate) fn work_totals(&self) -> (u64, u64) {
        self.stats.iter().fold((0, 0), |(jobs, busy), s| {
            (
                jobs + s.jobs.load(Ordering::Relaxed),
                busy + s.busy_nanos.load(Ordering::Relaxed),
            )
        })
    }

    /// Snapshot of per-worker job counts (rounds the dispatch loop ran
    /// inline are not in them).
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
    use std::sync::mpsc;

    /// Wait out every job of `round`: its result, or [`WorkerLost`].
    fn collect_round<T, R>(pool: &MwPool, round: &Round<T, R>) -> Vec<Result<R, WorkerLost>> {
        let mut out: Vec<_> = (0..round.slots.len()).map(|_| None).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while out.iter().any(Option::is_none) {
            assert!(Instant::now() < deadline, "round never resolved");
            let seen = pool.completion_generation();
            let mut news = false;
            for (pos, o) in out.iter_mut().enumerate().filter(|(_, o)| o.is_none()) {
                *o = round.poll(pos).map(|r| r.map(|(r, _)| r));
                news |= o.is_some();
            }
            if !news {
                pool.wait_for_completion(seen, Duration::from_millis(100));
            }
        }
        out.into_iter().flatten().collect()
    }

    /// Ship `input` as a round of one and wait for its outcome.
    fn run_one<T, R>(pool: &MwPool, input: T, work: fn(T, usize) -> R) -> Result<R, WorkerLost>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        let round = pool.submit_round(vec![input], work);
        collect_round(pool, &round).remove(0)
    }

    /// The id of whichever worker runs the job.
    fn worker_id((): (), w: usize) -> usize {
        w
    }

    #[test]
    fn a_round_of_one_returns_its_result() {
        let pool = MwPool::new(2);
        assert_eq!(run_one(&pool, 2, |x: i32, _| x + 2), Ok(4));
    }

    #[test]
    fn round_results_land_in_submission_order() {
        let pool = MwPool::new(3);
        let round = pool.submit_round((0..20u64).collect(), |x, _| x * x);
        let want: Vec<_> = (0..20u64).map(|x| Ok(x * x)).collect();
        assert_eq!(collect_round(&pool, &round), want);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn stats_count_jobs() {
        let pool = MwPool::new(3);
        for _ in 0..30 {
            run_one(&pool, (), |(), _| ()).unwrap();
        }
        let counts = pool.job_counts();
        assert_eq!(counts.iter().sum::<u64>(), 30);
    }

    #[test]
    fn workers_see_their_ids() {
        let pool = MwPool::new(4);
        let round = pool.submit_round(vec![(); 32], worker_id);
        let ids = collect_round(&pool, &round);
        assert!(ids.iter().all(|w| w.is_ok_and(|w| w < 4)));
    }

    #[test]
    fn shutdown_joins_cleanly_and_is_idempotent() {
        let pool = MwPool::new(2);
        run_one(&pool, (), |(), _| ()).unwrap();
        assert_eq!(pool.shutdown(), Ok(2));
        assert_eq!(
            pool.shutdown(),
            Ok(2),
            "second shutdown returns the cached outcome"
        );
        // A post-shutdown submission fails fast instead of panicking.
        assert_eq!(run_one(&pool, 1, |x: i32, _| x), Err(WorkerLost));
    }

    #[test]
    fn shutdown_reports_lost_workers() {
        let pool = MwPool::with_options(2, FaultPlan::none().kill(0, 0), 0, None);
        // Feed jobs until worker 0 has taken one and died.
        while pool.workers_lost() == 0 {
            let _ = run_one(&pool, (), worker_id);
        }
        let err = pool.shutdown().unwrap_err();
        assert_eq!(err.lost, 1);
        assert_eq!(err.clean, 1);
    }

    /// Kill the (sole) worker of `pool` by feeding it a panicking job, and
    /// wait until supervision can observe the death.
    fn kill_sole_worker(pool: &MwPool) {
        let lost = run_one::<(), ()>(pool, (), |(), _| panic!("injected worker death"));
        assert_eq!(lost, Err(WorkerLost));
        // The liveness flag flips when the worker's guard drops, marginally
        // after the in-flight job turns Lost; wait it out.
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
        assert_eq!(run_one(&pool, 7, |x: i32, _| x), Ok(7));
    }

    /// Ship two rounds of one to a two-worker pool so that each worker takes
    /// exactly one: the first job holds its worker until the second has
    /// resolved, so the second must go to the other worker. A plain
    /// sequence of jobs on the shared queue may never reach a worker that
    /// is slow to wake.
    fn one_job_per_worker(pool: &MwPool) -> [Result<usize, WorkerLost>; 2] {
        let (open, gate) = mpsc::channel::<()>();
        let held = pool.submit_round(vec![gate], |gate, w| {
            let _ = gate.recv();
            w
        });
        let other = run_one(pool, (), worker_id);
        let _ = open.send(());
        [collect_round(pool, &held).remove(0), other]
    }

    #[test]
    fn injected_fault_surfaces_as_worker_lost() {
        let pool = MwPool::with_options(2, FaultPlan::none().kill(0, 0), 0, None);
        let mut lost = 0;
        let mut ok = 0;
        let first_two = one_job_per_worker(&pool);
        let rest = (2..20).map(|_| run_one(&pool, (), worker_id));
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
        let pool = MwPool::with_options(3, FaultPlan::none().kill(0, 2), 0, None);
        let results: Vec<Result<usize, WorkerLost>> =
            (0..40).map(|_| run_one(&pool, (), worker_id)).collect();
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
            if run_one(&pool, (), worker_id).is_err() {
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
        assert_eq!(run_one(&pool, (), worker_id), Err(WorkerLost));
        assert!(pool.supervise() >= 1);
        for _ in 0..10 {
            assert!(run_one(&pool, (), worker_id).is_ok());
        }
        assert_eq!(pool.workers_lost(), 1);
    }

    #[test]
    fn a_round_whose_workers_all_died_loses_its_unclaimed_jobs() {
        // The sole worker finishes job 0, dies holding job 1, and takes the
        // round's only queue entry with it: jobs 2 and 3 can never be
        // claimed, so they turn Lost instead of waiting forever.
        let pool = MwPool::with_options(1, FaultPlan::none().kill(0, 1), 0, None);
        let round = pool.submit_round(vec![0, 1, 2, 3], |x: u32, _| x + 10);
        let got = collect_round(&pool, &round);
        assert_eq!(
            got,
            [Ok(10), Err(WorkerLost), Err(WorkerLost), Err(WorkerLost)]
        );
        assert_eq!(pool.job_counts(), [1], "only the finished job ran");
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn a_failed_pools_drained_queue_loses_queued_rounds() {
        // The sole worker dies on the single job ahead of the round, with no
        // respawn budget: the failed pool drains the round's entry.
        let pool = MwPool::with_options(1, FaultPlan::none().kill(0, 0), 0, None);
        let ahead = pool.submit_round(vec![()], |(), _| ());
        let round = pool.submit_round(vec![1, 2, 3], |x: u32, _| x);
        assert_eq!(collect_round(&pool, &ahead), [Err(WorkerLost)]);
        while pool.live_workers() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.supervise(), 0);
        assert!(pool.is_failed());
        assert_eq!(collect_round(&pool, &round), [Err(WorkerLost); 3]);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn a_panicking_round_job_is_lost_alone() {
        // Job 0 panics on whichever worker claims it; the claim guard turns
        // exactly that job Lost, and the other worker's entry still serves
        // job 1.
        let pool = MwPool::with_options(2, FaultPlan::none(), 0, None);
        let round = pool.submit_round(vec![0, 1], |x: u32, _| {
            assert!(x != 0, "injected round job panic");
            x
        });
        assert_eq!(collect_round(&pool, &round), [Err(WorkerLost), Ok(1)]);
        assert_eq!(pool.shutdown(), Err(ShutdownError { clean: 1, lost: 1 }));
    }

    #[test]
    fn a_dropped_result_fails_its_round_and_the_next_round_succeeds() {
        // Worker 1 runs its first job but drops the result: lost on the
        // wire, not a dead worker. Each job of a round of two waits for the
        // other to start, so the round takes one job on each worker.
        let pool = MwPool::supervised(2, FaultPlan::none().drop_result(1, 0));
        let meet = Arc::new(std::sync::Barrier::new(2));
        let round_of_two = || {
            let round = pool.submit_round(vec![Arc::clone(&meet); 2], |meet, w| {
                meet.wait();
                w
            });
            collect_round(&pool, &round)
        };
        let first = round_of_two();
        assert_eq!(first.iter().filter(|r| r.is_err()).count(), 1);
        let mut workers: Vec<usize> = round_of_two().into_iter().map(Result::unwrap).collect();
        workers.sort_unstable();
        assert_eq!(workers, [0, 1]);
        assert_eq!(pool.workers_lost(), 0);
    }

    #[test]
    fn exhausted_budget_fails_pool_and_drains_queue() {
        // Single worker, dies immediately, no budget: the pool must fail
        // fast — every pending and future round errors, nothing hangs.
        let pool = MwPool::with_options(1, FaultPlan::none().kill(0, 0), 0, None);
        let pending: Vec<_> = (0..5)
            .map(|i| pool.submit_round(vec![i], |i: i32, _| i))
            .collect();
        // Wait for the worker to take the first job and die.
        while pool.workers_lost() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.supervise(), 0);
        assert!(pool.is_failed());
        for round in &pending {
            assert_eq!(collect_round(&pool, round), [Err(WorkerLost)]);
        }
        assert_eq!(run_one(&pool, 0, |i: i32, _| i), Err(WorkerLost));
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn delay_fault_slows_but_does_not_lose() {
        let pool = MwPool::supervised(1, FaultPlan::none().delay(0, 0, 15));
        let t0 = std::time::Instant::now();
        assert_eq!(run_one(&pool, 3, |x: i32, _| x), Ok(3));
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn drop_fault_loses_exactly_that_result() {
        // Worker 0's second job (index 1) executes but its result is
        // discarded — lost on the wire, not a dead worker.
        let pool = MwPool::supervised(1, FaultPlan::none().drop_result(0, 1));
        let echo = |x: i32, _| x;
        assert_eq!(run_one(&pool, 0, echo), Ok(0));
        assert_eq!(run_one(&pool, 1, echo), Err(WorkerLost));
        assert_eq!(run_one(&pool, 2, echo), Ok(2));
        assert_eq!(pool.workers_lost(), 0, "the worker itself stayed alive");
        assert_eq!(pool.live_workers(), 1);
    }

    #[test]
    fn metrics_mirror_pool_activity() {
        let reg = obs::MetricsRegistry::new();
        let pool = MwPool::with_metrics(3, &reg);
        let rounds: Vec<_> = (0..24)
            .map(|i| pool.submit_round(vec![i], |i: i32, _| i))
            .collect();
        for round in &rounds {
            collect_round(&pool, round).remove(0).unwrap();
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
                    let rounds: Vec<_> = (0..50)
                        .map(|i| pool.submit_round(vec![i], |i: i32, _| i))
                        .collect();
                    for round in &rounds {
                        collect_round(&pool, round).remove(0).unwrap();
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
            let _ = run_one(&pool, (), worker_id);
        }
        pool.supervise();
        assert_eq!(reg.counter("mw.pool.workers_lost").get(), 1);
        assert_eq!(reg.counter("mw.pool.respawns").get(), 1);
    }

    #[test]
    fn idle_time_accrues_while_waiting() {
        let pool = MwPool::new(1);
        run_one(&pool, (), |(), _| ()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        run_one(&pool, (), |(), _| ()).unwrap();
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
        let rounds: Vec<_> = (0..1000u64)
            .map(|i| pool.submit_round(vec![i], |i, _| i))
            .collect();
        let sum: u64 = rounds
            .iter()
            .map(|round| collect_round(&pool, round).remove(0).unwrap())
            .sum();
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
