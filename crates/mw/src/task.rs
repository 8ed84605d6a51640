//! The structured MW layer: `MwTask` / `MwDriver` / worker context — the
//! analogues of the `MWTask`, `MWDriver`, `MWWorker` classes the paper
//! re-implements (§3.1, Fig 3.1), including the vertex-level server→client
//! fan-out (Fig 3.2).

use crate::pool::{JobHandle, MwPool, WorkerLost};

/// Context available to a task while it executes on a worker.
///
/// The worker is logically a simplex vertex; its "server" side can fan work
/// out to `ns_clients` client threads, one per simulated system, via
/// [`WorkerCtx::run_clients`].
#[derive(Debug, Clone, Copy)]
pub struct WorkerCtx {
    /// Id of the worker executing the task.
    pub worker_id: usize,
    /// Number of client processes per vertex (`Ns`).
    pub ns_clients: usize,
}

impl WorkerCtx {
    /// Run `self.ns_clients` client shards concurrently on real threads and
    /// collect their results in shard order.
    ///
    /// Clients never communicate with each other, only with their server —
    /// matching §4.3.
    pub fn run_clients<R, F>(&self, shard: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let n = self.ns_clients.max(1);
        if n == 1 {
            return vec![shard(0)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let shard = &shard;
                    scope.spawn(move || shard(i))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| panic!("MW client thread panicked"))
                })
                .collect()
        })
    }
}

/// One unit of work: the data describing a task plus the computation that
/// produces its result (the paper's `MWTask` abstraction).
pub trait MwTask: Send + 'static {
    /// The result reported back to the master.
    type Output: Send + 'static;

    /// Execute on a worker.
    fn execute(self, ctx: &WorkerCtx) -> Self::Output;
}

/// The master-side driver managing a set of workers (the paper's
/// `MWDriver`).
pub struct MwDriver {
    pool: MwPool,
    ns_clients: usize,
}

impl MwDriver {
    /// Spawn a driver with `n_workers` workers, each fronting `ns_clients`
    /// client threads.
    pub fn new(n_workers: usize, ns_clients: usize) -> Self {
        MwDriver {
            pool: MwPool::new(n_workers),
            ns_clients,
        }
    }

    /// Like [`new`](Self::new), with the pool recording its activity
    /// (jobs, busy/idle time, queue depth) into `registry`.
    pub fn with_metrics(
        n_workers: usize,
        ns_clients: usize,
        registry: &obs::MetricsRegistry,
    ) -> Self {
        MwDriver {
            pool: MwPool::with_metrics(n_workers, registry),
            ns_clients,
        }
    }

    /// Spawn a driver whose workers fail per the injection plan (see
    /// [`MwPool::with_fault_injection`]); for testing reassignment.
    pub fn with_fault_injection(
        n_workers: usize,
        ns_clients: usize,
        faults: &[Option<u64>],
    ) -> Self {
        MwDriver {
            pool: MwPool::with_fault_injection(n_workers, faults),
            ns_clients,
        }
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.pool.n_workers()
    }

    /// Clients per worker.
    pub fn ns_clients(&self) -> usize {
        self.ns_clients
    }

    /// Dispatch a task to the next free worker; returns immediately.
    pub fn dispatch<T: MwTask>(&self, task: T) -> JobHandle<T::Output> {
        let ns = self.ns_clients;
        self.pool.submit(move |worker_id| {
            let ctx = WorkerCtx {
                worker_id,
                ns_clients: ns,
            };
            task.execute(&ctx)
        })
    }

    /// Dispatch a batch as one round and wait for every result (in input
    /// order). Each worker that claims a task brings in the next, and the
    /// master wakes once the round is in or a task is lost. Any result lost
    /// to worker death fails the whole batch; use
    /// [`dispatch_reliable`](Self::dispatch_reliable) for per-task retry.
    pub fn dispatch_all<T: MwTask>(&self, tasks: Vec<T>) -> Result<Vec<T::Output>, WorkerLost> {
        let n = tasks.len();
        let inputs = tasks.into_iter().map(|t| (t, self.ns_clients)).collect();
        let round = self
            .pool
            .submit_round(inputs, |(task, ns_clients), worker_id| {
                task.execute(&WorkerCtx {
                    worker_id,
                    ns_clients,
                })
            });
        (0..n).map(|pos| round.recv(pos)).collect()
    }

    /// Dispatch with master-side reassignment: if the executing worker dies
    /// mid-task (see [`WorkerLost`]), the task is re-dispatched
    /// up to `max_retries` times — the paper's restart-the-worker behaviour
    /// (§4.2), done at the master.
    pub fn dispatch_reliable<T: MwTask + Clone>(
        &self,
        task: T,
        max_retries: usize,
    ) -> Result<T::Output, WorkerLost> {
        let mut attempt = 0;
        loop {
            match self.dispatch(task.clone()).recv() {
                Ok(out) => return Ok(out),
                Err(lost) => {
                    if attempt >= max_retries {
                        return Err(lost);
                    }
                    // Reap the corpse (and respawn if the pool has budget)
                    // so the retry lands on a live worker.
                    self.pool.supervise();
                    attempt += 1;
                }
            }
        }
    }

    /// Per-worker job counts.
    pub fn job_counts(&self) -> Vec<u64> {
        self.pool.job_counts()
    }

    /// Access the underlying pool (for adapter layers).
    pub fn pool(&self) -> &MwPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SquareTask(u64);
    impl MwTask for SquareTask {
        type Output = u64;
        fn execute(self, _ctx: &WorkerCtx) -> u64 {
            self.0 * self.0
        }
    }

    struct ClientSumTask;
    impl MwTask for ClientSumTask {
        type Output = usize;
        fn execute(self, ctx: &WorkerCtx) -> usize {
            ctx.run_clients(|i| i).into_iter().sum()
        }
    }

    #[test]
    fn dispatch_all_preserves_order() {
        let driver = MwDriver::new(4, 1);
        let out = driver
            .dispatch_all((0..10).map(SquareTask).collect())
            .unwrap();
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }

    #[test]
    fn clients_fan_out_per_worker() {
        let driver = MwDriver::new(2, 6);
        let out = driver
            .dispatch_all(vec![ClientSumTask, ClientSumTask])
            .unwrap();
        // 0+1+..+5 = 15 per task.
        assert_eq!(out, vec![15, 15]);
    }

    #[test]
    fn single_client_runs_inline() {
        let ctx = WorkerCtx {
            worker_id: 0,
            ns_clients: 1,
        };
        assert_eq!(ctx.run_clients(|i| i + 100), vec![100]);
    }

    #[test]
    fn job_counts_cover_all_dispatches() {
        let driver = MwDriver::new(3, 1);
        let _ = driver
            .dispatch_all((0..20).map(SquareTask).collect())
            .unwrap();
        assert_eq!(driver.job_counts().iter().sum::<u64>(), 20);
    }

    #[derive(Clone)]
    struct CloneSquare(u64);
    impl MwTask for CloneSquare {
        type Output = u64;
        fn execute(self, _ctx: &WorkerCtx) -> u64 {
            self.0 * self.0
        }
    }

    #[test]
    fn reliable_dispatch_survives_worker_deaths() {
        // Worker 0 dies on its second job; a healthy worker remains, so
        // every reliable dispatch eventually succeeds.
        let driver = MwDriver::with_fault_injection(2, 1, &[Some(1), None]);
        let mut ok = 0;
        for i in 0..50u64 {
            if driver.dispatch_reliable(CloneSquare(i), 3) == Ok(i * i) {
                ok += 1;
            }
        }
        assert_eq!(ok, 50);
    }

    /// Reports its worker once the other task of its batch has started, so
    /// a batch of two takes one job on each of two workers.
    struct MeetTask(std::sync::Arc<std::sync::Barrier>);
    impl MwTask for MeetTask {
        type Output = usize;
        fn execute(self, ctx: &WorkerCtx) -> usize {
            self.0.wait();
            ctx.worker_id
        }
    }

    #[test]
    fn a_dropped_result_fails_its_batch_and_the_next_batch_succeeds() {
        // Worker 1 runs its first job but drops the result: lost on the
        // wire, not a dead worker.
        let driver = MwDriver {
            pool: MwPool::supervised(2, crate::faults::FaultPlan::none().drop_result(1, 0)),
            ns_clients: 1,
        };
        let meet = std::sync::Arc::new(std::sync::Barrier::new(2));
        let batch = || vec![MeetTask(meet.clone()), MeetTask(meet.clone())];
        assert_eq!(driver.dispatch_all(batch()), Err(WorkerLost));
        let mut workers = driver.dispatch_all(batch()).unwrap();
        workers.sort_unstable();
        assert_eq!(workers, [0, 1]);
        assert_eq!(driver.pool().workers_lost(), 0);
    }

    #[test]
    fn reliable_dispatch_gives_up_after_retries() {
        // Both workers die immediately: every attempt is lost.
        let driver = MwDriver::with_fault_injection(2, 1, &[Some(0), Some(0)]);
        let r = driver.dispatch_reliable(CloneSquare(3), 1);
        assert!(r.is_err());
    }
}
