//! `mw-framework` — an in-process reproduction of the MW master–worker
//! framework the paper builds on (Linderoth et al., Univ. of Wisconsin),
//! including the extra hierarchy level the paper adds: each worker fronts a
//! *server* that fans out to `Ns` *client* simulations (Figs 3.1–3.2, 4.3).
//!
//! The paper's deployment uses MPI ranks on a cluster; here workers are OS
//! threads fed over `crossbeam` channels (see `DESIGN.md` — substitutions).
//! The communication topology is preserved: tasks and workers never talk to
//! each other, only to the master; clients only to their server.
//!
//! * [`alloc`] — the processor-allocation arithmetic of Table 3.3.
//! * [`pool`] — the supervised worker pool (spawn/submit/call/stats,
//!   liveness detection, respawn, graceful failure).
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`],
//!   `NSX_FAULTS`) for chaos-testing the supervision layer.
//! * [`task`] — the structured `MwTask`/`MwDriver`/`WorkerCtx` layer with
//!   the server→clients fan-out.
//! * `dispatch` (crate-private) — the one master loop behind both
//!   sampling backends: retry from master-side stream clones, per-attempt
//!   deadlines, straggler hedging and degradation to inline execution,
//!   over a small link trait implemented by [`pool::MwPool`] and
//!   [`transport::ProcessPool`] (DESIGN.md §8, §9, §16).
//! * [`backend`] — [`backend::ThreadedBackend`], the thread-pool
//!   implementation of `stoch-eval`'s `SamplingBackend` seam: whole
//!   sampling rounds fan out over the workers through the dispatch loop.
//! * [`objective`] — an adapter that runs any `StochasticObjective`'s
//!   sampling on MW workers, so the optimizers in `noisy-simplex` can be
//!   deployed on the pool unchanged.
//! * [`resilience`] — straggler hedging ([`resilience::HedgePolicy`],
//!   `NSX_HEDGE`), heartbeat liveness, and jittered respawn backoff
//!   (DESIGN.md §16), shared by the pools, the dispatch loop, and the
//!   transport.
//! * [`transport`] — the master–worker message layer and process-level
//!   distribution seam (DESIGN.md §12): a versioned, CRC-guarded frame
//!   protocol ([`transport::frame`]) over Unix-domain sockets to real
//!   worker *processes* ([`transport::ProcessBackend`], the socket side of
//!   the dispatch loop), with in-process channels as the second
//!   [`transport::Transport`] implementation and master-side network-fault
//!   injection.
//!
//! (The §3.4 scale-up experiment lives in the `repro-bench` crate.)
//!
//! Losing a worker must never take down or wedge a run, so production code
//! in this crate is forbidden from `unwrap`/`expect` on recoverable paths
//! (the lints below); worker loss is a value ([`pool::WorkerLost`]), not a
//! panic.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
pub mod backend;
mod dispatch;
pub mod faults;
pub mod objective;
pub mod pool;
pub mod resilience;
pub mod task;
pub mod transport;

pub use alloc::Allocation;
pub use backend::ThreadedBackend;
pub use faults::{Delay, FaultPlan, WorkerFault};
pub use objective::{MwObjective, MwStream};
pub use pool::{
    default_respawn_budget, JobHandle, MwPool, RetryPolicy, ShutdownError, WorkerLost, WorkerStats,
};
pub use resilience::{BackoffPolicy, HeartbeatPolicy, HedgePolicy, P2Quantile};
pub use task::{MwDriver, MwTask, WorkerCtx};
pub use transport::{ProcessBackend, ProcessPool, Transport, TransportError};
