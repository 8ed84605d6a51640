//! `mw-framework` — an in-process reproduction of the MW master–worker
//! framework the paper builds on (Linderoth et al., Univ. of Wisconsin).
//! The extra hierarchy level the paper adds — each worker fronts a *server*
//! that fans out to `Ns` *client* simulations (Figs 3.1–3.2, 4.3) — is
//! counted in [`alloc`]; the scale-up exhibit models the clients' mean by
//! its variance (see `DESIGN.md` — substitutions).
//!
//! The paper's deployment uses MPI ranks on a cluster; here workers are OS
//! threads fed over `crossbeam` channels (see `DESIGN.md` — substitutions).
//! The communication topology is preserved: jobs and workers never talk to
//! each other, only to the master.
//!
//! * [`alloc`] — the processor-allocation arithmetic of Table 3.3.
//! * [`pool`] — the supervised worker pool (rounds of jobs, stats,
//!   liveness detection, respawn, graceful failure).
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`],
//!   `NSX_FAULTS`) for chaos-testing the supervision layer.
//! * `dispatch` (crate-private) — the one master loop behind both
//!   sampling backends: retry from master-side stream clones, per-attempt
//!   deadlines, straggler hedging and degradation to inline execution,
//!   over a small link trait implemented by [`pool::MwPool`] and
//!   [`transport::ProcessPool`] (DESIGN.md §8, §9, §16).
//! * [`backend`] — [`backend::ThreadedBackend`], the thread-pool
//!   implementation of `stoch-eval`'s `SamplingBackend` seam: whole
//!   sampling rounds fan out over the workers through the dispatch loop.
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
pub mod pool;
pub mod resilience;
pub mod transport;

pub use alloc::Allocation;
pub use backend::ThreadedBackend;
pub use faults::{Delay, FaultPlan, WorkerFault};
pub use pool::{
    default_respawn_budget, MwPool, RetryPolicy, ShutdownError, WorkerLost, WorkerStats,
};
pub use resilience::{BackoffPolicy, HeartbeatPolicy, HedgePolicy, P2Quantile};
pub use transport::{ProcessBackend, ProcessPool, Transport, TransportError};
