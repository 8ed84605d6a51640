//! Allocation gate for the simplex decision layer: one `RunSession::step`
//! on `SerialBackend` allocates at most `MAX_PER_STEP` times on average.
//!
//! A step reads the simplex where it lives: the geometry borrows the
//! engine's slots, the diameter is computed once per change of the vertex
//! set, and rounds reuse the engine's plan and job buffers. What is left is
//! the new trial points, the centroid and the amortized growth of the trace.
//! An allocation count does not depend on the hardware, so this gate holds
//! on any host. Every setting is built explicitly, so no `NSX_*` variable
//! changes the count.

use noisy_simplex::config::{
    BackendChoice, BreakdownAction, BreakdownPolicy, MnParams, NonFinitePolicy, PcConditions,
    PcParams, SamplingPolicy, SimplexConfig, TransportChoice,
};
use noisy_simplex::geometry::Coefficients;
use noisy_simplex::init;
use noisy_simplex::session::{Driver, RunSession, SessionStatus};
use noisy_simplex::termination::Termination;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use stoch_eval::backend::SerialBackend;
use stoch_eval::clock::TimeMode;
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::sampler::Noisy;
use stoch_eval::stats::EstimatorChoice;

const MAX_PER_STEP: f64 = 6.0;
const RUNS_PER_DRIVER: u64 = 200;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn config() -> SimplexConfig {
    SimplexConfig {
        coefficients: Coefficients::default(),
        sampling: SamplingPolicy {
            initial_dt: 1.0,
            growth: 1.5,
        },
        continuous: true,
        backend: BackendChoice::Serial,
        transport: TransportChoice::Inproc,
        retry: Default::default(),
        faults: None,
        respawn_budget: None,
        checkpoint: None,
        nonfinite: NonFinitePolicy::Quarantine,
        estimator: EstimatorChoice::Welford,
        breakdown: BreakdownPolicy {
            action: BreakdownAction::Note,
            min_samples: 64,
            kurtosis: 4.0,
            outlier_frac: 0.01,
        },
    }
}

/// Allocations and steps over `RUNS_PER_DRIVER` runs of `driver`, counting
/// only inside `RunSession::step`.
fn count_steps(driver: Driver) -> (u64, u64) {
    let obj = Noisy::gaussian(Rosenbrock::new(4), ConstantNoise(100.0));
    let term = Termination {
        tolerance: Some(1e-6),
        max_time: Some(1e5),
        max_iterations: Some(100_000),
    };
    let (mut total, mut steps) = (0, 0);
    for seed in 0..RUNS_PER_DRIVER {
        let init = init::random_uniform(4, -6.0, 3.0, 1_000 + seed);
        let mut session = RunSession::with_backend(
            &obj,
            init,
            config(),
            term,
            TimeMode::Parallel,
            seed,
            driver,
            Arc::new(SerialBackend),
        );
        loop {
            let before = allocs();
            let status = session.step();
            total += allocs() - before;
            steps += 1;
            if status == SessionStatus::Finished {
                break;
            }
        }
        assert!(session.finish().iterations > 0);
    }
    (total, steps)
}

#[test]
fn a_step_allocates_at_most_six_times_on_average() {
    let mn = MnParams { k: 2.0 };
    let pc = PcParams {
        k: 1.0,
        conditions: PcConditions::all(),
    };
    for (name, driver) in [
        ("MN", Driver::Mn(mn)),
        ("PC", Driver::Pc(pc)),
        ("PC+MN", Driver::PcMn(mn, pc)),
    ] {
        let (total, steps) = count_steps(driver);
        let per_step = total as f64 / steps as f64;
        eprintln!("{name}: {total} allocations over {steps} steps = {per_step:.2} per step");
        assert!(
            per_step <= MAX_PER_STEP,
            "{name}: {per_step:.2} allocations per step (gate {MAX_PER_STEP})"
        );
    }
}
