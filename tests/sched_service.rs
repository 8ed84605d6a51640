//! Multi-run scheduler service determinism (DESIGN.md §13): a run admitted
//! to the shared-fleet [`Scheduler`] must produce a result bit-identical to
//! the same spec executed alone in a closed loop — under random priorities,
//! fair-share weights, time-slice quanta, forced preemption, fault plans on
//! a subset of runs, and on both serial and threaded inner backends.

use mw_framework::{FaultPlan, RetryPolicy, ThreadedBackend};
use noisy_simplex::checkpoint;
use noisy_simplex::prelude::*;
use noisy_simplex::session::{Driver, RunSession};
use nsx_sched::{RunSpec, SchedConfig, Scheduler};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use stoch_eval::backend::{SamplingBackend, SerialBackend};
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::sampler::Noisy;

fn serial_cfg() -> SimplexConfig {
    SimplexConfig {
        backend: BackendChoice::Serial,
        ..SimplexConfig::default()
    }
}

/// A customized config: worker faults plus a retry tweak, so the scheduler
/// must give the run a dedicated backend instead of the shared fleet.
fn chaos_cfg() -> SimplexConfig {
    SimplexConfig {
        backend: BackendChoice::Threaded { workers: 2 },
        faults: Some(FaultPlan::none().kill(0, 5)),
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        ..SimplexConfig::default()
    }
}

fn term(iters: u64) -> Termination {
    Termination {
        tolerance: None,
        max_time: None,
        max_iterations: Some(iters),
    }
}

fn init(seed: u64) -> Vec<Vec<f64>> {
    noisy_simplex::init::random_uniform(2, -4.0, 4.0, seed)
}

fn driver_for(i: usize) -> Driver {
    match i % 4 {
        0 => Driver::Det,
        1 => Driver::Mn(Default::default()),
        2 => Driver::Pc(Default::default()),
        _ => Driver::PcMn(Default::default(), Default::default()),
    }
}

fn assert_identical(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.best_point, b.best_point, "{label}: best_point");
    assert_eq!(
        a.best_observed.to_bits(),
        b.best_observed.to_bits(),
        "{label}: best_observed"
    );
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{label}: elapsed");
    assert_eq!(
        a.total_sampling.to_bits(),
        b.total_sampling.to_bits(),
        "{label}: total_sampling"
    );
    assert_eq!(a.stop, b.stop, "{label}: stop reason");
    assert_eq!(
        a.trace.points().len(),
        b.trace.points().len(),
        "{label}: trace length"
    );
}

/// Run `n` interleaved runs through a scheduler over `inner` and demand
/// each one matches its solo closed-loop execution bitwise.
#[allow(clippy::too_many_arguments)]
fn check_interleaving(
    n: usize,
    width: usize,
    quantum: u64,
    priorities: &[i32],
    weights: &[f64],
    chaos_mask: &[bool],
    inner: Arc<dyn SamplingBackend<<Noisy<Rosenbrock, ConstantNoise> as stoch_eval::objective::StochasticObjective>::Stream>>,
    label: &str,
) {
    // Pinned Gaussian: these tests prove preemption/interleaving
    // determinism, which is independent of the noise shape; under an
    // NSX_NOISE chaos distribution the heavy-tailed wait loops only make
    // them slow. Hostile-noise coverage lives in tests/hostile_noise.rs.
    let obj = Noisy::gaussian(Rosenbrock::new(2), ConstantNoise(8.0));
    let iters = 25;

    let solos: Vec<RunResult> = (0..n)
        .map(|i| {
            let cfg = if chaos_mask[i] {
                chaos_cfg()
            } else {
                serial_cfg()
            };
            RunSession::new(
                &obj,
                init(300 + i as u64),
                cfg,
                term(iters),
                TimeMode::Parallel,
                i as u64,
                driver_for(i),
            )
            .run_to_completion()
        })
        .collect();

    let mut sched = Scheduler::new(SchedConfig { width, quantum }, inner);
    let ids: Vec<u64> = (0..n)
        .map(|i| {
            let cfg = if chaos_mask[i] {
                chaos_cfg()
            } else {
                serial_cfg()
            };
            sched
                .admit(
                    RunSpec::new(
                        &obj,
                        init(300 + i as u64),
                        cfg,
                        term(iters),
                        TimeMode::Parallel,
                        i as u64,
                        driver_for(i),
                    )
                    .priority(priorities[i])
                    .weight(weights[i]),
                )
                .expect("admission failed")
        })
        .collect();
    sched.run();

    assert_eq!(
        sched
            .service_registry()
            .counter("sched.runs_completed")
            .get(),
        n as u64,
        "{label}: all runs must complete"
    );
    for (i, solo) in solos.iter().enumerate() {
        let got = sched.result(ids[i]).expect("missing result");
        assert_identical(&format!("{label}: run {i}"), solo, got);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings over a **serial** inner backend: any number of
    /// runs, priorities, weights, slice quanta, and narrow widths (which
    /// force checkpoint preemption) must leave every result untouched.
    #[test]
    fn interleaved_runs_bit_identical_serial_inner(
        n in 2usize..=5,
        width in 1usize..=2,
        quantum in 1u64..=3,
        prio_raw in collection::vec(-2i32..=2, 5..=5),
        weight_raw in collection::vec(0.5f64..4.0, 5..=5),
        chaos_pick in 0usize..5,
    ) {
        let chaos_mask: Vec<bool> = (0..n).map(|i| i == chaos_pick).collect();
        check_interleaving(
            n,
            width,
            quantum,
            &prio_raw[..n],
            &weight_raw[..n],
            &chaos_mask,
            Arc::new(SerialBackend),
            "serial-inner",
        );
    }

    /// Same property with a **threaded** inner backend under the fleet:
    /// merged batches dispatched over a real worker pool must still be
    /// bitwise indistinguishable from solo serial loops.
    #[test]
    fn interleaved_runs_bit_identical_threaded_inner(
        n in 2usize..=4,
        quantum in 1u64..=2,
        prio_raw in collection::vec(-2i32..=2, 4..=4),
        weight_raw in collection::vec(0.5f64..4.0, 4..=4),
    ) {
        let chaos_mask = vec![false; n];
        check_interleaving(
            n,
            1, // width 1 over >=2 runs: preemption every tick
            quantum,
            &prio_raw[..n],
            &weight_raw[..n],
            &chaos_mask,
            Arc::new(ThreadedBackend::new(2)),
            "threaded-inner",
        );
    }
}

/// A unique checkpoint path per call (tests run concurrently in one
/// process, and cargo may run several test binaries at once).
fn tmp_ckpt(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
    std::env::temp_dir().join(format!("nsx_sched_{tag}_{}_{n}.bin", std::process::id()))
}

fn cleanup_run_files(base: &Path, run_ids: &[u64]) {
    for id in run_ids {
        for suffix in [
            format!(".run{id}"),
            format!(".run{id}.1"),
            format!(".run{id}.tmp"),
        ] {
            let mut p = base.as_os_str().to_os_string();
            p.push(&suffix);
            let _ = std::fs::remove_file(PathBuf::from(p));
        }
    }
}

/// Concurrent runs sharing one configured checkpoint path must not clobber
/// each other: the scheduler rewrites the path per run id, so both durable
/// checkpoints (and their `.1` retention copies) coexist on disk.
#[test]
fn concurrent_runs_get_isolated_checkpoint_files() {
    let obj = Noisy::gaussian(Rosenbrock::new(2), ConstantNoise(4.0));
    let base = tmp_ckpt("shared");
    let ck_cfg = |path: &Path| SimplexConfig {
        backend: BackendChoice::Serial,
        checkpoint: Some(CheckpointConfig {
            path: path.to_path_buf(),
            every: 1,
            retain: true,
        }),
        ..SimplexConfig::default()
    };

    let mut sched = Scheduler::new(
        SchedConfig {
            width: 1,
            quantum: 2,
        },
        Arc::new(SerialBackend),
    );
    let ids: Vec<u64> = (0..2u64)
        .map(|s| {
            sched
                .admit(RunSpec::new(
                    &obj,
                    init(s),
                    ck_cfg(&base),
                    term(12),
                    TimeMode::Parallel,
                    s,
                    Driver::Det,
                ))
                .expect("admission failed")
        })
        .collect();
    sched.run();

    // Both runs finished, and each left its own checkpoint family behind —
    // the shared base path itself was never written.
    for id in &ids {
        let mut p = base.as_os_str().to_os_string();
        p.push(format!(".run{id}"));
        let per_run = PathBuf::from(p);
        assert!(
            per_run.exists(),
            "expected per-run checkpoint at {}",
            per_run.display()
        );
    }
    assert!(
        !base.exists(),
        "shared base path must not be written when runs are isolated"
    );

    // The per-run checkpoints resume independently and bit-identically:
    // each matches an uninterrupted solo run of the same spec.
    for (i, id) in ids.iter().enumerate() {
        let solo = RunSession::new(
            &obj,
            init(*id),
            serial_cfg(),
            term(12),
            TimeMode::Parallel,
            *id,
            Driver::Det,
        )
        .run_to_completion();
        let got = sched.result(*id).expect("missing result");
        assert_identical(&format!("checkpointed run {i}"), &solo, got);
    }
    cleanup_run_files(&base, &ids);
}

/// Under a scheduler a run's due writes go to the scheduler's writer
/// thread: a run whose checkpoint directory does not exist still ends with
/// the failure noted, and once `run()` returns, a writable run's file holds
/// its last due iteration.
#[test]
fn scheduled_writes_are_on_disk_or_noted_when_run_returns() {
    let obj = Noisy::gaussian(Rosenbrock::new(2), ConstantNoise(4.0));
    let every = 3;
    let writable = tmp_ckpt("writable");
    let missing = std::env::temp_dir()
        .join(format!("nsx_sched_no_such_dir_{}", std::process::id()))
        .join("run.bin");
    let mut sched = Scheduler::new(
        SchedConfig {
            width: 2,
            quantum: 2,
        },
        Arc::new(SerialBackend),
    );
    let mut admit = |path: &Path, seed: u64| {
        let cfg = SimplexConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.to_path_buf(),
                every,
                retain: true,
            }),
            ..serial_cfg()
        };
        let mn = Driver::Mn(Default::default());
        let spec = RunSpec::new(
            &obj,
            init(seed),
            cfg,
            term(20),
            TimeMode::Parallel,
            seed,
            mn,
        );
        sched.admit(spec).expect("admission failed")
    };
    let (ok, bad) = (admit(&writable, 0), admit(&missing, 1));
    sched.run();

    let failed = sched.result(bad).expect("missing result");
    assert!(failed.notes.contains(&RunNote::CheckpointFailed));
    let written = sched.result(ok).expect("missing result");
    assert!(!written.notes.contains(&RunNote::CheckpointFailed));
    let mut file = writable.as_os_str().to_os_string();
    file.push(format!(".run{ok}"));
    let info = checkpoint::inspect(Path::new(&file)).expect("the last write is on disk");
    assert_eq!(info.iterations, written.iterations / every * every);
    cleanup_run_files(&writable, &[ok]);
}
