//! `nsx-sched` — a multi-run scheduling service for the stochastic-simplex
//! engine.
//!
//! Historically a run *owned* its sampling pool: `Method::run` drove a
//! closed loop that monopolized whatever backend the config built.
//! This crate inverts that ownership for multi-tenant workloads:
//!
//! * [`Scheduler`] admits runs ([`RunSpec`]: objective, driver, priority,
//!   fair-share weight) and time-slices them in ticks of
//!   [`SchedConfig::quantum`] simplex rounds over at most
//!   [`SchedConfig::width`] resident runs, picking by minimum weighted
//!   virtual runtime.
//! * One thread drives the fleet: each tick polls the selected runs
//!   ([`RunSession::poll`](noisy_simplex::session::RunSession::poll)),
//!   merges the sampling rounds they post into single batches on one inner
//!   [`SamplingBackend`](stoch_eval::backend::SamplingBackend) — one
//!   dispatch per round of the tick instead of one per run — and hands each
//!   run its share back. Runs with a dedicated (chaos) backend step inline
//!   on it. The tick spawns no threads.
//! * Preemption uses the checkpoint codec: a suspended run becomes bytes in
//!   memory (or a per-run file via
//!   [`CheckpointConfig::for_run`](noisy_simplex::checkpoint::CheckpointConfig::for_run))
//!   and later resumes bit-identically, on the fleet or on any other
//!   backend.
//!
//! The load-bearing invariant, asserted by this crate's tests and CI's
//! `service_scaleup` exhibit: **a run's result is bit-identical whether it
//! ran alone, time-sliced against 999 neighbours, or was preempted and
//! resumed mid-flight.**
//!
//! Configuration comes from [`SchedConfig`] or the `NSX_SCHED` environment
//! variable (`width=N:quantum=R`).

#![warn(missing_docs)]

pub mod config;
pub mod scheduler;
mod writer;

pub use config::SchedConfig;
pub use scheduler::{RunSpec, Scheduler};

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_simplex::checkpoint::{self, CheckpointConfig, CheckpointError, CheckpointWrite};
    use noisy_simplex::config::{BackendChoice, ConfigError, SimplexConfig};
    use noisy_simplex::result::{RunNote, RunResult};
    use noisy_simplex::session::{Driver, RunSession};
    use noisy_simplex::termination::Termination;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use stoch_eval::backend::SerialBackend;
    use stoch_eval::clock::TimeMode;
    use stoch_eval::codec::Reader;
    use stoch_eval::functions::{Rosenbrock, Sphere};
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::objective::{Estimate, SampleStream, StochasticObjective};
    use stoch_eval::sampler::{Noisy, NoisyStream};

    fn serial_cfg() -> SimplexConfig {
        SimplexConfig {
            backend: BackendChoice::Serial,
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

    fn assert_bit_identical(solo: &RunResult, svc: &RunResult, what: &str) {
        assert_eq!(solo.best_point, svc.best_point, "{what}: best_point");
        assert_eq!(
            solo.best_observed.to_bits(),
            svc.best_observed.to_bits(),
            "{what}: best_observed"
        );
        assert_eq!(solo.iterations, svc.iterations, "{what}: iterations");
        assert_eq!(
            solo.elapsed.to_bits(),
            svc.elapsed.to_bits(),
            "{what}: elapsed"
        );
        assert_eq!(
            solo.total_sampling.to_bits(),
            svc.total_sampling.to_bits(),
            "{what}: total_sampling"
        );
        assert_eq!(solo.stop, svc.stop, "{what}: stop reason");
        assert_eq!(
            solo.trace.points().len(),
            svc.trace.points().len(),
            "{what}: trace length"
        );
    }

    #[test]
    fn interleaved_runs_match_solo_bitwise_with_preemption() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0));
        let drivers = [
            Driver::Det,
            Driver::Mn(Default::default()),
            Driver::Pc(Default::default()),
            Driver::PcMn(Default::default(), Default::default()),
        ];

        // Solo baselines, one closed loop each on a serial backend.
        let solos: Vec<RunResult> = drivers
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                RunSession::new(
                    &obj,
                    init(100 + i as u64),
                    serial_cfg(),
                    term(30),
                    TimeMode::Parallel,
                    i as u64,
                    d,
                )
                .run_to_completion()
            })
            .collect();

        // Width 2 over 4 ready runs forces preemption every tick.
        let mut sched = Scheduler::new(
            SchedConfig {
                width: 2,
                quantum: 3,
            },
            Arc::new(SerialBackend),
        );
        for (i, &d) in drivers.iter().enumerate() {
            sched
                .admit(
                    RunSpec::new(
                        &obj,
                        init(100 + i as u64),
                        serial_cfg(),
                        term(30),
                        TimeMode::Parallel,
                        i as u64,
                        d,
                    )
                    .priority((i as i32) - 1)
                    .weight(1.0 + i as f64),
                )
                .unwrap();
        }
        sched.run();

        let svc = sched.service_registry();
        assert!(
            svc.counter("sched.preemptions").get() > 0,
            "width 2 over 4 runs must preempt"
        );
        assert_eq!(svc.counter("sched.runs_completed").get(), 4);

        for (i, solo) in solos.iter().enumerate() {
            let run_reg = sched.run_registry(i as u64).unwrap();
            assert!(run_reg.counter("sched.run.rounds").get() > 0);
            let got = sched.result(i as u64).unwrap();
            assert_bit_identical(solo, got, &format!("driver {i}"));
        }
    }

    /// Noisy sphere whose streams log the thread of every extend in `SEEN`
    /// (one test only reads it).
    struct ThreadSpy(Noisy<Sphere, ConstantNoise>);

    #[derive(Clone)]
    struct SpyStream(NoisyStream);
    static SEEN: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

    impl SampleStream for SpyStream {
        fn extend(&mut self, dt: f64) {
            SEEN.lock().unwrap().push(std::thread::current().id());
            self.0.extend(dt);
        }
        fn estimate(&self) -> Estimate {
            self.0.estimate()
        }
    }

    impl StochasticObjective for ThreadSpy {
        type Stream = SpyStream;
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn open(&self, x: &[f64], seed: u64) -> SpyStream {
            SpyStream(self.0.open(x, seed))
        }
    }

    #[test]
    fn one_tick_extends_on_the_callers_thread_and_merges_rounds() {
        let spy = ThreadSpy(Noisy::new(Sphere::new(2), ConstantNoise(1.0)));
        let fleet = SchedConfig {
            width: 4,
            quantum: 1000,
        };
        let mut sched = Scheduler::new(fleet, Arc::new(SerialBackend));
        for s in 0..4 {
            let mn = Driver::Mn(Default::default());
            let spec = RunSpec::new(
                &spy,
                init(s),
                serial_cfg(),
                term(8),
                TimeMode::Parallel,
                s,
                mn,
            );
            sched.admit(spec).unwrap();
        }
        assert!(!sched.tick(), "one tick finishes all four runs");

        let seen = SEEN.lock().unwrap();
        let caller = std::thread::current().id();
        assert!(!seen.is_empty() && seen.iter().all(|&t| t == caller));
        // A run samples at least one round per step (its constructor's round
        // covers the final, sampling-free one): fewer dispatches means merges.
        let steps: u64 = (0..4)
            .filter_map(|id| sched.run_registry(id))
            .map(|r| r.counter("sched.run.rounds").get())
            .sum();
        let svc = sched.service_registry();
        assert!(svc.counter("sched.fleet.merged_dispatches").get() >= 1);
        assert!(svc.counter("sched.fleet.dispatches").get() < steps);
    }

    #[test]
    fn uncontended_runs_stay_resident() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(1.0));
        let mut sched = Scheduler::new(
            SchedConfig {
                width: 4,
                quantum: 2,
            },
            Arc::new(SerialBackend),
        );
        for s in 0..3u64 {
            sched
                .admit(RunSpec::new(
                    &obj,
                    init(s),
                    serial_cfg(),
                    term(10),
                    TimeMode::Parallel,
                    s,
                    Driver::Det,
                ))
                .unwrap();
        }
        sched.run();
        assert_eq!(
            sched.service_registry().counter("sched.preemptions").get(),
            0,
            "no contention, no preemption"
        );
        assert_eq!(
            sched
                .service_registry()
                .counter("sched.runs_completed")
                .get(),
            3
        );
    }

    #[test]
    fn customized_runs_get_dedicated_backends_and_still_match_solo() {
        use mw_framework::{FaultPlan, RetryPolicy};
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(5.0));
        // A chaos config: worker faults + retry tweaks. The scheduler must
        // isolate it on its own backend, not the shared fleet.
        let chaos_cfg = SimplexConfig {
            backend: BackendChoice::Threaded { workers: 2 },
            faults: Some(FaultPlan::none().kill(0, 7)),
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            ..SimplexConfig::default()
        };
        assert!(chaos_cfg.customized());

        let solo = RunSession::new(
            &obj,
            init(7),
            chaos_cfg.clone(),
            term(15),
            TimeMode::Parallel,
            7,
            Driver::Det,
        )
        .run_to_completion();

        let mut sched = Scheduler::new(
            SchedConfig {
                width: 1,
                quantum: 2,
            },
            Arc::new(SerialBackend),
        );
        let chaos_id = sched
            .admit(RunSpec::new(
                &obj,
                init(7),
                chaos_cfg,
                term(15),
                TimeMode::Parallel,
                7,
                Driver::Det,
            ))
            .unwrap();
        let calm_id = sched
            .admit(RunSpec::new(
                &obj,
                init(8),
                serial_cfg(),
                term(15),
                TimeMode::Parallel,
                8,
                Driver::Det,
            ))
            .unwrap();
        sched.run();

        let calm_solo = RunSession::new(
            &obj,
            init(8),
            serial_cfg(),
            term(15),
            TimeMode::Parallel,
            8,
            Driver::Det,
        )
        .run_to_completion();
        assert_bit_identical(&solo, sched.result(chaos_id).unwrap(), "chaos run");
        assert_bit_identical(&calm_solo, sched.result(calm_id).unwrap(), "calm run");
    }

    #[test]
    fn budget_exhausted_run_is_quarantined_then_readmitted_bit_identically() {
        use mw_framework::FaultPlan;
        use noisy_simplex::result::RunNote;
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(6.0));
        // Hostile environment: the sole worker dies after 2 jobs and the
        // respawn budget is zero, so the dedicated backend degrades almost
        // immediately. The scheduler must evict the run rather than let it
        // limp along serially in a fleet slot.
        let chaos_cfg = SimplexConfig {
            backend: BackendChoice::Threaded { workers: 1 },
            faults: Some(FaultPlan::none().kill(0, 2)),
            respawn_budget: Some(0),
            ..SimplexConfig::default()
        };
        assert!(chaos_cfg.customized());

        // The reference answer is a clean solo run: quarantine + readmit
        // must be invisible in the result bits.
        let clean_solo = RunSession::new(
            &obj,
            init(21),
            serial_cfg(),
            term(15),
            TimeMode::Parallel,
            21,
            Driver::Det,
        )
        .run_to_completion();

        let mut sched = Scheduler::new(
            SchedConfig {
                width: 1,
                quantum: 2,
            },
            Arc::new(SerialBackend),
        );
        let doomed = sched
            .admit(RunSpec::new(
                &obj,
                init(21),
                chaos_cfg,
                term(15),
                TimeMode::Parallel,
                21,
                Driver::Det,
            ))
            .unwrap();
        let calm = sched
            .admit(RunSpec::new(
                &obj,
                init(22),
                serial_cfg(),
                term(15),
                TimeMode::Parallel,
                22,
                Driver::Det,
            ))
            .unwrap();
        sched.run();

        // The calm run finished; the doomed run is parked, not finished.
        assert!(sched.result(calm).is_some());
        assert!(sched.result(doomed).is_none());
        assert_eq!(sched.quarantined(), vec![doomed]);
        assert!(
            sched
                .service_registry()
                .counter("sched.runs.quarantined")
                .get()
                >= 1
        );
        // Readmission strips the chaos and resumes on the shared fleet.
        assert!(sched.readmit(doomed));
        assert!(!sched.readmit(doomed), "readmit is one-shot");
        sched.run();
        let got = sched.result(doomed).expect("readmitted run finishes");
        assert!(got.notes.contains(&RunNote::Quarantined));
        assert_bit_identical(&clean_solo, got, "quarantined run");
    }

    #[test]
    fn malformed_specs_are_refused_at_admission() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0));
        let mut sched = Scheduler::new(SchedConfig::default(), Arc::new(SerialBackend));
        let spec = |init, cfg| {
            RunSpec::new(
                &obj,
                init,
                cfg,
                term(20),
                TimeMode::Parallel,
                5,
                Driver::Mn(Default::default()),
            )
        };
        // Two vertices for d = 2: the engine would panic mid-tick.
        let short = init(5)[..2].to_vec();
        let err = sched.admit(spec(short, serial_cfg())).unwrap_err();
        assert!(matches!(err, ConfigError::InitialSimplex(_)), "{err}");
        let mut bad_coeffs = serial_cfg();
        bad_coeffs.coefficients.alpha = -1.0;
        let err = sched.admit(spec(init(5), bad_coeffs)).unwrap_err();
        assert!(matches!(err, ConfigError::Coefficients(_)), "{err}");

        // The refusals leave the service intact: a valid run admitted
        // afterwards finishes exactly as it does alone.
        let id = sched.admit(spec(init(5), serial_cfg())).unwrap();
        sched.run();
        let solo = RunSession::new(
            &obj,
            init(5),
            serial_cfg(),
            term(20),
            TimeMode::Parallel,
            5,
            Driver::Mn(Default::default()),
        )
        .run_to_completion();
        let got = sched.result(id).expect("valid run finishes");
        assert_bit_identical(&solo, got, "run admitted after refusals");
    }

    #[test]
    fn weights_skew_round_shares() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(10.0));
        let mut sched = Scheduler::new(
            SchedConfig {
                width: 1,
                quantum: 1,
            },
            Arc::new(SerialBackend),
        );
        let heavy = sched
            .admit(
                RunSpec::new(
                    &obj,
                    init(1),
                    serial_cfg(),
                    term(60),
                    TimeMode::Parallel,
                    1,
                    Driver::Det,
                )
                .weight(4.0),
            )
            .unwrap();
        let light = sched
            .admit(RunSpec::new(
                &obj,
                init(2),
                serial_cfg(),
                term(60),
                TimeMode::Parallel,
                2,
                Driver::Det,
            ))
            .unwrap();
        // Tick enough for both to be mid-flight, then compare shares.
        for _ in 0..40 {
            if !sched.tick() {
                break;
            }
        }
        let h = sched
            .run_registry(heavy)
            .unwrap()
            .counter("sched.run.rounds")
            .get();
        let l = sched
            .run_registry(light)
            .unwrap()
            .counter("sched.run.rounds")
            .get();
        assert!(
            h > l,
            "weight-4 run got {h} rounds vs weight-1's {l}; fair-share should favor it"
        );
        sched.run();
    }

    /// Every write the scheduler's writer was handed, in hand-off order.
    static HANDED: Mutex<Vec<CheckpointWrite>> = Mutex::new(Vec::new());

    fn record(write: &CheckpointWrite) -> Result<(), CheckpointError> {
        HANDED.lock().unwrap().push(write.clone());
        Ok(())
    }

    /// Without contention, a scheduled run hands its writer exactly the
    /// writes its solo run makes: the same iterations, the same bytes.
    #[test]
    fn uncontended_runs_hand_the_writer_their_solo_write_sets() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(4.0));
        let every = 3;
        let ck = CheckpointConfig {
            path: std::env::temp_dir().join(format!("nsx_write_set_{}", std::process::id())),
            every,
            retain: true,
        };
        let with_ckpt = |ck: &CheckpointConfig| SimplexConfig {
            checkpoint: Some(ck.clone()),
            ..serial_cfg()
        };
        let drivers = [
            Driver::Mn(Default::default()),
            Driver::Pc(Default::default()),
            Driver::PcMn(Default::default(), Default::default()),
        ];
        let session = |cfg, id, driver| {
            RunSession::new(
                &obj,
                init(id),
                cfg,
                term(25),
                TimeMode::Parallel,
                id,
                driver,
            )
        };

        let fleet = SchedConfig {
            width: drivers.len(),
            quantum: 2,
        };
        let mut sched = Scheduler::new(fleet, Arc::new(SerialBackend));
        sched.write_with(record);
        for (id, driver) in (0..).zip(drivers) {
            let spec = RunSpec::new(
                &obj,
                init(id),
                with_ckpt(&ck),
                term(25),
                TimeMode::Parallel,
                id,
                driver,
            );
            sched.admit(spec).unwrap();
        }
        sched.run();
        let handed = HANDED.lock().unwrap().clone();

        for (id, driver) in (0..).zip(drivers) {
            let own = ck.for_run(id);
            let scheduled: Vec<_> = handed.iter().filter(|w| w.path == own.path).collect();

            // The solo run's writes, caught by a sink...
            let caught = Arc::new(Mutex::new(Vec::new()));
            let mut solo = session(with_ckpt(&own), id, driver);
            let into = Arc::clone(&caught);
            solo.set_checkpoint_sink(Box::new(move |w| {
                into.lock().unwrap().push(w);
                Ok(())
            }));
            let solo = solo.run_to_completion();
            let caught = caught.lock().unwrap();
            assert_eq!(scheduled, caught.iter().collect::<Vec<_>>(), "{driver:?}");

            // ...are the writes the cadence makes due...
            let due: Vec<u64> = (1..=solo.iterations / every).map(|g| g * every).collect();
            let iterations: Vec<u64> = scheduled
                .iter()
                .map(|w| Reader::new(&w.payload).take_u64().unwrap())
                .collect();
            assert_eq!(iterations, due, "{driver:?}");

            // ...and the last of them is what its inline run leaves on disk.
            session(with_ckpt(&own), id, driver).run_to_completion();
            let on_disk = checkpoint::load(&own.path).unwrap();
            assert_eq!(Some(&on_disk), scheduled.last().map(|w| &w.payload));
            for p in [own.path.clone(), own.fallback_path()] {
                std::fs::remove_file(p).unwrap();
            }
        }
    }

    /// Fails the first write it is handed, and only that one.
    fn fail_first(write: &CheckpointWrite) -> Result<(), CheckpointError> {
        static FAILED: AtomicBool = AtomicBool::new(false);
        if FAILED.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        Err(CheckpointError::Io {
            op: "write",
            path: write.path.clone(),
            source: std::io::Error::other("injected"),
        })
    }

    /// A failure the writer reports while its run is suspended still ends
    /// up on that run's result, and on no other.
    #[test]
    fn a_write_failing_mid_run_is_noted_on_its_run() {
        let obj = Noisy::new(Rosenbrock::new(2), ConstantNoise(4.0));
        let cfg = SimplexConfig {
            checkpoint: Some(CheckpointConfig {
                path: std::env::temp_dir().join("nsx_never_written"),
                every: 3,
                retain: true,
            }),
            ..serial_cfg()
        };
        // Width 1 over two runs: every run is suspended after each tick.
        let fleet = SchedConfig {
            width: 1,
            quantum: 2,
        };
        let mut sched = Scheduler::new(fleet, Arc::new(SerialBackend));
        sched.write_with(fail_first);
        for id in 0..2 {
            let mn = Driver::Mn(Default::default());
            let spec = RunSpec::new(
                &obj,
                init(id),
                cfg.clone(),
                term(25),
                TimeMode::Parallel,
                id,
                mn,
            );
            sched.admit(spec).unwrap();
        }
        // Settle the writer after every tick, so each failure is reported
        // before the next tick while its run is still unfinished.
        while sched.tick() {
            sched.flush();
        }
        let noted: Vec<bool> = (0..2)
            .map(|id| {
                let notes = &sched.result(id).unwrap().notes;
                notes.contains(&RunNote::CheckpointFailed)
            })
            .collect();
        assert_eq!(noted.iter().filter(|&&n| n).count(), 1, "{noted:?}");
    }
}
