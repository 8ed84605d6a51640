//! `solo_serial` and `solo_process`: one caller, closed loop, running a fixed
//! deck of MN (k = 2), PC (k = 1, c1–c7) and PC+MN runs on 4-d Rosenbrock
//! with Gaussian oracle noise (σ0 = 100) at the `table_3_1` tolerance and
//! budget — inline on `SerialBackend`, or over `nproc` worker processes.

use crate::deck;
use crate::drive::{self, ClosedPass};
use crate::layers::{self, Tally, Tree};
use crate::report::Report;
use crate::trace::{self, Timed, TimedBackend, TimedObjective};
use crate::{host, stats, Args};
use noisy_simplex::result::RunResult;
use noisy_simplex::termination::Termination;
use obs::MetricsRegistry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::backend::{SamplingBackend, SerialBackend};
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::objective::StochasticObjective;
use stoch_eval::sampler::{Noisy, NoisyStream};

const DIM: usize = 4;
const SIGMA0: f64 = 100.0;
const DECK_RUNS: usize = 3000;
/// Set-ups timed in a row over the wire; `setup_s` is their median.
const SETUPS: usize = 5;
/// Warm-up runs per set-up: 1500 inline, 30 over the wire, where each run
/// costs about sixty times more.
const WARMUP_SERIAL: usize = 1500;
const WARMUP_PROCESS: usize = 30;
/// The timed inline pass repeats the deck at least this often, whatever
/// `--seconds` says, so every deck run has repeats to take the fastest of.
const MIN_PASSES: usize = 10;

fn termination() -> Termination {
    Termination {
        tolerance: Some(1e-6),
        max_time: Some(1e5),
        max_iterations: Some(100_000),
    }
}

pub fn run(args: &Args, process: bool) -> Report {
    let workers = host::workers();
    let obj = Noisy::gaussian(Rosenbrock::new(DIM), ConstantNoise(SIGMA0));
    let cfg = drive::simplex_config(None);
    let term = termination();
    let registry = MetricsRegistry::new();
    let mut report = Report::new(args.trace);
    let calib_before = host::calib_ms();
    report.config(
        "objective",
        format!("rosenbrock d={DIM}, gaussian oracle noise sigma0={SIGMA0}, welford"),
    );
    report.config(
        "backend",
        if process {
            format!(
                "process workers={workers} faults=none retry={:?} hedge=off heartbeat=default backoff=default",
                mw_framework::RetryPolicy::default()
            )
        } else {
            "serial".to_string()
        },
    );
    report.config(
        "deck",
        format!("{DECK_RUNS} runs rotating MN(k=2) / PC(k=1, c1-7) / PC+MN, init U[-6,3)^{DIM}"),
    );
    report.config("termination", format!("{term:?}"));
    report.config("simplex", format!("{cfg:?}"));

    // Set-up: spawn the backend, generate the deck, one warm-up pass.
    let warmup = if process {
        WARMUP_PROCESS
    } else {
        WARMUP_SERIAL
    };
    let set_up = || {
        let t0 = Instant::now();
        let deck = deck::solo_deck(args.seed, DECK_RUNS, DIM, -6.0, 3.0);
        let backend: Arc<dyn SamplingBackend<NoisyStream>> = if process {
            Arc::new(drive::process_backend(
                workers,
                args.trace.then_some(&registry),
            ))
        } else {
            Arc::new(SerialBackend)
        };
        for plan in &deck[..warmup] {
            black_box(drive::run_once(
                &obj,
                plan,
                &cfg,
                term,
                Arc::clone(&backend),
                None,
            ));
        }
        (t0.elapsed().as_secs_f64(), deck, backend)
    };
    // Over the wire, `SETUPS` set-ups in a row; inline, the set-ups timed
    // are the ones before each timed deck pass (below).
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..if process { SETUPS } else { 1 } {
        drop(built.take()); // tear the previous pool down before timing the next
        let (s, deck, backend) = set_up();
        setup_s.push(s);
        built = Some((deck, backend));
    }
    let (deck, backend) = built.expect("at least one set-up");

    // The serial in-process execution every timed result must equal.
    let serial: Arc<dyn SamplingBackend<NoisyStream>> = Arc::new(SerialBackend);
    let mut reference: Vec<Option<RunResult>> = deck
        .iter()
        .map(|p| {
            Some(drive::run_once(
                &obj,
                p,
                &cfg,
                term,
                Arc::clone(&serial),
                None,
            ))
        })
        .collect();
    let answers: Vec<&RunResult> = reference.iter().flatten().collect();
    let costs: Vec<f64> = answers
        .iter()
        .map(|r| {
            obj.true_value(&r.best_point)
                .expect("Rosenbrock has a closed form")
        })
        .collect();
    let vtimes: Vec<f64> = answers.iter().map(|r| r.total_sampling).collect();

    if !args.trace && process {
        let pass = drive::closed_loop(
            &obj,
            &deck,
            &cfg,
            term,
            &backend,
            args.seconds,
            1,
            &mut reference,
            false,
        );
        report.runs(pass.run_ms.len(), pass.failed);
        report.end_to_end(
            &setup_s,
            &pass.run_ms,
            pass.run_ms.len() as f64 / pass.wall_s,
            &costs,
            &vtimes,
        );
    } else if !args.trace {
        // Inline runs are slowed by up to half while a neighbour on the
        // shared host loads the CPU they run on, in spells that can outlast
        // the whole timed pass but seldom cover every CPU at once. So the
        // caller moves to the next allowed CPU before each deck pass and
        // sets up once there; each deck run is timed by its fastest repeat
        // (every repeat does the same work, checked bit for bit), throughput
        // follows from those times, and `setup_s` is the median set-up of
        // the CPU where that median is lowest.
        let cpus = host::allowed_cpus();
        let pinned = cpus.len() > 1 && host::pin_thread(&cpus);
        let mut setups_by_cpu = vec![Vec::new(); if pinned { cpus.len() } else { 1 }];
        let (t0, mut run_ms, mut failed, mut passes) = (Instant::now(), Vec::new(), 0, 0);
        while passes < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
            let slot = passes % setups_by_cpu.len();
            if pinned {
                host::pin_thread(&cpus[slot..][..1]);
            }
            let (s, fresh_deck, _) = set_up();
            setups_by_cpu[slot].push(s);
            black_box(fresh_deck);
            let pass = drive::closed_loop(
                &obj,
                &deck,
                &cfg,
                term,
                &backend,
                0.0,
                DECK_RUNS,
                &mut reference,
                false,
            );
            run_ms.extend(pass.run_ms);
            failed += pass.failed;
            passes += 1;
        }
        if pinned && !host::pin_thread(&cpus) {
            report.problem("cannot restore the caller's CPU affinity");
        }
        report.runs(run_ms.len(), failed);
        let best = stats::per_slot_min(&run_ms, DECK_RUNS);
        let setup_s = setups_by_cpu
            .into_iter()
            .filter(|s| !s.is_empty())
            .min_by(|a, b| stats::median(a).total_cmp(&stats::median(b)))
            .unwrap_or_default();
        report.config(
            "timing",
            format!(
                "each deck run's time is the fastest of its {passes} repeats; \
                 runs_per_s = deck runs / sum of those times; \
                 caller moved pass by pass over cpus {cpus:?}: {pinned}"
            ),
        );
        report.end_to_end(
            &setup_s,
            &best,
            1e3 * best.len() as f64 / best.iter().sum::<f64>(),
            &costs,
            &vtimes,
        );
    } else {
        let half = args.seconds / 2.0;
        let plain = drive::closed_loop(
            &obj,
            &deck,
            &cfg,
            term,
            &backend,
            half,
            1,
            &mut reference,
            false,
        );
        let before = Tally::read(&registry);
        let (traced, shipped, jobs): (ClosedPass, _, _) = if process {
            let timed = Arc::new(TimedBackend::keeping_shipped(Arc::clone(&backend)));
            let b: Arc<dyn SamplingBackend<NoisyStream>> = timed.clone();
            let pass =
                drive::closed_loop(&obj, &deck, &cfg, term, &b, half, 1, &mut reference, true);
            (pass, timed.take_shipped(), timed.jobs())
        } else {
            let tobj = TimedObjective(&obj);
            let b: Arc<dyn SamplingBackend<Timed<NoisyStream>>> =
                Arc::new(TimedBackend::<Timed<NoisyStream>>::new(Arc::new(
                    SerialBackend,
                )));
            let pass =
                drive::closed_loop(&tobj, &deck, &cfg, term, &b, half, 1, &mut reference, true);
            (pass, Vec::new(), 0)
        };
        let tally = Tally::read(&registry).since(&before);
        let spans = trace::drain();
        let tree = Tree::new(&spans);
        layers::core(&mut report, &tree);
        if process {
            match layers::replay_wire(shipped) {
                Ok(replay) => {
                    if replay.mismatches > 0 {
                        report.problem(format!(
                            "{} shipped jobs came back different from a local extend",
                            replay.mismatches
                        ));
                    }
                    layers::mw(&mut report, &tree, &replay.job_ns, workers, &tally);
                    layers::wire(&mut report, &replay, jobs, &tally);
                }
                Err(e) => report.problem(format!("wire replay failed: {e}")),
            }
        } else {
            layers::eval(&mut report, &tree);
        }
        report.layer(
            "trace.overhead_pct",
            layers::overhead_pct(&plain.run_ms, &traced.run_ms),
        );
        report.runs(plain.run_ms.len(), plain.failed);
        report.runs(traced.run_ms.len(), traced.failed);
        crate::write_trace(&mut report, args, &spans);
    }
    let calib_after = host::calib_ms();
    crate::finish_host(&mut report, args, calib_before, calib_after);
    report
}
