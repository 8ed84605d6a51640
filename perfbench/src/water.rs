//! `water_md`: a closed loop of short MN runs on the real MD objective
//! (`MdWaterObjective`: 27 TIP4P molecules, cell-list kernel) over a
//! `ThreadedBackend` of `nproc` workers. Each run starts from the paper's
//! poor initial vertices, perturbed per run.

use crate::deck;
use crate::drive;
use crate::layers::{self, Tally, Tree};
use crate::report::Report;
use crate::stats::percentile;
use crate::trace::{self, Kind, Timed, TimedBackend, TimedObjective};
use crate::{host, Args};
use mw_framework::ThreadedBackend;
use noisy_simplex::result::RunResult;
use noisy_simplex::termination::Termination;
use obs::MetricsRegistry;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use stoch_eval::backend::{SamplingBackend, SerialBackend};
use water_md::cost::{CostWeights, MdCostStream, MdWaterObjective, WaterObjective};
use water_md::kernel::{ForceEngine, ForceKernel};
use water_md::model::WaterModel;
use water_md::reference::INITIAL_VERTICES;
use water_md::simulate::MdConfig;
use water_md::surrogate::SurrogateWater;
use water_md::system::System;

const DECK_RUNS: usize = 96;
const JITTER: f64 = 0.02;
const SETUPS: usize = 5;
/// `ForceEngine::compute` calls timed for `water.force_us_p50`.
const FORCE_SAMPLES: usize = 200;

/// One replica: 27 molecules, short equilibration and production.
fn md_config() -> MdConfig {
    MdConfig {
        n_side: 3,
        density: 0.997,
        temperature: 298.0,
        dt: 1.0,
        equil_steps: 15,
        prod_steps: 30,
        sample_every: 10,
        seed: 0,
        kernel: ForceKernel::CellList,
        rc: None,
    }
}

fn termination() -> Termination {
    Termination {
        tolerance: Some(1e-4),
        max_time: Some(4.0),
        max_iterations: Some(2),
    }
}

/// Time the force kernel every MD step calls, on a lattice box at `params`.
fn force_us(md: &MdConfig, params: &[f64]) -> Vec<f64> {
    let model = WaterModel::with_params(params[0], params[1], params[2]);
    let sys = System::lattice(model, md.n_side, md.density, md.temperature, md.seed);
    let rc = sys.box_len / 2.0;
    let mut engine = ForceEngine::new(md.kernel);
    black_box(engine.compute(&sys, rc)); // builds the neighbour list
    (0..FORCE_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(engine.compute(&sys, rc));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let workers = host::workers();
    let md = md_config();
    let obj = MdWaterObjective {
        cfg: md,
        weights: CostWeights::default(),
    };
    let surrogate = WaterObjective::new(SurrogateWater);
    let cfg = drive::simplex_config(None);
    let term = termination();
    let registry = MetricsRegistry::new();
    let mut report = Report::new(args.trace);
    let calib_before = host::calib_ms();
    report.config("objective", format!("md water, {md:?}"));
    report.config(
        "backend",
        format!(
            "threaded workers={workers} faults=none retry={:?} hedge=off",
            mw_framework::RetryPolicy::default()
        ),
    );
    report.config(
        "deck",
        format!("{DECK_RUNS} MN(k=2) runs from the paper's initial vertices, jitter {JITTER}"),
    );
    report.config("termination", format!("{term:?}"));
    report.config("simplex", format!("{cfg:?}"));

    // Set-up: spawn the pool, generate the deck, one warm-up run.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built: Option<(Vec<deck::RunPlan>, Arc<ThreadedBackend>)> = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let deck = deck::perturbed_deck(args.seed, DECK_RUNS, &INITIAL_VERTICES[..4], JITTER);
        let backend = Arc::new(drive::threaded_backend(
            workers,
            args.trace.then_some(&registry),
        ));
        black_box(drive::run_once(
            &obj,
            &deck[0],
            &cfg,
            term,
            backend.clone(),
            None,
        ));
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((deck, backend));
    }
    let (deck, backend) = built.expect("at least one set-up");

    // Every pass must repeat the first pass's answers bit for bit.
    let mut reference: Vec<Option<RunResult>> = vec![None; DECK_RUNS];
    let plain_backend: Arc<dyn SamplingBackend<MdCostStream>> = backend.clone();
    let (mut run_ms, mut wall_s) = (Vec::new(), 0.0);
    if !args.trace {
        let pass = drive::closed_loop(
            &obj,
            &deck,
            &cfg,
            term,
            &plain_backend,
            args.seconds,
            DECK_RUNS,
            &mut reference,
            false,
        );
        report.runs(pass.run_ms.len(), pass.failed);
        run_ms = pass.run_ms;
        wall_s = pass.wall_s;
    } else {
        let half = args.seconds / 2.0;
        let plain = drive::closed_loop(
            &obj,
            &deck,
            &cfg,
            term,
            &plain_backend,
            half,
            DECK_RUNS,
            &mut reference,
            false,
        );
        let before = Tally::read(&registry);
        let tobj = TimedObjective(&obj);
        let timed: Arc<dyn SamplingBackend<Timed<MdCostStream>>> =
            Arc::new(TimedBackend::<Timed<MdCostStream>>::new(backend.clone()));
        let traced = drive::closed_loop(
            &tobj,
            &deck,
            &cfg,
            term,
            &timed,
            half,
            DECK_RUNS,
            &mut reference,
            true,
        );
        let tally = Tally::read(&registry).since(&before);
        let spans = trace::drain();
        let tree = Tree::new(&spans);
        layers::core(&mut report, &tree);
        layers::mw(&mut report, &tree, &tree.jobs_by_batch(), workers, &tally);
        let eval_ms: Vec<f64> = tree.of(Kind::Job).map(|j| j.dur_ns as f64 / 1e6).collect();
        report.layer("water.eval_ms_p50", percentile(&eval_ms, 0.5));
        report.layer(
            "water.force_us_p50",
            percentile(&force_us(&md, &deck[0].init[0]), 0.5),
        );
        report.layer(
            "water.worker_util",
            Some(tree.job_ns() as f64 / (traced.wall_s * 1e9 * workers as f64)),
        );
        report.layer(
            "trace.overhead_pct",
            layers::overhead_pct(&plain.run_ms, &traced.run_ms),
        );
        report.runs(plain.run_ms.len(), plain.failed);
        report.runs(traced.run_ms.len(), traced.failed);
        crate::write_trace(&mut report, args, &spans);
    }

    // Recheck one run serially.
    let serial = drive::run_once(&obj, &deck[0], &cfg, term, Arc::new(SerialBackend), None);
    if !reference[0]
        .as_ref()
        .is_some_and(|r| drive::same_result(&serial, r))
    {
        report.failed += 1;
        report.problem("deck run 0 differs between the threaded pass and a serial rerun");
    }
    if !args.trace {
        let answers: Vec<&RunResult> = reference.iter().flatten().collect();
        let costs: Vec<f64> = answers
            .iter()
            .map(|r| surrogate.true_cost(&[r.best_point[0], r.best_point[1], r.best_point[2]]))
            .collect();
        let vtimes: Vec<f64> = answers.iter().map(|r| r.total_sampling).collect();
        report.end_to_end(
            &setup_s,
            &run_ms,
            run_ms.len() as f64 / wall_s,
            &costs,
            &vtimes,
        );
    }
    let calib_after = host::calib_ms();
    crate::finish_host(&mut report, args, calib_before, calib_after);
    report
}
