//! Where a run's due checkpoint writes go (DESIGN.md §11): inline through
//! `checkpoint::save`, or to a sink installed on the session. A write that
//! fails on either path is noted on the run and changes none of its
//! answer, and a sink that dies mid-write leaves the previous generation on
//! disk, from which the run resumes bit-identically.

use noisy_simplex::checkpoint::{self, CheckpointWrite};
use noisy_simplex::prelude::*;
use std::cmp::Ordering;
use std::path::{Path, PathBuf};
use stoch_eval::functions::Rosenbrock;
use stoch_eval::noise::ConstantNoise;
use stoch_eval::sampler::Noisy;

type Obj = Noisy<Rosenbrock, ConstantNoise>;

fn objective() -> Obj {
    Noisy::gaussian(Rosenbrock::new(2), ConstantNoise(4.0))
}

fn drivers() -> [Driver; 3] {
    [
        Driver::Mn(Default::default()),
        Driver::Pc(Default::default()),
        Driver::PcMn(Default::default(), Default::default()),
    ]
}

fn cfg(checkpoint: Option<CheckpointConfig>) -> SimplexConfig {
    SimplexConfig {
        backend: BackendChoice::Serial,
        checkpoint,
        ..SimplexConfig::default()
    }
}

fn every(path: &Path, every: u64) -> Option<CheckpointConfig> {
    Some(CheckpointConfig {
        path: path.to_path_buf(),
        every,
        retain: true,
    })
}

fn session(obj: &Obj, cfg: SimplexConfig, driver: Driver, seed: u64) -> RunSession<'_, Obj> {
    let term = Termination {
        tolerance: None,
        max_time: None,
        max_iterations: Some(24),
    };
    let init = init::random_uniform(2, -4.0, 4.0, 70 + seed);
    RunSession::new(obj, init, cfg, term, TimeMode::Parallel, seed, driver)
}

/// Debug prints every f64 in its shortest round-trip form, so equal text
/// means equal bits in every field.
fn assert_same(label: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{label}");
}

/// A path with a suffix appended (`<path>.tmp`, `<path>.1`).
fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn tmp_ckpt(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("nsx_sink_{tag}_{}_{seed}.bin", std::process::id()))
}

#[test]
fn a_failed_inline_write_is_noted_and_changes_no_answer() {
    let obj = objective();
    let missing = std::env::temp_dir()
        .join(format!("nsx_sink_no_such_dir_{}", std::process::id()))
        .join("run.ckpt");
    for (seed, driver) in (0..).zip(drivers()) {
        let golden = session(&obj, cfg(None), driver, seed).run_to_completion();
        let mut got = session(&obj, cfg(every(&missing, 2)), driver, seed).run_to_completion();
        assert!(golden.notes.is_empty(), "{driver:?}");
        assert_eq!(got.notes, [RunNote::CheckpointFailed], "{driver:?}");
        got.notes.clear();
        assert_same(&format!("{driver:?}"), &golden, &got);
    }
    assert!(!missing.parent().is_some_and(Path::exists));
}

/// What a write cut off half-way leaves behind: the first half of its
/// frame in `<path>.tmp`, and nothing renamed.
fn tear(write: &CheckpointWrite) {
    let scratch = suffixed(&write.path, ".frame");
    checkpoint::save(&scratch, false, &write.payload).expect("scratch save");
    let frame = std::fs::read(&scratch).expect("scratch read");
    std::fs::remove_file(&scratch).expect("scratch remove");
    std::fs::write(suffixed(&write.path, ".tmp"), &frame[..frame.len() / 2]).expect("torn write");
}

/// The sink dies at generation `k`: generations before it are saved, the
/// `k`-th is torn, and it and every later write fail.
#[test]
fn a_sink_that_dies_mid_write_leaves_the_previous_generation_to_resume_from() {
    let obj = objective();
    let (cadence, k) = (3, 4);
    for (seed, driver) in (0..).zip(drivers()) {
        let label = format!("{driver:?}");
        let golden = session(&obj, cfg(None), driver, seed).run_to_completion();
        assert!(
            golden.iterations > k * cadence,
            "{label}: the run ends first"
        );

        let path = tmp_ckpt("dying", seed);
        let mut run = session(&obj, cfg(every(&path, cadence)), driver, seed);
        let mut generation = 0;
        run.set_checkpoint_sink(Box::new(move |write: CheckpointWrite| {
            generation += 1;
            match generation.cmp(&k) {
                Ordering::Less => return write.save(),
                Ordering::Equal => tear(&write),
                Ordering::Greater => {}
            }
            Err(CheckpointError::Io {
                op: "write",
                path: write.path,
                source: std::io::Error::other("the writer died"),
            })
        }));
        let mut crashed = run.run_to_completion();
        assert_eq!(crashed.notes, [RunNote::CheckpointFailed], "{label}");
        crashed.notes.clear();
        assert_same(&format!("{label}: the failing run"), &golden, &crashed);

        let torn = suffixed(&path, ".tmp");
        assert!(checkpoint::load(&torn).is_err(), "{label}: the tmp is torn");
        let (payload, from) = checkpoint::load_with_fallback(&path).expect("generation k - 1");
        assert_eq!(from, path, "{label}: the primary is intact");
        let info = checkpoint::inspect(&path).expect("inspect");
        assert_eq!(info.iterations, (k - 1) * cadence, "{label}");

        let resumed = RunSession::resume(&obj, cfg(None), &payload, None, driver)
            .expect("resume")
            .run_to_completion();
        assert_same(&format!("{label}: resumed"), &golden, &resumed);
        for p in [path.clone(), suffixed(&path, ".1"), torn] {
            let _ = std::fs::remove_file(p);
        }
    }
}
