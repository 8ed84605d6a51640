//! `repro-bench` — the experiment harness that regenerates every table and
//! figure of the paper's evaluation (Ch. 3). One binary per exhibit; see
//! `DESIGN.md` §3 for the index and `EXPERIMENTS.md` for recorded results.
//!
//! All binaries print their exhibit to stdout (CSV-ish rows plus ASCII
//! histograms). Common CLI flags (parse them with [`harness_args`] /
//! [`smoke_args`]):
//!
//! * `--smoke` — shrink every budget knob to CI-smoke size (seconds, not
//!   minutes) unless the corresponding env var is already set.
//! * `--metrics-out <path>` — write the run-accounting registry (JSON, or
//!   CSV if the path ends in `.csv`) after the exhibit finishes. Only the
//!   binaries that thread a registry through their runs accept this.
//! * `--backend <serial|threaded|threaded:N>` — which sampling backend the
//!   algorithms use (sets `NSX_BACKEND`, so it applies to every run in the
//!   process; results are identical either way, see DESIGN.md §8).
//!
//! Knobs via environment variables:
//!
//! * `REPRO_REPLICATES` — override the number of initial simplex states for
//!   the distribution figures (paper: 100).
//! * `REPRO_TIME` — override the virtual-walltime budget per run.
//! * `REPRO_ITERS` — override the iteration cap per run.
//! * `REPRO_SCALEUP_STEPS` — override the MW scale-up step count
//!   (`fig_3_18`).
//!
//! A knob whose value does not parse panics, naming the knob and the value.

#![warn(missing_docs)]

pub mod scaleup;

use noisy_simplex::prelude::*;
use obs::MetricsRegistry;
use stoch_eval::objective::{Objective, StochasticObjective};
use stoch_eval::stats::{Histogram, PairedComparison};

/// A `REPRO_*` knob: its variable and the grammar its value must follow.
type Knob = (&'static str, &'static str);

const REPLICATES: Knob = ("REPRO_REPLICATES", "a non-negative integer");
const TIME: Knob = ("REPRO_TIME", "a number");
const ITERS: Knob = ("REPRO_ITERS", "a non-negative integer");
const SCALEUP_STEPS: Knob = ("REPRO_SCALEUP_STEPS", "a non-negative integer");

/// A knob's value: `default` when unset, otherwise the parsed value.
/// Panics naming the knob, the value and the grammar when it does not
/// parse, so a typo never silently runs the default.
fn knob_value<T: std::str::FromStr>((name, grammar): Knob, value: Option<&str>, default: T) -> T {
    match value {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("invalid {name}='{v}': expected {grammar}")),
    }
}

/// [`knob_value`] of the knob's environment variable.
fn env_knob<T: std::str::FromStr>(knob: Knob, default: T) -> T {
    let value = std::env::var_os(knob.0).map(|v| v.to_string_lossy().into_owned());
    knob_value(knob, value.as_deref(), default)
}

/// Number of replicate initial simplex states (paper default 100; override
/// with `REPRO_REPLICATES`).
pub fn replicates() -> usize {
    env_knob(REPLICATES, 100)
}

/// Virtual-walltime budget per optimization run (override `REPRO_TIME`).
pub fn time_budget() -> f64 {
    time_budget_or(1.0e5)
}

/// Virtual-walltime budget with a caller-chosen default, for exhibits whose
/// paper setting differs from the standard 1e5 (override `REPRO_TIME`).
pub fn time_budget_or(default: f64) -> f64 {
    env_knob(TIME, default)
}

/// Iteration cap with a caller-chosen default (override `REPRO_ITERS`).
pub fn iteration_cap_or(default: u64) -> u64 {
    env_knob(ITERS, default)
}

/// Step cap for each of `fig_3_18`'s scale-up runs (default 400; override
/// `REPRO_SCALEUP_STEPS`).
pub fn scaleup_steps() -> u64 {
    env_knob(SCALEUP_STEPS, 400)
}

/// The termination criteria used by the comparison experiments: Eq. 2.9
/// tolerance plus the virtual-walltime budget (paper §2.4.1).
pub fn standard_termination() -> Termination {
    Termination {
        tolerance: Some(1e-6),
        max_time: Some(time_budget()),
        max_iterations: Some(iteration_cap_or(100_000)),
    }
}

/// The termination criteria for the water-parameterization exhibits
/// (Figs 3.19/3.20, Table 3.4): looser tolerance, longer budget.
pub fn water_termination() -> Termination {
    Termination {
        tolerance: Some(1e-4),
        max_time: Some(time_budget_or(2e5)),
        max_iterations: Some(iteration_cap_or(10_000)),
    }
}

/// Common CLI flags shared by the exhibit binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// `--smoke`: budgets were shrunk to CI-smoke size.
    pub smoke: bool,
    /// `--metrics-out <path>`: where to write the metrics registry.
    pub metrics_out: Option<std::path::PathBuf>,
    /// `--backend <choice>`: explicit sampling-backend selection (also
    /// exported as `NSX_BACKEND` so `BackendChoice::default()` picks it up).
    pub backend: Option<BackendChoice>,
}

impl HarnessArgs {
    /// A fresh registry when `--metrics-out` was requested, else `None`.
    /// Pass `registry.as_ref()` to the `run_with_metrics` entry points.
    pub fn registry(&self) -> Option<MetricsRegistry> {
        self.metrics_out.as_ref().map(|_| MetricsRegistry::new())
    }

    /// Write `registry` to the `--metrics-out` path (CSV if it ends in
    /// `.csv`, JSON otherwise). No-op when the flag was not given.
    pub fn write_metrics(&self, registry: Option<&MetricsRegistry>) {
        let (Some(path), Some(reg)) = (self.metrics_out.as_deref(), registry) else {
            return;
        };
        let body = if path.extension().is_some_and(|e| e == "csv") {
            reg.to_csv()
        } else {
            reg.to_json()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("error: cannot write metrics to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("metrics written to {}", path.display());
    }
}

/// Parse the common flags from the process arguments, honouring
/// `--metrics-out`. Exits with a usage message on unknown flags.
pub fn harness_args() -> HarnessArgs {
    parse_args(std::env::args().skip(1), true).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!(
            "usage: [--smoke] [--metrics-out <path>] [--backend <serial|threaded|threaded:N>]"
        );
        std::process::exit(2);
    })
}

/// Like [`harness_args`] for exhibits that do not produce a metrics
/// registry: `--smoke` only, `--metrics-out` is rejected.
pub fn smoke_args() -> HarnessArgs {
    parse_args(std::env::args().skip(1), false).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("usage: [--smoke] [--backend <serial|threaded|threaded:N>]");
        std::process::exit(2);
    })
}

fn parse_args(
    args: impl Iterator<Item = String>,
    metrics_supported: bool,
) -> Result<HarnessArgs, String> {
    let mut parsed = HarnessArgs::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => parsed.smoke = true,
            "--metrics-out" if metrics_supported => {
                let path = args
                    .next()
                    .ok_or("error: --metrics-out requires a path argument")?;
                parsed.metrics_out = Some(path.into());
            }
            "--metrics-out" => {
                return Err("error: this exhibit does not support --metrics-out".into());
            }
            other if metrics_supported && other.starts_with("--metrics-out=") => {
                let path = &other["--metrics-out=".len()..];
                if path.is_empty() {
                    return Err("error: --metrics-out requires a path argument".into());
                }
                parsed.metrics_out = Some(path.into());
            }
            "--backend" => {
                let sel = args
                    .next()
                    .ok_or("error: --backend requires a selection argument")?;
                parsed.backend = Some(parse_backend(&sel)?);
            }
            other if other.starts_with("--backend=") => {
                parsed.backend = Some(parse_backend(&other["--backend=".len()..])?);
            }
            other => return Err(format!("error: unknown argument `{other}`")),
        }
    }
    if parsed.smoke {
        apply_smoke_defaults();
    }
    if let Some(choice) = parsed.backend {
        // Export so every BackendChoice::default() in the process — engine
        // configs, baselines, PSO — picks the same selection up.
        std::env::set_var(
            "NSX_BACKEND",
            match choice {
                BackendChoice::Serial => "serial".to_string(),
                BackendChoice::Threaded { workers: 0 } => "threaded".to_string(),
                BackendChoice::Threaded { workers } => format!("threaded:{workers}"),
            },
        );
    }
    Ok(parsed)
}

fn parse_backend(sel: &str) -> Result<BackendChoice, String> {
    BackendChoice::parse(sel).ok_or_else(|| {
        format!("error: unknown backend `{sel}` (expected serial, threaded, or threaded:<N>)")
    })
}

/// Shrink every budget knob to CI-smoke size. Explicit env settings win:
/// only unset variables are defaulted, so `REPRO_TIME=500 bin --smoke`
/// keeps the caller's 500.
pub fn apply_smoke_defaults() {
    for (var, small) in [
        ("REPRO_TIME", "2000"),
        ("REPRO_REPLICATES", "4"),
        ("REPRO_ITERS", "300"),
        ("REPRO_SCALEUP_STEPS", "40"),
    ] {
        if std::env::var_os(var).is_none() {
            std::env::set_var(var, small);
        }
    }
}

/// Run `method` from each of `n` random initial simplexes drawn uniformly
/// from `[lo, hi)` and return the *true* final minimum values (floored for
/// log-ratio plots).
#[allow(clippy::too_many_arguments)]
pub fn final_minima<F, O>(
    objective: &F,
    underlying: &O,
    method: &SimplexMethod,
    d: usize,
    lo: f64,
    hi: f64,
    n: usize,
    seed_base: u64,
) -> Vec<f64>
where
    F: StochasticObjective,
    O: Objective,
{
    let term = standard_termination();
    (0..n)
        .map(|i| {
            let init = init::random_uniform(d, lo, hi, seed_base + i as u64);
            let res = method.run(objective, init, term, TimeMode::Parallel, 7_000 + i as u64);
            underlying.value(&res.best_point)
        })
        .collect()
}

/// Print a paper-style histogram panel of `log10(min_a / min_b)`.
pub fn print_ratio_panel(title: &str, mins_a: &[f64], mins_b: &[f64]) {
    let cmp = PairedComparison::new(mins_a, mins_b, 1e-12, 0.25);
    let hist: Histogram = cmp.histogram(-8.0, 8.0, 16);
    println!("--- {title} ---");
    println!(
        "A wins: {:.0}%   tie: {:.0}%   B wins: {:.0}%   (n = {}, sign-test p = {:.3})",
        100.0 * cmp.frac_a_wins,
        100.0 * cmp.frac_tie,
        100.0 * cmp.frac_b_wins,
        mins_a.len(),
        cmp.sign_test_p(0.25)
    );
    print!("{}", hist.render(40));
    println!();
}

/// CSV row helper: prints comma-separated values with a fixed precision.
pub fn csv_row(values: &[String]) {
    println!("{}", values.join(","));
}

/// Format an `f64` compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if (0.01..10_000.0).contains(&a) {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stoch_eval::functions::Sphere;
    use stoch_eval::noise::ConstantNoise;
    use stoch_eval::sampler::Noisy;

    #[test]
    fn env_knobs_have_defaults() {
        // Do not set the env vars here (tests run in one process); just
        // check the defaults parse.
        assert!(replicates() >= 1);
        assert!(time_budget() > 0.0);
    }

    #[test]
    fn knobs_parse_their_values() {
        assert_eq!(knob_value(REPLICATES, None, 100usize), 100);
        assert_eq!(knob_value(REPLICATES, Some("7"), 100usize), 7);
        assert_eq!(knob_value(TIME, Some("1e5"), 2.0), 1.0e5);
        assert_eq!(knob_value(ITERS, Some("300"), 5u64), 300);
        assert_eq!(knob_value(SCALEUP_STEPS, Some("40"), 400u64), 40);
    }

    #[test]
    #[should_panic(expected = "invalid REPRO_REPLICATES='many': expected a non-negative integer")]
    fn malformed_replicates_panics_naming_the_knob_and_value() {
        knob_value(REPLICATES, Some("many"), 100usize);
    }

    #[test]
    #[should_panic(expected = "invalid REPRO_TIME='1e5x': expected a number")]
    fn malformed_time_panics_naming_the_knob_and_value() {
        knob_value(TIME, Some("1e5x"), 1.0e5);
    }

    #[test]
    #[should_panic(expected = "invalid REPRO_ITERS='-3': expected a non-negative integer")]
    fn malformed_iters_panics_naming_the_knob_and_value() {
        knob_value(ITERS, Some("-3"), 100_000u64);
    }

    #[test]
    #[should_panic(expected = "invalid REPRO_SCALEUP_STEPS='4OO': expected a non-negative integer")]
    fn malformed_scaleup_steps_panics_naming_the_knob_and_value() {
        knob_value(SCALEUP_STEPS, Some("4OO"), 400u64);
    }

    #[test]
    fn final_minima_returns_one_value_per_replicate() {
        let sphere = Sphere::new(2);
        let obj = Noisy::new(sphere, ConstantNoise(1.0));
        std::env::set_var("REPRO_TIME", "2000");
        let mins = final_minima(
            &obj,
            &sphere,
            &SimplexMethod::Det(Det::new()),
            2,
            -3.0,
            3.0,
            4,
            1,
        );
        std::env::remove_var("REPRO_TIME");
        assert_eq!(mins.len(), 4);
        assert!(mins.iter().all(|m| m.is_finite()));
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1.5), "1.5000");
        assert_eq!(fmt(1.0e-6), "1.000e-6");
    }

    fn args(list: &[&str]) -> std::vec::IntoIter<String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parse_accepts_both_flags() {
        let a = parse_args(args(&["--smoke", "--metrics-out", "m.json"]), true).unwrap();
        assert!(a.smoke);
        assert_eq!(
            a.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
        let b = parse_args(args(&["--metrics-out=m.csv"]), true).unwrap();
        assert_eq!(
            b.metrics_out.as_deref(),
            Some(std::path::Path::new("m.csv"))
        );
        assert!(!b.smoke);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(args(&["--metrics-out"]), true).is_err());
        assert!(parse_args(args(&["--metrics-out="]), true).is_err());
        assert!(parse_args(args(&["--frobnicate"]), true).is_err());
        // Exhibits without a registry reject the flag outright.
        assert!(parse_args(args(&["--metrics-out", "m.json"]), false).is_err());
        assert!(parse_args(args(&["--smoke"]), false).unwrap().smoke);
    }

    #[test]
    fn parse_backend_selection() {
        // Only `serial` here: parsing a selection exports NSX_BACKEND for
        // the whole process, and tests share it. `serial` == the default.
        let a = parse_args(args(&["--backend", "serial"]), false).unwrap();
        assert_eq!(a.backend, Some(BackendChoice::Serial));
        let b = parse_args(args(&["--backend=serial"]), true).unwrap();
        assert_eq!(b.backend, Some(BackendChoice::Serial));
        assert!(parse_args(args(&["--backend"]), false).is_err());
        assert!(parse_args(args(&["--backend", "frobnicate"]), false).is_err());
        assert!(parse_args(args(&["--backend=threaded:x"]), false).is_err());
        // Rejected selections must not touch the environment.
        assert!(parse_backend("warp-drive").is_err());
    }

    #[test]
    fn registry_exists_only_when_requested() {
        let none = HarnessArgs::default();
        assert!(none.registry().is_none());
        none.write_metrics(None); // must be a no-op, not a crash

        let dir = std::env::temp_dir().join("repro-bench-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let some = HarnessArgs {
            smoke: false,
            metrics_out: Some(path.clone()),
            backend: None,
        };
        let reg = some.registry().expect("registry expected");
        reg.counter("engine.rounds").add(3);
        some.write_metrics(Some(&reg));
        let body = std::fs::read_to_string(&path).unwrap();
        let parsed = obs::json::parse(&body).expect("valid JSON metrics file");
        assert!(parsed.get("engine.rounds").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
