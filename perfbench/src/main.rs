//! `perfbench` — the repository's layered benchmark; see `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The `#` lines before
//! it give the effective configuration.

mod deck;
mod drive;
mod fleet;
mod host;
mod layers;
mod report;
mod solo;
mod stats;
mod trace;
mod water;

use report::Report;
use std::path::Path;
use std::process::ExitCode;

/// Where runs leave files: checkpoints, worker sockets, trace files.
pub const OUT_DIR: &str = ".perfbench";

const USAGE: &str =
    "usage: perfbench --workload <solo_serial|solo_process|service_fleet|water_md> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SoloSerial,
    SoloProcess,
    ServiceFleet,
    WaterMd,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SoloSerial,
        Workload::SoloProcess,
        Workload::ServiceFleet,
        Workload::WaterMd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloSerial => "solo_serial",
            Workload::SoloProcess => "solo_process",
            Workload::ServiceFleet => "service_fleet",
            Workload::WaterMd => "water_md",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad seed `{value}`"))?,
                    )
                }
                "--seconds" => {
                    let s = value.parse::<u64>().ok().filter(|&s| s >= 1);
                    seconds = Some(s.ok_or_else(|| format!("bad seconds `{value}`"))? as f64);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace `{value}`")),
                    })
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Refuse to run under any `NSX_*` or `REPRO_*` variable: constructors across
/// the workspace read them silently, so one left over from a CI leg would
/// change what is measured.
fn check_env<K: AsRef<str>>(names: impl IntoIterator<Item = K>) -> Result<(), String> {
    let set: Vec<String> = names
        .into_iter()
        .map(|k| k.as_ref().to_string())
        .filter(|k| k.starts_with("NSX_") || k.starts_with("REPRO_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark configures everything itself",
            set.join(", ")
        ))
    }
}

/// Write the traced pass's spans as a Chrome trace file.
fn write_trace(report: &mut Report, args: &Args, spans: &[trace::Span]) {
    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", args.workload.name()));
    match trace::write_chrome(&path, spans) {
        Ok(()) => report.config(
            "trace",
            format!("{} ({} spans)", path.display(), spans.len()),
        ),
        Err(e) => report.problem(format!("cannot write {}: {e}", path.display())),
    }
}

/// Record the host fingerprint and the reference loop timed around the
/// workload.
fn finish_host(report: &mut Report, args: &Args, before: f64, after: f64) {
    report.config(
        "host",
        format!(
            "nproc={} calib_ms before={before:.3} after={after:.3}",
            host::workers()
        ),
    );
    if args.trace {
        report.layer("host.calib_ms", Some(0.5 * (before + after)));
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names = std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    if let Err(e) = check_env(names) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let tmp = Path::new(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Worker processes meet the master on Unix sockets in the temp dir: keep
    // them inside the working tree, under a short relative path (a socket
    // path is limited to about a hundred bytes).
    std::env::set_var("TMPDIR", &tmp);
    let report = match args.workload {
        Workload::SoloSerial => solo::run(&args, false),
        Workload::SoloProcess => solo::run(&args, true),
        Workload::ServiceFleet => fleet::run(&args),
        Workload::WaterMd => water::run(&args),
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_refusal_fires() {
        assert!(check_env(["PATH", "HOME", "CARGO_TARGET_DIR"]).is_ok());
        for bad in ["NSX_BACKEND", "NSX_FORCE_KERNEL", "REPRO_TIME"] {
            let err = check_env(["PATH", bad]).expect_err(bad);
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn args_need_every_flag() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload water_md --seed 3 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::WaterMd, 3, 10.0, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload water_md --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload water_md --seconds 10 --trace 0").is_err());
    }
}
