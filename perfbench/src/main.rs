//! End-to-end and per-layer benchmark of the CLAP reproduction pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reproduce-seq|offline-seq \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when an output check fails or the harness cannot run. See
//! `perfbench/README.md`.

mod corpus;
mod probe;
mod report;
mod seq;
mod serve;
mod trace;
mod verify;

use report::Run;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where runs leave their traces, fingerprints and the server's cache.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Internal: run as one segment of an untraced run (see `seq::segment`).
    segment: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut traced, mut segment) = (false, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--segment" => segment = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        segment,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload reproduce-seq|offline-seq \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mode = match args.workload.as_str() {
        "reproduce-seq" => seq::Mode::Reproduce,
        "offline-seq" => seq::Mode::Offline,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.segment {
        return match seq::segment(mode, args.seed, args.seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let work_dir = PathBuf::from(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: creating {WORK_DIR}: {e}");
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let mut run = match seq::run(mode, args.seed, args.seconds, args.traced, &work_dir) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.traced {
        check_fingerprint(&mut run, &args.workload, &work_dir);
    }
    print_summary(&run, args.traced);
    println!("{}", run.result_json(args.traced));
    if run.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_summary(run: &Run, traced: bool) {
    println!("samples: {}", run.samples_line());
    println!(
        "jobs: attempted={} failed={} fail_pct={:.2}",
        run.attempted,
        run.failed,
        100.0 * corpus::ratio(run.failed as f64, run.attempted as f64)
    );
    if !traced {
        for ((name, unit), value) in report::END_TO_END.iter().zip(run.end_to_end()) {
            println!("  {name:<14} {value:>14.4} {unit}");
        }
    }
}

/// Compares this run's work fingerprint with the one an earlier traced
/// run of the same executable left behind, and leaves its own.
fn check_fingerprint(run: &mut Run, workload: &str, work_dir: &Path) {
    let mut text = String::new();
    for (job, counts) in &run.fingerprint {
        text.push_str(&format!("{job}: {}\n", counts.render()));
    }
    let digest = corpus::fnv1a(text.as_bytes());
    println!(
        "fingerprint: {digest:016x} over {} jobs",
        run.fingerprint.len()
    );
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| corpus::fnv1a(&bytes))
        .unwrap_or(0);
    let path = work_dir.join(format!("fingerprint-{workload}-{exe:016x}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => {
            for (old, new) in previous.lines().zip(text.lines()) {
                if old != new {
                    run.problem(format!("work counts changed between runs: {old} -> {new}"));
                }
            }
            if previous.lines().count() != text.lines().count() {
                run.problem("work fingerprint covers different jobs between runs".to_owned());
            }
        }
        Ok(_) => {}
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
}

/// Writes the spans of a traced run, with their self-time table.
pub fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64) {
    let path = Path::new(WORK_DIR).join(format!("trace-{workload}-seed{seed}.json"));
    let header = format!("\"workload\":\"{workload}\",\"seed\":{seed}");
    if let Err(e) = std::fs::write(&path, tr.to_json(&header)) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    eprintln!("perfbench: spans written to {}", path.display());
    eprintln!(
        "  {:<14} {:>8} {:>14} {:>14}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, (count, total, own)) in tr.self_times() {
        eprintln!(
            "  {name:<14} {count:>8} {:>14.3} {:>14.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}
