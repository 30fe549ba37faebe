//! Diagnostic: where do parallel exploration workers spend their wall
//! time? Runs one stickiness level of the record sweep in profiled mode
//! ([`clap_core::Pipeline::profile_contention`]) and prints the
//! per-worker utilization table — direct evidence for ROADMAP item 2
//! (the pooled sweep losing to sequential on small workloads).
//!
//! ```text
//! dbgcontend [workload-name] [--workers N] [--trace t.json] [--metrics m.jsonl]
//! ```
//!
//! Default workload: `sim_race`, the workload ROADMAP item 2 cites.
//! `--workers 0` (the default) means one worker per core.
//!
//! Every row attributes one worker's wall time across five categories —
//! seed claim, VM restore, enabled-action rebuild, VM stepping, idle —
//! as percentages of that worker's wall, plus the attribution overrun
//! (timer skew clamped away from idle) in microseconds. The probe checks
//! itself: it exits nonzero when the categories fail to cover a worker's
//! wall time within 10%, i.e. when the attribution (not the pool) is
//! broken.
//!
//! The profiler always drives the parallel pool — a one-worker
//! "contention" profile would answer nothing — but the header reports
//! which path production (`record_failure`) would actually take for this
//! configuration, and the table carries a `NOTE:` label when the two
//! diverge.

use clap_bench::split_obs_args;
use clap_core::{Pipeline, PipelineConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (rest, observer) = split_obs_args(&args).expect("bad arguments");
    let observer = observer.with_summary();

    let mut name = "sim_race".to_string();
    let mut workers = 0usize;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number");
            }
            other => name = other.to_string(),
        }
    }

    let w = clap_workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload {name:?}; see clap-workloads"));
    let pipeline = Pipeline::new(w.program());
    let mut config = PipelineConfig::new(w.model);
    config.stickiness = w.stickiness.to_vec();
    config.seed_budget = w.seed_budget;
    config.explore_workers = workers;
    let stickiness = config.stickiness.first().copied().unwrap_or(1.0);

    observer.install();
    let profile = pipeline.profile_contention(&config, stickiness);

    println!(
        "workload {name}  stickiness {stickiness}  seeds {}  workers {}  candidates {}",
        profile.seed_budget, profile.requested_workers, profile.failures
    );
    println!(
        "production path: {} ({})",
        if profile.production_parallel {
            "parallel"
        } else {
            "sequential"
        },
        profile.production_reason
    );
    print!("{}", profile.render_table());

    // Feed the same numbers through the collector so --metrics/--trace
    // exports carry them: one event per worker plus pool-wide share
    // histograms (percent of wall per category).
    let mut broken = false;
    for wa in &profile.workers {
        clap_obs::event(
            "dbgcontend.worker",
            &[
                ("worker", wa.worker.to_string()),
                ("seeds", wa.seeds.to_string()),
                ("wall_us", wa.wall.as_micros().to_string()),
                ("claim_us", wa.claim.as_micros().to_string()),
                ("restore_us", wa.restore.as_micros().to_string()),
                ("rebuild_us", wa.rebuild.as_micros().to_string()),
                ("step_us", wa.step.as_micros().to_string()),
                ("idle_us", wa.idle.as_micros().to_string()),
                ("overrun_us", wa.overrun.as_micros().to_string()),
            ],
        );
        let wall = wa.wall.as_secs_f64().max(f64::EPSILON);
        for (cat, d) in [
            ("claim", wa.claim),
            ("restore", wa.restore),
            ("rebuild", wa.rebuild),
            ("step", wa.step),
            ("idle", wa.idle),
        ] {
            let pct = (100.0 * d.as_secs_f64() / wall).round() as u64;
            clap_obs::observe(&format!("dbgcontend.{cat}_pct"), pct);
        }
        // Self-check: the five categories must reconstruct the wall.
        let sum = wa.accounted() + wa.idle;
        let ratio = sum.as_secs_f64() / wall;
        if !(0.9..=1.1).contains(&ratio) {
            eprintln!(
                "worker {}: categories cover {:.1}% of wall — attribution broken",
                wa.worker,
                100.0 * ratio
            );
            broken = true;
        }
    }

    let totals = profile.totals();
    let pool_wall = profile.total_wall().as_secs_f64().max(f64::EPSILON);
    let (dom, dom_d) = totals
        .into_iter()
        .max_by_key(|&(_, d)| d)
        .expect("five categories");
    let hint = match dom {
        "claim" => "cross-thread coordination (ROADMAP 2: fine-grained atomic seed claiming)",
        "restore" => "per-seed VM restore (ROADMAP 2: snapshot restore cost)",
        "rebuild" => "enabled-action rebuild (ROADMAP 1: the step-loop bound)",
        "step" => "VM stepping — compute-bound, the pool should scale with cores",
        _ => "idle — startup, post-stop drain, scheduler gaps (ROADMAP 2: watermark finalizer)",
    };
    println!(
        "dominant: {dom} ({:.1}% of pool wall) — {hint}",
        100.0 * dom_d.as_secs_f64() / pool_wall
    );

    if let Err(e) = observer.flush() {
        eprintln!("clap-obs: failed to write sink: {e}");
    }
    if broken {
        std::process::exit(1);
    }
}
