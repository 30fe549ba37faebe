//! The VM sweep behind the `bench_vm` binary: the interpreter on the two
//! inner loops everything else amortizes into — seeded schedule sweeps
//! (the record phase's unit of work) and the `clap-check` oracle's
//! bounded exhaustive enumeration.
//!
//! Results are published through the [`clap_obs`] JSONL sink as
//! `bench.vm` / `bench.vm.cell` events; `obsck` enforces the field
//! schema. Each (workload, phase) cell carries the best wall-clock, the
//! work it did and the wall time per unit of that work — the absolute
//! ns/step trajectory that `benchdiff` compares against the committed
//! `BENCH_vm.jsonl`.

use clap_check::OracleConfig;
use clap_vm::{NullMonitor, RandomScheduler, Vm};
use std::time::Instant;

/// Workloads swept (small → mid-size, same trio as `bench_explore`).
pub const WORKLOADS: [&str; 3] = ["sim_race", "pbzip2", "bakery"];

/// Seeds per sweep-phase measurement.
pub const SWEEP_SEEDS: u64 = 300;

/// Oracle execution cap per enumeration-phase measurement (keeps the
/// mid-size workloads' DFS bounded).
pub const ORACLE_EXECUTIONS: u64 = 3_000;

/// One (workload, phase) measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// `"sweep"` or `"oracle"`.
    pub phase: &'static str,
    /// Best wall-clock over the repeats, in milliseconds.
    pub millis: f64,
    /// Scheduler steps (sweep) or leaves explored (oracle).
    pub steps: u64,
}

impl Cell {
    /// Wall time per unit of [`Cell::steps`], in nanoseconds.
    pub fn ns_per_step(&self) -> f64 {
        self.millis * 1e6 / self.steps.max(1) as f64
    }
}

/// A complete VM measurement.
#[derive(Debug, Clone)]
pub struct VmBench {
    /// Cores available on the measuring host.
    pub host_cores: usize,
    /// Repeats per cell (best-of).
    pub repeats: u32,
    /// One cell per workload × phase.
    pub cells: Vec<Cell>,
}

/// Runs the sweep: `repeats` best-of measurements per cell.
pub fn run(repeats: u32) -> VmBench {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut cells = Vec::new();
    for name in WORKLOADS {
        let workload = clap_workloads::by_name(name).expect("workload exists");
        let program = workload.program();
        let shared = clap_analysis::analyze(&program).shared_spec();
        for phase in ["sweep", "oracle"] {
            let mut best = f64::INFINITY;
            let mut steps = 0u64;
            for _ in 0..repeats {
                let t0 = Instant::now();
                steps = match phase {
                    "sweep" => {
                        let mut vm = Vm::with_shared(&program, workload.model, shared.clone());
                        vm.set_step_limit(1_000_000);
                        let mut total = 0u64;
                        for seed in 0..SWEEP_SEEDS {
                            vm.reset();
                            let mut sched = RandomScheduler::with_stickiness(seed, 0.7);
                            vm.run(&mut sched, &mut NullMonitor);
                            total += vm.stats().steps;
                        }
                        total
                    }
                    _ => {
                        let config = OracleConfig::new(workload.model)
                            .with_max_executions(ORACLE_EXECUTIONS);
                        let report =
                            clap_check::enumerate_with_shared(&program, shared.clone(), &config);
                        report.executions
                    }
                };
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            let cell = Cell {
                workload: name.to_owned(),
                phase,
                millis: best,
                steps,
            };
            eprintln!(
                "{name}: phase={phase} best={best:.2}ms steps={steps} ns/step={:.1}",
                cell.ns_per_step()
            );
            cells.push(cell);
        }
    }
    VmBench {
        host_cores,
        repeats,
        cells,
    }
}

/// Records the measurement into the global [`clap_obs`] collector: one
/// `bench.vm` header event plus one `bench.vm.cell` event per cell.
/// Flushing an observer with a metrics path then yields the JSONL
/// artifact.
pub fn emit_events(bench: &VmBench) {
    clap_obs::event(
        "bench.vm",
        &[
            ("host_cores", bench.host_cores.to_string()),
            ("repeats", bench.repeats.to_string()),
        ],
    );
    for cell in &bench.cells {
        clap_obs::event(
            "bench.vm.cell",
            &[
                ("workload", cell.workload.clone()),
                ("phase", cell.phase.to_owned()),
                ("millis", format!("{:.3}", cell.millis)),
                ("steps", cell.steps.to_string()),
                ("ns_per_step", format!("{:.1}", cell.ns_per_step())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_follow_the_strict_schema() {
        let _l = clap_obs::test_lock();
        clap_obs::reset();
        clap_obs::enable();
        emit_events(&VmBench {
            host_cores: 8,
            repeats: 3,
            cells: vec![Cell {
                workload: "sim_race".to_owned(),
                phase: "sweep",
                millis: 2.5,
                steps: 12_500,
            }],
        });
        clap_obs::disable();
        let snap = clap_obs::snapshot();
        let mut buf = Vec::new();
        clap_obs::sink::write_jsonl(&snap, &mut buf).unwrap();
        for line in String::from_utf8(buf).unwrap().lines() {
            clap_obs::sink::validate_jsonl_line(line).unwrap();
        }
        let cells: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "bench.vm.cell")
            .collect();
        assert_eq!(cells.len(), 1);
        assert!(cells[0]
            .fields
            .iter()
            .any(|(k, v)| k == "ns_per_step" && v == "200.0"));
    }
}
