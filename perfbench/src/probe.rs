//! Fixed-seed probe of the VM and the path recorder: every entry runs the
//! same seeds once with `NullMonitor` and once with `PathRecorder`. Only
//! traced runs make it.

use crate::corpus::{median, ratio};
use crate::report::Layers;
use crate::trace::Tracer;
use clap_core::{Pipeline, PipelineConfig};
use clap_profile::{BlTables, PathRecorder};
use clap_vm::{Backend, NullMonitor, RandomScheduler, Vm};
use clap_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeds per entry, at the entry's first stickiness.
const SEEDS: u64 = 64;
/// Repetitions; the probe reports the median.
const REPS: usize = 3;

/// Job id of the probe's spans.
const PROBE_JOB: u64 = 2_000_000;

pub fn vm_and_recorder(
    entries: &[(&Workload, &Pipeline, &PipelineConfig, &BlTables)],
    tr: &mut Tracer,
    layers: &mut Layers,
) {
    let mut null_ns = Vec::new();
    let mut rec_ns = Vec::new();
    let mut steps = 0u64;
    for _ in 0..REPS {
        let mut null = Duration::ZERO;
        let mut rec = Duration::ZERO;
        steps = 0;
        tr.open("probe", PROBE_JOB);
        for (w, pipeline, config, tables) in entries {
            let program = pipeline.program();
            let mut vm = Vm::with_compiled(
                program,
                Arc::clone(pipeline.compiled()),
                w.model,
                pipeline.sharing().shared_spec(),
                Backend::Bytecode,
            );
            vm.set_step_limit(config.step_limit);
            let stickiness = config.stickiness[0];
            let t = Instant::now();
            tr.span("vm", PROBE_JOB, || {
                for seed in 0..SEEDS {
                    vm.reset();
                    let mut sched = RandomScheduler::with_stickiness(seed, stickiness);
                    std::hint::black_box(vm.run(&mut sched, &mut NullMonitor));
                    steps += vm.stats().steps;
                }
            });
            null += t.elapsed();
            let t = Instant::now();
            tr.span("recorder", PROBE_JOB, || {
                for seed in 0..SEEDS {
                    vm.reset();
                    let mut sched = RandomScheduler::with_stickiness(seed, stickiness);
                    let mut recorder = PathRecorder::new(tables);
                    std::hint::black_box(vm.run(&mut sched, &mut recorder));
                    std::hint::black_box(recorder.finish());
                }
            });
            rec += t.elapsed();
        }
        tr.close();
        null_ns.push(null.as_nanos() as f64);
        rec_ns.push(rec.as_nanos() as f64);
    }
    let null = median(&null_ns);
    let rec = median(&rec_ns);
    layers.set("vm.steps", steps as f64);
    layers.set("vm.ns_per_step", ratio(null, steps as f64));
    layers.set(
        "profile.recorder_overhead_pct",
        100.0 * ratio(rec - null, null),
    );
}
