//! The two single-client workloads with the sequential solver:
//!
//! * `reproduce-seq` — `Pipeline::reproduce` per job, `.clap` source to
//!   verified replay (the CLI path);
//! * `offline-seq` — the failures are recorded once in set-up, and each
//!   job is `Pipeline::reproduce_from` on the recorded artifact (the
//!   paper's offline half).
//!
//! An untraced run is a row of fresh segment processes, each of which sets
//! up, makes a cold pass and then warm passes; this process only checks
//! their results. A traced run stays in this process: a traced pass makes
//! the same calls one layer at a time (record, decode, symex, constrain,
//! solve, replay), each inside a span, and reads the program's `clap_obs`
//! counters per job. A traced run ends with the VM and recorder probe and
//! the served probe.

use crate::corpus::{self, median, Rng};
use crate::report::{Counts, Layers, Pass, Run};
use crate::trace::Tracer;
use crate::verify::{self, Seen};
use clap_constraints::{count, ConstraintSystem};
use clap_core::{Pipeline, PipelineConfig, RecordedFailure, SolverChoice};
use clap_profile::{decode_log, BlTables};
use clap_solver::{solve, SolveOutcome};
use clap_symex::execute;
use clap_vm::{NullMonitor, Outcome};
use clap_workloads::Workload;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh processes an untraced run is split into, one after another. Each
/// sets up, makes its cold pass, then warm passes for its share of the
/// run, so a run averages over what differs between processes (addresses,
/// hash seeds) as well as over the drift of the host.
const SEGMENTS: usize = 24;
/// How many times a traced run repeats set-up, spread over the run;
/// `frontend.us`, and `record.ms` on `offline-seq`, are the medians.
const SETUP_REPS_TRACED: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Reproduce,
    Offline,
}

struct Entry {
    workload: Workload,
    pipeline: Pipeline,
    config: PipelineConfig,
    tables: BlTables,
    /// The set-up recording (`offline-seq` only).
    recorded: Option<Result<RecordedFailure, String>>,
    /// Counts of the set-up recording (traced `offline-seq` only).
    setup_counts: Counts,
}

/// Per-layer wall time of one traced pass, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
struct LayerTimes {
    record: u64,
    decode: u64,
    symex: u64,
    constrain: u64,
    solve: u64,
    replay: u64,
}

pub fn run(
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
) -> Result<Run, String> {
    if traced {
        traced_run(mode, seed, seconds, work_dir)
    } else {
        segmented_run(mode, seed, seconds)
    }
}

/// An untraced run: [`SEGMENTS`] fresh processes make every timed pass and
/// set-up; this process checks what they produced against its own results.
fn segmented_run(mode: Mode, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut run = Run::default();
    let slice = seconds / SEGMENTS as f64;
    let segments = (0..SEGMENTS)
        .map(|k| spawn_segment(mode, segment_seed(seed, k), slice))
        .collect::<Result<Vec<_>, _>>()?;

    // Reference results, made outside the timed segments.
    let mut tr = Tracer::new(false, Instant::now());
    let (entries, _) = setup_once(mode, false, &mut tr, 0)?;
    let order: Vec<usize> = (0..entries.len()).collect();
    let mut seen = Seen::new(entries.len());
    for (i, result) in plain_pass(mode, &entries, &order).1.into_iter().enumerate() {
        run.attempted += 1;
        match result {
            Ok(produced) => seen.add(i, produced),
            Err(e) => run.fail_job(entries[i].workload.name, &e),
        }
    }
    check_outputs(&entries, &seen, &mut run);

    for seg in segments {
        run.setup_s.push(seg.setup_s);
        run.peak_rss_mb.push(seg.peak_rss_mb);
        for (k, (pass, failed)) in seg.passes.into_iter().enumerate() {
            run.attempted += pass.job_ms.len() as u64;
            for name in failed {
                run.fail_job(&name, "failed in a segment process");
            }
            if k == 0 {
                run.cold_passes.push(pass);
            } else {
                run.passes.push(pass);
            }
        }
        for (i, digest) in seg.digests.iter().enumerate() {
            let name = entries[i].workload.name;
            match digest {
                Digest::Failed => {}
                Digest::Varied => run.problem(format!(
                    "{name}: results differ between passes of a segment process"
                )),
                Digest::One(d) if Some(*d) != seen.digest(i) => run.problem(format!(
                    "{name}: a segment process produced a different result"
                )),
                Digest::One(_) => {}
            }
        }
    }
    Ok(run)
}

/// A traced run, in this process: a cold pass, then warm passes that are
/// alternately untraced and traced until the time is up, then the probes.
fn traced_run(mode: Mode, seed: u64, seconds: f64, work_dir: &Path) -> Result<Run, String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(true, origin);
    let mut run = Run::default();
    let mut layers = Layers::default();

    let (entries, first) = setup_once(mode, true, &mut tr, 0)?;
    let mut setups = vec![first];
    let start = Instant::now();
    let mut rng = Rng::new(seed);
    let mut seen = Seen::new(entries.len());
    let mut traced_times: Vec<LayerTimes> = Vec::new();
    let mut traced_counts: Vec<Counts> = Vec::new();
    let mut pass_no = 0u64;
    while pass_no < 3 || start.elapsed().as_secs_f64() < seconds {
        setups_due(
            mode,
            start.elapsed().as_secs_f64() / seconds,
            &mut setups,
            &mut tr,
        )?;
        let order = rng.permutation(entries.len());
        if pass_no > 0 && pass_no.is_multiple_of(2) {
            let (pass, times, counts) = traced_pass(
                mode, &entries, &order, pass_no, &mut tr, &mut run, &mut seen,
            );
            traced_times.push(times);
            traced_counts.push(counts);
            run.traced_passes.push(pass);
        } else {
            let (pass, results) = plain_pass(mode, &entries, &order);
            for (&i, result) in order.iter().zip(results) {
                run.attempted += 1;
                match result {
                    Ok(produced) => seen.add(i, produced),
                    Err(e) => run.fail_job(entries[i].workload.name, &e),
                }
            }
            if pass_no == 0 {
                run.cold_passes.push(pass);
            } else {
                run.passes.push(pass);
            }
        }
        pass_no += 1;
    }
    setups_due(mode, 1.0, &mut setups, &mut tr)?;
    run.setup_s = setups.iter().map(|s| s.secs).collect();
    let setup_median =
        |f: fn(&SetupSample) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    layers.set("frontend.us", setup_median(|s| s.frontend_us));
    check_outputs(&entries, &seen, &mut run);

    let med = |f: fn(&LayerTimes) -> u64| {
        median(&traced_times.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
    };
    let record_ms = match mode {
        Mode::Reproduce => med(|t| t.record) / 1e6,
        Mode::Offline => setup_median(|s| s.record_ms),
    };
    layers.set("record.ms", record_ms);
    layers.set("decode.us", med(|t| t.decode) / 1e3);
    layers.set("symex.us", med(|t| t.symex) / 1e3);
    layers.set("constrain.us", med(|t| t.constrain) / 1e3);
    layers.set("solve_seq.ms", med(|t| t.solve) / 1e6);
    layers.set("replay.us", med(|t| t.replay) / 1e3);
    let counts = traced_counts.first().copied().unwrap_or_default();
    counts.into_layers(&mut layers);
    layers.set(
        "record.seeds_per_s",
        corpus::ratio(counts.seeds as f64, record_ms / 1e3),
    );
    let pipelines: Vec<(&Workload, &Pipeline, &PipelineConfig, &BlTables)> = entries
        .iter()
        .map(|e| (&e.workload, &e.pipeline, &e.config, &e.tables))
        .collect();
    crate::probe::vm_and_recorder(&pipelines, &mut tr, &mut layers);
    crate::serve::probe(seed, &mut tr, &mut run, &mut layers, work_dir)?;
    run.layers = layers;
    run.set_trace_overhead();
    crate::write_trace(&tr, mode_name(mode), seed);
    Ok(run)
}

/// Checks every distinct result of every job against the recording it
/// was solved from (recording is deterministic, so an `offline-seq`
/// recording is reused and a `reproduce-seq` one made again).
fn check_outputs(entries: &[Entry], seen: &Seen, run: &mut Run) {
    for (i, e) in entries.iter().enumerate() {
        if seen.is_empty(i) {
            continue;
        }
        let fresh;
        let recorded = match &e.recorded {
            Some(Ok(r)) => Ok(r),
            _ => {
                fresh = e.pipeline.record_failure(&e.config);
                fresh.as_ref()
            }
        };
        let messages = match recorded {
            Ok(r) => seen.check(i, &e.pipeline, e.config.model, r),
            Err(err) => vec![format!("re-recording failed: {err}")],
        };
        for message in messages {
            run.problem(format!("{}: {message}", e.workload.name));
        }
    }
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Reproduce => "reproduce-seq",
        Mode::Offline => "offline-seq",
    }
}

/// Makes the set-ups due once `done` (0 to 1) of the run has passed, so
/// that they are spread evenly over it.
fn setups_due(
    mode: Mode,
    done: f64,
    setups: &mut Vec<SetupSample>,
    tr: &mut Tracer,
) -> Result<(), String> {
    let reps = SETUP_REPS_TRACED as f64;
    while setups.len() < SETUP_REPS_TRACED && done.min(1.0) * reps >= setups.len() as f64 {
        let (_, sample) = setup_once(mode, true, tr, setups.len())?;
        setups.push(sample);
    }
    Ok(())
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupSample {
    secs: f64,
    frontend_us: f64,
    record_ms: f64,
}

/// Builds every pipeline and, for `offline-seq`, records every failure.
fn setup_once(
    mode: Mode,
    traced: bool,
    tr: &mut Tracer,
    rep: usize,
) -> Result<(Vec<Entry>, SetupSample), String> {
    let job = 1_000_000 + rep as u64;
    tr.open("setup", job);
    let t = Instant::now();
    let mut front = Duration::ZERO;
    let mut rec = Duration::ZERO;
    let mut entries = Vec::new();
    for w in corpus::entries() {
        let t_front = Instant::now();
        let pipeline = tr
            .span("frontend", job, || Pipeline::from_source(&w.source))
            .map_err(|e| format!("{}: {e}", w.name))?;
        front += t_front.elapsed();
        let config = clap_bench::workload_config(&w);
        let mut setup_counts = Counts::default();
        let recorded = (mode == Mode::Offline).then(|| {
            if traced {
                clap_obs::enable();
                clap_obs::reset();
            }
            let t_rec = Instant::now();
            let r = tr.span("record", job, || pipeline.record_failure(&config));
            rec += t_rec.elapsed();
            if traced {
                setup_counts = Counts::from_obs(&clap_obs::snapshot().counters);
                clap_obs::disable();
            }
            r.map_err(|e| e.to_string())
        });
        let tables = BlTables::build(pipeline.program());
        entries.push(Entry {
            workload: w,
            pipeline,
            config,
            tables,
            recorded,
            setup_counts,
        });
    }
    let sample = SetupSample {
        secs: t.elapsed().as_secs_f64(),
        frontend_us: front.as_secs_f64() * 1e6,
        record_ms: rec.as_secs_f64() * 1e3,
    };
    tr.close();
    Ok((entries, sample))
}

/// One traced pass over `order`: each job one layer call at a time. The
/// work counts of every job must repeat those of its earlier passes.
fn traced_pass(
    mode: Mode,
    entries: &[Entry],
    order: &[usize],
    pass_no: u64,
    tr: &mut Tracer,
    run: &mut Run,
    seen: &mut Seen,
) -> (Pass, LayerTimes, Counts) {
    let mut pass = Pass::default();
    let mut times = LayerTimes::default();
    let mut counts = Counts::default();
    clap_obs::enable();
    let pass_start = Instant::now();
    for (k, &i) in order.iter().enumerate() {
        let job = pass_no * 1000 + k as u64;
        let t = Instant::now();
        tr.open("job", job);
        let (result, job_counts) = traced_job(mode, &entries[i], tr, job, &mut times);
        tr.close();
        pass.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        counts.add(&job_counts);
        let name = entries[i].workload.name;
        match run.fingerprint.get(name) {
            Some(prev) if prev.render() != job_counts.render() => run.problem(format!(
                "{name}: work counts differ between passes: {} vs {}",
                prev.render(),
                job_counts.render()
            )),
            _ => {
                run.fingerprint.insert(name.to_owned(), job_counts);
            }
        }
        run.attempted += 1;
        match result {
            Ok(produced) => seen.add(i, produced),
            Err(e) => run.fail_job(name, &e),
        }
    }
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    clap_obs::disable();
    (pass, times, counts)
}

/// One untraced pass over `order`.
fn plain_pass(
    mode: Mode,
    entries: &[Entry],
    order: &[usize],
) -> (Pass, Vec<Result<verify::Produced, String>>) {
    let mut pass = Pass::default();
    let mut results = Vec::with_capacity(order.len());
    let pass_start = Instant::now();
    for &i in order {
        let t = Instant::now();
        results.push(plain_job(mode, &entries[i]));
        pass.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    pass.wall_s = pass_start.elapsed().as_secs_f64();
    (pass, results)
}

/// What one job of a segment produced over all its passes.
#[derive(Debug, Clone, Copy)]
enum Digest {
    /// Every pass failed.
    Failed,
    /// The passes produced more than one distinct result.
    Varied,
    /// The digest of the one result every successful pass produced.
    One(u64),
}

/// What a segment process reported.
struct Segment {
    setup_s: f64,
    peak_rss_mb: f64,
    /// Its passes, the cold one first, each with the jobs that failed in it.
    passes: Vec<(Pass, Vec<String>)>,
    /// Per entry, in corpus order.
    digests: Vec<Digest>,
}

const SEGMENT_TAG: &str = "segment ";

/// The job-order seed of segment `k` of the run with seed `seed`.
fn segment_seed(seed: u64, k: usize) -> u64 {
    corpus::fnv1a(format!("{seed}/{k}").as_bytes())
}

/// Runs one segment in a fresh copy of this program and waits for it.
fn spawn_segment(mode: Mode, seed: u64, seconds: f64) -> Result<Segment, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", mode_name(mode), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
            "--segment",
            "1",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("segment process: {e}"))?;
    if !out.status.success() {
        return Err(format!("segment process failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut setup_s = None;
    let mut end = None;
    let mut passes = Vec::new();
    for line in stdout.lines().filter_map(|l| l.strip_prefix(SEGMENT_TAG)) {
        let bad = || format!("segment process printed `{line}`");
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
        let fields: Vec<&str> = line.split(' ').collect();
        match fields[..] {
            ["setup", secs] => setup_s = Some(num(secs)?),
            ["pass", wall, jobs, failed] => {
                let job_ms = jobs.split(',').map(num).collect::<Result<_, _>>()?;
                let failed = failed
                    .split(',')
                    .filter(|f| *f != "-")
                    .map(str::to_owned)
                    .collect();
                passes.push((
                    Pass {
                        wall_s: num(wall)?,
                        job_ms,
                    },
                    failed,
                ));
            }
            ["end", rss, digests] => {
                let digests = digests
                    .split(',')
                    .map(|d| match d {
                        "-" => Ok(Digest::Failed),
                        "*" => Ok(Digest::Varied),
                        hex => u64::from_str_radix(hex, 16)
                            .map(Digest::One)
                            .map_err(|_| bad()),
                    })
                    .collect::<Result<_, _>>()?;
                end = Some((num(rss)?, digests));
            }
            _ => return Err(bad()),
        }
    }
    match (setup_s, end) {
        (Some(setup_s), Some((peak_rss_mb, digests))) if passes.len() >= 2 => Ok(Segment {
            setup_s,
            peak_rss_mb,
            passes,
            digests,
        }),
        _ => Err("segment process printed an incomplete report".to_owned()),
    }
}

/// The body of a segment process: set up once, make the cold pass, then
/// warm passes until `seconds` have passed since it started (at least
/// one), printing each as it ends.
pub fn segment(mode: Mode, seed: u64, seconds: f64) -> Result<(), String> {
    let start = Instant::now();
    let mut tr = Tracer::new(false, start);
    let (entries, setup) = setup_once(mode, false, &mut tr, 0)?;
    println!("{SEGMENT_TAG}setup {}", setup.secs);
    let mut rng = Rng::new(seed);
    let mut seen = Seen::new(entries.len());
    let mut passes = 0;
    let mut last_wall = 0.0;
    // Another pass is made when it would end nearer the segment's share
    // than stopping now, so that a run lasts about its seconds.
    while passes < 2 || start.elapsed().as_secs_f64() + last_wall / 2.0 < seconds {
        let order = rng.permutation(entries.len());
        let (pass, results) = plain_pass(mode, &entries, &order);
        let mut failed = Vec::new();
        for (&i, result) in order.iter().zip(results) {
            match result {
                Ok(produced) => seen.add(i, produced),
                Err(_) => failed.push(entries[i].workload.name),
            }
        }
        let jobs: Vec<String> = pass.job_ms.iter().map(f64::to_string).collect();
        let failed = if failed.is_empty() {
            "-".to_owned()
        } else {
            failed.join(",")
        };
        println!(
            "{SEGMENT_TAG}pass {} {} {failed}",
            pass.wall_s,
            jobs.join(",")
        );
        last_wall = pass.wall_s;
        passes += 1;
    }
    let digests: Vec<String> = (0..entries.len())
        .map(|i| match seen.digest(i) {
            _ if seen.is_empty(i) => "-".to_owned(),
            Some(d) => format!("{d:016x}"),
            None => "*".to_owned(),
        })
        .collect();
    println!(
        "{SEGMENT_TAG}end {} {}",
        crate::report::peak_rss_mb(),
        digests.join(",")
    );
    Ok(())
}

/// One job as a user makes it: a single library call.
fn plain_job(mode: Mode, e: &Entry) -> Result<verify::Produced, String> {
    let report = match (mode, &e.recorded) {
        (Mode::Reproduce, _) => e.pipeline.reproduce(&e.config),
        (Mode::Offline, Some(Ok(recorded))) => e.pipeline.reproduce_from(&e.config, recorded),
        (Mode::Offline, Some(Err(err))) => return Err(format!("recording: {err}")),
        (Mode::Offline, None) => unreachable!("offline set-up records every entry"),
    }
    .map_err(|e| e.to_string())?;
    if !report.reproduced {
        return Err("replay did not fire the assert".to_owned());
    }
    Ok(verify::Produced::from(&report))
}

/// One job, one layer call at a time, each inside a span. Returns the
/// job's result and its work counts.
fn traced_job(
    mode: Mode,
    e: &Entry,
    tr: &mut Tracer,
    job: u64,
    times: &mut LayerTimes,
) -> (Result<verify::Produced, String>, Counts) {
    clap_obs::reset();
    let result = layered(mode, e, tr, job, times);
    let mut counts = Counts::from_obs(&clap_obs::snapshot().counters);
    if mode == Mode::Offline {
        // The offline job records nothing; its recording was made in set-up.
        counts.seeds = e.setup_counts.seeds;
        counts.failures = e.setup_counts.failures;
    }
    if let Ok((_, clauses, vars)) = &result {
        counts.clauses = *clauses;
        counts.vars = *vars;
    }
    (result.map(|(p, _, _)| p), counts)
}

fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    job: u64,
    acc: &mut u64,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let out = tr.span(name, job, f);
    *acc += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out
}

type Layered = Result<(verify::Produced, u64, u64), String>;

fn layered(mode: Mode, e: &Entry, tr: &mut Tracer, job: u64, times: &mut LayerTimes) -> Layered {
    let program = e.pipeline.program();
    let fresh;
    let recorded = match (mode, &e.recorded) {
        (Mode::Offline, Some(Ok(r))) => r,
        (Mode::Offline, _) => return Err("recording failed in set-up".to_owned()),
        (Mode::Reproduce, _) => {
            fresh = timed(tr, "record", job, &mut times.record, || {
                e.pipeline.record_failure(&e.config)
            });
            fresh.as_ref().map_err(ToString::to_string)?
        }
    };
    let paths = timed(tr, "decode", job, &mut times.decode, || {
        decode_log(program, &e.tables, &recorded.log)
    })
    .map_err(|x| format!("decode: {x}"))?;
    let shared = e.pipeline.sharing().shared_spec();
    let trace = timed(tr, "symex", job, &mut times.symex, || {
        execute(program, &shared, &paths, &recorded.failure)
    })
    .map_err(|x| format!("symex: {x}"))?;
    let (system, stats) = timed(tr, "constrain", job, &mut times.constrain, || {
        let mut system = ConstraintSystem::build(program, &trace, e.config.model);
        if let Some(so) = &recorded.sync_order {
            system.apply_sync_order(so).map_err(|x| x.to_string())?;
        }
        let stats = count(&system);
        Ok::<_, String>((system, stats))
    })?;
    let SolverChoice::Sequential(solver_config) = &e.config.solver else {
        unreachable!("workload_config uses the sequential solver")
    };
    let outcome = timed(tr, "solve", job, &mut times.solve, || {
        solve(program, &system, *solver_config)
    });
    let schedule = match outcome {
        SolveOutcome::Sat(solution) => solution.schedule,
        SolveOutcome::Unsat(_) => return Err("constraints unsatisfiable".to_owned()),
        SolveOutcome::Timeout(_) => return Err("solver budget exhausted".to_owned()),
    };
    let replay = timed(tr, "replay", job, &mut times.replay, || {
        clap_replay::replay_compiled(
            program,
            Arc::clone(e.pipeline.compiled()),
            e.config.model,
            shared.clone(),
            &trace,
            &schedule,
            recorded.assert,
            &mut NullMonitor,
        )
    })
    .map_err(|x| format!("replay: {x}"))?;
    let fired = match replay.outcome {
        Outcome::AssertFailed { assert, .. } => Some(assert),
        _ => None,
    };
    let produced = verify::Produced {
        schedule,
        fired,
        reproduced: replay.reproduced,
    };
    if !produced.reproduced {
        return Err("replay did not fire the assert".to_owned());
    }
    Ok((
        produced,
        stats.total_clauses() as u64,
        stats.total_vars() as u64,
    ))
}
