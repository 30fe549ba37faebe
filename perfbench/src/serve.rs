//! The served probe, made in every traced run: an in-process
//! `clap_serve::Server` with its shipped defaults and a fresh cache
//! directory, driven by two closed-loop client connections over loopback.
//!
//! The cold wave submits every entry once (the `Auto` portfolio solves
//! each); the warm wave then resubmits seeded permutations of the entries,
//! which the cache answers. A job is timed from submit until its report is
//! in hand, polling `/status` every millisecond from the client's own
//! connection (`Client::wait` sleeps 10 ms between polls, which would
//! floor every ms-scale job).

use crate::corpus::{self, median, quantile, ratio, Rng};
use crate::report::{Counts, Layers, Run};
use crate::trace::Tracer;
use crate::verify::{Produced, Seen};
use clap_core::{EngineKind, Pipeline, ReproductionReport};
use clap_serve::{Client, JobInfo, JobState, ServeConfig, Server, SubmitRequest};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections; each waits for its reply before the next request.
const CLIENTS: usize = 2;
/// The warm wave makes at least this many resubmissions.
const WARM_MIN: usize = 1000;
/// Interval between `/status` polls of a running job.
const POLL: Duration = Duration::from_millis(1);
/// A job still unfinished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// Job ids of the probe's spans start here.
const PROBE_JOBS: u64 = 3_000_000;

/// One finished request.
struct JobRecord {
    entry: usize,
    latency_ms: f64,
    submit_us: f64,
    /// The report JSON, or why there is none.
    result: Result<String, String>,
}

/// Runs the probe and fills the `serve.*`, `portfolio.*` and `parallel.*`
/// layer metrics. Its jobs count in the run's `attempted` and `failed`,
/// and its output checks in `correct`.
pub fn probe(
    seed: u64,
    tr: &mut Tracer,
    run: &mut Run,
    layers: &mut Layers,
    work_dir: &Path,
) -> Result<(), String> {
    let entries = corpus::entries();
    let requests: Vec<SubmitRequest> = entries
        .iter()
        .map(|w| SubmitRequest {
            model: w.model,
            ..SubmitRequest::new(w.source.clone())
        })
        .collect();
    let pipelines = entries
        .iter()
        .map(|w| Pipeline::from_source(&w.source))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let cache_dir = work_dir.join(format!("serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let server = tr
        .span("server_start", PROBE_JOBS, || {
            Server::start(ServeConfig {
                cache_dir: Some(cache_dir.clone()),
                ..ServeConfig::default()
            })
        })
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr().to_string();
    let mut rng = Rng::new(seed);
    let mut submit_us = Vec::new();

    // Cold wave.
    let mark = clap_obs::mark();
    let order = rng.permutation(entries.len());
    let (cold_s, records) = one_pass(&addr, &requests, &order, tr, PROBE_JOBS);
    let cold_obs = clap_obs::snapshot_since(&mark);
    let cold_ms: Vec<f64> = records.iter().map(|r| r.latency_ms).collect();
    let mut cold_reports: Vec<Option<String>> = vec![None; entries.len()];
    let mut overhead_ms = Vec::new();
    let mut cold_parsed = Vec::new();
    for r in &records {
        run.attempted += 1;
        submit_us.push(r.submit_us);
        let name = entries[r.entry].name;
        match &r.result {
            Ok(json) => match ReproductionReport::from_json(json) {
                Ok(report) => {
                    overhead_ms.push(r.latency_ms - report.phases.total.as_secs_f64() * 1e3);
                    if report.reproduced {
                        cold_reports[r.entry] = Some(json.clone());
                        cold_parsed.push((r.entry, report));
                    } else {
                        run.fail_job(name, "replay did not fire the assert");
                    }
                }
                Err(e) => run.problem(format!("serve {name}: unreadable report: {e}")),
            },
            Err(e) => run.fail_job(name, e),
        }
    }

    // Warm wave.
    let mut warm_ms = Vec::new();
    let mut pass_no = 1;
    while warm_ms.len() < WARM_MIN {
        let order = rng.permutation(entries.len());
        let first_job = PROBE_JOBS + pass_no * 1000;
        let (_, records) = one_pass(&addr, &requests, &order, tr, first_job);
        for r in records {
            run.attempted += 1;
            warm_ms.push(r.latency_ms);
            submit_us.push(r.submit_us);
            let name = entries[r.entry].name;
            match (r.result, cold_reports[r.entry].as_deref()) {
                (Ok(json), Some(cold)) => {
                    if let Some(message) = same_schedule(cold, &json) {
                        run.problem(format!("serve {name}: warm report: {message}"));
                    }
                }
                (Ok(_), None) => run.fail_job(name, "cold job did not reproduce"),
                (Err(e), _) => run.fail_job(name, &e),
            }
        }
        pass_no += 1;
    }
    let run_obs = clap_obs::snapshot_since(&mark);
    stop(server, &cache_dir)?;
    clap_obs::disable();

    // Output checks: re-record each entry as the server did (recording is
    // deterministic) and check the cold report against it.
    let mut seen = Seen::new(entries.len());
    for (i, report) in &cold_parsed {
        let name = entries[*i].name;
        let config = requests[*i].pipeline_config();
        let recorded = match pipelines[*i].record_failure(&config) {
            Ok(r) => r,
            Err(e) => {
                run.problem(format!("serve {name}: re-recording failed: {e}"));
                continue;
            }
        };
        if recorded.seed != report.seed {
            run.problem(format!(
                "serve {name}: served seed {} but the recording fails at seed {}",
                report.seed, recorded.seed
            ));
            continue;
        }
        seen.add(*i, Produced::from(report));
        for message in seen.check(*i, &pipelines[*i], config.model, &recorded) {
            run.problem(format!("serve {name}: {message}"));
        }
    }

    layers.set("serve.cold_s", cold_s);
    layers.set("serve.cold_ms.p50", median(&cold_ms));
    layers.set("serve.warm_ms.p50", quantile(&warm_ms, 0.5));
    layers.set("serve.warm_ms.p99", quantile(&warm_ms, 0.99));
    layers.set("serve.submit_us", median(&submit_us));
    layers.set("serve.overhead_ms", median(&overhead_ms));
    layer_metrics(layers, run, &cold_parsed, &entries, &cold_obs, &run_obs);
    Ok(())
}

/// Shuts a server down, waits for it, and removes its cache directory.
fn stop(server: Server, dir: &PathBuf) -> Result<(), String> {
    Client::new(server.addr().to_string())
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    server.join();
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

/// One pass over `order` with [`CLIENTS`] closed-loop clients pulling
/// from a shared cursor. Returns its wall time (s) and every request.
fn one_pass(
    addr: &str,
    requests: &[SubmitRequest],
    order: &[usize],
    tr: &mut Tracer,
    first_job: u64,
) -> (f64, Vec<JobRecord>) {
    let cursor = AtomicUsize::new(0);
    let records = Mutex::new(Vec::with_capacity(order.len()));
    let pass_start = Instant::now();
    let tracers: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let mut ctr = tr.fork();
                let (cursor, records) = (&cursor, &records);
                s.spawn(move || {
                    let client = Client::new(addr);
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&entry) = order.get(k) else { break };
                        let job = first_job + k as u64;
                        let record = one_job(&client, &requests[entry], entry, &mut ctr, job);
                        records.lock().expect("records lock").push(record);
                    }
                    ctr
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = pass_start.elapsed().as_secs_f64();
    for t in tracers {
        tr.absorb(t);
    }
    (wall_s, records.into_inner().expect("records lock"))
}

/// Submit, poll until finished, fetch the report.
fn one_job(
    client: &Client,
    request: &SubmitRequest,
    entry: usize,
    tr: &mut Tracer,
    job: u64,
) -> JobRecord {
    tr.open("job", job);
    let t0 = Instant::now();
    let submitted = tr.span("submit", job, || client.submit(request));
    let submit_us = t0.elapsed().as_secs_f64() * 1e6;
    let result = submitted.map_err(|e| e.to_string()).and_then(|info| {
        let info = tr.span("wait", job, || poll_until_finished(client, info, t0))?;
        if info.state == JobState::Failed {
            return Err(info.error.unwrap_or_else(|| "job failed".to_owned()));
        }
        tr.span("fetch", job, || client.fetch(info.job))
            .map_err(|e| e.to_string())
    });
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.close();
    JobRecord {
        entry,
        latency_ms,
        submit_us,
        result,
    }
}

/// Polls `/status` every [`POLL`] until the job is done or has failed.
fn poll_until_finished(client: &Client, mut info: JobInfo, t0: Instant) -> Result<JobInfo, String> {
    while !matches!(info.state, JobState::Done | JobState::Failed) {
        if t0.elapsed() > JOB_TIMEOUT {
            return Err("timed out".to_owned());
        }
        std::thread::sleep(POLL);
        info = client.status(info.job).map_err(|e| e.to_string())?;
    }
    Ok(info)
}

/// `None` when a warm report carries the cold report's schedule.
fn same_schedule(cold: &str, warm: &str) -> Option<String> {
    if cold == warm {
        return None;
    }
    match (
        ReproductionReport::from_json(cold),
        ReproductionReport::from_json(warm),
    ) {
        (Ok(c), Ok(w)) if c.schedule == w.schedule => None,
        (Ok(_), Ok(_)) => Some("schedule differs from the cold report".to_owned()),
        (_, Err(e)) | (Err(e), _) => Some(format!("unreadable report: {e}")),
    }
}

/// Layer values of the cold wave, read from the reports the server
/// returned and from the program's `clap_obs` counters.
fn layer_metrics(
    layers: &mut Layers,
    run: &mut Run,
    cold: &[(usize, ReproductionReport)],
    entries: &[clap_workloads::Workload],
    cold_obs: &clap_obs::Snapshot,
    run_obs: &clap_obs::Snapshot,
) {
    let solve_ms: f64 = cold
        .iter()
        .map(|(_, r)| r.phases.solve.as_secs_f64() * 1e3)
        .sum();
    layers.set("portfolio.ms", solve_ms);
    let attempts = cold.iter().flat_map(|(_, r)| r.portfolio.attempts.iter());
    let (mut count, mut wasted) = (0usize, 0.0);
    for a in attempts {
        count += 1;
        if a.outcome != clap_core::AttemptOutcome::Found {
            wasted += a.wall.as_secs_f64() * 1e3;
        }
    }
    layers.set("portfolio.attempts", count as f64);
    layers.set("portfolio.wasted_ms", wasted);
    let winners: Vec<_> = cold
        .iter()
        .filter_map(|(_, r)| r.portfolio.winner)
        .collect();
    let seq_wins = winners
        .iter()
        .filter(|w| **w == EngineKind::Sequential)
        .count();
    layers.set(
        "portfolio.seq_win_pct",
        100.0 * ratio(seq_wins as f64, winners.len() as f64),
    );

    // Work counts: per job from its report, per wave from the counters
    // (two server workers run at once, so counters cannot be split by
    // job).
    let mut totals = Counts::from_obs(&cold_obs.counters);
    totals.clauses = 0;
    totals.vars = 0;
    for (i, r) in cold {
        let job = Counts {
            saps: r.saps as u64,
            clauses: r.constraints.total_clauses() as u64,
            vars: r.constraints.total_vars() as u64,
            replay_steps: r.replay.steps,
            log_bytes: r.log_bytes as u64,
            ..Counts::default()
        };
        totals.clauses += job.clauses;
        totals.vars += job.vars;
        run.fingerprint
            .insert(format!("serve/{}", entries[*i].name), job);
    }
    run.fingerprint
        .insert("serve/cold-wave-total".to_owned(), totals);
    layers.set("parallel.generated", totals.generated as f64);
    layers.set("parallel.validated", totals.validated as f64);
    layers.set(
        "parallel.good_ratio",
        ratio(totals.good as f64, totals.validated as f64),
    );

    let c = |k: &str| run_obs.counters.get(k).copied().unwrap_or(0) as f64;
    let (hit, miss) = (c("serve.cache.hit"), c("serve.cache.miss"));
    layers.set("serve.cache_hit_pct", 100.0 * ratio(hit, hit + miss));
    layers.set("serve.shed", c("serve.queue.rejected"));
    let wait = run_obs
        .hists
        .get("serve.queue.wait_us")
        .map_or(0.0, |h| h.p50() as f64);
    layers.set("serve.queue_wait_us", wait);
}
