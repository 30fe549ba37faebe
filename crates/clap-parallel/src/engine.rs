//! The parallel generate-and-validate driver (§4.3).
//!
//! One producer enumerates CSP sets of increasing size and generates the
//! candidate schedules for each; a pool of workers validates candidates
//! concurrently ("each single schedule generation and validation is
//! independent and fast"). Exhausting each preemption bound before the
//! next makes the first hit a **minimal-context-switch** reproduction.

use crate::gen::{for_each_csp_set, preemption_point_count, Generator};
use clap_constraints::{validate, ConstraintSystem, Schedule, Witness};
use clap_ir::Program;
use clap_symex::SapId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Parallel-search configuration.
///
/// The wall-clock budget is a [`Duration`], anchored when
/// [`solve_parallel`] is entered — not when the config is built — so time
/// spent recording or symbolically executing never eats the solve budget.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Validation workers (0 = one per available core, minus one for the
    /// producer).
    pub workers: usize,
    /// Smallest preemption bound to try. A portfolio that already
    /// exhausted bounds `0..=k` cleanly escalates with `min_cs = k + 1`
    /// instead of re-enumerating the lower levels.
    pub min_cs: usize,
    /// Largest preemption bound to try.
    pub max_cs: usize,
    /// Stop after this many validated schedules (the paper typically
    /// finds several before the stop signal lands).
    pub stop_after_good: usize,
    /// Cap on generated schedules per preemption level (0 = unlimited).
    pub max_generated_per_level: u64,
    /// Cap on CSP sets per level (0 = unlimited).
    pub max_sets_per_level: u64,
    /// Cap on generator DFS nodes per level (0 = unlimited); bounds
    /// pruned searches that rarely complete a schedule.
    pub max_nodes_per_level: u64,
    /// Wall-clock budget for this solve call (`None` = unbounded).
    pub timeout: Option<Duration>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 0,
            min_cs: 0,
            max_cs: 3,
            stop_after_good: 1,
            max_generated_per_level: 2_000_000,
            max_sets_per_level: 200_000,
            max_nodes_per_level: 50_000_000,
            timeout: None,
        }
    }
}

/// Search counters (Table 3 columns) plus the completeness signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Candidate schedules generated.
    pub generated: u64,
    /// Candidates validated (some may be skipped after the stop signal).
    pub validated: u64,
    /// Correct (bug-reproducing) schedules found.
    pub good: u64,
    /// The preemption bound at which the search stopped.
    pub cs_bound: usize,
    /// Whether any per-level cap (sets, schedules, DFS nodes) or the
    /// deadline cut the enumeration short.
    pub truncated: bool,
    /// Whether the search provably covered the **entire** schedule space:
    /// nothing was truncated and the preemption ladder reached the number
    /// of distinct preemption points in the trace. Only an
    /// [`ParallelOutcome::Exhausted`] with `complete == true` is a
    /// certificate of unsatisfiability; an incomplete exhaustion merely
    /// says no schedule exists within the searched bounds.
    pub complete: bool,
}

/// The outcome of the parallel search.
#[derive(Debug)]
pub enum ParallelOutcome {
    /// At least one schedule reproduces the bug; the first one found at
    /// the smallest preemption bound is returned.
    Found {
        /// The bug-reproducing schedule.
        schedule: Schedule,
        /// Its witness.
        witness: Witness,
        /// Preemptive context switches of the schedule (§4.2 metric).
        cs: usize,
        /// Effort counters.
        stats: ParallelStats,
    },
    /// Every preemption bound from `min_cs` up to `max_cs` was exhausted
    /// with no hit. **This is not an unsatisfiability proof unless
    /// [`ParallelStats::complete`] is set**: a capped ladder only shows
    /// that no schedule exists within the searched preemption bounds.
    Exhausted(ParallelStats),
    /// A budget (deadline, set cap, generation cap) stopped the search.
    Budget(ParallelStats),
}

/// One preemption-bound rung handed to the persistent validator pool.
/// Workers take turns on the shared `rx`, validate candidates, and send
/// one `()` on `done_tx` when the rung's channel closes — the producer
/// counts those to detect rung completion (the pool itself never joins
/// between rungs).
struct Rung {
    rx: Mutex<Receiver<(usize, Vec<SapId>)>>,
    stop: AtomicBool,
    validated: AtomicU64,
    good: Mutex<Vec<(Schedule, Witness)>>,
    stop_after_good: usize,
    done_tx: SyncSender<()>,
}

struct ValidatorPoolState {
    epoch: u64,
    rung: Option<Arc<Rung>>,
    shutdown: bool,
}

struct ValidatorPool {
    state: Mutex<ValidatorPoolState>,
    cv: Condvar,
}

impl ParallelOutcome {
    /// The found schedule, if any.
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            ParallelOutcome::Found { schedule, .. } => Some(schedule),
            _ => None,
        }
    }

    /// The effort counters regardless of outcome.
    pub fn stats(&self) -> ParallelStats {
        match self {
            ParallelOutcome::Found { stats, .. }
            | ParallelOutcome::Exhausted(stats)
            | ParallelOutcome::Budget(stats) => *stats,
        }
    }
}

/// Runs the §4.3 parallel search.
pub fn solve_parallel(
    program: &Program,
    system: &ConstraintSystem<'_>,
    config: ParallelConfig,
) -> ParallelOutcome {
    let deadline = config.timeout.map(|t| Instant::now() + t);
    let workers = if config.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get().saturating_sub(1))
            .unwrap_or(1)
            .max(1)
    } else {
        config.workers
    };
    let mut stats = ParallelStats {
        cs_bound: config.min_cs,
        ..ParallelStats::default()
    };

    // Every emitted order is a full permutation of the trace's SAPs, so a
    // batch of k orders is one flat buffer of k·n ids — one allocation
    // and one channel hand-off per batch instead of per candidate.
    const BATCH_ORDERS: usize = 64;
    let n = system.trace.sap_count();

    // One validator pool for the whole preemption ladder: workers are
    // spawned once, park on a condvar between rungs, and pick each rung
    // up by epoch — the old per-rung scope paid a full spawn/join cycle
    // at every bound even when a rung generated almost nothing.
    let early = std::thread::scope(|scope| {
        let pool = Arc::new(ValidatorPool {
            state: Mutex::new(ValidatorPoolState {
                epoch: 0,
                rung: None,
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        for _ in 0..workers {
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                let _span = clap_obs::span("parallel.validator");
                // Scratch survives every rung of the ladder.
                let mut scratch = Schedule {
                    order: Vec::with_capacity(n),
                };
                let mut seen_epoch = 0u64;
                loop {
                    let rung = {
                        let mut st = pool.state.lock().expect("validator pool lock");
                        loop {
                            if st.shutdown {
                                return;
                            }
                            if st.epoch != seen_epoch {
                                seen_epoch = st.epoch;
                                break Arc::clone(st.rung.as_ref().expect("epoch implies rung"));
                            }
                            st = pool.cv.wait(st).expect("validator pool lock");
                        }
                    };
                    let rung_start = Instant::now();
                    let mut busy = Duration::ZERO;
                    let mut recv_wait = Duration::ZERO;
                    let mut checked: u64 = 0;
                    loop {
                        // Time blocked on the producer, including the wait
                        // for the shared receiver's lock: starved validators
                        // show up as a high recv-wait share, distinguishing
                        // a generation-bound rung from a validation-bound
                        // one in the contention picture.
                        let t_wait = Instant::now();
                        let next = rung.rx.lock().expect("rung receiver lock").recv();
                        let Ok((count, flat)) = next else {
                            recv_wait += t_wait.elapsed();
                            break;
                        };
                        recv_wait += t_wait.elapsed();
                        if rung.stop.load(Ordering::Relaxed) {
                            continue; // drain
                        }
                        let t = Instant::now();
                        for i in 0..count {
                            if rung.stop.load(Ordering::Relaxed) {
                                break;
                            }
                            rung.validated.fetch_add(1, Ordering::Relaxed);
                            checked += 1;
                            scratch.order.clear();
                            scratch.order.extend_from_slice(&flat[i * n..(i + 1) * n]);
                            if let Ok(witness) = validate(program, system, &scratch) {
                                let mut g = rung.good.lock().expect("good lock");
                                g.push((scratch.clone(), witness));
                                if g.len() >= rung.stop_after_good {
                                    rung.stop.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        busy += t.elapsed();
                    }
                    clap_obs::observe("parallel.validator.validated", checked);
                    let wall = rung_start.elapsed().as_nanos().max(1) as u64;
                    let busy_pct = 100 * busy.as_nanos() as u64 / wall;
                    clap_obs::observe("parallel.validator.busy_pct", busy_pct);
                    clap_obs::observe(
                        "parallel.validator.recv_wait_us",
                        recv_wait.as_micros() as u64,
                    );
                    let _ = rung.done_tx.send(());
                }
            });
        }

        let shutdown = |pool: &ValidatorPool| {
            let mut st = pool.state.lock().expect("validator pool lock");
            st.shutdown = true;
            st.rung = None;
            drop(st);
            pool.cv.notify_all();
        };

        for c in config.min_cs..=config.max_cs {
            stats.cs_bound = c;
            let truncated = AtomicBool::new(false);
            let (tx, rx) = mpsc::sync_channel::<(usize, Vec<SapId>)>(64);
            let (done_tx, done_rx) = mpsc::sync_channel::<()>(workers);
            let rung = Arc::new(Rung {
                rx: Mutex::new(rx),
                stop: AtomicBool::new(false),
                validated: AtomicU64::new(0),
                good: Mutex::new(Vec::new()),
                stop_after_good: config.stop_after_good,
                done_tx,
            });
            {
                let mut st = pool.state.lock().expect("validator pool lock");
                st.epoch += 1;
                st.rung = Some(Arc::clone(&rung));
                drop(st);
                pool.cv.notify_all();
            }

            // Producer (this thread).
            let stop = &rung.stop;
            let mut generator = Generator::new(program, system, config.max_generated_per_level);
            generator.set_node_budget(config.max_nodes_per_level);
            generator.set_deadline(deadline);
            let mut batch: Vec<SapId> = Vec::with_capacity(BATCH_ORDERS * n);
            let mut batch_count = 0usize;
            let exhausted_sets =
                for_each_csp_set(system, c, config.max_sets_per_level, &mut |set| {
                    if stop.load(Ordering::Relaxed) {
                        return false;
                    }
                    if let Some(deadline) = deadline {
                        if Instant::now() >= deadline {
                            truncated.store(true, Ordering::Relaxed);
                            return false;
                        }
                    }
                    generator.run(set, &mut |order| {
                        if stop.load(Ordering::Relaxed) {
                            return false;
                        }
                        batch.extend_from_slice(order);
                        batch_count += 1;
                        if batch_count < BATCH_ORDERS {
                            return true;
                        }
                        let full =
                            std::mem::replace(&mut batch, Vec::with_capacity(BATCH_ORDERS * n));
                        clap_obs::observe("parallel.batch_occupancy", batch_count as u64);
                        let sent = tx.send((batch_count, full)).is_ok();
                        batch_count = 0;
                        sent
                    })
                });
            if batch_count > 0 {
                clap_obs::observe("parallel.batch_occupancy", batch_count as u64);
                let _ = tx.send((batch_count, std::mem::take(&mut batch)));
            }
            if !exhausted_sets
                || generator.hit_budget()
                || (config.max_generated_per_level > 0
                    && generator.generated() >= config.max_generated_per_level)
            {
                // Either stopped on purpose (fine) or a cap fired.
                if !stop.load(Ordering::Relaxed) {
                    truncated.store(true, Ordering::Relaxed);
                }
            }
            // Close the rung's channel, then wait for every worker's done
            // signal: completion is counted, not inferred from joins.
            drop(tx);
            for _ in 0..workers {
                let _ = done_rx.recv();
            }

            stats.generated += generator.generated();
            stats.validated += rung.validated.load(Ordering::Relaxed);
            if truncated.load(Ordering::Relaxed) {
                stats.truncated = true;
            }
            let found = std::mem::take(&mut *rung.good.lock().expect("good lock"));
            stats.good += found.len() as u64;
            if let Some((schedule, witness)) = found.into_iter().next() {
                let cs = schedule.context_switches(system.trace);
                emit_stats(&stats);
                shutdown(&pool);
                return Some(ParallelOutcome::Found {
                    schedule,
                    witness,
                    cs,
                    stats,
                });
            }
            if stats.truncated {
                break;
            }
        }
        shutdown(&pool);
        None
    });
    if let Some(found) = early {
        return found;
    }
    // A complete search must have started at bound 0, never truncated, and
    // reached a bound covering every preemption point of the trace.
    stats.complete =
        !stats.truncated && config.min_cs == 0 && config.max_cs >= preemption_point_count(system);
    emit_stats(&stats);
    if stats.truncated {
        ParallelOutcome::Budget(stats)
    } else {
        ParallelOutcome::Exhausted(stats)
    }
}

/// Reports the search effort (Table 3 columns) to the metrics stream.
fn emit_stats(stats: &ParallelStats) {
    clap_obs::add("parallel.generated", stats.generated);
    clap_obs::add("parallel.validated", stats.validated);
    clap_obs::add("parallel.good", stats.good);
    clap_obs::add(
        "parallel.rejected",
        stats.validated.saturating_sub(stats.good),
    );
    clap_obs::gauge(
        "parallel.cs_bound",
        i64::try_from(stats.cs_bound).unwrap_or(i64::MAX),
    );
    clap_obs::gauge("parallel.truncated", i64::from(stats.truncated));
    clap_obs::gauge("parallel.complete", i64::from(stats.complete));
}

/// `log10` of the worst-case number of schedules — the interleaving count
/// `(Σ nᵢ)! / Π (nᵢ!)` used for Table 3's "#worst" column.
pub fn worst_case_schedules_log10(system: &ConstraintSystem<'_>) -> f64 {
    fn log10_factorial(n: u64) -> f64 {
        (2..=n).map(|k| (k as f64).log10()).sum()
    }
    let total: u64 = system.trace.per_thread.iter().map(|t| t.len() as u64).sum();
    let mut v = log10_factorial(total);
    for t in &system.trace.per_thread {
        v -= log10_factorial(t.len() as u64);
    }
    v
}
