//! What one run measured, and how it becomes the result line.

use crate::corpus::{median, quantile, ratio};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("cold_s", "s"),
    ("cold_ms.p50", "ms"),
    ("verified_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). Every traced
/// run measures all of them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.us", "us"),
    ("record.ms", "ms"),
    ("record.seeds", "count"),
    ("record.seeds_per_s", "1/s"),
    ("record.hit_ratio", "ratio"),
    ("vm.steps", "count"),
    ("vm.ns_per_step", "ns"),
    ("profile.recorder_overhead_pct", "%"),
    ("profile.log_bytes", "B"),
    ("decode.us", "us"),
    ("symex.us", "us"),
    ("symex.saps", "count"),
    ("symex.expr_nodes", "count"),
    ("constrain.us", "us"),
    ("constrain.clauses", "count"),
    ("constrain.vars", "count"),
    ("solve_seq.ms", "ms"),
    ("solver.decisions", "count"),
    ("solver.conflicts", "count"),
    ("solver.order_graph.queries", "count"),
    ("solver.order_graph.visits", "count"),
    ("solver.visits_per_query", "ratio"),
    ("parallel.generated", "count"),
    ("parallel.validated", "count"),
    ("parallel.good_ratio", "ratio"),
    ("portfolio.ms", "ms"),
    ("portfolio.attempts", "count"),
    ("portfolio.wasted_ms", "ms"),
    ("portfolio.seq_win_pct", "%"),
    ("replay.us", "us"),
    ("replay.steps", "count"),
    ("serve.cold_s", "s"),
    ("serve.cold_ms.p50", "ms"),
    ("serve.warm_ms.p50", "ms"),
    ("serve.warm_ms.p99", "ms"),
    ("serve.submit_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_wait_us", "us"),
    ("serve.cache_hit_pct", "%"),
    ("serve.shed", "count"),
    ("trace.overhead_pct", "%"),
];

/// One pass over the jobs: its wall time and each job's latency.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub job_ms: Vec<f64>,
}

/// Work counts of one job. The fields [`Counts::render`] prints are its
/// work fingerprint, which two runs of the same code must repeat exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub seeds: u64,
    pub failures: u64,
    pub saps: u64,
    pub expr_nodes: u64,
    pub clauses: u64,
    pub vars: u64,
    pub decisions: u64,
    pub conflicts: u64,
    pub queries: u64,
    pub visits: u64,
    pub generated: u64,
    pub validated: u64,
    pub good: u64,
    pub replay_steps: u64,
    pub log_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.seeds += o.seeds;
        self.failures += o.failures;
        self.saps += o.saps;
        self.expr_nodes += o.expr_nodes;
        self.clauses += o.clauses;
        self.vars += o.vars;
        self.decisions += o.decisions;
        self.conflicts += o.conflicts;
        self.queries += o.queries;
        self.visits += o.visits;
        self.generated += o.generated;
        self.validated += o.validated;
        self.good += o.good;
        self.replay_steps += o.replay_steps;
        self.log_bytes += o.log_bytes;
    }

    /// Reads the program's own `clap_obs` counters (deltas since the
    /// collector was last reset).
    pub fn from_obs(counters: &BTreeMap<String, u64>) -> Counts {
        let c = |k: &str| counters.get(k).copied().unwrap_or(0);
        Counts {
            seeds: c("explore.seeds"),
            failures: c("explore.failures"),
            saps: c("symex.saps"),
            expr_nodes: c("symex.expr_nodes"),
            decisions: c("solver.decisions"),
            conflicts: c("solver.conflicts"),
            queries: c("solver.order_graph.queries"),
            visits: c("solver.order_graph.visits"),
            generated: c("parallel.generated"),
            validated: c("parallel.validated"),
            good: c("parallel.good"),
            replay_steps: c("replay.steps"),
            log_bytes: c("decode.bytes"),
            ..Counts::default()
        }
    }

    /// The fingerprint line: every count that two runs of the same code
    /// must repeat exactly. `generated`, `validated` and `good` are left
    /// out: the parallel engine's generator and validators race its stop
    /// signal, so those counts vary with thread timing.
    pub fn render(&self) -> String {
        format!(
            "seeds={} failures={} saps={} expr_nodes={} clauses={} vars={} decisions={} \
             conflicts={} og_queries={} og_visits={} replay_steps={} log_bytes={}",
            self.seeds,
            self.failures,
            self.saps,
            self.expr_nodes,
            self.clauses,
            self.vars,
            self.decisions,
            self.conflicts,
            self.queries,
            self.visits,
            self.replay_steps,
            self.log_bytes
        )
    }

    /// Fills the count-valued layer metrics.
    pub fn into_layers(self, layers: &mut Layers) {
        layers.set("record.seeds", self.seeds as f64);
        layers.set(
            "record.hit_ratio",
            ratio(self.failures as f64, self.seeds as f64),
        );
        layers.set("profile.log_bytes", self.log_bytes as f64);
        layers.set("symex.saps", self.saps as f64);
        layers.set("symex.expr_nodes", self.expr_nodes as f64);
        layers.set("constrain.clauses", self.clauses as f64);
        layers.set("constrain.vars", self.vars as f64);
        layers.set("solver.decisions", self.decisions as f64);
        layers.set("solver.conflicts", self.conflicts as f64);
        layers.set("solver.order_graph.queries", self.queries as f64);
        layers.set("solver.order_graph.visits", self.visits as f64);
        layers.set(
            "solver.visits_per_query",
            ratio(self.visits as f64, self.queries as f64),
        );
        layers.set("parallel.generated", self.generated as f64);
        layers.set("parallel.validated", self.validated as f64);
        layers.set(
            "parallel.good_ratio",
            ratio(self.good as f64, self.validated as f64),
        );
        layers.set("replay.steps", self.replay_steps as f64);
    }
}

/// Per-layer values by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Peak resident set of each segment process of an untraced run.
    pub peak_rss_mb: Vec<f64>,
    /// Cold passes: the first pass of a fresh process.
    pub cold_passes: Vec<Pass>,
    /// Untraced warm passes: every later pass.
    pub passes: Vec<Pass>,
    /// Passes made with tracing on (traced runs only).
    pub traced_passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Per-layer values (traced runs only).
    pub layers: Layers,
    /// Work fingerprint per job name (traced runs only).
    pub fingerprint: BTreeMap<String, Counts>,
}

impl Run {
    pub fn fail_job(&mut self, what: &str, error: &str) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: job {what} did not reproduce: {error}");
        }
    }

    pub fn problem(&mut self, message: String) {
        eprintln!("perfbench: output check failed: {message}");
        self.problems.push(message);
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. A job-latency
    /// quantile is taken within each pass and its median over the passes
    /// reported: pooled over passes, the 90th percentile of 19 jobs would
    /// sit on the fastest tail of one job and jump with it. The cold
    /// passes are few, and the entries at the middle ranks of a pass trade
    /// places, so a pass's median job falls in one of two clusters; over
    /// the cold passes their mean is reported, which moves smoothly with
    /// the share of each cluster where a median would jump between them.
    pub fn end_to_end(&self) -> Vec<f64> {
        let walls = |passes: &[Pass]| passes.iter().map(|p| p.wall_s).collect::<Vec<_>>();
        let per_pass = |passes: &[Pass], q: f64| {
            passes
                .iter()
                .map(|p| quantile(&p.job_ms, q))
                .collect::<Vec<_>>()
        };
        let cold_p50 = per_pass(&self.cold_passes, 0.5);
        vec![
            median(&walls(&self.passes)),
            median(&per_pass(&self.passes, 0.5)),
            median(&per_pass(&self.passes, 0.9)),
            median(&walls(&self.cold_passes)),
            ratio(cold_p50.iter().sum(), cold_p50.len() as f64),
            100.0 * ratio((self.attempted - self.failed) as f64, self.attempted as f64),
            median(&self.setup_s),
            median(&self.peak_rss_mb),
        ]
    }

    /// One summary line: sample counts behind every quantile.
    pub fn samples_line(&self) -> String {
        let jobs = |passes: &[Pass]| passes.iter().map(|p| p.job_ms.len()).sum::<usize>();
        let (cold, warm) = (jobs(&self.cold_passes), jobs(&self.passes));
        format!(
            "cold_passes={} cold_jobs={cold} warm_passes={} warm_jobs={warm} all_jobs={} \
             traced_passes={} setups={}",
            self.cold_passes.len(),
            self.passes.len(),
            cold + warm,
            self.traced_passes.len(),
            self.setup_s.len()
        )
    }

    /// Tracing overhead: median traced pass against median untraced warm
    /// pass.
    pub fn set_trace_overhead(&mut self) {
        let traced: Vec<f64> = self.traced_passes.iter().map(|p| p.wall_s).collect();
        let plain: Vec<f64> = self.passes.iter().map(|p| p.wall_s).collect();
        let base = median(&plain);
        let pct = 100.0 * ratio(median(&traced) - base, base);
        self.layers.set("trace.overhead_pct", pct);
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the requested kind.
    pub fn result_json(&self, traced: bool) -> String {
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            if !metrics.is_empty() {
                metrics.push(',');
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        };
        if traced {
            for (name, unit) in PER_LAYER {
                push(name, self.layers.0.get(name).copied().unwrap_or(0.0), unit);
            }
        } else {
            for ((name, unit), value) in END_TO_END.iter().zip(self.end_to_end()) {
                push(name, value, unit);
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
