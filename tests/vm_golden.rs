//! Golden VM semantics: what the interpreter observably does, frozen as
//! data in `tests/vm_golden.snap`.
//!
//! Every program in `examples/` and `tests/corpus/`, plus 200 programs
//! from each `clap-check` generator (shared-memory, channel, atomic),
//! runs under SC, TSO, PSO and C11 for five scheduler seeds. Each
//! (program, model) pair is one snapshot line of FNV-1a digests over
//! those runs' outcomes, scheduler-visible action schedules, monitor
//! event streams (every `Monitor` callback, in order), visible-event
//! fingerprints, execution statistics and final global memory. The
//! examples, the corpus and the first 40 generated programs of each
//! kind additionally go through bounded `clap-check` oracle enumeration,
//! whose report summary is digested into the same line.
//!
//! The snapshot was blessed while the original tree-walk interpreter
//! ran beside the bytecode VM and both had to agree, so it is that
//! reference implementation's behaviour kept as data. A divergence here
//! means a VM change altered semantics, not just speed.
//!
//! Regenerate after an *intended* semantic change with:
//!
//! ```text
//! CLAP_BLESS=1 cargo test --test vm_golden
//! ```

use clap_check::{enumerate, AtomicSpec, ChanSpec, FingerprintMonitor, OracleConfig, ProgramSpec};
use clap_ir::{GlobalId, Program};
use clap_vm::{
    AccessEvent, Action, FnScheduler, Lineage, MemModel, Monitor, RandomScheduler, Scheduler,
    SyncEvent, ThreadId, Vm,
};
use std::collections::BTreeMap;
use std::fs;
use std::sync::{Mutex, PoisonError};

const MODELS: &[MemModel] = &[MemModel::Sc, MemModel::Tso, MemModel::Pso, MemModel::C11];

/// Seeds run per (program, model) pair. Random-scheduler seeds double as
/// stickiness sweeps via `RandomScheduler::with_stickiness`.
const RUN_SEEDS: u64 = 5;

/// Programs taken from each property generator.
const GENERATED_PROGRAMS: u64 = 200;

/// Generated programs that additionally go through oracle enumeration
/// (enumeration is ~100× the cost of a seeded run, so the full 200 would
/// dominate the suite's runtime).
const GENERATED_ORACLE_PROGRAMS: u64 = 40;

/// Oracle cap: big enough that the small generated programs complete
/// within the preemption bound, small enough to keep the suite quick.
const ORACLE_EXECUTIONS: u64 = 4_000;

const SNAPSHOT: &str = "tests/vm_golden.snap";

/// Per-run digest fields, in snapshot line order.
const RUN_FIELDS: [&str; 6] = [
    "outcome",
    "schedule",
    "events",
    "fingerprint",
    "stats",
    "globals",
];

/// The oracle-summary digest field, last on lines that have one.
const ORACLE_FIELD: &str = "oracle";

/// FNV-1a, 64-bit: deterministic across platforms and runs.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds one rendered value plus a terminator byte that never occurs
    /// in UTF-8, so adjacent values cannot run together.
    fn field(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One program under test.
struct Input {
    name: String,
    source: String,
    oracle: bool,
}

fn disk_programs(dir: &str) -> Vec<Input> {
    let mut programs: Vec<Input> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let p = e.path();
            (p.extension()? == "clap").then(|| Input {
                name: format!("{dir}/{}", p.file_name().unwrap().to_string_lossy()),
                source: fs::read_to_string(&p).expect("readable corpus file"),
                oracle: true,
            })
        })
        .collect();
    programs.sort_by(|a, b| a.name.cmp(&b.name));
    assert!(!programs.is_empty(), "{dir} has no .clap programs");
    programs
}

fn generated(prefix: &str, count: u64, source: fn(u64) -> String) -> Vec<Input> {
    (0..count)
        .map(|seed| Input {
            name: format!("{prefix}#{seed}"),
            source: source(seed),
            oracle: seed < GENERATED_ORACLE_PROGRAMS,
        })
        .collect()
}

fn shared_memory_programs(count: u64) -> Vec<Input> {
    generated("gen", count, |seed| ProgramSpec::from_seed(seed).source())
}

fn channel_programs(count: u64) -> Vec<Input> {
    generated("chan", count, |seed| ChanSpec::from_seed(seed).source())
}

fn atomic_programs(count: u64) -> Vec<Input> {
    generated("atomic", count, |seed| AtomicSpec::from_seed(seed).source())
}

/// Every input in snapshot order.
fn all_inputs() -> Vec<Input> {
    let mut all = disk_programs("examples");
    all.extend(disk_programs("tests/corpus"));
    all.extend(shared_memory_programs(GENERATED_PROGRAMS));
    all.extend(channel_programs(GENERATED_PROGRAMS));
    all.extend(atomic_programs(GENERATED_PROGRAMS));
    all
}

fn line_key(name: &str, model: MemModel) -> String {
    format!("{name} {model:?}")
}

/// Every monitor callback, rendered to a string in arrival order. The
/// formatting keeps full payloads (values, addresses, lineages) so a
/// change that reorders commits or drops an edge cannot slip through.
#[derive(Default)]
struct EventLog {
    events: Vec<String>,
    fingerprints: FingerprintMonitor,
}

impl Monitor for EventLog {
    fn on_thread_start(&mut self, thread: ThreadId, lineage: &Lineage, func: clap_ir::FuncId) {
        self.events
            .push(format!("start {thread} {lineage:?} {func}"));
        self.fingerprints.on_thread_start(thread, lineage, func);
    }

    fn on_thread_exit(&mut self, thread: ThreadId) {
        self.events.push(format!("exit {thread}"));
    }

    fn on_func_enter(&mut self, thread: ThreadId, func: clap_ir::FuncId) {
        self.events.push(format!("enter {thread} {func}"));
    }

    fn on_func_exit(&mut self, thread: ThreadId, func: clap_ir::FuncId) {
        self.events.push(format!("leave {thread} {func}"));
    }

    fn on_edge(
        &mut self,
        thread: ThreadId,
        func: clap_ir::FuncId,
        from: clap_ir::BlockId,
        to: clap_ir::BlockId,
    ) {
        self.events
            .push(format!("edge {thread} {func} {from}->{to}"));
    }

    fn on_access(&mut self, thread: ThreadId, event: &AccessEvent) {
        self.events.push(format!("access {thread} {event:?}"));
        self.fingerprints.on_access(thread, event);
    }

    fn on_commit(&mut self, thread: ThreadId, addr: clap_vm::Addr, value: i64) {
        self.events
            .push(format!("commit {thread} {addr:?} {value}"));
        self.fingerprints.on_commit(thread, addr, value);
    }

    fn on_sync(&mut self, thread: ThreadId, event: &SyncEvent) {
        self.events.push(format!("sync {thread} {event:?}"));
        self.fingerprints.on_sync(thread, event);
    }

    fn on_assert(&mut self, thread: ThreadId, id: clap_ir::AssertId, passed: bool) {
        self.events.push(format!("assert {thread} {id} {passed}"));
    }
}

/// Everything observable about one seeded run, rendered per digest
/// field in [`RUN_FIELDS`] order.
fn observe(vm: &mut Vm<'_>, program: &Program, seed: u64) -> [String; 6] {
    vm.reset();
    let mut inner = RandomScheduler::with_stickiness(seed, 0.1 + 0.2 * (seed % 4) as f64);
    let mut schedule = Vec::new();
    let mut monitor = EventLog::default();
    let outcome = {
        let mut sched = FnScheduler(|vm: &Vm<'_>, actions: &[Action]| {
            let i = inner.pick(vm, actions);
            schedule.push(actions[i]);
            i
        });
        vm.run(&mut sched, &mut monitor)
    };
    let assert = match outcome {
        clap_vm::Outcome::AssertFailed { assert, .. } => Some(assert),
        _ => None,
    };
    let globals: Vec<i64> = (0..program.globals.len())
        .flat_map(|g| {
            let global = GlobalId(g as u32);
            (0..program.globals[g].cells()).map(move |off| (global, off))
        })
        .map(|(global, off)| vm.read_global(global, off))
        .collect();
    [
        format!("{outcome:?}"),
        format!("{schedule:?}"),
        monitor.events.join("\n"),
        format!("{:?}", monitor.fingerprints.fingerprint(assert)),
        format!("{:?}", vm.stats()),
        format!("{globals:?}"),
    ]
}

/// One digest destined for the snapshot: (line key, field, hex digest).
type Digest = (String, &'static str, String);

fn run_digests(input: &Input, out: &mut Vec<Digest>) {
    let name = &input.name;
    let program = clap_ir::parse(&input.source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let shared = clap_analysis::analyze(&program).shared_spec();
    for &model in MODELS {
        let mut vm = Vm::with_shared(&program, model, shared.clone());
        vm.set_step_limit(200_000);
        let mut digests = [Fnv::new(); 6];
        for seed in 0..RUN_SEEDS {
            for (digest, text) in digests.iter_mut().zip(observe(&mut vm, &program, seed)) {
                digest.field(&text);
            }
        }
        let key = line_key(name, model);
        for (field, digest) in RUN_FIELDS.into_iter().zip(digests) {
            out.push((key.clone(), field, digest.hex()));
        }
    }
}

/// Renders the parts of an [`clap_check::OracleReport`] that identify
/// the search tree.
fn oracle_summary(program: &Program, model: MemModel) -> String {
    let config = OracleConfig::new(model).with_max_executions(ORACLE_EXECUTIONS);
    let report = enumerate(program, &config);
    let mut out = format!(
        "executions={} completed={} deadlocks={} faults={} prunes={} truncated={}\n",
        report.executions,
        report.completed,
        report.deadlocks,
        report.faults,
        report.bound_prunes,
        report.truncated,
    );
    for failing in &report.failing {
        out.push_str(&format!(
            "fail assert={} preemptions={} letters={} choices={:?} fp={:?}\n",
            failing.assert,
            failing.preemptions,
            failing.letters,
            failing.choices,
            failing.fingerprint,
        ));
    }
    out
}

fn oracle_digests(input: &Input, out: &mut Vec<Digest>) {
    let name = &input.name;
    let program = clap_ir::parse(&input.source).unwrap_or_else(|e| panic!("{name}: {e}"));
    for &model in MODELS {
        let summary = oracle_summary(&program, model);
        let mut digest = Fnv::new();
        digest.field(&summary);
        out.push((line_key(name, model), ORACLE_FIELD, digest.hex()));
    }
}

/// Snapshot contents: line key → field → digest.
type Snapshot = BTreeMap<String, BTreeMap<String, String>>;

fn parse_snapshot(text: &str) -> Snapshot {
    text.lines()
        .map(|line| {
            let mut tokens = line.split(' ');
            let name = tokens.next().unwrap_or_default();
            let model = tokens.next().unwrap_or_default();
            let fields = tokens
                .map(|t| {
                    let (field, digest) = t
                        .split_once('=')
                        .unwrap_or_else(|| panic!("{SNAPSHOT}: malformed field {t:?}"));
                    (field.to_string(), digest.to_string())
                })
                .collect();
            (format!("{name} {model}"), fields)
        })
        .collect()
}

fn read_snapshot() -> Option<Snapshot> {
    fs::read_to_string(SNAPSHOT)
        .ok()
        .map(|text| parse_snapshot(&text))
}

/// Writes the lines of `snapshot` for current inputs in input order,
/// fields in [`RUN_FIELDS`] order then the oracle digest.
fn write_snapshot(snapshot: &Snapshot) {
    let mut text = String::new();
    for input in all_inputs() {
        for &model in MODELS {
            let key = line_key(&input.name, model);
            let Some(fields) = snapshot.get(&key) else {
                continue;
            };
            text.push_str(&key);
            for field in RUN_FIELDS.into_iter().chain([ORACLE_FIELD]) {
                if let Some(digest) = fields.get(field) {
                    text.push_str(&format!(" {field}={digest}"));
                }
            }
            text.push('\n');
        }
    }
    fs::write(SNAPSHOT, text).expect("write snapshot");
}

fn bless() -> bool {
    std::env::var_os("CLAP_BLESS").is_some()
}

/// Serialises the read-modify-write of blessing: each test owns some
/// fields of the shared snapshot file and the tests run concurrently.
static BLESS_LOCK: Mutex<()> = Mutex::new(());

/// Compares `computed` against the snapshot (or, under `CLAP_BLESS`,
/// merges it in), listing every divergent digest by program, model and
/// field.
fn check_golden(computed: Vec<Digest>) {
    if bless() {
        let _guard = BLESS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snapshot = read_snapshot().unwrap_or_default();
        for (key, field, digest) in computed {
            snapshot
                .entry(key)
                .or_default()
                .insert(field.to_string(), digest);
        }
        write_snapshot(&snapshot);
        return;
    }
    let snapshot = read_snapshot().unwrap_or_else(|| {
        panic!("{SNAPSHOT} missing — run CLAP_BLESS=1 cargo test --test vm_golden")
    });
    let diverged: Vec<String> = computed
        .iter()
        .filter_map(|(key, field, digest)| {
            let golden = snapshot.get(key).and_then(|fields| fields.get(*field));
            (golden != Some(digest)).then(|| {
                let golden = golden.map_or("missing", String::as_str);
                format!("{key}: {field} {golden} -> {digest}")
            })
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "{} digest(s) diverged from {SNAPSHOT}; if the semantic change is \
         intended, regenerate with CLAP_BLESS=1 cargo test --test vm_golden\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

fn check_runs(inputs: &[Input]) {
    let mut computed = Vec::new();
    for input in inputs {
        run_digests(input, &mut computed);
    }
    check_golden(computed);
}

fn check_oracle(inputs: &[Input]) {
    let mut computed = Vec::new();
    for input in inputs.iter().filter(|i| i.oracle) {
        oracle_digests(input, &mut computed);
    }
    check_golden(computed);
}

/// The snapshot holds exactly one line per current (program, model)
/// pair, each with every run field and an oracle field exactly when
/// that program is enumerated — no stale lines for deleted programs, no
/// input without a golden.
#[test]
fn golden_snapshot_covers_exactly_the_inputs() {
    if bless() {
        return;
    }
    let snapshot = read_snapshot().unwrap_or_else(|| panic!("{SNAPSHOT} missing"));
    let mut expected = Snapshot::new();
    for input in all_inputs() {
        for &model in MODELS {
            let fields = RUN_FIELDS
                .into_iter()
                .chain(input.oracle.then_some(ORACLE_FIELD))
                .map(|f| (f.to_string(), String::new()))
                .collect();
            expected.insert(line_key(&input.name, model), fields);
        }
    }
    let shape = |s: &Snapshot| -> Vec<(String, Vec<String>)> {
        s.iter()
            .map(|(key, fields)| (key.clone(), fields.keys().cloned().collect()))
            .collect()
    };
    assert_eq!(shape(&snapshot), shape(&expected));
}

#[test]
fn examples_match_golden() {
    let inputs = disk_programs("examples");
    check_runs(&inputs);
    check_oracle(&inputs);
}

#[test]
fn corpus_matches_golden() {
    check_runs(&disk_programs("tests/corpus"));
}

#[test]
fn corpus_oracle_reports_match_golden() {
    check_oracle(&disk_programs("tests/corpus"));
}

#[test]
fn generated_programs_match_golden() {
    check_runs(&shared_memory_programs(GENERATED_PROGRAMS));
}

#[test]
fn generated_oracle_reports_match_golden() {
    check_oracle(&shared_memory_programs(GENERATED_ORACLE_PROGRAMS));
}

/// Channel/actor programs exercise a disjoint VM surface — bounded
/// queues, rendezvous blocking, close semantics, actor mailboxes — so
/// they get their own sweep at the same size as the shared-memory
/// generator.
#[test]
fn generated_channel_programs_match_golden() {
    check_runs(&channel_programs(GENERATED_PROGRAMS));
}

#[test]
fn generated_channel_oracle_reports_match_golden() {
    check_oracle(&channel_programs(GENERATED_ORACLE_PROGRAMS));
}

/// Atomic programs exercise the fourth memory-model axis: ordering-
/// annotated loads/stores/RMWs/CASes, the C11 per-location store
/// buffers, and their drain actions, which show up in the recorded
/// action schedules.
#[test]
fn generated_atomic_programs_match_golden() {
    check_runs(&atomic_programs(GENERATED_PROGRAMS));
}

#[test]
fn generated_atomic_oracle_reports_match_golden() {
    check_oracle(&atomic_programs(GENERATED_ORACLE_PROGRAMS));
}
