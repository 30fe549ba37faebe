//! Output checks. A job that returns a schedule must have replayed to
//! the recorded assert, and its schedule must pass the independent
//! validator `clap_constraints::validate` against the constraint system
//! of the same recording.

use clap_constraints::{validate, ConstraintSystem, Schedule};
use clap_core::{Pipeline, RecordedFailure, ReproductionReport};
use clap_ir::AssertId;
use clap_vm::{MemModel, Outcome};

/// What a job handed back, kept until the checks run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Produced {
    pub schedule: Schedule,
    /// The assert the replay fired, if any.
    pub fired: Option<AssertId>,
    pub reproduced: bool,
}

impl From<&ReproductionReport> for Produced {
    fn from(report: &ReproductionReport) -> Produced {
        Produced {
            schedule: report.schedule.clone(),
            fired: match report.replay.outcome {
                Outcome::AssertFailed { assert, .. } => Some(assert),
                _ => None,
            },
            reproduced: report.reproduced,
        }
    }
}

impl Produced {
    /// A digest of the result, to compare results across processes.
    pub fn digest(&self) -> u64 {
        crate::corpus::fnv1a(format!("{self:?}").as_bytes())
    }
}

/// The distinct results each job produced during the run. The pipeline is
/// deterministic, so each job normally has exactly one.
#[derive(Debug)]
pub struct Seen(Vec<Vec<Produced>>);

impl Seen {
    pub fn new(jobs: usize) -> Self {
        Seen(vec![Vec::new(); jobs])
    }

    pub fn add(&mut self, job: usize, produced: Produced) {
        if !self.0[job].contains(&produced) {
            self.0[job].push(produced);
        }
    }

    pub fn is_empty(&self, job: usize) -> bool {
        self.0[job].is_empty()
    }

    /// The digest of the job's result, when it produced exactly one.
    pub fn digest(&self, job: usize) -> Option<u64> {
        match self.0[job].as_slice() {
            [only] => Some(only.digest()),
            _ => None,
        }
    }

    /// Checks every distinct result of `job` against `recorded`, the
    /// recording the pipeline solved. Returns one message per failed check.
    pub fn check(
        &self,
        job: usize,
        pipeline: &Pipeline,
        model: MemModel,
        recorded: &RecordedFailure,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let trace = match pipeline.symbolic_trace(recorded) {
            Ok(trace) => trace,
            Err(e) => return vec![format!("symbolic trace of the recording: {e}")],
        };
        let mut system = ConstraintSystem::build(pipeline.program(), &trace, model);
        if let Some(so) = &recorded.sync_order {
            if let Err(e) = system.apply_sync_order(so) {
                return vec![format!("sync order of the recording: {e}")];
            }
        }
        for p in &self.0[job] {
            if !p.reproduced {
                problems.push("report says not reproduced".to_owned());
            }
            if p.fired != Some(recorded.assert) {
                problems.push(format!(
                    "replay fired {:?}, the recording failed at {:?}",
                    p.fired, recorded.assert
                ));
            }
            if let Err(e) = validate(pipeline.program(), &system, &p.schedule) {
                problems.push(format!("schedule fails validation: {e:?}"));
            }
        }
        problems
    }
}
