//! The symbolic trace: shared access points (SAPs), path conditions and
//! the bug predicate — the inputs to constraint generation (§3).

use crate::expr::{ExprArena, ExprId, SymVarId};
use clap_ir::{AtomicOrd, ChanId, CondId, GlobalId, MutexId, Program};
use clap_vm::Lineage;
use std::fmt;

/// Index of a thread within a [`SymTrace`] (creation order of the recorded
/// run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadIdx(pub u32);

impl ThreadIdx {
    /// Underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies one SAP in the trace. Every SAP gets one order variable `O`
/// in the constraint system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SapId(pub u32);

impl SapId {
    /// Underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A (possibly symbolic) memory location: a global plus an optional
/// element index expression. Scalars have `index == None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymAddr {
    /// The accessed global.
    pub global: GlobalId,
    /// Element index (may be symbolic); `None` for scalars.
    pub index: Option<ExprId>,
}

/// What a SAP does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SapKind {
    /// A shared load; its unknown result is `var`.
    Read {
        /// Location read.
        addr: SymAddr,
        /// The fresh symbolic value it returned.
        var: SymVarId,
    },
    /// A shared store of a (possibly symbolic) value.
    Write {
        /// Location written.
        addr: SymAddr,
        /// Value expression.
        value: ExprId,
    },
    /// Mutex acquisition.
    Lock(MutexId),
    /// Mutex release (also emitted for the release phase of `wait`).
    Unlock(MutexId),
    /// Thread creation; `child` is the new thread.
    Fork {
        /// The created thread.
        child: ThreadIdx,
    },
    /// Join completion on `child`.
    Join {
        /// The joined thread.
        child: ThreadIdx,
    },
    /// Cond-wait completion (mutex reacquired after a signal).
    Wait {
        /// The condition variable.
        cond: CondId,
        /// The reacquired mutex.
        mutex: MutexId,
    },
    /// Signal (wakes at most one wait).
    Signal(CondId),
    /// Broadcast (wakes every parked wait).
    Broadcast(CondId),
    /// Channel send of a (possibly symbolic) value.
    Send {
        /// Destination channel.
        chan: ChanId,
        /// Value expression.
        value: ExprId,
    },
    /// Channel receive; its schedule-dependent result is `var`.
    Recv {
        /// Source channel.
        chan: ChanId,
        /// The fresh symbolic value it returned (`-1` when the channel was
        /// closed and drained).
        var: SymVarId,
    },
    /// Non-blocking channel send; its schedule-dependent 0/1 result is
    /// `var`.
    TrySend {
        /// Destination channel.
        chan: ChanId,
        /// Value expression.
        value: ExprId,
        /// The fresh symbolic success flag.
        var: SymVarId,
    },
    /// Non-blocking channel receive; its schedule-dependent result is
    /// `var` (`-1` when nothing was available).
    TryRecv {
        /// Source channel.
        chan: ChanId,
        /// The fresh symbolic value it returned.
        var: SymVarId,
    },
    /// Channel close.
    ChanClose(ChanId),
    /// Actor spawn; `child` is the new thread.
    SpawnActor {
        /// The created actor thread.
        child: ThreadIdx,
    },
    /// Mailbox append to another thread (concrete target).
    MailboxSend {
        /// The receiving thread.
        target: ThreadIdx,
        /// Value expression.
        value: ExprId,
    },
    /// Mailbox dequeue; its schedule-dependent result is `var`.
    MailboxRecv {
        /// The fresh symbolic value it returned.
        var: SymVarId,
    },
    /// Atomic load; its schedule-dependent result is `var`.
    AtomicLoad {
        /// The atomic location (always a scalar global).
        global: GlobalId,
        /// Memory ordering annotation.
        ord: AtomicOrd,
        /// The fresh symbolic value it returned.
        var: SymVarId,
    },
    /// Atomic store of a (possibly symbolic) value.
    AtomicStore {
        /// The atomic location.
        global: GlobalId,
        /// Memory ordering annotation.
        ord: AtomicOrd,
        /// Value expression.
        value: ExprId,
    },
    /// Atomic fetch-add: reads `var` (the schedule-dependent old value)
    /// and writes `value` (`var + delta`) in one indivisible step.
    AtomicRmw {
        /// The atomic location.
        global: GlobalId,
        /// Memory ordering annotation.
        ord: AtomicOrd,
        /// The fresh symbolic old value it returned.
        var: SymVarId,
        /// The written value expression (`var + delta`).
        value: ExprId,
    },
    /// Atomic compare-and-swap: reads `var` and writes `value`
    /// (`ite(var == expected, desired, var)` — a failed CAS rewrites the
    /// old value, which keeps every CAS a write in the modification
    /// order without a separate success variable).
    AtomicCas {
        /// The atomic location.
        global: GlobalId,
        /// Memory ordering annotation.
        ord: AtomicOrd,
        /// The fresh symbolic old value it returned.
        var: SymVarId,
        /// The compared expression.
        expected: ExprId,
        /// The written value expression.
        value: ExprId,
    },
}

impl SapKind {
    /// `true` for reads/writes (memory SAPs), atomics included.
    pub fn is_memory(&self) -> bool {
        matches!(self, SapKind::Read { .. } | SapKind::Write { .. }) || self.is_atomic()
    }

    /// `true` for C11 atomic operations.
    pub fn is_atomic(&self) -> bool {
        matches!(
            self,
            SapKind::AtomicLoad { .. }
                | SapKind::AtomicStore { .. }
                | SapKind::AtomicRmw { .. }
                | SapKind::AtomicCas { .. }
        )
    }

    /// `true` for synchronization SAPs.
    pub fn is_sync(&self) -> bool {
        !self.is_memory()
    }
}

/// One shared access point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sap {
    /// Executing thread.
    pub thread: ThreadIdx,
    /// Program-order index among the thread's SAPs (matches the VM's
    /// `next_sap_index` numbering exactly).
    pub po: u64,
    /// What the SAP does.
    pub kind: SapKind,
}

/// Where a fresh symbolic variable came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymVarOrigin {
    /// The read SAP that produced it.
    pub read: SapId,
}

/// A per-thread path condition: `expr` must be truthy for the thread to
/// follow its recorded path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathCond {
    /// The constrained thread.
    pub thread: ThreadIdx,
    /// Boolean-valued expression that must hold.
    pub expr: ExprId,
}

/// Everything the offline phase extracts from the recorded paths.
#[derive(Debug, Clone)]
pub struct SymTrace {
    /// Expression store.
    pub arena: ExprArena,
    /// All SAPs; [`SapId`] indexes into this.
    pub saps: Vec<Sap>,
    /// SAP ids per thread, in program order.
    pub per_thread: Vec<Vec<SapId>>,
    /// Thread lineages, indexed by [`ThreadIdx`].
    pub lineages: Vec<Lineage>,
    /// Path conditions (`F_path`), including passing asserts.
    pub path_conds: Vec<PathCond>,
    /// The bug predicate (`F_bug`): truthy iff the failure manifests.
    pub bug: ExprId,
    /// Origins of symbolic variables, indexed by [`SymVarId`].
    pub sym_vars: Vec<SymVarOrigin>,
}

impl SymTrace {
    /// The SAP behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn sap(&self, id: SapId) -> &Sap {
        &self.saps[id.index()]
    }

    /// Number of SAPs (the `#SAPs` column of Table 1).
    pub fn sap_count(&self) -> usize {
        self.saps.len()
    }

    /// Number of threads in the trace.
    pub fn thread_count(&self) -> usize {
        self.per_thread.len()
    }

    /// Whether the constraint encoding covers every operation of the
    /// trace. It does not for channel/mailbox operations (try_* result
    /// variables are grounded by the validator, FIFO/capacity legality is
    /// re-checked rather than encoded) nor for C11 atomics (store-to-load
    /// forwarding is pinned, release sequences are approximated). Only a
    /// complete search over a completely encoded trace may certify
    /// unsatisfiability; otherwise an exhausted search certifies nothing.
    pub fn encoding_complete(&self) -> bool {
        !self.saps.iter().any(|s| {
            s.kind.is_atomic()
                || matches!(
                    s.kind,
                    SapKind::Send { .. }
                        | SapKind::Recv { .. }
                        | SapKind::TrySend { .. }
                        | SapKind::TryRecv { .. }
                        | SapKind::ChanClose(_)
                        | SapKind::MailboxSend { .. }
                        | SapKind::MailboxRecv { .. }
                )
        })
    }

    /// The initial value of a global cell (what a read with no earlier
    /// write observes).
    pub fn init_value(program: &Program, global: GlobalId) -> i64 {
        let decl = &program.globals[global.index()];
        if decl.len.is_some() {
            0
        } else {
            decl.init
        }
    }

    /// Renders a SAP for diagnostics and the Figure 3 dump.
    pub fn display_sap(&self, program: &Program, id: SapId) -> String {
        let sap = self.sap(id);
        let name = |g: GlobalId| program.globals[g.index()].name.clone();
        let loc = |addr: &SymAddr| match addr.index {
            None => name(addr.global),
            Some(i) => format!("{}[{}]", name(addr.global), self.arena.display(i)),
        };
        let body = match &sap.kind {
            SapKind::Read { addr, var } => format!("{var} = read {}", loc(addr)),
            SapKind::Write { addr, value } => {
                format!("write {} = {}", loc(addr), self.arena.display(*value))
            }
            SapKind::Lock(m) => format!("lock {}", program.mutexes[m.index()]),
            SapKind::Unlock(m) => format!("unlock {}", program.mutexes[m.index()]),
            SapKind::Fork { child } => format!("fork {child}"),
            SapKind::Join { child } => format!("join {child}"),
            SapKind::Wait { cond, .. } => format!("wait {}", program.conds[cond.index()]),
            SapKind::Signal(c) => format!("signal {}", program.conds[c.index()]),
            SapKind::Broadcast(c) => format!("broadcast {}", program.conds[c.index()]),
            SapKind::Send { chan, value } => format!(
                "send {} {}",
                program.chans[chan.index()].name,
                self.arena.display(*value)
            ),
            SapKind::Recv { chan, var } => {
                format!("{var} = recv {}", program.chans[chan.index()].name)
            }
            SapKind::TrySend { chan, value, var } => format!(
                "{var} = try_send {} {}",
                program.chans[chan.index()].name,
                self.arena.display(*value)
            ),
            SapKind::TryRecv { chan, var } => {
                format!("{var} = try_recv {}", program.chans[chan.index()].name)
            }
            SapKind::ChanClose(c) => format!("close {}", program.chans[c.index()].name),
            SapKind::SpawnActor { child } => format!("spawn_actor {child}"),
            SapKind::MailboxSend { target, value } => {
                format!("mailbox_send {target} {}", self.arena.display(*value))
            }
            SapKind::MailboxRecv { var } => format!("{var} = mailbox_recv"),
            SapKind::AtomicLoad { global, ord, var } => {
                format!("{var} = load.{ord} {}", name(*global))
            }
            SapKind::AtomicStore { global, ord, value } => format!(
                "store.{ord} {} = {}",
                name(*global),
                self.arena.display(*value)
            ),
            SapKind::AtomicRmw {
                global,
                ord,
                var,
                value,
            } => format!(
                "{var} = rmw.{ord} {} -> {}",
                name(*global),
                self.arena.display(*value)
            ),
            SapKind::AtomicCas {
                global,
                ord,
                var,
                expected,
                value,
            } => format!(
                "{var} = cas.{ord} {} ?{} -> {}",
                name(*global),
                self.arena.display(*expected),
                self.arena.display(*value)
            ),
        };
        format!("{id}[{} #{}] {body}", sap.thread, sap.po, body = body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sap_kind_classification() {
        let addr = SymAddr {
            global: GlobalId(0),
            index: None,
        };
        assert!(SapKind::Read {
            addr,
            var: SymVarId(0)
        }
        .is_memory());
        assert!(SapKind::Lock(MutexId(0)).is_sync());
        assert!(!SapKind::Write {
            addr,
            value: ExprId(0)
        }
        .is_sync());
    }

    #[test]
    fn init_values() {
        let p = clap_ir::parse("global int x = 9; global int a[3]; fn main() {}").unwrap();
        assert_eq!(SymTrace::init_value(&p, p.global_by_name("x").unwrap()), 9);
        assert_eq!(SymTrace::init_value(&p, p.global_by_name("a").unwrap()), 0);
    }
}
