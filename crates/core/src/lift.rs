//! Lifting configuration, lift results and reject verdicts, plus the
//! helpers the engine uses to assemble results and isolate panics.
//!
//! The entry point is the [`Lifter`](crate::engine::Lifter) session
//! builder in [`engine`](crate::engine): `Lifter::new(&binary)
//! .lift_all()` lifts every discovered function, `.lift_entry(addr)`
//! lifts the closure of one entry, and `Lifter::from_bytes` is the
//! hardened front door for untrusted images. Both lifts run the same
//! engine.
//!
//! Internal calls are handled compositionally: every function is
//! explored exactly once from a fresh context-free state (§4.2.2), and
//! return sites become reachable only when their callee provably
//! returns.

use crate::budget::{Budget, BudgetDim};
use crate::diag::{Annotation, ProofObligation, VerificationError};
use crate::explore::{ExploreLimits, FnExploration};
use crate::graph::HoareGraph;
use hgl_elf::Binary;
use hgl_solver::Assumption;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Lifting configuration. Every field is public and set by plain
/// assignment:
///
/// ```
/// use hgl_core::lift::LiftConfig;
/// use std::time::Duration;
///
/// let mut cfg = LiftConfig::default();
/// cfg.budget.wall_clock = Some(Duration::from_secs(30));
/// cfg.limits.max_states = 4000;
/// assert_eq!(cfg.budget.max_fuel, None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LiftConfig {
    /// Resource budget: the paper's single wall clock per unit, plus a
    /// per-function step fuel.
    pub budget: Budget,
    /// Externally resolved indirect-branch targets, keyed by the
    /// address of the (otherwise unresolvable) indirect jump. Fed back
    /// by the analyze→re-lift refinement loop (`Lifter::
    /// lift_entry_refined`); consulted only after the lifter's own
    /// table enumeration fails, and every hinted target is still
    /// required to land in executable code. Part of the configuration
    /// fingerprint, so cached artifacts and solver scopes stay sound.
    pub indirect_hints: BTreeMap<u64, BTreeSet<u64>>,
    /// Exploration limits.
    pub limits: ExploreLimits,
}

/// Why a unit (binary or function) was not lifted.
///
/// The variants split into *sound rejects* — the analysis proved it
/// cannot overapproximate this unit ([`Verification`], [`Concurrency`],
/// [`DecodeError`], [`MalformedBinary`], [`CalleeRejected`]) — and
/// *resource rejects* — the analysis ran out of budget or crashed before
/// finishing ([`Timeout`], [`StateBudget`], [`Internal`]); see
/// `DESIGN.md`, *Failure taxonomy*.
///
/// [`Verification`]: RejectReason::Verification
/// [`Concurrency`]: RejectReason::Concurrency
/// [`DecodeError`]: RejectReason::DecodeError
/// [`MalformedBinary`]: RejectReason::MalformedBinary
/// [`CalleeRejected`]: RejectReason::CalleeRejected
/// [`Timeout`]: RejectReason::Timeout
/// [`StateBudget`]: RejectReason::StateBudget
/// [`Internal`]: RejectReason::Internal
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// A sanity property could not be proven.
    Verification(VerificationError),
    /// The binary uses threading primitives (out of scope, §1).
    Concurrency,
    /// The wall-clock budget expired. The per-function results still
    /// hold the partial Hoare Graphs built before the deadline, with
    /// frontier vertices annotated.
    Timeout,
    /// A per-function resource budget ran out (step fuel or symbolic
    /// states). Partial results are kept, as for `Timeout`.
    StateBudget {
        /// The exhausted dimension.
        dimension: BudgetDim,
        /// Amount consumed when exploration stopped.
        used: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Instruction bytes at a reachable address failed to decode.
    DecodeError {
        /// Address of the undecodable bytes.
        addr: u64,
        /// Decoder message.
        message: String,
    },
    /// The input is not a loadable ELF image.
    MalformedBinary {
        /// Parser message, with offset context.
        message: String,
    },
    /// A reachable callee was rejected.
    CalleeRejected(u64),
    /// The lifting pipeline itself panicked; the panic was isolated to
    /// this unit and converted into a reject.
    Internal {
        /// Pipeline stage that panicked (e.g. `"explore"`, `"lift"`).
        stage: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl RejectReason {
    /// True for rejects caused by resource exhaustion or pipeline
    /// faults rather than a soundness verdict. Resource rejects may
    /// disappear with a larger budget; sound rejects will not.
    pub fn is_resource(&self) -> bool {
        matches!(
            self,
            RejectReason::Timeout | RejectReason::StateBudget { .. } | RejectReason::Internal { .. }
        )
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Verification(e) => write!(f, "verification error: {e}"),
            RejectReason::Concurrency => write!(f, "concurrency (pthread) out of scope"),
            RejectReason::Timeout => write!(f, "timeout"),
            RejectReason::StateBudget { dimension, used, limit } => {
                write!(f, "{dimension} budget exhausted ({used}/{limit})")
            }
            RejectReason::DecodeError { addr, message } => {
                write!(f, "undecodable instruction at {addr:#x}: {message}")
            }
            RejectReason::MalformedBinary { message } => {
                write!(f, "malformed binary: {message}")
            }
            RejectReason::CalleeRejected(a) => write!(f, "reachable callee {a:#x} rejected"),
            RejectReason::Internal { stage, message } => {
                write!(f, "internal fault in {stage}: {message}")
            }
        }
    }
}

/// The lifted artefacts of one function.
#[derive(Debug, Clone)]
pub struct FnLift {
    /// Entry address.
    pub entry: u64,
    /// The extracted Hoare Graph.
    pub graph: HoareGraph,
    /// Unsoundness annotations (columns B/C of Table 1).
    pub annotations: Vec<Annotation>,
    /// External-call proof obligations (§5.3).
    pub obligations: Vec<ProofObligation>,
    /// Memory-space assumptions used by the solver.
    pub assumptions: Vec<Assumption>,
    /// Fatal errors (the function is rejected if non-empty).
    pub verification_errors: Vec<VerificationError>,
    /// Successfully bounded indirections (column A).
    pub resolved_indirections: usize,
    /// `(addr, len)` of every instruction byte range fetched while
    /// exploring this function (including the window of a failed
    /// decode). Part of the artifact store's content-hash footprint.
    pub extent: BTreeSet<(u64, u8)>,
    /// `(addr, size)` of every non-instruction image read the lift
    /// performed (read-only constants, jump-table entries). The other
    /// half of the content-hash footprint.
    pub image_reads: BTreeSet<(u64, u8)>,
    /// Internal callees this lift depends on; `true` once the callee's
    /// return proof was consumed. An incremental re-lift confirms a
    /// cached artifact only when every dependency is itself confirmed
    /// with an unchanged return verdict.
    pub callee_deps: BTreeMap<u64, bool>,
    /// Whether some path provably returns.
    pub returns: bool,
    /// Rejection verdict, if any.
    pub reject: Option<RejectReason>,
}

impl FnLift {
    /// True if the function lifted cleanly (it may still carry
    /// annotations — those mark unexplored indirections, not errors).
    pub fn is_lifted(&self) -> bool {
        self.reject.is_none()
    }

    /// True if this artifact may be persisted by an
    /// [`ArtifactStore`](crate::ArtifactStore): its verdict is
    /// *intrinsic* to the function bytes and configuration. Resource
    /// rejects (`Timeout`, `StateBudget`, `Internal`) are excluded —
    /// they may vanish under a larger budget, so caching them would
    /// freeze a transient outcome. `CalleeRejected` is storable but is
    /// recorded as a dependency (the verdict is recomputed from the
    /// callee graph on every incremental run), never as a stored
    /// reject.
    pub fn is_storable(&self) -> bool {
        matches!(
            self.reject,
            None
                | Some(RejectReason::Verification(_))
                | Some(RejectReason::DecodeError { .. })
                | Some(RejectReason::CalleeRejected(_))
        )
    }
}

/// The result of lifting a binary or function.
#[derive(Debug, Clone, Default)]
pub struct LiftResult {
    /// Per-function results, keyed by entry address.
    pub functions: BTreeMap<u64, FnLift>,
    /// Binary-level rejection (concurrency or timeout), if any.
    pub binary_reject: Option<RejectReason>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl LiftResult {
    /// Total number of distinct instruction addresses lifted.
    pub fn instruction_count(&self) -> usize {
        let mut addrs: Vec<u64> = self
            .functions
            .values()
            .flat_map(|f| f.graph.instructions().keys().copied().collect::<Vec<_>>())
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        addrs.len()
    }

    /// Total number of symbolic states.
    pub fn state_count(&self) -> usize {
        self.functions.values().map(|f| f.graph.state_count()).sum()
    }

    /// Totals of (resolved, unresolved-jump, unresolved-call)
    /// indirections — columns A/B/C of Table 1.
    pub fn indirection_counts(&self) -> (usize, usize, usize) {
        let mut a = 0;
        let mut b = 0;
        let mut c = 0;
        for f in self.functions.values() {
            a += f.resolved_indirections;
            for ann in &f.annotations {
                match ann {
                    Annotation::UnresolvedJump { .. } => b += 1,
                    Annotation::UnresolvedCall { .. } => c += 1,
                    Annotation::BudgetFrontier { .. } => {}
                }
            }
        }
        (a, b, c)
    }

    /// True if every reached function lifted and no binary-level
    /// rejection occurred.
    pub fn is_lifted(&self) -> bool {
        self.binary_reject.is_none() && self.functions.values().all(FnLift::is_lifted)
    }

    /// The first rejection, if any.
    pub fn reject_reason(&self) -> Option<RejectReason> {
        if let Some(r) = &self.binary_reject {
            return Some(r.clone());
        }
        self.functions.values().find_map(|f| f.reject.clone())
    }
}

/// Renders a `catch_unwind` payload as text: the message of a string
/// panic, or a fixed placeholder for any other payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Isolates a panic in `f` into a `RejectReason::Internal` lift result,
/// so a pipeline fault on one unit never takes down the caller.
pub(crate) fn isolated(stage: &'static str, f: impl FnOnce() -> LiftResult) -> LiftResult {
    let start = Instant::now();
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => LiftResult {
            functions: BTreeMap::new(),
            binary_reject: Some(RejectReason::Internal { stage, message: panic_message(payload) }),
            elapsed: start.elapsed(),
        },
    }
}

/// The untrusted-input front door behind [`Lifter::from_bytes`]: a
/// malformed image yields `RejectReason::MalformedBinary` (and a
/// parser panic, should one survive the hardened reader, is isolated
/// into `RejectReason::Internal`) — never a crash of the caller.
///
/// [`Lifter::from_bytes`]: crate::engine::Lifter::from_bytes
pub(crate) fn lift_bytes_impl(bytes: &[u8], config: &LiftConfig) -> LiftResult {
    let start = Instant::now();
    let parsed = catch_unwind(AssertUnwindSafe(|| Binary::parse(bytes)));
    let reject = match parsed {
        Ok(Ok(binary)) => {
            return crate::engine::Lifter::new(&binary)
                .with_config(config.clone())
                .lift_entry(binary.entry)
        }
        Ok(Err(e)) => RejectReason::MalformedBinary { message: e.to_string() },
        Err(payload) => RejectReason::Internal { stage: "parse", message: panic_message(payload) },
    };
    LiftResult {
        functions: BTreeMap::new(),
        binary_reject: Some(reject),
        elapsed: start.elapsed(),
    }
}

/// Concurrency scope check (§1): binaries calling `pthread_*` are out
/// of scope and rejected whole.
pub(crate) fn concurrency_reject(binary: &Binary) -> Option<RejectReason> {
    binary
        .externals
        .values()
        .any(|n| n.starts_with("pthread_") && n != "pthread_exit")
        .then_some(RejectReason::Concurrency)
}

/// Assembles per-function explorations into [`FnLift`] results,
/// propagating callee rejection (a function whose reachable callee was
/// rejected is itself rejected with [`RejectReason::CalleeRejected`]).
///
/// `cached` carries artifacts replayed from a persistent store (empty
/// outside incremental mode). A cached artifact records its *intrinsic*
/// verdict; [`RejectReason::CalleeRejected`] is never stored and is
/// recomputed here from the unconsumed callee dependencies, so a callee
/// that newly rejects (or newly lifts) after an edit changes its
/// cached callers' verdicts without re-exploring them.
pub(crate) fn assemble(
    explorations: BTreeMap<u64, FnExploration>,
    mut internal_errors: BTreeMap<u64, String>,
    cached: BTreeMap<u64, FnLift>,
    result: &mut LiftResult,
) {
    let mut rejected_fns: Vec<u64> = explorations
        .iter()
        .filter(|(a, e)| {
            e.rejected.is_some() || e.exhausted.is_some() || internal_errors.contains_key(a)
        })
        .map(|(a, _)| *a)
        .collect();
    rejected_fns.extend(cached.iter().filter(|(_, f)| f.reject.is_some()).map(|(a, _)| *a));
    for (addr, e) in explorations {
        let reject = if let Some(message) = internal_errors.remove(&addr) {
            Some(RejectReason::Internal { stage: "explore", message })
        } else {
            match &e.rejected {
                Some(VerificationError::Undecodable { addr, message }) => {
                    Some(RejectReason::DecodeError { addr: *addr, message: message.clone() })
                }
                Some(err) => Some(RejectReason::Verification(err.clone())),
                None => match &e.exhausted {
                    Some(ex) => Some(RejectReason::StateBudget {
                        dimension: ex.dimension,
                        used: ex.used,
                        limit: ex.limit,
                    }),
                    None => e
                        .pending_callees()
                        .iter()
                        .find(|c| rejected_fns.contains(c))
                        .map(|c| RejectReason::CalleeRejected(*c)),
                },
            }
        };
        result.functions.insert(
            addr,
            FnLift {
                entry: addr,
                graph: e.graph,
                annotations: e.diags.annotations,
                obligations: e.diags.obligations,
                assumptions: e.diags.assumptions,
                verification_errors: e.rejected.iter().cloned().collect(),
                resolved_indirections: e.diags.resolved_indirections,
                extent: e.extent,
                image_reads: e.diags.image_reads,
                callee_deps: e.callee_deps,
                returns: e.returns,
                reject,
            },
        );
    }
    for (addr, mut f) in cached {
        if f.reject.is_none() {
            f.reject = f
                .callee_deps
                .iter()
                .filter(|(_, consumed)| !**consumed)
                .find(|(c, _)| rejected_fns.contains(c))
                .map(|(c, _)| RejectReason::CalleeRejected(*c));
        }
        result.functions.insert(addr, f);
    }
}
