//! # hgl-core: Hoare-Graph extraction (Step 1 of the paper)
//!
//! Implements the paper's central contribution: extraction of a
//! **Hoare Graph** from an x86-64 binary, simultaneously performing
//! disassembly, control-flow recovery and invariant generation, while
//! verifying three sanity properties —
//!
//! 1. **return address integrity** (functions never overwrite their
//!    own return address),
//! 2. **bounded control flow** (every indirect jump resolves to a
//!    fixed, statically known set of targets), and
//! 3. **calling-convention adherence** (callee-saved registers and the
//!    stack pointer are restored on return).
//!
//! The module structure mirrors the paper:
//!
//! - [`pred`]: symbolic predicates over registers, flags and memory
//!   (§3.1) with the join of Definition 3.3;
//! - [`memmodel`]: memory models — forests of `MemTree`s recording
//!   aliasing/separation/enclosure (§3.2, Definitions 3.7–3.12);
//! - [`tau`]: the instruction-semantics transformer `τ` used by the
//!   symbolic step function (Definition 4.2);
//! - [`explore`]: Algorithm 1 plus the §4.2 extensions (context-free
//!   internal calls, reachability marking, external-call cleaning);
//! - [`graph`]: the extracted Hoare Graph itself;
//! - [`diag`]: verification errors, unsoundness annotations and
//!   generated proof obligations (§5.3);
//! - [`engine`]: the [`Lifter`](engine::Lifter) session API and the
//!   parallel lifting engine with its shared solver-query cache;
//! - [`lift`]: [`LiftConfig`], lift results and reject verdicts;
//! - [`metrics`]: the phase-level [`Metrics`](metrics::Metrics) sink
//!   behind `hgl lift --metrics`;
//! - [`budget`]: layered resource budgets (wall clock, fuel, solver
//!   queries, forks) behind the graceful-degradation machinery.
//!
//! ```
//! use hgl_asm::Asm;
//! use hgl_core::{Lifter, LiftConfig};
//! use hgl_x86::{Instr, Mnemonic, Operand, Reg, Width};
//!
//! let mut asm = Asm::new();
//! asm.label("main");
//! asm.ins(Instr::new(Mnemonic::Xor,
//!     vec![Operand::reg(Reg::Rax, Width::B4), Operand::reg(Reg::Rax, Width::B4)],
//!     Width::B4));
//! asm.ret();
//! let bin = asm.entry("main").assemble()?;
//!
//! let result = Lifter::new(&bin).with_config(LiftConfig::default()).lift_entry(bin.entry);
//! let f = result.functions.values().next().expect("one function");
//! assert!(f.verification_errors.is_empty());
//! assert!(f.graph.returns());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod diag;
pub mod engine;
pub mod explore;
pub mod fingerprint;
pub mod graph;
pub mod lift;
pub mod memmodel;
pub mod metrics;
pub mod pred;
pub mod refine;
pub mod store_api;
pub mod tau;

pub use budget::{Budget, BudgetDim, BudgetExhausted, BudgetMeter};
pub use diag::{Annotation, ProofObligation, VerificationError};
pub use engine::{parallel_map, BinaryLiftReport, Lifter};
pub use fingerprint::{Fingerprint, ARTIFACT_SCHEMA_VERSION};
pub use graph::{Edge, HoareGraph, Vertex, VertexId};
pub use lift::{FnLift, LiftConfig, LiftResult, RejectReason};
pub use memmodel::{MemModel, MemTree};
pub use metrics::{Metrics, MetricsSnapshot, Phase, PhaseSnapshot, RewriteStats};
pub use pred::{FlagState, Pred, SymState};
pub use refine::{IndirectResolver, RefinedLift, Resolution};
pub use store_api::{ArtifactStore, StoreStats};
