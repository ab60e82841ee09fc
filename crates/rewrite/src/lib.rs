//! Verified rewriting: lift → transform → re-emit.
//!
//! The lifter proves properties of a binary; this crate closes the
//! loop and *changes* the binary, keeping the proofs honest by
//! validating every produced artifact instead of trusting the
//! transformer (the translation-validation stance of the
//! proof-producing-lifting line of work).
//!
//! The pipeline:
//!
//! 1. **Identity recompilation** ([`identity`]) — walk every lifted
//!    function's Hoare Graph in layout order, re-encode each decoded
//!    instruction through `hgl_x86::encode`, and check the bytes
//!    reproduce the original image exactly. Nothing moves, so jump
//!    tables and RIP-relative data stay valid by construction.
//! 2. **Instrumentation passes** ([`pass`]) — transformations behind
//!    the [`RewritePass`] trait. The headline pass ([`shadow`])
//!    plants a shadow-stack guard at every `ret` of every function
//!    whose return-address integrity the `crates/analysis` lints could
//!    not prove (assumption-backed separations, unbounded stack
//!    depth). It runs those two lints itself, on lifted functions
//!    only; no rewrite runs the full `hgl_analysis::analyze`. The
//!    guards go in via address-preserving detour patching: a 5-byte
//!    `jmp rel32` at the function entry and before each `ret` detours
//!    through out-of-line stubs that maintain a shadow return-address
//!    ring and `hlt` on mismatch.
//! 3. **Re-emission** ([`elf_image`], from `hgl-elf`) — serialise the
//!    rewritten loaded view back to a runnable ELF64 image.
//! 4. **Verification** ([`verify`]) — per-artifact: re-lift the
//!    identity output and check Hoare-Graph correspondence via
//!    `hgl_export::correspond`; the differential trace oracle in
//!    `hgl-oracle` replays original-vs-rewritten campaigns on top of
//!    the [`RewriteOutput`] address maps this crate produces.

#![forbid(unsafe_code)]

pub mod identity;
pub mod pass;
pub mod shadow;
pub mod verify;

use hgl_core::lift::LiftResult;
use hgl_core::RewriteStats;
use hgl_elf::Binary;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub use hgl_elf::elf_image;
pub use pass::{PassContext, RewritePass};
pub use shadow::ShadowStackPass;
pub use verify::{verify_relift, ReliftVerdict};

/// Why a rewrite failed. Every variant is a *refusal*, not a broken
/// artifact: the rewriter never emits a binary it could not validate
/// structurally.
#[derive(Debug, Clone)]
pub enum RewriteError {
    /// The binary (or a required function) did not lift.
    NotLifted(String),
    /// Re-encoding a decoded instruction did not reproduce the
    /// original bytes — an encoder gap; the identity premise fails.
    Reencode {
        /// Address of the instruction.
        addr: u64,
        /// What differed.
        detail: String,
    },
    /// A detour patch site violates the steal-site rules (control
    /// flow, RIP-relative data, or a branch target inside the span).
    UnsafeStealSite {
        /// Function being instrumented.
        function: u64,
        /// Offending address.
        addr: u64,
        /// Which rule broke.
        detail: String,
    },
    /// Stub assembly failed.
    Asm(String),
    /// Section placement failed (overlap, out of address space).
    Layout(String),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::NotLifted(s) => write!(f, "binary did not lift: {s}"),
            RewriteError::Reencode { addr, detail } => {
                write!(f, "re-encode mismatch at {addr:#x}: {detail}")
            }
            RewriteError::UnsafeStealSite { function, addr, detail } => {
                write!(f, "unsafe steal site in {function:#x} at {addr:#x}: {detail}")
            }
            RewriteError::Asm(s) => write!(f, "stub assembly: {s}"),
            RewriteError::Layout(s) => write!(f, "layout: {s}"),
        }
    }
}

impl From<hgl_asm::AsmError> for RewriteError {
    fn from(e: hgl_asm::AsmError) -> RewriteError {
        RewriteError::Asm(e.to_string())
    }
}

/// Placement of the shadow-stack data and guard-code sections in the
/// rewritten image.
#[derive(Debug, Clone, Copy)]
pub struct ShadowLayout {
    /// Address of the index cell (8 bytes); slots follow at `meta + 8`.
    pub meta: u64,
    /// Ring capacity in return-address slots.
    pub depth: u64,
    /// Start of the RW shadow section.
    pub base: u64,
    /// Size of the RW shadow section in bytes.
    pub size: u64,
    /// Start of the RX guard-code section.
    pub guard_base: u64,
    /// Size of the RX guard-code section in bytes.
    pub guard_size: u64,
}

impl ShadowLayout {
    /// Is `addr` inside the RW shadow section?
    pub fn in_shadow(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.size
    }

    /// Is `addr` inside the RX guard-code section?
    pub fn in_guard(&self, addr: u64) -> bool {
        addr >= self.guard_base && addr < self.guard_base + self.guard_size
    }
}

/// One instrumented `ret`.
#[derive(Debug, Clone, Copy)]
pub struct GuardSite {
    /// Function entry.
    pub function: u64,
    /// Address of the guarded `ret` in the original image.
    pub ret_addr: u64,
    /// Address of its detour stub in the guard section.
    pub stub_addr: u64,
}

/// The product of a rewrite: the rewritten loaded view plus everything
/// a validator needs to relate its executions back to the original.
#[derive(Debug, Clone)]
pub struct RewriteOutput {
    /// The rewritten binary (loaded view; see [`elf_image`] to
    /// serialise).
    pub binary: Binary,
    /// Counters for the `rewrite` block of `hgl-metrics-v1`.
    pub stats: RewriteStats,
    /// Stub instruction address → the original address it replays.
    /// Trace normalisation maps rewritten `rip`s through this.
    pub addr_map: BTreeMap<u64, u64>,
    /// Guard-only instruction addresses (stub bookkeeping, patch
    /// `jmp`s, trap `hlt`s): steps at these `rip`s exist only in the
    /// rewritten execution and are dropped by normalisation.
    pub skip_addrs: BTreeSet<u64>,
    /// Shadow/guard section placement, when an instrumentation pass
    /// ran. `None` for identity rewrites.
    pub shadow: Option<ShadowLayout>,
    /// Every instrumented `ret`.
    pub guards: Vec<GuardSite>,
}

impl RewriteOutput {
    /// Normalise one executed `rip` of the rewritten binary: `None`
    /// for guard-only steps, the corresponding original address
    /// otherwise.
    pub fn normalize_rip(&self, rip: u64) -> Option<u64> {
        if self.skip_addrs.contains(&rip) {
            return None;
        }
        Some(*self.addr_map.get(&rip).unwrap_or(&rip))
    }
}

/// Rewrite `binary`: identity-recompile (always), then apply `passes`
/// in order. No analysis runs here: each pass computes the findings
/// it reads (the shadow-stack pass runs its two lints).
///
/// # Errors
///
/// Refuses (with [`RewriteError`]) when no function lifted, when
/// re-encoding fails to reproduce the original image, or when a pass
/// cannot patch safely.
pub fn rewrite(
    binary: &Binary,
    lift: &LiftResult,
    passes: &[&dyn RewritePass],
) -> Result<RewriteOutput, RewriteError> {
    let (functions, instructions) = identity::check_reencode(binary, lift)?;
    if functions == 0 {
        return Err(RewriteError::NotLifted("no function lifted cleanly".to_string()));
    }
    let mut out = RewriteOutput {
        binary: binary.clone(),
        stats: RewriteStats {
            functions,
            instructions_reencoded: instructions,
            bytes_delta: 0,
            guards_inserted: 0,
            verify_relift_ok: None,
            verify_traces_ok: None,
        },
        addr_map: BTreeMap::new(),
        skip_addrs: BTreeSet::new(),
        shadow: None,
        guards: Vec::new(),
    };
    let ctx = PassContext { binary, lift };
    for p in passes {
        p.apply(&ctx, &mut out)?;
    }
    let original_len: u64 = binary.segments.iter().map(|s| s.bytes.len() as u64).sum();
    let rewritten_len: u64 = out.binary.segments.iter().map(|s| s.bytes.len() as u64).sum();
    out.stats.bytes_delta = rewritten_len as i64 - original_len as i64;
    Ok(out)
}
