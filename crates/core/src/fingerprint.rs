//! Configuration fingerprints: one canonical identity for "the same
//! lift".
//!
//! Both caching layers need to answer the same question — *would this
//! configuration produce the same artifact?* — and before this module
//! each answered it differently: the PR-4 solver cache keyed per
//! session (config constant by construction), while a persistent store
//! must key per *configuration*. A [`Fingerprint`] folds everything a
//! lift's output depends on besides the binary bytes into one canonical
//! byte string:
//!
//! - the artifact schema version ([`ARTIFACT_SCHEMA_VERSION`]),
//! - the semantic crate versions (`hgl-core`, `hgl-solver`, `hgl-expr`,
//!   `hgl-x86` — a decoder or solver fix must invalidate old
//!   artifacts),
//! - every knob of [`LiftConfig`]: both budget dimensions, the
//!   resolved-indirection hints and the exploration limits. The
//!   stepping caps (`tau::MAX_*`) are constants, not knobs: like any
//!   other change to the lifter's code, changing one must bump a
//!   version folded in here.
//!
//! The encoding is explicit field-by-field (never `Debug`, whose
//! output is not stable across compiler or code changes), so two
//! processes with the same build and config derive byte-identical
//! fingerprints. `hgl-store` folds [`Fingerprint::bytes`] into its
//! content-addressed key; the session solver cache binds
//! [`Fingerprint::digest64`] and flushes when it changes.

use crate::budget::Budget;
use crate::explore::ExploreLimits;
use crate::lift::LiftConfig;

/// Version of the per-function artifact schema (the semantic content
/// of a lift: graph, diagnostics, claims). Bump when the *meaning* of
/// stored artifacts changes; `hgl-store` layers its own byte-format
/// version on top.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// A canonical identity for one lifting configuration under one build
/// of the lifter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    bytes: Vec<u8>,
    digest: u64,
}

impl Fingerprint {
    /// Fingerprint `config` under the current build.
    ///
    /// Every configuration struct is destructured without `..`, so a
    /// field added later does not compile until it is hashed here.
    pub fn of(config: &LiftConfig) -> Fingerprint {
        let LiftConfig { budget, indirect_hints, limits } = config;
        let Budget { wall_clock, max_fuel } = budget;
        let ExploreLimits { max_states, widen_after, code_pointer_refinement } = limits;
        let mut bytes = Vec::with_capacity(128);
        bytes.extend_from_slice(b"hgl-fingerprint");
        push_u32(&mut bytes, 3); // fingerprint encoding version
        push_u32(&mut bytes, ARTIFACT_SCHEMA_VERSION);
        push_str(&mut bytes, env!("CARGO_PKG_VERSION")); // hgl-core
        push_str(&mut bytes, hgl_solver::VERSION);
        push_str(&mut bytes, hgl_expr::VERSION);
        push_str(&mut bytes, hgl_x86::VERSION);
        // Budget.
        push_opt_u64(&mut bytes, wall_clock.map(|d| d.as_nanos() as u64));
        push_opt_u64(&mut bytes, *max_fuel);
        // Resolved-indirection hints: count, then every (jump, target)
        // pair in sorted order — a refinement round with different
        // hints is a different artifact.
        push_u64(&mut bytes, indirect_hints.len() as u64);
        for (addr, targets) in indirect_hints {
            push_u64(&mut bytes, *addr);
            push_u64(&mut bytes, targets.len() as u64);
            for t in targets {
                push_u64(&mut bytes, *t);
            }
        }
        // Exploration limits.
        push_u64(&mut bytes, *max_states as u64);
        push_u32(&mut bytes, *widen_after);
        bytes.push(*code_pointer_refinement as u8);
        let digest = fnv1a(&bytes);
        Fingerprint { bytes, digest }
    }

    /// The canonical byte encoding (feeds the store's hash key).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A 64-bit digest of the canonical bytes (binds the session
    /// solver cache; see [`QueryCache::bind_fingerprint`]).
    ///
    /// [`QueryCache::bind_fingerprint`]: hgl_solver::QueryCache::bind_fingerprint
    pub fn digest64(&self) -> u64 {
        self.digest
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            push_u64(out, v);
        }
        None => out.push(0),
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// FNV-1a over `bytes`. Not cryptographic — the store's key hash is
/// SHA-256 over the full canonical bytes; this digest only gates the
/// in-process solver cache (the engine folds the binary's layout in on
/// top; see `engine::cache_scope`).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stable_for_equal_configs() {
        let a = Fingerprint::of(&LiftConfig::default());
        let b = Fingerprint::of(&LiftConfig::default());
        assert_eq!(a, b);
        assert_eq!(a.digest64(), b.digest64());
    }

    /// Changing *any* knob of the configuration must change the
    /// fingerprint. A knob the fingerprint misses would let the store
    /// serve artifacts computed under a different configuration.
    #[test]
    fn every_knob_changes_the_fingerprint() {
        let base = Fingerprint::of(&LiftConfig::default());
        let with = |set: fn(&mut LiftConfig)| {
            let mut c = LiftConfig::default();
            set(&mut c);
            c
        };
        let variants: Vec<(&str, LiftConfig)> = vec![
            ("budget.wall_clock", with(|c| c.budget.wall_clock = Some(Duration::from_secs(123)))),
            ("budget (unlimited)", with(|c| c.budget = Budget::unlimited())),
            ("budget.max_fuel", with(|c| c.budget.max_fuel = Some(77))),
            (
                "indirect_hints",
                with(|c| {
                    c.indirect_hints =
                        [(0x401000u64, [0x401010u64, 0x401020].into_iter().collect())]
                            .into_iter()
                            .collect()
                }),
            ),
            ("limits.max_states", with(|c| c.limits.max_states = 3)),
            ("limits.widen_after", with(|c| c.limits.widen_after = 3)),
            (
                "limits.code_pointer_refinement",
                with(|c| c.limits.code_pointer_refinement = false),
            ),
        ];
        for (name, cfg) in variants {
            let fp = Fingerprint::of(&cfg);
            assert_ne!(fp.bytes(), base.bytes(), "knob {name} must change the fingerprint bytes");
            assert_ne!(fp.digest64(), base.digest64(), "knob {name} must change the digest");
        }
    }

    #[test]
    fn digest_matches_bytes() {
        let fuel = |n| {
            let mut c = LiftConfig::default();
            c.budget.max_fuel = Some(n);
            Fingerprint::of(&c)
        };
        let (a, b) = (fuel(1), fuel(2));
        assert_ne!(a.bytes(), b.bytes());
        assert_ne!(a.digest64(), b.digest64());
    }
}
