//! The analyze→re-lift refinement loop.
//!
//! A lift can leave indirect jumps unresolved ([`Annotation::
//! UnresolvedJump`](crate::diag::Annotation)); a static analysis over
//! the extracted graphs (e.g. the value-set analysis in
//! `hgl-analysis`) may then bound their targets after the fact. An
//! [`IndirectResolver`] packages that step, and
//! [`Lifter::lift_entry_refined`](crate::engine::Lifter::lift_entry_refined)
//! iterates lift → resolve → merge-hints → re-lift until a resolve
//! pass changes nothing (or the round bound trips).
//!
//! Crucially the resolver sees the *current* hint set each round and
//! re-validates every already-hinted jump against the grown graph: a
//! hinted jump no longer carries an `UnresolvedJump` annotation, yet
//! the paths its own targets introduced may feed new index values into
//! the same dispatch. A re-validation that proves a *larger* target
//! set grows the hint; one that can no longer bound the jump at all
//! [`demotes`](Resolution::demoted) it — the hint is withdrawn, the
//! jump address is poisoned for the rest of the fixpoint (so an
//! under-approximate claim cannot oscillate back in), and the re-lift
//! reports the jump unresolved again, which is the sound outcome.
//!
//! Soundness: a hint claims "this indirect jump only ever transfers to
//! these addresses". The lifter re-checks every hinted target against
//! the executable segments, the hint set is part of the configuration
//! [`Fingerprint`](crate::fingerprint::Fingerprint) (so store and
//! solver caches never mix hinted and unhinted artifacts), and the
//! trace oracle cross-validates every claim dynamically: a concretely
//! executed indirect target outside the claimed set is a reported
//! violation, not a silent mislift.

use crate::lift::LiftResult;
use hgl_elf::Binary;
use std::collections::{BTreeMap, BTreeSet};

/// What one resolve pass concluded about the current lift.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    /// Complete proven target sets, keyed by indirect-jump address —
    /// for jumps the lift left unresolved *and* for already-hinted
    /// jumps re-proven on the current graph (whose set may have grown
    /// since the hint was first made). Jumps the analysis cannot bound
    /// must be absent (an empty set is treated the same way).
    pub resolved: BTreeMap<u64, BTreeSet<u64>>,
    /// Previously hinted jumps whose claim could **not** be re-proven
    /// on the current graph (the bound no longer holds, or widened to
    /// top). The refinement loop withdraws these hints and never
    /// re-admits them: the jump goes back to unresolved, which is the
    /// sound report for a claim the analysis cannot sustain.
    pub demoted: BTreeSet<u64>,
}

/// A static analysis that proposes concrete target sets for indirect
/// jumps the lifter left unresolved, and re-validates the claims made
/// in earlier rounds.
pub trait IndirectResolver {
    /// Resolve against the current lift. `hints` is the hint set the
    /// lift ran under: every hinted jump that appears in a lifted
    /// function must be re-analysed on that function's (possibly
    /// grown) graph and either re-proven — its full current target
    /// set returned in [`Resolution::resolved`] — or reported in
    /// [`Resolution::demoted`]. Every returned claim must
    /// over-approximate the concrete behaviour — an unsound claim will
    /// surface as an oracle containment violation, not be silently
    /// absorbed.
    fn resolve(
        &self,
        binary: &Binary,
        lift: &LiftResult,
        hints: &BTreeMap<u64, BTreeSet<u64>>,
    ) -> Resolution;
}

/// The outcome of a refinement fixpoint; the final lift itself is
/// returned beside it.
#[derive(Debug, Clone)]
pub struct RefinedLift {
    /// Lift rounds performed (1 = nothing to refine).
    pub rounds: usize,
    /// True when the loop reached a fixpoint (a resolve pass neither
    /// proposed a new target nor demoted a hint) within the round
    /// bound.
    pub converged: bool,
    /// The hint set the final lift ran under — on the converged path
    /// this is also the fixpoint set; on a round-bound trip it is the
    /// last *committed* set (a final proposal that never got its
    /// re-lift is discarded, so a plain `lift_entry` under the
    /// lifter's config always reproduces the final lift).
    pub hints: BTreeMap<u64, BTreeSet<u64>>,
    /// Jumps whose hint was withdrawn during refinement because a
    /// later round's graph no longer supported the claimed bound.
    /// The final lift reports them unresolved.
    pub demoted: BTreeSet<u64>,
}

/// Merge `proposed` into `hints`; true if anything new appeared.
pub(crate) fn merge_hints(
    hints: &mut BTreeMap<u64, BTreeSet<u64>>,
    proposed: BTreeMap<u64, BTreeSet<u64>>,
) -> bool {
    let mut grew = false;
    for (addr, targets) in proposed {
        if targets.is_empty() {
            continue;
        }
        let entry = hints.entry(addr).or_default();
        for t in targets {
            grew |= entry.insert(t);
        }
    }
    grew
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_detects_growth() {
        let mut hints = BTreeMap::new();
        let one: BTreeMap<u64, BTreeSet<u64>> =
            [(0x10u64, [0x20u64, 0x30].into_iter().collect())].into_iter().collect();
        assert!(merge_hints(&mut hints, one.clone()));
        assert!(!merge_hints(&mut hints, one));
        let more: BTreeMap<u64, BTreeSet<u64>> =
            [(0x10u64, [0x40u64].into_iter().collect())].into_iter().collect();
        assert!(merge_hints(&mut hints, more));
        assert_eq!(hints[&0x10].len(), 3);
        // Empty proposals are not growth.
        let empty: BTreeMap<u64, BTreeSet<u64>> =
            [(0x50u64, BTreeSet::new())].into_iter().collect();
        assert!(!merge_hints(&mut hints, empty));
        assert!(!hints.contains_key(&0x50));
    }
}
