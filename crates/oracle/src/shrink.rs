//! Shrinking of failing campaigns to a minimal reproducer.
//!
//! Two passes over the *original* assembly program, each keeping a
//! cumulative set of removed text-item indices (indices are stable
//! relative to the original program; every candidate is rebuilt from
//! the original with [`hgl_asm::Asm::without_text_items`]):
//!
//! 1. drop whole generator segment spans, largest first,
//! 2. drop individual instructions, to a fixpoint.
//!
//! A removal is kept only if the caller's predicate still holds on the
//! candidate. Each campaign passes its own per-program check, so a
//! shrink ends on a program the campaign would itself trace and fail.
//! Labels are never removed, so branch fixups stay resolvable and a
//! removal can only change semantics, not well-formedness.

use hgl_asm::Asm;
use std::collections::BTreeSet;
use std::fmt;

/// A minimal reproducer for a campaign failure.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// Text-item indices (into the original program) removed.
    pub removed: BTreeSet<usize>,
    /// Instructions remaining in the shrunk program.
    pub instructions: usize,
    /// Listing of the shrunk program.
    pub listing: String,
}

impl fmt::Display for ShrinkResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "shrunk to {} instructions:", self.instructions)?;
        write!(f, "{}", self.listing)
    }
}

/// Shrink a failing program to a minimal reproducer.
///
/// `spans` are the generator's segment spans (half-open text-item
/// ranges); `still_fails` says whether a candidate program still fails.
pub fn shrink(asm: &Asm, spans: &[(usize, usize)], mut still_fails: impl FnMut(&Asm) -> bool) -> ShrinkResult {
    let mut keeps = |removed: &BTreeSet<usize>| still_fails(&asm.without_text_items(removed));
    let mut removed: BTreeSet<usize> = BTreeSet::new();

    // Pass 1: whole segment spans, largest first.
    let mut ordered: Vec<(usize, usize)> = spans.to_vec();
    ordered.sort_by_key(|(s, e)| std::cmp::Reverse(e - s));
    for (s, e) in ordered {
        let trial: BTreeSet<usize> = removed.iter().copied().chain(s..e).collect();
        if trial.len() > removed.len() && keeps(&trial) {
            removed = trial;
        }
    }

    // Pass 2: individual instructions, to a fixpoint.
    loop {
        let mut progressed = false;
        for idx in 0..asm.text_len() {
            if removed.contains(&idx) || !asm.is_instruction(idx) {
                continue;
            }
            let mut trial = removed.clone();
            trial.insert(idx);
            if keeps(&trial) {
                removed = trial;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let shrunk = asm.without_text_items(&removed);
    let instructions = (0..shrunk.text_len()).filter(|&i| shrunk.is_instruction(i)).count();
    ShrinkResult { removed, instructions, listing: shrunk.listing() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::synth_program;

    /// The shrinker under a synthetic predicate, "one chosen
    /// instruction is still in the candidate": the result is exactly
    /// that instruction. The chosen instruction sits in a generator
    /// span and the program has other spans and instructions outside
    /// every span, so both passes have something to remove.
    #[test]
    fn shrinks_to_the_one_instruction_the_predicate_keeps() {
        let prog = synth_program(0x0e11_ab1e_5eed, 0);
        let asm = &prog.asm;
        let listing = asm.listing();
        let lines: Vec<&str> = listing.lines().collect();
        assert_eq!(lines.len(), asm.text_len(), "one listing line per text item");
        let in_span = |i: usize| prog.spans.iter().any(|&(s, e)| (s..e).contains(&i));
        let chosen = (0..asm.text_len())
            .find(|&i| {
                asm.is_instruction(i) && in_span(i) && lines.iter().filter(|l| **l == lines[i]).count() == 1
            })
            .expect("an instruction with a unique listing line inside a span");
        assert!(prog.spans.len() >= 2, "the span pass needs a span to drop");
        assert!(
            (0..asm.text_len()).any(|i| asm.is_instruction(i) && !in_span(i)),
            "the instruction pass needs an instruction outside every span"
        );

        let line = lines[chosen];
        let shrunk = shrink(asm, &prog.spans, |c| c.listing().lines().any(|l| l == line));

        assert_eq!(shrunk.instructions, 1, "{shrunk}");
        let kept: Vec<usize> =
            (0..asm.text_len()).filter(|&i| asm.is_instruction(i) && !shrunk.removed.contains(&i)).collect();
        assert_eq!(kept, [chosen]);
        assert_eq!(shrunk.listing.lines().filter(|l| l.starts_with("    ")).collect::<Vec<_>>(), [line]);
    }
}
