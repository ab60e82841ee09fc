//! Fault injection for the never-crash pipeline guarantee.
//!
//! The lifter's contract is *overapproximate or reject*: on any input —
//! including corrupted or adversarial binaries — it must terminate
//! within its budget and either produce a sound (possibly partial)
//! Hoare Graph or a structured [`RejectReason`]. This module corrupts
//! pristine corpus ELF images in the ways binaries actually rot
//! (truncation, flipped header fields, byte flips in `.text`, skewed
//! tables) and drives the full `parse → lift` pipeline over them,
//! tallying how every case terminated. `tests/fault_injection.rs`
//! asserts the campaign invariants: zero panics, zero hangs.

use hgl_core::lift::{LiftConfig, LiftResult, RejectReason};
use hgl_core::Lifter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

// The campaign corrupts images that `elf_image` serialises.
pub use hgl_elf::elf_image;

fn u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn u16le(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

/// File offset of program header `i`, if the image is large enough to
/// hold it. Reads the pristine header layout; callers corrupt *after*
/// locating their target.
fn phdr_off(image: &[u8], i: usize) -> Option<usize> {
    if image.len() < 64 {
        return None;
    }
    let phoff = u64le(&image[32..]) as usize;
    let phentsize = u16le(&image[54..]) as usize;
    let phnum = u16le(&image[56..]) as usize;
    if i >= phnum {
        return None;
    }
    let off = phoff.checked_add(i.checked_mul(phentsize)?)?;
    (off.checked_add(56)? <= image.len()).then_some(off)
}

/// File range (`offset`, `len`) of the first segment matching `want_x`
/// (executable or not), from the program header table.
fn segment_file_range(image: &[u8], want_x: bool) -> Option<(usize, usize)> {
    for i in 0..u16le(image.get(56..58)?) as usize {
        let ph = phdr_off(image, i)?;
        let p_type = u32::from_le_bytes([image[ph], image[ph + 1], image[ph + 2], image[ph + 3]]);
        let p_flags = u32::from_le_bytes([image[ph + 4], image[ph + 5], image[ph + 6], image[ph + 7]]);
        if p_type != 1 {
            continue; // not PT_LOAD
        }
        if (p_flags & 1 != 0) != want_x {
            continue; // PF_X
        }
        let off = u64le(&image[ph + 8..]) as usize;
        let filesz = u64le(&image[ph + 32..]) as usize;
        if filesz > 0 && off.checked_add(filesz).is_some_and(|end| end <= image.len()) {
            return Some((off, filesz));
        }
    }
    None
}

/// One byte-level fault to inject into a pristine ELF image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Truncate the file to its first `keep` bytes.
    TruncateTail {
        /// Bytes to keep.
        keep: usize,
    },
    /// Point `e_shoff` just short of the end of the file, so the
    /// section header table runs off the end.
    SkewSectionTable,
    /// Overwrite one byte of the ELF header (`e_ident` through
    /// `e_shstrndx`).
    HeaderByte {
        /// Byte offset within the first 64 bytes.
        offset: usize,
        /// Replacement value.
        value: u8,
    },
    /// Blow up the first `PT_LOAD` program header's `p_filesz`.
    OversizedSegment,
    /// XOR one byte inside the executable segment — instruction soup.
    TextByteFlip {
        /// Offset (reduced modulo the segment length).
        offset: usize,
        /// XOR mask (0 is promoted to 1 so the flip is never a no-op).
        xor: u8,
    },
    /// XOR one byte inside a non-executable segment — corrupts
    /// read-only data such as jump tables, skewing entries out of
    /// range.
    DataByteFlip {
        /// Offset (reduced modulo the segment length).
        offset: usize,
        /// XOR mask (0 is promoted to 1 so the flip is never a no-op).
        xor: u8,
    },
}

impl Fault {
    /// Draw a random fault for an image of `len` bytes.
    pub fn random(rng: &mut SmallRng, len: usize) -> Fault {
        match rng.gen_range(0u32..6) {
            0 => Fault::TruncateTail { keep: rng.gen_range(0..len.max(1)) },
            1 => Fault::SkewSectionTable,
            2 => Fault::HeaderByte { offset: rng.gen_range(0..64usize), value: rng.gen() },
            3 => Fault::OversizedSegment,
            4 => Fault::TextByteFlip { offset: rng.gen_range(0..len.max(1)), xor: rng.gen() },
            _ => Fault::DataByteFlip { offset: rng.gen_range(0..len.max(1)), xor: rng.gen() },
        }
    }

    /// Apply the fault to `image`. Faults whose target is missing from
    /// an already-damaged image (no executable segment, say) degrade to
    /// a no-op rather than failing: the campaign measures the
    /// pipeline, not the injector.
    pub fn apply(self, image: &mut Vec<u8>) {
        match self {
            Fault::TruncateTail { keep } => {
                let keep = keep.min(image.len());
                image.truncate(keep);
            }
            Fault::SkewSectionTable => {
                if image.len() >= 64 {
                    let bogus = (image.len() as u64).saturating_sub(8);
                    image[40..48].copy_from_slice(&bogus.to_le_bytes());
                }
            }
            Fault::HeaderByte { offset, value } => {
                if let Some(b) = image.get_mut(offset.min(63)) {
                    *b = value;
                }
            }
            Fault::OversizedSegment => {
                if let Some(ph) = phdr_off(image, 0) {
                    image[ph + 32..ph + 40].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
                }
            }
            Fault::TextByteFlip { offset, xor } => {
                if let Some((off, len)) = segment_file_range(image, true) {
                    image[off + offset % len] ^= xor.max(1);
                }
            }
            Fault::DataByteFlip { offset, xor } => {
                if let Some((off, len)) = segment_file_range(image, false) {
                    image[off + offset % len] ^= xor.max(1);
                }
            }
        }
    }
}

/// Tally of how a fault-injection campaign's cases terminated.
#[derive(Debug, Default, Clone, Copy)]
pub struct CampaignStats {
    /// Cases run.
    pub cases: usize,
    /// The corruption was benign; the unit still lifted soundly.
    pub lifted: usize,
    /// Sound structured reject (malformed image, undecodable bytes,
    /// failed verification, …).
    pub sound_reject: usize,
    /// Resource reject: the budget tripped, a sound partial graph (or
    /// nothing) was returned.
    pub resource_reject: usize,
    /// A panic was isolated into [`RejectReason::Internal`]. The
    /// campaign still terminated — but this counts as a robustness bug.
    pub internal: usize,
    /// Slowest single case.
    pub max_case_time: Duration,
}

impl CampaignStats {
    fn tally(&mut self, result: &LiftResult, elapsed: Duration) {
        self.cases += 1;
        self.max_case_time = self.max_case_time.max(elapsed);
        match result.reject_reason() {
            None => self.lifted += 1,
            Some(RejectReason::Internal { .. }) => self.internal += 1,
            Some(r) if r.is_resource() => self.resource_reject += 1,
            Some(_) => self.sound_reject += 1,
        }
    }
}

/// Run `cases` faulted lifts of `pristine`, drawing faults from `seed`.
///
/// Every case goes through the full byte-level pipeline
/// ([`Lifter::from_bytes`]): parse the corrupted image, then lift under
/// `config`'s budget. Panics anywhere in that pipeline are isolated
/// into [`RejectReason::Internal`] and show up in
/// [`CampaignStats::internal`] — they never propagate to the caller.
pub fn run_campaign(pristine: &[u8], config: &LiftConfig, seed: u64, cases: usize) -> CampaignStats {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut stats = CampaignStats::default();
    for _ in 0..cases {
        let fault = Fault::random(&mut rng, pristine.len());
        let mut image = pristine.to_vec();
        fault.apply(&mut image);
        let start = Instant::now();
        let result = Lifter::from_bytes(&image, config);
        stats.tally(&result, start.elapsed());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_elf::Binary;
    use crate::gen::ProgramGen;

    fn pristine() -> Vec<u8> {
        let mut pg = ProgramGen::new();
        let mut rng = SmallRng::seed_from_u64(7);
        pg.gen_function("main", &mut rng, &crate::gen::GenOptions::default());
        pg.asm.entry("main");
        let bin = pg.asm.assemble().expect("assembles");
        elf_image(&bin)
    }

    #[test]
    fn pristine_image_roundtrips() {
        let image = pristine();
        let bin = Binary::parse(&image).expect("parses");
        let result = Lifter::from_bytes(&image, &LiftConfig::default());
        assert!(result.reject_reason().is_none(), "pristine image lifts: {:?}", result.reject_reason());
        assert!(bin.segments.iter().any(|s| s.flags.x));
    }

    #[test]
    fn each_fault_kind_is_survivable() {
        let image = pristine();
        let faults = [
            Fault::TruncateTail { keep: 3 },
            Fault::TruncateTail { keep: image.len() / 2 },
            Fault::SkewSectionTable,
            Fault::HeaderByte { offset: 4, value: 1 },
            Fault::OversizedSegment,
            Fault::TextByteFlip { offset: 5, xor: 0x81 },
            Fault::DataByteFlip { offset: 5, xor: 0x81 },
        ];
        for fault in faults {
            let mut corrupt = image.clone();
            fault.apply(&mut corrupt);
            // Must terminate and classify; panics would fail the test.
            let _ = Lifter::from_bytes(&corrupt, &LiftConfig::default());
        }
    }

    #[test]
    fn small_campaign_has_no_internal_errors() {
        let image = pristine();
        let stats = run_campaign(&image, &LiftConfig::default(), 2022, 32);
        assert_eq!(stats.cases, 32);
        assert_eq!(stats.internal, 0, "panics leaked through the pipeline: {stats:?}");
    }
}
