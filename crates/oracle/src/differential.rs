//! Differential trace oracle: original vs rewritten binaries.
//!
//! The rewriter (`hgl-rewrite`) claims its output is behaviorally
//! equivalent to its input — exactly for identity recompilation, and
//! modulo the documented guard ABI (extra guard-frame steps, `r10`/
//! `r11`/flags clobbers, shadow-section writes) for shadow-stack
//! instrumentation. This module tests that claim the same way the
//! conformance oracle tests the lifter: concretely, at scale, from
//! seeded campaigns, with automatic shrinking of any divergence.
//!
//! Both binaries run under the same raw emulator harness from
//! identical seeded entry states. The rewritten run's trace is
//! *normalised* through the [`RewriteOutput`] address maps — guard-only
//! steps are dropped, replayed stub instructions map back to their
//! original addresses — and the two runs must then agree on:
//!
//! * the full normalised `rip` sequence,
//! * the stop cause (return to sentinel, terminating external, step
//!   budget),
//! * every final register (minus `r10`/`r11` under the guard ABI),
//! * the arithmetic flags (identity mode only — guards clobber them),
//! * the final memory write-delta against the loaded image (minus the
//!   shadow section under the guard ABI).
//!
//! A benign trace that traps in a guard is a divergence: guards must
//! fire only on actual return-address corruption, never on the
//! campaign's well-behaved programs.

use crate::campaign::{entry_state, synth_program};
use crate::shrink::{shrink, ShrinkResult};
use crate::trace::{EntryState, SENTINEL};
use hgl_core::tau::TERMINATING_EXTERNALS;
use hgl_core::{LiftResult, Lifter};
use hgl_elf::Binary;
use hgl_emu::Event;
use hgl_rewrite::{rewrite, RewriteError, RewriteOutput, RewritePass, ShadowStackPass};
use hgl_x86::{decode, Mnemonic, Reg, RegRef};
use std::collections::BTreeMap;
use std::fmt;

/// How a raw differential run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffStop {
    /// Returned to the sentinel return address.
    Returned,
    /// Called a terminating external (`exit`, `abort`, …).
    Terminated,
    /// The normalised step budget ran out.
    StepLimit,
    /// Halted inside the rewritten binary's guard section: a
    /// shadow-stack guard fired.
    GuardTrap(u64),
    /// Anything else the harness cannot continue from (undecodable
    /// `rip`, emulator fault, stray `hlt`).
    Fault(String),
}

impl fmt::Display for DiffStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffStop::Returned => f.write_str("returned"),
            DiffStop::Terminated => f.write_str("terminated"),
            DiffStop::StepLimit => f.write_str("step-limit"),
            DiffStop::GuardTrap(a) => write!(f, "guard-trap@{a:#x}"),
            DiffStop::Fault(s) => write!(f, "fault: {s}"),
        }
    }
}

/// The observable outcome of one raw run, already normalised.
pub struct RunSummary {
    /// Normalised executed-instruction addresses.
    pub rips: Vec<u64>,
    /// Stop cause.
    pub stop: DiffStop,
    /// Final GPR values, in [`Reg::ALL`] order.
    pub regs: [u64; 16],
    /// Final flags, packed.
    pub flags: (bool, bool, bool, bool, bool, bool),
    /// Final memory delta against the pre-run state (address →
    /// value), shadow section excluded. A byte the run first
    /// materialised by reading it (under the zero fill) counts as
    /// changed too, so reads of unwritten memory show up here.
    pub writes: BTreeMap<u64, u8>,
    /// Raw (pre-normalisation) step count.
    pub raw_steps: usize,
}

/// Run `bin` from its ELF entry with entry state `es`. When `out` is
/// given, the run is a rewritten-binary run: its `rip`s are normalised
/// through the output's address maps, halts inside the guard section
/// become [`DiffStop::GuardTrap`], and shadow-section writes are
/// excluded from the memory delta. Steps are budgeted on *normalised*
/// steps so both sides of a differential pair get the same budget.
pub fn run_raw(bin: &Binary, es: &EntryState, out: Option<&RewriteOutput>, max_steps: usize) -> RunSummary {
    let mut m = es.machine(bin);
    let baseline = m.mem.clone();

    let mut rips = Vec::new();
    let mut raw_steps = 0usize;
    let stop = 'run: loop {
        if rips.len() >= max_steps {
            break DiffStop::StepLimit;
        }
        if m.rip == SENTINEL {
            break DiffStop::Returned;
        }
        let Some(window) = bin.fetch_window(m.rip) else {
            break DiffStop::Fault(format!("undecodable rip {:#x}", m.rip));
        };
        let instr = match decode(window, m.rip) {
            Ok(i) => i,
            Err(e) => break DiffStop::Fault(format!("decode at {:#x}: {e}", m.rip)),
        };
        raw_steps += 1;
        match out {
            Some(o) => {
                if let Some(orig) = o.normalize_rip(instr.addr) {
                    rips.push(orig);
                }
            }
            None => rips.push(instr.addr),
        }
        match m.exec(&instr) {
            Ok(Event::Halt) => {
                if let Some(o) = out {
                    if o.shadow.map(|s| s.in_guard(instr.addr)).unwrap_or(false) {
                        break DiffStop::GuardTrap(instr.addr);
                    }
                }
                break DiffStop::Fault(format!("halt at {:#x}", instr.addr));
            }
            Ok(_) => {}
            Err(e) => break DiffStop::Fault(format!("emulator at {:#x}: {e:?}", instr.addr)),
        }
        // External call: the emulator landed on a PLT stub; replay the
        // benign System V contract exactly as the conformance oracle
        // does (terminating externals end the trace).
        if instr.mnemonic == Mnemonic::Call {
            if let Some(name) = bin.external_at(m.rip) {
                if TERMINATING_EXTERNALS.contains(&name) {
                    break 'run DiffStop::Terminated;
                }
                let rsp = m.reg(Reg::Rsp);
                let ra = m.mem.read(rsp, 8);
                m.set_reg(RegRef::full(Reg::Rsp), rsp.wrapping_add(8));
                m.set_reg(RegRef::full(Reg::Rax), 0);
                m.rip = ra;
            }
        }
    };

    let shadow = out.and_then(|o| o.shadow);
    let writes: BTreeMap<u64, u8> = m
        .mem
        .changed_since(&baseline)
        .filter(|&(a, _)| !shadow.is_some_and(|s| s.in_shadow(a)))
        .collect();
    let mut regs = [0u64; 16];
    for (slot, r) in regs.iter_mut().zip(Reg::ALL) {
        *slot = m.reg(r);
    }
    let f = &m.flags;
    RunSummary {
        rips,
        stop,
        regs,
        flags: (f.cf, f.pf, f.zf, f.sf, f.of, f.df),
        writes,
        raw_steps,
    }
}

/// Compare an original run against a normalised rewritten run. `None`
/// means equivalent; `Some(detail)` describes the first divergence.
/// `guarded` relaxes exactly the documented guard ABI: `r10`, `r11`
/// and the flags are not compared.
pub fn compare_runs(orig: &RunSummary, rw: &RunSummary, guarded: bool) -> Option<String> {
    if orig.stop != rw.stop {
        return Some(format!("stop causes differ: original {}, rewritten {}", orig.stop, rw.stop));
    }
    if orig.rips != rw.rips {
        let i = orig.rips.iter().zip(&rw.rips).position(|(a, b)| a != b).unwrap_or_else(|| orig.rips.len().min(rw.rips.len()));
        return Some(format!(
            "trace diverges at normalised step {i}: original {:?} vs rewritten {:?} (lengths {} vs {})",
            orig.rips.get(i),
            rw.rips.get(i),
            orig.rips.len(),
            rw.rips.len()
        ));
    }
    for (k, r) in Reg::ALL.iter().enumerate() {
        if guarded && matches!(r, Reg::R10 | Reg::R11) {
            continue;
        }
        if orig.regs[k] != rw.regs[k] {
            return Some(format!(
                "final {r:?} differs: {:#x} vs {:#x}",
                orig.regs[k], rw.regs[k]
            ));
        }
    }
    if !guarded && orig.flags != rw.flags {
        return Some(format!("final flags differ: {:?} vs {:?}", orig.flags, rw.flags));
    }
    if orig.writes != rw.writes {
        let diff: Vec<String> = orig
            .writes
            .iter()
            .filter(|(a, v)| rw.writes.get(a) != Some(v))
            .chain(rw.writes.iter().filter(|(a, v)| orig.writes.get(a) != Some(v)))
            .take(8)
            .map(|(a, v)| format!("{a:#x}={v:#04x}"))
            .collect();
        return Some(format!("memory write-deltas differ at: {}", diff.join(", ")));
    }
    None
}

/// Differential campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Master seed; programs and entry states derive from it exactly
    /// as in the conformance campaign.
    pub master_seed: u64,
    /// Programs to synthesize.
    pub programs: usize,
    /// Entry states per program.
    pub entries_per_program: usize,
    /// Normalised per-trace step budget.
    pub max_steps: usize,
    /// Apply the shadow-stack pass (guard-ABI-relaxed comparison)
    /// instead of identity rewriting (exact comparison).
    pub guarded: bool,
    /// Additionally re-lift each identity-rewritten ELF and require
    /// Hoare-Graph correspondence with the original lift.
    pub relift_each: bool,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            master_seed: 0x0e11_ab1e_5eed,
            programs: 60,
            entries_per_program: 4,
            max_steps: 20_000,
            guarded: false,
            relift_each: false,
        }
    }
}

/// A differential divergence: the rewritten binary observably differs
/// from the original, with a replay recipe and a shrunk reproducer.
#[derive(Debug, Clone)]
pub struct DiffDivergence {
    /// Campaign master seed.
    pub master_seed: u64,
    /// Program index.
    pub program: usize,
    /// Entry-state index.
    pub entry: usize,
    /// What differed.
    pub detail: String,
    /// The minimal reproducer, if the divergence was shrunk.
    pub shrunk: Option<ShrinkResult>,
}

impl fmt::Display for DiffDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.detail)?;
        writeln!(
            f,
            "replay: master_seed={:#x} program={} entry={}",
            self.master_seed, self.program, self.entry
        )?;
        match &self.shrunk {
            Some(s) => write!(f, "{s}"),
            None => writeln!(f, "(not shrunk)"),
        }
    }
}

/// What a differential campaign did and found.
pub struct DiffReport {
    /// Programs rewritten and traced.
    pub programs_run: usize,
    /// Programs skipped (assembly failure, lifter reject).
    pub programs_skipped: usize,
    /// Programs where the rewriter *refused* (unsafe steal site). A
    /// refusal is not a divergence — the rewriter's contract is
    /// refuse-or-be-equivalent — but it is counted for visibility.
    pub rewrite_refused: usize,
    /// Differential trace pairs run.
    pub traces_run: usize,
    /// Total raw steps across both sides of all pairs.
    pub steps_total: usize,
    /// Shadow-stack guards inserted across all rewritten programs.
    pub guards_inserted: u64,
    /// Identity re-lift correspondence checks that passed (when
    /// [`DiffConfig::relift_each`] is on).
    pub relifts_ok: usize,
    /// The first divergence, shrunk — `None` means full equivalence.
    pub divergence: Option<DiffDivergence>,
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "differential campaign: {} programs ({} skipped, {} refused), {} trace pairs, \
             {} steps, {} guards, {} re-lifts ok",
            self.programs_run,
            self.programs_skipped,
            self.rewrite_refused,
            self.traces_run,
            self.steps_total,
            self.guards_inserted,
            self.relifts_ok
        )?;
        if let Some(d) = &self.divergence {
            writeln!(f, "DIVERGENCE:\n{d}")?;
        }
        Ok(())
    }
}

/// Lift and rewrite one program as the campaign does: `None` when the
/// lifter rejects the binary or any function (the campaign skips it),
/// otherwise the lift and the rewriter's answer. Used by both the
/// campaign and the shrinker's reproduction predicate.
fn lift_and_rewrite(bin: &Binary, guarded: bool) -> Option<(LiftResult, Result<RewriteOutput, RewriteError>)> {
    let lifted = Lifter::new(bin).lift_entry(bin.entry);
    if lifted.binary_reject.is_some() || lifted.functions.values().any(|f| f.reject.is_some()) {
        return None;
    }
    let shadow = ShadowStackPass;
    let passes: Vec<&dyn RewritePass> = if guarded { vec![&shadow] } else { Vec::new() };
    let out = rewrite(bin, &lifted, &passes);
    Some((lifted, out))
}

/// Run a full differential campaign: synthesize programs, lift,
/// rewrite (identity or shadow-stack), and replay every seeded entry
/// state on both binaries. Stops at the first divergence, which is
/// shrunk to a minimal reproducer.
pub fn run_differential(cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport {
        programs_run: 0,
        programs_skipped: 0,
        rewrite_refused: 0,
        traces_run: 0,
        steps_total: 0,
        guards_inserted: 0,
        relifts_ok: 0,
        divergence: None,
    };
    'programs: for p in 0..cfg.programs {
        let prog = synth_program(cfg.master_seed, p);
        let Ok(bin) = prog.asm.assemble() else {
            report.programs_skipped += 1;
            continue;
        };
        let Some((lifted, out)) = lift_and_rewrite(&bin, cfg.guarded) else {
            report.programs_skipped += 1;
            continue;
        };
        let out = match out {
            Ok(o) => o,
            Err(RewriteError::UnsafeStealSite { .. }) => {
                report.rewrite_refused += 1;
                continue;
            }
            Err(e) => {
                // Any other rewrite error on a cleanly lifted program
                // is itself a defect worth surfacing as a divergence.
                report.divergence = Some(DiffDivergence {
                    master_seed: cfg.master_seed,
                    program: p,
                    entry: 0,
                    detail: format!("rewrite failed on a lifted program: {e}"),
                    shrunk: None,
                });
                break 'programs;
            }
        };
        report.programs_run += 1;
        report.guards_inserted += out.stats.guards_inserted;
        if cfg.relift_each && !cfg.guarded {
            let image = hgl_rewrite::elf_image(&out.binary);
            let reparsed = match Binary::parse(&image) {
                Ok(b) => b,
                Err(e) => {
                    report.divergence = Some(DiffDivergence {
                        master_seed: cfg.master_seed,
                        program: p,
                        entry: 0,
                        detail: format!("re-emitted ELF does not parse: {e:?}"),
                        shrunk: None,
                    });
                    break 'programs;
                }
            };
            let verdict = hgl_rewrite::verify_relift(&lifted, &reparsed);
            if !verdict.ok() {
                report.divergence = Some(DiffDivergence {
                    master_seed: cfg.master_seed,
                    program: p,
                    entry: 0,
                    detail: format!(
                        "re-lift graph mismatch: {:?}",
                        verdict.report.details
                    ),
                    shrunk: None,
                });
                break 'programs;
            }
            report.relifts_ok += 1;
        }
        for k in 0..cfg.entries_per_program {
            let es = entry_state(cfg.master_seed, p, k);
            let orig = run_raw(&bin, &es, None, cfg.max_steps);
            let rw = run_raw(&out.binary, &es, Some(&out), cfg.max_steps);
            report.traces_run += 1;
            report.steps_total += orig.raw_steps + rw.raw_steps;
            if let Some(detail) = compare_runs(&orig, &rw, cfg.guarded) {
                // Keep a removal while *some* divergence still
                // reproduces on the same entry state.
                let shrunk = shrink(&prog.asm, &prog.spans, |candidate| {
                    let Ok(bin) = candidate.assemble() else { return false };
                    let Some((_, Ok(out))) = lift_and_rewrite(&bin, cfg.guarded) else { return false };
                    let orig = run_raw(&bin, &es, None, cfg.max_steps);
                    let rw = run_raw(&out.binary, &es, Some(&out), cfg.max_steps);
                    compare_runs(&orig, &rw, cfg.guarded).is_some()
                });
                report.divergence = Some(DiffDivergence {
                    master_seed: cfg.master_seed,
                    program: p,
                    entry: k,
                    detail,
                    shrunk: Some(shrunk),
                });
                break 'programs;
            }
        }
    }
    report
}
