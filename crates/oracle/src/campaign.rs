//! Differential campaigns: synthesize programs, lift them, and replay
//! many seeded traces per program against the Hoare Graph.
//!
//! Everything is derived deterministically from one master seed, so a
//! failure is replayable from a single printed line: the master seed,
//! the program index and the entry-state index reconstruct the exact
//! program, lift and trace.

use crate::coverage::{Coverage, CoverageFloor};
use crate::shrink::{shrink, ShrinkResult};
use crate::trace::{EntryState, TraceOracle, Violation};
use hgl_asm::Asm;
use hgl_core::{Budget, BudgetMeter, LiftResult, Lifter, RejectReason};
use hgl_corpus::{GenOptions, ProgramGen};
use hgl_elf::Binary;
use hgl_x86::Mnemonic;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: every program and entry state derives from it.
    pub master_seed: u64,
    /// Number of programs to synthesize.
    pub programs: usize,
    /// Seeded entry states per program.
    pub entries_per_program: usize,
    /// Per-trace step budget.
    pub max_steps: usize,
    /// Wall-clock safety net for the whole campaign.
    pub budget: Budget,
    /// Trace against a mutated lift: every edge from a `jcc` to its
    /// fall-through is removed after lifting. The lifter itself is
    /// unchanged; the mutation proves the oracle catches a lifter that
    /// drops an edge.
    pub inject_drop_jcc_fallthrough: bool,
    /// Cross-validate static write classifications against concrete
    /// writes on every trace.
    pub check_write_classes: bool,
    /// Run the analyze→re-lift indirect-jump refinement before
    /// tracing, and cross-validate every refinement claim: a concrete
    /// indirect jump at a claimed address must land inside the claimed
    /// target set.
    pub refine_indirect: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            master_seed: 0x0e11_ab1e_5eed,
            programs: 50,
            entries_per_program: 4,
            max_steps: 20_000,
            budget: Budget::unlimited(),
            inject_drop_jcc_fallthrough: false,
            check_write_classes: true,
            refine_indirect: false,
        }
    }
}

/// A synthesized campaign program.
pub struct SynthProgram {
    /// The assembly program (shrinking rebuilds candidates from it).
    pub asm: Asm,
    /// Generator segment spans, for span-level shrinking.
    pub spans: Vec<(usize, usize)>,
    /// The options the entry function was generated with.
    pub opts: GenOptions,
}

/// splitmix64 — deterministic seed derivation without `rand`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generation profile for program `index` (rotates through four
/// shapes so every campaign exercises all edge kinds).
fn profile(index: usize) -> GenOptions {
    let base = GenOptions {
        segments: 3,
        callees: Vec::new(),
        externals: vec!["puts".into(), "malloc".into(), "free".into(), "memcpy".into()],
        p_jump_table: 0.1,
        p_masked_table: 0.0,
        p_callback: 0.0,
        p_wild_jump: 0.0,
        p_param_write: 0.1,
    };
    match index % 4 {
        // Plain straight-line/branchy code.
        0 => base,
        // Jump-table heavy, with masked (cmp-less) tables the inline
        // lift cannot resolve — the refinement campaign's raw material.
        1 => GenOptions { p_jump_table: 0.35, p_masked_table: 0.15, ..base },
        // Callback (annotated indirect call) heavy.
        2 => GenOptions { p_callback: 0.4, p_jump_table: 0.05, ..base },
        // Mixed, slightly larger.
        _ => GenOptions {
            segments: 4,
            p_jump_table: 0.15,
            p_callback: 0.05,
            p_wild_jump: 0.05,
            ..base
        },
    }
}

/// Deterministically synthesize campaign program `index`.
pub fn synth_program(master_seed: u64, index: usize) -> SynthProgram {
    let mut rng = SmallRng::seed_from_u64(mix(master_seed ^ (index as u64).wrapping_mul(0x51_7cc1_b727_2205)));
    let mut pg = ProgramGen::new();
    let helper_opts = profile(index);
    let helpers = 1 + index % 2;
    let mut callees = Vec::new();
    for h in 0..helpers {
        let name = format!("helper_{h}");
        pg.gen_function(&name, &mut rng, &helper_opts);
        callees.push(name);
    }
    let opts = GenOptions { callees, ..profile(index) };
    pg.gen_function("main", &mut rng, &opts);
    pg.asm.entry("main");
    SynthProgram { asm: pg.asm, spans: pg.segment_spans, opts }
}

/// Deterministically derive entry state `entry` of program `program`.
///
/// `rdi` doubles as the jump-table selector: the first three entries
/// use small indices (hitting table cases), later ones use large
/// values (hitting the bounds-checked default).
pub fn entry_state(master_seed: u64, program: usize, entry: usize) -> EntryState {
    let mut rng = SmallRng::seed_from_u64(mix(
        master_seed ^ mix(program as u64) ^ (entry as u64).wrapping_mul(0xd6e8_feb8_6659_fd93),
    ));
    let rdi = if entry < 3 { entry as u64 } else { 64 + rng.gen_range(0..0x1000u64) };
    let scratch = [
        rng.gen::<u64>() & 0xffff,
        rng.gen::<u64>() & 0xffff,
        rng.gen::<u64>() & 0xffff,
        rng.gen::<u64>(),
        rng.gen::<u64>() & 0xff,
        rng.gen::<u64>() & 0xff,
    ];
    EntryState { rdi, scratch }
}

/// The campaign's injected lifter bug: remove, from every function of
/// `lifted`, each edge that a `jcc` labels and that leads to the
/// `jcc`'s next address. The fall-through vertex and everything after
/// it stay, so the graph under-approximates control flow exactly like a
/// lifter that explored the fall-through but recorded no edge for it.
fn drop_jcc_fallthrough(lifted: &mut LiftResult) {
    for f in lifted.functions.values_mut() {
        let g = &f.graph;
        let kept = g.edges.iter().filter(|e| {
            let i = g.edge_instr(e);
            !(matches!(i.mnemonic, Mnemonic::Jcc(_)) && e.to.addr() == Some(i.next_addr()))
        });
        f.graph.edges = kept.copied().collect();
    }
}

/// The short head of a reject reason, for coverage accounting.
fn reject_head(r: &RejectReason) -> String {
    let s = format!("{r:?}");
    s.split(['(', ' ', '{'])
        .next()
        .unwrap_or("unknown")
        .to_string()
}

/// A program lifted the way the campaign traces it.
pub struct ProgramLift {
    bin: Binary,
    /// Refined when the campaign refines, mutated when it injects the
    /// lifter bug.
    lifted: LiftResult,
    /// The refinement's resolved-indirection claims, when refined.
    claims: Option<BTreeMap<u64, BTreeSet<u64>>>,
    check_write_classes: bool,
    max_steps: usize,
}

impl ProgramLift {
    /// The trace oracle over this lift, with the campaign's checks.
    pub fn oracle(&self) -> TraceOracle<'_> {
        let mut oracle = TraceOracle::new(&self.bin, &self.lifted);
        if self.check_write_classes {
            oracle = oracle.with_write_classes();
        }
        if let Some(claims) = &self.claims {
            oracle = oracle.with_indirect_claims(claims.clone());
        }
        oracle.max_steps = self.max_steps;
        oracle
    }
}

/// The campaign's check of one program: lift `bin`, refined when
/// `cfg.refine_indirect` is set, and apply the injected lifter bug when
/// configured. A program with a binary or function reject is not
/// traced, because a trace that calls into a rejected function would
/// report a spurious bounded-control-flow violation; `Err` carries its
/// reject heads, for coverage accounting. The campaign loop and its
/// shrink predicate both call this, so a shrink ends on a program the
/// campaign would trace.
pub fn lift_program(cfg: &CampaignConfig, bin: Binary) -> Result<ProgramLift, Vec<String>> {
    let mut lifter = Lifter::new(&bin);
    let (mut lifted, claims) = if cfg.refine_indirect {
        let (lifted, refined) =
            lifter.lift_entry_refined(bin.entry, &hgl_analysis::VsaResolver, 8);
        (lifted, Some(refined.hints))
    } else {
        (lifter.lift_entry(bin.entry), None)
    };
    let rejects: Vec<String> = match &lifted.binary_reject {
        Some(r) => vec![reject_head(r)],
        None => lifted.functions.values().filter_map(|f| f.reject.as_ref()).map(reject_head).collect(),
    };
    if !rejects.is_empty() {
        return Err(rejects);
    }
    if cfg.inject_drop_jcc_fallthrough {
        drop_jcc_fallthrough(&mut lifted);
    }
    Ok(ProgramLift {
        bin,
        lifted,
        claims,
        check_write_classes: cfg.check_write_classes,
        max_steps: cfg.max_steps,
    })
}

/// A campaign failure: everything needed to reproduce and report it.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// The master seed the campaign ran with.
    pub master_seed: u64,
    /// Failing program index.
    pub program: usize,
    /// Failing entry-state index.
    pub entry: usize,
    /// The options the failing program was generated with.
    pub opts: GenOptions,
    /// The conformance violation.
    pub violation: Violation,
    /// The minimal reproducer, if shrinking succeeded.
    pub shrunk: Option<ShrinkResult>,
}

impl fmt::Display for CampaignFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.violation)?;
        writeln!(
            f,
            "replay: master_seed={:#x} program={} entry={}",
            self.master_seed, self.program, self.entry
        )?;
        writeln!(f, "gen-options: {:?}", self.opts)?;
        match &self.shrunk {
            Some(s) => write!(f, "{s}"),
            None => writeln!(f, "(not shrunk)"),
        }
    }
}

/// What a campaign did and found.
pub struct CampaignReport {
    /// Programs synthesized and traced.
    pub programs_run: usize,
    /// Programs skipped because the lifter rejected part of them.
    pub programs_skipped: usize,
    /// Traces replayed.
    pub traces_run: usize,
    /// Total steps checked across all traces.
    pub steps_total: usize,
    /// Concrete writes checked against static write-class claims.
    pub writes_checked: usize,
    /// Concrete indirect jumps checked against refinement claims.
    pub indirect_checked: usize,
    /// Indirect jumps the refinement resolved across all lifted
    /// programs (the Table-1 column A contribution of refinement).
    pub indirections_resolved: usize,
    /// What the campaign exercised.
    pub coverage: Coverage,
    /// The first failure, shrunk — `None` means full conformance.
    pub failure: Option<CampaignFailure>,
    /// Floor entries the campaign missed (empty = floor holds).
    pub floor_missing: Vec<String>,
    /// The campaign hit its wall-clock budget and stopped early.
    pub budget_exhausted: bool,
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} programs ({} skipped), {} traces, {} steps, {} writes checked, \
             {} indirect jumps checked ({} resolved statically){}",
            self.programs_run,
            self.programs_skipped,
            self.traces_run,
            self.steps_total,
            self.writes_checked,
            self.indirect_checked,
            self.indirections_resolved,
            if self.budget_exhausted { " [budget exhausted]" } else { "" }
        )?;
        writeln!(f, "{}", self.coverage)?;
        for m in &self.floor_missing {
            writeln!(f, "coverage floor MISSED: {m}")?;
        }
        if let Some(fail) = &self.failure {
            writeln!(f, "FAILURE:\n{fail}")?;
        }
        Ok(())
    }
}

/// Run a full campaign. Stops at the first conformance violation
/// (which is then shrunk) or when the budget runs out.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let meter = BudgetMeter::start(&cfg.budget);
    let mut coverage = Coverage::default();
    let mut report = CampaignReport {
        programs_run: 0,
        programs_skipped: 0,
        traces_run: 0,
        steps_total: 0,
        writes_checked: 0,
        indirect_checked: 0,
        indirections_resolved: 0,
        coverage: Coverage::default(),
        failure: None,
        floor_missing: Vec::new(),
        budget_exhausted: false,
    };

    'programs: for p in 0..cfg.programs {
        if meter.check_global().is_some() {
            report.budget_exhausted = true;
            break;
        }
        let prog = synth_program(cfg.master_seed, p);
        let bin = match prog.asm.assemble() {
            Ok(b) => b,
            Err(e) => {
                // Generator bug, not a lifter bug — count and move on.
                coverage.record_reject(format!("assemble:{e}"));
                report.programs_skipped += 1;
                continue;
            }
        };
        let lift = match lift_program(cfg, bin) {
            Ok(l) => l,
            Err(rejects) => {
                rejects.into_iter().for_each(|r| coverage.record_reject(r));
                report.programs_skipped += 1;
                continue;
            }
        };
        report.programs_run += 1;
        report.indirections_resolved += lift.lifted.indirection_counts().0;

        let oracle = lift.oracle();
        for k in 0..cfg.entries_per_program {
            if meter.check_global().is_some() {
                report.budget_exhausted = true;
                break 'programs;
            }
            let es = entry_state(cfg.master_seed, p, k);
            let outcome = oracle.check_trace(&es, &mut coverage);
            report.traces_run += 1;
            report.steps_total += outcome.steps;
            report.writes_checked += outcome.writes_checked;
            report.indirect_checked += outcome.indirect_checked;
            if let Some(v) = outcome.violation {
                let shrunk = shrink(&prog.asm, &prog.spans, |candidate| {
                    let Ok(bin) = candidate.assemble() else { return false };
                    lift_program(cfg, bin).is_ok_and(|l| {
                        let outcome = l.oracle().check_trace(&es, &mut Coverage::default());
                        outcome.violation.is_some_and(|c| c.kind == v.kind)
                    })
                });
                report.failure = Some(CampaignFailure {
                    master_seed: cfg.master_seed,
                    program: p,
                    entry: k,
                    opts: prog.opts.clone(),
                    violation: v,
                    shrunk: Some(shrunk),
                });
                break 'programs;
            }
        }
    }

    report.floor_missing = coverage.missing(&CoverageFloor::default());
    report.coverage = coverage;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program with a function reject and no binary reject is skipped,
    /// and the reject's head is reported for coverage.
    #[test]
    fn lift_program_skips_a_function_reject() {
        let bin = hgl_corpus::failures::stack_probe();
        let lifted = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(lifted.binary_reject.is_none());
        assert_eq!(lifted.functions.values().filter(|f| f.reject.is_some()).count(), 1);
        let rejects = lift_program(&CampaignConfig::default(), bin).err().expect("the program is skipped");
        assert_eq!(rejects, ["Verification"]);
    }
}
