//! The symbolic step function `step_Σ` (Definition 4.2) and the
//! predicate transformer `τ`.
//!
//! Given a symbolic state and a decoded instruction, [`step`] produces
//! the overapproximating set of successor states. Memory-operand
//! regions are evaluated against the predicate and inserted into the
//! memory model (forking per §2 when pointer relations are unknown);
//! the predicate is then transformed per instruction semantics.

use crate::diag::{Annotation, Diagnostics, ProofObligation, VerificationError};
use crate::memmodel::InsBranch;
use crate::pred::{FlagState, Pred, Shared, SymState};
use hgl_elf::Binary;
use hgl_expr::{Clause, Expr, Rel, Sym};
use hgl_solver::{Ctx, Layout, Provenance, Region, RegionRel};
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, RegRef, RepPrefix, Width};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum memory models produced by one insertion.
pub const MAX_MODELS_PER_STEP: usize = 16;

/// Maximum entries enumerated from one jump table. A table with more
/// slots is left unresolved. The value-set recovery in `hgl-analysis`
/// reads the same cap, so τ and the recovery refuse the same tables.
pub const MAX_JUMP_TABLE: u64 = 1024;

/// Maximum expression size before degrading to ⊥.
pub const MAX_EXPR_NODES: usize = 256;

/// Mutable context for one step.
pub struct StepCtx<'a> {
    /// The binary being lifted.
    pub binary: &'a Binary,
    /// Its section layout (for provenance classification). Shared:
    /// built once per binary by the engine; every step and every
    /// solver context holds a handle instead of copying section
    /// tables.
    pub layout: std::sync::Arc<Layout>,
    /// Externally resolved indirect-branch targets (borrowed from
    /// [`LiftConfig::indirect_hints`](crate::lift::LiftConfig::indirect_hints);
    /// one copy per lift, not per step).
    pub indirect_hints: &'a BTreeMap<u64, BTreeSet<u64>>,
    /// Fresh-symbol counter.
    pub fresh: &'a mut u64,
    /// Diagnostics sink.
    pub diags: &'a mut Diagnostics,
    /// Shared solver-query memo table, attached to every solver
    /// context this step constructs. `None` outside an engine session.
    pub cache: Option<std::sync::Arc<hgl_solver::QueryCache>>,
    /// Metrics sink for phase timings. `None` disables timing.
    pub metrics: Option<&'a crate::metrics::Metrics>,
}

impl<'a> StepCtx<'a> {
    fn fresh_sym(&mut self) -> Expr {
        let id = *self.fresh;
        *self.fresh += 1;
        Expr::sym(Sym::Fresh(id))
    }

    fn solver_ctx(&self, pred: &Pred) -> Ctx {
        let build = || Ctx::from_clauses(pred.clauses.iter(), std::sync::Arc::clone(&self.layout));
        let ctx = match self.metrics {
            Some(m) => m.time(crate::metrics::Phase::Solver, build),
            None => build(),
        };
        match &self.cache {
            Some(cache) => ctx.with_cache(std::sync::Arc::clone(cache)),
            None => ctx,
        }
    }
}

/// A successor produced by one symbolic step.
#[derive(Debug, Clone)]
pub enum Successor {
    /// Control continues at a concrete address.
    At(u64, SymState),
    /// The function returns (rip evaluates to its return symbol) with
    /// the given final state.
    Return(SymState),
    /// An internal call: the callee must be explored (context-free)
    /// and `after` becomes reachable only once the callee provably
    /// returns (§4.2.2).
    CallInternal {
        /// Callee entry address.
        callee: u64,
        /// Return-site address.
        return_site: u64,
        /// Caller state at the return site (post-call cleaning applied).
        after: SymState,
    },
}

/// External functions known to never return (§4.2.1).
pub const TERMINATING_EXTERNALS: &[&str] = &[
    "exit",
    "_exit",
    "abort",
    "__stack_chk_fail",
    "__assert_fail",
    "err",
    "errx",
    "exit_group",
    "pthread_exit",
    "longjmp",
];

/// System V volatile (caller-saved) registers havocked by calls.
const VOLATILE: &[Reg] =
    &[Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::Rsi, Reg::Rdi, Reg::R8, Reg::R9, Reg::R10, Reg::R11];

/// The effective-address expression of a memory operand, evaluated
/// against a predicate's register bindings. Public so that downstream
/// analyses (write classification in `hgl-analysis`) and the trace
/// oracle compute the *same* address a step would.
pub fn addr_expr(pred: &Pred, m: &MemOperand, next: u64) -> Expr {
    if m.rip_relative {
        return Expr::imm(next.wrapping_add(m.disp as u64));
    }
    let mut e = Expr::imm(m.disp as u64);
    if let Some(b) = m.base {
        e = e.add(pred.reg(b));
    }
    if let Some(i) = m.index {
        e = e.add(pred.reg(i).mul(Expr::imm(m.scale as u64)));
    }
    e
}

/// Read the value of a region from the state, consulting (in order)
/// the predicate's known contents, the memory model's alias/enclosure
/// structure, and the binary's read-only image; otherwise materialise
/// a fresh symbol so that repeated reads agree.
fn read_region(ctx: &mut StepCtx<'_>, state: &mut SymState, region: &Region) -> Expr {
    if region.is_unknown() {
        return Expr::bottom();
    }
    if let Some(v) = state.pred.mem_value(region) {
        return *v;
    }
    let sctx = ctx.solver_ctx(&state.pred);
    // Alias or constant-offset enclosure against a recorded region.
    let entries: Vec<(Region, Expr)> =
        state.pred.mem.iter().map(|(r, v)| (*r, *v)).collect();
    for (r1, v1) in &entries {
        match state.model.relation(&sctx, region, r1).rel {
            RegionRel::Alias => return *v1,
            RegionRel::Enclosed if region.size <= 8 && r1.size <= 8 => {
                // Extract bytes at a constant offset.
                let d = region.linear().diff(r1.linear());
                if let Some(off) = d.as_constant() {
                    // Odd-sized regions (3, 5, 6, 7 bytes) have no
                    // operand width; fall through to a fresh symbol.
                    if let Some(w) = Width::try_from_bytes(region.size as u8) {
                        if off >= 0 && (off as u64 + region.size) <= r1.size {
                            let shifted = (*v1).shr(Expr::imm(8 * off as u64));
                            return shifted.trunc(w);
                        }
                    }
                }
            }
            _ => {}
        }
    }
    // Constant address in a non-writable segment: read the image.
    if let Some(addr) = region.addr.as_imm() {
        if region.size <= 8 {
            let read_only = ctx
                .binary
                .segments
                .iter()
                .any(|s| !s.flags.w && s.covers(addr, region.size));
            if read_only {
                if let Some(v) = ctx.binary.read_int(addr, region.size as u8) {
                    // The lifted output now depends on these image
                    // bytes: record them so the artifact store's
                    // content hash covers them.
                    ctx.diags.image_reads.insert((addr, region.size as u8));
                    return Expr::imm(v);
                }
            }
        }
    }
    // Unknown contents: a fresh-but-fixed symbol, memoised.
    let v = ctx.fresh_sym();
    if region.size <= 8 {
        state.pred.set_mem(*region, v);
    }
    v
}

/// Write `value` to `region`: invalidate everything not provably
/// separate, honouring the model's structural assertions.
fn write_region(ctx: &mut StepCtx<'_>, state: &mut SymState, region: &Region, value: Expr) {
    let sctx = ctx.solver_ctx(&state.pred);
    if region.is_unknown() {
        // A write to an unknown address may hit anything.
        state.pred.mem.clear();
        return;
    }
    let stored: Vec<Region> = state.pred.mem.keys().cloned().collect();
    for r1 in stored {
        if r1 == *region {
            continue;
        }
        let answer = state.model.relation(&sctx, region, &r1);
        for a in answer.assumptions {
            ctx.diags.assume(a);
        }
        match answer.rel {
            RegionRel::Separate => {}
            RegionRel::Alias => {
                state.pred.set_mem(r1, value);
            }
            _ => state.pred.forget_mem(&r1),
        }
    }
    let v = if value.node_count() > MAX_EXPR_NODES { Expr::bottom() } else { value };
    if region.size <= 8 && !v.is_bottom() {
        state.pred.set_mem(*region, v);
    }
}

/// Evaluate an operand to a (zero-extended) value expression of the
/// instruction's width.
fn read_operand(
    ctx: &mut StepCtx<'_>,
    state: &mut SymState,
    op: &Operand,
    w: Width,
    next: u64,
) -> Expr {
    match op {
        Operand::Reg(r) => state.pred.reg_ref(*r),
        Operand::Imm(v) => Expr::imm(w.trunc(*v as u64)),
        Operand::Mem(m) => {
            let addr = addr_expr(&state.pred, m, next);
            let region = Region::new(addr, m.size.bytes() as u64);
            read_region(ctx, state, &region)
        }
    }
}

/// Write a value to an operand destination.
fn write_operand(ctx: &mut StepCtx<'_>, state: &mut SymState, op: &Operand, v: Expr, next: u64) {
    let v = if v.node_count() > MAX_EXPR_NODES { Expr::bottom() } else { v };
    match op {
        Operand::Reg(r) => state.pred.write_reg_ref(*r, v),
        Operand::Mem(m) => {
            let addr = addr_expr(&state.pred, m, next);
            let region = Region::new(addr, m.size.bytes() as u64);
            write_region(ctx, state, &region, v);
        }
        Operand::Imm(_) => unreachable!("immediate as destination"),
    }
}

/// Insert every memory region accessed by `instr` into the memory
/// model, forking per Definition 3.7. Returns the branched states.
/// Also enforces return-address integrity: an *unknown-relation* write
/// into the frame region holding the return address rejects the
/// function (§1).
fn insert_regions(
    ctx: &mut StepCtx<'_>,
    state: SymState,
    instr: &Instr,
) -> Result<Vec<SymState>, VerificationError> {
    let next = instr.next_addr();
    let mut regions: Vec<(Region, bool)> = Vec::new(); // (region, is_write)
    // `lea` computes an address without touching memory; its Mem
    // operand is not an access. An indirect `jmp [mem]` does read, but
    // the read is terminal: its value only feeds branch resolution,
    // which re-derives the table from the operand (or falls back to an
    // annotation). Forking an aliasing model for it would manufacture
    // an assumed-alias branch against the return-address slot whose
    // read yields the return symbol — a spurious tail transfer that
    // rejects the function on an assumption the lifter itself invented.
    let address_only = matches!(instr.mnemonic, Mnemonic::Lea | Mnemonic::Jmp);
    for (i, op) in instr.operands.iter().enumerate() {
        if address_only {
            continue;
        }
        if let Operand::Mem(m) = op {
            let addr = addr_expr(&state.pred, m, next);
            let is_write = i == 0 && writes_first_operand(instr.mnemonic);
            regions.push((Region::new(addr, m.size.bytes() as u64), is_write));
        }
    }
    // Implicit stack accesses.
    let rsp = state.pred.reg(Reg::Rsp);
    match instr.mnemonic {
        Mnemonic::Push | Mnemonic::Call => {
            regions.push((Region::new(rsp.sub(Expr::imm(8)), 8), true));
        }
        Mnemonic::Pop | Mnemonic::Ret => {
            regions.push((Region::new(rsp, 8), false));
        }
        Mnemonic::Leave => {
            regions.push((Region::new(state.pred.reg(Reg::Rbp), 8), false));
        }
        _ => {}
    }

    // Ownership threads through: the incoming state is moved into the
    // working set, and each branching round moves every state into its
    // *last* branch, cloning only for the extra ones. Instructions
    // with no memory operand (the common case) and single-branch
    // inserts therefore copy no state at all.
    let mut states = vec![state];
    for (region, is_write) in regions {
        let mut out = Vec::new();
        for s in states {
            let sctx = ctx.solver_ctx(&s.pred);
            // Return-address integrity (§1): an unknown-relation WRITE
            // against the return-address slot rejects the function —
            // unless it is the assumed-separate caller-pointer case,
            // which instead records an assumption.
            if is_write && region.is_unknown() {
                // A write to a ⊥ address may hit the return slot.
                return Err(VerificationError::ReturnAddressClobbered {
                    addr: instr.addr,
                    region,
                });
            }
            if is_write {
                let ra = Region::return_address_slot();
                let rel = s.model.relation(&sctx, &region, &ra);
                match rel.rel {
                    RegionRel::Separate => {
                        for a in rel.assumptions {
                            ctx.diags.assume(a);
                        }
                    }
                    RegionRel::Alias | RegionRel::Enclosed | RegionRel::Encloses
                    | RegionRel::Overlap => {
                        return Err(VerificationError::ReturnAddressClobbered {
                            addr: instr.addr,
                            region,
                        });
                    }
                    RegionRel::Unknown => {
                        // Unknown vs the return slot: if the write is
                        // stack-rooted we must reject (cannot prove
                        // integrity); caller-pointer writes were already
                        // Separate-with-assumption above.
                        return Err(VerificationError::ReturnAddressClobbered {
                            addr: instr.addr,
                            region,
                        });
                    }
                }
            }
            let branches: Vec<InsBranch> =
                s.model.insert(&sctx, region, MAX_MODELS_PER_STEP);
            let mut branches = branches.into_iter();
            let last = branches.next_back();
            let apply = |mut ns: SymState, b: InsBranch, diags: &mut Diagnostics| {
                ns.model = Shared::new(b.model);
                for d in &b.destroyed {
                    ns.pred.forget_mem(d);
                }
                if let Some((r0, r1)) = &b.assumed_alias {
                    ns.pred
                        .clauses
                        .insert(Clause::new(r0.addr, Rel::Eq, r1.addr));
                    // The alias makes any recorded value of r1 apply to r0.
                    if let Some(v) = ns.pred.mem_value(r1).cloned() {
                        ns.pred.set_mem(*r0, v);
                    }
                }
                for a in b.assumptions {
                    diags.assume(a);
                }
                ns
            };
            for b in branches {
                out.push(apply(s.clone(), b, ctx.diags));
            }
            if let Some(b) = last {
                out.push(apply(s, b, ctx.diags));
            }
        }
        states = out;
        if states.len() > MAX_MODELS_PER_STEP {
            states.truncate(MAX_MODELS_PER_STEP);
        }
    }
    Ok(states)
}

/// Does this mnemonic write through a memory first operand? Shared
/// with the static write classifier and the oracle's dynamic write
/// cross-check so all three agree on what counts as a memory write.
pub fn writes_first_operand(m: Mnemonic) -> bool {
    !matches!(
        m,
        Mnemonic::Cmp | Mnemonic::Test | Mnemonic::Bt | Mnemonic::Push | Mnemonic::Jmp
            | Mnemonic::Jcc(_)
            | Mnemonic::Call
    )
}

/// The top-level symbolic step: `step_Σ(σ)` of Definition 4.2.
///
/// # Errors
///
/// Returns a [`VerificationError`] when a sanity property becomes
/// unprovable (the function is then rejected).
pub fn step(
    ctx: &mut StepCtx<'_>,
    state: SymState,
    instr: &Instr,
    entry: u64,
) -> Result<Vec<Successor>, VerificationError> {
    let mut out = Vec::new();
    for branched in insert_regions(ctx, state, instr)? {
        step_one(ctx, branched, instr, entry, &mut out)?;
    }
    Ok(out)
}

/// Execute the instruction semantics on one (already model-branched)
/// state.
fn step_one(
    ctx: &mut StepCtx<'_>,
    mut s: SymState,
    instr: &Instr,
    entry: u64,
    out: &mut Vec<Successor>,
) -> Result<(), VerificationError> {
    let next = instr.next_addr();
    let w = instr.width;
    let ops = &instr.operands;

    macro_rules! fall {
        ($s:expr) => {
            out.push(Successor::At(next, $s))
        };
    }

    match instr.mnemonic {
        Mnemonic::Mov | Mnemonic::Movabs => {
            let v = read_operand(ctx, &mut s, &ops[1], w, next);
            write_operand(ctx, &mut s, &ops[0], v, next);
            fall!(s);
        }
        Mnemonic::Movzx => {
            let v = read_operand(ctx, &mut s, &ops[1], w, next);
            write_operand(ctx, &mut s, &ops[0], v, next);
            fall!(s);
        }
        Mnemonic::Movsx | Mnemonic::Movsxd => {
            let srcw = ops[1].width().unwrap_or(Width::B4);
            let v = read_operand(ctx, &mut s, &ops[1], srcw, next);
            write_operand(ctx, &mut s, &ops[0], v.sext(srcw).trunc(w), next);
            fall!(s);
        }
        Mnemonic::Lea => {
            if let Operand::Mem(m) = &ops[1] {
                let ea = addr_expr(&s.pred, m, next);
                write_operand(ctx, &mut s, &ops[0], ea.trunc(w), next);
            }
            fall!(s);
        }
        Mnemonic::Xchg => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let b = read_operand(ctx, &mut s, &ops[1], w, next);
            write_operand(ctx, &mut s, &ops[0], b, next);
            write_operand(ctx, &mut s, &ops[1], a, next);
            fall!(s);
        }
        Mnemonic::Add | Mnemonic::Sub | Mnemonic::And | Mnemonic::Or | Mnemonic::Xor => {
            // `xor r, r` / `sub r, r` zero a register regardless of its
            // (possibly unknown) value.
            if ops[0] == ops[1] && matches!(instr.mnemonic, Mnemonic::Xor | Mnemonic::Sub) {
                s.pred.flags = FlagState::Result { width: w, value: Expr::imm(0) };
                write_operand(ctx, &mut s, &ops[0], Expr::imm(0), next);
                fall!(s);
                return Ok(());
            }
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let b = read_operand(ctx, &mut s, &ops[1], w, next);
            let r = match instr.mnemonic {
                Mnemonic::Add => a.add(b).trunc(w),
                Mnemonic::Sub => a.sub(b).trunc(w),
                Mnemonic::And => a.and(b).trunc(w),
                Mnemonic::Or => a.or(b).trunc(w),
                _ => a.xor(b).trunc(w),
            };
            s.pred.flags = match instr.mnemonic {
                Mnemonic::Add | Mnemonic::Sub => {
                    if instr.mnemonic == Mnemonic::Sub {
                        FlagState::Cmp { width: w, lhs: a, rhs: b }
                    } else {
                        FlagState::Result { width: w, value: r }
                    }
                }
                Mnemonic::And => FlagState::Test { width: w, lhs: a, rhs: b },
                _ => FlagState::Result { width: w, value: r },
            };
            write_operand(ctx, &mut s, &ops[0], r, next);
            fall!(s);
        }
        Mnemonic::Adc | Mnemonic::Sbb => {
            // Carry participation is rarely resolvable symbolically.
            let _ = read_operand(ctx, &mut s, &ops[0], w, next);
            let v = ctx.fresh_sym();
            s.pred.flags = FlagState::Unknown;
            write_operand(ctx, &mut s, &ops[0], v, next);
            fall!(s);
        }
        Mnemonic::Cmp => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let b = read_operand(ctx, &mut s, &ops[1], w, next);
            s.pred.flags = FlagState::Cmp { width: w, lhs: a, rhs: b };
            fall!(s);
        }
        Mnemonic::Test => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let b = read_operand(ctx, &mut s, &ops[1], w, next);
            s.pred.flags = FlagState::Test { width: w, lhs: a, rhs: b };
            fall!(s);
        }
        Mnemonic::Inc | Mnemonic::Dec => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let r = if instr.mnemonic == Mnemonic::Inc {
                a.add(Expr::imm(1)).trunc(w)
            } else {
                a.sub(Expr::imm(1)).trunc(w)
            };
            // CF is preserved; the remaining flags come from the result.
            s.pred.flags = FlagState::Result { width: w, value: r };
            write_operand(ctx, &mut s, &ops[0], r, next);
            fall!(s);
        }
        Mnemonic::Neg => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let r = a.neg().trunc(w);
            s.pred.flags = FlagState::Cmp { width: w, lhs: Expr::imm(0), rhs: a };
            write_operand(ctx, &mut s, &ops[0], r, next);
            fall!(s);
        }
        Mnemonic::Not => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            write_operand(ctx, &mut s, &ops[0], a.not().trunc(w), next);
            fall!(s);
        }
        Mnemonic::Shl | Mnemonic::Shr | Mnemonic::Sar => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let b = read_operand(ctx, &mut s, &ops[1], Width::B1, next);
            let masked = b.and(Expr::imm(if w == Width::B8 { 63 } else { 31 }));
            let r = match instr.mnemonic {
                Mnemonic::Shl => a.shl(masked).trunc(w),
                Mnemonic::Shr => a.shr(masked).trunc(w),
                _ => a.sext(w).sar(masked).trunc(w),
            };
            // A zero shift count leaves the flags untouched, so only a
            // provably non-zero count lets us assert result flags.
            s.pred.flags = match masked.as_imm() {
                Some(0) => s.pred.flags,
                Some(_) => FlagState::Result { width: w, value: r },
                None => FlagState::Unknown,
            };
            write_operand(ctx, &mut s, &ops[0], r, next);
            fall!(s);
        }
        Mnemonic::Rol | Mnemonic::Ror | Mnemonic::Rcl | Mnemonic::Rcr | Mnemonic::Shld
        | Mnemonic::Shrd | Mnemonic::Bts | Mnemonic::Btr | Mnemonic::Btc | Mnemonic::Cmpxchg
        | Mnemonic::Xadd => {
            // Modelled imprecisely: result unknown, flags unknown. The
            // concrete emulator remains precise; the lifted invariant
            // simply says nothing.
            let v = ctx.fresh_sym();
            s.pred.flags = FlagState::Unknown;
            if instr.mnemonic == Mnemonic::Cmpxchg {
                let f = ctx.fresh_sym();
                s.pred.set_reg(Reg::Rax, f);
            }
            if instr.mnemonic == Mnemonic::Xadd {
                let f = ctx.fresh_sym();
                write_operand(ctx, &mut s, &ops[1], f, next);
            }
            write_operand(ctx, &mut s, &ops[0], v, next);
            fall!(s);
        }
        Mnemonic::Bt => {
            let _ = read_operand(ctx, &mut s, &ops[0], w, next);
            s.pred.flags = FlagState::Unknown;
            fall!(s);
        }
        Mnemonic::Bsf | Mnemonic::Bsr | Mnemonic::Tzcnt | Mnemonic::Popcnt => {
            let a = read_operand(ctx, &mut s, &ops[1], w, next);
            let op = match instr.mnemonic {
                Mnemonic::Bsf => hgl_expr::OpKind::Bsf,
                Mnemonic::Bsr => hgl_expr::OpKind::Bsr,
                Mnemonic::Tzcnt => hgl_expr::OpKind::Tzcnt,
                _ => hgl_expr::OpKind::Popcnt,
            };
            let r = Expr::apply_un(op, a.trunc(w));
            s.pred.flags = FlagState::Unknown;
            write_operand(ctx, &mut s, &ops[0], r, next);
            fall!(s);
        }
        Mnemonic::Imul | Mnemonic::Mul => {
            match ops.len() {
                1 => {
                    let a = s.pred.reg_ref(RegRef::new(Reg::Rax, w));
                    let b = read_operand(ctx, &mut s, &ops[0], w, next);
                    let lo = a.mul(b).trunc(w);
                    let hi = ctx.fresh_sym();
                    if w == Width::B1 {
                        s.pred.write_reg_ref(RegRef::new(Reg::Rax, Width::B2), lo);
                    } else {
                        s.pred.write_reg_ref(RegRef::new(Reg::Rax, w), lo);
                        s.pred.write_reg_ref(RegRef::new(Reg::Rdx, w), hi);
                    }
                }
                2 => {
                    let a = read_operand(ctx, &mut s, &ops[0], w, next);
                    let b = read_operand(ctx, &mut s, &ops[1], w, next);
                    write_operand(ctx, &mut s, &ops[0], a.mul(b).trunc(w), next);
                }
                _ => {
                    let a = read_operand(ctx, &mut s, &ops[1], w, next);
                    let b = read_operand(ctx, &mut s, &ops[2], w, next);
                    write_operand(ctx, &mut s, &ops[0], a.mul(b).trunc(w), next);
                }
            }
            s.pred.flags = FlagState::Unknown;
            fall!(s);
        }
        Mnemonic::Div | Mnemonic::Idiv => {
            let d = read_operand(ctx, &mut s, &ops[0], w, next);
            let hi = s.pred.reg_ref(RegRef::new(Reg::Rdx, w));
            let lo = s.pred.reg_ref(RegRef::new(Reg::Rax, w));
            let (q, r) = if hi == Expr::imm(0) && instr.mnemonic == Mnemonic::Div {
                (lo.udiv(d).trunc(w), lo.urem(d).trunc(w))
            } else {
                (ctx.fresh_sym(), ctx.fresh_sym())
            };
            if w == Width::B1 {
                let f = ctx.fresh_sym();
                s.pred.write_reg_ref(RegRef::new(Reg::Rax, Width::B2), f);
            } else {
                s.pred.write_reg_ref(RegRef::new(Reg::Rax, w), q);
                s.pred.write_reg_ref(RegRef::new(Reg::Rdx, w), r);
            }
            s.pred.flags = FlagState::Unknown;
            fall!(s);
        }
        Mnemonic::Cbw | Mnemonic::Cwde | Mnemonic::Cdqe => {
            let (from, to) = match instr.mnemonic {
                Mnemonic::Cbw => (Width::B1, Width::B2),
                Mnemonic::Cwde => (Width::B2, Width::B4),
                _ => (Width::B4, Width::B8),
            };
            let a = s.pred.reg_ref(RegRef::new(Reg::Rax, from));
            s.pred.write_reg_ref(RegRef::new(Reg::Rax, to), a.sext(from).trunc(to));
            fall!(s);
        }
        Mnemonic::Cwd | Mnemonic::Cdq | Mnemonic::Cqo => {
            let wd = match instr.mnemonic {
                Mnemonic::Cwd => Width::B2,
                Mnemonic::Cdq => Width::B4,
                _ => Width::B8,
            };
            let a = s.pred.reg_ref(RegRef::new(Reg::Rax, wd));
            let hi = match a.as_imm() {
                Some(v) => Expr::imm(if wd.sign_bit(v) { wd.mask() } else { 0 }),
                None => a.sext(wd).sar(Expr::imm(63)).trunc(wd),
            };
            s.pred.write_reg_ref(RegRef::new(Reg::Rdx, wd), hi);
            fall!(s);
        }
        Mnemonic::Setcc(c) => {
            let nomem = |_: u64, _: u8| None;
            let v = match try_concrete_cond(&s.pred.flags, c, &nomem) {
                Some(b) => Expr::imm(b as u64),
                None => {
                    // Fork on the condition so both byte values are
                    // covered with their clauses.
                    let mut s_true = s.clone();
                    if let Some(cl) = s.pred.flags.clause_for(c) {
                        s_true.pred.clauses.insert(cl);
                    }
                    write_operand(ctx, &mut s_true, &ops[0], Expr::imm(1), next);
                    out.push(Successor::At(next, s_true));
                    if let Some(cl) = s.pred.flags.clause_for(c.negate()) {
                        s.pred.clauses.insert(cl);
                    }
                    write_operand(ctx, &mut s, &ops[0], Expr::imm(0), next);
                    out.push(Successor::At(next, s));
                    return Ok(());
                }
            };
            write_operand(ctx, &mut s, &ops[0], v, next);
            fall!(s);
        }
        Mnemonic::Cmovcc(c) => {
            let nomem = |_: u64, _: u8| None;
            match try_concrete_cond(&s.pred.flags, c, &nomem) {
                Some(true) => {
                    let v = read_operand(ctx, &mut s, &ops[1], w, next);
                    write_operand(ctx, &mut s, &ops[0], v, next);
                    fall!(s);
                }
                Some(false) => {
                    let v = read_operand(ctx, &mut s, &ops[0], w, next);
                    write_operand(ctx, &mut s, &ops[0], v.trunc(w), next);
                    fall!(s);
                }
                None => {
                    let mut s_true = s.clone();
                    if let Some(cl) = s.pred.flags.clause_for(c) {
                        s_true.pred.clauses.insert(cl);
                    }
                    let v = read_operand(ctx, &mut s_true, &ops[1], w, next);
                    write_operand(ctx, &mut s_true, &ops[0], v, next);
                    out.push(Successor::At(next, s_true));
                    if let Some(cl) = s.pred.flags.clause_for(c.negate()) {
                        s.pred.clauses.insert(cl);
                    }
                    let old = read_operand(ctx, &mut s, &ops[0], w, next);
                    write_operand(ctx, &mut s, &ops[0], old.trunc(w), next);
                    fall!(s);
                }
            }
        }
        Mnemonic::Push => {
            let v = match &ops[0] {
                Operand::Imm(i) => Expr::imm(*i as u64),
                op => read_operand(ctx, &mut s, op, Width::B8, next),
            };
            let rsp = s.pred.reg(Reg::Rsp).sub(Expr::imm(8));
            s.pred.set_reg(Reg::Rsp, rsp);
            write_region(ctx, &mut s, &Region::new(rsp, 8), v);
            fall!(s);
        }
        Mnemonic::Pop => {
            let rsp = s.pred.reg(Reg::Rsp);
            let v = read_region(ctx, &mut s, &Region::new(rsp, 8));
            s.pred.set_reg(Reg::Rsp, rsp.add(Expr::imm(8)));
            write_operand(ctx, &mut s, &ops[0], v, next);
            fall!(s);
        }
        Mnemonic::Leave => {
            let rbp = s.pred.reg(Reg::Rbp);
            let v = read_region(ctx, &mut s, &Region::new(rbp, 8));
            s.pred.set_reg(Reg::Rsp, rbp.add(Expr::imm(8)));
            s.pred.set_reg(Reg::Rbp, v);
            fall!(s);
        }
        Mnemonic::Jmp => {
            resolve_branch(ctx, s, instr, entry, out)?;
        }
        Mnemonic::Bswap => {
            let a = read_operand(ctx, &mut s, &ops[0], w, next);
            let r = match a.as_imm() {
                Some(v) if w == Width::B8 => Expr::imm(v.swap_bytes()),
                Some(v) => Expr::imm((v as u32).swap_bytes() as u64),
                None => ctx.fresh_sym(),
            };
            write_operand(ctx, &mut s, &ops[0], r, next);
            fall!(s);
        }
        Mnemonic::Jrcxz => {
            let target = match &ops[0] {
                Operand::Imm(t) => *t as u64,
                _ => {
                    return Err(VerificationError::Undecodable {
                        addr: instr.addr,
                        message: "jrcxz with non-immediate target".to_string(),
                    })
                }
            };
            let rcx = s.pred.reg(Reg::Rcx);
            match rcx.as_imm() {
                Some(0) => out.push(Successor::At(target, s)),
                Some(_) => fall!(s),
                None => {
                    let mut taken = s.clone();
                    if !rcx.is_bottom() {
                        taken.pred.clauses.insert(Clause::new(rcx, Rel::Eq, Expr::imm(0)));
                        s.pred.clauses.insert(Clause::new(rcx, Rel::Ne, Expr::imm(0)));
                    }
                    out.push(Successor::At(target, taken));
                    fall!(s);
                }
            }
        }
        Mnemonic::Loop | Mnemonic::Loope | Mnemonic::Loopne => {
            let target = match &ops[0] {
                Operand::Imm(t) => *t as u64,
                _ => {
                    return Err(VerificationError::Undecodable {
                        addr: instr.addr,
                        message: "loop with non-immediate target".to_string(),
                    })
                }
            };
            let rcx = s.pred.reg(Reg::Rcx).sub(Expr::imm(1));
            s.pred.set_reg(Reg::Rcx, rcx);
            // The loop-taken condition combines rcx≠0 with (for
            // loope/loopne) a flag the abstraction may not know;
            // decide concretely where possible, otherwise cover both.
            let nomem = |_: u64, _: u8| None;
            let zf_known = match instr.mnemonic {
                Mnemonic::Loope => try_concrete_cond(&s.pred.flags, Cond::E, &nomem),
                Mnemonic::Loopne => try_concrete_cond(&s.pred.flags, Cond::Ne, &nomem),
                _ => Some(true),
            };
            match (rcx.as_imm(), zf_known) {
                (Some(0), _) => fall!(s),
                (Some(_), Some(true)) => out.push(Successor::At(target, s)),
                (Some(_), Some(false)) => fall!(s),
                _ => {
                    let taken = s.clone();
                    out.push(Successor::At(target, taken));
                    fall!(s);
                }
            }
        }
        Mnemonic::Jcc(c) => {
            let target = match &ops[0] {
                Operand::Imm(t) => *t as u64,
                _ => {
                    return Err(VerificationError::Undecodable {
                        addr: instr.addr,
                        message: "jcc with non-immediate target".to_string(),
                    })
                }
            };
            let nomem = |_: u64, _: u8| None;
            match try_concrete_cond(&s.pred.flags, c, &nomem) {
                Some(true) => out.push(Successor::At(target, s)),
                Some(false) => fall!(s),
                None => {
                    let mut taken = s.clone();
                    if let Some(cl) = s.pred.flags.clause_for(c) {
                        taken.pred.clauses.insert(cl);
                    }
                    out.push(Successor::At(target, taken));
                    if let Some(cl) = s.pred.flags.clause_for(c.negate()) {
                        s.pred.clauses.insert(cl);
                    }
                    fall!(s);
                }
            }
        }
        Mnemonic::Call => {
            resolve_call(ctx, s, instr, out)?;
        }
        Mnemonic::Ret => {
            do_return(ctx, s, instr, entry, out)?;
        }
        Mnemonic::Movs | Mnemonic::Stos | Mnemonic::Lods | Mnemonic::Scas | Mnemonic::Cmps => {
            exec_string(ctx, &mut s, instr, next);
            fall!(s);
        }
        Mnemonic::Stc | Mnemonic::Clc | Mnemonic::Cmc => {
            s.pred.flags = FlagState::Unknown;
            fall!(s);
        }
        Mnemonic::Std => {
            s.pred.df = Some(true);
            fall!(s);
        }
        Mnemonic::Cld => {
            s.pred.df = Some(false);
            fall!(s);
        }
        Mnemonic::Nop | Mnemonic::Endbr64 => fall!(s),
        Mnemonic::Ud2 | Mnemonic::Int3 | Mnemonic::Hlt => {
            // Execution halts: no successors.
        }
        Mnemonic::Syscall => {
            // rcx/r11 clobbered; result in rax unknown.
            let f1 = ctx.fresh_sym();
            let f2 = ctx.fresh_sym();
            let f3 = ctx.fresh_sym();
            s.pred.set_reg(Reg::Rcx, f1);
            s.pred.set_reg(Reg::R11, f2);
            s.pred.set_reg(Reg::Rax, f3);
            fall!(s);
        }
        Mnemonic::Cpuid => {
            for r in [Reg::Rax, Reg::Rbx, Reg::Rcx, Reg::Rdx] {
                let f = ctx.fresh_sym();
                s.pred.set_reg(r, f);
            }
            fall!(s);
        }
        Mnemonic::Rdtsc => {
            for r in [Reg::Rax, Reg::Rdx] {
                let f = ctx.fresh_sym();
                s.pred.set_reg(r, f);
            }
            fall!(s);
        }
    }
    Ok(())
}

fn try_concrete_cond<M>(flags: &FlagState, c: Cond, nomem: &M) -> Option<bool>
where
    M: Fn(u64, u8) -> Option<u64>,
{
    // Only fully constant flag sources decide concretely.
    let env = |_s: Sym| 0u64;
    match flags {
        FlagState::Cmp { lhs, rhs, .. } | FlagState::Test { lhs, rhs, .. } => {
            if lhs.as_imm().is_some() && rhs.as_imm().is_some() {
                flags.eval_cond(c, &env, nomem)
            } else {
                None
            }
        }
        FlagState::Result { value, .. } => {
            if value.as_imm().is_some() {
                flags.eval_cond(c, &env, nomem)
            } else {
                None
            }
        }
        FlagState::Unknown => None,
    }
}

/// Resolve `jmp` successors: direct, return-symbol, bounded jump
/// table, or annotation.
fn resolve_branch(
    ctx: &mut StepCtx<'_>,
    mut s: SymState,
    instr: &Instr,
    entry: u64,
    out: &mut Vec<Successor>,
) -> Result<(), VerificationError> {
    let next = instr.next_addr();
    let target = match &instr.operands[0] {
        Operand::Imm(t) => Expr::imm(*t as u64),
        op => read_operand(ctx, &mut s, op, Width::B8, next),
    };
    // Tail transfer to the function's return address?
    if target == Expr::sym(Sym::RetSym(entry)) {
        verify_return(&s, instr.addr, entry, true)?;
        out.push(Successor::Return(s));
        return Ok(());
    }
    if let Some(t) = target.as_imm() {
        if !ctx.binary.is_code(t) {
            return Err(VerificationError::JumpOutsideText { addr: instr.addr, target: t });
        }
        out.push(Successor::At(t, s));
        return Ok(());
    }
    // Bounded set: enumerate an indexed jump table.
    if let Some(targets) = enumerate_targets(ctx, &s, &target, instr) {
        for (t, clause) in targets {
            if !ctx.binary.is_code(t) {
                return Err(VerificationError::JumpOutsideText { addr: instr.addr, target: t });
            }
            let mut branch = s.clone();
            if let Some(cl) = clause {
                branch.pred.clauses.insert(cl);
            }
            out.push(Successor::At(t, branch));
        }
        ctx.diags.resolved_indirections += 1;
        return Ok(());
    }
    // Externally resolved target set (analyze→re-lift refinement).
    if let Some(hinted) = ctx.indirect_hints.get(&instr.addr) {
        if !hinted.is_empty() {
            for &t in hinted {
                if !ctx.binary.is_code(t) {
                    return Err(VerificationError::JumpOutsideText { addr: instr.addr, target: t });
                }
                out.push(Successor::At(t, s.clone()));
            }
            ctx.diags.resolved_indirections += 1;
            return Ok(());
        }
    }
    ctx.diags.annotate(Annotation::UnresolvedJump { addr: instr.addr, target });
    Ok(())
}

/// Enumerate the concrete targets of an indirect branch whose operand
/// has a bounded address range inside read-only data (a jump table),
/// or whose value expression itself is range-bounded.
///
/// Returns `(target, optional index clause)` pairs, deduplicated.
fn enumerate_targets(
    ctx: &mut StepCtx<'_>,
    s: &SymState,
    target: &Expr,
    instr: &Instr,
) -> Option<Vec<(u64, Option<Clause>)>> {
    let sctx = ctx.solver_ctx(&s.pred);
    // Case 1: the target was read from memory this instruction —
    // re-derive the table address range from the memory operand. On
    // failure, fall through to the stored-region search below.
    if let Some(Operand::Mem(m)) = instr.operands.first() {
        let addr = addr_expr(&s.pred, m, instr.next_addr());
        let size = m.size.bytes() as u64;
        let mut direct = || -> Option<Vec<(u64, Option<Clause>)>> {
            let iv = sctx.interval_of(&addr)?;
            // Stride: the scale of the index register if present, else
            // the access size.
            let stride = if m.index.is_some() { m.scale.max(1) as u64 } else { size };
            let entries = (iv.hi - iv.lo) / stride + 1;
            if entries > MAX_JUMP_TABLE {
                return None;
            }
            let mut targets = Vec::new();
            let mut a = iv.lo;
            loop {
                // Only load-time-constant (non-writable) memory may be
                // enumerated as a jump table.
                let v = ctx.binary.read_int_ro(a, size as u8)?;
                ctx.diags.image_reads.insert((a, size as u8));
                targets.push((v, None));
                if a >= iv.hi {
                    break;
                }
                a += stride;
            }
            targets.sort_unstable();
            targets.dedup();
            Some(targets)
        };
        if let Some(targets) = direct() {
            return Some(targets);
        }
    }
    // Case 2: a register target whose expression is a bounded Deref of
    // a table (mov rax, [table + i*8]; jmp rax): the register holds a
    // fresh/materialised value — look for the producing region in
    // pred.mem and bound its address.
    let candidates: Vec<(Region, Expr)> =
        s.pred.mem.iter().map(|(r, v)| (*r, *v)).collect();
    for (region, v) in candidates {
        if v != *target {
            continue;
        }
        let mut enumerate = || -> Option<Vec<(u64, Option<Clause>)>> {
            let iv = sctx.interval_of(&region.addr)?;
            let stride = region.size.max(1);
            let entries = (iv.hi - iv.lo) / stride + 1;
            if entries > MAX_JUMP_TABLE {
                return None;
            }
            let mut targets = Vec::new();
            let mut a = iv.lo;
            loop {
                let val = ctx.binary.read_int_ro(a, region.size as u8)?;
                ctx.diags.image_reads.insert((a, region.size as u8));
                targets.push((val, None));
                if a >= iv.hi {
                    break;
                }
                a += stride;
            }
            targets.sort_unstable();
            targets.dedup();
            Some(targets)
        };
        if let Some(targets) = enumerate() {
            return Some(targets);
        }
    }
    None
}

/// Resolve `call` successors (§4.2).
fn resolve_call(
    ctx: &mut StepCtx<'_>,
    mut s: SymState,
    instr: &Instr,
    out: &mut Vec<Successor>,
) -> Result<(), VerificationError> {
    let next = instr.next_addr();
    let target = match &instr.operands[0] {
        Operand::Imm(t) => Some(*t as u64),
        op => read_operand(ctx, &mut s, op, Width::B8, next).as_imm(),
    };
    match target {
        Some(t) if ctx.binary.external_at(t).is_some() => {
            let name = ctx.binary.external_at(t).expect("checked").to_string();
            if TERMINATING_EXTERNALS.contains(&name.as_str()) {
                return Ok(()); // no successors: path terminates
            }
            clean_for_external(ctx, &mut s, instr.addr, &name);
            out.push(Successor::At(next, s));
            Ok(())
        }
        Some(t) if ctx.binary.is_code(t) => {
            // Internal call, context-free (§4.2.2): the callee is
            // explored from a fresh state; here we only prepare the
            // caller's post-return state.
            let mut after = s.clone();
            clean_for_internal(ctx, &mut after);
            out.push(Successor::CallInternal { callee: t, return_site: next, after });
            Ok(())
        }
        Some(t) => Err(VerificationError::JumpOutsideText { addr: instr.addr, target: t }),
        None => {
            // Unresolved indirect call: annotate (column C) and treat
            // as an unknown external function (§5.1).
            let texpr = match &instr.operands[0] {
                Operand::Imm(t) => Expr::imm(*t as u64),
                op => read_operand(ctx, &mut s, op, Width::B8, next),
            };
            ctx.diags.annotate(Annotation::UnresolvedCall { addr: instr.addr, target: texpr });
            clean_for_external(ctx, &mut s, instr.addr, "<unknown>");
            out.push(Successor::At(next, s));
            Ok(())
        }
    }
}

/// Verify the sanity properties at a return site.
fn verify_return(s: &SymState, addr: u64, entry: u64, tail: bool) -> Result<(), VerificationError> {
    let rsp0 = Expr::sym(Sym::Init(Reg::Rsp));
    let expected_rsp = rsp0.add(Expr::imm(8));
    let rsp = s.pred.reg(Reg::Rsp);
    // For a `ret`, the check happens *before* popping, so rsp == rsp0;
    // for a tail transfer the stack is already unwound.
    let ok_rsp = if tail { rsp == expected_rsp } else { rsp == rsp0 };
    if !ok_rsp {
        return Err(VerificationError::NonStandardStackRestore { addr, rsp });
    }
    if !tail {
        let slot = s.pred.mem_value(&Region::return_address_slot()).copied().unwrap_or_else(Expr::bottom);
        if slot != Expr::sym(Sym::RetSym(entry)) {
            return Err(VerificationError::UnprovableReturnAddress { addr, found: slot });
        }
    }
    for r in Reg::CALLEE_SAVED {
        let v = s.pred.reg(r);
        if v != Expr::sym(Sym::Init(r)) {
            return Err(VerificationError::CallingConventionViolation { addr, reg: r, found: v });
        }
    }
    Ok(())
}

/// Handle `ret`.
fn do_return(
    ctx: &mut StepCtx<'_>,
    mut s: SymState,
    instr: &Instr,
    entry: u64,
    out: &mut Vec<Successor>,
) -> Result<(), VerificationError> {
    let rsp = s.pred.reg(Reg::Rsp);
    let target = read_region(ctx, &mut s, &Region::new(rsp, 8));
    verify_return(&s, instr.addr, entry, false)?;
    if target != Expr::sym(Sym::RetSym(entry)) {
        return Err(VerificationError::UnprovableReturnAddress { addr: instr.addr, found: target });
    }
    // Pop the return address.
    let extra = if let Some(Operand::Imm(i)) = instr.operands.first() { *i as u64 } else { 0 };
    s.pred.set_reg(Reg::Rsp, rsp.add(Expr::imm(8 + extra)));
    out.push(Successor::Return(s));
    Ok(())
}

/// System V cleaning after an external call (§1): volatile registers
/// and flags are havocked, the heap and global space destroyed, the
/// local stack frame preserved — recorded as a proof obligation.
fn clean_for_external(ctx: &mut StepCtx<'_>, s: &mut SymState, call_site: u64, callee: &str) {
    let sctx = ctx.solver_ctx(&s.pred);
    // Which argument registers point into the caller's frame?
    let mut frame_args = Vec::new();
    for r in [Reg::Rdi, Reg::Rsi, Reg::Rdx, Reg::Rcx, Reg::R8, Reg::R9] {
        let v = s.pred.reg(r);
        if sctx.provenance(&v) == Provenance::Stack {
            frame_args.push((r, v));
        }
    }
    // The preserved hull: every stack region whose value we keep.
    let stack_regions: Vec<Region> = s
        .pred
        .mem
        .keys()
        .filter(|r| sctx.provenance(&r.addr) == Provenance::Stack)
        .cloned()
        .collect();
    let hull = contiguous_hull(&stack_regions);
    if !frame_args.is_empty() || !stack_regions.is_empty() {
        ctx.diags.obligations.push(ProofObligation {
            call_site,
            callee: callee.to_string(),
            frame_args,
            must_preserve: hull.into_iter().collect(),
        });
    }
    havoc_for_call(ctx, s, &sctx);
}

/// Cleaning after an internal call: same state effect as an external
/// call (the callee is verified separately to preserve callee-saved
/// registers and its own frame), but no obligation is emitted.
fn clean_for_internal(ctx: &mut StepCtx<'_>, s: &mut SymState) {
    let sctx = ctx.solver_ctx(&s.pred);
    havoc_for_call(ctx, s, &sctx);
}

fn havoc_for_call(ctx: &mut StepCtx<'_>, s: &mut SymState, sctx: &Ctx) {
    for r in VOLATILE {
        let f = ctx.fresh_sym();
        s.pred.set_reg(*r, f);
    }
    s.pred.flags = FlagState::Unknown;
    s.pred.df = Some(false);
    // Heap and globals destroyed; the stack frame survives.
    s.pred.retain_mem(|r| sctx.provenance(&r.addr) == Provenance::Stack);
    let keep = |r: &Region| sctx.provenance(&r.addr) == Provenance::Stack;
    s.model = Shared::new(s.model.retain(&keep));
    // Clauses over heap/global contents would now be stale; keep only
    // those whose symbols are entry values (always fixed).
    s.pred.clauses.retain(|c| {
        c.lhs.syms().iter().chain(c.rhs.syms().iter()).all(|sym| !matches!(sym, Sym::Global(_)))
    });
}

/// The smallest contiguous region(s) covering the given stack regions
/// (used in proof obligations, e.g. `[RSP0 - 8, 16]`).
fn contiguous_hull(regions: &[Region]) -> Option<Region> {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for r in regions {
        let lin = r.linear();
        let Some(off) = lin.single_atom().map(|(_, k)| k) else { continue };
        lo = lo.min(off);
        hi = hi.max(off + r.size as i64);
    }
    (lo < hi).then(|| Region::stack(lo, (hi - lo) as u64))
}

/// String-operation semantics (imprecise but sound: touched memory is
/// havocked unless the extent is concrete).
fn exec_string(ctx: &mut StepCtx<'_>, s: &mut SymState, instr: &Instr, _next: u64) {
    let w = instr.width;
    let sz = w.bytes() as u64;
    let count = match instr.rep {
        None => Some(1),
        Some(RepPrefix::Rep) => s.pred.reg(Reg::Rcx).as_imm(),
        Some(RepPrefix::Repne) => None,
    };
    let df_clear = s.pred.df == Some(false);
    match (instr.mnemonic, count, df_clear) {
        (Mnemonic::Stos, Some(n), true) if n <= 64 => {
            let base = s.pred.reg(Reg::Rdi);
            let v = s.pred.reg_ref(RegRef::new(Reg::Rax, w));
            for i in 0..n {
                let region = Region::new(base.add(Expr::imm(i * sz)), sz);
                write_region(ctx, s, &region, v);
            }
            s.pred.set_reg(Reg::Rdi, base.add(Expr::imm(n * sz)));
            if instr.rep.is_some() {
                s.pred.set_reg(Reg::Rcx, Expr::imm(0));
            }
        }
        (Mnemonic::Movs, Some(n), true) if n <= 64 => {
            let src = s.pred.reg(Reg::Rsi);
            let dst = s.pred.reg(Reg::Rdi);
            for i in 0..n {
                let sreg = Region::new(src.add(Expr::imm(i * sz)), sz);
                let v = read_region(ctx, s, &sreg);
                let dreg = Region::new(dst.add(Expr::imm(i * sz)), sz);
                write_region(ctx, s, &dreg, v);
            }
            s.pred.set_reg(Reg::Rsi, src.add(Expr::imm(n * sz)));
            s.pred.set_reg(Reg::Rdi, dst.add(Expr::imm(n * sz)));
            if instr.rep.is_some() {
                s.pred.set_reg(Reg::Rcx, Expr::imm(0));
            }
        }
        (Mnemonic::Lods, Some(1), _) => {
            let src = s.pred.reg(Reg::Rsi);
            let v = read_region(ctx, s, &Region::new(src, sz));
            s.pred.write_reg_ref(RegRef::new(Reg::Rax, w), v);
            let delta = if df_clear { src.add(Expr::imm(sz)) } else { src.sub(Expr::imm(sz)) };
            s.pred.set_reg(Reg::Rsi, delta);
        }
        _ => {
            // Unknown extent: havoc everything the op may touch. If
            // the destination pointer provably lives outside the stack
            // frame, the frame survives (with a recorded caller-pointer
            // assumption); otherwise everything is cleared.
            if matches!(instr.mnemonic, Mnemonic::Stos | Mnemonic::Movs | Mnemonic::Cmps) {
                let sctx = ctx.solver_ctx(&s.pred);
                let dst_prov = sctx.provenance(&s.pred.reg(Reg::Rdi));
                let frame_safe = matches!(
                    dst_prov,
                    Provenance::Param(_) | Provenance::Heap(_) | Provenance::Global
                );
                if frame_safe {
                    s.pred.retain_mem(|r| sctx.provenance(&r.addr) == Provenance::Stack);
                    let keep = |r: &Region| sctx.provenance(&r.addr) == Provenance::Stack;
                    s.model = Shared::new(s.model.retain(&keep));
                } else {
                    s.pred.mem.clear();
                    s.model = Shared::new(crate::memmodel::MemModel::empty());
                }
            }
            for r in [Reg::Rsi, Reg::Rdi, Reg::Rcx] {
                let f = ctx.fresh_sym();
                s.pred.set_reg(r, f);
            }
            if matches!(instr.mnemonic, Mnemonic::Lods | Mnemonic::Scas | Mnemonic::Cmps) {
                let f = ctx.fresh_sym();
                s.pred.set_reg(Reg::Rax, f);
            }
            s.pred.flags = FlagState::Unknown;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_expr::ExprKind;
    use hgl_elf::{Segment, SegmentFlags};
    use hgl_x86::encode;
    use std::collections::BTreeMap;

    const BASE: u64 = 0x40_1000;

    fn binary_with(instr: &mut Instr) -> hgl_elf::Binary {
        instr.addr = BASE;
        let bytes = encode(instr).expect("encodable");
        instr.len = bytes.len() as u8;
        let mut padded = bytes;
        padded.resize(64, 0x90);
        hgl_elf::Binary {
            entry: BASE,
            segments: vec![
                Segment { vaddr: BASE, bytes: padded, flags: SegmentFlags::RX },
                Segment { vaddr: 0x50_0000, bytes: (0u8..64).collect(), flags: SegmentFlags::RO },
                Segment { vaddr: 0x60_1000, bytes: vec![0xaa; 64], flags: SegmentFlags::RW },
            ],
            externals: BTreeMap::from([(0x40_0800, "memset".to_string())]),
            symbols: BTreeMap::new(),
        }
    }

    fn run(instr: &mut Instr, state: &SymState) -> (Vec<Successor>, Diagnostics) {
        let bin = binary_with(instr);
        let mut fresh = 100;
        let mut diags = Diagnostics::default();
        let succ = {
            let mut ctx = StepCtx {
                binary: &bin,
                layout: std::sync::Arc::new(Layout { text: bin.text_ranges(), data: bin.data_ranges() }),
                indirect_hints: &BTreeMap::new(),
                fresh: &mut fresh,
                diags: &mut diags,
                cache: None,
                metrics: None,
            };
            step(&mut ctx, state.clone(), instr, BASE).expect("steps")
        };
        (succ, diags)
    }

    fn entry_state() -> SymState {
        SymState::function_entry(BASE)
    }

    fn only_at(succ: Vec<Successor>) -> SymState {
        assert_eq!(succ.len(), 1, "expected a single fall-through successor");
        match succ.into_iter().next().expect("one") {
            Successor::At(_, s) => s,
            other => panic!("expected At, got {other:?}"),
        }
    }

    #[test]
    fn push_pop_roundtrip_symbolically() {
        let s0 = entry_state();
        let mut push = Instr::new(Mnemonic::Push, vec![Operand::reg64(Reg::Rbx)], Width::B8);
        let s1 = only_at(run(&mut push, &s0).0);
        assert_eq!(s1.pred.reg(Reg::Rsp), Expr::sym(Sym::Init(Reg::Rsp)).sub(Expr::imm(8)));
        assert_eq!(
            s1.pred.mem_value(&Region::stack(-8, 8)),
            Some(&Expr::sym(Sym::Init(Reg::Rbx)))
        );
        let mut pop = Instr::new(Mnemonic::Pop, vec![Operand::reg64(Reg::Rcx)], Width::B8);
        let s2 = only_at(run(&mut pop, &s1).0);
        assert_eq!(s2.pred.reg(Reg::Rcx), Expr::sym(Sym::Init(Reg::Rbx)), "popped the pushed value");
        assert_eq!(s2.pred.reg(Reg::Rsp), Expr::sym(Sym::Init(Reg::Rsp)));
    }

    #[test]
    fn reads_memoize_fresh_values() {
        let s0 = entry_state();
        let mut load = Instr::new(
            Mnemonic::Mov,
            vec![Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::base_disp(Reg::Rdi, 0, Width::B8))],
            Width::B8,
        );
        let s1 = only_at(run(&mut load, &s0).0);
        let v = s1.pred.reg(Reg::Rax);
        assert!(matches!(v.kind(), ExprKind::Sym(Sym::Fresh(_))), "unknown read gives a fresh symbol");
        // Second read of the same region yields the same symbol.
        let mut load2 = Instr::new(
            Mnemonic::Mov,
            vec![Operand::reg64(Reg::Rcx), Operand::Mem(MemOperand::base_disp(Reg::Rdi, 0, Width::B8))],
            Width::B8,
        );
        let s2 = only_at(run(&mut load2, &s1).0);
        assert_eq!(s2.pred.reg(Reg::Rcx), v, "repeated reads agree");
    }

    #[test]
    fn rodata_reads_are_concrete() {
        let s0 = entry_state();
        // mov rax, [0x500000] — RO segment holds bytes 0,1,2,...
        let mut load = Instr::new(
            Mnemonic::Mov,
            vec![Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::absolute(0x50_0000, Width::B8))],
            Width::B8,
        );
        let s1 = only_at(run(&mut load, &s0).0);
        assert_eq!(s1.pred.reg(Reg::Rax), Expr::imm(0x0706050403020100));
    }

    #[test]
    fn rw_data_reads_are_fresh() {
        let s0 = entry_state();
        let mut load = Instr::new(
            Mnemonic::Mov,
            vec![Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::absolute(0x60_1000, Width::B8))],
            Width::B8,
        );
        let s1 = only_at(run(&mut load, &s0).0);
        assert!(
            matches!(s1.pred.reg(Reg::Rax).kind(), ExprKind::Sym(Sym::Fresh(_))),
            "writable data is not a load-time constant"
        );
    }

    #[test]
    fn enclosed_read_extracts_bytes() {
        let mut s0 = entry_state();
        // Frame slot holds a known 8-byte value…
        s0.pred.set_mem(Region::stack(-8, 8), Expr::imm(0x1122334455667788));
        s0.model.trees.push(crate::memmodel::MemTree::leaf(Region::stack(-8, 8)));
        // …read its high dword: mov eax, [rsp-4].
        let mut load = Instr::new(
            Mnemonic::Mov,
            vec![Operand::reg(Reg::Rax, Width::B4), Operand::Mem(MemOperand::base_disp(Reg::Rsp, -4, Width::B4))],
            Width::B4,
        );
        let s1 = only_at(run(&mut load, &s0).0);
        assert_eq!(s1.pred.reg(Reg::Rax), Expr::imm(0x11223344));
    }

    #[test]
    fn write_invalidates_non_separate_only() {
        let mut s0 = entry_state();
        s0.pred.set_mem(Region::stack(-8, 8), Expr::imm(1));
        s0.pred.set_mem(Region::stack(-16, 8), Expr::imm(2));
        // mov qword [rsp-8], 9 overwrites slot -8, leaves -16 alone.
        let mut store = Instr::new(
            Mnemonic::Mov,
            vec![Operand::Mem(MemOperand::base_disp(Reg::Rsp, -8, Width::B8)), Operand::Imm(9)],
            Width::B8,
        );
        let s1 = only_at(run(&mut store, &s0).0);
        assert_eq!(s1.pred.mem_value(&Region::stack(-8, 8)), Some(&Expr::imm(9)));
        assert_eq!(s1.pred.mem_value(&Region::stack(-16, 8)), Some(&Expr::imm(2)));
    }

    #[test]
    fn external_call_cleans_and_obliges() {
        let mut s0 = entry_state();
        // rdi points into the frame; a global is known.
        s0.pred.set_reg(Reg::Rdi, Expr::sym(Sym::Init(Reg::Rsp)).sub(Expr::imm(0x20)));
        s0.pred.set_mem(Region::global(0x60_1000, 8), Expr::imm(5));
        s0.pred.set_mem(Region::stack(-8, 8), Expr::imm(7));
        let mut call = Instr::new(Mnemonic::Call, vec![Operand::Imm(0x40_0800)], Width::B8);
        let (succ, diags) = run(&mut call, &s0);
        let s1 = only_at(succ);
        // Volatile registers havocked, frame preserved, globals gone.
        assert!(matches!(s1.pred.reg(Reg::Rax).kind(), ExprKind::Sym(Sym::Fresh(_))));
        assert_eq!(s1.pred.mem_value(&Region::stack(-8, 8)), Some(&Expr::imm(7)));
        assert_eq!(s1.pred.mem_value(&Region::global(0x60_1000, 8)), None);
        // Obligation names the frame argument and the preserve hull.
        let ob = diags.obligations.first().expect("obligation");
        assert_eq!(ob.callee, "memset");
        assert!(ob.frame_args.iter().any(|(r, _)| *r == Reg::Rdi));
        assert!(!ob.must_preserve.is_empty());
    }

    #[test]
    fn terminating_external_has_no_successors() {
        let s0 = entry_state();
        let mut bin_instr = Instr::new(Mnemonic::Call, vec![Operand::Imm(0x40_0800)], Width::B8);
        // Rebind the stub name to `exit` by building a custom binary.
        bin_instr.addr = BASE;
        let bytes = encode(&bin_instr).expect("encodable");
        bin_instr.len = bytes.len() as u8;
        let mut padded = bytes;
        padded.resize(64, 0x90);
        let bin = hgl_elf::Binary {
            entry: BASE,
            segments: vec![Segment { vaddr: BASE, bytes: padded, flags: SegmentFlags::RX }],
            externals: BTreeMap::from([(0x40_0800, "exit".to_string())]),
            symbols: BTreeMap::new(),
        };
        let mut fresh = 0;
        let mut diags = Diagnostics::default();
        let mut ctx = StepCtx {
            binary: &bin,
            layout: std::sync::Arc::new(Layout { text: bin.text_ranges(), data: bin.data_ranges() }),
            indirect_hints: &BTreeMap::new(),
            fresh: &mut fresh,
            diags: &mut diags,
            cache: None,
            metrics: None,
        };
        let succ = step(&mut ctx, s0.clone(), &bin_instr, BASE).expect("steps");
        assert!(succ.is_empty(), "exit terminates the path");
    }

    #[test]
    fn cmov_forks_on_unknown_flags() {
        let mut s0 = entry_state();
        s0.pred.flags = FlagState::Cmp {
            width: Width::B8,
            lhs: Expr::sym(Sym::Init(Reg::Rdi)),
            rhs: Expr::imm(10),
        };
        let mut cmov = Instr::new(
            Mnemonic::Cmovcc(Cond::B),
            vec![Operand::reg64(Reg::Rax), Operand::reg64(Reg::Rbx)],
            Width::B8,
        );
        let (succ, _) = run(&mut cmov, &s0);
        assert_eq!(succ.len(), 2, "both outcomes covered");
        let values: Vec<Expr> = succ
            .iter()
            .map(|s| match s {
                Successor::At(_, st) => st.pred.reg(Reg::Rax),
                other => panic!("expected At, got {other:?}"),
            })
            .collect();
        assert!(values.contains(&Expr::sym(Sym::Init(Reg::Rbx))), "taken side moved rbx");
        assert!(values.contains(&Expr::sym(Sym::Init(Reg::Rax))), "other side kept rax");
    }

    #[test]
    fn unknown_write_destroys_model() {
        let mut s0 = entry_state();
        s0.pred.set_reg(Reg::Rax, Expr::bottom());
        let mut store = Instr::new(
            Mnemonic::Mov,
            vec![Operand::Mem(MemOperand::base_disp(Reg::Rax, 0, Width::B8)), Operand::Imm(1)],
            Width::B8,
        );
        // A ⊥-address write may hit the return slot: rejection.
        let bin = binary_with(&mut store);
        let mut fresh = 0;
        let mut diags = Diagnostics::default();
        let mut ctx = StepCtx {
            binary: &bin,
            layout: std::sync::Arc::new(Layout { text: bin.text_ranges(), data: bin.data_ranges() }),
            indirect_hints: &BTreeMap::new(),
            fresh: &mut fresh,
            diags: &mut diags,
            cache: None,
            metrics: None,
        };
        let r = step(&mut ctx, s0.clone(), &store, BASE);
        assert!(
            matches!(r, Err(VerificationError::ReturnAddressClobbered { .. })),
            "got {r:?}"
        );
    }

    #[test]
    fn concrete_rep_stos_writes_precisely() {
        let mut s0 = entry_state();
        s0.pred.set_reg(Reg::Rcx, Expr::imm(2));
        s0.pred.set_reg(Reg::Rax, Expr::imm(0));
        let mut stos = Instr::new(Mnemonic::Stos, vec![], Width::B8);
        stos.rep = Some(RepPrefix::Rep);
        let s1 = only_at(run(&mut stos, &s0).0);
        let rdi0 = Expr::sym(Sym::Init(Reg::Rdi));
        assert_eq!(
            s1.pred.mem_value(&Region::new(rdi0, 8)),
            Some(&Expr::imm(0))
        );
        assert_eq!(
            s1.pred.mem_value(&Region::new(rdi0.add(Expr::imm(8)), 8)),
            Some(&Expr::imm(0))
        );
        assert_eq!(s1.pred.reg(Reg::Rcx), Expr::imm(0));
        assert_eq!(s1.pred.reg(Reg::Rdi), rdi0.add(Expr::imm(16)));
    }

    #[test]
    fn jump_outside_text_rejected() {
        let s0 = entry_state();
        let mut jmp = Instr::new(Mnemonic::Jmp, vec![Operand::Imm(0x60_1000)], Width::B8);
        let bin = binary_with(&mut jmp);
        let mut fresh = 0;
        let mut diags = Diagnostics::default();
        let mut ctx = StepCtx {
            binary: &bin,
            layout: std::sync::Arc::new(Layout { text: bin.text_ranges(), data: bin.data_ranges() }),
            indirect_hints: &BTreeMap::new(),
            fresh: &mut fresh,
            diags: &mut diags,
            cache: None,
            metrics: None,
        };
        let r = step(&mut ctx, s0.clone(), &jmp, BASE);
        assert!(matches!(r, Err(VerificationError::JumpOutsideText { .. })));
    }

    #[test]
    fn contiguous_hull_covers_regions() {
        let regions = vec![Region::stack(0, 8), Region::stack(-8, 8)];
        let hull = contiguous_hull(&regions).expect("hull");
        assert_eq!(hull, Region::stack(-8, 16));
        assert_eq!(contiguous_hull(&[]), None);
    }
}
