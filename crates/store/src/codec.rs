//! A hand-rolled binary codec for per-function lift artifacts.
//!
//! Encodes the full [`FnLift`] surface — Hoare Graph, diagnostics,
//! dependency records — into a flat byte vector and back. Design rules:
//!
//! - **Never panic on malformed input.** Every read is bounds-checked
//!   and returns [`CodecError`]; recursion (expressions, memory-model
//!   forests) is depth-limited; collection lengths are validated
//!   against the remaining input before allocating. The whole-payload
//!   checksum in `store.rs` makes these paths unreachable for random
//!   bit flips, but the decoder stands on its own.
//! - **Edges store only `(from, to, instruction address)`.** The
//!   instruction itself is re-decoded from the binary on load — sound
//!   because the store's content hash proves the instruction bytes are
//!   unchanged — which keeps artifacts small and reuses the one
//!   decoder as the single source of instruction semantics.
//! - **Round-tripping is identity** for every artifact the lifter can
//!   produce, pinned by property tests in `tests/roundtrip.rs`.

use hgl_core::budget::BudgetDim;
use hgl_core::diag::{Annotation, ProofObligation, VerificationError};
use hgl_core::graph::{HoareGraph, VertexId};
use hgl_core::lift::{FnLift, RejectReason};
use hgl_core::pred::{FlagState, Pred, RegFile, Shared, SymState};
use hgl_core::{MemModel, MemTree};
use hgl_elf::Binary;
use hgl_expr::{Clause, Expr, ExprKind, OpKind, Rel, Sym};
use hgl_solver::{Assumption, AssumptionKind, Region};
use hgl_x86::{decode, Reg, Width};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Maximum nesting the decoder will follow in recursive structures
/// (expressions, memory-model forests). The lifter's own
/// `tau::MAX_EXPR_NODES` keeps real artifacts far below this; the limit
/// exists so crafted input cannot overflow the stack.
const MAX_DEPTH: u32 = 512;

/// A malformed artifact byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset where decoding failed.
    pub at: usize,
    /// What the decoder expected.
    pub what: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed artifact at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for CodecError {}

type R<T> = Result<T, CodecError>;

// ---------------------------------------------------------------- writer

/// Byte-stream writer: little-endian scalars, u32-prefixed sequences.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        // Artifact collections are far below u32::MAX; saturating keeps
        // the writer total (the decoder would reject such a stream
        // against its input length anyway).
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

// ---------------------------------------------------------------- reader

/// Bounds-checked byte-stream reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// True once every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn fail<T>(&self, what: &'static str) -> R<T> {
        Err(CodecError { at: self.pos, what })
    }

    fn take(&mut self, n: usize) -> R<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|e| *e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => self.fail("truncated input"),
        }
    }

    fn u8(&mut self) -> R<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> R<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => self.fail("boolean"),
        }
    }

    fn u32(&mut self) -> R<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> R<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A u32 sequence-length prefix, validated against the bytes left:
    /// every element costs at least `min_elem_bytes`, so a length that
    /// could not possibly fit is rejected *before* any allocation.
    fn len(&mut self, min_elem_bytes: usize) -> R<usize> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(min_elem_bytes.max(1));
        if need.is_none_or(|need| need > self.buf.len() - self.pos) {
            return self.fail("oversized sequence length");
        }
        Ok(n)
    }

    fn str(&mut self) -> R<String> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.fail("utf-8 string"),
        }
    }
}

// ------------------------------------------------------------ primitives

fn put_reg(w: &mut Writer, r: Reg) {
    w.u8(r.number());
}

fn get_reg(r: &mut Reader<'_>) -> R<Reg> {
    let n = r.u8()?;
    if n as usize >= Reg::ALL.len() {
        return r.fail("register number");
    }
    Ok(Reg::ALL[n as usize])
}

fn put_width(w: &mut Writer, width: Width) {
    w.u8(width.bytes());
}

fn get_width(r: &mut Reader<'_>) -> R<Width> {
    match r.u8()? {
        1 => Ok(Width::B1),
        2 => Ok(Width::B2),
        4 => Ok(Width::B4),
        8 => Ok(Width::B8),
        _ => r.fail("operand width"),
    }
}

fn put_sym(w: &mut Writer, s: &Sym) {
    match s {
        Sym::Init(reg) => {
            w.u8(0);
            put_reg(w, *reg);
        }
        Sym::RetAddr => w.u8(1),
        Sym::RetSym(a) => {
            w.u8(2);
            w.u64(*a);
        }
        Sym::Fresh(id) => {
            w.u8(3);
            w.u64(*id);
        }
        Sym::Global(a) => {
            w.u8(4);
            w.u64(*a);
        }
    }
}

fn get_sym(r: &mut Reader<'_>) -> R<Sym> {
    match r.u8()? {
        0 => Ok(Sym::Init(get_reg(r)?)),
        1 => Ok(Sym::RetAddr),
        2 => Ok(Sym::RetSym(r.u64()?)),
        3 => Ok(Sym::Fresh(r.u64()?)),
        4 => Ok(Sym::Global(r.u64()?)),
        _ => r.fail("symbol tag"),
    }
}

fn put_op(w: &mut Writer, op: &OpKind) {
    let simple = |w: &mut Writer, t: u8| w.u8(t);
    match op {
        OpKind::Add => simple(w, 0),
        OpKind::Sub => simple(w, 1),
        OpKind::Mul => simple(w, 2),
        OpKind::UDiv => simple(w, 3),
        OpKind::URem => simple(w, 4),
        OpKind::SDiv => simple(w, 5),
        OpKind::SRem => simple(w, 6),
        OpKind::And => simple(w, 7),
        OpKind::Or => simple(w, 8),
        OpKind::Xor => simple(w, 9),
        OpKind::Not => simple(w, 10),
        OpKind::Neg => simple(w, 11),
        OpKind::Shl => simple(w, 12),
        OpKind::Shr => simple(w, 13),
        OpKind::Sar => simple(w, 14),
        OpKind::Popcnt => simple(w, 15),
        OpKind::Tzcnt => simple(w, 16),
        OpKind::Bsf => simple(w, 17),
        OpKind::Bsr => simple(w, 18),
        OpKind::Rol(width) => {
            w.u8(19);
            put_width(w, *width);
        }
        OpKind::Ror(width) => {
            w.u8(20);
            put_width(w, *width);
        }
        OpKind::Trunc(width) => {
            w.u8(21);
            put_width(w, *width);
        }
        OpKind::SExt(width) => {
            w.u8(22);
            put_width(w, *width);
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> R<OpKind> {
    Ok(match r.u8()? {
        0 => OpKind::Add,
        1 => OpKind::Sub,
        2 => OpKind::Mul,
        3 => OpKind::UDiv,
        4 => OpKind::URem,
        5 => OpKind::SDiv,
        6 => OpKind::SRem,
        7 => OpKind::And,
        8 => OpKind::Or,
        9 => OpKind::Xor,
        10 => OpKind::Not,
        11 => OpKind::Neg,
        12 => OpKind::Shl,
        13 => OpKind::Shr,
        14 => OpKind::Sar,
        15 => OpKind::Popcnt,
        16 => OpKind::Tzcnt,
        17 => OpKind::Bsf,
        18 => OpKind::Bsr,
        19 => OpKind::Rol(get_width(r)?),
        20 => OpKind::Ror(get_width(r)?),
        21 => OpKind::Trunc(get_width(r)?),
        22 => OpKind::SExt(get_width(r)?),
        _ => return r.fail("operator tag"),
    })
}

fn put_expr(w: &mut Writer, e: &Expr) {
    match e.kind() {
        ExprKind::Imm(v) => {
            w.u8(0);
            w.u64(*v);
        }
        ExprKind::Sym(s) => {
            w.u8(1);
            put_sym(w, s);
        }
        ExprKind::Deref { addr, size } => {
            w.u8(2);
            w.u8(*size);
            put_expr(w, addr);
        }
        ExprKind::Op { op, args } => {
            w.u8(3);
            put_op(w, op);
            w.len(args.len());
            for a in args {
                put_expr(w, a);
            }
        }
        ExprKind::Bottom => w.u8(4),
    }
}

fn get_expr(r: &mut Reader<'_>, depth: u32) -> R<Expr> {
    if depth > MAX_DEPTH {
        return r.fail("expression nesting too deep");
    }
    Ok(match r.u8()? {
        0 => Expr::imm(r.u64()?),
        1 => Expr::sym(get_sym(r)?),
        2 => {
            let size = r.u8()?;
            // Raw constructor: persisted terms must replay byte-exactly,
            // with no simplification applied on the way back in.
            Expr::deref_raw(get_expr(r, depth + 1)?, size)
        }
        3 => {
            let op = get_op(r)?;
            match r.len(1)? {
                1 => Expr::op1_raw(op, get_expr(r, depth + 1)?),
                2 => {
                    let a = get_expr(r, depth + 1)?;
                    let b = get_expr(r, depth + 1)?;
                    Expr::op2_raw(op, a, b)
                }
                n => {
                    let mut args = Vec::with_capacity(n);
                    for _ in 0..n {
                        args.push(get_expr(r, depth + 1)?);
                    }
                    Expr::op_raw(op, args)
                }
            }
        }
        4 => Expr::bottom(),
        _ => return r.fail("expression tag"),
    })
}

fn put_region(w: &mut Writer, region: &Region) {
    put_expr(w, &region.addr);
    w.u64(region.size);
}

fn get_region(r: &mut Reader<'_>) -> R<Region> {
    let addr = get_expr(r, 0)?;
    let size = r.u64()?;
    Ok(Region { addr, size })
}

fn put_rel(w: &mut Writer, rel: Rel) {
    w.u8(match rel {
        Rel::Eq => 0,
        Rel::Ne => 1,
        Rel::Lt => 2,
        Rel::SLt => 3,
        Rel::Ge => 4,
        Rel::SGe => 5,
    });
}

fn get_rel(r: &mut Reader<'_>) -> R<Rel> {
    Ok(match r.u8()? {
        0 => Rel::Eq,
        1 => Rel::Ne,
        2 => Rel::Lt,
        3 => Rel::SLt,
        4 => Rel::Ge,
        5 => Rel::SGe,
        _ => return r.fail("relation tag"),
    })
}

fn put_clause(w: &mut Writer, c: &Clause) {
    put_expr(w, &c.lhs);
    put_rel(w, c.rel);
    put_expr(w, &c.rhs);
}

fn get_clause(r: &mut Reader<'_>) -> R<Clause> {
    let lhs = get_expr(r, 0)?;
    let rel = get_rel(r)?;
    let rhs = get_expr(r, 0)?;
    Ok(Clause { lhs, rel, rhs })
}

fn put_flags(w: &mut Writer, f: &FlagState) {
    match f {
        FlagState::Unknown => w.u8(0),
        FlagState::Cmp { width, lhs, rhs } => {
            w.u8(1);
            put_width(w, *width);
            put_expr(w, lhs);
            put_expr(w, rhs);
        }
        FlagState::Test { width, lhs, rhs } => {
            w.u8(2);
            put_width(w, *width);
            put_expr(w, lhs);
            put_expr(w, rhs);
        }
        FlagState::Result { width, value } => {
            w.u8(3);
            put_width(w, *width);
            put_expr(w, value);
        }
    }
}

fn get_flags(r: &mut Reader<'_>) -> R<FlagState> {
    Ok(match r.u8()? {
        0 => FlagState::Unknown,
        1 => {
            let width = get_width(r)?;
            FlagState::Cmp { width, lhs: get_expr(r, 0)?, rhs: get_expr(r, 0)? }
        }
        2 => {
            let width = get_width(r)?;
            FlagState::Test { width, lhs: get_expr(r, 0)?, rhs: get_expr(r, 0)? }
        }
        3 => {
            let width = get_width(r)?;
            FlagState::Result { width, value: get_expr(r, 0)? }
        }
        _ => return r.fail("flag-state tag"),
    })
}

fn put_model(w: &mut Writer, m: &MemModel) {
    w.len(m.trees.len());
    for t in &m.trees {
        w.len(t.regions.len());
        for region in &t.regions {
            put_region(w, region);
        }
        put_model(w, &t.children);
    }
}

fn get_model(r: &mut Reader<'_>, depth: u32) -> R<MemModel> {
    if depth > MAX_DEPTH {
        return r.fail("memory-model nesting too deep");
    }
    let n = r.len(1)?;
    let mut trees = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.len(1)?;
        let mut regions = BTreeSet::new();
        for _ in 0..k {
            regions.insert(get_region(r)?);
        }
        let children = get_model(r, depth + 1)?;
        trees.push(MemTree { regions, children });
    }
    Ok(MemModel { trees })
}

fn put_state(w: &mut Writer, s: &SymState) {
    w.len(s.pred.regs.len());
    for (reg, e) in s.pred.regs.iter() {
        put_reg(w, reg);
        put_expr(w, &e);
    }
    put_flags(w, &s.pred.flags);
    match s.pred.df {
        None => w.u8(0),
        Some(false) => w.u8(1),
        Some(true) => w.u8(2),
    }
    w.len(s.pred.mem.len());
    for (region, e) in &s.pred.mem {
        put_region(w, region);
        put_expr(w, e);
    }
    w.len(s.pred.clauses.len());
    for c in &s.pred.clauses {
        put_clause(w, c);
    }
    put_model(w, &s.model);
}

fn get_state(r: &mut Reader<'_>) -> R<SymState> {
    let mut regs = RegFile::all_bottom();
    for _ in 0..r.len(2)? {
        let reg = get_reg(r)?;
        regs.set(reg, get_expr(r, 0)?);
    }
    let flags = get_flags(r)?;
    let df = match r.u8()? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        _ => return r.fail("direction-flag tag"),
    };
    let mut mem = BTreeMap::new();
    for _ in 0..r.len(2)? {
        let region = get_region(r)?;
        mem.insert(region, get_expr(r, 0)?);
    }
    let mut clauses = BTreeSet::new();
    for _ in 0..r.len(2)? {
        clauses.insert(get_clause(r)?);
    }
    let model = get_model(r, 0)?;
    Ok(SymState {
        pred: Pred { regs, flags, df, mem: Shared::new(mem), clauses: Shared::new(clauses) },
        model: Shared::new(model),
    })
}

fn put_vid(w: &mut Writer, v: VertexId) {
    match v {
        VertexId::At(a, variant) => {
            w.u8(0);
            w.u64(a);
            w.u32(variant);
        }
        VertexId::Exit => w.u8(1),
    }
}

fn get_vid(r: &mut Reader<'_>) -> R<VertexId> {
    Ok(match r.u8()? {
        0 => {
            let a = r.u64()?;
            VertexId::At(a, r.u32()?)
        }
        1 => VertexId::Exit,
        _ => return r.fail("vertex-id tag"),
    })
}

fn put_dim(w: &mut Writer, d: BudgetDim) {
    w.u8(match d {
        BudgetDim::WallClock => 0,
        BudgetDim::Fuel => 1,
        BudgetDim::States => 4,
    });
}

fn get_dim(r: &mut Reader<'_>) -> R<BudgetDim> {
    Ok(match r.u8()? {
        0 => BudgetDim::WallClock,
        1 => BudgetDim::Fuel,
        // Tags 2 and 3 are retired and must not be reused: they fail
        // to decode, which the store treats as a miss.
        4 => BudgetDim::States,
        _ => return r.fail("budget-dimension tag"),
    })
}

fn put_annotation(w: &mut Writer, a: &Annotation) {
    match a {
        Annotation::UnresolvedJump { addr, target } => {
            w.u8(0);
            w.u64(*addr);
            put_expr(w, target);
        }
        Annotation::UnresolvedCall { addr, target } => {
            w.u8(1);
            w.u64(*addr);
            put_expr(w, target);
        }
        Annotation::BudgetFrontier { addr, dimension } => {
            w.u8(2);
            w.u64(*addr);
            put_dim(w, *dimension);
        }
    }
}

fn get_annotation(r: &mut Reader<'_>) -> R<Annotation> {
    Ok(match r.u8()? {
        0 => {
            let addr = r.u64()?;
            Annotation::UnresolvedJump { addr, target: get_expr(r, 0)? }
        }
        1 => {
            let addr = r.u64()?;
            Annotation::UnresolvedCall { addr, target: get_expr(r, 0)? }
        }
        2 => {
            let addr = r.u64()?;
            Annotation::BudgetFrontier { addr, dimension: get_dim(r)? }
        }
        _ => return r.fail("annotation tag"),
    })
}

fn put_obligation(w: &mut Writer, ob: &ProofObligation) {
    w.u64(ob.call_site);
    w.str(&ob.callee);
    w.len(ob.frame_args.len());
    for (reg, e) in &ob.frame_args {
        put_reg(w, *reg);
        put_expr(w, e);
    }
    w.len(ob.must_preserve.len());
    for region in &ob.must_preserve {
        put_region(w, region);
    }
}

fn get_obligation(r: &mut Reader<'_>) -> R<ProofObligation> {
    let call_site = r.u64()?;
    let callee = r.str()?;
    let mut frame_args = Vec::new();
    for _ in 0..r.len(2)? {
        let reg = get_reg(r)?;
        frame_args.push((reg, get_expr(r, 0)?));
    }
    let mut must_preserve = Vec::new();
    for _ in 0..r.len(2)? {
        must_preserve.push(get_region(r)?);
    }
    Ok(ProofObligation { call_site, callee, frame_args, must_preserve })
}

fn put_assumption(w: &mut Writer, a: &Assumption) {
    w.u8(match a.kind {
        AssumptionKind::StackVsGlobal => 0,
        AssumptionKind::StackVsHeap => 1,
        AssumptionKind::GlobalVsHeap => 2,
        AssumptionKind::DistinctAllocations => 3,
        AssumptionKind::CallerVsFrame => 4,
        AssumptionKind::CallerVsGlobal => 5,
        AssumptionKind::CallerVsFreshAllocation => 6,
    });
    put_region(w, &a.r0);
    put_region(w, &a.r1);
}

fn get_assumption(r: &mut Reader<'_>) -> R<Assumption> {
    let kind = match r.u8()? {
        0 => AssumptionKind::StackVsGlobal,
        1 => AssumptionKind::StackVsHeap,
        2 => AssumptionKind::GlobalVsHeap,
        3 => AssumptionKind::DistinctAllocations,
        4 => AssumptionKind::CallerVsFrame,
        5 => AssumptionKind::CallerVsGlobal,
        6 => AssumptionKind::CallerVsFreshAllocation,
        _ => return r.fail("assumption-kind tag"),
    };
    let r0 = get_region(r)?;
    let r1 = get_region(r)?;
    Ok(Assumption { kind, r0, r1 })
}

fn put_verr(w: &mut Writer, e: &VerificationError) {
    match e {
        VerificationError::UnprovableReturnAddress { addr, found } => {
            w.u8(0);
            w.u64(*addr);
            put_expr(w, found);
        }
        VerificationError::NonStandardStackRestore { addr, rsp } => {
            w.u8(1);
            w.u64(*addr);
            put_expr(w, rsp);
        }
        VerificationError::CallingConventionViolation { addr, reg, found } => {
            w.u8(2);
            w.u64(*addr);
            put_reg(w, *reg);
            put_expr(w, found);
        }
        VerificationError::ReturnAddressClobbered { addr, region } => {
            w.u8(3);
            w.u64(*addr);
            put_region(w, region);
        }
        VerificationError::Undecodable { addr, message } => {
            w.u8(4);
            w.u64(*addr);
            w.str(message);
        }
        VerificationError::JumpOutsideText { addr, target } => {
            w.u8(5);
            w.u64(*addr);
            w.u64(*target);
        }
    }
}

fn get_verr(r: &mut Reader<'_>) -> R<VerificationError> {
    Ok(match r.u8()? {
        0 => {
            let addr = r.u64()?;
            VerificationError::UnprovableReturnAddress { addr, found: get_expr(r, 0)? }
        }
        1 => {
            let addr = r.u64()?;
            VerificationError::NonStandardStackRestore { addr, rsp: get_expr(r, 0)? }
        }
        2 => {
            let addr = r.u64()?;
            let reg = get_reg(r)?;
            VerificationError::CallingConventionViolation { addr, reg, found: get_expr(r, 0)? }
        }
        3 => {
            let addr = r.u64()?;
            VerificationError::ReturnAddressClobbered { addr, region: get_region(r)? }
        }
        4 => {
            let addr = r.u64()?;
            VerificationError::Undecodable { addr, message: r.str()? }
        }
        5 => {
            let addr = r.u64()?;
            VerificationError::JumpOutsideText { addr, target: r.u64()? }
        }
        _ => return r.fail("verification-error tag"),
    })
}

// -------------------------------------------------------------- artifact

/// Encode a full per-function artifact.
pub fn encode_fn_lift(f: &FnLift) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(f.entry);
    w.bool(f.returns);
    w.u64(f.resolved_indirections as u64);
    w.len(f.extent.len());
    for (a, l) in &f.extent {
        w.u64(*a);
        w.u8(*l);
    }
    w.len(f.image_reads.len());
    for (a, l) in &f.image_reads {
        w.u64(*a);
        w.u8(*l);
    }
    w.len(f.callee_deps.len());
    for (c, consumed) in &f.callee_deps {
        w.u64(*c);
        w.bool(*consumed);
    }
    w.len(f.verification_errors.len());
    for e in &f.verification_errors {
        put_verr(&mut w, e);
    }
    w.len(f.annotations.len());
    for a in &f.annotations {
        put_annotation(&mut w, a);
    }
    w.len(f.obligations.len());
    for ob in &f.obligations {
        put_obligation(&mut w, ob);
    }
    w.len(f.assumptions.len());
    for a in &f.assumptions {
        put_assumption(&mut w, a);
    }
    w.len(f.graph.vertices.len());
    for (vid, v) in &f.graph.vertices {
        put_vid(&mut w, *vid);
        w.bool(v.reachable);
        put_state(&mut w, &v.state);
    }
    w.len(f.graph.edges.len());
    for e in &f.graph.edges {
        put_vid(&mut w, e.from);
        put_vid(&mut w, e.to);
        w.u64(e.instr.addr);
    }
    w.into_bytes()
}

/// Decode a per-function artifact, re-decoding edge instructions from
/// `binary` (sound: the store verified the content hash over the
/// artifact's byte extent before calling this).
pub fn decode_fn_lift(bytes: &[u8], binary: &Binary) -> R<FnLift> {
    let mut r = Reader::new(bytes);
    let entry = r.u64()?;
    let returns = r.bool()?;
    let resolved = r.u64()?;
    let resolved_indirections =
        usize::try_from(resolved).map_err(|_| CodecError { at: 0, what: "indirection count" })?;
    let mut extent = BTreeSet::new();
    for _ in 0..r.len(9)? {
        let a = r.u64()?;
        extent.insert((a, r.u8()?));
    }
    let mut image_reads = BTreeSet::new();
    for _ in 0..r.len(9)? {
        let a = r.u64()?;
        image_reads.insert((a, r.u8()?));
    }
    let mut callee_deps = BTreeMap::new();
    for _ in 0..r.len(9)? {
        let c = r.u64()?;
        callee_deps.insert(c, r.bool()?);
    }
    let mut verification_errors = Vec::new();
    for _ in 0..r.len(9)? {
        verification_errors.push(get_verr(&mut r)?);
    }
    let mut annotations = Vec::new();
    for _ in 0..r.len(9)? {
        annotations.push(get_annotation(&mut r)?);
    }
    let mut obligations = Vec::new();
    for _ in 0..r.len(8)? {
        obligations.push(get_obligation(&mut r)?);
    }
    let mut assumptions = Vec::new();
    for _ in 0..r.len(3)? {
        assumptions.push(get_assumption(&mut r)?);
    }
    let mut graph = HoareGraph::new();
    for _ in 0..r.len(2)? {
        let vid = get_vid(&mut r)?;
        let reachable = r.bool()?;
        let state = get_state(&mut r)?;
        graph.add_vertex(vid, state, reachable);
    }
    // Graphs have several edges per instruction address (one per
    // predicate index), so the re-decode is memoized per address.
    let mut decoded: BTreeMap<u64, hgl_x86::Instr> = BTreeMap::new();
    for _ in 0..r.len(10)? {
        let from = get_vid(&mut r)?;
        let to = get_vid(&mut r)?;
        let addr = r.u64()?;
        let instr = match decoded.get(&addr) {
            Some(i) => i.clone(),
            None => {
                let Some(window) = binary.fetch_window(addr) else {
                    return r.fail("edge instruction outside text");
                };
                let Ok(instr) = decode(window, addr) else {
                    return r.fail("edge instruction undecodable");
                };
                decoded.insert(addr, instr.clone());
                instr
            }
        };
        graph.edges.push(hgl_core::Edge { from, to, instr });
    }
    if !r.at_end() {
        return r.fail("trailing bytes");
    }
    // `CalleeRejected` is intentionally NOT reconstructed here: it is a
    // derived verdict, recomputed at assembly from `callee_deps` so a
    // callee's fate decided in *this* run wins over history.
    let reject = verification_errors.first().map(|e| match e {
        VerificationError::Undecodable { addr, message } => {
            RejectReason::DecodeError { addr: *addr, message: message.clone() }
        }
        other => RejectReason::Verification(other.clone()),
    });
    Ok(FnLift {
        entry,
        graph,
        annotations,
        obligations,
        assumptions,
        verification_errors,
        resolved_indirections,
        extent,
        image_reads,
        callee_deps,
        returns,
        reject,
    })
}
