//! Differential testing of the symbolic transformer `τ` against the
//! independent concrete emulator: when `τ` is given fully concrete
//! register values, every concrete claim it makes (immediate register
//! values, the next rip, decided flag conditions) must match what the
//! hardware-model emulator computes.
//!
//! This is the offline analogue of validating the instruction
//! semantics against machine-learned ground truth (§1, [22, 47]).

use hgl_core::diag::Diagnostics;
use hgl_core::pred::{FlagState, Pred, Shared, SymState};
use hgl_core::tau::{step, StepCtx, Successor};
use hgl_core::{MemModel, Metrics};
use hgl_elf::{Binary, Segment, SegmentFlags};
use hgl_emu::{FillPolicy, Machine, Mem};
use hgl_expr::Expr;
use hgl_solver::{Layout, QueryCache};
use hgl_x86::{encode, Cond, Instr, Mnemonic, Operand, Reg, RegRef, Width};
use proptest::prelude::*;
use std::collections::BTreeMap;

const CODE_BASE: u64 = 0x40_1000;

/// Build a one-instruction binary.
fn binary_for(instr: &Instr) -> (Binary, Instr) {
    let mut placed = instr.clone();
    placed.addr = CODE_BASE;
    let bytes = encode(&placed).expect("encodable");
    placed.len = bytes.len() as u8;
    let mut padded = bytes;
    padded.resize(32, 0x90); // nops after, so fall-through targets exist
    let bin = Binary {
        entry: CODE_BASE,
        segments: vec![Segment { vaddr: CODE_BASE, bytes: padded, flags: SegmentFlags::RX }],
        externals: BTreeMap::new(),
        symbols: BTreeMap::new(),
    };
    (bin, placed)
}

/// How the flags were set before a flag-consuming instruction runs:
/// by `cmp lhs, rhs` or by `test lhs, rhs`, at a given width.
#[derive(Clone, Copy, Debug)]
struct FlagSetup {
    lhs: u64,
    rhs: u64,
    width: Width,
    /// `test` (AND semantics, CF=OF=0) instead of `cmp` (SUB).
    is_test: bool,
}

/// Run τ on a fully concrete state and compare with the emulator.
fn check(instr: &Instr, regs: &BTreeMap<Reg, u64>, flags_from: Option<FlagSetup>) {
    let (bin, placed) = binary_for(instr);

    // Symbolic side: all registers hold immediates.
    let mut pred = Pred::function_entry(CODE_BASE);
    pred.mem.clear(); // no return-slot knowledge needed here
    for (r, v) in regs {
        pred.set_reg(*r, Expr::imm(*v));
    }
    if let Some(fs) = flags_from {
        let (w, lhs, rhs) =
            (fs.width, Expr::imm(fs.width.trunc(fs.lhs)), Expr::imm(fs.width.trunc(fs.rhs)));
        pred.flags = if fs.is_test {
            FlagState::Test { width: w, lhs, rhs }
        } else {
            FlagState::Cmp { width: w, lhs, rhs }
        };
    }
    let state = SymState { pred, model: Shared::new(MemModel::empty()) };
    let mut fresh = 0u64;
    let mut diags = Diagnostics::default();
    let mut ctx = StepCtx {
        binary: &bin,
        layout: &std::sync::Arc::new(Layout { text: bin.text_ranges(), data: bin.data_ranges() }),
        indirect_hints: &BTreeMap::new(),
        fresh: &mut fresh,
        diags: &mut diags,
        cache: &std::sync::Arc::new(QueryCache::new()),
        metrics: &Metrics::new(),
    };
    let successors = match step(&mut ctx, state, &placed, CODE_BASE) {
        Ok(s) => s,
        Err(_) => return, // rejection paths are exercised elsewhere
    };

    // Concrete side.
    let mut m = Machine::new(Mem::new(FillPolicy::Zero));
    for seg in &bin.segments {
        m.mem.load(seg.vaddr, &seg.bytes);
    }
    m.rip = CODE_BASE;
    for (r, v) in regs {
        m.set_reg(RegRef::full(*r), *v);
    }
    if let Some(fs) = flags_from {
        let w = fs.width;
        let (a, b) = (w.trunc(fs.lhs), w.trunc(fs.rhs));
        if fs.is_test {
            let res = w.trunc(a & b);
            m.flags.cf = false;
            m.flags.of = false;
            m.flags.zf = res == 0;
            m.flags.sf = w.sign_bit(res);
            m.flags.pf = (res as u8).count_ones().is_multiple_of(2);
        } else {
            let res = w.trunc(a.wrapping_sub(b));
            m.flags.cf = a < b;
            m.flags.zf = res == 0;
            m.flags.sf = w.sign_bit(res);
            let (sa, sb, sr) = (w.sign_bit(a), w.sign_bit(b), w.sign_bit(res));
            m.flags.of = sa != sb && sr != sa;
            m.flags.pf = (res as u8).count_ones().is_multiple_of(2);
        }
    }
    if m.exec(&placed).is_err() {
        return; // faulting concrete path (e.g. divide error)
    }

    // Some successor must match the machine exactly on all concrete
    // claims.
    let mut errs = Vec::new();
    for succ in &successors {
        let s = match succ {
            Successor::At(a, s) if *a == m.rip => s,
            Successor::At(_, _) => continue,
            _ => continue,
        };
        let mut ok = true;
        for (r, e) in s.pred.regs.iter() {
            if let Some(v) = e.as_imm() {
                if v != m.reg(r) {
                    errs.push(format!("{r}: τ says {v:#x}, machine {:#x}", m.reg(r)));
                    ok = false;
                }
            }
        }
        // Flag conditions τ decides must agree with the machine.
        let nomem = |_: u64, _: u8| None;
        for c in Cond::ALL {
            if let Some(expected) = s.pred.flags.eval_cond(c, &|_| 0, &nomem) {
                let f = &m.flags;
                if expected != c.eval(f.cf, f.pf, f.zf, f.sf, f.of) {
                    errs.push(format!("cond {c}: τ says {expected}"));
                    ok = false;
                }
            }
        }
        if ok {
            return; // matched
        }
    }
    panic!(
        "no successor matches machine after `{placed}` (rip {:#x}, {} successors): {}",
        m.rip,
        successors.len(),
        errs.join("; ")
    );
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    // Avoid rsp so stack discipline stays intact.
    prop_oneof![
        Just(Reg::Rax),
        Just(Reg::Rcx),
        Just(Reg::Rdx),
        Just(Reg::Rbx),
        Just(Reg::Rsi),
        Just(Reg::Rdi),
        Just(Reg::R8),
        Just(Reg::R12),
    ]
}

fn arb_width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::B1), Just(Width::B2), Just(Width::B4), Just(Width::B8)]
}

fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        Just(0u64),
        Just(1),
        Just(u64::MAX),
        Just(0x7fff_ffff),
        Just(0x8000_0000),
        Just(0xffff_ffff),
        0u64..256,
    ]
}

fn arb_regs() -> impl Strategy<Value = BTreeMap<Reg, u64>> {
    proptest::collection::vec(arb_value(), 16).prop_map(|vals| {
        Reg::ALL.iter().copied().zip(vals).map(|(r, v)| (r, if r == Reg::Rsp { 0x7fff_0000 } else { v })).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn alu_reg_reg(
        m in prop_oneof![
            Just(Mnemonic::Add), Just(Mnemonic::Sub), Just(Mnemonic::And),
            Just(Mnemonic::Or), Just(Mnemonic::Xor),
        ],
        dst in arb_reg(),
        src in arb_reg(),
        w in arb_width(),
        regs in arb_regs(),
    ) {
        let i = Instr::new(m, vec![Operand::reg(dst, w), Operand::reg(src, w)], w);
        check(&i, &regs, None);
    }

    #[test]
    fn alu_reg_imm(
        m in prop_oneof![
            Just(Mnemonic::Add), Just(Mnemonic::Sub), Just(Mnemonic::And),
            Just(Mnemonic::Or), Just(Mnemonic::Xor), Just(Mnemonic::Cmp),
            Just(Mnemonic::Test),
        ],
        dst in arb_reg(),
        v in -0x8000_0000i64..0x8000_0000,
        w in prop_oneof![Just(Width::B4), Just(Width::B8)],
        regs in arb_regs(),
    ) {
        let i = Instr::new(m, vec![Operand::reg(dst, w), Operand::Imm(w.trunc(v as u64) as i64)], w);
        // Group-1 immediates are sign-extended imm32; keep them in range.
        let i = if w == Width::B8 {
            Instr::new(i.mnemonic, vec![Operand::reg(dst, w), Operand::Imm(v)], w)
        } else { i };
        check(&i, &regs, None);
    }

    #[test]
    fn mov_and_extend(
        dst in arb_reg(),
        src in arb_reg(),
        w in arb_width(),
        regs in arb_regs(),
        which in 0u8..4,
    ) {
        let i = match which {
            0 => Instr::new(Mnemonic::Mov, vec![Operand::reg(dst, w), Operand::reg(src, w)], w),
            1 => Instr::new(
                Mnemonic::Movzx,
                vec![Operand::reg(dst, Width::B4), Operand::reg(src, Width::B1)],
                Width::B4,
            ),
            2 => Instr::new(
                Mnemonic::Movsx,
                vec![Operand::reg(dst, Width::B8), Operand::reg(src, Width::B2)],
                Width::B8,
            ),
            _ => Instr::new(
                Mnemonic::Movsxd,
                vec![Operand::reg64(dst), Operand::reg(src, Width::B4)],
                Width::B8,
            ),
        };
        check(&i, &regs, None);
    }

    #[test]
    fn shifts_by_imm(
        m in prop_oneof![Just(Mnemonic::Shl), Just(Mnemonic::Shr), Just(Mnemonic::Sar)],
        dst in arb_reg(),
        amt in 0i64..64,
        w in prop_oneof![Just(Width::B4), Just(Width::B8)],
        regs in arb_regs(),
    ) {
        let i = Instr::new(m, vec![Operand::reg(dst, w), Operand::Imm(amt)], w);
        check(&i, &regs, None);
    }

    #[test]
    fn inc_dec_neg_not(
        m in prop_oneof![
            Just(Mnemonic::Inc), Just(Mnemonic::Dec),
            Just(Mnemonic::Neg), Just(Mnemonic::Not),
        ],
        dst in arb_reg(),
        w in arb_width(),
        regs in arb_regs(),
    ) {
        let i = Instr::new(m, vec![Operand::reg(dst, w)], w);
        check(&i, &regs, None);
    }

    #[test]
    fn lea_computes_address(
        dst in arb_reg(),
        base in arb_reg(),
        idx in arb_reg().prop_filter("no rsp idx", |r| *r != Reg::Rsp),
        scale in prop_oneof![Just(1u8), Just(2), Just(4), Just(8)],
        disp in -0x1000i64..0x1000,
        regs in arb_regs(),
    ) {
        let i = Instr::new(
            Mnemonic::Lea,
            vec![
                Operand::reg64(dst),
                Operand::Mem(hgl_x86::MemOperand::sib(Some(base), idx, scale, disp, Width::B8)),
            ],
            Width::B8,
        );
        check(&i, &regs, None);
    }

    // Flag consumers after `cmp` AND after `test`, at all four flag
    // widths. The consumer width for cmov is kept wide (cmov has no
    // byte form) but the *flag-producing* width ranges over all four.
    #[test]
    fn setcc_cmovcc_after_cmp_or_test(
        n in 0u8..16,
        dst in arb_reg(),
        src in arb_reg(),
        l in arb_value(),
        r in arb_value(),
        fw in arb_width(),
        cw in prop_oneof![Just(Width::B2), Just(Width::B4), Just(Width::B8)],
        regs in arb_regs(),
        is_set in any::<bool>(),
        is_test in any::<bool>(),
    ) {
        let c = Cond::from_number(n);
        let i = if is_set {
            Instr::new(Mnemonic::Setcc(c), vec![Operand::reg(dst, Width::B1)], Width::B1)
        } else {
            Instr::new(Mnemonic::Cmovcc(c), vec![Operand::reg(dst, cw), Operand::reg(src, cw)], cw)
        };
        check(&i, &regs, Some(FlagSetup { lhs: l, rhs: r, width: fw, is_test }));
    }

    #[test]
    fn jcc_after_cmp_or_test(
        n in 0u8..16,
        l in arb_value(),
        r in arb_value(),
        w in arb_width(),
        regs in arb_regs(),
        is_test in any::<bool>(),
    ) {
        let c = Cond::from_number(n);
        let i = Instr::new(Mnemonic::Jcc(c), vec![Operand::Imm((CODE_BASE + 0x10) as i64)], Width::B8);
        check(&i, &regs, Some(FlagSetup { lhs: l, rhs: r, width: w, is_test }));
    }

    // Degenerate but common compiler idiom: `test r, r` (zero/sign of
    // a single value) followed by each consumer, at all four widths.
    #[test]
    fn consumers_after_self_test(
        n in 0u8..16,
        dst in arb_reg(),
        v in arb_value(),
        w in arb_width(),
        regs in arb_regs(),
        which in 0u8..3,
    ) {
        let c = Cond::from_number(n);
        let i = match which {
            0 => Instr::new(Mnemonic::Setcc(c), vec![Operand::reg(dst, Width::B1)], Width::B1),
            1 => Instr::new(
                Mnemonic::Cmovcc(c),
                vec![Operand::reg(dst, Width::B8), Operand::reg64(Reg::Rsi)],
                Width::B8,
            ),
            _ => Instr::new(
                Mnemonic::Jcc(c),
                vec![Operand::Imm((CODE_BASE + 0x10) as i64)],
                Width::B8,
            ),
        };
        check(&i, &regs, Some(FlagSetup { lhs: v, rhs: v, width: w, is_test: true }));
    }

    #[test]
    fn wide_conversions(
        m in prop_oneof![
            Just(Mnemonic::Cdqe), Just(Mnemonic::Cwde), Just(Mnemonic::Cqo), Just(Mnemonic::Cdq),
        ],
        regs in arb_regs(),
    ) {
        let w = match m {
            Mnemonic::Cwde => Width::B4,
            Mnemonic::Cdq => Width::B4,
            _ => Width::B8,
        };
        let i = Instr::new(m, vec![], w);
        check(&i, &regs, None);
    }

    #[test]
    fn imul_two_op(
        dst in arb_reg(),
        src in arb_reg(),
        w in prop_oneof![Just(Width::B4), Just(Width::B8)],
        regs in arb_regs(),
    ) {
        let i = Instr::new(Mnemonic::Imul, vec![Operand::reg(dst, w), Operand::reg(src, w)], w);
        check(&i, &regs, None);
    }
}
