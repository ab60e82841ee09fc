//! The shadow-stack guard pass.
//!
//! # What gets instrumented
//!
//! Every `ret` of every *lifted* function that the static lints could
//! not prove safe: a `ret-slot-overwrite` diagnostic (an error, or the
//! assumption-backed warning for pointers laundered through mutable
//! memory) or a `stack-depth` warning on the function marks all of its
//! returns as unproven. The pass runs exactly these two lints
//! ([`lint_ret_slot`] and [`lint_stack_depth`]) itself, and only on
//! lifted functions; both emit nothing but warnings and errors, so any
//! finding marks the function. Functions with clean lint reports keep
//! their bytes untouched — the lifter already proved their
//! return-address integrity, so a dynamic guard would be redundant.
//!
//! # Mechanism: address-preserving detour patching
//!
//! Nothing in the original image moves. At the function entry and
//! before each guarded `ret`, a span of whole instructions at least 5
//! bytes long (the *steal span*) is overwritten with `jmp rel32` to an
//! out-of-line stub; leftover stolen bytes become `hlt` so a stray
//! jump into them traps instead of executing a torn instruction. The
//! stub performs the guard work, replays the stolen instructions
//! verbatim (they are whole, position-independent, and free of
//! control flow by the steal-site rules), and jumps back.
//!
//! Steal-site rules, checked per span and refused on violation:
//! * every stolen instruction is non-control-flow and not
//!   RIP-relative (so the replayed copy is position-independent);
//! * no branch target of any lifted function lands strictly inside
//!   the span (the span *start* may be a target — it holds the detour
//!   `jmp`);
//! * spans do not overlap each other.
//!
//! # Guard ABI
//!
//! The shadow stack is a ring of [`SHADOW_DEPTH`] return-address
//! slots plus an index cell, in a fresh RW section past the image.
//! Entry stubs push the live return address (`[rsp]` at function
//! entry); ret stubs pop and compare against the live `[rsp]` after
//! the epilogue replay, and `hlt` on mismatch — which the emulator
//! surfaces as a halt event, the trap channel the guard-efficacy
//! fixtures assert on.
//!
//! Stubs clobber `r10`, `r11` and the arithmetic flags. Both
//! registers are caller-saved scratch that the corpus generator and
//! its ABI never carry across call or return boundaries, and the
//! flags are dead at function entry and after `ret` under the same
//! ABI; the differential oracle compares traces *modulo* exactly this
//! clobber set for instrumented binaries.

use crate::pass::{PassContext, RewritePass};
use crate::{GuardSite, RewriteError, RewriteOutput, ShadowLayout};
use hgl_analysis::lints::{layout, lint_ret_slot, lint_stack_depth};
use hgl_asm::Asm;
use hgl_core::graph::VertexId;
use hgl_core::lift::FnLift;
use hgl_elf::{Binary, Segment, SegmentFlags};
use hgl_x86::{decode, Instr, MemOperand, Mnemonic, Operand, Reg, Width};
use std::collections::{BTreeMap, BTreeSet};

/// Capacity of the shadow ring, in return-address slots. Deeper call
/// chains wrap around; 256 comfortably covers the corpus ABI's call
/// depths while keeping the section one page.
pub const SHADOW_DEPTH: u64 = 256;

/// The detour patch is always a 5-byte `jmp rel32`.
const PATCH_LEN: u64 = 5;

/// The shadow-stack guard pass. See the module docs for the contract.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShadowStackPass;

/// A steal span: whole instructions at `start`, `len` bytes total,
/// `len >= PATCH_LEN`.
struct StealSpan {
    start: u64,
    len: u64,
    instrs: Vec<Instr>,
}

/// Collect every branch-target address across all lifted functions:
/// edge destinations that are not the plain fall-through of their
/// instruction. Detour spans must not contain one strictly inside.
fn branch_targets(lift: &hgl_core::lift::LiftResult) -> BTreeSet<u64> {
    let mut targets = BTreeSet::new();
    for f in lift.functions.values() {
        for e in &f.graph.edges {
            if let VertexId::At(a, _) = e.to {
                if a != f.graph.edge_instr(e).next_addr() {
                    targets.insert(a);
                }
            }
        }
    }
    targets
}

fn steal_rules(instr: &Instr) -> Option<&'static str> {
    if instr.mnemonic.is_control_flow() || instr.mnemonic == Mnemonic::Call {
        return Some("control flow inside steal span");
    }
    if instr.mem_operands().any(|m| m.rip_relative) {
        return Some("rip-relative operand inside steal span");
    }
    None
}

/// Steal forward from the function entry until `PATCH_LEN` bytes are
/// covered.
fn steal_entry(
    binary: &Binary,
    entry: u64,
    targets: &BTreeSet<u64>,
) -> Result<StealSpan, RewriteError> {
    let mut instrs = Vec::new();
    let mut addr = entry;
    let mut len = 0u64;
    while len < PATCH_LEN {
        let window = binary.fetch_window(addr).ok_or(RewriteError::UnsafeStealSite {
            function: entry,
            addr,
            detail: "entry span runs out of the image".to_string(),
        })?;
        let instr = decode(window, addr).map_err(|e| RewriteError::UnsafeStealSite {
            function: entry,
            addr,
            detail: format!("undecodable instruction: {e}"),
        })?;
        if let Some(rule) = steal_rules(&instr) {
            return Err(RewriteError::UnsafeStealSite { function: entry, addr, detail: rule.into() });
        }
        if addr != entry && targets.contains(&addr) {
            return Err(RewriteError::UnsafeStealSite {
                function: entry,
                addr,
                detail: "branch target strictly inside entry span".to_string(),
            });
        }
        len += instr.len as u64;
        addr = instr.next_addr();
        instrs.push(instr);
    }
    Ok(StealSpan { start: entry, len, instrs })
}

/// Steal backward from a `ret` (inclusive) until `PATCH_LEN` bytes are
/// covered, using the function graph's instruction map to find exact
/// predecessors.
fn steal_ret(
    f: &FnLift,
    ret_addr: u64,
    targets: &BTreeSet<u64>,
) -> Result<StealSpan, RewriteError> {
    let map = f.graph.instructions();
    let ret = map.get(&ret_addr).ok_or(RewriteError::UnsafeStealSite {
        function: f.entry,
        addr: ret_addr,
        detail: "ret not in the function graph".to_string(),
    })?;
    let mut instrs: Vec<Instr> = vec![(*ret).clone()];
    let mut len = ret.len as u64;
    let mut cur = ret_addr;
    while len < PATCH_LEN {
        let prev = map
            .range(..cur)
            .next_back()
            .map(|(_, i)| (*i).clone())
            .filter(|i| i.next_addr() == cur)
            .ok_or(RewriteError::UnsafeStealSite {
                function: f.entry,
                addr: cur,
                detail: "no contiguous predecessor instruction before ret".to_string(),
            })?;
        if let Some(rule) = steal_rules(&prev) {
            return Err(RewriteError::UnsafeStealSite {
                function: f.entry,
                addr: prev.addr,
                detail: rule.into(),
            });
        }
        cur = prev.addr;
        len += prev.len as u64;
        instrs.insert(0, prev);
    }
    // The span start holds the detour; every later instruction must
    // not be a branch target.
    for i in &instrs[1..] {
        if targets.contains(&i.addr) {
            return Err(RewriteError::UnsafeStealSite {
                function: f.entry,
                addr: i.addr,
                detail: "branch target strictly inside ret span".to_string(),
            });
        }
    }
    Ok(StealSpan { start: cur, len, instrs })
}

fn reg64(r: Reg) -> Operand {
    Operand::reg64(r)
}

fn mem8(base: Reg, disp: i64) -> Operand {
    Operand::Mem(MemOperand::base_disp(base, disp, Width::B8))
}

fn ins(m: Mnemonic, ops: Vec<Operand>) -> Instr {
    Instr::new(m, ops, Width::B8)
}

/// `lea r10, [r10 + r11*8 + 8]` — address of shadow slot `r11`.
fn lea_slot() -> Instr {
    let mo = MemOperand {
        base: Some(Reg::R10),
        index: Some(Reg::R11),
        scale: 8,
        disp: 8,
        size: Width::B8,
        rip_relative: false,
    };
    ins(Mnemonic::Lea, vec![reg64(Reg::R10), Operand::Mem(mo)])
}

/// The guard prologue of an entry stub: `slots[idx] := [rsp]`,
/// `idx := (idx + 1) & MASK`. Runs before the stolen entry
/// instructions, while `[rsp]` still holds the return address.
fn entry_guard(meta: u64) -> Vec<Instr> {
    let mask = (SHADOW_DEPTH - 1) as i64;
    vec![
        ins(Mnemonic::Movabs, vec![reg64(Reg::R10), Operand::Imm(meta as i64)]),
        ins(Mnemonic::Mov, vec![reg64(Reg::R11), mem8(Reg::R10, 0)]),
        lea_slot(),
        ins(Mnemonic::Mov, vec![reg64(Reg::R11), mem8(Reg::Rsp, 0)]),
        ins(Mnemonic::Mov, vec![mem8(Reg::R10, 0), reg64(Reg::R11)]),
        ins(Mnemonic::Movabs, vec![reg64(Reg::R10), Operand::Imm(meta as i64)]),
        ins(Mnemonic::Mov, vec![reg64(Reg::R11), mem8(Reg::R10, 0)]),
        ins(Mnemonic::Add, vec![reg64(Reg::R11), Operand::Imm(1)]),
        ins(Mnemonic::And, vec![reg64(Reg::R11), Operand::Imm(mask)]),
        ins(Mnemonic::Mov, vec![mem8(Reg::R10, 0), reg64(Reg::R11)]),
    ]
}

/// The guard epilogue of a ret stub: `idx := (idx - 1) & MASK`,
/// `r10 := slots[idx]`, compare against the live `[rsp]`. Runs after
/// the stolen epilogue replay, when `rsp` again points at the return
/// address.
fn ret_guard(meta: u64) -> Vec<Instr> {
    let mask = (SHADOW_DEPTH - 1) as i64;
    vec![
        ins(Mnemonic::Movabs, vec![reg64(Reg::R10), Operand::Imm(meta as i64)]),
        ins(Mnemonic::Mov, vec![reg64(Reg::R11), mem8(Reg::R10, 0)]),
        ins(Mnemonic::Sub, vec![reg64(Reg::R11), Operand::Imm(1)]),
        ins(Mnemonic::And, vec![reg64(Reg::R11), Operand::Imm(mask)]),
        ins(Mnemonic::Mov, vec![mem8(Reg::R10, 0), reg64(Reg::R11)]),
        lea_slot(),
        ins(Mnemonic::Mov, vec![reg64(Reg::R10), mem8(Reg::R10, 0)]),
        ins(Mnemonic::Mov, vec![reg64(Reg::R11), mem8(Reg::Rsp, 0)]),
        ins(Mnemonic::Cmp, vec![reg64(Reg::R10), reg64(Reg::R11)]),
    ]
}

/// A clone of `i` with layout fields cleared, ready for re-assembly at
/// a stub address.
fn relocated(i: &Instr) -> Instr {
    let mut c = i.clone();
    c.addr = 0;
    c.len = 0;
    c
}

/// Absolute direct `jmp` to `target` (the encoder derives `rel32` from
/// the assembled address).
fn jmp_abs(target: u64) -> Instr {
    ins(Mnemonic::Jmp, vec![Operand::Imm(target as i64)])
}

impl RewritePass for ShadowStackPass {
    fn name(&self) -> &'static str {
        "shadow-stack"
    }

    fn apply(&self, ctx: &PassContext<'_>, out: &mut RewriteOutput) -> Result<(), RewriteError> {
        // 1. Which functions need guards: lifted functions with a
        //    ret-slot or stack-depth diagnostic, of either severity.
        let layout = layout(ctx.binary);
        let targets: Vec<&FnLift> = ctx
            .lift
            .functions
            .values()
            .filter(|f| {
                f.is_lifted()
                    && (!lint_ret_slot(f.entry, &f.graph, &layout).is_empty()
                        || !lint_stack_depth(f.entry, &f.graph).diags.is_empty())
            })
            .collect();
        if targets.is_empty() {
            return Ok(());
        }

        // 2. Place the new sections past everything in the image.
        let max_end = out
            .binary
            .segments
            .iter()
            .map(|s| s.vaddr + s.bytes.len() as u64)
            .max()
            .unwrap_or(0);
        let page = |a: u64| (a + 0xfff) & !0xfff;
        let shadow_base = page(max_end);
        let shadow_size = 8 + SHADOW_DEPTH * 8;
        let guard_base = page(shadow_base + shadow_size);
        if guard_base >= 1 << 31 {
            return Err(RewriteError::Layout(format!(
                "guard section at {guard_base:#x} is outside the rel32/disp32 window"
            )));
        }

        // 3. Plan the steal spans.
        let branch_set = branch_targets(ctx.lift);
        struct Plan<'f> {
            f: &'f FnLift,
            entry_span: StealSpan,
            ret_spans: Vec<StealSpan>,
        }
        let mut plans = Vec::new();
        let mut claimed: Vec<(u64, u64)> = Vec::new();
        let mut claim = |span: &StealSpan, f: u64| -> Result<(), RewriteError> {
            let range = (span.start, span.start + span.len);
            for &(s, e) in &claimed {
                if range.0 < e && s < range.1 {
                    return Err(RewriteError::UnsafeStealSite {
                        function: f,
                        addr: span.start,
                        detail: "steal spans overlap".to_string(),
                    });
                }
            }
            claimed.push(range);
            Ok(())
        };
        for f in &targets {
            let entry_span = steal_entry(ctx.binary, f.entry, &branch_set)?;
            claim(&entry_span, f.entry)?;
            let mut ret_spans = Vec::new();
            let rets: Vec<u64> = f
                .graph
                .instructions()
                .iter()
                .filter(|(_, i)| i.mnemonic == Mnemonic::Ret)
                .map(|(a, _)| *a)
                .collect();
            if rets.is_empty() {
                continue;
            }
            for ret_addr in rets {
                let span = steal_ret(f, ret_addr, &branch_set)?;
                claim(&span, f.entry)?;
                ret_spans.push(span);
            }
            plans.push(Plan { f, entry_span, ret_spans });
        }
        if plans.is_empty() {
            return Ok(());
        }

        // 4. Assemble all stubs in one text section at `guard_base`,
        //    re-linking the detours through the assembler's layout
        //    engine.
        let meta = shadow_base;
        let mut asm = Asm::new();
        asm.text_base(guard_base);
        for plan in &plans {
            let e = plan.f.entry;
            asm.label(&format!("e_{e:x}"));
            for g in entry_guard(meta) {
                asm.ins(g);
            }
            for i in &plan.entry_span.instrs {
                asm.ins(relocated(i));
            }
            asm.ins(jmp_abs(plan.entry_span.start + plan.entry_span.len));
            for span in &plan.ret_spans {
                let ret_addr = span.instrs.last().expect("ret span").addr;
                asm.label(&format!("r_{ret_addr:x}"));
                for i in &span.instrs[..span.instrs.len() - 1] {
                    asm.ins(relocated(i));
                }
                for g in ret_guard(meta) {
                    asm.ins(g);
                }
                asm.jcc(hgl_x86::Cond::Ne, &format!("t_{ret_addr:x}"));
                asm.ins(ins(Mnemonic::Ret, vec![]));
                asm.label(&format!("t_{ret_addr:x}"));
                asm.ins(ins(Mnemonic::Hlt, vec![]));
            }
        }
        asm.entry(&format!("e_{:x}", plans[0].f.entry));
        let (stub_bin, labels) = asm.assemble_with_labels()?;
        let guard_seg = stub_bin
            .segments
            .iter()
            .find(|s| s.vaddr == guard_base)
            .ok_or_else(|| RewriteError::Layout("stub text section missing".to_string()))?;
        let guard_bytes = guard_seg.bytes.clone();
        let guard_size = guard_bytes.len() as u64;

        // 5. Reconstruct per-instruction stub addresses by decoding
        //    the emitted stubs, and record the address maps.
        let entry_guard_len = entry_guard(meta).len();
        let ret_guard_len = ret_guard(meta).len();
        let mut cursor_map: BTreeMap<u64, u64> = BTreeMap::new();
        let mut skips: BTreeSet<u64> = BTreeSet::new();
        let walk = |label: &str,
                        count: usize,
                        guard_bytes: &[u8]|
         -> Result<Vec<Instr>, RewriteError> {
            let mut addr = *labels.get(label).ok_or_else(|| {
                RewriteError::Layout(format!("stub label {label} unresolved"))
            })?;
            let mut outv = Vec::new();
            for _ in 0..count {
                let off = (addr - guard_base) as usize;
                let i = decode(&guard_bytes[off..], addr)
                    .map_err(|e| RewriteError::Layout(format!("stub redecode at {addr:#x}: {e}")))?;
                addr = i.next_addr();
                outv.push(i);
            }
            Ok(outv)
        };
        for plan in &plans {
            let e = plan.f.entry;
            // Entry stub: guard (skip), replay (map), jmp back (skip).
            let n = entry_guard_len + plan.entry_span.instrs.len() + 1;
            let decoded = walk(&format!("e_{e:x}"), n, &guard_bytes)?;
            for (k, i) in decoded.iter().enumerate() {
                if k < entry_guard_len || k == n - 1 {
                    skips.insert(i.addr);
                } else {
                    cursor_map.insert(i.addr, plan.entry_span.instrs[k - entry_guard_len].addr);
                }
            }
            for span in &plan.ret_spans {
                let ret_addr = span.instrs.last().expect("ret span").addr;
                // Ret stub: replay (map), guard + jne (skip), ret
                // (maps to the original ret), trap hlt (skip).
                let replay = span.instrs.len() - 1;
                let n = replay + ret_guard_len + 3;
                let decoded = walk(&format!("r_{ret_addr:x}"), n, &guard_bytes)?;
                for (k, i) in decoded.iter().enumerate() {
                    if k < replay {
                        cursor_map.insert(i.addr, span.instrs[k].addr);
                    } else if k == n - 2 {
                        debug_assert_eq!(i.mnemonic, Mnemonic::Ret);
                        cursor_map.insert(i.addr, ret_addr);
                    } else {
                        skips.insert(i.addr);
                    }
                }
                out.guards.push(GuardSite {
                    function: e,
                    ret_addr,
                    stub_addr: labels[&format!("r_{ret_addr:x}")],
                });
            }
        }

        // 6. Patch the detours into the image and append the sections.
        let mut patch = |span: &StealSpan, stub: u64| -> Result<(), RewriteError> {
            let jmp = {
                let mut i = jmp_abs(stub);
                i.addr = span.start;
                hgl_x86::encode(&i).map_err(|e| RewriteError::Layout(format!(
                    "detour jmp at {:#x}: {e}",
                    span.start
                )))?
            };
            debug_assert_eq!(jmp.len() as u64, PATCH_LEN);
            let seg = out
                .binary
                .segments
                .iter_mut()
                .find(|s| {
                    span.start >= s.vaddr && span.start + span.len <= s.vaddr + s.bytes.len() as u64
                })
                .ok_or_else(|| {
                    RewriteError::Layout(format!("no segment covers span at {:#x}", span.start))
                })?;
            let off = (span.start - seg.vaddr) as usize;
            seg.bytes[off..off + PATCH_LEN as usize].copy_from_slice(&jmp);
            for k in PATCH_LEN..span.len {
                seg.bytes[off + k as usize] = 0xf4; // hlt
            }
            skips.insert(span.start);
            Ok(())
        };
        for plan in &plans {
            patch(&plan.entry_span, labels[&format!("e_{:x}", plan.f.entry)])?;
            for span in &plan.ret_spans {
                let ret_addr = span.instrs.last().expect("ret span").addr;
                patch(span, labels[&format!("r_{ret_addr:x}")])?;
            }
        }
        out.binary.segments.push(Segment {
            vaddr: shadow_base,
            bytes: vec![0u8; shadow_size as usize],
            flags: SegmentFlags::RW,
        });
        out.binary.segments.push(Segment {
            vaddr: guard_base,
            bytes: guard_bytes,
            flags: SegmentFlags::RX,
        });
        out.binary.segments.sort_by_key(|s| s.vaddr);

        out.addr_map.extend(cursor_map);
        out.skip_addrs.extend(skips);
        out.stats.guards_inserted += out.guards.len() as u64;
        out.shadow = Some(ShadowLayout {
            meta,
            depth: SHADOW_DEPTH,
            base: shadow_base,
            size: shadow_size,
            guard_base,
            guard_size,
        });
        Ok(())
    }
}
