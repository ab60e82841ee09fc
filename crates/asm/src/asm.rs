//! The two-pass assembler.

use crate::layout::{DATA_BASE, EXT_BASE, RODATA_BASE, SIZING_DUMMY, TEXT_BASE};
use hgl_elf::{Binary, Builder, SegmentFlags};
use hgl_x86::{encode, Cond, EncodeError, Instr, MemOperand, Mnemonic, Operand, Reg, Width};
use std::collections::BTreeMap;
use std::fmt;

/// Errors produced by [`Asm::assemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UnknownLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// The underlying encoder rejected an instruction.
    Encode(EncodeError),
    /// No entry label was set.
    NoEntry,
    /// The sizing fixpoint oscillated: label-address changes kept
    /// flipping shortest-form encoding choices without settling.
    LayoutDivergence,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnknownLabel(l) => write!(f, "unknown label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::Encode(e) => write!(f, "encoding failed: {e}"),
            AsmError::NoEntry => write!(f, "no entry label set"),
            AsmError::LayoutDivergence => write!(f, "layout sizing did not converge"),
        }
    }
}

/// Cap on sizing-fixpoint iterations. Real programs settle in two or
/// three passes; the cap only exists to turn a pathological
/// imm8/imm32 oscillation into a structured error instead of a hang.
const MAX_SIZING_PASSES: usize = 64;

impl std::error::Error for AsmError {}

impl From<EncodeError> for AsmError {
    fn from(e: EncodeError) -> AsmError {
        AsmError::Encode(e)
    }
}

#[derive(Debug, Clone)]
enum Fixup {
    /// No label references.
    None,
    /// Operand 0 is a direct branch target: patch with the label's
    /// absolute address.
    Branch(String),
    /// Patch the immediate operand at this index with the label's
    /// absolute address plus a byte offset.
    ImmAddr(usize, String, i64),
    /// Patch the displacement of the memory operand at this index with
    /// the label's absolute address (added to any existing offset).
    MemDisp(usize, String),
}

#[derive(Debug, Clone)]
enum TextItem {
    Label(String),
    Ins(Instr, Fixup),
}

#[derive(Debug, Clone)]
enum DataItem {
    Bytes(Vec<u8>),
    /// A table of 8-byte absolute code addresses (a jump table).
    AddrTable(Vec<String>),
}

/// The program builder. See the [crate docs](crate) for an example.
#[derive(Default, Clone)]
pub struct Asm {
    text: Vec<TextItem>,
    rodata: Vec<(String, DataItem)>,
    data: Vec<(String, DataItem)>,
    externals: Vec<String>,
    exports: Vec<(String, String)>,
    entry: Option<String>,
    /// Overrides [`TEXT_BASE`] when set — used by the rewriter to lay
    /// out guard stubs past an existing image.
    base_text: Option<u64>,
}

impl Asm {
    /// A new, empty program.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Define a label at the current text position.
    pub fn label(&mut self, name: &str) -> &mut Asm {
        self.text.push(TextItem::Label(name.to_string()));
        self
    }

    /// Append a fully resolved instruction.
    pub fn ins(&mut self, i: Instr) -> &mut Asm {
        self.text.push(TextItem::Ins(i, Fixup::None));
        self
    }

    /// Append an instruction whose immediate operand `op_index` should
    /// hold the absolute address of `label` (e.g. `movabs rdi, table`).
    pub fn ins_imm_label(&mut self, i: Instr, op_index: usize, label: &str) -> &mut Asm {
        self.ins_imm_label_off(i, op_index, label, 0)
    }

    /// Like [`Asm::ins_imm_label`], with a byte offset added to the
    /// label address (e.g. to target the middle of an instruction when
    /// constructing weird-edge test cases).
    pub fn ins_imm_label_off(&mut self, i: Instr, op_index: usize, label: &str, off: i64) -> &mut Asm {
        self.text.push(TextItem::Ins(i, Fixup::ImmAddr(op_index, label.to_string(), off)));
        self
    }

    /// Append an instruction whose memory operand `op_index` gets the
    /// absolute address of `label` added to its displacement
    /// (e.g. `mov eax, [table + rax*4]`).
    pub fn ins_mem_label(&mut self, i: Instr, op_index: usize, label: &str) -> &mut Asm {
        self.text.push(TextItem::Ins(i, Fixup::MemDisp(op_index, label.to_string())));
        self
    }

    /// `jmp label`.
    pub fn jmp(&mut self, label: &str) -> &mut Asm {
        let i = Instr::new(Mnemonic::Jmp, vec![Operand::Imm(0)], Width::B8);
        self.text.push(TextItem::Ins(i, Fixup::Branch(label.to_string())));
        self
    }

    /// `jcc label`.
    pub fn jcc(&mut self, cond: Cond, label: &str) -> &mut Asm {
        let i = Instr::new(Mnemonic::Jcc(cond), vec![Operand::Imm(0)], Width::B8);
        self.text.push(TextItem::Ins(i, Fixup::Branch(label.to_string())));
        self
    }

    /// `call label` (an internal function).
    pub fn call(&mut self, label: &str) -> &mut Asm {
        let i = Instr::new(Mnemonic::Call, vec![Operand::Imm(0)], Width::B8);
        self.text.push(TextItem::Ins(i, Fixup::Branch(label.to_string())));
        self
    }

    /// `call <external>`: calls the stub slot allocated for `name`.
    pub fn call_ext(&mut self, name: &str) -> &mut Asm {
        let idx = match self.externals.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.externals.push(name.to_string());
                self.externals.len() - 1
            }
        };
        let stub = EXT_BASE + 8 * idx as u64;
        self.ins(Instr::new(Mnemonic::Call, vec![Operand::Imm(stub as i64)], Width::B8))
    }

    /// `ret`.
    pub fn ret(&mut self) -> &mut Asm {
        self.ins(Instr::new(Mnemonic::Ret, vec![], Width::B8))
    }

    /// `push r64`.
    pub fn push(&mut self, r: Reg) -> &mut Asm {
        self.ins(Instr::new(Mnemonic::Push, vec![Operand::reg64(r)], Width::B8))
    }

    /// `pop r64`.
    pub fn pop(&mut self, r: Reg) -> &mut Asm {
        self.ins(Instr::new(Mnemonic::Pop, vec![Operand::reg64(r)], Width::B8))
    }

    /// `mov dst, src` at 64-bit width.
    pub fn mov(&mut self, dst: Operand, src: Operand) -> &mut Asm {
        self.ins(Instr::new(Mnemonic::Mov, vec![dst, src], Width::B8))
    }

    /// `movabs r64, <address of label>`.
    pub fn movabs_label(&mut self, r: Reg, label: &str) -> &mut Asm {
        let i = Instr::new(Mnemonic::Movabs, vec![Operand::reg64(r), Operand::Imm(0)], Width::B8);
        self.ins_imm_label(i, 1, label)
    }

    /// Add raw bytes to `.rodata` under `label`.
    pub fn rodata(&mut self, label: &str, bytes: Vec<u8>) -> &mut Asm {
        self.rodata.push((label.to_string(), DataItem::Bytes(bytes)));
        self
    }

    /// Add a jump table of 8-byte code addresses to `.rodata`.
    pub fn jump_table(&mut self, label: &str, targets: &[&str]) -> &mut Asm {
        let t = targets.iter().map(|s| s.to_string()).collect();
        self.rodata.push((label.to_string(), DataItem::AddrTable(t)));
        self
    }

    /// Add raw bytes to `.data` under `label`.
    pub fn data(&mut self, label: &str, bytes: Vec<u8>) -> &mut Asm {
        self.data.push((label.to_string(), DataItem::Bytes(bytes)));
        self
    }

    /// Set the entry point to `label`.
    pub fn entry(&mut self, label: &str) -> &mut Asm {
        self.entry = Some(label.to_string());
        self
    }

    /// Lay the text section out at `base` instead of the default
    /// [`TEXT_BASE`] — e.g. to append a stub section past an existing
    /// image without overlapping its segments.
    pub fn text_base(&mut self, base: u64) -> &mut Asm {
        self.base_text = Some(base);
        self
    }

    /// Export `label` as function symbol `name` (for shared-object
    /// style lifting of individual functions).
    pub fn export(&mut self, label: &str, name: &str) -> &mut Asm {
        self.exports.push((label.to_string(), name.to_string()));
        self
    }

    /// Number of text items (labels and instructions) appended so far.
    ///
    /// Item indices are stable: they identify the same item across
    /// clones and [`Asm::without_text_items`] subsets of *this*
    /// program, which is what a shrinker needs to name removal
    /// candidates.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Whether text item `idx` is an instruction (as opposed to a
    /// label definition). Shrinkers must never remove labels — a
    /// dangling reference would turn a semantic failure into an
    /// assembly error.
    pub fn is_instruction(&self, idx: usize) -> bool {
        matches!(self.text.get(idx), Some(TextItem::Ins(..)))
    }

    /// A copy of this program with the text items at `removed`
    /// (indices into the original item list) deleted. Labels are
    /// retained even when listed. Data, externals, exports and the
    /// entry are preserved unchanged.
    pub fn without_text_items(&self, removed: &std::collections::BTreeSet<usize>) -> Asm {
        let mut out = self.clone();
        out.text = self
            .text
            .iter()
            .enumerate()
            .filter(|(i, item)| !removed.contains(i) || matches!(item, TextItem::Label(_)))
            .map(|(_, item)| item.clone())
            .collect();
        out
    }

    /// A human-readable listing of the text section (labels and
    /// instructions), for shrunk-reproducer reports.
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for item in &self.text {
            match item {
                TextItem::Label(l) => {
                    let _ = writeln!(out, "{l}:");
                }
                TextItem::Ins(i, _) => {
                    let _ = writeln!(out, "    {i}");
                }
            }
        }
        out
    }

    fn data_addresses(
        items: &[(String, DataItem)],
        base: u64,
        labels: &mut BTreeMap<String, u64>,
    ) -> Result<u64, AsmError> {
        let mut addr = base;
        for (label, item) in items {
            if labels.insert(label.clone(), addr).is_some() {
                return Err(AsmError::DuplicateLabel(label.clone()));
            }
            addr += match item {
                DataItem::Bytes(b) => b.len() as u64,
                DataItem::AddrTable(t) => 8 * t.len() as u64,
            };
        }
        Ok(addr)
    }

    /// Resolve all labels and produce the loaded [`Binary`] view.
    ///
    /// # Errors
    ///
    /// Fails on unknown or duplicate labels, missing entry, or
    /// unencodable instructions.
    pub fn assemble(&self) -> Result<Binary, AsmError> {
        Ok(self.build_parts()?.0.to_binary())
    }

    /// Like [`Asm::assemble`], also returning the resolved address of
    /// every label (text and data). Callers that patch other images —
    /// the rewriter's guard stubs — need the final layout, not just
    /// the bytes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Asm::assemble`].
    pub fn assemble_with_labels(&self) -> Result<(Binary, BTreeMap<String, u64>), AsmError> {
        let (b, labels) = self.build_parts()?;
        Ok((b.to_binary(), labels))
    }

    /// Resolve all labels and serialise to an ELF executable image.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Asm::assemble`].
    pub fn assemble_elf(&self) -> Result<Vec<u8>, AsmError> {
        Ok(self.build_parts()?.0.build())
    }

    fn build_parts(&self) -> Result<(Builder, BTreeMap<String, u64>), AsmError> {
        let text_base = self.base_text.unwrap_or(TEXT_BASE);
        let mut labels: BTreeMap<String, u64> = BTreeMap::new();
        Self::data_addresses(&self.rodata, RODATA_BASE, &mut labels)?;
        Self::data_addresses(&self.data, DATA_BASE, &mut labels)?;

        // Duplicate text labels (against each other and the data
        // labels) are an input defect, independent of layout.
        {
            let mut seen = labels.clone();
            for item in &self.text {
                if let TextItem::Label(l) = item {
                    if seen.insert(l.clone(), 0).is_some() {
                        return Err(AsmError::DuplicateLabel(l.clone()));
                    }
                }
            }
        }

        // Sizing pass, iterated to a fixpoint. Label addresses feed
        // shortest-form encoding choices (imm8 vs imm32, disp widths),
        // and those choices feed instruction sizes, which feed label
        // addresses. A single dummy-valued pass — the old scheme —
        // goes stale the moment a real label value admits a shorter
        // form than the dummy did (deleting text items via
        // `without_text_items` is the classic trigger: labels move
        // down, a label-derived immediate shrinks into imm8 range, and
        // every later label lands mid-instruction). Iterating with the
        // current estimates until no label moves makes the layout
        // self-consistent; unseen forward references fall back to
        // [`SIZING_DUMMY`] on the first pass only.
        let mut text_labels: BTreeMap<String, u64> = BTreeMap::new();
        let mut converged = false;
        for _ in 0..MAX_SIZING_PASSES {
            let mut next: BTreeMap<String, u64> = BTreeMap::new();
            let mut addr = text_base;
            for item in &self.text {
                match item {
                    TextItem::Label(l) => {
                        next.insert(l.clone(), addr);
                    }
                    TextItem::Ins(i, fixup) => {
                        let mut sized = i.clone();
                        sized.addr = addr;
                        apply_fixup(&mut sized, fixup, &|l| {
                            labels
                                .get(l)
                                .or_else(|| text_labels.get(l))
                                .copied()
                                .or(Some(SIZING_DUMMY as u64))
                        })?;
                        let bytes = encode(&sized)?;
                        addr += bytes.len() as u64;
                    }
                }
            }
            if next == text_labels {
                converged = true;
                break;
            }
            text_labels = next;
        }
        if !converged {
            return Err(AsmError::LayoutDivergence);
        }
        labels.extend(text_labels);

        // Final pass: encode with the fixpoint addresses. Sizes cannot
        // change here — the resolver agrees with the one the last
        // sizing pass used.
        let resolve = |l: &str| labels.get(l).copied();
        let mut text_bytes = Vec::new();
        let mut addr = text_base;
        for item in &self.text {
            if let TextItem::Ins(i, fixup) = item {
                let mut real = i.clone();
                real.addr = addr;
                apply_fixup(&mut real, fixup, &resolve)?;
                let bytes = encode(&real)?;
                addr += bytes.len() as u64;
                text_bytes.extend_from_slice(&bytes);
            }
        }

        // Data payloads.
        let emit = |items: &[(String, DataItem)]| -> Result<Vec<u8>, AsmError> {
            let mut out = Vec::new();
            for (_, item) in items {
                match item {
                    DataItem::Bytes(b) => out.extend_from_slice(b),
                    DataItem::AddrTable(targets) => {
                        for t in targets {
                            let a = resolve(t).ok_or_else(|| AsmError::UnknownLabel(t.clone()))?;
                            out.extend_from_slice(&a.to_le_bytes());
                        }
                    }
                }
            }
            Ok(out)
        };
        let rodata_bytes = emit(&self.rodata)?;
        let data_bytes = emit(&self.data)?;

        let entry_label = self.entry.as_ref().ok_or(AsmError::NoEntry)?;
        let entry = resolve(entry_label).ok_or_else(|| AsmError::UnknownLabel(entry_label.clone()))?;

        let mut b = Builder::new().entry(entry).section(".text", text_base, text_bytes, SegmentFlags::RX);
        if !self.externals.is_empty() {
            // One 8-byte hlt-padded stub per external.
            let stub_bytes: Vec<u8> = self.externals.iter().flat_map(|_| [0xf4u8; 8]).collect();
            b = b.section(".plt.ext", EXT_BASE, stub_bytes, SegmentFlags::RX);
            for (i, name) in self.externals.iter().enumerate() {
                b = b.external(EXT_BASE + 8 * i as u64, name);
            }
        }
        if !rodata_bytes.is_empty() {
            b = b.section(".rodata", RODATA_BASE, rodata_bytes, SegmentFlags::RO);
        }
        if !data_bytes.is_empty() {
            b = b.section(".data", DATA_BASE, data_bytes, SegmentFlags::RW);
        }
        for (label, name) in &self.exports {
            let a = resolve(label).ok_or_else(|| AsmError::UnknownLabel(label.clone()))?;
            b = b.symbol(a, name);
        }
        Ok((b, labels))
    }
}

fn apply_fixup(
    i: &mut Instr,
    fixup: &Fixup,
    resolve: &dyn Fn(&str) -> Option<u64>,
) -> Result<(), AsmError> {
    match fixup {
        Fixup::None => Ok(()),
        Fixup::Branch(l) => {
            let a = resolve(l).ok_or_else(|| AsmError::UnknownLabel(l.clone()))?;
            i.operands[0] = Operand::Imm(a as i64);
            Ok(())
        }
        Fixup::ImmAddr(idx, l, off) => {
            let a = resolve(l).ok_or_else(|| AsmError::UnknownLabel(l.clone()))?;
            i.operands[*idx] = Operand::Imm(a as i64 + off);
            Ok(())
        }
        Fixup::MemDisp(idx, l) => {
            let a = resolve(l).ok_or_else(|| AsmError::UnknownLabel(l.clone()))?;
            match &mut i.operands[*idx] {
                Operand::Mem(MemOperand { disp, .. }) => {
                    *disp = disp.wrapping_add(a as i64);
                    Ok(())
                }
                _ => Err(AsmError::UnknownLabel(format!("operand {idx} of `{i}` is not mem"))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_x86::decode;

    #[test]
    fn simple_function_assembles() {
        let mut asm = Asm::new();
        asm.label("main");
        asm.push(Reg::Rbp);
        asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
        asm.ins(Instr::new(
            Mnemonic::Mov,
            vec![Operand::reg(Reg::Rax, Width::B4), Operand::Imm(0)],
            Width::B4,
        ));
        asm.pop(Reg::Rbp);
        asm.ret();
        let bin = asm.entry("main").assemble().expect("assembles");
        assert_eq!(bin.entry, TEXT_BASE);
        // Decode the first instruction back.
        let i = decode(bin.fetch_window(TEXT_BASE).expect("code"), TEXT_BASE).expect("decodes");
        assert_eq!(i.mnemonic, Mnemonic::Push);
    }

    #[test]
    fn forward_and_backward_branches() {
        let mut asm = Asm::new();
        asm.label("start");
        asm.jcc(Cond::E, "end");
        asm.jmp("start");
        asm.label("end");
        asm.ret();
        let bin = asm.entry("start").assemble().expect("assembles");
        let je = decode(bin.fetch_window(TEXT_BASE).expect("w"), TEXT_BASE).expect("d");
        let jmp_addr = TEXT_BASE + je.len as u64;
        let jmp = decode(bin.fetch_window(jmp_addr).expect("w"), jmp_addr).expect("d");
        assert_eq!(jmp.direct_target(), Some(TEXT_BASE));
        assert_eq!(je.direct_target(), Some(jmp_addr + jmp.len as u64));
    }

    #[test]
    fn jump_table_resolves_targets() {
        let mut asm = Asm::new();
        asm.label("a").ret();
        asm.label("b").ret();
        asm.jump_table("table", &["a", "b"]);
        let bin = asm.entry("a").assemble().expect("assembles");
        let t0 = bin.read_int(RODATA_BASE, 8).expect("entry 0");
        let t1 = bin.read_int(RODATA_BASE + 8, 8).expect("entry 1");
        assert_eq!(t0, TEXT_BASE);
        assert_eq!(t1, TEXT_BASE + 1);
    }

    #[test]
    fn externals_allocated_and_deduped() {
        let mut asm = Asm::new();
        asm.label("f");
        asm.call_ext("memset");
        asm.call_ext("exit");
        asm.call_ext("memset");
        asm.ret();
        let bin = asm.entry("f").assemble().expect("assembles");
        assert_eq!(bin.externals.len(), 2);
        assert_eq!(bin.external_at(EXT_BASE), Some("memset"));
        assert_eq!(bin.external_at(EXT_BASE + 8), Some("exit"));
        // First and third call go to the same stub.
        let c1 = decode(bin.fetch_window(TEXT_BASE).expect("w"), TEXT_BASE).expect("d");
        assert_eq!(c1.direct_target(), Some(EXT_BASE));
    }

    #[test]
    fn errors() {
        let mut asm = Asm::new();
        asm.label("f").jmp("nowhere").ret();
        assert_eq!(
            asm.entry("f").assemble(),
            Err(AsmError::UnknownLabel("nowhere".to_string()))
        );
        let mut dup = Asm::new();
        dup.label("x").label("x").ret();
        assert_eq!(dup.entry("x").assemble(), Err(AsmError::DuplicateLabel("x".to_string())));
        let mut noentry = Asm::new();
        noentry.label("f").ret();
        assert_eq!(noentry.assemble(), Err(AsmError::NoEntry));
    }

    #[test]
    fn elf_roundtrip_preserves_program() {
        let mut asm = Asm::new();
        asm.label("main");
        asm.call_ext("puts");
        asm.ret();
        asm.jump_table("t", &["main"]);
        asm.data("counter", vec![0; 8]);
        asm.export("main", "main");
        asm.entry("main");
        let direct = asm.assemble().expect("assembles");
        let parsed = Binary::parse(&asm.assemble_elf().expect("elf")).expect("parses");
        assert_eq!(direct, parsed);
    }

    /// Regression: deleting text items moves labels, and a moved label
    /// can shrink a label-derived immediate into imm8 range. The old
    /// single dummy-valued sizing pass kept the stale imm32-based
    /// label offsets, so every later branch landed mid-instruction in
    /// the re-assembled binary. The sizing fixpoint must re-settle the
    /// layout: assemble, delete, re-assemble, and re-decode cleanly.
    #[test]
    fn deletion_resizes_label_immediate_cleanly() {
        let mut asm = Asm::new();
        asm.label("f");
        // cmp rax, (tail - TEXT_BASE - 131): imm32 at the original
        // layout (tail is ~293 bytes in), imm8 once the padding goes.
        let cmp = Instr::new(
            Mnemonic::Cmp,
            vec![Operand::reg64(Reg::Rax), Operand::Imm(0)],
            Width::B8,
        );
        asm.ins_imm_label_off(cmp, 1, "tail", -(TEXT_BASE as i64) - 131);
        asm.jcc(Cond::E, "end");
        // 40 × 7-byte padding instructions, items 3..=42.
        for _ in 0..40 {
            asm.ins(Instr::new(
                Mnemonic::Mov,
                vec![Operand::reg64(Reg::Rax), Operand::Imm(0x1122_3344)],
                Width::B8,
            ));
        }
        asm.label("tail");
        asm.ins(Instr::new(Mnemonic::Nop, vec![], Width::B8));
        asm.label("end");
        asm.ret();
        asm.entry("f");

        let verify = |program: &Asm| {
            let (bin, labels) = program.assemble_with_labels().expect("assembles");
            let seg = bin.segments.iter().find(|s| s.vaddr == TEXT_BASE).expect("text segment");
            // Full linear decode; every byte belongs to an instruction.
            let mut boundaries = std::collections::BTreeSet::new();
            let mut branch_targets = Vec::new();
            let mut off = 0usize;
            while off < seg.bytes.len() {
                let addr = TEXT_BASE + off as u64;
                boundaries.insert(addr);
                let i = decode(&seg.bytes[off..seg.bytes.len().min(off + 15)], addr)
                    .unwrap_or_else(|e| panic!("undecodable at {addr:#x}: {e:?}"));
                if let Some(t) = i.direct_target() {
                    branch_targets.push((addr, t));
                }
                off += i.len as usize;
            }
            boundaries.insert(TEXT_BASE + seg.bytes.len() as u64);
            for (addr, t) in branch_targets {
                assert!(boundaries.contains(&t), "branch at {addr:#x} targets mid-instruction {t:#x}");
            }
            for (l, a) in &labels {
                if !l.starts_with('f') && *a >= TEXT_BASE {
                    assert!(boundaries.contains(a), "label `{l}` at {a:#x} off-boundary");
                }
            }
            (bin, labels)
        };

        let (_, labels) = verify(&asm);
        // The original layout really does use the imm32 form.
        assert!(labels["tail"] - TEXT_BASE > 131 + 127, "setup: imm must start out of imm8 range");

        // Delete 35 of the 40 padding instructions and re-assemble.
        let removed: std::collections::BTreeSet<usize> = (3..38).collect();
        let shrunk = asm.without_text_items(&removed);
        let (bin, labels) = verify(&shrunk);
        // The immediate is now in imm8 range, so the fixpoint must have
        // shrunk the cmp (7 → 4 bytes) and re-settled every label.
        assert!((labels["tail"] - TEXT_BASE) as i64 - 131 >= -128);
        assert!(((labels["tail"] - TEXT_BASE) as i64 - 131) < 128);
        let cmp = decode(bin.fetch_window(TEXT_BASE).expect("w"), TEXT_BASE).expect("d");
        assert_eq!(cmp.len, 4, "cmp should use the imm8 form after deletion");
        let jcc_addr = TEXT_BASE + cmp.len as u64;
        let jcc = decode(bin.fetch_window(jcc_addr).expect("w"), jcc_addr).expect("d");
        assert_eq!(jcc.direct_target(), Some(labels["end"]));
    }

    /// The text-base override relocates the whole text section and
    /// every text label with it.
    #[test]
    fn text_base_override_relocates_labels() {
        let mut asm = Asm::new();
        asm.label("stub");
        asm.ret();
        asm.entry("stub");
        asm.text_base(0x71_0000);
        let (bin, labels) = asm.assemble_with_labels().expect("assembles");
        assert_eq!(labels["stub"], 0x71_0000);
        assert_eq!(bin.entry, 0x71_0000);
        assert!(bin.is_code(0x71_0000));
    }

    #[test]
    fn mem_label_fixup() {
        let mut asm = Asm::new();
        asm.label("f");
        // mov rax, [table + rdi*8]
        let i = Instr::new(
            Mnemonic::Mov,
            vec![
                Operand::reg64(Reg::Rax),
                Operand::Mem(MemOperand::sib(None, Reg::Rdi, 8, 0, Width::B8)),
            ],
            Width::B8,
        );
        asm.ins_mem_label(i, 1, "table");
        asm.ret();
        asm.jump_table("table", &["f"]);
        let bin = asm.entry("f").assemble().expect("assembles");
        let decoded = decode(bin.fetch_window(TEXT_BASE).expect("w"), TEXT_BASE).expect("d");
        match &decoded.operands[1] {
            Operand::Mem(m) => assert_eq!(m.disp, RODATA_BASE as i64),
            other => panic!("expected mem, got {other:?}"),
        }
    }
}
