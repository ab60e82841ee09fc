//! Seeded generation of C-compiler-shaped x86-64 functions.

use hgl_asm::Asm;
use hgl_x86::{Cond, Instr, MemOperand, Mnemonic, Operand, Reg, Width};
use rand::rngs::SmallRng;
use rand::Rng;

fn ins(m: Mnemonic, ops: Vec<Operand>, w: Width) -> Instr {
    Instr::new(m, ops, w)
}

fn reg32(r: Reg) -> Operand {
    Operand::reg(r, Width::B4)
}

/// Volatile scratch registers the generator computes in.
const SCRATCH: [Reg; 4] = [Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::R8];

/// The mnemonic stems [`ProgramGen::gen_function`] can emit, collapsed
/// over condition codes (see [`mnemonic_stem`]). This doubles as the
/// checked-in coverage floor of the trace oracle: a campaign that never
/// executes one of these means either the generator rotted (it stopped
/// emitting the shape) or the campaign profiles stopped reaching it —
/// both are regressions the oracle must flag.
///
/// `movabs` requires a profile with callbacks or wild jumps enabled;
/// `pop` requires a frame or saved registers (probability ≈ 1 over a
/// whole campaign).
pub fn emittable_mnemonics() -> &'static [&'static str] {
    &[
        "add", "call", "cmp", "endbr64", "imul", "jcc", "jmp", "lea", "mov", "movabs", "pop",
        "push", "ret", "shl", "sub", "xor",
    ]
}

/// Collapse a mnemonic to the stem used in coverage accounting:
/// condition-code families count as one (`jne`/`je`/… → `jcc`).
pub fn mnemonic_stem(m: Mnemonic) -> String {
    match m {
        Mnemonic::Jcc(_) => "jcc".to_string(),
        Mnemonic::Setcc(_) => "setcc".to_string(),
        Mnemonic::Cmovcc(_) => "cmovcc".to_string(),
        other => other.name(),
    }
}

/// Options controlling one generated function.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Approximate number of body segments.
    pub segments: usize,
    /// Names of sibling functions this one may call (acyclicity is the
    /// caller's responsibility).
    pub callees: Vec<String>,
    /// External functions it may call.
    pub externals: Vec<String>,
    /// Probability of a bounded jump table per segment.
    pub p_jump_table: f64,
    /// Probability of a *masked* jump table per segment: the index is
    /// bounded by `and eax, n-1` instead of a `cmp`/`ja` guard, so the
    /// lifter's inline bound mining cannot resolve it (column B) and
    /// only the analyze→re-lift value-set refinement can.
    pub p_masked_table: f64,
    /// Probability of an indirect callback call per segment (column C).
    pub p_callback: f64,
    /// Probability of an unresolved indirect jump per function
    /// (column B).
    pub p_wild_jump: f64,
    /// Probability of writing through a caller pointer per segment.
    pub p_param_write: f64,
}

impl Default for GenOptions {
    fn default() -> GenOptions {
        GenOptions {
            segments: 8,
            callees: Vec::new(),
            externals: vec!["puts".into(), "malloc".into(), "free".into(), "memcpy".into()],
            p_jump_table: 0.08,
            p_masked_table: 0.0,
            p_callback: 0.05,
            p_wild_jump: 0.02,
            p_param_write: 0.1,
        }
    }
}

/// Statistics of one generated function.
#[derive(Debug, Clone, Default)]
pub struct FunctionSpec {
    /// The function's label.
    pub name: String,
    /// Jump tables emitted (each is a resolvable indirection).
    pub jump_tables: usize,
    /// Masked jump tables emitted (unresolvable inline; resolvable by
    /// value-set refinement).
    pub masked_tables: usize,
    /// Callback call sites emitted (unresolvable indirect calls).
    pub callbacks: usize,
    /// Wild indirect jumps emitted (unresolvable indirect jumps).
    pub wild_jumps: usize,
    /// Internal call sites.
    pub calls: usize,
    /// External call sites.
    pub ext_calls: usize,
}

/// A program generator: owns the assembler, unique-label counters and
/// shared data pools.
pub struct ProgramGen {
    /// The assembler being filled.
    pub asm: Asm,
    label_counter: usize,
    data_counter: usize,
    /// Collected per-function statistics.
    pub specs: Vec<FunctionSpec>,
    /// Half-open text-item index ranges of every emitted body segment,
    /// across all functions. Prologues/epilogues are not spanned, so a
    /// shrinker that drops whole spans keeps functions well-formed.
    pub segment_spans: Vec<(usize, usize)>,
}

impl Default for ProgramGen {
    fn default() -> Self {
        ProgramGen::new()
    }
}

impl ProgramGen {
    /// A fresh generator.
    pub fn new() -> ProgramGen {
        ProgramGen {
            asm: Asm::new(),
            label_counter: 0,
            data_counter: 0,
            specs: Vec::new(),
            segment_spans: Vec::new(),
        }
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}_{}", self.label_counter)
    }

    /// Emit one function shaped like compiled C code.
    pub fn gen_function(&mut self, name: &str, rng: &mut SmallRng, opts: &GenOptions) -> FunctionSpec {
        let mut spec = FunctionSpec { name: name.to_string(), ..FunctionSpec::default() };
        let asm = &mut self.asm;
        asm.label(name);
        asm.ins(ins(Mnemonic::Endbr64, vec![], Width::B8));

        // Prologue.
        let use_frame = rng.gen_bool(0.8);
        let saved: Vec<Reg> = [Reg::Rbx, Reg::R12, Reg::R13]
            .into_iter()
            .filter(|_| rng.gen_bool(0.3))
            .collect();
        if use_frame {
            asm.push(Reg::Rbp);
            asm.mov(Operand::reg64(Reg::Rbp), Operand::reg64(Reg::Rsp));
        }
        for r in &saved {
            asm.push(*r);
        }
        let frame = 8 * rng.gen_range(2..8i64);
        asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(frame)], Width::B8));
        // Local slots live at [rsp + k] — always in-frame.
        let slots: Vec<i64> = (0..frame / 8).map(|i| 8 * i).collect();

        // Body.
        for _ in 0..opts.segments {
            let start = self.asm.text_len();
            self.gen_segment(rng, opts, &slots, &saved, &mut spec);
            self.segment_spans.push((start, self.asm.text_len()));
        }

        // Epilogue.
        let asm = &mut self.asm;
        asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rsp), Operand::Imm(frame)], Width::B8));
        for r in saved.iter().rev() {
            asm.pop(*r);
        }
        if use_frame {
            asm.pop(Reg::Rbp);
        }
        asm.ret();
        self.specs.push(spec.clone());
        spec
    }

    fn gen_segment(
        &mut self,
        rng: &mut SmallRng,
        opts: &GenOptions,
        slots: &[i64],
        saved: &[Reg],
        spec: &mut FunctionSpec,
    ) {
        // Weighted choice of segment kind.
        let roll: f64 = rng.gen();
        if roll < opts.p_jump_table {
            self.gen_jump_table(rng, spec);
            return;
        }
        if roll < opts.p_jump_table + opts.p_masked_table {
            self.gen_masked_jump_table(rng, spec);
            return;
        }
        if roll < opts.p_jump_table + opts.p_masked_table + opts.p_callback {
            self.gen_callback(rng, spec);
            return;
        }
        let base = opts.p_jump_table + opts.p_masked_table + opts.p_callback;
        if roll < base + opts.p_param_write {
            self.gen_param_write(rng);
            return;
        }
        if roll < base + opts.p_param_write + opts.p_wild_jump {
            // A reachable-but-unlikely error path ending in an
            // unresolvable indirect jump (column B).
            let skip = self.fresh_label("skip");
            self.asm.ins(ins(
                Mnemonic::Cmp,
                vec![reg32(Reg::Rax), Operand::Imm(0x7fff_0000 + rng.gen_range(0..0x100))],
                Width::B4,
            ));
            self.asm.jcc(Cond::Ne, &skip);
            self.gen_wild_jump(spec);
            self.asm.label(&skip);
            return;
        }
        match rng.gen_range(0..6u32) {
            0 => self.gen_arith(rng, saved),
            1 => self.gen_locals(rng, slots),
            2 => self.gen_diamond(rng),
            3 => self.gen_loop(rng),
            4 => {
                if let Some(callee) = pick(rng, &opts.callees) {
                    self.asm.call(&callee);
                    spec.calls += 1;
                } else {
                    self.gen_arith(rng, saved);
                }
            }
            _ => {
                if let Some(ext) = pick(rng, &opts.externals) {
                    // Conventional argument setup.
                    self.asm.ins(ins(
                        Mnemonic::Mov,
                        vec![reg32(Reg::Rdi), Operand::Imm(rng.gen_range(0..64))],
                        Width::B4,
                    ));
                    self.asm.call_ext(&ext);
                    spec.ext_calls += 1;
                } else {
                    self.gen_locals(rng, slots);
                }
            }
        }
    }

    fn gen_arith(&mut self, rng: &mut SmallRng, saved: &[Reg]) {
        let asm = &mut self.asm;
        let mut pool: Vec<Reg> = SCRATCH.to_vec();
        pool.extend(saved.iter().copied());
        for _ in 0..rng.gen_range(1..5u32) {
            let dst = pool[rng.gen_range(0..pool.len())];
            let kind = rng.gen_range(0..6u32);
            match kind {
                0 => {
                    asm.ins(ins(
                        Mnemonic::Mov,
                        vec![reg32(dst), Operand::Imm(rng.gen_range(0..0x1000))],
                        Width::B4,
                    ));
                }
                1 => {
                    asm.ins(ins(
                        Mnemonic::Add,
                        vec![Operand::reg64(dst), Operand::Imm(rng.gen_range(1..0x100))],
                        Width::B8,
                    ));
                }
                2 => {
                    let src = SCRATCH[rng.gen_range(0..SCRATCH.len())];
                    asm.ins(ins(
                        Mnemonic::Xor,
                        vec![Operand::reg64(dst), Operand::reg64(src)],
                        Width::B8,
                    ));
                }
                3 => {
                    asm.ins(ins(
                        Mnemonic::Imul,
                        vec![Operand::reg64(dst), Operand::reg64(dst), Operand::Imm(3)],
                        Width::B8,
                    ));
                }
                4 => {
                    asm.ins(ins(
                        Mnemonic::Shl,
                        vec![Operand::reg64(dst), Operand::Imm(rng.gen_range(1..8))],
                        Width::B8,
                    ));
                }
                _ => {
                    let src = SCRATCH[rng.gen_range(0..SCRATCH.len())];
                    asm.ins(ins(
                        Mnemonic::Lea,
                        vec![
                            Operand::reg64(dst),
                            Operand::Mem(MemOperand::sib(
                                Some(src),
                                SCRATCH[rng.gen_range(0..SCRATCH.len())],
                                1 << rng.gen_range(0..3u32),
                                rng.gen_range(-64..64),
                                Width::B8,
                            )),
                        ],
                        Width::B8,
                    ));
                }
            }
        }
    }

    fn gen_locals(&mut self, rng: &mut SmallRng, slots: &[i64]) {
        if slots.is_empty() {
            return;
        }
        let asm = &mut self.asm;
        let slot = slots[rng.gen_range(0..slots.len())];
        let r = SCRATCH[rng.gen_range(0..SCRATCH.len())];
        asm.ins(ins(
            Mnemonic::Mov,
            vec![Operand::Mem(MemOperand::base_disp(Reg::Rsp, slot, Width::B8)), Operand::reg64(r)],
            Width::B8,
        ));
        let r2 = SCRATCH[rng.gen_range(0..SCRATCH.len())];
        asm.ins(ins(
            Mnemonic::Mov,
            vec![Operand::reg64(r2), Operand::Mem(MemOperand::base_disp(Reg::Rsp, slot, Width::B8))],
            Width::B8,
        ));
    }

    fn gen_diamond(&mut self, rng: &mut SmallRng) {
        let lbl_then = self.fresh_label("then");
        let lbl_join = self.fresh_label("join");
        let asm = &mut self.asm;
        let r = SCRATCH[rng.gen_range(0..SCRATCH.len())];
        asm.ins(ins(Mnemonic::Cmp, vec![reg32(r), Operand::Imm(rng.gen_range(0..100))], Width::B4));
        let cond = [Cond::E, Cond::Ne, Cond::B, Cond::A, Cond::L, Cond::Ge][rng.gen_range(0..6usize)];
        asm.jcc(cond, &lbl_then);
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(1)], Width::B4));
        asm.jmp(&lbl_join);
        asm.label(&lbl_then);
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(2)], Width::B4));
        asm.label(&lbl_join);
    }

    fn gen_loop(&mut self, rng: &mut SmallRng) {
        let lbl = self.fresh_label("loop");
        let asm = &mut self.asm;
        asm.ins(ins(
            Mnemonic::Mov,
            vec![reg32(Reg::Rcx), Operand::Imm(rng.gen_range(1..32))],
            Width::B4,
        ));
        asm.label(&lbl);
        asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rax), Operand::Imm(1)], Width::B8));
        asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rcx), Operand::Imm(1)], Width::B8));
        asm.jcc(Cond::Ne, &lbl);
    }

    fn gen_jump_table(&mut self, rng: &mut SmallRng, spec: &mut FunctionSpec) {
        let n = rng.gen_range(2..6usize);
        let table = self.fresh_label("table");
        let join = self.fresh_label("tjoin");
        let default = self.fresh_label("tdefault");
        let cases: Vec<String> = (0..n).map(|_| self.fresh_label("case")).collect();
        let asm = &mut self.asm;
        // mov eax, edi ; cmp eax, n-1 ; ja default ; jmp [table + rax*8]
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), reg32(Reg::Rdi)], Width::B4));
        asm.ins(ins(Mnemonic::Cmp, vec![reg32(Reg::Rax), Operand::Imm(n as i64 - 1)], Width::B4));
        asm.jcc(Cond::A, &default);
        let jmp = ins(
            Mnemonic::Jmp,
            vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
            Width::B8,
        );
        asm.ins_mem_label(jmp, 0, &table);
        for (i, c) in cases.iter().enumerate() {
            asm.label(c);
            asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(10 + i as i64)], Width::B4));
            asm.jmp(&join);
        }
        asm.label(&default);
        asm.ins(ins(Mnemonic::Xor, vec![reg32(Reg::Rax), reg32(Reg::Rax)], Width::B4));
        asm.label(&join);
        let case_refs: Vec<&str> = cases.iter().map(String::as_str).collect();
        asm.jump_table(&table, &case_refs);
        spec.jump_tables += 1;
    }

    fn gen_masked_jump_table(&mut self, rng: &mut SmallRng, spec: &mut FunctionSpec) {
        // Power-of-two fan-out bounded by masking instead of a cmp/ja
        // guard: every masked value is a valid index, so there is no
        // default case and no comparison for the lifter to mine a bound
        // from. The jump stays unresolved (column B) until the
        // value-set refinement bounds `rax` to [0, n-1].
        let n = [2usize, 4, 8][rng.gen_range(0..3usize)];
        let table = self.fresh_label("mtable");
        let join = self.fresh_label("mtjoin");
        let cases: Vec<String> = (0..n).map(|_| self.fresh_label("mcase")).collect();
        let asm = &mut self.asm;
        // mov eax, edi ; and eax, n-1 ; jmp [table + rax*8]
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), reg32(Reg::Rdi)], Width::B4));
        asm.ins(ins(Mnemonic::And, vec![reg32(Reg::Rax), Operand::Imm(n as i64 - 1)], Width::B4));
        let jmp = ins(
            Mnemonic::Jmp,
            vec![Operand::Mem(MemOperand::sib(None, Reg::Rax, 8, 0, Width::B8))],
            Width::B8,
        );
        asm.ins_mem_label(jmp, 0, &table);
        for (i, c) in cases.iter().enumerate() {
            asm.label(c);
            asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), Operand::Imm(20 + i as i64)], Width::B4));
            asm.jmp(&join);
        }
        asm.label(&join);
        let case_refs: Vec<&str> = cases.iter().map(String::as_str).collect();
        asm.jump_table(&table, &case_refs);
        spec.masked_tables += 1;
    }

    fn gen_callback(&mut self, rng: &mut SmallRng, spec: &mut FunctionSpec) {
        self.data_counter += 1;
        let ptr = format!("fnptr_{}", self.data_counter);
        let asm = &mut self.asm;
        // The function pointer lives in writable data (set elsewhere by
        // some registration function, as in the paper's callbacks): its
        // value is unknown to the context-free analysis.
        asm.data(&ptr, vec![0u8; 8]);
        asm.movabs_label(Reg::Rax, &ptr);
        asm.mov(Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::base_disp(Reg::Rax, 0, Width::B8)));
        asm.ins(ins(Mnemonic::Call, vec![Operand::reg64(Reg::Rax)], Width::B8));
        let _ = rng;
        spec.callbacks += 1;
    }

    fn gen_param_write(&mut self, rng: &mut SmallRng) {
        let asm = &mut self.asm;
        let off = 8 * rng.gen_range(0..4i64);
        asm.ins(ins(
            Mnemonic::Mov,
            vec![
                Operand::Mem(MemOperand::base_disp(Reg::Rdi, off, Width::B8)),
                Operand::Imm(rng.gen_range(0..0x100)),
            ],
            Width::B8,
        ));
    }

    /// Emit an unresolvable indirect jump (column B): a tail jump
    /// through a writable function-pointer global.
    pub fn gen_wild_jump(&mut self, spec: &mut FunctionSpec) {
        self.data_counter += 1;
        let ptr = format!("jptr_{}", self.data_counter);
        let asm = &mut self.asm;
        asm.data(&ptr, vec![0u8; 8]);
        asm.movabs_label(Reg::Rax, &ptr);
        asm.mov(Operand::reg64(Reg::Rax), Operand::Mem(MemOperand::base_disp(Reg::Rax, 0, Width::B8)));
        asm.ins(ins(Mnemonic::Jmp, vec![Operand::reg64(Reg::Rax)], Width::B8));
        spec.wild_jumps += 1;
    }

    /// Emit a function whose return-address integrity is unprovable:
    /// an unbounded indexed write into the frame (the §5.1 induced
    /// overflow).
    pub fn gen_overflow_function(&mut self, name: &str) {
        let asm = &mut self.asm;
        asm.label(name);
        asm.ins(ins(Mnemonic::Mov, vec![reg32(Reg::Rax), reg32(Reg::Rdi)], Width::B4));
        asm.ins(ins(
            Mnemonic::Mov,
            vec![
                Operand::Mem(MemOperand::sib(Some(Reg::Rsp), Reg::Rax, 1, -0x40, Width::B1)),
                Operand::Imm(0x41),
            ],
            Width::B1,
        ));
        asm.ret();
    }

    /// Emit a function designed to explode the symbolic state space
    /// (the paper's timeout category): a chain of diamonds each storing
    /// one of two *code pointers* into a distinct frame slot. The §4
    /// join refinement keeps states with differing immediate code
    /// pointers apart, so the vertex count doubles per diamond —
    /// exactly the "large number of states that could not be joined"
    /// the paper blames for its timeouts (§5.1).
    pub fn gen_explosive_function(&mut self, name: &str, depth: usize) {
        let frame = 8 * depth as i64 + 8;
        {
            let asm = &mut self.asm;
            asm.label(name);
            asm.ins(ins(Mnemonic::Sub, vec![Operand::reg64(Reg::Rsp), Operand::Imm(frame)], Width::B8));
        }
        let target_a = format!("{name}_a");
        let target_b = format!("{name}_b");
        for i in 0..depth {
            let l_else = self.fresh_label("xe");
            let l_join = self.fresh_label("xj");
            let asm = &mut self.asm;
            // `test edi, 1<<i` keeps every diamond independent (no
            // clause is derivable, so neither branch can be pruned).
            asm.ins(ins(
                Mnemonic::Test,
                vec![reg32(Reg::Rdi), Operand::Imm(1 << i)],
                Width::B4,
            ));
            asm.jcc(Cond::E, &l_else);
            let mv = ins(Mnemonic::Movabs, vec![Operand::reg64(Reg::Rax), Operand::Imm(0)], Width::B8);
            asm.ins_imm_label(mv, 1, &target_a);
            asm.ins(ins(
                Mnemonic::Mov,
                vec![Operand::Mem(MemOperand::base_disp(Reg::Rsp, 8 * i as i64, Width::B8)), Operand::reg64(Reg::Rax)],
                Width::B8,
            ));
            asm.jmp(&l_join);
            asm.label(&l_else);
            let mv = ins(Mnemonic::Movabs, vec![Operand::reg64(Reg::Rax), Operand::Imm(0)], Width::B8);
            asm.ins_imm_label(mv, 1, &target_b);
            asm.ins(ins(
                Mnemonic::Mov,
                vec![Operand::Mem(MemOperand::base_disp(Reg::Rsp, 8 * i as i64, Width::B8)), Operand::reg64(Reg::Rax)],
                Width::B8,
            ));
            asm.label(&l_join);
        }
        let asm = &mut self.asm;
        asm.ins(ins(Mnemonic::Add, vec![Operand::reg64(Reg::Rsp), Operand::Imm(frame)], Width::B8));
        asm.ret();
        asm.label(&target_a);
        asm.ret();
        asm.label(&target_b);
        asm.ret();
    }
}

fn pick(rng: &mut SmallRng, pool: &[String]) -> Option<String> {
    if pool.is_empty() {
        None
    } else {
        Some(pool[rng.gen_range(0..pool.len())].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgl_core::Lifter;
    use rand::SeedableRng;

    #[test]
    fn generated_functions_assemble_and_lift() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pg = ProgramGen::new();
            let opts = GenOptions { segments: 6, ..GenOptions::default() };
            pg.gen_function("main", &mut rng, &opts);
            pg.asm.entry("main");
            let bin = pg.asm.assemble().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let result = Lifter::new(&bin).lift_entry(bin.entry);
            assert!(
                result.is_lifted(),
                "seed {seed}: rejected: {:?}",
                result.reject_reason()
            );
            assert!(result.functions[&bin.entry].graph.returns(), "seed {seed}: must return");
        }
    }

    #[test]
    fn overflow_function_rejected() {
        let mut pg = ProgramGen::new();
        pg.gen_overflow_function("bad");
        pg.asm.entry("bad");
        let bin = pg.asm.assemble().expect("assembles");
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(!result.is_lifted());
    }

    #[test]
    fn callback_produces_annotation() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut pg = ProgramGen::new();
        let opts = GenOptions {
            segments: 3,
            p_jump_table: 0.0,
            p_callback: 1.0,
            p_param_write: 0.0,
            ..GenOptions::default()
        };
        let spec = pg.gen_function("cb", &mut rng, &opts);
        assert!(spec.callbacks > 0);
        pg.asm.entry("cb");
        let bin = pg.asm.assemble().expect("assembles");
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
        let f = &result.functions[&bin.entry];
        let (_, _, c) = result.indirection_counts();
        assert!(c >= 1, "unresolved calls counted: {:?}", f.annotations);
    }

    #[test]
    fn jump_tables_resolve() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut pg = ProgramGen::new();
        let opts = GenOptions {
            segments: 2,
            p_jump_table: 1.0,
            p_callback: 0.0,
            p_param_write: 0.0,
            ..GenOptions::default()
        };
        let spec = pg.gen_function("jt", &mut rng, &opts);
        assert!(spec.jump_tables > 0);
        pg.asm.entry("jt");
        let bin = pg.asm.assemble().expect("assembles");
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
        let (a, b, _) = result.indirection_counts();
        assert_eq!(a, spec.jump_tables, "all tables resolved");
        assert_eq!(b, 0);
    }

    #[test]
    fn masked_tables_stay_unresolved_inline() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut pg = ProgramGen::new();
        // One segment: exploration stops at the first unresolved jump,
        // so a second table would never be reached (or counted).
        let opts = GenOptions {
            segments: 1,
            p_jump_table: 0.0,
            p_masked_table: 1.0,
            p_callback: 0.0,
            p_param_write: 0.0,
            p_wild_jump: 0.0,
            ..GenOptions::default()
        };
        let spec = pg.gen_function("mt", &mut rng, &opts);
        assert!(spec.masked_tables > 0);
        pg.asm.entry("mt");
        let bin = pg.asm.assemble().expect("assembles");
        let result = Lifter::new(&bin).lift_entry(bin.entry);
        assert!(result.is_lifted(), "reject: {:?}", result.reject_reason());
        let (a, b, _) = result.indirection_counts();
        assert_eq!(a, 0, "no cmp guard for the lifter to mine a bound from");
        // One annotation per alias case-split of the table read, so
        // the count is >= the table count, not equal.
        assert!(b >= spec.masked_tables, "masked tables are column B inline");
    }
}
