//! Shared containment checker: the single definition of "a concrete
//! machine state is contained in a symbolic invariant".
//!
//! Both per-edge validation (`validate_lift`) and the whole-trace
//! oracle (`hgl-oracle`) use this module, so there is exactly one
//! notion of containment in the tree and the two checkers cannot
//! drift apart.
//!
//! The pieces:
//!
//! * [`Env`] — a partial assignment of symbols (`Sym`) to concrete
//!   64-bit values. Unbound symbols read back a poison value so
//!   accidental reliance on them shows up as mismatches.
//! * [`draw_env`] — randomized environment construction used by the
//!   sampling validator (well-separated pointer slots, bound-narrowed
//!   scalars, equality propagation).
//! * [`build_machine`] — concretize a symbolic state into an
//!   `hgl-emu` machine under an environment.
//! * [`post_holds`] — the containment check proper: every register,
//!   memory cell, clause, decided flag condition and the separation
//!   structure of the memory model must agree with the machine,
//!   binding `Sym::Fresh` existentials lazily from machine values.

use hgl_core::{FlagState, SymState};
use hgl_elf::Binary;
use hgl_emu::{FillPolicy, Machine, Mem};
use hgl_expr::{Expr, ExprKind, Rel, Sym};
use hgl_x86::{Cond, Reg, RegRef};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Value read back for symbols the environment does not bind.
pub const UNBOUND: u64 = 0xdead_0000_0000;

/// The symbol environment of one sample: a partial map `Sym → u64`.
#[derive(Debug, Clone, Default)]
pub struct Env {
    map: BTreeMap<Sym, u64>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Bind `s` to `v` (overwrites).
    pub fn insert(&mut self, s: Sym, v: u64) {
        self.map.insert(s, v);
    }

    /// Look up `s`, yielding [`UNBOUND`] when absent.
    pub fn get(&self, s: Sym) -> u64 {
        *self.map.get(&s).unwrap_or(&UNBOUND)
    }

    /// Whether `s` is bound.
    pub fn contains(&self, s: Sym) -> bool {
        self.map.contains_key(&s)
    }

    /// The underlying assignment.
    pub fn map(&self) -> &BTreeMap<Sym, u64> {
        &self.map
    }
}

/// Try to pre-solve simple equality clauses (`lhs == rhs`) and bounds
/// so rejection sampling converges: repeatedly assign single-symbol
/// sides whose other side already evaluates.
pub fn propagate_equalities(state: &SymState, env: &mut BTreeMap<Sym, u64>) {
    for _ in 0..4 {
        for c in &state.pred.clauses {
            if c.rel != Rel::Eq {
                continue;
            }
            let nomem = |_: u64, _: u8| None;
            for (a, b) in [(&c.lhs, &c.rhs), (&c.rhs, &c.lhs)] {
                if let ExprKind::Sym(s) = a.kind() {
                    let lookup = |sym: Sym| *env.get(&sym).unwrap_or(&0);
                    if let Some(v) = b.eval(&lookup, &nomem) {
                        if b.syms().iter().all(|sym| env.contains_key(sym)) {
                            env.insert(*s, v);
                        }
                    }
                }
            }
        }
    }
}

/// Every symbol mentioned anywhere in `state` (registers, memory
/// regions and their addresses, clauses, memory-model regions).
pub fn syms_of(state: &SymState) -> Vec<Sym> {
    let mut syms: Vec<Sym> = Vec::new();
    for v in state.pred.regs.values() {
        syms.extend(v.syms());
    }
    for (r, v) in &state.pred.mem {
        syms.extend(r.addr.syms());
        syms.extend(v.syms());
    }
    for c in &state.pred.clauses {
        syms.extend(c.lhs.syms());
        syms.extend(c.rhs.syms());
    }
    for r in state.model.all_regions() {
        syms.extend(r.addr.syms());
    }
    syms.sort();
    syms.dedup();
    syms
}

/// Draw a candidate symbol environment for `state`.
pub fn draw_env(state: &SymState, rng: &mut SmallRng, binary: &Binary) -> Env {
    let mut map: BTreeMap<Sym, u64> = BTreeMap::new();
    let syms = syms_of(state);

    // Distinct pointer-ish symbols get well-separated slots so the
    // model's separation constraints usually hold; scalars get small
    // random values so bounds clauses usually hold.
    let mut slot = 0x10_0000_0000u64 + (rng.gen_range(0..0x100u64) << 24);
    for s in &syms {
        let v = match s {
            Sym::Init(Reg::Rsp) => 0x7fff_0000_0000 + (rng.gen_range(0..0x1000u64) * 8),
            Sym::RetSym(_) | Sym::RetAddr => 0x7f00_dead_0000 + rng.gen_range(0..0x100u64) * 8,
            _ => {
                // Mix strategies: pointer-like slot, small scalar, or
                // wild value.
                match rng.gen_range(0..4u32) {
                    0 => {
                        slot += 0x100_0000;
                        slot
                    }
                    1 => rng.gen_range(0..8u64),
                    2 => rng.gen_range(0..0x1_0000u64),
                    _ => rng.gen::<u64>(),
                }
            }
        };
        map.insert(*s, v);
    }
    // Mined bounds narrow the draw (e.g. jump-table indices).
    let layout = hgl_solver::Layout { text: binary.text_ranges(), data: binary.data_ranges() };
    let ctx = hgl_solver::Ctx::from_clauses(state.pred.clauses.iter(), layout);
    for s in &syms {
        if let Some(iv) = ctx.bound_of(&hgl_expr::Atom::Sym(*s)) {
            if iv.count() < 1 << 32 {
                map.insert(*s, rng.gen_range(iv.lo..=iv.hi));
            }
        }
        // Bounds over truncations of a symbol constrain its low bits.
        let t32 = Expr::sym(*s).trunc(hgl_x86::Width::B4);
        if let ExprKind::Op { .. } = t32.kind() {
            if let Some(iv) = ctx.bound_of(&hgl_expr::Atom::Opaque(t32)) {
                if iv.hi < 1 << 32 {
                    let low = rng.gen_range(iv.lo..=iv.hi);
                    map.insert(*s, low);
                }
            }
        }
    }
    propagate_equalities(state, &mut map);
    Env { map }
}

/// Build the concrete machine for a drawn environment.
pub fn build_machine(
    state: &SymState,
    env: &Env,
    binary: &Binary,
    addr: u64,
    rng: &mut SmallRng,
) -> Option<Machine> {
    let mut mem = Mem::new(FillPolicy::Hash(rng.gen()));
    for seg in &binary.segments {
        mem.load(seg.vaddr, &seg.bytes);
    }
    let mut m = Machine::new(mem);
    m.rip = addr;
    let lookup = |s: Sym| env.get(s);
    // Registers.
    for r in Reg::ALL {
        let e = state.pred.regs.get(r);
        let v = if e.is_bottom() {
            rng.gen()
        } else {
            let nomem = |_: u64, _: u8| None;
            match e.eval(&lookup, &nomem) {
                Some(v) => v,
                None => rng.gen(),
            }
        };
        m.set_reg(RegRef::full(r), v);
    }
    // Memory contents.
    for (region, value) in &state.pred.mem {
        let nomem = |_: u64, _: u8| None;
        let a = region.addr.eval(&lookup, &nomem)?;
        if let Some(v) = value.eval(&lookup, &nomem) {
            if region.size <= 8 {
                m.mem.write(a, region.size as u8, v);
            }
        }
    }
    // Flags.
    match &state.pred.flags {
        FlagState::Unknown => {
            m.flags.cf = rng.gen();
            m.flags.pf = rng.gen();
            m.flags.zf = rng.gen();
            m.flags.sf = rng.gen();
            m.flags.of = rng.gen();
            m.flags.af = rng.gen();
        }
        fs => {
            // Determine each flag through the condition evaluator.
            let mem_snapshot = std::cell::RefCell::new(m.mem.clone());
            let mem_oracle = |a: u64, sz: u8| -> Option<u64> {
                Some(mem_snapshot.borrow_mut().read(a, sz))
            };
            m.flags.cf = fs.eval_cond(Cond::B, &lookup, &mem_oracle).unwrap_or(rng.gen());
            m.flags.zf = fs.eval_cond(Cond::E, &lookup, &mem_oracle).unwrap_or(rng.gen());
            m.flags.sf = fs.eval_cond(Cond::S, &lookup, &mem_oracle).unwrap_or(rng.gen());
            m.flags.of = fs.eval_cond(Cond::O, &lookup, &mem_oracle).unwrap_or(rng.gen());
            m.flags.pf = fs.eval_cond(Cond::P, &lookup, &mem_oracle).unwrap_or(rng.gen());
            m.flags.af = rng.gen();
        }
    }
    m.flags.df = state.pred.df.unwrap_or(false);
    Some(m)
}

/// Extend `env` with bindings for the `Sym::Fresh` existentials of
/// `state`, witnessed by the values the machine actually holds: a
/// register (or ≤ 8-byte memory cell) whose invariant value is a bare
/// fresh symbol binds that symbol to the machine's value.
///
/// The trace oracle persists these bindings across steps — a fresh
/// symbol introduced by an external call keeps denoting the same
/// concrete value for the rest of the frame, even after the register
/// that witnessed it is overwritten.
pub fn bind_fresh(state: &SymState, env: &Env, machine: &Machine) -> Env {
    let mut env2 = env.map.clone();
    let mut mem_reader = machine.mem.clone();
    // Bind fresh symbols from register values…
    for (r, e) in state.pred.regs.iter() {
        if let ExprKind::Sym(s @ Sym::Fresh(_)) = e.kind() {
            env2.entry(*s).or_insert_with(|| machine.reg(r));
        }
    }
    // …and from memory entries.
    let lookup_partial = |m: &BTreeMap<Sym, u64>, s: Sym| m.get(&s).copied();
    for (region, value) in &state.pred.mem {
        if let ExprKind::Sym(s @ Sym::Fresh(_)) = value.kind() {
            if !env2.contains_key(s) && region.size <= 8 {
                let nomem = |_: u64, _: u8| None;
                let addr_val = {
                    let env2c = env2.clone();
                    region.addr.eval(&move |sym| lookup_partial(&env2c, sym).unwrap_or(0), &nomem)
                };
                if let Some(a) = addr_val {
                    env2.insert(*s, mem_reader.read(a, region.size as u8));
                }
            }
        }
    }
    Env { map: env2 }
}

/// Check that the machine satisfies the given invariant, extending the
/// environment with bindings for fresh symbols the lifter introduced
/// (see [`bind_fresh`]).
///
/// This is the containment relation of the paper's §3 soundness
/// statement, specialised to one drawn environment: `machine ⊨ state`
/// under `env`, with `Sym::Fresh` existentials witnessed by whatever
/// value the machine actually holds.
pub fn post_holds(state: &SymState, env: &Env, machine: &Machine) -> Result<(), String> {
    let env2 = bind_fresh(state, env, machine).map;
    let mut mem_reader = machine.mem.clone();
    let env2c = env2.clone();
    let lookup = move |s: Sym| *env2c.get(&s).unwrap_or(&UNBOUND);
    let mem_oracle = {
        let snap = std::cell::RefCell::new(mem_reader.clone());
        move |a: u64, sz: u8| -> Option<u64> { Some(snap.borrow_mut().read(a, sz)) }
    };

    // Registers.
    for (r, e) in state.pred.regs.iter() {
        if e.is_bottom() {
            continue;
        }
        if let Some(expected) = e.eval(&lookup, &mem_oracle) {
            let actual = machine.reg(r);
            if expected != actual {
                return Err(format!("{r}: expected {expected:#x}, machine has {actual:#x}"));
            }
        }
    }
    // Memory + clauses.
    match state.pred.clauses_hold(&lookup, &mem_oracle) {
        Some(true) => {}
        Some(false) => return Err("memory/clause mismatch".to_string()),
        None => {}
    }
    // Flags: every condition the abstraction decides must agree.
    for c in Cond::ALL {
        let nomem_machine = |a: u64, sz: u8| -> Option<u64> {
            Some(mem_reader.clone().read(a, sz))
        };
        if let Some(expected) = state.pred.flags.eval_cond(c, &lookup, &nomem_machine) {
            let f = &machine.flags;
            let actual = c.eval(f.cf, f.pf, f.zf, f.sf, f.of);
            if expected != actual {
                return Err(format!("flag condition {c}: abstraction says {expected}, machine {actual}"));
            }
        }
    }
    // Direction flag.
    if let Some(df) = state.pred.df {
        if machine.flags.df != df {
            return Err("df mismatch".to_string());
        }
    }
    // Memory model structure.
    let env3 = env2.clone();
    if state.model.holds_in(&move |s| *env3.get(&s).unwrap_or(&UNBOUND)) == Some(false) {
        return Err("memory model violated".to_string());
    }
    let _ = &mut mem_reader;
    Ok(())
}
