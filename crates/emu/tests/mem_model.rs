//! Model-based test of `Mem`: the page store against the byte map it
//! replaced.
//!
//! `RefMem` below is the previous implementation of `Mem`, one
//! `BTreeMap` node per materialised byte. Random sequences of reads,
//! writes and loads run on both. After every operation the returned
//! values, `len()`, `is_empty()` and `==` must agree; every tenth
//! operation the materialised bytes must too, and `changed_since`
//! against a clone taken earlier must yield exactly the bytes the old
//! baseline filter reported. Both fill policies are drawn. Addresses
//! cluster at page edges, at 0 and at `u64::MAX`, so accesses straddle
//! pages and wrap around the address space.

use hgl_emu::{FillPolicy, Mem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The byte-map memory `Mem` used to be.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RefMem {
    bytes: BTreeMap<u64, u8>,
    fill: FillPolicy,
}

impl RefMem {
    fn new(fill: FillPolicy) -> RefMem {
        RefMem { bytes: BTreeMap::new(), fill }
    }

    fn read_u8(&mut self, addr: u64) -> u8 {
        if let Some(b) = self.bytes.get(&addr) {
            return *b;
        }
        let v = match self.fill {
            FillPolicy::Zero => 0,
            FillPolicy::Hash(seed) => (splitmix64(addr ^ seed) & 0xff) as u8,
        };
        self.bytes.insert(addr, v);
        v
    }

    fn write_u8(&mut self, addr: u64, v: u8) {
        self.bytes.insert(addr, v);
    }

    fn read(&mut self, addr: u64, size: u8) -> u64 {
        let mut v = 0u64;
        for i in 0..size {
            v |= (self.read_u8(addr.wrapping_add(i as u64)) as u64) << (8 * i);
        }
        v
    }

    fn write(&mut self, addr: u64, size: u8, v: u64) {
        for i in 0..size {
            self.write_u8(addr.wrapping_add(i as u64), (v >> (8 * i)) as u8);
        }
    }

    /// The old `load` added offsets with `+`, which wraps in release
    /// builds; the wrap is spelled out so debug builds agree.
    fn load(&mut self, addr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.bytes.insert(addr.wrapping_add(i as u64), *b);
        }
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }

    /// The old `run_raw` baseline filter: every byte not held with the
    /// same value by `base`.
    fn changed_since(&self, base: &RefMem) -> Vec<(u64, u8)> {
        self.bytes
            .iter()
            .filter(|(a, v)| base.bytes.get(a) != Some(v))
            .map(|(a, v)| (*a, *v))
            .collect()
    }
}

/// An address near a page edge, 0 or `u64::MAX`, or occasionally
/// anywhere.
fn addr(rng: &mut SmallRng) -> u64 {
    const ANCHORS: [u64; 8] = [0, 0x1000, 0x2000, 0x40_1000, 0x7fff_feff_f000, 0x7fff_ff00_0000, 1 << 52, u64::MAX];
    if rng.gen_bool(0.05) {
        return rng.gen();
    }
    let anchor = ANCHORS[rng.gen_range(0..ANCHORS.len())];
    anchor.wrapping_add(rng.gen_range(-12i64..=12) as u64)
}

fn fill(rng: &mut SmallRng) -> FillPolicy {
    if rng.gen_bool(0.5) {
        FillPolicy::Zero
    } else {
        FillPolicy::Hash(rng.gen_range(0..4u64))
    }
}

/// One random operation on both stores; the two must return the same
/// value.
fn step(rng: &mut SmallRng, mem: &mut Mem, model: &mut RefMem) {
    let a = addr(rng);
    let size = rng.gen_range(0..=8u8);
    match rng.gen_range(0..5) {
        0 => assert_eq!(mem.read_u8(a), model.read_u8(a), "read_u8 {a:#x}"),
        1 => assert_eq!(mem.read(a, size), model.read(a, size), "read {a:#x}/{size}"),
        2 => {
            let v: u8 = rng.gen();
            mem.write_u8(a, v);
            model.write_u8(a, v);
        }
        3 => {
            let v: u64 = rng.gen();
            mem.write(a, size, v);
            model.write(a, size, v);
        }
        _ => {
            let len = if rng.gen_bool(0.03) { rng.gen_range(0..9000) } else { rng.gen_range(0..24) };
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            mem.load(a, &data);
            model.load(a, &data);
        }
    }
}

fn assert_same_bytes(mem: &Mem, model: &RefMem) {
    let bytes: Vec<(u64, u8)> = mem.changed_since(&Mem::default()).collect();
    let expected: Vec<(u64, u8)> = model.bytes.iter().map(|(a, v)| (*a, *v)).collect();
    assert_eq!(bytes, expected, "materialised bytes");
}

#[test]
fn page_store_matches_byte_map() {
    let mut rng = SmallRng::seed_from_u64(0x006d_656d);
    for _ in 0..200 {
        let f = fill(&mut rng);
        let (mut m0, mut r0) = (Mem::new(f), RefMem::new(f));
        let other = if rng.gen_bool(0.8) { f } else { fill(&mut rng) };
        let (mut m1, mut r1) = (Mem::new(other), RefMem::new(other));
        let (mut base_m, mut base_r) = (m0.clone(), r0.clone());
        for op in 0..100 {
            // Mostly the same operation on both pairs, so `==` is
            // exercised on equal and unequal memories alike.
            let state = rng.gen::<u64>();
            let both = rng.gen_bool(0.7);
            if both || rng.gen_bool(0.5) {
                step(&mut SmallRng::seed_from_u64(state), &mut m0, &mut r0);
            }
            if both || rng.gen_bool(0.5) {
                step(&mut SmallRng::seed_from_u64(state), &mut m1, &mut r1);
            }
            if rng.gen_bool(0.1) {
                (base_m, base_r) = (m0.clone(), r0.clone());
                assert!(base_m == m0, "a clone equals its source");
            }
            if rng.gen_bool(0.02) {
                (m1, r1) = (m0.clone(), r0.clone());
            }
            for (m, r) in [(&m0, &r0), (&m1, &r1)] {
                assert_eq!(m.len(), r.len(), "len");
                assert_eq!(m.is_empty(), r.bytes.is_empty(), "is_empty");
            }
            assert_eq!(m0 == m1, r0 == r1, "== agrees with the byte map");
            // Whole-memory comparisons are the slow part of the test;
            // bytes never vanish, so a periodic check still catches
            // every divergence that persists.
            if op % 10 == 9 {
                assert_same_bytes(&m0, &r0);
                assert_same_bytes(&m1, &r1);
                let changed: Vec<(u64, u8)> = m0.changed_since(&base_m).collect();
                assert_eq!(changed, r0.changed_since(&base_r), "changed_since agrees with the baseline filter");
            }
        }
    }
}

#[test]
fn changed_since_counts_read_materialised_bytes() {
    for f in [FillPolicy::Zero, FillPolicy::Hash(9)] {
        let (mut mem, mut model) = (Mem::new(f), RefMem::new(f));
        mem.load(0xfff, &[1, 2]);
        model.load(0xfff, &[1, 2]);
        let (base_m, base_r) = (mem.clone(), model.clone());
        assert_eq!(mem.read(0xffe, 4), model.read(0xffe, 4));
        let changed: Vec<(u64, u8)> = mem.changed_since(&base_m).collect();
        assert_eq!(changed, model.changed_since(&base_r));
        assert_eq!(changed.iter().map(|(a, _)| *a).collect::<Vec<_>>(), vec![0xffe, 0x1001]);
    }
}
