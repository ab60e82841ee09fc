//! Sparse byte-addressed memory.
//!
//! Bytes live in 4 KiB pages keyed by page number. Each page records
//! which of its bytes are *materialised* (written, loaded, or read once
//! under the fill policy); every other byte of a page stays zero, and a
//! page exists only while it holds a materialised byte, so two memories
//! are equal exactly when their materialised bytes and fill policies
//! are.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// What a read of a never-written address yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicy {
    /// Unmapped bytes read as zero.
    Zero,
    /// Unmapped bytes read as a deterministic pseudo-random function of
    /// their address (materialised on first read, so subsequent reads
    /// agree). Used by the validator to model arbitrary-but-fixed
    /// memory contents.
    Hash(u64),
}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
const OFFSET_MASK: u64 = PAGE_SIZE as u64 - 1;

/// One page: its bytes plus a bitmap of the materialised ones.
#[derive(Clone, PartialEq, Eq)]
struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
    present: [u64; PAGE_SIZE / 64],
}

impl Page {
    fn new() -> Page {
        let bytes = vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().expect("page-sized buffer");
        Page { bytes, present: [0; PAGE_SIZE / 64] }
    }

    fn has(&self, off: usize) -> bool {
        self.present[off / 64] >> (off % 64) & 1 == 1
    }

    /// Mark the bytes at offsets `start..end` materialised.
    fn mark(&mut self, start: usize, end: usize) {
        let mut off = start;
        while off < end {
            let bit = off % 64;
            let n = (64 - bit).min(end - off);
            self.present[off / 64] |= (u64::MAX >> (64 - n)) << bit;
            off += n;
        }
    }

    /// The byte at `off`, materialising the fill byte of `addr` first.
    fn get_or_fill(&mut self, off: usize, addr: u64, fill: FillPolicy) -> u8 {
        if !self.has(off) {
            self.bytes[off] = match fill {
                FillPolicy::Zero => 0,
                FillPolicy::Hash(seed) => (splitmix64(addr ^ seed) & 0xff) as u8,
            };
            self.mark(off, off + 1);
        }
        self.bytes[off]
    }

    /// Offsets of the materialised bytes, in order.
    fn materialised(&self) -> impl Iterator<Item = usize> + '_ {
        self.present.iter().enumerate().flat_map(|(word, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    word * 64 + bit
                })
            })
        })
    }
}

/// A sparse, byte-granular, little-endian memory.
#[derive(Clone, PartialEq, Eq)]
pub struct Mem {
    pages: BTreeMap<u64, Page>,
    fill: FillPolicy,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Split the `len` bytes from `addr`, wrapping at `u64::MAX`, into one
/// piece per page: the address a piece starts at, its offset in the
/// page, and its range within the `len` bytes. An access of `len` bytes
/// costs one page lookup per piece.
fn pieces(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.wrapping_add(done as u64);
            let off = (at & OFFSET_MASK) as usize;
            let take = (len - done).min(PAGE_SIZE - off);
            done += take;
            (at, off, done - take..done)
        })
    })
}

impl Default for Mem {
    fn default() -> Mem {
        Mem::new(FillPolicy::Zero)
    }
}

impl fmt::Debug for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let empty = Mem::new(self.fill);
        f.debug_struct("Mem")
            .field("bytes", &self.changed_since(&empty).collect::<BTreeMap<u64, u8>>())
            .field("fill", &self.fill)
            .finish()
    }
}

impl Mem {
    /// Empty memory with the given fill policy.
    pub fn new(fill: FillPolicy) -> Mem {
        Mem { pages: BTreeMap::new(), fill }
    }

    /// The page holding `addr`, created empty if absent. Callers
    /// materialise at least one byte of it.
    fn page(&mut self, addr: u64) -> &mut Page {
        self.pages.entry(addr >> PAGE_BITS).or_insert_with(Page::new)
    }

    /// Read one byte (materialising fill bytes).
    pub fn read_u8(&mut self, addr: u64) -> u8 {
        self.read(addr, 1) as u8
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.load(addr, &[v]);
    }

    /// Read `size` bytes little-endian (size ≤ 8, wrapping at
    /// `u64::MAX`).
    pub fn read(&mut self, addr: u64, size: u8) -> u64 {
        let fill = self.fill;
        let mut le = [0u8; 8];
        for (at, off, range) in pieces(addr, size as usize) {
            let page = self.page(at);
            for (i, b) in le[range].iter_mut().enumerate() {
                *b = page.get_or_fill(off + i, at + i as u64, fill);
            }
        }
        u64::from_le_bytes(le)
    }

    /// Write the low `size` bytes of `v` little-endian.
    pub fn write(&mut self, addr: u64, size: u8, v: u64) {
        self.load(addr, &v.to_le_bytes()[..size as usize]);
    }

    /// Load a block of bytes at `addr` (wrapping at `u64::MAX`).
    pub fn load(&mut self, addr: u64, data: &[u8]) {
        for (at, off, range) in pieces(addr, data.len()) {
            let n = range.len();
            let page = self.page(at);
            page.bytes[off..off + n].copy_from_slice(&data[range]);
            page.mark(off, off + n);
        }
    }

    /// Every materialised byte of `self` that `base` lacks or holds with
    /// another value, in address order. A byte first materialised by a
    /// read counts as changed; pages equal in both memories are skipped
    /// whole. Against an empty memory this yields every materialised
    /// byte. Differential validators diff a run's final memory against
    /// a clone taken before it.
    pub fn changed_since<'a>(&'a self, base: &'a Mem) -> impl Iterator<Item = (u64, u8)> + 'a {
        self.pages.iter().flat_map(move |(&number, page)| {
            let old = base.pages.get(&number);
            let offsets = if old == Some(page) { None } else { Some(page.materialised()) };
            offsets.into_iter().flatten().filter_map(move |off| {
                let same = old.is_some_and(|o| o.has(off) && o.bytes[off] == page.bytes[off]);
                (!same).then_some(((number << PAGE_BITS) | off as u64, page.bytes[off]))
            })
        })
    }

    /// Number of materialised bytes.
    pub fn len(&self) -> usize {
        self.pages.values().flat_map(|p| p.present).map(|w| w.count_ones() as usize).sum()
    }

    /// True if no bytes are materialised.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_roundtrip() {
        let mut m = Mem::default();
        m.write(0x1000, 8, 0x0102_0304_0506_0708);
        assert_eq!(m.read(0x1000, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.read(0x1000, 4), 0x0506_0708);
        assert_eq!(m.read_u8(0x1007), 0x01);
    }

    #[test]
    fn hash_fill_is_consistent() {
        let mut m = Mem::new(FillPolicy::Hash(42));
        let a = m.read(0x5000, 8);
        let b = m.read(0x5000, 8);
        assert_eq!(a, b);
        let mut m2 = Mem::new(FillPolicy::Hash(42));
        assert_eq!(m2.read(0x5000, 8), a, "same seed, same contents");
        let mut m3 = Mem::new(FillPolicy::Hash(43));
        assert_ne!(m3.read(0x5000, 8), a, "different seed, different contents");
    }

    #[test]
    fn zero_fill() {
        let mut m = Mem::default();
        assert_eq!(m.read(0xffff_ffff_0000, 8), 0);
    }

    #[test]
    fn wrapping_addresses() {
        let mut m = Mem::default();
        m.write(u64::MAX, 2, 0xbeef);
        assert_eq!(m.read_u8(u64::MAX), 0xef);
        assert_eq!(m.read_u8(0), 0xbe);
    }

    #[test]
    fn straddling_access_spans_two_pages() {
        let mut m = Mem::default();
        m.write(0x1ffd, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.pages.len(), 2);
        assert_eq!(m.read(0x1ffd, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_u8(0x2000), 0x55);
        assert_eq!(m.len(), 8);
    }

    #[test]
    fn equality_is_on_materialised_bytes() {
        let mut a = Mem::default();
        let mut b = Mem::default();
        a.write_u8(0x10, 0);
        assert_ne!(a, b, "a materialised zero differs from an absent byte");
        b.read_u8(0x10);
        assert_eq!(a, b);
        assert_eq!(Mem::default().read(0x20, 0), 0);
        let mut c = Mem::default();
        c.read(0x20, 0);
        c.load(0x30, &[]);
        assert!(c.is_empty(), "empty accesses create no page");
    }
}
