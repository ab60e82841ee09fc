//! Unsigned intervals for the paper's range abstraction (Def. 3.3).

use std::fmt;

/// A closed unsigned interval `[lo, hi]` over 64-bit values.
///
/// Used when joining predicates: two equality clauses `a = 3` and
/// `a = 4` merge into the range `[3, 4]` (Example 3.4), and bound
/// clauses (`eax < 0xc3`) are mined into intervals by the solver to
/// bound jump-table indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl Interval {
    /// The full 64-bit range (⊤).
    pub const TOP: Interval = Interval { lo: 0, hi: u64::MAX };

    /// A singleton interval.
    pub fn point(v: u64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`; panics if `lo > hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Interval {
        assert!(lo <= hi, "malformed interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// True if the interval is a single value.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of values in the interval, saturating at `u64::MAX`.
    pub fn count(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// Membership test.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Join: the smallest interval containing both (Def. 3.3's range
    /// abstraction — sound but lossy).
    pub fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Meet: intersection, or `None` if disjoint.
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Add a constant; returns `None` (unbounded) on overflow of either
    /// end, which keeps interval arithmetic sound under wrapping.
    pub fn add_const(self, k: u64) -> Option<Interval> {
        Some(Interval { lo: self.lo.checked_add(k)?, hi: self.hi.checked_add(k)? })
    }

    /// Multiply by a constant; `None` on overflow.
    pub fn mul_const(self, k: u64) -> Option<Interval> {
        Some(Interval { lo: self.lo.checked_mul(k)?, hi: self.hi.checked_mul(k)? })
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            write!(f, "{{{}}}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_covers_both() {
        let j = Interval::point(3).join(Interval::point(4));
        assert_eq!(j, Interval::new(3, 4));
        assert!(j.contains(3) && j.contains(4));
    }

    #[test]
    fn meet_disjoint_is_none() {
        assert_eq!(Interval::new(0, 5).meet(Interval::new(10, 20)), None);
        assert_eq!(Interval::new(0, 10).meet(Interval::new(5, 20)), Some(Interval::new(5, 10)));
    }

    #[test]
    fn arithmetic_overflow_is_top() {
        assert_eq!(Interval::new(1, u64::MAX).add_const(1), None);
        assert_eq!(Interval::new(0, 4).mul_const(8), Some(Interval::new(0, 32)));
        assert_eq!(Interval::new(0, u64::MAX / 2).mul_const(4), None);
    }

    #[test]
    fn count_saturates() {
        assert_eq!(Interval::TOP.count(), u64::MAX);
        assert_eq!(Interval::point(7).count(), 1);
    }

    #[test]
    #[should_panic(expected = "malformed")]
    fn backwards_interval_panics() {
        let _ = Interval::new(2, 1);
    }
}
