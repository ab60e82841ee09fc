//! The lift's resource budget.
//!
//! The paper ran each unit under a single wall clock (§6: four hours
//! per binary). [`Budget`] keeps that one global dimension and adds a
//! per-function step fuel; the engine also caps symbolic states per
//! function ([`ExploreLimits::max_states`](crate::explore::ExploreLimits::max_states)).
//! A [`BudgetMeter`] holds the wall-clock deadline for one lift.
//! Exhausting any dimension stops exploration *gracefully*: the partial
//! Hoare Graph built so far is kept, and every unexplored frontier
//! address is annotated with
//! [`Annotation::BudgetFrontier`](crate::diag::Annotation::BudgetFrontier)
//! so the caller can see exactly where coverage stopped.

use std::fmt;
use std::time::{Duration, Instant};

/// The budget dimension that ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BudgetDim {
    /// The wall-clock deadline passed.
    WallClock,
    /// A function consumed its per-function step fuel.
    Fuel,
    /// A function exceeded its symbolic-state cap
    /// ([`ExploreLimits::max_states`](crate::explore::ExploreLimits::max_states)).
    States,
}

impl fmt::Display for BudgetDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetDim::WallClock => "wall clock",
            BudgetDim::Fuel => "step fuel",
            BudgetDim::States => "symbolic states",
        };
        f.write_str(s)
    }
}

/// A record of one exhausted budget dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// Which dimension ran out.
    pub dimension: BudgetDim,
    /// Amount consumed when exploration stopped.
    pub used: u64,
    /// The configured limit.
    pub limit: u64,
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} budget exhausted ({}/{})", self.dimension, self.used, self.limit)
    }
}

/// Resource limits for one lift. `None` disables a dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole lift.
    pub wall_clock: Option<Duration>,
    /// Per-function symbolic step limit.
    pub max_fuel: Option<u64>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget { wall_clock: Some(Duration::from_secs(60)), max_fuel: None }
    }
}

impl Budget {
    /// A budget limited only by wall clock (the legacy `timeout` shape).
    pub fn from_timeout(timeout: Duration) -> Budget {
        Budget { wall_clock: Some(timeout), ..Budget::default() }
    }

    /// A budget with every dimension disabled (tests and harnesses).
    pub fn unlimited() -> Budget {
        Budget { wall_clock: None, max_fuel: None }
    }
}

/// The wall-clock deadline of one lift, shared by every worker of the
/// parallel engine. Per-function fuel and states are checked by the
/// exploration owning the function.
#[derive(Debug)]
pub struct BudgetMeter {
    deadline: Option<Instant>,
    wall_clock: Option<Duration>,
    started: Instant,
}

impl BudgetMeter {
    /// Starts metering against `budget` from now.
    pub fn start(budget: &Budget) -> BudgetMeter {
        let started = Instant::now();
        BudgetMeter {
            deadline: budget.wall_clock.map(|d| started + d),
            wall_clock: budget.wall_clock,
            started,
        }
    }

    /// Starts metering against `budget`, additionally clamped to an
    /// absolute `deadline` (requests served by `hgl serve` carry one).
    /// The effective wall-clock limit is the *tighter* of the budget's
    /// own dimension and the time remaining until the deadline, so a
    /// request deadline composes with a configured timeout instead of
    /// replacing it — and, critically, without changing the
    /// [`Budget`] itself (the configuration
    /// [`Fingerprint`](crate::Fingerprint) is deadline-independent, so
    /// deadline-carrying requests still share warm caches and stores).
    pub fn start_with_deadline(budget: &Budget, deadline: Option<Instant>) -> BudgetMeter {
        let mut meter = BudgetMeter::start(budget);
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(meter.started);
            let tighter = match meter.wall_clock {
                Some(w) => w.min(remaining),
                None => remaining,
            };
            meter.wall_clock = Some(tighter);
            meter.deadline = Some(meter.started + tighter);
        }
        meter
    }

    /// Checks the one global dimension, the wall clock.
    pub fn check_global(&self) -> Option<BudgetExhausted> {
        let deadline = self.deadline?;
        if Instant::now() <= deadline {
            return None;
        }
        let limit = self.wall_clock.unwrap_or(Duration::ZERO);
        Some(BudgetExhausted {
            dimension: BudgetDim::WallClock,
            used: self.started.elapsed().as_millis() as u64,
            limit: limit.as_millis() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_exhausts() {
        let meter = BudgetMeter::start(&Budget::unlimited());
        assert_eq!(meter.check_global(), None);
    }

    #[test]
    fn expired_wall_clock_trips() {
        let budget = Budget { wall_clock: Some(Duration::ZERO), ..Budget::unlimited() };
        let meter = BudgetMeter::start(&budget);
        std::thread::sleep(Duration::from_millis(2));
        let ex = meter.check_global().expect("exhausted");
        assert_eq!(ex.dimension, BudgetDim::WallClock);
    }

    #[test]
    fn deadline_tightens_wall_clock() {
        // A far-future configured timeout with an already-passed
        // deadline trips immediately.
        let budget = Budget { wall_clock: Some(Duration::from_secs(3600)), ..Budget::unlimited() };
        let meter = BudgetMeter::start_with_deadline(&budget, Some(Instant::now()));
        std::thread::sleep(Duration::from_millis(2));
        let ex = meter.check_global().expect("exhausted");
        assert_eq!(ex.dimension, BudgetDim::WallClock);
    }

    #[test]
    fn deadline_never_loosens_wall_clock() {
        // A generous deadline must not extend a zero wall clock.
        let budget = Budget { wall_clock: Some(Duration::ZERO), ..Budget::unlimited() };
        let meter = BudgetMeter::start_with_deadline(
            &budget,
            Some(Instant::now() + Duration::from_secs(3600)),
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(meter.check_global().is_some());
    }

    #[test]
    fn no_deadline_is_plain_start() {
        let meter = BudgetMeter::start_with_deadline(&Budget::unlimited(), None);
        assert_eq!(meter.check_global(), None);
    }

    #[test]
    fn display_forms() {
        let ex = BudgetExhausted { dimension: BudgetDim::Fuel, used: 10, limit: 10 };
        assert_eq!(ex.to_string(), "step fuel budget exhausted (10/10)");
    }
}
