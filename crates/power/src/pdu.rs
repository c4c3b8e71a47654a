//! The grid bus's circuit breaker.
//!
//! Paper §II connects the renewable supply at the **PDU level** (not the
//! utility substation), giving each PDU a dual feed: a grid bus behind a
//! circuit breaker, and a separate green bus. Sprinting servers move onto
//! the green bus so the breaker and the upstream infrastructure are not
//! stressed. Overloading the breaker remains a bounded last resort.

use gs_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A thermal-accumulation circuit breaker.
///
/// Real molded-case breakers trip on an inverse-time curve: the further the
/// load exceeds the rating, the faster the trip. We model the standard
/// `I²t`-style thermal budget: overload "heat" accumulates proportionally
/// to `(P/rating − 1)` per second and dissipates at a fixed cooling rate
/// when below rating; the breaker trips when the accumulated heat exceeds
/// a tolerance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CircuitBreaker {
    rating_w: f64,
    /// Accumulated overload heat (overload-fraction-seconds).
    heat: f64,
    /// Heat level that trips the breaker.
    trip_threshold: f64,
    /// Heat dissipated per second when under rating.
    cooling_per_sec: f64,
    tripped: bool,
}

impl CircuitBreaker {
    /// A breaker with the given continuous rating. The default tolerance
    /// sustains a 25 % overload for ~60 s before tripping.
    pub fn new(rating_w: f64) -> Self {
        assert!(rating_w > 0.0);
        CircuitBreaker {
            rating_w,
            heat: 0.0,
            trip_threshold: 15.0,
            cooling_per_sec: 0.05,
            tripped: false,
        }
    }

    /// Continuous rating (W).
    pub fn rating_w(&self) -> f64 {
        self.rating_w
    }

    /// True once the breaker has tripped (manual reset required).
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// Current thermal accumulation (diagnostics).
    pub fn heat(&self) -> f64 {
        self.heat
    }

    /// Advance the breaker by `dt` while carrying `load_w`. Returns `true`
    /// if the breaker tripped during this interval.
    pub fn advance(&mut self, load_w: f64, dt: SimDuration) -> bool {
        if self.tripped {
            return false;
        }
        let secs = dt.as_secs_f64();
        let over = load_w / self.rating_w - 1.0;
        if over > 0.0 {
            self.heat += over * secs;
        } else {
            self.heat = (self.heat - self.cooling_per_sec * secs).max(0.0);
        }
        if self.heat >= self.trip_threshold {
            self.tripped = true;
        }
        self.tripped
    }

    /// Manually reset a tripped breaker (maintenance action).
    pub fn reset(&mut self) {
        self.tripped = false;
        self.heat = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_holds_at_rating() {
        let mut cb = CircuitBreaker::new(1000.0);
        for _ in 0..3600 {
            assert!(!cb.advance(1000.0, SimDuration::from_secs(1)));
        }
        assert!(!cb.is_tripped());
        assert_eq!(cb.heat(), 0.0);
    }

    #[test]
    fn sustained_overload_trips() {
        let mut cb = CircuitBreaker::new(1000.0);
        // 25 % overload: heat rises 0.25/s, trips at 15 → ~60 s.
        let mut secs = 0;
        while !cb.advance(1250.0, SimDuration::from_secs(1)) {
            secs += 1;
            assert!(secs < 600, "breaker never tripped");
        }
        assert!(cb.is_tripped());
        assert!((50..=70).contains(&secs), "tripped after {secs}s");
    }

    #[test]
    fn larger_overload_trips_faster() {
        let trip_time = |load: f64| {
            let mut cb = CircuitBreaker::new(1000.0);
            let mut secs = 0;
            while !cb.advance(load, SimDuration::from_secs(1)) {
                secs += 1;
                if secs > 10_000 {
                    break;
                }
            }
            secs
        };
        assert!(trip_time(2000.0) < trip_time(1200.0));
    }

    #[test]
    fn brief_overload_recovers() {
        let mut cb = CircuitBreaker::new(1000.0);
        cb.advance(1500.0, SimDuration::from_secs(10)); // heat = 5
        assert!(!cb.is_tripped());
        // Cool down fully, then the same overload is tolerated again.
        cb.advance(500.0, SimDuration::from_secs(200));
        assert_eq!(cb.heat(), 0.0);
    }

    #[test]
    fn reset_clears_trip() {
        let mut cb = CircuitBreaker::new(100.0);
        cb.advance(1_000.0, SimDuration::from_secs(10));
        assert!(cb.is_tripped());
        cb.reset();
        assert!(!cb.is_tripped());
        assert!(!cb.advance(90.0, SimDuration::from_secs(1)));
    }
}
