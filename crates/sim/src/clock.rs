//! The virtual clock every layer reads.

use crate::time::SimTime;

/// A monotonic virtual clock.
///
/// The clock only moves when the owning event loop advances it — there
/// is no wall-clock coupling anywhere, which is what makes whole-stack
/// runs deterministic and replayable. Attempts to move it backwards are
/// ignored rather than panicking: out-of-order advance requests are a
/// scheduling bug upstream, but a frozen clock is easier to debug than
/// a crashed simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at the simulation epoch.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// A clock already advanced to `t` (resuming from a checkpoint).
    pub fn starting_at(t: SimTime) -> SimClock {
        SimClock { now: t }
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance to `t` if it is in the future; returns the (possibly
    /// unchanged) current time.
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        if t > self.now {
            self.now = t;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_secs(10));
        // moving backwards is a no-op
        c.advance_to(SimTime::from_secs(3));
        assert_eq!(c.now(), SimTime::from_secs(10));
    }

    #[test]
    fn resume_from_checkpointed_instant() {
        let c = SimClock::starting_at(SimTime::from_secs(42));
        assert_eq!(c.now(), SimTime::from_secs(42));
    }
}
