//! A hashed timer wheel for connection idle deadlines.
//!
//! The reactor needs thousands of coarse timeouts ("close this
//! connection if nothing arrives for 10s") with O(1) insert and O(1)
//! amortized expiry — a `BinaryHeap` would pay O(log n) per socket
//! touch, and sockets are touched on every request. The wheel hashes
//! each deadline into one of `slots` buckets of `tick` width and scans
//! one bucket per elapsed tick.
//!
//! Cancellation and postponement are **lazy**: the reactor never
//! removes an entry when a connection sees traffic — it just bumps the
//! connection's authoritative deadline. When the wheel hands back an
//! id, the caller re-checks that deadline and re-schedules instead of
//! expiring if it moved. Entries landing past the wheel horizon park in
//! the furthest slot and take another lap (the re-check makes this
//! safe). Ids for dead connections simply fall out: the caller looks
//! them up, finds nothing, and drops them.

use std::time::{Duration, Instant};

/// A coarse-grained timer wheel over opaque `u64` ids.
pub struct TimerWheel {
    slots: Vec<Vec<(u64, Instant)>>,
    tick: Duration,
    /// Slot index whose window starts at `base`.
    cursor: usize,
    /// Start of the cursor slot's time window.
    base: Instant,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, each `tick` wide. The horizon —
    /// the furthest deadline placed without parking — is
    /// `tick * slots`.
    pub fn new(tick: Duration, slots: usize) -> TimerWheel {
        assert!(!tick.is_zero(), "tick must be positive");
        let slots = slots.max(2);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick,
            cursor: 0,
            base: Instant::now(),
        }
    }

    /// Schedule `id` to surface from [`TimerWheel::advance`] once
    /// `deadline` passes. An id may be scheduled while already in the
    /// wheel (after a lazy postponement); the extra entry is
    /// deduplicated by the caller's deadline re-check.
    pub fn schedule(&mut self, id: u64, deadline: Instant) {
        let offset = deadline.saturating_duration_since(self.base);
        // Integer tick distance, clamped to the horizon; entries past
        // the horizon park in the furthest slot and re-loop.
        let ticks = (offset.as_nanos() / self.tick.as_nanos()) as usize;
        let ticks = ticks.min(self.slots.len() - 1);
        let slot = (self.cursor + ticks) % self.slots.len();
        self.slots[slot].push((id, deadline));
    }

    /// Advance the wheel to `now`, collecting every id whose bucket has
    /// come due. Entries whose stored deadline is still in the future
    /// (horizon-parked) are re-scheduled internally, but the caller
    /// must still re-check its own authoritative deadline for the
    /// returned ids — lazily postponed entries surface here too.
    pub fn advance(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        while self.base + self.tick <= now {
            let drained: Vec<(u64, Instant)> = std::mem::take(&mut self.slots[self.cursor]);
            self.base += self.tick;
            self.cursor = (self.cursor + 1) % self.slots.len();
            for (id, deadline) in drained {
                if deadline <= now {
                    due.push(id);
                } else {
                    self.schedule(id, deadline);
                }
            }
        }
        due
    }

    /// How long [`Poller::wait`](polling::Poller::wait) may sleep
    /// before the next non-empty bucket comes due. `None` when the
    /// wheel is empty (sleep until woken).
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let len = self.slots.len();
        (0..len)
            .find(|k| !self.slots[(self.cursor + k) % len].is_empty())
            .map(|k| {
                // The k-th bucket from the cursor drains once `base +
                // (k+1) ticks` has passed.
                let due_at = self.base + self.tick * (k as u32 + 1);
                due_at.saturating_duration_since(now)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(10);

    #[test]
    fn expires_only_after_the_deadline() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(TICK, 8);
        wheel.schedule(1, start + Duration::from_millis(35));
        assert!(wheel.advance(start + Duration::from_millis(30)).is_empty());
        assert_eq!(wheel.advance(start + Duration::from_millis(50)), vec![1]);
        assert_eq!(wheel.next_timeout(start), None, "nothing left scheduled");
    }

    #[test]
    fn horizon_overflow_takes_extra_laps() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(TICK, 4); // horizon = 40ms
        wheel.schedule(7, start + Duration::from_millis(95));
        assert!(wheel.advance(start + Duration::from_millis(40)).is_empty());
        assert!(wheel.advance(start + Duration::from_millis(80)).is_empty());
        assert_eq!(wheel.advance(start + Duration::from_millis(100)), vec![7]);
    }

    #[test]
    fn many_ids_expire_in_deadline_buckets() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(TICK, 16);
        for id in 0..100u64 {
            wheel.schedule(id, start + TICK * (1 + (id % 4) as u32));
        }
        let mut seen = Vec::new();
        for step in 1..=5u32 {
            let mut batch = wheel.advance(start + TICK * step + Duration::from_millis(1));
            // Everything due by this step has surfaced.
            batch.sort_unstable();
            seen.extend(batch);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_timeout_points_at_first_nonempty_bucket() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(TICK, 8);
        assert_eq!(wheel.next_timeout(start), None);
        wheel.schedule(1, start + Duration::from_millis(25));
        let timeout = wheel.next_timeout(start).unwrap();
        assert!(
            timeout >= Duration::from_millis(20) && timeout <= Duration::from_millis(40),
            "{timeout:?} should cover the scheduled bucket"
        );
    }

    #[test]
    fn postponed_entries_can_be_rescheduled_by_the_caller() {
        // Simulates the reactor's lazy postponement: the wheel fires,
        // the caller sees a later authoritative deadline and re-arms.
        // (Wheel first: its internal base must not postdate `start`.)
        let mut wheel = TimerWheel::new(TICK, 8);
        let start = Instant::now();
        wheel.schedule(3, start + Duration::from_millis(15));
        let fired = wheel.advance(start + Duration::from_millis(20));
        assert_eq!(fired, vec![3]);
        let new_deadline = start + Duration::from_millis(60);
        wheel.schedule(3, new_deadline);
        assert!(wheel.advance(start + Duration::from_millis(40)).is_empty());
        assert_eq!(wheel.advance(start + Duration::from_millis(70)), vec![3]);
    }
}
