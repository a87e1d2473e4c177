//! Session deadlines as one ordered map.
//!
//! Hold timers, keepalive generation and BMP idle timeouts are "fire
//! once at instant T" deadlines, usually re-armed long before they
//! fire. [`Timers`] keeps them in a `BTreeMap` keyed by `(deadline, arm
//! sequence)`: arming inserts, cancelling removes, firing pops the due
//! prefix, and the earliest deadline is the first key, each O(log n).
//! The map holds exactly the armed timers: a re-arm leaves nothing.
//!
//! Determinism contract (relied on by the evented-vs-harness transcript
//! tests): timers never fire early, and [`Timers::advance`] delivers
//! expired timers sorted by `(deadline, arm sequence)` — wall-clock
//! jitter in *when* the loop polls cannot reorder *what* it observes.

use std::collections::BTreeMap;

/// Handle for cancellation: the timer's key in the map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId {
    /// The instant the timer is armed for.
    pub deadline: u64,
    /// Arm sequence: unique, and the tie-break among equal deadlines.
    seq: u64,
}

/// A timer that fired: when it was due and the token it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expired {
    /// The instant the timer was armed for (≤ the advance instant).
    pub deadline: u64,
    /// Caller token (e.g. session slot).
    pub token: u64,
}

/// The armed timers. All instants are milliseconds on the caller's
/// clock (virtual in tests, monotonic-elapsed in the live loop).
pub struct Timers {
    armed: BTreeMap<TimerId, u64>,
    /// The latest instant advanced to; earlier deadlines clamp to it.
    now: u64,
    next_seq: u64,
}

impl Timers {
    /// No timers, starting at instant `now_ms`.
    pub fn new(now_ms: u64) -> Timers {
        Timers {
            armed: BTreeMap::new(),
            now: now_ms,
            next_seq: 0,
        }
    }

    /// Arms a timer for `deadline_ms` carrying `token`. A deadline at or
    /// before the current instant fires on the next [`Timers::advance`].
    pub fn schedule(&mut self, deadline_ms: u64, token: u64) -> TimerId {
        let id = TimerId {
            deadline: deadline_ms.max(self.now),
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.armed.insert(id, token);
        id
    }

    /// Cancels an armed timer. Cancelling an already-fired or
    /// already-cancelled id is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        self.armed.remove(&id);
    }

    /// Number of armed timers.
    pub fn live(&self) -> usize {
        self.armed.len()
    }

    /// Advances to `now_ms`, appending every expired timer to `out`
    /// sorted by `(deadline, arm sequence)`. Never fires early; an
    /// instant before the current one fires nothing.
    pub fn advance(&mut self, now_ms: u64, out: &mut Vec<Expired>) {
        self.now = self.now.max(now_ms);
        while let Some(entry) = self.armed.first_entry() {
            if entry.key().deadline > now_ms {
                break;
            }
            let (id, token) = entry.remove_entry();
            out.push(Expired {
                deadline: id.deadline,
                token,
            });
        }
    }

    /// Earliest armed deadline, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.armed.first_key_value().map(|(id, _)| id.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut Timers, to: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        w.advance(to, &mut out);
        out.into_iter().map(|e| (e.deadline, e.token)).collect()
    }

    #[test]
    fn fires_in_deadline_order_never_early() {
        let mut w = Timers::new(0);
        w.schedule(50, 1);
        w.schedule(10, 2);
        w.schedule(30, 3);
        assert_eq!(drain(&mut w, 9), vec![]);
        assert_eq!(drain(&mut w, 10), vec![(10, 2)]);
        assert_eq!(drain(&mut w, 100), vec![(30, 3), (50, 1)]);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn same_deadline_fires_in_arm_order() {
        let mut w = Timers::new(0);
        for t in 0..10 {
            w.schedule(77, t);
        }
        let fired = drain(&mut w, 77);
        assert_eq!(
            fired.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn due_now_fires_on_next_advance_even_without_tick_change() {
        let mut w = Timers::new(500);
        w.schedule(500, 9); // clamped to now
        assert_eq!(drain(&mut w, 500), vec![(500, 9)]);
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut w = Timers::new(0);
        let a = w.schedule(20, 1);
        w.schedule(20, 2);
        w.cancel(a);
        assert_eq!(w.live(), 1);
        assert_eq!(drain(&mut w, 25), vec![(20, 2)]);
    }

    #[test]
    fn cascades_across_levels() {
        let mut w = Timers::new(0);
        // one deadline per level span, plus overflow territory
        let deadlines = [5u64, 100, 5_000, 300_000, 20_000_000, 18_000_000_000];
        for (i, &d) in deadlines.iter().enumerate() {
            w.schedule(d, i as u64);
        }
        // advance in coarse, deliberately unaligned jumps; every timer
        // must fire exactly once, never early, in deadline order
        let mut fired = Vec::new();
        let mut t: u64 = 0;
        while t < 18_000_000_100 {
            t = (t + 777_773).min(18_000_000_100);
            let before = fired.len();
            w.advance(t, &mut fired);
            for e in &fired[before..] {
                assert!(e.deadline <= t, "fired early");
            }
        }
        let got: Vec<(u64, u64)> = fired.iter().map(|e| (e.deadline, e.token)).collect();
        assert_eq!(
            got,
            deadlines
                .iter()
                .enumerate()
                .map(|(i, &d)| (d, i as u64))
                .collect::<Vec<_>>()
        );
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn fine_grained_advance_hits_every_deadline() {
        let mut w = Timers::new(0);
        for d in 0..2000u64 {
            w.schedule(d * 7 + 3, d);
        }
        let mut fired = Vec::new();
        for t in 0..=14_010u64 {
            w.advance(t, &mut fired);
        }
        assert_eq!(fired.len(), 2000);
        for (i, e) in fired.iter().enumerate() {
            assert_eq!(e.token, i as u64);
            assert_eq!(e.deadline, i as u64 * 7 + 3);
        }
    }

    #[test]
    fn rearm_pattern_like_hold_timer() {
        let mut w = Timers::new(0);
        let mut id = w.schedule(90, 1);
        let mut out = Vec::new();
        // every 30ms a "message arrives": cancel + re-arm 90ms out
        for step in 1..=20u64 {
            w.advance(step * 30, &mut out);
            assert!(out.is_empty(), "hold fired despite re-arms");
            w.cancel(id);
            id = w.schedule(step * 30 + 90, 1);
        }
        // silence: the final deadline fires
        w.advance(20 * 30 + 90, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].deadline, 20 * 30 + 90);
        let _ = id;
    }

    #[test]
    fn next_deadline_is_exact() {
        let mut w = Timers::new(0);
        assert_eq!(w.next_deadline(), None);
        w.schedule(500, 1);
        let id = w.schedule(100, 2);
        assert_eq!(w.next_deadline(), Some(100));
        w.cancel(id);
        assert_eq!(w.next_deadline(), Some(500));
        let mut out = Vec::new();
        w.advance(200, &mut out);
        assert!(out.is_empty());
        assert_eq!(w.next_deadline(), Some(500));
    }

    #[test]
    fn cancel_after_fire_is_a_no_op() {
        let mut w = Timers::new(0);
        let early = w.schedule(10, 1);
        w.schedule(1000, 2);
        assert_eq!(drain(&mut w, 20), vec![(10, 1)]);
        w.cancel(early);
        assert_eq!(w.live(), 1);
        assert_eq!(w.next_deadline(), Some(1000));
        assert_eq!(drain(&mut w, 1000), vec![(1000, 2)]);
    }

    #[test]
    fn rearm_churn_keeps_only_live_timers() {
        // two sessions re-arming an idle timeout on every millisecond's
        // read, as a busy BMP listener with `idle_timeout_ms` does
        let mut w = Timers::new(0);
        let mut ids = [w.schedule(60_000, 0), w.schedule(60_000, 1)];
        let mut out = Vec::new();
        for now in 1..=100_000u64 {
            w.advance(now, &mut out);
            let slot = (now % 2) as usize;
            w.cancel(ids[slot]);
            ids[slot] = w.schedule(now + 60_000, slot as u64);
            assert_eq!(w.live(), 2);
            assert_eq!(w.armed.len(), w.live());
            assert_eq!(
                w.next_deadline(),
                Some(ids[0].deadline.min(ids[1].deadline))
            );
        }
        assert!(out.is_empty(), "re-armed timers fired: {out:?}");
    }
}
