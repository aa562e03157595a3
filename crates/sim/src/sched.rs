//! Run-loop facade over the [`EventQueue`]: pop counting in one place.
//!
//! Simulators that drive an [`EventQueue`] by hand end up re-implementing
//! the same bookkeeping: a processed-event counter for safety limits and
//! diagnostics. [`Scheduler`] bundles it with the queue. Structured
//! event observability lives elsewhere — engines emit typed spans to a
//! [`crate::trace::TraceSink`] instead of the scheduler printing lines
//! (the old `Tracer` eprintln tracer this facade once carried).
//!
//! # Example
//!
//! ```
//! use asan_sim::sched::Scheduler;
//! use asan_sim::SimTime;
//!
//! struct Tick;
//!
//! let mut s: Scheduler<Tick> = Scheduler::new();
//! s.push(SimTime::from_ns(3), Tick);
//! let (t, _) = s.pop().unwrap();
//! assert_eq!(t, SimTime::from_ns(3));
//! assert_eq!(s.processed(), 1);
//! ```

use crate::queue::EventQueue;
use crate::snap::Snap;
use crate::snap_fields;
use crate::time::SimTime;

/// The pending-event set plus run bookkeeping: a processed-event
/// counter.
///
/// Ordering semantics are exactly those of [`EventQueue`]: events pop
/// in `(time, insertion sequence)` order, so simulations stay
/// reproducible bit for bit.
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    processed: u64,
    peak_len: usize,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            processed: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.queue.push(time, event);
        self.peak_len = self.peak_len.max(self.queue.len());
    }

    /// Removes and returns the earliest event, counting it as
    /// processed.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, ev) = self.queue.pop()?;
        self.processed += 1;
        Some((t, ev))
    }

    /// Events popped so far (across every run driven by this scheduler).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The deepest the pending-event set has ever been.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

// The pending-event set plus the run bookkeeping, so a restored
// scheduler continues both the event stream and the processed/peak
// counters exactly.
snap_fields! { [E: Snap + Default] Scheduler<E> { queue, processed, peak_len } }

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{Snap, SnapReader, SnapWriter};

    #[derive(Debug, Default, PartialEq)]
    struct Ev(u32);
    snap_fields!(Ev(n));

    #[test]
    fn pops_in_order_and_counts() {
        let mut s = Scheduler::new();
        s.push(SimTime::from_ns(5), Ev(2));
        s.push(SimTime::from_ns(1), Ev(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop().unwrap().1, Ev(1));
        assert_eq!(s.pop().unwrap().1, Ev(2));
        assert!(s.pop().is_none());
        assert_eq!(s.processed(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.push(SimTime::from_ns(7), Ev(i));
        }
        for i in 0..10 {
            assert_eq!(s.pop().unwrap().1, Ev(i));
        }
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut s = Scheduler::new();
        assert_eq!(s.peak_len(), 0);
        s.push(SimTime::ZERO, Ev(0));
        s.push(SimTime::ZERO, Ev(1));
        s.pop();
        s.pop();
        s.push(SimTime::ZERO, Ev(2));
        assert_eq!(s.peak_len(), 2);
    }

    #[test]
    fn snapshot_restores_counters_and_events() {
        let mut s = Scheduler::new();
        s.push(SimTime::from_ns(1), Ev(1));
        s.push(SimTime::from_ns(2), Ev(2));
        s.push(SimTime::from_ns(3), Ev(3));
        s.pop();
        let mut w = SnapWriter::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut s2: Scheduler<Ev> = Scheduler::new();
        s2.load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(s2.processed(), 1);
        assert_eq!(s2.peak_len(), 3);
        assert_eq!(s2.len(), 2);
        assert_eq!(s2.pop().unwrap().1, Ev(2));
        assert_eq!(s2.pop().unwrap().1, Ev(3));
        assert_eq!(s2.processed(), 3);
    }

    #[test]
    fn processed_persists_across_drains() {
        let mut s = Scheduler::default();
        s.push(SimTime::ZERO, Ev(0));
        s.pop();
        s.push(SimTime::ZERO, Ev(1));
        s.pop();
        assert_eq!(s.processed(), 2);
    }
}
