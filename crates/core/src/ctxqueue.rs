//! The **ctxQueue** (paper §5.3, Fig. 8).
//!
//! On the out-of-order core the RTOSUnit's memory requests go through a
//! dedicated queue inside the LSU. Entries are allocated and freed
//! **in order** (which is what makes aliasing impossible below 32
//! entries); each entry completes after its cache latency, and the
//! queue's depth bounds how many unit accesses may be in flight — the
//! paper found **eight** entries Pareto-optimal.

use rvsim_snapshot::{self as snap, Json, SnapError};
use std::collections::VecDeque;

/// Timing model of the ctxQueue. Entries hold only completion times: the
/// simulator keeps data functionally coherent elsewhere.
#[derive(Debug, Clone)]
pub struct CtxQueue {
    capacity: usize,
    /// Completion cycles in allocation order; monotone because freeing is
    /// in-order (a fast hit behind a slow miss frees after it).
    inflight: VecDeque<u64>,
    issued: u64,
    full_stalls: u64,
}

impl CtxQueue {
    /// Creates an empty queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or ≥ 32 (at 32 entries a load and a
    /// store to the same address could coexist, which this model — like
    /// the paper's design — does not handle).
    pub fn new(capacity: usize) -> CtxQueue {
        assert!(
            (1..32).contains(&capacity),
            "ctxQueue depth must be in 1..32"
        );
        CtxQueue {
            capacity,
            inflight: VecDeque::with_capacity(capacity),
            issued: 0,
            full_stalls: 0,
        }
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn drain(&mut self, now: u64) {
        while self.inflight.front().is_some_and(|&r| r <= now) {
            self.inflight.pop_front();
        }
    }

    /// Attempts to allocate an entry completing after `latency` cycles.
    /// Fails (and counts a stall) when the queue is full.
    pub fn try_issue(&mut self, now: u64, latency: u32) -> bool {
        self.drain(now);
        if self.inflight.len() == self.capacity {
            self.full_stalls += 1;
            return false;
        }
        let ready = (now + u64::from(latency)).max(self.inflight.back().copied().unwrap_or(0));
        self.inflight.push_back(ready);
        self.issued += 1;
        true
    }

    /// Entries still in flight at `now`.
    pub fn pending(&mut self, now: u64) -> usize {
        self.drain(now);
        self.inflight.len()
    }

    /// Entries still in flight at `now`, without draining. Completion
    /// times are monotone, so the in-flight entries form the queue's
    /// tail.
    pub fn pending_at(&self, now: u64) -> usize {
        self.inflight.iter().rev().take_while(|&&r| r > now).count()
    }

    /// `(issued, stalled-because-full)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.issued, self.full_stalls)
    }

    /// Serializes the queue (in-flight completion times and counters)
    /// for a machine-state snapshot.
    pub fn to_snap(&self) -> Json {
        let inflight: Vec<u64> = self.inflight.iter().copied().collect();
        Json::object()
            .with("capacity", self.capacity)
            .with("inflight_len", inflight.len())
            .with("inflight", snap::runs_to_json(&inflight))
            .with("issued", self.issued)
            .with("full_stalls", self.full_stalls)
    }

    /// Rebuilds the queue from [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields, an out-of-range capacity, or more
    /// in-flight entries than the capacity allows.
    pub fn from_snap(value: &Json) -> Result<CtxQueue, SnapError> {
        let capacity = snap::get_usize(value, "capacity")?;
        if !(1..32).contains(&capacity) {
            return Err(SnapError::new("ctxqueue: capacity out of 1..32"));
        }
        let len = snap::get_usize(value, "inflight_len")?;
        if len > capacity {
            return Err(SnapError::new(format!(
                "ctxqueue: {len} in flight exceeds capacity {capacity}"
            )));
        }
        let inflight = snap::runs_from_json(snap::field(value, "inflight")?, len)?;
        Ok(CtxQueue {
            capacity,
            inflight: inflight.into_iter().collect(),
            issued: snap::get_u64(value, "issued")?,
            full_stalls: snap::get_u64(value, "full_stalls")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelines_up_to_capacity() {
        let mut q = CtxQueue::new(4);
        for i in 0..4 {
            assert!(q.try_issue(i, 20), "entry {i} must fit");
        }
        assert!(!q.try_issue(4, 20), "fifth entry must stall");
        assert_eq!(q.stats().1, 1);
        // After the first completes, space frees in order.
        assert!(q.try_issue(21, 20));
    }

    #[test]
    fn frees_in_order_even_when_later_entries_finish_first() {
        let mut q = CtxQueue::new(2);
        assert!(q.try_issue(0, 30)); // ready at 30
        assert!(q.try_issue(1, 1)); // would be ready at 2, but frees at 30
        assert_eq!(q.pending(10), 2);
        assert_eq!(q.pending(30), 0);
    }

    #[test]
    fn hits_stream_one_per_cycle() {
        let mut q = CtxQueue::new(8);
        for i in 0..31 {
            assert!(q.try_issue(i, 1), "hit {i} must issue");
        }
        assert!(q.pending(33) == 0);
    }

    #[test]
    #[should_panic(expected = "1..32")]
    fn depth_32_would_allow_aliasing() {
        CtxQueue::new(32);
    }
}
