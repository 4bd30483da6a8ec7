//! The hardware scheduler: ready and delay lists (paper §4.4, Fig. 5).
//!
//! Both lists are fixed-capacity arrays kept sorted by an iterative
//! (bubble) sorting network — one compare-swap wave per cycle. The model
//! keeps the arrays *functionally* sorted at all times and tracks a
//! `sort_busy` cycle counter for the time hardware would still be sorting;
//! `GET_HW_SCHED` stalls while that counter is non-zero.

use rvsim_snapshot::{self as snap, Json, SnapError};

/// One slot of a hardware list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedEntry {
    /// Task id (index into the context region and the software lookup
    /// table).
    pub task_id: u8,
    /// Task priority; higher runs first.
    pub prio: u8,
    /// Remaining delay in ticks (delay list only).
    pub delay: u32,
    /// Insertion sequence, used to keep sorting stable (FIFO within a
    /// priority).
    pub seq: u64,
}

/// Hardware ready + delay lists.
///
/// ```
/// use rtosunit::HwScheduler;
/// let mut s = HwScheduler::new(8);
/// s.add_ready(1, 5);
/// s.add_ready(2, 7);
/// s.add_ready(3, 5);
/// assert_eq!(s.pop_rotate(), Some(2)); // highest priority wins
/// assert_eq!(s.pop_rotate(), Some(2)); // and keeps winning after rotation
/// s.rm_task(2);
/// assert_eq!(s.pop_rotate(), Some(1)); // round-robin within priority 5
/// assert_eq!(s.pop_rotate(), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct HwScheduler {
    ready: Vec<SchedEntry>,
    delay: Vec<SchedEntry>,
    capacity: usize,
    seq: u64,
    sort_busy: u32,
    /// Set once an insertion was attempted beyond capacity; the system
    /// must fall back to software scheduling (paper §4.4).
    overflowed: bool,
}

impl HwScheduler {
    /// Creates empty lists with `capacity` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> HwScheduler {
        assert!(capacity > 0, "list capacity must be at least 1");
        HwScheduler {
            ready: Vec::with_capacity(capacity),
            delay: Vec::with_capacity(capacity),
            capacity,
            seq: 0,
            sort_busy: 0,
            overflowed: false,
        }
    }

    /// Capacity of each list.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of valid ready entries.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Number of valid delay entries.
    pub fn delay_len(&self) -> usize {
        self.delay.len()
    }

    /// Whether an insertion ever exceeded the capacity.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Cycles of iterative sorting still outstanding.
    pub fn sort_busy(&self) -> u32 {
        self.sort_busy
    }

    /// Advances the sorting network by one cycle.
    pub fn step(&mut self) {
        self.advance(1);
    }

    /// Advances the sorting network by `cycles` cycles.
    pub fn advance(&mut self, cycles: u64) {
        self.sort_busy = self
            .sort_busy
            .saturating_sub(cycles.min(u64::from(u32::MAX)) as u32);
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn charge_sort(&mut self) {
        // One bubble pass moves an entry at most `len` positions; the
        // hardware performs one compare-swap wave per cycle.
        let len = self.ready.len().max(self.delay.len()) as u32;
        self.sort_busy = self.sort_busy.max(len);
    }

    fn sort_ready(&mut self) {
        // Priority descending, then insertion order (stable round-robin).
        self.ready
            .sort_by(|a, b| b.prio.cmp(&a.prio).then(a.seq.cmp(&b.seq)));
    }

    fn sort_delay(&mut self) {
        // Remaining delay ascending, ties broken by priority (Fig. 5 (f)).
        self.delay.sort_by(|a, b| {
            a.delay
                .cmp(&b.delay)
                .then(b.prio.cmp(&a.prio))
                .then(a.seq.cmp(&b.seq))
        });
    }

    /// `ADD_READY`: inserts a task into the ready list (Fig. 5 (a)).
    ///
    /// Returns `false` (and latches the overflow flag) when the list is
    /// full.
    pub fn add_ready(&mut self, task_id: u8, prio: u8) -> bool {
        if self.ready.len() == self.capacity {
            self.overflowed = true;
            return false;
        }
        let seq = self.next_seq();
        self.ready.push(SchedEntry {
            task_id,
            prio,
            delay: 0,
            seq,
        });
        self.sort_ready();
        self.charge_sort();
        true
    }

    /// `ADD_DELAY`: inserts the *running* task into the delay list
    /// (Fig. 5 (d)).
    pub fn add_delay(&mut self, task_id: u8, prio: u8, ticks: u32) -> bool {
        if self.delay.len() == self.capacity {
            self.overflowed = true;
            return false;
        }
        let seq = self.next_seq();
        self.delay.push(SchedEntry {
            task_id,
            prio,
            delay: ticks,
            seq,
        });
        self.sort_delay();
        self.charge_sort();
        true
    }

    /// `RM_TASK`: removes every entry with `task_id` from both lists
    /// (Fig. 5 (c)).
    ///
    /// Returns the number of entries removed.
    pub fn rm_task(&mut self, task_id: u8) -> usize {
        let before = self.ready.len() + self.delay.len();
        self.ready.retain(|e| e.task_id != task_id);
        self.delay.retain(|e| e.task_id != task_id);
        let removed = before - (self.ready.len() + self.delay.len());
        if removed > 0 {
            self.charge_sort();
        }
        removed
    }

    /// `GET_HW_SCHED`: returns the head of the ready list and rotates it
    /// to the tail of its priority class (Fig. 5 (h)).
    pub fn pop_rotate(&mut self) -> Option<u8> {
        if self.ready.is_empty() {
            return None;
        }
        let head = self.ready[0];
        let seq = self.next_seq();
        self.ready[0].seq = seq;
        self.sort_ready();
        self.charge_sort();
        Some(head.task_id)
    }

    /// The current head of the ready list without rotating (used by the
    /// preloader, §4.7).
    pub fn head(&self) -> Option<(u8, u8)> {
        self.ready.first().map(|e| (e.task_id, e.prio))
    }

    /// Timer tick (Fig. 5 (e)/(g)): decrements delay counters and moves
    /// expired tasks to the ready list. Returns the ids woken.
    pub fn tick(&mut self) -> Vec<u8> {
        for e in &mut self.delay {
            e.delay = e.delay.saturating_sub(1);
        }
        let mut woken = Vec::new();
        let mut i = 0;
        while i < self.delay.len() {
            if self.delay[i].delay == 0 {
                let e = self.delay.remove(i);
                woken.push(e.task_id);
                if self.ready.len() == self.capacity {
                    self.overflowed = true;
                } else {
                    let seq = self.next_seq();
                    self.ready.push(SchedEntry { seq, ..e });
                }
            } else {
                i += 1;
            }
        }
        if !woken.is_empty() {
            self.sort_ready();
        }
        self.sort_delay();
        self.charge_sort();
        woken
    }

    /// Snapshot of the ready list, highest priority first (test support).
    pub fn ready_snapshot(&self) -> Vec<SchedEntry> {
        self.ready.clone()
    }

    /// Snapshot of the delay list, soonest first (test support).
    pub fn delay_snapshot(&self) -> Vec<SchedEntry> {
        self.delay.clone()
    }

    /// Serializes both lists and the sorting-network state for a
    /// machine-state snapshot. The capacity is the unit's list length.
    pub fn to_snap(&self) -> Json {
        let list = |entries: &[SchedEntry]| -> Json {
            entries
                .iter()
                .map(|e| {
                    Json::object()
                        .with("task", u32::from(e.task_id))
                        .with("prio", u32::from(e.prio))
                        .with("delay", e.delay)
                        .with("seq", e.seq)
                })
                .collect::<Vec<Json>>()
                .into()
        };
        Json::object()
            .with("seq", self.seq)
            .with("sort_busy", self.sort_busy)
            .with("overflowed", self.overflowed)
            .with("ready", list(&self.ready))
            .with("delay", list(&self.delay))
    }

    /// Rebuilds lists of `capacity` slots — the caller's validated list
    /// length — from [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields or a list longer than the capacity.
    pub fn from_snap(value: &Json, capacity: usize) -> Result<HwScheduler, SnapError> {
        let list = |key: &str| -> Result<Vec<SchedEntry>, SnapError> {
            let entries = snap::get_array(value, key)?;
            if entries.len() > capacity {
                return Err(SnapError::new(format!(
                    "scheduler: {key} list of {} exceeds capacity {capacity}",
                    entries.len()
                )));
            }
            entries
                .iter()
                .map(|e| {
                    Ok(SchedEntry {
                        task_id: snap::get_u8(e, "task")?,
                        prio: snap::get_u8(e, "prio")?,
                        delay: snap::get_u32(e, "delay")?,
                        seq: snap::get_u64(e, "seq")?,
                    })
                })
                .collect()
        };
        Ok(HwScheduler {
            ready: list("ready")?,
            delay: list("delay")?,
            capacity,
            seq: snap::get_u64(value, "seq")?,
            sort_busy: snap::get_u32(value, "sort_busy")?,
            overflowed: snap::get_bool(value, "overflowed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_is_priority_ordered_and_stable() {
        let mut s = HwScheduler::new(8);
        s.add_ready(1, 3);
        s.add_ready(2, 5);
        s.add_ready(3, 3);
        s.add_ready(4, 5);
        let order: Vec<u8> = s.ready_snapshot().iter().map(|e| e.task_id).collect();
        assert_eq!(order, [2, 4, 1, 3]);
    }

    #[test]
    fn rotation_is_round_robin_within_priority() {
        let mut s = HwScheduler::new(8);
        s.add_ready(1, 5);
        s.add_ready(2, 5);
        s.add_ready(3, 5);
        assert_eq!(s.pop_rotate(), Some(1));
        assert_eq!(s.pop_rotate(), Some(2));
        assert_eq!(s.pop_rotate(), Some(3));
        assert_eq!(s.pop_rotate(), Some(1));
    }

    #[test]
    fn higher_priority_preempts_rotation() {
        let mut s = HwScheduler::new(8);
        s.add_ready(1, 5);
        s.add_ready(2, 5);
        s.add_ready(9, 7);
        assert_eq!(s.pop_rotate(), Some(9));
        assert_eq!(s.pop_rotate(), Some(9), "priority 7 stays ahead of 5");
    }

    #[test]
    fn tick_moves_expired_tasks_to_ready() {
        let mut s = HwScheduler::new(8);
        s.add_delay(1, 5, 2);
        s.add_delay(2, 6, 1);
        assert_eq!(s.tick(), vec![2]);
        assert_eq!(s.head(), Some((2, 6)));
        assert_eq!(s.tick(), vec![1]);
        assert_eq!(s.delay_len(), 0);
        assert_eq!(s.ready_len(), 2);
    }

    #[test]
    fn delay_list_sorted_by_remaining_then_priority() {
        let mut s = HwScheduler::new(8);
        s.add_delay(1, 2, 5);
        s.add_delay(2, 9, 5);
        s.add_delay(3, 4, 1);
        let order: Vec<u8> = s.delay_snapshot().iter().map(|e| e.task_id).collect();
        assert_eq!(order, [3, 2, 1]);
    }

    #[test]
    fn rm_task_clears_both_lists() {
        let mut s = HwScheduler::new(8);
        s.add_ready(1, 5);
        s.add_delay(1, 5, 10);
        s.add_ready(2, 5);
        assert_eq!(s.rm_task(1), 2);
        assert_eq!(s.ready_len(), 1);
        assert_eq!(s.delay_len(), 0);
        assert_eq!(s.rm_task(42), 0);
    }

    #[test]
    fn overflow_is_latched() {
        let mut s = HwScheduler::new(2);
        assert!(s.add_ready(1, 1));
        assert!(s.add_ready(2, 1));
        assert!(!s.add_ready(3, 1));
        assert!(s.overflowed());
    }

    #[test]
    fn sorting_takes_cycles() {
        let mut s = HwScheduler::new(8);
        for i in 0..6 {
            s.add_ready(i, i);
        }
        assert!(s.sort_busy() > 0);
        while s.sort_busy() > 0 {
            s.step();
        }
        assert_eq!(s.sort_busy(), 0);
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut s = HwScheduler::new(4);
        assert_eq!(s.pop_rotate(), None);
        assert_eq!(s.head(), None);
    }
}
