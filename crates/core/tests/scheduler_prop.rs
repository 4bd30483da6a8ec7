//! Property tests: the hardware scheduler against an executable
//! reference model of FreeRTOS's scheduling rules (Fig. 2 / Fig. 5).
//! Each property runs over fixed `Rng64` seeds; a failure names the seed
//! that reproduces it.

use rtosunit::HwScheduler;
use rvsim_isa::Rng64;
use std::collections::HashSet;

const CASES: u64 = 2048;

/// Straightforward reference model: explicit priority buckets.
#[derive(Debug, Default, Clone)]
struct RefSched {
    /// FIFO per priority; index 0 popped first.
    ready: Vec<Vec<u8>>, // indexed by priority 0..=255 (sparse via sort)
    delay: Vec<(u8, u8, u32)>, // (id, prio, remaining)
}

impl RefSched {
    fn new() -> RefSched {
        RefSched {
            ready: vec![Vec::new(); 256],
            delay: Vec::new(),
        }
    }

    fn add_ready(&mut self, id: u8, prio: u8) {
        self.ready[prio as usize].push(id);
    }

    fn add_delay(&mut self, id: u8, prio: u8, ticks: u32) {
        self.delay.push((id, prio, ticks.max(1)));
    }

    fn rm_task(&mut self, id: u8) {
        for q in &mut self.ready {
            q.retain(|&t| t != id);
        }
        self.delay.retain(|&(t, _, _)| t != id);
    }

    fn pop_rotate(&mut self) -> Option<u8> {
        let q = self.ready.iter_mut().rev().find(|q| !q.is_empty())?;
        let head = q.remove(0);
        q.push(head);
        Some(head)
    }

    fn tick(&mut self) -> Vec<u8> {
        let mut woken = Vec::new();
        let mut i = 0;
        while i < self.delay.len() {
            self.delay[i].2 -= 1;
            if self.delay[i].2 == 0 {
                let (id, prio, _) = self.delay.remove(i);
                self.ready[prio as usize].push(id);
                woken.push(id);
            } else {
                i += 1;
            }
        }
        woken
    }

    fn counts(&self) -> (usize, usize) {
        (self.ready.iter().map(Vec::len).sum(), self.delay.len())
    }
}

#[derive(Debug, Clone)]
enum SchedOp {
    AddReady(u8, u8),
    AddDelay(u8, u8, u32),
    RmTask(u8),
    PopRotate,
    Tick,
}

/// One operation, each kind equally likely: ids 0..32, priorities 0..8,
/// delays 1..6 ticks.
fn random_op(rng: &mut Rng64) -> SchedOp {
    let id = rng.below(32) as u8;
    let prio = rng.below(8) as u8;
    match rng.below(5) {
        0 => SchedOp::AddReady(id, prio),
        1 => SchedOp::AddDelay(id, prio, 1 + rng.below(5) as u32),
        2 => SchedOp::RmTask(id),
        3 => SchedOp::PopRotate,
        _ => SchedOp::Tick,
    }
}

/// Between 1 and 30 `(id, priority)` ready insertions with ids 0..31.
fn random_adds(rng: &mut Rng64) -> Vec<(u8, u8)> {
    (0..1 + rng.below(30))
        .map(|_| (rng.below(31) as u8, rng.below(8) as u8))
        .collect()
}

#[test]
fn hw_scheduler_matches_reference() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let mut hw = HwScheduler::new(31);
        let mut reference = RefSched::new();
        // Unique-id discipline as in the kernel: a task id is in at most
        // one list at a time. Track membership to skip invalid inserts.
        let mut present = [false; 32];
        for step in 0..1 + rng.below(59) {
            let op = random_op(&mut rng);
            let at = format!("seed {seed} step {step} ({op:?})");
            match op {
                SchedOp::AddReady(id, prio) => {
                    if !present[id as usize] {
                        assert!(hw.add_ready(id, prio), "{at}: ready list full");
                        reference.add_ready(id, prio);
                        present[id as usize] = true;
                    }
                }
                SchedOp::AddDelay(id, prio, t) => {
                    if !present[id as usize] {
                        assert!(hw.add_delay(id, prio, t), "{at}: delay list full");
                        reference.add_delay(id, prio, t);
                        present[id as usize] = true;
                    }
                }
                SchedOp::RmTask(id) => {
                    hw.rm_task(id);
                    reference.rm_task(id);
                    present[id as usize] = false;
                }
                SchedOp::PopRotate => {
                    assert_eq!(hw.pop_rotate(), reference.pop_rotate(), "{at}");
                }
                SchedOp::Tick => {
                    let mut got = hw.tick();
                    let mut want = reference.tick();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "{at}: tick woke different tasks");
                }
            }
            let (r, d) = reference.counts();
            assert_eq!(hw.ready_len(), r, "{at}: ready length");
            assert_eq!(hw.delay_len(), d, "{at}: delay length");
            // Head must always agree after every operation.
            let hw_head = hw.head().map(|(id, _)| id);
            let ref_head = reference.clone().pop_rotate();
            assert_eq!(hw_head, ref_head, "{at}: heads diverged");
        }
    }
}

#[test]
fn ready_snapshot_is_always_sorted_and_stable() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let mut hw = HwScheduler::new(31);
        let mut inserted = HashSet::new();
        for (id, prio) in random_adds(&mut rng) {
            if inserted.insert(id) {
                hw.add_ready(id, prio);
            }
        }
        let snap = hw.ready_snapshot();
        for w in snap.windows(2) {
            assert!(
                w[0].prio > w[1].prio || (w[0].prio == w[1].prio && w[0].seq < w[1].seq),
                "seed {seed}: order violated: {snap:?}"
            );
        }
    }
}

#[test]
fn sort_busy_is_bounded_by_list_length() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let mut hw = HwScheduler::new(31);
        let mut seen = HashSet::new();
        for (id, prio) in random_adds(&mut rng) {
            if seen.insert(id) {
                hw.add_ready(id, prio);
                assert!(
                    hw.sort_busy() as usize <= hw.ready_len().max(hw.delay_len()),
                    "seed {seed}: sort_busy {} after {} insertions",
                    hw.sort_busy(),
                    hw.ready_len()
                );
            }
        }
    }
}
