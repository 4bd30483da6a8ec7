//! Differential tests for the kernel's inline list operations: random
//! operation sequences are emitted as real RV32 code, executed on the
//! CV32E40P engine, and the resulting in-memory lists are compared
//! against a host-side reference model. Sequences come from fixed
//! `Rng64` seeds; a failure names the seed that reproduces it.

use freertos_lite::emit::{self, LabelGen};
use freertos_lite::klayout::{sem, tcb, KernelLayout, NUM_PRIOS};
use rvsim_cores::{make_engine, CoreKind, NullCoprocessor, SramBus};
use rvsim_isa::{Asm, Reg, Rng64};

const N_TASKS: usize = 8;
const CASES: u64 = 1024;

/// Host-side reference of the kernel's list state.
#[derive(Debug, Clone, Default)]
struct RefState {
    /// Ready queue (task indices) per priority.
    ready: Vec<Vec<usize>>,
    /// Delay list: (task, wake_tick), sorted by wake then FIFO.
    delay: Vec<(usize, u32)>,
    /// Event wait list of the single semaphore: priority-desc, FIFO ties.
    waiters: Vec<usize>,
    tick: u32,
    prio: [u8; N_TASKS],
}

impl RefState {
    fn sched_select(&mut self) -> usize {
        for p in (0..NUM_PRIOS).rev() {
            if let Some(&head) = self.ready[p].first() {
                if self.ready[p].len() > 1 {
                    self.ready[p].remove(0);
                    self.ready[p].push(head);
                }
                return head;
            }
        }
        panic!("reference: all queues empty");
    }

    fn delay_tick(&mut self) {
        self.tick += 1;
        let tick = self.tick;
        let mut i = 0;
        while i < self.delay.len() {
            if self.delay[i].1 <= tick {
                let (t, _) = self.delay.remove(i);
                self.ready[self.prio[t] as usize].push(t);
            } else {
                i += 1;
            }
        }
    }

    fn delay_insert(&mut self, t: usize, wake: u32) {
        let pos = self
            .delay
            .iter()
            .position(|&(_, w)| wake < w)
            .unwrap_or(self.delay.len());
        self.delay.insert(pos, (t, wake));
    }

    fn event_insert(&mut self, t: usize) {
        let pos = self
            .waiters
            .iter()
            .position(|&o| self.prio[o] < self.prio[t])
            .unwrap_or(self.waiters.len());
        self.waiters.insert(pos, t);
    }

    fn event_pop(&mut self) -> Option<usize> {
        if self.waiters.is_empty() {
            None
        } else {
            Some(self.waiters.remove(0))
        }
    }
}

#[derive(Debug, Clone)]
enum ListOp {
    PushBack(usize),
    Remove(usize),
    SchedSelect,
    DelayInsert(usize, u32),
    DelayTick,
    EventInsert(usize),
    EventPop,
}

/// One operation, each kind equally likely: tasks 0..N_TASKS, delays
/// 1..6 ticks.
fn random_op(rng: &mut Rng64) -> ListOp {
    let t = rng.index(N_TASKS);
    match rng.below(7) {
        0 => ListOp::PushBack(t),
        1 => ListOp::Remove(t),
        2 => ListOp::SchedSelect,
        3 => ListOp::DelayInsert(t, 1 + rng.below(5) as u32),
        4 => ListOp::DelayTick,
        5 => ListOp::EventInsert(t),
        _ => ListOp::EventPop,
    }
}

/// Where is task `t` right now? (At most one list at a time.)
#[derive(Debug, Clone, Copy, PartialEq)]
enum Where {
    Free,
    Ready,
    Delayed,
    Waiting,
}

/// Emits the valid subset of `ops` as guest code, runs it, and compares
/// the guest's lists with the reference model's.
#[allow(clippy::needless_range_loop)]
fn run_sequence(seed: u64, prios: &[u8; N_TASKS], ops: &[ListOp]) {
    let layout = KernelLayout::new(N_TASKS, 1);
    let mut reference = RefState {
        ready: vec![Vec::new(); NUM_PRIOS],
        prio: *prios,
        ..Default::default()
    };
    let mut place = [Where::Free; N_TASKS];

    // Emit the valid subset of the sequence, mirroring it on the
    // reference model.
    let mut a = Asm::new(0);
    let mut lg = LabelGen::new();
    let tcb_addr = |t: usize| layout.tcb_addr(t) as i32;
    let sem_addr = layout.sem_addr(0) as i32;
    let mut emitted = 0;
    for op in ops {
        match *op {
            ListOp::PushBack(t) if place[t] == Where::Free => {
                a.li(Reg::A0, tcb_addr(t));
                emit::ready_push_back(&mut a, &mut lg, Reg::A0);
                reference.ready[prios[t] as usize].push(t);
                place[t] = Where::Ready;
            }
            ListOp::Remove(t) if place[t] == Where::Ready => {
                a.li(Reg::A0, tcb_addr(t));
                emit::ready_remove(&mut a, &mut lg, Reg::A0);
                reference.ready[prios[t] as usize].retain(|&x| x != t);
                place[t] = Where::Free;
            }
            ListOp::SchedSelect if place.contains(&Where::Ready) => {
                a.li(Reg::A0, 0);
                emit::sched_select(&mut a, &mut lg);
                // Record which TCB the guest selected for later checking.
                a.li(Reg::T6, (layout.sem_addr(0) + 64) as i32);
                a.sw(Reg::A0, 0, Reg::T6);
                let _ = reference.sched_select();
            }
            ListOp::DelayInsert(t, d) if place[t] == Where::Free => {
                let wake = reference.tick + d;
                a.li(Reg::A1, tcb_addr(t));
                a.li(Reg::T5, wake as i32);
                emit::delay_insert(&mut a, &mut lg);
                reference.delay_insert(t, wake);
                place[t] = Where::Delayed;
            }
            ListOp::DelayTick => {
                emit::delay_tick(&mut a, &mut lg);
                reference.delay_tick();
                for t in 0..N_TASKS {
                    if place[t] == Where::Delayed && !reference.delay.iter().any(|&(x, _)| x == t) {
                        place[t] = Where::Ready;
                    }
                }
            }
            ListOp::EventInsert(t) if place[t] == Where::Free => {
                a.li(Reg::S0, sem_addr);
                a.li(Reg::A1, tcb_addr(t));
                emit::event_insert(&mut a, &mut lg, Reg::S0);
                reference.event_insert(t);
                place[t] = Where::Waiting;
            }
            ListOp::EventPop => {
                a.li(Reg::S0, sem_addr);
                emit::event_pop(&mut a, &mut lg, Reg::S0);
                if let Some(t) = reference.event_pop() {
                    place[t] = Where::Free;
                }
            }
            _ => continue, // invalid in current state: skip
        }
        emitted += 1;
    }
    a.ebreak();
    if emitted == 0 {
        return;
    }
    let prog = a.finish().expect("sequence assembles");

    // Prepare guest memory: TCBs only (lists start empty).
    let mut bus = SramBus::new(rtosunit::layout::DMEM_BASE, 0x1_0000);
    for t in 0..N_TASKS {
        let addr = layout.tcb_addr(t);
        bus.mem
            .write_word(addr.wrapping_add(tcb::ID as u32), t as u32);
        bus.mem
            .write_word(addr.wrapping_add(tcb::PRIO as u32), u32::from(prios[t]));
    }

    let mut engine = make_engine(CoreKind::Cv32e40p, 0, 0x4_0000);
    engine.load_program(&prog);
    engine.run_with(&mut bus, &mut NullCoprocessor, 10_000_000);
    assert!(engine.halted(), "seed {seed}: guest list code did not halt");

    // Reconstruct the guest's lists from memory and compare.
    let mem = &bus.mem;
    let read_chain = |head: u32| -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = head;
        while cur != 0 {
            out.push(mem.read_word(cur.wrapping_add(tcb::ID as u32)) as usize);
            cur = mem.read_word(cur.wrapping_add(tcb::NEXT as u32));
            assert!(out.len() <= N_TASKS, "seed {seed}: cycle in a guest list");
        }
        out
    };
    for p in 0..NUM_PRIOS {
        let got = read_chain(mem.read_word(KernelLayout::ready_head_addr(p)));
        assert_eq!(
            got, reference.ready[p],
            "seed {seed}: ready[{p}] diverged (guest vs reference)"
        );
        // Tail pointer must match the last element.
        if let Some(&last) = reference.ready[p].last() {
            let tail = mem.read_word(KernelLayout::READY_TAIL + (p as u32) * 4);
            assert_eq!(
                tail,
                layout.tcb_addr(last),
                "seed {seed}: ready tail[{p}] diverged"
            );
        }
    }
    let delay_got = read_chain(mem.read_word(KernelLayout::DELAY_HEAD));
    let delay_want: Vec<usize> = reference.delay.iter().map(|&(t, _)| t).collect();
    assert_eq!(delay_got, delay_want, "seed {seed}: delay list diverged");
    let wait_got =
        read_chain(mem.read_word(layout.sem_addr(0).wrapping_add(sem::WAIT_HEAD as u32)));
    assert_eq!(
        wait_got, reference.waiters,
        "seed {seed}: event list diverged"
    );
    let tick = mem.read_word(KernelLayout::TICK_COUNT);
    assert_eq!(tick, reference.tick, "seed {seed}: tick counter diverged");
}

#[test]
fn emitted_list_code_matches_reference() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let prios: [u8; N_TASKS] = std::array::from_fn(|_| rng.below(8) as u8);
        let ops: Vec<ListOp> = (0..1 + rng.below(39))
            .map(|_| random_op(&mut rng))
            .collect();
        run_sequence(seed, &prios, &ops);
    }
}
