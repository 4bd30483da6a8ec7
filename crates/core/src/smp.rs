//! SMP composition: N single-hart [`System`]s in lockstep on a shared
//! memory bus, with inter-processor interrupts.
//!
//! ## Topology
//!
//! Each hart keeps its own [`Platform`](crate::Platform) — private instruction memory, a
//! private functional data-memory bank, per-hart caches and a per-hart
//! RTOSUnit on its dedicated SRAM ports. What the harts *share* is the
//! **timing** of the downstream memory bus: every core-side DMEM
//! transaction (every access on uncached cores, refill/write-through
//! traffic on cached ones) must win a [`BusArbiter`] grant, so harts
//! pounding memory stretch each other's switch latencies without
//! perturbing functional state. This mirrors the cache model itself,
//! which is timing-only (`DESIGN.md` §5).
//!
//! ## IPIs
//!
//! A hart writes `(target << 8) | code` to `MMIO_IPI_SEND`; the code lands
//! in the target's mailbox and the target's `mip.MSIP` line rises (cause
//! `CAUSE_SOFTWARE`). The target's software ISR drains `MMIO_IPI_RECV`
//! until it reads 0. A code that arrives between the drain loop and the
//! `mret` keeps `MSIP` asserted, so the ISR re-enters immediately and no
//! wakeup is lost — the scheduler oracle asserts exactly this.
//!
//! ## Lazy lockstep
//!
//! Lockstep does each cycle's work in hart order: hart `h` working on
//! cycle `c` sits at the lockstep [`Position`] `(c, h)`. Harts interact
//! only through the bus arbiter and the mailboxes, so
//! [`SmpSystem::run`] steps a hart on every cycle where its core can
//! issue, in that order, but lets a hart whose core is draining a
//! multi-cycle instruction ([`CoreEngine::busy`](rvsim_cores::CoreEngine::busy))
//! sit the drain out and catches it up in one [`System::run`] call when
//! the drain ends. A draining core issues nothing: no bus request, no
//! IPI sent or received. The one shared thing it still reads is its
//! mailbox, through the `MSIP` line, and every mailbox entry carries the
//! position of its send: hart `h` on cycle `c` sees an entry exactly when
//! the send's position is before `(c, h)`, so a late catch-up sees what
//! per-cycle lockstep saw. [`SmpSystem::run_stepwise`] is the per-cycle
//! reference.

use crate::config::Preset;
use crate::system::{RunExit, System};
use rvsim_cores::CoreKind;
use rvsim_isa::Program;
use rvsim_mem::{BusArbiter, BusMasterStats};
use rvsim_snapshot::{self as snap, Json, SnapError};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A hart's lockstep position on a cycle: `(cycle, hart id)`. Per-cycle
/// lockstep does its work in this order, so comparing two positions
/// compares when their work happens.
pub type Position = (u64, usize);

/// The send position given to mailbox entries a snapshot restores: every
/// hart sees them on every cycle it can work on. Restoring a composition
/// puts every hart on one cycle, from whose successor on each queued
/// entry is visible to every hart, so no real send position is needed.
const RESTORED: Position = (0, 0);

/// One queued IPI: its code and the lockstep position of its send.
#[derive(Debug, Clone, Copy)]
struct Ipi {
    sent: Position,
    code: u32,
}

/// State shared by all harts of an [`SmpSystem`]: the bus arbiter and the
/// IPI mailboxes. Lives behind `Rc<RefCell<..>>` so each hart's
/// [`Platform`](crate::Platform) can reach it from inside a bus access.
#[derive(Debug)]
pub struct SmpShared {
    /// Shared-bus arbiter; master index = hart id.
    pub bus: BusArbiter,
    mailboxes: Vec<VecDeque<Ipi>>,
    sends: Vec<u64>,
    recvs: Vec<u64>,
}

impl SmpShared {
    /// Creates shared state for `harts` harts.
    pub fn new(harts: usize) -> SmpShared {
        SmpShared {
            bus: BusArbiter::new(harts),
            mailboxes: vec![VecDeque::new(); harts],
            sends: vec![0; harts],
            recvs: vec![0; harts],
        }
    }

    /// Pushes an IPI `code` into `target`'s mailbox (the
    /// `MMIO_IPI_SEND` device), stamped with the sender's position.
    /// Sends arrive in lockstep order, so each mailbox is ordered by
    /// stamp. Out-of-range targets are dropped, like a write to an
    /// unmapped device register.
    pub fn send_ipi(&mut self, sent: Position, target: usize, code: u32) {
        if let Some(mb) = self.mailboxes.get_mut(target) {
            mb.push_back(Ipi { sent, code });
            self.sends[target] += 1;
        }
    }

    /// Pops the oldest IPI code `hart` sees on `cycle`, or 0 when it
    /// sees none (the `MMIO_IPI_RECV` device).
    pub fn recv_ipi(&mut self, hart: usize, cycle: u64) -> u32 {
        match self.ipi_visible_from(hart) {
            Some(at) if at <= cycle => {
                self.recvs[hart] += 1;
                self.mailboxes[hart].pop_front().map_or(0, |ipi| ipi.code)
            }
            _ => 0,
        }
    }

    /// The first cycle on which `hart` sees the oldest IPI queued for it,
    /// or `None` with an empty mailbox. Hart `h` on cycle `c` sees an
    /// entry sent at position `p` exactly when `p < (c, h)`: a send by a
    /// lower hart id is seen on its own cycle, any other on the next.
    /// Seen entries drive the hart's `mip.MSIP`.
    pub fn ipi_visible_from(&self, hart: usize) -> Option<u64> {
        let (cycle, sender) = self.mailboxes[hart].front()?.sent;
        Some(if sender < hart { cycle } else { cycle + 1 })
    }

    /// Undelivered IPI codes currently queued for `hart`, seen yet or
    /// not.
    pub fn mailbox_depth(&self, hart: usize) -> usize {
        self.mailboxes[hart].len()
    }

    /// `(sent-to, received-by)` IPI counters for `hart`. Conservation —
    /// `sent == received + mailbox_depth` — is the oracle's
    /// no-lost-wakeups invariant.
    pub fn ipi_counts(&self, hart: usize) -> (u64, u64) {
        (self.sends[hart], self.recvs[hart])
    }

    /// Per-hart shared-bus statistics.
    pub fn bus_stats(&self, hart: usize) -> BusMasterStats {
        self.bus.master_stats(hart)
    }

    /// Serializes the shared bus and IPI mailboxes (one plain array of
    /// codes per hart) for a machine-state snapshot. The hart count is the
    /// composition's. Send positions are left out: snapshots are taken
    /// with every hart on one cycle, so each queued entry is visible to
    /// every hart from the next cycle on, which is what a restore marks.
    pub fn to_snap(&self) -> Json {
        let mailboxes: Vec<Json> = self
            .mailboxes
            .iter()
            .map(|mb| snap::list_to_json(mb.iter().map(|ipi| &ipi.code)))
            .collect();
        Json::object()
            .with("bus", self.bus.to_snap())
            .with("mailboxes", mailboxes)
            .with("sends", snap::runs_to_json(&self.sends))
            .with("recvs", snap::runs_to_json(&self.recvs))
    }

    /// Rebuilds the shared state of `harts` harts — the caller's count —
    /// from [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields or per-hart lists that are not one entry
    /// per hart.
    pub fn from_snap(value: &Json, harts: usize) -> Result<SmpShared, SnapError> {
        let boxes = snap::get_array(value, "mailboxes")?;
        if boxes.len() != harts {
            return Err(SnapError::new(format!(
                "smp: {} mailboxes for {harts} harts",
                boxes.len()
            )));
        }
        Ok(SmpShared {
            bus: BusArbiter::from_snap(snap::field(value, "bus")?, harts)?,
            mailboxes: boxes
                .iter()
                .map(|mb| {
                    let codes: Vec<u32> = snap::list_from_json(mb, "mailbox")?;
                    Ok(codes
                        .into_iter()
                        .map(|code| Ipi {
                            sent: RESTORED,
                            code,
                        })
                        .collect())
                })
                .collect::<Result<_, SnapError>>()?,
            sends: snap::runs_from_json(snap::field(value, "sends")?, harts)?,
            recvs: snap::runs_from_json(snap::field(value, "recvs")?, harts)?,
        })
    }
}

/// N homogeneous harts in lockstep.
///
/// Cross-hart interactions — bus grants, IPI delivery — resolve in the
/// per-cycle lockstep order (hart 0 first each cycle) on every path;
/// [`run`](Self::run) only lets a draining hart catch up late (see the
/// [module docs](self)). Hart 0 is the *measured* hart by convention:
/// runs stop when it halts.
pub struct SmpSystem {
    harts: Vec<System>,
    shared: Rc<RefCell<SmpShared>>,
}

impl SmpSystem {
    /// Builds `n` identical `(kind, preset)` harts on one shared bus.
    /// Hart ids are 0..n; each guest reads its own via `mhartid`.
    pub fn new(kind: CoreKind, preset: Preset, n: usize) -> SmpSystem {
        assert!(n >= 1, "an SMP system needs at least one hart");
        let shared = Rc::new(RefCell::new(SmpShared::new(n)));
        let harts = (0..n)
            .map(|hart| {
                let mut sys = System::new(kind, preset);
                sys.attach_smp(hart, Rc::clone(&shared));
                sys
            })
            .collect();
        SmpSystem { harts, shared }
    }

    /// Number of harts.
    pub fn harts(&self) -> usize {
        self.harts.len()
    }

    /// Shared-state handle (bus stats, mailboxes, IPI counters).
    pub fn shared(&self) -> Rc<RefCell<SmpShared>> {
        Rc::clone(&self.shared)
    }

    /// One hart's system, immutably.
    pub fn hart(&self, hart: usize) -> &System {
        &self.harts[hart]
    }

    /// One hart's system, mutably (program load, overrides, IRQ
    /// schedules).
    pub fn hart_mut(&mut self, hart: usize) -> &mut System {
        &mut self.harts[hart]
    }

    /// Loads a guest image into one hart's instruction memory.
    pub fn load_program(&mut self, hart: usize, program: &Program) {
        self.harts[hart].load_program(program);
    }

    /// Turns the guest PC profiler on or off on *every* hart. Per-hart
    /// profiles come back through [`take_profiles`](Self::take_profiles),
    /// so SMP runs get per-hart cycle attribution.
    pub fn set_profiling(&mut self, on: bool) {
        for sys in &mut self.harts {
            sys.set_profiling(on);
        }
    }

    /// Takes every hart's accumulated profile (index = hart id), turning
    /// profiling off. Harts that were not profiling yield `None`.
    pub fn take_profiles(&mut self) -> Vec<Option<rvsim_cores::PcProfile>> {
        self.harts.iter_mut().map(System::take_profile).collect()
    }

    /// Whether the measured hart (hart 0) has halted.
    pub fn halted(&self) -> bool {
        self.harts[0].halted()
    }

    /// Advances every hart by one cycle, in hart order. Halted harts
    /// stay parked (their platforms stop advancing, which also stops
    /// their bus traffic).
    pub fn step(&mut self) {
        for sys in &mut self.harts {
            if !sys.halted() {
                sys.step();
            }
        }
    }

    /// Serializes the whole composition — every hart plus the shared
    /// bus/mailbox state — into a sealed snapshot document.
    pub fn snapshot(&self) -> Json {
        let systems: Vec<Json> = self.harts.iter().map(System::state_snap).collect();
        snap::seal(
            Json::object()
                .with("shared", self.shared.borrow().to_snap())
                .with("systems", systems),
        )
    }

    /// Rebuilds a composition from a sealed snapshot document: one hart
    /// per entry of its `systems` list. Each hart is built once from its
    /// own payload; wiring (the per-hart `Rc` links to the shared state,
    /// and with them `mhartid`) is attached afterwards, since only state
    /// is read from the snapshot.
    ///
    /// # Errors
    ///
    /// Fails on a broken envelope, an empty hart list, harts of different
    /// kinds or presets, shared state not sized for the harts, or any
    /// malformed per-hart state.
    pub fn from_snapshot(doc: &Json) -> Result<SmpSystem, SnapError> {
        let state = snap::open(&doc.render())?;
        let systems = snap::get_array(&state, "systems")?;
        if systems.is_empty() {
            return Err(SnapError::new("smp: no hart states"));
        }
        let shared = SmpShared::from_snap(snap::field(&state, "shared")?, systems.len())?;
        let shared = Rc::new(RefCell::new(shared));
        let mut harts: Vec<System> = Vec::with_capacity(systems.len());
        for (hart, sys_state) in systems.iter().enumerate() {
            let mut sys = System::from_state_snap(sys_state)?;
            if let Some(first) = harts.first() {
                if (sys.kind(), sys.preset()) != (first.kind(), first.preset()) {
                    return Err(SnapError::new(format!(
                        "smp: hart {hart} is not the same core and preset as hart 0"
                    )));
                }
            }
            sys.attach_smp(hart, Rc::clone(&shared));
            harts.push(sys);
        }
        Ok(SmpSystem { harts, shared })
    }

    /// Runs until hart 0 halts or `max_cycles` elapse, cycle-exact with
    /// [`run_stepwise`](Self::run_stepwise).
    ///
    /// Cycle by cycle, each live hart in id order sits the cycle out
    /// while its core drains, and otherwise takes it with
    /// [`System::step`], first catching up over the drain it sat out: one
    /// step for a one-cycle drain, one [`System::run`] for a longer one.
    /// A catch-up covers drain cycles only, so the batch drains in bulk
    /// (or per cycle while the unit has work) and never dispatches a
    /// translated block: SMP harts build no block cache. Its batches end
    /// before the cycle a queued IPI becomes visible to the hart. When
    /// hart 0 halts, the other harts finish its cycle. On return every
    /// live hart stands on one cycle, as after per-cycle lockstep.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        if self.halted() {
            return RunExit::Halted;
        }
        let start = self.harts[0].platform.cycle();
        let end = start + max_cycles;
        // The last cycle of each hart's drain: it sits out every cycle up
        // to this one. A halted hart sits out the rest of the run; only a
        // hart's own step, which issues, can halt it.
        let mut drained_at: Vec<u64> = self
            .harts
            .iter()
            .map(|sys| drain_end(sys, sys.platform.cycle()))
            .collect();
        for cycle in start + 1..=end {
            for (sys, drained) in self.harts.iter_mut().zip(&mut drained_at) {
                if cycle <= *drained {
                    continue;
                }
                catch_up(sys, cycle - 1);
                sys.step();
                *drained = drain_end(sys, cycle);
            }
            if self.halted() {
                self.catch_up_to(cycle);
                return RunExit::Halted;
            }
        }
        self.catch_up_to(end);
        RunExit::CyclesExhausted
    }

    /// Catches every live hart up to `cycle`.
    fn catch_up_to(&mut self, cycle: u64) {
        for sys in self.harts.iter_mut().filter(|sys| !sys.halted()) {
            catch_up(sys, cycle);
        }
    }

    /// The per-cycle reference path: until hart 0 halts or `max_cycles`
    /// elapse, every live hart takes every cycle through
    /// [`step`](Self::step). Kept for differential testing.
    pub fn run_stepwise(&mut self, max_cycles: u64) -> RunExit {
        for _ in 0..max_cycles {
            if self.halted() {
                return RunExit::Halted;
            }
            self.step();
        }
        if self.halted() {
            RunExit::Halted
        } else {
            RunExit::CyclesExhausted
        }
    }
}

/// The last cycle of the drain of a hart standing on `cycle`, or
/// `u64::MAX` once it has halted.
fn drain_end(sys: &System, cycle: u64) -> u64 {
    if sys.halted() {
        u64::MAX
    } else {
        cycle + u64::from(sys.core.busy())
    }
}

/// Advances a hart that sat out a drain to `cycle`, the drain's last
/// cycle or an earlier one: one step for one cycle, one batched run for
/// more.
fn catch_up(sys: &mut System, cycle: u64) {
    let lag = cycle - sys.platform.cycle();
    debug_assert!(
        lag <= u64::from(sys.core.busy()),
        "a catch-up past the drain"
    );
    match lag {
        0 => {}
        1 => sys.step(),
        _ => {
            sys.run(lag);
        }
    }
    debug_assert_eq!(sys.platform.cycle(), cycle, "a catch-up stopped short");
}

impl std::fmt::Debug for SmpSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmpSystem")
            .field("harts", &self.harts.len())
            .field("cycle", &self.harts[0].platform.cycle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{DMEM_BASE, IMEM_BASE, MMIO_HALT, MMIO_IPI_RECV, MMIO_IPI_SEND};
    use rvsim_isa::{csr, Asm, Reg};

    /// Store `mhartid` to DMEM, then halt.
    fn hartid_program() -> Program {
        let mut a = Asm::new(IMEM_BASE);
        a.csrr(Reg::A0, csr::MHARTID);
        a.li(Reg::T0, DMEM_BASE as i32);
        a.sw(Reg::A0, 0, Reg::T0);
        a.li(Reg::T0, MMIO_HALT as i32);
        a.sw(Reg::Zero, 0, Reg::T0);
        a.label("spin");
        a.j("spin");
        a.finish().expect("assemble")
    }

    #[test]
    fn each_hart_sees_its_own_id_and_memory() {
        let mut smp = SmpSystem::new(CoreKind::Cv32e40p, Preset::Vanilla, 4);
        let prog = hartid_program();
        for h in 0..4 {
            smp.load_program(h, &prog);
        }
        for _ in 0..200 {
            smp.step();
        }
        for h in 0..4 {
            assert!(smp.hart(h).halted(), "hart {h} did not halt");
            assert_eq!(
                smp.hart(h).platform.dmem.read_word(DMEM_BASE),
                h as u32,
                "hart {h} stored a foreign hartid — DMEM banks must be private"
            );
        }
    }

    /// Hart 1 sends an IPI to hart 0; hart 0's software ISR reads the
    /// mailbox, stores the code, and halts.
    #[test]
    fn ipi_raises_software_interrupt_on_the_target() {
        let mut smp = SmpSystem::new(CoreKind::Cv32e40p, Preset::Vanilla, 2);

        let mut rx = Asm::new(IMEM_BASE);
        rx.la(Reg::T0, "isr");
        rx.csrw(csr::MTVEC, Reg::T0);
        rx.li(Reg::T0, csr::MIP_MSIP as i32);
        rx.csrw(csr::MIE, Reg::T0);
        rx.enable_interrupts();
        rx.label("spin");
        // Halt from the main loop once the ISR has stored the code, so
        // the mret retires and the episode is recorded.
        rx.li(Reg::T0, DMEM_BASE as i32);
        rx.lw(Reg::T1, 0, Reg::T0);
        rx.beq(Reg::T1, Reg::Zero, "spin");
        rx.li(Reg::T0, MMIO_HALT as i32);
        rx.sw(Reg::Zero, 0, Reg::T0);
        rx.j("spin");
        rx.label("isr");
        rx.li(Reg::T0, MMIO_IPI_RECV as i32);
        rx.lw(Reg::A0, 0, Reg::T0);
        rx.li(Reg::T0, DMEM_BASE as i32);
        rx.sw(Reg::A0, 0, Reg::T0);
        rx.mret();
        smp.load_program(0, &rx.finish().expect("assemble rx"));

        let mut tx = Asm::new(IMEM_BASE);
        // Send code 7 to hart 0: (0 << 8) | 7.
        tx.li(Reg::T0, MMIO_IPI_SEND as i32);
        tx.li(Reg::T1, 7);
        tx.sw(Reg::T1, 0, Reg::T0);
        tx.li(Reg::T0, MMIO_HALT as i32);
        tx.sw(Reg::Zero, 0, Reg::T0);
        tx.label("spin");
        tx.j("spin");
        smp.load_program(1, &tx.finish().expect("assemble tx"));

        assert_eq!(smp.run(5_000), RunExit::Halted);
        assert_eq!(smp.hart(0).platform.dmem.read_word(DMEM_BASE), 7);
        let shared = smp.shared();
        let shared = shared.borrow();
        assert_eq!(shared.ipi_counts(0), (1, 1), "one IPI sent, one drained");
        assert_eq!(shared.mailbox_depth(0), 0);
        // The delivery shows up as a recorded software-interrupt episode.
        let recs = smp.hart(0).records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].cause, csr::CAUSE_SOFTWARE);
    }

    #[test]
    fn contending_harts_stretch_latency_but_not_state() {
        // Hart 0 runs a fixed load/store loop; measure its halt cycle
        // alone, then with a memory-pounding neighbour. Timing must grow
        // under contention; the functional result must not change.
        fn worker(iters: i32) -> Program {
            let mut a = Asm::new(IMEM_BASE);
            a.li(Reg::A0, 0);
            a.li(Reg::A1, iters);
            a.li(Reg::T0, DMEM_BASE as i32);
            a.label("loop");
            a.sw(Reg::A0, 4, Reg::T0);
            a.lw(Reg::T1, 4, Reg::T0);
            a.add(Reg::A0, Reg::T1, Reg::Zero);
            a.addi(Reg::A0, Reg::A0, 1);
            a.addi(Reg::A1, Reg::A1, -1);
            a.bne(Reg::A1, Reg::Zero, "loop");
            a.sw(Reg::A0, 0, Reg::T0);
            a.li(Reg::T0, MMIO_HALT as i32);
            a.sw(Reg::Zero, 0, Reg::T0);
            a.label("spin");
            a.j("spin");
            a.finish().expect("assemble")
        }

        let run = |n: usize| -> (u64, u32) {
            let mut smp = SmpSystem::new(CoreKind::Cv32e40p, Preset::Vanilla, n);
            for h in 0..n {
                smp.load_program(h, &worker(200));
            }
            assert_eq!(smp.run(100_000), RunExit::Halted);
            (
                smp.hart(0).platform.cycle(),
                smp.hart(0).platform.dmem.read_word(DMEM_BASE),
            )
        };

        let (alone, value_alone) = run(1);
        let (contended, value_contended) = run(4);
        assert_eq!(value_alone, 200);
        assert_eq!(value_contended, 200, "contention must be timing-only");
        assert!(
            contended > alone,
            "4-hart run ({contended}) not slower than solo ({alone})"
        );
    }

    #[test]
    fn smp_snapshot_roundtrip_preserves_lockstep() {
        // Snapshot a 2-hart system mid-flight — between hart 1's IPI send
        // and hart 0's delivery, so a queued mailbox entry and live bus
        // state cross the snapshot — and check the restored composition
        // finishes identically to the uninterrupted one.
        let build = || {
            let mut smp = SmpSystem::new(CoreKind::Cv32e40p, Preset::Vanilla, 2);
            let mut rx = Asm::new(IMEM_BASE);
            rx.la(Reg::T0, "isr");
            rx.csrw(csr::MTVEC, Reg::T0);
            rx.li(Reg::T0, csr::MIP_MSIP as i32);
            rx.csrw(csr::MIE, Reg::T0);
            rx.enable_interrupts();
            rx.label("spin");
            rx.li(Reg::T0, DMEM_BASE as i32);
            rx.lw(Reg::T1, 0, Reg::T0);
            rx.beq(Reg::T1, Reg::Zero, "spin");
            rx.li(Reg::T0, MMIO_HALT as i32);
            rx.sw(Reg::Zero, 0, Reg::T0);
            rx.j("spin");
            rx.label("isr");
            rx.li(Reg::T0, MMIO_IPI_RECV as i32);
            rx.lw(Reg::A0, 0, Reg::T0);
            rx.li(Reg::T0, DMEM_BASE as i32);
            rx.sw(Reg::A0, 0, Reg::T0);
            rx.mret();
            smp.load_program(0, &rx.finish().expect("assemble rx"));
            let mut tx = Asm::new(IMEM_BASE);
            // Busy-wait, then send code 9 to hart 0 and halt.
            tx.li(Reg::A1, 20);
            tx.label("wait");
            tx.addi(Reg::A1, Reg::A1, -1);
            tx.bne(Reg::A1, Reg::Zero, "wait");
            tx.li(Reg::T0, MMIO_IPI_SEND as i32);
            tx.li(Reg::T1, 9);
            tx.sw(Reg::T1, 0, Reg::T0);
            tx.li(Reg::T0, MMIO_HALT as i32);
            tx.sw(Reg::Zero, 0, Reg::T0);
            tx.label("spin");
            tx.j("spin");
            smp.load_program(1, &tx.finish().expect("assemble tx"));
            smp
        };

        let mut a = build();
        for _ in 0..45 {
            a.step();
        }
        let doc = a.snapshot();
        assert_eq!(doc.render(), a.snapshot().render(), "digest-stable");
        let mut b = SmpSystem::from_snapshot(&doc).expect("restore");
        assert_eq!(a.run(5_000), b.run(5_000));
        assert_eq!(a.hart(0).platform.dmem.read_word(DMEM_BASE), 9);
        assert_eq!(
            a.snapshot().render(),
            b.snapshot().render(),
            "continuations must stay bit-identical"
        );
    }

    #[test]
    fn one_hart_smp_is_cycle_identical_to_a_plain_system() {
        let prog = hartid_program();
        let mut plain = System::new(CoreKind::Cva6, Preset::Vanilla);
        plain.load_program(&prog);
        plain.run(10_000);

        let mut smp = SmpSystem::new(CoreKind::Cva6, Preset::Vanilla, 1);
        smp.load_program(0, &prog);
        smp.run(10_000);

        assert_eq!(plain.platform.cycle(), smp.hart(0).platform.cycle());
        assert_eq!(plain.core.retired(), smp.hart(0).core.retired());
        let stats = smp.shared().borrow().bus_stats(0);
        assert_eq!(stats.wait_cycles, 0, "a lone master never waits");
    }
}
