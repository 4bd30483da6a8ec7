//! SMP composition: N single-hart [`System`]s in per-cycle lockstep on a
//! shared memory bus, with inter-processor interrupts.
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

use crate::config::Preset;
use crate::system::{RunExit, System};
use rvsim_cores::CoreKind;
use rvsim_isa::Program;
use rvsim_mem::{BusArbiter, BusMasterStats};
use rvsim_snapshot::{self as snap, Json, SnapError};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// State shared by all harts of an [`SmpSystem`]: the bus arbiter and the
/// IPI mailboxes. Lives behind `Rc<RefCell<..>>` so each hart's
/// [`Platform`](crate::Platform) can reach it from inside a bus access.
#[derive(Debug)]
pub struct SmpShared {
    /// Shared-bus arbiter; master index = hart id.
    pub bus: BusArbiter,
    mailboxes: Vec<VecDeque<u32>>,
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

    /// Number of harts sharing this state.
    pub fn harts(&self) -> usize {
        self.mailboxes.len()
    }

    /// Pushes an IPI `code` into `target`'s mailbox (the
    /// `MMIO_IPI_SEND` device). Out-of-range targets are dropped, like a
    /// write to an unmapped device register.
    pub fn send_ipi(&mut self, target: usize, code: u32) {
        if let Some(mb) = self.mailboxes.get_mut(target) {
            mb.push_back(code);
            self.sends[target] += 1;
        }
    }

    /// Pops the oldest pending IPI code for `hart`, or 0 when none is
    /// pending (the `MMIO_IPI_RECV` device).
    pub fn recv_ipi(&mut self, hart: usize) -> u32 {
        match self.mailboxes[hart].pop_front() {
            Some(code) => {
                self.recvs[hart] += 1;
                code
            }
            None => 0,
        }
    }

    /// Whether `hart` has an undelivered IPI (drives its `mip.MSIP`).
    pub fn ipi_pending(&self, hart: usize) -> bool {
        !self.mailboxes[hart].is_empty()
    }

    /// Undelivered IPI codes currently queued for `hart`.
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

    /// Serializes the shared bus and IPI mailboxes for a machine-state
    /// snapshot.
    pub fn to_snap(&self) -> Json {
        let mailboxes: Vec<Json> = self
            .mailboxes
            .iter()
            .map(|mb| {
                let codes: Vec<u32> = mb.iter().copied().collect();
                Json::object()
                    .with("len", codes.len())
                    .with("codes", snap::runs_to_json(&codes))
            })
            .collect();
        Json::object()
            .with("harts", self.harts())
            .with("bus", self.bus.to_snap())
            .with("mailboxes", mailboxes)
            .with("sends", snap::runs_to_json(&self.sends))
            .with("recvs", snap::runs_to_json(&self.recvs))
    }

    /// Rebuilds the shared state from [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields or mailbox/counter counts that disagree
    /// with the recorded hart count.
    pub fn from_snap(value: &Json) -> Result<SmpShared, SnapError> {
        let harts = snap::get_usize(value, "harts")?;
        if harts == 0 {
            return Err(SnapError::new("smp: zero harts"));
        }
        let boxes = snap::get_array(value, "mailboxes")?;
        if boxes.len() != harts {
            return Err(SnapError::new(format!(
                "smp: {} mailboxes for {harts} harts",
                boxes.len()
            )));
        }
        let mut mailboxes = Vec::with_capacity(harts);
        for mb in boxes {
            let len = snap::get_usize(mb, "len")?;
            let codes = snap::runs_from_json(snap::field(mb, "codes")?, len)?;
            mailboxes.push(codes.into_iter().collect());
        }
        let bus = BusArbiter::from_snap(snap::field(value, "bus")?)?;
        if bus.masters() != harts {
            return Err(SnapError::new("smp: bus master count disagrees"));
        }
        Ok(SmpShared {
            bus,
            mailboxes,
            sends: snap::runs_from_json(snap::field(value, "sends")?, harts)?,
            recvs: snap::runs_from_json(snap::field(value, "recvs")?, harts)?,
        })
    }
}

/// N homogeneous harts in per-cycle lockstep.
///
/// Stepping is strictly cycle-interleaved (hart 0 first each cycle) so
/// cross-hart interactions — bus grants, IPI delivery — resolve at cycle
/// granularity, never reordered by batching. Hart 0 is the *measured*
/// hart by convention: [`run`](Self::run) stops when it halts.
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
                .with("harts", self.harts.len())
                .with("shared", self.shared.borrow().to_snap())
                .with("systems", systems),
        )
    }

    /// Rebuilds a composition from a sealed snapshot document. Each hart
    /// is built once from its own payload; wiring (the per-hart `Rc`
    /// links to the shared state) is attached afterwards, since only
    /// state is read from the snapshot.
    ///
    /// # Errors
    ///
    /// Fails on a broken envelope, hart-count disagreements, harts of
    /// different kinds or presets, or any malformed per-hart state.
    pub fn from_snapshot(doc: &Json) -> Result<SmpSystem, SnapError> {
        let state = snap::open(&doc.render())?;
        let n = snap::get_usize(&state, "harts")?;
        let systems = snap::get_array(&state, "systems")?;
        if n == 0 || systems.len() != n {
            return Err(SnapError::new(format!(
                "smp: {} hart states for {n} harts",
                systems.len()
            )));
        }
        let shared = SmpShared::from_snap(snap::field(&state, "shared")?)?;
        if shared.harts() != n {
            return Err(SnapError::new("smp: shared state hart count disagrees"));
        }
        let shared = Rc::new(RefCell::new(shared));
        let mut harts: Vec<System> = Vec::with_capacity(n);
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

    /// Runs in lockstep until hart 0 halts or `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
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
