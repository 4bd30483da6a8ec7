//! System composition: core + RTOSUnit + memory + interrupt sources, plus
//! the latency instrumentation of §6.1.

use crate::config::{Preset, RtosUnitConfig};
use crate::cv32rt::Cv32rtUnit;
use crate::events::TraceEvent;
use crate::layout::{IMEM_BASE, IMEM_SIZE};
use crate::platform::Platform;
use crate::stats::{LatencyStats, SwitchRecord};
use crate::unit::{RtosUnit, UnitStats};
use rvsim_cores::{
    make_engine, ArchState, Coprocessor, CoreEngine, CoreEvent, CoreKind, DataBus, FaultKind,
    FaultPlan, NullCoprocessor,
};
use rvsim_isa::{csr, CustomOp, Program};
use rvsim_snapshot::{self as snap, Json, SnapError};
use std::collections::VecDeque;

/// Default timer-tick period in cycles.
pub const DEFAULT_TICK_PERIOD: u32 = 2000;

/// Why [`System::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The guest halted (HALT MMIO write or `ebreak`).
    Halted,
    /// The cycle budget was exhausted first.
    CyclesExhausted,
}

// The Rtos variant dominates runtime use; boxing would only add
// indirection to the hot per-cycle dispatch.
#[allow(clippy::large_enum_variant)]
enum UnitBox {
    None(NullCoprocessor),
    Rtos(RtosUnit),
    Cv32rt(Cv32rtUnit),
}

/// The attached unit as the engine's coprocessor: a `match` per hook, so
/// the engine runs one monomorphized hot path over `(Platform, UnitBox)`
/// whatever the preset, and each unit's hooks are direct calls the
/// compiler may inline.
impl Coprocessor for UnitBox {
    #[inline]
    fn on_interrupt_entry(&mut self, state: &mut ArchState, cause: u32) {
        match self {
            UnitBox::None(u) => u.on_interrupt_entry(state, cause),
            UnitBox::Rtos(u) => u.on_interrupt_entry(state, cause),
            UnitBox::Cv32rt(u) => u.on_interrupt_entry(state, cause),
        }
    }

    #[inline]
    fn mret_stall(&self) -> bool {
        match self {
            UnitBox::None(u) => u.mret_stall(),
            UnitBox::Rtos(u) => u.mret_stall(),
            UnitBox::Cv32rt(u) => u.mret_stall(),
        }
    }

    #[inline]
    fn on_mret(&mut self, state: &mut ArchState) {
        match self {
            UnitBox::None(u) => u.on_mret(state),
            UnitBox::Rtos(u) => u.on_mret(state),
            UnitBox::Cv32rt(u) => u.on_mret(state),
        }
    }

    #[inline]
    fn custom_stall(&self, op: CustomOp) -> bool {
        match self {
            UnitBox::None(u) => u.custom_stall(op),
            UnitBox::Rtos(u) => u.custom_stall(op),
            UnitBox::Cv32rt(u) => u.custom_stall(op),
        }
    }

    #[inline]
    fn exec_custom(&mut self, op: CustomOp, rs1: u32, rs2: u32, state: &mut ArchState) -> u32 {
        match self {
            UnitBox::None(u) => u.exec_custom(op, rs1, rs2, state),
            UnitBox::Rtos(u) => u.exec_custom(op, rs1, rs2, state),
            UnitBox::Cv32rt(u) => u.exec_custom(op, rs1, rs2, state),
        }
    }

    #[inline]
    fn step<B: DataBus>(&mut self, state: &mut ArchState, bus: &mut B) {
        match self {
            UnitBox::None(u) => u.step(state, bus),
            UnitBox::Rtos(u) => u.step(state, bus),
            UnitBox::Cv32rt(u) => u.step(state, bus),
        }
    }

    #[inline]
    fn is_idle(&self) -> bool {
        match self {
            UnitBox::None(u) => u.is_idle(),
            UnitBox::Rtos(u) => u.is_idle(),
            UnitBox::Cv32rt(u) => u.is_idle(),
        }
    }
}

/// A complete simulated system for one `(core, configuration)` pair.
///
/// ```
/// use rtosunit::{System, Preset};
/// use rvsim_cores::CoreKind;
/// use rvsim_isa::{Asm, Reg};
///
/// # fn main() -> Result<(), rvsim_isa::AsmError> {
/// let mut a = Asm::new(rtosunit::layout::IMEM_BASE);
/// a.li(Reg::A0, 7);
/// a.ebreak();
/// let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
/// sys.load_program(&a.finish()?);
/// sys.run(1_000);
/// assert_eq!(sys.core.state.read_reg(Reg::A0), 7);
/// # Ok(())
/// # }
/// ```
pub struct System {
    /// The core engine.
    pub core: CoreEngine,
    /// Memory, caches, MMIO and arbitration.
    pub platform: Platform,
    unit: UnitBox,
    kind: CoreKind,
    preset: Preset,
    records: Vec<SwitchRecord>,
    pending_triggers: [Option<u64>; 3],
    open_episode: Option<(u64, u64, u32)>,
    /// Scheduled external-IRQ arrivals, latest first: the next arrival
    /// pops off the back, and an arrival later or earlier than every
    /// scheduled one lands at an end in O(1).
    ext_schedule: VecDeque<u64>,
    /// Fault-injection schedule; `None` (the default) costs nothing.
    fault_plan: Option<FaultPlan>,
}

fn cause_slot(cause: u32) -> usize {
    match cause {
        csr::CAUSE_TIMER => 0,
        csr::CAUSE_SOFTWARE => 1,
        csr::CAUSE_EXTERNAL => 2,
        _ => panic!("unknown interrupt cause {cause:#x}"),
    }
}

impl System {
    /// Builds a system for `kind` running the given `preset`, with the
    /// default memory map and tick period.
    pub fn new(kind: CoreKind, preset: Preset) -> System {
        let mut platform = Platform::new(kind, DEFAULT_TICK_PERIOD);
        let unit = match (preset, RtosUnitConfig::from_preset(preset)) {
            (_, Some(cfg)) => UnitBox::Rtos(RtosUnit::new(cfg)),
            (Preset::Cv32rt, None) => UnitBox::Cv32rt(Cv32rtUnit::new(kind)),
            (_, None) => UnitBox::None(NullCoprocessor),
        };
        // The auto-reset timer is part of the (T) modification (§4.4).
        platform.mmio.auto_timer_reset = preset.has_sched();
        System {
            core: make_engine(kind, IMEM_BASE, IMEM_SIZE),
            platform,
            unit,
            kind,
            preset,
            records: Vec::new(),
            pending_triggers: [None; 3],
            open_episode: None,
            ext_schedule: VecDeque::new(),
            fault_plan: None,
        }
    }

    /// The core kind this system was built for.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// The configuration preset in use.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// Loads a guest program into instruction memory.
    pub fn load_program(&mut self, program: &Program) {
        self.core.load_program(program);
    }

    /// Rebuilds the attached RTOSUnit with a different hardware list
    /// capacity (only before the guest boots; `GuestImage::install` sizes
    /// the lists to the kernel's capacity through this).
    ///
    /// # Panics
    ///
    /// Panics if this system has no RTOSUnit or the length is invalid
    /// (see [`RtosUnitConfig::with_list_len`]).
    pub fn set_unit_list_len(&mut self, list_len: usize) {
        match &mut self.unit {
            UnitBox::Rtos(u) => {
                let cfg = u.config().with_list_len(list_len);
                *u = RtosUnit::new(cfg.expect("invalid hardware list length"));
            }
            _ => panic!("system has no RTOSUnit to resize"),
        }
    }

    /// Overrides the timer-tick period (cycles).
    pub fn set_timer_period(&mut self, period: u32) {
        self.platform.mmio.timer_period = period;
        self.platform.mmio.mtimecmp = (self.platform.mmio.mtime as u32).wrapping_add(period);
    }

    /// Schedules the external interrupt line to rise at an absolute cycle.
    /// An arrival scheduled in ascending or descending order lands at an
    /// end of the schedule and shifts none of it.
    pub fn schedule_external_irq(&mut self, cycle: u64) {
        // Latest first, so the next arrival pops off the back; `insert`
        // shifts the shorter side, so either end is O(1).
        let at = self.ext_schedule.partition_point(|&c| c >= cycle);
        self.ext_schedule.insert(at, cycle);
    }

    /// Attaches a deterministic fault-injection schedule. The quiescence
    /// horizon is bounded one cycle short of every due fault, so batched
    /// and stepwise execution stay bit-identical with a plan attached.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Number of faults injected so far.
    pub fn faults_applied(&self) -> usize {
        self.fault_plan.as_ref().map_or(0, |p| p.applied())
    }

    /// Applies one due fault. Register flips land on the *active* bank
    /// without marking the register dirty (a silent upset); memory flips
    /// go straight to the DMEM backing store (the cache model is
    /// timing-only, so stored bits live there).
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::RegFlip { reg, bit } => {
                let bank = self.core.state.active_bank();
                let v = self.core.state.bank_read(bank, reg);
                self.core.state.bank_write_clean(bank, reg, v ^ (1 << bit));
            }
            FaultKind::CsrFlip { csr, bit } => {
                let v = self.core.state.csrs.read(csr);
                self.core.state.csrs.write(csr, v ^ (1 << bit));
            }
            FaultKind::MemFlip { addr, bit } => {
                let addr = addr & !0x3;
                if self.platform.dmem.contains(addr) {
                    let w = self.platform.dmem.read_word(addr);
                    self.platform.dmem.write_word(addr, w ^ (1 << bit));
                }
            }
            FaultKind::CacheUpset { addr } => self.platform.invalidate_line(addr),
            FaultKind::BusError => self.platform.arm_bus_error(),
            FaultKind::SpuriousIrq => self.platform.raise_external_irq(),
            FaultKind::DropIrq => {
                self.ext_schedule.pop_back();
            }
            FaultKind::DelayIrq { delay } => {
                if let Some(next) = self.ext_schedule.pop_back() {
                    self.schedule_external_irq(next + u64::from(delay));
                }
            }
            FaultKind::SpuriousIpi => self.platform.mmio.msip = true,
            FaultKind::ImemFlip { addr, bit } => {
                // Through the coherent IMEM write path: the cached decode
                // and any live block translation covering the word die
                // with the old bits.
                if let Some(word) = self.core.imem_word(addr) {
                    self.core.write_imem_word(addr, word ^ (1 << bit));
                }
            }
        }
        self.platform
            .record(TraceEvent::FaultInjected { code: kind.code() });
    }

    /// Attaches this system to an SMP composition as `hart`: the guest
    /// reads the id via `mhartid`, DMEM traffic arbitrates on the shared
    /// bus, and queued IPIs raise `mip.MSIP`.
    pub fn attach_smp(
        &mut self,
        hart: usize,
        shared: std::rc::Rc<std::cell::RefCell<crate::smp::SmpShared>>,
    ) {
        self.core.state.csrs.mhartid = hart as u32;
        self.platform.attach_smp(hart, shared);
    }

    /// The RTOSUnit attached to this system, if any.
    pub fn rtos_unit(&self) -> Option<&RtosUnit> {
        match &self.unit {
            UnitBox::Rtos(u) => Some(u),
            _ => None,
        }
    }

    /// Activity counters of the RTOSUnit, if one is attached.
    pub fn unit_stats(&self) -> Option<UnitStats> {
        self.rtos_unit().map(|u| u.stats)
    }

    /// The CV32RT comparison unit, if attached.
    pub fn cv32rt_unit(&self) -> Option<&Cv32rtUnit> {
        match &self.unit {
            UnitBox::Cv32rt(u) => Some(u),
            _ => None,
        }
    }

    /// All completed switch episodes so far.
    pub fn records(&self) -> &[SwitchRecord] {
        &self.records
    }

    /// Removes and returns the recorded episodes.
    pub fn take_records(&mut self) -> Vec<SwitchRecord> {
        std::mem::take(&mut self.records)
    }

    /// Aggregate latency statistics over all recorded episodes.
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        LatencyStats::from_records(&self.records)
    }

    /// The `mcause` of the open interrupt episode — the ISR was entered
    /// but its `mret` has not retired yet — or `None` between episodes.
    /// Checkers use this to stop a run at a consistent point instead of
    /// mid-ISR.
    pub fn isr_cause(&self) -> Option<u32> {
        self.open_episode.map(|(_, _, cause)| cause)
    }

    /// Whether the guest has halted.
    pub fn halted(&self) -> bool {
        self.core.halted() || self.platform.mmio.halted
    }

    /// Enables typed event tracing with a ring of `capacity` events (see
    /// [`Platform::enable_tracing`]). Off by default; retrieve the trace
    /// through `self.platform.trace()` / `take_trace()`.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.platform.enable_tracing(capacity);
    }

    /// Turns the guest PC profiler on or off (see
    /// [`CoreEngine::set_profiling`]). Off by default; profiling never
    /// changes timing. Retrieve the result through
    /// [`take_profile`](Self::take_profile).
    pub fn set_profiling(&mut self, on: bool) {
        self.core.set_profiling(on);
    }

    /// Takes the accumulated cycle-per-PC profile, turning profiling off.
    pub fn take_profile(&mut self) -> Option<rvsim_cores::PcProfile> {
        self.core.take_profile()
    }

    /// Block-translation statistics for blocks entered in `[start, end]`
    /// (see [`CoreEngine::block_stats_in`]).
    pub fn block_stats_in(&self, start: u32, end: u32) -> rvsim_cores::BlockStats {
        self.core.block_stats_in(start, end)
    }

    /// Advances the system by one cycle.
    pub fn step(&mut self) {
        self.platform.begin_cycle();
        let now = self.platform.cycle();

        // Faults strike before interrupt sampling, so a spurious /
        // dropped / delayed IRQ due this cycle shapes this cycle's mask.
        if self.fault_plan.is_some() {
            while let Some(ev) = self.fault_plan.as_mut().and_then(|p| p.take_due(now)) {
                self.apply_fault(ev.kind);
            }
        }

        while self.ext_schedule.back().is_some_and(|&c| c <= now) {
            self.ext_schedule.pop_back();
            self.platform.raise_external_irq();
        }

        // Refresh mip and record rising edges as trigger timestamps. A
        // queued IPI asserts MSIP alongside the local doorbell latch.
        let mut mask = self.platform.mmio.pending_mask();
        if self.platform.ipi_pending() {
            mask |= csr::MIP_MSIP;
        }
        let rising = mask & !self.core.state.csrs.mip;
        for (bit, cause) in [
            (csr::MIP_MTIP, csr::CAUSE_TIMER),
            (csr::MIP_MSIP, csr::CAUSE_SOFTWARE),
            (csr::MIP_MEIP, csr::CAUSE_EXTERNAL),
        ] {
            if rising & bit != 0 {
                self.pending_triggers[cause_slot(cause)] = Some(now);
                self.platform.record(TraceEvent::IrqRaised { cause });
            }
        }
        self.core.state.csrs.mip = mask;

        let out = self.core.step(&mut self.platform, &mut self.unit);
        self.track_episode(out.event, now);

        self.unit.step(&mut self.core.state, &mut self.platform);
    }

    /// Switch-episode bookkeeping for a core event on cycle `now`: ISR
    /// entry opens an episode at the cause's trigger timestamp (and
    /// re-arms an auto-reset timer), a retiring `mret` closes it into a
    /// [`SwitchRecord`].
    fn track_episode(&mut self, event: Option<CoreEvent>, now: u64) {
        match event {
            Some(CoreEvent::InterruptEntered { cause }) => {
                let trigger = self.pending_triggers[cause_slot(cause)]
                    .take()
                    .unwrap_or(now);
                self.open_episode = Some((trigger, now, cause));
                self.platform.record(TraceEvent::IsrEntry { cause });
                if cause == csr::CAUSE_TIMER && self.platform.mmio.auto_timer_reset {
                    self.platform.auto_reset_timer();
                }
            }
            Some(CoreEvent::MretRetired) => {
                self.platform.record(TraceEvent::MretRetired);
                if let Some((trigger, entry, cause)) = self.open_episode.take() {
                    self.records.push(SwitchRecord {
                        trigger_cycle: trigger,
                        entry_cycle: entry,
                        mret_cycle: now,
                        cause,
                    });
                }
            }
            _ => {}
        }
    }

    /// How many upcoming cycles can run batched, and in which mode.
    ///
    /// `(n, false)` with `n > 0`: the stretch is fully *quiescent* — the
    /// attached unit has no background work, the interrupt lines already
    /// match what the core sees, and no timer fire, scheduled external
    /// IRQ or planned fault lands inside the window. Over such a stretch
    /// the per-cycle `System` bookkeeping is provably a no-op, so the
    /// engine may run batched. Guest actions that could break the
    /// assumption mid-batch (MMIO writes to the interrupt devices, custom
    /// unit instructions) stop the batch via the bus attention latch and
    /// the engine's custom-instruction stop.
    ///
    /// `(n, true)`: the lines are quiescent but the unit has background
    /// work (context store/restore, preload, a scheduler sort) — the
    /// engine may still run batched provided it steps the coprocessor
    /// every cycle ([`CoreEngine::run_costep`](rvsim_cores::CoreEngine)).
    ///
    /// `(0, _)`: something needs the full per-cycle path this cycle.
    fn batch_budget(&mut self, now: u64, end: u64) -> (u64, bool) {
        // A queued IPI needs the per-cycle path to assert MSIP.
        if self.platform.ipi_pending() {
            return (0, false);
        }
        if self.platform.mmio.pending_mask() != self.core.state.csrs.mip {
            return (0, false);
        }
        let mut horizon = end;
        if let Some(delta) = self.platform.mmio.cycles_until_timer_fire() {
            // Stop one cycle short of the rising edge so the per-cycle
            // path records the trigger timestamp exactly at the edge.
            horizon = horizon.min((now + delta).saturating_sub(1));
        }
        if let Some(&next) = self.ext_schedule.back() {
            horizon = horizon.min(next.saturating_sub(1));
        }
        // Stop short of the next planned fault: injection needs the
        // per-cycle path, keeping batched == stepwise with a plan.
        if let Some(next) = self.fault_plan.as_ref().and_then(|p| p.next_cycle()) {
            horizon = horizon.min(next.saturating_sub(1));
        }
        (horizon.saturating_sub(now), !self.unit.is_idle())
    }

    /// Runs until the guest halts or `max_cycles` elapse.
    ///
    /// Quiescent stretches execute through the engine's batched
    /// [`run_until`](CoreEngine::run_until) and
    /// [`run_costep`](CoreEngine::run_costep), which dispatch translated
    /// blocks — cycle-exact with [`run_stepwise`](Self::run_stepwise) (the
    /// differential tests assert identical records and counters) but
    /// without the per-cycle system bookkeeping.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let end = self.platform.cycle() + max_cycles;
        loop {
            if self.halted() {
                return RunExit::Halted;
            }
            let now = self.platform.cycle();
            if now >= end {
                return RunExit::CyclesExhausted;
            }

            let (budget, costep) = self.batch_budget(now, end);
            if budget == 0 {
                self.step();
                continue;
            }

            let exit = if costep {
                // Unit-active batch: the engine co-steps the coprocessor
                // every consumed cycle, including the exit cycle.
                self.core
                    .run_costep(&mut self.platform, &mut self.unit, budget)
            } else {
                self.core
                    .run_until(&mut self.platform, &mut self.unit, budget)
            };
            self.track_episode(exit.event, self.platform.cycle());
            // The exit cycle's unit step: a no-op unless the final cycle
            // entered an interrupt or executed a custom instruction —
            // exactly the cycles where the per-cycle path steps a
            // newly-active unit. A co-stepped batch already took it.
            if !costep && exit.cycles > 0 {
                self.unit.step(&mut self.core.state, &mut self.platform);
            }
        }
    }

    /// Serializes the complete system — core, platform, attached unit,
    /// interrupt bookkeeping, episode records and fault-plan cursor —
    /// into a sealed, self-describing snapshot document.
    ///
    /// The contract: a system rebuilt with
    /// [`from_snapshot`](Self::from_snapshot) continues cycle-for-cycle,
    /// counter-for-counter and trace-for-trace identically to one that
    /// never stopped.
    pub fn snapshot(&self) -> Json {
        snap::seal(self.state_snap())
    }

    /// The unsealed state payload of [`snapshot`](Self::snapshot). The
    /// episode records are one flat `[trigger, entry, mret, cause, ...]`
    /// array. The unit payload is `null` on a preset without a unit.
    pub fn state_snap(&self) -> Json {
        let records = snap::rows_to_json(self.records.iter().map(|r| {
            [
                r.trigger_cycle,
                r.entry_cycle,
                r.mret_cycle,
                u64::from(r.cause),
            ]
        }));
        let triggers: Vec<Json> = self
            .pending_triggers
            .iter()
            .map(|t| match t {
                None => Json::Int(-1),
                Some(c) => Json::UInt(*c),
            })
            .collect();
        let open = match self.open_episode {
            None => Json::Null,
            Some((trigger, entry, cause)) => Json::object()
                .with("trigger", trigger)
                .with("entry", entry)
                .with("cause", cause),
        };
        let unit = match &self.unit {
            UnitBox::None(_) => Json::Null,
            UnitBox::Rtos(u) => u.to_snap(),
            UnitBox::Cv32rt(u) => u.to_snap(),
        };
        Json::object()
            .with("kind", self.kind.name())
            .with("preset", self.preset.tag())
            .with("core", self.core.to_snap())
            .with("platform", self.platform.to_snap())
            .with("unit", unit)
            .with("records", records)
            .with("pending_triggers", triggers)
            .with("open_episode", open)
            .with("ext_schedule", snap::list_to_json(&self.ext_schedule))
            .with(
                "fault_plan",
                self.fault_plan.as_ref().map_or(Json::Null, |p| p.to_snap()),
            )
    }

    /// Rebuilds a system from a sealed snapshot document (the output of
    /// [`snapshot`](Self::snapshot), parsed). Core kind and preset are
    /// read from the payload.
    ///
    /// # Errors
    ///
    /// Fails on a broken envelope, unknown kind/preset tags, or any
    /// malformed state field.
    pub fn from_snapshot(doc: &Json) -> Result<System, SnapError> {
        let state = snap::open(&doc.render())?;
        Self::from_state_snap(&state)
    }

    /// Rebuilds a system from an **unsealed** state payload. The core
    /// kind and preset fix every shape — memories, data cache, unit
    /// features, timer auto-reset — and each component is built once, in
    /// that shape, so a rewind allocates IMEM and DMEM once each and
    /// parses each payload once. The only configuration read from the
    /// document is what an override or instrumentation switch changes:
    /// the unit's list length (checked by
    /// [`RtosUnitConfig::with_list_len`]), the ctxQueue depth, the trace
    /// capacity, whether the profiler is on, and the fault plan.
    ///
    /// # Errors
    ///
    /// Fails on unknown kind/preset tags, malformed state fields, an
    /// external-interrupt schedule that is not latest-first, or state the
    /// preset's machine does not hold (a scheduler, semaphore bank or
    /// preloader its unit lacks).
    pub fn from_state_snap(state: &Json) -> Result<System, SnapError> {
        let kind_name = snap::get_str(state, "kind")?;
        let kind = CoreKind::from_name(kind_name)
            .ok_or_else(|| SnapError::new(format!("system: unknown core kind `{kind_name}`")))?;
        let preset_tag = snap::get_str(state, "preset")?;
        let preset = Preset::from_tag(preset_tag)
            .ok_or_else(|| SnapError::new(format!("system: unknown preset `{preset_tag}`")))?;

        let unit_doc = snap::field(state, "unit")?;
        let unit = match (preset, RtosUnitConfig::from_preset(preset)) {
            (_, Some(cfg)) => {
                let cfg = cfg
                    .with_list_len(snap::get_usize(unit_doc, "list_len")?)
                    .map_err(|e| SnapError::new(format!("unit: {e}")))?;
                UnitBox::Rtos(RtosUnit::from_snap(unit_doc, cfg)?)
            }
            (Preset::Cv32rt, None) => UnitBox::Cv32rt(Cv32rtUnit::from_snap(unit_doc, kind)?),
            (_, None) if matches!(unit_doc, Json::Null) => UnitBox::None(NullCoprocessor),
            (_, None) => return Err(SnapError::new("system: unit state on a preset without one")),
        };

        let records = snap::rows_from_json(snap::field(state, "records")?, "records")?
            .into_iter()
            .map(|[trigger_cycle, entry_cycle, mret_cycle, cause]| {
                Ok(SwitchRecord {
                    trigger_cycle,
                    entry_cycle,
                    mret_cycle,
                    cause: u32::try_from(cause)
                        .map_err(|_| SnapError::new("records: cause exceeds u32 range"))?,
                })
            })
            .collect::<Result<_, SnapError>>()?;
        let triggers_doc = snap::get_array(state, "pending_triggers")?;
        if triggers_doc.len() != 3 {
            return Err(SnapError::new("system: pending_triggers must have 3 slots"));
        }
        let mut pending_triggers = [None; 3];
        for (slot, t) in pending_triggers.iter_mut().zip(triggers_doc) {
            *slot = match t {
                Json::Int(-1) => None,
                v => Some(
                    v.as_u64()
                        .ok_or_else(|| SnapError::new("system: malformed pending-trigger entry"))?,
                ),
            };
        }
        // `step` and `batch_budget` read only the back of the schedule, so
        // an arrival behind a later one would never be raised.
        let ext_schedule: Vec<u64> =
            snap::list_from_json(snap::field(state, "ext_schedule")?, "ext_schedule")?;
        if ext_schedule.windows(2).any(|w| w[0] < w[1]) {
            return Err(SnapError::new(
                "system: ext_schedule is not latest-first (non-increasing)",
            ));
        }
        let open_episode = snap::get_opt(state, "open_episode", |v| {
            Ok((
                snap::get_u64(v, "trigger")?,
                snap::get_u64(v, "entry")?,
                snap::get_u32(v, "cause")?,
            ))
        })?;
        Ok(System {
            core: CoreEngine::from_snap(
                kind.timing(),
                IMEM_BASE,
                IMEM_SIZE,
                snap::field(state, "core")?,
            )?,
            // The auto-reset timer is part of the (T) modification (§4.4).
            platform: Platform::from_snap(
                kind,
                preset.has_sched(),
                snap::field(state, "platform")?,
            )?,
            unit,
            kind,
            preset,
            records,
            pending_triggers,
            open_episode,
            ext_schedule: ext_schedule.into(),
            fault_plan: snap::get_opt(state, "fault_plan", FaultPlan::from_snap)?,
        })
    }

    /// Cycle-by-cycle reference path: semantically identical to
    /// [`run`](Self::run) but calls [`step`](Self::step) once per cycle.
    /// Kept for differential testing and throughput comparisons.
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

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("kind", &self.kind)
            .field("preset", &self.preset.label())
            .field("cycle", &self.platform.cycle())
            .field("records", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{MMIO_HALT, MMIO_MTIMECMP, MMIO_TRACE};
    use rvsim_isa::{Asm, Reg};

    fn simple_isr_program() -> Program {
        // Boot: install ISR, enable timer irq, loop. ISR: re-arm timer,
        // count in a0, mret; after 3 ISRs, halt.
        let mut a = Asm::new(IMEM_BASE);
        a.la(Reg::T0, "isr");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MTIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.li(Reg::T1, 3);
        a.bge(Reg::A0, Reg::T1, "done");
        a.j("spin");
        a.label("done");
        a.li(Reg::T2, MMIO_HALT as i32);
        a.sw(Reg::Zero, 0, Reg::T2);
        a.j("done");
        a.label("isr");
        // Re-arm mtimecmp = mtime + 1000.
        a.li(Reg::T0, crate::layout::MMIO_MTIME as i32);
        a.lw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::T1, Reg::T1, 1000);
        a.li(Reg::T0, MMIO_MTIMECMP as i32);
        a.sw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.mret();
        a.finish().expect("assemble")
    }

    #[test]
    fn timer_interrupts_are_recorded() {
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        sys.set_timer_period(500);
        sys.load_program(&simple_isr_program());
        assert_eq!(sys.run(50_000), RunExit::Halted);
        assert_eq!(sys.records().len(), 3);
        for r in sys.records() {
            assert_eq!(r.cause, csr::CAUSE_TIMER);
            assert!(
                r.latency() > 0 && r.latency() < 200,
                "latency {}",
                r.latency()
            );
        }
        // A deterministic core and identical episodes: zero jitter.
        let stats = sys.latency_stats().expect("records");
        assert_eq!(stats.count, 3);
    }

    #[test]
    fn trace_marks_capture_cycles() {
        let mut a = Asm::new(IMEM_BASE);
        a.li(Reg::T0, MMIO_TRACE as i32);
        a.li(Reg::T1, 11);
        a.sw(Reg::T1, 0, Reg::T0);
        a.ebreak();
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        sys.load_program(&a.finish().expect("assemble"));
        sys.run(1000);
        assert_eq!(sys.platform.mmio.trace_marks.len(), 1);
        assert_eq!(sys.platform.mmio.trace_marks[0].code, 11);
    }

    #[test]
    fn external_irq_schedule_fires() {
        let mut a = Asm::new(IMEM_BASE);
        a.la(Reg::T0, "isr");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MEIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.j("spin");
        a.label("isr");
        a.li(Reg::T0, MMIO_HALT as i32);
        a.sw(Reg::Zero, 0, Reg::T0);
        a.mret();
        let program = a.finish().expect("assemble");
        let boot = |arrivals: &[u64]| {
            let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
            sys.load_program(&program);
            for &at in arrivals {
                sys.schedule_external_irq(at);
            }
            sys
        };
        // Out of order, with a duplicate: kept latest first, so the next
        // arrival pops off the back.
        let mut sys = boot(&[900, 300, 2_000, 600, 300]);
        assert_eq!(sys.ext_schedule, [2_000, 900, 600, 300, 300]);
        assert_eq!(sys.run(5000), RunExit::Halted);
        // The trigger cycle must match the earliest scheduled assertion,
        // and both arrivals due then have fired.
        assert!(sys.platform.cycle() >= 300 && sys.platform.cycle() < 600);
        assert_eq!(sys.ext_schedule, [2_000, 900, 600]);

        // Ascending, as arrival generators emit them (each one lands at
        // the front), with a duplicate: the same order and the same run.
        let mut sys = boot(&[300, 300, 600, 900, 2_000]);
        assert_eq!(sys.ext_schedule, [2_000, 900, 600, 300, 300]);
        assert_eq!(sys.run(5000), RunExit::Halted);
        assert!(sys.platform.cycle() >= 300 && sys.platform.cycle() < 600);
        assert_eq!(sys.ext_schedule, [2_000, 900, 600]);
    }

    fn isr_program_with_stack() -> Program {
        // `simple_isr_program` plus a stack pointer inside DMEM, so the
        // CV32RT hardware drain has a valid frame to write into.
        let mut a = Asm::new(IMEM_BASE);
        a.li(
            Reg::Sp,
            (crate::layout::DMEM_BASE + crate::layout::DMEM_SIZE / 2) as i32,
        );
        a.la(Reg::T0, "isr");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MTIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.li(Reg::T1, 3);
        a.bge(Reg::A0, Reg::T1, "done");
        a.j("spin");
        a.label("done");
        a.li(Reg::T2, MMIO_HALT as i32);
        a.sw(Reg::Zero, 0, Reg::T2);
        a.j("done");
        a.label("isr");
        a.li(Reg::T0, crate::layout::MMIO_MTIME as i32);
        a.lw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::T1, Reg::T1, 1000);
        a.li(Reg::T0, MMIO_MTIMECMP as i32);
        a.sw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.mret();
        a.finish().expect("assemble")
    }

    #[test]
    fn snapshot_roundtrip_mid_isr_workload() {
        for preset in [Preset::Vanilla, Preset::Slt, Preset::Cv32rt] {
            // Cv32rt has no software restore in this tiny ISR; it still
            // exercises the snapshot of a drained unit.
            let build = || {
                let mut s = System::new(CoreKind::Cva6, preset);
                s.set_timer_period(500);
                s.enable_tracing(64);
                s.load_program(&isr_program_with_stack());
                s.schedule_external_irq(100_000); // stays pending state
                s
            };
            let mut a = build();
            a.run(1_200); // past the first ISR entry
            let doc = a.snapshot();
            assert_eq!(
                doc.render(),
                a.snapshot().render(),
                "snapshot must be digest-stable ({preset:?})"
            );
            let mut b = System::from_snapshot(&doc).expect("restore");
            assert_eq!(a.run(50_000), b.run(50_000), "{preset:?}");
            assert_eq!(a.platform.cycle(), b.platform.cycle(), "{preset:?}");
            assert_eq!(a.records(), b.records(), "{preset:?}");
            assert_eq!(
                a.state_snap().render(),
                b.state_snap().render(),
                "continuations must stay bit-identical ({preset:?})"
            );
        }
    }

    #[test]
    fn snapshot_restore_rejects_wrong_identity() {
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        sys.load_program(&simple_isr_program());
        sys.run(200);
        let state = sys.state_snap().render();
        // Relabelled identities meet state their machine does not hold:
        // CVA6 has a data cache the document lacks, SLT a unit.
        for (from, to) in [("\"CV32E40P\"", "\"CVA6\""), ("\"vanilla\"", "\"slt\"")] {
            let relabelled = Json::parse(&state.replacen(from, to, 1)).expect("parses");
            assert!(
                System::from_state_snap(&relabelled).is_err(),
                "{to} accepted"
            );
        }

        // A corrupted sealed document must fail the digest check.
        let doc = sys.snapshot();
        let text = doc
            .render()
            .replace("\"halted\": false", "\"halted\": true");
        assert_ne!(text, doc.render(), "tamper target present");
        assert!(rvsim_snapshot::open(&text).is_err(), "tamper detected");
    }

    #[test]
    fn preset_selects_unit_kind() {
        let v = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        assert!(v.rtos_unit().is_none() && v.cv32rt_unit().is_none());
        let r = System::new(CoreKind::Cv32e40p, Preset::Slt);
        assert!(r.rtos_unit().is_some());
        let c = System::new(CoreKind::Cva6, Preset::Cv32rt);
        assert!(c.cv32rt_unit().is_some());
        // Auto-reset timer only with hardware scheduling.
        assert!(r.platform.mmio.auto_timer_reset);
        assert!(!v.platform.mmio.auto_timer_reset);
    }
}
