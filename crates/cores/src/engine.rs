//! The cycle-stepped core engine.
//!
//! One [`CoreEngine::step`] call advances the core by exactly one cycle.
//! Instructions take effect at issue (through the one executor,
//! `CoreEngine::issue`) and then occupy the pipeline for their modelled
//! latency; interrupts are taken at instruction boundaries; `mret` and
//! `SWITCH_RF` honour coprocessor stalls (paper §4.2/§4.3). The engine
//! owns the instruction memory (separate fetch port — the data port
//! belongs to the [`DataBus`]).

use crate::blockcache::{BlockCache, BlockOutcome};
use crate::coproc::Coprocessor;
use crate::counters::CoreCounters;
use crate::profile::PcProfile;
use crate::state::ArchState;
use crate::timing::TimingParams;
use rvsim_isa::uop::lower;
use rvsim_isa::{decode, disassemble, Instr, Program, Reg, Uop};
use rvsim_mem::{AccessSize, Mem};
use rvsim_snapshot::{self as snap, Json, SnapError};

/// Response of the data bus to a core access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusResponse {
    /// Loaded data (zero for stores).
    pub data: u32,
    /// Extra cycles beyond the instruction's base latency.
    pub extra_latency: u32,
}

/// The core-facing memory interface, implemented by the platform
/// (`rtosunit::Platform`). It owns RAM, caches, MMIO and the shared-port
/// arbitration of paper §4.2.
pub trait DataBus {
    /// Performs a core access (`write = Some(value)` for stores) with core
    /// priority, returning data and extra latency.
    fn core_access(&mut self, addr: u32, size: AccessSize, write: Option<u32>) -> BusResponse;

    /// Attempts a word-sized RTOSUnit access using an idle port cycle.
    /// Returns `None` when the port is not available this cycle, otherwise
    /// the loaded data (zero for stores).
    fn unit_access(&mut self, addr: u32, write: Option<u32>) -> Option<u32>;

    /// Word access over a *dedicated* second memory port (used by the
    /// CV32RT comparison design; always granted, bypasses any cache).
    ///
    /// # Panics
    ///
    /// The default implementation panics: buses without a dedicated port
    /// must not receive such accesses.
    fn dedicated_access(&mut self, addr: u32, write: Option<u32>) -> u32 {
        let _ = write;
        panic!("this data bus has no dedicated port (access to {addr:#010x})")
    }

    /// Invalidates the cache line containing `addr`, if a cache exists
    /// (needed after dedicated-port writes bypass it). Default: no-op.
    fn invalidate_line(&mut self, addr: u32) {
        let _ = addr;
    }

    /// Number of unit accesses still in flight in the LSU's ctxQueue
    /// (paper §5.3). Zero on buses without such a queue; the RTOSUnit
    /// holds `SWITCH_RF`/`mret` until issued work has drained.
    fn unit_pending(&self) -> u32 {
        0
    }

    /// Advances the bus-side clock by `cycles` at once — the bulk
    /// equivalent of that many per-cycle housekeeping steps with no port
    /// activity in between. [`CoreEngine::run_until`] calls this before
    /// simulating each stretch of cycles so timers, busy counters and
    /// occupancy statistics stay cycle-exact without a call per cycle.
    /// Default: no-op (timer-less test buses).
    fn advance_cycles(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// Returns and clears the bus attention flag: set when a bus-side
    /// write may have changed interrupt or halt state (e.g. an MMIO store
    /// to a timer comparator), invalidating any precomputed quiescence
    /// horizon. [`CoreEngine::run_until`] polls it after every issue cycle
    /// and stops the batch when raised. Default: never raised.
    fn take_attention(&mut self) -> bool {
        false
    }
}

/// Externally visible per-cycle events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// An interrupt was taken; the core is entering the ISR.
    InterruptEntered {
        /// The `mcause` value.
        cause: u32,
    },
    /// A synchronous exception (misaligned fetch/load/store) trapped; the
    /// core is entering the handler. The faulting instruction did not
    /// retire. Unlike interrupt entry, the coprocessor is *not* notified:
    /// exceptions stay on the application register bank (kernel guests
    /// never fault; this path exists for the differential harness).
    ExceptionEntered {
        /// The `mcause` value (high bit clear).
        cause: u32,
    },
    /// `mret` finished executing (the paper's latency end-point).
    MretRetired,
    /// The guest executed `ebreak`/`ecall` — simulation stops.
    Halted,
}

/// Why [`CoreEngine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A [`CoreEvent`] fired on the final cycle.
    Event,
    /// The bus raised its attention flag on the final cycle.
    Attention,
    /// The cycle budget ran out (or the core was already halted).
    Budget,
}

/// Result of one [`CoreEngine::run_until`] batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchExit {
    /// Cycles consumed by the batch.
    pub cycles: u64,
    /// Event raised on the final cycle, if any.
    pub event: Option<CoreEvent>,
    /// Why the batch ended.
    pub reason: StopReason,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Completing {
    Plain,
    Mret,
}

/// Folded block-translation statistics for a PC range (see
/// [`CoreEngine::block_stats_in`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Translations whose entry PC lies in the range (first builds plus
    /// retranslations after invalidation).
    pub builds: u64,
    /// Block dispatches entered in the range.
    pub execs: u64,
    /// Distinct entry PCs translated in the range; `builds - entries` is
    /// the number of retranslations forced by invalidation.
    pub entries: u64,
}

impl BlockStats {
    /// Fraction of dispatches served without a (re)translation, in
    /// [0, 1]. Zero when the range was never dispatched.
    pub fn hit_rate(&self) -> f64 {
        if self.execs == 0 {
            0.0
        } else {
            (self.execs - self.builds.min(self.execs)) as f64 / self.execs as f64
        }
    }

    /// Translations beyond the first per entry PC — each one paid for an
    /// invalidation (imem write, fault-injected flip or `fence.i`).
    pub fn retranslations(&self) -> u64 {
        self.builds.saturating_sub(self.entries)
    }
}

/// Two-bit branch-predictor counters per engine, indexed by PC.
const PREDICTOR_ENTRIES: usize = 256;

/// A cycle-stepped RV32IM_Zicsr core. Construct via
/// [`make_engine`](crate::models::make_engine) or [`CoreEngine::new`].
pub struct CoreEngine {
    /// Timing parameters of the modelled microarchitecture.
    pub params: TimingParams,
    /// Architectural state (register banks, CSRs, PC).
    pub state: ArchState,
    pub(crate) imem: Mem,
    /// Per-word micro-op cache of the interpreter, indexed from the IMEM
    /// base. It starts empty and grows to the highest word fetched, so it
    /// spans executed code, not the whole instruction memory.
    pub(crate) decoded: Vec<Option<Uop>>,
    pub(crate) busy: u32,
    completing: Completing,
    pub(crate) wfi_wait: bool,
    pub(crate) halted: bool,
    pub(crate) cycle: u64,
    pub(crate) retired: u64,
    predictor: Vec<u8>,
    pub(crate) counters: CoreCounters,
    profiler: Option<Box<PcProfile>>,
    pub(crate) wfi_pc: u32,
    /// Basic-block translation cache, built on the first batched dispatch
    /// (see [`crate::blockcache`]).
    pub(crate) blocks: Option<Box<BlockCache>>,
}

impl std::fmt::Debug for CoreEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreEngine")
            .field("core", &self.params.name)
            .field("cycle", &self.cycle)
            .field("pc", &format_args!("{:#010x}", self.state.pc))
            .field("retired", &self.retired)
            .field("halted", &self.halted)
            .finish()
    }
}

impl CoreEngine {
    /// Creates an engine with an instruction memory at `imem_base` of
    /// `imem_size` bytes. The PC starts at `imem_base`.
    pub fn new(params: TimingParams, imem_base: u32, imem_size: u32) -> CoreEngine {
        CoreEngine {
            params,
            state: ArchState::new(imem_base),
            imem: Mem::new(imem_base, imem_size),
            decoded: Vec::new(),
            busy: 0,
            completing: Completing::Plain,
            wfi_wait: false,
            halted: false,
            cycle: 0,
            retired: 0,
            predictor: vec![1; PREDICTOR_ENTRIES],
            counters: CoreCounters::default(),
            profiler: None,
            wfi_pc: 0,
            blocks: None,
        }
    }

    /// Loads an assembled program into instruction memory and resets the
    /// PC to its entry point (`program.base`).
    pub fn load_program(&mut self, program: &Program) {
        self.imem.load_words(program.base, &program.words);
        self.decoded.clear();
        self.blocks = None;
        self.state.pc = program.base;
    }

    /// Drops the cached decode of the instruction word containing `addr`.
    /// Callers that rewrite a single IMEM word (loaders, test harnesses,
    /// self-modifying guests) must invalidate it here instead of paying a
    /// full [`load_program`](Self::load_program)-style flush.
    pub fn invalidate_decoded(&mut self, addr: u32) {
        if !self.imem.contains(addr) {
            return;
        }
        let idx = ((addr - self.imem.base()) / 4) as usize;
        if let Some(slot) = self.decoded.get_mut(idx) {
            *slot = None;
        }
        if let Some(cache) = &mut self.blocks {
            cache.invalidate_word(addr);
        }
    }

    /// Rewrites one instruction-memory word and invalidates its cached
    /// decode, keeping fetch coherent with the new bytes.
    pub fn write_imem_word(&mut self, addr: u32, word: u32) {
        self.imem.write_word(addr, word);
        self.invalidate_decoded(addr);
    }

    /// Reads one instruction-memory word, or `None` outside IMEM. Fault
    /// injectors pair this with [`write_imem_word`](Self::write_imem_word)
    /// to flip bits without bypassing decode/block invalidation.
    pub fn imem_word(&self, addr: u32) -> Option<u32> {
        self.imem.contains(addr).then(|| self.imem.read_word(addr))
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether the guest halted (`ebreak`/`ecall`).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the core is parked in `wfi`.
    pub fn waiting_for_interrupt(&self) -> bool {
        self.wfi_wait
    }

    /// Snapshot of the activity counters. Stall cycles are attributed at
    /// issue time, so the snapshot is identical whether the engine ran
    /// per-cycle or through batched [`run_until`](Self::run_until), in
    /// every field but [`CoreCounters::HOST_STATS`].
    pub fn counters(&self) -> CoreCounters {
        self.counters
    }

    /// Block-translation statistics for blocks *entered* at a PC in
    /// `[start, end]` (inclusive), including translations since killed by
    /// invalidation. All zeros until the first batched dispatch builds
    /// the cache (and again after a program load or snapshot restore).
    pub fn block_stats_in(&self, start: u32, end: u32) -> BlockStats {
        self.blocks
            .as_ref()
            .map_or_else(BlockStats::default, |c| c.stats_in(start, end))
    }

    /// Turns the guest PC profiler on (fresh bins over the instruction
    /// memory) or off. Profiling only *counts* — timing, architectural
    /// state and events are unchanged, and because cycles are attributed
    /// at issue time (like the activity counters) the profile is
    /// bit-identical between per-cycle and batched execution.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler = on.then(|| {
            Box::new(PcProfile::new(
                self.imem.base(),
                self.imem.end() - self.imem.base(),
            ))
        });
    }

    /// The accumulated profile, if profiling is on.
    pub fn profile(&self) -> Option<&PcProfile> {
        self.profiler.as_deref()
    }

    /// Takes the accumulated profile, turning profiling off.
    pub fn take_profile(&mut self) -> Option<PcProfile> {
        self.profiler.take().map(|p| *p)
    }

    /// Folds a profile into ranked basic blocks using this engine's own
    /// instruction decoder (see [`PcProfile::hot_blocks`]).
    pub fn hot_blocks(&self, profile: &PcProfile) -> Vec<crate::profile::HotBlock> {
        profile.hot_blocks(|pc| self.instr_at(pc))
    }

    /// Renders a profile as folded-stack lines under `root` (see
    /// [`PcProfile::folded`]).
    pub fn folded_profile(&self, profile: &PcProfile, root: &str) -> String {
        profile.folded(root, |pc| self.instr_at(pc))
    }

    /// The instruction in IMEM at `pc`, decoded afresh (debug and
    /// profile views; execution goes through the micro-op cache).
    fn instr_at(&self, pc: u32) -> Option<Instr> {
        self.imem_word(pc).and_then(|word| decode(word).ok())
    }

    #[inline]
    pub(crate) fn attribute(&mut self, pc: u32, cycles: u64) {
        if let Some(p) = &mut self.profiler {
            p.add(pc, cycles);
        }
    }

    /// The interpreter's fetch through the per-word micro-op cache,
    /// counting hits and misses. Block dispatch never comes here, so the
    /// two counters describe interpreted fetches only. The hit path
    /// inlines into the per-cycle driver; a miss decodes out of line.
    #[inline]
    fn fetch(&mut self, pc: u32) -> Uop {
        let idx = ((pc - self.imem.base()) / 4) as usize;
        if let Some(Some(u)) = self.decoded.get(idx) {
            self.counters.decode_hits += 1;
            return *u;
        }
        self.fetch_miss(pc, idx)
    }

    /// A micro-op cache miss at `pc`, IMEM word `idx`: decode, count and
    /// remember it.
    #[inline(never)]
    fn fetch_miss(&mut self, pc: u32, idx: usize) -> Uop {
        self.counters.decode_misses += 1;
        let word = self.imem.read_word(pc);
        let instr =
            decode(word).unwrap_or_else(|e| panic!("{e} at pc {pc:#010x} (word {word:#010x})"));
        self.remember_decoded(idx, lower(&instr, pc))
    }

    /// Caches the micro-op of IMEM word `idx`, growing the table to it.
    fn remember_decoded(&mut self, idx: usize, uop: Uop) -> Uop {
        if idx >= self.decoded.len() {
            self.decoded.resize(idx + 1, None);
        }
        self.decoded[idx] = Some(uop);
        uop
    }

    /// The micro-op at `pc` through the cache, without counting a fetch;
    /// `None` outside IMEM or for an undecodable word.
    fn peek(&mut self, pc: u32) -> Option<Uop> {
        if !self.imem.contains(pc) {
            return None;
        }
        let idx = ((pc - self.imem.base()) / 4) as usize;
        if let Some(Some(u)) = self.decoded.get(idx) {
            return Some(*u);
        }
        let instr = decode(self.imem.read_word(pc)).ok()?;
        Some(self.remember_decoded(idx, lower(&instr, pc)))
    }

    /// The dual-issue pairing rule, shared by the interpreter and the
    /// block builder: the op after `first` issues in the same cycle when
    /// both are simple ALU ops and it reads no register `first` writes.
    /// `next` yields that op (`None` when it does not decode) and is
    /// called only when `first` could lead a pair.
    pub(crate) fn pairs(first: &Uop, next: impl FnOnce() -> Option<Uop>) -> bool {
        let rd = match *first {
            Uop::AluRR { rd, .. } | Uop::AluRI { rd, .. } | Uop::MovImm { rd, .. } => rd,
            _ => return false,
        };
        let reads_rd = |r: Reg| rd != Reg::Zero && r == rd;
        next().is_some_and(|second| match second {
            Uop::AluRR { rs1, rs2, .. } => !reads_rd(rs1) && !reads_rd(rs2),
            Uop::AluRI { rs1, .. } => !reads_rd(rs1),
            Uop::MovImm { .. } => true,
            _ => false,
        })
    }

    /// Whether the coprocessor holds `uop` at issue this cycle: a custom
    /// instruction or `mret` it refuses while its FSMs are busy.
    #[inline]
    fn coproc_stalls<C: Coprocessor>(uop: &Uop, coproc: &C) -> bool {
        match *uop {
            Uop::Custom { op, .. } => coproc.custom_stall(op),
            Uop::Mret => coproc.mret_stall(),
            _ => false,
        }
    }

    /// The cause of the interrupt the core takes at its next instruction
    /// boundary, if any: pending, enabled in `mie`, and globally enabled.
    #[inline]
    pub(crate) fn takeable_interrupt(&self) -> Option<u32> {
        let csrs = &self.state.csrs;
        csrs.mie_enabled()
            .then(|| csrs.pending_interrupt())
            .flatten()
    }

    #[inline]
    pub(crate) fn predict_taken(&mut self, pc: u32, actual: bool) -> bool {
        let idx = ((pc >> 2) as usize) % self.predictor.len();
        let counter = &mut self.predictor[idx];
        let predicted = *counter >= 2;
        if actual {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        predicted
    }

    /// Advances the core by one cycle and returns the event it raised, if
    /// any.
    ///
    /// The platform must have refreshed `state.csrs.mip` before calling
    /// this, and should step the coprocessor *after* it (the RTOSUnit uses
    /// the data-port cycles the core left idle).
    pub fn step<B: DataBus, C: Coprocessor>(
        &mut self,
        bus: &mut B,
        coproc: &mut C,
    ) -> Option<CoreEvent> {
        self.cycle += 1;
        if self.halted {
            return None;
        }

        // Drain an in-flight multi-cycle instruction.
        if self.busy > 0 {
            self.busy -= 1;
            if self.busy == 0 && self.completing == Completing::Mret {
                self.completing = Completing::Plain;
                coproc.on_mret(&mut self.state);
                return Some(CoreEvent::MretRetired);
            }
            return None;
        }

        // Wake from wfi as soon as an interrupt is pending (even if
        // globally masked, per the RISC-V spec).
        if self.wfi_wait {
            if self.state.csrs.mip & self.state.csrs.mie != 0 {
                self.wfi_wait = false;
            } else {
                self.counters.wfi_cycles += 1;
                let pc = self.wfi_pc;
                self.attribute(pc, 1);
                return None;
            }
        }

        // Take a pending interrupt at the instruction boundary.
        if let Some(cause) = self.takeable_interrupt() {
            self.busy = self.enter_handler(self.state.pc, cause);
            coproc.on_interrupt_entry(&mut self.state, cause);
            return Some(CoreEvent::InterruptEntered { cause });
        }

        // Issue one instruction (two when the superscalar model pairs
        // independent simple ALU operations).
        let mut paired = false;
        loop {
            let pc = self.state.pc;

            // Instruction-address-misaligned exception: trap instead of
            // fetching. Nothing retires; the entry cost matches interrupt
            // entry (same pipeline flush).
            if pc & 3 != 0 {
                let cause = rvsim_isa::csr::CAUSE_MISALIGNED_FETCH;
                self.busy = self.enter_handler(pc, cause);
                return Some(CoreEvent::ExceptionEntered { cause });
            }

            let uop = self.fetch(pc);
            if Self::coproc_stalls(&uop, coproc) {
                self.counters.stall_coproc += 1;
                self.attribute(pc, 1);
                return None;
            }

            // Superscalar pairing: one extra independent simple ALU
            // instruction may retire in the same cycle.
            let leads_pair = self.params.dual_issue
                && !paired
                && Self::pairs(&uop, || self.peek(pc.wrapping_add(4)));
            let issued = self.issue(uop, pc, leads_pair, bus, coproc, &mut 0);
            if leads_pair {
                paired = true;
                continue;
            }
            self.busy = issued.drain;
            match uop {
                Uop::Halt => return Some(CoreEvent::Halted),
                Uop::Mret if issued.drain == 0 => {
                    coproc.on_mret(&mut self.state);
                    return Some(CoreEvent::MretRetired);
                }
                Uop::Mret => self.completing = Completing::Mret,
                _ => {}
            }
            return issued.trap;
        }
    }

    /// Runs until the guest halts or `max_cycles` elapse. Returns the
    /// number of cycles executed.
    pub fn run_with<B: DataBus, C: Coprocessor>(
        &mut self,
        bus: &mut B,
        coproc: &mut C,
        max_cycles: u64,
    ) -> u64 {
        let start = self.cycle;
        while !self.halted && self.cycle - start < max_cycles {
            self.step(bus, coproc);
        }
        self.cycle - start
    }

    /// Runs a batch of up to `max_cycles` cycles without a per-cycle call
    /// from the platform.
    ///
    /// The caller guarantees that no timer, software or external
    /// interrupt edge lands inside the budget (guest stores that could
    /// move one are caught via [`DataBus::take_attention`]). Under that
    /// contract this is cycle-exact with calling [`step`](Self::step) in
    /// a loop, each call followed by the coprocessor's
    /// [`step`](Coprocessor::step) while [`Coprocessor::is_idle`] is
    /// false: every consumed cycle, the last one included, has taken that
    /// step, so the caller never steps the coprocessor for a batch.
    ///
    /// Each dispatch picks its path from `is_idle`. While the coprocessor
    /// is idle, straight-line code runs as translated blocks (see
    /// [`crate::blockcache`]) and multi-cycle stalls and `wfi` stretches
    /// burn through in bulk via [`DataBus::advance_cycles`]; while it has
    /// work, blocks replay each cycle with it co-stepped. Stops at the
    /// first of: a [`CoreEvent`], the bus raising attention, or the
    /// budget running out.
    pub fn run_until<B: DataBus, C: Coprocessor>(
        &mut self,
        bus: &mut B,
        coproc: &mut C,
        max_cycles: u64,
    ) -> BatchExit {
        let start = self.cycle;
        let end = start + max_cycles;
        loop {
            if self.halted || self.cycle >= end {
                return BatchExit {
                    cycles: self.cycle - start,
                    event: None,
                    reason: StopReason::Budget,
                };
            }
            let remaining = end - self.cycle;
            let idle = coproc.is_idle();

            // Bulk skips, only while the coprocessor needs no per-cycle
            // step. A multi-cycle instruction drains at once; the cycle
            // where `busy` reaches zero may complete an `mret`, exactly as
            // in `step`, and the coprocessor steps on it if that handed it
            // work.
            if idle && self.busy > 0 {
                let skip = u64::from(self.busy).min(remaining);
                bus.advance_cycles(skip);
                self.cycle += skip;
                self.busy -= skip as u32;
                if self.busy == 0 && self.completing == Completing::Mret {
                    self.completing = Completing::Plain;
                    coproc.on_mret(&mut self.state);
                    if !coproc.is_idle() {
                        coproc.step(&mut self.state, bus);
                    }
                    return BatchExit {
                        cycles: self.cycle - start,
                        event: Some(CoreEvent::MretRetired),
                        reason: StopReason::Event,
                    };
                }
                continue;
            }
            // `wfi` park: `mip` is constant for the whole batch, so with no
            // pending-and-enabled interrupt the core sleeps out the budget.
            if idle && self.wfi_wait && self.state.csrs.mip & self.state.csrs.mie == 0 {
                bus.advance_cycles(remaining);
                self.cycle += remaining;
                self.counters.wfi_cycles += remaining;
                let pc = self.wfi_pc;
                self.attribute(pc, remaining);
                continue;
            }

            // Translated-block fast path: when the core can issue
            // straight-line code (no drain, no park, no takeable interrupt
            // — `mip` is constant for the whole batch), execute whole
            // pre-decoded blocks per dispatch, co-stepping a coprocessor
            // that has work.
            let mut ran = None;
            if self.busy == 0 && !self.wfi_wait && self.takeable_interrupt().is_none() {
                let outcome = if idle {
                    self.try_blocks::<false, B, C>(bus, coproc, remaining)
                } else {
                    self.try_blocks::<true, B, C>(bus, coproc, remaining)
                };
                match outcome {
                    BlockOutcome::Ran { event, attention } => ran = Some((event, attention)),
                    BlockOutcome::NotEngaged if !idle => {
                        self.skip_coproc_stall(bus, coproc, end);
                        if self.cycle >= end {
                            continue;
                        }
                    }
                    BlockOutcome::NotEngaged => {}
                }
            }

            let (event, attention) = match ran {
                Some(ran) => ran,
                None => {
                    // One cycle in stepwise order: bus clock, core, and
                    // the coprocessor while it has work (stepping an idle
                    // one changes nothing).
                    bus.advance_cycles(1);
                    let event = self.step(bus, coproc);
                    if !coproc.is_idle() {
                        coproc.step(&mut self.state, bus);
                    }
                    (event, bus.take_attention())
                }
            };
            let reason = match event {
                Some(_) => StopReason::Event,
                None if attention => StopReason::Attention,
                None => continue,
            };
            return BatchExit {
                cycles: self.cycle - start,
                event,
                reason,
            };
        }
    }

    /// Coprocessor-stall fast-forward for co-stepped dispatch, up to cycle
    /// `end`: a custom instruction or `mret` the coprocessor refuses pins
    /// the core at `pc`, and the interpreter burns one stall cycle per
    /// full step call. Replay those cycles in a tight loop — stall
    /// counter, attribution and the coprocessor's step per cycle, exactly
    /// as `step` takes them — without the per-cycle gate checks and
    /// block lookups. Quiescence plus "nothing retires while stalled"
    /// keep every gate input constant, so the caller checking the gates
    /// once is exact. (The stall state itself lives in the coprocessor
    /// and only moves in its `step`, so it is re-checked every cycle.)
    fn skip_coproc_stall<B: DataBus, C: Coprocessor>(
        &mut self,
        bus: &mut B,
        coproc: &mut C,
        end: u64,
    ) {
        let pc = self.state.pc;
        if pc & 3 != 0 {
            return;
        }
        let Some(uop) = self.peek(pc) else {
            return;
        };
        while self.cycle < end && Self::coproc_stalls(&uop, coproc) {
            bus.advance_cycles(1);
            self.cycle += 1;
            self.counters.stall_coproc += 1;
            self.attribute(pc, 1);
            coproc.step(&mut self.state, bus);
        }
    }

    /// Disassembles the instruction at `pc` (debug aid).
    pub fn disassemble_at(&self, pc: u32) -> Option<String> {
        self.instr_at(pc).map(|i| disassemble(&i, pc))
    }

    /// Serializes the complete engine state for a machine-state
    /// snapshot: architectural state, instruction memory, pipeline
    /// timing state (`busy`/`completing`/`wfi`), cycle and retire
    /// counts, the branch predictor, activity counters, and the optional
    /// profiler.
    ///
    /// The per-word micro-op cache and the block translation cache are
    /// host bookkeeping, not machine state: their contents depend on
    /// which execution path ran and where a run was split into batches,
    /// so both are left out together with their counters (see
    /// [`CoreCounters::HOST_STATS`]). So are the core model and the IMEM
    /// geometry, which the restoring caller fixes.
    pub fn to_snap(&self) -> Json {
        let predictor: Vec<u32> = self.predictor.iter().map(|&v| u32::from(v)).collect();
        Json::object()
            .with("state", self.state.to_snap())
            .with("imem", self.imem.to_snap())
            .with("busy", self.busy)
            .with(
                "completing",
                match self.completing {
                    Completing::Plain => "plain",
                    Completing::Mret => "mret",
                },
            )
            .with("wfi_wait", self.wfi_wait)
            .with("wfi_pc", self.wfi_pc)
            .with("halted", self.halted)
            .with("cycle", self.cycle)
            .with("retired", self.retired)
            .with("predictor", snap::runs_to_json(&predictor))
            .with("counters", self.counters.to_snap())
            .with(
                "profile",
                self.profiler.as_ref().map_or(Json::Null, |p| p.to_snap()),
            )
    }

    /// Builds an engine of the core model `params` describes, with an
    /// instruction memory at `imem_base` of `imem_size` bytes, from
    /// [`to_snap`](Self::to_snap) output. Everything else — including
    /// whether the profiler is attached — is taken from the snapshot.
    /// IMEM is allocated once, at the caller's size.
    ///
    /// Both host caches start cold, and their counters at zero, so a
    /// restored engine is cycle-for-cycle and counter-for-counter
    /// identical to one that never stopped in every field but
    /// [`CoreCounters::HOST_STATS`].
    ///
    /// # Errors
    ///
    /// Fails on malformed fields, contents of another IMEM size, or a
    /// predictor counter above 3.
    pub fn from_snap(
        params: TimingParams,
        imem_base: u32,
        imem_size: u32,
        value: &Json,
    ) -> Result<CoreEngine, SnapError> {
        let imem = Mem::from_snap(snap::field(value, "imem")?, imem_base, imem_size)?;
        let state = ArchState::from_snap(snap::field(value, "state")?)?;
        let busy = snap::get_u32(value, "busy")?;
        let completing = match snap::get_str(value, "completing")? {
            "plain" => Completing::Plain,
            "mret" => Completing::Mret,
            other => {
                return Err(SnapError::new(format!(
                    "engine: unknown completing state `{other}`"
                )))
            }
        };
        let wfi_wait = snap::get_bool(value, "wfi_wait")?;
        let wfi_pc = snap::get_u32(value, "wfi_pc")?;
        let halted = snap::get_bool(value, "halted")?;
        let cycle = snap::get_u64(value, "cycle")?;
        let retired = snap::get_u64(value, "retired")?;
        let predictor_words =
            snap::runs_from_json::<u32>(snap::field(value, "predictor")?, PREDICTOR_ENTRIES)?;
        let mut predictor = Vec::with_capacity(predictor_words.len());
        for w in predictor_words {
            if w > 3 {
                return Err(SnapError::new(format!(
                    "engine: predictor counter {w} out of range"
                )));
            }
            predictor.push(w as u8);
        }
        let profiler = snap::get_opt(value, "profile", |v| {
            PcProfile::from_snap(v, imem_base, imem_size).map(Box::new)
        })?;
        let counters = CoreCounters::from_snap(snap::field(value, "counters")?)?;
        Ok(CoreEngine {
            params,
            state,
            imem,
            decoded: Vec::new(),
            busy,
            completing,
            wfi_wait,
            halted,
            cycle,
            retired,
            predictor,
            counters,
            profiler,
            wfi_pc,
            blocks: None,
        })
    }
}

/// A cache-less test bus: flat SRAM with one extra cycle per load (enough
/// to exercise multi-cycle drains) and no RTOSUnit port. Engine tests,
/// the kernel list-code differential and the golden-model lockstep
/// harness run engines on it.
pub struct SramBus {
    /// The backing data memory.
    pub mem: Mem,
}

impl SramBus {
    /// A bus over `size` bytes of zeroed SRAM at `base`.
    pub fn new(base: u32, size: u32) -> SramBus {
        SramBus {
            mem: Mem::new(base, size),
        }
    }
}

impl DataBus for SramBus {
    fn core_access(&mut self, addr: u32, size: AccessSize, write: Option<u32>) -> BusResponse {
        match write {
            Some(v) => {
                self.mem.write(addr, size, v);
                BusResponse {
                    data: 0,
                    extra_latency: 0,
                }
            }
            None => BusResponse {
                data: self.mem.read(addr, size),
                extra_latency: 1,
            },
        }
    }

    fn unit_access(&mut self, _addr: u32, _write: Option<u32>) -> Option<u32> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::NullCoprocessor;
    use rvsim_isa::{Asm, Reg};

    fn run_to_halt(asm: Asm) -> (CoreEngine, SramBus) {
        let prog = asm.finish().expect("assembly");
        let mut engine = CoreEngine::new(TimingParams::cv32e40p(), 0x0, 0x1_0000);
        engine.load_program(&prog);
        let mut bus = SramBus::new(0x2000_0000, 0x1_0000);
        let mut co = NullCoprocessor;
        engine.run_with(&mut bus, &mut co, 1_000_000);
        assert!(engine.halted(), "program did not halt");
        (engine, bus)
    }

    #[test]
    fn computes_a_sum_loop() {
        // sum 1..=10 into a0
        let mut a = Asm::new(0);
        a.li(Reg::A0, 0);
        a.li(Reg::T0, 1);
        a.li(Reg::T1, 11);
        a.label("loop");
        a.add(Reg::A0, Reg::A0, Reg::T0);
        a.addi(Reg::T0, Reg::T0, 1);
        a.bne(Reg::T0, Reg::T1, "loop");
        a.ebreak();
        let (engine, _) = run_to_halt(a);
        assert_eq!(engine.state.read_reg(Reg::A0), 55);
    }

    #[test]
    fn memory_roundtrip_through_bus() {
        let mut a = Asm::new(0);
        a.li(Reg::T0, 0x2000_0040u32 as i32);
        a.li(Reg::T1, 0x1234);
        a.sw(Reg::T1, 0, Reg::T0);
        a.lw(Reg::A0, 0, Reg::T0);
        a.lb(Reg::A1, 0, Reg::T0); // 0x34
        a.ebreak();
        let (engine, bus) = run_to_halt(a);
        assert_eq!(engine.state.read_reg(Reg::A0), 0x1234);
        assert_eq!(engine.state.read_reg(Reg::A1), 0x34);
        assert_eq!(bus.mem.read_word(0x2000_0040), 0x1234);
    }

    #[test]
    fn taken_branches_cost_more_on_cv32() {
        // Loop with a taken branch each iteration vs straight-line adds.
        let mut a = Asm::new(0);
        a.li(Reg::T0, 100);
        a.label("l");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "l");
        a.ebreak();
        let (engine, _) = run_to_halt(a);
        // 100 iterations × (1 + (1+2)) plus setup/halt: ≈ 400.
        let c = engine.cycle();
        assert!((380..=430).contains(&c), "unexpected cycle count {c}");
    }

    #[test]
    fn division_takes_div_latency() {
        let mut a = Asm::new(0);
        a.li(Reg::A0, 1000);
        a.li(Reg::A1, 7);
        a.div(Reg::A2, Reg::A0, Reg::A1);
        a.ebreak();
        let (engine, _) = run_to_halt(a);
        assert_eq!(engine.state.read_reg(Reg::A2), 142);
        assert!(engine.cycle() >= 34);
    }

    #[test]
    fn dual_issue_pairs_independent_alu_ops() {
        let mut prog = Asm::new(0);
        for _ in 0..50 {
            prog.addi(Reg::T0, Reg::T0, 1);
            prog.addi(Reg::T1, Reg::T1, 1); // independent of t0
        }
        prog.ebreak();
        let p = prog.finish().unwrap();

        let run = |params: TimingParams| {
            let mut e = CoreEngine::new(params, 0, 0x1_0000);
            e.load_program(&p);
            let mut bus = SramBus::new(0x2000_0000, 0x100);
            let mut co = NullCoprocessor;
            e.run_with(&mut bus, &mut co, 10_000);
            e.cycle()
        };
        let scalar = run(TimingParams::cv32e40p());
        let superscalar = run(TimingParams::naxriscv());
        assert!(
            superscalar * 2 <= scalar + 10,
            "dual issue not effective: {superscalar} vs {scalar}"
        );
    }

    #[test]
    fn dependent_ops_do_not_pair() {
        let mut prog = Asm::new(0);
        for _ in 0..100 {
            prog.addi(Reg::T0, Reg::T0, 1); // serial dependency chain
        }
        prog.ebreak();
        let p = prog.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::naxriscv(), 0, 0x1_0000);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        e.run_with(&mut bus, &mut co, 10_000);
        assert!(
            e.cycle() >= 100,
            "RAW pair incorrectly dual-issued: {}",
            e.cycle()
        );
    }

    #[test]
    fn wfi_parks_until_interrupt() {
        let mut a = Asm::new(0);
        a.li(Reg::T0, rvsim_isa::csr::MIP_MTIP as i32);
        a.csrw(rvsim_isa::csr::MIE, Reg::T0);
        a.wfi();
        a.ebreak();
        let p = a.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        for _ in 0..100 {
            e.step(&mut bus, &mut co);
        }
        assert!(e.waiting_for_interrupt());
        assert!(!e.halted());
        // Raise the timer interrupt: core must wake and halt. MIE is off,
        // so no trap is taken — execution falls through to ebreak.
        e.state.csrs.mip = rvsim_isa::csr::MIP_MTIP;
        for _ in 0..10 {
            e.step(&mut bus, &mut co);
        }
        assert!(e.halted());
    }

    #[test]
    fn stale_decode_cannot_survive_imem_rewrite() {
        // addi a0, a0, 1 ; ebreak — execute once so the micro-op caches.
        let mut a = Asm::new(0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.ebreak();
        let p = a.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        e.run_with(&mut bus, &mut co, 100);
        assert!(e.halted());
        assert_eq!(e.state.read_reg(Reg::A0), 1);

        // Rewrite word 0 to `addi a0, a0, 7` and rerun from pc 0. Without
        // invalidation the stale cached micro-op (`addi a0, a0, 1`) would
        // execute instead of the new bytes.
        let mut b = Asm::new(0);
        b.addi(Reg::A0, Reg::A0, 7);
        let new_word = b.finish().unwrap().words[0];
        e.write_imem_word(0, new_word);
        e.halted = false;
        e.state.pc = 0;
        e.state.write_reg(Reg::A0, 0);
        e.run_with(&mut bus, &mut co, 100);
        assert!(e.halted());
        assert_eq!(
            e.state.read_reg(Reg::A0),
            7,
            "stale cached micro-op survived IMEM rewrite"
        );
    }

    #[test]
    fn invalidate_decoded_ignores_foreign_addresses() {
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0x1000, 0x100);
        // Outside IMEM: must be a no-op, not a panic or bogus index.
        e.invalidate_decoded(0x2000_0000);
        e.invalidate_decoded(0);
        // Inside IMEM but past the decoded words: a no-op as well.
        e.invalidate_decoded(0x10fc);
        assert!(e.decoded.is_empty());
    }

    #[test]
    fn decode_table_spans_executed_code_only() {
        // A fresh engine holds no per-word table; running grows it to the
        // highest word fetched, and a load or restore empties it again.
        let mut a = Asm::new(0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.addi(Reg::A0, Reg::A0, 2);
        a.ebreak();
        let p = a.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        assert!(e.decoded.is_empty() && e.decoded.capacity() == 0);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        e.run_with(&mut bus, &mut NullCoprocessor, 100);
        assert!(e.halted());
        assert_eq!(e.decoded.len(), 3, "table covers the three fetched words");
        assert_eq!(e.counters().decode_misses, 3);
        let restored = CoreEngine::from_snap(e.params, 0, 0x1_0000, &e.to_snap()).unwrap();
        assert!(restored.decoded.is_empty());
        e.load_program(&p);
        assert!(e.decoded.is_empty());
    }

    #[test]
    fn run_until_matches_per_cycle_stepping() {
        use rvsim_isa::csr;
        // A program with branches, loads/stores, a div stall and a final
        // wfi park — enough variety to exercise every batching path.
        let build = || {
            let mut a = Asm::new(0);
            a.li(Reg::T0, 0x2000_0000u32 as i32);
            a.li(Reg::T1, 40);
            a.label("loop");
            a.sw(Reg::T1, 0, Reg::T0);
            a.lw(Reg::T2, 0, Reg::T0);
            a.div(Reg::T2, Reg::T2, Reg::T1);
            a.addi(Reg::T1, Reg::T1, -1);
            a.bnez(Reg::T1, "loop");
            a.li(Reg::T0, csr::MIP_MTIP as i32);
            a.csrw(csr::MIE, Reg::T0);
            a.wfi();
            a.ebreak();
            a.finish().unwrap()
        };
        let p = build();

        let mut slow = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        slow.load_program(&p);
        slow.set_profiling(true);
        let mut slow_bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        let slow_cycles = slow.run_with(&mut slow_bus, &mut co, 5_000);

        let mut fast = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        fast.load_program(&p);
        fast.set_profiling(true);
        let mut fast_bus = SramBus::new(0x2000_0000, 0x100);
        let exit = fast.run_until(&mut fast_bus, &mut co, 5_000);

        // Both park in wfi with identical architectural outcomes: the
        // batched run consumes the full budget (wfi bulk-skip) just like
        // 5 000 per-cycle steps do.
        assert_eq!(exit.reason, StopReason::Budget);
        assert_eq!(exit.cycles, slow_cycles);
        assert_eq!(fast.cycle(), slow.cycle());
        assert_eq!(fast.retired(), slow.retired());
        assert_eq!(fast.state.pc, slow.state.pc);
        assert!(fast.waiting_for_interrupt() && slow.waiting_for_interrupt());
        for r in [Reg::T0, Reg::T1, Reg::T2] {
            assert_eq!(fast.state.read_reg(r), slow.state.read_reg(r));
        }
        // Issue-time attribution makes the activity counters path-exact
        // (the host-cache counters aside).
        assert_eq!(
            fast.counters().without_host_stats(),
            slow.counters().without_host_stats()
        );
        assert!(slow.counters().stall_exec > 0, "div stalls recorded");
        assert!(slow.counters().stall_mem > 0, "load stalls recorded");
        assert!(slow.counters().wfi_cycles > 0, "wfi park recorded");
        assert!(slow.counters().decode_hits > slow.counters().decode_misses);
        // The PC profiler uses the same issue-time attribution, so the
        // batched and per-cycle profiles are bit-identical and account
        // for every consumed cycle (the run ends parked in wfi, not
        // mid-drain, so attribution equals consumption exactly).
        let fast_profile = fast.take_profile().expect("profiling was on");
        let slow_profile = slow.take_profile().expect("profiling was on");
        assert_eq!(fast_profile, slow_profile, "profiles diverged");
        assert_eq!(slow_profile.total_cycles(), slow_cycles);
        assert_eq!(slow_profile.other, 0);
        // The park cycles land on the `wfi` PC; inside the loop body the
        // div stall dominates.
        let mut ranked: Vec<(u32, u64)> = slow_profile.nonzero().collect();
        ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let name_of = |pc: u32| {
            slow.disassemble_at(pc)
                .map(|d| d.split_whitespace().next().unwrap_or("").to_string())
        };
        assert_eq!(name_of(ranked[0].0).as_deref(), Some("wfi"), "park cycles");
        assert_eq!(name_of(ranked[1].0).as_deref(), Some("div"), "div stall");
    }

    /// A program with every block-relevant shape: `lui+addi`,
    /// `auipc+jalr`, a compare+branch, pairable ALU ops, loads,
    /// stores, a div stall, mid-block CSR accesses (`csrw mtvec`,
    /// `csrw mscratch`, `csrr mcycle`), a gate-CSR barrier (`csrs mie`), a
    /// `fence`, calls and returns, and a misaligned load trapping into a
    /// handler that steps `mepc` past it.
    fn block_torture_program() -> rvsim_isa::Program {
        use rvsim_isa::csr;
        let mut a = Asm::new(0);
        a.j("main");
        a.label("leaf");
        a.add(Reg::S1, Reg::S1, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 3);
        a.slti(Reg::A2, Reg::S0, 100);
        a.bnez(Reg::A2, "skip");
        a.addi(Reg::A3, Reg::A3, 1);
        a.label("skip");
        a.ret();
        a.label("main");
        a.la(Reg::T4, "handler");
        a.csrw(csr::MTVEC, Reg::T4);
        a.li(Reg::T5, csr::MIP_MSIP as i32);
        a.li(Reg::T0, 0x2000_0000u32 as i32);
        a.li(Reg::S0, 0x1234_5678); // lui+addi
        a.li(Reg::T1, 30);
        a.label("loop");
        a.sw(Reg::T1, 0, Reg::T0);
        a.csrw(csr::MSCRATCH, Reg::T1); // not a gate CSR: mid-block
        a.lw(Reg::T2, 0, Reg::T0);
        a.csrr(Reg::A4, csr::MCYCLE); // reads the issue cycle
        a.div(Reg::T2, Reg::T2, Reg::T1);
        a.csrrs(Reg::Zero, csr::MIE, Reg::T5); // gate CSR: ends the block
        a.call("leaf");
        let ap = a.here();
        a.auipc(Reg::T3, 0); // auipc+jalr back to `leaf` (pc 4)
        a.jalr(Reg::Ra, Reg::T3, 4 - ap as i32);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.emit(Instr::Fence);
        a.li(Reg::A0, 77);
        a.addi(Reg::T4, Reg::T0, 2);
        a.lw(Reg::A5, 0, Reg::T4); // misaligned: traps, the handler skips it
        a.addi(Reg::A5, Reg::A5, 5);
        a.ebreak();
        a.label("handler");
        a.csrr(Reg::T6, csr::MEPC);
        a.addi(Reg::T6, Reg::T6, 4);
        a.csrw(csr::MEPC, Reg::T6);
        a.mret();
        a.finish().unwrap()
    }

    /// Runs the torture program to halt, per-cycle or batched through
    /// the block cache, with the engine's snapshot at every event.
    fn run_torture(params: TimingParams, batched: bool) -> (CoreEngine, Vec<String>) {
        let p = block_torture_program();
        let mut e = CoreEngine::new(params, 0, 0x1_0000);
        e.load_program(&p);
        e.set_profiling(true);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        let mut at_events = Vec::new();
        while !e.halted() && e.cycle() < 1_000_000 {
            let event = if batched {
                e.run_until(&mut bus, &mut co, 1_000).event
            } else {
                e.step(&mut bus, &mut co)
            };
            if event.is_some() {
                at_events.push(e.to_snap().render());
            }
        }
        assert!(e.halted(), "torture program did not halt");
        (e, at_events)
    }

    #[test]
    fn block_cache_matches_per_cycle_stepping() {
        for params in [TimingParams::cv32e40p(), TimingParams::naxriscv()] {
            let (mut slow, slow_events) = run_torture(params, false);
            let (mut fast, fast_events) = run_torture(params, true);
            // Trap entry, `mret` and halt leave both engines in the same
            // serialized state.
            assert_eq!(slow_events.len(), 3, "{}: events", params.name);
            assert!(fast_events == slow_events, "{}: event states", params.name);
            assert_eq!(fast.cycle(), slow.cycle(), "{}: cycles", params.name);
            assert_eq!(fast.retired(), slow.retired(), "{}: retired", params.name);
            assert_eq!(fast.state.pc, slow.state.pc);
            for r in [
                Reg::T0,
                Reg::T1,
                Reg::T2,
                Reg::T3,
                Reg::T6,
                Reg::S0,
                Reg::S1,
                Reg::A0,
                Reg::A2,
                Reg::A3,
                Reg::A4,
                Reg::A5,
                Reg::Ra,
            ] {
                assert_eq!(
                    fast.state.read_reg(r),
                    slow.state.read_reg(r),
                    "{}: reg {r:?}",
                    params.name
                );
            }
            assert_eq!(fast.state.read_reg(Reg::A0), 77);
            // The CSR accesses took effect on both paths alike, and the
            // misaligned load trapped into the handler, which skipped it.
            assert_eq!(fast.state.csrs, slow.state.csrs, "{}: csrs", params.name);
            assert_eq!(slow.state.csrs.mscratch, 1);
            assert_eq!(slow.state.csrs.mie, rvsim_isa::csr::MIP_MSIP);
            assert_eq!(
                slow.state.csrs.mcause,
                rvsim_isa::csr::CAUSE_MISALIGNED_LOAD
            );
            assert_eq!(slow.state.read_reg(Reg::A5), 5);
            assert!(slow.state.read_reg(Reg::A4) > 0, "mcycle read");
            // Simulated counters (pairing, stalls) are bit-identical;
            // only the host-cache counters differ.
            assert_eq!(
                fast.counters().without_host_stats(),
                slow.counters().without_host_stats(),
                "{}: counters",
                params.name
            );
            let fc = fast.counters();
            assert!(fc.block_hits > 0, "{}: blocks never engaged", params.name);
            assert!(fc.block_builds > 0, "{}: no translations", params.name);
            if params.dual_issue {
                assert!(fc.issued_pairs > 0, "superscalar model never paired");
            }
            // Every serialized field and the PC profile match through the
            // block path.
            assert_eq!(
                fast.to_snap().render(),
                slow.to_snap().render(),
                "{}: snapshot",
                params.name
            );
            assert_eq!(
                fast.take_profile().unwrap(),
                slow.take_profile().unwrap(),
                "{}: profile",
                params.name
            );
        }
    }

    /// The kernel's `compute` loop body (its `li` prologue, the ALU chain
    /// and the loop branch) with a store and a load splitting the chain
    /// into three ALU runs, and a 32-bit `li` (`lui+addi`) opening the
    /// last one. On NaxRiscv the independent ALU ops pair, so the last run
    /// mixes singles and pairs.
    fn alu_run_program() -> rvsim_isa::Program {
        let mut a = Asm::new(0);
        a.li(Reg::T1, 0x2000_0010);
        a.li(Reg::T0, 5);
        a.li(Reg::S2, 0x13);
        a.li(Reg::S3, 7);
        a.li(Reg::S7, 0x5a5a);
        a.label("comp");
        a.add(Reg::S4, Reg::S2, Reg::S3);
        a.xor(Reg::S5, Reg::S4, Reg::S7);
        a.slli(Reg::S6, Reg::S5, 1);
        a.add(Reg::A2, Reg::S6, Reg::S4);
        a.sw(Reg::A2, 0, Reg::T1);
        a.srli(Reg::A3, Reg::A2, 2);
        a.add(Reg::A4, Reg::A3, Reg::S5);
        a.sub(Reg::S8, Reg::A4, Reg::S2);
        a.lw(Reg::A5, 0, Reg::T1);
        a.li(Reg::S10, 0x1234_5678);
        a.or(Reg::S9, Reg::S8, Reg::S10);
        a.add(Reg::S2, Reg::S3, Reg::A3);
        a.addi(Reg::S3, Reg::S3, 3);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "comp");
        a.ebreak();
        a.finish().unwrap()
    }

    /// A coprocessor with background work forever, which never stalls an
    /// op: `run_until` co-steps every block it dispatches.
    struct NeverIdle;

    impl Coprocessor for NeverIdle {
        fn on_interrupt_entry(&mut self, _: &mut ArchState, _: u32) {}
        fn mret_stall(&self) -> bool {
            false
        }
        fn on_mret(&mut self, _: &mut ArchState) {}
        fn custom_stall(&self, _: rvsim_isa::CustomOp) -> bool {
            false
        }
        fn exec_custom(
            &mut self,
            op: rvsim_isa::CustomOp,
            _: u32,
            _: u32,
            _: &mut ArchState,
        ) -> u32 {
            panic!("unexpected custom op {op}")
        }
        fn step<B: DataBus>(&mut self, _: &mut ArchState, _: &mut B) {}
    }

    /// An ALU run retires as one step only when it fits the batch budget,
    /// and leaves the engine exactly where its steps would: at every
    /// budget from 1 to 40, every stop of `run_until` matches per-cycle
    /// stepping driven to the same cycle (registers, `pc`, cycle, retire
    /// count, counters, profile, snapshot), and matches a co-stepped run,
    /// which issues each run step by step, in the block counters too.
    #[test]
    fn alu_runs_match_per_cycle_stepping_at_every_budget() {
        let p = alu_run_program();
        for params in [
            TimingParams::cv32e40p(),
            TimingParams::cva6(),
            TimingParams::naxriscv(),
        ] {
            for profiled in [false, true] {
                for budget in 1..=40u64 {
                    let fresh = || {
                        let mut e = CoreEngine::new(params, 0, 0x1_0000);
                        e.load_program(&p);
                        e.set_profiling(profiled);
                        (e, SramBus::new(0x2000_0000, 0x100))
                    };
                    let (mut slow, mut slow_bus) = fresh();
                    let (mut fast, mut fast_bus) = fresh();
                    let (mut costep, mut costep_bus) = fresh();
                    let at = |e: &CoreEngine| {
                        format!("{} budget {budget} cycle {}", params.name, e.cycle())
                    };
                    while !fast.halted() {
                        let exit = fast.run_until(&mut fast_bus, &mut NullCoprocessor, budget);
                        assert!(exit.cycles <= budget, "{}: overran", at(&fast));
                        costep.run_until(&mut costep_bus, &mut NeverIdle, budget);
                        while slow.cycle() < fast.cycle() {
                            slow.step(&mut slow_bus, &mut NullCoprocessor);
                        }
                        for n in 0..32 {
                            let r = Reg::from_number(n);
                            let (f, s) = (fast.state.read_reg(r), slow.state.read_reg(r));
                            assert_eq!(f, s, "{}: x{n}", at(&fast));
                        }
                        assert_eq!(fast.state.pc, slow.state.pc, "{}: pc", at(&fast));
                        assert_eq!(fast.cycle(), slow.cycle(), "{}: cycle", at(&fast));
                        assert_eq!(fast.retired(), slow.retired(), "{}: retired", at(&fast));
                        assert_eq!(
                            fast.counters().without_host_stats(),
                            slow.counters().without_host_stats(),
                            "{}: counters",
                            at(&fast)
                        );
                        assert_eq!(fast.profile(), slow.profile(), "{}: profile", at(&fast));
                        assert_eq!(
                            fast.to_snap().render(),
                            slow.to_snap().render(),
                            "{}: snapshot",
                            at(&fast)
                        );
                        // Not the decode counters: where plain dispatch
                        // fetches an op, co-stepped dispatch may peek it.
                        let blocks = |e: &CoreEngine| {
                            let c = e.counters();
                            (c.without_host_stats(), c.block_hits, c.block_builds)
                        };
                        assert_eq!(costep.cycle(), fast.cycle(), "{}: co-stepped", at(&fast));
                        assert_eq!(blocks(&costep), blocks(&fast), "{}: co-stepped", at(&fast));
                    }
                    assert_eq!(slow.state.read_reg(Reg::T0), 0, "{}", at(&slow));
                    if budget == 40 {
                        let pairs = fast.counters().issued_pairs;
                        assert_eq!(pairs > 0, params.dual_issue, "{}", at(&fast));
                    }
                }
            }
        }
    }

    /// A misaligned load trapping inside a translated block leaves the
    /// engine exactly as per-cycle stepping does: byte-identical
    /// snapshots at the `ExceptionEntered` exit, on every core model.
    #[test]
    fn a_trap_inside_a_block_matches_per_cycle_stepping() {
        let mut a = Asm::new(0);
        a.li(Reg::T0, 0x2000_0002); // misaligned
        a.addi(Reg::A0, Reg::A0, 1); // NaxRiscv dual-issues these ALU ops
        a.addi(Reg::A1, Reg::A1, 2);
        a.lw(Reg::A2, 0, Reg::T0); // traps
        a.ebreak();
        let p = a.finish().unwrap();
        let trapped = Some(CoreEvent::ExceptionEntered {
            cause: rvsim_isa::csr::CAUSE_MISALIGNED_LOAD,
        });
        for params in [
            TimingParams::cv32e40p(),
            TimingParams::cva6(),
            TimingParams::naxriscv(),
        ] {
            let fresh = || {
                let mut e = CoreEngine::new(params, 0, 0x1_0000);
                e.load_program(&p);
                (e, SramBus::new(0x2000_0000, 0x100))
            };
            let (mut slow, mut slow_bus) = fresh();
            while slow.step(&mut slow_bus, &mut NullCoprocessor) != trapped {
                assert!(slow.cycle() < 100, "{}: no trap per cycle", params.name);
            }
            let (mut fast, mut fast_bus) = fresh();
            while fast
                .run_until(&mut fast_bus, &mut NullCoprocessor, 100)
                .event
                != trapped
            {
                assert!(fast.cycle() < 100, "{}: no trap batched", params.name);
            }
            assert!(fast.counters().block_hits > 0, "{}: no block", params.name);
            assert_eq!(fast.retired(), 4, "{}: the load retired", params.name);
            assert_eq!(
                fast.to_snap().render(),
                slow.to_snap().render(),
                "{}: snapshot",
                params.name
            );
        }
    }

    /// Mid-run snapshot/restore is invisible: a restored engine finishes
    /// the torture program cycle-for-cycle, counter-for-counter and
    /// profile-for-profile identical to one that never stopped — per core
    /// model, profiler attached, with cold host caches on the restored
    /// side.
    #[test]
    fn snapshot_roundtrip_is_invisible_mid_run() {
        for params in [TimingParams::cv32e40p(), TimingParams::naxriscv()] {
            let p = block_torture_program();
            let mut a = CoreEngine::new(params, 0, 0x1_0000);
            a.load_program(&p);
            a.set_profiling(true);
            let mut a_bus = SramBus::new(0x2000_0000, 0x100);
            let mut co = NullCoprocessor;
            // Part-way through the run: mid-loop, caches warm.
            while a.cycle() < 700 && !a.halted() {
                a.run_until(&mut a_bus, &mut co, 700 - a.cycle());
            }
            let doc = a.to_snap();
            let bus_doc = a_bus.mem.to_snap();
            // Snapshotting twice yields byte-identical documents.
            assert_eq!(
                doc.render(),
                a.to_snap().render(),
                "{}: unstable",
                params.name
            );

            let mut b = CoreEngine::from_snap(params, 0, 0x1_0000, &doc).expect("restore");
            let mut b_bus = SramBus {
                mem: Mem::from_snap(&bus_doc, 0x2000_0000, 0x100).expect("bus restore"),
            };
            assert_eq!(b.cycle(), a.cycle());

            let mut finish = |e: &mut CoreEngine, bus: &mut SramBus| {
                while !e.halted() {
                    let exit = e.run_until(bus, &mut co, 1_000);
                    if exit.cycles == 0 && exit.reason == StopReason::Budget {
                        break;
                    }
                }
            };
            finish(&mut a, &mut a_bus);
            finish(&mut b, &mut b_bus);
            assert!(a.halted() && b.halted(), "{}: did not halt", params.name);
            assert_eq!(b.cycle(), a.cycle(), "{}: cycles", params.name);
            assert_eq!(b.retired(), a.retired(), "{}: retired", params.name);
            assert_eq!(b.state.pc, a.state.pc, "{}: pc", params.name);
            for n in 0..32 {
                let r = Reg::from_number(n);
                assert_eq!(
                    b.state.read_reg(r),
                    a.state.read_reg(r),
                    "{}: x{n}",
                    params.name
                );
            }
            assert_eq!(b.state.csrs, a.state.csrs, "{}: csrs", params.name);
            assert_eq!(
                b.counters().without_host_stats(),
                a.counters().without_host_stats(),
                "{}: counters",
                params.name
            );
            assert_eq!(
                b.take_profile().unwrap(),
                a.take_profile().unwrap(),
                "{}: profile",
                params.name
            );
            // The final engine states serialize identically too.
            assert_eq!(a.to_snap().render(), b.to_snap().render());
            assert_eq!(a_bus.mem.to_snap().render(), b_bus.mem.to_snap().render());
        }
    }

    /// The caller fixes the core model and IMEM geometry; a document
    /// whose contents do not fit them, or whose state no run produces,
    /// must fail.
    #[test]
    fn snapshot_restore_rejects_mismatches() {
        let p = block_torture_program();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        e.set_profiling(true);
        let doc = e.to_snap();
        let restore = |size, doc: &Json| CoreEngine::from_snap(e.params, 0, size, doc);
        assert!(restore(0x1_0000, &doc).is_ok());
        assert!(restore(0x8000, &doc).is_err(), "wrong imem size accepted");
        for (what, path, value) in [
            (
                "unknown completing state",
                &["completing"][..],
                Json::from("warp"),
            ),
            (
                "predictor counter above 3",
                &["predictor"],
                snap::runs_to_json(&[4u32; PREDICTOR_ENTRIES]),
            ),
            (
                "profile bins of another size",
                &["profile", "bins"],
                snap::runs_to_json(&[0u64; 8]),
            ),
        ] {
            let mut bad = doc.clone();
            *path
                .iter()
                .fold(&mut bad, |v, k| v.get_mut(k).expect("field")) = value;
            assert!(restore(0x1_0000, &bad).is_err(), "{what} accepted");
        }
    }

    #[test]
    fn stale_block_cannot_survive_imem_rewrite() {
        let mut a = Asm::new(0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.ebreak();
        let p = a.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        e.run_until(&mut bus, &mut co, 1_000);
        assert!(e.halted());
        assert_eq!(e.state.read_reg(Reg::A0), 1);
        assert!(e.counters().block_hits > 0, "block path never engaged");

        // Rewrite word 0 to `addi a0, a0, 7` and rerun from pc 0: the
        // live block covering word 0 must die with the cached decode.
        let mut b = Asm::new(0);
        b.addi(Reg::A0, Reg::A0, 7);
        let new_word = b.finish().unwrap().words[0];
        e.write_imem_word(0, new_word);
        e.halted = false;
        e.state.pc = 0;
        e.state.write_reg(Reg::A0, 0);
        e.run_until(&mut bus, &mut co, 1_000);
        assert!(e.halted());
        assert_eq!(
            e.state.read_reg(Reg::A0),
            7,
            "stale block translation survived IMEM rewrite"
        );
        // Both generations count as builds at entry pc 0 — the profiler's
        // retranslation column feeds off this.
        let stats = e.block_stats_in(0, 0);
        assert_eq!(stats.builds, 2, "rewrite must force a retranslation");
        assert_eq!(stats.execs, 2);
    }

    #[test]
    fn profiling_never_changes_timing_or_state() {
        // The same program as the batching test, run with and without the
        // profiler: cycles, retirement, PC and registers must match
        // exactly (the profiler only counts).
        let mut a = Asm::new(0);
        a.li(Reg::T0, 0x2000_0000u32 as i32);
        a.li(Reg::T1, 25);
        a.label("loop");
        a.sw(Reg::T1, 0, Reg::T0);
        a.lw(Reg::T2, 0, Reg::T0);
        a.div(Reg::T2, Reg::T2, Reg::T1);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.ebreak();
        let p = a.finish().unwrap();
        let run = |profiled: bool| {
            let mut e = CoreEngine::new(TimingParams::naxriscv(), 0, 0x1_0000);
            e.load_program(&p);
            e.set_profiling(profiled);
            let mut bus = SramBus::new(0x2000_0000, 0x100);
            let mut co = NullCoprocessor;
            e.run_with(&mut bus, &mut co, 50_000);
            assert!(e.halted());
            e
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.cycle(), on.cycle(), "profiling changed the cycle count");
        assert_eq!(off.retired(), on.retired());
        assert_eq!(off.state.pc, on.state.pc);
        assert_eq!(off.counters(), on.counters());
        assert!(off.profile().is_none());
        assert_eq!(on.profile().expect("on").total_cycles(), on.cycle());
    }

    #[test]
    fn run_until_stops_on_core_events() {
        use rvsim_isa::csr;
        let mut a = Asm::new(0);
        a.la(Reg::T0, "handler");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MTIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.j("spin");
        a.label("handler");
        a.ebreak();
        let p = a.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        // No interrupt pending: spins to the budget.
        let exit = e.run_until(&mut bus, &mut co, 200);
        assert_eq!(exit.reason, StopReason::Budget);
        assert_eq!(exit.cycles, 200);
        // Raise MTIP: next batch must stop at the entry event, then run to
        // the halt inside the handler.
        e.state.csrs.mip = csr::MIP_MTIP;
        let exit = e.run_until(&mut bus, &mut co, 200);
        assert_eq!(exit.reason, StopReason::Event);
        assert_eq!(
            exit.event,
            Some(CoreEvent::InterruptEntered {
                cause: csr::CAUSE_TIMER
            })
        );
        let exit = e.run_until(&mut bus, &mut co, 200);
        assert_eq!(exit.reason, StopReason::Event);
        assert_eq!(exit.event, Some(CoreEvent::Halted));
        assert!(e.halted());
    }

    #[test]
    fn interrupt_entry_and_mret_roundtrip() {
        use rvsim_isa::csr;
        let mut a = Asm::new(0);
        // Set mtvec to the handler, enable timer irq, enable MIE, spin.
        a.la(Reg::T0, "handler");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MTIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.addi(Reg::A0, Reg::A0, 1);
        a.j("spin");
        a.label("handler");
        a.li(Reg::A1, 99);
        a.ebreak();
        let p = a.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        let mut entered = None;
        for _ in 0..50 {
            e.step(&mut bus, &mut co);
        }
        e.state.csrs.mip = csr::MIP_MTIP;
        for _ in 0..50 {
            e.state.csrs.mip = csr::MIP_MTIP;
            if let Some(CoreEvent::InterruptEntered { cause }) = e.step(&mut bus, &mut co) {
                entered = Some(cause);
            }
            if e.halted() {
                break;
            }
        }
        assert_eq!(entered, Some(csr::CAUSE_TIMER));
        assert_eq!(e.state.read_reg(Reg::A1), 99);
        assert_eq!(e.state.csrs.mcause, csr::CAUSE_TIMER);
        assert!(
            !e.state.csrs.mie_enabled(),
            "MIE must be cleared in the ISR"
        );
    }
}
