//! The cycle-stepped core engine.
//!
//! One [`CoreEngine::step`] call advances the core by exactly one cycle.
//! Instructions are executed functionally at issue and then occupy the
//! pipeline for their modelled latency; interrupts are taken at
//! instruction boundaries; `mret` and `SWITCH_RF` honour coprocessor
//! stalls (paper §4.2/§4.3). The engine owns the instruction memory
//! (separate fetch port — the data port belongs to the [`DataBus`]).

use crate::blockcache::{BlockCache, BlockOutcome};
use crate::coproc::Coprocessor;
use crate::counters::CoreCounters;
use crate::exec::{execute, MemRequest};
use crate::profile::PcProfile;
use crate::state::ArchState;
use crate::timing::TimingParams;
use rvsim_isa::{decode, disassemble, Instr, Program};
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

/// Result of one [`CoreEngine::step`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutput {
    /// Event raised this cycle, if any.
    pub event: Option<CoreEvent>,
    /// A coprocessor custom instruction executed this cycle (the
    /// coprocessor's state may have changed — batched runs stop here).
    pub custom: bool,
}

/// Why [`CoreEngine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A [`CoreEvent`] fired on the final cycle.
    Event,
    /// A coprocessor custom instruction executed on the final cycle.
    CustomExecuted,
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
    /// Fused macro-op executions inside those dispatches.
    pub fused: u64,
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

/// Fixed-depth ring of the last retired `(cycle, pc)` pairs — the
/// "recent instructions" debug trace. Replaces a `VecDeque` in the
/// per-retirement hot path: a push is one store plus a wrapping bump,
/// never a shift or reallocation.
pub(crate) struct RetireRing {
    buf: Box<[(u64, u32)]>,
    /// Next write slot.
    head: usize,
    len: usize,
}

impl RetireRing {
    fn new(depth: usize) -> RetireRing {
        RetireRing {
            buf: vec![(0, 0); depth].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Records a retirement, dropping the oldest entry once full.
    #[inline]
    pub(crate) fn push(&mut self, entry: (u64, u32)) {
        self.buf[self.head] = entry;
        self.head += 1;
        if self.head == self.buf.len() {
            self.head = 0;
        }
        if self.len < self.buf.len() {
            self.len += 1;
        }
    }

    /// Un-records the newest entry (a retirement squashed by a trap).
    #[inline]
    pub(crate) fn pop_back(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty retire ring");
        self.head = self.head.checked_sub(1).unwrap_or(self.buf.len() - 1);
        self.len -= 1;
    }

    /// The net effect of the interpreter's push-then-pop-back when the
    /// ring is full: the oldest entry is gone, nothing new is kept.
    #[inline]
    pub(crate) fn drop_oldest_if_full(&mut self) {
        if self.len == self.buf.len() {
            self.len -= 1;
        }
    }

    /// Entries oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        let depth = self.buf.len();
        let start = self.head + depth - self.len;
        (0..self.len).map(move |i| self.buf[(start + i) % depth])
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
    /// Per-word decode cache of the interpreter, indexed from the IMEM
    /// base. It starts empty and grows to the highest word fetched, so it
    /// spans executed code, not the whole instruction memory.
    pub(crate) decoded: Vec<Option<Instr>>,
    pub(crate) busy: u32,
    completing: Completing,
    wfi_wait: bool,
    halted: bool,
    pub(crate) cycle: u64,
    pub(crate) retired: u64,
    predictor: Vec<u8>,
    pub(crate) trace: RetireRing,
    pub(crate) counters: CoreCounters,
    profiler: Option<Box<PcProfile>>,
    wfi_pc: u32,
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
            trace: RetireRing::new(64),
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

    /// The last retired `(cycle, pc)` pairs, oldest first (debug aid).
    pub fn recent_pcs(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.trace.iter()
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
    pub fn hot_blocks(&mut self, profile: &PcProfile) -> Vec<crate::profile::HotBlock> {
        profile.hot_blocks(|pc| self.peek(pc))
    }

    /// Renders a profile as folded-stack lines under `root` (see
    /// [`PcProfile::folded`]).
    pub fn folded_profile(&mut self, profile: &PcProfile, root: &str) -> String {
        profile.folded(root, |pc| self.peek(pc))
    }

    #[inline]
    pub(crate) fn attribute(&mut self, pc: u32, cycles: u64) {
        if let Some(p) = &mut self.profiler {
            p.add(pc, cycles);
        }
    }

    /// The interpreter's fetch through the per-word decode cache,
    /// counting hits and misses. Block dispatch never comes here, so the
    /// two counters describe interpreted fetches only.
    fn fetch(&mut self, pc: u32) -> Instr {
        let idx = ((pc - self.imem.base()) / 4) as usize;
        if let Some(Some(i)) = self.decoded.get(idx) {
            self.counters.decode_hits += 1;
            return *i;
        }
        self.counters.decode_misses += 1;
        let word = self.imem.read_word(pc);
        let instr = decode(word).unwrap_or_else(|e| {
            let mut dump = String::new();
            for (cyc, tpc) in self.trace.iter() {
                dump.push_str(&format!("  cycle {cyc}: pc {tpc:#010x}\n"));
            }
            panic!("{e} at pc {pc:#010x}; recent instructions:\n{dump}")
        });
        self.remember_decoded(idx, instr);
        instr
    }

    /// Caches the decode of IMEM word `idx`, growing the table to it.
    fn remember_decoded(&mut self, idx: usize, instr: Instr) {
        if idx >= self.decoded.len() {
            self.decoded.resize(idx + 1, None);
        }
        self.decoded[idx] = Some(instr);
    }

    pub(crate) fn peek(&mut self, pc: u32) -> Option<Instr> {
        if !self.imem.contains(pc) {
            return None;
        }
        let idx = ((pc - self.imem.base()) / 4) as usize;
        if let Some(Some(i)) = self.decoded.get(idx) {
            return Some(*i);
        }
        decode(self.imem.read_word(pc))
            .ok()
            .inspect(|&i| self.remember_decoded(idx, i))
    }

    /// The dual-issue pairing rule, shared by the interpreter and the
    /// block builder: the instruction after `first` issues in the same
    /// cycle when both are simple ALU ops and it reads no register
    /// `first` writes. `next` yields that instruction (`None` when it
    /// does not decode) and is called only when `first` could lead a pair.
    pub(crate) fn pairs(first: &Instr, next: impl FnOnce() -> Option<Instr>) -> bool {
        let simple = |i: &Instr| {
            matches!(
                i,
                Instr::OpImm { .. } | Instr::Op { .. } | Instr::Lui { .. } | Instr::Auipc { .. }
            )
        };
        simple(first)
            && next().is_some_and(|second| {
                simple(&second)
                    && !first
                        .rd()
                        .is_some_and(|rd| second.sources().iter().flatten().any(|s| *s == rd))
            })
    }

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

    fn control_latency(&mut self, instr: &Instr, taken: bool, pc: u32) -> u32 {
        let p = self.params;
        match instr {
            Instr::Branch { .. } => {
                if p.has_predictor {
                    let predicted = self.predict_taken(pc, taken);
                    if predicted == taken {
                        1
                    } else {
                        1 + p.branch_penalty
                    }
                } else if taken {
                    1 + p.branch_penalty
                } else {
                    1
                }
            }
            Instr::Jal { .. } => 1 + p.jump_penalty,
            Instr::Jalr { .. } => 1 + p.jalr_penalty,
            _ => 1,
        }
    }

    /// Advances the core by one cycle.
    ///
    /// The platform must have refreshed `state.csrs.mip` before calling
    /// this, and should step the coprocessor *after* it (the RTOSUnit uses
    /// the data-port cycles the core left idle).
    pub fn step(&mut self, bus: &mut dyn DataBus, coproc: &mut dyn Coprocessor) -> StepOutput {
        self.cycle += 1;
        self.state.csrs.mcycle = self.cycle as u32;
        let mut out = StepOutput::default();
        if self.halted {
            return out;
        }

        // Drain an in-flight multi-cycle instruction.
        if self.busy > 0 {
            self.busy -= 1;
            if self.busy == 0 && self.completing == Completing::Mret {
                self.completing = Completing::Plain;
                coproc.on_mret(&mut self.state);
                out.event = Some(CoreEvent::MretRetired);
            }
            return out;
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
                return out;
            }
        }

        // Take a pending interrupt at the instruction boundary.
        if self.state.csrs.mie_enabled() {
            if let Some(cause) = self.state.csrs.pending_interrupt() {
                let target = self.state.csrs.enter_trap(self.state.pc, cause);
                self.state.pc = target;
                coproc.on_interrupt_entry(&mut self.state, cause);
                self.busy = self.params.irq_entry_latency.saturating_sub(1);
                self.counters.stall_irq_entry += u64::from(self.busy);
                // The whole entry flush is charged to the handler's first
                // instruction — ISR prologues show their true entry cost.
                self.attribute(target, 1 + u64::from(self.busy));
                out.event = Some(CoreEvent::InterruptEntered { cause });
                return out;
            }
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
                let target = self
                    .state
                    .csrs
                    .enter_trap(pc, rvsim_isa::csr::CAUSE_MISALIGNED_FETCH);
                self.state.pc = target;
                self.busy = self.params.irq_entry_latency.saturating_sub(1);
                self.counters.stall_irq_entry += u64::from(self.busy);
                self.attribute(target, 1 + u64::from(self.busy));
                out.event = Some(CoreEvent::ExceptionEntered {
                    cause: rvsim_isa::csr::CAUSE_MISALIGNED_FETCH,
                });
                return out;
            }

            let instr = self.fetch(pc);

            // Coprocessor stalls gate issue.
            if let Instr::Custom { op, .. } = instr {
                if coproc.custom_stall(op) {
                    self.counters.stall_coproc += 1;
                    self.attribute(pc, 1);
                    return out;
                }
            }
            if matches!(instr, Instr::Mret) && coproc.mret_stall() {
                self.counters.stall_coproc += 1;
                self.attribute(pc, 1);
                return out;
            }

            let outcome = execute(&mut self.state, &instr, pc);
            // `fence.i` orders fetch after writes: drop every block
            // translation (the per-word decode cache is kept coherent by
            // the IMEM write paths themselves).
            if matches!(instr, Instr::Fence) {
                if let Some(cache) = &mut self.blocks {
                    cache.flush();
                }
            }
            self.state.pc = outcome.next_pc;
            self.retired += 1;
            self.trace.push((self.cycle, pc));

            let p = self.params;
            let mut latency = match instr {
                Instr::MulDiv { op, .. } => match op {
                    rvsim_isa::MulDivOp::Mul
                    | rvsim_isa::MulDivOp::Mulh
                    | rvsim_isa::MulDivOp::Mulhsu
                    | rvsim_isa::MulDivOp::Mulhu => p.mul_latency,
                    _ => p.div_latency,
                },
                Instr::Csr { .. } => p.csr_latency,
                Instr::Custom { .. } => p.custom_latency,
                Instr::Load { .. } => p.load_base_latency,
                Instr::Store { .. } => p.store_latency,
                Instr::Mret => p.mret_latency,
                _ => self.control_latency(&instr, outcome.taken_branch, pc),
            };

            // Address-misaligned accesses trap before touching the bus
            // (the `Mem` backing store rejects them); the faulting
            // instruction does not retire and writes nothing.
            if let Some(req) = &outcome.mem {
                let (addr, size, cause) = match *req {
                    MemRequest::Load { addr, size, .. } => {
                        (addr, size, rvsim_isa::csr::CAUSE_MISALIGNED_LOAD)
                    }
                    MemRequest::Store { addr, size, .. } => {
                        (addr, size, rvsim_isa::csr::CAUSE_MISALIGNED_STORE)
                    }
                };
                if addr % size.bytes() != 0 {
                    self.retired -= 1;
                    self.trace.pop_back();
                    let target = self.state.csrs.enter_trap(pc, cause);
                    self.state.pc = target;
                    self.busy = self.params.irq_entry_latency.saturating_sub(1);
                    self.counters.stall_irq_entry += u64::from(self.busy);
                    self.attribute(target, 1 + u64::from(self.busy));
                    out.event = Some(CoreEvent::ExceptionEntered { cause });
                    return out;
                }
            }

            match outcome.mem {
                Some(MemRequest::Load {
                    addr,
                    size,
                    signed,
                    rd,
                }) => {
                    let resp = bus.core_access(addr, size, None);
                    let value = match (size, signed) {
                        (AccessSize::Byte, true) => resp.data as u8 as i8 as i32 as u32,
                        (AccessSize::Byte, false) => resp.data & 0xff,
                        (AccessSize::Half, true) => resp.data as u16 as i16 as i32 as u32,
                        (AccessSize::Half, false) => resp.data & 0xffff,
                        (AccessSize::Word, _) => resp.data,
                    };
                    self.state.write_reg(rd, value);
                    latency += resp.extra_latency;
                }
                Some(MemRequest::Store { addr, size, value }) => {
                    let resp = bus.core_access(addr, size, Some(value));
                    latency += resp.extra_latency;
                }
                None => {}
            }

            if let Some((op, a, b, rd)) = outcome.custom {
                let result = coproc.exec_custom(op, a, b, &mut self.state);
                if op.writes_rd() {
                    self.state.write_reg(rd, result);
                }
                out.custom = true;
            }

            if outcome.halt {
                self.halted = true;
                self.attribute(pc, 1);
                out.event = Some(CoreEvent::Halted);
                return out;
            }
            if outcome.is_wfi {
                self.wfi_wait = true;
                self.wfi_pc = pc;
                self.attribute(pc, 1);
                return out;
            }
            if outcome.is_mret {
                self.busy = latency.saturating_sub(1);
                self.counters.stall_mret += u64::from(self.busy);
                self.attribute(pc, 1 + u64::from(self.busy));
                if self.busy == 0 {
                    coproc.on_mret(&mut self.state);
                    out.event = Some(CoreEvent::MretRetired);
                } else {
                    self.completing = Completing::Mret;
                }
                return out;
            }

            // Superscalar pairing: one extra independent simple ALU
            // instruction may retire in the same cycle.
            if p.dual_issue && !paired && Self::pairs(&instr, || self.peek(self.state.pc)) {
                paired = true;
                self.counters.issued_pairs += 1;
                continue;
            }

            self.busy = latency.saturating_sub(1);
            // Issue-time stall attribution: the drain length is fully
            // decided here, so the batched path (which bulk-skips the
            // drain) ends up with identical counters. The profiler uses
            // the same trick: the full `1 + busy` cost lands on the
            // issuing PC now (on the *second* PC of a superscalar pair —
            // the first `continue`d without consuming the cycle).
            self.attribute(pc, 1 + u64::from(self.busy));
            let stall = u64::from(self.busy);
            if stall > 0 {
                match instr {
                    Instr::Load { .. } | Instr::Store { .. } => self.counters.stall_mem += stall,
                    Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => {
                        self.counters.stall_control += stall
                    }
                    _ => self.counters.stall_exec += stall,
                }
            }
            return out;
        }
    }

    /// Runs until the guest halts or `max_cycles` elapse, collecting
    /// events through `on_event`. Returns the number of cycles executed.
    pub fn run_with(
        &mut self,
        bus: &mut dyn DataBus,
        coproc: &mut dyn Coprocessor,
        max_cycles: u64,
        mut on_event: impl FnMut(u64, CoreEvent),
    ) -> u64 {
        let start = self.cycle;
        while !self.halted && self.cycle - start < max_cycles {
            let out = self.step(bus, coproc);
            if let Some(ev) = out.event {
                on_event(self.cycle, ev);
            }
        }
        self.cycle - start
    }

    /// Runs a quiescent batch of up to `max_cycles` cycles without a
    /// per-cycle call from the platform.
    ///
    /// The caller guarantees that, for the whole budget, nothing *outside*
    /// the core can change `state.csrs.mip` or wants per-cycle polling:
    /// no timer/software/external interrupt edge lands inside the window
    /// and the coprocessor is idle (guest-initiated changes are caught via
    /// [`DataBus::take_attention`] and the `custom` stop). Under that
    /// contract this is cycle-exact with calling [`step`](Self::step) in a
    /// loop, but executes straight-line code as translated blocks (see
    /// [`crate::blockcache`]) and burns through multi-cycle stalls and
    /// `wfi` stretches in bulk, advancing the bus clock via
    /// [`DataBus::advance_cycles`].
    ///
    /// Stops at the first of: a [`CoreEvent`], a custom (coprocessor)
    /// instruction executing, the bus raising attention, or the budget
    /// running out.
    pub fn run_until(
        &mut self,
        bus: &mut dyn DataBus,
        coproc: &mut dyn Coprocessor,
        max_cycles: u64,
    ) -> BatchExit {
        self.run_batch::<false>(bus, coproc, max_cycles)
    }

    /// Runs a *unit-active* batch: the coprocessor has background work
    /// (context store/restore FSMs, speculative preload, a scheduler
    /// sort), so it must be stepped every cycle — but the interrupt lines
    /// are quiescent, so the platform's per-cycle mask bookkeeping is
    /// still provably a no-op. Executes in exactly the stepwise order
    /// (bus clock advances, core steps, coprocessor steps), dispatching
    /// translated blocks with the coprocessor co-stepped between
    /// micro-ops, and returns as soon as the coprocessor drains idle so
    /// the caller can re-enter the plain quiescent batch path.
    ///
    /// Same quiescence contract and stop conditions as
    /// [`run_until`](Self::run_until), with two exceptions. A custom
    /// instruction does not end the batch: its only side effects live in
    /// the coprocessor and the core, and the coprocessor is stepped every
    /// cycle here anyway. And every consumed cycle *including the final
    /// one* has already taken its coprocessor step — the caller must not
    /// step it again.
    pub fn run_costep(
        &mut self,
        bus: &mut dyn DataBus,
        coproc: &mut dyn Coprocessor,
        max_cycles: u64,
    ) -> BatchExit {
        self.run_batch::<true>(bus, coproc, max_cycles)
    }

    /// The batch loop behind [`run_until`](Self::run_until) and, with
    /// `COSTEP`, [`run_costep`](Self::run_costep).
    fn run_batch<const COSTEP: bool>(
        &mut self,
        bus: &mut dyn DataBus,
        coproc: &mut dyn Coprocessor,
        max_cycles: u64,
    ) -> BatchExit {
        let start = self.cycle;
        loop {
            let used = self.cycle - start;
            if self.halted || used >= max_cycles || (COSTEP && used > 0 && coproc.is_idle()) {
                return BatchExit {
                    cycles: used,
                    event: None,
                    reason: StopReason::Budget,
                };
            }
            let remaining = max_cycles - used;

            // Bulk skips, only while the coprocessor needs no per-cycle
            // step.
            if !COSTEP {
                // Bulk-drain a multi-cycle instruction. The cycle where
                // `busy` reaches zero may complete an `mret`, exactly as
                // in `step`.
                if self.busy > 0 {
                    let skip = u64::from(self.busy).min(remaining);
                    bus.advance_cycles(skip);
                    self.cycle += skip;
                    self.busy -= skip as u32;
                    self.state.csrs.mcycle = self.cycle as u32;
                    if self.busy == 0 && self.completing == Completing::Mret {
                        self.completing = Completing::Plain;
                        coproc.on_mret(&mut self.state);
                        return BatchExit {
                            cycles: self.cycle - start,
                            event: Some(CoreEvent::MretRetired),
                            reason: StopReason::Event,
                        };
                    }
                    continue;
                }

                // `wfi` park: `mip` is constant for the whole batch, so
                // with no pending-and-enabled interrupt the core sleeps
                // out the budget.
                if self.wfi_wait && self.state.csrs.mip & self.state.csrs.mie == 0 {
                    bus.advance_cycles(remaining);
                    self.cycle += remaining;
                    self.counters.wfi_cycles += remaining;
                    let pc = self.wfi_pc;
                    self.attribute(pc, remaining);
                    self.state.csrs.mcycle = self.cycle as u32;
                    return BatchExit {
                        cycles: max_cycles,
                        event: None,
                        reason: StopReason::Budget,
                    };
                }
            }

            // Translated-block fast path: when the core can issue
            // straight-line code (no drain, no park, no takeable interrupt
            // — `mip` is constant for the whole batch), execute whole
            // pre-decoded blocks per dispatch.
            let mut ran = None;
            if self.busy == 0
                && !self.wfi_wait
                && !(self.state.csrs.mie_enabled() && self.state.csrs.pending_interrupt().is_some())
            {
                match self.try_blocks::<COSTEP>(bus, coproc, remaining) {
                    BlockOutcome::Ran { event, attention } => ran = Some((event, attention)),
                    BlockOutcome::NotEngaged if COSTEP => {
                        self.skip_coproc_stall(bus, coproc, start + max_cycles);
                        if self.cycle - start >= max_cycles {
                            continue;
                        }
                    }
                    BlockOutcome::NotEngaged => {}
                }
            }

            let (event, custom, attention) = match ran {
                Some((event, attention)) => (event, false, attention),
                None => {
                    // One active cycle in stepwise order: bus clock, core,
                    // and in a co-stepped batch the coprocessor.
                    bus.advance_cycles(1);
                    let out = self.step(bus, coproc);
                    if COSTEP {
                        coproc.step(&mut self.state, bus);
                    }
                    (out.event, out.custom, bus.take_attention())
                }
            };
            let reason = match event {
                Some(_) => StopReason::Event,
                None if custom && !COSTEP => StopReason::CustomExecuted,
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

    /// Coprocessor-stall fast-forward for co-stepped batches, up to cycle
    /// `end`: a custom instruction or `mret` the coprocessor refuses pins
    /// the core at `pc`, and the interpreter burns one stall cycle per
    /// full step call. Replay those cycles in a tight loop — stall
    /// counter, attribution and the coprocessor's step per cycle, exactly
    /// as `step` takes them — without the per-cycle gate checks and
    /// block lookups. Quiescence plus "nothing retires while stalled"
    /// keep every gate input constant, so the caller checking the gates
    /// once is exact. (The stall state itself lives in the coprocessor
    /// and only moves in its `step`, so it is re-checked every cycle.)
    fn skip_coproc_stall(&mut self, bus: &mut dyn DataBus, coproc: &mut dyn Coprocessor, end: u64) {
        let pc = self.state.pc;
        if pc & 3 != 0 {
            return;
        }
        let Some(instr) = self.peek(pc) else {
            return;
        };
        while self.cycle < end
            && match instr {
                Instr::Custom { op, .. } => coproc.custom_stall(op),
                Instr::Mret => coproc.mret_stall(),
                _ => false,
            }
        {
            bus.advance_cycles(1);
            self.cycle += 1;
            self.state.csrs.mcycle = self.cycle as u32;
            self.counters.stall_coproc += 1;
            self.attribute(pc, 1);
            coproc.step(&mut self.state, bus);
        }
    }

    /// Disassembles the instruction at `pc` (debug aid).
    pub fn disassemble_at(&mut self, pc: u32) -> Option<String> {
        self.peek(pc).map(|i| disassemble(&i, pc))
    }

    /// Serializes the complete engine state for a machine-state
    /// snapshot: architectural state, instruction memory, pipeline
    /// timing state (`busy`/`completing`/`wfi`), cycle and retire
    /// counts, the branch predictor, the retire-trace ring, activity
    /// counters, and the optional profiler.
    ///
    /// The per-word decode cache and the block translation cache are
    /// host bookkeeping, not machine state: their contents depend on
    /// which execution path ran and where a run was split into batches,
    /// so both are left out together with their counters (see
    /// [`CoreCounters::HOST_STATS`]).
    pub fn to_snap(&self) -> Json {
        let predictor: Vec<u32> = self.predictor.iter().map(|&v| u32::from(v)).collect();
        let cycles: Vec<u64> = self.trace.buf.iter().map(|&(c, _)| c).collect();
        let pcs: Vec<u32> = self.trace.buf.iter().map(|&(_, p)| p).collect();
        let trace = Json::object()
            .with("depth", self.trace.buf.len())
            .with("head", self.trace.head)
            .with("len", self.trace.len)
            .with("cycles", snap::runs_to_json(&cycles))
            .with("pcs", snap::runs_to_json(&pcs));
        Json::object()
            .with("core", self.params.name)
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
            .with("trace", trace)
            .with("counters", self.counters.to_snap())
            .with(
                "profile",
                self.profiler.as_ref().map_or(Json::Null, |p| p.to_snap()),
            )
    }

    /// Builds an engine from [`to_snap`](Self::to_snap) output. The
    /// snapshot must be of the core model `params` describes and of an
    /// instruction memory at `imem_base` of `imem_size` bytes; everything
    /// else — including whether the profiler is attached — is taken from
    /// the snapshot. IMEM is allocated once, from the document.
    ///
    /// Both host caches start cold, and their counters at zero, so a
    /// restored engine is cycle-for-cycle and counter-for-counter
    /// identical to one that never stopped in every field but
    /// [`CoreCounters::HOST_STATS`].
    ///
    /// # Errors
    ///
    /// Fails on malformed fields or a core-model or IMEM-geometry
    /// mismatch.
    pub fn from_snap(
        params: TimingParams,
        imem_base: u32,
        imem_size: u32,
        value: &Json,
    ) -> Result<CoreEngine, SnapError> {
        let name = snap::get_str(value, "core")?;
        if name != params.name {
            return Err(SnapError::new(format!(
                "engine: snapshot of core `{name}` cannot restore a `{}` engine",
                params.name
            )));
        }
        let imem = Mem::from_snap(snap::field(value, "imem")?)?;
        let imem_end = u64::from(imem_base) + u64::from(imem_size.div_ceil(4)) * 4;
        if imem.base() != imem_base || u64::from(imem.end()) != imem_end {
            return Err(SnapError::new(format!(
                "engine: imem geometry {imem_base:#010x}..{imem_end:#010x} does not match snapshot {:#010x}..{:#010x}",
                imem.base(),
                imem.end()
            )));
        }
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
        let trace_v = snap::field(value, "trace")?;
        let depth = snap::get_usize(trace_v, "depth")?;
        let head = snap::get_usize(trace_v, "head")?;
        let len = snap::get_usize(trace_v, "len")?;
        if depth == 0 || head >= depth || len > depth {
            return Err(SnapError::new(format!(
                "engine: retire ring head {head}/len {len} out of range for depth {depth}"
            )));
        }
        let cycles = snap::runs_from_json(snap::field(trace_v, "cycles")?, depth)?;
        let pcs = snap::runs_from_json(snap::field(trace_v, "pcs")?, depth)?;
        let trace = RetireRing {
            buf: cycles
                .iter()
                .zip(&pcs)
                .map(|(&c, &p)| (c, p))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            head,
            len,
        };
        let profiler = match snap::field(value, "profile")? {
            Json::Null => None,
            v => Some(Box::new(PcProfile::from_snap(v)?)),
        };
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
            trace,
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
        engine.run_with(&mut bus, &mut co, 1_000_000, |_, _| {});
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
            e.run_with(&mut bus, &mut co, 10_000, |_, _| {});
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
        e.run_with(&mut bus, &mut co, 10_000, |_, _| {});
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
        // addi a0, a0, 1 ; ebreak — execute once so the decode caches.
        let mut a = Asm::new(0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.ebreak();
        let p = a.finish().unwrap();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        e.run_with(&mut bus, &mut co, 100, |_, _| {});
        assert!(e.halted());
        assert_eq!(e.state.read_reg(Reg::A0), 1);

        // Rewrite word 0 to `addi a0, a0, 7` and rerun from pc 0. Without
        // invalidation the stale cached decode (`addi a0, a0, 1`) would
        // execute instead of the new bytes.
        let mut b = Asm::new(0);
        b.addi(Reg::A0, Reg::A0, 7);
        let new_word = b.finish().unwrap().words[0];
        e.write_imem_word(0, new_word);
        e.halted = false;
        e.state.pc = 0;
        e.state.write_reg(Reg::A0, 0);
        e.run_with(&mut bus, &mut co, 100, |_, _| {});
        assert!(e.halted());
        assert_eq!(
            e.state.read_reg(Reg::A0),
            7,
            "stale decoded Instr survived IMEM rewrite"
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
        e.run_with(&mut bus, &mut NullCoprocessor, 100, |_, _| {});
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
        let slow_cycles = slow.run_with(&mut slow_bus, &mut co, 5_000, |_, _| {});

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
        let mut name_of = |pc: u32| {
            slow.disassemble_at(pc)
                .map(|d| d.split_whitespace().next().unwrap_or("").to_string())
        };
        assert_eq!(name_of(ranked[0].0).as_deref(), Some("wfi"), "park cycles");
        assert_eq!(name_of(ranked[1].0).as_deref(), Some("div"), "div stall");
    }

    /// A program with every block-relevant shape: fusible `lui+addi` and
    /// `auipc+jalr`, a fusible compare+branch, pairable ALU ops, loads,
    /// stores, a div stall, a `fence`, calls and returns.
    fn block_torture_program() -> rvsim_isa::Program {
        let mut a = Asm::new(0);
        a.j("main");
        a.label("leaf");
        a.add(Reg::S1, Reg::S1, Reg::S0);
        a.addi(Reg::S0, Reg::S0, 3);
        a.slti(Reg::A2, Reg::S0, 100);
        a.bnez(Reg::A2, "skip"); // fusible cmp+branch
        a.addi(Reg::A3, Reg::A3, 1);
        a.label("skip");
        a.ret();
        a.label("main");
        a.li(Reg::T0, 0x2000_0000u32 as i32);
        a.li(Reg::S0, 0x1234_5678); // fusible lui+addi
        a.li(Reg::T1, 30);
        a.label("loop");
        a.sw(Reg::T1, 0, Reg::T0);
        a.lw(Reg::T2, 0, Reg::T0);
        a.div(Reg::T2, Reg::T2, Reg::T1);
        a.call("leaf");
        let ap = a.here();
        a.auipc(Reg::T3, 0); // fusible auipc+jalr back to `leaf` (pc 4)
        a.jalr(Reg::Ra, Reg::T3, 4 - ap as i32);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "loop");
        a.emit(Instr::Fence);
        a.li(Reg::A0, 77);
        a.ebreak();
        a.finish().unwrap()
    }

    /// Runs the torture program to halt, per-cycle or batched through
    /// the block cache.
    fn run_torture(params: TimingParams, batched: bool) -> CoreEngine {
        let p = block_torture_program();
        let mut e = CoreEngine::new(params, 0, 0x1_0000);
        e.load_program(&p);
        e.set_profiling(true);
        let mut bus = SramBus::new(0x2000_0000, 0x100);
        let mut co = NullCoprocessor;
        if batched {
            while !e.halted() {
                let exit = e.run_until(&mut bus, &mut co, 1_000);
                if exit.cycles == 0 && exit.reason == StopReason::Budget {
                    break;
                }
            }
        } else {
            e.run_with(&mut bus, &mut co, 1_000_000, |_, _| {});
        }
        assert!(e.halted(), "torture program did not halt");
        e
    }

    #[test]
    fn block_cache_matches_per_cycle_stepping() {
        for params in [TimingParams::cv32e40p(), TimingParams::naxriscv()] {
            let mut slow = run_torture(params, false);
            let mut fast = run_torture(params, true);
            assert_eq!(fast.cycle(), slow.cycle(), "{}: cycles", params.name);
            assert_eq!(fast.retired(), slow.retired(), "{}: retired", params.name);
            assert_eq!(fast.state.pc, slow.state.pc);
            for r in [
                Reg::T0,
                Reg::T1,
                Reg::T2,
                Reg::T3,
                Reg::S0,
                Reg::S1,
                Reg::A0,
                Reg::A2,
                Reg::A3,
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
            assert!(fc.fused_ops > 0, "{}: no macro-op fusion", params.name);
            assert_eq!(slow.counters().fused_ops, 0);
            if params.dual_issue {
                assert!(fc.issued_pairs > 0, "superscalar model never paired");
            }
            // The retired-instruction trace and the PC profile replay
            // identically through the block path.
            let ft: Vec<_> = fast.recent_pcs().collect();
            let st: Vec<_> = slow.recent_pcs().collect();
            assert_eq!(ft, st, "{}: trace", params.name);
            assert_eq!(
                fast.take_profile().unwrap(),
                slow.take_profile().unwrap(),
                "{}: profile",
                params.name
            );
        }
    }

    /// Mid-run snapshot/restore is invisible: a restored engine finishes
    /// the torture program cycle-for-cycle, counter-for-counter and
    /// trace-for-trace identical to one that never stopped — per core
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
                mem: Mem::from_snap(&bus_doc).expect("bus restore"),
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
            let at: Vec<_> = a.recent_pcs().collect();
            let bt: Vec<_> = b.recent_pcs().collect();
            assert_eq!(bt, at, "{}: trace", params.name);
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

    /// A restore with the wrong core model, IMEM geometry or mangled
    /// fields must fail.
    #[test]
    fn snapshot_restore_rejects_mismatches() {
        let p = block_torture_program();
        let mut e = CoreEngine::new(TimingParams::cv32e40p(), 0, 0x1_0000);
        e.load_program(&p);
        let doc = e.to_snap();
        let restore =
            |params, base, size, doc: &Json| CoreEngine::from_snap(params, base, size, doc);
        assert!(restore(TimingParams::cv32e40p(), 0, 0x1_0000, &doc).is_ok());
        assert!(
            restore(TimingParams::naxriscv(), 0, 0x1_0000, &doc).is_err(),
            "wrong core accepted"
        );
        assert!(
            restore(TimingParams::cv32e40p(), 0, 0x8000, &doc).is_err(),
            "wrong imem size accepted"
        );
        assert!(
            restore(TimingParams::cv32e40p(), 0x1000, 0x1_0000, &doc).is_err(),
            "wrong imem base accepted"
        );
        let mut mangled = doc.clone();
        if let Json::Object(pairs) = &mut mangled {
            for (k, v) in pairs.iter_mut() {
                if k == "completing" {
                    *v = Json::from("warp");
                }
            }
        }
        assert!(
            restore(TimingParams::cv32e40p(), 0, 0x1_0000, &mangled).is_err(),
            "bad field accepted"
        );
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
            e.run_with(&mut bus, &mut co, 50_000, |_, _| {});
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
            let out = e.step(&mut bus, &mut co);
            if let Some(CoreEvent::InterruptEntered { cause }) = out.event {
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
