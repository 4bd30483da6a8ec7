//! Basic-block translation cache: pre-decoded micro-op superblocks.
//!
//! The interpreter pays a fetch → decode-cache probe → `execute` match →
//! latency match per instruction, plus one virtual `DataBus` call per
//! cycle. This module pre-decodes straight-line guest code into dense
//! [`Uop`] buffers once (operands inlined, register indices resolved,
//! branch targets pre-computed, dual-issue pairs and fusible macro-op
//! pairs resolved statically) and executes whole blocks per dispatch,
//! batching the bus clock into one `advance_cycles` call per block chain.
//!
//! **Timing-replay contract.** Architectural execution is split from
//! timing annotation, but the annotation is replayed *exactly*: every
//! cycle, retirement, trace entry, simulated counter increment, profile
//! attribution and predictor update lands precisely where the per-cycle
//! interpreter puts it. The batching differential tests assert
//! bit-identical results against per-cycle stepping. Key replay rules:
//!
//! * Pairing is decided greedily from the block entry by the
//!   interpreter's own pairing rule (`CoreEngine::pairs`), exactly as its
//!   memoryless per-step pairing does; a block is trimmed so its cut
//!   never splits a pair the interpreter would have issued.
//! * Fusion only merges two steps the interpreter would have executed as
//!   *unpaired singles*, and replays both constituents' cycles, trace
//!   entries and attributions individually — fusion is a host-side
//!   speedup, never a guest-visible timing change.
//!
//! **Block lifecycle.** The cache itself is built on the engine's first
//! batched dispatch, so an engine that only steps per cycle never
//! allocates one. Blocks are built lazily at the executed PC,
//! terminate at control flow, at a CSR access that could write the
//! interrupt-gate CSRs (`mstatus`/`mie` — translated as a terminal
//! *barrier* micro-op: the write may unmask a pending interrupt, so the
//! dispatcher stops chaining and returns to the caller's interrupt-gate
//! check; all other CSR accesses execute mid-block), or before any other
//! system-level instruction
//! (`mret`/`wfi`/`ecall`/`ebreak`/`fence`/custom — those run on the
//! interpreter path), and chain to successor blocks inside one dispatch
//! while the batch budget and quiescence conditions hold. Any
//! instruction-memory rewrite ([`CoreEngine::invalidate_decoded`],
//! fault-injected IMEM flips) kills every block covering the word, and
//! `fence.i` flushes the whole cache; per-entry-PC execution statistics
//! survive invalidation so retranslation shows up in the profiler.
//!
//! The cache is host bookkeeping, not machine state: snapshots leave it
//! out, and a restored engine starts cold. Blocks decode IMEM directly
//! and never touch the interpreter's per-word decode cache, which is
//! host bookkeeping of the same kind.

use crate::coproc::Coprocessor;
use crate::counters::CoreCounters;
use crate::engine::{BlockStats, CoreEngine, CoreEvent, DataBus};
use crate::exec::{alu, branch_taken, muldiv};
use crate::timing::TimingParams;
use rvsim_isa::instr::LoadOp;
use rvsim_isa::uop::{fuse, lower, Uop, UopSrc};
use rvsim_isa::{csr, decode, CsrOp, Instr, Reg};
use rvsim_mem::{AccessSize, Mem};
use std::collections::HashMap;

/// Longest block, in instruction words. Long enough to cover real ISR
/// bodies and kernel inner loops; short enough to keep translation cheap.
const MAX_WORDS: usize = 64;

/// One execution step of a block: what the interpreter would do in one
/// `step()` call (or, for fused macro-ops, two consecutive calls).
#[derive(Debug, Clone, Copy)]
enum Step {
    /// One instruction.
    Single(Uop),
    /// A dual-issue pair: both retire in one cycle.
    Pair { first: Uop, second: Uop },
    /// A fused macro-op pair: two instructions, two interpreter steps,
    /// one dispatch.
    Fused(Uop),
}

/// A translated basic block.
#[derive(Debug)]
struct Block {
    start: u32,
    steps: Vec<Step>,
    /// Instruction words covered, from `start`.
    words: u32,
    /// Dispatches of this translation.
    execs: u64,
    /// Fused macro-op executions inside this translation.
    fused_execs: u64,
}

impl Block {
    fn covers(&self, addr: u32) -> bool {
        addr >= self.start && addr < self.start + 4 * self.words
    }
}

/// Folded per-entry-PC statistics, surviving invalidation.
#[derive(Debug, Default, Clone, Copy)]
struct PcStats {
    builds: u64,
    execs: u64,
    fused: u64,
}

/// Map entry of a word no block is entered at. Zero, so a fresh map is
/// a zeroed allocation, written only where blocks are entered.
const MAP_NONE: u32 = 0;
const MAP_FALLBACK: u32 = u32::MAX;

/// The per-engine translation cache: an entry-PC → block map over the
/// instruction memory, slots for live translations, and folded statistics
/// keyed by entry PC. Built on the engine's first batched dispatch.
#[derive(Debug)]
pub struct BlockCache {
    base: u32,
    /// Per word: `MAP_NONE`, `MAP_FALLBACK` (translation attempted and
    /// refused — a system op or undecodable word leads the block), or
    /// one plus the slot index of a live block *entered* at this word.
    map: Vec<u32>,
    blocks: Vec<Option<Block>>,
    free: Vec<u32>,
    stats: HashMap<u32, PcStats>,
}

impl BlockCache {
    pub(crate) fn new(base: u32, size: u32) -> BlockCache {
        BlockCache {
            base,
            map: vec![MAP_NONE; size.div_ceil(4) as usize],
            blocks: Vec::new(),
            free: Vec::new(),
            stats: HashMap::new(),
        }
    }

    fn word_index(&self, addr: u32) -> usize {
        ((addr - self.base) / 4) as usize
    }

    /// The live block entered at `pc`, translating it if needed. `None`
    /// means the PC must execute on the interpreter path.
    fn lookup_or_build(
        &mut self,
        pc: u32,
        params: &TimingParams,
        imem: &Mem,
        counters: &mut CoreCounters,
    ) -> Option<u32> {
        let idx = self.word_index(pc);
        match self.map[idx] {
            MAP_FALLBACK => None,
            MAP_NONE => match build_block(params, imem, pc) {
                Some(block) => {
                    counters.block_builds += 1;
                    self.stats.entry(pc).or_default().builds += 1;
                    let slot = match self.free.pop() {
                        Some(s) => {
                            self.blocks[s as usize] = Some(block);
                            s
                        }
                        None => {
                            self.blocks.push(Some(block));
                            (self.blocks.len() - 1) as u32
                        }
                    };
                    self.map[idx] = slot + 1;
                    Some(slot)
                }
                None => {
                    self.map[idx] = MAP_FALLBACK;
                    None
                }
            },
            entry => Some(entry - 1),
        }
    }

    fn kill_slot(&mut self, slot: u32) {
        if let Some(b) = self.blocks[slot as usize].take() {
            let s = self.stats.entry(b.start).or_default();
            s.execs += b.execs;
            s.fused += b.fused_execs;
            let idx = self.word_index(b.start);
            self.map[idx] = MAP_NONE;
            self.free.push(slot);
        }
    }

    /// Kills every block covering the rewritten word and clears any
    /// fallback mark on it (the new bytes may be translatable).
    pub(crate) fn invalidate_word(&mut self, addr: u32) {
        let idx = self.word_index(addr);
        if self.map[idx] == MAP_FALLBACK {
            self.map[idx] = MAP_NONE;
        }
        for slot in 0..self.blocks.len() as u32 {
            if self.blocks[slot as usize]
                .as_ref()
                .is_some_and(|b| b.covers(addr))
            {
                self.kill_slot(slot);
            }
        }
    }

    /// Drops every translation and fallback mark (`fence.i`), keeping
    /// the folded statistics.
    pub(crate) fn flush(&mut self) {
        for slot in 0..self.blocks.len() as u32 {
            self.kill_slot(slot);
        }
        self.map.fill(MAP_NONE);
    }

    /// Folded + live statistics for blocks entered in `[start, end]`.
    pub(crate) fn stats_in(&self, start: u32, end: u32) -> BlockStats {
        let mut out = BlockStats::default();
        for (&pc, s) in &self.stats {
            if pc >= start && pc <= end {
                out.builds += s.builds;
                out.execs += s.execs;
                out.fused += s.fused;
                out.entries += 1;
            }
        }
        for b in self.blocks.iter().flatten() {
            if b.start >= start && b.start <= end {
                out.execs += b.execs;
                out.fused += b.fused_execs;
            }
        }
        out
    }
}

/// Translates the basic block entered at `start`, or `None` when the
/// first word has no block representation (system op, undecodable word,
/// outside IMEM).
fn build_block(params: &TimingParams, imem: &Mem, start: u32) -> Option<Block> {
    // 1. Scan straight-line code.
    let mut instrs: Vec<Instr> = Vec::new();
    let mut terminated = false;
    let mut pc = start;
    loop {
        if !imem.contains(pc) {
            break;
        }
        let Ok(i) = decode(imem.read_word(pc)) else {
            break;
        };
        if lower(&i, pc).is_none() {
            break; // system-level op: interpreter path
        }
        instrs.push(i);
        if i.is_control_flow() {
            terminated = true;
            break;
        }
        // A CSR access that could write the interrupt-gate CSRs
        // (`mstatus`/`mie`) is a barrier: the write may unmask a pending
        // interrupt, so the block ends here and the dispatcher returns to
        // the caller's gate check before any further issue. Every other
        // CSR access — reads, and writes to non-gate CSRs such as
        // `mscratch`/`mepc`/`mcause` — stays mid-block.
        if let Instr::Csr {
            op, csr: addr, src, ..
        } = i
        {
            // The set/clear forms skip the write when the operand is
            // zero — statically known for `x0` sources and zero
            // immediates.
            let may_write = match op {
                CsrOp::Rw | CsrOp::Rwi => true,
                CsrOp::Rs | CsrOp::Rsi | CsrOp::Rc | CsrOp::Rci => src != 0,
            };
            if may_write && matches!(addr, csr::MSTATUS | csr::MIE) {
                terminated = true;
                break;
            }
        }
        if instrs.len() >= MAX_WORDS {
            break;
        }
        pc = pc.wrapping_add(4);
    }

    // 2. Greedy pairing from the entry — ground truth for the
    // interpreter's memoryless per-step pairing.
    let mut n = instrs.len();
    let mut pair_first = vec![false; n];
    if params.dual_issue {
        let mut i = 0;
        while i + 1 < n {
            if CoreEngine::pairs(&instrs[i], || Some(instrs[i + 1])) {
                pair_first[i] = true;
                i += 2;
            } else {
                i += 1;
            }
        }

        // 3. Never cut between a pair the interpreter would issue: if the
        // trailing instruction is an unpaired simple op that pairs with
        // the word just past the cut, drop it — the successor block will
        // pair them. (At most one drop: the pass already proved the new
        // trailing op does not pair with the dropped one.)
        if !terminated && n > 0 && !(n >= 2 && pair_first[n - 2]) {
            let next_pc = start.wrapping_add(4 * n as u32);
            let tail_pairs = CoreEngine::pairs(&instrs[n - 1], || {
                imem.contains(next_pc)
                    .then(|| imem.read_word(next_pc))
                    .and_then(|word| decode(word).ok())
            });
            if tail_pairs {
                instrs.pop();
                pair_first.pop();
                n -= 1;
            }
        }
    }
    if instrs.is_empty() {
        return None;
    }

    // 4. Lower to steps: pairs as decided, macro-op fusion only between
    // two adjacent *unpaired single* steps (so fusing never steals a pair
    // and the replayed timing is exactly two interpreter steps).
    let mut steps = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let pc_i = start.wrapping_add(4 * i as u32);
        if pair_first[i] {
            steps.push(Step::Pair {
                first: lower(&instrs[i], pc_i).expect("pairable op lowers"),
                second: lower(&instrs[i + 1], pc_i.wrapping_add(4)).expect("pairable op lowers"),
            });
            i += 2;
            continue;
        }
        if i + 1 < n && !pair_first[i + 1] {
            if let Some(fused) = fuse(&instrs[i], &instrs[i + 1], pc_i) {
                steps.push(Step::Fused(fused));
                i += 2;
                continue;
            }
        }
        steps.push(Step::Single(
            lower(&instrs[i], pc_i).expect("scanned op lowers"),
        ));
        i += 1;
    }

    Some(Block {
        start,
        steps,
        words: n as u32,
        execs: 0,
        fused_execs: 0,
    })
}

/// What block-mode execution accomplished, consumed by `run_until`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockOutcome {
    /// No block at the current PC (or no budget for its first step):
    /// nothing was executed, take the per-cycle path.
    NotEngaged,
    /// At least one step executed; `busy` holds the trailing drain.
    Ran {
        event: Option<CoreEvent>,
        attention: bool,
    },
}

/// How a single block's dispatch ended.
enum StepExit {
    /// All steps executed; control may chain to the successor block.
    Done,
    /// The next step does not fit the batch budget.
    Budget,
    /// A synchronous exception trapped (misaligned access).
    Event(CoreEvent),
    /// The bus raised attention after a memory access.
    Attention,
    /// The block's terminal CSR access wrote an interrupt-gate CSR.
    /// Always the last step, so the pass was complete — but chaining must
    /// stop: the write may have unmasked a pending interrupt, and only
    /// the caller's gate check may decide whether the next instruction
    /// issues.
    Barrier,
}

fn load_shape(op: LoadOp) -> (AccessSize, bool) {
    match op {
        LoadOp::Lb => (AccessSize::Byte, true),
        LoadOp::Lbu => (AccessSize::Byte, false),
        LoadOp::Lh => (AccessSize::Half, true),
        LoadOp::Lhu => (AccessSize::Half, false),
        LoadOp::Lw => (AccessSize::Word, false),
    }
}

fn extend(data: u32, size: AccessSize, signed: bool) -> u32 {
    match (size, signed) {
        (AccessSize::Byte, true) => data as u8 as i8 as i32 as u32,
        (AccessSize::Byte, false) => data & 0xff,
        (AccessSize::Half, true) => data as u16 as i16 as i32 as u32,
        (AccessSize::Half, false) => data & 0xffff,
        (AccessSize::Word, _) => data,
    }
}

impl CoreEngine {
    /// Runs translated blocks from the current PC for up to `remaining`
    /// cycles, building the cache on first use. Caller guarantees the
    /// quiescent-batch contract plus: `busy == 0`, not parked in `wfi`,
    /// not halted, and no enabled pending interrupt.
    ///
    /// With `COSTEP` (a unit-active batch) the coprocessor is stepped
    /// after every consumed cycle, in exactly the per-cycle platform
    /// order (core work first, then the coprocessor's port cycle);
    /// otherwise `coproc` is left alone.
    pub(crate) fn try_blocks<const COSTEP: bool>(
        &mut self,
        bus: &mut dyn DataBus,
        coproc: &mut dyn Coprocessor,
        remaining: u64,
    ) -> BlockOutcome {
        let mut cache = self.blocks.take().unwrap_or_else(|| {
            Box::new(BlockCache::new(
                self.imem.base(),
                self.imem.end() - self.imem.base(),
            ))
        });
        let out = self.run_blocks::<COSTEP>(&mut cache, bus, coproc, remaining);
        self.blocks = Some(cache);
        out
    }

    fn run_blocks<const COSTEP: bool>(
        &mut self,
        cache: &mut BlockCache,
        bus: &mut dyn DataBus,
        co: &mut dyn Coprocessor,
        remaining: u64,
    ) -> BlockOutcome {
        let entry_cycle = self.cycle;
        let mut lag: u64 = 0; // bus cycles owed (flushed before any access)
        let mut pending: u32 = 0; // trailing drain of the last issued op
        let mut engaged = false;
        let mut event = None;
        let mut attention = false;

        loop {
            let pc = self.state.pc;
            if pc & 3 != 0 || !self.imem.contains(pc) {
                break;
            }
            // The cheapest step costs `pending + 1` cycles; don't even
            // dispatch when that cannot fit.
            if (self.cycle - entry_cycle) + u64::from(pending) + 1 > remaining {
                break;
            }
            let Some(slot) =
                cache.lookup_or_build(pc, &self.params, &self.imem, &mut self.counters)
            else {
                break;
            };
            self.counters.block_hits += 1;
            let (exit, fused, any) = {
                let block = cache.blocks[slot as usize].as_ref().expect("live slot");
                self.dispatch_block::<COSTEP>(
                    block,
                    bus,
                    co,
                    remaining,
                    entry_cycle,
                    &mut lag,
                    &mut pending,
                )
            };
            {
                let block = cache.blocks[slot as usize].as_mut().expect("live slot");
                block.execs += 1;
                block.fused_execs += fused;
            }
            self.counters.fused_ops += fused;
            engaged |= any;
            match exit {
                // In a co-stepped batch, stop chaining once the
                // coprocessor drains idle: the plain quiescent batch path
                // is faster from here.
                StepExit::Done => {
                    if COSTEP && co.is_idle() {
                        break;
                    }
                    continue;
                }
                StepExit::Budget | StepExit::Barrier => break,
                StepExit::Event(ev) => {
                    event = Some(ev);
                    break;
                }
                StepExit::Attention => {
                    attention = true;
                    break;
                }
            }
        }

        if !engaged {
            debug_assert!(lag == 0 && pending == 0 && self.cycle == entry_cycle);
            return BlockOutcome::NotEngaged;
        }
        // Exactly like an interpreter step sequence ending here: the
        // trailing drain becomes `busy` (the outer loop bulk-skips it,
        // clipping to the batch budget), the bus clock catches up, and
        // `mcycle` reflects the consumed cycles.
        self.busy = pending;
        if lag > 0 {
            bus.advance_cycles(lag);
        }
        self.state.csrs.mcycle = self.cycle as u32;
        BlockOutcome::Ran { event, attention }
    }

    /// Executes one block's steps, replaying the interpreter's timing
    /// per step. Returns how the dispatch ended, the number of fused
    /// macro-ops executed, and whether any step executed at all.
    ///
    /// With `COSTEP` (a unit-active batch) every consumed cycle is
    /// replayed individually — bus clock first, the core's work for that
    /// cycle, then the coprocessor's step — so the shared-port
    /// arbitration the coprocessor sees is bit-identical to per-cycle
    /// stepping; `lag` stays zero in that mode.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn dispatch_block<const COSTEP: bool>(
        &mut self,
        block: &Block,
        bus: &mut dyn DataBus,
        co: &mut dyn Coprocessor,
        remaining: u64,
        entry_cycle: u64,
        lag: &mut u64,
        pending: &mut u32,
    ) -> (StepExit, u64, bool) {
        let p = self.params;
        let mut widx = 0usize;
        let mut fused_execs = 0u64;
        let mut any = false;

        for step in &block.steps {
            let wpc = block.start.wrapping_add(4 * widx as u32);
            let issue: u64 = match step {
                Step::Fused(_) => 2,
                _ => 1,
            };
            if (self.cycle - entry_cycle) + u64::from(*pending) + issue > remaining {
                return (StepExit::Budget, fused_execs, any);
            }
            // Drain the previous op, then spend this op's issue cycle —
            // the same cycles the interpreter's busy-skip and
            // `advance_cycles(1)`+`step` would consume. Co-stepped
            // dispatch replays them one at a time: the drain cycles give
            // the coprocessor the port cycles the core left idle.
            if COSTEP {
                for _ in 0..*pending {
                    bus.advance_cycles(1);
                    self.cycle += 1;
                    co.step(&mut self.state, bus);
                }
                bus.advance_cycles(1);
                self.cycle += 1;
            } else {
                let spend = u64::from(*pending) + 1;
                self.cycle += spend;
                *lag += spend;
            }
            *pending = 0;
            any = true;

            let exit: Option<StepExit> = 'exec: {
                match step {
                    Step::Single(uop) => {
                        match *uop {
                            Uop::AluRR { op, rd, rs1, rs2 } => {
                                let v = alu(op, self.state.read_reg(rs1), self.state.read_reg(rs2));
                                self.state.write_reg(rd, v);
                                self.retire_trace(wpc);
                                self.attribute(wpc, 1);
                                self.state.pc = wpc.wrapping_add(4);
                            }
                            Uop::AluRI { op, rd, rs1, imm } => {
                                let v = alu(op, self.state.read_reg(rs1), imm);
                                self.state.write_reg(rd, v);
                                self.retire_trace(wpc);
                                self.attribute(wpc, 1);
                                self.state.pc = wpc.wrapping_add(4);
                            }
                            Uop::MovImm { rd, value } => {
                                self.state.write_reg(rd, value);
                                self.retire_trace(wpc);
                                self.attribute(wpc, 1);
                                self.state.pc = wpc.wrapping_add(4);
                            }
                            Uop::MulDiv { op, rd, rs1, rs2 } => {
                                let v =
                                    muldiv(op, self.state.read_reg(rs1), self.state.read_reg(rs2));
                                self.state.write_reg(rd, v);
                                self.retire_trace(wpc);
                                let lat = match op {
                                    rvsim_isa::MulDivOp::Mul
                                    | rvsim_isa::MulDivOp::Mulh
                                    | rvsim_isa::MulDivOp::Mulhsu
                                    | rvsim_isa::MulDivOp::Mulhu => p.mul_latency,
                                    _ => p.div_latency,
                                };
                                *pending = lat.saturating_sub(1);
                                self.attribute(wpc, 1 + u64::from(*pending));
                                self.counters.stall_exec += u64::from(*pending);
                                self.state.pc = wpc.wrapping_add(4);
                            }
                            Uop::Load {
                                op,
                                rd,
                                rs1,
                                offset,
                            } => {
                                let addr = self.state.read_reg(rs1).wrapping_add(offset);
                                let (size, signed) = load_shape(op);
                                if addr % size.bytes() != 0 {
                                    let ev =
                                        self.block_trap(wpc, csr::CAUSE_MISALIGNED_LOAD, pending);
                                    break 'exec Some(StepExit::Event(ev));
                                }
                                bus.advance_cycles(std::mem::take(lag));
                                let resp = bus.core_access(addr, size, None);
                                self.state.write_reg(rd, extend(resp.data, size, signed));
                                self.retire_trace(wpc);
                                *pending =
                                    (p.load_base_latency + resp.extra_latency).saturating_sub(1);
                                self.attribute(wpc, 1 + u64::from(*pending));
                                self.counters.stall_mem += u64::from(*pending);
                                self.state.pc = wpc.wrapping_add(4);
                                if bus.take_attention() {
                                    break 'exec Some(StepExit::Attention);
                                }
                            }
                            Uop::Store {
                                op,
                                rs1,
                                rs2,
                                offset,
                            } => {
                                let addr = self.state.read_reg(rs1).wrapping_add(offset);
                                let size = match op {
                                    rvsim_isa::StoreOp::Sb => AccessSize::Byte,
                                    rvsim_isa::StoreOp::Sh => AccessSize::Half,
                                    rvsim_isa::StoreOp::Sw => AccessSize::Word,
                                };
                                if addr % size.bytes() != 0 {
                                    let ev =
                                        self.block_trap(wpc, csr::CAUSE_MISALIGNED_STORE, pending);
                                    break 'exec Some(StepExit::Event(ev));
                                }
                                let value = self.state.read_reg(rs2);
                                bus.advance_cycles(std::mem::take(lag));
                                let resp = bus.core_access(addr, size, Some(value));
                                self.retire_trace(wpc);
                                *pending = (p.store_latency + resp.extra_latency).saturating_sub(1);
                                self.attribute(wpc, 1 + u64::from(*pending));
                                self.counters.stall_mem += u64::from(*pending);
                                self.state.pc = wpc.wrapping_add(4);
                                if bus.take_attention() {
                                    break 'exec Some(StepExit::Attention);
                                }
                            }
                            Uop::Branch {
                                op,
                                rs1,
                                rs2,
                                taken_pc,
                                fall_pc,
                            } => {
                                let taken = branch_taken(
                                    op,
                                    self.state.read_reg(rs1),
                                    self.state.read_reg(rs2),
                                );
                                self.retire_trace(wpc);
                                *pending = self.branch_drain(wpc, taken);
                                self.attribute(wpc, 1 + u64::from(*pending));
                                self.counters.stall_control += u64::from(*pending);
                                self.state.pc = if taken { taken_pc } else { fall_pc };
                            }
                            Uop::Jal {
                                link,
                                link_value,
                                target,
                            } => {
                                self.state.write_reg(link, link_value);
                                self.retire_trace(wpc);
                                *pending = p.jump_penalty;
                                self.attribute(wpc, 1 + u64::from(*pending));
                                self.counters.stall_control += u64::from(*pending);
                                self.state.pc = target;
                            }
                            Uop::Jalr {
                                link,
                                link_value,
                                rs1,
                                offset,
                            } => {
                                let target = self.state.read_reg(rs1).wrapping_add(offset) & !1;
                                self.state.write_reg(link, link_value);
                                self.retire_trace(wpc);
                                *pending = p.jalr_penalty;
                                self.attribute(wpc, 1 + u64::from(*pending));
                                self.counters.stall_control += u64::from(*pending);
                                self.state.pc = target;
                            }
                            Uop::Csr {
                                op,
                                rd,
                                csr: addr,
                                src,
                            } => {
                                // The interpreter syncs `mcycle` at every
                                // step entry; a translated CSR read must
                                // observe the same value.
                                self.state.csrs.mcycle = self.cycle as u32;
                                let old = self.state.csrs.read(addr);
                                let operand = if op.is_immediate() {
                                    u32::from(src)
                                } else {
                                    self.state.read_reg(Reg::from_number(src))
                                };
                                let new = match op {
                                    CsrOp::Rw | CsrOp::Rwi => Some(operand),
                                    CsrOp::Rs | CsrOp::Rsi => {
                                        (operand != 0).then_some(old | operand)
                                    }
                                    CsrOp::Rc | CsrOp::Rci => {
                                        (operand != 0).then_some(old & !operand)
                                    }
                                };
                                if let Some(v) = new {
                                    self.state.csrs.write(addr, v);
                                }
                                self.state.write_reg(rd, old);
                                self.retire_trace(wpc);
                                *pending = p.csr_latency.saturating_sub(1);
                                self.attribute(wpc, 1 + u64::from(*pending));
                                self.counters.stall_exec += u64::from(*pending);
                                self.state.pc = wpc.wrapping_add(4);
                                // An actual write to a gate CSR stops the
                                // chain: only the caller's interrupt-gate
                                // check may issue further instructions.
                                // (The builder made any such access the
                                // block's terminal step.)
                                if new.is_some() && matches!(addr, csr::MSTATUS | csr::MIE) {
                                    break 'exec Some(StepExit::Barrier);
                                }
                            }
                            _ => unreachable!("fused uop in a Single step"),
                        }
                        widx += 1;
                    }
                    Step::Pair { first, second } => {
                        // Both retire in this one cycle, exactly like the
                        // interpreter's `continue`d issue loop.
                        self.exec_simple(first);
                        self.retire_trace(wpc);
                        self.counters.issued_pairs += 1;
                        self.exec_simple(second);
                        let second_pc = wpc.wrapping_add(4);
                        self.retire_trace(second_pc);
                        self.attribute(second_pc, 1);
                        self.state.pc = wpc.wrapping_add(8);
                        widx += 2;
                    }
                    Step::Fused(uop) => {
                        match *uop {
                            Uop::LoadImm {
                                rd_hi,
                                hi,
                                rd,
                                value,
                            } => {
                                self.state.write_reg(rd_hi, hi);
                                self.retire_trace(wpc);
                                self.attribute(wpc, 1);
                                self.fused_mid_cycle::<COSTEP>(bus, co, lag);
                                self.state.write_reg(rd, value);
                                let second_pc = wpc.wrapping_add(4);
                                self.retire_trace(second_pc);
                                self.attribute(second_pc, 1);
                                self.state.pc = wpc.wrapping_add(8);
                            }
                            Uop::AuipcJalr {
                                rd1,
                                pcrel,
                                link,
                                link_value,
                                target,
                            } => {
                                self.state.write_reg(rd1, pcrel);
                                self.retire_trace(wpc);
                                self.attribute(wpc, 1);
                                self.fused_mid_cycle::<COSTEP>(bus, co, lag);
                                self.state.write_reg(link, link_value);
                                let second_pc = wpc.wrapping_add(4);
                                self.retire_trace(second_pc);
                                *pending = p.jalr_penalty;
                                self.attribute(second_pc, 1 + u64::from(*pending));
                                self.counters.stall_control += u64::from(*pending);
                                self.state.pc = target;
                            }
                            Uop::CmpBranch {
                                op,
                                rd,
                                rs1,
                                src2,
                                branch_if_nonzero,
                                taken_pc,
                                fall_pc,
                            } => {
                                let b = match src2 {
                                    UopSrc::Reg(r) => self.state.read_reg(r),
                                    UopSrc::Imm(v) => v,
                                };
                                let cmp = alu(op, self.state.read_reg(rs1), b);
                                self.state.write_reg(rd, cmp);
                                self.retire_trace(wpc);
                                self.attribute(wpc, 1);
                                self.fused_mid_cycle::<COSTEP>(bus, co, lag);
                                let taken = (cmp != 0) == branch_if_nonzero;
                                let second_pc = wpc.wrapping_add(4);
                                self.retire_trace(second_pc);
                                *pending = self.branch_drain(second_pc, taken);
                                self.attribute(second_pc, 1 + u64::from(*pending));
                                self.counters.stall_control += u64::from(*pending);
                                self.state.pc = if taken { taken_pc } else { fall_pc };
                            }
                            _ => unreachable!("unfused uop in a Fused step"),
                        }
                        fused_execs += 1;
                        widx += 2;
                    }
                }
                None
            };
            // The issue cycle's coprocessor step — after the core's work,
            // exactly where the per-cycle platform loop puts it (even
            // when the step trapped or raised attention).
            if COSTEP {
                co.step(&mut self.state, bus);
            }
            if let Some(e) = exit {
                return (e, fused_execs, any);
            }
        }
        (StepExit::Done, fused_execs, any)
    }

    /// A fused macro-op's mid-step cycle boundary: the first constituent
    /// is done, the second begins next cycle. Co-stepped dispatch takes
    /// the coprocessor's step for the finished cycle and advances the bus
    /// clock; plain dispatch just accrues lag.
    #[inline]
    fn fused_mid_cycle<const COSTEP: bool>(
        &mut self,
        bus: &mut dyn DataBus,
        co: &mut dyn Coprocessor,
        lag: &mut u64,
    ) {
        if COSTEP {
            co.step(&mut self.state, bus);
            bus.advance_cycles(1);
            self.cycle += 1;
        } else {
            self.cycle += 1;
            *lag += 1;
        }
    }

    /// Branch drain cycles: the interpreter's `control_latency` minus the
    /// issue cycle, including the predictor update.
    fn branch_drain(&mut self, pc: u32, taken: bool) -> u32 {
        let p = self.params;
        if p.has_predictor {
            if self.predict_taken(pc, taken) == taken {
                0
            } else {
                p.branch_penalty
            }
        } else if taken {
            p.branch_penalty
        } else {
            0
        }
    }

    /// Synchronous-exception entry from block mode: the issue cycle is
    /// already consumed and counted, but nothing retires. The interpreter
    /// pushes and immediately pops the trace entry, which drops the
    /// oldest entry when the ring is full — replicated exactly.
    fn block_trap(&mut self, pc: u32, cause: u32, pending: &mut u32) -> CoreEvent {
        self.trace.drop_oldest_if_full();
        let target = self.state.csrs.enter_trap(pc, cause);
        self.state.pc = target;
        let drain = self.params.irq_entry_latency.saturating_sub(1);
        *pending = drain;
        self.counters.stall_irq_entry += u64::from(drain);
        self.attribute(target, 1 + u64::from(drain));
        CoreEvent::ExceptionEntered { cause }
    }

    /// One retirement: bumps the retire counter and pushes the trace
    /// entry at the current cycle, exactly as the interpreter does.
    #[inline]
    fn retire_trace(&mut self, pc: u32) {
        self.retired += 1;
        self.trace.push((self.cycle, pc));
    }

    #[inline]
    fn exec_simple(&mut self, uop: &Uop) {
        match *uop {
            Uop::AluRR { op, rd, rs1, rs2 } => {
                let v = alu(op, self.state.read_reg(rs1), self.state.read_reg(rs2));
                self.state.write_reg(rd, v);
            }
            Uop::AluRI { op, rd, rs1, imm } => {
                let v = alu(op, self.state.read_reg(rs1), imm);
                self.state.write_reg(rd, v);
            }
            Uop::MovImm { rd, value } => self.state.write_reg(rd, value),
            _ => unreachable!("pair constituents are simple ALU ops"),
        }
    }
}
