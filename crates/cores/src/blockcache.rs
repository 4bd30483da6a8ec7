//! Basic-block translation cache: pre-decoded micro-op superblocks.
//!
//! The interpreter pays a fetch → micro-op cache probe → gate checks per
//! instruction, plus one `DataBus` clock advance per cycle. This module
//! pre-decodes straight-line guest code into dense [`Uop`] buffers once
//! (dual-issue pairs and fusible macro-op pairs resolved statically) and
//! dispatches whole blocks, batching the bus clock into one
//! `advance_cycles` call per block chain.
//!
//! **One executor.** Every micro-op, in a block or not, issues through
//! `CoreEngine::issue`, so a block step changes nothing a per-cycle step
//! would not: cycles, retirements, trace entries, counters, profile
//! attribution and predictor updates are the executor's, and only *when*
//! ops issue is decided here. Dispatch spends each step's drain
//! and issue cycles exactly where the interpreter would (owing the bus
//! clock `lag` cycles until the next data access) and polls bus attention
//! after every data access. Two rules keep the grouping invisible:
//!
//! * Pairing is decided greedily from the block entry by the
//!   interpreter's own pairing rule (`CoreEngine::pairs`), exactly as its
//!   memoryless per-step pairing does; a block is trimmed so its cut
//!   never splits a pair the interpreter would have issued.
//! * Fusion only merges two steps the interpreter would have issued as
//!   *unpaired singles*, and issues both constituents one cycle apart —
//!   fusion saves a dispatch on the host, never a guest cycle.
//!
//! **Block lifecycle.** The cache itself is built on the engine's first
//! batched dispatch, so an engine that only steps per cycle never
//! allocates one. Blocks are built lazily at the executed PC and end at
//! control flow, before any system op (`mret`/`wfi`/`ecall`/`ebreak`/
//! `fence`/custom — the interpreter issues those), and at a CSR access
//! that could write the interrupt-gate CSRs (`mstatus`/`mie`): the write
//! may unmask a pending interrupt, so dispatch chains into the next block
//! only while no interrupt is takeable. Any instruction-memory rewrite
//! ([`CoreEngine::invalidate_decoded`], fault-injected IMEM flips) kills
//! every block covering the word, and `fence.i` flushes the whole cache;
//! per-entry-PC execution statistics survive invalidation so
//! retranslation shows up in the profiler.
//!
//! The cache is host bookkeeping, not machine state: snapshots leave it
//! out, and a restored engine starts cold. Blocks decode IMEM directly
//! and never touch the interpreter's per-word micro-op cache, which is
//! host bookkeeping of the same kind.

use crate::coproc::Coprocessor;
use crate::counters::CoreCounters;
use crate::engine::{BlockStats, CoreEngine, CoreEvent, DataBus};
use crate::timing::TimingParams;
use rvsim_isa::uop::{fuses, lower, Uop};
use rvsim_isa::{csr, decode, CsrOp, Instr};
use rvsim_mem::Mem;
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
    Pair(Uop, Uop),
    /// A fused macro-op pair: two instructions issued one cycle apart,
    /// two interpreter steps, one dispatch.
    Fused(Uop, Uop),
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

    #[inline]
    fn word_index(&self, addr: u32) -> usize {
        ((addr - self.base) / 4) as usize
    }

    /// The live block entered at `pc`, translating it if needed. `None`
    /// means the PC must execute on the interpreter path.
    #[inline]
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
            MAP_NONE => self.build_at(idx, pc, params, imem, counters),
            entry => Some(entry - 1),
        }
    }

    /// Translates the block entered at `pc`, map word `idx`, into a free
    /// slot, or marks the word as a fallback when it has no translation.
    #[inline(never)]
    fn build_at(
        &mut self,
        idx: usize,
        pc: u32,
        params: &TimingParams,
        imem: &Mem,
        counters: &mut CoreCounters,
    ) -> Option<u32> {
        let Some(block) = build_block(params, imem, pc) else {
            self.map[idx] = MAP_FALLBACK;
            return None;
        };
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
    let mut code: Vec<(Instr, Uop)> = Vec::new();
    let mut terminated = false;
    let mut pc = start;
    while imem.contains(pc) {
        let Ok(instr) = decode(imem.read_word(pc)) else {
            break;
        };
        let uop = lower(&instr, pc);
        if matches!(
            uop,
            Uop::Mret | Uop::Wfi | Uop::Halt | Uop::Fence | Uop::Custom { .. }
        ) {
            break; // system op: the interpreter issues it
        }
        code.push((instr, uop));
        if instr.is_control_flow() {
            terminated = true;
            break;
        }
        // A CSR access that could write the interrupt-gate CSRs
        // (`mstatus`/`mie`) ends the block: the write may unmask a pending
        // interrupt, which dispatch must let the caller take before any
        // further issue. Every other CSR access — reads, and writes to
        // non-gate CSRs such as `mscratch`/`mepc`/`mcause` — stays
        // mid-block.
        if let Uop::Csr {
            op, csr: addr, src, ..
        } = uop
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
        if code.len() >= MAX_WORDS {
            break;
        }
        pc = pc.wrapping_add(4);
    }

    // 2. Greedy pairing from the entry — ground truth for the
    // interpreter's memoryless per-step pairing.
    let mut n = code.len();
    let mut pair_first = vec![false; n];
    if params.dual_issue {
        let mut i = 0;
        while i + 1 < n {
            if CoreEngine::pairs(&code[i].1, || Some(code[i + 1].1)) {
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
            let tail_pairs = CoreEngine::pairs(&code[n - 1].1, || {
                imem.contains(next_pc)
                    .then(|| imem.read_word(next_pc))
                    .and_then(|word| decode(word).ok())
                    .map(|instr| lower(&instr, next_pc))
            });
            if tail_pairs {
                code.pop();
                pair_first.pop();
                n -= 1;
            }
        }
    }
    if code.is_empty() {
        return None;
    }

    // 4. Group into steps: pairs as decided, macro-op fusion only between
    // two adjacent *unpaired single* steps (so fusing never steals a pair
    // and the issued timing is exactly two interpreter steps).
    let mut steps = Vec::with_capacity(n);
    let mut i = 0;
    while i < n {
        let (instr, uop) = code[i];
        let step = if pair_first[i] {
            Step::Pair(uop, code[i + 1].1)
        } else if i + 1 < n && !pair_first[i + 1] && fuses(&instr, &code[i + 1].0) {
            Step::Fused(uop, code[i + 1].1)
        } else {
            i += 1;
            steps.push(Step::Single(uop));
            continue;
        };
        steps.push(step);
        i += 2;
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
    pub(crate) fn try_blocks<const COSTEP: bool, B: DataBus, C: Coprocessor>(
        &mut self,
        bus: &mut B,
        coproc: &mut C,
        remaining: u64,
    ) -> BlockOutcome {
        let mut cache = self.blocks.take().unwrap_or_else(|| {
            Box::new(BlockCache::new(
                self.imem.base(),
                self.imem.end() - self.imem.base(),
            ))
        });
        let out = self.run_blocks::<COSTEP, B, C>(&mut cache, bus, coproc, remaining);
        self.blocks = Some(cache);
        out
    }

    fn run_blocks<const COSTEP: bool, B: DataBus, C: Coprocessor>(
        &mut self,
        cache: &mut BlockCache,
        bus: &mut B,
        co: &mut C,
        remaining: u64,
    ) -> BlockOutcome {
        let entry_cycle = self.cycle;
        let mut lag: u64 = 0; // bus cycles owed (paid before any access)
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
            let block = cache.blocks[slot as usize].as_mut().expect("live slot");
            let (exit, fused, any) = self.dispatch_block::<COSTEP, B, C>(
                &block.steps,
                bus,
                co,
                remaining,
                entry_cycle,
                &mut lag,
                &mut pending,
            );
            block.execs += 1;
            block.fused_execs += fused;
            self.counters.fused_ops += fused;
            engaged |= any;
            match exit {
                // Chain only while no interrupt is takeable (a gate-CSR
                // write ending the block may have unmasked one, and only
                // the caller may take it) and, in a co-stepped batch,
                // until the coprocessor drains idle: the plain quiescent
                // batch path is faster from there.
                StepExit::Done => {
                    if (COSTEP && co.is_idle()) || self.takeable_interrupt().is_some() {
                        break;
                    }
                }
                StepExit::Budget => break,
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
        // clipping to the batch budget) and the bus clock catches up.
        self.busy = pending;
        if lag > 0 {
            bus.advance_cycles(lag);
        }
        BlockOutcome::Ran { event, attention }
    }

    /// Issues one block's steps at the cycles the interpreter would.
    /// Returns how the dispatch ended, the number of fused macro-ops
    /// executed, and whether any step executed at all.
    ///
    /// With `COSTEP` (a unit-active batch) every consumed cycle is taken
    /// individually — bus clock first, the core's work for that cycle,
    /// then the coprocessor's step — so the shared-port arbitration the
    /// coprocessor sees is bit-identical to per-cycle stepping; `lag`
    /// stays zero in that mode.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_block<const COSTEP: bool, B: DataBus, C: Coprocessor>(
        &mut self,
        steps: &[Step],
        bus: &mut B,
        co: &mut C,
        remaining: u64,
        entry_cycle: u64,
        lag: &mut u64,
        pending: &mut u32,
    ) -> (StepExit, u64, bool) {
        let mut fused_execs = 0u64;
        let mut any = false;

        for step in steps {
            let issue: u64 = match step {
                Step::Fused(..) => 2,
                _ => 1,
            };
            if (self.cycle - entry_cycle) + u64::from(*pending) + issue > remaining {
                return (StepExit::Budget, fused_execs, any);
            }
            // Drain the previous op, then spend this op's issue cycle —
            // the same cycles the interpreter's busy-skip and
            // `advance_cycles(1)`+`step` would consume. Co-stepped
            // dispatch takes them one at a time: the drain cycles give
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
            any = true;

            // Straight-line steps leave `pc` at the next step's address.
            let pc = self.state.pc;
            let second_pc = pc.wrapping_add(4);
            let issued = match step {
                Step::Single(uop) => self.issue(*uop, pc, false, bus, co, lag),
                Step::Pair(first, second) => {
                    self.issue(*first, pc, true, bus, co, lag);
                    self.issue(*second, second_pc, false, bus, co, lag)
                }
                Step::Fused(first, second) => {
                    self.issue(*first, pc, false, bus, co, lag);
                    self.fused_mid_cycle::<COSTEP, B, C>(bus, co, lag);
                    fused_execs += 1;
                    self.issue(*second, second_pc, false, bus, co, lag)
                }
            };
            *pending = issued.drain;
            let exit = match (issued.trap, step) {
                (Some(ev), _) => Some(StepExit::Event(ev)),
                (None, Step::Single(Uop::Load { .. } | Uop::Store { .. }))
                    if bus.take_attention() =>
                {
                    Some(StepExit::Attention)
                }
                _ => None,
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
    fn fused_mid_cycle<const COSTEP: bool, B: DataBus, C: Coprocessor>(
        &mut self,
        bus: &mut B,
        co: &mut C,
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
}
