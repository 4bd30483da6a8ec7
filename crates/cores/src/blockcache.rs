//! Basic-block translation cache: pre-decoded micro-op superblocks.
//!
//! The interpreter pays a fetch → micro-op cache probe → gate checks per
//! instruction, plus one `DataBus` clock advance per cycle. This module
//! pre-decodes straight-line guest code into dense [`Uop`] buffers once
//! (dual-issue pairs resolved statically) and dispatches whole blocks,
//! batching the bus clock into one `advance_cycles` call per block chain.
//!
//! **One executor.** Every micro-op, in a block or not, issues through
//! `CoreEngine::issue`, so a block step changes nothing a per-cycle step
//! would not: cycles, retirements, counters, profile attribution and
//! predictor updates are the executor's, and only *when* ops issue is
//! decided here. (A straight-line ALU run retires in bulk, applying each
//! op's register write through `exec::alu_write`, the function `issue`
//! applies it with.) Dispatch spends each step's drain and issue
//! cycles exactly where the interpreter would (owing the bus clock `lag`
//! cycles until the next data access) and polls bus attention after
//! every data access. Two rules keep the grouping invisible:
//!
//! * A block holds only the steps the interpreter issues: singles and
//!   dual-issue pairs. Pairing is decided greedily from the block entry
//!   by the interpreter's own pairing rule (`CoreEngine::pairs`), exactly
//!   as its memoryless per-step pairing does; a block is trimmed so its
//!   cut never splits a pair the interpreter would have issued.
//! * A run of ALU-only steps retires as one step only when all its
//!   cycles fit the budget and the bank guard is off (see below);
//!   otherwise its steps issue one by one.
//!
//! **Span co-stepping.** While the coprocessor has work, dispatch owes it
//! its steps as it owes the bus clock, and settles both in one
//! `Coprocessor::advance` before every step that claims the data port or
//! reads or writes `mstatus`/`mepc`, and at a block exit where the
//! interrupt gate may read an `mstatus` a restore is writing (see
//! `CoreEngine::settle`). The *bank guard* — the core on the application
//! register bank while the unit still stores or restores it — makes every
//! step a settle point, the per-cycle order.
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
use crate::exec::alu_write;
use crate::state::Bank;
use crate::timing::TimingParams;
use rvsim_isa::uop::{lower, Uop};
use rvsim_isa::{csr, decode, CsrOp};
use rvsim_mem::Mem;
use std::collections::HashMap;

/// Longest block, in instruction words. Long enough to cover real ISR
/// bodies and kernel inner loops; short enough to keep translation cheap.
const MAX_WORDS: usize = 64;

/// One execution step of a block: what the interpreter would do in one
/// `step()` call, or the marker of an ALU run.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// One instruction.
    Single(Uop),
    /// A dual-issue pair: both retire in one cycle.
    Pair(Uop, Uop),
    /// Marker ahead of the steps of a straight-line ALU run, which plain
    /// dispatch may issue as one step instead (see `AluRun`).
    AluRun(AluRun),
}

impl Step {
    /// Whether every op of the step is an ALU-only op: one cycle, no
    /// drain, no bus, no trap, and a register write as its whole effect.
    fn alu_only(&self) -> bool {
        let alu = |u: &Uop| {
            matches!(
                u,
                Uop::AluRR { .. } | Uop::AluRI { .. } | Uop::MovImm { .. }
            )
        };
        match self {
            Step::Single(u) => alu(u),
            Step::Pair(a, b) => alu(a) && alu(b),
            Step::AluRun(_) => false,
        }
    }
}

/// A maximal run of two or more ALU-only steps: singles and dual-issue
/// pairs. Its issue cycles, retire count and pair count are fixed at
/// translation, so a run that fits the batch budget retires as one
/// record: one walk over its steps applies their register writes, then
/// each total is charged once (`CoreEngine::retire_alu_run`). The run's
/// steps follow its marker and stay the reference: dispatch under the
/// bank guard, and a run the budget cuts short, issue them one by one.
#[derive(Debug, Clone, Copy)]
struct AluRun {
    /// Steps after the marker that make up the run.
    steps: u32,
    /// Dual-issue pairs among them.
    pairs: u32,
}

impl AluRun {
    /// Instructions retired: one per step, two per pair.
    fn ops(&self) -> u32 {
        self.steps + self.pairs
    }
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
            self.stats.entry(b.start).or_default().execs += b.execs;
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
                out.entries += 1;
            }
        }
        for b in self.blocks.iter().flatten() {
            if b.start >= start && b.start <= end {
                out.execs += b.execs;
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
    let mut code = Vec::new();
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
        code.push(uop);
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

    // 2. Group into steps by greedy pairing from the entry — ground truth
    // for the interpreter's memoryless per-step pairing; every other op
    // is a single.
    let mut grouped = Vec::with_capacity(code.len());
    let mut i = 0;
    while i < code.len() {
        if params.dual_issue
            && i + 1 < code.len()
            && CoreEngine::pairs(&code[i], || Some(code[i + 1]))
        {
            grouped.push(Step::Pair(code[i], code[i + 1]));
            i += 2;
        } else {
            grouped.push(Step::Single(code[i]));
            i += 1;
        }
    }

    // 3. Never cut between a pair the interpreter would issue: if the
    // trailing step is an unpaired op that pairs with the word just past
    // the cut, drop it — the successor block will pair them. (At most one
    // drop: the pass already proved the new trailing op does not pair
    // with the dropped one.)
    let mut words = code.len() as u32;
    if params.dual_issue && !terminated {
        if let Some(Step::Single(last)) = grouped.last() {
            let next_pc = start.wrapping_add(4 * words);
            let tail_pairs = CoreEngine::pairs(last, || {
                imem.contains(next_pc)
                    .then(|| imem.read_word(next_pc))
                    .and_then(|word| decode(word).ok())
                    .map(|instr| lower(&instr, next_pc))
            });
            if tail_pairs {
                grouped.pop();
                words -= 1;
            }
        }
    }
    if grouped.is_empty() {
        return None;
    }

    // 4. Mark every maximal run of two or more ALU-only steps with a
    // marker step ahead of the run's steps.
    let mut steps = Vec::with_capacity(grouped.len());
    let mut rest = &grouped[..];
    while let Some(step) = rest.first() {
        let len = rest.iter().take_while(|s| s.alu_only()).count();
        if len < 2 {
            steps.push(*step);
            rest = &rest[1..];
            continue;
        }
        let (run, tail) = rest.split_at(len);
        steps.push(Step::AluRun(AluRun {
            steps: len as u32,
            pairs: run.iter().filter(|s| matches!(s, Step::Pair(..))).count() as u32,
        }));
        steps.extend_from_slice(run);
        rest = tail;
    }

    Some(Block {
        start,
        steps,
        words,
        execs: 0,
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

/// Whether co-stepped dispatch settles the unit before `step`: it claims
/// the data port (a load or store, MMIO included), or it reads or writes
/// `mstatus` or `mepc`, the CSRs a context store reads and a restore
/// writes.
#[inline(always)]
fn settles(step: &Step) -> bool {
    match step {
        Step::Single(Uop::Load { .. } | Uop::Store { .. }) => true,
        Step::Single(Uop::Csr { csr: addr, .. }) => matches!(*addr, csr::MSTATUS | csr::MEPC),
        _ => false,
    }
}

/// What dispatch owes across the steps of a block chain.
struct Run {
    /// Bus clock ticks owed (paid before any data access).
    lag: u64,
    /// Coprocessor steps owed while span co-stepping (`lag` or `lag +
    /// 1`, see `CoreEngine::settle`); zero in plain dispatch.
    owed: u64,
    /// Trailing drain of the last issued op.
    pending: u32,
    /// The bank guard (`CoreEngine::bank_guard`): every step is a settle
    /// point.
    guard: bool,
}

impl Run {
    /// Spends `cycles` of the core's: the bus clock owes them, and so
    /// does a span co-stepped coprocessor.
    #[inline(always)]
    fn spend<const SPAN: bool>(&mut self, cycles: u64) {
        self.lag += cycles;
        if SPAN {
            self.owed += cycles;
        }
    }
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
    /// `run_until` batch contract plus: `busy == 0`, not parked in `wfi`,
    /// not halted, no enabled pending interrupt, and the coprocessor and
    /// the bus settled at the current cycle.
    ///
    /// `run_until` passes `SPAN` while the coprocessor has work, and
    /// dispatch then span co-steps it (see the module docs): the unit
    /// catches up in one settle (`CoreEngine::settle`) at each settle
    /// point, and is settled when this returns. Otherwise it is idle,
    /// stays so (blocks hold no custom op or `mret`) and is left alone.
    pub(crate) fn try_blocks<const SPAN: bool, B: DataBus, C: Coprocessor>(
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
        let out = self.run_blocks::<SPAN, B, C>(&mut cache, bus, coproc, remaining);
        self.blocks = Some(cache);
        out
    }

    /// Whether co-stepped dispatch must settle the unit before every step:
    /// the core on the application bank while the unit's work reads or
    /// writes it. The only state a span cannot reorder; it can only
    /// clear while blocks run (bank switches and new unit work come from
    /// the interpreter's ops), so checking it per block is exact.
    fn bank_guard<C: Coprocessor>(&self, co: &C) -> bool {
        self.state.active_bank() == Bank::App && co.context_busy()
    }

    fn run_blocks<const SPAN: bool, B: DataBus, C: Coprocessor>(
        &mut self,
        cache: &mut BlockCache,
        bus: &mut B,
        co: &mut C,
        remaining: u64,
    ) -> BlockOutcome {
        let entry_cycle = self.cycle;
        let mut run = Run {
            lag: 0,
            owed: 0,
            pending: 0,
            guard: SPAN && self.bank_guard(co),
        };
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
            if (self.cycle - entry_cycle) + u64::from(run.pending) + 1 > remaining {
                break;
            }
            let Some(slot) =
                cache.lookup_or_build(pc, &self.params, &self.imem, &mut self.counters)
            else {
                break;
            };
            self.counters.block_hits += 1;
            let block = cache.blocks[slot as usize].as_mut().expect("live slot");
            let (exit, any) = self.dispatch_block::<SPAN, B, C>(
                &block.steps,
                bus,
                co,
                remaining,
                entry_cycle,
                &mut run,
            );
            block.execs += 1;
            engaged |= any;
            match exit {
                // Chain only while no interrupt is takeable (a gate-CSR
                // write ending the block may have unmasked one, and only
                // the caller may take it) and, when co-stepping, until the
                // coprocessor drains idle: `run_until` switches to plain
                // dispatch from there (its owed steps change nothing). A
                // context restore may write `mstatus`, which the gate
                // reads: with an interrupt pending and enabled and the
                // context busy, the block's last op drains and the unit
                // settles first.
                StepExit::Done => {
                    if SPAN {
                        if co.is_idle() {
                            break;
                        }
                        let pending_irq = self.state.csrs.mip & self.state.csrs.mie != 0;
                        if pending_irq && co.context_busy() {
                            let drain = u64::from(run.pending);
                            if (self.cycle - entry_cycle) + drain + 1 > remaining {
                                break;
                            }
                            self.cycle += drain;
                            run.spend::<SPAN>(drain);
                            run.pending = 0;
                            self.settle(bus, co, &mut run.lag, &mut run.owed, 0);
                            run.guard = self.bank_guard(co);
                        }
                    }
                    if self.takeable_interrupt().is_some() {
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
            debug_assert!(run.lag == 0 && run.pending == 0 && self.cycle == entry_cycle);
            return BlockOutcome::NotEngaged;
        }
        // Exactly like an interpreter step sequence ending here: the
        // trailing drain becomes `busy` (the outer loop bulk-skips it,
        // clipping to the batch budget), and the unit and the bus clock
        // catch up.
        self.busy = run.pending;
        if SPAN {
            self.settle(bus, co, &mut run.lag, &mut run.owed, 0);
        } else if run.lag > 0 {
            bus.advance_cycles(run.lag);
        }
        BlockOutcome::Ran { event, attention }
    }

    /// Issues one block's steps at the cycles the interpreter would.
    /// Returns how the dispatch ended and whether any step executed at
    /// all.
    ///
    /// An ALU run that fits the budget retires as one step, walking the
    /// run's steps once for their register writes. Every step spends its
    /// drain and issue cycles at once, owing them to the bus clock (paid
    /// before the next data access) and, with `SPAN`, to the coprocessor,
    /// which is settled before a step that claims the port or reads or
    /// writes `mstatus`/`mepc` — so it sees the port exactly as per-cycle
    /// stepping shows it — and before every step while the bank guard
    /// holds (then ALU runs issue step by step).
    fn dispatch_block<const SPAN: bool, B: DataBus, C: Coprocessor>(
        &mut self,
        steps: &[Step],
        bus: &mut B,
        co: &mut C,
        remaining: u64,
        entry_cycle: u64,
        run: &mut Run,
    ) -> (StepExit, bool) {
        let mut any = false;

        let mut steps = steps.iter();
        while let Some(step) = steps.next() {
            // The run drains the previous op and spends one issue cycle
            // per step, as its steps would, in one charge (ALU ops never
            // drain).
            if let Step::AluRun(alu) = step {
                let spend = u64::from(run.pending) + u64::from(alu.steps);
                if !run.guard && (self.cycle - entry_cycle) + spend <= remaining {
                    self.cycle += spend;
                    run.spend::<SPAN>(spend);
                    run.pending = 0;
                    let (run_steps, rest) = steps.as_slice().split_at(alu.steps as usize);
                    self.retire_alu_run(run_steps, alu);
                    steps = rest.iter();
                    any = true;
                }
                continue;
            }
            if (self.cycle - entry_cycle) + u64::from(run.pending) + 1 > remaining {
                return (StepExit::Budget, any);
            }
            // Drain the previous op, then spend this op's issue cycle —
            // the same cycles the interpreter's busy-skip and
            // `advance_cycles(1)`+`step` would consume.
            let spend = u64::from(run.pending) + 1;
            self.cycle += spend;
            run.spend::<SPAN>(spend);
            any = true;
            // A settle point: the unit's steps before this cycle go first.
            if SPAN && (run.guard || settles(step)) {
                self.settle(bus, co, &mut run.lag, &mut run.owed, 1);
            }

            // Straight-line steps leave `pc` at the next step's address.
            let pc = self.state.pc;
            let lag = &mut run.lag;
            let issued = match step {
                Step::Single(uop) => self.issue(*uop, pc, false, bus, co, lag),
                Step::Pair(first, second) => {
                    self.issue(*first, pc, true, bus, co, lag);
                    self.issue(*second, pc.wrapping_add(4), false, bus, co, lag)
                }
                Step::AluRun(_) => unreachable!("markers are not issued"),
            };
            run.pending = issued.drain;
            match (issued.trap, step) {
                (Some(ev), _) => return (StepExit::Event(ev), any),
                (None, Step::Single(Uop::Load { .. } | Uop::Store { .. }))
                    if bus.take_attention() =>
                {
                    return (StepExit::Attention, any)
                }
                _ => {}
            }
        }
        (StepExit::Done, any)
    }

    /// Retires the straight-line ALU run `run`, whose `steps` follow its
    /// marker, leaving the engine as issuing each step would: an ALU
    /// op's whole effect is its register write (`alu_write`), its latency
    /// is one cycle, so it drains nothing and counts no stall, and `pc`,
    /// the retire count and the pair count are charged once. The caller
    /// spends the run's cycles.
    #[inline(always)]
    fn retire_alu_run(&mut self, steps: &[Step], run: &AluRun) {
        for step in steps {
            match *step {
                Step::Single(op) => alu_write(&mut self.state, op),
                Step::Pair(first, second) => {
                    alu_write(&mut self.state, first);
                    alu_write(&mut self.state, second);
                }
                Step::AluRun(_) => unreachable!("runs are marked once"),
            }
        }
        let pc = self.state.pc;
        if self.profile().is_some() {
            self.attribute_alu_run(steps, pc);
        }
        self.state.pc = pc.wrapping_add(4 * run.ops());
        self.retired += u64::from(run.ops());
        self.counters.issued_pairs += u64::from(run.pairs);
    }

    /// The profile attribution of an ALU run's `steps` from `pc`, as
    /// `issue` makes it: one cycle per op at its PC, except a pair's
    /// leading op, whose cycle the op after it takes. Kept out of line,
    /// so that the walk over the steps that every run takes stays small
    /// enough for block dispatch to inline.
    #[cold]
    fn attribute_alu_run(&mut self, steps: &[Step], mut pc: u32) {
        for step in steps {
            let words = match step {
                Step::Single(_) => {
                    self.attribute(pc, 1);
                    1
                }
                Step::Pair(..) => {
                    self.attribute(pc.wrapping_add(4), 1);
                    2
                }
                Step::AluRun(_) => unreachable!("runs are marked once"),
            };
            pc = pc.wrapping_add(4 * words);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_isa::{Asm, Reg};

    /// `(ops, steps, pairs)` of each ALU run marked in the block
    /// entered at 0, after checking that each marker is followed by its
    /// run's ALU-only steps and then by no further ALU-only step.
    fn runs(params: &TimingParams, asm: Asm) -> Vec<(u32, u32, u32)> {
        let program = asm.finish().unwrap();
        let mut imem = Mem::new(0, 0x1000);
        imem.load_words(program.base, &program.words);
        let block = build_block(params, &imem, 0).expect("a block");
        let mut out = Vec::new();
        for (i, step) in block.steps.iter().enumerate() {
            let Step::AluRun(run) = step else {
                continue;
            };
            let (run_steps, after) = block.steps[i + 1..].split_at(run.steps as usize);
            assert!(run_steps.iter().all(Step::alu_only), "{run_steps:?}");
            assert!(!after.first().is_some_and(Step::alu_only), "{after:?}");
            out.push((run.ops(), run.steps, run.pairs));
        }
        out
    }

    #[test]
    fn build_block_marks_maximal_alu_runs() {
        let program = || {
            let mut a = Asm::new(0);
            a.add(Reg::S4, Reg::S2, Reg::S3);
            a.xor(Reg::S5, Reg::S4, Reg::S7);
            a.sw(Reg::A2, 0, Reg::T1);
            a.addi(Reg::A0, Reg::A0, 1); // a run of one step: unmarked
            a.lw(Reg::A5, 0, Reg::T1);
            a.li(Reg::S10, 0x1234_5678); // lui+addi
            a.or(Reg::S9, Reg::S8, Reg::S10);
            a.add(Reg::S2, Reg::S3, Reg::A3);
            a.addi(Reg::S3, Reg::S3, 3);
            a.addi(Reg::T0, Reg::T0, -1);
            a.sltu(Reg::T1, Reg::S2, Reg::S3);
            a.auipc(Reg::T2, 0); // only the control flow after it ends the run
            a.jalr(Reg::Zero, Reg::T2, 0);
            a
        };
        assert_eq!(
            runs(&TimingParams::cv32e40p(), program()),
            [(2, 2, 0), (8, 8, 0)]
        );
        // NaxRiscv pairs `or`+`add`, the two `addi`s and `sltu`+`auipc`.
        assert_eq!(
            runs(&TimingParams::naxriscv(), program()),
            [(2, 2, 0), (8, 5, 3)]
        );
    }
}
