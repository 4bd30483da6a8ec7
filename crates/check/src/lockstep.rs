//! Golden-model lockstep execution.
//!
//! Runs one constrained random program on a timing engine
//! ([`rvsim_cores::CoreEngine`]) and on the golden architectural executor
//! ([`rvsim_cores::GoldenCore`]) simultaneously, diffing the full
//! architectural state — registers, PC, CSRs, and at the end of the
//! episode every word of data memory — at **every retire boundary**.
//!
//! Synchronisation works on retire counts, not cycles: the engine is
//! stepped cycle by cycle, and whenever a cycle retires `n` instructions
//! (0 while draining stalls, 1 normally, 2 for a dual-issue pair) the
//! golden core is stepped `n` times and the states compared. Interrupts
//! are timing, so the driver owns `mip` on both sides: a seed-derived plan
//! raises lines at chosen retire counts, and when the engine takes the
//! interrupt the driver demands the golden core take one too — with the
//! cause recomputed independently from the golden core's own CSRs.
//! Synchronous exceptions need no plan: the golden core discovers the same
//! misaligned access itself, and the driver merely checks cause equality.
//!
//! With [`EpisodeSpec::blocks`] set the engine instead runs through
//! batched [`run_until`](rvsim_cores::CoreEngine::run_until) calls — same
//! program, same golden model, but the block translation cache (the
//! simulator's fast path) does the executing. State is diffed after
//! every batch that retired an instruction or raised an event, so a
//! block that retires a wrong value, mis-orders a trap or survives an
//! imem write diverges within one batch. Interrupt lines rise at batch
//! granularity (`at_retire` is a lower bound there), which keeps episodes
//! deterministic while letting blocks chain freely inside a batch.
//!
//! With [`EpisodeSpec::snap`] set the engine is additionally round-tripped
//! through the snapshot codec
//! ([`CoreEngine::to_snap`](rvsim_cores::CoreEngine::to_snap) →
//! [`CoreEngine::from_snap`](rvsim_cores::CoreEngine::from_snap), a
//! fresh engine that then replaces the original) at pseudo-random retire
//! points. The round-trip must be invisible: any micro-architectural
//! state the codec fails to carry desynchronises the swapped-in engine
//! from the golden model and is caught by the ordinary lockstep diff.

use crate::coproc::{ScratchCoproc, ScratchUnit};
use rvsim_cores::{make_engine, CoreEvent, CoreKind, GoldenCore, GoldenStep, SramBus};
use rvsim_isa::progen::{generate, GenConfig, ProgramSpec};
use rvsim_isa::{csr, Reg, Rng64};
use rvsim_mem::Mem;

/// Instruction-memory window used by every episode.
pub const IMEM_BASE: u32 = 0;
/// Instruction-memory size in bytes.
pub const IMEM_SIZE: u32 = 0x1_0000;

/// One planned interrupt: raise `mask` once the engine has retired
/// `at_retire` instructions. The line stays up until taken (or the episode
/// ends); entry clears it, modelling an acknowledged edge interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqEvent {
    /// Retire count at which the line rises.
    pub at_retire: u64,
    /// `mip` bits to raise (`MIP_MSIP`/`MIP_MTIP`/`MIP_MEIP`).
    pub mask: u32,
}

/// A deliberately injected bug for harness self-tests: proves a real
/// divergence is caught, shrunk and replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip the low result bit of every `sltu`/`sltiu` the golden core
    /// retires — the classic "flipped carry" comparator bug.
    GoldenSltuFlip,
}

impl Fault {
    /// Stable artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Fault::GoldenSltuFlip => "golden_sltu_flip",
        }
    }

    /// Parses an artifact name.
    pub fn from_name(name: &str) -> Option<Fault> {
        match name {
            "golden_sltu_flip" => Some(Fault::GoldenSltuFlip),
            _ => None,
        }
    }
}

/// Everything one lockstep episode needs — self-contained, serializable,
/// shrinkable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpisodeSpec {
    /// Engine under test.
    pub core: CoreKind,
    /// The generated program.
    pub spec: ProgramSpec,
    /// Interrupt plan, sorted by retire count.
    pub irqs: Vec<IrqEvent>,
    /// Stop after this many retired instructions.
    pub max_retires: u64,
    /// Hard cycle budget (guards against park/stall loops).
    pub max_cycles: u64,
    /// Injected bug, if any (self-test only).
    pub fault: Option<Fault>,
    /// Drive the engine through batched `run_until` calls, which execute
    /// translated blocks, instead of per-cycle stepping.
    pub blocks: bool,
    /// Round-trip the engine through the snapshot codec at pseudo-random
    /// retire points mid-episode: serialize, restore into a fresh engine,
    /// and swap it in. The round-trip must be invisible — state the
    /// snapshot fails to carry diverges from the golden model within a
    /// few retires of the swap.
    pub snap: bool,
}

/// A state divergence between engine and golden model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// What diverged (e.g. `"x13"`, `"pc"`, `"mstatus"`, `"mem[0x...]"`).
    pub field: String,
    /// Engine-side value.
    pub engine: u32,
    /// Golden-side value.
    pub golden: u32,
    /// Retired-instruction count at the diff point.
    pub retired: u64,
    /// Engine cycle at the diff point.
    pub cycle: u64,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} diverged at retire {} (cycle {}): engine {:#010x}, golden {:#010x}",
            self.field, self.retired, self.cycle, self.engine, self.golden
        )
    }
}

/// Summary of a passing episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpisodeStats {
    /// Instructions retired by the engine.
    pub retired: u64,
    /// Engine cycles consumed.
    pub cycles: u64,
    /// Synchronous exceptions taken (misaligned fetch/load/store).
    pub exceptions: u64,
    /// Interrupts taken.
    pub interrupts: u64,
    /// Whether the guest halted (vs running out of budget).
    pub halted: bool,
    /// Translated-block dispatches (zero unless the episode ran with
    /// [`EpisodeSpec::blocks`]), counted since the last snapshot
    /// round-trip, which restores the engine with a cold cache.
    pub block_hits: u64,
    /// Mid-episode snapshot round-trips performed (zero unless the
    /// episode ran with [`EpisodeSpec::snap`]).
    pub snap_roundtrips: u64,
}

const CSR_FIELDS: [(&str, u16); 6] = [
    ("mstatus", csr::MSTATUS),
    ("mie", csr::MIE),
    ("mtvec", csr::MTVEC),
    ("mepc", csr::MEPC),
    ("mcause", csr::MCAUSE),
    ("mscratch", csr::MSCRATCH),
];

/// Derives the default interrupt plan for a seed: a handful of lines
/// raised at random retire counts.
pub fn default_irq_plan(seed: u64, max_retires: u64) -> Vec<IrqEvent> {
    let mut rng = Rng64::new(seed ^ 0x1234_5678_9abc_def0);
    let n = rng.below(7);
    let mut plan: Vec<IrqEvent> = (0..n)
        .map(|_| IrqEvent {
            at_retire: 1 + rng.below(max_retires.max(2) - 1),
            mask: *rng.pick(&[csr::MIP_MSIP, csr::MIP_MTIP, csr::MIP_MEIP]),
        })
        .collect();
    plan.sort_by_key(|e| e.at_retire);
    plan
}

/// Builds the full episode spec for `(core, seed)` under the default
/// budgets.
pub fn episode_for_seed(core: CoreKind, seed: u64, cfg: GenConfig) -> EpisodeSpec {
    let max_retires = 4 * cfg.len as u64 + 200;
    EpisodeSpec {
        core,
        spec: generate(seed, cfg),
        irqs: default_irq_plan(seed, max_retires),
        max_retires,
        max_cycles: 40 * max_retires,
        fault: None,
        blocks: false,
        snap: false,
    }
}

/// Tracks the pseudo-random retire points at which a `snap` episode
/// round-trips its engine through the snapshot codec. Gaps are
/// xorshift-derived from the episode's retire budget, so snapshot points
/// vary across episodes but are identical on replay.
struct SnapPlan {
    seq: u64,
    next: u64,
}

impl SnapPlan {
    fn new(ep: &EpisodeSpec) -> SnapPlan {
        let mut plan = SnapPlan {
            seq: 0x5eed_ca11_0dd5_ee1f ^ ep.max_retires,
            next: u64::MAX,
        };
        if ep.snap {
            plan.next = plan.gap();
        }
        plan
    }

    fn gap(&mut self) -> u64 {
        self.seq ^= self.seq << 13;
        self.seq ^= self.seq >> 7;
        self.seq ^= self.seq << 17;
        40 + self.seq % 200
    }

    /// Round-trips the engine (and its SRAM bus) through the snapshot
    /// codec if a snapshot point is due at the current retire count. The
    /// serialized form must be stable, restore bit-exactly into a fresh
    /// engine, and re-serialize identically; the restored engine then
    /// *replaces* the original, so any state the codec drops shows up as
    /// an ordinary lockstep divergence downstream.
    fn maybe_roundtrip(
        &mut self,
        engine: &mut rvsim_cores::CoreEngine,
        bus: &mut SramBus,
        core: CoreKind,
        stats: &mut EpisodeStats,
    ) -> Result<(), Mismatch> {
        if engine.retired() < self.next {
            return Ok(());
        }
        let fail = |field: String, e: &rvsim_cores::CoreEngine| Mismatch {
            field,
            engine: 0,
            golden: 0,
            retired: e.retired(),
            cycle: e.cycle(),
        };
        let doc = engine.to_snap();
        if doc.render() != engine.to_snap().render() {
            return Err(fail(
                "snapshot digest (unstable serialization)".into(),
                engine,
            ));
        }
        let fresh = rvsim_cores::CoreEngine::from_snap(core.timing(), IMEM_BASE, IMEM_SIZE, &doc)
            .map_err(|e| fail(format!("snapshot restore: {e}"), engine))?;
        if fresh.to_snap().render() != doc.render() {
            return Err(fail(
                "snapshot re-serialization after restore".into(),
                engine,
            ));
        }
        *engine = fresh;
        let (base, size) = (bus.mem.base(), bus.mem.end() - bus.mem.base());
        bus.mem = Mem::from_snap(&bus.mem.to_snap(), base, size)
            .map_err(|e| fail(format!("bus snapshot restore: {e}"), engine))?;
        stats.snap_roundtrips += 1;
        self.next = engine.retired() + self.gap();
        Ok(())
    }
}

/// One episode's freshly loaded execution harness: the engine under test
/// with its bus and coprocessor, and the golden core with its own unit.
struct Rig {
    engine: rvsim_cores::CoreEngine,
    bus: SramBus,
    coproc: ScratchCoproc,
    golden: GoldenCore,
    golden_unit: ScratchUnit,
    data_base: u32,
    data_len: u32,
}

fn build_rig(ep: &EpisodeSpec) -> Rig {
    let mut program = ep.spec.emit();
    // Fill the unused remainder of imem with `ebreak`: control flow that
    // escapes the program (e.g. a controlled mret whose target register
    // was perturbed by a mid-sequence trap) halts both sides cleanly
    // instead of fetching undecodable zeros.
    const EBREAK: u32 = 0x0010_0073;
    let imem_words = ((IMEM_BASE + IMEM_SIZE - program.base) / 4) as usize;
    program.words.resize(imem_words, EBREAK);
    let data_base = ep.spec.cfg.data_base;
    let data_len = ep.spec.cfg.data_len;

    let mut engine = make_engine(ep.core, IMEM_BASE, IMEM_SIZE);
    engine.load_program(&program);
    let mut golden = GoldenCore::new(IMEM_BASE, IMEM_SIZE, data_base, data_len);
    golden.load_program(&program);

    Rig {
        engine,
        bus: SramBus::new(data_base, data_len),
        coproc: ScratchCoproc(ScratchUnit::new()),
        golden,
        golden_unit: ScratchUnit::new(),
        data_base,
        data_len,
    }
}

/// Runs one lockstep episode to completion, returning stats on agreement
/// or the first divergence. The engine advances one cycle per
/// [`CoreEngine::step`](rvsim_cores::CoreEngine::step), or with
/// [`EpisodeSpec::blocks`] set by `BATCH`-cycle `run_until` calls through
/// the block translation cache. After each advance the golden core
/// catches up by the retire delta, trap causes are checked on both sides,
/// and the full state is diffed whenever the advance retired an
/// instruction or raised an event.
pub fn run_episode(ep: &EpisodeSpec) -> Result<EpisodeStats, Mismatch> {
    // Big enough for blocks to chain several times per batch, small
    // enough that a planned interrupt line is never starved for long.
    const BATCH: u64 = 64;

    let Rig {
        mut engine,
        mut bus,
        mut coproc,
        mut golden,
        mut golden_unit,
        data_base,
        data_len,
    } = build_rig(ep);

    let mut stats = EpisodeStats::default();
    let mut snap_plan = SnapPlan::new(ep);
    let mut mip: u32 = 0;
    let mut next_irq = 0usize;

    loop {
        if engine.retired() >= ep.max_retires || engine.cycle() >= ep.max_cycles {
            break;
        }
        // Raise planned lines that are due at this retire count. Inside a
        // batch the count runs ahead unobserved, so with blocks a line
        // rises at the first batch boundary at or after its `at_retire`.
        while let Some(ev) = ep.irqs.get(next_irq) {
            if engine.retired() >= ev.at_retire {
                mip |= ev.mask;
                next_irq += 1;
            } else {
                break;
            }
        }
        // A parked core with nothing pending never wakes: jump the plan
        // forward, or end the episode once it is exhausted.
        if engine.waiting_for_interrupt() && mip & engine.state.csrs.mie == 0 {
            match ep.irqs.get(next_irq) {
                Some(ev) => {
                    mip |= ev.mask;
                    next_irq += 1;
                    continue;
                }
                None => break,
            }
        }

        // `mip` is constant for the whole advance — exactly the
        // `run_until` batching contract.
        engine.state.csrs.mip = mip;
        let before = engine.retired();
        let event = if ep.blocks {
            let budget = BATCH.min(ep.max_cycles - engine.cycle());
            engine.run_until(&mut bus, &mut coproc, budget).event
        } else {
            engine.step(&mut bus, &mut coproc)
        };
        let retires = engine.retired() - before;

        // Mirror the engine's view of the lines onto the golden core for
        // exactly the instructions that retired in this advance.
        golden.mip = mip;
        for _ in 0..retires {
            step_golden(&mut golden, &mut golden_unit, ep.fault);
        }

        match event {
            Some(CoreEvent::InterruptEntered { cause }) => {
                stats.interrupts += 1;
                match golden.take_interrupt() {
                    Some(gc) if gc == cause => {}
                    other => {
                        return Err(Mismatch {
                            field: "interrupt cause".into(),
                            engine: cause,
                            golden: other.unwrap_or(0),
                            retired: engine.retired(),
                            cycle: engine.cycle(),
                        });
                    }
                }
                mip = 0;
                golden.mip = 0;
            }
            Some(CoreEvent::ExceptionEntered { cause }) => {
                stats.exceptions += 1;
                match step_golden(&mut golden, &mut golden_unit, ep.fault) {
                    GoldenStep::Trap(gc) if gc == cause => {}
                    other => {
                        return Err(Mismatch {
                            field: format!("exception cause ({other:?} on golden side)"),
                            engine: cause,
                            golden: golden.mcause,
                            retired: engine.retired(),
                            cycle: engine.cycle(),
                        });
                    }
                }
            }
            _ => {}
        }

        if retires > 0 || event.is_some() {
            diff_state(&engine, &golden)?;
        }
        snap_plan.maybe_roundtrip(&mut engine, &mut bus, ep.core, &mut stats)?;
        if engine.halted() {
            stats.halted = true;
            break;
        }
    }

    stats.retired = engine.retired();
    stats.cycles = engine.cycle();
    stats.block_hits = engine.counters().block_hits;
    if golden.retired() != engine.retired() {
        return Err(Mismatch {
            field: "retire count".into(),
            engine: engine.retired() as u32,
            golden: golden.retired() as u32,
            retired: engine.retired(),
            cycle: engine.cycle(),
        });
    }
    diff_memory(&engine, &bus, &golden, data_base, data_len)?;
    Ok(stats)
}

/// Steps the golden core once, applying the injected fault.
fn step_golden(
    golden: &mut GoldenCore,
    unit: &mut ScratchUnit,
    fault: Option<Fault>,
) -> GoldenStep {
    let fault_target = match fault {
        Some(Fault::GoldenSltuFlip) => sltu_rd_at(golden),
        None => None,
    };
    let mut model = |op, a, b| unit.exec(op, a, b);
    let step = golden.step(&mut model);
    if step == GoldenStep::Retired {
        if let Some(rd) = fault_target {
            let v = golden.reg(rd);
            golden.write_reg(rd, v ^ 1);
        }
    }
    step
}

/// If the golden core's next instruction is `sltu`/`sltiu` with a real
/// destination, returns that destination (fault-injection helper).
fn sltu_rd_at(golden: &GoldenCore) -> Option<Reg> {
    use rvsim_isa::instr::{AluOp, Instr};
    let i = golden.peek()?;
    match i {
        Instr::Op {
            op: AluOp::Sltu,
            rd,
            ..
        }
        | Instr::OpImm {
            op: AluOp::Sltu,
            rd,
            ..
        } if rd != Reg::Zero => Some(rd),
        _ => None,
    }
}

fn diff_state(engine: &rvsim_cores::CoreEngine, golden: &GoldenCore) -> Result<(), Mismatch> {
    let at = |field: &str, e: u32, g: u32| -> Result<(), Mismatch> {
        if e != g {
            Err(Mismatch {
                field: field.to_string(),
                engine: e,
                golden: g,
                retired: engine.retired(),
                cycle: engine.cycle(),
            })
        } else {
            Ok(())
        }
    };
    for r in Reg::ALL {
        at(
            &format!("x{}", r.number()),
            engine.state.read_reg(r),
            golden.reg(r),
        )?;
    }
    at("pc", engine.state.pc, golden.pc)?;
    for (name, addr) in CSR_FIELDS {
        at(name, engine.state.csrs.read(addr), golden.csr(addr))?;
    }
    Ok(())
}

fn diff_memory(
    engine: &rvsim_cores::CoreEngine,
    bus: &SramBus,
    golden: &GoldenCore,
    data_base: u32,
    data_len: u32,
) -> Result<(), Mismatch> {
    for off in (0..data_len).step_by(4) {
        let addr = data_base + off;
        let e = bus.mem.read_word(addr);
        let g = golden.mem.read_word(addr);
        if e != g {
            return Err(Mismatch {
                field: format!("mem[{addr:#010x}]"),
                engine: e,
                golden: g,
                retired: engine.retired(),
                cycle: engine.cycle(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_are_deterministic() {
        let cfg = GenConfig {
            len: 64,
            ..GenConfig::default()
        };
        let a = run_episode(&episode_for_seed(CoreKind::Cv32e40p, 11, cfg));
        let b = run_episode(&episode_for_seed(CoreKind::Cv32e40p, 11, cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn small_episode_agrees_on_all_cores() {
        let cfg = GenConfig {
            len: 96,
            ..GenConfig::default()
        };
        for core in CoreKind::ALL {
            let ep = episode_for_seed(core, 42, cfg);
            let stats = run_episode(&ep).unwrap_or_else(|m| panic!("{core}: {m}"));
            assert!(stats.retired > 0);
        }
    }

    #[test]
    fn blocks_episodes_agree_and_engage_on_all_cores() {
        let cfg = GenConfig {
            len: 96,
            ..GenConfig::default()
        };
        for core in CoreKind::ALL {
            let mut hits = 0;
            for seed in [7, 42, 99] {
                let mut ep = episode_for_seed(core, seed, cfg);
                ep.blocks = true;
                let stats = run_episode(&ep).unwrap_or_else(|m| panic!("{core} seed {seed}: {m}"));
                assert!(stats.retired > 0);
                hits += stats.block_hits;
            }
            assert!(hits > 0, "{core}: block cache never engaged");
        }
    }

    #[test]
    fn blocks_episodes_are_deterministic() {
        let cfg = GenConfig {
            len: 64,
            ..GenConfig::default()
        };
        let mut ep = episode_for_seed(CoreKind::NaxRiscv, 11, cfg);
        ep.blocks = true;
        assert_eq!(run_episode(&ep), run_episode(&ep.clone()));
    }

    #[test]
    fn blocks_episodes_catch_the_injected_sltu_fault() {
        let cfg = GenConfig {
            len: 200,
            ..GenConfig::default()
        };
        let caught = (0..20).any(|seed| {
            let mut ep = episode_for_seed(CoreKind::Cv32e40p, seed, cfg);
            ep.fault = Some(Fault::GoldenSltuFlip);
            ep.blocks = true;
            run_episode(&ep).is_err()
        });
        assert!(
            caught,
            "no seed in 0..20 tripped the injected sltu fault under blocks"
        );
    }

    #[test]
    fn snapshot_roundtrips_are_invisible_mid_episode() {
        // Every engine, both execution paths: the episode's outcome with
        // mid-run snapshot/restore swaps must equal the undisturbed
        // outcome field for field, and the combined corpus must clear
        // the tier-1 floor of 1 000 instructions under snapshot stress.
        // A restored engine's block cache starts cold, so only its
        // dispatch count may differ.
        let cfg = GenConfig {
            len: 256,
            ..GenConfig::default()
        };
        let mut total = 0u64;
        let mut roundtrips = 0u64;
        for core in CoreKind::ALL {
            for blocks in [false, true] {
                for seed in [11, 42, 99] {
                    let mut ep = episode_for_seed(core, seed, cfg);
                    ep.blocks = blocks;
                    let base = run_episode(&ep)
                        .unwrap_or_else(|m| panic!("{core} seed {seed} blocks={blocks}: {m}"));
                    ep.snap = true;
                    let snapped = run_episode(&ep)
                        .unwrap_or_else(|m| panic!("{core} seed {seed} blocks={blocks} snap: {m}"));
                    assert_eq!(
                        base,
                        EpisodeStats {
                            snap_roundtrips: 0,
                            block_hits: base.block_hits,
                            ..snapped
                        },
                        "{core} seed {seed} blocks={blocks}: snapshot round-trip \
                         perturbed the episode"
                    );
                    total += snapped.retired;
                    roundtrips += snapped.snap_roundtrips;
                }
            }
        }
        assert!(
            total >= 1_000,
            "only {total} instructions executed under snapshot stress"
        );
        assert!(roundtrips > 0, "no snapshot point was ever reached");
    }

    #[test]
    fn snap_episodes_are_deterministic() {
        let cfg = GenConfig {
            len: 64,
            ..GenConfig::default()
        };
        let mut ep = episode_for_seed(CoreKind::Cva6, 11, cfg);
        ep.snap = true;
        assert_eq!(run_episode(&ep), run_episode(&ep.clone()));
    }

    #[test]
    fn injected_sltu_fault_is_caught() {
        let cfg = GenConfig {
            len: 200,
            ..GenConfig::default()
        };
        // Not every seed retires an sltu; scan a few until one diverges.
        let caught = (0..20).any(|seed| {
            let mut ep = episode_for_seed(CoreKind::Cv32e40p, seed, cfg);
            ep.fault = Some(Fault::GoldenSltuFlip);
            run_episode(&ep).is_err()
        });
        assert!(caught, "no seed in 0..20 tripped the injected sltu fault");
    }
}
