//! Cycle-attributed guest PC profiling.
//!
//! When enabled on a [`CoreEngine`](crate::engine::CoreEngine), every
//! simulated cycle is attributed to one guest PC *at issue time* — the
//! same trick the activity counters use — so a profile is bit-identical
//! whether the engine ran per-cycle or through batched `run_until`, and
//! enabling it never changes timing (the profiler only counts).
//!
//! Attribution rules (mirroring the engine's cycle consumption):
//!
//! * an issued instruction gets its full latency (`1 + busy` drain),
//!   charged to the issuing PC the moment the drain length is decided;
//! * a superscalar pair charges the shared cycle (plus drain) to the
//!   *second* PC of the pair;
//! * interrupt/exception entry charges the flush (`1 + busy`) to the trap
//!   *target* PC — handler prologues show their true entry cost;
//! * `wfi` park cycles are charged to the `wfi` instruction's PC
//!   (per-cycle and bulk paths agree by construction);
//! * a coprocessor-stalled issue charges each stall cycle to the stalled
//!   PC.
//!
//! [`PcProfile::hot_blocks`] folds the per-PC bins into straight-line
//! basic-block ranges (split at control transfers and their targets) and
//! ranks them — the seed list for a future translation cache (ROADMAP
//! item 1). [`PcProfile::folded`] emits `flamegraph.pl`-style folded
//! stacks for visualisation.

use rvsim_isa::Instr;
use rvsim_snapshot::{self as snap, Json, SnapError};

/// Cycles binned per guest PC over one instruction memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcProfile {
    base: u32,
    bins: Vec<u64>,
    /// Cycles attributed to PCs outside the instruction memory (trap
    /// vectors pointing nowhere, misconfigured guests).
    pub other: u64,
}

/// One straight-line run of instructions with its attributed cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotBlock {
    /// First instruction address of the block.
    pub start: u32,
    /// Last instruction address of the block (inclusive).
    pub end: u32,
    /// Simulated cycles attributed to PCs inside the block.
    pub cycles: u64,
}

impl HotBlock {
    /// Number of instruction slots the block spans.
    pub fn len(&self) -> usize {
        ((self.end - self.start) / 4 + 1) as usize
    }

    /// Whether the block is empty (never true for emitted blocks).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl PcProfile {
    /// An empty profile over an instruction memory of `size` bytes based
    /// at `base`.
    pub fn new(base: u32, size: u32) -> PcProfile {
        PcProfile {
            base,
            bins: vec![0; size.div_ceil(4) as usize],
            other: 0,
        }
    }

    /// Base address of the profiled instruction memory.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Serializes the per-PC bins (run-length encoded) for a
    /// machine-state snapshot. The profiled range is the engine's IMEM.
    pub fn to_snap(&self) -> Json {
        Json::object()
            .with("bins", snap::runs_to_json(&self.bins))
            .with("other", self.other)
    }

    /// Rebuilds a profile over an instruction memory of `size` bytes
    /// based at `base` — the caller's — from [`to_snap`](Self::to_snap)
    /// output.
    ///
    /// # Errors
    ///
    /// Fails on missing fields or bins that do not cover the memory.
    pub fn from_snap(value: &Json, base: u32, size: u32) -> Result<PcProfile, SnapError> {
        Ok(PcProfile {
            base,
            bins: snap::runs_from_json(snap::field(value, "bins")?, size.div_ceil(4) as usize)?,
            other: snap::get_u64(value, "other")?,
        })
    }

    /// Attributes `cycles` to `pc`.
    #[inline]
    pub fn add(&mut self, pc: u32, cycles: u64) {
        let idx = pc.wrapping_sub(self.base) / 4;
        match self.bins.get_mut(idx as usize) {
            Some(bin) => *bin += cycles,
            None => self.other += cycles,
        }
    }

    /// Total attributed cycles (including out-of-range ones).
    pub fn total_cycles(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.other
    }

    /// Cycles attributed to `pc` (0 when outside the memory).
    pub fn cycles_at(&self, pc: u32) -> u64 {
        let idx = pc.wrapping_sub(self.base) / 4;
        self.bins.get(idx as usize).copied().unwrap_or(0)
    }

    /// `(pc, cycles)` for every PC with non-zero attribution, ascending.
    pub fn nonzero(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.base + (i as u32) * 4, c))
    }

    /// Merges another profile over the same instruction memory (per-hart
    /// profiles into a machine-wide view).
    ///
    /// # Panics
    ///
    /// Panics when the memories differ in base or size.
    pub fn merge(&mut self, other: &PcProfile) {
        assert_eq!(self.base, other.base, "merging profiles of different imems");
        assert_eq!(
            self.bins.len(),
            other.bins.len(),
            "merging profiles of different imems"
        );
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += b;
        }
        self.other += other.other;
    }

    /// Folds the per-PC bins into ranked basic blocks. `decode` maps a PC
    /// to its decoded instruction (`None` for data words / out-of-range) —
    /// pass the owning engine's decoder so the segmentation sees exactly
    /// what executed.
    ///
    /// Blocks are split after any control transfer (branch, `jal`,
    /// `jalr`, `mret`, `ebreak`/`ecall`, `wfi`) and before any
    /// statically-known branch/jump target, then ranked by attributed
    /// cycles, descending. Zero-cycle blocks are dropped.
    pub fn hot_blocks(&self, mut decode: impl FnMut(u32) -> Option<Instr>) -> Vec<HotBlock> {
        let n = self.bins.len();
        // Leader flags: block starts at base, after each block ender, and
        // at each statically-known control-transfer target.
        let mut leader = vec![false; n];
        let mut ender = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for i in 0..n {
            let pc = self.base + (i as u32) * 4;
            let Some(instr) = decode(pc) else { continue };
            let target = match instr {
                Instr::Jal { offset, .. } => Some(pc.wrapping_add(offset as u32)),
                Instr::Branch { offset, .. } => Some(pc.wrapping_add(offset as u32)),
                _ => None,
            };
            if let Some(t) = target {
                let ti = t.wrapping_sub(self.base) / 4;
                if let Some(l) = leader.get_mut(ti as usize) {
                    *l = true;
                }
            }
            if matches!(
                instr,
                Instr::Jal { .. }
                    | Instr::Jalr { .. }
                    | Instr::Branch { .. }
                    | Instr::Mret
                    | Instr::Ebreak
                    | Instr::Ecall
                    | Instr::Wfi
            ) {
                ender[i] = true;
                if i + 1 < n {
                    leader[i + 1] = true;
                }
            }
        }
        let mut blocks = Vec::new();
        let mut start = 0usize;
        let mut cycles = 0u64;
        for i in 0..n {
            if leader[i] && i > start && cycles > 0 {
                blocks.push(HotBlock {
                    start: self.base + (start as u32) * 4,
                    end: self.base + ((i - 1) as u32) * 4,
                    cycles,
                });
            }
            if leader[i] && i > start {
                start = i;
                cycles = 0;
            } else if leader[i] {
                start = i;
            }
            cycles += self.bins[i];
            if ender[i] {
                if cycles > 0 {
                    blocks.push(HotBlock {
                        start: self.base + (start as u32) * 4,
                        end: self.base + (i as u32) * 4,
                        cycles,
                    });
                }
                start = i + 1;
                cycles = 0;
            }
        }
        if start < n && cycles > 0 {
            blocks.push(HotBlock {
                start: self.base + (start as u32) * 4,
                end: self.base + ((n - 1) as u32) * 4,
                cycles,
            });
        }
        blocks.sort_by(|a, b| b.cycles.cmp(&a.cycles).then(a.start.cmp(&b.start)));
        blocks
    }

    /// Renders the profile as `flamegraph.pl` folded-stack lines, one per
    /// hot block: `"<root>;block_<start>_<end> <cycles>"`. The guest has
    /// no call-stack metadata, so the "stack" is two frames deep — root
    /// label (e.g. `hart0`) over the block.
    pub fn folded(&self, root: &str, decode: impl FnMut(u32) -> Option<Instr>) -> String {
        let mut out = String::new();
        for b in self.hot_blocks(decode) {
            out.push_str(&format!(
                "{root};block_{:#010x}_{:#010x} {}\n",
                b.start, b.end, b.cycles
            ));
        }
        if self.other > 0 {
            out.push_str(&format!("{root};outside_imem {}\n", self.other));
        }
        out
    }
}

/// Renders a ranked hot-block table (top `limit` rows) with each block's
/// share of total attributed cycles — the seed list for a translation
/// cache.
pub fn hot_block_report(profile: &PcProfile, blocks: &[HotBlock], limit: usize) -> String {
    let total = profile.total_cycles().max(1);
    let mut out = String::from("| rank | block | instrs | cycles | share |\n");
    out.push_str("|---|---|---|---|---|\n");
    for (rank, b) in blocks.iter().take(limit).enumerate() {
        out.push_str(&format!(
            "| {} | {:#010x}..{:#010x} | {} | {} | {:.2}% |\n",
            rank + 1,
            b.start,
            b.end,
            b.len(),
            b.cycles,
            b.cycles as f64 * 100.0 / total as f64,
        ));
    }
    out
}

/// Renders the ranked hot-block table with per-block translation-cache
/// columns appended: dispatches, hit rate, fused macro-ops executed and
/// retranslations, from [`BlockStats`](crate::engine::BlockStats) folded
/// over each block's PC range (pass the owning engine's
/// `block_stats_in`). Blocks the cache never entered show all-zero
/// columns — e.g. handler bodies reached only through trap entry.
pub fn hot_block_report_with_blocks(
    profile: &PcProfile,
    blocks: &[HotBlock],
    limit: usize,
    mut stats: impl FnMut(u32, u32) -> crate::engine::BlockStats,
) -> String {
    let total = profile.total_cycles().max(1);
    let mut out = String::from(
        "| rank | block | instrs | cycles | share | bc execs | hit rate | fused | retrans |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for (rank, b) in blocks.iter().take(limit).enumerate() {
        let s = stats(b.start, b.end);
        out.push_str(&format!(
            "| {} | {:#010x}..{:#010x} | {} | {} | {:.2}% | {} | {:.1}% | {} | {} |\n",
            rank + 1,
            b.start,
            b.end,
            b.len(),
            b.cycles,
            b.cycles as f64 * 100.0 / total as f64,
            s.execs,
            s.hit_rate() * 100.0,
            s.fused,
            s.retranslations(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_isa::{Asm, Reg};

    fn decoder(program: &rvsim_isa::Program) -> impl FnMut(u32) -> Option<Instr> + '_ {
        move |pc| {
            let idx = pc.wrapping_sub(program.base) / 4;
            program
                .words
                .get(idx as usize)
                .and_then(|&w| rvsim_isa::decode(w).ok())
        }
    }

    #[test]
    fn attribution_and_totals() {
        let mut p = PcProfile::new(0x100, 0x40);
        p.add(0x100, 3);
        p.add(0x104, 1);
        p.add(0x100, 2);
        p.add(0xdead_0000, 7); // outside
        assert_eq!(p.cycles_at(0x100), 5);
        assert_eq!(p.total_cycles(), 13);
        assert_eq!(
            p.nonzero().collect::<Vec<_>>(),
            vec![(0x100, 5), (0x104, 1)]
        );
    }

    #[test]
    fn merge_requires_matching_imem_and_adds_bins() {
        let mut a = PcProfile::new(0, 0x20);
        let mut b = PcProfile::new(0, 0x20);
        a.add(0, 1);
        b.add(0, 2);
        b.add(4, 3);
        a.merge(&b);
        assert_eq!(a.cycles_at(0), 3);
        assert_eq!(a.cycles_at(4), 3);
    }

    #[test]
    fn blocks_split_at_control_flow_and_targets() {
        // 0x00: addi t0,t0,1
        // 0x04: bnez t0, 0x00      <- ender, target makes 0x00 a leader
        // 0x08: addi t1,t1,1
        // 0x0c: ebreak             <- ender
        let mut a = Asm::new(0);
        a.label("top");
        a.addi(Reg::T0, Reg::T0, 1);
        a.bnez(Reg::T0, "top");
        a.addi(Reg::T1, Reg::T1, 1);
        a.ebreak();
        let prog = a.finish().unwrap();
        let mut p = PcProfile::new(0, 0x10);
        p.add(0x0, 10);
        p.add(0x4, 30);
        p.add(0x8, 1);
        p.add(0xc, 1);
        let blocks = p.hot_blocks(decoder(&prog));
        assert_eq!(
            blocks,
            vec![
                HotBlock {
                    start: 0x0,
                    end: 0x4,
                    cycles: 40
                },
                HotBlock {
                    start: 0x8,
                    end: 0xc,
                    cycles: 2
                },
            ]
        );
        let folded = p.folded("guest", decoder(&prog));
        assert!(folded.contains("guest;block_0x00000000_0x00000004 40"));
        let report = hot_block_report(&p, &blocks, 10);
        assert!(report.contains("| 1 | 0x00000000..0x00000004 | 2 | 40 |"));
    }

    #[test]
    fn block_cache_columns_render_hit_rate_and_retranslations() {
        let mut a = Asm::new(0);
        a.label("top");
        a.addi(Reg::T0, Reg::T0, 1);
        a.bnez(Reg::T0, "top");
        a.ebreak();
        let prog = a.finish().unwrap();
        let mut p = PcProfile::new(0, 0x10);
        p.add(0x0, 40);
        let blocks = p.hot_blocks(decoder(&prog));
        // 10 dispatches, 3 builds over 1 entry PC: 70% hit rate, 2
        // retranslations.
        let report =
            hot_block_report_with_blocks(&p, &blocks, 10, |_, _| crate::engine::BlockStats {
                builds: 3,
                execs: 10,
                fused: 4,
                entries: 1,
            });
        assert!(report.contains("| 10 | 70.0% | 4 | 2 |"), "{report}");
    }
}
