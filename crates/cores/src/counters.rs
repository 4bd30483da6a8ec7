//! Per-engine activity counters: where the core's cycles went.
//!
//! The engine attributes every non-issue cycle to a cause **at issue
//! time** (the drain length of an instruction is fully decided when it
//! issues), so the batched [`run_until`](crate::CoreEngine::run_until)
//! fast path — which burns stall stretches in bulk — produces counter
//! values identical to per-cycle stepping. The batching differential
//! tests assert this.
//!
//! Counters are plain integers, always on (a handful of adds per
//! retired instruction), and read out as a [`CoreCounters`] snapshot.

use rvsim_snapshot::{self as snap, Json, SnapError};

/// Snapshot of one engine's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Fetches served from the decoded-instruction cache.
    pub decode_hits: u64,
    /// Fetches that had to decode the IMEM word.
    pub decode_misses: u64,
    /// Superscalar pairs issued (second instruction was free).
    pub issued_pairs: u64,
    /// Stall cycles from execute-stage latency (mul/div, CSR, custom).
    pub stall_exec: u64,
    /// Stall cycles from the memory port: load/store base latency plus
    /// cache misses, write-throughs and bus contention.
    pub stall_mem: u64,
    /// Stall cycles from control flow (branch/jump penalties).
    pub stall_control: u64,
    /// Pipeline-flush cycles on interrupt entry.
    pub stall_irq_entry: u64,
    /// Drain cycles of `mret` (including coprocessor-imposed latency).
    pub stall_mret: u64,
    /// Cycles where issue was gated by a coprocessor stall
    /// (`SWITCH_RF` handshakes, `mret` held for background restore).
    pub stall_coproc: u64,
    /// Cycles parked in `wfi`.
    pub wfi_cycles: u64,
    /// Basic-block dispatches served from the translation cache (batched
    /// execution only; zero on the per-cycle path).
    pub block_hits: u64,
    /// Basic blocks translated into the cache (first builds plus
    /// retranslations after invalidation).
    pub block_builds: u64,
    /// Fused macro-op executions (each retires two guest instructions).
    pub fused_ops: u64,
}

impl CoreCounters {
    /// Total stall cycles across all causes (excluding `wfi` parking).
    pub fn total_stalls(&self) -> u64 {
        self.stall_exec
            + self.stall_mem
            + self.stall_control
            + self.stall_irq_entry
            + self.stall_mret
            + self.stall_coproc
    }

    /// `(name, value)` pairs in a stable order, for machine-readable
    /// artifacts.
    pub fn named(&self) -> [(&'static str, u64); 13] {
        [
            ("decode_hits", self.decode_hits),
            ("decode_misses", self.decode_misses),
            ("issued_pairs", self.issued_pairs),
            ("stall_exec", self.stall_exec),
            ("stall_mem", self.stall_mem),
            ("stall_control", self.stall_control),
            ("stall_irq_entry", self.stall_irq_entry),
            ("stall_mret", self.stall_mret),
            ("stall_coproc", self.stall_coproc),
            ("wfi_cycles", self.wfi_cycles),
            ("block_hits", self.block_hits),
            ("block_builds", self.block_builds),
            ("fused_ops", self.fused_ops),
        ]
    }

    /// This snapshot with the block-cache bookkeeping fields zeroed.
    ///
    /// The block cache changes *how* the engine executes, never *what*
    /// it executes: every architectural counter (decode cache, pairing,
    /// stall attribution, `wfi` parking) must match the interpreter
    /// exactly. The bookkeeping trio (`block_hits`, `block_builds`,
    /// `fused_ops`) records fast-path machinery that the interpreter by
    /// definition never exercises, so equivalence tests compare through
    /// this view.
    pub fn without_block_stats(&self) -> CoreCounters {
        CoreCounters {
            block_hits: 0,
            block_builds: 0,
            fused_ops: 0,
            ..*self
        }
    }

    /// Serializes the architectural counters (stable
    /// [`named`](Self::named) order) for a machine-state snapshot. The
    /// block-cache bookkeeping trio is host data, not machine state: it
    /// depends on how a run was chunked into batches, so it is left out.
    pub fn to_snap(&self) -> Json {
        let mut obj = Json::object();
        for (name, value) in self.named() {
            if !matches!(name, "block_hits" | "block_builds" | "fused_ops") {
                obj.push(name, value);
            }
        }
        obj
    }

    /// Rebuilds the counters from [`to_snap`](Self::to_snap) output. The
    /// block-cache bookkeeping trio starts at zero, like the restored
    /// engine's cache.
    ///
    /// # Errors
    ///
    /// Fails on missing or non-integer fields.
    pub fn from_snap(value: &Json) -> Result<CoreCounters, SnapError> {
        Ok(CoreCounters {
            decode_hits: snap::get_u64(value, "decode_hits")?,
            decode_misses: snap::get_u64(value, "decode_misses")?,
            issued_pairs: snap::get_u64(value, "issued_pairs")?,
            stall_exec: snap::get_u64(value, "stall_exec")?,
            stall_mem: snap::get_u64(value, "stall_mem")?,
            stall_control: snap::get_u64(value, "stall_control")?,
            stall_irq_entry: snap::get_u64(value, "stall_irq_entry")?,
            stall_mret: snap::get_u64(value, "stall_mret")?,
            stall_coproc: snap::get_u64(value, "stall_coproc")?,
            wfi_cycles: snap::get_u64(value, "wfi_cycles")?,
            ..CoreCounters::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_names_are_consistent() {
        let c = CoreCounters {
            stall_exec: 1,
            stall_mem: 2,
            stall_control: 3,
            stall_irq_entry: 4,
            stall_mret: 5,
            stall_coproc: 6,
            wfi_cycles: 100,
            ..CoreCounters::default()
        };
        assert_eq!(c.total_stalls(), 21);
        let named = c.named();
        assert_eq!(named.len(), 13);
        assert!(named.iter().any(|&(n, v)| n == "wfi_cycles" && v == 100));
    }

    #[test]
    fn without_block_stats_zeroes_only_the_bookkeeping_trio() {
        let c = CoreCounters {
            decode_hits: 7,
            issued_pairs: 3,
            block_hits: 40,
            block_builds: 5,
            fused_ops: 11,
            ..CoreCounters::default()
        };
        let v = c.without_block_stats();
        assert_eq!(v.decode_hits, 7);
        assert_eq!(v.issued_pairs, 3);
        assert_eq!(v.block_hits, 0);
        assert_eq!(v.block_builds, 0);
        assert_eq!(v.fused_ops, 0);
    }

    #[test]
    fn snapshots_leave_out_the_bookkeeping_trio() {
        let c = CoreCounters {
            decode_hits: 7,
            wfi_cycles: 9,
            block_hits: 40,
            block_builds: 5,
            fused_ops: 11,
            ..CoreCounters::default()
        };
        let doc = c.to_snap();
        assert!(!doc.render().contains("block_") && !doc.render().contains("fused"));
        let back = CoreCounters::from_snap(&doc).expect("restores");
        assert_eq!(back, c.without_block_stats());
    }
}
