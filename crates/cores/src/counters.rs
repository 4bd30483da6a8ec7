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
    /// Interpreted fetches served from the per-word decode cache (host
    /// bookkeeping: block dispatch does not fetch through it).
    pub decode_hits: u64,
    /// Interpreted fetches that had to decode the IMEM word (host
    /// bookkeeping, like `decode_hits`).
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
    /// Basic-block dispatches served from the translation cache (host
    /// bookkeeping; zero on the per-cycle path).
    pub block_hits: u64,
    /// Basic blocks translated into the cache, first builds plus
    /// retranslations after invalidation (host bookkeeping).
    pub block_builds: u64,
    /// Always zero: the block cache issues no macro-op fusion. Kept only
    /// because perfbench's `rvsim_cores.fused_ops` metric reads it; it is
    /// not among [`named`](Self::named), so no artifact or snapshot
    /// carries it.
    pub fused_ops: u64,
}

impl CoreCounters {
    /// The fields that count host-cache work — the per-word decode cache
    /// and the block translation cache — rather than the simulated
    /// machine. They depend on which execution path ran and where a run
    /// was split into batches, so equivalence tests compare through
    /// [`without_host_stats`](Self::without_host_stats) and snapshots
    /// leave them out.
    pub const HOST_STATS: [&'static str; 4] =
        ["decode_hits", "decode_misses", "block_hits", "block_builds"];

    /// Total stall cycles across all causes (excluding `wfi` parking).
    pub fn total_stalls(&self) -> u64 {
        self.stall_exec
            + self.stall_mem
            + self.stall_control
            + self.stall_irq_entry
            + self.stall_mret
            + self.stall_coproc
    }

    /// Every field by name, in the stable [`named`](Self::named) order.
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 12] {
        [
            ("decode_hits", &mut self.decode_hits),
            ("decode_misses", &mut self.decode_misses),
            ("issued_pairs", &mut self.issued_pairs),
            ("stall_exec", &mut self.stall_exec),
            ("stall_mem", &mut self.stall_mem),
            ("stall_control", &mut self.stall_control),
            ("stall_irq_entry", &mut self.stall_irq_entry),
            ("stall_mret", &mut self.stall_mret),
            ("stall_coproc", &mut self.stall_coproc),
            ("wfi_cycles", &mut self.wfi_cycles),
            ("block_hits", &mut self.block_hits),
            ("block_builds", &mut self.block_builds),
        ]
    }

    /// `(name, value)` pairs in a stable order, for machine-readable
    /// artifacts.
    pub fn named(&self) -> [(&'static str, u64); 12] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, value)| (name, *value))
    }

    /// This snapshot with the [`HOST_STATS`](Self::HOST_STATS) fields
    /// zeroed: the view in which every execution path, and a restored
    /// engine, must agree.
    pub fn without_host_stats(&self) -> CoreCounters {
        let mut view = *self;
        for (name, value) in view.fields_mut() {
            if Self::HOST_STATS.contains(&name) {
                *value = 0;
            }
        }
        view
    }

    /// Serializes the machine-state counters (stable
    /// [`named`](Self::named) order) for a snapshot, leaving out the
    /// [`HOST_STATS`](Self::HOST_STATS) fields.
    pub fn to_snap(&self) -> Json {
        let mut obj = Json::object();
        for (name, value) in self.named() {
            if !Self::HOST_STATS.contains(&name) {
                obj.push(name, value);
            }
        }
        obj
    }

    /// Rebuilds the counters from [`to_snap`](Self::to_snap) output. The
    /// host fields start at zero, like the restored engine's caches.
    ///
    /// # Errors
    ///
    /// Fails on missing or non-integer fields.
    pub fn from_snap(value: &Json) -> Result<CoreCounters, SnapError> {
        let mut counters = CoreCounters::default();
        for (name, slot) in counters.fields_mut() {
            if !Self::HOST_STATS.contains(&name) {
                *slot = snap::get_u64(value, name)?;
            }
        }
        Ok(counters)
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
        assert_eq!(named.len(), 12);
        assert!(named.iter().any(|&(n, v)| n == "wfi_cycles" && v == 100));
    }

    #[test]
    fn without_host_stats_zeroes_only_the_host_fields() {
        let c = CoreCounters {
            decode_hits: 7,
            decode_misses: 2,
            issued_pairs: 3,
            stall_mem: 4,
            block_hits: 40,
            block_builds: 5,
            ..CoreCounters::default()
        };
        let v = c.without_host_stats();
        assert_eq!(
            v,
            CoreCounters {
                issued_pairs: 3,
                stall_mem: 4,
                ..CoreCounters::default()
            }
        );
    }

    #[test]
    fn snapshots_leave_out_the_host_fields() {
        let c = CoreCounters {
            decode_hits: 7,
            decode_misses: 2,
            wfi_cycles: 9,
            block_hits: 40,
            block_builds: 5,
            ..CoreCounters::default()
        };
        let text = c.to_snap().render();
        for name in CoreCounters::HOST_STATS {
            assert!(!text.contains(name), "{name} reached the snapshot");
        }
        let back = CoreCounters::from_snap(&c.to_snap()).expect("restores");
        assert_eq!(back, c.without_host_stats());
    }
}
