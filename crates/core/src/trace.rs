//! Switch-episode analysis.
//!
//! Helpers over switch episodes: per-cause latency breakdowns over
//! `(cause, latency)` pairs (the cause-dispatch paths of the ISR differ in
//! length, which is where the last cycles of (SLT) jitter come from), and
//! the ISR overhead of a [`SwitchRecord`] stream.

use crate::stats::{LatencyStats, SwitchRecord};
use rvsim_isa::csr;

/// Human-readable name of an interrupt cause.
pub fn cause_name(cause: u32) -> &'static str {
    match cause {
        csr::CAUSE_TIMER => "timer",
        csr::CAUSE_SOFTWARE => "yield",
        csr::CAUSE_EXTERNAL => "external",
        _ => "unknown",
    }
}

/// Splits `(cause, latency)` episodes by cause and computes per-cause
/// statistics, in a stable order (timer, yield, external). Causes with no
/// episodes, and causes outside those three, are omitted.
pub fn per_cause_stats(
    episodes: impl IntoIterator<Item = (u32, u64)>,
) -> Vec<(&'static str, LatencyStats)> {
    const CAUSES: [u32; 3] = [csr::CAUSE_TIMER, csr::CAUSE_SOFTWARE, csr::CAUSE_EXTERNAL];
    let mut latencies: [Vec<u64>; 3] = Default::default();
    for (cause, latency) in episodes {
        if let Some(i) = CAUSES.iter().position(|&c| c == cause) {
            latencies[i].push(latency);
        }
    }
    CAUSES
        .into_iter()
        .zip(latencies)
        .filter_map(|(cause, lat)| {
            LatencyStats::from_latencies(&lat).map(|s| (cause_name(cause), s))
        })
        .collect()
}

/// Fraction of cycles spent inside ISR episodes over `total_cycles`
/// (the RTOS overhead the paper's acceleration reclaims).
pub fn isr_overhead(records: &[SwitchRecord], total_cycles: u64) -> f64 {
    if total_cycles == 0 {
        return 0.0;
    }
    let busy: u64 = records.iter().map(|r| r.mret_cycle - r.entry_cycle).sum();
    busy as f64 / total_cycles as f64
}

/// One line per cause of the `(cause, latency)` episodes: count, mean,
/// min/max, jitter — the textual equivalent of a Fig. 9 bar with its Δ
/// whisker.
pub fn summary_table(episodes: impl IntoIterator<Item = (u32, u64)>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} {:>8} {:>6} {:>6} {:>7}\n",
        "cause", "count", "mean", "min", "max", "jitter"
    ));
    for (name, s) in per_cause_stats(episodes) {
        out.push_str(&format!(
            "{:<10} {:>6} {:>8.1} {:>6} {:>6} {:>7}\n",
            name,
            s.count,
            s.mean,
            s.min,
            s.max,
            s.jitter()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trigger: u64, entry: u64, mret: u64, cause: u32) -> SwitchRecord {
        SwitchRecord {
            trigger_cycle: trigger,
            entry_cycle: entry,
            mret_cycle: mret,
            cause,
        }
    }

    #[test]
    fn per_cause_separates_distributions() {
        let records = [
            rec(0, 4, 70, csr::CAUSE_SOFTWARE),
            rec(100, 104, 170, csr::CAUSE_SOFTWARE),
            rec(200, 204, 400, csr::CAUSE_TIMER),
        ];
        let stats = per_cause_stats(records.iter().map(|r| (r.cause, r.latency())));
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, "timer");
        assert_eq!(stats[0].1.count, 1);
        assert_eq!(stats[1].0, "yield");
        assert_eq!(stats[1].1.count, 2);
        assert_eq!(stats[1].1.min, 70);
    }

    #[test]
    fn overhead_fraction() {
        let records = vec![
            rec(0, 10, 60, csr::CAUSE_TIMER),
            rec(100, 110, 160, csr::CAUSE_TIMER),
        ];
        let ov = isr_overhead(&records, 1000);
        assert!((ov - 0.1).abs() < 1e-9);
        assert_eq!(isr_overhead(&records, 0), 0.0);
    }

    #[test]
    fn summary_table_lists_causes() {
        let table = summary_table([(csr::CAUSE_EXTERNAL, 70)]);
        assert!(table.contains("external"));
        assert!(table.contains("70"));
    }

    #[test]
    fn cause_names() {
        assert_eq!(cause_name(csr::CAUSE_TIMER), "timer");
        assert_eq!(cause_name(0xdead), "unknown");
    }
}
