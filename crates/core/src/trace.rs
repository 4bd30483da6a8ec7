//! Switch-episode analysis and timeline rendering.
//!
//! Helpers over switch episodes: per-cause latency breakdowns over
//! `(cause, latency)` pairs (the cause-dispatch paths of the ISR differ in
//! length, which is where the last cycles of (SLT) jitter come from), and
//! ISR overhead and an ASCII timeline over the [`SwitchRecord`] stream for
//! eyeballing a run.

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

/// Renders an ASCII timeline of `width` columns: `#` where an ISR was
/// executing, `.` where tasks ran, `^` marking trigger points.
pub fn render_timeline(records: &[SwitchRecord], total_cycles: u64, width: usize) -> String {
    assert!(width > 0, "timeline width must be positive");
    if total_cycles == 0 {
        return String::new();
    }
    let mut cols = vec!['.'; width];
    let scale = |cycle: u64| -> usize {
        // Clamp in u128 *before* narrowing: a past-horizon cycle could
        // otherwise wrap the cast and land anywhere in the row.
        let raw = (cycle as u128) * (width as u128) / (total_cycles as u128);
        raw.min((width - 1) as u128) as usize
    };
    for r in records {
        // Clamp both endpoints into the row and keep start <= end, so
        // past-horizon or inverted records degrade instead of panicking.
        let start = scale(r.entry_cycle);
        let end = scale(r.mret_cycle.min(total_cycles)).max(start);
        for c in &mut cols[start..=end] {
            *c = '#';
        }
    }
    for r in records {
        let t = scale(r.trigger_cycle);
        if cols[t] == '.' {
            cols[t] = '^';
        }
    }
    cols.into_iter().collect()
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
    fn timeline_marks_isr_and_triggers() {
        let records = vec![rec(100, 200, 400, csr::CAUSE_TIMER)];
        let t = render_timeline(&records, 1000, 10);
        assert_eq!(t.len(), 10);
        assert_eq!(&t[2..=4], "###");
        assert_eq!(t.as_bytes()[1], b'^');
        assert!(t.starts_with('.'));
    }

    #[test]
    fn timeline_tolerates_past_horizon_records() {
        // Regression: an episode past the analysis horizon used to make
        // the slice range start > end and panic.
        let records = vec![
            rec(900, 1500, 1600, csr::CAUSE_TIMER),
            rec(0, u64::MAX - 7, u64::MAX, csr::CAUSE_TIMER),
        ];
        let t = render_timeline(&records, 1000, 10);
        assert_eq!(t.len(), 10);
        assert_eq!(t.as_bytes()[9], b'#', "clamped to the last column");
        // Inverted record (mret before entry) degrades rather than panics.
        let bad = vec![rec(0, 700, 300, csr::CAUSE_TIMER)];
        assert_eq!(render_timeline(&bad, 1000, 10).len(), 10);
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
