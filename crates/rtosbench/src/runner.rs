//! Episode filtering, single-workload runs and the Fig. 9 rows.

use crate::campaign::{self, Campaign, RunSpec, SimOutcome, WorkloadSpec};
use crate::workloads::{self, Workload};
use rtosunit::{LatencyStats, Preset, SwitchRecord};
use rvsim_cores::CoreKind;

/// Switches skipped at the start of each run (cold contexts).
pub const WARMUP_SWITCHES: usize = 4;

/// Maximum trigger-to-entry wait for an episode to count as a measured
/// context switch. Interrupts that fire while the kernel is inside a
/// critical section (or another ISR) wait for it to end; such episodes
/// measure section length, not switch latency — RTOSBench arranges its
/// triggers so the switch is taken promptly from task code. The bound is
/// the pipeline-flush latency plus a small allowance for retiring the
/// current instruction (and, for voluntary yields, the interrupt-enable
/// that follows the MSIP write).
pub fn entry_threshold(core: CoreKind) -> u64 {
    u64::from(core.timing().irq_entry_latency) + 8
}

/// Applies the episode filtering shared by every measurement path: drop
/// [`WARMUP_SWITCHES`] cold switches, then drop episodes whose
/// trigger-to-entry wait exceeds [`entry_threshold`] (critical-section
/// delays measure section length, not switch latency).
pub fn filter_episodes(core: CoreKind, records: &[SwitchRecord]) -> Vec<SwitchRecord> {
    let threshold = entry_threshold(core);
    records
        .iter()
        .skip(WARMUP_SWITCHES)
        .filter(|r| r.entry_latency() <= threshold)
        .copied()
        .collect()
}

/// Runs one suite workload on one `(core, preset)` pair through the
/// campaign's run path ([`campaign::simulate`]) with standard filtering.
///
/// # Panics
///
/// Panics if the workload fails to build (a bug in the suite itself).
pub fn run_workload(core: CoreKind, preset: Preset, workload: &Workload) -> SimOutcome {
    campaign::simulate(
        &RunSpec::new(core, preset, WorkloadSpec::Suite(*workload)),
        None,
    )
    .expect("workload builds")
}

/// One row of the Fig. 9 aggregation: all workloads pooled for a
/// `(core, preset)` pair.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Core model.
    pub core: CoreKind,
    /// Unit configuration.
    pub preset: Preset,
    /// Pooled statistics (µ, min, max; Δ = jitter).
    pub stats: LatencyStats,
    /// Per-workload statistics in suite order.
    pub per_workload: Vec<(&'static str, LatencyStats)>,
}

impl Fig9Row {
    /// Pools the latencies of every suite workload's run of
    /// `(core, preset)` in `campaign`, as Fig. 9 does. The campaign must
    /// hold the default-labelled single-hart run of each
    /// [`workloads::ALL`] entry for the pair, e.g. from
    /// [`CampaignSpec::matrix`](crate::campaign::CampaignSpec::matrix).
    ///
    /// # Panics
    ///
    /// Panics if a workload's run is missing or the suite measured no
    /// context switches.
    pub fn pool(campaign: &Campaign, core: CoreKind, preset: Preset) -> Fig9Row {
        let mut pooled = Vec::new();
        let mut per_workload = Vec::new();
        for w in workloads::ALL {
            let label = format!("{}/{}/{}", core.name(), preset.label(), w.name);
            let sim = campaign
                .find(&label)
                .and_then(|o| o.sim.as_ref())
                .unwrap_or_else(|| panic!("campaign has no simulated run `{label}`"));
            if let Some(s) = sim.stats() {
                per_workload.push((w.name, s));
            }
            pooled.extend_from_slice(&sim.latencies);
        }
        let stats =
            LatencyStats::from_latencies(&pooled).expect("suite produced no context switches");
        Fig9Row {
            core,
            preset,
            stats,
            per_workload,
        }
    }

    /// Mean latency (µ).
    pub fn mean(&self) -> f64 {
        self.stats.mean
    }

    /// Jitter (Δ = max − min).
    pub fn jitter(&self) -> u64 {
        self.stats.jitter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    fn record(trigger: u64, entry: u64, mret: u64) -> SwitchRecord {
        SwitchRecord {
            trigger_cycle: trigger,
            entry_cycle: entry,
            mret_cycle: mret,
            cause: rvsim_isa::csr::CAUSE_TIMER,
        }
    }

    #[test]
    fn filtering_drops_warmup_switches() {
        // Ten prompt episodes; the first WARMUP_SWITCHES are cold and must
        // not contribute latencies even though they pass the threshold.
        let records: Vec<SwitchRecord> = (0..10)
            .map(|i| {
                let t = 1_000 * (i as u64 + 1);
                record(t, t + 4, t + 80)
            })
            .collect();
        let kept = filter_episodes(CoreKind::Cv32e40p, &records);
        assert_eq!(kept.len(), 10 - WARMUP_SWITCHES);
        assert_eq!(kept[0], records[WARMUP_SWITCHES]);
    }

    #[test]
    fn filtering_drops_critical_section_delayed_episodes() {
        let threshold = entry_threshold(CoreKind::Cv32e40p);
        let mut records = Vec::new();
        // Warm-up padding.
        for i in 0..WARMUP_SWITCHES as u64 {
            let t = 500 * (i + 1);
            records.push(record(t, t + 1, t + 50));
        }
        // A prompt switch, an episode delayed past the threshold (the
        // interrupt waited out a critical section), and one exactly at
        // the threshold (still counted).
        records.push(record(10_000, 10_000 + threshold - 2, 10_100));
        records.push(record(20_000, 20_000 + threshold + 30, 20_200));
        records.push(record(30_000, 30_000 + threshold, 30_100));
        let kept = filter_episodes(CoreKind::Cv32e40p, &records);
        let triggers: Vec<u64> = kept.iter().map(|r| r.trigger_cycle).collect();
        assert_eq!(
            triggers,
            vec![10_000, 30_000],
            "delayed episode must be dropped"
        );
    }

    #[test]
    fn entry_threshold_scales_with_core_entry_latency() {
        for core in CoreKind::ALL {
            assert_eq!(
                entry_threshold(core),
                u64::from(core.timing().irq_entry_latency) + 8
            );
        }
    }

    #[test]
    fn every_workload_produces_switches_on_vanilla() {
        for w in ALL {
            let r = run_workload(CoreKind::Cv32e40p, Preset::Vanilla, &w);
            assert!(
                r.latencies.len() >= 20,
                "{}: only {} switches (paper needs 20 iterations)",
                w.name,
                r.latencies.len()
            );
        }
    }

    #[test]
    fn slt_beats_vanilla_on_mean_latency() {
        let w = crate::workloads::by_name("roundrobin_yield").expect("exists");
        let v = run_workload(CoreKind::Cv32e40p, Preset::Vanilla, &w);
        let s = run_workload(CoreKind::Cv32e40p, Preset::Slt, &w);
        let vm = v.stats().expect("switches").mean;
        let sm = s.stats().expect("switches").mean;
        assert!(
            sm < vm * 0.6,
            "SLT ({sm:.0}) should be well below vanilla ({vm:.0})"
        );
    }

    #[test]
    fn unit_port_usage_only_with_unit() {
        let w = crate::workloads::by_name("pingpong_semaphore").expect("exists");
        let v = run_workload(CoreKind::Cv32e40p, Preset::Vanilla, &w);
        assert_eq!(v.port.2, 0, "vanilla has no unit traffic");
        let s = run_workload(CoreKind::Cv32e40p, Preset::Slt, &w);
        assert!(s.port.2 > 0, "SLT unit must use idle cycles");
    }
}
