//! The open-loop tail-latency workload (`fig_tail`).
//!
//! Closed-loop benchmarks (fixed interrupt intervals, tasks that wait for
//! their own completions) suffer *coordinated omission*: when a switch
//! runs long, the next stimulus silently waits for it, so the measured
//! distribution under-reports exactly the latencies a deadline analysis
//! cares about. This module drives the deferred-interrupt-handling
//! workload with an **open-loop bursty arrival process** instead: the
//! arrival cycles are computed up front from a Markov-modulated process
//! and injected on schedule whether or not the guest has caught up, so
//! queueing delay lands in the measured distribution where it belongs.
//!
//! Everything is a plain `fn` (no captured state), so the spec slots into
//! [`WorkloadSpec::OpenLoop`]
//! and stays `Send + Sync` for the campaign executor — and fully
//! deterministic: the arrival list is a pure function of
//! `(mean_gap, run_cycles)` via the in-tree [`Rng64`].

use crate::campaign::{CampaignSpec, FilterPolicy, RunSpec, WorkloadSpec};
use freertos_lite::{GuestImage, KernelBuilder, KernelError};
use rtosunit::Preset;
use rvsim_cores::CoreKind;
use rvsim_isa::rng::Rng64;

/// Cycle budget of one full-scale tail run.
pub const RUN_CYCLES: u64 = 2_000_000;

/// Cycle budget of one quick (CI smoke) tail run.
pub const QUICK_RUN_CYCLES: u64 = 400_000;

/// SLO latency budget (cycles) for the tail figure: generous against the
/// hardware-assisted presets' typical switch cost, tight against vanilla
/// worst cases — so the miss-rate column separates the configurations.
pub const SLO_CYCLES: u64 = 400;

/// Mean inter-arrival gaps (cycles) swept by the figure, densest where
/// the system approaches saturation.
pub const MEAN_GAPS: [u32; 3] = [4000, 1500, 700];

/// Markov-modulated bursty arrival schedule: a two-state process that
/// alternates geometric-dwell *calm* stretches (gaps around `mean_gap`)
/// and *burst* stretches (gaps around `mean_gap / 8`, minimum 20
/// cycles). Gaps are drawn uniformly in ±50% of the state mean, so
/// arrivals drift across timer-tick phases instead of locking to them.
///
/// Deterministic: the schedule is a pure function of the arguments, so
/// campaign artifacts built from it are byte-stable across runs, hosts
/// and worker counts.
pub fn bursty_arrivals(mean_gap: u32, run_cycles: u64) -> Vec<u64> {
    let mean_gap = u64::from(mean_gap.max(2));
    // Seed from the parameters so different sweep points decorrelate.
    let mut rng = Rng64::new(0x7a11_0000 ^ (mean_gap << 16) ^ run_cycles);
    let mut arrivals = Vec::new();
    let mut at = 0u64;
    let mut bursting = false;
    loop {
        let state_mean = if bursting {
            (mean_gap / 8).max(20)
        } else {
            mean_gap
        };
        // Uniform in [mean/2, 3*mean/2) — mean preserved, phase drifting.
        let gap = state_mean / 2 + rng.below(state_mean.max(1));
        at += gap.max(1);
        if at >= run_cycles {
            break;
        }
        arrivals.push(at);
        // Geometric dwell: ~12 arrivals per calm stretch, ~8 per burst.
        if bursting {
            if rng.chance(12) {
                bursting = false;
            }
        } else if rng.chance(8) {
            bursting = true;
        }
    }
    arrivals
}

/// Builds the tail guest image: the deferred-interrupt-handling pattern
/// (external IRQ gives a semaphore, a high-priority handler takes it)
/// over a compute-heavy background task, like the suite's
/// `interrupt_latency` — the workload whose latency distribution the
/// open-loop arrivals stress. `_mean_gap` is unused: the kernel does not
/// depend on the arrival process.
///
/// # Errors
///
/// Propagates kernel-construction errors (none occur for this shipped
/// workload).
pub fn build_tail_workload(_mean_gap: u32, preset: Preset) -> Result<GuestImage, KernelError> {
    let mut k = KernelBuilder::new(preset);
    k.tick_period(6000);
    k.semaphore("event", 0);
    k.ext_irq_gives("event");
    k.task("handler", 7, |t| {
        t.sem_take("event");
        t.compute(5);
    });
    k.task("background", 2, |t| {
        t.compute(25);
        t.yield_now();
    });
    k.build()
}

/// The `fig_tail` campaign: the open-loop bursty workload swept over
/// arrival rates × presets on CV32E40P, with telemetry (schema v3) and
/// the [`SLO_CYCLES`] budget — the artifact carries exact p50/p99/p99.9/
/// p99.99 and SLO miss rates per cell. Warmup-only filtering keeps the
/// queue-delayed episodes the closed-loop filter would drop.
///
/// `quick` shrinks the cycle budget for CI smoke runs; both shapes share
/// this one definition so the committed perf baseline and the figure
/// always measure the same campaign.
pub fn tail_spec(quick: bool) -> CampaignSpec {
    let run_cycles = if quick { QUICK_RUN_CYCLES } else { RUN_CYCLES };
    let mut spec = CampaignSpec::new(if quick { "fig_tail_quick" } else { "fig_tail" })
        .with_telemetry()
        .with_slo(SLO_CYCLES);
    for preset in [Preset::Vanilla, Preset::S, Preset::Slt] {
        for mean_gap in MEAN_GAPS {
            let mut run = RunSpec::new(
                CoreKind::Cv32e40p,
                preset,
                WorkloadSpec::OpenLoop {
                    name: "tail_bursty",
                    param: mean_gap,
                    build: build_tail_workload,
                    run_cycles,
                    arrivals: bursty_arrivals,
                },
            );
            run.filter = FilterPolicy::WarmupOnly;
            spec = spec.with(run);
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_sorted_and_bounded() {
        let a = bursty_arrivals(1500, 300_000);
        let b = bursty_arrivals(1500, 300_000);
        assert_eq!(a, b, "arrival schedule must be reproducible");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals must ascend");
        assert!(*a.last().unwrap() < 300_000);
        // The mean gap lands near the requested one (bursts pull it down).
        let span = a.last().unwrap() - a[0];
        let mean = span / (a.len() as u64 - 1);
        assert!(
            (300..=1800).contains(&mean),
            "mean inter-arrival gap {mean} implausible for 1500"
        );
    }

    #[test]
    fn different_params_give_different_schedules() {
        assert_ne!(
            bursty_arrivals(700, 100_000),
            bursty_arrivals(4000, 100_000)
        );
        let fast = bursty_arrivals(700, 100_000).len();
        let slow = bursty_arrivals(4000, 100_000).len();
        assert!(fast > 2 * slow, "rate sweep must change arrival counts");
    }

    #[test]
    fn tail_workload_builds_for_the_swept_presets() {
        for preset in [Preset::Vanilla, Preset::S, Preset::Slt] {
            build_tail_workload(1500, preset).expect("tail workload builds");
        }
    }

    #[test]
    fn quick_tail_campaign_reports_percentiles_and_slo_misses() {
        let mut spec = tail_spec(true);
        // One cell is enough for the smoke assertion.
        spec.runs.truncate(1);
        let c = spec.run(1);
        let sim = c.outcomes[0].sim.as_ref().expect("sim");
        assert!(sim.metrics.latency.count() > 0, "no switches measured");
        assert_eq!(
            sim.metrics.latency.count(),
            sim.latencies.len() as u64,
            "histogram must see every filtered episode"
        );
        let slo = sim.metrics.slo.expect("slo configured campaign-wide");
        assert_eq!(slo.threshold, SLO_CYCLES);
        assert_eq!(slo.total, sim.metrics.latency.count());
        let rendered = c.to_json().render();
        for key in ["\"p50\"", "\"p99\"", "\"p99.9\"", "\"p99.99\"", "miss_rate"] {
            assert!(rendered.contains(key), "artifact missing `{key}`");
        }
        assert!(rendered.contains("\"schema\": \"rtosunit-campaign-v3\""));
    }
}
