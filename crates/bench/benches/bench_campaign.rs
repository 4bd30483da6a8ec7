//! Campaign-layer throughput: the Fig. 9 matrix (cores × latency presets
//! × suite workloads) executed three ways —
//!
//! 1. the reference path: cycle-by-cycle stepping, one worker;
//! 2. the fast path: batched stepping through the block translation
//!    cache, one worker (its speedup alone);
//! 3. the fast path across all host cores (speedup × parallelism).
//!
//! All three artifacts must render identically (the determinism
//! guarantee); the simulated-cycles-per-second figures quantify the
//! speedups and land in `results/BENCH_campaign.json`. Each variant
//! runs [`REPS`] times with per-cell minimum host times kept, so the
//! reported ratios compare the least-disturbed run of every cell.

use rtosbench::{workloads, Campaign, CampaignSpec};
use rtosunit::Preset;
use rtosunit_bench::harness::Bench;
use rvsim_cores::CoreKind;

/// Geometric-mean per-cell speedup of `fast` over `base`: the two
/// campaigns ran the identical matrix (and simulated identical cycles in
/// every cell — the determinism guarantee), so each cell's
/// simulated-cycles/s ratio reduces to its host-time ratio.
fn geomean_speedup(base: &Campaign, fast: &Campaign) -> f64 {
    let mut log_sum = 0.0f64;
    let mut n = 0u32;
    for (b, f) in base.outcomes.iter().zip(&fast.outcomes) {
        assert_eq!(b.label, f.label, "matrix cells out of order");
        if b.host_nanos == 0 || f.host_nanos == 0 {
            continue;
        }
        log_sum += (b.host_nanos as f64 / f.host_nanos as f64).ln();
        n += 1;
    }
    (log_sum / f64::from(n.max(1))).exp()
}

fn fig9_spec(stepwise: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::matrix(
        "bench_fig9",
        &CoreKind::ALL,
        &Preset::LATENCY_SET,
        &workloads::ALL,
    );
    for run in &mut spec.runs {
        run.stepwise = stepwise;
    }
    spec
}

/// Repetitions per campaign variant. Each cell keeps its *minimum* host
/// time across repetitions — the run least disturbed by the host
/// scheduler — which is what the speedup ratios should compare.
const REPS: usize = 3;

/// Runs the matrix `REPS` times and merges per-cell (and aggregate)
/// minimum host times. Simulated results are deterministic, so the
/// repetitions differ only in host timing.
fn run_best(spec: impl Fn() -> CampaignSpec, workers: usize) -> Campaign {
    let mut best = spec().run(workers);
    for _ in 1..REPS {
        let next = spec().run(workers);
        for (b, n) in best.outcomes.iter_mut().zip(&next.outcomes) {
            assert_eq!(b.label, n.label, "matrix cells out of order");
            b.host_nanos = b.host_nanos.min(n.host_nanos);
        }
        best.host_nanos = best.host_nanos.min(next.host_nanos);
    }
    best
}

fn main() {
    let workers = rtosunit_bench::default_workers();
    let mut bench = Bench::new("campaign");

    let baseline = run_best(|| fig9_spec(true), 1);
    bench.record(
        "fig9_matrix/stepwise_sequential",
        u128::from(baseline.host_nanos),
        Some((baseline.simulated_cycles() as f64, "cycles")),
    );

    let batched_seq = run_best(|| fig9_spec(false), 1);
    bench.record(
        "fig9_matrix/batched_sequential",
        u128::from(batched_seq.host_nanos),
        Some((batched_seq.simulated_cycles() as f64, "cycles")),
    );

    let batched_par = run_best(|| fig9_spec(false), workers);
    // A stable record name (no worker count) so perfdiff can match it
    // against a baseline captured on a host with a different core count.
    println!("batched_parallel uses {workers} workers");
    bench.record(
        "fig9_matrix/batched_parallel",
        u128::from(batched_par.host_nanos),
        Some((batched_par.simulated_cycles() as f64, "cycles")),
    );

    assert_eq!(
        baseline.to_json().render(),
        batched_seq.to_json().render(),
        "batched execution must reproduce the stepwise artifact"
    );
    assert_eq!(
        baseline.to_json().render(),
        batched_par.to_json().render(),
        "batched parallel execution must reproduce the stepwise artifact"
    );

    let base_rate = baseline.cycles_per_second();
    println!(
        "speedup over stepwise sequential: batched x{:.2}, batched+{}w x{:.2}",
        batched_seq.cycles_per_second() / base_rate,
        workers,
        batched_par.cycles_per_second() / base_rate,
    );
    // The self-reported headline: per-cell geomean speedup of the fast
    // path over the cycle-by-cycle reference.
    println!(
        "batched geomean speedup per matrix cell: x{:.2} over stepwise",
        geomean_speedup(&baseline, &batched_seq),
    );
    bench.finish();
}
