//! Tail-latency figure: the open-loop bursty-arrival sweep.
//!
//! Mean switch latency (Fig. 9) hides exactly what a real-time system
//! cares about — the tail. This figure drives the deferred-interrupt
//! workload with a Markov-modulated *open-loop* arrival process
//! ([`rtosbench::tail`]): interrupts land on a precomputed schedule
//! whether or not the guest has finished the previous switch, so
//! queueing delay during bursts shows up in the distribution instead of
//! being coordinated away. Per `(preset, arrival rate)` cell the v3
//! campaign telemetry reports exact p50/p99/p99.9/p99.99 and the SLO
//! miss rate against a fixed latency budget.
//!
//! `--quick` shrinks the cycle budget for CI runs (the same spec shape).
//! The machine-readable artifact lands in `results/fig_tail.json`
//! (`results/fig_tail_quick.json` with `--quick`). The quick artifact,
//! with its host fields zeroed, is committed as the tail-campaign pin
//! `ci/perf_baseline.json`, which `ci.sh` requires this binary's output
//! to equal.

use rtosbench::tail::{self, SLO_CYCLES};
use rtosunit::hist::REPORTED_PERCENTILES;

fn main() {
    let quick = rtosunit_bench::quick_arg("fig_tail");
    let campaign = tail::tail_spec(quick)
        .with_progress()
        .run(rtosunit_bench::default_workers());

    let mut out = String::new();
    out.push_str("# Tail switch latency under open-loop bursty arrivals\n");
    out.push_str(&format!(
        "# (CV32E40P, deferred interrupt handling; SLO budget = {SLO_CYCLES} cycles)\n\n"
    ));
    out.push_str("| preset | mean gap | switches | p50 | p90 | p99 | p99.9 | p99.99 | max | SLO miss rate |\n");
    out.push_str("|---|---|---|---|---|---|---|---|---|---|\n");
    let mut broken: Vec<String> = campaign
        .failures
        .iter()
        .map(|f| format!("run `{}` failed ({}): {}", f.label, f.kind.name(), f.detail))
        .collect();
    for o in &campaign.outcomes {
        let Some(sim) = o.sim.as_ref() else {
            broken.push(format!("run `{}` produced no simulation outcome", o.label));
            continue;
        };
        let m = &sim.metrics;
        let pcts: Vec<String> = REPORTED_PERCENTILES
            .iter()
            .map(|(_, p)| match m.latency.percentile(*p) {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            })
            .collect();
        let Some(slo) = m.slo else {
            broken.push(format!("run `{}` tracked no SLO budget", o.label));
            continue;
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.4} |\n",
            o.preset.label(),
            o.param,
            m.latency.count(),
            pcts.join(" | "),
            m.latency.max().map_or("-".to_string(), |v| v.to_string()),
            slo.miss_rate(),
        ));
    }
    out.push('\n');
    out.push_str(&rtosunit_bench::paper_note(&[
        "open-loop arrivals keep bursts on schedule, so queue delay lands in the tail instead of being coordinated away",
        "the gap sweep pushes the system toward saturation; p99.9 separates presets long before the mean moves",
        "hardware-assisted presets cut the SLO miss rate by shortening every switch the burst stacks up",
    ]));
    rtosunit_bench::emit(
        if quick {
            "fig_tail_quick.txt"
        } else {
            "fig_tail.txt"
        },
        &out,
    );

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
    println!("# {}", campaign.throughput_summary());
    // Partial results are still emitted above; a broken cell fails the
    // invocation so CI (and its tail-campaign pin check reading the
    // artifact) cannot mistake a half-empty figure for a healthy one.
    if !broken.is_empty() {
        for b in &broken {
            eprintln!("fig_tail: {b}");
        }
        std::process::exit(1);
    }
}
