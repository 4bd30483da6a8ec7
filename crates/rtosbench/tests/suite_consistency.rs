//! Suite-level consistency tests: the Fig. 9 aggregation must faithfully
//! pool the per-workload runs, and the newer workloads must exercise the
//! kernel paths they claim to.

use rtosbench::{run_workload, workloads, CampaignSpec, Fig9Row};
use rtosunit::{LatencyStats, Preset};
use rvsim_cores::CoreKind;

fn short(w: &workloads::Workload) -> workloads::Workload {
    let mut w = *w;
    w.run_cycles = 150_000;
    w
}

#[test]
fn queue_burst_exercises_counting_semantics() {
    let w = short(&workloads::by_name("queue_burst").expect("exists"));
    let r = run_workload(CoreKind::Cv32e40p, Preset::Slt, &w);
    assert!(r.latencies.len() > 20, "bursts must produce switches");
    // The flow-control semaphore bounds the queue: the run must not
    // deadlock (progress implies takes and gives kept pairing up).
    assert!(r.retired > 10_000);
}

#[test]
fn priority_chain_produces_back_to_back_preemptions() {
    let w = short(&workloads::by_name("priority_chain").expect("exists"));
    let r = run_workload(CoreKind::Cv32e40p, Preset::Vanilla, &w);
    // Each chain round is low→mid→high→(unwind): several voluntary
    // switches per round, all software-caused.
    let yields = r
        .records
        .iter()
        .filter(|rec| rec.cause == rvsim_isa::csr::CAUSE_SOFTWARE)
        .count();
    assert!(
        yields > 20,
        "the chain must preempt repeatedly, got {yields}"
    );
}

#[test]
fn pooled_stats_match_manual_pooling() {
    // Rebuild a Fig9Row by hand from per-workload runs and compare.
    let core = CoreKind::Cv32e40p;
    let preset = Preset::T;
    let mut pooled = Vec::new();
    for w in workloads::ALL {
        pooled.extend(run_workload(core, preset, &w).latencies);
    }
    let manual = LatencyStats::from_latencies(&pooled).expect("latencies");
    let campaign = CampaignSpec::matrix("pool", &[core], &[preset], &workloads::ALL).run(2);
    let row = Fig9Row::pool(&campaign, core, preset);
    assert_eq!(row.stats.count, manual.count);
    assert_eq!(row.stats.min, manual.min);
    assert_eq!(row.stats.max, manual.max);
    assert!((row.stats.mean - manual.mean).abs() < 1e-9);
}

#[test]
fn report_tables_render_all_rows() {
    let core = CoreKind::Cv32e40p;
    let presets = [Preset::Vanilla, Preset::Slt];
    let campaign = CampaignSpec::matrix("report", &[core], &presets, &workloads::ALL).run(2);
    let rows: Vec<Fig9Row> = presets
        .into_iter()
        .map(|p| Fig9Row::pool(&campaign, core, p))
        .collect();
    let table = rtosbench::report::fig9_table("CV32E40P", &rows);
    assert!(table.contains("(vanilla)"));
    assert!(table.contains("(SLT)"));
    let breakdown = rtosbench::report::workload_breakdown(&rows[0]);
    for w in workloads::ALL {
        assert!(
            breakdown.contains(w.name),
            "missing {} in breakdown",
            w.name
        );
    }
}

#[test]
fn records_and_latencies_stay_in_sync() {
    let w = short(&workloads::by_name("mutex_workload").expect("exists"));
    let r = run_workload(CoreKind::Cva6, Preset::Sl, &w);
    assert_eq!(r.records.len(), r.latencies.len());
    for (rec, lat) in r.records.iter().zip(&r.latencies) {
        assert_eq!(rec.latency(), *lat);
    }
}
