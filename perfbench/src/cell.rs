//! One single-hart campaign cell, re-driven through the simulator's
//! public layer calls instead of `CampaignSpec::run`: kernel build,
//! system set-up, `System::run`, and harvest. The traced run times each
//! call; the output checks rerun cells through the same path.

use freertos_lite::GuestImage;
use rtosbench::campaign::{FilterPolicy, RunSpec, SimOutcome, WorkloadSpec};
use rtosbench::{runner, workloads};
use rtosunit::{waterfall, SwitchMetrics, SwitchRecord, System, UnitStats};
use rvsim_cores::CoreCounters;

/// Builds the cell's guest image (the `freertos_lite` layer). Suite and
/// open-loop cells are re-driven; the benchmark's workloads use no other
/// kind.
pub fn build_image(run: &RunSpec) -> Result<GuestImage, String> {
    match run.workload {
        WorkloadSpec::Suite(w) => workloads::build(&w, run.preset),
        WorkloadSpec::OpenLoop { param, build, .. } => build(param, run.preset),
        _ => return Err(format!("{}: workload kind is not re-driven", run.label())),
    }
    .map_err(|e| format!("{}: kernel build failed: {e:?}", run.label()))
}

/// The cell's cycle budget.
pub fn run_cycles(run: &RunSpec) -> u64 {
    match run.workload {
        WorkloadSpec::Suite(w) => w.run_cycles,
        WorkloadSpec::OpenLoop { run_cycles, .. } => run_cycles,
        _ => 0,
    }
}

/// The external-interrupt cycles the campaign schedules for this cell:
/// a fixed interval for closed-loop cells, the generated arrivals for
/// open-loop ones; injections at or past the budget are dropped.
pub fn irq_schedule(run: &RunSpec) -> Vec<u64> {
    let budget = run_cycles(run);
    match run.workload {
        WorkloadSpec::Suite(w) if w.ext_irq_interval > 0 => (1..)
            .map(|k| k * w.ext_irq_interval)
            .take_while(|&at| at < budget)
            .collect(),
        WorkloadSpec::OpenLoop {
            param, arrivals, ..
        } => arrivals(param, budget)
            .into_iter()
            .filter(|&at| at > 0 && at < budget)
            .collect(),
        _ => Vec::new(),
    }
}

/// `System::new` plus image install plus IRQ schedule (the `rtosunit`
/// set-up layer).
pub fn new_system(run: &RunSpec, image: &GuestImage, irqs: &[u64]) -> Result<System, String> {
    if !run.overrides.is_empty() {
        return Err(format!(
            "{}: config overrides are not re-driven",
            run.label()
        ));
    }
    let mut sys = System::new(run.core, run.preset);
    image.install(&mut sys);
    for &at in irqs {
        sys.schedule_external_irq(at);
    }
    Ok(sys)
}

/// What one cell produced: the compared outputs plus the layer counters
/// the per-layer metrics aggregate.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub cycles: u64,
    pub retired: u64,
    pub latencies: Vec<u64>,
    pub metrics: SwitchMetrics,
    pub counters: CoreCounters,
    /// Data-cache `(hits, misses)`, on cached cores re-driven directly.
    pub dcache: Option<(u64, u64)>,
    /// Data-port occupancy `(total, core, unit)` cycles.
    pub port: (u64, u64, u64),
    pub unit: Option<UnitStats>,
    pub ctx_queue: Option<(u64, u64)>,
}

impl CellResult {
    /// The same record taken from a campaign outcome.
    pub fn from_outcome(sim: &SimOutcome) -> CellResult {
        CellResult {
            cycles: sim.cycles,
            retired: sim.retired,
            latencies: sim.latencies.clone(),
            metrics: sim.metrics.clone(),
            counters: sim.counters,
            dcache: None,
            port: sim.port,
            unit: sim.unit,
            ctx_queue: sim.ctx_queue,
        }
    }

    /// Compares the outputs every run must reproduce exactly.
    pub fn same_outputs(&self, other: &CellResult) -> Result<(), String> {
        if self.cycles != other.cycles {
            return Err(format!("cycles {} != {}", self.cycles, other.cycles));
        }
        if self.retired != other.retired {
            return Err(format!("retired {} != {}", self.retired, other.retired));
        }
        if self.latencies != other.latencies {
            return Err(format!(
                "latencies differ ({} vs {} switches)",
                self.latencies.len(),
                other.latencies.len()
            ));
        }
        Ok(())
    }
}

/// The campaign's episode filter, applied to raw records.
pub fn filter(run: &RunSpec, raw: &[SwitchRecord]) -> Result<Vec<SwitchRecord>, String> {
    match run.filter {
        FilterPolicy::Standard => Ok(runner::filter_episodes(run.core, raw)),
        FilterPolicy::WarmupOnly => Ok(raw.iter().skip(runner::WARMUP_SWITCHES).copied().collect()),
        other => Err(format!(
            "{}: filter {other:?} is not re-driven",
            run.label()
        )),
    }
}

/// Harvest: `take_records`, the episode filter, `waterfall::decompose`
/// and `SwitchMetrics::from_episodes`, plus the layer counters.
pub fn harvest(sys: &mut System, run: &RunSpec, slo: Option<u64>) -> Result<CellResult, String> {
    let raw = sys.take_records();
    harvest_records(sys, &raw, run, slo)
}

/// [`harvest`] over records already taken from (or still held by) `sys`.
pub fn harvest_records(
    sys: &System,
    raw: &[SwitchRecord],
    run: &RunSpec,
    slo: Option<u64>,
) -> Result<CellResult, String> {
    let records = filter(run, raw)?;
    let latencies = records.iter().map(SwitchRecord::latency).collect();
    let episodes = waterfall::decompose(&records, &sys.platform.mmio.trace_marks);
    Ok(CellResult {
        cycles: sys.platform.cycle(),
        retired: sys.core.retired(),
        latencies,
        metrics: SwitchMetrics::from_episodes(&episodes, slo),
        counters: sys.core.counters(),
        dcache: sys.platform.dcache().map(|c| c.stats()),
        port: sys.platform.port_occupancy(),
        unit: sys.unit_stats(),
        ctx_queue: sys.platform.ctx_queue_stats(),
    })
}

/// Runs one cell start to finish through the layer calls on the
/// cycle-by-cycle reference loop, `System::run_stepwise`.
pub fn drive_stepwise(run: &RunSpec, slo: Option<u64>) -> Result<CellResult, String> {
    let image = build_image(run)?;
    let mut sys = new_system(run, &image, &irq_schedule(run))?;
    sys.run_stepwise(run_cycles(run));
    harvest(&mut sys, run, slo)
}
