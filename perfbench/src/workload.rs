//! The four workloads: their inputs, generated from the seed, and one
//! timed pass over them.

use crate::cell::{self, CellResult};
use rtosbench::campaign::{Campaign, CampaignSpec, RunSpec, WorkloadSpec};
use rtosbench::{tail, workloads};
use rtosunit::snap::fnv1a;
use rtosunit::{Preset, SwitchMetrics};
use rvsim_check::TimeTravel;
use rvsim_cores::CoreKind;
use rvsim_isa::rng::Rng64;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 9 matrix: 3 cores × 10 presets × 7 suite
    /// workloads, closed loop.
    Fig9Matrix,
    /// The `fig_tail` campaign: open-loop MMPP arrivals, v3 telemetry.
    TailBursty,
    /// The `fig_smp` campaign: 1, 2 and 4 harts on the shared bus.
    SmpContention,
    /// `TimeTravel` supervision of suite cells plus seeded rewinds.
    TimeTravel,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig9Matrix,
        Workload::TailBursty,
        Workload::SmpContention,
        Workload::TimeTravel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Matrix => "fig9_matrix",
            Workload::TailBursty => "tail_bursty",
            Workload::SmpContention => "smp_contention",
            Workload::TimeTravel => "time_travel",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Cycles between automatic checkpoints of a supervised cell.
pub const TRAVEL_INTERVAL: u64 = 25_000;

/// Rewinds per supervised cell.
const TRAVEL_REWINDS: usize = 8;

/// Cells (or rewinds) per run compared against a reference execution.
const SAMPLES: usize = 3;

/// One supervised time-travel cell and its seeded rewind targets.
pub struct TravelCell {
    pub run: RunSpec,
    pub targets: Vec<u64>,
}

pub enum Cells {
    Campaign(CampaignSpec),
    Travel(Vec<TravelCell>),
}

/// A run's generated inputs.
pub struct Inputs {
    pub cells: Cells,
    /// Seeded check sample: single-hart campaign cells rerun stepwise
    /// as `(cell, 0)`, or time-travel rewinds `(cell, rewind)` compared
    /// against a cold run.
    pub samples: Vec<(usize, usize)>,
}

impl Inputs {
    pub fn len(&self) -> usize {
        match &self.cells {
            Cells::Campaign(spec) => spec.runs.len(),
            Cells::Travel(cells) => cells.len(),
        }
    }
}

fn suite(name: &str) -> workloads::Workload {
    workloads::by_name(name).expect("suite workload exists")
}

/// The `fig_smp` campaign shape.
fn smp_spec() -> CampaignSpec {
    let w = suite("pingpong_semaphore");
    let mut spec = CampaignSpec::new("fig_smp").with_telemetry();
    for core in CoreKind::ALL {
        for preset in [Preset::Vanilla, Preset::Slt] {
            for harts in [1, 2, 4] {
                spec.runs
                    .push(RunSpec::new(core, preset, WorkloadSpec::Suite(w)).with_harts(harts));
            }
        }
    }
    spec
}

fn travel_runs() -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for core in CoreKind::ALL {
        for preset in [Preset::Vanilla, Preset::Slt] {
            for w in ["pingpong_semaphore", "interrupt_latency"] {
                runs.push(RunSpec::new(core, preset, WorkloadSpec::Suite(suite(w))));
            }
        }
    }
    runs
}

/// Generates the workload's inputs from `seed`. `smoke` keeps a few
/// cells of the same shapes, for the benchmark's own tests.
pub fn prepare(workload: Workload, seed: u64, smoke: bool) -> Result<Inputs, String> {
    let mut rng = Rng64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let cells = match workload {
        Workload::Fig9Matrix => {
            let mut spec = CampaignSpec::matrix(
                "fig9",
                &CoreKind::ALL,
                &Preset::LATENCY_SET,
                &workloads::ALL,
            );
            if smoke {
                spec.runs.retain(|r| {
                    matches!(r.preset, Preset::Vanilla | Preset::Slt)
                        && r.workload.name() == "interrupt_latency"
                });
            }
            Cells::Campaign(spec)
        }
        Workload::TailBursty => {
            let mut spec = tail::tail_spec(smoke);
            if smoke {
                spec.runs.retain(|r| {
                    r.preset != Preset::S
                        && matches!(r.workload, WorkloadSpec::OpenLoop { param, .. } if param == tail::MEAN_GAPS[0])
                });
            }
            Cells::Campaign(spec)
        }
        Workload::SmpContention => {
            let mut spec = smp_spec();
            if smoke {
                spec.runs.retain(|r| {
                    r.core == CoreKind::Cva6 && r.preset == Preset::Slt && r.harts <= 2
                });
            }
            Cells::Campaign(spec)
        }
        Workload::TimeTravel => {
            let mut runs = travel_runs();
            if smoke {
                runs.retain(|r| {
                    r.core == CoreKind::Cva6 && r.workload.name() == "interrupt_latency"
                });
            }
            let rewinds = if smoke { 2 } else { TRAVEL_REWINDS };
            Cells::Travel(
                runs.into_iter()
                    .map(|run| {
                        let budget = cell::run_cycles(&run);
                        let mut targets: Vec<u64> =
                            (0..rewinds).map(|_| 1 + rng.below(budget)).collect();
                        targets.sort_unstable();
                        TravelCell { run, targets }
                    })
                    .collect(),
            )
        }
    };
    // Every cell's guest image and interrupt schedule must generate
    // before anything is timed; the campaign regenerates its own.
    let runs: Vec<&RunSpec> = match &cells {
        Cells::Campaign(spec) => spec.runs.iter().collect(),
        Cells::Travel(cells) => cells.iter().map(|c| &c.run).collect(),
    };
    for run in runs {
        std::hint::black_box((cell::build_image(run)?, cell::irq_schedule(run)));
    }
    let samples = match &cells {
        Cells::Campaign(spec) => {
            let single: Vec<usize> = (0..spec.runs.len())
                .filter(|&i| spec.runs[i].harts == 1)
                .collect();
            sample(&mut rng, single.len(), SAMPLES)
                .into_iter()
                .map(|k| (single[k], 0))
                .collect()
        }
        Cells::Travel(cells) => {
            let pairs: Vec<(usize, usize)> = cells
                .iter()
                .enumerate()
                .flat_map(|(i, c)| (0..c.targets.len()).map(move |r| (i, r)))
                .collect();
            sample(&mut rng, pairs.len(), SAMPLES)
                .into_iter()
                .map(|k| pairs[k])
                .collect()
        }
    };
    Ok(Inputs { cells, samples })
}

/// `k` distinct indices below `n`, ascending.
fn sample(rng: &mut Rng64, n: usize, k: usize) -> Vec<usize> {
    let mut picked = BTreeSet::new();
    while picked.len() < k.min(n) {
        picked.insert(rng.index(n));
    }
    picked.into_iter().collect()
}

/// One supervised cell's outputs.
pub struct TravelOut {
    pub result: CellResult,
    pub checkpoints: usize,
    /// `(cycle, retired, switches)` of each rewound system.
    pub rewinds: Vec<(u64, u64, usize)>,
    /// Cycles re-executed from the nearest checkpoint, over all rewinds.
    pub reexec_cycles: u64,
    pub nanos: u64,
}

/// Supervises one cell under `TimeTravel` and rewinds to its targets.
pub fn supervise(cell: &TravelCell) -> Result<TravelOut, String> {
    let started = Instant::now();
    let image = cell::build_image(&cell.run)?;
    let sys = cell::new_system(&cell.run, &image, &cell::irq_schedule(&cell.run))?;
    let mut tt = TimeTravel::new(sys, TRAVEL_INTERVAL);
    tt.run(cell::run_cycles(&cell.run));
    let mut rewinds = Vec::with_capacity(cell.targets.len());
    for &target in &cell.targets {
        let sys = tt.rewind(target)?;
        rewinds.push((
            sys.platform.cycle(),
            sys.core.retired(),
            sys.records().len(),
        ));
    }
    let checkpoints = tt.checkpoint_cycles();
    let sys = tt.system();
    let result = cell::harvest_records(sys, sys.records(), &cell.run, cell.run.slo)?;
    drop(tt);
    Ok(TravelOut {
        result,
        checkpoints: checkpoints.len(),
        rewinds,
        reexec_cycles: cell
            .targets
            .iter()
            .map(|&t| t - nearest_checkpoint(&checkpoints, t))
            .sum(),
        nanos: started.elapsed().as_nanos() as u64,
    })
}

/// The latest checkpoint cycle at or before `target`.
pub fn nearest_checkpoint(checkpoints: &[u64], target: u64) -> u64 {
    checkpoints
        .iter()
        .copied()
        .filter(|&c| c <= target)
        .max()
        .unwrap_or(0)
}

/// Maps `f` over `items` on `workers` threads that claim the next
/// undone index, like the campaign executor. Results come back in item
/// order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, items.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return done;
                        }
                        done.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("benchmark worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every item was claimed"))
        .collect()
}

pub enum Output {
    Campaign(Campaign),
    Travel(Vec<Result<TravelOut, String>>),
}

/// One timed pass: the work a user waits for, from inputs to rendered
/// artifact, plus what the checks and metrics need from it.
pub struct Pass {
    pub wall: Duration,
    pub workers: usize,
    pub output: Output,
    /// Digest of the pass's deterministic output (host times and worker
    /// count zeroed).
    pub digest: u64,
    /// Σ per-cell host time.
    pub busy_nanos: u64,
    pub artifact_bytes: usize,
}

impl Pass {
    pub fn run(inputs: &Inputs, workers: usize) -> Pass {
        match &inputs.cells {
            Cells::Campaign(spec) => {
                let started = Instant::now();
                let mut campaign = spec.run(workers);
                let aggregate = campaign.aggregate_metrics();
                let artifact = campaign.to_json().render();
                let wall = started.elapsed();
                std::hint::black_box(&aggregate);
                let busy_nanos = campaign.outcomes.iter().map(|o| o.host_nanos).sum();
                let workers = campaign.workers;
                campaign.host_nanos = 0;
                campaign.workers = 0;
                for o in &mut campaign.outcomes {
                    o.host_nanos = 0;
                }
                let digest = fnv1a(campaign.to_json().render().as_bytes());
                Pass {
                    wall,
                    workers,
                    output: Output::Campaign(campaign),
                    digest,
                    busy_nanos,
                    artifact_bytes: artifact.len(),
                }
            }
            Cells::Travel(cells) => {
                let workers = workers.clamp(1, cells.len().max(1));
                let started = Instant::now();
                let outs = par_map(cells, workers, supervise);
                let wall = started.elapsed();
                let mut text = String::new();
                for out in &outs {
                    match out {
                        Ok(o) => text.push_str(&format!(
                            "{} {} {:?} {} {:?}\n",
                            o.result.cycles,
                            o.result.retired,
                            o.result.latencies,
                            o.checkpoints,
                            o.rewinds
                        )),
                        Err(e) => text.push_str(&format!("error {e}\n")),
                    }
                }
                Pass {
                    wall,
                    workers,
                    busy_nanos: outs.iter().flatten().map(|o| o.nanos).sum(),
                    output: Output::Travel(outs),
                    digest: fnv1a(text.as_bytes()),
                    artifact_bytes: 0,
                }
            }
        }
    }

    /// Cells that produced no output.
    pub fn failed(&self) -> usize {
        match &self.output {
            Output::Campaign(c) => c.failures.len(),
            Output::Travel(outs) => outs.iter().filter(|o| o.is_err()).count(),
        }
    }

    /// Simulated cycles, summed over harts.
    pub fn sim_cycles(&self) -> u64 {
        match &self.output {
            Output::Campaign(c) => c
                .outcomes
                .iter()
                .filter_map(|o| o.sim.as_ref().map(|s| s.cycles * o.harts as u64))
                .sum(),
            Output::Travel(outs) => outs
                .iter()
                .flatten()
                .map(|o| o.result.cycles + o.reexec_cycles)
                .sum(),
        }
    }

    /// The campaign-wide switch metrics.
    pub fn aggregate(&self) -> SwitchMetrics {
        match &self.output {
            Output::Campaign(c) => c.aggregate_metrics(),
            Output::Travel(outs) => {
                let mut agg = SwitchMetrics::new(None);
                for o in outs.iter().flatten() {
                    agg.latency.merge(&o.result.metrics.latency);
                }
                agg
            }
        }
    }

    /// Every measured switch latency, in cell order.
    pub fn latencies(&self) -> Vec<u64> {
        match &self.output {
            Output::Campaign(c) => c
                .outcomes
                .iter()
                .filter_map(|o| o.sim.as_ref())
                .flat_map(|s| s.latencies.iter().copied())
                .collect(),
            Output::Travel(outs) => outs
                .iter()
                .flatten()
                .flat_map(|o| o.result.latencies.iter().copied())
                .collect(),
        }
    }

    /// Per-cell outputs by spec index (`None` for a failed cell).
    pub fn cell_results(&self, cells: usize) -> Vec<Option<CellResult>> {
        match &self.output {
            Output::Campaign(c) => {
                let mut out = vec![None; cells];
                for o in &c.outcomes {
                    if let Some(sim) = &o.sim {
                        out[o.index] = Some(CellResult::from_outcome(sim));
                    }
                }
                out
            }
            Output::Travel(outs) => outs
                .iter()
                .map(|o| o.as_ref().ok().map(|o| o.result.clone()))
                .collect(),
        }
    }
}
