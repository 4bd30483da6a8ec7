//! The traced run: every cell re-driven through the public layer calls,
//! each call timed from here, sequentially on one thread.
//!
//! Spans are accumulated in memory. The share of the traced passes' wall
//! time that the spans cover is `trace.coverage_frac`, and the median
//! traced pass against the median untraced one-worker pass is
//! `trace.overhead_frac`.

use crate::cell::{self, CellResult};
use crate::metrics::{median, ratio, Values};
use crate::workload::{
    nearest_checkpoint, Cells, Inputs, Output, Pass, TravelCell, TRAVEL_INTERVAL,
};
use rtosbench::campaign::{Campaign, CampaignSpec};
use rtosbench::Json;
use rtosunit::{BusMasterStats, System};
use std::time::{Duration, Instant};

/// The layer spans must cover at least this share of the traced wall
/// time, or the traced run fails: below it, the per-layer self times no
/// longer account for where the time went.
const MIN_COVERAGE: f64 = 0.95;

/// Host time per layer, summed over traced passes.
#[derive(Debug, Default)]
struct Spans {
    build: Duration,
    images: u64,
    setup: Duration,
    cells: u64,
    run_free: Duration,
    cycles_free: u64,
    run_active: Duration,
    cycles_active: u64,
    harvest: Duration,
    harvests: u64,
    smp: Duration,
    smp_hart_cycles: u64,
    render: Duration,
    renders: u64,
    encode: Duration,
    encodes: u64,
    restore: Duration,
    restores: u64,
    reexec_cycles: u64,
}

impl Spans {
    fn covered(&self) -> Duration {
        self.build
            + self.setup
            + self.run_free
            + self.run_active
            + self.harvest
            + self.smp
            + self.render
            + self.encode
            + self.restore
    }

    /// Times `f` into the span `slot` picks.
    fn time<R>(&mut self, slot: fn(&mut Spans) -> &mut Duration, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *slot(self) += t.elapsed();
        r
    }

    /// `System::run` for `cycles`, split by whether an RTOSUnit is
    /// attached.
    fn run(&mut self, sys: &mut System, cycles: u64) {
        let before = sys.platform.cycle();
        let t = Instant::now();
        sys.run(cycles);
        let took = t.elapsed();
        let ran = sys.platform.cycle() - before;
        if sys.rtos_unit().is_some() {
            self.run_active += took;
            self.cycles_active += ran;
        } else {
            self.run_free += took;
            self.cycles_free += ran;
        }
    }
}

/// One traced pass's outputs, compared cell for cell with the untraced
/// reference.
struct Traced {
    results: Vec<Result<CellResult, String>>,
    /// Shared-bus statistics of every hart of every SMP cell.
    bus: Vec<BusMasterStats>,
    /// Rewound `(cycle, retired, switches)` per time-travel cell.
    rewinds: Vec<Vec<(u64, u64, usize)>>,
    /// Each time-travel cell's last checkpoint, rendered for its size
    /// after the pass.
    snapshots: Vec<Json>,
}

fn traced_campaign(spec: &CampaignSpec, reference: &Campaign, s: &mut Spans) -> Traced {
    let mut out = Traced {
        results: Vec::new(),
        bus: Vec::new(),
        rewinds: Vec::new(),
        snapshots: Vec::new(),
    };
    for run in &spec.runs {
        let slo = run.slo.or(spec.slo);
        let result = if run.harts > 1 {
            // The contention program is private to the campaign layer, so
            // an SMP cell is timed whole, as a single-cell campaign.
            let started = Instant::now();
            let mut single = CampaignSpec::new(spec.name).with(run.clone());
            single.slo = spec.slo;
            let c = single.run(1);
            let result = match c.outcomes.first().and_then(|o| o.sim.as_ref()) {
                Some(sim) => {
                    s.smp_hart_cycles += sim.cycles * run.harts as u64;
                    out.bus.extend(sim.bus.iter().flatten().copied());
                    Ok(CellResult::from_outcome(sim))
                }
                None => Err(format!("{}: single-cell campaign failed", run.label())),
            };
            drop(c);
            s.smp += started.elapsed();
            result
        } else {
            (|| {
                let image = s.time(|s| &mut s.build, || cell::build_image(run))?;
                s.images += 1;
                let mut sys = s.time(
                    |s| &mut s.setup,
                    || cell::new_system(run, &image, &cell::irq_schedule(run)),
                )?;
                s.cells += 1;
                s.run(&mut sys, cell::run_cycles(run));
                s.harvests += 1;
                // Freeing the system ends the cell, so it counts as harvest.
                s.time(
                    |s| &mut s.harvest,
                    || {
                        let result = cell::harvest(&mut sys, run, slo);
                        drop(sys);
                        result
                    },
                )
            })()
        };
        out.results.push(result);
    }
    s.time(
        |s| &mut s.render,
        || drop(std::hint::black_box(reference.to_json().render())),
    );
    s.renders += 1;
    out
}

/// `TimeTravel::new`/`run`/`rewind`, unrolled into their layer calls:
/// `System::state_snap` per checkpoint, `System::from_state_snap` plus
/// `System::run` per rewind.
fn traced_travel(cells: &[TravelCell], s: &mut Spans) -> Traced {
    let mut out = Traced {
        results: Vec::new(),
        bus: Vec::new(),
        rewinds: Vec::new(),
        snapshots: Vec::new(),
    };
    for c in cells {
        let traced = (|| {
            let image = s.time(|s| &mut s.build, || cell::build_image(&c.run))?;
            s.images += 1;
            let mut sys = s.time(
                |s| &mut s.setup,
                || cell::new_system(&c.run, &image, &cell::irq_schedule(&c.run)),
            )?;
            s.cells += 1;
            let mut checkpoints = vec![(
                sys.platform.cycle(),
                s.time(|s| &mut s.encode, || sys.state_snap()),
            )];
            s.encodes += 1;
            let budget = sys.platform.cycle() + cell::run_cycles(&c.run);
            while sys.platform.cycle() < budget && !sys.halted() {
                let last = checkpoints.last().expect("first checkpoint exists").0;
                let stop = (last + TRAVEL_INTERVAL).min(budget);
                let span = stop - sys.platform.cycle();
                s.run(&mut sys, span);
                if sys.platform.cycle() == last + TRAVEL_INTERVAL {
                    let state = s.time(|s| &mut s.encode, || sys.state_snap());
                    s.encodes += 1;
                    checkpoints.push((sys.platform.cycle(), state));
                }
            }
            let cycles: Vec<u64> = checkpoints.iter().map(|(c, _)| *c).collect();
            let mut rewinds = Vec::with_capacity(c.targets.len());
            for &target in &c.targets {
                let from = nearest_checkpoint(&cycles, target);
                let state = &checkpoints
                    .iter()
                    .find(|(c, _)| *c == from)
                    .expect("checkpoint exists")
                    .1;
                let mut fork = s
                    .time(|s| &mut s.restore, || System::from_state_snap(state))
                    .map_err(|e| e.to_string())?;
                s.restores += 1;
                s.reexec_cycles += target - from;
                s.run(&mut fork, target - from);
                rewinds.push((
                    fork.platform.cycle(),
                    fork.core.retired(),
                    fork.records().len(),
                ));
                s.time(|s| &mut s.restore, || drop(fork));
            }
            s.harvests += 1;
            // Freeing the system ends the cell, so it counts as harvest.
            let result = s.time(
                |s| &mut s.harvest,
                || {
                    let result = cell::harvest_records(&sys, sys.records(), &c.run, c.run.slo);
                    drop(sys);
                    result
                },
            )?;
            let last = checkpoints.pop().expect("first checkpoint exists").1;
            // Freeing the checkpoints is part of the codec's cost.
            s.time(|s| &mut s.encode, || drop(checkpoints));
            Ok::<_, String>((result, rewinds, last))
        })();
        match traced {
            Ok((result, rewinds, last)) => {
                out.results.push(Ok(result));
                out.rewinds.push(rewinds);
                out.snapshots.push(last);
            }
            Err(e) => {
                out.results.push(Err(e));
                out.rewinds.push(Vec::new());
            }
        }
    }
    out
}

/// Cells of `traced` that do not reproduce the untraced reference.
fn mismatches(inputs: &Inputs, reference: &Pass, traced: &Traced) -> Vec<String> {
    let expected = reference.cell_results(inputs.len());
    let mut failures = Vec::new();
    for (i, (got, want)) in traced.results.iter().zip(&expected).enumerate() {
        let verdict = match (got, want) {
            (Ok(got), Some(want)) => got.same_outputs(want),
            (Err(e), _) => Err(e.clone()),
            (Ok(_), None) => Err("no untraced result to compare".into()),
        };
        let verdict = verdict.and_then(|()| match &reference.output {
            Output::Travel(outs) => match &outs[i] {
                Ok(o) if o.rewinds == traced.rewinds[i] => Ok(()),
                _ => Err("rewound systems differ".into()),
            },
            Output::Campaign(_) => Ok(()),
        });
        if let Err(e) = verdict {
            failures.push(format!("traced cell {i}: {e}"));
        }
    }
    failures
}

/// What the traced run reports.
pub struct TraceReport {
    pub values: Values,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The untraced per-cell outputs, for the sampled checks.
    pub reference: Vec<Option<CellResult>>,
    /// Host seconds of each traced pass.
    pub walls: Vec<f64>,
}

/// Runs an untraced pass on `nproc` workers, then alternates untraced
/// one-worker passes with traced passes until `seconds` have elapsed (at
/// least one pair), and derives the per-layer metrics. The first
/// one-worker pass is the cell-by-cell reference.
pub fn run(inputs: &Inputs, workers: usize, seconds: f64) -> TraceReport {
    let n = inputs.len() as u64;
    let parallel = Pass::run(inputs, workers);
    let mut failures = Vec::new();
    let mut attempted = n;
    let mut spans = Spans::default();
    let mut walls = Vec::new();
    let mut untraced = Vec::new();
    let mut sequential: Option<Pass> = None;
    let mut first: Option<Traced> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while walls.is_empty() || Instant::now() < deadline {
        let pass = Pass::run(inputs, 1);
        attempted += n;
        if pass.digest != parallel.digest {
            failures.push("one-worker outputs differ from the nproc-worker pass".into());
        }
        untraced.push(pass.wall.as_secs_f64());
        let reference = sequential.get_or_insert(pass);
        let started = Instant::now();
        let traced = match (&inputs.cells, &reference.output) {
            (Cells::Campaign(spec), Output::Campaign(c)) => traced_campaign(spec, c, &mut spans),
            (Cells::Travel(cells), _) => traced_travel(cells, &mut spans),
            (Cells::Campaign(_), Output::Travel(_)) => {
                unreachable!("campaign inputs give campaign output")
            }
        };
        walls.push(started.elapsed().as_secs_f64());
        attempted += n;
        failures.extend(mismatches(inputs, reference, &traced));
        first.get_or_insert(traced);
    }
    let traced = first.expect("at least one traced pass");
    let sequential = sequential.expect("at least one untraced pass");
    let mut values = layer_values(&spans, &traced, &parallel);
    values.set(
        "trace.overhead_frac",
        median(&walls) / median(&untraced) - 1.0,
    );
    let coverage = ratio(spans.covered().as_secs_f64(), walls.iter().sum());
    if coverage < MIN_COVERAGE {
        failures.push(format!(
            "layer spans cover {:.1}% of the traced wall time, under {:.0}%",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    values.set("trace.coverage_frac", coverage);
    TraceReport {
        values,
        attempted,
        failures,
        reference: sequential.cell_results(inputs.len()),
        walls,
    }
}

fn layer_values(s: &Spans, t: &Traced, parallel: &Pass) -> Values {
    let ns = |d: Duration| d.as_nanos() as f64;
    let us = |d: Duration, n: u64| ratio(ns(d) / 1e3, n as f64);
    let cells: Vec<&CellResult> = t.results.iter().flatten().collect();
    let sum = |f: &dyn Fn(&CellResult) -> u64| cells.iter().map(|c| f(c)).sum::<u64>() as f64;
    let cycles = sum(&|c| c.cycles);
    let unit_cells = |f: &dyn Fn(&CellResult) -> u64| {
        cells
            .iter()
            .filter(|c| c.unit.is_some())
            .map(|c| f(c))
            .sum::<u64>() as f64
    };
    let unit = |f: &dyn Fn(&rtosunit::UnitStats) -> u64| {
        cells
            .iter()
            .filter_map(|c| c.unit.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let dcache = |f: &dyn Fn((u64, u64)) -> u64| {
        cells.iter().filter_map(|c| c.dcache).map(f).sum::<u64>() as f64
    };

    let mut v = Values::default();
    v.set(
        "rvsim_cores.run_ns_per_cycle",
        ratio(
            ns(s.run_free + s.run_active),
            (s.cycles_free + s.cycles_active) as f64,
        ),
    );
    v.set(
        "rvsim_cores.run_ns_per_cycle.unit_free",
        ratio(ns(s.run_free), s.cycles_free as f64),
    );
    v.set(
        "rvsim_cores.run_ns_per_cycle.unit_active",
        ratio(ns(s.run_active), s.cycles_active as f64),
    );
    v.set(
        "rvsim_cores.wfi_frac",
        ratio(sum(&|c| c.counters.wfi_cycles), cycles),
    );
    v.set(
        "rvsim_cores.stall_coproc_frac",
        ratio(sum(&|c| c.counters.stall_coproc), cycles),
    );
    v.set(
        "rvsim_cores.block_hit_ratio",
        ratio(
            sum(&|c| c.counters.block_hits),
            sum(&|c| c.counters.block_hits + c.counters.block_builds),
        ),
    );
    v.set("rvsim_cores.fused_ops", sum(&|c| c.counters.fused_ops));
    v.set(
        "rvsim_isa.decode_hit_ratio",
        ratio(
            sum(&|c| c.counters.decode_hits),
            sum(&|c| c.counters.decode_hits + c.counters.decode_misses),
        ),
    );
    v.set(
        "rvsim_mem.dcache_miss_ratio",
        ratio(dcache(&|(_, m)| m), dcache(&|(h, m)| h + m)),
    );
    v.set(
        "rvsim_mem.port_busy_frac",
        ratio(sum(&|c| c.port.1 + c.port.2), sum(&|c| c.port.0)),
    );
    v.set(
        "rvsim_mem.bus_wait_cycles",
        t.bus.iter().map(|b| b.wait_cycles).sum::<u64>() as f64,
    );
    v.set(
        "rvsim_mem.bus_max_wait",
        t.bus.iter().map(|b| b.max_wait).max().unwrap_or(0) as f64,
    );
    v.set(
        "rtosunit.unit_port_frac",
        ratio(unit_cells(&|c| c.port.2), unit_cells(&|c| c.port.0)),
    );
    v.set(
        "rtosunit.unit_stall_cycles",
        unit(&|u| u.store_stall_cycles + u.load_stall_cycles),
    );
    v.set(
        "rtosunit.preload_hit_ratio",
        ratio(
            unit(&|u| u.preload_hits),
            unit(&|u| u.preload_hits + u.preload_misses),
        ),
    );
    v.set(
        "rtosunit.ctxq_full_stalls",
        sum(&|c| c.ctx_queue.map_or(0, |q| q.1)),
    );
    v.set(
        "rtosunit.slo_misses",
        sum(&|c| c.metrics.slo.map_or(0, |slo| slo.misses)),
    );
    v.set(
        "rtosunit.smp_ns_per_hart_cycle",
        ratio(ns(s.smp), s.smp_hart_cycles as f64),
    );
    v.set("rtosunit.setup_us_per_cell", us(s.setup, s.cells));
    v.set("rtosunit.harvest_us_per_cell", us(s.harvest, s.harvests));
    v.set("freertos_lite.build_us_per_image", us(s.build, s.images));
    v.set(
        "rtosbench.render_ms",
        ratio(ns(s.render) / 1e6, s.renders as f64),
    );
    v.set("rtosbench.artifact_bytes", parallel.artifact_bytes as f64);
    v.set(
        "rtosbench.worker_idle_frac",
        1.0 - ratio(
            parallel.busy_nanos as f64,
            parallel.workers as f64 * ns(parallel.wall),
        ),
    );
    v.set("rvsim_snapshot.encode_us", us(s.encode, s.encodes));
    v.set("rvsim_snapshot.restore_us", us(s.restore, s.restores));
    v.set(
        "rvsim_snapshot.bytes",
        ratio(
            t.snapshots.iter().map(|j| j.render().len()).sum::<usize>() as f64,
            t.snapshots.len() as f64,
        ),
    );
    v.set(
        "rvsim_check.rewind_reexec_cycles",
        ratio(s.reexec_cycles as f64, s.restores as f64),
    );
    v
}
