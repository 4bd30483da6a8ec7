//! The parallel experiment-campaign layer.
//!
//! A [`CampaignSpec`] declares a full experiment matrix — every
//! `(core, preset, workload)` run a figure needs, including kernel-builder
//! customisations and platform overrides — and [`CampaignSpec::run`] fans
//! the runs out across `std::thread` workers with a shared atomic work
//! index (work stealing without any external dependency: each worker
//! claims the next undone index). Every [`System`] is self-contained, so
//! runs parallelise perfectly; outcomes are placed back by spec index, so
//! the aggregated [`Campaign`] — and the JSON artifact it renders — is
//! byte-identical regardless of worker count or completion order.
//!
//! The figure binaries (`fig9`, `ablations`, `extension_sync`,
//! `fig12_scaling`, `wcet_table`) are thin declarations over this layer:
//! they build a spec, run it, derive their human-readable tables from the
//! in-memory outcomes, and write the machine-readable campaign artifact to
//! `results/<name>.json` via [`Campaign::write_json`].

use crate::json::{Json, JsonWriter};
use crate::runner;
use crate::workloads::{self, Workload};
use freertos_lite::{GuestImage, KernelError};
use rtosunit::cv32rt::Cv32rtStats;
use rtosunit::hist::{LatencyHistogram, SloCounter};
use rtosunit::layout::{DMEM_BASE, IMEM_BASE};
use rtosunit::waterfall;
use rtosunit::{
    BusMasterStats, LatencyStats, Preset, SmpSystem, SwitchMetrics, SwitchRecord, System, UnitStats,
};
use rvsim_cores::{CoreCounters, CoreKind};
use rvsim_isa::csr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// How a run's raw switch episodes are reduced to measured latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterPolicy {
    /// The runner's standard filtering: skip
    /// [`WARMUP_SWITCHES`](runner::WARMUP_SWITCHES) cold switches, then
    /// drop critical-section-delayed episodes via
    /// [`entry_threshold`](runner::entry_threshold).
    #[default]
    Standard,
    /// Only skip the warm-up switches.
    WarmupOnly,
    /// Skip the warm-up switches, then keep only timer-tick episodes.
    WarmupTimerTicks,
    /// Keep every episode.
    All,
}

impl FilterPolicy {
    fn apply(self, core: CoreKind, records: &[SwitchRecord]) -> Vec<SwitchRecord> {
        match self {
            FilterPolicy::Standard => runner::filter_episodes(core, records),
            FilterPolicy::WarmupOnly => records
                .iter()
                .skip(runner::WARMUP_SWITCHES)
                .copied()
                .collect(),
            FilterPolicy::WarmupTimerTicks => records
                .iter()
                .skip(runner::WARMUP_SWITCHES)
                .filter(|r| r.cause == csr::CAUSE_TIMER)
                .copied()
                .collect(),
            FilterPolicy::All => records.to_vec(),
        }
    }
}

/// A pre-boot platform reconfiguration (the ablation knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigOverride {
    /// ctxQueue depth (paper §5.3); only meaningful on LSU-arbitrated
    /// cores.
    CtxQueueDepth(usize),
    /// Arbitration level (§5): `true` = LSU (share cache), `false` = bus.
    UnitArbitration(bool),
}

impl ConfigOverride {
    fn apply(self, sys: &mut System) {
        match self {
            ConfigOverride::CtxQueueDepth(d) => sys.platform.set_ctx_queue_depth(d),
            ConfigOverride::UnitArbitration(shares) => sys.platform.set_unit_arbitration(shares),
        }
    }
}

/// The workload a [`RunSpec`] executes.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadSpec {
    /// One of the suite workloads ([`workloads::ALL`]).
    Suite(Workload),
    /// A custom guest kernel built by a function of `(param, preset)` —
    /// plain `fn` pointers so specs stay `Send + Sync` for the executor.
    Custom {
        /// Display name.
        name: &'static str,
        /// Free parameter forwarded to `build` (e.g. a task count).
        param: u32,
        /// Kernel builder.
        build: fn(u32, Preset) -> Result<GuestImage, KernelError>,
        /// Cycle budget for the run.
        run_cycles: u64,
    },
    /// A custom guest kernel driven by an *open-loop* external-interrupt
    /// arrival process: instead of a fixed interval, `arrivals` computes
    /// the full list of injection cycles from `(param, run_cycles)` —
    /// bursty/Markov-modulated tail-latency workloads (ROADMAP item 4).
    /// Arrivals land whether or not the guest has caught up, so queueing
    /// delay shows up in the measured latencies.
    OpenLoop {
        /// Display name.
        name: &'static str,
        /// Free parameter forwarded to `build` and `arrivals` (e.g. the
        /// mean inter-arrival time).
        param: u32,
        /// Kernel builder.
        build: fn(u32, Preset) -> Result<GuestImage, KernelError>,
        /// Cycle budget for the run.
        run_cycles: u64,
        /// Arrival-cycle generator — a plain `fn` pointer, so specs stay
        /// `Send + Sync`; determinism is the generator's contract.
        arrivals: fn(u32, u64) -> Vec<u64>,
    },
    /// A closed-form model evaluation (no simulation) — area scaling,
    /// WCET analysis. The result lands in [`RunOutcome::analytic`].
    Analytic {
        /// Display name.
        name: &'static str,
        /// Free parameter forwarded to `eval` (e.g. a list length).
        param: u32,
        /// Model evaluator.
        eval: fn(u32, CoreKind, Preset) -> Json,
    },
}

impl WorkloadSpec {
    /// The workload's display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadSpec::Suite(w) => w.name,
            WorkloadSpec::Custom { name, .. }
            | WorkloadSpec::OpenLoop { name, .. }
            | WorkloadSpec::Analytic { name, .. } => name,
        }
    }

    fn param(&self) -> u32 {
        match self {
            WorkloadSpec::Suite(_) => 0,
            WorkloadSpec::Custom { param, .. }
            | WorkloadSpec::OpenLoop { param, .. }
            | WorkloadSpec::Analytic { param, .. } => *param,
        }
    }

    /// The cycle budget of a simulated workload (0 for analytic ones).
    fn run_cycles(&self) -> u64 {
        match self {
            WorkloadSpec::Suite(w) => w.run_cycles,
            WorkloadSpec::Custom { run_cycles, .. } | WorkloadSpec::OpenLoop { run_cycles, .. } => {
                *run_cycles
            }
            WorkloadSpec::Analytic { .. } => 0,
        }
    }
}

/// One run of the experiment matrix.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Explicit label; defaults to `core/preset/workload[@param]`.
    pub label: Option<String>,
    /// Core model.
    pub core: CoreKind,
    /// Unit configuration.
    pub preset: Preset,
    /// What to execute.
    pub workload: WorkloadSpec,
    /// Pre-boot reconfigurations, applied in order before the image
    /// installs.
    pub overrides: Vec<ConfigOverride>,
    /// Episode filtering for the measured latencies.
    pub filter: FilterPolicy,
    /// Use the cycle-by-cycle reference loop instead of batched stepping
    /// (the reference side of differential tests): `System::run_stepwise`
    /// for one hart, [`SmpSystem::run_stepwise`] for several.
    pub stepwise: bool,
    /// Per-run SLO latency budget in cycles; falls back to the campaign's
    /// [`CampaignSpec::slo`] when `None`. Misses are counted exactly at
    /// harvest time and reported in the v3 telemetry artifact.
    pub slo: Option<u64>,
    /// Hart count. 1 (the default) runs the classic single-core
    /// [`System`]; ≥ 2 runs an [`SmpSystem`] with the measured image on
    /// hart 0 and memory-pounding contention workers on the others, so
    /// the measured latencies include shared-bus arbitration delay.
    pub harts: usize,
}

impl RunSpec {
    /// A standard run: no overrides, standard filtering, batched stepping.
    pub fn new(core: CoreKind, preset: Preset, workload: WorkloadSpec) -> RunSpec {
        RunSpec {
            label: None,
            core,
            preset,
            workload,
            overrides: Vec::new(),
            filter: FilterPolicy::Standard,
            stepwise: false,
            slo: None,
            harts: 1,
        }
    }

    /// Sets the hart count (SMP contention axis) and returns `self`.
    pub fn with_harts(mut self, harts: usize) -> RunSpec {
        assert!(harts >= 1, "a run needs at least one hart");
        self.harts = harts;
        self
    }

    /// The effective label of this run.
    pub fn label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let mut l = format!(
            "{}/{}/{}",
            self.core.name(),
            self.preset.label(),
            self.workload.name()
        );
        if self.workload.param() != 0 {
            l.push_str(&format!("@{}", self.workload.param()));
        }
        if self.harts != 1 {
            l.push_str(&format!("/{}harts", self.harts));
        }
        l
    }
}

/// Simulation measurements of one run (absent for analytic runs).
///
/// A campaign holds every outcome until it renders, so an outcome keeps
/// one latency and one cause per filtered episode and counts or
/// histograms for the rest: the switch records, their waterfalls and the
/// guest's trace marks are summarised at harvest and dropped.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Completed switch episodes before the spec's [`FilterPolicy`].
    pub raw_switches: usize,
    /// Interrupt cause (`mcause`) of each episode the [`FilterPolicy`]
    /// kept, in order: `causes[i]` is the cause of `latencies[i]`.
    pub causes: Vec<u32>,
    /// Latencies of the filtered episodes, in cycles.
    pub latencies: Vec<u64>,
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// RTOSUnit activity counters, if a unit was attached.
    pub unit: Option<UnitStats>,
    /// CV32RT activity counters, if the comparison unit was attached.
    pub cv32rt: Option<Cv32rtStats>,
    /// Data-port occupancy `(total, core, unit)` cycles.
    pub port: (u64, u64, u64),
    /// Number of typed guest TRACE writes (benchmark and kernel phase
    /// marks).
    pub trace_marks: usize,
    /// `(issued, full-stall)` ctxQueue counters, if present.
    pub ctx_queue: Option<(u64, u64)>,
    /// Core activity counters (stall causes, decode cache, pairing).
    pub counters: CoreCounters,
    /// Streaming latency/phase histograms with optional exact SLO
    /// accounting, built at harvest time over the filtered episodes'
    /// waterfalls (phase widths come from kernel phase marks when the
    /// workload emits them). The phase histograms' exact count, min, max
    /// and total are the v3 artifact's waterfall summary; mergeable
    /// across runs for the campaign aggregate.
    pub metrics: SwitchMetrics,
    /// Per-hart shared-bus statistics (index = hart id); present only for
    /// SMP runs (`harts > 1`).
    pub bus: Option<Vec<BusMasterStats>>,
}

impl SimOutcome {
    /// Latency statistics of the filtered episodes.
    pub fn stats(&self) -> Option<LatencyStats> {
        LatencyStats::from_latencies(&self.latencies)
    }

    /// `(cause, latency)` of each filtered episode, in order — the input
    /// of [`rtosunit::trace::per_cause_stats`].
    pub fn episodes(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.causes
            .iter()
            .copied()
            .zip(self.latencies.iter().copied())
    }
}

/// The result of one executed [`RunSpec`], in spec order.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Index into [`CampaignSpec::runs`].
    pub index: usize,
    /// Effective label.
    pub label: String,
    /// Core model.
    pub core: CoreKind,
    /// Unit configuration.
    pub preset: Preset,
    /// Workload name.
    pub workload: &'static str,
    /// Workload parameter (0 when unused).
    pub param: u32,
    /// Hart count the run executed on (1 = classic single-core path).
    pub harts: usize,
    /// Simulation measurements (None for analytic runs).
    pub sim: Option<SimOutcome>,
    /// Analytic model output (None for simulated runs).
    pub analytic: Option<Json>,
    /// Host wall-clock time of this run, nanoseconds. Excluded from the
    /// deterministic v1 JSON artifact; emitted with campaign telemetry.
    pub host_nanos: u64,
}

impl RunOutcome {
    /// Latency statistics, if this run simulated and measured switches.
    pub fn stats(&self) -> Option<LatencyStats> {
        self.sim.as_ref().and_then(SimOutcome::stats)
    }
}

/// A declarative experiment matrix. Build with [`CampaignSpec::new`] /
/// [`CampaignSpec::matrix`], then execute with [`CampaignSpec::run`].
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name — also the `results/<name>.json` artifact stem.
    pub name: &'static str,
    /// The runs, executed in any order, aggregated in this order.
    pub runs: Vec<RunSpec>,
    /// Emit extended telemetry in the artifact (schema v3): per-run host
    /// wall-time, core counters, waterfall summaries, latency histograms
    /// with percentiles and SLO accounting, plus a campaign-wide
    /// aggregate. Off by default — standard artifacts stay byte-identical
    /// to the v1 schema.
    pub telemetry: bool,
    /// Campaign-wide SLO latency budget (cycles), used by every run that
    /// does not set its own [`RunSpec::slo`].
    pub slo: Option<u64>,
    /// Print a live progress line to stderr while the campaign runs.
    pub progress: bool,
}

impl CampaignSpec {
    /// An empty campaign.
    pub fn new(name: &'static str) -> CampaignSpec {
        CampaignSpec {
            name,
            runs: Vec::new(),
            telemetry: false,
            slo: None,
            progress: false,
        }
    }

    /// Enables extended artifact telemetry (schema v3).
    pub fn with_telemetry(mut self) -> CampaignSpec {
        self.telemetry = true;
        self
    }

    /// Sets the campaign-wide SLO latency budget (cycles).
    pub fn with_slo(mut self, threshold: u64) -> CampaignSpec {
        self.slo = Some(threshold);
        self
    }

    /// Enables the live stderr progress line.
    pub fn with_progress(mut self) -> CampaignSpec {
        self.progress = true;
        self
    }

    /// The full `cores × presets × workloads` cross product with standard
    /// settings (the Fig. 9 shape).
    pub fn matrix(
        name: &'static str,
        cores: &[CoreKind],
        presets: &[Preset],
        suite: &[Workload],
    ) -> CampaignSpec {
        let mut spec = CampaignSpec::new(name);
        for &core in cores {
            for &preset in presets {
                for &w in suite {
                    spec.runs
                        .push(RunSpec::new(core, preset, WorkloadSpec::Suite(w)));
                }
            }
        }
        spec
    }

    /// Adds a run and returns `self` for chaining.
    pub fn with(mut self, run: RunSpec) -> CampaignSpec {
        self.runs.push(run);
        self
    }

    /// Executes every run across `workers` threads (clamped to the run
    /// count; 1 = sequential). Outcomes are aggregated in spec order, so
    /// the result — including its JSON rendering — is identical for every
    /// worker count.
    ///
    /// Every run executes under `catch_unwind`, so a panicking run costs
    /// exactly its own result: the campaign always completes, carrying
    /// the other outcomes plus a [`Campaign::failures`] report.
    pub fn run(&self, workers: usize) -> Campaign {
        let started = Instant::now();
        let n = self.runs.len();
        let workers = workers.clamp(1, n.max(1));
        let mut results = Vec::with_capacity(n);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let runs = &self.runs;
                let default_slo = self.slo;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= runs.len() {
                        break;
                    }
                    let result = execute_isolated(i, &runs[i], default_slo);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, result) in rx {
                if self.progress {
                    let label = match &result {
                        Ok(o) => o.label.clone(),
                        Err(f) => format!("{} FAILED ({})", f.label, f.kind.name()),
                    };
                    progress_line(self.name, results.len() + 1, n, &label);
                }
                results.push((i, result));
            }
            if self.progress {
                finish_progress();
            }
        });
        results.sort_unstable_by_key(|&(i, _)| i);
        let mut outcomes = Vec::with_capacity(n);
        let mut failures = Vec::new();
        for (_, result) in results {
            match result {
                Ok(o) => outcomes.push(o),
                Err(f) => failures.push(f),
            }
        }
        Campaign {
            name: self.name,
            workers,
            telemetry: self.telemetry,
            outcomes,
            failures,
            host_nanos: started.elapsed().as_nanos() as u64,
            sections: Vec::new(),
        }
    }
}

/// Why one campaign run produced no outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The guest kernel failed to build.
    Build,
    /// The simulation panicked; caught by the worker's `catch_unwind`.
    Panicked,
}

impl FailureKind {
    /// Stable short name (artifacts, progress lines).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Build => "build",
            FailureKind::Panicked => "panicked",
        }
    }
}

/// One failed run.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Index into [`CampaignSpec::runs`].
    pub index: usize,
    /// Effective label of the failed run.
    pub label: String,
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable detail (panic message or builder error).
    pub detail: String,
}

impl RunFailure {
    /// Writes the failure as an entry of the artifact's `failures`
    /// section.
    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("index").u64(self.index as u64);
        w.key("label").str(&self.label);
        w.key("kind").str(self.kind.name());
        w.key("detail").str(&self.detail);
        w.end_object();
    }
}

/// Executes one run, turning a panic into a [`FailureKind::Panicked`]
/// failure.
fn execute_isolated(
    index: usize,
    spec: &RunSpec,
    default_slo: Option<u64>,
) -> Result<RunOutcome, RunFailure> {
    catch_unwind(AssertUnwindSafe(|| execute_run(index, spec, default_slo))).unwrap_or_else(
        |payload| {
            Err(RunFailure {
                index,
                label: spec.label(),
                kind: FailureKind::Panicked,
                detail: panic_message(payload),
            })
        },
    )
}

/// The message of a caught panic (`catch_unwind` payload), for failure
/// records.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Writes one progress update to stderr. On a terminal the line is
/// redrawn in place; on a pipe each completed run gets its own line so
/// logs stay readable.
fn progress_line(name: &str, done: usize, total: usize, label: &str) {
    use std::io::{IsTerminal, Write};
    let mut err = std::io::stderr().lock();
    if err.is_terminal() {
        let _ = write!(err, "\r\x1b[2K[{name} {done}/{total}] {label}");
        let _ = err.flush();
    } else {
        let _ = writeln!(err, "[{name} {done}/{total}] {label}");
    }
}

/// Terminates an in-place progress line so later output starts clean.
fn finish_progress() {
    use std::io::{IsTerminal, Write};
    let mut err = std::io::stderr().lock();
    if err.is_terminal() {
        let _ = writeln!(err);
    }
}

/// The deterministic aggregation of an executed [`CampaignSpec`].
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name.
    pub name: &'static str,
    /// Worker threads used (does not affect the results).
    pub workers: usize,
    /// Whether the JSON artifact carries extended (v3) telemetry.
    pub telemetry: bool,
    /// Successful outcomes in spec order. When every run succeeds (the
    /// normal case) this is one outcome per spec run.
    pub outcomes: Vec<RunOutcome>,
    /// Runs that produced no outcome, in spec order. Empty campaigns of
    /// failures keep the artifact byte-identical to the pre-resilience
    /// schema; any entry adds a `failures` section.
    pub failures: Vec<RunFailure>,
    /// Host wall-clock time of the whole campaign, nanoseconds.
    pub host_nanos: u64,
    /// Extra named artifact sections (e.g. oracle verification context),
    /// emitted after `runs` in attachment order. Empty by default, so
    /// plain campaigns stay byte-identical to the v1 schema.
    pub sections: Vec<(String, Json)>,
}

impl Campaign {
    /// Total simulated cycles across all runs.
    pub fn simulated_cycles(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.sim.as_ref())
            .map(|s| s.cycles)
            .sum()
    }

    /// One-line host-side throughput summary (non-deterministic — kept
    /// out of the JSON artifact).
    pub fn throughput_summary(&self) -> String {
        let cycles = self.simulated_cycles();
        format!(
            "campaign `{}`: {} runs, {cycles} simulated cycles in {:.2}s on {} workers ({:.2} Mcycles/s)",
            self.name,
            self.outcomes.len(),
            self.host_nanos as f64 / 1e9,
            self.workers,
            cycles as f64 * 1e3 / self.host_nanos.max(1) as f64,
        )
    }

    /// The outcome with the given label, if any.
    pub fn find(&self, label: &str) -> Option<&RunOutcome> {
        self.outcomes.iter().find(|o| o.label == label)
    }

    /// Attaches a named extra section to the JSON artifact (rendered
    /// after `runs`, in attachment order).
    pub fn attach_section(&mut self, name: &str, section: Json) {
        self.sections.push((name.to_string(), section));
    }

    /// Campaign-wide switch metrics: every simulated run's histograms
    /// merged (deterministic regardless of worker count — the merge is
    /// commutative and the outcomes are already in spec order). The SLO
    /// aggregate is present only when every contributing run tracked the
    /// same threshold.
    pub fn aggregate_metrics(&self) -> SwitchMetrics {
        let mut agg = SwitchMetrics::new(None);
        let mut slo: Option<SloCounter> = None;
        let mut slo_uniform = true;
        for sim in self.outcomes.iter().filter_map(|o| o.sim.as_ref()) {
            agg.latency.merge(&sim.metrics.latency);
            for (a, b) in agg.phases.iter_mut().zip(sim.metrics.phases.iter()) {
                a.merge(b);
            }
            match (&mut slo, &sim.metrics.slo) {
                (None, Some(s)) => slo = Some(*s),
                (Some(acc), Some(s)) if acc.threshold == s.threshold => acc.merge(s),
                (_, None) | (Some(_), Some(_)) => slo_uniform = false,
            }
        }
        agg.slo = if slo_uniform { slo } else { None };
        agg
    }

    /// The machine-readable artifact. Without telemetry this is the
    /// deterministic `rtosunit-campaign-v1` schema: everything measured,
    /// nothing host-dependent (no wall-clock, no worker count). With
    /// telemetry enabled the schema becomes `rtosunit-campaign-v3`,
    /// adding per-run host wall-time, core counters, latency waterfall
    /// summaries, per-run latency/phase histograms with percentile
    /// reports and SLO accounting, and a campaign-wide `aggregate`;
    /// `host_nanos` makes v3 host-dependent.
    ///
    /// The view borrows the campaign and builds nothing until
    /// [`CampaignJson::render`] writes the text.
    pub fn to_json(&self) -> CampaignJson<'_> {
        CampaignJson(self)
    }

    /// About the rendered artifact's length, for reserving it: six bytes
    /// (`1234, `) per latency plus what a run's other fields take (about
    /// 620 bytes in v1 and 3,900 in v3 on the Fig. 9 matrix).
    fn artifact_bytes_hint(&self) -> usize {
        let per_run = if self.telemetry { 4096 } else { 640 };
        self.outcomes
            .iter()
            .map(|o| per_run + o.sim.as_ref().map_or(0, |s| 6 * s.latencies.len()))
            .sum()
    }

    /// Writes `dir/<name>.json` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating `dir` or writing the
    /// file.
    pub fn write_json(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json().render())?;
        Ok(path)
    }
}

/// A [`Campaign`]'s artifact ([`Campaign::to_json`]), written on demand
/// straight from its outcomes.
#[derive(Debug, Clone, Copy)]
pub struct CampaignJson<'a>(&'a Campaign);

impl CampaignJson<'_> {
    /// Renders the artifact: each run's fields, latencies, histograms and
    /// counters go from its outcome into one `String` through a
    /// [`JsonWriter`], reserved up front from the runs' latency counts.
    pub fn render(&self) -> String {
        let c = self.0;
        let mut w = JsonWriter::with_capacity(c.artifact_bytes_hint());
        w.begin_object();
        w.key("schema").str(if c.telemetry {
            "rtosunit-campaign-v3"
        } else {
            "rtosunit-campaign-v1"
        });
        w.key("campaign").str(c.name);
        if c.telemetry {
            w.key("host_nanos").u64(c.host_nanos);
            w.key("workers").u64(c.workers as u64);
        }
        w.key("runs").begin_array();
        for o in &c.outcomes {
            write_run(&mut w, o, c.telemetry);
        }
        w.end_array();
        if !c.failures.is_empty() {
            w.key("failures").begin_array();
            for f in &c.failures {
                f.write(&mut w);
            }
            w.end_array();
        }
        if c.telemetry {
            w.key("aggregate");
            write_metrics(&mut w, &c.aggregate_metrics());
        }
        for (name, section) in &c.sections {
            w.key(name).value(section);
        }
        w.end_object();
        w.finish()
    }
}

/// Writes one run of the artifact's `runs` array.
fn write_run(w: &mut JsonWriter, o: &RunOutcome, telemetry: bool) {
    w.begin_object();
    w.key("label").str(&o.label);
    w.key("core").str(o.core.name());
    w.key("preset").str(o.preset.label());
    w.key("workload").str(o.workload);
    w.key("param").u64(o.param.into());
    // Emitted only for SMP runs so single-core campaigns stay
    // byte-identical to the pre-SMP v1 artifacts.
    if o.harts != 1 {
        w.key("harts").u64(o.harts as u64);
    }
    w.key("sim");
    match &o.sim {
        Some(sim) => write_sim(w, sim, telemetry),
        None => w.null(),
    }
    w.key("analytic");
    match &o.analytic {
        Some(analytic) => w.value(analytic),
        None => w.null(),
    }
    if telemetry {
        w.key("host_nanos").u64(o.host_nanos);
    }
    w.end_object();
}

/// Writes a run's `sim` object.
fn write_sim(w: &mut JsonWriter, sim: &SimOutcome, telemetry: bool) {
    w.begin_object();
    w.key("cycles").u64(sim.cycles);
    w.key("retired").u64(sim.retired);
    w.key("raw_switches").u64(sim.raw_switches as u64);
    w.key("switches").u64(sim.latencies.len() as u64);
    match sim.stats() {
        Some(s) => {
            w.key("mean").f64(s.mean);
            w.key("min").u64(s.min);
            w.key("max").u64(s.max);
            w.key("jitter").u64(s.jitter());
        }
        None => {
            for key in ["mean", "min", "max", "jitter"] {
                w.key(key).null();
            }
        }
    }
    w.key("latencies").begin_array();
    for &latency in &sim.latencies {
        w.u64(latency);
    }
    w.end_array();
    w.key("port").begin_object();
    w.key("total").u64(sim.port.0);
    w.key("core").u64(sim.port.1);
    w.key("unit").u64(sim.port.2);
    w.end_object();
    w.key("trace_marks").u64(sim.trace_marks as u64);
    w.key("ctx_queue");
    match sim.ctx_queue {
        Some((issued, stalls)) => {
            w.begin_object();
            w.key("issued").u64(issued);
            w.key("full_stalls").u64(stalls);
            w.end_object();
        }
        None => w.null(),
    }
    if let Some(bus) = &sim.bus {
        w.key("bus").begin_array();
        for m in bus {
            w.begin_object();
            w.key("grants").u64(m.grants);
            w.key("wait_cycles").u64(m.wait_cycles);
            w.key("max_wait").u64(m.max_wait);
            w.end_object();
        }
        w.end_array();
    }
    if telemetry {
        w.key("counters").begin_object();
        for (name, value) in sim.counters.named() {
            w.key(name).u64(value);
        }
        w.end_object();
        w.key("waterfall");
        write_waterfall(w, &sim.metrics);
        w.key("latency_hist");
        write_metrics(w, &sim.metrics);
    }
    w.end_object();
}

fn execute_run(
    index: usize,
    spec: &RunSpec,
    default_slo: Option<u64>,
) -> Result<RunOutcome, RunFailure> {
    let started = Instant::now();
    let (sim, analytic) = match spec.workload {
        WorkloadSpec::Analytic { param, eval, .. } => {
            (None, Some(eval(param, spec.core, spec.preset)))
        }
        _ => {
            let sim = simulate(spec, spec.slo.or(default_slo)).map_err(|e| RunFailure {
                index,
                label: spec.label(),
                kind: FailureKind::Build,
                detail: format!("workload `{}` failed to build: {e:?}", spec.workload.name()),
            })?;
            (Some(sim), None)
        }
    };
    Ok(RunOutcome {
        index,
        label: spec.label(),
        core: spec.core,
        preset: spec.preset,
        workload: spec.workload.name(),
        param: spec.workload.param(),
        harts: spec.harts,
        sim,
        analytic,
        host_nanos: started.elapsed().as_nanos() as u64,
    })
}

/// A run's simulator after [`boot`], before its first cycle.
pub enum Booted {
    /// The classic single-core system (`harts == 1`).
    Single(Box<System>),
    /// `harts ≥ 2`: the measured image on hart 0, [`contention_program`]
    /// on every other hart.
    Smp(SmpSystem),
}

/// Boots a simulated run: builds the guest image, applies the spec's
/// [`ConfigOverride`]s, installs the image and schedules the workload's
/// external-interrupt arrivals on the measured hart. Arrivals at cycle 0
/// or at or past the cycle budget are dropped.
///
/// # Errors
///
/// Propagates the kernel builder's error.
///
/// # Panics
///
/// Panics on a [`WorkloadSpec::Analytic`] workload, which has no guest.
pub fn boot(spec: &RunSpec) -> Result<Booted, KernelError> {
    let run_cycles = spec.workload.run_cycles();
    let (image, arrivals) = match spec.workload {
        WorkloadSpec::Suite(w) => (
            workloads::build(&w, spec.preset)?,
            w.ext_irq_arrivals(run_cycles),
        ),
        WorkloadSpec::Custom { param, build, .. } => (build(param, spec.preset)?, Vec::new()),
        WorkloadSpec::OpenLoop {
            param,
            build,
            arrivals,
            ..
        } => (build(param, spec.preset)?, arrivals(param, run_cycles)),
        WorkloadSpec::Analytic { name, .. } => {
            panic!("analytic workload `{name}` has no guest to boot")
        }
    };
    let mut booted = if spec.harts == 1 {
        Booted::Single(Box::new(System::new(spec.core, spec.preset)))
    } else {
        let mut smp = SmpSystem::new(spec.core, spec.preset, spec.harts);
        let pounder = contention_program();
        for h in 1..spec.harts {
            smp.load_program(h, &pounder);
        }
        Booted::Smp(smp)
    };
    let sys: &mut System = match &mut booted {
        Booted::Single(sys) => sys,
        Booted::Smp(smp) => smp.hart_mut(0),
    };
    for o in &spec.overrides {
        o.apply(sys);
    }
    image.install(sys);
    for &at in arrivals.iter().filter(|&&at| at > 0 && at < run_cycles) {
        sys.schedule_external_irq(at);
    }
    Ok(booted)
}

/// Boots `spec` ([`boot`]), runs its cycle budget — batched, or on the
/// cycle-by-cycle reference loop when [`RunSpec::stepwise`] is set — and
/// harvests the measured hart. `slo` is the latency budget counted into
/// [`SimOutcome::metrics`].
///
/// An SMP run takes [`SmpSystem::run`]'s lazy lockstep, in which harts
/// catch up over their drains in batches, or the per-cycle
/// [`SmpSystem::run_stepwise`] when [`RunSpec::stepwise`] is set. Every
/// other hart runs the memory-pounding [`contention_program`], so hart 0's
/// switch latencies include shared-bus arbitration delay (the `fig_smp`
/// axis).
///
/// # Errors
///
/// Propagates the kernel builder's error.
///
/// # Panics
///
/// Panics on a [`WorkloadSpec::Analytic`] workload, like [`boot`].
pub fn simulate(spec: &RunSpec, slo: Option<u64>) -> Result<SimOutcome, KernelError> {
    let run_cycles = spec.workload.run_cycles();
    Ok(match boot(spec)? {
        Booted::Single(mut sys) => {
            if spec.stepwise {
                sys.run_stepwise(run_cycles);
            } else {
                sys.run(run_cycles);
            }
            harvest(&mut sys, spec, None, slo)
        }
        Booted::Smp(mut smp) => {
            if spec.stepwise {
                smp.run_stepwise(run_cycles);
            } else {
                smp.run(run_cycles);
            }
            let bus: Vec<BusMasterStats> = {
                let shared = smp.shared();
                let shared = shared.borrow();
                (0..spec.harts).map(|h| shared.bus_stats(h)).collect()
            };
            harvest(smp.hart_mut(0), spec, Some(bus), slo)
        }
    })
}

/// An endless load/store walk over the hart's private DMEM bank: pure
/// shared-bus pressure, no functional footprint outside its own bank —
/// the program every hart but hart 0 runs on the SMP contention axis.
///
/// The walk visits 8 addresses 4 KiB apart — the same cache set on both
/// cached cores (CVA6: 64 sets × 16 B lines; NaxRiscv: 64 sets × 64 B
/// lines) with more tags than either's 4 ways — so every iteration
/// misses (and write-back evicts) instead of settling into the cache
/// and going silent on the bus.
pub fn contention_program() -> rvsim_isa::Program {
    use rvsim_isa::{Asm, Reg};
    let mut a = Asm::new(IMEM_BASE);
    a.li(Reg::T4, 4096);
    a.label("pound");
    a.li(Reg::T2, DMEM_BASE as i32);
    a.li(Reg::T1, 8);
    a.label("slot");
    a.sw(Reg::T3, 0, Reg::T2);
    a.lw(Reg::T3, 4, Reg::T2);
    a.add(Reg::T2, Reg::T2, Reg::T4);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bne(Reg::T1, Reg::Zero, "slot");
    a.j("pound");
    a.finish().expect("contention program assembles")
}

/// Reduces the run's switch records to what a [`SimOutcome`] keeps: the
/// filtered episodes' latencies and causes, and their waterfalls folded
/// into [`SwitchMetrics`]. The records and waterfalls are dropped here.
fn harvest(
    sys: &mut System,
    spec: &RunSpec,
    bus: Option<Vec<BusMasterStats>>,
    slo: Option<u64>,
) -> SimOutcome {
    let raw_records = sys.take_records();
    let records = spec.filter.apply(spec.core, &raw_records);
    let trace_marks = &sys.platform.mmio.trace_marks;
    let metrics = SwitchMetrics::from_episodes(&waterfall::decompose(&records, trace_marks), slo);
    SimOutcome {
        raw_switches: raw_records.len(),
        causes: records.iter().map(|r| r.cause).collect(),
        latencies: records.iter().map(SwitchRecord::latency).collect(),
        cycles: sys.platform.cycle(),
        retired: sys.core.retired(),
        unit: sys.unit_stats(),
        cv32rt: sys.cv32rt_unit().map(|u| u.stats),
        port: sys.platform.port_occupancy(),
        trace_marks: trace_marks.len(),
        ctx_queue: sys.platform.ctx_queue_stats(),
        counters: sys.core.counters(),
        metrics,
        bus,
    }
}

/// Writes one [`LatencyHistogram`] as its summary plus the standard
/// percentile report ([`rtosunit::hist::REPORTED_PERCENTILES`]). Empty
/// histograms write `null` fields so readers need no special cases.
fn write_histogram(w: &mut JsonWriter, h: &LatencyHistogram) {
    w.begin_object();
    w.key("count").u64(h.count());
    match (h.min(), h.max(), h.mean()) {
        (Some(min), Some(max), Some(mean)) => {
            w.key("min").u64(min);
            w.key("max").u64(max);
            w.key("mean").f64(mean);
        }
        _ => {
            for key in ["min", "max", "mean"] {
                w.key(key).null();
            }
        }
    }
    w.key("percentiles").begin_object();
    match h.report() {
        Some(report) => {
            for (name, value) in report {
                w.key(name).u64(value);
            }
        }
        None => {
            for (name, _) in rtosunit::hist::REPORTED_PERCENTILES {
                w.key(name).null();
            }
        }
    }
    w.end_object();
    w.end_object();
}

/// Writes a run's [`SwitchMetrics`]: the end-to-end latency histogram,
/// one histogram per waterfall phase, and the SLO accounting (`null`
/// when no budget is configured).
fn write_metrics(w: &mut JsonWriter, m: &SwitchMetrics) {
    w.begin_object();
    w.key("latency");
    write_histogram(w, &m.latency);
    w.key("phases").begin_object();
    for (name, hist) in m.named_phases() {
        w.key(name);
        write_histogram(w, hist);
    }
    w.end_object();
    w.key("slo");
    match &m.slo {
        Some(slo) => {
            w.begin_object();
            w.key("threshold").u64(slo.threshold);
            w.key("total").u64(slo.total);
            w.key("misses").u64(slo.misses);
            w.key("miss_rate").f64(slo.miss_rate());
            w.end_object();
        }
        None => w.null(),
    }
    w.end_object();
}

/// Writes a run's waterfall summary: per-phase mean, min, max and jitter,
/// from the phase histograms' exact count, min, max and total (the same
/// figures [`waterfall::phase_stats`] computes from the episodes). No
/// episodes write an empty `phases` object.
fn write_waterfall(w: &mut JsonWriter, m: &SwitchMetrics) {
    w.begin_object();
    w.key("episodes").u64(m.latency.count());
    w.key("phases").begin_object();
    for (name, hist) in m.named_phases() {
        if let (Some(mean), Some(min), Some(max)) = (hist.mean(), hist.min(), hist.max()) {
            w.key(name).begin_object();
            w.key("mean").f64(mean);
            w.key("min").u64(min);
            w.key("max").u64(max);
            w.key("jitter").u64(max - min);
            w.end_object();
        }
    }
    w.end_object();
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;
    use freertos_lite::KernelBuilder;

    fn tiny_kernel(_param: u32, preset: Preset) -> Result<GuestImage, KernelError> {
        let mut k = KernelBuilder::new(preset);
        k.task("a", 5, |t| t.yield_now());
        k.task("b", 4, |t| t.yield_now());
        k.build()
    }

    fn empty_kernel(_param: u32, preset: Preset) -> Result<GuestImage, KernelError> {
        KernelBuilder::new(preset).build()
    }

    /// One task that never yields: no switch before the first tick.
    fn lone_kernel(_param: u32, preset: Preset) -> Result<GuestImage, KernelError> {
        let mut k = KernelBuilder::new(preset);
        k.task("a", 5, |t| t.compute(10));
        k.build()
    }

    #[test]
    fn campaign_survives_panics_and_build_failures() {
        let good = RunSpec::new(
            CoreKind::Cv32e40p,
            Preset::Vanilla,
            WorkloadSpec::Custom {
                name: "good",
                param: 0,
                build: tiny_kernel,
                run_cycles: 50_000,
            },
        );
        let panicking = RunSpec::new(
            CoreKind::Cv32e40p,
            Preset::Vanilla,
            WorkloadSpec::Analytic {
                name: "boom",
                param: 0,
                eval: |_, _, _| panic!("induced worker panic"),
            },
        );
        let unbuildable = RunSpec::new(
            CoreKind::Cv32e40p,
            Preset::Vanilla,
            WorkloadSpec::Custom {
                name: "nobuild",
                param: 0,
                build: empty_kernel,
                run_cycles: 1_000,
            },
        );
        let c = CampaignSpec::new("test_resilience")
            .with(good)
            .with(panicking)
            .with(unbuildable)
            .run(2);
        // The campaign completed with partial results: the good run's
        // outcome plus one reported failure per broken run.
        assert_eq!(c.outcomes.len(), 1);
        assert_eq!(c.outcomes[0].workload, "good");
        assert!(c.outcomes[0].sim.is_some());
        assert_eq!(c.failures.len(), 2);
        let boom = &c.failures[0];
        assert_eq!(boom.kind, FailureKind::Panicked);
        assert!(boom.detail.contains("induced worker panic"));
        let nobuild = &c.failures[1];
        assert_eq!(nobuild.kind, FailureKind::Build);
        assert!(nobuild.detail.contains("nobuild"));
        // The artifact reports the failures.
        let rendered = c.to_json().render();
        assert!(rendered.contains("\"failures\""));
        assert!(rendered.contains("\"panicked\""));
        assert!(rendered.contains("\"build\""));
    }

    #[test]
    fn every_artifact_shape_keeps_the_tree_layout() {
        // The shapes neither artifact pin reaches: an SMP run, a build
        // failure and a panic, an analytic run, a run with no measured
        // switch, attached sections as `fig_smp` attaches them, and an
        // empty run list. Each renders as v1 and as v3, and the value
        // tree parsed back from the text must render the same text.
        let w = workloads::by_name("pingpong_semaphore").expect("exists");
        let custom = |name, build, run_cycles| WorkloadSpec::Custom {
            name,
            param: 0,
            build,
            run_cycles,
        };
        let analytic = |name, eval| WorkloadSpec::Analytic {
            name,
            param: 3,
            eval,
        };
        let mut shapes = CampaignSpec::new("test_shapes")
            .with(
                RunSpec::new(CoreKind::Cv32e40p, Preset::Slt, WorkloadSpec::Suite(w)).with_harts(2),
            )
            .with(RunSpec::new(
                CoreKind::Cv32e40p,
                Preset::Vanilla,
                custom("silent", lone_kernel, 1_000),
            ))
            .with(RunSpec::new(
                CoreKind::Cva6,
                Preset::T,
                analytic("rows", |p, _, _| {
                    Json::object()
                        .with("square", u64::from(p * p))
                        .with("ratio", 0.5)
                        .with("rows", Json::Array(vec![Json::object().with("x", -1i64)]))
                }),
            ))
            .with(RunSpec::new(
                CoreKind::Cva6,
                Preset::T,
                analytic("boom", |_, _, _| panic!("induced worker panic")),
            ))
            .with(RunSpec::new(
                CoreKind::Cv32e40p,
                Preset::Vanilla,
                custom("nobuild", empty_kernel, 1_000),
            ))
            .with_slo(400)
            .run(2);
        shapes.attach_section(
            "verification",
            Json::object().with(
                "oracle_2harts",
                Json::object().with("pass", true).with("schedules", 12u64),
            ),
        );
        shapes.attach_section(
            "bus_contention",
            Json::object().with(
                "per_hart",
                vec![Json::object().with("hart", 0u64).with("grants", 5u64)],
            ),
        );
        let empty = CampaignSpec::new("test_empty").run(1);
        for mut c in [shapes, empty] {
            for telemetry in [false, true] {
                c.telemetry = telemetry;
                let text = c.to_json().render();
                let tree = Json::parse(&text).expect("the artifact parses");
                assert_eq!(tree.render(), text, "{} (v3: {telemetry})", c.name);
                let runs = tree.get("runs").and_then(Json::as_array).expect("runs");
                assert_eq!(runs.len(), c.outcomes.len());
                if c.outcomes.is_empty() {
                    assert!(text.contains("\"runs\": []"));
                    continue;
                }
                for shape in [
                    "\"harts\": 2",
                    "\"bus\": [",
                    "\"failures\": [",
                    "\"panicked\"",
                    "\"build\"",
                    "\"sim\": null",
                    "\"square\": 9",
                    "\"mean\": null",
                    "\"latencies\": []",
                    "\"verification\": {",
                    "\"per_hart\": [",
                ] {
                    assert!(text.contains(shape), "v3: {telemetry}, no `{shape}`");
                }
            }
        }
    }

    fn tiny_spec() -> CampaignSpec {
        let w = workloads::by_name("pingpong_semaphore").expect("exists");
        CampaignSpec::new("test_tiny")
            .with(RunSpec::new(
                CoreKind::Cv32e40p,
                Preset::Vanilla,
                WorkloadSpec::Suite(w),
            ))
            .with(RunSpec::new(
                CoreKind::Cv32e40p,
                Preset::Slt,
                WorkloadSpec::Suite(w),
            ))
            .with(RunSpec::new(
                CoreKind::Cva6,
                Preset::S,
                WorkloadSpec::Suite(w),
            ))
    }

    #[test]
    fn outcomes_arrive_in_spec_order() {
        let c = tiny_spec().run(3);
        assert_eq!(c.outcomes.len(), 3);
        for (i, o) in c.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert!(o.sim.as_ref().is_some_and(|s| !s.latencies.is_empty()));
        }
        assert_eq!(c.outcomes[0].preset, Preset::Vanilla);
        assert_eq!(c.outcomes[2].core, CoreKind::Cva6);
    }

    #[test]
    fn worker_count_does_not_change_the_artifact() {
        let spec = tiny_spec();
        let sequential = spec.run(1).to_json().render();
        let parallel = spec.run(3).to_json().render();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn analytic_runs_skip_simulation() {
        let spec = CampaignSpec::new("test_analytic").with(RunSpec::new(
            CoreKind::Cv32e40p,
            Preset::T,
            WorkloadSpec::Analytic {
                name: "square",
                param: 12,
                eval: |p, _, _| Json::object().with("square", u64::from(p) * u64::from(p)),
            },
        ));
        let c = spec.run(2);
        assert!(c.outcomes[0].sim.is_none());
        let rendered = c.to_json().render();
        assert!(rendered.contains("\"square\": 144"));
    }

    /// Boots a single-hart spec ([`boot`]).
    fn boot_single(spec: &RunSpec) -> Box<System> {
        match boot(spec).expect("workload builds") {
            Booted::Single(sys) => sys,
            Booted::Smp(_) => panic!("a 1-hart spec boots a System"),
        }
    }

    #[test]
    fn stepwise_and_batched_produce_identical_measurements() {
        // Compared on the booted systems, before harvest reduces them:
        // every switch record, every trace mark and every waterfall.
        let w = workloads::by_name("roundrobin_yield").expect("exists");
        let spec = RunSpec::new(CoreKind::Cv32e40p, Preset::Slt, WorkloadSpec::Suite(w));
        let mut batched = boot_single(&spec);
        let mut stepwise = boot_single(&spec);
        batched.run(w.run_cycles);
        stepwise.run_stepwise(w.run_cycles);
        let (a, b) = (batched.take_records(), stepwise.take_records());
        assert!(a.len() > 20, "{} switch records", a.len());
        assert_eq!(a, b);
        assert_eq!(batched.platform.cycle(), stepwise.platform.cycle());
        assert_eq!(batched.core.retired(), stepwise.core.retired());
        assert_eq!(
            batched.platform.port_occupancy(),
            stepwise.platform.port_occupancy()
        );
        let (marks_a, marks_b) = (
            &batched.platform.mmio.trace_marks,
            &stepwise.platform.mmio.trace_marks,
        );
        assert_eq!(marks_a, marks_b);
        assert_eq!(
            batched.core.counters().without_host_stats(),
            stepwise.core.counters().without_host_stats()
        );
        assert_eq!(
            waterfall::decompose(&a, marks_a),
            waterfall::decompose(&b, marks_b)
        );
    }

    #[test]
    fn smp_contention_stretches_latency_and_reports_bus_stats() {
        let w = workloads::by_name("pingpong_semaphore").expect("exists");
        let solo = RunSpec::new(CoreKind::Cv32e40p, Preset::Vanilla, WorkloadSpec::Suite(w));
        let contended = solo.clone().with_harts(4);
        let c = CampaignSpec::new("test_smp")
            .with(solo)
            .with(contended)
            .run(2);
        assert!(
            c.outcomes[1].label.ends_with("/pingpong_semaphore/4harts"),
            "SMP label missing the harts suffix: {}",
            c.outcomes[1].label
        );
        let a = c.outcomes[0].sim.as_ref().expect("sim");
        let b = c.outcomes[1].sim.as_ref().expect("sim");
        assert!(a.bus.is_none(), "single-core runs carry no bus stats");
        let bus = b.bus.as_ref().expect("SMP run reports bus stats");
        assert_eq!(bus.len(), 4);
        assert!(bus[1].grants > 0, "contention workers never hit the bus");
        let (sa, sb) = (a.stats().expect("stats"), b.stats().expect("stats"));
        assert!(
            sb.mean > sa.mean,
            "bus contention must stretch mean switch latency: {} !> {}",
            sb.mean,
            sa.mean
        );
        let rendered = c.to_json().render();
        assert!(rendered.contains("\"harts\": 4"));
        assert!(rendered.contains("\"wait_cycles\""));
        // The single-core run's JSON is unchanged by the SMP axis.
        assert!(!rendered.contains("\"harts\": 1"));
    }

    #[test]
    fn smp_runs_receive_the_workloads_external_interrupts() {
        let w = workloads::by_name("interrupt_latency").expect("exists");
        let spec =
            RunSpec::new(CoreKind::Cv32e40p, Preset::Slt, WorkloadSpec::Suite(w)).with_harts(2);
        let Booted::Smp(mut smp) = boot(&spec).expect("workload builds") else {
            panic!("a 2-hart spec boots an SmpSystem");
        };
        smp.run(w.run_cycles);
        let external = smp
            .hart_mut(0)
            .records()
            .iter()
            .filter(|r| r.cause == csr::CAUSE_EXTERNAL)
            .count();
        assert_eq!(external, w.ext_irq_arrivals(w.run_cycles).len());
    }

    #[test]
    fn telemetry_upgrades_the_schema_and_adds_sections() {
        let w = workloads::by_name("pingpong_semaphore").expect("exists");
        let run = || {
            CampaignSpec::new("test_telemetry").with(RunSpec::new(
                CoreKind::Cv32e40p,
                Preset::Slt,
                WorkloadSpec::Suite(w),
            ))
        };
        let plain = run().run(1).to_json().render();
        assert!(plain.contains("\"schema\": \"rtosunit-campaign-v1\""));
        assert!(!plain.contains("counters"));
        assert!(!plain.contains("host_nanos"));
        let rich = run().with_telemetry().run(1).to_json().render();
        assert!(rich.contains("\"schema\": \"rtosunit-campaign-v3\""));
        for key in [
            "counters",
            "stall_exec",
            "waterfall",
            "episodes",
            "host_nanos",
            "workers",
            "latency_hist",
            "percentiles",
            "\"p99.99\"",
            "aggregate",
        ] {
            assert!(rich.contains(key), "v3 artifact missing `{key}`");
        }
        // The waterfall summary is read off the phase histograms; it must
        // equal the per-phase statistics of the run's decomposed episodes.
        let c = run().run(1);
        let sim = c.outcomes[0].sim.as_ref().expect("sim");
        let spec = &run().runs[0];
        let mut sys = boot_single(spec);
        sys.run(w.run_cycles);
        let records = spec.filter.apply(spec.core, &sys.take_records());
        let episodes = waterfall::decompose(&records, &sys.platform.mmio.trace_marks);
        assert!(!episodes.is_empty());
        for e in &episodes {
            assert_eq!(e.phases.iter().sum::<u64>(), e.record.latency());
        }
        let mut expected = Json::object();
        for (name, stats) in waterfall::phase_stats(&episodes) {
            expected.push(
                name,
                Json::object()
                    .with("mean", stats.mean)
                    .with("min", stats.min)
                    .with("max", stats.max)
                    .with("jitter", stats.jitter()),
            );
        }
        let expected = Json::object()
            .with("episodes", episodes.len())
            .with("phases", expected);
        let mut w = JsonWriter::new();
        write_waterfall(&mut w, &sim.metrics);
        assert_eq!(w.finish(), expected.render());
        let causes: Vec<u32> = records.iter().map(|r| r.cause).collect();
        assert_eq!(sim.causes, causes);
    }
}
