//! The simulator benchmark: one workload per invocation, its metrics
//! printed by name and unit, its outputs checked. See README.md.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig9_matrix --seed 1 --seconds 10 --trace 0
//! ```

mod calib;
mod cell;
mod checks;
mod host;
mod metrics;
mod trace;
mod workload;

use metrics::{median, ratio, Kind, Values};
use rtosbench::tail::SLO_CYCLES;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <fig9_matrix|tail_bursty|smp_contention|\
                     time_travel|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// Set-up samples per run. Each sample repeats the set-up back to back
/// for at least [`SETUP_SAMPLE_S`], so a sub-millisecond set-up is still
/// timed far above timer and scheduling noise.
const SETUP_SAMPLES: usize = 21;
const SETUP_SAMPLE_S: f64 = 0.05;

struct Args {
    /// The workloads to run in turn: one, or `all`.
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// A few cells per workload and a single set-up, for the benchmark's
    /// own tests.
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => workload = Some(vec![Workload::parse(&value).ok_or_else(bad)?]),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&parsed.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    parsed.workloads = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Counts of one invocation's operations (campaign cells or supervised
/// cells, plus sampled checks).
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// Metrics printed for people but kept off the result line, because
    /// they read 0 on some workloads.
    extra: Vec<(&'static str, &'static str, Kind, f64)>,
}

impl Tally {
    fn checks(&mut self, attempted: usize, failures: Vec<String>) {
        self.attempted += attempted as u64;
        self.failed += failures.len() as u64;
        self.notes.extend(failures);
    }
}

/// Set-up time, measured and scaled to the reference host.
struct Setup {
    raw_s: f64,
    ref_s: f64,
    /// The median one-thread calibration time of the set-up samples.
    cal_s: f64,
}

/// Times input generation on this one thread, as a user's program sets
/// up before its campaign starts. Each of [`SETUP_SAMPLES`] samples runs
/// the one-thread calibration loop, then repeats the set-up for at least
/// [`SETUP_SAMPLE_S`]; the set-up time is the median per-set-up time of
/// the samples, each scaled by its own calibration. Returns one more set
/// of inputs, generated untimed, for the run. In smoke mode there is one
/// sample of one set-up.
fn setup(args: &Args, w: Workload) -> Result<(Inputs, Setup), String> {
    // One repeated set-up, timed: seconds per set-up.
    let repeat = || -> Result<f64, String> {
        let started = Instant::now();
        let mut reps = 0u32;
        loop {
            std::hint::black_box(workload::prepare(w, args.seed, args.smoke)?);
            reps += 1;
            if args.smoke || started.elapsed().as_secs_f64() >= SETUP_SAMPLE_S {
                return Ok(started.elapsed().as_secs_f64() / f64::from(reps));
            }
        }
    };
    let samples = if args.smoke { 1 } else { SETUP_SAMPLES };
    // An untimed sample first, so the heap has grown to its steady size.
    repeat()?;
    let (mut raw, mut scaled, mut cals) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..samples {
        let cal = calib::measure(1);
        let each = repeat()?;
        raw.push(each);
        scaled.push(each * calib::REFERENCE_S / cal);
        cals.push(cal);
    }
    let setup = Setup {
        raw_s: median(&raw),
        ref_s: median(&scaled),
        cal_s: median(&cals),
    };
    Ok((workload::prepare(w, args.seed, args.smoke)?, setup))
}

/// The end-to-end metrics: timed passes until `seconds` have elapsed,
/// after one untimed pass that every later pass must reproduce. The
/// calibration loop runs before each pass; host times on the result line
/// are scaled by it (see `calib`), and the raw ones are printed beside.
fn timed(args: &Args, inputs: &Inputs, setup: &Setup, workers: usize, tally: &mut Tally) -> Values {
    let n = inputs.len() as u64;
    let reference = Pass::run(inputs, workers);
    tally.attempted += n;
    tally.failed += reference.failed() as u64;
    let mut walls = Vec::new();
    let mut scaled = Vec::new();
    let mut cals = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while walls.is_empty() || Instant::now() < deadline {
        let cal = calib::measure(workers);
        let pass = Pass::run(inputs, workers);
        tally.attempted += n;
        if pass.digest == reference.digest {
            tally.failed += pass.failed() as u64;
        } else {
            tally.failed += n;
            tally.notes.push(format!(
                "timed pass {} output differs from the first pass",
                walls.len() + 1
            ));
        }
        let wall = pass.wall.as_secs_f64();
        walls.push(wall);
        scaled.push(wall * calib::REFERENCE_S / cal);
        cals.push(cal);
    }
    let mcycles = reference.sim_cycles() as f64 / 1e6;
    let results = reference.cell_results(inputs.len());
    tally.checks(inputs.samples.len(), checks::sampled(inputs, &results));

    let aggregate = reference.aggregate();
    if aggregate.latency.count() == 0 {
        tally.failed += 1;
        tally.notes.push("no context switch was measured".into());
    }
    let latencies = reference.latencies();
    let over_slo = latencies.iter().filter(|&&l| l > SLO_CYCLES).count();
    tally.notes.push(format!(
        "{} switches, {over_slo} over the {SLO_CYCLES}-cycle SLO",
        latencies.len()
    ));
    tally.extra.push((
        "slo_miss_rate",
        "ratio",
        Kind::Simulated,
        ratio(over_slo as f64, latencies.len() as f64),
    ));
    tally.notes.push(passes_note("timed", &walls));
    for (name, unit, value) in [
        ("wall_raw_s", "s", median(&walls)),
        (
            "sim_mcycles_per_raw_s",
            "Mcycles/s",
            mcycles / median(&walls),
        ),
        ("setup_raw_s", "s", setup.raw_s),
        ("calibration_s", "s", median(&cals)),
    ] {
        tally.extra.push((name, unit, Kind::Host, value));
    }
    let percentile = |p| aggregate.latency.percentile(p).unwrap_or(0) as f64;
    let mut v = Values::default();
    v.set("wall_s", median(&scaled));
    v.set("sim_mcycles_per_s", mcycles / median(&scaled));
    v.set("setup_s", setup.ref_s);
    v.set("peak_rss_mb", host::peak_rss_mb());
    v.set(
        "switch_mean_cycles",
        aggregate.latency.mean().unwrap_or(0.0),
    );
    v.set("switch_p50_cycles", percentile(50.0));
    v.set("switch_p99_cycles", percentile(99.0));
    v
}

fn passes_note(what: &str, walls: &[f64]) -> String {
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    format!("{} {what} passes, wall s: {}", walls.len(), shown.join(" "))
}

/// Runs one workload and prints its block: context, notes, every metric
/// by name, unit and kind, and the result line last.
fn run(args: &Args, w: Workload) -> Result<(), String> {
    let workers = host::nproc();
    let (inputs, setup) = setup(args, w)?;
    let mut tally = Tally::default();
    let values = if args.trace {
        let report = trace::run(&inputs, workers, args.seconds);
        tally.attempted += report.attempted;
        tally.checks(0, report.failures);
        tally.notes.push(passes_note("traced", &report.walls));
        tally
            .extra
            .push(("calibration_s", "s", Kind::Host, setup.cal_s));
        tally.checks(
            inputs.samples.len(),
            checks::sampled(&inputs, &report.reference),
        );
        report.values
    } else {
        timed(args, &inputs, &setup, workers, &mut tally)
    };
    let metrics = values.resolve(args.trace)?;
    tally.extra.push((
        "failed_frac",
        "ratio",
        Kind::Host,
        ratio(tally.failed as f64, tally.attempted as f64),
    ));

    println!(
        "# context {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"cpu\": \"{}\", \"nproc\": {}, \
         \"workers\": {workers}, \"commit\": \"{}\", \"cells\": {}}}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        host::cpu_model().replace('"', "'"),
        host::nproc(),
        host::git_commit(),
        inputs.len(),
    );
    for note in &tally.notes {
        println!("# {note}");
    }
    for (name, unit, kind, value) in metrics.iter().chain(&tally.extra) {
        println!("# {name:<42} {value:>16.6} {unit:<10} {}", kind.label());
    }
    println!(
        "{}",
        metrics::result_line(tally.attempted, tally.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for &w in &args.workloads {
        if let Err(e) = run(&args, w) {
            eprintln!("perfbench: {}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
