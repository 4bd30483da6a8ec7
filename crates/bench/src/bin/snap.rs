//! `snap` — system snapshot, fork, and resume from the command line.
//!
//! Verbs:
//!
//! * `snap save <core> <preset> <workload> <cycle> <out.json>` — boot the
//!   suite workload on `(core, preset)`, run to the given cycle, and
//!   write the sealed `rtosunit-snapshot-v1` document.
//! * `snap info <in.json>` — verify the envelope (schema + FNV-1a digest)
//!   and print the snapshot's self-description.
//! * `snap resume <in.json> <cycles>` — restore and run a further budget;
//!   prints the final cycle, retirement count, recorded episodes, and the
//!   state digest (deterministic: two resumes print the same line).
//! * `snap fork <in.json> <k> <cycles>` — restore `k` copies, each under
//!   a different seed-derived external-interrupt plan, and run them; the
//!   per-fork digests show the divergence, and fork 0 is re-executed to
//!   prove each plan is itself deterministic.
//! * `snap roundtrip <core> <preset> <workload> <cycle> <cycles>` — the
//!   CI smoke: run cold to `cycle + cycles`, and separately
//!   save-at-`cycle` → restore → run `cycles`; byte-diffs the two final
//!   sealed snapshots and exits non-zero on any mismatch.
//!
//! Cores and presets use their lowercase tags (`cv32e40p` / `cva6` /
//! `naxriscv`; `vanilla`, `slt`, ...); workloads are the suite names
//! (`pingpong_semaphore`, ...).

use rtosbench::workloads;
use rtosunit::{Preset, System};
use rvsim_cores::CoreKind;
use rvsim_snapshot as snap;
use std::process::ExitCode;

fn parse_core(s: &str) -> Result<CoreKind, String> {
    CoreKind::from_tag(s).ok_or_else(|| format!("unknown core `{s}` (cv32e40p|cva6|naxriscv)"))
}

fn parse_preset(s: &str) -> Result<Preset, String> {
    Preset::from_tag(s).ok_or_else(|| format!("unknown preset tag `{s}`"))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("bad {what} `{s}`"))
}

/// Boots `(core, preset, workload)` with no external interrupts and runs
/// to `cycle`, returning the sealed snapshot document.
fn boot(core: CoreKind, preset: Preset, workload: &str, cycle: u64) -> Result<snap::Json, String> {
    let w = workloads::by_name(workload)
        .ok_or_else(|| format!("unknown suite workload `{workload}`"))?;
    let image =
        workloads::build(&w, preset).map_err(|e| format!("workload failed to build: {e:?}"))?;
    let mut sys = System::new(core, preset);
    image.install(&mut sys);
    sys.run(cycle);
    if sys.halted() {
        return Err(format!("guest halted before cycle {cycle}"));
    }
    Ok(sys.snapshot())
}

fn load(path: &str) -> Result<snap::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    snap::open(&text).map_err(|e| format!("{path}: {e}"))
}

/// One line summarising a system's externally observable progress plus
/// the FNV-1a digest of its full state payload.
fn summary(sys: &System) -> String {
    let state = sys.state_snap().render();
    format!(
        "cycle {:>9}  retired {:>9}  episodes {:>4}  halted {:<5}  state {:#018x}",
        sys.platform.cycle(),
        sys.core.retired(),
        sys.records().len(),
        sys.halted(),
        snap::fnv1a(state.as_bytes())
    )
}

/// A seed-derived divergent interrupt plan: `n` external interrupts at
/// xorshift-spaced cycles after `from`.
fn divergent_irqs(sys: &mut System, seed: u64, from: u64, span: u64, n: usize) {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sys.schedule_external_irq(from + 1 + x % span.max(1));
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args {
        [v, core, preset, workload, cycle, out] if v == "save" => {
            let doc = boot(
                parse_core(core)?,
                parse_preset(preset)?,
                workload,
                parse_u64(cycle, "cycle")?,
            )?;
            std::fs::write(out, doc.render()).map_err(|e| format!("{out}: {e}"))?;
            println!("saved {workload} on {core}/{preset} at cycle {cycle} -> {out}");
            Ok(())
        }
        [v, path] if v == "info" => {
            let state = load(path)?;
            let sys = System::from_state_snap(&state).map_err(|e| e.to_string())?;
            println!(
                "schema {}  core {}  preset {}",
                snap::SCHEMA,
                sys.kind().name(),
                sys.preset().tag()
            );
            println!("{}", summary(&sys));
            Ok(())
        }
        [v, path, cycles] if v == "resume" => {
            let state = load(path)?;
            let mut sys = System::from_state_snap(&state).map_err(|e| e.to_string())?;
            sys.run(parse_u64(cycles, "cycle budget")?);
            println!("{}", summary(&sys));
            Ok(())
        }
        [v, path, k, cycles] if v == "fork" => {
            let state = load(path)?;
            let k = parse_u64(k, "fork count")? as usize;
            let budget = parse_u64(cycles, "cycle budget")?;
            let fork = |seed: u64| -> Result<System, String> {
                let mut sys = System::from_state_snap(&state).map_err(|e| e.to_string())?;
                let from = sys.platform.cycle();
                divergent_irqs(&mut sys, seed, from, budget / 2, 8);
                sys.run(budget);
                Ok(sys)
            };
            let mut first = String::new();
            for seed in 0..k as u64 {
                let line = summary(&fork(seed)?);
                println!("fork {seed:>2}  {line}");
                if seed == 0 {
                    first = line;
                }
            }
            // Each plan must itself be deterministic: re-running fork 0
            // from the same snapshot reproduces it bit-for-bit.
            if k > 0 && summary(&fork(0)?) != first {
                return Err("fork 0 re-execution diverged — snapshot restore is broken".into());
            }
            println!("fork 0 re-executed identically ({k} forks deterministic)");
            Ok(())
        }
        [v, core, preset, workload, cycle, cycles] if v == "roundtrip" => {
            let core = parse_core(core)?;
            let preset = parse_preset(preset)?;
            let cycle = parse_u64(cycle, "cycle")?;
            let budget = parse_u64(cycles, "cycle budget")?;
            let cold_doc = boot(core, preset, workload, cycle + budget)?;
            let saved_doc = boot(core, preset, workload, cycle)?;
            let state = snap::open(&saved_doc.render()).map_err(|e| e.to_string())?;
            let mut restored = System::from_state_snap(&state).map_err(|e| e.to_string())?;
            restored.run(budget);
            let resumed = restored.snapshot().render();
            if cold_doc.render() != resumed {
                return Err(format!(
                    "restored run diverged from the uninterrupted one at cycle {}",
                    cycle + budget
                ));
            }
            println!(
                "roundtrip ok: {workload} on {}/{} — save at {cycle}, resume {budget} \
                 cycles, snapshots byte-identical",
                core.name(),
                preset.tag()
            );
            Ok(())
        }
        _ => Err(
            "usage: snap save <core> <preset> <workload> <cycle> <out.json>\n\
                  \x20      snap info <in.json>\n\
                  \x20      snap resume <in.json> <cycles>\n\
                  \x20      snap fork <in.json> <k> <cycles>\n\
                  \x20      snap roundtrip <core> <preset> <workload> <cycle> <cycles>"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("snap: {e}");
            ExitCode::FAILURE
        }
    }
}
