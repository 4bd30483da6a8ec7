//! Differential fuzzing front-end (DESIGN.md §9).
//!
//! Drives the `rvsim-check` harness from the command line:
//!
//! * `checkfuzz fuzz [--secs N] [--start-seed S] [--blocks] [--snap]` —
//!   time-boxed fuzz loop alternating golden-model lockstep episodes and
//!   scheduler-oracle scenarios across all cores and ISR variants. With
//!   `--blocks` the lockstep episodes drive the engine through the block
//!   translation cache (batched `run_until`) instead of per-cycle
//!   stepping; with `--snap` each episode round-trips the engine through
//!   the snapshot codec at pseudo-random retire points mid-run, so any
//!   state the codec fails to carry diverges from the golden model.
//!   Both modes are recorded in the replay artifact, so shrink and
//!   replay reproduce under the same engine path. Failures are shrunk
//!   to minimal counterexamples and written to `results/repro/*.json`;
//!   the exit code is non-zero if anything failed.
//! * `checkfuzz replay <path>...` — re-runs replay artifacts
//!   byte-for-byte; exit code is non-zero if any still fails.
//! * `checkfuzz selftest` — injects a known executor bug (flipped `sltu`
//!   carry in the golden model), verifies the lockstep harness catches
//!   it, shrinks it, round-trips the artifact through disk and replays
//!   it. Guards the guard.
//! * `checkfuzz travel [--cycles N] [--interval N]` — time-travel
//!   self-check: runs generated kernel scenarios forward under periodic
//!   auto-checkpoints, rewinds to intermediate cycles (restore nearest
//!   checkpoint + deterministic re-execution) and byte-compares every
//!   rewound state snapshot against a cold run stopped at that cycle.
//!
//! The nightly CI job runs `fuzz` with a fresh start seed and uploads
//! `results/repro/` so failures arrive as self-contained repro files.

use rtosbench::json::Json;
use rtosunit::Preset;
use rvsim_check::scenario::ORACLE_PRESETS;
use rvsim_check::{artifact, episode_for_seed, run_episode, run_scenario, scenario_for_seed};
use rvsim_check::{shrink_episode, shrink_scenario, travel_selfcheck, Fault};
use rvsim_cores::CoreKind;
use rvsim_isa::progen::GenConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const REPRO_DIR: &str = "results/repro";

fn usage() -> ! {
    eprintln!(
        "usage: checkfuzz fuzz [--secs N] [--start-seed S] [--blocks] [--snap]\n       \
         checkfuzz replay <path>...\n       \
         checkfuzz selftest\n       \
         checkfuzz travel [--cycles N] [--interval N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") if args.len() > 1 => cmd_replay(&args[1..]),
        Some("selftest") => cmd_selftest(),
        Some("travel") => cmd_travel(&args[1..]),
        _ => usage(),
    };
    std::process::exit(code);
}

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    let v = args.get(i + 1).unwrap_or_else(|| usage());
    Some(v.parse().unwrap_or_else(|_| usage()))
}

fn write_artifact(name: &str, doc: &Json) -> PathBuf {
    let dir = Path::new(REPRO_DIR);
    std::fs::create_dir_all(dir).expect("create results/repro");
    let path = dir.join(name);
    std::fs::write(&path, doc.render()).expect("write artifact");
    path
}

/// One fuzz iteration: even seeds run a lockstep episode (core rotating),
/// odd seeds run an oracle scenario (core x preset rotating). Returns the
/// artifact name written on failure.
fn fuzz_one(seed: u64, blocks: bool, snap: bool) -> Option<String> {
    let core = CoreKind::ALL[(seed / 2 % 3) as usize];
    if seed.is_multiple_of(2) {
        let cfg = GenConfig {
            len: 256,
            ..GenConfig::default()
        };
        let mut ep = episode_for_seed(core, seed, cfg);
        ep.blocks = blocks;
        ep.snap = snap;
        let mismatch = run_episode(&ep).err()?;
        let mode = match (blocks, snap) {
            (true, true) => " blocks+snap",
            (true, false) => " blocks",
            (false, true) => " snap",
            (false, false) => "",
        };
        eprintln!("lockstep{mode} FAIL core={core} seed={seed}: {mismatch}");
        // `EpisodeSpec::blocks`/`snap` ride along through the shrink (the
        // predicate is `run_episode`, which dispatches on them) and into
        // the artifact, so the repro replays under the same engine path.
        let small = shrink_episode(&ep);
        let m = run_episode(&small).expect_err("shrunk episode still fails");
        let name = format!(
            "lockstep{}_{core}_{seed}.json",
            mode.replace([' ', '+'], "_")
        );
        write_artifact(&name, &artifact::lockstep_to_json(&small, seed, &m));
        Some(name)
    } else {
        let preset = ORACLE_PRESETS[(seed / 6 % 6) as usize];
        let spec = scenario_for_seed(core, preset, seed);
        let violation = run_scenario(&spec).err()?;
        eprintln!("oracle FAIL {preset} core={core} seed={seed}: {violation}");
        let small = shrink_scenario(&spec);
        let v = run_scenario(&small).expect_err("shrunk scenario still fails");
        let name = format!("oracle_{}_{core}_{seed}.json", preset.tag());
        write_artifact(&name, &artifact::oracle_to_json(&small, seed, &v));
        Some(name)
    }
}

fn cmd_fuzz(args: &[String]) -> i32 {
    let secs = parse_flag(args, "--secs").unwrap_or(60);
    let start = parse_flag(args, "--start-seed").unwrap_or(0);
    let blocks = args.iter().any(|a| a == "--blocks");
    let snap = args.iter().any(|a| a == "--snap");
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut seed = start;
    let mut failures = Vec::new();
    let mut runs = 0u64;
    while Instant::now() < deadline && failures.len() < 20 {
        if let Some(name) = fuzz_one(seed, blocks, snap) {
            failures.push(name);
        }
        runs += 1;
        seed += 1;
    }
    let mut modes = String::new();
    if blocks {
        modes.push_str(" [blocks]");
    }
    if snap {
        modes.push_str(" [snap]");
    }
    println!(
        "checkfuzz: {runs} runs, seeds {start}..{seed}, {} failure(s){modes}",
        failures.len(),
    );
    for f in &failures {
        println!("  {REPRO_DIR}/{f}");
    }
    i32::from(!failures.is_empty())
}

/// Re-runs one artifact; `Ok(true)` means it reproduced (still fails).
fn replay_file(path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: bad JSON: {e:?}"))?;
    match doc.get("kind").and_then(Json::as_str) {
        Some("lockstep") => {
            let ep = artifact::lockstep_from_json(&doc)
                .ok_or_else(|| format!("{path}: malformed lockstep artifact"))?;
            match run_episode(&ep) {
                Err(m) => {
                    println!("{path}: reproduced: {m}");
                    Ok(true)
                }
                Ok(stats) => {
                    println!("{path}: clean ({} retires)", stats.retired);
                    Ok(false)
                }
            }
        }
        Some("oracle") => {
            let spec = artifact::oracle_from_json(&doc)
                .ok_or_else(|| format!("{path}: malformed oracle artifact"))?;
            match run_scenario(&spec) {
                Err(v) => {
                    println!("{path}: reproduced: {v}");
                    Ok(true)
                }
                Ok(stats) => {
                    println!("{path}: clean ({} scheds)", stats.scheds);
                    Ok(false)
                }
            }
        }
        k => Err(format!("{path}: unknown artifact kind {k:?}")),
    }
}

fn cmd_replay(paths: &[String]) -> i32 {
    let mut reproduced = false;
    for p in paths {
        match replay_file(p) {
            Ok(r) => reproduced |= r,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    i32::from(reproduced)
}

/// End-to-end harness self-check with an injected golden-model bug.
fn cmd_selftest() -> i32 {
    let cfg = GenConfig {
        len: 256,
        ..GenConfig::default()
    };
    // The flipped-sltu golden model must diverge on some early seed.
    let Some((ep, mismatch)) = (0..32).find_map(|seed| {
        let mut ep = episode_for_seed(CoreKind::Cv32e40p, seed, cfg);
        ep.fault = Some(Fault::GoldenSltuFlip);
        run_episode(&ep).err().map(|m| (ep, m))
    }) else {
        eprintln!("selftest FAIL: injected sltu flip was never caught");
        return 1;
    };
    println!("selftest: injected fault caught ({mismatch})");

    let small = shrink_episode(&ep);
    let m = match run_episode(&small) {
        Err(m) => m,
        Ok(_) => {
            eprintln!("selftest FAIL: shrunk episode no longer fails");
            return 1;
        }
    };
    println!(
        "selftest: shrunk {} -> {} ops",
        ep.spec.ops.len(),
        small.spec.ops.len()
    );

    let path = write_artifact(
        "selftest_sltu.json",
        &artifact::lockstep_to_json(&small, 0, &m),
    );
    match replay_file(&path.display().to_string()) {
        Ok(true) => {
            println!("selftest: artifact replayed from disk, PASS");
            0
        }
        Ok(false) => {
            eprintln!("selftest FAIL: replayed artifact did not reproduce");
            1
        }
        Err(e) => {
            eprintln!("selftest FAIL: {e}");
            1
        }
    }
}

/// Time-travel self-check across a small (core, preset) matrix: every
/// rewound state snapshot must render byte-identically to a cold run
/// stopped at the same cycle.
fn cmd_travel(args: &[String]) -> i32 {
    let cycles = parse_flag(args, "--cycles").unwrap_or(120_000);
    let interval = parse_flag(args, "--interval").unwrap_or(cycles / 6).max(1);
    let matrix = [
        (CoreKind::Cv32e40p, Preset::Vanilla),
        (CoreKind::Cva6, Preset::Slt),
        (CoreKind::NaxRiscv, Preset::Split),
    ];
    let mut failed = false;
    for (core, preset) in matrix {
        for seed in [1, 2] {
            match travel_selfcheck(core, preset, seed, cycles, interval) {
                Ok(r) => println!(
                    "travel OK core={core} preset={} seed={seed}: {} checkpoints, \
                     {} rewinds verified, final cycle {}",
                    preset.tag(),
                    r.checkpoints,
                    r.rewinds,
                    r.final_cycle
                ),
                Err(e) => {
                    eprintln!(
                        "travel FAIL core={core} preset={} seed={seed}: {e}",
                        preset.tag()
                    );
                    failed = true;
                }
            }
        }
    }
    i32::from(failed)
}
