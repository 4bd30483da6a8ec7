//! Dumps one fully-instrumented run as Chrome trace-event JSON.
//!
//! The run uses a phase-instrumented kernel (`build_traced`) on a cached
//! core with event tracing enabled, so the trace carries the complete
//! observability vocabulary: interrupt edges, ISR entries, kernel phase
//! marks, `mret`s and cache activity. The artifact lands in
//! `results/trace_dump.json`; open it at <https://ui.perfetto.dev> (or
//! `chrome://tracing`) — see the Perfetto recipe in `EXPERIMENTS.md`.
//!
//! A second pass traces a two-hart SMP run (a receiver blocking on a
//! semaphore that a sender on the other hart posts via IPI) and writes
//! the per-hart-track export to `results/trace_dump_smp.json`.
//!
//! The binary re-parses its own output and asserts the required event
//! kinds are present, so CI can use it as a smoke test.
//!
//! Usage: `trace_dump [workload]` (default: `delay_periodic`, a
//! timer-driven workload).

use freertos_lite::SmpKernelBuilder;
use rtosbench::json::Json;
use rtosbench::workloads;
use rtosunit::waterfall;
use rtosunit::{Preset, SmpSystem, System};
use rtosunit_bench::chrome_trace::{chrome_trace, chrome_trace_smp, validate};
use rvsim_cores::CoreKind;

/// Cycle budget: enough for dozens of timer-driven episodes while the
/// artifact stays a few hundred kilobytes.
const RUN_CYCLES: u64 = 60_000;

/// Event-ring capacity: comfortably above the event rate of the run so
/// nothing is dropped.
const TRACE_CAPACITY: usize = 1_000_000;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "delay_periodic".to_string());
    let workload = workloads::by_name(&name)
        .unwrap_or_else(|| panic!("unknown workload `{name}` (see workloads::ALL)"));
    // A cached core so the trace shows cache hit/miss events; (SLT) so
    // unit traffic shows up too.
    let core = CoreKind::Cva6;
    let preset = Preset::Slt;

    let image = workloads::build_traced(&workload, preset).expect("workload builds");
    let mut sys = System::new(core, preset);
    image.install(&mut sys);
    sys.enable_tracing(TRACE_CAPACITY);
    for at in workload.ext_irq_arrivals(RUN_CYCLES) {
        sys.schedule_external_irq(at);
    }
    sys.run(RUN_CYCLES);

    let trace = sys.platform.take_trace().expect("tracing was enabled");
    let episodes = waterfall::decompose(sys.records(), &sys.platform.mmio.trace_marks);
    let label = format!("{}/{}/{}", core.name(), preset.label(), workload.name);
    let doc = chrome_trace(&label, &trace, &episodes);
    let rendered = doc.render();

    // Self-validation: the artifact must be well-formed JSON and carry
    // the full event vocabulary (CI smoke-tests exactly this).
    let parsed = Json::parse(&rendered).expect("emitted trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array present");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for required in [
        "irq_raised",
        "isr_entry",
        "save_done",
        "sched_done",
        "mret",
        "cache",
    ] {
        assert!(
            names.contains(&required),
            "trace is missing `{required}` events"
        );
    }
    // Structural invariants of the emitted JSON: timestamps monotone per
    // track, phase widths tiling every episode slice exactly.
    if let Err(e) = validate(&parsed) {
        panic!("trace self-validation failed: {e}");
    }

    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("results dir");
    let path = dir.join("trace_dump.json");
    std::fs::write(&path, &rendered).expect("write artifact");

    println!("# trace: {label}, {} cycles", RUN_CYCLES);
    println!(
        "# {} events ({} dropped), {} episodes, {} bytes -> {}",
        events.len(),
        trace.dropped(),
        episodes.len(),
        rendered.len(),
        path.display()
    );
    println!("# open in https://ui.perfetto.dev (or chrome://tracing)");
    print!("{}", waterfall::render(&episodes));

    dump_smp(core, preset, dir);
}

/// Traces a two-hart IPI ping — `rx` blocks on `inbox` on hart 0 while
/// `tx` on hart 1 posts it over the mailbox — and writes the per-hart
/// Perfetto export, re-parsing it to assert both harts' tracks carry
/// the cross-core vocabulary.
fn dump_smp(core: CoreKind, preset: Preset, dir: &std::path::Path) {
    const HARTS: usize = 2;
    let mut b = SmpKernelBuilder::new(preset, HARTS);
    b.tick_period(2_000);
    b.semaphore("inbox", 0);
    b.task_on("rx", 4, 0b01, |t| {
        for _ in 0..8 {
            t.sem_take("inbox");
            t.busy_work(20);
        }
        t.halt();
    });
    // The body loops forever (bodies auto-wrap in an endless loop).
    b.task_on("tx", 3, 0b10, |t| {
        t.busy_work(30);
        t.ipi_give(0, "inbox");
        t.delay(1); // throttle: an unthrottled IPI flood can livelock the peer
    });
    let image = b.build().expect("SMP workload builds");

    let mut smp = SmpSystem::new(core, preset, HARTS);
    image.install(&mut smp);
    for h in 0..HARTS {
        smp.hart_mut(h).enable_tracing(TRACE_CAPACITY);
    }
    smp.run(RUN_CYCLES);

    let per_hart: Vec<_> = (0..HARTS)
        .map(|h| {
            let sys = smp.hart_mut(h);
            let trace = sys.platform.take_trace().expect("tracing was enabled");
            let episodes = waterfall::decompose(sys.records(), &sys.platform.mmio.trace_marks);
            (trace, episodes)
        })
        .collect();
    let label = format!(
        "{}/{}/ipi_pingpong/{}harts",
        core.name(),
        preset.label(),
        HARTS
    );
    let rendered = chrome_trace_smp(&label, &per_hart).render();

    let parsed = Json::parse(&rendered).expect("emitted SMP trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array present");
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
        })
        .collect();
    for h in 0..HARTS {
        for track in ["episodes", "phases", "events"] {
            let want = format!("hart{h} {track}");
            assert!(
                track_names.contains(&want.as_str()),
                "SMP trace is missing the `{want}` track"
            );
        }
    }
    if let Err(e) = validate(&parsed) {
        panic!("SMP trace self-validation failed: {e}");
    }
    // Both harts must have taken interrupts (hart 0: the IPI wakeups,
    // hart 1: at least the timer ticks driving `delay`).
    for (h, (trace, episodes)) in per_hart.iter().enumerate() {
        assert!(trace.iter().count() > 0, "hart {h} recorded no events");
        assert!(!episodes.is_empty(), "hart {h} recorded no switch episodes");
    }

    let path = dir.join("trace_dump_smp.json");
    std::fs::write(&path, &rendered).expect("write SMP artifact");
    println!(
        "# smp trace: {label}, {} events, {} + {} episodes, {} bytes -> {}",
        events.len(),
        per_hart[0].1.len(),
        per_hart[1].1.len(),
        rendered.len(),
        path.display()
    );
}
