//! Rendering a campaign artifact allocates about as much as its text.
//!
//! A counting global allocator sees every thread of this test binary, so
//! the file holds one test only. It renders a synthetic campaign of 64
//! runs × 2,000 latencies as v1 and as v3 and bounds the live heap bytes
//! during each render, above where the render started, by three times
//! the rendered length. Building a value tree of the artifact first costs
//! about eight times its text (one 32-byte value per latency alone is
//! six times a latency's ~5 bytes of text).

use rtosbench::{Campaign, RunOutcome, SimOutcome};
use rtosunit::{Preset, SwitchMetrics};
use rvsim_cores::{CoreCounters, CoreKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// only and no pointer depends on them.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves,
        // which is the most a moving realloc holds at once.
        grew(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const RUNS: usize = 64;
const LATENCIES: usize = 2_000;

/// A campaign of [`RUNS`] simulated outcomes with [`LATENCIES`] latencies
/// each, between 60 and 2,059 cycles, recorded into their histograms and
/// a 400-cycle SLO as a harvest would.
fn synthetic_campaign() -> Campaign {
    let outcomes = (0..RUNS)
        .map(|index| {
            let latencies: Vec<u64> = (0..LATENCIES)
                .map(|i| 60 + ((i * 7_919 + index * 104_729) % 2_000) as u64)
                .collect();
            let mut metrics = SwitchMetrics::new(Some(400));
            for &l in &latencies {
                metrics.latency.record(l);
                metrics.slo.as_mut().expect("budget set").record(l);
            }
            RunOutcome {
                index,
                label: format!("synthetic/{index}"),
                core: CoreKind::Cv32e40p,
                preset: Preset::Slt,
                workload: "synthetic",
                param: index as u32,
                harts: 1,
                sim: Some(SimOutcome {
                    raw_switches: LATENCIES + 12,
                    causes: vec![7; LATENCIES],
                    latencies,
                    cycles: 4_000_000,
                    retired: 3_000_000,
                    unit: None,
                    cv32rt: None,
                    port: (1_000, 800, 200),
                    trace_marks: 0,
                    ctx_queue: None,
                    counters: CoreCounters::default(),
                    metrics,
                    bus: None,
                }),
                analytic: None,
                host_nanos: 1_000_000,
            }
        })
        .collect();
    Campaign {
        name: "synthetic",
        workers: 1,
        telemetry: false,
        outcomes,
        failures: Vec::new(),
        host_nanos: 64_000_000,
        sections: Vec::new(),
    }
}

/// Renders `campaign` and returns its text with the most live heap bytes
/// the render held above where it started.
fn render_measured(campaign: &Campaign) -> (String, usize) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let text = campaign.to_json().render();
    (text, PEAK.load(Ordering::Relaxed) - start)
}

#[test]
fn rendering_allocates_about_as_much_as_its_text() {
    let mut campaign = synthetic_campaign();
    for telemetry in [false, true] {
        campaign.telemetry = telemetry;
        let (text, peak) = render_measured(&campaign);
        assert!(
            text.len() > RUNS * LATENCIES * 4,
            "{} bytes do not hold every latency",
            text.len()
        );
        assert!(
            peak < 3 * text.len(),
            "rendering {} bytes held {peak} live heap bytes ({:.1}x the text; telemetry {telemetry})",
            text.len(),
            peak as f64 / text.len() as f64
        );
    }
}
