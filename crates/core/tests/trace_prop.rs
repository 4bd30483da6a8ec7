//! Property tests for the switch-episode analyses: per-cause statistics,
//! ISR overhead, timeline rendering and waterfall reconstruction must
//! tolerate overlapping, out-of-order and past-horizon records without
//! panicking or losing cycles. Each property runs over fixed `Rng64`
//! seeds; a failure names the seed that reproduces it.

use rtosunit::waterfall;
use rtosunit::{trace, PhaseCode, SwitchRecord, TraceMark};
use rvsim_isa::{csr, Rng64};

const CASES: u64 = 2048;

/// Between 0 and 49 well-formed episodes (`trigger <= entry <= mret`, as
/// the simulator guarantees) at arbitrary positions — including far past
/// any analysis horizon — so consecutive records may overlap arbitrarily.
fn random_records(rng: &mut Rng64) -> Vec<SwitchRecord> {
    (0..rng.below(50))
        .map(|_| {
            let trigger = rng.below(2_000_000);
            let entry = trigger + rng.below(500);
            SwitchRecord {
                trigger_cycle: trigger,
                entry_cycle: entry,
                mret_cycle: entry + 1 + rng.below(4_999),
                cause: *rng.pick(&[
                    csr::CAUSE_TIMER,
                    csr::CAUSE_SOFTWARE,
                    csr::CAUSE_EXTERNAL,
                    0xdead,
                ]),
            }
        })
        .collect()
}

/// Between 0 and 39 trace marks anywhere on the timeline: kernel phase
/// codes mixed with plain benchmark marks, unsorted and with duplicates.
fn random_marks(rng: &mut Rng64) -> Vec<TraceMark> {
    (0..rng.below(40))
        .map(|_| TraceMark {
            cycle: rng.below(2_200_000),
            code: match rng.below(3) {
                0 => PhaseCode::SaveDone.encode(),
                1 => PhaseCode::SchedDone.encode(),
                _ => rng.below(100) as u32,
            },
        })
        .collect()
}

#[test]
fn per_cause_stats_are_internally_consistent() {
    for seed in 0..CASES {
        let records = random_records(&mut Rng64::new(seed));
        let stats = trace::per_cause_stats(records.iter().map(|r| (r.cause, r.latency())));
        let known = records
            .iter()
            .filter(|r| trace::cause_name(r.cause) != "unknown")
            .count();
        let counted: usize = stats.iter().map(|(_, s)| s.count).sum();
        assert_eq!(counted, known, "seed {seed}: episodes lost or invented");
        for (name, s) in stats {
            assert!(s.count > 0, "seed {seed}: {name} listed with no episodes");
            assert!(s.min <= s.max, "seed {seed}: {name}: {s:?}");
            assert!(
                s.mean >= s.min as f64 && s.mean <= s.max as f64,
                "seed {seed}: {name}: {s:?}"
            );
            assert_eq!(s.jitter(), s.max - s.min, "seed {seed}: {name}");
        }
    }
}

#[test]
fn isr_overhead_is_finite_and_non_negative() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let records = random_records(&mut rng);
        let total = 1 + rng.below(2_999_999);
        let ov = trace::isr_overhead(&records, total);
        assert!(ov.is_finite() && ov >= 0.0, "seed {seed}: overhead {ov}");
        assert_eq!(trace::isr_overhead(&records, 0), 0.0, "seed {seed}");
    }
}

#[test]
fn timeline_never_panics_and_keeps_its_width() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let records = random_records(&mut rng);
        // Records can lie entirely past `total` — the regression case.
        let total = 1 + rng.below(999_999);
        let width = 1 + rng.index(199);
        let t = trace::render_timeline(&records, total, width);
        assert_eq!(t.chars().count(), width, "seed {seed}: {t:?}");
        assert!(
            t.chars().all(|c| matches!(c, '.' | '#' | '^')),
            "seed {seed}: {t:?}"
        );
    }
}

#[test]
fn waterfall_partitions_every_episode() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let records = random_records(&mut rng);
        let marks = random_marks(&mut rng);
        let episodes = waterfall::decompose(&records, &marks);
        assert_eq!(episodes.len(), records.len(), "seed {seed}");
        for e in &episodes {
            assert_eq!(
                e.phases.iter().sum::<u64>(),
                e.record.latency(),
                "seed {seed}: phases must sum to the latency: {e:?}"
            );
            let b = e.boundaries();
            assert!(
                b.windows(2).all(|p| p[0] <= p[1]),
                "seed {seed}: boundaries {b:?}"
            );
            assert_eq!(b[0], e.record.trigger_cycle, "seed {seed}: {e:?}");
            assert_eq!(b[4], e.record.mret_cycle, "seed {seed}: {e:?}");
        }
        // Aggregation must cover all phases present.
        if !episodes.is_empty() {
            let stats = waterfall::phase_stats(&episodes);
            assert_eq!(stats.len(), waterfall::PHASE_COUNT, "seed {seed}");
        }
    }
}
