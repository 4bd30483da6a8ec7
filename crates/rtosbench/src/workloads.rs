//! The seven RTOSBench-style workloads.

use freertos_lite::{GuestImage, KernelBuilder, KernelError};
use rtosunit::Preset;

/// Number of measurement iterations (the paper runs 20).
pub const ITERATIONS: usize = 20;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Workload name (RTOSBench-style).
    pub name: &'static str,
    /// Timer-tick period in cycles.
    pub tick_period: u32,
    /// Cycle budget for one run.
    pub run_cycles: u64,
    /// Interval of injected external interrupts (0 = none). Deliberately
    /// co-prime with the tick period so triggers drift across tick phases.
    pub ext_irq_interval: u64,
}

impl Workload {
    /// The cycles at which this workload's external interrupts arrive
    /// within a `run_cycles` budget: every `ext_irq_interval` cycles,
    /// starting at one interval; none when the interval is 0.
    pub fn ext_irq_arrivals(&self, run_cycles: u64) -> Vec<u64> {
        if self.ext_irq_interval == 0 {
            return Vec::new();
        }
        (1..)
            .map(|k| k * self.ext_irq_interval)
            .take_while(|&at| at < run_cycles)
            .collect()
    }
}

/// All workloads in suite order.
pub const ALL: [Workload; 7] = [
    Workload {
        name: "pingpong_semaphore",
        tick_period: 5000,
        run_cycles: 400_000,
        ext_irq_interval: 0,
    },
    Workload {
        name: "roundrobin_yield",
        tick_period: 4000,
        run_cycles: 400_000,
        ext_irq_interval: 0,
    },
    Workload {
        name: "mutex_workload",
        tick_period: 5000,
        run_cycles: 400_000,
        ext_irq_interval: 0,
    },
    Workload {
        name: "delay_periodic",
        tick_period: 1500,
        run_cycles: 400_000,
        ext_irq_interval: 0,
    },
    Workload {
        name: "interrupt_latency",
        tick_period: 6000,
        run_cycles: 400_000,
        ext_irq_interval: 9973,
    },
    Workload {
        name: "queue_burst",
        tick_period: 5000,
        run_cycles: 400_000,
        ext_irq_interval: 0,
    },
    Workload {
        name: "priority_chain",
        tick_period: 7000,
        run_cycles: 400_000,
        ext_irq_interval: 0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

/// Builds the guest image of `workload` for `preset`.
///
/// # Errors
///
/// Propagates kernel-construction errors (none occur for the shipped
/// workloads; the error path exists for custom experimentation).
pub fn build(workload: &Workload, preset: Preset) -> Result<GuestImage, KernelError> {
    build_with(workload, preset, false)
}

/// Like [`build`] but with kernel phase-mark instrumentation enabled:
/// the ISR emits [`rtosunit::PhaseCode`] TRACE writes at its save and
/// scheduling boundaries, feeding the latency waterfall. The extra store
/// instructions lengthen the measured switch path, so traced images are
/// for observability runs, never for the headline latency figures.
///
/// # Errors
///
/// Propagates kernel-construction errors, like [`build`].
pub fn build_traced(workload: &Workload, preset: Preset) -> Result<GuestImage, KernelError> {
    build_with(workload, preset, true)
}

fn build_with(
    workload: &Workload,
    preset: Preset,
    trace_phases: bool,
) -> Result<GuestImage, KernelError> {
    let mut k = KernelBuilder::new(preset);
    k.tick_period(workload.tick_period);
    k.trace_phases(trace_phases);
    match workload.name {
        "pingpong_semaphore" => {
            // Two tasks handing a token back and forth through two
            // semaphores, with a little computation in between.
            k.semaphore("ping", 0);
            k.semaphore("pong", 0);
            k.task("producer", 5, |t| {
                t.compute(8);
                t.sem_give("ping");
                t.sem_take("pong");
            });
            k.task("consumer", 5, |t| {
                t.sem_take("ping");
                t.compute(6);
                t.sem_give("pong");
            });
        }
        "roundrobin_yield" => {
            // Four equal-priority tasks: compute then yield voluntarily;
            // the timer also slices them.
            for (name, work) in [("rr0", 80u32), ("rr1", 120), ("rr2", 60), ("rr3", 100)] {
                k.task(name, 4, move |t| {
                    t.compute(work / 8);
                    t.yield_now();
                });
            }
        }
        "mutex_workload" => {
            // Three tasks contending on one mutex (the paper's power-
            // analysis workload, §6.3).
            k.mutex("m");
            for (name, inner, outer) in [("mx0", 150u32, 50u32), ("mx1", 90, 80), ("mx2", 120, 30)]
            {
                k.task(name, 4, move |t| {
                    t.mutex_lock("m");
                    t.compute(inner / 8);
                    t.mutex_unlock("m");
                    t.compute(outer / 8);
                    t.yield_now();
                });
            }
        }
        "delay_periodic" => {
            // Staggered periodic tasks: every tick moves tasks between the
            // delay and ready lists — the vanilla jitter source (§6.1).
            for (name, prio, period, work) in [
                ("p1", 6u8, 1u32, 40u32),
                ("p2", 5, 2, 60),
                ("p3", 4, 3, 80),
                ("p5", 3, 5, 100),
            ] {
                k.task(name, prio, move |t| {
                    t.compute(work / 8);
                    t.delay(period);
                });
            }
        }
        "interrupt_latency" => {
            // Deferred interrupt handling (§1): an external interrupt
            // wakes a high-priority handler task through a semaphore.
            k.semaphore("event", 0);
            k.ext_irq_gives("event");
            k.task("handler", 7, |t| {
                t.sem_take("event");
                t.compute(5);
            });
            k.task("background", 2, |t| {
                t.compute(25);
                t.yield_now();
            });
        }
        "queue_burst" => {
            // A producer releases items in bursts through a counting
            // semaphore; a same-priority consumer drains them. Exercises
            // counting semantics and repeated give-without-switch.
            k.semaphore("items", 0);
            k.semaphore("space", 4);
            k.task("burst_producer", 5, |t| {
                for _ in 0..3 {
                    t.sem_take("space");
                    t.compute(4);
                    t.sem_give("items");
                }
                t.delay(1);
            });
            k.task("burst_consumer", 5, |t| {
                t.sem_take("items");
                t.compute(6);
                t.sem_give("space");
            });
        }
        "priority_chain" => {
            // A cascade: the low task wakes mid, which preempts and wakes
            // high, which preempts again — back-to-back voluntary
            // switches through three priority levels (Fig. 2 (d)/(e)).
            k.semaphore("to_mid", 0);
            k.semaphore("to_high", 0);
            k.task("chain_low", 2, |t| {
                t.compute(20);
                t.sem_give("to_mid");
            });
            k.task("chain_mid", 4, |t| {
                t.sem_take("to_mid");
                t.compute(8);
                t.sem_give("to_high");
            });
            k.task("chain_high", 6, |t| {
                t.sem_take("to_high");
                t.compute(4);
            });
        }
        other => panic!("unknown workload `{other}`"),
    }
    k.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_for_all_presets() {
        for w in ALL {
            for p in Preset::LATENCY_SET {
                let img = build(&w, p).unwrap_or_else(|e| panic!("{}/{p}: {e}", w.name));
                assert!(
                    img.text_words() > 50,
                    "{}: suspiciously small image",
                    w.name
                );
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("mutex_workload").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn ext_irq_only_for_interrupt_latency() {
        for w in ALL {
            assert_eq!(w.ext_irq_interval > 0, w.name == "interrupt_latency");
        }
    }

    #[test]
    fn ext_irq_arrivals_are_periodic_within_the_budget() {
        let w = by_name("interrupt_latency").expect("exists");
        let arrivals = w.ext_irq_arrivals(w.run_cycles);
        assert_eq!(
            arrivals.len() as u64,
            (w.run_cycles - 1) / w.ext_irq_interval
        );
        assert_eq!(arrivals[0], w.ext_irq_interval);
        assert!(arrivals
            .windows(2)
            .all(|p| p[1] - p[0] == w.ext_irq_interval));
        assert!(*arrivals.last().expect("non-empty") < w.run_cycles);
        assert!(by_name("delay_periodic")
            .expect("exists")
            .ext_irq_arrivals(400_000)
            .is_empty());
    }
}
