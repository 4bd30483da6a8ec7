//! Host-side scheduler model and invariant checker.
//!
//! [`check`] replays a probed event trace (see [`freertos_lite::probe`])
//! against an exact model of the kernel's scheduling state: per-task
//! ready/delayed/blocked status, semaphore counts and priority-ordered
//! waiter queues, and the tick counter. Because every probe is emitted
//! inside the kernel's IRQ-disabled critical section, the trace is a
//! faithful serialization of kernel state evolution and the model never
//! has to guess about interleavings.
//!
//! Checked invariants:
//!
//! * **Highest-ready-priority runs** — every `Sched` probe must name the
//!   unique maximum-priority ready task (scenario priorities are
//!   distinct).
//! * **No lost wakeups** — a woken or delay-expired task is ready in the
//!   model; if the kernel stops scheduling it, the next `Sched` naming a
//!   lower-priority task fails.
//! * **Semaphore accounting** — a successful take requires a positive
//!   modeled count, a blocking take a zero count; gives wake exactly the
//!   highest-priority modeled waiter.
//! * **Delay expiry** — a delayed task never runs (marks) before the tick
//!   its delay expires at, and timer ticks wake it exactly on time.
//! * **Script order** — each task's loop-top marks appear in script
//!   order, only while the model says that task is the one running, and
//!   never from inside an ISR window.
//! * **IPI delivery** (SMP scenarios, see [`crate::smp`]) — an `IpiSend`
//!   probe must match the sending task's scripted target and code; every
//!   `IpiRecv` drained inside a software-interrupt window must name a
//!   declared semaphore and be followed by exactly one deferred give on
//!   it before the window closes.
//!
//! Priority *inheritance* is not modeled: the kernel's mutexes are plain
//! binary semaphores without an inheritance protocol, so the oracle checks
//! them under base-priority semantics only (see DESIGN.md §9).

use freertos_lite::probe::{self, Probe};
use rtosunit::{EventTrace, TraceEvent};
use rvsim_isa::csr;
use std::fmt;

use crate::scenario::{Action, ScenarioSpec};

/// An invariant violation: where in the trace, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Platform cycle of the offending event.
    pub cycle: u64,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.message)
    }
}

/// Coverage counters for one checked scenario.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Scheduling decisions checked (`Sched` probes).
    pub scheds: u64,
    /// Task loop-top marks checked.
    pub task_marks: u64,
    /// Successful semaphore takes.
    pub takes_ok: u64,
    /// Blocking takes (waiter enqueued).
    pub takes_blocked: u64,
    /// Task-context gives (with or without a wakeup).
    pub gives: u64,
    /// ISR-context deferred gives.
    pub isr_gives: u64,
    /// Delay-list registrations.
    pub delays: u64,
    /// Timer ticks observed.
    pub ticks: u64,
    /// Cross-hart IPI posts (`IpiSend` probes, SMP scenarios).
    pub ipi_sends: u64,
    /// Mailbox codes drained in software ISRs (`IpiRecv` probes).
    pub ipi_recvs: u64,
}

impl OracleStats {
    /// Accumulates `other` into `self` (coverage aggregation across
    /// schedules or harts).
    pub fn merge(&mut self, other: &OracleStats) {
        self.scheds += other.scheds;
        self.task_marks += other.task_marks;
        self.takes_ok += other.takes_ok;
        self.takes_blocked += other.takes_blocked;
        self.gives += other.gives;
        self.isr_gives += other.isr_gives;
        self.delays += other.delays;
        self.ticks += other.ticks;
        self.ipi_sends += other.ipi_sends;
        self.ipi_recvs += other.ipi_recvs;
    }

    /// `(name, value)` pairs in declaration order — the stable export
    /// used by campaign telemetry sections and reports.
    pub fn named(&self) -> [(&'static str, u64); 10] {
        [
            ("scheds", self.scheds),
            ("task_marks", self.task_marks),
            ("takes_ok", self.takes_ok),
            ("takes_blocked", self.takes_blocked),
            ("gives", self.gives),
            ("isr_gives", self.isr_gives),
            ("delays", self.delays),
            ("ticks", self.ticks),
            ("ipi_sends", self.ipi_sends),
            ("ipi_recvs", self.ipi_recvs),
        ]
    }
}

struct Model<'a> {
    spec: &'a ScenarioSpec,
    /// Per-task priority, idle (id `n`) last with priority 0.
    prio: Vec<u8>,
    /// Ready-list membership (includes the running task).
    ready: Vec<bool>,
    /// Wake tick of a delayed task.
    wake: Vec<Option<u64>>,
    /// Modeled semaphore counts.
    counts: Vec<u32>,
    /// Waiter queues, highest priority first.
    waiters: Vec<Vec<usize>>,
    /// Next expected script step per user task (cyclic).
    next_step: Vec<usize>,
    /// Probe-bearing action each user task is currently performing.
    action: Vec<Option<Action>>,
    tick: u64,
    current: usize,
    in_isr: Option<u32>,
    /// Task selected by the `Sched` probe of the open ISR window.
    sched: Option<usize>,
    /// Semaphore named by an `IpiRecv` whose deferred give is still due.
    ipi_give: Option<usize>,
    stats: OracleStats,
}

impl<'a> Model<'a> {
    fn new(spec: &'a ScenarioSpec) -> Model<'a> {
        let n = spec.tasks.len();
        let mut prio: Vec<u8> = spec.tasks.iter().map(|t| t.prio).collect();
        prio.push(0); // idle
        Model {
            spec,
            prio,
            ready: vec![true; n + 1],
            wake: vec![None; n + 1],
            counts: spec.sems.clone(),
            waiters: vec![Vec::new(); spec.sems.len()],
            next_step: vec![0; n],
            action: vec![None; n],
            tick: 0,
            current: 0,
            in_isr: None,
            sched: None,
            ipi_give: None,
            stats: OracleStats::default(),
        }
    }

    fn idle(&self) -> usize {
        self.spec.tasks.len()
    }

    /// The unique highest-priority ready task (priorities are distinct,
    /// idle is always ready).
    fn expected_next(&self) -> usize {
        (0..self.ready.len())
            .filter(|&t| self.ready[t])
            .max_by_key(|&t| self.prio[t])
            .expect("idle is always ready")
    }

    fn current_give(&self, cycle: u64, what: &str) -> Result<usize, Violation> {
        match self.action.get(self.current).copied().flatten() {
            Some(Action::SemGive(s)) => Ok(s),
            other => Err(Violation {
                cycle,
                message: format!(
                    "{what} from task {} whose pending action is {other:?}",
                    self.current
                ),
            }),
        }
    }

    fn give(&mut self, cycle: u64, s: usize, woke: Option<u32>) -> Result<(), Violation> {
        self.counts[s] += 1;
        match woke {
            None => {
                if let Some(&w) = self.waiters[s].first() {
                    return Err(Violation {
                        cycle,
                        message: format!(
                            "give on sem {s} woke nobody but task {w} is modeled waiting"
                        ),
                    });
                }
            }
            Some(id) => {
                let Some(&w) = self.waiters[s].first() else {
                    return Err(Violation {
                        cycle,
                        message: format!("give on sem {s} woke task {id} but none is waiting"),
                    });
                };
                if w != id as usize {
                    return Err(Violation {
                        cycle,
                        message: format!(
                            "give on sem {s} woke task {id}, expected highest-priority \
                             waiter {w}"
                        ),
                    });
                }
                self.waiters[s].remove(0);
                self.ready[w] = true;
            }
        }
        Ok(())
    }

    fn on_probe(&mut self, cycle: u64, p: Probe) -> Result<(), Violation> {
        let fail = |message: String| Err(Violation { cycle, message });
        match p {
            Probe::TakeOk => {
                if self.in_isr.is_some() {
                    return fail("take_ok inside an ISR window".into());
                }
                let Some(Action::SemTake(s)) = self.action.get(self.current).copied().flatten()
                else {
                    return fail(format!("take_ok from task {} not taking", self.current));
                };
                if self.counts[s] == 0 {
                    return fail(format!("take_ok on sem {s} with modeled count 0"));
                }
                self.counts[s] -= 1;
                self.action[self.current] = None;
                self.stats.takes_ok += 1;
            }
            Probe::TakeBlock => {
                if self.in_isr.is_some() {
                    return fail("take_block inside an ISR window".into());
                }
                let Some(Action::SemTake(s)) = self.action.get(self.current).copied().flatten()
                else {
                    return fail(format!("take_block from task {} not taking", self.current));
                };
                if self.counts[s] != 0 {
                    return fail(format!(
                        "task {} blocked on sem {s} with modeled count {}",
                        self.current, self.counts[s]
                    ));
                }
                self.ready[self.current] = false;
                // Priority-descending insert (prios are distinct).
                let me = self.current;
                let pos = self.waiters[s]
                    .iter()
                    .position(|&w| self.prio[w] < self.prio[me])
                    .unwrap_or(self.waiters[s].len());
                self.waiters[s].insert(pos, me);
                self.stats.takes_blocked += 1;
            }
            Probe::GiveNoWake => {
                if self.in_isr.is_some() {
                    return fail("give probe inside an ISR window".into());
                }
                let s = self.current_give(cycle, "give_nowake")?;
                self.give(cycle, s, None)?;
                self.action[self.current] = None;
                self.stats.gives += 1;
            }
            Probe::GiveWoke { id } => {
                if self.in_isr.is_some() {
                    return fail("give probe inside an ISR window".into());
                }
                let s = self.current_give(cycle, "give_woke")?;
                self.give(cycle, s, Some(id))?;
                self.action[self.current] = None;
                self.stats.gives += 1;
            }
            Probe::DelayDone => {
                if self.in_isr.is_some() {
                    return fail("delay probe inside an ISR window".into());
                }
                let Some(Action::Delay(ticks)) = self.action.get(self.current).copied().flatten()
                else {
                    return fail(format!(
                        "delay probe from task {} not delaying",
                        self.current
                    ));
                };
                self.wake[self.current] = Some(self.tick + u64::from(ticks));
                self.ready[self.current] = false;
                self.action[self.current] = None;
                self.stats.delays += 1;
            }
            Probe::IsrGiveNoWake | Probe::IsrGiveWoke { .. } => {
                let s = match self.in_isr {
                    Some(csr::CAUSE_EXTERNAL) => {
                        let Some(s) = self.spec.ext_sem else {
                            return fail("ISR give probe with no bound external semaphore".into());
                        };
                        s
                    }
                    Some(csr::CAUSE_SOFTWARE) => {
                        let Some(s) = self.ipi_give.take() else {
                            return fail(
                                "ISR give in a software window without a drained IPI code".into(),
                            );
                        };
                        s
                    }
                    _ => {
                        return fail("ISR give probe outside an interrupt window".into());
                    }
                };
                let woke = match p {
                    Probe::IsrGiveWoke { id } => Some(id),
                    _ => None,
                };
                self.give(cycle, s, woke)?;
                self.stats.isr_gives += 1;
            }
            Probe::IpiSend { target, code } => {
                if self.in_isr.is_some() {
                    return fail("ipi_send inside an ISR window".into());
                }
                let Some(Action::IpiGive { target: t, sem }) =
                    self.action.get(self.current).copied().flatten()
                else {
                    return fail(format!(
                        "ipi_send from task {} not posting an IPI",
                        self.current
                    ));
                };
                if target as usize != t || code as usize != sem + 1 {
                    return fail(format!(
                        "ipi_send (target {target}, code {code}) does not match scripted \
                         IpiGive (target {t}, sem {sem})"
                    ));
                }
                self.action[self.current] = None;
                self.stats.ipi_sends += 1;
            }
            Probe::IpiRecv { code } => {
                if self.in_isr != Some(csr::CAUSE_SOFTWARE) {
                    return fail("ipi_recv outside a software-interrupt window".into());
                }
                let Some(s) = (code as usize).checked_sub(1) else {
                    return fail("ipi_recv drained the reserved code 0".into());
                };
                if s >= self.counts.len() {
                    return fail(format!("ipi_recv code {code} names no declared semaphore"));
                }
                if let Some(p) = self.ipi_give {
                    return fail(format!(
                        "ipi_recv with the give for sem {p} still outstanding"
                    ));
                }
                self.ipi_give = Some(s);
                self.stats.ipi_recvs += 1;
            }
            Probe::Sched { id } => {
                if self.in_isr.is_none() {
                    return fail("sched probe outside an ISR window".into());
                }
                if self.sched.is_some() {
                    return fail("two sched probes in one ISR window".into());
                }
                let id = id as usize;
                if id >= self.ready.len() {
                    return fail(format!("sched selected unknown task {id}"));
                }
                let expect = self.expected_next();
                if id != expect {
                    return fail(format!(
                        "sched selected task {id} (prio {}, ready={}), expected task \
                         {expect} (prio {})",
                        self.prio[id], self.ready[id], self.prio[expect]
                    ));
                }
                self.sched = Some(id);
                self.stats.scheds += 1;
            }
        }
        Ok(())
    }

    fn on_task_mark(&mut self, cycle: u64, task: u32, step: u32) -> Result<(), Violation> {
        let fail = |message: String| Err(Violation { cycle, message });
        let t = task as usize;
        if t >= self.spec.tasks.len() {
            return fail(format!("mark from unknown task {t}"));
        }
        if self.in_isr.is_some() {
            return fail(format!("task {t} marked inside an ISR window"));
        }
        if t != self.current {
            return fail(format!(
                "task {t} marked step {step} while task {} is modeled running",
                self.current
            ));
        }
        if let Some(w) = self.wake[t] {
            return fail(format!(
                "task {t} ran at tick {} but is delayed until tick {w}",
                self.tick
            ));
        }
        if let Some(a) = self.action[t] {
            return fail(format!(
                "task {t} reached step {step} with action {a:?} still pending"
            ));
        }
        if step as usize != self.next_step[t] {
            return fail(format!(
                "task {t} marked step {step}, expected step {}",
                self.next_step[t]
            ));
        }
        let script = &self.spec.tasks[t].script;
        self.action[t] = match script[step as usize] {
            a @ (Action::Delay(_)
            | Action::SemTake(_)
            | Action::SemGive(_)
            | Action::IpiGive { .. }) => Some(a),
            Action::Busy(_) | Action::Yield => None,
        };
        self.next_step[t] = (step as usize + 1) % script.len();
        self.stats.task_marks += 1;
        Ok(())
    }

    fn on_event(&mut self, cycle: u64, ev: TraceEvent) -> Result<(), Violation> {
        let fail = |message: String| Err(Violation { cycle, message });
        match ev {
            TraceEvent::IsrEntry { cause } => {
                if self.in_isr.is_some() {
                    return fail("nested ISR entry".into());
                }
                self.in_isr = Some(cause);
                if cause == csr::CAUSE_TIMER {
                    self.tick += 1;
                    self.stats.ticks += 1;
                    for t in 0..self.ready.len() {
                        if self.wake[t].is_some_and(|w| w <= self.tick) {
                            self.wake[t] = None;
                            self.ready[t] = true;
                        }
                    }
                }
            }
            TraceEvent::MretRetired => {
                if self.in_isr.is_none() {
                    return fail("mret outside an ISR window".into());
                }
                if let Some(s) = self.ipi_give {
                    return fail(format!(
                        "ISR returned with the drained IPI give for sem {s} never applied"
                    ));
                }
                let Some(id) = self.sched.take() else {
                    return fail("ISR returned without a sched probe".into());
                };
                self.current = id;
                self.in_isr = None;
            }
            TraceEvent::GuestMark { value } => {
                if let Some(p) = Probe::decode(value) {
                    self.on_probe(cycle, p)?;
                } else if let Some((task, step)) = probe::decode_task_mark(value) {
                    self.on_task_mark(cycle, task, step)?;
                } else {
                    return fail(format!("unexpected guest mark {value:#010x}"));
                }
            }
            // Edge timestamps, cache/unit activity and phase marks carry
            // no scheduling state.
            _ => {}
        }
        Ok(())
    }
}

/// Replays `trace` against the model of `spec`. Returns coverage counters
/// on success, the first invariant violation otherwise.
pub fn check(spec: &ScenarioSpec, trace: &EventTrace) -> Result<OracleStats, Violation> {
    let mut m = Model::new(spec);
    debug_assert!(m.idle() == spec.tasks.len());
    for (cycle, ev) in trace.iter() {
        m.on_event(cycle, ev)?;
    }
    Ok(m.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TaskScript;
    use rtosunit::Preset;
    use rvsim_cores::CoreKind;

    fn two_task_spec() -> ScenarioSpec {
        ScenarioSpec {
            core: CoreKind::Cv32e40p,
            preset: Preset::Vanilla,
            tick_period: 400,
            tasks: vec![
                TaskScript {
                    prio: 5,
                    script: vec![Action::Busy(10), Action::Delay(1)],
                },
                TaskScript {
                    prio: 3,
                    script: vec![Action::Busy(10)],
                },
            ],
            sems: vec![0],
            ext_sem: None,
            ext_irqs: Vec::new(),
            max_cycles: 6_000,
        }
    }

    fn trace_of(events: &[(u64, TraceEvent)]) -> EventTrace {
        let mut t = EventTrace::new(64);
        for &(c, e) in events {
            t.record(c, e);
        }
        t
    }

    fn mark(task: u32, step: u32) -> TraceEvent {
        TraceEvent::GuestMark {
            value: probe::task_mark(task, step),
        }
    }

    fn sched(id: u32) -> TraceEvent {
        TraceEvent::GuestMark {
            value: Probe::Sched { id }.encode(),
        }
    }

    #[test]
    fn a_consistent_trace_passes() {
        // t0 (prio 5) runs, delays one tick; t1 (prio 3) runs; the timer
        // wakes t0 which preempts back.
        let spec = two_task_spec();
        let events = [
            (10, mark(0, 0)),
            (20, mark(0, 1)),
            (
                25,
                TraceEvent::GuestMark {
                    value: Probe::DelayDone.encode(),
                },
            ),
            (
                30,
                TraceEvent::IsrEntry {
                    cause: csr::CAUSE_SOFTWARE,
                },
            ),
            (40, sched(1)),
            (50, TraceEvent::MretRetired),
            (60, mark(1, 0)),
            (
                400,
                TraceEvent::IsrEntry {
                    cause: csr::CAUSE_TIMER,
                },
            ),
            (410, sched(0)),
            (420, TraceEvent::MretRetired),
            (430, mark(0, 0)),
        ];
        let stats = check(&spec, &trace_of(&events)).expect("trace is consistent");
        assert_eq!(stats.scheds, 2);
        assert_eq!(stats.task_marks, 4);
        assert_eq!(stats.delays, 1);
        assert_eq!(stats.ticks, 1);
    }

    #[test]
    fn wrong_sched_choice_is_flagged() {
        // Both tasks ready, but the scheduler picks the lower-priority one.
        let spec = two_task_spec();
        let events = [
            (
                10,
                TraceEvent::IsrEntry {
                    cause: csr::CAUSE_TIMER,
                },
            ),
            (20, sched(1)),
        ];
        let v = check(&spec, &trace_of(&events)).expect_err("prio inversion");
        assert!(v.message.contains("expected task 0"), "{v}");
    }

    #[test]
    fn early_delay_wakeup_is_flagged() {
        // t0 delays one tick but marks again without any timer tick.
        let spec = two_task_spec();
        let events = [
            (10, mark(0, 0)),
            (20, mark(0, 1)),
            (
                25,
                TraceEvent::GuestMark {
                    value: Probe::DelayDone.encode(),
                },
            ),
            (
                30,
                TraceEvent::IsrEntry {
                    cause: csr::CAUSE_SOFTWARE,
                },
            ),
            (40, sched(0)), // lost the delay: t0 still scheduled
        ];
        let v = check(&spec, &trace_of(&events)).expect_err("delayed task ran");
        assert!(v.message.contains("expected task 1"), "{v}");
    }

    #[test]
    fn take_without_tokens_is_flagged() {
        let mut spec = two_task_spec();
        spec.tasks[0].script = vec![Action::SemTake(0)];
        let events = [
            (10, mark(0, 0)),
            (
                20,
                TraceEvent::GuestMark {
                    value: Probe::TakeOk.encode(),
                },
            ),
        ];
        let v = check(&spec, &trace_of(&events)).expect_err("count was zero");
        assert!(v.message.contains("count 0"), "{v}");
    }

    #[test]
    fn out_of_order_marks_are_flagged() {
        let spec = two_task_spec();
        let events = [(10, mark(0, 1))];
        let v = check(&spec, &trace_of(&events)).expect_err("skipped step 0");
        assert!(v.message.contains("expected step 0"), "{v}");
    }

    #[test]
    fn mret_without_sched_probe_is_flagged() {
        let spec = two_task_spec();
        let events = [
            (
                10,
                TraceEvent::IsrEntry {
                    cause: csr::CAUSE_TIMER,
                },
            ),
            (20, TraceEvent::MretRetired),
        ];
        let v = check(&spec, &trace_of(&events)).expect_err("no sched probe");
        assert!(v.message.contains("without a sched probe"), "{v}");
    }
}
