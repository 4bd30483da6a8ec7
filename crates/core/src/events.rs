//! Typed, cycle-stamped event tracing — the observability backbone.
//!
//! The paper's headline claim is *where cycles go* during a context
//! switch, so the reproduction needs more than three timestamps per
//! episode. This module provides:
//!
//! * [`TraceEvent`] — the typed event vocabulary (interrupt edges, ISR
//!   entry, guest phase marks, `mret`, cache and unit activity),
//! * [`EventTrace`] — the bounded ring buffer the platform and system
//!   record into (oldest events are dropped first, with a drop counter so
//!   truncation is never silent),
//! * [`TraceMark`] / [`PhaseCode`] — the typed guest→host instrumentation
//!   channel: the kernel writes encoded phase codes to the TRACE MMIO
//!   register at ISR phase boundaries and the host decodes them back.
//!
//! Tracing is **off by default and zero-cost when off**: the platform
//! holds an `Option<EventTrace>` and every record site is gated on one
//! `is_some` check; the batched execution fast path is untouched.

use rvsim_snapshot::{self as snap, Json, SnapError};
use std::collections::VecDeque;

/// High half-word tagging a TRACE write as a kernel phase mark (`"PH"` in
/// ASCII). Guest benchmark marks use small values, so the ranges cannot
/// collide.
pub const PHASE_MARK_BASE: u32 = 0x5048_0000;

/// Mask selecting the phase-mark tag bits of a TRACE value.
pub const PHASE_MARK_MASK: u32 = 0xffff_0000;

/// High half-word tagging a TRACE write as a kernel *fault detection*
/// mark (`"FD"` in ASCII): the self-protecting kernel announces canary,
/// watchdog and checksum hits through this namespace. Disjoint from the
/// phase (`"PH"`), probe (`'k'`) and task-mark namespaces.
pub const FAULT_MARK_BASE: u32 = 0x4644_0000;

/// Detector code: a per-task stack canary was clobbered.
pub const DETECT_CANARY: u32 = 1;
/// Detector code: the guest watchdog expired (idle never petted it).
pub const DETECT_WATCHDOG: u32 = 2;
/// Detector code: the TCB checksum self-check failed.
pub const DETECT_CHECKSUM: u32 = 3;
/// Detector code: the degradation path killed the corrupted task and
/// rescheduled (emitted after the triggering detection mark).
pub const DETECT_TASK_KILLED: u32 = 4;

/// Encodes a detector code as a TRACE-register fault-detection mark.
pub fn fault_mark(detector: u32) -> u32 {
    FAULT_MARK_BASE | (detector & !PHASE_MARK_MASK)
}

/// Decodes a TRACE value as a fault-detection mark, if it is one.
pub fn decode_fault_mark(value: u32) -> Option<u32> {
    (value & PHASE_MARK_MASK == FAULT_MARK_BASE).then_some(value & !PHASE_MARK_MASK)
}

/// Stable short name of a detector code (artifact/trace naming).
pub fn detector_name(detector: u32) -> &'static str {
    match detector {
        DETECT_CANARY => "canary",
        DETECT_WATCHDOG => "watchdog",
        DETECT_CHECKSUM => "checksum",
        DETECT_TASK_KILLED => "task_killed",
        _ => "unknown",
    }
}

/// ISR phase boundaries the instrumented kernel announces (paper Fig. 4:
/// the save, schedule and restore sections of the ISR). Together with the
/// hardware-visible trigger/entry/`mret` timestamps these decompose one
/// [`SwitchRecord`](crate::SwitchRecord) into a latency waterfall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum PhaseCode {
    /// The software context save finished (emitted immediately on entry by
    /// banked configurations, whose save happens in hardware).
    SaveDone = 1,
    /// The next task has been selected and `currentTCB` updated; the
    /// restore path starts after this mark.
    SchedDone = 2,
}

impl PhaseCode {
    /// All phase codes, in ISR order.
    pub const ALL: [PhaseCode; 2] = [PhaseCode::SaveDone, PhaseCode::SchedDone];

    /// The TRACE-register encoding of this code.
    pub fn encode(self) -> u32 {
        PHASE_MARK_BASE | self as u32
    }

    /// Decodes a TRACE value back into a phase code; `None` for ordinary
    /// benchmark marks or unknown phase numbers.
    pub fn decode(value: u32) -> Option<PhaseCode> {
        if value & PHASE_MARK_MASK != PHASE_MARK_BASE {
            return None;
        }
        match value & !PHASE_MARK_MASK {
            1 => Some(PhaseCode::SaveDone),
            2 => Some(PhaseCode::SchedDone),
            _ => None,
        }
    }

    /// Short lower-case name (stable; used in artifacts).
    pub fn name(self) -> &'static str {
        match self {
            PhaseCode::SaveDone => "save_done",
            PhaseCode::SchedDone => "sched_done",
        }
    }
}

/// One guest TRACE-register write, typed: the cycle it landed and the raw
/// value written. Replaces the old untyped `(u64, u32)` tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMark {
    /// Platform cycle of the write.
    pub cycle: u64,
    /// The value written (possibly a [`PhaseCode`] encoding).
    pub code: u32,
}

impl TraceMark {
    /// The phase code, if this mark is a kernel phase boundary.
    pub fn phase(&self) -> Option<PhaseCode> {
        PhaseCode::decode(self.code)
    }
}

/// A typed simulation event, stamped with its cycle when recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An interrupt line rose (`mip` rising edge).
    IrqRaised {
        /// The `mcause` value of the line.
        cause: u32,
    },
    /// The core entered the ISR.
    IsrEntry {
        /// The `mcause` value taken.
        cause: u32,
    },
    /// The kernel announced an ISR phase boundary.
    Phase(PhaseCode),
    /// `mret` retired (the paper's latency end-point).
    MretRetired,
    /// The guest wrote an ordinary (non-phase) trace mark.
    GuestMark {
        /// The value written.
        value: u32,
    },
    /// A core data access went through the cache.
    CacheAccess {
        /// Whether it hit.
        hit: bool,
        /// Whether it was a store.
        write: bool,
    },
    /// The RTOSUnit used an idle port cycle for a context word.
    UnitOp {
        /// Whether it was a store.
        write: bool,
    },
    /// The guest halted the simulation.
    Halted,
    /// A planned fault was injected this cycle (see
    /// [`rvsim_cores::FaultKind::code`]).
    FaultInjected {
        /// The fault-kind code (`1..=9`).
        code: u32,
    },
    /// The self-protecting kernel detected a fault (canary / watchdog /
    /// checksum; see [`detector_name`]).
    FaultDetected {
        /// The detector code.
        detector: u32,
    },
}

impl TraceEvent {
    /// Stable short label of the event kind (artifact/trace naming).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::IrqRaised { .. } => "irq_raised",
            TraceEvent::IsrEntry { .. } => "isr_entry",
            TraceEvent::Phase(_) => "phase",
            TraceEvent::MretRetired => "mret",
            TraceEvent::GuestMark { .. } => "guest_mark",
            TraceEvent::CacheAccess { .. } => "cache",
            TraceEvent::UnitOp { .. } => "unit_op",
            TraceEvent::Halted => "halted",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::FaultDetected { .. } => "fault_detected",
        }
    }
}

/// A bounded ring-buffered event trace: the most recent `capacity` events
/// are retained; older ones are dropped (counted, never silently).
#[derive(Debug, Clone)]
pub struct EventTrace {
    events: VecDeque<(u64, TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl EventTrace {
    /// Creates an empty trace retaining at most `capacity` events.
    pub fn new(capacity: usize) -> EventTrace {
        EventTrace {
            events: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained `(cycle, event)` pairs, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TraceEvent)> + '_ {
        self.events.iter().copied()
    }

    /// Retained events of one kind (see [`TraceEvent::kind`]).
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = (u64, TraceEvent)> + 'a {
        self.iter().filter(move |(_, e)| e.kind() == kind)
    }

    /// Drops all retained events and resets the drop counter.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Serializes the ring (every retained event, typed) for a
    /// machine-state snapshot.
    pub fn to_snap(&self) -> Json {
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|&(cycle, ev)| trace_event_to_snap(cycle, ev))
            .collect();
        Json::object()
            .with("capacity", self.capacity)
            .with("dropped", self.dropped)
            .with("events", events)
    }

    /// Rebuilds the trace from [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields, an unknown event kind, or more
    /// retained events than the capacity allows.
    pub fn from_snap(value: &Json) -> Result<EventTrace, SnapError> {
        let capacity = snap::get_usize(value, "capacity")?;
        let entries = snap::get_array(value, "events")?;
        if entries.len() > capacity {
            return Err(SnapError::new(format!(
                "trace: {} events exceed capacity {capacity}",
                entries.len()
            )));
        }
        let mut events = VecDeque::with_capacity(capacity.min(1 << 16));
        for e in entries {
            events.push_back(trace_event_from_snap(e)?);
        }
        Ok(EventTrace {
            events,
            capacity,
            dropped: snap::get_u64(value, "dropped")?,
        })
    }
}

/// Serializes one cycle-stamped [`TraceEvent`] as a tagged object.
fn trace_event_to_snap(cycle: u64, event: TraceEvent) -> Json {
    let obj = Json::object()
        .with("cycle", cycle)
        .with("kind", event.kind());
    match event {
        TraceEvent::IrqRaised { cause } | TraceEvent::IsrEntry { cause } => {
            obj.with("cause", cause)
        }
        TraceEvent::Phase(code) => obj.with("code", code as u32),
        TraceEvent::GuestMark { value } => obj.with("value", value),
        TraceEvent::CacheAccess { hit, write } => obj.with("hit", hit).with("write", write),
        TraceEvent::UnitOp { write } => obj.with("write", write),
        TraceEvent::FaultInjected { code } => obj.with("code", code),
        TraceEvent::FaultDetected { detector } => obj.with("detector", detector),
        TraceEvent::MretRetired | TraceEvent::Halted => obj,
    }
}

/// Parses one cycle-stamped [`TraceEvent`] back from its tagged object.
fn trace_event_from_snap(value: &Json) -> Result<(u64, TraceEvent), SnapError> {
    let cycle = snap::get_u64(value, "cycle")?;
    let event = match snap::get_str(value, "kind")? {
        "irq_raised" => TraceEvent::IrqRaised {
            cause: snap::get_u32(value, "cause")?,
        },
        "isr_entry" => TraceEvent::IsrEntry {
            cause: snap::get_u32(value, "cause")?,
        },
        "phase" => match snap::get_u32(value, "code")? {
            1 => TraceEvent::Phase(PhaseCode::SaveDone),
            2 => TraceEvent::Phase(PhaseCode::SchedDone),
            other => {
                return Err(SnapError::new(format!("trace: unknown phase code {other}")));
            }
        },
        "mret" => TraceEvent::MretRetired,
        "guest_mark" => TraceEvent::GuestMark {
            value: snap::get_u32(value, "value")?,
        },
        "cache" => TraceEvent::CacheAccess {
            hit: snap::get_bool(value, "hit")?,
            write: snap::get_bool(value, "write")?,
        },
        "unit_op" => TraceEvent::UnitOp {
            write: snap::get_bool(value, "write")?,
        },
        "halted" => TraceEvent::Halted,
        "fault_injected" => TraceEvent::FaultInjected {
            code: snap::get_u32(value, "code")?,
        },
        "fault_detected" => TraceEvent::FaultDetected {
            detector: snap::get_u32(value, "detector")?,
        },
        other => {
            return Err(SnapError::new(format!(
                "trace: unknown event kind `{other}`"
            )));
        }
    };
    Ok((cycle, event))
}

impl EventTrace {
    /// Records one event at `cycle`, dropping the oldest retained event
    /// when the ring is full.
    pub fn record(&mut self, cycle: u64, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((cycle, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_roundtrip_and_reject_plain_marks() {
        for code in PhaseCode::ALL {
            assert_eq!(PhaseCode::decode(code.encode()), Some(code));
        }
        assert_eq!(PhaseCode::decode(7), None);
        assert_eq!(PhaseCode::decode(0xE1), None);
        assert_eq!(PhaseCode::decode(PHASE_MARK_BASE | 0xff), None);
    }

    #[test]
    fn trace_mark_exposes_its_phase() {
        let phase = TraceMark {
            cycle: 10,
            code: PhaseCode::SchedDone.encode(),
        };
        assert_eq!(phase.phase(), Some(PhaseCode::SchedDone));
        let plain = TraceMark { cycle: 11, code: 3 };
        assert_eq!(plain.phase(), None);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let mut t = EventTrace::new(3);
        for i in 0..5u64 {
            t.record(i, TraceEvent::MretRetired);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<u64> = t.iter().map(|(c, _)| c).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut t = EventTrace::new(0);
        t.record(1, TraceEvent::Halted);
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn of_kind_filters() {
        let mut t = EventTrace::new(8);
        t.record(1, TraceEvent::IrqRaised { cause: 7 });
        t.record(2, TraceEvent::IsrEntry { cause: 7 });
        t.record(
            3,
            TraceEvent::CacheAccess {
                hit: true,
                write: false,
            },
        );
        assert_eq!(t.of_kind("irq_raised").count(), 1);
        assert_eq!(t.of_kind("cache").count(), 1);
        assert_eq!(t.of_kind("mret").count(), 0);
    }
}
