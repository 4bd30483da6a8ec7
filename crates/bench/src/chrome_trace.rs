//! Chrome trace-event JSON export — load the output in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` to see switch
//! episodes, ISR phases and microarchitectural events on one timeline.
//!
//! The converter maps one simulated cycle to one microsecond of trace
//! time (Perfetto has no "cycles" unit; the scale is irrelevant for
//! inspection). Three tracks are emitted:
//!
//! * `episodes` — one complete (`"X"`) slice per switch episode,
//!   trigger→`mret`, named by interrupt cause,
//! * `phases` — nested slices for the non-empty waterfall phases
//!   (entry/save/sched/restore),
//! * `events` — instant (`"i"`) markers for the typed [`TraceEvent`]s,
//!   plus counter (`"C"`) series for cache hit/miss and unit traffic.
//!
//! [`chrome_trace_smp`] emits the same three tracks **per hart** of an
//! SMP run (`hart0 episodes`, `hart0 phases`, … with disjoint thread
//! ids and per-hart counter names), so cross-core cause/effect — an IPI
//! sent on one hart waking a task on another — reads off one timeline.

use rtosbench::json::Json;
use rtosunit::waterfall::{EpisodeWaterfall, PHASE_NAMES};
use rtosunit::{EventTrace, TraceEvent};
use rvsim_isa::csr;

/// Process id used for every emitted event (one simulated system).
const PID: u64 = 1;
/// Track of whole switch episodes.
const TID_EPISODES: u64 = 1;
/// Track of waterfall phases.
const TID_PHASES: u64 = 2;
/// Track of instant events.
const TID_EVENTS: u64 = 3;

fn base(name: &str, ph: &str, tid: u64, ts: u64) -> Json {
    Json::object()
        .with("name", name)
        .with("ph", ph)
        .with("pid", PID)
        .with("tid", tid)
        .with("ts", ts)
}

fn complete(name: &str, tid: u64, ts: u64, dur: u64) -> Json {
    base(name, "X", tid, ts).with("dur", dur)
}

fn instant(name: &str, tid: u64, ts: u64) -> Json {
    base(name, "i", tid, ts).with("s", "t")
}

fn thread_name(tid: u64, name: &str) -> Json {
    Json::object()
        .with("name", "thread_name")
        .with("ph", "M")
        .with("pid", PID)
        .with("tid", tid)
        .with("args", Json::object().with("name", name))
}

fn cause_name(cause: u32) -> &'static str {
    match cause {
        csr::CAUSE_SOFTWARE => "switch (software)",
        csr::CAUSE_TIMER => "switch (timer)",
        csr::CAUSE_EXTERNAL => "switch (external)",
        _ => "switch (other)",
    }
}

/// Converts one traced run into a Chrome trace-event document.
///
/// `label` names the process in the viewer (e.g. `cva6/SLT/workload`).
/// Ring-buffer truncation is surfaced as `otherData.dropped_events`.
pub fn chrome_trace(label: &str, trace: &EventTrace, episodes: &[EpisodeWaterfall]) -> Json {
    let mut events = vec![Json::object()
        .with("name", "process_name")
        .with("ph", "M")
        .with("pid", PID)
        .with("args", Json::object().with("name", label))];
    emit_hart(&mut events, "", 0, trace, episodes);
    let dropped = trace.dropped();
    document(label, events, dropped, None)
}

/// Converts one traced SMP run — one `(trace, episodes)` pair per hart —
/// into a single Chrome trace-event document with per-hart thread
/// tracks (`hartN episodes` / `hartN phases` / `hartN events`), so all
/// harts line up on one Perfetto timeline.
pub fn chrome_trace_smp(label: &str, harts: &[(EventTrace, Vec<EpisodeWaterfall>)]) -> Json {
    let mut events = vec![Json::object()
        .with("name", "process_name")
        .with("ph", "M")
        .with("pid", PID)
        .with("args", Json::object().with("name", label))];
    let mut dropped = 0;
    for (h, (trace, episodes)) in harts.iter().enumerate() {
        emit_hart(
            &mut events,
            &format!("hart{h} "),
            (h as u64) * 3,
            trace,
            episodes,
        );
        dropped += trace.dropped();
    }
    document(label, events, dropped, Some(harts.len()))
}

fn document(label: &str, events: Vec<Json>, dropped: u64, harts: Option<usize>) -> Json {
    let mut other = Json::object()
        .with("schema", "rtosunit-chrome-trace-v1")
        .with("label", label)
        .with("cycles_per_us", 1u64)
        .with("dropped_events", dropped);
    if let Some(n) = harts {
        other.push("harts", n);
    }
    Json::object()
        .with("traceEvents", Json::Array(events))
        .with("displayTimeUnit", "ns")
        .with("otherData", other)
}

/// Emits one hart's three tracks. `prefix` is empty for the single-core
/// export (keeping its historical track and counter names) and
/// `"hartN "` for SMP exports; `tid_base` keeps per-hart thread ids
/// disjoint.
fn emit_hart(
    events: &mut Vec<Json>,
    prefix: &str,
    tid_base: u64,
    trace: &EventTrace,
    episodes: &[EpisodeWaterfall],
) {
    events.push(thread_name(
        tid_base + TID_EPISODES,
        &format!("{prefix}episodes"),
    ));
    events.push(thread_name(
        tid_base + TID_PHASES,
        &format!("{prefix}phases"),
    ));
    events.push(thread_name(
        tid_base + TID_EVENTS,
        &format!("{prefix}events"),
    ));

    for e in episodes {
        let b = e.boundaries();
        events.push(
            complete(
                cause_name(e.record.cause),
                tid_base + TID_EPISODES,
                b[0],
                e.record.latency(),
            )
            .with(
                "args",
                Json::object()
                    .with("cause", e.record.cause)
                    .with("latency", e.record.latency()),
            ),
        );
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            if e.phases[i] > 0 {
                events.push(complete(name, tid_base + TID_PHASES, b[i], e.phases[i]));
            }
        }
    }

    let tid = tid_base + TID_EVENTS;
    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut stores, mut loads) = (0u64, 0u64);
    for (cycle, ev) in trace.iter() {
        match ev {
            TraceEvent::IrqRaised { cause } => events.push(
                instant("irq_raised", tid, cycle).with("args", Json::object().with("cause", cause)),
            ),
            TraceEvent::IsrEntry { cause } => events.push(
                instant("isr_entry", tid, cycle).with("args", Json::object().with("cause", cause)),
            ),
            TraceEvent::Phase(code) => events.push(instant(code.name(), tid, cycle)),
            TraceEvent::MretRetired => events.push(instant("mret", tid, cycle)),
            TraceEvent::GuestMark { value } => events.push(
                instant("guest_mark", tid, cycle).with("args", Json::object().with("value", value)),
            ),
            TraceEvent::Halted => events.push(instant("halted", tid, cycle)),
            TraceEvent::CacheAccess { hit, .. } => {
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                events.push(base(&format!("{prefix}cache"), "C", 0, cycle).with(
                    "args",
                    Json::object().with("hits", hits).with("misses", misses),
                ));
            }
            TraceEvent::UnitOp { write } => {
                if write {
                    stores += 1;
                } else {
                    loads += 1;
                }
                events.push(base(&format!("{prefix}unit_words"), "C", 0, cycle).with(
                    "args",
                    Json::object().with("stores", stores).with("loads", loads),
                ));
            }
            TraceEvent::FaultInjected { code } => events.push(
                instant("fault_injected", tid, cycle).with(
                    "args",
                    Json::object()
                        .with("code", code)
                        .with("kind", rvsim_cores::fault_code_name(code)),
                ),
            ),
            TraceEvent::FaultDetected { detector } => events.push(
                instant("fault_detected", tid, cycle).with(
                    "args",
                    Json::object()
                        .with("detector", detector)
                        .with("name", rtosunit::events::detector_name(detector)),
                ),
            ),
        }
    }
}

/// Structural self-validation of an emitted trace document, run by the
/// `trace_dump` smoke test on its own output:
///
/// 1. **Timestamps are monotone per track** — within each `(pid, tid)`
///    track (and each named counter series, which share tid 0 across
///    harts), `ts` never goes backwards in emission order, so Perfetto's
///    slice nesting is well-defined.
/// 2. **Phase widths tile every episode** — for each episode slice, the
///    phase slices on its companion `phases` track that start inside it
///    sum exactly to the episode's duration: the emitted JSON itself
///    upholds the waterfall invariant, not just the in-memory episodes
///    it was rendered from.
///
/// # Errors
///
/// Returns a description of the first violated invariant (event index,
/// track and values) — the callers `assert!` on it.
pub fn validate(doc: &Json) -> Result<(), String> {
    use std::collections::HashMap;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| "document has no traceEvents array".to_string())?;
    let mut last_ts: HashMap<(u64, u64, String), u64> = HashMap::new();
    let mut episodes: Vec<(u64, u64, u64)> = Vec::new();
    let mut phases: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let pid = e.get("pid").and_then(Json::as_u64).unwrap_or(0);
        let tid = e.get("tid").and_then(Json::as_u64).unwrap_or(0);
        let ts = e
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} (ph `{ph}`) has no integer ts"))?;
        // Counter series share tid 0 across harts; their name is the track.
        let series = if ph == "C" {
            e.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        } else {
            String::new()
        };
        let key = (pid, tid, series);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts {ts} goes backwards on track pid {pid} tid {tid} (previous {prev})"
                ));
            }
        }
        last_ts.insert(key, ts);
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("event {i}: complete slice without dur"))?;
            // Track layout: tid_base = 3·hart, episodes = base+1, phases
            // = base+2 — so the residue mod 3 identifies the track kind.
            if tid % 3 == TID_EPISODES {
                episodes.push((tid, ts, dur));
            } else if tid % 3 == TID_PHASES {
                phases.entry(tid).or_default().push((ts, dur));
            }
        }
    }
    if episodes.is_empty() {
        return Err("trace contains no switch-episode slices".to_string());
    }
    for (tid, ts, latency) in episodes {
        let sum: u64 = phases
            .get(&(tid + 1))
            .map(|v| {
                v.iter()
                    .filter(|(pts, _)| *pts >= ts && *pts < ts + latency.max(1))
                    .map(|(_, dur)| dur)
                    .sum()
            })
            .unwrap_or(0);
        if sum != latency {
            return Err(format!(
                "episode at ts {ts} (tid {tid}): phase widths sum to {sum}, episode latency is {latency}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtosunit::waterfall::decompose;
    use rtosunit::{PhaseCode, SwitchRecord, TraceMark};

    fn sample() -> (EventTrace, Vec<EpisodeWaterfall>) {
        let mut t = EventTrace::new(64);
        t.record(
            100,
            TraceEvent::IrqRaised {
                cause: csr::CAUSE_TIMER,
            },
        );
        t.record(
            110,
            TraceEvent::IsrEntry {
                cause: csr::CAUSE_TIMER,
            },
        );
        t.record(
            115,
            TraceEvent::CacheAccess {
                hit: false,
                write: false,
            },
        );
        t.record(140, TraceEvent::Phase(PhaseCode::SaveDone));
        t.record(170, TraceEvent::Phase(PhaseCode::SchedDone));
        t.record(200, TraceEvent::MretRetired);
        t.record(210, TraceEvent::UnitOp { write: true });
        let records = [SwitchRecord {
            trigger_cycle: 100,
            entry_cycle: 110,
            mret_cycle: 200,
            cause: csr::CAUSE_TIMER,
        }];
        let marks = [
            TraceMark {
                cycle: 140,
                code: PhaseCode::SaveDone.encode(),
            },
            TraceMark {
                cycle: 170,
                code: PhaseCode::SchedDone.encode(),
            },
        ];
        (t, decompose(&records, &marks))
    }

    #[test]
    fn document_is_valid_json_with_all_tracks() {
        let (trace, episodes) = sample();
        let doc = chrome_trace("test", &trace, &episodes);
        let parsed = Json::parse(&doc.render()).expect("emitted JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
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
            "unit_words",
            "switch (timer)",
            "entry",
            "save",
            "sched",
            "restore",
        ] {
            assert!(names.contains(&required), "missing `{required}`: {names:?}");
        }
        // Every phase slice must carry a duration and land inside the
        // episode span.
        for e in events {
            if e.get("ph").and_then(Json::as_str) == Some("X") {
                assert!(e.get("dur").and_then(Json::as_u64).is_some());
            }
        }
    }

    #[test]
    fn smp_document_has_per_hart_tracks() {
        let (t0, e0) = sample();
        let (t1, e1) = sample();
        let doc = chrome_trace_smp("smp-test", &[(t0, e0), (t1, e1)]);
        let parsed = Json::parse(&doc.render()).expect("emitted JSON parses");
        assert_eq!(
            parsed
                .get("otherData")
                .and_then(|o| o.get("harts"))
                .and_then(Json::as_u64),
            Some(2)
        );
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let track_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
            })
            .collect();
        for required in [
            "hart0 episodes",
            "hart0 phases",
            "hart0 events",
            "hart1 episodes",
            "hart1 phases",
            "hart1 events",
        ] {
            assert!(
                track_names.contains(&required),
                "missing track `{required}`: {track_names:?}"
            );
        }
        // Hart 1's slices land on its own thread ids, and its counters
        // carry a hart-qualified name so Perfetto keeps the series apart.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"hart0 cache"), "{names:?}");
        assert!(names.contains(&"hart1 unit_words"), "{names:?}");
        assert!(events.iter().any(|e| {
            e.get("tid").and_then(Json::as_u64) == Some(3 + TID_EPISODES)
                && e.get("ph").and_then(Json::as_str) == Some("X")
        }));
    }

    #[test]
    fn validate_accepts_emitted_documents_and_rejects_tampering() {
        let (trace, episodes) = sample();
        let doc = chrome_trace("test", &trace, &episodes);
        validate(&doc).expect("single-core document validates");
        let (t0, e0) = sample();
        let (t1, e1) = sample();
        let smp = chrome_trace_smp("smp-test", &[(t0, e0), (t1, e1)]);
        validate(&smp).expect("SMP document validates");

        // Shrink one phase slice: the tiling invariant must trip.
        let mut broken = doc.clone();
        if let Some(Json::Array(events)) = broken_events(&mut broken) {
            let phase = events
                .iter_mut()
                .find(|e| {
                    e.get("tid").and_then(Json::as_u64) == Some(TID_PHASES)
                        && e.get("ph").and_then(Json::as_str) == Some("X")
                })
                .expect("a phase slice exists");
            set_key(phase, "dur", Json::UInt(1));
        }
        let err = validate(&broken).expect_err("tampered dur must fail");
        assert!(err.contains("phase widths sum"), "{err}");

        // Rewind one event's timestamp: monotonicity must trip.
        let mut rewound = chrome_trace("test", &sample().0, &sample().1);
        if let Some(Json::Array(events)) = broken_events(&mut rewound) {
            let last_instant = events
                .iter_mut()
                .rev()
                .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
                .expect("an instant event exists");
            set_key(last_instant, "ts", Json::UInt(0));
        }
        let err = validate(&rewound).expect_err("rewound ts must fail");
        assert!(err.contains("goes backwards"), "{err}");
    }

    /// Mutable access to a document's `traceEvents` array.
    fn broken_events(doc: &mut Json) -> Option<&mut Json> {
        match doc {
            Json::Object(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// Overwrites `key` in an event object.
    fn set_key(event: &mut Json, key: &str, value: Json) {
        if let Json::Object(pairs) = event {
            for (k, v) in pairs.iter_mut() {
                if k == key {
                    *v = value;
                    return;
                }
            }
        }
        panic!("event has no `{key}` field");
    }

    #[test]
    fn phase_slices_tile_the_episode() {
        let (trace, episodes) = sample();
        let doc = chrome_trace("test", &trace, &episodes);
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("parses");
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        let phase_dur: u64 = events
            .iter()
            .filter(|e| {
                e.get("tid").and_then(Json::as_u64) == Some(TID_PHASES)
                    && e.get("ph").and_then(Json::as_str) == Some("X")
            })
            .filter_map(|e| e.get("dur").and_then(Json::as_u64))
            .sum();
        assert_eq!(phase_dur, episodes[0].record.latency());
    }
}
