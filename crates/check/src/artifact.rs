//! Self-contained replay artifacts for failing episodes.
//!
//! A failure serializes everything needed to re-run it — core kind,
//! generation config, the (shrunk) op list, the interrupt plan, budgets,
//! any injected fault, and the observed mismatch — as one JSON document
//! under `results/repro/`. The `checkfuzz` bin re-runs such files
//! byte-for-byte; nothing references generator internals except the stable
//! numeric [`GenOp`] field encoding, so artifacts survive generator
//! *distribution* changes (new probability tables) though not op-format
//! changes.

use crate::lockstep::{EpisodeSpec, Fault, IrqEvent, Mismatch};
use crate::oracle::Violation;
use crate::scenario::{Action, ScenarioSpec, TaskScript};
use rtosbench::json::Json;
use rtosunit::Preset;
use rvsim_cores::CoreKind;
use rvsim_isa::progen::{GenConfig, GenOp, ProgramSpec};
use rvsim_snapshot as snap;

/// Artifact format version (bump on incompatible `GenOp` changes).
pub const VERSION: u64 = 1;

/// Serializes a failing lockstep episode (plus the mismatch it produced
/// and the seed it came from) to JSON.
pub fn lockstep_to_json(ep: &EpisodeSpec, seed: u64, mismatch: &Mismatch) -> Json {
    let cfg = ep.spec.cfg;
    let ops = ep
        .spec
        .ops
        .iter()
        .map(|op| Json::Array(op.encode_fields().into_iter().map(Json::Int).collect()))
        .collect();
    let irqs = ep
        .irqs
        .iter()
        .map(|e| Json::Array(vec![Json::UInt(e.at_retire), Json::UInt(u64::from(e.mask))]))
        .collect();
    Json::object()
        .with("kind", Json::Str("lockstep".into()))
        .with("version", Json::UInt(VERSION))
        .with("core", Json::Str(ep.core.tag().into()))
        .with("seed", Json::UInt(seed))
        .with(
            "fault",
            match ep.fault {
                Some(f) => Json::Str(f.name().into()),
                None => Json::Null,
            },
        )
        .with("max_retires", Json::UInt(ep.max_retires))
        .with("max_cycles", Json::UInt(ep.max_cycles))
        .with("blocks", Json::Bool(ep.blocks))
        .with("snap", Json::Bool(ep.snap))
        .with(
            "gen",
            Json::object()
                .with("base", Json::UInt(u64::from(cfg.base)))
                .with("data_base", Json::UInt(u64::from(cfg.data_base)))
                .with("data_len", Json::UInt(u64::from(cfg.data_len)))
                .with("len", Json::UInt(cfg.len as u64))
                .with("custom_ops", Json::Bool(cfg.custom_ops))
                .with("misaligned", Json::Bool(cfg.misaligned))
                .with("allow_wfi", Json::Bool(cfg.allow_wfi)),
        )
        .with("ops", Json::Array(ops))
        .with("irqs", Json::Array(irqs))
        .with(
            "mismatch",
            Json::object()
                .with("field", Json::Str(mismatch.field.clone()))
                .with("engine", Json::UInt(u64::from(mismatch.engine)))
                .with("golden", Json::UInt(u64::from(mismatch.golden)))
                .with("retired", Json::UInt(mismatch.retired))
                .with("cycle", Json::UInt(mismatch.cycle)),
        )
}

fn num_i64(j: &Json) -> Option<i64> {
    match j {
        Json::Int(v) => Some(*v),
        Json::UInt(v) => i64::try_from(*v).ok(),
        _ => None,
    }
}

/// Deserializes a lockstep artifact back into a runnable episode.
/// Returns `None` for malformed or incompatible documents, including a
/// field beyond its type's range.
pub fn lockstep_from_json(j: &Json) -> Option<EpisodeSpec> {
    if j.get("kind")?.as_str()? != "lockstep" || snap::get_u64(j, "version").ok()? != VERSION {
        return None;
    }
    let core = CoreKind::from_tag(j.get("core")?.as_str()?)?;
    let fault = match j.get("fault") {
        Some(Json::Str(name)) => Some(Fault::from_name(name)?),
        _ => None,
    };
    let g = j.get("gen")?;
    let cfg = GenConfig {
        base: snap::get_u32(g, "base").ok()?,
        data_base: snap::get_u32(g, "data_base").ok()?,
        data_len: snap::get_u32(g, "data_len").ok()?,
        len: snap::get_usize(g, "len").ok()?,
        custom_ops: snap::get_bool(g, "custom_ops").ok()?,
        misaligned: snap::get_bool(g, "misaligned").ok()?,
        allow_wfi: snap::get_bool(g, "allow_wfi").ok()?,
    };
    let ops = j
        .get("ops")?
        .as_array()?
        .iter()
        .map(|rec| {
            let fields: Option<Vec<i64>> = rec.as_array()?.iter().map(num_i64).collect();
            GenOp::decode_fields(&fields?)
        })
        .collect::<Option<Vec<GenOp>>>()?;
    let irqs = j
        .get("irqs")?
        .as_array()?
        .iter()
        .map(|rec| {
            let pair = rec.as_array()?;
            match pair {
                [a, b] => Some(IrqEvent {
                    at_retire: a.as_u64()?,
                    mask: u32::try_from(b.as_u64()?).ok()?,
                }),
                _ => None,
            }
        })
        .collect::<Option<Vec<IrqEvent>>>()?;
    Some(EpisodeSpec {
        core,
        spec: ProgramSpec::from_parts(cfg, ops),
        irqs,
        max_retires: snap::get_u64(j, "max_retires").ok()?,
        max_cycles: snap::get_u64(j, "max_cycles").ok()?,
        fault,
        // Absent in artifacts written before the block-cache mode existed;
        // those replayed per-cycle and still do.
        blocks: snap::get_bool(j, "blocks").unwrap_or(false),
        // Likewise absent before snapshot stress existed.
        snap: snap::get_bool(j, "snap").unwrap_or(false),
    })
}

fn action_to_json(a: Action) -> Json {
    let fields = match a {
        Action::Busy(n) => vec![0, u64::from(n)],
        Action::Delay(n) => vec![1, u64::from(n)],
        Action::SemTake(s) => vec![2, s as u64],
        Action::SemGive(s) => vec![3, s as u64],
        Action::Yield => vec![4],
        Action::IpiGive { target, sem } => vec![5, target as u64, sem as u64],
    };
    Json::Array(fields.into_iter().map(Json::UInt).collect())
}

fn action_from_json(j: &Json) -> Option<Action> {
    let fields: Option<Vec<u64>> = j.as_array()?.iter().map(Json::as_u64).collect();
    match fields?[..] {
        [0, n] => Some(Action::Busy(u32::try_from(n).ok()?)),
        [1, n] => Some(Action::Delay(u32::try_from(n).ok()?)),
        [2, s] => Some(Action::SemTake(usize::try_from(s).ok()?)),
        [3, s] => Some(Action::SemGive(usize::try_from(s).ok()?)),
        [4] => Some(Action::Yield),
        [5, target, sem] => Some(Action::IpiGive {
            target: usize::try_from(target).ok()?,
            sem: usize::try_from(sem).ok()?,
        }),
        _ => None,
    }
}

/// Serializes a failing oracle scenario (plus the violation it produced
/// and the seed it came from) to JSON.
pub fn oracle_to_json(spec: &ScenarioSpec, seed: u64, violation: &Violation) -> Json {
    let tasks = spec
        .tasks
        .iter()
        .map(|t| {
            Json::object()
                .with("prio", Json::UInt(u64::from(t.prio)))
                .with(
                    "script",
                    Json::Array(t.script.iter().copied().map(action_to_json).collect()),
                )
        })
        .collect();
    Json::object()
        .with("kind", Json::Str("oracle".into()))
        .with("version", Json::UInt(VERSION))
        .with("core", Json::Str(spec.core.tag().into()))
        .with("preset", Json::Str(spec.preset.tag().into()))
        .with("seed", Json::UInt(seed))
        .with("tick_period", Json::UInt(u64::from(spec.tick_period)))
        .with("max_cycles", Json::UInt(spec.max_cycles))
        .with("tasks", Json::Array(tasks))
        .with(
            "sems",
            Json::Array(
                spec.sems
                    .iter()
                    .map(|&c| Json::UInt(u64::from(c)))
                    .collect(),
            ),
        )
        .with(
            "ext_sem",
            match spec.ext_sem {
                Some(s) => Json::UInt(s as u64),
                None => Json::Null,
            },
        )
        .with(
            "ext_irqs",
            Json::Array(spec.ext_irqs.iter().map(|&c| Json::UInt(c)).collect()),
        )
        .with(
            "violation",
            Json::object()
                .with("cycle", Json::UInt(violation.cycle))
                .with("message", Json::Str(violation.message.clone())),
        )
}

/// Deserializes an oracle artifact back into a runnable scenario.
/// Returns `None` for malformed or incompatible documents, including a
/// field beyond its type's range.
pub fn oracle_from_json(j: &Json) -> Option<ScenarioSpec> {
    if j.get("kind")?.as_str()? != "oracle" || snap::get_u64(j, "version").ok()? != VERSION {
        return None;
    }
    let tasks = j
        .get("tasks")?
        .as_array()?
        .iter()
        .map(|t| {
            let script = t
                .get("script")?
                .as_array()?
                .iter()
                .map(action_from_json)
                .collect::<Option<Vec<Action>>>()?;
            Some(TaskScript {
                prio: snap::get_u8(t, "prio").ok()?,
                script,
            })
        })
        .collect::<Option<Vec<TaskScript>>>()?;
    let sems = j
        .get("sems")?
        .as_array()?
        .iter()
        .map(|c| u32::try_from(c.as_u64()?).ok())
        .collect::<Option<Vec<u32>>>()?;
    let ext_irqs = j
        .get("ext_irqs")?
        .as_array()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<u64>>>()?;
    Some(ScenarioSpec {
        core: CoreKind::from_tag(j.get("core")?.as_str()?)?,
        preset: Preset::from_tag(j.get("preset")?.as_str()?)?,
        tick_period: snap::get_u32(j, "tick_period").ok()?,
        tasks,
        sems,
        ext_sem: match j.get("ext_sem") {
            Some(Json::Null) | None => None,
            Some(v) => Some(usize::try_from(v.as_u64()?).ok()?),
        },
        ext_irqs,
        max_cycles: snap::get_u64(j, "max_cycles").ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::episode_for_seed;

    #[test]
    fn lockstep_artifact_roundtrip() {
        let mut ep = episode_for_seed(
            CoreKind::Cva6,
            7,
            GenConfig {
                len: 40,
                ..GenConfig::default()
            },
        );
        ep.fault = Some(Fault::GoldenSltuFlip);
        ep.blocks = true;
        ep.snap = true;
        let mismatch = Mismatch {
            field: "x13".into(),
            engine: 1,
            golden: 0,
            retired: 99,
            cycle: 321,
        };
        let doc = lockstep_to_json(&ep, 7, &mismatch);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("rendered artifact parses");
        let back = lockstep_from_json(&parsed).expect("artifact decodes");
        assert_eq!(back, ep);
    }

    #[test]
    fn out_of_range_fields_are_rejected_not_truncated() {
        use crate::scenario::scenario_for_seed;

        // A value beyond its field's range must be refused, not
        // truncated: `gen.base` = 2^32 would replay as base 0, and
        // `tick_period` = 2^32 + 400 as 400.
        let ep = episode_for_seed(CoreKind::Cva6, 7, GenConfig::default());
        let mismatch = Mismatch {
            field: "pc".into(),
            engine: 0,
            golden: 0,
            retired: 0,
            cycle: 0,
        };
        let text = lockstep_to_json(&ep, 7, &mismatch).render();
        let base = format!("\"base\": {}", ep.spec.cfg.base);
        let wide = text.replacen(&base, "\"base\": 4294967296", 1);
        assert_ne!(wide, text, "mutation site present");
        assert!(lockstep_from_json(&Json::parse(&wide).expect("parses")).is_none());

        let spec = scenario_for_seed(CoreKind::Cv32e40p, rtosunit::Preset::Slt, 3);
        let v = Violation {
            cycle: 0,
            message: String::new(),
        };
        let text = oracle_to_json(&spec, 3, &v).render();
        let period = format!("\"tick_period\": {}", spec.tick_period);
        let wide = text.replacen(&period, "\"tick_period\": 4294967696", 1);
        assert_ne!(wide, text, "mutation site present");
        assert!(oracle_from_json(&Json::parse(&wide).expect("parses")).is_none());
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(lockstep_from_json(&Json::Null).is_none());
        let wrong_kind = Json::object().with("kind", Json::Str("oracle".into()));
        assert!(lockstep_from_json(&wrong_kind).is_none());
        assert!(oracle_from_json(&Json::Null).is_none());
        let wrong_kind = Json::object().with("kind", Json::Str("lockstep".into()));
        assert!(oracle_from_json(&wrong_kind).is_none());
    }

    #[test]
    fn oracle_artifact_roundtrip() {
        use crate::scenario::scenario_for_seed;
        use rtosunit::Preset;

        let spec = scenario_for_seed(CoreKind::NaxRiscv, Preset::Sdlot, 17);
        let v = Violation {
            cycle: 1234,
            message: "sched selected task 2, expected task 0".into(),
        };
        let doc = oracle_to_json(&spec, 17, &v);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("rendered artifact parses");
        let back = oracle_from_json(&parsed).expect("artifact decodes");
        assert_eq!(back, spec);
    }
}
