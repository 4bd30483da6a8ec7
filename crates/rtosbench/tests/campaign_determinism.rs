//! Regression test for the campaign determinism guarantee: the same
//! `CampaignSpec` executed with 1 worker and with N workers must produce
//! byte-identical aggregated JSON, regardless of completion order.

use freertos_lite::{GuestImage, KernelBuilder, KernelError};
use rtosbench::{
    workloads, CampaignSpec, ConfigOverride, FilterPolicy, Json, RunSpec, WorkloadSpec,
};
use rtosunit::Preset;
use rvsim_cores::CoreKind;

fn pingpong_kernel(_param: u32, preset: Preset) -> Result<GuestImage, KernelError> {
    let mut k = KernelBuilder::new(preset);
    k.semaphore("ping", 0);
    k.semaphore("pong", 0);
    k.task("producer", 5, |t| {
        t.compute(5);
        t.sem_give("ping");
        t.sem_take("pong");
    });
    k.task("consumer", 5, |t| {
        t.sem_take("ping");
        t.sem_give("pong");
    });
    k.build()
}

/// A mixed-shape campaign: suite runs, a custom kernel with an override,
/// and an analytic row — everything the figure binaries use.
fn mixed_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::matrix(
        "determinism_mixed",
        &[CoreKind::Cv32e40p, CoreKind::NaxRiscv],
        &[Preset::Vanilla, Preset::Slt],
        &[
            workloads::by_name("pingpong_semaphore").expect("exists"),
            workloads::by_name("interrupt_latency").expect("exists"),
        ],
    );
    let mut custom = RunSpec::new(
        CoreKind::NaxRiscv,
        Preset::Slt,
        WorkloadSpec::Custom {
            name: "pingpong_custom",
            param: 0,
            build: pingpong_kernel,
            run_cycles: 200_000,
        },
    );
    custom.overrides.push(ConfigOverride::CtxQueueDepth(4));
    custom.filter = FilterPolicy::WarmupOnly;
    spec.runs.push(custom);
    spec.runs.push(RunSpec::new(
        CoreKind::Cv32e40p,
        Preset::T,
        WorkloadSpec::Analytic {
            name: "toy_model",
            param: 16,
            eval: |p, _, _| Json::object().with("doubled", u64::from(p) * 2),
        },
    ));
    spec
}

#[test]
fn one_worker_and_many_workers_render_identical_json() {
    let spec = mixed_spec();
    let one = spec.run(1).to_json().render();
    let many = spec.run(8).to_json().render();
    assert_eq!(one, many, "campaign JSON must not depend on worker count");
    // And re-running with the same spec is fully reproducible.
    let again = spec.run(8).to_json().render();
    assert_eq!(many, again);
}

#[test]
fn artifact_excludes_host_dependent_fields() {
    let spec = mixed_spec();
    let campaign = spec.run(4);
    assert!(campaign.host_nanos > 0, "wall clock is tracked on the side");
    let rendered = campaign.to_json().render();
    assert!(
        !rendered.contains("nanos"),
        "host time must stay out of the artifact"
    );
    assert!(
        !rendered.contains("worker"),
        "worker count must stay out of the artifact"
    );
    assert!(rendered.starts_with('{') && rendered.ends_with("}\n"));
}
