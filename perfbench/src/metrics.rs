//! The metric registry and the result line.

/// Whether a number is modelled (simulated) time or simulator (host)
/// cost, and whether a host time is scaled to the reference host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Simulated,
    Host,
    HostRef,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Simulated => "simulated",
            Kind::Host => "host",
            Kind::HostRef => "host, reference-scaled",
        }
    }
}

/// Metrics printed with tracing off, in output order.
pub const END_TO_END: [(&str, &str, Kind); 7] = [
    ("wall_s", "s", Kind::HostRef),
    ("sim_mcycles_per_s", "Mcycles/s", Kind::HostRef),
    ("setup_s", "s", Kind::HostRef),
    ("peak_rss_mb", "MB", Kind::Host),
    ("switch_mean_cycles", "cycles", Kind::Simulated),
    ("switch_p50_cycles", "cycles", Kind::Simulated),
    ("switch_p99_cycles", "cycles", Kind::Simulated),
];

/// Metrics printed by the traced run, in output order.
pub const PER_LAYER: [(&str, &str, Kind); 30] = [
    ("rvsim_cores.run_ns_per_cycle", "ns/cycle", Kind::Host),
    (
        "rvsim_cores.run_ns_per_cycle.unit_free",
        "ns/cycle",
        Kind::Host,
    ),
    (
        "rvsim_cores.run_ns_per_cycle.unit_active",
        "ns/cycle",
        Kind::Host,
    ),
    ("rvsim_cores.wfi_frac", "ratio", Kind::Simulated),
    ("rvsim_cores.stall_coproc_frac", "ratio", Kind::Simulated),
    ("rvsim_cores.block_hit_ratio", "ratio", Kind::Host),
    ("rvsim_cores.fused_ops", "count", Kind::Simulated),
    ("rvsim_isa.decode_hit_ratio", "ratio", Kind::Host),
    ("rvsim_mem.dcache_miss_ratio", "ratio", Kind::Simulated),
    ("rvsim_mem.port_busy_frac", "ratio", Kind::Simulated),
    ("rvsim_mem.bus_wait_cycles", "cycles", Kind::Simulated),
    ("rvsim_mem.bus_max_wait", "cycles", Kind::Simulated),
    ("rtosunit.unit_port_frac", "ratio", Kind::Simulated),
    ("rtosunit.unit_stall_cycles", "cycles", Kind::Simulated),
    ("rtosunit.preload_hit_ratio", "ratio", Kind::Simulated),
    ("rtosunit.ctxq_full_stalls", "count", Kind::Simulated),
    ("rtosunit.slo_misses", "count", Kind::Simulated),
    ("rtosunit.smp_ns_per_hart_cycle", "ns/cycle", Kind::Host),
    ("rtosunit.setup_us_per_cell", "us", Kind::Host),
    ("rtosunit.harvest_us_per_cell", "us", Kind::Host),
    ("freertos_lite.build_us_per_image", "us", Kind::Host),
    ("rtosbench.render_ms", "ms", Kind::Host),
    ("rtosbench.artifact_bytes", "bytes", Kind::Host),
    ("rtosbench.worker_idle_frac", "ratio", Kind::Host),
    ("rvsim_snapshot.encode_us", "us", Kind::Host),
    ("rvsim_snapshot.restore_us", "us", Kind::Host),
    ("rvsim_snapshot.bytes", "bytes", Kind::Host),
    (
        "rvsim_check.rewind_reexec_cycles",
        "cycles",
        Kind::Simulated,
    ),
    ("trace.overhead_frac", "ratio", Kind::Host),
    ("trace.coverage_frac", "ratio", Kind::Host),
];

/// Named metric values, in registry order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// The registry this set must fill exactly.
    fn registry(trace: bool) -> &'static [(&'static str, &'static str, Kind)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Each registry metric with its unit, kind and value; an error
    /// names any metric that is missing, unknown or set twice.
    pub fn resolve(
        &self,
        trace: bool,
    ) -> Result<Vec<(&'static str, &'static str, Kind, f64)>, String> {
        let registry = Values::registry(trace);
        for (name, _) in &self.0 {
            if self.0.iter().filter(|(n, _)| n == name).count() != 1
                || !registry.iter().any(|(r, _, _)| r == name)
            {
                return Err(format!("metric `{name}` is unknown or set twice"));
            }
        }
        registry
            .iter()
            .map(|&(name, unit, kind)| {
                let value = self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| format!("metric `{name}` was not measured"))?
                    .1;
                Ok((name, unit, kind, value))
            })
            .collect()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, Kind, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, _, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
