//! **RTOSUnit** — a configurable hardware acceleration unit for RTOS
//! scheduling and context switching, reproduced from:
//!
//! > Scheck, Mürmann, Koch. *Co-Exploration of RISC-V Processor
//! > Microarchitectures and FreeRTOS Extensions for Lower Context-Switch
//! > Latency.* ASPLOS '26.
//!
//! The unit integrates with the cycle-stepped cores of `rvsim-cores`
//! through the [`Coprocessor`](rvsim_cores::Coprocessor) trait and
//! accelerates, depending on its [`RtosUnitConfig`]:
//!
//! * **(S)** context **S**toring — an alternate register bank is switched
//!   in on interrupt entry while a store FSM drains the old bank to a
//!   fixed context region in memory using idle data-port cycles (§4.2),
//! * **(L)** context **L**oading — a restore FSM loads the next task's
//!   context in the background and `mret` stalls until it completes (§4.3),
//! * **(T)** **T**ask scheduling — the FreeRTOS ready and delay lists move
//!   into hardware with iterative sorting (§4.4),
//! * **(D)** dirty bits, **(O)** load omission, **(P)** preloading —
//!   optional mean-latency optimisations (§4.5–§4.7).
//!
//! The crate also provides the re-implemented comparison design
//! [`Cv32rtUnit`] (Balas et al., CV32RT), the [`Platform`] (memory, MMIO,
//! timer, shared-port arbitration) and the [`System`] composition that the
//! benchmarks drive.
//!
//! # Example
//!
//! ```
//! use rtosunit::{Preset, RtosUnitConfig};
//!
//! let cfg = RtosUnitConfig::from_preset(Preset::Slt).expect("SLT has a unit config");
//! assert!(cfg.store && cfg.load && cfg.sched);
//! assert!(cfg.validate().is_ok());
//! ```

pub mod config;
pub mod ctxqueue;
pub mod cv32rt;
pub mod events;
pub mod hist;
pub mod layout;
pub mod platform;
pub mod scheduler;
pub mod smp;
pub mod stats;
pub mod system;
pub mod trace;
pub mod unit;
pub mod waterfall;

pub use config::{ConfigError, Preset, RtosUnitConfig};
pub use cv32rt::Cv32rtUnit;
pub use events::{EventTrace, PhaseCode, TraceEvent, TraceMark};
pub use hist::{LatencyHistogram, SloCounter, SwitchMetrics, REPORTED_PERCENTILES};
pub use platform::{Mmio, Platform};
pub use rvsim_mem::BusMasterStats;
pub use rvsim_snapshot as snap;
pub use scheduler::{HwScheduler, SchedEntry};
pub use smp::{SmpShared, SmpSystem};
pub use stats::{LatencyStats, SwitchRecord};
pub use system::System;
pub use unit::{RtosUnit, UnitStats};
pub use waterfall::EpisodeWaterfall;
