//! RTOSUnit configuration and the paper's named presets.

use std::fmt;

/// Fine-grained feature selection for the RTOSUnit (paper §4).
///
/// The letter scheme matches the paper: **S**tore, **L**oad, **T**ask
/// scheduling, **D**irty bits, load **O**mission, **P**reloading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RtosUnitConfig {
    /// (S) hardware context storing with register-bank switching.
    pub store: bool,
    /// (L) hardware context loading; requires `store`.
    pub load: bool,
    /// (T) hardware ready/delay lists and `GET_HW_SCHED`.
    pub sched: bool,
    /// (D) dirty bits: store only modified registers.
    pub dirty_bits: bool,
    /// (O) load omission: skip loading when the next task is the previous
    /// one; requires `load`.
    pub load_omission: bool,
    /// (P) speculative context preloading; requires S, L and T and is
    /// incompatible with dirty bits (§4.7).
    pub preload: bool,
    /// Hardware semaphores (`SEM_TAKE`/`SEM_GIVE`) — this reproduction's
    /// implementation of the synchronisation-primitive acceleration the
    /// paper lists as future work (§7). Requires `sched`.
    pub hw_sync: bool,
    /// Capacity of the hardware ready and delay lists (paper default: 8).
    pub list_len: usize,
}

impl Default for RtosUnitConfig {
    fn default() -> Self {
        RtosUnitConfig {
            store: false,
            load: false,
            sched: false,
            dirty_bits: false,
            load_omission: false,
            preload: false,
            hw_sync: false,
            list_len: 8,
        }
    }
}

/// Configuration-validation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// (L) only works in conjunction with (S) (paper §4.3).
    LoadRequiresStore,
    /// (O) is an optimisation of hardware loading.
    OmissionRequiresLoad,
    /// (P) requires full (SLT) acceleration (paper §4.7).
    PreloadRequiresSlt,
    /// Preloading operates in lockstep with full-context storing and is
    /// incompatible with dirty bits (paper §4.7).
    PreloadConflictsDirty,
    /// The hardware lists need at least one slot.
    EmptyLists,
    /// The context region bounds the number of task ids.
    ListTooLong,
    /// Hardware semaphores build on the hardware scheduler's lists.
    HwSyncRequiresSched,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            ConfigError::LoadRequiresStore => "context loading (L) requires context storing (S)",
            ConfigError::OmissionRequiresLoad => "load omission (O) requires context loading (L)",
            ConfigError::PreloadRequiresSlt => "preloading (P) requires store, load and scheduling",
            ConfigError::PreloadConflictsDirty => {
                "preloading (P) is incompatible with dirty bits (D)"
            }
            ConfigError::EmptyLists => "hardware list length must be at least 1",
            ConfigError::ListTooLong => "hardware list length exceeds the context region capacity",
            ConfigError::HwSyncRequiresSched => {
                "hardware semaphores (extension) require hardware scheduling (T)"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

impl RtosUnitConfig {
    /// Checks the feature-dependency rules of §4.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.load && !self.store {
            return Err(ConfigError::LoadRequiresStore);
        }
        if self.load_omission && !self.load {
            return Err(ConfigError::OmissionRequiresLoad);
        }
        if self.preload {
            if !(self.store && self.load && self.sched) {
                return Err(ConfigError::PreloadRequiresSlt);
            }
            if self.dirty_bits {
                return Err(ConfigError::PreloadConflictsDirty);
            }
        }
        if self.hw_sync && !self.sched {
            return Err(ConfigError::HwSyncRequiresSched);
        }
        if self.list_len == 0 {
            return Err(ConfigError::EmptyLists);
        }
        if self.list_len > crate::layout::CTX_MAX_TASKS as usize {
            return Err(ConfigError::ListTooLong);
        }
        Ok(())
    }

    /// This configuration with hardware lists of `list_len` slots — the
    /// one check the kernel builder, [`System::set_unit_list_len`] and
    /// snapshot restore go through.
    ///
    /// [`System::set_unit_list_len`]: crate::System::set_unit_list_len
    ///
    /// # Errors
    ///
    /// Fails when the length is zero or exceeds the context region.
    pub fn with_list_len(self, list_len: usize) -> Result<RtosUnitConfig, ConfigError> {
        let cfg = RtosUnitConfig { list_len, ..self };
        cfg.validate().map(|()| cfg)
    }

    /// The unit configuration of a named preset; `None` for presets
    /// without an RTOSUnit ([`Preset::Vanilla`] and [`Preset::Cv32rt`]).
    pub fn from_preset(p: Preset) -> Option<RtosUnitConfig> {
        let mut c = RtosUnitConfig::default();
        match p {
            Preset::Vanilla | Preset::Cv32rt => return None,
            Preset::S => c.store = true,
            Preset::Sl => {
                c.store = true;
                c.load = true;
            }
            Preset::T => c.sched = true,
            Preset::St => {
                c.store = true;
                c.sched = true;
            }
            Preset::Slt => {
                c.store = true;
                c.load = true;
                c.sched = true;
            }
            Preset::Sd => {
                c.store = true;
                c.dirty_bits = true;
            }
            Preset::Sdt => {
                c.store = true;
                c.dirty_bits = true;
                c.sched = true;
            }
            Preset::Sdlo => {
                c.store = true;
                c.dirty_bits = true;
                c.load = true;
                c.load_omission = true;
            }
            Preset::Sdlot => {
                c.store = true;
                c.dirty_bits = true;
                c.load = true;
                c.load_omission = true;
                c.sched = true;
            }
            Preset::Split => {
                c.store = true;
                c.load = true;
                c.sched = true;
                c.preload = true;
                c.load_omission = true;
            }
            Preset::SltHs => {
                c.store = true;
                c.load = true;
                c.sched = true;
                c.hw_sync = true;
            }
        }
        debug_assert!(c.validate().is_ok());
        Some(c)
    }
}

/// The named configurations evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Preset {
    /// Unmodified core, everything in software.
    Vanilla,
    /// The comparison design by Balas et al. (re-implemented, §6).
    Cv32rt,
    /// Hardware context storing.
    S,
    /// Storing + loading.
    Sl,
    /// Hardware scheduling only.
    T,
    /// Storing + scheduling.
    St,
    /// Storing + loading + scheduling — the paper's all-round choice.
    Slt,
    /// Storing with dirty bits (area study only).
    Sd,
    /// Storing with dirty bits + scheduling (area study only).
    Sdt,
    /// Storing + dirty bits + loading + load omission.
    Sdlo,
    /// SDLO + hardware scheduling.
    Sdlot,
    /// SLT + preloading (+ load omission) — lowest mean latency.
    Split,
    /// **Extension** (paper §7 future work): SLT plus hardware semaphores
    /// (`SEM_TAKE`/`SEM_GIVE`). Not part of the paper's evaluated set.
    SltHs,
}

impl Preset {
    /// The configurations of the latency evaluation (paper Fig. 9).
    pub const LATENCY_SET: [Preset; 10] = [
        Preset::Vanilla,
        Preset::Cv32rt,
        Preset::S,
        Preset::Sl,
        Preset::T,
        Preset::St,
        Preset::Slt,
        Preset::Sdlo,
        Preset::Sdlot,
        Preset::Split,
    ];

    /// The configurations of the ASIC studies (paper Figs. 10/11/13).
    pub const ASIC_SET: [Preset; 12] = [
        Preset::Vanilla,
        Preset::Cv32rt,
        Preset::S,
        Preset::Sd,
        Preset::Sl,
        Preset::Sdlo,
        Preset::T,
        Preset::St,
        Preset::Sdt,
        Preset::Slt,
        Preset::Sdlot,
        Preset::Split,
    ];

    /// The paper's parenthesised label, e.g. `"(SLT)"`.
    pub fn label(self) -> &'static str {
        match self {
            Preset::Vanilla => "(vanilla)",
            Preset::Cv32rt => "(CV32RT)",
            Preset::S => "(S)",
            Preset::Sl => "(SL)",
            Preset::T => "(T)",
            Preset::St => "(ST)",
            Preset::Slt => "(SLT)",
            Preset::Sd => "(SD)",
            Preset::Sdt => "(SDT)",
            Preset::Sdlo => "(SDLO)",
            Preset::Sdlot => "(SDLOT)",
            Preset::Split => "(SPLIT)",
            Preset::SltHs => "(SLT+HS)",
        }
    }

    /// A stable lowercase identifier, e.g. `"slt"` — used by snapshot
    /// self-description and CLI argument parsing.
    pub fn tag(self) -> &'static str {
        match self {
            Preset::Vanilla => "vanilla",
            Preset::Cv32rt => "cv32rt",
            Preset::S => "s",
            Preset::Sl => "sl",
            Preset::T => "t",
            Preset::St => "st",
            Preset::Slt => "slt",
            Preset::Sd => "sd",
            Preset::Sdt => "sdt",
            Preset::Sdlo => "sdlo",
            Preset::Sdlot => "sdlot",
            Preset::Split => "split",
            Preset::SltHs => "slt_hs",
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<Preset> {
        [
            Preset::Vanilla,
            Preset::Cv32rt,
            Preset::S,
            Preset::Sl,
            Preset::T,
            Preset::St,
            Preset::Slt,
            Preset::Sd,
            Preset::Sdt,
            Preset::Sdlo,
            Preset::Sdlot,
            Preset::Split,
            Preset::SltHs,
        ]
        .into_iter()
        .find(|p| p.tag() == tag)
    }

    /// Whether context storing is hardware-accelerated (register banking).
    pub fn has_store(self) -> bool {
        RtosUnitConfig::from_preset(self).is_some_and(|c| c.store)
    }

    /// Whether scheduling is hardware-accelerated.
    pub fn has_sched(self) -> bool {
        RtosUnitConfig::from_preset(self).is_some_and(|c| c.sched)
    }

    /// Whether context loading is hardware-accelerated.
    pub fn has_load(self) -> bool {
        RtosUnitConfig::from_preset(self).is_some_and(|c| c.load)
    }
}

impl fmt::Display for Preset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for p in Preset::ASIC_SET {
            if let Some(c) = RtosUnitConfig::from_preset(p) {
                assert_eq!(c.validate(), Ok(()), "{p} must validate");
            }
        }
    }

    #[test]
    fn dependency_rules() {
        let mut c = RtosUnitConfig {
            load: true,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::LoadRequiresStore));
        c.store = true;
        assert_eq!(c.validate(), Ok(()));
        c.preload = true;
        assert_eq!(c.validate(), Err(ConfigError::PreloadRequiresSlt));
        c.sched = true;
        assert_eq!(c.validate(), Ok(()));
        c.dirty_bits = true;
        assert_eq!(c.validate(), Err(ConfigError::PreloadConflictsDirty));
    }

    #[test]
    fn list_bounds() {
        let mut c = RtosUnitConfig {
            sched: true,
            list_len: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::EmptyLists));
        c.list_len = 1000;
        assert_eq!(c.validate(), Err(ConfigError::ListTooLong));
        c.list_len = 64;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Preset::Slt.label(), "(SLT)");
        assert_eq!(Preset::Vanilla.label(), "(vanilla)");
        assert_eq!(Preset::Cv32rt.label(), "(CV32RT)");
        assert_eq!(Preset::Split.label(), "(SPLIT)");
    }

    #[test]
    fn tags_roundtrip() {
        for p in Preset::ASIC_SET.into_iter().chain([Preset::SltHs]) {
            assert_eq!(Preset::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Preset::from_tag("bogus"), None);
    }

    #[test]
    fn latency_set_matches_fig9() {
        assert_eq!(Preset::LATENCY_SET.len(), 10);
        assert!(Preset::LATENCY_SET.contains(&Preset::Sdlo));
        assert!(!Preset::LATENCY_SET.contains(&Preset::Sd));
    }
}
