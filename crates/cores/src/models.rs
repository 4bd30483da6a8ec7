//! The three evaluated core models (paper §3, §5).

use crate::engine::CoreEngine;
use crate::timing::TimingParams;
use rvsim_mem::CacheConfig;
use std::fmt;

/// Which of the paper's three cores a platform is built around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// CV32E40P: microcontroller-class, 4-stage in-order, no cache,
    /// single-cycle tightly coupled SRAM (§5.1).
    Cv32e40p,
    /// CVA6: application-class, 6-stage, write-through cache; the RTOSUnit
    /// arbitrates at the **bus level** and bypasses the cache (§5.2).
    Cva6,
    /// NaxRiscv: superscalar out-of-order, write-back cache; the RTOSUnit
    /// arbitrates **inside the LSU** through the ctxQueue and shares the
    /// cache (§5.3).
    NaxRiscv,
}

impl CoreKind {
    /// All three cores in paper order.
    pub const ALL: [CoreKind; 3] = [CoreKind::Cv32e40p, CoreKind::Cva6, CoreKind::NaxRiscv];

    /// Timing parameters of this core.
    pub fn timing(self) -> TimingParams {
        match self {
            CoreKind::Cv32e40p => TimingParams::cv32e40p(),
            CoreKind::Cva6 => TimingParams::cva6(),
            CoreKind::NaxRiscv => TimingParams::naxriscv(),
        }
    }

    /// Data-cache configuration, if the core has one.
    pub fn dcache(self) -> Option<CacheConfig> {
        match self {
            CoreKind::Cv32e40p => None,
            CoreKind::Cva6 => Some(CacheConfig::cva6_data()),
            CoreKind::NaxRiscv => Some(CacheConfig::naxriscv_data()),
        }
    }

    /// Whether the RTOSUnit shares the data cache (LSU-level arbitration,
    /// NaxRiscv) instead of bypassing it at the bus (CVA6) — paper §5.
    pub fn unit_shares_cache(self) -> bool {
        matches!(self, CoreKind::NaxRiscv)
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        self.timing().name
    }

    /// Inverse of [`name`](Self::name): resolves a display name back to
    /// the core kind (used by snapshot self-description).
    pub fn from_name(name: &str) -> Option<CoreKind> {
        CoreKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// A stable lowercase identifier, e.g. `"cva6"` — used by replay
    /// artifacts, the regression seed corpus and CLI argument parsing.
    pub fn tag(self) -> &'static str {
        match self {
            CoreKind::Cv32e40p => "cv32e40p",
            CoreKind::Cva6 => "cva6",
            CoreKind::NaxRiscv => "naxriscv",
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<CoreKind> {
        CoreKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds a [`CoreEngine`] of the given kind with instruction memory at
/// `imem_base` of `imem_size` bytes.
pub fn make_engine(kind: CoreKind, imem_base: u32, imem_size: u32) -> CoreEngine {
    CoreEngine::new(kind.timing(), imem_base, imem_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_presence_matches_paper() {
        assert!(CoreKind::Cv32e40p.dcache().is_none());
        assert!(CoreKind::Cva6.dcache().is_some());
        assert!(CoreKind::NaxRiscv.dcache().is_some());
    }

    #[test]
    fn arbitration_levels_match_paper() {
        assert!(
            !CoreKind::Cva6.unit_shares_cache(),
            "CVA6 arbitrates at bus level"
        );
        assert!(
            CoreKind::NaxRiscv.unit_shares_cache(),
            "NaxRiscv arbitrates in the LSU"
        );
    }

    #[test]
    fn names_match_paper() {
        let names: Vec<_> = CoreKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["CV32E40P", "CVA6", "NaxRiscv"]);
    }

    #[test]
    fn tags_roundtrip() {
        for k in CoreKind::ALL {
            assert_eq!(CoreKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(CoreKind::from_tag("CVA6"), None);
    }
}
