//! Set-associative cache timing model.
//!
//! The model tracks tags, valid and dirty bits — not data (data always
//! lives in the backing [`Mem`](crate::Mem), which is updated synchronously
//! by the simulator). Its job is to produce *timing outcomes* (hit, miss,
//! dirty eviction) plus the occupancy of the downstream bus, which is what
//! creates the residual context-switch jitter the paper observes on CVA6
//! and NaxRiscv (§6.1).

use rvsim_snapshot::{self as snap, Json, SnapError};

/// Write policy of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Writes go to memory immediately (CVA6, §5.2). Write misses do not
    /// allocate.
    WriteThrough,
    /// Writes dirty the line; dirty lines are written back on eviction
    /// (NaxRiscv, §5.3). Write misses allocate.
    WriteBack,
}

/// Static cache geometry and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in 32-bit words (power of two).
    pub line_words: u32,
    /// Write policy.
    pub policy: WritePolicy,
    /// Cycles for a hit.
    pub hit_latency: u32,
    /// Cycles to fetch a line from the backing store on a miss.
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// A small write-through data cache as used by the CVA6 model.
    pub fn cva6_data() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 4,
            line_words: 4,
            policy: WritePolicy::WriteThrough,
            hit_latency: 1,
            miss_penalty: 6,
        }
    }

    /// A write-back data cache in front of high-latency memory, as used by
    /// the NaxRiscv model. 64-byte lines: the 16 words that CV32RT's
    /// dedicated port bypasses fit in a single line (§6).
    pub fn naxriscv_data() -> CacheConfig {
        CacheConfig {
            sets: 64,
            ways: 4,
            line_words: 16,
            policy: WritePolicy::WriteBack,
            hit_latency: 1,
            miss_penalty: 20,
        }
    }
}

/// Timing outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Whether a dirty line had to be written back first.
    pub writeback: bool,
    /// Total latency in cycles for this access.
    pub latency: u32,
    /// Cycles the downstream bus is occupied by this access (refill and/or
    /// write-through/write-back traffic).
    pub bus_cycles: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u32,
    /// LRU stamp; higher = more recently used.
    lru: u64,
}

/// Cache state. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2` of the line size in bytes: an address shifted right by it
    /// is its line address.
    line_shift: u32,
    /// `log2` of the set count: a line address shifted right by it is its
    /// tag.
    set_shift: u32,
    lines: Vec<Line>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_words` is not a power of two, or if any
    /// geometry parameter is zero.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_words.is_power_of_two(),
            "line_words must be a power of two"
        );
        assert!(cfg.ways > 0, "ways must be non-zero");
        Cache {
            cfg,
            line_shift: (cfg.line_words * 4).trailing_zeros(),
            set_shift: cfg.sets.trailing_zeros(),
            lines: vec![Line::default(); (cfg.sets * cfg.ways) as usize],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The set and tag of `addr`. The geometry is a power of two (checked
    /// in [`new`](Self::new)), so a shift and a mask stand in for the
    /// divisions by the line size and the set count.
    #[inline]
    fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        let line_addr = addr >> self.line_shift;
        (line_addr & (self.cfg.sets - 1), line_addr >> self.set_shift)
    }

    #[inline]
    fn set_slice(&mut self, set: u32) -> &mut [Line] {
        let start = (set * self.cfg.ways) as usize;
        &mut self.lines[start..start + self.cfg.ways as usize]
    }

    /// Performs one access and returns its timing outcome, updating tags,
    /// valid/dirty bits and LRU state.
    #[inline]
    pub fn access(&mut self, addr: u32, is_write: bool) -> CacheOutcome {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let cfg = self.cfg;

        if let Some(line) = self
            .set_slice(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.lru = tick;
            let (latency, bus_cycles) = match (cfg.policy, is_write) {
                // Write-through: the write still occupies the bus.
                (WritePolicy::WriteThrough, true) => (cfg.hit_latency, 1),
                _ => {
                    if is_write {
                        line.dirty = true;
                    }
                    (cfg.hit_latency, 0)
                }
            };
            self.hits += 1;
            return CacheOutcome {
                hit: true,
                writeback: false,
                latency,
                bus_cycles,
            };
        }

        self.misses += 1;
        // Write-through, no-allocate on write miss: just push to memory.
        if cfg.policy == WritePolicy::WriteThrough && is_write {
            return CacheOutcome {
                hit: false,
                writeback: false,
                latency: cfg.hit_latency + 1,
                bus_cycles: 1,
            };
        }

        // Allocate: pick the LRU victim.
        let victim = self
            .set_slice(set)
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("ways > 0");
        let writeback = victim.valid && victim.dirty;
        victim.valid = true;
        victim.dirty = is_write && cfg.policy == WritePolicy::WriteBack;
        victim.tag = tag;
        victim.lru = tick;

        let wb_cycles = if writeback { cfg.line_words } else { 0 };
        CacheOutcome {
            hit: false,
            writeback,
            latency: cfg.hit_latency + cfg.miss_penalty + wb_cycles,
            bus_cycles: cfg.line_words + wb_cycles,
        }
    }

    /// Invalidates the line containing `addr` (used by the CV32RT
    /// comparison model, which bypasses the cache with a dedicated port and
    /// must invalidate the stale line, §6).
    ///
    /// Returns `true` if a valid line was dropped.
    pub fn invalidate_line(&mut self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        for line in self.set_slice(set) {
            if line.valid && line.tag == tag {
                line.valid = false;
                line.dirty = false;
                return true;
            }
        }
        false
    }

    /// Serializes tag/valid/dirty/LRU state and counters for a
    /// machine-state snapshot. The lines are one flat
    /// `[valid, dirty, tag, lru, ...]` array; the configuration comes from
    /// the core and is not state.
    pub fn to_snap(&self) -> Json {
        let lines = self.lines.iter().map(|l| {
            [
                u64::from(l.valid),
                u64::from(l.dirty),
                u64::from(l.tag),
                l.lru,
            ]
        });
        Json::object()
            .with("tick", self.tick)
            .with("hits", self.hits)
            .with("misses", self.misses)
            .with("lines", snap::rows_to_json(lines))
    }

    /// Rebuilds a cache of configuration `cfg` — the core's — from
    /// [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on missing fields, a tag beyond `u32`, or a line array whose
    /// length is not `cfg`'s line count.
    pub fn from_snap(value: &Json, cfg: CacheConfig) -> Result<Cache, SnapError> {
        let mut cache = Cache::new(cfg);
        let rows = snap::rows_from_json::<4>(snap::field(value, "lines")?, "cache lines")?;
        if rows.len() != cache.lines.len() {
            return Err(SnapError::new(format!(
                "cache: {} lines, expected {}",
                rows.len(),
                cache.lines.len()
            )));
        }
        for (line, [valid, dirty, tag, lru]) in cache.lines.iter_mut().zip(rows) {
            line.valid = valid != 0;
            line.dirty = dirty != 0;
            line.tag =
                u32::try_from(tag).map_err(|_| SnapError::new("cache line tag: exceeds u32"))?;
            line.lru = lru;
        }
        cache.tick = snap::get_u64(value, "tick")?;
        cache.hits = snap::get_u64(value, "hits")?;
        cache.misses = snap::get_u64(value, "misses")?;
        Ok(cache)
    }

    /// Whether the line containing `addr` is currently resident.
    pub fn probe(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let start = (set * self.cfg.ways) as usize;
        self.lines[start..start + self.cfg.ways as usize]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: WritePolicy) -> Cache {
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_words: 4,
            policy,
            hit_latency: 1,
            miss_penalty: 10,
        })
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = tiny(WritePolicy::WriteBack);
        let miss = c.access(0x100, false);
        assert!(!miss.hit);
        assert_eq!(miss.latency, 11);
        let hit = c.access(0x104, false); // same 16-byte line
        assert!(hit.hit);
        assert_eq!(hit.latency, 1);
    }

    #[test]
    fn write_back_dirty_eviction() {
        let mut c = tiny(WritePolicy::WriteBack);
        // Set 0 lines are at line addresses even; with 2 sets × 16B lines,
        // addresses 0x00, 0x20, 0x40 all map to set 0.
        c.access(0x00, true); // allocate + dirty
        c.access(0x20, false); // allocate second way
        let out = c.access(0x40, false); // evicts the dirty line
        assert!(!out.hit);
        assert!(out.writeback);
        assert_eq!(out.latency, 1 + 10 + 4);
    }

    #[test]
    fn write_through_write_miss_does_not_allocate() {
        let mut c = tiny(WritePolicy::WriteThrough);
        let w = c.access(0x100, true);
        assert!(!w.hit);
        assert!(!c.probe(0x100));
        assert_eq!(w.bus_cycles, 1);
        // A read fills the line; a subsequent write hit still uses the bus.
        c.access(0x100, false);
        let w2 = c.access(0x100, true);
        assert!(w2.hit);
        assert_eq!(w2.bus_cycles, 1);
    }

    #[test]
    fn invalidate_line_drops_residency() {
        let mut c = tiny(WritePolicy::WriteBack);
        c.access(0x80, false);
        assert!(c.probe(0x80));
        assert!(c.invalidate_line(0x80));
        assert!(!c.probe(0x80));
        assert!(!c.invalidate_line(0x80));
    }

    #[test]
    fn lru_replacement_prefers_oldest() {
        let mut c = tiny(WritePolicy::WriteBack);
        c.access(0x00, false);
        c.access(0x20, false);
        c.access(0x00, false); // refresh line 0x00
        c.access(0x40, false); // should evict 0x20
        assert!(c.probe(0x00));
        assert!(!c.probe(0x20));
        assert!(c.probe(0x40));
    }

    #[test]
    fn snapshots_restore_onto_the_callers_configuration() {
        let mut c = tiny(WritePolicy::WriteBack);
        c.access(0x40, true);
        let doc = c.to_snap();
        let back = Cache::from_snap(&doc, *c.config()).expect("round trip");
        assert!(back.probe(0x40));
        assert_eq!(back.to_snap(), doc);
        // The line array must hold exactly the caller's line count.
        for other in [
            CacheConfig {
                sets: 4,
                ..*c.config()
            },
            CacheConfig {
                ways: 1,
                ..*c.config()
            },
        ] {
            assert!(Cache::from_snap(&doc, other).is_err(), "{other:?} accepted");
        }
        let mut short = doc.clone();
        if let Some(Json::Array(lines)) = short.get_mut("lines") {
            lines.truncate(lines.len() - 4);
        }
        assert!(
            Cache::from_snap(&short, *c.config()).is_err(),
            "short line array"
        );
    }

    #[test]
    fn shift_and_mask_indexing_matches_division() {
        for cfg in [
            CacheConfig::cva6_data(),
            CacheConfig::naxriscv_data(),
            *tiny(WritePolicy::WriteBack).config(),
        ] {
            let c = Cache::new(cfg);
            let line_bytes = cfg.line_words * 4;
            let scattered = (0..4096u32).map(|i| i.wrapping_mul(0x9e37_79b9));
            for addr in scattered.chain([0, 4, 0x2000_0000, 0x2000_ffff, u32::MAX]) {
                let line = addr / line_bytes;
                assert_eq!(
                    c.set_and_tag(addr),
                    (line % cfg.sets, line / cfg.sets),
                    "{cfg:?} at {addr:#010x}"
                );
            }
        }
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = tiny(WritePolicy::WriteBack);
        c.access(0x00, false);
        c.access(0x00, false);
        c.access(0x00, false);
        assert_eq!(c.stats(), (2, 1));
    }
}
