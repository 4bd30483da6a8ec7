//! Property tests for the cache model against a reference residency
//! simulator, plus arbiter accounting invariants. Each property runs over
//! fixed `Rng64` seeds; a failure names the seed that reproduces it.

use rvsim_isa::Rng64;
use rvsim_mem::{Arbiter, Cache, CacheConfig, WritePolicy};
use std::collections::HashMap;

const CASES: u64 = 2048;

/// Reference model: per-set LRU lists of line addresses.
#[derive(Debug)]
struct RefCache {
    cfg: CacheConfig,
    sets: HashMap<u32, Vec<(u32, bool)>>, // set -> MRU-last [(tag, dirty)]
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            cfg,
            sets: HashMap::new(),
        }
    }

    fn set_and_tag(&self, addr: u32) -> (u32, u32) {
        let line = addr / (self.cfg.line_words * 4);
        (line % self.cfg.sets, line / self.cfg.sets)
    }

    /// Returns (hit, writeback_happened).
    fn access(&mut self, addr: u32, write: bool) -> (bool, bool) {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.sets.entry(set).or_default();
        if let Some(pos) = ways.iter().position(|&(t, _)| t == tag) {
            let (t, mut d) = ways.remove(pos);
            if write && self.cfg.policy == WritePolicy::WriteBack {
                d = true;
            }
            ways.push((t, d));
            return (true, false);
        }
        if self.cfg.policy == WritePolicy::WriteThrough && write {
            return (false, false); // no allocate
        }
        let mut wb = false;
        if ways.len() == self.cfg.ways as usize {
            let (_, dirty) = ways.remove(0); // LRU first
            wb = dirty;
        }
        ways.push((tag, write && self.cfg.policy == WritePolicy::WriteBack));
        (false, wb)
    }

    fn resident(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets
            .get(&set)
            .is_some_and(|ways| ways.iter().any(|&(t, _)| t == tag))
    }
}

/// A small cache (2–8 sets, 1–3 ways, 4–16-word lines, either policy),
/// so short access streams already force evictions.
fn random_cfg(rng: &mut Rng64) -> CacheConfig {
    CacheConfig {
        sets: *rng.pick(&[2, 4, 8]),
        ways: 1 + rng.below(3) as u32,
        line_words: *rng.pick(&[4, 8, 16]),
        policy: *rng.pick(&[WritePolicy::WriteThrough, WritePolicy::WriteBack]),
        hit_latency: 1,
        miss_penalty: 10,
    }
}

/// A word-aligned address in a 4 KiB window.
fn random_addr(rng: &mut Rng64) -> u32 {
    rng.below(4096) as u32 & !3
}

/// Between 1 and `max - 1` `(address, is_write)` accesses.
fn random_accesses(rng: &mut Rng64, max: u64) -> Vec<(u32, bool)> {
    (0..1 + rng.below(max - 1))
        .map(|_| (random_addr(rng), rng.chance(50)))
        .collect()
}

#[test]
fn cache_matches_reference_residency() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let cfg = random_cfg(&mut rng);
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (addr, write) in random_accesses(&mut rng, 200) {
            let out = cache.access(addr, write);
            let (hit, wb) = reference.access(addr, write);
            assert_eq!(out.hit, hit, "seed {seed}: hit/miss diverged at {addr:#x}");
            assert_eq!(
                out.writeback, wb,
                "seed {seed}: writeback diverged at {addr:#x}"
            );
            assert_eq!(
                cache.probe(addr),
                reference.resident(addr),
                "seed {seed}: residency diverged at {addr:#x}"
            );
        }
    }
}

#[test]
fn invalidate_always_clears_residency() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let mut cache = Cache::new(random_cfg(&mut rng));
        for _ in 0..1 + rng.below(49) {
            cache.access(random_addr(&mut rng), false);
        }
        let victim = random_addr(&mut rng);
        cache.invalidate_line(victim);
        assert!(
            !cache.probe(victim),
            "seed {seed}: {victim:#x} still resident"
        );
    }
}

#[test]
fn latency_is_consistent_with_hit_flag() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let cfg = random_cfg(&mut rng);
        let mut cache = Cache::new(cfg);
        for (addr, write) in random_accesses(&mut rng, 100) {
            let out = cache.access(addr, write);
            if out.hit {
                assert_eq!(
                    out.latency, cfg.hit_latency,
                    "seed {seed}: hit at {addr:#x}"
                );
            } else if !(write && cfg.policy == WritePolicy::WriteThrough) {
                assert!(
                    out.latency >= cfg.hit_latency + cfg.miss_penalty,
                    "seed {seed}: miss at {addr:#x} took {} cycles",
                    out.latency
                );
            }
            if out.writeback {
                assert!(
                    out.bus_cycles >= cfg.line_words,
                    "seed {seed}: writeback at {addr:#x} moved {} bus cycles",
                    out.bus_cycles
                );
            }
        }
    }
}

#[test]
fn arbiter_occupancy_adds_up() {
    for seed in 0..CASES {
        let mut rng = Rng64::new(seed);
        let cycles = 1 + rng.below(299);
        let mut arb = Arbiter::new();
        let mut core = 0u64;
        let mut unit = 0u64;
        for _ in 0..cycles {
            match rng.below(3) {
                0 => {}
                1 => {
                    arb.core_request();
                    core += 1;
                }
                _ => {
                    if arb.unit_try_acquire() {
                        unit += 1;
                    }
                }
            }
            arb.end_cycle();
        }
        assert_eq!(arb.occupancy(), (cycles, core, unit), "seed {seed}");
        let idle = arb.idle_fraction();
        assert!((0.0..=1.0).contains(&idle), "seed {seed}: idle {idle}");
    }
}
