//! Set-associative LRU cache simulator.

use machine::CacheParams;

/// Hit/miss counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheSimStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (including cold misses).
    pub misses: u64,
}

impl CacheSimStats {
    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// One cache set: ways ordered most- to least-recently used.
/// Tags are full line addresses (address / line size), so aliasing across
/// sets is impossible.
struct Set {
    ways: Vec<u64>,
}

/// A set-associative LRU cache fed by byte addresses.
pub struct CacheSim {
    params: CacheParams,
    sets: Vec<Set>,
    set_mask: u64,
    line_shift: u32,
    stats: CacheSimStats,
}

impl CacheSim {
    /// Build a cache from parameters. The set count must be a power of two
    /// (true for all real caches modelled here).
    pub fn new(params: CacheParams) -> CacheSim {
        let sets = params.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        assert!(params.line_bytes.is_power_of_two());
        CacheSim {
            params,
            sets: (0..sets)
                .map(|_| Set { ways: Vec::with_capacity(params.associativity as usize) })
                .collect(),
            set_mask: sets - 1,
            line_shift: params.line_bytes.trailing_zeros(),
            stats: CacheSimStats::default(),
        }
    }

    /// Parameters this cache was built from.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Access one byte address; returns `true` on hit. LRU replacement.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = &mut self.sets[(line & self.set_mask) as usize];
        if let Some(pos) = set.ways.iter().position(|&t| t == line) {
            // Move to MRU position.
            let tag = set.ways.remove(pos);
            set.ways.insert(0, tag);
            self.stats.hits += 1;
            true
        } else {
            if set.ways.len() == self.params.associativity as usize {
                set.ways.pop(); // evict LRU
            }
            set.ways.insert(0, line);
            self.stats.misses += 1;
            false
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheSimStats {
        self.stats
    }
}

// Warm-up and occupancy probes only the tests read.
#[cfg(test)]
impl CacheSim {
    /// Reset counters (keeps cache contents — useful to skip warmup).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheSimStats::default();
    }

    /// Lines currently resident.
    pub(crate) fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.ways.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> CacheSim {
        // 8 KiB, 4-way, 64 B lines => 32 sets.
        CacheSim::new(CacheParams {
            size_bytes: 8 * 1024,
            associativity: 4,
            line_bytes: 64,
            hit_latency_ns: 1.0,
            miss_penalty_ns: 10.0,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000)); // cold miss
        assert!(c.access(0x1000));
        assert!(c.access(0x1010)); // same line
        assert_eq!(c.stats(), CacheSimStats { hits: 2, misses: 1 });
    }

    #[test]
    fn working_set_fitting_in_cache_hits_after_warmup() {
        let mut c = small_cache();
        let lines: Vec<u64> = (0..64).map(|i| i * 64).collect(); // 4 KiB
        for &a in &lines {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &lines {
                assert!(c.access(a));
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn working_set_exceeding_cache_thrashes() {
        let mut c = small_cache();
        // 16 KiB round-robin over an 8 KiB cache: with LRU, every access
        // misses once warmed (classic cyclic-thrash behaviour).
        let lines: Vec<u64> = (0..256).map(|i| i * 64).collect();
        for _ in 0..2 {
            for &a in &lines {
                c.access(a);
            }
        }
        c.reset_stats();
        for &a in &lines {
            c.access(a);
        }
        assert_eq!(c.stats().miss_ratio(), 1.0);
    }

    #[test]
    fn associativity_conflicts() {
        let mut c = small_cache(); // 32 sets, 4 ways
                                   // 5 lines mapping to the same set (stride = sets * line = 2048).
        let conflicting: Vec<u64> = (0..5).map(|i| i * 2048).collect();
        for _ in 0..3 {
            for &a in &conflicting {
                c.access(a);
            }
        }
        // 5 lines into 4 ways with cyclic access: all miss after warmup.
        c.reset_stats();
        for &a in &conflicting {
            assert!(!c.access(a));
        }
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = small_cache();
        let hot = 0u64;
        let cold: Vec<u64> = (1..4).map(|i| i * 2048).collect(); // same set as hot
        c.access(hot);
        for _ in 0..10 {
            // Touch hot between cold accesses: must stay resident.
            for &a in &cold {
                c.access(a);
                assert!(c.access(hot), "hot line was evicted");
            }
        }
    }

    #[test]
    fn resident_lines_bounded_by_capacity() {
        let mut c = small_cache();
        for i in 0..10_000 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() as u64 <= c.params().lines());
    }
}
