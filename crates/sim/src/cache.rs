//! Set-associative LRU cache model.
//!
//! Tag-only (no data), true-LRU replacement by recency order: each set
//! keeps its valid tags most recently used first, so a hit moves its tag
//! to the front and the victim of a full set is always the last way.
//! Used for both the per-SM L1s and the shared L2. Stores are modelled as
//! write-through no-allocate: they probe the cache (updating LRU on hit)
//! but never install lines, which is how Fermi's L1 treats global stores.

use crate::config::CacheConfig;
use crate::divisor::Divisor;

/// A set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `num_sets * assoc` tags, row-major by set: 8 bytes a way, so an
    /// 8-way set is one host cache line. A set's first `fill[set]` ways
    /// are valid, most recently used first; the rest are stale.
    tags: Vec<u64>,
    /// Valid ways per set. Validity cannot live in the tag: with 1-byte
    /// lines and one set every `u64` is some address's tag.
    fill: Vec<u32>,
    assoc: usize,
    line_bytes: Divisor,
    num_sets: Divisor,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build an empty cache with the given geometry (zero `line_bytes`
    /// or `assoc` count as 1).
    pub fn new(cfg: CacheConfig) -> Self {
        let assoc = cfg.assoc.max(1) as usize;
        let num_sets = Divisor::new(cfg.num_sets());
        // Cache geometry (sets x assoc) is far below usize::MAX on any
        // supported target.
        #[expect(clippy::cast_possible_truncation)]
        let sets = num_sets.get() as usize;
        Cache {
            tags: vec![0; sets * assoc],
            fill: vec![0; sets],
            assoc,
            line_bytes: Divisor::new(cfg.line_bytes),
            num_sets,
            hits: 0,
            misses: 0,
        }
    }

    /// `line_addr`'s set index and tag.
    #[inline]
    fn locate(&self, line_addr: u64) -> (usize, u64) {
        let (line, _) = self.line_bytes.div_rem(line_addr);
        let (tag, set_idx) = self.num_sets.div_rem(line);
        // set_idx < num_sets, which fits usize (see `new`).
        #[expect(clippy::cast_possible_truncation)]
        (set_idx as usize, tag)
    }

    /// Find `tag` among `set`'s valid ways and move it to the front.
    #[inline]
    fn touch(&mut self, set: usize, tag: u64) -> bool {
        let ways = &mut self.tags[set * self.assoc..][..self.fill[set] as usize];
        match ways.iter().position(|&t| t == tag) {
            Some(w) => {
                ways.copy_within(..w, 1);
                ways[0] = tag;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Probe-and-fill for a load: returns `true` on hit; on miss the line
    /// is installed, evicting the LRU way.
    pub fn access_load(&mut self, line_addr: u64) -> bool {
        let (set, tag) = self.locate(line_addr);
        if self.touch(set, tag) {
            return true;
        }
        // The new tag goes in front; a full set's last (LRU) tag falls off.
        let kept = (self.fill[set] as usize).min(self.assoc - 1);
        let ways = &mut self.tags[set * self.assoc..][..self.assoc];
        ways.copy_within(..kept, 1);
        ways[0] = tag;
        // kept < assoc = cfg.assoc.max(1), a u32.
        #[expect(clippy::cast_possible_truncation)]
        let fill = kept as u32 + 1;
        self.fill[set] = fill;
        false
    }

    /// Probe for a store (write-through no-allocate): returns `true` on
    /// hit (LRU refreshed); a miss leaves the cache unchanged.
    pub fn access_store(&mut self, line_addr: u64) -> bool {
        let (set, tag) = self.locate(line_addr);
        self.touch(set, tag)
    }

    /// Invalidate everything (between launches; kernels share no data in
    /// our workloads, and flushing makes runs independent).
    pub fn flush(&mut self) {
        self.fill.fill(0);
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hit rate in [0, 1]; 0 when untouched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbpoint_stats::SplitMix64;

    /// The first implementation of this module, kept as the differential
    /// reference: 24-byte ways with a `valid` flag and an access stamp, a
    /// hit pass then a `min_by_key` victim pass, geometry divided out on
    /// every access.
    #[derive(Clone, Copy, Default)]
    struct RefLine {
        tag: u64,
        valid: bool,
        stamp: u64,
    }

    struct RefCache {
        cfg: CacheConfig,
        sets: Vec<RefLine>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            let n = (cfg.num_sets() as usize) * cfg.assoc as usize;
            RefCache {
                cfg,
                sets: vec![RefLine::default(); n],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_range(&self, line_addr: u64) -> (usize, u64) {
            let set_idx = (line_addr / self.cfg.line_bytes) % self.cfg.num_sets();
            let tag = line_addr / self.cfg.line_bytes / self.cfg.num_sets();
            (set_idx as usize * self.cfg.assoc as usize, tag)
        }

        fn access_load(&mut self, line_addr: u64) -> bool {
            self.tick += 1;
            let (base, tag) = self.set_range(line_addr);
            let assoc = self.cfg.assoc as usize;
            for w in 0..assoc {
                let l = &mut self.sets[base + w];
                if l.valid && l.tag == tag {
                    l.stamp = self.tick;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            let victim = (0..assoc)
                .min_by_key(|&w| {
                    let l = &self.sets[base + w];
                    if l.valid {
                        l.stamp
                    } else {
                        0
                    }
                })
                .unwrap();
            self.sets[base + victim] = RefLine {
                tag,
                valid: true,
                stamp: self.tick,
            };
            false
        }

        fn access_store(&mut self, line_addr: u64) -> bool {
            self.tick += 1;
            let (base, tag) = self.set_range(line_addr);
            for w in 0..self.cfg.assoc as usize {
                let l = &mut self.sets[base + w];
                if l.valid && l.tag == tag {
                    l.stamp = self.tick;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            false
        }

        fn flush(&mut self) {
            for l in &mut self.sets {
                l.valid = false;
            }
        }
    }

    /// `streams` seeded load/store/flush streams, each on a geometry
    /// drawn from power-of-two and odd set counts, four associativities
    /// and three line sizes, over a footprint a few times the capacity so
    /// hits, conflict misses and evictions all occur. One access in 32
    /// goes to `u64::MAX`, the tag of that address under 1-byte lines and
    /// one set (the geometry a zeroed `GpuConfig` clamps to), so no tag
    /// value can stand for an invalid way.
    fn differential(seed: u64, streams: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut accesses = 0u64;
        for stream in 0..streams {
            let sets = [1, 3, 16, 64, 768][rng.next_index(5) as usize];
            let assoc = [1, 2, 8, 16][rng.next_index(4) as usize];
            let line_bytes = [128, 96, 1][rng.next_index(3) as usize];
            let cfg = CacheConfig {
                // A ragged size: `num_sets` must round the same way.
                size_bytes: sets * u64::from(assoc) * line_bytes + rng.next_index(line_bytes),
                line_bytes,
                assoc,
            };
            assert_eq!(cfg.num_sets(), sets);
            let (mut got, mut want) = (Cache::new(cfg), RefCache::new(cfg));
            let lines = 1 + rng.next_index(4 * sets * u64::from(assoc));
            let base = [0, 1 << 34, u64::MAX - lines * line_bytes][rng.next_index(3) as usize];
            for i in 0..2_000 {
                let addr = match rng.next_index(32) {
                    0 => u64::MAX,
                    _ => base + rng.next_index(lines * line_bytes),
                };
                let (got_hit, want_hit) = match rng.next_index(64) {
                    0 => {
                        got.flush();
                        want.flush();
                        (false, false)
                    }
                    1..=12 => (got.access_store(addr), want.access_store(addr)),
                    _ => (got.access_load(addr), want.access_load(addr)),
                };
                // Same outcome, same counters, and the same set holding
                // the same lines in the same recency order (so the same
                // victim was chosen): the reference's valid ways by
                // descending stamp, ours front to back.
                let (first, _) = want.set_range(addr);
                let mut want_ways: Vec<_> = want.sets[first..first + assoc as usize]
                    .iter()
                    .filter(|l| l.valid)
                    .map(|l| (l.stamp, l.tag))
                    .collect();
                want_ways.sort_unstable_by(|a, b| b.cmp(a));
                let want_tags: Vec<_> = want_ways.into_iter().map(|(_, tag)| tag).collect();
                let (set, _) = got.locate(addr);
                let got_tags = got.tags[set * got.assoc..][..got.fill[set] as usize].to_vec();
                assert_eq!(
                    (got_hit, got.stats(), got_tags),
                    (want_hit, (want.hits, want.misses), want_tags),
                    "stream {stream} (seed {seed:#x}) access {i}: {cfg:?} addr {addr:#x}"
                );
                accesses += 1;
            }
        }
        println!(
            "cache vs valid-flag reference: {streams} streams, {accesses} accesses, 0 mismatches"
        );
    }

    #[test]
    fn matches_the_valid_flag_reference() {
        differential(0xCAC4E, 300);
    }

    #[test]
    #[ignore = "50k streams; CI runs it in release (cargo test --release -p tbpoint-sim -- --ignored)"]
    fn matches_the_valid_flag_reference_50k() {
        differential(0x51DE_CAC4E, 50_000);
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 128B lines = 1 KiB.
        Cache::new(CacheConfig {
            size_bytes: 1024,
            line_bytes: 128,
            assoc: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access_load(0));
        assert!(c.access_load(0));
        assert!(c.access_load(64)); // same 128B line
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        assert!(!c.access_load(0)); // set 0
        assert!(!c.access_load(128)); // set 1
        assert!(c.access_load(0));
        assert!(c.access_load(128));
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = 4 sets * 128B = 512B).
        c.access_load(0);
        c.access_load(512);
        c.access_load(1024); // evicts line 0 (LRU)
        assert!(!c.access_load(0), "line 0 must have been evicted");
        assert!(c.access_load(1024));
    }

    #[test]
    fn lru_refresh_on_hit_changes_victim() {
        let mut c = tiny();
        c.access_load(0);
        c.access_load(512);
        c.access_load(0); // refresh line 0; 512 is now LRU
        c.access_load(1024); // evicts 512
        assert!(c.access_load(0));
        assert!(!c.access_load(512));
    }

    #[test]
    fn store_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.access_store(0));
        assert!(!c.access_load(0), "store miss must not install the line");
        // But a store hit refreshes LRU.
        c.access_load(512); // set 0 now has {0(load-installed), 512}
        assert!(c.access_store(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access_load(0);
        c.flush();
        assert!(!c.access_load(0));
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access_load(0);
        c.access_load(0);
        c.access_load(0);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny(); // 8 lines capacity
                            // 64 distinct lines, two passes: second pass still mostly misses.
        for pass in 0..2 {
            for i in 0..64u64 {
                let hit = c.access_load(i * 128);
                if pass == 0 {
                    assert!(!hit);
                }
            }
        }
        let (hits, misses) = c.stats();
        assert!(
            misses > hits,
            "streaming working set must thrash: {hits} hits {misses} misses"
        );
    }
}
