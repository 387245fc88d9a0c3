//! A tagged, set-associative history table of saturating counters.
//!
//! Both fill-time predictors the paper studies (block-address-indexed and
//! PC-indexed) are instances of this structure with different key
//! extractors. The table is the *realistic* hardware the paper sizes: a
//! few thousand entries of a few bits each, allocated on first training,
//! replaced LRU within a small associative set.

use crate::counters::SatCounter;

/// Geometry and behaviour of a history table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableConfig {
    /// Total entries; must be a power of two and divisible by `assoc`.
    pub entries: usize,
    /// Entries per index (1 = direct-mapped).
    pub assoc: usize,
    /// Width of each confidence counter in bits.
    pub counter_bits: u32,
    /// Initial counter value for a newly allocated entry trained with a
    /// `shared = true` outcome; `false` outcomes allocate at zero.
    pub init_on_shared: u8,
    /// Number of tag bits kept per entry (partial tags, as hardware would).
    pub tag_bits: u32,
}

impl TableConfig {
    /// The default realistic budget: 4096 entries, 4-way, 3-bit counters,
    /// 10-bit partial tags (≈ 4096 × (3 + 10) bits ≈ 6.5 KB).
    pub const fn realistic() -> Self {
        TableConfig {
            entries: 4096,
            assoc: 4,
            counter_bits: 3,
            init_on_shared: 5,
            tag_bits: 10,
        }
    }

    /// A tiny table for unit tests.
    pub fn tiny() -> Self {
        TableConfig {
            entries: 16,
            assoc: 2,
            counter_bits: 2,
            init_on_shared: 2,
            tag_bits: 8,
        }
    }

    fn validate(&self) {
        assert!(
            self.entries.is_power_of_two(),
            "entries must be a power of two"
        );
        assert!(
            self.assoc >= 1 && self.entries.is_multiple_of(self.assoc),
            "bad associativity"
        );
        assert!(
            self.tag_bits >= 1 && self.tag_bits <= 16,
            "tag bits must be 1..=16"
        );
    }

    /// Hardware budget of the table in bits (counters + tags), for the
    /// `table3` budget-sweep experiment.
    pub fn budget_bits(&self) -> usize {
        self.entries * (self.counter_bits as usize + self.tag_bits as usize)
    }
}

/// Outcome of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The prediction: will the block be shared during its residency?
    pub shared: bool,
    /// `true` if a matching (trained) entry produced the prediction;
    /// `false` if the table missed and the default (not-shared) was
    /// returned. The fraction of covered predictions is the paper's
    /// *coverage* metric.
    pub covered: bool,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    tag: u16,
    counter: SatCounter,
    lru: u64,
}

/// The history table.
#[derive(Debug, Clone)]
pub struct HistoryTable {
    config: TableConfig,
    sets: usize,
    entries: Vec<Entry>,
    clock: u64,
}

impl HistoryTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (non-power-of-two entry
    /// count, zero associativity, out-of-range tag width).
    pub fn new(config: TableConfig) -> Self {
        config.validate();
        let sets = config.entries / config.assoc;
        HistoryTable {
            config,
            sets,
            entries: vec![
                Entry {
                    valid: false,
                    tag: 0,
                    counter: SatCounter::new(config.counter_bits, 0),
                    lru: 0,
                };
                config.entries
            ],
            clock: 0,
        }
    }

    /// The configuration the table was built with.
    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    fn index_and_tag(&self, key: u64) -> (usize, u16) {
        let index = (key as usize) & (self.sets - 1);
        let tag = ((key >> self.sets.trailing_zeros()) & ((1 << self.config.tag_bits) - 1)) as u16;
        (index, tag)
    }

    /// Looks up `key` (a pre-hashed 64-bit value). Does not modify the
    /// table: fill-time prediction must not disturb training state.
    pub fn lookup(&self, key: u64) -> Lookup {
        let (index, tag) = self.index_and_tag(key);
        let base = index * self.config.assoc;
        for e in &self.entries[base..base + self.config.assoc] {
            if e.valid && e.tag == tag {
                return Lookup {
                    shared: e.counter.is_high(),
                    covered: true,
                };
            }
        }
        Lookup {
            shared: false,
            covered: false,
        }
    }

    /// Trains `key` with an observed generation outcome, allocating an
    /// entry (LRU within the index's ways) if the key is absent.
    pub fn train(&mut self, key: u64, shared: bool) {
        self.clock += 1;
        let (index, tag) = self.index_and_tag(key);
        let base = index * self.config.assoc;
        let set = &mut self.entries[base..base + self.config.assoc];

        for e in set.iter_mut() {
            if e.valid && e.tag == tag {
                if shared {
                    e.counter.inc();
                } else {
                    e.counter.dec();
                }
                e.lru = self.clock;
                return;
            }
        }

        // Allocate: invalid way first, else LRU way.
        let way = set
            .iter()
            .enumerate()
            .find(|(_, e)| !e.valid)
            .map(|(w, _)| w)
            .unwrap_or_else(|| {
                // infallible: predictor sets have assoc >= 1 entries.
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.lru)
                    .map(|(w, _)| w)
                    .unwrap()
            });
        set[way] = Entry {
            valid: true,
            tag,
            counter: SatCounter::new(
                self.config.counter_bits,
                if shared {
                    self.config
                        .init_on_shared
                        .min(((1u16 << self.config.counter_bits) - 1) as u8)
                } else {
                    0
                },
            ),
            lru: self.clock,
        };
    }

    /// Number of valid entries (test hook).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_lookup_is_uncovered_not_shared() {
        let t = HistoryTable::new(TableConfig::tiny());
        let l = t.lookup(0xdead);
        assert!(!l.shared);
        assert!(!l.covered);
    }

    #[test]
    fn training_shared_allocates_high_entry() {
        let mut t = HistoryTable::new(TableConfig::tiny());
        t.train(42, true);
        let l = t.lookup(42);
        assert!(l.covered);
        assert!(l.shared);
    }

    #[test]
    fn training_private_allocates_low_entry() {
        let mut t = HistoryTable::new(TableConfig::tiny());
        t.train(42, false);
        let l = t.lookup(42);
        assert!(l.covered);
        assert!(!l.shared);
    }

    #[test]
    fn repeated_private_outcomes_flip_prediction() {
        let mut t = HistoryTable::new(TableConfig::tiny());
        t.train(7, true);
        assert!(t.lookup(7).shared);
        for _ in 0..4 {
            t.train(7, false);
        }
        assert!(!t.lookup(7).shared);
        assert!(t.lookup(7).covered);
    }

    #[test]
    fn conflicting_keys_evict_lru() {
        let cfg = TableConfig {
            entries: 4,
            assoc: 2,
            counter_bits: 2,
            init_on_shared: 3,
            tag_bits: 8,
        };
        let mut t = HistoryTable::new(cfg);
        // sets = 2; keys with the same low bit collide.
        let k = |i: u64| i * 2; // all map to set 0
        t.train(k(1), true);
        t.train(k(2), true);
        t.train(k(3), true); // evicts k(1), the LRU entry
        assert!(!t.lookup(k(1)).covered);
        assert!(t.lookup(k(2)).covered);
        assert!(t.lookup(k(3)).covered);
        assert_eq!(t.occupancy(), 2);
    }

    #[test]
    fn lookup_does_not_mutate() {
        let mut t = HistoryTable::new(TableConfig::tiny());
        t.train(5, true);
        let before = t.occupancy();
        for _ in 0..10 {
            let _ = t.lookup(5);
            let _ = t.lookup(999);
        }
        assert_eq!(t.occupancy(), before);
    }

    #[test]
    fn budget_bits_counts_counters_and_tags() {
        let cfg = TableConfig::realistic();
        assert_eq!(cfg.budget_bits(), 4096 * 13);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_entries() {
        let cfg = TableConfig {
            entries: 17,
            ..TableConfig::tiny()
        };
        let _ = HistoryTable::new(cfg);
    }
}
