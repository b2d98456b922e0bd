//! Workload descriptions.

use crate::keys::KeyGen;

/// How keys are chosen for each operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Keys in increasing index order.
    Sequential,
    /// Uniformly random key indices.
    Uniform,
    /// Zipf-skewed key indices (scrambled, YCSB-style). The paper's
    /// skewed pattern; theta 0.99 is the customary default.
    Zipfian {
        /// Skew parameter in (0, 1).
        theta: f64,
    },
    /// The paper's footnote-2 pseudo-random pattern (Fig. 6c): a small
    /// window slides across the whole key population; each op picks a
    /// uniformly random key *within* the window.
    SlidingWindow {
        /// Window width in keys.
        window: u64,
    },
}

/// What each operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpMix {
    /// Insert new keys (indices advance past the existing population).
    InsertOnly,
    /// Overwrite existing keys.
    UpdateOnly,
    /// Read existing keys.
    ReadOnly,
    /// Reads and updates of existing keys.
    Mixed {
        /// Percent of operations that are reads (0..=100).
        read_pct: u8,
    },
    /// YCSB-D semantics: inserts grow the population from
    /// `insert_base + key_space`; reads sample recency-skewed (Zipfian
    /// over the most recent keys).
    ReadLatest {
        /// Percent of operations that are reads (0..=100).
        read_pct: u8,
    },
}

/// Value sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSize {
    /// Every value has this many bytes.
    Fixed(u32),
    /// Uniformly random in `[lo, hi]`.
    Uniform {
        /// Smallest value size.
        lo: u32,
        /// Largest value size.
        hi: u32,
    },
    /// A discrete weighted mixture of sizes (up to six buckets; zero
    /// weights disable a bucket). Used for real-trace-shaped value
    /// distributions like Facebook's RocksDB deployments (Cao et al.,
    /// FAST '20 — the paper's reference `[14]`, with KVP averages of
    /// 57-154 B).
    Discrete {
        /// (size bytes, relative weight) buckets.
        choices: [(u32, u32); 6],
    },
}

impl ValueSize {
    /// Facebook ZippyDB-flavored mixture from the paper's reference
    /// `[14]`: tiny values dominate, with a thin tail of larger ones
    /// (mean ~115 B).
    pub fn facebook_like() -> Self {
        ValueSize::Discrete {
            choices: [
                (30, 28),
                (60, 32),
                (100, 20),
                (200, 13),
                (500, 6),
                (2048, 1),
            ],
        }
    }

    /// Mean value size (for bandwidth math).
    pub fn mean(&self) -> u64 {
        match *self {
            ValueSize::Fixed(n) => n as u64,
            ValueSize::Uniform { lo, hi } => (lo as u64 + hi as u64) / 2,
            ValueSize::Discrete { choices } => {
                let wsum: u64 = choices.iter().map(|&(_, w)| w as u64).sum();
                if wsum == 0 {
                    return 0;
                }
                choices
                    .iter()
                    .map(|&(s, w)| s as u64 * w as u64)
                    .sum::<u64>()
                    / wsum
            }
        }
    }
}

/// One benchmark phase: `ops` operations against a population of
/// `key_space` keys.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Label for reports.
    pub name: String,
    /// Key-choice pattern.
    pub pattern: AccessPattern,
    /// Operation mix.
    pub mix: OpMix,
    /// Operations to run.
    pub ops: u64,
    /// Number of distinct keys in the population (updates/reads index
    /// into it; inserts grow it from `insert_base`).
    pub key_space: u64,
    /// First key index inserts use (so phases can append populations).
    pub insert_base: u64,
    /// Key length in bytes (the paper's default is 16 B).
    pub key_bytes: usize,
    /// Value sizing (the paper's default is 4 KiB).
    pub value: ValueSize,
    /// Outstanding-request budget.
    pub queue_depth: usize,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A builder-style default: uniform updates, 16 B keys, 4 KiB values,
    /// QD 1 — override fields as needed.
    pub fn new(name: impl Into<String>, ops: u64, key_space: u64) -> Self {
        WorkloadSpec {
            name: name.into(),
            pattern: AccessPattern::Uniform,
            mix: OpMix::UpdateOnly,
            ops,
            key_space,
            insert_base: 0,
            key_bytes: 16,
            value: ValueSize::Fixed(4096),
            queue_depth: 1,
            seed: 42,
        }
    }

    /// Sets the access pattern.
    pub fn pattern(mut self, p: AccessPattern) -> Self {
        self.pattern = p;
        self
    }

    /// Sets the op mix.
    pub fn mix(mut self, m: OpMix) -> Self {
        self.mix = m;
        self
    }

    /// Sets the value size.
    pub fn value(mut self, v: ValueSize) -> Self {
        self.value = v;
        self
    }

    /// Sets the key length.
    pub fn key_bytes(mut self, n: usize) -> Self {
        self.key_bytes = n;
        self
    }

    /// Sets the queue depth.
    pub fn queue_depth(mut self, qd: usize) -> Self {
        self.queue_depth = qd;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the first index inserts allocate.
    pub fn insert_base(mut self, base: u64) -> Self {
        self.insert_base = base;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on contradictory settings.
    pub fn validate(&self) {
        assert!(self.ops > 0, "a workload needs operations");
        assert!(self.queue_depth >= 1);
        if !matches!(self.mix, OpMix::InsertOnly) {
            assert!(self.key_space > 0, "updates/reads need a population");
        }
        let largest = self.largest_key_index();
        let capacity = KeyGen::new(self.key_bytes).max_index();
        assert!(
            largest <= capacity,
            "{} B keys index at most {capacity}, the phase reaches {largest}",
            self.key_bytes
        );
        if let AccessPattern::Zipfian { theta } = self.pattern {
            assert!(theta > 0.0 && theta < 1.0);
        }
        if let AccessPattern::SlidingWindow { window } = self.pattern {
            assert!(window >= 1 && window <= self.key_space.max(1));
        }
        if let OpMix::Mixed { read_pct } | OpMix::ReadLatest { read_pct } = self.mix {
            assert!(read_pct <= 100);
        }
    }

    /// The largest key index the phase may touch: inserts count up from
    /// `insert_base` (a `ReadLatest` phase from past its population),
    /// everything else stays below `key_space`.
    fn largest_key_index(&self) -> u64 {
        let end = match self.mix {
            OpMix::InsertOnly => self.insert_base.saturating_add(self.ops),
            OpMix::ReadLatest { .. } => self
                .insert_base
                .saturating_add(self.key_space)
                .saturating_add(self.ops),
            _ => self.key_space,
        };
        end - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let s = WorkloadSpec::new("w", 10, 10);
        assert_eq!(s.key_bytes, 16);
        assert_eq!(s.value, ValueSize::Fixed(4096));
        s.validate();
    }

    #[test]
    fn value_mean() {
        assert_eq!(ValueSize::Fixed(100).mean(), 100);
        assert_eq!(ValueSize::Uniform { lo: 100, hi: 300 }.mean(), 200);
        let fb = ValueSize::facebook_like();
        let m = fb.mean();
        assert!(
            (57..=154).contains(&m),
            "facebook mixture mean {m} should match the paper's 57-154 B band"
        );
    }

    #[test]
    fn key_bodies_must_index_the_whole_phase() {
        // A 5 B key's one base-36 character indexes 0..=35.
        WorkloadSpec::new("w", 10, 36).key_bytes(5).validate();
        let grow = WorkloadSpec::new("w", 6, 30).key_bytes(5);
        grow.clone()
            .mix(OpMix::ReadLatest { read_pct: 50 })
            .validate();
        let inserts = grow.mix(OpMix::InsertOnly).insert_base(30);
        inserts.clone().validate();
        for spec in [
            WorkloadSpec::new("w", 10, 37).key_bytes(5),
            WorkloadSpec::new("w", 7, 30)
                .key_bytes(5)
                .mix(OpMix::ReadLatest { read_pct: 50 }),
            inserts.insert_base(31),
        ] {
            let rejected = std::panic::catch_unwind(|| spec.validate());
            assert!(rejected.is_err(), "{spec:?} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "population")]
    fn update_without_population_rejected() {
        WorkloadSpec::new("w", 10, 0).validate();
    }

    #[test]
    #[should_panic]
    fn bad_window_rejected() {
        WorkloadSpec::new("w", 10, 10)
            .pattern(AccessPattern::SlidingWindow { window: 100 })
            .validate();
    }
}
