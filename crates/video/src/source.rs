//! The pluggable data plane: the [`DataSource`] trait and content
//! fingerprints.
//!
//! The paper evaluates Zeus over five corpora with very different action
//! statistics (Table 3, §6.1/§6.6); related spotting systems (Action
//! Search, ActionSpotter) likewise run one policy over heterogeneous
//! corpora behind a uniform frame-access interface. This module provides
//! that interface for the reproduction: anything that can hand out a
//! [`VideoStore`] plus a [`DatasetProfile`] — a generated paper corpus, a
//! custom profile-defined corpus, a `.zds` file loaded from disk — is a
//! query target.
//!
//! Identity is structural: [`DataSource::fingerprint`] hashes the profile
//! and every video's annotations, so two sources with the same content
//! fingerprint identically (generation is deterministic, so a corpus
//! regenerated from the same profile and seed — or round-tripped through
//! `.zds` — keeps its identity), while corpora that differ anywhere get
//! disjoint plan and result-cache keyspaces.

use std::sync::Arc;

use crate::annotation::ActionClass;
use crate::datasets::{ConfigFamily, DatasetProfile, SyntheticDataset};
use crate::video::VideoStore;

/// Errors raised by the data plane: profile and name validation, empty
/// splits, corpus persistence.
#[derive(Debug)]
pub enum DataError {
    /// A dataset profile fails validation (empty class mix, degenerate
    /// lengths, bad fractions, ...).
    InvalidProfile(String),
    /// A dataset name is empty or contains characters outside
    /// `[a-z0-9_-]` (after lowercasing).
    InvalidName(String),
    /// A required train/validation/test split holds no videos.
    EmptySplit(&'static str),
    /// A `.zds` file is not a dataset file or failed its checksum.
    Corrupt(String),
    /// Underlying I/O failure reading or writing a `.zds` file.
    Io(std::io::Error),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::InvalidProfile(s) => write!(f, "invalid dataset profile: {s}"),
            DataError::InvalidName(s) => write!(f, "invalid dataset name '{s}'"),
            DataError::EmptySplit(s) => {
                write!(f, "dataset {s} split is empty; use a larger corpus")
            }
            DataError::Corrupt(s) => write!(f, "corrupt dataset file: {s}"),
            DataError::Io(e) => write!(f, "dataset I/O error: {e}"),
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DataError {
    fn from(e: std::io::Error) -> Self {
        DataError::Io(e)
    }
}

/// A queryable video corpus: videos with splits, query classes, profile
/// statistics, and a stable content fingerprint.
///
/// Everything above the video layer (planner, session, serving) consumes
/// corpora through this trait, so the five paper corpora, `.zds` files
/// loaded from disk and custom profile-defined corpora are
/// interchangeable query targets.
pub trait DataSource: Send + Sync {
    /// Registry-style identity name (lowercase, `[a-z0-9_-]`).
    fn name(&self) -> &str;

    /// The profile describing (and for synthetic corpora, generating)
    /// this source: statistics, class mix, query classes, knob family.
    fn profile(&self) -> &DatasetProfile;

    /// The annotated video corpus with deterministic splits.
    fn store(&self) -> &VideoStore;

    /// Which knob family (Table 4) the corpus plans against.
    fn family(&self) -> ConfigFamily {
        self.profile().family
    }

    /// The classes queries target on this corpus (Table 3 counts these).
    fn query_classes(&self) -> &[ActionClass] {
        &self.profile().query_classes
    }

    /// Stable content fingerprint: hashes the profile and every video's
    /// annotations. Two sources fingerprint identically iff they hold the
    /// same corpus, so the fingerprint keys trained plans and result
    /// caches — two corpora in one session can never share or clobber
    /// each other's plans.
    fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        hash_profile(&mut h, self.profile());
        hash_store(&mut h, self.store());
        h.finish()
    }
}

impl DataSource for SyntheticDataset {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn profile(&self) -> &DatasetProfile {
        &self.profile
    }

    fn store(&self) -> &VideoStore {
        &self.store
    }
}

/// FNV-1a 64-bit running hash — the stable, dependency-free fingerprint
/// accumulator used across the data plane (and the `.zds` checksum).
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    /// A fresh accumulator.
    pub fn new() -> Self {
        Fingerprint(Self::OFFSET)
    }

    /// Absorb raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorb an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorb a length-tagged string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The accumulated 64-bit hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The ordinal identity of a class — shared by the fingerprint and the
/// `.zds` codec so persisted files and content hashes can never
/// desynchronize on class encoding.
pub(crate) fn class_tag(c: ActionClass) -> u64 {
    ActionClass::ALL.iter().position(|&x| x == c).unwrap_or(0) as u64
}

/// Absorb a profile's identity-bearing fields.
pub(crate) fn hash_profile(h: &mut Fingerprint, profile: &DatasetProfile) {
    h.str(&profile.name);
    h.u64(profile.family.tag() as u64);
    h.u64(profile.num_videos as u64);
    h.u64(profile.frames_per_video as u64);
    h.f64(profile.fps);
    h.u64(profile.class_mix.len() as u64);
    for &(class, fraction) in &profile.class_mix {
        h.u64(class_tag(class));
        h.f64(fraction);
    }
    h.u64(profile.query_classes.len() as u64);
    for &class in &profile.query_classes {
        h.u64(class_tag(class));
    }
    h.f64(profile.mean_len);
    h.f64(profile.std_len);
    h.u64(profile.min_len as u64);
    h.u64(profile.max_len as u64);
}

/// Absorb every video's annotations (content identity, not just the
/// generation recipe — generator drift changes the fingerprint).
pub(crate) fn hash_store(h: &mut Fingerprint, store: &VideoStore) {
    h.u64(store.len() as u64);
    for v in store.videos() {
        h.u64(v.id.0 as u64);
        h.u64(v.num_frames as u64);
        h.f64(v.fps);
        h.u64(v.seed);
        h.u64(v.intervals.len() as u64);
        for iv in &v.intervals {
            h.u64(iv.start as u64);
            h.u64(iv.end as u64);
            h.u64(class_tag(iv.class));
        }
    }
}

/// Normalize a dataset name to its registry form: lowercase, and only
/// `[a-z0-9_-]` characters. Anything else is [`DataError::InvalidName`].
pub fn normalize_name(name: &str) -> Result<String, DataError> {
    let normalized = name.to_ascii_lowercase();
    if normalized.is_empty()
        || !normalized
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
    {
        return Err(DataError::InvalidName(name.to_string()));
    }
    Ok(normalized)
}

/// Convenience alias: a shareable, type-erased data source.
pub type SharedSource = Arc<dyn DataSource>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = DatasetKind::Bdd100k.generate(0.05, 7);
        let b = DatasetKind::Bdd100k.generate(0.05, 7);
        let c = DatasetKind::Bdd100k.generate(0.05, 8);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same recipe, same id");
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed changes identity");
        let d = DatasetKind::Kitti.generate(0.05, 7);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn names_are_normalized_and_validated() {
        assert_eq!(normalize_name("BDD100K").unwrap(), "bdd100k");
        assert_eq!(normalize_name("my_corpus-2").unwrap(), "my_corpus-2");
        assert!(matches!(normalize_name(""), Err(DataError::InvalidName(_))));
        assert!(matches!(
            normalize_name("has space"),
            Err(DataError::InvalidName(_))
        ));
    }
}
