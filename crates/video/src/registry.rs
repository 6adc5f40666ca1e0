//! The named dataset registry: `FROM <dataset>` resolution.
//!
//! A [`DatasetRegistry`] maps normalized names to shared
//! [`DataSource`](crate::source::DataSource)s. The five paper corpora are *registrations* like any
//! other ([`DatasetRegistry::with_builtins`]), not special cases: custom
//! profile-defined corpora, `.zds` files, and composite/filtered views
//! register through the same [`DatasetRegistry::register`] path and are
//! equally addressable from ZQL.

use std::sync::Arc;

use crate::datasets::DatasetKind;
use crate::source::{normalize_name, DataError, SharedSource};

/// An insertion-ordered map of named data sources.
///
/// Names are normalized (lowercased, `[a-z0-9_-]` enforced) at
/// registration, so lookups are case-insensitive and every name is a
/// valid ZQL `FROM` operand.
#[derive(Default, Clone)]
pub struct DatasetRegistry {
    entries: Vec<(String, SharedSource)>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the five paper corpora generated at
    /// `scale` / `seed`, each under its [`DatasetKind::registry_name`].
    pub fn with_builtins(scale: f64, seed: u64) -> Self {
        let mut registry = Self::new();
        for kind in DatasetKind::ALL {
            let ds = kind.generate(scale, seed);
            registry
                .register(kind.registry_name(), Arc::new(ds))
                .expect("built-in names are valid and distinct");
        }
        registry
    }

    /// Register a source under `name` (normalized). Rejects invalid
    /// names and duplicates with a typed error.
    pub fn register(
        &mut self,
        name: impl AsRef<str>,
        source: SharedSource,
    ) -> Result<(), DataError> {
        let name = normalize_name(name.as_ref())?;
        if self.entries.iter().any(|(n, _)| n == &name) {
            return Err(DataError::DuplicateDataset(name));
        }
        self.entries.push((name, source));
        Ok(())
    }

    /// Resolve a name (case-insensitive) to its source.
    pub fn get(&self, name: &str) -> Option<SharedSource> {
        let name = normalize_name(name).ok()?;
        self.entries
            .iter()
            .find(|(n, _)| n == &name)
            .map(|(_, s)| Arc::clone(s))
    }

    /// Registered names in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Iterate `(name, source)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SharedSource)> {
        self.entries.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::fmt::Debug for DatasetRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_plain_registrations() {
        let registry = DatasetRegistry::with_builtins(0.05, 7);
        assert_eq!(
            registry.names(),
            vec!["bdd100k", "thumos14", "activitynet", "cityscapes", "kitti"]
        );
        let bdd = registry.get("bdd100k").expect("registered");
        assert_eq!(bdd.name(), "bdd100k");
        // Case-insensitive lookup.
        assert!(registry.get("BDD100K").is_some());
        assert!(registry.get("imagenet").is_none());
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let mut registry = DatasetRegistry::new();
        let ds = Arc::new(DatasetKind::Kitti.generate(0.05, 1));
        registry
            .register("mine", Arc::clone(&ds) as SharedSource)
            .unwrap();
        assert!(matches!(
            registry.register("MINE", ds.clone() as SharedSource),
            Err(DataError::DuplicateDataset(_))
        ));
        assert!(matches!(
            registry.register("bad name", ds as SharedSource),
            Err(DataError::InvalidName(_))
        ));
        assert_eq!(registry.len(), 1);
    }
}
