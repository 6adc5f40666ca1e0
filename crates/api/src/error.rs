//! The workspace-wide typed error: every failure a [`crate::ZeusSession`]
//! can surface, with `From` impls so `?` composes across layers.

use zeus_core::catalog::CatalogError;
use zeus_core::planner::PlanError;
use zeus_core::query::ParseError;
use zeus_fleet::FleetError;
use zeus_serve::{AdmitError, ServeError};
use zeus_video::DataError;

/// Anything that can go wrong between a ZQL string and an answer set.
///
/// Each variant wraps the typed error of the layer that produced it; no
/// layer panics on user input.
#[derive(Debug)]
pub enum ZeusError {
    /// The ZQL text did not parse or validate.
    Parse(ParseError),
    /// The planner could not plan the query.
    Plan(PlanError),
    /// The serving layer refused the submission (shed / no plan /
    /// shutting down).
    Admit(AdmitError),
    /// The serving engine could not be started.
    Serve(ServeError),
    /// The serving fleet refused: bad topology, unknown dataset route,
    /// tenant over quota, or every candidate shard saturated.
    Fleet(FleetError),
    /// The plan catalog was unreadable or corrupt.
    Catalog(CatalogError),
    /// The data plane refused: invalid profile, corrupt `.zds` file,
    /// empty split, bad or duplicate dataset name.
    Data(DataError),
    /// A ZQL `FROM <name>` (or an explicit dataset argument) names no
    /// registered dataset in this session.
    UnknownDataset {
        /// The name the query asked for.
        name: String,
        /// The names this session can serve.
        available: Vec<String>,
    },
    /// Underlying I/O failure (catalog directory, bench output, ...).
    Io(std::io::Error),
}

impl std::fmt::Display for ZeusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZeusError::Parse(e) => write!(f, "query parse error: {e}"),
            ZeusError::Plan(e) => write!(f, "planning error: {e}"),
            ZeusError::Admit(e) => write!(f, "admission error: {e}"),
            ZeusError::Serve(e) => write!(f, "serving error: {e}"),
            ZeusError::Fleet(e) => write!(f, "fleet error: {e}"),
            ZeusError::Catalog(e) => write!(f, "catalog error: {e}"),
            ZeusError::Data(e) => write!(f, "data error: {e}"),
            ZeusError::UnknownDataset { name, available } => write!(
                f,
                "unknown dataset '{name}' (registered: {})",
                available.join(", ")
            ),
            ZeusError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ZeusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZeusError::Parse(e) => Some(e),
            ZeusError::Plan(e) => Some(e),
            ZeusError::Admit(e) => Some(e),
            ZeusError::Serve(e) => Some(e),
            ZeusError::Fleet(e) => Some(e),
            ZeusError::Catalog(e) => Some(e),
            ZeusError::Data(e) => Some(e),
            ZeusError::Io(e) => Some(e),
            ZeusError::UnknownDataset { .. } => None,
        }
    }
}

impl From<ParseError> for ZeusError {
    fn from(e: ParseError) -> Self {
        ZeusError::Parse(e)
    }
}

impl From<PlanError> for ZeusError {
    fn from(e: PlanError) -> Self {
        ZeusError::Plan(e)
    }
}

impl From<AdmitError> for ZeusError {
    fn from(e: AdmitError) -> Self {
        ZeusError::Admit(e)
    }
}

impl From<ServeError> for ZeusError {
    fn from(e: ServeError) -> Self {
        ZeusError::Serve(e)
    }
}

impl From<FleetError> for ZeusError {
    fn from(e: FleetError) -> Self {
        ZeusError::Fleet(e)
    }
}

impl From<CatalogError> for ZeusError {
    fn from(e: CatalogError) -> Self {
        ZeusError::Catalog(e)
    }
}

impl From<std::io::Error> for ZeusError {
    fn from(e: std::io::Error) -> Self {
        ZeusError::Io(e)
    }
}

impl From<DataError> for ZeusError {
    fn from(e: DataError) -> Self {
        ZeusError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_core::ExecutorKind;

    /// Every variant's `Display` must mention both the layer and the
    /// wrapped detail.
    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(ZeusError, &str, &str)> = vec![
            (
                ZeusError::Parse(ParseError::MissingClass),
                "query parse error",
                "action_class",
            ),
            (
                ZeusError::Parse(ParseError::BadAccuracy("1.5".into())),
                "query parse error",
                "1.5",
            ),
            (
                ZeusError::Plan(PlanError::EmptySplit("validation")),
                "planning error",
                "validation",
            ),
            (
                ZeusError::Plan(PlanError::Env(zeus_core::env::EnvError::NoVideos)),
                "planning error",
                "training videos",
            ),
            (
                ZeusError::Admit(AdmitError::QueueFull { capacity: 8 }),
                "admission error",
                "capacity 8",
            ),
            (
                ZeusError::Admit(AdmitError::NoPlan {
                    key: "k.zpln".into(),
                }),
                "admission error",
                "k.zpln",
            ),
            (
                ZeusError::Serve(ServeError::NotServable(ExecutorKind::FramePp)),
                "serving error",
                "Frame-PP",
            ),
            (
                ZeusError::Fleet(FleetError::QuotaExceeded {
                    tenant: zeus_fleet::TenantId::new("acme"),
                    overage: 2.5,
                }),
                "fleet error",
                "acme",
            ),
            (
                ZeusError::Catalog(CatalogError::Corrupt("bad magic".into())),
                "catalog error",
                "bad magic",
            ),
            (
                ZeusError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
                "I/O error",
                "gone",
            ),
            (
                ZeusError::Data(DataError::InvalidProfile("class mix empty".into())),
                "data error",
                "class mix",
            ),
            (
                ZeusError::Data(DataError::Corrupt("checksum mismatch".into())),
                "data error",
                "checksum",
            ),
            (
                ZeusError::UnknownDataset {
                    name: "imagenet".into(),
                    available: vec!["bdd100k".into(), "kitti".into()],
                },
                "unknown dataset",
                "bdd100k, kitti",
            ),
        ];
        for (err, layer, detail) in cases {
            let s = err.to_string();
            assert!(s.contains(layer), "{s:?} missing layer tag {layer:?}");
            assert!(s.contains(detail), "{s:?} missing detail {detail:?}");
        }
    }

    #[test]
    fn from_impls_wrap_the_right_variant() {
        assert!(matches!(
            ZeusError::from(ParseError::MissingAccuracy),
            ZeusError::Parse(_)
        ));
        assert!(matches!(
            ZeusError::from(PlanError::EmptySpace),
            ZeusError::Plan(_)
        ));
        assert!(matches!(
            ZeusError::from(AdmitError::ShuttingDown),
            ZeusError::Admit(_)
        ));
        assert!(matches!(
            ZeusError::from(ServeError::EmptyCorpus),
            ZeusError::Serve(_)
        ));
        assert!(matches!(
            ZeusError::from(FleetError::NoShards),
            ZeusError::Fleet(_)
        ));
        assert!(matches!(
            ZeusError::from(CatalogError::Corrupt("x".into())),
            ZeusError::Catalog(_)
        ));
        assert!(matches!(
            ZeusError::from(std::io::Error::other("x")),
            ZeusError::Io(_)
        ));
        assert!(matches!(
            ZeusError::from(DataError::EmptySplit("test")),
            ZeusError::Data(_)
        ));
    }

    #[test]
    fn sources_chain_to_the_wrapped_error() {
        use std::error::Error;
        let e = ZeusError::from(ParseError::MissingClass);
        assert!(e.source().is_some());
        let unknown = ZeusError::UnknownDataset {
            name: "x".into(),
            available: Vec::new(),
        };
        assert!(unknown.source().is_none());
    }
}
