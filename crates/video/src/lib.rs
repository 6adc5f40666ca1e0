//! # zeus-video
//!
//! Synthetic video substrate for the Zeus reproduction.
//!
//! The paper evaluates on three real corpora — a 200-video subset of
//! BDD100K (manually annotated with CrossRight / LeftTurn), Thumos14
//! (PoleVault / CleanAndJerk), and ActivityNet (IroningClothes /
//! TennisServe) — plus Cityscapes and KITTI for the domain-adaptation study
//! (§6.6). Those corpora (and the manual BDD annotations) are not
//! redistributable, and decoding real video is orthogonal to the system
//! under study, so this crate provides a *procedural* substitute:
//!
//! * [`scene`] — the deterministic hash mixers behind every per-video and
//!   per-segment draw.
//! * [`annotation`] — per-frame oracle labels `L(n)` (the paper's Eq. 1)
//!   derived from action intervals, plus IoU helpers.
//! * [`datasets`] — generators parameterized to match the paper's Table 3
//!   statistics (action percentage, mean/std/min/max action length) for
//!   each corpus, at a configurable scale factor.
//! * [`stats`] — recomputes Table 3 from a generated corpus.
//! * [`segment`] — the frames a `(resolution, segment length, sampling
//!   rate)` configuration samples.
//! * [`source`] — the pluggable data plane: the [`DataSource`] trait,
//!   content fingerprints and dataset-name normalization.
//! * [`zds`] — persistent corpora: the versioned, checksummed `.zds`
//!   on-disk format.
//!
//! Determinism: a corpus is fully determined by `(DatasetKind, scale,
//! seed)`.

#![warn(missing_docs)]
pub mod annotation;
pub mod datasets;
pub mod scene;
pub mod segment;
pub mod source;
pub mod stats;
pub mod video;
pub mod zds;

pub use annotation::{ActionClass, ActionInterval};
pub use datasets::{ConfigFamily, DatasetKind, DatasetProfile, SyntheticDataset};
pub use source::{DataError, DataSource, SharedSource};
pub use video::{Video, VideoId, VideoStore};
pub use zds::{decode_dataset, encode_dataset};
