//! Persistent corpora: the versioned, checksummed `.zds` format.
//!
//! A `.zds` file holds a complete [`SyntheticDataset`] — profile plus
//! every video's annotations (videos hold no pixels, so the file stays
//! small even for paper-scale corpora). Layout:
//!
//! ```text
//! magic  "ZDSC"             4 bytes
//! version u32               currently 1
//! profile                   name, family, query classes, class mix,
//!                           generation statistics
//! videos  u32 count         id, num_frames, fps, seed, intervals
//! checksum u64              FNV-1a over everything before it
//! ```
//!
//! The checksum makes truncation and bit-rot a typed
//! [`DataError::Corrupt`], never a panic or a silently wrong corpus, and
//! the round-trip is lossless: `decode(encode(ds))` reproduces the
//! dataset byte-for-byte, including its
//! [`fingerprint`](crate::source::DataSource::fingerprint) — so a corpus
//! loaded from disk resolves the same trained plans and cache entries as
//! the session that saved it.

use std::fs;
use std::path::Path;

use crate::annotation::{ActionClass, ActionInterval};
use crate::datasets::{ConfigFamily, DatasetProfile, SyntheticDataset};
use crate::source::{class_tag, DataError, Fingerprint};
use crate::video::{Video, VideoId, VideoStore};

const MAGIC: &[u8; 4] = b"ZDSC";
const VERSION: u32 = 1;

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn class(&mut self, c: ActionClass) {
        self.0.push(class_id(c));
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DataError> {
        if self.pos + n > self.buf.len() {
            return Err(DataError::Corrupt("unexpected end of file".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, DataError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DataError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, DataError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, DataError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(DataError::Corrupt(format!(
                "implausible string length {len}"
            )));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| DataError::Corrupt("non-UTF-8 name".into()))
    }
    fn class(&mut self) -> Result<ActionClass, DataError> {
        class_from_id(self.take(1)?[0])
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

fn class_id(c: ActionClass) -> u8 {
    class_tag(c) as u8
}

fn class_from_id(id: u8) -> Result<ActionClass, DataError> {
    ActionClass::ALL
        .get(id as usize)
        .copied()
        .ok_or_else(|| DataError::Corrupt(format!("unknown class id {id}")))
}

/// Encode a dataset to `.zds` bytes (checksum included).
pub fn encode_dataset(ds: &SyntheticDataset) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(4096));
    w.0.extend_from_slice(MAGIC);
    w.u32(VERSION);

    let p = &ds.profile;
    w.str(&p.name);
    w.0.push(p.family.tag());
    w.u32(p.query_classes.len() as u32);
    for &c in &p.query_classes {
        w.class(c);
    }
    w.u32(p.num_videos as u32);
    w.u32(p.frames_per_video as u32);
    w.f64(p.fps);
    w.u32(p.class_mix.len() as u32);
    for &(c, fraction) in &p.class_mix {
        w.class(c);
        w.f64(fraction);
    }
    w.f64(p.mean_len);
    w.f64(p.std_len);
    w.u32(p.min_len as u32);
    w.u32(p.max_len as u32);

    w.u32(ds.store.len() as u32);
    for v in ds.store.videos() {
        w.u32(v.id.0);
        w.u32(v.num_frames as u32);
        w.f64(v.fps);
        w.u64(v.seed);
        w.u32(v.intervals.len() as u32);
        for iv in &v.intervals {
            w.u32(iv.start as u32);
            w.u32(iv.end as u32);
            w.class(iv.class);
        }
    }

    let mut checksum = Fingerprint::new();
    checksum.bytes(&w.0);
    w.u64(checksum.finish());
    w.0
}

/// Decode `.zds` bytes, verifying magic, version, and checksum.
pub fn decode_dataset(bytes: &[u8]) -> Result<SyntheticDataset, DataError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(DataError::Corrupt("file too short".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut checksum = Fingerprint::new();
    checksum.bytes(body);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if checksum.finish() != stored {
        return Err(DataError::Corrupt("checksum mismatch".into()));
    }

    let mut r = Reader { buf: body, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(DataError::Corrupt("bad magic (not a .zds file)".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(DataError::Corrupt(format!(
            "unsupported .zds version {version}"
        )));
    }

    let name = r.str()?;
    let family = ConfigFamily::from_tag(r.take(1)?[0])
        .ok_or_else(|| DataError::Corrupt("unknown config family".into()))?;
    let n_query = r.u32()? as usize;
    if n_query == 0 || n_query > ActionClass::ALL.len() {
        return Err(DataError::Corrupt("invalid query-class count".into()));
    }
    let mut query_classes = Vec::with_capacity(n_query);
    for _ in 0..n_query {
        query_classes.push(r.class()?);
    }
    let num_videos = r.u32()? as usize;
    let frames_per_video = r.u32()? as usize;
    let fps = r.f64()?;
    let n_mix = r.u32()? as usize;
    if n_mix == 0 || n_mix > ActionClass::ALL.len() {
        return Err(DataError::Corrupt("invalid class-mix count".into()));
    }
    let mut class_mix = Vec::with_capacity(n_mix);
    for _ in 0..n_mix {
        let c = r.class()?;
        let fraction = r.f64()?;
        class_mix.push((c, fraction));
    }
    let mean_len = r.f64()?;
    let std_len = r.f64()?;
    let min_len = r.u32()? as usize;
    let max_len = r.u32()? as usize;
    let profile = DatasetProfile {
        name,
        family,
        query_classes,
        num_videos,
        frames_per_video,
        fps,
        class_mix,
        mean_len,
        std_len,
        min_len,
        max_len,
    };
    profile.validate()?;

    // Every count is bounded by the bytes actually present before the
    // matching `Vec::with_capacity` — a corrupt (or crafted) count is a
    // typed error, never a huge allocation.
    const VIDEO_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 4;
    const INTERVAL_BYTES: usize = 4 + 4 + 1;
    let n_videos = r.u32()? as usize;
    if n_videos == 0 || n_videos > r.remaining() / VIDEO_HEADER_BYTES {
        return Err(DataError::Corrupt(format!(
            "implausible video count {n_videos}"
        )));
    }
    let mut videos = Vec::with_capacity(n_videos);
    for _ in 0..n_videos {
        let id = VideoId(r.u32()?);
        let num_frames = r.u32()? as usize;
        let fps = r.f64()?;
        let seed = r.u64()?;
        let n_ivs = r.u32()? as usize;
        if n_ivs > num_frames || n_ivs > r.remaining() / INTERVAL_BYTES {
            return Err(DataError::Corrupt(format!(
                "implausible interval count {n_ivs}"
            )));
        }
        let mut intervals = Vec::with_capacity(n_ivs);
        for _ in 0..n_ivs {
            let start = r.u32()? as usize;
            let end = r.u32()? as usize;
            let class = r.class()?;
            if start >= end || end > num_frames {
                return Err(DataError::Corrupt(format!(
                    "invalid interval [{start}, {end}) in a {num_frames}-frame video"
                )));
            }
            intervals.push(ActionInterval::new(start, end, class));
        }
        videos.push(Video {
            id,
            num_frames,
            fps,
            seed,
            intervals,
        });
    }
    if r.pos != body.len() {
        return Err(DataError::Corrupt("trailing bytes after videos".into()));
    }
    Ok(SyntheticDataset {
        profile,
        store: VideoStore::new(videos),
    })
}

impl SyntheticDataset {
    /// Persist the corpus to a `.zds` file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DataError> {
        fs::write(path, encode_dataset(self))?;
        Ok(())
    }

    /// Load a corpus from a `.zds` file (magic, version, and checksum
    /// verified; corruption is a typed error).
    pub fn load(path: impl AsRef<Path>) -> Result<SyntheticDataset, DataError> {
        decode_dataset(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetKind;
    use crate::source::DataSource;

    #[test]
    fn roundtrip_preserves_everything() {
        let ds = DatasetKind::Bdd100k.generate(0.05, 11);
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).unwrap();
        assert_eq!(back.profile.name, ds.profile.name);
        assert_eq!(back.profile.family, ds.profile.family);
        assert_eq!(back.profile.class_mix, ds.profile.class_mix);
        assert_eq!(back.store.len(), ds.store.len());
        for (a, b) in ds.store.videos().iter().zip(back.store.videos()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.intervals, b.intervals);
        }
        assert_eq!(
            ds.fingerprint(),
            back.fingerprint(),
            "a loaded corpus must keep its plan/cache identity"
        );
        // Losslessness is transitive: re-encoding is byte-identical.
        assert_eq!(bytes, encode_dataset(&back));
    }

    #[test]
    fn save_load_via_files() {
        let dir = std::env::temp_dir().join(format!("zeus-zds-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kitti.zds");
        let ds = DatasetKind::Kitti.generate(0.1, 4);
        ds.save(&path).unwrap();
        let back = SyntheticDataset::load(&path).unwrap();
        assert_eq!(ds.fingerprint(), back.fingerprint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let ds = DatasetKind::Bdd100k.generate(0.03, 2);
        let bytes = encode_dataset(&ds);
        // Truncation.
        assert!(matches!(
            decode_dataset(&bytes[..bytes.len() - 3]),
            Err(DataError::Corrupt(_))
        ));
        // Bit flip in the body breaks the checksum.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0xFF;
        assert!(matches!(
            decode_dataset(&flipped),
            Err(DataError::Corrupt(_))
        ));
        // Wrong magic (checksum recomputed so only the magic fails).
        let mut not_zds = bytes.clone();
        not_zds[0] = b'X';
        let body_len = not_zds.len() - 8;
        let mut checksum = Fingerprint::new();
        checksum.bytes(&not_zds[..body_len]);
        let sum = checksum.finish().to_le_bytes();
        not_zds[body_len..].copy_from_slice(&sum);
        assert!(matches!(
            decode_dataset(&not_zds),
            Err(DataError::Corrupt(_))
        ));
        // Missing file.
        assert!(matches!(
            SyntheticDataset::load("/nonexistent/dir/x.zds"),
            Err(DataError::Io(_))
        ));
    }

    #[test]
    fn crafted_counts_are_rejected_without_allocating() {
        // A crafted file with a recomputed (valid) checksum but an
        // absurd interval count must be a typed error, not a multi-GB
        // `Vec::with_capacity` abort.
        let ds = DatasetKind::Bdd100k.generate(0.03, 6);
        let mut bytes = encode_dataset(&ds);
        let videos_section: usize = ds
            .store
            .videos()
            .iter()
            .map(|v| 28 + 9 * v.intervals.len())
            .sum();
        let first_video = bytes.len() - 8 - videos_section;
        // num_frames := u32::MAX (so the intervals-vs-frames guard alone
        // cannot save us), n_ivs := u32::MAX - 1.
        bytes[first_video + 4..first_video + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[first_video + 24..first_video + 28].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        let body_len = bytes.len() - 8;
        let mut checksum = Fingerprint::new();
        checksum.bytes(&bytes[..body_len]);
        let sum = checksum.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        assert!(matches!(decode_dataset(&bytes), Err(DataError::Corrupt(_))));
        // Same for the video count itself.
        let mut bytes = encode_dataset(&ds);
        let count_pos = bytes.len() - 8 - videos_section - 4;
        bytes[count_pos..count_pos + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        let mut checksum = Fingerprint::new();
        checksum.bytes(&bytes[..body_len]);
        let sum = checksum.finish().to_le_bytes();
        bytes[body_len..].copy_from_slice(&sum);
        assert!(matches!(decode_dataset(&bytes), Err(DataError::Corrupt(_))));
    }
}
