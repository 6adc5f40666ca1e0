//! Flat weight checkpointing.
//!
//! Zeus freezes the APFG after fine-tuning and reuses it for RL training
//! (§5); the trained DQN is similarly kept for inference. This module
//! provides a tiny versioned binary format for persisting flat parameter
//! snapshots — enough for checkpoints without pulling a serialization
//! framework into the hot path.

/// Magic bytes identifying a Zeus checkpoint.
const MAGIC: &[u8; 4] = b"ZEUS";
/// Format version.
const VERSION: u32 = 1;

/// Encode a list of flat parameter buffers into a byte vector.
///
/// Layout: `MAGIC | version:u32 | count:u32 | (len:u32 | f32...)*`, all
/// little-endian.
pub fn encode(params: &[Vec<f32>]) -> Vec<u8> {
    let payload: usize = params.iter().map(|p| 4 + p.len() * 4).sum();
    let mut out = Vec::with_capacity(12 + payload);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        for v in p {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Errors arising from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A declared buffer ran past the end of input.
    BadLength,
    /// The buffers do not form a chain of `(weights, bias)` layers.
    BadShape,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "checkpoint truncated"),
            DecodeError::BadMagic => write!(f, "not a Zeus checkpoint (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            DecodeError::BadLength => write!(f, "corrupt checkpoint (bad buffer length)"),
            DecodeError::BadShape => {
                write!(f, "corrupt checkpoint (buffers do not chain as layers)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode a byte vector produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<Vec<f32>>, DecodeError> {
    if bytes.len() < 12 {
        return Err(DecodeError::Truncated);
    }
    if &bytes[0..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let mut pos = 12usize;
    // `count` comes from the input: every buffer takes at least its 4-byte
    // length field, so the remaining bytes bound the allocation.
    let mut out = Vec::with_capacity(count.min((bytes.len() - pos) / 4));
    for _ in 0..count {
        if pos + 4 > bytes.len() {
            return Err(DecodeError::BadLength);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        let end = pos + len * 4;
        if end > bytes.len() {
            return Err(DecodeError::BadLength);
        }
        let mut buf = Vec::with_capacity(len);
        for chunk in bytes[pos..end].chunks_exact(4) {
            buf.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        pos = end;
        out.push(buf);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let params = vec![vec![1.0f32, -2.5, 3.25], vec![], vec![0.0; 7]];
        let bytes = encode(&params);
        let back = decode(&bytes).unwrap();
        assert_eq!(params, back);
    }

    #[test]
    fn empty_checkpoint() {
        let bytes = encode(&[]);
        assert_eq!(decode(&bytes).unwrap(), Vec::<Vec<f32>>::new());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode(&[vec![1.0]]);
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode(&[vec![1.0, 2.0]]);
        assert_eq!(
            decode(&bytes[..bytes.len() - 3]),
            Err(DecodeError::BadLength)
        );
        assert_eq!(decode(&bytes[..5]), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = encode(&[vec![1.0]]);
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(DecodeError::BadVersion(99))));
    }

    #[test]
    fn huge_buffer_count_is_bounded_by_the_input() {
        // A bare header claiming u32::MAX buffers must not try to reserve
        // room for them.
        let mut bytes = encode(&[]);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(DecodeError::BadLength));
    }

    #[test]
    fn preserves_special_values() {
        let params = vec![vec![f32::MIN, f32::MAX, f32::EPSILON, -0.0]];
        let back = decode(&encode(&params)).unwrap();
        assert_eq!(params, back);
    }
}
