//! Word2vec text format I/O plus a compact binary cache format.
//!
//! Text format (as shipped by word2vec/GloVe/fastText):
//!
//! ```text
//! [<count> <dim>]            -- optional header line
//! token v1 v2 ... vD
//! ```
//!
//! The binary format is a little-endian cache written with `bytes`:
//! magic `RETV`, u32 version, and — since version 2 — a u32 CRC-32 over
//! the body, then the body: u32 count, u32 dim, and per entry a u32
//! token length + UTF-8 token + `dim` f32 values. The writer emits
//! version 2; the parser still accepts the unchecksummed version 1 so
//! caches written by earlier builds keep loading.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::embedding::EmbeddingSet;

/// Error for embedding I/O.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "embedding format error: {}", self.0)
    }
}
impl std::error::Error for FormatError {}

/// Parse the word2vec text format. A `count dim` header line is detected and
/// skipped automatically. Duplicate tokens keep the first occurrence
/// (matching gensim's behaviour).
pub fn parse_text(input: &str) -> Result<EmbeddingSet, FormatError> {
    let mut tokens: Vec<String> = Vec::new();
    let mut vectors: Vec<Vec<f32>> = Vec::new();
    let mut dim: Option<usize> = None;
    let mut seen = std::collections::HashSet::new();

    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().ok_or_else(|| FormatError("blank record".into()))?;
        let rest: Vec<&str> = parts.collect();

        // Header detection: exactly two integer fields on the first line.
        if lineno == 0 && rest.len() == 1 {
            if let (Ok(_n), Ok(_d)) = (first.parse::<usize>(), rest[0].parse::<usize>()) {
                continue;
            }
        }

        let vals: Result<Vec<f32>, _> = rest.iter().map(|s| s.parse::<f32>()).collect();
        let vals = vals.map_err(|e| FormatError(format!("line {}: bad float: {e}", lineno + 1)))?;
        match dim {
            None => dim = Some(vals.len()),
            Some(d) if d != vals.len() => {
                return Err(FormatError(format!(
                    "line {}: expected {d} dims, got {}",
                    lineno + 1,
                    vals.len()
                )))
            }
            _ => {}
        }
        if seen.insert(first.to_owned()) {
            tokens.push(first.to_owned());
            vectors.push(vals);
        }
    }
    if tokens.is_empty() {
        return Err(FormatError("no embeddings found".into()));
    }
    Ok(EmbeddingSet::new(tokens, vectors))
}

/// Serialize to the word2vec text format (with header line).
pub fn to_text(set: &EmbeddingSet) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} {}\n", set.len(), set.dim()));
    for (i, token) in set.tokens().iter().enumerate() {
        out.push_str(token);
        for v in set.vector(i) {
            out.push(' ');
            out.push_str(&format!("{v}"));
        }
        out.push('\n');
    }
    out
}

const MAGIC: &[u8; 4] = b"RETV";
/// Current writer version: body checksummed with CRC-32.
const VERSION: u32 = 2;
/// Legacy unchecksummed layout, still accepted by [`parse_binary`].
const VERSION_UNCHECKSUMMED: u32 = 1;

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`) — the same checksum
/// `retro_store::wal::crc32` computes, duplicated privately because this
/// crate sits below `retro-store` in the dependency graph.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

/// Serialize to the binary cache format (version 2: checksummed).
pub fn to_binary(set: &EmbeddingSet) -> Bytes {
    let mut body = BytesMut::with_capacity(8 + set.len() * (8 + set.dim() * 4));
    body.put_u32_le(set.len() as u32);
    body.put_u32_le(set.dim() as u32);
    for (i, token) in set.tokens().iter().enumerate() {
        body.put_u32_le(token.len() as u32);
        body.put_slice(token.as_bytes());
        for &v in set.vector(i) {
            body.put_f32_le(v);
        }
    }
    let body = body.freeze();
    let mut buf = BytesMut::with_capacity(body.len() + 12);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(crc32(&body));
    buf.put_slice(&body);
    buf.freeze()
}

/// Parse the binary cache format. Accepts version 2 (the body's CRC-32
/// is verified before any field is trusted) and the legacy
/// unchecksummed version 1.
pub fn parse_binary(mut data: Bytes) -> Result<EmbeddingSet, FormatError> {
    if data.remaining() < 16 {
        return Err(FormatError("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(FormatError("bad magic".into()));
    }
    let version = data.get_u32_le();
    match version {
        VERSION => {
            if data.remaining() < 12 {
                return Err(FormatError("truncated header".into()));
            }
            let stored = data.get_u32_le();
            if crc32(&data) != stored {
                return Err(FormatError("checksum mismatch".into()));
            }
        }
        VERSION_UNCHECKSUMMED => {}
        other => return Err(FormatError(format!("unsupported version {other}"))),
    }
    let count = data.get_u32_le() as usize;
    let dim = data.get_u32_le() as usize;
    // Every entry holds at least a length word and `dim` values, so the
    // bytes left bound how many entries can follow: a crafted count must
    // not size the allocation.
    let min_entry = dim
        .checked_mul(4)
        .and_then(|b| b.checked_add(4))
        .ok_or_else(|| FormatError("truncated entry".into()))?;
    let capacity = count.min(data.remaining() / min_entry);
    let mut tokens = Vec::with_capacity(capacity);
    let mut vectors = Vec::with_capacity(capacity);
    for _ in 0..count {
        if data.remaining() < 4 {
            return Err(FormatError("truncated token length".into()));
        }
        let tlen = data.get_u32_le() as usize;
        if data.remaining() < tlen + dim * 4 {
            return Err(FormatError("truncated entry".into()));
        }
        let mut tbuf = vec![0u8; tlen];
        data.copy_to_slice(&mut tbuf);
        let token = String::from_utf8(tbuf).map_err(|e| FormatError(format!("bad utf8: {e}")))?;
        let mut vec = Vec::with_capacity(dim);
        for _ in 0..dim {
            vec.push(data.get_f32_le());
        }
        tokens.push(token);
        vectors.push(vec);
    }
    EmbeddingSet::try_new(tokens, vectors).map_err(|e| FormatError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_text_with_header() {
        let set = parse_text("2 3\nalien 1 0 0\nbrazil 0 1 0\n").unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.dim(), 3);
        assert_eq!(set.get("brazil"), Some(&[0.0, 1.0, 0.0][..]));
    }

    #[test]
    fn parse_text_without_header() {
        let set = parse_text("alien 1 0\nbrazil 0 1\n").unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ragged_dims_rejected() {
        assert!(parse_text("a 1 2\nb 1\n").is_err());
    }

    #[test]
    fn bad_float_rejected() {
        assert!(parse_text("a x y\n").is_err());
        assert!(parse_text("").is_err());
    }

    #[test]
    fn duplicate_tokens_keep_first() {
        let set = parse_text("a 1 0\na 0 1\nb 2 2\n").unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("a"), Some(&[1.0, 0.0][..]));
    }

    #[test]
    fn text_round_trip() {
        let set = parse_text("alien 1 -0.5\nbank_account 0.25 1\n").unwrap();
        let text = to_text(&set);
        let set2 = parse_text(&text).unwrap();
        assert_eq!(set2.tokens(), set.tokens());
        assert!(set2.matrix().max_abs_diff(set.matrix()) < 1e-6);
    }

    #[test]
    fn binary_round_trip() {
        let set = parse_text("alien 1 -0.5 3.25\nbrazil 0 1 2\n").unwrap();
        let bin = to_binary(&set);
        let set2 = parse_binary(bin).unwrap();
        assert_eq!(set2.tokens(), set.tokens());
        assert!(set2.matrix().max_abs_diff(set.matrix()) < 1e-7);
    }

    #[test]
    fn binary_rejects_corruption() {
        let set = parse_text("a 1\n").unwrap();
        let bin = to_binary(&set);
        assert!(parse_binary(bin.slice(0..8)).is_err());
        let mut corrupted = bin.to_vec();
        corrupted[0] = b'X';
        assert!(parse_binary(Bytes::from(corrupted)).is_err());
    }

    #[test]
    fn binary_checksum_catches_body_bit_flip() {
        let set = parse_text("alien 1 -0.5\nbrazil 0 1\n").unwrap();
        let bin = to_binary(&set);
        // Flip one bit in every body byte in turn; the checksum must catch
        // each one (a v1 parser would silently accept most of these).
        for pos in 12..bin.len() {
            let mut corrupted = bin.to_vec();
            corrupted[pos] ^= 0x40;
            let err = parse_binary(Bytes::from(corrupted)).unwrap_err();
            assert_eq!(err, FormatError("checksum mismatch".into()), "byte {pos}");
        }
    }

    #[test]
    fn binary_accepts_legacy_unchecksummed_v1() {
        let set = parse_text("alien 1 -0.5\nbrazil 0 1\n").unwrap();
        let v2 = to_binary(&set);
        // Rebuild the v1 layout: same body, version 1, no checksum word.
        let mut v1 = Vec::with_capacity(v2.len() - 4);
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&VERSION_UNCHECKSUMMED.to_le_bytes());
        v1.extend_from_slice(&v2[12..]);
        let parsed = parse_binary(Bytes::from(v1)).unwrap();
        assert_eq!(parsed.tokens(), set.tokens());
        assert!(parsed.matrix().max_abs_diff(set.matrix()) < 1e-7);
    }

    #[test]
    fn binary_rejects_a_crafted_count_without_allocating_it() {
        // A v1 header (no checksum to forge) claiming u32::MAX entries
        // and no body: a typed error, not a 100 GB allocation.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&VERSION_UNCHECKSUMMED.to_le_bytes());
        v1.extend_from_slice(&u32::MAX.to_le_bytes());
        v1.extend_from_slice(&0u32.to_le_bytes());
        let err = parse_binary(Bytes::from(v1)).unwrap_err();
        assert_eq!(err, FormatError("truncated token length".into()));
    }

    #[test]
    fn binary_rejects_future_version() {
        let set = parse_text("a 1\n").unwrap();
        let mut bin = to_binary(&set).to_vec();
        bin[4..8].copy_from_slice(&9u32.to_le_bytes());
        let err = parse_binary(Bytes::from(bin)).unwrap_err();
        assert_eq!(err, FormatError("unsupported version 9".into()));
    }
}
