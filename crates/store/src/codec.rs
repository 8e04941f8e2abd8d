//! Little-endian framing shared by every binary image the workspace
//! persists: the WAL ([`crate::wal`]), store snapshots (`RSNP`,
//! [`crate::persist`]) and embedding generations (`RSRV`,
//! `retro_core::persist`).
//!
//! The pieces are the CRC-32 checksum, the `put_*` writers, a
//! bounds-checked [`Cursor`] reader, the magic/version header check and
//! an atomic temp-file-plus-rename write. The store's value, row and
//! schema codecs are built on top of them in [`crate::wal`].
//!
//! Every decode failure is a [`StoreError::Corruption`]: by the time a
//! cursor runs, its bytes passed their checksum, so a failure means the
//! writer and reader disagree (or the image was crafted), not a torn tail.

use std::ops::RangeInclusive;
use std::path::Path;
use std::sync::OnceLock;

use crate::error::StoreError;
use crate::Result;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data` — the
/// checksum of every persisted image.
///
/// Slicing-by-16: table `k` advances a byte that still has `k` bytes
/// after it in the block, so one step folds 16 bytes with 16 independent
/// lookups instead of a chain of 16 dependent ones; the tail shorter than
/// a block runs bytewise on table 0, the classic byte-at-a-time table.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        for k in 1..16 {
            let (done, rest) = t.split_at_mut(k);
            for (slot, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *slot = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let word = |at: usize| u32::from_le_bytes(block[at..at + 4].try_into().expect("4 bytes"));
        let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
        let lookup = |w: u32, k: usize| {
            t[k + 3][(w & 0xFF) as usize]
                ^ t[k + 2][((w >> 8) & 0xFF) as usize]
                ^ t[k + 1][((w >> 16) & 0xFF) as usize]
                ^ t[k][(w >> 24) as usize]
        };
        crc = lookup(a, 12) ^ lookup(b, 8) ^ lookup(c, 4) ^ lookup(d, 0);
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Append `v` little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `s` as a u32 byte length followed by its UTF-8 bytes.
#[inline]
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append every value of `values` as its little-endian f32 bits, in one
/// resize and one pass (no per-value capacity check).
#[inline]
pub fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    let start = buf.len();
    buf.resize(start + values.len() * 4, 0);
    for (dst, v) in buf[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader. `what` arguments name the field
/// being read in the error message.
///
/// The writers and readers are `#[inline]` because `retro-core` decodes
/// millions of fields through them per embedding snapshot, and a call
/// across the crate boundary is not inlined otherwise.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// True when every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The bytes not yet read, without consuming them.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Corruption(format!("truncated while reading {what}")));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        Ok(self.take(N, what)?.try_into().expect("take returns N bytes"))
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian u32.
    #[inline]
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Read a little-endian u64.
    #[inline]
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Read a string written by [`put_str`].
    #[inline]
    pub fn string(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| StoreError::Corruption(format!("invalid UTF-8 while reading {what}")))
    }
}

/// Check the `[magic: 4 bytes] [version: u32 LE]` prefix of an image
/// whose fixed header is `header_len` bytes long, and return the version
/// found with a cursor positioned just past it. A version outside
/// `versions` (the ones this reader decodes) is a typed error. `what`
/// names the expected image in the magic-mismatch error ("an embedding
/// snapshot").
pub fn check_header<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
    versions: RangeInclusive<u32>,
    header_len: usize,
    what: &str,
) -> Result<(u32, Cursor<'a>)> {
    if data.len() < header_len {
        return Err(StoreError::Corruption("truncated header".into()));
    }
    let mut cur = Cursor::new(data);
    if cur.take(4, "magic")? != magic {
        return Err(StoreError::Corruption(format!("bad magic (not {what})")));
    }
    let found = cur.u32("version")?;
    if !versions.contains(&found) {
        return Err(StoreError::Corruption(format!("unsupported snapshot version {found}")));
    }
    Ok((found, cur))
}

/// Write `bytes` to `path` through a `.tmp` sibling and an atomic rename,
/// so a crash mid-write leaves the previous file intact.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)
}

pub(crate) fn io_err(err: std::io::Error) -> StoreError {
    StoreError::Io(err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_reads_what_the_writers_wrote() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX);
        put_str(&mut buf, "héllo");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u32("a").unwrap(), 7);
        assert_eq!(cur.u64("b").unwrap(), u64::MAX);
        assert_eq!(cur.string("c").unwrap(), "héllo");
        assert!(cur.is_empty());
        assert_eq!(
            cur.u8("tail").unwrap_err(),
            StoreError::Corruption("truncated while reading tail".into())
        );
    }

    #[test]
    fn header_damage_is_typed() {
        let mut image = b"TEST".to_vec();
        put_u32(&mut image, 3);
        put_u32(&mut image, 0);
        fn check(data: &[u8]) -> Result<(u32, usize)> {
            check_header(data, b"TEST", 2..=3, 12, "a test image")
                .map(|(version, cur)| (version, cur.remaining()))
        }
        let corruption = |msg: &str| Err(StoreError::Corruption(msg.into()));
        assert_eq!(check(&image), Ok((3, 4)));
        assert_eq!(check(&image[..11]), corruption("truncated header"));
        let mut wrong = image.clone();
        wrong[0] = b'X';
        assert_eq!(check(&wrong), corruption("bad magic (not a test image)"));
        wrong = image.clone();
        wrong[4] = 2;
        assert_eq!(check(&wrong), Ok((2, 4)));
        for version in [0, 1, 4, 9] {
            wrong[4] = version;
            let msg = format!("unsupported snapshot version {version}");
            assert_eq!(check(&wrong), corruption(&msg));
        }
    }

    /// The byte-at-a-time CRC-32 the sliced one must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_reference() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let data: Vec<u8> =
            (0..316u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..=16 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn put_f32s_writes_little_endian_bits() {
        let mut buf = vec![7u8];
        put_f32s(&mut buf, &[1.5, -0.0, f32::NAN]);
        let mut want = vec![7u8];
        for v in [1.5f32, -0.0, f32::NAN] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(buf, want);
    }
}
