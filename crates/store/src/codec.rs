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

use std::path::Path;
use std::sync::OnceLock;

use crate::error::StoreError;
use crate::Result;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `data` — the
/// checksum of every persisted image.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
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
/// whose fixed header is `header_len` bytes long, and return a cursor
/// positioned just past the version. `what` names the expected image in
/// the magic-mismatch error ("an embedding snapshot").
pub fn check_header<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
    version: u32,
    header_len: usize,
    what: &str,
) -> Result<Cursor<'a>> {
    if data.len() < header_len {
        return Err(StoreError::Corruption("truncated header".into()));
    }
    let mut cur = Cursor::new(data);
    if cur.take(4, "magic")? != magic {
        return Err(StoreError::Corruption(format!("bad magic (not {what})")));
    }
    let found = cur.u32("version")?;
    if found != version {
        return Err(StoreError::Corruption(format!("unsupported snapshot version {found}")));
    }
    Ok(cur)
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
        fn check(data: &[u8]) -> Result<usize> {
            check_header(data, b"TEST", 3, 12, "a test image").map(|cur| cur.remaining())
        }
        let corruption = |msg: &str| Err(StoreError::Corruption(msg.into()));
        assert_eq!(check(&image), Ok(4));
        assert_eq!(check(&image[..11]), corruption("truncated header"));
        let mut wrong = image.clone();
        wrong[0] = b'X';
        assert_eq!(check(&wrong), corruption("bad magic (not a test image)"));
        wrong = image.clone();
        wrong[4] = 9;
        assert_eq!(check(&wrong), corruption("unsupported snapshot version 9"));
    }
}
