//! On-disk codec for a published embedding generation.
//!
//! `EmbeddingService::save_snapshot` serializes the currently published
//! [`crate::serve::Snapshot`] into one checksummed little-endian file and
//! `EmbeddingService::recover` reads it back to warm-start a restarted
//! service — bit-identical embeddings, same generation number, and an
//! [`crate::IncrementalRetro`] session anchored at the snapshot's database
//! write version so the next refresh catches up incrementally. See
//! `docs/DURABILITY.md` for where this sits in the durability story.
//!
//! Layout: magic `RSRV`, u32 version, u32 CRC-32 over the body, then the
//! body: generation, write version, embedding dimension,
//! the catalog (categories then values, both in id order, so replaying
//! them through [`TextValueCatalog::add_category`] /
//! [`TextValueCatalog::intern`] reproduces the exact dense id assignment),
//! the relation groups, and the converged matrix as raw f32 bits. The
//! derived parts of the problem (`W0`, centroids, weights) are *not*
//! stored — they are recomputed from the base embedding at recovery, which
//! is both smaller and self-checking: a snapshot recovered against the
//! wrong base fails loudly instead of serving subtly wrong vectors.
//!
//! The framing — checksum, writers, cursor, header check — is the store's
//! [`retro_store::codec`], shared with the WAL and store snapshots. Its
//! [`StoreError::Corruption`] messages surface unchanged as
//! [`RetroError::Persist`].

use retro_linalg::Matrix;
use retro_store::codec::{self, crc32, put_str, put_u32, put_u64};
use retro_store::StoreError;

use crate::api::RetroError;
use crate::catalog::TextValueCatalog;
use crate::relations::{RelationGroup, RelationKind};

const MAGIC: &[u8; 4] = b"RSRV";
const VERSION: u32 = 1;
/// magic + version + crc.
const HEADER_LEN: usize = 12;

/// The decoded payload of a generation snapshot file — everything
/// `EmbeddingService::recover` needs that cannot be recomputed from the
/// base embedding.
#[derive(Debug)]
pub(crate) struct PersistedGeneration {
    /// The published generation number at save time.
    pub generation: u64,
    /// The database write version the generation was converged against.
    pub write_version: u64,
    /// `(table, column)` per category, in category-id order.
    pub categories: Vec<(String, String)>,
    /// `(category id, text)` per value, in value-id order.
    pub values: Vec<(u32, String)>,
    /// Forward relation groups of the solved problem.
    pub groups: Vec<RelationGroup>,
    /// The converged embedding matrix (one row per value, exact bits).
    pub embeddings: Matrix,
}

fn kind_tag(kind: RelationKind) -> u8 {
    match kind {
        RelationKind::RowWise => 0,
        RelationKind::ForeignKey => 1,
        RelationKind::ManyToMany => 2,
    }
}

fn kind_from_tag(tag: u8) -> retro_store::Result<RelationKind> {
    match tag {
        0 => Ok(RelationKind::RowWise),
        1 => Ok(RelationKind::ForeignKey),
        2 => Ok(RelationKind::ManyToMany),
        other => Err(corrupt(format!("unknown relation kind tag {other}"))),
    }
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corruption(msg.into())
}

/// A codec error as the embedding layer reports it: a corruption message
/// unchanged, anything else (I/O) by its display text.
pub(crate) fn persist_error(err: StoreError) -> RetroError {
    RetroError::Persist(match err {
        StoreError::Corruption(msg) => msg,
        other => other.to_string(),
    })
}

/// Serialize a published generation. Infallible: the inputs are in-memory
/// structures that always encode.
pub(crate) fn encode(
    generation: u64,
    write_version: u64,
    catalog: &TextValueCatalog,
    groups: &[RelationGroup],
    embeddings: &Matrix,
) -> Vec<u8> {
    let mut body = Vec::with_capacity(64 + embeddings.rows() * embeddings.cols() * 4);
    put_u64(&mut body, generation);
    put_u64(&mut body, write_version);
    put_u32(&mut body, embeddings.cols() as u32);
    put_u32(&mut body, catalog.category_count() as u32);
    for category in catalog.categories() {
        put_str(&mut body, &category.table);
        put_str(&mut body, &category.column);
    }
    put_u32(&mut body, catalog.len() as u32);
    for (_, category, text) in catalog.iter() {
        put_u32(&mut body, category);
        put_str(&mut body, text);
    }
    put_u32(&mut body, groups.len() as u32);
    for group in groups {
        put_str(&mut body, &group.name);
        put_u32(&mut body, group.source_category);
        put_u32(&mut body, group.target_category);
        body.push(kind_tag(group.kind));
        put_u32(&mut body, group.edges.len() as u32);
        for &(i, j) in &group.edges {
            put_u32(&mut body, i);
            put_u32(&mut body, j);
        }
    }
    for r in 0..embeddings.rows() {
        for &v in embeddings.row(r) {
            body.extend_from_slice(&v.to_le_bytes());
        }
    }

    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// Decode a snapshot file's bytes. Verifies magic, version and checksum
/// before trusting a single field; every structural problem is a typed
/// [`RetroError::Persist`].
pub(crate) fn decode(data: &[u8]) -> Result<PersistedGeneration, RetroError> {
    decode_image(data).map_err(persist_error)
}

fn decode_image(data: &[u8]) -> retro_store::Result<PersistedGeneration> {
    let mut cur = codec::check_header(data, MAGIC, VERSION, HEADER_LEN, "an embedding snapshot")?;
    let stored = cur.u32("checksum")?;
    if crc32(cur.rest()) != stored {
        return Err(corrupt("checksum mismatch"));
    }

    let generation = cur.u64("generation")?;
    let write_version = cur.u64("write version")?;
    let dim = cur.u32("embedding dimension")? as usize;

    let category_count = cur.u32("category count")? as usize;
    let mut categories = Vec::with_capacity(category_count.min(1 << 16));
    for _ in 0..category_count {
        let table = cur.string("category table")?;
        let column = cur.string("category column")?;
        categories.push((table, column));
    }

    let value_count = cur.u32("value count")? as usize;
    let mut values = Vec::with_capacity(value_count.min(1 << 20));
    for _ in 0..value_count {
        let category = cur.u32("value category")?;
        if category as usize >= category_count {
            return Err(corrupt(format!("value references unknown category {category}")));
        }
        values.push((category, cur.string("value text")?));
    }

    let group_count = cur.u32("group count")? as usize;
    let mut groups = Vec::with_capacity(group_count.min(1 << 16));
    for _ in 0..group_count {
        let name = cur.string("group name")?;
        let source_category = cur.u32("group source category")?;
        let target_category = cur.u32("group target category")?;
        if source_category as usize >= category_count || target_category as usize >= category_count
        {
            return Err(corrupt(format!("group '{name}' references an unknown category")));
        }
        let kind = kind_from_tag(cur.u8("group kind")?)?;
        let edge_count = cur.u32("group edge count")? as usize;
        let mut edges = Vec::with_capacity(edge_count.min(1 << 20));
        for _ in 0..edge_count {
            let i = cur.u32("edge source")?;
            let j = cur.u32("edge target")?;
            if i as usize >= value_count || j as usize >= value_count {
                return Err(corrupt(format!("group '{name}' edge references an unknown value")));
            }
            edges.push((i, j));
        }
        groups.push(RelationGroup::new(name, source_category, target_category, kind, edges));
    }

    // `value_count × dim` f32s follow: a byte count past the address
    // space is as truncated as one past the bytes left.
    let what = "embedding value";
    let len = value_count.checked_mul(dim).and_then(|n| n.checked_mul(4));
    let raw = cur.take(len.unwrap_or(usize::MAX), what)?;
    let data = raw.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")));
    if !cur.is_empty() {
        return Err(corrupt(format!("{} trailing bytes after snapshot", cur.remaining())));
    }
    let embeddings = Matrix::from_vec(value_count, dim, data.collect());

    Ok(PersistedGeneration { generation, write_version, categories, values, groups, embeddings })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrupt(msg: &str) -> RetroError {
        RetroError::Persist(msg.into())
    }

    fn sample() -> Vec<u8> {
        let mut catalog = TextValueCatalog::default();
        let titles = catalog.add_category("movies", "title");
        let names = catalog.add_category("persons", "name");
        catalog.intern(titles, "alien");
        catalog.intern(names, "ridley scott");
        let groups = vec![RelationGroup::new(
            "movies.title~persons.name".into(),
            titles,
            names,
            RelationKind::ForeignKey,
            vec![(0, 1)],
        )];
        let embeddings = Matrix::from_rows(&[vec![1.0, -0.5], vec![0.25, 2.0]]);
        encode(7, 42, &catalog, &groups, &embeddings)
    }

    #[test]
    fn encode_matches_the_golden_bytes() {
        assert_eq!(sample(), include_bytes!("../../../tests/fixtures/golden.rsrv").as_slice());
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.generation, 7);
        assert_eq!(decoded.write_version, 42);
        assert_eq!(
            decoded.categories,
            vec![
                ("movies".to_string(), "title".to_string()),
                ("persons".to_string(), "name".to_string())
            ]
        );
        assert_eq!(decoded.values[0], (0, "alien".to_string()));
        assert_eq!(decoded.values[1], (1, "ridley scott".to_string()));
        assert_eq!(decoded.groups.len(), 1);
        assert_eq!(decoded.groups[0].edges, vec![(0, 1)]);
        assert_eq!(decoded.groups[0].kind, RelationKind::ForeignKey);
        assert_eq!(decoded.embeddings.row(1), &[0.25, 2.0]);
    }

    #[test]
    fn every_body_bit_flip_is_caught() {
        let bytes = sample();
        for pos in HEADER_LEN..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0x10;
            let err = decode(&corrupted).unwrap_err();
            assert_eq!(err, corrupt("checksum mismatch"), "byte {pos}");
        }
    }

    #[test]
    fn header_damage_is_typed() {
        let bytes = sample();
        assert_eq!(decode(&bytes[..8]).unwrap_err(), corrupt("truncated header"));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            decode(&wrong_magic).unwrap_err(),
            corrupt("bad magic (not an embedding snapshot)")
        );
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(decode(&future).unwrap_err(), corrupt("unsupported snapshot version 9"));
        // Truncating the body is caught by the checksum, not a panic.
        assert!(decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn crafted_dimension_is_typed_not_allocated() {
        // dim = u32::MAX under a valid checksum: the matrix claims ~8.6G
        // values the body does not hold.
        let mut bytes = sample();
        let dim_at = HEADER_LEN + 16;
        bytes[dim_at..dim_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), corrupt("truncated while reading embedding value"));
    }
}
