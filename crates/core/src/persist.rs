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
//! the relation groups, the converged matrix as raw f32 bits, and (from
//! version 2) the served IVF index: its [`IvfConfig`], its centroids as
//! raw f32 bits and one u32 list assignment per row. A restart codes the
//! checksummed matrix rows into those lists ([`IvfIndex::from_parts`])
//! instead of retraining, so it serves the very index that was saved;
//! the list codes themselves are never stored. A version 1 image (no index section) still decodes, and its
//! restart trains an index afresh. The derived parts of the problem
//! (`W0`, centroids, weights) are *not* stored — they are recomputed from
//! the base embedding at recovery, which is both smaller and
//! self-checking: a snapshot recovered against the wrong base fails
//! loudly instead of serving subtly wrong vectors.
//!
//! The framing — checksum, writers, cursor, header check — is the store's
//! [`retro_store::codec`], shared with the WAL and store snapshots. Its
//! [`StoreError::Corruption`] messages surface unchanged as
//! [`RetroError::Persist`].

use retro_linalg::Matrix;
use retro_nn::ann::{IvfConfig, IvfIndex};
use retro_store::codec::{self, crc32, put_f32s, put_str, put_u32, put_u64};
use retro_store::StoreError;

use crate::api::RetroError;
use crate::catalog::TextValueCatalog;
use crate::relations::{RelationGroup, RelationKind};

const MAGIC: &[u8; 4] = b"RSRV";
/// Version 2 added the IVF index section after the matrix; version 1
/// images (no index section) still decode.
const VERSION: u32 = 2;
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
    /// The served IVF index's parts (`None` in a version 1 image).
    pub index: Option<PersistedIndex>,
}

/// The parts [`IvfIndex::from_parts`] rebuilds a served index from; the
/// list codes are rebuilt from the checksummed matrix, never stored.
#[derive(Debug)]
pub(crate) struct PersistedIndex {
    pub config: IvfConfig,
    /// `nlist × dim` centroids, exact bits.
    pub centroids: Matrix,
    /// Row id → list, one per embedding row.
    pub assignments: Vec<u32>,
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

/// The exact byte length of the image [`encode`] writes, so it fills one
/// allocation without growing it.
fn encoded_len(
    catalog: &TextValueCatalog,
    groups: &[RelationGroup],
    embeddings: &Matrix,
    index: &IvfIndex,
) -> usize {
    // Generation, write version, dimension; each list below leads with
    // its u32 count.
    let fixed = HEADER_LEN + 8 + 8 + 4;
    let categories: usize =
        catalog.categories().iter().map(|c| 8 + c.table.len() + c.column.len()).sum();
    let values: usize = catalog.iter().map(|(_, _, text)| 8 + text.len()).sum();
    let groups: usize = groups.iter().map(|g| 4 + g.name.len() + 13 + 8 * g.edges.len()).sum();
    let matrix = 4 * embeddings.as_slice().len();
    let index = 4 * 8 + 4 + 4 * index.centroids().as_slice().len() + 4 * index.len();
    fixed + (4 + categories) + (4 + values) + (4 + groups) + matrix + index
}

/// Serialize a published generation and the index that serves it into
/// one buffer: the header with its checksum zeroed, the body, then the
/// checksum patched in. Infallible: the inputs are in-memory structures
/// that always encode.
pub(crate) fn encode(
    generation: u64,
    write_version: u64,
    catalog: &TextValueCatalog,
    groups: &[RelationGroup],
    embeddings: &Matrix,
    index: &IvfIndex,
) -> Vec<u8> {
    let len = encoded_len(catalog, groups, embeddings, index);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, 0);
    put_u64(&mut out, generation);
    put_u64(&mut out, write_version);
    put_u32(&mut out, embeddings.cols() as u32);
    put_u32(&mut out, catalog.category_count() as u32);
    for category in catalog.categories() {
        put_str(&mut out, &category.table);
        put_str(&mut out, &category.column);
    }
    put_u32(&mut out, catalog.len() as u32);
    for (_, category, text) in catalog.iter() {
        put_u32(&mut out, category);
        put_str(&mut out, text);
    }
    put_u32(&mut out, groups.len() as u32);
    for group in groups {
        put_str(&mut out, &group.name);
        put_u32(&mut out, group.source_category);
        put_u32(&mut out, group.target_category);
        out.push(kind_tag(group.kind));
        put_u32(&mut out, group.edges.len() as u32);
        for &(i, j) in &group.edges {
            put_u32(&mut out, i);
            put_u32(&mut out, j);
        }
    }
    put_f32s(&mut out, embeddings.as_slice());

    let config = index.config();
    for field in
        [config.nlist as u64, config.train_iters as u64, config.sample_cap as u64, config.seed]
    {
        put_u64(&mut out, field);
    }
    put_u32(&mut out, index.nlist() as u32);
    put_f32s(&mut out, index.centroids().as_slice());
    for &list in index.assignments() {
        put_u32(&mut out, list);
    }
    debug_assert_eq!(out.len(), len, "encoded_len must match the encoder");

    let crc = crc32(&out[HEADER_LEN..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decode a snapshot file's bytes. Verifies magic, version and checksum
/// before trusting a single field; every structural problem is a typed
/// [`RetroError::Persist`].
pub(crate) fn decode(data: &[u8]) -> Result<PersistedGeneration, RetroError> {
    decode_image(data).map_err(persist_error)
}

/// `count × 4` bytes as little-endian f32s (a byte count past the address
/// space is as truncated as one past the bytes left).
fn read_f32s(
    cur: &mut codec::Cursor<'_>,
    count: Option<usize>,
    what: &str,
) -> retro_store::Result<Vec<f32>> {
    let raw = cur.take(count.and_then(|n| n.checked_mul(4)).unwrap_or(usize::MAX), what)?;
    Ok(raw.chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))).collect())
}

fn decode_image(data: &[u8]) -> retro_store::Result<PersistedGeneration> {
    let (version, mut cur) =
        codec::check_header(data, MAGIC, 1..=VERSION, HEADER_LEN, "an embedding snapshot")?;
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

    let data = read_f32s(&mut cur, value_count.checked_mul(dim), "embedding value")?;
    let embeddings = Matrix::from_vec(value_count, dim, data);

    let index = if version >= 2 {
        let config = IvfConfig {
            nlist: cur.u64("index nlist")? as usize,
            train_iters: cur.u64("index training passes")? as usize,
            sample_cap: cur.u64("index sample cap")? as usize,
            seed: cur.u64("index seed")?,
        };
        let nlist = cur.u32("centroid count")? as usize;
        let data = read_f32s(&mut cur, nlist.checked_mul(dim), "centroid value")?;
        let centroids = Matrix::from_vec(nlist, dim, data);
        let raw = cur.take(value_count * 4, "list assignment")?;
        let assignments =
            raw.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
        Some(PersistedIndex { config, centroids, assignments: assignments.collect() })
    } else {
        None
    };
    if !cur.is_empty() {
        return Err(corrupt(format!("{} trailing bytes after snapshot", cur.remaining())));
    }

    Ok(PersistedGeneration {
        generation,
        write_version,
        categories,
        values,
        groups,
        embeddings,
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrupt(msg: &str) -> RetroError {
        RetroError::Persist(msg.into())
    }

    /// The sample's parts, and its embedding rows under two fixed
    /// centroids, so the index section does not depend on k-means.
    fn sample_parts() -> (TextValueCatalog, Vec<RelationGroup>, Matrix, IvfIndex) {
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
        let centroids = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let norms = embeddings.row_norms();
        let index = IvfIndex::with_centroids(&embeddings, &norms, centroids, IvfConfig::auto(2), 1);
        (catalog, groups, embeddings, index)
    }

    fn sample() -> Vec<u8> {
        let (catalog, groups, embeddings, index) = sample_parts();
        encode(7, 42, &catalog, &groups, &embeddings, &index)
    }

    /// The fields every image of the sample decodes to, index aside.
    fn assert_sample_fields(decoded: &PersistedGeneration) {
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
        assert_eq!(decoded.embeddings.row(0), &[1.0, -0.5]);
        assert_eq!(decoded.embeddings.row(1), &[0.25, 2.0]);
    }

    #[test]
    fn encode_matches_the_golden_bytes() {
        assert_eq!(sample(), include_bytes!("../../../tests/fixtures/golden_v2.rsrv").as_slice());
    }

    /// `golden.rsrv` is a version 1 image (no index section): it still
    /// decodes, and a service recovers from it by training an index.
    #[test]
    fn golden_v1_image_decodes_and_recovers() {
        let v1 = include_bytes!("../../../tests/fixtures/golden.rsrv");
        assert_eq!(&v1[4..8], &1u32.to_le_bytes());
        let decoded = decode(v1).unwrap();
        assert_sample_fields(&decoded);
        assert!(decoded.index.is_none());

        // A store at the image's write version, holding its two values.
        let mut db = retro_store::Database::new();
        retro_store::sql::run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
                                  director_id INTEGER REFERENCES persons(id));
             CREATE TABLE ticks (id INTEGER PRIMARY KEY);
             INSERT INTO persons VALUES (1, 'ridley scott');
             INSERT INTO movies VALUES (1, 'alien', 1);",
        )
        .unwrap();
        for tick in 0.. {
            if db.write_version() >= 42 {
                break;
            }
            db.insert("ticks", vec![retro_store::Value::Int(tick)]).unwrap();
        }
        assert_eq!(db.write_version(), 42);
        let path = std::env::temp_dir()
            .join(format!("retro_persist_golden_v1_{}.rsrv", std::process::id()));
        std::fs::write(&path, v1).unwrap();
        let base = retro_embed::EmbeddingSet::new(
            vec!["alien".into(), "ridley".into()],
            vec![vec![0.5, 0.5], vec![-0.5, 1.0]],
        );
        let service = crate::serve::EmbeddingService::recover(
            retro_store::SharedDatabase::new(db),
            base,
            crate::RetroConfig::default(),
            &path,
        )
        .unwrap();
        std::fs::remove_file(&path).unwrap();
        let snap = service.snapshot();
        assert_eq!((snap.generation(), snap.write_version()), (7, 42));
        assert_eq!(snap.output().embeddings.as_slice(), decoded.embeddings.as_slice());
        let trained = IvfIndex::build(&decoded.embeddings, snap.norms(), IvfConfig::auto(2), 1);
        assert_eq!(snap.index().assignments(), trained.assignments());
        assert_eq!(snap.index().centroids().as_slice(), trained.centroids().as_slice());
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let decoded = decode(&bytes).unwrap();
        assert_sample_fields(&decoded);
        let (_, _, _, index) = sample_parts();
        let persisted = decoded.index.expect("a version 2 image holds the index");
        assert_eq!(persisted.config, *index.config());
        assert_eq!(persisted.centroids.as_slice(), index.centroids().as_slice());
        assert_eq!(persisted.assignments, vec![0, 1]);
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
        for version in [0u32, 3, 9] {
            future[4..8].copy_from_slice(&version.to_le_bytes());
            let msg = format!("unsupported snapshot version {version}");
            assert_eq!(decode(&future).unwrap_err(), corrupt(&msg));
        }
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

    #[test]
    fn resealed_index_section_damage_is_typed() {
        // Relabel a v2 image as v1: the index section is trailing bytes.
        let mut bytes = sample();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let index_len = 4 * 8 + 4 + 4 * 4 + 4 * 2;
        let msg = format!("{index_len} trailing bytes after snapshot");
        assert_eq!(decode(&bytes).unwrap_err(), corrupt(&msg));
        // A centroid count past the bytes left is truncation.
        let mut bytes = sample();
        let count_at = bytes.len() - 4 * 2 - 4 * 4 - 4;
        bytes[count_at..count_at + 4].copy_from_slice(&3u32.to_le_bytes());
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[8..12].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err(), corrupt("truncated while reading list assignment"));
    }
}
