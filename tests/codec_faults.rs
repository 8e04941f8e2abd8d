//! The binary images the store persists, pinned and swept.
//!
//! * Golden bytes: a WAL holding one record of every kind the writer
//!   emits, and the RSNP snapshot of the same database, must match the
//!   committed fixtures byte for byte — a codec change that alters the
//!   on-disk format fails here, not in a user's recovery.
//! * A re-sealed sweep: every payload byte of a WAL, an RSNP snapshot and
//!   an RSRV embedding snapshot is flipped and the checksum (and RSNP's
//!   length word) recomputed, so the damage gets past the CRC and reaches
//!   the decoders. Recovery must return `Ok` or a typed error, never
//!   panic, and a loaded store must answer `SELECT *` on every table.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use retro::core::api::RetroError;
use retro::core::serve::EmbeddingService;
use retro::core::RetroConfig;
use retro::embed::EmbeddingSet;
use retro::store::{
    crc32, sql, DataType, Database, SharedDatabase, StoreError, TableSchema, Value, SNAPSHOT_FILE,
    WAL_FILE,
};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "retro_codec_faults_{}_{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A durable database whose WAL holds one record of every kind the writer
/// emits: create table (1), insert (2), bulk batch (3), update (4),
/// delete (5) and create index (7).
fn every_record_kind(dir: &Path) -> Database {
    let mut db = Database::open(dir).unwrap();
    db.create_table(
        TableSchema::builder("parents").pk("id").column("name", DataType::Text).build(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("children")
            .pk("id")
            .column("label", DataType::Text)
            .column("score", DataType::Float)
            .fk("parent_id", "parents", "id")
            .build(),
    )
    .unwrap();
    db.insert("parents", vec![Value::Int(1), Value::from("ada")]).unwrap();
    let mut loader = db.bulk();
    let parents = loader.table("parents").unwrap();
    let children = loader.table("children").unwrap();
    loader.stage(parents, vec![Value::Int(2), Value::from("bob")]).unwrap();
    loader
        .stage(children, vec![Value::Int(10), Value::from("x"), Value::Float(0.5), Value::Int(1)])
        .unwrap();
    loader.stage(children, vec![Value::Int(11), Value::Null, Value::Int(3), Value::Null]).unwrap();
    loader.commit().unwrap();
    db.update_rows("parents", &[(0, 1, Value::from("ada lovelace"))]).unwrap();
    db.delete_rows("children", &[1]).unwrap();
    db.create_index("children", "label").unwrap();
    db
}

#[test]
fn wal_and_snapshot_bytes_match_the_golden_fixtures() {
    let scratch = ScratchDir::new();
    let mut db = every_record_kind(&scratch.0);
    let wal = std::fs::read(scratch.0.join(WAL_FILE)).unwrap();
    assert_eq!(wal, include_bytes!("fixtures/golden.wal").as_slice(), "WAL bytes changed");
    db.checkpoint().unwrap();
    let snapshot = std::fs::read(scratch.0.join(SNAPSHOT_FILE)).unwrap();
    assert_eq!(
        snapshot,
        include_bytes!("fixtures/golden.rsnp").as_slice(),
        "RSNP snapshot bytes changed"
    );
}

/// XOR masks applied to every swept byte: each single bit, then all bits.
const MASKS: [u8; 9] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF];

/// Run `f`, turning a panic into a test failure that names the damage.
fn must_not_panic<T>(image: &str, pos: usize, mask: u8, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|_| panic!("{image}: byte {pos} ^ {mask:#04x} panicked"))
}

/// Recover the store under `dir`; a loaded database must answer
/// `SELECT *` on every table, and a refusal must be typed corruption.
fn recover_and_scan(dir: &Path, image: &str, pos: usize, mask: u8) {
    must_not_panic(image, pos, mask, || match Database::recover(dir) {
        Ok(mut db) => {
            let names: Vec<String> = db.table_names().into_iter().map(str::to_owned).collect();
            for name in names {
                let _ = sql::run(&mut db, &format!("SELECT * FROM {name}"));
            }
        }
        Err(StoreError::Corruption(_)) => {}
        Err(other) => panic!("{image}: byte {pos} ^ {mask:#04x}: untyped refusal {other:?}"),
    });
}

#[test]
fn resealed_wal_damage_is_typed_or_replays() {
    let scratch = ScratchDir::new();
    drop(every_record_kind(&scratch.0));
    let original = std::fs::read(scratch.0.join(WAL_FILE)).unwrap();
    let mut frame = 0;
    while frame < original.len() {
        let len = u32::from_le_bytes(original[frame..frame + 4].try_into().unwrap()) as usize;
        let payload = frame + 8..frame + 8 + len;
        for pos in payload.clone() {
            for mask in MASKS {
                let mut damaged = original.clone();
                damaged[pos] ^= mask;
                let crc = crc32(&damaged[payload.clone()]);
                damaged[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
                std::fs::write(scratch.0.join(WAL_FILE), &damaged).unwrap();
                recover_and_scan(&scratch.0, "WAL", pos, mask);
            }
        }
        frame = payload.end;
    }
}

#[test]
fn resealed_snapshot_damage_is_typed_or_loads() {
    let scratch = ScratchDir::new();
    let mut db = every_record_kind(&scratch.0);
    db.checkpoint().unwrap();
    drop(db);
    let original = std::fs::read(scratch.0.join(SNAPSHOT_FILE)).unwrap();
    const HEADER_LEN: usize = 20;
    for pos in HEADER_LEN..original.len() {
        for mask in MASKS {
            let mut damaged = original.clone();
            damaged[pos] ^= mask;
            let crc = crc32(&damaged[HEADER_LEN..]);
            let len = (damaged.len() - HEADER_LEN) as u64;
            damaged[8..12].copy_from_slice(&crc.to_le_bytes());
            damaged[12..20].copy_from_slice(&len.to_le_bytes());
            std::fs::write(scratch.0.join(SNAPSHOT_FILE), &damaged).unwrap();
            recover_and_scan(&scratch.0, "RSNP", pos, mask);
        }
    }
}

#[test]
fn resealed_embedding_snapshot_damage_is_typed_or_loads() {
    let scratch = ScratchDir::new();
    std::fs::create_dir_all(&scratch.0).unwrap();
    let mut db = Database::new();
    sql::run_script(
        &mut db,
        "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
         CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
                              director_id INTEGER REFERENCES persons(id));
         INSERT INTO persons VALUES (1, 'luc besson'), (2, 'ridley scott');
         INSERT INTO movies VALUES (1, 'valerian', 1), (2, 'alien', 2);",
    )
    .unwrap();
    let db = SharedDatabase::new(db);
    let base = EmbeddingSet::new(
        vec!["valerian".into(), "alien".into(), "luc besson".into(), "ridley scott".into()],
        vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.7, 0.3], vec![0.3, 0.7]],
    );
    let path = scratch.0.join("generation.rsrv");
    let service =
        EmbeddingService::start(db.clone(), base.clone(), RetroConfig::default()).unwrap();
    service.save_snapshot(&path).unwrap();
    let original = std::fs::read(&path).unwrap();
    // magic + version + crc; the checksum covers everything after it.
    const HEADER_LEN: usize = 12;
    for pos in HEADER_LEN..original.len() {
        for mask in MASKS {
            let mut damaged = original.clone();
            damaged[pos] ^= mask;
            let crc = crc32(&damaged[HEADER_LEN..]);
            damaged[8..12].copy_from_slice(&crc.to_le_bytes());
            std::fs::write(&path, &damaged).unwrap();
            let result = must_not_panic("RSRV", pos, mask, || {
                EmbeddingService::recover(db.clone(), base.clone(), RetroConfig::default(), &path)
            });
            if let Err(err) = result {
                assert!(matches!(err, RetroError::Persist(_)), "RSRV byte {pos}: {err:?}");
            }
        }
    }
}
