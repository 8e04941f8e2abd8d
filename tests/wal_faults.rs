//! Fault injection against the durability files (`docs/DURABILITY.md`).
//!
//! The torn-tail contract under test, byte by byte:
//!
//! * truncating `wal.log` at **any** byte boundary recovers cleanly to the
//!   state at the last fully-intact record — never a panic, never a
//!   half-applied mutation;
//! * flipping **any** byte of the log fails that record's checksum and
//!   recovery stops cleanly at the record before it (a crash can leave
//!   arbitrary garbage in the tail; unacknowledged data is discardable);
//! * a zero-filled tail (preallocated-but-unwritten pages) reads as a
//!   clean end of log;
//! * structural damage that checksums *cannot* explain away — a sequence
//!   gap, a checksummed record that fails to decode, a corrupt or
//!   truncated snapshot — is a typed [`StoreError::Corruption`], because
//!   silently dropping acknowledged committed data would be data loss.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use retro::store::{
    crc32, DataType, Database, StoreError, TableSchema, Value, SNAPSHOT_FILE, WAL_FILE,
};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "retro_wal_faults_{}_{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
    fn wal(&self) -> PathBuf {
        self.0.join(WAL_FILE)
    }
    fn snapshot(&self) -> PathBuf {
        self.0.join(SNAPSHOT_FILE)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build a durable database with a known mutation sequence. Returns the
/// WAL byte offset after each committed record together with an ephemeral
/// clone of the state at that point — the expected recovery result for any
/// damage landing in the following record.
fn build(dir: &Path) -> Vec<(u64, Database)> {
    let mut db = Database::open(dir).unwrap();
    let mut boundaries = Vec::new();
    let wal = dir.join(WAL_FILE);
    let mut mark = |db: &Database| {
        let len = std::fs::metadata(&wal).unwrap().len();
        boundaries_push(&mut boundaries, len, db.clone());
    };

    db.create_table(
        TableSchema::builder("parents").pk("id").column("name", DataType::Text).build(),
    )
    .unwrap();
    mark(&db);
    db.create_table(
        TableSchema::builder("children")
            .pk("id")
            .column("label", DataType::Text)
            .fk("parent_id", "parents", "id")
            .build(),
    )
    .unwrap();
    mark(&db);
    for pk in 0..3 {
        db.insert("parents", vec![Value::Int(pk), Value::from(format!("p{pk}"))]).unwrap();
        mark(&db);
    }
    db.insert("children", vec![Value::Int(10), Value::from("c"), Value::Int(1)]).unwrap();
    mark(&db);
    db.update_rows("parents", &[(0, 1, Value::from("renamed"))]).unwrap();
    mark(&db);
    db.delete_rows("children", &[0]).unwrap();
    mark(&db);
    boundaries
}

fn boundaries_push(boundaries: &mut Vec<(u64, Database)>, len: u64, db: Database) {
    boundaries.push((len, db));
}

fn assert_state_eq(got: &Database, want: &Database, context: &str) {
    assert_eq!(got.table_names(), want.table_names(), "{context}");
    assert_eq!(got.write_version(), want.write_version(), "{context}");
    for table in want.table_names() {
        assert_eq!(
            got.table(table).unwrap().rows(),
            want.table(table).unwrap().rows(),
            "{context}: rows of {table}"
        );
        assert_eq!(got.table_version(table), want.table_version(table), "{context}");
    }
}

/// The expected recovery state when everything from byte `pos` on is
/// untrustworthy: the last boundary at or below `pos`.
fn expected_at(boundaries: &[(u64, Database)], pos: u64) -> Option<&Database> {
    boundaries.iter().rev().find(|(len, _)| *len <= pos).map(|(_, db)| db)
}

#[test]
fn truncation_at_every_byte_recovers_the_intact_prefix() {
    let scratch = ScratchDir::new();
    let boundaries = build(&scratch.0);
    let original = std::fs::read(scratch.wal()).unwrap();
    assert_eq!(boundaries.last().unwrap().0, original.len() as u64);

    for cut in 0..=original.len() {
        std::fs::write(scratch.wal(), &original[..cut]).unwrap();
        let recovered = Database::recover(&scratch.0)
            .unwrap_or_else(|err| panic!("truncation at {cut} must recover cleanly: {err}"));
        match expected_at(&boundaries, cut as u64) {
            Some(want) => assert_state_eq(&recovered, want, &format!("cut at byte {cut}")),
            None => assert_eq!(recovered.table_names().len(), 0, "cut at byte {cut}"),
        }
    }
}

#[test]
fn bit_flips_at_every_byte_recover_the_prefix_before_the_damage() {
    let scratch = ScratchDir::new();
    let boundaries = build(&scratch.0);
    let original = std::fs::read(scratch.wal()).unwrap();

    for pos in 0..original.len() {
        let mut damaged = original.clone();
        damaged[pos] ^= 0x55;
        std::fs::write(scratch.wal(), &damaged).unwrap();
        let recovered = Database::recover(&scratch.0)
            .unwrap_or_else(|err| panic!("bit flip at {pos} must recover cleanly: {err}"));
        // The record containing byte `pos` fails its checksum; everything
        // before it is intact. (A flipped length prefix may also misalign
        // all later framing — either way the intact prefix survives.)
        match expected_at(&boundaries, pos as u64) {
            Some(want) => assert_state_eq(&recovered, want, &format!("flip at byte {pos}")),
            None => assert_eq!(recovered.table_names().len(), 0, "flip at byte {pos}"),
        }
    }
}

#[test]
fn zero_filled_tail_is_a_clean_end_of_log() {
    let scratch = ScratchDir::new();
    let boundaries = build(&scratch.0);
    let mut bytes = std::fs::read(scratch.wal()).unwrap();
    bytes.extend_from_slice(&[0u8; 256]);
    std::fs::write(scratch.wal(), &bytes).unwrap();
    let recovered = Database::recover(&scratch.0).unwrap();
    assert_state_eq(&recovered, &boundaries.last().unwrap().1, "zero-filled tail");
}

#[test]
fn a_missing_middle_record_is_a_sequence_gap_not_silent_loss() {
    let scratch = ScratchDir::new();
    let boundaries = build(&scratch.0);
    let original = std::fs::read(scratch.wal()).unwrap();

    // Splice record 3 out entirely: records 1–2 replay, then the next
    // frame checksums fine but carries sequence 4 — acknowledged record 3
    // is *gone*, which no torn-tail story explains.
    let start = boundaries[1].0 as usize;
    let end = boundaries[2].0 as usize;
    let mut spliced = original[..start].to_vec();
    spliced.extend_from_slice(&original[end..]);
    std::fs::write(scratch.wal(), &spliced).unwrap();
    match Database::recover(&scratch.0) {
        Err(StoreError::Corruption(msg)) => {
            assert!(msg.contains("sequence"), "unexpected message: {msg}")
        }
        other => panic!("sequence gap must be typed corruption, got {other:?}"),
    }
}

#[test]
fn a_checksummed_record_that_fails_to_decode_is_corruption() {
    let scratch = ScratchDir::new();
    let boundaries = build(&scratch.0);
    let mut bytes = std::fs::read(scratch.wal()).unwrap();

    // Craft a frame that passes its CRC but carries an unknown kind tag:
    // valid checksum + undecodable payload means the log itself is
    // damaged, not torn.
    let next_seq = (boundaries.len() + 1) as u64;
    let mut payload = next_seq.to_le_bytes().to_vec();
    payload.push(99); // no such WalOp kind
    push_frame(&mut bytes, &payload);
    std::fs::write(scratch.wal(), &bytes).unwrap();
    match Database::recover(&scratch.0) {
        Err(StoreError::Corruption(_)) => {}
        other => panic!("undecodable checksummed record must be corruption, got {other:?}"),
    }
}

/// Append a frame holding `payload` under a valid checksum.
fn push_frame(bytes: &mut Vec<u8>, payload: &[u8]) {
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
}

/// An RSNP image around `payload`: magic, version, checksum and length.
fn snapshot_image(payload: &[u8]) -> Vec<u8> {
    let mut bytes = b"RSNP".to_vec();
    bytes.extend_from_slice(&2u32.to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Kind 6 — a whole-table row state that replayed unchecked — is retired:
/// a leftover one is typed corruption, not an unchecked install of its
/// rows.
#[test]
fn a_leftover_table_state_record_is_corruption() {
    let scratch = ScratchDir::new();
    let boundaries = build(&scratch.0);
    let mut bytes = std::fs::read(scratch.wal()).unwrap();
    let mut payload = ((boundaries.len() + 1) as u64).to_le_bytes().to_vec();
    payload.push(6);
    payload.extend_from_slice(&7u32.to_le_bytes());
    payload.extend_from_slice(b"parents");
    payload.extend_from_slice(&0u64.to_le_bytes()); // row count
    push_frame(&mut bytes, &payload);
    std::fs::write(scratch.wal(), &bytes).unwrap();
    match Database::recover(&scratch.0) {
        Err(StoreError::Corruption(msg)) => assert!(msg.contains("kind 6"), "{msg}"),
        other => panic!("a kind-6 record must be corruption, got {other:?}"),
    }
}

/// Change tag 4 — unchecked table access — is retired: a snapshot holding
/// one is corruption.
#[test]
fn a_leftover_unknown_change_record_is_corruption() {
    let scratch = ScratchDir::new();
    std::fs::create_dir_all(&scratch.0).unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // wal sequence
    payload.extend_from_slice(&1u64.to_le_bytes()); // write version
    payload.extend_from_slice(&0u32.to_le_bytes()); // tables
    payload.extend_from_slice(&0u32.to_le_bytes()); // table versions
    payload.extend_from_slice(&16u64.to_le_bytes()); // change log capacity
    payload.extend_from_slice(&0u64.to_le_bytes()); // change log base
    payload.extend_from_slice(&1u32.to_le_bytes()); // change records
    payload.extend_from_slice(&1u64.to_le_bytes()); // record version
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(b"t"); // record table
    payload.push(4); // change tag
    std::fs::write(scratch.snapshot(), snapshot_image(&payload)).unwrap();
    match Database::recover(&scratch.0) {
        Err(StoreError::Corruption(msg)) => assert!(msg.contains("change tag 4"), "{msg}"),
        other => panic!("change tag 4 must be corruption, got {other:?}"),
    }
}

/// A snapshot that passes its checksum but holds a row that does not fit
/// its table's schema must be refused at load: installed unchecked, the
/// short row made a later `SELECT` index past its end and panic.
#[test]
fn a_checksummed_snapshot_row_of_the_wrong_arity_is_corruption() {
    let scratch = ScratchDir::new();
    let mut db = Database::open(&scratch.0).unwrap();
    db.create_table(
        TableSchema::builder("parents").pk("id").column("name", DataType::Text).build(),
    )
    .unwrap();
    db.insert("parents", vec![Value::Int(1), Value::from("a")]).unwrap();
    db.checkpoint().unwrap();
    drop(db);

    // The row as written: count 1, arity 2, Int(1), Text("a").
    let mut row = 1u64.to_le_bytes().to_vec();
    row.extend_from_slice(&2u32.to_le_bytes());
    row.push(1);
    row.extend_from_slice(&1i64.to_le_bytes());
    row.push(3);
    row.extend_from_slice(&1u32.to_le_bytes());
    row.push(b'a');
    // Rewritten to arity 1 (the text value dropped), then re-sealed.
    let mut short = 1u64.to_le_bytes().to_vec();
    short.extend_from_slice(&1u32.to_le_bytes());
    short.push(1);
    short.extend_from_slice(&1i64.to_le_bytes());
    let image = std::fs::read(scratch.snapshot()).unwrap();
    let payload = &image[20..];
    let at = payload.windows(row.len()).position(|w| w == row.as_slice()).expect("row bytes");
    let mut crafted = payload[..at].to_vec();
    crafted.extend_from_slice(&short);
    crafted.extend_from_slice(&payload[at + row.len()..]);
    std::fs::write(scratch.snapshot(), snapshot_image(&crafted)).unwrap();
    match Database::recover(&scratch.0) {
        Err(StoreError::Corruption(msg)) => assert!(msg.contains("arity"), "{msg}"),
        other => panic!("a short snapshot row must be corruption, got {other:?}"),
    }
}

/// A checksum-valid snapshot whose change log claims u32::MAX records
/// under an unbounded capacity, with no record bytes behind the count:
/// typed corruption, not a 240 GB allocation.
#[test]
fn crafted_change_record_count_is_typed_corruption() {
    let scratch = ScratchDir::new();
    std::fs::create_dir_all(&scratch.0).unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes()); // wal sequence
    payload.extend_from_slice(&0u64.to_le_bytes()); // write version
    payload.extend_from_slice(&0u32.to_le_bytes()); // tables
    payload.extend_from_slice(&0u32.to_le_bytes()); // table versions
    payload.extend_from_slice(&u64::MAX.to_le_bytes()); // change log capacity
    payload.extend_from_slice(&0u64.to_le_bytes()); // change log base
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // change records
    std::fs::write(scratch.snapshot(), snapshot_image(&payload)).unwrap();
    match Database::recover(&scratch.0) {
        Err(StoreError::Corruption(msg)) => assert!(msg.contains("change record"), "{msg}"),
        other => panic!("crafted record count must be corruption, got {other:?}"),
    }
}

#[test]
fn snapshot_damage_is_typed_corruption() {
    let scratch = ScratchDir::new();
    let mut db = Database::open(&scratch.0).unwrap();
    db.create_table(
        TableSchema::builder("parents").pk("id").column("name", DataType::Text).build(),
    )
    .unwrap();
    db.insert("parents", vec![Value::Int(1), Value::from("a")]).unwrap();
    db.checkpoint().unwrap();
    db.insert("parents", vec![Value::Int(2), Value::from("b")]).unwrap();
    drop(db);
    let pristine = std::fs::read(scratch.snapshot()).unwrap();

    // Flip one byte anywhere in the snapshot: recovery must fail typed —
    // the snapshot is the *base* state, there is no safe prefix to fall
    // back to.
    for pos in [0usize, 4, 8, 12, pristine.len() / 2, pristine.len() - 1] {
        let mut damaged = pristine.clone();
        damaged[pos] ^= 0x01;
        std::fs::write(scratch.snapshot(), &damaged).unwrap();
        match Database::recover(&scratch.0) {
            Err(StoreError::Corruption(_)) => {}
            other => panic!("snapshot flip at {pos} must be corruption, got {other:?}"),
        }
    }

    // Truncated snapshot: same.
    std::fs::write(scratch.snapshot(), &pristine[..pristine.len() - 5]).unwrap();
    assert!(matches!(Database::recover(&scratch.0), Err(StoreError::Corruption(_))));

    // Deleted snapshot with a post-checkpoint WAL: the log starts past
    // sequence 1, which is a gap — the base state is missing, and that is
    // corruption, not an empty database.
    std::fs::remove_file(scratch.snapshot()).unwrap();
    assert!(matches!(Database::recover(&scratch.0), Err(StoreError::Corruption(_))));

    // Restoring the pristine snapshot heals everything.
    std::fs::write(scratch.snapshot(), &pristine).unwrap();
    let recovered = Database::recover(&scratch.0).unwrap();
    assert_eq!(recovered.table("parents").unwrap().len(), 2);
}
