//! Binary snapshot persistence for [`Database`].
//!
//! A snapshot is the WAL's compaction point: one checksummed file holding
//! the complete database state — schemas, rows, `write_version`, per-table
//! versions, and the bounded change log — plus the WAL sequence number it
//! covers. Recovery loads the snapshot, then replays only the log records
//! with a higher sequence.
//!
//! # File layout
//!
//! ```text
//! [magic: "RSNP"] [version: u32 LE] [crc: u32 LE] [len: u64 LE] [payload]
//! payload = wal_seq | write_version | tables | table_versions | change_log
//! ```
//!
//! Each table is encoded as schema, declared secondary-index columns, then
//! rows; loading re-creates the indexes before installing the rows, so the
//! rebuilt `crate::index::IndexSet` is bit-identical to the live one.
//!
//! `crc` is [`crate::crc32`] over the payload. The writer goes through
//! [`codec::write_atomic`] (temp file and rename), so a crash
//! mid-snapshot leaves the previous snapshot intact; a truncated or
//! bit-flipped file is a typed [`StoreError::Corruption`], never a
//! partial load. A checksum only proves the bytes are the ones written,
//! so loading also checks what `create_table` and `insert` check: key
//! column indexes in range, foreign keys naming an existing primary key,
//! and every row's arity, value types and primary-key uniqueness.

use std::path::Path;

use crate::changelog::{ChangeLog, ChangeRecord, TableChange};
use crate::codec::{self, crc32, io_err, put_str, put_u32, put_u64, Cursor};
use crate::database::Database;
use crate::error::StoreError;
use crate::table::Table;
use crate::wal::{put_rows, put_schema};
use crate::Result;

/// File name of the snapshot inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

const MAGIC: &[u8; 4] = b"RSNP";
/// Version 2 added the per-table secondary-index declarations.
const VERSION: u32 = 2;
/// Bytes before the payload: magic + version + crc + payload length.
const HEADER_LEN: usize = 4 + 4 + 4 + 8;

fn put_change(buf: &mut Vec<u8>, change: &TableChange) {
    match change {
        TableChange::Created => buf.push(0),
        TableChange::Appended { start, rows } => {
            buf.push(1);
            put_u64(buf, *start as u64);
            put_u64(buf, *rows as u64);
        }
        TableChange::Updated { rows, relational } => {
            buf.push(2);
            put_u64(buf, *rows as u64);
            buf.push(u8::from(*relational));
        }
        TableChange::Deleted { rows } => {
            buf.push(3);
            put_u64(buf, *rows as u64);
        }
    }
}

/// Tag 4 is retired (unchecked table access): an old snapshot may still
/// hold one, which must fail as an unknown tag, so the number is never
/// reused.
fn read_change(cur: &mut Cursor<'_>) -> Result<TableChange> {
    Ok(match cur.u8("change tag")? {
        0 => TableChange::Created,
        1 => TableChange::Appended {
            start: cur.u64("appended start")? as usize,
            rows: cur.u64("appended rows")? as usize,
        },
        2 => TableChange::Updated {
            rows: cur.u64("updated rows")? as usize,
            relational: cur.u8("updated relational flag")? != 0,
        },
        3 => TableChange::Deleted { rows: cur.u64("deleted rows")? as usize },
        tag => return Err(StoreError::Corruption(format!("unknown change tag {tag}"))),
    })
}

/// Serialize `db` to `path` atomically. `wal_seq` is the highest WAL
/// sequence the snapshot covers; recovery skips log records at or below
/// it.
pub(crate) fn write_snapshot(db: &Database, path: &Path, wal_seq: u64) -> Result<()> {
    let mut payload = Vec::with_capacity(4096);
    put_u64(&mut payload, wal_seq);
    put_u64(&mut payload, db.write_version);
    put_u32(&mut payload, db.tables.len() as u32);
    for table in db.tables.values() {
        put_schema(&mut payload, table.schema());
        let index_cols = table.secondary_index_columns();
        put_u32(&mut payload, index_cols.len() as u32);
        for col in index_cols {
            put_u32(&mut payload, col as u32);
        }
        put_rows(&mut payload, table.rows());
    }
    put_u32(&mut payload, db.table_versions.len() as u32);
    for (name, version) in &db.table_versions {
        put_str(&mut payload, name);
        put_u64(&mut payload, *version);
    }
    let log = &db.change_log;
    put_u64(&mut payload, log.capacity() as u64);
    put_u64(&mut payload, log.base());
    put_u32(&mut payload, log.len() as u32);
    for record in log.records() {
        put_u64(&mut payload, record.version);
        put_str(&mut payload, &record.table);
        put_change(&mut payload, &record.change);
    }

    let mut out = Vec::with_capacity(payload.len() + HEADER_LEN);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, crc32(&payload));
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    codec::write_atomic(path, &out)
}

/// Load the snapshot at `path`. Returns `None` when no snapshot exists
/// (fresh directory — recovery starts from an empty database); any
/// structural damage is a typed error.
pub(crate) fn load_snapshot(path: &Path) -> Result<Option<(Database, u64)>> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(io_err(err)),
    };
    let mut header = codec::check_header(&data, MAGIC, VERSION, HEADER_LEN, "a store snapshot")?;
    let stored_crc = header.u32("snapshot checksum")?;
    let len = header.u64("snapshot payload length")?;
    let payload = header.rest();
    if payload.len() as u64 != len {
        return Err(StoreError::Corruption(format!(
            "snapshot payload length mismatch: header says {len}, file holds {}",
            payload.len()
        )));
    }
    if crc32(payload) != stored_crc {
        return Err(StoreError::Corruption("checksum mismatch".into()));
    }

    let mut cur = Cursor::new(payload);
    let wal_seq = cur.u64("snapshot wal sequence")?;
    let write_version = cur.u64("snapshot write version")?;

    let mut db = Database::default();
    let n_tables = cur.u32("table count")? as usize;
    for _ in 0..n_tables {
        let schema = cur.schema()?;
        schema.check_columns().map_err(corrupt)?;
        let n_indexes = cur.u32("secondary index count")? as usize;
        let mut index_cols = Vec::with_capacity(n_indexes.min(1024));
        for _ in 0..n_indexes {
            index_cols.push(cur.u32("secondary index column")? as usize);
        }
        let rows = cur.rows()?;
        let name = schema.name.clone();
        let mut table = Table::new(schema);
        for col in index_cols {
            if col >= table.schema().columns.len() {
                return Err(StoreError::Corruption(format!(
                    "snapshot declares an index on column {col} of `{name}`, which has only {} columns",
                    table.schema().columns.len()
                )));
            }
            table.create_secondary_index(col).map_err(|err| {
                StoreError::Corruption(format!("snapshot declares an invalid index: {err}"))
            })?;
        }
        table.reserve(rows.len());
        table.set_rows(rows).map_err(corrupt)?;
        if db.tables.insert(name.clone(), table).is_some() {
            return Err(StoreError::Corruption(format!("snapshot repeats table `{name}`")));
        }
    }
    // Tables load in name order, so a foreign key may name a table read
    // after its own: check the declarations once every table is in.
    for table in db.tables.values() {
        db.check_foreign_keys(table.schema()).map_err(corrupt)?;
    }

    let n_versions = cur.u32("table version count")? as usize;
    for _ in 0..n_versions {
        let name = cur.string("versioned table name")?;
        let version = cur.u64("table version")?;
        db.table_versions.insert(name, version);
    }

    let capacity = cur.u64("change log capacity")? as usize;
    let base = cur.u64("change log base")?;
    let n_records = cur.u32("change record count")? as usize;
    if n_records > capacity.max(1) {
        return Err(StoreError::Corruption(format!(
            "change log holds {n_records} records but its capacity is {capacity}"
        )));
    }
    // A record holds at least its version, table-name length and change
    // tag, so the bytes left bound how many can follow: a crafted count
    // must not size the allocation.
    const MIN_RECORD_BYTES: usize = 8 + 4 + 1;
    let mut records = Vec::with_capacity(n_records.min(cur.remaining() / MIN_RECORD_BYTES));
    for _ in 0..n_records {
        let version = cur.u64("change record version")?;
        let table = cur.string("change record table")?;
        let change = read_change(&mut cur)?;
        records.push(ChangeRecord { version, table, change });
    }
    if !cur.is_empty() {
        return Err(StoreError::Corruption("trailing bytes after snapshot payload".into()));
    }

    db.write_version = write_version;
    db.change_log = ChangeLog::restore(capacity, base, records);
    Ok(Some((db, wal_seq)))
}

/// A decoded snapshot that `create_table` or `insert` would have refused.
fn corrupt(err: StoreError) -> StoreError {
    StoreError::Corruption(format!("snapshot holds an invalid table: {err}"))
}
