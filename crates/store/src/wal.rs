//! Write-ahead log: length-prefixed, checksummed mutation records.
//!
//! Every committed mutation on a durable [`crate::Database`] appends one
//! record here *before* the in-memory state changes (log-before-apply).
//! [`crate::Database::recover`] replays the tail of this log on top of the
//! latest snapshot to reproduce the exact pre-crash state.
//!
//! # On-disk frame
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload = seq: u64 LE | kind: u8 | body
//! ```
//!
//! `crc` is a CRC-32 (IEEE) over the payload. The reader stops cleanly at
//! the first frame whose header is short, whose payload is shorter than
//! `len` (a torn write), or whose checksum does not match — that is the
//! torn-tail contract: everything before the damage replays, everything
//! after is discarded. A payload that *passes* the checksum but fails to
//! decode, or a sequence number that skips ahead, is real corruption and
//! surfaces as [`StoreError::Corruption`] instead.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::codec::{crc32, io_err, put_str, put_u32, put_u64, Cursor};
use crate::error::StoreError;
use crate::schema::{ColumnDef, ForeignKey, TableSchema};
use crate::value::{DataType, Value};
use crate::Result;

/// File name of the write-ahead log inside a durability directory.
pub const WAL_FILE: &str = "wal.log";

// ---------------------------------------------------------------------------
// Value, row and schema codec shared by the WAL and the snapshot writer.
// ---------------------------------------------------------------------------

pub(crate) fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
    }
}

pub(crate) fn put_row(buf: &mut Vec<u8>, row: &[Value]) {
    put_u32(buf, row.len() as u32);
    for value in row {
        put_value(buf, value);
    }
}

pub(crate) fn put_rows(buf: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_u64(buf, rows.len() as u64);
    for row in rows {
        put_row(buf, row);
    }
}

fn data_type_tag(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
    }
}

pub(crate) fn put_schema(buf: &mut Vec<u8>, schema: &TableSchema) {
    put_str(buf, &schema.name);
    put_u32(buf, schema.columns.len() as u32);
    for col in &schema.columns {
        put_str(buf, &col.name);
        buf.push(data_type_tag(col.ty));
    }
    match schema.primary_key {
        Some(pk) => {
            buf.push(1);
            put_u64(buf, pk as u64);
        }
        None => buf.push(0),
    }
    put_u32(buf, schema.foreign_keys.len() as u32);
    for fk in &schema.foreign_keys {
        put_str(buf, &fk.column);
        put_str(buf, &fk.ref_table);
        put_str(buf, &fk.ref_column);
    }
}

/// The store's readers on the shared [`Cursor`], mirroring the writers
/// above.
impl Cursor<'_> {
    pub(crate) fn value(&mut self) -> Result<Value> {
        match self.u8("value tag")? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.u64("integer value")? as i64)),
            2 => Ok(Value::Float(f64::from_bits(self.u64("float value")?))),
            3 => Ok(Value::Text(self.string("text value")?)),
            tag => Err(StoreError::Corruption(format!("unknown value tag {tag}"))),
        }
    }

    pub(crate) fn row(&mut self) -> Result<Vec<Value>> {
        let n = self.u32("row arity")? as usize;
        let mut row = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(row)
    }

    pub(crate) fn rows(&mut self) -> Result<Vec<Vec<Value>>> {
        let n = self.u64("row count")? as usize;
        let mut rows = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            rows.push(self.row()?);
        }
        Ok(rows)
    }

    pub(crate) fn schema(&mut self) -> Result<TableSchema> {
        let name = self.string("table name")?;
        let n_cols = self.u32("column count")? as usize;
        let mut columns = Vec::with_capacity(n_cols.min(1024));
        for _ in 0..n_cols {
            let col_name = self.string("column name")?;
            let ty = match self.u8("column type")? {
                0 => DataType::Int,
                1 => DataType::Float,
                2 => DataType::Text,
                tag => {
                    return Err(StoreError::Corruption(format!("unknown column type tag {tag}")))
                }
            };
            columns.push(ColumnDef { name: col_name, ty });
        }
        let primary_key = match self.u8("primary key flag")? {
            0 => None,
            1 => Some(self.u64("primary key index")? as usize),
            tag => return Err(StoreError::Corruption(format!("unknown pk flag {tag}"))),
        };
        let n_fks = self.u32("foreign key count")? as usize;
        let mut foreign_keys = Vec::with_capacity(n_fks.min(1024));
        for _ in 0..n_fks {
            foreign_keys.push(ForeignKey {
                column: self.string("fk column")?,
                ref_table: self.string("fk referenced table")?,
                ref_column: self.string("fk referenced column")?,
            });
        }
        Ok(TableSchema { name, columns, primary_key, foreign_keys })
    }
}

// ---------------------------------------------------------------------------
// Log records.
// ---------------------------------------------------------------------------

/// One mutation, borrowed from the live engine at append time. Each
/// variant mirrors exactly one committed mutation path on
/// [`crate::Database`].
pub(crate) enum WalOp<'a> {
    /// `Database::create_table` — the validated schema.
    CreateTable(&'a TableSchema),
    /// `Database::insert` — one validated row.
    Insert { table: &'a str, row: &'a [Value] },
    /// A committed `BulkLoader` batch: the appended row suffix of every
    /// grown table, in slot (parents-first) order.
    Batch { tables: &'a [(&'a str, &'a [Vec<Value>])] },
    /// `Database::update_rows` — the validated `(row, col, value)` set.
    Update { table: &'a str, updates: &'a [(usize, usize, Value)] },
    /// `Database::delete_rows` — the effective (sorted, deduplicated,
    /// in-range) position set.
    Delete { table: &'a str, positions: &'a [usize] },
    /// `Database::create_index` — a declared secondary index. Only
    /// user-declared indexes are logged; foreign-key auto-indexes are
    /// re-derived from the replayed `CreateTable` schema.
    CreateIndex { table: &'a str, column: &'a str },
}

impl WalOp<'_> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalOp::CreateTable(schema) => {
                buf.push(1);
                put_schema(buf, schema);
            }
            WalOp::Insert { table, row } => {
                buf.push(2);
                put_str(buf, table);
                put_row(buf, row);
            }
            WalOp::Batch { tables } => {
                buf.push(3);
                put_u32(buf, tables.len() as u32);
                for (name, rows) in *tables {
                    put_str(buf, name);
                    put_rows(buf, rows);
                }
            }
            WalOp::Update { table, updates } => {
                buf.push(4);
                put_str(buf, table);
                put_u32(buf, updates.len() as u32);
                for (row, col, value) in *updates {
                    put_u64(buf, *row as u64);
                    put_u64(buf, *col as u64);
                    put_value(buf, value);
                }
            }
            WalOp::Delete { table, positions } => {
                buf.push(5);
                put_str(buf, table);
                put_u32(buf, positions.len() as u32);
                for pos in *positions {
                    put_u64(buf, *pos as u64);
                }
            }
            WalOp::CreateIndex { table, column } => {
                buf.push(7);
                put_str(buf, table);
                put_str(buf, column);
            }
        }
    }
}

/// The owned mirror of [`WalOp`], decoded from the log during replay.
#[derive(Debug)]
pub(crate) enum WalEntry {
    CreateTable(TableSchema),
    Insert { table: String, row: Vec<Value> },
    Batch { tables: Vec<(String, Vec<Vec<Value>>)> },
    Update { table: String, updates: Vec<(usize, usize, Value)> },
    Delete { table: String, positions: Vec<usize> },
    CreateIndex { table: String, column: String },
}

impl WalEntry {
    /// Kind 6 is retired (a whole-table row state that replayed unchecked):
    /// an old log may still hold one, which must fail as an unknown kind,
    /// so the number is never reused.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let entry = match cur.u8("record kind")? {
            1 => WalEntry::CreateTable(cur.schema()?),
            2 => WalEntry::Insert { table: cur.string("table name")?, row: cur.row()? },
            3 => {
                let n = cur.u32("batch table count")? as usize;
                let mut tables = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let name = cur.string("batch table name")?;
                    tables.push((name, cur.rows()?));
                }
                WalEntry::Batch { tables }
            }
            4 => {
                let table = cur.string("table name")?;
                let n = cur.u32("update count")? as usize;
                let mut updates = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let row = cur.u64("update row")? as usize;
                    let col = cur.u64("update column")? as usize;
                    updates.push((row, col, cur.value()?));
                }
                WalEntry::Update { table, updates }
            }
            5 => {
                let table = cur.string("table name")?;
                let n = cur.u32("delete count")? as usize;
                let mut positions = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    positions.push(cur.u64("delete position")? as usize);
                }
                WalEntry::Delete { table, positions }
            }
            7 => WalEntry::CreateIndex {
                table: cur.string("table name")?,
                column: cur.string("index column")?,
            },
            kind => return Err(StoreError::Corruption(format!("unknown wal record kind {kind}"))),
        };
        if !cur.is_empty() {
            return Err(StoreError::Corruption("trailing bytes inside wal record".into()));
        }
        Ok(entry)
    }
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// When appended WAL records reach the operating system.
///
/// The durability contract of `docs/DURABILITY.md` — log-before-apply,
/// torn-tail recovery, checkpoint compaction — is identical under every
/// policy; the policy only chooses the flush cadence, i.e. how many of
/// the *most recent* commits a crash may lose. Records are framed and
/// sequence-numbered identically either way, so a log written under one
/// policy recovers under the other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Write and flush every record before the commit returns (the
    /// default). A crash loses nothing that was committed.
    #[default]
    PerCommit,
    /// Group commit: buffer up to `n` framed records in memory and write
    /// and flush them together when the group fills, when `max_delay` has
    /// elapsed since the group's first record, or on an explicit
    /// [`crate::Database::flush_wal`] / checkpoint / drop. A crash may
    /// lose the buffered tail (at most `n` commits, at most `max_delay`
    /// old); everything flushed recovers exactly as under
    /// [`DurabilityPolicy::PerCommit`].
    ///
    /// The delay bound is enforced at append/flush time — there is no
    /// background timer thread — so a quiet writer's last group stays
    /// buffered until the next append, an explicit flush, or drop.
    Group(usize, Duration),
}

/// Append-only handle on the log file. Owned by
/// `database::Durability`; one record per committed mutation, reaching
/// the OS on the cadence chosen by [`DurabilityPolicy`].
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    /// Sequence number the next appended record will carry. Monotonic for
    /// the lifetime of the durability directory — compaction truncates the
    /// file but never rewinds the sequence.
    pub(crate) next_seq: u64,
    /// Flush cadence; see [`DurabilityPolicy`].
    policy: DurabilityPolicy,
    /// Framed records not yet written to the file (group commit only).
    buffer: Vec<u8>,
    /// How many records `buffer` holds.
    buffered: usize,
    /// When the oldest buffered record was appended.
    buffered_since: Option<Instant>,
}

impl Wal {
    /// Open (creating if absent) the log for appending. `next_seq` is the
    /// sequence number the next record must carry — one past the last
    /// sequence recovery replayed (or past the snapshot it skipped to).
    pub(crate) fn open(path: &Path, next_seq: u64) -> Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path).map_err(io_err)?;
        Ok(Self {
            file,
            next_seq,
            policy: DurabilityPolicy::PerCommit,
            buffer: Vec::new(),
            buffered: 0,
            buffered_since: None,
        })
    }

    /// Change the flush cadence. Any buffered group is flushed first, so
    /// records appended under the old policy keep its guarantee.
    pub(crate) fn set_policy(&mut self, policy: DurabilityPolicy) -> Result<()> {
        self.flush()?;
        self.policy = policy;
        Ok(())
    }

    /// Append one framed record. Under [`DurabilityPolicy::PerCommit`] the
    /// record reaches the OS before this returns; under group commit it is
    /// buffered and the group is flushed when full or older than the
    /// configured delay.
    pub(crate) fn append(&mut self, op: &WalOp<'_>) -> Result<()> {
        let mut payload = Vec::with_capacity(64);
        put_u64(&mut payload, self.next_seq);
        op.encode(&mut payload);
        let frame_len = payload.len() + 8;
        match self.policy {
            DurabilityPolicy::PerCommit => {
                let mut frame = Vec::with_capacity(frame_len);
                put_u32(&mut frame, payload.len() as u32);
                put_u32(&mut frame, crc32(&payload));
                frame.extend_from_slice(&payload);
                self.file.write_all(&frame).map_err(io_err)?;
                self.file.flush().map_err(io_err)?;
            }
            DurabilityPolicy::Group(n, max_delay) => {
                self.buffer.reserve(frame_len);
                put_u32(&mut self.buffer, payload.len() as u32);
                put_u32(&mut self.buffer, crc32(&payload));
                self.buffer.extend_from_slice(&payload);
                self.buffered += 1;
                let since = *self.buffered_since.get_or_insert_with(Instant::now);
                if self.buffered >= n.max(1) || since.elapsed() >= max_delay {
                    self.flush()?;
                }
            }
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Write any buffered group to the file and flush to the OS. A no-op
    /// when nothing is buffered (in particular under
    /// [`DurabilityPolicy::PerCommit`], where appends flush themselves).
    pub(crate) fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buffer).map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        self.buffer.clear();
        self.buffered = 0;
        self.buffered_since = None;
        Ok(())
    }

    /// Discard every record (compaction): called right after a snapshot
    /// captured everything up to the current sequence. Any buffered group
    /// is discarded too — the snapshot already captured those mutations'
    /// effects. The sequence counter keeps counting — recovery pairs the
    /// truncated log with the snapshot's recorded sequence.
    pub(crate) fn reset(&mut self) -> Result<()> {
        self.buffer.clear();
        self.buffered = 0;
        self.buffered_since = None;
        self.file.set_len(0).map_err(io_err)
    }
}

impl Drop for Wal {
    /// Best-effort flush of a buffered group: a clean shutdown under group
    /// commit loses nothing. (A flush failure cannot be reported from a
    /// destructor; a *crash* skips this entirely — that is the bounded
    /// loss window group commit trades for fewer flushes.)
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// Result of scanning a log file: the decodable tail entries strictly
/// after `after_seq`, plus the sequence the next live append must use.
pub(crate) struct WalReplay {
    pub(crate) entries: Vec<WalEntry>,
    pub(crate) next_seq: u64,
}

/// Scan the log at `path`, returning every entry with sequence greater
/// than `after_seq` (records at or below it are already covered by the
/// snapshot — a crash between snapshot rename and log truncation leaves
/// such records behind, and they must be skipped, not replayed twice).
///
/// Tail damage (short header, torn payload, checksum mismatch, zeroed
/// frame) ends the scan cleanly at the last intact record. Damage that
/// passes the checksum but fails to decode, or a gap in the sequence
/// numbers, is a typed [`StoreError::Corruption`].
pub(crate) fn read_wal(path: &Path, after_seq: u64) -> Result<WalReplay> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalReplay { entries: Vec::new(), next_seq: after_seq + 1 });
        }
        Err(err) => return Err(io_err(err)),
    };
    let mut entries = Vec::new();
    let mut expected = after_seq + 1;
    let mut frames = Cursor::new(&data);
    while frames.remaining() >= 8 {
        let len = frames.u32("frame length")? as usize;
        let stored_crc = frames.u32("frame checksum")?;
        if len == 0 {
            // Never written by the appender; a zero-filled tail (e.g. from
            // preallocation) reads as end-of-log.
            break;
        }
        if frames.remaining() < len {
            break; // torn record: the frame was cut mid-payload
        }
        let payload = frames.take(len, "frame payload")?;
        if crc32(payload) != stored_crc {
            break; // bit flip or torn tail inside the payload
        }
        let mut cur = Cursor::new(payload);
        let seq = cur.u64("record sequence")?;
        let entry = WalEntry::decode(&mut cur)?;
        if seq <= after_seq {
            continue; // covered by the snapshot
        }
        if seq != expected {
            return Err(StoreError::Corruption(format!(
                "wal sequence gap: expected {expected}, found {seq}"
            )));
        }
        entries.push(entry);
        expected += 1;
    }
    Ok(WalReplay { entries, next_seq: expected })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn value_codec_round_trips() {
        let row = vec![
            Value::Null,
            Value::Int(-42),
            Value::Float(1.5),
            Value::Float(f64::NAN),
            Value::Text("héllo, wörld".into()),
        ];
        let mut buf = Vec::new();
        put_row(&mut buf, &row);
        let mut cur = Cursor::new(&buf);
        let back = cur.row().unwrap();
        assert!(cur.is_empty());
        assert_eq!(back.len(), row.len());
        // NaN != NaN, so compare bit patterns where needed.
        for (a, b) in row.iter().zip(&back) {
            match (a, b) {
                (Value::Float(x), Value::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn schema_codec_round_trips() {
        let schema = TableSchema::builder("movies")
            .pk("id")
            .column("title", DataType::Text)
            .column("score", DataType::Float)
            .fk("studio_id", "studios", "id")
            .build();
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let mut cur = Cursor::new(&buf);
        let back = cur.schema().unwrap();
        assert!(cur.is_empty());
        assert_eq!(back.name, schema.name);
        assert_eq!(back.columns, schema.columns);
        assert_eq!(back.primary_key, schema.primary_key);
        assert_eq!(back.foreign_keys, schema.foreign_keys);
    }
}
