//! Error type for the storage engine.

use std::fmt;

/// Anything that can go wrong inside `retro-store`.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreError {
    /// Table already exists.
    DuplicateTable(String),
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column does not exist in the named table.
    UnknownColumn {
        /// Table the lookup ran against.
        table: String,
        /// The missing column name.
        column: String,
    },
    /// A column name appears twice in a table definition, an `INSERT`
    /// column list or a CSV header.
    DuplicateColumn {
        /// Table the columns belong to.
        table: String,
        /// The repeated column name.
        column: String,
    },
    /// Value does not fit the declared column type.
    TypeMismatch {
        /// Table owning the column.
        table: String,
        /// Column whose type was violated.
        column: String,
        /// The declared column type.
        expected: String,
        /// The offending value's type (or `NULL`).
        got: String,
    },
    /// Row arity differs from the table's column count.
    ArityMismatch {
        /// Target table.
        table: String,
        /// The table's column count.
        expected: usize,
        /// The row's value count.
        got: usize,
    },
    /// Primary-key value already present.
    DuplicateKey {
        /// Table owning the primary key.
        table: String,
        /// The repeated key, rendered for display.
        key: String,
    },
    /// Primary-key column received NULL.
    NullKey {
        /// Table owning the primary key.
        table: String,
        /// The primary-key column name.
        column: String,
    },
    /// Foreign-key value has no matching referenced row.
    ForeignKeyViolation {
        /// Table owning the foreign-key column.
        table: String,
        /// The constrained column.
        column: String,
        /// The dangling key, rendered for display.
        value: String,
    },
    /// A foreign key declaration references a missing table/column.
    BadForeignKey(String),
    /// CSV input could not be parsed.
    Csv(String),
    /// A CSV record failed conversion or a constraint check during bulk
    /// import. `line` is the 1-based line in the CSV document (the header
    /// is line 1); `source` is the underlying violation.
    CsvRow {
        /// 1-based CSV line number of the offending record.
        line: usize,
        /// The underlying conversion or constraint error.
        source: Box<StoreError>,
    },
    /// A row failed a constraint check while being staged into a bulk
    /// batch (see [`crate::BulkLoader::stage`]); the whole batch was rolled
    /// back, so nothing from it remains inserted.
    BulkRow {
        /// Table the offending row was staged for.
        table: String,
        /// 0-based position of the offending row in batch staging order.
        row: usize,
        /// The underlying constraint violation — the same error the
        /// row-by-row insert path would have reported first.
        source: Box<StoreError>,
    },
    /// A [`crate::BulkLoader`] was used after its batch already failed and
    /// rolled back (API misuse: start a new loader instead).
    BulkPoisoned,
    /// SQL input could not be tokenized/parsed/executed.
    Sql(String),
    /// A durability I/O operation (WAL append, snapshot write/read)
    /// failed. The message is the rendered `std::io::Error` — the error
    /// itself is not stored so `StoreError` stays `Clone + PartialEq`.
    Io(String),
    /// Persisted state (WAL or snapshot) is structurally damaged in a way
    /// recovery must not paper over: a checksummed record that fails to
    /// decode, a sequence gap inside the log, a snapshot whose checksum
    /// does not match, or a replayed mutation the live engine rejects.
    Corruption(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateTable(t) => write!(f, "table `{t}` already exists"),
            StoreError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StoreError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{column}` in table `{table}`")
            }
            StoreError::DuplicateColumn { table, column } => {
                write!(f, "column `{column}` named twice for table `{table}`")
            }
            StoreError::TypeMismatch { table, column, expected, got } => {
                write!(f, "type mismatch in `{table}.{column}`: expected {expected}, got {got}")
            }
            StoreError::ArityMismatch { table, expected, got } => {
                write!(f, "row arity mismatch for `{table}`: expected {expected}, got {got}")
            }
            StoreError::DuplicateKey { table, key } => {
                write!(f, "duplicate primary key `{key}` in `{table}`")
            }
            StoreError::NullKey { table, column } => {
                write!(f, "NULL primary key in `{table}.{column}`")
            }
            StoreError::ForeignKeyViolation { table, column, value } => write!(
                f,
                "foreign key violation: `{table}.{column}` = `{value}` has no referenced row"
            ),
            StoreError::BadForeignKey(msg) => write!(f, "invalid foreign key: {msg}"),
            StoreError::Csv(msg) => write!(f, "csv error: {msg}"),
            StoreError::CsvRow { line, source } => {
                write!(f, "csv import failed at line {line}: {source}")
            }
            StoreError::BulkRow { table, row, source } => {
                write!(f, "bulk ingest into `{table}` failed at batch row {row}: {source}")
            }
            StoreError::BulkPoisoned => {
                write!(f, "bulk batch already failed and rolled back; start a new loader")
            }
            StoreError::Sql(msg) => write!(f, "sql error: {msg}"),
            StoreError::Io(msg) => write!(f, "durability i/o error: {msg}"),
            StoreError::Corruption(msg) => write!(f, "persisted state corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}
