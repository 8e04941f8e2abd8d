//! CSV import/export (RFC-4180 style quoting).
//!
//! The paper's datasets ship as Kaggle CSV files that are "imported in a
//! PostgreSQL database system"; this module provides the equivalent path
//! into [`crate::Database`]. The parser supports quoted fields containing
//! commas, escaped quotes (`""`), and embedded newlines.
//!
//! The parser is an incremental *push* automaton (`RecordParser`,
//! private): it accepts characters one at a time and emits completed
//! records, so the same machine serves both [`parse`] over an in-memory
//! string and the streaming [`import_csv_reader`], which ingests a
//! chunked [`std::io::Read`] source in bounded memory — Paper-scale CSV
//! never needs to be resident as one allocation.

use crate::bulk::{BulkLoader, TableHandle};
use crate::error::StoreError;
use crate::schema::TableSchema;
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::Result;

/// Parse a CSV document into records of string fields.
pub fn parse(input: &str) -> Result<Vec<Vec<String>>> {
    Ok(parse_records(input)?.into_iter().map(|(_, rec)| rec).collect())
}

/// Like [`parse`], but each record carries the 1-based *physical* line it
/// starts on. Quoted fields may contain newlines, so record number and
/// line number diverge in general; error reporting wants the line.
fn parse_records(input: &str) -> Result<Vec<(usize, Vec<String>)>> {
    let mut records = Vec::new();
    let mut parser = RecordParser::new();
    for c in input.chars() {
        parser.push(c, &mut records)?;
    }
    parser.finish(&mut records)?;
    Ok(records)
}

/// Incremental RFC-4180 parser: feed characters with
/// [`RecordParser::push`] (completed records land in `out`), then call
/// [`RecordParser::finish`] once the input is exhausted. Lookahead the
/// batch parser did with `peek()` — is this `""` an escaped quote? does a
/// `\n` follow this `\r`? — is carried as pending state instead, so the
/// input may be cut anywhere, including inside a `\r\n` pair or an
/// escaped quote.
struct RecordParser {
    record: Vec<String>,
    field: String,
    in_quotes: bool,
    /// A quote was seen inside a quoted field; the next character decides
    /// whether it was an escaped `""` or the end of quoting.
    quote_pending: bool,
    /// A `\r` just ended a record; a directly following `\n` belongs to
    /// the same line break and must be swallowed.
    cr_pending: bool,
    /// Any character was consumed (an empty document yields no records,
    /// but a trailing unterminated record still ends one).
    any: bool,
    /// 1-based physical line of the character about to be consumed.
    line: usize,
    /// Physical line the record currently being assembled started on.
    record_line: usize,
}

impl RecordParser {
    fn new() -> Self {
        Self {
            record: Vec::new(),
            field: String::new(),
            in_quotes: false,
            quote_pending: false,
            cr_pending: false,
            any: false,
            line: 1,
            record_line: 1,
        }
    }

    fn end_record(&mut self, out: &mut Vec<(usize, Vec<String>)>) {
        self.record.push(std::mem::take(&mut self.field));
        out.push((self.record_line, std::mem::take(&mut self.record)));
        self.record_line = self.line;
    }

    fn push(&mut self, c: char, out: &mut Vec<(usize, Vec<String>)>) -> Result<()> {
        self.any = true;
        if self.cr_pending {
            self.cr_pending = false;
            if c == '\n' {
                return Ok(());
            }
        }
        if self.quote_pending {
            self.quote_pending = false;
            if c == '"' {
                self.field.push('"');
                return Ok(());
            }
            // The pending quote closed the field; `c` continues unquoted.
            self.in_quotes = false;
        }
        if self.in_quotes {
            match c {
                '"' => self.quote_pending = true,
                other => {
                    if other == '\n' {
                        self.line += 1; // embedded newline inside a quoted field
                    }
                    self.field.push(other);
                }
            }
            return Ok(());
        }
        match c {
            '"' => {
                if !self.field.is_empty() {
                    return Err(StoreError::Csv("quote inside unquoted field".to_owned()));
                }
                self.in_quotes = true;
            }
            ',' => self.record.push(std::mem::take(&mut self.field)),
            '\r' => {
                self.line += 1;
                self.end_record(out);
                self.cr_pending = true;
            }
            '\n' => {
                self.line += 1;
                self.end_record(out);
            }
            other => self.field.push(other),
        }
        Ok(())
    }

    fn finish(mut self, out: &mut Vec<(usize, Vec<String>)>) -> Result<()> {
        if self.quote_pending {
            // A quote directly before EOF closes its field.
            self.in_quotes = false;
        }
        if self.in_quotes {
            return Err(StoreError::Csv("unterminated quoted field".to_owned()));
        }
        if self.any && (!self.field.is_empty() || !self.record.is_empty()) {
            self.end_record(out);
        }
        Ok(())
    }
}

/// Quote a field for CSV output when needed.
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Serialize records to CSV text (LF line endings).
pub fn to_string(records: &[Vec<String>]) -> String {
    let mut out = String::new();
    for rec in records {
        let mut first = true;
        for field in rec {
            if !first {
                out.push(',');
            }
            out.push_str(&quote(field));
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Convert a string field to a [`Value`] according to the column type.
/// Empty fields become NULL (the common CSV convention for missing data).
pub fn field_to_value(field: &str, ty: DataType) -> Result<Value> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Int => field
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| StoreError::Csv(format!("bad integer `{field}`: {e}"))),
        DataType::Float => field
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|e| StoreError::Csv(format!("bad float `{field}`: {e}"))),
        DataType::Text => Ok(Value::Text(field.to_owned())),
    }
}

/// Import a headered CSV document into an existing table of a database.
///
/// The header row must name a subset of the table's columns (in any order);
/// unnamed columns receive NULL. Rows are staged through the batched
/// [`crate::BulkLoader`] fast path, which enforces **every** constraint —
/// arity, column types, primary-key presence/uniqueness, and foreign keys —
/// with the per-row name resolution amortized to once per import. The
/// import is **atomic**: a failed record rolls the whole batch back inside
/// the loader, so on any error the target table is untouched and the error
/// is returned as [`StoreError::CsvRow`], carrying the 1-based CSV line
/// number and the underlying violation (the same violation a row-by-row
/// insert loop would have hit first). Returns the number of inserted rows
/// on success.
///
/// ```
/// use retro_store::{csv, Database, DataType, StoreError, TableSchema};
///
/// let mut db = Database::new();
/// db.create_table(
///     TableSchema::builder("apps").pk("id").column("name", DataType::Text).build(),
/// ).unwrap();
/// // Line 3 repeats primary key 1: nothing at all is inserted.
/// let err = csv::import_csv(&mut db, "apps", "id,name\n1,Maps\n1,Docs\n").unwrap_err();
/// assert!(matches!(err, StoreError::CsvRow { line: 3, .. }));
/// assert!(db.table("apps").unwrap().is_empty());
/// ```
pub fn import_csv(db: &mut crate::Database, table: &str, csv_text: &str) -> Result<usize> {
    let mut records = parse_records(csv_text)?;
    if records.is_empty() {
        return Err(StoreError::Csv("empty CSV document".to_owned()));
    }
    let mut loader = db.bulk();
    let handle = loader.table(table)?;
    loader.reserve(handle, records.len() - 1);
    let schema = loader.schema(handle).clone();
    // A conversion or constraint error anywhere makes the loader roll the
    // whole batch back (and its early return drops the loader,
    // reinstalling the untouched tables), so the import stays atomic
    // without any snapshot. Rows may reference earlier rows of the same
    // document — staged rows are live in the loader's indexes.
    let (mut mapping, mut inserted) = (None, 0);
    consume_records(&mut records, &mut loader, handle, &schema, &mut mapping, &mut inserted)?;
    loader.commit()?;
    Ok(inserted)
}

/// Stage drained records into the loader. The first record is the header
/// (it builds `mapping`); every later record converts and stages exactly
/// like [`import_csv`], with errors wrapped in [`StoreError::CsvRow`]
/// around the record's physical line.
fn consume_records(
    records: &mut Vec<(usize, Vec<String>)>,
    loader: &mut BulkLoader<'_>,
    handle: TableHandle,
    schema: &TableSchema,
    mapping: &mut Option<Vec<usize>>,
    inserted: &mut usize,
) -> Result<()> {
    for (line, rec) in records.drain(..) {
        match mapping {
            None => *mapping = Some(schema.column_indices(&rec)?),
            Some(mapping) => {
                let result = (|| {
                    if rec.len() != mapping.len() {
                        return Err(StoreError::ArityMismatch {
                            table: schema.name.clone(),
                            expected: mapping.len(),
                            got: rec.len(),
                        });
                    }
                    let mut row = vec![Value::Null; schema.columns.len()];
                    for (field, &col) in rec.iter().zip(mapping.iter()) {
                        row[col] = field_to_value(field, schema.columns[col].ty)?;
                    }
                    loader.stage(handle, row).map_err(|err| match err {
                        StoreError::BulkRow { source, .. } => *source,
                        other => other,
                    })
                })();
                if let Err(source) = result {
                    return Err(StoreError::CsvRow { line, source: Box::new(source) });
                }
                *inserted += 1;
            }
        }
    }
    Ok(())
}

/// Import a headered CSV document from a chunked byte stream, in bounded
/// memory.
///
/// Identical contract to [`import_csv`] — same header mapping, same
/// constraint enforcement through the batched [`crate::BulkLoader`], same
/// atomicity (any error leaves the table untouched), same
/// [`StoreError::CsvRow`] physical-line error payloads — but the document
/// is consumed incrementally from `reader` in 64 KiB chunks: only the
/// carry of an incomplete UTF-8 sequence and the record currently being
/// assembled are buffered, so a Paper-scale CSV streams through without
/// ever being resident as one allocation. Chunk boundaries may fall
/// anywhere, including inside a multi-byte character, a `\r\n` pair, or
/// an escaped quote.
///
/// On a durable database the committed batch lands in the WAL as one
/// record, like any other bulk commit.
///
/// ```
/// use retro_store::{csv, Database, DataType, TableSchema, Value};
///
/// let mut db = Database::new();
/// db.create_table(
///     TableSchema::builder("apps").pk("id").column("name", DataType::Text).build(),
/// ).unwrap();
/// let doc: &[u8] = b"id,name\n1,Maps\n2,\"Chat, Pro\"\n";
/// let n = csv::import_csv_reader(&mut db, "apps", doc).unwrap();
/// assert_eq!(n, 2);
/// assert_eq!(db.table("apps").unwrap().row_by_pk(2).unwrap()[1], Value::from("Chat, Pro"));
/// ```
pub fn import_csv_reader(
    db: &mut crate::Database,
    table: &str,
    mut reader: impl std::io::Read,
) -> Result<usize> {
    let mut loader = db.bulk();
    let handle = loader.table(table)?;
    let schema = loader.schema(handle).clone();

    let mut parser = RecordParser::new();
    let mut records: Vec<(usize, Vec<String>)> = Vec::new();
    let mut mapping: Option<Vec<usize>> = None;
    let mut inserted = 0usize;
    let mut buf = [0u8; 64 * 1024];
    let mut carry: Vec<u8> = Vec::new();

    loop {
        let n = reader.read(&mut buf).map_err(|err| StoreError::Io(err.to_string()))?;
        if n == 0 {
            break;
        }
        carry.extend_from_slice(&buf[..n]);
        let valid_len = match std::str::from_utf8(&carry) {
            Ok(_) => carry.len(),
            // A multi-byte character cut at the chunk boundary: keep the
            // prefix bytes in the carry for the next chunk.
            Err(err) if err.error_len().is_none() => err.valid_up_to(),
            Err(_) => return Err(StoreError::Csv("invalid UTF-8 in CSV input".to_owned())),
        };
        let chunk = std::str::from_utf8(&carry[..valid_len]).expect("validated prefix");
        for c in chunk.chars() {
            parser.push(c, &mut records)?;
        }
        carry.drain(..valid_len);
        consume_records(&mut records, &mut loader, handle, &schema, &mut mapping, &mut inserted)?;
    }
    if !carry.is_empty() {
        return Err(StoreError::Csv("truncated UTF-8 sequence at end of CSV input".to_owned()));
    }
    parser.finish(&mut records)?;
    consume_records(&mut records, &mut loader, handle, &schema, &mut mapping, &mut inserted)?;
    if mapping.is_none() {
        return Err(StoreError::Csv("empty CSV document".to_owned()));
    }
    loader.commit()?;
    Ok(inserted)
}

/// Export a table (all rows, all columns, with header) to CSV text.
pub fn export_csv(table: &Table) -> String {
    let mut records = Vec::with_capacity(table.len() + 1);
    records.push(table.schema().columns.iter().map(|c| c.name.clone()).collect::<Vec<_>>());
    for row in table.rows() {
        records.push(
            row.iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    other => other.to_string(),
                })
                .collect(),
        );
    }
    to_string(&records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use crate::Database;

    #[test]
    fn parse_simple() {
        let recs = parse("a,b\n1,2\n").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["1", "2"]]);
    }

    #[test]
    fn parse_quoted_commas_and_escapes() {
        let recs = parse("\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(recs, vec![vec!["x,y".to_owned(), "he said \"hi\"".to_owned()]]);
    }

    #[test]
    fn parse_embedded_newline() {
        let recs = parse("\"line1\nline2\",b\n").unwrap();
        assert_eq!(recs[0][0], "line1\nline2");
    }

    #[test]
    fn parse_crlf_and_missing_trailing_newline() {
        let recs = parse("a,b\r\nc,d").unwrap();
        assert_eq!(recs, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn parse_rejects_unterminated_quote() {
        assert!(parse("\"oops").is_err());
    }

    #[test]
    fn round_trip_through_serializer() {
        let recs = vec![vec!["plain".to_owned(), "with,comma".to_owned(), "q\"q".to_owned()]];
        let text = to_string(&recs);
        assert_eq!(parse(&text).unwrap(), recs);
    }

    #[test]
    fn field_conversion() {
        assert_eq!(field_to_value("", DataType::Int).unwrap(), Value::Null);
        assert_eq!(field_to_value("42", DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(field_to_value("1.5", DataType::Float).unwrap(), Value::Float(1.5));
        assert!(field_to_value("x", DataType::Int).is_err());
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("apps")
                .pk("id")
                .column("name", DataType::Text)
                .column("rating", DataType::Float)
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn import_with_reordered_header() {
        let mut db = sample_db();
        let n =
            import_csv(&mut db, "apps", "rating,id,name\n4.5,1,Maps\n,2,\"Chat, Pro\"\n").unwrap();
        assert_eq!(n, 2);
        let t = db.table("apps").unwrap();
        assert_eq!(t.row_by_pk(2).unwrap()[1], Value::from("Chat, Pro"));
        assert_eq!(t.row_by_pk(2).unwrap()[2], Value::Null);
    }

    #[test]
    fn import_rejects_unknown_column() {
        let mut db = sample_db();
        assert!(import_csv(&mut db, "apps", "bogus\n1\n").is_err());
    }

    #[test]
    fn import_rejects_a_header_naming_a_column_twice() {
        let mut db = sample_db();
        let err = import_csv(&mut db, "apps", "id,name,name\n1,a,b\n").unwrap_err();
        assert!(matches!(err, StoreError::DuplicateColumn { column, .. } if column == "name"));
        assert!(db.table("apps").unwrap().is_empty());
    }

    #[test]
    fn streaming_import_rejects_a_header_naming_a_column_twice() {
        let mut db = sample_db();
        let err = import_csv_reader(&mut db, "apps", &b"id,id\n3,4\n"[..]).unwrap_err();
        assert!(matches!(err, StoreError::DuplicateColumn { column, .. } if column == "id"));
        assert!(db.table("apps").unwrap().is_empty());
    }

    #[test]
    fn import_rejects_ragged_record() {
        let mut db = sample_db();
        assert!(import_csv(&mut db, "apps", "id,name\n1\n").is_err());
    }

    fn fk_db() -> Database {
        let mut db = sample_db();
        db.create_table(
            TableSchema::builder("reviews")
                .pk("id")
                .column("text", DataType::Text)
                .fk("app_id", "apps", "id")
                .build(),
        )
        .unwrap();
        db
    }

    #[test]
    fn failed_import_rolls_back_and_reports_line() {
        let mut db = sample_db();
        import_csv(&mut db, "apps", "id,name\n1,Keep\n").unwrap();
        // Line 3 has a malformed float: the whole import must be undone.
        let err = import_csv(&mut db, "apps", "id,name,rating\n2,Ok,4.0\n3,Bad,notanumber\n")
            .unwrap_err();
        match err {
            StoreError::CsvRow { line, source } => {
                assert_eq!(line, 3);
                assert!(matches!(*source, StoreError::Csv(_)));
            }
            other => panic!("expected CsvRow, got {other:?}"),
        }
        let t = db.table("apps").unwrap();
        assert_eq!(t.len(), 1, "partial import must be rolled back");
        assert!(t.contains_pk(1));
        assert!(!t.contains_pk(2));
    }

    #[test]
    fn fk_violation_is_typed_with_line_number() {
        let mut db = fk_db();
        import_csv(&mut db, "apps", "id,name\n1,Maps\n").unwrap();
        let err = import_csv(&mut db, "reviews", "id,text,app_id\n1,fine,1\n2,dangling,99\n")
            .unwrap_err();
        match err {
            StoreError::CsvRow { line, source } => {
                assert_eq!(line, 3);
                assert!(matches!(*source, StoreError::ForeignKeyViolation { .. }));
            }
            other => panic!("expected CsvRow, got {other:?}"),
        }
        assert!(db.table("reviews").unwrap().is_empty());
    }

    #[test]
    fn duplicate_pk_is_typed_and_atomic() {
        let mut db = sample_db();
        let err = import_csv(&mut db, "apps", "id,name\n1,Maps\n1,Docs\n").unwrap_err();
        match err {
            StoreError::CsvRow { line, source } => {
                assert_eq!(line, 3);
                assert!(matches!(*source, StoreError::DuplicateKey { .. }));
            }
            other => panic!("expected CsvRow, got {other:?}"),
        }
        assert!(db.table("apps").unwrap().is_empty());
    }

    #[test]
    fn ragged_record_is_an_arity_error_with_line() {
        let mut db = sample_db();
        let err = import_csv(&mut db, "apps", "id,name\n1,Maps\n2\n").unwrap_err();
        match err {
            StoreError::CsvRow { line, source } => {
                assert_eq!(line, 3);
                assert!(matches!(*source, StoreError::ArityMismatch { expected: 2, got: 1, .. }));
            }
            other => panic!("expected CsvRow, got {other:?}"),
        }
        assert!(db.table("apps").unwrap().is_empty());
    }

    #[test]
    fn error_line_accounts_for_embedded_newlines() {
        // Record 2 spans physical lines 2–3 (quoted newline), so the
        // offending duplicate-PK record starts on physical line 4.
        let mut db = sample_db();
        let err = import_csv(&mut db, "apps", "id,name\n1,\"two\nlines\"\n1,Dup\n").unwrap_err();
        match err {
            StoreError::CsvRow { line, source } => {
                assert_eq!(line, 4);
                assert!(matches!(*source, StoreError::DuplicateKey { .. }));
            }
            other => panic!("expected CsvRow, got {other:?}"),
        }
        assert!(db.table("apps").unwrap().is_empty());
    }

    #[test]
    fn rows_may_reference_earlier_rows_of_the_same_document() {
        // FK checks run per insert, so references to rows that appeared
        // earlier in the same CSV document are valid — which is why the
        // import cannot be pre-validated in a constraint-free dry run.
        let mut db = fk_db();
        import_csv(&mut db, "apps", "id,name\n1,Maps\n").unwrap();
        let n = import_csv(&mut db, "reviews", "id,text,app_id\n1,ok,1\n2,also ok,1\n").unwrap();
        assert_eq!(n, 2);
    }

    /// A reader that hands out at most `chunk` bytes per `read` call, so
    /// every boundary case (split UTF-8, split `\r\n`, split `""`) is
    /// exercised.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn streaming_import_matches_batch_import_at_every_chunk_size() {
        // Multi-byte UTF-8, quoted commas, escaped quotes, embedded and
        // CRLF newlines — every hazard that can straddle a chunk cut.
        let doc =
            "id,name,rating\n1,Müller,4.5\r\n2,\"Chat, \"\"Pro\"\"\",\n3,\"two\nlines\",1.0\n";
        let mut reference = sample_db();
        import_csv(&mut reference, "apps", doc).unwrap();
        for chunk in 1..=doc.len() {
            let mut db = sample_db();
            let n =
                import_csv_reader(&mut db, "apps", Trickle { data: doc.as_bytes(), pos: 0, chunk })
                    .unwrap();
            assert_eq!(n, 3, "chunk size {chunk}");
            assert_eq!(
                db.table("apps").unwrap().rows(),
                reference.table("apps").unwrap().rows(),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn streaming_import_is_atomic_and_reports_physical_lines() {
        // Record 2 spans physical lines 2–3, so the duplicate-PK record
        // starts on line 4 — the same contract as the batch importer,
        // even with the document trickled in 1-byte reads.
        let doc = "id,name\n1,\"two\nlines\"\n1,Dup\n";
        let mut db = sample_db();
        let err =
            import_csv_reader(&mut db, "apps", Trickle { data: doc.as_bytes(), pos: 0, chunk: 1 })
                .unwrap_err();
        match err {
            StoreError::CsvRow { line, source } => {
                assert_eq!(line, 4);
                assert!(matches!(*source, StoreError::DuplicateKey { .. }));
            }
            other => panic!("expected CsvRow, got {other:?}"),
        }
        assert!(db.table("apps").unwrap().is_empty(), "failed stream must roll back");
    }

    #[test]
    fn streaming_import_rejects_bad_utf8() {
        let mut db = sample_db();
        // Truncated 2-byte sequence at EOF, and an invalid byte mid-stream.
        let truncated: &[u8] = b"id,name\n1,M\xc3";
        assert!(matches!(
            import_csv_reader(&mut db, "apps", truncated).unwrap_err(),
            StoreError::Csv(_)
        ));
        let invalid: &[u8] = b"id,name\n1,\xff\n";
        assert!(matches!(
            import_csv_reader(&mut db, "apps", invalid).unwrap_err(),
            StoreError::Csv(_)
        ));
        assert!(db.table("apps").unwrap().is_empty());
    }

    #[test]
    fn export_import_round_trip() {
        let mut db = sample_db();
        import_csv(&mut db, "apps", "id,name,rating\n1,Maps,4.5\n2,Docs,\n").unwrap();
        let text = export_csv(db.table("apps").unwrap());

        let mut db2 = sample_db();
        import_csv(&mut db2, "apps", &text).unwrap();
        assert_eq!(db2.table("apps").unwrap().rows(), db.table("apps").unwrap().rows());
    }
}
