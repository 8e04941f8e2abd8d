//! # retro-bench
//!
//! The experiment-reproduction harness: shared helpers used by the
//! `table*`/`fig*` binaries (one per table/figure of the paper's
//! evaluation) and the criterion microbenches.

pub mod grid;
pub mod scan_extract;

use std::fmt::Write as _;
use std::time::Instant;

use retro_eval::{EmbeddingKind, EmbeddingSuite};
use retro_linalg::stats::Summary;
use retro_linalg::Matrix;

/// Wall-clock one closure, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// An empty database with `db`'s schemas, plus the creation order that made
/// them valid: parents before children (`create_table` refuses a child
/// before its parents exist), found by fixed-point retries. Loading tables
/// one at a time in the returned order never sees a dangling foreign key —
/// the shape the ingest benchmarks (`paper_scale_profile`, `bulk_ingest`)
/// need.
pub fn schema_only_clone(db: &retro_store::Database) -> (retro_store::Database, Vec<String>) {
    let mut out = retro_store::Database::new();
    let mut order = Vec::new();
    let mut remaining: Vec<_> = db.tables().map(|t| t.schema().clone()).collect();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|schema| {
            let failed = out.create_table(schema.clone()).is_err();
            if !failed {
                order.push(schema.name.clone());
            }
            failed
        });
        assert!(remaining.len() < before, "foreign-key cycle in schema set");
    }
    (out, order)
}

/// Clone every row of `db` into plain per-table vectors following `order`
/// — the pre-materialized input shape both ingest paths consume, so timed
/// regions can exclude (or at least share identically) the clone cost.
pub fn materialize_rows(
    db: &retro_store::Database,
    order: &[String],
) -> Vec<(String, Vec<Vec<retro_store::Value>>)> {
    order
        .iter()
        .map(|name| {
            let table = db.table(name).expect("order comes from this database");
            (name.clone(), table.rows().to_vec())
        })
        .collect()
}

/// Gather the embedding rows of the labelled directors: `(inputs, labels)`.
///
/// Directors missing from the catalog (none, in practice) are skipped so
/// inputs and labels stay aligned.
pub fn director_task_inputs(
    suite: &EmbeddingSuite,
    kind: EmbeddingKind,
    labels: &[(String, bool)],
) -> (Matrix, Vec<bool>) {
    let matrix = suite.matrix(kind);
    let mut rows = Vec::with_capacity(labels.len());
    let mut ys = Vec::with_capacity(labels.len());
    for (name, is_us) in labels {
        if let Some(id) = suite.catalog.lookup("persons", "name", name) {
            rows.push(matrix.row(id).to_vec());
            ys.push(*is_us);
        }
    }
    (Matrix::from_rows(&rows), ys)
}

/// Gather `(inputs, labels)` for movie-title-keyed tasks (language
/// imputation, budget regression). `titles[i]` must be the title of movie
/// `i`; labels are carried along for titles found in the catalog.
pub fn movie_task_inputs<L: Clone>(
    suite: &EmbeddingSuite,
    kind: EmbeddingKind,
    titles: &[String],
    labels: &[L],
) -> (Matrix, Vec<L>) {
    assert_eq!(titles.len(), labels.len(), "movie_task_inputs: title/label mismatch");
    let matrix = suite.matrix(kind);
    let mut rows = Vec::with_capacity(titles.len());
    let mut ys = Vec::with_capacity(titles.len());
    for (title, label) in titles.iter().zip(labels) {
        if let Some(id) = suite.catalog.lookup("movies", "title", title) {
            rows.push(matrix.row(id).to_vec());
            ys.push(label.clone());
        }
    }
    (Matrix::from_rows(&rows), ys)
}

/// One row of an experiment report.
#[derive(Clone, Debug)]
pub struct ReportRow {
    /// Series label (embedding kind, method name, parameter setting, …).
    pub label: String,
    /// Mean of the metric over repetitions.
    pub mean: f64,
    /// Standard deviation over repetitions.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of repetitions.
    pub n: usize,
}

impl ReportRow {
    /// Summarize a sample set under a label.
    pub fn from_samples(label: impl Into<String>, samples: &[f64]) -> Self {
        let s = Summary::of(samples);
        Self {
            label: label.into(),
            mean: s.mean,
            std_dev: s.std_dev,
            min: s.min,
            max: s.max,
            n: s.n,
        }
    }
}

/// Print a report as an aligned text table (the shape the paper's figures
/// report: method, mean ± deviation).
pub fn print_report(title: &str, metric: &str, rows: &[ReportRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>12} {:>4}",
        "method", metric, "+/-", "min", "max", "n"
    );
    for row in rows {
        println!(
            "{:<10} {:>14.4} {:>12.4} {:>12.4} {:>12.4} {:>4}",
            row.label, row.mean, row.std_dev, row.min, row.max, row.n
        );
    }
}

/// Serialize a report to JSON: `{"title", "rows": [{"label", "mean",
/// "std_dev", "min", "max", "n"}, ..]}`, indented by two spaces.
pub fn report_json(title: &str, rows: &[ReportRow]) -> String {
    let mut out = format!("{{\n  \"title\": {},\n  \"rows\": ", json_string(title));
    if rows.is_empty() {
        out.push_str("[]");
    } else {
        out.push('[');
        for (i, row) in rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {{\n      \"label\": {},", json_string(&row.label));
            for (name, v) in
                [("mean", row.mean), ("std_dev", row.std_dev), ("min", row.min), ("max", row.max)]
            {
                let _ = write!(out, "\n      \"{name}\": {},", json_number(v));
            }
            let _ = write!(out, "\n      \"n\": {}\n    }}", row.n);
        }
        out.push_str("\n  ]");
    }
    out.push_str("\n}");
    out
}

/// A JSON number. JSON has no NaN or infinities, so those are `null`;
/// integral values keep one decimal (`1.0`), others print in Rust's
/// shortest round-trip form.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        v.to_string()
    }
}

/// A quoted JSON string with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Write a JSON report under the workspace root's `results/` (created on
/// demand), returning the path — the machine-readable artifacts
/// EXPERIMENTS.md references. Anchored at the workspace root rather than
/// the CWD because criterion benches run with the *package* directory as
/// CWD while the experiment binaries run from the repo root.
pub fn write_report(name: &str, title: &str, rows: &[ReportRow]) -> std::path::PathBuf {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, report_json(title, rows)).expect("write report");
    path
}

/// Parse `--flag value` style options from `std::env::args` with defaults —
/// just enough CLI for the experiment binaries without a dependency.
pub fn arg_value(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == format!("--{name}") {
            return pair[1].clone();
        }
    }
    default.to_owned()
}

/// Parse a numeric `--flag value` option.
pub fn arg_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == format!("--{name}") {
            if let Ok(v) = pair[1].parse() {
                return v;
            }
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_row_summarizes() {
        let row = ReportRow::from_samples("RN", &[0.9, 0.8, 1.0]);
        assert!((row.mean - 0.9).abs() < 1e-12);
        assert_eq!(row.n, 3);
        assert_eq!(row.min, 0.8);
    }

    /// Labels and numbers that exercise every escape and number form.
    fn golden_rows() -> Vec<ReportRow> {
        vec![
            ReportRow::from_samples("RN", &[0.9, 0.8, 1.0]),
            ReportRow::from_samples("PV \"q\" \\ /\n\r\t\u{1}é", &[0.5]),
            ReportRow::from_samples("big", &[1e20, -3.25, 123456789.0]),
            ReportRow {
                label: "edge".into(),
                mean: f64::NAN,
                std_dev: f64::INFINITY,
                min: -0.0,
                max: 1e-7,
                n: 0,
            },
        ]
    }

    /// The bytes the earlier serde-based writer produced for the same rows.
    #[test]
    fn report_json_matches_the_golden_bytes() {
        let golden = r#"{
  "title": "golden \"t\"",
  "rows": [
    {
      "label": "RN",
      "mean": 0.9,
      "std_dev": 0.08164965809277258,
      "min": 0.8,
      "max": 1.0,
      "n": 3
    },
    {
      "label": "PV \"q\" \\ /\n\r\t\u0001é",
      "mean": 0.5,
      "std_dev": 0.0,
      "min": 0.5,
      "max": 0.5,
      "n": 1
    },
    {
      "label": "big",
      "mean": 33333333333374484000,
      "std_dev": 47140452079074070000,
      "min": -3.25,
      "max": 100000000000000000000,
      "n": 3
    },
    {
      "label": "edge",
      "mean": null,
      "std_dev": null,
      "min": -0.0,
      "max": 0.0000001,
      "n": 0
    }
  ]
}"#;
        assert_eq!(report_json("golden \"t\"", &golden_rows()), golden);
        assert_eq!(report_json("empty", &[]), "{\n  \"title\": \"empty\",\n  \"rows\": []\n}");
    }

    /// Consume one JSON value at `s[*i..]`; false when it is malformed.
    fn json_value(s: &[u8], i: &mut usize) -> bool {
        fn skip_ws(s: &[u8], i: &mut usize) {
            while s.get(*i).is_some_and(|c| c.is_ascii_whitespace()) {
                *i += 1;
            }
        }
        fn eat(s: &[u8], i: &mut usize, c: u8) -> bool {
            skip_ws(s, i);
            let hit = s.get(*i) == Some(&c);
            *i += hit as usize;
            hit
        }
        fn string(s: &[u8], i: &mut usize) -> bool {
            if !eat(s, i, b'"') {
                return false;
            }
            while let Some(&c) = s.get(*i) {
                *i += 1;
                match c {
                    b'"' => return true,
                    b'\\' => *i += 1,
                    c if c < 0x20 => return false,
                    _ => {}
                }
            }
            false
        }
        fn items(s: &[u8], i: &mut usize, close: u8, item: fn(&[u8], &mut usize) -> bool) -> bool {
            *i += 1;
            if eat(s, i, close) {
                return true;
            }
            loop {
                if !item(s, i) {
                    return false;
                }
                if eat(s, i, close) {
                    return true;
                }
                if !eat(s, i, b',') {
                    return false;
                }
            }
        }
        skip_ws(s, i);
        match s.get(*i) {
            Some(b'{') => {
                items(s, i, b'}', |s, i| string(s, i) && eat(s, i, b':') && json_value(s, i))
            }
            Some(b'[') => items(s, i, b']', json_value),
            Some(b'"') => string(s, i),
            Some(b'n') if s[*i..].starts_with(b"null") => {
                *i += 4;
                true
            }
            _ => {
                let start = *i;
                while s.get(*i).is_some_and(|c| b"+-.eE".contains(c) || c.is_ascii_digit()) {
                    *i += 1;
                }
                std::str::from_utf8(&s[start..*i]).is_ok_and(|n| n.parse::<f64>().is_ok())
            }
        }
    }

    #[test]
    fn report_json_is_valid() {
        for json in [report_json("golden", &golden_rows()), report_json("empty", &[])] {
            let bytes = json.as_bytes();
            let mut at = 0;
            assert!(json_value(bytes, &mut at) && at == bytes.len(), "{json}");
        }
    }

    #[test]
    fn time_measures_positive_duration() {
        let (value, secs) = time(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn arg_helpers_fall_back_to_defaults() {
        assert_eq!(arg_value("no-such-flag", "dflt"), "dflt");
        assert_eq!(arg_num::<usize>("no-such-flag", 7), 7);
    }
}
