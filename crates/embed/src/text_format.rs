//! Word2vec text format I/O.
//!
//! Text format (as shipped by word2vec/GloVe/fastText):
//!
//! ```text
//! [<count> <dim>]            -- optional header line
//! token v1 v2 ... vD
//! ```

use crate::embedding::EmbeddingSet;

/// Error for embedding I/O.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "embedding format error: {}", self.0)
    }
}
impl std::error::Error for FormatError {}

/// Parse the word2vec text format. A `count dim` header line is detected and
/// skipped automatically. Duplicate tokens keep the first occurrence
/// (matching gensim's behaviour).
pub fn parse_text(input: &str) -> Result<EmbeddingSet, FormatError> {
    let mut tokens: Vec<String> = Vec::new();
    let mut vectors: Vec<Vec<f32>> = Vec::new();
    let mut dim: Option<usize> = None;
    let mut seen = std::collections::HashSet::new();

    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().ok_or_else(|| FormatError("blank record".into()))?;
        let rest: Vec<&str> = parts.collect();

        // Header detection: exactly two integer fields on the first line.
        if lineno == 0 && rest.len() == 1 {
            if let (Ok(_n), Ok(_d)) = (first.parse::<usize>(), rest[0].parse::<usize>()) {
                continue;
            }
        }

        let vals: Result<Vec<f32>, _> = rest.iter().map(|s| s.parse::<f32>()).collect();
        let vals = vals.map_err(|e| FormatError(format!("line {}: bad float: {e}", lineno + 1)))?;
        match dim {
            None => dim = Some(vals.len()),
            Some(d) if d != vals.len() => {
                return Err(FormatError(format!(
                    "line {}: expected {d} dims, got {}",
                    lineno + 1,
                    vals.len()
                )))
            }
            _ => {}
        }
        if seen.insert(first.to_owned()) {
            tokens.push(first.to_owned());
            vectors.push(vals);
        }
    }
    if tokens.is_empty() {
        return Err(FormatError("no embeddings found".into()));
    }
    Ok(EmbeddingSet::new(tokens, vectors))
}

/// Serialize to the word2vec text format (with header line).
pub fn to_text(set: &EmbeddingSet) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} {}\n", set.len(), set.dim()));
    for (i, token) in set.tokens().iter().enumerate() {
        out.push_str(token);
        for v in set.vector(i) {
            out.push(' ');
            out.push_str(&format!("{v}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_text_with_header() {
        let set = parse_text("2 3\nalien 1 0 0\nbrazil 0 1 0\n").unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.dim(), 3);
        assert_eq!(set.get("brazil"), Some(&[0.0, 1.0, 0.0][..]));
    }

    #[test]
    fn parse_text_without_header() {
        let set = parse_text("alien 1 0\nbrazil 0 1\n").unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn ragged_dims_rejected() {
        assert!(parse_text("a 1 2\nb 1\n").is_err());
    }

    #[test]
    fn bad_float_rejected() {
        assert!(parse_text("a x y\n").is_err());
        assert!(parse_text("").is_err());
    }

    #[test]
    fn duplicate_tokens_keep_first() {
        let set = parse_text("a 1 0\na 0 1\nb 2 2\n").unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("a"), Some(&[1.0, 0.0][..]));
    }

    #[test]
    fn text_round_trip() {
        let set = parse_text("alien 1 -0.5\nbank_account 0.25 1\n").unwrap();
        let text = to_text(&set);
        let set2 = parse_text(&text).unwrap();
        assert_eq!(set2.tokens(), set.tokens());
        assert!(set2.matrix().max_abs_diff(set.matrix()) < 1e-6);
    }
}
