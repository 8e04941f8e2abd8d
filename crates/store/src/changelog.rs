//! The bounded change log behind delta-scoped refresh.
//!
//! [`crate::Database::write_version`] answers "did anything change?" with
//! one integer compare; the change log answers the follow-up question
//! "what changed?" precisely enough for an observer to maintain derived
//! state incrementally. Every mutating operation appends one
//! [`ChangeRecord`] — which table, what kind of change, and the write
//! version the change produced — and `retro-core`'s delta refresh replays
//! the records it has not seen yet instead of re-reading the world.
//!
//! The log is **bounded**: it keeps the most recent
//! [`ChangeLog::capacity`] records and evicts the oldest beyond that.
//! [`ChangeLog::changes_since`] returns `None` once eviction has eaten
//! past the requested version, which observers must treat as "anything may
//! have changed" (in `retro-core` that triggers the full-refresh
//! fallback). Records are deliberately small — positions for appends,
//! counts for everything else — so the log's memory use is bounded by
//! `capacity`, not by the size of the mutations it describes.

use std::collections::VecDeque;

/// What one mutation did to one table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableChange {
    /// The table was created (empty).
    Created,
    /// `rows` rows were appended starting at position `start`; no existing
    /// row was touched. The positions stay valid until a `Deleted` record
    /// for the same table appears later in the log.
    Appended {
        /// Position of the first appended row.
        start: usize,
        /// Number of appended rows.
        rows: usize,
    },
    /// Cells of `rows` existing rows were rewritten in place. `relational`
    /// is true when a TEXT or foreign-key column was assigned — the
    /// changes that can alter the text-value graph downstream; an update
    /// confined to plain numeric columns cannot.
    Updated {
        /// Number of rows with at least one rewritten cell.
        rows: usize,
        /// True when a TEXT or foreign-key column was assigned.
        relational: bool,
    },
    /// `rows` rows were removed; positions of the survivors shifted.
    Deleted {
        /// Number of removed rows.
        rows: usize,
    },
}

/// One recorded mutation: the table, the change, and the write version the
/// mutation produced (each record owns exactly one version bump).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangeRecord {
    /// [`crate::Database::write_version`] immediately after this change.
    pub version: u64,
    /// Name of the mutated table.
    pub table: String,
    /// What happened.
    pub change: TableChange,
}

/// A bounded FIFO of [`ChangeRecord`]s. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ChangeLog {
    records: VecDeque<ChangeRecord>,
    capacity: usize,
    /// Oldest `since` argument the log can still answer: eviction of a
    /// record with version `v` raises this to `v`.
    base: u64,
}

/// Default number of records retained (see [`ChangeLog::capacity`]).
pub const DEFAULT_CHANGE_LOG_CAPACITY: usize = 4096;

impl Default for ChangeLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CHANGE_LOG_CAPACITY)
    }
}

impl ChangeLog {
    /// An empty log retaining at most `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { records: VecDeque::new(), capacity: capacity.max(1), base: 0 }
    }

    /// Maximum number of records retained before the oldest is evicted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Change the retention bound, evicting oldest records if the log
    /// already exceeds it.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.records.len() > self.capacity {
            self.evict_oldest();
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append a record, evicting the oldest if the log is full.
    pub(crate) fn push(&mut self, record: ChangeRecord) {
        if self.records.len() == self.capacity {
            self.evict_oldest();
        }
        self.records.push_back(record);
    }

    fn evict_oldest(&mut self) {
        if let Some(evicted) = self.records.pop_front() {
            self.base = evicted.version;
        }
    }

    /// Oldest `since` argument still answerable (snapshot serialization).
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Retained records, oldest first (snapshot serialization).
    pub(crate) fn records(&self) -> impl Iterator<Item = &ChangeRecord> {
        self.records.iter()
    }

    /// Rebuild the log from persisted parts (snapshot recovery). The
    /// records must already respect `capacity`; the writer serialized a
    /// log that did, so a violation here means the snapshot is corrupt
    /// and the caller rejects it before calling this.
    pub(crate) fn restore(capacity: usize, base: u64, records: Vec<ChangeRecord>) -> Self {
        Self { records: records.into(), capacity: capacity.max(1), base }
    }

    /// Every change recorded after write version `since`, oldest first, or
    /// `None` when eviction has truncated the log past `since` (the
    /// history is incomplete and the observer must assume anything
    /// changed).
    pub fn changes_since(&self, since: u64) -> Option<Vec<&ChangeRecord>> {
        if since < self.base {
            return None;
        }
        Some(self.records.iter().filter(|r| r.version > since).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(version: u64) -> ChangeRecord {
        ChangeRecord { version, table: "t".into(), change: TableChange::Created }
    }

    #[test]
    fn changes_since_filters_by_version() {
        let mut log = ChangeLog::with_capacity(10);
        for v in 1..=5 {
            log.push(rec(v));
        }
        let since_2 = log.changes_since(2).unwrap();
        assert_eq!(since_2.iter().map(|r| r.version).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert!(log.changes_since(5).unwrap().is_empty());
        assert!(log.changes_since(0).is_some());
    }

    #[test]
    fn overflow_truncates_history() {
        let mut log = ChangeLog::with_capacity(3);
        for v in 1..=5 {
            log.push(rec(v));
        }
        assert_eq!(log.len(), 3);
        // Versions 1 and 2 were evicted: asking for history from before
        // version 2 is unanswerable, from 2 onward still is.
        assert_eq!(log.changes_since(0), None);
        assert_eq!(log.changes_since(1), None);
        let since_2 = log.changes_since(2).unwrap();
        assert_eq!(since_2.iter().map(|r| r.version).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn shrinking_capacity_evicts_oldest() {
        let mut log = ChangeLog::with_capacity(10);
        for v in 1..=5 {
            log.push(rec(v));
        }
        log.set_capacity(2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.changes_since(2), None);
        assert_eq!(log.changes_since(3).unwrap().len(), 2);
    }
}
