//! A thread-safe database handle for concurrent readers.
//!
//! RETRO's extraction phase is read-only over the whole database, and the
//! evaluation harness likes to score several embedding variants in
//! parallel. [`SharedDatabase`] wraps a [`Database`] in a read-write lock:
//! many concurrent readers, exclusive writers, no lock poisoning to handle.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::Database;

/// A cloneable, thread-safe handle to a database.
#[derive(Clone, Debug, Default)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Database>>,
}

impl SharedDatabase {
    /// Wrap a database.
    pub fn new(db: Database) -> Self {
        Self { inner: Arc::new(RwLock::new(db)) }
    }

    /// Acquire a shared read guard.
    ///
    /// A writer that panicked does not poison the handle: every mutating
    /// store path validates before it touches memory, so the state a
    /// panicking writer leaves is one a later reader may see.
    pub fn read(&self) -> RwLockReadGuard<'_, Database> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard (poison is recovered, as in
    /// [`SharedDatabase::read`]).
    pub fn write(&self) -> RwLockWriteGuard<'_, Database> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run a closure with read access (convenience for short scopes).
    pub fn with_read<T>(&self, f: impl FnOnce(&Database) -> T) -> T {
        f(&self.read())
    }

    /// Run a closure with write access.
    pub fn with_write<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        f(&mut self.write())
    }

    /// The wrapped database's monotonic [`Database::write_version`].
    ///
    /// Takes (and immediately releases) a read guard, so the answer is a
    /// consistent point-in-time observation. `retro_core`'s serving layer
    /// polls this to detect that a published embedding snapshot has gone
    /// stale.
    pub fn write_version(&self) -> u64 {
        self.read().write_version()
    }
}

impl From<Database> for SharedDatabase {
    fn from(db: Database) -> Self {
        Self::new(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sql, Value};

    fn seeded() -> SharedDatabase {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT);
             INSERT INTO t VALUES (1, 'a'), (2, 'b');",
        )
        .unwrap();
        SharedDatabase::new(db)
    }

    #[test]
    fn concurrent_readers_see_consistent_state() {
        let shared = seeded();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = shared.clone();
                std::thread::spawn(move || s.with_read(|db| db.table("t").unwrap().len()))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 2);
        }
    }

    #[test]
    fn writes_are_visible_to_subsequent_readers() {
        let shared = seeded();
        shared.with_write(|db| {
            db.insert("t", vec![Value::Int(3), Value::from("c")]).unwrap();
        });
        assert_eq!(shared.with_read(|db| db.table("t").unwrap().len()), 3);
    }

    #[test]
    fn a_panicked_writer_does_not_poison_the_handle() {
        let shared = seeded();
        let s = shared.clone();
        let panicked = std::thread::spawn(move || {
            s.with_write(|db| {
                db.insert("t", vec![Value::Int(3), Value::from("c")]).unwrap();
                panic!("writer dies holding the lock");
            })
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(shared.with_read(|db| db.table("t").unwrap().len()), 3);
        shared.with_write(|db| db.insert("t", vec![Value::Int(4), Value::from("d")]).unwrap());
        assert_eq!(shared.with_read(|db| db.table("t").unwrap().len()), 4);
    }

    #[test]
    fn clones_share_the_same_database() {
        let a = seeded();
        let b = a.clone();
        a.with_write(|db| {
            db.insert("t", vec![Value::Int(3), Value::from("c")]).unwrap();
        });
        assert_eq!(b.with_read(|db| db.table("t").unwrap().len()), 3);
    }
}
