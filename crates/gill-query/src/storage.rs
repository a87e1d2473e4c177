//! Bridges the collector's storage trait into the route store.
//!
//! Plugging a [`QueryableStorage`] into `DaemonPool::drain_into` turns a
//! running collector into a live looking glass: every retained update is
//! ingested into a shared [`RouteStore`] that the HTTP layer queries
//! concurrently. The store sits behind a `parking_lot::RwLock` — ingest is
//! a short exclusive write, queries take shared reads, and the lock is
//! never held across I/O.
//!
//! With a data directory attached, the backend also drives persistence:
//! complete (aged-out) shards are sealed into segment files periodically
//! during ingest, and [`Storage::flush`] seals the remaining tail so a
//! clean shutdown loses nothing. A seal builds its segment under the
//! shared lock, so queries keep running, writes and renames the file with
//! no lock held, and takes the exclusive lock only to advance the store's
//! sealed watermarks and counters. A failed write commits nothing.

use crate::store::{RouteStore, StoreConfig};
use gill_collector::storage::{Storage, StoredUpdate};
use parking_lot::RwLock;
use std::path::PathBuf;
use std::sync::Arc;

/// Seal aged-out shards every this many stored updates (cheap no-op when
/// nothing new has aged out).
const SEAL_CHECK_EVERY: usize = 5_000;

/// A [`Storage`] backend that indexes every update into a shared
/// [`RouteStore`].
pub struct QueryableStorage {
    store: Arc<RwLock<RouteStore>>,
    stored: usize,
    data_dir: Option<PathBuf>,
}

impl Default for QueryableStorage {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl QueryableStorage {
    /// A fresh store with the given tuning.
    pub fn new(cfg: StoreConfig) -> Self {
        QueryableStorage {
            store: Arc::new(RwLock::new(RouteStore::new(cfg))),
            stored: 0,
            data_dir: None,
        }
    }

    /// Wraps an existing shared store (e.g. one pre-loaded from MRT).
    pub fn with_store(store: Arc<RwLock<RouteStore>>) -> Self {
        QueryableStorage {
            store,
            stored: 0,
            data_dir: None,
        }
    }

    /// Enables segment persistence under `dir`: aged-out shards seal during
    /// ingest, and `flush` seals the tail.
    pub fn persist_to(mut self, dir: PathBuf) -> Self {
        self.data_dir = Some(dir);
        self
    }

    /// The shared store handle, for the query/HTTP side.
    pub fn handle(&self) -> Arc<RwLock<RouteStore>> {
        self.store.clone()
    }

    fn seal(&self, all: bool) {
        let Some(dir) = &self.data_dir else {
            return;
        };
        // This backend's drain thread is the store's only sealer, so no
        // other seal can commit between the build and the commit below.
        let pending = self.store.read().prepare_seal(all);
        let Some(pending) = pending else {
            return;
        };
        match pending.write_into(dir) {
            Ok(_) => self.store.write().commit_seal(pending),
            Err(e) => eprintln!("gill-query: sealing to {} failed: {e}", dir.display()),
        }
    }
}

impl Storage for QueryableStorage {
    fn store(&mut self, rec: StoredUpdate) {
        self.store.write().ingest(rec.update);
        self.stored += 1;
        if self.stored.is_multiple_of(SEAL_CHECK_EVERY) {
            self.seal(false);
        }
    }

    fn stored(&self) -> usize {
        self.stored
    }

    fn flush(&mut self) {
        self.seal(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MatchMode;
    use bgp_types::{Asn, Prefix, Timestamp, UpdateBuilder, VpId};

    #[test]
    fn stored_updates_become_queryable() {
        let mut s = QueryableStorage::default();
        let handle = s.handle();
        for i in 0..3u32 {
            let u = UpdateBuilder::announce(VpId::from_asn(Asn(65000 + i)), Prefix::synthetic(i))
                .at(Timestamp::from_secs(i as u64))
                .path([65000 + i, 2, 3])
                .build();
            s.store(StoredUpdate { update: u });
        }
        assert_eq!(s.stored(), 3);
        let store = handle.read();
        assert_eq!(store.stats().updates, 3);
        assert_eq!(
            store
                .lookup(&Prefix::synthetic(1), MatchMode::Exact, None)
                .len(),
            1
        );
    }

    #[test]
    fn flush_seals_tail_to_data_dir() {
        let dir = std::env::temp_dir().join(format!("gill-qs-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = QueryableStorage::default().persist_to(dir.clone());
        for i in 0..5u32 {
            let u = UpdateBuilder::announce(VpId::from_asn(Asn(65000)), Prefix::synthetic(i))
                .at(Timestamp::from_secs(i as u64))
                .path([65000, 2, 3])
                .build();
            s.store(StoredUpdate { update: u });
        }
        s.flush();
        let segs = crate::segment::list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1, "flush writes exactly one tail segment");
        let mut reloaded = RouteStore::default();
        assert_eq!(reloaded.load_dir(&dir).unwrap(), 5);
        assert_eq!(reloaded.stats().updates, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_seal_write_commits_nothing() {
        // a regular file where the data directory should be
        let dir = std::env::temp_dir().join(format!("gill-qs-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::write(&dir, b"not a directory").unwrap();
        let mut s = QueryableStorage::default().persist_to(dir.clone());
        for i in 0..5u32 {
            let u = UpdateBuilder::announce(VpId::from_asn(Asn(65000)), Prefix::synthetic(i))
                .at(Timestamp::from_secs(i as u64))
                .path([65000, 2, 3])
                .build();
            s.store(StoredUpdate { update: u });
        }
        s.flush();
        let stats = s.handle().read().mem_stats();
        assert_eq!((stats.sealed_segments, stats.sealed_updates), (0, 0));

        // once the directory can be written, the next seal covers everything
        std::fs::remove_file(&dir).unwrap();
        s.flush();
        let stats = s.handle().read().mem_stats();
        assert_eq!((stats.sealed_segments, stats.sealed_updates), (1, 5));
        let segs = crate::segment::list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(RouteStore::default().load_dir(&dir).unwrap(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
