//! The lock-striped registry: N shards keyed by stream-name hash.
//!
//! Each shard is its own mutex+condvar+counter block, so concurrent
//! coordinators registering and looking up *different* streams touch
//! different locks — the single-map directory serialized all of them
//! behind one mutex, which ROADMAP called out as the scaling wall.
//!
//! Entries are **versioned** and unregisters leave **tombstones** instead
//! of removing the key. A standalone [`ShardedDirectory`] doesn't need
//! either, but the gossip layer does (a removal that simply vanished
//! could be resurrected by a stale peer digest); keeping one entry shape
//! means the replicated nodes reuse this store unchanged — and keeping it
//! generic over the contact payload `C` means the in-process nodes
//! (`Arc<LinkState>`) and the cross-process ones
//! ([`super::WireContact`]) are the same store with the same
//! [`merge`](ShardedDirectory::merge).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use evpath::{fnv1a64, FNV_OFFSET};

use crate::link::LinkState;
use crate::protocol::{DirectoryCounters, DirectorySnapshot};

use super::{DirectoryError, DirectoryService};

/// One registry entry. `(version, origin)` orders concurrent updates
/// cluster-wide: higher version wins, ties broken by higher origin node
/// id, so every node converges to the same winner regardless of the
/// order gossip delivered the candidates.
#[derive(Clone)]
pub(crate) struct VersionedEntry<C> {
    /// The contact, or `None` for a tombstoned (unregistered) name.
    pub contact: Option<C>,
    /// Monotonic per-name version; bumped by every register/unregister.
    pub version: u64,
    /// Node id that produced this version (0 for standalone stores).
    pub origin: u64,
    /// Cluster-wide contact token the digest carries in place of the
    /// contact itself (0 = none).
    pub token: u64,
}

impl<C> VersionedEntry<C> {
    /// Replication ordering (see struct docs).
    fn beats(&self, other: &VersionedEntry<C>) -> bool {
        (self.version, self.origin) > (other.version, other.origin)
    }
}

struct Shard<C> {
    entries: Mutex<HashMap<String, VersionedEntry<C>>>,
    ready: Condvar,
    counters: DirectoryCounters,
}

impl<C> Shard<C> {
    /// Lock the shard, counting the acquisitions that had to wait — the
    /// contention the striping exists to eliminate.
    fn lock(&self) -> MutexGuard<'_, HashMap<String, VersionedEntry<C>>> {
        if let Ok(guard) = self.entries.try_lock() {
            return guard;
        }
        self.counters.contended.fetch_add(1, Ordering::Relaxed);
        self.entries.lock().unwrap()
    }
}

/// The directory registry split into N lock-striped shards keyed by
/// stream-name hash. Implements [`DirectoryService`] directly (a
/// single-node sharded server) and doubles as the per-node store of the
/// gossip-replicated cluster, in-process or across processes.
pub struct ShardedDirectory<C = Arc<LinkState>> {
    shards: Box<[Shard<C>]>,
    /// Node id stamped into entry origins (0 for standalone use).
    origin: u64,
}

impl ShardedDirectory {
    /// The paper's one-stripe server ([`super::InProcDirectory`]).
    pub fn new() -> ShardedDirectory {
        ShardedDirectory::striped(1)
    }

    /// A registry striped over `shards` locks (at least 1).
    pub fn striped(shards: usize) -> ShardedDirectory {
        ShardedDirectory::with_origin(shards, 0)
    }
}

impl Default for ShardedDirectory {
    fn default() -> Self {
        ShardedDirectory::new()
    }
}

impl<C: Clone> ShardedDirectory<C> {
    /// A registry whose locally-produced entries carry `origin` (the
    /// owning cluster node's id).
    pub(crate) fn with_origin(shards: usize, origin: u64) -> ShardedDirectory<C> {
        let shards = shards.max(1);
        ShardedDirectory {
            shards: (0..shards)
                .map(|_| Shard {
                    entries: Mutex::new(HashMap::new()),
                    ready: Condvar::new(),
                    counters: DirectoryCounters::default(),
                })
                .collect(),
            origin,
        }
    }

    fn shard_of(&self, name: &str) -> &Shard<C> {
        &self.shards[self.shard_index(name)]
    }

    /// Which stripe serves `name`: its FNV-1a 64 modulo the stripe count,
    /// so the assignment is stable across runs and nodes.
    pub fn shard_index(&self, name: &str) -> usize {
        (fnv1a64(FNV_OFFSET, name.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Per-shard counter snapshots, index = shard.
    pub fn shard_snapshots(&self) -> Vec<DirectorySnapshot> {
        self.shards.iter().map(|s| s.counters.snapshot()).collect()
    }

    /// Register with an explicit token (gossip nodes pre-assign tokens so
    /// the entry can cross the wire). Returns the entry's new version.
    /// A live name is an error unless `overwrite` — the cross-process
    /// register, where a restarted rank re-registers the name its dead
    /// incarnation left behind.
    pub(crate) fn register_local(
        &self,
        name: &str,
        contact: C,
        token: u64,
        overwrite: bool,
    ) -> Result<u64, DirectoryError> {
        let shard = self.shard_of(name);
        let mut entries = shard.lock();
        let version = match entries.get(name) {
            Some(e) if e.contact.is_some() && !overwrite => {
                return Err(DirectoryError::AlreadyRegistered(name.to_string()));
            }
            Some(previous) => previous.version + 1,
            None => 1,
        };
        entries.insert(
            name.to_string(),
            VersionedEntry { contact: Some(contact), version, origin: self.origin, token },
        );
        shard.counters.registrations.fetch_add(1, Ordering::Relaxed);
        shard.ready.notify_all();
        Ok(version)
    }

    /// Tombstone a name; returns the tombstone's version if the name was
    /// live.
    pub(crate) fn unregister_local(&self, name: &str) -> Option<u64> {
        let shard = self.shard_of(name);
        let mut entries = shard.lock();
        let entry = entries.get_mut(name)?;
        entry.contact.as_ref()?;
        entry.contact = None;
        entry.token = 0;
        entry.version += 1;
        entry.origin = self.origin;
        let version = entry.version;
        shard.counters.unregisters.fetch_add(1, Ordering::Relaxed);
        Some(version)
    }

    /// Apply a replicated entry if it beats the local one (anti-entropy
    /// merge). Does **not** bump the registration counters — those count
    /// client traffic, not replication. Returns whether the entry was
    /// applied.
    pub(crate) fn merge(&self, name: &str, incoming: VersionedEntry<C>) -> bool {
        let shard = self.shard_of(name);
        let mut entries = shard.lock();
        match entries.get(name) {
            Some(local) if !incoming.beats(local) => return false,
            _ => {}
        }
        let wake = incoming.contact.is_some();
        entries.insert(name.to_string(), incoming);
        if wake {
            shard.ready.notify_all();
        }
        true
    }

    /// Snapshot every entry (gossip digest source).
    pub(crate) fn export(&self) -> Vec<(String, VersionedEntry<C>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (name, entry) in shard.lock().iter() {
                out.push((name.clone(), entry.clone()));
            }
        }
        out
    }

    /// Non-blocking lookup; bumps the lookup counter only on a hit.
    pub(crate) fn lookup_local(&self, name: &str) -> Option<C> {
        let shard = self.shard_of(name);
        let contact = shard.lock().get(name)?.contact.clone()?;
        shard.counters.lookups.fetch_add(1, Ordering::Relaxed);
        Some(contact)
    }
}

impl DirectoryService for ShardedDirectory {
    fn register(&self, name: &str, contact: Arc<LinkState>) -> Result<(), DirectoryError> {
        self.register_local(name, contact, 0, false).map(|_| ())
    }

    fn lookup(&self, name: &str, timeout: Duration) -> Result<Arc<LinkState>, DirectoryError> {
        // A registration or merge of `name` notifies the shard's condvar,
        // so a lookup blocked on a late writer wakes as soon as it lands.
        let shard = self.shard_of(name);
        let (entries, _) = shard
            .ready
            .wait_timeout_while(shard.lock(), timeout, |entries| {
                entries.get(name).is_none_or(|e| e.contact.is_none())
            })
            .unwrap();
        let contact = entries
            .get(name)
            .and_then(|e| e.contact.clone())
            .ok_or_else(|| DirectoryError::LookupTimeout(name.to_string()))?;
        shard.counters.lookups.fetch_add(1, Ordering::Relaxed);
        Ok(contact)
    }

    fn try_lookup(&self, name: &str) -> Option<Arc<LinkState>> {
        self.lookup_local(name)
    }

    fn unregister(&self, name: &str) -> bool {
        self.unregister_local(name).is_some()
    }

    fn registration_count(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.snapshot().registrations).sum()
    }

    fn lookup_count(&self) -> u64 {
        self.shards.iter().map(|s| s.counters.snapshot().lookups).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn dummy_link() -> Arc<LinkState> {
        crate::link::LinkState::for_tests()
    }

    #[test]
    fn behaves_like_the_single_map_directory() {
        let d = ShardedDirectory::striped(8);
        let link = dummy_link();
        d.register("s", Arc::clone(&link)).unwrap();
        assert!(Arc::ptr_eq(&link, &d.lookup("s", Duration::from_millis(5)).unwrap()));
        assert_eq!(
            d.register("s", dummy_link()),
            Err(DirectoryError::AlreadyRegistered("s".into()))
        );
        assert!(d.unregister("s"));
        assert!(!d.unregister("s"), "second unregister is a no-op");
        d.register("s", dummy_link()).unwrap();
        assert_eq!(d.registration_count(), 2);
        assert_eq!(d.lookup_count(), 1);
    }

    #[test]
    fn an_unbounded_lookup_of_a_registered_name_returns_it() {
        let d = ShardedDirectory::striped(8);
        let link = dummy_link();
        d.register("s", Arc::clone(&link)).unwrap();
        assert!(Arc::ptr_eq(&link, &d.lookup("s", Duration::MAX).unwrap()));
    }

    #[test]
    fn one_shard_degenerates_to_single_map() {
        let d = ShardedDirectory::striped(1);
        for i in 0..16 {
            d.register(&format!("s{i}"), dummy_link()).unwrap();
        }
        assert_eq!(d.shards.len(), 1);
        assert_eq!(d.shard_snapshots()[0].registrations, 16);
    }

    #[test]
    fn names_spread_across_shards() {
        let d = ShardedDirectory::striped(8);
        for i in 0..64 {
            d.register(&format!("stream/{i}"), dummy_link()).unwrap();
        }
        let active = d.shard_snapshots().iter().filter(|s| s.registrations > 0).count();
        assert!(active >= 4, "64 names must spread over the 8 stripes, hit {active}");
        assert_eq!(d.registration_count(), 64);
    }

    #[test]
    fn shard_assignment_is_stable() {
        let a = ShardedDirectory::striped(8);
        let b = ShardedDirectory::striped(8);
        for name in ["x", "run42/particles", "a/very/long/stream/name"] {
            assert_eq!(a.shard_index(name), b.shard_index(name));
        }
    }

    #[test]
    fn blocking_lookup_wakes_on_its_shard() {
        let d = Arc::new(ShardedDirectory::striped(8));
        let d2 = Arc::clone(&d);
        let t = thread::spawn(move || d2.lookup("late", Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        d.register("late", dummy_link()).unwrap();
        assert!(t.join().unwrap().is_ok());
    }

    #[test]
    fn reregistration_after_tombstone_bumps_version() {
        let d = ShardedDirectory::striped(4);
        assert_eq!(d.register_local("s", dummy_link(), 0, false).unwrap(), 1);
        assert_eq!(d.unregister_local("s"), Some(2));
        assert_eq!(d.register_local("s", dummy_link(), 0, false).unwrap(), 3);
        // The cross-process register: a live name is replaced, one
        // version up, where the in-process one refuses.
        assert!(d.register_local("s", dummy_link(), 0, false).is_err());
        let second = dummy_link();
        assert_eq!(d.register_local("s", Arc::clone(&second), 0, true).unwrap(), 4);
        assert!(Arc::ptr_eq(&second, &d.try_lookup("s").unwrap()));
    }

    #[test]
    fn merge_respects_version_origin_order() {
        let d = ShardedDirectory::with_origin(4, 1);
        d.register_local("s", dummy_link(), 7, false).unwrap();
        // A stale replica (version 0) must not clobber the live entry.
        let stale = VersionedEntry { contact: None, version: 0, origin: 9, token: 0 };
        assert!(!d.merge("s", stale));
        assert!(d.try_lookup("s").is_some());
        // A newer tombstone wins.
        let newer = VersionedEntry { contact: None, version: 2, origin: 0, token: 0 };
        assert!(d.merge("s", newer));
        assert!(d.try_lookup("s").is_none());
        // Same version: higher origin wins the tie.
        let tie = VersionedEntry { contact: Some(dummy_link()), version: 2, origin: 3, token: 11 };
        assert!(d.merge("s", tie));
        assert!(d.try_lookup("s").is_some());
    }
}
