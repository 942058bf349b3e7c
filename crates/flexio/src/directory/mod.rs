//! The directory service (paper §II.C.1).
//!
//! "Before actual data movement, simulation and analytics programs connect
//! to each other via assistance from an external directory server. To
//! avoid overloading this server, simulation and analytics processes,
//! respectively, elect a local coordinator. When creating a file in stream
//! mode, the coordinator of the simulation registers with the directory
//! server a file name associated with its own contact information. When
//! the analytics opens that file, its coordinator looks up the server with
//! the file name, retrieves the contact information of the simulation's
//! coordinator, and makes a connection with it. The directory server is
//! involved only in discovery and connection setup and is not in the
//! critical path of actual data movements."
//!
//! The paper runs this as one external server. Reproduced literally that
//! is a scaling wall — every coordinator in the machine funnels through a
//! single mutex — so the component is a **service behind a trait**
//! ([`DirectoryService`]) over one store, in three sizes:
//!
//! * [`ShardedDirectory`] — the registry split into N lock-striped
//!   shards keyed by stream-name hash; per-shard mutex+condvar and
//!   [`crate::protocol::DirectoryCounters`] so registration/lookup
//!   traffic (and lock contention) is observable per stripe.
//! * [`InProcDirectory`] — the paper's single server: another name for
//!   the same registry built with one stripe; the default, and still
//!   right for single-program tests.
//! * [`ReplicatedDirectory`] — a handle onto several [`DirectoryNode`]s,
//!   each a sharded store, replicating registrations via anti-entropy
//!   gossip rounds; versioned entries with tombstoned unregisters,
//!   lookups served by any node, failover when a node dies.
//!
//! Store and node are generic over the [`Contact`] they hand out. Inside
//! one program the "contact information" is an `Arc`-shared link-state
//! handle, and that is what [`DirectoryService`] speaks. Between
//! programs it is a [`WireContact`] — a socket address and some numbers —
//! and the *same* node, gossiping over socket links, is the directory
//! process [`crate::procnet::WireDirNode`] serves requests for. Either
//! way only the **coordinators** touch the directory, and only at open
//! time — the avoid-overload property is enforced structurally and
//! verified by the registration counters.

mod gossip;
mod service;
mod shard;

pub use gossip::{
    decode_contact_table, decode_digest, encode_contact_table, encode_digest, Contact, DigestEntry,
    DirectoryNode, GossipCounters, GossipSnapshot, WireContact,
};
pub use service::{DirectoryCluster, ReplicatedDirectory};
pub use shard::ShardedDirectory;

use std::sync::Arc;
use std::time::Duration;

use crate::link::LinkState;

/// Directory failure.
///
/// `#[non_exhaustive]`: the replicated backend grows failure modes a
/// single in-process map cannot have (and future backends will add more),
/// so callers must leave room for variants they don't know yet.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DirectoryError {
    /// No writer registered the name before the timeout.
    LookupTimeout(String),
    /// A writer already registered this name.
    AlreadyRegistered(String),
    /// The directory service cannot currently serve requests (every
    /// replica of a replicated backend is dead, or the backend is
    /// shutting down).
    Unavailable(String),
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::LookupTimeout(n) => write!(f, "no stream named `{n}` appeared in time"),
            DirectoryError::AlreadyRegistered(n) => write!(f, "stream `{n}` already registered"),
            DirectoryError::Unavailable(why) => write!(f, "directory unavailable: {why}"),
        }
    }
}

impl std::error::Error for DirectoryError {}

/// Connection-management service: stream name → contact registration and
/// discovery (paper §II.C.1). Object-safe so [`crate::FlexIo`], the
/// monitoring relay and the placement manager can hold any backend as
/// `Arc<dyn DirectoryService>`.
///
/// Consistency contract: [`register`](Self::register) followed by
/// [`lookup`](Self::lookup) *through the same handle* always observes the
/// registration. Replicated backends are eventually consistent across
/// handles bound to different nodes — a lookup elsewhere blocks (within
/// its timeout) until gossip delivers the entry.
pub trait DirectoryService: Send + Sync {
    /// Writer-coordinator registration of `name` → contact.
    fn register(&self, name: &str, contact: Arc<LinkState>) -> Result<(), DirectoryError>;

    /// Reader-coordinator lookup, blocking until the writer registers or
    /// `timeout` expires.
    fn lookup(&self, name: &str, timeout: Duration) -> Result<Arc<LinkState>, DirectoryError>;

    /// Non-blocking lookup (the reactor's poll-driven analogue of
    /// [`lookup`](Self::lookup)): `None` means "not registered yet", not
    /// failure. Bumps the lookup counter only on a hit, so the "directory
    /// is not in the critical path" accounting is identical to the
    /// blocking path.
    fn try_lookup(&self, name: &str) -> Option<Arc<LinkState>>;

    /// Remove a stream entry (writer close); returns whether it existed.
    fn unregister(&self, name: &str) -> bool;

    /// How many registrations the service handled — one per stream, never
    /// per rank or per step (the "not in the critical path" property).
    fn registration_count(&self) -> u64;

    /// How many successful lookups the service handled.
    fn lookup_count(&self) -> u64;
}

/// The paper's directory server: one lock, one map — a
/// [`ShardedDirectory`] of a single stripe ([`ShardedDirectory::new`]).
/// The default backend of [`crate::FlexIo`] and the baseline the
/// striped/replicated backends are measured against; share it through an
/// `Arc`.
pub type InProcDirectory = ShardedDirectory;

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn dummy_link() -> Arc<LinkState> {
        crate::link::LinkState::for_tests()
    }

    #[test]
    fn register_then_lookup() {
        let d = InProcDirectory::new();
        let link = dummy_link();
        d.register("run42/particles", Arc::clone(&link)).unwrap();
        let found = d.lookup("run42/particles", Duration::from_millis(10)).unwrap();
        assert!(Arc::ptr_eq(&link, &found));
    }

    #[test]
    fn lookup_blocks_until_registration() {
        let d = Arc::new(InProcDirectory::new());
        let d2 = Arc::clone(&d);
        let t = thread::spawn(move || d2.lookup("late", Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(30));
        d.register("late", dummy_link()).unwrap();
        assert!(t.join().unwrap().is_ok());
    }

    #[test]
    fn lookup_times_out() {
        let d = InProcDirectory::new();
        let err = d.lookup("never", Duration::from_millis(30)).err();
        assert_eq!(err, Some(DirectoryError::LookupTimeout("never".into())));
    }

    #[test]
    fn double_registration_rejected() {
        let d = InProcDirectory::new();
        d.register("s", dummy_link()).unwrap();
        assert_eq!(
            d.register("s", dummy_link()),
            Err(DirectoryError::AlreadyRegistered("s".into()))
        );
        assert!(d.unregister("s"));
        d.register("s", dummy_link()).unwrap();
    }

    #[test]
    fn counters_reflect_traffic() {
        let d = InProcDirectory::new();
        d.register("a", dummy_link()).unwrap();
        d.register("b", dummy_link()).unwrap();
        d.lookup("a", Duration::from_millis(5)).unwrap();
        d.lookup("a", Duration::from_millis(5)).unwrap();
        assert_eq!(d.registration_count(), 2);
        assert_eq!(d.lookup_count(), 2);
    }
}
