//! The runtime context a coupled deployment shares — directory service,
//! interconnect model, machine description — and the stream `open_*`
//! calls that turn it into engines, with the error type they report.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use machine::{CoreLocation, MachineModel};
use netsim::NetSim;
use parking_lot::Mutex;

use crate::directory::{DirectoryError, DirectoryService, InProcDirectory};
use crate::hints::StreamHints;
use crate::link::{poll_until, LinkState};
use crate::reader::StreamReader;
use crate::writer::StreamWriter;

/// Stream-layer error.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// Peer did not produce a message within timeout × retries.
    Timeout,
    /// A message failed to decode.
    Corrupt(String),
    /// Protocol violation (unexpected message kind).
    Protocol(String),
    /// Directory failure at open.
    Directory(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Timeout => write!(f, "receive timed out after retries"),
            StreamError::Corrupt(m) => write!(f, "corrupt message: {m}"),
            StreamError::Protocol(m) => write!(f, "protocol violation: {m}"),
            StreamError::Directory(m) => write!(f, "directory: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DirectoryError> for StreamError {
    fn from(e: DirectoryError) -> Self {
        StreamError::Directory(e.to_string())
    }
}

/// The FlexIO runtime context: directory service + interconnect model +
/// machine description. One per coupled-application deployment; clone
/// freely.
#[derive(Clone)]
pub struct FlexIo {
    directory: Arc<dyn DirectoryService>,
    net: Option<NetSim>,
    machine: Arc<MachineModel>,
    /// Program-local bulletin letting non-coordinator ranks find the link
    /// their coordinator opened (the directory itself stays
    /// coordinator-only, as in the paper).
    bulletin: Arc<Mutex<HashMap<String, Arc<LinkState>>>>,
}

impl FlexIo {
    /// Build a runtime for `machine`, with an RDMA fabric spanning
    /// `active_nodes` compute nodes.
    pub fn new(machine: MachineModel, active_nodes: usize) -> FlexIo {
        let net = NetSim::new(machine.interconnect, active_nodes.max(1));
        FlexIo {
            directory: Arc::new(InProcDirectory::new()),
            net: Some(net),
            machine: Arc::new(machine),
            bulletin: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Single-node runtime (no interconnect model) for tests and
    /// helper-core/inline-only deployments.
    pub fn single_node(machine: MachineModel) -> FlexIo {
        FlexIo {
            directory: Arc::new(InProcDirectory::new()),
            net: None,
            machine: Arc::new(machine),
            bulletin: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Swap the connection-management backend (default:
    /// [`InProcDirectory`]) for any other [`DirectoryService`] — a
    /// [`crate::directory::ShardedDirectory`], a handle onto a
    /// gossip-replicated [`crate::directory::DirectoryCluster`], or a
    /// test double. Builder-style: `FlexIo::new(...).with_directory(d)`.
    pub fn with_directory(mut self, directory: Arc<dyn DirectoryService>) -> FlexIo {
        self.directory = directory;
        self
    }

    /// The directory service handle.
    pub fn directory(&self) -> &Arc<dyn DirectoryService> {
        &self.directory
    }

    /// The machine model.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Open the writer side of stream `name` from one writer rank, as a
    /// blocking call (see [`Self::open_writer_rt`]).
    pub fn open_writer(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamWriter, StreamError> {
        flexio_reactor::block_inline(
            self.open_writer_rt(name, rank, nranks, core, all_cores, hints),
        )
    }

    /// Open the writer side of stream `name` from one writer rank.
    /// Rank 0 acts as coordinator: it creates the link and registers it.
    /// Every rank passes its own `core` placement and the total count.
    /// The one wait (the non-coordinator bulletin wait) is an `.await`.
    pub async fn open_writer_rt(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamWriter, StreamError> {
        assert_eq!(all_cores.len(), nranks);
        assert_eq!(all_cores[rank], core, "rank's own core must match the roster");
        let link = if rank == 0 {
            let link = LinkState::new(nranks, all_cores, self.net.clone(), &hints, None);
            self.directory.register(name, Arc::clone(&link))?;
            self.post_bulletin(&format!("w:{name}"), Arc::clone(&link));
            link
        } else {
            self.bulletin(&format!("w:{name}"), hints.recv_timeout)
                .await
                .ok_or(StreamError::Timeout)?
        };
        Ok(StreamWriter::new(link, rank, nranks, hints))
    }

    /// Open the reader side of stream `name` from one reader rank, as a
    /// blocking call (see [`Self::open_reader_rt`]).
    pub fn open_reader(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamReader, StreamError> {
        flexio_reactor::block_inline(
            self.open_reader_rt(name, rank, nranks, core, all_cores, hints),
        )
    }

    /// Open the reader side of stream `name` from one reader rank.
    /// Rank 0 acts as coordinator: it looks the stream up in the
    /// directory and attaches the reader side. The directory lookup, the
    /// scheduled directory stall and the non-coordinator bulletin wait are
    /// `.await`s, so one reactor thread can open many streams concurrently.
    pub async fn open_reader_rt(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamReader, StreamError> {
        assert_eq!(all_cores.len(), nranks);
        assert_eq!(all_cores[rank], core, "rank's own core must match the roster");
        let link = if rank == 0 {
            // A fault plan may schedule a directory stall: the lookup
            // budget shrinks by the stall, exactly as if the directory
            // server were slow to respond.
            let mut budget = hints.recv_timeout;
            if let Some(plan) = &hints.faults {
                if let Some(stall) = plan.spec_for("dir").stall {
                    plan.note_stall();
                    flexio_reactor::sleep(stall).await;
                    budget = budget.saturating_sub(stall);
                }
            }
            let link = poll_until(Instant::now() + budget, || self.directory.try_lookup(name))
                .await
                .ok_or_else(|| DirectoryError::LookupTimeout(name.to_string()))?;
            link.set_reader_info(nranks, all_cores);
            self.post_bulletin(&format!("r:{name}"), Arc::clone(&link));
            link
        } else {
            self.bulletin(&format!("r:{name}"), hints.recv_timeout)
                .await
                .ok_or(StreamError::Timeout)?
        };
        Ok(StreamReader::new(link, rank, nranks, hints))
    }

    pub(crate) fn post_bulletin(&self, key: &str, link: Arc<LinkState>) {
        self.bulletin.lock().insert(key.to_string(), link);
    }

    /// [`Self::bulletin`] as a blocking call on the calling thread.
    pub(crate) fn wait_bulletin(&self, key: &str, timeout: Duration) -> Option<Arc<LinkState>> {
        flexio_reactor::block_inline(self.bulletin(key, timeout))
    }

    /// Poll the bulletin until `key` appears or `timeout` expires.
    async fn bulletin(&self, key: &str, timeout: Duration) -> Option<Arc<LinkState>> {
        poll_until(Instant::now() + timeout, || self.bulletin.lock().get(key).cloned()).await
    }
}
