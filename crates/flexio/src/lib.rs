//! `flexio` — the FlexIO middleware (paper §II).
//!
//! FlexIO couples a running parallel simulation with online analytics and
//! makes the analytics *location-flexible*: inline, on helper cores of the
//! compute nodes, on dedicated staging nodes, or offline via files — all
//! behind the unchanged ADIOS-style read/write API. This crate is the
//! runtime that makes that work:
//!
//! * [`directory`] — the external directory service used for connection
//!   management: the writer's coordinator registers a stream name with its
//!   contact information; the reader's coordinator looks it up (§II.C.1).
//!   Behind the [`DirectoryService`] trait live three backends: a
//!   lock-striped sharded registry, the paper's single server (that
//!   registry with one stripe), and a gossip-replicated multi-node
//!   cluster with failover.
//! * [`context`] — [`FlexIo`], the handle a deployment shares, and the
//!   `open_*` calls that turn it into stream engines.
//! * [`hints`] — the per-stream tuning hints an XML config carries
//!   (§II.B), with the transport selection among them.
//! * [`link`] — the connection fabric between the two programs: per
//!   `(writer rank, reader rank)` duplex channels whose transport (shared
//!   memory vs RDMA) is **automatically selected from the placement** of
//!   the two endpoints (§II.A).
//! * [`protocol`] — the vocabulary of the 4-step handshake (gather →
//!   exchange → broadcast → transfer, §II.C.2): the three caching levels
//!   `NO_CACHING` / `CACHING_LOCAL` / `CACHING_ALL`, sync/async write
//!   modes, the counters that make message counts observable, and the
//!   wire form of every step-protocol message — one builder and one
//!   checked parser per kind, the only code that names a message field.
//!   `side` (private) is the plumbing under both engines: one program's
//!   rank↔coordinator star, its control channel and its rank↔rank data
//!   channels, with the gather / broadcast / 2PC legs both engines run.
//! * [`redistribute`] — MxN global-array redistribution (Fig. 3) on top
//!   of `adios`' hyperslab machinery, plus the process-group pattern.
//! * [`writer`] / [`reader`] — stream-mode [`adios::WriteEngine`] /
//!   [`adios::ReadEngine`] implementations: which message goes when, and
//!   what a step does with it; swapping them with the file engines is
//!   the paper's one-line-config placement switch.
//! * [`plugins`] — Data Conditioning plug-in management: reader-side
//!   creation, dynamic deployment into the writer's address space, and
//!   runtime migration (§II.F).
//! * [`monitor`] — performance monitoring of movement, plug-ins and
//!   memory (§II.G); [`manager`] — the online decision loop that turns
//!   monitoring data into dynamic plug-in placement (§II.G/§IV);
//!   [`relay`] — the strided relay that ships monitoring samples from
//!   the simulation side to the analytics side online; [`task`] — the one
//!   loop every background service runs on, periodic (sink drain,
//!   manager, elastic controller, directory gossip) or step-driven
//!   (queries, reader groups).
//! * [`pubsub`] — pub/sub fan-out with durable replay: one writer stream
//!   feeds N independent reader groups through a bounded replay ring with
//!   per-group QoS/backpressure and BP-spilled retention, so late joiners
//!   and restarted groups catch up from any retained step.
//! * [`query`] — declarative vectorized array queries over live streams:
//!   a small logical plan with filter pushdown, where eligible predicates
//!   lower to writer-side Data Conditioning plug-ins so filtered-out
//!   elements never cross the transport.
//! * Resiliency (§II.H): the simple timeout-and-retry scheme the paper
//!   ships lives in [`link::recv_record`]; the 2-phase-commit step
//!   transaction it names as future work is implemented inside the
//!   writer/reader step protocol (enable with `StreamHints::transactional`).

pub mod context;
pub mod directory;
pub mod elastic;
pub mod hints;
pub mod link;
pub mod manager;
pub mod monitor;
pub mod plugins;
pub mod procnet;
pub mod protocol;
pub mod pubsub;
pub mod query;
pub mod reader;
pub mod redistribute;
pub mod relay;
mod seq;
mod side;
pub mod task;
pub mod writer;

pub use context::FlexIo;
pub use directory::{
    decode_contact_table, decode_digest, encode_contact_table, encode_digest, DigestEntry,
    DirectoryCluster, DirectoryError, DirectoryService, InProcDirectory, ReplicatedDirectory,
    ShardedDirectory, WireContact,
};
pub use elastic::{
    ElasticConfig, ElasticConfigBuilder, ElasticController, ElasticDecision, ElasticRoster,
};
pub use hints::{HintKey, Runtime, StreamHints, StreamHintsBuilder, Transport};
pub use manager::{ManagerPolicy, PlacementManager, Recommendation};
pub use monitor::{MonitorEvent, PerfMonitor};
pub use plugins::{PluginPlacement, PluginSpec};
pub use procnet::{
    open_reader_proc, open_writer_proc, send_peer_list, ChannelHub, ProcConfig, RemoteDirectory,
    WireDirNode,
};
pub use protocol::{CachingLevel, ProtocolCounters, ProtocolSnapshot, WriteMode};
pub use pubsub::{
    step_digest, Fetch, GroupCounters, GroupSnapshot, PubSubConfig, PubSubCounters, PubSubSnapshot,
    Qos, ReaderGroup, SealedStep, SpillStore, SpillTail, StepPublisher, StreamLog,
};
pub use query::{QueryConfig, QueryCounters, QuerySession};
pub use reader::StreamReader;
pub use relay::{MonitorRelay, MonitorSink};
pub use task::LoopHandle;
pub use writer::StreamWriter;
