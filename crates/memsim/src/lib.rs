//! `memsim` — memory-system simulation: shared-L3 interference and NUMA.
//!
//! Two of the paper's results depend on the on-node memory system:
//!
//! * **Fig. 8** measures (with PAPI hardware counters) that GTS suffers
//!   ~47% more L3 misses per kilo-instruction when analytics runs on a
//!   helper core sharing the L3, slowing the simulation by ~4%. We have no
//!   hardware counters, so we *simulate the cache*: [`cache::CacheSim`] is
//!   a set-associative LRU last-level cache, and [`stream`] generates the
//!   address streams of the co-running workloads (the simulation's reused
//!   grid + streamed particles; the analytics' streaming scan). Feeding the
//!   interleaved streams through the simulated cache reproduces the
//!   pollution effect as an emergent behaviour rather than a hard-coded
//!   number.
//! * **§III.B.3**'s NUMA-aware buffer placement needs local-vs-remote
//!   memory costs; [`numa`] provides them from [`machine::NodeParams`].
//!
//! [`interference`] ties it together: co-run N workloads on one shared
//! cache and report per-workload misses-per-kilo-instruction (MPKI).

pub mod cache;
pub mod interference;
pub mod numa;
pub mod stream;

pub use cache::{CacheSim, CacheSimStats};
pub use interference::{corun_mpki, CorunReport, Workload};
pub use numa::{copy_time_ns, queue_placement_cost, QueuePlacement};
pub use stream::AccessPattern;
