//! # flexio-repro
//!
//! A from-scratch Rust reproduction of **"FlexIO: I/O Middleware for
//! Location-Flexible Scientific Data Analytics"** (Zheng et al.,
//! IPDPS 2013) — the middleware itself plus every substrate its
//! evaluation depends on. See `README.md` for the tour, `DESIGN.md` for
//! the system inventory, and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and figure.
//!
//! This crate is the umbrella: it re-exports the workspace crates so the
//! examples and integration tests can use one coherent namespace.
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`flexio`] | `flexio` | the middleware (paper §II) |
//! | [`adios`] | `adios` | the ADIOS-like I/O API it extends |
//! | [`evpath`] | `evpath` | messaging + marshaling layer |
//! | [`codelet`] | `codelet` | Data Conditioning plug-in language |
//! | [`shm`] | `shm` | FastForward shared-memory transport |
//! | [`netsim`] | `netsim` | simulated RDMA interconnect |
//! | [`memsim`] | `memsim` | shared-cache / NUMA simulator |
//! | [`machine`] | `machine` | Titan/Smoky machine models |
//! | [`placement`] | `placement` | the three placement policies (§III) |
//! | [`apps`] | `apps` | GTS / S3D skeletons and analytics (§IV) |
//! | [`dessim`] | `dessim` | scale-experiment co-simulation (§IV) |
//! | [`rankrt`] | `rankrt` | in-process rank runtime (MPI substitute) |

pub use adios;
pub use apps;
pub use codelet;
pub use dessim;
pub use evpath;
pub use flexio;
pub use machine;
pub use memsim;
pub use netsim;
pub use placement;
pub use rankrt;
pub use shm;
