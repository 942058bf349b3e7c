//! `adios` — the ADIOS-like I/O layer FlexIO extends (paper §II.A–B).
//!
//! "FlexIO leverages the ADIOS parallel I/O library which provides
//! meta-data rich read/write interfaces to simulation and analysis codes.
//! [...] Switching between different methods can be configured through an
//! external XML configuration file, without modification to application
//! codes."
//!
//! This crate reproduces the parts of ADIOS that FlexIO builds on:
//!
//! * [`var`] — the data model: logically time-indexed output, each
//!   timestep a group of scalar or multi-dimensional array variables, each
//!   array block carrying its global shape, local offset and count;
//! * [`hyperslab`] — n-dimensional box selections: intersection and
//!   strided copy, the geometric core of both file-mode subset reads and
//!   FlexIO's MxN redistribution (Fig. 3);
//! * [`group`] — Process Groups: "during each I/O timestep, the variables
//!   written from each simulation process are conceptually packed into a
//!   group";
//! * [`bp`] — a BP-style self-contained container format with a footer
//!   index (file mode's on-disk representation);
//! * [`xml`]/[`config`] — the external XML configuration selecting the
//!   I/O method per group and carrying transport hints ("a one-line update
//!   to the configuration file is sufficient to switch between file I/O
//!   and online data movement");
//! * [`api`] — the engine traits (`WriteEngine`/`ReadEngine`), the one
//!   selection read every reader answers with ([`select`]) and the
//!   **file mode** engines: one reader for both file layouts, the
//!   aggregated BP container and [`posix`]'s one file per rank. FlexIO's
//!   *stream mode* engines implement the same traits and read through
//!   the same `select`, which is exactly what makes file and stream modes
//!   swappable without touching application code.

pub mod api;
pub mod bp;
pub mod config;
pub mod group;
pub mod hyperslab;
pub mod posix;
pub mod var;
pub mod xml;

pub use api::{
    select, FileReadEngine, FileWriteEngine, ReadEngine, Selection, StepStatus, WriteEngine,
};
pub use config::{GroupConfig, IoConfig, IoMethod};
pub use group::ProcessGroup;
pub use hyperslab::BoxSel;
pub use posix::PosixWriteEngine;
pub use var::{ArrayData, DataType, LocalBlock, ScalarValue, VarValue};
