//! The POSIX file method: one container per writing rank.
//!
//! ADIOS ships several interchangeable file I/O methods behind the same
//! API ("MPI-IO, HDF5, and NetCDF", §II.A); the POSIX method writes one
//! file per process to avoid write-lock contention. There is one file
//! reader for both layouts: [`FileReadEngine::open_posix`] opens the
//! per-rank containers as one, so the method axis (POSIX vs aggregated BP
//! vs stream) stays orthogonal to application code — all implement
//! [`crate::WriteEngine`] / [`crate::ReadEngine`].

use std::path::{Path, PathBuf};

use crate::api::{FileReadEngine, WriteEngine};
use crate::bp::{BpBuilder, BpError, BpFile};
use crate::group::ProcessGroup;
use crate::var::VarValue;

/// Per-rank POSIX writer: writes `<dir>/<name>.<rank>.bp`.
pub struct PosixWriteEngine {
    builder: BpBuilder,
    path: PathBuf,
    rank: usize,
    current: Option<ProcessGroup>,
}

impl PosixWriteEngine {
    /// Path of one rank's container.
    pub fn rank_path(dir: &Path, name: &str, rank: usize) -> PathBuf {
        dir.join(format!("{name}.{rank}.bp"))
    }

    /// Create engines for `nranks` writers under `dir`.
    pub fn create(dir: &Path, name: &str, nranks: usize) -> Vec<PosixWriteEngine> {
        (0..nranks)
            .map(|rank| PosixWriteEngine {
                builder: BpBuilder::new(),
                path: Self::rank_path(dir, name, rank),
                rank,
                current: None,
            })
            .collect()
    }

    /// Fallible close.
    pub fn finalize(&mut self) -> Result<(), BpError> {
        if let Some(group) = self.current.take() {
            self.builder.append(group);
        }
        self.builder.write_file(&self.path)
    }
}

impl WriteEngine for PosixWriteEngine {
    fn begin_step(&mut self, step: u64) {
        assert!(self.current.is_none(), "begin_step without end_step");
        self.current = Some(ProcessGroup::new(self.rank, step));
    }

    fn write(&mut self, name: &str, value: VarValue) {
        self.current.as_mut().expect("write outside begin_step/end_step").push(name, value);
    }

    fn end_step(&mut self) {
        let group = self.current.take().expect("end_step without begin_step");
        self.builder.append(group);
    }

    fn close(&mut self) {
        self.finalize().expect("failed to write POSIX container");
    }
}

impl FileReadEngine {
    /// Open the `nranks` containers `<dir>/<name>.<rank>.bp` as one
    /// reader; a missing rank's file is an error.
    pub fn open_posix(dir: &Path, name: &str, nranks: usize) -> Result<FileReadEngine, BpError> {
        let mut groups = Vec::new();
        for rank in 0..nranks {
            let path = PosixWriteEngine::rank_path(dir, name, rank);
            groups.extend(BpFile::open(&path)?.into_groups());
        }
        Ok(FileReadEngine::from_groups(groups))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ReadEngine, Selection, StepStatus};
    use crate::hyperslab::BoxSel;
    use crate::var::{ArrayData, LocalBlock, ScalarValue};

    fn write_posix(dir: &Path) {
        let mut engines = PosixWriteEngine::create(dir, "sim", 3);
        for (rank, e) in engines.iter_mut().enumerate() {
            for step in 0..2u64 {
                e.begin_step(step);
                e.write("t", VarValue::Scalar(ScalarValue::U64(step)));
                e.write(
                    "u",
                    VarValue::Block(
                        LocalBlock {
                            global_shape: vec![9],
                            offset: vec![rank as u64 * 3],
                            count: vec![3],
                            data: ArrayData::F64(vec![(step * 10 + rank as u64) as f64; 3]),
                        }
                        .validated(),
                    ),
                );
                e.end_step();
            }
            e.close();
        }
    }

    #[test]
    fn per_rank_files_merge_on_read() {
        let dir = std::env::temp_dir().join("flexio-posix-test");
        std::fs::create_dir_all(&dir).unwrap();
        write_posix(&dir);
        // Three separate files exist.
        for rank in 0..3 {
            assert!(PosixWriteEngine::rank_path(&dir, "sim", rank).exists());
        }
        let mut r = FileReadEngine::open_posix(&dir, "sim", 3).unwrap();
        assert_eq!(r.begin_step(), StepStatus::Step(0));
        // Global read spans the three files.
        let v = r.read("u", &Selection::GlobalBox(BoxSel::whole(&[9]))).unwrap();
        let VarValue::Block(b) = v else { panic!() };
        assert_eq!(b.data.as_f64(), &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        // Process-group and scalar reads work too.
        assert!(r.read("u", &Selection::ProcessGroup(2)).is_some());
        assert_eq!(r.read("t", &Selection::Scalar), Some(VarValue::Scalar(ScalarValue::U64(0))));
        r.end_step();
        assert_eq!(r.begin_step(), StepStatus::Step(1));
        r.end_step();
        assert_eq!(r.begin_step(), StepStatus::EndOfStream);
        for rank in 0..3 {
            std::fs::remove_file(PosixWriteEngine::rank_path(&dir, "sim", rank)).ok();
        }
    }

    #[test]
    fn missing_rank_file_is_an_error() {
        let dir = std::env::temp_dir().join("flexio-posix-test2");
        std::fs::create_dir_all(&dir).unwrap();
        write_posix(&dir);
        // Ask for more ranks than exist.
        assert!(FileReadEngine::open_posix(&dir, "sim", 5).is_err());
        for rank in 0..3 {
            std::fs::remove_file(PosixWriteEngine::rank_path(&dir, "sim", rank)).ok();
        }
    }
}
