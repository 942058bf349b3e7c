//! The engine traits and the built-in file-mode engines.
//!
//! "Conceptually, the FlexIO interface allows simulations to pass data to
//! analytics via files, and to operate on these files in either file or
//! stream modes. [...] stream mode is compatible with file I/O in that it
//! can be switched with file mode without code changes." (§II.B)
//!
//! Applications program against [`WriteEngine`] / [`ReadEngine`]. This
//! module ships the **file mode** implementations (BP container on disk);
//! the `flexio` crate ships the **stream mode** implementations of the
//! same traits. Which one an application gets is decided by the XML
//! configuration, not by its code. Every reader answers `read` through
//! [`select`], so the engines cannot disagree on what a selection means.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::bp::{BpBuilder, BpError, BpFile};
use crate::group::ProcessGroup;
use crate::hyperslab::{BoxAssembler, BoxSel};
use crate::var::{LocalBlock, VarValue};

/// What a reader asks for within the current step.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// A specific writing rank's process group (the GTS pattern).
    ProcessGroup(usize),
    /// A global-array box (the S3D pattern, Fig. 3).
    GlobalBox(BoxSel),
    /// A scalar (first writer's value wins).
    Scalar,
}

/// Result of [`ReadEngine::begin_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// A step is available; its index.
    Step(u64),
    /// The writer closed the stream/file: no more steps.
    EndOfStream,
}

/// Writer-side engine: one instance per writing rank.
pub trait WriteEngine: Send {
    /// Start an output timestep.
    fn begin_step(&mut self, step: u64);

    /// Write one variable into the current step.
    fn write(&mut self, name: &str, value: VarValue);

    /// Finish the current step (data becomes visible/movable).
    fn end_step(&mut self);

    /// Close: no more steps will be written (readers observe
    /// end-of-stream / the file is finalized).
    fn close(&mut self);
}

/// Reader-side engine: one instance per reading rank.
pub trait ReadEngine: Send {
    /// Advance to the next step; blocks in stream mode until the writer
    /// produces one (or closes).
    fn begin_step(&mut self) -> StepStatus;

    /// Read a variable from the current step under a selection.
    fn read(&mut self, name: &str, sel: &Selection) -> Option<VarValue>;

    /// Finish with the current step (stream mode may release buffers).
    fn end_step(&mut self);

    /// Close the reader.
    fn close(&mut self);
}

/// The one answer to [`ReadEngine::read`]: `sel` over `values`, the
/// `(writer rank, value)` pairs one variable has in the current step,
/// whatever engine holds them (file, POSIX files, pub/sub log, stream).
///
/// - `ProcessGroup(r)`: the first value from rank `r`.
/// - `Scalar`: the first scalar.
/// - `GlobalBox(b)`: every block's overlap with `b`, laid into one block of
///   `b`'s extent; cells no block covers stay zero. A block that is exactly
///   `b`, and the only one to overlap it, is returned itself (a view keeps
///   sharing its buffer). `None` when no block
///   intersects `b`, and when a block is of another rank than `b` or an
///   intersecting one disagrees with the first on global shape or element
///   type: such data comes from a peer or a file, so it is refused, not
///   trusted.
pub fn select<'v>(
    values: impl IntoIterator<Item = (usize, &'v VarValue)>,
    sel: &Selection,
) -> Option<VarValue> {
    let mut values = values.into_iter();
    match sel {
        Selection::ProcessGroup(rank) => values.find(|(r, _)| r == rank).map(|(_, v)| v.clone()),
        Selection::Scalar => {
            values.map(|(_, v)| v).find(|v| matches!(v, VarValue::Scalar(_))).cloned()
        }
        Selection::GlobalBox(want) => {
            // The first overlapping block waits here: when it is the only
            // one and is exactly the box, it is the answer as it stands.
            let mut first: Option<(&LocalBlock, BoxSel)> = None;
            let mut asm: Option<BoxAssembler> = None;
            for (_, value) in values {
                let VarValue::Block(block) = value else { continue };
                if block.offset.len() != want.rank() {
                    return None;
                }
                let have = BoxSel::new(block.offset.clone(), block.count.clone());
                let Some(overlap) = have.intersect(want) else { continue };
                let Some((head, head_overlap)) = &first else {
                    first = Some((block, overlap));
                    continue;
                };
                if block.global_shape != head.global_shape
                    || block.data.data_type() != head.data.data_type()
                {
                    return None;
                }
                asm.get_or_insert_with(|| box_holding(want, head, head_overlap))
                    .add_region(block, &overlap);
            }
            match (first, asm) {
                (_, Some(asm)) => Some(VarValue::Block(asm.finish())),
                (Some((block, _)), None)
                    if block.offset == want.offset && block.count == want.count =>
                {
                    Some(VarValue::Block(block.clone()))
                }
                (Some((block, overlap)), None) => {
                    Some(VarValue::Block(box_holding(want, block, &overlap).finish()))
                }
                (None, None) => None,
            }
        }
    }
}

/// An assembler of the box `want`, holding `block`'s `overlap` with it.
fn box_holding(want: &BoxSel, block: &LocalBlock, overlap: &BoxSel) -> BoxAssembler {
    let mut asm = BoxAssembler::new(want, block);
    asm.add_region(block, overlap);
    asm
}

// ------------------------------------------------------------- file mode

/// File-mode writer: ranks append process groups to a shared [`BpBuilder`]
/// (the aggregation a collective MPI-IO write performs), and `close`
/// finalizes the `.bp` container on disk. Clone one per rank.
pub struct FileWriteEngine {
    builder: BpBuilder,
    path: PathBuf,
    rank: usize,
    nranks: usize,
    /// Collective close: the last rank to close writes the container.
    closed_count: Arc<AtomicUsize>,
    current: Option<ProcessGroup>,
}

impl FileWriteEngine {
    /// Create the shared builder + per-rank engines for `nranks` writers
    /// targeting `path`.
    pub fn create(path: &Path, nranks: usize) -> Vec<FileWriteEngine> {
        let builder = BpBuilder::new();
        let closed_count = Arc::new(AtomicUsize::new(0));
        (0..nranks)
            .map(|rank| FileWriteEngine {
                builder: builder.clone(),
                path: path.to_path_buf(),
                rank,
                nranks,
                closed_count: Arc::clone(&closed_count),
                current: None,
            })
            .collect()
    }

    /// This engine's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Finalize explicitly with error reporting (close panics on I/O
    /// failure, matching the trait's infallible signature).
    pub fn finalize(&mut self) -> Result<(), BpError> {
        if let Some(group) = self.current.take() {
            self.builder.append(group);
        }
        // The last rank to close acts as the aggregator and writes the
        // container — mirroring a collective MPI-IO close.
        if self.closed_count.fetch_add(1, Ordering::SeqCst) + 1 == self.nranks {
            self.builder.write_file(&self.path)?;
        }
        Ok(())
    }
}

impl WriteEngine for FileWriteEngine {
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
        self.finalize().expect("failed to write BP container");
    }
}

/// File-mode reader over finalized `.bp` containers: one aggregated
/// container ([`Self::open`]) or the POSIX method's one per writing rank
/// ([`Self::open_posix`]), where a step's groups are the concatenation of
/// its files' groups.
pub struct FileReadEngine {
    /// Every step's process groups, in step order.
    steps: Vec<(u64, Vec<ProcessGroup>)>,
    cursor: usize,
    in_step: bool,
}

impl FileReadEngine {
    /// Open a container from disk.
    pub fn open(path: &Path) -> Result<FileReadEngine, BpError> {
        Ok(FileReadEngine::from_groups(BpFile::open(path)?.into_groups()))
    }

    /// Open from in-memory bytes (used with the simulated file system).
    pub fn from_bytes(bytes: &[u8]) -> Result<FileReadEngine, BpError> {
        Ok(FileReadEngine::from_groups(BpFile::parse(bytes)?.into_groups()))
    }

    /// A reader over `groups`, each step's in the order given.
    pub(crate) fn from_groups(groups: impl IntoIterator<Item = ProcessGroup>) -> FileReadEngine {
        let mut steps = BTreeMap::<u64, Vec<ProcessGroup>>::new();
        for g in groups {
            steps.entry(g.step).or_default().push(g);
        }
        FileReadEngine { steps: steps.into_iter().collect(), cursor: 0, in_step: false }
    }
}

impl ReadEngine for FileReadEngine {
    fn begin_step(&mut self) -> StepStatus {
        assert!(!self.in_step, "begin_step without end_step");
        match self.steps.get(self.cursor) {
            Some(&(s, _)) => {
                self.in_step = true;
                StepStatus::Step(s)
            }
            None => StepStatus::EndOfStream,
        }
    }

    fn read(&mut self, name: &str, sel: &Selection) -> Option<VarValue> {
        assert!(self.in_step, "read outside a step");
        let groups = &self.steps[self.cursor].1;
        select(groups.iter().filter_map(|g| Some((g.rank, g.get(name)?))), sel)
    }

    fn end_step(&mut self) {
        assert!(self.in_step, "end_step without begin_step");
        self.in_step = false;
        self.cursor += 1;
    }

    fn close(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{ArrayData, ScalarValue};

    fn write_two_steps(dir: &Path) -> PathBuf {
        let path = dir.join("coupled.bp");
        let mut engines = FileWriteEngine::create(&path, 2);
        for step in 0..2u64 {
            for e in engines.iter_mut() {
                let rank = e.rank();
                e.begin_step(step);
                e.write("tstep", VarValue::Scalar(ScalarValue::U64(step)));
                e.write(
                    "grid",
                    VarValue::Block(
                        LocalBlock {
                            global_shape: vec![2, 4],
                            offset: vec![rank as u64, 0],
                            count: vec![1, 4],
                            data: ArrayData::F64(vec![rank as f64; 4]),
                        }
                        .validated(),
                    ),
                );
                e.end_step();
            }
        }
        for e in engines.iter_mut() {
            e.close();
        }
        path
    }

    #[test]
    fn file_mode_write_then_read() {
        let dir = std::env::temp_dir().join("flexio-api-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_two_steps(&dir);

        let mut reader = FileReadEngine::open(&path).unwrap();
        let mut seen_steps = Vec::new();
        loop {
            match reader.begin_step() {
                StepStatus::Step(s) => {
                    seen_steps.push(s);
                    // Scalar read.
                    assert_eq!(
                        reader.read("tstep", &Selection::Scalar),
                        Some(VarValue::Scalar(ScalarValue::U64(s)))
                    );
                    // Process-group read.
                    let pg = reader.read("grid", &Selection::ProcessGroup(1)).unwrap();
                    let VarValue::Block(b) = pg else { panic!() };
                    assert_eq!(b.data.as_f64(), &[1.0; 4]);
                    // Global box read spanning both writers.
                    let whole = reader.read("grid", &Selection::GlobalBox(BoxSel::whole(&[2, 4])));
                    let Some(VarValue::Block(whole)) = whole else { panic!() };
                    assert_eq!(whole.data.as_f64(), &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
                    reader.end_step();
                }
                StepStatus::EndOfStream => break,
            }
        }
        assert_eq!(seen_steps, vec![0, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_reports_missing_vars() {
        let dir = std::env::temp_dir().join("flexio-api-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_two_steps(&dir);
        let mut reader = FileReadEngine::open(&path).unwrap();
        assert_eq!(reader.begin_step(), StepStatus::Step(0));
        assert!(reader.read("nope", &Selection::Scalar).is_none());
        assert!(reader.read("grid", &Selection::ProcessGroup(42)).is_none());
        std::fs::remove_file(&path).ok();
    }

    /// A packed view of 2 x 4 elements, 8-aligned when `pad` is 0 and
    /// `pad` bytes off when it is not.
    fn view_block(offset: [u64; 2], pad: usize) -> LocalBlock {
        let mut bytes = vec![0u8; pad];
        (0..8u64)
            .for_each(|i| bytes.extend_from_slice(&((offset[0] * 100 + i) as f64).to_le_bytes()));
        let lease = std::sync::Arc::new(evpath::Lease::from(bytes));
        LocalBlock {
            global_shape: vec![4, 4],
            offset: offset.to_vec(),
            count: vec![2, 4],
            data: ArrayData::Packed(evpath::PackedArray::view(
                evpath::PackedDtype::F64,
                lease,
                pad,
                64,
            )),
        }
        .validated()
    }

    #[test]
    fn a_box_one_block_covers_exactly_shares_that_block() {
        let top = VarValue::Block(view_block([0, 0], 0));
        let bottom = VarValue::Block(view_block([2, 0], 3));
        let both = [(0, &top), (1, &bottom)];
        let top_box = Selection::GlobalBox(BoxSel::new(vec![0, 0], vec![2, 4]));
        let Some(VarValue::Block(got)) = select(both, &top_box) else { panic!("a block") };
        let VarValue::Block(b) = &top else { unreachable!() };
        assert!(got.data.is_packed(), "the stored view itself");
        assert_eq!(got.data.as_f64().as_ptr(), b.data.as_f64().as_ptr(), "its buffer, shared");
        assert_eq!(got, *b);
        // An unaligned exact cover is returned as it is too; `make_readable`
        // then copies it, and it alone.
        let bottom_box = Selection::GlobalBox(BoxSel::new(vec![2, 0], vec![2, 4]));
        let Some(mut got) = select(both, &bottom_box) else { panic!("a block") };
        assert_eq!(got, bottom);
        got.make_readable();
        let VarValue::Block(got) = got else { unreachable!() };
        assert_eq!(got.data.as_f64(), &[200., 201., 202., 203., 204., 205., 206., 207.]);
        // A box two blocks meet in, or one a block only partly covers, is
        // assembled into a buffer of its own.
        for (offset, count) in [(vec![1, 0], vec![2, 4]), (vec![0, 1], vec![2, 2])] {
            let want = BoxSel::new(offset, count);
            let Some(VarValue::Block(got)) = select(both, &Selection::GlobalBox(want.clone()))
            else {
                panic!("a block")
            };
            assert!(!got.data.is_packed(), "{want:?} is assembled");
            assert_eq!((got.offset, got.count), (want.offset, want.count));
        }
    }

    #[test]
    #[should_panic(expected = "write outside")]
    fn write_requires_open_step() {
        let dir = std::env::temp_dir();
        let mut engines = FileWriteEngine::create(&dir.join("x.bp"), 1);
        engines[0].write("v", VarValue::Scalar(ScalarValue::U64(0)));
    }
}
