//! BP-style container format (file mode's on-disk representation).
//!
//! ADIOS's BP format stores process-group payloads back-to-back with a
//! footer index, so readers can locate any `(step, rank)` group without
//! scanning. This reproduction keeps that architecture:
//!
//! ```text
//! [MAGIC "BPRS"][version u32]
//! repeated payload section:   [group bytes...]
//! footer index:               per entry: step u64, rank u64, offset u64, len u64
//! trailer:                    index_offset u64, entry_count u64, MAGIC
//! ```

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::group::ProcessGroup;

const MAGIC: u32 = 0x4250_5253; // "BPRS"
const VERSION: u32 = 1;

/// Error reading a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BpError {
    /// Not a BP container / corrupt trailer.
    BadFormat(&'static str),
    /// Underlying I/O failed.
    Io(String),
}

impl std::fmt::Display for BpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BpError::BadFormat(m) => write!(f, "bad BP container: {m}"),
            BpError::Io(m) => write!(f, "I/O error: {m}"),
        }
    }
}

impl std::error::Error for BpError {}

/// An in-memory BP container being built. Thread-safe: every writing rank
/// appends groups concurrently (the aggregation MPI-IO would do).
#[derive(Clone, Default)]
pub struct BpBuilder {
    groups: Arc<Mutex<Vec<ProcessGroup>>>,
}

impl BpBuilder {
    /// Fresh builder.
    pub fn new() -> BpBuilder {
        BpBuilder::default()
    }

    /// Append one process group.
    pub fn append(&self, group: ProcessGroup) {
        self.groups.lock().expect("bp builder poisoned").push(group);
    }

    /// Number of groups so far.
    pub fn len(&self) -> usize {
        self.groups.lock().expect("bp builder poisoned").len()
    }

    /// True if no groups were appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the container.
    pub fn build(&self) -> Vec<u8> {
        let groups = self.groups.lock().expect("bp builder poisoned");
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut index = Vec::with_capacity(groups.len());
        for g in groups.iter() {
            let bytes = g.encode();
            index.push((g.step, g.rank as u64, out.len() as u64, bytes.len() as u64));
            out.extend_from_slice(&bytes);
        }
        let index_offset = out.len() as u64;
        for (step, rank, offset, len) in &index {
            out.extend_from_slice(&step.to_le_bytes());
            out.extend_from_slice(&rank.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&index_offset.to_le_bytes());
        out.extend_from_slice(&(index.len() as u64).to_le_bytes());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out
    }

    /// Serialize and write to a real file.
    pub fn write_file(&self, path: &Path) -> Result<(), BpError> {
        let bytes = self.build();
        let mut f = std::fs::File::create(path).map_err(|e| BpError::Io(e.to_string()))?;
        f.write_all(&bytes).map_err(|e| BpError::Io(e.to_string()))
    }
}

/// A parsed, queryable BP container.
#[derive(Debug, Clone)]
pub struct BpFile {
    groups: Vec<ProcessGroup>,
}

impl BpFile {
    /// Parse a container from bytes.
    pub fn parse(bytes: &[u8]) -> Result<BpFile, BpError> {
        if bytes.len() < 8 + 20 {
            return Err(BpError::BadFormat("too short"));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(BpError::BadFormat("bad leading magic"));
        }
        let trailer_magic = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if trailer_magic != MAGIC {
            return Err(BpError::BadFormat("bad trailing magic"));
        }
        let count =
            u64::from_le_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap());
        let index_offset =
            u64::from_le_bytes(bytes[bytes.len() - 20..bytes.len() - 12].try_into().unwrap())
                as usize;
        let entry_size = 32usize;
        let index_end =
            (count as usize).checked_mul(entry_size).and_then(|n| n.checked_add(index_offset));
        if index_end.is_none_or(|end| end > bytes.len()) {
            return Err(BpError::BadFormat("index out of range"));
        }
        let mut groups = Vec::with_capacity(count as usize);
        for i in 0..count as usize {
            let e = &bytes[index_offset + i * entry_size..index_offset + (i + 1) * entry_size];
            let offset = u64::from_le_bytes(e[16..24].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(e[24..32].try_into().unwrap()) as usize;
            if offset.checked_add(len).is_none_or(|end| end > bytes.len()) {
                return Err(BpError::BadFormat("group payload out of range"));
            }
            let group = ProcessGroup::decode(&bytes[offset..offset + len])
                .ok_or(BpError::BadFormat("corrupt process group"))?;
            groups.push(group);
        }
        Ok(BpFile { groups })
    }

    /// Read and parse a real file.
    pub fn open(path: &Path) -> Result<BpFile, BpError> {
        let mut f = std::fs::File::open(path).map_err(|e| BpError::Io(e.to_string()))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes).map_err(|e| BpError::Io(e.to_string()))?;
        BpFile::parse(&bytes)
    }

    /// Consume the container, yielding every process group ordered by
    /// `(step, rank)` — the owned extraction the file reader and replay
    /// consumers use, so a step is decoded once, not cloned per reader.
    pub fn into_groups(mut self) -> Vec<ProcessGroup> {
        self.groups.sort_by_key(|g| (g.step, g.rank));
        self.groups
    }

    /// Sorted distinct steps present.
    pub fn steps(&self) -> Vec<u64> {
        let steps: BTreeSet<u64> = self.groups.iter().map(|g| g.step).collect();
        steps.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FileReadEngine, ReadEngine, Selection, StepStatus};
    use crate::hyperslab::BoxSel;
    use crate::var::{ArrayData, LocalBlock, ScalarValue, VarValue};

    fn group_with_block(rank: usize, step: u64, row: u64) -> ProcessGroup {
        let mut g = ProcessGroup::new(rank, step);
        g.push("meta", VarValue::Scalar(ScalarValue::U64(step * 10 + rank as u64)));
        g.push(
            "field",
            VarValue::Block(
                LocalBlock {
                    global_shape: vec![4, 4],
                    offset: vec![row, 0],
                    count: vec![1, 4],
                    data: ArrayData::F64((0..4).map(|c| (row * 10 + c) as f64).collect()),
                }
                .validated(),
            ),
        );
        g
    }

    fn container_bytes() -> Vec<u8> {
        let b = BpBuilder::new();
        for step in 0..2 {
            for rank in 0..4usize {
                b.append(group_with_block(rank, step, rank as u64));
            }
        }
        b.build()
    }

    fn container() -> BpFile {
        BpFile::parse(&container_bytes()).unwrap()
    }

    #[test]
    fn roundtrip_and_index() {
        let f = container();
        assert_eq!(f.steps(), vec![0, 1]);
        let groups = f.into_groups();
        let keys: Vec<_> = groups.iter().map(|g| (g.step, g.rank)).collect();
        assert_eq!(keys, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]);
        assert_eq!(groups[6].get("meta"), Some(&VarValue::Scalar(ScalarValue::U64(12))));
        let names: Vec<_> = groups[0].vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["meta", "field"]);
    }

    /// Step 0 of the container through the file engine.
    fn step0() -> FileReadEngine {
        let mut r = FileReadEngine::from_bytes(&container_bytes()).unwrap();
        assert_eq!(r.begin_step(), StepStatus::Step(0));
        r
    }

    fn box_of(r: &mut FileReadEngine, name: &str, sel: BoxSel) -> Option<LocalBlock> {
        match r.read(name, &Selection::GlobalBox(sel))? {
            VarValue::Block(b) => Some(b),
            VarValue::Scalar(_) => panic!("a box read yields a block"),
        }
    }

    #[test]
    fn box_reads_reassemble_across_ranks() {
        // Rows 1..3, cols 1..3 spans ranks 1 and 2.
        let block = box_of(&mut step0(), "field", BoxSel::new(vec![1, 1], vec![2, 2])).unwrap();
        assert_eq!(block.data.as_f64(), &[11.0, 12.0, 21.0, 22.0]);
    }

    #[test]
    fn read_whole_array() {
        let block = box_of(&mut step0(), "field", BoxSel::whole(&[4, 4])).unwrap();
        assert_eq!(block.num_elements(), 16);
        assert_eq!(block.data.as_f64()[15], 33.0);
    }

    #[test]
    fn missing_variable() {
        let mut r = step0();
        assert!(box_of(&mut r, "absent", BoxSel::whole(&[4, 4])).is_none());
        assert!(r.read("field", &Selection::ProcessGroup(99)).is_none());
    }

    #[test]
    fn corrupt_containers_rejected() {
        assert!(BpFile::parse(b"short").is_err());
        let good = {
            let b = BpBuilder::new();
            b.append(group_with_block(0, 0, 0));
            b.build()
        };
        let mut bad = good.clone();
        bad[0] = 0; // leading magic
        assert!(BpFile::parse(&bad).is_err());
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 1] = 0; // trailing magic
        assert!(BpFile::parse(&bad).is_err());
        let mut bad = good;
        let n = bad.len();
        bad[n - 20..n - 12].copy_from_slice(&u64::MAX.to_le_bytes()); // index offset
        assert!(BpFile::parse(&bad).is_err());
    }

    #[test]
    fn file_write_and_open() {
        let dir = std::env::temp_dir().join("flexio-bp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.bp");
        let b = BpBuilder::new();
        b.append(group_with_block(0, 5, 2));
        b.write_file(&path).unwrap();
        let f = BpFile::open(&path).unwrap();
        assert_eq!(f.steps(), vec![5]);
        std::fs::remove_file(&path).ok();
    }
}
