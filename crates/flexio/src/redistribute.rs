//! MxN redistribution: metadata, transfer planning, packing, assembly.
//!
//! Fig. 3 of the paper: a 2-D global array distributed among 9 simulation
//! processes is passed to 2 analytics processes with a different
//! decomposition. "The MxN mapping, i.e., which simulation process should
//! send which piece of its data to which analytics processes, is
//! determined by the overlapping portion(s) of data specified in the
//! simulation's write and analytics' read calls."
//!
//! The planner here is *deterministic and shared*: both sides run the same
//! [`plan`] over the same exchanged metadata, so each writer knows exactly
//! what to send and each reader knows exactly how many messages to expect
//! — no per-chunk negotiation.

use std::borrow::Cow;

pub use adios::hyperslab::BoxAssembler;
use adios::{hyperslab, BoxSel, Selection, VarValue};
use evpath::{FieldValue, Record};

/// Metadata describing one variable a writer rank wrote (no payload).
#[derive(Debug, Clone, PartialEq)]
pub enum VarMeta {
    /// A scalar exists.
    Scalar {
        /// Variable name.
        name: String,
    },
    /// An array block exists with this geometry.
    Block {
        /// Variable name.
        name: String,
        /// Global shape.
        shape: Vec<u64>,
        /// Block offset.
        offset: Vec<u64>,
        /// Block extent.
        count: Vec<u64>,
    },
}

impl VarMeta {
    /// Variable name.
    pub fn name(&self) -> &str {
        match self {
            VarMeta::Scalar { name } | VarMeta::Block { name, .. } => name,
        }
    }

    /// Derive from a written value.
    pub fn of(name: &str, value: &VarValue) -> VarMeta {
        match value {
            VarValue::Scalar(_) => VarMeta::Scalar { name: name.to_string() },
            VarValue::Block(b) => VarMeta::Block {
                name: name.to_string(),
                shape: b.global_shape.clone(),
                offset: b.offset.clone(),
                count: b.count.clone(),
            },
        }
    }

    /// Whether this describes `value` written as `name` — what
    /// [`VarMeta::of`] would derive, checked without building it.
    pub fn describes(&self, var: &str, value: &VarValue) -> bool {
        match (self, value) {
            (VarMeta::Scalar { name }, VarValue::Scalar(_)) => name == var,
            (VarMeta::Block { name, shape, offset, count }, VarValue::Block(b)) => {
                name == var && *shape == b.global_shape && *offset == b.offset && *count == b.count
            }
            _ => false,
        }
    }

    /// Encode for the exchange message.
    pub fn to_record(&self) -> Record {
        match self {
            VarMeta::Scalar { name } => Record::with_capacity(2)
                .with("kind", FieldValue::U64(0))
                .with("name", FieldValue::Str(name.as_str().into())),
            VarMeta::Block { name, shape, offset, count } => Record::with_capacity(5)
                .with("kind", FieldValue::U64(1))
                .with("name", FieldValue::Str(name.as_str().into()))
                .with("shape", FieldValue::from(&shape[..]))
                .with("offset", FieldValue::from(&offset[..]))
                .with("count", FieldValue::from(&count[..])),
        }
    }

    /// Decode from the exchange message, moving its name and vectors out.
    pub fn from_record(r: impl Into<Record>) -> Option<VarMeta> {
        let mut r = r.into();
        let name = r.take_str("name")?.into();
        Some(match r.get_u64("kind")? {
            0 => VarMeta::Scalar { name },
            1 => {
                let shape = r.take_u64_array("shape")?;
                let offset = r.take_u64_array("offset")?;
                let count = r.take_u64_array("count")?;
                // A peer's geometry is refused here, not asserted on by `plan`.
                if !hyperslab::lies_inside(&offset, &count, (None, &shape)) {
                    return None;
                }
                VarMeta::Block { name, shape, offset, count }
            }
            _ => return None,
        })
    }
}

/// A reader rank's subscription: variable + selection, in the wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Variable name.
    pub var: String,
    /// What part of it.
    pub sel: Selection,
}

impl Subscription {
    /// Encode for the exchange message.
    pub fn to_record(&self) -> Record {
        let r = Record::with_capacity(4).with("var", FieldValue::Str(self.var.as_str().into()));
        match &self.sel {
            Selection::ProcessGroup(rank) => {
                r.with("sel", FieldValue::U64(0)).with("rank", FieldValue::U64(*rank as u64))
            }
            Selection::GlobalBox(b) => r
                .with("sel", FieldValue::U64(1))
                .with("offset", FieldValue::from(&b.offset[..]))
                .with("count", FieldValue::from(&b.count[..])),
            Selection::Scalar => r.with("sel", FieldValue::U64(2)),
        }
    }

    /// Decode from the exchange message, moving its name and vectors out.
    pub fn from_record(r: impl Into<Record>) -> Option<Subscription> {
        let mut r = r.into();
        let var = r.take_str("var")?.into();
        let sel = match r.get_u64("sel")? {
            0 => Selection::ProcessGroup(r.get_u64("rank")? as usize),
            1 => Selection::GlobalBox(BoxSel::try_new(
                r.take_u64_array("offset")?,
                r.take_u64_array("count")?,
            )?),
            2 => Selection::Scalar,
            _ => return None,
        };
        Some(Subscription { var, sel })
    }
}

/// One planned chunk from a writer rank to a reader rank.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPlan {
    /// Variable name.
    pub var: String,
    /// For global arrays: the overlap region to extract; `None` sends the
    /// value whole (process-group / scalar reads).
    pub region: Option<BoxSel>,
}

/// Encode one rank's slice of the transfer plan for its `go` message: a
/// writer's row (chunks per reader rank) or a reader's column (chunks per
/// writer rank) — the same shape, indexed by peer.
pub(crate) fn encode_plan(slice: &[Vec<ChunkPlan>]) -> Record {
    let fields = 1 + slice.iter().map(|chunks| 1 + chunks.len()).sum::<usize>();
    let mut r = Record::with_capacity(fields).with("peers", FieldValue::U64(slice.len() as u64));
    for (p, chunks) in slice.iter().enumerate() {
        r.set_item("count", &[p], FieldValue::U64(chunks.len() as u64));
        for (ci, c) in chunks.iter().enumerate() {
            let mut cr =
                Record::with_capacity(3).with("var", FieldValue::Str(c.var.as_str().into()));
            if let Some(region) = &c.region {
                cr.set("offset", FieldValue::from(&region.offset[..]));
                cr.set("count", FieldValue::from(&region.count[..]));
            }
            r.set_item("chunk", &[p, ci], FieldValue::Record(cr));
        }
    }
    r
}

/// Inverse of [`encode_plan`]. The counts are a peer's word (over procnet
/// sockets, any process's): every peer and every chunk is a field of `r`,
/// so a count above the field count is damage and is refused before it
/// can size an allocation.
pub(crate) fn decode_plan(mut r: Record) -> Option<Vec<Vec<ChunkPlan>>> {
    let fields = r.len() as u64;
    let count = |n: Option<&FieldValue>| n?.as_u64().filter(|&n| n <= fields).map(|n| n as usize);
    let peers = count(r.get("peers"))?;
    let mut slice = Vec::with_capacity(peers);
    for p in 0..peers {
        let chunks = count(r.get_item("count", &[p]))?;
        let mut column = Vec::with_capacity(chunks);
        for ci in 0..chunks {
            let Some(FieldValue::Record(mut cr)) = r.take_item("chunk", &[p, ci]) else {
                return None;
            };
            let var = cr.take_str("var")?.into();
            let region = match (cr.take_u64_array("offset"), cr.take_u64_array("count")) {
                (Some(o), Some(c)) => Some(BoxSel::try_new(o, c)?),
                _ => None,
            };
            column.push(ChunkPlan { var, region });
        }
        slice.push(column);
    }
    Some(slice)
}

/// Compute, for every `(writer, reader)` pair, the chunks that must move.
/// Deterministic in its inputs; both sides run it on identical exchanged
/// metadata. A scalar travels once, from the lowest writer rank that wrote
/// it (under the ADIOS data model every writer holds the same value, but
/// metadata-driven selection also serves scalars only one rank wrote).
pub fn plan(
    writer_dists: &[Vec<VarMeta>],
    reader_sels: &[Vec<Subscription>],
) -> Vec<Vec<Vec<ChunkPlan>>> {
    let nw = writer_dists.len();
    let nr = reader_sels.len();
    let has_scalar = |w: usize, var: &str| {
        writer_dists[w].iter().any(|m| matches!(m, VarMeta::Scalar { name } if name == var))
    };
    let mut out = vec![vec![Vec::new(); nr]; nw];
    for (w, vars) in writer_dists.iter().enumerate() {
        for (r, subs) in reader_sels.iter().enumerate() {
            for sub in subs {
                match &sub.sel {
                    Selection::ProcessGroup(want_w) => {
                        if *want_w == w && vars.iter().any(|m| m.name() == sub.var) {
                            out[w][r].push(ChunkPlan { var: sub.var.clone(), region: None });
                        }
                    }
                    Selection::Scalar => {
                        let owner = (0..nw).find(|&cand| has_scalar(cand, &sub.var));
                        if owner == Some(w) {
                            out[w][r].push(ChunkPlan { var: sub.var.clone(), region: None });
                        }
                    }
                    Selection::GlobalBox(want) => {
                        for m in vars {
                            if let VarMeta::Block { name, offset, count, .. } = m {
                                if name != &sub.var {
                                    continue;
                                }
                                let have = BoxSel::new(offset.clone(), count.clone());
                                if let Some(overlap) = have.intersect(want) {
                                    out[w][r].push(ChunkPlan {
                                        var: sub.var.clone(),
                                        region: Some(overlap),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Split a global box into `parts` contiguous slabs along its slowest
/// (first) dimension, remainder spread over the leading slabs — the
/// equal-share decomposition an elastic reader roster re-subscribes
/// with after every resize. Slots beyond the dimension's extent get
/// `None` (that rank subscribes to nothing and still participates in
/// the handshake).
pub fn split_box(sel: &BoxSel, parts: usize) -> Vec<Option<BoxSel>> {
    assert!(parts >= 1, "split into at least one part");
    assert!(!sel.count.is_empty(), "cannot split a zero-dimensional box");
    let extent = sel.count[0];
    let base = extent / parts as u64;
    let rem = extent % parts as u64;
    let mut out = Vec::with_capacity(parts);
    let mut cursor = sel.offset[0];
    for p in 0..parts as u64 {
        let len = base + u64::from(p < rem);
        if len == 0 {
            out.push(None);
            continue;
        }
        let mut offset = sel.offset.clone();
        let mut count = sel.count.clone();
        offset[0] = cursor;
        count[0] = len;
        cursor += len;
        out.push(Some(BoxSel::new(offset, count)));
    }
    out
}

/// Messages reader `r` should expect from writer `w` under a plan.
pub fn expected_messages(plan_wr: &[ChunkPlan], batching: bool) -> usize {
    if batching {
        usize::from(!plan_wr.is_empty())
    } else {
        plan_wr.len()
    }
}

/// Whether [`extract_chunk`] can serve `plan` from `value`: a whole-value
/// plan always, a region only of a block that holds it. A `go` region is
/// the coordinator's word, so a writer asks before extracting.
pub fn plan_fits(value: &VarValue, plan: &ChunkPlan) -> bool {
    match (&plan.region, value) {
        (None, _) => true,
        (Some(region), VarValue::Block(b)) => {
            hyperslab::lies_inside(&region.offset, &region.count, (Some(&b.offset), &b.count))
        }
        (Some(_), VarValue::Scalar(_)) => false,
    }
}

/// Extract the payload a chunk plan calls for from a written value.
///
/// Whole-value plans borrow the source (no payload copy — the marshal
/// layer bulk-copies bytes straight onto the wire); region plans pack the
/// overlapping strides into a fresh owned block. Panics unless
/// [`plan_fits`].
pub fn extract_chunk<'v>(value: &'v VarValue, plan: &ChunkPlan) -> Cow<'v, VarValue> {
    match (&plan.region, value) {
        (None, v) => Cow::Borrowed(v),
        (Some(region), VarValue::Block(b)) => {
            Cow::Owned(VarValue::Block(hyperslab::extract_region(b, region)))
        }
        (Some(_), VarValue::Scalar(_)) => {
            unreachable!("planner never selects a region of a scalar")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adios::{ArrayData, DataType, LocalBlock, ScalarValue};

    /// Fig. 3's scenario: a 2-D array on a 3×3 writer grid read by 2
    /// readers splitting the array into top/bottom halves.
    fn fig3_setup() -> (Vec<Vec<VarMeta>>, Vec<Vec<Subscription>>, Vec<LocalBlock>) {
        let shape = vec![6, 6];
        let mut dists = Vec::new();
        let mut blocks = Vec::new();
        for w in 0..9 {
            let (row, col) = (w / 3, w % 3);
            let offset = vec![row as u64 * 2, col as u64 * 2];
            let count = vec![2, 2];
            let mut data = Vec::new();
            for r in offset[0]..offset[0] + 2 {
                for c in offset[1]..offset[1] + 2 {
                    data.push((r * 10 + c) as f64);
                }
            }
            blocks.push(
                LocalBlock {
                    global_shape: shape.clone(),
                    offset: offset.clone(),
                    count: count.clone(),
                    data: ArrayData::F64(data),
                }
                .validated(),
            );
            dists.push(vec![VarMeta::Block {
                name: "field".into(),
                shape: shape.clone(),
                offset,
                count,
            }]);
        }
        let sels = (0..2)
            .map(|r| {
                vec![Subscription {
                    var: "field".into(),
                    sel: Selection::GlobalBox(BoxSel::new(vec![r * 3, 0], vec![3, 6])),
                }]
            })
            .collect();
        (dists, sels, blocks)
    }

    #[test]
    fn fig3_plan_maps_9_writers_to_2_readers() {
        let (dists, sels, _) = fig3_setup();
        let p = plan(&dists, &sels);
        // Writers in grid row 0 (blocks rows 0-1) only overlap reader 0;
        // row 2 writers only reader 1; row 1 writers (rows 2-3) overlap both.
        for w in 0..3 {
            assert_eq!(p[w][0].len(), 1);
            assert_eq!(p[w][1].len(), 0);
        }
        for w in 3..6 {
            assert_eq!(p[w][0].len(), 1, "writer {w} upper overlap");
            assert_eq!(p[w][1].len(), 1, "writer {w} lower overlap");
        }
        for w in 6..9 {
            assert_eq!(p[w][0].len(), 0);
            assert_eq!(p[w][1].len(), 1);
        }
    }

    #[test]
    fn fig3_end_to_end_assembly() {
        let (dists, sels, blocks) = fig3_setup();
        let p = plan(&dists, &sels);
        for (r, subs) in sels.iter().enumerate() {
            let Selection::GlobalBox(want) = &subs[0].sel else { panic!() };
            let mut asm = BoxAssembler::new(want, &blocks[0]);
            for (w, block) in blocks.iter().enumerate() {
                let value = VarValue::Block(block.clone());
                for cp in &p[w][r] {
                    let chunk = extract_chunk(&value, cp);
                    let VarValue::Block(chunk) = chunk.as_ref() else { unreachable!() };
                    asm.add(chunk);
                }
            }
            assert_eq!(asm.received_elements(), want.num_elements());
            let out = asm.finish();
            // Every element equals row*10+col: full coverage, no overlap
            // mangling.
            for row in 0..3u64 {
                for col in 0..6u64 {
                    let global_row = want.offset[0] + row;
                    let idx = (row * 6 + col) as usize;
                    assert_eq!(out.data.as_f64()[idx], (global_row * 10 + col) as f64);
                }
            }
        }
    }

    #[test]
    fn process_group_plan() {
        let dists = vec![
            vec![VarMeta::Block {
                name: "zion".into(),
                shape: vec![4],
                offset: vec![0],
                count: vec![4],
            }],
            vec![VarMeta::Block {
                name: "zion".into(),
                shape: vec![4],
                offset: vec![0],
                count: vec![4],
            }],
        ];
        let sels = vec![vec![Subscription { var: "zion".into(), sel: Selection::ProcessGroup(1) }]];
        let p = plan(&dists, &sels);
        assert!(p[0][0].is_empty());
        assert_eq!(p[1][0], vec![ChunkPlan { var: "zion".into(), region: None }]);
    }

    #[test]
    fn scalar_travels_from_lowest_owning_rank_only() {
        // Both writers hold it: rank 0 sends, rank 1 does not.
        let dists = vec![
            vec![VarMeta::Scalar { name: "t".into() }],
            vec![VarMeta::Scalar { name: "t".into() }],
        ];
        let sels = vec![vec![Subscription { var: "t".into(), sel: Selection::Scalar }]];
        let p = plan(&dists, &sels);
        assert_eq!(p[0][0].len(), 1);
        assert_eq!(p[1][0].len(), 0);
        // Only rank 1 wrote the scalar: it must still be served.
        let dists = vec![Vec::new(), vec![VarMeta::Scalar { name: "t".into() }]];
        let p = plan(&dists, &sels);
        assert_eq!(p[0][0].len(), 0);
        assert_eq!(p[1][0].len(), 1, "scalar from its only owner");
    }

    #[test]
    fn expected_message_counts() {
        let chunks = vec![
            ChunkPlan { var: "a".into(), region: None },
            ChunkPlan { var: "b".into(), region: None },
        ];
        assert_eq!(expected_messages(&chunks, false), 2);
        assert_eq!(expected_messages(&chunks, true), 1);
        assert_eq!(expected_messages(&[], true), 0);
    }

    #[test]
    fn meta_and_subscription_roundtrip() {
        let metas = [
            VarMeta::Scalar { name: "s".into() },
            VarMeta::Block {
                name: "b".into(),
                shape: vec![4, 4],
                offset: vec![0, 2],
                count: vec![4, 2],
            },
        ];
        for m in &metas {
            assert_eq!(VarMeta::from_record(m.to_record()), Some(m.clone()));
        }
        let subs = [
            Subscription { var: "v".into(), sel: Selection::ProcessGroup(3) },
            Subscription {
                var: "v".into(),
                sel: Selection::GlobalBox(BoxSel::new(vec![1], vec![2])),
            },
            Subscription { var: "v".into(), sel: Selection::Scalar },
        ];
        for s in &subs {
            assert_eq!(Subscription::from_record(s.to_record()), Some(s.clone()));
        }
        // A box whose offset and count disagree in rank is refused.
        let mut ragged = subs[1].to_record();
        ragged.set("count", FieldValue::from(vec![2u64, 2]));
        assert_eq!(Subscription::from_record(ragged), None);
    }

    #[test]
    fn plan_codec_roundtrips_and_refuses_hostile_counts() {
        let (dists, sels, _) = fig3_setup();
        let row = plan(&dists, &sels).swap_remove(4); // overlaps both readers
        let rec = encode_plan(&row);
        assert_eq!(decode_plan(rec.clone()), Some(row));
        // A damaged or hostile `go`: counts far above what the record can
        // hold must come back `None` — no capacity-overflow panic, no
        // terabyte allocation.
        for huge in [u64::MAX, 1 << 40] {
            for key in ["peers", "count.0"] {
                let mut bad = rec.clone();
                bad.set(key, FieldValue::U64(huge));
                assert_eq!(decode_plan(bad), None, "{key} = {huge}");
            }
        }
        // So is a region whose offset and count disagree in rank.
        let mut ragged = rec.clone();
        let FieldValue::Record(mut chunk) = ragged.get("chunk.0.0").unwrap().clone() else {
            panic!()
        };
        chunk.set("count", FieldValue::from(vec![1u64]));
        ragged.set("chunk.0.0", FieldValue::Record(chunk));
        assert_eq!(decode_plan(ragged), None);
        // An honest count the record does not back up is refused too.
        let mut short = rec.clone();
        short.set("count.1", FieldValue::U64(2));
        assert_eq!(decode_plan(short), None);
    }

    #[test]
    fn extract_whole_and_region() {
        let b = LocalBlock {
            global_shape: vec![4],
            offset: vec![0],
            count: vec![4],
            data: ArrayData::F64(vec![0.0, 1.0, 2.0, 3.0]),
        }
        .validated();
        let vb = VarValue::Block(b.clone());
        let whole = extract_chunk(&vb, &ChunkPlan { var: "x".into(), region: None });
        assert!(matches!(whole, Cow::Borrowed(_)), "whole-value extraction must not copy");
        assert_eq!(whole.as_ref(), &vb);
        let part = extract_chunk(
            &vb,
            &ChunkPlan { var: "x".into(), region: Some(BoxSel::new(vec![1], vec![2])) },
        );
        let VarValue::Block(p) = part.as_ref() else { panic!() };
        assert_eq!(p.data.as_f64(), &[1.0, 2.0]);
        // Scalars pass through whole.
        let s = VarValue::Scalar(ScalarValue::U64(7));
        assert_eq!(extract_chunk(&s, &ChunkPlan { var: "x".into(), region: None }).as_ref(), &s);
        let _ = DataType::F64; // silence unused import in some cfgs
    }

    #[test]
    fn split_box_covers_exactly_with_remainder_up_front() {
        let global = BoxSel::new(vec![2, 5], vec![10, 4]);
        let slabs = split_box(&global, 3);
        assert_eq!(
            slabs,
            vec![
                Some(BoxSel::new(vec![2, 5], vec![4, 4])),
                Some(BoxSel::new(vec![6, 5], vec![3, 4])),
                Some(BoxSel::new(vec![9, 5], vec![3, 4])),
            ]
        );
        // Union is the original; slabs are disjoint and contiguous.
        let total: u64 = slabs.iter().flatten().map(|b| b.count[0]).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_box_one_part_is_identity_and_overcommit_yields_none() {
        let global = BoxSel::new(vec![0], vec![3]);
        assert_eq!(split_box(&global, 1), vec![Some(global.clone())]);
        let slabs = split_box(&global, 5);
        assert_eq!(slabs.iter().flatten().count(), 3);
        assert_eq!(slabs[3], None);
        assert_eq!(slabs[4], None);
    }
}
