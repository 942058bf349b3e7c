//! The filter kernel: survivor mask + per-dtype gather over chunk
//! columns.
//!
//! The filter is one implementation with two placements. The
//! reader-side [`Executor`] calls it on every raw chunk it is fed; a
//! pushed-down filter runs the very same kernel inside the writer's
//! address space (the `flexio` plug-in machinery builds one from the
//! shipped [`Expr`]), so where a predicate runs is a property of the
//! plan, not a second implementation. Data is read where it lies —
//! packed receive/send-buffer windows are decoded from their LE wire
//! bytes in place, never materialized — and the scratch buffers and the
//! mask are reused from chunk to chunk.
//!
//! [`Executor`]: crate::Executor

use crate::expr::{CmpOp, Expr, Op, Program};
use crate::plan::{check_filter, PlanError};
use adios::ArrayData;
use evpath::ffs::PackedDtype;

/// A typed, borrow-only view over one column's elements. Packed
/// variants read the LE wire bytes in place.
pub(crate) enum ColView<'a> {
    F64(&'a [f64]),
    U64(&'a [u64]),
    I64(&'a [i64]),
    U8(&'a [u8]),
    PackedF64(&'a [u8]),
    PackedU64(&'a [u8]),
    PackedI64(&'a [u8]),
}

/// Bind `$rows` to the column's rows (elements, or 8-byte LE words for
/// the packed variants) and `$get` to one row's value widened to `f64`,
/// and evaluate `$body` with them. Each arm is monomorphic, so a loop
/// in `$body` is one the compiler can vectorize.
macro_rules! widened {
    ($view:expr, |$rows:ident, $get:ident| $body:expr) => {
        match $view {
            ColView::F64(v) => {
                let ($rows, $get) = (*v, |x: &f64| *x);
                $body
            }
            ColView::U64(v) => {
                let ($rows, $get) = (*v, |x: &u64| *x as f64);
                $body
            }
            ColView::I64(v) => {
                let ($rows, $get) = (*v, |x: &i64| *x as f64);
                $body
            }
            ColView::U8(v) => {
                let ($rows, $get) = (*v, |x: &u8| f64::from(*x));
                $body
            }
            ColView::PackedF64(b) => {
                let ($rows, $get) = (b.as_chunks().0, |r: &[u8; 8]| f64::from_le_bytes(*r));
                $body
            }
            ColView::PackedU64(b) => {
                let ($rows, $get) = (b.as_chunks().0, |r: &[u8; 8]| u64::from_le_bytes(*r) as f64);
                $body
            }
            ColView::PackedI64(b) => {
                let ($rows, $get) = (b.as_chunks().0, |r: &[u8; 8]| i64::from_le_bytes(*r) as f64);
                $body
            }
        }
    };
}
pub(crate) use widened;

/// `BIT[i]` is row `i`'s bit in its 64-row mask word. ANDing it with a
/// comparison stretched to all-ones or all-zeros keeps the word build a
/// branch-free AND-OR that vectorizes on baseline x86-64; the shift
/// form `(keep as u64) << i` does not.
const BIT: [u64; 64] = {
    let mut bits = [0; 64];
    let mut i = 0;
    while i < 64 {
        bits[i] = 1 << i;
        i += 1;
    }
    bits
};

/// Set `words` (one bit per row, row `i` at bit `i % 64` of word
/// `i / 64`) to `keep` over `rows`, an exact 64-row block at a time.
#[inline(always)]
fn pack_words<E>(rows: &[E], words: &mut [u64], keep: impl Fn(&E) -> bool) {
    let word = |block: &[E]| {
        block.iter().zip(&BIT).fold(0, |w, (x, bit)| w | bit & 0u64.wrapping_sub(keep(x) as u64))
    };
    let (blocks, tail) = rows.as_chunks::<64>();
    for (w, block) in words.iter_mut().zip(blocks) {
        *w = word(block);
    }
    if !tail.is_empty() {
        words[blocks.len()] = word(tail);
    }
}

/// Append the first `take` rows whose `mask` bit is set (of every row
/// when `mask` is `None`) to `dst`, decoded by `get`. `dst` grows once;
/// a zero word is skipped, a full one copied whole, and any other walks
/// its set bits.
fn gather<E, T>(
    rows: &[E],
    get: impl Fn(&E) -> T,
    mask: Option<&[u64]>,
    take: u64,
    dst: &mut Vec<T>,
) {
    let mut left = take as usize;
    dst.reserve(left);
    let Some(mask) = mask else {
        dst.extend(rows.iter().take(left).map(get));
        return;
    };
    for (&word, block) in mask.iter().zip(rows.chunks(64)) {
        if word == u64::MAX && left >= 64 {
            dst.extend(block.iter().map(&get));
            left -= 64;
            continue;
        }
        let mut w = word;
        while w != 0 && left > 0 {
            dst.push(get(&block[w.trailing_zeros() as usize]));
            w &= w - 1;
            left -= 1;
        }
        if left == 0 {
            break;
        }
    }
}

impl<'a> ColView<'a> {
    pub(crate) fn of(data: &'a ArrayData) -> ColView<'a> {
        match data {
            ArrayData::F64(v) => ColView::F64(v),
            ArrayData::U64(v) => ColView::U64(v),
            ArrayData::I64(v) => ColView::I64(v),
            ArrayData::U8(v) => ColView::U8(v),
            ArrayData::Packed(p) => match p.dtype() {
                PackedDtype::F64 => ColView::PackedF64(p.bytes()),
                PackedDtype::U64 => ColView::PackedU64(p.bytes()),
                PackedDtype::I64 => ColView::PackedI64(p.bytes()),
                PackedDtype::U8 => ColView::U8(p.bytes()),
            },
        }
    }

    pub(crate) fn fresh_output(&self) -> ArrayData {
        match self {
            ColView::F64(_) | ColView::PackedF64(_) => ArrayData::F64(Vec::new()),
            ColView::U64(_) | ColView::PackedU64(_) => ArrayData::U64(Vec::new()),
            ColView::I64(_) | ColView::PackedI64(_) => ArrayData::I64(Vec::new()),
            ColView::U8(_) => ArrayData::U8(Vec::new()),
        }
    }

    /// Append rows whose `mask` bit is set (all `n` rows when `mask` is
    /// `None`) into `out`, stopping when `budget` (if any) runs out.
    /// Returns the number of rows appended. Per-dtype gather loops; the
    /// packed arms decode each kept element from the wire bytes. `out`
    /// grows once, by exactly the rows about to be appended.
    pub(crate) fn gather_into(
        &self,
        mask: Option<&[u64]>,
        n: usize,
        out: &mut ArrayData,
        budget: &mut Option<u64>,
    ) -> u64 {
        let kept = mask.map_or(n as u64, |m| m.iter().map(|w| u64::from(w.count_ones())).sum());
        let take = budget.map_or(kept, |b| b.min(kept));
        if let Some(b) = budget {
            *b -= take;
        }
        match (self, out) {
            (ColView::F64(s), ArrayData::F64(d)) => gather(s, |x| *x, mask, take, d),
            (ColView::U64(s), ArrayData::U64(d)) => gather(s, |x| *x, mask, take, d),
            (ColView::I64(s), ArrayData::I64(d)) => gather(s, |x| *x, mask, take, d),
            (ColView::U8(s), ArrayData::U8(d)) => gather(s, |x| *x, mask, take, d),
            (ColView::PackedF64(s), ArrayData::F64(d)) => {
                gather(s.as_chunks().0, |r| f64::from_le_bytes(*r), mask, take, d)
            }
            (ColView::PackedU64(s), ArrayData::U64(d)) => {
                gather(s.as_chunks().0, |r| u64::from_le_bytes(*r), mask, take, d)
            }
            (ColView::PackedI64(s), ArrayData::I64(d)) => {
                gather(s.as_chunks().0, |r| i64::from_le_bytes(*r), mask, take, d)
            }
            _ => panic!("column dtype changed between chunks of the same variable"),
        }
        take
    }
}

/// A compiled row predicate with its reusable scratch: evaluates to a
/// survivor mask over a chunk's columns, and (single-column form)
/// gathers the survivors in the column's native dtype.
#[derive(Debug)]
pub struct FilterKernel {
    program: Program,
    /// Column indexes the predicate references (only these get widened
    /// into scratch buffers).
    referenced: Vec<usize>,
    /// One widened `f64` vector per column, used by the general path.
    scratch: Vec<Vec<f64>>,
    row: Vec<f64>,
    /// One bit per row, 64 rows a word; bits past the last row are 0.
    mask: Vec<u64>,
}

impl FilterKernel {
    /// Check `expr` (boolean, over `columns` only, within the stack
    /// bound) and compile it.
    pub fn new(expr: &Expr, columns: &[String]) -> Result<FilterKernel, PlanError> {
        let program = check_filter(expr, columns)?;
        let referenced = expr
            .columns()
            .iter()
            .map(|c| columns.iter().position(|v| v == c).expect("checked column"))
            .collect();
        Ok(FilterKernel {
            program,
            referenced,
            scratch: vec![Vec::new(); columns.len()],
            row: vec![0.0; columns.len()],
            mask: Vec::new(),
        })
    }

    /// Filter one chunk of a single-column kernel: the surviving
    /// elements, in order, in `data`'s own dtype (`f64` payload bits
    /// untouched). Allocates the survivor vector and nothing else once
    /// the mask has been sized by a first chunk.
    pub fn filter_column(&mut self, data: &ArrayData) -> ArrayData {
        assert_eq!(self.scratch.len(), 1, "filter_column needs a single-column kernel");
        let view = ColView::of(data);
        let mask = self.mask(std::slice::from_ref(&view), data.len());
        let mut out = view.fresh_output();
        view.gather_into(Some(mask), data.len(), &mut out, &mut None);
        out
    }

    /// The survivor mask over one chunk of `n` rows, `views` in the
    /// kernel's column order: bit `i % 64` of word `i / 64` is row `i`.
    pub(crate) fn mask(&mut self, views: &[ColView<'_>], n: usize) -> &[u64] {
        self.mask.clear();
        self.mask.resize(n.div_ceil(64), 0);
        // Fast path: the ubiquitous `col <op> literal` shape becomes a
        // single monomorphic compare loop per operator and dtype, read
        // straight off the column.
        if let [Op::PushCol(ci), Op::PushLit(lit), Op::Cmp(op)] = self.program.ops[..] {
            let words = &mut self.mask;
            macro_rules! cmp_loop {
                ($op:tt) => {
                    widened!(&views[ci], |rows, get| pack_words(rows, words, |x| get(x) $op lit))
                };
            }
            match op {
                CmpOp::Lt => cmp_loop!(<),
                CmpOp::Le => cmp_loop!(<=),
                CmpOp::Gt => cmp_loop!(>),
                CmpOp::Ge => cmp_loop!(>=),
                CmpOp::Eq => cmp_loop!(==),
                CmpOp::Ne => cmp_loop!(!=),
            }
            return &self.mask;
        }
        // General path: evaluate the compiled program row by row over
        // the widened scratch columns.
        for &ci in &self.referenced {
            let buf = &mut self.scratch[ci];
            buf.clear();
            widened!(&views[ci], |rows, get| buf.extend(rows.iter().map(get)));
        }
        for i in 0..n {
            for &ci in &self.referenced {
                self.row[ci] = self.scratch[ci][i];
            }
            self.mask[i / 64] |= u64::from(self.program.eval_bool(&self.row)) << (i % 64);
        }
        &self.mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evpath::ffs::PackedArray;

    fn kernel(e: Expr) -> FilterKernel {
        FilterKernel::new(&e, &["v".to_string()]).expect("boolean over v")
    }

    #[test]
    fn survivors_keep_the_column_dtype() {
        let mut k = kernel(Expr::col("v").ge(Expr::lit(2.0)));
        assert_eq!(k.filter_column(&ArrayData::U8(vec![0, 5, 1, 2])), ArrayData::U8(vec![5, 2]));
        assert_eq!(
            k.filter_column(&ArrayData::Packed(PackedArray::from_i64s(&[-3, 7, 2]))),
            ArrayData::I64(vec![7, 2])
        );
        assert_eq!(
            k.filter_column(&ArrayData::Packed(PackedArray::from_bytes(&[9, 0]))),
            ArrayData::U8(vec![9])
        );
    }

    #[test]
    fn fast_and_general_paths_agree_on_ieee_edges() {
        let data = ArrayData::F64(vec![-0.0, 0.0, f64::NAN, f64::INFINITY, -1.0]);
        let packed = ArrayData::Packed(PackedArray::from_f64s(data_f64(&data)));
        // `v < 0.0` (fast path) and `!(v >= 0.0) && v == v` (general).
        let mut fast = kernel(Expr::col("v").lt(Expr::lit(0.0)));
        let mut slow =
            kernel(Expr::col("v").ge(Expr::lit(0.0)).not().and(Expr::col("v").eq(Expr::col("v"))));
        for d in [&data, &packed] {
            assert_eq!(fast.filter_column(d), ArrayData::F64(vec![-1.0]));
            assert_eq!(slow.filter_column(d), ArrayData::F64(vec![-1.0]));
        }
    }

    fn data_f64(d: &ArrayData) -> &[f64] {
        let ArrayData::F64(v) = d else { panic!("f64 column") };
        v
    }

    #[test]
    fn non_boolean_or_foreign_column_predicates_are_rejected() {
        let cols = ["v".to_string()];
        assert!(FilterKernel::new(&Expr::col("v").add(Expr::lit(1.0)), &cols).is_err());
        assert!(FilterKernel::new(&Expr::col("w").lt(Expr::lit(1.0)), &cols).is_err());
    }
}
