//! The handshake recomputes only what changed: a `dists`, `subs`,
//! `writer_info` or `reader_info` frame that repeats the last one is
//! neither decoded nor parsed, an unchanged side re-sends the bytes it
//! sent before, and the plan is redrawn only when the distributions, the
//! selections or the eviction set move. These `NO_CACHING` couplings move
//! each of those inputs mid-stream — a reader re-subscribes, a writer
//! re-decomposes, a reader dies and is evicted — and hold every read to
//! `adios::select` of what the writers wrote that step.

mod common;

use std::sync::Arc;
use std::time::Duration;

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine,
};
use common::couple;
use flexio::{CachingLevel, ElasticRoster, StreamHints, WriteMode};

const ROWS: u64 = 8;
const COLS: u64 = 6;
const STEPS: u64 = 7;
/// The step at which the coupling's input changes.
const CHANGE: u64 = 3;

fn hints() -> StreamHints {
    StreamHints {
        caching: CachingLevel::NoCaching,
        write_mode: WriteMode::Sync,
        recv_timeout: Duration::from_secs(2),
        retries: 1,
        ..StreamHints::default()
    }
}

/// The rows writer `w` of `nw` holds at `step`: an even split, which from
/// `CHANGE` on (when `moves`) shifts one row from each writer to the next
/// — with one writer, the block shrinks to its first five rows.
fn rows(step: u64, w: usize, nw: usize, moves: bool) -> (u64, u64) {
    let n = nw as u64;
    let (w, even) = (w as u64, ROWS / n);
    match (moves && step >= CHANGE, nw) {
        (false, _) => (w * even, even),
        (true, 1) => (0, 5),
        (true, _) => {
            let start = if w == 0 { 0 } else { w * even + 1 };
            let end = if w + 1 == n { ROWS } else { (w + 1) * even + 1 };
            (start, end - start)
        }
    }
}

/// The variables every writer writes.
const VARS: [&str; 2] = ["field", "mask"];

/// Writer `w`'s block of variable `var` (the `ROWS` x `COLS` array) at
/// `step`.
fn written(step: u64, w: usize, nw: usize, moves: bool, var: &str) -> VarValue {
    let (start, count) = rows(step, w, nw, moves);
    let base = if var == "mask" { 0.5 } else { 0.0 };
    let data = (start..start + count)
        .flat_map(|i| (0..COLS).map(move |j| (step * 1000 + i * 10 + j) as f64 + base))
        .collect();
    VarValue::Block(
        LocalBlock {
            global_shape: vec![ROWS, COLS],
            offset: vec![start, 0],
            count: vec![count, COLS],
            data: ArrayData::F64(data),
        }
        .validated(),
    )
}

/// What a read of `sel` of `var` at `step` must return: `adios::select`
/// over every writer's block.
fn expected(step: u64, nw: usize, moves: bool, var: &str, sel: &Selection) -> Option<VarValue> {
    let blocks: Vec<VarValue> = (0..nw).map(|w| written(step, w, nw, moves, var)).collect();
    adios::select(blocks.iter().enumerate(), sel)
}

fn write_all(mut w: flexio::StreamWriter, rank: usize, nw: usize, moves: bool) {
    for step in 0..STEPS {
        w.begin_step(step);
        for var in VARS {
            w.write(var, written(step, rank, nw, moves, var));
        }
        w.end_step();
    }
    w.close();
}

/// A reader's subscriptions: `(variable, box)` pairs.
type Subs = Vec<(&'static str, BoxSel)>;

/// Read every step with `subs_at(step)` subscribed (re-subscribing when
/// it changes), checking every read; the steps seen. With `stop_after`,
/// the rank leaves (drops its engine) after that step.
fn read_all(
    mut r: flexio::StreamReader,
    nw: usize,
    moves: bool,
    stop_after: Option<u64>,
    subs_at: impl Fn(u64) -> Subs,
) -> Vec<u64> {
    let mut subscribed = Subs::new();
    let mut seen = Vec::new();
    for step in 0.. {
        let subs = subs_at(step);
        if subs != subscribed {
            r.clear_subscriptions();
            for (var, sel) in &subs {
                r.subscribe(var, Selection::GlobalBox(sel.clone()));
            }
            subscribed = subs;
        }
        let StepStatus::Step(got) = r.begin_step() else { break };
        assert_eq!(got, step);
        for (var, sel) in &subscribed {
            let sel = Selection::GlobalBox(sel.clone());
            let want = expected(step, nw, moves, var, &sel);
            assert_eq!(r.read(var, &sel), want, "step {step} {var} {sel:?}");
        }
        seen.push(step);
        r.end_step();
        if stop_after == Some(step) {
            break;
        }
    }
    seen
}

fn all_steps() -> Vec<u64> {
    (0..STEPS).collect()
}

/// Reader rank 0 moves to another box at `CHANGE` and adds a second
/// variable there — so the number of chunks it receives changes — while
/// any other rank keeps its subscription (its frame repeats).
fn resubscribe(nw: usize, nr: usize) {
    let (_, seen) = couple(
        nw,
        nr,
        hints(),
        move |w, rank| write_all(w, rank, nw, false),
        move |r, rank| {
            read_all(r, nw, false, None, move |step| match (rank, step < CHANGE) {
                (0, false) => {
                    let moved = BoxSel::new(vec![2, 0], vec![5, COLS]);
                    vec![("field", moved.clone()), ("mask", moved)]
                }
                _ => vec![("field", BoxSel::new(vec![rank as u64, 1], vec![3, 4]))],
            })
        },
    );
    assert!(seen.iter().all(|s| *s == all_steps()), "{seen:?}");
}

#[test]
fn a_reader_that_resubscribes_reads_its_new_box_1x1() {
    resubscribe(1, 1);
}

#[test]
fn a_reader_that_resubscribes_reads_its_new_box_2x2() {
    resubscribe(2, 2);
}

fn redecompose(nw: usize, nr: usize) {
    let (_, seen) = couple(
        nw,
        nr,
        hints(),
        move |w, rank| write_all(w, rank, nw, true),
        move |r, rank| {
            let sel = BoxSel::new(vec![2 + rank as u64, 1], vec![5, 4]);
            read_all(r, nw, true, None, move |_| vec![("field", sel.clone())])
        },
    );
    assert!(seen.iter().all(|s| *s == all_steps()), "{seen:?}");
}

#[test]
fn a_writer_that_changes_its_block_count_is_read_right_1x1() {
    redecompose(1, 1);
}

#[test]
fn a_writer_that_changes_its_block_count_is_read_right_2x2() {
    redecompose(2, 2);
}

/// Reader rank 1 dies after step `CHANGE - 1`; the coordinator's next
/// gather finds its channel closed and evicts it (elastic membership), both
/// coordinators plan around it, and from `CHANGE + 1` on rank 0 reads the
/// whole field in its place.
fn evict(nw: usize) {
    let roster = Arc::new(ElasticRoster::new(2));
    let (links, seen) = couple(
        nw,
        2,
        hints(),
        move |w, rank| {
            let link = Arc::clone(w.link());
            write_all(w, rank, nw, false);
            link
        },
        move |mut r, rank| {
            if rank == 1 {
                let own = BoxSel::new(vec![ROWS / 2, 0], vec![ROWS / 2, COLS]);
                return read_all(r, nw, false, Some(CHANGE - 1), move |_| {
                    vec![("field", own.clone())]
                });
            }
            r.enable_elastic(Arc::clone(&roster));
            read_all(r, nw, false, None, |step| {
                let rows = if step <= CHANGE { ROWS / 2 } else { ROWS };
                vec![("field", BoxSel::new(vec![0, 0], vec![rows, COLS]))]
            })
        },
    );
    assert_eq!(seen, [all_steps(), (0..CHANGE).collect()]);
    assert_eq!(links[0].counters.snapshot().evictions, 1);
    assert!(links[0].is_evicted(1) && !links[0].is_evicted(0));
}

#[test]
fn an_evicted_reader_is_planned_around_1x2() {
    evict(1);
}

#[test]
fn an_evicted_reader_is_planned_around_2x2() {
    evict(2);
}
