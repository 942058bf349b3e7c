//! Stones: EVPath's dataflow graph abstraction.
//!
//! Events ([`Record`]s) are submitted to *stones*; each stone either
//! consumes the event (terminal handler), conditionally forwards it
//! (filter), rewrites it (transform), fans it out (split), or ships it into
//! a byte transport (bridge). FlexIO's runtime builds small stone graphs
//! for its control paths — e.g. monitoring events flow through a filter
//! (sampling) into a bridge towards the analytics side.

use crate::ffs::Record;
use crate::transport::BoxedSender;

/// Identifier of a stone within one [`EvGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoneId(usize);

enum Stone {
    Terminal(Box<dyn FnMut(Record) + Send>),
    Filter { predicate: Box<dyn FnMut(&Record) -> bool + Send>, target: StoneId },
    Transform { func: Box<dyn FnMut(Record) -> Record + Send>, target: StoneId },
    Split(Vec<StoneId>),
    Bridge(BoxedSender),
}

/// A local dataflow graph of stones.
#[derive(Default)]
pub struct EvGraph {
    stones: Vec<Stone>,
}

impl EvGraph {
    /// Empty graph.
    pub fn new() -> EvGraph {
        EvGraph::default()
    }

    fn add(&mut self, stone: Stone) -> StoneId {
        self.stones.push(stone);
        StoneId(self.stones.len() - 1)
    }

    /// A terminal stone invoking `handler` for every event.
    pub fn terminal(&mut self, handler: impl FnMut(Record) + Send + 'static) -> StoneId {
        self.add(Stone::Terminal(Box::new(handler)))
    }

    /// A filter stone forwarding to `target` only events satisfying
    /// `predicate`.
    pub fn filter(
        &mut self,
        predicate: impl FnMut(&Record) -> bool + Send + 'static,
        target: StoneId,
    ) -> StoneId {
        self.add(Stone::Filter { predicate: Box::new(predicate), target })
    }

    /// A transform stone rewriting events before forwarding to `target`.
    pub fn transform(
        &mut self,
        func: impl FnMut(Record) -> Record + Send + 'static,
        target: StoneId,
    ) -> StoneId {
        self.add(Stone::Transform { func: Box::new(func), target })
    }

    /// A split stone forwarding each event to every target.
    pub fn split(&mut self, targets: Vec<StoneId>) -> StoneId {
        self.add(Stone::Split(targets))
    }

    /// A bridge stone encoding events and shipping them into a transport.
    pub fn bridge(&mut self, sender: BoxedSender) -> StoneId {
        self.add(Stone::Bridge(sender))
    }

    /// Submit an event to a stone; it propagates through the graph
    /// synchronously.
    pub fn submit(&mut self, stone: StoneId, event: Record) {
        // Stones may chain; a worklist avoids recursion and the borrow
        // issues of re-entrant `&mut self`.
        let mut work = vec![(stone, event)];
        while let Some((StoneId(idx), event)) = work.pop() {
            match &mut self.stones[idx] {
                Stone::Terminal(handler) => handler(event),
                Stone::Filter { predicate, target } => {
                    if predicate(&event) {
                        work.push((*target, event));
                    }
                }
                Stone::Transform { func, target } => {
                    let out = func(event);
                    work.push((*target, out));
                }
                Stone::Split(targets) => {
                    for &t in targets.iter() {
                        work.push((t, event.clone()));
                    }
                }
                Stone::Bridge(sender) => sender.send(&event.encode()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffs::FieldValue;
    use crate::transport::inproc_pair;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn event(v: u64) -> Record {
        Record::new().with("v", FieldValue::U64(v))
    }

    #[test]
    fn terminal_receives_events() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut g = EvGraph::new();
        let t = g.terminal(move |r| {
            seen2.fetch_add(r.get_u64("v").unwrap(), Ordering::SeqCst);
        });
        g.submit(t, event(3));
        g.submit(t, event(4));
        assert_eq!(seen.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn filter_drops_nonmatching() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut g = EvGraph::new();
        let t = g.terminal(move |_| {
            seen2.fetch_add(1, Ordering::SeqCst);
        });
        let f = g.filter(|r| r.get_u64("v").unwrap_or(0) % 2 == 0, t);
        for v in 0..10 {
            g.submit(f, event(v));
        }
        assert_eq!(seen.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn transform_then_terminal() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let mut g = EvGraph::new();
        let t = g.terminal(move |r| {
            seen2.store(r.get_u64("v").unwrap(), Ordering::SeqCst);
        });
        let x = g.transform(
            |r| {
                let v = r.get_u64("v").unwrap();
                event(v * 10)
            },
            t,
        );
        g.submit(x, event(7));
        assert_eq!(seen.load(Ordering::SeqCst), 70);
    }

    #[test]
    fn split_fans_out() {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let mut g = EvGraph::new();
        let ta = g.terminal(move |_| {
            a2.fetch_add(1, Ordering::SeqCst);
        });
        let tb = g.terminal(move |_| {
            b2.fetch_add(1, Ordering::SeqCst);
        });
        let s = g.split(vec![ta, tb]);
        g.submit(s, event(1));
        assert_eq!(a.load(Ordering::SeqCst), 1);
        assert_eq!(b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn bridge_ships_encoded_records() {
        let (tx, mut rx) = inproc_pair();
        let mut g = EvGraph::new();
        let bridge = g.bridge(tx);
        g.submit(bridge, event(99));
        let received = Record::decode(&rx.recv()).unwrap();
        assert_eq!(received.get_u64("v"), Some(99));
    }

    #[test]
    fn pipeline_filter_transform_bridge() {
        // The monitoring path FlexIO builds: sample events, annotate, ship.
        let (tx, mut rx) = inproc_pair();
        let mut g = EvGraph::new();
        let bridge = g.bridge(tx);
        let annotate = g.transform(|r| r.with("annotated", FieldValue::U64(1)), bridge);
        let sample = g.filter(|r| r.get_u64("v").unwrap_or(0) % 10 == 0, annotate);
        for v in 0..30 {
            g.submit(sample, event(v));
        }
        let mut count = 0;
        while let Some(bytes) = rx.try_recv() {
            let r = Record::decode(&bytes).unwrap();
            assert_eq!(r.get_u64("annotated"), Some(1));
            count += 1;
        }
        assert_eq!(count, 3);
    }
}
