//! What a shm receive allocates: a pooled frame is read where its queue
//! entry lies and leases the pool buffer itself, so it allocates nothing;
//! an inline frame is copied once, into the lease's own vector; an exposed
//! frame copies its metadata into a buffer from the receiver's pool, keeps
//! its one window inline in the lease, and copies not a byte of the
//! payload, so once that pool is warm it allocates nothing either.

use std::sync::Arc;

use shm::channel::shm_channel;
use shm::{Lease, Window};
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn a_pooled_frame_is_received_with_no_allocation() {
    let (mut tx, mut rx) = shm_channel(8, 64);
    let payload = vec![7u8; 10_000];
    for round in 0..3 {
        tx.send_copy(&payload);
        let (counts, got) = measure(0, || rx.try_recv());
        let got = got.expect("a valid frame").expect("a queued frame");
        assert_eq!(&got[..], &payload[..]);
        assert_eq!(counts.at_or_over(), 0, "round {round}: {counts:?}");
    }
}

#[test]
fn an_inline_frame_is_received_with_exactly_one_allocation() {
    let (mut tx, mut rx) = shm_channel(8, 64);
    for round in 0..3 {
        tx.send_copy_vectored(&[b"head-", b"tail"]);
        let (counts, got) = measure(0, || rx.try_recv());
        let got = got.expect("a valid frame").expect("a queued frame");
        assert_eq!(&got[..], b"head-tail");
        assert_eq!((counts.allocs, counts.reallocs), (1, 0), "round {round}");
        assert_eq!(counts.largest, 9, "round {round}: the message, without its kind byte");
    }
}

#[test]
fn an_exposed_frame_is_received_with_no_allocation() {
    let (mut tx, mut rx) = shm_channel(8, 64);
    let buf = Arc::new(Lease::from(vec![7u8; 10_000]));
    for round in 0..3 {
        let window = Window { at: 4, buf: Arc::clone(&buf), start: 8, len: 9_000 };
        assert!(tx.send_exposed(b"metadata", std::iter::once(window)));
        let (counts, got) = measure(0, || rx.try_recv());
        let got = got.expect("a valid frame").expect("a queued frame");
        assert_eq!(&got[..], b"metadata");
        assert_eq!(got.windows()[0].bytes().as_ptr(), buf[8..].as_ptr());
        // The first receive fills the receiver's metadata pool: the
        // buffer itself (8 bytes, zeroed) and the pool's slot vector.
        let expect = if round == 0 { (2, 1, 0) } else { (0, 0, 0) };
        assert_eq!((counts.allocs, counts.zeroed, counts.reallocs), expect, "round {round}");
    }
}
