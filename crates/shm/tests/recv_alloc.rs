//! What a shm receive allocates: a pooled frame is read where its queue
//! entry lies and leases the pool buffer itself, so it allocates nothing;
//! an inline frame is copied once, into the lease's own vector.

use shm::channel::shm_channel;
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
