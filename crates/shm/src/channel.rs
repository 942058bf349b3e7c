//! The complete intra-node channel: SPSC data queue + buffer pool (paper
//! §II.D).
//!
//! Two message paths, chosen per send:
//!
//! 1. **Inline** — payloads that fit in a queue entry travel directly
//!    through the [`crate::spsc`] data queue (the paper's "small messages
//!    like handshaking messages are passed through data queues").
//! 2. **Pooled (one copy, leased)** — the producer copies the payload into
//!    a buffer from the [`crate::pool::BufferPool`] free list, posts the
//!    buffer in its pool slot, pushes the control frame `(slot, start,
//!    len)` — the paper's "(address, length)" — and returns immediately
//!    (asynchronous send). The paper's consumer then copies from the pooled
//!    buffer into its target; this one claims the slot and is handed the
//!    pool buffer itself as a [`Lease`], and the buffer returns to the free
//!    list when the lease (and every view decoded out of it) drops. The
//!    producer starts the message at the 0–7 byte pad that puts its first
//!    bulk segment on an 8-byte boundary, so a consumer can reinterpret
//!    that payload as 8-byte elements without moving it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::pool::{BufferPool, Lease};
use crate::spsc::{spsc_queue, Consumer, Producer};

/// Segments of a vectored send at least this long count as bulk payload:
/// the pooled path places the first of them on a [`BULK_ALIGN`] boundary.
/// The marshaling layer borrows array payloads from this size up as
/// segments of their own, so the segment it borrows is the one aligned.
pub const BULK_SEGMENT_MIN: usize = 4096;

/// Alignment given to the first bulk segment of a pooled message: the
/// widest element the data model has.
pub const BULK_ALIGN: usize = 8;

/// Control-message kinds on the wire (first byte of a queue entry).
const KIND_INLINE: u8 = 0;
const KIND_POOLED: u8 = 1;

/// A pooled frame: the kind byte, then slot, start and length as `u64`s.
const POOLED_FRAME_LEN: usize = 25;

/// Channel ids tag the slots a channel posts in a pool that other
/// channels (and socket receivers) may share.
static NEXT_CHANNEL: AtomicU64 = AtomicU64::new(0);

/// Error surfaced by the receive path when a control frame cannot be
/// interpreted. A corrupt frame no longer brings the process down; callers
/// (the evpath transport layer) treat it as a dropped message and let the
/// protocol's timeout/retry machinery degrade gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The control frame was malformed: truncated, an unknown kind byte, a
    /// slot holding nothing posted for this channel, or a window past the
    /// end of the slot's buffer.
    Corrupt(&'static str),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Corrupt(reason) => write!(f, "corrupt control frame: {reason}"),
        }
    }
}

impl std::error::Error for ChannelError {}

impl ChannelError {
    /// The static corruption diagnostic, for layers (the evpath readiness
    /// poll) that propagate the reason without the enum.
    pub fn reason(&self) -> &'static str {
        match self {
            ChannelError::Corrupt(reason) => reason,
        }
    }
}

struct Shared {
    /// The tag on the slots this channel posts in `pool`.
    id: u64,
    pool: BufferPool,
    producer_copies: AtomicU64,
    /// Set (with `Release`, after the producer's final push) when the
    /// sending half is dropped: the SPSC producer is unique, so the drop
    /// is the definitive "no more frames will ever arrive" event.
    closed: AtomicBool,
}

impl Drop for Shared {
    /// Both halves are gone: what was posted and never claimed goes back
    /// on the free list.
    fn drop(&mut self) {
        self.pool.unpost(self.id);
    }
}

/// Sending half of a shared-memory channel.
pub struct ShmSender {
    queue: Producer,
    shared: Arc<Shared>,
}

/// Receiving half of a shared-memory channel.
pub struct ShmReceiver {
    queue: Consumer,
    shared: Arc<Shared>,
}

/// Create a shared-memory channel with `entries` queue slots of
/// `inline_capacity` bytes each. Payloads up to `inline_capacity - 1`
/// travel inline; larger ones take the pooled path.
pub fn shm_channel(entries: usize, inline_capacity: usize) -> (ShmSender, ShmReceiver) {
    // Default reclamation threshold: 64 MiB of free pooled capacity, the
    // "configurable threshold value [that] controls total memory usage".
    // A thread with an installed placement pool (a fleet worker pinned
    // to a NUMA domain) shares that pool instead of allocating its own.
    let pool = crate::placement::thread_pool().unwrap_or_else(|| BufferPool::new(64 << 20));
    shm_channel_with_pool(entries, inline_capacity, pool)
}

/// Like [`shm_channel`], but drawing pooled buffers from an explicit
/// (possibly NUMA-pinned, possibly shared) pool.
pub fn shm_channel_with_pool(
    entries: usize,
    inline_capacity: usize,
    pool: BufferPool,
) -> (ShmSender, ShmReceiver) {
    assert!(inline_capacity >= 32, "need room for control messages");
    let (producer, consumer) = spsc_queue(entries, inline_capacity);
    let shared = Arc::new(Shared {
        id: NEXT_CHANNEL.fetch_add(1, Ordering::Relaxed),
        pool,
        producer_copies: AtomicU64::new(0),
        closed: AtomicBool::new(false),
    });
    (
        ShmSender { queue: producer, shared: Arc::clone(&shared) },
        ShmReceiver { queue: consumer, shared },
    )
}

impl ShmSender {
    /// Asynchronous send: inline if small, otherwise the pooled path.
    /// Returns once the payload is safely buffered — the caller may reuse
    /// its source immediately (the overlap the paper's asynchronous API
    /// provides).
    pub fn send_copy(&mut self, payload: &[u8]) {
        self.send_copy_vectored(&[payload]);
    }

    /// Scatter-gather variant of [`ShmSender::send_copy`]: the message is
    /// the concatenation of `segments`, written segment by segment straight
    /// into the inline frame or the pooled buffer — the segments never get
    /// assembled into an intermediate message buffer, so the pooled path
    /// costs one producer-side copy however the message is split.
    pub fn send_copy_vectored(&mut self, segments: &[&[u8]]) {
        let total: usize = segments.iter().map(|s| s.len()).sum();
        if total < self.queue.payload_capacity() {
            let mut framed = Vec::with_capacity(total + 1);
            framed.push(KIND_INLINE);
            for s in segments {
                framed.extend_from_slice(s);
            }
            self.queue.push(&framed).expect("inline frame fits entry capacity");
            return;
        }
        let frame = self.post_pooled(segments, total);
        self.queue.push(&frame).expect("control frame fits entry capacity");
    }

    /// Copy `segments` (`total` bytes) into a pool buffer, post it for
    /// this channel and return its control frame. The message starts at
    /// the pad that aligns its first bulk segment; the pad is slot
    /// placement, not message bytes, and reaches the consumer as the
    /// lease's start.
    fn post_pooled(&mut self, segments: &[&[u8]], total: usize) -> [u8; POOLED_FRAME_LEN] {
        let mut buf = self.shared.pool.acquire(total + BULK_ALIGN - 1);
        let dst = buf.as_mut_slice();
        let before_bulk: Option<usize> = segments
            .iter()
            .position(|s| s.len() >= BULK_SEGMENT_MIN)
            .map(|i| segments[..i].iter().map(|s| s.len()).sum());
        let pad =
            before_bulk.map_or(0, |at| (dst.as_ptr() as usize + at).wrapping_neg() % BULK_ALIGN);
        let mut at = pad;
        for s in segments {
            dst[at..at + s.len()].copy_from_slice(s);
            at += s.len();
        }
        self.shared.producer_copies.fetch_add(1, Ordering::Relaxed);
        pooled_frame(buf.post(self.shared.id), pad, total)
    }

    /// Fault-injection hook: push raw bytes as one queue frame, bypassing
    /// the framing logic entirely — the shm analogue of the fabric
    /// delivering a damaged control message. The receive path must survive
    /// whatever lands here (`ChannelError::Corrupt`, never a panic).
    /// Test/chaos API.
    #[doc(hidden)]
    pub fn inject_raw_frame(&mut self, frame: &[u8]) {
        self.queue.push(frame).expect("injected frame fits entry capacity");
    }
}

impl Drop for ShmSender {
    fn drop(&mut self) {
        // `Release` orders the flag after every push this producer made:
        // a receiver that observes `closed` and then finds the queue empty
        // knows the channel is drained for good.
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl ShmReceiver {
    /// Blocking receive; returns the message, or the corruption error for
    /// a frame that cannot be decoded.
    pub fn recv(&mut self) -> Result<Lease, ChannelError> {
        loop {
            match self.try_recv() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
    }

    /// Non-blocking receive. `Ok(None)` means the queue is currently empty;
    /// `Err` means a frame arrived but was corrupt (and was consumed).
    pub fn try_recv(&mut self) -> Result<Option<Lease>, ChannelError> {
        match self.queue.try_pop() {
            Some(frame) => self.decode(frame).map(Some),
            None => Ok(None),
        }
    }

    fn decode(&self, frame: Vec<u8>) -> Result<Lease, ChannelError> {
        match frame.first() {
            Some(&KIND_INLINE) => {
                // The popped entry is the message behind its kind byte.
                let mut msg = Lease::from(frame);
                msg.skip(1);
                Ok(msg)
            }
            Some(&KIND_POOLED) => {
                let [slot, start, len] = pooled_words(&frame)?;
                let buf =
                    self.shared.pool.claim(slot, self.shared.id).ok_or(ChannelError::Corrupt(
                        "slot holds nothing posted for this channel",
                    ))?;
                // A bad window drops the claimed buffer back on the free list.
                if start.checked_add(len).is_none_or(|end| end > buf.capacity()) {
                    return Err(ChannelError::Corrupt("window past the end of the slot's buffer"));
                }
                // No consumer copy: the pool buffer itself is the message,
                // and goes back on the free list when the lease drops.
                Ok(Lease::pooled(buf, start, len))
            }
            Some(_) => Err(ChannelError::Corrupt("unknown frame kind")),
            None => Err(ChannelError::Corrupt("empty frame")),
        }
    }

    /// True once the sending half has been dropped. The flag is set after
    /// the producer's last push, so callers must re-poll the queue once
    /// after observing it before declaring the channel drained.
    pub fn peer_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

fn pooled_frame(slot: usize, start: usize, len: usize) -> [u8; POOLED_FRAME_LEN] {
    let mut frame = [KIND_POOLED; POOLED_FRAME_LEN];
    for (word, at) in [slot, start, len].into_iter().zip(frame[1..].chunks_exact_mut(8)) {
        at.copy_from_slice(&(word as u64).to_le_bytes());
    }
    frame
}

/// A pooled frame's slot, start and length; a word too wide for `usize`
/// reads as `usize::MAX`, which no slot or window accepts.
fn pooled_words(frame: &[u8]) -> Result<[usize; 3], ChannelError> {
    let words =
        frame.get(1..POOLED_FRAME_LEN).ok_or(ChannelError::Corrupt("truncated control frame"))?;
    Ok(std::array::from_fn(|i| {
        let word = u64::from_le_bytes(words[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        usize::try_from(word).unwrap_or(usize::MAX)
    }))
}

#[cfg(test)]
impl ShmSender {
    /// Buffer-pool statistics (monitoring hook).
    pub(crate) fn pool_stats(&self) -> crate::pool::PoolStats {
        self.shared.pool.stats()
    }

    /// NUMA domain of the channel's buffer pool, if placement-pinned.
    pub(crate) fn pool_domain(&self) -> Option<usize> {
        self.shared.pool.numa_domain()
    }

    /// Number of producer-side payload copies performed so far.
    pub(crate) fn producer_copies(&self) -> u64 {
        self.shared.producer_copies.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn inline_roundtrip() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        tx.send_copy(b"small");
        assert_eq!(&rx.recv().unwrap()[..], b"small");
        // No large-path copies for inline messages.
        assert_eq!(tx.producer_copies(), 0);
    }

    #[test]
    fn pooled_path_costs_one_copy_and_leases_the_buffer() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        let payload = vec![7u8; 100_000];
        tx.send_copy(&payload);
        let got = rx.recv().unwrap();
        assert_eq!(&got[..], &payload[..]);
        assert_eq!(tx.producer_copies(), 1, "producer copies into the pool");
        // The buffer is out on lease: the next send cannot reuse it.
        tx.send_copy(&payload);
        assert_eq!(tx.pool_stats().misses, 2);
        drop(got);
        drop(rx.recv().unwrap());
        tx.send_copy(&payload);
        assert_eq!(tx.pool_stats().hits, 1, "a dropped lease is back on the free list");
    }

    #[test]
    fn first_bulk_segment_lands_on_an_eight_byte_boundary() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        let body = vec![5u8; BULK_SEGMENT_MIN];
        for head_len in 0..=16 {
            let head = vec![1u8; head_len];
            tx.send_copy_vectored(&[&head, &body, b"tail"]);
            let got = rx.recv().unwrap();
            assert_eq!(got.len(), head_len + body.len() + 4);
            assert_eq!(&got[..head_len], &head[..]);
            assert_eq!(&got[head_len + body.len()..], b"tail");
            assert!(
                (got[head_len..].as_ptr() as usize).is_multiple_of(BULK_ALIGN),
                "bulk segment after a {head_len}-byte head is misaligned"
            );
        }
        // A message within 7 bytes of its size class still fits with its pad.
        let edge = vec![3u8; (1 << 16) - 1];
        tx.send_copy_vectored(&[b"x", &edge]);
        assert_eq!(rx.recv().unwrap().len(), 1 << 16);
    }

    #[test]
    fn vectored_send_matches_flat_send() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        // Inline: segments concatenate under the capacity threshold.
        tx.send_copy_vectored(&[b"head", b"-", b"tail"]);
        assert_eq!(&rx.recv().unwrap()[..], b"head-tail");
        assert_eq!(tx.producer_copies(), 0);
        // Pooled: segments land in the pool slot with exactly one
        // producer-side copy (no intermediate flat message).
        let body = vec![5u8; 100_000];
        tx.send_copy_vectored(&[b"hdr", &body]);
        let got = rx.recv().unwrap();
        assert_eq!(&got[..3], b"hdr");
        assert_eq!(&got[3..], &body[..]);
        assert_eq!(tx.producer_copies(), 1, "one copy into the pool, not two");
    }

    #[test]
    fn pool_buffers_are_reused_across_sends() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        let payload = vec![1u8; 1 << 16];
        for _ in 0..50 {
            tx.send_copy(&payload);
            let _ = rx.recv().unwrap();
        }
        let stats = tx.pool_stats();
        assert_eq!(stats.misses, 1, "only the first send allocates: {stats:?}");
        assert_eq!(stats.hits, 49);
    }

    #[test]
    fn channels_share_the_installed_placement_pool() {
        // Channels created on a thread with an installed placement pool
        // draw pooled buffers from it (and report its domain); other
        // threads keep private unpinned pools.
        let t = thread::spawn(|| {
            let pinned = crate::BufferPool::new_pinned(64 << 20, 2);
            crate::placement::install_thread_pool(pinned.clone());
            let (mut a_tx, mut a_rx) = shm_channel(8, 64);
            let (tx2, _rx2) = shm_channel(8, 64);
            assert_eq!(a_tx.pool_domain(), Some(2));
            assert_eq!(tx2.pool_domain(), Some(2));
            a_tx.send_copy(&vec![7u8; 4096]); // pooled path
            assert_eq!(a_rx.recv().unwrap().len(), 4096);
            // Both channels' traffic lands in the one shared pool.
            assert_eq!(pinned.stats().misses, 1);
            crate::placement::clear_thread_pool();
        });
        t.join().unwrap();
        let (tx, _rx) = shm_channel(8, 64);
        assert_eq!(tx.pool_domain(), None, "no placement installed here");
    }

    #[test]
    fn mixed_traffic_preserves_order() {
        let (mut tx, mut rx) = shm_channel(16, 64);
        let t = thread::spawn(move || {
            for i in 0u32..500 {
                if i % 3 == 0 {
                    tx.send_copy(&vec![i as u8; 10_000]); // pooled
                } else {
                    tx.send_copy(&i.to_le_bytes()); // inline
                }
            }
        });
        for i in 0u32..500 {
            let msg = rx.recv().unwrap();
            if i % 3 == 0 {
                assert_eq!(msg.len(), 10_000);
                assert!(msg.iter().all(|&b| b == i as u8));
            } else {
                assert_eq!(u32::from_le_bytes(msg[..4].try_into().unwrap()), i);
            }
        }
        t.join().unwrap();
    }

    const NOT_POSTED: &str = "slot holds nothing posted for this channel";

    /// Push `frame` raw, expect it rejected for `reason`, and check that
    /// the channel still carries the next message.
    fn rejects(tx: &mut ShmSender, rx: &mut ShmReceiver, frame: &[u8], reason: &'static str) {
        tx.inject_raw_frame(frame);
        assert_eq!(rx.try_recv().err(), Some(ChannelError::Corrupt(reason)), "{frame:?}");
        tx.send_copy(b"still alive");
        assert_eq!(&rx.recv().unwrap()[..], b"still alive");
    }

    /// A buffer of `pool` holding `bytes`, posted for `channel`; its slot.
    fn post(pool: &BufferPool, channel: u64, bytes: &[u8]) -> usize {
        let mut buf = pool.acquire(bytes.len());
        buf.as_mut_slice()[..bytes.len()].copy_from_slice(bytes);
        buf.post(channel)
    }

    #[test]
    fn corrupt_frames_error_instead_of_panicking() {
        // Regression: each of these frames used to panic the receiver.
        let pool = BufferPool::new(1 << 30);
        let (mut tx, mut rx) = shm_channel_with_pool(8, 64, pool.clone());
        let (mut other_tx, mut other_rx) = shm_channel_with_pool(8, 64, pool.clone());
        let (tx_id, other_id) = (tx.shared.id, other_tx.shared.id);

        rejects(&mut tx, &mut rx, &[42u8, 0, 0, 0], "unknown frame kind");
        rejects(&mut tx, &mut rx, &[], "empty frame");
        rejects(&mut tx, &mut rx, &[KIND_POOLED, 1, 2], "truncated control frame");
        let cut = pooled_frame(0, 0, 8);
        rejects(&mut tx, &mut rx, &cut[..POOLED_FRAME_LEN - 1], "truncated control frame");

        // Slots out of range, one checked out and never posted, one free.
        rejects(&mut tx, &mut rx, &pooled_frame(1000, 0, 8), NOT_POSTED);
        rejects(&mut tx, &mut rx, &pooled_frame(usize::MAX, 0, 8), NOT_POSTED);
        let out = pool.acquire(64);
        rejects(&mut tx, &mut rx, &pooled_frame(out.slot, 0, 8), NOT_POSTED);
        let free = out.slot;
        drop(out);
        rejects(&mut tx, &mut rx, &pooled_frame(free, 0, 8), NOT_POSTED);

        // A replayed frame: the first claims the slot, the second finds
        // nothing there.
        let frame = pooled_frame(post(&pool, tx_id, b"hello"), 0, 5);
        tx.inject_raw_frame(&frame);
        assert_eq!(&rx.recv().unwrap()[..], b"hello");
        rejects(&mut tx, &mut rx, &frame, NOT_POSTED);

        // A slot posted by another channel on the same pool stays posted
        // for that channel, which still receives its message.
        let theirs = pooled_frame(post(&pool, other_id, b"theirs"), 0, 6);
        rejects(&mut tx, &mut rx, &theirs, NOT_POSTED);
        other_tx.inject_raw_frame(&theirs);
        assert_eq!(&other_rx.recv().unwrap()[..], b"theirs");

        // A window past the buffer's end: the claimed buffer goes back on
        // the free list.
        for (start, len) in [(8, 64), (usize::MAX, 1)] {
            let slot = post(&pool, tx_id, &[0; 64]);
            rejects(
                &mut tx,
                &mut rx,
                &pooled_frame(slot, start, len),
                "window past the end of the slot's buffer",
            );
            let before = pool.stats();
            assert_eq!(pool.acquire(64).slot, slot);
            assert_eq!(pool.stats().hits, before.hits + 1);
        }
        assert_eq!(pool.free_and_posted().1, 0, "nothing is left posted");
    }

    #[test]
    fn a_dropped_channel_lists_what_it_posted_and_nobody_claimed() {
        let pool = BufferPool::new(1 << 30);
        let (mut tx, rx) = shm_channel_with_pool(8, 64, pool.clone());
        for _ in 0..3 {
            tx.send_copy(&[1u8; 10_000]);
        }
        let resident = pool.stats().resident_bytes;
        assert_eq!(pool.free_and_posted(), (0, 3));
        drop(tx);
        assert_eq!(pool.free_and_posted(), (0, 3), "the receiver may still claim them");
        drop(rx);
        assert_eq!(pool.free_and_posted(), (resident, 0), "free bytes equal resident bytes");
        let before = pool.stats();
        drop(pool.acquire(10_000));
        let after = pool.stats();
        assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
        assert_eq!(after.resident_bytes, resident);
    }

    /// Two channels on one pool, each with a producer and a consumer
    /// thread, trading slots through the one free list. Every consumer
    /// gets exactly its own producer's messages, in order; with both
    /// channels gone nothing is posted and every resident byte is free.
    /// Many short rounds on fresh pools, as in the pool's own hammer.
    #[test]
    fn two_channels_on_one_pool_keep_their_messages_under_a_hammer() {
        use std::sync::Barrier;
        const MSGS: usize = 40;
        let message = |ch: usize, i: usize| -> Vec<u8> {
            (0..20 + i * 37 % 200).map(|k| (ch * 97 + i * 31 + k) as u8).collect()
        };
        for round in 0..300 {
            let pool = BufferPool::new(1 << 30);
            let start = Barrier::new(4);
            thread::scope(|s| {
                for ch in 0..2 {
                    let (mut tx, mut rx) = shm_channel_with_pool(MSGS, 32, pool.clone());
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        for i in 0..MSGS {
                            tx.send_copy(&message(ch, i));
                        }
                    });
                    s.spawn(move || {
                        start.wait();
                        for i in 0..MSGS {
                            let msg = loop {
                                match rx.try_recv() {
                                    Ok(Some(msg)) => break msg,
                                    Ok(None) => thread::yield_now(),
                                    Err(e) => panic!("round {round}, channel {ch}: {e}"),
                                }
                            };
                            assert_eq!(
                                &msg[..],
                                &message(ch, i)[..],
                                "round {round}, channel {ch}"
                            );
                        }
                    });
                }
            });
            let resident = pool.stats().resident_bytes;
            assert_eq!(pool.free_and_posted(), (resident, 0), "round {round}");
        }
    }

    #[test]
    fn peer_closed_only_after_sender_drop_and_drain() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        assert!(!rx.peer_closed());
        tx.send_copy(b"last words");
        drop(tx);
        // The flag is up, but the queue still holds the final message: the
        // contract is flag + one more poll, which the evpath layer honours.
        assert!(rx.peer_closed());
        assert_eq!(rx.try_recv().unwrap().as_deref(), Some(&b"last words"[..]));
        assert!(rx.try_recv().unwrap().is_none());
        assert!(rx.peer_closed());
    }
}
