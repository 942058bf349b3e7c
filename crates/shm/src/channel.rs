//! The complete intra-node channel: SPSC control/data queue + buffer pool
//! + XPMEM-style mapped path (paper §II.D).
//!
//! Three message paths, chosen per send:
//!
//! 1. **Inline** — payloads that fit in a queue entry travel directly
//!    through the [`crate::spsc`] data queue (the paper's "small messages
//!    like handshaking messages are passed through data queues").
//! 2. **Pooled (one copy, leased)** — the producer copies the payload into
//!    a buffer from the [`crate::pool::BufferPool`] free list, sends a
//!    control message through the queue, and returns immediately
//!    (asynchronous send). The paper's consumer then copies from the pooled
//!    buffer into its target; this one is handed the pool buffer itself as
//!    a [`Lease`] and reads the message in place, and the buffer returns to
//!    the free list when the lease (and every view decoded out of it)
//!    drops. The producer starts the message at the 0–7 byte pad that puts
//!    its first bulk segment on an 8-byte boundary, so a consumer can
//!    reinterpret that payload as 8-byte elements without moving it.
//! 3. **Mapped (one copy, synchronous)** — emulating XPMEM
//!    `xpmem_make`/`xpmem_get`: the producer *shares its source buffer* (an
//!    `Arc` here, a page mapping on the Cray) and blocks until the consumer
//!    has copied directly out of it.
//!
//! Copy counts are instrumented so tests and benches can verify them
//! rather than assume them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Sender as OneshotSender};
use parking_lot::Mutex;

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
const KIND_MAPPED: u8 = 2;

/// Error surfaced by the receive path when a control frame cannot be
/// interpreted. A corrupt frame no longer brings the process down; callers
/// (the evpath transport layer) treat it as a dropped message and let the
/// protocol's timeout/retry machinery degrade gracefully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The control frame was malformed: truncated, an unknown kind byte, a
    /// token with no parked transfer, or a token parked under a different
    /// transfer kind than the frame claims.
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

/// An in-flight large transfer parked in the side table. The token travels
/// through the data queue as the stand-in for the paper's
/// "(address, length)" control message.
enum Transfer {
    Pooled(Lease),
    Mapped { data: Arc<Vec<u8>>, done: OneshotSender<()> },
}

struct Shared {
    transfers: Mutex<HashMap<u64, Transfer>>,
    producer_copies: AtomicU64,
    consumer_copies: AtomicU64,
    /// Set (with `Release`, after the producer's final push) when the
    /// sending half is dropped: the SPSC producer is unique, so the drop
    /// is the definitive "no more frames will ever arrive" event.
    closed: AtomicBool,
}

/// Sending half of a shared-memory channel.
pub struct ShmSender {
    queue: Producer,
    pool: BufferPool,
    shared: Arc<Shared>,
    next_token: u64,
}

/// Receiving half of a shared-memory channel.
pub struct ShmReceiver {
    queue: Consumer,
    shared: Arc<Shared>,
}

/// Create a shared-memory channel with `entries` queue slots of
/// `inline_capacity` bytes each. Payloads up to `inline_capacity - 1`
/// travel inline; larger ones take the pooled or mapped path.
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
        transfers: Mutex::new(HashMap::new()),
        producer_copies: AtomicU64::new(0),
        consumer_copies: AtomicU64::new(0),
        closed: AtomicBool::new(false),
    });
    (
        ShmSender { queue: producer, pool, shared: Arc::clone(&shared), next_token: 0 },
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
        let token = self.park_pooled(segments, total);
        self.queue
            .push(&control_frame(KIND_POOLED, token))
            .expect("control frame fits entry capacity");
    }

    /// Copy `segments` (`total` bytes) into a pool buffer and park it in
    /// the side table under a fresh token, which is returned. The message
    /// starts at the pad that aligns its first bulk segment; the pad is
    /// slot placement, not message bytes, and reaches the consumer as the
    /// lease's start.
    fn park_pooled(&mut self, segments: &[&[u8]], total: usize) -> u64 {
        let mut buf = self.pool.acquire(total + BULK_ALIGN - 1);
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
        let token = self.next_token;
        self.next_token += 1;
        self.shared
            .transfers
            .lock()
            .insert(token, Transfer::Pooled(Lease::pooled(buf, pad, total)));
        token
    }

    /// Synchronous one-copy send (XPMEM emulation): shares the caller's
    /// buffer with the consumer and blocks until the consumer has copied
    /// out of it, mirroring `xpmem_make` → consumer copy → release.
    pub fn send_mapped(&mut self, payload: Arc<Vec<u8>>) {
        let token = self.next_token;
        self.next_token += 1;
        let (done_tx, done_rx) = bounded(1);
        self.shared
            .transfers
            .lock()
            .insert(token, Transfer::Mapped { data: payload, done: done_tx });
        self.queue
            .push(&control_frame(KIND_MAPPED, token))
            .expect("control frame fits entry capacity");
        // Block until the consumer releases the mapping.
        done_rx.recv().expect("consumer dropped mid-transfer");
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

    fn decode(&mut self, frame: Vec<u8>) -> Result<Lease, ChannelError> {
        let Some(&kind) = frame.first() else {
            return Err(ChannelError::Corrupt("empty frame"));
        };
        match kind {
            KIND_INLINE => {
                // The popped entry is the message behind its kind byte.
                let mut msg = Lease::from(frame);
                msg.skip(1);
                Ok(msg)
            }
            KIND_POOLED => {
                let token = token_of(&frame)?;
                let transfer = self
                    .shared
                    .transfers
                    .lock()
                    .remove(&token)
                    .ok_or(ChannelError::Corrupt("pooled token has no parked transfer"))?;
                let Transfer::Pooled(msg) = transfer else {
                    // Don't reinsert: a kind/token mismatch means the frame
                    // stream is already untrustworthy for this token.
                    return Err(ChannelError::Corrupt("token parked as mapped, frame says pooled"));
                };
                // No consumer copy: the pool buffer itself is the message,
                // and goes back on the free list when the lease drops.
                Ok(msg)
            }
            KIND_MAPPED => {
                let token = token_of(&frame)?;
                let transfer = self
                    .shared
                    .transfers
                    .lock()
                    .remove(&token)
                    .ok_or(ChannelError::Corrupt("mapped token has no parked transfer"))?;
                let Transfer::Mapped { data, done } = transfer else {
                    return Err(ChannelError::Corrupt("token parked as pooled, frame says mapped"));
                };
                // The only copy: producer's (shared) source -> target. The
                // producer is blocked until it is made, so the source
                // cannot be leased out instead.
                let out = data.as_slice().to_vec();
                self.shared.consumer_copies.fetch_add(1, Ordering::Relaxed);
                drop(data); // release the "mapping"
                let _ = done.send(());
                Ok(out.into())
            }
            _ => Err(ChannelError::Corrupt("unknown frame kind")),
        }
    }

    /// Number of consumer-side payload copies performed so far.
    pub fn consumer_copies(&self) -> u64 {
        self.shared.consumer_copies.load(Ordering::Relaxed)
    }

    /// True once the sending half has been dropped. The flag is set after
    /// the producer's last push, so callers must re-poll the queue once
    /// after observing it before declaring the channel drained.
    pub fn peer_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

fn control_frame(kind: u8, token: u64) -> [u8; 9] {
    let mut frame = [0u8; 9];
    frame[0] = kind;
    frame[1..9].copy_from_slice(&token.to_le_bytes());
    frame
}

fn token_of(frame: &[u8]) -> Result<u64, ChannelError> {
    let bytes = frame.get(1..9).ok_or(ChannelError::Corrupt("truncated control frame"))?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("slice is 8 bytes")))
}

// Pool and copy probes: the tests pin each send path's copy count and
// pool placement through these.
#[cfg(test)]
impl ShmSender {
    /// Buffer-pool statistics (monitoring hook).
    pub(crate) fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// NUMA domain of the channel's buffer pool, if placement-pinned.
    pub(crate) fn pool_domain(&self) -> Option<usize> {
        self.pool.numa_domain()
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
        assert_eq!(rx.consumer_copies(), 0);
    }

    #[test]
    fn pooled_path_costs_one_copy_and_leases_the_buffer() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        let payload = vec![7u8; 100_000];
        tx.send_copy(&payload);
        let got = rx.recv().unwrap();
        assert_eq!(&got[..], &payload[..]);
        assert_eq!(tx.producer_copies(), 1, "producer copies into the pool");
        assert_eq!(rx.consumer_copies(), 0, "consumer reads the pool buffer in place");
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
        assert_eq!(rx.consumer_copies(), 0);
    }

    #[test]
    fn mapped_path_costs_one_copy() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        let payload = Arc::new(vec![3u8; 100_000]);
        let expect = payload.as_slice().to_vec();
        let t = thread::spawn(move || {
            tx.send_mapped(payload);
            tx // return to inspect counters after the sync send completes
        });
        assert_eq!(&rx.recv().unwrap()[..], &expect[..]);
        let tx = t.join().unwrap();
        assert_eq!(tx.producer_copies(), 0, "producer shares, never copies");
        assert_eq!(rx.consumer_copies(), 1);
    }

    #[test]
    fn mapped_send_blocks_until_consumed() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (mut tx, mut rx) = shm_channel(8, 64);
        let sent = Arc::new(AtomicBool::new(false));
        let sent2 = Arc::clone(&sent);
        let t = thread::spawn(move || {
            tx.send_mapped(Arc::new(vec![1u8; 4096]));
            sent2.store(true, Ordering::SeqCst);
        });
        // Give the sender a moment: it must NOT complete before we recv.
        thread::sleep(std::time::Duration::from_millis(30));
        assert!(!sent.load(Ordering::SeqCst), "synchronous send returned early");
        let _ = rx.recv().unwrap();
        t.join().unwrap();
        assert!(sent.load(Ordering::SeqCst));
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

    #[test]
    fn corrupt_frames_error_instead_of_panicking() {
        // Regression: each of these frames used to panic the receiver.
        let (mut tx, mut rx) = shm_channel(8, 64);

        // Unknown kind byte.
        tx.queue.push(&[42u8, 0, 0, 0]).unwrap();
        assert_eq!(rx.try_recv().err(), Some(ChannelError::Corrupt("unknown frame kind")));

        // Truncated control frame (pooled kind but no room for a token).
        tx.queue.push(&[KIND_POOLED, 1, 2]).unwrap();
        assert_eq!(rx.try_recv().err(), Some(ChannelError::Corrupt("truncated control frame")));

        // Well-formed pooled frame whose token was never parked.
        tx.queue.push(&control_frame(KIND_POOLED, 99)).unwrap();
        assert_eq!(
            rx.try_recv().err(),
            Some(ChannelError::Corrupt("pooled token has no parked transfer"))
        );

        // Empty frame.
        tx.queue.push(&[]).unwrap();
        assert_eq!(rx.try_recv().err(), Some(ChannelError::Corrupt("empty frame")));

        // The channel keeps working after every corrupt frame.
        tx.send_copy(b"still alive");
        assert_eq!(&rx.recv().unwrap()[..], b"still alive");
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

    #[test]
    fn kind_mismatch_frame_is_corrupt() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        // Park a mapped transfer, then forge a POOLED frame for its token.
        let (done_tx, _done_rx) = bounded(1);
        tx.shared
            .transfers
            .lock()
            .insert(7, Transfer::Mapped { data: Arc::new(vec![1, 2, 3]), done: done_tx });
        tx.queue.push(&control_frame(KIND_POOLED, 7)).unwrap();
        assert_eq!(
            rx.try_recv().err(),
            Some(ChannelError::Corrupt("token parked as mapped, frame says pooled"))
        );
    }
}
