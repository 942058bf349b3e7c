//! The complete intra-node channel: SPSC data queue + buffer pool (paper
//! §II.D).
//!
//! Three message paths, chosen per send:
//!
//! 1. **Inline** — payloads that fit in a queue entry travel directly
//!    through the [`crate::spsc`] data queue (the paper's "small messages
//!    like handshaking messages are passed through data queues"): the
//!    sender gathers its segments into the entry behind a kind byte, and
//!    the receiver copies the message out once, into its lease.
//! 2. **Pooled (one copy, leased)** — the producer copies the payload into
//!    a buffer from the [`crate::pool::BufferPool`] free list, posts the
//!    buffer in its pool slot, pushes the control frame `(slot, start,
//!    len)` — the paper's "(address, length)" — and returns immediately
//!    (asynchronous send). The paper's consumer then copies from the pooled
//!    buffer into its target; this one parses the frame in its queue
//!    entry, claims the slot and is handed the pool buffer itself as a
//!    [`Lease`], and the buffer returns to the free list when the lease
//!    (and every view decoded out of it) drops. The producer starts the
//!    message at the 0–7 byte pad that puts its first bulk segment on an
//!    8-byte boundary, so a consumer can reinterpret that payload as 8-byte
//!    elements without moving it.
//! 3. **Exposed (no copy, mapped)** — the analogue of the paper's XPMEM
//!    path, for a message whose bulk payloads already lie in shared,
//!    immutable buffers ([`Window`]s into `Arc<Lease>`s).
//!    [`ShmSender::send_exposed`] *exposes* each window to the channel (the
//!    channel's shared state holds it, numbered in exposure order) and
//!    pushes the frame `(first, count)` with the message's metadata in the
//!    queue entry. The consumer claims exactly those windows, which must
//!    be the oldest exposed ones and make up one message, and is handed a
//!    mapped [`Lease`]: the metadata plus the sender's own buffers. No
//!    payload byte is copied on either side; where the paper maps the
//!    producer's pages and copies once, the consumer here reads them in
//!    place.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::pool::{BufferPool, Lease, Window, INLINE_WINDOWS};
use crate::spsc::{spsc_queue, Consumer, Producer};
use crate::StackVec;

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
const KIND_EXPOSED: u8 = 2;

/// A pooled frame: the kind byte, then slot, start and length as `u64`s.
const POOLED_FRAME_LEN: usize = 25;

/// An exposed frame's head: the kind byte, then the number of its first
/// window and its window count as `u64`s. The metadata follows.
const EXPOSED_HEAD_LEN: usize = 17;

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
    /// slot holding nothing posted for this channel, a window past the
    /// end of the slot's buffer, or exposed windows that are not the
    /// oldest ones this channel holds, or not one message's.
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
    /// Windows exposed and not yet claimed (see [`Exposed`]).
    exposed: Mutex<Exposed>,
    /// Set (with `Release`, after the producer's final push) when the
    /// sending half is dropped: the SPSC producer is unique, so the drop
    /// is the definitive "no more frames will ever arrive" event.
    closed: AtomicBool,
}

/// The windows of exposed messages that the consumer has not claimed,
/// oldest first. A window's number is its place in exposure order (the
/// oldest held one is `next - windows.len()`); the flag marks the last
/// window of its message. Dropping the channel drops what is left, which
/// returns each buffer's `Arc` to whoever else holds it.
#[derive(Default)]
struct Exposed {
    next: u64,
    windows: VecDeque<(Window, bool)>,
}

impl Exposed {
    /// Hold one message's `windows`; the number of its first.
    fn expose(&mut self, windows: impl ExactSizeIterator<Item = Window>) -> u64 {
        let (first, count) = (self.next, windows.len());
        for (i, w) in windows.enumerate() {
            self.windows.push_back((w, i + 1 == count));
        }
        self.next += count as u64;
        first
    }

    /// Take the windows `first..first + count` for a frame whose metadata
    /// is `meta_len` bytes: only the oldest held windows, making up one
    /// whole message, whose offsets lie inside the metadata. Anything else
    /// is a frame that is not the next exposed message, and takes nothing.
    fn claim(
        &mut self,
        first: u64,
        count: usize,
        meta_len: usize,
    ) -> Option<StackVec<Window, INLINE_WINDOWS>> {
        let oldest = self.next - self.windows.len() as u64;
        if first != oldest || count == 0 {
            return (first == oldest).then(StackVec::new);
        }
        if self.windows.get(count - 1).map(|(_, last)| *last) != Some(true) {
            return None;
        }
        let mine = self.windows.range(..count);
        if mine.clone().rev().skip(1).any(|(_, last)| *last)
            || mine.clone().any(|(w, _)| w.at > meta_len)
            || mine.clone().zip(mine.skip(1)).any(|((a, _), (b, _))| a.at > b.at)
        {
            return None;
        }
        Some(self.windows.drain(..count).map(|(w, _)| w).collect())
    }
}

impl Shared {
    /// The message a queue entry carries, read where the entry lies: an
    /// inline message is copied once, into its lease; a pooled frame's
    /// descriptor is only parsed, and the claimed pool buffer is the lease;
    /// an exposed message's metadata is copied into a buffer from `metas`.
    fn decode(&self, frame: &[u8], metas: &BufferPool) -> Result<Lease, ChannelError> {
        match frame.first() {
            Some(&KIND_INLINE) => Ok(Lease::from(frame[1..].to_vec())),
            Some(&KIND_POOLED) => {
                let [slot, start, len] = frame_words(frame)?;
                let buf = self
                    .pool
                    .claim(slot, self.id)
                    .ok_or(ChannelError::Corrupt("slot holds nothing posted for this channel"))?;
                // A bad window drops the claimed buffer back on the free list.
                if start.checked_add(len).is_none_or(|end| end > buf.capacity()) {
                    return Err(ChannelError::Corrupt("window past the end of the slot's buffer"));
                }
                // No consumer copy: the pool buffer itself is the message,
                // and goes back on the free list when the lease drops.
                Ok(Lease::pooled(buf, start, len))
            }
            Some(&KIND_EXPOSED) => {
                let [first, count] = frame_words(frame)?;
                let meta = &frame[EXPOSED_HEAD_LEN..];
                let windows =
                    self.exposed
                        .lock()
                        .unwrap()
                        .claim(first as u64, count, meta.len())
                        .ok_or(ChannelError::Corrupt("not the next exposed message's windows"))?;
                // The metadata is copied out of the entry; the payloads are
                // the sender's buffers, shared, never copied.
                let mut buf = metas.acquire(meta.len());
                buf.as_mut_slice()[..meta.len()].copy_from_slice(meta);
                Ok(Lease::mapped(buf, meta.len(), windows))
            }
            Some(_) => Err(ChannelError::Corrupt("unknown frame kind")),
            None => Err(ChannelError::Corrupt("empty frame")),
        }
    }
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
    /// The buffers exposed messages' metadata is copied into: the
    /// receiver's own, so that they recycle apart from the (possibly
    /// shared) payload pool.
    metas: BufferPool,
}

/// Free metadata-buffer capacity a receiver keeps before reclaiming.
const META_POOL_THRESHOLD: u64 = 1 << 20;

/// Create a shared-memory channel with `entries` queue slots of
/// `inline_capacity` bytes each. Payloads up to `inline_capacity - 1`
/// travel inline; larger ones take the pooled path.
pub fn shm_channel(entries: usize, inline_capacity: usize) -> (ShmSender, ShmReceiver) {
    // Default reclamation threshold: 64 MiB of free pooled capacity, the
    // "configurable threshold value [that] controls total memory usage".
    // A thread with an installed pool (a test watching a channel's
    // buffers) shares that pool instead of allocating its own.
    let pool = crate::placement::thread_pool().unwrap_or_else(|| BufferPool::new(64 << 20));
    shm_channel_with_pool(entries, inline_capacity, pool)
}

/// Like [`shm_channel`], but drawing pooled buffers from an explicit
/// (possibly shared) pool.
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
        exposed: Mutex::default(),
        closed: AtomicBool::new(false),
    });
    (
        ShmSender { queue: producer, shared: Arc::clone(&shared) },
        ShmReceiver { queue: consumer, shared, metas: BufferPool::new(META_POOL_THRESHOLD) },
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
    /// into the queue entry (behind its kind byte) or the pooled buffer —
    /// the segments never get assembled into an intermediate message
    /// buffer, so either path costs one producer-side copy however the
    /// message is split.
    pub fn send_copy_vectored(&mut self, segments: &[&[u8]]) {
        let total: usize = segments.iter().map(|s| s.len()).sum();
        let pushed = if total < self.queue.payload_capacity() {
            self.queue.push_with(total + 1, |entry| {
                entry[0] = KIND_INLINE;
                gather(segments, &mut entry[1..]);
            })
        } else {
            let frame = self.post_pooled(segments, total);
            self.queue.push_with(POOLED_FRAME_LEN, |entry| entry.copy_from_slice(&frame))
        };
        pushed.expect("frame fits entry capacity");
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
        gather(segments, &mut dst[pad..]);
        self.shared.producer_copies.fetch_add(1, Ordering::Relaxed);
        pooled_frame(buf.post(self.shared.id), pad, total)
    }

    /// Send a message whose bulk payloads are `windows` into shared
    /// buffers, without copying them: `meta` is the message with the
    /// windows cut out (each window's `at` is where its bytes go in
    /// `meta`, in order), and only `meta` is copied, into the queue entry.
    /// The windows stay with the channel until the consumer claims them.
    /// Returns `false`, having sent nothing, when `meta` does not fit an
    /// entry; the caller then sends the message flat.
    pub fn send_exposed(
        &mut self,
        meta: &[u8],
        windows: impl ExactSizeIterator<Item = Window>,
    ) -> bool {
        if EXPOSED_HEAD_LEN + meta.len() > self.queue.payload_capacity() {
            return false;
        }
        let count = windows.len();
        // The lock is released before a push that may wait for the
        // consumer, who takes it to claim.
        let first = self.shared.exposed.lock().unwrap().expose(windows);
        self.queue
            .push_with(EXPOSED_HEAD_LEN + meta.len(), |entry| {
                entry[..EXPOSED_HEAD_LEN].copy_from_slice(&exposed_head(first, count));
                entry[EXPOSED_HEAD_LEN..].copy_from_slice(meta);
            })
            .expect("frame fits entry capacity");
        true
    }

    /// Fault-injection hook: push raw bytes as one queue frame, bypassing
    /// the framing logic entirely — the shm analogue of the fabric
    /// delivering a damaged control message. The receive path must survive
    /// whatever lands here (`ChannelError::Corrupt`, never a panic).
    /// Test/chaos API.
    #[doc(hidden)]
    pub fn inject_raw_frame(&mut self, frame: &[u8]) {
        self.queue
            .push_with(frame.len(), |entry| entry.copy_from_slice(frame))
            .expect("injected frame fits entry capacity");
    }
}

/// Copy `segments` back to back to the front of `dst`.
fn gather(segments: &[&[u8]], dst: &mut [u8]) {
    let mut at = 0;
    for s in segments {
        dst[at..at + s.len()].copy_from_slice(s);
        at += s.len();
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
        let (shared, metas) = (&self.shared, &self.metas);
        self.queue.try_pop_with(|frame| shared.decode(frame, metas)).transpose()
    }

    /// True once the sending half has been dropped. The flag is set after
    /// the producer's last push, so callers must re-poll the queue once
    /// after observing it before declaring the channel drained.
    pub fn peer_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

/// The kind byte `kind`, then `words` as little-endian `u64`s.
fn frame_head<const L: usize>(kind: u8, words: &[usize]) -> [u8; L] {
    let mut frame = [kind; L];
    for (word, at) in words.iter().zip(frame[1..].chunks_exact_mut(8)) {
        at.copy_from_slice(&(*word as u64).to_le_bytes());
    }
    frame
}

fn pooled_frame(slot: usize, start: usize, len: usize) -> [u8; POOLED_FRAME_LEN] {
    frame_head(KIND_POOLED, &[slot, start, len])
}

fn exposed_head(first: u64, count: usize) -> [u8; EXPOSED_HEAD_LEN] {
    frame_head(KIND_EXPOSED, &[first as usize, count])
}

/// The `N` words after a frame's kind byte (a pooled frame's slot, start
/// and length; an exposed frame's first window and count); a word too wide
/// for `usize` reads as `usize::MAX`, which no slot or window accepts.
fn frame_words<const N: usize>(frame: &[u8]) -> Result<[usize; N], ChannelError> {
    let words = frame.get(1..1 + 8 * N).ok_or(ChannelError::Corrupt("truncated control frame"))?;
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
        // Channels created on a thread with an installed pool draw pooled
        // buffers from it; other threads keep private pools.
        let t = thread::spawn(|| {
            let pool = crate::BufferPool::new(64 << 20);
            crate::placement::install_thread_pool(pool.clone());
            let (mut a_tx, mut a_rx) = shm_channel(8, 64);
            let (_tx2, _rx2) = shm_channel(8, 64);
            a_tx.send_copy(&vec![7u8; 4096]); // pooled path
            assert_eq!(a_rx.recv().unwrap().len(), 4096);
            // Both channels' traffic lands in the one shared pool.
            assert_eq!(pool.stats().misses, 1);
            crate::placement::clear_thread_pool();
        });
        t.join().unwrap();
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

    /// `len` bytes of a shared buffer, telling buffers apart by `salt`.
    fn shared(len: usize, salt: u8) -> Arc<Lease> {
        Arc::new(Lease::from(
            (0..len).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect::<Vec<_>>(),
        ))
    }

    fn window(at: usize, buf: &Arc<Lease>, start: usize, len: usize) -> Window {
        Window { at, buf: Arc::clone(buf), start, len }
    }

    #[test]
    fn an_exposed_message_hands_over_the_senders_buffers_without_a_copy() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        let (a, b) = (shared(10_000, 1), shared(5_000, 2));
        let windows = [window(3, &a, 16, 8_000), window(5, &b, 0, 5_000)];
        assert!(tx.send_exposed(b"head-tail", windows.into_iter()));
        let got = rx.recv().unwrap();
        assert_eq!(&got[..], b"head-tail", "the bytes around the windows");
        let [wa, wb] = got.windows() else { panic!("two windows") };
        assert_eq!(wa.bytes().as_ptr(), a[16..].as_ptr(), "the sender's own buffer");
        assert!(Arc::ptr_eq(&wb.buf, &b));
        assert_eq!((wa.at, wb.at), (3, 5));
        assert_eq!(tx.producer_copies(), 0);
        assert_eq!(tx.pool_stats(), crate::PoolStats::default(), "no pool buffer");
        // Read flat, the windows are spliced back where they go.
        let flat = [&b"hea"[..], &a[16..8_016], b"d-", &b[..], b"tail"].concat();
        assert!(got.into_vec() == flat);
        assert_eq!((Arc::strong_count(&a), Arc::strong_count(&b)), (1, 1));
        // Metadata too long for an entry: nothing is sent or held.
        assert!(!tx.send_exposed(&[0; 48], std::iter::once(window(0, &a, 0, 1))));
        assert_eq!(Arc::strong_count(&a), 1);
        assert!(rx.try_recv().unwrap().is_none());
    }

    #[test]
    fn exposed_frames_claim_only_the_next_messages_windows() {
        const NOT_NEXT: &str = "not the next exposed message's windows";
        let (mut tx, mut rx) = shm_channel(8, 64);
        let buf = shared(8_192, 3);
        // Message A holds windows 0 and 1, message B window 2; their
        // frames are not sent yet.
        let (a, b) = {
            let mut exposed = tx.shared.exposed.lock().unwrap();
            let a = exposed
                .expose([window(0, &buf, 0, 4_096), window(2, &buf, 4_096, 4_096)].into_iter());
            (a, exposed.expose(std::iter::once(window(1, &buf, 0, 8_192))))
        };
        assert_eq!((a, b), (0, 2));
        let frame = |first: u64, count: usize, meta: &[u8]| {
            [&exposed_head(first, count)[..], meta].concat()
        };
        for bad in [
            frame(2, 1, b"x"),  // B before A
            frame(0, 1, b"ab"), // half of A
            frame(1, 1, b"ab"), // the other half
            frame(0, 3, b"ab"), // A and B as one
            frame(0, 2, b"a"),  // A's second window past the metadata
            frame(1, 0, b"ab"), // no windows, but not the oldest
            frame(u64::MAX, 2, b"ab"),
            frame(0, usize::MAX, b"ab"),
        ] {
            rejects(&mut tx, &mut rx, &bad, NOT_NEXT);
        }
        rejects(&mut tx, &mut rx, &exposed_head(0, 2)[..9], "truncated control frame");
        // Nothing was taken: A, then B, arrive whole, and a replay of B
        // finds nothing.
        tx.inject_raw_frame(&frame(0, 2, b"ab"));
        let got = rx.recv().unwrap();
        assert_eq!(
            got.windows().iter().map(|w| (w.at, w.start)).collect::<Vec<_>>(),
            [(0, 0), (2, 4_096)]
        );
        tx.inject_raw_frame(&frame(2, 1, b"x"));
        assert!(rx.recv().unwrap().into_vec() == [&b"x"[..], &buf[..]].concat());
        rejects(&mut tx, &mut rx, &frame(2, 1, b"x"), NOT_NEXT);
        drop(got);
        assert_eq!(Arc::strong_count(&buf), 1);
    }

    #[test]
    fn a_dropped_channel_releases_the_windows_nobody_claimed() {
        let (mut tx, mut rx) = shm_channel(8, 64);
        let buf = shared(8_192, 4);
        for _ in 0..3 {
            let windows = [window(0, &buf, 0, 4_096), window(1, &buf, 4_096, 4_096)];
            assert!(tx.send_exposed(b"m", windows.into_iter()));
        }
        let claimed = rx.recv().unwrap();
        assert_eq!(Arc::strong_count(&buf), 7);
        drop(tx);
        assert_eq!(Arc::strong_count(&buf), 7, "the receiver may still claim them");
        drop(rx);
        assert_eq!(Arc::strong_count(&buf), 3, "the claimed message's two are left");
        drop(claimed);
        assert_eq!(Arc::strong_count(&buf), 1);
    }

    /// Exposed, pooled and inline messages from a producer thread arrive
    /// in order; each exposed one as the producer's buffers.
    #[test]
    fn exposed_messages_keep_their_order_among_copied_ones() {
        let (mut tx, mut rx) = shm_channel(4, 64);
        let bufs: Vec<Arc<Lease>> = (0..8).map(|i| shared(4_096 + i, i as u8)).collect();
        let sent = bufs.clone();
        let t = thread::spawn(move || {
            for i in 0..600usize {
                let buf = &sent[i % 8];
                match i % 3 {
                    0 => assert!(tx.send_exposed(
                        &i.to_le_bytes(),
                        std::iter::once(window(8, buf, 0, buf.len()))
                    )),
                    1 => tx.send_copy(&vec![i as u8; 5_000]),
                    _ => tx.send_copy(&i.to_le_bytes()),
                }
            }
        });
        for i in 0..600usize {
            let msg = rx.recv().unwrap();
            match i % 3 {
                0 => {
                    assert_eq!(&msg[..], i.to_le_bytes());
                    assert!(Arc::ptr_eq(&msg.windows()[0].buf, &bufs[i % 8]), "message {i}");
                }
                1 => assert!(msg.len() == 5_000 && msg.iter().all(|&b| b == i as u8)),
                _ => assert_eq!(&msg[..], i.to_le_bytes()),
            }
        }
        t.join().unwrap();
        assert!(bufs.iter().all(|b| Arc::strong_count(b) == 1));
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
