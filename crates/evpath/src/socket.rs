//! Real socket transports: TCP and Unix-domain streams behind the
//! [`EvSender`]/[`EvReceiver`] contract.
//!
//! The in-process transports move whole messages; a stream socket moves
//! bytes, so this module adds the length-prefixed framing layer. A message
//! is one flat frame:
//!
//! ```text
//! +------+------------+-----------------+
//! | FXS1 | len (LE32) | payload (len B) |
//! +------+------------+-----------------+
//! ```
//!
//! An encoded record that borrows bulk payloads ([`EvSender::send_encoded`])
//! is one *split frame* instead: its payload table, then the metadata and
//! the payloads, so the receiver can choose where each payload lands.
//!
//! ```text
//! +------+------------+--------------+-------------------------+------+-----+-----+
//! | FXSP | len (LE32) | count (LE32) | count × (at, len) LE32s | meta | p_1 | ... |
//! +------+------------+--------------+-------------------------+------+-----+-----+
//! ```
//!
//! `len` is the record's length, the metadata's plus the payloads'; each
//! payload goes at offset `at` of the metadata. The receiver checks the
//! table before it sizes a buffer, reads the metadata into one pool buffer
//! and the payloads, each at an 8-aligned offset, into another, and hands
//! out a mapped [`Lease`] whose windows the decoder turns into views.
//!
//! The receiver runs the socket nonblocking and accumulates one frame at a
//! time through a small state machine, so readiness maps exactly onto
//! [`RecvPoll`]:
//!
//! * `WouldBlock` anywhere → [`RecvPoll::Empty`] — look again later;
//! * EOF *between* frames → [`RecvPoll::Closed`] — the peer shut down (or
//!   died) cleanly at a message boundary, nothing was lost here;
//! * EOF or an I/O error *inside* a frame, a bad magic, a length above the
//!   cap or a bad table → [`RecvPoll::Corrupt`] once, after which the
//!   receiver is *poisoned* and reports [`RecvPoll::Closed`] forever: a
//!   byte stream has no frame boundaries to resynchronise on, so a damaged
//!   prefix condemns the whole connection, and drain-style callers may
//!   treat `Corrupt` as "count and continue" without risking a livelock.
//!
//! [`EvReceiver::wait_readable`] blocks in one `poll(2)` on the stream's
//! fd until bytes (or EOF) arrive or a timeout passes, so a blocking
//! receive wakes when the peer's write lands instead of at the end of a
//! sleep.
//!
//! Each directed channel uses its own connection: the sending end stays
//! blocking (with a write timeout so a stalled peer degrades into silence
//! instead of wedging the writer), the receiving end is nonblocking. A
//! sender whose peer vanished marks itself dead and swallows further
//! sends — exactly how the protocol layer expects a corpse to behave.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use shm::{BufferPool, Lease, PoolBuffer, Window};

use crate::ffs::{EncodedRecord, ZERO_COPY_MIN_BYTES};
use crate::transport::{BoxedReceiver, BoxedSender, EvReceiver, EvSender, RecvPoll};
use crate::{StackVec, FRAME_SLICES};

// ------------------------------------------------------------- framing

/// Magic prefix of every socket frame.
pub const FRAME_MAGIC: [u8; 4] = *b"FXS1";
/// Bytes of framing ahead of each payload: magic + LE32 length.
pub const FRAME_HEADER_LEN: usize = 8;
/// Default cap on a single frame's payload. Anything larger is treated
/// as corruption: the cap is what turns a garbage length field into a
/// diagnosable `Corrupt` instead of a doomed multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 256 << 20;

/// Encode the frame header for a payload of `len` bytes.
pub fn encode_frame_header(len: u32) -> [u8; FRAME_HEADER_LEN] {
    let mut h = [0u8; FRAME_HEADER_LEN];
    h[..4].copy_from_slice(&FRAME_MAGIC);
    h[4..].copy_from_slice(&len.to_le_bytes());
    h
}

/// Magic prefix of a split frame: a record whose bulk payloads follow its
/// metadata, with a table of where each goes.
pub const SPLIT_FRAME_MAGIC: [u8; 4] = *b"FXSP";
/// Bytes of a split frame's header: magic, LE32 length, LE32 table count.
const SPLIT_HEADER_LEN: usize = 12;
/// Bytes of one table entry: the payload's offset in the metadata and its
/// length, as LE32s.
const TABLE_ENTRY_LEN: usize = 8;

/// `total` as a frame's 32-bit length field.
fn frame_len(total: usize) -> io::Result<u32> {
    u32::try_from(total).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame longer than the 32-bit length field")
    })
}

/// Write one frame — the header, then `segments` back to back — with
/// vectored writes: the whole frame is offered to the writer at once (one
/// `writev`, so one burst on a socket, however many segments) and whatever
/// a short write leaves over is offered again. A writer that accepts
/// nothing reads as [`io::ErrorKind::WriteZero`]; a frame whose length
/// does not fit the header's 32 bits is [`io::ErrorKind::InvalidInput`]
/// before any byte is written. How long a frame may be is the receiver's
/// cap to judge.
fn write_frame_to<W: Write>(w: &mut W, segments: &[&[u8]]) -> io::Result<()> {
    let header = encode_frame_header(frame_len(segments.iter().map(|s| s.len()).sum())?);
    let mut slices: StackVec<IoSlice, FRAME_SLICES> = StackVec::new();
    slices.push(IoSlice::new(&header));
    // An all-empty slice list would read back as `Ok(0)`: leave them out.
    segments.iter().filter(|s| !s.is_empty()).for_each(|s| slices.push(IoSlice::new(s)));
    write_all_slices(w, &mut slices)
}

/// Write `enc` as one split frame, its header and table built in `head`,
/// with the same vectored writes as [`write_frame_to`].
fn write_split_frame_to<W: Write>(
    w: &mut W,
    head: &mut Vec<u8>,
    enc: &EncodedRecord<'_>,
) -> io::Result<()> {
    let len = frame_len(enc.total_len())?;
    head.clear();
    head.extend_from_slice(&SPLIT_FRAME_MAGIC);
    head.extend_from_slice(&len.to_le_bytes());
    head.extend_from_slice(&(enc.payloads().len() as u32).to_le_bytes());
    for (at, payload) in enc.payloads() {
        // Both fit: each is at most the frame's length.
        head.extend_from_slice(&(at as u32).to_le_bytes());
        head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    }
    let mut slices: StackVec<IoSlice, FRAME_SLICES> = StackVec::new();
    slices.push(IoSlice::new(head));
    if !enc.meta().is_empty() {
        slices.push(IoSlice::new(enc.meta()));
    }
    enc.payloads().filter(|(_, p)| !p.is_empty()).for_each(|(_, p)| slices.push(IoSlice::new(p)));
    write_all_slices(w, &mut slices)
}

fn write_all_slices<W: Write>(w: &mut W, slices: &mut [IoSlice<'_>]) -> io::Result<()> {
    let mut rest = slices;
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Decode a frame header, validating magic and the length cap.
pub fn decode_frame_header(
    header: &[u8; FRAME_HEADER_LEN],
    max_len: u32,
) -> Result<u32, &'static str> {
    if header[..4] != FRAME_MAGIC {
        return Err("bad frame magic");
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len > max_len {
        return Err("frame length exceeds cap");
    }
    Ok(len)
}

// ------------------------------------------------------------- streams

/// Which socket family a channel runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketKind {
    /// Loopback/inter-node TCP.
    Tcp,
    /// Same-host Unix-domain stream socket.
    Uds,
}

impl SocketKind {
    /// The transport name reported for monitoring traces.
    pub fn name(self) -> &'static str {
        match self {
            SocketKind::Tcp => "tcp",
            SocketKind::Uds => "uds",
        }
    }
}

/// A connected stream of either family, unified behind `Read`/`Write`.
pub enum SockStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    Unix(UnixStream),
}

impl SockStream {
    /// Socket family of this stream.
    pub fn kind(&self) -> SocketKind {
        match self {
            SockStream::Tcp(_) => SocketKind::Tcp,
            SockStream::Unix(_) => SocketKind::Uds,
        }
    }

    /// Switch the stream between blocking and nonblocking I/O.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_nonblocking(nb),
            SockStream::Unix(s) => s.set_nonblocking(nb),
        }
    }

    /// Bound how long a blocking read may wait.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_read_timeout(t),
            SockStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.set_write_timeout(t),
            SockStream::Unix(s) => s.set_write_timeout(t),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            SockStream::Tcp(s) => s.as_raw_fd(),
            SockStream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.read(buf),
            SockStream::Unix(s) => s.read(buf),
        }
    }

    // Without this a vectored read falls back to `Read`'s default: one
    // `read` into the first non-empty slice.
    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.read_vectored(bufs),
            SockStream::Unix(s) => s.read_vectored(bufs),
        }
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.write(buf),
            SockStream::Unix(s) => s.write(buf),
        }
    }

    // Without this a vectored write falls back to `Write`'s default: one
    // `write` of the first non-empty slice.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            SockStream::Tcp(s) => s.write_vectored(bufs),
            SockStream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            SockStream::Tcp(s) => s.flush(),
            SockStream::Unix(s) => s.flush(),
        }
    }
}

/// Connect to an address string produced by [`SocketListener::local_addr`]
/// (`tcp:host:port` or `uds:/path`).
pub fn connect(addr: &str) -> io::Result<SockStream> {
    if let Some(hostport) = addr.strip_prefix("tcp:") {
        let s = TcpStream::connect(hostport)?;
        s.set_nodelay(true)?;
        Ok(SockStream::Tcp(s))
    } else if let Some(path) = addr.strip_prefix("uds:") {
        Ok(SockStream::Unix(UnixStream::connect(path)?))
    } else {
        Err(io::Error::new(io::ErrorKind::InvalidInput, format!("bad socket address `{addr}`")))
    }
}

// ------------------------------------------------------------ listener

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The `n`-th Unix-socket listener path of this process.
fn uds_path(n: u64) -> PathBuf {
    std::env::temp_dir().join(format!("flexio-uds-{}-{n}.sock", std::process::id()))
}

enum ListenerInner {
    Tcp(TcpListener),
    Uds(UnixListener, PathBuf),
}

/// A bound, listening socket of either family. Its [`local_addr`] string
/// is what crosses the process boundary (through the wire directory) so
/// peers can [`connect`] back.
///
/// [`local_addr`]: SocketListener::local_addr
pub struct SocketListener {
    inner: ListenerInner,
    addr: String,
}

impl SocketListener {
    /// Bind an ephemeral listener: loopback TCP on a kernel-chosen port,
    /// or a Unix socket at a fresh path under the system temp directory.
    pub fn bind(kind: SocketKind) -> io::Result<SocketListener> {
        match kind {
            SocketKind::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                let addr = format!("tcp:{}", l.local_addr()?);
                Ok(SocketListener { inner: ListenerInner::Tcp(l), addr })
            }
            SocketKind::Uds => {
                let path = uds_path(UDS_COUNTER.fetch_add(1, Ordering::Relaxed));
                // Only a killed process whose pid this one recycled can
                // have left a file here: `n` is never reused in-process.
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                let addr = format!("uds:{}", path.display());
                Ok(SocketListener { inner: ListenerInner::Uds(l, path), addr })
            }
        }
    }

    /// The connectable address string (`tcp:host:port` / `uds:/path`).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Switch the listener between blocking and nonblocking accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match &self.inner {
            ListenerInner::Tcp(l) => l.set_nonblocking(nb),
            ListenerInner::Uds(l, _) => l.set_nonblocking(nb),
        }
    }

    /// Blocking accept of one connection.
    pub fn accept(&self) -> io::Result<SockStream> {
        match &self.inner {
            ListenerInner::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(SockStream::Tcp(s))
            }
            ListenerInner::Uds(l, _) => {
                let (s, _) = l.accept()?;
                Ok(SockStream::Unix(s))
            }
        }
    }

    /// Nonblocking accept: `Ok(None)` when no connection is pending.
    /// (Only meaningful after `set_nonblocking(true)`.)
    pub fn try_accept(&self) -> io::Result<Option<SockStream>> {
        match self.accept() {
            Ok(s) => Ok(Some(s)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        if let ListenerInner::Uds(_, path) = &self.inner {
            let _ = std::fs::remove_file(path);
        }
    }
}

// -------------------------------------------------------------- sender

/// Write timeout applied to the sending end. A peer that stops draining
/// for this long (it was killed mid-step with a full socket buffer) turns
/// the sender dead instead of wedging the writing rank forever.
const SEND_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// The sending half of a socket channel. Blocking writes; once any write
/// fails the sender is dead and every later send is silently dropped —
/// to the layers above a killed peer must look like silence, which the
/// eviction/EOS-synthesis machinery then owns.
pub struct SocketSender {
    stream: SockStream,
    name: &'static str,
    dead: bool,
    /// A split frame's header and table, rebuilt in place per frame.
    head: Vec<u8>,
}

impl SocketSender {
    /// Wrap a connected stream as the sending end of a channel.
    pub fn over(stream: SockStream) -> SocketSender {
        let name = stream.kind().name();
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(SEND_STALL_TIMEOUT));
        SocketSender { stream, name, dead: false, head: Vec::new() }
    }

    /// Push raw bytes down the stream with no framing — the socket
    /// counterpart of `ShmSender::inject_raw_frame`, for corruption tests.
    pub fn inject_raw_bytes(&mut self, bytes: &[u8]) {
        if self.stream.write_all(bytes).is_err() {
            self.dead = true;
        }
    }

    fn write_frame(&mut self, segments: &[&[u8]]) {
        if !self.dead && write_frame_to(&mut self.stream, segments).is_err() {
            self.dead = true;
        }
    }
}

impl EvSender for SocketSender {
    fn send_vectored(&mut self, segments: &[&[u8]]) {
        // Segments go straight to the socket behind the header, in one
        // vectored write — no intermediate flattened buffer.
        self.write_frame(segments);
    }

    fn send_encoded(&mut self, enc: &EncodedRecord<'_>) {
        // Bulk payloads ride in a split frame, so the receiver lands each
        // one where it can be read in place; anything else is a flat frame.
        if enc.payloads().len() == 0 {
            self.send_vectored(&enc.as_slices());
        } else if !self.dead && write_split_frame_to(&mut self.stream, &mut self.head, enc).is_err()
        {
            self.dead = true;
        }
    }

    fn transport_name(&self) -> &'static str {
        self.name
    }
}

// ------------------------------------------------------------ receiver

enum RecvPhase {
    /// Accumulating the frame header: 8 bytes, 12 for a split frame.
    Header,
    /// Accumulating a flat frame's `len` bytes into `buf`.
    Payload { buf: PoolBuffer, len: usize },
    /// Accumulating a split frame's table into the receiver's `table`.
    Table { len: usize },
    /// Accumulating a split frame's metadata into `meta` and its payloads
    /// into `body`, the first at offset `pad` and each 8-aligned.
    Split { meta: PoolBuffer, meta_len: usize, body: PoolBuffer, pad: usize, len: usize },
}

/// Free frame-buffer capacity a receiver keeps before reclaiming (the shm
/// channel's default): a cap, not a reservation — the free list only ever
/// holds buffers this receiver's own traffic returned.
const FRAME_POOL_THRESHOLD: u64 = 64 << 20;

/// The most slices one vectored read of a split frame fills.
const READ_SLICES: usize = 32;

/// Alignment of each payload of a split frame in its receive buffer: the
/// widest element the data model has.
const PAYLOAD_ALIGN: usize = 8;

/// Why a read toward the current frame stopped without bytes.
enum Stall {
    /// Nothing to read yet.
    WouldBlock,
    /// The peer closed the stream.
    Eof,
    /// The connection failed.
    Failed,
}

/// The receiving half of a socket channel: nonblocking frame accumulator.
///
/// Frames are received into buffers from a free list private to the
/// receiver and handed out as [`Lease`]s, so a stream of same-sized frames
/// reuses the same warm pages instead of faulting a fresh allocation in per
/// frame; a buffer is back on the list when its lease (and every view
/// decoded out of it) has dropped.
pub struct SocketReceiver {
    stream: SockStream,
    phase: RecvPhase,
    header: [u8; SPLIT_HEADER_LEN],
    filled: usize,
    /// The current split frame's table (its capacity serves the next).
    table: Vec<u8>,
    frames: BufferPool,
    max_frame: u32,
    poisoned: bool,
}

impl SocketReceiver {
    /// Wrap a connected stream as the receiving end of a channel.
    pub fn over(stream: SockStream) -> SocketReceiver {
        stream.set_nonblocking(true).expect("socket nonblocking mode");
        SocketReceiver {
            stream,
            phase: RecvPhase::Header,
            header: [0; SPLIT_HEADER_LEN],
            filled: 0,
            table: Vec::new(),
            frames: BufferPool::new(FRAME_POOL_THRESHOLD),
            max_frame: MAX_FRAME_LEN,
            poisoned: false,
        }
    }

    /// Lower the per-frame length cap (tests use this to exercise the
    /// oversize-frame corruption path without gigabyte payloads).
    pub fn set_max_frame(&mut self, max: u32) {
        self.max_frame = max;
    }

    fn poison(&mut self, reason: &'static str) -> RecvPoll<Lease> {
        self.poisoned = true;
        RecvPoll::Corrupt(reason)
    }

    /// How many bytes the current phase accumulates.
    fn want(&self) -> usize {
        match &self.phase {
            RecvPhase::Header if self.filled >= 4 && self.header[..4] == SPLIT_FRAME_MAGIC => {
                SPLIT_HEADER_LEN
            }
            RecvPhase::Header => FRAME_HEADER_LEN,
            RecvPhase::Payload { len, .. } | RecvPhase::Split { len, .. } => *len,
            RecvPhase::Table { .. } => self.table.len(),
        }
    }

    /// One read toward the current phase's `want` bytes, past the `filled`
    /// ones: how many bytes it took.
    fn read_more(&mut self, want: usize) -> Result<usize, Stall> {
        let mut slices: StackVec<IoSliceMut, READ_SLICES> = StackVec::new();
        let filled = self.filled;
        match &mut self.phase {
            RecvPhase::Header => slices.push(IoSliceMut::new(&mut self.header[filled..want])),
            RecvPhase::Payload { buf, len } => {
                slices.push(IoSliceMut::new(&mut buf.as_mut_slice()[filled..*len]))
            }
            RecvPhase::Table { .. } => slices.push(IoSliceMut::new(&mut self.table[filled..])),
            RecvPhase::Split { meta, meta_len, body, pad, .. } => {
                let meta = &mut meta.as_mut_slice()[..*meta_len];
                split_slices(&mut slices, meta, body.as_mut_slice(), *pad, &self.table, filled)
            }
        }
        loop {
            match self.stream.read_vectored(&mut slices) {
                Ok(0) => return Err(Stall::Eof),
                Ok(n) => return Ok(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Err(Stall::WouldBlock),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(Stall::Failed),
            }
        }
    }

    /// A whole header is in: the frame's next phase, or the message of an
    /// empty flat frame.
    fn start_frame(&mut self) -> Result<Option<Lease>, &'static str> {
        let head: &[u8; FRAME_HEADER_LEN] = self.header[..FRAME_HEADER_LEN].try_into().unwrap();
        if head[..4] == SPLIT_FRAME_MAGIC {
            let len = u32::from_le_bytes(head[4..].try_into().unwrap());
            if len > self.max_frame {
                return Err("frame length exceeds cap");
            }
            let count = u32::from_le_bytes(self.header[8..].try_into().unwrap()) as usize;
            // Every payload the sender splits off is at least this long.
            if count > len as usize / ZERO_COPY_MIN_BYTES {
                return Err("split frame table too long for its frame");
            }
            self.table.clear();
            self.table.resize(count * TABLE_ENTRY_LEN, 0);
            self.phase = RecvPhase::Table { len: len as usize };
            return Ok(None);
        }
        match decode_frame_header(head, self.max_frame)? as usize {
            0 => Ok(Some(Vec::new().into())),
            len => {
                self.phase = RecvPhase::Payload { buf: self.frames.acquire(len), len };
                Ok(None)
            }
        }
    }

    /// A split frame's table is in: check it, then take the buffers its
    /// metadata and payloads land in.
    fn start_body(&mut self, len: usize) -> Result<(), &'static str> {
        let (mut last_at, mut payloads, mut body_len) = (0, 0usize, 0usize);
        for (at, plen) in table_entries(&self.table) {
            if at < last_at {
                return Err("split frame offsets decrease");
            }
            last_at = at;
            payloads += plen;
            body_len += plen.next_multiple_of(PAYLOAD_ALIGN);
        }
        let meta_len = len.checked_sub(payloads).ok_or("split frame payloads overrun the frame")?;
        if last_at > meta_len {
            return Err("split frame offset past the metadata");
        }
        let meta = self.frames.acquire(meta_len);
        let body = self.frames.acquire(body_len + PAYLOAD_ALIGN - 1);
        let pad = (body.as_slice().as_ptr() as usize).wrapping_neg() % PAYLOAD_ALIGN;
        self.phase = RecvPhase::Split { meta, meta_len, body, pad, len };
        Ok(())
    }
}

/// A split frame's table entries: each payload's offset in the metadata
/// and its length.
fn table_entries(table: &[u8]) -> impl ExactSizeIterator<Item = (usize, usize)> + '_ {
    table.chunks_exact(TABLE_ENTRY_LEN).map(|e| {
        let word = |i: usize| u32::from_le_bytes(e[i..i + 4].try_into().unwrap()) as usize;
        (word(0), word(4))
    })
}

/// Each payload of a split frame as `(at, start, len)`: its offset in the
/// metadata, and where it lands in a body buffer whose first payload goes
/// at `pad`.
fn payload_places(
    table: &[u8],
    pad: usize,
) -> impl ExactSizeIterator<Item = (usize, usize, usize)> + '_ {
    let mut start = pad;
    table_entries(table).map(move |(at, len)| {
        let here = start;
        start += len.next_multiple_of(PAYLOAD_ALIGN);
        (at, here, len)
    })
}

/// The slices the rest of a split frame lands in, `filled` of its bytes
/// in: the metadata's remainder, then each payload's place in `body`, up
/// to [`READ_SLICES`] of them.
fn split_slices<'b>(
    out: &mut StackVec<IoSliceMut<'b>, READ_SLICES>,
    meta: &'b mut [u8],
    mut body: &'b mut [u8],
    pad: usize,
    table: &[u8],
    mut filled: usize,
) {
    let meta_len = meta.len();
    if filled < meta_len {
        out.push(IoSliceMut::new(&mut meta[filled..]));
    }
    filled = filled.saturating_sub(meta_len);
    // `body` is what is left of the buffer past `cut`.
    let mut cut = 0;
    for (_, start, len) in payload_places(table, pad) {
        if out.len() == READ_SLICES {
            break;
        }
        if filled >= len {
            filled -= len;
            continue;
        }
        let (_, rest) = std::mem::take(&mut body).split_at_mut(start + filled - cut);
        let (slot, rest) = rest.split_at_mut(len - filled);
        out.push(IoSliceMut::new(slot));
        (body, cut, filled) = (rest, start + len, 0);
    }
}

impl EvReceiver for SocketReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        if self.poisoned {
            return RecvPoll::Closed;
        }
        loop {
            let want = self.want();
            if self.filled < want {
                match self.read_more(want) {
                    Ok(n) => self.filled += n,
                    Err(Stall::WouldBlock) => return RecvPoll::Empty,
                    // At a frame boundary the peer shut down (or died) with
                    // nothing lost; inside a frame, the frame is gone.
                    Err(_) if self.filled == 0 && matches!(self.phase, RecvPhase::Header) => {
                        self.poisoned = true;
                        return RecvPoll::Closed;
                    }
                    Err(Stall::Eof) => {
                        return self.poison(match self.phase {
                            RecvPhase::Header => "truncated frame header",
                            RecvPhase::Table { .. } => "truncated split frame table",
                            _ => "truncated frame payload",
                        })
                    }
                    Err(Stall::Failed) => return self.poison("connection error mid-frame"),
                }
                continue;
            }
            self.filled = 0;
            match std::mem::replace(&mut self.phase, RecvPhase::Header) {
                RecvPhase::Header => match self.start_frame() {
                    Ok(Some(msg)) => return RecvPoll::Msg(msg),
                    Ok(None) => {}
                    Err(reason) => return self.poison(reason),
                },
                RecvPhase::Payload { buf, len } => {
                    return RecvPoll::Msg(Lease::pooled(buf, 0, len))
                }
                RecvPhase::Table { len } => {
                    if let Err(reason) = self.start_body(len) {
                        return self.poison(reason);
                    }
                }
                RecvPhase::Split { meta, meta_len, body, pad, .. } => {
                    let used = body.capacity();
                    let body = Arc::new(Lease::pooled(body, 0, used));
                    let windows = payload_places(&self.table, pad)
                        .map(|(at, start, len)| Window { at, buf: Arc::clone(&body), start, len })
                        .collect();
                    return RecvPoll::Msg(Lease::mapped(meta, meta_len, windows));
                }
            }
        }
    }

    fn wait_readable(&mut self, timeout: Duration) -> bool {
        wait_fd_readable(self.stream.raw_fd(), timeout)
    }
}

// ----------------------------------------------------------- readiness

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `poll(2)`'s "there is data to read" event (EOF and errors are reported
/// whether asked for or not).
const POLLIN: c_short = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block in one `poll(2)` until `fd` is readable or `timeout` (rounded up
/// to whole ms, capped at `i32::MAX`) passes. `true` when the wait was
/// served — readable, timed out or interrupted by a signal — and `false`
/// when `poll` failed, so the caller sleeps instead.
fn wait_fd_readable(fd: RawFd, timeout: Duration) -> bool {
    let ms = timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as c_int;
    let mut pfd = PollFd { fd, events: POLLIN, revents: 0 };
    // SAFETY: `pfd` is a live `struct pollfd` borrowed exclusively for the
    // call and `nfds` is 1, so `poll` reads and writes that one entry only;
    // the fd belongs to a stream the caller keeps open across the call.
    let ready = unsafe { poll(&mut pfd, 1, ms) };
    ready >= 0 || io::Error::last_os_error().kind() == io::ErrorKind::Interrupted
}

// --------------------------------------------------- blocking frame I/O
//
// Request/reply exchanges (directory lookups, channel hello frames) use
// short-lived blocking I/O on the raw stream, with the same framing the
// channel transports speak.

/// Write one framed payload to a blocking stream.
pub fn write_frame(stream: &mut SockStream, payload: &[u8]) -> io::Result<()> {
    write_frame_to(stream, &[payload])
}

/// Read one framed payload from a blocking stream (honouring any read
/// timeout installed on it). A malformed header reads as `InvalidData`.
pub fn read_frame(stream: &mut SockStream, max_len: u32) -> io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let len = decode_frame_header(&header, max_len)
        .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))?;
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------- pair setup

/// Wrap a connected stream as a boxed sending end.
pub fn sender_over(stream: SockStream) -> BoxedSender {
    Box::new(SocketSender::over(stream))
}

/// Wrap a connected stream as a boxed receiving end.
pub fn receiver_over(stream: SockStream) -> BoxedReceiver {
    Box::new(SocketReceiver::over(stream))
}

/// A connected loopback sender/receiver pair over a real socket — the
/// socket counterpart of `ShmTransport::pair`, used for in-process
/// couplings forced onto the network stack (`FLEXIO_TRANSPORT=tcp`) and
/// for benches.
pub fn socket_pair(kind: SocketKind) -> (BoxedSender, BoxedReceiver) {
    let (tx, rx) = raw_socket_pair(kind);
    (sender_over(tx), receiver_over(rx))
}

/// A connected loopback stream pair, unframed: the sending end first.
pub fn raw_socket_pair(kind: SocketKind) -> (SockStream, SockStream) {
    let listener = SocketListener::bind(kind).expect("bind loopback listener");
    let tx = connect(listener.local_addr()).expect("loopback connect");
    let rx = listener.accept().expect("loopback accept");
    (tx, rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffs::{FieldValue, Record};
    use shm::PoolStats;

    fn exercise(mut tx: BoxedSender, mut rx: BoxedReceiver) {
        let sender = std::thread::spawn(move || {
            for i in 0u64..50 {
                let size = if i % 4 == 0 { 100_000 } else { 16 };
                let mut payload = vec![0u8; size];
                payload[..8].copy_from_slice(&i.to_le_bytes());
                tx.send(&payload);
            }
        });
        for i in 0u64..50 {
            let got = rx.recv();
            assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), i);
        }
        sender.join().unwrap();
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn tcp_transport() {
        let (tx, rx) = socket_pair(SocketKind::Tcp);
        assert_eq!(tx.transport_name(), "tcp");
        exercise(tx, rx);
    }

    #[test]
    fn uds_transport() {
        let (tx, rx) = socket_pair(SocketKind::Uds);
        assert_eq!(tx.transport_name(), "uds");
        exercise(tx, rx);
    }

    #[test]
    fn vectored_send_matches_flat_send() {
        let (mut tx, mut rx) = socket_pair(SocketKind::Tcp);
        tx.send_vectored(&[b"head", b"", b"body", b"tail"]);
        assert_eq!(rx.recv(), b"headbodytail");
    }

    /// A writer that takes at most `limit` bytes a call and counts calls.
    struct Trickle {
        limit: usize,
        taken: Vec<u8>,
        vectored_calls: usize,
        plain_calls: usize,
    }

    impl Trickle {
        fn taking(limit: usize) -> Trickle {
            Trickle { limit, taken: Vec::new(), vectored_calls: 0, plain_calls: 0 }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.plain_calls += 1;
            let n = buf.len().min(self.limit);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored_calls += 1;
            let mut room = self.limit;
            for buf in bufs {
                let n = buf.len().min(room);
                self.taken.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.limit - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `count` segments of lengths 0..=12 (every fourth one empty).
    fn ragged_segments(count: usize) -> Vec<Vec<u8>> {
        (0..count).map(|i| vec![i as u8; if i % 4 == 1 { 0 } else { 1 + i % 12 }]).collect()
    }

    fn framed(segments: &[Vec<u8>]) -> Vec<u8> {
        let body = segments.concat();
        [&encode_frame_header(body.len() as u32)[..], &body].concat()
    }

    #[test]
    fn short_writes_resume_mid_frame() {
        for count in [1, 2, 46, 3000] {
            let segments = ragged_segments(count);
            let slices: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
            for limit in [1, 7, 4096, usize::MAX] {
                let mut w = Trickle::taking(limit);
                write_frame_to(&mut w, &slices).expect("the writer never fails");
                assert_eq!(w.taken, framed(&segments), "{count} segments, {limit} bytes a call");
                assert_eq!(w.plain_calls, 0);
            }
        }
        // An all-empty frame is its header and nothing else.
        let mut w = Trickle::taking(usize::MAX);
        write_frame_to(&mut w, &[b"", b""]).unwrap();
        assert_eq!(w.taken, encode_frame_header(0));
    }

    #[test]
    fn header_and_payload_leave_in_one_vectored_write() {
        let mut w = Trickle::taking(usize::MAX);
        write_frame_to(&mut w, &[b"a control message"]).unwrap();
        assert_eq!((w.vectored_calls, w.plain_calls), (1, 0));
        let segments = ragged_segments(46);
        let slices: Vec<&[u8]> = segments.iter().map(Vec::as_slice).collect();
        let mut w = Trickle::taking(usize::MAX);
        write_frame_to(&mut w, &slices).unwrap();
        assert_eq!((w.vectored_calls, w.plain_calls), (1, 0));
    }

    #[test]
    fn a_writer_that_stalls_or_fails_fails_the_frame() {
        // `Ok(0)` with bytes outstanding is a stalled peer, not a finished frame.
        let err = write_frame_to(&mut Trickle::taking(0), &[b"payload"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);

        struct FailsAfter(usize);
        impl Write for FailsAfter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                unreachable!("frames are written vectored")
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::ErrorKind::BrokenPipe.into());
                }
                self.0 -= 1;
                Ok(bufs[0].len().min(3))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame_to(&mut FailsAfter(2), &[b"payload"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    /// A writer that takes everything, keeping the header it was offered
    /// first and counting the bytes.
    #[derive(Default)]
    struct Counting {
        header: Vec<u8>,
        written: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if self.written == 0 {
                self.header = bufs[0].to_vec();
            }
            let n = bufs.iter().map(|b| b.len()).sum::<usize>();
            self.written += n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_past_the_length_field_is_refused_before_any_byte() {
        // 4097 MiB from one 1 MiB slice: longer than `u32::MAX`.
        let mib = vec![0x11u8; 1 << 20];
        let segments = vec![mib.as_slice(); 4097];
        let mut w = Counting::default();
        let err = write_frame_to(&mut w, &segments).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.written, 0, "nothing of the frame may leave");

        // A sender handed such a frame goes dead instead of wrapping it.
        let (tx, _rx) = raw_socket_pair(SocketKind::Uds);
        let mut tx = SocketSender::over(tx);
        tx.send_vectored(&segments);
        assert!(tx.dead);
    }

    #[test]
    fn a_frame_past_the_default_cap_is_framed_with_its_exact_length() {
        // The receiver's cap is policy (`net.max_frame_mb` raises it), so
        // the writer frames 300 MiB as it frames anything else.
        let mib = vec![0x22u8; 1 << 20];
        let segments = vec![mib.as_slice(); 300];
        let mut w = Counting::default();
        write_frame_to(&mut w, &segments).unwrap();
        assert_eq!(w.header, encode_frame_header(300 << 20));
        assert_eq!(w.written, FRAME_HEADER_LEN + (300 << 20));
    }

    #[test]
    fn wait_readable_wakes_on_data_and_times_out_on_silence() {
        let (mut tx, mut rx) = socket_pair(SocketKind::Tcp);
        let t0 = std::time::Instant::now();
        assert!(rx.wait_readable(Duration::from_millis(20)), "a timed-out wait is served");
        assert!(t0.elapsed() >= Duration::from_millis(20), "returned before the timeout");
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(b"wake up");
            tx
        });
        let t0 = std::time::Instant::now();
        assert!(rx.wait_readable(Duration::from_secs(10)));
        assert!(t0.elapsed() < Duration::from_secs(5), "slept through the write");
        assert_eq!(rx.recv(), b"wake up");
        drop(sender.join().unwrap());
        assert!(rx.wait_readable(Duration::from_secs(10)), "EOF wakes the wait");
        assert_eq!(rx.poll_recv(), RecvPoll::Closed);
    }

    /// More segments than one `writev` takes (`IOV_MAX` is 1024), and a
    /// frame far larger than the socket buffer sent to a receiver that is
    /// not reading yet: the sender blocks mid-frame and resumes.
    #[test]
    fn long_and_large_frames_cross_real_sockets() {
        for kind in [SocketKind::Tcp, SocketKind::Uds] {
            let (mut tx, mut rx) = socket_pair(kind);
            let segments = ragged_segments(3000);
            let large = vec![vec![0xA5u8; 8 << 20], vec![], vec![0x5Au8; 4096]];
            let expected = [segments.concat(), large.concat()];
            let sender = std::thread::spawn(move || {
                for frame in [segments, large] {
                    tx.send_vectored(&frame.iter().map(Vec::as_slice).collect::<Vec<_>>());
                }
            });
            std::thread::sleep(Duration::from_millis(50));
            for want in expected {
                assert!(rx.recv() == want, "{} frame of {} bytes", kind.name(), want.len());
            }
            sender.join().unwrap();
        }
    }

    #[test]
    fn zero_length_frames_cross() {
        let (mut tx, mut rx) = socket_pair(SocketKind::Uds);
        tx.send(b"");
        tx.send(b"after");
        assert_eq!(rx.recv(), b"");
        assert_eq!(rx.recv(), b"after");
    }

    #[test]
    fn peer_drop_reads_as_closed() {
        let (mut tx, mut rx) = socket_pair(SocketKind::Tcp);
        tx.send(b"last words");
        drop(tx);
        // The queued frame still drains, then the channel closes for good.
        loop {
            match rx.poll_recv() {
                RecvPoll::Msg(m) => assert_eq!(m, b"last words"),
                RecvPoll::Empty => std::thread::sleep(Duration::from_millis(1)),
                RecvPoll::Closed => break,
                RecvPoll::Corrupt(r) => panic!("unexpected corrupt: {r}"),
            }
        }
        assert_eq!(rx.poll_recv(), RecvPoll::Closed);
    }

    #[test]
    fn bad_magic_poisons_the_stream() {
        let (tx, rx) = raw_socket_pair(SocketKind::Tcp);
        let mut tx = SocketSender::over(tx);
        let mut rx = SocketReceiver::over(rx);
        tx.inject_raw_bytes(b"XXXX\x04\x00\x00\x00daga");
        let corrupt = loop {
            match rx.poll_recv() {
                RecvPoll::Empty => std::thread::sleep(Duration::from_millis(1)),
                other => break other,
            }
        };
        assert_eq!(corrupt, RecvPoll::Corrupt("bad frame magic"));
        // Poisoned: no resync is possible on a byte stream.
        assert_eq!(rx.poll_recv(), RecvPoll::Closed);
    }

    #[test]
    fn oversize_length_is_corrupt() {
        let (tx, rx) = raw_socket_pair(SocketKind::Uds);
        let mut tx = SocketSender::over(tx);
        let mut rx = SocketReceiver::over(rx);
        rx.set_max_frame(1024);
        let mut frame = Vec::new();
        frame.extend_from_slice(&FRAME_MAGIC);
        frame.extend_from_slice(&4096u32.to_le_bytes());
        tx.inject_raw_bytes(&frame);
        let corrupt = loop {
            match rx.poll_recv() {
                RecvPoll::Empty => std::thread::sleep(Duration::from_millis(1)),
                other => break other,
            }
        };
        assert_eq!(corrupt, RecvPoll::Corrupt("frame length exceeds cap"));
        assert_eq!(rx.poll_recv(), RecvPoll::Closed);
    }

    #[test]
    fn truncated_frame_is_corrupt_not_closed() {
        let (tx, rx) = raw_socket_pair(SocketKind::Tcp);
        let mut tx = SocketSender::over(tx);
        let mut rx = SocketReceiver::over(rx);
        // A valid header promising 100 bytes, then only 3 arrive before EOF.
        let mut frame = Vec::new();
        frame.extend_from_slice(&encode_frame_header(100));
        frame.extend_from_slice(b"abc");
        tx.inject_raw_bytes(&frame);
        drop(tx);
        let outcome = loop {
            match rx.poll_recv() {
                RecvPoll::Empty => std::thread::sleep(Duration::from_millis(1)),
                other => break other,
            }
        };
        assert_eq!(outcome, RecvPoll::Corrupt("truncated frame payload"));
        assert_eq!(rx.poll_recv(), RecvPoll::Closed);
    }

    #[test]
    fn dead_sender_swallows_sends() {
        let (tx, rx) = raw_socket_pair(SocketKind::Tcp);
        let mut tx = SocketSender::over(tx);
        drop(rx);
        // The first writes may still land in the kernel buffer; keep
        // going until the failure is observed, then confirm it sticks.
        for _ in 0..1000 {
            tx.send(&[0u8; 4096]);
            if tx.dead {
                break;
            }
        }
        assert!(tx.dead, "writes to a dropped peer must eventually fail");
        tx.send(b"ignored");
        assert!(tx.dead);
    }

    #[test]
    fn header_roundtrip_edges() {
        for len in [0, 1, MAX_FRAME_LEN - 1, MAX_FRAME_LEN] {
            let h = encode_frame_header(len);
            assert_eq!(decode_frame_header(&h, MAX_FRAME_LEN), Ok(len));
        }
        let h = encode_frame_header(MAX_FRAME_LEN);
        assert_eq!(decode_frame_header(&h, MAX_FRAME_LEN - 1), Err("frame length exceeds cap"));
    }

    #[test]
    fn uds_bind_replaces_a_stale_file_at_its_path() {
        // A killed process with this pid left files at the next paths
        // (planted over a range: parallel tests also bind UDS listeners).
        let next = UDS_COUNTER.load(Ordering::Relaxed);
        let planted: Vec<PathBuf> = (next..next + 64).map(uds_path).collect();
        for p in &planted {
            std::fs::write(p, b"stale").unwrap();
        }
        let l = SocketListener::bind(SocketKind::Uds).expect("bind over a stale file");
        let ListenerInner::Uds(_, path) = &l.inner else { unreachable!() };
        assert!(planted.contains(path), "bound {path:?}, outside the planted range");
        drop(l);
        for p in &planted {
            let _ = std::fs::remove_file(p);
        }
    }

    /// A record with `n` arrays of `elems` f64s behind a name of `head`
    /// bytes, which shifts every payload's offset in the message.
    fn bulk_record(n: usize, elems: usize, head: usize) -> Record {
        let mut r = Record::new().with("type", FieldValue::Str("x".repeat(head).into()));
        for i in 0..n {
            let data: Vec<f64> = (0..elems).map(|k| (k * 7 + i) as f64).collect();
            r.set_item("v", &[i], FieldValue::from(data));
        }
        r
    }

    /// The next message, waiting for it.
    fn next_lease(rx: &mut SocketReceiver) -> Lease {
        loop {
            match rx.poll_lease() {
                RecvPoll::Msg(lease) => return lease,
                RecvPoll::Empty => {
                    rx.wait_readable(Duration::from_secs(1));
                }
                other => panic!("a message, not {other:?}"),
            }
        }
    }

    /// The S3D batch's shape: 22 payloads of 128 KiB.
    const S3D_PAYLOADS: usize = 22;
    const S3D_ELEMS: usize = 16 * 1024;

    #[test]
    fn a_split_frame_lands_every_payload_8_aligned() {
        for kind in [SocketKind::Tcp, SocketKind::Uds] {
            let (tx, rx) = raw_socket_pair(kind);
            let (mut tx, mut rx) = (SocketSender::over(tx), SocketReceiver::over(rx));
            for head in 0..8 {
                let rec = bulk_record(3, 1024, head);
                tx.send_encoded(&rec.encode_segments());
                let lease = next_lease(&mut rx);
                assert_eq!(lease.windows().len(), 3);
                let got = Record::decode_leased(lease).expect("decodes");
                assert_eq!(got, rec, "{} after a {head}-byte name", kind.name());
                for (_, v) in got.iter().filter(|(name, _)| name.starts_with('v')) {
                    let FieldValue::Packed(p) = v else { panic!("an array") };
                    assert!(p.is_view() && p.bytes().as_ptr().cast::<f64>().is_aligned());
                }
            }
            // No bulk payload: the frame is a flat one.
            let small = bulk_record(2, 8, 3);
            tx.send_encoded(&small.encode_segments());
            let lease = next_lease(&mut rx);
            assert!(lease.windows().is_empty());
            assert_eq!(Record::decode_leased(lease).unwrap(), small);
        }
    }

    #[test]
    fn a_split_frame_leaves_in_one_vectored_write() {
        let rec = bulk_record(S3D_PAYLOADS, 1024, 5);
        let enc = rec.encode_segments();
        let mut w = Trickle::taking(usize::MAX);
        write_split_frame_to(&mut w, &mut Vec::new(), &enc).unwrap();
        assert_eq!((w.vectored_calls, w.plain_calls), (1, 0));
        // Header, table, metadata, then the payloads back to back.
        let (head, body) = w.taken.split_at(SPLIT_HEADER_LEN + S3D_PAYLOADS * TABLE_ENTRY_LEN);
        assert_eq!(head[..4], SPLIT_FRAME_MAGIC);
        assert_eq!(u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize, enc.total_len());
        assert_eq!(u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize, S3D_PAYLOADS);
        let places: Vec<(usize, usize)> = table_entries(&head[SPLIT_HEADER_LEN..]).collect();
        let sent: Vec<(usize, usize)> = enc.payloads().map(|(at, p)| (at, p.len())).collect();
        assert_eq!(places, sent);
        let payloads: Vec<u8> = enc.payloads().flat_map(|(_, p)| p.to_vec()).collect();
        assert!(body == [enc.meta(), &payloads].concat());
        // Resumed after short writes, the bytes are the same.
        let mut short = Trickle::taking(4093);
        write_split_frame_to(&mut short, &mut Vec::new(), &enc).unwrap();
        assert!(short.taken == w.taken);
    }

    /// Receive `frames` S3D-shaped split frames, decoding each and dropping
    /// it — or, with `hold`, dropping it only once the next one is decoded,
    /// as the pipelined reader does. The receiver's frame pool after warm-up
    /// and at the end.
    fn pool_over_s3d_frames(frames: usize, hold: bool) -> (PoolStats, PoolStats) {
        const WARM_UP: usize = 3;
        let (tx, rx) = raw_socket_pair(SocketKind::Uds);
        let (mut tx, mut rx) = (SocketSender::over(tx), SocketReceiver::over(rx));
        let sender = std::thread::spawn(move || {
            let rec = bulk_record(S3D_PAYLOADS, S3D_ELEMS, 12);
            let enc = rec.encode_segments();
            (0..frames).for_each(|_| tx.send_encoded(&enc));
        });
        let (mut held, mut warm) = (None, None);
        for i in 0..frames {
            if i == WARM_UP {
                warm = Some(rx.frames.stats());
            }
            let got = Record::decode_leased(next_lease(&mut rx)).expect("decodes");
            let Some(FieldValue::Packed(first)) = got.get_item("v", &[0]) else {
                panic!("an array")
            };
            assert_eq!(first.as_f64s().expect("in place")[1], 7.0);
            if hold {
                held = Some(got);
            }
        }
        sender.join().unwrap();
        drop(held);
        (warm.expect("ran past warm-up"), rx.frames.stats())
    }

    #[test]
    fn the_frame_pool_is_flat_over_a_thousand_s3d_frames() {
        let body_class = (S3D_PAYLOADS * S3D_ELEMS * 8).next_power_of_two() as u64;
        let (warm, end) = pool_over_s3d_frames(1000, false);
        assert_eq!((end.misses, end.resident_bytes), (warm.misses, warm.resident_bytes));
        assert!(warm.resident_bytes < 2 * body_class, "one payload buffer: {warm:?}");
        // Holding the previous frame's views keeps exactly one more.
        let (warm_held, end_held) = pool_over_s3d_frames(1000, true);
        assert_eq!(
            (end_held.misses, end_held.resident_bytes),
            (warm_held.misses, warm_held.resident_bytes)
        );
        assert_eq!(end_held.resident_bytes, end.resident_bytes + body_class);
    }
}
