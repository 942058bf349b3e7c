//! Real socket transports: TCP and Unix-domain streams behind the
//! [`EvSender`]/[`EvReceiver`] contract.
//!
//! The in-process transports move whole messages; a stream socket moves
//! bytes, so this module adds the length-prefixed framing layer:
//!
//! ```text
//! +------+------------+-----------------+
//! | FXS1 | len (LE32) | payload (len B) |
//! +------+------------+-----------------+
//! ```
//!
//! The receiver runs the socket nonblocking and accumulates one frame at a
//! time through a small state machine, so readiness maps exactly onto
//! [`RecvPoll`]:
//!
//! * `WouldBlock` anywhere → [`RecvPoll::Empty`] — look again later;
//! * EOF *between* frames → [`RecvPoll::Closed`] — the peer shut down (or
//!   died) cleanly at a message boundary, nothing was lost here;
//! * EOF or an I/O error *inside* a frame, a bad magic, or a length above
//!   the cap → [`RecvPoll::Corrupt`] once, after which the receiver is
//!   *poisoned* and reports [`RecvPoll::Closed`] forever: unlike the shm
//!   queue a byte stream has no frame boundaries to resynchronise on, so
//!   a damaged prefix condemns the whole connection. Poisoning is what
//!   lets drain-style callers treat `Corrupt` as "count and continue"
//!   without risking a livelock.
//!
//! `Empty` is not the only way to wait: [`EvReceiver::wait_readable`]
//! blocks in one `poll(2)` on the stream's fd until bytes (or EOF) arrive
//! or a timeout passes, so a blocking receive that has run out of spin
//! and yield rounds wakes when the peer's write lands instead of at the
//! end of a sleep. A partial frame needs nothing special: its remaining
//! bytes arrive on the same fd.
//!
//! Each directed channel uses its own connection: the sending end stays
//! blocking (with a write timeout so a stalled peer degrades into silence
//! instead of wedging the writer), the receiving end is nonblocking. A
//! sender whose peer vanished marks itself dead and swallows further
//! sends — exactly how the protocol layer expects a corpse to behave.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use shm::{BufferPool, Lease, PoolBuffer};

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

/// Write one frame — the header, then `segments` back to back — with
/// vectored writes: the whole frame is offered to the writer at once (one
/// `writev`, so one burst on a socket, however many segments) and whatever
/// a short write leaves over is offered again. A writer that accepts
/// nothing reads as [`io::ErrorKind::WriteZero`]; a frame whose length
/// does not fit the header's 32 bits is [`io::ErrorKind::InvalidInput`]
/// before any byte is written. How long a frame may be is the receiver's
/// cap to judge.
fn write_frame_to<W: Write>(w: &mut W, segments: &[&[u8]]) -> io::Result<()> {
    let total: usize = segments.iter().map(|s| s.len()).sum();
    let len = u32::try_from(total).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame longer than the 32-bit length field")
    })?;
    let header = encode_frame_header(len);
    let mut slices: StackVec<IoSlice, FRAME_SLICES> = StackVec::new(IoSlice::new(&[]));
    slices.push(IoSlice::new(&header));
    // An all-empty slice list would read back as `Ok(0)`: leave them out.
    segments.iter().filter(|s| !s.is_empty()).for_each(|s| slices.push(IoSlice::new(s)));
    let mut rest = &mut slices[..];
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
}

impl SocketSender {
    /// Wrap a connected stream as the sending end of a channel.
    pub fn over(stream: SockStream) -> SocketSender {
        let name = stream.kind().name();
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_write_timeout(Some(SEND_STALL_TIMEOUT));
        SocketSender { stream, name, dead: false }
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

    fn transport_name(&self) -> &'static str {
        self.name
    }
}

// ------------------------------------------------------------ receiver

enum RecvPhase {
    /// Accumulating the 8-byte frame header.
    Header,
    /// Accumulating `len` payload bytes into `buf`.
    Payload { buf: PoolBuffer, len: usize },
}

/// Free frame-buffer capacity a receiver keeps before reclaiming (the shm
/// channel's default): a cap, not a reservation — the free list only ever
/// holds buffers this receiver's own traffic returned.
const FRAME_POOL_THRESHOLD: u64 = 64 << 20;

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
    header: [u8; FRAME_HEADER_LEN],
    filled: usize,
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
            header: [0; FRAME_HEADER_LEN],
            filled: 0,
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
}

impl EvReceiver for SocketReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        if self.poisoned {
            return RecvPoll::Closed;
        }
        loop {
            match &mut self.phase {
                RecvPhase::Header => {
                    let want = FRAME_HEADER_LEN - self.filled;
                    match self.stream.read(&mut self.header[self.filled..]) {
                        Ok(0) => {
                            return if self.filled == 0 {
                                // EOF at a frame boundary: clean peer
                                // shutdown (or death) with nothing lost.
                                self.poisoned = true;
                                RecvPoll::Closed
                            } else {
                                self.poison("truncated frame header")
                            };
                        }
                        Ok(n) => {
                            self.filled += n;
                            if n < want {
                                continue;
                            }
                            match decode_frame_header(&self.header, self.max_frame) {
                                Ok(len) => {
                                    self.filled = 0;
                                    if len == 0 {
                                        return RecvPoll::Msg(Vec::new().into());
                                    }
                                    let len = len as usize;
                                    self.phase =
                                        RecvPhase::Payload { buf: self.frames.acquire(len), len };
                                }
                                Err(reason) => return self.poison(reason),
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return RecvPoll::Empty;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            // Hard error (connection reset): at a frame
                            // boundary nothing was lost, inside a header
                            // the frame is gone.
                            return if self.filled == 0 {
                                self.poisoned = true;
                                RecvPoll::Closed
                            } else {
                                self.poison("connection error mid-frame")
                            };
                        }
                    }
                }
                RecvPhase::Payload { buf, len } => {
                    match self.stream.read(&mut buf.as_mut_slice()[self.filled..*len]) {
                        Ok(0) => return self.poison("truncated frame payload"),
                        Ok(n) => {
                            self.filled += n;
                            if self.filled == *len {
                                self.filled = 0;
                                let RecvPhase::Payload { buf, len } =
                                    std::mem::replace(&mut self.phase, RecvPhase::Header)
                                else {
                                    unreachable!("matched the payload phase above")
                                };
                                return RecvPoll::Msg(Lease::pooled(buf, 0, len));
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return RecvPoll::Empty;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return self.poison("connection error mid-frame"),
                    }
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
}
