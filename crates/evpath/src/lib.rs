//! `evpath` — the messaging layer of the FlexIO stack (paper Fig. 2).
//!
//! "FlexIO uses the EVPath messaging library to implement its data movement
//! protocols. EVPath provides point-to-point messaging and data marshaling
//! capabilities. Its modular architecture supports multiple messaging
//! transports, and we have added to it the shared memory transport and the
//! RDMA transport required by FlexIO." (§II.C)
//!
//! This crate reproduces those capabilities:
//!
//! * [`ffs`] — self-describing binary marshaling in the spirit of FFS
//!   (EVPath's format system): every message carries a compact schema so a
//!   receiver can decode records it has never seen the layout of. Typed
//!   fields cover scalars, strings, numeric arrays and nested records.
//! * [`transport`] — the pluggable byte transports: in-process channels,
//!   the [`shm`] lock-free shared-memory channel (intra-node), and the
//!   [`netsim`] RDMA fabric (inter-node). FlexIO picks among them per the
//!   analytics placement.
//! * [`socket`] — real stream sockets (TCP and Unix-domain) behind the
//!   same contract, with length-prefixed framing, so couplings can cross
//!   an actual process boundary.

//! * [`fault`] — a deterministic, seedable fault-injection layer that wraps
//!   any transport pair with scheduled drops, duplicates, reorders, delays
//!   and endpoint crashes, so the retry/degradation branches of the layers
//!   above can be exercised reproducibly.

pub mod fault;
pub mod ffs;
pub mod socket;
pub mod transport;

pub use fault::{FaultCounters, FaultPlan, FaultSpec};
pub use ffs::{
    DecodeError, EncSegment, EncodedRecord, FieldValue, PackedArray, PackedDtype, Record,
    ZERO_COPY_MIN_BYTES,
};
pub use shm::Lease;
pub use socket::{
    connect, connect_retry, decode_frame_header, encode_frame_header, read_frame, receiver_over,
    sender_over, socket_pair, write_frame, SockStream, SocketKind, SocketListener, SocketReceiver,
    SocketSender, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_LEN,
};
pub use transport::{
    inproc_pair, BoxedReceiver, BoxedSender, EvReceiver, EvSender, NetTransport, RecvPoll,
    ShmTransport,
};

/// FNV-1a 64 offset basis: the hash of the empty input, and the seed a
/// fresh [`fnv1a64`] chain starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 of `bytes`, continuing the chain at `hash` (start it at
/// [`FNV_OFFSET`]). The workspace's one stable byte hash: fault-plan label
/// seeds, directory stripes, pub/sub spill checksums and query digests all
/// come from it, so its output is part of the on-disk and seed formats.
#[inline]
pub fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // A chain is the hash of the concatenation.
        assert_eq!(fnv1a64(fnv1a64(FNV_OFFSET, b"foo"), b"bar"), fnv1a64(FNV_OFFSET, b"foobar"));
    }
}
