//! Property tests for the two frames directory nodes gossip over sockets:
//! the `CTB1` contact table — what lets a node hand out connectable
//! addresses across a process boundary — and the `DGSP` digest. Arbitrary
//! contact sets (any UTF-8 address, any metadata, empty sets and empty
//! fields included) must round-trip bit-exactly, and damaged frames of
//! either kind must be rejected, never misdecoded — nor believed about
//! how much there is to allocate.

use flexio::{
    decode_contact_table, decode_digest, encode_contact_table, encode_digest, DigestEntry,
    WireContact,
};
use proptest::prelude::*;

fn arb_digest() -> impl Strategy<Value = Vec<DigestEntry>> {
    proptest::collection::vec((".{0,24}", any::<u64>(), any::<u64>(), any::<u64>()), 0..16)
}

fn arb_contacts() -> impl Strategy<Value = Vec<(u64, WireContact)>> {
    proptest::collection::vec(
        (any::<u64>(), ".{0,40}", proptest::collection::vec(any::<u64>(), 0..8)),
        0..16,
    )
    .prop_map(|entries| {
        let mut out: Vec<(u64, WireContact)> = entries
            .into_iter()
            .map(|(token, addr, meta)| (token, WireContact { addr, meta }))
            .collect();
        out.sort_by_key(|(token, _)| *token);
        out.dedup_by_key(|(token, _)| *token);
        out
    })
}

proptest! {
    /// Any contact set round-trips through the wire encoding: tokens,
    /// addresses (arbitrary UTF-8, empty included) and metadata all
    /// survive bit-exactly.
    #[test]
    fn contact_tables_roundtrip(contacts in arb_contacts()) {
        let encoded = encode_contact_table(&contacts);
        let decoded = decode_contact_table(&encoded).expect("own encoding decodes");
        prop_assert_eq!(decoded.len(), contacts.len());
        for ((t_in, c_in), (t_out, c_out)) in contacts.iter().zip(&decoded) {
            prop_assert_eq!(t_in, t_out);
            prop_assert_eq!(&c_in.addr, &c_out.addr);
            prop_assert_eq!(&c_in.meta, &c_out.meta);
        }
    }

    /// Every strict prefix of a valid frame is rejected — truncation on
    /// the wire can never yield a phantom partial table.
    #[test]
    fn truncated_frames_are_rejected(contacts in arb_contacts()) {
        let encoded = encode_contact_table(&contacts);
        for cut in 0..encoded.len() {
            prop_assert_eq!(decode_contact_table(&encoded[..cut]), None, "prefix of {} bytes", cut);
        }
    }

    /// Trailing garbage after a well-formed table is rejected (the frame
    /// length is authoritative; leftovers mean a desynced stream).
    #[test]
    fn trailing_bytes_are_rejected(contacts in arb_contacts(), junk in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut encoded = encode_contact_table(&contacts);
        encoded.extend_from_slice(&junk);
        prop_assert_eq!(decode_contact_table(&encoded), None);
    }

    /// A flipped magic byte is rejected no matter the payload.
    #[test]
    fn damaged_magic_is_rejected(contacts in arb_contacts(), byte in 0usize..4, flip in 1u8..=255) {
        let mut encoded = encode_contact_table(&contacts);
        encoded[byte] ^= flip;
        prop_assert_eq!(decode_contact_table(&encoded), None);
    }

    /// A digest round-trips, and every strict prefix of it is rejected.
    #[test]
    fn digests_roundtrip_and_prefixes_are_rejected(from in any::<u64>(), entries in arb_digest()) {
        let encoded = encode_digest(from, &entries);
        for cut in 0..encoded.len() {
            prop_assert_eq!(decode_digest(&encoded[..cut]), None, "prefix of {} bytes", cut);
        }
        let (decoded_from, decoded) = decode_digest(&encoded).expect("own encoding decodes");
        prop_assert_eq!(decoded_from, from);
        prop_assert_eq!(&decoded, &entries);
    }

    /// A digest whose entry count claims more than its bytes hold — up to
    /// the ≈200 GB a `u32::MAX` claim would reserve — is rejected as
    /// truncated; the count is never trusted for the allocation.
    #[test]
    fn inflated_digest_counts_are_rejected(entries in arb_digest(), extra in 1u32..=u32::MAX) {
        let mut encoded = encode_digest(1, &entries);
        let claimed = (entries.len() as u32).saturating_add(extra);
        encoded[12..16].copy_from_slice(&claimed.to_le_bytes());
        prop_assert_eq!(decode_digest(&encoded), None);
    }
}
