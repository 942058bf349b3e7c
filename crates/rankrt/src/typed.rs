//! Helpers for moving numeric slices through byte-oriented messaging.
//!
//! All encodings are little-endian and alignment-independent (slices are
//! copied, never transmuted), so payloads are portable across the transport
//! layers regardless of buffer alignment.

/// Encode a slice of `f64`s as little-endian bytes.
pub fn f64s_as_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decode little-endian bytes into `f64`s. Panics if the length is not a
/// multiple of 8.
pub fn bytes_as_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(bytes.len().is_multiple_of(8), "payload is not a whole number of f64s");
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn f64_roundtrip(values in proptest::collection::vec(any::<f64>(), 0..64)) {
            let bytes = f64s_as_bytes(&values);
            let back = bytes_as_f64s(&bytes);
            prop_assert_eq!(values.len(), back.len());
            for (a, b) in values.iter().zip(&back) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
