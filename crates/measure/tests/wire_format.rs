//! Pins the `PathObservations` wire format (`netcorr-path-observations
//! v3`, the one on-disk encoding).
//!
//! The exact byte-for-byte representation is asserted here so that any
//! accidental format change fails loudly: observations persisted by one
//! build must stay readable by the next.

use netcorr_measure::observation::{BINARY_HEADER_LEN, BINARY_MAGIC};
use netcorr_measure::PathObservations;

/// A v3 header followed by `words` as little-endian lane words.
fn v3_bytes(paths: u64, snapshots: u64, words: &[u64]) -> Vec<u8> {
    let mut bytes = BINARY_MAGIC.to_vec();
    bytes.extend_from_slice(&paths.to_le_bytes());
    bytes.extend_from_slice(&snapshots.to_le_bytes());
    for word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    bytes
}

#[test]
fn wire_format_spans_multiple_words() {
    // 70 snapshots forces a second 64-bit word per lane; only snapshots 0
    // and 69 are congested on the single path (word 0 = bit 0, word 1 =
    // bit 5).
    let mut obs = PathObservations::new(1);
    for s in 0..70 {
        obs.record_snapshot(&[s == 0 || s == 69]).unwrap();
    }
    let expected = v3_bytes(1, 70, &[0x1, 0x20]);
    assert_eq!(obs.to_binary(), expected);
    assert_eq!(PathObservations::from_binary(&expected).unwrap(), obs);
}

#[test]
fn empty_container_wire_format() {
    // No snapshots: the header alone, no lane words.
    let obs = PathObservations::new(2);
    let expected = v3_bytes(2, 0, &[]);
    assert_eq!(expected.len(), BINARY_HEADER_LEN);
    assert_eq!(obs.to_binary(), expected);
    assert_eq!(PathObservations::from_binary(&expected).unwrap(), obs);
}

#[test]
fn header_names_the_version() {
    assert_eq!(BINARY_MAGIC, b"NCOBSv3\n");
    assert_eq!(BINARY_HEADER_LEN, 24);
}

#[test]
fn binary_format_is_pinned() {
    // 3 paths × 4 snapshots; path 0 congested in snapshots 1 and 2
    // (lane word 0b0110 = 0x6), path 1 in snapshot 2 (0x4), path 2 never.
    // Header: magic, paths=3 LE, snapshots=4 LE.
    let mut obs = PathObservations::new(3);
    obs.record_snapshot(&[false, false, false]).unwrap();
    obs.record_snapshot(&[true, false, false]).unwrap();
    obs.record_snapshot(&[true, true, false]).unwrap();
    obs.record_snapshot(&[false, false, false]).unwrap();

    let mut expected = Vec::new();
    expected.extend_from_slice(b"NCOBSv3\n");
    expected.extend_from_slice(&3u64.to_le_bytes());
    expected.extend_from_slice(&4u64.to_le_bytes());
    expected.extend_from_slice(&6u64.to_le_bytes());
    expected.extend_from_slice(&4u64.to_le_bytes());
    expected.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(obs.to_binary(), expected);
    assert_eq!(PathObservations::from_binary(&expected).unwrap(), obs);
}

#[test]
fn binary_format_rejects_malformed_input() {
    assert!(PathObservations::from_binary(&[]).is_err());
    assert!(PathObservations::from_binary(b"NCOBSv3\n").is_err());
    let mut obs = PathObservations::new(2);
    obs.record_snapshot(&[true, false]).unwrap();
    let good = obs.to_binary();
    // Wrong magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(PathObservations::from_binary(&bad).is_err());
    // Truncated lane region.
    assert!(PathObservations::from_binary(&good[..good.len() - 1]).is_err());
    // A bit set beyond the declared snapshot count (tail invariant).
    let mut bad = good.clone();
    bad[24] |= 0x02; // snapshot 1 of lane 0, but only 1 snapshot declared
    assert!(PathObservations::from_binary(&bad).is_err());
}
