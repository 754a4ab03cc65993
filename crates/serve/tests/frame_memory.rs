//! A length prefix is a claim, not a budget: `read_frame` must not
//! allocate what the prefix promises before the bytes arrive.
//!
//! Its own test binary because the measurement needs
//! [`TrackingAllocator`] as the global allocator, and one test so no
//! sibling thread allocates under the measurement.

use std::io;
use tg_obs::memtrack::{self, TrackingAllocator};
use tg_serve::{read_frame, MAX_FRAME_BYTES};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn a_lying_length_prefix_does_not_buy_heap() {
    let mut wire = (MAX_FRAME_BYTES as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(b"abc");

    memtrack::reset_peak();
    let before = memtrack::peak_bytes();
    let err = read_frame(&mut &wire[..]).unwrap_err();
    let grew = memtrack::peak_bytes() - before;

    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(
        grew < 1 << 20,
        "a 64 MiB prefix and 3 bytes moved peak heap by {grew} bytes"
    );
}
