//! The wire frame envelope's digest, CRC-64/XZ (DESIGN.md §16):
//!
//! - **Check value**: `crc64(b"123456789")` is the catalogue's
//!   `0x995DC9BBDF1939FA`, by both implementations.
//! - **Fold ≡ table**: the carry-less fold, where this CPU has it,
//!   equals the slicing-by-8 table at every length 0..=2048 from every
//!   start offset 0..16, so every split into blocks and tail is hit.
//! - **Constants**: every folding key, `MU` and `POLY_DIV_X` are derived
//!   here from the polynomial and compared with the module's literals,
//!   so no constant is pasted unchecked.
//! - **Detection**: every single-bit flip, and every burst of up to 64
//!   bits from sampled starts, in the golden frame's body (table path)
//!   and in a 4 KiB body (fold path) is answered `WireError::Checksum`.
//! - **Version**: a batch frame and a summary frame carrying version
//!   byte 1 (the FNV-1a envelope's) or 2 (the summary body with tier
//!   sketches) are refused as `BadVersion(v)` before the digest or the
//!   body is read.

use whodunit_core::crc64::{crc64, crc64_table, FOLD_KEYS, FOLD_MIN, MU, POLY, POLY_DIV_X};
use whodunit_core::summary::{LeafGauges, SummaryFrame};
use whodunit_core::wire::{
    begin_frame, decode_batch, decode_summary, encode_summary, end_frame, open_frame, WireError,
    KIND_BATCH,
};

/// The normal-order ECMA-182 polynomial, `x^64` implied.
const ECMA_182: u64 = 0x42F0_E1EB_A9EA_3693;

/// A seeded splitmix64 stream of bytes.
fn bytes(seed: u64, n: usize) -> Vec<u8> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn golden_frame() -> Vec<u8> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_frame.hex");
    std::fs::read_to_string(path)
        .expect("golden frame")
        .split_whitespace()
        .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
        .collect()
}

/// A batch-kind frame around `body`, which need not parse: only the
/// envelope is opened.
fn frame_of(body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    let start = begin_frame(&mut buf, KIND_BATCH);
    buf.extend_from_slice(body);
    end_frame(&mut buf, start);
    buf
}

fn flip(buf: &mut [u8], bit: usize) {
    buf[bit / 8] ^= 1 << (bit % 8);
}

#[test]
fn check_value() {
    assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64_table(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64(b""), 0);
}

#[test]
fn fold_equals_table_at_every_length_and_offset() {
    #[cfg(target_arch = "x86_64")]
    eprintln!(
        "carry-less fold available: {}",
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    );
    let buf = bytes(45, 2048 + 16);
    for off in 0..16 {
        for len in 0..=2048 {
            let b = &buf[off..off + len];
            assert_eq!(crc64(b), crc64_table(b), "offset {off}, length {len}");
        }
    }
    // Long bodies, and the all-zero and all-one blocks a lane can hold.
    for len in [4096 + 7, 65_536 + 127] {
        let b = bytes(len as u64, len);
        assert_eq!(crc64(&b), crc64_table(&b), "length {len}");
    }
    for fill in [0x00, 0xFF] {
        let b = vec![fill; 1024 + 3];
        assert_eq!(crc64(&b), crc64_table(&b), "fill {fill:#x}");
    }
}

/// `a·b` over GF(2), normal bit order.
fn clmul(a: u64, b: u64) -> u128 {
    (0..64)
        .filter(|i| b >> i & 1 == 1)
        .fold(0, |acc, i| acc ^ (u128::from(a) << i))
}

/// `x^n mod P`, normal bit order.
fn x_pow_mod(n: u32) -> u64 {
    (0..n).fold(1u64, |r, _| {
        let carry = r >> 63 == 1;
        (r << 1) ^ if carry { ECMA_182 } else { 0 }
    })
}

#[test]
fn constants_derive_from_the_polynomial() {
    assert_eq!(POLY, ECMA_182.reverse_bits());
    // Keys for one 1024-bit block on, then for each of lanes 0..=6 of
    // the last block onto lane 7 (128 bits per lane); 127 also folds
    // the last 128 bits to 64.
    let mut want: Vec<u32> = [1024]
        .into_iter()
        .chain((1..=7).map(|j| 128 * j))
        .flat_map(|d| [d - 1, d + 63])
        .collect();
    want.sort_unstable();
    let have: Vec<u32> = FOLD_KEYS.iter().map(|&(n, _)| n).collect();
    assert_eq!(have, want);
    for &(n, k) in &FOLD_KEYS {
        assert_eq!(k, x_pow_mod(n).reverse_bits(), "key for x^{n}");
    }
    // floor(x^127 / P) by long division, P = x^64 + ECMA_182.
    let p = (1u128 << 64) | u128::from(ECMA_182);
    let (mut rem, mut quot) = (1u128 << 127, 0u64);
    for shift in (0..64).rev() {
        if rem >> (64 + shift) & 1 == 1 {
            rem ^= p << shift;
            quot |= 1 << shift;
        }
    }
    assert!(rem < 1 << 64);
    assert_eq!(MU, quot.reverse_bits());
    // (P − x^64 − 1) / x, and P rebuilt from it.
    let p_div_x = (ECMA_182 ^ 1) >> 1;
    assert_eq!(POLY_DIV_X, p_div_x.reverse_bits());
    assert_eq!(clmul(p_div_x, 2) ^ 1 ^ (1 << 64), p);
}

/// Every error pattern: each single bit of the body, then each burst
/// of 2..=64 bits (first and last bit set, the bits between drawn from
/// a seeded stream) starting every `stride` bits.
fn assert_every_error_caught(frame: &[u8], stride: usize) {
    let body = 9..frame.len() - 8;
    let bits = body.len() * 8;
    let mut noise = bytes(bits as u64, bits * 8).into_iter();
    let open = |f: &[u8]| open_frame(f, KIND_BATCH).err();
    assert_eq!(open(frame), None, "the clean frame opens");
    for bit in 0..bits {
        let mut f = frame.to_vec();
        flip(&mut f, 72 + bit);
        assert_eq!(
            open(&f),
            Some(WireError::Checksum),
            "flip of body bit {bit}"
        );
    }
    for start in (0..bits).step_by(stride) {
        for len in 2..=64.min(bits - start) {
            let mut f = frame.to_vec();
            flip(&mut f, 72 + start);
            flip(&mut f, 72 + start + len - 1);
            for i in 1..len - 1 {
                if noise.next().is_some_and(|b| b & 1 == 1) {
                    flip(&mut f, 72 + start + i);
                }
            }
            assert_eq!(
                open(&f),
                Some(WireError::Checksum),
                "burst of {len} bits at body bit {start}"
            );
        }
    }
}

#[test]
fn every_flip_and_burst_in_the_golden_body_is_a_checksum_error() {
    let frame = golden_frame();
    assert!(
        frame.len() - 17 < FOLD_MIN,
        "the golden body takes the table"
    );
    assert_every_error_caught(&frame, 5);
}

#[test]
fn every_flip_and_burst_in_a_folded_body_is_a_checksum_error() {
    let frame = frame_of(&bytes(7, 4096));
    assert_every_error_caught(&frame, 61);
}

#[test]
fn a_version_1_frame_is_refused() {
    let summary = SummaryFrame {
        src: 2,
        seq: 7,
        last_epoch: 9,
        leaf_mass: vec![(2, 500)],
        gauges: vec![(2, LeafGauges::default())],
        ..SummaryFrame::default()
    }
    .seal();
    let batch = golden_frame();
    let summary = encode_summary(&summary);
    assert!(decode_batch(&batch).is_ok());
    assert!(decode_summary(&summary).is_ok());
    for v in [1, 2] {
        // A wrong digest and an unparseable body as well: the version
        // answers first.
        let old = |frame: &[u8]| {
            let mut f = frame.to_vec();
            f[3] = v;
            let n = f.len();
            f[n - 1] ^= 0xFF;
            f[9] = 0xFF;
            f
        };
        let bad = Some(WireError::BadVersion(v));
        assert_eq!(decode_batch(&old(&batch)).err(), bad, "batch, version {v}");
        assert_eq!(
            decode_summary(&old(&summary)).err(),
            bad,
            "summary, version {v}"
        );
    }
}
