//! CRC-64/XZ, the digest of every wire frame's envelope (DESIGN.md §16).
//!
//! The reflected ECMA-182 polynomial [`POLY`], init and xorout `!0`:
//! `crc64(b"123456789") == 0x995D_C9BB_DF19_39FA`. A CRC over a 64-bit
//! polynomial detects every change confined to 64 consecutive bits, so
//! every single-byte change and every burst of up to 64 bits, which
//! the byte-wise FNV-1a it replaced does not guarantee.
//!
//! Two implementations compute the same function, and nothing but the
//! CPU chooses between them:
//!
//! - a slicing-by-8 table, built by `const fn`, serves short bodies,
//!   the tail of a long one and every CPU without carry-less multiply.
//!   [`crc64_table`] exposes it alone, as the tests' oracle;
//! - on x86_64 with PCLMULQDQ, a body of [`FOLD_MIN`] bytes or more is
//!   folded 128 bytes at a time in eight 16-byte lanes, the lanes
//!   folded into one, the tail's whole 16-byte chunks folded onto it
//!   and that reduced to 64 bits by a Barrett reduction; the table
//!   finishes the last 0-15 bytes.
//!
//! Folding rests on `X·x^D ≡ H·(x^(D+64) mod P) + L·(x^D mod P)` for a
//! 128-bit chunk `X = H·x^64 + L`. In the reflected bit order a
//! carry-less product comes out multiplied by one extra `x`, so each
//! key is `x^(n) mod P` for `n` one below the distance it moves a half:
//! [`FOLD_KEYS`] lists them by `n`, bit-reversed.

/// The reflected ECMA-182 polynomial (`x^64` implied).
pub const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Shortest body the carry-less fold takes: two 128-byte blocks, so
/// the fold loop runs at least once. Anything shorter goes to the table.
pub const FOLD_MIN: usize = 256;

/// `(n, bit-reversed x^n mod P)` for every `n` the fold uses: `1087`
/// and `1023` carry a lane's high and low halves one 1024-bit block
/// on, `128·j + 63` and `128·j − 1` carry lane `7 − j` of the last
/// block onto lane 7 (`j = 1` also carries each 16-byte chunk of the
/// tail onto the next), and `127` folds the last 128 bits to 64.
pub const FOLD_KEYS: [(u32, u64); 16] = [
    (127, 0xDABE_95AF_C787_5F40),
    (191, 0xE05D_D497_CA39_3AE4),
    (255, 0x3BE6_53A3_0FE1_AF51),
    (319, 0x6009_5B00_8A9E_FA44),
    (383, 0x69A3_5D91_C373_0254),
    (447, 0xB5EA_1AF9_C013_ACA4),
    (511, 0x081F_6054_A784_2DF4),
    (575, 0x6AE3_EFBB_9DD4_41F3),
    (639, 0x0E31_D519_421A_63A5),
    (703, 0x2E30_2032_12CA_C325),
    (767, 0xE4CE_2CD5_5FEA_0037),
    (831, 0x2FE3_FD29_20CE_82EC),
    (895, 0x9478_74DE_5950_52CB),
    (959, 0x9E73_5CB5_9B47_24DA),
    (1023, 0xD7D8_6B2A_F73D_E740),
    (1087, 0x8757_D71D_4FCC_1000),
];

/// Bit-reversed `floor(x^127 / P)`, the Barrett reduction's quotient
/// estimate: `floor(Q / P) = floor(floor(Q / x^64) · MU / x^63)` for
/// any `Q` of degree below 128.
pub const MU: u64 = 0x9C3E_466C_1729_63D5;

/// Bit-reversed `(P − x^64 − 1) / x`: the part of `P` a carry-less
/// product must supply once the `x^64` and `1` terms are added by xor.
pub const POLY_DIV_X: u64 = 0x92D8_AF2B_AF0E_1E84;

/// CRC-64/XZ of `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_MIN && fold::detected() {
        // SAFETY: `fold::update` enables only PCLMULQDQ and SSE4.1,
        // which `fold::detected` has just found on this CPU.
        return !unsafe { fold::update(!0, bytes) };
    }
    crc64_table(bytes)
}

/// CRC-64/XZ of `bytes` by the table alone, on any CPU and length: the
/// oracle [`crc64`]'s fold is tested against.
pub fn crc64_table(bytes: &[u8]) -> u64 {
    !table_update(!0, bytes)
}

/// `TABLE[k][b]`: the register `b` becomes after `k + 1` zero bytes.
const TABLE: [[u64; 256]; 8] = tables();

// Evaluated at compile time, where an index out of range fails the
// build; the runtime walks below are the ones under the indexing deny.
const fn tables() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u64;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Entry `b` of one table row. A `u8` is always in range, so the
/// fallback is never taken and the lookup has no panic path.
#[inline(always)]
fn at(row: &[u64; 256], b: u8) -> u64 {
    row.get(usize::from(b)).copied().unwrap_or(0)
}

/// Runs the (unfinished, un-inverted) CRC register `s` over `bytes`,
/// eight bytes per step.
#[deny(clippy::indexing_slicing)]
fn table_update(mut s: u64, bytes: &[u8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLE;
    let (words, tail) = bytes.as_chunks::<8>();
    for w in words {
        let [b0, b1, b2, b3, b4, b5, b6, b7] = (s ^ u64::from_le_bytes(*w)).to_le_bytes();
        s = at(t7, b0)
            ^ at(t6, b1)
            ^ at(t5, b2)
            ^ at(t4, b3)
            ^ at(t3, b4)
            ^ at(t2, b5)
            ^ at(t1, b6)
            ^ at(t0, b7);
    }
    for &b in tail {
        s = at(t0, s as u8 ^ b) ^ (s >> 8);
    }
    s
}

#[cfg(target_arch = "x86_64")]
mod fold {
    use super::{table_update, FOLD_KEYS, MU, POLY_DIV_X};
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_extract_epi64, _mm_set_epi64x,
        _mm_setzero_si128, _mm_xor_si128,
    };

    /// The key for `n` in [`FOLD_KEYS`]; a missing `n` fails the build.
    const fn key(n: u32) -> u64 {
        let mut i = 0;
        while i < FOLD_KEYS.len() {
            if FOLD_KEYS[i].0 == n {
                return FOLD_KEYS[i].1;
            }
            i += 1;
        }
        panic!("no fold key for this n")
    }

    /// Whether this CPU has what [`update`] enables. The answer is
    /// cached by std after the first call.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// The keys that move a chunk `D` bits on: the high half's in the
    /// low lane, the low half's in the high lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn keys<const D: u32>() -> __m128i {
        _mm_set_epi64x(const { key(D - 1) } as i64, const { key(D + 63) } as i64)
    }

    /// 16 message bytes, the first in the low lane's low byte.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(c: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*c);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `x` moved on by the distance `k` holds the keys for.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(x, k, 0x00),
            _mm_clmulepi64_si128(x, k, 0x11),
        )
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn clmul(a: u64, b: u64) -> __m128i {
        _mm_clmulepi64_si128(
            _mm_set_epi64x(0, a as i64),
            _mm_set_epi64x(0, b as i64),
            0x00,
        )
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lo(x: __m128i) -> u64 {
        _mm_cvtsi128_si64(x) as u64
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn hi(x: __m128i) -> u64 {
        _mm_extract_epi64(x, 1) as u64
    }

    /// `R·x^64 mod P` for the 128 bits `R = H·x^64 + L` (`H` in the
    /// low lane): the register after the bytes `R` stands for.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn reduce(r: __m128i) -> u64 {
        // R·x^64 ≡ H·(x^128 mod P) + L·x^64 =: Q = Qh·x^64 + Ql.
        let c = clmul(lo(r), const { key(127) });
        let (qh, ql) = (lo(c) ^ hi(r), hi(c));
        // Barrett: the quotient q, then Q + q·P, whose high half is 0.
        let q = lo(clmul(qh, MU));
        ql ^ q ^ hi(clmul(q, POLY_DIV_X))
    }

    /// [`super::table_update`] with every whole 128-byte block, then
    /// every whole 16-byte chunk, folded. A caller without these target
    /// features must first see [`detected`] return true.
    #[deny(clippy::indexing_slicing)]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(s: u64, bytes: &[u8]) -> u64 {
        let (blocks, tail) = bytes.as_chunks::<128>();
        let Some((first, rest)) = blocks.split_first() else {
            return table_update(s, bytes);
        };
        let mut x = [_mm_setzero_si128(); 8];
        for (x, c) in x.iter_mut().zip(first.as_chunks::<16>().0) {
            *x = load(c);
        }
        let [x0, ..] = &mut x;
        *x0 = _mm_xor_si128(*x0, _mm_set_epi64x(0, s as i64));
        let k = keys::<1024>();
        for block in rest {
            for (x, c) in x.iter_mut().zip(block.as_chunks::<16>().0) {
                *x = _mm_xor_si128(fold(*x, k), load(c));
            }
        }
        // Lane j of the last block lies 128·(7 − j) bits before lane 7.
        let [x0, x1, x2, x3, x4, x5, x6, x7] = x;
        let r = [
            fold(x0, keys::<896>()),
            fold(x1, keys::<768>()),
            fold(x2, keys::<640>()),
            fold(x3, keys::<512>()),
            fold(x4, keys::<384>()),
            fold(x5, keys::<256>()),
            fold(x6, keys::<128>()),
        ]
        .into_iter()
        .fold(x7, |r, x| _mm_xor_si128(r, x));
        // The tail's whole 16-byte chunks fold on that one lane.
        let (chunks, tail) = tail.as_chunks::<16>();
        let r = chunks
            .iter()
            .fold(r, |r, c| _mm_xor_si128(fold(r, keys::<128>()), load(c)));
        table_update(reduce(r), tail)
    }
}
