//! The one FNV-1a 64-bit hash used everywhere a stable fingerprint is
//! needed.
//!
//! Several subsystems need a hash that is a pure function of the bytes
//! fed to it — never of interning order, table state, or the std
//! `Hasher` (whose keys are unspecified across releases): context
//! value interning, report fingerprints, chaos scenario fingerprints,
//! and streaming delta checksums. They all
//! share this implementation so the constants and byte order cannot
//! drift apart between call sites.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
///
/// The digest is defined purely by the concatenation of the byte
/// streams passed to [`Fnv64::write`]; `write_u64` is shorthand for
/// writing the value's little-endian bytes.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher seeded with the standard offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// A hasher that continues from an earlier [`Fnv64::finish`]: the
    /// digest is a running state, so hashing `a` and then, from its
    /// digest, `b` gives the digest of `a ++ b`.
    pub fn with_state(state: u64) -> Self {
        Fnv64(state)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds the little-endian bytes of `v` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Incremental FNV-1a over 64-bit lanes.
///
/// Same xor-and-multiply round as [`Fnv64`], but one round per `u64`
/// word instead of one per byte — an 8× shorter multiply chain for
/// word-structured inputs (the streaming delta checksums feed tens of
/// words per event). The digest is a pure function of the word
/// sequence; it is **not** byte-compatible with [`Fnv64`], so the two
/// must never be mixed on one value.
#[derive(Clone, Copy, Debug)]
pub struct FnvLanes(u64);

impl FnvLanes {
    /// A hasher seeded with the standard offset basis.
    pub fn new() -> Self {
        FnvLanes(FNV_OFFSET)
    }

    /// Folds one 64-bit lane into the digest.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    /// Folds `bytes` as little-endian lanes, the tail zero-padded.
    /// Length is the caller's to encode if it matters (trailing zero
    /// bytes are not distinguished from padding).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(tail));
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for FnvLanes {
    fn default() -> Self {
        Self::new()
    }
}

/// [`std::hash::Hasher`] adapter over [`Fnv64`], for `HashMap`s on hot
/// paths where SipHash dominates the lookup (small integer or short
/// string keys). The table stays ordinary `std` — only the hash
/// function changes — so this must not be used where hash *iteration
/// order* could leak into output (all Whodunit outputs sort first).
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvHasher(Fnv64);

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0.finish()
    }
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }
    fn write_u32(&mut self, v: u32) {
        // One lane round beats four byte rounds for the common int keys.
        let h = self.0.finish();
        self.0 = Fnv64((h ^ u64::from(v)).wrapping_mul(FNV_PRIME));
    }
    fn write_u64(&mut self, v: u64) {
        let h = self.0.finish();
        self.0 = Fnv64((h ^ v).wrapping_mul(FNV_PRIME));
    }
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FnvBuild;

impl std::hash::BuildHasher for FnvBuild {
    type Hasher = FnvHasher;
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher::default()
    }
}

/// A `HashMap` hashed with FNV-1a instead of SipHash.
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn with_state_continues_a_digest() {
        let mut h = Fnv64::with_state(fnv1a(b"foo"));
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn write_u64_is_le_bytes() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv64::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }
}
