//! The read side's byte sink and its fixed-buffer integer writer.
//!
//! Every text the read side produces — the §7.1 dump JSON, the
//! stitched and crosstalk texts, origin and context labels — is
//! written once, through [`Sink`], into whatever wants the bytes: a
//! growable text buffer (`String`) to keep them, or an [`Fnv64`] to
//! fingerprint them without building the text at all. A writer emits
//! the same bytes into either, so a fingerprint over streamed text is
//! the fingerprint of the rendered `String`.
//!
//! Integers go through [`push_u64`] and friends: a two-digits-per-step
//! table into a stack buffer, no `format!`, no per-number allocation.
//! Output bytes are identical to `Display` for the same value.

use crate::hash::Fnv64;
use std::fmt;

/// Where a read-side writer puts its bytes.
pub trait Sink {
    /// Appends `s`.
    fn put(&mut self, s: &str);

    /// Appends one character.
    fn put_char(&mut self, c: char);

    /// Appends formatted text (a float, a `Display` value) without an
    /// intermediate `String`.
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        struct Adapter<'a, S: ?Sized>(&'a mut S);
        impl<S: Sink + ?Sized> fmt::Write for Adapter<'_, S> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.put(s);
                Ok(())
            }
        }
        // The adapter never fails; a `Display` impl that does cuts the
        // text short, as `write!` into a `String` would.
        let _ = fmt::Write::write_fmt(&mut Adapter(self), args);
    }
}

impl Sink for String {
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }

    fn put_char(&mut self, c: char) {
        self.push(c);
    }
}

impl Sink for Fnv64 {
    fn put(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    fn put_char(&mut self, c: char) {
        self.write(c.encode_utf8(&mut [0; 4]).as_bytes());
    }
}

/// Longest decimal rendering of a `u64` (`u64::MAX` has 20 digits).
const MAX_DIGITS: usize = 20;

/// `"00" "01" … "99"`: the two digits of every value below 100.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Appends the decimal rendering of `v` without allocating.
pub fn push_u64<S: Sink + ?Sized>(out: &mut S, v: u64) {
    if v < 10 {
        out.put_char(char::from(b'0' + v as u8));
        return;
    }
    let mut buf = [0u8; MAX_DIGITS];
    let mut pos = MAX_DIGITS;
    let mut v = v;
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        v /= 100;
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + v as u8;
    }
    // The buffer holds only ASCII digits, so this never fails.
    if let Ok(digits) = std::str::from_utf8(&buf[pos..]) {
        out.put(digits);
    }
}

/// Appends the decimal rendering of a `u32`.
pub fn push_u32<S: Sink + ?Sized>(out: &mut S, v: u32) {
    push_u64(out, u64::from(v));
}

/// Appends the decimal rendering of a `usize`.
pub fn push_usize<S: Sink + ?Sized>(out: &mut S, v: usize) {
    push_u64(out, v as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_display_on_edges_and_samples() {
        let mut cases = vec![
            0u64,
            1,
            9,
            10,
            99,
            100,
            101,
            999,
            1_000,
            12_345,
            100_000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        cases.extend((0..20).map(|p| 10u64.pow(p)));
        cases.extend((1..20).map(|p| 10u64.pow(p) - 1));
        cases.extend((0..5_000u64).map(|i| i * 7 + i / 3));
        for v in cases {
            let mut s = String::new();
            push_u64(&mut s, v);
            assert_eq!(s, v.to_string());
        }
    }

    #[test]
    fn appends_without_clearing() {
        let mut s = String::from("x=");
        push_u32(&mut s, 7);
        s.push(',');
        push_usize(&mut s, 321);
        assert_eq!(s, "x=7,321");
    }

    #[test]
    fn the_hasher_sees_the_bytes_the_buffer_keeps() {
        let write = |out: &mut dyn Sink| {
            out.put("né ");
            out.put_char('→');
            out.put_char('"');
            push_u64(out, 1_234_567);
            out.put_fmt(format_args!(" {:.1}", 2.25f64));
        };
        let mut text = String::new();
        write(&mut text);
        let mut h = Fnv64::new();
        write(&mut h);
        assert_eq!(text, "né →\"1234567 2.2");
        assert_eq!(h.finish(), crate::hash::fnv1a(text.as_bytes()));
    }
}
