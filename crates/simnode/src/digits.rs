//! The one integer writer of the text paths.
//!
//! A collection renders some six hundred numbers into pseudo-files and
//! as many again into the message, so both sides — the
//! [`crate::pseudofs`] renderers here and the raw-format codec in
//! `tacc-collect` — write integers through this module instead of
//! `fmt`: digits go into the tail of a stack buffer, two per division,
//! and are appended to the caller's bytes in one copy. What is written
//! is exactly what `{}` and `{:x}` write.

/// Digits of `u64::MAX` in decimal.
const MAX_DEC: usize = 20;
/// Digits of `u64::MAX` in hexadecimal.
const MAX_HEX: usize = 16;

/// `00`, `01`, … `99`: both digits of a pair in one load.
const PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324\
    25262728293031323334353637383940414243444546474849\
    50515253545556575859606162636465666768697071727374\
    75767778798081828384858687888990919293949596979899";

/// `v` in decimal, as ASCII digits in the tail of `buf`.
#[inline]
pub fn dec(mut v: u64, buf: &mut [u8; MAX_DEC]) -> &[u8] {
    let mut len = 0;
    for pair in buf.rchunks_exact_mut(2) {
        let low = (v % 100) as usize;
        v /= 100;
        if let Some(digits) = PAIRS.get(2 * low..2 * low + 2) {
            pair.copy_from_slice(digits);
        }
        len += 2;
        if v == 0 {
            // The last pair's tens digit is a leading zero below 10.
            len -= usize::from(low < 10);
            break;
        }
    }
    buf.get(MAX_DEC - len..).unwrap_or(&[])
}

/// `v` in lower-case hexadecimal, as ASCII digits in the tail of `buf`.
#[inline]
fn hex(mut v: u64, buf: &mut [u8; MAX_HEX]) -> &[u8] {
    let mut len = 0;
    for slot in buf.iter_mut().rev() {
        let nibble = (v & 0xf) as u8;
        *slot = if nibble < 10 {
            b'0' + nibble
        } else {
            b'a' + nibble - 10
        };
        v >>= 4;
        len += 1;
        if v == 0 {
            break;
        }
    }
    buf.get(MAX_HEX - len..).unwrap_or(&[])
}

/// Append `v` in decimal.
#[inline]
pub fn push_dec(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(dec(v, &mut [0; MAX_DEC]));
}

/// Append `v` in lower-case hexadecimal.
#[inline]
pub fn push_hex(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(hex(v, &mut [0; MAX_HEX]));
}

/// Append `v` in decimal to a `String`: the digits are validated as
/// UTF-8 on the way, so byte sinks should prefer [`push_dec`].
#[inline]
pub fn push_dec_str(out: &mut String, v: u64) {
    // Only ASCII digits were written, so the fallback is unreachable.
    out.push_str(std::str::from_utf8(dec(v, &mut [0; MAX_DEC])).unwrap_or(""));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every digit-count boundary of a `u64` in `radix`, each with its
    /// neighbours.
    fn boundaries(radix: u64) -> Vec<u64> {
        let mut vs = vec![0, 1, u64::MAX - 1, u64::MAX];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(radix) {
            p = next;
            vs.extend([p - 1, p, p + 1]);
        }
        vs
    }

    #[test]
    fn decimal_matches_display_below_a_thousand() {
        // Every entry of the pair table, as a low pair and as a lone
        // high one.
        for v in 0..1000 {
            let mut bytes = Vec::new();
            push_dec(&mut bytes, v);
            assert_eq!(bytes, v.to_string().into_bytes());
        }
    }

    #[test]
    fn decimal_matches_display_at_every_digit_count() {
        for v in boundaries(10) {
            let mut bytes = b"x".to_vec();
            push_dec(&mut bytes, v);
            assert_eq!(bytes, format!("x{v}").into_bytes());
            let mut text = String::from("x");
            push_dec_str(&mut text, v);
            assert_eq!(text, format!("x{v}"));
        }
    }

    #[test]
    fn hexadecimal_matches_lower_hex_at_every_digit_count() {
        for v in boundaries(16) {
            let mut bytes = b"x".to_vec();
            push_hex(&mut bytes, v);
            assert_eq!(bytes, format!("x{v:x}").into_bytes());
        }
    }
}
