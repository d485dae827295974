//! Minimal standard-alphabet Base64 (RFC 4648 §4, with padding) — the
//! encoding of the `data` field in Semtech UDP `rxpk`/`txpk` JSON.
//!
//! Implemented locally to keep the dependency set to the sanctioned
//! list (see DESIGN.md). Decoding returns a typed [`B64Error`] naming
//! the malformation and its byte offset, so an ingest daemon can
//! count/categorize corrupt datagrams without string-matching.

use std::fmt;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Why a Base64 string failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum B64Error {
    /// Input length is not a multiple of 4.
    BadLength(usize),
    /// A byte outside the standard alphabet (offset of the byte).
    BadChar(usize),
    /// Padding in an illegal position or amount (offset of the chunk).
    BadPadding(usize),
}

impl fmt::Display for B64Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            B64Error::BadLength(n) => write!(f, "base64 length {n} is not a multiple of 4"),
            B64Error::BadChar(at) => write!(f, "non-base64 byte at offset {at}"),
            B64Error::BadPadding(at) => write!(f, "illegal base64 padding at offset {at}"),
        }
    }
}

impl std::error::Error for B64Error {}

/// Encode bytes as padded Base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = ((b[0] as u32) << 16) | ((b[1] as u32) << 8) | b[2] as u32;
        let idx = [(n >> 18) & 63, (n >> 12) & 63, (n >> 6) & 63, n & 63];
        out.push(ALPHABET[idx[0] as usize] as char);
        out.push(ALPHABET[idx[1] as usize] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[idx[2] as usize] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[idx[3] as usize] as char
        } else {
            '='
        });
    }
    out
}

/// Decode padded Base64; returns `None` on any malformed input. Thin
/// wrapper over [`try_decode`] for call sites that don't care why.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    try_decode(text).ok()
}

/// Marks a byte outside the alphabet in [`DECODE`] (`=` included: the
/// padding rules live in [`decode_quad_cold`]). Alphabet values are
/// < 64, so OR-ing a quad's four lookups keeps this bit iff any of the
/// four bytes is not a plain alphabet character.
const INVALID: u8 = 0x80;

/// Byte → 6-bit value, or [`INVALID`].
const DECODE: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut v = 0;
    while v < 64 {
        t[ALPHABET[v] as usize] = v as u8;
        v += 1;
    }
    t
};

/// Decode padded Base64 into `out` (cleared first); the allocation-free
/// hot-path variant used by the ingest daemon's fast parser.
pub fn decode_into(text: &str, out: &mut Vec<u8>) -> Result<(), B64Error> {
    decode_bytes_into(text.as_bytes(), out)
}

/// [`decode_into`] over raw bytes: anything outside ASCII is a
/// [`B64Error::BadChar`] at its byte offset, as it is through `str`.
pub(super) fn decode_bytes_into(bytes: &[u8], out: &mut Vec<u8>) -> Result<(), B64Error> {
    out.clear();
    if !bytes.len().is_multiple_of(4) {
        return Err(B64Error::BadLength(bytes.len()));
    }
    out.reserve(bytes.len() / 4 * 3);
    for (i, quad) in bytes.chunks_exact(4).enumerate() {
        let v = [
            DECODE[quad[0] as usize],
            DECODE[quad[1] as usize],
            DECODE[quad[2] as usize],
            DECODE[quad[3] as usize],
        ];
        if (v[0] | v[1] | v[2] | v[3]) & INVALID != 0 {
            decode_quad_cold(quad, i * 4, (i + 1) * 4 == bytes.len(), out)?;
            continue;
        }
        let n = ((v[0] as u32) << 18) | ((v[1] as u32) << 12) | ((v[2] as u32) << 6) | v[3] as u32;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    Ok(())
}

/// Decode the Base64 text at the start of `bytes` up to the `"` that
/// closes it, in the one pass that finds the `"`. `Some(len)` of the
/// text when it is well-formed and the `"` follows a whole quad, with
/// `out` holding what [`decode_bytes_into`] makes of the text; `None`
/// for anything else (a stray byte, bad padding, a `\`, the input
/// ending first), with nothing said about `out`.
pub(super) fn decode_quoted(bytes: &[u8], out: &mut Vec<u8>) -> Option<usize> {
    out.clear();
    let mut at = 0;
    let quad = loop {
        let quad = bytes.get(at..at + 4)?;
        let v = [
            DECODE[quad[0] as usize],
            DECODE[quad[1] as usize],
            DECODE[quad[2] as usize],
            DECODE[quad[3] as usize],
        ];
        if (v[0] | v[1] | v[2] | v[3]) & INVALID != 0 {
            break quad;
        }
        let n = ((v[0] as u32) << 18) | ((v[1] as u32) << 12) | ((v[2] as u32) << 6) | v[3] as u32;
        out.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
        at += 4;
    };
    if quad[0] == b'"' {
        return Some(at);
    }
    // A padded last quad: the cold path takes no `"` or `\`.
    if bytes.get(at + 4) != Some(&b'"') {
        return None;
    }
    decode_quad_cold(quad, at, true, out).ok()?;
    Some(at + 4)
}

/// A quad holding `=` or a byte outside the alphabet, at byte offset
/// `at`: either the padded tail of the input or the error to report.
#[cold]
fn decode_quad_cold(quad: &[u8], at: usize, last: bool, out: &mut Vec<u8>) -> Result<(), B64Error> {
    let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
    // Padding only in the last quad, at most two, only at its tail.
    if pad > 2 || (pad > 0 && !last) || quad[..4 - pad].contains(&b'=') {
        return Err(B64Error::BadPadding(at));
    }
    let mut n = 0u32;
    for (j, &c) in quad[..4 - pad].iter().enumerate() {
        let v = DECODE[c as usize];
        if v == INVALID {
            return Err(B64Error::BadChar(at + j));
        }
        n = (n << 6) | v as u32;
    }
    n <<= 6 * pad as u32;
    // Canonical form only: the bits a padded chunk doesn't emit
    // must be zero ("Zh==" is not a valid spelling of 0x66), so
    // decode is the exact inverse of encode byte-for-byte.
    if pad > 0 && n & ((1 << (8 * pad)) - 1) != 0 {
        return Err(B64Error::BadPadding(at));
    }
    out.push((n >> 16) as u8);
    if pad < 2 {
        out.push((n >> 8) as u8);
    }
    Ok(())
}

/// Decode padded Base64, reporting the malformation on failure.
pub fn try_decode(text: &str) -> Result<Vec<u8>, B64Error> {
    let mut out = Vec::new();
    decode_into(text, &mut out)?;
    Ok(out)
}

/// The per-byte `match` decoder [`decode_into`] replaced, verbatim: the
/// oracle of the table decoder's differential below and of the old
/// scanner kept in `fast::oracle`.
#[cfg(test)]
pub(super) fn ladder_decode_into(text: &str, out: &mut Vec<u8>) -> Result<(), B64Error> {
    out.clear();
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(B64Error::BadLength(bytes.len()));
    }
    out.reserve(bytes.len() / 4 * 3);
    let val = |c: u8| -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some((c - b'A') as u32),
            b'a'..=b'z' => Some((c - b'a') as u32 + 26),
            b'0'..=b'9' => Some((c - b'0') as u32 + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    };
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && !last) {
            return Err(B64Error::BadPadding(i * 4));
        }
        // Padding only at the tail positions.
        if chunk[..4 - pad].contains(&b'=') {
            return Err(B64Error::BadPadding(i * 4));
        }
        let mut n = 0u32;
        for (j, &c) in chunk[..4 - pad].iter().enumerate() {
            n = (n << 6) | val(c).ok_or(B64Error::BadChar(i * 4 + j))?;
        }
        n <<= 6 * pad as u32;
        // Canonical form only: the bits a padded chunk doesn't emit
        // must be zero ("Zh==" is not a valid spelling of 0x66), so
        // decode is the exact inverse of encode byte-for-byte.
        if pad > 0 && n & ((1 << (8 * pad)) - 1) != 0 {
            return Err(B64Error::BadPadding(i * 4));
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 4648 §10 test vectors.
    #[test]
    fn rfc4648_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (raw, enc) in cases {
            assert_eq!(encode(raw), enc);
            assert_eq!(decode(enc).unwrap(), raw);
        }
    }

    #[test]
    fn rejects_malformed_with_typed_errors() {
        assert_eq!(try_decode("Zg=").unwrap_err(), B64Error::BadLength(3));
        assert_eq!(try_decode("Z!==").unwrap_err(), B64Error::BadChar(1));
        assert_eq!(try_decode("====").unwrap_err(), B64Error::BadPadding(0));
        assert_eq!(try_decode("Zg==Zg==").unwrap_err(), B64Error::BadPadding(0));
        assert_eq!(try_decode("Zm9vY===").unwrap_err(), B64Error::BadPadding(4));
        // The Option shim mirrors the Result path.
        assert!(decode("Zg=").is_none());
    }

    /// Both decoders on `text`: same verdict, and on success the same
    /// bytes. Returns the verdict.
    fn table_and_ladder(text: &str) -> Result<Vec<u8>, B64Error> {
        let (mut table, mut ladder) = (vec![1u8; 3], vec![2u8; 5]);
        let verdict = decode_into(text, &mut table);
        assert_eq!(verdict, ladder_decode_into(text, &mut ladder), "{text:?}");
        if verdict.is_ok() {
            assert_eq!(table, ladder, "{text:?}");
        }
        verdict.map(|()| table)
    }

    #[test]
    fn table_decoder_equals_the_ladder() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Every ASCII byte at every position of an unpadded, a
        // one-padded and a two-padded text, and every truncation: each
        // error variant at each offset it can name.
        let mut seen = std::collections::BTreeSet::new();
        for text in ["Zm9vYmFy", "Zm9vYmE=", "Zm9vYg=="] {
            for at in 0..text.len() {
                for c in 0..0x80u8 {
                    let mut damaged = text.as_bytes().to_vec();
                    damaged[at] = c;
                    let damaged = String::from_utf8(damaged).expect("ascii");
                    if let Err(e) = table_and_ladder(&damaged) {
                        seen.insert(format!("{e:?}"));
                    }
                }
                if let Err(e) = table_and_ladder(&text[..at]) {
                    seen.insert(format!("{e:?}"));
                }
            }
        }
        let mut expected: Vec<String> = (0..8)
            .map(|at| format!("{:?}", B64Error::BadChar(at)))
            .chain([0, 4].map(|at| format!("{:?}", B64Error::BadPadding(at))))
            .chain([1, 2, 3, 5, 6, 7].map(|n| format!("{:?}", B64Error::BadLength(n))))
            .collect();
        expected.sort();
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), expected);

        // Soup of alphabet, padding and strays (one of them two bytes
        // long), lengths around several quads.
        const SOUP: [char; 12] = ['A', 'Z', 'a', 'z', '0', '9', '+', '/', '=', '=', '!', 'é'];
        let mut rng = StdRng::seed_from_u64(0xB64);
        let (mut oks, mut errs) = (0u32, 0u32);
        for _ in 0..200_000 {
            let text: String = (0..rng.gen_range(0..=16usize))
                .map(|_| SOUP[rng.gen_range(0..SOUP.len())])
                .collect();
            match table_and_ladder(&text) {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
        assert!(
            oks > 1_000 && errs > 1_000,
            "{oks} decoded, {errs} rejected"
        );
    }

    #[test]
    fn binary_roundtrip() {
        let data: Vec<u8> = (0..=255u8).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let mut buf = vec![9u8; 32];
        decode_into("Zm9v", &mut buf).unwrap();
        assert_eq!(buf, b"foo");
        decode_into("", &mut buf).unwrap();
        assert!(buf.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            prop_assert_eq!(decode(&encode(&data)).unwrap(), data);
        }

        /// Arbitrary strings (any Unicode scalar values, not just
        /// base64 alphabet) never panic the decoder: they either
        /// decode or produce a typed error.
        #[test]
        fn fuzz_decode_never_panics(codepoints in proptest::collection::vec(any::<u32>(), 0..64)) {
            let text: String = codepoints
                .iter()
                .filter_map(|&c| char::from_u32(c % 0x11_0000))
                .collect();
            let _ = try_decode(&text);
        }

        /// Arbitrary *byte* soup (forced through ASCII-range chars so it
        /// stays a str) with padding characters sprinkled in: anything
        /// that decodes must re-encode to the same text, and anything
        /// that fails names a location inside the input.
        #[test]
        fn fuzz_ascii_soup(bytes in proptest::collection::vec(0x20u8..0x7f, 0..64)) {
            let text: String = bytes.iter().map(|&b| b as char).collect();
            match try_decode(&text) {
                Ok(raw) => prop_assert_eq!(encode(&raw), text),
                Err(B64Error::BadLength(n)) => prop_assert_eq!(n, text.len()),
                Err(B64Error::BadChar(at)) => prop_assert!(at < text.len()),
                Err(B64Error::BadPadding(at)) => prop_assert!(at < text.len()),
            }
        }
    }
}
