//! Allocation-free PUSH_DATA parser for line-rate ingest.
//!
//! [`super::codec::Datagram::decode`] builds a full JSON value tree
//! per datagram — correct, but far too slow for a daemon targeting
//! millions of packets per second on one core. This module scans the
//! JSON bytes directly, extracting only the fields the ingest/dedup
//! path needs (`tmst`, `lsnr`, `trce`, and the DevAddr/FCnt peeked
//! from the Base64 `data`), skipping everything else without
//! allocating.
//!
//! The parse is the largest share of the ingest thread's work per rxpk
//! (`docs/SCALING.md` has the split), so the scanner does the least
//! that keeps its verdicts, a word at a time where the wire allows:
//!
//! * a member key spelled `"name":` with a four-byte name, as every key
//!   the codec writes is, is one 8-byte load and a mask compare, and
//!   the member is then chosen by its name as a `u32`. Any other
//!   spelling (another length, an escape, whitespace, the last bytes of
//!   the input) goes the way any string and `:` go, to the same result;
//! * `tmst` and `trce` take their digits eight at a time (a digit test
//!   on the word and three multiplies), up to 16 digits, which cannot
//!   overflow; a checked loop takes the rest, so overflow still fails
//!   where the number starts;
//! * `data` is decoded in the pass that finds its closing `"`, four
//!   table lookups per quad ([`super::b64`]); text that is not plain
//!   Base64 is cut out as a string first and decoded after;
//! * any other string is walked eight bytes at a time to its closing
//!   `"` (or the next `\`);
//! * a number nobody reads — six of an rxpk's nine — is held to the
//!   grammar of a number but never converted: a datagram with
//!   `"rssi":-9-7` is still malformed as a whole. Its digits go a byte
//!   at a time: runs of one to three, where a word step would make the
//!   next load wait for the count (measured slower);
//! * `lsnr`, spelled `[-]digits[.digits]` with at most 15 digits as
//!   every forwarder spells it, is an integer divided by an exact
//!   power of ten — one rounding, the bits `str::parse` returns — and
//!   any other spelling goes to `str::parse`;
//! * all of that is inlined into the one member loop; objects, arrays
//!   and literals nobody reads are not.
//!
//! # What this parser accepts that `Datagram::decode` rejects
//!
//! The scanner reads four members and looks at the rest only as far as
//! finding their end needs, so it takes wires the reference decoder
//! refuses. `accepts_wires_the_codec_rejects` pins one of each:
//!
//! * the contents of skipped strings are not validated: bad escapes
//!   (`"\q"`, `"\uZZZZ"`), raw control bytes (which the vendored decoder
//!   takes too) and invalid UTF-8;
//! * skipped numbers are held to the number grammar but not to their
//!   field's type or range (`"chan":-1.5`, `"rssi":1e999`);
//! * skipped objects and arrays are only balanced, not parsed;
//! * `lsnr` is read in `str::parse`'s grammar, which takes `+6.5`;
//! * missing members default: `tmst`, `trce` and `lsnr` to 0, and no
//!   DevAddr or FCnt;
//! * for a duplicate member the last one wins (the decoder reads the
//!   first);
//! * bytes after the payload's closing `}` are not looked at.
//!
//! The converse holds as well: `data` that is not Base64, a `tmst`
//! spelled `1.0` and `"rxpk":null` are taken by the decoder only. The
//! ingest path's contract is this parser's verdict.
//!
//! Two pins keep it honest. The proptests at the bottom hold its
//! results to `Datagram::decode` on arbitrary codec-generated wire
//! bytes, so the fast path can never silently drift from the
//! reference. And the byte-at-a-time scanner this one replaced lives
//! on, verbatim and test-only, as `oracle`: `differential` requires the
//! identical `Result` — error variants and offsets included, `lsnr` by
//! bits — on hundreds of thousands of codec wires mutated towards the
//! bytes the scanners branch on and towards the word paths' edges:
//! members shuffled, whitespace around `:` and `,`, keys of three or
//! five bytes or with an escape, `"` or `\` in them, counters of 15 to
//! 21 digits, wires cut inside a key. A change here that alters any
//! verdict on any input fails there.
//!
//! Measuring it: the benchmark's `gateway.fast_parse_ns_per_pkt`
//! re-parses one wire, which could teach the branch predictor that
//! wire; `docs/SCALING.md` gives the figure over many distinct wires
//! beside it. What counts is `op_us` and `work_per_s` on `svc-bulk`.

use super::b64::{self, B64Error};
use super::codec::PROTOCOL_VERSION;
use lora_mac::frame::PhyPayload;

/// Why a datagram failed the fast parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastError {
    /// Shorter than the 12-byte PUSH_DATA header.
    TooShort,
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Not a PUSH_DATA datagram (this parser handles only ingest).
    NotPushData(u8),
    /// Structurally invalid JSON payload (byte offset within the JSON).
    Json(usize),
    /// The `data` field held malformed Base64.
    B64(B64Error),
}

impl std::fmt::Display for FastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastError::TooShort => write!(f, "datagram shorter than PUSH_DATA header"),
            FastError::BadVersion(v) => write!(f, "unknown protocol version {v}"),
            FastError::NotPushData(k) => write!(f, "datagram kind {k:#04x} is not PUSH_DATA"),
            FastError::Json(at) => write!(f, "malformed JSON at payload byte {at}"),
            FastError::B64(e) => write!(f, "bad rxpk data field: {e}"),
        }
    }
}

impl std::error::Error for FastError {}

/// One rxpk as seen by the ingest hot path: reception facts plus the
/// dedup key peeked (keylessly) out of the PHY payload. `dev_addr` and
/// `fcnt` are `None` for frames a server cannot key on (join frames,
/// truncated payloads) — the slow path owns those.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastRx {
    /// Concentrator timestamp, µs (the dedup `received_us`).
    pub tmst: u64,
    /// Reported SNR, dB.
    pub lsnr: f64,
    /// Lifecycle trace id (0 = untraced / legacy).
    pub trce: u64,
    /// DevAddr peeked from the payload.
    pub dev_addr: Option<u32>,
    /// FCnt peeked from the payload.
    pub fcnt: Option<u16>,
}

/// Header facts of a parsed PUSH_DATA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastPushData {
    /// ACK token to echo in the PUSH_ACK.
    pub token: u16,
    /// Sending gateway EUI.
    pub eui: u64,
    /// rxpk entries appended to the output vector.
    pub count: usize,
}

/// Parse a PUSH_DATA datagram, appending each rxpk to `out` (not
/// cleared — a receiver loop drains it per batch). `scratch` is a
/// reusable buffer for Base64 payload decoding.
pub fn parse_push_data(
    datagram: &[u8],
    out: &mut Vec<FastRx>,
    scratch: &mut Vec<u8>,
) -> Result<FastPushData, FastError> {
    let (token, eui, json) = push_data_header(datagram)?;
    let before = out.len();
    let mut s = Scanner { b: json, i: 0 };
    s.parse_push_payload(out, scratch)?;
    Ok(FastPushData {
        token,
        eui,
        count: out.len() - before,
    })
}

/// The 12-byte binary header: ACK token, gateway EUI, and the JSON
/// payload that follows it.
fn push_data_header(datagram: &[u8]) -> Result<(u16, u64, &[u8]), FastError> {
    let Some((&[version, t0, t1, kind, eui @ ..], body)) = datagram.split_first_chunk::<12>()
    else {
        return Err(FastError::TooShort);
    };
    if version != PROTOCOL_VERSION {
        return Err(FastError::BadVersion(version));
    }
    if kind != 0x00 {
        return Err(FastError::NotPushData(kind));
    }
    Ok((u16::from_be_bytes([t0, t1]), u64::from_be_bytes(eui), body))
}

struct Scanner<'a> {
    b: &'a [u8],
    i: usize,
}

/// The bytes a number may be spelled with. A number ends at the first
/// byte outside this set, so one that leaves a member behind is
/// malformed as a whole.
fn is_number_byte(c: u8) -> bool {
    matches!(c, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// 0x80 in every byte of `w` that equals `c`, exact up to and including
/// the lowest hit (a borrow can only raise a false flag above a true
/// one), which is the only one the scanner uses.
fn bytes_equal(w: u64, c: u8) -> u64 {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let x = w ^ (LO * c as u64);
    x.wrapping_sub(LO) & !x & HI
}

/// `10^k` for `k ≤ 15`, each exact in an `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// `10^k` for `k ≤ 8`.
const POW10_U64: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

// The member names the scanner reads, as [`Scanner::member_key`]
// returns them.
const RXPK: u32 = u32::from_le_bytes(*b"rxpk");
const TMST: u32 = u32::from_le_bytes(*b"tmst");
const TRCE: u32 = u32::from_le_bytes(*b"trce");
const LSNR: u32 = u32::from_le_bytes(*b"lsnr");
const DATA: u32 = u32::from_le_bytes(*b"data");

/// Whether any of the four bytes of `name` is a `"` or a `\`.
fn quote_or_backslash(name: u32) -> bool {
    let w = name as u64;
    (bytes_equal(w, b'"') | bytes_equal(w, b'\\')) & 0x8080_8080 != 0
}

/// How many of `w`'s bytes, first byte first, are ASCII digits before
/// the first one that is not. A byte is a digit iff its high nibble is
/// 3 and stays 3 once 6 is added. The sum can carry into the next byte,
/// but only out of a non-digit, so the count is exact.
fn leading_digits(w: u64) -> usize {
    const HI: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    let t = (w & HI) | ((w.wrapping_add(0x0606_0606_0606_0606) & HI) >> 4);
    ((t ^ 0x3333_3333_3333_3333).trailing_zeros() / 8) as usize
}

/// The number spelled by the first `k` (1 to 8) bytes of `w`, all
/// digits: shifted up so the bytes below them read as leading zeros,
/// then pairs, quads and the octet are folded by one multiply each.
fn digits_value(w: u64, k: usize) -> u64 {
    let d = (w & 0x0F0F_0F0F_0F0F_0F0F) << (8 * (8 - k));
    let d = (d.wrapping_mul((10 << 8) | 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    let d = (d.wrapping_mul((100 << 16) | 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    d.wrapping_mul((10_000 << 32) | 1) >> 32
}

impl<'a> Scanner<'a> {
    fn err<T>(&self) -> Result<T, FastError> {
        Err(FastError::Json(self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    /// The eight bytes at the cursor as one little-endian word, if
    /// there are eight.
    fn word(&self) -> Option<u64> {
        let w = self.b.get(self.i..)?.first_chunk()?;
        Some(u64::from_le_bytes(*w))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), FastError> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err()
        }
    }

    /// Advance over digits, returning how many.
    fn skip_digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    /// `{"rxpk":[…]}` — tolerate extra top-level keys, as the codec's
    /// slow path does.
    fn parse_push_payload(
        &mut self,
        out: &mut Vec<FastRx>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), FastError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        let mut key = self.member_key()?;
        loop {
            if key == RXPK {
                self.parse_rxpk_array(out, scratch)?;
            } else {
                self.skip_value()?;
            }
            match self.next_key(b'}')? {
                Some(next) => key = next,
                None => return Ok(()),
            }
        }
    }

    fn parse_rxpk_array(
        &mut self,
        out: &mut Vec<FastRx>,
        scratch: &mut Vec<u8>,
    ) -> Result<(), FastError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            out.push(self.parse_rxpk(scratch)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err(),
            }
        }
    }

    fn parse_rxpk(&mut self, scratch: &mut Vec<u8>) -> Result<FastRx, FastError> {
        self.expect(b'{')?;
        let mut rx = FastRx {
            tmst: 0,
            lsnr: 0.0,
            trce: 0,
            dev_addr: None,
            fcnt: None,
        };
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(rx);
        }
        let mut key = self.member_key()?;
        loop {
            match key {
                TMST => rx.tmst = self.parse_u64()?,
                TRCE => rx.trce = self.parse_u64()?,
                LSNR => rx.lsnr = self.parse_f64()?,
                DATA => {
                    self.data(scratch)?;
                    rx.dev_addr = PhyPayload::peek_dev_addr(scratch).map(|a| a.0);
                    rx.fcnt = PhyPayload::peek_fcnt(scratch);
                }
                _ => self.skip_value()?,
            }
            match self.next_key(b'}')? {
                Some(next) => key = next,
                None => return Ok(rx),
            }
        }
    }

    /// The `data` string, decoded into `scratch`. Well-formed Base64
    /// right after the `"` is decoded in the pass that finds its end;
    /// anything else is cut out as a string first and then decoded, to
    /// the same bytes or the error that text makes.
    fn data(&mut self, scratch: &mut Vec<u8>) -> Result<(), FastError> {
        if self.peek() == Some(b'"') {
            if let Some(len) = b64::decode_quoted(&self.b[self.i + 1..], scratch) {
                self.i += len + 2;
                return Ok(());
            }
        }
        let (ds, de) = self.string_span()?;
        let text = &self.b[ds..de];
        b64::decode_bytes_into(text, scratch).map_err(|e| {
            // Text that decodes is ASCII, so only a rejected span can
            // be the non-UTF-8 one, which is a JSON error before it is
            // a Base64 one.
            match std::str::from_utf8(text) {
                Ok(_) => FastError::B64(e),
                Err(_) => FastError::Json(ds),
            }
        })
    }

    /// A member's key and its `:`, leaving the cursor on the value. The
    /// name comes back as a `u32` when it has four bytes, and as 0 (no
    /// name the scanner looks for) otherwise. The key as the codec
    /// spells it, `"name":` with no `"` or `\` in the name, is one load
    /// and one compare; every other spelling (another length, an
    /// escape, whitespace, the last bytes of the input) goes the way
    /// any string and `:` go, to the same result.
    #[inline(always)]
    fn member_key(&mut self) -> Result<u32, FastError> {
        // Bytes 0, 5 and 6 of the word: `"`, `"` and `:`.
        const MASK: u64 = 0x00FF_FF00_0000_00FF;
        const KEY: u64 = 0x003A_2200_0000_0022;
        if let Some(w) = self.word() {
            let name = (w >> 8) as u32;
            if w & MASK == KEY && !quote_or_backslash(name) {
                self.i += 7;
                return Ok(name);
            }
        }
        let (ks, ke) = self.string_span()?;
        self.expect(b':')?;
        Ok(self.b[ks..ke].try_into().map_or(0, u32::from_le_bytes))
    }

    /// After a member's value: the next member's key as
    /// [`Scanner::member_key`] reads it, or `None` past the `close` that
    /// ends the object.
    #[inline(always)]
    fn next_key(&mut self, close: u8) -> Result<Option<u32>, FastError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                self.member_key().map(Some)
            }
            Some(c) if c == close => {
                self.i += 1;
                Ok(None)
            }
            _ => self.err(),
        }
    }

    /// Span of the *contents* of a JSON string (no surrounding quotes).
    /// Escapes are tolerated in skipped strings; the fields this parser
    /// reads (`rxpk` keys, Base64 `data`) never contain them, and a
    /// `data` span with escapes simply fails Base64 decoding.
    fn string_span(&mut self) -> Result<(usize, usize), FastError> {
        self.expect(b'"')?;
        let start = self.i;
        loop {
            // Eight bytes at a time to the next `"` or `\`; the byte
            // steps below take that byte, and the last < 8 of the input.
            while let Some(w) = self.word() {
                let hits = bytes_equal(w, b'"') | bytes_equal(w, b'\\');
                if hits != 0 {
                    self.i += (hits.trailing_zeros() / 8) as usize;
                    break;
                }
                self.i += 8;
            }
            match self.peek() {
                Some(b'"') => {
                    let end = self.i;
                    self.i += 1;
                    return Ok((start, end));
                }
                // May step past the end: the error offset says so.
                Some(b'\\') => self.i += 2,
                Some(_) => self.i += 1,
                None => return self.err(),
            }
        }
    }

    /// Digits as a `u64`, failing at their start if there are none or
    /// they overflow. Up to 16 digits go a word at a time: they stay
    /// below 10^16, so nothing there can overflow; the checked loop
    /// takes any after them.
    #[inline(always)]
    fn parse_u64(&mut self) -> Result<u64, FastError> {
        self.skip_ws();
        let start = self.i;
        let mut n: u64 = 0;
        while self.i - start < 16 {
            let Some(w) = self.word() else { break };
            let k = leading_digits(w);
            if k == 0 {
                break;
            }
            n = n * POW10_U64[k] + digits_value(w, k);
            self.i += k;
            if k < 8 {
                break;
            }
        }
        while let Some(c @ b'0'..=b'9') = self.peek() {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add((c - b'0') as u64))
                .ok_or(FastError::Json(start))?;
            self.i += 1;
        }
        if self.i == start {
            return self.err();
        }
        Ok(n)
    }

    /// A number this parser reads (`lsnr`): everything `str::parse`
    /// takes that is spelled in [`is_number_byte`]s, to the same bits.
    #[inline(always)]
    fn parse_f64(&mut self) -> Result<f64, FastError> {
        self.skip_ws();
        let start = self.i;
        if let Some(v) = self.exact_decimal() {
            return Ok(v);
        }
        self.i = start;
        while self.peek().is_some_and(is_number_byte) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or(FastError::Json(start))
    }

    /// `[-]digits[.digits]` of at most 15 digits: the digits are an
    /// integer below 2^53 and the scale a power of ten up to 10^15, both
    /// exact in an `f64`, so their quotient is rounded once — to the
    /// value `str::parse` rounds the same decimal to. `None` (position
    /// unspecified) for any other spelling.
    #[inline(always)]
    fn exact_decimal(&mut self) -> Option<f64> {
        let negative = self.peek() == Some(b'-');
        if negative {
            self.i += 1;
        }
        let digits_at = self.i;
        let mut mantissa = 0u64;
        let mut digits = 0usize;
        let mut scale = 0usize;
        loop {
            match self.peek() {
                Some(c @ b'0'..=b'9') if digits < 15 => {
                    mantissa = mantissa * 10 + (c - b'0') as u64;
                    digits += 1;
                    self.i += 1;
                }
                Some(b'.') if scale == 0 && self.i > digits_at => {
                    self.i += 1;
                    scale = self.i;
                }
                Some(c) if is_number_byte(c) => return None,
                _ => break,
            }
        }
        let frac = if scale == 0 { 0 } else { self.i - scale };
        if digits == 0 || (scale != 0 && frac == 0) {
            return None;
        }
        let v = mantissa as f64 / POW10[frac];
        Some(if negative { -v } else { v })
    }

    /// Skip any JSON value without materializing it.
    #[inline(always)]
    fn skip_value(&mut self) -> Result<(), FastError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.string_span()?;
                Ok(())
            }
            Some(b'{') => self.skip_delimited(b'{', b'}'),
            Some(b'[') => self.skip_delimited(b'[', b']'),
            Some(b't') => self.skip_lit(b"true"),
            Some(b'f') => self.skip_lit(b"false"),
            Some(b'n') => self.skip_lit(b"null"),
            Some(b'-' | b'0'..=b'9') => self.skip_number(),
            _ => self.err(),
        }
    }

    /// A number nobody reads, starting at `-` or a digit: held to the
    /// grammar [`Scanner::parse_f64`] accepts there — `[-]`, digits with
    /// an optional `.` among them (at least one digit), an optional
    /// exponent of at least one digit — but never converted. A
    /// [`is_number_byte`] left behind means the whole run is not a
    /// number, exactly as when the run was cut out first and parsed.
    #[inline(always)]
    fn skip_number(&mut self) -> Result<(), FastError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut digits = self.skip_digits();
        if self.peek() == Some(b'.') {
            self.i += 1;
            digits += self.skip_digits();
        }
        let mut ok = digits > 0;
        if ok && matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            ok = self.skip_digits() > 0;
        }
        if ok && !self.peek().is_some_and(is_number_byte) {
            Ok(())
        } else {
            Err(FastError::Json(start))
        }
    }

    #[inline(never)]
    fn skip_lit(&mut self, lit: &[u8]) -> Result<(), FastError> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            self.err()
        }
    }

    #[inline(never)]
    fn skip_delimited(&mut self, open: u8, close: u8) -> Result<(), FastError> {
        self.expect(open)?;
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                Some(b'"') => {
                    self.string_span()?;
                    continue;
                }
                Some(c) if c == open => depth += 1,
                Some(c) if c == close => depth -= 1,
                Some(_) => {}
                None => return self.err(),
            }
            self.i += 1;
        }
        Ok(())
    }
}

/// The byte-at-a-time scanner [`parse_push_data`] ran until the hot
/// path was rebuilt, verbatim (over the `match`-ladder Base64 it ran
/// on): the oracle `differential` holds the rebuilt parser to.
#[cfg(test)]
mod oracle {
    use super::*;

    /// [`super::parse_push_data`] with the old scanner behind the
    /// (shared) binary header.
    pub(super) fn parse_push_data(
        datagram: &[u8],
        out: &mut Vec<FastRx>,
        scratch: &mut Vec<u8>,
    ) -> Result<FastPushData, FastError> {
        let (token, eui, json) = push_data_header(datagram)?;
        let before = out.len();
        let mut s = Scanner { b: json, i: 0 };
        s.parse_push_payload(out, scratch)?;
        Ok(FastPushData {
            token,
            eui,
            count: out.len() - before,
        })
    }

    struct Scanner<'a> {
        b: &'a [u8],
        i: usize,
    }

    impl<'a> Scanner<'a> {
        fn err<T>(&self) -> Result<T, FastError> {
            Err(FastError::Json(self.i))
        }

        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn expect(&mut self, c: u8) -> Result<(), FastError> {
            self.skip_ws();
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                self.err()
            }
        }

        /// `{"rxpk":[…]}` — tolerate extra top-level keys, as the codec's
        /// slow path does.
        fn parse_push_payload(
            &mut self,
            out: &mut Vec<FastRx>,
            scratch: &mut Vec<u8>,
        ) -> Result<(), FastError> {
            self.expect(b'{')?;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(());
            }
            loop {
                let (ks, ke) = self.string_span()?;
                self.expect(b':')?;
                if &self.b[ks..ke] == b"rxpk" {
                    self.parse_rxpk_array(out, scratch)?;
                } else {
                    self.skip_value()?;
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return self.err(),
                }
            }
        }

        fn parse_rxpk_array(
            &mut self,
            out: &mut Vec<FastRx>,
            scratch: &mut Vec<u8>,
        ) -> Result<(), FastError> {
            self.expect(b'[')?;
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(());
            }
            loop {
                out.push(self.parse_rxpk(scratch)?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(());
                    }
                    _ => return self.err(),
                }
            }
        }

        fn parse_rxpk(&mut self, scratch: &mut Vec<u8>) -> Result<FastRx, FastError> {
            self.expect(b'{')?;
            let mut rx = FastRx {
                tmst: 0,
                lsnr: 0.0,
                trce: 0,
                dev_addr: None,
                fcnt: None,
            };
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(rx);
            }
            loop {
                let (ks, ke) = self.string_span()?;
                self.expect(b':')?;
                match &self.b[ks..ke] {
                    b"tmst" => rx.tmst = self.parse_u64()?,
                    b"trce" => rx.trce = self.parse_u64()?,
                    b"lsnr" => rx.lsnr = self.parse_f64()?,
                    b"data" => {
                        let (ds, de) = self.string_span()?;
                        let text = std::str::from_utf8(&self.b[ds..de])
                            .map_err(|_| FastError::Json(ds))?;
                        b64::ladder_decode_into(text, scratch).map_err(FastError::B64)?;
                        rx.dev_addr = PhyPayload::peek_dev_addr(scratch).map(|a| a.0);
                        rx.fcnt = PhyPayload::peek_fcnt(scratch);
                    }
                    _ => self.skip_value()?,
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(rx);
                    }
                    _ => return self.err(),
                }
            }
        }

        /// Span of the *contents* of a JSON string (no surrounding quotes).
        /// Escapes are tolerated in skipped strings; the fields this parser
        /// reads (`rxpk` keys, Base64 `data`) never contain them, and a
        /// `data` span with escapes simply fails Base64 decoding.
        fn string_span(&mut self) -> Result<(usize, usize), FastError> {
            self.expect(b'"')?;
            let start = self.i;
            loop {
                match self.peek() {
                    Some(b'"') => {
                        let end = self.i;
                        self.i += 1;
                        return Ok((start, end));
                    }
                    Some(b'\\') => self.i += 2,
                    Some(_) => self.i += 1,
                    None => return self.err(),
                }
            }
        }

        fn parse_u64(&mut self) -> Result<u64, FastError> {
            self.skip_ws();
            let start = self.i;
            let mut n: u64 = 0;
            while let Some(c @ b'0'..=b'9') = self.peek() {
                n = n
                    .checked_mul(10)
                    .and_then(|n| n.checked_add((c - b'0') as u64))
                    .ok_or(FastError::Json(start))?;
                self.i += 1;
            }
            if self.i == start {
                return self.err();
            }
            Ok(n)
        }

        fn parse_f64(&mut self) -> Result<f64, FastError> {
            self.skip_ws();
            let start = self.i;
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.i += 1;
            }
            std::str::from_utf8(&self.b[start..self.i])
                .ok()
                .and_then(|t| t.parse().ok())
                .ok_or(FastError::Json(start))
        }

        /// Skip any JSON value without materializing it.
        fn skip_value(&mut self) -> Result<(), FastError> {
            self.skip_ws();
            match self.peek() {
                Some(b'"') => {
                    self.string_span()?;
                    Ok(())
                }
                Some(b'{') => self.skip_delimited(b'{', b'}'),
                Some(b'[') => self.skip_delimited(b'[', b']'),
                Some(b't') => self.skip_lit(b"true"),
                Some(b'f') => self.skip_lit(b"false"),
                Some(b'n') => self.skip_lit(b"null"),
                Some(b'-' | b'0'..=b'9') => {
                    self.parse_f64()?;
                    Ok(())
                }
                _ => self.err(),
            }
        }

        fn skip_lit(&mut self, lit: &[u8]) -> Result<(), FastError> {
            if self.b[self.i..].starts_with(lit) {
                self.i += lit.len();
                Ok(())
            } else {
                self.err()
            }
        }

        fn skip_delimited(&mut self, open: u8, close: u8) -> Result<(), FastError> {
            self.expect(open)?;
            let mut depth = 1usize;
            while depth > 0 {
                match self.peek() {
                    Some(b'"') => {
                        self.string_span()?;
                        continue;
                    }
                    Some(c) if c == open => depth += 1,
                    Some(c) if c == close => depth -= 1,
                    Some(_) => {}
                    None => return self.err(),
                }
                self.i += 1;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::codec::{Datagram, GatewayEui, RxPacket};
    use super::*;
    use lora_mac::device::DevAddr;
    use lora_phy::channel::Channel;
    use lora_phy::types::SpreadingFactor;

    fn keys() -> lora_mac::device::SessionKeys {
        lora_mac::device::SessionKeys {
            nwk_s_key: [0x13; 16],
            app_s_key: [0x57; 16],
        }
    }

    fn traced_rxpk(dev: u32, fcnt: u16, tmst: u64, trce: u64) -> RxPacket {
        let phy = PhyPayload::uplink(DevAddr(dev), fcnt, 1, &[0u8; 10])
            .encode(&keys())
            .unwrap();
        RxPacket::new(
            tmst,
            Channel::khz125(916_800_000),
            SpreadingFactor::SF7,
            -95.0,
            6.5,
            &phy,
        )
        .with_trace(trce)
    }

    #[test]
    fn parses_codec_generated_push_data() {
        let d = Datagram::PushData {
            token: 0x1234,
            eui: GatewayEui(0xAABB_CCDD_EEFF_0011),
            rxpk: vec![
                traced_rxpk(0x2601_0001, 42, 1_000_000, 7),
                traced_rxpk(0x2601_0002, 43, 1_000_500, 8),
            ],
        };
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let hdr = parse_push_data(&d.encode(), &mut out, &mut scratch).unwrap();
        assert_eq!(hdr.token, 0x1234);
        assert_eq!(hdr.eui, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(hdr.count, 2);
        assert_eq!(out[0].dev_addr, Some(0x2601_0001));
        assert_eq!(out[0].fcnt, Some(42));
        assert_eq!(out[0].tmst, 1_000_000);
        assert_eq!(out[0].trce, 7);
        assert_eq!(out[1].dev_addr, Some(0x2601_0002));
        assert_eq!(out[1].lsnr, 6.5);
    }

    #[test]
    fn rejects_non_push_data() {
        let ack = Datagram::PushAck { token: 1 }.encode();
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        // PUSH_ACK is 4 bytes: header-length failure.
        assert_eq!(
            parse_push_data(&ack, &mut out, &mut scratch),
            Err(FastError::TooShort)
        );
        let pull = Datagram::PullData {
            token: 1,
            eui: GatewayEui(9),
        }
        .encode();
        assert_eq!(
            parse_push_data(&pull, &mut out, &mut scratch),
            Err(FastError::NotPushData(0x02))
        );
    }

    #[test]
    fn join_frames_have_no_dedup_key() {
        let mut rx = traced_rxpk(1, 1, 5, 0);
        // Rewrite the payload as a join-request-shaped frame.
        rx.data = super::super::b64::encode(&[0u8; 23]);
        rx.size = 23;
        let d = Datagram::PushData {
            token: 1,
            eui: GatewayEui(2),
            rxpk: vec![rx],
        };
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        parse_push_data(&d.encode(), &mut out, &mut scratch).unwrap();
        assert_eq!(out[0].dev_addr, None);
        assert_eq!(out[0].fcnt, None);
    }

    /// One wire per reason the module doc gives for taking what
    /// `Datagram::decode` refuses: the accepted superset, pinned.
    #[test]
    fn accepts_wires_the_codec_rejects() {
        let rx = traced_rxpk(0x2601_0001, 42, 1_000_000, 7);
        let wire = Datagram::PushData {
            token: 1,
            eui: GatewayEui(2),
            rxpk: vec![rx.clone()],
        }
        .encode();
        let json = String::from_utf8(wire[12..].to_vec()).expect("codec JSON");
        let edit = |from: &str, to: &str| {
            assert_eq!(json.matches(from).count(), 1, "{from}");
            json.replacen(from, to, 1).into_bytes()
        };
        let expected = FastRx {
            tmst: rx.tmst,
            lsnr: rx.lsnr,
            trce: rx.trce,
            dev_addr: Some(0x2601_0001),
            fcnt: Some(42),
        };
        let cases: Vec<(&str, Vec<u8>, FastRx)> = vec![
            (
                "skipped_string_bad_escape",
                edit("\"LORA\"", r#""LO\qRA""#),
                expected,
            ),
            (
                "skipped_string_bad_unicode_escape",
                edit("\"LORA\"", r#""\uZZZZ""#),
                expected,
            ),
            (
                "skipped_string_invalid_utf8",
                {
                    let mut j = edit("\"LORA\"", "\"LO@RA\"");
                    let at = j.iter().position(|&c| c == b'@').expect("marker");
                    j[at] = 0xFF;
                    j
                },
                expected,
            ),
            (
                "skipped_number_wrong_type",
                edit("\"chan\":0", "\"chan\":-1.5"),
                expected,
            ),
            (
                "skipped_number_out_of_range",
                edit("\"rssi\":-95", "\"rssi\":1e999"),
                expected,
            ),
            (
                "skipped_object_only_balanced",
                edit("]}", "],\"stat\":{1:[}}"),
                expected,
            ),
            (
                "read_number_in_str_parse_grammar",
                edit("\"lsnr\":6.5", "\"lsnr\":+6.5"),
                expected,
            ),
            (
                "missing_members_default",
                format!(r#"{{"rxpk":[{{"tmst":1000000,"data":"{}"}}]}}"#, rx.data).into_bytes(),
                FastRx {
                    lsnr: 0.0,
                    trce: 0,
                    ..expected
                },
            ),
            // The decoder reads the first of two, a string where a
            // number belongs; the scanner skips both `rfch` and keeps
            // the last `tmst`.
            (
                "duplicate_member_last_wins",
                edit("[{", "[{\"tmst\":1,\"rfch\":\"x\","),
                expected,
            ),
            (
                "bytes_after_the_payload",
                [json.as_bytes(), b"garbage"].concat(),
                expected,
            ),
        ];
        for (reason, json, want) in cases {
            let wire = [&wire[..12], &json[..]].concat();
            assert_eq!(Datagram::decode(&wire), None, "{reason}");
            let (mut out, mut scratch) = (Vec::new(), Vec::new());
            let head = parse_push_data(&wire, &mut out, &mut scratch);
            assert_eq!(head.map(|h| h.count), Ok(1), "{reason}");
            assert_eq!(out[0], want, "{reason}");
        }
    }

    #[test]
    fn malformed_json_reports_offset_not_panic() {
        let mut wire = vec![2, 0, 1, 0];
        wire.extend_from_slice(&7u64.to_be_bytes());
        wire.extend_from_slice(br#"{"rxpk":[{"tmst":}]}"#);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        assert!(matches!(
            parse_push_data(&wire, &mut out, &mut scratch),
            Err(FastError::Json(_))
        ));
    }
}

/// The rebuilt parser against [`oracle`], and the exact-decimal path
/// against `str::parse`. Full size in release (CI's `benchmark` job),
/// scaled down under `debug_assertions` as `service_soak` is.
#[cfg(test)]
mod differential {
    use super::super::codec::{Datagram, GatewayEui, RxPacket};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const WIRES: usize = if cfg!(debug_assertions) {
        8_000
    } else {
        200_000
    };
    const DECIMALS: usize = if cfg!(debug_assertions) {
        50_000
    } else {
        1_000_000
    };

    /// The bytes the scanners branch on; mutations draw from these
    /// three times out of four, from all 256 otherwise.
    const STRUCTURAL: &[u8] = b"\"\\=+-.eE09,:{}[] tfn";

    fn rxpk(rng: &mut StdRng) -> RxPacket {
        // Data frames, join-request-shaped frames, and frames too short
        // to carry a DevAddr.
        let len = match rng.gen_range(0..4u8) {
            0 => 23,
            1 => rng.gen_range(0..12usize),
            _ => rng.gen_range(12..48usize),
        };
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        RxPacket {
            tmst: rng.gen_range(0..=u64::MAX) >> rng.gen_range(0..64u32),
            freq: rng.gen_range(137.0..1020.0),
            chan: rng.gen_range(0..64),
            rfch: rng.gen_range(0..2),
            stat: 1,
            modu: "LORA".into(),
            datr: "SF7BW125".into(),
            codr: "4/5".into(),
            rssi: rng.gen_range(-140..0),
            lsnr: rng.gen_range(-300..=150i64) as f64 / 10.0,
            size: len,
            data: b64::encode(&payload),
            trce: rng.gen_range(0..=u64::MAX) >> rng.gen_range(0..64u32),
        }
    }

    fn mutation_byte(rng: &mut StdRng) -> u8 {
        if rng.gen_bool(0.75) {
            STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
        } else {
            rng.gen_range(0..=255u8)
        }
    }

    /// Respell one number of the JSON from number bytes, so the number
    /// grammar is exercised far beyond what single-byte edits reach.
    fn respell_a_number(wire: &mut Vec<u8>, rng: &mut StdRng) {
        let starts: Vec<usize> = (13..wire.len())
            .filter(|&i| wire[i - 1] == b':' && (wire[i] == b'-' || wire[i].is_ascii_digit()))
            .collect();
        if starts.is_empty() {
            return;
        }
        let at = starts[rng.gen_range(0..starts.len())];
        let end = (at..wire.len())
            .find(|&i| !is_number_byte(wire[i]))
            .unwrap_or(wire.len());
        const SPELL: &[u8] = b"0123456789..eE+--";
        let text: Vec<u8> = (0..rng.gen_range(0..8usize))
            .map(|_| SPELL[rng.gen_range(0..SPELL.len())])
            .collect();
        wire.splice(at..end, text);
    }

    fn pick(at: &[usize], rng: &mut StdRng) -> Option<usize> {
        (!at.is_empty()).then(|| at[rng.gen_range(0..at.len())])
    }

    /// Where each key spelled `"name":` with a four-byte name starts:
    /// the keys the word path takes.
    fn word_keys(wire: &[u8]) -> Vec<usize> {
        (12..wire.len().saturating_sub(6))
            .filter(|&i| wire[i] == b'"' && wire[i + 5] == b'"' && wire[i + 6] == b':')
            .collect()
    }

    /// Put the members of one object in another order.
    fn shuffle_members(wire: &mut Vec<u8>, rng: &mut StdRng) {
        let opens: Vec<usize> = (13..wire.len()).filter(|&i| wire[i] == b'{').collect();
        let Some(open) = pick(&opens, rng) else {
            return;
        };
        let Some(close) = (open..wire.len()).find(|&i| wire[i] == b'}') else {
            return;
        };
        let mut members: Vec<&[u8]> = wire[open + 1..close].split(|&c| c == b',').collect();
        for k in (1..members.len()).rev() {
            members.swap(k, rng.gen_range(0..=k));
        }
        let body = members.join(&b',');
        wire.splice(open + 1..close, body);
    }

    /// Whitespace before and after some of the `:` and `,`.
    fn space_out(wire: &mut Vec<u8>, rng: &mut StdRng) {
        const WS: &[u8] = b" \t\n\r";
        let mut spaced = wire[..12].to_vec();
        for &c in &wire[12..] {
            let sep = c == b':' || c == b',';
            if sep && rng.gen_bool(0.3) {
                spaced.push(WS[rng.gen_range(0..WS.len())]);
            }
            spaced.push(c);
            if sep && rng.gen_bool(0.3) {
                spaced.push(WS[rng.gen_range(0..WS.len())]);
            }
        }
        *wire = spaced;
    }

    /// Respell one four-byte key: three or five letters, one letter as
    /// a `\u` escape, or a `"` or `\` in place of one.
    fn rename_a_key(wire: &mut Vec<u8>, rng: &mut StdRng) {
        let Some(key) = pick(&word_keys(wire), rng) else {
            return;
        };
        let letter = key + 1 + rng.gen_range(0..4usize);
        match rng.gen_range(0..4u8) {
            0 => {
                wire.remove(letter);
            }
            1 => wire.insert(letter, b'x'),
            2 => {
                let escape = format!("\\u{:04x}", wire[letter]);
                wire.splice(letter..=letter, escape.into_bytes());
            }
            _ => wire[letter] = if rng.gen_bool(0.5) { b'"' } else { b'\\' },
        }
    }

    /// Give one `tmst` or `trce` 15 to 21 digits: past the 16 taken a
    /// word at a time, and past what a `u64` holds. Now and then one
    /// of them is a byte from `:` to `?`, just above the digits.
    fn lengthen_a_counter(wire: &mut Vec<u8>, rng: &mut StdRng) {
        let counters: Vec<usize> = word_keys(wire)
            .into_iter()
            .filter(|&k| matches!(&wire[k + 1..k + 5], b"tmst" | b"trce"))
            .collect();
        let Some(key) = pick(&counters, rng) else {
            return;
        };
        let start = key + 7;
        let end = (start..wire.len())
            .find(|&i| !wire[i].is_ascii_digit())
            .unwrap_or(wire.len());
        let mut digits: Vec<u8> = (0..rng.gen_range(15..=21usize))
            .map(|_| b'0' + rng.gen_range(0..10u8))
            .collect();
        if rng.gen_bool(0.25) {
            let k = rng.gen_range(0..digits.len());
            digits[k] = b':' + rng.gen_range(0..6u8);
        }
        wire.splice(start..end, digits);
    }

    /// End the wire inside one key, where a word load runs past the end.
    fn cut_inside_a_key(wire: &mut Vec<u8>, rng: &mut StdRng) {
        if let Some(key) = pick(&word_keys(wire), rng) {
            wire.truncate(key + rng.gen_range(0..7usize));
        }
    }

    fn mutate(wire: &mut Vec<u8>, rng: &mut StdRng) {
        for _ in 0..rng.gen_range(0..=3u8) {
            let at = rng.gen_range(0..wire.len());
            match rng.gen_range(0..9u8) {
                0 => wire[at] = mutation_byte(rng),
                1 => wire.insert(at, mutation_byte(rng)),
                2 => {
                    if wire.len() > 1 {
                        wire.remove(at);
                    }
                }
                3 => respell_a_number(wire, rng),
                4 => shuffle_members(wire, rng),
                5 => space_out(wire, rng),
                6 => rename_a_key(wire, rng),
                7 => lengthen_a_counter(wire, rng),
                _ => cut_inside_a_key(wire, rng),
            }
        }
    }

    /// A [`FastRx`] with its SNR as bits, so equality is identity.
    type RxBits = (u64, u64, u64, Option<u32>, Option<u16>);

    fn bits(rxs: &[FastRx]) -> Vec<RxBits> {
        rxs.iter()
            .map(|r| (r.tmst, r.lsnr.to_bits(), r.trce, r.dev_addr, r.fcnt))
            .collect()
    }

    #[test]
    fn rebuilt_parser_equals_the_old_scanner_on_mutated_wires() {
        let mut rng = StdRng::seed_from_u64(0x0F45_7A11);
        let (mut new_out, mut old_out) = (Vec::new(), Vec::new());
        let (mut new_scratch, mut old_scratch) = (Vec::new(), Vec::new());
        let (mut oks, mut errs) = (0usize, 0usize);
        for case in 0..WIRES {
            let rxpk = (0..rng.gen_range(0..=3u8))
                .map(|_| rxpk(&mut rng))
                .collect();
            let mut wire = Datagram::PushData {
                token: rng.gen_range(0..=u16::MAX),
                eui: GatewayEui(rng.gen_range(0..=u64::MAX)),
                rxpk,
            }
            .encode();
            mutate(&mut wire, &mut rng);
            new_out.clear();
            old_out.clear();
            let new = parse_push_data(&wire, &mut new_out, &mut new_scratch);
            let old = oracle::parse_push_data(&wire, &mut old_out, &mut old_scratch);
            let shown = String::from_utf8_lossy(&wire);
            assert_eq!(new, old, "case {case}: {shown}");
            // Also what an `Err` leaves behind in the caller's vector.
            assert_eq!(bits(&new_out), bits(&old_out), "case {case}: {shown}");
            match new {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
        assert!(oks * 10 >= WIRES, "only {oks} of {WIRES} wires parsed");
        assert!(
            errs * 10 >= WIRES,
            "only {errs} of {WIRES} wires were rejected"
        );
    }

    fn scanner(text: &str) -> Scanner<'_> {
        Scanner {
            b: text.as_bytes(),
            i: 0,
        }
    }

    fn lsnr_of(text: &str) -> Result<f64, FastError> {
        scanner(text).parse_f64()
    }

    #[test]
    fn exact_decimals_equal_str_parse_by_bits() {
        let mut rng = StdRng::seed_from_u64(0xDEC1_3A15);
        for _ in 0..DECIMALS {
            let int_digits = rng.gen_range(1..=15usize);
            let frac_digits = rng.gen_range(0..=15 - int_digits);
            let mut text = String::new();
            if rng.gen_bool(0.5) {
                text.push('-');
            }
            for _ in 0..int_digits {
                text.push((b'0' + rng.gen_range(0..10u8)) as char);
            }
            if frac_digits > 0 {
                text.push('.');
                for _ in 0..frac_digits {
                    text.push((b'0' + rng.gen_range(0..10u8)) as char);
                }
            }
            let mut s = scanner(&text);
            let exact = s.exact_decimal().expect("within the exact path");
            assert_eq!(s.i, text.len(), "{text}");
            let reference: f64 = text.parse().expect("a decimal");
            assert_eq!(exact.to_bits(), reference.to_bits(), "{text}");
        }
    }

    #[test]
    fn spellings_outside_the_exact_path_fall_through_to_str_parse() {
        for text in [
            "1234567890123456",
            "0.1234567890123456",
            "1e3",
            "-2.5E-3",
            "+5",
            ".5",
            "5.",
            "-.5",
        ] {
            assert_eq!(scanner(text).exact_decimal(), None, "{text}");
            let reference: f64 = text.parse().expect("str::parse takes it");
            assert_eq!(lsnr_of(text).map(f64::to_bits), Ok(reference.to_bits()));
        }
        for text in ["", "-", ".", "+", "1e", "1.2.3", "1-2", "--1", "e5"] {
            assert_eq!(lsnr_of(text), Err(FastError::Json(0)), "{text:?}");
        }
        assert_eq!(lsnr_of("-0.0").map(f64::to_bits), Ok((-0.0f64).to_bits()));
    }
}

#[cfg(test)]
mod proptests {
    use super::super::codec::{Datagram, GatewayEui, RxPacket};
    use super::*;
    use proptest::prelude::*;

    fn arb_rxpk() -> impl Strategy<Value = RxPacket> {
        (
            any::<u64>(),
            137.0f64..1020.0,
            -140i32..0,
            -300i64..150,
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(tmst, freq, rssi, lsnr_tenths, trce, payload)| RxPacket {
                tmst,
                freq,
                chan: 0,
                rfch: 0,
                stat: 1,
                modu: "LORA".into(),
                datr: "SF7BW125".into(),
                codr: "4/5".into(),
                rssi,
                lsnr: lsnr_tenths as f64 / 10.0,
                size: payload.len(),
                data: super::super::b64::encode(&payload),
                trce,
            })
    }

    proptest! {
        /// The fast parser agrees with the reference codec decoder on
        /// every field it extracts, for arbitrary codec-generated
        /// datagrams.
        #[test]
        fn agrees_with_reference_decoder(
            token in any::<u16>(),
            eui in any::<u64>(),
            rxpk in proptest::collection::vec(arb_rxpk(), 0..5),
        ) {
            use lora_mac::frame::PhyPayload;
            let d = Datagram::PushData { token, eui: GatewayEui(eui), rxpk };
            let wire = d.encode();
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            let hdr = parse_push_data(&wire, &mut out, &mut scratch).unwrap();
            let reference = match Datagram::decode(&wire) {
                Some(Datagram::PushData { token, eui, rxpk }) => (token, eui, rxpk),
                other => panic!("reference decoder failed: {other:?}"),
            };
            prop_assert_eq!(hdr.token, reference.0);
            prop_assert_eq!(hdr.eui, reference.1.0);
            prop_assert_eq!(out.len(), reference.2.len());
            for (fast, slow) in out.iter().zip(&reference.2) {
                prop_assert_eq!(fast.tmst, slow.tmst);
                prop_assert_eq!(fast.lsnr, slow.lsnr);
                prop_assert_eq!(fast.trce, slow.trce);
                let payload = slow.phy_payload().expect("codec payload decodes");
                prop_assert_eq!(fast.dev_addr, PhyPayload::peek_dev_addr(&payload).map(|a| a.0));
                prop_assert_eq!(fast.fcnt, PhyPayload::peek_fcnt(&payload));
            }
        }

        /// Arbitrary bytes never panic the fast parser.
        #[test]
        fn fuzz_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            let _ = parse_push_data(&bytes, &mut out, &mut scratch);
        }
    }
}
