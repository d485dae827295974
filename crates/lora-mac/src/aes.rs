//! AES-128 block cipher, implemented from the FIPS-197 specification.
//!
//! LoRaWAN data frames need only AES-128 *encryption*: the MIC is
//! AES-CMAC ([`crate::cmac`]) and payload confidentiality is a
//! CTR-style construction. The inverse cipher serves only the OTAA
//! JoinAccept, which this crate does not model, so it is not here.
//!
//! The cipher works on the state as four big-endian column words.
//! Key expansion runs word by word (FIPS-197 §5.2). Each of the nine
//! full rounds is sixteen lookups into four 1 KiB tables, built at
//! compile time from the S-box, that fold SubBytes, ShiftRows and
//! MixColumns into one step (the "T-table" form of §5.1); the last
//! round indexes the S-box itself. Table indices are state bytes, so
//! which cache lines are touched depends on the key and data, as it
//! did when the S-box alone was indexed byte by byte: this cipher makes
//! no constant-time claim, which is fine for a simulator and a network
//! server whose keys are derived for the experiment. The byte-wise
//! FIPS-197 cipher it replaced stays as the test oracle `oracle`.

/// AES S-box (FIPS-197 Fig. 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
#[inline]
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (if a & 0x80 != 0 { 0x1b } else { 0 })
}

/// `TE[r][x]`: the column word one state byte `x` in row `r`
/// contributes to a full round, SubBytes and MixColumns applied:
/// `TE[0][x]` is `(2·S[x], S[x], S[x], 3·S[x])` from the most
/// significant byte down, and `TE[r]` is `TE[0]` rotated right by `8r`
/// bits.
const TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let w = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        te[0][x] = w;
        te[1][x] = w.rotate_right(8);
        te[2][x] = w.rotate_right(16);
        te[3][x] = w.rotate_right(24);
        x += 1;
    }
    te
};

/// SubWord: the S-box applied to each byte of a word.
#[inline]
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

/// Round key `r + 1` from round key `r`, as column words. Word `i` of
/// the schedule is word `i - 1` XOR word `i - 4`, with RotWord,
/// SubWord and Rcon applied to word `i - 1` when `i` is a multiple of
/// four; unrolled over a round key, its word `j` is `t` XOR the first
/// `j + 1` words of the one before, prefixes that need not wait for
/// `t`.
#[inline]
fn next_round_key(w: [u32; 4], rcon: u8) -> [u32; 4] {
    let t = sub_word(w[3].rotate_left(8)) ^ ((rcon as u32) << 24);
    let p1 = w[0] ^ w[1];
    let p2 = p1 ^ w[2];
    [w[0] ^ t, p1 ^ t, p2 ^ t, p2 ^ w[3] ^ t]
}

/// One of the nine full rounds: output column `c` takes row `r` from
/// input column `c + r` (ShiftRows), each row through its table
/// (SubBytes and MixColumns), then the round key.
#[inline]
fn full_round(s: [u32; 4], k: [u32; 4]) -> [u32; 4] {
    std::array::from_fn(|c| {
        TE[0][(s[c] >> 24) as usize]
            ^ TE[1][(s[(c + 1) % 4] >> 16) as usize & 0xff]
            ^ TE[2][(s[(c + 2) % 4] >> 8) as usize & 0xff]
            ^ TE[3][s[(c + 3) % 4] as usize & 0xff]
            ^ k[c]
    })
}

/// The last round, which has no MixColumns, as the output block.
#[inline]
fn last_round(s: [u32; 4], k: [u32; 4]) -> [u8; 16] {
    column_bytes(std::array::from_fn(|c| {
        u32::from_be_bytes([
            SBOX[(s[c] >> 24) as usize],
            SBOX[(s[(c + 1) % 4] >> 16) as usize & 0xff],
            SBOX[(s[(c + 2) % 4] >> 8) as usize & 0xff],
            SBOX[s[(c + 3) % 4] as usize & 0xff],
        ]) ^ k[c]
    }))
}

/// An expanded AES-128 key (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expand a 16-byte key, one round key of four words at a time.
    pub fn new(key: &[u8; 16]) -> Aes128 {
        let mut w = column_words(key);
        let mut round_keys = [*key; 11];
        for (rk, rcon) in round_keys[1..].iter_mut().zip(RCON) {
            w = next_round_key(w, rcon);
            *rk = column_bytes(w);
        }
        Aes128 { round_keys }
    }

    /// Round key `round` as four big-endian column words.
    #[inline]
    fn key_words(&self, round: usize) -> [u32; 4] {
        column_words(&self.round_keys[round])
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let b = column_words(block);
        let k = self.key_words(0);
        let mut s: [u32; 4] = std::array::from_fn(|c| b[c] ^ k[c]);
        for round in 1..10 {
            s = full_round(s, self.key_words(round));
        }
        *block = last_round(s, self.key_words(10));
    }

    /// Encrypt a copy of the block.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// The four columns of a 16-byte block as big-endian words.
#[inline]
fn column_words(block: &[u8; 16]) -> [u32; 4] {
    std::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

/// Four big-endian column words as a 16-byte block.
#[inline]
fn column_bytes(w: [u32; 4]) -> [u8; 16] {
    std::array::from_fn(|i| w[i / 4].to_be_bytes()[i % 4])
}

/// The byte-wise FIPS-197 cipher (S-box lookup plus explicit
/// MixColumns arithmetic) that [`Aes128`] replaced, kept verbatim as
/// the oracle the word-oriented one is tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{xtime, RCON, SBOX};

    /// Expand a 16-byte key into 11 round keys, byte by byte.
    pub(crate) fn expand(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = *key;
        for round in 1..11 {
            let prev = rk[round - 1];
            let mut w = [prev[12], prev[13], prev[14], prev[15]];
            // RotWord + SubWord + Rcon
            w.rotate_left(1);
            for b in &mut w {
                *b = SBOX[*b as usize];
            }
            w[0] ^= RCON[round - 1];
            for i in 0..4 {
                rk[round][i] = prev[i] ^ w[i];
            }
            for i in 4..16 {
                rk[round][i] = prev[i] ^ rk[round][i - 4];
            }
        }
        rk
    }

    /// Encrypt one block under expanded round keys.
    pub(crate) fn encrypt(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        add_round_key(&mut state, &round_keys[0]);
        for rk in &round_keys[1..10] {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, rk);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &round_keys[10]);
        state
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: byte `r + 4c` is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: shift left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: shift left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: shift left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let i = 4 * c;
            let (a0, a1, a2, a3) = (state[i], state[i + 1], state[i + 2], state[i + 3]);
            let all = a0 ^ a1 ^ a2 ^ a3;
            state[i] = a0 ^ all ^ xtime(a0 ^ a1);
            state[i + 1] = a1 ^ all ^ xtime(a1 ^ a2);
            state[i + 2] = a2 ^ all ^ xtime(a2 ^ a3);
            state[i + 3] = a3 ^ all ^ xtime(a3 ^ a0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt(&plain), expected);
    }

    /// FIPS-197 Appendix C.1 (key 000102…0f, plaintext 00112233…ff).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(&key).encrypt(&plain), expected);
    }

    #[test]
    fn encrypt_is_deterministic_and_key_sensitive() {
        let k1 = [0u8; 16];
        let mut k2 = [0u8; 16];
        k2[15] = 1;
        let block = [0x42u8; 16];
        let c1 = Aes128::new(&k1).encrypt(&block);
        let c1b = Aes128::new(&k1).encrypt(&block);
        let c2 = Aes128::new(&k2).encrypt(&block);
        assert_eq!(c1, c1b);
        assert_ne!(c1, c2);
    }

    #[test]
    fn xtime_reference() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
    }

    /// FIPS-197 Appendix A.1: the last round key (w40..w43) expanded
    /// from the Appendix B key.
    #[test]
    fn fips197_appendix_a1_last_round_key() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.round_keys[0], key);
        assert_eq!(
            aes.round_keys[10],
            [
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6,
            ]
        );
    }

    /// The all-zero key and block (NIST AESAVS GFSbox/KAT baseline).
    #[test]
    fn zero_key_zero_block() {
        assert_eq!(
            Aes128::new(&[0; 16]).encrypt(&[0; 16]),
            [
                0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
                0x2b, 0x2e,
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn block() -> impl Strategy<Value = [u8; 16]> {
        proptest::collection::vec(any::<u8>(), 16..17)
            .prop_map(|v| v.try_into().expect("a 16-byte vector"))
    }

    proptest! {
        /// The word-oriented key expansion and cipher equal the
        /// byte-wise FIPS-197 oracle on arbitrary keys and blocks.
        #[test]
        fn word_cipher_matches_the_byte_wise_oracle(key in block(), plain in block()) {
            let aes = Aes128::new(&key);
            let round_keys = oracle::expand(&key);
            prop_assert_eq!(aes.round_keys, round_keys);
            prop_assert_eq!(aes.encrypt(&plain), oracle::encrypt(&round_keys, &plain));
        }
    }
}
