//! AES-CMAC (RFC 4493) — the MAC behind the LoRaWAN frame MIC.

use crate::aes::Aes128;

/// Generate the CMAC subkeys K1, K2 from `L = AES(K, 0)` (RFC 4493
/// §2.3): each is the one before doubled in GF(2^128), a one-bit left
/// shift of the big-endian value with `Rb = 0x87` folded in when the
/// top bit falls off.
fn subkeys(aes: &Aes128) -> ([u8; 16], [u8; 16]) {
    const RB: u128 = 0x87;
    let double = |v: u128| (v << 1) ^ ((v >> 127) * RB);
    let k1 = double(u128::from_be_bytes(aes.encrypt(&[0u8; 16])));
    (k1.to_be_bytes(), double(k1).to_be_bytes())
}

/// The AES-CMAC of the concatenation of `parts` under `key`, fed part
/// by part: no part is copied into a joined message.
fn cmac(key: &[u8; 16], parts: &[&[u8]]) -> [u8; 16] {
    let aes = Aes128::new(key);
    let (k1, k2) = subkeys(&aes);
    // `x` is the CBC chain with the first `fill` bytes of the current
    // block XOR-ed in; a full block is encrypted only once a further
    // byte shows it is not the last.
    let mut x = [0u8; 16];
    let mut fill = 0;
    for part in parts {
        let mut rest = *part;
        while !rest.is_empty() {
            if fill == 16 {
                aes.encrypt_block(&mut x);
                fill = 0;
            }
            let n = rest.len().min(16 - fill);
            for (a, b) in x[fill..fill + n].iter_mut().zip(&rest[..n]) {
                *a ^= b;
            }
            fill += n;
            rest = &rest[n..];
        }
    }
    // Last block: XOR with K1 (complete) or padded + K2 (incomplete,
    // the empty message included).
    let mask = if fill == 16 {
        k1
    } else {
        x[fill] ^= 0x80;
        k2
    };
    for (a, b) in x.iter_mut().zip(mask) {
        *a ^= b;
    }
    aes.encrypt_block(&mut x);
    x
}

/// The full 16-byte AES-CMAC of `msg` under `key`.
#[cfg(test)]
fn aes_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
    cmac(key, &[msg])
}

/// The LoRaWAN MIC: the first four bytes of the CMAC of the
/// concatenation of `parts`.
pub fn mic(key: &[u8; 16], parts: &[&[u8]]) -> [u8; 4] {
    let full = cmac(key, parts);
    [full[0], full[1], full[2], full[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    /// RFC 4493 Example 1: empty message.
    #[test]
    fn rfc4493_example1() {
        let expected = [
            0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
            0x67, 0x46,
        ];
        assert_eq!(aes_cmac(&KEY, &[]), expected);
    }

    /// RFC 4493 Example 2: 16-byte message.
    #[test]
    fn rfc4493_example2() {
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
            0x28, 0x7c,
        ];
        assert_eq!(aes_cmac(&KEY, &msg), expected);
    }

    /// RFC 4493 Example 3: 40-byte message.
    #[test]
    fn rfc4493_example3() {
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11,
        ];
        let expected = [
            0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
            0xc8, 0x27,
        ];
        assert_eq!(aes_cmac(&KEY, &msg), expected);
    }

    /// RFC 4493 Example 4: 64-byte message.
    #[test]
    fn rfc4493_example4() {
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb,
            0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
            0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
        ];
        let expected = [
            0x51, 0xf0, 0xbe, 0xbf, 0x7e, 0x3b, 0x9d, 0x92, 0xfc, 0x49, 0x74, 0x17, 0x79, 0x36,
            0x3c, 0xfe,
        ];
        assert_eq!(aes_cmac(&KEY, &msg), expected);
    }

    #[test]
    fn mic_is_cmac_prefix() {
        let msg = b"lorawan frame bytes";
        let full = aes_cmac(&KEY, msg);
        assert_eq!(mic(&KEY, &[&msg[..7], &msg[7..]]), full[..4]);
    }

    #[test]
    fn cmac_distinguishes_messages() {
        assert_ne!(aes_cmac(&KEY, b"aaaa"), aes_cmac(&KEY, b"aaab"));
    }

    /// RFC 4493 §4 subkey generation (L = AES-128(K, 0)).
    #[test]
    fn rfc4493_subkeys() {
        let (k1, k2) = subkeys(&Aes128::new(&KEY));
        assert_eq!(
            k1,
            [
                0xfb, 0xee, 0xd6, 0x18, 0x35, 0x71, 0x33, 0x66, 0x7c, 0x85, 0xe0, 0x8f, 0x72, 0x36,
                0xa8, 0xde,
            ]
        );
        assert_eq!(
            k2,
            [
                0xf7, 0xdd, 0xac, 0x30, 0x6a, 0xe2, 0x66, 0xcc, 0xf9, 0x0b, 0xc1, 0x1e, 0xe4, 0x6d,
                0x51, 0x3b,
            ]
        );
    }

    #[test]
    fn padding_is_not_ambiguous() {
        // An incomplete block is padded with 0x80 and masked with K2; a
        // message that already ends in that padding, or fills the block,
        // is masked with K1 — the two must never collide.
        for len in [0usize, 3, 15] {
            let msg: Vec<u8> = (0..len as u8).collect();
            let mut padded = msg.clone();
            padded.push(0x80);
            padded.resize(16, 0);
            assert_ne!(aes_cmac(&KEY, &msg), aes_cmac(&KEY, &padded), "len {len}");
        }
    }

    #[test]
    fn complete_blocks_are_cbc_mac_with_k1_on_the_last() {
        let msg: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(37));
        let aes = Aes128::new(&KEY);
        let (k1, _) = subkeys(&aes);
        let mut x: [u8; 16] = core::array::from_fn(|i| msg[i]);
        aes.encrypt_block(&mut x);
        for i in 0..16 {
            x[i] ^= msg[16 + i] ^ k1[i];
        }
        aes.encrypt_block(&mut x);
        assert_eq!(aes_cmac(&KEY, &msg), x);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::aes::oracle;
    use proptest::prelude::*;

    /// Left-shift a 16-byte big-endian value by one bit.
    fn shl1(input: &[u8; 16]) -> [u8; 16] {
        let mut out = [0u8; 16];
        let mut carry = 0u8;
        for i in (0..16).rev() {
            out[i] = (input[i] << 1) | carry;
            carry = input[i] >> 7;
        }
        out
    }

    /// RFC 4493 §2.4 over the byte-wise oracle cipher: the message
    /// joined into one buffer, padded, and CBC-MAC-ed block by block.
    fn oracle_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
        let rk = oracle::expand(key);
        let l = oracle::encrypt(&rk, &[0; 16]);
        let mut k1 = shl1(&l);
        if l[0] & 0x80 != 0 {
            k1[15] ^= 0x87;
        }
        let mut k2 = shl1(&k1);
        if k1[0] & 0x80 != 0 {
            k2[15] ^= 0x87;
        }
        let n = msg.len().div_ceil(16).max(1);
        let complete = !msg.is_empty() && msg.len().is_multiple_of(16);
        let mut last = [0u8; 16];
        let tail = &msg[(n - 1) * 16..];
        last[..tail.len()].copy_from_slice(tail);
        let mask = if complete {
            k1
        } else {
            last[tail.len()] = 0x80;
            k2
        };
        let mut x = [0u8; 16];
        for block in msg.chunks(16).take(n - 1) {
            for i in 0..16 {
                x[i] ^= block[i];
            }
            x = oracle::encrypt(&rk, &x);
        }
        for i in 0..16 {
            x[i] ^= last[i] ^ mask[i];
        }
        oracle::encrypt(&rk, &x)
    }

    proptest! {
        /// `aes_cmac` over 0–64 bytes, and the MIC fed the same bytes
        /// in two parts split anywhere, equal a CMAC built on the
        /// byte-wise oracle cipher.
        #[test]
        fn cmac_matches_one_built_on_the_oracle(
            key in proptest::collection::vec(any::<u8>(), 16..17),
            msg in proptest::collection::vec(any::<u8>(), 0..65),
            cut in any::<usize>(),
        ) {
            let key: [u8; 16] = key.try_into().expect("a 16-byte vector");
            let want = oracle_cmac(&key, &msg);
            prop_assert_eq!(aes_cmac(&key, &msg), want);
            let (head, tail) = msg.split_at(cut % (msg.len() + 1));
            prop_assert_eq!(mic(&key, &[head, tail]), [want[0], want[1], want[2], want[3]]);
        }
    }
}
