//! Property-based tests for the PKI substrate: algebraic laws for the
//! big-integer arithmetic that RSA correctness depends on, the kernels
//! (Montgomery exponentiation, block-wise digests and cipher, keyed HMAC
//! midstates) against definitions built from public operations, and
//! round-trip laws for DNs and certificates. Each property is a search on
//! the shared runner: seed `n` is its case `n`, replayed alone by
//! `SEARCH_SEED=<n>`.

use clarens_search::{search, Rng};

use clarens_pki::bigint::BigUint;
use clarens_pki::dn::DistinguishedName;

/// Check property `test` of this file on seeds `0..cases`.
fn property(test: &str, cases: u64, check: impl Fn(&mut Rng) + Sync) {
    let name = format!("clarens-pki --test properties -- --exact {test}");
    search(&name, 0..cases, |seed| {
        check(&mut Rng::new(seed));
        Ok(())
    });
}

/// A number of fewer than `max_bytes` big-endian bytes.
fn biguint(rng: &mut Rng, max_bytes: usize) -> BigUint {
    BigUint::from_bytes_be(&rng.bytes(0..max_bytes))
}

/// Up to `max` non-control chars: 16 in 20 printable ASCII, then Latin-1,
/// Cyrillic and wider ones.
fn printable(rng: &mut Rng, max: u64) -> String {
    (0..rng.pick(0, max))
        .map(|_| match rng.below(20) {
            0..=15 => rng.char(&[' '..='~']),
            16 | 17 => rng.char(&['¡'..='ÿ']),
            18 => rng.char(&['А'..='я']),
            _ => *rng.choose(&['§', '€', '→', '中', '𝒳']),
        })
        .collect()
}

/// `(tag, value)` pairs for `/tag=value` DN text, `len` of them.
fn components(
    rng: &mut Rng,
    len: std::ops::RangeInclusive<u64>,
    tag: &[&str],
    value: impl Fn(&mut Rng) -> String,
) -> Vec<(String, String)> {
    (0..rng.pick(*len.start(), *len.end()))
        .map(|_| (rng.choose(tag).to_string(), value(rng)))
        .collect()
}

#[test]
fn add_commutative() {
    property("add_commutative", 64, |rng| {
        let (a, b) = (biguint(rng, 40), biguint(rng, 40));
        assert_eq!(a.add(&b), b.add(&a));
    });
}

#[test]
fn add_associative() {
    property("add_associative", 64, |rng| {
        let (a, b, c) = (biguint(rng, 24), biguint(rng, 24), biguint(rng, 24));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    });
}

#[test]
fn mul_commutative() {
    property("mul_commutative", 64, |rng| {
        let (a, b) = (biguint(rng, 32), biguint(rng, 32));
        assert_eq!(a.mul(&b), b.mul(&a));
    });
}

#[test]
fn mul_distributes_over_add() {
    property("mul_distributes_over_add", 64, |rng| {
        let (a, b, c) = (biguint(rng, 20), biguint(rng, 20), biguint(rng, 20));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    });
}

#[test]
fn add_sub_inverse() {
    property("add_sub_inverse", 64, |rng| {
        let (a, b) = (biguint(rng, 40), biguint(rng, 40));
        assert_eq!(a.add(&b).sub(&b), a);
    });
}

#[test]
fn divrem_identity() {
    property("divrem_identity", 64, |rng| {
        let (a, b) = (biguint(rng, 48), biguint(rng, 24));
        let b = if b.is_zero() { BigUint::one() } else { b };
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r < b);
    });
}

#[test]
fn shift_roundtrip() {
    property("shift_roundtrip", 64, |rng| {
        let (a, bits) = (biguint(rng, 32), rng.below(200));
        assert_eq!(a.shl(bits).shr(bits), a);
    });
}

#[test]
fn bytes_roundtrip() {
    property("bytes_roundtrip", 64, |rng| {
        let a = biguint(rng, 48);
        assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    });
}

#[test]
fn hex_roundtrip() {
    property("hex_roundtrip", 64, |rng| {
        let a = biguint(rng, 48);
        assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    });
}

#[test]
fn modpow_product_law() {
    property("modpow_product_law", 64, |rng| {
        let (a, e1, e2, m) = (
            biguint(rng, 16),
            rng.pick(0, 49),
            rng.pick(0, 49),
            biguint(rng, 16),
        );
        // a^(e1+e2) == a^e1 * a^e2 (mod m)
        let m = if m.is_zero() || m.is_one() {
            BigUint::from_u64(97)
        } else {
            m
        };
        let lhs = a.modpow(&BigUint::from_u64(e1 + e2), &m);
        let rhs = a
            .modpow(&BigUint::from_u64(e1), &m)
            .mulmod(&a.modpow(&BigUint::from_u64(e2), &m), &m);
        assert_eq!(lhs, rhs);
    });
}

/// `modpow` (Montgomery for an odd modulus) against a square-and-multiply
/// ladder over `mulmod` (schoolbook product, Knuth division): odd moduli
/// of 1–17 limbs, bases past the modulus, both sides of the window
/// switch at 64 exponent bits.
#[test]
fn modpow_matches_a_mulmod_ladder() {
    property("modpow_matches_a_mulmod_ladder", 64, |rng| {
        let (base, exponent) = (biguint(rng, 290), biguint(rng, 20));
        let (modulus, odd) = (biguint(rng, 137), rng.chance(50));
        let modulus = if odd {
            modulus.add(&modulus).add(&BigUint::one())
        } else {
            modulus
        };
        let modulus = if modulus.is_zero() {
            BigUint::from_u64(2)
        } else {
            modulus
        };
        let mut expect = BigUint::one().rem(&modulus);
        for i in (0..exponent.bit_length()).rev() {
            expect = expect.mulmod(&expect, &modulus);
            if exponent.bit(i) {
                expect = expect.mulmod(&base, &modulus);
            }
        }
        assert_eq!(base.modpow(&exponent, &modulus), expect.clone());
        let prepared = clarens_pki::bigint::Modulus::new(modulus.clone());
        assert_eq!(prepared.pow(&base, &exponent), expect);
        assert_eq!(
            prepared.mul(&base, &exponent),
            base.mulmod(&exponent, &modulus)
        );
    });
}

#[test]
fn rem_u64_matches_rem() {
    property("rem_u64_matches_rem", 64, |rng| {
        let (a, d) = (biguint(rng, 80), rng.pick(1, u64::MAX));
        assert_eq!(
            BigUint::from_u64(a.rem_u64(d)),
            a.rem(&BigUint::from_u64(d))
        );
    });
}

#[test]
fn gcd_divides_both() {
    property("gcd_divides_both", 64, |rng| {
        let (a, b) = (biguint(rng, 16), biguint(rng, 16));
        let g = a.gcd(&b);
        if !g.is_zero() {
            assert!(a.rem(&g).is_zero());
            assert!(b.rem(&g).is_zero());
        } else {
            // gcd(0,0) = 0
            assert!(a.is_zero() && b.is_zero());
        }
    });
}

#[test]
fn dn_roundtrip() {
    property("dn_roundtrip", 64, |rng| {
        // Values avoid leading/trailing spaces: the parser trims the whole
        // line, so edge whitespace is not preserved (matching OpenSSL;
        // `dn::tests::edge_spaces_do_not_round_trip`).
        let edge = [
            'A'..='Z',
            'a'..='z',
            '0'..='9',
            '.'..='.',
            '_'..='_',
            '@'..='@',
            '-'..='-',
        ];
        let inner = [&edge[..], &[' '..=' ']].concat();
        let tags = ["C", "ST", "L", "O", "OU", "CN", "DC"];
        let components = components(rng, 1..=4, &tags, |rng| {
            let mut value = String::from(rng.char(&edge));
            if rng.chance(50) {
                value += &rng.string(&inner, 0..11);
                value.push(rng.char(&edge));
            }
            value
        });
        let text: String = components
            .iter()
            .map(|(tag, value)| format!("/{tag}={value}"))
            .collect();
        let dn = DistinguishedName::parse(&text).unwrap();
        assert_eq!(dn.to_string(), text);
        let reparsed = DistinguishedName::parse(&dn.to_string()).unwrap();
        assert_eq!(reparsed, dn);
    });
}

#[test]
fn dn_prefix_of_extension() {
    property("dn_prefix_of_extension", 64, |rng| {
        let alphabet = ['A'..='Z', 'a'..='z', '0'..='9', ' '..=' '];
        let base = components(rng, 1..=3, &["O", "OU", "CN"], |rng| {
            rng.string(&alphabet, 1..9)
        });
        let extra = rng.string(&alphabet, 1..9);
        let text: String = base.iter().map(|(t, v)| format!("/{t}={v}")).collect();
        let dn = DistinguishedName::parse(&text).unwrap();
        let extended = dn.with_component(clarens_pki::dn::AttributeType::CommonName, extra);
        assert!(extended.has_prefix(&dn));
        // A strict extension is never a prefix of its base.
        assert!(!dn.has_prefix(&extended));
    });
}

#[test]
fn dn_parser_never_panics() {
    property("dn_parser_never_panics", 64, |rng| {
        let _ = DistinguishedName::parse(&printable(rng, 40));
    });
}

#[test]
fn sha256_length_and_determinism() {
    property("sha256_length_and_determinism", 64, |rng| {
        let data = rng.bytes(0..300);
        let d1 = clarens_pki::sha256::sha256(&data);
        let d2 = clarens_pki::sha256::sha256(&data);
        assert_eq!(d1, d2);
        assert_eq!(d1.len(), 32);
    });
}

/// Up to seven cut lengths in `1..limit`.
fn cuts(rng: &mut Rng, limit: u64) -> Vec<usize> {
    (0..rng.below(8))
        .map(|_| rng.pick(1, limit - 1) as usize)
        .collect()
}

/// However a message is cut into `update` calls, the digest is the
/// one-shot digest.
#[test]
fn digests_do_not_depend_on_the_chunking() {
    property("digests_do_not_depend_on_the_chunking", 64, |rng| {
        let (data, cuts) = (rng.bytes(0..600), cuts(rng, 200));
        let mut md5 = clarens_pki::md5::Md5::new();
        let mut sha = clarens_pki::sha256::Sha256::new();
        let mut rest = &data[..];
        for cut in cuts {
            let (piece, after) = rest.split_at(cut.min(rest.len()));
            md5.update(piece);
            sha.update(piece);
            rest = after;
        }
        md5.update(rest);
        sha.update(rest);
        assert_eq!(md5.finalize(), clarens_pki::md5::md5(&data));
        assert_eq!(sha.finalize(), clarens_pki::sha256::sha256(&data));
    });
}

/// MD5 fed in pieces ≡ RFC 1321's loop over the padded message, on lengths
/// up to 1 000 bytes; one case in four is a length where the padding
/// changes shape (55/56 and 119/120 bytes: the length fits the block or
/// spills into the next; 63/64: a block with no room for the 0x80).
#[test]
fn md5_matches_the_reference() {
    property("md5_matches_the_reference", 256, |rng| {
        let len = match rng.chance(25) {
            true => *rng.choose(&[55, 56, 63, 64, 119, 120]),
            false => rng.pick(0, 1000) as usize,
        };
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut splits: Vec<usize> = (0..rng.below(6))
            .map(|_| rng.pick(0, len as u64) as usize)
            .collect();
        splits.sort_unstable();
        let mut md5 = clarens_pki::md5::Md5::new();
        let mut from = 0;
        for at in splits.into_iter().chain([len]) {
            md5.update(&data[from..at]);
            from = at;
        }
        let expect = clarens_pki::fuzz::reference_md5(&data);
        assert_eq!(md5.finalize(), expect, "{len} bytes");
    });
}

/// The keyed-midstate HMAC against RFC 2104's definition spelled with
/// the one-shot hash, and a clone of a keyed value against a fresh one.
#[test]
fn hmac_matches_its_definition() {
    property("hmac_matches_its_definition", 64, |rng| {
        use clarens_pki::hmac::{hmac_sha256, HmacSha256};
        use clarens_pki::sha256::sha256;
        let (key, message) = (rng.bytes(0..200), rng.bytes(0..300));
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&sha256(&key));
        } else {
            block[..key.len()].copy_from_slice(&key);
        }
        let mut inner = block.map(|b| b ^ 0x36).to_vec();
        inner.extend_from_slice(&message);
        let mut outer = block.map(|b| b ^ 0x5c).to_vec();
        outer.extend_from_slice(&sha256(&inner));
        let expect = sha256(&outer);
        assert_eq!(hmac_sha256(&key, &message), expect);

        let keyed = HmacSha256::new(&key);
        for _ in 0..2 {
            let mut mac = keyed.clone();
            let (front, back) = message.split_at(message.len() / 3);
            mac.update(front);
            mac.update(back);
            assert_eq!(mac.finalize(), expect);
        }
    });
}

/// A ChaCha20 key of 32 independent bytes.
fn key(rng: &mut Rng) -> [u8; 32] {
    std::array::from_fn(|_| rng.next_u64() as u8)
}

/// However a stream is cut into `apply` calls, it is the one-shot
/// stream — block counters next to the wrap included.
#[test]
fn chacha20_does_not_depend_on_the_chunking() {
    property("chacha20_does_not_depend_on_the_chunking", 64, |rng| {
        let (data, cuts, key, back) = (rng.bytes(0..700), cuts(rng, 260), key(rng), rng.below(4));
        let (nonce, counter) = ([5u8; 12], u32::MAX - back as u32);
        let mut expect = data.clone();
        clarens_pki::chacha20::xor_stream(&key, &nonce, counter, &mut expect);
        let mut cipher = clarens_pki::chacha20::ChaCha20::new(&key, &nonce, counter);
        let mut got = data.clone();
        let mut rest = &mut got[..];
        for cut in cuts {
            let (piece, after) = rest.split_at_mut(cut.min(rest.len()));
            cipher.apply(piece);
            rest = after;
        }
        cipher.apply(rest);
        assert_eq!(got, expect);
    });
}

#[test]
fn chacha20_involution() {
    property("chacha20_involution", 64, |rng| {
        let (data, key, counter) = (rng.bytes(0..300), key(rng), rng.next_u64() as u32);
        let nonce = [9u8; 12];
        let mut buf = data.clone();
        clarens_pki::chacha20::xor_stream(&key, &nonce, counter, &mut buf);
        clarens_pki::chacha20::xor_stream(&key, &nonce, counter, &mut buf);
        assert_eq!(buf, data);
    });
}

/// RSA round-trips are expensive with fresh keys; use one shared key pair
/// across all cases.
mod rsa_props {
    use super::*;
    use clarens_pki::rsa;
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::OnceLock;

    fn shared_keypair() -> &'static rsa::KeyPair {
        static KP: OnceLock<rsa::KeyPair> = OnceLock::new();
        KP.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0xC1A2E5);
            rsa::generate(&mut rng, rsa::DEFAULT_KEY_BITS)
        })
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        property("rsa_props::encrypt_decrypt_roundtrip", 32, |rng| {
            let (kp, msg) = (shared_keypair(), rng.bytes(0..48));
            let mut rng = StdRng::seed_from_u64(1);
            let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
            assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
        });
    }

    #[test]
    fn sign_verify_roundtrip() {
        property("rsa_props::sign_verify_roundtrip", 32, |rng| {
            let (kp, msg) = (shared_keypair(), rng.bytes(0..128));
            let sig = kp.private.sign(&msg);
            assert!(kp.public.verify(&msg, &sig).is_ok());
            // Any single-bit flip in the message defeats verification.
            if !msg.is_empty() {
                let mut tampered = msg.clone();
                tampered[0] ^= 1;
                assert!(kp.public.verify(&tampered, &sig).is_err());
            }
        });
    }
}
