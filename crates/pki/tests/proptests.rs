//! Property-based tests for the PKI substrate: algebraic laws for the
//! big-integer arithmetic that RSA correctness depends on, the kernels
//! (Montgomery exponentiation, block-wise digests and cipher, keyed HMAC
//! midstates) against definitions built from public operations, and
//! round-trip laws for DNs and certificates.

use proptest::prelude::*;

use clarens_pki::bigint::BigUint;
use clarens_pki::dn::DistinguishedName;

fn biguint_strategy(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..max_bytes)
        .prop_map(|bytes| BigUint::from_bytes_be(&bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutative(a in biguint_strategy(40), b in biguint_strategy(40)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associative(
        a in biguint_strategy(24),
        b in biguint_strategy(24),
        c in biguint_strategy(24),
    ) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutative(a in biguint_strategy(32), b in biguint_strategy(32)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes_over_add(
        a in biguint_strategy(20),
        b in biguint_strategy(20),
        c in biguint_strategy(20),
    ) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn add_sub_inverse(a in biguint_strategy(40), b in biguint_strategy(40)) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn divrem_identity(a in biguint_strategy(48), b in biguint_strategy(24)) {
        let b = if b.is_zero() { BigUint::one() } else { b };
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
        prop_assert!(r < b);
    }

    #[test]
    fn shift_roundtrip(a in biguint_strategy(32), bits in 0usize..200) {
        prop_assert_eq!(a.shl(bits).shr(bits), a);
    }

    #[test]
    fn bytes_roundtrip(a in biguint_strategy(48)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in biguint_strategy(48)) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn modpow_product_law(
        a in biguint_strategy(16),
        e1 in 0u64..50,
        e2 in 0u64..50,
        m in biguint_strategy(16),
    ) {
        // a^(e1+e2) == a^e1 * a^e2 (mod m)
        let m = if m.is_zero() || m.is_one() { BigUint::from_u64(97) } else { m };
        let lhs = a.modpow(&BigUint::from_u64(e1 + e2), &m);
        let rhs = a
            .modpow(&BigUint::from_u64(e1), &m)
            .mulmod(&a.modpow(&BigUint::from_u64(e2), &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    /// `modpow` (Montgomery for an odd modulus) against a square-and-multiply
    /// ladder over `mulmod` (schoolbook product, Knuth division): odd moduli
    /// of 1–17 limbs, bases past the modulus, both sides of the window
    /// switch at 64 exponent bits.
    #[test]
    fn modpow_matches_a_mulmod_ladder(
        base in biguint_strategy(290),
        exponent in biguint_strategy(20),
        modulus in biguint_strategy(137),
        odd in any::<bool>(),
    ) {
        let modulus = if odd { modulus.add(&modulus).add(&BigUint::one()) } else { modulus };
        let modulus = if modulus.is_zero() { BigUint::from_u64(2) } else { modulus };
        let mut expect = BigUint::one().rem(&modulus);
        for i in (0..exponent.bit_length()).rev() {
            expect = expect.mulmod(&expect, &modulus);
            if exponent.bit(i) {
                expect = expect.mulmod(&base, &modulus);
            }
        }
        prop_assert_eq!(base.modpow(&exponent, &modulus), expect.clone());
        let prepared = clarens_pki::bigint::Modulus::new(modulus.clone());
        prop_assert_eq!(prepared.pow(&base, &exponent), expect);
        prop_assert_eq!(prepared.mul(&base, &exponent), base.mulmod(&exponent, &modulus));
    }

    #[test]
    fn rem_u64_matches_rem(a in biguint_strategy(80), d in 1u64..=u64::MAX) {
        prop_assert_eq!(BigUint::from_u64(a.rem_u64(d)), a.rem(&BigUint::from_u64(d)));
    }

    #[test]
    fn gcd_divides_both(a in biguint_strategy(16), b in biguint_strategy(16)) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.rem(&g).is_zero());
            prop_assert!(b.rem(&g).is_zero());
        } else {
            // gcd(0,0) = 0
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn dn_roundtrip(components in proptest::collection::vec(
        // Values avoid leading/trailing spaces: the parser trims the whole
        // line, so edge whitespace is not preserved (matching OpenSSL).
        ("(C|ST|L|O|OU|CN|DC)", "[A-Za-z0-9._@-]([A-Za-z0-9 ._@-]{0,10}[A-Za-z0-9._@-])?"),
        1..5,
    )) {
        let text: String = components
            .iter()
            .map(|(tag, value)| format!("/{tag}={value}"))
            .collect();
        let dn = DistinguishedName::parse(&text).unwrap();
        prop_assert_eq!(dn.to_string(), text);
        let reparsed = DistinguishedName::parse(&dn.to_string()).unwrap();
        prop_assert_eq!(reparsed, dn);
    }

    #[test]
    fn dn_prefix_of_extension(
        base in proptest::collection::vec(
            ("(O|OU|CN)", "[A-Za-z0-9 ]{1,8}"),
            1..4,
        ),
        extra in "[A-Za-z0-9 ]{1,8}",
    ) {
        let text: String = base.iter().map(|(t, v)| format!("/{t}={v}")).collect();
        let dn = DistinguishedName::parse(&text).unwrap();
        let extended = dn.with_component(clarens_pki::dn::AttributeType::CommonName, extra);
        prop_assert!(extended.has_prefix(&dn));
        // A strict extension is never a prefix of its base.
        prop_assert!(!dn.has_prefix(&extended));
    }

    #[test]
    fn dn_parser_never_panics(s in "\\PC{0,40}") {
        let _ = DistinguishedName::parse(&s);
    }

    #[test]
    fn sha256_length_and_determinism(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let d1 = clarens_pki::sha256::sha256(&data);
        let d2 = clarens_pki::sha256::sha256(&data);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(d1.len(), 32);
    }

    /// However a message is cut into `update` calls, the digest is the
    /// one-shot digest.
    #[test]
    fn digests_do_not_depend_on_the_chunking(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(1usize..200, 0..8),
    ) {
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
        prop_assert_eq!(md5.finalize(), clarens_pki::md5::md5(&data));
        prop_assert_eq!(sha.finalize(), clarens_pki::sha256::sha256(&data));
    }

    /// The keyed-midstate HMAC against RFC 2104's definition spelled with
    /// the one-shot hash, and a clone of a keyed value against a fresh one.
    #[test]
    fn hmac_matches_its_definition(
        key in proptest::collection::vec(any::<u8>(), 0..200),
        message in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        use clarens_pki::hmac::{hmac_sha256, HmacSha256};
        use clarens_pki::sha256::sha256;
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
        prop_assert_eq!(hmac_sha256(&key, &message), expect);

        let keyed = HmacSha256::new(&key);
        for _ in 0..2 {
            let mut mac = keyed.clone();
            let (front, back) = message.split_at(message.len() / 3);
            mac.update(front);
            mac.update(back);
            prop_assert_eq!(mac.finalize(), expect);
        }
    }

    /// However a stream is cut into `apply` calls, it is the one-shot
    /// stream — block counters next to the wrap included.
    #[test]
    fn chacha20_does_not_depend_on_the_chunking(
        data in proptest::collection::vec(any::<u8>(), 0..700),
        cuts in proptest::collection::vec(1usize..260, 0..8),
        key in proptest::array::uniform32(any::<u8>()),
        back in 0u32..4,
    ) {
        let (nonce, counter) = ([5u8; 12], u32::MAX - back);
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
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn chacha20_involution(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        key in proptest::array::uniform32(any::<u8>()),
        counter in any::<u32>(),
    ) {
        let nonce = [9u8; 12];
        let mut buf = data.clone();
        clarens_pki::chacha20::xor_stream(&key, &nonce, counter, &mut buf);
        clarens_pki::chacha20::xor_stream(&key, &nonce, counter, &mut buf);
        prop_assert_eq!(buf, data);
    }
}

/// RSA round-trips are expensive with fresh keys; use one shared key pair
/// across all proptest cases.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn encrypt_decrypt_roundtrip(msg in proptest::collection::vec(any::<u8>(), 0..48)) {
            let kp = shared_keypair();
            let mut rng = StdRng::seed_from_u64(1);
            let ct = kp.public.encrypt(&mut rng, &msg).unwrap();
            prop_assert_eq!(kp.private.decrypt(&ct).unwrap(), msg);
        }

        #[test]
        fn sign_verify_roundtrip(msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            let kp = shared_keypair();
            let sig = kp.private.sign(&msg);
            prop_assert!(kp.public.verify(&msg, &sig).is_ok());
            // Any single-bit flip in the message defeats verification.
            if !msg.is_empty() {
                let mut tampered = msg.clone();
                tampered[0] ^= 1;
                prop_assert!(kp.public.verify(&tampered, &sig).is_err());
            }
        }
    }
}
