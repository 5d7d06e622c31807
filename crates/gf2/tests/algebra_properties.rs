//! Property-based tests of the GF(2) algebra laws.

use gf2::{AffineTable, BitMat, BitVec, Gf2Poly};
use proptest::prelude::*;

fn arb_poly() -> impl Strategy<Value = Gf2Poly> {
    any::<u64>().prop_map(Gf2Poly::from_u64)
}

fn arb_vec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn poly_ring_laws(a in arb_poly(), b in arb_poly(), c in arb_poly()) {
        // Commutativity and associativity of + and *.
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        // Distributivity.
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
        // Characteristic 2.
        prop_assert!(a.add(&a).is_zero());
    }

    #[test]
    fn poly_division_laws(a in arb_poly(), d in arb_poly()) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.divmod(&d);
        prop_assert_eq!(q.mul(&d).add(&r), a.clone());
        if let (Some(dr), Some(dd)) = (r.degree(), d.degree()) {
            prop_assert!(dr < dd);
        }
    }

    #[test]
    fn gcd_divides_both(a in arb_poly(), b in arb_poly()) {
        prop_assume!(!a.is_zero() || !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn x_pow_mod_is_homomorphic(e1 in 0u64..4096, e2 in 0u64..4096, g in arb_poly()) {
        prop_assume!(g.degree().unwrap_or(0) >= 1);
        let lhs = Gf2Poly::x_pow_mod(e1 + e2, &g);
        let rhs = Gf2Poly::x_pow_mod(e1, &g)
            .mul(&Gf2Poly::x_pow_mod(e2, &g))
            .rem(&g);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn bitvec_xor_group_laws(a in arb_vec(80), b in arb_vec(80), c in arb_vec(80)) {
        prop_assert_eq!(&(&a ^ &b) ^ &c, &a ^ &(&b ^ &c));
        prop_assert_eq!(&a ^ &b, &b ^ &a);
        prop_assert!((&a ^ &a).is_zero());
        prop_assert_eq!(&a ^ &BitVec::zeros(80), a.clone());
    }

    #[test]
    fn reversal_is_involutive_and_preserves_weight(a in arb_vec(65)) {
        prop_assert_eq!(a.reversed().reversed(), a.clone());
        prop_assert_eq!(a.reversed().count_ones(), a.count_ones());
    }

    #[test]
    fn matrix_transpose_and_mul(seed in any::<u64>()) {
        // (AB)^T = B^T A^T on pseudo-random 12x12 matrices.
        let gen = |s: u64| {
            let mut m = BitMat::zeros(12, 12);
            let mut x = s | 1;
            for i in 0..12 {
                for j in 0..12 {
                    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                    if x & 1 == 1 { m.set(i, j, true); }
                }
            }
            m
        };
        let a = gen(seed);
        let b = gen(seed.rotate_left(17) ^ 0xABCD);
        prop_assert_eq!(a.mul(&b).transpose(), b.transpose().mul(&a.transpose()));
        // rank(AB) <= min(rank A, rank B).
        prop_assert!(a.mul(&b).rank() <= a.rank().min(b.rank()));
    }

    #[test]
    fn power_laws(e1 in 0u64..40, e2 in 0u64..40) {
        let a = BitMat::companion(&Gf2Poly::from_crc_notation(0x1021, 16));
        prop_assert_eq!(a.pow(e1).mul(&a.pow(e2)), a.pow(e1 + e2));
        prop_assert_eq!(a.pow(e1 * 2), a.pow(e1).mul(&a.pow(e1)));
    }

    #[test]
    fn solve_finds_solutions_of_consistent_systems(seed in any::<u64>(), x_bits in any::<u64>()) {
        let a = BitMat::companion(&Gf2Poly::from_crc_notation(0x04C11DB7, 32)).pow(seed % 100);
        let x = BitVec::from_u64(x_bits, 32);
        let b = a.mul_vec(&x);
        let got = a.solve(&b).expect("constructed to be consistent");
        prop_assert_eq!(a.mul_vec(&got), b);
    }

    #[test]
    fn min_poly_divides_any_annihilator(m_exp in 1u64..64) {
        // p_v | char poly of A (companion => char poly = g).
        let g = Gf2Poly::from_crc_notation(0x04C11DB7, 32);
        let a = BitMat::companion(&g).pow(m_exp);
        let p = a.min_poly_of_vector(&BitVec::unit(0, 32));
        // p(A)e0 = 0 was verified by construction; check p | minimal poly
        // of the matrix, which divides any annihilating polynomial.
        let mp = a.minimal_polynomial();
        prop_assert!(mp.rem(&p).is_zero());
    }
}

/// Bit `i` of a little-endian byte buffer, 0 past its end.
fn byte_bit(bytes: &[u8], i: usize) -> bool {
    bytes.get(i / 8).is_some_and(|b| (b >> (i % 8)) & 1 == 1)
}

/// The word-at-a-time vector operations against their bit-at-a-time
/// definitions; `r1` and `r2` pick the offsets and lengths.
fn word_ops_agree(a: &[bool], b: &[bool], r1: u64, r2: u64, bytes: &[u8]) {
    let v = BitVec::from_bits(a.iter().copied());
    let w = BitVec::from_bits(b.iter().copied());
    let start = (r1 as usize) % (v.len() + 1);
    let count = (r2 as usize) % (v.len() - start + 1);

    let slice = BitVec::from_bits((start..start + count).map(|i| v.get(i)));
    assert_eq!(v.slice(start, count), slice);

    let concat = BitVec::from_bits(a.iter().chain(b).copied());
    assert_eq!(v.concat(&w), concat);

    let new_len = (r2 as usize) % 320;
    let resized = BitVec::from_bits((0..new_len).map(|i| i < v.len() && v.get(i)));
    assert_eq!(v.resized(new_len), resized);

    let len = (r1 as usize) % (bytes.len() * 8 + 24);
    let decoded = BitVec::from_bits((0..len).map(|i| byte_bit(bytes, i)));
    assert_eq!(BitVec::from_le_bytes(bytes, len), decoded);

    let word = (0..64).fold(0u64, |acc, i| {
        acc | (u64::from(start + i < v.len() && v.get(start + i)) << i)
    });
    assert_eq!(v.word_at(start), word);

    let mut x = v.clone();
    x.xor_word_at(start, r2);
    let xored = BitVec::from_bits(
        (0..v.len())
            .map(|i| v.get(i) ^ (i >= start && i - start < 64 && (r2 >> (i - start)) & 1 == 1)),
    );
    assert_eq!(x, xored);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_ops_match_bitwise_definitions(
        a in proptest::collection::vec(any::<bool>(), 0..300),
        b in proptest::collection::vec(any::<bool>(), 0..300),
        r1 in any::<u64>(),
        r2 in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        word_ops_agree(&a, &b, r1, r2, &bytes);
    }
}

/// The same definitions at the edges random lengths rarely hit: empty
/// vectors and offsets on either side of a word boundary.
#[test]
fn word_ops_match_bitwise_definitions_at_edges() {
    for len in [0, 1, 63, 64, 65, 128, 129] {
        let a: Vec<bool> = (0..len).map(|i| i % 3 != 1).collect();
        for r in [0, 1, 62, 63, 64, 65, 127, 128, 129] {
            word_ops_agree(&a, &a[..len / 2], r, r * 7 + 1, &[0xA5; 17]);
            word_ops_agree(&a, &[], r, 0, &[]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The byte tables agree with `BitMat::mul_vec` plus the offset, at
    /// widths that are not multiples of 8 and outputs wider than 64 bits.
    #[test]
    fn affine_tables_match_matrix_products(
        rows in 1usize..150,
        cols in 0usize..140,
        seed in any::<u64>(),
        garbage in any::<u64>(),
    ) {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut bits = |len: usize| {
            BitVec::from_words((0..len.div_ceil(64)).map(|_| next()).collect(), len)
        };
        let m = BitMat::from_rows((0..rows).map(|_| bits(cols)).collect());
        let c = bits(rows);
        let t = AffineTable::from_matrix(&m, &c);
        prop_assert_eq!((t.n_inputs(), t.n_outputs()), (cols, rows));
        for _ in 0..4 {
            let u = bits(cols);
            let mut input = u.words().to_vec();
            if cols % 64 != 0 {
                // Bits past the input width must not leak in.
                *input.last_mut().unwrap() |= garbage << (cols % 64);
            }
            let mut y = vec![0u64; t.out_words()];
            t.apply(&input, &mut y);
            let want = &m.mul_vec(&u) ^ &c;
            prop_assert_eq!(BitVec::from_words(y.clone(), rows), want.clone());
            prop_assert_eq!(&y[..], want.words());
            let mut acc = want.words().to_vec();
            t.xor_product(&input, &mut acc);
            prop_assert_eq!(BitVec::from_words(acc, rows), c.clone());
            if rows <= 64 {
                prop_assert_eq!(t.apply_word(|i| input[i]), want.words()[0]);
            }
        }
    }
}
