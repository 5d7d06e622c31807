//! Property-based tests of the LFSR application layer.

use gf2::{BitMat, BitVec, Gf2Poly};
use lfsr::crc::{crc_bitwise, crc_combine, CrcSpec, CrcStream, SerialCore, CATALOG};
use lfsr::scramble::{
    AdditiveScrambler, MultiplicativeScrambler, ScramblerSpec, SCRAMBLER_CATALOG,
};
use lfsr::StateSpaceLfsr;
use proptest::prelude::*;

/// A random `k`-state system with a scalar output (`C` one row).
fn random_system(k: usize, seed: u64) -> StateSpaceLfsr {
    let mut x = seed | 1;
    let mut bits = |len: usize| {
        BitVec::from_bits((0..len).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & 1 == 1
        }))
    };
    let a = BitMat::from_rows((0..k).map(|_| bits(k)).collect());
    let (b, c, d) = (bits(k), bits(k), bits(1));
    let mut sys = StateSpaceLfsr::new(a, b, BitMat::from_rows(vec![c]), d).unwrap();
    sys.set_state(bits(k));
    sys
}

/// The word-level engines against repeated `step`, the `BitMat`
/// reference, for one system and one input.
fn word_engines_match_step(mut sys: StateSpaceLfsr, input: &BitVec) {
    let mut reference = sys.clone();
    let outputs: BitVec = (0..input.len())
        .map(|i| reference.step(input.get(i)).get(0))
        .collect();
    let mut absorbed = sys.clone();
    absorbed.absorb(input);
    assert_eq!(
        absorbed.state(),
        reference.state(),
        "absorb, k={}",
        sys.dim()
    );
    assert_eq!(sys.transduce(input), outputs, "transduce, k={}", sys.dim());
    assert_eq!(sys.state(), reference.state());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crc_combine_matches_concatenation(
        a in proptest::collection::vec(any::<u8>(), 0..80),
        b in proptest::collection::vec(any::<u8>(), 0..80),
        spec_idx in 0usize..CATALOG.len(),
    ) {
        let spec = &CATALOG[spec_idx];
        let whole: Vec<u8> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(
            crc_combine(spec, crc_bitwise(spec, &a), crc_bitwise(spec, &b), b.len() as u64),
            crc_bitwise(spec, &whole)
        );
    }

    #[test]
    fn crc_stream_is_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 1..200),
        cut1 in 0usize..200,
        cut2 in 0usize..200,
    ) {
        let spec = CrcSpec::crc32_ethernet();
        let c1 = cut1 % (data.len() + 1);
        let c2 = c1 + (cut2 % (data.len() - c1 + 1));
        let mut s = CrcStream::new(*spec, SerialCore::new(spec));
        s.update(&data[..c1]);
        s.update(&data[c1..c2]);
        s.update(&data[c2..]);
        prop_assert_eq!(s.finalize(), crc_bitwise(spec, &data));
    }

    #[test]
    fn additive_scrambler_is_an_involution(
        bits in proptest::collection::vec(any::<bool>(), 0..300),
        spec_idx in 0usize..SCRAMBLER_CATALOG.len(),
        seed in any::<u64>(),
    ) {
        let spec = &SCRAMBLER_CATALOG[spec_idx];
        let seed = seed & ((1u64 << spec.width) - 1);
        prop_assume!(seed != 0); // all-zero LFSR state never scrambles
        let data = BitVec::from_bits(bits);
        let mut tx = AdditiveScrambler::with_seed(spec, seed).unwrap();
        let mut rx = AdditiveScrambler::with_seed(spec, seed).unwrap();
        prop_assert_eq!(rx.scramble(&tx.scramble(&data)), data);
    }

    #[test]
    fn multiplicative_scrambler_self_synchronises(
        bits in proptest::collection::vec(any::<bool>(), 64..300),
        tx_seed in any::<u64>(),
        rx_seed in any::<u64>(),
    ) {
        // x^31 + x^28 + 1 register (PRBS31 polynomial used self-sync).
        let poly = 0b1001_0000_0000_0000_0000_0000_0000_0001u64;
        let data = BitVec::from_bits(bits);
        let mut tx = MultiplicativeScrambler::new(poly, tx_seed);
        let mut rx = MultiplicativeScrambler::new(poly, rx_seed);
        let out = rx.descramble(&tx.scramble(&data));
        for i in 31..data.len() {
            prop_assert_eq!(out.get(i), data.get(i), "bit {}", i);
        }
    }

    #[test]
    fn crc_is_a_function_of_content_not_computation_path(
        data in proptest::collection::vec(any::<u8>(), 0..120),
        spec_idx in 0usize..CATALOG.len(),
    ) {
        // Sarwate (when width permits) agrees with bitwise for arbitrary data.
        let spec = &CATALOG[spec_idx];
        if spec.width >= 8 {
            let mut s = lfsr::crc::SarwateCrc::new(spec).unwrap();
            prop_assert_eq!(s.checksum(&data), crc_bitwise(spec, &data));
        }
    }

    #[test]
    fn spreading_roundtrip_random(
        bits in proptest::collection::vec(any::<bool>(), 1..64),
        factor in 1usize..12,
    ) {
        use lfsr::spread::Spreader;
        let spec = ScramblerSpec::by_name("PRBS15").unwrap();
        let data = BitVec::from_bits(bits);
        let mut tx = Spreader::new(spec, factor).unwrap();
        let mut rx = Spreader::new(spec, factor).unwrap();
        prop_assert_eq!(rx.despread(&tx.spread(&data)), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The byte-wise message staging against its bit-at-a-time
    /// definition: MSB-first per byte unless the spec reflects input.
    #[test]
    fn message_bits_match_the_bitwise_definition(
        data in proptest::collection::vec(any::<u8>(), 0..80),
        spec_idx in 0usize..CATALOG.len(),
    ) {
        let spec = &CATALOG[spec_idx];
        let want = BitVec::from_bits((0..data.len() * 8).map(|i| {
            let k = i % 8;
            let shift = if spec.refin { k } else { 7 - k };
            (data[i / 8] >> shift) & 1 == 1
        }));
        prop_assert_eq!(lfsr::crc::message_bits(spec, &data), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `absorb` and `transduce` step on packed words; they must equal
    /// repeated `step` on random systems, across the one-word and
    /// multi-word state layouts.
    #[test]
    fn word_engines_match_repeated_steps(
        k_idx in 0usize..6,
        seed in any::<u64>(),
        input in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let k = [1, 7, 32, 63, 64, 65][k_idx];
        word_engines_match_step(random_system(k, seed), &BitVec::from_bits(input));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The byte-wise tails: `absorb_word` on a range with an unaligned
    /// start and a length that need not be whole bytes, and the one-word
    /// `absorb`, against repeated `step`.
    #[test]
    fn byte_wise_absorb_matches_repeated_steps(
        k_idx in 0usize..5,
        seed in any::<u64>(),
        input in proptest::collection::vec(any::<bool>(), 0..200),
        start in 0usize..200,
        len in 0usize..200,
    ) {
        let k = [1, 7, 32, 63, 64][k_idx];
        let sys = random_system(k, seed);
        let bits = BitVec::from_bits(input);
        let start = start.min(bits.len());
        let end = (start + len).min(bits.len());
        let mut reference = sys.clone();
        for i in start..end {
            reference.step(bits.get(i));
        }
        let x0 = sys.state().to_u64();
        prop_assert_eq!(sys.absorb_word(x0, &bits, start..end), reference.state().to_u64());
        let mut absorbed = sys.clone();
        absorbed.absorb(&bits.slice(start, end - start));
        prop_assert_eq!(absorbed.state(), reference.state());
    }
}

#[test]
fn word_engines_match_repeated_steps_on_the_standard_systems() {
    let data = BitVec::from_words(vec![0x0123_4567_89AB_CDEF, 0xFEDC_BA98], 100);
    let crc32 = Gf2Poly::from_crc_notation(0x04C1_1DB7, 32);
    let pcs = {
        let mut p = Gf2Poly::x_pow(58);
        p.set_coeff(39, true);
        p.set_coeff(0, true);
        p
    };
    let mut crc = StateSpaceLfsr::crc(&crc32).unwrap();
    crc.set_state(BitVec::from_u64(0xDEAD_BEEF, 32));
    let mut reference = crc.clone();
    for i in 0..data.len() {
        reference.step(data.get(i));
    }
    crc.absorb(&data);
    assert_eq!(crc.state(), reference.state());
    for sys in [
        StateSpaceLfsr::additive_scrambler(&Gf2Poly::from_u64(0b1001_0001)).unwrap(),
        StateSpaceLfsr::multiplicative_scrambler(&pcs).unwrap(),
        StateSpaceLfsr::multiplicative_descrambler(&pcs).unwrap(),
    ] {
        let mut sys = sys;
        let k = sys.dim();
        sys.set_state(BitVec::from_words(vec![0x5A5A_5A5A_5A5A_5A5A], k));
        word_engines_match_step(sys, &data);
    }
}
