//! Property-based tests of the LFSR application layer.

use gf2::BitVec;
use lfsr::crc::{crc_bitwise, crc_combine, CrcSpec, CrcStream, SerialCore, CATALOG};
use lfsr::scramble::{
    AdditiveScrambler, MultiplicativeScrambler, ScramblerSpec, SCRAMBLER_CATALOG,
};
use proptest::prelude::*;

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
