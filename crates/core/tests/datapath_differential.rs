//! Differential tests of the host datapath against its oracles at
//! M ∈ {8, 16, 32, 64, 128}: checksums against `crc_bitwise` (the dense lane
//! included), scrambled frames against `AdditiveScrambler`, interleaved
//! batches against per-message references, and configuration-scrub
//! findings against the basis-probe procedure the scrub ran before
//! (`to_matrix` of the pristine network, then one `evaluate` per basis
//! vector of the resident one).

use dream::{ControlModel, DreamSystem, ScrubFinding};
use dream_lfsr::{
    build_crc_app, build_personality, build_scrambler_app, build_scrambler_personality, FlowOptions,
};
use gf2::{BitMat, BitVec};
use lfsr::crc::{crc_bitwise, message_bits, CrcSpec};
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use picoga::{ConfigFault, PgaOperation, PicogaParams};
use verify::{EquivError, RowMismatch};
use xornet::XorNetwork;

/// (catalogue name, M). CRC-16/DECT-R and CRC-64/XZ have no Derby
/// transform and take the dense lane; the rest are Derby lanes. (CRC-64/XZ
/// needs more than the fabric's 24 rows above M = 32.) CRC-5/USB at M = 8
/// has fewer state bits than a 64-bit word has blocks. CRC-32/ETHERNET at
/// M = 64 and 128 has blocks of one and two whole words.
const LANES: [(&str, usize); 12] = [
    ("CRC-32/ETHERNET", 8),
    ("CRC-32/ETHERNET", 16),
    ("CRC-32/ETHERNET", 32),
    ("CRC-32/ETHERNET", 64),
    ("CRC-32/ETHERNET", 128),
    ("CRC-16/IBM-SDLC", 32),
    ("CRC-5/USB", 8),
    ("CRC-16/DECT-R", 8),
    ("CRC-16/DECT-R", 32),
    ("CRC-16/DECT-R", 128),
    ("CRC-64/XZ", 8),
    ("CRC-64/XZ", 32),
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

fn spec(name: &str) -> &'static CrcSpec {
    CrcSpec::by_name(name).expect("catalogue entry")
}

fn lane_name(i: usize) -> String {
    format!("lane{i}")
}

#[test]
fn checksums_match_bitwise_on_every_lane_with_tails() {
    let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
    let mut dense = 0;
    for (i, &(name, m)) in LANES.iter().enumerate() {
        let p = build_personality(lane_name(i), spec(name), &FlowOptions::dream_with_m(m))
            .expect("catalogue lane builds");
        dense += usize::from(p.derby.is_none());
        sys.register(p).unwrap();
    }
    assert_eq!(dense, 5, "DECT-R and CRC-64/XZ run dense");
    let mut rng = Rng(0x005E_ED0F_DA7A);
    for round in 0..40 {
        for (i, &(name, m)) in LANES.iter().enumerate() {
            // Lengths around and across the chunk of 64 blocks, with
            // and without a tail shorter than one block.
            let blocks = [0, 1, 63, 64, 65, 130][round % 6];
            let len = (blocks * m / 8 + rng.below(m / 8 + 2)).max(1);
            let data = rng.bytes(len);
            let want = crc_bitwise(spec(name), &data);
            let (got, _) = sys.checksum(&lane_name(i), &data).unwrap();
            assert_eq!(got, want, "{name} at M={m}, {len} B");

            // The chunked stream entry points agree too.
            let bits = message_bits(spec(name), &data);
            let whole = bits.len() / m * m;
            let x0 = sys.crc_stream_begin(&lane_name(i)).unwrap();
            let x = sys
                .crc_stream_feed(&lane_name(i), &x0, &bits.slice(0, whole))
                .unwrap();
            let residual = bits.slice(whole, bits.len() - whole);
            let (streamed, _) = sys.crc_stream_finish(&lane_name(i), &x, &residual).unwrap();
            assert_eq!(streamed, want, "{name} at M={m}, streamed");
        }
    }
}

/// 1,500 B messages (and a byte or more past them) at M = 128, on a
/// Derby lane and a dense lane: 93 whole blocks and a tail every time,
/// the call `step_us` times. The software fallback must agree too.
#[test]
fn long_messages_at_m128_match_bitwise_with_tails() {
    let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
    let names = ["CRC-32/ETHERNET", "CRC-16/DECT-R"];
    for name in names {
        let p = build_personality(name, spec(name), &FlowOptions::dream_with_m(128)).unwrap();
        sys.register(p).unwrap();
    }
    let mut rng = Rng(0x0015_00B7);
    for extra in 0..=17 {
        let data = rng.bytes(1500 + extra);
        for name in names {
            let want = crc_bitwise(spec(name), &data);
            let (got, report) = sys.checksum(name, &data).unwrap();
            assert_eq!(got, want, "{name}, {} B", data.len());
            if extra % 16 != 4 {
                assert!(report.tail_cycles > 0, "{} B leaves a tail", data.len());
            }
            assert_eq!(sys.checksum_software(name, &data).unwrap().0, want);
        }
    }
}

/// Messages long enough to take a lane's packed stream past the point
/// where its compile builds a word table (2,304 blocks at these M), and
/// messages after it: the word path, and the blocks and byte-wise tails
/// around it, against `crc_bitwise` — through `DreamSystem::checksum`,
/// the chunked stream entry points and `DreamCrcApp::checksum`.
#[test]
fn long_messages_cross_the_word_table_build_point() {
    let lanes = [
        ("CRC-32/ETHERNET", 8),
        ("CRC-32/ETHERNET", 16),
        ("CRC-32/ETHERNET", 32),
        ("CRC-5/USB", 8),
        ("CRC-16/IBM-SDLC", 32),
    ];
    let mut rng = Rng(0x0B01_1D07);
    for (i, &(name, m)) in lanes.iter().enumerate() {
        let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
        let p = build_personality(lane_name(i), spec(name), &FlowOptions::dream_with_m(m))
            .expect("catalogue lane builds");
        assert!(p.derby.is_some(), "{name} at M={m} is a Derby lane");
        sys.register(p).unwrap();
        let (mut app, _) = build_crc_app(spec(name), &FlowOptions::dream_with_m(m)).unwrap();
        // The first message is 1,000 blocks short of the build point: its
        // checksum runs block by block and its stream feed crosses the
        // point. Then a longer message, and lengths around one 64-bit
        // word of blocks.
        let before = 2304 * m / 8 - 1000 * m / 8;
        for len in [before, 3000 * m / 8 + 3, 1, 7, 8, 9, 63, 64, 65, 1500, 1503] {
            let data = rng.bytes(len);
            let want = crc_bitwise(spec(name), &data);
            let (got, _) = sys.checksum(&lane_name(i), &data).unwrap();
            assert_eq!(got, want, "{name} at M={m}, {len} B");
            assert_eq!(app.checksum(&data).0, want, "{name} at M={m}, {len} B, app");

            let bits = message_bits(spec(name), &data);
            let whole = bits.len() / m * m;
            let x0 = sys.crc_stream_begin(&lane_name(i)).unwrap();
            let x = sys
                .crc_stream_feed(&lane_name(i), &x0, &bits.slice(0, whole))
                .unwrap();
            let residual = bits.slice(whole, bits.len() - whole);
            let (streamed, _) = sys.crc_stream_finish(&lane_name(i), &x, &residual).unwrap();
            assert_eq!(streamed, want, "{name} at M={m}, {len} B, streamed");
        }
    }
}

/// Scrambled frames against `AdditiveScrambler` through the one-shot
/// `DreamSystem::scramble`, the chunked stream entry points (random
/// whole-block chunks, then the residual) and `DreamScramblerApp`, at
/// M ∈ {8, 16, 32, 128}, for every shape of the word step's state
/// tables: one state byte (802.11 and PRBS7, k = 7), two (PRBS9, the
/// smallest, and DVB and PRBS15, k = 15), three (PRBS23) and four
/// (PRBS31). The first two frames, 2,000 and 1,400 blocks, carry each
/// compile across its word table's build point (512 to 2,048 blocks
/// at M < 64); then frames around one 64-bit word of blocks. Each frame
/// runs from a random seed and from seeds 0 and `2^k − 1`.
#[test]
fn scrambled_frames_match_the_serial_scrambler() {
    let mut rng = Rng(0x00F4_A3E5);
    let specs = [
        "IEEE-802.11",
        "PRBS7",
        "PRBS9",
        "DVB",
        "PRBS15",
        "PRBS23",
        "PRBS31",
    ];
    for name in specs {
        let spec = ScramblerSpec::by_name(name).expect("catalogue entry");
        for m in [8, 16, 32, 128] {
            let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
            let opts = FlowOptions::dream_with_m(m);
            let p = build_scrambler_personality("scr", spec, &opts).unwrap();
            sys.register_scrambler(p).unwrap();
            let (mut app, _) = build_scrambler_app(spec, &opts).unwrap();
            let cases = [2000, 1400, 0, 1, 3, 4, 5, 63, 64, 65, 130].into_iter();
            let last = (1 << spec.width) - 1;
            for (blocks, seed) in cases.flat_map(|b| [(b, None), (b, Some(0)), (b, Some(last))]) {
                let len = (blocks * m + rng.below(m)).max(1);
                let frame = BitVec::from_le_bytes(&rng.bytes(len.div_ceil(8)), len);
                let seed = seed.unwrap_or_else(|| 1 + rng.below((1 << spec.width) - 1) as u64);
                let what = format!("{name} at M={m}, {blocks} blocks, seed {seed}");
                let mut oracle = AdditiveScrambler::with_seed(spec, seed).unwrap();
                let want = oracle.scramble(&frame);
                let (got, _) = sys.scramble("scr", seed, &frame).unwrap();
                assert_eq!(got, want, "{what}");
                assert_eq!(app.scramble(seed, &frame).0, want, "{what}, app");

                let whole = len / m * m;
                let (mut x, mut pos) = (sys.scramble_stream_begin("scr", seed).unwrap(), 0);
                let mut streamed = BitVec::zeros(0);
                while pos < whole {
                    let take = (m * (1 + rng.below(300))).min(whole - pos);
                    let (out, next) = sys
                        .scramble_stream_feed("scr", &x, &frame.slice(pos, take))
                        .unwrap();
                    (streamed, x, pos) = (streamed.concat(&out), next, pos + take);
                }
                let (tail, _) = sys
                    .scramble_stream_finish("scr", &x, &frame.slice(whole, len - whole))
                    .unwrap();
                assert_eq!(streamed.concat(&tail), want, "{what}, streamed");
            }
        }
    }
}

#[test]
fn interleaved_batches_match_per_message_references() {
    let mut rng = Rng(0x1A7E_71EA);
    for &(name, m) in &LANES {
        let (mut app, _) = build_crc_app(spec(name), &FlowOptions::dream_with_m(m)).unwrap();
        let messages: Vec<Vec<u8>> = (0..5)
            .map(|_| {
                let len = 1 + rng.below(m * 70 / 8);
                rng.bytes(len)
            })
            .collect();
        let refs: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let (got, _) = app.checksum_interleaved(&refs);
        for (g, msg) in got.iter().zip(&messages) {
            assert_eq!(*g, crc_bitwise(spec(name), msg), "{name} at M={m}");
        }
    }
}

/// The scrub's equivalence check as it ran before lane evaluation.
fn old_check(net: &XorNetwork, matrix: &BitMat) -> Result<(), EquivError> {
    let n = net.n_inputs();
    let mut bad: Vec<Vec<usize>> = vec![Vec::new(); matrix.rows()];
    for j in 0..n {
        let probe = net.evaluate(&BitVec::unit(j, n));
        for (i, row) in bad.iter_mut().enumerate() {
            if probe.get(i) != matrix.get(i, j) {
                row.push(j);
            }
        }
    }
    if bad.iter().all(Vec::is_empty) {
        return Ok(());
    }
    Err(EquivError::NotEquivalent {
        mismatches: bad
            .into_iter()
            .enumerate()
            .filter(|(_, cols)| !cols.is_empty())
            .map(|(output, bad_inputs)| RowMismatch { output, bad_inputs })
            .collect(),
        probes: n,
    })
}

#[test]
fn scrub_findings_match_the_basis_probe_procedure_under_flips() {
    let mut rng = Rng(0x5C2B_F1A9);
    let mut found = 0;
    for m in [8, 32, 128] {
        let eth = build_personality(
            "eth",
            spec("CRC-32/ETHERNET"),
            &FlowOptions::dream_with_m(m),
        )
        .unwrap();
        let wifi = build_scrambler_personality(
            "wifi",
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(m),
        )
        .unwrap();
        let pristine = |name: &str, role: u8| -> &PgaOperation {
            match (name, role) {
                ("eth", 0) => &eth.update,
                ("eth", _) => eth.finalize.as_ref().unwrap(),
                _ => &wifi.op,
            }
        };
        for trial in 0..8 {
            let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
            sys.register(eth.clone()).unwrap();
            sys.register_scrambler(wifi.clone()).unwrap();
            sys.checksum("eth", b"warm the cache").unwrap();
            sys.scramble("wifi", 0x5B, &BitVec::ones(3 * m)).unwrap();
            // The first scrub derives and caches the pristine matrices;
            // later ones reuse them after the flips.
            if trial % 2 == 0 {
                assert!(sys.scrub().is_empty());
            }
            for _ in 0..1 + rng.below(3) {
                let resident = sys.resident();
                let (name, role) = &resident[rng.below(resident.len())];
                let slot = sys.slot_of(name, *role).unwrap();
                let net = sys.fabric().context(slot).unwrap().network();
                let gate = rng.below(net.gate_count());
                let fault = ConfigFault::WireFlip {
                    slot,
                    gate,
                    pin: rng.below(net.gates()[gate].inputs.len()),
                    new_signal: rng.below(net.n_inputs() + gate),
                };
                sys.fabric_mut().inject(&fault).unwrap();
            }
            let mut want: Vec<ScrubFinding> = Vec::new();
            for slot in 0..sys.params().contexts {
                let Some((name, role)) = sys
                    .resident()
                    .into_iter()
                    .find(|(n, r)| sys.slot_of(n, *r) == Some(slot))
                else {
                    continue;
                };
                let expected = pristine(&name, role).network().to_matrix();
                let resident = sys.fabric().context(slot).unwrap().network();
                if let Err(error) = old_check(resident, &expected) {
                    want.push(ScrubFinding {
                        slot,
                        personality: name,
                        role,
                        error,
                    });
                }
            }
            found += want.len();
            assert_eq!(sys.scrub(), want, "M={m}, trial {trial}");
        }
    }
    assert!(found > 5, "the flips produced findings to compare");
}
