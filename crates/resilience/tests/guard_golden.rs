//! Golden fingerprint of the guard's per-call path.
//!
//! A stack shaped like perfbench's `fabric_bulk` workload: CRC-32/ETHERNET
//! hosted at M = 8, 32 and 128 and the 802.11 scrambler at M = 16, on
//! the fabric's 4 context slots, under `RecoveryPolicy::standard()` (a
//! scrub and a probe of every hosted personality on every 4th guarded
//! message). Two rounds of the workload's message mix run through it;
//! in the second, a configuration upset strikes the M = 32 update context
//! after that lane's first message, so the next self-check detects it
//! and the recovery ladder reloads the lane.
//!
//! The data file records every CRC, an FNV-1a digest of every trace
//! event rendered with its cycle, kind, lane and fields (the slot of a
//! context hit, miss, load or switch), and an FNV-1a digest of the
//! metrics registry's JSON lines (every counter and every
//! `op.{name}.{role}.*` gauge). So a host-side change to how the system
//! finds, loads or evicts a personality's contexts that moved one event,
//! slot, lane or gauge fails here, beyond what `sim.digest` counts.
//!
//! Regenerate `data/guard_golden.txt` only in a change that moves the
//! simulated schedule on purpose, and list the moved lines in
//! CHANGES.md.

use dream::ControlModel;
use dream_lfsr::{build_scrambler_personality, FlowOptions};
use gf2::BitVec;
use lfsr::crc::{crc_bitwise, CrcSpec};
use lfsr::scramble::{AdditiveScrambler, ScramblerSpec};
use picoga::{ConfigFault, PicogaParams};
use resilience::rng::SplitMix64;
use resilience::{RecoveryPolicy, ResilientSystem};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("data/guard_golden.txt");
/// The hosted CRC personalities: (name, M).
const CRCS: [(&str, usize); 3] = [("eth8", 8), ("eth32", 32), ("eth128", 128)];
/// CRC messages per personality per round: (bytes, count).
const CRC_MIX: [(usize, usize); 3] = [(64, 24), (1500, 16), (65536, 1)];
/// Scrambler frames per round: (bytes, count).
const SCRAMBLE_MIX: [(usize, usize); 2] = [(64, 64), (1500, 16)];

/// FNV-1a, continued from `h` over the text's bytes.
fn fnv(h: u64, text: &str) -> u64 {
    text.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

fn eth() -> &'static CrcSpec {
    CrcSpec::by_name("CRC-32/ETHERNET").expect("catalogue entry")
}

/// Shuffled message sizes of one batch.
fn batch(rng: &mut SplitMix64, mix: &[(usize, usize)]) -> Vec<usize> {
    let mut sizes: Vec<usize> = mix
        .iter()
        .flat_map(|&(len, n)| std::iter::repeat_n(len, n))
        .collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.below(i + 1));
    }
    sizes
}

fn bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

/// Folds the events recorded since sequence number `seen` into the
/// trace digest, one rendered line each, and returns the new mark.
fn digest_events(rs: &ResilientSystem, seen: u64, trace: &mut u64) -> u64 {
    let tracer = &rs.obs().tracer;
    let mut next = seen;
    for (seq, e) in tracer.events_with_seq().filter(|&(seq, _)| seq >= seen) {
        assert_eq!(seq, next, "the ring dropped events before they were read");
        let mut line = format!("{} {}", e.cycle, e.kind.label());
        if let Some(lane) = tracer.lane_of(e) {
            let _ = write!(line, " lane={lane}");
        }
        for (k, v) in e.kind.fields() {
            let _ = write!(line, " {k}={v}");
        }
        line.push('\n');
        *trace = fnv(*trace, &line);
        next = seq + 1;
    }
    assert_eq!(next, tracer.recorded(), "every event was read");
    next
}

/// A wire flip on the configuration in `slot` that changes its matrix.
fn semantic_flip(rs: &ResilientSystem, slot: usize) -> ConfigFault {
    let op = rs.system().fabric().context(slot).expect("resident");
    let t = op.network().to_matrix();
    for gate in (0..op.network().gate_count()).rev() {
        for new_signal in 0..op.network().n_inputs() {
            let mut probe = op.clone();
            if probe.corrupt_wire(gate, 0, new_signal).is_ok() && probe.network().to_matrix() != t {
                return ConfigFault::WireFlip {
                    slot,
                    gate,
                    pin: 0,
                    new_signal,
                };
            }
        }
    }
    panic!("no semantic flip found");
}

fn lines() -> Vec<String> {
    let mut rs = ResilientSystem::new(
        PicogaParams::dream(),
        ControlModel::default(),
        RecoveryPolicy::standard(),
    );
    for (name, m) in CRCS {
        rs.host(name, eth(), FlowOptions::dream_with_m(m))
            .expect("hosts");
    }
    let wifi = build_scrambler_personality(
        "wifi16",
        ScramblerSpec::ieee80211(),
        &FlowOptions::dream_with_m(16),
    )
    .expect("builds");
    rs.system_mut().register_scrambler(wifi).expect("registers");
    assert_eq!(rs.system().params().contexts, 4);
    assert_eq!(rs.system().context_demand(), 7);

    let mut out = Vec::new();
    let (mut seen, mut trace) = (0, FNV_START);
    let mut rng = SplitMix64::new(0x0060_A2D0);
    // Whether an injected upset is still undetected: the lane answers
    // wrongly until the self-check that finds it.
    let mut upset = false;
    for round in 0..2 {
        for (name, _) in CRCS {
            for (i, len) in batch(&mut rng, &CRC_MIX).into_iter().enumerate() {
                if (round, name, i) == (1, "eth32", 1) {
                    let slot = rs.system().slot_of(name, 0).expect("just used");
                    let fault = semantic_flip(&rs, slot);
                    rs.system_mut()
                        .fabric_mut()
                        .inject(&fault)
                        .expect("injects");
                    upset = true;
                }
                let data = bytes(&mut rng, len);
                let run = rs.checksum_guarded(name, &data).expect("guarded");
                assert!(!run.software, "{name} stays on the fabric");
                out.push(format!(
                    "crc\t{name}\tround={round}\tlen={len}\tcrc={:08x}\tcycles={}\toutcomes={:?}",
                    run.crc, run.cycles, run.outcomes
                ));
                if !upset {
                    assert_eq!(run.crc, crc_bitwise(eth(), &data), "{name} {len}");
                }
                upset &= run.outcomes.is_empty();
                seen = digest_events(&rs, seen, &mut trace);
            }
        }
        assert!(!upset, "the upset was detected");
        for len in batch(&mut rng, &SCRAMBLE_MIX) {
            let data = bytes(&mut rng, len);
            let frame = BitVec::from_le_bytes(&data, len * 8);
            let seed = 1 + rng.below(127) as u64;
            let (got, _) = rs
                .system_mut()
                .scramble("wifi16", seed, &frame)
                .expect("scrambles");
            let mut oracle = AdditiveScrambler::with_seed(ScramblerSpec::ieee80211(), seed)
                .expect("seed fits the 7-bit register");
            assert_eq!(got, oracle.scramble(&frame), "wifi16 {len}");
            seen = digest_events(&rs, seen, &mut trace);
        }
    }
    let metrics = rs.obs().registry.snapshot().to_json_lines();
    out.push(format!("trace\tevents={seen}\tfnv={trace:016x}"));
    out.push(format!("metrics\tfnv={:016x}", fnv(FNV_START, &metrics)));
    out
}

#[test]
fn the_guard_matches_its_golden_fingerprint() {
    let got = lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        got.len(),
        2 * CRCS.len() * 41 + 2,
        "every CRC, the trace and the metrics"
    );
    assert_eq!(
        got.len(),
        want.len(),
        "golden file covers every line; got:\n{}",
        got.join("\n")
    );
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "the guard drifted from its golden fingerprint");
    }
}
