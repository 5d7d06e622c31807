//! Golden digest of every synthesized catalogue network.
//!
//! For each catalogue CRC, each M ∈ {8, 16, 32, 64, 128} and pattern
//! sharing on and off, the matrices the flow synthesizes (Derby `B_Mt`
//! and `T`, or the dense `[A^M | B_M]` when no Krylov transform exists)
//! go through `xornet::synthesize`, and each resulting netlist is hashed
//! gate by gate. The committed digests pin the synthesizer's output
//! exactly, so a change to its data structures that also changed a
//! single gate, fan-in order or output tap fails here.
//!
//! The golden file's first 740 lines are those fan-in-10 networks. The
//! lines after them pin two more families with pattern sharing on: the
//! same CRC matrices at fan-in 9, which is what the recovery ladder's
//! re-synthesis builds for a DMR shadow (the shadow is hosted with
//! sharing off; the ladder turns sharing back on and lowers the fan-in
//! by one), and every catalogue scrambler's output network
//! (`DerbyTransform::output_matrix`) at M ∈ {8, 16, 32, 64} wherever the
//! transform exists.

use gf2::BitMat;
use lfsr::crc::CATALOG;
use lfsr::scramble::SCRAMBLER_CATALOG;
use lfsr::StateSpaceLfsr;
use lfsr_parallel::{BlockSystem, DerbyTransform, ParallelError};
use xornet::{synthesize, SynthOptions, XorNetwork};

const GOLDEN: &str = include_str!("data/synth_golden.txt");
const MS: [usize; 5] = [8, 16, 32, 64, 128];
/// The fan-in-10 CRC networks at the head of the golden file.
const CATALOGUE_LINES: usize = 740;

/// FNV-1a over the netlist's shape, every gate's fan-in list and every
/// output tap.
fn digest(net: &XorNetwork) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |v: usize| {
        for b in (v as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(net.n_inputs());
    eat(net.gate_count());
    for g in net.gates() {
        eat(g.inputs.len());
        g.inputs.iter().for_each(|&s| eat(s));
    }
    eat(net.outputs().len());
    for o in net.outputs() {
        eat(o.map_or(0, |s| s + 1));
    }
    h
}

/// The network's gate count and digest, tab-separated.
fn pin(mat: &BitMat, opts: SynthOptions) -> String {
    let net = synthesize(mat, opts);
    format!("{}\t{:016x}", net.gate_count(), digest(&net))
}

/// The matrices the flow synthesizes for a catalogue CRC at `m`, with
/// their roles.
fn crc_matrices(serial: &StateSpaceLfsr, name: &str, m: usize) -> Vec<(&'static str, BitMat)> {
    let block = BlockSystem::new(serial, m).expect("block system");
    match DerbyTransform::new(&block) {
        Ok(d) => vec![("update", d.b_mt().clone()), ("finalize", d.t().clone())],
        Err(ParallelError::SingularKrylov { .. }) => {
            vec![("dense", block.a_m().hstack(block.b_m()))]
        }
        Err(e) => panic!("{name} at M={m}: {e}"),
    }
}

/// One line per fan-in-10 CRC network: spec, M, sharing, role, gates,
/// digest.
fn catalogue_lines() -> Vec<String> {
    let mut out = Vec::new();
    for spec in CATALOG {
        let serial = StateSpaceLfsr::crc(&spec.generator()).expect("catalogue generator");
        for m in MS {
            let mats = crc_matrices(&serial, spec.name, m);
            for share in [true, false] {
                let opts = SynthOptions {
                    max_fanin: 10,
                    share_patterns: share,
                };
                for (role, mat) in &mats {
                    out.push(format!(
                        "{}\tM={m}\tshare={}\t{role}\t{}",
                        spec.name,
                        u8::from(share),
                        pin(mat, opts)
                    ));
                }
            }
        }
    }
    out
}

/// One line per re-synthesized CRC network (fan-in 9) and per scrambler
/// output network (fan-in 10), all with sharing on: spec, M, fan-in,
/// role, gates, digest.
fn resynthesis_and_scrambler_lines() -> Vec<String> {
    let shared = |max_fanin| SynthOptions {
        max_fanin,
        share_patterns: true,
    };
    let mut out = Vec::new();
    for spec in CATALOG {
        let serial = StateSpaceLfsr::crc(&spec.generator()).expect("catalogue generator");
        for m in MS {
            for (role, mat) in crc_matrices(&serial, spec.name, m) {
                out.push(format!(
                    "{}\tM={m}\tfanin=9\t{role}\t{}",
                    spec.name,
                    pin(&mat, shared(9))
                ));
            }
        }
    }
    for spec in SCRAMBLER_CATALOG {
        let serial =
            StateSpaceLfsr::additive_scrambler(&spec.polynomial()).expect("catalogue polynomial");
        for m in [8, 16, 32, 64] {
            let block = BlockSystem::new(&serial, m).expect("block system");
            match DerbyTransform::new(&block) {
                Ok(d) => out.push(format!(
                    "{}\tM={m}\tfanin=10\toutput\t{}",
                    spec.name,
                    pin(&d.output_matrix(&block), shared(10))
                )),
                Err(ParallelError::SingularKrylov { .. }) => {}
                Err(e) => panic!("{} at M={m}: {e}", spec.name),
            }
        }
    }
    out
}

/// Compares `got` line by line with the golden file's lines from `from`
/// on, `got.len()` of them.
fn assert_golden(got: &[String], from: usize) {
    let want: Vec<&str> = GOLDEN.lines().skip(from).take(got.len()).collect();
    assert_eq!(got.len(), want.len(), "golden file covers every network");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "synthesized netlist drifted from the golden digest");
    }
}

#[test]
fn every_catalogue_network_matches_its_golden_digest() {
    let got = catalogue_lines();
    assert_eq!(
        got.len(),
        CATALOGUE_LINES,
        "spec × M × sharing × role networks"
    );
    assert_golden(&got, 0);
}

#[test]
fn resynthesized_and_scrambler_networks_match_their_golden_digests() {
    let got = resynthesis_and_scrambler_lines();
    assert_eq!(
        GOLDEN.lines().count(),
        CATALOGUE_LINES + got.len(),
        "no golden line without its network"
    );
    assert_golden(&got, CATALOGUE_LINES);
}
