//! Golden digest of every synthesized catalogue network.
//!
//! For each catalogue CRC, each M ∈ {8, 16, 32, 64, 128} and pattern
//! sharing on and off, the matrices the flow synthesizes (Derby `B_Mt`
//! and `T`, or the dense `[A^M | B_M]` when no Krylov transform exists)
//! go through `xornet::synthesize`, and each resulting netlist is hashed
//! gate by gate. The committed digests pin the synthesizer's output
//! exactly, so a change to its data structures that also changed a
//! single gate, fan-in order or output tap fails here.

use lfsr::crc::CATALOG;
use lfsr::StateSpaceLfsr;
use lfsr_parallel::{BlockSystem, DerbyTransform, ParallelError};
use xornet::{synthesize, SynthOptions, XorNetwork};

const GOLDEN: &str = include_str!("data/synth_golden.txt");
const MS: [usize; 5] = [8, 16, 32, 64, 128];

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

/// One line per synthesized network: spec, M, sharing, role, gates,
/// digest.
fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for spec in CATALOG {
        let serial = StateSpaceLfsr::crc(&spec.generator()).expect("catalogue generator");
        for m in MS {
            let block = BlockSystem::new(&serial, m).expect("block system");
            let mats = match DerbyTransform::new(&block) {
                Ok(d) => vec![("update", d.b_mt().clone()), ("finalize", d.t().clone())],
                Err(ParallelError::SingularKrylov { .. }) => {
                    vec![("dense", block.a_m().hstack(block.b_m()))]
                }
                Err(e) => panic!("{} at M={m}: {e}", spec.name),
            };
            for share in [true, false] {
                let opts = SynthOptions {
                    max_fanin: 10,
                    share_patterns: share,
                };
                for (role, mat) in &mats {
                    let net = synthesize(mat, opts);
                    out.push(format!(
                        "{}\tM={m}\tshare={}\t{role}\t{}\t{:016x}",
                        spec.name,
                        u8::from(share),
                        net.gate_count(),
                        digest(&net)
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn every_catalogue_network_matches_its_golden_digest() {
    let got = lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(got.len(), 740, "spec × M × sharing × role networks");
    assert_eq!(got.len(), want.len(), "golden file covers every network");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "synthesized netlist drifted from the golden digest");
    }
}
