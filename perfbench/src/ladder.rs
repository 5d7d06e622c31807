//! The layer ladder: host time of each layer's public functions, timed
//! from outside on the paper's payloads. Each sample is one span, so
//! the traced run's span file holds these probes too.

use crate::fabric_bulk::{build_stack, eth, CRCS, SCRAMBLER};
use crate::report::random_bytes;
use crate::stats::median;
use crate::trace::Recorder;
use analyze::{certify, FabricConfig};
use dream_lfsr::{build_personality, build_scrambler_personality, FlowOptions};
use gf2::BitVec;
use lfsr::crc::{crc_bitwise, message_bits, SarwateCrc, SlicingCrc};
use lfsr::scramble::ScramblerSpec;
use lfsr::StateSpaceLfsr;
use lfsr_parallel::{BlockSystem, DerbyTransform};
use resilience::rng::SplitMix64;
use std::hint::black_box;
use std::time::Instant;
use verify::check_network;
use xornet::synthesize;

/// One per-layer figure: name, value, unit.
pub type Figure = (String, f64, &'static str);

/// Median host nanoseconds per call of `f`, over `samples` spans of
/// `iters` calls each.
fn probe<T>(
    rec: &mut Recorder,
    name: &'static str,
    samples: usize,
    iters: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|i| {
            let s = rec.begin(name, i as u64);
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64 / iters as f64;
            rec.end(s);
            ns
        })
        .collect();
    median(&per_call)
}

/// `bits` cut into whole `m`-bit blocks, as `dream` slices a message.
fn blocks(bits: &BitVec, m: usize) -> Vec<BitVec> {
    (0..bits.len() / m).map(|c| bits.slice(c * m, m)).collect()
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("layer ladder: {what} disagrees with its oracle"))
    }
}

/// Runs every probe once.
///
/// # Errors
///
/// Build failures, fabric errors, and any probe result that disagrees
/// with its oracle.
#[allow(clippy::too_many_lines)]
pub fn run(rec: &mut Recorder, seed: u64) -> Result<Vec<Figure>, String> {
    let mut out: Vec<Figure> = Vec::new();
    let mut rng = SplitMix64::new(seed ^ 0x001A_DDE5);
    let msg = random_bytes(&mut rng, 1500);
    let big = random_bytes(&mut rng, 65536);
    let want = crc_bitwise(eth(), &msg);
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // flow: whole personality builds.
    for (name, m) in CRCS {
        let ns = probe(rec, "flow.build_personality", 3, 1, || {
            build_personality(name, eth(), &FlowOptions::dream_with_m(m))
                .expect("catalogue spec builds")
        });
        out.push((format!("flow.build_ms.m{m}"), ns / 1e6, "ms"));
    }
    let (sname, sm) = SCRAMBLER;
    let ns = probe(rec, "flow.build_scrambler_personality", 3, 1, || {
        build_scrambler_personality(
            sname,
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(sm),
        )
        .expect("802.11 scrambler builds")
    });
    out.push((format!("flow.build_ms.wifi{sm}"), ns / 1e6, "ms"));

    // The M = 128 netlist, stage by stage.
    let opts = FlowOptions::dream_with_m(128);
    let serial = StateSpaceLfsr::crc(&eth().generator()).map_err(|e| err(&e))?;
    let block = BlockSystem::new(&serial, 128).map_err(|e| err(&e))?;
    let derby = DerbyTransform::new(&block).map_err(|e| err(&e))?;
    let ns = probe(rec, "xornet.synthesize", 3, 1, || {
        (
            synthesize(derby.b_mt(), opts.synth),
            synthesize(derby.t(), opts.synth),
        )
    });
    out.push(("xornet.synthesize_ms.m128".into(), ns / 1e6, "ms"));
    let update_net = synthesize(derby.b_mt(), opts.synth);
    let fin_net = synthesize(derby.t(), opts.synth);
    let ns = probe(rec, "verify.check_network", 3, 1, || {
        (
            check_network(&update_net, derby.b_mt()),
            check_network(&fin_net, derby.t()),
        )
    });
    check(
        check_network(&update_net, derby.b_mt()).is_ok(),
        "verify.check_network",
    )?;
    out.push(("verify.check_network_ms.m128".into(), ns / 1e6, "ms"));
    let p128 = build_personality("eth128", eth(), &opts).map_err(|e| err(&e))?;
    let cfgs: Vec<FabricConfig> = std::iter::once(&p128.update)
        .chain(p128.finalize.as_ref())
        .map(FabricConfig::from_op)
        .collect();
    let ns = probe(rec, "analyze.certify", 3, 1, || {
        cfgs.iter().map(certify).count()
    });
    out.push(("analyze.certify_ms.m128".into(), ns / 1e6, "ms"));

    // gf2 / xornet on the M = 128 update matrix.
    let v = BitVec::from_le_bytes(&big[..32], derby.b_mt().cols());
    check(
        update_net.evaluate(&v) == derby.b_mt().mul_vec(&v),
        "xornet.evaluate",
    )?;
    let ns = probe(rec, "gf2.mul_vec", 7, 200, || derby.b_mt().mul_vec(&v));
    out.push(("gf2.mul_vec_ns.m128".into(), ns, "ns"));
    let ns = probe(rec, "xornet.evaluate", 7, 200, || update_net.evaluate(&v));
    out.push(("xornet.evaluate_ns.m128".into(), ns, "ns"));
    let bits = message_bits(eth(), &msg);
    let n128 = (bits.len() / 128) as f64;
    let ns = probe(rec, "gf2.slice", 7, 20, || blocks(&bits, 128));
    out.push(("gf2.slice_ns_per_block".into(), ns / n128, "ns"));

    // lfsr software kernels on 64 KiB.
    let big_want = crc_bitwise(eth(), &big);
    let mut sarwate = SarwateCrc::new(eth()).map_err(|e| err(&e))?;
    check(sarwate.checksum(&big) == big_want, "lfsr.sarwate")?;
    let ns = probe(rec, "lfsr.sarwate", 7, 4, || sarwate.checksum(&big));
    out.push((
        "lfsr.sarwate_ns_per_byte".into(),
        ns / big.len() as f64,
        "ns",
    ));
    let mut slicing = SlicingCrc::new(eth(), 8).map_err(|e| err(&e))?;
    check(slicing.checksum(&big) == big_want, "lfsr.slicing8")?;
    let ns = probe(rec, "lfsr.slicing8", 7, 4, || slicing.checksum(&big));
    out.push((
        "lfsr.slicing8_ns_per_byte".into(),
        ns / big.len() as f64,
        "ns",
    ));

    // A hosted stack for the dream / picoga / resilience rungs.
    let mut rs = build_stack(rec)?;
    let per_byte = msg.len() as f64;
    for (name, m) in CRCS {
        let (got, _) = rs.system_mut().checksum(name, &msg).map_err(|e| err(&e))?;
        check(got == want, "dream.checksum")?;
        let ns = probe(rec, "dream.checksum", 7, 1, || {
            rs.system_mut().checksum(name, &msg)
        });
        out.push((
            format!("dream.checksum_ns_per_byte.m{m}"),
            ns / per_byte,
            "ns",
        ));
    }
    let (got, _) = rs
        .system_mut()
        .checksum_software("eth32", &msg)
        .map_err(|e| err(&e))?;
    check(got == want, "dream.checksum_software")?;
    let ns = probe(rec, "dream.checksum_software", 7, 4, || {
        rs.system_mut().checksum_software("eth32", &msg)
    });
    out.push((
        "dream.checksum_software_ns_per_byte".into(),
        ns / per_byte,
        "ns",
    ));
    for len in [64, 1500] {
        let frame = BitVec::from_le_bytes(&msg[..len], len * 8);
        let ns = probe(rec, "dream.scramble", 7, 1, || {
            rs.system_mut().scramble(sname, 0x5B, &frame)
        });
        out.push((
            format!("dream.scramble_ns_per_byte.b{len}"),
            ns / len as f64,
            "ns",
        ));
    }
    for (name, m) in [CRCS[0], CRCS[2]] {
        let ns = probe(rec, "resilience.checksum_guarded", 8, 1, || {
            rs.checksum_guarded(name, &msg).expect("healthy lane")
        });
        out.push((
            format!("resilience.checksum_guarded_ns_per_byte.m{m}"),
            ns / per_byte,
            "ns",
        ));
    }
    let ns = probe(rec, "resilience.self_check", 7, 1, || {
        rs.self_check().expect("clean fabric")
    });
    out.push(("resilience.self_check_us".into(), ns / 1e3, "us"));

    // picoga: the resident update contexts, driven directly.
    for (name, m) in CRCS {
        rs.system_mut().checksum(name, &msg).map_err(|e| err(&e))?;
        let slot = rs
            .system()
            .slot_of(name, 0)
            .ok_or("update context resident")?;
        let blk = blocks(&bits, m);
        let x0 = BitVec::zeros(32);
        let fabric = rs.system_mut().fabric_mut();
        fabric.switch_to(slot).map_err(|e| err(&e))?;
        let ns = probe(rec, "picoga.run_crc_stream", 7, 1, || {
            fabric
                .run_crc_stream(&x0, blk.iter())
                .expect("update op active")
        });
        out.push((
            format!("picoga.crc_stream_ns_per_block.m{m}"),
            ns / blk.len() as f64,
            "ns",
        ));
        if m != 32 {
            let ns = probe(rec, "picoga.affine_probe", 7, 1, || {
                fabric.affine_probe().expect("update op active")
            });
            out.push((format!("picoga.affine_probe_us.m{m}"), ns / 1e3, "us"));
        }
    }
    let frame = BitVec::from_le_bytes(&msg, msg.len() * 8);
    rs.system_mut()
        .scramble(sname, 0x5B, &frame)
        .map_err(|e| err(&e))?;
    let slot = rs
        .system()
        .slot_of(sname, 2)
        .ok_or("scrambler context resident")?;
    let blk = blocks(&frame, sm);
    let x0 = BitVec::from_u64(0x5B, 7);
    let fabric = rs.system_mut().fabric_mut();
    fabric.switch_to(slot).map_err(|e| err(&e))?;
    let ns = probe(rec, "picoga.run_scrambler_stream", 7, 1, || {
        fabric
            .run_scrambler_stream(&x0, blk.iter())
            .expect("scrambler op active")
    });
    out.push((
        format!("picoga.scrambler_stream_ns_per_block.m{sm}"),
        ns / blk.len() as f64,
        "ns",
    ));
    Ok(out)
}
