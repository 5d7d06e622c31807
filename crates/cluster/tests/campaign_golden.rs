//! Golden fingerprints of the seeded cluster campaigns.
//!
//! The plain, chaos, heterogeneous chaos and crash smoke campaigns run
//! at seeds 2008 and 77, and then again with a 10-tick main phase, so
//! that each also runs its drain phase, which no smoke campaign reaches.
//! Each line records the completed-stream count, the ticks run, and
//! FNV-1a digests of the rendered report, the cluster event trace and
//! the merged metrics export. The committed lines pin every campaign's
//! schedule exactly, so a refactor of the campaign code that moved a
//! single RNG draw, event or counter fails here, at seeds and phases
//! the CI BENCH files do not cover.
//!
//! Regenerate `data/campaign_golden.txt` only in a change that moves a
//! campaign's schedule on purpose, and list the moved lines in
//! CHANGES.md.

use cluster::{
    run_chaos_storm, run_cluster_storm, run_crash_storm, ChaosStormConfig, ClusterStormConfig,
    CrashStormConfig,
};

const GOLDEN: &str = include_str!("data/campaign_golden.txt");
const SEEDS: [u64; 2] = [2008, 77];

/// FNV-1a over the text's bytes.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn line(
    name: &str,
    seed: u64,
    (completed, ticks): (u64, u64),
    render: &str,
    trace: &str,
    metrics: &obs::MetricsSnapshot,
) -> String {
    format!(
        "{name}\tseed={seed}\tcompleted={completed}\tticks={ticks}\trender={:016x}\ttrace={:016x}\tmetrics={:016x}",
        fnv(render),
        fnv(trace),
        fnv(&metrics.to_json_lines())
    )
}

/// One line per (campaign, seed): the smoke campaigns, then each again
/// with a 10-tick main phase whose scripted events all fall inside it,
/// so the drain phase runs (the reopen of drained shards, the plain
/// storm's drain-phase faults, the arrivals it pulls forward).
fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for short in [false, true] {
        let tag = if short { "-drain" } else { "" };
        for seed in SEEDS {
            let mut plain = ClusterStormConfig::smoke(seed);
            let mut chaos = [
                ChaosStormConfig::smoke(seed),
                ChaosStormConfig::hetero(seed),
            ];
            let mut crash = CrashStormConfig::smoke(seed);
            if short {
                shorten(&mut plain);
                for cfg in &mut chaos {
                    shorten(&mut cfg.storm);
                    cfg.upgrade_tick = 4;
                }
                crash.storm.ticks = 10;
                (crash.degrade_tick, crash.heal_tick, crash.fault_tick) = (2, 4, 6);
            }
            let r = run_cluster_storm(&plain).expect("plain storm");
            let run = (r.completed, r.ticks_run);
            let name = format!("plain{tag}");
            out.push(line(
                &name,
                seed,
                run,
                &r.render(),
                &r.trace_log,
                &r.metrics,
            ));
            for (kind, cfg) in ["chaos", "hetero"].into_iter().zip(&chaos) {
                let r = run_chaos_storm(cfg).expect("chaos storm");
                let run = (r.completed, r.ticks_run);
                let name = format!("{kind}{tag}");
                out.push(line(
                    &name,
                    seed,
                    run,
                    &r.render(),
                    &r.trace_log,
                    &r.metrics,
                ));
            }
            let r = run_crash_storm(&crash).expect("crash storm");
            let run = (r.completed, r.ticks_run);
            let name = format!("crash{tag}");
            out.push(line(
                &name,
                seed,
                run,
                &r.render(),
                &r.trace_log,
                &r.metrics,
            ));
        }
    }
    out
}

/// A 10-tick main phase with the scripted drain and kill inside it.
fn shorten(storm: &mut ClusterStormConfig) {
    storm.ticks = 10;
    storm.drain_tick = 3;
    storm.kill_tick = 6;
}

#[test]
fn every_campaign_matches_its_golden_fingerprint() {
    let got = lines();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        got.len(),
        16,
        "four campaigns, two seeds, two phase lengths"
    );
    assert_eq!(got.len(), want.len(), "golden file covers every campaign");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "campaign drifted from its golden fingerprint");
    }
}
