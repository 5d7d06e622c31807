//! End-to-end acceptance of the sharded serving deployment through the
//! `picolfsr` facade: open streams across a cluster, migrate one live,
//! drain a shard, kill another, and require every surviving digest to
//! match the software oracle while every loss is typed — never silent.

use picolfsr::cluster::{Cluster, ClusterConfig, DownReason, LossReason, ShardState};
use picolfsr::flow::FlowOptions;
use picolfsr::lfsr::crc::{crc_bitwise, CrcSpec};
use picolfsr::stream::{AdmissionConfig, Priority, StreamOutput};

fn cluster(n: usize, checkpoint_interval: u64) -> Cluster {
    let mut cfg = ClusterConfig::homogeneous(n, AdmissionConfig::default());
    cfg.checkpoint_interval = checkpoint_interval;
    let mut cl = Cluster::new(&cfg);
    let eth = *CrcSpec::by_name("CRC-32/ETHERNET").unwrap();
    cl.host_crc("eth", &eth, FlowOptions::dream_with_m(32))
        .unwrap();
    cl
}

fn payload(tag: u8) -> Vec<u8> {
    (0..48u32)
        .map(|i| (i as u8).wrapping_mul(3) ^ tag)
        .collect()
}

#[test]
fn migrate_drain_kill_and_failover_keep_digests_exact() {
    let spec = CrcSpec::by_name("CRC-32/ETHERNET").unwrap();
    let mut cl = cluster(3, 2);

    // Open one stream per shard-ish; feed the first half everywhere.
    let ids: Vec<u64> = (0..6)
        .map(|_| cl.open_crc("eth", Priority::High, 8).unwrap())
        .collect();
    let data: Vec<Vec<u8>> = (0..6).map(|i| payload(i as u8 * 17 + 1)).collect();
    for (n, &id) in ids.iter().enumerate() {
        cl.feed(id, &data[n][..24]).unwrap();
    }
    cl.tick();
    cl.tick(); // interval 2 ⇒ the sweep has captured everyone

    // Live migration: move stream 0 to a different shard, mid-stream.
    let from = cl.shard_of(ids[0]).unwrap();
    let to = (from + 1) % 3;
    cl.migrate(ids[0], to).unwrap();
    assert_eq!(cl.shard_of(ids[0]), Some(to));

    // Planned drain: fence a shard and run the control loop until it
    // retires empty; its residents must have migrated out live.
    let drained = (to + 1) % 3;
    cl.drain_shard(drained).unwrap();
    for _ in 0..16 {
        cl.tick();
    }
    assert_eq!(
        cl.shard_state(drained),
        Some(ShardState::Down(DownReason::Drained)),
        "a fenced shard must shed everything and retire"
    );
    assert!(ids.iter().all(|&id| cl.shard_of(id) != Some(drained)));

    // Forced kill: every resident of the victim replays from its sweep
    // checkpoint onto survivors.
    let victim = cl.shard_of(ids[1]).unwrap();
    cl.kill_shard(victim).unwrap();
    assert_eq!(
        cl.shard_state(victim),
        Some(ShardState::Down(DownReason::Killed))
    );
    let resumes = cl.take_failover_resumes();
    assert!(
        resumes.iter().any(|r| r.id == ids[1]),
        "the checkpointed resident must have failed over"
    );

    // Clients replay from each resume point, then feed the second half.
    for r in &resumes {
        let n = ids.iter().position(|&id| id == r.id).unwrap();
        let start = usize::try_from(r.resume_from).unwrap();
        assert!(start <= 24, "resume point must be within delivered data");
        if start < 24 {
            cl.feed(r.id, &data[n][start..24]).unwrap();
        }
    }
    for (n, &id) in ids.iter().enumerate() {
        cl.feed(id, &data[n][24..]).unwrap();
    }
    cl.tick();

    for (n, &id) in ids.iter().enumerate() {
        match cl.finish(id).unwrap() {
            StreamOutput::Crc(got) => {
                assert_eq!(
                    got,
                    crc_bitwise(spec, &data[n]),
                    "stream {n} digest drifted"
                );
            }
            other => panic!("CRC stream delivered {other:?}"),
        }
    }
    assert!(cl.losses().is_empty(), "no stream may be lost in this run");
    let c = cl.counters();
    assert!(c.migrations >= 2, "manual + drain migrations: {c:?}");
    assert!(c.failovers >= 1, "the kill must have replayed: {c:?}");
}

#[test]
fn chaos_campaign_heals_and_stays_exact_through_the_facade() {
    use picolfsr::cluster::{run_chaos_storm, ChaosStormConfig};

    // The lib tests cover the full smoke shape; through the facade a
    // reduced campaign proves the public API carries the whole loop:
    // chaos injection, breakers, tokenized retries, a rolling upgrade.
    // The scripted drain, kill and upgrade land before the campaign's
    // ~21 ticks run out.
    let mut cfg = ChaosStormConfig::smoke(77);
    cfg.storm.streams = 48;
    cfg.storm.ticks = 100;
    cfg.storm.drain_tick = 9;
    cfg.storm.kill_tick = 13;
    cfg.storm.crc_ms = vec![8];
    cfg.upgrade_tick = 16;
    cfg.upgrade_shards = vec![2];
    let report = run_chaos_storm(&cfg).unwrap();
    let text = report.render();
    assert!(report.passed(), "chaos campaign failed:\n{text}");
    assert_eq!(report.completed, report.planned);
    assert_eq!(report.dup_violations, 0);
    assert_eq!(report.shard_lines[1].state, "drained", "drain:\n{text}");
    assert_eq!(report.shard_lines[0].state, "killed", "kill:\n{text}");
    assert!(report.counters.failovers >= 1, "failovers:\n{text}");
    assert_eq!(report.upgraded, 1, "rolling upgrade:\n{text}");
    assert!(report.counters.breaker_trips >= 1, "breakers:\n{text}");
    let again = run_chaos_storm(&cfg).unwrap();
    assert_eq!(report.render(), again.render(), "same seed, same campaign");
}

#[test]
fn unswept_streams_die_typed_not_silent() {
    // Sweeps disabled: a killed shard's residents have no checkpoint
    // and must surface as typed `NoCheckpoint` losses.
    let mut cl = cluster(2, 0);
    let id = cl.open_crc("eth", Priority::High, 8).unwrap();
    cl.feed(id, &payload(9)).unwrap();
    cl.tick();
    let victim = cl.shard_of(id).unwrap();
    cl.kill_shard(victim).unwrap();

    let losses = cl.losses();
    assert_eq!(losses.len(), 1);
    assert_eq!(losses[0].id, id);
    assert_eq!(losses[0].reason, LossReason::NoCheckpoint);
    let err = cl.feed(id, &[1, 2, 3]).unwrap_err();
    assert!(
        matches!(
            err,
            picolfsr::cluster::ClusterError::StreamLost {
                reason: LossReason::NoCheckpoint,
                ..
            }
        ),
        "later use of a lost id must name the typed loss, got {err}"
    );
}
