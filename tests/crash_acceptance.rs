//! End-to-end acceptance of crash recovery through the `picolfsr`
//! facade: journal a serving cluster to a simulated disk, cut power
//! mid-flush so the log ends in a torn frame, rebuild the control
//! plane from the surviving bytes alone, and require every digest to
//! match the software oracle — with the half-written record gone and
//! nothing lost silently.

use picolfsr::cluster::{Cluster, ClusterConfig};
use picolfsr::flow::FlowOptions;
use picolfsr::lfsr::crc::{crc_bitwise, CrcSpec};
use picolfsr::stream::{AdmissionConfig, Priority, StreamOutput};
use picolfsr::wal::{CrashKind, FabricHasher, Journal, SharedDisk};

fn payload(tag: u8) -> Vec<u8> {
    (0..48u32)
        .map(|i| (i as u8).wrapping_mul(7) ^ tag)
        .collect()
}

fn hasher() -> FabricHasher {
    FabricHasher::with_m(8).expect("journal fabric lane hosts at M=8")
}

#[test]
fn torn_power_loss_recovers_streams_and_digests_exactly() {
    let spec = *CrcSpec::by_name("CRC-32/ETHERNET").unwrap();
    let mut cfg = ClusterConfig::homogeneous(3, AdmissionConfig::default());
    cfg.checkpoint_interval = 2;

    let disk = SharedDisk::new();
    let mut cl = Cluster::new(&cfg);
    cl.attach_journal(Journal::new(Box::new(disk.clone()), Box::new(hasher())));
    cl.host_crc("eth", &spec, FlowOptions::dream_with_m(32))
        .unwrap();

    let ids: Vec<u64> = (0..4)
        .map(|_| cl.open_crc("eth", Priority::High, 8).unwrap())
        .collect();
    let data: Vec<Vec<u8>> = (0..4u8).map(|i| payload(i * 31 + 5)).collect();
    for (n, &id) in ids.iter().enumerate() {
        cl.feed(id, &data[n][..24]).unwrap();
    }
    cl.tick();
    cl.tick(); // interval 2 ⇒ everyone is anchored, the journal flushed

    // One more stream whose Open record never reaches the platter: the
    // power cut tears its frame in half.
    let late = cl.open_crc("eth", Priority::High, 8).unwrap();
    assert!(
        disk.pending_len() > 7,
        "the late open must still be in the flush window"
    );
    disk.crash(CrashKind::Torn { keep: 7 });
    drop(cl); // everything in memory is gone; only the disk survives

    let (journal, replay) = Journal::recover(Box::new(disk.clone()), Box::new(hasher()));
    assert!(replay.torn_tail, "the half-written frame must stop replay");
    assert!(
        disk.stats().truncated_bytes > 0,
        "recovery must cut the damaged tail so the next epoch replays"
    );
    let (mut cl, report) = Cluster::recover(&cfg, journal, &replay);
    assert_eq!(report.streams_restored, 4, "report: {report:?}");
    assert_eq!(report.streams_lost, 0, "report: {report:?}");
    assert!(cl.losses().is_empty(), "no silent or typed losses here");
    assert!(
        cl.shard_of(late).is_none(),
        "a torn open never durably existed and must not route"
    );

    // Clients rewind to their resume offsets and finish the payloads.
    let resumes = cl.take_failover_resumes();
    assert_eq!(resumes.len(), 4, "every restored stream rewinds once");
    for r in &resumes {
        let n = ids.iter().position(|&id| id == r.id).unwrap();
        let start = usize::try_from(r.resume_from).unwrap();
        assert!(start <= 24, "resume point must be within delivered data");
        cl.feed(r.id, &data[n][start..]).unwrap();
    }
    cl.tick();
    for (n, &id) in ids.iter().enumerate() {
        match cl.finish(id).unwrap() {
            StreamOutput::Crc(got) => {
                assert_eq!(
                    got,
                    crc_bitwise(&spec, &data[n]),
                    "stream {n} digest drifted across the crash"
                );
            }
            other => panic!("CRC stream delivered {other:?}"),
        }
    }
}

#[test]
fn crash_campaign_stays_exact_through_the_facade() {
    use picolfsr::cluster::{run_crash_storm, CrashStormConfig};

    // The lib tests cover the full smoke shape; through the facade a
    // reduced campaign proves the public API carries the whole loop:
    // journaled traffic, whole-cluster crashes, hostile storage,
    // replay, and token-suppressed redelivery.
    let mut cfg = CrashStormConfig::smoke(2008);
    cfg.storm.streams = 48;
    cfg.storm.ticks = 90;
    cfg.storm.crc_ms = vec![8];
    cfg.storm.scrambler_m = 16;
    cfg.degrade_tick = 10;
    cfg.heal_tick = 13;
    cfg.fault_tick = 16;
    let report = run_crash_storm(&cfg).unwrap();
    assert!(
        report.passed(),
        "crash campaign failed:\n{}",
        report.render()
    );
    assert!(
        report.ticks_run > cfg.fault_tick,
        "the SEU tick is in the run"
    );
    assert!(
        report.hasher_software_frames >= 1 && report.hasher_ladder_runs >= 2,
        "the degrade, the heal and the SEU each reached the lane:\n{}",
        report.render()
    );
    assert_eq!(report.completed, report.planned);
    assert_eq!(report.recoveries, report.crashes);
    assert_eq!(report.dup_violations, 0);
    let again = run_crash_storm(&cfg).unwrap();
    assert_eq!(report.render(), again.render(), "same seed, same campaign");
}
