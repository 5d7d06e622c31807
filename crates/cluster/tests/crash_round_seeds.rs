//! Crash storms at round seeds where a copy of the campaign loop failed.
//!
//! perfbench's `cluster_crash` workload runs its own copy of the crash
//! storm loop, one round per derived seed. At seed 97, its round 2,409
//! (round seed 5,750,574,728,957,978,654) ends with 68 of 160 streams
//! unfinished. The library's campaign on the same round seed must
//! complete every stream, so the defect lies in that copy, not here.

use cluster::{run_crash_storm, CrashStormConfig};

#[test]
fn perfbench_seed_97_round_2409_completes_every_stream() {
    let r = run_crash_storm(&CrashStormConfig::smoke(5_750_574_728_957_978_654))
        .expect("the campaign runs");
    assert_eq!((r.completed, r.planned), (160, 160), "{}", r.render());
    assert_eq!(r.unfinished, 0);
    assert!(r.passed(), "{}", r.render());
}
