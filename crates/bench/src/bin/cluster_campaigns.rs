//! The seeded cluster campaigns, each run once, and their four BENCH
//! files.
//!
//! * **Cluster storm** (`BENCH_cluster.json`): hundreds of logical
//!   streams over a multi-shard cluster with random live migrations, a
//!   planned drain of one shard and a forced kill of another mid-run, and
//!   fabric faults on every shard. Failover losses must be typed: a
//!   stream the harness never hears about again is a silent loss.
//! * **Chaos storm** (`BENCH_chaos.json`): the same workload under an
//!   adversarial schedule (shard slowdowns that trip circuit breakers,
//!   corrupted and truncated checkpoint transfers mid-migration,
//!   byzantine health probes, fault flaps, admission storms, duplicate
//!   delivery of tokenized operations) and a rolling personality upgrade
//!   mid-chaos.
//! * **Crash storm** (`BENCH_crash.json`): chaos-storm traffic over a
//!   control plane that journals every decision to a simulated disk, with
//!   whole-cluster power losses and a hostile storage layer (torn tail
//!   writes, lost unflushed suffixes, duplicated appends, bit rot in
//!   superseded segments). Each crash is followed by journal replay, and
//!   every durably applied token is redelivered and must be suppressed.
//!   The journal's frames are checksummed through a fabric CRC lane that
//!   the campaign degrades, faults and heals.
//! * **SLO report** (`BENCH_scope.json`) over the chaos and crash runs:
//!   their span tables (via `obs::TraceQuery`), audited by
//!   `analyze::check_span_balance`; migration, failover, drain and
//!   recovery span percentiles in simulated ticks; the scoped-metric
//!   rollup of both deployments (`obs::Rollup`), with WAL volumes and
//!   recovery-ladder residency.
//!
//! Every completed stream's digest is checked against the software
//! oracle. Prints the three campaign renders and the SLO report, then
//! writes the four flat JSON summaries (integers and booleans only,
//! byte-identical across same-seed runs) into `--out-dir`. All four are
//! self-checked before any is written: each `passed` must be a boolean,
//! and every key of the chaos, crash and scope schema lists must parse
//! back as an integer.
//!
//! Usage: `cluster_campaigns [--seed N] [--out-dir DIR]` (seed 2008,
//! directory `.` by default).
//!
//! Exits 1 when a campaign errs, before writing anything; after writing
//! the files, exits 1 when a campaign fails, the crash campaign misses
//! its coverage floor, a span table is unbalanced or a span is still
//! open at campaign end. Exits 2 on a failed self-check.

use analyze::check_span_balance;
use cluster::storm::ShardSummary;
use cluster::{
    run_chaos_storm, run_cluster_storm, run_crash_storm, ChaosStormConfig, ChaosStormReport,
    ClusterError, ClusterStormConfig, ClusterStormReport, CrashStormConfig, CrashStormReport,
};
use obs::{MetricValue, Rollup, ScopeId, TraceQuery, Tracer};
use std::fmt::Write as _;
use std::process::exit;

/// Every integer key of `BENCH_chaos.json` the gate and trend may read.
const CHAOS_SCHEMA_U64: &[&str] = &[
    "seed",
    "shards",
    "planned",
    "completed",
    "restarts",
    "mismatches",
    "losses_unaccounted",
    "unfinished",
    "dup_violations",
    "dups_suppressed",
    "slowdowns",
    "transfers_corrupted",
    "transfers_truncated",
    "byzantine_lies",
    "fault_flaps",
    "admission_storms",
    "faults_injected",
    "upgraded",
    "upgrade_skipped",
    "ticks_run",
    "migrations",
    "migration_retries",
    "failovers",
    "lost_streams",
    "checkpoints_stored",
    "breaker_trips",
    "retry_attempts",
    "retry_backoff_ticks",
    "rebalance_moves",
    "retire_vetoes",
    "shards_reopened",
    "probe_migrations",
];

/// Every integer key of `BENCH_crash.json` the gate and trend may read.
const CRASH_SCHEMA_U64: &[&str] = &[
    "seed",
    "shards",
    "planned",
    "completed",
    "restarts",
    "mismatches",
    "losses_unaccounted",
    "unfinished",
    "dup_violations",
    "dups_suppressed",
    "crashes",
    "recoveries",
    "torn_tails",
    "bit_rots",
    "dup_appends",
    "torn_detected",
    "corrupt_detected",
    "dup_frames_detected",
    "frames_replayed",
    "streams_restored",
    "streams_lost",
    "tokens_restored",
    "migrations_committed",
    "migrations_aborted",
    "in_doubt_suppressed",
    "in_doubt_reapplied",
    "in_doubt_void",
    "hasher_frames",
    "hasher_software_frames",
    "hasher_ladder_runs",
    "storage_torn_tails",
    "storage_bit_rots",
    "storage_lost_suffixes",
    "storage_dup_appends",
    "faults_injected",
    "ticks_run",
    "migrations",
    "failovers",
    "lost_streams",
    "checkpoints_stored",
];

/// Every integer key of `BENCH_scope.json` the gate and trend may read.
const SCOPE_SCHEMA_U64: &[&str] = &[
    "seed",
    "open_spans",
    "span_misuse",
    "balance_violations",
    "failovers_unrooted",
    "spans_total",
    "chaos_completed",
    "chaos_migrate_count",
    "chaos_migrate_p50",
    "chaos_migrate_p99",
    "chaos_migrate_retries",
    "chaos_failover_count",
    "chaos_failover_p50",
    "chaos_failover_p99",
    "chaos_drain_count",
    "chaos_drain_p50",
    "chaos_drain_p99",
    "chaos_upgrade_count",
    "chaos_probe_count",
    "chaos_rebalance_count",
    "crash_completed",
    "crash_crashes",
    "crash_crashed_spans",
    "crash_recover_count",
    "crash_recover_p50",
    "crash_recover_p99",
    "crash_failover_count",
    "crash_failover_p50",
    "crash_failover_p99",
    "wal_frames_appended",
    "wal_flushes",
    "wal_frames_replayed",
    "wal_hasher_frames",
    "wal_hasher_software_frames",
    "wal_hasher_ladder_runs",
    "completed_total",
    "rollup_scopes",
    "rollup_metrics",
];

fn usage() -> ! {
    eprintln!("usage: cluster_campaigns [--seed N] [--out-dir DIR]");
    exit(2);
}

/// A campaign's report, or exit 1 on its error.
fn ran<T>(what: &str, report: Result<T, ClusterError>) -> T {
    report.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        exit(1);
    })
}

fn main() {
    let (mut seed, mut out_dir) = (2008, String::from("."));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--seed", Some(v)) => seed = v.parse().unwrap_or_else(|_| usage()),
            ("--out-dir", Some(v)) => out_dir = v,
            _ => usage(),
        }
    }

    let storm = ran(
        "cluster storm",
        run_cluster_storm(&ClusterStormConfig::smoke(seed)),
    );
    let chaos = ran(
        "chaos storm",
        run_chaos_storm(&ChaosStormConfig::smoke(seed)),
    );
    let crash = ran(
        "crash storm",
        run_crash_storm(&CrashStormConfig::smoke(seed)),
    );
    print!("{}{}{}", storm.render(), chaos.render(), crash.render());
    let (slo, scope_doc, scope_passed) = scope(seed, &chaos, &crash);
    print!("{slo}");

    let docs = [
        ("BENCH_cluster.json", cluster_doc(&storm), &[][..]),
        ("BENCH_chaos.json", chaos_doc(&chaos), CHAOS_SCHEMA_U64),
        ("BENCH_crash.json", crash_doc(&crash), CRASH_SCHEMA_U64),
        ("BENCH_scope.json", scope_doc, SCOPE_SCHEMA_U64),
    ];
    for (file, doc, schema) in &docs {
        if let Some(key) = schema.iter().find(|k| obs::json_u64(doc, k).is_none()) {
            eprintln!("{file}: schema self-check failed: key {key:?} does not parse back");
            exit(2);
        }
        if !doc.contains("\"passed\":true") && !doc.contains("\"passed\":false") {
            eprintln!("{file}: schema self-check failed: no boolean \"passed\" key");
            exit(2);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {out_dir}: {e}");
        exit(1);
    }
    for (file, doc, _) in &docs {
        let path = format!("{out_dir}/{file}");
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        }
    }
    // The directory goes to stderr so that same-seed stdout stays
    // byte-identical across output directories.
    eprintln!("cluster_campaigns: four JSON summaries -> {out_dir}");
    if !(storm.passed() && scope_passed) {
        exit(1);
    }
}

/// The storms' per-shard summary objects.
fn shard_lines(lines: &[ShardSummary]) -> String {
    lines
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"state\":\"{}\",\"opened\":{},\"completed\":{},\"chunks\":{}}}",
                obs::json_escape(&s.name),
                obs::json_escape(s.state),
                s.opened,
                s.completed,
                s.chunks,
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn cluster_doc(report: &ClusterStormReport) -> String {
    let c = &report.counters;
    format!(
        "{{\"bench\":\"cluster_storm\",\"seed\":{},\"shards\":{},\
         \"planned\":{},\"completed\":{},\"restarts\":{},\
         \"lost_no_checkpoint\":{},\"lost_incompatible\":{},\
         \"lost_no_capacity\":{},\"lost_corrupt\":{},\
         \"losses_unaccounted\":{},\"mismatches\":{},\"unfinished\":{},\
         \"faults_injected\":{},\"ticks_run\":{},\
         \"migrations\":{},\"migration_retries\":{},\"drains_started\":{},\
         \"shards_drained\":{},\"shards_down\":{},\"failovers\":{},\
         \"lost_streams\":{},\"checkpoints_stored\":{},\
         \"breaker_trips\":{},\"retry_attempts\":{},\
         \"retry_backoff_ticks\":{},\"rebalance_moves\":{},\
         \"retire_vetoes\":{},\"shards_reopened\":{},\
         \"probe_migrations\":{},\
         \"shard_lines\":[{}],\"passed\":{}}}\n",
        report.seed,
        report.shards,
        report.planned,
        report.completed,
        report.restarts,
        report.lost_no_checkpoint,
        report.lost_incompatible,
        report.lost_no_capacity,
        report.lost_corrupt,
        report.losses_unaccounted,
        report.mismatches,
        report.unfinished,
        report.faults_injected,
        report.ticks_run,
        c.migrations,
        c.migration_retries,
        c.drains_started,
        c.shards_drained,
        c.shards_down,
        c.failovers,
        c.lost_streams,
        c.checkpoints_stored,
        c.breaker_trips,
        c.retry_attempts,
        c.retry_backoff_ticks,
        c.rebalance_moves,
        c.retire_vetoes,
        c.shards_reopened,
        c.probe_migrations,
        shard_lines(&report.shard_lines),
        report.passed(),
    )
}

fn chaos_doc(report: &ChaosStormReport) -> String {
    let c = &report.counters;
    let x = &report.chaos;
    format!(
        "{{\"bench\":\"chaos_storm\",\"seed\":{},\"shards\":{},\
         \"planned\":{},\"completed\":{},\"restarts\":{},\
         \"mismatches\":{},\"losses_unaccounted\":{},\"unfinished\":{},\
         \"dup_violations\":{},\"dups_suppressed\":{},\
         \"slowdowns\":{},\"transfers_corrupted\":{},\
         \"transfers_truncated\":{},\"byzantine_lies\":{},\
         \"fault_flaps\":{},\"admission_storms\":{},\
         \"faults_injected\":{},\"upgraded\":{},\"upgrade_skipped\":{},\
         \"ticks_run\":{},\"migrations\":{},\"migration_retries\":{},\
         \"failovers\":{},\"lost_streams\":{},\"checkpoints_stored\":{},\
         \"breaker_trips\":{},\"retry_attempts\":{},\
         \"retry_backoff_ticks\":{},\"rebalance_moves\":{},\
         \"retire_vetoes\":{},\"shards_reopened\":{},\
         \"probe_migrations\":{},\"shard_lines\":[{}],\"passed\":{}}}\n",
        report.seed,
        report.shards,
        report.planned,
        report.completed,
        report.restarts,
        report.mismatches,
        report.losses_unaccounted,
        report.unfinished,
        report.dup_violations,
        report.dups_suppressed,
        x.slowdowns,
        x.transfers_corrupted,
        x.transfers_truncated,
        x.byzantine_lies,
        x.fault_flaps,
        x.admission_storms,
        report.faults_injected,
        report.upgraded,
        report.upgrade_skipped,
        report.ticks_run,
        c.migrations,
        c.migration_retries,
        c.failovers,
        c.lost_streams,
        c.checkpoints_stored,
        c.breaker_trips,
        c.retry_attempts,
        c.retry_backoff_ticks,
        c.rebalance_moves,
        c.retire_vetoes,
        c.shards_reopened,
        c.probe_migrations,
        shard_lines(&report.shard_lines),
        report.passed(),
    )
}

fn crash_doc(report: &CrashStormReport) -> String {
    let c = &report.counters;
    let x = &report.chaos;
    format!(
        "{{\"bench\":\"crash_storm\",\"seed\":{},\"shards\":{},\
         \"planned\":{},\"completed\":{},\"restarts\":{},\
         \"mismatches\":{},\"losses_unaccounted\":{},\"unfinished\":{},\
         \"dup_violations\":{},\"dups_suppressed\":{},\
         \"crashes\":{},\"recoveries\":{},\"torn_tails\":{},\
         \"bit_rots\":{},\"dup_appends\":{},\"torn_detected\":{},\
         \"corrupt_detected\":{},\"dup_frames_detected\":{},\
         \"frames_replayed\":{},\"streams_restored\":{},\
         \"streams_lost\":{},\"tokens_restored\":{},\
         \"migrations_committed\":{},\"migrations_aborted\":{},\
         \"in_doubt_suppressed\":{},\"in_doubt_reapplied\":{},\
         \"in_doubt_void\":{},\"hasher_frames\":{},\
         \"hasher_software_frames\":{},\"hasher_ladder_runs\":{},\
         \"storage_torn_tails\":{},\"storage_bit_rots\":{},\
         \"storage_lost_suffixes\":{},\"storage_dup_appends\":{},\
         \"faults_injected\":{},\"ticks_run\":{},\"migrations\":{},\
         \"failovers\":{},\"lost_streams\":{},\"checkpoints_stored\":{},\
         \"shard_lines\":[{}],\"exercised\":{},\"passed\":{}}}\n",
        report.seed,
        report.shards,
        report.planned,
        report.completed,
        report.restarts,
        report.mismatches,
        report.losses_unaccounted,
        report.unfinished,
        report.dup_violations,
        report.dups_suppressed,
        report.crashes,
        report.recoveries,
        report.torn_tails,
        report.bit_rots,
        report.dup_appends,
        report.torn_detected,
        report.corrupt_detected,
        report.dup_frames_detected,
        report.frames_replayed,
        report.streams_restored,
        report.streams_lost,
        report.tokens_restored,
        report.migrations_committed,
        report.migrations_aborted,
        report.in_doubt_suppressed,
        report.in_doubt_reapplied,
        report.in_doubt_void,
        report.hasher_frames,
        report.hasher_software_frames,
        report.hasher_ladder_runs,
        x.storage_torn_tails,
        x.storage_bit_rots,
        x.storage_lost_suffixes,
        x.storage_dup_appends,
        report.faults_injected,
        report.ticks_run,
        c.migrations,
        c.failovers,
        c.lost_streams,
        c.checkpoints_stored,
        shard_lines(&report.shard_lines),
        report.exercised(),
        report.passed(),
    )
}

/// Count, p50, p99 and total retries for all closed spans of one op.
fn span_stats(tracer: &Tracer, op: &str) -> (u64, u64, u64, u64) {
    let q = TraceQuery::new(tracer);
    let set = q.spans().by_kind(op).closed();
    (
        set.count() as u64,
        set.duration_percentile(50).unwrap_or(0),
        set.duration_percentile(99).unwrap_or(0),
        set.retries_total(),
    )
}

/// The breaker gauge the cluster publishes for `shard` inside a merged
/// snapshot (`cluster/shard{i}/breaker.state`), or 0 when absent.
fn breaker_rank(snap: &obs::MetricsSnapshot, shard: usize) -> i64 {
    match snap.get(&format!("cluster/shard{shard}/breaker.state")) {
        Some(MetricValue::Gauge(g)) => *g,
        _ => 0,
    }
}

/// The SLO report's per-shard objects.
fn shard_json(metrics: &obs::MetricsSnapshot, lines: &[ShardSummary]) -> String {
    lines
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"name\":\"{}\",\"state\":\"{}\",\"completed\":{},\"chunks\":{},\"breaker\":{}}}",
                obs::json_escape(&s.name),
                obs::json_escape(s.state),
                s.completed,
                s.chunks,
                breaker_rank(metrics, i),
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The SLO report over the chaos and crash runs: its text, its JSON
/// summary, and whether both campaigns passed with balanced span tables
/// and no open span.
fn scope(seed: u64, chaos: &ChaosStormReport, crash: &CrashStormReport) -> (String, String, bool) {
    // ---- span-table audits -------------------------------------------
    let chaos_balance = check_span_balance(&chaos.tracer);
    let crash_balance = check_span_balance(&crash.tracer);
    let open_spans = chaos.spans.open + crash.spans.open;
    let span_misuse = chaos.spans.misuse + crash.spans.misuse;
    let failovers_unrooted = chaos.spans.failovers_unrooted + crash.spans.failovers_unrooted;
    let balance_violations =
        (chaos_balance.violations.len() + crash_balance.violations.len()) as u64;
    let spans_total = chaos.spans.total + crash.spans.total;

    // ---- span percentiles (durations in simulated ticks) -------------
    let (mig_n, mig_p50, mig_p99, mig_retries) = span_stats(&chaos.tracer, "migrate_op");
    let (cfo_n, cfo_p50, cfo_p99, _) = span_stats(&chaos.tracer, "failover_stream");
    let (drn_n, drn_p50, drn_p99, _) = span_stats(&chaos.tracer, "drain");
    let chaos_q = TraceQuery::new(&chaos.tracer);
    let upgrade_count = chaos_q.spans().by_kind("upgrade").count() as u64;
    let probe_count = chaos_q.spans().by_kind("breaker_probe").count() as u64;
    let rebalance_count = chaos_q.spans().by_kind("rebalance").count() as u64;
    let (rec_n, rec_p50, rec_p99, _) = span_stats(&crash.tracer, "wal_recover");
    let (kfo_n, kfo_p50, kfo_p99, _) = span_stats(&crash.tracer, "failover_stream");
    let crash_q = TraceQuery::new(&crash.tracer);
    let crashed_spans = crash_q.spans().by_outcome("crashed").count() as u64;

    // ---- scoped-metric rollup across both deployments -----------------
    let mut rollup = Rollup::new();
    rollup.add(ScopeId::named("chaos"), chaos.metrics.clone());
    rollup.add(ScopeId::named("crash"), crash.metrics.clone());
    let wal_frames_appended = rollup.counter_total("cluster/cluster.wal.frames_appended");
    let wal_flushes = rollup.counter_total("cluster/cluster.wal.flushes");
    let wal_frames_replayed = rollup.counter_total("cluster/cluster.wal.frames_replayed");
    let wal_hasher_frames = rollup.counter_total("cluster/cluster.wal.hasher_frames");
    let wal_hasher_software = rollup.counter_total("cluster/cluster.wal.hasher_software_frames");
    let wal_hasher_ladder = rollup.counter_total("cluster/cluster.wal.hasher_ladder_runs");
    let completed_total = rollup.counter_total("cluster/cluster.completed");
    let merged = rollup.merged();

    let passed = chaos.passed()
        && crash.passed()
        && crash.exercised()
        && chaos_balance.balanced()
        && crash_balance.balanced()
        && open_spans == 0;

    // ---- human-readable SLO report ------------------------------------
    let mut text = String::new();
    let _ = writeln!(text, "cluster report  seed={seed}");
    let _ = writeln!(
        text,
        "spans          total={spans_total} open={open_spans} misuse={span_misuse} \
         unrooted={failovers_unrooted} balance_violations={balance_violations}"
    );
    let _ = writeln!(
        text,
        "migrations     count={mig_n} p50={mig_p50} p99={mig_p99} retries={mig_retries}"
    );
    let _ = writeln!(
        text,
        "failovers      chaos count={cfo_n} p50={cfo_p50} p99={cfo_p99} | \
         crash count={kfo_n} p50={kfo_p50} p99={kfo_p99}"
    );
    let _ = writeln!(
        text,
        "drains         count={drn_n} p50={drn_p50} p99={drn_p99}"
    );
    let _ = writeln!(
        text,
        "control        upgrades={upgrade_count} probes={probe_count} rebalances={rebalance_count} \
         crashed_spans={crashed_spans}"
    );
    let _ = writeln!(
        text,
        "wal_recover    count={rec_n} p50={rec_p50} p99={rec_p99} replays={wal_frames_replayed}"
    );
    let _ = writeln!(
        text,
        "wal            frames={wal_frames_appended} flushes={wal_flushes} \
         hasher_frames={wal_hasher_frames} software={wal_hasher_software} ladder={wal_hasher_ladder}"
    );
    let _ = writeln!(
        text,
        "throughput     completed_total={completed_total} chaos={} crash={}",
        chaos.completed, crash.completed
    );
    for (label, metrics, lines) in [
        ("chaos", &chaos.metrics, &chaos.shard_lines),
        ("crash", &crash.metrics, &crash.shard_lines),
    ] {
        for (i, s) in lines.iter().enumerate() {
            let _ = writeln!(
                text,
                "shard {label}/{:<8} state={:<8} completed={} chunks={} breaker={}",
                s.name,
                s.state,
                s.completed,
                s.chunks,
                breaker_rank(metrics, i)
            );
        }
    }
    let _ = writeln!(
        text,
        "rollup         scopes={} metrics={}",
        rollup.len(),
        merged.len()
    );
    let _ = writeln!(
        text,
        "verdict        {}",
        if passed { "PASS" } else { "FAIL" }
    );

    // ---- flat JSON summary --------------------------------------------
    let doc = format!(
        "{{\"bench\":\"cluster_report\",\"seed\":{seed},\
         \"open_spans\":{open_spans},\"span_misuse\":{span_misuse},\
         \"balance_violations\":{balance_violations},\
         \"failovers_unrooted\":{failovers_unrooted},\
         \"spans_total\":{spans_total},\
         \"chaos_completed\":{},\
         \"chaos_migrate_count\":{mig_n},\"chaos_migrate_p50\":{mig_p50},\
         \"chaos_migrate_p99\":{mig_p99},\"chaos_migrate_retries\":{mig_retries},\
         \"chaos_failover_count\":{cfo_n},\"chaos_failover_p50\":{cfo_p50},\
         \"chaos_failover_p99\":{cfo_p99},\
         \"chaos_drain_count\":{drn_n},\"chaos_drain_p50\":{drn_p50},\
         \"chaos_drain_p99\":{drn_p99},\
         \"chaos_upgrade_count\":{upgrade_count},\
         \"chaos_probe_count\":{probe_count},\
         \"chaos_rebalance_count\":{rebalance_count},\
         \"crash_completed\":{},\"crash_crashes\":{},\
         \"crash_crashed_spans\":{crashed_spans},\
         \"crash_recover_count\":{rec_n},\"crash_recover_p50\":{rec_p50},\
         \"crash_recover_p99\":{rec_p99},\
         \"crash_failover_count\":{kfo_n},\"crash_failover_p50\":{kfo_p50},\
         \"crash_failover_p99\":{kfo_p99},\
         \"wal_frames_appended\":{wal_frames_appended},\
         \"wal_flushes\":{wal_flushes},\
         \"wal_frames_replayed\":{wal_frames_replayed},\
         \"wal_hasher_frames\":{wal_hasher_frames},\
         \"wal_hasher_software_frames\":{wal_hasher_software},\
         \"wal_hasher_ladder_runs\":{wal_hasher_ladder},\
         \"completed_total\":{completed_total},\
         \"rollup_scopes\":{},\"rollup_metrics\":{},\
         \"chaos_shards\":[{}],\"crash_shards\":[{}],\"passed\":{passed}}}\n",
        chaos.completed,
        crash.completed,
        crash.crashes,
        rollup.len(),
        merged.len(),
        shard_json(&chaos.metrics, &chaos.shard_lines),
        shard_json(&crash.metrics, &crash.shard_lines),
    );
    (text, doc, passed)
}
