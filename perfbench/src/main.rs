//! Two-clock benchmark of the picolfsr stack.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <fabric_bulk|stream_storm|cluster_crash>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload single-threaded for about `--seconds` host
//! seconds, checks every output against its oracle, and prints a report
//! whose last line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones
//! (host time and simulated cycles); with `--trace 1` they are the
//! per-layer ones, from spans the benchmark records around each call
//! into a layer, and the spans are written to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. Exits nonzero on any
//! oracle mismatch or failed operation. See `METRICS.md` for what each
//! metric means and which layer moves it.

mod cluster_crash;
mod fabric_bulk;
mod ladder;
mod pace;
mod report;
mod stats;
mod stream_storm;
mod trace;

use report::{Outcome, RunOpts};
use stats::{median, Ratio, Summary};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use trace::{self_times, Recorder};

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FabricBulk,
    StreamStorm,
    ClusterCrash,
}

const WORKLOADS: [Workload; 3] = [
    Workload::FabricBulk,
    Workload::StreamStorm,
    Workload::ClusterCrash,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::FabricBulk => "fabric_bulk",
            Workload::StreamStorm => "stream_storm",
            Workload::ClusterCrash => "cluster_crash",
        }
    }

    fn run(self, opts: &RunOpts, rec: &mut Recorder) -> Result<Outcome, String> {
        match self {
            Workload::FabricBulk => fabric_bulk::run(opts, rec),
            Workload::StreamStorm => stream_storm::run(opts, rec),
            Workload::ClusterCrash => cluster_crash::run(opts, rec),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Step latencies a run collects at least, so the step p99 has ten
/// samples beyond it.
const MIN_STEPS: usize = 1000;
/// Host seconds of untraced rounds the tracing overhead is measured on.
const OVERHEAD_S: f64 = 3.0;

/// Metrics of one run, in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn metric(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.push((name.to_string(), value, unit));
}

/// The end-to-end metrics of an untraced run. Host figures are taken
/// per round, paced by that round (see [`pace`]), and reported as their
/// median over rounds; `setup_s` is the median of builds spread over the
/// run.
fn end_to_end(out: &Outcome, text: &mut String) -> Metrics {
    let step = Summary::of(&out.step_us);
    let (p50s, p90s): (Vec<f64>, Vec<f64>) = out.round_steps.iter().copied().unzip();
    let mut m = Metrics::new();
    metric(&mut m, "setup_s", median(&out.setup_s), "s");
    metric(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    metric(&mut m, "crc_MBps", median(&out.crc_mbps), "MB/s");
    metric(&mut m, "scramble_MBps", median(&out.scramble_mbps), "MB/s");
    metric(&mut m, "streams_per_s", median(&out.streams_per_s), "1/s");
    metric(&mut m, "step_us_p50", median(&p50s), "us");
    metric(&mut m, "step_us_p90", median(&p90s), "us");
    let _ = writeln!(
        text,
        "pace          median={} over {} rounds (reference speed; 1 = nominal)",
        median(&out.pace),
        out.pace.len()
    );
    let _ = writeln!(
        text,
        "sim_gbps      {} (round 0, simulated clock)",
        out.sim_gbps()
    );
    let _ = writeln!(
        text,
        "samples       rounds={} setups={} steps={}",
        out.round_s.len(),
        out.setup_s.len(),
        step.n,
    );
    let _ = writeln!(
        text,
        "step_us       whole run: p50={} p90={} {}={} (n={})",
        step.p50,
        step.p90,
        step.tail_label(),
        step.tail,
        step.n
    );
    if !out.recover_ms.is_empty() {
        let rec = Summary::of(&out.recover_ms);
        let _ = writeln!(
            text,
            "recover_ms    p50={:.3} {}={:.3} n={}",
            rec.p50,
            rec.tail_label(),
            rec.tail,
            rec.n
        );
    }
    for (part, base, label) in [
        ("stream.refused", "stream.attempts", "refused_ratio"),
        ("cluster.refused", "cluster.attempts", "refused_ratio"),
    ] {
        if let Some(&b) = out.sim.get(base) {
            let r = Ratio {
                part: out.sim.get(part).copied().unwrap_or(0),
                base: b,
            };
            let _ = writeln!(text, "{label}  {:.6} ({} of {})", r.value(), r.part, r.base);
        }
    }
    m
}

/// Simulated counter `key` from the first outcome that has it.
fn sim_of(outs: &[&Outcome], key: &str) -> f64 {
    outs.iter()
        .find_map(|o| o.sim.get(key))
        .map_or(0.0, |&v| v as f64)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    outs: &[&Outcome],
    rec: &Recorder,
    ladder: Vec<ladder::Figure>,
    overhead_pct: f64,
    text: &mut String,
) -> Metrics {
    let main = outs[0];
    let mut m: Metrics = ladder;
    m.extend(outs.iter().flat_map(|o| o.layer.iter().cloned()));
    metric(&mut m, "picoga.sim_gbps", main.sim_gbps(), "Gbit/s");
    metric(
        &mut m,
        "picoga.host_ns_per_sim_cycle",
        main.round_s[0] * 1e9 / main.sim_cycles().max(1) as f64,
        "ns",
    );
    for key in [
        "picoga.compute_cycles",
        "picoga.context_switch_cycles",
        "picoga.context_load_cycles",
        "picoga.stall_cycles",
        "dream.cache_hits",
        "dream.cache_misses",
        "dream.cache_evictions",
        "resilience.self_checks",
        "resilience.ladder_runs",
        "resilience.software_runs",
    ] {
        metric(&mut m, key, sim_of(outs, key), "count");
    }
    let hits = sim_of(outs, "dream.cache_hits");
    let lookups = hits + sim_of(outs, "dream.cache_misses");
    metric(&mut m, "dream.cache_lookups", lookups, "count");
    metric(
        &mut m,
        "dream.cache_hit_ratio",
        hits / lookups.max(1.0),
        "ratio",
    );

    // Host latency of each API call the client loops make, from its span.
    for (layer, calls) in [
        ("stream", &["open", "feed", "tick", "finish", "resume"][..]),
        ("cluster", &["tick", "feed", "migrate", "finish"][..]),
    ] {
        for call in calls {
            let s = Summary::of(&rec.durations_us(&format!("{layer}.{call}")));
            metric(&mut m, &format!("{layer}.{call}_us_p50"), s.p50, "us");
            metric(
                &mut m,
                &format!("{layer}.{call}_calls"),
                s.n as f64,
                "count",
            );
            if *call == "tick" {
                if s.tail_p != Some(99.0) {
                    let _ = writeln!(
                        text,
                        "{layer}.tick_us_p99 is the {} ({} ticks)",
                        s.tail_label(),
                        s.n
                    );
                }
                metric(&mut m, &format!("{layer}.tick_us_p99"), s.tail, "us");
            }
        }
    }
    for key in [
        "stream.chunks_processed",
        "stream.checkpoints",
        "stream.restores",
        "stream.parked_idle",
        "stream.degraded_low_priority",
        "stream.fault_rollbacks",
        "stream.rejected",
        "stream.queue_depth_p99",
    ] {
        metric(&mut m, key, sim_of(outs, key), "count");
    }
    let attempts = sim_of(outs, "stream.attempts");
    metric(&mut m, "stream.attempts", attempts, "count");
    metric(
        &mut m,
        "stream.refused_ratio",
        sim_of(outs, "stream.refused") / attempts.max(1.0),
        "ratio",
    );

    let ms = |span: &str| Summary::of(&rec.durations_us(span)).p50 / 1e3;
    metric(&mut m, "cluster.recover_ms_p50", ms("bench.recover"), "ms");
    metric(
        &mut m,
        "cluster.recover_fold_ms_p50",
        ms("cluster.recover"),
        "ms",
    );
    metric(&mut m, "wal.replay_ms_p50", ms("wal.recover"), "ms");
    metric(
        &mut m,
        "obs.metrics_merged_ms",
        ms("obs.metrics_merged"),
        "ms",
    );
    metric(
        &mut m,
        "cluster.recoveries",
        rec.durations_us("bench.recover").len() as f64,
        "count",
    );
    for key in [
        "cluster.migrations",
        "cluster.failovers",
        "cluster.checkpoints_stored",
        "cluster.losses",
        "cluster.dups_suppressed",
        "cluster.active_shards_end",
        "wal.frames_appended",
        "wal.bytes_appended",
        "wal.frames_replayed",
        "wal.hasher_software_frames",
    ] {
        metric(&mut m, key, sim_of(outs, key), "count");
    }
    metric(&mut m, "bench.trace_overhead_pct", overhead_pct, "%");

    let _ = writeln!(text, "self time     (span: calls, total ms, self ms)");
    for (name, t) in self_times(rec.spans()) {
        let _ = writeln!(
            text,
            "  {name:<34} {:>8} {:>12.3} {:>12.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    m
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_outcome(name: &str, out: &Outcome, text: &mut String) {
    let _ = writeln!(text, "workload      {name}");
    let fails: Vec<String> = out
        .failures
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let ratio = Ratio {
        part: out.failed(),
        base: out.attempted,
    };
    let _ = writeln!(
        text,
        "failed_ratio  {} ({} of {} attempted; {})",
        ratio.value(),
        ratio.part,
        ratio.base,
        fails.join(" ")
    );
    for (k, v) in &out.sim {
        let _ = writeln!(text, "sim {k:<34} {v}");
    }
    let _ = writeln!(text, "sim.digest    {:016x}", out.sim_digest());
}

fn run(args: &Args) -> Result<(Metrics, u64, u64, String), String> {
    let mut text = String::new();
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds as f64,
        min_steps: MIN_STEPS,
    };
    if !args.trace {
        let out = args.workload.run(&opts, &mut Recorder::new(false))?;
        report_outcome(args.workload.name(), &out, &mut text);
        let m = end_to_end(&out, &mut text);
        return Ok((m, out.attempted, out.failed(), text));
    }

    // Untraced reference for the tracing overhead: the first rounds of
    // the same run, after a warm-up round so neither side starts cold.
    let quiet = || Recorder::new(false);
    args.workload
        .run(&RunOpts::single(args.seed), &mut quiet())?;
    let reference = args.workload.run(
        &RunOpts {
            seconds: OVERHEAD_S,
            min_steps: 0,
            ..opts
        },
        &mut quiet(),
    )?;
    let mut rec = Recorder::new(true);
    let main = args.workload.run(&opts, &mut rec)?;
    // Round k has the same inputs on both sides, so compare round by
    // round, each at its own pace.
    let paced = |o: &Outcome| -> Vec<f64> {
        o.round_wall_s
            .iter()
            .zip(&o.pace)
            .map(|(w, p)| w / p)
            .collect()
    };
    let paired: Vec<f64> = paced(&main)
        .iter()
        .zip(&paced(&reference))
        .map(|(traced, quiet)| traced / quiet)
        .collect();
    let overhead_pct = (median(&paired) - 1.0) * 100.0;
    // Every other workload too, so each layer is measured; the storms
    // for enough ticks that their tick spans have a true p99.
    let mut extras = Vec::new();
    for w in WORKLOADS.into_iter().filter(|&w| w != args.workload) {
        let extra = RunOpts {
            seconds: 0.0,
            min_steps: if w == Workload::FabricBulk {
                0
            } else {
                MIN_STEPS
            },
            ..opts
        };
        extras.push(w.run(&extra, &mut rec)?);
    }
    let ladder = ladder::run(&mut rec, args.seed)?;

    let outs: Vec<&Outcome> = std::iter::once(&main).chain(&extras).collect();
    report_outcome(args.workload.name(), &main, &mut text);
    let m = per_layer(&outs, &rec, ladder, overhead_pct, &mut text);
    let attempted = outs.iter().map(|o| o.attempted).sum();
    let failed = outs.iter().map(|o| o.failed()).sum();

    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(dir)
        .and_then(|()| {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
            rec.write_jsonl(&mut w)?;
            w.flush()
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(
        text,
        "spans         {} -> {}",
        rec.spans().len(),
        path.display()
    );
    Ok((m, attempted, failed, text))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fabric_bulk|stream_storm|cluster_crash> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, attempted, failed, text)) => {
            print!("{text}");
            for (name, value, unit) in &metrics {
                println!("metric {name:<44} {value} {unit}");
            }
            if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: metric {name} is not a finite number");
                return ExitCode::FAILURE;
            }
            let correct = failed == 0;
            println!("{}", json(correct, attempted.max(1), failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {failed} of {attempted} operations failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
