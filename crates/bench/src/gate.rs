//! The regression gate and trend table over the nine deterministic
//! `BENCH_*.json` files: one table (`TABLE`), read by the `bench_gate`
//! binary.
//!
//! Each row names a file, a key in it, an optional gate and an optional
//! trend entry. [`check`] applies every gate to this build's files
//! against the committed baselines; [`render_table`], [`trend_line`] and
//! [`render_history`] show and record the trend rows.
//!
//! A relative gate (floor, ceiling, same) compares a value with its
//! committed baseline, so it passes whenever the two are equal. On files
//! byte-identical to `baselines/` only the absolute gates (zero and
//! at-least) can fail. The relative gates do their work in a change that
//! moves the simulated clock, run on its regenerated files before they
//! are copied into `baselines/`.

use obs::{json_objects, json_section, json_u64};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use Agg::{Count, Max, Sum};
use Direction::{Higher, Lower, Neutral};
use Gate::{AtLeast, Ceiling, Floor, Same, Zero};

/// How a row's current value must relate to its baseline value.
#[derive(Debug, Clone, Copy)]
enum Gate {
    /// Current must be 0 (absolute).
    Zero,
    /// Current may not drop below `baseline × (100 − tol)%`.
    Floor(u64),
    /// Current may not exceed `baseline × (100 + tol)% + slack`.
    Ceiling(u64, u64),
    /// Current must reach this constant (absolute).
    AtLeast(u64),
    /// Current must equal the baseline: a verdict may not flip either way.
    Same,
}

impl Gate {
    /// Whether the gate reads the baseline value at all.
    fn relative(self) -> bool {
        !matches!(self, Zero | AtLeast(_))
    }

    /// Why `cur` breaks the gate against `base`, or `None` when it holds.
    fn breach(self, base: u64, cur: u64) -> Option<String> {
        match self {
            Zero => (cur != 0).then(|| format!("is {cur}, must be 0")),
            Floor(tol) => {
                let floor = base * (100 - tol) / 100;
                (cur < floor).then(|| {
                    format!("{cur} below floor {floor} (baseline {base}, tolerance {tol}%)")
                })
            }
            Ceiling(tol, slack) => {
                let ceiling = base * (100 + tol) / 100 + slack;
                (cur > ceiling).then(|| {
                    format!("{cur} above ceiling {ceiling} (baseline {base}, tolerance {tol}%)")
                })
            }
            AtLeast(min) => (cur < min).then(|| format!("{cur} below the absolute {min} floor")),
            Same => (cur != base).then(|| format!("{cur} differs from baseline {base}")),
        }
    }
}

/// Which way a trend metric should move across changes.
#[derive(Debug, Clone, Copy)]
enum Direction {
    /// Bigger is better: throughput, coverage, survivors.
    Higher,
    /// Smaller is better: latency tails, losses, warnings.
    Lower,
    /// An exercise counter: how much adversity a harness applied, with
    /// no better direction.
    Neutral,
}

impl Direction {
    fn label(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
            Neutral => "-",
        }
    }

    /// `" !"` when a directed metric moved the wrong way, else `""`.
    fn flag(self, base: u64, cur: u64) -> &'static str {
        match self {
            Higher if cur < base => " !",
            Lower if cur > base => " !",
            _ => "",
        }
    }
}

/// A trend entry: the key the metric is stored under in `trend.jsonl`,
/// its label in the tables, and its better direction.
#[derive(Debug, Clone, Copy)]
struct Trend {
    /// Key in `trend.jsonl`.
    slug: &'static str,
    /// Human label.
    label: &'static str,
    /// Which way is better.
    dir: Direction,
}

/// The objects of an array section, told apart by their identity fields.
#[derive(Debug, Clone, Copy)]
struct Objects {
    /// The array's key.
    section: &'static str,
    /// The fields that name one object.
    id: &'static [&'static str],
}

/// An aggregate over the objects of an array section.
#[derive(Debug, Clone, Copy)]
enum Agg {
    /// The largest value of a field.
    Max(&'static str),
    /// The sum of a field.
    Sum(&'static str),
    /// The number of objects.
    Count,
}

/// Where a row's value lives in its file. Values are unsigned integers;
/// booleans read as 0/1.
#[derive(Debug, Clone, Copy)]
enum Key {
    /// A top-level key (its first occurrence), or a dotted path through
    /// nested objects such as `storm.queue_depth.p99`.
    Path(&'static str),
    /// A field of every baseline object, compared with the current
    /// object of the same identity. `None` reads presence instead: 1 when
    /// the current file holds the object, else 0. A field row skips an
    /// object the current file lacks; the presence row reports it.
    Each(Objects, Option<&'static str>),
    /// An aggregate over a section (trend rows only).
    Agg(&'static str, Agg),
}

/// One row of the table.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// File stem, e.g. `BENCH_obs`.
    file: &'static str,
    /// Where the value lives.
    key: Key,
    /// The gate, if the row gates.
    gate: Option<Gate>,
    /// The trend entry, if the row is tracked across changes.
    trend: Option<Trend>,
}

impl Row {
    const fn trend(self, slug: &'static str, label: &'static str, dir: Direction) -> Row {
        let trend = Some(Trend { slug, label, dir });
        Row { trend, ..self }
    }

    /// Tracks the row as a trend metric where higher is better.
    const fn higher(self, slug: &'static str, label: &'static str) -> Row {
        self.trend(slug, label, Higher)
    }

    /// Tracks the row as a trend metric where lower is better.
    const fn lower(self, slug: &'static str, label: &'static str) -> Row {
        self.trend(slug, label, Lower)
    }

    /// Tracks the row as a trend metric with no better direction.
    const fn neutral(self, slug: &'static str, label: &'static str) -> Row {
        self.trend(slug, label, Neutral)
    }

    /// The row's single value in `doc` (`None` for per-object rows or
    /// when absent).
    fn scalar(&self, doc: &str) -> Option<u64> {
        match self.key {
            Key::Path(path) => path_value(doc, path),
            Key::Agg(section, agg) => {
                let objs = json_objects(json_section(doc, section)?);
                match agg {
                    Max(f) => objs.iter().filter_map(|o| json_u64(o, f)).max(),
                    Sum(f) => Some(objs.iter().filter_map(|o| json_u64(o, f)).sum()),
                    Count => Some(objs.len() as u64),
                }
            }
            Key::Each(..) => None,
        }
    }
}

const fn row(file: &'static str, key: Key, gate: Option<Gate>) -> Row {
    Row {
        file,
        key,
        gate,
        trend: None,
    }
}

/// A gated path row.
const fn gate(file: &'static str, path: &'static str, gate: Gate) -> Row {
    row(file, Key::Path(path), Some(gate))
}

/// A path row without a gate.
const fn show(file: &'static str, path: &'static str) -> Row {
    row(file, Key::Path(path), None)
}

/// A gated field of every object of a section.
const fn each(file: &'static str, objs: Objects, field: &'static str, gate: Gate) -> Row {
    row(file, Key::Each(objs, Some(field)), Some(gate))
}

/// The gated presence of every object of a section.
const fn present(file: &'static str, objs: Objects, gate: Gate) -> Row {
    row(file, Key::Each(objs, None), Some(gate))
}

/// An aggregate over a section, without a gate.
const fn agg(file: &'static str, section: &'static str, agg: Agg) -> Row {
    row(file, Key::Agg(section, agg), None)
}

const OBS: &str = "BENCH_obs";
const ANALYZE: &str = "BENCH_analyze";
const STORM: &str = "BENCH_storm";
const CLUSTER: &str = "BENCH_cluster";
const CHAOS: &str = "BENCH_chaos";
const CRASH: &str = "BENCH_crash";
const SCOPE: &str = "BENCH_scope";
const LINT: &str = "BENCH_lint";
const FAULT: &str = "BENCH_fault";

const OBS_POINTS: Objects = Objects {
    section: "catalogue",
    id: &["spec", "m"],
};
const AZ_POINTS: Objects = Objects {
    section: "catalogue",
    id: &["spec", "m", "op"],
};
const MODELS: Objects = Objects {
    section: "model_checking",
    id: &["model"],
};

/// Every gate and trend row, grouped by file. Gates run in this order,
/// and trend rows print in it.
const TABLE: &[Row] = &[
    present(OBS, OBS_POINTS, Floor(0)),
    each(OBS, OBS_POINTS, "throughput_bps", Floor(10)),
    each(OBS, OBS_POINTS, "fill_drain_stalls", Ceiling(10, 2)),
    gate(OBS, "storm.queue_depth.p99", Ceiling(10, 1)),
    agg(OBS, "catalogue", Max("throughput_bps")).higher("obs_peak_bps", "peak throughput (b/s)"),
    present(ANALYZE, AZ_POINTS, Floor(0)),
    each(ANALYZE, AZ_POINTS, "ok", Floor(0)),
    each(ANALYZE, AZ_POINTS, "critical_path", Ceiling(10, 1)),
    each(ANALYZE, AZ_POINTS, "cells", Ceiling(10, 2)),
    present(ANALYZE, MODELS, Floor(0)),
    each(ANALYZE, MODELS, "truncated", Zero),
    each(ANALYZE, MODELS, "passed", Same),
    each(ANALYZE, MODELS, "states", Floor(10)),
    agg(ANALYZE, "catalogue", Count).higher("analyze_points", "catalogue points analysed"),
    agg(ANALYZE, "catalogue", Max("critical_path"))
        .lower("analyze_crit_path", "max critical path (levels)"),
    agg(ANALYZE, "model_checking", Count).higher("mc_models", "models checked"),
    agg(ANALYZE, "model_checking", Sum("states")).higher("mc_states", "model states explored"),
    gate(STORM, "completed", Floor(10)).higher("storm_completed", "streams completed"),
    gate(STORM, "mismatches", Zero),
    gate(STORM, "unfinished", Zero),
    gate(STORM, "faults_injected", Floor(50)).neutral("storm_faults", "faults injected"),
    gate(STORM, "faults_injected", Ceiling(50, 2)),
    gate(STORM, "p99_queue_depth", Ceiling(10, 1)).lower("storm_queue_p99", "queue p99 (chunks)"),
    gate(CLUSTER, "completed", Floor(10)).higher("cluster_completed", "streams completed"),
    gate(CLUSTER, "mismatches", Zero),
    gate(CLUSTER, "losses_unaccounted", Zero),
    gate(CLUSTER, "unfinished", Zero),
    gate(CLUSTER, "migrations", Floor(25)).neutral("cluster_migrations", "live migrations"),
    gate(CLUSTER, "failovers", Floor(25)).neutral("cluster_failovers", "failover replays"),
    show(CLUSTER, "lost_streams").lower("cluster_losses", "typed losses"),
    show(CLUSTER, "checkpoints_stored").neutral("cluster_checkpoints", "checkpoints swept"),
    gate(CHAOS, "completed", Floor(10)).higher("chaos_completed", "streams completed"),
    gate(CHAOS, "mismatches", Zero),
    gate(CHAOS, "losses_unaccounted", Zero),
    gate(CHAOS, "unfinished", Zero),
    gate(CHAOS, "dup_violations", Zero),
    gate(CHAOS, "migrations", Floor(25)),
    gate(CHAOS, "breaker_trips", Floor(25)).neutral("chaos_breaker_trips", "breaker trips"),
    show(CHAOS, "probe_migrations").neutral("chaos_probes", "healing probe migrations"),
    gate(CHAOS, "upgraded", Floor(25)).higher("chaos_upgraded", "shards upgraded"),
    gate(CHAOS, "faults_injected", Floor(25)),
    show(CHAOS, "dups_suppressed").neutral("chaos_dups_suppressed", "duplicates suppressed"),
    show(CRASH, "completed").higher("crash_completed", "streams completed"),
    gate(CRASH, "crashes", Floor(0)),
    gate(CRASH, "recoveries", Floor(0)).neutral("crash_recoveries", "crash recoveries"),
    gate(CRASH, "hasher_ladder_runs", Floor(0)),
    show(CRASH, "frames_replayed").neutral("crash_frames", "journal frames replayed"),
    show(CRASH, "streams_restored").higher("crash_restored", "streams restored"),
    gate(CRASH, "mismatches", Zero).lower("crash_mismatches", "digest mismatches"),
    gate(CRASH, "losses_unaccounted", Zero),
    gate(CRASH, "dup_violations", Zero),
    show(CRASH, "dups_suppressed").neutral("crash_dups_suppressed", "duplicates suppressed"),
    gate(SCOPE, "spans_total", Floor(0)).higher("scope_spans", "causal spans recorded"),
    gate(SCOPE, "open_spans", Zero).lower("scope_open_spans", "open-span leaks"),
    gate(SCOPE, "span_misuse", Zero),
    gate(SCOPE, "balance_violations", Zero),
    gate(SCOPE, "failovers_unrooted", Zero),
    show(SCOPE, "chaos_migrate_p99").lower("scope_migrate_p99", "migration p99 (ticks)"),
    show(SCOPE, "chaos_failover_p99").lower("scope_failover_p99", "failover p99 (ticks)"),
    show(SCOPE, "completed_total").higher("scope_completed", "fleet streams completed"),
    gate(LINT, "errors", Zero),
    gate(LINT, "mapped", Floor(0)).higher("lint_mapped", "mappings verified"),
    gate(LINT, "warnings", Ceiling(10, 2)).lower("lint_warnings", "lint warnings"),
    gate(FAULT, "coverage_bp_standard", AtLeast(9900))
        .higher("fault_coverage_bp", "coverage (basis points)"),
    gate(FAULT, "coverage_bp_standard", Floor(1)),
    gate(FAULT, "wrong_answers_dmr", Zero),
    gate(FAULT, "faulted", Floor(25)),
    gate(FAULT, "semantic", Floor(25)).higher("fault_semantic", "semantic faults"),
];

/// The table's files as read from one directory.
#[derive(Debug, Clone)]
pub struct Files {
    dir: String,
    /// Each file's text, or why it could not be read.
    docs: BTreeMap<&'static str, Result<String, String>>,
}

impl Files {
    /// Reads every file the table names from `dir`.
    #[must_use]
    pub fn read(dir: &str) -> Files {
        let mut docs = BTreeMap::new();
        for row in TABLE {
            docs.entry(row.file).or_insert_with(|| {
                let path = format!("{dir}/{}.json", row.file);
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
            });
        }
        Files {
            dir: dir.to_string(),
            docs,
        }
    }

    fn doc(&self, file: &str) -> Result<&str, String> {
        self.docs[file].as_deref().map_err(Clone::clone)
    }

    fn whence(&self, file: &str) -> String {
        format!("{}/{file}.json", self.dir)
    }

    /// A trend row's value here, `None` when its file or key is absent.
    fn scalar(&self, row: &Row) -> Option<u64> {
        row.scalar(self.doc(row.file).ok()?)
    }

    /// A path row's value; a missing key is an error.
    fn path(&self, file: &str, path: &str) -> Result<u64, String> {
        path_value(self.doc(file)?, path)
            .ok_or_else(|| format!("{}: missing \"{path}\"", self.whence(file)))
    }

    /// The objects of a section with their identities, in file order.
    fn objects(&self, file: &str, objs: Objects) -> Result<Vec<(String, &str)>, String> {
        let section = objs.section;
        let whence = self.whence(file);
        let array = json_section(self.doc(file)?, section)
            .ok_or_else(|| format!("{whence}: no \"{section}\" section"))?;
        json_objects(array)
            .into_iter()
            .map(|obj| {
                let id: Option<Vec<String>> = objs
                    .id
                    .iter()
                    .map(|f| json_section(obj, f).map(|v| format!("{f}={v}")))
                    .collect();
                let id = id.ok_or_else(|| format!("{whence}: malformed {section} entry: {obj}"))?;
                Ok((id.join(" "), obj))
            })
            .collect()
    }
}

/// A value: an unsigned integer, or a boolean read as 0/1.
fn value(obj: &str, key: &str) -> Option<u64> {
    match json_section(obj, key)? {
        "true" => Some(1),
        "false" => Some(0),
        v => v.parse().ok(),
    }
}

/// The value at a top-level key or a dotted path through nested objects.
fn path_value(doc: &str, path: &str) -> Option<u64> {
    let mut keys = path.split('.');
    let (mut obj, mut key) = (doc, keys.next()?);
    for next in keys {
        obj = json_section(obj, key)?;
        key = next;
    }
    value(obj, key)
}

/// Applies every gate of the table to `cur` against `base`. Returns one
/// line per regression, or the first missing file, section or key.
///
/// # Errors
///
/// A file, section or key a gate needs is missing, or a section object
/// lacks an identity field or the gated field.
pub fn check(base: &Files, cur: &Files) -> Result<Vec<String>, String> {
    let mut regressions = Vec::new();
    for row in TABLE {
        let (file, Some(gate)) = (row.file, row.gate) else {
            continue;
        };
        match row.key {
            Key::Path(path) => {
                let c = cur.path(file, path)?;
                let b = if gate.relative() {
                    base.path(file, path)?
                } else {
                    0
                };
                if let Some(why) = gate.breach(b, c) {
                    regressions.push(format!("{file}: {path} {why}"));
                }
            }
            Key::Each(objs, field) => {
                let current: BTreeMap<_, _> = cur.objects(file, objs)?.into_iter().collect();
                for (id, b_obj) in base.objects(file, objs)? {
                    let c_obj = current.get(&id).copied();
                    let (b, c) = match (field, c_obj) {
                        (None, _) => (1, u64::from(c_obj.is_some())),
                        (Some(_), None) => continue,
                        (Some(f), Some(c_obj)) => {
                            let read = |side: &Files, obj: &str| {
                                value(obj, f).ok_or_else(|| {
                                    format!("{}: {id} lacks \"{f}\"", side.whence(file))
                                })
                            };
                            (read(base, b_obj)?, read(cur, c_obj)?)
                        }
                    };
                    if let Some(why) = gate.breach(b, c) {
                        let what = field.map_or("missing from the current file".into(), |f| {
                            format!("{f} {why}")
                        });
                        regressions.push(format!("{file} {} {id}: {what}", objs.section));
                    }
                }
            }
            Key::Agg(..) => {}
        }
    }
    Ok(regressions)
}

fn trend_rows() -> impl Iterator<Item = (&'static Row, Trend)> {
    TABLE.iter().filter_map(|row| Some((row, row.trend?)))
}

/// The baseline-vs-current table of every trend row, with signed deltas;
/// a directed metric that moved the wrong way is flagged `!`. Absent
/// files and keys show as `-`.
#[must_use]
pub fn render_table(base: &Files, cur: &Files) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {:<14} | {:<28} | {:>6} | {:>14} | {:>14} | {:>10} |",
        "report", "metric", "better", "baseline", "current", "delta"
    );
    let _ = writeln!(
        out,
        "|{:-<16}|{:-<30}|{:-<8}|{:-<16}|{:-<16}|{:-<12}|",
        "", "", "", "", "", ""
    );
    let cell = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for (row, t) in trend_rows() {
        let (b, c) = (base.scalar(row), cur.scalar(row));
        let delta = match (b, c) {
            (Some(b), Some(c)) if b > 0 => {
                let pct = (i128::from(c) - i128::from(b)) * 100 / i128::from(b);
                format!("{pct:+}%{}", t.dir.flag(b, c))
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "| {:<14} | {:<28} | {:>6} | {:>14} | {:>14} | {delta:>10} |",
            row.file,
            t.label,
            t.dir.label(),
            cell(b),
            cell(c),
        );
    }
    out
}

/// One `trend.jsonl` line, `{"label":…,"slug":value,…}` in table order,
/// and the number of metrics it holds (absent ones are left out).
#[must_use]
pub fn trend_line(label: &str, cur: &Files) -> (String, usize) {
    let mut line = format!("{{\"label\":\"{label}\"");
    let mut captured = 0;
    for (row, t) in trend_rows() {
        if let Some(v) = cur.scalar(row) {
            let _ = write!(line, ",\"{}\":{v}", t.slug);
            captured += 1;
        }
    }
    line.push_str("}\n");
    (line, captured)
}

/// The cross-change table from the text of `trend.jsonl`: one row per
/// trend metric, one column per recorded label (the most recent six).
/// `None` when the history holds no line.
#[must_use]
pub fn render_history(body: &str) -> Option<String> {
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    let shown = lines
        .get(lines.len().saturating_sub(6)..)
        .filter(|s| !s.is_empty())?;
    let mut out = format!("| {:<28} |", "metric");
    for line in shown {
        // Labels never hold quotes or escapes: `--append` refuses them.
        let label = line
            .split("\"label\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next());
        let _ = write!(out, " {:>12} |", label.unwrap_or("?"));
    }
    let _ = write!(out, "\n|{:-<30}|", "");
    for _ in shown {
        let _ = write!(out, "{:-<14}|", "");
    }
    for (_, t) in trend_rows() {
        let _ = write!(out, "\n| {:<28} |", t.label);
        for line in shown {
            let v = json_u64(line, t.slug).map_or_else(|| "-".to_string(), |v| v.to_string());
            let _ = write!(out, " {v:>12} |");
        }
    }
    out.push('\n');
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baselines() -> Files {
        Files::read(concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines"))
    }

    /// `files` with `file` rewritten by `edit`.
    fn with(files: &Files, file: &'static str, edit: impl Fn(&str) -> String) -> Files {
        let mut out = files.clone();
        let doc = edit(files.doc(file).unwrap());
        out.docs.insert(file, Ok(doc));
        out
    }

    /// `doc` with `value`, a slice of it, replaced by `v`.
    fn splice(doc: &str, value: &str, v: &str) -> String {
        let at = value.as_ptr() as usize - doc.as_ptr() as usize;
        format!("{}{v}{}", &doc[..at], &doc[at + value.len()..])
    }

    /// Sets `key` to `v` in the first object of the `section` array
    /// whose text contains `pick`.
    fn set(doc: &str, section: &str, pick: &str, key: &str, v: &str) -> String {
        let objs = json_objects(json_section(doc, section).expect("section"));
        let obj = objs.iter().find(|o| o.contains(pick)).expect("object");
        splice(doc, json_section(obj, key).expect("key"), v)
    }

    /// Rewrites a top-level key of `file` in `files`.
    fn top(files: &Files, file: &'static str, key: &str, v: u64) -> Files {
        with(files, file, |d| {
            splice(d, json_section(d, key).expect("key"), &v.to_string())
        })
    }

    /// `check` of `cur` against `base`, as the number of regressions.
    fn regressions(base: &Files, cur: &Files) -> usize {
        check(base, cur).unwrap().len()
    }

    #[test]
    fn committed_baselines_pass_against_themselves() {
        let b = baselines();
        assert_eq!(check(&b, &b), Ok(vec![]));
    }

    #[test]
    fn the_table_holds_the_52_gate_rules() {
        let gates: Vec<(&str, Gate)> = TABLE
            .iter()
            .filter_map(|r| Some((r.file, r.gate?)))
            .collect();
        assert_eq!(gates.len(), 52);
        assert_eq!(gates.iter().filter(|(_, g)| !g.relative()).count(), 20);
        let per_file = [
            (OBS, 4),
            (ANALYZE, 8),
            (STORM, 6),
            (CLUSTER, 6),
            (CHAOS, 9),
            (LINT, 3),
            (FAULT, 5),
            (CRASH, 6),
            (SCOPE, 5),
        ];
        for (file, n) in per_file {
            assert_eq!(
                gates.iter().filter(|(f, _)| *f == file).count(),
                n,
                "{file}"
            );
        }
        let slugs: Vec<&str> = trend_rows().map(|(_, t)| t.slug).collect();
        assert_eq!(slugs.len(), 33);
        assert!(!slugs.contains(&"obs_queue_p99"));
        let mut unique = slugs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), slugs.len());
        assert!(trend_rows().all(|(r, _)| !matches!(r.key, Key::Each(..))));
    }

    #[test]
    fn zero_gate_trips_at_one() {
        let b = baselines();
        assert_eq!(regressions(&b, &top(&b, STORM, "mismatches", 0)), 0);
        assert_eq!(regressions(&b, &top(&b, STORM, "mismatches", 1)), 1);
    }

    /// `completed` 480 at 10%: the floor is 432.
    #[test]
    fn floor_passes_at_the_floor_and_fails_one_below() {
        let b = baselines();
        assert_eq!(b.path(CLUSTER, "completed"), Ok(480));
        assert_eq!(regressions(&b, &top(&b, CLUSTER, "completed", 432)), 0);
        assert_eq!(regressions(&b, &top(&b, CLUSTER, "completed", 431)), 1);
    }

    /// `p99_queue_depth` 44 at 10% + 1: the ceiling is 48 + 1 = 49.
    #[test]
    fn ceiling_counts_its_slack() {
        let b = baselines();
        assert_eq!(b.path(STORM, "p99_queue_depth"), Ok(44));
        assert_eq!(regressions(&b, &top(&b, STORM, "p99_queue_depth", 49)), 0);
        assert_eq!(regressions(&b, &top(&b, STORM, "p99_queue_depth", 50)), 1);
    }

    /// With the baseline lowered to 9,000 (relative floor 8,910), only
    /// the absolute 9,900 minimum can fire.
    #[test]
    fn coverage_minimum_is_absolute() {
        let b = top(&baselines(), FAULT, "coverage_bp_standard", 9_000);
        assert_eq!(
            regressions(&b, &top(&b, FAULT, "coverage_bp_standard", 9_900)),
            0
        );
        let low = top(&b, FAULT, "coverage_bp_standard", 9_899);
        let regs = check(&b, &low).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("absolute 9900"), "{regs:?}");
    }

    #[test]
    fn a_missing_catalogue_point_is_a_regression() {
        let b = baselines();
        let cur = with(&b, OBS, |d| {
            let first = json_objects(json_section(d, "catalogue").unwrap())[0];
            d.replacen(&format!("{first},"), "", 1)
        });
        let regs = check(&b, &cur).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("missing from the current file"));
        // A point only the current file has is not.
        assert_eq!(regressions(&cur, &b), 0);
    }

    #[test]
    fn a_clean_point_may_not_turn_unclean() {
        let b = baselines();
        let unclean = with(&b, ANALYZE, |d| set(d, "catalogue", "", "ok", "false"));
        assert_eq!(regressions(&b, &unclean), 1);
        // Unclean in the baseline: either state passes.
        assert_eq!(regressions(&unclean, &unclean), 0);
        assert_eq!(regressions(&unclean, &b), 0);
    }

    #[test]
    fn a_model_verdict_may_not_flip_either_way() {
        let b = baselines();
        let fixed = "\"model\":\"service-fixed\"";
        let bug = "\"model\":\"service-prefix-transact-bug\"";
        let flip = |pick, v| with(&b, ANALYZE, |d| set(d, "model_checking", pick, "passed", v));
        let (failed, passed) = (flip(fixed, "false"), flip(bug, "true"));
        assert_eq!(regressions(&b, &failed), 1);
        assert_eq!(regressions(&b, &passed), 1);
    }

    #[test]
    fn a_truncated_model_is_a_regression() {
        let b = baselines();
        let cur = with(&b, ANALYZE, |d| {
            set(d, "model_checking", "", "truncated", "true")
        });
        assert_eq!(regressions(&b, &cur), 1);
        // Absolute: a truncated baseline does not excuse it.
        assert_eq!(regressions(&cur, &cur), 1);
    }

    #[test]
    fn a_missing_key_or_file_is_an_error_not_a_pass() {
        let b = baselines();
        let cur = with(&b, SCOPE, |d| {
            d.replacen("\"span_misuse\"", "\"renamed\"", 1)
        });
        let err = check(&b, &cur).unwrap_err();
        assert!(err.contains("missing \"span_misuse\""), "{err}");
        let mut gone = b.clone();
        gone.docs
            .insert(LINT, Err("cannot read BENCH_lint.json".into()));
        assert!(check(&b, &gone).is_err());
    }

    #[test]
    fn trend_line_and_history_round_trip() {
        let b = baselines();
        let (line, n) = trend_line("x1", &b);
        assert_eq!(n, 33);
        assert!(line.starts_with("{\"label\":\"x1\",\"obs_peak_bps\":3864150943,"));
        assert!(line.contains("\"storm_queue_p99\":44,") && line.ends_with("}\n"));
        let history = render_history(&line).unwrap();
        assert_eq!(history.lines().count(), 2 + 33);
        assert!(history.contains("| queue p99 (chunks)           |           44 |"));
        assert_eq!(render_history("\n"), None);
    }
}
