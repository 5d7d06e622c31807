//! Checks `baselines/perf_trend.jsonl`, the host-time record of every
//! perf change, against `BENCHMARK.json`.
//!
//! Each change that measures host time appends one line per workload and
//! end-to-end metric of `BENCHMARK.json`: its parent's and its own
//! median over at least ten alternating pairs, and whether it claimed a
//! gain on that metric. Nothing else reads the lines, so this test is
//! what keeps a hand-appended line well-formed.

use obs::{json_objects, json_section, json_str, json_u64};
use std::collections::{BTreeMap, BTreeSet};

/// The keys every line carries.
const KEYS: [&str; 10] = [
    "pr",
    "workload",
    "metric",
    "unit",
    "seed",
    "pairs",
    "seconds",
    "parent_median",
    "change_median",
    "claimed",
];

fn read(path: &str) -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    std::fs::read_to_string(format!("{root}/{path}")).expect("the file is committed")
}

/// The `"name"` of every object in the array under `key` of `doc`.
fn names<'a>(doc: &'a str, key: &str) -> Vec<&'a str> {
    json_objects(json_section(doc, key).expect("the array exists"))
        .into_iter()
        .map(|o| json_str(o, "name").expect("each entry is named"))
        .collect()
}

#[test]
fn perf_trend_lines_follow_the_benchmark() {
    let bench = read("BENCHMARK.json");
    let workloads = names(&bench, "workloads");
    let units: BTreeMap<&str, &str> = json_objects(json_section(&bench, "end_to_end").unwrap())
        .into_iter()
        .map(|o| (json_str(o, "name").unwrap(), json_str(o, "unit").unwrap()))
        .collect();
    let every: BTreeSet<(&str, &str)> = workloads
        .iter()
        .flat_map(|&w| units.keys().map(move |&m| (w, m)))
        .collect();

    let text = read("baselines/perf_trend.jsonl");
    // Each PR's (workload, metric) rows and its claimed count.
    type Rows<'a> = (Vec<(&'a str, &'a str)>, usize);
    let mut prs: BTreeMap<u64, Rows> = BTreeMap::new();
    let mut last = 0;
    for (n, line) in text.lines().enumerate() {
        let at = format!("line {}: {line}", n + 1);
        for key in KEYS {
            assert!(json_section(line, key).is_some(), "{at}: no {key}");
        }
        let (workload, metric) = (json_str(line, "workload"), json_str(line, "metric"));
        let (workload, metric) = (workload.unwrap(), metric.unwrap());
        assert!(workloads.contains(&workload), "{at}: unknown workload");
        assert_eq!(units.get(metric), json_str(line, "unit").as_ref(), "{at}");
        for key in ["seed", "seconds"] {
            assert!(json_u64(line, key).is_some(), "{at}: {key}");
        }
        assert!(json_u64(line, "pairs").unwrap() >= 10, "{at}: pairs");
        for key in ["parent_median", "change_median"] {
            let v: f64 = json_section(line, key).unwrap().parse().expect("a number");
            assert!(v.is_finite() && v > 0.0, "{at}: {key}");
        }
        let claimed = match json_section(line, "claimed") {
            Some("true") => true,
            Some("false") => false,
            other => panic!("{at}: claimed is {other:?}"),
        };
        let pr = json_u64(line, "pr").unwrap();
        assert!(pr >= last, "{at}: PR numbers never decrease");
        last = pr;
        let (rows, claims) = prs.entry(pr).or_default();
        rows.push((workload, metric));
        *claims += usize::from(claimed);
    }

    assert!(!prs.is_empty(), "the record has lines");
    for (pr, (rows, claims)) in prs {
        let distinct: BTreeSet<_> = rows.iter().copied().collect();
        assert_eq!(distinct.len(), rows.len(), "PR {pr}: a repeated row");
        assert_eq!(distinct, every, "PR {pr}: one row per workload and metric");
        assert_eq!(claims, 1, "PR {pr}: exactly one claimed metric");
    }
}
