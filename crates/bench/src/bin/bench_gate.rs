//! The regression gate and trend over the nine deterministic
//! `BENCH_*.json` files, driven by one table (`bench::gate::TABLE`).
//!
//! * `bench_gate` applies every gate to the files in the working
//!   directory against `baselines/`, prints the baseline-vs-current trend
//!   table, then lists any regression. Exits 1 on a regression and 2 on a
//!   missing file or key.
//! * `bench_gate --append LABEL` appends the working directory's trend
//!   metrics to `baselines/trend.jsonl` as one line.
//! * `bench_gate --history` prints the trend metrics of the last six
//!   lines of `baselines/trend.jsonl`.

use bench::gate::{check, render_history, render_table, trend_line, Files};
use std::process::exit;

const BASELINES: &str = "baselines";
const TREND: &str = "baselines/trend.jsonl";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => gate(),
        ["--append", label] => append(label),
        ["--history"] => history(),
        _ => {
            eprintln!("usage: bench_gate [--append LABEL | --history]");
            exit(2);
        }
    }
}

fn gate() {
    let (base, cur) = (Files::read(BASELINES), Files::read("."));
    let verdict = check(&base, &cur);
    print!("{}", render_table(&base, &cur));
    match verdict {
        Ok(regressions) if regressions.is_empty() => {
            println!("bench_gate: no regressions against {BASELINES}/");
        }
        Ok(regressions) => {
            eprintln!("{} regression(s) against {BASELINES}/:", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            exit(1);
        }
        Err(e) => {
            eprintln!("{e}");
            exit(2);
        }
    }
}

fn append(label: &str) {
    if label.is_empty() || label.contains(['"', '\\']) || label.len() > 64 {
        eprintln!("--append label must be 1..=64 chars without quotes or backslashes");
        exit(2);
    }
    let (line, captured) = trend_line(label, &Files::read("."));
    let prior = std::fs::read_to_string(TREND).unwrap_or_default();
    if let Err(e) = std::fs::write(TREND, prior + &line) {
        eprintln!("cannot append to {TREND}: {e}");
        exit(1);
    }
    println!("bench_gate: appended {captured} metric(s) as \"{label}\" -> {TREND}");
}

fn history() {
    let body = std::fs::read_to_string(TREND).unwrap_or_default();
    match render_history(&body) {
        Some(table) => print!("{table}"),
        None => println!("no history at {TREND} yet (run with --append LABEL to start one)"),
    }
}
