//! **Trajectory check** — judges the bar-bound rows of
//! `BENCH_trajectory.jsonl` against their experiments' stated bars, so a
//! regression (or an over-claim) is flagged the moment the row lands
//! instead of months later when someone plots the file.
//!
//! The bars, from the experiments' own claims:
//!
//! * `E15-payload-4k`: `grant_speedup_vs_move ≥ 1.0` — the grant path is
//!   the move path minus two payload copies, so it must not lose;
//! * `E16-timed-pairs`: `uncontended_overhead_pct ≤ 5` — a timed op that
//!   never parks never reads the clock (DESIGN.md §13);
//! * `E17-obs-lane`: `overhead_pct ≤ 5` — the always-on counters are
//!   relaxed increments on pre-owned cache lines (DESIGN.md §14).
//!
//! Every bar-bound number is a `Spread` written by [`bq_bench::measure`]
//! and is judged on its **median**; verdict lines print the quartiles
//! beside it. E15 and E16 rows carry their per-pair medians. E17's two
//! sides are two builds, so each lane run appends one `E17-obs-lane` row
//! (`obs`, `mops`); this check pairs each obs-on row with the nearest
//! earlier unpaired obs-off row of the same commit and smoke flag, takes
//! `off / on − 1` per pair, and judges the median over the pairs.
//!
//! **Which rows bind**: full-size rows of the checked-out commit
//! (`run_meta().git_sha`) fail the check (exit 1) when their median is
//! past the bar. Rows of other commits are history and only warn. Smoke
//! rows only warn: `MEMBQ_SMOKE=1` workloads are sized to check plumbing,
//! and percent-level comparisons drown in their noise.
//!
//! Run: `cargo run -p bq-bench --bin trajectory_check [path]`

use std::collections::BTreeMap;

use bq_bench::measure::Spread;
use bq_bench::meta::{json_bool, json_spread, json_str, run_meta};

/// A bar: its text and the test a median must pass.
type Bar = (&'static str, fn(f64) -> bool);

/// The per-row bars: experiment, the `Spread` key its row carries, bar.
const ROW_BARS: [(&str, &str, Bar); 2] = [
    (
        "E15-payload-4k",
        "grant_speedup_vs_move",
        (">= 1", |v| v >= 1.0),
    ),
    (
        "E16-timed-pairs",
        "uncontended_overhead_pct",
        ("<= 5", |v| v <= 5.0),
    ),
];

/// E17's bar on the median of its per-pair overheads, in percent.
const E17_BAR: Bar = ("<= 5", |v| v <= 5.0);

/// E17's state per (commit, smoke): unpaired obs-off medians, per-pair
/// overheads in percent, and the last obs-on row paired.
type E17Pairs = (Vec<f64>, Vec<f64>, usize);

/// One judged number.
#[derive(Debug)]
struct Verdict {
    /// The row judged (for E17, the last obs-on row of its pairs).
    line_no: usize,
    what: String,
    value: Spread,
    bar: &'static str,
    holds: bool,
    /// `None` when the verdict binds; otherwise why it only warns.
    non_binding: Option<String>,
}

impl Verdict {
    fn fails(&self) -> bool {
        !self.holds && self.non_binding.is_none()
    }
}

/// Scan a whole trajectory file with commit `head` checked out. Returns
/// (rows, verdicts, lines of obs-on rows left unpaired).
fn evaluate(text: &str, head: &str) -> (usize, Vec<Verdict>, Vec<usize>) {
    let judge = |line_no, what, value: Spread, (bar, test): Bar, (sha, smoke): (&str, bool)| {
        let non_binding = if smoke {
            Some("smoke row".to_string())
        } else if sha != head {
            Some(format!("commit {sha}"))
        } else {
            None
        };
        let holds = test(value.median);
        Verdict {
            line_no,
            what,
            value,
            bar,
            holds,
            non_binding,
        }
    };
    let (mut rows, mut verdicts, mut unpaired) = (0, Vec::new(), Vec::new());
    let mut e17: BTreeMap<(&str, bool), E17Pairs> = BTreeMap::new();
    for (line_no, line) in (1..).zip(text.lines()) {
        if line.trim().is_empty() {
            continue;
        }
        rows += 1;
        let Some(experiment) = json_str(line, "experiment") else {
            continue;
        };
        let row = (
            json_str(line, "git_sha").unwrap_or("unknown"),
            json_bool(line, "smoke").unwrap_or(false),
        );
        if let Some(&(exp, key, bar)) = ROW_BARS.iter().find(|b| b.0 == experiment) {
            if let Some(value) = json_spread(line, key) {
                verdicts.push(judge(line_no, format!("{exp} {key}"), value, bar, row));
            }
        } else if experiment == "E17-obs-lane" {
            let (Some(obs), Some(mops)) = (json_bool(line, "obs"), json_spread(line, "mops"))
            else {
                continue;
            };
            let (offs, overheads, last_on) = e17.entry(row).or_default();
            if !obs {
                offs.push(mops.median);
            } else if let Some(off) = offs.pop() {
                overheads.push((off / mops.median - 1.0) * 100.0);
                *last_on = line_no;
            } else {
                unpaired.push(line_no);
            }
        }
    }
    for (row, (_, overheads, last_on)) in e17 {
        if !overheads.is_empty() {
            let what = format!("E17-obs-lane overhead_pct over {} pair(s)", overheads.len());
            verdicts.push(judge(last_on, what, Spread::of(&overheads), E17_BAR, row));
        }
    }
    (rows, verdicts, unpaired)
}

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_trajectory.jsonl".to_string());
    let Ok(text) = std::fs::read_to_string(&path) else {
        println!("trajectory_check: no {path} — nothing to check");
        return;
    };
    let head = run_meta().git_sha;
    let (rows, verdicts, unpaired) = evaluate(&text, &head);
    for v in &verdicts {
        let outcome = match (v.holds, v.fails()) {
            (true, _) => "ok",
            (false, true) => "FAIL",
            (false, false) => "warn",
        };
        let why = v
            .non_binding
            .as_deref()
            .map_or(String::new(), |w| format!(" [non-binding: {w}]"));
        println!(
            "{outcome}: {path}:{} {} {:.3} (bar {}){why}",
            v.line_no, v.what, v.value, v.bar
        );
    }
    for line_no in &unpaired {
        println!(
            "warn: {path}:{line_no} E17-obs-lane: obs-on row has no earlier \
             unpaired obs-off row of its commit and smoke flag"
        );
    }
    let failed = verdicts.iter().filter(|v| v.fails()).count();
    println!(
        "trajectory_check: {rows} rows, {} verdicts, {failed} failing (commit {head} binds)",
        verdicts.len()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: &str = "abc123";

    /// A row as `throughput_table` writes it: `fields`, then one `Spread`
    /// under `key`.
    fn row(sha: &str, smoke: bool, fields: &str, key: &str, s: [f64; 3]) -> String {
        format!(
            "{{\"git_sha\":\"{sha}\",\"smoke\":{smoke},\"host_cores\":2,{fields},\
             \"{key}\":{{\"q1\":{},\"median\":{},\"q3\":{}}}}}",
            s[0], s[1], s[2]
        )
    }

    fn e15(sha: &str, smoke: bool, speedup: [f64; 3]) -> String {
        let exp = "\"experiment\":\"E15-payload-4k\"";
        row(sha, smoke, exp, "grant_speedup_vs_move", speedup)
    }

    fn e16(sha: &str, smoke: bool, overhead: [f64; 3]) -> String {
        let exp = "\"experiment\":\"E16-timed-pairs\"";
        row(sha, smoke, exp, "uncontended_overhead_pct", overhead)
    }

    fn lane(sha: &str, smoke: bool, obs: bool, mops: f64) -> String {
        let exp = format!("\"experiment\":\"E17-obs-lane\",\"obs\":{obs}");
        row(sha, smoke, &exp, "mops", [mops; 3])
    }

    #[test]
    fn smoke_outliers_warn_and_full_size_outliers_fail() {
        // Past the bar in every row: only the full-size row of the
        // checked-out commit fails; smoke rows and history warn.
        let log = [
            e15(HEAD, true, [0.4, 0.45, 0.5]),
            e16(HEAD, true, [6.0, 7.0, 8.0]),
            e16("0ld5ha", false, [6.0, 7.0, 8.0]),
            e15(HEAD, false, [0.8, 0.9, 0.95]),
        ]
        .join("\n");
        let (rows, verdicts, _) = evaluate(&log, HEAD);
        assert_eq!(rows, 4);
        assert!(verdicts.iter().all(|v| !v.holds));
        let why: Vec<Option<&str>> = verdicts.iter().map(|v| v.non_binding.as_deref()).collect();
        let smoke = Some("smoke row");
        assert_eq!(why, [smoke, smoke, Some("commit 0ld5ha"), None]);
        let fails: Vec<bool> = verdicts.iter().map(Verdict::fails).collect();
        assert_eq!(fails, [false, false, false, true]);
    }

    #[test]
    fn rows_bind_on_their_median_not_their_quartiles() {
        let e15 = e15(HEAD, false, [0.8, 0.9, 1.1]);
        assert!(evaluate(&e15, HEAD).1[0].fails(), "q3 inside, median out");
        let e16 = e16(HEAD, false, [-1.0, 2.0, 9.0]);
        assert!(!evaluate(&e16, HEAD).1[0].fails(), "q3 out, median inside");
    }

    #[test]
    fn e17_pairs_lane_rows_and_binds_on_the_median_pair_ratio() {
        // Three off/on pairs at +2%, +20%, −1%: the median (+2%) binds,
        // not the +20% outlier and not whichever pair landed last.
        let log = [
            lane(HEAD, false, false, 10.2),
            lane(HEAD, false, true, 10.0),
            lane(HEAD, false, false, 12.0),
            lane(HEAD, false, true, 10.0),
            lane(HEAD, false, false, 9.9),
            lane(HEAD, false, true, 10.0),
        ]
        .join("\n");
        let (_, verdicts, unpaired) = evaluate(&log, HEAD);
        assert!(unpaired.is_empty());
        assert_eq!(verdicts.len(), 1);
        let v = &verdicts[0];
        assert_eq!(v.line_no, 6);
        assert!((v.value.median - 2.0).abs() < 1e-9, "{v:?}");
        assert!(!v.fails());

        // A median past the bar fails.
        let bad = [
            lane(HEAD, false, false, 11.0),
            lane(HEAD, false, true, 10.0),
        ]
        .join("\n");
        assert!(evaluate(&bad, HEAD).1[0].fails());
    }

    #[test]
    fn e17_pairs_only_within_one_commit_and_smoke_flag() {
        let log = [
            lane("0ld5ha", false, false, 12.0),
            lane(HEAD, true, false, 12.0),
            lane(HEAD, false, true, 10.0), // no earlier off row of its own
            lane(HEAD, false, false, 10.0),
            lane(HEAD, false, true, 10.0),
        ]
        .join("\n");
        let (_, verdicts, unpaired) = evaluate(&log, HEAD);
        assert_eq!(unpaired, vec![3], "an on row with no earlier off row");
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].value.median, 0.0, "paired with line 4 only");
    }

    #[test]
    fn in_bar_lines_and_unknown_experiments_pass() {
        let log = [
            e15(HEAD, false, [1.0, 1.2, 1.4]),
            e16(HEAD, false, [-2.0, 0.5, 3.0]),
            "{\"smoke\":false,\"experiment\":\"E10a-pairs\",\"mops\":1.0}".to_string(),
            "not json".to_string(),
            // A scalar headline from before the measure protocol.
            "{\"git_sha\":\"abc123\",\"smoke\":false,\"experiment\":\"E15-payload-4k\",\
             \"grant_speedup_vs_move\":0.5}"
                .to_string(),
        ]
        .join("\n");
        let (rows, verdicts, _) = evaluate(&log, HEAD);
        assert_eq!(rows, 5);
        assert_eq!(verdicts.len(), 2, "{verdicts:?}");
        assert!(verdicts.iter().all(|v| !v.fails()));
    }
}
