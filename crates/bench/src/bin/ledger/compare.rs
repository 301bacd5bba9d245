//! `ledger compare <parent> <change>`: the rule for claiming a gain or
//! clearing a regression, applied per workload × metric over two sets of
//! ledger records.
//!
//! * A change **improved** a metric only when it wins at least 9/10 of the
//!   run pairs (ties count for neither) and the medians differ by more than
//!   the parent's interquartile range.
//! * It **regressed** when its median is worse than the parent's by more
//!   than the metric's bound ([`crate::metrics::END_TO_END`], mirrored in
//!   `BENCHMARK.json`).
//! * A metric is **unresolved** when either side's spread (IQR over median)
//!   exceeds the bound, unless every change run beats every parent run.
//! * Count metrics must repeat exactly; one that does not (the kernels the
//!   two-thread engine returns depend on thread timing) is reported as
//!   varying and supports no verdict.
//! * A metric one side has and the other lacks is **missing**.
//!
//! The change is *clear* when no end-to-end metric or exact layer count
//! regressed, is unresolved, or is missing. Both sides must hold records,
//! all taken with the same run length and tracing setting.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::json::Json;
use crate::metrics::{self, Bound, EXACT_LAYER_COUNTS};
use crate::stats::{median, quartiles, rel_iqr};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Worse by more than `bound` (a share of the parent's median) and by
    /// more than `floor` (absolute) regresses. Without `spread_checked`, a
    /// wide spread does not make it unresolved.
    Bound {
        lower_is_better: bool,
        bound: f64,
        floor: f64,
        spread_checked: bool,
    },
    /// Must repeat exactly.
    Exact { lower_is_better: bool },
    /// No bound: reported, never judged.
    Info,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Same,
    Regressed,
    Unresolved,
    /// A count metric that does not repeat exactly (e.g. the kernels a
    /// multi-threaded search returns depend on thread timing).
    Varies,
    /// Read on one side only.
    Missing,
    Info,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Same => "same",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Varies => "varies",
            Verdict::Missing => "MISSING",
            Verdict::Info => "-",
        }
    }

    fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regressed | Verdict::Unresolved | Verdict::Missing
        )
    }
}

/// Judges one metric. Runs are paired in the order given.
pub fn judge(parent: &[f64], change: &[f64], rule: Rule) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    match rule {
        Rule::Info => Verdict::Info,
        Rule::Exact { lower_is_better } => {
            let repeats = |v: &[f64]| v.iter().all(|&x| x == v[0]);
            if !repeats(parent) || !repeats(change) {
                // A count that does not repeat supports no claim either way.
                Verdict::Varies
            } else if mc == mp {
                Verdict::Same
            } else if (mc < mp) == lower_is_better {
                Verdict::Improved
            } else {
                Verdict::Regressed
            }
        }
        Rule::Bound {
            lower_is_better,
            bound,
            floor,
            spread_checked,
        } => {
            let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
            let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
            if spread_checked && rel_iqr(parent).max(rel_iqr(change)) > bound {
                return if all_better {
                    Verdict::Improved
                } else {
                    Verdict::Unresolved
                };
            }
            let worse = if lower_is_better { mc - mp } else { mp - mc };
            if worse > (bound * mp.abs()).max(floor) {
                return Verdict::Regressed;
            }
            let pairs = parent.len().min(change.len());
            let wins = parent
                .iter()
                .zip(change)
                .filter(|&(&p, &c)| better(c, p))
                .count();
            let [q1, _, q3] = quartiles(parent);
            if pairs > 0 && wins * 10 >= pairs * 9 && better(mc, mp) && (mc - mp).abs() > q3 - q1 {
                Verdict::Improved
            } else {
                Verdict::Same
            }
        }
    }
}

/// Every record file under `path` (a file, or a directory of `.json`
/// files read in name order).
fn load(path: &Path) -> Result<Vec<Json>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let file = entry.map_err(|e| e.to_string())?.path();
            if file.extension().is_some_and(|e| e == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

type Series = BTreeMap<(String, String), Vec<f64>>;

/// `(workload, metric) → value per run`, from end-to-end and per-layer
/// readings alike.
fn series(records: &[Json]) -> Series {
    let mut out = Series::new();
    for record in records {
        for w in record.get("workloads").map_or(&[][..], Json::as_arr) {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
            for section in ["end_to_end", "layers"] {
                if let Some(Json::Obj(metrics)) = w.get(section) {
                    for (metric, reading) in metrics {
                        if let Some(v) = reading.get("value").and_then(Json::as_f64) {
                            out.entry((name.to_string(), metric.clone()))
                                .or_default()
                                .push(v);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The rule for `metric`, and whether its verdict can block.
fn rule_for(metric: &str) -> (Rule, bool) {
    match metrics::end_to_end(metric) {
        Some(m) => {
            let lower_is_better = m.lower_is_better;
            let rule = match m.bound {
                Bound::Share(bound) => Rule::Bound {
                    lower_is_better,
                    bound,
                    floor: 0.0,
                    spread_checked: true,
                },
                Bound::Floor { share, floor } => Rule::Bound {
                    lower_is_better,
                    bound: share,
                    floor,
                    spread_checked: false,
                },
                Bound::Exact => Rule::Exact { lower_is_better },
            };
            (rule, true)
        }
        // Fewer expansions or segments is not in itself better, so a
        // change either way is reported.
        None if EXACT_LAYER_COUNTS.contains(&metric) => (
            Rule::Exact {
                lower_is_better: true,
            },
            true,
        ),
        None => (Rule::Info, false),
    }
}

/// One judged workload × metric.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: Vec<f64>,
    pub change: Vec<f64>,
    pub verdict: Verdict,
    pub blocking: bool,
}

/// The run length and tracing setting of a record.
fn settings(record: &Json) -> String {
    let header = record.get("header");
    let field = |key| {
        header
            .and_then(|h| h.get(key))
            .map_or("?".to_string(), Json::to_string)
    };
    format!("seconds {}, trace {}", field("seconds"), field("trace"))
}

/// Judges every metric either side has.
pub fn compare(parent: &[Json], change: &[Json]) -> Result<Vec<Row>, String> {
    if parent.is_empty() || change.is_empty() {
        return Err("each side needs at least one ledger record".to_string());
    }
    let first = settings(&parent[0]);
    if let Some(other) = parent
        .iter()
        .chain(change)
        .map(settings)
        .find(|s| *s != first)
    {
        return Err(format!(
            "records taken with different settings: {first} against {other}"
        ));
    }
    let (ps, cs) = (series(parent), series(change));
    let keys: BTreeSet<&(String, String)> = ps.keys().chain(cs.keys()).collect();
    Ok(keys
        .into_iter()
        .map(|key| {
            let (rule, blocking) = rule_for(&key.1);
            let (p, c) = (ps.get(key), cs.get(key));
            let verdict = match (p, c) {
                (Some(p), Some(c)) => judge(p, c, rule),
                _ => Verdict::Missing,
            };
            Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                parent: p.cloned().unwrap_or_default(),
                change: c.cloned().unwrap_or_default(),
                verdict,
                blocking,
            }
        })
        .collect())
}

/// Whether no blocking metric regressed, is unresolved, or is missing.
pub fn clear(rows: &[Row]) -> bool {
    !rows.iter().any(|r| r.blocking && r.verdict.fails())
}

fn fmt_side(v: &[f64]) -> String {
    if v.is_empty() {
        return "-".to_string();
    }
    let [q1, q2, q3] = quartiles(v);
    format!("{q2:.6} [{q1:.6}, {q3:.6}] n={}", v.len())
}

/// `ledger compare <parent> <change>`. Returns whether the change is
/// clear.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("usage: ledger compare <parent> <change>".into());
    };
    let rows = compare(&load(Path::new(parent))?, &load(Path::new(change))?)?;
    println!(
        "{:<18} {:<28} {:<44} {:<44} {:>8}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta"
    );
    for row in &rows {
        let delta = match (median(&row.parent), median(&row.change)) {
            (mp, mc) if mp != 0.0 && mp.is_finite() && mc.is_finite() => {
                format!("{:.2}%", 100.0 * (mc - mp) / mp.abs())
            }
            _ => "-".to_string(),
        };
        println!(
            "{:<18} {:<28} {:<44} {:<44} {delta:>8}  {}",
            row.workload,
            row.metric,
            fmt_side(&row.parent),
            fmt_side(&row.change),
            row.verdict.name()
        );
    }
    let clear = clear(&rows);
    println!(
        "# {}",
        if clear {
            "clear: no end-to-end metric or exact count regressed, is unresolved or is missing"
        } else {
            "NOT clear"
        }
    );
    Ok(clear)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Rule = Rule::Bound {
        lower_is_better: true,
        bound: 0.10,
        floor: 0.0,
        spread_checked: true,
    };

    #[test]
    fn improved_needs_nine_of_ten_wins_beyond_the_parents_spread() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let change: Vec<f64> = parent.iter().map(|x| x * 0.95).collect();
        assert_eq!(judge(&parent, &change, LOWER_10), Verdict::Improved);
        // Same medians' gap, but only 8 of 10 pairs won: not a gain.
        let mut mixed = change.clone();
        mixed[0] = 1.05;
        mixed[1] = 1.05;
        assert_eq!(judge(&parent, &mixed, LOWER_10), Verdict::Same);
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02];
        let change: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&parent, &change, LOWER_10), Verdict::Regressed);
        let within: Vec<f64> = parent.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&parent, &within, LOWER_10), Verdict::Same);
        let higher = Rule::Bound {
            lower_is_better: false,
            bound: 0.10,
            floor: 0.0,
            spread_checked: true,
        };
        let fewer: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&parent, &fewer, higher), Verdict::Regressed);
    }

    #[test]
    fn a_loss_under_the_floor_is_no_regression() {
        let setup = Rule::Bound {
            lower_is_better: true,
            bound: 0.10,
            floor: 0.050,
            spread_checked: false,
        };
        // A millisecond set-up that doubles stays under 50 ms...
        assert_eq!(
            judge(&[0.001, 0.001], &[0.002, 0.002], setup),
            Verdict::Same
        );
        // ...a second-long one that grows by 60 ms does not.
        assert_eq!(judge(&[0.5, 0.5], &[0.56, 0.56], setup), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [1.0, 1.5, 0.7, 1.2, 0.8];
        let change = [1.1, 1.4, 0.75, 1.3, 0.9];
        assert_eq!(judge(&parent, &change, LOWER_10), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let far = [0.3, 0.31, 0.29, 0.3, 0.32];
        assert_eq!(judge(&parent, &far, LOWER_10), Verdict::Improved);
        // Judged on medians alone, the same spread is no obstacle.
        let medians_only = Rule::Bound {
            lower_is_better: true,
            bound: 0.10,
            floor: 0.0,
            spread_checked: false,
        };
        let close = [1.05, 1.4, 0.75, 1.3, 0.9];
        assert_eq!(judge(&parent, &close, medians_only), Verdict::Same);
    }

    #[test]
    fn counts_must_repeat_exactly() {
        let exact = Rule::Exact {
            lower_is_better: true,
        };
        assert_eq!(judge(&[7.0, 7.0], &[7.0, 7.0], exact), Verdict::Same);
        assert_eq!(judge(&[7.0, 7.0], &[7.5, 7.5], exact), Verdict::Regressed);
        assert_eq!(judge(&[7.0, 7.0], &[7.0, 7.5], exact), Verdict::Varies);
        assert_eq!(judge(&[7.0, 8.0], &[7.5, 7.5], exact), Verdict::Varies);
        assert_eq!(judge(&[0.0, 0.0], &[0.1, 0.1], exact), Verdict::Regressed);
    }

    /// A record of one run: `(workload, [(metric, value)])`.
    fn record(seconds: f64, workloads: &[(&str, &[(&str, f64)])]) -> Json {
        let rows = workloads.iter().map(|(name, metrics)| {
            let readings = metrics
                .iter()
                .map(|&(m, v)| (m, Json::obj([("value", Json::Num(v))])));
            Json::obj([
                ("name", Json::from(*name)),
                ("end_to_end", Json::obj(readings)),
            ])
        });
        Json::obj([
            (
                "header",
                Json::obj([
                    ("seconds", Json::Num(seconds)),
                    ("trace", Json::Bool(false)),
                ]),
            ),
            ("workloads", Json::Arr(rows.collect())),
        ])
    }

    #[test]
    fn a_series_on_one_side_only_is_missing_and_not_clear() {
        let full = record(
            15.0,
            &[("a", &[("peak_rss_mib", 50.0), ("kernel_cycles", 8.0)])],
        );
        let rows = compare(&[full.clone(), full.clone()], &[full.clone(), full.clone()]).unwrap();
        assert!(clear(&rows));
        // A metric gone from the change's records.
        let partial = record(15.0, &[("a", &[("peak_rss_mib", 50.0)])]);
        let rows = compare(std::slice::from_ref(&full), &[partial]).unwrap();
        let row = rows.iter().find(|r| r.metric == "kernel_cycles").unwrap();
        assert_eq!(row.verdict, Verdict::Missing);
        assert!(!clear(&rows));
        // A workload the parent never ran.
        let more = record(
            15.0,
            &[
                ("a", &[("peak_rss_mib", 50.0), ("kernel_cycles", 8.0)]),
                ("b", &[("peak_rss_mib", 9.0)]),
            ],
        );
        assert!(!clear(
            &compare(std::slice::from_ref(&full), &[more]).unwrap()
        ));
        // A per-layer reading with no bound does not block.
        let layered = record(
            15.0,
            &[(
                "a",
                &[
                    ("peak_rss_mib", 50.0),
                    ("kernel_cycles", 8.0),
                    ("cache.get_s", 1e-6),
                ],
            )],
        );
        assert!(clear(&compare(&[full], &[layered]).unwrap()));
    }

    #[test]
    fn empty_sides_and_mixed_settings_are_refused() {
        let run = record(15.0, &[("a", &[("peak_rss_mib", 50.0)])]);
        let one = std::slice::from_ref(&run);
        assert!(compare(&[], one).is_err());
        assert!(compare(one, &[]).is_err());
        let shorter = record(10.0, &[("a", &[("peak_rss_mib", 50.0)])]);
        let err = compare(&[run], &[shorter]).err().unwrap();
        assert!(err.contains("seconds 15"), "{err}");
    }
}
