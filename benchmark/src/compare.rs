//! `compare A B`: two result sets (directories of output files), one
//! row per workload x end-to-end metric, and the layer metrics below
//! them. This is the A/A acceptance check and what a later PR runs
//! against its parent.

use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{Better, Kind, END_TO_END};
use crate::stats::{median, quartile_spread, quartiles};
use crate::workloads::WORKLOADS;

/// The result files of one directory, parsed.
fn load(dir: &Path) -> Result<Vec<Json>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Every value of `metric` on `workload` among the files of `kind`.
fn values(files: &[Json], kind: &str, workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter(|f| f.get("kind").and_then(Json::as_str) == Some(kind))
        .filter(|f| {
            f.get("stamp")
                .and_then(|s| s.get("workload"))
                .and_then(Json::as_str)
                == Some(workload)
        })
        .filter_map(|f| f.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `worse_by` is B's median against A's as a share of A's, positive
/// when B is worse. A row is unresolved when A's own inter-quartile
/// spread is wider than the bound: the runs cannot tell a change of
/// that size from noise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let v = if a.len() >= 2 && quartile_spread(a) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, v)
}

fn quartile_text(v: &[f64]) -> String {
    if v.len() < 2 {
        return "n=1".to_string();
    }
    let (q1, q3) = quartiles(v);
    format!("[{q1:.4}, {q3:.4}] n={}", v.len())
}

pub fn run(dir_a: &Path, dir_b: &Path) -> Result<(), String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    let (mut worse, mut unresolved, mut mismatched, mut rows, mut layer_sets) = (0, 0, 0, 0, 0);

    println!(
        "end-to-end: A = {}, B = {}",
        dir_a.display(),
        dir_b.display()
    );
    println!(
        "{:<11} {:<13} {:>12} {:<32} {:>12} {:<32} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B worse",
        "bound"
    );
    for w in WORKLOADS {
        for d in END_TO_END {
            let (va, vb) = (
                values(&a, "e2e", w.name, d.name),
                values(&b, "e2e", w.name, d.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            rows += 1;
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let (worse_by, v) = verdict(&va, &vb, d.better, bound);
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<11} {:<13} {:>12.4} {:<32} {:>12.4} {:<32} {:>+7.2}% {:>5.0}%  {}",
                w.name,
                d.name,
                median(&va),
                quartile_text(&va),
                median(&vb),
                quartile_text(&vb),
                worse_by * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }

    println!(
        "\nper-layer (modeled and count values must be bit-identical in every run of A and B):"
    );
    for w in WORKLOADS {
        let tagged = a
            .iter()
            .chain(&b)
            .filter(|f| f.get("kind").and_then(Json::as_str) == Some("layers"))
            .find(|f| {
                f.get("stamp")
                    .and_then(|s| s.get("workload"))
                    .and_then(Json::as_str)
                    == Some(w.name)
            })
            .and_then(|f| f.get("metrics")?.as_obj());
        let Some(tagged) = tagged else { continue };
        layer_sets += 1;
        let mut exact = 0;
        for (name, entry) in tagged {
            let kind = entry
                .get("kind")
                .and_then(Json::as_str)
                .and_then(Kind::parse);
            let (va, vb) = (
                values(&a, "layers", w.name, name),
                values(&b, "layers", w.name, name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            match kind {
                Some(Kind::Measured) | None => {
                    let (ma, mb) = (median(&va), median(&vb));
                    if ma != 0.0 || mb != 0.0 {
                        let change = (mb - ma) / ma * 100.0;
                        println!(
                            "  {:<11} {name:<34} {ma:>16.4} {mb:>16.4} {change:>+8.2}%",
                            w.name
                        );
                    }
                }
                Some(_) => {
                    let first = va[0].to_bits();
                    if va.iter().chain(&vb).all(|v| v.to_bits() == first) {
                        exact += 1;
                    } else {
                        mismatched += 1;
                        println!("  {:<11} {name:<34} MISMATCH A {va:?} B {vb:?}", w.name);
                    }
                }
            }
        }
        println!(
            "  {:<11} {exact} modeled/count metrics bit-identical",
            w.name
        );
    }

    println!(
        "\n{rows} end-to-end rows: {worse} worse, {unresolved} unresolved; {mismatched} exact layer metrics differ"
    );
    if rows == 0 && layer_sets == 0 {
        return Err("no workload has results in both sets".to_string());
    }
    if worse > 0 || mismatched > 0 {
        return Err("B is worse than A beyond a bound, or an exact layer metric moved".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 4% worse, bound 5%.
        assert_eq!(
            verdict(&steady, &[104.0], Better::Lower, 0.05).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &[106.0], Better::Lower, 0.05).1,
            Verdict::Worse
        );
        // Lower is an improvement however large.
        assert_eq!(
            verdict(&steady, &[50.0], Better::Lower, 0.05).1,
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &[90.0], Better::Higher, 0.05).1,
            Verdict::Worse
        );
        // A's quartiles 20% apart: nothing can be said at a 5% bound.
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[100.0], Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        // One run has no spread; the medians decide.
        assert_eq!(
            verdict(&[100.0], &[100.0], Better::Lower, 0.05).1,
            Verdict::Ok
        );
    }
}
