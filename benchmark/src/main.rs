//! The repo benchmark. The driver's command line is
//! `--workload W --seed N --seconds T --trace 0|1`; `compare A B` and
//! `smoke` are the subcommands. README.md has the metric glossary.

mod compare;
mod e2e;
mod harness;
mod json;
mod layers;
mod metrics;
mod probes;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;

const USAGE: &str = "usage:
  brickbench --workload NAME --seed N --seconds T --trace 0|1 [--smoke] [--out DIR]
  brickbench compare DIR_A DIR_B
  brickbench smoke
  brickbench describe
workloads: k1-small k1-large halo2-part halo8-ckpt sim-scale";

/// The `metrics` object of the result line (`{value, unit}` per name,
/// as the driver expects) and of the output files, where `compare`
/// also needs the `measured | modeled | count` tag.
pub fn metrics_json(values: &[(&'static str, f64)], with_kind: bool) -> Json {
    Json::obj(values.iter().map(|&(name, value)| {
        let def = metrics::find(name).expect("every reported metric is in the registry");
        let mut entry = vec![("value", Json::Num(value)), ("unit", Json::str(def.unit))];
        if with_kind {
            entry.push(("kind", Json::str(def.kind.label())));
        }
        (name, Json::obj(entry))
    }))
}

struct RunArgs {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut smoke, mut out) = (false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| (0.0..=600.0).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        // Smoke results must never land in a result set.
        out: out.unwrap_or_else(|| {
            let dir = harness::default_out_dir();
            if smoke {
                dir.join("smoke")
            } else {
                dir
            }
        }),
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let a = parse_run_args(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    // Before any thread exists.
    harness::pin_environment(a.workload)?;
    let outcome = if a.traced {
        layers::run(a.workload, a.seed, a.smoke, &a.out)?
    } else {
        e2e::run(a.workload, a.seed, a.seconds, a.smoke, &a.out)?
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(outcome.correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics_json(&outcome.metrics, false)),
        ])
    );
    Ok(())
}

/// Seconds one run measures; the driver passes it back as `--seconds`.
const RUN_SECONDS: f64 = 12.0;

/// What `BENCHMARK.json` holds, from the registries, so the file cannot
/// drift from the code (a self-test compares them).
fn describe() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |d: &metrics::MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.label())),
        ];
        pairs.extend(d.bound.map(|b| ("bound", Json::Num(b))));
        Json::obj(pairs)
    };
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(metrics::END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(metrics::PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// The metric names a result line must carry, no more and no fewer.
fn check_result_line(line: &str, traced: bool) -> Result<(), String> {
    let result = json::parse(line)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err("result is not correct".to_string());
    }
    let declared = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let printed: Vec<&str> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if printed != declared.iter().map(|d| d.name).collect::<Vec<_>>() {
        return Err(format!(
            "printed metrics {printed:?} are not the declared ones"
        ));
    }
    Ok(())
}

/// Every workload, both kinds of run, at a tenth of the length: the CI
/// check that the benchmark still builds, runs, passes its gates and
/// prints exactly the declared metrics. One child process per run, as
/// in a full run.
fn smoke() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in workloads::WORKLOADS {
        for traced in [false, true] {
            let trace = if traced { "1" } else { "0" };
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w.name,
                    "--seed",
                    "1",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                ])
                .arg("--smoke")
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let checked = match stdout.lines().last() {
                Some(line) if out.status.success() => check_result_line(line, traced),
                _ => Err(format!("exited with {}", out.status)),
            };
            checked.map_err(|e| format!("smoke run of {} (--trace {trace}): {e}", w.name))?;
        }
    }
    println!(
        "smoke: {} workloads, traced and untraced, all correct",
        workloads::WORKLOADS.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(args[1].as_ref(), args[2].as_ref()),
        Some("smoke") if args.len() == 1 => smoke(),
        Some("describe") if args.len() == 1 => {
            print!("{}", describe().pretty());
            Ok(())
        }
        Some(flag) if flag.starts_with("--") => run(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("brickbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .unwrap()
    }

    #[test]
    fn benchmark_json_is_what_describe_prints() {
        assert_eq!(
            benchmark_json(),
            describe(),
            "regenerate with `brickbench describe`"
        );
    }

    /// The contract's limits on names, units and `why` lines.
    #[test]
    fn names_units_and_whys_are_within_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let defs = || metrics::END_TO_END.iter().chain(metrics::PER_LAYER);
        let mut names: Vec<&str> = defs().map(|d| d.name).collect();
        names.extend(workloads::WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
        }
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        for d in defs() {
            assert!(ok(d.unit, "_/%.-", 16), "{}", d.unit);
        }
        for w in workloads::WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        assert!(metrics::END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(metrics::END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!((2..=8).contains(&workloads::WORKLOADS.len()));
        assert!(metrics::PER_LAYER.len() <= 128 && metrics::END_TO_END.len() <= 16);
    }

    /// Both kinds of run print exactly the declared metrics. One cheap
    /// workload in-process here; `brickbench smoke` checks all five.
    #[test]
    fn smoke_run_prints_exactly_the_declared_metrics() {
        let w = workloads::find("k1-small").unwrap();
        harness::pin_environment(w).unwrap();
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest");
        let names = |o: &e2e::Outcome| o.metrics.iter().map(|m| m.0).collect::<Vec<_>>();
        let declared = |d: &[metrics::MetricDef]| d.iter().map(|d| d.name).collect::<Vec<_>>();
        let untraced = e2e::run(w, 1, 0.0, true, &out).unwrap();
        assert!(untraced.correct && untraced.failed == 0);
        assert_eq!(names(&untraced), declared(metrics::END_TO_END));
        let traced = layers::run(w, 1, true, &out).unwrap();
        assert!(traced.correct);
        assert_eq!(names(&traced), declared(metrics::PER_LAYER));
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("metrics", metrics_json(&traced.metrics, false)),
        ]);
        check_result_line(&line.to_string(), true).unwrap();
        assert!(check_result_line(&line.to_string(), false).is_err());
    }
}
