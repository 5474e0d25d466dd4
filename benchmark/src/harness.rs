//! What both kinds of run share: environment pinning and the stamp
//! written into every output file, the in-memory span recorder, and
//! the checked `run_experiment` call whose failures feed `failed`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use packfree::experiment::{run_experiment, ExperimentConfig, MethodReport};

use crate::json::Json;
use crate::workloads::{Workers, Workload};

/// Variables that would change what a workload runs; cleared at
/// start-up so a result never depends on the caller's shell.
const CLEARED: &[&str] = &[
    "NETSIM_BACKEND",
    "NETSIM_STACK_BYTES",
    "BRICK_FULL",
    "BRICK_STEPS",
    "BRICK_CHAOS_SEED",
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the thread-count variables per the workload table and clear the
/// rest. Must run before any thread exists: the product reads them on
/// every cluster spawn.
pub fn pin_environment(w: &Workload) -> Result<(), String> {
    let n = nproc();
    let busy = w.busy_threads(n);
    if busy > n {
        return Err(format!(
            "{} keeps {busy} threads busy but this machine has {n}",
            w.name
        ));
    }
    for var in CLEARED {
        std::env::remove_var(var);
    }
    std::env::set_var("NETSIM_WORKERS", w.netsim_workers(n).to_string());
    // sim-scale measures the scheduler, so its kernels stay on the
    // worker that runs the rank.
    let rayon = if w.workers == Workers::Nproc { 1 } else { n };
    std::env::set_var("RAYON_NUM_THREADS", rayon.to_string());
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was taken; the head of every output file.
pub fn stamp(w: &Workload, cfg: &ExperimentConfig, seed: u64, smoke: bool) -> Json {
    let env = |k: &str| Json::str(std::env::var(k).unwrap_or_default());
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("steps", Json::Num(cfg.steps as f64)),
        ("warmup", Json::Num(cfg.warmup as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        // The driver's checkout is not a git repository.
        (
            "git_sha",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("NETSIM_WORKERS", env("NETSIM_WORKERS")),
        ("RAYON_NUM_THREADS", env("RAYON_NUM_THREADS")),
        (
            "rayon",
            Json::str("sequential stand-in (benchmark/standins)"),
        ),
    ])
}

/// `benchmark/out` from the repo root (where the driver runs), `out`
/// from inside `benchmark/`.
pub fn default_out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Results are also printed, so a read-only checkout costs the file,
/// not the run.
pub fn write_out(dir: &std::path::Path, file: &str, body: &Json) {
    let path = dir.join(file);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body.pretty()));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(f64::NAN);
    kb / 1024.0
}

/// SplitMix64: orders operations from `--seed`.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory spans around the calls the benchmark makes; written out
/// once, at exit. Disabled (a plain call-through) in end-to-end runs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        r
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, self_ns)| {
                    Json::obj([
                        ("name", Json::str(s.name.as_str())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_ns", Json::Num(self_ns as f64)),
                        ("workload", Json::str(workload)),
                    ])
                })
                .collect(),
        )
    }
}

/// One successful `run_experiment` call.
pub struct Run {
    pub report: MethodReport,
    /// Host seconds around the call.
    pub wall: f64,
}

impl Run {
    pub fn vstep_us(&self) -> f64 {
        self.report.step_time() * 1e6
    }

    pub fn vcomm_us(&self) -> f64 {
        self.report.comm_time() * 1e6
    }

    pub fn bits(&self) -> u64 {
        self.report.checksum.to_bits()
    }

    /// Host microseconds per step of a block of `cfg`, with the
    /// set-up's share of the wall time taken out.
    pub fn host_step_us(&self, setup_s: f64, cfg: &ExperimentConfig) -> f64 {
        (self.wall - setup_s) / (cfg.steps + cfg.warmup - 1) as f64 * 1e6
    }
}

/// Runs operations for one workload and keeps the attempted/failed
/// count. An operation is one `run_experiment` call; it fails if it
/// panics, returns a non-finite timer, or its checksum bits differ from
/// the reference it was given.
pub struct Harness {
    pub workload: &'static Workload,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
}

impl Harness {
    pub fn new(workload: &'static Workload, traced: bool) -> Harness {
        Harness {
            workload,
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(traced),
        }
    }

    pub fn op(
        &mut self,
        name: &str,
        cfg: &ExperimentConfig,
        want_bits: Option<u64>,
    ) -> Option<Run> {
        self.attempted += 1;
        let outcome = self.tracer.span(name, |_| {
            let t0 = Instant::now();
            let report = catch_unwind(AssertUnwindSafe(|| run_experiment(cfg)));
            (report, t0.elapsed().as_secs_f64())
        });
        let problem = match &outcome {
            (Err(_), _) => Some("panicked".to_string()),
            (Ok(r), _) => {
                let t = &r.timers;
                let finite = [t.calc, t.pack, t.call, t.wait, r.step_time(), r.checksum]
                    .iter()
                    .all(|v| v.is_finite());
                match want_bits {
                    _ if !finite => Some("non-finite timers or checksum".to_string()),
                    Some(want) if want != r.checksum.to_bits() => Some(format!(
                        "checksum bits {:#x}, reference {want:#x}",
                        r.checksum.to_bits()
                    )),
                    _ => None,
                }
            }
        };
        if let Some(problem) = problem {
            self.failed += 1;
            eprintln!("FAILED op {name} on {}: {problem}", self.workload.name);
            return None;
        }
        let (report, wall) = outcome;
        Some(Run {
            report: report.ok()?,
            wall,
        })
    }

    /// Run `cfg` and its cross-check configuration; their checksum bits
    /// become the reference for every later run of `cfg`. A mismatch is
    /// a start-up gate: the run stops.
    pub fn reference(&mut self, name: &str, cfg: &ExperimentConfig) -> Result<Run, String> {
        let run = self
            .op(name, cfg, None)
            .ok_or_else(|| format!("{name}: reference run failed"))?;
        let alt = self.workload.cross_check(cfg);
        let check = self
            .op(&format!("{name}:cross_check"), &alt, None)
            .ok_or_else(|| format!("{name}: cross-check run failed"))?;
        if run.bits() != check.bits() {
            return Err(format!(
                "{name}: checksum bits {:#x} on {:?} {:?} but {:#x} on {:?} {:?}",
                run.bits(),
                cfg.backend,
                cfg.ranks,
                check.bits(),
                alt.backend,
                alt.ranks
            ));
        }
        Ok(run)
    }
}

/// Gates every run checks on a report of the workload's own config.
pub fn check_pack_free(w: &Workload, r: &MethodReport) -> Result<(), String> {
    if r.stats.messages != w.expected_msgs() {
        return Err(format!(
            "layout.msgs is {} on {}, expected {}",
            r.stats.messages,
            w.name,
            w.expected_msgs()
        ));
    }
    if r.timers.pack != 0.0 {
        return Err(format!(
            "exchange.pack_us is {} on pack-free {}",
            r.timers.pack * 1e6,
            w.name
        ));
    }
    Ok(())
}

/// Modeled `call`/`wait` are LogGP arithmetic on a fixed schedule, so
/// every block of a workload must report the first block's bits. The
/// exception is a partitioned schedule's `wait`: early fragments drain
/// behind measured compute and only the residual is billed.
pub fn check_modeled_repeats(
    w: &Workload,
    first: &MethodReport,
    r: &MethodReport,
) -> Result<(), String> {
    let bits = |r: &MethodReport| {
        let wait = if w.partitioned {
            0
        } else {
            r.timers.wait.to_bits()
        };
        (r.timers.call.to_bits(), wait)
    };
    if bits(first) != bits(r) {
        return Err(format!(
            "modeled call/wait moved between blocks of {}: {} / {} us, first block {} / {} us",
            w.name,
            r.timers.call * 1e6,
            r.timers.wait * 1e6,
            first.timers.call * 1e6,
            first.timers.wait * 1e6
        ));
    }
    Ok(())
}
