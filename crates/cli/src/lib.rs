//! Argument parsing and execution for `brick-bench`, the artifact-style
//! experiment runner (paper Appendix A.6: "Each executable takes
//! command-line options to change the domain size and the number of
//! timing iterations ... shown by running it with option -h").

#![warn(missing_docs)]

use mapping::MappingPolicy;
use netsim::hier::HierarchicalNetworkModel;
use netsim::telemetry::{chrome_trace, critical_path, PhaseBreakdown, BRICK_COST_HIST};
use packfree::experiment::{
    run_experiment, unreachable_proc_fault, CpuMethod, ExperimentConfig, KernelKind, MethodReport,
};
use packfree::rebalance::{run_rebalance, GridCfg, RebalanceCfg};
use stencil::StencilShape;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    /// Implementation under test.
    pub method: CpuMethod,
    /// Per-rank cubic subdomain extent.
    pub size: usize,
    /// Timed iterations.
    pub iters: usize,
    /// Warmup iterations.
    pub warmup: usize,
    /// Rank grid.
    pub ranks: Vec<usize>,
    /// Stencil selection.
    pub stencil: Stencil,
    /// Fabric model name.
    pub net: Net,
    /// Hierarchical node topology (`-t/--topology`); `None` keeps the
    /// flat fabric selected by `--net`.
    pub topology: Option<Topology>,
    /// Rank-mapping policy (`--mapping`; needs a hierarchical
    /// topology for anything beyond the lexicographic baseline).
    pub mapping: MappingPolicy,
    /// Seeded fault injection (chaos mode); off by default.
    pub faults: netsim::FaultConfig,
    /// Buddy-checkpoint interval in steps (0 = off; a kill:/stall:
    /// schedule forces interval 1 when unset).
    pub checkpoint_every: usize,
    /// Emit machine-readable JSON instead of the artifact text format.
    pub json: bool,
    /// Record per-rank phase timelines and report the breakdown.
    pub profile: bool,
    /// Drive the timestep through the dependency-graph overlap
    /// scheduler.
    pub overlap: bool,
    /// Partitioned early-bird exchange: boundary bricks ship on
    /// persistent partitioned channels the moment they are computed
    /// (implies the dependency-graph schedule; brick engines only).
    pub partitioned: bool,
    /// Rank execution substrate: one OS thread per rank (`thread`) or
    /// the event-driven multiplexer (`event`). Defaults to the
    /// `NETSIM_BACKEND` environment variable, then `thread`.
    pub backend: netsim::Backend,
    /// Run the dynamic-ownership rebalance driver (`-m rebalance`)
    /// instead of a static brick engine.
    pub rebalance: bool,
    /// Migration-epoch period in steps for `-m rebalance`
    /// (0 = ownership stays static).
    pub migrate: usize,
    /// The `--imbalance` preset: skew the rebalance workload's compute
    /// cost onto a hotspot slab so the diffusion balancer has work.
    pub imbalance: bool,
    /// Write a Chrome-trace JSON file of the profiled run (implies
    /// `profile`).
    pub trace: Option<String>,
    /// Print help instead of running.
    pub help: bool,
}

/// Stencil choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil {
    /// 7-point star.
    Star7,
    /// 13-point radius-2 star.
    Star13,
    /// 125-point cube.
    Cube125,
}

/// Fabric choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// Cray Aries (Theta).
    Aries,
    /// EDR InfiniBand (Summit).
    Edr,
    /// Cray Aries with seeded per-rank wire jitter: data-safe slowdown
    /// spread that leaves early-shipping windows open (no loss, no
    /// retry protocol).
    AriesJitter,
    /// Instantaneous (on-node costs only).
    Instant,
}

/// Hierarchical topology choice (`-t/--topology`). Each preset pins
/// its own inter-node fabric — dragonfly puts Aries behind the node
/// boundary, fat-tree EDR InfiniBand — with the shared-memory tier
/// inside every node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Dragonfly (Theta-like): Aries fabric, N ranks per node.
    Dragonfly(usize),
    /// Fat-tree (Summit-like): EDR fabric, N ranks per node.
    FatTree(usize),
}

impl Topology {
    /// The two-tier wire model this choice selects.
    pub fn model(self) -> HierarchicalNetworkModel {
        match self {
            Topology::Dragonfly(r) => HierarchicalNetworkModel::dragonfly(r),
            Topology::FatTree(r) => HierarchicalNetworkModel::fat_tree(r),
        }
    }
}

/// Parse a `--topology` spec: `flat`, `dragonfly:R`, or `fat-tree:R`
/// with `R` ranks per node.
fn parse_topology(spec: &str) -> Result<Option<Topology>, String> {
    if spec == "flat" {
        return Ok(None);
    }
    let (kind, rpn) = spec.split_once(':').ok_or_else(|| {
        format!("--topology '{spec}': want flat, dragonfly:R, or fat-tree:R")
    })?;
    let r: usize = rpn
        .parse()
        .map_err(|e| format!("--topology ranks-per-node: {e}"))?;
    if r == 0 {
        return Err("--topology needs at least 1 rank per node".into());
    }
    match kind {
        "dragonfly" => Ok(Some(Topology::Dragonfly(r))),
        "fat-tree" => Ok(Some(Topology::FatTree(r))),
        other => Err(format!(
            "unknown topology '{other}' (flat | dragonfly:R | fat-tree:R)"
        )),
    }
}

/// Seed of the `aries-jitter` preset's per-rank slowdown draw.
const JITTER_SEED: u64 = 2021;
/// Slowdown spread of the `aries-jitter` preset: each rank's wire is
/// scaled by a factor in `[1, 1.35]`.
const JITTER_SPREAD: f64 = 0.35;

/// Hotspot cost multiplier of the `--imbalance` preset: bricks in the
/// skewed slab charge 8x the compute of the rest of the grid.
const IMBALANCE_SKEW: f64 = 8.0;

/// Bricks per rank per axis in the rebalance proxy grid: the global
/// grid is `2 * ranks` bricks on each axis, so every rank starts with
/// eight bricks and the diffusion ring always has something to trade.
const REBALANCE_BRICKS_PER_AXIS: usize = 2;

impl Default for Options {
    fn default() -> Options {
        Options {
            method: CpuMethod::MemMap { page_size: memview::PAGE_4K },
            size: 64,
            iters: 8,
            warmup: 1,
            ranks: vec![1, 1, 1],
            stencil: Stencil::Star7,
            net: Net::Aries,
            topology: None,
            mapping: Default::default(),
            faults: netsim::FaultConfig::off(),
            checkpoint_every: 0,
            json: false,
            profile: false,
            overlap: false,
            partitioned: false,
            backend: netsim::Backend::from_env(),
            rebalance: false,
            migrate: 0,
            imbalance: false,
            trace: None,
            help: false,
        }
    }
}

/// The `-h` text.
pub const USAGE: &str = "\
brick-bench — pack-free ghost-zone exchange benchmark (PPoPP'21 reproduction)

USAGE: brick-bench [OPTIONS]

OPTIONS:
  -m, --method <name>   memmap | layout | basic | shift | yask | mpi-types |
                        rebalance   (default: memmap);
                        rebalance runs the dynamic-ownership proxy: a
                        periodic brick grid (2 bricks per rank per axis,
                        --size cells per brick) whose brick->rank map
                        migrates under a diffusion load balancer
  -d, --size <N>        cubic subdomain extent per rank, multiple of 8
                        (default: 64; for -m rebalance: f64 cells per
                        brick)
  -I, --iters <N>       timed iterations (default: 8)
  -w, --warmup <N>      warmup iterations (default: 1)
  -r, --ranks <XxYxZ>   rank grid, e.g. 2x2x2 (default: 1x1x1 self-periodic)
  -s, --stencil <name>  star7 | star13 | cube125 (default: star7; not for
                        rebalance)
  -n, --net <name>      aries | edr | aries-jitter | instant (default:
                        aries); aries-jitter is Aries plus a seeded
                        per-rank wire slowdown in [1, 1.35] — data-safe
                        jitter that stresses early shipping (an explicit
                        --faults spec overrides the preset's seed)
  -t, --topology <spec> flat | dragonfly:R | fat-tree:R — node topology
                        with R ranks per node (default: flat, every
                        rank on its own node). Hierarchical presets
                        charge on-node messages to a shared-memory
                        tier and pin the inter-node fabric (dragonfly:
                        Aries, fat-tree: EDR InfiniBand); the report
                        gains a mapping block with the on-/off-node
                        traffic split
      --mapping <name>  lex | bisect — process-to-node mapping policy
                        under -t (default: lex, MPI's rank-order
                        placement): bisect groups nearby subdomains
                        onto nodes by geometric recursive bisection
  -p, --page <bytes>    MemMap page size: 4096 | 16384 | 65536
                        (default: 4096; memmap/shift only)
  -f, --faults <spec>   seeded chaos injection: seed[,drop[,corrupt[,dup
                        [,delay[,jitter]]]]], probabilities in [0,1],
                        e.g. 42,0.1,0.05 — exchanges retry until they
                        converge bit-identically to the fault-free run
                        (default: off). Process faults go anywhere in
                        the list: kill:RANK@STEP[+OP] crash-stops the
                        rank mid-step (survived via buddy checkpoints
                        and an epoch-based recovery, bit-identical to
                        the fault-free run; needs >= 2 ranks), and
                        stall:RANK@STEP[+OP]:SECS bills a fail-slow
                        stall to the rank's wait timer
  -c, --checkpoint-every <K>
                        buddy-checkpoint interval in steps: every K
                        steps each rank snapshots what it owns to rank+1's
                        memory (0 = off; a kill:/stall: schedule forces
                        K=1 when unset)
  -M, --migrate <M>     (-m rebalance only) run a migration epoch every M
                        steps: fence, exchange window loads with the
                        diffusion ring, ship surplus bricks to
                        under-loaded neighbors, then rediscover the
                        sparse exchange plan with NBX nonblocking-
                        barrier consensus — no alltoall. 0 keeps
                        ownership static (default: 0); the migrated run
                        stays bit-identical to the static one
      --imbalance       (-m rebalance only) skew preset: bricks in the
                        low-z hotspot slab charge 8x compute, so block
                        ownership starts badly imbalanced and --migrate
                        has load to spread
  -B, --backend <name>  thread | event — rank execution substrate: one OS
                        thread per rank (the reference) or the
                        event-driven multiplexer that simulates
                        thousands of ranks on one machine; results are
                        bit-identical (default: $NETSIM_BACKEND, then
                        thread)
  -o, --overlap         run the timestep as a dependency graph: interior
                        bricks compute while halo messages are on the
                        wire, boundary bricks as their ghosts arrive;
                        bit-identical to the phased schedule and reports
                        the fraction of wire time hidden (yask and
                        mpi-types compute their 8^3 tiles the same way)
  -e, --partitioned     partitioned early-bird exchange: each boundary
                        brick ships on a persistent partitioned channel
                        the moment it is computed, in destination-
                        priority order; the next exchange only posts the
                        remainder. Implies the dependency-graph
                        schedule, stays bit-identical to --overlap and
                        the phased run, and reports the fraction of
                        halo bytes shipped early (not yask/mpi-types:
                        they send packed buffers, not bricks)
  -j, --json            emit one JSON object instead of the text format
  -P, --profile         record per-rank phase timelines over the timed
                        steps and report a pack/unpack/copy/wire/wait/
                        compute breakdown per engine scope, plus the
                        straggler's critical path
      --trace <file>    write the profiled run as Chrome-trace JSON
                        (load in Perfetto / chrome://tracing; implies
                        --profile)
  -h, --help            print this help

OUTPUT: the artifact's five metrics — calc/pack/call/wait as
[minimum, average, maximum] seconds per timestep across ranks, and perf
(GStencil/s per rank).";

/// Parse arguments (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut page = None;
    // Whether -s was given: a method that runs no stencil refuses it
    // instead of running without it.
    let mut stencil = false;
    let mut method_name = String::from("memmap");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => o.help = true,
            "-j" | "--json" => o.json = true,
            "-o" | "--overlap" => o.overlap = true,
            "-e" | "--partitioned" => o.partitioned = true,
            "-P" | "--profile" => o.profile = true,
            "--trace" => {
                o.trace = Some(take("--trace")?);
                o.profile = true;
            }
            "-m" | "--method" => method_name = take("--method")?,
            "-d" | "--size" => {
                o.size = take("--size")?.parse().map_err(|e| format!("--size: {e}"))?;
            }
            "-I" | "--iters" => {
                o.iters = take("--iters")?.parse().map_err(|e| format!("--iters: {e}"))?;
            }
            "-w" | "--warmup" => {
                o.warmup = take("--warmup")?.parse().map_err(|e| format!("--warmup: {e}"))?;
            }
            "-r" | "--ranks" => {
                let spec = take("--ranks")?;
                o.ranks = spec
                    .split('x')
                    .map(|v| v.parse::<usize>().map_err(|e| format!("--ranks: {e}")))
                    .collect::<Result<_, _>>()?;
                if o.ranks.len() != 3 || o.ranks.contains(&0) {
                    return Err("--ranks must be XxYxZ with positive extents".into());
                }
            }
            "-s" | "--stencil" => {
                stencil = true;
                o.stencil = match take("--stencil")?.as_str() {
                    "star7" => Stencil::Star7,
                    "star13" => Stencil::Star13,
                    "cube125" => Stencil::Cube125,
                    other => return Err(format!("unknown stencil '{other}'")),
                };
            }
            "-n" | "--net" => {
                o.net = match take("--net")?.as_str() {
                    "aries" => Net::Aries,
                    "edr" => Net::Edr,
                    "aries-jitter" => Net::AriesJitter,
                    "instant" => Net::Instant,
                    other => return Err(format!("unknown net '{other}'")),
                };
            }
            "-t" | "--topology" => {
                o.topology = parse_topology(&take("--topology")?)?;
            }
            "--mapping" => {
                let name = take("--mapping")?;
                o.mapping = MappingPolicy::parse(&name)
                    .ok_or_else(|| format!("unknown mapping '{name}' (lex | bisect)"))?;
            }
            "-f" | "--faults" => {
                o.faults = netsim::FaultConfig::parse(&take("--faults")?)?;
            }
            "-c" | "--checkpoint-every" => {
                o.checkpoint_every = take("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "-M" | "--migrate" => {
                o.migrate = take("--migrate")?.parse().map_err(|e| format!("--migrate: {e}"))?;
            }
            "--imbalance" => o.imbalance = true,
            "-B" | "--backend" => {
                let name = take("--backend")?;
                o.backend = netsim::Backend::parse(&name)
                    .ok_or_else(|| format!("unknown backend '{name}' (thread | event)"))?;
            }
            "-p" | "--page" => {
                let bytes = take("--page")?.parse().map_err(|e| format!("--page: {e}"))?;
                if !matches!(bytes, 4096 | 16384 | 65536) {
                    return Err("--page must be 4096, 16384, or 65536".into());
                }
                page = Some(bytes);
            }
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    let page_size = page.unwrap_or(memview::PAGE_4K);
    o.method = match method_name.as_str() {
        "memmap" => CpuMethod::MemMap { page_size },
        "layout" => CpuMethod::Layout,
        "basic" => CpuMethod::Basic,
        "shift" => CpuMethod::Shift { page_size },
        "yask" => CpuMethod::Yask,
        "mpi-types" => CpuMethod::MpiTypes,
        // The rebalance driver runs its own proxy workload; the static
        // engine selection is irrelevant and stays at the default.
        "rebalance" => {
            o.rebalance = true;
            o.method.clone()
        }
        other => return Err(format!("unknown method '{other}'")),
    };
    if o.mapping != MappingPolicy::Lex && o.topology.is_none() {
        return Err(format!(
            "--mapping {} needs a hierarchical topology \
             (-t dragonfly:R | fat-tree:R)",
            o.mapping.label()
        ));
    }
    if o.rebalance && (o.topology.is_some() || o.mapping != MappingPolicy::Lex) {
        return Err(rebalance_rejects(
            "-t/--mapping",
            "it owns its brick->rank map, which no rank placement is planned from yet",
        ));
    }
    if (o.migrate > 0 || o.imbalance) && !o.rebalance {
        let flag = if o.migrate > 0 { "--migrate" } else { "--imbalance" };
        return Err(format!("{flag} needs -m rebalance (dynamic brick ownership)"));
    }
    if o.rebalance && o.partitioned {
        return Err(rebalance_rejects(
            "--partitioned",
            "its staged whole-brick frames have nothing to ship early",
        ));
    }
    if let Some(why) = o.partitioned.then(|| o.method.partitioned_refusal()).flatten() {
        return Err(format!("--partitioned does not run on '{method_name}': {why}"));
    }
    if o.rebalance && stencil {
        return Err(rebalance_rejects("--stencil", "its proxy relaxation runs no brick kernel and no stencil"));
    }
    if page.is_some() && !matches!(method_name.as_str(), "memmap" | "shift") {
        return Err(format!(
            "--page needs an mmap-view exchange engine (memmap | shift), not '{method_name}'"
        ));
    }
    if o.faults.kill.is_some() && o.ranks.iter().product::<usize>() < 2 {
        return Err("kill: needs at least 2 ranks (the victim restores from its buddy)".into());
    }
    if let Some(e) = unreachable_proc_fault(&o.faults, o.ranks.iter().product(), o.warmup + o.iters) {
        return Err(e);
    }
    if o.size % 8 != 0 || o.size < 16 {
        return Err("--size must be a multiple of 8, at least 16".into());
    }
    if o.iters == 0 {
        return Err("--iters must be positive".into());
    }
    Ok(o)
}

/// The one message shape of the combinations `-m rebalance` still refuses.
fn rebalance_rejects(flag: &str, why: &str) -> String {
    format!("-m rebalance does not take {flag}: {why}")
}

/// The flat fabric model `-n/--net` selects, shared by the static
/// experiment and the rebalance driver. A hierarchical `-t` preset
/// pins its own inter-node fabric and leaves this as the flat
/// fallback.
fn wire_model(net: Net) -> netsim::NetworkModel {
    match net {
        Net::Aries | Net::AriesJitter => netsim::NetworkModel::theta_aries(),
        Net::Edr => netsim::NetworkModel::summit_edr(),
        Net::Instant => netsim::NetworkModel::instant(),
    }
}

/// The fault configuration after presets: `aries-jitter` supplies a
/// seeded, data-safe slowdown spread — unless the user armed their own
/// fault spec, which then rules (it may already carry jitter).
fn preset_faults(o: &Options) -> netsim::FaultConfig {
    if o.net == Net::AriesJitter && !o.faults.is_active() {
        netsim::FaultConfig { seed: JITTER_SEED, jitter: JITTER_SPREAD, ..netsim::FaultConfig::off() }
    } else {
        o.faults
    }
}

/// Build the experiment configuration from parsed options.
pub fn config(o: &Options) -> ExperimentConfig {
    ExperimentConfig {
        method: o.method.clone(),
        subdomain: [o.size; 3],
        ghost: 8,
        brick: 8,
        shape: match o.stencil {
            Stencil::Star7 => StencilShape::star7_default(),
            Stencil::Star13 => StencilShape::star13_default(),
            Stencil::Cube125 => StencilShape::cube125_default(),
        },
        steps: o.iters,
        warmup: o.warmup,
        ranks: o.ranks.clone(),
        net: wire_model(o.net),
        topology: o.topology.map(Topology::model),
        mapping: o.mapping,
        kernel: KernelKind::Plan,
        faults: preset_faults(o),
        profile: o.profile,
        checkpoint_every: o.checkpoint_every,
        overlap: o.overlap,
        partitioned: o.partitioned,
        backend: o.backend,
    }
}

/// Build the rebalance-driver configuration from parsed options: the
/// proxy grid is `2 * ranks` bricks per axis with `--size` cells per
/// brick, skewed onto the hotspot slab under `--imbalance`.
pub fn rebalance_config(o: &Options) -> RebalanceCfg {
    let grid = GridCfg {
        dims: [
            REBALANCE_BRICKS_PER_AXIS * o.ranks[0],
            REBALANCE_BRICKS_PER_AXIS * o.ranks[1],
            REBALANCE_BRICKS_PER_AXIS * o.ranks[2],
        ],
        cells: o.size,
        skew: if o.imbalance { IMBALANCE_SKEW } else { 1.0 },
    };
    let mut cfg = RebalanceCfg::new(grid, o.ranks.clone());
    cfg.steps = o.iters;
    cfg.warmup = o.warmup;
    cfg.migrate_every = o.migrate;
    cfg.net = wire_model(o.net);
    cfg.faults = preset_faults(o);
    // A kill/stall schedule without an explicit interval checkpoints
    // every step, same convention as the static engines.
    cfg.checkpoint_every = if o.checkpoint_every == 0 && cfg.faults.proc_active() {
        1
    } else {
        o.checkpoint_every
    };
    cfg.backend = o.backend;
    cfg.profile = o.profile;
    cfg.overlap = o.overlap;
    cfg
}

/// The method label reports print: the static engine's name, or the
/// rebalance driver.
fn method_label(o: &Options) -> &str {
    if o.rebalance {
        "rebalance"
    } else {
        o.method.name()
    }
}

/// Run and render the artifact metrics. With `--trace`, the profiled
/// run is also written to that path as Chrome-trace JSON.
pub fn run(o: &Options) -> String {
    let r = if o.rebalance {
        run_rebalance(&rebalance_config(o))
    } else {
        run_experiment(&config(o))
    };
    if let Some(path) = &o.trace {
        std::fs::write(path, trace_json(o, &r))
            .unwrap_or_else(|e| panic!("writing trace file {path}: {e}"));
    }
    if o.json {
        render_json(o, &r)
    } else {
        render(o, &r)
    }
}

/// The profiled run as Chrome-trace JSON: one `chrome://tracing` /
/// Perfetto thread per rank on the per-rank virtual clock, with run
/// metadata and per-rank counters in `otherData`.
pub fn trace_json(o: &Options, r: &MethodReport) -> String {
    let meta = [
        ("method", format!("\"{}\"", method_label(o))),
        ("size", o.size.to_string()),
        (
            "rank_grid",
            format!("[{}, {}, {}]", o.ranks[0], o.ranks[1], o.ranks[2]),
        ),
        ("iters", o.iters.to_string()),
        (
            "fault_seed",
            match r.fault_seed {
                Some(s) => s.to_string(),
                None => "null".into(),
            },
        ),
    ];
    chrome_trace(&r.timelines, &meta)
}

/// A report field's value. Its kind fixes how it prints, in the text
/// line and in `--json` alike.
#[derive(Clone, Copy)]
enum Value {
    /// A count or a byte total.
    Count(u64),
    /// A signed count (`-1` = none).
    Signed(i64),
    /// Seconds, to the nanosecond.
    Seconds(f64),
    /// A ratio or a fraction.
    Ratio(f64),
    /// A name (a JSON string).
    Name(&'static str),
    /// A 64-bit digest in zero-padded hex (a JSON string).
    Digest(u64),
}

impl Value {
    /// The value as printed; `quote` makes names and digests JSON strings.
    fn render(self, quote: bool) -> String {
        let q = if quote { "\"" } else { "" };
        match self {
            Value::Count(v) => v.to_string(),
            Value::Signed(v) => v.to_string(),
            Value::Seconds(v) => format!("{v:.9}"),
            Value::Ratio(v) => format!("{v:.6}"),
            Value::Name(s) => format!("{q}{s}{q}"),
            Value::Digest(d) => format!("{q}{d:#018x}{q}"),
        }
    }
}

/// One report block: its key and its `(key, value)` fields, in order.
type Block = (&'static str, Vec<(&'static str, Value)>);

/// Every report block the run produced, each behind its gate: the one
/// list [`render`] prints a line of and [`render_json`] an object of.
fn blocks(r: &MethodReport) -> Vec<Block> {
    use Value::{Count, Digest, Name, Ratio, Seconds, Signed};
    let mut out = Vec::new();
    if let Some(ov) = r.overlap_stats {
        let mut fields = vec![
            ("hidden_wire", Seconds(ov.hidden_wire)),
            ("total_wire", Seconds(ov.total_wire)),
            ("efficiency", Ratio(ov.efficiency())),
        ];
        // Partitioned runs carry the early-shipping counters too.
        if ov.partitioned() {
            fields.extend([
                ("early_bytes", Count(ov.early_bytes)),
                ("partition_bytes", Count(ov.partition_bytes)),
                ("early_shipped_fraction", Ratio(ov.early_shipped_fraction())),
            ]);
        }
        out.push(("overlap", fields));
    }
    // Only hierarchical-topology runs carry the mapping split.
    if let Some(m) = &r.mapping {
        out.push(("mapping", vec![
            ("topology", Name(m.topology)),
            ("ranks_per_node", Count(m.ranks_per_node as u64)),
            ("policy", Name(m.policy)),
            ("on_bytes", Count(m.on_bytes)),
            ("off_bytes", Count(m.off_bytes)),
            ("on_msgs", Count(m.on_msgs)),
            ("off_msgs", Count(m.off_msgs)),
            ("on_node_fraction", Ratio(m.on_node_fraction())),
            ("lex_off_bytes", Count(m.lex_off_bytes)),
            ("off_bytes_vs_lex", Ratio(m.off_bytes_vs_lex())),
            ("modeled_time", Seconds(m.modeled_time)),
            ("lex_modeled_time", Seconds(m.lex_modeled_time)),
            ("modeled_speedup", Ratio(m.modeled_speedup())),
        ]));
    }
    // Gate on the run's own armed state, not the (possibly unrelated)
    // options: a fault-free report never prints a fault block.
    if r.fault_seed.is_some() {
        let f = &r.faults;
        out.push(("faults", vec![
            ("drops", Count(f.drops)),
            ("corrupts", Count(f.corrupts)),
            ("dups", Count(f.dups)),
            ("delays", Count(f.delays)),
        ]));
        out.push(("recovery", vec![
            ("retries", Count(f.retries)),
            ("duplicates_discarded", Count(f.duplicates_discarded)),
            ("corrupt_detected", Count(f.corrupt_detected)),
            ("degraded_exchanges", Count(f.degraded_exchanges)),
        ]));
    }
    // Gate on the harness's own accounting: only resilient runs (an
    // armed checkpoint interval or a survived process fault) print it.
    if r.recovery.armed() {
        let rv = &r.recovery;
        out.push(("resilience", vec![
            ("checkpoints", Count(rv.checkpoints)),
            ("checkpoint_bytes", Count(rv.checkpoint_bytes)),
            ("recovery_epochs", Count(rv.recovery_epochs)),
            ("replayed_steps", Count(rv.replayed_steps)),
            ("restore_bytes", Count(rv.restore_bytes)),
            ("detect_latency_s", Seconds(rv.detect_latency_s)),
            ("failed_rank", Signed(rv.failed_rank)),
            ("failed_step", Signed(rv.failed_step)),
        ]));
    }
    // Only the rebalance driver populates migration accounting.
    if let Some(m) = &r.migration {
        out.push(("migration", vec![
            ("epochs", Count(m.epochs)),
            ("bricks_moved", Count(m.bricks_moved)),
            ("bytes_moved", Count(m.bytes_moved)),
            ("nbx_rounds", Count(m.nbx_rounds)),
            ("nbx_data_msgs", Count(m.nbx_data_msgs)),
            ("nbx_barrier_msgs", Count(m.nbx_barrier_msgs)),
            ("imbalance_initial", Ratio(m.imbalance_initial)),
            ("imbalance_final", Ratio(m.imbalance_final)),
            ("ownership_digest", Digest(m.ownership_digest)),
        ]));
    }
    out
}

/// One formatted breakdown row shared by the table renderer.
fn phase_row(name: &str, b: &PhaseBreakdown) -> String {
    format!(
        "{name:<18} {:>9.6} {:>9.6} {:>9.6} {:>9.6} {:>9.6} {:>9.6} {:>9.6}\n",
        b.pack,
        b.unpack,
        b.copy,
        b.wire,
        b.wait,
        b.compute,
        b.total()
    )
}

/// The `--profile` text block: per-scope phase table for rank 0 plus
/// the straggler's critical path. Empty when no timelines were
/// recorded.
fn render_profile(o: &Options, r: &MethodReport) -> String {
    let Some(tl) = r.timelines.first() else {
        return String::new();
    };
    let mut out = String::new();
    out.push_str(&format!(
        "profile: phase seconds over {} timed steps (rank 0), planned kernels at isa {}\n",
        o.iters,
        stencil::Isa::detect().name()
    ));
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "scope", "pack", "unpack", "copy", "wire", "wait", "compute", "total"
    ));
    for (name, b) in tl.scope_breakdown() {
        out.push_str(&phase_row(name, &b));
    }
    out.push_str(&phase_row("(all)", &tl.phase_breakdown()));
    // Per-brick cost attribution (engines that call charge_calc_brick):
    // the balancer's raw load signal, hottest bricks first.
    let top = tl.top_brick_costs(8);
    if !top.is_empty() {
        let cells: Vec<String> =
            top.iter().map(|(b, c)| format!("{b}:{:.6}s", c)).collect();
        out.push_str(&format!("hot bricks (rank 0): {}\n", cells.join(" ")));
        if let Some((_, h)) = tl.hists.iter().find(|(n, _)| *n == BRICK_COST_HIST) {
            out.push_str(&format!(
                "brick cost histogram: {} charges | min {:.0} ns | \
                 mean {:.0} ns | max {:.0} ns\n",
                h.count,
                h.min,
                h.mean(),
                h.max
            ));
        }
    }
    if let Some(cp) = critical_path(&r.timelines) {
        out.push_str(&format!(
            "critical path: rank {} | total {:.6} s | imbalance {:.1}%\n",
            cp.rank,
            cp.total,
            cp.imbalance * 100.0
        ));
        for s in &cp.segments {
            out.push_str(&format!(
                "  {:<18} {:.6}..{:.6} s  dominant {} ({:.0}%)\n",
                s.name,
                s.start,
                s.end,
                s.dominant.name(),
                s.dominant_frac * 100.0
            ));
        }
    }
    out
}

/// Format a report in the artifact's style.
pub fn render(o: &Options, r: &MethodReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {} | {}^3/rank | {:?} ranks | {} iters\n",
        method_label(o),
        o.size,
        o.ranks,
        o.iters
    ));
    let fmt = |name: &str, (min, avg, max): (f64, f64, f64)| {
        format!("{name} [{min:.6}, {avg:.6}, {max:.6}] s\n")
    };
    out.push_str(&fmt("calc", r.summary.calc));
    out.push_str(&fmt("pack", r.summary.pack));
    out.push_str(&fmt("call", r.summary.call));
    out.push_str(&fmt("wait", r.summary.wait));
    out.push_str(&format!("perf {:.4} GStencil/s per rank\n", r.gstencil()));
    if let Some(seed) = r.fault_seed {
        out.push_str(&format!("fault_seed {seed}\n"));
    }
    for (name, fields) in blocks(r) {
        let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("{k} {}", v.render(false))).collect();
        out.push_str(&format!("{name}: {}\n", pairs.join(", ")));
    }
    out.push_str(&render_profile(o, r));
    out
}

/// The `"profile"` JSON section: rank-0 phase totals, per-scope
/// breakdowns and the cross-rank critical path. `None` when the run
/// recorded no timelines.
fn profile_json(r: &MethodReport) -> Option<String> {
    let tl = r.timelines.first()?;
    let pb = |b: &PhaseBreakdown| {
        format!(
            "{{\"pack\": {:.9}, \"unpack\": {:.9}, \"copy\": {:.9}, \"wire\": {:.9}, \
             \"wait\": {:.9}, \"compute\": {:.9}, \"total\": {:.9}}}",
            b.pack, b.unpack, b.copy, b.wire, b.wait, b.compute, b.total()
        )
    };
    let mut out = String::from("  \"profile\": {\n");
    out.push_str(&format!("    \"ranks\": {},\n", r.timelines.len()));
    out.push_str(&format!("    \"phases\": {},\n", pb(&tl.phase_breakdown())));
    let scopes: Vec<String> = tl
        .scope_breakdown()
        .iter()
        .map(|(n, b)| format!("{{\"name\": \"{n}\", \"phases\": {}}}", pb(b)))
        .collect();
    out.push_str(&format!("    \"scopes\": [{}],\n", scopes.join(", ")));
    let top: Vec<String> = tl
        .top_brick_costs(8)
        .iter()
        .map(|&(b, c)| format!("{{\"brick\": {b}, \"seconds\": {c:.9}}}"))
        .collect();
    if !top.is_empty() {
        out.push_str(&format!("    \"top_bricks\": [{}],\n", top.join(", ")));
    }
    match critical_path(&r.timelines) {
        Some(cp) => {
            let segs: Vec<String> = cp
                .segments
                .iter()
                .map(|s| {
                    format!(
                        "{{\"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \
                         \"dominant\": \"{}\", \"dominant_frac\": {:.6}}}",
                        s.name,
                        s.start,
                        s.end,
                        s.dominant.name(),
                        s.dominant_frac
                    )
                })
                .collect();
            out.push_str(&format!(
                "    \"critical_path\": {{\"rank\": {}, \"total\": {:.9}, \
                 \"imbalance\": {:.6}, \"segments\": [{}]}}\n",
                cp.rank,
                cp.total,
                cp.imbalance,
                segs.join(", ")
            ));
        }
        None => out.push_str("    \"critical_path\": null\n"),
    }
    out.push_str("  },\n");
    Some(out)
}

/// Format a report as one JSON object (same five artifact metrics).
pub fn render_json(o: &Options, r: &MethodReport) -> String {
    let metric = |name: &str, (min, avg, max): (f64, f64, f64)| {
        format!("  \"{name}\": [{min:.9}, {avg:.9}, {max:.9}],\n")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"method\": \"{}\",\n", method_label(o)));
    out.push_str(&format!("  \"size\": {},\n", o.size));
    out.push_str(&format!(
        "  \"ranks\": [{}, {}, {}],\n",
        o.ranks[0], o.ranks[1], o.ranks[2]
    ));
    out.push_str(&format!("  \"iters\": {},\n", o.iters));
    // The level every kernel plan of this process binds, so two runs on
    // different machines are diffable.
    out.push_str(&format!("  \"isa\": \"{}\",\n", stencil::Isa::detect().name()));
    // Bit-exact interior checksum: two runs are equivalent iff these
    // hex strings match, with no float-printing round-trip in between.
    out.push_str(&format!(
        "  \"checksum_bits\": \"{:#018x}\",\n",
        r.checksum.to_bits()
    ));
    out.push_str(&metric("calc", r.summary.calc));
    out.push_str(&metric("pack", r.summary.pack));
    out.push_str(&metric("call", r.summary.call));
    out.push_str(&metric("wait", r.summary.wait));
    for (name, fields) in blocks(r) {
        let members: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {}", v.render(true))).collect();
        out.push_str(&format!("  \"{name}\": {{{}}},\n", members.join(", ")));
    }
    if let Some(pf) = profile_json(r) {
        out.push_str(&pf);
    }
    if let Some(seed) = r.fault_seed {
        out.push_str(&format!("  \"fault_seed\": {seed},\n"));
        out.push_str(&format!(
            "  \"fault_events\": {},\n",
            fault_events_json(&r.fault_events)
        ));
    }
    out.push_str(&format!("  \"gstencil_per_rank\": {:.6}\n", r.gstencil()));
    out.push_str("}\n");
    out
}

/// Render the merged fault trace as a JSON array (the CI chaos
/// artifact). Each event's `rank` is the injecting sender, so the
/// per-rank traces can be concatenated without losing attribution.
pub fn fault_events_json(events: &[netsim::FaultEvent]) -> String {
    let mut out = String::from("[");
    for (i, f) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let one = netsim::Trace::faults_json(f.src, std::slice::from_ref(f));
        out.push_str(one.trim_start_matches('[').trim_end_matches(']'));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Options, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let o = p(&[]).unwrap();
        assert_eq!(o.size, 64);
        assert_eq!(o.ranks, vec![1, 1, 1]);
        assert_eq!(o.method, CpuMethod::MemMap { page_size: 4096 });
    }

    #[test]
    fn full_line() {
        let o = p(&[
            "-m", "yask", "-d", "32", "-I", "5", "-w", "2", "-r", "2x2x1", "-s", "cube125",
            "-n", "edr",
        ])
        .unwrap();
        assert_eq!(o.method, CpuMethod::Yask);
        assert_eq!(o.size, 32);
        assert_eq!(o.iters, 5);
        assert_eq!(o.warmup, 2);
        assert_eq!(o.ranks, vec![2, 2, 1]);
        assert_eq!(o.stencil, Stencil::Cube125);
        assert_eq!(o.net, Net::Edr);
    }

    #[test]
    fn page_flows_into_memmap_and_shift() {
        let o = p(&["-m", "memmap", "-p", "65536"]).unwrap();
        assert_eq!(o.method, CpuMethod::MemMap { page_size: 65536 });
        let o = p(&["-m", "shift", "-p", "16384"]).unwrap();
        assert_eq!(o.method, CpuMethod::Shift { page_size: 16384 });
    }

    /// `-p` sizes the mmap views only memmap and shift build; any other
    /// method refuses it instead of running without it.
    #[test]
    fn page_is_rejected_outside_memmap_and_shift() {
        for method in ["layout", "basic", "yask", "mpi-types", "rebalance"] {
            let err = p(&["-m", method, "-p", "16384"]).unwrap_err();
            assert_eq!(err, format!("--page needs an mmap-view exchange engine (memmap | shift), not '{method}'"));
        }
        assert!(p(&["-m", "layout"]).is_ok(), "the default page is no explicit -p");
        assert!(p(&["-m", "shift", "-p", "16384"]).is_ok());
    }

    /// Every brick engine steps through one kernel plan, so there is no
    /// kernel to choose: `-k`/`--kernel` is an unknown option, with any
    /// value, and the configuration names the plan.
    #[test]
    fn kernel_flag() {
        for args in [["-k", "gather"], ["-k", "plan"], ["--kernel", "plan"], ["--kernel", "gather"]] {
            assert_eq!(p(&args).unwrap_err(), format!("unknown option '{}' (try --help)", args[0]));
        }
        assert_eq!(config(&p(&[]).unwrap()).kernel, KernelKind::Plan);
        assert!(!USAGE.contains("--kernel"));
    }

    /// The array engines run no brick kernel and the brick engines one:
    /// `-k` is refused as an unknown option either way.
    #[test]
    fn kernel_is_rejected_on_yask() {
        assert_eq!(p(&["-m", "yask", "-k", "gather"]).unwrap_err(), "unknown option '-k' (try --help)");
        assert!(p(&["-m", "yask"]).is_ok());
        assert!(p(&["-m", "yask", "-s", "cube125"]).is_ok(), "the array engines run the stencil");
    }

    /// YASK-OL is `-m yask -o`: `--kernel` is unknown there too, and the
    /// old method name is gone.
    #[test]
    fn kernel_is_rejected_on_yask_ol() {
        assert_eq!(p(&["-m", "yask", "-o", "--kernel", "plan"]).unwrap_err(), "unknown option '--kernel' (try --help)");
        assert!(p(&["-m", "yask", "-o"]).is_ok());
        assert_eq!(p(&["-m", "yask-ol"]).unwrap_err(), "unknown method 'yask-ol'");
    }

    #[test]
    fn kernel_is_rejected_on_mpi_types() {
        assert_eq!(p(&["-m", "mpi-types", "-k", "gather"]).unwrap_err(), "unknown option '-k' (try --help)");
        assert!(p(&["-m", "mpi-types"]).is_ok());
        assert_eq!(p(&["-m", "layout", "-k", "gather"]).unwrap_err(), "unknown option '-k' (try --help)");
    }

    #[test]
    fn kernel_is_rejected_on_rebalance() {
        assert_eq!(p(&["-m", "rebalance", "-k", "gather"]).unwrap_err(), "unknown option '-k' (try --help)");
        assert!(p(&["-m", "rebalance"]).is_ok());
    }

    #[test]
    fn stencil_is_rejected_on_rebalance() {
        let err = p(&["-m", "rebalance", "-s", "cube125"]).unwrap_err();
        assert_eq!(err, "-m rebalance does not take --stencil: its proxy relaxation runs no brick kernel and no stencil");
        assert!(p(&["-m", "rebalance", "-d", "64", "-r", "2x1x1", "-n", "instant"]).is_ok());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(p(&["-m", "bogus"]).is_err());
        assert!(p(&["-d", "33"]).is_err());
        assert!(p(&["-d", "8"]).is_err());
        assert!(p(&["-r", "2x2"]).is_err());
        assert!(p(&["-r", "0x1x1"]).is_err());
        assert!(p(&["-p", "1234"]).is_err());
        assert!(p(&["--iters", "0"]).is_err());
        assert!(p(&["--frobnicate"]).is_err());
        assert!(p(&["-d"]).is_err());
    }

    #[test]
    fn resilience_flags() {
        assert_eq!(p(&[]).unwrap().checkpoint_every, 0);
        let o = p(&["-c", "3"]).unwrap();
        assert_eq!(o.checkpoint_every, 3);
        let o = p(&["--checkpoint-every", "2", "-f", "kill:1@3", "-r", "2x1x1"]).unwrap();
        assert_eq!(o.checkpoint_every, 2);
        assert_eq!(o.faults.kill.map(|k| (k.rank, k.step)), Some((1, 3)));
        assert_eq!(config(&o).checkpoint_every, 2);
        // kill: needs a buddy rank; every engine is resilient.
        assert!(p(&["-f", "kill:0@1"]).is_err());
        assert!(p(&["-m", "yask", "-c", "2"]).is_ok());
        assert!(p(&["-m", "mpi-types", "-c", "2"]).is_ok());
        assert!(p(&["-m", "mpi-types", "-f", "kill:1@0", "-r", "2x1x1"]).is_ok());
        assert!(p(&["-c", "x"]).is_err());
        assert!(USAGE.contains("--checkpoint-every"));
        assert!(USAGE.contains("kill:RANK@STEP"));
    }

    /// A kill or stall naming a rank or a step the run never reaches is
    /// refused instead of paying for checkpoints of a fault that never
    /// fires; the last step is reachable, and a kill there fires.
    #[test]
    fn unreachable_process_faults_are_rejected() {
        let args = |spec| {
            let base = ["-m", "layout", "-r", "2x1x1", "-d", "16", "-I", "2", "-w", "1", "-n"];
            p(&[&base[..], &["instant", "-f", spec]].concat())
        };
        for spec in ["kill:5@1", "kill:1@3", "stall:3@0:0.001"] {
            let err = args(spec).unwrap_err();
            assert!(err.contains("can never fire"), "{spec}: {err}");
        }
        let o = args("kill:1@2").unwrap();
        let r = run_experiment(&config(&o));
        assert_eq!((r.recovery.failed_rank, r.recovery.failed_step), (1, 2));
    }

    #[test]
    fn killed_run_reports_recovery() {
        let o = p(&[
            "-m", "layout", "-d", "16", "-I", "3", "-w", "0", "-n", "instant", "-r", "2x1x1",
            "-f", "kill:1@1", "-c", "1", "--json",
        ])
        .unwrap();
        let out = run(&o);
        assert!(out.contains("\"resilience\""));
        assert!(out.contains("\"recovery_epochs\": 1"));
        assert!(out.contains("\"failed_rank\": 1"));
        let text = render(&o, &run_experiment(&config(&o)));
        assert!(text.contains("recovery_epochs 1,"));
        assert!(text.contains("failed_rank 1, failed_step 1\n"));
        assert!(text.contains("resilience: checkpoints "));
    }

    #[test]
    fn help_flag() {
        assert!(p(&["-h"]).unwrap().help);
        assert!(USAGE.contains("--method"));
    }

    #[test]
    fn json_flag() {
        assert!(p(&["-j"]).unwrap().json);
        assert!(p(&["--json"]).unwrap().json);
        assert!(!p(&[]).unwrap().json);
    }

    #[test]
    fn end_to_end_json_run() {
        let o =
            p(&["-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-n", "instant", "--json"])
                .unwrap();
        let out = run(&o);
        assert!(out.starts_with("{\n"));
        assert!(out.contains("\"method\": \"Layout\""));
        assert!(out.contains("\"pack\": [0.000000000, 0.000000000, 0.000000000]"));
        assert!(out.contains("\"gstencil_per_rank\""));
        let isa = format!("\"isa\": \"{}\"", stencil::Isa::detect().name());
        assert_eq!(out.matches(&isa).count(), 1, "bound ISA level printed once");
    }

    #[test]
    fn profile_flag() {
        assert!(p(&["-P"]).unwrap().profile);
        assert!(p(&["--profile"]).unwrap().profile);
        assert!(!p(&[]).unwrap().profile);
        let o = p(&["--trace", "/tmp/t.json"]).unwrap();
        assert!(o.profile, "--trace implies --profile");
        assert_eq!(o.trace.as_deref(), Some("/tmp/t.json"));
        assert!(USAGE.contains("--profile") && USAGE.contains("--trace"));
    }

    /// `--profile --json` surfaces the per-method phase breakdown:
    /// MemMap's on-node movement is zero while the packed baseline
    /// spends real time packing.
    #[test]
    fn end_to_end_profile_run() {
        let base = ["-d", "16", "-I", "2", "-w", "0", "-n", "instant", "-P", "--json"];
        let mm = p(&[&["-m", "memmap"][..], &base[..]].concat()).unwrap();
        let out = run(&mm);
        assert!(out.contains("\"profile\""));
        assert!(out.contains("\"phases\": {\"pack\": 0.000000000, \"unpack\": 0.000000000, \"copy\": 0.000000000"));
        assert!(out.contains("exchange:memmap"));
        assert!(out.contains("\"critical_path\""));

        let yk = p(&[&["-m", "yask"][..], &base[..]].concat()).unwrap();
        let outy = run(&yk);
        assert!(outy.contains("exchange:yask"));
        let pat = "\"phases\": {\"pack\": ";
        let i = outy.find(pat).expect("phases object present");
        let pack: f64 = outy[i + pat.len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("pack value parses");
        assert!(pack > 0.0, "packed baseline must show nonzero pack");
    }

    #[test]
    fn profile_text_table() {
        let o = p(&[
            "-m", "memmap", "-d", "16", "-I", "2", "-w", "0", "-n", "instant", "-P",
        ])
        .unwrap();
        let out = run(&o);
        assert!(out.contains("profile: phase seconds"));
        assert!(out.contains(&format!("at isa {}\n", stencil::Isa::detect().name())));
        assert!(out.contains("exchange:memmap"));
        assert!(out.contains("critical path: rank"));
    }

    #[test]
    fn overlap_flag() {
        assert!(p(&["-o"]).unwrap().overlap);
        assert!(p(&["--overlap"]).unwrap().overlap);
        assert!(!p(&[]).unwrap().overlap);
        assert!(p(&["-m", "yask", "-o"]).is_ok());
        assert_eq!(p(&["-m", "yask-ol", "-o"]).unwrap_err(), "unknown method 'yask-ol'");
        assert!(p(&["-m", "mpi-types", "--overlap"]).is_ok());
        assert!(p(&["-m", "shift", "-o"]).is_ok());
        assert!(USAGE.contains("--overlap"));
    }

    /// An overlapped run computes bit-identical physics to the phased
    /// schedule and reports overlap accounting in both output formats.
    #[test]
    fn end_to_end_overlap_run() {
        let o = p(&[
            "-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-r", "2x1x1", "-o", "-P",
        ])
        .unwrap();
        let over = run_experiment(&config(&o));
        let phased =
            run_experiment(&config(&Options { overlap: false, ..o.clone() }));
        assert_eq!(over.checksum.to_bits(), phased.checksum.to_bits());
        let stats = over.overlap_stats.expect("overlap run records stats");
        assert!(stats.total_wire > 0.0, "modeled fabric must bill wire time");
        let text = render(&o, &over);
        assert!(text.contains("overlap: hidden_wire "));
        assert!(text.contains(", efficiency "));
        let js = render_json(&o, &over);
        assert!(js.contains("\"overlap\": {\"hidden_wire\""));
        assert!(js.contains("\"efficiency\""));
        let phased_js = render_json(&o, &phased);
        assert!(!phased_js.contains("\"overlap\": {"), "phased run must not claim overlap");
    }

    #[test]
    fn partitioned_flag() {
        assert!(p(&["-e"]).unwrap().partitioned);
        assert!(p(&["--partitioned"]).unwrap().partitioned);
        assert!(!p(&[]).unwrap().partitioned);
        let err = p(&["-m", "yask", "-e"]).unwrap_err();
        assert!(err.starts_with("--partitioned does not run on 'yask': ") && err.contains("packed buffers"), "{err}");
        assert!(p(&["-m", "mpi-types", "--partitioned"]).is_err());
        assert!(p(&["-m", "shift", "-e"]).is_ok());
        assert!(USAGE.contains("--partitioned"));
    }

    #[test]
    fn aries_jitter_preset() {
        let o = p(&["-n", "aries-jitter"]).unwrap();
        assert_eq!(o.net, Net::AriesJitter);
        let cfg = config(&o);
        assert_eq!(cfg.net, netsim::NetworkModel::theta_aries());
        assert_eq!(cfg.faults.seed, JITTER_SEED);
        assert_eq!(cfg.faults.jitter, JITTER_SPREAD);
        assert!(!cfg.faults.lossy(), "jitter preset must stay data-safe");
        assert!(USAGE.contains("aries-jitter"));

        // An explicit fault spec rules over the preset.
        let o = p(&["-n", "aries-jitter", "-f", "9,0,0,0,0,0.1"]).unwrap();
        let cfg = config(&o);
        assert_eq!(cfg.faults.seed, 9);
        assert_eq!(cfg.faults.jitter, 0.1);
    }

    #[test]
    fn topology_and_mapping_flags() {
        assert_eq!(p(&[]).unwrap().topology, None);
        assert_eq!(p(&[]).unwrap().mapping, MappingPolicy::Lex);
        assert_eq!(p(&["-t", "flat"]).unwrap().topology, None);
        let o = p(&["-t", "dragonfly:8", "--mapping", "bisect"]).unwrap();
        assert_eq!(o.topology, Some(Topology::Dragonfly(8)));
        assert_eq!(o.mapping, MappingPolicy::Bisect);
        let cfg = config(&o);
        let h = cfg.topology.expect("hierarchical model selected");
        assert_eq!(h.name, "dragonfly");
        assert_eq!(h.node.ranks_per_node(), 8);
        let o = p(&["--topology", "fat-tree:16", "--mapping", "lex"]).unwrap();
        assert_eq!(o.topology, Some(Topology::FatTree(16)));
        assert_eq!(o.mapping, MappingPolicy::Lex);
        // `joint` is no policy: rejected like any unknown name, with a
        // message that lists the policies there are.
        let err = p(&["-t", "fat-tree:16", "--mapping", "joint"]).unwrap_err();
        assert!(err.ends_with("(lex | bisect)"), "{err}");
        assert!(config(&p(&[]).unwrap()).topology.is_none(), "flat default");
        // Bad specs, mapping without a topology, rebalance conflicts.
        assert!(p(&["-t", "torus:4"]).is_err());
        assert!(p(&["-t", "dragonfly"]).is_err());
        assert!(p(&["-t", "dragonfly:0"]).is_err());
        assert!(p(&["-t", "dragonfly:x"]).is_err());
        assert!(p(&["-t", "dragonfly:4", "--mapping", "magic"]).is_err());
        assert!(p(&["--mapping", "bisect"]).is_err());
        assert!(p(&["-m", "rebalance", "-t", "dragonfly:4"]).is_err());
        assert!(USAGE.contains("--topology") && USAGE.contains("--mapping"));
    }

    /// A remapped hierarchical run computes bit-identical physics to
    /// the flat lexicographic run and reports the on-/off-node traffic
    /// split in both output formats; flat runs never claim one.
    #[test]
    fn end_to_end_mapping_run() {
        let o = p(&[
            "-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-r", "2x2x2",
            "-t", "dragonfly:4", "--mapping", "bisect",
        ])
        .unwrap();
        let mapped = run_experiment(&config(&o));
        let flat = run_experiment(&config(&Options {
            topology: None,
            mapping: MappingPolicy::Lex,
            ..o.clone()
        }));
        assert_eq!(mapped.checksum.to_bits(), flat.checksum.to_bits());
        let m = mapped.mapping.expect("hierarchical run records mapping stats");
        assert_eq!(m.policy, "bisect");
        assert_eq!(m.topology, "dragonfly");
        assert!(m.off_bytes <= m.lex_off_bytes, "bisect must not lose to lex");
        assert!(m.on_bytes > 0, "4 ranks/node must put some traffic on-node");
        let text = render(&o, &mapped);
        assert!(text.contains("mapping: topology dragonfly, ranks_per_node 4, policy bisect,"));
        let js = render_json(&o, &mapped);
        assert!(
            js.contains(&format!("\"checksum_bits\": \"{:#018x}\"", flat.checksum.to_bits())),
            "remapped JSON must carry the flat run's exact checksum bits"
        );
        assert!(js.contains("\"mapping\": {\"topology\": \"dragonfly\""));
        assert!(js.contains("\"off_bytes_vs_lex\""));
        assert!(js.contains("\"modeled_speedup\""));
        assert!(flat.mapping.is_none(), "flat run must not compute a split");
        assert!(!render(&o, &flat).contains("mapping:"));
        assert!(!render_json(&o, &flat).contains("\"mapping\""));
    }

    /// A partitioned CLI run stays bit-identical to phased and overlap
    /// and reports the early-shipped fraction in both output formats.
    #[test]
    fn end_to_end_partitioned_run() {
        let o = p(&[
            "-m", "layout", "-d", "16", "-I", "3", "-w", "1", "-r", "1x1x2", "-e",
        ])
        .unwrap();
        let part = run_experiment(&config(&o));
        let phased = run_experiment(&config(&Options {
            partitioned: false,
            ..o.clone()
        }));
        assert_eq!(part.checksum.to_bits(), phased.checksum.to_bits());
        let stats = part.overlap_stats.expect("partitioned run records stats");
        assert!(stats.partitioned(), "partition counters must be armed");
        assert!(stats.early_shipped_fraction() > 0.0, "nothing shipped early");
        let text = render(&o, &part);
        assert!(text.contains(", early_bytes "));
        assert!(text.contains(", early_shipped_fraction "));
        let js = render_json(&o, &part);
        assert!(js.contains("\"early_shipped_fraction\""));
        assert!(js.contains("\"early_bytes\""));
        let phased_js = render_json(&o, &phased);
        assert!(
            !phased_js.contains("early_shipped_fraction"),
            "phased run must not claim early shipping"
        );
    }

    /// Jittered fabric + partitioned mode is the tentpole's headline
    /// configuration: slow ranks keep windows open, early fragments
    /// fill them, the physics stays exact.
    #[test]
    fn end_to_end_partitioned_jitter_run() {
        let o = p(&[
            "-m", "memmap", "-d", "16", "-I", "3", "-w", "1", "-r", "1x1x2", "-e",
            "-n", "aries-jitter",
        ])
        .unwrap();
        let part = run_experiment(&config(&o));
        let clean = run_experiment(&config(&Options {
            partitioned: false,
            net: Net::Aries,
            ..o.clone()
        }));
        assert_eq!(part.checksum.to_bits(), clean.checksum.to_bits());
        assert!(part.overlap_stats.expect("stats").early_shipped_fraction() > 0.0);
    }

    #[test]
    fn trace_file_is_written() {
        let path = std::env::temp_dir().join("brickbench_trace_test.json");
        let o = p(&[
            "-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-n", "instant",
            "--trace", path.to_str().unwrap(),
        ])
        .unwrap();
        run(&o);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("exchange:layout"));
        std::fs::remove_file(&path).ok();
    }

    /// A fault-free report renders no fault/recovery output even when
    /// the options happen to have faults armed: the block is gated on
    /// the run's own armed state.
    #[test]
    fn fault_block_gated_on_armed_run() {
        let mut o =
            p(&["-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-n", "instant"]).unwrap();
        let clean = run_experiment(&config(&o));
        o.faults = netsim::FaultConfig::parse("42,0.1").unwrap();
        o.json = true;
        let js = render_json(&o, &clean);
        for key in ["\"faults\"", "\"recovery\"", "\"fault_events\"", "\"fault_seed\""] {
            assert!(!js.contains(key), "fault-free JSON leaked {key}");
        }
        let text = render(&o, &clean);
        assert!(!text.contains("fault_seed") && !text.contains("faults:") && !text.contains("recovery:"));
    }

    #[test]
    fn faults_flag() {
        let o = p(&["-f", "42,0.1,0.05"]).unwrap();
        assert_eq!(o.faults.seed, 42);
        assert_eq!(o.faults.drop, 0.1);
        assert_eq!(o.faults.corrupt, 0.05);
        assert!(o.faults.is_active());
        assert!(!p(&[]).unwrap().faults.is_active());
        assert!(p(&["--faults", "nonsense"]).is_err());
        assert!(p(&["-f", "1,2.0"]).is_err());
        assert!(p(&["-f", "1,0.1,0.1,0.1,0.1,0.1,0.1"]).is_err());
        assert!(USAGE.contains("--faults"));
    }

    /// A chaos run completes, reports the injected damage plus the
    /// recovery work, and still computes the same physics as the
    /// fault-free run.
    #[test]
    fn end_to_end_chaos_run() {
        let mut o = p(&[
            "-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-n", "instant", "-r", "2x1x1",
            "-f", "7,0.2,0.05,0.1", "--json",
        ])
        .unwrap();
        let chaos = run_experiment(&config(&o));
        let clean = run_experiment(&config(&Options { faults: netsim::FaultConfig::off(), ..o.clone() }));
        assert!(chaos.faults.total() > 0, "chaos run injected nothing");
        assert_eq!(chaos.checksum.to_bits(), clean.checksum.to_bits());
        let out = render_json(&o, &chaos);
        assert!(out.contains("\"fault_seed\": 7"));
        assert!(out.contains("\"recovery\""));
        assert!(out.contains("\"fault_events\""));
        o.json = false;
        let text = render(&o, &chaos);
        assert!(text.contains("fault_seed 7\n"));
        assert!(text.contains("faults: drops "));
        assert!(text.contains("recovery: retries "));
    }

    #[test]
    fn backend_flag() {
        assert_eq!(p(&["-B", "event"]).unwrap().backend, netsim::Backend::Event);
        assert_eq!(p(&["--backend", "thread"]).unwrap().backend, netsim::Backend::Thread);
        assert!(p(&["-B", "fiber"]).is_err());
        assert!(USAGE.contains("--backend"));
    }

    /// The full CLI pipeline on the event backend computes the same
    /// physics (to the bit) as the thread reference.
    #[test]
    fn end_to_end_event_backend_run() {
        if !netsim::Backend::event_supported() {
            return;
        }
        let base = p(&["-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-r", "2x1x1"]).unwrap();
        let thread = run_experiment(&config(&Options {
            backend: netsim::Backend::Thread,
            ..base.clone()
        }));
        let event = run_experiment(&config(&Options {
            backend: netsim::Backend::Event,
            ..base.clone()
        }));
        assert_eq!(event.checksum.to_bits(), thread.checksum.to_bits());
        assert_eq!(event.timers.call.to_bits(), thread.timers.call.to_bits());
        assert_eq!(event.timers.wait.to_bits(), thread.timers.wait.to_bits());
    }

    #[test]
    fn rebalance_flags() {
        let o = p(&["-m", "rebalance", "-M", "3", "--imbalance"]).unwrap();
        assert!(o.rebalance);
        assert_eq!(o.migrate, 3);
        assert!(o.imbalance);
        assert!(!p(&["-m", "rebalance"]).unwrap().imbalance);
        // --migrate/--imbalance are rebalance-only; rebalance rejects
        // the partitioned channel path and rank mapping, one line each.
        assert!(p(&["--migrate", "2"]).is_err());
        assert!(p(&["--imbalance"]).is_err());
        assert!(p(&["-m", "memmap", "-M", "2"]).is_err());
        for (flags, reason) in [(&["-e"][..], "ship early"), (&["-t", "dragonfly:4"], "brick->rank map")] {
            let err = p(&[&["-m", "rebalance"], flags].concat()).unwrap_err();
            assert!(err.starts_with("-m rebalance does not take") && err.contains(reason), "{err}");
            assert!(!err.contains('\n'));
        }
        assert!(p(&["-m", "rebalance", "-f", "7,0.1"]).is_ok(), "lossy fabrics run the retry protocol");
        assert!(p(&["-m", "rebalance", "-o"]).is_ok(), "overlap engine is supported");
        assert!(p(&["-m", "rebalance", "-M", "x"]).is_err());
        assert!(USAGE.contains("--migrate") && USAGE.contains("--imbalance"));
        assert!(USAGE.contains("rebalance"));
    }

    #[test]
    fn rebalance_config_maps_options() {
        let o = p(&[
            "-m", "rebalance", "-r", "2x2x1", "-d", "16", "-I", "5", "-w", "2",
            "-M", "2", "--imbalance", "-n", "instant", "-o",
        ])
        .unwrap();
        let cfg = rebalance_config(&o);
        assert_eq!(cfg.grid.dims, [4, 4, 2]);
        assert_eq!(cfg.grid.cells, 16);
        assert_eq!(cfg.grid.skew, IMBALANCE_SKEW);
        assert_eq!(cfg.steps, 5);
        assert_eq!(cfg.warmup, 2);
        assert_eq!(cfg.migrate_every, 2);
        assert!(cfg.overlap);
        assert_eq!(cfg.net, netsim::NetworkModel::instant());
        // A kill schedule without an interval checkpoints every step.
        let o = p(&[
            "-m", "rebalance", "-r", "2x1x1", "-f", "kill:1@1",
        ])
        .unwrap();
        assert_eq!(rebalance_config(&o).checkpoint_every, 1);
        // A uniform grid stays unskewed.
        let o = p(&["-m", "rebalance"]).unwrap();
        assert_eq!(rebalance_config(&o).grid.skew, 1.0);
    }

    /// The CLI's migrated run moves bricks, stays bit-identical to its
    /// static twin, and reports the migration block in both formats.
    #[test]
    fn end_to_end_rebalance_run() {
        let base = p(&[
            "-m", "rebalance", "-r", "2x1x1", "-d", "16", "-I", "4", "-w", "1",
            "-M", "2", "--imbalance", "-n", "instant",
        ])
        .unwrap();
        let migrated = run_rebalance(&rebalance_config(&base));
        let stat = run_rebalance(&rebalance_config(&Options { migrate: 0, ..base.clone() }));
        let m = migrated.migration.expect("rebalance reports migration stats");
        assert!(m.epochs >= 1, "skewed 2-rank run must trade");
        assert!(m.bricks_moved > 0);
        assert_eq!(migrated.checksum.to_bits(), stat.checksum.to_bits());
        let text = render(&base, &migrated);
        assert!(text.contains("# rebalance |"));
        assert!(text.contains(&format!("migration: epochs {},", m.epochs)) && text.contains(", imbalance_final "));
        assert!(text.contains(", nbx_rounds ") && text.contains(", ownership_digest 0x"));
        let js = render_json(&base, &migrated);
        assert!(js.contains("\"method\": \"rebalance\""));
        assert!(js.contains("\"migration\": {\"epochs\""));
        assert!(js.contains("\"ownership_digest\": \"0x"));
        let static_text = render(&base, &stat);
        assert!(static_text.contains("migration: epochs 0,"));
        // The classic engines never emit the migration block.
        let mm = p(&["-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-n", "instant"]).unwrap();
        let r = run_experiment(&config(&mm));
        assert!(!render(&mm, &r).contains("migration:"));
        assert!(!render_json(&mm, &r).contains("\"migration\""));
    }

    /// `--profile` on a rebalance run surfaces the per-brick cost
    /// signal: hot-brick totals and the log2 cost histogram.
    #[test]
    fn rebalance_profile_shows_brick_costs() {
        let o = p(&[
            "-m", "rebalance", "-r", "2x1x1", "-d", "16", "-I", "2", "-w", "0",
            "--imbalance", "-n", "instant", "-P",
        ])
        .unwrap();
        let r = run_rebalance(&rebalance_config(&o));
        let text = render(&o, &r);
        assert!(text.contains("hot bricks (rank 0):"));
        assert!(text.contains("brick cost histogram:"));
        let js = render_json(&o, &r);
        assert!(js.contains("\"top_bricks\": [{\"brick\""));
        // Hot bricks must outrank cold ones in rank 0's attribution.
        let top = r.timelines[0].top_brick_costs(1);
        let grid = rebalance_config(&o).grid;
        assert!(grid.hot(top[0].0), "costliest brick must be in the hotspot slab");
    }

    #[test]
    fn end_to_end_small_run() {
        let mut o = p(&["-m", "layout", "-d", "16", "-I", "2", "-w", "0", "-n", "instant"]).unwrap();
        o.warmup = 0;
        let out = run(&o);
        assert!(out.contains("perf"));
        assert!(out.contains("pack [0.000000, 0.000000, 0.000000]"));
    }

    /// A report with every block present — partitioned overlap, mapping,
    /// faults and recovery, resilience, migration — built by hand.
    fn report_with_every_block() -> MethodReport {
        use netsim::telemetry::{MappingStats, MigrationStats, OverlapStats};
        let spread = (1.0e-4, 2.0e-4, 3.0e-4);
        MethodReport {
            timers: netsim::Timers::default(),
            stats: packfree::ExchangeStats::default(),
            points: 4096,
            checksum: 1.5,
            summary: netsim::TimerSummary { calc: spread, pack: spread, call: spread, wait: spread },
            calc_hidden: 1.0e-4,
            faults: netsim::FaultStats {
                drops: 5,
                corrupts: 4,
                dups: 3,
                delays: 2,
                retries: 7,
                duplicates_discarded: 6,
                corrupt_detected: 4,
                degraded_exchanges: 1,
            },
            fault_events: Vec::new(),
            timelines: Vec::new(),
            fault_seed: Some(7),
            overlap_stats: Some(OverlapStats {
                hidden_wire: 1.25e-4,
                total_wire: 2.5e-4,
                early_bytes: 300,
                partition_bytes: 1200,
            }),
            recovery: packfree::FailureRecovery {
                checkpoints: 6,
                checkpoint_bytes: 4096,
                restore_bytes: 2048,
                replayed_steps: 1,
                recovery_epochs: 1,
                detect_latency_s: 3.5e-5,
                failed_rank: 1,
                failed_step: 2,
            },
            migration: Some(MigrationStats {
                epochs: 2,
                bricks_moved: 9,
                bytes_moved: 36_864,
                nbx_rounds: 3,
                nbx_data_msgs: 40,
                nbx_barrier_msgs: 24,
                imbalance_initial: 2.5,
                imbalance_final: 1.125,
                ownership_digest: 0x0123_4567_89ab_cdef,
            }),
            mapping: Some(MappingStats {
                topology: "dragonfly",
                ranks_per_node: 4,
                policy: "bisect",
                on_bytes: 1000,
                off_bytes: 3000,
                on_msgs: 10,
                off_msgs: 30,
                lex_off_bytes: 3500,
                modeled_time: 2.0e-5,
                lex_modeled_time: 2.5e-5,
            }),
        }
    }

    /// Each block's name and each of its keys is spelled once in the
    /// program, in the block list: no second printer can hand-write it.
    #[test]
    fn every_report_key_is_written_once() {
        let src = include_str!("lib.rs");
        let program = &src[..src.find("#[cfg(test)]").expect("the tests follow the program")];
        for (name, fields) in blocks(&report_with_every_block()) {
            for key in std::iter::once(name).chain(fields.iter().map(|f| f.0)) {
                let literal = format!("\"{key}\"");
                let n = program.matches(&literal).count();
                assert_eq!(n, 1, "{literal} is written {n} times");
            }
        }
    }

    /// Per block, the text line's `key value` pairs are the JSON object's
    /// members, numbers compared as printed.
    #[test]
    fn text_and_json_carry_the_same_fields() {
        let (o, r) = (Options::default(), report_with_every_block());
        let (text, json) = (render(&o, &r), render_json(&o, &r));
        let names: Vec<&str> = blocks(&r).iter().map(|b| b.0).collect();
        assert_eq!(names, ["overlap", "mapping", "faults", "recovery", "resilience", "migration"]);
        for name in names {
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{name}: ")))
                .unwrap_or_else(|| panic!("no text line for {name}"));
            let from_text: Vec<(&str, &str)> = line.split(", ").map(|kv| kv.split_once(' ').unwrap()).collect();
            let object = json
                .lines()
                .find_map(|l| l.strip_prefix(&format!("  \"{name}\": {{"))?.strip_suffix("},"))
                .unwrap_or_else(|| panic!("no JSON object for {name}"));
            let from_json: Vec<(&str, &str)> = object
                .split(", ")
                .map(|kv| {
                    let (k, v) = kv.split_once(": ").unwrap();
                    (k.trim_matches('"'), v.trim_matches('"'))
                })
                .collect();
            assert_eq!(from_text, from_json, "block {name}");
        }
        assert!(text.contains("fault_seed 7\n") && json.contains("  \"fault_seed\": 7,\n"));
    }
}
