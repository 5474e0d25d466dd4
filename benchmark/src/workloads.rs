//! The five workloads. Everything the program receives is the
//! `ExperimentConfig` built here; physics inputs are the program's own
//! rank-independent fill, so `--seed` only orders the operations (and
//! seeds the jitter variant of the traced run).

use netsim::{Backend, FaultConfig, NetworkModel};
use packfree::experiment::{CpuMethod, ExperimentConfig, KernelKind};
use stencil::StencilShape;

/// How the event backend's worker pool is sized for a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workers {
    /// `NETSIM_WORKERS=1`: rank coroutines take turns on one thread.
    One,
    /// `NETSIM_WORKERS=nproc`: the scheduler itself is the subject.
    Nproc,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub method: CpuMethod,
    pub ranks: [usize; 3],
    pub backend: Backend,
    pub subdomain: usize,
    /// Timed steps `S` and untimed warm-up steps `W` of one block.
    pub steps: usize,
    pub warmup: usize,
    pub partitioned: bool,
    pub checkpoint_every: usize,
    pub workers: Workers,
}

const MEMMAP: CpuMethod = CpuMethod::MemMap { page_size: 4096 };

/// `S`/`W` are tuned once so a block takes 0.3-0.7 s of host time on
/// the 2-core reference box (README, "Run lengths"), then frozen.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "k1-small",
        why: "Startup-bound K1 proxy (MemMap, 16^3, 1 rank): ~90% of a step is modeled exchange; host time is memview/memmap/loopback code, so exchange and transport changes show, kernel changes barely.",
        method: MEMMAP,
        ranks: [1, 1, 1],
        backend: Backend::Thread,
        subdomain: 16,
        steps: 20_000,
        warmup: 1_000,
        partitioned: false,
        checkpoint_every: 0,
        workers: Workers::One,
    },
    Workload {
        name: "k1-large",
        why: "Kernel-bound mirror (Layout, 128^3, 1 rank, grids past LLC): KernelPlan is ~75% of a step, exchange is purely modeled; kernel work shows here, transport work must show nothing.",
        method: CpuMethod::Layout,
        ranks: [1, 1, 1],
        backend: Backend::Thread,
        subdomain: 128,
        steps: 60,
        warmup: 5,
        partitioned: false,
        checkpoint_every: 0,
        workers: Workers::One,
    },
    Workload {
        name: "halo2-part",
        why: "2x1x1 ranks, event backend, Layout 64^3 (512 bricks/rank), partitioned: split begin/poll/finish and per-brick pready over mailboxes; sched, netsim::partition and PlanSplit work only here.",
        method: CpuMethod::Layout,
        ranks: [2, 1, 1],
        backend: Backend::Event,
        subdomain: 64,
        steps: 200,
        warmup: 20,
        partitioned: true,
        checkpoint_every: 0,
        workers: Workers::One,
    },
    Workload {
        name: "halo8-ckpt",
        why: "2x2x2 ranks, event backend, MemMap 64^3, buddy checkpoint every 2 steps: 4 MB snapshot frames share sessions, pools and mailboxes with 26 halo messages, so bulk-vs-halo transport trade-offs show.",
        method: MEMMAP,
        ranks: [2, 2, 2],
        backend: Backend::Event,
        subdomain: 64,
        steps: 4,
        warmup: 1,
        partitioned: false,
        checkpoint_every: 2,
        workers: Workers::One,
    },
    Workload {
        name: "sim-scale",
        why: "8x8x8 = 512 coroutine ranks of Layout 16^3: host time is netsim::event park/wake/steal plus mailbox transport; virtual time is mostly modeled and must stay flat under any scheduler change.",
        method: CpuMethod::Layout,
        ranks: [8, 8, 8],
        backend: Backend::Event,
        subdomain: 16,
        steps: 8,
        warmup: 2,
        partitioned: false,
        checkpoint_every: 0,
        workers: Workers::Nproc,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn rank_count(&self) -> usize {
        self.ranks.iter().product()
    }

    /// Threads that are busy at once while a block runs: the rank
    /// thread of a single-rank thread-backend run, or the event
    /// backend's workers. (The `rayon` stand-in adds none.)
    pub fn busy_threads(&self, nproc: usize) -> usize {
        match (self.backend, self.workers) {
            (Backend::Thread, _) => self.rank_count(),
            (Backend::Event, Workers::One) => 1,
            (Backend::Event, Workers::Nproc) => nproc,
        }
    }

    pub fn netsim_workers(&self, nproc: usize) -> usize {
        match self.workers {
            Workers::One => 1,
            Workers::Nproc => nproc,
        }
    }

    /// One block. `k1` supplies the `mapping: Lex` default only; every
    /// other field is set here, `backend` included, so nothing is read
    /// from the environment.
    pub fn block(&self, smoke: bool) -> ExperimentConfig {
        let (steps, warmup) = if smoke {
            ((self.steps / 10).max(2), (self.warmup / 10).max(1))
        } else {
            (self.steps, self.warmup)
        };
        ExperimentConfig {
            method: self.method.clone(),
            subdomain: [self.subdomain; 3],
            ghost: 8,
            brick: 8,
            shape: StencilShape::star7_default(),
            steps,
            warmup,
            ranks: self.ranks.to_vec(),
            net: NetworkModel::theta_aries(),
            topology: None,
            kernel: KernelKind::Plan,
            faults: FaultConfig::off(),
            profile: false,
            overlap: false,
            checkpoint_every: self.checkpoint_every,
            partitioned: self.partitioned,
            backend: self.backend,
            ..ExperimentConfig::k1(self.method.clone(), self.subdomain)
        }
    }

    /// The set-up twin of a block: the same configuration for one step.
    pub fn setup(&self) -> ExperimentConfig {
        ExperimentConfig {
            steps: 1,
            warmup: 0,
            ..self.block(false)
        }
    }

    /// An independent configuration that must produce the same
    /// checksum bits as `cfg`: the other backend for the workloads of
    /// at most 8 ranks, and for `sim-scale` the single-rank proxy
    /// (ranks are symmetric and the fill is rank-independent).
    pub fn cross_check(&self, cfg: &ExperimentConfig) -> ExperimentConfig {
        let mut alt = cfg.clone();
        if self.rank_count() > 8 {
            alt.ranks = vec![1, 1, 1];
            alt.backend = Backend::Thread;
        } else {
            alt.backend = match cfg.backend {
                Backend::Thread => Backend::Event,
                Backend::Event => Backend::Thread,
            };
        }
        alt
    }

    /// `layout.msgs`: 26 for MemMap (one per neighbor), 42 for Layout.
    pub fn expected_msgs(&self) -> usize {
        match self.method {
            CpuMethod::MemMap { .. } => 26,
            _ => 42,
        }
    }
}
