//! Single-layer probes: each one times calls into one module's public
//! functions from outside, at the workload's geometry. The traced run
//! wraps every probe in a span; nothing here is part of an end-to-end
//! number.

use std::hint::black_box;
use std::time::Instant;

use brick::BrickDims;
use netsim::{run_cluster_on, Backend, CartTopo, FaultConfig, NetworkModel};
use packfree::experiment::{CpuMethod, ExperimentConfig};
use packfree::memmap::memmap_decomp;
use packfree::{BrickDecomp, ExchangeView, Exchanger, MemMapStorage};
use sched::DepGraph;
use stencil::{ArrayGrid, KernelPlan, PlanSplit};

use crate::stats::median;
use crate::workloads::Workload;

/// 4 KiB of `f64`, the transport probes' message.
const PROBE_ELEMS: usize = 512;

fn secs(f: impl FnOnce()) -> f64 {
    netsim::timed(f).1
}

/// Median seconds of `reps` calls.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| secs(&mut f)).collect();
    median(&samples)
}

/// Median seconds per call, repeating for about `budget` seconds (at
/// least 5 calls, at most 2000).
fn median_secs_for(budget: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (t0.elapsed().as_secs_f64() < budget && samples.len() < 2000) {
        samples.push(secs(&mut f));
    }
    median(&samples)
}

/// The decomposition `run_experiment` builds for this method.
pub fn build_decomp(cfg: &ExperimentConfig) -> BrickDecomp<3> {
    let bdims = BrickDims::cubic(cfg.brick);
    match cfg.method {
        CpuMethod::MemMap { page_size } => memmap_decomp(
            cfg.subdomain,
            cfg.ghost,
            bdims,
            1,
            layout::surface3d(),
            page_size,
        ),
        _ => BrickDecomp::<3>::layout_mode(cfg.subdomain, cfg.ghost, bdims, 1, layout::surface3d()),
    }
}

/// `decomp.build_us`.
pub fn decomp_build(cfg: &ExperimentConfig, reps: usize) -> f64 {
    median_secs(reps, || {
        black_box(build_decomp(black_box(cfg)));
    })
}

/// `memview.map_us`: both buffers' memfd storage and send views.
pub fn memview_map(decomp: &BrickDecomp<3>, reps: usize) -> f64 {
    median_secs(reps, || {
        for _ in 0..2 {
            let st = MemMapStorage::allocate(decomp).expect("memfd allocation");
            black_box(ExchangeView::build(decomp, &st).expect("view construction"));
        }
    })
}

/// `stencil.plan_bind_us`.
pub fn plan_bind(cfg: &ExperimentConfig, decomp: &BrickDecomp<3>, reps: usize) -> f64 {
    median_secs(reps, || {
        black_box(KernelPlan::new(decomp.brick_info(), &cfg.shape, 1, 0));
    })
}

/// `stencil.plan_exec_us`: one `KernelPlan::execute` over the full
/// compute mask, on heap storage, input fixed so values never drift.
pub fn plan_exec(cfg: &ExperimentConfig, decomp: &BrickDecomp<3>, budget: f64) -> f64 {
    let plan = KernelPlan::new(decomp.brick_info(), &cfg.shape, 1, 0);
    let mut cur = decomp.allocate();
    let mut nxt = decomp.allocate();
    packfree::fields::fill_interior(decomp, &mut cur, 0, |c| {
        ((c[0] + c[1] + c[2]) % 17) as f64 / 16.0
    });
    median_secs_for(budget, || {
        plan.execute(black_box(&cur), &mut nxt, decomp.compute_mask());
        black_box(nxt.as_slice());
    })
}

/// `stencil.array_exec_us`: the lexicographic-array kernel at the same
/// subdomain.
pub fn array_exec(cfg: &ExperimentConfig, budget: f64) -> f64 {
    let mut cur = ArrayGrid::new(cfg.subdomain, cfg.ghost);
    let mut nxt = ArrayGrid::new(cfg.subdomain, cfg.ghost);
    cur.fill_interior(|x, y, z| ((x + y + z) % 17) as f64 / 16.0);
    let plan = cur.plan(&cfg.shape);
    median_secs_for(budget, || {
        black_box(&cur).apply_plan_into(&plan, &mut nxt);
        black_box(nxt.as_slice());
    })
}

/// `cluster.spawn_us`: an empty body at the workload's rank count and
/// backend.
pub fn cluster_spawn(cfg: &ExperimentConfig, reps: usize) -> f64 {
    let topo = CartTopo::new(&cfg.ranks, true);
    median_secs(reps, || {
        black_box(run_cluster_on(
            cfg.backend,
            &topo,
            cfg.wire(),
            FaultConfig::off(),
            |ctx| ctx.rank(),
        ));
    })
}

pub struct ExchangeProbe {
    /// Session (or view schedule) bind on rank 0.
    pub bind_s: f64,
    /// Median host seconds of one cluster-wide blocking exchange,
    /// barrier to barrier on rank 0.
    pub host_s: f64,
    /// `DepGraph::build` on rank 0; `None` unless the workload runs
    /// the dependency-graph schedule.
    pub graph_build_s: Option<f64>,
}

/// The exchange engine the workload uses, alone: bind, then `reps`
/// blocking exchanges with no compute between them.
pub fn exchange(
    w: &Workload,
    cfg: &ExperimentConfig,
    decomp: &BrickDecomp<3>,
    reps: usize,
) -> ExchangeProbe {
    let topo = CartTopo::new(&cfg.ranks, true);
    let dag = w.partitioned;
    let per_rank = match cfg.method {
        CpuMethod::MemMap { .. } => {
            run_cluster_on(cfg.backend, &topo, cfg.wire(), FaultConfig::off(), |ctx| {
                let mut st = MemMapStorage::allocate(decomp).expect("memfd allocation");
                let mut view = ExchangeView::build(decomp, &st).expect("view construction");
                ctx.barrier();
                let bind_s = secs(|| view.ensure_bound(ctx, &st));
                let host: Vec<f64> = (0..reps)
                    .map(|_| {
                        ctx.barrier();
                        secs(|| {
                            view.exchange(ctx, &mut st).expect("memmap exchange");
                            ctx.barrier();
                        })
                    })
                    .collect();
                (bind_s, median(&host), None)
            })
        }
        _ => {
            let exchanger = Exchanger::layout(decomp);
            run_cluster_on(cfg.backend, &topo, cfg.wire(), FaultConfig::off(), |ctx| {
                let mut st = decomp.allocate();
                ctx.barrier();
                let t0 = Instant::now();
                let mut session = exchanger.session(ctx);
                let bind_s = t0.elapsed().as_secs_f64();
                let graph_build_s = dag.then(|| {
                    let step = decomp.step();
                    let recv_ghosts: Vec<Vec<u32>> = session
                        .recv_ranges()
                        .iter()
                        .map(|r| ((r.start / step) as u32..(r.end / step) as u32).collect())
                        .collect();
                    let split = PlanSplit::new(&decomp.interior_mask(), decomp.compute_mask());
                    median_secs(5, || {
                        black_box(DepGraph::build(
                            decomp.brick_info(),
                            split.boundary(),
                            &recv_ghosts,
                        ));
                    })
                });
                let host: Vec<f64> = (0..reps)
                    .map(|_| {
                        ctx.barrier();
                        secs(|| {
                            session.exchange(ctx, &mut st).expect("layout exchange");
                            ctx.barrier();
                        })
                    })
                    .collect();
                (bind_s, median(&host), graph_build_s)
            })
        }
    };
    let (bind_s, host_s, graph_build_s) = per_rank.into_iter().next().expect("rank 0");
    ExchangeProbe {
        bind_s,
        host_s,
        graph_build_s,
    }
}

/// `cluster.loopback_ns_per_msg`: the self-send fast path the
/// single-rank sessions use (`loopback_within`, one copy), 4 KiB
/// messages in epochs of 26 closed the way a session closes them.
pub fn loopback_ns() -> f64 {
    const MSGS: usize = 26 * 2000;
    let topo = CartTopo::new(&[1, 1, 1], true);
    let out = run_cluster_on(
        Backend::Thread,
        &topo,
        NetworkModel::theta_aries(),
        FaultConfig::off(),
        |ctx| {
            let mut data = vec![1.0f64; 2 * PROBE_ELEMS];
            secs(|| {
                for i in 0..MSGS {
                    ctx.loopback_within(i as u64 % 26, &mut data, 0..PROBE_ELEMS, PROBE_ELEMS)
                        .expect("loopback");
                    if i % 26 == 25 {
                        ctx.waitall_ranges(&[], &mut data, &[])
                            .expect("epoch close");
                    }
                }
                black_box(&data);
            })
        },
    );
    out[0] / MSGS as f64 * 1e9
}

/// `cluster.mailbox_ns_per_msg`: two ranks on the workload's backend
/// each send the other a 4 KiB message and receive one, per round;
/// host time per round on rank 0.
pub fn mailbox_ns(backend: Backend) -> f64 {
    const ROUNDS: usize = 20_000;
    let topo = CartTopo::new(&[2, 1, 1], true);
    let out = run_cluster_on(
        backend,
        &topo,
        NetworkModel::theta_aries(),
        FaultConfig::off(),
        |ctx| {
            let peer = 1 - ctx.rank();
            let send = vec![1.0f64; PROBE_ELEMS];
            let mut recv = vec![0.0f64; PROBE_ELEMS];
            ctx.barrier();
            secs(|| {
                for i in 0..ROUNDS {
                    let tag = i as u64 % 64;
                    ctx.isend(peer, tag, &send).expect("isend");
                    let h = ctx.irecv(peer, tag).expect("irecv");
                    ctx.waitall_into(&[h], &mut [recv.as_mut_slice()])
                        .expect("waitall");
                }
                black_box(&recv);
            })
        },
    );
    out[0] / ROUNDS as f64 * 1e9
}

/// `event.resume_ns`: a barrier-only body at the workload's rank
/// count on the event backend; host time per rank resume.
pub fn event_resume_ns(cfg: &ExperimentConfig) -> f64 {
    let ranks: usize = cfg.ranks.iter().product();
    let barriers = (100_000 / ranks).max(100);
    let topo = CartTopo::new(&cfg.ranks, true);
    let out = run_cluster_on(
        Backend::Event,
        &topo,
        cfg.wire(),
        FaultConfig::off(),
        |ctx| {
            ctx.barrier();
            secs(|| {
                for _ in 0..barriers {
                    ctx.barrier();
                }
            })
        },
    );
    out[0] / (ranks * barriers) as f64 * 1e9
}
