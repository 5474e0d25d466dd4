//! The runner: how the ranks of a cluster are started, respawned and
//! collected, and the one place that maps a [`Backend`] to the substrate
//! a rank's stack is suspended on.
//!
//! Every run, on either backend, is scheduled by `event::Sched`: ranks
//! are tasks multiplexed onto a small worker pool, a rank that would
//! block parks and is re-queued when its message or barrier release
//! arrives, quiescence is a deadlock the scheduler reports at once, and a
//! panic aborts the cluster in one place. A [`Backend`] only chooses how
//! a suspended rank's stack is kept (`task.rs`):
//!
//! * **Thread** — an OS thread per rank, which runs only while a worker
//!   has resumed it. Works on every platform; limited to a few thousand
//!   ranks by the kernel's thread count.
//! * **Event** — an asm-switched coroutine on a slab stack (x86-64
//!   Linux). Scales to 100k+ ranks on one machine.
//!
//! Both run the *same* rank-body code against the same [`RankCtx`] under
//! the same scheduler, with modeled time billed identically — results
//! are bit-identical across backends by construction. The shared state
//! of a run ([`Cluster`]), the incarnation loop that respawns a
//! crash-stopped rank and the result collection exist once.
//!
//! A rank body that panics does not abort the whole process: the panic
//! is caught at the rank boundary, the rest of the cluster is woken and
//! unwound (pending receives report `Timeout`, spin-polls unwind at their
//! next yield), and the run reports a structured
//! [`NetsimError::RankPanicked`] (via [`try_run_cluster_on`]; the
//! panicking convenience wrappers re-panic with that message).

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::cluster::RankCtx;
use crate::error::NetsimError;
use crate::event::{default_stack_bytes, default_workers, Sched};
use crate::fault::FaultConfig;
use crate::hier::HierarchicalNetworkModel;
use crate::mailbox::{BufferPool, Mailbox};
use crate::procfault::{KillSentinel, ProcState};
use crate::topo::CartTopo;

/// How the stack of a suspended rank is kept. See the module docs; the
/// two backends run under one scheduler and are observationally
/// equivalent (bit-identical results and modeled timers), they differ
/// only in how far they scale and where they run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per rank, running only while resumed.
    #[default]
    Thread,
    /// One coroutine per rank. Runs on rank threads instead on
    /// platforms without the coroutine substrate (non-x86-64 /
    /// non-Linux).
    Event,
}

impl Backend {
    /// Parse `"thread"` / `"event"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "thread" | "threads" => Some(Backend::Thread),
            "event" | "events" => Some(Backend::Event),
            _ => None,
        }
    }

    /// Backend selected by the `NETSIM_BACKEND` environment variable,
    /// defaulting to [`Backend::Thread`] when it is unset. This is what
    /// the convenience runners ([`run_cluster`], [`run_cluster_faulty`])
    /// use, so an entire existing test suite can be re-run on the event
    /// backend by exporting `NETSIM_BACKEND=event`. A value that names no
    /// backend is rejected (panics with the [`std::str::FromStr`]
    /// message): a misspelt `event` must not quietly run threads.
    pub fn from_env() -> Backend {
        env_setting("NETSIM_BACKEND").unwrap_or_default()
    }

    /// Whether the event backend's coroutine substrate is compiled in on
    /// this platform.
    pub fn event_supported() -> bool {
        cfg!(all(target_os = "linux", target_arch = "x86_64"))
    }

    /// Stable lowercase name (used in bench JSON and CLI output).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Event => "event",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Backend, String> {
        Backend::parse(s).ok_or_else(|| format!("unknown backend {s:?} (want thread|event)"))
    }
}

/// `value`, the setting of environment variable `name`, parsed: `None`
/// when unset, an error naming the variable and the offending value when
/// it does not parse.
fn parse_setting<T: std::str::FromStr>(name: &str, value: Option<&str>) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    value.map(|v| v.trim().parse().map_err(|e| format!("{name}={v:?}: {e}"))).transpose()
}

/// Environment variable `name`, parsed; `None` when unset. Panics on a
/// value that does not parse: a setting that silently falls back to the
/// default runs something other than what was asked for.
pub(crate) fn env_setting<T: std::str::FromStr>(name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let value = match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{name}: {e}"),
    };
    parse_setting(name, value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// What the ranks of one run share, whichever backend spawns them.
pub(crate) struct Cluster<'a> {
    pub(crate) topo: &'a CartTopo,
    pub(crate) net: HierarchicalNetworkModel,
    pub(crate) faults: FaultConfig,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) pools: Vec<BufferPool>,
    pub(crate) proc: ProcState,
}

impl<'a> Cluster<'a> {
    fn new(topo: &'a CartTopo, net: HierarchicalNetworkModel, faults: FaultConfig) -> Cluster<'a> {
        let size = topo.size();
        Cluster {
            topo,
            net,
            faults,
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            pools: (0..size).map(|_| BufferPool::default()).collect(),
            proc: ProcState::new(size),
        }
    }
}

/// Run `body` once per rank of `topo` on the backend selected by
/// `NETSIM_BACKEND` (default: rank threads) and collect the per-rank
/// results in rank order. Panics with the [`NetsimError::RankPanicked`]
/// report if a rank body panics; use [`try_run_cluster_on`] to get it as
/// a value.
pub fn run_cluster<R, F>(
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    run_cluster_faulty(topo, net, FaultConfig::off(), body)
}

/// Like [`run_cluster`], but with a seeded [`FaultConfig`] armed: every
/// rank derives a deterministic [`crate::FaultPlan`] and its wire model is
/// scaled by the plan's per-rank slowdown factor.
pub fn run_cluster_faulty<R, F>(
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    faults: FaultConfig,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    run_cluster_on(Backend::from_env(), topo, net, faults, body)
}

/// Run a cluster on an explicitly chosen [`Backend`]. Panics with the
/// structured report if a rank body panics.
pub fn run_cluster_on<R, F>(
    backend: Backend,
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    faults: FaultConfig,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    match try_run_cluster_on(backend, topo, net, faults, body) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Run a cluster on an explicitly chosen [`Backend`], reporting a rank
/// panic as [`NetsimError::RankPanicked`] (first panic observed = root
/// cause; the remaining ranks are woken and unwound, not abandoned).
pub fn try_run_cluster_on<R, F>(
    backend: Backend,
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    faults: FaultConfig,
    body: F,
) -> Result<Vec<R>, NetsimError>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    let cluster = Cluster::new(topo, net.into(), faults);
    let results: Vec<Mutex<Option<R>>> = (0..topo.size()).map(|_| Mutex::new(None)).collect();
    let workers = default_workers().min(topo.size().max(1));
    let coroutines = backend == Backend::Event && Backend::event_supported();
    let panicked = spawn_tasks(&cluster, workers, coroutines, &body, &results);
    if let Some((rank, payload)) = panicked {
        return Err(NetsimError::RankPanicked { rank, payload });
    }
    let completed = |(rank, slot): (usize, Mutex<Option<R>>)| {
        // No panic was recorded, yet this rank never produced a result
        // (abandoned by a scheduler abort): report it structurally
        // instead of unwrapping.
        slot.into_inner().ok_or_else(|| NetsimError::RankPanicked {
            rank,
            payload: "rank body never completed (cluster aborted)".into(),
        })
    };
    results.into_iter().enumerate().map(completed).collect()
}

/// Render a caught panic payload for [`NetsimError::RankPanicked`].
fn payload_string(p: Box<dyn Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<opaque panic payload>".to_string(),
        },
    }
}

/// One rank, through all its incarnations: run `body` to its result,
/// respawning it in place — a fresh [`RankCtx`], the next incarnation
/// number — each time a crash-stop fault unwinds it (the resilient
/// driver's recovery epoch restores the lost state from the buddy
/// checkpoint). `Err` is the payload of a real panic, which is the
/// scheduler's to report.
fn run_rank<'a, R, F>(
    cluster: &'a Cluster<'a>,
    sched: &'a Sched,
    rank: usize,
    body: &F,
) -> Result<R, Box<dyn Any + Send>>
where
    F: Fn(&mut RankCtx<'_>) -> R,
{
    let mut incarnation = 0usize;
    loop {
        let mut ctx = RankCtx::new(cluster, sched, rank, incarnation);
        match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
            Ok(r) => return Ok(r),
            Err(p) if p.is::<KillSentinel>() => {
                incarnation += 1;
                cluster.proc.respawn(&cluster.mailboxes[rank], rank);
            }
            Err(p) => return Err(p),
        }
    }
}

/// The runner: one task per rank — a coroutine if `coroutines`, else a
/// rank thread — on a work-stealing pool of `workers`; see `event.rs`
/// for the scheduling rules. Returns the first rank panic: the task
/// catches it, the scheduler aborts the cluster and expires every parked
/// rank.
fn spawn_tasks<R, F>(
    cluster: &Cluster<'_>,
    workers: usize,
    coroutines: bool,
    body: &F,
    results: &[Mutex<Option<R>>],
) -> Option<(usize, String)>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    // Rank bodies need `&Sched` (for parking), but the scheduler is
    // built *from* the bodies. Tasks only ever run inside `sched.run()`,
    // so they can read the pointer through this cell, which is filled
    // right after construction and before `run`.
    let sched_cell = AtomicUsize::new(0);
    let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..results.len())
        .map(|rank| {
            let sched_cell = &sched_cell;
            Box::new(move || {
                // SAFETY: filled with a pointer to the live Sched
                // before run(); the Sched outlives all its tasks.
                let sched: &Sched =
                    unsafe { &*(sched_cell.load(Ordering::SeqCst) as *const Sched) };
                match run_rank(cluster, sched, rank, body) {
                    Ok(r) => *results[rank].lock() = Some(r),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();

    let stack_bytes = default_stack_bytes(results.len());
    // SAFETY: `run()` below drives every task to completion before this
    // function returns, so the borrows captured by the bodies stay valid
    // for as long as any task can run.
    let sched = unsafe { Sched::new(bodies, workers, stack_bytes, coroutines) };
    sched_cell.store(&sched as *const Sched as usize, Ordering::SeqCst);
    sched.run();
    sched.take_panics().into_iter().next().map(|(rank, p)| (rank, payload_string(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Msg;
    use crate::model::NetworkModel;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn barrier_synchronizes() {
        let topo = CartTopo::new(&[4], true);
        let counter = AtomicUsize::new(0);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    /// The barrier never raises `waiting`, so a message for a rank parked
    /// there queues without waking it: `push` reports nobody to wake, and
    /// the rank stays parked until the barrier itself releases it.
    #[test]
    fn a_push_to_a_rank_parked_on_the_barrier_wakes_nobody() {
        let topo = CartTopo::new(&[2], true);
        for coroutines in [true, false] {
            let cluster = Cluster::new(&topo, NetworkModel::instant().into(), FaultConfig::off());
            let results: Vec<Mutex<Option<()>>> = (0..2).map(|_| Mutex::new(None)).collect();
            let (arrived, released) = (AtomicBool::new(false), AtomicBool::new(false));
            // One worker: ranks run in turn, so once rank 0 has seen `arrived`
            // and been resumed again, rank 1 is parked inside the barrier.
            let panicked = spawn_tasks(
                &cluster,
                1,
                coroutines,
                &|ctx: &mut RankCtx<'_>| {
                    if ctx.rank() == 1 {
                        arrived.store(true, Ordering::SeqCst);
                        ctx.barrier();
                        released.store(true, Ordering::SeqCst);
                        return;
                    }
                    while !arrived.load(Ordering::SeqCst) {
                        ctx.idle_tick().unwrap();
                    }
                    ctx.idle_tick().unwrap();
                    let msg = Msg { owner: None, data: vec![1.0] };
                    assert!(ctx.mailboxes[1].push((0, 7), msg).is_none(), "nobody sleeps on mailbox 1");
                    for _ in 0..4 {
                        ctx.idle_tick().unwrap();
                        assert!(!released.load(Ordering::SeqCst), "the push woke rank 1 out of the barrier");
                    }
                    ctx.barrier();
                },
                &results,
            );
            assert!(panicked.is_none(), "{panicked:?}");
            assert!(released.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn a_misspelt_backend_is_not_the_thread_backend() {
        assert_eq!(parse_setting::<Backend>("NETSIM_BACKEND", None), Ok(None));
        assert_eq!(parse_setting("NETSIM_BACKEND", Some("event")), Ok(Some(Backend::Event)));
        assert_eq!(parse_setting("NETSIM_BACKEND", Some(" Threads ")), Ok(Some(Backend::Thread)));
        let err = parse_setting::<Backend>("NETSIM_BACKEND", Some("evnt")).unwrap_err();
        assert!(err.contains("NETSIM_BACKEND") && err.contains("unknown backend \"evnt\""), "{err}");
    }

    #[test]
    fn a_worker_count_that_is_not_a_number_is_rejected() {
        assert_eq!(parse_setting::<usize>("NETSIM_WORKERS", None), Ok(None));
        assert_eq!(parse_setting("NETSIM_WORKERS", Some("2")), Ok(Some(2usize)));
        let err = parse_setting::<usize>("NETSIM_WORKERS", Some("two")).unwrap_err();
        assert!(err.contains("NETSIM_WORKERS=\"two\""), "{err}");
    }

    #[test]
    fn a_stack_size_with_a_unit_suffix_is_rejected() {
        assert_eq!(parse_setting("NETSIM_STACK_BYTES", Some("1048576")), Ok(Some(1usize << 20)));
        let err = parse_setting::<usize>("NETSIM_STACK_BYTES", Some("1M")).unwrap_err();
        assert!(err.contains("NETSIM_STACK_BYTES=\"1M\""), "{err}");
    }
}
