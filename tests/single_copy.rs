//! Single-copy halos, proven: a phased halo message — a channel's first
//! included — is written by its sender straight into the ghost run the
//! receiver pre-posted: no pooled buffer, no second copy. One test in
//! its own binary because it pins the event scheduler to one worker,
//! where the rank interleaving — and with it which path every message
//! takes — is deterministic.

use bricklib::prelude::*;

/// `(msgs_sent, msgs_direct)` summed over the ranks' timed steps.
fn sent_and_direct(report: &MethodReport) -> (u64, u64) {
    let sum = |name: &str| -> u64 {
        let counters = report.timelines.iter().flat_map(|t| &t.counters);
        counters.filter(|(n, _)| *n == name).map(|(_, v)| *v).sum()
    };
    (sum("msgs_sent"), sum("msgs_direct"))
}

fn run(method: CpuMethod, ranks: [usize; 3], backend: Backend) -> (u64, u64) {
    let mut cfg = ExperimentConfig::k1(method, 16);
    cfg.steps = STEPS;
    cfg.warmup = 0;
    cfg.ranks = ranks.to_vec();
    cfg.backend = backend;
    cfg.profile = true;
    let report = run_experiment(&cfg);
    assert_eq!(report.timelines.len(), ranks.iter().product::<usize>());
    sent_and_direct(&report)
}

const STEPS: usize = 6;

#[test]
fn every_halo_message_is_copied_once() {
    std::env::set_var("NETSIM_WORKERS", "1");
    let memmap = CpuMethod::MemMap {
        page_size: memview::PAGE_4K,
    };
    for (method, ranks) in [(CpuMethod::Layout, [4, 4, 4]), (memmap.clone(), [2, 2, 2])] {
        let name = method.name();
        let (sent, direct) = run(method, ranks, Backend::Event);
        // No rank is its own neighbour on these grids, so every message
        // crosses a mailbox, and every receive is pre-posted before the
        // peers' sends run.
        assert!(sent > 0 && sent % STEPS as u64 == 0, "{name}: {sent} messages in {STEPS} steps");
        assert_eq!(direct, sent, "{name} {ranks:?}: {direct} of {sent} direct");
    }
    // Threads interleave as the host pleases: a bound, not a count.
    let (sent, direct) = run(memmap, [2, 2, 2], Backend::Thread);
    assert!(direct > 0 && direct <= sent, "thread: {direct} of {sent} direct");
}
