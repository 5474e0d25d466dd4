//! A MemMap or Shift run whose mapped grids come back from the pool,
//! dirtied by the run before it, computes what that run computed: the
//! same checksum bits on every schedule, fault plan and backend, and on
//! the phased and overlapped rows without a kill the same modeled
//! `call`, `wait` and message count.
//!
//! One `#[test]` in its own binary, so each second run takes the grids
//! its first run left, not grids of another test's length.

use bricklib::prelude::*;
use netsim::ProcFault;

#[test]
fn reused_mapped_grids_change_no_bits() {
    let kill = FaultConfig { kill: Some(ProcFault { rank: 1, step: 2, op: 0, stall_secs: 0.0 }), ..FaultConfig::off() };
    for backend in [Backend::Thread, Backend::Event] {
        let page_size = memview::PAGE_4K;
        for method in [CpuMethod::MemMap { page_size }, CpuMethod::Shift { page_size }] {
            let phased = ExperimentConfig { ranks: vec![2, 2, 2], backend, ..ExperimentConfig::k1(method.clone(), 16) };
            // `(row, config, whether its modeled traffic is a function of its inputs)`.
            let mut rows = vec![
                ("phased", phased.clone(), true),
                ("-o", ExperimentConfig { overlap: true, ..phased.clone() }, true),
                ("kill:1@2 -c 1", ExperimentConfig { faults: kill, checkpoint_every: 1, ..phased.clone() }, false),
            ];
            if matches!(method, CpuMethod::MemMap { .. }) {
                rows.push(("-e", ExperimentConfig { partitioned: true, ..phased.clone() }, false));
            }
            for (row, cfg, modeled) in rows {
                let what = format!("{} {row} on {backend:?}", method.name());
                let first = run_experiment(&cfg);
                let second = run_experiment(&cfg);
                assert_eq!(second.checksum.to_bits(), first.checksum.to_bits(), "{what}: checksum");
                if modeled {
                    let (a, b) = (&first.timers, &second.timers);
                    assert_eq!(b.call.to_bits(), a.call.to_bits(), "{what}: call");
                    assert_eq!(b.wait.to_bits(), a.wait.to_bits(), "{what}: wait");
                    assert_eq!(b.msgs, a.msgs, "{what}: msgs");
                }
            }
        }
    }
}
