//! The guard-free stack slab stays virtual: past 16,384 ranks every
//! stack shares one mapping, and every rank touches only the top pages
//! of its own. Were huge pages allowed there, one 2 MiB page would span
//! 16 stacks and the whole reservation would become resident. One test
//! in its own binary, because it reads the process's peak resident set.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use netsim::{run_cluster_on, Backend, CartTopo, FaultConfig, NetworkModel};

/// Peak resident set of this process, in bytes (`VmHWM`).
fn peak_rss_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM");
    let kib: usize = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmHWM in kB");
    kib << 10
}

#[test]
fn guard_free_stacks_stay_mostly_virtual() {
    // One past the largest guarded slab; stacks there default to 128 KiB.
    const RANKS: usize = 16_385;
    const STACK_BYTES: usize = 128 << 10;
    let before = peak_rss_bytes();
    let topo = CartTopo::new(&[RANKS], true);
    run_cluster_on(Backend::Event, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| {
        ctx.barrier()
    });
    let grown = peak_rss_bytes().saturating_sub(before);
    let reserved = RANKS * STACK_BYTES;
    assert!(
        grown < reserved / 4,
        "{RANKS} barrier-only ranks grew the peak resident set by {} MiB of a {} MiB stack slab",
        grown >> 20,
        reserved >> 20
    );
}
