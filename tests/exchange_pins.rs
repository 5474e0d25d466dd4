//! Behaviour pins of the brick exchange: what every brick method sends
//! and bills, fixed as constants. The five brick methods differ only in
//! where their halo bytes live, so a change to how the exchange is cut
//! or driven must leave every modeled charge, message count and byte
//! count — and the physics — exactly where these rows put them.
//!
//! A row is run on both backends, phased and overlapped (`-o`), and must
//! read the same `ExchangeStats`, the same per-step `msgs`,
//! `payload_bytes` and `wire_bytes` and the same `call` and `wait` bits
//! of rank 0 every time. Partitioned (`-e`) and killed (`kill:1@2`)
//! runs bill host-timed traffic, so their rows pin the checksum alone.

use bricklib::prelude::*;

/// One pinned row: per-step traffic of rank 0 and the exchange's stats.
struct Pin {
    msgs: u64,
    payload: u64,
    wire: u64,
    call: u64,
    wait: u64,
    /// `ExchangeStats` as `(messages, payload_bytes, wire_bytes, region_instances)`.
    stats: (usize, usize, usize, usize),
}

const P4K: CpuMethod = CpuMethod::MemMap { page_size: memview::PAGE_4K };
const P64K: CpuMethod = CpuMethod::MemMap { page_size: memview::PAGE_64K };
const SHIFT: CpuMethod = CpuMethod::Shift { page_size: memview::PAGE_4K };

/// Checksum bits of every brick method at 16³ and at 32³ (3 timed steps).
const SUM16: u64 = 0x40a0_00c0_0000_0011;
const SUM32: u64 = 0x40cf_ffa7_ffff_ffc3;

/// The rows at 16³: every region is a corner's, so Basic sends 56.
fn rows16() -> [(CpuMethod, Pin); 6] {
    let pin = |msgs, wire, call, wait, regions| Pin {
        msgs,
        payload: 229_376,
        wire,
        call,
        wait,
        stats: (msgs as usize, 229_376, wire as usize, regions),
    };
    [
        (CpuMethod::Layout, pin(42, 229_376, 0x3f03_d16e_1c3d_4d52, 0x3f08_4ff1_c9a0_365a, 56)),
        (CpuMethod::Basic, pin(56, 229_376, 0x3f0a_6c92_d051_bc95, 0x3f0b_3f90_528c_d985, 56)),
        (CpuMethod::NoLayout, pin(42, 229_376, 0x3f03_d16e_1c3d_4d52, 0x3f08_4ff1_c9a0_365a, 56)),
        (P4K, pin(26, 229_376, 0x3ef8_8963_c170_7825, 0x3f04_f4f3_7648_a071, 56)),
        (P64K, pin(26, 3_670_016, 0x3ef8_8963_c170_7825, 0x3f3e_ce29_f7a8_cc1a, 56)),
        (SHIFT, pin(6, 229_376, 0x3ed6_a634_b28f_33ea, 0x3f01_b4cd_158b_c738, 6)),
    ]
}

/// The rows at 32³ on one rank: every region is non-empty.
fn rows32() -> [(CpuMethod, Pin); 6] {
    let pin = |msgs, wire, call, wait, regions| Pin {
        msgs,
        payload: 622_592,
        wire,
        call,
        wait,
        stats: (msgs as usize, 622_592, wire as usize, regions),
    };
    [
        (CpuMethod::Layout, pin(42, 622_592, 0x3f03_d16e_1c3d_4d52, 0x3f19_0a81_d2ed_3c1d, 98)),
        (CpuMethod::Basic, pin(98, 622_592, 0x3f17_1f00_7647_8524, 0x3f1e_e9be_e4c6_8275, 98)),
        (CpuMethod::NoLayout, pin(62, 622_592, 0x3f0d_4159_66a3_a325, 0x3f1b_2360_c703_f9ce, 98)),
        (P4K, pin(26, 622_592, 0x3ef8_8963_c170_7825, 0x3f17_5d02_a941_7129, 98)),
        (P64K, pin(26, 6_422_528, 0x3ef8_8963_c170_7825, 0x3f4a_ad4c_cc2d_e2de, 98)),
        (SHIFT, pin(6, 622_592, 0x3ed6_a634_b28f_33ea, 0x3f15_bcef_78e3_048a, 6)),
    ]
}

fn run(method: &CpuMethod, n: usize, ranks: &[usize], backend: Backend, tweak: impl Fn(&mut ExperimentConfig)) -> MethodReport {
    let mut cfg = ExperimentConfig::k1(method.clone(), n);
    cfg.ranks = ranks.to_vec();
    cfg.steps = 3;
    cfg.backend = backend;
    tweak(&mut cfg);
    run_experiment(&cfg)
}

fn assert_pinned(method: &CpuMethod, n: usize, ranks: &[usize], sum: u64, want: &Pin) {
    for backend in [Backend::Thread, Backend::Event] {
        for overlap in [false, true] {
            let what = format!("{method:?} {n}^3 {ranks:?} {backend:?} overlap={overlap}");
            let r = run(method, n, ranks, backend, |cfg| cfg.overlap = overlap);
            let t = &r.timers;
            let s = &r.stats;
            assert_eq!(r.checksum.to_bits(), sum, "{what}: checksum");
            assert_eq!((s.messages, s.payload_bytes, s.wire_bytes, s.region_instances), want.stats, "{what}: stats");
            assert_eq!((t.msgs, t.payload_bytes, t.wire_bytes), (want.msgs, want.payload, want.wire), "{what}: traffic");
            assert_eq!((t.call.to_bits(), t.wait.to_bits()), (want.call, want.wait), "{what}: call, wait");
        }
    }
}

#[test]
fn modeled_traffic_is_pinned_at_16_cubed() {
    for ranks in [[1, 1, 1], [2, 2, 2]] {
        for (method, want) in &rows16() {
            assert_pinned(method, 16, &ranks, SUM16, want);
        }
    }
}

#[test]
fn modeled_traffic_is_pinned_at_32_cubed() {
    for (method, want) in &rows32() {
        assert_pinned(method, 32, &[1, 1, 1], SUM32, want);
    }
}

/// Partitioned and killed runs on eight ranks land on the pinned bits.
#[test]
fn partitioned_and_killed_checksums_are_pinned() {
    let kill = FaultConfig::parse("kill:1@2").expect("fault spec");
    for backend in [Backend::Thread, Backend::Event] {
        for (method, _) in &rows16() {
            let partitioned = run(method, 16, &[2, 2, 2], backend, |cfg| cfg.partitioned = true);
            assert_eq!(partitioned.checksum.to_bits(), SUM16, "{method:?} {backend:?} -e");
            let killed = run(method, 16, &[2, 2, 2], backend, |cfg| {
                cfg.faults = kill;
                cfg.checkpoint_every = 1;
            });
            assert_eq!(killed.checksum.to_bits(), SUM16, "{method:?} {backend:?} kill:1@2 -c 1");
        }
    }
}
