//! Property-based tests on topology-aware process mapping: a permuted
//! `CartTopo` is a pure relabeling (bijective, neighbor structure
//! preserved), and a remapped experiment computes bit-identical
//! physics to the identity mapping across exchange engines, schedules,
//! thread/event backends, and chaos seeds. Remapping may only move
//! *where* messages go (on-node vs off-node billing), never what any
//! rank computes.

mod common;

use bricklib::prelude::*;
use common::*;

const RANKS: [[usize; 3]; 5] = [[2, 1, 1], [2, 2, 1], [2, 1, 2], [2, 2, 2], [4, 2, 1]];

/// Run one hierarchical configuration under the identity mapping and
/// under `policy`, plus the flat (no-topology) twin, and compare the
/// physics fingerprint. Timers are excluded by design: the whole point
/// of remapping is to change the wire bill.
#[allow(clippy::too_many_arguments)]
fn remap_matches_identity(
    method: CpuMethod,
    ranks: Vec<usize>,
    rpn: usize,
    policy: MappingPolicy,
    faults: FaultConfig,
    overlap: bool,
    partitioned: bool,
    backend: Backend,
) -> bool {
    if backend == Backend::Event && !Backend::event_supported() {
        return true;
    }
    // K1 at 16³ (8³ bricks, star7, Aries fabric, lex mapping) on a
    // dragonfly of `rpn` ranks per node.
    let mut cfg = ExperimentConfig {
        steps: 2,
        ranks,
        topology: Some(HierarchicalNetworkModel::dragonfly(rpn)),
        faults,
        overlap,
        partitioned,
        backend,
        ..ExperimentConfig::k1(method, 16)
    };
    let ident = run_experiment(&cfg);
    cfg.mapping = policy;
    let mapped = run_experiment(&cfg);
    cfg.topology = None;
    cfg.mapping = MappingPolicy::Lex;
    let flat = run_experiment(&cfg);

    let stats = match mapped.mapping {
        Some(m) => m,
        None => return false, // hierarchical run must record the split
    };
    mapped.checksum.to_bits() == ident.checksum.to_bits()
        && mapped.checksum.to_bits() == flat.checksum.to_bits()
        && mapped.stats.messages == ident.stats.messages
        && mapped.stats.payload_bytes == ident.stats.payload_bytes
        && stats.off_bytes <= stats.lex_off_bytes
        && flat.mapping.is_none()
}

/// Any rank permutation applied to `CartTopo` is a bijection that
/// relabels the neighbor relation without tearing it: the permuted
/// topology's neighbor of `perm[c]` is exactly `perm` applied to
/// the unpermuted neighbor of `c`, for every direction — so every
/// rank keeps its full neighbor multiset under new names. Every rank
/// grid, periodic and not, under eight shuffles each.
#[test]
fn permuted_topo_is_a_pure_relabeling() {
    cases("permuted_topo_is_a_pure_relabeling", 8, |rng| {
        for (ranks, periodic) in RANKS.iter().flat_map(|r| [(r, false), (r, true)]) {
            let topo = CartTopo::new(ranks, periodic);
            let mut perm: Vec<usize> = (0..topo.size()).collect();
            perm.shuffle(rng);
            let p = topo.with_permutation(&perm).expect("a shuffle is a bijection");
            let mut sorted = p
                .permutation()
                .map(<[usize]>::to_vec)
                .unwrap_or_else(|| (0..topo.size()).collect());
            sorted.sort_unstable();
            assert_eq!(sorted, (0..topo.size()).collect::<Vec<_>>());
            for c in 0..topo.size() {
                for dir in all_regions(3) {
                    let trits = dir.offsets(3);
                    let want = topo.neighbor(c, &trits).map(|n| perm[n]);
                    assert_eq!(p.neighbor(perm[c], &trits), want);
                }
            }
        }
    });
}

/// The shipped mappers return bijections on any grid and node
/// size, and bisection never loses off-node bytes to lex.
#[test]
fn mappers_return_bijections() {
    for ranks in RANKS {
        for rpn in [2usize, 3, 4] {
            let topo = CartTopo::new(&ranks, true);
            let perm = recursive_bisection(&topo, &NodeShape::new(rpn));
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..topo.size()).collect::<Vec<_>>(), "{ranks:?} rpn {rpn}");
            assert!(topo.with_permutation(&perm).is_ok());
        }
    }
}

/// Remapped phased runs match the identity mapping bit-for-bit on
/// every split-capable engine and both backends.
#[test]
fn remapped_engines_bit_identical() {
    cases("remapped_engines_bit_identical", 8, |rng| {
        let ranks = pick(rng, &RANKS).to_vec();
        let method = pick(
            rng,
            &[
                CpuMethod::Layout,
                CpuMethod::Basic,
                CpuMethod::MemMap { page_size: 4096 },
                CpuMethod::Shift { page_size: 4096 },
            ],
        );
        let rpn = pick(rng, &[2usize, 4]);
        let policy = pick(rng, &[MappingPolicy::Bisect, MappingPolicy::Lex]);
        let backend = pick(rng, &[Backend::Thread, Backend::Event]);
        assert!(remap_matches_identity(
            method,
            ranks,
            rpn,
            policy,
            FaultConfig::off(),
            false,
            false,
            backend
        ));
    });
}

/// Remapping composes with the overlap and partitioned schedules
/// and with seeded chaos: the reliable protocol converges to the
/// same bits no matter which physical rank runs which subdomain.
#[test]
fn remapped_schedules_and_chaos_bit_identical() {
    let check = |faults, ranks: [usize; 3], (overlap, partitioned), backend| {
        assert!(remap_matches_identity(
            CpuMethod::Layout,
            ranks.to_vec(),
            4,
            MappingPolicy::Bisect,
            faults,
            overlap,
            partitioned,
            backend,
        ));
    };
    // The clean plan always runs: one chaos seed in 64 could leave a
    // fixed suite without it.
    check(FaultConfig::off(), RANKS[3], (true, false), Backend::Thread);
    cases("remapped_schedules_and_chaos_bit_identical", 8, |rng| {
        let seed = rng.gen_range(0u64..64);
        let faults = if seed == 0 {
            FaultConfig::off()
        } else {
            FaultConfig::parse(&format!("{seed},0.05,0.02,0.05")).unwrap()
        };
        let ranks = pick(rng, &RANKS);
        let schedule = pick(rng, &[(false, false), (true, false), (false, true)]);
        check(faults, ranks, schedule, pick(rng, &[Backend::Thread, Backend::Event]));
    });
}
