//! Property-based tests on topology-aware process mapping: a permuted
//! `CartTopo` is a pure relabeling (bijective, neighbor structure
//! preserved), and a remapped experiment computes bit-identical
//! physics to the identity mapping across exchange engines, schedules,
//! thread/event backends, and chaos seeds. Remapping may only move
//! *where* messages go (on-node vs off-node billing), never what any
//! rank computes.

use bricklib::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn arb_ranks() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![2, 1, 1]),
        Just(vec![2, 2, 1]),
        Just(vec![2, 1, 2]),
        Just(vec![2, 2, 2]),
        Just(vec![4, 2, 1]),
    ]
}

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
    let mut cfg = ExperimentConfig {
        method,
        subdomain: [16; 3],
        ghost: 8,
        brick: 8,
        shape: StencilShape::star7_default(),
        steps: 2,
        warmup: 1,
        ranks,
        net: NetworkModel::theta_aries(),
        topology: Some(HierarchicalNetworkModel::dragonfly(rpn)),
        mapping: MappingPolicy::Lex,
        kernel: KernelKind::Plan,
        faults,
        profile: false,
        checkpoint_every: 0,
        overlap,
        partitioned,
        backend,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any rank permutation applied to `CartTopo` is a bijection that
    /// relabels the neighbor relation without tearing it: the permuted
    /// topology's neighbor of `perm[c]` is exactly `perm` applied to
    /// the unpermuted neighbor of `c`, for every direction — so every
    /// rank keeps its full neighbor multiset under new names.
    #[test]
    fn permuted_topo_is_a_pure_relabeling(
        seed in any::<u64>(),
        ranks in arb_ranks(),
        periodic in any::<bool>(),
    ) {
        let topo = CartTopo::new(&ranks, periodic);
        let mut perm: Vec<usize> = (0..topo.size()).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(seed));
        let p = topo.with_permutation(&perm).expect("a shuffle is a bijection");
        let mut sorted = p.permutation().map(<[usize]>::to_vec).unwrap_or_else(
            || (0..topo.size()).collect());
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..topo.size()).collect::<Vec<_>>());
        for c in 0..topo.size() {
            for dir in all_regions(3) {
                let trits = dir.offsets(3);
                let want = topo.neighbor(c, &trits).map(|n| perm[n]);
                prop_assert_eq!(p.neighbor(perm[c], &trits), want);
            }
        }
    }

    /// The shipped mappers return bijections on any grid and node
    /// size, and bisection never loses off-node bytes to lex.
    #[test]
    fn mappers_return_bijections(
        ranks in arb_ranks(),
        rpn in prop_oneof![Just(2usize), Just(3usize), Just(4usize)],
    ) {
        let topo = CartTopo::new(&ranks, true);
        let node = NodeShape::new(rpn);
        let perm = recursive_bisection(&topo, &node);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..topo.size()).collect::<Vec<_>>());
        prop_assert!(topo.with_permutation(&perm).is_ok());
    }

    /// Remapped phased runs match the identity mapping bit-for-bit on
    /// every split-capable engine and both backends.
    #[test]
    fn remapped_engines_bit_identical(
        ranks in arb_ranks(),
        engine in 0u8..4,
        rpn in prop_oneof![Just(2usize), Just(4usize)],
        bisect in any::<bool>(),
        event in any::<bool>(),
    ) {
        let method = match engine {
            0 => CpuMethod::Layout,
            1 => CpuMethod::Basic,
            2 => CpuMethod::MemMap { page_size: 4096 },
            _ => CpuMethod::Shift { page_size: 4096 },
        };
        let policy = if bisect { MappingPolicy::Bisect } else { MappingPolicy::Lex };
        let backend = if event { Backend::Event } else { Backend::Thread };
        prop_assert!(remap_matches_identity(
            method, ranks, rpn, policy, FaultConfig::off(), false, false, backend
        ));
    }

    /// Remapping composes with the overlap and partitioned schedules
    /// and with seeded chaos: the reliable protocol converges to the
    /// same bits no matter which physical rank runs which subdomain.
    #[test]
    fn remapped_schedules_and_chaos_bit_identical(
        seed in 0u64..64,
        ranks in arb_ranks(),
        schedule in 0u8..3,
        event in any::<bool>(),
    ) {
        let faults = if seed == 0 {
            FaultConfig::off()
        } else {
            FaultConfig::parse(&format!("{seed},0.05,0.02,0.05")).unwrap()
        };
        let (overlap, partitioned) = match schedule {
            0 => (false, false),
            1 => (true, false),
            _ => (false, true),
        };
        let backend = if event { Backend::Event } else { Backend::Thread };
        prop_assert!(remap_matches_identity(
            CpuMethod::Layout,
            ranks,
            4,
            MappingPolicy::Bisect,
            faults,
            overlap,
            partitioned,
            backend,
        ));
    }
}
