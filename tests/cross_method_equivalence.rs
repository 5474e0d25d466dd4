//! Cross-crate integration: every evaluated exchange implementation
//! must produce *identical physics* — the stencil field after T steps
//! does not depend on how ghosts were communicated.

use bricklib::prelude::*;

fn cfg(method: CpuMethod, n: usize, shape: StencilShape, ranks: Vec<usize>) -> ExperimentConfig {
    ExperimentConfig {
        method,
        subdomain: [n; 3],
        ghost: 8,
        brick: 8,
        shape,
        steps: 3,
        warmup: 1,
        ranks,
        net: NetworkModel::theta_aries(),
        topology: None,
        mapping: Default::default(),
        kernel: KernelKind::Plan,
        faults: netsim::FaultConfig::off(),
        profile: false,
        checkpoint_every: 0,
        overlap: false,
        partitioned: false,
        backend: Backend::from_env(),
    }
}

/// Every exchanging method, and Layout-OL: `(method, overlap)`.
fn all_methods() -> Vec<(CpuMethod, bool)> {
    vec![
        (CpuMethod::Yask, false),
        (CpuMethod::MpiTypes, false),
        (CpuMethod::Layout, false),
        (CpuMethod::Basic, false),
        (CpuMethod::MemMap { page_size: memview::PAGE_4K }, false),
        (CpuMethod::MemMap { page_size: memview::PAGE_64K }, false),
        (CpuMethod::Shift { page_size: memview::PAGE_4K }, false),
        (CpuMethod::Layout, true),
    ]
}

/// Run every method of [`all_methods`] on `base` and check they agree.
/// The brick engines all take their checksum with
/// `fields::interior_sum`, one sequential sum in one canonical order, so
/// they must agree bit for bit. YASK and MPI_Types sum their arrays row
/// by row — another order — so they meet the bricks only to rounding.
fn assert_agree(base: ExperimentConfig) {
    let reports: Vec<(CpuMethod, MethodReport)> = all_methods()
        .into_iter()
        .map(|(m, overlap)| (m.clone(), run_experiment(&ExperimentConfig { method: m, overlap, ..base.clone() })))
        .collect();
    let is_array = |m: &CpuMethod| matches!(m, CpuMethod::Yask | CpuMethod::MpiTypes);
    let (m0, brick) = reports.iter().find(|(m, _)| !is_array(m)).expect("a brick method");
    let r0 = brick.checksum;
    assert!(r0.is_finite() && r0 != 0.0);
    for (m, r) in &reports {
        if is_array(m) {
            assert!(((r.checksum - r0) / r0).abs() < 1e-12, "{} {} vs {r0}", m.name(), r.checksum);
        } else {
            assert_eq!(r.checksum.to_bits(), r0.to_bits(), "{} vs {}", m.name(), m0.name());
        }
    }
}

#[test]
fn agree_7pt_single_rank() {
    assert_agree(cfg(CpuMethod::Layout, 32, StencilShape::star7_default(), vec![1, 1, 1]));
}

#[test]
fn agree_125pt_single_rank() {
    assert_agree(cfg(CpuMethod::Layout, 32, StencilShape::cube125_default(), vec![1, 1, 1]));
}

#[test]
fn agree_multirank() {
    // 2x2x1 ranks — diagonal neighbors across two axes, wrap on the
    // third.
    assert_agree(cfg(CpuMethod::Layout, 24, StencilShape::star7_default(), vec![2, 2, 1]));
}

#[test]
fn agree_minimal_subdomain() {
    // 16^3 with ghost 8: only corner regions are non-empty; the run
    // merging logic must stay consistent on both sides.
    assert_agree(cfg(CpuMethod::Layout, 16, StencilShape::star7_default(), vec![1, 1, 1]));
}

/// Every brick engine, both MemMap page sizes and No-Layout's
/// lexicographic order included, reads the same checksum bits on one
/// rank and on two: block ordering changes what is sent, not the physics.
#[test]
fn brick_engines_agree_bit_for_bit() {
    let methods = [
        CpuMethod::MemMap { page_size: memview::PAGE_4K },
        CpuMethod::MemMap { page_size: memview::PAGE_16K },
        CpuMethod::Layout,
        CpuMethod::Basic,
        CpuMethod::Shift { page_size: memview::PAGE_4K },
        CpuMethod::NoLayout,
    ];
    let bits = |base: &ExperimentConfig, m: &CpuMethod| {
        run_experiment(&ExperimentConfig { method: m.clone(), ..base.clone() }).checksum.to_bits()
    };
    for ranks in [vec![1, 1, 1], vec![2, 1, 1]] {
        let base = cfg(CpuMethod::Layout, 32, StencilShape::star7_default(), ranks.clone());
        let want = bits(&base, &methods[0]);
        for m in &methods[1..] {
            assert_eq!(bits(&base, m), want, "{} vs {} on {ranks:?}", m.name(), methods[0].name());
        }
    }
}

#[test]
fn brick_matches_array_evolution() {
    // Run the array baseline and the brick Layout path for several
    // steps on a domain where the periodic wrap is exercised, and
    // compare the *full field*, not just a checksum.
    let n = 24usize;
    let shape = StencilShape::star7_default();
    let steps = 4;

    // Array reference with self-periodic ghosts.
    let mut cur = ArrayGrid::new([n; 3], 1);
    cur.fill_interior(|x, y, z| (((x * 3 + y * 5 + z * 7) % 17) as f64) / 16.0);
    let mut nxt = ArrayGrid::new([n; 3], 1);
    for _ in 0..steps {
        cur.fill_ghost_periodic_self();
        cur.apply_into(&shape, &mut nxt);
        std::mem::swap(&mut cur, &mut nxt);
    }

    // Brick run through the real exchange.
    let decomp = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let ex = Exchanger::layout(&decomp);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let field = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let info = decomp.brick_info();
        let mut a = decomp.allocate();
        let mut b = decomp.allocate();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let off = decomp.element_offset([x as isize, y as isize, z as isize], 0);
                    a.as_mut_slice()[off] = (((x * 3 + y * 5 + z * 7) % 17) as f64) / 16.0;
                }
            }
        }
        for _ in 0..steps {
            ex.exchange(ctx, &mut a).unwrap();
            apply_bricks(&shape, info, &a, &mut b, decomp.compute_mask(), 0);
            std::mem::swap(&mut a, &mut b);
        }
        let mut out = vec![0.0; n * n * n];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    out[(z * n + y) * n + x] =
                        a.as_slice()[decomp.element_offset([x as isize, y as isize, z as isize], 0)];
                }
            }
        }
        out
    });

    let brick_field = &field[0];
    let mut max_err = 0.0f64;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let want = cur.get(x as isize, y as isize, z as isize);
                let got = brick_field[(z * n + y) * n + x];
                max_err = max_err.max((got - want).abs());
            }
        }
    }
    assert!(max_err < 1e-12, "field divergence: {max_err}");
}

/// Checksum bits of `cfg`'s physics by a loop independent of the
/// engines: their initial fill over `cfg.decomp()` on one self-periodic
/// rank, then per step a periodic ghost wrap, the gather reference
/// kernel and a swap.
fn reference_bits(cfg: &ExperimentConfig) -> u64 {
    let decomp = cfg.decomp();
    let (mut cur, mut nxt) = (decomp.allocate(), decomp.allocate());
    packfree::fields::fill_interior(&decomp, &mut cur, 0, |c| ((c[0] * 3 + c[1] * 5 + c[2] * 7) % 17) as f64 / 16.0);
    for _ in 0..cfg.warmup + cfg.steps {
        packfree::fields::fill_ghosts_periodic(&decomp, &mut cur, 0);
        stencil::apply_bricks_gather(&cfg.shape, decomp.brick_info(), &cur, &mut nxt, decomp.compute_mask(), 0);
        std::mem::swap(&mut cur, &mut nxt);
    }
    packfree::fields::interior_sum(&decomp, &cur, 0).to_bits()
}

/// Every brick method steps through its precompiled kernel plan, which
/// replays the gather reference's FP op sequence, so its checksum is
/// *bit-identical* to the reference loop's — phased or overlapped, for
/// the low- and the high-order proxy alike.
#[test]
fn plan_engine_bit_identical_to_gather() {
    for shape in [StencilShape::star7_default(), StencilShape::cube125_default()] {
        for method in [
            CpuMethod::Layout,
            CpuMethod::Basic,
            CpuMethod::MemMap { page_size: memview::PAGE_4K },
            CpuMethod::Shift { page_size: memview::PAGE_4K },
            CpuMethod::NoLayout,
        ] {
            let base = cfg(method.clone(), 32, shape.clone(), vec![1, 1, 1]);
            let want = reference_bits(&base);
            for overlap in [false, true] {
                let r = run_experiment(&ExperimentConfig { overlap, ..base.clone() });
                assert_eq!(
                    r.checksum.to_bits(),
                    want,
                    "{} overlap={overlap} / {} taps left the reference",
                    method.name(),
                    shape.points(),
                );
            }
        }
    }
}

#[test]
fn overlap_never_slower_than_blocking() {
    let plain = run_experiment(&cfg(CpuMethod::Yask, 32, StencilShape::star7_default(), vec![1, 1, 1]));
    let ol = run_experiment(&ExperimentConfig {
        overlap: true,
        ..cfg(CpuMethod::Yask, 32, StencilShape::star7_default(), vec![1, 1, 1])
    });
    // Overlap model: pack + max(wire, calc) <= pack + wire + calc.
    assert!(ol.step_time() <= ol.timers.total() + 1e-12);
    assert!(plain.checksum.is_finite());
}
