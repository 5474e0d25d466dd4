//! Property-based tests of the MPI datatype engine: random nested
//! types pack exactly `size()` elements, roundtrip through
//! pack/unpack, and subarrays agree with direct slicing.

mod common;

use common::*;
use stencil::Datatype;

/// `(full, start, sub)`: a non-empty box inside a 2..8-cubed array.
fn arb_subarray(rng: &mut StdRng) -> ([usize; 3], [usize; 3], [usize; 3]) {
    let full = [0; 3].map(|_| rng.gen_range(2usize..8));
    let start = full.map(|f| rng.gen_range(0..f));
    let sub = [0, 1, 2].map(|a| rng.gen_range(1..full[a] - start[a] + 1));
    (full, start, sub)
}

/// A random type nested at most `depth` levels of `Hvector` deep.
fn arb_nested(rng: &mut StdRng, depth: u32) -> Datatype {
    match if depth == 0 { 0 } else { rng.gen_range(0..3u32) } {
        0 => Datatype::Contiguous { count: rng.gen_range(1usize..16) },
        1 => {
            let (count, blocklen) = (rng.gen_range(1usize..5), rng.gen_range(1usize..5));
            Datatype::Vector { count, blocklen, stride: blocklen + rng.gen_range(0usize..8) }
        }
        _ => {
            let inner = arb_nested(rng, depth - 1);
            // Stride must cover the inner type's footprint; use its
            // element count plus slack as a safe bound.
            let stride = max_offset(&inner) + 1 + rng.gen_range(0usize..16);
            Datatype::Hvector { count: rng.gen_range(1usize..4), stride, inner: Box::new(inner) }
        }
    }
}

/// Largest element offset a type visits from base 0.
fn max_offset(d: &Datatype) -> usize {
    let mut m = 0usize;
    d.for_each_offset(0, &mut |o| m = m.max(o));
    m
}

#[test]
fn subarray_pack_matches_direct_slicing() {
    cases("subarray_pack_matches_direct_slicing", 48, |rng| {
        let (full, start, sub) = arb_subarray(rng);
        let d = Datatype::subarray3(full, start, sub);
        let data: Vec<f64> = (0..full.iter().product::<usize>()).map(|i| i as f64).collect();
        let packed = d.pack(&data);
        assert_eq!(packed.len(), sub.iter().product::<usize>());
        assert_eq!(packed.len(), d.size());
        let mut i = 0;
        for z in 0..sub[2] {
            for y in 0..sub[1] {
                for x in 0..sub[0] {
                    let off = ((start[2] + z) * full[1] + (start[1] + y)) * full[0] + start[0] + x;
                    assert_eq!(packed[i], data[off]);
                    i += 1;
                }
            }
        }
    });
}

#[test]
fn nested_types_roundtrip() {
    cases("nested_types_roundtrip", 48, |rng| {
        let d = arb_nested(rng, 3);
        let seed = rng.gen_range(0u64..100);
        let span = max_offset(&d) + 1;
        let src: Vec<f64> = (0..span).map(|i| ((i as u64 * 37 + seed) % 101) as f64).collect();
        let packed = d.pack(&src);
        assert_eq!(packed.len(), d.size());
        let mut dst = vec![-1.0f64; span];
        d.unpack(&mut dst, &packed);
        // Every visited element equals the source; untouched stay -1.
        let mut visited = vec![false; span];
        d.for_each_offset(0, &mut |o| visited[o] = true);
        for (i, &v) in dst.iter().enumerate() {
            assert_eq!(v, if visited[i] { src[i] } else { -1.0 });
        }
    });
}

/// `size()` always equals the number of offset visits.
#[test]
fn size_equals_visits() {
    cases("size_equals_visits", 48, |rng| {
        let d = arb_nested(rng, 3);
        let mut n = 0usize;
        d.for_each_offset(0, &mut |_| n += 1);
        assert_eq!(n, d.size());
    });
}
