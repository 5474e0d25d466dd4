//! The seeded case generator's own contract (`tests/common/mod.rs`):
//! cases replay, properties do not share streams, and a failure names
//! the seed that reproduces it.

mod common;

use common::*;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The first draws of each of `n` cases of the property `name`.
fn streams(name: &str, n: u64) -> Vec<[u64; 3]> {
    let seen = RefCell::new(Vec::new());
    cases(name, n, |rng| seen.borrow_mut().push([0; 3].map(|_| rng.next_u64())));
    seen.into_inner()
}

#[test]
fn same_name_and_case_yield_the_same_draws() {
    let first = streams("replayed", 16);
    assert_eq!(first, streams("replayed", 16));
    assert_eq!(first[..4], streams("replayed", 4)[..], "a case does not depend on the count");
    for (i, s) in first.iter().enumerate() {
        assert!(!first[..i].contains(s), "cases {i} and an earlier one share a stream");
    }
}

#[test]
fn distinct_properties_get_distinct_streams() {
    let (a, b) = (streams("property_a", 16), streams("property_b", 16));
    assert!(a.iter().all(|s| !b.contains(s)));
}

#[test]
fn a_failure_names_the_seed_that_replays_it() {
    let calls = Cell::new(0);
    let failing = |rng: &mut StdRng| {
        let drawn = rng.next_u64();
        calls.set(calls.get() + 1);
        assert!(calls.get() != 3, "drew {drawn}");
    };
    let panic = catch_unwind(AssertUnwindSafe(|| cases("third_case_fails", 8, failing)))
        .expect_err("the third case panics");
    assert_eq!(calls.get(), 3, "later cases do not run");
    let msg = panic.downcast_ref::<String>().expect("cases re-raises with a formatted message");
    let rest = msg
        .strip_prefix("property third_case_fails failed at case seed 0x")
        .unwrap_or_else(|| panic!("unexpected message: {msg}"));
    let (seed, drawn) = rest.split_once(": drew ").expect("the body's own message is kept");
    let seed = u64::from_str_radix(seed, 16).unwrap();
    assert_eq!(seed, case_seed("third_case_fails", 2));
    case(seed, |rng| assert_eq!(rng.next_u64().to_string(), drawn));
}

#[test]
fn draws_stay_in_range_and_reach_both_ends() {
    case(7, |rng| {
        let ints: Vec<i64> = (0..200).map(|_| int_in(rng, -2, 2)).collect();
        assert_eq!((ints.iter().min(), ints.iter().max()), (Some(&-2), Some(&2)));
        assert!((0..200).map(|_| f64_in(rng, -2.0, 0.5)).all(|x| (-2.0..0.5).contains(&x)));
        assert!((0..200).all(|_| [4, 8].contains(&pick(rng, &[4, 8]))));
    });
}
