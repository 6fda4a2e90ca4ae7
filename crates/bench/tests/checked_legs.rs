//! The batched iterate leg under skelcheck's online hazard checker, armed
//! through the public per-context API (`checked: true`) instead of
//! process-wide `SKELCL_CHECK` environment mutation. The checker is a
//! host-side happens-before analysis: it must vet every enqueue without
//! perturbing the modeled timeline, so the checked leg's virtual seconds
//! are asserted *identical* to the unchecked leg's — a stronger guarantee
//! than the smoke positivity check it replaces.

use skelcl_bench::stencil_iterate_leg;

#[test]
fn checked_iterate_leg_runs_and_matches_the_unchecked_timeline() {
    let plain = stencil_iterate_leg(64, 64, 2, 3, true, false).window_s;
    let checked = stencil_iterate_leg(64, 64, 2, 3, true, true).window_s;
    assert!(plain > 0.0);
    assert_eq!(
        checked, plain,
        "the online checker must not perturb modeled time"
    );
}
