//! The overlap legs under skelcheck's online hazard checker, armed
//! through the public per-context API (`checked: true`) instead of
//! process-wide `SKELCL_CHECK` environment mutation. The checker is a
//! host-side happens-before analysis: it must vet every enqueue without
//! perturbing the modeled timeline, so the checked legs' virtual seconds
//! are asserted *identical* to the unchecked legs — a stronger guarantee
//! than the smoke positivity check it replaces.

use skelcl_bench::{overlap_iterate, overlap_upload};

#[test]
fn checked_iterate_leg_runs_and_matches_the_unchecked_timeline() {
    let plain = overlap_iterate(64, 64, 2, 3, true, false).window_s;
    let checked = overlap_iterate(64, 64, 2, 3, true, true).window_s;
    assert!(plain > 0.0);
    assert_eq!(
        checked, plain,
        "the online checker must not perturb modeled time"
    );
}

#[test]
fn checked_upload_leg_runs_and_matches_the_unchecked_timeline() {
    let plain = overlap_upload(64, 64, 2, 16, true, false).window_s;
    let checked = overlap_upload(64, 64, 2, 16, true, true).window_s;
    assert!(plain > 0.0);
    assert_eq!(
        checked, plain,
        "the online checker must not perturb modeled time"
    );
}
