//! Criterion bench regenerating Figure 2's runtime comparison
//! (virtual seconds; reduced problem size).
//!
//! Runs [`run_fig2`], the runner the `figures` binary uses, on 1, 2 and 4
//! devices; every (variant, device count) pair records one ledger leg
//! (`fig2 osem <variant> x<N>`).

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::{ledger, osem_bench_params, run_fig2};

fn bench_fig2(_c: &mut Criterion) {
    run_fig2(&osem_bench_params(), &[1, 2, 4]);

    // Perf ledger: persist this figure's measured legs when
    // SKELCL_LEDGER_DIR is set (see skelcl_bench::ledger).
    ledger::write_fig("fig2");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the
    // plotting backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_fig2
}
criterion_main!(benches);
