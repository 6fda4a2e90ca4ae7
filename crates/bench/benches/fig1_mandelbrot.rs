//! Criterion bench regenerating Figure 1's runtime comparison.
//!
//! Runs [`run_fig1`], the runner the `figures` binary uses, at a reduced
//! scale. Every variant reports **virtual** (modeled) seconds —
//! independent of the host machine — and records one ledger leg
//! (`fig1 mandelbrot <variant> <W>x<H> x1`).

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::{ledger, run_fig1};
use skelcl_mandel::MandelParams;

fn bench_fig1(_c: &mut Criterion) {
    // Small enough for quick bench runs; ratios are scale-stable.
    run_fig1(&MandelParams {
        width: 256,
        height: 192,
        max_iter: 1024,
        ..MandelParams::default()
    });

    // Perf ledger: persist this figure's measured legs when
    // SKELCL_LEDGER_DIR is set (see skelcl_bench::ledger).
    ledger::write_fig("fig1");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the
    // plotting backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_fig1
}
criterion_main!(benches);
