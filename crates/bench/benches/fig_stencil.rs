//! Multi-GPU scaling of the Stencil2D image pipeline (Gaussian blur →
//! Sobel gradient) over a row-block-distributed matrix with halo exchange.
//! Sweeps 1 → 4 virtual devices; reports virtual (modeled) seconds.

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::{stencil_scaling_virtual_s, VirtualSweep};

fn bench_stencil_scaling(c: &mut Criterion) {
    let sweep = VirtualSweep::new();
    let mut group = VirtualSweep::group(c, "fig_stencil_virtual");
    let (rows, cols) = (1024usize, 1024usize);
    for devices in [1usize, 2, 3, 4] {
        sweep.bench(
            &mut group,
            "gauss_sobel_rowblock".to_string(),
            devices,
            (rows, devices, "rowblock"),
            || stencil_scaling_virtual_s(rows, cols, devices),
        );
    }
    group.finish();

    // Perf ledger: persist this figure's measured legs when
    // SKELCL_LEDGER_DIR is set (see skelcl_bench::ledger).
    skelcl_bench::ledger::write_fig("fig_stencil");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the
    // plotting backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_stencil_scaling
}
criterion_main!(benches);
