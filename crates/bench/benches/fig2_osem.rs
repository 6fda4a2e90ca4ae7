//! Criterion bench regenerating Figure 2's runtime comparison
//! (virtual seconds; reduced problem size).
//!
//! Every (variant, device count) pair runs through the reported timer and
//! records one ledger leg (`fig2 osem <variant> x<N>`).

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::{
    figure_platform, ledger, osem_bench_params, time_virtual_reported_with, VirtualSweep,
};
use skelcl_osem::{cuda_impl, opencl_impl, skelcl_impl};
use vgpu::DriverProfile;

fn bench_fig2(c: &mut Criterion) {
    let params = osem_bench_params();
    let subsets = params.generate_subsets();
    let vol = params.volume;

    let sweep = VirtualSweep::new();
    let mut group = VirtualSweep::group(c, "fig2_osem_virtual");
    for n_gpus in [1usize, 2, 4] {
        let platform = figure_platform(n_gpus);
        let ctx = skelcl::Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);
        skelcl_impl::reconstruct(&ctx, &vol, &subsets[..1]).unwrap();
        opencl_impl::reconstruct(&platform, &vol, &subsets[..1]).unwrap();
        cuda_impl::reconstruct(&platform, &vol, &subsets[..1]).unwrap();

        let run_skelcl = || {
            skelcl_impl::reconstruct(&ctx, &vol, &subsets).unwrap();
        };
        let run_opencl = || {
            opencl_impl::reconstruct(&platform, &vol, &subsets).unwrap();
        };
        let run_cuda = || {
            cuda_impl::reconstruct(&platform, &vol, &subsets).unwrap();
        };
        // Each variant's roofline verdict is priced at its own driver
        // profile.
        let variants: [(&'static str, DriverProfile, &dyn Fn()); 3] = [
            ("skelcl", DriverProfile::skelcl(), &run_skelcl),
            ("opencl", DriverProfile::opencl(), &run_opencl),
            ("cuda", DriverProfile::cuda(), &run_cuda),
        ];
        for (name, profile, run) in variants {
            let label = format!("fig2 osem {name} x{n_gpus}");
            sweep.bench(
                &mut group,
                name.to_string(),
                n_gpus,
                (0, n_gpus, name),
                || time_virtual_reported_with(&platform, &label, profile.compute_efficiency, run),
            );
        }
    }
    group.finish();

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
