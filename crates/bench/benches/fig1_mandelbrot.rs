//! Criterion bench regenerating Figure 1's runtime comparison.
//!
//! Every variant runs through the reported timer, so each reports
//! **virtual** (modeled) seconds — independent of the host machine — and
//! records one ledger leg (`fig1 mandelbrot <variant> <W>x<H> x1`).

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::{figure_platform, ledger, time_virtual_reported_with, VirtualSweep};
use skelcl_mandel::{cuda_impl, opencl_impl, skelcl_impl, MandelParams};
use vgpu::DriverProfile;

fn params() -> MandelParams {
    // Small enough for quick Criterion runs; ratios are scale-stable.
    MandelParams {
        width: 256,
        height: 192,
        max_iter: 1024,
        ..MandelParams::default()
    }
}

fn bench_fig1(c: &mut Criterion) {
    let p = params();
    let platform = figure_platform(1);
    let ctx = skelcl::Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);

    // Warm builds so the binary cache isn't measured here (see the
    // kernel_cache bench for that).
    skelcl_impl::run(&ctx, &p).unwrap();
    opencl_impl::run(&platform, &p).unwrap();
    cuda_impl::run(&platform, &p).unwrap();

    let run_skelcl = || {
        skelcl_impl::run(&ctx, &p).unwrap();
    };
    let run_opencl = || {
        opencl_impl::run(&platform, &p).unwrap();
    };
    let run_cuda = || {
        cuda_impl::run(&platform, &p).unwrap();
    };
    // Each variant's roofline verdict is priced at its own driver profile.
    let variants: [(&'static str, DriverProfile, &dyn Fn()); 3] = [
        ("skelcl", DriverProfile::skelcl(), &run_skelcl),
        ("opencl", DriverProfile::opencl(), &run_opencl),
        ("cuda", DriverProfile::cuda(), &run_cuda),
    ];

    let sweep = VirtualSweep::new();
    let mut group = VirtualSweep::group(c, "fig1_mandelbrot_virtual");
    for (name, profile, run) in variants {
        let label = format!("fig1 mandelbrot {name} {}x{} x1", p.width, p.height);
        sweep.bench(&mut group, name.to_string(), 1, (0, 1, name), || {
            time_virtual_reported_with(&platform, &label, profile.compute_efficiency, run)
        });
    }
    group.finish();

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
