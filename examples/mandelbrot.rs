//! The paper's first case study: render a Mandelbrot fractal with all
//! three implementations (SkelCL / OpenCL / CUDA) on the same virtual GPU,
//! verify they agree, report the modeled runtimes, and write a PPM image.
//!
//! ```text
//! cargo run --release --example mandelbrot [-- --paper-scale]
//! ```

use skelcl::Context;
use skelcl_mandel::{cuda_impl, opencl_impl, reference, skelcl_impl, to_ppm, MandelParams};
use vgpu::{Platform, PlatformConfig};

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper-scale");
    let params = if paper_scale {
        MandelParams::paper_scale()
    } else {
        MandelParams {
            max_iter: 2048,
            ..MandelParams::bench_scale()
        }
    };
    println!(
        "Mandelbrot {}x{}, max_iter {}",
        params.width, params.height, params.max_iter
    );

    let platform = Platform::new(PlatformConfig::default().cache_tag("example-mandel"));
    let ctx = Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);

    // Warm-up (program builds / kernel cache).
    skelcl_impl::run(&ctx, &params).expect("skelcl warmup");
    opencl_impl::run(&platform, &params).expect("opencl warmup");
    cuda_impl::run(&platform, &params).expect("cuda warmup");

    let mut images = Vec::new();
    for (name, runner) in [
        (
            "SkelCL",
            Box::new(|| skelcl_impl::run(&ctx, &params).unwrap()) as Box<dyn Fn() -> Vec<u32>>,
        ),
        (
            "OpenCL",
            Box::new(|| opencl_impl::run(&platform, &params).unwrap()),
        ),
        (
            "CUDA",
            Box::new(|| cuda_impl::run(&platform, &params).unwrap()),
        ),
    ] {
        platform.reset_clocks();
        let before = platform.stats_snapshot();
        let img = runner();
        platform.sync_all();
        // Program (re)builds are one-time costs; report compute + transfer
        // like the figures harness (see `skelcl_bench::measure`).
        let build = (platform.stats_snapshot() - before).build_virtual_ns as f64 * 1e-9;
        println!(
            "{name:>7}: {:8.2} ms (virtual, excl. build)",
            (platform.host_now_s() - build) * 1e3
        );
        images.push((name, img));
    }

    // All three must produce the identical image.
    let seq = reference(&params);
    for (name, img) in &images {
        assert_eq!(img, &seq, "{name} image differs from the reference");
    }
    println!("all variants match the sequential reference");

    let out = std::env::temp_dir().join("skelcl_mandelbrot.ppm");
    std::fs::write(&out, to_ppm(&params, &images[0].1)).expect("write ppm");
    println!("image written to {}", out.display());
}
