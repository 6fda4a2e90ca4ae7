//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p skelcl-bench --bin figures -- all
//! cargo run --release -p skelcl-bench --bin figures -- fig1 [--paper-scale]
//! cargo run --release -p skelcl-bench --bin figures -- fig2 [--paper-scale|--quick]
//! cargo run --release -p skelcl-bench --bin figures -- dot | cache | lazy
//! cargo run --release -p skelcl-bench --bin figures -- ledger [NAME...]
//! ```
//!
//! Virtual (modeled) seconds are reported; the `vgpu::timing` module docs
//! describe the machine model and where its constants come from, which is
//! why absolute values differ from the paper's wall-clock numbers while the
//! comparative shapes are expected to match.
//!
//! `ledger` runs the named [`FIGURES`] entries (all of them when no name is
//! given), each asserting its acceptance relations, and writes each one's
//! `BENCH_<name>.json` into `$SKELCL_LEDGER_DIR` when that is set. An
//! unknown name exits with code 2.

use skelcl_bench::*;
use skelcl_loc::render_table;
use skelcl_mandel::MandelParams;
use skelcl_osem::{OsemParams, Volume};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let quick = args.iter().any(|a| a == "--quick");

    match what {
        "fig1" => fig1(paper_scale),
        "fig2" => fig2(paper_scale, quick),
        "dot" => dot(),
        "cache" => cache(),
        "lazy" => lazy(),
        "ledger" => ledger(&args[1..]),
        "all" => {
            fig1(paper_scale);
            fig2(paper_scale, quick);
            dot();
            cache();
            lazy();
        }
        other => {
            eprintln!("unknown figure '{other}' (use fig1|fig2|dot|cache|lazy|ledger|all)");
            std::process::exit(2);
        }
    }
}

/// Runs the named figures (all when `names` is empty) and writes each
/// one's ledger; names are checked before anything runs.
fn ledger(names: &[String]) {
    let figs: Vec<&Figure> = if names.is_empty() {
        FIGURES.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                FIGURES.iter().find(|f| f.name == name).unwrap_or_else(|| {
                    let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                    eprintln!("unknown figure '{name}' (registered: {})", known.join(" "));
                    std::process::exit(2);
                })
            })
            .collect()
    };
    for fig in figs {
        let t0 = Instant::now();
        (fig.run)();
        ledger::write_fig(fig.name);
        println!(
            "ledger {}: {:.1} s host, {} legs",
            fig.name,
            t0.elapsed().as_secs_f64(),
            ledger::legs_for(fig.name).len()
        );
    }
}

fn fig1(paper_scale: bool) {
    let p = if paper_scale {
        MandelParams::paper_scale()
    } else {
        fig1_default_params()
    };
    println!(
        "== Figure 1: Mandelbrot ({}x{}, max_iter {}) ==",
        p.width, p.height, p.max_iter
    );
    println!("{}", render_table("program size (LoC)", &fig1_loc()));
    let r = run_fig1(&p);
    println!("runtime (virtual seconds, 1 GPU)");
    println!("{:<10} {:>12}", "variant", "seconds");
    println!("{:<10} {:>12.4}", "SkelCL", r.skelcl_s);
    println!("{:<10} {:>12.4}", "OpenCL", r.opencl_s);
    println!("{:<10} {:>12.4}", "CUDA", r.cuda_s);
    println!(
        "OpenCL faster than SkelCL by {:5.1} %   (paper:  4 %)",
        100.0 * r.opencl_vs_skelcl()
    );
    println!(
        "CUDA   faster than SkelCL by {:5.1} %   (paper: 31 %)",
        100.0 * r.cuda_vs_skelcl()
    );
    print_overhead("Mandelbrot", r.skelcl_s, r.opencl_s);
    println!();
}

/// SkelCL's overhead over hand-written OpenCL (paper: under 5 % on both
/// applications).
fn print_overhead(app: &str, skelcl_s: f64, opencl_s: f64) {
    println!(
        "{app}: SkelCL/OpenCL = {:5.3} ({:+.1} %)   (paper: < 5 %)",
        skelcl_s / opencl_s,
        100.0 * (skelcl_s / opencl_s - 1.0)
    );
}

fn fig2(paper_scale: bool, quick: bool) {
    let p = if paper_scale {
        OsemParams::paper_scale()
    } else if quick {
        OsemParams {
            volume: Volume::new(32, 32, 32, 6.0),
            total_events: 200_000,
            n_subsets: 10,
            seed: 2011,
        }
    } else {
        OsemParams::bench_scale()
    };
    println!(
        "== Figure 2: list-mode OSEM (volume {:?}, {} events, {} subsets) ==",
        p.volume.dims(),
        p.total_events,
        p.n_subsets
    );
    println!("{}", render_table("program size (LoC)", &fig2_loc()));
    println!("generating events...");
    let rows = run_fig2(&p, &[1, 2, 4]);
    println!("runtime (virtual seconds)");
    println!(
        "{:<10} {:>6} {:>12} {:>9}",
        "variant", "GPUs", "seconds", "speedup"
    );
    for variant in ["SkelCL", "OpenCL", "CUDA"] {
        let t1 = rows
            .iter()
            .find(|r| r.variant == variant && r.n_gpus == 1)
            .map(|r| r.seconds)
            .unwrap_or(f64::NAN);
        for r in rows.iter().filter(|r| r.variant == variant) {
            println!(
                "{:<10} {:>6} {:>12.4} {:>9.2}",
                r.variant,
                r.n_gpus,
                r.seconds,
                t1 / r.seconds
            );
        }
    }
    let get = |v: &str, n: usize| {
        rows.iter()
            .find(|r| r.variant == v && r.n_gpus == n)
            .map(|r| r.seconds)
            .unwrap_or(f64::NAN)
    };
    println!(
        "1 GPU: CUDA faster than OpenCL by {:4.1} %   (paper: ~17-21 %)",
        100.0 * (get("OpenCL", 1) - get("CUDA", 1)) / get("OpenCL", 1)
    );
    println!(
        "SkelCL 4-GPU vs CUDA 1-GPU: {:4.2}x   (paper: 2.56x)",
        get("CUDA", 1) / get("SkelCL", 4)
    );
    print_overhead("OSEM (1 GPU)", get("SkelCL", 1), get("OpenCL", 1));
    println!();
}

fn dot() {
    println!("== Dot product (paper Listing 1 / Section III intro) ==");
    println!(
        "{}",
        render_table(
            "program size (LoC)  [paper: NVIDIA OpenCL ~68 = 9 kernel + 59 host]",
            &dot_product_loc()
        )
    );
    // Correctness cross-check of the two programs on the same platform.
    let platform = figure_platform(1);
    let ctx = skelcl::Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);
    let a: Vec<f32> = (0..1 << 16)
        .map(|i| ((i * 13) % 31) as f32 * 0.25)
        .collect();
    let b: Vec<f32> = (0..1 << 16).map(|i| ((i * 7) % 17) as f32 * 0.5).collect();
    let mult = skelcl::Zip::new(skelcl::skel_fn!(
        fn mult(x: f32, y: f32) -> f32 {
            x * y
        }
    ));
    let sum = skelcl::Reduce::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    );
    let va = skelcl::Vector::from_slice(&ctx, &a);
    let vb = skelcl::Vector::from_slice(&ctx, &b);
    let skelcl_dot = sum
        .apply(&mult.apply(&va, &vb).expect("zip"))
        .expect("reduce")
        .get_value();
    let opencl_dot = dot_opencl::dot_product(&platform, &a, &b).expect("opencl dot");
    println!("SkelCL result = {skelcl_dot}, OpenCL result = {opencl_dot}");
    assert!((skelcl_dot - opencl_dot).abs() <= skelcl_dot.abs() * 1e-5);
    println!();
}

fn cache() {
    println!("== Kernel binary cache (paper Section III-B) ==");
    let r = run_cache_experiment();
    println!(
        "build from source: {:8.2} ms (virtual), {:8.3} ms (wall)",
        r.compile_virtual_s * 1e3,
        r.compile_wall_s * 1e3
    );
    println!(
        "load from cache:   {:8.2} ms (virtual), {:8.3} ms (wall)",
        r.load_virtual_s * 1e3,
        r.load_wall_s * 1e3
    );
    println!(
        "speedup: {:4.1}x   (paper: \"at least five times faster\")",
        r.virtual_speedup()
    );
    println!();
}

fn lazy() {
    println!("== Lazy copying (paper Section III-A) ==");
    let r = run_lazy_copy_experiment(1 << 20);
    println!("chained sum(mult(A,B)) on 2^20 floats:");
    println!(
        "  lazy  (SkelCL):      {:3} transfers, {:9} bytes, {:8.3} ms",
        r.lazy_transfers,
        r.lazy_bytes,
        r.lazy_virtual_s * 1e3
    );
    println!(
        "  eager (round trip):  {:3} transfers, {:9} bytes, {:8.3} ms",
        r.eager_transfers,
        r.eager_bytes,
        r.eager_virtual_s * 1e3
    );
    println!();
}
