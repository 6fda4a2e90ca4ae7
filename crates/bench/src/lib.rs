//! # skelcl-bench — the experiment harness
//!
//! One runner function per paper artifact. Every measured leg runs inside
//! one window, [`measure`], and leaves through [`record`], which prints the
//! leg's summary line and deposits its perf-ledger leg. The ten gated
//! figures sweep the runners from one table, [`FIGURES`]. The `figures`
//! binary prints the paper's tables from the runners (`figures fig1`, …)
//! and runs the table into `BENCH_<name>.json` ledgers (`figures ledger`).
//! Both report *virtual* (modeled) seconds, so results are host-machine
//! independent.

pub mod ledger;
mod registry;

pub use registry::{Figure, FIGURES};

use skelcl::report::RunReport;
use skelcl::{Context, Distribution, Map, Reduce, ReduceStrategy, Scan, ScanStrategy, Vector, Zip};
use skelcl_loc::{LocRow, VariantLoc};
use skelcl_mandel::MandelParams;
use skelcl_osem::{OsemParams, Volume};
use vgpu::{DriverProfile, Platform, PlatformConfig};

/// Default fig-1 parameters: the paper's region and aspect ratio at reduced
/// resolution, iteration cap raised so compute dominates transfers as it
/// does at the paper's full scale.
pub fn fig1_default_params() -> MandelParams {
    MandelParams {
        max_iter: 4096,
        ..MandelParams::bench_scale()
    }
}

/// A platform with the paper's hardware (Tesla-C1060-class devices).
pub fn figure_platform(n_devices: usize) -> Platform {
    Platform::new(
        PlatformConfig::default()
            .devices(n_devices)
            .cache_tag("figures"),
    )
}

/// The one measurement window every bench leg goes through: turns the
/// engine timeline trace on, resets the virtual clocks, runs `f`, joins
/// every device, and returns the window's [`RunReport`] with `f`'s result.
///
/// The report's `window_s` is the window's virtual seconds **excluding
/// program-build time**, and its roofline verdict is priced over that same
/// window, so a leg's seconds and its "% of modeled peak" cannot come from
/// two different windows. Builds are excluded because the paper's measured
/// runtimes (18–26 s Mandelbrot, 3–3.7 s OSEM) amortise the one-time
/// runtime compilation to invisibility; at this repository's reduced
/// default scales a rebuilding baseline would be dominated by it, so build
/// cost is accounted separately (experiment E6).
///
/// The roofline prices the compute floor at `clock × compute_efficiency`,
/// so runs driven by a non-SkelCL profile (the hand-written OpenCL/CUDA
/// baselines in fig 1/2) pass *their* profile's efficiency; otherwise a
/// more efficient runtime shows an impossible >100% of peak. When `ctx` has
/// the online `skelcheck` hazard checker enabled, the report also carries
/// how many enqueue groups the checker vetted inside the window.
pub fn measure<R>(
    ctx: &Context,
    label: &str,
    compute_efficiency: f64,
    f: impl FnOnce() -> R,
) -> (RunReport, R) {
    let platform = ctx.platform();
    platform.enable_timeline_trace();
    platform.reset_clocks();
    let checked_before = ctx.hazards_checked();
    let before = platform.stats_snapshot();
    let out = f();
    platform.sync_all();
    let delta = platform.stats_snapshot() - before;
    let window_s = platform.host_now_s() - delta.build_virtual_ns as f64 * 1e-9;
    let trace = platform.take_timeline_trace();
    let mut report =
        RunReport::collect(label, platform, compute_efficiency, delta, &trace, window_s);
    let checked = ctx.hazards_checked() - checked_before;
    if checked > 0 {
        report = report.with_hazards_checked(checked);
    }
    (report, out)
}

/// The one exit of a measured leg: prints the report's one-line summary
/// (per-device utilization, copy-under-compute overlap, roofline bound and
/// % of modeled peak), deposits its perf-ledger leg, and returns its
/// window in virtual seconds. Callers attach their extras (latency
/// histogram, SLO summary) to the report first.
pub fn record(report: &RunReport) -> f64 {
    println!("{}", report.summary_line());
    ledger::record_report(report);
    report.window_s
}

/// Roofline compute efficiency of legs run by the SkelCL runtime.
fn skelcl_efficiency() -> f64 {
    DriverProfile::skelcl().compute_efficiency
}

/// Figure 1 (runtime): Mandelbrot with SkelCL / OpenCL / CUDA on one GPU.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Runtimes {
    pub skelcl_s: f64,
    pub opencl_s: f64,
    pub cuda_s: f64,
}

impl Fig1Runtimes {
    /// OpenCL advantage over SkelCL, as the paper reports it (4 %).
    pub fn opencl_vs_skelcl(&self) -> f64 {
        (self.skelcl_s - self.opencl_s) / self.skelcl_s
    }

    /// CUDA advantage over SkelCL (paper: 31 %).
    pub fn cuda_vs_skelcl(&self) -> f64 {
        (self.skelcl_s - self.cuda_s) / self.skelcl_s
    }
}

pub fn run_fig1(p: &MandelParams) -> Fig1Runtimes {
    let platform = figure_platform(1);
    let ctx = Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);

    // Warm-up: pays one-time program builds / binary-cache population, so
    // the timed runs measure the computation like the paper's runs do.
    skelcl_mandel::skelcl_impl::run(&ctx, p).expect("skelcl warmup");
    skelcl_mandel::opencl_impl::run(&platform, p).expect("opencl warmup");
    skelcl_mandel::cuda_impl::run(&platform, p).expect("cuda warmup");

    // Each variant's roofline verdict is priced at its own driver profile.
    let runs: [(&str, DriverProfile, &dyn Fn()); 3] = [
        ("skelcl", DriverProfile::skelcl(), &|| {
            skelcl_mandel::skelcl_impl::run(&ctx, p).expect("skelcl run");
        }),
        ("opencl", DriverProfile::opencl(), &|| {
            skelcl_mandel::opencl_impl::run(&platform, p).expect("opencl run");
        }),
        ("cuda", DriverProfile::cuda(), &|| {
            skelcl_mandel::cuda_impl::run(&platform, p).expect("cuda run");
        }),
    ];
    let [skelcl_s, opencl_s, cuda_s] = runs.map(|(variant, profile, run)| {
        let label = format!("fig1 mandelbrot {variant} {}x{} x1", p.width, p.height);
        record(&measure(&ctx, &label, profile.compute_efficiency, run).0)
    });
    Fig1Runtimes {
        skelcl_s,
        opencl_s,
        cuda_s,
    }
}

/// Figure 1 (program size): LoC of the three Mandelbrot variants, measured
/// from the actual sources.
pub fn fig1_loc() -> Vec<LocRow> {
    vec![
        LocRow {
            variant: "CUDA",
            loc: VariantLoc::measure_marked(include_str!("../../mandel/src/cuda_impl.rs")),
        },
        LocRow {
            variant: "OpenCL",
            loc: VariantLoc::measure_marked(include_str!("../../mandel/src/opencl_impl.rs")),
        },
        LocRow {
            variant: "SkelCL",
            loc: VariantLoc::measure_marked(include_str!("../../mandel/src/skelcl_impl.rs")),
        },
    ]
}

/// Figure 2 (runtime): one row per (variant, device count).
#[derive(Debug, Clone, Copy)]
pub struct Fig2Row {
    pub variant: &'static str,
    pub n_gpus: usize,
    pub seconds: f64,
}

pub fn run_fig2(params: &OsemParams, device_counts: &[usize]) -> Vec<Fig2Row> {
    let subsets = params.generate_subsets();
    let vol = params.volume;
    let mut rows = Vec::new();
    for &n in device_counts {
        let platform = figure_platform(n);
        let ctx = Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);

        // Warm-up builds.
        skelcl_osem::skelcl_impl::reconstruct(&ctx, &vol, &subsets[..1]).expect("warmup");
        skelcl_osem::opencl_impl::reconstruct(&platform, &vol, &subsets[..1]).expect("warmup");
        skelcl_osem::cuda_impl::reconstruct(&platform, &vol, &subsets[..1]).expect("warmup");

        // Each variant's roofline verdict is priced at its own driver
        // profile.
        let runs: [(&'static str, DriverProfile, &dyn Fn()); 3] = [
            ("SkelCL", DriverProfile::skelcl(), &|| {
                skelcl_osem::skelcl_impl::reconstruct(&ctx, &vol, &subsets).expect("skelcl");
            }),
            ("OpenCL", DriverProfile::opencl(), &|| {
                skelcl_osem::opencl_impl::reconstruct(&platform, &vol, &subsets).expect("opencl");
            }),
            ("CUDA", DriverProfile::cuda(), &|| {
                skelcl_osem::cuda_impl::reconstruct(&platform, &vol, &subsets).expect("cuda");
            }),
        ];
        for (variant, profile, run) in runs {
            let label = format!("fig2 osem {} x{n}", variant.to_lowercase());
            let seconds = record(&measure(&ctx, &label, profile.compute_efficiency, run).0);
            rows.push(Fig2Row {
                variant,
                n_gpus: n,
                seconds,
            });
        }
    }
    rows
}

/// Figure 2 (program size).
pub fn fig2_loc() -> Vec<LocRow> {
    vec![
        LocRow {
            variant: "SkelCL",
            loc: VariantLoc::measure_marked(include_str!("../../osem/src/skelcl_impl.rs")),
        },
        LocRow {
            variant: "CUDA",
            loc: VariantLoc::measure_marked(include_str!("../../osem/src/cuda_impl.rs")),
        },
        LocRow {
            variant: "OpenCL",
            loc: VariantLoc::measure_marked(include_str!("../../osem/src/opencl_impl.rs")),
        },
    ]
}

/// E5: the dot-product program-size comparison (Listing 1 vs the NVIDIA
/// OpenCL sample's ~68 lines). The SkelCL dot product is the quickstart
/// example; its OpenCL counterpart is the saxpy-style workflow written
/// against the baseline API.
pub fn dot_product_loc() -> Vec<LocRow> {
    let opencl_host = VariantLoc::measure_marked(include_str!("dot_opencl.rs"));
    vec![
        LocRow {
            variant: "SkelCL",
            loc: VariantLoc::measure_marked(include_str!("../../../examples/quickstart.rs")),
        },
        LocRow {
            variant: "OpenCL",
            loc: VariantLoc {
                host: opencl_host.host,
                // The kernel lives in its own .cl file for this program.
                kernel: opencl_host.kernel + skelcl_loc::count_c_like(DOT_OPENCL_KERNEL),
            },
        },
    ]
}

/// The dot-product kernel of the OpenCL comparison program.
pub const DOT_OPENCL_KERNEL: &str = include_str!("dot_kernel.cl");

pub mod dot_opencl;

/// E6: kernel binary cache — virtual and wall cost of building a skeleton
/// program from source vs loading it from the cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheResult {
    pub compile_virtual_s: f64,
    pub load_virtual_s: f64,
    pub compile_wall_s: f64,
    pub load_wall_s: f64,
}

impl CacheResult {
    pub fn virtual_speedup(&self) -> f64 {
        self.compile_virtual_s / self.load_virtual_s
    }
}

pub fn run_cache_experiment() -> CacheResult {
    let platform = figure_platform(1);
    platform.compiler().clear_cache().expect("clear cache");
    let queue = platform.queue(0, DriverProfile::opencl());
    // A representative generated skeleton program.
    let program = skelcl::codegen::scan_program(
        "sum",
        "float sum(float x, float y) { return x + y; }",
        "float",
    );
    let body: vgpu::KernelBody = std::sync::Arc::new(|_wg: &vgpu::WorkGroup| {});

    let (_, first) = queue
        .build_kernel_traced(&program, body.clone())
        .expect("build");
    assert!(!first.from_cache);
    let (_, second) = queue.build_kernel_traced(&program, body).expect("rebuild");
    assert!(second.from_cache);
    platform.compiler().clear_cache().expect("clear cache");
    CacheResult {
        compile_virtual_s: first.virtual_s,
        load_virtual_s: second.virtual_s,
        compile_wall_s: first.wall_s,
        load_wall_s: second.wall_s,
    }
}

/// E8: lazy copying — transfers needed by the chained dot product
/// (`sum(mult(A, B))`) with SkelCL's lazy vectors vs an eager
/// download/upload between the two skeletons.
#[derive(Debug, Clone, Copy)]
pub struct LazyCopyResult {
    pub lazy_transfers: u64,
    pub lazy_bytes: u64,
    pub eager_transfers: u64,
    pub eager_bytes: u64,
    pub lazy_virtual_s: f64,
    pub eager_virtual_s: f64,
}

pub fn run_lazy_copy_experiment(n: usize) -> LazyCopyResult {
    let (lazy, lazy_value) = dot_chain(n, false);
    let (eager, eager_value) = dot_chain(n, true);
    assert_eq!(lazy_value, eager_value, "both paths must agree");
    LazyCopyResult {
        lazy_transfers: lazy.stats.total_transfers(),
        lazy_bytes: lazy.stats.total_transfer_bytes(),
        eager_transfers: eager.stats.total_transfers(),
        eager_bytes: eager.stats.total_transfer_bytes(),
        lazy_virtual_s: lazy.window_s,
        eager_virtual_s: eager.window_s,
    }
}

/// E8 helper: virtual time of the chained dot product `sum(mult(A, B))`
/// over `n` host-fresh floats on one device, uploads included and program
/// warm-up excluded. The intermediate `mult(A, B)` stays on the device
/// (SkelCL's lazy copying), or with `eager` makes a host round trip as it
/// would without the lazy coherence protocol.
pub fn dot_chain_virtual_s(n: usize, eager: bool) -> f64 {
    dot_chain(n, eager).0.window_s
}

/// One recorded run of [`dot_chain_virtual_s`]'s leg: its report and the
/// dot product.
fn dot_chain(n: usize, eager: bool) -> (RunReport, f32) {
    let ctx = Context::from_platform(figure_platform(1), skelcl::DEFAULT_WORK_GROUP);
    let mult = Zip::new(skelcl::skel_fn!(
        fn mult(x: f32, y: f32) -> f32 {
            x * y
        }
    ));
    let sum = Reduce::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    );
    let a_data: Vec<f32> = (0..n).map(|i| (i % 17) as f32).collect();
    let b_data: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
    let run = || {
        let a = Vector::from_slice(&ctx, &a_data);
        let b = Vector::from_slice(&ctx, &b_data);
        let ab = mult.apply(&a, &b).expect("zip");
        let ab = if eager {
            Vector::from_vec(&ctx, ab.to_vec().expect("download"))
        } else {
            ab
        };
        sum.apply(&ab).expect("reduce").get_value()
    };
    run(); // warm the program builds
    let schedule = if eager {
        "eager_roundtrip"
    } else {
        "lazy_chain"
    };
    let label = format!("fig_skeletons dot {schedule} n={n} x1");
    let (report, value) = measure(&ctx, &label, skelcl_efficiency(), run);
    record(&report);
    (report, value)
}

/// Fig-skeletons helper: virtual time of one element-wise skeleton over
/// `n` device-resident floats on one device — `Map` (square), or with
/// `zip` `Zip` (multiply). Upload and program warm-up are excluded.
pub fn elementwise_virtual_s(n: usize, zip: bool) -> f64 {
    let ctx = Context::from_platform(figure_platform(1), skelcl::DEFAULT_WORK_GROUP);
    let square = Map::new(skelcl::skel_fn!(
        fn square(x: f32) -> f32 {
            x * x
        }
    ));
    let mult = Zip::new(skelcl::skel_fn!(
        fn mult(x: f32, y: f32) -> f32 {
            x * y
        }
    ));
    let data: Vec<f32> = (0..n).map(|i| (i % 9) as f32).collect();
    let a = Vector::from_slice(&ctx, &data);
    let b = Vector::from_slice(&ctx, &data);
    a.ensure_on_devices().expect("upload");
    b.ensure_on_devices().expect("upload");
    let run = || {
        if zip {
            mult.apply(&a, &b).expect("zip");
        } else {
            square.apply(&a).expect("map");
        }
    };
    run(); // warm the program build
    let op = if zip { "zip" } else { "map" };
    let label = format!("fig_skeletons {op} n={n} x1");
    record(&measure(&ctx, &label, skelcl_efficiency(), run).0)
}

/// E9 helper: virtual time of one Reduce under a given strategy.
pub fn reduce_virtual_s(n: usize, strategy: ReduceStrategy) -> f64 {
    let ctx = Context::from_platform(figure_platform(1), skelcl::DEFAULT_WORK_GROUP);
    let sum = Reduce::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    )
    .with_strategy(strategy);
    let v = Vector::from_vec(&ctx, (0..n).map(|i| (i % 13) as f32).collect());
    v.ensure_on_devices().expect("upload");
    sum.apply(&v).expect("warm");
    let label = format!("fig_skeletons reduce {strategy:?} n={n} x1");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            sum.apply(&v).expect("reduce");
        })
        .0,
    )
}

/// E9 helper: virtual time of one Scan under a given strategy.
pub fn scan_virtual_s(n: usize, strategy: ScanStrategy) -> f64 {
    let ctx = Context::from_platform(figure_platform(1), skelcl::DEFAULT_WORK_GROUP);
    let sum = Scan::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    )
    .with_strategy(strategy);
    let v = Vector::from_vec(&ctx, (0..n).map(|i| (i % 7) as f32).collect());
    v.ensure_on_devices().expect("upload");
    sum.apply(&v).expect("warm");
    let label = format!("fig_skeletons scan {strategy:?} n={n} x1");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            sum.apply(&v).expect("scan");
        })
        .0,
    )
}

/// E10 helper: virtual time of a block-distributed Map across devices.
pub fn map_scaling_virtual_s(n: usize, devices: usize) -> f64 {
    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    let heavy = skelcl::UserFn::new(
        "heavy",
        "float heavy(float x) { float acc = x; for (int i = 0; i < 256; ++i) acc = acc * 1.0001f + 0.5f; return acc; }",
        |x: f32| {
            skelcl::work(512);
            let mut acc = x;
            for _ in 0..8 {
                acc = acc * 1.0001 + 0.5;
            }
            acc
        },
    );
    let map = Map::new(heavy);
    let v = Vector::from_vec(&ctx, vec![1.0f32; n]);
    v.set_distribution(Distribution::Block).expect("dist");
    v.ensure_on_devices().expect("upload");
    map.apply(&v).expect("warm");
    let label = format!("fig_skeletons heavy_map block n={n} x{devices}");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            map.apply(&v).expect("map");
        })
        .0,
    )
}

/// E11 helper: virtual time of the Gaussian → Sobel stencil pipeline over a
/// row-block-distributed matrix across `devices` devices (fig_stencil).
pub fn stencil_scaling_virtual_s(rows: usize, cols: usize, devices: usize) -> f64 {
    use skelcl::{Boundary2D, Matrix, MatrixDistribution};

    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    let img = Matrix::from_vec(&ctx, rows, cols, skelcl_imgproc::test_image(rows, cols));
    img.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .expect("dist");
    img.ensure_on_devices().expect("upload");
    skelcl_imgproc::skelcl_impl::blur_sobel(&img, Boundary2D::Neumann).expect("warm");
    let label = format!("fig_stencil blur_sobel {rows}x{cols} x{devices}");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            skelcl_imgproc::skelcl_impl::blur_sobel(&img, Boundary2D::Neumann).expect("pipeline");
        })
        .0,
    )
}

/// Fig-iterate helper: virtual time of `n` Jacobi heat-relaxation steps
/// over a `rows × cols` row-block-distributed plate across `devices`
/// devices. `batched` runs `Stencil2D::iterate(n)` — two ping-pong buffers
/// per device, one batched halo exchange per iteration, no host sync
/// between rounds; otherwise each step is one chained `apply` with the
/// matrix-level exchange (the pre-iterate schedule). Upload and program
/// warm-up are excluded; the timed region is the iteration schedule alone.
pub fn stencil_iterate_virtual_s(
    rows: usize,
    cols: usize,
    devices: usize,
    n: usize,
    batched: bool,
) -> f64 {
    use skelcl::{Matrix, MatrixDistribution};

    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    let plate = Matrix::from_vec(&ctx, rows, cols, skelcl_iterative::heat_plate(rows, cols));
    plate
        .set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .expect("dist");
    plate.ensure_on_devices().expect("upload");
    let st = skelcl_iterative::skelcl_impl::heat_skeleton();
    // Warm both generated programs (the apply and the iterate forms).
    st.apply(&plate).expect("warm apply");
    st.iterate(&plate, 1).expect("warm iterate");
    let schedule = if batched { "batched" } else { "chained" };
    let label = format!("fig_iterate heat {rows}x{cols} n={n} {schedule} x{devices}");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            if batched {
                st.iterate(&plate, n).expect("iterate");
            } else if n > 0 {
                let mut cur = st.apply(&plate).expect("apply");
                for _ in 1..n {
                    cur = st.apply(&cur).expect("apply");
                }
            }
        })
        .0,
    )
}

/// Fig-fusion helper: virtual time of the canny label pipeline (gauss →
/// sobel → non-maximum suppression → double threshold) over a
/// `rows × cols` row-block image across `devices` devices. With `fused`
/// the lazy [`skelcl::Pipeline`] runs: the whole chain compiles into
/// three fused stencil launches with zero intermediate matrices; otherwise
/// the unfused chain runs — six skeleton launches (gauss, sobel x, sobel y,
/// gradient zip, nms, threshold map) with five materialised intermediates.
/// Both paths are bit-identical (imgproc tests + `prop_fusion`); the
/// figure isolates the launch-count and traffic difference. The host-side
/// hysteresis flood fill is identical in both variants and excluded, as is
/// upload and program warm-up.
pub fn canny_virtual_s(rows: usize, cols: usize, devices: usize, fused: bool) -> f64 {
    use skelcl::{Boundary2D, Matrix, MatrixDistribution};
    use skelcl_imgproc::skelcl_impl::{canny_labels, canny_labels_unfused};

    const LO: f32 = 30.0;
    const HI: f32 = 90.0;
    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    let img = Matrix::from_vec(&ctx, rows, cols, skelcl_imgproc::test_image(rows, cols));
    img.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .expect("dist");
    img.ensure_on_devices().expect("upload");
    // Warm both generated program sets so neither path pays build cost.
    canny_labels(&img, Boundary2D::Neumann, LO, HI).expect("warm fused");
    canny_labels_unfused(&img, Boundary2D::Neumann, LO, HI).expect("warm unfused");
    let variant = if fused { "fused" } else { "unfused" };
    let label = format!("fig_fusion canny {rows}x{cols} {variant} x{devices}");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            if fused {
                canny_labels(&img, Boundary2D::Neumann, LO, HI).expect("canny fused");
            } else {
                canny_labels_unfused(&img, Boundary2D::Neumann, LO, HI).expect("canny unfused");
            }
        })
        .0,
    )
}

/// Fig-overlap helper: one measured leg of `n` Jacobi heat-relaxation
/// rounds over a `rows × cols` row-block plate across `devices` devices,
/// under either iterate schedule. With `overlapped` the default
/// `Stencil2D::iterate` runs: each round splits into interior and boundary
/// launches and the next round's halo exchange is issued on the copy
/// stream, overlapping the interior kernels; otherwise the serial
/// `iterate_serial` baseline runs (one kernel per part per round,
/// device-serializing exchange). Both schedules are bit-identical in their
/// results (asserted by `prop_overlap`); the figure isolates the modeled
/// timeline difference. Upload and program warm-up are excluded.
///
/// With `checked` skelcheck's online hazard checker is armed for the run
/// (the public API equivalent of `SKELCL_CHECK=1`) and the label gains
/// `checked`: the figure's checker-overhead check times this against the
/// unchecked leg, and the summary line proves the checker vetted every
/// enqueue group in the window. Callers read the window's seconds as
/// `.window_s`.
pub fn overlap_iterate(
    rows: usize,
    cols: usize,
    devices: usize,
    n: usize,
    overlapped: bool,
    checked: bool,
) -> RunReport {
    use skelcl::{Matrix, MatrixDistribution};

    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    if checked {
        ctx.enable_online_hazard_check();
    }
    let plate = Matrix::from_vec(&ctx, rows, cols, skelcl_iterative::heat_plate(rows, cols));
    plate
        .set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .expect("dist");
    plate.ensure_on_devices().expect("upload");
    let st = skelcl_iterative::skelcl_impl::heat_skeleton();
    st.iterate(&plate, 1).expect("warm");
    let schedule = if overlapped { "overlapped" } else { "serial" };
    let suffix = if checked { " checked" } else { "" };
    let label = format!("fig_overlap iterate {rows}x{cols} n={n} {schedule}{suffix} x{devices}");
    let (report, ()) = measure(&ctx, &label, skelcl_efficiency(), || {
        if overlapped {
            st.iterate(&plate, n).expect("iterate");
        } else {
            st.iterate_serial(&plate, n).expect("iterate serial");
        }
    });
    record(&report);
    report
}

/// The stencil of the fig-overlap upload leg: a 5×5 box mean (radius 2).
/// Its 25-tap read pattern makes the kernel long enough on the modeled
/// hardware that a streamed upload has real compute to hide under — the
/// regime where upload/compute overlap pays on real GPUs.
pub fn upload_stencil(
) -> skelcl::Stencil2D<f32, f32, impl Fn(&skelcl::Stencil2DView<'_, f32>) -> f32 + Clone> {
    let user = skelcl::UserFn::new(
        "box5",
        "float box5(__global float* in, int r, int c, uint nr, uint nc) {\n\
             float acc = 0.0f;\n\
             for (int dr = -2; dr <= 2; ++dr)\n\
                 for (int dc = -2; dc <= 2; ++dc)\n\
                     acc += stencil_at(in, r, c, nr, nc, dr, dc);\n\
             return acc * 0.04f;\n\
         }",
        |v: &skelcl::Stencil2DView<'_, f32>| {
            let mut acc = 0.0f32;
            for dr in -2..=2 {
                for dc in -2..=2 {
                    acc += v.get(dr, dc);
                }
            }
            acc * 0.04
        },
    );
    skelcl::Stencil2D::new(user, 2, skelcl::Boundary2D::Neumann)
}

/// Fig-overlap helper (upload leg): one measured [`upload_stencil`] pass
/// over a *cold* (host-fresh) `rows × cols` plate, upload included. With
/// `streamed` the upload goes out in `chunk_rows`-row chunks on the copy
/// stream and the stencil launches in chunk bands overlapping it
/// (`Stencil2D::apply_streamed`); otherwise the blocking upload completes
/// before the single kernel launches (`Stencil2D::apply`). Bit-identical
/// results; program warm-up excluded. `checked` arms the online hazard
/// checker as in [`overlap_iterate`].
pub fn overlap_upload(
    rows: usize,
    cols: usize,
    devices: usize,
    chunk_rows: usize,
    streamed: bool,
    checked: bool,
) -> RunReport {
    use skelcl::{Matrix, MatrixDistribution};

    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    if checked {
        ctx.enable_online_hazard_check();
    }
    let st = upload_stencil();
    // Warm the generated program with a throwaway matrix.
    st.apply(&Matrix::from_vec(
        &ctx,
        8,
        8,
        skelcl_iterative::heat_plate(8, 8),
    ))
    .expect("warm");
    let data = skelcl_iterative::heat_plate(rows, cols);
    let plate = Matrix::from_vec(&ctx, rows, cols, data);
    plate
        .set_distribution(MatrixDistribution::RowBlock { halo: 2 })
        .expect("dist");
    let schedule = if streamed { "streamed" } else { "blocking" };
    let suffix = if checked { " checked" } else { "" };
    let label = format!("fig_overlap upload {rows}x{cols} {schedule}{suffix} x{devices}");
    let (report, ()) = measure(&ctx, &label, skelcl_efficiency(), || {
        if streamed {
            st.apply_streamed(&plate, chunk_rows).expect("streamed");
        } else {
            st.apply(&plate).expect("blocking");
        }
    });
    record(&report);
    report
}

/// Fig-allpairs helper: virtual time of one `C = A·B` square matrix
/// multiplication at `size×size` (inner dimension `size` too) across
/// `devices` devices with the given AllPairs strategy. Uploads — A
/// row-blocked, B replicated — happen before timing, like the stencil
/// figure; the timed region is the skeleton launches alone.
pub fn allpairs_virtual_s(size: usize, devices: usize, strategy: skelcl::AllPairsStrategy) -> f64 {
    use skelcl::{Matrix, MatrixDistribution};

    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    let a = Matrix::from_vec(&ctx, size, size, skelcl_linalg::test_matrix(size, size, 1));
    let b = Matrix::from_vec(&ctx, size, size, skelcl_linalg::test_matrix(size, size, 2));
    a.set_distribution(MatrixDistribution::row_block())
        .expect("dist A");
    b.set_distribution(MatrixDistribution::Copy)
        .expect("dist B");
    a.ensure_on_devices().expect("upload A");
    b.ensure_on_devices().expect("upload B");

    // Warm the program cache with a small product of the same generated
    // program (the program hash does not depend on the matrix size).
    let wa = Matrix::from_vec(&ctx, 8, 8, skelcl_linalg::test_matrix(8, 8, 3));
    let wb = Matrix::from_vec(&ctx, 8, 8, skelcl_linalg::test_matrix(8, 8, 4));
    skelcl_linalg::skelcl_impl::matmul_matrices(&wa, &wb, strategy).expect("warm");

    let label = format!("fig_allpairs matmul {size} {strategy:?} x{devices}");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            skelcl_linalg::skelcl_impl::matmul_matrices(&a, &b, strategy).expect("matmul");
        })
        .0,
    )
}

/// Fig-reduce2d helper: virtual time of the 1-NN pipeline (`q` queries ×
/// `p` reference points of dimension `dim`) across `devices` devices.
/// With `device_side` the per-query argmin runs as the device-resident
/// `ReduceRowsArg` row reduction and only two length-`q` vectors are
/// downloaded; otherwise the pre-reduce2d baseline downloads the whole
/// `q×p` distance matrix and scans it on the host. Program warm-up is
/// excluded; both paths produce bit-identical results (asserted in the
/// linalg tests), so the figure isolates the transfer schedule.
pub fn nn_virtual_s(q: usize, p: usize, dim: usize, devices: usize, device_side: bool) -> f64 {
    use skelcl::Matrix;

    let ctx = Context::from_platform(figure_platform(devices), skelcl::DEFAULT_WORK_GROUP);
    let strategy = skelcl::AllPairsStrategy::default();
    let mk = || {
        (
            Matrix::from_vec(&ctx, q, dim, skelcl_linalg::test_points(q, dim, 1)),
            Matrix::from_vec(&ctx, p, dim, skelcl_linalg::test_points(p, dim, 2)),
        )
    };
    // Warm both generated program sets (AllPairs + Map + ReduceRowsArg).
    {
        let (qm, pm) = mk();
        skelcl_linalg::skelcl_impl::nearest_neighbors(&qm, &pm, strategy).expect("warm device");
        let (qm, pm) = mk();
        skelcl_linalg::skelcl_impl::nearest_neighbors_host_argmin(&qm, &pm, strategy)
            .expect("warm host");
    }
    let (qm, pm) = mk();
    let argmin = if device_side { "device" } else { "host" };
    let label = format!("fig_reduce2d nn q={q} p={p} dim={dim} {argmin}-argmin x{devices}");
    record(
        &measure(&ctx, &label, skelcl_efficiency(), || {
            if device_side {
                skelcl_linalg::skelcl_impl::nearest_neighbors(&qm, &pm, strategy).expect("nn");
            } else {
                skelcl_linalg::skelcl_impl::nearest_neighbors_host_argmin(&qm, &pm, strategy)
                    .expect("nn baseline");
            }
        })
        .0,
    )
}

/// E6 (Stencil2D variant): kernel binary cache behaviour of a generated
/// Stencil2D program — cold source build vs the on-disk cache hit a second
/// context gets.
pub fn run_stencil_cache_experiment() -> CacheResult {
    let platform = figure_platform(1);
    platform.compiler().clear_cache().expect("clear cache");
    let queue = platform.queue(0, DriverProfile::opencl());
    let gauss3 = skelcl::codegen::FusedStage::new(
        "stencil",
        "gauss3",
        "float gauss3(__global float* in, int r, int c, uint nr, uint nc) { /* 3x3 blur */ }",
        1,
    );
    let program =
        skelcl::codegen::fused_stencil2d_program(&[gauss3], "float", "float", 1, "neumann");
    let body: vgpu::KernelBody = std::sync::Arc::new(|_wg: &vgpu::WorkGroup| {});

    let (_, first) = queue
        .build_kernel_traced(&program, body.clone())
        .expect("build");
    assert!(!first.from_cache);
    let (_, second) = queue.build_kernel_traced(&program, body).expect("rebuild");
    assert!(second.from_cache);
    platform.compiler().clear_cache().expect("clear cache");
    CacheResult {
        compile_virtual_s: first.virtual_s,
        load_virtual_s: second.virtual_s,
        compile_wall_s: first.wall_s,
        load_wall_s: second.wall_s,
    }
}

/// Quick OSEM parameters: the scale of the `fig2` ledger.
pub fn osem_bench_params() -> OsemParams {
    OsemParams {
        volume: Volume::new(24, 24, 24, 8.0),
        total_events: 60_000,
        n_subsets: 4,
        seed: 7,
    }
}

// ---------------------------------------------------------------------------
// fig_executor: multi-tenant serving throughput, coalescing and fairness
// ---------------------------------------------------------------------------

use skelcl_executor::{Executor, ExecutorConfig, Job, JobHandle, JobOutput, SchedulingMode};

/// The deterministic per-client job stream of the executor figure: client
/// `t` always submits the same `a·x + b` kernel (its own generated
/// program) over its own `vlen`-element vector, varied per job index `j`.
pub fn executor_client_job(t: usize, j: usize, vlen: usize) -> Job {
    let seed = (t as u32).wrapping_mul(131).wrapping_add(j as u32);
    let data = (0..vlen)
        .map(|i| {
            ((((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) % 4000) as f32) / 16.0
                - 125.0
        })
        .collect();
    Job::Axpb {
        a: 0.5 + t as f32 * 0.25,
        b: t as f32 * 0.125,
        data,
    }
}

/// One measured executor run for the throughput leg of `fig_executor`.
pub struct ExecutorLeg {
    /// Modeled seconds from first dispatch to last device idle, builds
    /// excluded (programs are warmed before the measured window).
    pub makespan_s: f64,
    /// Jobs served per modeled second.
    pub jobs_per_s: f64,
    /// End-to-end (queueing + service) latency distribution.
    pub latency: skelcl::HistogramSnapshot,
    /// Every job's output, in submission order — legs are compared
    /// bitwise against each other and against serial execution.
    pub outputs: Vec<JobOutput>,
    /// Launches issued inside the measured window.
    pub batches: u64,
}

/// Run `tenants × jobs_per_tenant` synthetic clients through a fresh
/// executor and measure the virtual makespan: queues fill while the
/// dispatcher is paused, then the whole backlog races through at once.
/// `coalesced` toggles batch fusion (`max_batch` 16 vs 1) — everything
/// else, including the job stream, is identical between the two settings.
pub fn run_executor_throughput_leg(
    devices: usize,
    tenants: usize,
    jobs_per_tenant: usize,
    coalesced: bool,
) -> ExecutorLeg {
    let vlen = 512usize;
    let label = if coalesced {
        "fig_executor/coalesced"
    } else {
        "fig_executor/uncoalesced"
    };
    let platform = Platform::new(
        PlatformConfig::default()
            .devices(devices)
            .cache_tag("fig-executor"),
    );
    let exec = Executor::from_platform(
        platform,
        ExecutorConfig::default()
            .devices(devices)
            .max_batch(if coalesced { 16 } else { 1 })
            .queue_depth(jobs_per_tenant)
            // Generous internal latency target: the figure isn't an SLO
            // study, but running under a target exercises the deadline-miss
            // accounting so the summary line and ledger carry an SLO block.
            .latency_slo(1.0)
            .paused(),
    );
    let ids: Vec<_> = (0..tenants)
        .map(|t| exec.add_tenant(format!("client{t:02}"), 1))
        .collect();

    // Warm every client's generated program so the coalescing comparison
    // prices launches and queueing, not one-time codegen.
    let warm: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(t, &id)| exec.submit(id, executor_client_job(t, 0, vlen)).unwrap())
        .collect();
    exec.drain();
    for h in warm {
        h.wait().unwrap();
    }

    exec.pause();
    let batches = || {
        exec.metrics()
            .counter_value("executor.batches")
            .unwrap_or(0)
    };
    let batches_before = batches();
    let (report, handles) = measure(exec.context(), label, skelcl_efficiency(), || {
        let mut handles: Vec<JobHandle> = Vec::with_capacity(tenants * jobs_per_tenant);
        for j in 0..jobs_per_tenant {
            for (t, &id) in ids.iter().enumerate() {
                handles.push(exec.submit(id, executor_client_job(t, j, vlen)).unwrap());
            }
        }
        exec.drain();
        handles
    });
    let hist = skelcl::Histogram::default();
    let outputs: Vec<JobOutput> = handles
        .into_iter()
        .map(|h| {
            let (out, report) = h.wait().unwrap();
            hist.observe(report.latency_s());
            out
        })
        .collect();
    let mut report = report.with_latency(hist.snapshot());
    if let Some(slo) = exec.slo_summary() {
        report = report.with_slo(slo);
    }
    let makespan_s = record(&report);
    ExecutorLeg {
        makespan_s,
        jobs_per_s: outputs.len() as f64 / makespan_s,
        latency: hist.snapshot(),
        outputs,
        batches: batches() - batches_before,
    }
}

/// One measured run of the fairness leg: a saturating tenant floods one
/// device while three polite tenants each trickle small jobs.
pub struct FairnessLeg {
    /// p99 end-to-end latency over the polite tenants' jobs.
    pub polite_p99_s: f64,
    /// p99 end-to-end latency over the hog's jobs.
    pub hog_p99_s: f64,
    /// Jobs completed by each side (all submissions must finish).
    pub polite_done: usize,
    pub hog_done: usize,
}

/// Fairness leg of `fig_executor` on one shared device: the hog pre-loads
/// `256` large jobs, then three polite tenants submit `16` small jobs
/// each — the worst arrival order for a FIFO dispatcher. Under weighted
/// round-robin the polite tenants' p99 must stay bounded by a handful of
/// hog service times; under FIFO they wait out the whole flood.
pub fn run_executor_fairness_leg(mode: SchedulingMode) -> FairnessLeg {
    let (hog_jobs, polite_tenants, polite_jobs) = (256usize, 3usize, 16usize);
    let platform = Platform::new(
        PlatformConfig::default()
            .devices(1)
            .cache_tag("fig-executor"),
    );
    let exec = Executor::from_platform(
        platform,
        ExecutorConfig::default()
            .devices(1)
            .max_batch(1)
            .queue_depth(hog_jobs)
            .scheduling(mode)
            .paused(),
    );
    let hog = exec.add_tenant("hog", 1);
    let polite: Vec<_> = (0..polite_tenants)
        .map(|i| exec.add_tenant(format!("polite{i}"), 1))
        .collect();
    let rowsum = |seed: usize, len: usize| Job::RowSum {
        data: (0..len)
            .map(|i| {
                ((((i + seed * 31) as u32).wrapping_mul(2654435761)) % 4000) as f32 / 16.0 - 125.0
            })
            .collect(),
    };

    let w = exec.submit(hog, rowsum(0, 2048)).unwrap();
    exec.drain();
    w.wait().unwrap();
    exec.pause();

    let label = match mode {
        SchedulingMode::Fifo => "fig_executor/fairness_fifo",
        SchedulingMode::WeightedRoundRobin => "fig_executor/fairness_wrr",
    };
    let (report, (hog_handles, polite_handles)) =
        measure(exec.context(), label, skelcl_efficiency(), || {
            let hog_handles: Vec<_> = (0..hog_jobs)
                .map(|j| exec.submit(hog, rowsum(j, 2048)).unwrap())
                .collect();
            let polite_handles: Vec<_> = polite
                .iter()
                .enumerate()
                .flat_map(|(i, &id)| {
                    (0..polite_jobs)
                        .map(move |j| (id, i * polite_jobs + j))
                        .collect::<Vec<_>>()
                })
                .map(|(id, seed)| exec.submit(id, rowsum(seed, 256)).unwrap())
                .collect();
            exec.drain();
            (hog_handles, polite_handles)
        });

    let latencies = |handles: Vec<JobHandle>| {
        let hist = skelcl::Histogram::default();
        for h in handles {
            let (_, report) = h.wait().unwrap();
            hist.observe(report.latency_s());
        }
        hist
    };
    let (hog_done, polite_done) = (hog_handles.len(), polite_handles.len());
    let hog = latencies(hog_handles);
    let polite = latencies(polite_handles);
    // The ledger leg carries the polite tenants' latency distribution:
    // their p99 is what the fairness claim is about.
    record(&report.with_latency(polite.snapshot()));
    FairnessLeg {
        polite_p99_s: polite.quantile(0.99),
        hog_p99_s: hog.quantile(0.99),
        polite_done,
        hog_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_loc_shape_matches_the_paper() {
        // Paper: OpenCL total is the largest by far; CUDA and SkelCL are
        // close to each other.
        let rows = fig1_loc();
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().loc;
        let (cuda, opencl, skelcl) = (get("CUDA"), get("OpenCL"), get("SkelCL"));
        assert!(opencl.total() > cuda.total());
        assert!(opencl.total() > skelcl.total());
        assert!(
            opencl.host > 2 * skelcl.host,
            "OpenCL host boilerplate dominates"
        );
    }

    #[test]
    fn fig2_loc_shape_matches_the_paper() {
        // Paper: SkelCL 232 < CUDA 329 < OpenCL 436; SkelCL's host share is
        // by far the smallest (32 vs 130 vs 243).
        let rows = fig2_loc();
        let get = |v: &str| rows.iter().find(|r| r.variant == v).unwrap().loc;
        let (skelcl, cuda, opencl) = (get("SkelCL"), get("CUDA"), get("OpenCL"));
        assert!(skelcl.total() < cuda.total());
        assert!(cuda.total() < opencl.total());
        assert!(skelcl.host < cuda.host);
        assert!(cuda.host < opencl.host);
    }

    #[test]
    fn virtual_s_and_pct_of_peak_share_one_window() {
        // The OpenCL baseline rebuilds its program on every run, so even
        // after warm-up its window holds a build: the leg where the
        // recorded seconds exclude build time and the % of peak must too.
        let p = MandelParams {
            width: 64,
            height: 48,
            max_iter: 256,
            ..MandelParams::default()
        };
        let platform = figure_platform(1);
        let ctx = Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);
        skelcl_mandel::opencl_impl::run(&platform, &p).expect("warm");
        let label = "window_selftest mandelbrot opencl 64x48 x1";
        let (report, ()) = measure(
            &ctx,
            label,
            DriverProfile::opencl().compute_efficiency,
            || {
                skelcl_mandel::opencl_impl::run(&platform, &p).expect("run");
            },
        );
        let build_s = report.stats.build_virtual_ns as f64 * 1e-9;
        assert!(build_s > 0.0, "the baseline must rebuild inside the window");
        assert_eq!(report.window_s, platform.host_now_s() - build_s);
        assert_eq!(report.roofline.window_s, report.window_s);

        let recorded_s = record(&report);
        let leg = ledger::legs_for("window_selftest")
            .pop()
            .expect("recorded leg");
        assert_eq!(recorded_s, report.window_s);
        assert_eq!(leg.virtual_s, report.window_s);
        assert_eq!(leg.pct_of_peak, report.roofline.pct_of_modeled_peak());
    }

    #[test]
    fn cache_experiment_reproduces_the_5x_claim() {
        let r = run_cache_experiment();
        assert!(
            r.virtual_speedup() >= 5.0,
            "cache speedup {} below the paper's >=5x",
            r.virtual_speedup()
        );
        assert!(
            r.compile_wall_s > r.load_wall_s,
            "real wall time should agree"
        );
    }

    #[test]
    fn stencil2d_program_hits_the_kernel_cache_on_second_compile() {
        // run_stencil_cache_experiment asserts the second build is served
        // from the on-disk cache; here we also pin down that the cached
        // load is meaningfully cheaper, as for the 1D skeleton programs.
        let r = run_stencil_cache_experiment();
        assert!(
            r.virtual_speedup() >= 5.0,
            "stencil cache speedup {} below the >=5x bar",
            r.virtual_speedup()
        );
    }

    #[test]
    fn stencil_pipeline_scales_with_devices() {
        // Row-block scaling: past the crossover where per-launch overhead
        // and halo exchange are amortised (~700² on the modeled hardware),
        // 4 virtual devices must beat 1 on the same virtual hardware.
        let t1 = stencil_scaling_virtual_s(768, 768, 1);
        let t4 = stencil_scaling_virtual_s(768, 768, 4);
        assert!(
            t4 < t1,
            "4-device stencil ({t4}s) must beat 1-device ({t1}s)"
        );
    }

    #[test]
    fn batched_iterate_beats_chained_applies() {
        // The fig_iterate relation at a test-friendly size: the batched
        // schedule exchanges strictly less (no wrapped edge rows under the
        // heat stencil's Neumann boundary) and never re-synchronises the
        // host between rounds, so it must model faster on multiple
        // devices. (The full 1024² sweep is the `fig_iterate` figure.)
        let chained = stencil_iterate_virtual_s(256, 256, 4, 50, false);
        let batched = stencil_iterate_virtual_s(256, 256, 4, 50, true);
        assert!(
            batched < chained,
            "batched iterate ({batched}s) must beat chained applies ({chained}s)"
        );
    }

    #[test]
    fn single_device_iterate_is_no_slower_than_chained_applies() {
        // No halos, no exchanges: the two schedules collapse to the same
        // launch sequence.
        let chained = stencil_iterate_virtual_s(128, 128, 1, 20, false);
        let batched = stencil_iterate_virtual_s(128, 128, 1, 20, true);
        assert!(
            batched <= chained,
            "batched iterate ({batched}s) must not lose to chained applies ({chained}s)"
        );
    }

    #[test]
    fn tiled_allpairs_beats_naive_at_bench_scale() {
        // The fig_allpairs relation at a test-friendly size: local-memory
        // tiling cuts global traffic ~tile-fold, so the memory-bound naive
        // kernel must model slower (the full 1024² check is the
        // `fig_allpairs` figure).
        let naive = allpairs_virtual_s(384, 1, skelcl::AllPairsStrategy::Naive);
        let tiled = allpairs_virtual_s(384, 1, skelcl::AllPairsStrategy::Tiled { tile: 16 });
        assert!(
            tiled < naive,
            "tiled allpairs ({tiled}s) must beat naive ({naive}s)"
        );
    }

    #[test]
    fn allpairs_scales_with_devices() {
        let t1 = allpairs_virtual_s(512, 1, skelcl::AllPairsStrategy::Tiled { tile: 16 });
        let t4 = allpairs_virtual_s(512, 4, skelcl::AllPairsStrategy::Tiled { tile: 16 });
        assert!(
            t4 < t1,
            "4-device allpairs ({t4}s) must beat 1-device ({t1}s)"
        );
    }

    #[test]
    fn device_side_argmin_beats_matrix_download() {
        // The fig_reduce2d relation at a test-friendly size: the baseline
        // ships the whole q×p distance matrix over PCIe, the device-side
        // ReduceRowsArg ships two length-q vectors (the full sweep is the
        // `fig_reduce2d` figure).
        let host = nn_virtual_s(512, 512, 16, 1, false);
        let device = nn_virtual_s(512, 512, 16, 1, true);
        assert!(
            device < host,
            "device-side 1-NN ({device}s) must beat download-and-host-argmin ({host}s)"
        );
    }

    #[test]
    fn overlapped_iterate_keeps_copy_engines_busy_under_kernels() {
        // The fig_overlap metric at a test-friendly size: the overlapped
        // schedule must show strictly positive copy-engine time concurrent
        // with compute on the same device.
        let overlap_s = overlap_iterate(256, 256, 4, 20, true, false).total_overlap_s();
        assert!(
            overlap_s > 0.0,
            "no copy-under-compute overlap in the overlapped iterate schedule"
        );
    }

    #[test]
    fn lazy_copying_saves_transfers() {
        let r = run_lazy_copy_experiment(1 << 14);
        assert!(r.lazy_transfers < r.eager_transfers);
        assert!(r.lazy_bytes < r.eager_bytes);
        assert!(r.lazy_virtual_s < r.eager_virtual_s);
    }

    #[test]
    fn ablations_point_the_right_way() {
        let n = 1 << 16;
        assert!(
            reduce_virtual_s(n, ReduceStrategy::GlobalNaive)
                > reduce_virtual_s(n, ReduceStrategy::LocalTree)
        );
        assert!(
            scan_virtual_s(n, ScanStrategy::Conflicting)
                > scan_virtual_s(n, ScanStrategy::BankAware)
        );
    }
}
