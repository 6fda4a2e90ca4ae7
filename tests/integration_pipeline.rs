//! Cross-crate integration tests: full pipelines exercising the skeleton
//! library, the virtual platform, the baselines and both applications
//! together.

use skelcl::{Context, ContextConfig, Distribution, Map, Reduce, Scan, Vector, Zip};
use skelcl_mandel::MandelParams;
use skelcl_osem::{metrics, OsemParams};
use vgpu::{DeviceSpec, Platform, PlatformConfig};

fn ctx(n: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n)
            .spec(DeviceSpec::tiny())
            .cache_tag("integration-pipeline"),
    )
}

#[test]
fn dot_product_pipeline_matches_host_math() {
    let ctx = ctx(2);
    let n = 10_000;
    let a_data: Vec<f32> = (0..n).map(|i| ((i * 31) % 11) as f32).collect();
    let b_data: Vec<f32> = (0..n).map(|i| ((i * 17) % 7) as f32).collect();

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
    let a = Vector::from_slice(&ctx, &a_data);
    let b = Vector::from_slice(&ctx, &b_data);
    let c = sum.apply(&mult.apply(&a, &b).unwrap()).unwrap();

    let want: f32 = a_data.iter().zip(&b_data).map(|(x, y)| x * y).sum();
    assert!((c.get_value() - want).abs() <= want.abs() * 1e-5);
}

#[test]
fn map_scan_reduce_chain_stays_on_device() {
    let ctx = ctx(1);
    let v = Vector::from_vec(&ctx, vec![1.0f32; 4096]);
    let inc = Map::new(skelcl::skel_fn!(
        fn inc(x: f32) -> f32 {
            x + 1.0
        }
    ));
    let scan = Scan::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    );
    let total = Reduce::new(
        skelcl::skel_fn!(
            fn sum2(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    );

    let doubled = inc.apply(&v).unwrap(); // all 2.0
    let before = ctx.platform().stats_snapshot();
    let prefix = scan.apply(&doubled).unwrap(); // [0, 2, 4, ...]
    let s = total.apply(&prefix).unwrap();
    let delta = ctx.platform().stats_snapshot() - before;

    // scan of [2.0; n] exclusive = 2*i; sum = 2 * n*(n-1)/2
    let n = 4096f64;
    assert_eq!(s.get_value() as f64, n * (n - 1.0));
    assert_eq!(
        delta.h2d_transfers, 0,
        "chained skeletons must not re-upload"
    );
}

#[test]
fn skeletons_work_across_all_distributions() {
    for dist in [
        Distribution::Single(0),
        Distribution::Copy,
        Distribution::Block,
    ] {
        let ctx = ctx(3);
        let data: Vec<f32> = (0..1000).map(|i| (i % 23) as f32).collect();
        let v = Vector::from_slice(&ctx, &data);
        v.set_distribution(dist).unwrap();

        let neg = Map::new(skelcl::skel_fn!(
            fn neg(x: f32) -> f32 {
                -x
            }
        ));
        let out = neg.apply(&v).unwrap();
        let want: Vec<f32> = data.iter().map(|x| -x).collect();
        assert_eq!(out.to_vec().unwrap(), want, "distribution {dist:?}");

        let sum = Reduce::new(
            skelcl::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        );
        let expected: f32 = data.iter().sum();
        assert_eq!(sum.apply(&v).unwrap().get_value(), expected);
    }
}

#[test]
fn mandelbrot_all_variants_agree_on_shared_platform() {
    let platform = Platform::new(
        PlatformConfig::default()
            .spec(DeviceSpec::tiny())
            .cache_tag("integration-mandel"),
    );
    let ctx = Context::from_platform(platform.clone(), 64);
    let p = MandelParams::test_scale();
    let reference = skelcl_mandel::reference(&p);
    assert_eq!(
        skelcl_mandel::skelcl_impl::run(&ctx, &p).unwrap(),
        reference
    );
    assert_eq!(
        skelcl_mandel::opencl_impl::run(&platform, &p).unwrap(),
        reference
    );
    assert_eq!(
        skelcl_mandel::cuda_impl::run(&platform, &p).unwrap(),
        reference
    );
}

#[test]
fn osem_all_variants_converge_to_the_same_image() {
    let params = OsemParams::test_scale();
    let subsets = params.generate_subsets();
    let seq = skelcl_osem::seq::reconstruct(&params.volume, &subsets);

    let platform = Platform::new(
        PlatformConfig::default()
            .devices(2)
            .spec(DeviceSpec::tiny())
            .cache_tag("integration-osem"),
    );
    let ctx = Context::from_platform(platform.clone(), 64);

    let skelcl_img = skelcl_osem::skelcl_impl::reconstruct(&ctx, &params.volume, &subsets).unwrap();
    let opencl_img =
        skelcl_osem::opencl_impl::reconstruct(&platform, &params.volume, &subsets).unwrap();
    let cuda_img =
        skelcl_osem::cuda_impl::reconstruct(&platform, &params.volume, &subsets).unwrap();

    for (name, img) in [
        ("skelcl", &skelcl_img),
        ("opencl", &opencl_img),
        ("cuda", &cuda_img),
    ] {
        let d = metrics::relative_l2(img, &seq);
        assert!(d < 1e-3, "{name} diverged from sequential: {d}");
    }
}

#[test]
fn virtual_time_orderings_match_the_paper() {
    // The headline comparative claims, checked end to end at test scale:
    // CUDA < OpenCL on the compute-bound Mandelbrot; SkelCL within a
    // modest factor of OpenCL.
    let platform = Platform::new(PlatformConfig::default().cache_tag("integration-ordering"));
    let ctx = Context::from_platform(platform.clone(), skelcl::DEFAULT_WORK_GROUP);
    let p = MandelParams {
        width: 256,
        height: 192,
        max_iter: 512,
        ..MandelParams::default()
    };
    // Warm builds.
    skelcl_mandel::skelcl_impl::run(&ctx, &p).unwrap();
    skelcl_mandel::opencl_impl::run(&platform, &p).unwrap();
    skelcl_mandel::cuda_impl::run(&platform, &p).unwrap();

    let time = |f: &dyn Fn()| {
        platform.reset_clocks();
        let before = platform.stats_snapshot();
        f();
        platform.sync_all();
        let build = (platform.stats_snapshot() - before).build_virtual_ns as f64 * 1e-9;
        platform.host_now_s() - build
    };
    let t_skel = time(&|| {
        skelcl_mandel::skelcl_impl::run(&ctx, &p).unwrap();
    });
    let t_ocl = time(&|| {
        skelcl_mandel::opencl_impl::run(&platform, &p).unwrap();
    });
    let t_cuda = time(&|| {
        skelcl_mandel::cuda_impl::run(&platform, &p).unwrap();
    });

    assert!(t_cuda < t_ocl, "cuda={t_cuda} opencl={t_ocl}");
    assert!(t_ocl < t_skel, "opencl={t_ocl} skelcl={t_skel}");
    // At this deliberately tiny test size SkelCL's fixed costs (position
    // vector upload, skeleton dispatch) are a large fraction. At the
    // figure scale (1024x768, max_iter 4096) `figures fig1` prints the
    // SkelCL/OpenCL ratio: about +10 %, against the paper's < 5 %.
    assert!(
        t_skel < t_ocl * 1.8,
        "skelcl overhead too large even for test scale: {t_skel} vs {t_ocl}"
    );
}

#[test]
fn multi_gpu_context_device_counts() {
    for n in [1usize, 2, 4] {
        let c = ctx(n);
        assert_eq!(c.n_devices(), n);
        let v = Vector::from_vec(&c, vec![1u32; 100]);
        v.set_distribution(Distribution::Block).unwrap();
        v.ensure_on_devices().unwrap();
        assert_eq!(v.to_vec().unwrap(), vec![1u32; 100]);
    }
}
