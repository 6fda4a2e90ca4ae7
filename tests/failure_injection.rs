//! Failure injection: the library must surface platform failures as
//! errors (never corrupt state or panic on recoverable conditions), and
//! device-memory exhaustion must roll back cleanly.

use skelcl::{
    Arguments, Context, ContextConfig, Distribution, KernelEnv, Map, MapArgs, MapVoid, Matrix,
    Pipeline, PipelineExpr, Reduce, Result as SkelResult, UserFn, Vector, Zip, ZipArgs,
};
use vgpu::{DeviceSpec, Order, Platform, PlatformConfig};

/// A device so small that realistic vectors exhaust its memory.
fn cramped_spec() -> DeviceSpec {
    DeviceSpec {
        mem_bytes: 256 << 10, // 256 KiB
        ..DeviceSpec::tiny()
    }
}

fn cramped_ctx() -> Context {
    Context::new(
        ContextConfig::default()
            .spec(cramped_spec())
            .work_group(64)
            .cache_tag("failure-injection"),
    )
}

#[test]
fn upload_larger_than_device_memory_errors_cleanly() {
    // 128K floats = 512 KiB > 256 KiB device memory. An upload and a
    // device fill both allocate the parts first, and both fail there.
    let n = 128 << 10;
    let ctx = cramped_ctx();
    for (what, v) in [
        ("uploaded", Vector::from_vec(&ctx, vec![0.0f32; n])),
        ("filled", Vector::<f32>::zeroed(&ctx, n)),
    ] {
        let baseline = ctx.device(0).used_bytes();
        let err = v.ensure_on_devices().unwrap_err();
        assert!(
            matches!(
                err,
                skelcl::Error::Platform(vgpu::Error::OutOfDeviceMemory { .. })
            ),
            "{what}: unexpected error: {err}"
        );
        assert!(err.to_string().contains("out of memory"), "{what}: {err}");
        // The vector is still usable from the host, and nothing leaked.
        assert_eq!(v.to_vec().unwrap(), vec![0.0f32; n], "{what}");
        assert_eq!(ctx.device(0).used_bytes(), baseline, "{what}: leaked");
    }
}

/// A container an OOM case reads back: uploaded before the call, it must
/// read back unchanged after the call fails.
trait Input {
    fn upload(&self);
    fn read(&self) -> Vec<f32>;
}

impl Input for Vector<f32> {
    fn upload(&self) {
        self.ensure_on_devices().unwrap();
    }
    fn read(&self) -> Vec<f32> {
        self.to_vec().unwrap()
    }
}

impl Input for Matrix<f32> {
    fn upload(&self) {
        self.ensure_on_devices().unwrap();
    }
    fn read(&self) -> Vec<f32> {
        self.to_vec().unwrap()
    }
}

/// Upload `inputs`, run `call`, and require a typed out-of-memory error
/// that leaves every input readable and device memory where it was.
fn expect_oom(
    what: &str,
    ctx: &Context,
    inputs: &[&dyn Input],
    call: impl FnOnce() -> SkelResult<()>,
) {
    let contents: Vec<Vec<f32>> = inputs.iter().map(|i| i.read()).collect();
    inputs.iter().for_each(|i| i.upload());
    let before = ctx.device(0).used_bytes();
    let err = call().expect_err(what);
    assert!(
        matches!(
            err,
            skelcl::Error::Platform(vgpu::Error::OutOfDeviceMemory { .. })
        ),
        "{what}: unexpected error: {err}"
    );
    for (input, want) in inputs.iter().zip(&contents) {
        assert_eq!(&input.read(), want, "{what}: input changed");
    }
    assert_eq!(ctx.device(0).used_bytes(), before, "{what}: leaked");
}

#[test]
fn skeleton_oom_propagates_as_error_not_panic() {
    // Every element-wise entry point allocates its output through the one
    // launcher. Inputs that fit the 256 KiB device with an output that does
    // not: one 160 KiB input (two would need 320 KiB), or two 96 KiB
    // inputs (three would need 288 KiB).
    const ONE: usize = 40 << 10;
    const TWO: usize = 24 << 10;
    let ctx = cramped_ctx();
    let vector = |n: usize| Vector::from_vec(&ctx, (0..n).map(|i| (i % 97) as f32).collect());
    let matrix = |n: usize| Matrix::from_fn(&ctx, n / 256, 256, |r, c| ((r + c) % 89) as f32);
    let triple = || {
        skelcl::skel_fn!(
            fn triple(x: f32) -> f32 {
                x * 3.0
            }
        )
    };
    let add = || {
        skelcl::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        )
    };
    let mut scale = Arguments::new();
    scale.push(2.0f32);
    let scaled = UserFn::new(
        "scaled",
        "float scaled(float x, float s) { return x * s; }",
        |x: f32, env: &KernelEnv<'_>| x * env.scalar::<f32>(0),
    );
    let fma = UserFn::new(
        "fma_scaled",
        "float fma_scaled(float x, float y, float s) { return x + y * s; }",
        |x: f32, y: f32, env: &KernelEnv<'_>| x + y * env.scalar::<f32>(0),
    );

    let v = vector(ONE);
    expect_oom("Map::apply", &ctx, &[&v], || {
        Map::new(triple()).apply(&v).map(drop)
    });
    expect_oom("MapArgs::apply", &ctx, &[&v], || {
        MapArgs::new(scaled.clone(), 1).apply(&v, &scale).map(drop)
    });
    drop(v);
    let (a, b) = (vector(TWO), vector(TWO));
    expect_oom("Zip::apply", &ctx, &[&a, &b], || {
        Zip::new(add()).apply(&a, &b).map(drop)
    });
    expect_oom("ZipArgs::apply", &ctx, &[&a, &b], || {
        ZipArgs::new(fma, 1).apply(&a, &b, &scale).map(drop)
    });
    drop((a, b));
    let m = matrix(ONE);
    expect_oom("Map::apply_matrix", &ctx, &[&m], || {
        Map::new(triple()).apply_matrix(&m).map(drop)
    });
    expect_oom("one-stage Pipeline", &ctx, &[&m], || {
        Pipeline::start::<f32>().map(triple()).run(&m).map(drop)
    });
    drop(m);
    let (a, b) = (matrix(TWO), matrix(TWO));
    expect_oom("Zip::apply_matrix", &ctx, &[&a, &b], || {
        Zip::new(add()).apply_matrix(&a, &b).map(drop)
    });
    drop((a, b));

    // MapVoid allocates no output, so the same input runs.
    let v = vector(ONE);
    let acc = Vector::from_vec(&ctx, vec![0.0f32; 4]);
    v.ensure_on_devices().unwrap();
    acc.ensure_on_devices().unwrap();
    let before = ctx.device(0).used_bytes();
    let mut hits = Arguments::new();
    hits.push(&acc);
    let count = UserFn::new(
        "count_hits",
        "void count_hits(float x, __global float* acc) { atomic_add(&acc[0], 1.0f); }",
        |_x: f32, env: &KernelEnv<'_>| env.vec::<f32>(0).atomic_add(0, 1.0),
    );
    MapVoid::new(count, 1).apply(&v, &hits).unwrap();
    assert_eq!(ctx.device(0).used_bytes(), before, "MapVoid allocated");
    acc.mark_devices_modified();
    assert_eq!(acc.to_vec().unwrap(), vec![ONE as f32, 0.0, 0.0, 0.0]);
}

#[test]
fn failed_allocations_do_not_leak_device_memory() {
    let ctx = cramped_ctx();
    let dev = ctx.device(0);
    let baseline = dev.used_bytes();
    for _ in 0..5 {
        let v = Vector::from_vec(&ctx, vec![0u8; 512 << 10]);
        assert!(v.ensure_on_devices().is_err());
        drop(v);
    }
    assert_eq!(
        dev.used_bytes(),
        baseline,
        "failed uploads must not leak device memory"
    );
}

#[test]
fn memory_is_reclaimed_when_vectors_drop() {
    let ctx = cramped_ctx();
    let dev = ctx.device(0);
    let before = dev.used_bytes();
    {
        let v = Vector::from_vec(&ctx, vec![1.0f32; 8 << 10]);
        v.ensure_on_devices().unwrap();
        assert!(dev.used_bytes() > before);
    }
    assert_eq!(dev.used_bytes(), before, "drop must free device buffers");
    // And the freed memory is reusable.
    let v = Vector::from_vec(&ctx, vec![1.0f32; 8 << 10]);
    v.ensure_on_devices().unwrap();
}

#[test]
fn reduce_after_recovered_oom_still_works() {
    let ctx = cramped_ctx();
    let too_big = Vector::from_vec(&ctx, vec![1.0f32; 512 << 10]);
    assert!(too_big.ensure_on_devices().is_err());
    drop(too_big);

    let ok = Vector::from_vec(&ctx, (0..1000).map(|i| i as f32).collect());
    let sum = Reduce::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0,
    );
    assert_eq!(sum.apply(&ok).unwrap().get_value(), 499500.0);
}

#[test]
fn zip_length_mismatch_leaves_vectors_intact() {
    let ctx = cramped_ctx();
    let a = Vector::from_vec(&ctx, vec![1.0f32; 10]);
    let b = Vector::from_vec(&ctx, vec![2.0f32; 11]);
    let z = Zip::new(skelcl::skel_fn!(
        fn add(x: f32, y: f32) -> f32 {
            x + y
        }
    ));
    assert!(z.apply(&a, &b).is_err());
    // Both vectors still fully usable.
    assert_eq!(a.to_vec().unwrap(), vec![1.0f32; 10]);
    assert_eq!(b.to_vec().unwrap(), vec![2.0f32; 11]);
}

#[test]
fn invalid_distribution_target_is_rejected_up_front() {
    let ctx = cramped_ctx();
    let v = Vector::from_vec(&ctx, vec![1u32; 16]);
    assert!(v.set_distribution(Distribution::Single(7)).is_err());
    assert_eq!(v.distribution(), Distribution::Single(0), "state unchanged");
}

#[test]
fn empty_program_source_is_a_build_error() {
    let platform = Platform::new(
        PlatformConfig::default()
            .spec(DeviceSpec::tiny())
            .cache_tag("failure-empty-source"),
    );
    let queue = platform.queue(0, vgpu::DriverProfile::opencl());
    let program = vgpu::Program::from_source("empty", "  \n  ");
    let body: vgpu::KernelBody = std::sync::Arc::new(|_wg: &vgpu::WorkGroup| {});
    assert!(queue.build_kernel(&program, body).is_err());
}

#[test]
fn launch_validation_rejects_oversized_work_groups() {
    let platform = Platform::new(
        PlatformConfig::default()
            .spec(DeviceSpec::tiny())
            .cache_tag("failure-launch"),
    );
    let queue = platform.queue(0, vgpu::DriverProfile::opencl());
    let program = vgpu::Program::from_source("noop", "__kernel void noop() {}");
    let body: vgpu::KernelBody = std::sync::Arc::new(|_wg: &vgpu::WorkGroup| {});
    let kernel = queue.build_kernel(&program, body).unwrap();
    let too_big = vgpu::NDRange::linear(1024, platform.device(0).spec().max_work_group + 1);
    assert!(queue.launch(&kernel, too_big, Order::Device).is_err());
    // Valid launch still succeeds afterwards.
    assert!(queue
        .launch(&kernel, vgpu::NDRange::linear(128, 64), Order::Device)
        .is_ok());
}

#[test]
fn cross_device_buffer_use_is_rejected() {
    let platform = Platform::new(
        PlatformConfig::default()
            .devices(2)
            .spec(DeviceSpec::tiny())
            .cache_tag("failure-cross-device"),
    );
    let q0 = platform.queue(0, vgpu::DriverProfile::opencl());
    let buf1 = platform.device(1).alloc::<f32>(16).unwrap();
    let mut out = vec![0.0f32; 16];
    assert!(q0
        .enqueue_read(&buf1, None, &mut out, 1, true, Order::Device)
        .is_err());
    assert!(q0
        .enqueue_write(&buf1, None, &out, 1, Order::Device)
        .is_err());
    assert!(q0.enqueue_fill(&buf1, 0.0).is_err());
}

#[test]
fn a_kernel_touching_another_devices_buffer_is_rejected() {
    use std::sync::Arc;
    use vgpu::{DeviceId, Error, KernelBody, NDRange, Program};
    let platform = Platform::new(
        PlatformConfig::default()
            .devices(2)
            .spec(DeviceSpec::tiny())
            .cache_tag("failure-cross-device-kernel"),
    );
    let q0 = platform.queue(0, vgpu::DriverProfile::opencl());
    let own = platform.device(0).alloc::<f32>(16).unwrap();
    let f1 = platform.device(1).alloc::<f32>(16).unwrap();
    let u1 = platform.device(1).alloc::<u32>(16).unwrap();
    let program = Program::from_source("cross", "__kernel void cross() {}");
    // Each body touches one device-1 buffer once, after a legal access.
    type Access = fn(&vgpu::Item<'_>, &vgpu::Buffer<f32>, &vgpu::Buffer<u32>);
    let accesses: [(&str, Access); 4] = [
        ("read", |it, f, _| {
            it.read(f, 0);
        }),
        ("write", |it, f, _| it.write(f, 0, 7.0)),
        ("atomic_add_f32", |it, f, _| it.atomic_add_f32(f, 0, 7.0)),
        ("atomic_add_u32", |it, _, u| {
            it.atomic_add_u32(u, 0, 7);
        }),
    ];
    for (what, access) in accesses {
        let body: KernelBody = {
            let (own, f1, u1) = (own.clone(), f1.clone(), u1.clone());
            Arc::new(move |wg| {
                wg.for_each_item(|it| {
                    it.write(&own, it.global_id(0), 1.0);
                    access(it, &f1, &u1);
                })
            })
        };
        let kernel = q0.build_kernel(&program, body).unwrap();
        let before = platform.stats_snapshot();
        let err = q0
            .launch(&kernel, NDRange::linear(16, 16), Order::Device)
            .expect_err(what);
        assert!(
            matches!(
                err,
                Error::WrongDevice {
                    expected: DeviceId(1),
                    actual: DeviceId(0)
                }
            ),
            "{what}: {err:?}"
        );
        let delta = platform.stats_snapshot() - before;
        assert_eq!(delta.kernel_launches, 0, "{what}: nothing is scheduled");
        assert_eq!(f1.to_vec(), vec![0.0; 16], "{what}");
        assert_eq!(u1.to_vec(), vec![0; 16], "{what}");
    }
}
