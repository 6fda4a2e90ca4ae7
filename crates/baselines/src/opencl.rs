//! A Rust facsimile of the OpenCL 1.1 host API over the virtual platform.
//!
//! Deliberately low-level: contexts, queues, memory objects, programs,
//! kernels and argument slots are all separate objects the programmer
//! creates, wires and releases explicitly, so application code written
//! against this module carries the same boilerplate burden the paper
//! measures for its OpenCL versions.

use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;
use vgpu::{
    Buffer, CommandQueue, CompiledKernel, DriverProfile, KernelBody, NDRange, Order, Platform,
    Program, Result, Scalar, WorkGroup,
};

/// `cl_context`: a platform plus the devices the application selected.
pub struct ClContext {
    platform: Platform,
    devices: Vec<usize>,
}

impl ClContext {
    /// The device IDs this context was created for.
    pub fn devices(&self) -> &[usize] {
        &self.devices
    }
}

/// `clCreateContext` — select `device_ids` on `platform`.
pub fn cl_create_context(platform: &Platform, device_ids: &[usize]) -> Result<ClContext> {
    for &d in device_ids {
        platform.try_device(d)?;
    }
    Ok(ClContext {
        platform: platform.clone(),
        devices: device_ids.to_vec(),
    })
}

/// `cl_platform_id`: an installed OpenCL implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClPlatformId(usize);

/// `clGetPlatformIDs` — the first step of every OpenCL program: enumerate
/// the installed platforms before anything else can be created.
pub fn cl_get_platform_ids(_platform: &Platform) -> Vec<ClPlatformId> {
    vec![ClPlatformId(0)]
}

/// `clGetDeviceIDs` — enumerate all GPU devices of one platform.
pub fn cl_get_device_ids_for(platform: &Platform, _id: ClPlatformId) -> Vec<usize> {
    (0..platform.n_devices()).collect()
}

/// `clGetDeviceIDs` — shorthand used when there is exactly one platform.
pub fn cl_get_device_ids(platform: &Platform) -> Vec<usize> {
    (0..platform.n_devices()).collect()
}

/// `clGetProgramBuildInfo(CL_PROGRAM_BUILD_LOG)` — the log every careful
/// OpenCL host program fetches after `clBuildProgram`.
pub fn cl_get_program_build_log(program: &ClProgram) -> String {
    if program.built.lock().is_some() {
        format!("program '{}': build successful", program.program.name)
    } else {
        format!("program '{}': not built", program.program.name)
    }
}

/// `cl_command_queue`.
pub struct ClCommandQueue {
    queue: CommandQueue,
}

/// `clCreateCommandQueue` for one device of the context.
pub fn cl_create_command_queue(ctx: &ClContext, device_id: usize) -> Result<ClCommandQueue> {
    ctx.platform.try_device(device_id)?;
    Ok(ClCommandQueue {
        queue: ctx.platform.queue(device_id, DriverProfile::opencl()),
    })
}

/// `cl_mem`: a typed device memory object.
pub struct ClMem<T: Scalar> {
    buffer: Buffer<T>,
}

impl<T: Scalar> ClMem<T> {
    /// The underlying buffer (for kernel bodies).
    pub fn buffer(&self) -> &Buffer<T> {
        &self.buffer
    }

    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }
}

/// `clCreateBuffer` on the device that `queue` drives.
pub fn cl_create_buffer<T: Scalar>(
    ctx: &ClContext,
    device_id: usize,
    len: usize,
) -> Result<ClMem<T>> {
    let dev = ctx.platform.try_device(device_id)?;
    Ok(ClMem {
        buffer: dev.alloc::<T>(len)?,
    })
}

/// `clEnqueueWriteBuffer` (blocking semantics handled by the queue model).
pub fn cl_enqueue_write_buffer<T: Scalar>(
    queue: &ClCommandQueue,
    mem: &ClMem<T>,
    src: &[T],
) -> Result<()> {
    queue
        .queue
        .enqueue_write(&mem.buffer, None, src, 1, Order::Device)?;
    Ok(())
}

/// `clEnqueueReadBuffer` (blocking).
pub fn cl_enqueue_read_buffer<T: Scalar>(
    queue: &ClCommandQueue,
    mem: &ClMem<T>,
    dst: &mut [T],
) -> Result<()> {
    queue
        .queue
        .enqueue_read(&mem.buffer, None, dst, 1, true, Order::Device)?;
    Ok(())
}

/// `clEnqueueWriteBuffer` with a destination offset (in elements).
pub fn cl_enqueue_write_buffer_range<T: Scalar>(
    queue: &ClCommandQueue,
    mem: &ClMem<T>,
    offset: usize,
    src: &[T],
) -> Result<()> {
    queue
        .queue
        .enqueue_write(&mem.buffer, Some(offset), src, 1, Order::Device)?;
    Ok(())
}

/// `clEnqueueReadBuffer` with a source offset (in elements).
pub fn cl_enqueue_read_buffer_range<T: Scalar>(
    queue: &ClCommandQueue,
    mem: &ClMem<T>,
    offset: usize,
    dst: &mut [T],
) -> Result<()> {
    queue
        .queue
        .enqueue_read(&mem.buffer, Some(offset), dst, 1, true, Order::Device)?;
    Ok(())
}

/// `clFinish`.
pub fn cl_finish(queue: &ClCommandQueue) {
    queue.queue.finish();
}

/// `cl_program`: source handed to the runtime compiler.
pub struct ClProgram {
    program: Program,
    built: Mutex<Option<CompiledKernel>>,
}

/// `clCreateProgramWithSource`.
pub fn cl_create_program_with_source(_ctx: &ClContext, name: &str, source: &str) -> ClProgram {
    ClProgram {
        program: Program::from_source(name, source),
        built: Mutex::new(None),
    }
}

/// `clBuildProgram` — runtime compilation (cost model: hundreds of ms, or a
/// cache load if this source was built before on this machine).
pub fn cl_build_program(queue: &ClCommandQueue, program: &ClProgram) -> Result<()> {
    let placeholder: KernelBody =
        Arc::new(|_wg: &WorkGroup| unreachable!("kernel body is bound by clCreateKernel"));
    let compiled = queue.queue.build_kernel(&program.program, placeholder)?;
    *program.built.lock() = Some(compiled);
    Ok(())
}

/// The values `clSetKernelArg` stored, as seen from inside a kernel.
pub struct ClArgs {
    slots: Vec<ClArgValue>,
}

#[derive(Clone)]
enum ClArgValue {
    Scalar(Arc<dyn Any + Send + Sync>),
    Mem(Arc<dyn Any + Send + Sync>),
}

impl ClArgs {
    /// The buffer argument at `idx` (panics on type/index mismatch, like a
    /// mismatched `clSetKernelArg` at runtime).
    pub fn buf<T: Scalar>(&self, idx: usize) -> &Buffer<T> {
        match &self.slots[idx] {
            ClArgValue::Mem(m) => m
                .downcast_ref::<Buffer<T>>()
                .expect("kernel argument buffer type mismatch"),
            ClArgValue::Scalar(_) => panic!("kernel argument {idx} is a scalar, expected buffer"),
        }
    }

    /// The scalar argument at `idx`.
    pub fn scalar<T: Scalar>(&self, idx: usize) -> T {
        match &self.slots[idx] {
            ClArgValue::Scalar(s) => *s
                .downcast_ref::<T>()
                .expect("kernel argument scalar type mismatch"),
            ClArgValue::Mem(_) => panic!("kernel argument {idx} is a buffer, expected scalar"),
        }
    }
}

/// The executable body of a `cl_kernel`: runs per work-group against the
/// argument slots bound at launch time.
pub type ClKernelBody = Arc<dyn Fn(&WorkGroup, &ClArgs) + Send + Sync>;

/// `cl_kernel`: built program + mutable argument slots.
pub struct ClKernel {
    compiled: CompiledKernel,
    body: ClKernelBody,
    args: Mutex<Vec<Option<ClArgValue>>>,
}

/// `clCreateKernel` — binds the executable body (the Rust twin of the
/// program's kernel function) to the built program.
pub fn cl_create_kernel(program: &ClProgram, body: ClKernelBody) -> Result<ClKernel> {
    let compiled = program
        .built
        .lock()
        .clone()
        .ok_or(vgpu::Error::BuildFailure(
            "clCreateKernel before clBuildProgram".into(),
        ))?;
    Ok(ClKernel {
        compiled,
        body,
        args: Mutex::new(Vec::new()),
    })
}

/// `clSetKernelArg` with a buffer.
pub fn cl_set_kernel_arg_mem<T: Scalar>(kernel: &ClKernel, idx: usize, mem: &ClMem<T>) {
    set_arg(kernel, idx, ClArgValue::Mem(Arc::new(mem.buffer.clone())));
}

/// `clSetKernelArg` with a scalar.
pub fn cl_set_kernel_arg_scalar<T: Scalar>(kernel: &ClKernel, idx: usize, v: T) {
    set_arg(kernel, idx, ClArgValue::Scalar(Arc::new(v)));
}

fn set_arg(kernel: &ClKernel, idx: usize, v: ClArgValue) {
    let mut args = kernel.args.lock();
    if args.len() <= idx {
        args.resize_with(idx + 1, || None);
    }
    args[idx] = Some(v);
}

/// `clEnqueueNDRangeKernel` — 1-D form.
pub fn cl_enqueue_nd_range_kernel(
    queue: &ClCommandQueue,
    kernel: &ClKernel,
    global: usize,
    local: usize,
) -> Result<()> {
    enqueue(queue, kernel, NDRange::linear(global, local))
}

/// `clEnqueueNDRangeKernel` — 2-D form (the Mandelbrot baselines use
/// 16×16 work-groups).
pub fn cl_enqueue_nd_range_kernel_2d(
    queue: &ClCommandQueue,
    kernel: &ClKernel,
    global: (usize, usize),
    local: (usize, usize),
) -> Result<()> {
    enqueue(queue, kernel, NDRange::two_d(global, local))
}

fn enqueue(queue: &ClCommandQueue, kernel: &ClKernel, nd: NDRange) -> Result<()> {
    let slots: Vec<ClArgValue> = kernel
        .args
        .lock()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            a.clone()
                .unwrap_or_else(|| panic!("kernel argument {i} was never set"))
        })
        .collect();
    let args = Arc::new(ClArgs { slots });
    let body = Arc::clone(&kernel.body);
    let bound: KernelBody = Arc::new(move |wg: &WorkGroup| body(wg, &args));
    queue
        .queue
        .launch(&kernel.compiled.with_body(bound), nd, Order::Device)?;
    Ok(())
}

/// `clReleaseMemObject` — explicit teardown, as the C API requires.
pub fn cl_release_mem_object<T: Scalar>(mem: ClMem<T>) {
    drop(mem);
}

/// `clReleaseKernel`.
pub fn cl_release_kernel(kernel: ClKernel) {
    drop(kernel);
}

/// `clReleaseProgram`.
pub fn cl_release_program(program: ClProgram) {
    drop(program);
}

/// `clReleaseCommandQueue`.
pub fn cl_release_command_queue(queue: ClCommandQueue) {
    drop(queue);
}

/// `clReleaseContext`.
pub fn cl_release_context(ctx: ClContext) {
    drop(ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::{DeviceSpec, PlatformConfig};

    fn platform(n: usize) -> Platform {
        Platform::new(
            PlatformConfig::default()
                .devices(n)
                .spec(DeviceSpec::tiny())
                .cache_tag("baseline-opencl-tests"),
        )
    }

    #[test]
    fn full_opencl_workflow_saxpy() {
        // The boilerplate tour: context, queue, buffers, program, kernel,
        // args, launch, read back.
        let platform = platform(1);
        let devices = cl_get_device_ids(&platform);
        let ctx = cl_create_context(&platform, &devices).unwrap();
        let queue = cl_create_command_queue(&ctx, 0).unwrap();

        let n = 1000usize;
        let x = cl_create_buffer::<f32>(&ctx, 0, n).unwrap();
        let y = cl_create_buffer::<f32>(&ctx, 0, n).unwrap();
        let host_x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let host_y: Vec<f32> = vec![1.0; n];
        cl_enqueue_write_buffer(&queue, &x, &host_x).unwrap();
        cl_enqueue_write_buffer(&queue, &y, &host_y).unwrap();

        let program = cl_create_program_with_source(
            &ctx,
            "saxpy",
            "__kernel void saxpy(__global float* x, __global float* y, float a, uint n) {\n\
               uint i = get_global_id(0);\n\
               if (i < n) y[i] = a * x[i] + y[i];\n\
             }",
        );
        cl_build_program(&queue, &program).unwrap();
        let kernel = cl_create_kernel(
            &program,
            Arc::new(|wg: &WorkGroup, args: &ClArgs| {
                let x = args.buf::<f32>(0);
                let y = args.buf::<f32>(1);
                let a = args.scalar::<f32>(2);
                let n = args.scalar::<u32>(3) as usize;
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    if i < n {
                        let v = a * it.read(x, i) + it.read(y, i);
                        it.write(y, i, v);
                        it.work(2);
                    }
                });
            }),
        )
        .unwrap();

        cl_set_kernel_arg_mem(&kernel, 0, &x);
        cl_set_kernel_arg_mem(&kernel, 1, &y);
        cl_set_kernel_arg_scalar(&kernel, 2, 3.0f32);
        cl_set_kernel_arg_scalar(&kernel, 3, n as u32);
        cl_enqueue_nd_range_kernel(&queue, &kernel, n.next_multiple_of(64), 64).unwrap();
        cl_finish(&queue);

        let mut out = vec![0.0f32; n];
        cl_enqueue_read_buffer(&queue, &y, &mut out).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f32 + 1.0);
        }
    }

    #[test]
    fn kernel_before_build_fails() {
        let platform = platform(1);
        let ctx = cl_create_context(&platform, &[0]).unwrap();
        let program = cl_create_program_with_source(&ctx, "k", "__kernel void k() {}");
        let r = cl_create_kernel(&program, Arc::new(|_: &WorkGroup, _: &ClArgs| {}));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn launching_with_missing_args_panics() {
        let platform = platform(1);
        let ctx = cl_create_context(&platform, &[0]).unwrap();
        let queue = cl_create_command_queue(&ctx, 0).unwrap();
        let program = cl_create_program_with_source(&ctx, "k2", "__kernel void k2(uint n) {}");
        cl_build_program(&queue, &program).unwrap();
        let kernel = cl_create_kernel(&program, Arc::new(|_: &WorkGroup, _: &ClArgs| {})).unwrap();
        let mut args = kernel.args.lock();
        args.resize_with(1, || None);
        drop(args);
        let _ = cl_enqueue_nd_range_kernel(&queue, &kernel, 64, 64);
    }

    #[test]
    fn rebuild_hits_binary_cache() {
        // A cache directory of its own: clearing the shared one would race
        // the builds of the tests running alongside.
        let platform = Platform::new(
            PlatformConfig::default()
                .devices(1)
                .spec(DeviceSpec::tiny())
                .cache_tag("baseline-opencl-cache-test"),
        );
        platform.compiler().clear_cache().unwrap();
        let ctx = cl_create_context(&platform, &[0]).unwrap();
        let queue = cl_create_command_queue(&ctx, 0).unwrap();
        let program =
            cl_create_program_with_source(&ctx, "kc", "__kernel void kc() { /* cache me */ }");
        cl_build_program(&queue, &program).unwrap();
        cl_build_program(&queue, &program).unwrap();
        let snap = platform.stats_snapshot();
        assert_eq!(snap.source_builds, 1);
        assert_eq!(snap.cache_loads, 1);
        platform.compiler().clear_cache().unwrap();
    }
}
