//! # vgpu — a virtual OpenCL-like multi-GPU platform
//!
//! This crate is the **substrate** of the SkelCL reproduction: a software
//! model of the OpenCL platform the paper runs on (a host with one or more
//! GPU-like devices), faithful enough that everything the paper evaluates —
//! lazy host↔device transfers, multi-device data distribution, runtime kernel
//! compilation with an on-disk binary cache, work-group execution with
//! barriers and local memory — runs **for real**, while wall-clock-independent
//! *virtual time* is accounted by an explicit cost model.
//!
//! ## Execution model
//!
//! A [`Device`] consists of `compute_units` CUs, each with `pes_per_cu`
//! processing elements executing 32-lane warps in lock-step. Kernels are
//! launched over an [`NDRange`] of work-items organised into work-groups.
//! Each work-group executes as one sequential task on a host thread (the
//! classic "loop fission" technique used by CPU OpenCL implementations):
//! the kernel body iterates over the group's items with
//! [`WorkGroup::for_each_item`], and [`WorkGroup::barrier`] separates phases.
//! Work-groups are dispatched dynamically to the virtual CUs, so a launch's
//! critical-path cycle count is `max(total_cycles / n_cus,
//! max_group_cycles)`: perfectly balanced unless one group dominates. The
//! kernel's virtual duration is the roofline maximum of those cycles
//! (with warp divergence, barriers, bank conflicts and atomics) at the
//! runtime's issue rate and its global-memory traffic over the device's
//! bandwidth.
//!
//! ## Virtual time
//!
//! Every device owns a dual-engine timeline (independent compute and copy
//! clocks, seconds, f64) and the host owns a clock of its own. Commands
//! enqueued on a [`CommandQueue`] advance their engine's clock by their
//! modeled duration; `finish()` synchronises the host clock to the device.
//! Two devices enqueued back-to-back overlap in virtual time even though
//! the simulation executes them one after the other — this is what makes
//! the multi-GPU speedup experiments (paper Fig. 2) meaningful on a CPU.
//! Every command is one call that takes its ordering as an [`Order`]:
//! [`Order::Device`] serializes it against everything already scheduled on
//! the devices it touches (the pre-stream behaviour), while
//! [`Order::After`] with an [`Event`] wait list lets a transfer run on the
//! copy engine *under* a kernel on the compute engine — see [`timing`] for
//! the scheduling rule and [`queue`] for the API.
//!
//! The model's constants live in [`timing::DriverProfile`] (one profile per
//! runtime flavour: OpenCL, CUDA, and SkelCL-over-OpenCL) and
//! [`DeviceSpec`] (one per device type; the default is a Tesla-C1060-like
//! device matching the paper's Tesla S1070 blades). There are **no
//! per-experiment fudge factors**: all workloads share the same constants.
//!
//! ## Quick example
//!
//! ```
//! use vgpu::{Platform, PlatformConfig, NDRange, Order};
//!
//! let platform = Platform::new(PlatformConfig::default().devices(1));
//! let dev = platform.device(0);
//! let queue = platform.queue(0, vgpu::timing::DriverProfile::opencl());
//!
//! let buf = dev.alloc::<f32>(1024).unwrap();
//! // Whole buffer (`None` offset), one transfer on the bus, device-ordered.
//! let up = queue.enqueue_write(&buf, None, &vec![1.0f32; 1024], 1, Order::Device).unwrap();
//!
//! let program = vgpu::Program::from_source("square", "__kernel void square(__global float* x) { ... }");
//! let kernel = queue.build_kernel(&program, {
//!     let buf = buf.clone();
//!     std::sync::Arc::new(move |wg: &vgpu::WorkGroup| {
//!         wg.for_each_item(|item| {
//!             if !item.in_bounds() { return; }
//!             let i = item.global_id(0);
//!             let v = item.read(&buf, i);
//!             item.write(&buf, i, v * v);
//!             item.work(1);
//!         });
//!     })
//! }).unwrap();
//!
//! // Event-ordered: waits only for the upload (and this stream).
//! let k = queue.launch(&kernel, NDRange::linear(1024, 256), Order::After(&[up])).unwrap();
//! let mut out = vec![0.0f32; 1024];
//! // Blocking read: the host clock waits for it.
//! queue.enqueue_read(&buf, None, &mut out, 1, true, Order::After(&[k])).unwrap();
//! assert!(out.iter().all(|&v| v == 1.0));
//! ```

pub mod buffer;
pub mod compiler;
pub mod device;
pub mod error;
pub mod exec;
pub mod kernel;
pub mod local;
pub mod platform;
pub mod pool;
pub mod profiling;
pub mod queue;
pub mod timing;
pub mod topology;
pub mod types;

pub use buffer::Buffer;
pub use compiler::{BuildOutcome, CompiledKernel, Program};
pub use device::{Device, DeviceSpec, DeviceTimeline};
pub use error::{Error, Result};
pub use exec::{AccessSummary, LaunchStats};
pub use kernel::{Item, KernelBody, NDRange, WorkGroup};
pub use local::LocalBuf;
pub use platform::{Platform, PlatformConfig};
pub use profiling::{
    compute_copy_overlap_s, engine_usage, trace_window, verify_engine_exclusive,
    verify_engine_utilization, AccessRange, CmdKind, CommandObserver, CommandRecord, EngineUsage,
    StatsSnapshot,
};
pub use queue::{CommandQueue, Event, EventKind, Order};
pub use timing::{DriverProfile, EngineKind};
pub use types::{BufferId, DeviceId, Scalar};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::{
        Buffer, CommandQueue, Device, DeviceId, DeviceSpec, DriverProfile, Error, Item, NDRange,
        Order, Platform, PlatformConfig, Program, Result, Scalar, WorkGroup,
    };
}
