//! Virtual-time cost model: driver profiles, roofline kernel costs, clocks,
//! and the per-device execution engines commands are scheduled on.
//!
//! All modeled durations are `f64` seconds. The constants below are fixed
//! once for the whole repository — experiments never override them — so that
//! every figure is produced by the *same* machine model, like the paper's
//! single Tesla S1070 testbed.
//!
//! ## Scheduling rule
//!
//! Each device exposes two independent [`EngineKind`]s — a *compute* engine
//! executing kernels and a *copy* (DMA) engine executing transfers — over
//! one shared device timeline, like the dual-engine GPUs the paper targets.
//! A command submitted on an in-order queue ("stream") starts at
//!
//! ```text
//! start = max(queue-ready, dependency-ready, engine-availability, enqueue time)
//! ```
//!
//! so a D2H/H2D transfer can genuinely run *under* a kernel when their
//! stream and event dependencies allow it, while two kernels (or two
//! transfers) on the same device always serialize on their engine. A
//! device-ordered command ([`crate::Order::Device`]) additionally waits for
//! both engines of every device it touches; `crate::queue`'s one scheduler
//! applies the rule to every command.
//!
//! ## Where the constants come from
//!
//! * Launch overheads: published microbenchmarks of the CUDA and OpenCL
//!   runtimes of that era put kernel-launch latency at ~5 µs (CUDA) and
//!   15–25 µs (OpenCL).
//! * `compute_efficiency`: Kong et al. (cited as \[8\] by the paper) report
//!   CUDA outperforming OpenCL on the same hardware, commonly by 20–40 % for
//!   compute-bound kernels; we model this as the fraction of peak issue rate
//!   that each runtime's compiler achieves.
//! * Compile cost: the paper reports runtime compilation "taking up to
//!   several hundreds of milliseconds" and that loading cached binaries "is
//!   at least five times faster than building them from source".

use parking_lot::Mutex;
use std::sync::Arc;

/// Number of lanes executing in lock-step; warp divergence is modeled at
/// this granularity (NVIDIA terminology, matching the Tesla hardware).
pub const WARP_SIZE: usize = 32;

/// Which execution engine of a device a command occupies. The modeled
/// hardware (like the real Tesla parts and every modern GPU) has a
/// dedicated DMA engine, so transfers and kernels only contend when they
/// target the *same* engine; commands on different engines of one device
/// may overlap in virtual time if their dependencies allow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Kernel execution.
    Compute,
    /// Host↔device and device↔device transfers (the DMA engine).
    Copy,
}

/// Extra cycles charged per local-memory bank conflict (serialised access).
pub const BANK_CONFLICT_CYCLES: f64 = 2.0;

/// Cycles charged for a work-group barrier.
pub const BARRIER_CYCLES: f64 = 40.0;

/// Cycles charged for one global-memory atomic operation (read-modify-write
/// through the memory hierarchy; dominant cost of scatter-accumulation).
pub const ATOMIC_CYCLES: f64 = 12.0;

/// A runtime flavour: the per-launch and per-build overheads plus the
/// compiler quality of one GPU programming stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverProfile {
    /// Human-readable runtime name ("OpenCL", "CUDA", "SkelCL").
    pub name: &'static str,
    /// Fixed host-side cost of submitting one kernel launch.
    pub launch_overhead_s: f64,
    /// Cost of marshalling one kernel argument at launch time.
    pub arg_overhead_s: f64,
    /// Extra per-skeleton-call bookkeeping (lazy-copy checks, distribution
    /// dispatch); zero for the raw runtimes.
    pub skeleton_overhead_s: f64,
    /// Fraction of the device's peak issue rate the compiler achieves.
    pub compute_efficiency: f64,
    /// Whether kernels are compiled from source at runtime (OpenCL model)
    /// or ahead of time (CUDA's nvcc model).
    pub runtime_compile: bool,
    /// Fixed part of a runtime source build.
    pub compile_base_s: f64,
    /// Per-source-byte part of a runtime source build.
    pub compile_per_byte_s: f64,
    /// How much faster loading a cached binary is than building from source
    /// (the paper reports "at least five times"; we use 6.5).
    pub cache_load_factor: f64,
}

impl DriverProfile {
    /// The open standard runtime the paper builds on.
    pub fn opencl() -> Self {
        DriverProfile {
            name: "OpenCL",
            launch_overhead_s: 18e-6,
            arg_overhead_s: 0.25e-6,
            skeleton_overhead_s: 0.0,
            compute_efficiency: 0.72,
            runtime_compile: true,
            compile_base_s: 0.150,
            compile_per_byte_s: 2.0e-6,
            cache_load_factor: 6.5,
        }
    }

    /// NVIDIA's proprietary runtime: offline compilation, lower launch
    /// latency, better codegen for the same hardware.
    pub fn cuda() -> Self {
        DriverProfile {
            name: "CUDA",
            launch_overhead_s: 6e-6,
            arg_overhead_s: 0.15e-6,
            skeleton_overhead_s: 0.0,
            compute_efficiency: 1.0,
            runtime_compile: false,
            compile_base_s: 0.0,
            compile_per_byte_s: 0.0,
            cache_load_factor: 1.0,
        }
    }

    /// SkelCL rides on OpenCL and adds a small constant per-call overhead
    /// for skeleton dispatch, lazy-transfer checks and argument packing.
    pub fn skelcl() -> Self {
        DriverProfile {
            skeleton_overhead_s: 9e-6,
            name: "SkelCL",
            ..DriverProfile::opencl()
        }
    }

    /// Virtual cost of building a program of `source_len` bytes from source.
    pub fn compile_cost_s(&self, source_len: usize) -> f64 {
        if !self.runtime_compile {
            return 0.0;
        }
        self.compile_base_s + self.compile_per_byte_s * source_len as f64
    }

    /// Virtual cost of loading the cached binary for the same program.
    pub fn cache_load_cost_s(&self, source_len: usize) -> f64 {
        if !self.runtime_compile {
            return 0.0;
        }
        self.compile_cost_s(source_len) / self.cache_load_factor
    }

    /// Fixed cost of one launch with `n_args` kernel arguments.
    pub fn launch_cost_s(&self, n_args: usize) -> f64 {
        self.launch_overhead_s + self.arg_overhead_s * n_args as f64 + self.skeleton_overhead_s
    }
}

/// Aggregate execution counters produced by running a kernel; the inputs of
/// the roofline model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCost {
    /// Per-CU compute cycles of the *busiest* compute unit, including warp
    /// divergence, barriers, bank conflicts and atomics.
    pub max_cu_cycles: f64,
    /// Total global-memory traffic in bytes (reads + writes + atomics).
    pub global_bytes: f64,
}

/// Computes the roofline duration of a kernel on a device.
///
/// `time = max(compute_time, memory_time)` where compute time is the busiest
/// CU's cycle count at the runtime's achieved issue rate, and memory time is
/// total traffic over the device's global-memory bandwidth.
pub fn kernel_duration_s(
    cost: KernelCost,
    clock_hz: f64,
    compute_efficiency: f64,
    mem_bandwidth_bytes_s: f64,
) -> f64 {
    let compute = cost.max_cu_cycles / (clock_hz * compute_efficiency);
    let memory = cost.global_bytes / mem_bandwidth_bytes_s;
    compute.max(memory)
}

/// Transfer time across one PCIe-like link.
pub fn transfer_duration_s(bytes: usize, bandwidth_bytes_s: f64, latency_s: f64) -> f64 {
    latency_s + bytes as f64 / bandwidth_bytes_s
}

/// A monotonically advancing virtual clock (seconds since platform epoch).
///
/// Each device owns one; the host owns one. `advance_from` implements the
/// in-order-queue rule: a command starts no earlier than both the clock's
/// current time and the given lower bound (usually the host clock at enqueue
/// time), runs for `duration`, and leaves the clock at its end time.
#[derive(Debug, Clone)]
pub struct VirtualClock {
    now_s: Arc<Mutex<f64>>,
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    pub fn new() -> Self {
        VirtualClock {
            now_s: Arc::new(Mutex::new(0.0)),
        }
    }

    /// Current virtual time in seconds.
    pub fn now_s(&self) -> f64 {
        *self.now_s.lock()
    }

    /// Schedule a command: starts at `max(now, not_before)`, lasts
    /// `duration_s`; returns `(start, end)` and advances the clock to `end`.
    pub fn advance_from(&self, not_before_s: f64, duration_s: f64) -> (f64, f64) {
        debug_assert!(duration_s >= 0.0, "negative duration");
        let mut now = self.now_s.lock();
        let start = now.max(not_before_s);
        let end = start + duration_s;
        *now = end;
        (start, end)
    }

    /// Move the clock forward to at least `t_s` (no-op if already past).
    pub fn sync_to(&self, t_s: f64) {
        let mut now = self.now_s.lock();
        if *now < t_s {
            *now = t_s;
        }
    }

    /// Reset to the epoch. Used between benchmark repetitions.
    pub fn reset(&self) {
        *self.now_s.lock() = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opencl_compile_is_hundreds_of_ms_for_typical_kernels() {
        let p = DriverProfile::opencl();
        // A ~2 KB generated skeleton program.
        let c = p.compile_cost_s(2048);
        assert!(c > 0.100 && c < 1.0, "compile cost {c}");
    }

    #[test]
    fn cache_load_is_at_least_five_times_faster() {
        let p = DriverProfile::opencl();
        for len in [128usize, 1024, 16 * 1024] {
            let compile = p.compile_cost_s(len);
            let load = p.cache_load_cost_s(len);
            assert!(compile / load >= 5.0, "factor {}", compile / load);
        }
    }

    #[test]
    fn cuda_has_no_runtime_compilation() {
        let p = DriverProfile::cuda();
        assert_eq!(p.compile_cost_s(100_000), 0.0);
        assert!(!p.runtime_compile);
    }

    #[test]
    fn skelcl_launch_costs_slightly_more_than_opencl() {
        let skel = DriverProfile::skelcl().launch_cost_s(4);
        let ocl = DriverProfile::opencl().launch_cost_s(4);
        assert!(skel > ocl);
        assert!(skel - ocl < 20e-6, "skeleton overhead should be small");
    }

    #[test]
    fn roofline_picks_the_binding_resource() {
        // Compute-bound: lots of cycles, no traffic.
        let t = kernel_duration_s(
            KernelCost {
                max_cu_cycles: 1e9,
                global_bytes: 0.0,
            },
            1e9,
            1.0,
            100e9,
        );
        assert!((t - 1.0).abs() < 1e-12);
        // Memory-bound: no cycles, 100 GB over 100 GB/s.
        let t = kernel_duration_s(
            KernelCost {
                max_cu_cycles: 0.0,
                global_bytes: 100e9,
            },
            1e9,
            1.0,
            100e9,
        );
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn virtual_clock_in_order_semantics() {
        let c = VirtualClock::new();
        let (s1, e1) = c.advance_from(0.0, 1.0);
        assert_eq!((s1, e1), (0.0, 1.0));
        // Command enqueued with a later lower bound waits for it.
        let (s2, e2) = c.advance_from(5.0, 0.5);
        assert_eq!((s2, e2), (5.0, 5.5));
        // Command with an earlier bound still starts after the queue head.
        let (s3, _) = c.advance_from(0.0, 0.1);
        assert_eq!(s3, 5.5);
        c.sync_to(100.0);
        assert_eq!(c.now_s(), 100.0);
        c.sync_to(1.0);
        assert_eq!(c.now_s(), 100.0);
        c.reset();
        assert_eq!(c.now_s(), 0.0);
    }

    #[test]
    fn transfer_duration_includes_latency() {
        let t = transfer_duration_s(5_200_000, 5.2e9, 10e-6);
        assert!((t - (10e-6 + 1e-3)).abs() < 1e-12);
    }
}
