//! The virtual device: hardware parameters, memory accounting, and the
//! dual-engine command timeline.

use crate::buffer::Buffer;
use crate::error::{Error, Result};
use crate::timing::{EngineKind, VirtualClock};
use crate::types::{DeviceId, Scalar};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Static hardware parameters of one device.
///
/// The default models one GPU of the paper's Tesla S1070 (a C1060-class
/// part): 30 streaming multiprocessors × 8 scalar cores = 240 cores at
/// 1.44 GHz, 4 GB of device memory at 102 GB/s, 16 KB of local memory per
/// SM organised in 16 banks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    pub name: &'static str,
    /// Compute units (OpenCL CUs ≙ CUDA SMs).
    pub compute_units: usize,
    /// Processing elements per CU (scalar cores).
    pub pes_per_cu: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Device (global) memory capacity in bytes.
    pub mem_bytes: usize,
    /// Global memory bandwidth in bytes/second.
    pub mem_bandwidth_bytes_s: f64,
    /// Local (shared) memory per CU in bytes.
    pub local_mem_bytes: usize,
    /// Local memory banks (for conflict modeling).
    pub local_mem_banks: usize,
    /// Maximum work-group size accepted by a launch.
    pub max_work_group: usize,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec::tesla_c1060()
    }
}

impl DeviceSpec {
    /// One GPU of the paper's Tesla S1070 computing system.
    pub fn tesla_c1060() -> Self {
        DeviceSpec {
            name: "Tesla C1060 (virtual)",
            compute_units: 30,
            pes_per_cu: 8,
            clock_hz: 1.44e9,
            mem_bytes: 4 << 30,
            mem_bandwidth_bytes_s: 102e9,
            local_mem_bytes: 16 << 10,
            local_mem_banks: 16,
            max_work_group: 512,
        }
    }

    /// A deliberately small device for tests: keeps group counts low so unit
    /// tests exercise multi-group paths without large allocations.
    pub fn tiny() -> Self {
        DeviceSpec {
            name: "tiny (test)",
            compute_units: 2,
            pes_per_cu: 4,
            clock_hz: 1e9,
            mem_bytes: 64 << 20,
            mem_bandwidth_bytes_s: 10e9,
            local_mem_bytes: 4 << 10,
            local_mem_banks: 16,
            max_work_group: 256,
        }
    }

    /// Total scalar cores.
    pub fn total_pes(&self) -> usize {
        self.compute_units * self.pes_per_cu
    }

    /// Peak arithmetic throughput in ops/second (1 op/cycle/PE).
    pub fn peak_ops_s(&self) -> f64 {
        self.total_pes() as f64 * self.clock_hz
    }
}

/// One device's command timeline: a virtual clock per execution engine
/// (compute and copy run independently, like a GPU with a dedicated DMA
/// engine) plus the in-order stream clocks the device's command queues
/// register with it.
///
/// "The device is done" means *both* engines are done — [`now_s`] is their
/// maximum — which is what [`crate::Platform::sync_all`] and
/// device-ordered commands ([`crate::Order::Device`]) observe, so code
/// written against the old single-clock model sees an identical timeline.
///
/// [`now_s`]: DeviceTimeline::now_s
#[derive(Debug, Default)]
pub struct DeviceTimeline {
    compute: VirtualClock,
    copy: VirtualClock,
    /// In-order queue tails registered by [`crate::CommandQueue`]s, kept so
    /// [`DeviceTimeline::reset`] rewinds them together with the engines.
    streams: Mutex<Vec<VirtualClock>>,
}

impl DeviceTimeline {
    /// When the device falls idle: the latest engine completion time.
    pub fn now_s(&self) -> f64 {
        self.compute.now_s().max(self.copy.now_s())
    }

    /// The availability clock of one engine.
    pub fn engine(&self, engine: EngineKind) -> &VirtualClock {
        match engine {
            EngineKind::Compute => &self.compute,
            EngineKind::Copy => &self.copy,
        }
    }

    /// Move both engines forward to at least `t_s` (join point).
    pub fn sync_to(&self, t_s: f64) {
        self.compute.sync_to(t_s);
        self.copy.sync_to(t_s);
    }

    /// Rewind both engines and every registered stream to the epoch.
    pub fn reset(&self) {
        self.compute.reset();
        self.copy.reset();
        for s in self.streams.lock().iter() {
            s.reset();
        }
    }

    /// Create and register a fresh in-order stream clock (one per
    /// [`crate::CommandQueue`]): the "queue-ready" term of the scheduling
    /// rule.
    pub(crate) fn register_stream(&self) -> VirtualClock {
        let clock = VirtualClock::new();
        self.streams.lock().push(clock.clone());
        clock
    }
}

/// One virtual device: spec + memory accounting + its command timeline.
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    spec: DeviceSpec,
    used_bytes: Arc<AtomicUsize>,
    clock: DeviceTimeline,
}

impl Device {
    pub(crate) fn new(id: DeviceId, spec: DeviceSpec) -> Self {
        Device {
            id,
            spec,
            used_bytes: Arc::new(AtomicUsize::new(0)),
            clock: DeviceTimeline::default(),
        }
    }

    pub fn id(&self) -> DeviceId {
        self.id
    }

    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The device's virtual command timeline (per-engine clocks).
    pub fn clock(&self) -> &DeviceTimeline {
        &self.clock
    }

    /// Bytes of device memory currently allocated.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Allocate an uninitialised (zeroed) buffer of `len` elements on this
    /// device, like `clCreateBuffer`. Fails with
    /// [`Error::OutOfDeviceMemory`] when the capacity is exceeded —
    /// the paper's OSEM implementation has to budget path memory for exactly
    /// this reason.
    pub fn alloc<T: Scalar>(&self, len: usize) -> Result<Buffer<T>> {
        let bytes = len * std::mem::size_of::<T>();
        // Reserve first; undo on failure.
        let prev = self.used_bytes.fetch_add(bytes, Ordering::Relaxed);
        if prev + bytes > self.spec.mem_bytes {
            self.used_bytes.fetch_sub(bytes, Ordering::Relaxed);
            return Err(Error::OutOfDeviceMemory {
                device: self.id,
                requested: bytes,
                available: self.spec.mem_bytes.saturating_sub(prev),
            });
        }
        Ok(Buffer::new_zeroed(
            self.id,
            len,
            Arc::clone(&self.used_bytes),
        ))
    }

    /// Allocate and fill from a host slice in one step.
    pub fn alloc_from<T: Scalar>(&self, data: &[T]) -> Result<Buffer<T>> {
        let buf = self.alloc::<T>(data.len())?;
        buf.write_from_host(data)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_matches_paper_hardware() {
        let s = DeviceSpec::tesla_c1060();
        // "Each GPU comprises 240 streaming processor cores running at up
        //  to 1.44 GHz" with 4 GB per GPU at 102 GB/s.
        assert_eq!(s.total_pes(), 240);
        assert_eq!(s.clock_hz, 1.44e9);
        assert_eq!(s.mem_bytes, 4 << 30);
        assert_eq!(s.mem_bandwidth_bytes_s, 102e9);
    }

    #[test]
    fn allocation_accounting() {
        let dev = Device::new(DeviceId(0), DeviceSpec::tiny());
        assert_eq!(dev.used_bytes(), 0);
        let a = dev.alloc::<f32>(1024).unwrap();
        assert_eq!(dev.used_bytes(), 4096);
        let b = dev.alloc::<u64>(16).unwrap();
        assert_eq!(dev.used_bytes(), 4096 + 128);
        drop(a);
        assert_eq!(dev.used_bytes(), 128);
        drop(b);
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn out_of_memory_is_reported_and_rolled_back() {
        let dev = Device::new(DeviceId(3), DeviceSpec::tiny());
        let cap = dev.spec().mem_bytes;
        let err = dev.alloc::<u8>(cap + 1).unwrap_err();
        match err {
            Error::OutOfDeviceMemory {
                device, requested, ..
            } => {
                assert_eq!(device, DeviceId(3));
                assert_eq!(requested, cap + 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The failed reservation must not leak.
        assert_eq!(dev.used_bytes(), 0);
        assert!(dev.alloc::<u8>(cap).is_ok());
    }

    #[test]
    fn alloc_from_copies_data() {
        let dev = Device::new(DeviceId(0), DeviceSpec::tiny());
        let buf = dev.alloc_from(&[1.0f32, 2.0, 3.0]).unwrap();
        assert_eq!(buf.to_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn peak_ops_reflects_cores_times_clock() {
        let s = DeviceSpec::tesla_c1060();
        assert!((s.peak_ops_s() - 240.0 * 1.44e9).abs() < 1.0);
    }
}
