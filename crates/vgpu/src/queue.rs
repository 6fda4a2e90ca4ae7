//! Command queues ("streams"), events, and the two scheduling disciplines.
//!
//! A queue belongs to one device and carries one [`DriverProfile`] — the
//! same virtual hardware behaves as an "OpenCL device", a "CUDA device" or a
//! "SkelCL device" depending on the profile of the queue driving it, which
//! is exactly the comparison the paper performs on its single testbed.
//!
//! A device can drive **multiple in-order queues** over one shared timeline
//! with separate compute and copy engines (see [`crate::timing`]): each
//! [`Platform::queue`](crate::Platform::queue) call creates a fresh stream.
//! Commands come in two flavours:
//!
//! * the classic enqueue methods ([`CommandQueue::enqueue_write`],
//!   [`CommandQueue::launch`], …) are **device-serializing**: a command
//!   starts only when *everything* previously scheduled on the device has
//!   finished, which reproduces the pre-stream single-clock timeline
//!   exactly — existing code keeps its modeled timings to the bit;
//! * the `_async` twins ([`CommandQueue::enqueue_write_async`],
//!   [`CommandQueue::launch_async`], …) take a `wait_for: &[Event]` list and
//!   start at `max(queue-ready, dependency-ready, engine-availability,
//!   enqueue time)` — so a transfer on a copy stream genuinely runs under a
//!   kernel when no dependency links them.
//!
//! Either way the *data* moves immediately (the simulator executes commands
//! eagerly); only the modeled timeline differs. Every command returns an
//! [`Event`] carrying its `CL_PROFILING_COMMAND_START/END`-style interval,
//! usable as a dependency for later async commands on any queue.

use crate::buffer::Buffer;
use crate::compiler::{BuildOutcome, CompiledKernel, Program};
use crate::device::Device;
use crate::error::{Error, Result};
use crate::exec::{self, LaunchStats};
use crate::kernel::{KernelBody, NDRange};
use crate::platform::PlatformShared;
use crate::profiling::{AccessRange, CmdKind, CommandRecord};
use crate::timing::{ready_s, DriverProfile, EngineKind, VirtualClock};
use crate::types::{DeviceId, Scalar};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What a finished command was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    WriteBuffer,
    ReadBuffer,
    FillBuffer,
    Kernel,
    Build {
        from_cache: bool,
    },
    CopyD2D,
    /// A zero-duration join point over everything already scheduled on the
    /// device (`clEnqueueMarker`): the anchor async commands wait on when
    /// their inputs were produced by device-serializing commands.
    Marker,
}

/// A completed command with its virtual-timeline timestamps, like an OpenCL
/// event queried with `CL_PROFILING_COMMAND_START/END`. Pass events to the
/// `_async` enqueue methods' `wait_for` lists to build cross-stream
/// dependency graphs.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    /// The device whose engine ran the command (for staged D2D copies, the
    /// source device; both copy engines are occupied either way).
    pub device: DeviceId,
    /// Which engine of the device the command occupied.
    pub engine: EngineKind,
    pub start_s: f64,
    pub end_s: f64,
    /// Process-wide command sequence number — the identity the timeline
    /// trace records, so checkers can resolve `wait_for` lists back to the
    /// commands they name.
    pub seq: u64,
    /// Present for kernel events: the executor's counters.
    pub launch: Option<LaunchStats>,
}

impl Event {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The latest completion time among `deps` (0 when empty) — the
/// "dependency-ready" term of the scheduling rule.
pub(crate) fn deps_ready_s(deps: &[Event]) -> f64 {
    ready_s(deps.iter().map(|e| e.end_s))
}

/// An in-order command queue ("stream") on one device. Cloning yields a
/// second handle to the *same* stream; [`crate::Platform::queue`] creates a
/// new independent stream each call.
#[derive(Clone)]
pub struct CommandQueue {
    device: Arc<Device>,
    profile: DriverProfile,
    shared: Arc<PlatformShared>,
    /// This stream's in-order tail: commands on one queue never reorder.
    tail: VirtualClock,
    /// Platform-unique stream identity (clones share it — same stream).
    stream_id: u64,
}

impl CommandQueue {
    pub(crate) fn new(
        device: Arc<Device>,
        profile: DriverProfile,
        shared: Arc<PlatformShared>,
    ) -> Self {
        let tail = device.clock().register_stream();
        let stream_id = shared.next_stream.fetch_add(1, Ordering::Relaxed);
        CommandQueue {
            device,
            profile,
            shared,
            tail,
            stream_id,
        }
    }

    /// Platform-unique identity of this in-order stream.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    pub fn profile(&self) -> &DriverProfile {
        &self.profile
    }

    /// Schedule one command on `engine`. `conservative` commands are
    /// device-serializing (they wait for both engines — the legacy
    /// single-clock rule); async commands wait only for their stream, their
    /// `deps`, their engine, and the enqueue time. `reads`/`writes` name the
    /// device-memory ranges the command touches; they reach the timeline
    /// trace (and any online checker) when a record sink is active.
    #[allow(clippy::too_many_arguments)]
    fn schedule(
        &self,
        engine: EngineKind,
        kind: EventKind,
        duration_s: f64,
        deps: &[Event],
        conservative: bool,
        launch: Option<LaunchStats>,
        reads: Vec<AccessRange>,
        writes: Vec<AccessRange>,
        label: &str,
    ) -> Event {
        let enqueue_host_s = self.shared.host_clock.now_s();
        let mut not_before = enqueue_host_s
            .max(deps_ready_s(deps))
            .max(self.tail.now_s());
        if conservative {
            not_before = not_before.max(self.device.clock().now_s());
        }
        let (start_s, end_s) = self
            .device
            .clock()
            .engine(engine)
            .advance_from(not_before, duration_s);
        self.tail.sync_to(end_s);
        let seq = self.shared.stats.next_seq();
        if self.shared.stats.sink_active() {
            let mut rec = CommandRecord::interval(self.device.id(), engine, start_s, end_s)
                .with_seq(seq)
                .on_stream(self.stream_id)
                .with_kind(CmdKind::from_event(kind))
                .with_deps(deps.iter().map(|e| e.seq).collect())
                .with_reads(reads)
                .with_writes(writes)
                .at_enqueue(enqueue_host_s)
                .with_host_sync(self.shared.stats.host_synced_s())
                .with_label(label);
            if !conservative {
                rec = rec.asynchronous();
            }
            self.shared.stats.record_group(std::slice::from_ref(&rec));
        }
        Event {
            kind,
            device: self.device.id(),
            engine,
            start_s,
            end_s,
            seq,
            launch,
        }
    }

    /// A zero-duration join point over everything already scheduled on this
    /// device (`clEnqueueMarker` semantics): later async commands that pass
    /// the marker in `wait_for` are ordered after every command — on any
    /// stream, either engine — enqueued before it.
    pub fn enqueue_marker(&self) -> Event {
        let enqueue_host_s = self.shared.host_clock.now_s();
        let t = enqueue_host_s
            .max(self.device.clock().now_s())
            .max(self.tail.now_s());
        self.tail.sync_to(t);
        let seq = self.shared.stats.next_seq();
        if self.shared.stats.sink_active() {
            // Markers are recorded as serializing zero-width records: the
            // hazard detector treats them as a join over everything already
            // scheduled on the device, matching their `wait_for` semantics.
            let rec = CommandRecord::interval(self.device.id(), EngineKind::Compute, t, t)
                .with_seq(seq)
                .on_stream(self.stream_id)
                .with_kind(CmdKind::Marker)
                .at_enqueue(enqueue_host_s)
                .with_host_sync(self.shared.stats.host_synced_s())
                .with_label("marker");
            self.shared.stats.record_group(std::slice::from_ref(&rec));
        }
        Event {
            kind: EventKind::Marker,
            device: self.device.id(),
            engine: EngineKind::Compute,
            start_s: t,
            end_s: t,
            seq,
            launch: None,
        }
    }

    fn check_device<T: Scalar>(&self, buf: &Buffer<T>) -> Result<()> {
        if buf.device() != self.device.id() {
            return Err(Error::WrongDevice {
                expected: buf.device(),
                actual: self.device.id(),
            });
        }
        Ok(())
    }

    /// Upload a host slice into a device buffer (`clEnqueueWriteBuffer`).
    pub fn enqueue_write<T: Scalar>(&self, buf: &Buffer<T>, src: &[T]) -> Result<Event> {
        self.write_impl(buf, None, src, 1, &[], true)
    }

    /// Async upload on this stream: starts as soon as the stream, the
    /// `wait_for` events, and the copy engine allow — possibly *under* a
    /// kernel running on the compute engine.
    pub fn enqueue_write_async<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        src: &[T],
        concurrent: usize,
        wait_for: &[Event],
    ) -> Result<Event> {
        self.write_impl(buf, None, src, concurrent, wait_for, false)
    }

    /// `offset`: `None` = whole-buffer write (length-checked), `Some(o)` =
    /// ranged write at element offset `o`.
    fn write_impl<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        offset: Option<usize>,
        src: &[T],
        concurrent: usize,
        deps: &[Event],
        conservative: bool,
    ) -> Result<Event> {
        self.check_device(buf)?;
        match offset {
            None => buf.write_from_host(src)?,
            Some(o) => buf.write_range_from_host(o, src)?,
        }
        let bytes = std::mem::size_of_val(src);
        self.shared.stats.add_h2d(bytes);
        let dur = self.shared.topology.transfer_s(bytes, concurrent.max(1));
        let lo = (offset.unwrap_or(0) * std::mem::size_of::<T>()) as u64;
        let writes = vec![AccessRange::new(buf.id(), lo, lo + bytes as u64)];
        Ok(self.schedule(
            EngineKind::Copy,
            EventKind::WriteBuffer,
            dur,
            deps,
            conservative,
            None,
            Vec::new(),
            writes,
            "h2d",
        ))
    }

    /// Download a device buffer into a host slice (`clEnqueueReadBuffer`,
    /// blocking): the host clock waits for completion.
    pub fn enqueue_read<T: Scalar>(&self, buf: &Buffer<T>, dst: &mut [T]) -> Result<Event> {
        self.read_impl(buf, None, dst, 1, true, &[], true)
    }

    /// `offset`: `None` = whole-buffer read (length-checked), `Some(o)` =
    /// ranged read at element offset `o`.
    #[allow(clippy::too_many_arguments)]
    fn read_impl<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        offset: Option<usize>,
        dst: &mut [T],
        concurrent: usize,
        blocking: bool,
        deps: &[Event],
        conservative: bool,
    ) -> Result<Event> {
        self.check_device(buf)?;
        match offset {
            None => buf.read_into_host(dst)?,
            Some(o) => buf.read_range_into_host(o, dst)?,
        }
        let bytes = std::mem::size_of_val(dst);
        self.shared.stats.add_d2h(bytes);
        let dur = self.shared.topology.transfer_s(bytes, concurrent.max(1));
        let lo = (offset.unwrap_or(0) * std::mem::size_of::<T>()) as u64;
        let reads = vec![AccessRange::new(buf.id(), lo, lo + bytes as u64)];
        let ev = self.schedule(
            EngineKind::Copy,
            EventKind::ReadBuffer,
            dur,
            deps,
            conservative,
            None,
            reads,
            Vec::new(),
            "d2h",
        );
        if blocking {
            self.shared.host_clock.sync_to(ev.end_s);
            self.shared.stats.note_host_sync(ev.end_s);
        }
        Ok(ev)
    }

    /// Write a host slice into `[offset, offset + src.len())` of a device
    /// buffer.
    pub fn enqueue_write_range<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        offset: usize,
        src: &[T],
        concurrent: usize,
    ) -> Result<Event> {
        self.write_impl(buf, Some(offset), src, concurrent, &[], true)
    }

    /// Async ranged upload: the streamed-upload primitive (row chunks of a
    /// matrix part go out back to back on a copy stream while earlier
    /// chunks' dependent kernels already run on the compute engine).
    pub fn enqueue_write_range_async<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        offset: usize,
        src: &[T],
        concurrent: usize,
        wait_for: &[Event],
    ) -> Result<Event> {
        self.write_impl(buf, Some(offset), src, concurrent, wait_for, false)
    }

    /// Read a sub-range `[offset, offset + dst.len())` of a device buffer.
    pub fn enqueue_read_range<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        offset: usize,
        dst: &mut [T],
        concurrent: usize,
        blocking: bool,
    ) -> Result<Event> {
        self.read_impl(buf, Some(offset), dst, concurrent, blocking, &[], true)
    }

    /// Async ranged download (never blocks the host clock); waits for
    /// `wait_for` before occupying the copy engine.
    pub fn enqueue_read_range_async<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        offset: usize,
        dst: &mut [T],
        concurrent: usize,
        wait_for: &[Event],
    ) -> Result<Event> {
        self.read_impl(buf, Some(offset), dst, concurrent, false, wait_for, false)
    }

    /// Device-side fill (`clEnqueueFillBuffer`): costs global-memory
    /// bandwidth but no PCIe traffic.
    pub fn enqueue_fill<T: Scalar>(&self, buf: &Buffer<T>, v: T) -> Result<Event> {
        self.check_device(buf)?;
        buf.fill(v);
        let dur = buf.size_bytes() as f64 / self.device.spec().mem_bandwidth_bytes_s;
        let writes = vec![AccessRange::whole(buf.id(), buf.size_bytes())];
        Ok(self.schedule(
            EngineKind::Copy,
            EventKind::FillBuffer,
            dur,
            &[],
            true,
            None,
            Vec::new(),
            writes,
            "fill",
        ))
    }

    /// Build a program into an executable kernel under this queue's driver
    /// profile. Runtime compilation (or cache loading) happens on the host,
    /// so the cost lands on the *host* clock.
    pub fn build_kernel(&self, program: &Program, body: KernelBody) -> Result<CompiledKernel> {
        let (kernel, outcome) = self.build_kernel_traced(program, body)?;
        let _ = outcome;
        Ok(kernel)
    }

    /// Like [`CommandQueue::build_kernel`] but also reports whether the
    /// cache served the build and what it cost (experiment E6).
    pub fn build_kernel_traced(
        &self,
        program: &Program,
        body: KernelBody,
    ) -> Result<(CompiledKernel, BuildOutcome)> {
        let (kernel, outcome) = self.shared.compiler.build(program, body, &self.profile)?;
        if outcome.from_cache {
            self.shared
                .stats
                .cache_loads
                .fetch_add(1, Ordering::Relaxed);
        } else if self.profile.runtime_compile {
            self.shared
                .stats
                .source_builds
                .fetch_add(1, Ordering::Relaxed);
        }
        self.shared
            .stats
            .build_virtual_ns
            .fetch_add((outcome.virtual_s * 1e9) as u64, Ordering::Relaxed);
        let now = self.shared.host_clock.now_s();
        self.shared.host_clock.advance_from(now, outcome.virtual_s);
        Ok((kernel, outcome))
    }

    /// Launch a kernel over an ND-range; real execution happens on host
    /// threads, the modeled duration advances this device's compute engine.
    /// Device-serializing: the kernel waits for everything previously
    /// scheduled on the device (the legacy single-queue rule).
    pub fn launch(&self, kernel: &CompiledKernel, nd: NDRange) -> Result<Event> {
        self.launch_impl(kernel, nd, &[], true)
    }

    /// Async launch on this stream: starts at `max(queue-ready,
    /// dependency-ready, compute-engine availability, enqueue time)` — so
    /// transfers on a copy stream that this kernel does not depend on keep
    /// running underneath it.
    pub fn launch_async(
        &self,
        kernel: &CompiledKernel,
        nd: NDRange,
        wait_for: &[Event],
    ) -> Result<Event> {
        self.launch_impl(kernel, nd, wait_for, false)
    }

    fn launch_impl(
        &self,
        kernel: &CompiledKernel,
        nd: NDRange,
        deps: &[Event],
        conservative: bool,
    ) -> Result<Event> {
        // Track per-buffer access envelopes only when someone will consume
        // them — tracking costs a few branches per element access.
        let track = self.shared.stats.sink_active();
        let (stats, access) = exec::execute_traced(
            self.device.spec(),
            &kernel.body,
            nd,
            self.profile.compute_efficiency,
            track,
        )?;
        let dur = stats.duration_s + self.profile.launch_cost_s(kernel.n_args);
        self.shared
            .stats
            .add_kernel(stats.max_cu_cycles, stats.global_bytes, dur);
        Ok(self.schedule(
            EngineKind::Compute,
            EventKind::Kernel,
            dur,
            deps,
            conservative,
            Some(stats),
            access.reads,
            access.writes,
            &kernel.name,
        ))
    }

    /// Wait until every command on this queue is done (`clFinish`): the
    /// host clock catches up with the device timeline.
    pub fn finish(&self) {
        let now = self.device.clock().now_s();
        self.shared.host_clock.sync_to(now);
        self.shared.stats.note_host_sync(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::WorkGroup;
    use crate::platform::{Platform, PlatformConfig};

    fn platform(n: usize) -> Platform {
        Platform::new(
            PlatformConfig::default()
                .devices(n)
                .spec(DeviceSpec::tiny())
                .cache_tag("queue-tests"),
        )
    }

    #[test]
    fn write_then_read_roundtrips() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<f32>(4).unwrap();
        q.enqueue_write(&buf, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut out = [0.0f32; 4];
        q.enqueue_read(&buf, &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn wrong_device_is_rejected() {
        let p = platform(2);
        let q0 = p.queue(0, DriverProfile::opencl());
        let buf1 = p.device(1).alloc::<f32>(4).unwrap();
        assert!(matches!(
            q0.enqueue_write(&buf1, &[0.0; 4]),
            Err(Error::WrongDevice { .. })
        ));
    }

    #[test]
    fn transfers_advance_the_device_clock() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![7u8; 1 << 20];
        let before = p.device(0).clock().now_s();
        let ev = q.enqueue_write(&buf, &data).unwrap();
        assert!(ev.duration_s() > 0.0);
        assert!(p.device(0).clock().now_s() > before);
        // Blocking read syncs the host clock too.
        let mut out = vec![0u8; 1 << 20];
        q.enqueue_read(&buf, &mut out).unwrap();
        assert_eq!(p.host_now_s(), p.device(0).clock().now_s());
    }

    #[test]
    fn launch_runs_kernel_and_charges_overhead() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u32>(100).unwrap();
        let program = Program::from_source(
            "inc",
            "__kernel void inc(__global uint* x){x[get_global_id(0)]++;}",
        );
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    let v = it.read(&buf, i);
                    it.write(&buf, i, v + 1);
                    it.work(1);
                });
            })
        };
        let kernel = q.build_kernel(&program, body).unwrap();
        let ev = q.launch(&kernel, NDRange::linear(100, 32)).unwrap();
        assert!(buf.to_vec().iter().all(|&v| v == 1));
        let stats = ev.launch.unwrap();
        assert_eq!(stats.n_active_items, 100);
        // Duration includes the fixed launch overhead.
        assert!(ev.duration_s() >= DriverProfile::opencl().launch_overhead_s);
    }

    #[test]
    fn cuda_launches_cost_less_overhead_than_opencl() {
        let p = platform(1);
        let program = Program::from_source("k", "void k() {}").with_arg_count(2);
        let body: KernelBody = Arc::new(|wg: &WorkGroup| {
            wg.for_each_item(|it| it.work(1));
        });
        let ocl = p.queue(0, DriverProfile::opencl());
        let cuda = p.queue(0, DriverProfile::cuda());
        let k_ocl = ocl.build_kernel(&program, body.clone()).unwrap();
        let k_cuda = cuda.build_kernel(&program, body).unwrap();
        let nd = NDRange::linear(32, 32);
        let e_ocl = ocl.launch(&k_ocl, nd).unwrap();
        let e_cuda = cuda.launch(&k_cuda, nd).unwrap();
        assert!(e_cuda.duration_s() < e_ocl.duration_s());
    }

    #[test]
    fn build_charges_the_host_clock_and_counts_stats() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        p.compiler().clear_cache().unwrap();
        let program = Program::from_source("k", "__kernel void k() { /* unique-1 */ }");
        let body: KernelBody = Arc::new(|_wg: &WorkGroup| {});
        let t0 = p.host_now_s();
        let (_, o1) = q.build_kernel_traced(&program, body.clone()).unwrap();
        assert!(!o1.from_cache);
        assert!(p.host_now_s() > t0);
        let (_, o2) = q.build_kernel_traced(&program, body).unwrap();
        assert!(o2.from_cache);
        let snap = p.stats_snapshot();
        assert_eq!(snap.source_builds, 1);
        assert_eq!(snap.cache_loads, 1);
        p.compiler().clear_cache().unwrap();
    }

    #[test]
    fn ranged_transfers_roundtrip_and_count() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u32>(10).unwrap();
        let before = p.stats_snapshot();
        q.enqueue_write_range(&buf, 3, &[7, 8, 9], 1).unwrap();
        let mut out = [0u32; 3];
        q.enqueue_read_range(&buf, 3, &mut out, 1, true).unwrap();
        assert_eq!(out, [7, 8, 9]);
        assert_eq!(buf.get(2), 0);
        let delta = p.stats_snapshot() - before;
        assert_eq!(delta.h2d_bytes, 12);
        assert_eq!(delta.d2h_bytes, 12);
        // Out-of-range is rejected.
        assert!(q.enqueue_write_range(&buf, 9, &[1, 2], 1).is_err());
        assert!(q.enqueue_read_range(&buf, 9, &mut out, 1, true).is_err());
    }

    #[test]
    fn non_blocking_read_defers_host_sync() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let mut out = vec![0u8; 1 << 20];
        q.enqueue_read_range(&buf, 0, &mut out, 1, false).unwrap();
        assert!(
            p.host_now_s() < p.device(0).clock().now_s(),
            "non-blocking read must leave the host clock behind the device"
        );
        q.finish();
        assert_eq!(p.host_now_s(), p.device(0).clock().now_s());
    }

    /// A one-argument no-op kernel body used by the stream tests.
    fn nop_kernel(q: &CommandQueue, tag: &str) -> CompiledKernel {
        let program = Program::from_source("nop", format!("__kernel void nop() {{ /* {tag} */ }}"));
        let body: KernelBody = Arc::new(|wg: &WorkGroup| {
            wg.for_each_item(|it| it.work(200_000));
        });
        q.build_kernel(&program, body).unwrap()
    }

    #[test]
    fn async_transfer_overlaps_a_kernel_on_another_stream() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![1u8; 1 << 20];

        let kernel = nop_kernel(&compute, "overlap");
        let k = compute
            .launch_async(&kernel, NDRange::linear(1 << 16, 64), &[])
            .unwrap();
        let w = copy.enqueue_write_async(&buf, &data, 1, &[]).unwrap();
        assert!(
            w.start_s < k.end_s && k.start_s < w.end_s,
            "copy [{}, {}] must run under the kernel [{}, {}]",
            w.start_s,
            w.end_s,
            k.start_s,
            k.end_s
        );
        assert_eq!(w.engine, EngineKind::Copy);
        assert_eq!(k.engine, EngineKind::Compute);
    }

    #[test]
    fn wait_for_orders_across_streams() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![2u8; 1 << 20];

        let w = copy.enqueue_write_async(&buf, &data, 1, &[]).unwrap();
        let kernel = nop_kernel(&compute, "dep");
        let k = compute
            .launch_async(&kernel, NDRange::linear(64, 64), std::slice::from_ref(&w))
            .unwrap();
        assert!(
            k.start_s >= w.end_s,
            "dependent kernel ({}) must wait for the upload ({})",
            k.start_s,
            w.end_s
        );
    }

    #[test]
    fn one_stream_stays_in_order_even_async() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![3u8; 1 << 20];
        let kernel = nop_kernel(&q, "inorder");
        let k = q
            .launch_async(&kernel, NDRange::linear(1 << 16, 64), &[])
            .unwrap();
        // Same stream: the write may not pass the kernel, despite running
        // on the other engine and having no event dependency.
        let w = q.enqueue_write_async(&buf, &data, 1, &[]).unwrap();
        assert!(w.start_s >= k.end_s, "in-order queue must not reorder");
    }

    #[test]
    fn same_engine_commands_serialize() {
        let p = platform(1);
        let a = p.queue(0, DriverProfile::opencl());
        let b = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![4u8; 1 << 20];
        let w1 = a.enqueue_write_async(&buf, &data, 1, &[]).unwrap();
        let w2 = b.enqueue_write_async(&buf, &data, 1, &[]).unwrap();
        assert!(
            w2.start_s >= w1.end_s,
            "two transfers share one copy engine"
        );
    }

    #[test]
    fn marker_joins_both_engines() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![5u8; 1 << 20];
        let kernel = nop_kernel(&compute, "marker");
        let k = compute
            .launch_async(&kernel, NDRange::linear(1 << 16, 64), &[])
            .unwrap();
        let w = copy.enqueue_write_async(&buf, &data, 1, &[]).unwrap();
        let m = copy.enqueue_marker();
        assert_eq!(m.kind, EventKind::Marker);
        assert_eq!(m.duration_s(), 0.0);
        assert!(m.end_s >= k.end_s && m.end_s >= w.end_s);
    }

    #[test]
    fn legacy_commands_serialize_against_async_work() {
        let p = platform(1);
        let compute = p.queue(0, DriverProfile::opencl());
        let copy = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![6u8; 1 << 20];
        let kernel = nop_kernel(&compute, "legacy");
        let k = compute
            .launch_async(&kernel, NDRange::linear(1 << 16, 64), &[])
            .unwrap();
        // A device-serializing write waits for the in-flight kernel even
        // though the copy engine itself is idle.
        let w = copy.enqueue_write(&buf, &data).unwrap();
        assert!(w.start_s >= k.end_s, "legacy commands keep the old rule");
    }

    #[test]
    fn reset_clocks_rewinds_stream_tails() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        q.enqueue_write(&buf, &vec![7u8; 1 << 20]).unwrap();
        p.reset_clocks();
        // A fresh command must start at the epoch again — including the
        // queue's own in-order tail, not just the engine clocks.
        let w = q.enqueue_write(&buf, &vec![8u8; 1 << 20]).unwrap();
        assert_eq!(w.start_s, 0.0);
    }

    #[test]
    fn timeline_trace_records_engines() {
        let p = platform(1);
        p.enable_timeline_trace();
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1024).unwrap();
        q.enqueue_write(&buf, &vec![9u8; 1024]).unwrap();
        let kernel = nop_kernel(&q, "trace");
        q.launch(&kernel, NDRange::linear(64, 64)).unwrap();
        let trace = p.take_timeline_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].engine, EngineKind::Copy);
        assert_eq!(trace[1].engine, EngineKind::Compute);
        assert!(trace[1].start_s >= trace[0].end_s);
        // The trace was taken; the next snapshot starts empty.
        assert!(p.take_timeline_trace().is_empty());
    }

    #[test]
    fn fill_touches_no_pcie() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<f32>(256).unwrap();
        let before = p.stats_snapshot();
        q.enqueue_fill(&buf, 3.0).unwrap();
        let delta = p.stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
        assert!(buf.to_vec().iter().all(|&v| v == 3.0));
    }
}
