//! Command queues ("streams"), events, and the one scheduler every device
//! command goes through.
//!
//! A queue belongs to one device and carries one [`DriverProfile`] — the
//! same virtual hardware behaves as an "OpenCL device", a "CUDA device" or a
//! "SkelCL device" depending on the profile of the queue driving it, which
//! is exactly the comparison the paper performs on its single testbed.
//!
//! A device can drive **multiple in-order queues** over one shared timeline
//! with separate compute and copy engines (see [`crate::timing`]): each
//! [`Platform::queue`](crate::Platform::queue) call creates a fresh stream.
//! Like a `clEnqueue*` call with its event wait list, every command is one
//! call that takes its ordering as an [`Order`] argument:
//!
//! * [`Order::Device`] — the command waits for *everything* already
//!   scheduled on each device it touches (both engines), which reproduces
//!   the pre-stream single-clock timeline exactly;
//! * [`Order::After`] — the command waits only for the listed events, its
//!   own stream and its engine, starting at `max(queue-ready,
//!   dependency-ready, engine-availability, enqueue time)` — so a transfer
//!   on a copy stream genuinely runs under a kernel when no dependency
//!   links them.
//!
//! Either way the *data* moves immediately (the simulator executes commands
//! eagerly); only the modeled timeline differs. Every command — write,
//! read, fill, launch, marker, and the platform's device copies — is timed
//! and recorded by one private `schedule` function, and returns an
//! [`Event`] carrying its `CL_PROFILING_COMMAND_START/END`-style interval,
//! usable in later commands' wait lists on any queue.

use crate::buffer::Buffer;
use crate::compiler::{BuildOutcome, CompiledKernel, Program};
use crate::device::Device;
use crate::error::{Error, Result};
use crate::exec::{self, LaunchStats};
use crate::kernel::{KernelBody, NDRange};
use crate::platform::PlatformShared;
use crate::profiling::{AccessRange, CmdKind, CommandRecord};
use crate::timing::{DriverProfile, EngineKind, VirtualClock};
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
    /// device (`clEnqueueMarker`): the anchor event-ordered commands wait
    /// on when their inputs were produced by device-ordered commands.
    Marker,
}

/// A completed command with its virtual-timeline timestamps, like an OpenCL
/// event queried with `CL_PROFILING_COMMAND_START/END`. Pass events in an
/// [`Order::After`] wait list to build cross-stream dependency graphs.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    /// The device whose engine ran the command.
    pub device: DeviceId,
    /// Which engine of the device the command occupied.
    pub engine: EngineKind,
    pub start_s: f64,
    pub end_s: f64,
    /// Process-wide command sequence number — the identity the timeline
    /// trace records, so checkers can resolve wait lists back to the
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

/// What a command waits for besides its own stream and engine.
#[derive(Debug, Clone, Copy)]
pub enum Order<'a> {
    /// Everything already scheduled on each device it touches (classic
    /// `clEnqueue*`).
    Device,
    /// Only these events (an OpenCL event wait list; empty waits for
    /// nothing).
    After(&'a [Event]),
}

/// One command as the scheduler sees it.
pub(crate) struct Command<'a> {
    pub(crate) device: &'a Device,
    /// The engine the command occupies; `None` (the marker) occupies none,
    /// is zero-width, and is recorded on the compute lane.
    pub(crate) engine: Option<EngineKind>,
    /// The in-order stream's tail clock and id; platform copies have none.
    pub(crate) stream: Option<(&'a VirtualClock, u64)>,
    pub(crate) kind: EventKind,
    pub(crate) duration_s: f64,
    pub(crate) order: Order<'a>,
    pub(crate) launch: Option<LaunchStats>,
    pub(crate) reads: Vec<AccessRange>,
    pub(crate) writes: Vec<AccessRange>,
    pub(crate) label: &'a str,
}

/// Time and record one command: the one place a device engine advances.
///
/// The command starts at the latest of the host clock at enqueue, the end
/// of every event it waits for, and its stream's tail; a device-ordered
/// command also waits for both engines of its device. Every command takes
/// one `seq`; when a record sink is active its record goes out as a group
/// of one.
pub(crate) fn schedule(shared: &PlatformShared, cmd: Command<'_>) -> Event {
    let (device_ordered, deps): (bool, &[Event]) = match cmd.order {
        Order::Device => (true, &[]),
        Order::After(deps) => (false, deps),
    };
    let enqueue_host_s = shared.host_clock.now_s();
    // Dependency-ready: the latest end among the events waited for (the
    // epoch when there are none).
    let deps_ready_s = deps.iter().map(|e| e.end_s).fold(0.0, f64::max);
    let mut not_before = enqueue_host_s.max(deps_ready_s);
    if let Some((tail, _)) = cmd.stream {
        not_before = not_before.max(tail.now_s());
    }
    if device_ordered {
        not_before = not_before.max(cmd.device.clock().now_s());
    }
    let engine = cmd.engine.unwrap_or(EngineKind::Compute);
    let (start_s, end_s) = match cmd.engine {
        Some(e) => cmd
            .device
            .clock()
            .engine(e)
            .advance_from(not_before, cmd.duration_s),
        None => (not_before, not_before),
    };
    if let Some((tail, _)) = cmd.stream {
        tail.sync_to(end_s);
    }
    let seq = shared.stats.next_seq();
    if shared.stats.sink_active() {
        let mut base = CommandRecord::interval(cmd.device.id(), engine, start_s, end_s)
            .with_seq(seq)
            .with_kind(CmdKind::from_event(cmd.kind))
            .at_enqueue(enqueue_host_s)
            .with_host_sync(shared.stats.host_synced_s())
            .with_label(cmd.label);
        if let Some((_, id)) = cmd.stream {
            base = base.on_stream(id);
        }
        if !device_ordered {
            base = base.asynchronous();
        }
        let record = base
            .with_deps(deps.iter().map(|e| e.seq).collect())
            .with_reads(cmd.reads)
            .with_writes(cmd.writes);
        shared.stats.record_group(&[record]);
    }
    Event {
        kind: cmd.kind,
        device: cmd.device.id(),
        engine,
        start_s,
        end_s,
        seq,
        launch: cmd.launch,
    }
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

    /// A command on this stream with no launch stats and no accesses; the
    /// entry points fill in the rest.
    fn command<'a>(
        &'a self,
        engine: Option<EngineKind>,
        kind: EventKind,
        duration_s: f64,
        order: Order<'a>,
        label: &'a str,
    ) -> Command<'a> {
        Command {
            device: &self.device,
            engine,
            stream: Some((&self.tail, self.stream_id)),
            kind,
            duration_s,
            order,
            launch: None,
            reads: Vec::new(),
            writes: Vec::new(),
            label,
        }
    }

    /// A zero-duration join point over everything already scheduled on this
    /// device (`clEnqueueMarker` semantics): later commands that wait for
    /// the marker are ordered after every command — on any stream, either
    /// engine — enqueued before it. It occupies no engine; the trace
    /// records it as a serializing zero-width record, which the hazard
    /// detector treats as a join over the device.
    pub fn enqueue_marker(&self) -> Event {
        schedule(
            &self.shared,
            self.command(None, EventKind::Marker, 0.0, Order::Device, "marker"),
        )
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

    /// Upload a host slice into a device buffer (`clEnqueueWriteBuffer`)
    /// on the copy engine. `at: None` writes the whole buffer (the lengths
    /// must match); `Some(o)` writes `[o, o + src.len())`. `concurrent` is
    /// the number of transfers sharing the host bus at this moment.
    pub fn enqueue_write<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        at: Option<usize>,
        src: &[T],
        concurrent: usize,
        order: Order<'_>,
    ) -> Result<Event> {
        self.check_device(buf)?;
        match at {
            None => buf.write_from_host(src)?,
            Some(o) => buf.write_range_from_host(o, src)?,
        }
        let bytes = std::mem::size_of_val(src);
        self.shared.stats.add_h2d(bytes);
        let dur = self.shared.topology.transfer_s(bytes, concurrent.max(1));
        let lo = (at.unwrap_or(0) * std::mem::size_of::<T>()) as u64;
        let writes = vec![AccessRange::new(buf.id(), lo, lo + bytes as u64)];
        let cmd = self.command(
            Some(EngineKind::Copy),
            EventKind::WriteBuffer,
            dur,
            order,
            "h2d",
        );
        Ok(schedule(&self.shared, Command { writes, ..cmd }))
    }

    /// Download a device buffer into a host slice (`clEnqueueReadBuffer`)
    /// on the copy engine; `at` and `concurrent` as for
    /// [`CommandQueue::enqueue_write`]. A `blocking` read makes the host
    /// clock wait for its completion.
    pub fn enqueue_read<T: Scalar>(
        &self,
        buf: &Buffer<T>,
        at: Option<usize>,
        dst: &mut [T],
        concurrent: usize,
        blocking: bool,
        order: Order<'_>,
    ) -> Result<Event> {
        self.check_device(buf)?;
        match at {
            None => buf.read_into_host(dst)?,
            Some(o) => buf.read_range_into_host(o, dst)?,
        }
        let bytes = std::mem::size_of_val(dst);
        self.shared.stats.add_d2h(bytes);
        let dur = self.shared.topology.transfer_s(bytes, concurrent.max(1));
        let lo = (at.unwrap_or(0) * std::mem::size_of::<T>()) as u64;
        let reads = vec![AccessRange::new(buf.id(), lo, lo + bytes as u64)];
        let cmd = self.command(
            Some(EngineKind::Copy),
            EventKind::ReadBuffer,
            dur,
            order,
            "d2h",
        );
        let ev = schedule(&self.shared, Command { reads, ..cmd });
        if blocking {
            self.shared.host_clock.sync_to(ev.end_s);
            self.shared.stats.note_host_sync(ev.end_s);
        }
        Ok(ev)
    }

    /// Device-side fill (`clEnqueueFillBuffer`), device-ordered: costs
    /// global-memory bandwidth but no PCIe traffic. SkelCL makes the device
    /// copies of a constant container (`Vector::filled`, `Matrix::zeroed`)
    /// this way instead of uploading them.
    pub fn enqueue_fill<T: Scalar>(&self, buf: &Buffer<T>, v: T) -> Result<Event> {
        self.check_device(buf)?;
        buf.fill(v);
        let dur = buf.size_bytes() as f64 / self.device.spec().mem_bandwidth_bytes_s;
        let writes = vec![AccessRange::whole(buf.id(), buf.size_bytes())];
        let cmd = self.command(
            Some(EngineKind::Copy),
            EventKind::FillBuffer,
            dur,
            Order::Device,
            "fill",
        );
        Ok(schedule(&self.shared, Command { writes, ..cmd }))
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

    /// Launch a kernel over an ND-range (`clEnqueueNDRangeKernel`); real
    /// execution happens on host threads, the modeled duration advances
    /// this device's compute engine.
    pub fn launch(&self, kernel: &CompiledKernel, nd: NDRange, order: Order<'_>) -> Result<Event> {
        // Track per-buffer access envelopes only when someone will consume
        // them — tracking costs a few branches per element access.
        let track = self.shared.stats.sink_active();
        let (stats, access) = exec::execute_traced(
            &self.device,
            &kernel.body,
            nd,
            self.profile.compute_efficiency,
            track,
        )?;
        let dur = stats.duration_s + self.profile.launch_cost_s(kernel.n_args);
        self.shared
            .stats
            .add_kernel(stats.max_cu_cycles, stats.global_bytes, dur);
        let cmd = self.command(
            Some(EngineKind::Compute),
            EventKind::Kernel,
            dur,
            order,
            &kernel.name,
        );
        Ok(schedule(
            &self.shared,
            Command {
                launch: Some(stats),
                reads: access.reads,
                writes: access.writes,
                ..cmd
            },
        ))
    }

    /// `clFinish`, device-wide: the host clock catches up with *everything*
    /// scheduled on this queue's device — on any stream, either engine —
    /// not just this stream's commands.
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
        q.enqueue_write(&buf, None, &[1.0, 2.0, 3.0, 4.0], 1, Order::Device)
            .unwrap();
        let mut out = [0.0f32; 4];
        q.enqueue_read(&buf, None, &mut out, 1, true, Order::Device)
            .unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn wrong_device_is_rejected() {
        let p = platform(2);
        let q0 = p.queue(0, DriverProfile::opencl());
        let buf1 = p.device(1).alloc::<f32>(4).unwrap();
        assert!(matches!(
            q0.enqueue_write(&buf1, None, &[0.0; 4], 1, Order::Device),
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
        let ev = q
            .enqueue_write(&buf, None, &data, 1, Order::Device)
            .unwrap();
        assert!(ev.duration_s() > 0.0);
        assert!(p.device(0).clock().now_s() > before);
        // Blocking read syncs the host clock too.
        let mut out = vec![0u8; 1 << 20];
        q.enqueue_read(&buf, None, &mut out, 1, true, Order::Device)
            .unwrap();
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
        let ev = q
            .launch(&kernel, NDRange::linear(100, 32), Order::Device)
            .unwrap();
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
        let e_ocl = ocl.launch(&k_ocl, nd, Order::Device).unwrap();
        let e_cuda = cuda.launch(&k_cuda, nd, Order::Device).unwrap();
        assert!(e_cuda.duration_s() < e_ocl.duration_s());
    }

    #[test]
    fn build_charges_the_host_clock_and_counts_stats() {
        // Its own cache directory: clearing the shared one races the
        // other tests building into it.
        let p = Platform::new(
            PlatformConfig::default()
                .spec(DeviceSpec::tiny())
                .cache_tag("queue-build-stats"),
        );
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
        q.enqueue_write(&buf, Some(3), &[7, 8, 9], 1, Order::Device)
            .unwrap();
        let mut out = [0u32; 3];
        q.enqueue_read(&buf, Some(3), &mut out, 1, true, Order::Device)
            .unwrap();
        assert_eq!(out, [7, 8, 9]);
        assert_eq!(buf.get(2), 0);
        let delta = p.stats_snapshot() - before;
        assert_eq!(delta.h2d_bytes, 12);
        assert_eq!(delta.d2h_bytes, 12);
        // Out-of-range is rejected.
        assert!(q
            .enqueue_write(&buf, Some(9), &[1, 2], 1, Order::Device)
            .is_err());
        assert!(q
            .enqueue_read(&buf, Some(9), &mut out, 1, true, Order::Device)
            .is_err());
    }

    #[test]
    fn non_blocking_read_defers_host_sync() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let mut out = vec![0u8; 1 << 20];
        q.enqueue_read(&buf, Some(0), &mut out, 1, false, Order::Device)
            .unwrap();
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
            .launch(&kernel, NDRange::linear(1 << 16, 64), Order::After(&[]))
            .unwrap();
        let w = copy
            .enqueue_write(&buf, None, &data, 1, Order::After(&[]))
            .unwrap();
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

        let w = copy
            .enqueue_write(&buf, None, &data, 1, Order::After(&[]))
            .unwrap();
        let kernel = nop_kernel(&compute, "dep");
        let k = compute
            .launch(
                &kernel,
                NDRange::linear(64, 64),
                Order::After(std::slice::from_ref(&w)),
            )
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
            .launch(&kernel, NDRange::linear(1 << 16, 64), Order::After(&[]))
            .unwrap();
        // Same stream: the write may not pass the kernel, despite running
        // on the other engine and having no event dependency.
        let w = q
            .enqueue_write(&buf, None, &data, 1, Order::After(&[]))
            .unwrap();
        assert!(w.start_s >= k.end_s, "in-order queue must not reorder");
    }

    #[test]
    fn same_engine_commands_serialize() {
        let p = platform(1);
        let a = p.queue(0, DriverProfile::opencl());
        let b = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        let data = vec![4u8; 1 << 20];
        let w1 = a
            .enqueue_write(&buf, None, &data, 1, Order::After(&[]))
            .unwrap();
        let w2 = b
            .enqueue_write(&buf, None, &data, 1, Order::After(&[]))
            .unwrap();
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
            .launch(&kernel, NDRange::linear(1 << 16, 64), Order::After(&[]))
            .unwrap();
        let w = copy
            .enqueue_write(&buf, None, &data, 1, Order::After(&[]))
            .unwrap();
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
            .launch(&kernel, NDRange::linear(1 << 16, 64), Order::After(&[]))
            .unwrap();
        // A device-serializing write waits for the in-flight kernel even
        // though the copy engine itself is idle.
        let w = copy
            .enqueue_write(&buf, None, &data, 1, Order::Device)
            .unwrap();
        assert!(w.start_s >= k.end_s, "legacy commands keep the old rule");
    }

    #[test]
    fn reset_clocks_rewinds_stream_tails() {
        let p = platform(1);
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
        q.enqueue_write(&buf, None, &vec![7u8; 1 << 20], 1, Order::Device)
            .unwrap();
        p.reset_clocks();
        // A fresh command must start at the epoch again — including the
        // queue's own in-order tail, not just the engine clocks.
        let w = q
            .enqueue_write(&buf, None, &vec![8u8; 1 << 20], 1, Order::Device)
            .unwrap();
        assert_eq!(w.start_s, 0.0);
    }

    #[test]
    fn timeline_trace_records_engines() {
        let p = platform(1);
        p.enable_timeline_trace();
        let q = p.queue(0, DriverProfile::opencl());
        let buf = p.device(0).alloc::<u8>(1024).unwrap();
        q.enqueue_write(&buf, None, &vec![9u8; 1024], 1, Order::Device)
            .unwrap();
        let kernel = nop_kernel(&q, "trace");
        q.launch(&kernel, NDRange::linear(64, 64), Order::Device)
            .unwrap();
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
