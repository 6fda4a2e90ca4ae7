//! Timeline invariants of the async multi-queue subsystem: whatever mix of
//! streams, events and scheduling disciplines a workload uses, the modeled
//! timeline must stay physical — one command at a time per engine, causes
//! before effects, and the legacy discipline exactly serial.

use std::sync::Arc;
use vgpu::{
    verify_engine_exclusive, CommandRecord, DeviceSpec, DriverProfile, EngineKind, KernelBody,
    NDRange, Order, Platform, PlatformConfig, Program, WorkGroup,
};

fn platform(n: usize) -> Platform {
    Platform::new(
        PlatformConfig::default()
            .devices(n)
            .spec(DeviceSpec::tiny())
            .cache_tag("timeline-invariants"),
    )
}

/// No two commands may overlap on the same engine of one device (the
/// shared [`verify_engine_exclusive`] checker, asserted).
fn assert_no_engine_overlap(trace: &[CommandRecord]) {
    if let Some(violation) = verify_engine_exclusive(trace) {
        panic!("{violation}");
    }
}

fn nop_kernel(
    p: &Platform,
    device: usize,
    work: u64,
) -> (vgpu::CommandQueue, vgpu::CompiledKernel) {
    let q = p.queue(device, DriverProfile::opencl());
    let program = Program::from_source("busy", format!("__kernel void busy() {{ /* {work} */ }}"));
    let body: KernelBody = Arc::new(move |wg: &WorkGroup| {
        wg.for_each_item(|it| it.work(work));
    });
    let kernel = q.build_kernel(&program, body).unwrap();
    (q, kernel)
}

#[test]
fn async_mix_never_double_books_an_engine() {
    let p = platform(2);
    p.enable_timeline_trace();
    let (q0, k0) = nop_kernel(&p, 0, 100_000);
    let (q1, k1) = nop_kernel(&p, 1, 80_000);
    let copy0 = p.queue(0, DriverProfile::opencl());
    let copy1 = p.queue(1, DriverProfile::opencl());

    let a = p.device(0).alloc::<f32>(1 << 16).unwrap();
    let b = p.device(1).alloc::<f32>(1 << 16).unwrap();
    let host = vec![1.0f32; 1 << 16];

    // A tangle of async and legacy commands across both devices.
    let wa = copy0
        .enqueue_write(&a, None, &host, 1, Order::After(&[]))
        .unwrap();
    let ka = q0
        .launch(
            &k0,
            NDRange::linear(1 << 10, 64),
            Order::After(std::slice::from_ref(&wa)),
        )
        .unwrap();
    let wb = copy1
        .enqueue_write(&b, None, &host, 1, Order::After(&[]))
        .unwrap();
    let kb = q1
        .launch(&k1, NDRange::linear(1 << 10, 64), Order::After(&[wb]))
        .unwrap();
    // `a`'s bytes cross to `b` through the host: a read on device 0's copy
    // stream, then a write on device 1's that waits for it.
    let mut staged = vec![0.0f32; 1 << 16];
    let down = copy0
        .enqueue_read(
            &a,
            None,
            &mut staged,
            2,
            false,
            Order::After(std::slice::from_ref(&ka)),
        )
        .unwrap();
    let cab = copy1
        .enqueue_write(&b, None, &staged, 2, Order::After(&[down, kb.clone()]))
        .unwrap();
    q0.enqueue_write(&a, None, &host, 1, Order::Device).unwrap(); // legacy, device-serializing
    let mut out = vec![0.0f32; 1 << 16];
    copy1
        .enqueue_read(
            &b,
            Some(0),
            &mut out,
            1,
            false,
            Order::After(std::slice::from_ref(&cab)),
        )
        .unwrap();
    q1.launch(&k1, NDRange::linear(1 << 10, 64), Order::Device)
        .unwrap();
    q0.finish();
    q1.finish();

    // Dependencies are respected on top of engine exclusivity.
    assert!(ka.start_s >= wa.end_s);
    assert!(cab.start_s >= ka.end_s.max(kb.end_s));
    assert_no_engine_overlap(&p.take_timeline_trace());
}

#[test]
fn legacy_discipline_is_fully_serial_per_device() {
    // The pre-stream behaviour: every legacy command starts only after the
    // previous one ended, regardless of which engine either occupies.
    let p = platform(1);
    let (q, k) = nop_kernel(&p, 0, 50_000);
    let buf = p.device(0).alloc::<f32>(1 << 14).unwrap();
    let host = vec![2.0f32; 1 << 14];
    let mut out = vec![0.0f32; 1 << 14];

    let mut last_end = 0.0f64;
    let evs = [
        q.enqueue_write(&buf, None, &host, 1, Order::Device)
            .unwrap(),
        q.launch(&k, NDRange::linear(1 << 10, 64), Order::Device)
            .unwrap(),
        q.enqueue_fill(&buf, 0.5).unwrap(),
        q.launch(&k, NDRange::linear(1 << 10, 64), Order::Device)
            .unwrap(),
        q.enqueue_read(&buf, None, &mut out, 1, true, Order::Device)
            .unwrap(),
    ];
    for ev in evs {
        assert!(
            ev.start_s >= last_end,
            "legacy command reordered: starts {} before {}",
            ev.start_s,
            last_end
        );
        last_end = ev.end_s;
    }
}

#[test]
fn async_copy_occupies_its_device_copy_engine() {
    let p = platform(2);
    p.enable_timeline_trace();
    let a = p.device(1).alloc::<f32>(1 << 14).unwrap();
    let b = p.device(1).alloc::<f32>(1 << 14).unwrap();
    let ev = p.copy(&a, 0, &b, 0, a.len(), Order::After(&[])).unwrap();
    let trace = p.take_timeline_trace();
    // One record, on the copy engine of the buffers' device.
    assert_eq!(trace.len(), 1);
    let r = &trace[0];
    assert_eq!(r.engine, EngineKind::Copy);
    assert_eq!((r.start_s, r.end_s), (ev.start_s, ev.end_s));
    assert_eq!(r.device, b.device());
    assert_eq!(p.device(0).clock().now_s(), 0.0, "the other device is idle");
}

#[test]
fn copies_overlap_kernels_only_when_async() {
    let p = platform(1);
    let (q, k) = nop_kernel(&p, 0, 500_000);
    let copy = p.queue(0, DriverProfile::opencl());
    let buf = p.device(0).alloc::<u8>(1 << 20).unwrap();
    let host = vec![3u8; 1 << 20];

    let kernel_ev = q
        .launch(&k, NDRange::linear(1 << 12, 64), Order::After(&[]))
        .unwrap();
    let async_copy = copy
        .enqueue_write(&buf, None, &host, 1, Order::After(&[]))
        .unwrap();
    assert!(
        async_copy.start_s < kernel_ev.end_s,
        "async copy must slide under the kernel"
    );
    let legacy_copy = copy
        .enqueue_write(&buf, None, &host, 1, Order::Device)
        .unwrap();
    assert!(
        legacy_copy.start_s >= kernel_ev.end_s,
        "legacy copy must wait for the kernel"
    );
}
