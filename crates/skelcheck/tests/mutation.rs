//! Mutation-style negative tests: hand-built timelines modelled on the
//! three real async patterns in the codebase — a stencil's halo exchange,
//! streamed (chunked) uploads, and the executor's cross-tenant result copy
//! — each with its one load-bearing dependency edge either present (the
//! detector must stay silent) or dropped (the detector must report exactly
//! that pair, and nothing else).

use skelcheck::{find_buffer_hazards, verify_no_buffer_hazards, HazardKind};
use vgpu::{AccessRange, BufferId, CommandRecord, DeviceId, EngineKind};

fn kernel(seq: u64, dev: usize, start: f64, end: f64) -> CommandRecord {
    CommandRecord::interval(DeviceId(dev), EngineKind::Compute, start, end).with_seq(seq)
}

fn xfer(seq: u64, dev: usize, start: f64, end: f64) -> CommandRecord {
    CommandRecord::interval(DeviceId(dev), EngineKind::Copy, start, end).with_seq(seq)
}

fn whole(b: u64, bytes: u64) -> AccessRange {
    AccessRange::new(BufferId(b), 0, bytes)
}

fn range(b: u64, lo: u64, hi: u64) -> AccessRange {
    AccessRange::new(BufferId(b), lo, hi)
}

/// Halo exchange: device 0's producer kernel writes its part buffer; an
/// async copy then moves the boundary rows into device 1's halo-extended
/// buffer. The copy must depend on the producer's event — drop that edge
/// and the copy may read the part before the kernel wrote it.
fn halo_exchange(with_producer_dep: bool) -> Vec<CommandRecord> {
    let part0 = 10; // device 0's owned part
    let ext1 = 11; // device 1's halo-extended input
    let out1 = 12;
    let copy_deps = if with_producer_dep { vec![1] } else { vec![] };
    vec![
        // producer: fills device 0's part, async on stream 0.
        kernel(1, 0, 0.0, 1.0)
            .on_stream(0)
            .asynchronous()
            .with_writes(vec![whole(part0, 4096)])
            .with_label("produce_part0"),
        // halo copy: last 64 bytes of part0 -> head of ext1.
        xfer(2, 0, 1.0, 1.2)
            .on_stream(1)
            .asynchronous()
            .with_deps(copy_deps)
            .with_reads(vec![range(part0, 4032, 4096)])
            .with_writes(vec![range(ext1, 0, 64)])
            .with_label("halo_d2d"),
        // consumer stencil on device 1, gated on the halo copy.
        kernel(3, 1, 1.2, 2.2)
            .on_stream(2)
            .asynchronous()
            .with_deps(vec![2])
            .with_reads(vec![whole(ext1, 4224)])
            .with_writes(vec![whole(out1, 4096)])
            .with_label("stencil_dev1"),
    ]
}

#[test]
fn halo_exchange_with_producer_dep_is_clean() {
    assert_eq!(verify_no_buffer_hazards(&halo_exchange(true)), None);
}

#[test]
fn dropping_the_halo_producer_dep_reports_exactly_that_pair() {
    let hazards = find_buffer_hazards(&halo_exchange(false));
    assert_eq!(hazards.len(), 1, "{hazards:?}");
    let h = &hazards[0];
    assert_eq!(h.kind, HazardKind::Raw);
    assert_eq!(h.buffer, BufferId(10));
    assert_eq!((h.first.seq, h.second.seq), (1, 2));
    assert_eq!(h.first.label, "produce_part0");
    assert_eq!(h.second.label, "halo_d2d");
    // the overlap window is the halo rows, not the whole part.
    assert_eq!((h.lo, h.hi), (4032, 4096));
}

/// Streamed upload: chunks of one host buffer go up on alternating streams
/// while a kernel per chunk consumes them. Each kernel is gated on *its*
/// chunk's upload event. Dropping one gate leaves that kernel's read
/// unordered against the upload that fills it.
fn streamed_upload(gate_chunk1: bool) -> Vec<CommandRecord> {
    let buf = 20;
    let out = 21;
    let k1_deps = if gate_chunk1 { vec![2] } else { vec![] };
    vec![
        xfer(1, 0, 0.0, 0.5)
            .on_stream(0)
            .asynchronous()
            .with_writes(vec![range(buf, 0, 2048)])
            .with_label("h2d_chunk0"),
        xfer(2, 0, 0.5, 1.0)
            .on_stream(1)
            .asynchronous()
            .with_writes(vec![range(buf, 2048, 4096)])
            .with_label("h2d_chunk1"),
        // consumers run on their own compute streams: the upload events
        // are the only thing ordering them against the copies.
        kernel(3, 0, 0.5, 1.0)
            .on_stream(2)
            .asynchronous()
            .with_deps(vec![1])
            .with_reads(vec![range(buf, 0, 2048)])
            .with_writes(vec![range(out, 0, 2048)])
            .with_label("consume_chunk0"),
        kernel(4, 0, 1.0, 1.5)
            .on_stream(3)
            .asynchronous()
            .with_deps(k1_deps)
            .with_reads(vec![range(buf, 2048, 4096)])
            .with_writes(vec![range(out, 2048, 4096)])
            .with_label("consume_chunk1"),
    ]
}

#[test]
fn streamed_upload_with_chunk_gates_is_clean() {
    assert_eq!(verify_no_buffer_hazards(&streamed_upload(true)), None);
}

#[test]
fn dropping_one_chunk_gate_reports_exactly_that_pair() {
    let hazards = find_buffer_hazards(&streamed_upload(false));
    assert_eq!(hazards.len(), 1, "{hazards:?}");
    let h = &hazards[0];
    assert_eq!(h.kind, HazardKind::Raw);
    assert_eq!(h.buffer, BufferId(20));
    assert_eq!((h.first.seq, h.second.seq), (2, 4));
    assert_eq!(h.first.label, "h2d_chunk1");
    assert_eq!(h.second.label, "consume_chunk1");
    // chunk 0's pairing stays ordered: only the mutated edge is reported.
    assert_eq!((h.lo, h.hi), (2048, 4096));
}

/// Executor cross-tenant flow: tenant A's job reads a staging buffer while
/// the service recycles it for tenant B by overwriting it with B's input.
/// The recycle copy must wait on A's job event — dropping that edge is a
/// write-after-read race on the staging buffer.
fn cross_tenant_recycle(with_job_dep: bool) -> Vec<CommandRecord> {
    let staging = 30;
    let a_out = 31;
    let recycle_deps = if with_job_dep { vec![1] } else { vec![] };
    vec![
        kernel(1, 2, 0.0, 1.0)
            .on_stream(5)
            .asynchronous()
            .with_reads(vec![whole(staging, 8192)])
            .with_writes(vec![whole(a_out, 1024)])
            .with_label("tenant_a_job"),
        xfer(2, 2, 1.0, 1.4)
            .on_stream(6)
            .asynchronous()
            .with_deps(recycle_deps)
            .with_writes(vec![whole(staging, 8192)])
            .with_label("tenant_b_upload"),
        kernel(3, 2, 1.4, 2.0)
            .on_stream(6)
            .asynchronous()
            .with_reads(vec![whole(staging, 8192)])
            .with_label("tenant_b_job"),
    ]
}

#[test]
fn cross_tenant_recycle_with_job_dep_is_clean() {
    assert_eq!(verify_no_buffer_hazards(&cross_tenant_recycle(true)), None);
}

#[test]
fn dropping_the_cross_tenant_dep_reports_exactly_that_pair() {
    let hazards = find_buffer_hazards(&cross_tenant_recycle(false));
    assert_eq!(hazards.len(), 1, "{hazards:?}");
    let h = &hazards[0];
    assert_eq!(h.kind, HazardKind::War);
    assert_eq!(h.buffer, BufferId(30));
    assert_eq!((h.first.seq, h.second.seq), (1, 2));
    assert_eq!(h.first.label, "tenant_a_job");
    assert_eq!(h.second.label, "tenant_b_upload");
}

/// The verify wrapper's report must carry enough to debug from: kind,
/// buffer, byte window and both command labels.
#[test]
fn hazard_reports_are_self_describing() {
    let msg = verify_no_buffer_hazards(&halo_exchange(false)).expect("mutant must be caught");
    assert!(msg.contains("RAW"), "{msg}");
    assert!(msg.contains("produce_part0"), "{msg}");
    assert!(msg.contains("halo_d2d"), "{msg}");
    assert!(msg.contains("buf10"), "{msg}");
}
