//! The executor-service figure: what the multi-tenant layer buys — and
//! costs — when 10³ synthetic clients share four devices.
//!
//! * **Throughput leg** — 16 tenants × 64 jobs = 1024 concurrent client
//!   submissions of small per-client `a·x + b` kernels, dispatched with
//!   batch coalescing (`max_batch` 16) vs without (`max_batch` 1) on
//!   otherwise identical executors. Coalescing must win on jobs/sec, and
//!   both dispatch modes must return outputs bit-identical to each other
//!   and to serial single-job execution.
//! * **Fairness leg** — one device, a saturating tenant pre-loads 256
//!   large jobs ahead of three polite tenants' 16 small jobs each (the
//!   worst arrival order for FIFO). Weighted round-robin must keep the
//!   polite tenants' p99 latency a small multiple of a service time while
//!   FIFO makes them wait out the flood — the saturating tenant cannot
//!   starve others.
//!
//! Each measured run prints a `RunReport` summary line (utilization,
//! % of modeled peak, p50/p99 latency). Reports virtual seconds.

use criterion::{criterion_group, criterion_main, Criterion};
use skelcl_bench::{
    executor_client_job, run_executor_fairness_leg, run_executor_throughput_leg, ExecutorLeg,
    FairnessLeg, VirtualSweep,
};
use skelcl_executor::{run_job, JobOutput, SchedulingMode};
use std::cell::RefCell;
use std::collections::HashMap;

const DEVICES: usize = 4;
const TENANTS: usize = 16;
const JOBS_PER_TENANT: usize = 64;

fn bits(out: &JobOutput) -> Vec<u32> {
    match out {
        JobOutput::Scalar(s) => vec![s.to_bits()],
        JobOutput::Vector(v) => v.iter().map(|x| x.to_bits()).collect(),
        JobOutput::Matrix { data, .. } => data.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Every job of the throughput workload, re-run alone on a private
/// context, must match the served output bit for bit.
fn assert_serial_bit_identity(leg: &ExecutorLeg) {
    let ctx = skelcl::Context::new(
        skelcl::ContextConfig::default()
            .devices(DEVICES)
            .cache_tag("fig-executor-serial"),
    );
    let mut i = 0;
    for j in 0..JOBS_PER_TENANT {
        for t in 0..TENANTS {
            let job = executor_client_job(t, j, 512);
            let (expect, _) = run_job(&ctx, t % DEVICES, &job).unwrap();
            assert_eq!(
                bits(&leg.outputs[i]),
                bits(&expect),
                "served output for client {t} job {j} diverged from serial execution"
            );
            i += 1;
        }
    }
}

fn bench_executor(c: &mut Criterion) {
    let sweep = VirtualSweep::new();
    let legs: RefCell<HashMap<&'static str, ExecutorLeg>> = RefCell::new(HashMap::new());
    let fairness: RefCell<HashMap<&'static str, FairnessLeg>> = RefCell::new(HashMap::new());
    let mut group = VirtualSweep::group(c, "fig_executor_virtual");

    for (name, coalesced) in [("uncoalesced", false), ("coalesced", true)] {
        sweep.bench(
            &mut group,
            format!("serve_{TENANTS}x{JOBS_PER_TENANT}_{name}"),
            DEVICES,
            (TENANTS * JOBS_PER_TENANT, DEVICES, name),
            || {
                let leg = run_executor_throughput_leg(DEVICES, TENANTS, JOBS_PER_TENANT, coalesced);
                let makespan = leg.makespan_s;
                legs.borrow_mut().insert(name, leg);
                makespan
            },
        );
    }
    for (name, mode) in [
        ("fifo", SchedulingMode::Fifo),
        ("wrr", SchedulingMode::WeightedRoundRobin),
    ] {
        sweep.bench(
            &mut group,
            format!("fairness_polite_p99_{name}"),
            1,
            (256, 1, name),
            || {
                let leg = run_executor_fairness_leg(mode);
                let p99 = leg.polite_p99_s;
                fairness.borrow_mut().insert(name, leg);
                p99
            },
        );
    }
    group.finish();

    // --- acceptance: coalescing wins on throughput -----------------------
    let legs = legs.into_inner();
    let (unc, coa) = (&legs["uncoalesced"], &legs["coalesced"]);
    let n_jobs = TENANTS * JOBS_PER_TENANT;
    assert!(
        coa.jobs_per_s > unc.jobs_per_s,
        "coalescing must raise throughput: {:.1} vs {:.1} jobs/s",
        coa.jobs_per_s,
        unc.jobs_per_s
    );
    assert!(
        coa.batches < unc.batches,
        "coalescing must reduce launches: {} vs {} batches for {n_jobs} jobs",
        coa.batches,
        unc.batches
    );
    assert_eq!(
        unc.batches as usize, n_jobs,
        "max_batch=1 launches every job alone"
    );
    println!(
        "fig_executor check: {n_jobs} jobs x{DEVICES} device(s): uncoalesced {:.1} jobs/s \
         (p99 {:.3e} s), coalesced {:.1} jobs/s (p99 {:.3e} s), {:.2}x throughput in {} launches",
        unc.jobs_per_s,
        unc.latency.p99.unwrap_or(0.0),
        coa.jobs_per_s,
        coa.latency.p99.unwrap_or(0.0),
        coa.jobs_per_s / unc.jobs_per_s,
        coa.batches,
    );

    // --- acceptance: serving is bit-transparent --------------------------
    assert_eq!(coa.outputs.len(), n_jobs);
    assert_eq!(unc.outputs.len(), n_jobs);
    for (i, (a, b)) in coa.outputs.iter().zip(&unc.outputs).enumerate() {
        assert_eq!(
            bits(a),
            bits(b),
            "coalesced and uncoalesced outputs diverged at job {i}"
        );
    }
    assert_serial_bit_identity(coa);
    println!("fig_executor check: all {n_jobs} outputs bit-identical across coalesced, uncoalesced and serial execution");

    // --- acceptance: a saturating tenant cannot starve others ------------
    let fairness = fairness.into_inner();
    let (fifo, wrr) = (&fairness["fifo"], &fairness["wrr"]);
    assert_eq!(wrr.polite_done, fifo.polite_done);
    assert_eq!(
        wrr.hog_done, 256,
        "the hog itself must not be starved either"
    );
    assert!(
        wrr.polite_p99_s < fifo.polite_p99_s / 2.0,
        "round-robin must bound polite-tenant p99 under a flood: wrr {:.3e} s vs fifo {:.3e} s",
        wrr.polite_p99_s,
        fifo.polite_p99_s
    );
    println!(
        "fig_executor check: polite p99 under 256-job flood: fifo {:.3e} s, wrr {:.3e} s \
         ({:.1}x isolation); hog p99 fifo {:.3e} s, wrr {:.3e} s",
        fifo.polite_p99_s,
        wrr.polite_p99_s,
        fifo.polite_p99_s / wrr.polite_p99_s,
        fifo.hog_p99_s,
        wrr.hog_p99_s,
    );

    // Perf ledger: persist all four legs when SKELCL_LEDGER_DIR is set
    // (see skelcl_bench::ledger).
    skelcl_bench::ledger::write_fig("fig_executor");
}

criterion_group! {
    name = benches;
    // Virtual-time samples have zero variance, which breaks the plotting
    // backend; plots add nothing here anyway.
    config = Criterion::default().without_plots();
    targets = bench_executor
}
criterion_main!(benches);
