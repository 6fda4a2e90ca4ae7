//! # skelcl-executor — multi-tenant skeleton serving
//!
//! The crates below this one answer "how do I run *one* skeleton fast on
//! the virtual platform?". This crate answers the serving question: many
//! clients, each with a stream of small jobs, sharing one set of devices
//! without trampling each other.
//!
//! Three layers:
//!
//! - **[`Job`] / [`JobHandle`]** — the typed job surface. A job owns its
//!   inputs (`Axpb`, `RowSum`, `Jacobi`, `MatMul` over the existing Map,
//!   ReduceRows, Stencil2D and AllPairs skeletons); `submit` returns a
//!   future the client `wait`s on for the output plus a [`JobReport`] with
//!   virtual-time latency accounting.
//! - **[`Executor`]** — per-tenant in-order streams forked off one shared
//!   platform ([`skelcl::Context::fork_streams`]): tenants share the
//!   device engines, the compiled-program registry (with per-tenant
//!   admission quotas) and the metrics registry, but their command streams
//!   are ordered independently, so one tenant's backlog does not order
//!   another tenant's work. Each tenant has a home device, and every job it
//!   submits runs there, so tenants with different homes run side by side.
//! - **Scheduling** — bounded per-tenant queues with shed-on-full
//!   backpressure, weighted round-robin dispatch (a flooding tenant only
//!   grows its own queue), and batch coalescing that fuses consecutive
//!   same-kernel/same-shape jobs into one launch. Single jobs run through
//!   the same fused path (a batch of one), so coalescing is bit-transparent
//!   by construction. Dispatch is pipelined per device: a coalesced batch
//!   reads back only after the next batch on its device has launched, so
//!   each device's transfers run under its kernels.
//!
//! Observability rides the `skelcl` metrics registry: `executor.*`
//! counters, per-tenant `executor.tenant.<name>.*` series (including a
//! `queue_depth` gauge) and `executor.latency_s` histograms with
//! p50/p90/p99, which the `fig_executor` bench feeds into `RunReport`.

pub mod handle;
pub mod job;
pub mod service;

pub use handle::{JobError, JobHandle, JobReport, SubmitError};
pub use job::{run_batch, run_job, Job, JobOutput};
pub use service::{Executor, ExecutorConfig, SchedulingMode, TenantId};
