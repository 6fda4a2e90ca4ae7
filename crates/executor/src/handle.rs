//! Futures for submitted jobs: a [`JobHandle`] is the client's end of a
//! one-shot slot the dispatcher fills when the job's result is read back,
//! or with [`JobError::Cancelled`] if the dispatcher dies first.
//!
//! Built on `std::sync::{Mutex, Condvar}` — the handle is shared across
//! client threads and the dispatcher thread, and `wait` must block without
//! spinning.

use std::sync::{Arc, Condvar, Mutex};

use crate::job::JobOutput;

/// Why a submission was refused at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's bounded queue is at its configured depth — backpressure.
    /// The job was shed; the client should retry later or slow down.
    QueueFull { tenant: String, depth: usize },
    /// No tenant with this id was registered.
    UnknownTenant,
    /// The executor is draining for shutdown.
    ShuttingDown,
    /// The job's data does not match its declared shape (say, a `Jacobi`
    /// plate whose `data` is not `rows × cols` long). Nothing was queued.
    Malformed { kind: &'static str, reason: String },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { tenant, depth } => {
                write!(f, "tenant `{tenant}` queue full (depth {depth}); job shed")
            }
            SubmitError::UnknownTenant => write!(f, "unknown tenant id"),
            SubmitError::ShuttingDown => write!(f, "executor is shutting down"),
            SubmitError::Malformed { kind, reason } => write!(f, "malformed {kind} job: {reason}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an accepted job failed to produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The skeleton launch failed; carries the rendered `skelcl::Error`.
    Failed(String),
    /// The job was dropped unfinished: the dispatcher died (a panic on its
    /// thread) while the job was queued or in flight.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
            JobError::Cancelled => write!(
                f,
                "job cancelled: the dispatcher stopped before it finished"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job accounting attached to every completed job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Tenant the job ran under.
    pub tenant: String,
    /// Job kind label (`"axpb"`, `"rowsum"`, …).
    pub kind: &'static str,
    /// Virtual host time at `submit`.
    pub submit_s: f64,
    /// Virtual host time when the dispatcher began the launch.
    pub start_s: f64,
    /// Virtual time the result's async read-back completed.
    pub ready_s: f64,
    /// Number of jobs fused into the launch this job rode in (1 = solo).
    pub batched: usize,
    /// True when `reset_clocks` started a new epoch between submit and
    /// dispatch: `submit_s` is from the dead epoch, so `latency_s` falls
    /// back to service time only (`ready_s - start_s`).
    pub stale_epoch: bool,
}

impl JobReport {
    /// End-to-end latency in virtual seconds: queueing + service, or
    /// service only for jobs that straddled a clock epoch.
    pub fn latency_s(&self) -> f64 {
        let from = if self.stale_epoch {
            self.start_s
        } else {
            self.submit_s
        };
        (self.ready_s - from).max(0.0)
    }

    /// Time the job sat queued before the dispatcher picked it up
    /// (`submit` → launch start); 0 for jobs that straddled a clock epoch
    /// (their submit timestamp belongs to a dead clock).
    pub fn queue_wait_s(&self) -> f64 {
        if self.stale_epoch {
            0.0
        } else {
            (self.start_s - self.submit_s).max(0.0)
        }
    }

    /// Time from launch start to the result's read-back completing.
    pub fn service_s(&self) -> f64 {
        (self.ready_s - self.start_s).max(0.0)
    }
}

enum SlotState {
    Pending,
    Done(Result<(JobOutput, JobReport), JobError>),
    Taken,
}

/// The shared one-shot cell between dispatcher and client; only the first
/// fill counts.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn fill(&self, result: Result<(JobOutput, JobReport), JobError>) {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, SlotState::Pending) {
            *st = SlotState::Done(result);
            self.cv.notify_all();
        }
    }
}

/// The dispatcher's end of a job's slot. Dropping it unfilled completes the
/// job with [`JobError::Cancelled`]: a dispatcher that unwinds from a panic
/// drops every job it holds, and no client is left waiting.
pub(crate) struct Promise(Arc<Slot>);

impl Promise {
    /// A fresh pending job: the promise and the client's handle.
    pub(crate) fn pair() -> (Promise, JobHandle) {
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        });
        let handle = JobHandle {
            slot: Arc::clone(&slot),
        };
        (Promise(slot), handle)
    }

    pub(crate) fn fulfil(self, result: Result<(JobOutput, JobReport), JobError>) {
        self.0.fill(result);
    }
}

impl Drop for Promise {
    fn drop(&mut self) {
        self.0.fill(Err(JobError::Cancelled));
    }
}

/// The client's future for one submitted job. `wait` consumes the handle
/// and blocks until the dispatcher fills the slot.
pub struct JobHandle {
    slot: Arc<Slot>,
}

impl JobHandle {
    /// Block until the job completes; returns its output and report.
    pub fn wait(self) -> Result<(JobOutput, JobReport), JobError> {
        let mut st = self.slot.state.lock().unwrap();
        loop {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Pending => {
                    *st = SlotState::Pending;
                    st = self.slot.cv.wait(st).unwrap();
                }
                SlotState::Done(result) => return result,
                SlotState::Taken => unreachable!("JobHandle::wait consumed twice"),
            }
        }
    }

    /// Non-blocking peek: `true` once the dispatcher has filled the slot.
    pub fn is_done(&self) -> bool {
        !matches!(*self.slot.state.lock().unwrap(), SlotState::Pending)
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}
