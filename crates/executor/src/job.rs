//! The typed job surface of the executor service.
//!
//! A [`Job`] is a self-contained work request: the kind of skeleton to run
//! plus **owned** input data, so a client thread can hand it to the service
//! and walk away. Execution happens on the dispatcher thread through the
//! two phases of [`run_batch`] (launch, then read-back), the *only* launch
//! primitive — a single job is a batch of one, so coalesced and uncoalesced
//! dispatch share every code path that touches the device and results are
//! bit-identical either way.
//!
//! Batching model: jobs that report the same [`Job::coalesce_key`] (same
//! kind, same shape, same scalar parameters) may be merged into one launch.
//! The merge stacks each job's vector as one row of a `k × n` matrix and
//! runs the matrix form of the skeleton once: `k` small `Map`s become one
//! `Map::apply_matrix`, `k` small row-sums become one `ReduceRows::apply`
//! over `k` rows. Because `Map` is element-wise and `ReduceRows` folds each
//! row independently in a canonical ascending order, row `i` of the fused
//! launch is bit-identical to running job `i` alone.

use skelcl::{Context, Matrix, MatrixDistribution, Result, Vector};
use vgpu::Event;

use crate::handle::SubmitError;

/// One unit of work a tenant can submit.
///
/// Inputs are owned (`Vec<f32>`) so submission transfers the data to the
/// service; nothing borrows from the client after `submit` returns.
#[derive(Debug, Clone)]
pub enum Job {
    /// Element-wise `a·x + b` over a vector (Map skeleton).
    Axpb { a: f32, b: f32, data: Vec<f32> },
    /// Sum of a vector via the canonical row-fold (ReduceRows skeleton).
    RowSum { data: Vec<f32> },
    /// `iters` Jacobi heat-relaxation steps over a `rows × cols` plate
    /// (Stencil2D skeleton, device-resident ping-pong).
    Jacobi {
        rows: usize,
        cols: usize,
        iters: usize,
        data: Vec<f32>,
    },
    /// `m×k · k×n` matrix product (AllPairs skeleton, streamed
    /// B-replication when B is host-fresh).
    MatMul {
        m: usize,
        k: usize,
        n: usize,
        a: Vec<f32>,
        b: Vec<f32>,
    },
}

/// The result payload of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    Vector(Vec<f32>),
    Scalar(f32),
    Matrix {
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    },
}

impl Job {
    /// Short static label for spans and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Axpb { .. } => "axpb",
            Job::RowSum { .. } => "rowsum",
            Job::Jacobi { .. } => "jacobi",
            Job::MatMul { .. } => "matmul",
        }
    }

    /// Two jobs with equal keys may ride the same fused launch; `None`
    /// means the job never coalesces. Scalar parameters enter the key by
    /// bit pattern because each distinct `(a, b)` pair is a distinct
    /// generated program.
    pub fn coalesce_key(&self) -> Option<(u8, usize, u32, u32)> {
        match self {
            Job::Axpb { a, b, data } => Some((0, data.len(), a.to_bits(), b.to_bits())),
            Job::RowSum { data } => Some((1, data.len(), 0, 0)),
            Job::Jacobi { .. } | Job::MatMul { .. } => None,
        }
    }

    /// Check that every matrix operand holds exactly its declared
    /// `rows × cols` elements. `submit` refuses a job that fails this, so
    /// a malformed job never reaches the dispatcher.
    pub(crate) fn check_shape(&self) -> std::result::Result<(), SubmitError> {
        let expect = |what: &str, len: usize, rows: usize, cols: usize| {
            if rows.checked_mul(cols) == Some(len) {
                Ok(())
            } else {
                Err(SubmitError::Malformed {
                    kind: self.kind(),
                    reason: format!("`{what}` has {len} elements, expected {rows}×{cols}"),
                })
            }
        };
        match self {
            Job::Axpb { .. } | Job::RowSum { .. } => Ok(()),
            Job::Jacobi {
                rows, cols, data, ..
            } => expect("data", data.len(), *rows, *cols),
            Job::MatMul { m, k, n, a, b } => {
                expect("a", a.len(), *m, *k)?;
                expect("b", b.len(), *k, *n)
            }
        }
    }
}

fn axpb_user_fn(a: f32, b: f32) -> skelcl::UserFn<impl Fn(f32) -> f32 + Clone> {
    // One generated program per (a, b) pair: the scalars are baked into the
    // kernel body, so distinct pairs exercise the shared program registry
    // (and its admission control) rather than one kernel with arguments.
    let name = format!("axpb_{:08x}_{:08x}", a.to_bits(), b.to_bits());
    let source = format!("float {name}(float x) {{ return {a:?}f * x + {b:?}f; }}");
    skelcl::UserFn::new(name, source, move |x: f32| a * x + b)
}

fn row_sum() -> skelcl::ReduceRows<f32, fn(f32, f32) -> f32> {
    skelcl::ReduceRows::new(
        skelcl::skel_fn!(
            fn sum(x: f32, y: f32) -> f32 {
                x + y
            }
        ),
        0.0f32,
    )
}

/// Whether launching a batch led by `job` builds a program that `ctx`'s
/// registry does not hold yet. A build moves the host clock forward, so it
/// delays every command enqueued after it.
pub(crate) fn builds(ctx: &Context, job: &Job) -> bool {
    let program = match job {
        Job::Axpb { data, .. } | Job::RowSum { data } if data.is_empty() => return false,
        Job::Axpb { a, b, .. } => skelcl::Map::<f32, f32, _>::new(axpb_user_fn(*a, *b))
            .program()
            .clone(),
        Job::RowSum { .. } => row_sum().program().clone(),
        Job::Jacobi { .. } => skelcl_iterative::skelcl_impl::heat_skeleton()
            .program()
            .clone(),
        Job::MatMul { .. } => {
            skelcl_linalg::skelcl_impl::matmul_skeleton()
                .program_on(ctx)
                .0
        }
    };
    !ctx.program_registry().contains(&program)
}

/// Run one job. Defined as a batch of one so the single-job path *is* the
/// batched path — the bit-identity guarantee is structural, not tested-in.
pub fn run_job(ctx: &Context, home: usize, job: &Job) -> Result<(JobOutput, f64)> {
    let mut out = run_batch(ctx, home, std::slice::from_ref(job))?;
    Ok(out.pop().expect("run_batch returns one output per job"))
}

/// Execute `jobs` as one fused launch on `ctx`, homed on device `home`:
/// every kind's input is placed on `MatrixDistribution::Single(home)`, so
/// the whole batch runs on that one device. All jobs must share the first
/// job's `coalesce_key` (the dispatcher guarantees this; non-coalescable
/// kinds arrive as batches of one). Returns `(output, ready_s)` per job in
/// submission order, where `ready_s` is the virtual time the result's
/// read-back completes — an asynchronous read, so the host clock is never
/// synced and concurrent tenants keep overlapping.
///
/// A batch runs in two phases, `launch` and `Launched::read_back`;
/// this runs them back to back. The dispatcher runs them apart, so the
/// next batch on the device launches before this one reads back.
pub fn run_batch(ctx: &Context, home: usize, jobs: &[Job]) -> Result<Vec<(JobOutput, f64)>> {
    launch(ctx, home, jobs)?.read_back()
}

/// A batch whose kernel is enqueued; its output is still on the device.
pub(crate) struct Launched {
    out: Out,
    /// A marker on the home device right after the batch's kernel. The
    /// read-back waits for it, and so for nothing enqueued later. `None`
    /// when the batch did no device work.
    fence: Option<Event>,
}

/// A launched batch's result.
enum Out {
    /// Empty inputs, so no device work: each job's output and ready time.
    Ready(Vec<(JobOutput, f64)>),
    /// Row `i` is job `i`'s vector (`Axpb`).
    Rows(Matrix<f32>),
    /// Element `i` is job `i`'s sum (`RowSum`).
    Sums(Vector<f32>),
    /// The one job's matrix (`Jacobi`, `MatMul`).
    Matrix(Matrix<f32>),
}

/// The launch phase of [`run_batch`]: upload the inputs, enqueue the
/// kernel, and take the fence. The coalescable kinds upload on the tenant's
/// copy stream, ordered by events only, so the upload runs under whatever
/// kernel the device is still busy with. `Jacobi` and `MatMul` upload
/// inside their skeletons. The inputs are dropped on return, and only the
/// output stays on the device.
pub(crate) fn launch(ctx: &Context, home: usize, jobs: &[Job]) -> Result<Launched> {
    assert!(!jobs.is_empty(), "run_batch needs at least one job");
    let out = match &jobs[0] {
        Job::Axpb { a, b, data } => {
            if data.is_empty() {
                return Ok(Launched::ready(ctx, jobs, JobOutput::Vector(vec![])));
            }
            let input = stack_rows(ctx, home, jobs, data.len())?;
            Out::Rows(skelcl::Map::new(axpb_user_fn(*a, *b)).apply_matrix(&input)?)
        }
        Job::RowSum { data } => {
            if data.is_empty() {
                return Ok(Launched::ready(ctx, jobs, JobOutput::Scalar(0.0)));
            }
            let input = stack_rows(ctx, home, jobs, data.len())?;
            Out::Sums(row_sum().apply(&input)?)
        }
        Job::Jacobi {
            rows,
            cols,
            iters,
            data,
        } => {
            assert_eq!(jobs.len(), 1, "jacobi jobs never coalesce");
            let plate = Matrix::from_vec(ctx, *rows, *cols, data.clone());
            plate.set_distribution(MatrixDistribution::Single(home))?;
            Out::Matrix(skelcl_iterative::skelcl_impl::heat_skeleton().iterate(&plate, *iters)?)
        }
        Job::MatMul { m, k, n, a, b } => {
            assert_eq!(jobs.len(), 1, "matmul jobs never coalesce");
            let a_mat = Matrix::from_vec(ctx, *m, *k, a.clone());
            a_mat.set_distribution(MatrixDistribution::Single(home))?;
            let b_mat = Matrix::from_vec(ctx, *k, *n, b.clone());
            Out::Matrix(skelcl_linalg::skelcl_impl::matmul_skeleton().apply(&a_mat, &b_mat)?)
        }
    };
    Ok(Launched {
        out,
        fence: Some(ctx.queue(home).enqueue_marker()),
    })
}

/// Stack each job's `n`-element vector as one row of a `jobs.len() × n`
/// matrix on device `home`, uploaded in one chunk on the copy stream.
fn stack_rows(ctx: &Context, home: usize, jobs: &[Job], n: usize) -> Result<Matrix<f32>> {
    let key = jobs[0].coalesce_key();
    let mut flat = Vec::with_capacity(jobs.len() * n);
    for job in jobs {
        match job {
            Job::Axpb { data, .. } | Job::RowSum { data } if job.coalesce_key() == key => {
                flat.extend_from_slice(data)
            }
            other => panic!("mixed batch: {} with {}", jobs[0].kind(), other.kind()),
        }
    }
    let input = Matrix::from_vec(ctx, jobs.len(), n, flat);
    input.set_distribution(MatrixDistribution::Single(home))?;
    input.ensure_on_devices_streamed(jobs.len())?;
    Ok(input)
}

impl Launched {
    /// A batch that needs no device work: every job's output is `out`.
    fn ready(ctx: &Context, jobs: &[Job], out: JobOutput) -> Launched {
        let now = ctx.host_now_s();
        Launched {
            out: Out::Ready(jobs.iter().map(|_| (out.clone(), now)).collect()),
            fence: None,
        }
    }

    /// The read-back phase of [`run_batch`]: download the output once the
    /// fence is reached. Returns `(output, ready_s)` per job in submission
    /// order.
    pub(crate) fn read_back(self) -> Result<Vec<(JobOutput, f64)>> {
        let fence = self.fence.as_slice();
        Ok(match self.out {
            Out::Ready(outputs) => outputs,
            Out::Rows(m) => {
                let (flat, ready_s) = m.read_back_after(fence)?;
                flat.chunks(m.dims().1)
                    .map(|row| (JobOutput::Vector(row.to_vec()), ready_s))
                    .collect()
            }
            Out::Sums(v) => {
                let (sums, ready_s) = v.read_back_after(fence)?;
                sums.into_iter()
                    .map(|s| (JobOutput::Scalar(s), ready_s))
                    .collect()
            }
            Out::Matrix(m) => {
                let (rows, cols) = m.dims();
                let (data, ready_s) = m.read_back_after(fence)?;
                vec![(JobOutput::Matrix { rows, cols, data }, ready_s)]
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, salt: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32).mul_add(0.125, salt)).collect()
    }

    #[test]
    fn coalesce_keys_separate_kinds_shapes_and_scalars() {
        let a = Job::Axpb {
            a: 2.0,
            b: 1.0,
            data: ramp(8, 0.0),
        };
        let a2 = Job::Axpb {
            a: 2.0,
            b: 1.0,
            data: ramp(8, 3.0),
        };
        let a3 = Job::Axpb {
            a: 2.5,
            b: 1.0,
            data: ramp(8, 0.0),
        };
        let a4 = Job::Axpb {
            a: 2.0,
            b: 1.0,
            data: ramp(9, 0.0),
        };
        let s = Job::RowSum { data: ramp(8, 0.0) };
        assert_eq!(a.coalesce_key(), a2.coalesce_key());
        assert_ne!(a.coalesce_key(), a3.coalesce_key());
        assert_ne!(a.coalesce_key(), a4.coalesce_key());
        assert_ne!(a.coalesce_key(), s.coalesce_key());
        assert!(Job::Jacobi {
            rows: 4,
            cols: 4,
            iters: 1,
            data: ramp(16, 0.0)
        }
        .coalesce_key()
        .is_none());
    }

    #[test]
    fn a_built_jacobi_program_is_not_reported_as_a_build_again() {
        // Jacobi's block program first, then every other kind: `builds`
        // asks for exactly the program the job's launch builds.
        let ctx = Context::init(2);
        let jobs = [
            Job::Jacobi {
                rows: 8,
                cols: 8,
                iters: 3,
                data: ramp(64, 0.0),
            },
            Job::Axpb {
                a: 1.5,
                b: -0.25,
                data: ramp(64, 0.0),
            },
            Job::RowSum {
                data: ramp(64, 0.0),
            },
            Job::MatMul {
                m: 6,
                k: 5,
                n: 7,
                a: ramp(30, 0.0),
                b: ramp(35, 1.0),
            },
        ];
        for job in &jobs {
            let kind = job.kind();
            assert!(builds(&ctx, job), "{kind}: a fresh registry lacks it");
            run_job(&ctx, 1, job).unwrap();
            assert!(!builds(&ctx, job), "{kind}: the job built it");
        }
    }

    #[test]
    fn batched_axpb_matches_singletons_bitwise() {
        let ctx = Context::init(2);
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::Axpb {
                a: 1.5,
                b: -0.25,
                data: ramp(64, i as f32),
            })
            .collect();
        let fused = run_batch(&ctx, 1, &jobs).unwrap();
        for (job, (out, _)) in jobs.iter().zip(&fused) {
            let (solo, _) = run_job(&ctx, 1, job).unwrap();
            assert_eq!(*out, solo);
        }
    }

    #[test]
    fn batched_rowsum_matches_singletons_bitwise() {
        let ctx = Context::init(2);
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::RowSum {
                data: ramp(100, 0.5 + i as f32),
            })
            .collect();
        let fused = run_batch(&ctx, 0, &jobs).unwrap();
        for (job, (out, _)) in jobs.iter().zip(&fused) {
            let (solo, _) = run_job(&ctx, 0, job).unwrap();
            assert_eq!(*out, solo);
        }
    }

    #[test]
    fn jacobi_and_matmul_jobs_run_and_match_references() {
        let ctx = Context::init(2);
        let plate = skelcl_iterative::heat_plate(12, 16);
        let a = skelcl_linalg::test_matrix(6, 5, 1);
        let b = skelcl_linalg::test_matrix(5, 7, 2);
        for home in [0, 1] {
            let (out, _) = run_job(
                &ctx,
                home,
                &Job::Jacobi {
                    rows: 12,
                    cols: 16,
                    iters: 3,
                    data: plate.clone(),
                },
            )
            .unwrap();
            assert_eq!(
                out,
                JobOutput::Matrix {
                    rows: 12,
                    cols: 16,
                    data: skelcl_iterative::seq::heat_run(&plate, 12, 16, 3)
                },
                "jacobi on home {home}"
            );

            let (out, _) = run_job(
                &ctx,
                home,
                &Job::MatMul {
                    m: 6,
                    k: 5,
                    n: 7,
                    a: a.clone(),
                    b: b.clone(),
                },
            )
            .unwrap();
            assert_eq!(
                out,
                JobOutput::Matrix {
                    rows: 6,
                    cols: 7,
                    data: skelcl_linalg::seq::matmul(&a, &b, 6, 5, 7)
                },
                "matmul on home {home}"
            );
        }
    }

    #[test]
    fn empty_inputs_complete_without_device_work() {
        let ctx = Context::init(1);
        let (out, _) = run_job(
            &ctx,
            0,
            &Job::Axpb {
                a: 2.0,
                b: 0.0,
                data: vec![],
            },
        )
        .unwrap();
        assert_eq!(out, JobOutput::Vector(vec![]));
        let (out, _) = run_job(&ctx, 0, &Job::RowSum { data: vec![] }).unwrap();
        assert_eq!(out, JobOutput::Scalar(0.0));
    }
}
