//! The four workloads. Each one generates its inputs from the seed (with
//! the sequential reference result), sets itself up on a fresh platform,
//! and then runs identical units: `call` is the timed part, `check`
//! compares the output with the reference outside the timed window.

use std::collections::BTreeMap;
use std::time::Instant;

use skelcl::{Boundary2D, Context, Matrix, MatrixDistribution};
use skelcl_executor::{Executor, ExecutorConfig, Job, JobHandle, JobOutput, TenantId};
use vgpu::Platform;

use crate::account::Tally;

/// Host wall seconds of named sub-steps of one unit or one setup.
pub type Probes = BTreeMap<&'static str, f64>;

/// Modeled timings of one served job.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    pub latency_s: f64,
    pub queue_wait_s: f64,
    pub service_s: f64,
}

pub trait Workload: Sized {
    /// Seeded inputs plus the sequential reference output.
    type Inputs;
    /// What the timed call hands to `check`.
    type Output;
    const NAME: &'static str;
    const DEVICES: usize;

    fn inputs(seed: u64) -> Self::Inputs;

    /// Everything from the created platform to warmed-up programs: context,
    /// uploads, and one warm-up call that builds every program.
    fn setup(
        inputs: &Self::Inputs,
        platform: Platform,
        probes: &mut Probes,
    ) -> Result<Self, String>;

    fn ctx(&self) -> &Context;

    /// The timed call. Runs between `reset_clocks` and `sync_all`.
    fn call(
        &mut self,
        inputs: &Self::Inputs,
        tally: &mut Tally,
        probes: &mut Probes,
    ) -> Result<Self::Output, String>;

    /// Compare the output with the reference, counting mismatches in
    /// `tally`. Returns the served jobs' timings (empty when the unit is
    /// the only request).
    fn check(
        &mut self,
        inputs: &Self::Inputs,
        out: Self::Output,
        tally: &mut Tally,
        probes: &mut Probes,
    ) -> Vec<JobTiming>;
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[-1, 1)`, in steps of 1/1024.
    pub fn signed_unit(&mut self) -> f32 {
        (self.below(2048) as f32 - 1024.0) / 1024.0
    }
}

/// A small seeded size offset in `0..SIZE_JITTER`. Modeled time depends
/// only on sizes, so without it every modeled metric would read the same
/// for every seed.
const SIZE_JITTER: u64 = 8;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- heat

pub const HEAT_ITERS: usize = 20;

pub struct HeatInputs {
    rows: usize,
    cols: usize,
    plate: Vec<f32>,
    want: Vec<f32>,
}

/// Jacobi heat relaxation, `RowBlock { halo: 1 }` over 4 devices; one unit
/// is an overlapped `Stencil2D::iterate(HEAT_ITERS)`.
pub struct HeatIterate {
    ctx: Context,
    plate: Matrix<f32>,
}

impl Workload for HeatIterate {
    type Inputs = HeatInputs;
    type Output = Matrix<f32>;
    const NAME: &'static str = "heat_iterate";
    const DEVICES: usize = 4;

    fn inputs(seed: u64) -> HeatInputs {
        let mut rng = Rng::new(seed, 1);
        let rows = 1024 + 2 * rng.below(SIZE_JITTER) as usize;
        let cols = 1024;
        let plate: Vec<f32> = skelcl_iterative::heat_plate(rows, cols)
            .into_iter()
            .map(|v| v + rng.signed_unit())
            .collect();
        let want = skelcl_iterative::seq::heat_run(&plate, rows, cols, HEAT_ITERS);
        HeatInputs {
            rows,
            cols,
            plate,
            want,
        }
    }

    fn setup(inputs: &HeatInputs, platform: Platform, probes: &mut Probes) -> Result<Self, String> {
        let ctx = Context::from_platform(platform, skelcl::DEFAULT_WORK_GROUP);
        let plate = Matrix::from_vec(&ctx, inputs.rows, inputs.cols, inputs.plate.clone());
        plate
            .set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .map_err(err)?;
        let t = Instant::now();
        plate.ensure_on_devices().map_err(err)?;
        probes.insert("container.upload_wall_s", secs(t));
        let t = Instant::now();
        skelcl_iterative::skelcl_impl::heat_run(&plate, 1).map_err(err)?;
        ctx.sync();
        probes.insert("build.wall_s", secs(t));
        Ok(HeatIterate { ctx, plate })
    }

    fn ctx(&self) -> &Context {
        &self.ctx
    }

    fn call(
        &mut self,
        _: &HeatInputs,
        _: &mut Tally,
        probes: &mut Probes,
    ) -> Result<Matrix<f32>, String> {
        let t = Instant::now();
        let out = skelcl_iterative::skelcl_impl::heat_run(&self.plate, HEAT_ITERS).map_err(err)?;
        probes.insert("skeleton.wall_s", secs(t));
        Ok(out)
    }

    fn check(
        &mut self,
        inputs: &HeatInputs,
        out: Matrix<f32>,
        tally: &mut Tally,
        probes: &mut Probes,
    ) -> Vec<JobTiming> {
        let t = Instant::now();
        match out.to_vec() {
            Ok(got) => {
                probes.insert("container.download_wall_s", secs(t));
                tally.expect_bits(Self::NAME, &got, &inputs.want);
            }
            Err(e) => tally.fail(format!("{}: download: {e}", Self::NAME)),
        }
        Vec::new()
    }
}

// --------------------------------------------------------------- canny

const CANNY_LO: f32 = 30.0;
const CANNY_HI: f32 = 90.0;
const CANNY_BOUNDARY: Boundary2D = Boundary2D::Neumann;

pub struct CannyInputs {
    rows: usize,
    cols: usize,
    image: Vec<f32>,
    want: Vec<f32>,
}

/// The fused Canny label pipeline over 2 devices; one unit is
/// `canny_labels` + `to_vec`.
pub struct CannyFused {
    ctx: Context,
    image: Matrix<f32>,
}

impl CannyFused {
    fn labels(&self, probes: &mut Probes) -> Result<Vec<f32>, String> {
        let t = Instant::now();
        let labels = skelcl_imgproc::skelcl_impl::canny_labels(
            &self.image,
            CANNY_BOUNDARY,
            CANNY_LO,
            CANNY_HI,
        )
        .map_err(err)?;
        probes.insert("skeleton.wall_s", secs(t));
        let t = Instant::now();
        let out = labels.to_vec().map_err(err)?;
        probes.insert("container.download_wall_s", secs(t));
        Ok(out)
    }
}

impl Workload for CannyFused {
    type Inputs = CannyInputs;
    type Output = Vec<f32>;
    const NAME: &'static str = "canny_fused";
    const DEVICES: usize = 2;

    fn inputs(seed: u64) -> CannyInputs {
        let mut rng = Rng::new(seed, 2);
        let rows = 1024 + 2 * rng.below(SIZE_JITTER) as usize;
        let cols = 1024;
        let image: Vec<f32> = skelcl_imgproc::test_image(rows, cols)
            .into_iter()
            .map(|v| v + 4.0 * rng.signed_unit())
            .collect();
        let want = skelcl_imgproc::seq::canny_labels(
            &image,
            rows,
            cols,
            CANNY_BOUNDARY,
            CANNY_LO,
            CANNY_HI,
        );
        CannyInputs {
            rows,
            cols,
            image,
            want,
        }
    }

    fn setup(
        inputs: &CannyInputs,
        platform: Platform,
        probes: &mut Probes,
    ) -> Result<Self, String> {
        let ctx = Context::from_platform(platform, skelcl::DEFAULT_WORK_GROUP);
        let image = Matrix::from_vec(&ctx, inputs.rows, inputs.cols, inputs.image.clone());
        image
            .set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .map_err(err)?;
        let t = Instant::now();
        image.ensure_on_devices().map_err(err)?;
        probes.insert("container.upload_wall_s", secs(t));
        let w = CannyFused { ctx, image };
        let t = Instant::now();
        w.labels(&mut Probes::new())?;
        probes.insert("build.wall_s", secs(t));
        Ok(w)
    }

    fn ctx(&self) -> &Context {
        &self.ctx
    }

    fn call(
        &mut self,
        _: &CannyInputs,
        _: &mut Tally,
        probes: &mut Probes,
    ) -> Result<Vec<f32>, String> {
        self.labels(probes)
    }

    fn check(
        &mut self,
        inputs: &CannyInputs,
        out: Vec<f32>,
        tally: &mut Tally,
        _: &mut Probes,
    ) -> Vec<JobTiming> {
        tally.expect_bits(Self::NAME, &out, &inputs.want);
        Vec::new()
    }
}

// ---------------------------------------------------------------- osem

pub const OSEM_SUBSETS: usize = 10;
const OSEM_EVENTS_PER_SUBSET: usize = 2000;
/// Atomics reorder the error-image sums, so OSEM is checked in norm.
const OSEM_MAX_REL_L2: f32 = 1e-3;

pub struct OsemInputs {
    volume: skelcl_osem::Volume,
    subsets: Vec<Vec<skelcl_osem::Event>>,
    want: Vec<f32>,
}

/// The paper's Fig. 2 list-mode OSEM at bench scale over 4 devices; one
/// unit is one full `reconstruct` over every subset.
pub struct OsemRecon {
    ctx: Context,
}

impl Workload for OsemRecon {
    type Inputs = OsemInputs;
    type Output = Vec<f32>;
    const NAME: &'static str = "osem_recon";
    const DEVICES: usize = 4;

    fn inputs(seed: u64) -> OsemInputs {
        let mut rng = Rng::new(seed, 3);
        let per_subset = OSEM_EVENTS_PER_SUBSET + 4 * rng.below(SIZE_JITTER) as usize;
        let volume = skelcl_osem::Volume::bench_scale();
        let subsets = skelcl_osem::EventGenerator::new(&volume, rng.next_u64())
            .subsets(per_subset * OSEM_SUBSETS, OSEM_SUBSETS);
        let want = skelcl_osem::seq::reconstruct(&volume, &subsets);
        OsemInputs {
            volume,
            subsets,
            want,
        }
    }

    fn setup(inputs: &OsemInputs, platform: Platform, probes: &mut Probes) -> Result<Self, String> {
        let ctx = Context::from_platform(platform, skelcl::DEFAULT_WORK_GROUP);
        // Every program is built by a reconstruction of a few events.
        let warm = vec![inputs.subsets[0][..64].to_vec()];
        let t = Instant::now();
        skelcl_osem::skelcl_impl::reconstruct(&ctx, &inputs.volume, &warm).map_err(err)?;
        ctx.sync();
        probes.insert("build.wall_s", secs(t));
        Ok(OsemRecon { ctx })
    }

    fn ctx(&self) -> &Context {
        &self.ctx
    }

    fn call(
        &mut self,
        inputs: &OsemInputs,
        _: &mut Tally,
        probes: &mut Probes,
    ) -> Result<Vec<f32>, String> {
        let t = Instant::now();
        let f = skelcl_osem::skelcl_impl::reconstruct(&self.ctx, &inputs.volume, &inputs.subsets)
            .map_err(err)?;
        probes.insert("skeleton.wall_s", secs(t));
        Ok(f)
    }

    fn check(
        &mut self,
        inputs: &OsemInputs,
        out: Vec<f32>,
        tally: &mut Tally,
        _: &mut Probes,
    ) -> Vec<JobTiming> {
        let rel = skelcl_osem::metrics::relative_l2(&out, &inputs.want);
        // A NaN distance fails too.
        if rel.is_nan() || rel > OSEM_MAX_REL_L2 {
            tally.fail(format!(
                "{}: relative L2 {rel} to the sequential reference exceeds {OSEM_MAX_REL_L2}",
                Self::NAME
            ));
        }
        Vec::new()
    }
}

// --------------------------------------------------------------- serve

const SMALL_TENANTS: usize = 12;
const SMALL_JOBS: usize = 48;
const SMALL_LEN: usize = 512;
const HEAVY_JOBS: usize = 2;
const JACOBI_SIDE: usize = 256;
const JACOBI_ITERS: usize = 10;
const MATMUL_SIDE: usize = 128;

/// One tenant's whole backlog for a burst.
pub struct TenantPlan {
    name: String,
    jobs: Vec<Job>,
}

pub struct ServeInputs {
    tenants: Vec<TenantPlan>,
    /// Reference output of every job, in submission order.
    want: Vec<JobOutput>,
}

/// A weighted-round-robin executor with 16 tenants on 2 devices; one unit
/// is one closed burst (every backlog submitted while paused, then drained).
pub struct ServeBurst {
    exec: Executor,
    tenants: Vec<TenantId>,
}

fn small_data(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| rng.below(4000) as f32 / 16.0 - 125.0)
        .collect()
}

/// The sequential reference of one job.
pub fn reference(job: &Job) -> JobOutput {
    match job {
        Job::Axpb { a, b, data } => JobOutput::Vector(data.iter().map(|&x| a * x + b).collect()),
        Job::RowSum { data } => JobOutput::Scalar(data.iter().fold(0.0f32, |acc, &x| acc + x)),
        Job::Jacobi {
            rows,
            cols,
            iters,
            data,
        } => JobOutput::Matrix {
            rows: *rows,
            cols: *cols,
            data: skelcl_iterative::seq::heat_run(data, *rows, *cols, *iters),
        },
        Job::MatMul { m, k, n, a, b } => JobOutput::Matrix {
            rows: *m,
            cols: *n,
            data: skelcl_linalg::seq::matmul(a, b, *m, *k, *n),
        },
    }
}

/// Count one job's output against its reference.
pub fn check_job_output(tally: &mut Tally, what: &str, got: &JobOutput, want: &JobOutput) {
    match (got, want) {
        (JobOutput::Vector(g), JobOutput::Vector(w)) => {
            tally.expect_bits(what, g, w);
        }
        (JobOutput::Scalar(g), JobOutput::Scalar(w)) => {
            tally.expect_bits(what, &[*g], &[*w]);
        }
        (
            JobOutput::Matrix {
                rows: gr,
                cols: gc,
                data: g,
            },
            JobOutput::Matrix {
                rows: wr,
                cols: wc,
                data: w,
            },
        ) if (gr, gc) == (wr, wc) => {
            tally.expect_bits(what, g, w);
        }
        _ => tally.fail(format!("{what}: output has the wrong shape")),
    }
}

/// Submit every tenant's backlog. Each job is one attempt; a refused
/// submission (shed) is a failure and has no handle.
pub fn submit_backlog(
    exec: &Executor,
    tenants: &[TenantId],
    plans: &[TenantPlan],
    tally: &mut Tally,
) -> Vec<Option<JobHandle>> {
    let mut handles = Vec::new();
    for (&id, plan) in tenants.iter().zip(plans) {
        for job in &plan.jobs {
            tally.attempt();
            match exec.submit(id, job.clone()) {
                Ok(h) => handles.push(Some(h)),
                // `QueueFull` renders as "... job shed".
                Err(e) => {
                    tally.fail(format!("serve_burst: submit refused: {e}"));
                    handles.push(None);
                }
            }
        }
    }
    handles
}

impl Workload for ServeBurst {
    type Inputs = ServeInputs;
    type Output = Vec<Option<JobHandle>>;
    const NAME: &'static str = "serve_burst";
    const DEVICES: usize = 2;

    fn inputs(seed: u64) -> ServeInputs {
        let mut rng = Rng::new(seed, 4);
        let jitter = rng.below(SIZE_JITTER) as usize;
        let small_len = SMALL_LEN + 2 * jitter;
        let mut tenants = Vec::new();
        for t in 0..SMALL_TENANTS {
            let jobs = (0..SMALL_JOBS)
                .map(|_| {
                    let data = small_data(&mut rng, small_len);
                    if t % 2 == 0 {
                        Job::Axpb {
                            a: 0.5 + t as f32 * 0.25,
                            b: t as f32 * 0.125,
                            data,
                        }
                    } else {
                        Job::RowSum { data }
                    }
                })
                .collect();
            tenants.push(TenantPlan {
                name: format!("small{t:02}"),
                jobs,
            });
        }
        let side = JACOBI_SIDE + jitter / 2;
        for t in 0..2 {
            let jobs = (0..HEAVY_JOBS)
                .map(|_| Job::Jacobi {
                    rows: side,
                    cols: side,
                    iters: JACOBI_ITERS,
                    data: small_data(&mut rng, side * side),
                })
                .collect();
            tenants.push(TenantPlan {
                name: format!("jacobi{t}"),
                jobs,
            });
        }
        let side = MATMUL_SIDE + jitter / 2;
        for t in 0..2 {
            let jobs = (0..HEAVY_JOBS)
                .map(|_| Job::MatMul {
                    m: side,
                    k: side,
                    n: side,
                    a: small_data(&mut rng, side * side),
                    b: small_data(&mut rng, side * side),
                })
                .collect();
            tenants.push(TenantPlan {
                name: format!("matmul{t}"),
                jobs,
            });
        }
        let want = tenants
            .iter()
            .flat_map(|p| p.jobs.iter().map(reference))
            .collect();
        ServeInputs { tenants, want }
    }

    fn setup(
        inputs: &ServeInputs,
        platform: Platform,
        probes: &mut Probes,
    ) -> Result<Self, String> {
        let exec = Executor::from_platform(
            platform,
            ExecutorConfig::default()
                .devices(Self::DEVICES)
                .queue_depth(SMALL_JOBS.max(HEAVY_JOBS))
                .paused(),
        );
        let tenants: Vec<TenantId> = inputs
            .tenants
            .iter()
            .map(|p| exec.add_tenant(p.name.clone(), 1))
            .collect();
        // Warm up with one whole burst. Besides building every program, this
        // leaves the round-robin cursor where every later burst leaves it,
        // so all timed bursts dispatch in the same order.
        let t = Instant::now();
        let mut warm = Tally::default();
        let handles = submit_backlog(&exec, &tenants, &inputs.tenants, &mut warm);
        exec.drain();
        for h in handles.into_iter().flatten() {
            h.wait().map_err(err)?;
        }
        if let Some(why) = warm.messages.first() {
            return Err(format!("warm-up burst: {why}"));
        }
        exec.context().sync();
        probes.insert("build.wall_s", secs(t));
        exec.pause();
        Ok(ServeBurst { exec, tenants })
    }

    fn ctx(&self) -> &Context {
        self.exec.context()
    }

    fn call(
        &mut self,
        inputs: &ServeInputs,
        tally: &mut Tally,
        probes: &mut Probes,
    ) -> Result<Vec<Option<JobHandle>>, String> {
        let t = Instant::now();
        let handles = submit_backlog(&self.exec, &self.tenants, &inputs.tenants, tally);
        probes.insert("executor.submit_wall_s", secs(t));
        let t = Instant::now();
        self.exec.drain();
        probes.insert("executor.drain_wall_s", secs(t));
        self.exec.pause();
        Ok(handles)
    }

    fn check(
        &mut self,
        inputs: &ServeInputs,
        out: Vec<Option<JobHandle>>,
        tally: &mut Tally,
        _: &mut Probes,
    ) -> Vec<JobTiming> {
        let mut timings = Vec::with_capacity(out.len());
        for (i, (handle, want)) in out.into_iter().zip(&inputs.want).enumerate() {
            let Some(handle) = handle else { continue };
            match handle.wait() {
                Ok((got, report)) => {
                    check_job_output(tally, &format!("serve_burst job {i}"), &got, want);
                    timings.push(JobTiming {
                        latency_s: report.latency_s(),
                        queue_wait_s: report.queue_wait_s(),
                        service_s: report.service_s(),
                    });
                }
                Err(e) => tally.fail(format!("serve_burst job {i}: {e}")),
            }
        }
        timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::PlatformConfig;

    #[test]
    fn corrupted_output_and_shed_job_are_both_counted() {
        let dir = std::env::temp_dir().join(format!("skelbench-selftest-{}", std::process::id()));
        let exec = Executor::from_platform(
            Platform::new(PlatformConfig::default().devices(1).cache_dir(dir.clone())),
            ExecutorConfig::default().devices(1).queue_depth(1).paused(),
        );
        let tenant = exec.add_tenant("t", 1);
        let job = Job::RowSum {
            data: vec![1.0, 2.0, 3.0],
        };
        let plan = TenantPlan {
            name: "t".into(),
            jobs: vec![job.clone(), job.clone()],
        };
        let mut tally = Tally::default();
        let mut handles = submit_backlog(&exec, &[tenant], &[plan], &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed),
            (2, 1),
            "the second job is shed"
        );
        assert!(handles[1].is_none());
        exec.drain();
        let first = handles.remove(0).expect("the first job is accepted");
        let (got, _) = first.wait().expect("the first job runs");
        let want = reference(&job);
        check_job_output(&mut tally, "good", &got, &want);
        assert_eq!(tally.failed, 1, "a correct output is not a failure");
        let corrupted = JobOutput::Scalar(f32::from_bits(6.0f32.to_bits() + 1));
        check_job_output(&mut tally, "corrupted", &corrupted, &want);
        assert_eq!(tally.failed, 2, "a corrupted output is a failure");
        drop(exec);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_between_seeds() {
        let a = ServeBurst::inputs(7);
        let b = ServeBurst::inputs(7);
        let c = ServeBurst::inputs(8);
        assert_eq!(a.want, b.want);
        assert_ne!(a.want, c.want);
    }
}
