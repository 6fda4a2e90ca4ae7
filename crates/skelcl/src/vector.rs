//! The abstract vector: unified host/device memory with lazy transfers and
//! multi-device distributions.
//!
//! Paper, Section III-A: *"SkelCL offers the `Vector` class providing a
//! unified abstraction for a contiguous memory area that is accessible by
//! both, CPU and GPU. [...] Data transfer between these corresponding memory
//! areas is performed implicitly [...] Before every data transfer, the
//! vector implementation checks whether the data transfer is necessary; only
//! then the data is actually transferred. [...] This lazy copying minimizes
//! costly data transfers between host and device."*
//!
//! Section III-D adds the multi-GPU story: a vector is "either completely
//! copied to every device, or evenly divided into one part per device", the
//! user can change a vector's distribution at any time, and "data exchange
//! between multiple devices is performed automatically by SkelCL" — including
//! redistribution *with a combine operator*, which the OSEM case study uses
//! to merge per-GPU error images.
//!
//! A vector of `len` elements is the `len × 1` view of a [`Matrix`]: the
//! protocol behind both quotes (lazy upload and download, redistribution,
//! invalidation on host writes) lives once, in [`crate::matrix`], with
//! [`Distribution::Block`] laid out as [`MatrixDistribution::RowBlock`]
//! with `halo: 0`. Only the combine-operator merge is the vector's own. It
//! runs only after [`Vector::mark_devices_modified`] (the paper's
//! `dataOnDevicesModified`), the one thing that lets `Copy` copies differ.
//!
//! The cheapest transfer is none: a constant vector ([`Vector::filled`],
//! [`Vector::zeroed`]) is filled on the devices, never uploaded. OSEM's
//! per-subset all-zero error image is one.

use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::{issue_copies, Matrix, MatrixDistribution, MatrixPart, PartCopy};
use crate::skeletons::pipeline::{launch_elementwise, stage_of, ElementwiseKernel, OpZip};
use crate::trace::SpanGuard;
use parking_lot::MappedMutexGuard;
use vgpu::{Buffer, Order, Scalar};

/// How a vector's data is laid out across the context's devices
/// (paper Section III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// The whole vector lives on one device.
    Single(usize),
    /// Every device holds a full copy.
    Copy,
    /// The vector is evenly divided into one contiguous part per device.
    Block,
}

impl Distribution {
    /// The same layout on the vector's `len × 1` matrix.
    pub(crate) fn as_matrix(self) -> MatrixDistribution {
        match self {
            Distribution::Single(d) => MatrixDistribution::Single(d),
            Distribution::Copy => MatrixDistribution::Copy,
            Distribution::Block => MatrixDistribution::row_block(),
        }
    }

    /// The inverse of [`Distribution::as_matrix`].
    fn of_matrix(dist: MatrixDistribution) -> Self {
        match dist {
            MatrixDistribution::Single(d) => Distribution::Single(d),
            MatrixDistribution::Copy => Distribution::Copy,
            MatrixDistribution::RowBlock { halo: 0 } => Distribution::Block,
            other => unreachable!("a vector is never laid out as {other:?}"),
        }
    }
}

/// The SkelCL vector. Cloning yields a second handle to the same vector
/// (C++ SkelCL passes vectors by reference).
#[derive(Clone)]
pub struct Vector<T: Scalar> {
    /// The `len × 1` matrix holding the data.
    matrix: Matrix<T>,
}

impl<T: Scalar> std::fmt::Debug for Vector<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vector")
            .field("len", &self.len())
            .field("dist", &self.distribution())
            .field("host_fresh", &self.host_fresh())
            .field("device_fresh", &self.device_fresh())
            .finish()
    }
}

impl<T: Scalar> Vector<T> {
    /// Create a vector from host data (the paper's
    /// `Vector<float> A(a_ptr, ARRAY_SIZE)`); no device transfer happens
    /// until a skeleton needs the data.
    pub fn from_vec(ctx: &Context, data: Vec<T>) -> Self {
        Vector {
            matrix: Matrix::from_vec(ctx, data.len(), 1, data),
        }
    }

    pub fn from_slice(ctx: &Context, data: &[T]) -> Self {
        Vector::from_vec(ctx, data.to_vec())
    }

    /// A vector of `len` elements all equal to `v` (C++ SkelCL's
    /// `Vector(size, value)`). Creation is lazy, and the devices make their
    /// copies with a device-side fill, never an upload.
    pub fn filled(ctx: &Context, len: usize, v: T) -> Self {
        Vector {
            matrix: Matrix::filled(ctx, len, 1, v),
        }
    }

    /// A vector of `len` default-initialised elements, filled on the
    /// devices like [`Vector::filled`].
    pub fn zeroed(ctx: &Context, len: usize) -> Self {
        Vector::filled(ctx, len, T::default())
    }

    pub fn ctx(&self) -> &Context {
        self.matrix.ctx()
    }

    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn distribution(&self) -> Distribution {
        Distribution::of_matrix(self.matrix.distribution())
    }

    /// Is the host copy current? (test/introspection aid)
    pub fn host_fresh(&self) -> bool {
        self.matrix.host_fresh()
    }

    /// Are the device copies current? (test/introspection aid)
    pub fn device_fresh(&self) -> bool {
        self.matrix.device_fresh()
    }

    /// Read access to the host data, downloading first only if the device
    /// copies are newer (lazy copying).
    pub fn host_view(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        self.matrix.host_view()
    }

    /// Mutable access to the host data; marks the device copies stale. A
    /// [`Vector::filled`] vector is no longer constant afterwards, so its
    /// next device copies are uploaded.
    pub fn host_view_mut(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        self.matrix.host_view_mut()
    }

    /// Copy the current contents out to a `Vec` (downloads if needed).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        self.matrix.to_vec()
    }

    /// Copy the current contents out like [`Vector::to_vec`], but **without
    /// blocking the virtual host clock**: each part is downloaded by an
    /// asynchronous read on the device's copy stream, ordered after the
    /// events of `fence` on its device. Returns the data plus the virtual
    /// time at which the last read completes. Coherence state is untouched;
    /// see [`Matrix::read_back_after`](crate::Matrix::read_back_after) for
    /// the fence's contract and the serving rationale.
    pub fn read_back_after(&self, fence: &[vgpu::Event]) -> Result<(Vec<T>, f64)> {
        self.matrix.read_back_after(fence)
    }

    /// Declare that a kernel modified this vector on the devices by side
    /// effect (the paper's `dataOnDevicesModified()`, needed after the OSEM
    /// error-image kernel which "produces no result, but updates the error
    /// image by side-effect").
    pub fn mark_devices_modified(&self) {
        self.matrix.mark_devices_modified()
    }

    /// Upload to the devices (per the current distribution) if the device
    /// copies are stale; a constant vector is filled on the devices
    /// instead. Skeletons call this implicitly; it is public so
    /// applications can pre-stage data like the paper's OSEM loop does.
    pub fn ensure_on_devices(&self) -> Result<()> {
        self.parts().map(drop)
    }

    /// Change the distribution (paper's `setDistribution`). If the devices
    /// hold the newest data, the required inter-device exchange happens
    /// automatically; otherwise only metadata changes and the next upload
    /// uses the new layout.
    pub fn set_distribution(&self, dist: Distribution) -> Result<()> {
        self.matrix.set_distribution(dist.as_matrix())
    }

    /// Change the distribution, merging diverged per-device copies with a
    /// binary operator (paper: `c.setDistribution(Distribution::block, add)`
    /// — "reduce (element-wise add) all copies of error image").
    ///
    /// Only meaningful from `Copy` after [`Vector::mark_devices_modified`]
    /// (the paper's `dataOnDevicesModified`, which is what lets the copies
    /// diverge); a read-back in between does not undo it, and the merged
    /// result supersedes the host copy. In every other state it behaves
    /// like [`Vector::set_distribution`]: copies that were only uploaded,
    /// filled or written by a skeleton are identical, so nothing is merged.
    pub fn set_distribution_with<F>(&self, dist: Distribution, combine: &UserFn<F>) -> Result<()>
    where
        F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
    {
        let merge = self.matrix.devices_modified()
            && self.distribution() == Distribution::Copy
            && dist != Distribution::Copy;
        if !merge {
            return self.set_distribution(dist);
        }
        self.matrix
            .redistribute_with(dist.as_matrix(), |copies, targets| {
                merge_copy_to(self.ctx(), copies, targets, combine)
            })
    }

    /// The device-resident parts (uploading first if needed).
    pub(crate) fn parts(&self) -> Result<Vec<MatrixPart<T>>> {
        self.matrix
            .upload_parts(|len, dist| self.upload_span(len, dist))
    }

    /// Open the span of a skeleton call over this vector, with its length,
    /// distribution and device count.
    pub(crate) fn call_span(&self, name: &'static str) -> SpanGuard {
        let ctx = self.ctx();
        let mut span = ctx.span(name);
        span.attr("len", self.len().to_string());
        span.attr("distribution", format!("{:?}", self.distribution()));
        span.attr("devices", ctx.n_devices().to_string());
        span
    }

    /// The span a vector upload runs in; the matrix core uploads
    /// span-less.
    fn upload_span(&self, len: usize, dist: MatrixDistribution) -> SpanGuard {
        let ctx = self.ctx();
        let mut span = ctx.span("vector.upload");
        span.attr("len", len.to_string());
        span.attr(
            "distribution",
            format!("{:?}", Distribution::of_matrix(dist)),
        );
        span.attr("devices", ctx.n_devices().to_string());
        span
    }

    /// Wrap one freshly computed device buffer as a `Single(device)`
    /// vector — the shape 2D-reduction outputs take when the whole result
    /// lands on one device (no host round trip; the host copy is stale
    /// until first read).
    pub(crate) fn from_single_device_part(
        ctx: &Context,
        device: usize,
        len: usize,
        buffer: Buffer<T>,
    ) -> Self {
        let part = MatrixPart::column(device, 0, len, buffer);
        Vector::from_device_parts(ctx, len, Distribution::Single(device), vec![part])
    }

    /// Wrap freshly computed device parts (one-column parts laid out per
    /// `dist`) as a new vector (skeleton outputs): device data is fresh,
    /// host copy is stale.
    pub(crate) fn from_device_parts(
        ctx: &Context,
        len: usize,
        dist: Distribution,
        parts: Vec<MatrixPart<T>>,
    ) -> Self {
        Vector {
            matrix: Matrix::from_device_parts(ctx, len, 1, dist.as_matrix(), parts, true),
        }
    }
}

/// Fill `targets` from the diverged per-device `Copy` parts `copies`,
/// combining every device's copy of each target range element-wise (the
/// OSEM error-image merge).
///
/// Each target is seeded with its own device's copy; every other device's
/// copy of the range (its *partial*) lands in a temporary on the target's
/// device. All of these copies go out as one [`issue_copies`] batch, so
/// the partials of different targets cross the bus in parallel rounds and
/// arrive in any order. The combines still fold in a fixed order, the
/// device's own copy first and then the other devices ascending: each
/// waits for the previous step of its target and for its partial's copy.
fn merge_copy_to<T: Scalar, F>(
    ctx: &Context,
    copies: &[MatrixPart<T>],
    targets: &[MatrixPart<T>],
    combine: &UserFn<F>,
) -> Result<()>
where
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    // The program of a `Zip` over `combine`.
    let zip_stage = stage_of("zip", combine).with_operand(T::TYPE_NAME);
    let program = codegen::elementwise_program(&[zip_stage], T::TYPE_NAME, T::TYPE_NAME, 0);
    let compiled = ctx.get_or_build(&program)?;

    let targets: Vec<&MatrixPart<T>> = targets.iter().filter(|np| np.rows > 0).collect();
    // Per target: its own device's copy, then the other devices' copies
    // with the temporaries receiving them, in fold order.
    let mut folds = Vec::with_capacity(targets.len());
    for np in &targets {
        let own = copies
            .iter()
            .find(|p| p.device == np.device)
            .ok_or_else(|| Error::NotOnDevice("copy distribution missing a device".into()))?;
        let mut partials = Vec::with_capacity(copies.len());
        for op in copies.iter().filter(|p| p.device != np.device) {
            let tmp = ctx.device(np.device).alloc::<T>(np.rows)?;
            partials.push((
                op,
                MatrixPart::column(np.device, np.row_offset, np.rows, tmp),
            ));
        }
        folds.push((own, partials));
    }
    let range_copy = |src, dst, np: &MatrixPart<T>| PartCopy {
        src,
        dst,
        src_off: np.row_offset,
        dst_off: 0,
        len: np.rows,
    };
    let mut batch = Vec::new();
    for (np, (own, partials)) in targets.iter().zip(&folds) {
        batch.push(range_copy(own, np, np));
        for (op, tmp) in partials {
            batch.push(range_copy(op, tmp, np));
        }
    }
    let mut copied = issue_copies(ctx, &batch, None)?.0.into_iter();
    drop(batch);

    for (np, (_, partials)) in targets.into_iter().zip(folds) {
        let mut last = copied.next().expect("one seed copy per target");
        // Each step folds one temporary into the target in place; the
        // temporary is freed after its launch.
        for (_, tmp) in partials {
            let partial = copied.next().expect("one copy per partial");
            let fold = ElementwiseKernel {
                compiled: compiled.clone(),
                op: OpZip::new(vec![tmp], combine.func().clone()),
                static_ops: combine.static_ops(),
            };
            let order = Order::After(&[last, partial]);
            last = launch_elementwise(ctx, &fold, 0, np, Some(np), (0, np.rows), order)?
                .expect("targets hold rows");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextConfig;

    fn ctx(n: usize) -> Context {
        Context::new(
            ContextConfig::default()
                .devices(n)
                .spec(vgpu::DeviceSpec::tiny())
                .cache_tag("skelcl-vector-tests"),
        )
    }

    fn data(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn creation_is_lazy_no_transfer() {
        let c = ctx(2);
        let before = c.platform().stats_snapshot();
        let v = Vector::from_vec(&c, data(100));
        assert_eq!(v.len(), 100);
        assert!(!v.device_fresh());
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0, "creation must not transfer");
    }

    #[test]
    fn read_back_async_matches_to_vec_without_host_sync() {
        for (dist, devices) in [
            (Distribution::Block, 3),
            (Distribution::Copy, 2),
            (Distribution::Single(1), 2),
        ] {
            let c = ctx(devices);
            let v = Vector::from_vec(&c, data(40));
            v.set_distribution(dist).unwrap();
            v.ensure_on_devices().unwrap();
            v.mark_devices_modified(); // devices are the truth now
            let host_before = c.host_now_s();
            let now: Vec<_> = (0..devices).map(|d| c.queue(d).enqueue_marker()).collect();
            let (got, ready) = v.read_back_after(&now).unwrap();
            assert_eq!(
                c.host_now_s(),
                host_before,
                "async read-back must not advance the host clock ({dist:?})"
            );
            assert!(ready >= host_before, "{dist:?}");
            assert!(!v.host_fresh(), "coherence state must be untouched");
            assert_eq!(got, data(40), "{dist:?}");
        }
    }

    #[test]
    fn empty_device_fresh_vector_downloads_nothing() {
        for dist in [Distribution::Single(1), Distribution::Copy] {
            let c = ctx(2);
            let v = Vector::from_vec(&c, Vec::<f32>::new());
            v.set_distribution(dist).unwrap();
            v.ensure_on_devices().unwrap();
            v.mark_devices_modified();
            let before = c.platform().stats_snapshot();
            assert!(v.to_vec().unwrap().is_empty());
            let delta = c.platform().stats_snapshot() - before;
            assert_eq!(delta.total_transfers(), 0, "{dist:?}");
        }
    }

    #[test]
    fn ensure_on_devices_uploads_once() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(100));
        let before = c.platform().stats_snapshot();
        v.ensure_on_devices().unwrap();
        let mid = c.platform().stats_snapshot();
        assert_eq!((mid - before).h2d_transfers, 2, "one upload per block part");
        v.ensure_on_devices().unwrap();
        let delta = c.platform().stats_snapshot() - mid;
        assert_eq!(delta.total_transfers(), 0, "second ensure must be lazy");
    }

    #[test]
    fn roundtrip_through_block_distribution() {
        let c = ctx(3);
        let v = Vector::from_vec(&c, data(101));
        v.ensure_on_devices().unwrap();
        // Pretend the host copy is stale, then lazily download.
        v.mark_devices_modified();
        assert!(!v.host_fresh());
        assert_eq!(v.to_vec().unwrap(), data(101));
        assert!(v.host_fresh());
    }

    #[test]
    fn host_view_mut_invalidates_device_copies() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(10));
        v.ensure_on_devices().unwrap();
        assert!(v.device_fresh());
        v.host_view_mut().unwrap()[0] = 99.0;
        assert!(!v.device_fresh());
        assert_eq!(v.to_vec().unwrap()[0], 99.0);
    }

    #[test]
    fn set_distribution_without_device_data_is_metadata_only() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(10));
        let before = c.platform().stats_snapshot();
        v.set_distribution(Distribution::Copy).unwrap();
        assert_eq!(v.distribution(), Distribution::Copy);
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
    }

    #[test]
    fn copy_distribution_uploads_to_every_device() {
        let c = ctx(3);
        let v = Vector::from_vec(&c, data(10));
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        let parts = v.parts().unwrap();
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(p.rows, 10);
            assert_eq!(p.buffer.to_vec(), data(10));
        }
    }

    #[test]
    fn block_to_single_gathers_on_target_device() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(20));
        v.ensure_on_devices().unwrap(); // Block by default
        v.set_distribution(Distribution::Single(1)).unwrap();
        let parts = v.parts().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].device, 1);
        assert_eq!(parts[0].buffer.to_vec(), data(20));
    }

    #[test]
    fn single_to_block_scatters() {
        let c = ctx(4);
        let v = Vector::from_vec(&c, data(40));
        v.set_distribution(Distribution::Single(0)).unwrap();
        v.ensure_on_devices().unwrap();
        v.set_distribution(Distribution::Block).unwrap();
        let parts = v.parts().unwrap();
        assert_eq!(parts.len(), 4);
        for p in &parts {
            assert_eq!(
                p.buffer.to_vec(),
                data(40)[p.row_offset..p.row_offset + p.rows]
            );
        }
        assert_eq!(v.to_vec().unwrap(), data(40));
    }

    #[test]
    fn copy_to_block_prefers_local_copies() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(16));
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        v.set_distribution(Distribution::Block).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(
            delta.d2d_transfers, 0,
            "copy->block must use device-local copies only"
        );
        assert_eq!(v.to_vec().unwrap(), data(16));
    }

    #[test]
    fn merge_with_add_combines_diverged_copies() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, vec![0.0f32; 8]);
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        // Diverge the two copies by hand (as a side-effect kernel would).
        {
            let parts = v.parts().unwrap();
            for (d, p) in parts.iter().enumerate() {
                for i in 0..p.rows {
                    p.buffer.set(i, (d + 1) as f32 * 10.0 + i as f32);
                }
            }
        }
        v.mark_devices_modified();
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Block, &add).unwrap();
        let got = v.to_vec().unwrap();
        let want: Vec<f32> = (0..8).map(|i| 30.0 + 2.0 * i as f32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_with_part_len_not_divisible_by_work_group() {
        // Regression: the merge kernel's padding lanes must not touch
        // out-of-range indices (part length 27 with work-group 64).
        let c = ctx(2);
        let n = 54; // 27 per device under Block
        let v = Vector::from_vec(&c, vec![1.0f32; n]);
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        v.mark_devices_modified();
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Block, &add).unwrap();
        assert_eq!(v.to_vec().unwrap(), vec![2.0f32; n]);
    }

    /// A device-fresh `Copy` vector of `n` elements whose per-device copies
    /// differ, and those copies.
    fn diverged_copies(c: &Context, n: usize) -> (Vector<f32>, Vec<Vec<f32>>) {
        let v = Vector::from_vec(c, vec![0.0f32; n]);
        v.set_distribution(Distribution::Copy).unwrap();
        v.ensure_on_devices().unwrap();
        let mut want = Vec::new();
        for p in v.parts().unwrap() {
            let copy: Vec<f32> = (0..n)
                .map(|i| 0.1 * (p.device + 1) as f32 + 0.37 * i as f32)
                .collect();
            for (i, &x) in copy.iter().enumerate() {
                p.buffer.set(i, x);
            }
            want.push(copy);
        }
        v.mark_devices_modified();
        (v, want)
    }

    #[test]
    fn merge_folds_own_copy_first_then_the_others_ascending() {
        // A non-commutative combine over four different copies: any other
        // fold order changes the bits.
        let twice_plus = crate::skel_fn!(
            fn twice_plus(x: f32, y: f32) -> f32 {
                2.0 * x + y
            }
        );
        let n = 37;
        for dist in [Distribution::Block, Distribution::Single(2)] {
            let c = ctx(4);
            let (v, copies) = diverged_copies(&c, n);
            v.set_distribution_with(dist, &twice_plus).unwrap();
            let mut want = vec![0.0f32; n];
            for p in v.parts().unwrap() {
                for (i, w) in want.iter_mut().enumerate().skip(p.row_offset).take(p.rows) {
                    *w = copies[p.device][i];
                    for (d, copy) in copies.iter().enumerate() {
                        if d != p.device {
                            *w = 2.0 * *w + copy[i];
                        }
                    }
                }
            }
            let got = v.to_vec().unwrap();
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{dist:?}");
        }
    }

    /// The cross-device copies of a trace, one `(seq, start, end)` each.
    fn cross_copies(trace: &[vgpu::CommandRecord]) -> Vec<(u64, f64, f64)> {
        let mut out: Vec<(u64, f64, f64)> = Vec::new();
        for r in trace.iter().filter(|r| r.kind == vgpu::CmdKind::D2D) {
            if trace.iter().any(|o| o.seq == r.seq && o.device != r.device)
                && !out.iter().any(|c| c.0 == r.seq)
            {
                out.push((r.seq, r.start_s, r.end_s));
            }
        }
        out
    }

    /// The most intervals open at one instant (half-open: one ending when
    /// another starts does not overlap it).
    fn most_in_flight(copies: &[(u64, f64, f64)]) -> usize {
        let mut edges: Vec<(f64, i32)> = copies
            .iter()
            .flat_map(|&(_, s, e)| [(s, 1), (e, -1)])
            .collect();
        edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let (mut open, mut most) = (0, 0);
        for (_, step) in edges {
            open += step;
            most = most.max(open);
        }
        most as usize
    }

    #[test]
    fn redistribution_copies_run_in_parallel_rounds() {
        let c = ctx(4);
        let block = 4096;
        let n = 4 * block;
        c.platform().enable_timeline_trace();
        let v = Vector::from_vec(&c, data(n));
        v.ensure_on_devices().unwrap(); // Block
        v.mark_devices_modified();
        let mut all = c.platform().take_timeline_trace();

        // Four devices: each copy holds two copy engines, so two run at once.
        let figure = 2;
        let copy_s = c
            .platform()
            .topology()
            .d2d_transfer_s(block * std::mem::size_of::<f32>(), figure);
        let check_copies = |trace: &[vgpu::CommandRecord], what: &str| {
            let copies = cross_copies(trace);
            assert_eq!(copies.len(), 12, "{what}: every block crosses to 3 devices");
            for &(_, s, e) in &copies {
                let off = (e - s - copy_s).abs() / copy_s;
                assert!(off < 1e-9, "{what}: priced at {figure} in flight");
            }
            assert_eq!(most_in_flight(&copies), figure, "{what}");
            copies
        };

        // Gather: 12 copies in 6 rounds of 2.
        v.set_distribution(Distribution::Copy).unwrap();
        let gather = c.platform().take_timeline_trace();
        let copies = check_copies(&gather, "gather");
        let first = copies.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        let last = copies.iter().map(|c| c.2).fold(0.0, f64::max);
        let rounds = (last - first) / copy_s;
        assert!((rounds - 6.0).abs() < 1e-9, "gather took {rounds} copies");

        // Merge: each target's combines fold the partials in device order.
        // The gathered copies are identical until a kernel writes them, as
        // OSEM's does before its merge.
        v.mark_devices_modified();
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Block, &add).unwrap();
        let merge = c.platform().take_timeline_trace();
        check_copies(&merge, "merge");
        for t in 0..4 {
            let target = v.parts().unwrap()[t].buffer.id();
            let mut combines: Vec<&vgpu::CommandRecord> = merge
                .iter()
                .filter(|r| r.kind == vgpu::CmdKind::Kernel && r.device.0 == t)
                .collect();
            combines.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
            let sources: Vec<usize> = combines
                .iter()
                .map(|k| {
                    let partial = k.reads.iter().find(|a| a.buffer != target).unwrap();
                    let copy = merge
                        .iter()
                        .find(|r| r.writes.iter().any(|w| w.buffer == partial.buffer))
                        .unwrap();
                    assert!(k.deps.contains(&copy.seq), "combine waits for its partial");
                    copy.device.0
                })
                .collect();
            let others: Vec<usize> = (0..4).filter(|&d| d != t).collect();
            assert_eq!(sources, others, "device {t} folds the others ascending");
            for pair in combines.windows(2) {
                assert!(pair[1].deps.contains(&pair[0].seq));
                assert!(pair[1].start_s >= pair[0].end_s);
            }
        }
        let want: Vec<f32> = data(n).iter().map(|x| 4.0 * x).collect();
        assert_eq!(v.to_vec().unwrap(), want);

        all.extend(gather);
        all.extend(merge);
        assert_eq!(vgpu::verify_engine_exclusive(&all), None);
        assert_eq!(crate::check::verify_no_buffer_hazards(&all), None);
    }

    #[test]
    fn merge_of_copies_that_never_diverged_is_a_plain_redistribution() {
        // No kernel wrote these `Copy` vectors by side effect since their
        // copies were made, so the copies are identical and nothing is
        // merged.
        let c = ctx(2);
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        let id = crate::Map::new(crate::skel_fn!(
            fn id(x: f32) -> f32 {
                x
            }
        ));
        let want = vec![1.0f32, 2.0, 3.0, 4.0];
        let copied = |v: Vector<f32>| {
            v.set_distribution(Distribution::Copy).unwrap();
            v.ensure_on_devices().unwrap();
            v
        };
        let uploaded = copied(Vector::from_vec(&c, want.clone()));
        let computed = id.apply(&uploaded).unwrap();
        assert_eq!(computed.distribution(), Distribution::Copy);
        // Modified as blocks, then gathered from the owners.
        let gathered = Vector::from_vec(&c, want.clone());
        gathered.ensure_on_devices().unwrap();
        gathered.mark_devices_modified();
        let gathered = copied(gathered);
        // Modified, then replaced from the host and uploaded again.
        let uploaded_again = copied(Vector::from_vec(&c, want.clone()));
        uploaded_again.mark_devices_modified();
        drop(uploaded_again.host_view_mut().unwrap());
        uploaded_again.ensure_on_devices().unwrap();
        for (what, v) in [
            ("uploaded", uploaded),
            ("skeleton output", computed),
            ("gathered", gathered),
            ("uploaded again", uploaded_again),
        ] {
            v.set_distribution_with(Distribution::Block, &add).unwrap();
            let device_read = id.apply(&v).unwrap().to_vec().unwrap();
            assert_eq!(v.to_vec().unwrap(), want, "{what}: host read");
            assert_eq!(device_read, want, "{what}: device read");
        }
    }

    #[test]
    fn merge_after_a_read_back_still_combines_the_copies() {
        // Reading the vector back takes one device's copy to the host; the
        // copies stay diverged, so the merge still combines all of them.
        let c = ctx(2);
        let n = 6;
        let (v, copies) = diverged_copies(&c, n);
        assert_eq!(v.to_vec().unwrap(), copies[0]);
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Block, &add).unwrap();
        let want: Vec<f32> = (0..n).map(|i| copies[0][i] + copies[1][i]).collect();
        let id = crate::Map::new(crate::skel_fn!(
            fn id(x: f32) -> f32 {
                x
            }
        ));
        assert_eq!(id.apply(&v).unwrap().to_vec().unwrap(), want, "device read");
        assert_eq!(v.to_vec().unwrap(), want, "host read");
    }

    #[test]
    fn a_constant_vector_is_filled_until_a_host_edit() {
        let c = ctx(2);
        let v = Vector::filled(&c, 10, 3.0f32);
        let fills = || {
            c.platform()
                .take_timeline_trace()
                .iter()
                .filter(|r| r.kind == vgpu::CmdKind::Fill)
                .count()
        };
        c.platform().enable_timeline_trace();
        let before = c.platform().stats_snapshot();
        v.ensure_on_devices().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(fills(), 2, "one per block");
        assert_eq!(delta.h2d_bytes, 0);

        v.host_view_mut().unwrap()[4] = 9.0;
        let mut want = vec![3.0f32; 10];
        want[4] = 9.0;
        c.platform().enable_timeline_trace();
        let before = c.platform().stats_snapshot();
        v.ensure_on_devices().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(fills(), 0);
        assert_eq!(delta.h2d_bytes as usize, 10 * std::mem::size_of::<f32>());
        v.mark_devices_modified();
        assert_eq!(v.to_vec().unwrap(), want);
    }

    #[test]
    fn merge_from_non_copy_falls_back_to_plain_redistribution() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(8));
        v.ensure_on_devices().unwrap(); // Block
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Single(0), &add)
            .unwrap();
        assert_eq!(v.to_vec().unwrap(), data(8));
    }

    #[test]
    fn invalid_single_device_is_rejected() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, data(4));
        assert!(v.set_distribution(Distribution::Single(5)).is_err());
    }

    #[test]
    fn redistribution_advances_virtual_time() {
        let c = ctx(4);
        let v = Vector::from_vec(&c, data(1 << 16));
        v.ensure_on_devices().unwrap();
        c.sync();
        let t0 = c.host_now_s();
        v.set_distribution(Distribution::Copy).unwrap();
        c.sync();
        assert!(c.host_now_s() > t0, "allgather must cost virtual time");
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let c = ctx(1);
        let v = Vector::from_vec(&c, data(4));
        let w = v.clone();
        v.host_view_mut().unwrap()[0] = 7.0;
        assert_eq!(w.to_vec().unwrap()[0], 7.0);
    }
}
