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
//! Like every redistribution it moves data between devices through the
//! host, as the paper's Tesla S1070 must (no peer-to-peer): each device's
//! copy of another target's range is downloaded once and uploaded to that
//! target, where it is folded in.
//!
//! The cheapest transfer is none: a constant vector ([`Vector::filled`],
//! [`Vector::zeroed`]) is filled on the devices, never uploaded. OSEM's
//! per-subset all-zero error image is one.

use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::{copy_markers, engines_touched, Matrix, MatrixDistribution, MatrixPart};
use crate::skeletons::pipeline::{launch_elementwise, stage_of, ElementwiseKernel, OpZip};
use crate::trace::SpanGuard;
use parking_lot::MappedMutexGuard;
use vgpu::{Buffer, Event, Order, Scalar};

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
/// Each target is seeded with its own device's copy by a device-local
/// copy. Every other device's copy of the range (its *partial*) crosses
/// the host: one download on the copy stream of the partial's device into
/// a host staging buffer, then one upload into a temporary on the target's
/// device, on that device's copy stream, waiting for the download and for
/// a marker joining the device. Each transfer holds one copy engine and is
/// priced at [`engines_touched`]. On every device the downloads run before
/// the uploads, so all devices' downloads cross the bus together. Issuing
/// target by target, each after its own device's downloads, keeps that
/// order while each staging buffer lives only until its upload is issued.
/// The combines fold in a fixed order, the device's own copy first and
/// then the other devices ascending: each waits for the previous step of
/// its target and for its partial's upload. The host copy is not touched.
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
    // Per target, the index of its own device's copy.
    let owns = targets
        .iter()
        .map(|np| {
            copies
                .iter()
                .position(|p| p.device == np.device)
                .ok_or_else(|| Error::NotOnDevice("copy distribution missing a device".into()))
        })
        .collect::<Result<Vec<usize>>>()?;
    let devices = || targets.iter().flat_map(|_| copies.iter().map(|p| p.device));
    let markers = copy_markers(ctx, devices());
    let concurrent = engines_touched(devices());
    let seeds = targets
        .iter()
        .zip(&owns)
        .map(|(np, &own)| {
            let order = Order::After(&markers[np.device]);
            let from = &copies[own].buffer;
            Ok(ctx
                .platform()
                .copy(from, np.row_offset, &np.buffer, 0, np.rows, order)?)
        })
        .collect::<Result<Vec<Event>>>()?;

    // Copy `c`'s range of target `t`, downloaded into host staging.
    let download = |c: usize, t: usize| -> Result<(Event, Vec<T>)> {
        let (src, np) = (&copies[c], targets[t]);
        let mut host = vec![T::default(); np.rows];
        let order = Order::After(&markers[src.device]);
        let queue = ctx.copy_queue(src.device);
        let at = Some(np.row_offset);
        let fetched = queue.enqueue_read(&src.buffer, at, &mut host, concurrent, false, order)?;
        Ok((fetched, host))
    };
    // Downloads issued ahead of their uploads, by (copy, target).
    let mut staged = std::collections::HashMap::new();
    // Per target, each partial's temporary and upload, in fold order.
    let mut received = Vec::with_capacity(targets.len());
    for (t, np) in targets.iter().enumerate() {
        // This device's copy of the later targets' ranges goes out before
        // any upload reaches the device; its copy of the earlier targets'
        // ranges went out for their uploads.
        for u in t + 1..targets.len() {
            staged.insert((owns[t], u), download(owns[t], u)?);
        }
        let mut partials = Vec::with_capacity(copies.len());
        for (c, _) in copies
            .iter()
            .enumerate()
            .filter(|(_, p)| p.device != np.device)
        {
            let (fetched, host) = match staged.remove(&(c, t)) {
                Some(staged) => staged,
                None => download(c, t)?,
            };
            let tmp = ctx.device(np.device).alloc::<T>(np.rows)?;
            let mut deps = markers[np.device].clone();
            deps.push(fetched);
            let queue = ctx.copy_queue(np.device);
            let landed = queue.enqueue_write(&tmp, None, &host, concurrent, Order::After(&deps))?;
            partials.push((
                MatrixPart::column(np.device, np.row_offset, np.rows, tmp),
                landed,
            ));
        }
        received.push(partials);
    }

    for ((np, mut last), partials) in targets.into_iter().zip(seeds).zip(received) {
        // Each step folds one temporary into the target in place; the
        // temporary is freed after its launch.
        for (tmp, partial) in partials {
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

    /// The transfers of kind `kind` in a trace.
    fn of_kind(
        trace: &[vgpu::CommandRecord],
        kind: vgpu::CmdKind,
    ) -> impl Iterator<Item = &vgpu::CommandRecord> + Clone {
        trace.iter().filter(move |r| r.kind == kind)
    }

    /// Checks every staged batch passes: copies stay on their device;
    /// `downloads` and `uploads` transfers of `block` elements, each
    /// priced at the four copy engines the batch touches; every upload
    /// waits for a marker on its device and for one download, from another
    /// device, ended before it starts; and every device's copy engine runs
    /// its downloads and then its uploads, back to back over `busy`
    /// transfer times.
    fn check_staged(
        trace: &[vgpu::CommandRecord],
        what: &str,
        block: usize,
        counts: (usize, usize, usize),
    ) {
        use vgpu::CmdKind::{Marker, D2D, D2H, H2D};
        let (downloads, uploads, busy) = counts;
        let c = ctx(1);
        let xfer_s = c.platform().topology().transfer_s(block * 4, 4);
        for r in of_kind(trace, D2D) {
            let peer = trace.iter().any(|o| o.seq == r.seq && o.device != r.device);
            assert!(!peer, "{what}: no copy goes device to device");
        }
        assert_eq!(of_kind(trace, D2H).count(), downloads, "{what}");
        assert_eq!(of_kind(trace, H2D).count(), uploads, "{what}");
        for r in of_kind(trace, D2H).chain(of_kind(trace, H2D)) {
            let off = ((r.end_s - r.start_s) - xfer_s).abs() / xfer_s;
            assert!(off < 1e-9, "{what}: priced at four in flight");
        }
        for up in of_kind(trace, H2D) {
            let waits = |r: &&vgpu::CommandRecord| up.deps.contains(&r.seq);
            let fetched: Vec<_> = of_kind(trace, D2H).filter(waits).collect();
            assert_eq!(
                fetched.len(),
                1,
                "{what}: upload {} waits for one download",
                up.seq
            );
            assert_ne!(fetched[0].device, up.device, "{what}");
            assert!(fetched[0].end_s <= up.start_s, "{what}");
            let joined = of_kind(trace, Marker).filter(waits);
            assert!(
                joined.clone().any(|m| m.device == up.device),
                "{what}: marker"
            );
        }
        for d in 0..4 {
            let on = |kind| of_kind(trace, kind).filter(move |r| r.device.0 == d);
            let first = on(D2H).map(|r| r.start_s).fold(f64::INFINITY, f64::min);
            let last_down = on(D2H).map(|r| r.end_s).fold(0.0, f64::max);
            let first_up = on(H2D).map(|r| r.start_s).fold(f64::INFINITY, f64::min);
            let last = on(H2D).map(|r| r.end_s).fold(0.0, f64::max);
            assert!(last_down <= first_up, "{what}: device {d} downloads first");
            let span = (last - first) / xfer_s;
            assert!(
                (span - busy as f64).abs() < 1e-9,
                "{what}: device {d} took {span}"
            );
        }
    }

    #[test]
    fn redistribution_copies_run_in_parallel_rounds() {
        // Four devices hold a block each. Every transfer of a redistribution
        // holds one copy engine, so all four engines run at once, each
        // transfer priced at four in flight.
        let c = ctx(4);
        let block = 4096;
        let n = 4 * block;
        c.platform().enable_timeline_trace();
        let v = Vector::from_vec(&c, data(n));
        v.ensure_on_devices().unwrap(); // Block
        v.mark_devices_modified();
        let mut all = c.platform().take_timeline_trace();

        // Gather: each block is downloaded once and uploaded to the three
        // other devices, so each engine is busy four transfer times, not
        // the twelve of two crossings per block and destination; and the
        // host copy is current after it.
        v.set_distribution(Distribution::Copy).unwrap();
        let gather = c.platform().take_timeline_trace();
        check_staged(&gather, "gather", block, (4, 12, 4));
        assert!(v.host_fresh(), "every block crossed the host");

        // Merge: each device's copy of each other target's block is
        // downloaded once and uploaded into a temporary on the target; each
        // target's combines fold the partials in device order. The
        // gathered copies are identical until a kernel writes them, as
        // OSEM's does before its merge.
        v.mark_devices_modified();
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        v.set_distribution_with(Distribution::Block, &add).unwrap();
        let merge = c.platform().take_timeline_trace();
        check_staged(&merge, "merge", block, (12, 12, 6));
        assert!(!v.host_fresh(), "the merge leaves the host copy stale");
        for t in 0..4 {
            let target = v.parts().unwrap()[t].buffer.id();
            let mut combines: Vec<&vgpu::CommandRecord> = of_kind(&merge, vgpu::CmdKind::Kernel)
                .filter(|r| r.device.0 == t)
                .collect();
            combines.sort_by(|a, b| a.start_s.partial_cmp(&b.start_s).unwrap());
            let sources: Vec<usize> = combines
                .iter()
                .map(|k| {
                    let partial = k.reads.iter().find(|a| a.buffer != target).unwrap();
                    let upload = of_kind(&merge, vgpu::CmdKind::H2D)
                        .find(|r| r.writes.iter().any(|w| w.buffer == partial.buffer))
                        .unwrap();
                    assert!(
                        k.deps.contains(&upload.seq),
                        "combine waits for its partial"
                    );
                    let download = of_kind(&merge, vgpu::CmdKind::D2H)
                        .find(|r| upload.deps.contains(&r.seq))
                        .unwrap();
                    download.device.0
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
    fn a_gather_to_copy_leaves_nothing_to_download() {
        // On four devices every block crosses the host on its way to the
        // other three, so the gather leaves the host copy current and
        // reading the vector back moves no byte.
        let c = ctx(4);
        let v = Vector::from_vec(&c, vec![0.0f32; 40]);
        v.ensure_on_devices().unwrap(); // Block
        for p in v.parts().unwrap() {
            for i in 0..p.rows {
                p.buffer.set(i, (p.row_offset + i) as f32 * 1.5);
            }
        }
        v.mark_devices_modified();
        v.set_distribution(Distribution::Copy).unwrap();
        let before = c.platform().stats_snapshot();
        let got = v.to_vec().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!((delta.total_transfers(), delta.d2h_bytes), (0, 0));
        assert_eq!(got, (0..40).map(|i| i as f32 * 1.5).collect::<Vec<_>>());
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
