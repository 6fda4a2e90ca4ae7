//! The distributed container: a 2D host/device matrix with lazy transfers
//! and multi-device distributions, including row blocks with halo rows.
//!
//! SkelCL shipped the `Matrix<T>` container after the paper (it backs the
//! Gaussian / Sobel / Canny benchmark suite). Here it is the one
//! implementation of the paper's lazy coherence protocol (Sections III-A
//! and III-D): [`crate::Vector`] is its N×1 view, whose `Single` and `Copy`
//! distributions are the matrix's and whose `Block` is
//! [`MatrixDistribution::RowBlock`] with `halo: 0`.
//!
//! Data is row-major. The multi-GPU story follows Section III-D of the
//! paper, extended with the *overlap* idea of SkelCL's stencil work: under
//! [`MatrixDistribution::RowBlock`] each device owns a contiguous block of
//! rows **plus `halo` read-only rows above and below it**, and the library
//! keeps those halo rows coherent by automatic exchange — the transfers
//! show up in the platform's [`vgpu::StatsSnapshot`] accounting like every
//! other copy.
//!
//! Halo rows wrap around the matrix edges (row `-1` is the last row), which
//! makes every part's halo well-defined regardless of position and lets the
//! `Wrap` boundary mode of [`crate::Stencil2D`] work across devices;
//! `Neumann`/`Zero` boundaries simply never read the wrapped rows.
//!
//! [`MatrixDistribution::ColBlock`] splits *columns* instead: each device
//! owns all rows of a contiguous column block. Host↔device transfers are
//! strided (one per row — each row's column slice is contiguous, the rows
//! are not), and redistribution between row- and column-based layouts
//! splits every row at owner column boundaries.
//!
//! Redistribution moves device-fresh data from its owners, never from a
//! stale host copy. Without peer-to-peer every byte between devices crosses
//! the host, and one routine (`stage_through_host`) moves them all: a
//! range another device needs is downloaded once and uploaded to each
//! device that needs it, each half on its own device's copy engine; a range
//! a device already holds is copied on the device. A redistribution stages
//! through the host copy, in place (and uploads straight from it when it
//! is current); a halo exchange, and a 2-D reduction's hop between parts,
//! stage only the bytes that cross.
//! Column blocks feed the [`crate::AllPairs`] skeleton's `B` operand
//! (matrix multiplication, pairwise distances).
//!
//! Lazy copying goes one step further for constant containers: a matrix
//! made by [`Matrix::filled`] (or [`Matrix::zeroed`]) knows every element
//! equals one value, so the devices make their copies with a device-side
//! fill instead of an upload, and no byte of it crosses PCIe. The host copy
//! is kept as usual; the first host write or device modification ends the
//! shortcut.

use crate::context::Context;
use crate::error::{Error, Result};
use parking_lot::{MappedMutexGuard, Mutex, MutexGuard};
use std::sync::Arc;
use vgpu::{Buffer, Event, Order, Scalar};

/// How a matrix's rows are laid out across the context's devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixDistribution {
    /// The whole matrix lives on one device.
    Single(usize),
    /// Every device holds a full copy.
    Copy,
    /// Rows are evenly divided into one contiguous block per device; each
    /// part additionally stores `halo` rows of overlap above and below its
    /// block (wrapping at the matrix edges).
    RowBlock { halo: usize },
    /// Columns are evenly divided into one contiguous block per device;
    /// every part stores all rows of its column block. Transfers are
    /// strided (one per row), which is exactly what a real OpenCL
    /// `clEnqueueWriteBufferRect` would batch up.
    ColBlock,
}

impl MatrixDistribution {
    /// Row-block with no overlap rows.
    pub fn row_block() -> Self {
        MatrixDistribution::RowBlock { halo: 0 }
    }

    /// Do parts under this distribution span the full matrix width?
    pub(crate) fn is_full_width(self) -> bool {
        !matches!(self, MatrixDistribution::ColBlock)
    }

    /// Does a download read part `index`? The first copy holds everything
    /// under `Single` and `Copy`; the blocked layouts read every part.
    pub(crate) fn downloads_part(self, index: usize) -> bool {
        index == 0 || self.is_blocked()
    }

    fn is_blocked(self) -> bool {
        matches!(
            self,
            MatrixDistribution::RowBlock { .. } | MatrixDistribution::ColBlock
        )
    }
}

/// One device-resident piece of a matrix: `halo_above + rows + halo_below`
/// consecutive (mod `n_rows`) rows of the part's column range, of which
/// `rows` starting at global row `row_offset` are *owned* (written back on
/// download / redistribution). Row-based distributions own the full width
/// (`col_offset == 0`, `cols == ` matrix width); under
/// [`MatrixDistribution::ColBlock`] each part owns the `cols` columns
/// starting at `col_offset`. The buffer's row stride is always `cols`.
#[derive(Clone)]
pub(crate) struct MatrixPart<T: Scalar> {
    pub device: usize,
    pub row_offset: usize,
    pub rows: usize,
    pub halo_above: usize,
    pub halo_below: usize,
    pub col_offset: usize,
    pub cols: usize,
    pub buffer: Buffer<T>,
}

impl<T: Scalar> MatrixPart<T> {
    /// A halo-free one-column part owning `rows` elements from global row
    /// `row_offset`: one part of a [`crate::Vector`].
    pub fn column(device: usize, row_offset: usize, rows: usize, buffer: Buffer<T>) -> Self {
        MatrixPart {
            device,
            row_offset,
            rows,
            halo_above: 0,
            halo_below: 0,
            col_offset: 0,
            cols: 1,
            buffer,
        }
    }

    /// Total rows stored in the buffer (owned + halos).
    pub fn span_rows(&self) -> usize {
        self.halo_above + self.rows + self.halo_below
    }

    /// Element offset of the first *owned* row in the part's buffer — the
    /// base every strided read pattern (column folds, row-segment folds)
    /// must add to skip the halo rows.
    pub fn owned_base(&self) -> usize {
        self.halo_above * self.cols
    }

    /// The global row stored at span row `s` of this part's buffer.
    pub fn global_row(&self, s: usize, n_rows: usize) -> usize {
        debug_assert!(s < self.span_rows());
        (self.row_offset + n_rows + s - self.halo_above) % n_rows
    }
}

struct State<T: Scalar> {
    host: Vec<T>,
    rows: usize,
    cols: usize,
    /// Host copy reflects the newest data.
    host_fresh: bool,
    /// Device copies (owned regions, under `dist`) reflect the newest data.
    device_fresh: bool,
    /// Halo rows agree with their owners' current data. Invalidated when a
    /// skeleton writes fresh device parts; re-established by upload,
    /// redistribution or an explicit [`Matrix::halo_exchange`].
    halos_fresh: bool,
    dist: MatrixDistribution,
    parts: Vec<MatrixPart<T>>,
    /// Every element equals this value and nothing has written the matrix
    /// since: stale device copies are made by a device fill, not an upload.
    uniform: Option<T>,
    /// A kernel wrote the device copies by side effect
    /// ([`Matrix::mark_devices_modified`], the paper's
    /// `dataOnDevicesModified`) and nothing has re-made them since: under
    /// `Copy` they may differ, so a merge has something to combine. A host
    /// write, a redistribution or a merge clears it; a read does not.
    devices_modified: bool,
}

/// The SkelCL matrix. Cloning yields a second handle to the same matrix
/// (C++ SkelCL passes containers by reference).
pub struct Matrix<T: Scalar> {
    ctx: Context,
    state: Arc<Mutex<State<T>>>,
}

impl<T: Scalar> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Matrix {
            ctx: self.ctx.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

impl<T: Scalar> std::fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Matrix")
            .field("rows", &st.rows)
            .field("cols", &st.cols)
            .field("dist", &st.dist)
            .field("host_fresh", &st.host_fresh)
            .field("device_fresh", &st.device_fresh)
            .field("halos_fresh", &st.halos_fresh)
            .finish()
    }
}

fn default_distribution(ctx: &Context) -> MatrixDistribution {
    if ctx.n_devices() == 1 {
        MatrixDistribution::Single(0)
    } else {
        MatrixDistribution::RowBlock { halo: 0 }
    }
}

/// Geometry of one part under a distribution (everything but the buffer).
#[derive(Debug, Clone, Copy)]
struct PartGeom {
    device: usize,
    row_offset: usize,
    rows: usize,
    halo_above: usize,
    halo_below: usize,
    col_offset: usize,
    cols: usize,
}

/// Contiguous near-equal block ranges `(offset, len)` of `len` over `n`
/// devices (or any `n` blocks); the first `len % n` blocks are one longer.
pub(crate) fn block_ranges(len: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.max(1);
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut off = 0;
    for d in 0..n {
        let l = base + usize::from(d < extra);
        out.push((off, l));
        off += l;
    }
    out
}

/// Layout of `dist` for a `rows × cols` matrix on `n_devices` devices.
fn layout(dist: MatrixDistribution, rows: usize, cols: usize, n_devices: usize) -> Vec<PartGeom> {
    let full_width = |device, row_offset, rows, halo| PartGeom {
        device,
        row_offset,
        rows,
        halo_above: halo,
        halo_below: halo,
        col_offset: 0,
        cols,
    };
    match dist {
        MatrixDistribution::Single(d) => vec![full_width(d, 0, rows, 0)],
        MatrixDistribution::Copy => (0..n_devices).map(|d| full_width(d, 0, rows, 0)).collect(),
        MatrixDistribution::RowBlock { halo } => {
            // Wrapped halos are only well-defined up to one full extra copy
            // of the matrix in each direction, so wider requests clamp to
            // `rows`. The clamp is *lossless*: a full-height halo already
            // holds every matrix row within reach of any wrapped or clamped
            // neighbour access, and a block window loads beyond-span rows
            // modulo the height against exactly that invariant
            // (regression: `tests/degenerate_shapes.rs`).
            let halo = halo.min(rows);
            block_ranges(rows, n_devices)
                .into_iter()
                .enumerate()
                .map(|(d, (off, len))| full_width(d, off, len, if len == 0 { 0 } else { halo }))
                .collect()
        }
        MatrixDistribution::ColBlock => block_ranges(cols, n_devices)
            .into_iter()
            .enumerate()
            .map(|(d, (off, len))| PartGeom {
                device: d,
                row_offset: 0,
                rows: if len == 0 { 0 } else { rows },
                halo_above: 0,
                halo_below: 0,
                col_offset: off,
                cols: len,
            })
            .collect(),
    }
}

/// Reject a `Single(d)` distribution naming a device the context lacks.
fn check_distribution(ctx: &Context, dist: MatrixDistribution) -> Result<()> {
    match dist {
        MatrixDistribution::Single(d) if d >= ctx.n_devices() => Err(Error::BadDistribution(
            format!("device {d} out of range ({} devices)", ctx.n_devices()),
        )),
        _ => Ok(()),
    }
}

/// Allocate one part's buffer (owned rows plus halos) for `geom`.
fn alloc_part<T: Scalar>(ctx: &Context, geom: PartGeom) -> Result<MatrixPart<T>> {
    Ok(MatrixPart {
        device: geom.device,
        row_offset: geom.row_offset,
        rows: geom.rows,
        halo_above: geom.halo_above,
        halo_below: geom.halo_below,
        col_offset: geom.col_offset,
        cols: geom.cols,
        buffer: ctx
            .device(geom.device)
            .alloc::<T>((geom.halo_above + geom.rows + geom.halo_below) * geom.cols)?,
    })
}

/// Allocate (uninitialised) device parts laid out per `dist` for a
/// `rows × cols` matrix — what a skeleton producing a fresh container of
/// that layout writes into.
pub(crate) fn alloc_parts<T: Scalar>(
    ctx: &Context,
    dist: MatrixDistribution,
    rows: usize,
    cols: usize,
) -> Result<Vec<MatrixPart<T>>> {
    check_distribution(ctx, dist)?;
    layout(dist, rows, cols, ctx.n_devices())
        .into_iter()
        .map(|geom| alloc_part(ctx, geom))
        .collect()
}

impl<T: Scalar> Matrix<T> {
    /// Create a matrix from row-major host data; no device transfer happens
    /// until a skeleton needs the data (lazy copying, Section III-A).
    pub fn from_vec(ctx: &Context, rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data must be rows*cols elements"
        );
        let dist = default_distribution(ctx);
        Matrix {
            ctx: ctx.clone(),
            state: Arc::new(Mutex::new(State {
                host: data,
                rows,
                cols,
                host_fresh: true,
                device_fresh: false,
                halos_fresh: false,
                dist,
                parts: Vec::new(),
                uniform: None,
                devices_modified: false,
            })),
        }
    }

    pub fn from_slice(ctx: &Context, rows: usize, cols: usize, data: &[T]) -> Self {
        Matrix::from_vec(ctx, rows, cols, data.to_vec())
    }

    /// A matrix of `rows × cols` elements all equal to `v`. Creation is
    /// lazy like [`Matrix::from_vec`], and the devices make their copies
    /// with a device-side fill, never an upload: a constant container
    /// costs no PCIe traffic.
    pub fn filled(ctx: &Context, rows: usize, cols: usize, v: T) -> Self {
        let m = Matrix::from_vec(ctx, rows, cols, vec![v; rows * cols]);
        m.state.lock().uniform = Some(v);
        m
    }

    /// A matrix of `rows × cols` default-initialised elements, filled on
    /// the devices like [`Matrix::filled`].
    pub fn zeroed(ctx: &Context, rows: usize, cols: usize) -> Self {
        Matrix::filled(ctx, rows, cols, T::default())
    }

    /// Build from a per-element generator `f(row, col)`.
    pub fn from_fn(ctx: &Context, rows: usize, cols: usize, f: impl Fn(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix::from_vec(ctx, rows, cols, data)
    }

    pub fn ctx(&self) -> &Context {
        &self.ctx
    }

    pub fn rows(&self) -> usize {
        self.state.lock().rows
    }

    pub fn cols(&self) -> usize {
        self.state.lock().cols
    }

    /// `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.rows, st.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        let st = self.state.lock();
        st.rows * st.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn distribution(&self) -> MatrixDistribution {
        self.state.lock().dist
    }

    /// Open the span of a skeleton call over this matrix, with its shape,
    /// distribution and device count.
    pub(crate) fn call_span(&self, name: &'static str) -> crate::trace::SpanGuard {
        let mut span = self.ctx.span(name);
        let (rows, cols) = self.dims();
        span.attr("shape", format!("{rows}x{cols}"));
        span.attr("distribution", format!("{:?}", self.distribution()));
        span.attr("devices", self.ctx.n_devices().to_string());
        span
    }

    /// Is the host copy current? (test/introspection aid)
    pub fn host_fresh(&self) -> bool {
        self.state.lock().host_fresh
    }

    /// Are the device copies current? (test/introspection aid)
    pub fn device_fresh(&self) -> bool {
        self.state.lock().device_fresh
    }

    /// Are the halo rows coherent with their owners? (test/introspection aid)
    pub fn halos_fresh(&self) -> bool {
        self.state.lock().halos_fresh
    }

    /// Were the device copies modified by side effect since they were last
    /// made? Only then can `Copy` copies differ.
    pub(crate) fn devices_modified(&self) -> bool {
        self.state.lock().devices_modified
    }

    /// Read access to the row-major host data, downloading first only if the
    /// device copies are newer (lazy copying).
    pub fn host_view(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        let mut st = self.state.lock();
        ensure_on_host(&self.ctx, &mut st)?;
        Ok(MutexGuard::map(st, |s| s.host.as_mut_slice()))
    }

    /// Mutable access to the host data; marks the device copies stale. A
    /// [`Matrix::filled`] matrix is no longer constant afterwards, so its
    /// next device copies are uploaded.
    pub fn host_view_mut(&self) -> Result<MappedMutexGuard<'_, [T]>> {
        let mut st = self.state.lock();
        ensure_on_host(&self.ctx, &mut st)?;
        st.host_fresh = true;
        st.device_fresh = false;
        st.halos_fresh = false;
        st.uniform = None;
        st.devices_modified = false;
        st.parts.clear();
        Ok(MutexGuard::map(st, |s| s.host.as_mut_slice()))
    }

    /// Copy the current contents out to a row-major `Vec` (downloads the
    /// owned regions if needed; halo rows are never written back).
    pub fn to_vec(&self) -> Result<Vec<T>> {
        let mut st = self.state.lock();
        ensure_on_host(&self.ctx, &mut st)?;
        Ok(st.host.clone())
    }

    /// Copy the current contents out like [`Matrix::to_vec`], but **without
    /// blocking the virtual host clock**: each part's owned region is
    /// downloaded by asynchronous reads on the device's copy stream, each
    /// ordered after the events of `fence` on its part's device. Returns the
    /// data plus the virtual time at which the last read completes — the
    /// moment the response is ready. Coherence state is untouched (the
    /// matrix's own host copy stays stale), so modeled work on other
    /// devices keeps overlapping instead of serializing behind a host-wide
    /// sync.
    ///
    /// `fence` must hold an event ordered after this matrix's producer on
    /// every device that holds a non-empty part; otherwise the read fails
    /// with [`Error::Unfenced`] before anything is enqueued. A marker per
    /// device taken now ([`vgpu::CommandQueue::enqueue_marker`]) orders the
    /// reads after everything already scheduled there. A caller that keeps
    /// launching takes the markers right after the producing launch and
    /// reads back later: the reads then wait for the producer, not for the
    /// launches enqueued after the markers. The executor service reads every
    /// job result back this way, batch k under batch k+1's kernel.
    pub fn read_back_after(&self, fence: &[Event]) -> Result<(Vec<T>, f64)> {
        let st = self.state.lock();
        if st.host_fresh {
            return Ok((st.host.clone(), self.ctx.host_now_s()));
        }
        assert!(
            st.device_fresh,
            "matrix has neither fresh host nor fresh device data"
        );
        let parts = host_parts(st.dist, &st.parts)?;
        let deps = parts
            .iter()
            .map(|p| {
                let on: Vec<Event> = fence
                    .iter()
                    .filter(|e| e.device.0 == p.device)
                    .cloned()
                    .collect();
                if on.is_empty() {
                    Err(Error::Unfenced { device: p.device })
                } else {
                    Ok(on)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        let concurrent = parts.len().max(1);
        let mut out = vec![T::default(); st.rows * st.cols];
        let mut ready = self.ctx.host_now_s();
        for (p, dep) in parts.iter().zip(&deps) {
            let read = HostRead {
                concurrent,
                blocking: false,
                order: Order::After(dep),
            };
            let queue = self.ctx.copy_queue(p.device);
            let ev = read_part_rows(queue, p, (0, p.rows), &mut out, st.cols, st.dist, read)?;
            ready = ready.max(ev.end_s);
        }
        Ok((out, ready))
    }

    /// The transposed matrix, built host-side (downloads first if the
    /// devices hold the newest data). The result starts life host-fresh
    /// under the context's default distribution; distribute it explicitly
    /// (e.g. [`MatrixDistribution::ColBlock`]) before feeding skeletons.
    pub fn transpose(&self) -> Result<Matrix<T>> {
        let (rows, cols) = self.dims();
        let src = self.host_view()?;
        let mut out = vec![T::default(); rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = src[r * cols + c];
            }
        }
        drop(src);
        Ok(Matrix::from_vec(&self.ctx, cols, rows, out))
    }

    /// Declare that a kernel modified this matrix on the devices by side
    /// effect (the paper's `dataOnDevicesModified()`). Halo rows become
    /// stale until the next exchange, and `Copy` copies may now differ:
    /// this is what lets [`crate::Vector::set_distribution_with`] merge.
    pub fn mark_devices_modified(&self) {
        let mut st = self.state.lock();
        assert!(
            !st.parts.is_empty(),
            "mark_devices_modified on a matrix that was never uploaded"
        );
        st.device_fresh = true;
        st.host_fresh = false;
        st.halos_fresh = false;
        st.uniform = None;
        st.devices_modified = true;
    }

    /// Upload to the devices (per the current distribution) if the device
    /// copies are stale; a constant matrix is filled on the devices
    /// instead. Skeletons call this implicitly.
    pub fn ensure_on_devices(&self) -> Result<()> {
        self.parts().map(drop)
    }

    /// Upload to the devices like [`Matrix::ensure_on_devices`], but
    /// **streamed in row chunks on the copy stream**: the chunks are
    /// asynchronous writes ordered after earlier copies only, so they cross
    /// PCIe under whatever kernel the device is still running, and a
    /// device-ordered launch after them waits for all of them (the
    /// executor's batch upload). A no-op when the devices are already
    /// fresh; bit-identical data either way.
    pub fn ensure_on_devices_streamed(&self, chunk_rows: usize) -> Result<()> {
        self.parts_with_upload_chunks(chunk_rows).map(drop)
    }

    /// Refresh every part's halo rows from the rows' owning parts: rows
    /// another device owns cross the host, staged in buffers holding only
    /// them, and rows the part's own device holds are copied there. A no-op
    /// when halos are already coherent, when the distribution has no
    /// halos, or when the freshest data is on the host (the next upload
    /// fills halos anyway).
    pub fn halo_exchange(&self) -> Result<()> {
        let mut st = self.state.lock();
        halo_exchange(&self.ctx, &mut st)
    }

    /// Change the distribution (paper's `setDistribution`, rows instead of
    /// elements). If the devices hold the newest data, the required
    /// inter-device exchange — including filling the new layout's halo rows
    /// — happens automatically; otherwise only metadata changes and the
    /// next upload uses the new layout. The rows that cross devices pass
    /// through the host copy, so once every row has crossed (a gather to
    /// `Copy`, say) the host copy is fresh too; when it already was, they
    /// are uploaded from it and nothing is downloaded.
    pub fn set_distribution(&self, dist: MatrixDistribution) -> Result<()> {
        check_distribution(&self.ctx, dist)?;
        let mut st = self.state.lock();
        if st.dist == dist {
            return Ok(());
        }
        if !st.device_fresh {
            st.dist = dist;
            st.parts.clear();
            return Ok(());
        }
        let dims = (st.rows, st.cols);
        let row_based = st.dist.is_full_width() && dist.is_full_width();
        let current = st.host_fresh;
        redistribute(&self.ctx, &mut st, dist, |old, new, host| {
            copy_from_owners(&self.ctx, (old, new), (host, current), dims, row_based)
        })
    }

    /// Move the device-fresh data into `dist` like
    /// [`Matrix::set_distribution`], but let `fill(old_parts, new_parts)`
    /// write the new parts instead of copying from the owners: the hook
    /// [`crate::Vector::set_distribution_with`] merges diverged copies
    /// through. What `fill` writes is the newest data, so the host copy
    /// goes stale even if it was read back from one of the old copies.
    pub(crate) fn redistribute_with(
        &self,
        dist: MatrixDistribution,
        fill: impl FnOnce(&[MatrixPart<T>], &[MatrixPart<T>]) -> Result<()>,
    ) -> Result<()> {
        let mut st = self.state.lock();
        redistribute(&self.ctx, &mut st, dist, |old, new, _| {
            fill(old, new).map(|()| false)
        })
    }

    /// The device-resident parts (uploading first if needed). Halo coherence
    /// is **not** implied; callers that read halo rows go through
    /// [`Matrix::halo_exchange`] first (Stencil2D does this automatically).
    pub(crate) fn parts(&self) -> Result<Vec<MatrixPart<T>>> {
        self.upload_parts(|_, _| ())
    }

    /// Like [`Matrix::parts`], but also guarantees halo coherence.
    pub(crate) fn parts_with_fresh_halos(&self) -> Result<Vec<MatrixPart<T>>> {
        let parts = self.parts()?;
        self.halo_exchange()?;
        Ok(parts)
    }

    /// The device-resident parts, uploading *streamed* in `chunk_rows`-row
    /// chunks first if the devices are stale, with per part the event at
    /// which this call's upload to it landed: its last chunk's, since the
    /// copy stream keeps a part's chunks in order. `None` where this call
    /// streamed nothing to the part: the devices were already fresh, the
    /// part is empty, or the upload was blocking. A consumer that waits for
    /// these events waits for exactly its own upload, never an earlier one.
    /// Halo coherence is not implied.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts_with_upload_chunks(
        &self,
        chunk_rows: usize,
    ) -> Result<(Vec<MatrixPart<T>>, Vec<Option<Event>>)> {
        let mut st = self.state.lock();
        let mut landed = Vec::new();
        if !st.device_fresh {
            landed = ensure_on_devices_streamed(&self.ctx, &mut st, chunk_rows)?;
        }
        landed.resize(st.parts.len(), None);
        Ok((st.parts.clone(), landed))
    }

    /// The device-resident parts, uploading first if the devices are
    /// stale. The upload runs inside the guard `upload_span(len, dist)`
    /// returns, so a view can name its uploads: [`crate::Vector`] wraps
    /// them in its `vector.upload` spans, while matrix uploads run
    /// span-less. Halo coherence is not implied.
    pub(crate) fn upload_parts<S>(
        &self,
        upload_span: impl FnOnce(usize, MatrixDistribution) -> S,
    ) -> Result<Vec<MatrixPart<T>>> {
        let mut st = self.state.lock();
        if !st.device_fresh {
            let _span = upload_span(st.rows * st.cols, st.dist);
            ensure_on_devices(&self.ctx, &mut st)?;
        }
        Ok(st.parts.clone())
    }

    /// Wrap freshly computed device parts as a new matrix (skeleton
    /// outputs): device data is fresh, host copy is stale. `halos_fresh`
    /// records whether the producer also wrote the halo rows (element-wise
    /// skeletons do; stencils cannot).
    pub(crate) fn from_device_parts(
        ctx: &Context,
        rows: usize,
        cols: usize,
        dist: MatrixDistribution,
        parts: Vec<MatrixPart<T>>,
        halos_fresh: bool,
    ) -> Self {
        Self::from_parts_and_host(ctx, (rows, cols), dist, parts, halos_fresh, None)
    }

    /// Wrap skeleton output parts like [`Matrix::from_device_parts`]; with
    /// `host`, the parts' owned rows already read back, the matrix is fresh
    /// on the host too and keeps that buffer as its host copy.
    pub(crate) fn from_parts_and_host(
        ctx: &Context,
        (rows, cols): (usize, usize),
        dist: MatrixDistribution,
        parts: Vec<MatrixPart<T>>,
        halos_fresh: bool,
        host: Option<Vec<T>>,
    ) -> Self {
        Matrix {
            ctx: ctx.clone(),
            state: Arc::new(Mutex::new(State {
                host_fresh: host.is_some(),
                host: host.unwrap_or_else(|| vec![T::default(); rows * cols]),
                rows,
                cols,
                device_fresh: true,
                halos_fresh,
                dist,
                parts,
                uniform: None,
                devices_modified: false,
            })),
        }
    }
}

/// The contiguous global-row runs covering span rows `[0, span_rows)` of a
/// part, as `(span_row_start, global_row_start, n_rows)` — wrapped halos
/// split the span into at most three runs.
fn span_runs<T: Scalar>(p: &MatrixPart<T>, n_rows: usize) -> Vec<(usize, usize, usize)> {
    let mut runs = Vec::new();
    let mut s = 0usize;
    while s < p.span_rows() {
        let g = p.global_row(s, n_rows);
        // Run until the global row would wrap past the last matrix row.
        let len = (p.span_rows() - s).min(n_rows - g);
        runs.push((s, g, len));
        s += len;
    }
    runs
}

/// Upload `st.host` per `st.dist` if the device copies are stale. Halo rows
/// are filled straight from the host, so they come out coherent.
///
/// Full-width parts upload in contiguous multi-row runs; column-block parts
/// need one strided write per row (each row's column slice is contiguous on
/// the host but the rows are not adjacent). A uniform matrix uploads
/// nothing: one device fill per part, halos included, writes its value.
fn ensure_on_devices<T: Scalar>(ctx: &Context, st: &mut State<T>) -> Result<()> {
    if st.device_fresh {
        return Ok(());
    }
    assert!(
        st.host_fresh,
        "matrix has neither fresh host nor fresh device data"
    );
    let cols = st.cols;
    let lay = layout(st.dist, st.rows, cols, ctx.n_devices());
    let concurrent = lay.iter().filter(|g| g.rows > 0).count().max(1);
    let mut parts = Vec::with_capacity(lay.len());
    for geom in lay {
        let part = alloc_part(ctx, geom)?;
        if part.rows > 0 && part.cols > 0 {
            if let Some(v) = st.uniform {
                ctx.queue(part.device).enqueue_fill(&part.buffer, v)?;
            } else if part.cols == cols {
                for (s, g, len) in span_runs(&part, st.rows) {
                    ctx.queue(part.device).enqueue_write(
                        &part.buffer,
                        Some(s * cols),
                        &st.host[g * cols..(g + len) * cols],
                        concurrent,
                        Order::Device,
                    )?;
                }
            } else {
                let c0 = part.col_offset;
                let c1 = c0 + part.cols;
                for s in 0..part.span_rows() {
                    let g = part.global_row(s, st.rows);
                    ctx.queue(part.device).enqueue_write(
                        &part.buffer,
                        Some(s * part.cols),
                        &st.host[g * cols + c0..g * cols + c1],
                        concurrent,
                        Order::Device,
                    )?;
                }
            }
        }
        parts.push(part);
    }
    st.parts = parts;
    st.device_fresh = true;
    st.halos_fresh = true;
    Ok(())
}

/// Upload `st.host` like [`ensure_on_devices`], but **streamed**: each
/// full-width part's span goes out in row chunks of (at most) `chunk_rows`
/// as asynchronous writes on the device's *copy stream*. Returns, per
/// part, the event of its last chunk (`None` for an empty part), which a
/// dependent kernel waits for to start once the part has landed. Results
/// are bit-identical to the blocking upload (same bytes, same
/// destination); only the modeled timeline differs.
///
/// Column-block layouts fall back to the blocking upload (their per-row
/// strided writes are already minimal and no consumer chunks by rows), and
/// so do uniform matrices, whose device fill crosses no bus to stream;
/// both return no events.
fn ensure_on_devices_streamed<T: Scalar>(
    ctx: &Context,
    st: &mut State<T>,
    chunk_rows: usize,
) -> Result<Vec<Option<Event>>> {
    if !st.dist.is_full_width() || st.uniform.is_some() {
        ensure_on_devices(ctx, st)?;
        return Ok(Vec::new());
    }
    assert!(
        st.host_fresh,
        "matrix has neither fresh host nor fresh device data"
    );
    let chunk_rows = chunk_rows.max(1);
    let cols = st.cols;
    let lay = layout(st.dist, st.rows, cols, ctx.n_devices());
    let concurrent = lay.iter().filter(|g| g.rows > 0).count().max(1);
    let mut parts = Vec::with_capacity(lay.len());
    let mut landed = Vec::with_capacity(lay.len());
    for geom in lay {
        let part = alloc_part(ctx, geom)?;
        let mut last = None;
        if part.rows > 0 && cols > 0 {
            let queue = ctx.copy_queue(part.device);
            for (s, g, len) in span_runs(&part, st.rows) {
                // Split each contiguous run into chunk_rows-row writes; the
                // copy stream keeps them in order, so the last chunk's
                // event also covers every chunk before it.
                let mut done = 0;
                while done < len {
                    let n = chunk_rows.min(len - done);
                    last = Some(queue.enqueue_write(
                        &part.buffer,
                        Some((s + done) * cols),
                        &st.host[(g + done) * cols..(g + done + n) * cols],
                        concurrent,
                        Order::After(&[]),
                    )?);
                    done += n;
                }
            }
        }
        parts.push(part);
        landed.push(last);
    }
    st.parts = parts;
    st.device_fresh = true;
    st.halos_fresh = true;
    Ok(landed)
}

/// Download the owned regions into `st.host` if the host copy is stale:
/// a `Single` or `Copy` matrix in one blocking read of its first copy, the
/// blocked layouts with one read per part, after which the host waits for
/// every device.
fn ensure_on_host<T: Scalar>(ctx: &Context, st: &mut State<T>) -> Result<()> {
    if st.host_fresh {
        return Ok(());
    }
    assert!(
        st.device_fresh,
        "matrix has neither fresh host nor fresh device data"
    );
    let parts = host_parts(st.dist, &st.parts)?;
    let whole = !st.dist.is_blocked();
    let read = HostRead {
        concurrent: parts.len().max(1),
        blocking: whole,
        order: Order::Device,
    };
    for p in parts {
        let queue = ctx.queue(p.device);
        read_part_rows(queue, p, (0, p.rows), &mut st.host, st.cols, st.dist, read)?;
    }
    if !whole {
        ctx.sync();
    }
    st.host_fresh = true;
    Ok(())
}

/// The parts a download reads (see [`MatrixDistribution::downloads_part`]),
/// empty ones skipped.
pub(crate) fn host_parts<T: Scalar>(
    dist: MatrixDistribution,
    parts: &[MatrixPart<T>],
) -> Result<Vec<&MatrixPart<T>>> {
    if parts.is_empty() && !dist.is_blocked() {
        return Err(Error::NotOnDevice("no device parts to download".into()));
    }
    Ok(parts
        .iter()
        .enumerate()
        .filter(|&(i, p)| dist.downloads_part(i) && p.rows > 0 && p.cols > 0)
        .map(|(_, p)| p)
        .collect())
}

/// How [`read_part_rows`] issues its reads.
#[derive(Clone, Copy)]
pub(crate) struct HostRead<'a> {
    /// The transfers sharing the host bus.
    pub concurrent: usize,
    /// The host clock waits for each read.
    pub blocking: bool,
    pub order: Order<'a>,
}

/// Download owned rows `[start, start + len)` (at least one) of part `p`
/// on `queue` into their place in `host`, the row-major matrix `cols` wide
/// laid out as `dist`. Full-width rows are one read; a `ColBlock` part
/// reads one per row, as each row's column slice is contiguous on both
/// sides and the rows are not. Returns the last read's event.
pub(crate) fn read_part_rows<T: Scalar>(
    queue: &vgpu::CommandQueue,
    p: &MatrixPart<T>,
    (start, len): (usize, usize),
    host: &mut [T],
    cols: usize,
    dist: MatrixDistribution,
    read: HostRead<'_>,
) -> Result<Event> {
    let enqueue = |at: usize, dst: &mut [T]| {
        queue.enqueue_read(
            &p.buffer,
            Some(at),
            dst,
            read.concurrent,
            read.blocking,
            read.order,
        )
    };
    if dist.is_full_width() {
        let first = p.row_offset + start;
        let dst = &mut host[first * cols..(first + len) * cols];
        return Ok(enqueue((p.halo_above + start) * cols, dst)?);
    }
    let (c0, c1) = (p.col_offset, p.col_offset + p.cols);
    let mut last = None;
    for r in start..start + len {
        last = Some(enqueue(
            r * p.cols,
            &mut host[r * cols + c0..r * cols + c1],
        )?);
    }
    Ok(last.expect("at least one row is read"))
}

/// The part owning global row `g` (for `Copy`, the copy on `prefer`).
fn owner_of_row<T: Scalar>(parts: &[MatrixPart<T>], g: usize, prefer: usize) -> &MatrixPart<T> {
    parts
        .iter()
        .filter(|p| g >= p.row_offset && g < p.row_offset + p.rows)
        .min_by_key(|p| if p.device == prefer { 0 } else { 1 })
        .expect("global row not owned by any part")
}

/// The part owning cell `(g, col)` (for `Copy`, the copy on `prefer`).
fn owner_of_cell<T: Scalar>(
    parts: &[MatrixPart<T>],
    g: usize,
    col: usize,
    prefer: usize,
) -> &MatrixPart<T> {
    parts
        .iter()
        .filter(|p| {
            g >= p.row_offset
                && g < p.row_offset + p.rows
                && col >= p.col_offset
                && col < p.col_offset + p.cols
        })
        .min_by_key(|p| if p.device == prefer { 0 } else { 1 })
        .expect("matrix cell not owned by any part")
}

/// One range a redistribution or halo exchange moves: `len` elements of
/// `src` from element `src_off` into `dst` at `dst_off`.
pub(crate) struct PartCopy<'a, T: Scalar> {
    pub src: &'a MatrixPart<T>,
    pub dst: &'a MatrixPart<T>,
    pub src_off: usize,
    pub dst_off: usize,
    pub len: usize,
}

impl<T: Scalar> PartCopy<'_, T> {
    fn crosses_devices(&self) -> bool {
        self.src.device != self.dst.device
    }

    /// Where the source range starts in the row-major host copy of an
    /// `n_rows × n_cols` matrix. A copy reads owned cells of one row, or
    /// of consecutive full-width rows, so the range is contiguous there.
    fn host_offset(&self, n_rows: usize, n_cols: usize) -> usize {
        let src = self.src;
        let row = src.global_row(self.src_off / src.cols, n_rows);
        row * n_cols + src.col_offset + self.src_off % src.cols
    }

    /// Issue the copy, which must stay on one device, under `order`:
    /// device-ordered, or event-ordered on the copy engine, waiting only for
    /// the listed events.
    fn issue(&self, ctx: &Context, order: Order<'_>) -> Result<Event> {
        Ok(ctx.platform().copy(
            &self.src.buffer,
            self.src_off,
            &self.dst.buffer,
            self.dst_off,
            self.len,
            order,
        )?)
    }
}

/// The copies filling a run of global rows of `dst` from their owners:
/// `run` is `(span_row_start, global_row_start, n_rows)`, as produced by
/// [`span_runs`] / [`halo_runs`].
fn row_run_copies<'a, T: Scalar>(
    parts: &'a [MatrixPart<T>],
    dst: &'a MatrixPart<T>,
    run: (usize, usize, usize),
    cols: usize,
) -> Vec<PartCopy<'a, T>> {
    let (mut s, mut g, mut len) = run;
    let mut copies = Vec::new();
    while len > 0 {
        let src = owner_of_row(parts, g, dst.device);
        let src_span_row = src.halo_above + (g - src.row_offset);
        let run = len.min(src.row_offset + src.rows - g);
        // An identity copy (same allocation, same span position) is a
        // no-op; a same-buffer copy at a *different* span position is real
        // — that is how single-device wrap halos are filled from the owned
        // rows.
        if !(src.buffer.same_allocation(&dst.buffer) && src_span_row == s) {
            copies.push(PartCopy {
                src,
                dst,
                src_off: src_span_row * cols,
                dst_off: s * cols,
                len: run * cols,
            });
        }
        s += run;
        g += run;
        len -= run;
    }
    copies
}

/// The copies filling span row `s` (global row `g`) of `dst` from the
/// owning parts, splitting the part's column range at owner boundaries.
/// The column-aware twin of [`row_run_copies`], used whenever either side
/// of a redistribution is not full-width.
fn span_row_copies<'a, T: Scalar>(
    parts: &'a [MatrixPart<T>],
    dst: &'a MatrixPart<T>,
    s: usize,
    g: usize,
) -> Vec<PartCopy<'a, T>> {
    let mut copies = Vec::new();
    let mut c = dst.col_offset;
    let end = dst.col_offset + dst.cols;
    while c < end {
        let src = owner_of_cell(parts, g, c, dst.device);
        let src_span_row = src.halo_above + (g - src.row_offset);
        let w = end.min(src.col_offset + src.cols) - c;
        let src_off = src_span_row * src.cols + (c - src.col_offset);
        let dst_off = s * dst.cols + (c - dst.col_offset);
        if !(src.buffer.same_allocation(&dst.buffer) && src_off == dst_off) {
            copies.push(PartCopy {
                src,
                dst,
                src_off,
                dst_off,
                len: w,
            });
        }
        c += w;
    }
    copies
}

/// Refresh halo rows from their owners.
fn halo_exchange<T: Scalar>(ctx: &Context, st: &mut State<T>) -> Result<()> {
    if st.halos_fresh || !st.device_fresh || st.cols == 0 {
        return Ok(());
    }
    exchange_part_halos(ctx, &st.parts, st.rows, st.cols, false)?;
    ctx.sync();
    st.halos_fresh = true;
    Ok(())
}

/// Refresh every part's halo rows from the rows' owning parts — the
/// matrix-independent core of [`Matrix::halo_exchange`], also driven
/// directly by a `Pipeline` stencil chain on its device-resident parts.
/// With `skip_wrapped` the halo runs whose global rows wrap
/// around the matrix edge are left untouched: only the `Wrap` boundary mode
/// ever reads them, so a stencil that knows its boundary is `Neumann`/`Zero`
/// can batch a strictly smaller exchange. Rows a part's own device holds
/// are copied on the device; the others cross the host
/// ([`stage_through_host`]), staged in buffers holding only them. Every
/// transfer waits for a marker joining its device, as a device-ordered
/// copy would. Returns whether any halo rows
/// were actually refreshed: that is one exchange *event*, counted here in
/// [`Context::halo_exchange_count`] for every caller, inside a
/// `halo.exchange` span. A round where every run is skipped is a no-op: it
/// counts nothing and opens no span.
pub(crate) fn exchange_part_halos<T: Scalar>(
    ctx: &Context,
    parts: &[MatrixPart<T>],
    n_rows: usize,
    cols: usize,
    skip_wrapped: bool,
) -> Result<bool> {
    Ok(exchange_part_halos_impl(ctx, parts, n_rows, cols, skip_wrapped, usize::MAX, None)?.0)
}

/// The transfer events one overlapped halo exchange issued for one part.
#[derive(Clone, Default)]
pub(crate) struct PartExchange {
    /// The uploads (and device copies) that wrote into the part's halo
    /// rows: what a launch reading those rows waits for.
    pub incoming: Vec<Event>,
    /// The downloads (and device copies) that read the part's owned rows:
    /// what a launch overwriting those rows waits for.
    pub outgoing: Vec<Event>,
}

/// The overlapped twin of [`exchange_part_halos`]: it refreshes only the
/// `depth` halo rows nearest each side's owned rows, and every transfer is
/// issued **asynchronously on the copy streams**: a download or device copy
/// waits for the producer events in `deps_by_device` on its source's
/// device, an upload for those on its own device and for the download of
/// its rows, so the whole exchange runs underneath unrelated kernels.
/// Events are counted exactly like the serial exchange (issuing on the copy
/// stream must not change the count). Returns each part's
/// [`PartExchange`].
pub(crate) fn exchange_part_halos_overlapped<T: Scalar>(
    ctx: &Context,
    parts: &[MatrixPart<T>],
    n_rows: usize,
    cols: usize,
    skip_wrapped: bool,
    depth: usize,
    deps_by_device: &[Vec<Event>],
) -> Result<Vec<PartExchange>> {
    let deps = Some(deps_by_device);
    Ok(exchange_part_halos_impl(ctx, parts, n_rows, cols, skip_wrapped, depth, deps)?.1)
}

fn exchange_part_halos_impl<T: Scalar>(
    ctx: &Context,
    parts: &[MatrixPart<T>],
    n_rows: usize,
    cols: usize,
    skip_wrapped: bool,
    depth: usize,
    deps_by_device: Option<&[Vec<Event>]>,
) -> Result<(bool, Vec<PartExchange>)> {
    let mut events = vec![PartExchange::default(); parts.len()];
    if cols == 0 {
        return Ok((false, events));
    }
    // The copies, and the index of the part whose halo each one fills. A
    // halo run always reads other span rows than its own, so every run
    // left after `skip_wrapped` makes at least one copy.
    let (mut local, mut cross) = (Vec::new(), Vec::new());
    for (i, p) in parts.iter().enumerate() {
        if p.rows == 0 {
            continue;
        }
        for above in [true, false] {
            for run in halo_runs(p, n_rows, above, depth) {
                if skip_wrapped && run_is_wrapped(p, run, n_rows) {
                    continue;
                }
                for copy in row_run_copies(parts, p, run, cols) {
                    match copy.crosses_devices() {
                        true => cross.push((copy, i)),
                        false => local.push((copy, i)),
                    }
                }
            }
        }
    }
    if local.is_empty() && cross.is_empty() {
        return Ok((false, events));
    }
    let deepest = parts.iter().map(|p| p.halo_above.max(p.halo_below)).max();
    let mut span = ctx.span("halo.exchange");
    span.attr("shape", format!("{n_rows}x{cols}"));
    span.attr("rows", deepest.unwrap_or(0).min(depth).to_string());
    span.attr("overlapped", deps_by_device.is_some().to_string());
    span.attr("devices", ctx.n_devices().to_string());
    // Without producers to wait for, each transfer waits for a marker
    // joining its device, as a device-ordered copy would.
    let markers;
    let after = match deps_by_device {
        Some(after) => after,
        None => {
            let copies = local.iter().chain(&cross).map(|(c, _)| c);
            markers = copy_markers(ctx, copies.flat_map(|c| [c.src.device, c.dst.device]));
            &markers
        }
    };
    let index = |part: &MatrixPart<T>| {
        let i = parts.iter().position(|p| std::ptr::eq(p, part));
        i.expect("copies read the exchanged parts")
    };
    for (copy, i) in &local {
        let event = copy.issue(ctx, Order::After(&after[copy.src.device]))?;
        events[index(copy.src)].outgoing.push(event.clone());
        events[*i].incoming.push(event);
    }
    let copies: Vec<_> = cross.iter().map(|(c, _)| c).collect();
    let staged = stage_through_host(ctx, &copies, (n_rows, cols), Staging::Scratch, after)?;
    for (src, event) in staged.downloads {
        events[index(src)].outgoing.push(event);
    }
    for ((_, i), event) in cross.iter().zip(staged.uploads) {
        events[*i].incoming.push(event);
    }
    // Counted after the span closes, in the span of the skeleton that
    // needed the refresh.
    drop(span);
    ctx.note_halo_exchange();
    Ok((true, events))
}

/// Does this halo run (as produced by [`halo_runs`]) hold rows that wrap
/// around the matrix edge? Runs never straddle a wrap point ([`halo_runs`]
/// splits there), so testing the first row suffices.
fn run_is_wrapped<T: Scalar>(p: &MatrixPart<T>, run: (usize, usize, usize), n_rows: usize) -> bool {
    let unwrapped = p.row_offset as isize + run.0 as isize - p.halo_above as isize;
    unwrapped < 0 || unwrapped >= n_rows as isize
}

/// The contiguous global-row runs of the `depth` rows of a part's upper
/// (`above == true`) or lower halo nearest its owned rows (all of them when
/// the halo is shallower), as `(span_row_start, global_row_start, n_rows)`.
fn halo_runs<T: Scalar>(
    p: &MatrixPart<T>,
    n_rows: usize,
    above: bool,
    depth: usize,
) -> Vec<(usize, usize, usize)> {
    let (span_start, span_len) = if above {
        let len = p.halo_above.min(depth);
        (p.halo_above - len, len)
    } else {
        (p.halo_above + p.rows, p.halo_below.min(depth))
    };
    let mut runs = Vec::new();
    let mut s = span_start;
    while s < span_start + span_len {
        let g = p.global_row(s, n_rows);
        let len = (span_start + span_len - s).min(n_rows - g);
        runs.push((s, g, len));
        s += len;
    }
    runs
}

/// Move device-fresh data from `st.dist`/`st.parts` into `new_dist`:
/// allocate the new layout, let `fill(old_parts, new_parts, host)` write
/// it, and join the devices. `fill` may stage data through the host copy
/// `host` and returns whether that copy holds the newest data afterwards.
/// The new parts are made from the old ones, not modified by side effect.
fn redistribute<T: Scalar>(
    ctx: &Context,
    st: &mut State<T>,
    new_dist: MatrixDistribution,
    fill: impl FnOnce(&[MatrixPart<T>], &[MatrixPart<T>], &mut [T]) -> Result<bool>,
) -> Result<()> {
    let new_parts = alloc_parts(ctx, new_dist, st.rows, st.cols)?;
    if st.cols > 0 {
        st.host_fresh = fill(&st.parts, &new_parts, &mut st.host)?;
        ctx.sync();
    }
    st.parts = new_parts;
    st.dist = new_dist;
    st.halos_fresh = true;
    st.devices_modified = false;
    Ok(())
}

/// A marker on the copy stream of each of `devices`, once per device:
/// what a batch's transfers on that device wait for, so they follow
/// everything already scheduled there, as a device-ordered copy would.
pub(crate) fn copy_markers(
    ctx: &Context,
    devices: impl IntoIterator<Item = usize>,
) -> Vec<Vec<Event>> {
    let mut markers: Vec<Vec<Event>> = vec![Vec::new(); ctx.n_devices()];
    for d in devices {
        if markers[d].is_empty() {
            markers[d].push(ctx.copy_queue(d).enqueue_marker());
        }
    }
    markers
}

/// The contention figure every transfer of a batch staged through the host
/// is priced at: each holds one device's copy engine, so at most as many
/// are in flight as the batch touches devices.
pub(crate) fn engines_touched(devices: impl IntoIterator<Item = usize>) -> usize {
    let mut touched = Vec::new();
    for d in devices {
        if !touched.contains(&d) {
            touched.push(d);
        }
    }
    touched.len().max(1)
}

/// Where [`stage_through_host`] keeps the bytes between their download and
/// their uploads.
pub(crate) enum Staging<'h, T> {
    /// The container's host copy, which already holds the newest data:
    /// each range is uploaded straight from its place there, and nothing
    /// is downloaded.
    Current(&'h mut [T]),
    /// The container's stale host copy: each range is downloaded into its
    /// place there.
    Stale(&'h mut [T]),
    /// Host buffers holding only the ranges that cross, dropped once the
    /// uploads are issued.
    Scratch,
}

/// The transfers [`stage_through_host`] issued.
pub(crate) struct Staged<'p, T: Scalar> {
    /// Each download, with the part it read.
    pub downloads: Vec<(&'p MatrixPart<T>, Event)>,
    /// Each copy's upload, in batch order.
    pub uploads: Vec<Event>,
    /// The elements downloaded.
    pub downloaded: usize,
}

/// Move `cross`, copies between two devices, through the host: the one
/// path by which bytes go from device to device, since the modeled S1070
/// has no peer-to-peer. Each source range is downloaded once, on its
/// owner's copy stream, and uploaded on the copy stream of each device that
/// needs it: a read and a write joined by an event wait list. In the
/// row-major host layout of the `n_rows × n_cols` matrix, one owner's
/// ranges that overlap or abut go as one download. A download waits for
/// `after[owner]`, an upload for `after[its device]` and the download of
/// its bytes. Each transfer holds its own device's copy engine only, so
/// each is priced at [`engines_touched`]. `staging` says where the bytes
/// wait in between.
pub(crate) fn stage_through_host<'p, T: Scalar>(
    ctx: &Context,
    cross: &[&PartCopy<'p, T>],
    (n_rows, n_cols): (usize, usize),
    staging: Staging<'_, T>,
    after: &[Vec<Event>],
) -> Result<Staged<'p, T>> {
    let current = matches!(staging, Staging::Current(_));
    let mut at: Vec<usize> = cross
        .iter()
        .map(|c| c.host_offset(n_rows, n_cols))
        .collect();
    // Per download: its owner, offset in the owner's buffer, host range.
    // In host order, a range joins the previous download when it has the
    // same owner and overlaps or abuts it. Different owners' ranges never
    // overlap, and one owner's abutting ranges are contiguous in its
    // buffer too.
    let mut reads: Vec<(&MatrixPart<T>, usize, usize, usize)> = Vec::new();
    let mut read_of = vec![0; cross.len()];
    if !current {
        let mut by_host: Vec<usize> = (0..cross.len()).collect();
        by_host.sort_by_key(|&i| at[i]);
        for i in by_host {
            let (c, lo) = (cross[i], at[i]);
            match reads.last_mut() {
                Some((src, _, _, hi)) if std::ptr::eq(*src, c.src) && lo <= *hi => {
                    *hi = (*hi).max(lo + c.len);
                }
                _ => reads.push((c.src, c.src_off, lo, lo + c.len)),
            }
            read_of[i] = reads.len() - 1;
        }
    }
    let mut scratch;
    let host = match staging {
        Staging::Current(host) | Staging::Stale(host) => host,
        Staging::Scratch => {
            // Pack the downloads end to end, each range moving with its
            // download.
            let mut packed = 0;
            let mut shift = Vec::with_capacity(reads.len());
            for (_, _, lo, hi) in &mut reads {
                shift.push(*lo - packed);
                (*lo, *hi) = (packed, packed + *hi - *lo);
                packed = *hi;
            }
            for (a, &r) in at.iter_mut().zip(&read_of) {
                *a -= shift[r];
            }
            scratch = vec![T::default(); packed];
            &mut scratch[..]
        }
    };
    let engines = reads.iter().map(|r| r.0.device);
    let concurrent = engines_touched(engines.chain(cross.iter().map(|c| c.dst.device)));
    let mut staged = Staged {
        downloads: Vec::with_capacity(reads.len()),
        uploads: Vec::with_capacity(cross.len()),
        downloaded: 0,
    };
    for &(src, src_off, lo, hi) in &reads {
        let queue = ctx.copy_queue(src.device);
        let order = Order::After(&after[src.device]);
        let dst = &mut host[lo..hi];
        let fetched =
            queue.enqueue_read(&src.buffer, Some(src_off), dst, concurrent, false, order)?;
        staged.downloads.push((src, fetched));
        staged.downloaded += hi - lo;
    }
    for ((c, lo), read) in cross.iter().zip(at).zip(read_of) {
        let mut deps = after[c.dst.device].clone();
        if !current {
            deps.push(staged.downloads[read].1.clone());
        }
        staged
            .uploads
            .push(ctx.copy_queue(c.dst.device).enqueue_write(
                &c.dst.buffer,
                Some(c.dst_off),
                &host[lo..lo + c.len],
                concurrent,
                Order::After(&deps),
            )?);
    }
    Ok(staged)
}

/// Move `len` elements of `src` into `dst`, buffers on two devices, through
/// the host ([`stage_through_host`]), after everything already scheduled on
/// both: the hop a chained 2-D reduction's partials take between parts.
pub(crate) fn stage_buffer<T: Scalar>(
    ctx: &Context,
    src: &Buffer<T>,
    dst: &Buffer<T>,
    len: usize,
) -> Result<()> {
    let part = |b: &Buffer<T>| MatrixPart::column(b.device().0, 0, len, b.clone());
    let (src, dst) = (part(src), part(dst));
    let hop = PartCopy {
        src: &src,
        dst: &dst,
        src_off: 0,
        dst_off: 0,
        len,
    };
    let markers = copy_markers(ctx, [src.device, dst.device]);
    stage_through_host(ctx, &[&hop], (len, 1), Staging::Scratch, &markers)?;
    Ok(())
}

/// Fill the new parts' owned regions *and* halo rows from the old owners.
/// A range the new part's own device holds is a device-local copy. A range
/// another device owns crosses the host ([`stage_through_host`]) at its
/// place in the host copy `host`: uploaded straight from it when `host` is
/// `current`, downloaded into it first otherwise. Every transfer waits for
/// a marker joining its device. Returns whether `host` holds the newest
/// data afterwards: it was current, or every element was downloaded.
fn copy_from_owners<T: Scalar>(
    ctx: &Context,
    (old, new): (&[MatrixPart<T>], &[MatrixPart<T>]),
    (host, current): (&mut [T], bool),
    dims: (usize, usize),
    row_based: bool,
) -> Result<bool> {
    let mut copies = Vec::new();
    for np in new.iter().filter(|np| np.rows > 0 && np.cols > 0) {
        if row_based {
            // Full-width parts on both sides: batch contiguous rows.
            for run in span_runs(np, dims.0) {
                copies.extend(row_run_copies(old, np, run, np.cols));
            }
        } else {
            // A column boundary is involved: copy row by row, splitting
            // each row at owner column boundaries (strided transfers).
            for s in 0..np.span_rows() {
                copies.extend(span_row_copies(old, np, s, np.global_row(s, dims.0)));
            }
        }
    }
    let markers = copy_markers(
        ctx,
        copies.iter().flat_map(|c| [c.src.device, c.dst.device]),
    );
    let (local, cross): (Vec<_>, Vec<_>) = copies.iter().partition(|c| !c.crosses_devices());
    for c in local {
        c.issue(ctx, Order::After(&markers[c.src.device]))?;
    }
    let len = host.len();
    let staging = match current {
        true => Staging::Current(host),
        false => Staging::Stale(host),
    };
    let staged = stage_through_host(ctx, &cross, dims, staging, &markers)?;
    Ok(current || staged.downloaded == len)
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
                .work_group(64)
                .cache_tag("skelcl-matrix-tests"),
        )
    }

    fn data(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols).map(|i| i as f32).collect()
    }

    /// A marker on every device, taken now: a read-back fenced by these
    /// waits for everything already scheduled.
    fn markers_now(c: &Context) -> Vec<Event> {
        (0..c.n_devices())
            .map(|d| c.queue(d).enqueue_marker())
            .collect()
    }

    #[test]
    fn block_ranges_cover_exactly() {
        for (len, n) in [(10, 3), (0, 4), (7, 8), (100, 4)] {
            let r = block_ranges(len, n);
            assert_eq!(r.len(), n);
            let mut off = 0;
            for (o, l) in r {
                assert_eq!(o, off);
                off += l;
            }
            assert_eq!(off, len);
        }
    }

    #[test]
    fn creation_is_lazy_no_transfer() {
        let c = ctx(2);
        let before = c.platform().stats_snapshot();
        let m = Matrix::from_vec(&c, 10, 8, data(10, 8));
        assert_eq!(m.dims(), (10, 8));
        assert!(!m.device_fresh());
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0, "creation must not transfer");
    }

    #[test]
    fn roundtrip_through_row_block() {
        let c = ctx(3);
        let m = Matrix::from_vec(&c, 11, 7, data(11, 7));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        assert!(!m.host_fresh());
        assert_eq!(m.to_vec().unwrap(), data(11, 7));
        assert!(m.host_fresh());
    }

    #[test]
    fn read_back_async_matches_to_vec_without_host_sync() {
        for (dist, devices) in [
            (MatrixDistribution::RowBlock { halo: 1 }, 3),
            (MatrixDistribution::ColBlock, 2),
            (MatrixDistribution::Copy, 2),
            (MatrixDistribution::Single(1), 2),
        ] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, 9, 7, data(9, 7));
            m.set_distribution(dist).unwrap();
            m.ensure_on_devices().unwrap();
            m.mark_devices_modified(); // devices are the truth now
            let host_before = c.host_now_s();
            let (got, ready) = m.read_back_after(&markers_now(&c)).unwrap();
            assert_eq!(
                c.host_now_s(),
                host_before,
                "async read-back must not advance the host clock ({dist:?})"
            );
            assert!(
                ready >= host_before,
                "ready time must not precede the enqueue ({dist:?})"
            );
            assert!(!m.host_fresh(), "coherence state must be untouched");
            assert_eq!(got, data(9, 7), "{dist:?}");
        }
    }

    #[test]
    fn read_back_after_waits_for_its_fence_not_for_later_launches() {
        let id = crate::Map::new(crate::skel_fn!(
            fn id(x: f32) -> f32 {
                x
            }
        ));
        for dist in [
            MatrixDistribution::Single(1),
            MatrixDistribution::RowBlock { halo: 0 },
        ] {
            let c = ctx(2);
            let m = Matrix::from_vec(&c, 8, 8, data(8, 8));
            m.set_distribution(dist).unwrap();
            let out = id.apply_matrix(&m).unwrap();
            let fence: Vec<Event> = (0..2).map(|d| c.queue(d).enqueue_marker()).collect();
            let fenced_s = fence.iter().map(|e| e.end_s).fold(0.0, f64::max);
            let _later = id.apply_matrix(&m).unwrap();
            let later_s = (0..2)
                .map(|d| {
                    c.device(d)
                        .clock()
                        .engine(vgpu::EngineKind::Compute)
                        .now_s()
                })
                .fold(0.0, f64::max);
            let (got, ready) = out.read_back_after(&fence).unwrap();
            assert_eq!(got, data(8, 8), "{dist:?}");
            assert!(
                fenced_s < ready && ready < later_s,
                "{dist:?}: the read must wait for its fence ({fenced_s}) and not for \
                 the later launch ({later_s}), but completes at {ready}"
            );
            let (_, ready_now) = out.read_back_after(&markers_now(&c)).unwrap();
            assert!(ready_now > later_s, "{dist:?}: a marker taken now joins it");
        }
    }

    #[test]
    fn read_back_after_refuses_a_fence_that_misses_a_parts_device() {
        let c = ctx(2);
        for (dist, fenced) in [
            (MatrixDistribution::Single(1), 0),
            (MatrixDistribution::RowBlock { halo: 0 }, 0),
            (MatrixDistribution::RowBlock { halo: 0 }, 1),
        ] {
            let m = Matrix::from_vec(&c, 6, 4, data(6, 4));
            m.set_distribution(dist).unwrap();
            m.ensure_on_devices().unwrap();
            m.mark_devices_modified();
            let fence = [c.queue(fenced).enqueue_marker()];
            let before = c.platform().stats_snapshot();
            let err = m.read_back_after(&fence).unwrap_err();
            assert!(
                matches!(err, Error::Unfenced { device } if device == 1 - fenced),
                "{dist:?}: {err}"
            );
            let delta = c.platform().stats_snapshot() - before;
            assert_eq!(delta.total_transfers(), 0, "{dist:?}: nothing is read");
        }
        // A device holding only an empty part needs no fence event.
        let m = Matrix::from_vec(&c, 1, 4, data(1, 4));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        let (got, _) = m.read_back_after(&[c.queue(0).enqueue_marker()]).unwrap();
        assert_eq!(got, data(1, 4));
    }

    #[test]
    fn read_back_async_on_host_fresh_data_is_free() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        let before = c.platform().stats_snapshot();
        let (got, ready) = m.read_back_after(&[]).unwrap();
        assert_eq!(got, data(4, 4));
        assert_eq!(ready, c.host_now_s());
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
    }

    #[test]
    fn upload_fills_halos_with_wrapped_rows() {
        let c = ctx(2);
        let rows = 6;
        let cols = 3;
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 2);
        let p0 = &parts[0]; // owns rows 0..3, halo above wraps to row 5
        assert_eq!(p0.span_rows(), 5);
        assert_eq!(p0.global_row(0, rows), 5);
        let host = data(rows, cols);
        assert_eq!(p0.buffer.to_vec()[0..cols], host[5 * cols..6 * cols]);
        // Lower halo of part 0 is the first owned row of part 1 (row 3).
        assert_eq!(
            p0.buffer.to_vec()[4 * cols..5 * cols],
            host[3 * cols..4 * cols]
        );
    }

    #[test]
    fn halo_exchange_updates_neighbour_halos() {
        let c = ctx(2);
        let rows = 8;
        let cols = 4;
        let m = Matrix::from_vec(&c, rows, cols, vec![0.0f32; rows * cols]);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        // Device 1 rewrites its first owned row (global row 4) in place.
        {
            let parts = m.parts().unwrap();
            let p1 = &parts[1];
            for col in 0..cols {
                p1.buffer.set(p1.halo_above * cols + col, 9.0);
            }
        }
        m.mark_devices_modified();
        assert!(!m.halos_fresh());
        let before = c.platform().stats_snapshot();
        m.halo_exchange().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // Each part's edge row crosses the host to the other part's halo
        // on that side, and the wrapped edge rows too: two rows out of and
        // into each part, none of them abutting.
        let rows_of = |n: u64| (n, n * (cols * 4) as u64);
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), rows_of(4));
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), rows_of(4));
        assert_eq!(delta.d2d_transfers, 0, "halo exchange crosses the host");
        assert!(m.halos_fresh());
        // Device 0's lower halo row must now hold the updated row 4.
        let parts = m.parts().unwrap();
        let p0 = &parts[0];
        let lower_halo_start = (p0.halo_above + p0.rows) * cols;
        for col in 0..cols {
            assert_eq!(p0.buffer.get(lower_halo_start + col), 9.0);
        }
    }

    #[test]
    fn halo_exchange_is_lazy_when_fresh() {
        let c = ctx(3);
        let m = Matrix::from_vec(&c, 9, 5, data(9, 5));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        m.halo_exchange().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(
            delta.total_transfers(),
            0,
            "upload already filled the halos"
        );
    }

    #[test]
    fn copy_distribution_replicates() {
        let c = ctx(3);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        m.set_distribution(MatrixDistribution::Copy).unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 3);
        for p in &parts {
            assert_eq!(p.buffer.to_vec(), data(4, 4));
        }
    }

    #[test]
    fn row_block_to_single_gathers() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 10, 3, data(10, 3));
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        m.set_distribution(MatrixDistribution::Single(1)).unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].device, 1);
        assert_eq!(parts[0].buffer.to_vec(), data(10, 3));
        assert_eq!(m.to_vec().unwrap(), data(10, 3));
    }

    #[test]
    fn single_to_row_block_scatters_and_fills_halos() {
        let c = ctx(4);
        let rows = 12;
        let m = Matrix::from_vec(&c, rows, 2, data(rows, 2));
        m.set_distribution(MatrixDistribution::Single(0)).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        assert!(m.halos_fresh());
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 4);
        let host = data(rows, 2);
        for p in &parts {
            let buf = p.buffer.to_vec();
            for s in 0..p.span_rows() {
                let g = p.global_row(s, rows);
                assert_eq!(
                    buf[s * 2..(s + 1) * 2],
                    host[g * 2..(g + 1) * 2],
                    "device {} span row {s} (global {g})",
                    p.device
                );
            }
        }
        assert_eq!(m.to_vec().unwrap(), host);
    }

    #[test]
    fn a_lone_cross_device_copy_sees_the_whole_link() {
        // Single(0) -> Single(3) on 4 devices crosses the host once: a
        // download on device 0, then an upload on device 3. The batch
        // touches two copy engines, which the dual host interface serves
        // at full link speed, so it models the two crossings of one
        // uncontended transfer back to back — for a matrix and for a
        // vector of the same length alike.
        let c = ctx(4);
        let (rows, cols) = (288, 384);
        let bytes = rows * cols * std::mem::size_of::<f32>();
        let want = 2.0 * c.platform().topology().transfer_s(bytes, 1);

        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::Single(0)).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        c.platform().reset_clocks();
        m.set_distribution(MatrixDistribution::Single(3)).unwrap();
        assert_eq!(c.host_now_s(), want, "matrix");
        assert_eq!(m.to_vec().unwrap(), data(rows, cols));

        let v = crate::Vector::from_vec(&c, data(rows * cols, 1));
        v.set_distribution(crate::Distribution::Single(0)).unwrap();
        v.ensure_on_devices().unwrap();
        v.mark_devices_modified();
        c.platform().reset_clocks();
        v.set_distribution(crate::Distribution::Single(3)).unwrap();
        assert_eq!(c.host_now_s(), want, "vector");
        assert_eq!(v.to_vec().unwrap(), data(rows * cols, 1));
    }

    /// Write `truth` into every cell the parts store, halo rows included,
    /// as a kernel would, and mark the devices modified.
    fn write_parts(m: &Matrix<f32>, truth: &[f32]) {
        let (rows, cols) = m.dims();
        for p in m.parts().unwrap() {
            for s in 0..p.span_rows() {
                let g = p.global_row(s, rows);
                for c in 0..p.cols {
                    let x = truth[g * cols + p.col_offset + c];
                    p.buffer.set(s * p.cols + c, x);
                }
            }
        }
        m.mark_devices_modified();
    }

    /// A device-fresh matrix laid out as `dist` whose devices hold other
    /// values than its stale host copy, and those values.
    fn rewritten_on_devices(
        c: &Context,
        (rows, cols): (usize, usize),
        dist: MatrixDistribution,
    ) -> (Matrix<f32>, Vec<f32>) {
        let m = Matrix::from_vec(c, rows, cols, data(rows, cols));
        m.set_distribution(dist).unwrap();
        m.ensure_on_devices().unwrap();
        let truth: Vec<f32> = data(rows, cols).iter().map(|x| 0.5 - x).collect();
        write_parts(&m, &truth);
        (m, truth)
    }

    /// Every cell every part stores, halo rows included, is `truth`'s.
    fn assert_parts_hold(m: &Matrix<f32>, truth: &[f32], what: &str) {
        let (rows, cols) = m.dims();
        for p in m.parts().unwrap() {
            let buf = p.buffer.to_vec();
            for s in 0..p.span_rows() {
                let g = p.global_row(s, rows);
                for c in 0..p.cols {
                    assert_eq!(
                        buf[s * p.cols + c].to_bits(),
                        truth[g * cols + p.col_offset + c].to_bits(),
                        "{what}: device {} span row {s} column {c}",
                        p.device
                    );
                }
            }
        }
    }

    #[test]
    fn growing_the_halo_redistributes_device_side() {
        // Two parts of four rows grow two-row halos. Each part keeps its
        // own rows on its device; its two halo runs (one wrapped) belong to
        // the other device and cross the host. One owner's two runs abut,
        // so each owner's block is downloaded once, and each run is
        // uploaded to the part that needs it: every row crossed, so the
        // host copy is fresh. The stale host copy is never uploaded, and
        // nothing is copied device to device.
        let c = ctx(2);
        let (m, truth) = rewritten_on_devices(&c, (8, 4), MatrixDistribution::RowBlock { halo: 0 });
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        let row = 4 * 4;
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), (2, 8 * row));
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), (4, 8 * row));
        assert_eq!(delta.d2d_transfers, 0, "no device-to-device copy");
        assert_parts_hold(&m, &truth, "halo 2");
        assert!(m.host_fresh(), "every row crossed the host");
        let before = c.platform().stats_snapshot();
        assert_eq!(m.to_vec().unwrap(), truth);
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
    }

    #[test]
    fn metadata_only_redistribution_when_host_fresh() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 6, 6, data(6, 6));
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::Copy).unwrap();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 3 })
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.total_transfers(), 0);
    }

    #[test]
    fn host_view_mut_invalidates_device_copies() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        m.ensure_on_devices().unwrap();
        assert!(m.device_fresh());
        m.host_view_mut().unwrap()[5] = 99.0;
        assert!(!m.device_fresh());
        assert_eq!(m.to_vec().unwrap()[5], 99.0);
    }

    #[test]
    fn constant_matrices_are_filled_on_the_devices() {
        let id = crate::Map::new(crate::skel_fn!(
            fn id(x: f32) -> f32 {
                x
            }
        ));
        let bits = |m: &Matrix<f32>| -> Vec<u32> {
            m.to_vec().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        let check = |rows: usize, cols: usize, devices: usize, dist, value: Option<f32>| {
            let c = ctx(devices);
            let m = match value {
                Some(x) => Matrix::filled(&c, rows, cols, x),
                None => Matrix::zeroed(&c, rows, cols),
            };
            let x = value.unwrap_or_default();
            let want = Matrix::from_vec(&c, rows, cols, vec![x; rows * cols]);
            let case = format!("{rows}x{cols}, {devices} devices, {dist:?}, {value:?}");
            m.set_distribution(dist).unwrap();
            want.set_distribution(dist).unwrap();

            c.platform().enable_timeline_trace();
            let before = c.platform().stats_snapshot();
            let parts = m.parts().unwrap();
            let delta = c.platform().stats_snapshot() - before;
            let trace = c.platform().take_timeline_trace();
            assert_eq!(delta.h2d_bytes, 0, "{case}: no upload");
            let non_empty: Vec<_> = parts
                .iter()
                .filter(|p| p.span_rows() > 0 && p.cols > 0)
                .collect();
            let fills = trace
                .iter()
                .filter(|r| r.kind == vgpu::CmdKind::Fill)
                .count();
            assert_eq!(fills, non_empty.len(), "{case}: one fill per part");
            for p in non_empty {
                assert!(
                    p.buffer.to_vec().iter().all(|y| y.to_bits() == x.to_bits()),
                    "{case}: device {} holds the value, halos included",
                    p.device
                );
            }

            let mapped = |m: &Matrix<f32>| bits(&id.apply_matrix(m).unwrap());
            assert_eq!(mapped(&m), mapped(&want), "{case}");
            m.mark_devices_modified();
            assert_eq!(bits(&m), bits(&want), "{case}");
        };
        // Fewer rows and columns than devices: some parts are empty. One
        // column is the shape of a vector, whose `Block` is `RowBlock` with
        // no halo.
        for (rows, cols) in [(3, 2), (3, 1)] {
            for devices in 1..=4 {
                for dist in [
                    MatrixDistribution::RowBlock { halo: 0 },
                    MatrixDistribution::RowBlock { halo: 1 },
                    MatrixDistribution::ColBlock,
                    MatrixDistribution::Copy,
                    MatrixDistribution::Single(devices - 1),
                ] {
                    for value in [None, Some(-2.5f32)] {
                        check(rows, cols, devices, dist, value);
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_single_device_is_rejected() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 2, 2, data(2, 2));
        assert!(m.set_distribution(MatrixDistribution::Single(7)).is_err());
    }

    #[test]
    fn oversized_halo_is_clamped_to_the_matrix_height() {
        let c = ctx(2);
        let rows = 4;
        let m = Matrix::from_vec(&c, rows, 2, data(rows, 2));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 100 })
            .unwrap();
        let parts = m.parts().unwrap();
        for p in &parts {
            assert!(p.halo_above <= rows);
            assert!(p.halo_below <= rows);
        }
        assert_eq!(m.to_vec().unwrap(), data(rows, 2));
    }

    #[test]
    fn col_block_scatters_column_slices_with_strided_writes() {
        let c = ctx(3);
        let (rows, cols) = (5, 11);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        let before = c.platform().stats_snapshot();
        let parts = m.parts().unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // One strided write per row per part.
        assert_eq!(delta.h2d_transfers as usize, 3 * rows);
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts.iter().map(|p| p.cols).collect::<Vec<_>>(),
            vec![4, 4, 3],
            "11 columns over 3 devices"
        );
        let host = data(rows, cols);
        for p in &parts {
            let buf = p.buffer.to_vec();
            for r in 0..rows {
                assert_eq!(
                    buf[r * p.cols..(r + 1) * p.cols],
                    host[r * cols + p.col_offset..r * cols + p.col_offset + p.cols],
                    "device {} row {r}",
                    p.device
                );
            }
        }
        assert_eq!(m.to_vec().unwrap(), host);
    }

    #[test]
    fn col_block_round_trip_after_device_modification() {
        let c = ctx(2);
        let (rows, cols) = (6, 7);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        assert!(!m.host_fresh());
        assert_eq!(m.to_vec().unwrap(), data(rows, cols));
    }

    #[test]
    fn row_block_to_col_block_redistributes_device_side() {
        // 9×8 on three devices: row blocks of 3 rows, column blocks of 3,
        // 3 and 2 columns. Each column part receives the 6 rows the other
        // devices own, one upload per row: 18 uploads of 48 cells. Each
        // owner downloads what the others need once, in host-contiguous
        // runs: a row's two segments abut (rows 0–2 and 6–8: 3 downloads
        // per owner), and so do a middle row's last segment and the next
        // row's first (rows 3–5: 4 downloads), 10 downloads of 48 cells.
        let c = ctx(3);
        let (rows, cols) = (9, 8);
        let cell = 4;
        let dist = MatrixDistribution::RowBlock { halo: 1 };
        let (m, truth) = rewritten_on_devices(&c, (rows, cols), dist);
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), (10, 48 * cell));
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), (18, 48 * cell));
        assert_eq!(delta.d2d_transfers, 0, "no device-to-device copy");
        assert_parts_hold(&m, &truth, "column blocks");
        assert!(!m.host_fresh(), "each device's own cells never crossed");
        assert_eq!(m.to_vec().unwrap(), truth);
        // And back again: each row part receives its rows' 5 or 6 cells
        // of the two other column blocks, one upload per row and owner (18
        // of 48 cells). The host copy was read back in between and is
        // still current, so the uploads read it and nothing is downloaded.
        let before = c.platform().stats_snapshot();
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), (0, 0));
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), (18, 48 * cell));
        assert_eq!(delta.d2d_transfers, 0, "no device-to-device copy");
        assert_parts_hold(&m, &truth, "row blocks");
        assert!(m.host_fresh(), "read back in between, and still current");
        assert_eq!(m.to_vec().unwrap(), truth);
    }

    /// The host cells a command's accesses `ranges` cover, for the parts
    /// they name among `parts` of an `n_rows × n_cols` matrix.
    fn host_cells(
        ranges: &[vgpu::AccessRange],
        parts: &[MatrixPart<f32>],
        (n_rows, n_cols): (usize, usize),
    ) -> Vec<usize> {
        let mut cells = Vec::new();
        for r in ranges {
            let Some(p) = parts.iter().find(|p| p.buffer.id() == r.buffer) else {
                continue;
            };
            for e in r.lo as usize / 4..r.hi as usize / 4 {
                let g = p.global_row(e / p.cols, n_rows);
                cells.push(g * n_cols + p.col_offset + e % p.cols);
            }
        }
        cells
    }

    /// Overwrite every part's halo rows with values no row holds.
    fn stale_halos(m: &Matrix<f32>) {
        for p in m.parts().unwrap() {
            let owned = p.halo_above..p.halo_above + p.rows;
            for s in (0..p.span_rows()).filter(|s| !owned.contains(s)) {
                for c in 0..p.cols {
                    p.buffer.set(s * p.cols + c, f32::NAN);
                }
            }
        }
    }

    /// One batch of staged transfers, run on the given context with the
    /// timeline trace on: the parts its downloads read and its uploads
    /// write, and the shape of the matrix they hold.
    type StagedCase =
        Box<dyn Fn(&Context) -> (Vec<MatrixPart<f32>>, Vec<MatrixPart<f32>>, (usize, usize))>;

    #[test]
    fn every_staged_upload_waits_for_the_download_of_its_bytes() {
        // An upload takes its bytes from the host staging the download
        // wrote. The hazard checker tracks device buffers only and cannot
        // see that edge, so the upload must name the download in its wait
        // list and start after it ends: in a redistribution, in both forms
        // of halo exchange and in a 2-D reduction's hop between parts.
        use MatrixDistribution::{ColBlock, Copy, RowBlock, Single};
        let redistribution = |dims, from, to| -> StagedCase {
            Box::new(move |c: &Context| {
                let (m, truth) = rewritten_on_devices(c, dims, from);
                let old = m.parts().unwrap();
                c.platform().enable_timeline_trace();
                m.set_distribution(to).unwrap();
                assert_parts_hold(&m, &truth, &format!("{from:?} -> {to:?}"));
                (old, m.parts().unwrap(), dims)
            })
        };
        let exchange = |overlapped: bool| -> StagedCase {
            Box::new(move |c: &Context| {
                let dims = (16, 3);
                let (m, truth) = rewritten_on_devices(c, dims, RowBlock { halo: 2 });
                stale_halos(&m);
                let parts = m.parts().unwrap();
                c.platform().enable_timeline_trace();
                if overlapped {
                    let producers: Vec<Vec<Event>> = (0..c.n_devices())
                        .map(|d| vec![c.queue(d).enqueue_marker()])
                        .collect();
                    exchange_part_halos_overlapped(c, &parts, 16, 3, false, 2, &producers).unwrap();
                } else {
                    exchange_part_halos(c, &parts, 16, 3, false).unwrap();
                }
                c.sync();
                assert_parts_hold(&m, &truth, &format!("overlapped: {overlapped}"));
                (parts.clone(), parts, dims)
            })
        };
        let hop: StagedCase = Box::new(|c: &Context| {
            let len = 12;
            let from = c.device(0).alloc_from(&data(len, 1)).unwrap();
            let to = c.device(1).alloc::<f32>(len).unwrap();
            c.platform().enable_timeline_trace();
            stage_buffer(c, &from, &to, len).unwrap();
            assert_eq!(to.to_vec(), data(len, 1), "the hop moves its bytes");
            let part = |b: Buffer<f32>| MatrixPart::column(b.device().0, 0, len, b);
            (vec![part(from)], vec![part(to)], (len, 1))
        });
        let cases: Vec<(usize, &str, StagedCase)> = vec![
            (
                4,
                "gather to Copy",
                redistribution((16, 3), RowBlock { halo: 0 }, Copy),
            ),
            (
                4,
                "scatter",
                redistribution((16, 3), Single(1), RowBlock { halo: 2 }),
            ),
            (
                3,
                "rows to columns",
                redistribution((9, 8), RowBlock { halo: 1 }, ColBlock),
            ),
            (
                3,
                "columns to one",
                redistribution((9, 8), ColBlock, Single(2)),
            ),
            (4, "device-ordered exchange", exchange(false)),
            (4, "overlapped exchange", exchange(true)),
            (2, "reduction hop", hop),
        ];
        for (devices, case, run) in cases {
            let c = ctx(devices);
            let (old, new, dims) = run(&c);
            let trace = c.platform().take_timeline_trace();
            let uploads: Vec<_> = trace
                .iter()
                .filter(|r| r.kind == vgpu::CmdKind::H2D)
                .collect();
            assert!(!uploads.is_empty(), "{case}: rows cross devices");
            for up in uploads {
                let downloads: Vec<_> = trace
                    .iter()
                    .filter(|r| r.kind == vgpu::CmdKind::D2H && up.deps.contains(&r.seq))
                    .collect();
                let fetched: Vec<usize> = downloads
                    .iter()
                    .flat_map(|d| host_cells(&d.reads, &old, dims))
                    .collect();
                let written = host_cells(&up.writes, &new, dims);
                assert!(!written.is_empty(), "{case}: upload {} writes", up.seq);
                for cell in written {
                    assert!(
                        fetched.contains(&cell),
                        "{case}: upload {} waits for no download of cell {cell}",
                        up.seq
                    );
                }
                for d in downloads {
                    assert!(
                        d.end_s <= up.start_s,
                        "{case}: upload {} starts early",
                        up.seq
                    );
                }
            }
        }
    }

    /// Random redistribution sequences against a cell-level model.
    mod staged {
        use super::*;
        use proptest::prelude::*;

        fn any_dist() -> impl Strategy<Value = MatrixDistribution> {
            prop_oneof![
                (0usize..4).prop_map(MatrixDistribution::Single),
                Just(MatrixDistribution::Copy),
                (0usize..=2).prop_map(|halo| MatrixDistribution::RowBlock { halo }),
                Just(MatrixDistribution::ColBlock),
            ]
        }

        /// What moving `old` into `new` must transfer, in cells: the distinct
        /// cells some new part stores that another device owns (each downloaded
        /// once, unless the host copy is current), and those cells once per new
        /// part storing them (uploads).
        fn crossing_cells(
            old: &[MatrixPart<f32>],
            new: &[MatrixPart<f32>],
            n_rows: usize,
        ) -> (usize, usize) {
            let mut fetched = std::collections::BTreeSet::new();
            let mut received = 0;
            for np in new.iter().filter(|np| np.rows > 0) {
                for s in 0..np.span_rows() {
                    let g = np.global_row(s, n_rows);
                    for c in np.col_offset..np.col_offset + np.cols {
                        let owners = old.iter().filter(|p| {
                            (p.row_offset..p.row_offset + p.rows).contains(&g)
                                && (p.col_offset..p.col_offset + p.cols).contains(&c)
                        });
                        if owners.clone().all(|p| p.device != np.device) {
                            fetched.insert((g, c));
                            received += 1;
                        }
                    }
                }
            }
            (fetched.len(), received)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            // Random redistribution sequences over 1–4 devices, with kernel
            // writes in between: the devices always hold the data bit for bit,
            // each step downloads every crossing cell exactly once (none when
            // the host copy is current) and uploads it to each part that
            // stores it, no copy goes device to device, and the host copy is
            // fresh exactly when it was or every cell crossed.
            #[test]
            fn staged_redistributions_move_each_crossing_cell_once(
                rows in 1usize..14,
                cols in 1usize..8,
                devices in 1usize..=4,
                start in any_dist(),
                steps in prop::collection::vec((any_dist(), any::<bool>()), 1..7),
            ) {
                let on = |d: MatrixDistribution| match d {
                    MatrixDistribution::Single(i) => MatrixDistribution::Single(i % devices),
                    d => d,
                };
                let c = ctx(devices);
                let (m, mut truth) = rewritten_on_devices(&c, (rows, cols), on(start));
                for (step, (dist, write)) in steps.into_iter().enumerate() {
                    let dist = on(dist);
                    if write {
                        truth.iter_mut().for_each(|x| *x = 3.0 * *x - step as f32);
                        write_parts(&m, &truth);
                    }
                    let moves = m.distribution() != dist;
                    let old = m.parts().unwrap();
                    let was_fresh = m.host_fresh();
                    let before = c.platform().stats_snapshot();
                    m.set_distribution(dist).unwrap();
                    let delta = c.platform().stats_snapshot() - before;
                    let (fetched, received) = if moves {
                        crossing_cells(&old, &m.parts().unwrap(), rows)
                    } else {
                        (0, 0)
                    };
                    let case = format!("step {step}: -> {dist:?}");
                    let downloaded = if was_fresh { 0 } else { 4 * fetched };
                    prop_assert_eq!(delta.d2h_bytes as usize, downloaded, "{}", case);
                    prop_assert_eq!(delta.h2d_bytes as usize, 4 * received, "{}", case);
                    prop_assert_eq!(delta.d2d_transfers, 0, "{}", case);
                    let all_crossed = moves && fetched == rows * cols;
                    prop_assert_eq!(m.host_fresh(), was_fresh || all_crossed, "{}", case);
                    assert_parts_hold(&m, &truth, &case);
                }
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&m.to_vec().unwrap()), bits(&truth));
            }
        }
    }

    #[test]
    fn more_devices_than_columns_leaves_empty_col_parts() {
        let c = ctx(4);
        let m = Matrix::from_vec(&c, 3, 2, data(3, 2));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.cols).sum::<usize>(), 2);
        assert!(parts.iter().filter(|p| p.cols == 0).all(|p| p.rows == 0));
        assert_eq!(m.to_vec().unwrap(), data(3, 2));
    }

    #[test]
    fn transpose_flips_dims_and_data() {
        let c = ctx(2);
        let (rows, cols) = (4, 7);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        let t = m.transpose().unwrap();
        assert_eq!(t.dims(), (cols, rows));
        let tv = t.to_vec().unwrap();
        let host = data(rows, cols);
        for r in 0..rows {
            for col in 0..cols {
                assert_eq!(tv[col * rows + r], host[r * cols + col]);
            }
        }
        // Double transpose is the identity.
        assert_eq!(t.transpose().unwrap().to_vec().unwrap(), host);
    }

    #[test]
    fn transpose_downloads_device_fresh_data_first() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 4, 4, data(4, 4));
        m.ensure_on_devices().unwrap();
        // Rewrite element (0, 0) on the device, then transpose.
        {
            let parts = m.parts().unwrap();
            parts[0].buffer.set(0, 42.0);
        }
        m.mark_devices_modified();
        let t = m.transpose().unwrap();
        assert_eq!(t.to_vec().unwrap()[0], 42.0);
    }

    #[test]
    fn clone_is_a_shared_handle() {
        let c = ctx(1);
        let m = Matrix::from_vec(&c, 2, 2, data(2, 2));
        let w = m.clone();
        m.host_view_mut().unwrap()[0] = 7.0;
        assert_eq!(w.to_vec().unwrap()[0], 7.0);
    }

    #[test]
    fn halo_exchange_events_are_counted_once_each() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 8, 4, data(8, 4));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let base = c.halo_exchange_count();
        m.halo_exchange().unwrap(); // upload left halos coherent: no event
        assert_eq!(c.halo_exchange_count(), base);
        m.mark_devices_modified();
        m.halo_exchange().unwrap();
        assert_eq!(c.halo_exchange_count(), base + 1);
        m.halo_exchange().unwrap(); // coherent again: no event
        assert_eq!(c.halo_exchange_count(), base + 1);
    }

    #[test]
    fn halo_free_exchange_is_not_an_event() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 8, 4, data(8, 4));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m.mark_devices_modified();
        let base = c.halo_exchange_count();
        m.halo_exchange().unwrap();
        assert_eq!(c.halo_exchange_count(), base, "no halo rows, no event");
    }

    #[test]
    fn skipping_wrapped_runs_moves_fewer_transfers() {
        // 4 parts of two rows with halo 1: a full exchange uploads 8 halo
        // rows; a wrap-skipping one 6 (the matrix-edge halos of the first
        // part's top and the last part's bottom are omitted). Each part's
        // rows its neighbours need abut, so each part downloads once: both
        // its rows, or only the one a skipped halo does not need.
        let c = ctx(4);
        let (rows, cols) = (8, 2);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        let row = (cols * 4) as u64;
        let before = c.platform().stats_snapshot();
        assert!(exchange_part_halos(&c, &parts, rows, cols, true).unwrap());
        let skipping = c.platform().stats_snapshot() - before;
        let before = c.platform().stats_snapshot();
        assert!(exchange_part_halos(&c, &parts, rows, cols, false).unwrap());
        let full = c.platform().stats_snapshot() - before;
        for (delta, n, what) in [(full, 8, "full"), (skipping, 6, "skipping")] {
            assert_eq!(
                (delta.d2h_transfers, delta.d2h_bytes),
                (4, n * row),
                "{what}"
            );
            assert_eq!(
                (delta.h2d_transfers, delta.h2d_bytes),
                (n, n * row),
                "{what}"
            );
            assert_eq!(delta.d2d_transfers, 0, "{what}");
        }
    }

    #[test]
    fn a_four_device_exchange_ends_four_copy_times_after_it_starts() {
        // Four parts, halo 2: a wrap-skipping exchange moves six runs of
        // two rows, two per neighbouring pair, each downloaded once and
        // uploaded once. An inner device's copy engine holds four of those
        // transfers, its two downloads and then its two uploads, each of
        // which waits for a neighbour's first download: the exchange ends
        // four transfer times (at four engines) after it starts, both
        // device-ordered and waiting for producers.
        let c = ctx(4);
        let (rows, cols) = (64, 16);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        let parts = m.parts().unwrap();
        let bytes = 2 * cols * std::mem::size_of::<f32>();
        let copy_s = c.platform().topology().transfer_s(bytes, 4);
        for overlapped in [false, true] {
            c.platform().sync_all();
            c.platform().reset_clocks();
            let before = c.platform().stats_snapshot();
            if overlapped {
                // Ordered after the device-ordered exchange's writes.
                let producers: Vec<Vec<Event>> =
                    (0..4).map(|d| vec![c.queue(d).enqueue_marker()]).collect();
                exchange_part_halos_overlapped(&c, &parts, rows, cols, true, 2, &producers)
                    .unwrap();
            } else {
                exchange_part_halos(&c, &parts, rows, cols, true).unwrap();
            }
            c.platform().sync_all();
            let delta = c.platform().stats_snapshot() - before;
            let copies = (
                delta.d2h_transfers,
                delta.h2d_transfers,
                delta.d2d_transfers,
            );
            let copy_times = c.platform().host_now_s() / copy_s;
            assert_eq!(copies, (6, 6, 0), "overlapped: {overlapped}");
            assert_eq!(
                delta.d2h_bytes,
                6 * bytes as u64,
                "overlapped: {overlapped}"
            );
            assert_eq!(
                delta.h2d_bytes,
                6 * bytes as u64,
                "overlapped: {overlapped}"
            );
            assert!(
                (copy_times - 4.0).abs() < 1e-9,
                "overlapped: {overlapped}, {copy_times} copy times"
            );
        }
    }

    #[test]
    fn all_runs_skipped_is_not_an_exchange() {
        // One part owning the whole matrix: both halos are wrapped edge
        // rows, so a wrap-skipping exchange refreshes nothing and must not
        // report an event.
        let c = ctx(1);
        let (rows, cols) = (6, 3);
        let m = Matrix::from_vec(&c, rows, cols, data(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        assert!(!exchange_part_halos(&c, &parts, rows, cols, true).unwrap());
        assert!(exchange_part_halos(&c, &parts, rows, cols, false).unwrap());
    }

    #[test]
    fn more_devices_than_rows_leaves_empty_parts() {
        let c = ctx(4);
        let m = Matrix::from_vec(&c, 2, 3, data(2, 3));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let parts = m.parts().unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.rows).sum::<usize>(), 2);
        assert!(parts
            .iter()
            .filter(|p| p.rows == 0)
            .all(|p| p.span_rows() == 0));
        assert_eq!(m.to_vec().unwrap(), data(2, 3));
    }
}
