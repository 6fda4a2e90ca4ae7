//! The 2D reduction skeletons: [`ReduceRows`], [`ReduceCols`] and the
//! index-carrying [`ReduceRowsArg`] / [`ReduceColsArg`] —
//! `Matrix<T> → Vector<T>` reductions that keep every intermediate on the
//! devices. All four share one axis-parameterized distribution dispatch
//! ([`dispatch_reduce`]): Single/Copy inputs reduce in place, the
//! axis-aligned block distribution concatenates per-part results with zero
//! transfers, and the split axis chains seeded partials from device to
//! device.
//! The value folds ([`Fold`]) and a [`Pipeline`](crate::Pipeline)'s row
//! fold share one launcher ([`launch_fold`]), which applies a settled
//! plan's pending element-wise chain to each element as it is folded.
//!
//! These are the matrix counterparts of the 1D [`crate::Reduce`]: where
//! Reduce folds a whole vector to one scalar, `ReduceRows` folds every
//! matrix row to one element (a length-`rows` vector) and `ReduceCols`
//! folds every column (a length-`cols` vector). They are the missing
//! composition step of the paper's skeleton algebra — AllPairs and
//! Stencil2D produce matrices, and pipelines like 1-NN (per-row argmin of
//! a distance matrix) or gradient histograms (per-row reductions of a
//! Sobel magnitude image) previously had to download the whole matrix to
//! finish on the host.
//!
//! ## Fold order and bitwise reproducibility
//!
//! Every output element is a **left fold in ascending row/column order
//! from the identity** — the same order a sequential host fold uses. The
//! 1D Reduce's local-memory tree cannot give that guarantee for floats
//! (tree shape depends on work-group geometry); the 2D skeletons have a
//! whole row/column of parallelism across work-items already, so each
//! item folds its segment sequentially and the results are bit-identical
//! across 1/2/4 devices and every [`MatrixDistribution`].
//!
//! ## Cross-part combining
//!
//! * Under [`MatrixDistribution::RowBlock`], every row lives wholly inside
//!   one part, so `ReduceRows` is embarrassingly local: each device folds
//!   its owned rows (halo rows are skipped) and the output vector simply
//!   *concatenates* the per-device results — the row partition equals the
//!   output's `Block` distribution, so **zero** inter-device transfers
//!   happen.
//! * Under [`MatrixDistribution::ColBlock`] (and symmetrically,
//!   `ReduceCols` under `RowBlock`), the reduced dimension is split across
//!   parts. The parts are chained **in ascending column (row) order**:
//!   each device folds its segment seeded with the previous device's
//!   per-row (per-column) partials, which cross the host once per
//!   boundary: one vector-sized download and one upload, as every byte
//!   between devices does; the matrix itself never moves. Seeding the
//!   running fold (rather than combining independent partials) is what
//!   preserves the exact sequential fold order, and with it bitwise
//!   identity across device counts.
//! * `Single`/`Copy` inputs reduce on the (first) device holding the data.

use crate::codegen::{self, Axis, FusedStage, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::{stage_buffer, Matrix, MatrixDistribution, MatrixPart};
use crate::meter;
use crate::skeletons::linear_range;
use crate::skeletons::pipeline::{OpId, PixelOp};
use crate::vector::{Distribution, Vector};
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{Buffer, CompiledKernel, KernelBody, Order, Program, Scalar as Element};

/// A (best value, best index) buffer pair — the running state the chained
/// argbest launches carry across parts.
type ArgPair<T> = (Buffer<T>, Buffer<u32>);

/// Move the previous segment's partials to `device` if they live elsewhere
/// (the one hop per chained part boundary), through the host as every byte
/// between devices goes ([`stage_buffer`]).
fn stage_on<T: Element>(
    ctx: &Context,
    acc: (usize, Buffer<T>),
    device: usize,
    len: usize,
) -> Result<Buffer<T>> {
    let (home, buf) = acc;
    if home == device {
        return Ok(buf);
    }
    let staged = ctx.device(device).alloc::<T>(len)?;
    stage_buffer(ctx, &buf, &staged, len)?;
    Ok(staged)
}

/// How a 2D reduction along an axis partitions its work across parts.
impl Axis {
    /// `(output length, folded extent)` of a `rows × cols` matrix.
    fn extents(self, (rows, cols): (usize, usize)) -> (usize, usize) {
        match self {
            Axis::Rows => (rows, cols),
            Axis::Cols => (cols, rows),
        }
    }

    /// Is `dist` the distribution that keeps this reduction's *reduced*
    /// dimension intact inside every part, so per-part results simply
    /// concatenate into the output's `Block` layout with zero transfers?
    fn concatenates_under(self, dist: MatrixDistribution) -> bool {
        matches!(
            (self, dist),
            (Axis::Rows, MatrixDistribution::RowBlock { .. })
                | (Axis::Cols, MatrixDistribution::ColBlock)
        )
    }

    /// Output elements a part contributes under the concat layout.
    fn part_items<T: Element>(self, p: &MatrixPart<T>) -> usize {
        match self {
            Axis::Rows => p.rows,
            Axis::Cols => p.cols,
        }
    }

    /// The part's offset in the concatenated output vector.
    fn part_offset<T: Element>(self, p: &MatrixPart<T>) -> usize {
        match self {
            Axis::Rows => p.row_offset,
            Axis::Cols => p.col_offset,
        }
    }

    /// The part's extent along the *reduced* dimension — zero-extent parts
    /// contribute nothing to a chained fold and are skipped.
    fn reduced_extent<T: Element>(self, p: &MatrixPart<T>) -> usize {
        match self {
            Axis::Rows => p.cols,
            Axis::Cols => p.rows,
        }
    }

    /// Where a part's segmented fold reads: `ReduceRows` walks each row,
    /// `(item_pitch, elem_pitch) = (cols, 1)`; `ReduceCols` walks each
    /// column, `(1, cols)` — the column-strided read pattern. Only owned
    /// rows are folded (halo rows are other parts' data), so the base skips
    /// them.
    fn segments<T: Element>(self, p: &MatrixPart<T>) -> Segments {
        let (item_pitch, elem_pitch, index_offset) = match self {
            Axis::Rows => (p.cols, 1, p.col_offset),
            Axis::Cols => (1, p.cols, p.row_offset),
        };
        Segments {
            base: p.owned_base(),
            seg_len: self.reduced_extent(p),
            item_pitch,
            elem_pitch,
            index_offset,
        }
    }
}

/// One part's segmented fold: work-item `i` folds `seg_len` elements of
/// the part buffer, reading `base + i*item_pitch + k*elem_pitch` for
/// ascending `k`; element `k` has index `index_offset + k` along the
/// reduced dimension.
struct Segments {
    base: usize,
    seg_len: usize,
    item_pitch: usize,
    elem_pitch: usize,
    index_offset: usize,
}

/// The running device-resident state a chained reduction carries across
/// part boundaries: a partials buffer for the value folds, a (value,
/// index) pair for the argbest skeletons.
trait ChainState: Sized {
    fn stage(self, ctx: &Context, from: usize, to: usize, len: usize) -> Result<Self>;
}

impl<T: Element> ChainState for Buffer<T> {
    fn stage(self, ctx: &Context, from: usize, to: usize, len: usize) -> Result<Self> {
        stage_on(ctx, (from, self), to, len)
    }
}

impl<T: Element> ChainState for ArgPair<T> {
    fn stage(self, ctx: &Context, from: usize, to: usize, len: usize) -> Result<Self> {
        let (v, i) = self;
        Ok((
            stage_on(ctx, (from, v), to, len)?,
            stage_on(ctx, (from, i), to, len)?,
        ))
    }
}

/// Where a dispatched reduction's output landed.
enum Reduced<S> {
    /// One state per part, placed at `offset` (length `len`) of the output:
    /// the part layout *is* the output's `Block` distribution.
    Concat(Vec<(usize, usize, usize, S)>),
    /// The whole output on one device (`Single`/`Copy` inputs and chained
    /// folds).
    Single(usize, S),
}

/// The Single/Copy-vs-concat-vs-chain distribution dispatch shared by all
/// four 2D reduction skeletons and the pipeline's row fold, over the
/// device `parts` of a matrix laid out by `dist`:
///
/// * `Single`/`Copy` inputs reduce on the (first) device holding the data;
/// * under the distribution that keeps the reduced dimension intact
///   ([`Axis::concatenates_under`]) every part folds its own output slice
///   locally and the results concatenate — zero inter-device transfers;
/// * otherwise the parts are chained in ascending row/column order, each
///   launch seeded with the previous part's staged partials (one hop
///   through the host per boundary) — the seeding is what preserves the
///   exact sequential fold order, and with it bitwise identity across
///   device counts.
///
/// `launch(part index, part, n_items, seed)` runs one kernel over a part
/// and returns its output state.
fn dispatch_reduce<J, S, L>(
    ctx: &Context,
    parts: &[MatrixPart<J>],
    dist: MatrixDistribution,
    axis: Axis,
    out_len: usize,
    mut launch: L,
) -> Result<Reduced<S>>
where
    J: Element,
    S: ChainState,
    L: FnMut(usize, &MatrixPart<J>, usize, Option<S>) -> Result<S>,
{
    match dist {
        MatrixDistribution::Single(_) | MatrixDistribution::Copy => {
            let p = &parts[0];
            let s = launch(0, p, out_len, None)?;
            Ok(Reduced::Single(p.device, s))
        }
        dist if axis.concatenates_under(dist) => {
            let mut out = Vec::with_capacity(parts.len());
            for (pi, p) in parts.iter().enumerate() {
                let s = launch(pi, p, axis.part_items(p), None)?;
                out.push((p.device, axis.part_offset(p), axis.part_items(p), s));
            }
            Ok(Reduced::Concat(out))
        }
        _ => {
            let mut acc: Option<(usize, S)> = None;
            let folded = parts.iter().enumerate();
            for (pi, p) in folded.filter(|(_, p)| axis.reduced_extent(p) > 0) {
                let seed = match acc.take() {
                    Some((home, s)) => Some(s.stage(ctx, home, p.device, out_len)?),
                    None => None,
                };
                let s = launch(pi, p, out_len, seed)?;
                acc = Some((p.device, s));
            }
            let (device, s) =
                acc.expect("a non-empty matrix has a part with non-zero reduced extent");
            Ok(Reduced::Single(device, s))
        }
    }
}

/// Wrap a dispatched value reduction as the output vector.
fn reduced_to_vector<T: Element>(
    ctx: &Context,
    out_len: usize,
    reduced: Reduced<Buffer<T>>,
) -> Vector<T> {
    match reduced {
        Reduced::Single(device, buffer) => {
            Vector::from_single_device_part(ctx, device, out_len, buffer)
        }
        Reduced::Concat(items) => Vector::from_device_parts(
            ctx,
            out_len,
            Distribution::Block,
            items
                .into_iter()
                .map(|(device, offset, len, buffer)| {
                    MatrixPart::column(device, offset, len, buffer)
                })
                .collect(),
        ),
    }
}

/// Wrap a dispatched argbest reduction as its (values, indices) vectors.
fn reduced_to_arg_vectors<T: Element>(
    ctx: &Context,
    out_len: usize,
    reduced: Reduced<ArgPair<T>>,
) -> (Vector<T>, Vector<u32>) {
    match reduced {
        Reduced::Single(device, (val, idx)) => (
            Vector::from_single_device_part(ctx, device, out_len, val),
            Vector::from_single_device_part(ctx, device, out_len, idx),
        ),
        Reduced::Concat(items) => {
            let mut val_parts = Vec::with_capacity(items.len());
            let mut idx_parts = Vec::with_capacity(items.len());
            for (device, offset, len, (val, idx)) in items {
                val_parts.push(MatrixPart::column(device, offset, len, val));
                idx_parts.push(MatrixPart::column(device, offset, len, idx));
            }
            (
                Vector::from_device_parts(ctx, out_len, Distribution::Block, val_parts),
                Vector::from_device_parts(ctx, out_len, Distribution::Block, idx_parts),
            )
        }
    }
}

/// A value fold along one axis: `user` folds every row (column) from
/// `identity` in ascending column (row) order. [`ReduceRows`] and
/// [`ReduceCols`] are stage-free folds; a pipeline's `reduce_rows`
/// terminal builds one over its pending element-wise stages.
pub(crate) struct Fold<T: Element, F> {
    axis: Axis,
    user: UserFn<F>,
    identity: T,
    /// Static issue cost per folded element of the stages before the fold.
    stage_ops: u64,
    program: Program,
}

impl<T, F> Fold<T, F>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    /// The fold of `user` from `identity` along `axis`, over elements of
    /// type `in_t` that pass through `stages` first.
    pub(crate) fn new(
        axis: Axis,
        user: UserFn<F>,
        identity: T,
        stages: &[FusedStage],
        in_t: &str,
    ) -> Self {
        let program =
            codegen::fold_program(axis, stages, user.name(), user.source(), in_t, T::TYPE_NAME);
        Fold {
            axis,
            user,
            identity,
            stage_ops: stages.iter().map(|s| s.static_ops).sum(),
            program,
        }
    }

    /// Fold a `rows × cols` matrix laid out by `dist` into a
    /// device-resident vector, applying `op` (the stages' pending chain,
    /// [`OpId`] for none) to each element as it is folded. `parts` yields
    /// the matrix's device parts; it runs after the program is built. The
    /// output's layout and the zero-extent edges are those
    /// [`ReduceRows::apply`] and [`ReduceCols::apply`] document.
    pub(crate) fn apply<J, Op>(
        &self,
        ctx: &Context,
        dims: (usize, usize),
        dist: MatrixDistribution,
        op: Op,
        parts: impl FnOnce() -> Result<Vec<MatrixPart<J>>>,
    ) -> Result<Vector<T>>
    where
        J: Element,
        Op: PixelOp<J, T>,
    {
        let (out_len, extent) = self.axis.extents(dims);
        if out_len == 0 {
            return Ok(Vector::from_vec(ctx, Vec::new()));
        }
        if extent == 0 {
            return Ok(Vector::filled(ctx, out_len, self.identity));
        }
        let kernel = FoldKernel {
            compiled: ctx.get_or_build(&self.program)?,
            fold: self,
            op,
        };
        let parts = parts()?;
        let reduced = dispatch_reduce(ctx, &parts, dist, self.axis, out_len, |pi, p, n, seed| {
            launch_fold(ctx, &kernel, pi, p, n, seed)
        })?;
        Ok(reduced_to_vector(ctx, out_len, reduced))
    }
}

/// A built value fold and the element-wise op it applies to each element
/// as it is folded.
struct FoldKernel<'a, T: Element, F, Op> {
    compiled: CompiledKernel,
    fold: &'a Fold<T, F>,
    op: Op,
}

/// Launch one segmented-fold kernel over part `pi` (`p`) along the fold's
/// axis: `n_items` work-items each fold their segment ([`Axis::segments`]),
/// passing every element through the kernel's op, starting from `seed[i]`
/// when chaining or from the identity on the first segment.
fn launch_fold<J, T, F, Op>(
    ctx: &Context,
    kernel: &FoldKernel<'_, T, F, Op>,
    pi: usize,
    p: &MatrixPart<J>,
    n_items: usize,
    seed: Option<Buffer<T>>,
) -> Result<Buffer<T>>
where
    J: Element,
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
    Op: PixelOp<J, T>,
{
    let fold = kernel.fold;
    let out = ctx.device(p.device).alloc::<T>(n_items)?;
    let Segments {
        base,
        seg_len,
        item_pitch,
        elem_pitch,
        ..
    } = fold.axis.segments(p);
    if n_items == 0 || seg_len == 0 {
        return Ok(out);
    }
    // Kernel-body snapshots of the operands: the fold loop runs seg_len
    // times per item, so per-access counted reads would dominate wall
    // time; traffic and work are charged in bulk per item instead (the
    // AllPairs accounting scheme), and each item notes the ranges it reads
    // for the hazard checker. The op's own operand reads stay counted.
    let src = p.buffer.clone();
    let snap: Arc<Vec<J>> = Arc::new(src.to_vec());
    let seed_snap: Option<(Buffer<T>, Arc<Vec<T>>)> = seed.map(|b| {
        let v = Arc::new(b.to_vec());
        (b, v)
    });
    let f = fold.user.func().clone();
    let op = kernel.op.clone();
    let identity = fold.identity;
    let static_ops = fold.stage_ops + fold.user.static_ops();
    let dst = out.clone();
    let read_bytes = seg_len * size_of::<J>() + usize::from(seed_snap.is_some()) * size_of::<T>();
    let body: KernelBody = Arc::new(move |wg| {
        wg.for_each_item(|it| {
            if !it.in_bounds() {
                return;
            }
            let i = it.global_id(0);
            let first = base + i * item_pitch;
            it.note_read(&src, first..first + (seg_len - 1) * elem_pitch + 1);
            let seed = seed_snap.as_ref().map(|(buf, s)| {
                it.note_read(buf, i..i + 1);
                s[i]
            });
            let (acc, dyn_ops) = meter::metered(|| {
                let mut acc = seed.unwrap_or(identity);
                for k in 0..seg_len {
                    let at = first + k * elem_pitch;
                    acc = f(acc, op.apply(it, pi, at, snap[at]));
                }
                acc
            });
            it.write(&dst, i, acc);
            it.work(seg_len as u64 * static_ops + dyn_ops);
            it.traffic_read(read_bytes);
        });
    });
    ctx.queue(p.device).launch(
        &kernel.compiled.with_body(body),
        linear_range(ctx, n_items),
        Order::Device,
    )?;
    Ok(out)
}

/// Launch one argbest kernel over part `p` along `axis`: per work-item the
/// best value of its segment and that value's index along the reduced
/// dimension, under a strict "is `x` better than the incumbent?"
/// comparison scanned in ascending order — so the lowest index wins ties.
/// `seed` carries the running (value, index) pairs across chained parts.
fn launch_argbest<T, F>(
    ctx: &Context,
    compiled: &CompiledKernel,
    axis: Axis,
    p: &MatrixPart<T>,
    n_items: usize,
    seed: Option<ArgPair<T>>,
    user: &UserFn<F>,
) -> Result<ArgPair<T>>
where
    T: Element,
    F: Fn(T, T) -> bool + Send + Sync + Clone + 'static,
{
    let out_val = ctx.device(p.device).alloc::<T>(n_items)?;
    let out_idx = ctx.device(p.device).alloc::<u32>(n_items)?;
    let Segments {
        base,
        seg_len,
        item_pitch,
        elem_pitch,
        index_offset,
    } = axis.segments(p);
    if n_items == 0 || seg_len == 0 {
        return Ok((out_val, out_idx));
    }
    // Snapshots read in bulk, like the value fold's: each item notes the
    // ranges it reads for the hazard checker.
    let src = p.buffer.clone();
    let snap: Arc<Vec<T>> = Arc::new(src.to_vec());
    let seeds = seed.map(|(v, i)| (Arc::new(v.to_vec()), Arc::new(i.to_vec()), v, i));
    let better = user.func().clone();
    let static_ops = user.static_ops();
    let (dval, didx) = (out_val.clone(), out_idx.clone());
    let elem_bytes = size_of::<T>();
    let seeded = seeds.is_some();
    let body: KernelBody = Arc::new(move |wg| {
        wg.for_each_item(|it| {
            if !it.in_bounds() {
                return;
            }
            let i = it.global_id(0);
            let first = base + i * item_pitch;
            it.note_read(&src, first..first + (seg_len - 1) * elem_pitch + 1);
            if let Some((_, _, vbuf, ibuf)) = &seeds {
                it.note_read(vbuf, i..i + 1);
                it.note_read(ibuf, i..i + 1);
            }
            let ((best, best_i), dyn_ops) = meter::metered(|| {
                let (mut best, mut best_i) = match &seeds {
                    Some((sv, si, ..)) => (sv[i], si[i]),
                    None => (snap[first], index_offset as u32),
                };
                let start = usize::from(!seeded);
                for k in start..seg_len {
                    let x = snap[first + k * elem_pitch];
                    if better(x, best) {
                        best = x;
                        best_i = (index_offset + k) as u32;
                    }
                }
                (best, best_i)
            });
            it.write(&dval, i, best);
            it.write(&didx, i, best_i);
            it.work(seg_len as u64 * static_ops + dyn_ops);
            it.traffic_read((seg_len + 2 * usize::from(seeded)) * elem_bytes);
        });
    });
    ctx.queue(p.device).launch(
        &compiled.with_body(body),
        linear_range(ctx, n_items),
        Order::Device,
    )?;
    Ok((out_val, out_idx))
}

/// The ReduceRows skeleton: `out[r] = f(...f(f(id, m[r][0]), m[r][1])...)`
/// — one output element per matrix row, folded in ascending column order.
pub struct ReduceRows<T: Element, F>(Fold<T, F>);

impl<T, F> ReduceRows<T, F>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    /// `ReduceRows<float> sums(sum, 0.0)` — an associative operator plus
    /// its identity, like the 1D Reduce.
    pub fn new(user: UserFn<F>, identity: T) -> Self {
        ReduceRows(Fold::new(Axis::Rows, user, identity, &[], T::TYPE_NAME))
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.0.program
    }

    /// Apply the skeleton. The result is a device-resident length-`rows`
    /// vector: `Block`-distributed (concatenating the per-part results with
    /// zero transfers) for a `RowBlock` input, `Single` on the last chained
    /// device for `ColBlock`, `Single` on the holding device otherwise.
    /// Zero-extent edges fold to the identity: a 0-column matrix reduces to
    /// `identity` per row, a 0-row matrix to the empty vector.
    pub fn apply(&self, input: &Matrix<T>) -> Result<Vector<T>> {
        let _span = input.call_span("reduce_rows.apply");
        self.0.apply(
            input.ctx(),
            input.dims(),
            input.distribution(),
            OpId::new(),
            || input.parts(),
        )
    }
}

/// The ReduceCols skeleton: `out[c] = f(...f(f(id, m[0][c]), m[1][c])...)`
/// — one output element per matrix column, folded in ascending row order
/// with column-strided reads.
pub struct ReduceCols<T: Element, F>(Fold<T, F>);

impl<T, F> ReduceCols<T, F>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, identity: T) -> Self {
        ReduceCols(Fold::new(Axis::Cols, user, identity, &[], T::TYPE_NAME))
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.0.program
    }

    /// Apply the skeleton. `Block`-distributed output (zero transfers) for
    /// a `ColBlock` input — the column partition equals the output layout —
    /// `Single` on the last chained device for `RowBlock`, `Single` on the
    /// holding device otherwise. Zero-extent edges fold to the identity.
    pub fn apply(&self, input: &Matrix<T>) -> Result<Vector<T>> {
        let _span = input.call_span("reduce_cols.apply");
        self.0.apply(
            input.ctx(),
            input.dims(),
            input.distribution(),
            OpId::new(),
            || input.parts(),
        )
    }
}

/// The index-carrying row reduction: per row, the best value **and its
/// column index** under a strict "is `x` better than the incumbent?"
/// comparison, scanned in ascending column order — so the **lowest index
/// wins ties** (only a strict improvement replaces the incumbent). With
/// `better = <` this is the per-row argmin behind the 1-NN pipeline; with
/// `better = >` a per-row argmax (e.g. the strongest gradient per image
/// row).
pub struct ReduceRowsArg<T: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T, T) -> bool>,
}

impl<T, F> ReduceRowsArg<T, F>
where
    T: Element,
    F: Fn(T, T) -> bool + Send + Sync + Clone + 'static,
{
    /// `ReduceRowsArg<float> argmin(less)` where `less(x, best)` returns
    /// whether `x` is *strictly* better.
    pub fn new(user: UserFn<F>) -> Self {
        let program =
            codegen::argbest_program(Axis::Rows, user.name(), user.source(), T::TYPE_NAME);
        ReduceRowsArg {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Apply the skeleton: per-row best value + column index, both as
    /// device-resident vectors distributed like [`ReduceRows::apply`]'s
    /// output. A 0-column matrix has no best element and errors.
    pub fn apply(&self, input: &Matrix<T>) -> Result<(Vector<T>, Vector<u32>)> {
        let ctx = input.ctx().clone();
        let (rows, cols) = input.dims();
        let _span = input.call_span("reduce_rows_arg.apply");
        if cols == 0 {
            return Err(Error::Empty("reduce_rows_arg"));
        }
        if rows == 0 {
            return Ok((
                Vector::from_vec(&ctx, Vec::new()),
                Vector::from_vec(&ctx, Vec::new()),
            ));
        }
        let compiled = ctx.get_or_build(&self.program)?;
        let parts = input.parts()?;
        let dist = input.distribution();
        let reduced = dispatch_reduce(&ctx, &parts, dist, Axis::Rows, rows, |_, p, n, seed| {
            launch_argbest(&ctx, &compiled, Axis::Rows, p, n, seed, &self.user)
        })?;
        Ok(reduced_to_arg_vectors(&ctx, rows, reduced))
    }
}

/// The index-carrying column reduction: per column, the best value **and
/// its row index** under the same strict "is `x` better?" comparison as
/// [`ReduceRowsArg`], scanned in ascending row order — lowest row index
/// wins ties. With `better = <` a per-column argmin (e.g. the closest
/// reference point per feature column); with `better = >` a per-column
/// argmax (the strongest gradient per image column). Completes the argmin
/// family the ROADMAP called for: both matrix axes now reduce to
/// device-resident (value, index) pairs.
pub struct ReduceColsArg<T: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T, T) -> bool>,
}

impl<T, F> ReduceColsArg<T, F>
where
    T: Element,
    F: Fn(T, T) -> bool + Send + Sync + Clone + 'static,
{
    /// `ReduceColsArg<float> argmin(less)` where `less(x, best)` returns
    /// whether `x` is *strictly* better.
    pub fn new(user: UserFn<F>) -> Self {
        let program =
            codegen::argbest_program(Axis::Cols, user.name(), user.source(), T::TYPE_NAME);
        ReduceColsArg {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program (exposed for the cache experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Apply the skeleton: per-column best value + row index, both as
    /// device-resident vectors distributed like [`ReduceCols::apply`]'s
    /// output. A 0-row matrix has no best element and errors.
    pub fn apply(&self, input: &Matrix<T>) -> Result<(Vector<T>, Vector<u32>)> {
        let ctx = input.ctx().clone();
        let (rows, cols) = input.dims();
        let _span = input.call_span("reduce_cols_arg.apply");
        if rows == 0 {
            return Err(Error::Empty("reduce_cols_arg"));
        }
        if cols == 0 {
            return Ok((
                Vector::from_vec(&ctx, Vec::new()),
                Vector::from_vec(&ctx, Vec::new()),
            ));
        }
        let compiled = ctx.get_or_build(&self.program)?;
        let parts = input.parts()?;
        let dist = input.distribution();
        let reduced = dispatch_reduce(&ctx, &parts, dist, Axis::Cols, cols, |_, p, n, seed| {
            launch_argbest(&ctx, &compiled, Axis::Cols, p, n, seed, &self.user)
        })?;
        Ok(reduced_to_arg_vectors(&ctx, cols, reduced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    fn sum_rows() -> ReduceRows<f32, fn(f32, f32) -> f32> {
        ReduceRows::new(
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    fn sum_cols() -> ReduceCols<f32, fn(f32, f32) -> f32> {
        ReduceCols::new(
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    fn argmin_rows() -> ReduceRowsArg<f32, fn(f32, f32) -> bool> {
        ReduceRowsArg::new(crate::skel_fn!(
            fn less(x: f32, y: f32) -> bool {
                x < y
            }
        ))
    }

    fn argmin_cols() -> ReduceColsArg<f32, fn(f32, f32) -> bool> {
        ReduceColsArg::new(crate::skel_fn!(
            fn less(x: f32, y: f32) -> bool {
                x < y
            }
        ))
    }

    #[test]
    fn argbest_launches_record_the_ranges_they_read() {
        // Column blocks on 2 devices: device 0 folds its half of every
        // row, device 1 folds the other half seeded with those partials.
        let c = ctx(2);
        let (rows, cols) = (6, 10);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 5));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        c.platform().enable_timeline_trace();
        argmin_rows().apply(&m).unwrap();
        c.sync();
        let trace = c.platform().take_timeline_trace();
        let kernels: Vec<_> = trace
            .iter()
            .filter(|r| r.kind == vgpu::CmdKind::Kernel)
            .collect();
        assert_eq!(kernels.len(), 2);
        for (part, k) in m.parts().unwrap().iter().zip(kernels) {
            assert_eq!(k.device.0, part.device);
            let whole = (part.span_rows() * part.cols * 4) as u64;
            let input: Vec<_> = k
                .reads
                .iter()
                .filter(|r| r.buffer == part.buffer.id())
                .map(|r| (r.lo, r.hi))
                .collect();
            assert_eq!(input, [(0, whole)], "the fold input, every row");
            // The seeded fold also reads both partials, one element a row.
            let seeds: Vec<_> = k
                .reads
                .iter()
                .filter(|r| r.buffer != part.buffer.id())
                .collect();
            assert_eq!(seeds.len(), 2 * part.device, "{:?}", k.reads);
            for r in seeds {
                assert_eq!(r.hi - r.lo, (rows * 4) as u64);
            }
        }
    }

    /// Awkward float values that expose any fold-order deviation bitwise.
    fn messy(rows: usize, cols: usize, salt: u32) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                ((h % 2000) as f32) / 7.0 - 140.0
            })
            .collect()
    }

    fn host_row_folds(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..rows)
            .map(|r| {
                data[r * cols..(r + 1) * cols]
                    .iter()
                    .fold(0.0, |a, &x| a + x)
            })
            .collect()
    }

    fn host_col_folds(data: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols)
            .map(|c| (0..rows).fold(0.0, |a, r| a + data[r * cols + c]))
            .collect()
    }

    fn host_row_argmin(data: &[f32], rows: usize, cols: usize) -> (Vec<f32>, Vec<u32>) {
        let mut vals = Vec::with_capacity(rows);
        let mut idxs = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            let mut best = 0usize;
            for (c, &x) in row.iter().enumerate() {
                if x < row[best] {
                    best = c;
                }
            }
            vals.push(row[best]);
            idxs.push(best as u32);
        }
        (vals, idxs)
    }

    fn host_col_argmin(data: &[f32], rows: usize, cols: usize) -> (Vec<f32>, Vec<u32>) {
        let mut vals = Vec::with_capacity(cols);
        let mut idxs = Vec::with_capacity(cols);
        for c in 0..cols {
            let mut best = 0usize;
            for r in 0..rows {
                if data[r * cols + c] < data[best * cols + c] {
                    best = r;
                }
            }
            vals.push(data[best * cols + c]);
            idxs.push(best as u32);
        }
        (vals, idxs)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn all_dists() -> Vec<MatrixDistribution> {
        vec![
            MatrixDistribution::Single(0),
            MatrixDistribution::Copy,
            MatrixDistribution::RowBlock { halo: 0 },
            MatrixDistribution::RowBlock { halo: 2 },
            MatrixDistribution::ColBlock,
        ]
    }

    #[test]
    fn reduce_rows_matches_host_fold_bitwise_everywhere() {
        let (rows, cols) = (13, 9);
        let data = messy(rows, cols, 1);
        let want = bits(&host_row_folds(&data, rows, cols));
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let got = sum_rows().apply(&m).unwrap().to_vec().unwrap();
                assert_eq!(bits(&got), want, "{devices} devices, {dist:?}");
            }
        }
    }

    #[test]
    fn reduce_cols_matches_host_fold_bitwise_everywhere() {
        let (rows, cols) = (11, 7);
        let data = messy(rows, cols, 2);
        let want = bits(&host_col_folds(&data, rows, cols));
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let got = sum_cols().apply(&m).unwrap().to_vec().unwrap();
                assert_eq!(bits(&got), want, "{devices} devices, {dist:?}");
            }
        }
    }

    #[test]
    fn row_block_reduce_rows_moves_nothing_between_devices() {
        let c = ctx(4);
        let (rows, cols) = (16, 6);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 3));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = sum_rows().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "concat combine needs no copies");
        assert_eq!(delta.d2h_transfers, 0, "result stays on the devices");
        assert_eq!(delta.h2d_transfers, 0, "input was already resident");
        assert_eq!(out.distribution(), Distribution::Block);
        assert!(!out.host_fresh(), "output is device-resident");
    }

    #[test]
    fn col_block_reduce_cols_moves_nothing_between_devices() {
        let c = ctx(3);
        let (rows, cols) = (9, 14);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 4));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = sum_cols().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "concat combine needs no copies");
        assert_eq!(out.distribution(), Distribution::Block);
    }

    #[test]
    fn chained_combines_cross_devices_but_never_the_host() {
        let c = ctx(4);
        let (rows, cols) = (10, 12);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 5));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = sum_rows().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // The partials hop between devices through the host, once per part
        // boundary: a download and an upload of one partial per row. The
        // matrix itself never crosses.
        let hops = (3, 3 * (rows * 4) as u64);
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), hops, "downloads");
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), hops, "uploads");
        assert_eq!(delta.d2d_transfers, 0, "no device-to-device copy");
        assert_eq!(
            bits(&out.to_vec().unwrap()),
            bits(&host_row_folds(&messy(rows, cols, 5), rows, cols))
        );
    }

    #[test]
    fn argmin_matches_host_scan_with_lowest_index_ties() {
        // Values from a tiny set force plenty of ties.
        let (rows, cols) = (12, 15);
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i * 7) % 4) as f32).collect();
        let (want_v, want_i) = host_row_argmin(&data, rows, cols);
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let (v, i) = argmin_rows().apply(&m).unwrap();
                assert_eq!(
                    bits(&v.to_vec().unwrap()),
                    bits(&want_v),
                    "{devices} {dist:?}"
                );
                assert_eq!(i.to_vec().unwrap(), want_i, "{devices} {dist:?}");
            }
        }
    }

    #[test]
    fn col_argmin_matches_host_scan_with_lowest_index_ties() {
        // Values from a tiny set force plenty of ties.
        let (rows, cols) = (15, 12);
        let data: Vec<f32> = (0..rows * cols).map(|i| ((i * 11) % 4) as f32).collect();
        let (want_v, want_i) = host_col_argmin(&data, rows, cols);
        for devices in [1usize, 2, 4] {
            for dist in all_dists() {
                let c = ctx(devices);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                m.set_distribution(dist).unwrap();
                let (v, i) = argmin_cols().apply(&m).unwrap();
                assert_eq!(
                    bits(&v.to_vec().unwrap()),
                    bits(&want_v),
                    "{devices} {dist:?}"
                );
                assert_eq!(i.to_vec().unwrap(), want_i, "{devices} {dist:?}");
            }
        }
    }

    #[test]
    fn col_block_col_argmin_moves_nothing_between_devices() {
        let c = ctx(3);
        let (rows, cols) = (10, 13);
        let m = Matrix::from_vec(&c, rows, cols, messy(rows, cols, 9));
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let (v, i) = argmin_cols().apply(&m).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.d2d_transfers, 0, "concat combine needs no copies");
        assert_eq!(v.distribution(), Distribution::Block);
        assert_eq!(i.distribution(), Distribution::Block);
    }

    #[test]
    fn degenerate_shapes_reduce_correctly() {
        // 1×N, N×1 and fewer rows/cols than devices, all distributions.
        for (rows, cols) in [(1usize, 9usize), (9, 1), (2, 3), (3, 2), (1, 1)] {
            let data = messy(rows, cols, 6);
            let want_r = bits(&host_row_folds(&data, rows, cols));
            let want_c = bits(&host_col_folds(&data, rows, cols));
            for devices in [1usize, 4] {
                for dist in all_dists() {
                    let c = ctx(devices);
                    let m = Matrix::from_vec(&c, rows, cols, data.clone());
                    m.set_distribution(dist).unwrap();
                    let r = sum_rows().apply(&m).unwrap().to_vec().unwrap();
                    let cc = sum_cols().apply(&m).unwrap().to_vec().unwrap();
                    assert_eq!(bits(&r), want_r, "rows {rows}x{cols} {devices} {dist:?}");
                    assert_eq!(bits(&cc), want_c, "cols {rows}x{cols} {devices} {dist:?}");
                }
            }
        }
    }

    #[test]
    fn zero_extent_edges_fold_to_the_identity() {
        let c = ctx(2);
        let none = Matrix::from_vec(&c, 0, 5, Vec::<f32>::new());
        assert!(sum_rows()
            .apply(&none)
            .unwrap()
            .to_vec()
            .unwrap()
            .is_empty());
        assert_eq!(
            sum_cols().apply(&none).unwrap().to_vec().unwrap(),
            vec![0.0f32; 5]
        );
        let hollow = Matrix::from_vec(&c, 4, 0, Vec::<f32>::new());
        assert_eq!(
            sum_rows().apply(&hollow).unwrap().to_vec().unwrap(),
            vec![0.0f32; 4]
        );
        assert!(sum_cols()
            .apply(&hollow)
            .unwrap()
            .to_vec()
            .unwrap()
            .is_empty());
        assert!(matches!(
            argmin_rows().apply(&hollow),
            Err(Error::Empty("reduce_rows_arg"))
        ));
        assert!(matches!(
            argmin_cols().apply(&none),
            Err(Error::Empty("reduce_cols_arg"))
        ));
        let (v, i) = argmin_cols().apply(&hollow).unwrap();
        assert!(v.to_vec().unwrap().is_empty());
        assert!(i.to_vec().unwrap().is_empty());
        // A product from 1 tells the identity from a zero-filled buffer.
        let mul = || {
            crate::skel_fn!(
                fn mul(x: f32, y: f32) -> f32 {
                    x * y
                }
            )
        };
        assert_eq!(
            ReduceRows::new(mul(), 1.0)
                .apply(&hollow)
                .unwrap()
                .to_vec()
                .unwrap(),
            vec![1.0f32; 4]
        );
        assert_eq!(
            ReduceCols::new(mul(), 1.0)
                .apply(&none)
                .unwrap()
                .to_vec()
                .unwrap(),
            vec![1.0f32; 5]
        );
    }

    #[test]
    fn reduce2d_programs_have_distinct_cache_keys() {
        let r = sum_rows();
        let c = sum_cols();
        let a = argmin_rows();
        let ca = argmin_cols();
        assert_ne!(r.program().hash(), c.program().hash());
        assert_ne!(r.program().hash(), a.program().hash());
        assert_ne!(c.program().hash(), a.program().hash());
        assert_ne!(ca.program().hash(), a.program().hash());
        assert_ne!(ca.program().hash(), c.program().hash());
    }

    #[test]
    fn second_apply_reuses_the_cached_kernel() {
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 8, 8, messy(8, 8, 7));
        let skel = sum_rows();
        skel.apply(&m).unwrap();
        let built = c.programs_built();
        skel.apply(&m).unwrap();
        assert_eq!(c.programs_built(), built, "no rebuild on a second run");
    }

    #[test]
    fn max_operator_reduces_rows_too() {
        let c = ctx(3);
        let (rows, cols) = (6, 50);
        let mut data = messy(rows, cols, 8);
        data[2 * cols + 17] = 1e7;
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let maxr = ReduceRows::new(
            crate::skel_fn!(
                fn maxf(x: f32, y: f32) -> f32 {
                    if x > y {
                        x
                    } else {
                        y
                    }
                }
            ),
            f32::NEG_INFINITY,
        );
        let got = maxr.apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(got[2], 1e7);
        for r in 0..rows {
            let want = data[r * cols..(r + 1) * cols]
                .iter()
                .fold(f32::NEG_INFINITY, |a, &x| if x > a { x } else { a });
            assert_eq!(got[r], want, "row {r}");
        }
    }
}
