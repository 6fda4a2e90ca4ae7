//! Lazy skeleton pipelines with kernel fusion.
//!
//! A [`Pipeline`] is an expression template over skeleton calls: `map`,
//! `zip_with`, `stencil` and `stencil_pair` stages compose into a value
//! that *defers* execution. Running the pipeline partitions the stages
//! into **fused groups** — each group is one kernel launch — instead of
//! one launch (and one intermediate [`Matrix`]) per stage:
//!
//! * Element-wise stages (`map` / `zip_with`) never launch on their own.
//!   A chain *before* a stencil fuses into the load of the stencil's
//!   local-memory window, so it runs once per loaded cell; a chain *after*
//!   a stencil (or between two stencils) fuses into the earlier stencil's
//!   writes, so it runs once per element. An all-element-wise pipeline
//!   collapses into a single fused map kernel; an empty pipeline launches
//!   nothing.
//! * Each `stencil` / `stencil_pair` stage anchors one group: radius-wide
//!   neighbourhood reads force materialized input rows (with coherent
//!   halos), exactly as in [`Stencil2D`](crate::Stencil2D).
//! * The terminal decides the output: [`PipelineExpr::run`] writes a
//!   [`Matrix`]; [`PipelineExpr::reduce_rows`] fuses the pending
//!   element-wise chain into the ascending-column row fold of
//!   [`ReduceRows`](crate::ReduceRows) and writes a [`Vector`].
//!
//! Fused programs are generated by the `codegen` fused builders and cached
//! in the [`ProgramRegistry`](crate::ProgramRegistry) under the joined
//! stage names, like any single-skeleton program. Stencil groups launch
//! as one-round blocks through the block launcher of
//! [`Stencil2D::iterate`](crate::Stencil2D::iterate), from the programs of
//! its generator, [`codegen::stencil2d_block_program`]: every work-group
//! reads each cell of its window from global memory once, and a one-stage
//! group over a same-type stencil builds exactly `iterate`'s program.
//! Element-wise groups, every
//! [`Map`](crate::Map) and [`Zip`](crate::Zip) variant and the `Copy`
//! merge share one launcher, `launch_elementwise`, and one program
//! generator, [`codegen::elementwise_program`]: a one-stage group builds
//! exactly the program of the `Map` or `Zip` over the same user function.
//!
//! The technique follows the expression-template fusion of Demidov et al.
//! ("Programming CUDA and OpenCL: A Case Study Using Modern C++
//! Libraries"): composition happens in the type system, so every fused
//! kernel body is fully monomorphized.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::arguments::{KernelEnv, PartArgs};
use crate::codegen::{self, FusedStage, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::{exchange_part_halos, Matrix, MatrixDistribution, MatrixPart};
use crate::meter;
use crate::skeletons::stencil2d::{
    stale_free, stencil_input_layout, window_rounds, BlockKernel, Boundary2D, Stencil2DView,
};
use crate::skeletons::{alloc_matching_matrix_parts, linear_range, range_2d};
use crate::vector::{Distribution, Vector};
use vgpu::{CompiledKernel, Event, Item, KernelBody, Order, Scalar as Element};

/// A stage descriptor from a user function.
pub(crate) fn stage_of<F>(kind: &'static str, user: &UserFn<F>) -> FusedStage {
    FusedStage::new(kind, user.name(), user.source(), user.static_ops())
}

/// `x` as a `Y` when the two types are in fact the same. The launchers
/// call this only for stage-free chains, where the op chain is an identity
/// composition and therefore type-preserving by construction.
pub(crate) fn same_type<X: 'static, Y: 'static>(x: X) -> Option<Y> {
    let mut slot = Some(x);
    (&mut slot as &mut dyn Any)
        .downcast_mut::<Option<Y>>()
        .and_then(Option::take)
}

/// Context and shape shared by every plan in a pipeline execution.
#[derive(Clone)]
pub struct PlanGeom {
    pub(crate) ctx: Context,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) dist: MatrixDistribution,
}

// ---------------------------------------------------------------------------
// Fused per-pixel operations.
// ---------------------------------------------------------------------------

/// A fused element-wise transformation applied between a raw buffer access
/// and a kernel's compute or write site. Ops compose statically through
/// [`OpSeq`], so a whole `map`/`zip_with` chain monomorphizes into one
/// nested call. `part` (the part index) and `i` (the element's index in
/// the part's span) address the element for stages that read operands or
/// arguments of their own.
pub trait PixelOp<I: Element, O: Element>: Send + Sync + Clone + 'static {
    /// Whether the op runs no stage: `x` passes through, and a launcher has
    /// no work of it to meter.
    const IDENTITY: bool = false;

    fn apply(&self, it: &Item<'_>, part: usize, i: usize, x: I) -> O;
}

/// The identity op: seeds every chain and stands in for "no post stages".
pub struct OpId<T>(PhantomData<fn(T) -> T>);

impl<T> OpId<T> {
    pub(crate) fn new() -> Self {
        OpId(PhantomData)
    }
}

impl<T> Clone for OpId<T> {
    fn clone(&self) -> Self {
        OpId(PhantomData)
    }
}

impl<T: Element> PixelOp<T, T> for OpId<T> {
    const IDENTITY: bool = true;

    #[inline]
    fn apply(&self, _it: &Item<'_>, _part: usize, _i: usize, x: T) -> T {
        x
    }
}

/// One fused `map` stage.
#[derive(Clone)]
pub struct OpMap<F, M, O> {
    f: F,
    _pd: PhantomData<fn(M) -> O>,
}

impl<F, M, O> OpMap<F, M, O> {
    pub(crate) fn new(f: F) -> Self {
        OpMap {
            f,
            _pd: PhantomData,
        }
    }
}

impl<M, O, F> PixelOp<M, O> for OpMap<F, M, O>
where
    M: Element,
    O: Element,
    F: Fn(M) -> O + Send + Sync + Clone + 'static,
{
    #[inline]
    fn apply(&self, _it: &Item<'_>, _part: usize, _i: usize, x: M) -> O {
        (self.f)(x)
    }
}

/// One fused `zip_with` stage: combines the chained value with the
/// matching element of a side operand's device part (a counted read, so
/// fused zips still charge their global traffic).
#[derive(Clone)]
pub struct OpZip<F, B: Element, M, O> {
    parts: Arc<Vec<MatrixPart<B>>>,
    f: F,
    _pd: PhantomData<fn(M, B) -> O>,
}

impl<F, B: Element, M, O> OpZip<F, B, M, O> {
    /// `parts` mirror the chain's part geometry index for index.
    pub(crate) fn new(parts: Vec<MatrixPart<B>>, f: F) -> Self {
        OpZip {
            parts: Arc::new(parts),
            f,
            _pd: PhantomData,
        }
    }
}

impl<B, M, O, F> PixelOp<M, O> for OpZip<F, B, M, O>
where
    B: Element,
    M: Element,
    O: Element,
    F: Fn(M, B) -> O + Send + Sync + Clone + 'static,
{
    #[inline]
    fn apply(&self, it: &Item<'_>, part: usize, i: usize, x: M) -> O {
        (self.f)(x, it.read(&self.parts[part].buffer, i))
    }
}

/// One `map` stage with additional arguments (`MapArgs`, and `MapVoid`
/// with `O = ()`): `f(x, env)`.
#[derive(Clone)]
pub struct OpMapArgs<F, M, O> {
    args: PartArgs,
    f: F,
    _pd: PhantomData<fn(M) -> O>,
}

impl<F, M, O> OpMapArgs<F, M, O> {
    pub(crate) fn new(args: PartArgs, f: F) -> Self {
        OpMapArgs {
            args,
            f,
            _pd: PhantomData,
        }
    }
}

impl<M, O, F> PixelOp<M, O> for OpMapArgs<F, M, O>
where
    M: Element,
    O: Element,
    F: Fn(M, &KernelEnv<'_>) -> O + Send + Sync + Clone + 'static,
{
    #[inline]
    fn apply(&self, it: &Item<'_>, part: usize, _i: usize, x: M) -> O {
        (self.f)(x, &self.args.env(it, part))
    }
}

/// One `zip` stage with additional arguments (`ZipArgs`): `f(x, b, env)`.
#[derive(Clone)]
pub struct OpZipArgs<F, B: Element, M, O> {
    parts: Arc<Vec<MatrixPart<B>>>,
    args: PartArgs,
    f: F,
    _pd: PhantomData<fn(M, B) -> O>,
}

impl<F, B: Element, M, O> OpZipArgs<F, B, M, O> {
    pub(crate) fn new(parts: Vec<MatrixPart<B>>, args: PartArgs, f: F) -> Self {
        OpZipArgs {
            parts: Arc::new(parts),
            args,
            f,
            _pd: PhantomData,
        }
    }
}

impl<B, M, O, F> PixelOp<M, O> for OpZipArgs<F, B, M, O>
where
    B: Element,
    M: Element,
    O: Element,
    F: Fn(M, B, &KernelEnv<'_>) -> O + Send + Sync + Clone + 'static,
{
    #[inline]
    fn apply(&self, it: &Item<'_>, part: usize, i: usize, x: M) -> O {
        let b = it.read(&self.parts[part].buffer, i);
        (self.f)(x, b, &self.args.env(it, part))
    }
}

/// Static composition: `b(a(x))`.
#[derive(Clone)]
pub struct OpSeq<A, B, M> {
    a: A,
    b: B,
    _pd: PhantomData<fn(M)>,
}

impl<I, M, O, A, B> PixelOp<I, O> for OpSeq<A, B, M>
where
    I: Element,
    M: Element,
    O: Element,
    A: PixelOp<I, M>,
    B: PixelOp<M, O>,
{
    const IDENTITY: bool = A::IDENTITY && B::IDENTITY;

    #[inline]
    fn apply(&self, it: &Item<'_>, part: usize, i: usize, x: I) -> O {
        let m = self.a.apply(it, part, i, x);
        self.b.apply(it, part, i, m)
    }
}

// ---------------------------------------------------------------------------
// Plans: the runtime state threaded through a pipeline execution.
// ---------------------------------------------------------------------------

/// A *settled* plan: materialized device parts of element type `J` plus a
/// pending element-wise op chain `J -> I` that has not launched yet. Every
/// pipeline execution starts from one of these ([`PipelineExpr::feed`]'s
/// source) and every stencil group produces a fresh one.
pub struct ElemPlan<J: Element, Op, I: Element> {
    geom: PlanGeom,
    parts: Vec<MatrixPart<J>>,
    halos_fresh: bool,
    op: Op,
    stages: Vec<FusedStage>,
    _pd: PhantomData<fn(J) -> I>,
}

/// A plan that yields elements of type `I` when the pipeline runs.
///
/// `settle_with(g, gstages)` resolves the plan against a *suffix* op `g`
/// (the stages stacked after it): chains with an unlaunched stencil group
/// launch it — folding `g` into that kernel's writes — and return bare
/// parts; pure element-wise chains stay pending (they fuse into whichever
/// kernel consumes them next). The two cases return different `ElemPlan`
/// instantiations, which the generic associated types encode statically.
pub trait ReadPlan<I: Element>: Sized {
    type Base<V: Element, G: PixelOp<I, V>>: Element;
    type Op<V: Element, G: PixelOp<I, V>>: PixelOp<Self::Base<V, G>, V>;

    #[allow(clippy::type_complexity)]
    fn settle_with<V: Element, G: PixelOp<I, V>>(
        self,
        g: G,
        gstages: Vec<FusedStage>,
    ) -> Result<ElemPlan<Self::Base<V, G>, Self::Op<V, G>, V>>;

    fn geom(&self) -> &PlanGeom;
}

impl<J, Op, I> ReadPlan<I> for ElemPlan<J, Op, I>
where
    J: Element,
    I: Element,
    Op: PixelOp<J, I>,
{
    type Base<V: Element, G: PixelOp<I, V>> = J;
    type Op<V: Element, G: PixelOp<I, V>> = OpSeq<Op, G, I>;

    fn settle_with<V: Element, G: PixelOp<I, V>>(
        mut self,
        g: G,
        gstages: Vec<FusedStage>,
    ) -> Result<ElemPlan<J, OpSeq<Op, G, I>, V>> {
        self.stages.extend(gstages);
        Ok(ElemPlan {
            geom: self.geom,
            parts: self.parts,
            halos_fresh: self.halos_fresh,
            op: OpSeq {
                a: self.op,
                b: g,
                _pd: PhantomData,
            },
            stages: self.stages,
            _pd: PhantomData,
        })
    }

    fn geom(&self) -> &PlanGeom {
        &self.geom
    }
}

/// A pending `map` stage over an inner plan.
pub struct Mapped<P, F, M: Element, V: Element> {
    inner: P,
    op: OpMap<F, M, V>,
    stage: FusedStage,
}

impl<P, F, M, V> ReadPlan<V> for Mapped<P, F, M, V>
where
    P: ReadPlan<M>,
    M: Element,
    V: Element,
    F: Fn(M) -> V + Send + Sync + Clone + 'static,
{
    type Base<W: Element, G: PixelOp<V, W>> = P::Base<W, OpSeq<OpMap<F, M, V>, G, V>>;
    type Op<W: Element, G: PixelOp<V, W>> = P::Op<W, OpSeq<OpMap<F, M, V>, G, V>>;

    fn settle_with<W: Element, G: PixelOp<V, W>>(
        self,
        g: G,
        mut gstages: Vec<FusedStage>,
    ) -> Result<ElemPlan<Self::Base<W, G>, Self::Op<W, G>, W>> {
        let mut stages = vec![self.stage];
        stages.append(&mut gstages);
        self.inner.settle_with(
            OpSeq {
                a: self.op,
                b: g,
                _pd: PhantomData,
            },
            stages,
        )
    }

    fn geom(&self) -> &PlanGeom {
        self.inner.geom()
    }
}

/// A pending `zip_with` stage over an inner plan.
pub struct Zipped<P, F, B: Element, M: Element, V: Element> {
    inner: P,
    op: OpZip<F, B, M, V>,
    stage: FusedStage,
}

impl<P, F, B, M, V> ReadPlan<V> for Zipped<P, F, B, M, V>
where
    P: ReadPlan<M>,
    B: Element,
    M: Element,
    V: Element,
    F: Fn(M, B) -> V + Send + Sync + Clone + 'static,
{
    type Base<W: Element, G: PixelOp<V, W>> = P::Base<W, OpSeq<OpZip<F, B, M, V>, G, V>>;
    type Op<W: Element, G: PixelOp<V, W>> = P::Op<W, OpSeq<OpZip<F, B, M, V>, G, V>>;

    fn settle_with<W: Element, G: PixelOp<V, W>>(
        self,
        g: G,
        mut gstages: Vec<FusedStage>,
    ) -> Result<ElemPlan<Self::Base<W, G>, Self::Op<W, G>, W>> {
        let mut stages = vec![self.stage];
        stages.append(&mut gstages);
        self.inner.settle_with(
            OpSeq {
                a: self.op,
                b: g,
                _pd: PhantomData,
            },
            stages,
        )
    }

    fn geom(&self) -> &PlanGeom {
        self.inner.geom()
    }
}

/// An unlaunched stencil group over an inner plan. Settling it launches
/// one fused kernel per part: the inner chain's pending element-wise
/// stages run as the window loads, the suffix op runs at the write site,
/// and the output starts a fresh stage-free [`ElemPlan`].
pub struct LazyStencil<P, E, A: Element, I: Element> {
    inner: P,
    eval: E,
    stage: FusedStage,
    radius: usize,
    boundary: Boundary2D,
    _pd: PhantomData<fn(A) -> I>,
}

impl<P, E, A, I> ReadPlan<I> for LazyStencil<P, E, A, I>
where
    P: ReadPlan<A>,
    A: Element,
    I: Element,
    E: Fn(&Stencil2DView<'_, A>) -> I + Send + Sync + Clone + 'static,
{
    type Base<V: Element, G: PixelOp<I, V>> = V;
    type Op<V: Element, G: PixelOp<I, V>> = OpId<V>;

    fn settle_with<V: Element, G: PixelOp<I, V>>(
        self,
        g: G,
        gstages: Vec<FusedStage>,
    ) -> Result<ElemPlan<V, OpId<V>, V>> {
        // Settle everything beneath first: a deeper stencil group launches
        // with its own post chain fused; element-wise stages directly
        // beneath this stencil stay pending and fuse into its reads.
        let pre = self.inner.settle_with(OpId::new(), Vec::new())?;
        launch_stencil_group(
            pre,
            self.eval,
            self.stage,
            self.radius,
            self.boundary,
            g,
            gstages,
        )
    }

    fn geom(&self) -> &PlanGeom {
        self.inner.geom()
    }
}

// ---------------------------------------------------------------------------
// Fused launches.
// ---------------------------------------------------------------------------

/// Launch one fused stencil group: per part, one block launch of one round
/// whose work-groups load their windows through `pre`'s pending chain, run
/// `eval` on every owned cell and write it through `post_op`. Owned rows
/// only — halo rows of the output go stale exactly as for `Stencil2D`. A
/// window that cannot fit local memory fails with
/// [`vgpu::Error::LocalMemExceeded`] before anything is enqueued.
fn launch_stencil_group<J, OpPre, A, E, I, V, G>(
    pre: ElemPlan<J, OpPre, A>,
    eval: E,
    stage: FusedStage,
    radius: usize,
    boundary: Boundary2D,
    post_op: G,
    post_stages: Vec<FusedStage>,
) -> Result<ElemPlan<V, OpId<V>, V>>
where
    J: Element,
    A: Element,
    I: Element,
    V: Element,
    OpPre: PixelOp<J, A>,
    E: Fn(&Stencil2DView<'_, A>) -> I + Send + Sync + Clone + 'static,
    G: PixelOp<I, V>,
{
    let ElemPlan {
        geom,
        parts,
        halos_fresh,
        op: pre_op,
        stages: pre_stages,
        ..
    } = pre;
    let ctx = geom.ctx.clone();
    let (rows, cols) = (geom.rows, geom.cols);

    let load_ops = pre_stages.iter().map(|s| s.static_ops).sum();
    let static_ops = stage.static_ops + post_stages.iter().map(|s| s.static_ops).sum::<u64>();
    let mut all_stages = pre_stages;
    all_stages.push(stage);
    all_stages.extend(post_stages);

    let mut span = ctx.span("pipeline.group");
    span.attr("kind", "stencil2d");
    span.attr("stages", codegen::fused_chain_name(&all_stages));
    span.attr("radius", radius.to_string());
    span.attr("devices", ctx.n_devices().to_string());

    // One window per work-group, checked before anything is enqueued or
    // built.
    let group = range_2d(&ctx, cols, rows).local;
    let group = (group[0], group[1]);
    window_rounds::<A>(&ctx, group, radius, 1, 1)?;

    // Halo coherence before reading beyond owned rows (wrapped runs only
    // refresh under Wrap, as in Stencil2D::iterate).
    if !halos_fresh {
        let skip_wrapped = boundary != Boundary2D::Wrap;
        exchange_part_halos(&ctx, &parts, rows, cols, skip_wrapped)?;
    }

    let program = codegen::stencil2d_block_program(
        &all_stages,
        J::TYPE_NAME,
        A::TYPE_NAME,
        V::TYPE_NAME,
        radius,
        boundary.codegen_name(),
    );
    let kernel = BlockKernel {
        compiled: ctx.get_or_build(&program)?,
        eval,
        pre: pre_op,
        post: post_op,
        load_ops,
        static_ops,
        radius,
        boundary,
        n_rows: rows,
        group,
        _pd: PhantomData,
    };
    let out_parts: Vec<MatrixPart<V>> = alloc_matching_matrix_parts(&ctx, &parts)?;
    for (pi, (ip, op)) in parts.iter().zip(&out_parts).enumerate() {
        kernel.launch(&ctx, pi, ip, op, &kernel.tiles(ip), 1, Order::Device)?;
    }
    ctx.metrics().counter("skelcl.pipeline.groups").inc();
    ctx.metrics()
        .counter("skelcl.pipeline.stages_fused")
        .add(all_stages.len() as u64);

    let fresh = stale_free(&out_parts);
    Ok(ElemPlan {
        geom,
        parts: out_parts,
        halos_fresh: fresh,
        op: OpId::new(),
        stages: Vec::new(),
        _pd: PhantomData,
    })
}

/// An element-wise kernel: `out = op(in)` per element, running the program
/// [`codegen::elementwise_program`] generates for the op's stages.
pub(crate) struct ElementwiseKernel<Op> {
    pub compiled: CompiledKernel,
    pub op: Op,
    /// Static per-element issue cost of every stage.
    pub static_ops: u64,
}

impl<Op> ElementwiseKernel<Op> {
    /// Launch over **all** span rows of every part, device-ordered, into
    /// freshly allocated output parts of the same geometry. Halo rows are
    /// computed locally, so the output's halo coherence is the input's.
    pub(crate) fn launch_parts<J, I>(
        &self,
        ctx: &Context,
        parts: &[MatrixPart<J>],
    ) -> Result<Vec<MatrixPart<I>>>
    where
        J: Element,
        I: Element,
        Op: PixelOp<J, I>,
    {
        let out_parts: Vec<MatrixPart<I>> = alloc_matching_matrix_parts(ctx, parts)?;
        for (pi, (ip, op)) in parts.iter().zip(&out_parts).enumerate() {
            let band = (0, ip.span_rows());
            launch_elementwise(ctx, self, pi, ip, Some(op), band, Order::Device)?;
        }
        Ok(out_parts)
    }
}

/// The one element-wise launcher, behind every `Map` and `Zip` variant, the
/// pipeline's element-wise groups and the `Copy` merge: `out = op(in)` over
/// span rows `[start, start + len)` of part `pi`, as one 1-D range over the
/// band's `len × cols` contiguous row-major elements. `out` has `ip`'s
/// geometry and may be `ip` itself (an in-place fold), or is `None` to
/// write nothing (`MapVoid`).
/// `order` goes straight to the launch: [`Order::Device`] for the
/// device-ordered launch, or [`Order::After`] to order it only by the main
/// queue, the listed events and the compute engine.
/// Returns the launch event, or `None` when the band is empty.
pub(crate) fn launch_elementwise<J, I, Op>(
    ctx: &Context,
    kernel: &ElementwiseKernel<Op>,
    pi: usize,
    ip: &MatrixPart<J>,
    out: Option<&MatrixPart<I>>,
    (start, len): (usize, usize),
    order: Order<'_>,
) -> Result<Option<Event>>
where
    J: Element,
    I: Element,
    Op: PixelOp<J, I>,
{
    let (base, n) = (start * ip.cols, len * ip.cols);
    if n == 0 {
        return Ok(None);
    }
    let src = ip.buffer.clone();
    let dst = out.map(|p| p.buffer.clone());
    let op = kernel.op.clone();
    let static_ops = kernel.static_ops;
    let body: KernelBody = Arc::new(move |wg| {
        wg.for_each_item(|it| {
            if !it.in_bounds() {
                return;
            }
            let i = base + it.global_id(0);
            let x = it.read(&src, i);
            let (y, dyn_ops) = meter::metered(|| op.apply(it, pi, i, x));
            if let Some(dst) = &dst {
                it.write(dst, i, y);
            }
            it.work(static_ops + dyn_ops);
        });
    });
    let kernel = kernel.compiled.with_body(body);
    Ok(Some(ctx.queue(ip.device).launch(
        &kernel,
        linear_range(ctx, n),
        order,
    )?))
}

/// The result of settling and materializing a whole pipeline: output parts
/// ready to wrap as a [`Matrix`].
pub struct FinishedParts<I: Element> {
    geom: PlanGeom,
    parts: Vec<MatrixPart<I>>,
    halos_fresh: bool,
}

impl<J, Op, I> ElemPlan<J, Op, I>
where
    J: Element,
    I: Element,
    Op: PixelOp<J, I>,
{
    /// Materialize the pending element-wise chain: one element-wise launch
    /// over **all** span rows per part (halo freshness passes through, as
    /// for `Map::apply_matrix`). A stage-free chain launches nothing — the
    /// output shares the input's device buffers, which skeletons never
    /// mutate.
    fn finish(self) -> Result<FinishedParts<I>> {
        if self.stages.is_empty() {
            let parts = same_type(self.parts)
                .expect("a stage-free pipeline chain preserves the element type");
            return Ok(FinishedParts {
                geom: self.geom,
                parts,
                halos_fresh: self.halos_fresh,
            });
        }
        let ctx = self.geom.ctx.clone();
        let mut span = ctx.span("pipeline.group");
        span.attr("kind", "map2d");
        span.attr("stages", codegen::fused_chain_name(&self.stages));
        span.attr("devices", ctx.n_devices().to_string());

        let program = codegen::elementwise_program(&self.stages, J::TYPE_NAME, I::TYPE_NAME, 0);
        let kernel = ElementwiseKernel {
            compiled: ctx.get_or_build(&program)?,
            op: self.op,
            static_ops: self.stages.iter().map(|s| s.static_ops).sum(),
        };
        let out_parts = kernel.launch_parts(&ctx, &self.parts)?;
        ctx.metrics().counter("skelcl.pipeline.groups").inc();
        ctx.metrics()
            .counter("skelcl.pipeline.stages_fused")
            .add(self.stages.len() as u64);
        Ok(FinishedParts {
            geom: self.geom,
            parts: out_parts,
            halos_fresh: self.halos_fresh,
        })
    }

    /// Fuse the pending chain into a row reduction: per owned row, an
    /// ascending-column left fold from `identity` — the exact fold order
    /// of [`ReduceRows`](crate::ReduceRows), so the fused result is
    /// bit-identical to materializing and then reducing.
    fn reduce_rows<F>(self, reduce: &UserFn<F>, identity: I) -> Result<Vector<I>>
    where
        F: Fn(I, I) -> I + Send + Sync + Clone + 'static,
    {
        let ctx = self.geom.ctx.clone();
        let (rows, cols) = (self.geom.rows, self.geom.cols);
        let mut span = ctx.span("pipeline.group");
        span.attr("kind", "reduce_rows");
        span.attr(
            "stages",
            if self.stages.is_empty() {
                reduce.name().to_string()
            } else {
                format!(
                    "{}+{}",
                    codegen::fused_chain_name(&self.stages),
                    reduce.name()
                )
            },
        );
        span.attr("devices", ctx.n_devices().to_string());

        let program = codegen::fused_reduce_rows_program(
            &self.stages,
            reduce.name(),
            reduce.source(),
            J::TYPE_NAME,
            I::TYPE_NAME,
        );
        let compiled = ctx.get_or_build(&program)?;
        let chain_ops: u64 = self.stages.iter().map(|s| s.static_ops).sum();
        let static_ops = chain_ops + reduce.static_ops();

        // Under a row-based distribution every owned row folds in place
        // and the per-part partials concatenate (same dispatch as
        // ReduceRows); otherwise the first full part folds everything.
        let concat = matches!(self.geom.dist, MatrixDistribution::RowBlock { .. });
        let fold_parts: Vec<(usize, &MatrixPart<J>)> = if concat {
            self.parts.iter().enumerate().collect()
        } else {
            self.parts.iter().enumerate().take(1).collect()
        };

        let mut out_parts = Vec::with_capacity(fold_parts.len());
        for &(pi, p) in &fold_parts {
            let fold_rows = p.rows;
            let buffer = ctx.device(p.device).alloc::<I>(fold_rows)?;
            if fold_rows > 0 && cols > 0 {
                let src = p.buffer.clone();
                let dst = buffer.clone();
                let op = self.op.clone();
                let red = reduce.func().clone();
                let halo_above = p.halo_above;
                let body: KernelBody = Arc::new(move |wg| {
                    wg.for_each_item(|it| {
                        if !it.in_bounds() {
                            return;
                        }
                        let r = it.global_id(0);
                        let sr = halo_above + r;
                        let (acc, dyn_ops) = meter::metered(|| {
                            let mut acc = identity;
                            for c in 0..cols {
                                let i = sr * cols + c;
                                acc = red(acc, op.apply(it, pi, i, it.read(&src, i)));
                            }
                            acc
                        });
                        it.write(&dst, r, acc);
                        it.work(cols as u64 * static_ops + dyn_ops);
                    });
                });
                ctx.queue(p.device).launch(
                    &compiled.with_body(body),
                    linear_range(&ctx, fold_rows),
                    Order::Device,
                )?;
            }
            out_parts.push(MatrixPart::column(
                p.device,
                p.row_offset,
                fold_rows,
                buffer,
            ));
        }
        ctx.metrics().counter("skelcl.pipeline.groups").inc();
        ctx.metrics()
            .counter("skelcl.pipeline.stages_fused")
            .add(self.stages.len() as u64 + 1);

        Ok(if concat {
            Vector::from_device_parts(&ctx, rows, Distribution::Block, out_parts)
        } else {
            let p = out_parts.remove(0);
            Vector::from_device_parts(&ctx, rows, Distribution::Single(p.device), vec![p])
        })
    }
}

// ---------------------------------------------------------------------------
// Consumers: continuation-passing composition of stages into plans.
// ---------------------------------------------------------------------------

/// A continuation receiving a plan for elements of type `I`. Combinators
/// thread these through [`PipelineExpr::feed`] so each stage wraps the
/// plan (or launches a group) in evaluation order without any type
/// erasure.
pub trait PipeConsumer<I: Element> {
    type Output;
    fn consume<P: ReadPlan<I>>(self, plan: P) -> Result<Self::Output>;
}

pub struct MapConsumer<F, M, V, C> {
    f: F,
    stage: FusedStage,
    next: C,
    _pd: PhantomData<fn(M) -> V>,
}

impl<M, V, F, C> PipeConsumer<M> for MapConsumer<F, M, V, C>
where
    M: Element,
    V: Element,
    F: Fn(M) -> V + Send + Sync + Clone + 'static,
    C: PipeConsumer<V>,
{
    type Output = C::Output;

    fn consume<P: ReadPlan<M>>(self, plan: P) -> Result<C::Output> {
        self.next.consume(Mapped {
            inner: plan,
            op: OpMap::new(self.f),
            stage: self.stage,
        })
    }
}

pub struct ZipConsumer<B: Element, F, M, V, C> {
    other: Matrix<B>,
    f: F,
    stage: FusedStage,
    next: C,
    _pd: PhantomData<fn(M, B) -> V>,
}

impl<B, M, V, F, C> PipeConsumer<M> for ZipConsumer<B, F, M, V, C>
where
    B: Element,
    M: Element,
    V: Element,
    F: Fn(M, B) -> V + Send + Sync + Clone + 'static,
    C: PipeConsumer<V>,
{
    type Output = C::Output;

    fn consume<P: ReadPlan<M>>(self, plan: P) -> Result<C::Output> {
        let geom = plan.geom().clone();
        if self.other.dims() != (geom.rows, geom.cols) {
            return Err(Error::ShapeMismatch {
                left: (geom.rows, geom.cols),
                right: self.other.dims(),
            });
        }
        // The operand adopts the pipeline's layout: partitioning is a
        // deterministic function of (distribution, dims, context), so its
        // parts then mirror the chain's part geometry index for index.
        if self.other.distribution() != geom.dist {
            self.other.set_distribution(geom.dist)?;
        }
        let parts = self.other.parts_with_fresh_halos()?;
        self.next.consume(Zipped {
            inner: plan,
            op: OpZip::new(parts, self.f),
            stage: self.stage,
        })
    }
}

pub struct StencilConsumer<E, A, I, C> {
    eval: E,
    stage: FusedStage,
    radius: usize,
    boundary: Boundary2D,
    next: C,
    _pd: PhantomData<fn(A) -> I>,
}

impl<A, I, E, C> PipeConsumer<A> for StencilConsumer<E, A, I, C>
where
    A: Element,
    I: Element,
    E: Fn(&Stencil2DView<'_, A>) -> I + Send + Sync + Clone + 'static,
    C: PipeConsumer<I>,
{
    type Output = C::Output;

    fn consume<P: ReadPlan<A>>(self, plan: P) -> Result<C::Output> {
        self.next.consume(LazyStencil {
            inner: plan,
            eval: self.eval,
            stage: self.stage,
            radius: self.radius,
            boundary: self.boundary,
            _pd: PhantomData,
        })
    }
}

/// Terminal consumer of [`PipelineExpr::run`]: settle and materialize.
pub struct FinishConsumer;

impl<I: Element> PipeConsumer<I> for FinishConsumer {
    type Output = FinishedParts<I>;

    fn consume<P: ReadPlan<I>>(self, plan: P) -> Result<FinishedParts<I>> {
        plan.settle_with(OpId::new(), Vec::new())?.finish()
    }
}

/// Terminal consumer of [`PipelineExpr::reduce_rows`].
pub struct ReduceRowsConsumer<F, I> {
    reduce: UserFn<F>,
    identity: I,
}

impl<I, F> PipeConsumer<I> for ReduceRowsConsumer<F, I>
where
    I: Element,
    F: Fn(I, I) -> I + Send + Sync + Clone + 'static,
{
    type Output = Vector<I>;

    fn consume<P: ReadPlan<I>>(self, plan: P) -> Result<Vector<I>> {
        plan.settle_with(OpId::new(), Vec::new())?
            .reduce_rows(&self.reduce, self.identity)
    }
}

// ---------------------------------------------------------------------------
// The public combinator layer.
// ---------------------------------------------------------------------------

/// Entry point: `Pipeline::start::<T>()` opens a pipeline over matrices of
/// `T`.
pub struct Pipeline;

impl Pipeline {
    pub fn start<T: Element>() -> Start<T> {
        Start(PhantomData)
    }
}

/// The empty pipeline (identity). Running it launches nothing.
pub struct Start<T>(PhantomData<fn(T) -> T>);

impl<T> Clone for Start<T> {
    fn clone(&self) -> Self {
        Start(PhantomData)
    }
}

/// A composable, deferred chain of skeleton stages over a `Matrix<T>`.
///
/// Import this trait to use the combinators; see the module docs for the
/// fusion rules. `run` executes the chain; nothing launches before it.
pub trait PipelineExpr<T: Element>: Sized + Clone {
    /// The chain's output element type.
    type Out: Element;

    /// Append this chain's stage descriptors (fusion bookkeeping).
    #[doc(hidden)]
    fn describe(&self, out: &mut Vec<FusedStage>);

    /// The widest stencil radius in the chain (input layout planning).
    #[doc(hidden)]
    fn max_radius(&self) -> usize;

    /// Thread a source plan through the chain into `consumer`.
    #[doc(hidden)]
    fn feed<C: PipeConsumer<Self::Out>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output>;

    /// Append an element-wise stage `V f(Out)`. Never launches alone: it
    /// fuses into the neighbouring group.
    fn map<V, F>(self, user: UserFn<F>) -> PipeMap<Self, F, V>
    where
        V: Element,
        F: Fn(Self::Out) -> V + Send + Sync + Clone + 'static,
    {
        PipeMap {
            prev: self,
            user,
            _pd: PhantomData,
        }
    }

    /// Append an element-wise stage `V f(Out, B)` against a second matrix
    /// of the same shape (it adopts the pipeline's distribution).
    fn zip_with<B, V, F>(self, other: &Matrix<B>, user: UserFn<F>) -> PipeZip<Self, B, F, V>
    where
        B: Element,
        V: Element,
        F: Fn(Self::Out, B) -> V + Send + Sync + Clone + 'static,
    {
        PipeZip {
            prev: self,
            other: other.clone(),
            user,
            _pd: PhantomData,
        }
    }

    /// Append a stencil stage `V f(&Stencil2DView<Out>)` of the given radius
    /// and boundary mode. Anchors one fused kernel launch.
    fn stencil<V, F>(
        self,
        user: UserFn<F>,
        radius: usize,
        boundary: Boundary2D,
    ) -> PipeStencil<Self, F, V>
    where
        V: Element,
        F: Fn(&Stencil2DView<'_, Self::Out>) -> V + Send + Sync + Clone + 'static,
    {
        PipeStencil {
            prev: self,
            user,
            radius,
            boundary,
            _pd: PhantomData,
        }
    }

    /// Append two stencil stages over the *same* neighbourhood plus a
    /// combiner — `V combine(a(view), b(view))` — fused into **one**
    /// kernel (e.g. the Sobel x/y derivative pair producing a gradient
    /// struct in a single pass over the image).
    fn stencil_pair<V1, V2, V, FA, FB, FC>(
        self,
        a: UserFn<FA>,
        b: UserFn<FB>,
        combine: UserFn<FC>,
        radius: usize,
        boundary: Boundary2D,
    ) -> PipeStencilPair<Self, FA, V1, FB, V2, FC, V>
    where
        V1: Element,
        V2: Element,
        V: Element,
        FA: Fn(&Stencil2DView<'_, Self::Out>) -> V1 + Send + Sync + Clone + 'static,
        FB: Fn(&Stencil2DView<'_, Self::Out>) -> V2 + Send + Sync + Clone + 'static,
        FC: Fn(V1, V2) -> V + Send + Sync + Clone + 'static,
    {
        PipeStencilPair {
            prev: self,
            a,
            b,
            combine,
            radius,
            boundary,
            _pd: PhantomData,
        }
    }

    /// Execute the chain over `input`: one launch per fused group, zero
    /// intermediate matrices. An empty chain launches nothing and returns
    /// a matrix sharing the input's device buffers.
    fn run(&self, input: &Matrix<T>) -> Result<Matrix<Self::Out>> {
        let src = prepared_source(self, input, false)?;
        let finished = self.feed(src, FinishConsumer)?;
        Ok(Matrix::from_device_parts(
            &finished.geom.ctx,
            finished.geom.rows,
            finished.geom.cols,
            finished.geom.dist,
            finished.parts,
            finished.halos_fresh,
        ))
    }

    /// Execute the chain and fold each row with `reduce` from `identity`
    /// (ascending columns — the [`ReduceRows`](crate::ReduceRows) fold
    /// order), fusing the pending element-wise chain into the fold's
    /// reads: the whole map→…→reduce pipeline is one launch.
    fn reduce_rows<F>(
        &self,
        input: &Matrix<T>,
        reduce: UserFn<F>,
        identity: Self::Out,
    ) -> Result<Vector<Self::Out>>
    where
        F: Fn(Self::Out, Self::Out) -> Self::Out + Send + Sync + Clone + 'static,
    {
        let src = prepared_source(self, input, true)?;
        self.feed(src, ReduceRowsConsumer { reduce, identity })
    }
}

/// Plan the input layout and build the source plan: stencil chains and row
/// folds follow `Stencil2D`'s layout rule at the maximum radius, and
/// stencil chains get coherent halos; pure element-wise chains take the
/// parts as they are. Opens the `pipeline.run` span.
fn prepared_source<T: Element, E: PipelineExpr<T>>(
    expr: &E,
    input: &Matrix<T>,
    row_fold: bool,
) -> Result<ElemPlan<T, OpId<T>, T>> {
    let ctx = input.ctx().clone();
    let (rows, cols) = input.dims();
    let mut stages = Vec::new();
    expr.describe(&mut stages);
    let n_stencils = stages
        .iter()
        .filter(|s| s.kind.starts_with("stencil"))
        .count();
    let groups = if n_stencils > 0 {
        n_stencils
    } else {
        usize::from(!stages.is_empty() || row_fold)
    };
    let mut span = ctx.span("pipeline.run");
    span.attr("stages", stages.len().to_string());
    span.attr("groups", groups.to_string());
    span.attr("shape", format!("{rows}x{cols}"));
    span.attr("distribution", format!("{:?}", input.distribution()));
    span.attr("devices", ctx.n_devices().to_string());

    let radius = expr.max_radius();
    if n_stencils > 0 || row_fold {
        stencil_input_layout(input, radius)?;
    }
    let (parts, halos_fresh) = if radius > 0 {
        (input.parts_with_fresh_halos()?, true)
    } else {
        (input.parts()?, input.halos_fresh())
    };
    Ok(ElemPlan {
        geom: PlanGeom {
            ctx,
            rows,
            cols,
            dist: input.distribution(),
        },
        parts,
        halos_fresh,
        op: OpId::new(),
        stages: Vec::new(),
        _pd: PhantomData,
    })
}

impl<T: Element> PipelineExpr<T> for Start<T> {
    type Out = T;

    fn describe(&self, _out: &mut Vec<FusedStage>) {}

    fn max_radius(&self) -> usize {
        0
    }

    fn feed<C: PipeConsumer<T>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        consumer.consume(src)
    }
}

/// A pipeline ending in a `map` stage.
#[derive(Clone)]
pub struct PipeMap<P, F, V> {
    prev: P,
    user: UserFn<F>,
    _pd: PhantomData<fn() -> V>,
}

impl<T, P, F, V> PipelineExpr<T> for PipeMap<P, F, V>
where
    T: Element,
    P: PipelineExpr<T>,
    V: Element,
    F: Fn(P::Out) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(stage_of("map", &self.user));
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius()
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            MapConsumer {
                f: self.user.func().clone(),
                stage: stage_of("map", &self.user),
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

/// A pipeline ending in a `zip_with` stage.
#[derive(Clone)]
pub struct PipeZip<P, B: Element, F, V> {
    prev: P,
    other: Matrix<B>,
    user: UserFn<F>,
    _pd: PhantomData<fn() -> V>,
}

impl<T, P, B, F, V> PipelineExpr<T> for PipeZip<P, B, F, V>
where
    T: Element,
    P: PipelineExpr<T>,
    B: Element,
    V: Element,
    F: Fn(P::Out, B) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(stage_of("zip", &self.user).with_operand(B::TYPE_NAME));
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius()
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            ZipConsumer {
                other: self.other.clone(),
                f: self.user.func().clone(),
                stage: stage_of("zip", &self.user).with_operand(B::TYPE_NAME),
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

/// A pipeline ending in a `stencil` stage.
#[derive(Clone)]
pub struct PipeStencil<P, F, V> {
    prev: P,
    user: UserFn<F>,
    radius: usize,
    boundary: Boundary2D,
    _pd: PhantomData<fn() -> V>,
}

impl<T, P, F, V> PipelineExpr<T> for PipeStencil<P, F, V>
where
    T: Element,
    P: PipelineExpr<T>,
    V: Element,
    F: Fn(&Stencil2DView<'_, P::Out>) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(stage_of("stencil", &self.user));
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius().max(self.radius)
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            StencilConsumer {
                eval: self.user.func().clone(),
                stage: stage_of("stencil", &self.user),
                radius: self.radius,
                boundary: self.boundary,
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

/// A pipeline ending in a `stencil_pair` stage.
#[derive(Clone)]
pub struct PipeStencilPair<P, FA, V1, FB, V2, FC, V> {
    prev: P,
    a: UserFn<FA>,
    b: UserFn<FB>,
    combine: UserFn<FC>,
    radius: usize,
    boundary: Boundary2D,
    _pd: PhantomData<fn(V1, V2) -> V>,
}

impl<P, FA, V1, FB, V2, FC, V> PipeStencilPair<P, FA, V1, FB, V2, FC, V>
where
    FA: Clone,
    FB: Clone,
    FC: Clone,
{
    fn stage(&self) -> FusedStage {
        FusedStage::new(
            "stencil_pair",
            format!(
                "pair_{}_{}_{}",
                self.a.name(),
                self.b.name(),
                self.combine.name()
            ),
            format!(
                "{}\n{}\n{}",
                self.a.source(),
                self.b.source(),
                self.combine.source()
            ),
            self.a.static_ops() + self.b.static_ops() + self.combine.static_ops(),
        )
    }
}

/// Force a pair-combining closure into the higher-ranked `Fn(&Stencil2DView)`
/// shape the stencil launcher expects.
fn pair_eval<M, V1, V2, V, FA, FB, FC>(
    fa: FA,
    fb: FB,
    fc: FC,
) -> impl Fn(&Stencil2DView<'_, M>) -> V + Send + Sync + Clone + 'static
where
    M: Element,
    V1: Element,
    V2: Element,
    V: Element,
    FA: Fn(&Stencil2DView<'_, M>) -> V1 + Send + Sync + Clone + 'static,
    FB: Fn(&Stencil2DView<'_, M>) -> V2 + Send + Sync + Clone + 'static,
    FC: Fn(V1, V2) -> V + Send + Sync + Clone + 'static,
{
    move |view: &Stencil2DView<'_, M>| fc(fa(view), fb(view))
}

impl<T, P, FA, V1, FB, V2, FC, V> PipelineExpr<T> for PipeStencilPair<P, FA, V1, FB, V2, FC, V>
where
    T: Element,
    P: PipelineExpr<T>,
    V1: Element,
    V2: Element,
    V: Element,
    FA: Fn(&Stencil2DView<'_, P::Out>) -> V1 + Send + Sync + Clone + 'static,
    FB: Fn(&Stencil2DView<'_, P::Out>) -> V2 + Send + Sync + Clone + 'static,
    FC: Fn(V1, V2) -> V + Send + Sync + Clone + 'static,
{
    type Out = V;

    fn describe(&self, out: &mut Vec<FusedStage>) {
        self.prev.describe(out);
        out.push(self.stage());
    }

    fn max_radius(&self) -> usize {
        self.prev.max_radius().max(self.radius)
    }

    fn feed<C: PipeConsumer<V>>(
        &self,
        src: ElemPlan<T, OpId<T>, T>,
        consumer: C,
    ) -> Result<C::Output> {
        self.prev.feed(
            src,
            StencilConsumer {
                eval: pair_eval(
                    self.a.func().clone(),
                    self.b.func().clone(),
                    self.combine.func().clone(),
                ),
                stage: self.stage(),
                radius: self.radius,
                boundary: self.boundary,
                next: consumer,
                _pd: PhantomData,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;
    use crate::{Map, ReduceRows, Stencil2D, Stencil2DView, Zip};

    fn test_matrix(ctx: &Context, rows: usize, cols: usize, seed: u32) -> Matrix<f32> {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (h % 2000) as f32 - 1000.0
            })
            .collect();
        Matrix::from_vec(ctx, rows, cols, data)
    }

    fn scale_fn() -> UserFn<fn(f32) -> f32> {
        crate::skel_fn!(
            fn scale(x: f32) -> f32 {
                x * 0.5 + 1.0
            }
        )
    }

    fn square_fn() -> UserFn<fn(f32) -> f32> {
        crate::skel_fn!(
            fn square(x: f32) -> f32 {
                x * x
            }
        )
    }

    fn add_fn() -> UserFn<fn(f32, f32) -> f32> {
        crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        )
    }

    fn cross_user() -> UserFn<impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        UserFn::new(
            "cross_sum",
            "float cross_sum(__global float* in, int r, int c, uint nr, uint nc) {\n\
             return stencil_at(in,r,c,nr,nc,-1,0) + stencil_at(in,r,c,nr,nc,1,0)\n\
                  + stencil_at(in,r,c,nr,nc,0,-1) + stencil_at(in,r,c,nr,nc,0,1)\n\
                  + stencil_at(in,r,c,nr,nc,0,0);\n}",
            |v: &Stencil2DView<'_, f32>| {
                v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1) + v.get(0, 0)
            },
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn empty_pipeline_is_identity_with_zero_launches() {
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 9, 7, 1);
        let before = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        let out = Pipeline::start::<f32>().run(&m).unwrap();
        assert_eq!(bits(&out.to_vec().unwrap()), bits(&m.to_vec().unwrap()));
        let after = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        assert_eq!(before, after, "empty pipeline must launch nothing");
    }

    #[test]
    fn single_map_stage_matches_unfused_map_bitwise() {
        for devices in [1, 2, 3] {
            let ctx = ctx(devices);
            let m = test_matrix(&ctx, 11, 6, 2);
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let fused = Pipeline::start::<f32>().map(scale_fn()).run(&m).unwrap();
            let unfused = Map::new(scale_fn()).apply_matrix(&m).unwrap();
            assert_eq!(
                bits(&fused.to_vec().unwrap()),
                bits(&unfused.to_vec().unwrap())
            );
        }
    }

    #[test]
    fn single_stencil_stage_matches_unfused_stencil_bitwise() {
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            for devices in [1, 2, 4] {
                let ctx = ctx(devices);
                let m = test_matrix(&ctx, 13, 5, 3);
                let fused = Pipeline::start::<f32>()
                    .stencil(cross_user(), 1, boundary)
                    .run(&m)
                    .unwrap();
                let unfused = Stencil2D::new(cross_user(), 1, boundary).apply(&m).unwrap();
                assert_eq!(
                    bits(&fused.to_vec().unwrap()),
                    bits(&unfused.to_vec().unwrap()),
                    "boundary {boundary:?}, {devices} devices"
                );
            }
        }
    }

    #[test]
    fn map_stencil_map_chain_fuses_to_one_launch_group_and_matches_unfused() {
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 16, 9, 4);
        let before = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        let fused = Pipeline::start::<f32>()
            .map(scale_fn())
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .map(square_fn())
            .run(&m)
            .unwrap();
        let after = ctx
            .metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0);
        assert_eq!(after - before, 1, "pre and post maps fuse into the stencil");

        let step1 = Map::new(scale_fn()).apply_matrix(&m).unwrap();
        let step2 = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann)
            .apply(&step1)
            .unwrap();
        let unfused = Map::new(square_fn()).apply_matrix(&step2).unwrap();
        assert_eq!(
            bits(&fused.to_vec().unwrap()),
            bits(&unfused.to_vec().unwrap())
        );
    }

    #[test]
    fn zip_stage_matches_unfused_zip_bitwise() {
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 10, 8, 5);
        let other = test_matrix(&ctx, 10, 8, 6);
        let fused = Pipeline::start::<f32>()
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap();
        let unfused = Zip::new(add_fn()).apply_matrix(&m, &other).unwrap();
        assert_eq!(
            bits(&fused.to_vec().unwrap()),
            bits(&unfused.to_vec().unwrap())
        );
    }

    #[test]
    fn vector_matrix_and_pipeline_elementwise_calls_build_one_program() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, (0..40).map(|i| i as f32).collect());
        let w = Vector::from_vec(&c, vec![0.5f32; 40]);
        let m = test_matrix(&c, 10, 8, 1);
        let other = test_matrix(&c, 10, 8, 2);

        let before = c.program_cache_misses();
        Map::new(scale_fn()).apply(&v).unwrap();
        Map::new(scale_fn()).apply_matrix(&m).unwrap();
        Pipeline::start::<f32>().map(scale_fn()).run(&m).unwrap();
        assert_eq!(c.program_cache_misses(), before + 1, "Map");

        Zip::new(add_fn()).apply(&v, &w).unwrap();
        Zip::new(add_fn()).apply_matrix(&m, &other).unwrap();
        Pipeline::start::<f32>()
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap();
        // A `Copy` merge combining with the same function runs Zip's program.
        let acc = Vector::from_vec(&c, vec![1.0f32; 8]);
        acc.set_distribution(Distribution::Copy).unwrap();
        acc.ensure_on_devices().unwrap();
        acc.mark_devices_modified();
        acc.set_distribution_with(Distribution::Block, &add_fn())
            .unwrap();
        assert_eq!(acc.to_vec().unwrap(), vec![2.0f32; 8]);
        assert_eq!(c.program_cache_misses(), before + 2, "Zip");
    }

    #[test]
    fn zip_shape_mismatch_is_reported() {
        let ctx = ctx(1);
        let m = test_matrix(&ctx, 4, 4, 7);
        let other = test_matrix(&ctx, 4, 5, 8);
        let err = Pipeline::start::<f32>()
            .zip_with(&other, add_fn())
            .run(&m)
            .unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }));
    }

    #[test]
    fn fused_reduce_rows_matches_map_then_reduce_rows() {
        for devices in [1, 2, 4] {
            let ctx = ctx(devices);
            let m = test_matrix(&ctx, 12, 7, 9);
            m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
                .unwrap();
            let fused = Pipeline::start::<f32>()
                .map(square_fn())
                .reduce_rows(&m, add_fn(), 0.0)
                .unwrap();
            let mapped = Map::new(square_fn()).apply_matrix(&m).unwrap();
            let unfused = ReduceRows::new(add_fn(), 0.0).apply(&mapped).unwrap();
            assert_eq!(
                bits(&fused.to_vec().unwrap()),
                bits(&unfused.to_vec().unwrap()),
                "{devices} devices"
            );
        }
    }

    #[test]
    fn stencil_pair_matches_two_stencils_plus_zip() {
        let shift_user = |dc: isize, name: &'static str| {
            UserFn::new(
                name,
                format!(
                    "float {name}(__global float* in, int r, int c, uint nr, uint nc) {{\n\
                     return stencil_at(in,r,c,nr,nc,0,{dc});\n}}"
                ),
                move |v: &Stencil2DView<'_, f32>| v.get(0, dc),
            )
        };
        for devices in [1, 2] {
            let ctx = ctx(devices);
            let m = test_matrix(&ctx, 9, 9, 10);
            let fused = Pipeline::start::<f32>()
                .stencil_pair(
                    shift_user(-1, "left"),
                    shift_user(1, "right"),
                    add_fn(),
                    1,
                    Boundary2D::Zero,
                )
                .run(&m)
                .unwrap();
            let left = Stencil2D::new(shift_user(-1, "left"), 1, Boundary2D::Zero)
                .apply(&m)
                .unwrap();
            let right = Stencil2D::new(shift_user(1, "right"), 1, Boundary2D::Zero)
                .apply(&m)
                .unwrap();
            let unfused = Zip::new(add_fn()).apply_matrix(&left, &right).unwrap();
            assert_eq!(
                bits(&fused.to_vec().unwrap()),
                bits(&unfused.to_vec().unwrap()),
                "{devices} devices"
            );
        }
    }

    #[test]
    fn chained_stencil_groups_count_their_halo_exchange_like_chained_applies() {
        let ctx = ctx(2);
        let before = ctx.halo_exchange_count();
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .run(&test_matrix(&ctx, 16, 9, 11))
            .unwrap();
        let fused = ctx.halo_exchange_count() - before;
        assert_eq!(fused, 1, "the second group refreshes its input halos once");

        let before = ctx.halo_exchange_count();
        let st = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann);
        st.apply(&st.apply(&test_matrix(&ctx, 16, 9, 11)).unwrap())
            .unwrap();
        assert_eq!(ctx.halo_exchange_count() - before, fused);
    }

    /// Cells inside a `rows × cols` matrix of every window `radius` cells
    /// around the matrix's `(lx, ly)` tiles.
    fn window_cells(rows: usize, cols: usize, (lx, ly): (usize, usize), radius: usize) -> u64 {
        let clip = |lo: usize, len: usize, n: usize| {
            (lo + len + radius).min(n) - lo.saturating_sub(radius)
        };
        let mut cells = 0;
        for r0 in (0..rows).step_by(ly) {
            for c0 in (0..cols).step_by(lx) {
                cells += clip(r0, ly.min(rows - r0), rows) * clip(c0, lx.min(cols - c0), cols);
            }
        }
        cells as u64
    }

    #[test]
    fn a_staged_group_reads_each_window_cell_once() {
        // One device, 16×4 work-groups, Neumann: each window loads the
        // cells inside the matrix, and the zip before the stencil reads its
        // operand once per loaded cell. The taps read local memory.
        let c = ctx(1);
        let (rows, cols) = (10, 20);
        let m = test_matrix(&c, rows, cols, 12);
        let other = test_matrix(&c, rows, cols, 13);
        let before = c.platform().stats_snapshot();
        Pipeline::start::<f32>()
            .zip_with(&other, add_fn())
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .map(square_fn())
            .run(&m)
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.kernel_launches, 1);
        let loads = window_cells(rows, cols, (16, 4), 1) * 2 * 4;
        let writes = (rows * cols * 4) as u64;
        assert_eq!(delta.kernel_global_bytes, loads + writes);
    }

    #[test]
    fn a_one_stage_pipeline_stencil_runs_the_program_iterate_built() {
        let c = ctx(2);
        let m = test_matrix(&c, 16, 9, 14);
        Stencil2D::new(cross_user(), 1, Boundary2D::Wrap)
            .iterate(&m, 1)
            .unwrap();
        let misses = c.program_cache_misses();
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Wrap)
            .run(&m)
            .unwrap();
        assert_eq!(c.program_cache_misses(), misses, "no registry miss");
    }

    #[test]
    fn a_group_whose_window_cannot_fit_fails_before_anything_is_enqueued() {
        // Radius 12 with 16×4 work-groups: one 40×28 window of floats
        // needs 4480 bytes of the tiny device's 4096.
        let c = ctx(2);
        let m = test_matrix(&c, 32, 16, 15);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 12 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let far = UserFn::new(
            "far",
            "float far(__global float* in, int r, int c, uint nr, uint nc) { /* rows +-12 */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-12, 0) + v.get(12, 0),
        );
        let used = |c: &Context| (0..2).map(|d| c.device(d).used_bytes()).collect::<Vec<_>>();
        let (stats, bytes, built) = (c.platform().stats_snapshot(), used(&c), c.programs_built());
        let err = Pipeline::start::<f32>()
            .map(scale_fn())
            .stencil(far, 12, Boundary2D::Zero)
            .run(&m)
            .expect_err("the window cannot fit");
        assert!(
            matches!(
                err,
                Error::Platform(vgpu::Error::LocalMemExceeded {
                    requested: 4480,
                    limit: 4096
                })
            ),
            "{err}"
        );
        let delta = c.platform().stats_snapshot() - stats;
        assert_eq!(delta.kernel_launches, 0, "nothing is launched");
        assert_eq!(used(&c), bytes, "nothing is allocated");
        assert_eq!(c.programs_built(), built, "nothing is built");
    }

    #[test]
    fn fused_program_names_key_on_stage_order() {
        let a = FusedStage::new("map", "f", "float f(float x){return x;}", 1);
        let b = FusedStage::new("map", "g", "float g(float x){return x;}", 1);
        let ab = codegen::elementwise_program(&[a.clone(), b.clone()], "float", "float", 0);
        let ba = codegen::elementwise_program(&[b, a], "float", "float", 0);
        assert_ne!(
            ab.hash(),
            ba.hash(),
            "fusion order is part of the cache key"
        );
    }
}
