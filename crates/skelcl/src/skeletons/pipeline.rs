//! Lazy skeleton pipelines with kernel fusion.
//!
//! A [`Pipeline`] is an expression template over skeleton calls: `map`,
//! `zip_with`, `stencil` and `stencil_pair` stages compose into a value
//! that *defers* execution. Running the pipeline partitions the stages
//! into **fused groups** — each group is one kernel launch per part —
//! instead of one launch (and one intermediate [`Matrix`]) per stage:
//!
//! * Element-wise stages (`map` / `zip_with`) never launch on their own.
//!   A chain *before* a stencil fuses into the load of the stencil's
//!   local-memory window, so it runs once per loaded cell; a chain
//!   *between* two stencils fuses into the stores to the next stencil's
//!   window, and a chain *after* the last one into the tile writes. An
//!   all-element-wise pipeline collapses into a single fused map kernel;
//!   an empty pipeline launches nothing.
//! * Each maximal run of `stencil` / `stencil_pair` stages is one group, a
//!   *chain*. The input is laid out like [`Stencil2D`](crate::Stencil2D)'s
//!   at the run's radii summed, `R`, so a warm input already holds every
//!   halo row the chain reads and no exchange runs inside it. Each
//!   work-group loads its tile's window, `R` cells deeper on every side,
//!   once; each stencil then computes the next window, its radius narrower
//!   on every side and of its result's type, and the last one writes the
//!   tile. A run splits only where its windows stop fitting local memory
//!   together (checked before anything is enqueued) or where a `Wrap`
//!   stage meets another boundary mode; each piece exchanges the halos of
//!   its input as `Stencil2D` would.
//! * The terminal decides the output: [`PipelineExpr::run`] writes a
//!   [`Matrix`] that stays on the devices; [`PipelineExpr::run_to_host`]
//!   writes one the host reads, fresh on both sides; and
//!   [`PipelineExpr::reduce_rows`] runs the
//!   [`ReduceRows`](crate::ReduceRows) fold over the settled chain, applying
//!   the pending element-wise stages to each element as it is folded, and
//!   writes a [`Vector`].
//! * For the host, the last stencil chain launches per part in tile-aligned
//!   row bands of the same block kernel: band 1 device-ordered, the later
//!   bands behind it on the compute queue, and each band's rows read back on
//!   the copy queue after its own launch alone, straight into the matrix's
//!   host copy, so every read but the last runs under a later band's
//!   kernel. The band count `n` comes from the part's read time `t` and the
//!   launch cost `l`, both the platform's: one more band pays while
//!   `n(n + 1)·l < t`, so a part whose half read cannot cover a launch runs
//!   as one band. A pipeline without a stencil runs `run`, then downloads.
//!
//! Every group runs through the launcher of the skeleton it anchors on,
//! from that skeleton's program generator, and its program is cached in
//! the [`ProgramRegistry`](crate::ProgramRegistry) under the joined stage
//! names: stencil chains through
//! [`Stencil2D::iterate`](crate::Stencil2D::iterate)'s block kernel
//! ([`codegen::stencil2d_block_program`]; each work-group reads every cell
//! of its window from global memory once), element-wise groups through
//! `launch_elementwise` with every [`Map`](crate::Map) and
//! [`Zip`](crate::Zip) variant ([`codegen::elementwise_program`]), row
//! folds through `ReduceRows`' distribution dispatch and fold launcher
//! ([`codegen::fold_program`]). A one-stage group over a same-type
//! stencil, a one-stage element-wise group and a stage-free fold build
//! exactly the program of `iterate`, `Map`/`Zip` and `ReduceRows`.
//!
//! The technique follows the expression-template fusion of Demidov et al.
//! ("Programming CUDA and OpenCL: A Case Study Using Modern C++
//! Libraries"): composition happens in the type system, so every fused
//! kernel body is fully monomorphized.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::arguments::{KernelEnv, PartArgs};
use crate::codegen::{self, Axis, FusedStage, UserFn};
use crate::context::Context;
use crate::error::{Error, Result};
use crate::matrix::{
    block_ranges, exchange_part_halos, host_parts, read_part_rows, HostRead, Matrix,
    MatrixDistribution, MatrixPart,
};
use crate::meter;
use crate::skeletons::reduce2d::Fold;
use crate::skeletons::stencil2d::{
    block_group, check_local_mem, stale_free, stencil_input_layout, window_bytes, BlockKernel,
    Boundary2D, Chain, Last, Link, Round, Stencil2DView,
};
use crate::skeletons::{alloc_matching_matrix_parts, linear_range};
use crate::vector::Vector;
use vgpu::{CompiledKernel, Event, Item, KernelBody, Order, Scalar as Element};

/// A stage descriptor from a user function.
pub(crate) fn stage_of<F>(kind: &'static str, user: &UserFn<F>) -> FusedStage {
    FusedStage::new(kind, user.name(), user.source(), user.static_ops())
}

/// `x` as a `Y` when the two types are in fact the same. The launchers
/// call this only for stage-free chains, where the op chain is an identity
/// composition and therefore type-preserving by construction.
fn same_type<X: 'static, Y: 'static>(x: X) -> Option<Y> {
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
// Plans: the runtime state a pipeline execution builds, one stage at a time.
// ---------------------------------------------------------------------------

/// A *settled* plan: materialized device parts of element type `J` plus a
/// pending element-wise op chain `J -> I` that has not launched yet. Every
/// pipeline execution starts from one of these (the source
/// [`PipelineExpr::plan`] extends) and every stencil chain produces a fresh
/// one.
pub struct ElemPlan<J: Element, Op, I: Element> {
    geom: PlanGeom,
    parts: Vec<MatrixPart<J>>,
    halos_fresh: bool,
    /// The parts' owned rows, already read back when a chain launched for
    /// the host produced them.
    host: Option<Vec<J>>,
    op: Op,
    stages: Vec<FusedStage>,
    _pd: PhantomData<fn(J) -> I>,
}

/// A plan of bare parts: nothing pending on them.
pub type Bare<T> = ElemPlan<T, OpId<T>, T>;

/// Where a pipeline's result goes: it stays on the devices, or the host
/// reads it back as its last stencil chain produces it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    Devices,
    Host,
}

/// A plan that yields elements of type `I` when the pipeline runs. Each
/// stage of a pipeline extends the plan of the stages before it
/// (`PipelineExpr::plan`), and nothing launches until a terminal settles
/// the whole plan.
///
/// * `then(g, stage)` appends the element-wise stage `g`, which `stage`
///   describes: to a settled plan's pending op chain, or to the stages an
///   unlaunched stencil applies to each result it stores.
/// * `settle(dest)` resolves the plan: one ending in an unlaunched stencil
///   launches its run of stencils, the element-wise stages after it folded
///   into the kernel's writes, and returns bare parts; a pure element-wise
///   chain stays pending (it fuses into whichever kernel consumes it next).
/// * `launch_chain(chain, stages, dest)` launches `chain`, the stencil
///   stages after the plan (`stages` describing them), over the plan's
///   output: a stencil beneath joins the chain while their windows fit
///   local memory together, and the pending element-wise stages fuse into
///   the window's loads. `dest` is where the launched chain's result goes;
///   only the last chain of a pipeline can go to the host.
pub trait ReadPlan<I: Element>: Sized {
    /// The element type of the settled plan's parts.
    type Base: Element;
    /// The settled plan's pending op chain.
    type Op: PixelOp<Self::Base, I>;
    /// The plan with one more element-wise stage, `I -> V`.
    type Then<V: Element, G: PixelOp<I, V>>: ReadPlan<V>;

    fn then<V: Element, G: PixelOp<I, V>>(self, g: G, stage: FusedStage) -> Self::Then<V, G>;

    fn settle(self, dest: Dest) -> Result<ElemPlan<Self::Base, Self::Op, I>>;

    fn launch_chain<C: Chain<I>>(
        self,
        chain: C,
        stages: Vec<FusedStage>,
        dest: Dest,
    ) -> Result<Bare<C::Out>>;

    fn geom(&self) -> &PlanGeom;
}

impl<J, Op, I> ReadPlan<I> for ElemPlan<J, Op, I>
where
    J: Element,
    I: Element,
    Op: PixelOp<J, I>,
{
    type Base = J;
    type Op = Op;
    type Then<V: Element, G: PixelOp<I, V>> = ElemPlan<J, OpSeq<Op, G, I>, V>;

    fn then<V: Element, G: PixelOp<I, V>>(mut self, g: G, stage: FusedStage) -> Self::Then<V, G> {
        self.stages.push(stage);
        ElemPlan {
            geom: self.geom,
            parts: self.parts,
            halos_fresh: self.halos_fresh,
            host: self.host,
            op: OpSeq {
                a: self.op,
                b: g,
                _pd: PhantomData,
            },
            stages: self.stages,
            _pd: PhantomData,
        }
    }

    fn settle(self, _dest: Dest) -> Result<Self> {
        Ok(self)
    }

    /// Launch the chain: per part, one block launch whose work-groups load
    /// their windows through the pending chain, step every stencil in local
    /// memory and write their tiles. Owned rows only — halo rows of the
    /// output go stale exactly as for `Stencil2D`. For the host, the launch
    /// runs in bands whose rows are read back under the later bands
    /// ([`launch_for_host`]).
    fn launch_chain<C: Chain<I>>(
        self,
        chain: C,
        cstages: Vec<FusedStage>,
        dest: Dest,
    ) -> Result<Bare<C::Out>> {
        let ElemPlan {
            geom,
            parts,
            halos_fresh,
            op,
            mut stages,
            ..
        } = self;
        let ctx = geom.ctx.clone();
        let (rows, cols) = (geom.rows, geom.cols);
        let load_ops = stages.iter().map(|s| s.static_ops).sum();
        stages.extend(cstages);

        let mut span = ctx.span("pipeline.group");
        span.attr("kind", "stencil2d");
        span.attr("stages", codegen::fused_chain_name(&stages));
        span.attr("radius", chain.depth().to_string());
        span.attr("devices", ctx.n_devices().to_string());

        // Halo coherence before reading beyond owned rows (wrapped runs only
        // refresh under Wrap, as in Stencil2D::iterate).
        if !halos_fresh {
            let skip_wrapped = chain.boundary() != Boundary2D::Wrap;
            exchange_part_halos(&ctx, &parts, rows, cols, skip_wrapped)?;
        }
        let program = codegen::stencil2d_block_program(&stages, J::TYPE_NAME, <C::Out>::TYPE_NAME);
        let group = block_group(&ctx, rows, cols);
        let kernel = BlockKernel {
            compiled: ctx.get_or_build(&program)?,
            pre: op,
            load_ops,
            chain,
            n_rows: rows,
            group,
            tile: group,
            _pd: PhantomData,
        };
        let out_parts: Vec<MatrixPart<C::Out>> = alloc_matching_matrix_parts(&ctx, &parts)?;
        let host = match dest {
            Dest::Devices => {
                kernel.launch_parts(&ctx, &parts, &out_parts)?;
                None
            }
            Dest::Host => {
                let (host, bands) = launch_for_host(&kernel, &geom, &parts, &out_parts)?;
                span.attr("bands", bands.to_string());
                Some(host)
            }
        };
        ctx.metrics().counter("skelcl.pipeline.groups").inc();
        ctx.metrics()
            .counter("skelcl.pipeline.stages_fused")
            .add(stages.len() as u64);
        Ok(ElemPlan {
            geom,
            halos_fresh: stale_free(&out_parts),
            parts: out_parts,
            host,
            op: OpId::new(),
            stages: Vec::new(),
            _pd: PhantomData,
        })
    }

    fn geom(&self) -> &PlanGeom {
        &self.geom
    }
}

/// An unlaunched stencil stage over an inner plan, with the element-wise
/// stages after it (`post`, `I -> V`, described by `post_stages`) that its
/// launch applies to each result it stores: as the chain's `Last::post`
/// when it ends a chain, as its `Link::mid` when a stencil after it joins.
/// Settling the last stencil of a run launches the whole run as one chain:
/// each stencil beneath it joins while their windows fit local memory
/// together and load alike (a `Wrap` stage never shares a chain with a
/// non-`Wrap` one), otherwise the run splits there and each piece launches
/// on its own.
pub struct LazyStencil<P, E, Post, A: Element, I: Element, V: Element> {
    inner: P,
    round: Round<E>,
    stage: FusedStage,
    post: Post,
    post_stages: Vec<FusedStage>,
    _pd: PhantomData<fn(A) -> (I, V)>,
}

impl<P, E, A: Element, I: Element> LazyStencil<P, E, OpId<I>, A, I, I> {
    /// The stencil `eval` under `boundary` over `inner`'s output, `stage`
    /// describing it with its window.
    fn new(inner: P, eval: E, stage: FusedStage, boundary: Boundary2D) -> Self {
        LazyStencil {
            inner,
            round: Round {
                eval,
                radius: stage.radius,
                boundary,
                static_ops: stage.static_ops,
            },
            stage,
            post: OpId::new(),
            post_stages: Vec::new(),
            _pd: PhantomData,
        }
    }
}

impl<P, E, Post, A: Element, I: Element, V: Element> LazyStencil<P, E, Post, A, I, V> {
    /// The inner plan, this stencil's round (the element-wise stages after
    /// it fused into its cost), their op, and the stage list of the stencil
    /// and those stages.
    fn fused(self) -> (P, Round<E>, Post, Vec<FusedStage>) {
        let mut round = self.round;
        round.static_ops += self.post_stages.iter().map(|s| s.static_ops).sum::<u64>();
        let mut stages = vec![self.stage];
        stages.extend(self.post_stages);
        (self.inner, round, self.post, stages)
    }
}

impl<P, E, Post, A, I, V> ReadPlan<V> for LazyStencil<P, E, Post, A, I, V>
where
    P: ReadPlan<A>,
    A: Element,
    I: Element,
    V: Element,
    E: Fn(&Stencil2DView<'_, A>) -> I + Send + Sync + Clone + 'static,
    Post: PixelOp<I, V>,
{
    type Base = V;
    type Op = OpId<V>;
    type Then<W: Element, G: PixelOp<V, W>> = LazyStencil<P, E, OpSeq<Post, G, V>, A, I, W>;

    fn then<W: Element, G: PixelOp<V, W>>(mut self, g: G, stage: FusedStage) -> Self::Then<W, G> {
        self.post_stages.push(stage);
        LazyStencil {
            inner: self.inner,
            round: self.round,
            stage: self.stage,
            post: OpSeq {
                a: self.post,
                b: g,
                _pd: PhantomData,
            },
            post_stages: self.post_stages,
            _pd: PhantomData,
        }
    }

    fn settle(self, dest: Dest) -> Result<Bare<V>> {
        // Checked before anything beneath is enqueued, built or allocated.
        let geom = self.geom();
        let group = block_group(&geom.ctx, geom.rows, geom.cols);
        check_local_mem(&geom.ctx, window_bytes::<A>(group, self.round.radius))?;
        let (inner, round, post, stages) = self.fused();
        let last = Last {
            round,
            post,
            _pd: PhantomData,
        };
        inner.launch_chain(last, stages, dest)
    }

    fn launch_chain<C: Chain<V>>(
        self,
        chain: C,
        cstages: Vec<FusedStage>,
        dest: Dest,
    ) -> Result<Bare<C::Out>> {
        let geom = self.geom();
        let group = block_group(&geom.ctx, geom.rows, geom.cols);
        let depth = self.round.radius + chain.depth();
        let bytes = window_bytes::<A>(group, depth) + chain.window_bytes(group);
        let wraps = |b: Boundary2D| b == Boundary2D::Wrap;
        if wraps(self.round.boundary) != wraps(chain.boundary())
            || check_local_mem(&geom.ctx, bytes).is_err()
        {
            // The run splits here: this stencil ends a chain of its own, and
            // `chain` launches over its output.
            return self
                .settle(Dest::Devices)?
                .launch_chain(chain, cstages, dest);
        }
        let (inner, round, mid, mut stages) = self.fused();
        stages.extend(cstages);
        let link = Link {
            round,
            mid,
            next: chain,
            _pd: PhantomData,
        };
        inner.launch_chain(link, stages, dest)
    }

    fn geom(&self) -> &PlanGeom {
        self.inner.geom()
    }
}

// ---------------------------------------------------------------------------
// Fused launches.
// ---------------------------------------------------------------------------

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

/// Launch `kernel` over every part for a result the host reads. A part the
/// download reads launches in [`read_bands`] tile-aligned row bands: band 1
/// device-ordered, each later band behind it on the compute queue, and
/// each band's rows read on the copy queue after that band's launch alone,
/// straight into the returned host buffer, so every band but the last
/// reads under a later band's kernel. A part the download skips (a `Copy`
/// matrix's other copies) launches whole. The host waits for the last
/// read. Returns the buffer and the most bands a part ran.
fn launch_for_host<J, A, Pre, C>(
    kernel: &BlockKernel<J, A, Pre, C>,
    geom: &PlanGeom,
    parts: &[MatrixPart<J>],
    out: &[MatrixPart<C::Out>],
) -> Result<(Vec<C::Out>, usize)>
where
    J: Element,
    A: Element,
    Pre: PixelOp<J, A>,
    C: Chain<A>,
{
    let (ctx, cols, dist) = (&geom.ctx, geom.cols, geom.dist);
    let concurrent = host_parts(dist, out)?.len().max(1);
    let mut host = vec![C::Out::default(); geom.rows * cols];
    let (mut reads, mut most) = (Vec::new(), 0);
    for (pi, (ip, op)) in parts.iter().zip(out).enumerate() {
        let tiles = kernel.tiles(ip);
        if !dist.downloads_part(pi) {
            kernel.launch(ctx, pi, ip, op, &tiles, Order::Device)?;
            continue;
        }
        let bytes = op.rows * cols * std::mem::size_of::<C::Out>();
        let n = read_bands(ctx, bytes, concurrent, kernel.compiled.n_args, tiles.len());
        // Near-equal bands, the longer ones last: band 1's read starts as
        // early as it can.
        let mut first = 0;
        for (k, &(_, len)) in block_ranges(tiles.len(), n).iter().rev().enumerate() {
            let band = &tiles[first..first + len];
            first += len;
            let order = match k {
                0 => Order::Device,
                _ => Order::After(&[]),
            };
            let Some(launched) = kernel.launch(ctx, pi, ip, op, band, order)? else {
                continue;
            };
            let rows = (band[0].0 - ip.halo_above, band.iter().map(|t| t.1).sum());
            let read = HostRead {
                concurrent,
                blocking: false,
                order: Order::After(std::slice::from_ref(&launched)),
            };
            let queue = ctx.copy_queue(op.device);
            let done = read_part_rows(queue, op, rows, &mut host, cols, dist, read)?;
            reads.push(done);
        }
        most = most.max(n);
    }
    ctx.platform().wait_for_events(&reads);
    Ok((host, most))
}

/// How many row bands a part's launch for the host runs in, at most
/// `tiles`. With `n` bands, all but `1/n` of the part's read time `t` runs
/// under the kernel, and `n - 1` launches of cost `l` are added, so band
/// `n + 1` pays while `n(n + 1) < t/l`. The count is the first `n` where
/// it stops paying: a part whose half read cannot cover a launch
/// (`t/2 ≤ l`) runs as one band. `t` is the part's `bytes` at the bus
/// share of `concurrent` reads and `l` the launch cost of `n_args`
/// arguments, both the platform's own.
fn read_bands(
    ctx: &Context,
    bytes: usize,
    concurrent: usize,
    n_args: usize,
    tiles: usize,
) -> usize {
    let t = bytes as f64 / ctx.platform().topology().effective_bandwidth(concurrent);
    let l = ctx.profile().launch_cost_s(n_args);
    let mut n = 1;
    while n < tiles && ((n * (n + 1)) as f64) * l < t {
        n += 1;
    }
    n
}

impl<J, Op, I> ElemPlan<J, Op, I>
where
    J: Element,
    I: Element,
    Op: PixelOp<J, I>,
{
    /// The pipeline's output matrix: the pending element-wise chain
    /// materialized by one element-wise launch over **all** span rows per
    /// part (halo freshness passes through, as for `Map::apply_matrix`). A
    /// stage-free chain launches nothing — the output shares the input's
    /// device buffers, which skeletons never mutate, and is fresh on the
    /// host too when a chain launched for the host read its rows back.
    fn finish(self) -> Result<Matrix<I>> {
        let ElemPlan {
            geom,
            parts,
            halos_fresh,
            host,
            op,
            stages,
            ..
        } = self;
        let ctx = &geom.ctx;
        let (parts, host) = if stages.is_empty() {
            let parts =
                same_type(parts).expect("a stage-free pipeline chain preserves the element type");
            (parts, host.and_then(same_type))
        } else {
            let mut span = ctx.span("pipeline.group");
            span.attr("kind", "map2d");
            span.attr("stages", codegen::fused_chain_name(&stages));
            span.attr("devices", ctx.n_devices().to_string());

            let program = codegen::elementwise_program(&stages, J::TYPE_NAME, I::TYPE_NAME, 0);
            let kernel = ElementwiseKernel {
                compiled: ctx.get_or_build(&program)?,
                op,
                static_ops: stages.iter().map(|s| s.static_ops).sum(),
            };
            let out_parts = kernel.launch_parts(ctx, &parts)?;
            ctx.metrics().counter("skelcl.pipeline.groups").inc();
            ctx.metrics()
                .counter("skelcl.pipeline.stages_fused")
                .add(stages.len() as u64);
            (out_parts, None)
        };
        let dims = (geom.rows, geom.cols);
        Ok(Matrix::from_parts_and_host(
            ctx,
            dims,
            geom.dist,
            parts,
            halos_fresh,
            host,
        ))
    }

    /// Fold each row with `reduce` from `identity`, applying the pending
    /// chain to each element as it is folded: the
    /// [`ReduceRows`](crate::ReduceRows) fold over the plan's parts, through
    /// its distribution dispatch and launcher, so the result is
    /// bit-identical to materializing and then reducing.
    fn reduce_rows<F>(self, reduce: UserFn<F>, identity: I) -> Result<Vector<I>>
    where
        F: Fn(I, I) -> I + Send + Sync + Clone + 'static,
    {
        let ctx = self.geom.ctx.clone();
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

        let fold = Fold::new(Axis::Rows, reduce, identity, &self.stages, J::TYPE_NAME);
        let dims = (self.geom.rows, self.geom.cols);
        let out = fold.apply(&ctx, dims, self.geom.dist, self.op, || Ok(self.parts))?;
        ctx.metrics().counter("skelcl.pipeline.groups").inc();
        ctx.metrics()
            .counter("skelcl.pipeline.stages_fused")
            .add(self.stages.len() as u64 + 1);
        Ok(out)
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

    /// Append this chain's stage descriptors, each stencil stage with its
    /// window (fusion bookkeeping and input layout planning).
    #[doc(hidden)]
    fn describe(&self, out: &mut Vec<FusedStage>);

    /// The chain's plan over the source plan `src`: the stages before this
    /// one plan first, in evaluation order, and this stage extends their
    /// plan. Nothing launches here; a zip stage lays its operand out.
    #[doc(hidden)]
    fn plan(&self, src: Bare<T>) -> Result<impl ReadPlan<Self::Out>>;

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
        run_pipeline(self, input, |src| {
            self.plan(src)?.settle(Dest::Devices)?.finish()
        })
    }

    /// Execute the chain like [`PipelineExpr::run`] for a result the host
    /// reads: the matrix comes back fresh on the host and on the devices.
    /// The last stencil chain launches per part in tile-aligned row bands,
    /// and each band's rows are read back on the copy queue as soon as its
    /// launch ends, under the later bands' kernels, straight into the
    /// matrix's host copy. The band count comes from the part's rows and the
    /// platform's launch and transfer costs: more bands hide more of the
    /// read and add launches, and a part too small for half its read to
    /// cover a launch runs as one band. A pipeline without a stencil runs
    /// as `run`, then downloads like [`Matrix::to_vec`].
    fn run_to_host(&self, input: &Matrix<T>) -> Result<Matrix<Self::Out>> {
        let out = run_pipeline(self, input, |src| {
            self.plan(src)?.settle(Dest::Host)?.finish()
        })?;
        if !out.host_fresh() {
            out.host_view()?;
        }
        Ok(out)
    }

    /// Execute the chain and fold each row with `reduce` from `identity`
    /// through [`ReduceRows`](crate::ReduceRows)' fold (ascending columns,
    /// the same distribution dispatch), fusing the pending element-wise
    /// chain into the fold's reads: the whole map→…→reduce pipeline is one
    /// launch per part, and it leaves the input's distribution as it is.
    fn reduce_rows<F>(
        &self,
        input: &Matrix<T>,
        reduce: UserFn<F>,
        identity: Self::Out,
    ) -> Result<Vector<Self::Out>>
    where
        F: Fn(Self::Out, Self::Out) -> Self::Out + Send + Sync + Clone + 'static,
    {
        run_pipeline(self, input, |src| {
            self.plan(src)?
                .settle(Dest::Devices)?
                .reduce_rows(reduce, identity)
        })
    }
}

/// Plan the input layout, build the source plan and run it through `run`
/// inside the `pipeline.run` span, which records the groups launched.
/// Stencil chains follow `Stencil2D`'s layout rule at every stencil's
/// radius summed, so a warm input carries every halo row a chain reads,
/// and get coherent halos; element-wise chains, folded or not, take the
/// parts as they are.
fn run_pipeline<T: Element, E: PipelineExpr<T>, R>(
    expr: &E,
    input: &Matrix<T>,
    run: impl FnOnce(Bare<T>) -> Result<R>,
) -> Result<R> {
    let ctx = input.ctx().clone();
    let (rows, cols) = input.dims();
    let mut stages = Vec::new();
    expr.describe(&mut stages);
    let mut span = ctx.span("pipeline.run");
    span.attr("stages", stages.len().to_string());
    span.attr("shape", format!("{rows}x{cols}"));
    span.attr("distribution", format!("{:?}", input.distribution()));
    span.attr("devices", ctx.n_devices().to_string());

    let depth = stages.iter().map(|s| s.radius).sum();
    if stages.iter().any(|s| s.kind.starts_with("stencil")) {
        stencil_input_layout(input, depth)?;
    }
    let (parts, halos_fresh) = if depth > 0 {
        (input.parts_with_fresh_halos()?, true)
    } else {
        (input.parts()?, input.halos_fresh())
    };
    let groups = || {
        ctx.metrics()
            .counter_value("skelcl.pipeline.groups")
            .unwrap_or(0)
    };
    let before = groups();
    let out = run(ElemPlan {
        geom: PlanGeom {
            ctx: ctx.clone(),
            rows,
            cols,
            dist: input.distribution(),
        },
        parts,
        halos_fresh,
        host: None,
        op: OpId::new(),
        stages: Vec::new(),
        _pd: PhantomData,
    })?;
    span.attr("groups", (groups() - before).to_string());
    Ok(out)
}

impl<T: Element> PipelineExpr<T> for Start<T> {
    type Out = T;

    fn describe(&self, _out: &mut Vec<FusedStage>) {}

    fn plan(&self, src: Bare<T>) -> Result<impl ReadPlan<T>> {
        Ok(src)
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

    fn plan(&self, src: Bare<T>) -> Result<impl ReadPlan<V>> {
        let op = OpMap::new(self.user.func().clone());
        Ok(self.prev.plan(src)?.then(op, stage_of("map", &self.user)))
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

impl<P, B: Element, F, V> PipeZip<P, B, F, V> {
    /// The zip as one stage, reading operand elements of `B`.
    fn stage(&self) -> FusedStage {
        stage_of("zip", &self.user).with_operand(B::TYPE_NAME)
    }
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
        out.push(self.stage());
    }

    fn plan(&self, src: Bare<T>) -> Result<impl ReadPlan<V>> {
        let plan = self.prev.plan(src)?;
        let (dims, dist) = {
            let geom = plan.geom();
            ((geom.rows, geom.cols), geom.dist)
        };
        if self.other.dims() != dims {
            return Err(Error::ShapeMismatch {
                left: dims,
                right: self.other.dims(),
            });
        }
        // The operand adopts the pipeline's layout: partitioning is a
        // deterministic function of (distribution, dims, context), so its
        // parts then mirror the chain's part geometry index for index.
        if self.other.distribution() != dist {
            self.other.set_distribution(dist)?;
        }
        let parts = self.other.parts_with_fresh_halos()?;
        let op = OpZip::new(parts, self.user.func().clone());
        Ok(plan.then(op, self.stage()))
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

impl<P, F, V> PipeStencil<P, F, V> {
    /// The stencil as one stage over a window of `A`.
    fn stage<A: Element>(&self) -> FusedStage {
        let boundary = self.boundary.codegen_name();
        stage_of("stencil", &self.user).with_window(A::TYPE_NAME, self.radius, boundary)
    }
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
        out.push(self.stage::<P::Out>());
    }

    fn plan(&self, src: Bare<T>) -> Result<impl ReadPlan<V>> {
        let (eval, stage) = (self.user.func().clone(), self.stage::<P::Out>());
        let inner = self.prev.plan(src)?;
        Ok(LazyStencil::new(inner, eval, stage, self.boundary))
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
    /// The pair as one stencil stage over a window of `in_t` with result
    /// `out_t`: the three user sources, then the stencil the kernel calls,
    /// `combine(a(view), b(view))`.
    fn stage(&self, in_t: &'static str, out_t: &str) -> FusedStage {
        let (a, b, combine) = (self.a.name(), self.b.name(), self.combine.name());
        let name = format!("pair_{a}_{b}_{combine}");
        let pair = format!(
            "{out_t} {name}(__global {in_t}* in, int row, int col, uint n_rows, uint n_cols) {{ \
             return {combine}({a}(in, row, col, n_rows, n_cols), {b}(in, row, col, n_rows, n_cols)); }}"
        );
        FusedStage::new(
            "stencil_pair",
            name,
            format!(
                "{}\n{}\n{}\n{pair}",
                self.a.source(),
                self.b.source(),
                self.combine.source()
            ),
            self.a.static_ops() + self.b.static_ops() + self.combine.static_ops(),
        )
        .with_window(in_t, self.radius, self.boundary.codegen_name())
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
        out.push(self.stage(<P::Out>::TYPE_NAME, V::TYPE_NAME));
    }

    fn plan(&self, src: Bare<T>) -> Result<impl ReadPlan<V>> {
        let eval = pair_eval(
            self.a.func().clone(),
            self.b.func().clone(),
            self.combine.func().clone(),
        );
        let stage = self.stage(<P::Out>::TYPE_NAME, V::TYPE_NAME);
        let inner = self.prev.plan(src)?;
        Ok(LazyStencil::new(inner, eval, stage, self.boundary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::{cross_sum_at, ctx, host_cross_sum, host_stencil};
    use crate::vector::Distribution;
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
            |v: &Stencil2DView<'_, f32>| cross_sum_at(|dr, dc| v.get(dr, dc)),
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
                assert_eq!(
                    bits(&fused.to_vec().unwrap()),
                    bits(&host_cross_sum(&m.to_vec().unwrap(), m.dims(), boundary, 1)),
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

        let (scale, square) = (scale_fn(), square_fn());
        let scaled: Vec<f32> = m.to_vec().unwrap().into_iter().map(scale.func()).collect();
        let crossed = host_cross_sum(&scaled, m.dims(), Boundary2D::Neumann, 1);
        let host: Vec<f32> = crossed.into_iter().map(square.func()).collect();
        assert_eq!(bits(&fused.to_vec().unwrap()), bits(&host));
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
    fn a_col_block_fold_chains_its_partials_and_keeps_the_input_layout() {
        let c = ctx(4);
        let (rows, cols) = (16, 24);
        let m = test_matrix(&c, rows, cols, 16);
        m.set_distribution(MatrixDistribution::ColBlock).unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let fused = Pipeline::start::<f32>()
            .map(square_fn())
            .reduce_rows(&m, add_fn(), 0.0)
            .unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // One partials hop per part boundary, a download and an upload.
        let hops = (3, 3 * (rows * 4) as u64);
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), hops);
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), hops);
        assert_eq!((delta.d2d_transfers, delta.d2d_bytes), (0, 0));
        assert_eq!(m.distribution(), MatrixDistribution::ColBlock);

        let mapped = Map::new(square_fn()).apply_matrix(&m).unwrap();
        let unfused = ReduceRows::new(add_fn(), 0.0).apply(&mapped).unwrap();
        assert_eq!(
            bits(&fused.to_vec().unwrap()),
            bits(&unfused.to_vec().unwrap())
        );
    }

    #[test]
    fn a_stage_free_fold_runs_the_program_reduce_rows_built() {
        let c = ctx(2);
        let m = test_matrix(&c, 12, 7, 17);
        ReduceRows::new(add_fn(), 0.0).apply(&m).unwrap();
        let misses = c.program_cache_misses();
        Pipeline::start::<f32>()
            .reduce_rows(&m, add_fn(), 0.0)
            .unwrap();
        assert_eq!(c.program_cache_misses(), misses, "no registry miss");
    }

    #[test]
    fn the_run_span_counts_every_group_the_fold_launches() {
        let c = ctx(2);
        c.enable_spans();
        let m = test_matrix(&c, 16, 9, 18);
        let groups = || {
            c.metrics()
                .counter_value("skelcl.pipeline.groups")
                .unwrap_or(0)
        };
        let before = groups();
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .reduce_rows(&m, add_fn(), 0.0)
            .unwrap();
        let launched = (groups() - before).to_string();
        let run = c
            .take_spans()
            .into_iter()
            .find(|s| s.name == "pipeline.run")
            .expect("the pipeline opens its run span");
        assert!(run.attrs.contains(&("groups", launched)), "{:?}", run.attrs);
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
            let add = add_fn();
            let host = host_stencil(&m.to_vec().unwrap(), m.dims(), Boundary2D::Zero, |at| {
                (add.func())(at(0, -1), at(0, 1))
            });
            assert_eq!(
                bits(&fused.to_vec().unwrap()),
                bits(&host),
                "{devices} devices"
            );
        }
    }

    #[test]
    fn chained_stencil_groups_count_their_halo_exchange_like_chained_applies() {
        // A warm input already carries both stencils' halo rows: the chain
        // is one launch per part and exchanges nothing, where two chained
        // applies exchange the intermediate's halos between them.
        let ctx = ctx(2);
        let m = test_matrix(&ctx, 16, 9, 11);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let (before, stats) = (ctx.halo_exchange_count(), ctx.platform().stats_snapshot());
        let fused = Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .run(&m)
            .unwrap();
        let delta = ctx.platform().stats_snapshot() - stats;
        assert_eq!(
            ctx.halo_exchange_count() - before,
            0,
            "no exchange in the chain"
        );
        assert_eq!((delta.kernel_launches, delta.d2d_transfers), (2, 0));

        let before = ctx.halo_exchange_count();
        let st = Stencil2D::new(cross_user(), 1, Boundary2D::Neumann);
        st.apply(&st.apply(&m).unwrap()).unwrap();
        assert_eq!(ctx.halo_exchange_count() - before, 1);
        let twice = host_cross_sum(&m.to_vec().unwrap(), m.dims(), Boundary2D::Neumann, 2);
        assert_eq!(bits(&fused.to_vec().unwrap()), bits(&twice));
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
    fn a_chain_whose_windows_cannot_fit_together_splits_between_its_pieces() {
        // 16×4 work-groups on the tiny device's 4 KiB: radius 4 then 3 and
        // 3 need windows 10, 6 and 3 cells deep (3456 + 1792 + 880 bytes),
        // so the first stencil splits off (1152 bytes alone) and the other
        // two share a chain (2672 bytes).
        let c = ctx(2);
        let (rows, cols) = (40, 24);
        let m = test_matrix(&c, rows, cols, 19);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 10 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let column_at =
            |r: isize, at: &dyn Fn(isize, isize) -> f32| 0.3 * (at(-r, 0) + at(r, 0)) + at(0, 1);
        let users = [4usize, 3, 3].map(|r| {
            let r = r as isize;
            UserFn::new(
                "column",
                "float column(__global float* in, int r, int c, uint nr, uint nc) { /* rows +-r */ }",
                move |v: &Stencil2DView<'_, f32>| column_at(r, &|dr, dc| v.get(dr, dc)),
            )
        });
        let [a, b, d] = users;
        let groups = |c: &Context| {
            c.metrics()
                .counter_value("skelcl.pipeline.groups")
                .unwrap_or(0)
        };
        let (g0, x0, stats) = (
            groups(&c),
            c.halo_exchange_count(),
            c.platform().stats_snapshot(),
        );
        let fused = Pipeline::start::<f32>()
            .stencil(a, 4, Boundary2D::Neumann)
            .stencil(b, 3, Boundary2D::Neumann)
            .stencil(d, 3, Boundary2D::Zero)
            .run(&m)
            .unwrap();
        let delta = c.platform().stats_snapshot() - stats;
        assert_eq!(groups(&c) - g0, 2, "two pieces");
        assert_eq!(
            delta.kernel_launches,
            2 * 2,
            "one launch per part and piece"
        );
        assert_eq!(
            c.halo_exchange_count() - x0,
            1,
            "one exchange, between the pieces"
        );

        let stages = [
            (4, Boundary2D::Neumann),
            (3, Boundary2D::Neumann),
            (3, Boundary2D::Zero),
        ];
        let host = stages
            .iter()
            .fold(m.to_vec().unwrap(), |cur, &(r, boundary)| {
                host_stencil(&cur, (rows, cols), boundary, |at| column_at(r, at))
            });
        assert_eq!(bits(&fused.to_vec().unwrap()), bits(&host));
    }

    #[test]
    fn a_chain_for_the_host_reads_each_band_under_the_later_bands() {
        // Two devices, 320 rows × 720 floats each: a part's read (about
        // 177 µs) covers the 29 µs launch six times over, so the chain runs
        // in three bands per part.
        let c = ctx(2);
        let (rows, cols) = (640, 720);
        let m = test_matrix(&c, rows, cols, 20);
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let expr = Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .map(square_fn());
        let want = expr.run(&m).unwrap().to_vec().unwrap();

        c.enable_spans();
        c.platform().enable_timeline_trace();
        let out = expr.run_to_host(&m).unwrap();
        let trace = c.platform().take_timeline_trace();
        assert!(out.host_fresh() && out.device_fresh());
        assert_eq!(bits(&out.to_vec().unwrap()), bits(&want));
        let group = c
            .take_spans()
            .into_iter()
            .find(|s| s.name == "pipeline.group")
            .expect("the chain opens its group span");
        assert!(
            group.attrs.contains(&("bands", "3".to_string())),
            "{:?}",
            group.attrs
        );

        let mut last_read: f64 = 0.0;
        for dev in [vgpu::DeviceId(0), vgpu::DeviceId(1)] {
            let on = |kind| {
                trace
                    .iter()
                    .filter(|r| r.device == dev && r.kind == kind)
                    .collect::<Vec<_>>()
            };
            let (launches, reads) = (on(vgpu::CmdKind::Kernel), on(vgpu::CmdKind::D2H));
            assert_eq!((launches.len(), reads.len()), (3, 3), "{dev:?}");
            assert!(launches[0].serializing && !launches[1].serializing);
            for (launch, read) in launches.iter().zip(&reads) {
                assert_eq!(read.deps, vec![launch.seq], "{dev:?}");
            }
            assert!(
                reads[0].start_s < launches[2].end_s,
                "{dev:?}: band 1's read starts under band 3's launch"
            );
            last_read = reads.iter().map(|r| r.end_s).fold(last_read, f64::max);
        }
        let overlap: f64 = vgpu::compute_copy_overlap_s(&trace)
            .iter()
            .map(|&(_, s)| s)
            .sum();
        assert!(overlap > 0.0);
        assert_eq!(
            c.host_now_s(),
            last_read,
            "the host waits for the last read"
        );
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
