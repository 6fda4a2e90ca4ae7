//! The Stencil2D skeleton: a 2D stencil over [`Matrix`] with automatic
//! inter-device halo exchange.
//!
//! This is the skeleton behind SkelCL's image-processing benchmarks
//! (Gaussian blur, Sobel, Canny), and SkelCL's 1-D `MapOverlap` is its
//! N×1 instance: a 1-D stencil is a `Stencil2D` over an N×1 [`Matrix`]
//! (`MapOverlap`'s clamp boundary is `Neumann`, a zero-neutral one is
//! `Zero`). Each output element is computed from its input element and the
//! `radius`-neighbourhood around it. Under a
//! [`MatrixDistribution::RowBlock`] distribution the neighbourhood crosses
//! device boundaries; the halo rows the distribution maintains (refreshed
//! by an automatic [`Matrix::halo_exchange`] when stale) provide them
//! without gathering the whole matrix anywhere.
//!
//! Out-of-matrix accesses follow the [`Boundary2D`] mode: `Neumann`
//! replicates the edge element (zero-gradient), `Wrap` treats the matrix as
//! a torus, `Zero` reads the element type's default.
//!
//! One launcher runs every stencil: the block kernel, from one generator
//! ([`codegen::stencil2d_block_program`]). Each work-group loads its
//! tile's window into local memory once (one counted global read per cell
//! inside the matrix, with a pipeline chain's fused element-wise stages
//! applied as the cell loads), resolving the boundary as the window loads,
//! so the user function's [`Stencil2DView`] reads every tap from the
//! window. It then steps its rounds there and writes its tile once.
//! [`Stencil2D::apply`] steps one round; a [`Stencil2D::iterate`] block
//! steps one stencil several times between two windows; a
//! [`Pipeline`](crate::Pipeline) chain steps each of its stencils once,
//! each into a window of its own type. A same-type stencil's `apply` and
//! `iterate` share one program ([`Stencil2D::program`]).
//!
//! A work-group's lanes form the `lx × ly` lane grid of the context's
//! work-group size (16×16 by default), and its tile is a whole multiple of
//! that grid, lane `(x, y)` writing the tile cells `(x + i·lx, y + j·ly)`.
//! `apply`, a pipeline chain and `iterate`'s first round step a tile of the
//! lane grid's own shape; a block of two or more rounds steps the tile its
//! plan picks, wider tiles recomputing fewer ring cells per owned cell.

use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::Result;
use crate::matrix::{
    alloc_parts, block_ranges, exchange_part_halos_overlapped, Matrix, MatrixDistribution,
    MatrixPart, PartExchange,
};
use crate::meter;
use crate::skeletons::pipeline::{stage_of, OpId, PixelOp};
use crate::skeletons::{alloc_matching_matrix_parts, range_2d};
use crate::trace::SpanGuard;
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::timing::{kernel_duration_s, KernelCost, BARRIER_CYCLES, WARP_SIZE};
use vgpu::{
    Buffer, CompiledKernel, Event, Item, KernelBody, LocalBuf, Order, Program, Scalar as Element,
    WorkGroup,
};

/// What out-of-matrix neighbourhood positions read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary2D {
    /// Replicate the nearest edge element (zero-gradient boundary).
    Neumann,
    /// Wrap around: the matrix is a torus.
    Wrap,
    /// Read the element type's default value.
    Zero,
}

impl Boundary2D {
    /// The spelling used in generated program names (part of the kernel
    /// cache key — each boundary mode emits different index arithmetic).
    pub fn codegen_name(self) -> &'static str {
        match self {
            Boundary2D::Neumann => "neumann",
            Boundary2D::Wrap => "wrap",
            Boundary2D::Zero => "zero",
        }
    }
}

/// The customizing function's view of one stencil application: counted
/// access to the `[-radius, +radius]²` neighbourhood of its element, read
/// from the work-group's local-memory window, which already holds every
/// neighbour with its boundary resolved. In a
/// [`Pipeline`](crate::Pipeline) stencil stage a read returns the value of
/// the element-wise stages fused before it at that position, computed once
/// per cell as the window loads.
pub struct Stencil2DView<'a, T: Element> {
    win: &'a LocalBuf<T>,
    /// The centre's index in `win`.
    centre: usize,
    /// `win`'s row length.
    stride: usize,
    /// Matrix `(rows, cols)`.
    dims: (usize, usize),
    /// The centre's global `(row, col)`.
    pos: (usize, usize),
    radius: usize,
}

impl<'a, T: Element> Stencil2DView<'a, T> {
    /// The neighbour at `(row + dr, col + dc)`; `(0, 0)` is the element
    /// itself. Panics if `|dr|` or `|dc|` exceeds the stencil radius,
    /// mirroring SkelCL's out-of-range checks.
    #[inline]
    pub fn get(&self, dr: isize, dc: isize) -> T {
        assert!(
            dr.unsigned_abs() <= self.radius && dc.unsigned_abs() <= self.radius,
            "stencil access ({dr}, {dc}) exceeds radius {}",
            self.radius
        );
        let at = self.centre as isize + dr * self.stride as isize + dc;
        self.win.get(at as usize)
    }

    /// The centre's global position `(row, col)`.
    pub fn position(&self) -> (usize, usize) {
        self.pos
    }

    /// The matrix dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        self.dims
    }

    pub fn radius(&self) -> usize {
        self.radius
    }
}

/// The Stencil2D skeleton.
pub struct Stencil2D<T: Element, U: Element, F> {
    user: UserFn<F>,
    radius: usize,
    boundary: Boundary2D,
    program: Program,
    _pd: PhantomData<fn(T) -> U>,
}

impl<T, U, F> Stencil2D<T, U, F>
where
    T: Element,
    U: Element,
    F: Fn(&Stencil2DView<'_, T>) -> U + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, radius: usize, boundary: Boundary2D) -> Self {
        let stage =
            stage_of("stencil", &user).with_window(T::TYPE_NAME, radius, boundary.codegen_name());
        let program = codegen::stencil2d_block_program(&[stage], T::TYPE_NAME, U::TYPE_NAME);
        Stencil2D {
            user,
            radius,
            boundary,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated block program every launch of this stencil runs
    /// ([`codegen::stencil2d_block_program`] of its one stage), which a
    /// one-stage [`Pipeline`](crate::Pipeline) stencil over the same
    /// function shares. For a same-type stencil its round count and tile
    /// are one kernel argument, so [`Stencil2D::apply`] and every block of
    /// [`Stencil2D::iterate`] run this one program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn radius(&self) -> usize {
        self.radius
    }

    pub fn boundary(&self) -> Boundary2D {
        self.boundary
    }

    /// Open an entry-point span with the attributes every stencil call
    /// records.
    fn span(&self, name: &'static str, input: &Matrix<T>) -> SpanGuard {
        let mut span = input.call_span(name);
        span.attr("radius", self.radius.to_string());
        span
    }

    /// The stencil as one chain stage.
    fn round(&self) -> Round<F> {
        Round {
            eval: self.user.func().clone(),
            radius: self.radius,
            boundary: self.boundary,
            static_ops: self.user.static_ops(),
        }
    }

    /// Apply the skeleton: per part, one launch of the block kernel in
    /// which every work-group loads its tile's window, `radius` cells
    /// deeper on every side, into local memory once and computes its tile
    /// from there. Under `RowBlock` the input's halo is widened to the
    /// stencil radius if needed and stale halo rows are refreshed by an
    /// automatic exchange, which moves only the halo rows through the
    /// host; the matrix stays on the devices (lazy copying).
    ///
    /// The window must fit local memory: a stencil whose `(lx + 2·radius) ×
    /// (ly + 2·radius)` window of `T` exceeds the smallest device's local
    /// memory fails with [`vgpu::Error::LocalMemExceeded`] before anything
    /// is uploaded, built or launched. For `f32` with 16×16 work-groups on
    /// the default 16 KiB devices, radius 24 is the widest that fits.
    pub fn apply(&self, input: &Matrix<T>) -> Result<Matrix<U>> {
        let ctx = input.ctx().clone();
        let _span = self.span("stencil2d.apply", input);
        let (n_rows, cols) = input.dims();
        // The one-stage chain a one-stage pipeline stencil launches, its
        // window checked against local memory before the program is built.
        let group = block_group(&ctx, n_rows, cols);
        check_local_mem(&ctx, window_bytes::<T>(group, self.radius))?;
        let kernel = BlockKernel {
            compiled: ctx.get_or_build(&self.program)?,
            pre: OpId::<T>::new(),
            load_ops: 0,
            chain: Last {
                round: self.round(),
                post: OpId::<U>::new(),
                _pd: PhantomData,
            },
            n_rows,
            group,
            tile: group,
            _pd: PhantomData,
        };
        stencil_input_layout(input, self.radius)?;
        let in_parts = input.parts_with_fresh_halos()?;

        // Output parts mirror the input geometry. Stencils can only write
        // their owned rows (halo outputs would need radius-beyond-halo
        // inputs), so output halos are stale unless there are none.
        let out_parts = alloc_matching_matrix_parts::<T, U>(&ctx, &in_parts)?;
        kernel.launch_parts(&ctx, &in_parts, &out_parts)?;

        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            input.distribution(),
            out_parts,
            stale_free(&in_parts),
        ))
    }
}

/// The most rounds one block of [`Stencil2D::iterate`] steps where no halo
/// copies arrive (`Single`, `Copy`, and a lone part under `Neumann` or
/// `Zero`): such a block is one launch per part, so a longer one saves
/// only launches while every round recomputes a wider ring of cells per
/// tile. The cost plan alone would run `skelbench`'s `serve_burst` homed
/// 256² Jacobi jobs as one 9-round block: 5.5% less modeled time, but
/// `setup_s` on the simulator's host clock 109 → 144 ms (+32%, medians of
/// six alternating 15 s runs on 2 vCPUs; the ring cells are simulated on
/// the host),
/// over that metric's 25% bound. Blocks that receive copies are capped
/// only by the thinnest part and local memory.
const BLOCK_ROUNDS: usize = 4;

impl<T, F> Stencil2D<T, T, F>
where
    T: Element,
    F: Fn(&Stencil2DView<'_, T>) -> T + Send + Sync + Clone + 'static,
{
    /// Apply the stencil `n` times, feeding each pass's output to the next
    /// — the iterative form behind heat relaxation, Jacobi sweeps and
    /// game-of-life (bit-identical to `n` chained [`Stencil2D::apply`]
    /// calls, for every boundary mode and device count; only the modeled
    /// timeline and traffic differ).
    ///
    /// Unlike the chain, the whole iteration stays inside two
    /// device-resident part sets that ping-pong roles between blocks of
    /// rounds:
    ///
    /// * **no intermediate matrices** — two buffers per device total,
    ///   instead of one fresh allocation per pass;
    /// * **one batched halo exchange per block of rounds** — issued
    ///   directly on the part buffers, without re-synchronising the host
    ///   in between, and (under `Neumann`/`Zero` boundaries) without the
    ///   wrapped matrix-edge rows only `Wrap` ever reads;
    /// * **one launch per block, stepping its rounds in local memory** —
    ///   global memory is read and written once per block, not once per
    ///   round;
    /// * **one cached program for every block** — [`Stencil2D::program`]
    ///   takes the round count and the tile as a kernel argument, so
    ///   `iterate(x, 1)` (or `apply`) builds the program every later block
    ///   length, tile and part shape runs.
    ///
    /// `iterate(input, 0)` is the identity: it returns a handle to `input`.
    ///
    /// ## Fused, overlapped blocks
    ///
    /// Round 1 is a one-round block over the input's own parts, exchanging
    /// their halos first if they are stale. The other `n − 1` rounds run in
    /// `m` near-equal blocks, longest first (`n = 10` with `m = 3` runs as
    /// 3 + 3 + 3):
    ///
    /// * A block of `L` rounds first exchanges `L·radius` halo rows on the
    ///   **copy streams**: each part's rows another part needs are
    ///   downloaded once and uploaded into each halo that holds them.
    /// * Every work-group of its launch loads the window of its tile,
    ///   `L·radius` cells deeper on each side, into local memory: one
    ///   global read per cell inside the matrix. It steps the `L` rounds
    ///   between two windows, with a barrier per round, each round
    ///   computing a region `radius` cells narrower on every side, and
    ///   writes its tile once. A work-group runs the `lx × ly` lane grid of
    ///   the context's work-group size; a block of two or more rounds may
    ///   step a tile that is a whole multiple of it (`32×16` for `16×16`
    ///   lanes), which recomputes fewer ring cells per owned cell. Round 1
    ///   and one-round blocks step the lane grid. Window cells outside the
    ///   matrix are refreshed every round: `Neumann` copies the clamp
    ///   target and `Zero` keeps the default. `Wrap` loads rows through the
    ///   part's span (modulo the height beyond it) and columns modulo the
    ///   width.
    /// * A block is **one launch per part**. Only where copies are
    ///   incoming does it split in two: the **interior** tiles, whose
    ///   windows read no halo row, run underneath the exchange, and the
    ///   **edge** tiles wait for the incoming copies.
    ///
    /// The library picks `m` and the tile together from the platform's own
    /// costs, before anything is enqueued. A block may step as many rounds
    /// as keep an `L·radius`-row halo within the thinnest part and the two
    /// windows of its tile within the devices' local memory; where no halo
    /// copies arrive (`Single`, `Copy`, a lone part under `Neumann` or
    /// `Zero`) it steps four at most. Of the tiles whose windows fit at two
    /// rounds and the counts their lengths allow, the plan runs the pair
    /// whose blocks it prices cheapest, ties going to the tile of fewer
    /// cells, then to shorter blocks. A block's price adds its launches,
    /// its kernel (longer blocks recompute a wider ring of cells per tile,
    /// wider tiles a narrower one per owned cell) and, where copies arrive,
    /// the part of the exchange its interior tiles do not hide. A stencil
    /// whose one-round windows do not fit fails with
    /// [`vgpu::Error::LocalMemExceeded`] before anything is enqueued.
    ///
    /// Under `RowBlock` the result is laid out `RowBlock { halo: L·radius
    /// }`, with `L` the longest block's rounds, and its halo rows are
    /// stale: the next stencil over it exchanges them. The
    /// `stencil2d.iterate` span records the plan as `blocks`,
    /// `block_rounds` (`L`) and `tile` (the tile the longest block steps,
    /// `width x height`, for example `32x16`).
    pub fn iterate(&self, input: &Matrix<T>, n: usize) -> Result<Matrix<T>> {
        self.iterate_blocked(input, n, BlockPlan::cheapest)
    }

    /// The fused schedule of [`Stencil2D::iterate`]: `count(plan, rest)`
    /// names a tile of `plan.tiles` and how many near-equal blocks, longest
    /// first, the `rest = n − 1` rounds after round 1 run in. No block may
    /// be longer than the tile's cap; blocks of one round step the lane
    /// grid.
    fn iterate_blocked(
        &self,
        input: &Matrix<T>,
        n: usize,
        count: impl FnOnce(&BlockPlan, usize) -> ((usize, usize), usize),
    ) -> Result<Matrix<T>> {
        if n == 0 {
            return Ok(input.clone());
        }
        let ctx = input.ctx().clone();
        let (n_rows, cols) = input.dims();
        let mut span = self.span("stencil2d.iterate", input);
        span.attr("iterations", n.to_string());
        let radius = self.radius;
        // Checked and planned before anything is enqueued or built.
        let group = block_group(&ctx, n_rows, cols);
        check_local_mem(&ctx, 2 * window_bytes::<T>(group, radius))?;
        let dist = stencil_layout(input.distribution(), radius);
        let round = self.round();
        let n_args = self.program.n_args;
        let (tile, blocks) = match n - 1 {
            0 => (group, Vec::new()),
            rest => {
                let plan = BlockPlan::new::<T, _>(&ctx, dist, (n_rows, cols), &round, n_args);
                let (tile, count) = count(&plan, rest);
                let lens = block_ranges(rest, count).into_iter().map(|(_, len)| len);
                (tile, lens.collect())
            }
        };
        let depth = blocks.first().copied().unwrap_or(1);
        // Blocks of one round step the lane grid.
        let tile_of = |len: usize| if len > 1 { tile } else { group };
        span.attr("blocks", blocks.len().to_string());
        span.attr("block_rounds", depth.to_string());
        let (tw, th) = tile_of(depth);
        span.attr("tile", format!("{tw}x{th}"));
        let mut kernel = BlockKernel {
            compiled: ctx.get_or_build(&self.program)?,
            pre: OpId::new(),
            load_ops: 0,
            chain: Repeat {
                round,
                rounds: 1,
                _pd: PhantomData,
            },
            n_rows,
            group,
            tile: group,
            _pd: PhantomData,
        };
        stencil_input_layout(input, radius)?;
        let in_parts = input.parts_with_fresh_halos()?;
        let dist = match dist {
            MatrixDistribution::RowBlock { .. } => MatrixDistribution::RowBlock {
                halo: depth * radius,
            },
            other => other,
        };
        // The two ping-pong part sets; one round needs only the first.
        // Round 1 writes set 0 and the blocks alternate after it, so the
        // result ends in set `blocks.len() % 2`, which is allocated first.
        let alloc = || alloc_parts::<T>(&ctx, dist, n_rows, cols);
        let result = blocks.len() % 2;
        let mut sets = [Vec::new(), Vec::new()];
        sets[result] = alloc()?;
        if n > 1 {
            sets[1 - result] = alloc()?;
        }
        let skip_wrapped = self.boundary != Boundary2D::Wrap;

        // Per device: the last launch, which the next exchange waits for.
        // Round 1 waits for a marker joining everything already scheduled
        // on the device (the input's upload or exchange).
        let mut producers: Vec<Vec<Event>> = (0..ctx.n_devices())
            .map(|d| vec![ctx.queue(d).enqueue_marker()])
            .collect();
        for (pi, (ip, op)) in in_parts.iter().zip(&sets[0]).enumerate() {
            let order = Order::After(&producers[ip.device]);
            if let Some(ev) = kernel.launch(&ctx, pi, ip, op, &kernel.tiles(ip), order)? {
                producers[ip.device] = vec![ev];
            }
        }

        // Per part: the previous exchange's copies out of the set the next
        // block writes. The block overwrites the rows they read.
        let mut outgoing: Vec<Vec<Event>> = vec![Vec::new(); in_parts.len()];
        for (b, &len) in blocks.iter().enumerate() {
            kernel.chain.rounds = len;
            kernel.tile = tile_of(len);
            let (src, dst) = (&sets[b % 2], &sets[(b + 1) % 2]);
            // Refresh the halos the whole block reads.
            let exchange = if stale_free(src) {
                vec![PartExchange::default(); src.len()]
            } else {
                exchange_part_halos_overlapped(
                    &ctx,
                    src,
                    n_rows,
                    cols,
                    skip_wrapped,
                    len * radius,
                    &producers,
                )?
            };
            for (pi, (ip, op)) in src.iter().zip(dst).enumerate() {
                let incoming = &exchange[pi].incoming;
                let tiles = kernel.tiles(ip);
                let after_readers = Order::After(&outgoing[pi]);
                let produced = if incoming.is_empty() {
                    kernel.launch(&ctx, pi, ip, op, &tiles, after_readers)?
                } else {
                    // Interior tiles first: they read no halo row, so the
                    // in-order queue starts them while the exchange still
                    // runs. Then the edge tiles, after the incoming copies.
                    let (interior, edge): (Vec<_>, Vec<_>) = tiles
                        .into_iter()
                        .partition(|&tile| !kernel.reads_halo(ip, tile));
                    let first = kernel.launch(&ctx, pi, ip, op, &interior, after_readers)?;
                    let deps = [&incoming[..], &outgoing[pi][..]].concat();
                    let edges = kernel.launch(&ctx, pi, ip, op, &edge, Order::After(&deps))?;
                    edges.or(first)
                };
                if let Some(ev) = produced {
                    producers[ip.device] = vec![ev];
                }
            }
            outgoing = exchange.into_iter().map(|e| e.outgoing).collect();
        }

        let out = std::mem::take(&mut sets[result]);
        let halos_fresh = stale_free(&out);
        Ok(Matrix::from_device_parts(
            &ctx,
            n_rows,
            cols,
            dist,
            out,
            halos_fresh,
        ))
    }
}

/// Elements of one block window: a `(width, height)` tile, `halo` cells
/// deeper on every side.
fn window_len((tw, th): (usize, usize), halo: usize) -> usize {
    (tw + 2 * halo) * (th + 2 * halo)
}

/// Bytes of one block window of `T` around a `(width, height)` tile, for a
/// chain `depth` cells deep.
pub(crate) fn window_bytes<T: Element>(tile: (usize, usize), depth: usize) -> usize {
    window_len(tile, depth) * std::mem::size_of::<T>()
}

/// The work-group shape `(lx, ly)` every block launch over a `rows × cols`
/// matrix runs.
pub(crate) fn block_group(ctx: &Context, rows: usize, cols: usize) -> (usize, usize) {
    let [lx, ly] = range_2d(ctx, cols, rows).local;
    (lx, ly)
}

/// Fail with [`vgpu::Error::LocalMemExceeded`] unless `bytes` of windows
/// fit every device's local memory.
pub(crate) fn check_local_mem(ctx: &Context, bytes: usize) -> Result<()> {
    let limit = (0..ctx.n_devices())
        .map(|d| ctx.device(d).spec().local_mem_bytes)
        .min()
        .unwrap_or(0);
    if bytes > limit {
        return Err(vgpu::Error::LocalMemExceeded {
            requested: bytes,
            limit,
        }
        .into());
    }
    Ok(())
}

/// How [`Stencil2D::iterate`] splits the rounds after round 1 into blocks,
/// fixed before anything is enqueued from the layout the input takes and
/// the platform's own constants (never a modeled clock): the tiles a block
/// may step, the longest block each allows, and what a block of `L` rounds
/// costs on each.
struct BlockPlan {
    ctx: Context,
    /// Every tile a block of two or more rounds may step, `(width,
    /// height)`, with the longest block it allows: the lane grid, then the
    /// whole multiples of it no wider than the matrix and no taller than
    /// its thickest part whose two windows fit local memory at two rounds,
    /// fewest cells first (then narrowest).
    tiles: Vec<((usize, usize), usize)>,
    /// `(first row, rows)` of every non-empty part.
    parts: Vec<(usize, usize)>,
    /// Whether halo copies arrive, so every block splits into an interior
    /// and an edge launch: a `RowBlock` over two or more non-empty parts,
    /// or a lone part under `Wrap`.
    exchanging: bool,
    /// Matrix `(rows, cols)`.
    dims: (usize, usize),
    /// The lane grid every launch runs, and the tile of one-round blocks.
    group: (usize, usize),
    radius: usize,
    wrap: bool,
    /// Whether windows refresh their cells outside the matrix.
    neumann: bool,
    static_ops: u64,
    /// Bytes per element.
    elem: usize,
    /// The launch cost of the block program's arguments.
    launch_s: f64,
}

/// One tile's extent along a dimension, for [`BlockPlan::launches_s`].
#[derive(PartialEq)]
struct Extent {
    len: usize,
    /// The window lines a tile loads: those inside the matrix.
    loaded: usize,
    /// Whether the window reaches past the matrix edge.
    outside: bool,
}

/// Tiles a launch prices alike: their `(cols, rows)`, how many window
/// cells they load, and whether their windows refresh cells outside the
/// matrix (under `Neumann`), behind a barrier each.
#[derive(PartialEq)]
struct TileClass {
    dims: (usize, usize),
    loads: usize,
    refresh: bool,
}

impl BlockPlan {
    /// The plan of one stencil stage `round` over a matrix of `dims` laid
    /// out as `dist`, launched through a block program of `n_args`
    /// arguments. Blocks that receive halo copies are capped by the
    /// thinnest part and by local memory alone; the others also at
    /// [`BLOCK_ROUNDS`]. The thinnest part bounds every cap before any
    /// window size is computed, so no window size overflows.
    fn new<T: Element, E>(
        ctx: &Context,
        dist: MatrixDistribution,
        dims: (usize, usize),
        round: &Round<E>,
        n_args: usize,
    ) -> BlockPlan {
        let ((n_rows, cols), radius) = (dims, round.radius);
        let wrap = round.boundary == Boundary2D::Wrap;
        let row_block = matches!(dist, MatrixDistribution::RowBlock { .. });
        let parts: Vec<(usize, usize)> = if row_block {
            block_ranges(n_rows, ctx.n_devices())
        } else {
            vec![(0, n_rows)]
        };
        let parts: Vec<_> = parts.into_iter().filter(|&(_, rows)| rows > 0).collect();
        let exchanging = radius > 0 && cols > 0 && row_block && (parts.len() > 1 || wrap);
        let thinnest = parts.iter().map(|&(_, rows)| rows).min().unwrap_or(0);
        let halo_cap = thinnest.checked_div(radius).unwrap_or(usize::MAX);
        let cap = halo_cap.min(if exchanging { usize::MAX } else { BLOCK_ROUNDS });
        let group = block_group(ctx, n_rows, cols);
        let fits = |tile: (usize, usize), rounds: usize| {
            check_local_mem(ctx, 2 * window_bytes::<T>(tile, rounds * radius)).is_ok()
        };
        let cap_of = |tile| {
            let fitting = (2..=cap).take_while(|&rounds| fits(tile, rounds));
            fitting.last().unwrap_or(1)
        };
        let mut tiles = vec![(group, cap_of(group))];
        if cap > 1 {
            // Window sizes grow with both sides, so a row of multiples
            // ends at the first that does not fit, and the rows at the
            // first whose narrowest tile does not.
            let (lx, ly) = group;
            let thickest = parts.iter().map(|&(_, rows)| rows).max().unwrap_or(0);
            'rows: for b in 1..=thickest.div_ceil(ly) {
                for a in 1..=cols.div_ceil(lx) {
                    let tile = (a * lx, b * ly);
                    if !fits(tile, 2) {
                        if a == 1 {
                            break 'rows;
                        }
                        break;
                    }
                    if (a, b) != (1, 1) {
                        tiles.push((tile, cap_of(tile)));
                    }
                }
            }
            tiles.sort_by_key(|&((w, h), _)| (w * h, w));
        }
        BlockPlan {
            ctx: ctx.clone(),
            tiles,
            parts,
            exchanging,
            dims,
            group,
            radius,
            wrap,
            neumann: round.boundary == Boundary2D::Neumann,
            static_ops: round.static_ops,
            elem: std::mem::size_of::<T>(),
            launch_s: ctx.profile().launch_cost_s(n_args),
        }
    }

    /// The cheapest tile and count of near-equal blocks for `rest` rounds:
    /// per tile, the cheapest count its cap allows ([`block_count`]), and
    /// of those the cheapest, ties going to the tile of fewer cells.
    fn cheapest(&self, rest: usize) -> ((usize, usize), usize) {
        let mut best = (f64::INFINITY, self.group, rest);
        for &(tile, cap) in &self.tiles {
            let (s, count) = block_count(rest, cap, |len| self.block_s(tile, len));
            if s < best.0 {
                best = (s, tile, count);
            }
        }
        (best.1, best.2)
    }

    /// The estimated seconds of one block of `rounds` rounds stepping
    /// `tile` (the lane grid if it steps one round): the most any non-empty
    /// part spends on its launches and kernels, where an edge launch also
    /// waits for the exchange's transfers on its device's copy engine
    /// ([`BlockPlan::part_copies_s`]), every block's alike.
    fn block_s(&self, tile: (usize, usize), rounds: usize) -> f64 {
        let tile = if rounds > 1 { tile } else { self.group };
        let part_s = |&part: &(usize, usize)| {
            let (interior, edge) = self.launches_s(tile, rounds, part);
            if !self.exchanging {
                return interior;
            }
            interior.max(self.part_copies_s(part, rounds * self.radius)) + edge
        };
        self.parts.iter().map(part_s).fold(0.0, f64::max)
    }

    /// The estimated seconds of one block's interior and edge launches of
    /// `tile`s on the part owning `rows` rows from `offset`. Where no
    /// copies arrive the block is one launch of all the part's tiles,
    /// counted as interior.
    fn launches_s(
        &self,
        (tw, th): (usize, usize),
        rounds: usize,
        (offset, rows): (usize, usize),
    ) -> (f64, f64) {
        let depth = rounds * self.radius;
        let (n_rows, cols) = self.dims;
        // The columns of tiles, alike but for the first and the last.
        let mut columns: Vec<(Extent, usize)> = Vec::new();
        for c0 in (0..cols).step_by(tw) {
            let column = self.extent(c0, tw.min(cols - c0), depth, cols);
            add_count(&mut columns, column, 1);
        }
        let (mut interior, mut edge) = (Vec::new(), Vec::new());
        for t in (offset..offset + rows).step_by(th) {
            let h = th.min(offset + rows - t);
            let leaves = window_leaves_part(t, h, depth, (offset, rows), n_rows, self.wrap);
            let launch = if self.exchanging && leaves {
                &mut edge
            } else {
                &mut interior
            };
            let row = self.extent(t, h, depth, n_rows);
            for (col, count) in &columns {
                let class = TileClass {
                    dims: (col.len, row.len),
                    loads: col.loaded * row.loaded,
                    refresh: self.neumann && (col.outside || row.outside),
                };
                add_count(launch, class, *count);
            }
        }
        let launch = |tiles: &[(TileClass, usize)]| match tiles.is_empty() {
            true => 0.0,
            false => self.launch_s + self.kernel_s(rounds, tiles),
        };
        (launch(&interior), launch(&edge))
    }

    /// One tile's extent along a dimension of `n` lines: `len` lines from
    /// `first`, its window `depth` lines deeper on each side.
    fn extent(&self, first: usize, len: usize, depth: usize, n: usize) -> Extent {
        let (lo, hi) = (first as isize - depth as isize, first + len + depth);
        let outside = lo < 0 || hi > n;
        let loaded = match self.wrap {
            true => len + 2 * depth,
            false => hi.min(n) - lo.max(0) as usize,
        };
        Extent {
            len,
            loaded,
            outside,
        }
    }

    /// The modeled seconds of a `Repeat` kernel of `rounds` rounds over
    /// `tiles`, each class of tile with its count, the way the executor
    /// prices it: cycles and bytes counted as `WorkGroup::cost` counts
    /// them (static ops only), the busiest compute unit's share through
    /// [`vgpu::timing::kernel_duration_s`]. A tile reads the window cells
    /// inside the matrix and writes its own; cells outside the matrix are
    /// priced as if computed.
    fn kernel_s(&self, rounds: usize, tiles: &[(TileClass, usize)]) -> f64 {
        let spec = *self.ctx.device(0).spec();
        let (mut total, mut busiest, mut bytes) = (0.0, 0.0f64, 0.0);
        for (class, count) in tiles {
            let cycles = self.tile_cycles(rounds, class);
            total += cycles * *count as f64;
            busiest = busiest.max(cycles);
            let (w, h) = class.dims;
            bytes += ((class.loads + w * h) * self.elem * count) as f64;
        }
        let cost = KernelCost {
            max_cu_cycles: (total / spec.compute_units as f64).max(busiest),
            global_bytes: bytes,
        };
        let efficiency = self.ctx.profile().compute_efficiency;
        kernel_duration_s(cost, spec.clock_hz, efficiency, spec.mem_bandwidth_bytes_s)
    }

    /// The cycles of one work-group of the lane grid stepping `rounds`
    /// rounds over a tile of `class`, lanes and tile cells counted apart.
    fn tile_cycles(&self, rounds: usize, class: &TileClass) -> f64 {
        let pes = self.ctx.device(0).spec().pes_per_cu;
        let (lx, ly) = self.group;
        let lanes = lx * ly;
        let ((w, h), depth) = (class.dims, rounds * self.radius);
        let (ww, wh) = (w + 2 * depth, h + 2 * depth);
        // A warp pays for its busiest lane, its first: every stepped round
        // deals the cells of a region a radius narrower than the last to
        // the lanes in turn, and the last round writes the tile's cells
        // `lx` columns and `ly` rows apart.
        let steps: usize = (0..lanes.div_ceil(WARP_SIZE))
            .map(|warp| {
                let first = warp * WARP_SIZE;
                let (x, y) = (first % lx, first / lx);
                let writes = w.saturating_sub(x).div_ceil(lx) * h.saturating_sub(y).div_ceil(ly);
                let stepped = (1..rounds).map(|j| {
                    let margin = 2 * j * self.radius;
                    ((ww - margin) * (wh - margin))
                        .saturating_sub(first)
                        .div_ceil(lanes)
                });
                writes + stepped.sum::<usize>()
            })
            .sum();
        let slots = (WARP_SIZE.min(lanes) as f64 / pes as f64).ceil();
        // One barrier after the load and one per stepped round, each
        // doubled where the windows refresh cells outside the matrix.
        let barriers = (rounds * (1 + usize::from(class.refresh))) as f64;
        steps as f64 * self.static_ops as f64 * slots + barriers * BARRIER_CYCLES
    }

    /// The seconds of one halo transfer `depth` rows deep: across devices a
    /// download or an upload through the host, with as many in flight as
    /// there are parts, each on its own device's copy engine; within a lone
    /// part under `Wrap`, a copy on the device.
    fn copy_s(&self, depth: usize) -> f64 {
        let bytes = depth * self.dims.1 * self.elem;
        match self.parts.len() {
            1 => 2.0 * bytes as f64 / self.ctx.device(0).spec().mem_bandwidth_bytes_s,
            p => self.ctx.platform().topology().transfer_s(bytes, p),
        }
    }

    /// The seconds one exchange `depth` rows deep holds the copy engine of
    /// the part owning `rows` rows from `offset`: one transfer into each
    /// halo side it has and, from another device, the downloads out of its
    /// rows for its neighbours' halos. Those are one per neighbour, or,
    /// where the two ranges overlap or abut (`2·depth ≥ rows`), one of all
    /// its rows, as `stage_through_host` joins them.
    fn part_copies_s(&self, (offset, rows): (usize, usize), depth: usize) -> f64 {
        let above = usize::from(self.wrap || offset > 0);
        let below = usize::from(self.wrap || offset + rows < self.dims.0);
        let into_halos = (above + below) as f64 * self.copy_s(depth);
        match self.parts.len() {
            1 => into_halos,
            _ if above + below == 2 && 2 * depth >= rows => into_halos + self.copy_s(rows),
            _ => 2.0 * into_halos,
        }
    }
}

/// Count `n` more of `item` in `counted`.
fn add_count<K: PartialEq>(counted: &mut Vec<(K, usize)>, item: K, n: usize) {
    match counted.iter_mut().find(|(k, _)| *k == item) {
        Some((_, count)) => *count += n,
        None => counted.push((item, n)),
    }
}

/// Whether the window of a tile of `rows` rows from global row `first`,
/// `depth` rows deep, loads a row outside the owned rows `(offset, owned)`
/// of its part: a halo row an exchange may write. Window rows outside the
/// matrix of `n_rows` rows are loaded only under `Wrap`.
fn window_leaves_part(
    first: usize,
    rows: usize,
    depth: usize,
    (offset, owned): (usize, usize),
    n_rows: usize,
    wrap: bool,
) -> bool {
    let (mut lo, mut hi) = (
        first as isize - depth as isize,
        (first + rows + depth) as isize,
    );
    if !wrap {
        lo = lo.max(0);
        hi = hi.min(n_rows as isize);
    }
    lo < offset as isize || hi > (offset + owned) as isize
}

/// The cheapest count of near-equal blocks for `rest ≥ 1` rounds, none
/// longer than `cap`, and its estimated seconds, given `block_s(L)`, the
/// estimate of one block of `L` rounds. Only the distinct counts `m =
/// ⌈rest / L⌉` for `L ≤ cap` are priced, each in closed form (`rest mod m`
/// blocks of `⌊rest / m⌋ + 1` rounds and the rest of `⌊rest / m⌋`), so
/// planning costs `O(cap)` estimates whatever `rest` is. Ties go to more,
/// shorter blocks.
fn block_count(rest: usize, cap: usize, block_s: impl Fn(usize) -> f64) -> (f64, usize) {
    let cap = cap.min(rest).max(1);
    let priced: Vec<f64> = (1..=cap).map(block_s).collect();
    let mut best = (f64::INFINITY, rest);
    for len in 1..=cap {
        let m = rest.div_ceil(len);
        if len > 1 && m == rest.div_ceil(len - 1) {
            continue;
        }
        let (short, long) = (rest / m, rest % m);
        let mut total = (m - long) as f64 * priced[short - 1];
        if long > 0 {
            total += long as f64 * priced[short];
        }
        if total < best.0 {
            best = (total, m);
        }
    }
    best
}

/// One row or column of a block window, resolved against the boundary once
/// per work-group.
#[derive(Clone, Copy)]
struct Line {
    /// The span row or column the line loads from; `None` when it lies
    /// outside the matrix under `Neumann` or `Zero`.
    src: Option<usize>,
    /// Its global row or column: the view's position.
    global: usize,
    /// The window index of the line holding its clamp target (its own
    /// index when it lies inside the matrix).
    clamp: usize,
}

impl Line {
    /// Window line `w`: position `p` of a span `span` lines long (a part's
    /// span row, or a column), at unwrapped global position `g` of a matrix
    /// `n` lines long.
    fn resolve(w: usize, p: isize, g: isize, span: usize, n: usize, boundary: Boundary2D) -> Line {
        let n = n as isize;
        if boundary == Boundary2D::Wrap {
            // Span lines are consecutive global lines (mod n), so beyond
            // the span the position modulo `n` holds the wrapped target:
            // the window loads it here, and every tap then reads the window.
            let src = if (0..span as isize).contains(&p) {
                p
            } else {
                p.rem_euclid(n)
            };
            return Line {
                src: Some(src as usize),
                global: g.rem_euclid(n) as usize,
                clamp: w,
            };
        }
        let clamped = g.clamp(0, n - 1);
        Line {
            src: (clamped == g).then_some(p as usize),
            global: clamped as usize,
            clamp: (w as isize + clamped - g) as usize,
        }
    }
}

/// One stencil stage of a chain: its user function, radius and boundary
/// mode, and the static issue cost of every cell it computes (its own and
/// that of the element-wise stages fused after it).
#[derive(Clone)]
pub(crate) struct Round<E> {
    pub eval: E,
    pub radius: usize,
    pub boundary: Boundary2D,
    pub static_ops: u64,
}

/// One work-group's state while a [`Chain`] steps: its block window of
/// `ww × wh` cells around its tile, every row and column resolved against
/// the boundary, and where the tile lands in the output part. A chain's
/// later windows are `off` cells narrower on every side and address the
/// same cells `(w, c)`.
pub struct Block<'a> {
    wg: &'a WorkGroup,
    ww: usize,
    wh: usize,
    rows: Vec<Line>,
    cols: Vec<Line>,
    n_rows: usize,
    n_cols: usize,
    /// The full tile's `(width, height)`: every window is allocated for it.
    shape: (usize, usize),
    /// The chain's depth: the tile's margin inside the window.
    halo: usize,
    /// Whether the window reaches past the matrix edge.
    edge: bool,
    /// The part index fused zip operands are read in.
    pi: usize,
    /// The tile's `(rows, cols)`.
    tile: (usize, usize),
    /// The output part's span index of the tile's first cell.
    out_base: usize,
}

impl Block<'_> {
    /// Whether cell `(w, c)` lies outside the matrix (never under `Wrap`).
    fn outside(&self, w: usize, c: usize) -> bool {
        self.rows[w].src.is_none() || self.cols[c].src.is_none()
    }

    /// The index of cell `(w, c)` in a window `off` cells inside.
    fn at(&self, off: usize, w: usize, c: usize) -> usize {
        (w - off) * (self.ww - 2 * off) + c - off
    }

    /// The input part's span index of cell `(w, c)`, inside the matrix.
    fn index(&self, w: usize, c: usize) -> usize {
        self.rows[w].src.unwrap_or_default() * self.n_cols + self.cols[c].src.unwrap_or_default()
    }

    /// Stage `st`'s view of cell `(w, c)`, reading `win`, a window `off`
    /// cells inside.
    fn view<'a, T: Element, E>(
        &self,
        win: &'a LocalBuf<T>,
        off: usize,
        (w, c): (usize, usize),
        st: &Round<E>,
    ) -> Stencil2DView<'a, T> {
        Stencil2DView {
            win,
            centre: self.at(off, w, c),
            stride: self.ww - 2 * off,
            dims: (self.n_rows, self.n_cols),
            pos: (self.rows[w].global, self.cols[c].global),
            radius: st.radius,
        }
    }

    /// A window of `T` for a chain `depth` cells deep.
    fn alloc<T: Element>(&self, depth: usize) -> LocalBuf<T> {
        self.wg.local_buf(window_len(self.shape, depth))
    }

    /// `f(lane, cell)` for every cell at least `margin` cells inside the
    /// window edge, dealt to the lanes in turn.
    fn each_cell(&self, margin: usize, mut f: impl FnMut(&Item<'_>, (usize, usize))) {
        let (rw, rh) = (self.ww - 2 * margin, self.wh - 2 * margin);
        let lanes = self.wg.local_total();
        self.wg.for_each_item(|it| {
            for k in (it.local_linear()..rw * rh).step_by(lanes) {
                f(it, (margin + k / rw, margin + k % rw));
            }
        });
    }

    /// One round of stage `st`: every cell inside the matrix and at least
    /// `margin` cells inside the window stores `f(view, cell)` into `out`
    /// (`out_off` cells inside), its view reading `inp` (`in_off` inside).
    fn round<A: Element, B: Element, E>(
        &self,
        st: &Round<E>,
        (inp, in_off): (&LocalBuf<A>, usize),
        (out, out_off): (&LocalBuf<B>, usize),
        margin: usize,
        f: impl Fn(&Item<'_>, &Stencil2DView<'_, A>, (usize, usize)) -> B,
    ) {
        self.each_cell(margin, |it, (w, c)| {
            if self.outside(w, c) {
                return;
            }
            let view = self.view(inp, in_off, (w, c), st);
            let (y, dyn_ops) = meter::metered(|| f(it, &view, (w, c)));
            out.set(self.at(out_off, w, c), y);
            it.work(st.static_ops + dyn_ops);
        });
        self.wg.barrier();
    }

    /// Under `Neumann`, copy every cell outside the matrix and at least
    /// `margin` cells inside the window from its clamp target, in `win`
    /// (`off` cells inside). `Zero` leaves such cells at the default they
    /// start with; `Wrap` has none.
    fn refresh<T: Element>(
        &self,
        boundary: Boundary2D,
        win: &LocalBuf<T>,
        off: usize,
        margin: usize,
    ) {
        if boundary != Boundary2D::Neumann || !self.edge {
            return;
        }
        self.each_cell(margin, |_, (w, c)| {
            if self.outside(w, c) {
                let target = self.at(off, self.rows[w].clamp, self.cols[c].clamp);
                win.set(self.at(off, w, c), win.get(target));
            }
        });
        self.wg.barrier();
    }

    /// The last round of stage `st`: every tile cell writes
    /// `f(view, output index)` straight to `dst`, its view reading `inp`
    /// (`off` cells inside the window). Lane `(x, y)` of an `lx × ly` lane
    /// grid writes tile cells `(x + i·lx, y + j·ly)`, one lane grid's worth
    /// of the tile per pass.
    fn write_tile<A: Element, V: Element, E>(
        &self,
        st: &Round<E>,
        (inp, off): (&LocalBuf<A>, usize),
        dst: &Buffer<V>,
        f: impl Fn(&Item<'_>, &Stencil2DView<'_, A>, usize) -> V,
    ) {
        let (t_rows, t_cols) = self.tile;
        let (lx, ly) = (self.wg.local_size(0), self.wg.local_size(1));
        for y0 in (0..t_rows).step_by(ly) {
            for x0 in (0..t_cols).step_by(lx) {
                self.wg.for_each_item(|it| {
                    let (x, y) = (x0 + it.local_id(0), y0 + it.local_id(1));
                    if x >= t_cols || y >= t_rows {
                        return;
                    }
                    let o = self.out_base + y * self.n_cols + x;
                    let view = self.view(inp, off, (self.halo + y, self.halo + x), st);
                    let (v, dyn_ops) = meter::metered(|| f(it, &view, o));
                    it.write(dst, o, v);
                    it.work(st.static_ops + dyn_ops);
                });
            }
        }
    }
}

/// The stencil rounds a block launch steps over its loaded window of `A`
/// in local memory: a [`Link`] computes the next window for the chain
/// after it, [`Last`] writes the tile, and [`Repeat`] steps one same-type
/// stage between two windows (an `iterate` block).
pub trait Chain<A: Element>: Clone + Send + Sync + 'static {
    /// The element type the chain writes.
    type Out: Element;

    /// How many cells beyond its tile the chain reads: its radii summed.
    fn depth(&self) -> usize;

    /// The first stage's boundary mode, which decides how windows load.
    fn boundary(&self) -> Boundary2D;

    /// Local-memory bytes of the chain's windows, its first included,
    /// around a `(width, height)` tile.
    fn window_bytes(&self, tile: (usize, usize)) -> usize;

    /// Step the chain from `inp`, a window of `A` `off` cells inside the
    /// block window, and write the tile to `dst`.
    fn step(&self, b: &Block<'_>, inp: &LocalBuf<A>, off: usize, dst: &Buffer<Self::Out>);
}

/// A chain's last stencil: `post(eval(view))` per tile cell.
#[derive(Clone)]
pub(crate) struct Last<E, P, A, I, V> {
    pub round: Round<E>,
    pub post: P,
    pub _pd: PhantomData<fn(A) -> (I, V)>,
}

impl<E, P, A, I, V> Chain<A> for Last<E, P, A, I, V>
where
    A: Element,
    I: Element,
    V: Element,
    E: Fn(&Stencil2DView<'_, A>) -> I + Send + Sync + Clone + 'static,
    P: PixelOp<I, V>,
{
    type Out = V;

    fn depth(&self) -> usize {
        self.round.radius
    }

    fn boundary(&self) -> Boundary2D {
        self.round.boundary
    }

    fn window_bytes(&self, tile: (usize, usize)) -> usize {
        window_bytes::<A>(tile, self.depth())
    }

    fn step(&self, b: &Block<'_>, inp: &LocalBuf<A>, off: usize, dst: &Buffer<V>) {
        let (eval, post) = (&self.round.eval, &self.post);
        b.write_tile(&self.round, (inp, off), dst, |it, view, o| {
            post.apply(it, b.pi, o, eval(view))
        });
    }
}

/// A stencil with more stencils after it: every cell of the next window,
/// a radius narrower, stores `mid(eval(view))`; then `next` steps over it.
#[derive(Clone)]
pub(crate) struct Link<E, M, N, A, I, B> {
    pub round: Round<E>,
    pub mid: M,
    pub next: N,
    pub _pd: PhantomData<fn(A) -> (I, B)>,
}

impl<E, M, N, A, I, B> Chain<A> for Link<E, M, N, A, I, B>
where
    A: Element,
    I: Element,
    B: Element,
    E: Fn(&Stencil2DView<'_, A>) -> I + Send + Sync + Clone + 'static,
    M: PixelOp<I, B>,
    N: Chain<B>,
{
    type Out = N::Out;

    fn depth(&self) -> usize {
        self.round.radius + self.next.depth()
    }

    fn boundary(&self) -> Boundary2D {
        self.round.boundary
    }

    fn window_bytes(&self, tile: (usize, usize)) -> usize {
        window_bytes::<A>(tile, self.depth()) + self.next.window_bytes(tile)
    }

    fn step(&self, b: &Block<'_>, inp: &LocalBuf<A>, off: usize, dst: &Buffer<N::Out>) {
        let (eval, mid) = (&self.round.eval, &self.mid);
        let out_off = off + self.round.radius;
        let win = b.alloc::<B>(self.next.depth());
        b.round(
            &self.round,
            (inp, off),
            (&win, out_off),
            out_off,
            |it, view, (w, c)| mid.apply(it, b.pi, b.index(w, c), eval(view)),
        );
        b.refresh(self.next.boundary(), &win, out_off, out_off);
        self.next.step(b, &win, out_off, dst);
    }
}

/// One same-type stage stepped `rounds` times between two windows, each
/// round computing a region a radius narrower on every side: an `iterate`
/// block.
#[derive(Clone)]
pub(crate) struct Repeat<E, T> {
    pub round: Round<E>,
    pub rounds: usize,
    pub _pd: PhantomData<fn(T) -> T>,
}

impl<E, T> Chain<T> for Repeat<E, T>
where
    T: Element,
    E: Fn(&Stencil2DView<'_, T>) -> T + Send + Sync + Clone + 'static,
{
    type Out = T;

    fn depth(&self) -> usize {
        self.rounds * self.round.radius
    }

    fn boundary(&self) -> Boundary2D {
        self.round.boundary
    }

    fn window_bytes(&self, tile: (usize, usize)) -> usize {
        2 * window_bytes::<T>(tile, self.depth())
    }

    fn step(&self, b: &Block<'_>, inp: &LocalBuf<T>, _off: usize, dst: &Buffer<T>) {
        let eval = &self.round.eval;
        // A one-round block steps no round into a second window.
        let second = (self.rounds > 1).then(|| b.alloc::<T>(self.depth()));
        let wins = [inp, second.as_ref().unwrap_or(inp)];
        for j in 1..self.rounds {
            let (margin, out) = (j * self.round.radius, wins[j % 2]);
            let inp = (wins[(j - 1) % 2], 0);
            b.round(&self.round, inp, (out, 0), margin, |_, view, _| eval(view));
            b.refresh(self.round.boundary, out, 0, margin);
        }
        let inp = (wins[(self.rounds - 1) % 2], 0);
        b.write_tile(&self.round, inp, dst, |_, view, _| eval(view));
    }
}

/// The compiled block program of one stencil chain, for a matrix of
/// `n_rows` rows, work-groups of shape `group` and tiles of shape `tile`.
/// Each work-group loads its tile's window, `chain.depth()` cells deeper on
/// every side, into local memory once (one counted global read per cell inside the matrix,
/// holding `pre` of the input part's element), steps `chain` over it and
/// writes its tile once. [`Stencil2D::iterate`] launches [`Repeat`] blocks
/// and [`Stencil2D::apply`] a one-stage [`Last`], both with an identity
/// `pre`; a [`Pipeline`](crate::Pipeline) launches each run of stencil
/// stages as [`Link`]s ending in a [`Last`], its pending element-wise
/// chains fused into `pre` and the rounds' stores. `J` and `A` are the
/// input and first-window element types.
pub(crate) struct BlockKernel<J, A, Pre, C> {
    pub compiled: CompiledKernel,
    /// The element-wise chain run on every window cell as it loads.
    pub pre: Pre,
    /// Static issue cost of `pre`, charged per loaded window cell.
    pub load_ops: u64,
    pub chain: C,
    /// Matrix height.
    pub n_rows: usize,
    /// The lane grid `(lx, ly)` every launch runs: the work-group shape.
    pub group: (usize, usize),
    /// The tile `(width, height)` each work-group computes, a whole
    /// multiple of the lane grid: a tile is `height` owned rows by `width`
    /// columns. Only [`Stencil2D::iterate`]'s blocks of two or more rounds
    /// step a tile wider or taller than the lane grid.
    pub tile: (usize, usize),
    pub _pd: PhantomData<fn(J) -> A>,
}

impl<J, A, Pre, C> BlockKernel<J, A, Pre, C>
where
    J: Element,
    A: Element,
    Pre: PixelOp<J, A>,
    C: Chain<A>,
{
    /// Part `p`'s owned rows in tiles of at most the tile's height, as
    /// `(first span row, rows)`.
    pub fn tiles(&self, p: &MatrixPart<J>) -> Vec<(usize, usize)> {
        let th = self.tile.1;
        (0..p.rows)
            .step_by(th)
            .map(|r| (p.halo_above + r, th.min(p.rows - r)))
            .collect()
    }

    /// Whether the window of `tile` loads a row outside the part's owned
    /// rows, i.e. a halo row an exchange may write. Window rows outside the
    /// matrix are loaded only under `Wrap`.
    fn reads_halo(&self, p: &MatrixPart<J>, (start, rows): (usize, usize)) -> bool {
        let first = p.row_offset + start - p.halo_above;
        let wrap = self.chain.boundary() == Boundary2D::Wrap;
        let owned = (p.row_offset, p.rows);
        window_leaves_part(first, rows, self.chain.depth(), owned, self.n_rows, wrap)
    }

    /// Launch the chain over every tile of every part: `src[i]` is read
    /// and the owned rows of `dst[i]` are written, one device-ordered launch
    /// per part.
    pub fn launch_parts(
        &self,
        ctx: &Context,
        src: &[MatrixPart<J>],
        dst: &[MatrixPart<C::Out>],
    ) -> Result<()> {
        for (pi, (ip, op)) in src.iter().zip(dst).enumerate() {
            self.launch(ctx, pi, ip, op, &self.tiles(ip), Order::Device)?;
        }
        Ok(())
    }

    /// Launch the chain over `tiles` of part `pi`'s input `ip`, writing
    /// their rows of `op` (same global rows; `op`'s halo may differ from
    /// `ip`'s). `ip`'s rows within `chain.depth()` of the tiles must be
    /// coherent. Returns the launch event, or `None` when there is nothing
    /// to launch.
    pub fn launch(
        &self,
        ctx: &Context,
        pi: usize,
        ip: &MatrixPart<J>,
        op: &MatrixPart<C::Out>,
        tiles: &[(usize, usize)],
        order: Order<'_>,
    ) -> Result<Option<Event>> {
        let cols = ip.cols;
        if tiles.is_empty() || cols == 0 {
            return Ok(None);
        }
        let ((lx, ly), (tw, th)) = (self.group, self.tile);
        let (src, dst) = (ip.buffer.clone(), op.buffer.clone());
        let (pre, chain) = (self.pre.clone(), self.chain.clone());
        let (n_rows, load_ops) = (self.n_rows, self.load_ops);
        let (halo, boundary) = (chain.depth(), chain.boundary());
        let (row_offset, in_halo, out_halo) = (ip.row_offset, ip.halo_above, op.halo_above);
        let span_rows = ip.span_rows();
        let n_tiles = tiles.len();
        let tiles = tiles.to_vec();
        let body: KernelBody = Arc::new(move |wg| {
            let (t0, t_rows) = tiles[wg.group_id(1)];
            let c0 = wg.group_id(0) * tw;
            let t_cols = tw.min(cols - c0);
            let (ww, wh) = (t_cols + 2 * halo, t_rows + 2 * halo);
            let lanes = wg.local_total();
            let rows: Vec<Line> = (0..wh)
                .map(|w| {
                    let s = (t0 + w) as isize - halo as isize;
                    let g = s + row_offset as isize - in_halo as isize;
                    Line::resolve(w, s, g, span_rows, n_rows, boundary)
                })
                .collect();
            let lines = (0..ww).map(|w| {
                let c = (c0 + w) as isize - halo as isize;
                Line::resolve(w, c, c, cols, cols, boundary)
            });
            let cols_: Vec<Line> = lines.collect();
            let edge = rows.iter().chain(&cols_).any(|l| l.src.is_none());
            let b = Block {
                wg,
                ww,
                wh,
                rows,
                cols: cols_,
                n_rows,
                n_cols: cols,
                shape: (tw, th),
                halo,
                edge,
                pi,
                tile: (t_rows, t_cols),
                out_base: (t0 + out_halo - in_halo) * cols + c0,
            };
            let win = b.alloc::<A>(halo);
            // One global read per window cell inside the matrix, with the
            // `pre` chain applied as it loads.
            wg.for_each_item(|it| {
                for i in (it.local_linear()..ww * wh).step_by(lanes) {
                    let (row, col) = (b.rows[i / ww], b.cols[i % ww]);
                    if let (Some(s), Some(c)) = (row.src, col.src) {
                        let g = s * cols + c;
                        let x = it.read(&src, g);
                        if Pre::IDENTITY {
                            win.set(i, pre.apply(it, pi, g, x));
                        } else {
                            let (v, dyn_ops) = meter::metered(|| pre.apply(it, pi, g, x));
                            win.set(i, v);
                            it.work(load_ops + dyn_ops);
                        }
                    }
                }
            });
            wg.barrier();
            b.refresh(boundary, &win, 0, 0);
            chain.step(&b, &win, 0, &dst);
        });
        let kernel = self.compiled.with_body(body);
        // One lane grid per tile.
        let nd = vgpu::NDRange::two_d((cols.div_ceil(tw) * lx, n_tiles * ly), (lx, ly));
        Ok(Some(ctx.queue(ip.device).launch(&kernel, nd, order)?))
    }
}

/// The layout rule for stencil inputs: parts span full rows and carry at
/// least `radius` halo rows. A narrower `RowBlock` halo is widened; column blocks
/// have no column halos, so they become row blocks with a `radius`-deep
/// halo.
fn stencil_layout(dist: MatrixDistribution, radius: usize) -> MatrixDistribution {
    match dist {
        MatrixDistribution::RowBlock { halo } if halo >= radius => dist,
        MatrixDistribution::RowBlock { .. } | MatrixDistribution::ColBlock => {
            MatrixDistribution::RowBlock { halo: radius }
        }
        MatrixDistribution::Single(_) | MatrixDistribution::Copy => dist,
    }
}

/// Lay `input` out by [`stencil_layout`]. Device-fresh data moves from
/// its owners, never from a stale host copy.
pub(crate) fn stencil_input_layout<T: Element>(input: &Matrix<T>, radius: usize) -> Result<()> {
    let dist = input.distribution();
    match stencil_layout(dist, radius) {
        same if same == dist => Ok(()),
        wider => input.set_distribution(wider),
    }
}

/// Can a stencil's output start life with coherent halos? Only when there
/// are none to go stale.
pub(crate) fn stale_free<T: Element>(parts: &[MatrixPart<T>]) -> bool {
    parts.iter().all(|p| p.halo_above == 0 && p.halo_below == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::{cross_sum_at, ctx, host_cross_sum, host_stencil};

    /// 5-point Laplacian-style sum, radius 1.
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

    fn cross_sum() -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        Stencil2D::new(cross_user(), 1, Boundary2D::Neumann)
    }

    fn test_image(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i * 37) % 101) as f32 - 50.0)
            .collect()
    }

    #[test]
    fn stencil_on_one_device_matches_reference() {
        let c = ctx(1);
        let (rows, cols) = (13, 9);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let out = cross_sum().apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(
            out,
            host_cross_sum(&data, (rows, cols), Boundary2D::Neumann, 1)
        );
    }

    #[test]
    fn multi_device_output_is_bit_identical_to_single() {
        let (rows, cols) = (23, 11);
        let data = test_image(rows, cols);
        let single = {
            let c = ctx(1);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            cross_sum().apply(&m).unwrap().to_vec().unwrap()
        };
        for devices in [2usize, 3, 4] {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let got = cross_sum().apply(&m).unwrap().to_vec().unwrap();
            assert_eq!(got, single, "{devices}-device run must be bit-identical");
        }
    }

    #[test]
    fn all_boundary_modes_match_the_reference() {
        let (rows, cols) = (10, 7);
        let data = test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            let c = ctx(3);
            let st = Stencil2D::new(cross_user(), 1, boundary);
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
                .unwrap();
            let got = st.apply(&m).unwrap().to_vec().unwrap();
            assert_eq!(
                got,
                host_cross_sum(&data, (rows, cols), boundary, 1),
                "{boundary:?}"
            );
        }
    }

    #[test]
    fn narrow_halo_is_widened_automatically() {
        let c = ctx(2);
        let (rows, cols) = (16, 5);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let user = UserFn::new(
            "wide",
            "float wide(__global float* in, int r, int c, uint nr, uint nc) { /* r3 sum */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-3, 0) + v.get(3, 0),
        );
        let st = Stencil2D::new(user, 3, Boundary2D::Zero);
        let got = st.apply(&m).unwrap().to_vec().unwrap();
        assert_eq!(
            m.distribution(),
            MatrixDistribution::RowBlock { halo: 3 },
            "halo must be widened to the radius"
        );
        let want = host_stencil(&data, (rows, cols), Boundary2D::Zero, |at| {
            at(-3, 0) + at(3, 0)
        });
        assert_eq!(got, want);
    }

    #[test]
    fn halo_exchange_shows_up_in_transfer_accounting() {
        let c = ctx(4);
        let (rows, cols) = (32, 8);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let st = cross_sum();
        let first = st.apply(&m).unwrap();
        // The second application consumes a device-fresh matrix whose halos
        // were never written: the skeleton must trigger the exchange.
        assert!(!first.halos_fresh());
        let before = c.platform().stats_snapshot();
        let second = st.apply(&first).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // Only the halo rows cross, through the host. The matrix's exchange
        // refreshes every halo row, the wrapped matrix edges included:
        // each of the four parts downloads its first and its last row, and
        // each of the eight halo rows is uploaded once.
        let rows_of = |n: u64| (n, n * (cols * 4) as u64);
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), rows_of(8));
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), rows_of(8));
        assert_eq!(delta.d2d_transfers, 0, "no device-to-device copy");
        // And the result is still right.
        let twice = host_cross_sum(&m.to_vec().unwrap(), (rows, cols), Boundary2D::Neumann, 2);
        assert_eq!(second.to_vec().unwrap(), twice);
    }

    #[test]
    fn radius_larger_than_a_part_spans_several_parts() {
        // 4 devices × 2 rows per part, radius 3 reaches two parts away.
        let c = ctx(4);
        let (rows, cols) = (8, 3);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        m.set_distribution(MatrixDistribution::RowBlock { halo: 3 })
            .unwrap();
        let user = UserFn::new(
            "far",
            "float far(__global float* in, int r, int c, uint nr, uint nc) { /* +-3 rows */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-3, 0) + v.get(3, 0),
        );
        let st = Stencil2D::new(user, 3, Boundary2D::Wrap);
        let got = st.apply(&m).unwrap().to_vec().unwrap();
        let want = host_stencil(&data, (rows, cols), Boundary2D::Wrap, |at| {
            at(-3, 0) + at(3, 0)
        });
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_radius_access_is_a_typed_error() {
        let c = ctx(1);
        let user = UserFn::new(
            "bad",
            "float bad(__global float* in, int r, int c, uint nr, uint nc) { /* in[r-2] */ }",
            |v: &Stencil2DView<'_, f32>| v.get(-2, 0),
        );
        let st = Stencil2D::new(user, 1, Boundary2D::Neumann);
        let m = Matrix::from_vec(&c, 4, 4, vec![1.0f32; 16]);
        let err = st.apply(&m).expect_err("launch must fail");
        assert!(err.to_string().contains("exceeds radius"), "{err}");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn iterate_matches_chained_applies_bitwise() {
        // Both schedules against five host passes of a damped cross sum.
        let (rows, cols) = (17, 9);
        let data = test_image(rows, cols);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
            let want = (0..5).fold(data.clone(), |cur, _| {
                host_stencil(&cur, (rows, cols), boundary, |at| 0.2 * cross_sum_at(at))
            });
            for devices in [1usize, 2, 4] {
                let c = ctx(devices);
                let user = UserFn::new(
                    "csum",
                    "float csum(__global float* in, int r, int c, uint nr, uint nc) { /* cross */ }",
                    |v: &Stencil2DView<'_, f32>| 0.2 * cross_sum_at(|dr, dc| v.get(dr, dc)),
                );
                let st = Stencil2D::new(user, 1, boundary);
                let m = Matrix::from_vec(&c, rows, cols, data.clone());
                let chained = {
                    let mut cur = st.apply(&m).unwrap();
                    for _ in 1..5 {
                        cur = st.apply(&cur).unwrap();
                    }
                    cur.to_vec().unwrap()
                };
                let m2 = Matrix::from_vec(&c, rows, cols, data.clone());
                let iterated = st.iterate(&m2, 5).unwrap().to_vec().unwrap();
                let at = format!("{boundary:?} on {devices} devices");
                assert_eq!(bits(&chained), bits(&want), "chained applies, {at}");
                assert_eq!(bits(&iterated), bits(&want), "iterate, {at}");
            }
        }
    }

    /// The damped column's per-cell math over a tap `at(dr, dc)`: every row
    /// within `r` of the centre, so a stale row anywhere in a round's read
    /// window changes the result.
    fn damped_column_at(r: isize, at: impl Fn(isize, isize) -> f32) -> f32 {
        let column: f32 = (-r..=r).map(|dr| at(dr, 0)).sum();
        0.15 * (column + at(0, -1) + at(0, 1))
    }

    fn damped_column(
        radius: usize,
        boundary: Boundary2D,
    ) -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        let r = radius as isize;
        let user = UserFn::new(
            "damped_column",
            "float damped_column(__global float* in, int r, int c, uint nr, uint nc) { /* rows +-r */ }",
            move |v: &Stencil2DView<'_, f32>| damped_column_at(r, |dr, dc| v.get(dr, dc)),
        );
        Stencil2D::new(user, radius, boundary)
    }

    /// The bits of the first `n` host passes of the damped column, one
    /// entry per pass.
    fn host_damped_column(
        data: &[f32],
        dims: (usize, usize),
        radius: usize,
        boundary: Boundary2D,
        n: usize,
    ) -> Vec<Vec<u32>> {
        let r = radius as isize;
        let mut cur = data.to_vec();
        (0..n)
            .map(|_| {
                cur = host_stencil(&cur, dims, boundary, |at| damped_column_at(r, at));
                bits(&cur)
            })
            .collect()
    }

    /// The fewest blocks of at most `k` rounds the cap of the plan's
    /// `t`-th tile (counted round its candidates) allows: every block as
    /// long as it may be.
    fn fewest(k: usize, t: usize) -> impl Fn(&BlockPlan, usize) -> ((usize, usize), usize) {
        move |plan, rest| {
            let (tile, cap) = plan.tiles[t % plan.tiles.len()];
            (tile, rest.div_ceil(cap.min(k)))
        }
    }

    #[test]
    fn blocked_iterate_is_bit_identical_to_chained_applies_for_every_block_length() {
        use MatrixDistribution::{Copy, RowBlock, Single};
        // Every block as long as the cap of one of the plan's tiles allows,
        // the tile chosen round the candidates by n and k. Row blocks on
        // every device count: parts deep enough for k·r halos (k is capped
        // at the thinnest part and at the tiny device's local memory, which
        // shrinks k = 8 everywhere and k = 4 at radius 2), parts thinner
        // than 2r or than r (k = 1, halos reaching across parts) and empty
        // parts. Single and Copy parts hold the whole matrix and, like a
        // lone part under Neumann or Zero, exchange nothing: their k stops
        // at four.
        let mut layouts: Vec<(usize, MatrixDistribution)> = (1..=4)
            .flat_map(|devices| (0..=2).map(move |halo| (devices, RowBlock { halo })))
            .collect();
        layouts.extend([(1, Single(0)), (3, Single(2)), (1, Copy), (3, Copy)]);
        // Five columns make every window wider than the matrix, so `Wrap`
        // wraps it more than once; 18 make a second, two-column-wide
        // column of tiles.
        let narrow = [(1usize, 3usize, 5usize), (1, 17, 5), (2, 7, 5), (2, 19, 5)]
            .map(|shape| (shape, &layouts[..]));
        let wide_layouts = [
            (2, RowBlock { halo: 1 }),
            (4, RowBlock { halo: 1 }),
            (2, Copy),
        ];
        let wide = [(1, 9, 18), (2, 11, 18)].map(|shape| (shape, &wide_layouts[..]));
        let mat_bits = |m: Matrix<f32>| bits(&m.to_vec().unwrap());
        for ((radius, rows, cols), layouts) in narrow.into_iter().chain(wide) {
            let data = test_image(rows, cols);
            for boundary in [Boundary2D::Neumann, Boundary2D::Wrap, Boundary2D::Zero] {
                let st = damped_column(radius, boundary);
                let host = host_damped_column(&data, (rows, cols), radius, boundary, 10);
                // Chained applies on one device match the host pass for
                // pass.
                let mut cur = Matrix::from_vec(&ctx(1), rows, cols, data.clone());
                for (n, want) in (1..=10).zip(&host) {
                    cur = st.apply(&cur).unwrap();
                    let at = format!("r={radius} {rows}x{cols}, {boundary:?}, n={n}");
                    assert_eq!(&mat_bits(cur.clone()), want, "chained applies, {at}");
                }
                for &(devices, dist) in layouts {
                    let c = ctx(devices);
                    let input = || {
                        let m = Matrix::from_vec(&c, rows, cols, data.clone());
                        m.set_distribution(dist).unwrap();
                        m
                    };
                    for (n, want) in (1..=10).zip(&host) {
                        for k in [1, 2, 3, 4, 8] {
                            let got = st.iterate_blocked(&input(), n, fewest(k, n + k)).unwrap();
                            assert_eq!(
                                &mat_bits(got),
                                want,
                                "r={radius} {rows}x{cols}, {boundary:?}, {devices} devices, \
                                 {dist:?}, n={n}, k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_length_shrinks_until_both_windows_fit_local_memory() {
        // Radius 2 on the tiny device (4 KB of local memory, 16×4
        // work-groups): four rounds need two 32×20 windows (5 KB), three
        // need two 28×16 ones (3.5 KB). The 20-row parts would allow ten.
        let (rows, cols) = (40, 24);
        let data = test_image(rows, cols);
        let c = ctx(2);
        let st = damped_column(2, Boundary2D::Neumann);
        let input = || {
            let m = Matrix::from_vec(&c, rows, cols, data.clone());
            m.set_distribution(MatrixDistribution::RowBlock { halo: 2 })
                .unwrap();
            m
        };
        let got = st.iterate(&input(), 10).unwrap();
        assert_eq!(
            got.distribution(),
            MatrixDistribution::RowBlock { halo: 6 },
            "9 rounds after the first run as 3 + 3 + 3"
        );
        let host = host_damped_column(&data, (rows, cols), 2, Boundary2D::Neumann, 10);
        assert_eq!(bits(&got.to_vec().unwrap()), host[9]);
    }

    /// A context of `devices` of the modeled Tesla parts, with 16×16
    /// work-groups: the devices and costs the plan is meant for.
    fn tesla(devices: usize) -> Context {
        Context::new(
            crate::ContextConfig::default()
                .devices(devices)
                .cache_tag("skelcl-skeleton-tests"),
        )
    }

    /// The modeled seconds `f` keeps the devices busy, from a reset clock.
    fn modeled_s(c: &Context, f: impl FnOnce()) -> f64 {
        c.platform().sync_all();
        c.platform().reset_clocks();
        f();
        c.platform().sync_all();
        c.platform().host_now_s()
    }

    /// A `rows × cols` plate laid out `RowBlock { halo: 1 }`, on the
    /// devices.
    fn plate(c: &Context, rows: usize, cols: usize) -> Matrix<f32> {
        let m = Matrix::from_vec(c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        m
    }

    #[test]
    fn the_block_estimate_tracks_the_launched_kernels() {
        // One block of L rounds after round 1 over four Tesla parts of a
        // 1032×256 plate (258 rows each: interior and edge tiles, a
        // two-row partial tile row, the matrix edge), at radius 1 and 2,
        // on the 16×16 lane grid and on widened tiles. Per part, the plan's
        // interior and edge launches against the modeled durations of the
        // launched `Repeat` kernels. The estimate prices the tiles class by
        // class (partial tile rows, windows refreshed at the matrix edge)
        // but computes the window cells outside the matrix, which the
        // kernel skips: its kernels read 0.0% to 3.7% high (r = 2, L = 7,
        // the last part); with their two 29 µs launch costs, at most 1.4%
        // high.
        let c = tesla(4);
        let m = plate(&c, 1032, 256);
        for (radius, rounds, tile) in [
            (1, 6, (16, 16)),
            (1, 7, (16, 16)),
            (2, 3, (16, 16)),
            (2, 7, (16, 16)),
            (1, 6, (32, 16)),
            (1, 10, (32, 16)),
            (1, 6, (16, 32)),
            (1, 5, (32, 32)),
            (2, 3, (32, 16)),
        ] {
            let st = damped_column(radius, Boundary2D::Neumann);
            st.iterate(&m, 1).unwrap();
            c.platform().enable_timeline_trace();
            let (mut estimates, mut overhead) = (Vec::new(), 0.0);
            let one_block = |plan: &BlockPlan, _| {
                let cap = plan
                    .tiles
                    .iter()
                    .find(|&&(t, _)| t == tile)
                    .map(|&(_, cap)| cap);
                assert!(
                    plan.exchanging && cap >= Some(rounds),
                    "{tile:?} cap {cap:?}"
                );
                let parts = plan.parts.iter();
                estimates = parts
                    .map(|&part| plan.launches_s(tile, rounds, part))
                    .collect();
                overhead = 2.0 * plan.launch_s;
                (tile, 1)
            };
            st.iterate_blocked(&m, 1 + rounds, one_block).unwrap();
            c.platform().sync_all();
            let trace = c.platform().take_timeline_trace();
            for (d, &(interior, edge)) in estimates.iter().enumerate() {
                // The part's launches after round 1's.
                let launches: Vec<f64> = trace
                    .iter()
                    .filter(|r| r.device.0 == d && r.kind == vgpu::CmdKind::Kernel)
                    .skip(1)
                    .map(|r| r.end_s - r.start_s)
                    .collect();
                assert_eq!(launches.len(), 2, "interior and edge tiles");
                let (estimated, launched) = (interior + edge, launches.iter().sum::<f64>());
                let at =
                    format!("r={radius} L={rounds} {tile:?} part {d}: {estimated} vs {launched} s");
                let kernels = (estimated - overhead) / (launched - overhead);
                assert!((0.98..=1.07).contains(&kernels), "kernels {at}");
                assert!((estimated / launched - 1.0).abs() <= 0.02, "block {at}");
            }
        }
    }

    #[test]
    fn the_exchange_estimate_is_each_parts_transfers() {
        // One block of L rounds after round 1 over four Tesla parts. Per
        // part, the plan prices the block's exchange as the part's
        // downloads plus uploads at one transfer each; the exchange's
        // transfers keep that part's copy engine busy exactly as long. On
        // the 64-row plate at L = 9 an inner part's two 9-row ranges
        // overlap and go as one download of its 16 rows.
        let c = tesla(4);
        let st = heat();
        for (rows, all_rounds) in [(1024, &[2, 5, 9][..]), (64, &[5, 9][..])] {
            let m = plate(&c, rows, 256);
            st.iterate(&m, 1).unwrap();
            for &rounds in all_rounds {
                let mut estimates = Vec::new();
                c.platform().enable_timeline_trace();
                let one_block = |plan: &BlockPlan, _| {
                    let depth = rounds * plan.radius;
                    let parts = plan.parts.iter();
                    estimates = parts.map(|&part| plan.part_copies_s(part, depth)).collect();
                    (plan.group, 1)
                };
                st.iterate_blocked(&m, 1 + rounds, one_block).unwrap();
                c.platform().sync_all();
                let trace = c.platform().take_timeline_trace();
                for (d, &estimated) in estimates.iter().enumerate() {
                    let transfers = trace.iter().filter(|r| {
                        r.device.0 == d && matches!(r.kind, vgpu::CmdKind::D2H | vgpu::CmdKind::H2D)
                    });
                    let busy: f64 = transfers.map(|r| r.end_s - r.start_s).sum();
                    assert!(
                        (busy / estimated - 1.0).abs() < 1e-9,
                        "{rows} rows, L={rounds} part {d}: {estimated} s priced, {busy} s busy"
                    );
                }
            }
        }
    }

    /// The Jacobi heat stencil: the mean of the four neighbours.
    fn heat() -> Stencil2D<f32, f32, impl Fn(&Stencil2DView<'_, f32>) -> f32 + Clone> {
        let user = UserFn::new(
            "heat4",
            "float heat4(__global float* in, int r, int c, uint nr, uint nc) {\n\
             #define AT(dr, dc) stencil_at(in, r, c, nr, nc, dr, dc)\n\
                 return 0.25f * (AT(-1,0) + AT(1,0) + AT(0,-1) + AT(0,1));\n\
             #undef AT\n\
             }",
            |v: &Stencil2DView<'_, f32>| {
                0.25 * (v.get(-1, 0) + v.get(1, 0) + v.get(0, -1) + v.get(0, 1))
            },
        );
        Stencil2D::new(user, 1, Boundary2D::Neumann)
    }

    #[test]
    fn iterate_never_models_slower_than_its_plan_capped_at_four_rounds() {
        let st = heat();
        for devices in [1, 2, 4] {
            let c = tesla(devices);
            let m = plate(&c, 256, 256);
            st.iterate(&m, 1).unwrap();
            for n in [5, 20, 60] {
                let planned = modeled_s(&c, || drop(st.iterate(&m, n).unwrap()));
                let capped = modeled_s(&c, || {
                    let four = |plan: &BlockPlan, rest| {
                        let (tile, cap) = plan.tiles[0];
                        let priced = |l| plan.block_s(tile, l);
                        (tile, block_count(rest, cap.min(4), priced).1)
                    };
                    drop(st.iterate_blocked(&m, n, four).unwrap())
                });
                assert!(
                    planned <= capped,
                    "{devices} devices, n = {n}: {planned} s planned, {capped} s capped"
                );
            }
        }
    }

    #[test]
    fn a_part_set_that_exchanges_nothing_never_runs_a_block_longer_than_four_rounds() {
        use MatrixDistribution::{Copy, RowBlock, Single};
        // Launch costs dwarf these kernels, so uncapped the plan would run
        // one long block; a lone part under `Wrap` receives copies of its
        // own rows and is capped by local memory alone.
        let (rows, cols) = (40, 16);
        for (devices, dist, boundary, exchanging) in [
            (3, Single(1), Boundary2D::Wrap, false),
            (3, Copy, Boundary2D::Neumann, false),
            (1, RowBlock { halo: 1 }, Boundary2D::Neumann, false),
            (1, RowBlock { halo: 1 }, Boundary2D::Zero, false),
            (1, RowBlock { halo: 1 }, Boundary2D::Wrap, true),
        ] {
            let c = ctx(devices);
            c.enable_spans();
            let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
            m.set_distribution(dist).unwrap();
            let planned = |plan: &BlockPlan, rest| {
                assert_eq!(plan.exchanging, exchanging, "{dist:?} {boundary:?}");
                assert_eq!(
                    plan.tiles[0].1 <= BLOCK_ROUNDS,
                    !exchanging,
                    "{dist:?} {boundary:?}"
                );
                let capped = plan.tiles.iter().all(|&(_, cap)| cap <= BLOCK_ROUNDS);
                assert!(exchanging || capped, "{dist:?} {boundary:?}");
                plan.cheapest(rest)
            };
            damped_column(1, boundary)
                .iterate_blocked(&m, 30, planned)
                .unwrap();
            let spans = c.take_spans();
            let span = spans
                .iter()
                .find(|s| s.name == "stencil2d.iterate")
                .unwrap();
            let attr = |key| {
                span.attrs
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap()
                    .1
                    .clone()
            };
            let longest: usize = attr("block_rounds").parse().unwrap();
            assert_eq!(
                longest <= BLOCK_ROUNDS,
                !exchanging,
                "{dist:?} {boundary:?}"
            );
            let blocks: usize = attr("blocks").parse().unwrap();
            assert_eq!(29usize.div_ceil(blocks), longest, "near-equal blocks");
        }
    }

    #[test]
    fn planning_a_billion_rounds_prices_only_the_candidate_lengths() {
        // 10⁹ rounds over four Tesla parts of a 1024² matrix: radius 0
        // exchanges nothing (four rounds at most on every tile), radius 1
        // is capped by local memory: at 14 rounds on the 16×16 lane grid,
        // 10 on 32×16 and 16×32 tiles, 6 on 32×32. Each length of each
        // candidate tile is priced once, and never is a block planned per
        // round.
        let c = tesla(4);
        let rest = 1_000_000_000 - 1;
        for (radius, caps) in [(0, [4, 4, 4, 4]), (1, [14, 10, 10, 6])] {
            let round = Round {
                eval: (),
                radius,
                boundary: Boundary2D::Neumann,
                static_ops: 7,
            };
            let dist = MatrixDistribution::RowBlock { halo: radius };
            let plan = BlockPlan::new::<f32, _>(&c, dist, (1024, 1024), &round, 8);
            let cap_of = |tile| plan.tiles.iter().find(|&&(t, _)| t == tile).unwrap().1;
            let tiles = [(16, 16), (32, 16), (16, 32), (32, 32)];
            assert_eq!(tiles.map(cap_of), caps, "radius {radius}");
            assert_eq!(plan.tiles[0].0, (16, 16), "the lane grid first");
            let mut best = (f64::INFINITY, 0);
            for &(tile, cap) in &plan.tiles {
                let priced = std::cell::Cell::new(0);
                let (s, blocks) = block_count(rest, cap, |rounds| {
                    priced.set(priced.get() + 1);
                    plan.block_s(tile, rounds)
                });
                let at = format!("radius {radius}, {tile:?}");
                assert_eq!(priced.get(), cap, "{at}");
                assert!(rest.div_ceil(blocks) <= cap, "{at}: {blocks} blocks");
                if s < best.0 {
                    best = (s, blocks);
                }
            }
            let (tile, blocks) = plan.cheapest(rest);
            assert_eq!(blocks, best.1, "radius {radius}: the cheapest candidate");
            assert!(plan.tiles.iter().any(|&(t, _)| t == tile));
        }
    }

    #[test]
    fn a_window_that_cannot_fit_is_a_typed_error_before_anything_is_enqueued() {
        // 16×4 work-groups on the tiny device's 4096 bytes of local
        // memory. `iterate` needs two windows: at radius 7 one round's two
        // 30×18 windows need 4320 bytes. `apply` needs one: radius 12's
        // 40×28 window needs 4480 bytes, radius 11's 38×26 one 3952.
        let c = ctx(2);
        let (rows, cols) = (32, 16);
        let refused = |run: &dyn Fn(&Matrix<f32>) -> Result<Matrix<f32>>, requested| {
            let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
            let (stats, built) = (c.platform().stats_snapshot(), c.programs_built());
            let err = run(&m).expect_err("the windows cannot fit");
            assert!(
                matches!(
                    err,
                    crate::Error::Platform(vgpu::Error::LocalMemExceeded {
                        requested: r,
                        limit: 4096
                    }) if r == requested
                ),
                "{err}"
            );
            let delta = c.platform().stats_snapshot() - stats;
            assert_eq!(
                (
                    delta.h2d_transfers,
                    delta.d2d_transfers,
                    delta.kernel_launches
                ),
                (0, 0, 0),
                "nothing is uploaded, exchanged or launched"
            );
            assert_eq!(c.programs_built(), built, "nothing is built");
            assert!(!m.device_fresh(), "the input stays on the host");
        };
        refused(&|m| damped_column(7, Boundary2D::Zero).iterate(m, 3), 4320);
        refused(&|m| damped_column(12, Boundary2D::Zero).apply(m), 4480);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        let got = damped_column(11, Boundary2D::Zero).apply(&m).unwrap();
        let host = host_damped_column(
            &test_image(rows, cols),
            (rows, cols),
            11,
            Boundary2D::Zero,
            1,
        );
        assert_eq!(bits(&got.to_vec().unwrap()), host[0], "radius 11 runs");
    }

    #[test]
    fn a_block_is_one_launch_per_part_and_two_where_copies_are_incoming() {
        // n = 5: round 1, then one block of four rounds, the plan's pick on
        // every layout here (launch costs dwarf these kernels), as under
        // the fixed four-round cap.
        let (rows, cols) = (64, 16);
        let launches = |devices: usize, dist: MatrixDistribution, boundary: Boundary2D| {
            let c = ctx(devices);
            let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
            m.set_distribution(dist).unwrap();
            m.ensure_on_devices().unwrap();
            let before = c.platform().stats_snapshot();
            damped_column(1, boundary).iterate(&m, 5).unwrap();
            (c.platform().stats_snapshot() - before).kernel_launches
        };
        let row_block = MatrixDistribution::RowBlock { halo: 1 };
        // Every part receives halo rows: interior tiles, then edge tiles.
        assert_eq!(launches(4, row_block, Boundary2D::Neumann), 4 + 4 * 2);
        // A lone part: under Wrap its halos are copies of its own rows.
        assert_eq!(launches(1, row_block, Boundary2D::Wrap), 1 + 2);
        // Nothing incoming: one launch per part and block.
        assert_eq!(launches(1, row_block, Boundary2D::Neumann), 1 + 1);
        for boundary in [Boundary2D::Neumann, Boundary2D::Wrap] {
            assert_eq!(launches(4, MatrixDistribution::Single(2), boundary), 1 + 1);
            assert_eq!(launches(4, MatrixDistribution::Copy, boundary), 4 + 4);
        }
    }

    #[test]
    fn iterate_zero_is_the_identity() {
        let c = ctx(2);
        let (rows, cols) = (6, 5);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let out = cross_sum().iterate(&m, 0).unwrap();
        assert_eq!(out.to_vec().unwrap(), data);
    }

    #[test]
    fn iterate_never_writes_the_input() {
        let c = ctx(3);
        let (rows, cols) = (12, 4);
        let data = test_image(rows, cols);
        let m = Matrix::from_vec(&c, rows, cols, data.clone());
        let _ = cross_sum().iterate(&m, 3).unwrap();
        assert_eq!(m.to_vec().unwrap(), data, "input must be untouched");
    }

    #[test]
    fn iterate_stays_on_the_devices() {
        let c = ctx(4);
        let (rows, cols) = (32, 8);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        m.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = cross_sum().iterate(&m, 8).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        // Round 1, then one block of seven rounds: one exchange of 7-row
        // halos over 8-row parts, through the host. Six halos are uploaded
        // (42 rows); each inner part's rows for its two neighbours overlap,
        // so it downloads its 8 rows once, and each outer part its 7 (30
        // rows in 4 downloads). The matrix itself never crosses.
        let rows_of = |n: u64| n * (cols * 4) as u64;
        assert_eq!((delta.d2h_transfers, delta.d2h_bytes), (4, rows_of(30)));
        assert_eq!((delta.h2d_transfers, delta.h2d_bytes), (6, rows_of(42)));
        assert_eq!(delta.d2d_transfers, 0, "no device-to-device copy");
        // Still correct after the ping-pong.
        let want = host_cross_sum(&m.to_vec().unwrap(), (rows, cols), Boundary2D::Neumann, 8);
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn iterate_widens_a_narrow_halo_like_apply() {
        let c = ctx(2);
        let (rows, cols) = (10, 3);
        let m = Matrix::from_vec(&c, rows, cols, test_image(rows, cols));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 0 })
            .unwrap();
        let out = cross_sum().iterate(&m, 2).unwrap();
        assert_eq!(
            m.distribution(),
            MatrixDistribution::RowBlock { halo: 1 },
            "halo must be widened to the radius"
        );
        let want = host_cross_sum(&m.to_vec().unwrap(), (rows, cols), Boundary2D::Neumann, 2);
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn wrap_free_single_part_iterate_counts_no_exchanges() {
        // One part owning all rows: its halo rows are all wrapped edge
        // rows, which a Neumann stencil never reads — so the per-round
        // exchange refreshes nothing and must not count as an event.
        let c = ctx(1);
        let m = Matrix::from_vec(&c, 12, 5, test_image(12, 5));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let before = c.halo_exchange_count();
        cross_sum().iterate(&m, 5).unwrap();
        assert_eq!(c.halo_exchange_count(), before);
    }

    #[test]
    fn iterate_reuses_one_cached_kernel_for_all_rounds() {
        use crate::{Pipeline, PipelineExpr};
        let c = ctx(2);
        let m = Matrix::from_vec(&c, 16, 8, test_image(16, 8));
        let st = cross_sum();
        let before = c.programs_built();
        st.iterate(&m, 6).unwrap();
        assert_eq!(
            c.programs_built(),
            before + 1,
            "every block runs one program"
        );
        // Other block lengths and part shapes, `apply` and a one-stage
        // pipeline stencil run the same program.
        st.iterate(&m, 1).unwrap();
        st.iterate(&m, 9).unwrap();
        let single = Matrix::from_vec(&c, 16, 8, test_image(16, 8));
        single
            .set_distribution(MatrixDistribution::Single(1))
            .unwrap();
        st.iterate(&single, 4).unwrap();
        st.apply(&m).unwrap();
        Pipeline::start::<f32>()
            .stencil(cross_user(), 1, Boundary2D::Neumann)
            .run(&m)
            .unwrap();
        assert_eq!(c.programs_built(), before + 1, "one program for every path");
        let resident = c.program_registry().programs();
        assert_eq!(resident.len(), 1, "exactly one program is resident");
        assert_eq!(resident[0].hash(), st.program().hash());
    }

    #[test]
    fn apply_models_exactly_the_window_of_a_one_round_iterate() {
        // Four Tesla parts of a warm plate: `apply` is `iterate(x, 1)`'s
        // round, on the same modeled timeline.
        let c = tesla(4);
        let m = plate(&c, 256, 128);
        let st = heat();
        st.apply(&m).unwrap();
        let applied = modeled_s(&c, || drop(st.apply(&m).unwrap()));
        let iterated = modeled_s(&c, || drop(st.iterate(&m, 1).unwrap()));
        assert!(applied > 0.0);
        assert_eq!(applied, iterated);
    }

    #[test]
    fn a_one_round_iterate_builds_everything_longer_iterates_run() {
        let c = ctx(4);
        let m = Matrix::from_vec(&c, 64, 24, test_image(64, 24));
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let st = cross_sum();
        st.iterate(&m, 1).unwrap();
        let (misses, builds) = (
            c.program_cache_misses(),
            c.platform().stats_snapshot().source_builds,
        );
        st.iterate(&m, 20).unwrap();
        assert_eq!(c.program_cache_misses(), misses, "no registry miss");
        assert_eq!(
            c.platform().stats_snapshot().source_builds,
            builds,
            "no source build"
        );
    }

    #[test]
    fn boundary_modes_produce_distinct_programs() {
        let mk = |b: Boundary2D| {
            let user = UserFn::new(
                "f",
                "float f(__global float* in, int r, int c, uint nr, uint nc) { return 0.0f; }",
                |v: &Stencil2DView<'_, f32>| v.get(0, 0),
            );
            Stencil2D::new(user, 1, b).program().hash()
        };
        let n = mk(Boundary2D::Neumann);
        let w = mk(Boundary2D::Wrap);
        let z = mk(Boundary2D::Zero);
        assert_ne!(n, w);
        assert_ne!(w, z);
        assert_ne!(n, z);
    }
}
