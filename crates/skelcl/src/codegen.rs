//! OpenCL-C source generation: merging user functions into skeleton
//! templates.
//!
//! The paper (Section III): *"SkelCL generates OpenCL code (kernel
//! functions) from skeletons which is then compiled by OpenCL at runtime.
//! User-defined customizing functions passed to the skeletons are merged
//! with pre-implemented skeleton code during code generation. Since OpenCL
//! is not able to pass function pointers to GPU functions, user-defined
//! functions are passed as strings in SkelCL."*
//!
//! In this Rust reproduction every customizing function is a **twin**: an
//! OpenCL-C-style source string (driving code generation, the binary cache
//! and the LoC experiments) plus a Rust closure (driving execution). The
//! [`crate::skel_fn!`] macro produces both from a single definition, so user
//! code still writes the function exactly once, as in the paper's Listing 1.

use vgpu::Program;

/// A customizing function: name + source string + executable twin.
///
/// `F` is the Rust closure type; its call signature is fixed by the
/// skeleton that consumes the function (unary for Map, binary for
/// Zip/Reduce/Scan, ...).
#[derive(Clone)]
pub struct UserFn<F> {
    name: String,
    source: String,
    /// Issue-cost estimate for one call, derived from the source text.
    static_ops: u64,
    f: F,
}

impl<F> UserFn<F> {
    /// Build from an explicit name, source string and closure — the direct
    /// analogue of SkelCL's plain-string constructor:
    /// `Zip<float> mult("float mult(float x,float y){return x*y;}")`.
    pub fn new(name: impl Into<String>, source: impl Into<String>, f: F) -> Self {
        let name = name.into();
        let source = source.into();
        let static_ops = estimate_static_ops(&source);
        UserFn {
            name,
            source,
            static_ops,
            f,
        }
    }

    /// The function's name, spliced into kernel templates as the call site.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function's source string.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Static per-call cost estimate (see [`estimate_static_ops`]).
    pub fn static_ops(&self) -> u64 {
        self.static_ops
    }

    /// The executable twin.
    pub fn func(&self) -> &F {
        &self.f
    }

    /// Override the static cost estimate (for user functions whose source
    /// text poorly predicts their cost; loops should instead report
    /// dynamically via [`crate::work`]).
    pub fn with_static_ops(mut self, ops: u64) -> Self {
        self.static_ops = ops;
        self
    }
}

impl<F> std::fmt::Debug for UserFn<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UserFn")
            .field("name", &self.name)
            .field("static_ops", &self.static_ops)
            .field("source_len", &self.source.len())
            .finish()
    }
}

/// Defines a customizing function once, yielding both its executable Rust
/// form and its source string (the paper passes the latter to the skeleton
/// constructors).
///
/// ```
/// let mult = skelcl::skel_fn!(fn mult(x: f32, y: f32) -> f32 { x * y });
/// assert_eq!(mult.name(), "mult");
/// assert!(mult.source().contains("x * y"));
/// assert_eq!((mult.func())(3.0, 4.0), 12.0);
/// ```
#[macro_export]
macro_rules! skel_fn {
    (fn $name:ident ( $($arg:ident : $at:ty),* $(,)? ) -> $rt:ty $body:block) => {{
        fn $name($($arg: $at),*) -> $rt $body
        $crate::UserFn::new(
            stringify!($name),
            stringify!(fn $name($($arg: $at),*) -> $rt $body),
            $name as fn($($at),*) -> $rt,
        )
    }};
}

/// Estimate the issue cost of one call of a user function from its source:
/// one unit per arithmetic/comparison token, with a floor of 1. Loops must
/// report their dynamic cost through [`crate::work`]; this static estimate
/// covers straight-line bodies like `x * y` or a saturation clamp.
pub fn estimate_static_ops(source: &str) -> u64 {
    let mut ops = 0u64;
    let mut chars = source.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '-' if chars.peek() == Some(&'>') => {
                // Return-type arrow, not a subtraction.
                chars.next();
            }
            '/' if chars.peek() == Some(&'/') || chars.peek() == Some(&'*') => {
                // Comment opener, not a division.
                chars.next();
            }
            '+' | '-' | '*' | '/' | '%' => ops += 1,
            _ => {}
        }
    }
    ops.max(1)
}

/// Names a generated program uniquely: skeleton kind + user function name +
/// element types.
fn program_name(skeleton: &str, fn_name: &str, types: &[&str]) -> String {
    format!("skelcl_{}_{}_{}", skeleton, fn_name, types.join("_"))
}

/// Generate the two-level Reduce skeleton program for an associative
/// `T f(T, T)` (paper Section III-B: intermediate results in local memory).
pub fn reduce_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: Reduce skeleton (local-memory tree)\n\
         {fn_source}\n\
         __kernel void skelcl_reduce(__global const {t}* restrict in,\n\
                                     __global {t}* restrict partials,\n\
                                     const uint n,\n\
                                     __local {t}* scratch) {{\n\
             uint gid = get_global_id(0);\n\
             uint lid = get_local_id(0);\n\
             uint group = get_group_id(0);\n\
             uint lsize = get_local_size(0);\n\
             scratch[lid] = (gid < n) ? in[gid] : ({t})0;\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             for (uint s = lsize / 2; s > 0; s >>= 1) {{\n\
                 if (lid < s) {{\n\
                     scratch[lid] = {fn_name}(scratch[lid], scratch[lid + s]);\n\
                 }}\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
             }}\n\
             if (lid == 0) partials[group] = scratch[0];\n\
         }}\n"
    );
    Program::from_source(program_name("reduce", fn_name, &[t]), source).with_arg_count(4)
}

/// Generate the Scan skeleton program: work-efficient Blelloch scan with
/// bank-conflict-avoiding padding (modified from Harris et al., GPU Gems 3
/// ch. 39, as the paper states).
pub fn scan_program(fn_name: &str, fn_source: &str, t: &str) -> Program {
    let source = format!(
        "// generated by SkelCL codegen: Scan skeleton (Blelloch, CONFLICT_FREE_OFFSET)\n\
         #define CONFLICT_FREE_OFFSET(i) ((i) + ((i) >> 4))\n\
         {fn_source}\n\
         __kernel void skelcl_scan_block(__global const {t}* restrict in,\n\
                                         __global {t}* restrict out,\n\
                                         __global {t}* restrict block_sums,\n\
                                         const uint n,\n\
                                         const {t} identity,\n\
                                         __local {t}* temp) {{\n\
             uint lid = get_local_id(0);\n\
             uint group = get_group_id(0);\n\
             uint lsize = get_local_size(0);\n\
             uint base = group * lsize * 2;\n\
             uint ai = lid, bi = lid + lsize;\n\
             temp[CONFLICT_FREE_OFFSET(ai)] = (base + ai < n) ? in[base + ai] : identity;\n\
             temp[CONFLICT_FREE_OFFSET(bi)] = (base + bi < n) ? in[base + bi] : identity;\n\
             uint offset = 1;\n\
             for (uint d = lsize; d > 0; d >>= 1) {{ // up-sweep\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
                 if (lid < d) {{\n\
                     uint i = offset * (2 * lid + 1) - 1;\n\
                     uint j = offset * (2 * lid + 2) - 1;\n\
                     temp[CONFLICT_FREE_OFFSET(j)] = {fn_name}(temp[CONFLICT_FREE_OFFSET(i)], temp[CONFLICT_FREE_OFFSET(j)]);\n\
                 }}\n\
                 offset <<= 1;\n\
             }}\n\
             if (lid == 0) {{\n\
                 block_sums[group] = temp[CONFLICT_FREE_OFFSET(2 * lsize - 1)];\n\
                 temp[CONFLICT_FREE_OFFSET(2 * lsize - 1)] = identity;\n\
             }}\n\
             for (uint d = 1; d <= lsize; d <<= 1) {{ // down-sweep\n\
                 offset >>= 1;\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
                 if (lid < d) {{\n\
                     uint i = offset * (2 * lid + 1) - 1;\n\
                     uint j = offset * (2 * lid + 2) - 1;\n\
                     {t} tmp = temp[CONFLICT_FREE_OFFSET(i)];\n\
                     temp[CONFLICT_FREE_OFFSET(i)] = temp[CONFLICT_FREE_OFFSET(j)];\n\
                     temp[CONFLICT_FREE_OFFSET(j)] = {fn_name}(tmp, temp[CONFLICT_FREE_OFFSET(j)]);\n\
                 }}\n\
             }}\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             if (base + ai < n) out[base + ai] = temp[CONFLICT_FREE_OFFSET(ai)];\n\
             if (base + bi < n) out[base + bi] = temp[CONFLICT_FREE_OFFSET(bi)];\n\
         }}\n\
         __kernel void skelcl_scan_add_offsets(__global {t}* restrict data,\n\
                                               __global const {t}* restrict offsets,\n\
                                               const uint n) {{\n\
             uint gid = get_global_id(0);\n\
             if (gid < n) data[gid] = {fn_name}(offsets[get_group_id(0) / 2], data[gid]);\n\
         }}\n"
    );
    Program::from_source(program_name("scan", fn_name, &[t]), source).with_arg_count(6)
}

// ---------------------------------------------------------------------------
// Skeleton families with fused stages (expression-template kernel fusion).
//
// A `Pipeline` (see `crate::skeletons::pipeline`) collapses a chain of
// element-wise stages into the body of a neighbouring stencil / fold / map
// kernel, and a run of stencil stages into one block kernel, and
// `AllPairs::with_post` fuses element-wise stages into its writes. Each family
// has one generator, which takes the stage list: every stage's
// user-function source is pasted once and the kernel body chains the
// calls, so no intermediate buffer ever appears in the emitted code. The
// joined stage names (and, for stencils, radii and boundary modes) go into
// the program name — the fused program is cached in the `ProgramRegistry`
// under that key exactly like any single-skeleton program. The skeleton
// itself builds the family's stage-free (or, for `Map`, `Zip` and
// `Stencil2D`, one-stage) member, so a pipeline over the same user
// function shares its program: `elementwise_program` serves every `Map`
// and `Zip` variant, `stencil2d_block_program` every `Stencil2D` launch,
// `fold_program` `ReduceRows` and `ReduceCols`, and `allpairs_program`
// both `AllPairs` strategies.

/// One stage of a fused pipeline group, as codegen sees it.
#[derive(Clone, Debug)]
pub struct FusedStage {
    /// `"map"`, `"zip"`, `"stencil"` or `"stencil_pair"` — determines the
    /// call shape in the emitted chain and the extra kernel arguments
    /// (each `zip` stage threads one more operand buffer).
    pub kind: &'static str,
    /// The user function's name (call site in the chain).
    pub name: String,
    /// The user function's source, pasted above the kernel.
    pub source: String,
    /// Static per-call cost estimate (summed into the fused kernel's
    /// per-item issue cost by the pipeline launcher; codegen ignores it).
    pub static_ops: u64,
    /// A `zip` stage's operand element type, or a stencil stage's window
    /// element type (see [`FusedStage::with_operand`] and
    /// [`FusedStage::with_window`]).
    pub operand_t: &'static str,
    /// A stencil stage's radius.
    pub radius: usize,
    /// A stencil stage's boundary mode (its `codegen_name`).
    pub boundary: &'static str,
}

impl FusedStage {
    pub fn new(
        kind: &'static str,
        name: impl Into<String>,
        source: impl Into<String>,
        static_ops: u64,
    ) -> Self {
        FusedStage {
            kind,
            name: name.into(),
            source: source.into(),
            static_ops,
            operand_t: "",
            radius: 0,
            boundary: "",
        }
    }

    /// This `zip` stage, reading operand elements of type `t`.
    pub fn with_operand(mut self, t: &'static str) -> Self {
        self.operand_t = t;
        self
    }

    /// This stencil stage, reading a window of `t` `radius` cells deep
    /// under `boundary`.
    pub fn with_window(mut self, t: &'static str, radius: usize, boundary: &'static str) -> Self {
        self.operand_t = t;
        self.radius = radius;
        self.boundary = boundary;
        self
    }
}

/// The `+`-joined stage names — the structural part of a fused program's
/// cache key (`a+b+c` differs from `a+c+b`: fusion order matters).
pub(crate) fn fused_chain_name(stages: &[FusedStage]) -> String {
    stages
        .iter()
        .map(|s| s.name.as_str())
        .collect::<Vec<_>>()
        .join("+")
}

/// The skeleton's own user-function sources `own`, then one paste per
/// stage.
fn fused_sources(own: &[&str], stages: &[FusedStage]) -> String {
    own.iter()
        .copied()
        .chain(stages.iter().map(|s| s.source.as_str()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The nested call chain `s_n(...s_1(s_0(expr))...)` for an element-wise
/// stage run. Each `zip` stage reads its own operand buffer at `index`, the
/// index `seed` was read at, so it shows up as a two-argument call; `first`
/// is the run's position in the kernel's stage list, which numbers the
/// operands. `extra` (the `, arg0, …` list of a with-arguments skeleton,
/// else empty) ends every call.
fn fused_value_chain(
    stages: &[FusedStage],
    first: usize,
    seed: &str,
    index: &str,
    extra: &str,
) -> String {
    let mut expr = seed.to_string();
    for (i, s) in stages.iter().enumerate() {
        expr = match s.kind {
            "zip" => format!("{}({expr}, op{}[{index}]{extra})", s.name, first + i),
            _ => format!("{}({expr}{extra})", s.name),
        };
    }
    expr
}

/// The extra `__global` operand-buffer parameters a stage list needs: one
/// per `zip` stage (named `op<stage index>`).
fn fused_zip_params(stages: &[FusedStage]) -> (String, usize) {
    let mut params = String::new();
    let mut count = 0;
    for (i, s) in stages.iter().enumerate() {
        if s.kind == "zip" {
            params.push_str(&format!(
                ",\n__global const {}* restrict op{i}",
                s.operand_t
            ));
            count += 1;
        }
    }
    (params, count)
}

/// Generate the element-wise program behind every `Map` and `Zip` variant
/// and every pipeline element-wise group: an N-stage `map`/`zip` chain
/// collapsed into one kernel over a part's contiguous span — one launch,
/// zero intermediate buffers, however long the chain. The parameters are
/// `(in, out, one operand per zip stage, n, one per extra argument)`, and
/// every stage call receives the extra arguments after its operands. An
/// `out_t` of `void` (`MapVoid`) runs the chain for its side effects and
/// writes nothing.
pub fn elementwise_program(
    stages: &[FusedStage],
    in_t: &str,
    out_t: &str,
    extra_args: usize,
) -> Program {
    let extras: String = (0..extra_args).map(|k| format!(", arg{k}")).collect();
    let chain = fused_value_chain(stages, 0, "in[i]", "i", &extras);
    let body = if out_t == "void" {
        chain
    } else {
        format!("out[i] = {chain}")
    };
    let (zip_params, n_zips) = fused_zip_params(stages);
    let extra_params: String = (0..extra_args)
        .map(|k| format!(", __global const char* restrict arg{k}"))
        .collect();
    let source = format!(
        "// generated by SkelCL codegen: element-wise skeleton\n\
         {}\n\
         __kernel void skelcl_elementwise(__global const {in_t}* restrict in,\n\
                                  __global {out_t}* restrict out{zip_params},\n\
                                  const uint n{extra_params}) {{\n\
             uint i = get_global_id(0);\n\
             if (i < n) {{\n\
                 {body};\n\
             }}\n\
         }}\n",
        fused_sources(&[], stages),
    );
    Program::from_source(
        program_name("elementwise", &fused_chain_name(stages), &[in_t, out_t]),
        source,
    )
    .with_arg_count(3 + n_zips + extra_args)
}

/// Generate the local-memory block program behind every
/// [`crate::Stencil2D`] launch and every [`crate::Pipeline`] stencil
/// chain. `stages` holds one or more `stencil`/`stencil_pair`
/// stages, each carrying its window (see [`FusedStage::with_window`]), and
/// the element-wise stages around and between them.
///
/// Each work-group loads its tile's window (the stencils' radii summed
/// beyond the tile on every side, or `rounds` radii for `iterate`) into
/// local memory once, running the stages before the first stencil on every
/// loaded cell. Each stencil then computes one round into the next window,
/// a radius narrower on every side and of its result's type, running the
/// element-wise stages after it on every stored cell; the last stencil
/// writes the tile once, running the stages after it. A zip operand is read
/// at the index of the cell its stage runs on. Under `neumann` a window's
/// cells outside the matrix are refreshed from their clamp targets after
/// it fills; under `zero` they keep the zero they start with; `wrap` loads
/// every cell modulo the matrix dimensions. A chain is all `wrap` or none.
/// The stencils' sources are pasted with their pointers in the local
/// address space, and `stencil_at` reads a window without boundary
/// arithmetic (one typed copy per window type when the types differ).
///
/// A lone same-type stencil builds the program of its `Stencil2D`'s
/// `apply` and `iterate`: it steps `rounds` rounds between two windows
/// around a tile of `tw × th` cells, a whole multiple of the work-group,
/// each lane writing the tile cells `get_local_size` apart. The round count
/// and the tile are one kernel argument, `block = (rounds, tw, th)`, and
/// the windows are `__local` arguments sized at launch, so one program
/// serves every block length, tile and part shape. Every other chain
/// computes one round per stencil over a tile of the work-group's size,
/// one `__local` window argument each.
pub fn stencil2d_block_program(stages: &[FusedStage], in_t: &str, out_t: &str) -> Program {
    let anchors: Vec<usize> = (0..stages.len())
        .filter(|&i| stages[i].kind.starts_with("stencil"))
        .collect();
    let windows: Vec<&FusedStage> = anchors.iter().map(|&i| &stages[i]).collect();
    let (first, n) = (windows[0], windows.len());
    // Each window's depth inside the block window: the radii before it.
    let offsets: Vec<usize> = windows
        .iter()
        .scan(0, |d, s| {
            *d += s.radius;
            Some(*d - s.radius)
        })
        .collect();
    let radius = offsets[n - 1] + windows[n - 1].radius;
    let join = |f: fn(&FusedStage) -> String| {
        let all: Vec<String> = windows.iter().map(|s| f(s)).collect();
        all.join("+")
    };
    let radii = join(|s| s.radius.to_string());
    let boundary = match windows.iter().all(|s| s.boundary == first.boundary) {
        true => first.boundary.to_string(),
        false => join(|s| s.boundary.to_string()),
    };
    let mut types: Vec<&str> = windows.iter().map(|s| s.operand_t).collect();
    types.sort_unstable();
    types.dedup();
    let (t, uniform) = (first.operand_t, types.len() == 1);
    let sfx = |t: &str| match uniform {
        true => String::new(),
        false => format!("_{t}"),
    };
    let rounds = stages.len() == 1 && in_t == out_t;
    let wrap = first.boundary == "wrap";
    let at = if wrap {
        "((rr % (int)n_rows + (int)n_rows) % (int)n_rows) * n_cols\n\
         + (cc % (int)n_cols + (int)n_cols) % (int)n_cols"
    } else {
        "rr * n_cols + cc"
    };
    let guard = if wrap {
        ""
    } else {
        "if (rr >= 0 && rr < (int)n_rows && cc >= 0 && cc < (int)n_cols)\n"
    };
    let read = fused_value_chain(&stages[..anchors[0]], 0, &format!("in[{at}]"), at, "");
    let load = format!("{guard}win_in[i] = {read};");
    let win = |k: usize| match k {
        0 => ("win_in".to_string(), "wh, ww".to_string()),
        k => (format!("win{k}"), format!("wh{k}, ww{k}")),
    };
    // Only windows reaching past the matrix edge have cells to refresh;
    // the test is uniform across the work-group.
    let refresh = |name: &str, k: usize| {
        if windows[k].boundary != "neumann" {
            return String::new();
        }
        let (d, t) = (offsets[k], sfx(windows[k].operand_t));
        let at = match d {
            0 => "ww, wh, row0, col0".to_string(),
            d => format!("ww{k}, wh{k}, row0 + {d}, col0 + {d}"),
        };
        format!(
            "if (row0 < 0 || col0 < 0 || row0 + (int)wh > (int)n_rows || col0 + (int)ww > (int)n_cols) {{\n\
                 refresh_outside{t}({name}, lane, lw * lh, {at}, n_rows, n_cols);\n\
                 barrier(CLK_LOCAL_MEM_FENCE);\n\
             }}"
        )
    };
    let refresh_in = refresh("win_in", 0);
    // The element-wise stages after stencil `k`, applied to `value`.
    let after = |k: usize, value: String, index: &str| {
        let end = anchors.get(k + 1).copied().unwrap_or(stages.len());
        fused_value_chain(
            &stages[anchors[k] + 1..end],
            anchors[k] + 1,
            &value,
            index,
            "",
        )
    };
    let (last, (last_win, last_dims)) = (n - 1, win(n - 1));
    let centre = if last == 0 {
        "halo".to_string()
    } else {
        windows[last].radius.to_string()
    };
    // The tile cell a lane writes: its own in a chain's work-group-sized
    // tile, or every one `get_local_size` apart in a lone stencil's tile.
    let (ty, tx) = match rounds {
        true => ("ty", "tx"),
        false => ("get_local_id(1)", "get_local_id(0)"),
    };
    let write = after(
        last,
        format!(
            "{}({last_win}, {ty} + {centre},\n\
                     {tx} + {centre}, {last_dims})",
            windows[last].name
        ),
        "row * n_cols + col",
    );
    let store = format!(
        "if (row < n_rows && col < n_cols) {{\n\
             out[row * n_cols + col] = {write};\n\
         }}"
    );
    // A lone stencil's tile comes with its round count; a chain's is the
    // work-group.
    let (tile, tw, th, write_loop) = if rounds {
        (
            "uint rounds = block.x;\n\
             uint tw = block.y;\n\
             uint th = block.z;\n",
            "tw",
            "th",
            format!(
                "for (uint ty = get_local_id(1); ty < th; ty += lh) {{\n\
                     for (uint tx = get_local_id(0); tx < tw; tx += lw) {{\n\
                         uint col = get_group_id(0) * tw + tx;\n\
                         uint row = get_group_id(1) * th + ty + row_offset;\n\
                         {store}\n\
                     }}\n\
                 }}\n"
            ),
        )
    } else {
        (
            "",
            "lw",
            "lh",
            format!(
                "uint col = get_global_id(0);\n\
                 uint row = get_global_id(1) + row_offset;\n\
                 {store}\n"
            ),
        )
    };
    let (what, does, params, halo, round_loop) = if rounds {
        // Cells outside the matrix are never computed: `neumann` refreshes
        // them, `zero` keeps them zero.
        let inside = if wrap {
            ""
        } else {
            " && row0 + (int)wr >= 0 && row0 + (int)wr < (int)n_rows \
             && col0 + (int)wc >= 0 && col0 + (int)wc < (int)n_cols"
        };
        let refresh_out = refresh("win_out", 0);
        let user = &first.name;
        (
            "blocked stencil",
            "steps `block.x` rounds over tiles of `block.y` by `block.z` cells in local memory",
            format!(
                "const uint4 block,\n\
                 __local {t}* win_in,\n\
                 __local {t}* win_out"
            ),
            "rounds * ",
            format!(
                "for (uint j = 1; j < rounds; ++j) {{\n\
                     uint m = j * {radius};\n\
                     for (uint i = lane; i < ww * wh; i += lw * lh) {{\n\
                         uint wr = i / ww;\n\
                         uint wc = i % ww;\n\
                         if (wr >= m && wr < wh - m && wc >= m && wc < ww - m{inside})\n\
                             win_out[i] = {user}(win_in, wr, wc, wh, ww);\n\
                     }}\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                     {refresh_out}\n\
                     __local {t}* swap = win_in;\n\
                     win_in = win_out;\n\
                     win_out = swap;\n\
                 }}\n"
            ),
        )
    } else {
        // Every stencil but the last computes the next window in full.
        let steps: String = (0..last)
            .map(|k| {
                let (m, r, (inp, dims)) = (offsets[k + 1], windows[k].radius, win(k));
                let value = format!(
                    "{}({inp}, i / ww{j} + {r}, i % ww{j} + {r}, {dims})",
                    windows[k].name,
                    j = k + 1
                );
                format!(
                    "for (uint i = lane; i < ww{j} * wh{j}; i += lw * lh) {{\n\
                         int rr = row0 + {m} + (int)(i / ww{j});\n\
                         int cc = col0 + {m} + (int)(i % ww{j});\n\
                         {guard}win{j}[i] = {};\n\
                     }}\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                     {}\n",
                    after(k, value, at),
                    refresh(&format!("win{}", k + 1), k + 1),
                    j = k + 1
                )
            })
            .collect();
        let params = (0..n)
            .map(|k| format!("__local {}* {}", windows[k].operand_t, win(k).0))
            .collect::<Vec<_>>()
            .join(",\n");
        (
            "staged stencil chain",
            "computes its tiles once through a local-memory window per stencil",
            params,
            "",
            steps,
        )
    };
    let sizes: String = (1..n)
        .map(|k| {
            format!(
                "uint ww{k} = ww - {d};\nuint wh{k} = wh - {d};\n",
                d = 2 * offsets[k]
            )
        })
        .collect();
    let (zip_params, n_zips) = fused_zip_params(stages);
    let helpers: String = types
        .iter()
        .map(|&t| {
            format!(
                "inline {t} stencil_at{s}(__local const {t}* in, int row, int col,\n\
                                   uint n_rows, uint n_cols, int dr, int dc) {{\n\
                     return in[(row + dr) * (int)n_cols + col + dc];\n\
                 }}\n\
                 inline void refresh_outside{s}(__local {t}* win, uint lane, uint lanes, uint ww, uint wh,\n\
                                             int row0, int col0, uint n_rows, uint n_cols) {{\n\
                     for (uint i = lane; i < ww * wh; i += lanes) {{\n\
                         int tr = clamp(row0 + (int)(i / ww), 0, (int)n_rows - 1) - row0;\n\
                         int tc = clamp(col0 + (int)(i % ww), 0, (int)n_cols - 1) - col0;\n\
                         win[i] = win[tr * (int)ww + tc];\n\
                     }}\n\
                 }}\n",
                s = sfx(t)
            )
        })
        .collect();
    let sources = stages
        .iter()
        .map(|s| match s.kind {
            "map" | "zip" => s.source.clone(),
            _ => s
                .source
                .replace("__global", "__local")
                .replace("stencil_at(", &format!("stencil_at{}(", sfx(s.operand_t))),
        })
        .collect::<Vec<_>>()
        .join("\n");
    let source = format!(
        "// generated by SkelCL codegen: {what}, radius {radii}, {boundary} boundary\n\
         // One launch {does}.\n\
         {helpers}\
         {sources}\n\
         __kernel void skelcl_stencil2d_block(__global const {in_t}* restrict in,\n\
                                              __global {out_t}* restrict out{zip_params},\n\
                                              const uint n_rows,\n\
                                              const uint n_cols,\n\
                                              const uint row_offset,\n\
                                              {params}) {{\n\
             uint lw = get_local_size(0);\n\
             uint lh = get_local_size(1);\n\
             uint lane = get_local_id(1) * lw + get_local_id(0);\n\
             {tile}\
             uint halo = {halo}{radius};\n\
             uint ww = {tw} + 2 * halo;\n\
             uint wh = {th} + 2 * halo;\n\
             int col0 = (int)(get_group_id(0) * {tw}) - (int)halo;\n\
             int row0 = (int)(get_group_id(1) * {th} + row_offset) - (int)halo;\n\
             {sizes}for (uint i = lane; i < ww * wh; i += lw * lh) {{\n\
                 int rr = row0 + (int)(i / ww);\n\
                 int cc = col0 + (int)(i % ww);\n\
                 {load}\n\
             }}\n\
             barrier(CLK_LOCAL_MEM_FENCE);\n\
             {refresh_in}\n\
             {round_loop}\
             {write_loop}\
         }}\n",
    );
    let (name, types): (String, &[&str]) = if rounds {
        (first.name.clone(), &[in_t])
    } else {
        (fused_chain_name(stages), &[in_t, out_t])
    };
    Program::from_source(
        program_name(
            &format!("stencil2d_block_r{radii}_{boundary}"),
            &name,
            types,
        ),
        source,
    )
    .with_arg_count(if rounds { 8 } else { 5 + n_zips + n })
}

/// Which matrix dimension a 2D fold keeps: one output element per row
/// (the columns fold away) or per column (the rows fold away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Rows,
    Cols,
}

impl Axis {
    /// The fold templates' text along this axis: `[skeleton, kernel, walk,
    /// item, items, k, extent, index, first, offset]`. Work-item `item` (one
    /// of `items`) folds `k` over `0..extent`, reading `in[index]`; `first`
    /// is its segment's first element and `offset` the part's position
    /// along the folded dimension.
    fn text(self) -> [&'static str; 10] {
        match self {
            Axis::Rows => [
                "ReduceRows",
                "reduce_rows",
                "row-segmented",
                "row",
                "n_rows",
                "c",
                "n_cols",
                "row * row_stride + c",
                "row * row_stride",
                "col_offset",
            ],
            Axis::Cols => [
                "ReduceCols",
                "reduce_cols",
                "column-strided",
                "col",
                "n_cols",
                "r",
                "n_rows",
                "r * row_stride + col",
                "col",
                "row_offset",
            ],
        }
    }
}

/// Generate the value fold behind [`crate::ReduceRows`] and
/// [`crate::ReduceCols`] and every pipeline `reduce_rows` terminal: one
/// work-item per output element folds its row (`Axis::Rows`, ascending
/// columns) or column (`Axis::Cols`, ascending rows, column-strided reads)
/// from a seed — the identity on the first (or only) segment, the previous
/// segment's partial when the parts split the folded dimension and are
/// chained. The fixed fold order is what makes the result bit-identical
/// across device counts and distributions.
///
/// `stages` run on every element as it is folded (a zip operand is read at
/// the folded element's index), so a map→…→fold pipeline is one launch
/// with zero intermediate buffers. With no stages this is the skeleton's
/// own program, over elements of type `t`.
pub fn fold_program(
    axis: Axis,
    stages: &[FusedStage],
    fn_name: &str,
    fn_source: &str,
    in_t: &str,
    t: &str,
) -> Program {
    let [skeleton, kernel, walk, item, items, k, extent, index, ..] = axis.text();
    let value = fused_value_chain(stages, 0, &format!("in[{index}]"), index, "");
    let (zip_params, n_zips) = fused_zip_params(stages);
    let (fused, name, types) = if stages.is_empty() {
        ("", fn_name.to_string(), vec![t])
    } else {
        let name = format!("{}+{fn_name}", fused_chain_name(stages));
        (", fused stages", name, vec![in_t, t])
    };
    let source = format!(
        "// generated by SkelCL codegen: {skeleton} skeleton ({walk} fold{fused})\n\
         {}\n\
         __kernel void skelcl_{kernel}(__global const {in_t}* restrict in,\n\
                                 __global const {t}* restrict seed,\n\
                                 __global {t}* restrict out{zip_params},\n\
                                 const uint n_rows,\n\
                                 const uint n_cols,\n\
                                 const uint row_stride,\n\
                                 const uint has_seed,\n\
                                 const {t} identity) {{\n\
             uint {item} = get_global_id(0);\n\
             if ({item} < {items}) {{\n\
                 {t} acc = has_seed ? seed[{item}] : identity;\n\
                 for (uint {k} = 0; {k} < {extent}; ++{k}) {{\n\
                     acc = {fn_name}(acc, {value});\n\
                 }}\n\
                 out[{item}] = acc;\n\
             }}\n\
         }}\n",
        fused_sources(&[fn_source], stages),
    );
    Program::from_source(program_name(kernel, &name, &types), source).with_arg_count(8 + n_zips)
}

/// Generate the index-carrying fold behind [`crate::ReduceRowsArg`] and
/// [`crate::ReduceColsArg`]: per row (column), a strictly-better comparison
/// scan in ascending column (row) order keeps the best value **and its
/// global index** along the folded dimension (lowest index wins ties,
/// because only a strict improvement replaces the incumbent). Chained parts
/// seed from the previous segment's (value, index) pair.
pub fn argbest_program(axis: Axis, fn_name: &str, fn_source: &str, t: &str) -> Program {
    let [skeleton, kernel, _, item, items, k, extent, index, first, offset] = axis.text();
    let source = format!(
        "// generated by SkelCL codegen: {skeleton}Arg skeleton (argbest scan)\n\
         {fn_source}\n\
         __kernel void skelcl_{kernel}_arg(__global const {t}* restrict in,\n\
                                     __global const {t}* restrict seed_val,\n\
                                     __global const uint* restrict seed_idx,\n\
                                     __global {t}* restrict out_val,\n\
                                     __global uint* restrict out_idx,\n\
                                     const uint n_rows,\n\
                                     const uint n_cols,\n\
                                     const uint row_stride,\n\
                                     const uint {offset},\n\
                                     const uint has_seed) {{\n\
             uint {item} = get_global_id(0);\n\
             if ({item} < {items}) {{\n\
                 {t} best = has_seed ? seed_val[{item}] : in[{first}];\n\
                 uint best_i = has_seed ? seed_idx[{item}] : {offset};\n\
                 for (uint {k} = has_seed ? 0 : 1; {k} < {extent}; ++{k}) {{\n\
                     {t} x = in[{index}];\n\
                     if ({fn_name}(x, best)) {{ best = x; best_i = {offset} + {k}; }}\n\
                 }}\n\
                 out_val[{item}] = best;\n\
                 out_idx[{item}] = best_i;\n\
             }}\n\
         }}\n"
    );
    Program::from_source(
        program_name(&format!("{kernel}_arg"), fn_name, &[t]),
        source,
    )
    .with_arg_count(10)
}

/// Generate the AllPairs program behind [`crate::AllPairs`]: per output
/// element, `zip(A[i][k], B[k][j])` combined across the inner dimension
/// with `reduce` in ascending `k` (SkelCL's later `AllPairs(M, N)` skeleton
/// restricted to the zip-reduce form that admits the fast tiled
/// implementation), then the `post` chain applied once before the single
/// write (`AllPairs::with_post` fuses e.g. the square root of a pairwise
/// Euclidean distance into the kernel instead of launching a separate Map).
///
/// `tile == 0` streams both operands from global memory, one work-item per
/// element. Otherwise each `tile × tile` work-group stages an A-row-strip
/// tile and a B-col-strip tile in local memory and every item combines
/// from there, cutting global traffic by a factor of `tile` (the classic
/// blocked matrix-multiply scheme). The tile dimension changes the emitted
/// code — and the local-memory footprint — so it is part of the program
/// name and thus the kernel cache key, as is the post chain.
#[allow(clippy::too_many_arguments)]
pub fn allpairs_program(
    zip_name: &str,
    zip_source: &str,
    reduce_name: &str,
    reduce_source: &str,
    post: &[FusedStage],
    in_t: &str,
    out_t: &str,
    tile: usize,
) -> Program {
    let write = fused_value_chain(post, 0, "acc", "row * n + col", "");
    let (fused, name) = if post.is_empty() {
        ("", format!("{zip_name}_{reduce_name}"))
    } else {
        (
            ", fused post chain",
            format!("{zip_name}_{reduce_name}+{}", fused_chain_name(post)),
        )
    };
    let sources = fused_sources(&[zip_source, reduce_source], post);
    let params = format!(
        "__global const {in_t}* restrict a,\n\
         __global const {in_t}* restrict b,\n\
         __global {out_t}* restrict c,\n\
         const uint m,\n\
         const uint k,\n\
         const uint n,\n\
         const {out_t} identity"
    );
    let (skeleton, source, n_args) = if tile == 0 {
        let source = format!(
            "// generated by SkelCL codegen: AllPairs skeleton (naive{fused})\n\
             {sources}\n\
             __kernel void skelcl_allpairs({params}) {{\n\
                 uint col = get_global_id(0);\n\
                 uint row = get_global_id(1);\n\
                 if (row < m && col < n) {{\n\
                     {out_t} acc = identity;\n\
                     for (uint kk = 0; kk < k; ++kk) {{\n\
                         acc = {reduce_name}(acc, {zip_name}(a[row * k + kk], b[kk * n + col]));\n\
                     }}\n\
                     c[row * n + col] = {write};\n\
                 }}\n\
             }}\n"
        );
        ("allpairs".to_string(), source, 7)
    } else {
        let source = format!(
            "// generated by SkelCL codegen: AllPairs skeleton (tiled, {tile}x{tile} local tiles{fused})\n\
             #define TILE {tile}\n\
             {sources}\n\
             __kernel void skelcl_allpairs_tiled({params},\n\
                                                 __local {in_t}* a_tile,\n\
                                                 __local {in_t}* b_tile) {{\n\
                 uint col = get_global_id(0);\n\
                 uint row = get_global_id(1);\n\
                 uint lx = get_local_id(0);\n\
                 uint ly = get_local_id(1);\n\
                 {out_t} acc = identity;\n\
                 for (uint t = 0; t < (k + TILE - 1) / TILE; ++t) {{\n\
                     uint ka = t * TILE + lx;\n\
                     uint kb = t * TILE + ly;\n\
                     a_tile[ly * TILE + lx] = (row < m && ka < k) ? a[row * k + ka] : identity;\n\
                     b_tile[ly * TILE + lx] = (col < n && kb < k) ? b[kb * n + col] : identity;\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                     uint span = min((uint)TILE, k - t * TILE);\n\
                     for (uint kk = 0; kk < span; ++kk) {{\n\
                         acc = {reduce_name}(acc, {zip_name}(a_tile[ly * TILE + kk], b_tile[kk * TILE + lx]));\n\
                     }}\n\
                     barrier(CLK_LOCAL_MEM_FENCE);\n\
                 }}\n\
                 if (row < m && col < n) c[row * n + col] = {write};\n\
             }}\n"
        );
        (format!("allpairs_tiled{tile}"), source, 9)
    };
    Program::from_source(program_name(&skeleton, &name, &[in_t, out_t]), source)
        .with_arg_count(n_args)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skel_fn_macro_produces_both_twins() {
        let mult = crate::skel_fn!(
            fn mult(x: f32, y: f32) -> f32 {
                x * y
            }
        );
        assert_eq!(mult.name(), "mult");
        assert!(mult.source().contains("fn mult"));
        assert!(mult.source().contains("x * y"));
        assert_eq!((mult.func())(6.0, 7.0), 42.0);
        assert_eq!(mult.static_ops(), 1);
    }

    #[test]
    fn static_ops_counts_arithmetic() {
        assert_eq!(estimate_static_ops("x * y"), 1);
        assert_eq!(estimate_static_ops("a + b * c - d"), 3);
        // floor of 1 for pure data movement
        assert_eq!(estimate_static_ops("x"), 1);
    }

    fn map_stage(name: &str, source: &str) -> FusedStage {
        FusedStage::new("map", name, source, 1)
    }

    #[test]
    fn map_program_embeds_user_source_and_callsite() {
        let square = map_stage("square", "float square(float x){return x*x;}");
        let p = elementwise_program(&[square], "float", "float", 0);
        assert!(p.source.contains("float square(float x)"));
        assert!(p.source.contains("out[i] = square(in[i])"));
        assert!(p.source.contains("__kernel void skelcl_elementwise"));
        assert_eq!(p.n_args, 3);
    }

    #[test]
    fn extra_args_extend_the_signature() {
        let f = map_stage("f", "float f(float x){return x;}");
        let p = elementwise_program(std::slice::from_ref(&f), "float", "float", 2);
        assert!(p.source.contains("f(in[i], arg0, arg1)"));
        assert_eq!(p.n_args, 5);
        // A side-effect-only map keeps the output slot and writes nothing.
        let v = elementwise_program(&[f], "float", "void", 1);
        assert!(v.source.contains("f(in[i], arg0);"));
        assert!(!v.source.contains("out[i] ="));
        assert_eq!(v.n_args, 4);
    }

    #[test]
    fn zip_reduce_scan_programs_are_distinct() {
        let mult = FusedStage::new("zip", "mult", "float mult(float x,float y){return x*y;}", 1)
            .with_operand("float");
        let z = elementwise_program(&[mult], "float", "float", 0);
        assert!(z.source.contains("out[i] = mult(in[i], op0[i])"));
        assert_eq!(z.n_args, 4);
        let r = reduce_program("sum", "float sum(float x,float y){return x+y;}", "float");
        let s = scan_program("sum", "float sum(float x,float y){return x+y;}", "float");
        assert_ne!(z.hash(), r.hash());
        assert_ne!(r.hash(), s.hash());
        assert!(r.source.contains("scratch"));
        assert!(s.source.contains("CONFLICT_FREE_OFFSET"));
    }

    #[test]
    fn same_user_fn_same_types_same_program_hash() {
        let program = |source: &str, extra_args| {
            elementwise_program(&[map_stage("f", source)], "float", "float", extra_args)
        };
        let a = program("float f(float x){return x+1;}", 0);
        let b = program("float f(float x){return x+1;}", 0);
        assert_eq!(a.hash(), b.hash());
        // A different body or signature changes the hash (cache key
        // correctness).
        assert_ne!(a.hash(), program("float f(float x){return x+2;}", 0).hash());
        assert_ne!(a.hash(), program("float f(float x){return x+1;}", 1).hash());
    }

    fn stencil_stage(boundary: &'static str) -> FusedStage {
        FusedStage::new(
            "stencil",
            "cross",
            "float cross(__global float* in, int r, int c, uint nr, uint nc) { return 0.0f; }",
            1,
        )
        .with_window("float", 1, boundary)
    }

    fn zip_stage() -> FusedStage {
        FusedStage::new("zip", "add", "float add(float x, float y){return x+y;}", 1)
            .with_operand("float")
    }

    #[test]
    fn zip_operands_are_read_where_their_stage_runs() {
        // Before the stencil: at the loaded window cell.
        let pre =
            stencil2d_block_program(&[zip_stage(), stencil_stage("neumann")], "float", "float");
        assert!(pre
            .source
            .contains("win_in[i] = add(in[rr * n_cols + cc], op0[rr * n_cols + cc]);"));
        assert!(pre.source.contains("__global const float* restrict op0"));
        assert_eq!(pre.n_args, 7);
        // After the stencil: at the output element.
        let post = stencil2d_block_program(&[stencil_stage("zero"), zip_stage()], "float", "float");
        assert!(post.source.contains("ww), op1[row * n_cols + col]);"));
        assert!(post.source.contains("__global const float* restrict op1"));
        // Folded into a row reduction: at the folded element.
        let fold = fold_program(
            Axis::Rows,
            &[zip_stage()],
            "sum",
            "float sum(float x, float y){return x+y;}",
            "float",
            "float",
        );
        assert!(fold
            .source
            .contains("acc = sum(acc, add(in[row * row_stride + c], op0[row * row_stride + c]));"));
        assert!(fold.source.contains("__global const float* restrict op0"));
        assert_eq!(fold.n_args, 9);
        for p in [&pre, &post, &fold] {
            assert!(!p.source.contains("[i])"), "{}", p.source);
        }
    }

    #[test]
    fn only_a_lone_same_type_stencil_steps_rounds() {
        let lone = stencil2d_block_program(&[stencil_stage("wrap")], "float", "float");
        assert_eq!(lone.n_args, 8);
        // The round count and the tile share one argument.
        assert!(lone.source.contains("const uint4 block"));
        for read in ["rounds = block.x", "tw = block.y", "th = block.z"] {
            assert!(lone.source.contains(read), "{read}");
        }
        assert!(lone.source.contains("__local float* win_out"));
        let map = FusedStage::new("map", "neg", "float neg(float x){return -x;}", 1);
        for group in [
            stencil2d_block_program(&[stencil_stage("wrap")], "float", "int"),
            stencil2d_block_program(&[map, stencil_stage("wrap")], "float", "float"),
        ] {
            assert_eq!(group.n_args, 6, "{}", group.name);
            assert!(!group.source.contains("rounds"), "{}", group.source);
            assert!(!group.source.contains("uint4 block"), "{}", group.source);
            assert!(!group.source.contains("win_out"), "{}", group.source);
            assert_ne!(group.hash(), lone.hash());
        }
    }

    #[test]
    fn a_chain_takes_one_window_per_stencil_of_its_own_type() {
        // cross (float, radius 1) → zip → nms (Grad, radius 2): the zip
        // runs as the second window fills, at each stored cell's index.
        let nms = FusedStage::new(
            "stencil",
            "nms",
            "float nms(__global Grad* in, int r, int c, uint nr, uint nc) { return stencil_at(in,r,c,nr,nc,0,0).gx; }",
            1,
        )
        .with_window("Grad", 2, "zero");
        let stages = [stencil_stage("neumann"), zip_stage(), nms];
        let chain = stencil2d_block_program(&stages, "float", "int");
        assert_eq!(
            chain.name,
            "skelcl_stencil2d_block_r1+2_neumann+zero_cross+add+nms_float_int"
        );
        assert_eq!(chain.n_args, 5 + 1 + 2);
        for text in [
            "uint halo = 3;",
            "__local float* win_in,\n__local Grad* win1",
            "uint ww1 = ww - 2;",
            "win1[i] = add(cross(win_in, i / ww1 + 1, i % ww1 + 1, wh, ww), op1[rr * n_cols + cc]);",
            "refresh_outside_float(win_in,",
            "return stencil_at_Grad(in,r,c,nr,nc,0,0).gx;",
            "out[row * n_cols + col] = nms(win1, get_local_id(1) + 2,",
        ] {
            assert!(chain.source.contains(text), "{text}:\n{}", chain.source);
        }
        assert!(!chain.source.contains("refresh_outside_Grad(win1"));
    }

    #[test]
    fn a_stage_free_generator_builds_the_skeletons_own_program() {
        let sum = ("sum", "float sum(float x, float y){return x+y;}");
        let rows = fold_program(Axis::Rows, &[], sum.0, sum.1, "float", "float");
        let cols = fold_program(Axis::Cols, &[], sum.0, sum.1, "float", "float");
        assert_eq!(rows.name, "skelcl_reduce_rows_sum_float");
        assert_eq!(cols.name, "skelcl_reduce_cols_sum_float");
        assert!(cols
            .source
            .contains("acc = sum(acc, in[r * row_stride + col]);"));
        assert_eq!((rows.n_args, cols.n_args), (8, 8));
        let arg = argbest_program(Axis::Cols, "less", "bool less(float x, float y){}", "float");
        assert_eq!(arg.name, "skelcl_reduce_cols_arg_less_float");
        assert!(arg.source.contains("best_i = row_offset + r;"));
        assert_eq!(arg.n_args, 10);
        let mult = ("mult", "float mult(float x, float y){return x*y;}");
        let allpairs = |post: &[FusedStage], tile| {
            allpairs_program(mult.0, mult.1, sum.0, sum.1, post, "float", "float", tile)
        };
        let naive = allpairs(&[], 0);
        let tiled = allpairs(&[], 8);
        assert_eq!(naive.name, "skelcl_allpairs_mult_sum_float_float");
        assert_eq!(tiled.name, "skelcl_allpairs_tiled8_mult_sum_float_float");
        assert_eq!((naive.n_args, tiled.n_args), (7, 9));
        // A fused stage joins the name and wraps the value it acts on.
        let neg = FusedStage::new("map", "neg", "float neg(float x){return -x;}", 1);
        let fused = fold_program(
            Axis::Rows,
            std::slice::from_ref(&neg),
            sum.0,
            sum.1,
            "float",
            "float",
        );
        assert_eq!(fused.name, "skelcl_reduce_rows_neg+sum_float_float");
        assert!(fused
            .source
            .contains("acc = sum(acc, neg(in[row * row_stride + c]));"));
        let post = allpairs(&[neg], 8);
        assert_eq!(post.name, "skelcl_allpairs_tiled8_mult_sum+neg_float_float");
        assert!(post.source.contains("c[row * n + col] = neg(acc);"));
        assert_eq!(post.n_args, 9);
    }

    #[test]
    fn with_static_ops_overrides_estimate() {
        let f = UserFn::new("g", "loop body", |x: f32| x).with_static_ops(64);
        assert_eq!(f.static_ops(), 64);
    }
}
