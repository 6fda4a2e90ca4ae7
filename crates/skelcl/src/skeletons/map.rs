//! The Map skeleton (paper eq. (1)):
//! `map f [x0, ..., xn-1] = [f(x0), ..., f(xn-1)]`.
//!
//! Three variants share one program generator
//! ([`codegen::elementwise_program`]) and one launcher, the pipeline's
//! `launch_elementwise`, which runs each part's contiguous span:
//! * [`Map`] — the plain unary map of Section III-B,
//! * [`MapArgs`] — map whose customizing function also receives the
//!   [`Arguments`] environment (Section III-C, Listing 2),
//! * [`MapVoid`] — map that "produces no result, but updates [vectors
//!   passed as arguments] by side-effect" (Section IV-B, the OSEM error
//!   image kernel).

use crate::arguments::{Arguments, KernelEnv};
use crate::codegen::{self, UserFn};
use crate::context::Context;
use crate::error::Result;
use crate::matrix::{Matrix, MatrixPart};
use crate::skeletons::alloc_matching_matrix_parts;
use crate::skeletons::pipeline::{
    launch_elementwise, stage_of, ElementwiseKernel, OpMap, OpMapArgs,
};
use crate::vector::Vector;
use std::marker::PhantomData;
use vgpu::{Order, Program, Scalar as Element};

/// The unary Map skeleton: `out[i] = f(in[i])`.
pub struct Map<T: Element, U: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T) -> U>,
}

impl<T, U, F> Map<T, U, F>
where
    T: Element,
    U: Element,
    F: Fn(T) -> U + Send + Sync + Clone + 'static,
{
    /// Create the skeleton from its customizing function
    /// (`Map<float> m("float f(float x){...}")` in the paper).
    pub fn new(user: UserFn<F>) -> Self {
        let program =
            codegen::elementwise_program(&[stage_of("map", &user)], T::TYPE_NAME, U::TYPE_NAME, 0);
        Map {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated OpenCL-C program every entry point builds — also the
    /// program of a one-stage pipeline `map` over the same user function
    /// (exposed for the cache and LoC experiments).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// This call's kernel, its program built through the cache.
    fn kernel(&self, ctx: &Context) -> Result<ElementwiseKernel<OpMap<F, T, U>>> {
        Ok(ElementwiseKernel {
            compiled: ctx.get_or_build(&self.program)?,
            op: OpMap::new(self.user.func().clone()),
            static_ops: self.user.static_ops(),
        })
    }

    /// Apply the skeleton: uploads the input lazily, launches one kernel
    /// per device part, and returns the output vector with the same
    /// distribution — its data stays on the devices (lazy copying).
    pub fn apply(&self, input: &Vector<T>) -> Result<Vector<U>> {
        let ctx = input.ctx().clone();
        let _span = input.call_span("map.apply");
        let kernel = self.kernel(&ctx)?;
        let out_parts = kernel.launch_parts(&ctx, &input.parts()?)?;
        Ok(Vector::from_device_parts(
            &ctx,
            input.len(),
            input.distribution(),
            out_parts,
        ))
    }

    /// Apply the skeleton element-wise over a [`Matrix`], one launch per
    /// device part. Halo rows are computed locally too (they are just
    /// copies of rows owned elsewhere), so the output's halo coherence
    /// matches the input's and no exchange is ever needed for element-wise
    /// chains.
    pub fn apply_matrix(&self, input: &Matrix<T>) -> Result<Matrix<U>> {
        let ctx = input.ctx().clone();
        let _span = input.call_span("map.apply_matrix");
        let kernel = self.kernel(&ctx)?;
        let (rows, cols) = input.dims();
        let in_parts = input.parts()?;
        let halos_fresh = input.halos_fresh();
        let out_parts = kernel.launch_parts(&ctx, &in_parts)?;
        Ok(Matrix::from_device_parts(
            &ctx,
            rows,
            cols,
            input.distribution(),
            out_parts,
            halos_fresh,
        ))
    }
}

/// Map with additional arguments: `out[i] = f(in[i], env)` where `env`
/// exposes the `Arguments` slots (Section III-C).
pub struct MapArgs<T: Element, U: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T) -> U>,
}

impl<T, U, F> MapArgs<T, U, F>
where
    T: Element,
    U: Element,
    F: Fn(T, &KernelEnv<'_>) -> U + Send + Sync + Clone + 'static,
{
    /// `n_extra` is the number of additional arguments the function expects
    /// (it shapes the generated kernel signature).
    pub fn new(user: UserFn<F>, n_extra: usize) -> Self {
        let program = codegen::elementwise_program(
            &[stage_of("map", &user)],
            T::TYPE_NAME,
            U::TYPE_NAME,
            n_extra,
        );
        MapArgs {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated program every call builds.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Apply with the packed extra arguments. Vector arguments are lazily
    /// uploaded per their own distributions before the launch.
    pub fn apply(&self, input: &Vector<T>, args: &Arguments) -> Result<Vector<U>> {
        let out_parts = self.launch("map_args.apply", input, args, true)?;
        Ok(Vector::from_device_parts(
            input.ctx(),
            input.len(),
            input.distribution(),
            out_parts,
        ))
    }

    /// Launch over every part of `input`, writing fresh output parts — or,
    /// without `write` (`MapVoid`), allocating and writing none.
    fn launch(
        &self,
        span: &'static str,
        input: &Vector<T>,
        args: &Arguments,
        write: bool,
    ) -> Result<Vec<MatrixPart<U>>> {
        let ctx = input.ctx().clone();
        let _span = input.call_span(span);
        let compiled = ctx.get_or_build(&self.program)?;
        args.ensure_on_devices()?;
        let in_parts = input.parts()?;
        let out_parts = if write {
            alloc_matching_matrix_parts(&ctx, &in_parts)?
        } else {
            Vec::new()
        };
        let kernel = ElementwiseKernel {
            compiled,
            op: OpMapArgs::new(args.resolve_parts(&in_parts)?, self.user.func().clone()),
            static_ops: self.user.static_ops(),
        };
        for (pi, ip) in in_parts.iter().enumerate() {
            let (out, band) = (out_parts.get(pi), (0, ip.span_rows()));
            launch_elementwise(&ctx, &kernel, pi, ip, out, band, Order::Device)?;
        }
        Ok(out_parts)
    }
}

/// Side-effect-only Map: "The skeleton produces no result, but updates the
/// error image by side-effect" (Section IV-B). Callers must flag mutated
/// vector arguments with [`Vector::mark_devices_modified`] afterwards,
/// mirroring the paper's `c.dataOnDevicesModified()`. It is a [`MapArgs`]
/// whose output type is `void`: no output is allocated or written.
pub struct MapVoid<T: Element, F>(MapArgs<T, (), F>);

impl<T, F> MapVoid<T, F>
where
    T: Element,
    F: Fn(T, &KernelEnv<'_>) + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, n_extra: usize) -> Self {
        MapVoid(MapArgs::new(user, n_extra))
    }

    /// The generated program every call builds.
    pub fn program(&self) -> &Program {
        self.0.program()
    }

    pub fn apply(&self, input: &Vector<T>, args: &Arguments) -> Result<()> {
        self.0.launch("map_void.apply", input, args, false)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;
    use crate::vector::Distribution;

    #[test]
    fn map_squares_on_one_device() {
        let c = ctx(1);
        let square = crate::skel_fn!(
            fn square(x: f32) -> f32 {
                x * x
            }
        );
        let m = Map::new(square);
        let v = Vector::from_vec(&c, (0..100).map(|i| i as f32).collect());
        let out = m.apply(&v).unwrap();
        let got = out.to_vec().unwrap();
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, (i * i) as f32);
        }
    }

    #[test]
    fn map_output_stays_on_device_until_read() {
        let c = ctx(1);
        let inc = crate::skel_fn!(
            fn inc(x: f32) -> f32 {
                x + 1.0
            }
        );
        let m = Map::new(inc);
        let v = Vector::from_vec(&c, vec![1.0f32; 64]);
        let out = m.apply(&v).unwrap();
        assert!(!out.host_fresh(), "result must reside on the device");
        assert!(out.device_fresh());
        assert_eq!(out.to_vec().unwrap(), vec![2.0f32; 64]);
    }

    #[test]
    fn map_preserves_block_distribution_across_devices() {
        let c = ctx(3);
        let neg = crate::skel_fn!(
            fn neg(x: i32) -> i32 {
                -x
            }
        );
        let m = Map::new(neg);
        let v = Vector::from_vec(&c, (0..100i32).collect());
        v.set_distribution(Distribution::Block).unwrap();
        let out = m.apply(&v).unwrap();
        assert_eq!(out.distribution(), Distribution::Block);
        assert_eq!(
            out.to_vec().unwrap(),
            (0..100i32).map(|x| -x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_with_scalar_argument() {
        // Listing 2 of the paper: multiply each element by a number passed
        // as an additional argument.
        let c = ctx(1);
        let mult_num = UserFn::new(
            "mult_num",
            "float mult_num(float input, float number) { return input * number; }",
            |x: f32, env: &KernelEnv<'_>| x * env.scalar::<f32>(0),
        );
        let m = MapArgs::new(mult_num, 1);
        let v = Vector::from_vec(&c, (0..10).map(|i| i as f32).collect());
        let mut args = Arguments::new();
        args.push(5.0f32);
        let out = m.apply(&v, &args).unwrap();
        assert_eq!(
            out.to_vec().unwrap(),
            (0..10).map(|i| 5.0 * i as f32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn map_with_vector_argument_gathers() {
        let c = ctx(1);
        let table = Vector::from_vec(&c, vec![10.0f32, 20.0, 30.0, 40.0]);
        let gather = UserFn::new(
            "gather",
            "float gather(uint i, __global float* t) { return t[i]; }",
            |i: u32, env: &KernelEnv<'_>| env.vec::<f32>(0).get(i as usize),
        );
        let m = MapArgs::new(gather, 1);
        let idx = Vector::from_vec(&c, vec![3u32, 0, 2, 1]);
        let mut args = Arguments::new();
        args.push(&table);
        let out = m.apply(&idx, &args).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![40.0, 10.0, 30.0, 20.0]);
    }

    #[test]
    fn map_void_updates_argument_by_side_effect() {
        let c = ctx(2);
        let acc = Vector::from_vec(&c, vec![0.0f32; 4]);
        acc.set_distribution(Distribution::Copy).unwrap();
        let scatter = UserFn::new(
            "scatter",
            "void scatter(uint i, __global float* acc) { atomic_add(&acc[i % 4], 1.0f); }",
            |i: u32, env: &KernelEnv<'_>| {
                env.vec::<f32>(0).atomic_add(i as usize % 4, 1.0);
            },
        );
        let m = MapVoid::new(scatter, 1);
        let idx = Vector::from_vec(&c, (0..16u32).collect());
        idx.set_distribution(Distribution::Block).unwrap();
        let mut args = Arguments::new();
        args.push(&acc);
        m.apply(&idx, &args).unwrap();
        acc.mark_devices_modified();
        // Each device's copy saw 8 of the 16 indices -> 2 hits per slot;
        // merging with add gives 4 per slot.
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        acc.set_distribution_with(Distribution::Block, &add)
            .unwrap();
        assert_eq!(acc.to_vec().unwrap(), vec![4.0f32; 4]);
    }

    #[test]
    fn map_reports_dynamic_work() {
        // An iteration-heavy function must produce a longer virtual kernel
        // than a trivial one on the same data (divergence-aware model).
        let c = ctx(1);
        let heavy = UserFn::new(
            "heavy",
            "float heavy(float x) { /* 100-iteration loop */ return x; }",
            |x: f32| {
                crate::work(1000);
                x
            },
        );
        let light = crate::skel_fn!(
            fn light(x: f32) -> f32 {
                x
            }
        );
        let v = Vector::from_vec(&c, vec![1.0f32; 1 << 12]);
        let heavy = Map::new(heavy);
        let light = Map::new(light);

        // Warm the program cache so only kernel time is compared.
        heavy.apply(&v).unwrap();
        light.apply(&v).unwrap();

        c.platform().reset_clocks();
        heavy.apply(&v).unwrap();
        c.sync();
        let t_heavy = c.host_now_s();

        c.platform().reset_clocks();
        light.apply(&v).unwrap();
        c.sync();
        let t_light = c.host_now_s();
        assert!(
            t_heavy > t_light * 2.0,
            "dynamic work must dominate: heavy={t_heavy} light={t_light}"
        );
    }

    #[test]
    fn map_on_matrix_matches_host_map() {
        let c = ctx(3);
        let double = crate::skel_fn!(
            fn double(x: f32) -> f32 {
                x * 2.0
            }
        );
        let m = Map::new(double);
        let data: Vec<f32> = (0..11 * 7).map(|i| i as f32).collect();
        let mat = crate::Matrix::from_vec(&c, 11, 7, data.clone());
        mat.set_distribution(crate::MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let out = m.apply_matrix(&mat).unwrap();
        assert_eq!(out.dims(), (11, 7));
        assert_eq!(out.distribution(), mat.distribution());
        let want: Vec<f32> = data.iter().map(|x| x * 2.0).collect();
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn map_on_matrix_preserves_halo_freshness_without_transfers() {
        let c = ctx(2);
        let inc = crate::skel_fn!(
            fn inc(x: f32) -> f32 {
                x + 1.0
            }
        );
        let m = Map::new(inc);
        let mat = crate::Matrix::from_vec(&c, 8, 4, vec![0.0f32; 32]);
        mat.set_distribution(crate::MatrixDistribution::RowBlock { halo: 2 })
            .unwrap();
        mat.ensure_on_devices().unwrap();
        let before = c.platform().stats_snapshot();
        let out = m.apply_matrix(&mat).unwrap();
        let out2 = m.apply_matrix(&out).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(
            delta.total_transfers(),
            0,
            "element-wise matrix chains must not move data at all"
        );
        assert!(out2.halos_fresh(), "halo rows were computed in place");
        assert_eq!(out2.to_vec().unwrap(), vec![2.0f32; 32]);
    }

    #[test]
    fn map_on_empty_vector_is_ok() {
        let c = ctx(2);
        let inc = crate::skel_fn!(
            fn inc(x: f32) -> f32 {
                x + 1.0
            }
        );
        let v = Vector::from_vec(&c, Vec::<f32>::new());
        let out = Map::new(inc).apply(&v).unwrap();
        assert_eq!(out.len(), 0);
        assert!(out.to_vec().unwrap().is_empty());
    }

    #[test]
    fn mismarshalled_argument_is_a_typed_error_not_a_device_panic() {
        // The host pushes an f32 scalar but the function body requests a
        // u32: the device-pool panic must surface as the typed
        // `Error::KernelArgMismatch`, carrying the slot diagnostics, rather
        // than unwinding through the executor.
        let c = ctx(1);
        let bad = UserFn::new(
            "badarg",
            "float badarg(float x, uint k) { return x * (float)k; }",
            |x: f32, env: &KernelEnv<'_>| x * env.scalar::<u32>(0) as f32,
        );
        let m = MapArgs::new(bad, 1);
        let v = Vector::from_vec(&c, vec![1.0f32; 8]);
        let mut args = Arguments::new();
        args.push(5.0f32);
        let err = m.apply(&v, &args).unwrap_err();
        assert!(
            matches!(err, crate::Error::KernelArgMismatch(_)),
            "expected KernelArgMismatch, got {err:?}"
        );
        assert!(err.to_string().contains("argument 0"), "{err}");
    }
}
