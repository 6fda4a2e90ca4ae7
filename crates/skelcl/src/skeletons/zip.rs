//! The Zip skeleton (paper eq. (2)):
//! `zip ⊕ [x...], [y...] = [x0 ⊕ y0, ..., xn-1 ⊕ yn-1]`.
//!
//! "Thus, it is a generalized dyadic form of Map. By chaining Zip
//! skeletons, variadic forms of Map can be implemented." Both variants
//! ([`Zip`], [`ZipArgs`]) run on the Map family's program generator and
//! launcher, with the second input read as the zip stage's operand.
//!
//! If the two inputs are distributed differently, the second is
//! automatically redistributed to match the first — the paper's promise
//! that "data exchange between multiple devices is performed automatically".

use crate::arguments::{Arguments, KernelEnv};
use crate::codegen::{self, UserFn};
use crate::error::{Error, Result};
use crate::matrix::{Matrix, MatrixPart};
use crate::skeletons::pipeline::{stage_of, ElementwiseKernel, OpZip, OpZipArgs};
use crate::vector::Vector;
use std::marker::PhantomData;
use vgpu::{CompiledKernel, Program, Scalar as Element};

/// The binary element-wise skeleton: `out[i] = f(a[i], b[i])`.
pub struct Zip<T1: Element, T2: Element, U: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T1, T2) -> U>,
}

impl<T1, T2, U, F> Zip<T1, T2, U, F>
where
    T1: Element,
    T2: Element,
    U: Element,
    F: Fn(T1, T2) -> U + Send + Sync + Clone + 'static,
{
    /// `Zip<float> mult("float mult(float x,float y){return x*y;}")`.
    pub fn new(user: UserFn<F>) -> Self {
        let program = codegen::elementwise_program(
            &[stage_of("zip", &user).with_operand(T2::TYPE_NAME)],
            T1::TYPE_NAME,
            U::TYPE_NAME,
            0,
        );
        Zip {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated program both entry points build — also the program
    /// of a one-stage pipeline `zip_with` over the same user function.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// This call's kernel, reading `rhs_parts` as the zip operand.
    fn kernel(
        &self,
        compiled: CompiledKernel,
        rhs_parts: Vec<MatrixPart<T2>>,
    ) -> ElementwiseKernel<OpZip<F, T2, T1, U>> {
        ElementwiseKernel {
            compiled,
            op: OpZip::new(rhs_parts, self.user.func().clone()),
            static_ops: self.user.static_ops(),
        }
    }

    /// Apply the skeleton to two equally sized vectors.
    pub fn apply(&self, lhs: &Vector<T1>, rhs: &Vector<T2>) -> Result<Vector<U>> {
        if lhs.len() != rhs.len() {
            return Err(Error::LengthMismatch {
                left: lhs.len(),
                right: rhs.len(),
            });
        }
        let ctx = lhs.ctx().clone();
        let _span = lhs.call_span("zip.apply");
        let compiled = ctx.get_or_build(&self.program)?;
        // Align distributions: rhs follows lhs (automatic data exchange).
        if rhs.distribution() != lhs.distribution() {
            rhs.set_distribution(lhs.distribution())?;
        }
        let l_parts = lhs.parts()?;
        let kernel = self.kernel(compiled, rhs.parts()?);
        let out_parts = kernel.launch_parts(&ctx, &l_parts)?;
        Ok(Vector::from_device_parts(
            &ctx,
            lhs.len(),
            lhs.distribution(),
            out_parts,
        ))
    }

    /// Apply the skeleton element-wise over two equally shaped matrices,
    /// one launch per device part. As with vectors, `rhs` is automatically
    /// redistributed to follow `lhs`; halo rows are computed locally, so
    /// halo coherence is preserved without any exchange.
    pub fn apply_matrix(&self, lhs: &Matrix<T1>, rhs: &Matrix<T2>) -> Result<Matrix<U>> {
        if lhs.dims() != rhs.dims() {
            return Err(Error::ShapeMismatch {
                left: lhs.dims(),
                right: rhs.dims(),
            });
        }
        let ctx = lhs.ctx().clone();
        let _span = lhs.call_span("zip.apply_matrix");
        let compiled = ctx.get_or_build(&self.program)?;
        if rhs.distribution() != lhs.distribution() {
            rhs.set_distribution(lhs.distribution())?;
        }
        let (rows, cols) = lhs.dims();
        let l_parts = lhs.parts()?;
        let r_parts = rhs.parts()?;
        // `rhs` is read as it is: its halo rows are not exchanged, so the
        // output's halos are fresh only when both inputs' are.
        let halos_fresh = lhs.halos_fresh() && rhs.halos_fresh();
        let out_parts = self
            .kernel(compiled, r_parts)
            .launch_parts(&ctx, &l_parts)?;
        Ok(Matrix::from_device_parts(
            &ctx,
            rows,
            cols,
            lhs.distribution(),
            out_parts,
            halos_fresh,
        ))
    }
}

/// Zip with additional arguments (used by OSEM's reconstruction-image
/// update, whose kernel "resembles the body of the second inner loop").
pub struct ZipArgs<T1: Element, T2: Element, U: Element, F> {
    user: UserFn<F>,
    program: Program,
    _pd: PhantomData<fn(T1, T2) -> U>,
}

impl<T1, T2, U, F> ZipArgs<T1, T2, U, F>
where
    T1: Element,
    T2: Element,
    U: Element,
    F: Fn(T1, T2, &KernelEnv<'_>) -> U + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, n_extra: usize) -> Self {
        let program = codegen::elementwise_program(
            &[stage_of("zip", &user).with_operand(T2::TYPE_NAME)],
            T1::TYPE_NAME,
            U::TYPE_NAME,
            n_extra,
        );
        ZipArgs {
            user,
            program,
            _pd: PhantomData,
        }
    }

    /// The generated program every call builds.
    pub fn program(&self) -> &Program {
        &self.program
    }

    pub fn apply(&self, lhs: &Vector<T1>, rhs: &Vector<T2>, args: &Arguments) -> Result<Vector<U>> {
        if lhs.len() != rhs.len() {
            return Err(Error::LengthMismatch {
                left: lhs.len(),
                right: rhs.len(),
            });
        }
        let ctx = lhs.ctx().clone();
        let _span = lhs.call_span("zip_args.apply");
        let compiled = ctx.get_or_build(&self.program)?;
        args.ensure_on_devices()?;
        if rhs.distribution() != lhs.distribution() {
            rhs.set_distribution(lhs.distribution())?;
        }
        let l_parts = lhs.parts()?;
        let r_parts = rhs.parts()?;
        let kernel = ElementwiseKernel {
            compiled,
            op: OpZipArgs::new(
                r_parts,
                args.resolve_parts(&l_parts)?,
                self.user.func().clone(),
            ),
            static_ops: self.user.static_ops(),
        };
        let out_parts = kernel.launch_parts(&ctx, &l_parts)?;
        Ok(Vector::from_device_parts(
            &ctx,
            lhs.len(),
            lhs.distribution(),
            out_parts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;
    use crate::vector::Distribution;

    #[test]
    fn zip_multiplies_elementwise() {
        let c = ctx(1);
        let mult = crate::skel_fn!(
            fn mult(x: f32, y: f32) -> f32 {
                x * y
            }
        );
        let z = Zip::new(mult);
        let a = Vector::from_vec(&c, (0..50).map(|i| i as f32).collect());
        let b = Vector::from_vec(&c, vec![2.0f32; 50]);
        let out = z.apply(&a, &b).unwrap();
        assert_eq!(
            out.to_vec().unwrap(),
            (0..50).map(|i| 2.0 * i as f32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zip_rejects_length_mismatch() {
        let c = ctx(1);
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        let z = Zip::new(add);
        let a = Vector::from_vec(&c, vec![1.0f32; 4]);
        let b = Vector::from_vec(&c, vec![1.0f32; 5]);
        assert!(matches!(
            z.apply(&a, &b),
            Err(Error::LengthMismatch { left: 4, right: 5 })
        ));
    }

    #[test]
    fn zip_mixed_element_types() {
        let c = ctx(1);
        let scale = crate::skel_fn!(
            fn scale(x: i32, s: f32) -> f32 {
                x as f32 * s
            }
        );
        let z = Zip::new(scale);
        let a = Vector::from_vec(&c, vec![1i32, 2, 3]);
        let b = Vector::from_vec(&c, vec![0.5f32, 0.25, 2.0]);
        assert_eq!(
            z.apply(&a, &b).unwrap().to_vec().unwrap(),
            vec![0.5, 0.5, 6.0]
        );
    }

    #[test]
    fn zip_aligns_mismatched_distributions() {
        let c = ctx(2);
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        let z = Zip::new(add);
        let a = Vector::from_vec(&c, vec![1.0f32; 32]);
        let b = Vector::from_vec(&c, vec![2.0f32; 32]);
        a.set_distribution(Distribution::Block).unwrap();
        b.set_distribution(Distribution::Single(0)).unwrap();
        b.ensure_on_devices().unwrap();
        let out = z.apply(&a, &b).unwrap();
        assert_eq!(b.distribution(), Distribution::Block, "rhs was realigned");
        assert_eq!(out.to_vec().unwrap(), vec![3.0f32; 32]);
    }

    #[test]
    fn chained_zips_form_variadic_maps() {
        // The paper: "By chaining Zip skeletons, variadic forms of Map can
        // be implemented." Compute a*b + c with two Zips.
        let c = ctx(2);
        let mult = crate::skel_fn!(
            fn mult(x: f32, y: f32) -> f32 {
                x * y
            }
        );
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        let a = Vector::from_vec(&c, (0..20).map(|i| i as f32).collect());
        let b = Vector::from_vec(&c, vec![3.0f32; 20]);
        let d = Vector::from_vec(&c, vec![1.0f32; 20]);
        let ab = Zip::new(mult).apply(&a, &b).unwrap();
        let out = Zip::new(add).apply(&ab, &d).unwrap();
        assert_eq!(
            out.to_vec().unwrap(),
            (0..20).map(|i| 3.0 * i as f32 + 1.0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn chained_skeletons_do_not_retransfer() {
        // Lazy copying (Section III-A): "if an output vector is used as the
        // input to another skeleton, no further data transfer is performed."
        let c = ctx(1);
        let mult = crate::skel_fn!(
            fn mult(x: f32, y: f32) -> f32 {
                x * y
            }
        );
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        let a = Vector::from_vec(&c, vec![1.0f32; 256]);
        let b = Vector::from_vec(&c, vec![2.0f32; 256]);
        let ab = Zip::new(mult).apply(&a, &b).unwrap();
        let before = c.platform().stats_snapshot();
        let _out = Zip::new(add).apply(&ab, &a).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(
            delta.h2d_transfers, 0,
            "chaining must not re-upload anything"
        );
    }

    #[test]
    fn zip_on_matrices_matches_host_zip() {
        let c = ctx(3);
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        let z = Zip::new(add);
        let xs: Vec<f32> = (0..9 * 5).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..9 * 5).map(|i| (i * 3) as f32).collect();
        let a = crate::Matrix::from_vec(&c, 9, 5, xs.clone());
        let b = crate::Matrix::from_vec(&c, 9, 5, ys.clone());
        a.set_distribution(crate::MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
        let out = z.apply_matrix(&a, &b).unwrap();
        assert_eq!(b.distribution(), a.distribution(), "rhs was realigned");
        let want: Vec<f32> = xs.iter().zip(&ys).map(|(x, y)| x + y).collect();
        assert_eq!(out.to_vec().unwrap(), want);
    }

    #[test]
    fn zip_rejects_matrix_shape_mismatch() {
        let c = ctx(1);
        let add = crate::skel_fn!(
            fn add(x: f32, y: f32) -> f32 {
                x + y
            }
        );
        let z = Zip::new(add);
        let a = crate::Matrix::from_vec(&c, 2, 6, vec![0.0f32; 12]);
        let b = crate::Matrix::from_vec(&c, 3, 4, vec![0.0f32; 12]);
        let err = z.apply_matrix(&a, &b).unwrap_err();
        assert!(matches!(err, Error::ShapeMismatch { .. }));
        assert_eq!(err.to_string(), "shape mismatch: 2x6 vs 3x4");
    }

    #[test]
    fn zip_with_args_scales_by_scalar() {
        let c = ctx(1);
        let fma = UserFn::new(
            "fma_s",
            "float fma_s(float x, float y, float s) { return x + y * s; }",
            |x: f32, y: f32, env: &KernelEnv<'_>| x + y * env.scalar::<f32>(0),
        );
        let z = ZipArgs::new(fma, 1);
        let a = Vector::from_vec(&c, vec![1.0f32; 8]);
        let b = Vector::from_vec(&c, vec![2.0f32; 8]);
        let mut args = Arguments::new();
        args.push(10.0f32);
        let out = z.apply(&a, &b, &args).unwrap();
        assert_eq!(out.to_vec().unwrap(), vec![21.0f32; 8]);
    }
}
