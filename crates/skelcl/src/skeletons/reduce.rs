//! The Reduce skeleton (paper eq. (3)):
//! `reduce ⊕ [x0, ..., xn-1] = x0 ⊕ ... ⊕ xn-1`.
//!
//! "SkelCL requires the operator to be associative, such that it can be
//! applied to arbitrarily sized subranges of the input vector in parallel.
//! The final result is obtained by recursively combining the intermediate
//! results for the subranges. To improve the performance, SkelCL saves the
//! intermediate results in the device's fast local memory."
//!
//! The implementation is the classic two-level scheme: work-groups reduce
//! their tile in local memory with sequential (conflict-free) addressing,
//! writing one partial per group; passes repeat until one value per device
//! remains; device results are combined on the host. The naive
//! global-memory strategy is retained for the ablation experiment (E9).

use crate::codegen::{self, UserFn};
use crate::error::{Error, Result};
use crate::meter;
use crate::scalar::Scalar;
use crate::skeletons::linear_range;
use crate::vector::Vector;
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::{Buffer, KernelBody, NDRange, Order, Program, Scalar as Element, WorkGroup};

/// Which parallelisation the skeleton uses; `LocalTree` is SkelCL's real
/// strategy, `GlobalNaive` exists for the ablation benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReduceStrategy {
    /// Local-memory tree with sequential addressing (the paper's design).
    #[default]
    LocalTree,
    /// One atomic-free pass per element pair through global memory.
    GlobalNaive,
}

/// The Reduce skeleton, customized by an associative binary operator and
/// its identity element.
pub struct Reduce<T: Element, F> {
    user: UserFn<F>,
    identity: T,
    strategy: ReduceStrategy,
    program: Program,
    _pd: PhantomData<fn(T, T) -> T>,
}

impl<T, F> Reduce<T, F>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    /// `Reduce<float> sum("float sum(float x,float y){return x+y;}")` —
    /// plus the operator's identity, used to pad partial work-groups.
    pub fn new(user: UserFn<F>, identity: T) -> Self {
        let program = codegen::reduce_program(user.name(), user.source(), T::TYPE_NAME);
        Reduce {
            user,
            identity,
            strategy: ReduceStrategy::LocalTree,
            program,
            _pd: PhantomData,
        }
    }

    /// Select the ablation strategy (default: the paper's local-memory tree).
    pub fn with_strategy(mut self, strategy: ReduceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Apply the skeleton: per-device tree reduction, then a final host
    /// combine across devices. Returns the paper's `Scalar` wrapper.
    pub fn apply(&self, input: &Vector<T>) -> Result<Scalar<T>> {
        if input.is_empty() {
            return Err(Error::Empty("reduce"));
        }
        let ctx = input.ctx().clone();
        let _span = input.call_span("reduce.apply");
        let compiled = ctx.get_or_build(&self.program)?;
        let parts = input.parts()?;

        // Under Copy distribution every device has the full data; reducing
        // on one device is sufficient (and what SkelCL does).
        let active: Vec<_> = match input.distribution() {
            crate::vector::Distribution::Copy => parts.into_iter().take(1).collect(),
            _ => parts.into_iter().filter(|p| p.rows > 0).collect(),
        };

        let mut device_results = Vec::with_capacity(active.len());
        for part in &active {
            let value_buf = match self.strategy {
                ReduceStrategy::LocalTree => self.reduce_on_device_tree(
                    &ctx,
                    part.device,
                    &compiled,
                    part.buffer.clone(),
                    part.rows,
                )?,
                ReduceStrategy::GlobalNaive => self.reduce_on_device_naive(
                    &ctx,
                    part.device,
                    &compiled,
                    part.buffer.clone(),
                    part.rows,
                )?,
            };
            device_results.push((part.device, value_buf));
        }

        // Download the per-device results (tiny transfers) and fold on the
        // host, in device order for determinism.
        let mut acc = self.identity;
        let f = self.user.func();
        for (device, buf) in device_results {
            let mut v = [T::default()];
            ctx.queue(device)
                .enqueue_read(&buf, None, &mut v, 1, true, Order::Device)?;
            acc = f(acc, v[0]);
        }
        Ok(Scalar::new(acc, ctx.host_now_s()))
    }

    /// Repeated local-memory tree passes until one value remains.
    fn reduce_on_device_tree(
        &self,
        ctx: &crate::context::Context,
        device: usize,
        compiled: &vgpu::CompiledKernel,
        mut data: Buffer<T>,
        mut n: usize,
    ) -> Result<Buffer<T>> {
        let wg_size = ctx.work_group();
        loop {
            let n_groups = n.div_ceil(wg_size);
            let partials = ctx.device(device).alloc::<T>(n_groups)?;
            let body = self.tree_pass_body(data.clone(), partials.clone(), n, wg_size);
            let kernel = compiled.with_body(body);
            ctx.queue(device).launch(
                &kernel,
                NDRange::linear(n_groups * wg_size, wg_size),
                Order::Device,
            )?;
            if n_groups == 1 {
                return Ok(partials);
            }
            data = partials;
            n = n_groups;
        }
    }

    /// One local-memory tree pass: each group reduces `wg_size` elements
    /// into one partial (sequential addressing — conflict-free).
    fn tree_pass_body(
        &self,
        input: Buffer<T>,
        partials: Buffer<T>,
        n: usize,
        wg_size: usize,
    ) -> KernelBody {
        let f = self.user.func().clone();
        let identity = self.identity;
        let static_ops = self.user.static_ops();
        Arc::new(move |wg: &WorkGroup| {
            let scratch = wg.local_buf::<T>(wg_size);
            // Load phase: guarded global read, identity padding.
            wg.for_each_item(|it| {
                let lid = it.local_id(0);
                let gid = it.global_id(0);
                let v = if gid < n {
                    it.read(&input, gid)
                } else {
                    identity
                };
                scratch.set(lid, v);
            });
            wg.barrier();
            // Tree phase: stride halving, sequential addressing.
            let mut s = wg_size / 2;
            while s > 0 {
                wg.for_each_item(|it| {
                    let lid = it.local_id(0);
                    if lid < s {
                        let (r, dyn_ops) =
                            meter::metered(|| f(scratch.get(lid), scratch.get(lid + s)));
                        scratch.set(lid, r);
                        it.work(static_ops + dyn_ops);
                    }
                });
                // Sequential addressing is conflict-free; record the warp
                // access pattern so the model can prove it.
                record_tree_banks(wg, s, false);
                wg.barrier();
                s /= 2;
            }
            wg.for_each_item(|it| {
                if it.local_id(0) == 0 {
                    it.write(&partials, wg.group_id(0), scratch.get(0));
                }
            });
        })
    }

    /// The ablation baseline: log₂(n) full passes through global memory,
    /// no local memory at all.
    fn reduce_on_device_naive(
        &self,
        ctx: &crate::context::Context,
        device: usize,
        compiled: &vgpu::CompiledKernel,
        mut data: Buffer<T>,
        mut n: usize,
    ) -> Result<Buffer<T>> {
        let f_outer = self.user.func().clone();
        let identity = self.identity;
        let static_ops = self.user.static_ops();
        while n > 1 {
            let half = n.div_ceil(2);
            let next = ctx.device(device).alloc::<T>(half)?;
            let src = data.clone();
            let dst = next.clone();
            let f = f_outer.clone();
            let body: KernelBody = Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if !it.in_bounds() {
                        return;
                    }
                    let i = it.global_id(0);
                    let a = it.read(&src, i);
                    let b = if i + half < n {
                        it.read(&src, i + half)
                    } else {
                        identity
                    };
                    let (r, dyn_ops) = meter::metered(|| f(a, b));
                    it.write(&dst, i, r);
                    it.work(static_ops + dyn_ops);
                });
            });
            let kernel = compiled.with_body(body);
            ctx.queue(device)
                .launch(&kernel, linear_range(ctx, half), Order::Device)?;
            data = next;
            n = half;
        }
        Ok(data)
    }
}

/// Record the local-memory access pattern of one tree level for every warp:
/// lanes `lid < s` read `lid` and `lid + s` (sequential addressing when
/// `interleaved` is false) or `2*s*lid` and `2*s*lid + s` (the classic
/// conflicting interleaved pattern) — the latter is used by the ablation.
fn record_tree_banks(wg: &WorkGroup, s: usize, interleaved: bool) {
    let warp = vgpu::timing::WARP_SIZE;
    let active = s;
    let mut lane = 0usize;
    while lane < active {
        let hi = (lane + warp).min(active);
        if interleaved {
            wg.bank_model().record_access((lane..hi).map(|l| 2 * s * l));
            wg.bank_model()
                .record_access((lane..hi).map(|l| 2 * s * l + s));
        } else {
            wg.bank_model().record_access(lane..hi);
            wg.bank_model().record_access((lane..hi).map(|l| l + s));
        }
        lane = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;
    use crate::vector::Distribution;

    fn sum_skel() -> Reduce<f32, fn(f32, f32) -> f32> {
        Reduce::new(
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    #[test]
    fn reduce_sums_exactly() {
        let c = ctx(1);
        let v = Vector::from_vec(&c, (1..=1000).map(|i| i as f32).collect());
        let s = sum_skel().apply(&v).unwrap();
        assert_eq!(s.get_value(), 500500.0);
    }

    #[test]
    fn reduce_handles_non_power_of_two_lengths() {
        let c = ctx(1);
        for n in [1usize, 2, 63, 64, 65, 127, 1000, 4097] {
            let v = Vector::from_vec(&c, vec![1.0f32; n]);
            let s = sum_skel().apply(&v).unwrap();
            assert_eq!(s.get_value(), n as f32, "n={n}");
        }
    }

    #[test]
    fn reduce_across_block_distributed_devices() {
        let c = ctx(3);
        let v = Vector::from_vec(&c, (1..=100).map(|i| i as f32).collect());
        v.set_distribution(Distribution::Block).unwrap();
        let s = sum_skel().apply(&v).unwrap();
        assert_eq!(s.get_value(), 5050.0);
    }

    #[test]
    fn reduce_on_copy_distribution_uses_one_device() {
        let c = ctx(2);
        let v = Vector::from_vec(&c, vec![2.0f32; 64]);
        v.set_distribution(Distribution::Copy).unwrap();
        let s = sum_skel().apply(&v).unwrap();
        assert_eq!(s.get_value(), 128.0, "copies must not be double counted");
    }

    #[test]
    fn reduce_with_max_operator() {
        let c = ctx(2);
        let max_fn = Reduce::new(
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
        let mut data: Vec<f32> = (0..500).map(|i| (i as f32 * 37.0) % 101.0).collect();
        data[321] = 1e6;
        let v = Vector::from_vec(&c, data);
        assert_eq!(max_fn.apply(&v).unwrap().get_value(), 1e6);
    }

    #[test]
    fn reduce_empty_vector_errors() {
        let c = ctx(1);
        let v = Vector::from_vec(&c, Vec::<f32>::new());
        assert!(matches!(sum_skel().apply(&v), Err(Error::Empty(_))));
    }

    #[test]
    fn naive_strategy_matches_tree_result_but_costs_more_traffic() {
        let c = ctx(1);
        let data: Vec<f32> = (0..4096).map(|i| (i % 7) as f32).collect();
        let expected: f32 = data.iter().sum();

        let v = Vector::from_vec(&c, data);
        v.ensure_on_devices().unwrap();

        // Warm the program cache so only kernel time is compared.
        sum_skel().apply(&v).unwrap();

        c.platform().reset_clocks();
        let tree = sum_skel().apply(&v).unwrap();
        c.sync();
        let t_tree = c.host_now_s();

        c.platform().reset_clocks();
        let naive = sum_skel()
            .with_strategy(ReduceStrategy::GlobalNaive)
            .apply(&v)
            .unwrap();
        c.sync();
        let t_naive = c.host_now_s();

        assert_eq!(tree.get_value(), expected);
        assert_eq!(naive.get_value(), expected);
        assert!(
            t_naive > t_tree,
            "global-memory reduce must model slower: naive={t_naive} tree={t_tree}"
        );
    }

    #[test]
    fn dot_product_composition() {
        // The paper's Listing 1: C = sum(mult(A, B)).
        let c = ctx(2);
        let mult = crate::skel_fn!(
            fn mult(x: f32, y: f32) -> f32 {
                x * y
            }
        );
        let a = Vector::from_vec(&c, (0..64).map(|i| i as f32).collect());
        let b = Vector::from_vec(&c, (0..64).map(|i| (i % 4) as f32).collect());
        let ab = crate::skeletons::Zip::new(mult).apply(&a, &b).unwrap();
        let s = sum_skel().apply(&ab).unwrap();
        let expected: f32 = (0..64).map(|i| (i * (i % 4)) as f32).sum();
        assert_eq!(s.get_value(), expected);
    }
}
