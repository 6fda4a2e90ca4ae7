//! The Scan skeleton (paper eq. (4)): exclusive prefix combination
//! `scan ⊕ [x0, ..., xn-1] = [id, x0, x0⊕x1, ..., x0⊕...⊕xn-2]`.
//!
//! "The implementation of Scan provided in SkelCL is a modified version of
//! [Harris et al., GPU Gems 3 ch. 39]. It is highly optimized and makes
//! heavy use of local memory, as well as it tries to avoid memory bank
//! conflicts." — We implement exactly that: the work-efficient Blelloch
//! up-sweep/down-sweep in local memory over tiles of `2 × work_group`
//! elements, with `CONFLICT_FREE_OFFSET` index padding; multi-tile inputs
//! scan their tile sums recursively and add the offsets back; multi-device
//! (Block) inputs propagate per-device carries.
//!
//! The un-padded variant is kept for the bank-conflict ablation (E9).

use crate::codegen::{self, UserFn};
use crate::error::Result;
use crate::matrix::MatrixPart;
use crate::meter;
use crate::vector::{Distribution, Vector};
use std::marker::PhantomData;
use std::sync::Arc;
use vgpu::local::{conflict_free_index, padded_local_len};
use vgpu::timing::WARP_SIZE;
use vgpu::{
    Buffer, CompiledKernel, KernelBody, NDRange, Order, Program, Scalar as Element, WorkGroup,
};

/// Bank-conflict handling for the local-memory tree phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanStrategy {
    /// Padded indices (`CONFLICT_FREE_OFFSET`), the paper's optimized form.
    #[default]
    BankAware,
    /// Raw power-of-two strides — serialises on the banks (ablation only).
    Conflicting,
}

/// The Scan skeleton, customized by an associative operator and identity.
pub struct Scan<T: Element, F> {
    user: UserFn<F>,
    identity: T,
    strategy: ScanStrategy,
    program: Program,
    _pd: PhantomData<fn(T, T) -> T>,
}

impl<T, F> Scan<T, F>
where
    T: Element,
    F: Fn(T, T) -> T + Send + Sync + Clone + 'static,
{
    pub fn new(user: UserFn<F>, identity: T) -> Self {
        let program = codegen::scan_program(user.name(), user.source(), T::TYPE_NAME);
        Scan {
            user,
            identity,
            strategy: ScanStrategy::BankAware,
            program,
            _pd: PhantomData,
        }
    }

    pub fn with_strategy(mut self, strategy: ScanStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Exclusive scan; output has the input's length and distribution.
    pub fn apply(&self, input: &Vector<T>) -> Result<Vector<T>> {
        Ok(self.apply_with_total(input)?.0)
    }

    /// Exclusive scan plus the combination of *all* elements (the value an
    /// inclusive scan would end with) — stream compaction and radix sort
    /// need it to size their outputs.
    pub fn apply_with_total(&self, input: &Vector<T>) -> Result<(Vector<T>, T)> {
        let ctx = input.ctx().clone();
        let _span = input.call_span("scan.apply");
        let compiled = ctx.get_or_build(&self.program)?;
        let parts = input.parts()?;

        let mut out_parts = Vec::with_capacity(parts.len());
        let mut totals = Vec::with_capacity(parts.len());
        for p in &parts {
            if p.rows == 0 {
                let empty = ctx.device(p.device).alloc::<T>(0)?;
                out_parts.push(MatrixPart::column(p.device, p.row_offset, 0, empty));
                totals.push(self.identity);
                continue;
            }
            let (buf, total) =
                self.scan_device(&ctx, p.device, &compiled, p.buffer.clone(), p.rows)?;
            out_parts.push(MatrixPart::column(p.device, p.row_offset, p.rows, buf));
            totals.push(total);
        }

        // Multi-part (Block): propagate carries — part d must be offset by
        // the combination of all earlier parts' totals.
        let f = self.user.func();
        if input.distribution() == Distribution::Block && out_parts.len() > 1 {
            let mut carry = self.identity;
            for (i, p) in out_parts.iter().enumerate() {
                if i > 0 && p.rows > 0 {
                    self.add_carry(&ctx, p.device, &compiled, &p.buffer, carry)?;
                }
                carry = f(carry, totals[i]);
            }
            let grand_total = carry;
            return Ok((
                Vector::from_device_parts(&ctx, input.len(), input.distribution(), out_parts),
                grand_total,
            ));
        }

        // Single / Copy: every active part already holds the full scan.
        let grand_total = totals.first().copied().unwrap_or(self.identity);
        Ok((
            Vector::from_device_parts(&ctx, input.len(), input.distribution(), out_parts),
            grand_total,
        ))
    }

    /// Scan a contiguous device buffer; returns `(exclusive_scan, total)`.
    fn scan_device(
        &self,
        ctx: &crate::context::Context,
        device: usize,
        compiled: &CompiledKernel,
        input: Buffer<T>,
        len: usize,
    ) -> Result<(Buffer<T>, T)> {
        let lsize = work_group_pow2(ctx.work_group());
        let epg = 2 * lsize; // elements per group (each lane loads two)
        let n_groups = len.div_ceil(epg);

        let out = ctx.device(device).alloc::<T>(len)?;
        let block_sums = ctx.device(device).alloc::<T>(n_groups)?;

        let body = self.scan_block_body(input, out.clone(), block_sums.clone(), len, lsize);
        let kernel = compiled.with_body(body);
        ctx.queue(device).launch(
            &kernel,
            NDRange::linear(n_groups * lsize, lsize),
            Order::Device,
        )?;

        if n_groups == 1 {
            let mut total = [T::default()];
            ctx.queue(device).enqueue_read(
                &block_sums,
                None,
                &mut total,
                1,
                true,
                Order::Device,
            )?;
            return Ok((out, total[0]));
        }

        // Recursively scan the per-group sums, then add them back.
        let (scanned_sums, total) =
            self.scan_device(ctx, device, compiled, block_sums, n_groups)?;
        self.add_offsets(ctx, device, compiled, &out, &scanned_sums, len, epg)?;
        Ok((out, total))
    }

    /// The per-tile Blelloch kernel body.
    fn scan_block_body(
        &self,
        input: Buffer<T>,
        out: Buffer<T>,
        block_sums: Buffer<T>,
        n: usize,
        lsize: usize,
    ) -> KernelBody {
        let f = self.user.func().clone();
        let identity = self.identity;
        let static_ops = self.user.static_ops();
        let bank_aware = self.strategy == ScanStrategy::BankAware;
        Arc::new(move |wg: &WorkGroup| {
            let banks = wg.bank_model().n_banks();
            let cfi = |i: usize| {
                if bank_aware {
                    conflict_free_index(i, banks)
                } else {
                    i
                }
            };
            let temp_len = if bank_aware {
                padded_local_len(2 * lsize, banks)
            } else {
                2 * lsize
            };
            let temp = wg.local_buf::<T>(temp_len);
            let base = wg.group_id(0) * 2 * lsize;

            // Load two elements per lane, identity-padded at the tail.
            wg.for_each_item(|it| {
                let lid = it.local_id(0);
                for idx in [lid, lid + lsize] {
                    let v = if base + idx < n {
                        it.read(&input, base + idx)
                    } else {
                        identity
                    };
                    temp.set(cfi(idx), v);
                }
            });

            // Up-sweep (reduce) phase.
            let mut offset = 1usize;
            let mut d = lsize;
            while d > 0 {
                wg.barrier();
                wg.for_each_item(|it| {
                    let lid = it.local_id(0);
                    if lid < d {
                        let i = offset * (2 * lid + 1) - 1;
                        let j = offset * (2 * lid + 2) - 1;
                        let (r, dyn_ops) = meter::metered(|| f(temp.get(cfi(i)), temp.get(cfi(j))));
                        temp.set(cfi(j), r);
                        it.work(static_ops + dyn_ops);
                    }
                });
                record_scan_banks(wg, d, offset, bank_aware);
                offset <<= 1;
                d >>= 1;
            }

            // Save the tile total and clear the last element.
            wg.for_each_item(|it| {
                if it.local_id(0) == 0 {
                    let last = cfi(2 * lsize - 1);
                    it.write(&block_sums, wg.group_id(0), temp.get(last));
                    temp.set(last, identity);
                }
            });

            // Down-sweep phase.
            let mut d = 1usize;
            while d <= lsize {
                offset >>= 1;
                wg.barrier();
                wg.for_each_item(|it| {
                    let lid = it.local_id(0);
                    if lid < d {
                        let i = offset * (2 * lid + 1) - 1;
                        let j = offset * (2 * lid + 2) - 1;
                        let t = temp.get(cfi(i));
                        temp.set(cfi(i), temp.get(cfi(j)));
                        let (r, dyn_ops) = meter::metered(|| f(t, temp.get(cfi(j))));
                        temp.set(cfi(j), r);
                        it.work(static_ops + dyn_ops);
                    }
                });
                record_scan_banks(wg, d, offset, bank_aware);
                d <<= 1;
            }
            wg.barrier();

            // Store the scanned tile.
            wg.for_each_item(|it| {
                let lid = it.local_id(0);
                for idx in [lid, lid + lsize] {
                    if base + idx < n {
                        it.write(&out, base + idx, temp.get(cfi(idx)));
                    }
                }
            });
        })
    }

    /// `data[i] = f(offsets[i / epg], data[i])` — adds the scanned tile
    /// sums back onto each tile.
    #[allow(clippy::too_many_arguments)]
    fn add_offsets(
        &self,
        ctx: &crate::context::Context,
        device: usize,
        compiled: &CompiledKernel,
        data: &Buffer<T>,
        offsets: &Buffer<T>,
        len: usize,
        epg: usize,
    ) -> Result<()> {
        let f = self.user.func().clone();
        let static_ops = self.user.static_ops();
        let data = data.clone();
        let offsets = offsets.clone();
        let body: KernelBody = Arc::new(move |wg: &WorkGroup| {
            wg.for_each_item(|it| {
                if !it.in_bounds() {
                    return;
                }
                let i = it.global_id(0);
                let off = it.read(&offsets, i / epg);
                let v = it.read(&data, i);
                let (r, dyn_ops) = meter::metered(|| f(off, v));
                it.write(&data, i, r);
                it.work(static_ops + dyn_ops);
            });
        });
        let kernel = compiled.with_body(body);
        let wg_size = ctx.work_group().min(len);
        ctx.queue(device)
            .launch(&kernel, NDRange::linear(len, wg_size), Order::Device)?;
        Ok(())
    }

    /// `data[i] = f(carry, data[i])` — multi-device carry propagation.
    fn add_carry(
        &self,
        ctx: &crate::context::Context,
        device: usize,
        compiled: &CompiledKernel,
        data: &Buffer<T>,
        carry: T,
    ) -> Result<()> {
        let f = self.user.func().clone();
        let static_ops = self.user.static_ops();
        let data = data.clone();
        let len = data.len();
        let body: KernelBody = Arc::new(move |wg: &WorkGroup| {
            wg.for_each_item(|it| {
                if !it.in_bounds() {
                    return;
                }
                let i = it.global_id(0);
                let v = it.read(&data, i);
                let (r, dyn_ops) = meter::metered(|| f(carry, v));
                it.write(&data, i, r);
                it.work(static_ops + dyn_ops);
            });
        });
        let kernel = compiled.with_body(body);
        let wg_size = ctx.work_group().min(len);
        ctx.queue(device)
            .launch(&kernel, NDRange::linear(len, wg_size), Order::Device)?;
        Ok(())
    }
}

/// Largest power of two ≤ `wg` (Blelloch needs power-of-two groups).
fn work_group_pow2(wg: usize) -> usize {
    let mut p = 1usize;
    while p * 2 <= wg {
        p *= 2;
    }
    p
}

/// Record one tree level's local-memory traffic for the bank model: lanes
/// `lid < d` touch `offset*(2*lid+1)-1` and `offset*(2*lid+2)-1`, through
/// the padding map when `bank_aware`.
fn record_scan_banks(wg: &WorkGroup, d: usize, offset: usize, bank_aware: bool) {
    let banks = wg.bank_model().n_banks();
    let map = |i: usize| {
        if bank_aware {
            conflict_free_index(i, banks)
        } else {
            i
        }
    };
    let mut lane = 0usize;
    while lane < d {
        let hi = (lane + WARP_SIZE).min(d);
        wg.bank_model()
            .record_access((lane..hi).map(|l| map(offset * (2 * l + 1) - 1)));
        wg.bank_model()
            .record_access((lane..hi).map(|l| map(offset * (2 * l + 2) - 1)));
        lane = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeletons::test_support::ctx;

    fn sum_scan() -> Scan<f32, fn(f32, f32) -> f32> {
        Scan::new(
            crate::skel_fn!(
                fn sum(x: f32, y: f32) -> f32 {
                    x + y
                }
            ),
            0.0,
        )
    }

    fn expected_exclusive(data: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(data.len());
        let mut acc = 0.0f32;
        for &x in data {
            out.push(acc);
            acc += x;
        }
        out
    }

    #[test]
    fn scan_matches_paper_definition() {
        // Paper eq. (4): [id, x0, x0+x1, ..., x0+...+xn-2].
        let c = ctx(1);
        let data = vec![3.0f32, 1.0, 7.0, 0.0, 4.0, 1.0, 6.0, 3.0];
        let v = Vector::from_vec(&c, data.clone());
        let out = sum_scan().apply(&v).unwrap();
        assert_eq!(out.to_vec().unwrap(), expected_exclusive(&data));
    }

    #[test]
    fn scan_single_tile_and_multi_tile_sizes() {
        let c = ctx(1); // work_group 64 -> tile 128
        for n in [1usize, 2, 127, 128, 129, 1000, 4096, 5000] {
            let data: Vec<f32> = (0..n).map(|i| ((i * 13) % 5) as f32).collect();
            let v = Vector::from_vec(&c, data.clone());
            let (out, total) = sum_scan().apply_with_total(&v).unwrap();
            assert_eq!(out.to_vec().unwrap(), expected_exclusive(&data), "n={n}");
            assert_eq!(total, data.iter().sum::<f32>(), "n={n}");
        }
    }

    #[test]
    fn scan_across_block_distributed_devices() {
        let c = ctx(3);
        let data: Vec<f32> = (0..1000).map(|i| ((i * 7) % 11) as f32).collect();
        let v = Vector::from_vec(&c, data.clone());
        v.set_distribution(crate::vector::Distribution::Block)
            .unwrap();
        let (out, total) = sum_scan().apply_with_total(&v).unwrap();
        assert_eq!(out.to_vec().unwrap(), expected_exclusive(&data));
        assert_eq!(total, data.iter().sum::<f32>());
    }

    #[test]
    fn scan_with_non_commutative_operator() {
        // String-like concatenation is out of scope for Scalars, so use a
        // 2x2 matrix product encoded in u64... simpler: max-plus algebra,
        // associative but not invertible.
        let c = ctx(2);
        let maxplus = Scan::new(
            crate::skel_fn!(
                fn mp(x: i64, y: i64) -> i64 {
                    if x > y {
                        x
                    } else {
                        y
                    }
                }
            ),
            i64::MIN,
        );
        let data: Vec<i64> = vec![5, 1, 9, 3, 9, 2, 11, 0, 4];
        let v = Vector::from_vec(&c, data.clone());
        v.set_distribution(crate::vector::Distribution::Block)
            .unwrap();
        let out = maxplus.apply(&v).unwrap().to_vec().unwrap();
        let mut acc = i64::MIN;
        let mut want = Vec::new();
        for &x in &data {
            want.push(acc);
            acc = acc.max(x);
        }
        assert_eq!(out, want);
    }

    #[test]
    fn bank_aware_strategy_avoids_conflicts() {
        let c = ctx(1);
        let data: Vec<f32> = (0..4096).map(|i| (i % 3) as f32).collect();
        let v = Vector::from_vec(&c, data.clone());
        v.ensure_on_devices().unwrap();

        // Warm the program cache so only kernel time is compared.
        sum_scan().apply(&v).unwrap();

        c.platform().reset_clocks();
        let aware = sum_scan().apply(&v).unwrap();
        c.sync();
        let t_aware = c.host_now_s();

        c.platform().reset_clocks();
        let naive = sum_scan()
            .with_strategy(ScanStrategy::Conflicting)
            .apply(&v)
            .unwrap();
        c.sync();
        let t_naive = c.host_now_s();

        assert_eq!(aware.to_vec().unwrap(), naive.to_vec().unwrap());
        assert!(
            t_naive > t_aware,
            "bank conflicts must cost virtual time: naive={t_naive} aware={t_aware}"
        );
    }

    #[test]
    fn work_group_pow2_rounds_down() {
        assert_eq!(work_group_pow2(256), 256);
        assert_eq!(work_group_pow2(200), 128);
        assert_eq!(work_group_pow2(1), 1);
    }

    #[test]
    fn scan_then_map_stays_on_device() {
        let c = ctx(1);
        let v = Vector::from_vec(&c, vec![1.0f32; 512]);
        let scanned = sum_scan().apply(&v).unwrap();
        let before = c.platform().stats_snapshot();
        let inc = crate::skel_fn!(
            fn inc(x: f32) -> f32 {
                x + 1.0
            }
        );
        let _ = crate::skeletons::Map::new(inc).apply(&scanned).unwrap();
        let delta = c.platform().stats_snapshot() - before;
        assert_eq!(delta.h2d_transfers, 0);
    }
}
