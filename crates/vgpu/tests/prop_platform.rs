//! Property-based tests for the virtual platform's invariants.

use proptest::prelude::*;
use std::sync::Arc;
use vgpu::{
    local::{conflict_free_index, BankModel},
    timing::VirtualClock,
    DeviceSpec, DriverProfile, KernelBody, NDRange, Order, Platform, PlatformConfig, WorkGroup,
};

fn platform(n: usize) -> Platform {
    Platform::new(
        PlatformConfig::default()
            .devices(n)
            .spec(DeviceSpec::tiny())
            .cache_tag("vgpu-proptests"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Every valid (global, local) pair covers each global index exactly once.
    #[test]
    fn ndrange_covers_every_index_once(
        global in 1usize..5000,
        local in 1usize..256,
    ) {
        let p = platform(1);
        let dev = p.device(0);
        let local = local.min(dev.spec().max_work_group);
        let buf = dev.alloc::<u32>(global).unwrap();
        let queue = p.queue(0, DriverProfile::cuda());
        let program = vgpu::Program::from_source("cover", "__kernel void cover() {}");
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if it.in_bounds() {
                        it.atomic_add_u32(&buf, it.global_id(0), 1);
                    }
                });
            })
        };
        let kernel = queue.build_kernel(&program, body).unwrap();
        queue
            .launch(&kernel, NDRange::linear(global, local), Order::Device)
            .unwrap();
        prop_assert!(buf.to_vec().iter().all(|&v| v == 1));
    }

    // Buffer write/read round trips preserve arbitrary data.
    #[test]
    fn buffer_roundtrip(data in prop::collection::vec(any::<u64>(), 0..2000)) {
        let p = platform(1);
        if data.is_empty() {
            return Ok(());
        }
        let buf = p.device(0).alloc_from(&data).unwrap();
        prop_assert_eq!(buf.to_vec(), data);
    }

    // Ranged writes affect exactly the written range.
    #[test]
    fn ranged_write_is_surgical(
        len in 1usize..500,
        off_frac in 0.0f64..1.0,
        wlen_frac in 0.0f64..1.0,
    ) {
        let p = platform(1);
        let buf = p.device(0).alloc::<u32>(len).unwrap();
        buf.fill(7);
        let off = ((len as f64) * off_frac) as usize % len;
        let wlen = (((len - off) as f64) * wlen_frac) as usize;
        let payload = vec![9u32; wlen];
        buf.write_range_from_host(off, &payload).unwrap();
        let out = buf.to_vec();
        for (i, v) in out.iter().enumerate() {
            if i >= off && i < off + wlen {
                prop_assert_eq!(*v, 9);
            } else {
                prop_assert_eq!(*v, 7);
            }
        }
    }

    // Bank conflicts are bounded by the access count minus one, and the
    // padded index map never increases conflicts.
    #[test]
    fn bank_conflicts_bounded_and_padding_helps(
        idxs in prop::collection::vec(0usize..4096, 1..32),
    ) {
        let bm_raw = BankModel::new(16);
        let raw = bm_raw.record_access(idxs.iter().copied());
        prop_assert!(raw < idxs.len() as u64);

        // Power-of-two strided patterns: padding removes all conflicts.
        let bm_pad = BankModel::new(16);
        let strided: Vec<usize> = (0..16).map(|l| l * 16).collect();
        let padded = bm_pad.record_access(strided.iter().map(|&i| conflict_free_index(i, 16)));
        prop_assert_eq!(padded, 0);
    }

    // The virtual clock never goes backwards under arbitrary command mixes.
    #[test]
    fn clock_is_monotone(ops in prop::collection::vec((0.0f64..10.0, 0.0f64..2.0), 1..50)) {
        let c = VirtualClock::new();
        let mut last_end = 0.0f64;
        for (not_before, dur) in ops {
            let (start, end) = c.advance_from(not_before, dur);
            prop_assert!(start >= last_end || start >= not_before);
            prop_assert!(end >= start);
            prop_assert!(c.now_s() >= last_end);
            last_end = end;
        }
    }

    // More concurrent transfers never increase per-transfer bandwidth.
    #[test]
    fn contention_is_monotone(bytes in 1usize..(1 << 24), a in 1usize..16, b in 1usize..16) {
        let t = vgpu::topology::Topology::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(t.transfer_s(bytes, lo) <= t.transfer_s(bytes, hi) + 1e-15);
    }

    // Device memory accounting: alloc/drop sequences always return to zero.
    #[test]
    fn alloc_accounting_balances(sizes in prop::collection::vec(1usize..10_000, 0..20)) {
        let p = platform(1);
        let dev = p.device(0);
        let before = dev.used_bytes();
        {
            let mut held = Vec::new();
            for s in &sizes {
                if let Ok(b) = dev.alloc::<f32>(*s) {
                    held.push(b);
                }
            }
            let used: usize = held.iter().map(|b| b.size_bytes()).sum();
            prop_assert_eq!(dev.used_bytes(), before + used);
        }
        prop_assert_eq!(dev.used_bytes(), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Kernel durations are invariant under the host thread count.
    #[test]
    fn duration_thread_count_invariant(n in 64usize..4000, seed in 0u64..100) {
        let p = platform(1);
        let dev = p.device(0);
        let buf = dev.alloc::<u32>(n).unwrap();
        let queue = p.queue(0, DriverProfile::opencl());
        let program = vgpu::Program::from_source("det", "__kernel void det() {}");
        let body: KernelBody = {
            let buf = buf.clone();
            Arc::new(move |wg: &WorkGroup| {
                wg.for_each_item(|it| {
                    if it.in_bounds() {
                        let i = it.global_id(0);
                        it.write(&buf, i, i as u32);
                        it.work((i as u64 * 31 + seed) % 97 + 1);
                    }
                });
            })
        };
        let kernel = queue.build_kernel(&program, body).unwrap();

        std::env::set_var("VGPU_THREADS", "1");
        let a = queue
            .launch(&kernel, NDRange::linear(n, 64), Order::Device)
            .unwrap();
        std::env::set_var("VGPU_THREADS", "5");
        let b = queue
            .launch(&kernel, NDRange::linear(n, 64), Order::Device)
            .unwrap();
        std::env::remove_var("VGPU_THREADS");
        let (sa, sb) = (a.launch.unwrap(), b.launch.unwrap());
        prop_assert_eq!(sa.duration_s, sb.duration_s);
        prop_assert_eq!(sa.max_cu_cycles, sb.max_cu_cycles);
        prop_assert_eq!(sa.global_bytes, sb.global_bytes);
    }
}
