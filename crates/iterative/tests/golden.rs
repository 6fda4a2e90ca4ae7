//! Golden-state tests for the iterative workloads: periodic life patterns,
//! glider translation, heat monotone convergence — and bit-identical
//! sequential / 1-device / 2-device / 4-device runs throughout.

use skelcl::{Context, ContextConfig, Matrix, MatrixDistribution};
use skelcl_iterative::{blinker, glider, heat_plate, life_soup, seq, shift_torus, skelcl_impl};

fn ctx(n: usize) -> Context {
    Context::new(
        ContextConfig::default()
            .devices(n)
            .spec(vgpu::DeviceSpec::tiny())
            .work_group(64)
            .cache_tag("iterative-tests"),
    )
}

/// Run the SkelCL life implementation on `devices` devices.
fn life_on_devices(grid: &[u8], rows: usize, cols: usize, n: usize, devices: usize) -> Vec<u8> {
    let c = ctx(devices);
    let m = Matrix::from_vec(&c, rows, cols, grid.to_vec());
    if devices > 1 {
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
    }
    skelcl_impl::life_run(&m, n).unwrap().to_vec().unwrap()
}

/// Run the SkelCL heat implementation on `devices` devices.
fn heat_on_devices(grid: &[f32], rows: usize, cols: usize, n: usize, devices: usize) -> Vec<f32> {
    let c = ctx(devices);
    let m = Matrix::from_vec(&c, rows, cols, grid.to_vec());
    if devices > 1 {
        m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
            .unwrap();
    }
    skelcl_impl::heat_run(&m, n).unwrap().to_vec().unwrap()
}

#[test]
fn blinker_has_period_two() {
    let (rows, cols) = (9, 7);
    let vertical = blinker(rows, cols, 4, 3);
    let horizontal = seq::life_run(&vertical, rows, cols, 1);
    // One step turns the vertical bar horizontal, the next restores it.
    assert_ne!(horizontal, vertical);
    assert_eq!(
        horizontal,
        skelcl_iterative::life_grid(rows, cols, &[(4, 2), (4, 3), (4, 4)])
    );
    assert_eq!(seq::life_run(&vertical, rows, cols, 2), vertical);
    // The device runs reproduce both golden states on every device count.
    for devices in [1usize, 2, 4] {
        assert_eq!(
            life_on_devices(&vertical, rows, cols, 1, devices),
            horizontal,
            "{devices}-device single step"
        );
        assert_eq!(
            life_on_devices(&vertical, rows, cols, 2, devices),
            vertical,
            "{devices}-device full period"
        );
        assert_eq!(
            life_on_devices(&vertical, rows, cols, 11, devices),
            horizontal,
            "{devices}-device odd generation count"
        );
    }
}

#[test]
fn glider_translates_one_cell_diagonally_every_four_generations() {
    let (rows, cols) = (9, 11);
    let start = glider(rows, cols, 1, 1);
    // Four generations: the same shape, one cell to the south-east.
    let want = shift_torus(&start, rows, cols, 1, 1);
    assert_eq!(seq::life_run(&start, rows, cols, 4), want);
    // Twelve generations wrap the translation further (still on the torus).
    let want3 = shift_torus(&start, rows, cols, 3, 3);
    assert_eq!(seq::life_run(&start, rows, cols, 12), want3);
    for devices in [1usize, 2, 4] {
        assert_eq!(
            life_on_devices(&start, rows, cols, 4, devices),
            want,
            "{devices}-device glider"
        );
        assert_eq!(
            life_on_devices(&start, rows, cols, 12, devices),
            want3,
            "{devices}-device long glider run"
        );
    }
}

#[test]
fn life_soup_is_bit_identical_across_device_counts() {
    let (rows, cols) = (18, 13);
    let soup = life_soup(rows, cols, 42);
    let want = seq::life_run(&soup, rows, cols, 8);
    for devices in [1usize, 2, 4] {
        assert_eq!(
            life_on_devices(&soup, rows, cols, 8, devices),
            want,
            "{devices} devices"
        );
    }
}

#[test]
fn heat_relaxation_is_monotone_and_converges() {
    let (rows, cols) = (16, 12);
    let plate = heat_plate(rows, cols);
    let range = |g: &[f32]| -> (f32, f32) {
        g.iter()
            .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
    };
    let (lo0, hi0) = range(&plate);
    // Per-step invariant: the update is a convex combination, so the
    // maximum never rises and the minimum never falls (up to one rounding
    // ulp, covered by the tolerance).
    let tol = (hi0 - lo0) * 1e-6;
    let mut cur = plate.clone();
    let (mut lo_prev, mut hi_prev) = (lo0, hi0);
    for step in 1..=60 {
        cur = seq::heat_step(&cur, rows, cols);
        let (lo, hi) = range(&cur);
        assert!(
            hi <= hi_prev + tol,
            "max rose at step {step}: {hi_prev} -> {hi}"
        );
        assert!(
            lo >= lo_prev - tol,
            "min fell at step {step}: {lo_prev} -> {lo}"
        );
        (lo_prev, hi_prev) = (lo, hi);
    }
    // And the transient genuinely contracts toward the uniform state.
    assert!(
        hi_prev - lo_prev < 0.5 * (hi0 - lo0),
        "60 steps must at least halve the temperature range"
    );
}

#[test]
fn heat_matches_the_sequential_reference_bit_for_bit() {
    let (rows, cols) = (16, 12);
    let plate = heat_plate(rows, cols);
    for n in [1usize, 5, 25] {
        let want: Vec<u32> = seq::heat_run(&plate, rows, cols, n)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        for devices in [1usize, 2, 4] {
            let got: Vec<u32> = heat_on_devices(&plate, rows, cols, n, devices)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "{n} steps on {devices} devices");
        }
    }
}

#[test]
fn device_iteration_stays_on_the_devices() {
    let (rows, cols) = (16, 8);
    let c = ctx(4);
    let m = Matrix::from_vec(&c, rows, cols, heat_plate(rows, cols));
    m.set_distribution(MatrixDistribution::RowBlock { halo: 1 })
        .unwrap();
    m.ensure_on_devices().unwrap();
    let before = c.platform().stats_snapshot();
    let out = skelcl_impl::heat_run(&m, 12).unwrap();
    let delta = c.platform().stats_snapshot() - before;
    // No re-upload between iterations and no intermediate download: only
    // halo rows cross the host. Round 1, then blocks of 4 + 4 + 3 rounds
    // over 4-row parts, each exchange uploading the six halos the boundary
    // reads (66 rows in all). Each part downloads once per exchange: the
    // rows its two neighbours need overlap or abut (46 rows in all).
    let row = (cols * 4) as u64;
    assert_eq!((delta.h2d_transfers, delta.h2d_bytes), (18, 66 * row));
    assert_eq!((delta.d2h_transfers, delta.d2h_bytes), (12, 46 * row));
    assert_eq!(delta.d2d_transfers, 0, "no device-to-device copy");
    assert_eq!(
        out.to_vec().unwrap(),
        seq::heat_run(&heat_plate(rows, cols), rows, cols, 12)
    );
}
