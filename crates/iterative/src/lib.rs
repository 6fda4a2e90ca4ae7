//! # skelcl-iterative — iterative simulation workloads over
//! `Matrix`/`Stencil2D::iterate`
//!
//! The workload class `Stencil2D::iterate(n)` was built for: simulations
//! that apply the *same* stencil hundreds of times, where the cost is
//! dominated by per-iteration halo exchanges rather than any single pass.
//! Two classics from the SkelCL stencil suite, implemented twice each:
//!
//! * [`seq`] — plain sequential host references,
//! * [`skelcl_impl`] — matrices + one iterated 2D stencil, ping-ponging
//!   two device-resident buffers with one batched halo exchange and one
//!   local-memory block launch per block of iterations (the block count
//!   priced from the platform's costs), and no host round trips.
//!
//! The workloads:
//!
//! * **Heat relaxation** — Jacobi relaxation of the steady-state heat
//!   equation: every cell moves to the mean of its four neighbours
//!   ([`heat_at`]), edges insulated (`Neumann`). The update is a convex
//!   combination, so the grid's maximum never rises and its minimum never
//!   falls — the monotone-convergence invariant the golden tests check.
//! * **Game of life** — Conway's rules ([`life_at`]) on a torus (`Wrap`),
//!   with the standard period-2 (blinker) and translating (glider)
//!   golden states.
//!
//! Both paths evaluate every cell through the same per-cell function, so
//! their results are **bit-identical** — sequentially, on one device and
//! on many devices.

pub mod seq;
pub mod skelcl_impl;

/// One Jacobi relaxation step of the steady-state heat equation at the
/// getter's origin: the mean of the four direct neighbours. The weight is
/// an exact power of two, so the update is a floating-point-friendly
/// convex combination (max non-increasing, min non-decreasing). The
/// summation order is fixed and shared by both implementations — do not
/// "simplify" the expression.
#[inline]
pub fn heat_at(get: impl Fn(isize, isize) -> f32) -> f32 {
    0.25 * (get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1))
}

/// One game-of-life step at the getter's origin: Conway's B3/S23 rules
/// over the 8-neighbourhood, cells encoded as `0`/`1`.
#[inline]
pub fn life_at(get: impl Fn(isize, isize) -> u8) -> u8 {
    let mut neighbours = 0u32;
    for dr in -1isize..=1 {
        for dc in -1isize..=1 {
            if dr != 0 || dc != 0 {
                neighbours += u32::from(get(dr, dc));
            }
        }
    }
    let alive = get(0, 0) != 0;
    u8::from(neighbours == 3 || (alive && neighbours == 2))
}

/// A `rows × cols` plate at temperature 0 with a hot square in the upper
/// left and a cold square in the lower right — enough contrast that the
/// relaxation has a long monotone transient.
pub fn heat_plate(rows: usize, cols: usize) -> Vec<f32> {
    let mut grid = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            if r < rows / 3 && c < cols / 3 {
                grid[r * cols + c] = 100.0;
            } else if r >= 2 * rows / 3 && c >= 2 * cols / 3 {
                grid[r * cols + c] = -100.0;
            }
        }
    }
    grid
}

/// An empty life grid with the given cells (as `(row, col)`) alive.
pub fn life_grid(rows: usize, cols: usize, alive: &[(usize, usize)]) -> Vec<u8> {
    let mut grid = vec![0u8; rows * cols];
    for &(r, c) in alive {
        grid[r * cols + c] = 1;
    }
    grid
}

/// A vertical period-2 blinker centred at `(row, col)`.
pub fn blinker(rows: usize, cols: usize, row: usize, col: usize) -> Vec<u8> {
    life_grid(rows, cols, &[(row - 1, col), (row, col), (row + 1, col)])
}

/// The standard south-east-bound glider with its 3×3 bounding box at
/// `(row, col)`: after every 4 generations the pattern reappears
/// translated by `(+1, +1)` (wrapping on the torus).
pub fn glider(rows: usize, cols: usize, row: usize, col: usize) -> Vec<u8> {
    life_grid(
        rows,
        cols,
        &[
            (row, col + 1),
            (row + 1, col + 2),
            (row + 2, col),
            (row + 2, col + 1),
            (row + 2, col + 2),
        ],
    )
}

/// A deterministic random-soup life grid (~37 % alive), for the
/// device-count determinism tests.
pub fn life_soup(rows: usize, cols: usize, salt: u32) -> Vec<u8> {
    (0..rows * cols)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(0x9E3779B9)
                .wrapping_add(salt.wrapping_mul(0x85EBCA6B));
            u8::from(h % 8 < 3)
        })
        .collect()
}

/// Translate a wrapped grid by `(dr, dc)` (torus shift) — the expected
/// state of a glider run.
pub fn shift_torus<T: Copy>(grid: &[T], rows: usize, cols: usize, dr: usize, dc: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let sr = (r + rows - dr) % rows;
            let sc = (c + cols - dc) % cols;
            out.push(grid[sr * cols + sc]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_of(grid: &[u8], cols: usize, r: usize, c: usize) -> impl Fn(isize, isize) -> u8 + '_ {
        move |dr, dc| {
            let rr = r as isize + dr;
            let cc = c as isize + dc;
            if rr < 0 || cc < 0 {
                return 0;
            }
            grid.get(rr as usize * cols + cc as usize)
                .copied()
                .unwrap_or(0)
        }
    }

    #[test]
    fn life_rules_birth_survival_death() {
        // Row-major 3×3 neighbourhoods around the centre cell (1, 1).
        let born = [0, 1, 0, 1, 0, 0, 0, 1, 0]; // 3 neighbours, dead centre
        assert_eq!(life_at(get_of(&born, 3, 1, 1)), 1);
        let survives = [1, 1, 0, 0, 1, 0, 0, 0, 1]; // 3 neighbours, alive
        assert_eq!(life_at(get_of(&survives, 3, 1, 1)), 1);
        let lonely = [0, 0, 0, 1, 1, 0, 0, 0, 0]; // 1 neighbour
        assert_eq!(life_at(get_of(&lonely, 3, 1, 1)), 0);
        let crowded = [1, 1, 1, 1, 1, 0, 0, 1, 0]; // 5 neighbours
        assert_eq!(life_at(get_of(&crowded, 3, 1, 1)), 0);
    }

    #[test]
    fn heat_update_is_the_neighbour_mean() {
        let grid = [0.0f32, 8.0, 0.0, 4.0, 99.0, 12.0, 0.0, 16.0, 0.0];
        let get = |dr: isize, dc: isize| grid[((1 + dr) * 3 + (1 + dc)) as usize];
        assert_eq!(heat_at(get), 10.0); // (8 + 4 + 12 + 16) / 4
    }

    #[test]
    fn shift_torus_wraps() {
        let g = [1u8, 0, 0, 0];
        assert_eq!(shift_torus(&g, 2, 2, 1, 1), vec![0, 0, 0, 1]);
        assert_eq!(shift_torus(&shift_torus(&g, 2, 2, 1, 1), 2, 2, 1, 1), g);
    }
}
