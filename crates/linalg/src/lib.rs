//! # skelcl-linalg — dense linear-algebra workloads over `Matrix`/`AllPairs`
//!
//! The workload class SkelCL's later `AllPairs(M, N)` skeleton was built
//! for, implemented twice:
//!
//! * [`seq`] — plain sequential host references,
//! * [`skelcl_impl`] — matrices + the [`skelcl::AllPairs`] skeleton (naive
//!   or local-memory tiled), all device-resident with lazy transfers and
//!   redistribution between devices.
//!
//! Two pipelines:
//!
//! * **Matrix multiplication** — `C = A · B`, zip = `×`, reduce = `+`.
//! * **Pairwise Euclidean distances / 1-NN** — distances between every
//!   query and every reference point (`zip = squared difference`,
//!   `reduce = +`, then an element-wise `sqrt`), followed by a per-query
//!   nearest-neighbour selection.
//!
//! Both paths fold the inner dimension in ascending order from the same
//! identity and evaluate every element through the same expressions, so the
//! results are **bit-identical** — sequentially, on one device, on many
//! devices, with the naive strategy and with the tiled one.

pub mod seq;
pub mod skelcl_impl;

/// Deterministic synthetic matrix data: bounded, sign-mixed values with
/// enough structure that reductions cannot cancel to zero by accident.
pub fn test_matrix(rows: usize, cols: usize, salt: u32) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            ((h % 2000) as f32) / 16.0 - 62.5
        })
        .collect()
}

/// Deterministic synthetic point cloud: `n` points of dimension `dim`,
/// row-major (one point per row), clustered enough that nearest-neighbour
/// queries have unambiguous answers.
pub fn test_points(n: usize, dim: usize, salt: u32) -> Vec<f32> {
    (0..n * dim)
        .map(|i| {
            let h = (i as u32)
                .wrapping_mul(0x9E3779B9)
                .wrapping_add(salt.wrapping_mul(0x85EBCA6B));
            ((h % 1024) as f32) / 32.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_reproducible() {
        assert_eq!(test_matrix(8, 8, 1), test_matrix(8, 8, 1));
        assert_ne!(test_matrix(8, 8, 1), test_matrix(8, 8, 2));
        assert_eq!(test_points(10, 3, 7).len(), 30);
        assert_eq!(test_points(10, 3, 7), test_points(10, 3, 7));
    }

    #[test]
    fn generator_values_are_bounded() {
        assert!(test_matrix(16, 16, 3).iter().all(|v| v.abs() <= 63.0));
        assert!(test_points(16, 4, 3)
            .iter()
            .all(|&v| (0.0..32.0).contains(&v)));
    }
}
