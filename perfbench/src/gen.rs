//! Seeded input generation. The workload seed is the only source of
//! variation: it picks each serve job's grid seed and tenant, each
//! client's request order, and the run workloads' input grid. The
//! program under test only ever sees the generated frames and grids.

use foundation::rng::SplitMix64;
use stencil_core::GridData;

/// One job shape: a kernel, its grid extents and the steps per job.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub kernel: &'static str,
    pub size: Vec<usize>,
    pub iters: usize,
}

impl Shape {
    fn new(kernel: &'static str, size: &[usize], iters: usize) -> Shape {
        Shape { kernel, size: size.to_vec(), iters }
    }

    /// Grid points of one job.
    pub fn points(&self) -> usize {
        self.size.iter().product()
    }
}

/// `serve-hot`: eight small shapes across 1-D, 2-D and 3-D kernels
/// (at most 32² points each), far below the 32-entry plan cache.
pub fn hot_shapes() -> Vec<Shape> {
    vec![
        Shape::new("Heat-1D", &[1024], 2),
        Shape::new("1D5P", &[512], 2),
        Shape::new("Heat-2D", &[32, 32], 2),
        Shape::new("Box-2D9P", &[32, 32], 2),
        Shape::new("Star-2D13P", &[24, 24], 2),
        Shape::new("Box-2D49P", &[32, 32], 1),
        Shape::new("Heat-3D", &[4, 16, 16], 2),
        Shape::new("Box-3D27P", &[4, 16, 16], 1),
    ]
}

/// `serve-churn`: 48 distinct small shapes, 1.5× the default plan-cache
/// capacity, so uniform draws miss about a third of the time.
pub fn churn_shapes() -> Vec<Shape> {
    let mut shapes = Vec::with_capacity(48);
    for kernel in ["Heat-2D", "Box-2D9P", "Star-2D13P", "Box-2D49P"] {
        for size in [[8, 8], [8, 16], [16, 8], [16, 16], [16, 24], [24, 16], [24, 24], [32, 32]] {
            shapes.push(Shape::new(kernel, &size, 1));
        }
    }
    for kernel in ["Heat-1D", "1D5P"] {
        for n in [256, 384, 512, 640, 768, 1024] {
            shapes.push(Shape::new(kernel, &[n], 2));
        }
    }
    for kernel in ["Heat-3D", "Box-3D27P"] {
        for size in [[2, 8, 8], [4, 8, 8]] {
            shapes.push(Shape::new(kernel, &size, 1));
        }
    }
    shapes
}

/// Tenants the serve jobs are spread over.
pub const TENANTS: u64 = 3;

/// One distinct serve job: a shape, a grid seed, a tenant, and the
/// protocol frame that asks for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub shape: usize,
    pub grid_seed: u64,
    pub tenant: u64,
    pub frame: String,
}

/// The distinct jobs of a serve workload: `grid_seeds` per shape, in
/// shape-major order. Every job asks for a digest of its output.
pub fn jobs(shapes: &[Shape], seed: u64, grid_seeds: usize) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x6A09_E667_F3BC_C908);
    let mut out = Vec::with_capacity(shapes.len() * grid_seeds);
    for (i, s) in shapes.iter().enumerate() {
        for _ in 0..grid_seeds {
            let grid_seed = rng.next_u64() % 1_000_000;
            let tenant = rng.next_u64() % TENANTS;
            let size: Vec<String> = s.size.iter().map(usize::to_string).collect();
            let frame = format!(
                "{{\"tenant\":\"t{tenant}\",\"kernel\":\"{}\",\"size\":[{}],\"iters\":{},\
                 \"seed\":{grid_seed},\"values\":\"digest\"}}",
                s.kernel,
                size.join(","),
                s.iters
            );
            out.push(Job { shape: i, grid_seed, tenant, frame });
        }
    }
    out
}

/// Client `client`'s request order: `len` job indices drawn uniformly
/// from `0..n`.
pub fn draws(n: usize, seed: u64, client: usize, len: usize) -> Vec<u32> {
    let mut rng = SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client as u64 + 1).wrapping_mul(0xBB67_AE85),
    );
    (0..len).map(|_| (rng.next_u64() % n as u64) as u32).collect()
}

/// A run workload's input grid: the generator the CLI's `run --seed`
/// uses, so the benchmark's grids are ones a user can reproduce.
pub fn grid(extents: &[usize], seed: u64) -> GridData {
    stencil_cli::make_grid(extents, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let shapes = churn_shapes();
        assert_eq!(jobs(&shapes, 7, 2), jobs(&shapes, 7, 2));
        assert_ne!(jobs(&shapes, 7, 2), jobs(&shapes, 8, 2));
        assert_eq!(draws(96, 7, 0, 500), draws(96, 7, 0, 500));
        assert_ne!(draws(96, 7, 0, 500), draws(96, 8, 0, 500));
        assert_ne!(draws(96, 7, 0, 500), draws(96, 7, 1, 500), "clients draw apart");
        assert_eq!(grid(&[16, 16], 7).as_slice(), grid(&[16, 16], 7).as_slice());
        assert_ne!(grid(&[16, 16], 7).as_slice(), grid(&[16, 16], 8).as_slice());
    }

    #[test]
    fn shape_sets_match_their_workloads() {
        let hot = hot_shapes();
        assert_eq!(hot.len(), 8);
        assert!(hot.iter().all(|s| s.points() <= 32 * 32));
        let dims: std::collections::BTreeSet<usize> = hot.iter().map(|s| s.size.len()).collect();
        assert_eq!(dims.len(), 3, "1-D, 2-D and 3-D kernels");
        let churn = churn_shapes();
        assert_eq!(churn.len(), 48);
        assert!(churn.iter().all(|s| s.points() <= 32 * 32));
        for (i, a) in churn.iter().enumerate() {
            assert!(churn[i + 1..].iter().all(|b| a != b), "churn shapes are distinct");
        }
        for s in hot.iter().chain(&churn) {
            assert!(stencil_core::kernels::by_name(s.kernel).is_some(), "{}", s.kernel);
        }
    }

    #[test]
    fn draws_cover_every_job() {
        let d = draws(96, 3, 0, 20_000);
        let mut seen = [0u32; 96];
        for &i in &d {
            seen[i as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 100), "uniform over the job set");
    }
}
