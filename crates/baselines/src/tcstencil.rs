//! TCStencil baseline (Liu et al., ICS 2022) — the first stencil-on-TCU
//! system, natively FP16.
//!
//! TCStencil gathers one kernel *row* per matrix multiply: for kernel row
//! `i`, the row-shifted input block `X_i` is multiplied by a banded weight
//! matrix `V_i` and the partial products are accumulated (the scheme of
//! the paper's Fig. 1(b)). The input is therefore re-read once per kernel
//! row — exactly the *dimension residue* LoRAStencil eliminates.
//!
//! This executor runs the real fragment data path on the FP64 simulator
//! (each `X_i` is loaded from shared memory into fragments and MMA'd, so
//! the redundant loads are measured, not assumed). Because the original
//! is FP16-only and cannot be ported to the FP64 fragment shape (§V-A),
//! the harness applies the paper's conversion rule when reporting
//! FP64-equivalent throughput: divide by [`FP16_CONVERSION_FACTOR`].

use crate::common::{
    global_to_grid2, grid2_to_global, grid3_to_planes, iterate_1d, iterate_2d, iterate_3d,
    planes_to_grid3, with_shared_tile, TILE,
};
use stencil_core::{
    ExecError, ExecOutcome, Grid1D, GridData, Problem, StencilExecutor, WeightMatrix,
};
use tcu_sim::{
    BlockResources, CopyMode, FragAcc, FragB, GlobalArray, PerfCounters, SharedTile, SimContext,
    MMA_K, MMA_N,
};

/// §V-A: "in the best-case scenario, the speed of TCStencil in FP64 would
/// be a quarter of FP16. Therefore, in our evaluation, we divide the
/// TCStencil speed by 4 for comparison."
pub const FP16_CONVERSION_FACTOR: f64 = 4.0;

/// The TCStencil baseline executor.
#[derive(Debug, Clone, Default)]
pub struct TcStencil;

impl TcStencil {
    /// Create the executor.
    pub fn new() -> Self {
        TcStencil
    }
}

/// Padded tile width for radius `h` (multiple of 8 ≥ `8 + 2h`).
fn tile_s(h: usize) -> usize {
    (TILE + 2 * h).div_ceil(8) * 8
}

/// Banded `V_i` fragments for kernel row `i`: `V[q + k][q] = w[i][k]`.
fn v_frags_for_row(w_row: &[f64], s: usize) -> Vec<FragB> {
    let mut dense = vec![[0.0f64; MMA_N]; s];
    for q in 0..MMA_N {
        for (k, &wk) in w_row.iter().enumerate() {
            dense[q + k][q] = wk;
        }
    }
    (0..s / MMA_K)
        .map(|blk| {
            let mut f = FragB::zero();
            for k in 0..MMA_K {
                for q in 0..MMA_N {
                    f.set(k, q, dense[blk * MMA_K + k][q]);
                }
            }
            f
        })
        .collect()
}

/// Banded fragments of every non-zero kernel row, built once per plan
/// and reused by every tile (the per-tile hot path allocates nothing).
fn build_row_frags(w: &WeightMatrix, s: usize) -> Vec<(usize, Vec<FragB>)> {
    (0..w.n())
        .filter_map(|i| {
            let row: Vec<f64> = (0..w.n()).map(|j| w.get(i, j)).collect();
            if row.iter().all(|&x| x == 0.0) {
                None
            } else {
                Some((i, v_frags_for_row(&row, s)))
            }
        })
        .collect()
}

/// One plane-level application of the row-gather scheme onto an 8×8 tile:
/// `acc += Σ_i X_i · V_i`, with every `X_i` loaded from shared memory.
fn row_gather_tile(
    ctx: &mut SimContext,
    tile: &SharedTile,
    row_frags: &[(usize, Vec<FragB>)],
    acc: FragAcc,
) -> FragAcc {
    let mut out = acc;
    for (i, v_frags) in row_frags {
        // X_i: 8 rows starting at tile row i — re-loaded per kernel row
        // (the dimension-residue redundancy of Fig. 1(b))
        for (blk, vf) in v_frags.iter().enumerate() {
            let a = tile.load_frag_a(ctx, *i as isize, (blk * MMA_K) as isize);
            ctx.mma_into(&a, vf, &mut out);
        }
    }
    out
}

fn block_resources(h: usize) -> BlockResources {
    BlockResources {
        shared_bytes: 8 * ((TILE + 2 * h) * tile_s(h) * 8) as u32,
        threads: 256,
        regs_per_thread: 64,
    }
}

fn run_2d(input: GlobalArray, w: &WeightMatrix, steps: usize) -> (GlobalArray, PerfCounters) {
    let h = w.radius();
    let s = tile_s(h);
    let row_frags = build_row_frags(w, s);
    iterate_2d(input, steps, |cur, t| {
        let mut ctx = SimContext::new();
        let acc = with_shared_tile(TILE + 2 * h, s, |tile| {
            // TCStencil predates cp.async: staged copies
            cur.copy_to_shared_reuse(
                &mut ctx,
                CopyMode::Staged,
                t.r0 as isize - h as isize,
                t.c0 as isize - h as isize,
                TILE + 2 * h,
                s,
                tile,
                0,
                0,
                t.h * t.w,
            );
            row_gather_tile(&mut ctx, tile, &row_frags, FragAcc::zero())
        });
        ctx.points((t.h * t.w) as u64);
        (acc.to_matrix(), ctx.counters)
    })
}

fn run_3d(
    planes: Vec<GlobalArray>,
    weights: &[WeightMatrix],
    steps: usize,
) -> (Vec<GlobalArray>, PerfCounters) {
    let h = (weights.len() - 1) / 2;
    let n = weights[0].n();
    let s = tile_s(h);
    let plane_frags: Vec<Vec<(usize, Vec<FragB>)>> =
        weights.iter().map(|w| build_row_frags(w, s)).collect();
    iterate_3d(planes, steps, |cur, z, t| {
        let mut ctx = SimContext::new();
        let mut acc = FragAcc::zero();
        for (dz, row_frags) in plane_frags.iter().enumerate() {
            if row_frags.is_empty() {
                continue;
            }
            let zp = (z as isize + dz as isize - h as isize).rem_euclid(cur.len() as isize);
            let fresh = if dz == h { t.h * t.w } else { 0 };
            acc = with_shared_tile(n - 1 + TILE, s, |tile| {
                cur[zp as usize].copy_to_shared_reuse(
                    &mut ctx,
                    CopyMode::Staged,
                    t.r0 as isize - h as isize,
                    t.c0 as isize - h as isize,
                    TILE + 2 * h,
                    s,
                    tile,
                    0,
                    0,
                    fresh,
                );
                row_gather_tile(&mut ctx, tile, row_frags, acc)
            });
        }
        ctx.points((t.h * t.w) as u64);
        (acc.to_matrix(), ctx.counters)
    })
}

fn run_1d(input: GlobalArray, w: &[f64], steps: usize) -> (GlobalArray, PerfCounters) {
    let h = (w.len() - 1) / 2;
    let sl = (8 + 2 * h).div_ceil(4) * 4;
    let v_frags = {
        let mut dense = vec![[0.0f64; MMA_N]; sl];
        for q in 0..MMA_N {
            for (k, &wk) in w.iter().enumerate() {
                dense[q + k][q] = wk;
            }
        }
        (0..sl / MMA_K)
            .map(|blk| {
                let mut f = FragB::zero();
                for k in 0..MMA_K {
                    for q in 0..MMA_N {
                        f.set(k, q, dense[blk * MMA_K + k][q]);
                    }
                }
                f
            })
            .collect::<Vec<_>>()
    };
    iterate_1d(input, 64, steps, |cur, i0, len| {
        let mut ctx = SimContext::new();
        let acc = with_shared_tile(8, sl, |tile| {
            for r in 0..8 {
                let seg_out = 8.min(len.saturating_sub(8 * r));
                cur.copy_to_shared_reuse(
                    &mut ctx,
                    CopyMode::Staged,
                    0,
                    i0 as isize + (8 * r) as isize - h as isize,
                    1,
                    sl,
                    tile,
                    r,
                    0,
                    seg_out,
                );
            }
            let mut acc = FragAcc::zero();
            for (blk, vf) in v_frags.iter().enumerate() {
                let a = tile.load_frag_a(&mut ctx, 0, (blk * MMA_K) as isize);
                ctx.mma_into(&a, vf, &mut acc);
            }
            acc
        });
        let m = acc.to_matrix();
        let vals: Vec<f64> = (0..len).map(|k| m[k / 8][k % 8]).collect();
        ctx.points(len as u64);
        (vals, ctx.counters)
    })
}

impl StencilExecutor for TcStencil {
    fn name(&self) -> &'static str {
        "TCStencil"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        if problem.kernel.dims() != problem.input.dims() {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        match &problem.input {
            GridData::D2(g) => {
                let w = problem.kernel.weights_2d();
                let (cur, counters) = run_2d(grid2_to_global(g), w, problem.iterations);
                Ok(ExecOutcome {
                    output: GridData::D2(global_to_grid2(&cur)),
                    counters,
                    block: block_resources(problem.kernel.radius),
                })
            }
            GridData::D3(g) => {
                let ws = problem.kernel.weights_3d();
                let (cur, counters) = run_3d(grid3_to_planes(g), ws, problem.iterations);
                Ok(ExecOutcome {
                    output: GridData::D3(planes_to_grid3(&cur)),
                    counters,
                    block: block_resources(problem.kernel.radius),
                })
            }
            GridData::D1(g) => {
                let w = problem.kernel.weights_1d();
                let input = GlobalArray::from_vec(1, g.len(), g.as_slice().to_vec());
                let (cur, counters) = run_1d(input, w, problem.iterations);
                Ok(ExecOutcome {
                    output: GridData::D1(Grid1D::from_vec(cur.as_slice().to_vec())),
                    counters,
                    block: block_resources(problem.kernel.radius),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, max_error_vs_reference, Grid2D, Grid3D};

    #[test]
    fn matches_reference_on_all_kernels() {
        let exec = TcStencil::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(128, |i| (i % 7) as f64 * 0.4), 2),
                2 => Problem::new(
                    k.clone(),
                    Grid2D::from_fn(24, 24, |r, c| ((r * 5 + c * 11) % 6) as f64),
                    2,
                ),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (3 * z + y + 2 * x) as f64 * 0.2),
                    2,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-11, "{}: err = {err}", k.name);
        }
    }

    #[test]
    fn suffers_dimension_residue_loads() {
        // TCStencil re-reads the input once per kernel row; LoRAStencil
        // loads each fragment once (Eq. 12). Box-2D49P, no fusion on
        // either side for a direct comparison.
        use lorastencil::{ExecConfig, LoRaStencil};
        let g = Grid2D::from_fn(64, 64, |r, c| (r * 2 + c) as f64);
        let p = Problem::new(kernels::box_2d49p(), g, 1);
        let tc = TcStencil::new().execute(&p).unwrap();
        let lora = LoRaStencil::with_config(ExecConfig::full()).execute(&p).unwrap();
        // 7 kernel rows × 4 fragment loads = 28 per tile vs LoRA's 8
        let tiles = (64 * 64 / 64) as u64;
        assert_eq!(tc.counters.shared_load_requests, tiles * 28);
        assert_eq!(lora.counters.shared_load_requests, tiles * 8);
    }

    #[test]
    fn star_kernel_skips_zero_rows() {
        let g = Grid2D::from_fn(16, 16, |r, c| (r + c) as f64);
        let p = Problem::new(kernels::heat_2d(), g, 1);
        let out = TcStencil::new().execute(&p).unwrap();
        // Heat-2D (radius 1, S = 16): rows 0 and 2 have one non-zero,
        // row 1 has three → 3 rows × 4 fragments per tile
        let tiles = (16 * 16 / 64) as u64;
        assert_eq!(out.counters.mma_ops, tiles * 12);
    }

    #[test]
    fn uses_staged_copies() {
        let g = Grid2D::from_fn(16, 16, |r, c| (r + c) as f64);
        let p = Problem::new(kernels::box_2d9p(), g, 1);
        let out = TcStencil::new().execute(&p).unwrap();
        assert!(out.counters.staged_copy_bytes > 0);
    }

    #[test]
    fn conversion_factor_matches_paper() {
        assert_eq!(FP16_CONVERSION_FACTOR, 4.0);
    }
}
