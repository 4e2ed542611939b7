//! The executor conformance tests for every dimension, all running
//! through [`LoRaStencil`] and the one generic interpreter behind it
//! (migrated here from the pre-IR per-dimension executors — the
//! assertions are unchanged, which is the point: the IR is a refactor,
//! not a new semantics).

use crate::exec::LoRaStencil;
use crate::plan::ExecConfig;
use stencil_core::{kernels, max_error_vs_reference, Grid1D, Grid2D, Grid3D, Problem};
use stencil_core::{ExecError, GridData, StencilExecutor};

fn wavy_grid(rows: usize, cols: usize) -> Grid2D {
    Grid2D::from_fn(rows, cols, |r, c| {
        ((r as f64 * 0.7).sin() + (c as f64 * 0.31).cos()) * 2.0 + (r * cols + c) as f64 * 1e-3
    })
}

fn wavy_1d(n: usize) -> Grid1D {
    Grid1D::from_fn(n, |i| (i as f64 * 0.13).sin() * 3.0 + (i % 11) as f64 * 0.1)
}

fn wavy_3d(nz: usize, ny: usize, nx: usize) -> Grid3D {
    Grid3D::from_fn(nz, ny, nx, |z, y, x| {
        (z as f64 * 0.9).cos() + (y as f64 * 0.4).sin() * 2.0 + (x % 5) as f64 * 0.2
    })
}

#[test]
fn matches_reference_on_all_2d_kernels() {
    let exec = LoRaStencil::new();
    for k in kernels::all_kernels() {
        if k.dims() != 2 {
            continue;
        }
        let p = Problem::new(k.clone(), wavy_grid(24, 40), 1);
        let err = max_error_vs_reference(&exec, &p).unwrap();
        assert!(err < 1e-11, "{}: err = {err}", k.name);
    }
}

#[test]
fn multi_iteration_with_fusion_matches_reference() {
    let exec = LoRaStencil::new();
    // 7 iterations of a radius-1 kernel: 2 fused (3×) + 1 unfused
    let p = Problem::new(kernels::box_2d9p(), wavy_grid(20, 20), 7);
    let err = max_error_vs_reference(&exec, &p).unwrap();
    assert!(err < 1e-10, "err = {err}");
}

#[test]
fn all_breakdown_stages_are_numerically_identical() {
    let p = Problem::new(kernels::box_2d9p(), wavy_grid(16, 24), 2);
    let mut outputs = Vec::new();
    for (name, cfg) in ExecConfig::breakdown_stages() {
        let exec = LoRaStencil::with_config(cfg);
        let out = exec.execute(&p).unwrap();
        outputs.push((name, out));
    }
    for w in outputs.windows(2) {
        let d = w[0].1.output.max_abs_diff(&w[1].1.output);
        assert!(d < 1e-12, "{} vs {}: {d}", w[0].0, w[1].0);
    }
    // CUDA stage has no MMAs; TCU stages do
    assert_eq!(outputs[0].1.counters.mma_ops, 0);
    assert!(outputs[1].1.counters.mma_ops > 0);
    // only the non-BVS TCU stage shuffles
    assert!(outputs[1].1.counters.shuffle_ops > 0);
    assert_eq!(outputs[2].1.counters.shuffle_ops, 0);
    // only the non-async stages stage copies through registers
    assert!(outputs[2].1.counters.staged_copy_bytes > 0);
    assert_eq!(outputs[3].1.counters.staged_copy_bytes, 0);
}

#[test]
fn points_counter_matches_problem_updates() {
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::box_2d49p(), wavy_grid(32, 32), 2);
    let out = exec.execute(&p).unwrap();
    assert_eq!(out.counters.points_updated, p.total_updates());
}

#[test]
fn fused_run_counts_fused_points() {
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::box_2d9p(), wavy_grid(16, 16), 3);
    let out = exec.execute(&p).unwrap();
    // one fused application, counted as 3 × 256 updates
    assert_eq!(out.counters.points_updated, 3 * 256);
}

#[test]
fn mma_count_matches_eq16_for_box_2d49p() {
    // Box-2D49P, 64×64 grid, 1 iteration: ab/64 tiles × 3 terms × 12
    // MMAs — the paper's 36 MMA per 64-point tile (§III-C).
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::box_2d49p(), wavy_grid(64, 64), 1);
    let out = exec.execute(&p).unwrap();
    let tiles = (64 / 8) * (64 / 8) as u64;
    assert_eq!(out.counters.mma_ops, tiles * 36);
    // Eq. 12: ab/8 fragment loads from shared for the inputs, plus the
    // copy-in stores are counted separately
    assert_eq!(
        out.counters.shared_load_requests,
        64 * 64 / 8,
        "input fragment loads must match Eq. 12"
    );
}

#[test]
fn mismatched_dimensions_are_invalid() {
    // every (kernel dims, grid dims) pair that disagrees is a typed
    // `Invalid` error — not `Unsupported`, which the differential oracle
    // reads as "this executor declines the problem"
    let grids = [
        GridData::D1(Grid1D::from_vec(vec![0.0; 16])),
        GridData::D2(Grid2D::new(8, 8)),
        GridData::D3(Grid3D::new(2, 8, 8)),
    ];
    let exec = LoRaStencil::new();
    let mut pairs = 0;
    for k in [kernels::heat_1d(), kernels::box_2d9p(), kernels::heat_3d()] {
        for g in grids.iter().filter(|g| g.dims() != k.dims()) {
            let p = Problem::new(k.clone(), g.clone(), 1);
            let err = exec.execute(&p).unwrap_err();
            assert!(
                matches!(err, ExecError::Invalid(_)),
                "{}-D kernel on a {}-D grid: {err:?}",
                k.dims(),
                g.dims()
            );
            pairs += 1;
        }
    }
    assert_eq!(pairs, 6);
}

#[test]
fn tiny_grid_with_clipping_matches_reference() {
    let exec = LoRaStencil::new();
    // 10×13 is not a multiple of the 8×8 tile → exercises clipping
    let p = Problem::new(kernels::star_2d13p(), wavy_grid(10, 13), 2);
    let err = max_error_vs_reference(&exec, &p).unwrap();
    assert!(err < 1e-11, "err = {err}");
}

#[test]
fn matches_reference_on_1d_kernels() {
    let exec = LoRaStencil::new();
    for k in [kernels::heat_1d(), kernels::p5_1d()] {
        let p = Problem::new(k.clone(), wavy_1d(256), 3);
        let err = max_error_vs_reference(&exec, &p).unwrap();
        assert!(err < 1e-12, "{}: err = {err}", k.name);
    }
}

#[test]
fn ragged_length_matches_reference() {
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::heat_1d(), wavy_1d(157), 2);
    let err = max_error_vs_reference(&exec, &p).unwrap();
    assert!(err < 1e-12, "err = {err}");
}

#[test]
fn one_mm_per_four_columns() {
    // 1-D needs a single MM per tile: seg_len/4 MMAs per 64 outputs
    // (§IV-C: "one MM suffices, MCM is unnecessary"). 1D5P (radius 2,
    // unfused): seg_len 12 → 3 MMAs per tile.
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::p5_1d(), wavy_1d(640), 1);
    let out = exec.execute(&p).unwrap();
    let tiles = 640 / 64;
    assert_eq!(out.counters.mma_ops, (tiles * 3) as u64);
    assert_eq!(out.counters.shuffle_ops, 0);
    assert_eq!(out.counters.points_updated, 640);
}

#[test]
fn heat_1d_fuses_three_steps_per_apply() {
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::heat_1d(), wavy_1d(640), 3);
    let out = exec.execute(&p).unwrap();
    // one fused apply: seg_len 16 → 4 MMAs per 64-point tile
    assert_eq!(out.counters.mma_ops, (640 / 64 * 4) as u64);
    assert_eq!(out.counters.points_updated, 3 * 640);
    let err = max_error_vs_reference(&exec, &p).unwrap();
    assert!(err < 1e-12, "err = {err}");
}

#[test]
fn heat_3d_matches_reference() {
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::heat_3d(), wavy_3d(6, 16, 24), 2);
    let err = max_error_vs_reference(&exec, &p).unwrap();
    assert!(err < 1e-11, "err = {err}");
}

#[test]
fn box_3d27p_matches_reference() {
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::box_3d27p(), wavy_3d(5, 11, 13), 2);
    let err = max_error_vs_reference(&exec, &p).unwrap();
    assert!(err < 1e-11, "err = {err}");
}

#[test]
fn heat_3d_uses_both_compute_units() {
    // Algorithm 2: single-weight planes on CUDA cores, the star plane
    // on tensor cores.
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::heat_3d(), wavy_3d(4, 8, 8), 1);
    let out = exec.execute(&p).unwrap();
    assert!(out.counters.mma_ops > 0, "TCU must be used for the star plane");
    assert!(out.counters.cuda_flops > 0, "CUDA cores must handle pointwise planes");
}

#[test]
fn cuda_only_config_matches_reference_too() {
    let cfg = ExecConfig { backend: crate::plan::DeviceBackend::CudaCore, ..ExecConfig::full() };
    let exec = LoRaStencil::with_config(cfg);
    let p = Problem::new(kernels::box_3d27p(), wavy_3d(4, 9, 9), 1);
    let err = max_error_vs_reference(&exec, &p).unwrap();
    assert!(err < 1e-11, "err = {err}");
    let out = exec.execute(&p).unwrap();
    assert_eq!(out.counters.mma_ops, 0);
}

#[test]
fn explicit_schedule_params_stay_bit_identical() {
    // the tuner's core invariant: tile extents, staging discipline and
    // MMA batching are pure schedule knobs — values and the
    // analytically-pinned counters never move
    use crate::schedule::{self, ScheduleParams, Staging};
    use tcu_sim::GlobalArray;
    let wavy = |rows: usize, cols: usize, salt: usize| {
        GlobalArray::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| ((salt * 7919 + i) as f64 * 0.13).sin() * 3.0 + (i % 11) as f64 * 0.1)
                .collect(),
        )
    };
    let cases: Vec<(stencil_core::StencilKernel, Vec<GlobalArray>)> = vec![
        (kernels::heat_1d(), vec![wavy(1, 157, 0)]),
        (kernels::box_2d49p(), vec![wavy(24, 40, 1)]),
        (kernels::heat_3d(), (0..5).map(|z| wavy(11, 13, z)).collect()),
        (kernels::box_3d27p(), (0..4).map(|z| wavy(9, 9, z + 9)).collect()),
    ];
    let grid = [
        ScheduleParams {
            tile_rows: 16,
            tile_cols: 16,
            staging: Staging::Double,
            mma_batch: 4,
            fuse_override: None,
        },
        ScheduleParams { tile_rows: 32, tile_cols: 8, mma_batch: 8, ..ScheduleParams::default() },
        ScheduleParams {
            tile_rows: 64,
            tile_cols: 64,
            staging: Staging::Double,
            mma_batch: 16,
            fuse_override: None,
        },
    ];
    for (k, planes) in &cases {
        let (base, bc, _) = schedule::run(k, ExecConfig::full(), planes.clone(), 3);
        for params in grid {
            let (out, c, _) = schedule::run_tuned(k, ExecConfig::full(), params, planes.clone(), 3);
            for (a, b) in base.iter().zip(&out) {
                let same =
                    a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{} under {}: values moved", k.name, params.describe());
            }
            for (name, got, want) in [
                ("mma_ops", c.mma_ops, bc.mma_ops),
                ("shared_load_requests", c.shared_load_requests, bc.shared_load_requests),
                ("shuffle_ops", c.shuffle_ops, bc.shuffle_ops),
                ("global_bytes_written", c.global_bytes_written, bc.global_bytes_written),
                ("points_updated", c.points_updated, bc.points_updated),
            ] {
                assert_eq!(got, want, "{} under {}: {name} moved", k.name, params.describe());
            }
        }
    }
}

#[test]
fn points_counter_matches_3d() {
    let exec = LoRaStencil::new();
    let p = Problem::new(kernels::heat_3d(), wavy_3d(4, 8, 8), 3);
    let out = exec.execute(&p).unwrap();
    assert_eq!(out.counters.points_updated, p.total_updates());
}
