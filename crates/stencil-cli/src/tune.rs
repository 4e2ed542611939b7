//! The `tune` subcommand: empirical schedule search over the
//! [`ScheduleParams`] space with a persistent winners DB.
//!
//! Per `(kernel, extents, config)` the tuner enumerates the candidate
//! grid (tile extents × staging × MMA-chain batch × fusion override),
//! orders it by a cost prior seeded from the per-tile pricing of
//! [`lorastencil::decompose::tile_cost`], caps it at `--budget`
//! candidates (the default schedule is always kept), and measures the
//! survivors with [`foundation::bench::median_sample_ns`].
//!
//! **The bit-identity gate:** before a candidate is timed at all, its
//! output planes and `Prediction`-class counters are compared against
//! the default schedule's; any divergence rejects the candidate. A
//! schedule is allowed to be *faster*, never *different* — so
//! installing a tuning DB can never change a test outcome. In practice
//! this rejects almost every `fuse_override` candidate (fusion changes
//! the executed arithmetic), which is exactly the point of keeping the
//! override in the space: the gate, not the enumerator, is the
//! authority on semantic neutrality.
//!
//! Winners are merged into the versioned JSON DB at `--db` with the
//! atomic-rename discipline of [`lorastencil::tuning::TuningDb::save`];
//! an existing DB that fails to decode is a hard error (never tune
//! from garbage).

use foundation::bench::{median_sample_ns, WallClock};
use lorastencil::checkpoint::grid_to_planes;
use lorastencil::schedule::{self, ScheduleParams, Staging};
use lorastencil::tuning::{TuningDb, TuningEntry};
use lorastencil::{ExecConfig, Plan, PlaneOp};
use stencil_core::StencilKernel;
use tcu_sim::{GlobalArray, PerfCounters};

/// Enumerate every candidate [`ScheduleParams`] worth trying for this
/// problem: tile extents clamped to the grid (a job larger than the
/// grid is the same schedule as one exactly covering it), staging only
/// where the lowering can honor it, batch widths up to the chain cap,
/// and the fusion override only where the planner fuses at all.
pub fn candidate_space(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
) -> Vec<ScheduleParams> {
    let plan = Plan::new(kernel, config);
    let clamp = |e: usize| e.div_ceil(8) * 8;
    let (row_cap, col_cap) = match *extents {
        [n] => (8, clamp(n.div_ceil(8))),
        [r, c] => (clamp(r), clamp(c)),
        [_, y, x] => (clamp(y), clamp(x)),
        _ => unreachable!("extents are 1-, 2- or 3-long"),
    };
    let tiles = [8usize, 16, 32, 64];
    let rows: Vec<usize> = if kernel.dims() == 1 {
        vec![8] // 1-D jobs are tile_cols-driven; tile_rows is inert
    } else {
        tiles.iter().copied().filter(|&t| t == 8 || t <= row_cap).collect()
    };
    let cols: Vec<usize> = tiles.iter().copied().filter(|&t| t == 8 || t <= col_cap).collect();
    let stagings: &[Staging] = if kernel.dims() >= 2 && config.use_tcu() {
        &[Staging::Single, Staging::Double]
    } else {
        &[Staging::Single]
    };
    let batches = [1usize, 2, 4, 8, 16];
    let fuses: Vec<Option<usize>> = if config.allow_fusion && kernel.dims() < 3 && plan.fusion > 1 {
        vec![None, Some(1)]
    } else {
        vec![None]
    };
    let mut out = Vec::new();
    for &tile_rows in &rows {
        for &tile_cols in &cols {
            for &staging in stagings {
                for &mma_batch in &batches {
                    for &fuse_override in &fuses {
                        let p = ScheduleParams {
                            tile_rows,
                            tile_cols,
                            staging,
                            mma_batch,
                            fuse_override,
                        };
                        debug_assert!(p.validate().is_ok());
                        out.push(p);
                    }
                }
            }
        }
    }
    out
}

/// The search prior: a cheap synthetic cost that orders candidates
/// most-promising-first before the budget cut. Per-sub-tile compute is
/// anchored on the same pricing [`lorastencil::decompose::tile_cost`]
/// uses (MMA flops per 8×8 tile); on top of that the prior charges a
/// fixed per-job dispatch overhead (fewer, larger jobs win on a
/// single-core host), the staged-window traffic (macro tiles amortize
/// halo staging), and a per-chain issue overhead that batching divides
/// down. Fusion overrides below the planner's depth multiply the
/// application count.
pub fn prior_cost(
    p: &ScheduleParams,
    kernel: &StencilKernel,
    extents: &[usize],
    plan: &Plan,
) -> u64 {
    // Calibrated against the executor benches on the reference host
    // (single core, thin-LTO build): one unit ≈ one MMA-FLOP ≈ 0.4 ns.
    const C_JOB: u64 = 800; // dispatch + context + staging reset per job
    const C_CELL: u64 = 2; // staged window cell (memcpy + accounting)
    const C_ISSUE: u64 = 60; // MMA chain issue (monomorphized chains)
    const C_FLOP: u64 = 1; // anchored compute
    let halo = (plan.geo.s - 8) as u64;
    // per-8×8-sub-tile MMA count and flops, by dimensionality
    let (sub_mma, jobs, window_cells, subtiles) = match *extents {
        [n] => {
            let mma = (plan.seg_len() / 4) as u64;
            let chunk = 8 * p.tile_cols;
            let jobs = n.div_ceil(chunk) as u64;
            let subtiles = n.div_ceil(64) as u64;
            (mma, jobs, jobs * (chunk as u64 + 2 * kernel.radius as u64), subtiles)
        }
        [r, c] => {
            let mma = plan.decomp().num_terms() as u64 * plan.geo.mma_per_term();
            let jr = r.div_ceil(p.tile_rows) as u64;
            let jc = c.div_ceil(p.tile_cols) as u64;
            let window = (p.tile_rows as u64 + halo) * (p.tile_cols as u64 + halo);
            let subtiles = (r.div_ceil(8) * c.div_ceil(8)) as u64;
            (mma, jr * jc, jr * jc * window, subtiles)
        }
        [nz, ny, nx] => {
            let (mut mma, mut staged_planes) = (0u64, 0u64);
            for op in plan.plane_ops() {
                if let PlaneOp::Rdg(d) = op {
                    mma += d.num_terms() as u64 * plan.geo.mma_per_term();
                    staged_planes += 1;
                }
            }
            let jr = ny.div_ceil(p.tile_rows) as u64;
            let jc = nx.div_ceil(p.tile_cols) as u64;
            let jobs = nz as u64 * jr * jc;
            let window = (p.tile_rows as u64 + halo) * (p.tile_cols as u64 + halo);
            let subtiles = (nz * ny.div_ceil(8) * nx.div_ceil(8)) as u64;
            (mma, jobs, jobs * window * staged_planes.max(1), subtiles)
        }
        _ => unreachable!("extents are 1-, 2- or 3-long"),
    };
    let flops = sub_mma * tcu_sim::FLOPS_PER_MMA;
    let chains = sub_mma.div_ceil(p.mma_batch as u64);
    // Staging mode is deliberately cost-neutral here: on a parallel host
    // double buffering overlaps halo loads with the live slot's chains,
    // on a serial one it only moves slot indices — either way the
    // measurement, not the prior, decides.
    let staging_cost = window_cells * C_CELL;
    let mut cost = jobs * C_JOB + staging_cost + subtiles * (flops * C_FLOP + chains * C_ISSUE);
    if let Some(f) = p.fuse_override {
        if f < plan.fusion {
            cost = cost.saturating_mul(plan.fusion as u64) / f.max(1) as u64;
        }
    }
    cost
}

/// The counter fields a schedule must keep invariant (the `Prediction`
/// class of the counter model). Keep in sync with `invariants` in
/// `stencil-verify`'s params_grid module.
fn invariant_counters(c: &PerfCounters) -> [u64; 7] {
    [
        c.mma_ops,
        c.mma_sp_ops,
        c.metadata_loads,
        c.shared_load_requests,
        c.shuffle_ops,
        c.global_bytes_written,
        c.points_updated,
    ]
}

/// Bitwise plane equality — `f64::to_bits`, so `-0.0 != 0.0` and NaN
/// payloads count.
fn planes_bit_identical(a: &[GlobalArray], b: &[GlobalArray]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.rows() == y.rows()
                && x.cols() == y.cols()
                && x.as_slice().iter().zip(y.as_slice()).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// On-miss service tuning: the serve daemon's cold-plan path. When a
/// job shape has no tuning-DB entry, run a bounded, prior-ordered
/// search — the same candidate space and bit-identity gate as the
/// `tune` subcommand, minus the persistent DB and the report — and
/// return the winning [`ScheduleParams`] for the plan cache to
/// memoize. `budget <= 1` (or a search where nothing beats it) returns
/// the default schedule; the gate guarantees whatever wins produces
/// values and invariant counters bit-identical to the default, so
/// tuned cache entries can never change a job's answer.
pub fn tune_on_miss(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
    seed: u64,
    iters: usize,
    budget: usize,
) -> ScheduleParams {
    let default = ScheduleParams::default();
    if budget <= 1 {
        return default;
    }
    // measure a short job: scheduling quality is shape-driven, not
    // iteration-count-driven, and misses must stay bounded
    let iters = iters.clamp(1, 2);
    let input = crate::make_grid(extents, seed);
    let planes = grid_to_planes(&input);
    let run_params =
        |p: ScheduleParams| schedule::run_tuned(kernel, config, p, planes.clone(), iters);
    let (def_planes, def_counters, _) = run_params(default);
    let def_inv = invariant_counters(&def_counters);

    let plan = Plan::new(kernel, config);
    let mut cands = candidate_space(kernel, config, extents);
    cands.sort_by_key(|p| prior_cost(p, kernel, extents, &plan));
    cands.retain(|p| *p != default);
    cands.truncate(budget - 1);
    cands.insert(0, default);

    let mut clock = WallClock::new();
    let mut best = (default, u64::MAX);
    for p in cands {
        let (out, counters, _) = run_params(p);
        if !planes_bit_identical(&out, &def_planes) || invariant_counters(&counters) != def_inv {
            continue;
        }
        let ns = median_sample_ns(&mut clock, 2, || run_params(p));
        if ns < best.1 {
            best = (p, ns);
        }
    }
    best.0
}

/// The `tune` subcommand body: search, gate, measure, persist, report.
#[allow(clippy::too_many_arguments)]
pub fn tune_report(
    kernel: &StencilKernel,
    config: ExecConfig,
    dims: &[usize],
    iters: usize,
    seed: u64,
    budget: usize,
    reps: usize,
    db_path: &str,
) -> Result<String, String> {
    let dims = &crate::broadcast_dims(dims, kernel.dims())[..];
    if dims.len() != kernel.dims() {
        return Err(format!(
            "kernel {} is {}-D but --size has {} dims",
            kernel.name,
            kernel.dims(),
            dims.len()
        ));
    }
    // load-or-create the DB *before* measuring anything: an existing
    // but undecodable DB is a hard error, never silently replaced
    let path = std::path::Path::new(db_path);
    let mut db = if path.exists() {
        TuningDb::load(path).map_err(|e| e.to_string())?
    } else {
        TuningDb::new()
    };

    let input = crate::make_grid(dims, seed);
    let planes = grid_to_planes(&input);
    let run_params =
        |p: ScheduleParams| schedule::run_tuned(kernel, config, p, planes.clone(), iters);
    let default = ScheduleParams::default();
    let (def_planes, def_counters, _) = run_params(default);
    let def_inv = invariant_counters(&def_counters);

    let plan = Plan::new(kernel, config);
    let mut cands = candidate_space(kernel, config, dims);
    let total_space = cands.len();
    cands.sort_by_key(|p| prior_cost(p, kernel, dims, &plan));
    cands.retain(|p| *p != default);
    cands.truncate(budget.max(1) - 1);
    cands.insert(0, default);

    let mut report = format!(
        "tuning LoRAStencil({}) on {} {:?} for {} iterations\n\
         candidate space: {} schedules, measuring {} (budget {}), {} reps each\n\n",
        config.tag(),
        kernel.name,
        dims,
        iters,
        total_space,
        cands.len(),
        budget,
        reps,
    );
    let mut clock = WallClock::new();
    let mut best: Option<(ScheduleParams, u64)> = None;
    let mut default_ns = 0u64;
    let mut rejected = 0usize;
    let mut lines = Vec::new();
    for p in cands {
        let (out, counters, _) = run_params(p);
        if !planes_bit_identical(&out, &def_planes) {
            rejected += 1;
            lines.push(format!(
                "  {:<24} rejected: output diverges bitwise from the default schedule",
                p.describe()
            ));
            continue;
        }
        if invariant_counters(&counters) != def_inv {
            rejected += 1;
            lines.push(format!(
                "  {:<24} rejected: modeled counters diverge from the default schedule",
                p.describe()
            ));
            continue;
        }
        let ns = median_sample_ns(&mut clock, reps, || run_params(p));
        if p == default {
            default_ns = ns;
        }
        if best.map_or(true, |(_, b)| ns < b) {
            best = Some((p, ns));
        }
        let speedup = if default_ns > 0 && ns > 0 {
            format!("  {:>6.2}x", default_ns as f64 / ns as f64)
        } else {
            String::new()
        };
        lines.push(format!("  {:<24} median {:>12} ns{speedup}", p.describe(), ns));
    }
    report.push_str(&lines.join("\n"));
    report.push('\n');
    let (win, win_ns) = best.expect("the default schedule is always measured");

    // winner phase breakdown (host-side attribution of the choice)
    foundation::obs::reset();
    foundation::obs::enable();
    let t0 = std::time::Instant::now();
    let _ = run_params(win);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    foundation::obs::disable();
    foundation::obs::drain();
    let breakdown = foundation::obs::phase_breakdown();
    report.push_str(&format!("\nwinner: {} at {} ns median ", win.describe(), win_ns));
    if default_ns > 0 {
        report.push_str(&format!(
            "({:.2}x vs default {} ns, {rejected} candidates rejected by the identity gate)\n",
            default_ns as f64 / win_ns.max(1) as f64,
            default_ns
        ));
    } else {
        report.push('\n');
    }
    report.push_str(&foundation::obs::render_breakdown(&breakdown, wall_ns));

    db.insert(
        kernel,
        dims,
        config,
        TuningEntry {
            kernel: kernel.name.clone(),
            extents: dims.to_vec(),
            config: config.tag(),
            params: win,
            best_ns: win_ns,
            default_ns,
        },
    );
    db.save(path).map_err(|e| format!("{db_path}: {e}"))?;
    report.push_str(&format!("\ntuning DB {db_path} updated ({} entries)\n", db.len()));
    Ok(report)
}

/// Install the DB at `path` process-wide for `run`/`profile`
/// (`--tuning-db`). A nonexistent path is a hard error with the fix
/// spelled out — silently running untuned on a typo'd path would defeat
/// the flag's whole purpose (the `--checkpoint-every 0` precedent).
pub fn install_tuning_db(path: &str) -> Result<String, String> {
    let p = std::path::Path::new(path);
    if !p.exists() {
        return Err(format!(
            "--tuning-db {path} does not exist \
             (run `lorastencil tune --kernel <name> --db {path}` to create it first)"
        ));
    }
    let db = TuningDb::load(p).map_err(|e| e.to_string())?;
    let n = db.len();
    lorastencil::tuning::install_global(db);
    Ok(format!("tuning DB {path} installed ({n} entries)\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_kernel;

    #[test]
    fn candidate_space_clamps_tiles_to_the_grid() {
        let k = find_kernel("Box-2D9P").unwrap();
        let space = candidate_space(&k, ExecConfig::full(), &[16, 16]);
        assert!(space.iter().all(|p| p.tile_rows <= 16 && p.tile_cols <= 16), "{space:?}");
        assert!(space.contains(&ScheduleParams::default()));
        // a big grid opens the full tile range and the fusion override
        let wide = candidate_space(&k, ExecConfig::full(), &[128, 128]);
        assert!(wide.iter().any(|p| p.tile_rows == 64 && p.tile_cols == 64));
        assert!(wide.iter().any(|p| p.fuse_override == Some(1)));
        assert!(wide.iter().any(|p| p.staging == Staging::Double));
        for p in &wide {
            p.validate().unwrap();
        }
    }

    #[test]
    fn prior_prefers_fewer_jobs_on_big_grids() {
        let k = find_kernel("Box-2D9P").unwrap();
        let plan = Plan::new(&k, ExecConfig::full());
        let small = ScheduleParams::default();
        let big = ScheduleParams { tile_rows: 64, tile_cols: 64, ..ScheduleParams::default() };
        assert!(
            prior_cost(&big, &k, &[128, 128], &plan) < prior_cost(&small, &k, &[128, 128], &plan)
        );
        // and batching beats unbatched at equal tiling
        let batched = ScheduleParams { mma_batch: 8, ..big };
        assert!(
            prior_cost(&batched, &k, &[128, 128], &plan) < prior_cost(&big, &k, &[128, 128], &plan)
        );
    }

    #[test]
    fn tune_writes_a_db_the_run_path_can_install() {
        let dir = std::env::temp_dir().join("lorastencil-cli-tune");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db_path = dir.join("tuning.json");
        let dbs = db_path.to_str().unwrap();
        let k = find_kernel("Box-2D9P").unwrap();
        let r = tune_report(&k, ExecConfig::full(), &[48, 48], 2, 7, 6, 3, dbs).unwrap();
        assert!(r.contains("winner:"), "{r}");
        assert!(r.contains("tuning DB"), "{r}");
        let db = TuningDb::load(&db_path).unwrap();
        assert_eq!(db.len(), 1);
        let (_, entry) = db.iter().next().unwrap();
        assert_eq!(entry.kernel, "Box-2D9P");
        assert_eq!(entry.extents, vec![48, 48]);
        entry.params.validate().unwrap();
        // a second tune at other extents merges, not replaces
        let r2 = tune_report(&k, ExecConfig::full(), &[24, 24], 2, 7, 4, 3, dbs).unwrap();
        assert!(r2.contains("2 entries"), "{r2}");
        assert_eq!(TuningDb::load(&db_path).unwrap().len(), 2);
        // and the install path accepts what tune wrote
        let msg = install_tuning_db(dbs).unwrap();
        assert!(msg.contains("2 entries"), "{msg}");
        lorastencil::tuning::clear_global();
    }

    #[test]
    fn tune_on_miss_returns_gated_params_within_budget() {
        let k = find_kernel("Box-2D49P").unwrap();
        // budget 1 never measures: straight to defaults
        assert_eq!(
            tune_on_miss(&k, ExecConfig::full(), &[16, 16], 7, 1, 1),
            ScheduleParams::default()
        );
        // a real budget returns params the identity gate accepted: the
        // winner must reproduce the default schedule's output bitwise
        let p = tune_on_miss(&k, ExecConfig::full(), &[16, 16], 7, 1, 4);
        p.validate().unwrap();
        let input = crate::make_grid(&[16, 16], 7);
        let planes = grid_to_planes(&input);
        let (want, wc, _) = schedule::run_tuned(
            &k,
            ExecConfig::full(),
            ScheduleParams::default(),
            planes.clone(),
            1,
        );
        let (got, gc, _) = schedule::run_tuned(&k, ExecConfig::full(), p, planes, 1);
        assert!(planes_bit_identical(&got, &want), "winner {} diverges", p.describe());
        assert_eq!(invariant_counters(&gc), invariant_counters(&wc));
    }

    #[test]
    fn nonexistent_tuning_db_is_a_hard_error_with_a_suggestion() {
        let e = install_tuning_db("/does/not/exist/tuning.json").unwrap_err();
        assert!(e.contains("does not exist"), "{e}");
        assert!(e.contains("lorastencil tune"), "{e}");
        // and a corrupt DB is the tuning layer's typed error, not a panic
        let dir = std::env::temp_dir().join("lorastencil-cli-tune-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.json");
        std::fs::write(&p, "{\"version\": \"lorastencil-tuning-v1\", ").unwrap();
        let e = install_tuning_db(p.to_str().unwrap()).unwrap_err();
        assert!(e.contains("corrupt"), "{e}");
        // tune refuses to overwrite a garbage DB too
        let k = find_kernel("Box-2D9P").unwrap();
        let e = tune_report(&k, ExecConfig::full(), &[24, 24], 1, 7, 2, 1, p.to_str().unwrap())
            .unwrap_err();
        assert!(e.contains("corrupt"), "{e}");
    }

    #[test]
    fn fuse_override_candidates_fall_to_the_identity_gate() {
        // Heat-2D fuses 3×: overriding to 1 changes the arithmetic, so
        // the gate must reject it rather than let it win on time
        let dir = std::env::temp_dir().join("lorastencil-cli-tune-gate");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dbs = dir.join("t.json");
        let k = find_kernel("Heat-2D").unwrap();
        let r = tune_report(
            &k,
            ExecConfig::full(),
            &[32, 32],
            3,
            7,
            usize::MAX,
            1,
            dbs.to_str().unwrap(),
        )
        .unwrap();
        assert!(r.contains("rejected"), "{r}");
        let db = TuningDb::load(&dbs).unwrap();
        let params = db.lookup(&k, &[32, 32], ExecConfig::full()).unwrap();
        assert_eq!(params.fuse_override, None, "a gated candidate must never be persisted");
    }
}
