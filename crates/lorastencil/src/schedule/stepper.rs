//! The generic schedule interpreter: one [`Workspace`]/[`Stepper`] pair
//! executes lowered [`Schedule`]s of any dimensionality.
//!
//! The host-side loop keeps the PR 2 steady-state guarantees: a
//! [`Stepper`] double-buffers the grid planes and reuses every per-apply
//! buffer, so an iteration allocates nothing and spawns no threads.
//! Jobs run in parallel and write their disjoint output bands directly;
//! per-job counters land in preallocated index-addressed slots and
//! merge sequentially **in job order**, so counters and values are
//! bit-identical at any thread count.
//!
//! A *job* is one macro tile of [`Schedule::tile_h`] × [`Schedule::tile_w`]
//! output points (one thread block); the interpreter walks the warp
//! program once per 8×8 **sub-tile** inside it. Macro tiles stage one
//! large shared window per input plane and memoize which plane each
//! shared slot holds, so sub-tiles after the first skip re-staging
//! whenever the slot still matches — under [`Staging::Double`] two slots
//! ping-pong, letting the next plane's halo loads overlap the live
//! slot's MMA chain. Sub-tile boundaries stay on multiples of 8, so the
//! global sub-tile set (and with it every Eq. 12/13/16 counter and every
//! FP operation order) is identical for every tile size.

use super::backend::{Backend, CudaCore, SimdCore, SparseTcu, TcuF64};
use super::scratch::{with_tile_scratch, TileScratch};
use super::session::tuned_params;
use super::{BackendKind, ExecSession, Op, Schedule, ScheduleParams, Staging};
use crate::plan::{ExecConfig, Plan};
use crate::rdg::TILE_M;
use crate::tuning::TuningDbError;
use foundation::par::*;
use stencil_core::tiling::{clamped_span, tiles_1d, tiles_2d, window_origin, Tile2D};
use stencil_core::StencilKernel;
use tcu_sim::{BlockResources, GlobalArray, PerfCounters, SimContext, MMA_M, MMA_N};

/// Per-job staging state threaded through a macro tile's sub-tiles:
/// which input plane each shared-memory slot currently holds, plus
/// whether the job's compulsory HBM share is still to be charged.
struct StageState {
    staged: [Option<usize>; 2],
    center_fresh: bool,
}

/// The shared slot an op's `slot` payload addresses. 2-D schedules have
/// one Stage per application, so double buffering shows up as cross-job
/// parity: consecutive jobs alternate physical slots, overlapping job
/// `i+1`'s staging with job `i`'s chains.
#[inline]
fn eff_slot(sched: &Schedule, job_i: usize, slot: u8) -> usize {
    if sched.dims == 2 && sched.staging == Staging::Double {
        (slot as usize) ^ (job_i & 1)
    } else {
        slot as usize
    }
}

/// Interpret one macro job: loop its 8×8 sub-tiles (64-point sub-chunks
/// for 1-D), compute each with a stack-local backend, and write the
/// disjoint output bands directly. One tile-local context accumulates
/// the whole job's counters.
#[allow(clippy::too_many_arguments)]
fn run_job(
    planes: &[GlobalArray],
    sched: &Schedule,
    job_i: usize,
    z: usize,
    t: Tile2D,
    base: *mut f64,
    cols: usize,
    scratch: &mut TileScratch,
) -> PerfCounters {
    let mut ctx = SimContext::new();
    let mut stage = StageState { staged: [None, None], center_fresh: true };
    if sched.dims == 1 {
        // a macro 1-D job is a run of the classic 64-point sub-chunks
        let full = MMA_M * MMA_N;
        let mut off = 0;
        while off < t.w {
            let sub = Tile2D { r0: 0, c0: t.c0 + off, h: 1, w: full.min(t.w - off) };
            let vals =
                compute_subtile(planes, sched, z, t, sub, job_i, &mut stage, &mut ctx, scratch);
            for (r, row) in vals.iter().enumerate() {
                let cnt = clamped_span(MMA_N * r, MMA_N, sub.w);
                if cnt == 0 {
                    break;
                }
                // disjoint span write, accounted like a store_span
                // SAFETY: sub-chunks write disjoint spans; `base` stays
                // valid because `out` is exclusively borrowed for the
                // whole application
                let band =
                    unsafe { std::slice::from_raw_parts_mut(base.add(sub.c0 + MMA_N * r), cnt) };
                band.copy_from_slice(&row[..cnt]);
                ctx.counters.global_bytes_written += (cnt * 8) as u64;
            }
            off += full;
        }
    } else {
        let mut sr = 0;
        while sr < t.h {
            let sh = TILE_M.min(t.h - sr);
            let mut sc = 0;
            while sc < t.w {
                let sw = TILE_M.min(t.w - sc);
                let sub = Tile2D { r0: t.r0 + sr, c0: t.c0 + sc, h: sh, w: sw };
                let vals =
                    compute_subtile(planes, sched, z, t, sub, job_i, &mut stage, &mut ctx, scratch);
                for (p, row) in vals.iter().enumerate().take(sub.h) {
                    let off = (sub.r0 + p) * cols + sub.c0;
                    // SAFETY: jobs (and their sub-tiles) write disjoint
                    // (z, band) regions
                    let band = unsafe { std::slice::from_raw_parts_mut(base.add(off), sub.w) };
                    band.copy_from_slice(&row[..sub.w]);
                    ctx.counters.global_bytes_written += (sub.w * 8) as u64;
                }
                sc += TILE_M;
            }
            sr += TILE_M;
        }
    }
    ctx.counters
}

/// One sub-tile's op walk with a stack-local backend (no allocation on
/// the TCU path).
#[allow(clippy::too_many_arguments)]
fn compute_subtile(
    planes: &[GlobalArray],
    sched: &Schedule,
    z: usize,
    job: Tile2D,
    sub: Tile2D,
    job_i: usize,
    stage: &mut StageState,
    ctx: &mut SimContext,
    scratch: &mut TileScratch,
) -> [[f64; MMA_N]; TILE_M] {
    // monomorphize per backend: the op loop inlines the backend calls,
    // which the hot 3-D path (many small per-plane chains) depends on
    match sched.backend {
        BackendKind::TcuF64 => {
            subtile_on(&mut TcuF64::new(), planes, sched, z, job, sub, job_i, stage, ctx, scratch)
        }
        BackendKind::SparseTcu => subtile_on(
            &mut SparseTcu::new(),
            planes,
            sched,
            z,
            job,
            sub,
            job_i,
            stage,
            ctx,
            scratch,
        ),
        BackendKind::CudaCore => {
            subtile_on(&mut CudaCore::new(), planes, sched, z, job, sub, job_i, stage, ctx, scratch)
        }
        BackendKind::SimdCore => {
            subtile_on(&mut SimdCore::new(), planes, sched, z, job, sub, job_i, stage, ctx, scratch)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn subtile_on<B: Backend>(
    backend: &mut B,
    planes: &[GlobalArray],
    sched: &Schedule,
    z: usize,
    job: Tile2D,
    sub: Tile2D,
    job_i: usize,
    stage: &mut StageState,
    ctx: &mut SimContext,
    scratch: &mut TileScratch,
) -> [[f64; MMA_N]; TILE_M] {
    let h = sched.h;
    let mut i = 0;
    while i < sched.ops.len() {
        match sched.ops[i] {
            Op::SkipPlane { .. } => i += 1,
            Op::Stage { dz, slot } => {
                let eff = eff_slot(sched, job_i, slot);
                // staging memoization: every sub-tile of the job reads
                // the same macro window, so a slot that already holds
                // plane `dz` is reused as-is
                if stage.staged[eff] != Some(dz) {
                    // periodic z boundary, matching the grid convention
                    let zp =
                        (z as isize + dz as isize - h as isize).rem_euclid(planes.len() as isize);
                    let src = &planes[zp as usize];
                    // the macro window covers every sub-tile's S×S window
                    let wr = TILE_M * (job.h.div_ceil(TILE_M) - 1) + sched.geo.s;
                    let wc = TILE_M * (job.w.div_ceil(TILE_M) - 1) + sched.geo.s;
                    scratch.tiles[eff].reset(wr, wc);
                    // the job's own output footprint is its compulsory
                    // HBM share (charged once, on the plane for which
                    // this input is the kernel center); the halo ring and
                    // any re-stage are served by L2
                    let _rdg_gather = foundation::obs::span("rdg_gather");
                    let fresh = if dz == h && stage.center_fresh {
                        stage.center_fresh = false;
                        job.h * job.w
                    } else {
                        0
                    };
                    src.copy_to_shared_reuse(
                        ctx,
                        sched.copy_mode,
                        window_origin(job.r0, h),
                        window_origin(job.c0, h),
                        wr,
                        wc,
                        &mut scratch.tiles[eff],
                        0,
                        0,
                        fresh,
                    );
                    stage.staged[eff] = Some(dz);
                }
                i += 1;
            }
            Op::FragBuild { slot } => {
                let eff = eff_slot(sched, job_i, slot);
                scratch.x.load_into_at(
                    ctx,
                    &scratch.tiles[eff],
                    sched.geo,
                    sub.r0 - job.r0,
                    sub.c0 - job.c0,
                );
                i += 1;
            }
            Op::RdgGather => {
                scratch.tiles[0].reset(MMA_M, sched.seg_len);
                {
                    let _rdg_gather = foundation::obs::span("rdg_gather");
                    for r in 0..MMA_M {
                        // 8 of the seg_len loaded elements are this
                        // segment's own outputs (compulsory); the rest is
                        // halo overlap in L2
                        let seg_out = clamped_span(MMA_N * r, MMA_N, sub.w);
                        planes[0].copy_to_shared_reuse(
                            ctx,
                            sched.copy_mode,
                            0,
                            window_origin(sub.c0 + MMA_N * r, h),
                            1,
                            sched.seg_len,
                            &mut scratch.tiles[0],
                            r,
                            0,
                            seg_out,
                        );
                    }
                }
                backend.gather_1d(ctx, &scratch.tiles[0], sched);
                i += 1;
            }
            Op::MmaChain { term } => {
                // collect the contiguous chain plus its pyramid tip: one
                // backend call per decomposition, reusing the X fragments
                let first = term as usize;
                let mut end = first + 1;
                i += 1;
                while let Some(&Op::MmaChain { term }) = sched.ops.get(i) {
                    end = term as usize + 1;
                    i += 1;
                }
                let pw = if let Some(&Op::Pointwise { weight }) = sched.ops.get(i) {
                    i += 1;
                    Some(weight)
                } else {
                    None
                };
                backend.term_chain(ctx, &scratch.x, sched, &sched.terms[first..end], pw);
            }
            Op::Pointwise { weight } => {
                // term-less decomposition: still one (empty) chain call so
                // the backend's phase structure is uniform
                backend.term_chain(ctx, &scratch.x, sched, &[], Some(weight));
                i += 1;
            }
            Op::PointwisePlane { dz, weight } => {
                // CUDA-core point-wise path: direct coalesced reads (L2:
                // the compulsory HBM pass is charged where this plane is
                // the kernel center), no shared-memory staging
                // (Algorithm 2 line 5).
                let zp = (z as isize + dz as isize - h as isize).rem_euclid(planes.len() as isize);
                let src = &planes[zp as usize];
                let acc_vals = backend.vals_mut();
                let mut flops = 0u64;
                let mut span = [0.0f64; MMA_N];
                for (p, row) in acc_vals.iter_mut().enumerate() {
                    let r = sub.r0 + p;
                    if r >= src.rows() {
                        continue;
                    }
                    let cnt = clamped_span(sub.c0, MMA_N, src.cols());
                    if cnt == 0 {
                        continue;
                    }
                    let vals = &mut span[..cnt];
                    if dz == h {
                        src.load_span_into(ctx, r, sub.c0, vals);
                    } else {
                        src.load_span_cached_into(ctx, r, sub.c0, vals);
                    }
                    for (q, v) in vals.iter().enumerate() {
                        row[q] += weight * v;
                    }
                    flops += 2 * cnt as u64;
                }
                ctx.cuda_flops(flops);
                i += 1;
            }
        }
    }
    let vals = backend.finish(sched.fold);
    // each application advances `fuse_steps` temporal steps of updates
    ctx.points((sub.h * sub.w * sched.fuse_steps) as u64);
    vals
}

/// The reusable per-apply buffers of a plan on a fixed grid shape: the
/// lowered schedule, the `(plane, tile)` job list, the counter slots and
/// the output-pointer table. Callers that manage their own grids (the
/// distributed executor) build one per (device, plan) and feed it a
/// fresh input/output pair each application; [`Stepper`] wraps one
/// together with double-buffered planes.
pub struct Workspace {
    sched: Schedule,
    jobs: Vec<(usize, Tile2D)>,
    slots: Vec<PerfCounters>,
    /// Reusable raw output-plane pointer table: the `UnsafeSlice`
    /// pattern cannot borrow a `Vec` of planes across worker lanes
    /// without re-allocating a slice table per application, so the table
    /// lives here and is refilled in place.
    sinks: Vec<usize>,
}

impl Workspace {
    /// Buffers for applying `plan` to grids of the given extents
    /// (`[n]`, `[rows, cols]` or `[nz, ny, nx]`). Jobs are the plan's
    /// macro tiles ([`ScheduleParams::tile_rows`] ×
    /// [`ScheduleParams::tile_cols`]; `8 · tile_cols` points for 1-D).
    pub fn new(plan: &Plan, extents: &[usize]) -> Self {
        let sched = Schedule::lower(plan);
        let jobs: Vec<(usize, Tile2D)> = match *extents {
            [n] => tiles_1d(n, MMA_M * sched.tile_w)
                .into_iter()
                .map(|t| (0, Tile2D { r0: 0, c0: t.i0, h: 1, w: t.len }))
                .collect(),
            [rows, cols] => tiles_2d(rows, cols, sched.tile_h, sched.tile_w)
                .into_iter()
                .map(|t| (0, t))
                .collect(),
            [nz, ny, nx] => {
                let tiles = tiles_2d(ny, nx, sched.tile_h, sched.tile_w);
                (0..nz).flat_map(|z| tiles.iter().map(move |&t| (z, t))).collect()
            }
            _ => panic!("grids are 1-, 2- or 3-dimensional"),
        };
        Workspace { sched, jobs, slots: Vec::new(), sinks: Vec::new() }
    }

    /// The lowered schedule this workspace interprets.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// One (possibly fused) application from `input` into `out`
    /// (single-plane grids: 1-D arrays and 2-D grids).
    pub fn apply(&mut self, input: &GlobalArray, out: &mut GlobalArray) -> PerfCounters {
        self.apply_planes(std::slice::from_ref(input), std::slice::from_mut(out))
    }

    /// One (possibly fused) application from `planes` into `out`. Jobs
    /// run in parallel and write their disjoint output bands directly
    /// (each band write charges the same `global_bytes_written` a
    /// `store_span` would); per-job counters go to preallocated slots
    /// and merge sequentially in job order, keeping the totals
    /// independent of scheduling.
    pub fn apply_planes(
        &mut self,
        planes: &[GlobalArray],
        out: &mut [GlobalArray],
    ) -> PerfCounters {
        let _apply = foundation::obs::span("apply");
        let cols = planes[0].cols();
        self.slots.clear();
        self.slots.resize(self.jobs.len(), PerfCounters::new());
        self.sinks.clear();
        self.sinks.extend(out.iter_mut().map(|p| p.as_mut_slice().as_mut_ptr() as usize));
        {
            let slot_sink = UnsafeSlice::new(&mut self.slots[..]);
            let sinks: &[usize] = &self.sinks;
            let jobs = &self.jobs;
            let sched = &self.sched;
            for_each_index(jobs.len(), |i| {
                let (z, t) = jobs[i];
                let base = sinks[z] as *mut f64;
                let counters =
                    with_tile_scratch(|s| run_job(planes, sched, i, z, t, base, cols, s));
                // SAFETY: each index is written by exactly one job
                unsafe { slot_sink.write(i, counters) };
            });
        }
        let mut total = PerfCounters::new();
        for c in self.slots.iter() {
            total.merge(c);
        }
        total
    }
}

/// The steady-state time-stepping loop for any dimensionality:
/// double-buffered grid planes plus every per-apply buffer, allocated
/// once and reused by each [`Stepper::step`]. Safe to ping-pong without
/// clearing because the job list covers every output cell each
/// application.
pub struct Stepper {
    ws: Workspace,
    cur: Vec<GlobalArray>,
    next: Vec<GlobalArray>,
}

impl Stepper {
    /// Set up the loop over `planes` for `plan` (one plane for 1-D
    /// arrays — shaped `1 × n` — and 2-D grids; `nz` planes for 3-D).
    pub fn new(plan: Plan, planes: Vec<GlobalArray>) -> Self {
        let ws = Workspace::new(&plan, &plane_extents(plan.dims(), &planes));
        let next = planes.iter().map(|p| GlobalArray::new(p.rows(), p.cols())).collect();
        Stepper { ws, cur: planes, next }
    }

    /// Advance one (possibly fused) application; the result becomes the
    /// current state.
    pub fn step(&mut self) -> PerfCounters {
        ping_pong(&mut self.ws, &mut self.cur, &mut self.next)
    }

    /// Advance one application of another plan's workspace over the same
    /// planes (the session's unfused remainder).
    pub(crate) fn step_with(&mut self, ws: &mut Workspace) -> PerfCounters {
        ping_pong(ws, &mut self.cur, &mut self.next)
    }

    /// The current planes.
    pub fn planes(&self) -> &[GlobalArray] {
        &self.cur
    }

    /// Mutable access to the current planes (a session's fill).
    pub(crate) fn planes_mut(&mut self) -> &mut [GlobalArray] {
        &mut self.cur
    }

    /// Consume the stepper, returning the current planes.
    pub(crate) fn into_planes(self) -> Vec<GlobalArray> {
        self.cur
    }
}

/// One application of `ws` from `cur` into `next`, then swap the pair.
fn ping_pong(
    ws: &mut Workspace,
    cur: &mut Vec<GlobalArray>,
    next: &mut Vec<GlobalArray>,
) -> PerfCounters {
    let c = ws.apply_planes(cur, next);
    std::mem::swap(cur, next);
    c
}

/// The extents (`[n]`, `[rows, cols]` or `[nz, ny, nx]`) of `planes` as
/// seen by a `dims`-dimensional kernel: the trailing `dims` entries of
/// `[planes, rows, cols]`.
pub(crate) fn plane_extents(dims: usize, planes: &[GlobalArray]) -> Vec<usize> {
    [planes.len(), planes[0].rows(), planes[0].cols()][3 - dims..].to_vec()
}

/// The `[planes, rows, cols]` shape of a grid with `extents`, the
/// inverse of [`plane_extents`]: missing leading extents are 1.
pub(crate) fn plane_shape(extents: &[usize]) -> [usize; 3] {
    let mut shape = [1; 3];
    shape[3 - extents.len()..].copy_from_slice(extents);
    shape
}

/// The full time loop of the one-shot entry points: plan (consulting the
/// installed tuning DB for this kernel/extents/config, falling back to
/// default [`ScheduleParams`]) and run an [`ExecSession`] over `planes`
/// for `iterations` steps.
///
/// # Panics
///
/// Panics with the [`TuningDbError`] message when
/// `LORASTENCIL_TUNING_DB` names a corrupt file; [`try_run`] returns the
/// error instead.
pub fn run(
    kernel: &StencilKernel,
    config: ExecConfig,
    planes: Vec<GlobalArray>,
    iterations: usize,
) -> (Vec<GlobalArray>, PerfCounters, BlockResources) {
    try_run(kernel, config, planes, iterations)
        .unwrap_or_else(|e| panic!("LORASTENCIL_TUNING_DB: {e}"))
}

/// [`run`], returning a corrupt tuning DB as a typed error. The DB is
/// resolved once, before anything is planned or stepped.
pub fn try_run(
    kernel: &StencilKernel,
    config: ExecConfig,
    planes: Vec<GlobalArray>,
    iterations: usize,
) -> Result<(Vec<GlobalArray>, PerfCounters, BlockResources), TuningDbError> {
    let params = tuned_params(kernel, config, &plane_extents(kernel.dims(), &planes))?;
    Ok(ExecSession::over(kernel, config, params, planes, Some(iterations)).run_once(iterations))
}

/// The explicit-params variant of [`run`]: execute with exactly the
/// given [`ScheduleParams`], bypassing the tuning DB. This is the
/// measurement primitive of `stencil-cli tune` — every candidate runs
/// through the same loop the production path uses.
pub fn run_tuned(
    kernel: &StencilKernel,
    config: ExecConfig,
    params: ScheduleParams,
    planes: Vec<GlobalArray>,
    iterations: usize,
) -> (Vec<GlobalArray>, PerfCounters, BlockResources) {
    ExecSession::over(kernel, config, [params; 2], planes, Some(iterations)).run_once(iterations)
}
