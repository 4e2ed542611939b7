//! The time loop: a run of `iterations` steps as `iterations / fusion`
//! fused applications, then the remainder on an unfused workspace.
//!
//! An [`ExecSession`] is the one owner of that split. The one-shot
//! entry points ([`run`](super::run), [`run_tuned`](super::run_tuned))
//! build a session over the caller's planes, run it once and hand the
//! planes back; checkpointed runs drive a session in chunks that end on
//! snapshot boundaries; and a request server answering the same
//! (kernel, config, extents) job thousands of times keeps one session
//! and re-runs it with **zero heap allocation** after the first call.
//! All of them interpret the same lowered schedules in the same
//! fused/remainder split, so values and invariant counters are
//! bit-identical across them by construction.

use super::stepper::{plane_extents, plane_shape, Stepper, Workspace};
use super::ScheduleParams;
use crate::plan::{ExecConfig, Plan};
use stencil_core::StencilKernel;
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// A cached, re-runnable execution context for one
/// (kernel, config, extents) triple: a [`Stepper`] on the fused plan
/// plus, when a run can end off a fusion boundary, the unfused
/// remainder [`Workspace`].
///
/// Construction does all the expensive work — tuning-DB lookup, low-rank
/// decomposition, schedule lowering, fragment pre-building, plane and
/// counter-slot allocation. After one warm-up [`run`](ExecSession::run),
/// subsequent `fill` + `run` cycles allocate nothing and spawn no
/// threads (`tests/steady_state.rs` enforces this end-to-end).
pub struct ExecSession {
    stepper: Stepper,
    /// Unfused workspace for `iterations % fusion` trailing steps.
    rem_ws: Option<Workspace>,
    fusion: usize,
    params: ScheduleParams,
    block: BlockResources,
    extents: Vec<usize>,
}

impl ExecSession {
    /// Build a session, consulting the installed tuning DB exactly like
    /// [`run`](super::run) (same `Plan::new_tuned` calls, so the lowered
    /// schedules — and with them values and counters — match the offline
    /// path bit for bit). `extents` is `[n]`, `[rows, cols]` or
    /// `[nz, ny, nx]` and must match `kernel.dims()`.
    pub fn new(kernel: &StencilKernel, config: ExecConfig, extents: &[usize]) -> Self {
        Self::over(kernel, config, None, zeroed_planes(kernel, extents), None)
    }

    /// The explicit-params variant of [`new`](Self::new): build with
    /// exactly the given [`ScheduleParams`], bypassing the tuning DB —
    /// the same plan pair [`run_tuned`](super::run_tuned) constructs, so
    /// the tuner's bit-identity gate applies verbatim to sessions. The
    /// serve daemon uses this to pin a cache entry's pool refills to the
    /// params the entry memoized at insert time.
    pub fn with_params(
        kernel: &StencilKernel,
        config: ExecConfig,
        extents: &[usize],
        params: ScheduleParams,
    ) -> Self {
        Self::over(kernel, config, Some(params), zeroed_planes(kernel, extents), None)
    }

    /// A session over `planes`, taken as the current grid without a
    /// copy. `params` pins the schedule parameters (`None` consults the
    /// tuning DB). The remainder workspace is built only if a run of
    /// `iterations` steps ends off a fusion boundary; `None` (a
    /// re-runnable session) builds it eagerly whenever the plan fuses,
    /// so no later run pays for it.
    pub(crate) fn over(
        kernel: &StencilKernel,
        config: ExecConfig,
        params: Option<ScheduleParams>,
        planes: Vec<GlobalArray>,
        iterations: Option<usize>,
    ) -> Self {
        let extents = plane_extents(kernel.dims(), &planes);
        let plan_for = |config: ExecConfig| match params {
            Some(params) => Plan::new_with_params(kernel, config, params),
            None => Plan::new_tuned(kernel, config, &extents),
        };
        let plan = plan_for(config);
        let (fusion, params, block) = (plan.fusion, plan.params, plan.block_resources());
        let needs_rem = iterations.map_or(fusion > 1, |n| n % fusion != 0);
        // the remainder is unfused by construction; the other knobs
        // (tuned or pinned params) still apply
        let rem_ws = needs_rem.then(|| {
            Workspace::new(&plan_for(ExecConfig { allow_fusion: false, ..config }), &extents)
        });
        let stepper = Stepper::new(plan, planes);
        ExecSession { stepper, rem_ws, fusion, params, block, extents }
    }

    /// Overwrite the current grid with `f(linear_index)`, the same
    /// plane-major order the CLI's grid builder uses (so a session fill
    /// and an offline `--seed` grid agree element for element).
    pub fn fill_with(&mut self, mut f: impl FnMut(u64) -> f64) {
        let mut idx = 0u64;
        for plane in self.stepper.planes_mut() {
            for v in plane.as_mut_slice() {
                *v = f(idx);
                idx += 1;
            }
        }
    }

    /// Run `iterations` time steps from the current grid contents:
    /// `iterations / fusion` fused applications, then the remainder on
    /// the unfused workspace. The result becomes the current grid;
    /// counters are the merged per-application invariants.
    pub fn run(&mut self, iterations: usize) -> PerfCounters {
        let mut counters = PerfCounters::new();
        for _ in 0..iterations / self.fusion {
            counters.merge(&self.stepper.step());
        }
        let rem = iterations % self.fusion;
        if rem > 0 {
            let ws = self.rem_ws.as_mut().expect("a remainder needs the unfused workspace");
            for _ in 0..rem {
                counters.merge(&self.stepper.step_with(ws));
            }
        }
        counters
    }

    /// Run once and give the planes back: the one-shot entry points'
    /// `(planes, counters, block)` result.
    pub(crate) fn run_once(
        mut self,
        iterations: usize,
    ) -> (Vec<GlobalArray>, PerfCounters, BlockResources) {
        let counters = self.run(iterations);
        (self.stepper.into_planes(), counters, self.block)
    }

    /// Where the applications of a [`run`](Self::run) of `iterations`
    /// steps end, as step offsets from its start: every `fusion` steps
    /// through the fused phase, then every step of the remainder. Runs
    /// of chunks that end on these offsets execute exactly the
    /// applications of one unchunked run.
    pub(crate) fn application_ends(&self, iterations: usize) -> impl Iterator<Item = usize> {
        let fused = iterations - iterations % self.fusion;
        (self.fusion..=fused).step_by(self.fusion).chain(fused + 1..=iterations)
    }

    /// The current grid planes (job output after [`run`](Self::run)).
    pub fn planes(&self) -> &[GlobalArray] {
        self.stepper.planes()
    }

    /// Grid extents the session was built for.
    pub fn extents(&self) -> &[usize] {
        &self.extents
    }

    /// Temporal steps one fused application advances.
    pub fn fusion(&self) -> usize {
        self.fusion
    }

    /// The schedule parameters the plan resolved to (tuning-DB hit or
    /// defaults) — cache observability for the serve `stats` op.
    pub fn params(&self) -> ScheduleParams {
        self.params
    }

    /// Per-block resource footprint of the fused plan.
    pub fn block(&self) -> BlockResources {
        self.block
    }

    /// Total number of grid points (digest/profile sizing).
    pub fn points(&self) -> usize {
        self.extents.iter().product()
    }
}

/// Zeroed planes for a grid of `extents` under a `kernel.dims()`-D kernel.
fn zeroed_planes(kernel: &StencilKernel, extents: &[usize]) -> Vec<GlobalArray> {
    assert_eq!(
        extents.len(),
        kernel.dims(),
        "extents {extents:?} do not match a {}-D kernel",
        kernel.dims()
    );
    let [nplanes, rows, cols] = plane_shape(extents);
    (0..nplanes).map(|_| GlobalArray::new(rows, cols)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::run;
    use stencil_core::kernels;

    fn seed_fn(seed: u64) -> impl Fn(u64) -> f64 {
        move |idx: u64| {
            let x = idx.wrapping_add(seed).wrapping_mul(0x9E3779B97F4A7C15);
            ((x >> 17) % 4096) as f64 / 256.0 - 8.0
        }
    }

    fn offline(
        kernel: &StencilKernel,
        config: ExecConfig,
        extents: &[usize],
        iters: usize,
        seed: u64,
    ) -> (Vec<f64>, PerfCounters) {
        let f = seed_fn(seed);
        let [nplanes, rows, cols] = plane_shape(extents);
        let mut idx = 0u64;
        let planes: Vec<GlobalArray> = (0..nplanes)
            .map(|_| {
                let vals: Vec<f64> = (0..rows * cols)
                    .map(|_| {
                        let v = f(idx);
                        idx += 1;
                        v
                    })
                    .collect();
                GlobalArray::from_vec(rows, cols, vals)
            })
            .collect();
        let (out, counters, _) = run(kernel, config, planes, iters);
        (out.iter().flat_map(|p| p.as_slice().iter().copied()).collect(), counters)
    }

    #[test]
    fn session_matches_one_shot_run_bitwise() {
        // fused (Box2D -> fusion 3 by default) with a non-multiple
        // iteration count exercises the fused + remainder split, plus a
        // 1-D and a 3-D case
        let cases: [(&str, Vec<usize>, usize); 3] = [
            ("Box-2D49P", vec![40, 48], 5),
            ("1D5P", vec![256], 4),
            ("Heat-3D", vec![4, 16, 24], 2),
        ];
        for (name, extents, iters) in cases {
            let kernel = kernels::by_name(name).unwrap();
            let config = ExecConfig::default();
            let (want_vals, want_counters) = offline(&kernel, config, &extents, iters, 42);

            let mut sess = ExecSession::new(&kernel, config, &extents);
            for round in 0..3 {
                sess.fill_with(seed_fn(42));
                let counters = sess.run(iters);
                let got: Vec<f64> =
                    sess.planes().iter().flat_map(|p| p.as_slice().iter().copied()).collect();
                assert_eq!(got.len(), want_vals.len(), "{name}");
                for (i, (g, w)) in got.iter().zip(&want_vals).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{name} round {round} value {i}");
                }
                assert_eq!(
                    counters.fields(),
                    want_counters.fields(),
                    "{name} round {round} counters"
                );
            }
        }
    }

    #[test]
    fn with_params_matches_run_tuned_bitwise() {
        // a non-default (but schedule-neutral) tiling: the session must
        // reproduce `run_tuned`'s fused + remainder split exactly
        let kernel = kernels::by_name("Box-2D49P").unwrap();
        let config = ExecConfig::default();
        let params = ScheduleParams { tile_rows: 16, tile_cols: 16, ..ScheduleParams::default() };
        let (extents, iters, seed) = ([40usize, 48], 5usize, 42u64);

        let f = seed_fn(seed);
        let vals: Vec<f64> = (0..extents[0] * extents[1]).map(|i| f(i as u64)).collect();
        let planes = vec![GlobalArray::from_vec(extents[0], extents[1], vals)];
        let (want, want_counters, _) =
            crate::schedule::run_tuned(&kernel, config, params, planes, iters);

        let mut sess = ExecSession::with_params(&kernel, config, &extents, params);
        assert_eq!(sess.params(), params);
        sess.fill_with(seed_fn(seed));
        let counters = sess.run(iters);
        for (g, w) in sess.planes()[0].as_slice().iter().zip(want[0].as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(counters.fields(), want_counters.fields());
    }

    #[test]
    fn zero_iterations_returns_the_fill() {
        let kernel = kernels::by_name("Box-2D9P").unwrap();
        let mut sess = ExecSession::new(&kernel, ExecConfig::default(), &[16, 16]);
        sess.fill_with(seed_fn(7));
        let counters = sess.run(0);
        assert_eq!(counters.fields().iter().map(|(_, v)| v).sum::<u64>(), 0);
        let f = seed_fn(7);
        for (i, v) in sess.planes()[0].as_slice().iter().enumerate() {
            assert_eq!(v.to_bits(), f(i as u64).to_bits());
        }
    }
}
