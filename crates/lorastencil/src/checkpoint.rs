//! Checkpointed execution: the [`ExecSession`] time loop with a
//! crash-consistent snapshot hook between applications, plus
//! deterministic resume — and the grid ↔ plane conversion every
//! plane-level entry point shares.
//!
//! ## Bit-identical resume
//!
//! Every fused application is a pure function of the current planes, so
//! a run is the composition `applyₖ ∘ … ∘ apply₁ (input)`. Snapshots are
//! taken only **between** applications, capturing the exact intermediate
//! planes plus the counters accumulated so far. A resumed run recomputes
//! the remaining fused/unfused split on the *remaining* step count —
//! which reproduces the suffix of the straight run's application sequence
//! exactly (snapshots land either on a fusion boundary or inside the
//! unfused remainder phase, and in both cases the suffix decomposition
//! is the same). Counters merge associatively in job order, so values
//! AND counters are bit-identical to an uninterrupted run at any
//! `FOUNDATION_THREADS` setting — the property `tests/checkpoint.rs`
//! pins.
//!
//! ## Plan fingerprint
//!
//! A snapshot embeds [`plan_fingerprint`] — a hash of the kernel (name,
//! radius, every weight's exact bits), the [`ExecConfig`] toggles, the
//! grid extents **and the resolved [`ScheduleParams`]** (tuning-DB entry
//! or defaults). [`resume`] recomputes the fingerprint from its own
//! arguments and rejects a mismatch, so a checkpoint can never be
//! silently continued under a different plan — including under a
//! different tuning-DB entry (which would produce plausible-looking but
//! differently-scheduled science).
//!
//! [`ScheduleParams`]: crate::schedule::ScheduleParams

use crate::plan::ExecConfig;
use crate::schedule::ExecSession;
use crate::tuning::TuningDbError;
use stencil_core::checkpoint::{CheckpointStore, Plane, Snapshot, FLAG_SEEDED_INPUT};
use stencil_core::{Grid1D, Grid2D, Grid3D, GridData, StencilKernel};
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// FNV-1a 64 over the plan identity: kernel name, radius,
/// dimensionality, every weight's exact `f64` bits, the [`ExecConfig`]
/// toggle bits, the grid extents, and the **resolved**
/// [`ScheduleParams`](crate::schedule::ScheduleParams) the run would
/// execute with (the installed tuning DB's entry for this
/// kernel/extents/config, or the defaults). Any change to any of these
/// yields a different fingerprint, so resume rejects mismatched plans —
/// a snapshot cannot be silently resumed under a different tuning-DB
/// entry. Fails only when the tuning DB cannot be loaded.
pub fn plan_fingerprint(
    kernel: &StencilKernel,
    config: ExecConfig,
    extents: &[usize],
) -> Result<u64, TuningDbError> {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    struct Fnv(u64);
    impl Fnv {
        fn eat(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
            }
        }
        fn eat_u64(&mut self, v: u64) {
            self.eat(&v.to_le_bytes());
        }
    }
    let mut h = Fnv(OFFSET);
    h.eat(kernel.name.as_bytes());
    h.eat_u64(kernel.radius as u64);
    h.eat_u64(kernel.dims() as u64);
    match &kernel.weights {
        stencil_core::Weights::D1(w) => {
            for &v in w {
                h.eat_u64(v.to_bits());
            }
        }
        stencil_core::Weights::D2(m) => {
            for &v in m.as_slice() {
                h.eat_u64(v.to_bits());
            }
        }
        stencil_core::Weights::D3(planes) => {
            for m in planes {
                for &v in m.as_slice() {
                    h.eat_u64(v.to_bits());
                }
            }
        }
    }
    h.eat_u64(config.bits());
    h.eat_u64(extents.len() as u64);
    for &e in extents {
        h.eat_u64(e as u64);
    }
    let params = crate::tuning::lookup(kernel, extents, config)?.unwrap_or_default();
    h.eat_u64(params.tile_rows as u64);
    h.eat_u64(params.tile_cols as u64);
    h.eat_u64(match params.staging {
        crate::schedule::Staging::Single => 0,
        crate::schedule::Staging::Double => 1,
    });
    h.eat_u64(params.mma_batch as u64);
    // None and Some(n) must hash apart, so shift overrides by one
    h.eat_u64(params.fuse_override.map_or(0, |f| f as u64 + 1));
    Ok(h.0)
}

/// A grid's extents (`[n]`, `[rows, cols]` or `[nz, ny, nx]`).
pub fn grid_extents(grid: &GridData) -> Vec<usize> {
    match grid {
        GridData::D1(g) => vec![g.len()],
        GridData::D2(g) => vec![g.rows(), g.cols()],
        GridData::D3(g) => vec![g.nz(), g.ny(), g.nx()],
    }
}

/// A grid as the plane list the stepper runs over (1-D grids become one
/// `1 × n` plane).
pub fn grid_to_planes(grid: &GridData) -> Vec<GlobalArray> {
    match grid {
        GridData::D1(g) => vec![GlobalArray::from_vec(1, g.len(), g.as_slice().to_vec())],
        GridData::D2(g) => {
            vec![GlobalArray::from_vec(g.rows(), g.cols(), g.as_slice().to_vec())]
        }
        GridData::D3(g) => (0..g.nz())
            .map(|z| GlobalArray::from_vec(g.ny(), g.nx(), g.plane(z).as_slice().to_vec()))
            .collect(),
    }
}

/// Planes back into a grid of the given extents.
pub fn planes_to_grid(planes: &[GlobalArray], extents: &[usize]) -> GridData {
    match *extents {
        [_n] => GridData::D1(Grid1D::from_vec(planes[0].as_slice().to_vec())),
        [r, c] => GridData::D2(Grid2D::from_vec(r, c, planes[0].as_slice().to_vec())),
        [_nz, ny, nx] => GridData::D3(Grid3D::from_fn(planes.len(), ny, nx, |z, y, x| {
            planes[z].as_slice()[y * nx + x]
        })),
        _ => panic!("grids are 1-, 2- or 3-dimensional"),
    }
}

fn snapshot_planes(planes: &[GlobalArray]) -> Vec<Plane> {
    planes
        .iter()
        .map(|p| Plane { rows: p.rows(), cols: p.cols(), data: p.as_slice().to_vec() })
        .collect()
}

fn planes_from_snapshot(snap: &Snapshot) -> Vec<GlobalArray> {
    snap.planes.iter().map(|p| GlobalArray::from_vec(p.rows, p.cols, p.data.clone())).collect()
}

/// Checkpointing policy for [`run`] / [`resume`]: where snapshots go,
/// how often (in temporal steps), and the run identity recorded in each.
pub struct CkptPolicy<'a> {
    /// The snapshot directory + retention ring.
    pub store: &'a CheckpointStore,
    /// Snapshot whenever the step counter crosses a multiple of this
    /// (must be ≥ 1; applications advance `fusion` steps at once, so a
    /// snapshot lands on the first application boundary at or past each
    /// multiple).
    pub every: u64,
    /// Input-generation seed recorded in the snapshot.
    pub seed: u64,
    /// Executor name recorded in the snapshot.
    pub method: &'a str,
}

/// Why a checkpointed run or resume failed.
#[derive(Debug)]
pub enum CkptRunError {
    /// Snapshot persistence failed.
    Io(std::io::Error),
    /// The snapshot's plan fingerprint disagrees with the resuming plan.
    FingerprintMismatch {
        /// Fingerprint stored in the snapshot.
        stored: u64,
        /// Fingerprint of the plan the caller asked to resume under.
        computed: u64,
        /// What the snapshot said it was running (kernel, config, extents).
        snapshot_identity: String,
    },
    /// The snapshot claims more completed steps than the run's total.
    StepBeyondTotal {
        /// Steps the snapshot has completed.
        step: u64,
        /// Steps the run was asked for.
        total: u64,
    },
    /// The tuning DB named by `LORASTENCIL_TUNING_DB` failed to load, so
    /// the run's schedule (and its fingerprint) cannot be resolved.
    TuningDb(TuningDbError),
}

impl std::fmt::Display for CkptRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptRunError::Io(e) => write!(f, "checkpoint write failed: {e}"),
            CkptRunError::FingerprintMismatch { stored, computed, snapshot_identity } => write!(
                f,
                "plan fingerprint mismatch: snapshot was taken under {snapshot_identity} \
                 (fingerprint {stored:#018x}) but resume would run {computed:#018x} — \
                 rerun with the kernel/config/size the checkpoint records"
            ),
            CkptRunError::StepBeyondTotal { step, total } => write!(
                f,
                "snapshot has already completed {step} of {total} requested steps — \
                 nothing to resume (raise --iters to continue further)"
            ),
            CkptRunError::TuningDb(e) => write!(f, "LORASTENCIL_TUNING_DB: {e}"),
        }
    }
}

impl std::error::Error for CkptRunError {}

impl From<std::io::Error> for CkptRunError {
    fn from(e: std::io::Error) -> Self {
        CkptRunError::Io(e)
    }
}

impl From<TuningDbError> for CkptRunError {
    fn from(e: TuningDbError) -> Self {
        CkptRunError::TuningDb(e)
    }
}

/// The result of a checkpointed run: the final grid, the counters over
/// **all** completed steps (including pre-resume ones), the plan's block
/// resources, and how many snapshots this invocation wrote.
#[derive(Debug)]
pub struct CkptOutcome {
    /// Final state after `steps_total` steps.
    pub output: GridData,
    /// Counters accumulated over every step since step 0.
    pub counters: PerfCounters,
    /// Per-block resources of the executed plan.
    pub block: BlockResources,
    /// Snapshots written by this invocation.
    pub snapshots_written: usize,
}

/// The checkpointed time loop shared by [`run`] and [`resume`]: step
/// from `start_step` to `total`, snapshotting whenever the step counter
/// crosses a multiple of `policy.every`. `counters` carries the
/// pre-resume accumulation (zero for a fresh run).
#[allow(clippy::too_many_arguments)]
fn run_loop(
    kernel: &StencilKernel,
    config: ExecConfig,
    planes: Vec<GlobalArray>,
    extents: &[usize],
    start_step: u64,
    total: u64,
    mut counters: PerfCounters,
    rng: [u64; 4],
    policy: &CkptPolicy,
) -> Result<CkptOutcome, CkptRunError> {
    assert!(policy.every >= 1, "CLI validation rejects --checkpoint-every < 1");
    let fingerprint = plan_fingerprint(kernel, config, extents)?;
    let snapshot = |step: u64, planes: &[GlobalArray], counters: &PerfCounters| Snapshot {
        flags: FLAG_SEEDED_INPUT,
        fingerprint,
        step,
        steps_total: total,
        every: policy.every,
        seed: policy.seed,
        rng,
        kernel: kernel.name.clone(),
        config: config.tag(),
        method: policy.method.to_string(),
        extents: extents.to_vec(),
        counters: *counters,
        planes: snapshot_planes(planes),
    };

    // one session over the remaining steps runs them in chunks that end
    // on the application boundaries where a snapshot is due (and on the
    // last one), so the application sequence is that of a plain run
    let remaining = (total - start_step) as usize;
    let params = crate::schedule::tuned_params(kernel, config, extents)?;
    let mut session = ExecSession::over(kernel, config, params, planes, Some(remaining));
    let due = |from: usize, to: usize| {
        (start_step + to as u64) / policy.every > (start_step + from as u64) / policy.every
    };
    let (mut ran, mut prev_end, mut written) = (0usize, 0usize, 0usize);
    for end in session.application_ends(remaining) {
        let snap_due = due(prev_end, end);
        prev_end = end;
        if snap_due || end == remaining {
            counters.merge(&session.run(end - ran));
            ran = end;
        }
        if snap_due {
            let step = start_step + end as u64;
            policy.store.save(&snapshot(step, session.planes(), &counters))?;
            written += 1;
        }
    }
    Ok(CkptOutcome {
        output: planes_to_grid(session.planes(), extents),
        counters,
        block: session.block(),
        snapshots_written: written,
    })
}

/// Run `total` steps from a fresh input, snapshotting per `policy`.
pub fn run(
    kernel: &StencilKernel,
    config: ExecConfig,
    input: &GridData,
    total: u64,
    policy: &CkptPolicy,
) -> Result<CkptOutcome, CkptRunError> {
    let extents = grid_extents(input);
    run_loop(
        kernel,
        config,
        grid_to_planes(input),
        &extents,
        0,
        total,
        PerfCounters::new(),
        [0; 4],
        policy,
    )
}

/// Resume from a recovered snapshot and run to `snap.steps_total`,
/// continuing to snapshot per `policy`. Rejects the snapshot if its
/// plan fingerprint disagrees with `(kernel, config, extents)` — a
/// checkpoint is never silently continued under a different plan.
pub fn resume(
    kernel: &StencilKernel,
    config: ExecConfig,
    snap: &Snapshot,
    policy: &CkptPolicy,
) -> Result<CkptOutcome, CkptRunError> {
    let computed = plan_fingerprint(kernel, config, &snap.extents)?;
    if computed != snap.fingerprint {
        return Err(CkptRunError::FingerprintMismatch {
            stored: snap.fingerprint,
            computed,
            snapshot_identity: format!(
                "kernel {:?}, config {:?}, size {:?}",
                snap.kernel, snap.config, snap.extents
            ),
        });
    }
    if snap.step >= snap.steps_total {
        return Err(CkptRunError::StepBeyondTotal { step: snap.step, total: snap.steps_total });
    }
    run_loop(
        kernel,
        config,
        planes_from_snapshot(snap),
        &snap.extents.clone(),
        snap.step,
        snap.steps_total,
        snap.counters,
        snap.rng,
        policy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;

    fn store(name: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("lorastencil-ckptmod-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir, keep).unwrap()
    }

    fn grid_2d() -> GridData {
        GridData::D2(Grid2D::from_fn(24, 24, |r, c| ((r * 31 + c * 17) % 13) as f64 * 0.25))
    }

    #[test]
    fn fingerprint_separates_kernel_config_and_extents() {
        let k = kernels::box_2d9p();
        let base = plan_fingerprint(&k, ExecConfig::full(), &[64, 64]).unwrap();
        let cfg = ExecConfig { use_bvs: false, ..ExecConfig::full() };
        assert_ne!(base, plan_fingerprint(&k, cfg, &[64, 64]).unwrap(), "config toggles change it");
        assert_ne!(
            base,
            plan_fingerprint(&k, ExecConfig::full(), &[64, 65]).unwrap(),
            "extents change it"
        );
        let k2 = kernels::heat_2d();
        assert_ne!(
            base,
            plan_fingerprint(&k2, ExecConfig::full(), &[64, 64]).unwrap(),
            "kernel changes it"
        );
        // a weight perturbation alone (same name/radius) changes it
        let mut kw = k.clone();
        if let stencil_core::Weights::D2(m) = &mut kw.weights {
            let v = m.get(0, 0);
            m.set(0, 0, v + 1e-9);
        }
        assert_ne!(base, plan_fingerprint(&kw, ExecConfig::full(), &[64, 64]).unwrap());
        // and it is deterministic
        assert_eq!(base, plan_fingerprint(&k, ExecConfig::full(), &[64, 64]).unwrap());
    }

    #[test]
    fn grid_plane_conversion_roundtrips_all_dims() {
        let grids = [
            GridData::D1(Grid1D::from_fn(17, |i| (i as f64).sin())),
            grid_2d(),
            GridData::D3(Grid3D::from_fn(3, 4, 5, |z, y, x| (z * 100 + y * 10 + x) as f64)),
        ];
        for g in grids {
            let extents = grid_extents(&g);
            assert_eq!(planes_to_grid(&grid_to_planes(&g), &extents), g);
        }
    }

    #[test]
    fn checkpointed_run_matches_plain_run_bit_for_bit() {
        // Box-2D9P fuses 3 steps per application: 7 and 13 steps end in
        // an unfused remainder phase, 9 does not. Snapshots land on the
        // first application boundary at or past each multiple of `every`.
        let k = kernels::box_2d9p();
        let cases: [(u64, u64, &[u64]); 6] = [
            (7, 2, &[3, 6]),
            (7, 5, &[6]),
            (9, 2, &[3, 6, 9]),
            (9, 5, &[6]),
            (13, 2, &[3, 6, 9, 12]),
            (13, 5, &[6, 12]),
        ];
        for (steps, every, want_snaps) in cases {
            let case = format!("{steps} steps, every {every}");
            let st = store(&format!("match-plain-{steps}-{every}"), 16);
            let policy = CkptPolicy { store: &st, every, seed: 7, method: "LoRAStencil" };
            let out = run(&k, ExecConfig::full(), &grid_2d(), steps, &policy).unwrap();
            let (planes, counters, _) = crate::schedule::run(
                &k,
                ExecConfig::full(),
                grid_to_planes(&grid_2d()),
                steps as usize,
            );
            let got = grid_to_planes(&out.output);
            let same = got[0]
                .as_slice()
                .iter()
                .zip(planes[0].as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{case}: values differ from the plain run");
            assert_eq!(out.counters, counters, "{case}: {:?}", out.counters.diff(&counters));
            let snaps: Vec<u64> = st.list().unwrap().into_iter().map(|(s, _)| s).collect();
            assert_eq!(snaps, want_snaps, "{case}: snapshot steps");
            assert_eq!(out.snapshots_written, want_snaps.len(), "{case}");
        }
    }

    #[test]
    fn resume_rejects_mismatched_fingerprints() {
        let k = kernels::box_2d9p();
        let st = store("fp-mismatch", 4);
        let policy = CkptPolicy { store: &st, every: 3, seed: 7, method: "LoRAStencil" };
        run(&k, ExecConfig::full(), &grid_2d(), 7, &policy).unwrap();
        let (snap, _) = st.load_latest_valid().unwrap();
        assert_eq!(snap.step, 6, "mid-run snapshot: one step remains");
        // wrong kernel
        let err = resume(&kernels::heat_2d(), ExecConfig::full(), &snap, &policy).unwrap_err();
        assert!(matches!(err, CkptRunError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("Box-2D9P"), "names the recorded kernel: {err}");
        // wrong config
        let cfg =
            ExecConfig { backend: crate::plan::DeviceBackend::CudaCore, ..ExecConfig::full() };
        assert!(matches!(
            resume(&k, cfg, &snap, &policy),
            Err(CkptRunError::FingerprintMismatch { .. })
        ));
        // correct plan resumes fine
        assert!(resume(&k, ExecConfig::full(), &snap, &policy).is_ok());
    }

    #[test]
    fn resume_rejects_a_different_tuning_db_entry() {
        use crate::schedule::{ScheduleParams, Staging};
        use crate::tuning::{self, TuningDb, TuningEntry};
        // unique extents so the installed entry cannot collide with any
        // concurrently running test's lookups
        let grid =
            GridData::D2(Grid2D::from_fn(23, 29, |r, c| ((r * 31 + c * 17) % 13) as f64 * 0.25));
        let k = kernels::box_2d9p();
        let st = store("tuning-mismatch", 4);
        let policy = CkptPolicy { store: &st, every: 3, seed: 7, method: "LoRAStencil" };
        run(&k, ExecConfig::full(), &grid, 7, &policy).unwrap();
        let (snap, _) = st.load_latest_valid().unwrap();

        // installing a DB entry for this exact (kernel, extents, config)
        // changes the resolved params → the fingerprint → resume refuses
        let mut db = TuningDb::new();
        db.insert(
            &k,
            &[23, 29],
            ExecConfig::full(),
            TuningEntry {
                kernel: k.name.clone(),
                extents: vec![23, 29],
                config: "full".to_string(),
                params: ScheduleParams {
                    tile_rows: 16,
                    tile_cols: 16,
                    staging: Staging::Double,
                    mma_batch: 4,
                    fuse_override: None,
                },
                best_ns: 1,
                default_ns: 2,
            },
        );
        tuning::install_global(db);
        let err = resume(&k, ExecConfig::full(), &snap, &policy);
        tuning::clear_global();
        assert!(matches!(err, Err(CkptRunError::FingerprintMismatch { .. })));
        // with the DB gone the original plan resumes fine
        assert!(resume(&k, ExecConfig::full(), &snap, &policy).is_ok());
    }

    #[test]
    fn resume_past_the_end_is_an_error() {
        let k = kernels::box_2d9p();
        let st = store("past-end", 4);
        let policy = CkptPolicy { store: &st, every: 3, seed: 7, method: "LoRAStencil" };
        run(&k, ExecConfig::full(), &grid_2d(), 6, &policy).unwrap();
        let (snap, _) = st.load_latest_valid().unwrap();
        assert_eq!(snap.step, 6, "final step was snapshotted");
        let err = resume(&k, ExecConfig::full(), &snap, &policy).unwrap_err();
        assert!(matches!(err, CkptRunError::StepBeyondTotal { step: 6, total: 6 }));
        assert!(err.to_string().contains("--iters"), "suggests the fix: {err}");
    }
}
