//! Distributed LoRAStencil execution: each simulated device owns a row
//! slab plus ghost rows, advances it locally with the single-device
//! executor (a double-buffered grid pair driven through a per-device
//! [`Workspace`]), and exchanges halos with its ring neighbors over
//! NVLink after every (possibly fused) application.
//!
//! Ghost padding is rounded up to the 8-row tile so every device's local
//! tiling aligns with the global tiling — making the distributed result
//! **bit-identical** to the single-device run, not merely close: the same
//! tiles accumulate the same partial sums in the same order.

use crate::partition::{partition, Slab, ALIGN};
use lorastencil::checkpoint::{plan_fingerprint, CkptRunError};
use lorastencil::{ExecConfig, Plan, Workspace};
use stencil_core::checkpoint::{CheckpointStore, Plane, Snapshot, FLAG_SEEDED_INPUT};
use stencil_core::{
    ExecError, ExecOutcome, Grid2D, GridData, Problem, StencilExecutor, StencilKernel,
};
use tcu_sim::{BlockResources, GlobalArray, PerfCounters};

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// The reassembled global grid after all iterations.
    pub output: Grid2D,
    /// Per-device counters (includes the ghost-tile recompute overhead —
    /// the surface-to-volume cost real distributed stencils pay).
    pub per_device: Vec<PerfCounters>,
    /// Total bytes moved over NVLink (all devices, all exchanges).
    pub nvlink_bytes: u64,
    /// Number of grid applications (fused steps count once).
    pub applies: usize,
    /// Per-block resources of the executor plan (for the cost model).
    pub block: BlockResources,
}

/// One device's state: its slab plus `pad` ghost rows on each side.
struct Device {
    slab: Slab,
    /// Tile-aligned ghost depth (≥ the kernel's exec radius).
    pad: usize,
    /// Local grid: `pad + slab.len + pad` rows × full width.
    local: GlobalArray,
    /// Ping-pong partner of `local`, swapped after each application.
    next: GlobalArray,
}

/// Gather `count` rows starting at global row `start` (periodic) from
/// the authoritative slab owners.
fn gather_rows(
    devices: &[Device],
    rows: usize,
    cols: usize,
    start: isize,
    count: usize,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(count * cols);
    for dr in 0..count {
        let gr = (start + dr as isize).rem_euclid(rows as isize) as usize;
        let owner = devices
            .iter()
            .find(|d| gr >= d.slab.start && gr < d.slab.start + d.slab.len)
            .expect("every row has an owner");
        let lr = owner.pad + (gr - owner.slab.start);
        for c in 0..cols {
            out.push(owner.local.peek(lr, c));
        }
    }
    out
}

/// Refresh every device's ghost rows from its neighbors. Returns the
/// bytes that crossed NVLink (only the `needed` rows per side are sent;
/// the alignment padding beyond them feeds discarded outputs and is left
/// stale).
fn exchange_halos(devices: &mut [Device], rows: usize, cols: usize, needed: usize) -> u64 {
    let _halo = foundation::obs::span("halo_exchange");
    // snapshot-gather to keep the borrow checker and the ring symmetric
    let fetch: Vec<(Vec<f64>, Vec<f64>)> = devices
        .iter()
        .map(|d| {
            let top =
                gather_rows(devices, rows, cols, d.slab.start as isize - needed as isize, needed);
            let bottom =
                gather_rows(devices, rows, cols, (d.slab.start + d.slab.len) as isize, needed);
            (top, bottom)
        })
        .collect();
    let mut bytes = 0u64;
    for (d, (top, bottom)) in devices.iter_mut().zip(fetch) {
        let pad = d.pad;
        for dr in 0..needed {
            for c in 0..cols {
                d.local.poke(pad - needed + dr, c, top[dr * cols + c]);
                d.local.poke(pad + d.slab.len + dr, c, bottom[dr * cols + c]);
            }
        }
        bytes += 2 * (needed * cols * 8) as u64;
    }
    bytes
}

/// Reassemble the authoritative slabs (ghost rows excluded) into the
/// global grid — one *consistent* view: callers only invoke this between
/// applications, when every device has completed the same step.
fn gather_global(devices: &[Device], rows: usize, cols: usize) -> Grid2D {
    let mut output = Grid2D::new(rows, cols);
    for d in devices {
        for r in 0..d.slab.len {
            for c in 0..cols {
                output.set(d.slab.start + r, c, d.local.peek(d.pad + r, c));
            }
        }
    }
    output
}

/// Checkpointing policy for [`run_distributed_checkpointed`] /
/// [`resume_distributed`].
pub struct DistCkptPolicy<'a> {
    /// The snapshot directory + retention ring.
    pub store: &'a CheckpointStore,
    /// Snapshot whenever the step counter crosses a multiple of this.
    pub every: u64,
    /// Input-generation seed recorded in the snapshot.
    pub seed: u64,
}

/// Run `iterations` steps of `kernel` over `grid` on `num_devices`
/// simulated A100s.
pub fn run_distributed(
    kernel: &StencilKernel,
    grid: &Grid2D,
    iterations: usize,
    num_devices: usize,
    config: ExecConfig,
) -> DistributedOutcome {
    run_inner(kernel, grid, 0, iterations as u64, num_devices, config, PerfCounters::new(), None)
        .expect("no checkpoint policy, so no I/O can fail")
        .0
}

/// [`run_distributed`] with periodic crash-consistent snapshots: after
/// each application that crosses a multiple of `policy.every`, the
/// device shards are gathered into one consistent global [`Snapshot`]
/// (same format, same [`plan_fingerprint`], as the single-device path —
/// distributed execution is bit-identical, so a snapshot taken here can
/// be resumed on one device or many). Returns the outcome and how many
/// snapshots were written.
pub fn run_distributed_checkpointed(
    kernel: &StencilKernel,
    grid: &Grid2D,
    iterations: usize,
    num_devices: usize,
    config: ExecConfig,
    policy: &DistCkptPolicy,
) -> Result<(DistributedOutcome, usize), CkptRunError> {
    run_inner(
        kernel,
        grid,
        0,
        iterations as u64,
        num_devices,
        config,
        PerfCounters::new(),
        Some(policy),
    )
}

/// Resume a recovered snapshot on `num_devices` devices and run to
/// `snap.steps_total`. Rejects a fingerprint mismatch exactly like the
/// single-device [`lorastencil::checkpoint::resume`]; the device count
/// is deliberately *not* part of the fingerprint (distributed execution
/// is bit-identical, so a snapshot may be resumed on any device count).
pub fn resume_distributed(
    kernel: &StencilKernel,
    snap: &Snapshot,
    num_devices: usize,
    config: ExecConfig,
    policy: &DistCkptPolicy,
) -> Result<(DistributedOutcome, usize), CkptRunError> {
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
    let [rows, cols] = snap.extents[..] else {
        return Err(CkptRunError::FingerprintMismatch {
            stored: snap.fingerprint,
            computed,
            snapshot_identity: format!(
                "{}-D snapshot; the distributed executor covers 2-D grids",
                snap.extents.len()
            ),
        });
    };
    let grid = Grid2D::from_vec(rows, cols, snap.planes[0].data.clone());
    run_inner(
        kernel,
        &grid,
        snap.step,
        snap.steps_total,
        num_devices,
        config,
        snap.counters,
        Some(policy),
    )
}

/// The shared distributed time loop: step from `start_step` to `total`,
/// optionally snapshotting gathered global state per `policy`.
#[allow(clippy::too_many_arguments)]
fn run_inner(
    kernel: &StencilKernel,
    grid: &Grid2D,
    start_step: u64,
    total: u64,
    num_devices: usize,
    config: ExecConfig,
    start_counters: PerfCounters,
    policy: Option<&DistCkptPolicy>,
) -> Result<(DistributedOutcome, usize), CkptRunError> {
    assert_eq!(kernel.dims(), 2, "the distributed executor covers 2-D kernels");
    let iterations = (total - start_step) as usize;
    let (rows, cols) = (grid.rows(), grid.cols());
    let plan = Plan::new(kernel, config);
    let unfused = Plan::new(kernel, ExecConfig { allow_fusion: false, ..config });
    let full = iterations / plan.fusion;
    let rem = iterations % plan.fusion;

    let slabs = partition(rows, num_devices);
    let mut devices: Vec<Device> = slabs
        .iter()
        .map(|&slab| {
            // ghost depth: the deepest radius any plan needs, tile-aligned
            let g = plan.exec_kernel.radius.max(unfused.exec_kernel.radius);
            let pad = stencil_core::tiling::ghost_extent(g, ALIGN);
            let mut local = GlobalArray::new(pad + slab.len + pad, cols);
            for r in 0..slab.len {
                for c in 0..cols {
                    local.poke(pad + r, c, grid.at(slab.start + r, c));
                }
            }
            let next = GlobalArray::new(pad + slab.len + pad, cols);
            Device { slab, pad, local, next }
        })
        .collect();

    let mut per_device = vec![PerfCounters::new(); num_devices];
    let mut nvlink_bytes = 0u64;
    let mut applies = 0usize;

    // Per-(device, plan) workspaces: tilings differ per device (slabs may
    // have different row counts) and weight fragments differ per plan.
    // The device loop is sequential — the scalable axis is the tile
    // parallelism inside `Workspace::apply` — and each device
    // ping-pongs its local grid pair, so the steady-state loop allocates
    // nothing.
    let mut ws_fused: Vec<Workspace> =
        devices.iter().map(|d| Workspace::new(&plan, &[d.local.rows(), cols])).collect();
    let mut ws_unfused: Vec<Workspace> = if rem > 0 {
        devices.iter().map(|d| Workspace::new(&unfused, &[d.local.rows(), cols])).collect()
    } else {
        Vec::new()
    };

    let step = |devices: &mut Vec<Device>,
                per_device: &mut Vec<PerfCounters>,
                nvlink: &mut u64,
                p: &Plan,
                ws: &mut [Workspace]| {
        *nvlink += exchange_halos(devices, rows, cols, p.exec_kernel.radius);
        for ((d, w), pc) in devices.iter_mut().zip(ws).zip(per_device.iter_mut()) {
            let _device_apply = foundation::obs::span("device_apply");
            let c = w.apply(&d.local, &mut d.next);
            std::mem::swap(&mut d.local, &mut d.next);
            pc.merge(&c);
        }
    };

    let fingerprint = plan_fingerprint(kernel, config, &[rows, cols])?;
    let snapshot = |devices: &[Device], step: u64, pre: &[PerfCounters]| {
        let mut counters = start_counters;
        for c in pre {
            counters.merge(c);
        }
        let global = gather_global(devices, rows, cols);
        Snapshot {
            flags: FLAG_SEEDED_INPUT,
            fingerprint,
            step,
            steps_total: total,
            every: policy.map(|p| p.every).unwrap_or(0),
            seed: policy.map(|p| p.seed).unwrap_or(0),
            rng: [0; 4],
            kernel: kernel.name.clone(),
            config: config.tag(),
            method: format!("LoRAStencil-dist{num_devices}"),
            extents: vec![rows, cols],
            counters,
            planes: vec![Plane { rows, cols, data: global.as_slice().to_vec() }],
        }
    };

    let mut step_no = start_step;
    let mut written = 0usize;
    let mut checkpoint = |devices: &[Device],
                          per_device: &[PerfCounters],
                          step_no: &mut u64,
                          advance: u64|
     -> Result<(), CkptRunError> {
        let crossed =
            policy.map(|p| (*step_no + advance) / p.every > *step_no / p.every).unwrap_or(false);
        *step_no += advance;
        if crossed {
            let p = policy.expect("crossed implies a policy");
            p.store.save(&snapshot(devices, *step_no, per_device)).map_err(CkptRunError::Io)?;
            written += 1;
        }
        Ok(())
    };

    for _ in 0..full {
        step(&mut devices, &mut per_device, &mut nvlink_bytes, &plan, &mut ws_fused);
        applies += 1;
        checkpoint(&devices, &per_device, &mut step_no, plan.fusion as u64)?;
    }
    for _ in 0..rem {
        step(&mut devices, &mut per_device, &mut nvlink_bytes, &unfused, &mut ws_unfused);
        applies += 1;
        checkpoint(&devices, &per_device, &mut step_no, 1)?;
    }

    let output = gather_global(&devices, rows, cols);
    Ok((
        DistributedOutcome {
            output,
            per_device,
            nvlink_bytes,
            applies,
            block: plan.block_resources(),
        },
        written,
    ))
}

/// [`run_distributed`] behind the common [`StencilExecutor`] interface,
/// so verification harnesses can drive the multi-device path exactly like
/// any single-device executor. 2-D only (like the distributed runner);
/// the reported counters are the merged per-device totals, which include
/// the ghost-recompute overhead.
#[derive(Debug, Clone)]
pub struct DistributedLoRa {
    /// Simulated device count.
    pub num_devices: usize,
    /// Feature toggles forwarded to every device's plan.
    pub config: ExecConfig,
}

impl DistributedLoRa {
    /// Full configuration on `num_devices` devices.
    pub fn new(num_devices: usize) -> Self {
        assert!(num_devices >= 1, "need at least one device");
        DistributedLoRa { num_devices, config: ExecConfig::full() }
    }
}

impl StencilExecutor for DistributedLoRa {
    fn name(&self) -> &'static str {
        // `name` returns a static string, so the common device counts get
        // distinct labels and the rest share one
        match self.num_devices {
            1 => "LoRAStencil-dist1",
            2 => "LoRAStencil-dist2",
            3 => "LoRAStencil-dist3",
            4 => "LoRAStencil-dist4",
            _ => "LoRAStencil-distN",
        }
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        let GridData::D2(grid) = &problem.input else {
            return Err(ExecError::Unsupported("the distributed executor covers 2-D grids".into()));
        };
        if problem.kernel.dims() != 2 {
            return Err(ExecError::Invalid("kernel/grid dimensionality mismatch".into()));
        }
        if grid.rows() < self.num_devices * ALIGN {
            // partition() requires one ALIGN-row tile per device
            return Err(ExecError::Unsupported(format!(
                "{} rows cannot feed {} devices with {ALIGN}-row tiles",
                grid.rows(),
                self.num_devices
            )));
        }
        let d = run_distributed(
            &problem.kernel,
            grid,
            problem.iterations,
            self.num_devices,
            self.config,
        );
        let mut counters = PerfCounters::new();
        for c in &d.per_device {
            counters.merge(c);
        }
        Ok(ExecOutcome { output: GridData::D2(d.output), counters, block: d.block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;

    fn wavy(rows: usize, cols: usize) -> Grid2D {
        Grid2D::from_fn(rows, cols, |r, c| {
            (r as f64 * 0.3).sin() * 2.0 + (c as f64 * 0.21).cos() + ((r * 13 + c) % 5) as f64 * 0.2
        })
    }

    fn single_device(kernel: &StencilKernel, grid: &Grid2D, iters: usize) -> Grid2D {
        let p = Problem::new(kernel.clone(), grid.clone(), iters);
        let out = lorastencil::LoRaStencil::new().execute(&p).unwrap();
        let GridData::D2(g) = out.output else { unreachable!() };
        g
    }

    #[test]
    fn distributed_is_bit_identical_to_single_device() {
        let grid = wavy(96, 48);
        for kernel in [kernels::box_2d9p(), kernels::star_2d13p()] {
            let want = single_device(&kernel, &grid, 6);
            for devices in [2usize, 3, 4] {
                let got = run_distributed(&kernel, &grid, 6, devices, ExecConfig::full());
                assert_eq!(
                    got.output.as_slice(),
                    want.as_slice(),
                    "{} on {devices} devices must be bit-identical",
                    kernel.name
                );
            }
        }
    }

    #[test]
    fn fused_kernels_exchange_deeper_halos() {
        let grid = wavy(64, 32);
        // Box-2D9P fuses 3×: exec radius 3 → 3 rows per side per exchange
        let d = run_distributed(&kernels::box_2d9p(), &grid, 3, 2, ExecConfig::full());
        assert_eq!(d.applies, 1);
        assert_eq!(d.nvlink_bytes, 2 * 2 * (3 * 32 * 8) as u64);
        // unfused: 3 applies × 1-row halos
        let cfg = ExecConfig { allow_fusion: false, ..ExecConfig::full() };
        let d = run_distributed(&kernels::box_2d9p(), &grid, 3, 2, cfg);
        assert_eq!(d.applies, 3);
        assert_eq!(d.nvlink_bytes, 3 * 2 * 2 * (32 * 8) as u64);
    }

    #[test]
    fn remainder_iterations_run_unfused() {
        let grid = wavy(64, 32);
        let want = single_device(&kernels::box_2d9p(), &grid, 5);
        let got = run_distributed(&kernels::box_2d9p(), &grid, 5, 2, ExecConfig::full());
        assert_eq!(got.applies, 1 + 2); // one fused (3 steps) + two unfused
        let diff: f64 = got
            .output
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-12, "diff = {diff}");
    }

    #[test]
    fn per_device_counters_cover_ghost_overhead() {
        let grid = wavy(64, 64);
        let d = run_distributed(&kernels::box_2d49p(), &grid, 1, 2, ExecConfig::full());
        let total: u64 = d.per_device.iter().map(|c| c.points_updated).sum();
        // each device computes its slab (32 rows) plus 2×8 aligned ghost
        // rows of discarded outputs: the surface-to-volume overhead
        assert_eq!(total, 2 * (32 + 16) * 64);
        assert!(d.per_device.iter().all(|c| c.mma_ops > 0));
    }

    #[test]
    fn single_device_run_has_no_nvlink_traffic_to_itself() {
        // degenerate 1-device "ring": the halo is its own wrap; we still
        // count the copy (it models the periodic wrap buffer), and the
        // result must match the plain executor
        let grid = wavy(32, 32);
        let want = single_device(&kernels::heat_2d(), &grid, 2);
        let got = run_distributed(&kernels::heat_2d(), &grid, 2, 1, ExecConfig::full());
        assert_eq!(got.output.as_slice(), want.as_slice());
    }

    #[test]
    fn executor_wrapper_matches_run_distributed() {
        let grid = wavy(48, 40);
        let exec = DistributedLoRa::new(3);
        let p = Problem::new(kernels::box_2d9p(), grid.clone(), 4);
        let out = exec.execute(&p).unwrap();
        let direct = run_distributed(&kernels::box_2d9p(), &grid, 4, 3, ExecConfig::full());
        assert_eq!(out.output.as_slice(), direct.output.as_slice());
        let mut merged = PerfCounters::new();
        for c in &direct.per_device {
            merged.merge(c);
        }
        assert_eq!(out.counters.mma_ops, merged.mma_ops);
        assert_eq!(out.counters.points_updated, merged.points_updated);
        assert_eq!(exec.name(), "LoRAStencil-dist3");
    }

    fn store(name: &str, keep: usize) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("lorastencil-dist-ckpt-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir, keep).unwrap()
    }

    #[test]
    fn checkpointed_distributed_run_matches_plain_and_gathers_globally() {
        let grid = wavy(96, 48);
        let k = kernels::box_2d9p();
        let plain = run_distributed(&k, &grid, 9, 3, ExecConfig::full());
        let st = store("gather", 8);
        let policy = DistCkptPolicy { store: &st, every: 3, seed: 7 };
        let (out, written) =
            run_distributed_checkpointed(&k, &grid, 9, 3, ExecConfig::full(), &policy).unwrap();
        assert_eq!(out.output.as_slice(), plain.output.as_slice());
        assert_eq!(out.per_device, plain.per_device);
        assert_eq!(written, 3); // fusion 3 → boundaries at 3, 6, 9
                                // every snapshot is one consistent *global* plane, not shards
        let (snap, _) = st.load_latest_valid().unwrap();
        assert_eq!(snap.extents, vec![96, 48]);
        assert_eq!(snap.planes.len(), 1);
        assert_eq!(snap.planes[0].data, plain.output.as_slice());
        assert_eq!(snap.method, "LoRAStencil-dist3");
    }

    #[test]
    fn distributed_snapshot_resumes_on_any_device_count() {
        let grid = wavy(96, 48);
        let k = kernels::box_2d9p();
        let want = run_distributed(&k, &grid, 9, 2, ExecConfig::full());
        let st = store("resume", 8);
        let policy = DistCkptPolicy { store: &st, every: 3, seed: 7 };
        run_distributed_checkpointed(&k, &grid, 9, 2, ExecConfig::full(), &policy).unwrap();
        // resume the mid-run (step 6) snapshot on 2, 3 and 4 devices:
        // bit-identical each time, because the fingerprint covers the
        // plan, not the device count
        let mid = st
            .list()
            .unwrap()
            .into_iter()
            .find(|(s, _)| *s == 6)
            .map(|(_, p)| stencil_core::checkpoint::decode(&std::fs::read(p).unwrap()).unwrap())
            .unwrap();
        for devices in [2usize, 3, 4] {
            let st2 = store("resume-target", 8);
            let policy2 = DistCkptPolicy { store: &st2, every: 3, seed: 7 };
            let (out, _) =
                resume_distributed(&k, &mid, devices, ExecConfig::full(), &policy2).unwrap();
            assert_eq!(
                out.output.as_slice(),
                want.output.as_slice(),
                "resume on {devices} devices diverged"
            );
        }
        // and on a single device via the lorastencil resume path
        let single_st = store("resume-single", 8);
        let sp = lorastencil::checkpoint::CkptPolicy {
            store: &single_st,
            every: 3,
            seed: 7,
            method: "LoRAStencil",
        };
        let out = lorastencil::checkpoint::resume(&k, ExecConfig::full(), &mid, &sp).unwrap();
        let GridData::D2(g) = out.output else { unreachable!() };
        assert_eq!(g.as_slice(), want.output.as_slice());
    }

    #[test]
    fn distributed_resume_rejects_mismatched_plans() {
        let grid = wavy(64, 32);
        let k = kernels::box_2d9p();
        let st = store("reject", 4);
        let policy = DistCkptPolicy { store: &st, every: 3, seed: 7 };
        run_distributed_checkpointed(&k, &grid, 7, 2, ExecConfig::full(), &policy).unwrap();
        let (snap, _) = st.load_latest_valid().unwrap();
        assert_eq!(snap.step, 6);
        let err = resume_distributed(&kernels::heat_2d(), &snap, 2, ExecConfig::full(), &policy)
            .unwrap_err();
        assert!(matches!(err, CkptRunError::FingerprintMismatch { .. }));
        let cfg = ExecConfig { use_bvs: false, ..ExecConfig::full() };
        assert!(matches!(
            resume_distributed(&k, &snap, 2, cfg, &policy),
            Err(CkptRunError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn executor_wrapper_rejects_non_2d() {
        let exec = DistributedLoRa::new(2);
        let p =
            Problem::new(kernels::heat_1d(), stencil_core::Grid1D::from_fn(64, |i| i as f64), 1);
        assert!(exec.execute(&p).is_err());
    }
}
