//! Planning: from a kernel description to one dimension-generic
//! LoRAStencil [`Plan`] (fusion decision, low-rank decomposition, tile
//! geometry, feature toggles for the ablation study).
//!
//! A [`Plan`] records the *decisions* — what to fuse, how to decompose,
//! which features are on. Turning those decisions into an executable op
//! sequence is lowering, owned by [`crate::schedule`]: the same plan
//! type covers 1-D, 2-D and 3-D kernels, with the per-dimension payload
//! in [`PlanKind`].

use crate::decompose::{self, Decomposition};
use crate::fusion;
use crate::rdg::RdgGeometry;
use crate::schedule::{ScheduleParams, Staging};
use stencil_core::{StencilKernel, WeightMatrix};
use tcu_sim::BlockResources;

/// Which device executes the RDG matrix chains. The four backends share
/// one lowering pipeline behind [`crate::schedule::backend::Backend`];
/// only the per-subtile compute path differs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum DeviceBackend {
    /// Dense FP64 `mma.m8n8k4` on tensor cores — the paper's path.
    #[default]
    TcuF64,
    /// 2:4 structured-sparse tensor-core MMAs (`mma.sp.m8n8k4`) where
    /// the rank-1 U fragments prove compressible, with a per-term dense
    /// fallback otherwise (the SparStencil/SPIDER rival).
    SparseTcu,
    /// Scalar CUDA-core execution of the same RDG math — the original
    /// ablation stage, kept as the untuned strawman.
    CudaCore,
    /// Tuned register-blocked host-SIMD execution (chunked 4-wide
    /// unrolling over the staged tiles) — the honest no-TCU rival.
    SimdCore,
}

impl DeviceBackend {
    /// Whether this backend issues tensor-core MMA instructions.
    pub fn uses_tcu(self) -> bool {
        matches!(self, DeviceBackend::TcuF64 | DeviceBackend::SparseTcu)
    }

    /// The CLI token selecting this backend (`--backend` / `--config`).
    pub fn token(self) -> &'static str {
        match self {
            DeviceBackend::TcuF64 => "tcu",
            DeviceBackend::SparseTcu => "sparse",
            DeviceBackend::CudaCore => "no-tcu",
            DeviceBackend::SimdCore => "simd",
        }
    }

    /// All four backends, in roster/figure order.
    pub fn all() -> [DeviceBackend; 4] {
        [
            DeviceBackend::TcuF64,
            DeviceBackend::SparseTcu,
            DeviceBackend::SimdCore,
            DeviceBackend::CudaCore,
        ]
    }
}

/// Feature toggles, primarily for the Fig. 9 performance-breakdown
/// ablation. Production configuration enables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Device backend executing the RDG matrix chains.
    pub backend: DeviceBackend,
    /// Use Butterfly Vector Swapping for the step-2 accumulator split
    /// (`false` = natural split with inter-thread shuffles).
    pub use_bvs: bool,
    /// Use `cp.async` global→shared copies (`false` = register staging).
    pub use_async_copy: bool,
    /// Allow temporal kernel fusion for small kernels.
    pub allow_fusion: bool,
}

impl ExecConfig {
    /// Everything on (the shipped configuration).
    pub fn full() -> Self {
        ExecConfig {
            backend: DeviceBackend::TcuF64,
            use_bvs: true,
            use_async_copy: true,
            allow_fusion: true,
        }
    }

    /// Whether the configured backend issues tensor-core MMAs (drives
    /// register pressure, fragment prebuilds and the no-TCU counter
    /// forms exactly as the old `use_tcu` toggle did).
    pub fn use_tcu(&self) -> bool {
        self.backend.uses_tcu()
    }

    /// The four cumulative stages of the paper's Fig. 9 breakdown, in
    /// order: RDG on CUDA cores → +TCU → +BVS → +AsyncCopy.
    pub fn breakdown_stages() -> [(&'static str, ExecConfig); 4] {
        [
            (
                "RDG (CUDA cores)",
                ExecConfig {
                    backend: DeviceBackend::CudaCore,
                    use_bvs: false,
                    use_async_copy: false,
                    allow_fusion: true,
                },
            ),
            (
                "+TCU",
                ExecConfig {
                    backend: DeviceBackend::TcuF64,
                    use_bvs: false,
                    use_async_copy: false,
                    allow_fusion: true,
                },
            ),
            (
                "+BVS",
                ExecConfig {
                    backend: DeviceBackend::TcuF64,
                    use_bvs: true,
                    use_async_copy: false,
                    allow_fusion: true,
                },
            ),
            ("+AsyncCopy", ExecConfig::full()),
        ]
    }

    /// The configuration packed into one word — the canonical input to
    /// the checkpoint plan fingerprint (stable across field reordering
    /// because the bit positions are fixed here). Bit 0 keeps its
    /// historical `use_tcu` meaning so pre-backend fingerprints stay
    /// valid; bit 4 distinguishes the tuned variant on each side
    /// (`SparseTcu` among TCU backends, `SimdCore` among the rest).
    pub fn bits(&self) -> u64 {
        let variant = matches!(self.backend, DeviceBackend::SparseTcu | DeviceBackend::SimdCore);
        (self.use_tcu() as u64)
            | (self.use_bvs as u64) << 1
            | (self.use_async_copy as u64) << 2
            | (self.allow_fusion as u64) << 3
            | (variant as u64) << 4
    }

    /// A round-trippable textual tag in the CLI's `--config` grammar:
    /// `full` when everything is on, otherwise the comma-joined backend
    /// token and disabled toggles (e.g. `sparse`, `no-bvs,no-async`).
    /// Checkpoints store this so a `resume` needs no `--config` flag.
    pub fn tag(&self) -> String {
        let mut offs = Vec::new();
        if self.backend != DeviceBackend::TcuF64 {
            offs.push(self.backend.token());
        }
        if !self.use_bvs {
            offs.push("no-bvs");
        }
        if !self.use_async_copy {
            offs.push("no-async");
        }
        if !self.allow_fusion {
            offs.push("no-fusion");
        }
        if offs.is_empty() {
            "full".into()
        } else {
            offs.join(",")
        }
    }

    /// Every named ablation configuration: `full`, `no-fusion`, the
    /// `sparse` and `simd` backend variants, and the four cumulative
    /// [`ExecConfig::breakdown_stages`]. This list is the single source
    /// of truth — the bench-suite breakdown, the verification oracle's
    /// executor roster and the counter-exactness validator all consume
    /// it, so the rosters can never diverge.
    pub fn ablation_roster() -> Vec<(&'static str, ExecConfig)> {
        let mut roster = vec![
            ("full", ExecConfig::full()),
            ("no-fusion", ExecConfig { allow_fusion: false, ..ExecConfig::full() }),
            ("sparse", ExecConfig { backend: DeviceBackend::SparseTcu, ..ExecConfig::full() }),
            ("simd", ExecConfig { backend: DeviceBackend::SimdCore, ..ExecConfig::full() }),
        ];
        roster.extend(ExecConfig::breakdown_stages());
        roster
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Warps per simulated thread block (256 threads).
pub const WARPS_PER_BLOCK: u32 = 8;

/// What LoRAStencil does with one z-plane of a 3-D kernel (Algorithm 2).
#[derive(Debug, Clone)]
pub enum PlaneOp {
    /// Plane is entirely zero: skip.
    Skip,
    /// Plane has a single (center) weight: point-wise multiply-accumulate
    /// on CUDA cores.
    Pointwise(f64),
    /// Plane needs 2-D dependency gathering: full LoRAStencil on tensor
    /// cores with this decomposition.
    Rdg(Decomposition),
}

fn classify_plane(w: &WeightMatrix) -> PlaneOp {
    let nz = w.nonzero_points();
    let h = w.radius();
    if nz == 0 {
        PlaneOp::Skip
    } else if nz == 1 && w.get(h, h) != 0.0 {
        PlaneOp::Pointwise(w.get(h, h))
    } else {
        PlaneOp::Rdg(decompose::decompose(w, 1e-12))
    }
}

/// The dimension-specific planning payload of a [`Plan`].
#[derive(Debug, Clone)]
pub enum PlanKind {
    /// 1-D (§IV-C): a single banded matrix multiply gathers the only
    /// dimension, so no decomposition is needed — `seg_len` is the
    /// padded input segment length (multiple of 4, ≥ `8 + 2h`).
    D1 {
        /// Padded input segment length.
        seg_len: usize,
    },
    /// 2-D: low-rank decomposition of the (fused) weight matrix.
    D2 {
        /// Decomposition of the executed kernel's weights.
        decomp: Decomposition,
    },
    /// 3-D (Algorithm 2): one [`PlaneOp`] per z displacement. 3-D
    /// kernels are not fused (§V-B: fragment utilization stays high
    /// without fusion in 3-D).
    D3 {
        /// Per-plane operations, indexed by `dz ∈ 0..2h+1`.
        plane_ops: Vec<PlaneOp>,
    },
}

/// Executable plan for a kernel of any dimension: the kernel actually
/// executed per application (fused if small), the fusion factor, the
/// shared tile geometry, the feature toggles, and the per-dimension
/// payload. Lower it to the execution IR with
/// [`crate::schedule::Schedule::lower`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// The kernel actually executed per application (fused if small).
    pub exec_kernel: StencilKernel,
    /// Temporal steps one application advances (always 1 in 3-D).
    pub fusion: usize,
    /// Tile geometry for the executed kernel's radius (2-D/3-D staging;
    /// 1-D stages `seg_len`-long segments instead).
    pub geo: RdgGeometry,
    /// Feature toggles.
    pub config: ExecConfig,
    /// Tunable schedule parameters (defaults unless constructed through
    /// [`Plan::new_with_params`] / [`Plan::new_tuned`]).
    pub params: ScheduleParams,
    /// Dimension-specific payload.
    pub kind: PlanKind,
}

impl Plan {
    /// Plan a kernel of any supported dimensionality with the default
    /// schedule parameters.
    pub fn new(kernel: &StencilKernel, config: ExecConfig) -> Self {
        Plan::new_with_params(kernel, config, ScheduleParams::default())
    }

    /// Plan a kernel with explicit [`ScheduleParams`] (the `tune` search
    /// and tuning-DB hits come through here). `params.fuse_override`
    /// replaces the cost model's fusion depth when fusion is enabled;
    /// 3-D kernels never fuse, so it is ignored there.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`ScheduleParams::validate`] —
    /// every decoded or enumerated value was validated upstream, so this
    /// only fires on programmer error).
    pub fn new_with_params(
        kernel: &StencilKernel,
        config: ExecConfig,
        params: ScheduleParams,
    ) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid ScheduleParams: {e}");
        }
        let _plan = foundation::obs::span("plan");
        match kernel.dims() {
            1 => {
                let (exec_kernel, fusion) = fuse(kernel, config, params.fuse_override);
                let need = 8 + 2 * exec_kernel.radius;
                let seg_len = need.div_ceil(4) * 4;
                let geo = RdgGeometry::for_radius(exec_kernel.radius);
                Plan { exec_kernel, fusion, geo, config, params, kind: PlanKind::D1 { seg_len } }
            }
            2 => {
                let (exec_kernel, fusion) = fuse(kernel, config, params.fuse_override);
                let decomp = {
                    let _decompose = foundation::obs::span("decompose");
                    decompose::decompose(exec_kernel.weights_2d(), 1e-12)
                };
                let geo = RdgGeometry::for_radius(exec_kernel.radius);
                Plan { exec_kernel, fusion, geo, config, params, kind: PlanKind::D2 { decomp } }
            }
            3 => {
                let planes = kernel.weights_3d();
                let plane_ops = {
                    let _decompose = foundation::obs::span("decompose");
                    planes.iter().map(classify_plane).collect()
                };
                let geo = RdgGeometry::for_radius(kernel.radius);
                Plan {
                    exec_kernel: kernel.clone(),
                    fusion: 1,
                    geo,
                    config,
                    params,
                    kind: PlanKind::D3 { plane_ops },
                }
            }
            d => panic!("no LoRAStencil plan for {d}-D kernels"),
        }
    }

    /// Plan with the process-global tuning DB consulted for
    /// `(kernel, extents, config)`: a hit plans with the tuned
    /// parameters, a miss (or no installed DB) falls back to defaults.
    /// Every executor entry point resolves its plan through this, so
    /// installing a DB transparently retunes the bench suite, the CLI
    /// and the differential oracle alike.
    ///
    /// # Panics
    ///
    /// Panics with the [`crate::tuning::TuningDbError`] message when
    /// `LORASTENCIL_TUNING_DB` names a corrupt file (after the lookup
    /// has released the DB lock, so later lookups still answer). Callers
    /// that must survive one — `serve`, `checkpoint` — look the DB up
    /// themselves first.
    pub fn new_tuned(kernel: &StencilKernel, config: ExecConfig, extents: &[usize]) -> Self {
        match crate::tuning::lookup(kernel, extents, config) {
            Ok(Some(params)) => Plan::new_with_params(kernel, config, params),
            Ok(None) => Plan::new(kernel, config),
            Err(e) => panic!("LORASTENCIL_TUNING_DB: {e}"),
        }
    }

    /// A 2-D plan assembled from explicit parts (ablation sweeps that
    /// pin the fusion factor or try candidate decompositions).
    pub fn custom_2d(
        exec_kernel: StencilKernel,
        fusion: usize,
        decomp: Decomposition,
        config: ExecConfig,
    ) -> Self {
        assert_eq!(exec_kernel.dims(), 2, "custom_2d needs a 2-D kernel");
        let geo = RdgGeometry::for_radius(exec_kernel.radius);
        Plan {
            exec_kernel,
            fusion,
            geo,
            config,
            params: ScheduleParams::default(),
            kind: PlanKind::D2 { decomp },
        }
    }

    /// This 2-D plan with its decomposition swapped (decomposition
    /// ablation).
    pub fn with_decomposition(&self, decomp: Decomposition) -> Self {
        assert_eq!(self.dims(), 2, "decomposition swaps cover 2-D plans");
        Plan { kind: PlanKind::D2 { decomp }, ..self.clone() }
    }

    /// Kernel dimensionality (1, 2 or 3).
    pub fn dims(&self) -> usize {
        self.exec_kernel.dims()
    }

    /// Padded 1-D segment length. Panics unless this is a 1-D plan.
    pub fn seg_len(&self) -> usize {
        match &self.kind {
            PlanKind::D1 { seg_len } => *seg_len,
            _ => panic!("seg_len is a 1-D plan property"),
        }
    }

    /// The 2-D decomposition. Panics unless this is a 2-D plan.
    pub fn decomp(&self) -> &Decomposition {
        match &self.kind {
            PlanKind::D2 { decomp } => decomp,
            _ => panic!("decomp is a 2-D plan property"),
        }
    }

    /// The 3-D per-plane operations. Panics unless this is a 3-D plan.
    pub fn plane_ops(&self) -> &[PlaneOp] {
        match &self.kind {
            PlanKind::D3 { plane_ops } => plane_ops,
            _ => panic!("plane_ops is a 3-D plan property"),
        }
    }

    /// Per-block resources this plan occupies (one input tile per warp;
    /// a second buffer when `cp.async` double-buffering is on). Register
    /// pressure varies with the dimension and the compute path.
    pub fn block_resources(&self) -> BlockResources {
        let buffers = if self.config.use_async_copy || self.params.staging == Staging::Double {
            2
        } else {
            1
        };
        let shared_per_warp = match &self.kind {
            PlanKind::D1 { seg_len } => (8 * seg_len * 8) as u32,
            _ => {
                // the staged window of a tile_rows × tile_cols macro job:
                // S×S for the default 8×8 tile, growing by the extra
                // interior rows/columns beyond the halo for larger jobs
                let wr = self.geo.s + self.params.tile_rows - 8;
                let wc = self.geo.s + self.params.tile_cols - 8;
                (wr * wc * std::mem::size_of::<f64>()) as u32
            }
        };
        let regs_per_thread = match &self.kind {
            PlanKind::D1 { .. } => 48,
            PlanKind::D2 { .. } => {
                if self.config.use_tcu() {
                    64
                } else {
                    48
                }
            }
            PlanKind::D3 { .. } => {
                if self.config.use_tcu() {
                    72
                } else {
                    56
                }
            }
        };
        BlockResources {
            shared_bytes: WARPS_PER_BLOCK * shared_per_warp * buffers,
            threads: WARPS_PER_BLOCK * 32,
            regs_per_thread,
        }
    }
}

/// Shared 1-D/2-D fusion decision (3-D kernels are never fused). A
/// tuned `fuse_override` replaces the cost model's depth, but only when
/// fusion is enabled at all — `no-fusion` configs stay unfused so the
/// ablation semantics are untouched.
fn fuse(
    kernel: &StencilKernel,
    config: ExecConfig,
    fuse_override: Option<usize>,
) -> (StencilKernel, usize) {
    let fusion = if config.allow_fusion {
        fuse_override.unwrap_or_else(|| fusion::fusion_factor(kernel)).max(1)
    } else {
        1
    };
    let exec_kernel = {
        let _fuse = foundation::obs::span("fuse");
        fusion::fuse_kernel(kernel, fusion)
    };
    (exec_kernel, fusion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::Strategy;
    use stencil_core::kernels;

    #[test]
    fn small_2d_kernel_gets_fused() {
        let p = Plan::new(&kernels::box_2d9p(), ExecConfig::full());
        assert_eq!(p.fusion, 3);
        assert_eq!(p.exec_kernel.radius, 3);
        assert_eq!(p.geo.s, 16);
        assert_eq!(p.decomp().strategy, Strategy::Pyramidal);
    }

    #[test]
    fn fused_heat_2d_uses_eigen() {
        // Heat-2D fused 3× is a diamond (zero corners) → eigen fallback.
        let p = Plan::new(&kernels::heat_2d(), ExecConfig::full());
        assert_eq!(p.fusion, 3);
        assert_eq!(p.decomp().strategy, Strategy::Eigen);
    }

    #[test]
    fn fusion_can_be_disabled() {
        let cfg = ExecConfig { allow_fusion: false, ..ExecConfig::full() };
        let p = Plan::new(&kernels::box_2d9p(), cfg);
        assert_eq!(p.fusion, 1);
        assert_eq!(p.exec_kernel.radius, 1);
    }

    #[test]
    fn large_kernel_not_fused() {
        let p = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
        assert_eq!(p.fusion, 1);
        assert_eq!(p.decomp().num_terms(), 3);
    }

    #[test]
    fn heat_3d_plane_classification_matches_algorithm_2() {
        let p = Plan::new(&kernels::heat_3d(), ExecConfig::full());
        assert_eq!(p.plane_ops().len(), 3);
        assert_eq!(p.fusion, 1, "3-D kernels are never fused");
        assert!(matches!(p.plane_ops()[0], PlaneOp::Pointwise(_)));
        assert!(matches!(p.plane_ops()[1], PlaneOp::Rdg(_)));
        assert!(matches!(p.plane_ops()[2], PlaneOp::Pointwise(_)));
    }

    #[test]
    fn box_3d_planes_all_need_rdg() {
        let p = Plan::new(&kernels::box_3d27p(), ExecConfig::full());
        assert!(p.plane_ops().iter().all(|op| matches!(op, PlaneOp::Rdg(_))));
    }

    #[test]
    fn plan1d_segment_length_and_fusion() {
        let p = Plan::new(&kernels::heat_1d(), ExecConfig::full());
        assert_eq!(p.fusion, 3); // radius 1 → 3× temporal fusion
        assert_eq!(p.exec_kernel.radius, 3);
        assert_eq!(p.seg_len(), 16); // 8 + 6, rounded to 16
        let p = Plan::new(&kernels::p5_1d(), ExecConfig::full());
        assert_eq!(p.fusion, 1);
        assert_eq!(p.seg_len(), 12); // 8 + 4
    }

    #[test]
    fn autotuned_plan_never_costs_more() {
        use crate::decompose::{choose, tile_cost};
        for k in kernels::all_kernels() {
            if k.dims() != 2 {
                continue;
            }
            let d = Plan::new(&k, ExecConfig::full());
            let a = d.with_decomposition(choose(d.exec_kernel.weights_2d(), 1e-12));
            assert!(tile_cost(a.decomp(), a.geo) <= tile_cost(d.decomp(), d.geo), "{}", k.name);
        }
    }

    #[test]
    fn config_bits_and_tag_are_injective_over_all_32_configs() {
        let mut seen_bits = std::collections::HashSet::new();
        let mut seen_tags = std::collections::HashSet::new();
        for backend in DeviceBackend::all() {
            for mask in 0u64..8 {
                let cfg = ExecConfig {
                    backend,
                    use_bvs: mask & 1 != 0,
                    use_async_copy: mask & 2 != 0,
                    allow_fusion: mask & 4 != 0,
                };
                // bit 0 keeps the historical use_tcu meaning
                assert_eq!(cfg.bits() & 1, cfg.use_tcu() as u64);
                assert_eq!((cfg.bits() >> 1) & 7, mask, "toggle bits are the mask layout");
                assert!(seen_bits.insert(cfg.bits()), "bits {:#x} collide", cfg.bits());
                assert!(seen_tags.insert(cfg.tag()), "tag {:?} collides", cfg.tag());
            }
        }
        assert_eq!(ExecConfig::full().tag(), "full");
        assert_eq!(
            ExecConfig { use_bvs: false, use_async_copy: false, ..ExecConfig::full() }.tag(),
            "no-bvs,no-async"
        );
        assert_eq!(
            ExecConfig { backend: DeviceBackend::SparseTcu, ..ExecConfig::full() }.tag(),
            "sparse"
        );
        assert_eq!(
            ExecConfig { backend: DeviceBackend::SimdCore, use_bvs: false, ..ExecConfig::full() }
                .tag(),
            "simd,no-bvs"
        );
    }

    #[test]
    fn legacy_toggle_configs_keep_their_pre_backend_bits() {
        // checkpoint fingerprints written before the backend enum used
        // bits 0..4; the 16 legacy configs must keep those exact values
        for mask in 0u64..16 {
            let cfg = ExecConfig {
                backend: if mask & 1 != 0 {
                    DeviceBackend::TcuF64
                } else {
                    DeviceBackend::CudaCore
                },
                use_bvs: mask & 2 != 0,
                use_async_copy: mask & 4 != 0,
                allow_fusion: mask & 8 != 0,
            };
            assert_eq!(cfg.bits(), mask);
        }
    }

    #[test]
    fn breakdown_stages_are_cumulative() {
        let stages = ExecConfig::breakdown_stages();
        assert!(!stages[0].1.use_tcu());
        assert!(stages[1].1.use_tcu() && !stages[1].1.use_bvs);
        assert!(stages[2].1.use_bvs && !stages[2].1.use_async_copy);
        assert_eq!(stages[3].1, ExecConfig::full());
    }

    #[test]
    fn ablation_roster_embeds_the_breakdown_stages_verbatim() {
        // the single-source-of-truth guarantee: the roster IS full +
        // no-fusion + the sparse/simd backend variants +
        // breakdown_stages(), in order, nothing else — any
        // hand-maintained copy elsewhere is a bug
        let roster = ExecConfig::ablation_roster();
        assert_eq!(roster.len(), 4 + ExecConfig::breakdown_stages().len());
        assert_eq!(roster[0], ("full", ExecConfig::full()));
        assert_eq!(
            roster[1],
            ("no-fusion", ExecConfig { allow_fusion: false, ..ExecConfig::full() })
        );
        assert_eq!(
            roster[2],
            ("sparse", ExecConfig { backend: DeviceBackend::SparseTcu, ..ExecConfig::full() })
        );
        assert_eq!(
            roster[3],
            ("simd", ExecConfig { backend: DeviceBackend::SimdCore, ..ExecConfig::full() })
        );
        assert_eq!(&roster[4..], &ExecConfig::breakdown_stages()[..]);
        let mut labels: Vec<_> = roster.iter().map(|(n, _)| *n).collect();
        labels.dedup();
        assert_eq!(labels.len(), roster.len(), "labels must be unique");
    }
}

impl foundation::json::ToJson for ExecConfig {
    fn to_json(&self) -> foundation::json::Json {
        use foundation::json::Json;
        Json::obj([
            ("backend", Json::Str(self.backend.token().into())),
            ("use_tcu", Json::Bool(self.use_tcu())),
            ("use_bvs", Json::Bool(self.use_bvs)),
            ("use_async_copy", Json::Bool(self.use_async_copy)),
            ("allow_fusion", Json::Bool(self.allow_fusion)),
        ])
    }
}
