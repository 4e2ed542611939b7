//! The LoRAStencil executor: the one [`StencilExecutor`] front door for
//! 1-D, 2-D and 3-D problems. Everything dimension-specific lives in the
//! lowering rules of [`crate::schedule`]; this type only converts the
//! grid to planes and back around [`schedule::try_run`], so a corrupt
//! tuning DB comes back as [`ExecError::Setup`].

use crate::checkpoint::{grid_extents, grid_to_planes, planes_to_grid};
use crate::plan::ExecConfig;
use crate::schedule;
use stencil_core::{ExecError, ExecOutcome, Problem, StencilExecutor};

/// The LoRAStencil executor (any dimensionality).
#[derive(Debug, Clone, Default)]
pub struct LoRaStencil {
    /// Feature toggles (ablation support).
    pub config: ExecConfig,
}

impl LoRaStencil {
    /// Full configuration (TCU + BVS + async copy + fusion).
    pub fn new() -> Self {
        LoRaStencil { config: ExecConfig::full() }
    }

    /// Custom configuration (ablation).
    pub fn with_config(config: ExecConfig) -> Self {
        LoRaStencil { config }
    }
}

impl StencilExecutor for LoRaStencil {
    fn name(&self) -> &'static str {
        "LoRAStencil"
    }

    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
        let (kernel_dims, grid_dims) = (problem.kernel.dims(), problem.input.dims());
        if kernel_dims != grid_dims {
            return Err(ExecError::Invalid(format!(
                "a {kernel_dims}-D kernel cannot run on a {grid_dims}-D grid"
            )));
        }
        let (planes, counters, block) = schedule::try_run(
            &problem.kernel,
            self.config,
            grid_to_planes(&problem.input),
            problem.iterations,
        )
        .map_err(|e| ExecError::Setup(format!("LORASTENCIL_TUNING_DB: {e}")))?;
        let output = planes_to_grid(&planes, &grid_extents(&problem.input));
        Ok(ExecOutcome { output, counters, block })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, max_error_vs_reference, Grid1D, Grid2D, Grid3D};

    #[test]
    fn dispatcher_handles_every_benchmark_kernel() {
        let exec = LoRaStencil::new();
        for k in kernels::all_kernels() {
            let p = match k.dims() {
                1 => Problem::new(k.clone(), Grid1D::from_fn(128, |i| (i % 9) as f64), 1),
                2 => Problem::new(k.clone(), Grid2D::from_fn(24, 24, |r, c| (r + 2 * c) as f64), 1),
                _ => Problem::new(
                    k.clone(),
                    Grid3D::from_fn(4, 8, 8, |z, y, x| (z + y + x) as f64),
                    1,
                ),
            };
            let err = max_error_vs_reference(&exec, &p).unwrap();
            assert!(err < 1e-11, "{}: err = {err}", k.name);
        }
    }
}
