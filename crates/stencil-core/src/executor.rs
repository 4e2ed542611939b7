//! The executor interface every stencil implementation in this workspace
//! (LoRAStencil and all baselines) exposes, plus verification helpers.

use crate::grid::GridData;
use crate::kernel::StencilKernel;
use crate::reference;
use tcu_sim::{BlockResources, PerfCounters};

/// A fully-specified stencil problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The stencil kernel to apply.
    pub kernel: StencilKernel,
    /// Input grid (dimensionality must match the kernel).
    pub input: GridData,
    /// Number of temporal iterations.
    pub iterations: usize,
}

impl Problem {
    /// Convenience constructor.
    pub fn new(kernel: StencilKernel, input: impl Into<GridData>, iterations: usize) -> Self {
        Problem { kernel, input: input.into(), iterations }
    }

    /// Total stencil-point updates this problem performs (`T × Π N_i`,
    /// the numerator of Eq. 18).
    pub fn total_updates(&self) -> u64 {
        self.input.len() as u64 * self.iterations as u64
    }
}

/// Result of executing a problem on a simulated implementation.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The computed output grid.
    pub output: GridData,
    /// Counters accumulated during execution.
    pub counters: PerfCounters,
    /// Per-block resource footprint (for the occupancy model).
    pub block: BlockResources,
}

/// Why an executor declined a problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// This executor does not implement the kernel's dimensionality or
    /// shape.
    Unsupported(String),
    /// The problem is malformed (e.g. kernel/grid dimensionality clash).
    Invalid(String),
    /// The executor's own setup failed (e.g. its installed tuning DB is
    /// corrupt); the message names the cause.
    Setup(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Unsupported(s) => write!(f, "unsupported: {s}"),
            ExecError::Invalid(s) => write!(f, "invalid: {s}"),
            ExecError::Setup(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A stencil implementation running on the simulated device.
pub trait StencilExecutor {
    /// Implementation name as it appears in the paper's figures.
    fn name(&self) -> &'static str;

    /// Execute the problem, returning the output grid and the counters
    /// the run charged.
    fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError>;
}

/// Execute `exec` on `problem` and return the maximum absolute deviation
/// from the naive reference executor.
pub fn max_error_vs_reference(
    exec: &dyn StencilExecutor,
    problem: &Problem,
) -> Result<f64, ExecError> {
    let outcome = exec.execute(problem)?;
    let want = reference::run(&problem.input, &problem.kernel, problem.iterations);
    Ok(outcome.output.max_abs_diff(&want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2D;
    use crate::kernels;

    /// Toy executor that just calls the reference (used to exercise the
    /// trait plumbing).
    struct RefExec;

    impl StencilExecutor for RefExec {
        fn name(&self) -> &'static str {
            "reference"
        }

        fn execute(&self, problem: &Problem) -> Result<ExecOutcome, ExecError> {
            let output = reference::run(&problem.input, &problem.kernel, problem.iterations);
            let mut counters = PerfCounters::new();
            counters.points_updated = problem.total_updates();
            Ok(ExecOutcome {
                output,
                counters,
                block: BlockResources { shared_bytes: 0, threads: 256, regs_per_thread: 32 },
            })
        }
    }

    #[test]
    fn reference_executor_has_zero_error() {
        let p = Problem::new(kernels::box_2d9p(), Grid2D::from_fn(8, 8, |r, c| (r + c) as f64), 2);
        assert_eq!(max_error_vs_reference(&RefExec, &p).unwrap(), 0.0);
        assert_eq!(p.total_updates(), 128);
    }

    #[test]
    fn exec_error_displays() {
        let e = ExecError::Unsupported("3-D".into());
        assert_eq!(e.to_string(), "unsupported: 3-D");
    }
}
