//! # LoRAStencil — low-rank adaptation of stencil computation on tensor cores
//!
//! A from-scratch Rust reproduction of *LoRAStencil: Low-Rank Adaptation
//! of Stencil Computation on Tensor Cores* (SC 2024), running on the
//! simulated A100 FP64 tensor-core substrate of [`tcu_sim`].
//!
//! The paper's three techniques map to these modules:
//!
//! * [`rdg`] — **Residual Dimension Gathering** (§III-B): the Matrix Chain
//!   Multiplication `U · X · V` on tensor-core fragments that gathers
//!   dependencies along *both* dimensions without redundant loads,
//!   eliminating the *dimension residue* of earlier tensorized stencils.
//! * [`mod@decompose`] — **Pyramidal Matrix Adaptation** (§III-C): peeling a
//!   radially symmetric weight matrix into rank-1 matrices of decreasing
//!   size (plus star/eigen/SVD strategies generalizing the paper's method
//!   to every kernel in the benchmark suite).
//! * [`bvs`] — **Butterfly Vector Swapping** (§III-D): the permutation
//!   identity that turns accumulator fragments into left operands with
//!   zero inter-thread shuffles.
//!
//! Supporting modules: [`fusion`] (temporal kernel fusion, §IV-A),
//! [`plan`] (the dimension-generic fusion/decomposition/geometry plan and
//! ablation toggles), [`schedule`] (the execution IR one plan lowers to,
//! the per-dimension lowering rules of §IV-C / Algorithm 2, its backend
//! seam, the generic interpreter/stepper and the session time loop),
//! [`exec`] (the one public executor, [`LoRaStencil`], for every
//! dimension), [`checkpoint`] (snapshotted runs and the grid ↔ plane
//! conversion) and [`analysis`] (the closed-form Eq. 12–16 models).
//!
//! ## Quickstart
//!
//! ```
//! use lorastencil::LoRaStencil;
//! use stencil_core::{kernels, Grid2D, Problem, StencilExecutor};
//!
//! let kernel = kernels::box_2d9p();
//! let grid = Grid2D::from_fn(64, 64, |r, c| ((r * 31 + c * 17) % 11) as f64);
//! let problem = Problem::new(kernel, grid, 3);
//!
//! let outcome = LoRaStencil::new().execute(&problem).unwrap();
//! assert!(outcome.counters.mma_ops > 0);          // ran on tensor cores
//! assert_eq!(outcome.counters.shuffle_ops, 0);    // BVS: shuffle-free
//! ```

// Explicit index loops mirror the matrix/grid math throughout this
// crate and keep row/column roles visible; iterator forms obscure them.
#![allow(clippy::needless_range_loop)]

pub mod analysis;
pub mod bvs;
pub mod checkpoint;
pub mod codegen;
pub mod decompose;
pub mod exec;
pub mod fusion;
pub mod plan;
pub mod rdg;
pub mod schedule;
pub mod tuning;

pub use decompose::{decompose, Decomposition, RankOneTerm, Strategy};
pub use exec::LoRaStencil;
pub use plan::{DeviceBackend, ExecConfig, Plan, PlanKind, PlaneOp};
pub use rdg::{RdgGeometry, XFragments, TILE_M};
pub use schedule::{ExecSession, Schedule, ScheduleParams, Staging, Stepper, Workspace};
pub use tuning::{TuningDb, TuningDbError, TuningEntry};
