//! The run workloads: one kernel on one large grid, stepped through
//! `schedule::run` (or `checkpoint::run`), the entry points the CLI's
//! `run` uses.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use lorastencil::{Plan, Workspace};
use stencil_core::checkpoint::CheckpointStore;
use stencil_core::StencilKernel;
use tcu_sim::CostModel;

use crate::gen::{self, Shape};
use crate::ledger::{self, config, elapsed_ns, Ckpt, LedgerJob};
use crate::report::Report;
use crate::servewl::{self, LoopStats, ServeSet};
use crate::stats::{median_u64, quiet_calls};

/// Windows of run calls for [`quiet_calls`].
const WINDOW_NS: u64 = 1_000_000_000;

/// One run workload.
pub struct RunSpec {
    pub kernel: &'static str,
    pub extents: Vec<usize>,
    /// Steps per `run` call.
    pub steps: usize,
    /// Snapshot cadence in steps (`checkpoint::run` when set).
    pub ckpt_every: Option<u64>,
}

/// `run-2d`: the paper's headline shape on a 1024² grid.
pub fn run_2d() -> RunSpec {
    RunSpec { kernel: "Box-2D49P", extents: vec![1024, 1024], steps: 4, ckpt_every: None }
}

/// `run-3d-ckpt`: Heat-3D on 32×128×128, a 4 MiB snapshot every 10 steps.
/// At every 5 steps its median call spread by 30% between runs of the
/// same code on a shared 2-vCPU host, whose fsync latency follows the
/// neighbours' disk load.
pub fn run_3d_ckpt() -> RunSpec {
    RunSpec { kernel: "Heat-3D", extents: vec![32, 128, 128], steps: 10, ckpt_every: Some(10) }
}

fn kernel(spec: &RunSpec) -> Result<StencilKernel, String> {
    stencil_core::kernels::by_name(spec.kernel)
        .ok_or_else(|| format!("unknown kernel {}", spec.kernel))
}

fn store(spec: &RunSpec, scratch: &Path) -> Result<Option<CheckpointStore>, String> {
    spec.ckpt_every
        .map(|_| CheckpointStore::new(scratch.join("store"), 2).map_err(|e| format!("store: {e}")))
        .transpose()
}

/// One set-up: the time until the first step can run — grid fill,
/// plan, lowering and workspace (and the snapshot store).
fn setup_ns(spec: &RunSpec, k: &StencilKernel, seed: u64, scratch: &Path) -> Result<u64, String> {
    let t = Instant::now();
    let input = gen::grid(&spec.extents, seed);
    let plan = Plan::new_tuned(k, config(), &spec.extents);
    let ws = Workspace::new(&plan, &spec.extents);
    let st = store(spec, scratch)?;
    let ns = elapsed_ns(t);
    black_box((input, ws, st));
    Ok(ns)
}

/// The workload's job, its reference output computed here (untimed).
fn run_job<'a>(
    spec: &RunSpec,
    seed: u64,
    st: Option<&'a CheckpointStore>,
) -> Result<LedgerJob<'a>, String> {
    let mut job =
        LedgerJob::new(kernel(spec)?, &spec.extents, spec.steps, gen::grid(&spec.extents, seed));
    job.ckpt = st.zip(spec.ckpt_every).map(|(store, every)| Ckpt { store, every });
    Ok(job)
}

/// The `run-*` end-to-end measurement: repeated untraced entry calls
/// until `seconds` of call time, each output checked against the
/// reference. A set-up precedes every call, so `setup_s` is a median
/// over the whole run, not over its first moments. The loop statistics
/// come from the calls of the quieter three quarters of the run's
/// one-second windows ([`quiet_calls`]).
pub fn measure(spec: &RunSpec, seed: u64, seconds: f64, scratch: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let st = store(spec, scratch)?;
    let job = run_job(spec, seed, st.as_ref())?;
    let warm = ledger::entry(&job)?;
    report.check(warm.ok);
    let want = warm.counters.fields();
    let (mut calls, mut setups) = (Vec::new(), Vec::new());
    let mut total = 0u64;
    let t0 = Instant::now();
    while (total as f64) < seconds * 1e9 {
        setups.push(setup_ns(spec, &job.kernel, seed, scratch)?);
        let start = elapsed_ns(t0);
        let e = ledger::entry(&job)?;
        report.check(e.ok && e.counters.fields() == want);
        total += e.ns;
        calls.push((start, e.ns));
    }
    report.metric("setup_s", median_u64(&setups) / 1e9, "s");
    let est = CostModel::a100().estimate(&warm.counters, &warm.block);
    report.metric(
        "modeled_gstencil_per_s",
        est.gstencil_per_sec(warm.counters.points_updated),
        "GStencil/s",
    );
    // a job here is one run call, so the rates come from the median
    // call: a burst of host noise in one call does not move them
    let lat = quiet_calls(&calls, WINDOW_NS);
    report.note(format!(
        "{} of {} run calls kept: those of the quieter three quarters of one-second windows",
        lat.len(),
        calls.len()
    ));
    let call_ns = median_u64(&lat);
    let points = warm.counters.points_updated as f64;
    let stats = LoopStats::new(lat, 1e9 / call_ns, points * 1e3 / call_ns);
    servewl::loop_metrics(&mut report, &[stats], "run calls");
    report.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
    report.note(format!(
        "{} {:?}, {} steps per call{}; jobs_per_s, latency_p50_us and host_mpoints_per_s are \
         the median kept run call at three scales",
        spec.kernel,
        spec.extents,
        spec.steps,
        spec.ckpt_every.map_or(String::new(), |e| format!(", fsync'd snapshot every {e} steps"))
    ));
    Ok(report)
}

/// The serve probe of a run workload: its own job as one serve frame.
fn probe_set(spec: &RunSpec, seed: u64) -> Result<ServeSet, String> {
    let shapes = vec![Shape { kernel: spec.kernel, size: spec.extents.clone(), iters: spec.steps }];
    let jobs = gen::jobs(&shapes, seed, 1);
    ServeSet::new(shapes, jobs)
}

/// The `run-*` traced run: the executor ledger for `seconds`, a
/// checkpoint probe on the workload's state, and the workload's job
/// sent through one serve client.
pub fn trace(spec: &RunSpec, seed: u64, seconds: f64, scratch: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let st = store(spec, scratch)?;
    let job = run_job(spec, seed, st.as_ref())?;
    let led = ledger::run(std::slice::from_ref(&job), Duration::from_secs_f64(seconds))?;
    report.absorb(led.attempted, led.failed);
    led.exact_metrics(&mut report);
    led.timed_metrics(&mut report);
    report.metric("trace.overhead_pct", led.overhead_pct(), "%");
    ledger::ckpt_probe(&job, scratch, &mut report)?;

    let set = probe_set(spec, seed)?;
    let (core, _, warm) = servewl::setup(&set, 1);
    report.absorb(warm.attempted, warm.failed);
    let probe_loop = Duration::from_secs_f64(seconds / 20.0);
    servewl::layer_metrics(&core, &set, seed, 1, probe_loop, &warm, &mut report)?;
    report.note("serve.* drive this workload's job as one serve frame through one client");
    Ok(report)
}
