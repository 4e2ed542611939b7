//! Per-layer attribution of the executor layers, timed from outside.
//!
//! A traced entry call is the real `schedule::run` / `checkpoint::run`
//! call with the program's own `foundation::obs` spans switched on. Its
//! duration minus the spans of the calls it makes (`plan`, `apply`,
//! `ckpt_serialize`, `ckpt_fsync`) is the entry point's self time, and its
//! duration over an untraced call of the same job is the tracing
//! overhead. The stepper layer is timed around the public `Stepper::step`,
//! and lowering and workspace construction around their public calls.
//! Nothing inside the program is instrumented.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use foundation::alloc_counter::allocation_count;
use foundation::obs;
use foundation::par::threads_spawned;
use lorastencil::checkpoint::{grid_to_planes, CkptPolicy};
use lorastencil::schedule::Stepper;
use lorastencil::{schedule, ExecConfig, Plan, Schedule, Workspace};
use stencil_core::checkpoint::{CheckpointStore, Snapshot};
use stencil_core::{GridData, StencilKernel};
use tcu_sim::{BlockResources, CostModel, PerfCounters};

use crate::report::Report;
use crate::stats::{median, median_u64, percentile};

/// Largest accepted |output − reference| for a run workload.
pub const TOLERANCE: f64 = 1e-9;

/// The program's spans of the calls an entry point makes: its self time
/// is its duration minus these.
const CHILD_SPANS: [&str; 4] = ["plan", "apply", "ckpt_serialize", "ckpt_fsync"];

/// The configuration every workload runs: the default `TcuF64` backend
/// with every paper toggle on.
pub fn config() -> ExecConfig {
    ExecConfig::full()
}

pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Snapshot cadence of a checkpointed job.
pub struct Ckpt<'a> {
    pub store: &'a CheckpointStore,
    pub every: u64,
}

/// One job of the ledger: a kernel stepped `steps` times over `input`.
pub struct LedgerJob<'a> {
    pub kernel: StencilKernel,
    pub extents: Vec<usize>,
    pub steps: usize,
    pub input: GridData,
    /// `stencil_core::reference` output; every entry call is checked
    /// against it.
    pub reference: GridData,
    /// Snapshot through `checkpoint::run` instead of `schedule::run`.
    pub ckpt: Option<Ckpt<'a>>,
}

impl LedgerJob<'_> {
    /// A job with its reference output computed here (untimed).
    pub fn new(kernel: StencilKernel, extents: &[usize], steps: usize, input: GridData) -> Self {
        let reference = stencil_core::reference::run(&input, &kernel, steps);
        LedgerJob { kernel, extents: extents.to_vec(), steps, input, reference, ckpt: None }
    }
}

/// One entry-point call.
pub struct Entry {
    pub ns: u64,
    pub ok: bool,
    pub counters: PerfCounters,
    pub block: BlockResources,
}

fn matches(got: &[f64], want: &GridData) -> bool {
    got.len() == want.len()
        && got.iter().zip(want.as_slice()).all(|(g, w)| (g - w).abs() <= TOLERANCE)
}

/// Call the job's entry point — `schedule::run`, or `checkpoint::run`
/// for a checkpointed job — and check its output (untimed).
pub fn entry(job: &LedgerJob) -> Result<Entry, String> {
    let cfg = config();
    match &job.ckpt {
        None => {
            let planes = grid_to_planes(&job.input);
            let t = Instant::now();
            let (out, counters, block) = schedule::run(&job.kernel, cfg, planes, job.steps);
            let ns = elapsed_ns(t);
            let got: Vec<f64> = out.iter().flat_map(|p| p.as_slice()).copied().collect();
            Ok(Entry { ns, ok: matches(&got, &job.reference), counters, block })
        }
        Some(ck) => {
            let policy =
                CkptPolicy { store: ck.store, every: ck.every, seed: 0, method: "LoRAStencil" };
            let t = Instant::now();
            let outcome = lorastencil::checkpoint::run(
                &job.kernel,
                cfg,
                &job.input,
                job.steps as u64,
                &policy,
            )
            .map_err(|e| format!("checkpoint::run: {e}"))?;
            let ns = elapsed_ns(t);
            let ok = matches(outcome.output.as_slice(), &job.reference);
            Ok(Entry { ns, ok, counters: outcome.counters, block: outcome.block })
        }
    }
}

/// The job's entry call with the program's spans recording. Returns the
/// call and the summed duration of its child spans.
fn traced_entry(job: &LedgerJob) -> Result<(Entry, u64), String> {
    obs::reset();
    obs::enable();
    let e = entry(job);
    obs::disable();
    let children = CHILD_SPANS.iter().map(|s| obs::histogram(s).sum_ns()).sum();
    Ok((e?, children))
}

/// Samples gathered over the ledger's passes.
#[derive(Default)]
pub struct Ledger {
    /// Mean `plan` span per traced entry call.
    plan_ns: Vec<f64>,
    lower_ns: Vec<u64>,
    ws_ns: Vec<u64>,
    /// Per `Stepper::step`.
    step_ns: Vec<u64>,
    step_mma: u64,
    /// Steps after a stepper's first (its first sizes buffers).
    steady_steps: u64,
    steady_allocs: u64,
    steady_spawns: u64,
    /// Per traced entry call: its self time, ns.
    self_ns: Vec<f64>,
    /// Per pass: traced over untraced entry call, − 1, in %.
    overhead: Vec<f64>,
    ops_per_tile: Vec<usize>,
    /// Each job's first entry call: its counters and block (modeled layer).
    modeled: Vec<(PerfCounters, BlockResources)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Run the ledger: an untraced and a traced warm-up call per job, then
/// passes over every job until `budget` has passed (at least one pass).
/// A pass times an untraced entry call, a traced one, lowering,
/// workspace construction and a stepper over the job's applications.
pub fn run(jobs: &[LedgerJob], budget: Duration) -> Result<Ledger, String> {
    let mut led = Ledger::default();
    for job in jobs {
        let e = entry(job)?;
        led.tally(e.ok);
        led.modeled.push((e.counters, e.block));
        // the first traced call sizes each thread's span ring
        let (e, _) = traced_entry(job)?;
        led.tally(e.ok);
    }
    let t0 = Instant::now();
    let mut first = true;
    while first || t0.elapsed() < budget {
        for job in jobs {
            let plain = entry(job)?;
            led.tally(plain.ok);
            let (traced, children) = traced_entry(job)?;
            led.tally(traced.ok);
            let plan = obs::histogram("plan");
            led.plan_ns.push(plan.sum_ns() as f64 / plan.count().max(1) as f64);
            led.self_ns.push(traced.ns as f64 - children as f64);
            led.overhead.push((traced.ns as f64 / plain.ns as f64 - 1.0) * 100.0);
            led.setup_pieces(job, first);
            led.stepper(job);
        }
        first = false;
    }
    Ok(led)
}

impl Ledger {
    fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Time `Schedule::lower` and `Workspace::new` on the job's plan.
    fn setup_pieces(&mut self, job: &LedgerJob, first: bool) {
        let plan = Plan::new_tuned(&job.kernel, config(), &job.extents);
        let t = Instant::now();
        black_box(Schedule::lower(&plan));
        self.lower_ns.push(elapsed_ns(t));
        let t = Instant::now();
        let ws = Workspace::new(&plan, &job.extents);
        self.ws_ns.push(elapsed_ns(t));
        if first {
            self.ops_per_tile.push(ws.schedule().ops.len());
        }
    }

    /// Step a fresh `Stepper` over the job's input for the job's fused
    /// applications (at least two), timing each `Stepper::step` and
    /// counting the heap allocations and thread spawns of every step
    /// after the first.
    fn stepper(&mut self, job: &LedgerJob) {
        let plan = Plan::new_tuned(&job.kernel, config(), &job.extents);
        let apps = (job.steps / plan.fusion).max(2);
        let mut stepper = Stepper::new(plan, grid_to_planes(&job.input));
        for app in 0..apps {
            let (a0, s0) = (allocation_count(), threads_spawned());
            let t = Instant::now();
            let c = stepper.step();
            let ns = elapsed_ns(t);
            let (a1, s1) = (allocation_count(), threads_spawned());
            self.step_ns.push(ns);
            self.step_mma += c.mma_ops;
            if app > 0 {
                self.steady_steps += 1;
                self.steady_allocs += a1 - a0;
                self.steady_spawns += s1 - s0;
            }
        }
        black_box(stepper.planes());
    }

    /// The exact metrics: modeled tcu-sim counts and times of one entry
    /// call per job, IR ops per tile, allocations and spawns per
    /// steady-state step.
    pub fn exact_metrics(&self, report: &mut Report) {
        let mut sum = PerfCounters::new();
        let (mut t_tensor, mut t_shared, mut t_hbm) = (0.0, 0.0, 0.0);
        let model = CostModel::a100();
        for (c, block) in &self.modeled {
            sum.merge(c);
            let est = model.estimate(c, block);
            t_tensor += est.t_tensor;
            t_shared += est.t_shared;
            t_hbm += est.t_hbm;
        }
        let pts = sum.points_updated.max(1) as f64;
        report.metric("tcu-sim.mma_per_point", sum.mma_ops as f64 / pts, "count/point");
        report.metric(
            "tcu-sim.shared_ld_req_per_point",
            sum.shared_load_requests as f64 / pts,
            "count/point",
        );
        report.metric("tcu-sim.hbm_bytes_per_point", sum.global_bytes() as f64 / pts, "B/point");
        report.metric("tcu-sim.l2_bytes_per_point", sum.l2_bytes as f64 / pts, "B/point");
        report.metric("tcu-sim.shuffles_per_point", sum.shuffle_ops as f64 / pts, "count/point");
        report.metric("tcu-sim.t_tensor_us", t_tensor * 1e6, "us");
        report.metric("tcu-sim.t_shared_us", t_shared * 1e6, "us");
        report.metric("tcu-sim.t_hbm_us", t_hbm * 1e6, "us");
        let ops: usize = self.ops_per_tile.iter().sum();
        report.metric(
            "schedule.ops_per_tile",
            ops as f64 / self.ops_per_tile.len().max(1) as f64,
            "count",
        );
        let steady = self.steady_steps.max(1) as f64;
        report.metric("stepper.allocs_per_step", self.steady_allocs as f64 / steady, "count");
        report.metric("par.spawns_per_step", self.steady_spawns as f64 / steady, "count");
    }

    /// The timed metrics of the plan, schedule, stepper and run-loop
    /// layers, as self times.
    pub fn timed_metrics(&self, report: &mut Report) {
        report.metric("plan.new_us", median(&self.plan_ns) / 1e3, "us");
        report.metric("schedule.lower_us", median_u64(&self.lower_ns) / 1e3, "us");
        // lowering included: on the serve shapes the rest is within noise
        report.metric("workspace.new_us", median_u64(&self.ws_ns) / 1e3, "us");
        let mut steps = self.step_ns.clone();
        steps.sort_unstable();
        report.metric("stepper.apply_ms_p50", percentile(&steps, 50.0) as f64 / 1e6, "ms");
        report.metric("stepper.apply_ms_p90", percentile(&steps, 90.0) as f64 / 1e6, "ms");
        report.metric(
            "tcu-sim.host_ns_per_mma",
            steps.iter().sum::<u64>() as f64 / self.step_mma.max(1) as f64,
            "ns",
        );
        report.metric("run.self_ms", median(&self.self_ns) / 1e6, "ms");
        report.note(format!(
            "ledger: {} traced entry calls, {} stepper steps; run.self_ms = traced entry call \
             minus its plan, apply and ckpt spans; entry calls with spans on run {:.2}% over \
             untraced ones",
            self.self_ns.len(),
            self.step_ns.len(),
            self.overhead_pct()
        ));
    }

    /// Median tracing overhead of a traced entry call over the untraced
    /// call of the same pass, %.
    pub fn overhead_pct(&self) -> f64 {
        median(&self.overhead)
    }
}

/// Run `job` once through `checkpoint::run` into a fresh store under
/// `dir`, snapshotting its final state, then time recovering that
/// snapshot (`load_latest_valid`) and saving it again
/// (`CheckpointStore::save`, with the program's spans recording:
/// `ckpt_serialize` is the encoding, `ckpt_fsync` the write, fsync and
/// rename).
pub fn ckpt_probe(job: &LedgerJob, dir: &Path, report: &mut Report) -> Result<(), String> {
    let store = CheckpointStore::new(dir.join("probe"), 2).map_err(|e| format!("store: {e}"))?;
    let steps = job.steps as u64;
    let policy = CkptPolicy { store: &store, every: steps, seed: 0, method: "LoRAStencil" };
    let out = lorastencil::checkpoint::run(&job.kernel, config(), &job.input, steps, &policy)
        .map_err(|e| format!("checkpoint::run: {e}"))?;
    report.check(matches(out.output.as_slice(), &job.reference) && out.snapshots_written > 0);

    let mut recover = Vec::new();
    let mut snap = None;
    for _ in 0..3 {
        let t = Instant::now();
        let (s, _) = store.load_latest_valid().map_err(|e| format!("recover: {e:?}"))?;
        recover.push(elapsed_ns(t));
        let data: Vec<f64> = s.planes.iter().flat_map(|p| p.data.iter().copied()).collect();
        report.check(s.step == steps && data == out.output.as_slice());
        snap = Some(s);
    }
    let snap = snap.expect("three recoveries");
    report.metric("checkpoint.bytes_per_snapshot", snap.encode().len() as f64, "B");

    let resaves: Vec<Snapshot> =
        (1..=5).map(|k| Snapshot { step: steps + k, ..snap.clone() }).collect();
    obs::reset();
    obs::enable();
    let saved: Result<Vec<_>, _> = resaves.iter().map(|s| store.save(s)).collect();
    obs::disable();
    saved.map_err(|e| format!("snapshot save: {e}"))?;
    let events = obs::drain().events;
    let span_ns = |name: &str| -> Vec<u64> {
        let mut v: Vec<u64> = events.iter().filter(|e| e.name == name).map(|e| e.dur_ns).collect();
        v.sort_unstable();
        v
    };
    report.metric("checkpoint.encode_ms", median_u64(&span_ns("ckpt_serialize")) / 1e6, "ms");
    report.metric(
        "checkpoint.save_ms_p50",
        percentile(&span_ns("ckpt_fsync"), 50.0) as f64 / 1e6,
        "ms",
    );
    report.metric("checkpoint.recover_ms", median_u64(&recover) / 1e6, "ms");
    Ok(())
}
