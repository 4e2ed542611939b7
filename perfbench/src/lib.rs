//! End-to-end benchmark of the LoRAStencil reproduction.
//!
//! Four workloads drive the program from outside, through the public
//! entry points the CLI and the serve daemon use
//! (`lorastencil::schedule::run`, `lorastencil::checkpoint::run`,
//! `stencil_cli::serve::ServerCore::handle_line`). An untraced run
//! (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints per-layer metrics timed around calls into each
//! layer's public functions. Every output is checked against an
//! independent result computed before timing starts.

use foundation::alloc_counter::CountingAllocator;

// counts heap allocations for stepper.allocs_per_step and
// serve.allocs_per_hit
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

pub mod gen;
pub mod host;
pub mod ledger;
pub mod report;
pub mod runwl;
pub mod servewl;
pub mod stats;

use report::Report;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["run-2d", "run-3d-ckpt", "serve-hot", "serve-churn"];

/// Metrics of an untraced run, in report order.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "host_mpoints_per_s",
    "modeled_gstencil_per_s",
    "jobs_per_s",
    "latency_p50_us",
    "latency_p99_us",
    "peak_rss_mb",
];

/// Metrics of a traced run, in report order.
pub const PER_LAYER: [&str; 37] = [
    "tcu-sim.mma_per_point",
    "tcu-sim.shared_ld_req_per_point",
    "tcu-sim.hbm_bytes_per_point",
    "tcu-sim.l2_bytes_per_point",
    "tcu-sim.shuffles_per_point",
    "tcu-sim.t_tensor_us",
    "tcu-sim.t_shared_us",
    "tcu-sim.t_hbm_us",
    "tcu-sim.host_ns_per_mma",
    "plan.new_us",
    "schedule.lower_us",
    "workspace.new_us",
    "schedule.ops_per_tile",
    "stepper.apply_ms_p50",
    "stepper.apply_ms_p90",
    "stepper.allocs_per_step",
    "par.spawns_per_step",
    "run.self_ms",
    "checkpoint.encode_ms",
    "checkpoint.save_ms_p50",
    "checkpoint.recover_ms",
    "checkpoint.bytes_per_snapshot",
    "serve.proto.parse_ns_p50",
    "serve.checkout_us_p50",
    "serve.fill_us_p50",
    "serve.exec_us_p50",
    "serve.digest_us_p50",
    "serve.self_us_p50",
    "serve.allocs_per_hit",
    "serve.modeled_gstencil_per_s",
    "serve.unfit_plan_share",
    "serve.cache.hit_ratio",
    "serve.cache.evictions",
    "serve.cache.coalesced",
    "serve.plan_us_p50",
    "tune.on_miss_ms_p50",
    "trace.overhead_pct",
];

/// Per-layer metrics that are counts, not times: they must repeat bit
/// for bit across seeds and `FOUNDATION_THREADS` settings.
pub const EXACT: [&str; 13] = [
    "tcu-sim.mma_per_point",
    "tcu-sim.shared_ld_req_per_point",
    "tcu-sim.hbm_bytes_per_point",
    "tcu-sim.l2_bytes_per_point",
    "tcu-sim.shuffles_per_point",
    "tcu-sim.t_tensor_us",
    "tcu-sim.t_shared_us",
    "tcu-sim.t_hbm_us",
    "schedule.ops_per_tile",
    "stepper.allocs_per_step",
    "par.spawns_per_step",
    "checkpoint.bytes_per_snapshot",
    "serve.allocs_per_hit",
];

/// One benchmark invocation.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

enum Kind {
    Run(runwl::RunSpec),
    Serve(servewl::ServeSpec),
}

fn kind(workload: &str) -> Result<Kind, String> {
    Ok(match workload {
        "run-2d" => Kind::Run(runwl::run_2d()),
        "run-3d-ckpt" => Kind::Run(runwl::run_3d_ckpt()),
        "serve-hot" => Kind::Serve(servewl::hot()),
        "serve-churn" => Kind::Serve(servewl::churn()),
        other => {
            return Err(format!("unknown workload {other:?} (one of {})", WORKLOADS.join(", ")))
        }
    })
}

/// Run one workload in this process and return its report.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let kind = kind(&opts.workload)?;
    let scratch = host::ScratchDir::new(&opts.workload).map_err(|e| format!("scratch dir: {e}"))?;
    let dir = scratch.path();
    let (steal0, total0) = host::cpu_ticks();
    let mut report = match (kind, opts.trace) {
        (Kind::Run(s), false) => runwl::measure(&s, opts.seed, opts.seconds, dir),
        (Kind::Run(s), true) => runwl::trace(&s, opts.seed, opts.seconds, dir),
        (Kind::Serve(s), false) => servewl::measure(&s, opts.seed, opts.seconds),
        (Kind::Serve(s), true) => servewl::trace(&s, opts.seed, opts.seconds, dir),
    }?;
    let (steal1, total1) = host::cpu_ticks();
    // a noisy neighbour shows here: read the figures of a run with a high
    // steal share as the host's, not the program's
    report.note(format!(
        "host steal {:.2}% of CPU time during the run",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::json::Json;

    fn names(bench: &Json, key: &str) -> Vec<String> {
        let list = bench.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("no {key}"));
        list.iter().map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string()).collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&bench, "end_to_end"), END_TO_END);
        assert_eq!(names(&bench, "per_layer"), PER_LAYER);
        assert_eq!(names(&bench, "workloads"), WORKLOADS);
        assert!(EXACT.iter().all(|e| PER_LAYER.contains(e)), "exact metrics are per-layer");
    }
}
