//! Determinism golden test for `foundation::obs`: the chrome-trace
//! export and the phase-breakdown table attribute work identically at
//! any worker-pool width. Per-tile spans are recorded on whichever lane
//! runs the tile, but every tile records the same spans regardless of
//! scheduling — so event counts per phase, breakdown counts, and total
//! span durations' event multiplicity are bit-identical across
//! `FOUNDATION_THREADS=1/2/7` (timestamps and tids of course are not).

use foundation::json::Json;
use foundation::obs;
use lorastencil::{ExecConfig, Plan, Stepper};
use stencil_core::kernels;
use tcu_sim::GlobalArray;

fn profiled_run() -> (Vec<(&'static str, u64)>, Vec<(String, u64)>, usize) {
    obs::reset();
    obs::enable();
    let plan = Plan::new(&kernels::box_2d9p(), ExecConfig::full());
    let mut input = GlobalArray::new(48, 48);
    for r in 0..48 {
        for c in 0..48 {
            input.poke(r, c, ((r * 13 + c * 7) % 19) as f64 * 0.25 - 1.0);
        }
    }
    let mut stepper = Stepper::new(plan, vec![input]);
    for _ in 0..3 {
        stepper.step();
    }
    obs::disable();
    let trace = obs::drain();
    assert_eq!(trace.dropped, 0, "no ring overflow on this workload");
    let breakdown: Vec<(String, u64)> =
        obs::phase_breakdown().iter().map(|p| (p.name.to_string(), p.count)).collect();
    (trace.phase_counts(), breakdown, trace.len())
}

/// One test function (not several) so the `FOUNDATION_THREADS`
/// mutations and the global span-tracer state cannot race another test
/// in this binary.
#[test]
fn trace_and_breakdown_are_deterministic_across_thread_counts() {
    let runs: Vec<_> = ["1", "2", "7"]
        .iter()
        .map(|t| {
            std::env::set_var("FOUNDATION_THREADS", t);
            profiled_run()
        })
        .collect();
    std::env::remove_var("FOUNDATION_THREADS");

    let (counts0, breakdown0, len0) = &runs[0];
    assert!(!counts0.is_empty(), "the instrumented stepper must record spans");
    for phase in ["plan", "apply", "rdg_gather", "mma_batch"] {
        assert!(counts0.iter().any(|(n, _)| *n == phase), "missing phase {phase}: {counts0:?}");
    }
    for (i, (counts, breakdown, len)) in runs.iter().enumerate().skip(1) {
        assert_eq!(counts, counts0, "phase counts diverge at FOUNDATION_THREADS run {i}");
        assert_eq!(len, len0, "event totals diverge at run {i}");
        // breakdown sort order is (total time desc), which is timing
        // dependent — compare as sorted (name, count) sets
        let mut a = breakdown.clone();
        let mut b = breakdown0.clone();
        a.sort();
        b.sort();
        assert_eq!(a, b, "breakdown attribution diverges at run {i}");
    }

    // One more profiled run feeds the chrome-trace exporter: the JSON
    // must round-trip through `Json::parse` and carry Perfetto's schema.
    std::env::set_var("FOUNDATION_THREADS", "2");
    obs::reset();
    obs::enable();
    let plan = Plan::new(&kernels::box_2d9p(), ExecConfig::full());
    let mut stepper = Stepper::new(plan, vec![GlobalArray::new(32, 32)]);
    stepper.step();
    obs::disable();
    std::env::remove_var("FOUNDATION_THREADS");
    let trace = obs::drain();
    let doc = Json::parse(&trace.to_chrome_json().dump()).expect("chrome trace must parse");
    let events = doc.as_arr().expect("trace is a JSON array");
    assert_eq!(events.len(), trace.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert!(e.get("name").and_then(Json::as_str).is_some());
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(e.get(key).and_then(Json::as_f64).is_some(), "missing {key}");
        }
    }
}
