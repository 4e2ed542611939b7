//! The exact per-layer counts of a traced run repeat bit for bit across
//! seeds and at `FOUNDATION_THREADS` 1 and 2. One test function, so the
//! environment changes cannot race another test in this binary.

use lorastencil_perfbench::{run, Opts, EXACT, WORKLOADS};

#[test]
fn exact_counts_repeat_across_seeds_and_thread_counts() {
    for workload in WORKLOADS {
        let mut runs: Vec<(String, Vec<(&str, u64)>)> = Vec::new();
        for threads in ["1", "2"] {
            std::env::set_var("FOUNDATION_THREADS", threads);
            for seed in [11, 12] {
                let opts = Opts { workload: workload.into(), seed, seconds: 0.2, trace: true };
                let r = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let label = format!("threads={threads} seed={seed}");
                assert_eq!(r.failed, 0, "{workload} {label}");
                let counts = EXACT
                    .iter()
                    .map(|&name| {
                        let v = r.metrics.iter().find(|(n, _, _)| n == name);
                        (name, v.unwrap_or_else(|| panic!("{workload}: no {name}")).1.to_bits())
                    })
                    .collect();
                runs.push((label, counts));
            }
        }
        std::env::remove_var("FOUNDATION_THREADS");
        let (base_label, base) = &runs[0];
        for (label, counts) in &runs[1..] {
            assert_eq!(counts, base, "{workload}: {label} differs from {base_label}");
        }
        for name in ["stepper.allocs_per_step", "par.spawns_per_step", "serve.allocs_per_hit"] {
            let v = base.iter().find(|(n, _)| *n == name).expect("listed in EXACT").1;
            assert_eq!(f64::from_bits(v), 0.0, "{workload}: {name} with FOUNDATION_THREADS set");
        }
    }
}
