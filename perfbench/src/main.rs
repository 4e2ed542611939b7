//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint and every metric by name with its unit,
//! then, as the last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`.

use lorastencil_perfbench::{host, run, Opts, END_TO_END, PER_LAYER, WORKLOADS};

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(opts)
}

fn main() {
    // plans come from defaults or on-miss tuning, never from a user's
    // tuning DB (removed before any thread starts or any plan is made)
    std::env::remove_var("LORASTENCIL_TUNING_DB");
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    let keep: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let problems = report.problems(keep);
    if !problems.is_empty() {
        eprintln!("perfbench: {}: {}", opts.workload, problems.join("; "));
        std::process::exit(1);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!("{}", host::fingerprint(opts.seed).dump());
    for line in report.text_lines() {
        println!("{line}");
    }
    println!("{}", report.result_line(keep));
}
