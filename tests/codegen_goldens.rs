//! Listing goldens: `emit --target {cuda,hip,wgsl}` pinned for **every**
//! registry kernel × feature config × device backend, plus the
//! double-staged listings on every target.
//!
//! The snapshots in `tests/snapshots/` pin a handful of full listings;
//! these tables pin the whole matrix cheaply as `(crc32, length)` pairs,
//! so any byte of drift in any listing turns a test red. One table per
//! target (`emit_<target>.tsv`, planned with default schedule params)
//! and one for `Staging::Double` across all targets
//! (`emit_double_staged.tsv`), because default params never lower to the
//! two-slot pipeline.
//!
//! Regenerate after an intentional emitter change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test codegen_goldens
//! git diff tests/goldens/
//! ```

use foundation::crc::crc32;
use lorastencil::codegen::{emit, Target};
use lorastencil::{DeviceBackend, ExecConfig, Plan, Schedule, ScheduleParams, Staging};
use std::fmt::Write as _;
use std::path::PathBuf;
use stencil_core::kernels;

const CONFIGS: [(&str, fn() -> ExecConfig); 3] = [
    ("full", ExecConfig::full),
    ("no-bvs", || ExecConfig { use_bvs: false, ..ExecConfig::full() }),
    ("no-fusion", || ExecConfig { allow_fusion: false, ..ExecConfig::full() }),
];

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{stem}.tsv"))
}

/// One table row: the identity columns, then the listing's crc32 and length.
fn row(out: &mut String, ident: &str, text: &str) {
    writeln!(out, "{ident}\t{:08x}\t{}", crc32(text.as_bytes()), text.len()).unwrap();
}

/// Every registry kernel × config × backend on `target`, default params.
fn target_table(target: Target) -> String {
    let mut out = String::from("# kernel\tconfig\tbackend\tcrc32\tbytes\n");
    for kernel in kernels::all_kernels() {
        for (cname, cfg) in CONFIGS {
            for backend in DeviceBackend::all() {
                let config = ExecConfig { backend, ..cfg() };
                let text = stencil_cli::emit_text(&kernel, config, target).unwrap();
                row(&mut out, &format!("{}\t{cname}\t{backend:?}", kernel.name), &text);
            }
        }
    }
    out
}

/// Every 2-D/3-D registry kernel × config × tensor-core backend ×
/// target, planned with `Staging::Double` — the combinations where the
/// lowering honours the two-slot pipeline.
fn double_staged_table() -> String {
    let params = ScheduleParams { staging: Staging::Double, ..ScheduleParams::default() };
    let mut out = String::from("# kernel\tconfig\tbackend\ttarget\tcrc32\tbytes\n");
    for kernel in kernels::all_kernels().into_iter().filter(|k| k.dims() >= 2) {
        for (cname, cfg) in CONFIGS {
            for backend in DeviceBackend::all().into_iter().filter(|b| b.uses_tcu()) {
                let config = ExecConfig { backend, ..cfg() };
                let plan = Plan::new_with_params(&kernel, config, params);
                assert_eq!(
                    Schedule::lower(&plan).staging,
                    Staging::Double,
                    "{}/{cname}/{backend:?} must lower double-staged",
                    kernel.name
                );
                for target in Target::ALL {
                    let ident = format!("{}\t{cname}\t{backend:?}\t{}", kernel.name, target.name());
                    row(&mut out, &ident, &emit(&plan, target));
                }
            }
        }
    }
    out
}

/// Compare `got` with `tests/goldens/<stem>.tsv`, or rewrite the file
/// under `UPDATE_SNAPSHOTS=1`.
fn check(stem: &str, got: String) {
    let path = golden_path(stem);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with UPDATE_SNAPSHOTS=1)", path.display()));
    if want != got {
        let drifted: Vec<&str> =
            want.lines().zip(got.lines()).filter(|(w, g)| w != g).map(|(w, _)| w).collect();
        panic!(
            "listings drifted from tests/goldens/{stem}.tsv in {} row(s):\n{}\n\
             intentional? regenerate with UPDATE_SNAPSHOTS=1 and review",
            drifted.len(),
            drifted.join("\n")
        );
    }
}

#[test]
fn cuda_listings_match_pinned_goldens() {
    check("emit_cuda", target_table(Target::Cuda));
}

#[test]
fn hip_listings_match_pinned_goldens() {
    check("emit_hip", target_table(Target::Hip));
}

#[test]
fn wgsl_listings_match_pinned_goldens() {
    check("emit_wgsl", target_table(Target::Wgsl));
}

#[test]
fn double_staged_listings_match_pinned_goldens() {
    check("emit_double_staged", double_staged_table());
}
