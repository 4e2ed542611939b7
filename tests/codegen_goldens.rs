//! CUDA listing goldens: `emit --target cuda` pinned for **every**
//! registry kernel × feature config × device backend.
//!
//! The snapshots in `tests/snapshots/` pin a handful of full listings;
//! this table pins the whole matrix cheaply as `(crc32, length)` pairs,
//! so any byte of drift in any CUDA listing — the frozen reference
//! target — turns a test red.
//!
//! Regenerate after an intentional emitter change:
//!
//! ```text
//! UPDATE_SNAPSHOTS=1 cargo test --test codegen_goldens
//! git diff tests/goldens/emit_cuda.tsv
//! ```

use foundation::crc::crc32;
use lorastencil::codegen::Target;
use lorastencil::{DeviceBackend, ExecConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use stencil_core::kernels;

const CONFIGS: [(&str, fn() -> ExecConfig); 3] = [
    ("full", ExecConfig::full),
    ("no-bvs", || ExecConfig { use_bvs: false, ..ExecConfig::full() }),
    ("no-fusion", || ExecConfig { allow_fusion: false, ..ExecConfig::full() }),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/emit_cuda.tsv")
}

fn current_table() -> String {
    let mut out = String::from("# kernel\tconfig\tbackend\tcrc32\tbytes\n");
    for kernel in kernels::all_kernels() {
        for (cname, cfg) in CONFIGS {
            for backend in DeviceBackend::all() {
                let config = ExecConfig { backend, ..cfg() };
                let text = stencil_cli::emit_text(&kernel, config, Target::Cuda).unwrap();
                writeln!(
                    out,
                    "{}\t{cname}\t{backend:?}\t{:08x}\t{}",
                    kernel.name,
                    crc32(text.as_bytes()),
                    text.len()
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn cuda_listings_match_pinned_goldens() {
    let got = current_table();
    let path = golden_path();
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
            "CUDA listings drifted from tests/goldens/emit_cuda.tsv in {} row(s):\n{}\n\
             intentional? regenerate with UPDATE_SNAPSHOTS=1 and review",
            drifted.len(),
            drifted.join("\n")
        );
    }
}
