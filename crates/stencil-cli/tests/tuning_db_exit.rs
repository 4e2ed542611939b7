//! `lorastencil-cli run` under a corrupt `LORASTENCIL_TUNING_DB` exits 2
//! with the typed message, on the plain and the checkpointed path alike
//! (a panic would exit 101).

use std::process::Command;

#[test]
fn run_with_a_truncated_tuning_db_exits_2_with_the_typed_message() {
    let dir = std::env::temp_dir().join(format!("lorastencil-cli-tuning-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("truncated.json");
    std::fs::write(&db, r#"{"version": "lorastencil-tuning-v1", "entries": [{"key": "k"#).unwrap();
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let base = ["run", "--kernel", "Heat-2D", "--size", "32x32", "--iters", "2"];
    for extra in [&[][..], &["--checkpoint-dir", ckpt][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_lorastencil-cli"))
            .args(base)
            .args(extra)
            .env("LORASTENCIL_TUNING_DB", &db)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(
            stderr.starts_with("error: LORASTENCIL_TUNING_DB: tuning DB ")
                && stderr.contains("is corrupt"),
            "{extra:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
