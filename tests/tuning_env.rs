//! A corrupt `LORASTENCIL_TUNING_DB` fails typed and poisons nothing.
//!
//! The env var is process-wide and the tuning DB resolves it once, so
//! this file is its own test binary: [`setup`] points the variable at a
//! truncated DB before any lookup in the process. Every lookup after
//! that must return the same typed error; `serve` must answer it as an
//! error frame and keep serving; a checkpointed run must return it as a
//! `CkptRunError`.

use foundation::json::Json;
use lorastencil::checkpoint::{self as ckpt, CkptPolicy, CkptRunError};
use lorastencil::{tuning, ExecConfig, Plan, TuningDbError};
use stencil_cli::serve::{Action, ConnState, ServeConfig, ServerCore};
use stencil_core::checkpoint::CheckpointStore;
use stencil_core::{kernels, Grid2D, GridData};

/// Write a DB cut off mid-document and install it through the env var,
/// once, before any test in this process looks the DB up.
fn setup() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let dir = std::env::temp_dir().join("lorastencil-tuning-env");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.json");
        std::fs::write(&path, r#"{"version": "lorastencil-tuning-v1", "entries": [{"key": "k"#)
            .unwrap();
        std::env::set_var("LORASTENCIL_TUNING_DB", &path);
    });
}

#[test]
fn every_lookup_returns_the_same_typed_error() {
    setup();
    let k = kernels::box_2d9p();
    let first = tuning::lookup(&k, &[64, 64], ExecConfig::full()).unwrap_err();
    // a failed infallible plan panics with the message, outside the lock
    let planned = std::panic::catch_unwind(|| Plan::new_tuned(&k, ExecConfig::full(), &[64, 64]));
    let msg = planned.unwrap_err();
    let msg = msg.downcast_ref::<String>().expect("panic carries the formatted message");
    assert_eq!(*msg, format!("LORASTENCIL_TUNING_DB: {first}"));
    // and the lock is not poisoned: the next lookup answers the same way
    let second = tuning::lookup(&kernels::heat_2d(), &[32, 32], ExecConfig::full()).unwrap_err();
    assert!(matches!(first, TuningDbError::Parse { .. }), "{first:?}");
    assert!(matches!(second, TuningDbError::Parse { .. }), "{second:?}");
    assert_eq!(first.to_string(), second.to_string());
}

#[test]
fn serve_answers_an_error_frame_and_keeps_serving() {
    setup();
    let core = ServerCore::new(ServeConfig::default());
    let mut conn = ConnState::new();
    let run = r#"{"kernel":"Heat-2D","size":[24,24],"iters":1,"values":"none"}"#;
    assert!(matches!(core.handle_line(&mut conn, run), Action::Respond));
    let doc = Json::parse(&conn.resp).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{}", conn.resp);
    let err = doc.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("tuning"), "{}", conn.resp);
    assert!(err.get("detail").and_then(Json::as_str).unwrap().contains("is corrupt"));

    assert!(matches!(core.handle_line(&mut conn, r#"{"op":"ping","id":3}"#), Action::Respond));
    let doc = Json::parse(&conn.resp).unwrap();
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "ping after a tuning error: {}", conn.resp);
}

#[test]
fn checkpointed_run_returns_the_typed_variant() {
    setup();
    let dir = std::env::temp_dir().join("lorastencil-tuning-env-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(dir, 2).unwrap();
    let policy = CkptPolicy { store: &store, every: 2, seed: 1, method: "LoRAStencil" };
    let input = GridData::D2(Grid2D::from_fn(16, 16, |r, c| (r * 3 + c) as f64));
    let err = ckpt::run(&kernels::box_2d9p(), ExecConfig::full(), &input, 4, &policy).unwrap_err();
    assert!(matches!(err, CkptRunError::TuningDb(TuningDbError::Parse { .. })), "{err:?}");
    assert!(store.list().unwrap().is_empty(), "no snapshot is written under an unresolved plan");
}
