//! The persistent tuning database: winners of the empirical `tune`
//! search, keyed by (kernel fingerprint, grid extents, [`ExecConfig`])
//! and consulted transparently at planning time
//! ([`crate::plan::Plan::new_tuned`]).
//!
//! ## Format
//!
//! A versioned JSON document (`{"version": "lorastencil-tuning-v1",
//! "entries": [...]}`). Each entry carries the opaque lookup key, a
//! human-readable identity (kernel name, extents, config tag), the
//! winning [`ScheduleParams`] and the measured best/default wall times.
//! Files are written with the checkpoint layer's atomic-rename
//! discipline (`.tmp` sibling → `fsync` → `rename` → directory
//! `fsync`), so a crash never leaves a torn DB; decoding maps corrupt,
//! truncated or foreign-version files to typed [`TuningDbError`]s —
//! never tune from garbage.
//!
//! ## Process-global installation
//!
//! The CLI (`--tuning-db`) or the `LORASTENCIL_TUNING_DB` environment
//! variable installs one DB process-wide; [`lookup`] consults it and
//! falls back to [`ScheduleParams::default`] (`None`) when no entry
//! matches, so executors, the bench suite and the differential oracle
//! pick tuned schedules up without code changes.

use crate::plan::ExecConfig;
use crate::schedule::ScheduleParams;
use foundation::json::{Json, ToJson};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use stencil_core::StencilKernel;

/// Format version; any other value is a typed decode error.
pub const TUNING_DB_VERSION: &str = "lorastencil-tuning-v1";

/// FNV-1a 64 over the kernel identity alone (name, radius,
/// dimensionality, every weight's exact bits) — the kernel half of a
/// tuning key. Extents and config are keyed separately so one kernel
/// tuned at several sizes/configs keeps distinct entries.
pub fn kernel_fingerprint(kernel: &StencilKernel) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    eat(kernel.name.as_bytes());
    eat(&(kernel.radius as u64).to_le_bytes());
    eat(&(kernel.dims() as u64).to_le_bytes());
    match &kernel.weights {
        stencil_core::Weights::D1(w) => {
            for &v in w {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        stencil_core::Weights::D2(m) => {
            for &v in m.as_slice() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        stencil_core::Weights::D3(planes) => {
            for m in planes {
                for &v in m.as_slice() {
                    eat(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
    h
}

/// The lookup key for one tuned configuration.
pub fn tuning_key(kernel: &StencilKernel, extents: &[usize], config: ExecConfig) -> String {
    let dims: Vec<String> = extents.iter().map(|e| e.to_string()).collect();
    format!("k{:016x}|e{}|c{:x}", kernel_fingerprint(kernel), dims.join("x"), config.bits())
}

/// One tuning-DB record.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningEntry {
    /// Kernel name at tune time (informational; the key's fingerprint
    /// is authoritative).
    pub kernel: String,
    /// Grid extents the entry was tuned at.
    pub extents: Vec<usize>,
    /// Config tag at tune time (informational).
    pub config: String,
    /// The winning schedule parameters.
    pub params: ScheduleParams,
    /// Median wall time of the winner, nanoseconds.
    pub best_ns: u64,
    /// Median wall time of the default schedule, nanoseconds.
    pub default_ns: u64,
}

/// Why a tuning DB failed to decode.
#[derive(Debug)]
pub enum TuningDbError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The file is not valid JSON (corrupt or truncated).
    Parse {
        /// Offending path.
        path: PathBuf,
        /// Parser detail (with byte offset).
        detail: String,
    },
    /// The file parsed but declares a foreign format version.
    Version {
        /// Offending path.
        path: PathBuf,
        /// The version string found (empty if missing).
        found: String,
    },
    /// The file parsed and is the right version, but an entry is
    /// structurally invalid.
    Field {
        /// Offending path.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for TuningDbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuningDbError::Io(e) => write!(f, "tuning DB unreadable: {e}"),
            TuningDbError::Parse { path, detail } => {
                write!(f, "tuning DB {} is corrupt: {detail}", path.display())
            }
            TuningDbError::Version { path, found } => write!(
                f,
                "tuning DB {} has version {found:?}, expected {TUNING_DB_VERSION:?} — \
                 re-run `tune` to regenerate it",
                path.display()
            ),
            TuningDbError::Field { path, detail } => {
                write!(f, "tuning DB {} has an invalid entry: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for TuningDbError {}

impl Clone for TuningDbError {
    /// `std::io::Error` is not `Clone`; the copy keeps its kind and
    /// message, so a clone displays exactly like the original.
    fn clone(&self) -> Self {
        match self {
            TuningDbError::Io(e) => TuningDbError::Io(std::io::Error::new(e.kind(), e.to_string())),
            TuningDbError::Parse { path, detail } => {
                TuningDbError::Parse { path: path.clone(), detail: detail.clone() }
            }
            TuningDbError::Version { path, found } => {
                TuningDbError::Version { path: path.clone(), found: found.clone() }
            }
            TuningDbError::Field { path, detail } => {
                TuningDbError::Field { path: path.clone(), detail: detail.clone() }
            }
        }
    }
}

impl From<std::io::Error> for TuningDbError {
    fn from(e: std::io::Error) -> Self {
        TuningDbError::Io(e)
    }
}

/// An in-memory tuning database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuningDb {
    entries: BTreeMap<String, TuningEntry>,
}

impl TuningDb {
    /// An empty DB.
    pub fn new() -> Self {
        TuningDb::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the DB has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TuningEntry)> {
        self.entries.iter()
    }

    /// Insert (or replace) the entry for `(kernel, extents, config)`.
    pub fn insert(
        &mut self,
        kernel: &StencilKernel,
        extents: &[usize],
        config: ExecConfig,
        entry: TuningEntry,
    ) {
        self.entries.insert(tuning_key(kernel, extents, config), entry);
    }

    /// The tuned parameters for `(kernel, extents, config)`, if any.
    pub fn lookup(
        &self,
        kernel: &StencilKernel,
        extents: &[usize],
        config: ExecConfig,
    ) -> Option<ScheduleParams> {
        self.entries.get(&tuning_key(kernel, extents, config)).map(|e| e.params)
    }

    /// Decode from JSON text (see the module docs for the error
    /// taxonomy).
    pub fn decode(text: &str, path: &Path) -> Result<TuningDb, TuningDbError> {
        let j = Json::parse(text)
            .map_err(|e| TuningDbError::Parse { path: path.to_path_buf(), detail: e })?;
        let version = j.get("version").and_then(Json::as_str).unwrap_or("");
        if version != TUNING_DB_VERSION {
            return Err(TuningDbError::Version {
                path: path.to_path_buf(),
                found: version.to_string(),
            });
        }
        let field = |detail: String| TuningDbError::Field { path: path.to_path_buf(), detail };
        let items = j
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| field("missing \"entries\" array".to_string()))?;
        let mut db = TuningDb::new();
        for (i, item) in items.iter().enumerate() {
            let key = item
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| field(format!("entry {i} has no \"key\" string")))?;
            let params_json = item
                .get("params")
                .ok_or_else(|| field(format!("entry {i} ({key}) has no \"params\"")))?;
            let params = ScheduleParams::from_json(params_json)
                .map_err(|e| field(format!("entry {i} ({key}): {e}")))?;
            let extents = match item.get("extents").and_then(Json::as_arr) {
                Some(arr) => arr
                    .iter()
                    .map(|e| match e {
                        Json::UInt(u) => Ok(*u as usize),
                        other => Err(field(format!("entry {i} ({key}): bad extent {other:?}"))),
                    })
                    .collect::<Result<Vec<usize>, _>>()?,
                None => return Err(field(format!("entry {i} ({key}) has no \"extents\" array"))),
            };
            let str_of = |name: &str| {
                item.get(name).and_then(Json::as_str).map(str::to_string).unwrap_or_default()
            };
            let u64_of = |name: &str| match item.get(name) {
                Some(Json::UInt(u)) => *u,
                _ => 0,
            };
            db.entries.insert(
                key.to_string(),
                TuningEntry {
                    kernel: str_of("kernel"),
                    extents,
                    config: str_of("config"),
                    params,
                    best_ns: u64_of("best_ns"),
                    default_ns: u64_of("default_ns"),
                },
            );
        }
        Ok(db)
    }

    /// Load from a file.
    pub fn load(path: &Path) -> Result<TuningDb, TuningDbError> {
        let text = std::fs::read_to_string(path)?;
        TuningDb::decode(&text, path)
    }

    /// Serialize to the versioned JSON document.
    pub fn encode(&self) -> String {
        Json::obj([
            ("version", Json::Str(TUNING_DB_VERSION.to_string())),
            (
                "entries",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|(key, e)| {
                            Json::obj([
                                ("key", Json::Str(key.clone())),
                                ("kernel", Json::Str(e.kernel.clone())),
                                ("extents", e.extents.to_json()),
                                ("config", Json::Str(e.config.clone())),
                                ("params", e.params.to_json()),
                                ("best_ns", Json::UInt(e.best_ns)),
                                ("default_ns", Json::UInt(e.default_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .dump()
    }

    /// Persist atomically: write a `.tmp` sibling, `fsync` it, `rename`
    /// into place, `fsync` the directory (the checkpoint store's
    /// crash-consistency discipline). A crash leaves either the old
    /// complete DB or the new complete DB, never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), std::io::Error> {
        use std::io::Write;
        let tmp = path.with_extension("json.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.encode().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }
}

/// The process-wide DB: `None` until [`install_global`] installs one or
/// the first [`lookup`] resolves `LORASTENCIL_TUNING_DB`; then the
/// outcome, kept so a corrupt file fails every later lookup the same
/// way. Nothing panics while the lock is held; should anything still
/// poison it, the guard is recovered, which is sound because every
/// update is a single assignment that leaves the state whole.
static GLOBAL: Mutex<Option<Result<Option<TuningDb>, TuningDbError>>> = Mutex::new(None);

fn global() -> MutexGuard<'static, Option<Result<Option<TuningDb>, TuningDbError>>> {
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Install `db` process-wide (the CLI's `--tuning-db` path). Replaces
/// any previously installed DB and suppresses the environment fallback.
pub fn install_global(db: TuningDb) {
    *global() = Some(Ok(Some(db)));
}

/// Remove the installed DB (tests; also re-arms the environment check).
pub fn clear_global() {
    *global() = None;
}

/// The tuned parameters for `(kernel, extents, config)` from the
/// process-global DB, or `Ok(None)` (→ defaults) when no DB is
/// installed or it has no matching entry.
///
/// On first use, if no DB was installed explicitly and
/// `LORASTENCIL_TUNING_DB` names a file, that file is loaded. A
/// corrupt, truncated or foreign-version file is an error on this and
/// every later call — the same variant and message each time — rather
/// than a silently untuned run (the "never tune from garbage" rule).
pub fn lookup(
    kernel: &StencilKernel,
    extents: &[usize],
    config: ExecConfig,
) -> Result<Option<ScheduleParams>, TuningDbError> {
    let mut g = global();
    let state = g.get_or_insert_with(|| match std::env::var_os("LORASTENCIL_TUNING_DB") {
        Some(path) => TuningDb::load(Path::new(&path)).map(Some),
        None => Ok(None),
    });
    match state {
        Ok(db) => Ok(db.as_ref().and_then(|db| db.lookup(kernel, extents, config))),
        Err(e) => Err(e.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Staging;
    use stencil_core::kernels;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lorastencil-tuning-tests");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    fn sample_entry(params: ScheduleParams) -> TuningEntry {
        TuningEntry {
            kernel: "Box-2D9P".to_string(),
            extents: vec![64, 64],
            config: "full".to_string(),
            params,
            best_ns: 1234,
            default_ns: 2345,
        }
    }

    #[test]
    fn keys_separate_kernel_extents_and_config() {
        let k = kernels::box_2d9p();
        let base = tuning_key(&k, &[64, 64], ExecConfig::full());
        assert_ne!(base, tuning_key(&k, &[64, 96], ExecConfig::full()));
        assert_ne!(base, tuning_key(&kernels::heat_2d(), &[64, 64], ExecConfig::full()));
        let cfg = ExecConfig { use_bvs: false, ..ExecConfig::full() };
        assert_ne!(base, tuning_key(&k, &[64, 64], cfg));
        assert_eq!(base, tuning_key(&k, &[64, 64], ExecConfig::full()));
    }

    #[test]
    fn save_load_round_trips_atomically() {
        let k = kernels::box_2d9p();
        let mut db = TuningDb::new();
        let params = ScheduleParams {
            tile_rows: 64,
            tile_cols: 64,
            staging: Staging::Double,
            mma_batch: 8,
            fuse_override: None,
        };
        db.insert(&k, &[64, 64], ExecConfig::full(), sample_entry(params));
        let path = tmp_path("roundtrip.json");
        db.save(&path).unwrap();
        let back = TuningDb::load(&path).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.lookup(&k, &[64, 64], ExecConfig::full()), Some(params));
        assert_eq!(back.lookup(&k, &[96, 96], ExecConfig::full()), None);
        // no .tmp debris after a successful save
        assert!(!path.with_extension("json.tmp").exists());
    }

    #[test]
    fn corrupt_truncated_and_foreign_versions_are_typed_errors() {
        let path = tmp_path("corrupt.json");
        std::fs::write(&path, "{\"version\": \"lorastencil-tuning-v1\", \"entr").unwrap();
        assert!(matches!(TuningDb::load(&path), Err(TuningDbError::Parse { .. })));

        std::fs::write(&path, "{\"version\": \"lorastencil-tuning-v99\", \"entries\": []}")
            .unwrap();
        let err = TuningDb::load(&path).unwrap_err();
        assert!(
            matches!(&err, TuningDbError::Version { found, .. } if found == "lorastencil-tuning-v99")
        );
        assert!(err.to_string().contains("re-run `tune`"), "{err}");

        std::fs::write(
            &path,
            format!("{{\"version\": {TUNING_DB_VERSION:?}, \"entries\": [{{\"key\": \"k\"}}]}}"),
        )
        .unwrap();
        assert!(matches!(TuningDb::load(&path), Err(TuningDbError::Field { .. })));

        let missing = tmp_path("does-not-exist.json");
        let _ = std::fs::remove_file(&missing);
        assert!(matches!(TuningDb::load(&missing), Err(TuningDbError::Io(_))));
    }

    /// Generator of arbitrary valid tuning DBs: 0–5 entries over the
    /// benchmark kernels, random extents, any valid [`ScheduleParams`],
    /// any ablation config.
    #[derive(Clone, Copy, Debug, Default)]
    struct DbGen;

    impl foundation::prop::Gen for DbGen {
        type Value = TuningDb;

        fn generate(&self, rng: &mut foundation::rng::Xoshiro256pp) -> TuningDb {
            let ks = kernels::all_kernels();
            let roster = crate::plan::ExecConfig::ablation_roster();
            let mut db = TuningDb::new();
            for _ in 0..rng.range_usize(0, 6) {
                let k = &ks[rng.range_usize(0, ks.len())];
                let extents: Vec<usize> = (0..k.dims()).map(|_| rng.range_usize(1, 200)).collect();
                let params = ScheduleParams {
                    tile_rows: 8 * rng.range_usize(1, 9),
                    tile_cols: 8 * rng.range_usize(1, 9),
                    staging: if rng.range_usize(0, 2) == 0 {
                        Staging::Single
                    } else {
                        Staging::Double
                    },
                    mma_batch: rng.range_usize(1, crate::rdg::MAX_MMA_BATCH + 1),
                    fuse_override: match rng.range_usize(0, 3) {
                        0 => None,
                        f => Some(f),
                    },
                };
                params.validate().expect("generator draws only valid params");
                let (tag, config) = roster[rng.range_usize(0, roster.len())];
                db.insert(
                    k,
                    &extents,
                    config,
                    TuningEntry {
                        kernel: k.name.clone(),
                        extents: extents.clone(),
                        config: tag.to_string(),
                        params,
                        best_ns: rng.next_u64() >> 20,
                        default_ns: rng.next_u64() >> 20,
                    },
                );
            }
            db
        }
    }

    #[test]
    fn encode_decode_round_trips_any_valid_db() {
        let cfg = foundation::prop::Config {
            cases: 80,
            seed: foundation::prop::DEFAULT_SEED,
            max_shrink_rounds: 20,
        };
        foundation::prop::check_with(&cfg, "tuning_db_roundtrip", &DbGen, |db| {
            let text = db.encode();
            let back = TuningDb::decode(&text, Path::new("prop.json"))
                .map_err(|e| format!("decode of a just-encoded DB failed: {e}"))?;
            if back != db {
                return Err(format!("round trip diverged:\n  in:  {db:?}\n  out: {back:?}"));
            }
            Ok(())
        });
    }

    #[test]
    fn invalid_params_in_an_entry_are_field_errors() {
        let path = tmp_path("badparams.json");
        std::fs::write(
            &path,
            format!(
                "{{\"version\": {TUNING_DB_VERSION:?}, \"entries\": [{{\"key\": \"k0|e8x8|c0\", \
                 \"extents\": [8, 8], \"params\": {{\"tile_rows\": 12, \"tile_cols\": 8, \
                 \"staging\": \"single\", \"mma_batch\": 1, \"fuse_override\": null}}}}]}}"
            ),
        )
        .unwrap();
        let err = TuningDb::load(&path).unwrap_err();
        assert!(matches!(&err, TuningDbError::Field { .. }), "{err:?}");
        assert!(err.to_string().contains("multiple of 8"), "{err}");
    }
}
