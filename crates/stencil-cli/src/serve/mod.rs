//! `stencil-cli serve` — stencil computation as a service.
//!
//! A std-only daemon over Unix and/or TCP sockets speaking
//! newline-delimited JSON: one job frame in, one response line out (see
//! [`proto`] for the frame grammar, DESIGN.md §13 for the architecture).
//! The expensive part of a LoRAStencil job — planning — is amortized by
//! the [`cache`] module's concurrent plan cache; execution reuses warm
//! [`lorastencil::ExecSession`]s so a cache-hit request allocates zero
//! heap and spawns zero threads end to end.
//!
//! Every job runs inline on its connection's thread; the job's own
//! nested parallelism fans out over the `foundation::par` worker pool.
//! The connection limit (`--max-conns`) is the admission controller — a
//! connection past it gets one `overloaded` line and is closed. A job's
//! values and invariant counters are bit-identical to the offline
//! `stencil-cli run` path (`tests/serve_determinism.rs`, plus the
//! serve-smoke step in ci.sh).

pub mod cache;
pub mod metrics;
pub mod proto;

use std::fmt::Write as _;
use std::io::{BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use foundation::json::{Json, NdjsonReader, ToJson};
use foundation::{crc::Crc32, par};
use lorastencil::{ExecConfig, ExecSession};

use cache::{Checkout, PlanCache};
use metrics::ServerMetrics;
use proto::{Frame, OpKind, ProtoError, ValuesMode, MAX_FULL_VALUES};

/// A named job preset: clients say `"scenario":"small-2d"` instead of
/// spelling out kernel/size/config (and the load generator drives the
/// same table, so service benchmarks are reproducible by name).
pub struct Scenario {
    pub name: &'static str,
    pub kernel: &'static str,
    pub size: [usize; 3],
    pub ndims: usize,
    pub iters: usize,
    pub config: &'static str,
    pub about: &'static str,
}

/// The built-in scenario table.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "smoke-1d",
        kernel: "1D5P",
        size: [4096, 0, 0],
        ndims: 1,
        iters: 4,
        config: "full",
        about: "1-D radius-2 line, the quickest end-to-end check",
    },
    Scenario {
        name: "small-2d",
        kernel: "Box-2D9P",
        size: [64, 64, 0],
        ndims: 2,
        iters: 2,
        config: "full",
        about: "small 2-D box kernel, where execution is cheap next to planning",
    },
    Scenario {
        name: "heavy-2d",
        kernel: "Box-2D49P",
        size: [128, 128, 0],
        ndims: 2,
        iters: 2,
        config: "full",
        about: "radius-3 box kernel, the paper's headline shape",
    },
    Scenario {
        name: "ablation-2d",
        kernel: "Box-2D9P",
        size: [64, 64, 0],
        ndims: 2,
        iters: 2,
        config: "no-bvs,no-async",
        about: "2-D box with BVS and async-copy disabled",
    },
    Scenario {
        name: "slab-3d",
        kernel: "Heat-3D",
        size: [8, 32, 32],
        ndims: 3,
        iters: 2,
        config: "full",
        about: "small 3-D heat slab",
    },
];

/// Knobs of one server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Plan-cache entry budget; 0 disables caching.
    pub cache_capacity: usize,
    /// Concurrent connections — admission control. Excess connections
    /// get one `overloaded` line and are closed.
    pub max_conns: usize,
    /// Candidate budget for on-miss schedule tuning when the tuning DB
    /// has no entry for the job shape (see
    /// [`tune_on_miss`](crate::tune::tune_on_miss)); <= 1 skips the
    /// search and plans with default params.
    pub tune_budget: usize,
    /// Canonical `--backend` token (`""`, `"tcu"`, `"sparse"`, `"simd"`
    /// or `"no-tcu"`) applied as the default config of run frames that
    /// carry no explicit `config` field; empty keeps `"full"`. A
    /// frame's own `config` always wins — the flag sets the server
    /// default, it does not censor clients.
    pub backend: &'static str,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { cache_capacity: 32, max_conns: 32, tune_budget: 4, backend: "" }
    }
}

/// An owned, capacity-reusing copy of one run frame — what survives
/// after the borrowed [`Frame`] dies with its input line.
pub struct JobSpec {
    id: Option<u64>,
    tenant: String,
    kernel: String,
    config: String,
    extents: [usize; 3],
    ndims: usize,
    iters: usize,
    seed: u64,
    values: ValuesMode,
    recv: Instant,
}

impl JobSpec {
    fn new() -> Self {
        JobSpec {
            id: None,
            tenant: String::new(),
            kernel: String::new(),
            config: String::new(),
            extents: [0; 3],
            ndims: 0,
            iters: 1,
            seed: 42,
            values: ValuesMode::Digest,
            recv: Instant::now(),
        }
    }
}

fn set_str(dst: &mut String, src: &str) {
    dst.clear();
    dst.push_str(src);
}

/// Per-connection state: the job spec and the response buffer the
/// transport writes from. Each connection reuses both for every
/// request, so the steady state runs without allocating.
pub struct ConnState {
    job: JobSpec,
    /// The response line (no trailing newline) for the last
    /// [`ServerCore::handle_line`] call.
    pub resp: String,
}

impl ConnState {
    pub fn new() -> Self {
        ConnState { job: JobSpec::new(), resp: String::new() }
    }
}

impl Default for ConnState {
    fn default() -> Self {
        Self::new()
    }
}

/// What the transport should do after a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Write the response and keep reading.
    Respond,
    /// Write the response, then the server is shutting down.
    Shutdown,
}

/// The transport-independent server: parse → route → execute → respond.
/// Socket loops, in-process tests, and the load generator all drive
/// this same object.
pub struct ServerCore {
    cfg: ServeConfig,
    pub cache: PlanCache,
    pub metrics: ServerMetrics,
    shutdown: AtomicBool,
    started: Instant,
}

impl ServerCore {
    pub fn new(cfg: ServeConfig) -> Arc<Self> {
        Arc::new(ServerCore {
            cfg,
            cache: PlanCache::new(cfg.cache_capacity),
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        })
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Flip the shutdown flag; the accept loop stops at its next poll.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handle one request line; the response (sans newline) lands in
    /// `conn.resp`. Never panics on any input — malformed frames become
    /// typed error responses. Run frames execute inline on the caller's
    /// thread.
    pub fn handle_line(&self, conn: &mut ConnState, line: &str) -> Action {
        let t0 = Instant::now();
        conn.resp.clear();
        let frame = match proto::parse_frame(line) {
            Ok(f) => f,
            Err(e) => {
                write_error(&mut conn.resp, None, &e);
                self.metrics.record("anon", false, elapsed_ns(t0));
                return Action::Respond;
            }
        };
        match frame.op {
            OpKind::Ping => {
                write_control(&mut conn.resp, frame.id, "ping");
                Action::Respond
            }
            OpKind::Stats => {
                conn.resp.push_str(&self.stats_json(frame.id).dump());
                Action::Respond
            }
            OpKind::Shutdown => {
                self.begin_shutdown();
                write_control(&mut conn.resp, frame.id, "shutdown");
                Action::Shutdown
            }
            OpKind::Run => {
                let job = &mut conn.job;
                if let Err(e) = fill_job(job, &frame, t0, self.cfg.backend) {
                    write_error(&mut conn.resp, frame.id, &e);
                    self.metrics.record(frame.tenant, false, elapsed_ns(t0));
                    return Action::Respond;
                }
                let ok = self.run_job_guarded(job, &mut conn.resp);
                self.metrics.record(&job.tenant, ok, elapsed_ns(job.recv));
                Action::Respond
            }
        }
    }

    /// Execute one job with a panic firewall: a panicking job becomes a
    /// typed `internal` error response instead of killing the
    /// connection's thread.
    fn run_job_guarded(&self, job: &JobSpec, resp: &mut String) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.execute_job(job, resp))) {
            Ok(ok) => ok,
            Err(_) => {
                let e = ProtoError {
                    kind: "internal",
                    offset: 0,
                    detail: "job panicked during execution".into(),
                };
                write_error(resp, job.id, &e);
                false
            }
        }
    }

    /// Plan a missed shape end to end: kernel resolution, dims check,
    /// tuning-DB lookup (with a bounded on-miss tune whose winner the
    /// cache entry memoizes — the bit-identity gate keeps any winner
    /// answer-neutral), session construction, cache insert. The caller
    /// must hold the shape's single-flight permit.
    fn plan_shape(
        &self,
        job: &JobSpec,
        config: ExecConfig,
    ) -> Result<(Arc<cache::CacheEntry>, ExecSession), ProtoError> {
        let Some(kernel) = crate::find_kernel(&job.kernel) else {
            return Err(ProtoError {
                kind: "kernel",
                offset: 0,
                detail: format!("unknown kernel \"{}\" (try `list`)", job.kernel),
            });
        };
        if kernel.dims() != job.ndims {
            return Err(ProtoError {
                kind: "frame",
                offset: 0,
                detail: format!(
                    "kernel {} is {}-D but size has {} dims",
                    kernel.name,
                    kernel.dims(),
                    job.ndims
                ),
            });
        }
        let extents = &job.extents[..job.ndims];
        let lookup = lorastencil::tuning::lookup(&kernel, extents, config)
            .map_err(|e| ProtoError { kind: "tuning", offset: 0, detail: e.to_string() })?;
        let params = lookup.unwrap_or_else(|| {
            crate::tune::tune_on_miss(
                &kernel,
                config,
                extents,
                job.seed,
                job.iters,
                self.cfg.tune_budget,
            )
        });
        let session = ExecSession::with_params(&kernel, config, extents, params);
        let entry = self.cache.insert(kernel, job.extents, job.ndims, config, params);
        Ok((entry, session))
    }

    /// The job pipeline: config parse → plan-cache checkout (plan on
    /// miss) → fill → run → digest → response. Allocation-free on a
    /// warm cache hit.
    fn execute_job(&self, job: &JobSpec, resp: &mut String) -> bool {
        resp.clear();
        let config = match crate::parse_config(&job.config) {
            Ok(c) => c,
            Err(detail) => {
                write_error(resp, job.id, &ProtoError { kind: "config", offset: 0, detail });
                return false;
            }
        };
        let t_plan = Instant::now();
        let (entry, mut session, hit) = loop {
            match self.cache.checkout(&job.kernel, &job.extents, job.ndims, config) {
                Checkout::Hit(e, s) => break (e, s, true),
                Checkout::Miss(h) => {
                    // single-flight: one thread plans a missed shape; a
                    // concurrent miss on the same key waits and retries
                    // the checkout against the published entry — the
                    // thundering herd neither tunes twice nor (since the
                    // tuner's winner is timing-dependent) races two
                    // different schedules into the first responses
                    let Some(_permit) = self.cache.lead_or_wait(h) else {
                        continue;
                    };
                    match self.plan_shape(job, config) {
                        Ok((entry, session)) => break (entry, session, false),
                        Err(e) => {
                            write_error(resp, job.id, &e);
                            return false;
                        }
                    }
                }
            }
        };
        let points = session.points();
        if job.values == ValuesMode::Full && points > MAX_FULL_VALUES {
            let e = ProtoError {
                kind: "limit",
                offset: 0,
                detail: format!(
                    "\"values\":\"full\" is capped at {MAX_FULL_VALUES} points, job has {points}"
                ),
            };
            write_error(resp, job.id, &e);
            self.cache.checkin(&entry, session);
            return false;
        }
        let plan_ns = elapsed_ns(t_plan);

        let t_fill = Instant::now();
        let seed = job.seed;
        session.fill_with(|idx| crate::grid_value(seed, idx));
        let fill_ns = elapsed_ns(t_fill);

        let t_exec = Instant::now();
        let counters = session.run(job.iters);
        let exec_ns = elapsed_ns(t_exec);

        // digest: CRC-32 over the output bit patterns plus sum/min/max,
        // accumulated in plane-major order so it is thread-count-
        // independent (the determinism test's currency)
        let t_digest = Instant::now();
        let mut crc = Crc32::new();
        let (mut sum, mut lo, mut hi) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
        if job.values != ValuesMode::None {
            for plane in session.planes() {
                for &v in plane.as_slice() {
                    crc.update(&v.to_bits().to_le_bytes());
                    sum += v;
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
        let digest_ns = elapsed_ns(t_digest);

        // response
        resp.push('{');
        write_id(resp, job.id);
        resp.push_str("\"ok\":true,\"tenant\":\"");
        escape_into(resp, &job.tenant);
        let _ = write!(resp, "\",\"kernel\":\"{}\",\"size\":[", entry.kernel.name);
        for (i, e) in job.extents[..job.ndims].iter().enumerate() {
            if i > 0 {
                resp.push(',');
            }
            let _ = write!(resp, "{e}");
        }
        let _ = write!(
            resp,
            "],\"iters\":{},\"points\":{},\"cache\":\"{}\"",
            job.iters,
            points,
            if hit { "hit" } else { "miss" }
        );
        if job.values != ValuesMode::None {
            let _ = write!(
                resp,
                ",\"digest\":\"crc32:{:08x}\",\"sum\":{sum},\"min\":{lo},\"max\":{hi}",
                crc.finish()
            );
        }
        if job.values == ValuesMode::Full {
            resp.push_str(",\"values\":[");
            let mut first = true;
            for plane in session.planes() {
                for &v in plane.as_slice() {
                    if !first {
                        resp.push(',');
                    }
                    first = false;
                    let _ = write!(resp, "{v}");
                }
            }
            resp.push(']');
        }
        resp.push_str(",\"counters\":{");
        for (i, (name, val)) in counters.fields().iter().enumerate() {
            if i > 0 {
                resp.push(',');
            }
            let _ = write!(resp, "\"{name}\":{val}");
        }
        let _ = write!(resp, ",\"global_bytes\":{}}}", counters.global_bytes());
        let _ = write!(
            resp,
            ",\"profile\":{{\"plan_ns\":{plan_ns},\"fill_ns\":{fill_ns},\"exec_ns\":{exec_ns},\
             \"digest_ns\":{digest_ns},\"total_ns\":{}}}}}",
            elapsed_ns(job.recv)
        );
        self.cache.checkin(&entry, session);
        true
    }

    /// The `stats` op body (also the shutdown summary's data source).
    pub fn stats_json(&self, id: Option<u64>) -> Json {
        let entries: Vec<Json> = self
            .cache
            .entries()
            .iter()
            .map(|e| {
                Json::obj([
                    ("kernel", e.kernel.name.to_json()),
                    ("size", e.extents().to_json()),
                    ("params", e.params.describe().to_json()),
                    ("hits", e.hits.load(Ordering::Relaxed).to_json()),
                    ("pooled", e.pooled().to_json()),
                ])
            })
            .collect();
        let all = &self.metrics.all;
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(id) = id {
            fields.push(("id".into(), id.to_json()));
        }
        fields.extend([
            ("ok".into(), true.to_json()),
            ("op".into(), "stats".to_json()),
            ("uptime_ns".into(), elapsed_ns(self.started).to_json()),
            ("threads".into(), (par::num_threads() as u64).to_json()),
            (
                "cache".into(),
                Json::obj([
                    ("entries", (self.cache.len() as u64).to_json()),
                    ("capacity", (self.cfg.cache_capacity as u64).to_json()),
                    ("hits", self.cache.hits.load(Ordering::Relaxed).to_json()),
                    ("misses", self.cache.misses.load(Ordering::Relaxed).to_json()),
                    ("evictions", self.cache.evictions.load(Ordering::Relaxed).to_json()),
                    ("coalesced", self.cache.coalesced.load(Ordering::Relaxed).to_json()),
                    ("takeovers", self.cache.takeovers.load(Ordering::Relaxed).to_json()),
                    ("plans", Json::Arr(entries)),
                ]),
            ),
            (
                "jobs".into(),
                Json::obj([
                    ("ok", all.jobs_ok.load(Ordering::Relaxed).to_json()),
                    ("err", all.jobs_err.load(Ordering::Relaxed).to_json()),
                    ("rejected", self.metrics.rejected.load(Ordering::Relaxed).to_json()),
                    ("p50_ns", all.latency.quantile_ns(0.5).to_json()),
                    ("p99_ns", all.latency.quantile_ns(0.99).to_json()),
                    ("max_ns", all.latency.max_ns().to_json()),
                ]),
            ),
            ("tenants".into(), self.metrics.tenants_json()),
        ]);
        Json::Obj(fields)
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Copy one parsed run frame into the connection's job spec, resolving
/// the scenario if named. Reuses the spec's string capacity.
fn fill_job(
    job: &mut JobSpec,
    frame: &Frame<'_>,
    t0: Instant,
    default_backend: &str,
) -> Result<(), ProtoError> {
    job.id = frame.id;
    set_str(&mut job.tenant, frame.tenant);
    job.seed = frame.seed;
    job.values = frame.values;
    job.recv = t0;
    if frame.scenario.is_empty() {
        set_str(&mut job.kernel, frame.kernel);
        if frame.has("config") || default_backend.is_empty() {
            set_str(&mut job.config, frame.config);
        } else {
            set_str(&mut job.config, default_backend);
        }
        job.extents = frame.size;
        job.ndims = frame.ndims;
        job.iters = frame.iters.unwrap_or(1);
    } else {
        let Some(s) = SCENARIOS.iter().find(|s| s.name == frame.scenario) else {
            let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
            return Err(ProtoError {
                kind: "frame",
                offset: 0,
                detail: format!(
                    "unknown scenario \"{}\" (scenarios: {})",
                    frame.scenario,
                    names.join(", ")
                ),
            });
        };
        for preset in ["size", "config"] {
            if frame.has(preset) {
                return Err(ProtoError {
                    kind: "frame",
                    offset: 0,
                    detail: format!("\"{preset}\" conflicts with the scenario's preset"),
                });
            }
        }
        set_str(&mut job.kernel, s.kernel);
        set_str(&mut job.config, s.config);
        job.extents = s.size;
        job.ndims = s.ndims;
        job.iters = frame.iters.unwrap_or(s.iters);
    }
    Ok(())
}

/// JSON string-escape `s` into `out` (quotes, backslashes, control
/// bytes). Tenant names are attacker-controlled; everything echoed into
/// a response goes through here.
fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn write_id(resp: &mut String, id: Option<u64>) {
    match id {
        Some(id) => {
            let _ = write!(resp, "\"id\":{id},");
        }
        None => resp.push_str("\"id\":null,"),
    }
}

/// The typed error response every rejected frame gets: kind + byte
/// offset + escaped detail.
fn write_error(resp: &mut String, id: Option<u64>, e: &ProtoError) {
    resp.clear();
    resp.push('{');
    write_id(resp, id);
    let _ =
        write!(resp, "\"ok\":false,\"error\":{{\"kind\":\"{}\",\"offset\":{},", e.kind, e.offset);
    resp.push_str("\"detail\":\"");
    escape_into(resp, &e.detail);
    resp.push_str("\"}}");
}

fn write_control(resp: &mut String, id: Option<u64>, op: &str) {
    resp.push('{');
    write_id(resp, id);
    let _ = write!(resp, "\"ok\":true,\"op\":\"{op}\"}}");
}

/// Where a daemon listens.
pub struct ServeOptions {
    /// Unix socket path ("" = no unix listener).
    pub socket: String,
    /// TCP address like `127.0.0.1:7878` ("" = no TCP listener).
    pub tcp: String,
    pub cfg: ServeConfig,
}

/// RAII connection-count guard.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The blocking daemon entry point: bind, accept until a shutdown frame
/// arrives, return a summary. Connection threads are detached — they
/// die with the process after the accept loop ends.
pub fn serve(opts: ServeOptions) -> Result<String, String> {
    use std::net::TcpListener;
    use std::os::unix::net::UnixListener;

    if opts.socket.is_empty() && opts.tcp.is_empty() {
        return Err("serve needs --socket <path> and/or --tcp <addr>".into());
    }
    let core = ServerCore::new(opts.cfg);
    let unix = if opts.socket.is_empty() {
        None
    } else {
        let _ = std::fs::remove_file(&opts.socket);
        let l = UnixListener::bind(&opts.socket)
            .map_err(|e| format!("bind unix {}: {e}", opts.socket))?;
        l.set_nonblocking(true).map_err(|e| e.to_string())?;
        Some(l)
    };
    let tcp = if opts.tcp.is_empty() {
        None
    } else {
        let l = TcpListener::bind(&opts.tcp).map_err(|e| format!("bind tcp {}: {e}", opts.tcp))?;
        l.set_nonblocking(true).map_err(|e| e.to_string())?;
        Some(l)
    };
    {
        use std::io::Write as _;
        let mut out = std::io::stdout().lock();
        if let Some(_l) = &unix {
            let _ = writeln!(out, "serving on unix:{}", opts.socket);
        }
        if let Some(l) = &tcp {
            let addr = l.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| opts.tcp.clone());
            let _ = writeln!(out, "serving on tcp:{addr}");
        }
        let _ = out.flush();
    }
    let conns = Arc::new(AtomicUsize::new(0));
    while !core.shutdown_requested() {
        let mut accepted = false;
        if let Some(l) = &unix {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    let rd = stream.try_clone().map_err(|e| e.to_string())?;
                    spawn_conn(&core, &conns, rd, stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("unix accept: {e}")),
            }
        }
        if let Some(l) = &tcp {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    let rd = stream.try_clone().map_err(|e| e.to_string())?;
                    spawn_conn(&core, &conns, rd, stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(format!("tcp accept: {e}")),
            }
        }
        if !accepted {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    if !opts.socket.is_empty() {
        let _ = std::fs::remove_file(&opts.socket);
    }
    // brief grace so in-flight responses flush before the process exits
    std::thread::sleep(Duration::from_millis(50));
    Ok(format!(
        "serve: {} ok, {} errors, {} cache hits / {} misses, p99 {} ns\n",
        core.metrics.all.jobs_ok.load(Ordering::Relaxed),
        core.metrics.all.jobs_err.load(Ordering::Relaxed),
        core.cache.hits.load(Ordering::Relaxed),
        core.cache.misses.load(Ordering::Relaxed),
        core.metrics.all.latency.quantile_ns(0.99),
    ))
}

fn spawn_conn<R, W>(core: &Arc<ServerCore>, conns: &Arc<AtomicUsize>, read: R, mut write: W)
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let n = conns.fetch_add(1, Ordering::SeqCst);
    let guard = ConnGuard(Arc::clone(conns));
    if n >= core.config().max_conns {
        core.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        let mut resp = String::new();
        let e = ProtoError {
            kind: "overloaded",
            offset: 0,
            detail: format!("connection limit ({}) reached", core.config().max_conns),
        };
        write_error(&mut resp, None, &e);
        resp.push('\n');
        let _ = write.write_all(resp.as_bytes());
        drop(guard);
        return;
    }
    let core = Arc::clone(core);
    let _ = std::thread::Builder::new().name("serve-conn".into()).spawn(move || {
        let _guard = guard;
        handle_conn(&core, read, write);
    });
}

/// One connection's read-respond loop. Stream-level protocol failures
/// (oversized line, bad UTF-8, IO error) get one typed response, then
/// the connection closes — after an unframed byte flood the stream
/// state is unknowable.
fn handle_conn<R: Read, W: Write>(core: &Arc<ServerCore>, read: R, mut write: W) {
    let mut reader = NdjsonReader::new(BufReader::new(read));
    let mut conn = ConnState::new();
    loop {
        match reader.next_line() {
            Ok(Some(line)) => {
                let action = core.handle_line(&mut conn, line);
                conn.resp.push('\n');
                if write.write_all(conn.resp.as_bytes()).is_err() {
                    return;
                }
                let _ = write.flush();
                if action == Action::Shutdown {
                    return;
                }
            }
            Ok(None) => return,
            Err(e) => {
                let pe = ProtoError {
                    kind: "parse",
                    offset: usize::try_from(e.offset).unwrap_or(0),
                    detail: e.message,
                };
                let mut resp = String::new();
                write_error(&mut resp, None, &pe);
                resp.push('\n');
                let _ = write.write_all(resp.as_bytes());
                let _ = write.flush();
                return;
            }
        }
    }
}

/// The `submit` client: send frames (one `--frame`, or stdin lines) to
/// a running daemon, print one response line per frame.
pub fn submit(socket: &str, tcp: &str, frame: &str) -> Result<String, String> {
    use std::io::BufRead;
    let (read, mut write): (Box<dyn Read>, Box<dyn Write>) = if !socket.is_empty() {
        let s = std::os::unix::net::UnixStream::connect(socket)
            .map_err(|e| format!("connect unix {socket}: {e}"))?;
        let r = s.try_clone().map_err(|e| e.to_string())?;
        (Box::new(r), Box::new(s))
    } else if !tcp.is_empty() {
        let s = std::net::TcpStream::connect(tcp).map_err(|e| format!("connect tcp {tcp}: {e}"))?;
        let r = s.try_clone().map_err(|e| e.to_string())?;
        (Box::new(r), Box::new(s))
    } else {
        return Err("submit needs --socket <path> or --tcp <addr>".into());
    };
    let mut reader = NdjsonReader::new(BufReader::new(read));
    let mut out = String::new();
    let mut send = |line: &str, out: &mut String| -> Result<bool, String> {
        write
            .write_all(line.as_bytes())
            .and_then(|_| write.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        write.flush().map_err(|e| format!("send: {e}"))?;
        match reader.next_line() {
            Ok(Some(resp)) => {
                out.push_str(resp);
                out.push('\n');
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => Err(format!("recv: {e}")),
        }
    };
    if !frame.is_empty() {
        send(frame, &mut out)?;
    } else {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("stdin: {e}"))?;
            if line.trim().is_empty() {
                continue;
            }
            if !send(&line, &mut out)? {
                break;
            }
        }
    }
    Ok(out)
}
