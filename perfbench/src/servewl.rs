//! The serve workloads: a default `ServerCore` driven in a closed loop
//! through `handle_line`, the entry point the socket daemon uses.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use foundation::alloc_counter::allocation_count;
use foundation::crc::Crc32;
use foundation::json::Json;
use lorastencil::{ExecSession, Plan, ScheduleParams, Staging};
use stencil_cli::serve::{proto, ConnState, ServeConfig, ServerCore};
use tcu_sim::{CostModel, PerfCounters};

use crate::gen::{self, Job, Shape};
use crate::ledger::{self, config, elapsed_ns, LedgerJob};
use crate::report::Report;
use crate::stats::{median, median_u64, percentile, quantile, tail_percentile};

/// Concurrent closed-loop clients (the 2-core host's `nproc`).
pub const CLIENTS: usize = 2;
/// Servers set up per run, each followed by its share of the timed
/// loop: `setup_s` is their median, and the loop statistics pool the
/// servers, so one server's on-miss tuning results do not decide them.
const SERVERS: usize = 5;
/// Loop segments per server. Each segment's statistics are taken on
/// their own and the report gives their quiet quartile: the host's steal
/// comes in bursts of seconds, and the tail latency follows it, so
/// one-second segments keep a burst to the segments it falls in.
const SEGMENTS_PER_SERVER: usize = 4;
/// Requests pre-drawn per client (the order then repeats).
const DRAWS: usize = 1 << 16;
/// The intended `serve-churn` miss share.
pub const CHURN_MISS_BAND: (f64, f64) = (0.2, 0.45);

/// A serve workload's traffic: the shape set and grid seeds per shape.
pub struct ServeSpec {
    pub shapes: Vec<Shape>,
    pub grid_seeds: usize,
}

pub fn hot() -> ServeSpec {
    ServeSpec { shapes: gen::hot_shapes(), grid_seeds: 4 }
}

pub fn churn() -> ServeSpec {
    ServeSpec { shapes: gen::churn_shapes(), grid_seeds: 2 }
}

/// What a correct reply to one job must contain.
struct Expect {
    needles: [String; 4],
    /// Points updated by the job (points × iterations).
    updates: u64,
}

/// The generated jobs with their expected replies, computed offline
/// through `ExecSession` before any timing starts.
pub struct ServeSet {
    pub shapes: Vec<Shape>,
    pub jobs: Vec<Job>,
    expect: Vec<Expect>,
    /// A100-modeled GStencil/s of the job population on default plans.
    pub modeled_gstencil: f64,
}

impl ServeSet {
    pub fn new(shapes: Vec<Shape>, jobs: Vec<Job>) -> Result<ServeSet, String> {
        let model = CostModel::a100();
        let (mut updates, mut modeled_s) = (0u64, 0.0);
        let mut expect = Vec::with_capacity(jobs.len());
        for job in &jobs {
            let s = &shapes[job.shape];
            let kernel = stencil_core::kernels::by_name(s.kernel)
                .ok_or_else(|| format!("unknown kernel {}", s.kernel))?;
            let mut sess = ExecSession::new(&kernel, config(), &s.size);
            let seed = job.grid_seed;
            sess.fill_with(|i| stencil_cli::grid_value(seed, i));
            let c = sess.run(s.iters);
            let mut crc = Crc32::new();
            for plane in sess.planes() {
                for v in plane.as_slice() {
                    crc.update(&v.to_bits().to_le_bytes());
                }
            }
            updates += c.points_updated;
            modeled_s += model.estimate(&c, &sess.block()).total;
            expect.push(Expect {
                needles: [
                    format!("\"digest\":\"crc32:{:08x}\"", crc.finish()),
                    format!("\"mma_ops\":{},", c.mma_ops),
                    format!("\"shuffle_ops\":{},", c.shuffle_ops),
                    format!("\"shared_load_requests\":{},", c.shared_load_requests),
                ],
                updates: c.points_updated,
            });
        }
        let modeled_gstencil = updates as f64 / modeled_s / 1e9;
        Ok(ServeSet { shapes, jobs, expect, modeled_gstencil })
    }

    /// The grid seed of shape `shape`'s first job.
    fn first_grid_seed(&self, shape: usize) -> u64 {
        self.jobs.iter().find(|j| j.shape == shape).map_or(0, |j| j.grid_seed)
    }

    /// Digest and invariant counters equal the offline run's.
    fn correct(&self, job: usize, resp: &str) -> bool {
        resp.starts_with("{\"id\":null,\"ok\":true,")
            && self.expect[job].needles.iter().all(|n| resp.contains(n.as_str()))
    }
}

/// The server-side profile of one reply, with its client latency.
#[derive(Debug, Clone, Copy)]
pub struct Prof {
    pub hit: bool,
    pub lat_ns: u64,
    pub plan_ns: u64,
    pub fill_ns: u64,
    pub exec_ns: u64,
    pub digest_ns: u64,
}

fn field_u64(resp: &str, key: &str) -> u64 {
    resp.find(key)
        .map(|i| &resp[i + key.len()..])
        .and_then(|s| s[..s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len())].parse().ok())
        .unwrap_or(0)
}

fn is_hit(resp: &str) -> bool {
    resp.contains("\"cache\":\"hit\"")
}

fn profile(resp: &str, lat_ns: u64) -> Prof {
    Prof {
        hit: is_hit(resp),
        lat_ns,
        plan_ns: field_u64(resp, "\"plan_ns\":"),
        fill_ns: field_u64(resp, "\"fill_ns\":"),
        exec_ns: field_u64(resp, "\"exec_ns\":"),
        digest_ns: field_u64(resp, "\"digest_ns\":"),
    }
}

/// Checked operations and reply profiles collected outside the timers.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub misses: u64,
    pub updates: u64,
    pub lat_ns: Vec<u64>,
    pub prof: Vec<Prof>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.misses += o.misses;
        self.updates += o.updates;
        self.lat_ns.extend(o.lat_ns);
        self.prof.extend(o.prof);
    }
}

/// `ServerCore::new` with the default config plus the warm-up pass:
/// each client sends every distinct job once (clients start at
/// different offsets), which plans every shape and fills the session
/// pools. Returns the server, the set-up time and the warm-up tally
/// (with reply profiles).
pub fn setup(set: &ServeSet, clients: usize) -> (Arc<ServerCore>, u64, Tally) {
    let t0 = Instant::now();
    let core = ServerCore::new(ServeConfig::default());
    let n = set.jobs.len();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let core = &core;
                s.spawn(move || {
                    let mut conn = ConnState::new();
                    let mut tally = Tally::default();
                    for k in 0..n {
                        let j = (k + c * n / clients) % n;
                        let t = Instant::now();
                        core.handle_line(&mut conn, &set.jobs[j].frame);
                        let lat = elapsed_ns(t);
                        tally.attempted += 1;
                        tally.failed += u64::from(!set.correct(j, &conn.resp));
                        tally.prof.push(profile(&conn.resp, lat));
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm-up client panicked")).collect()
    });
    let ns = elapsed_ns(t0);
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    (core, ns, tally)
}

/// Closed loop: `clients` threads each send their next frame only after
/// the previous reply, until `dur` has passed (each sends at least
/// one). Every reply is checked against the offline result; with
/// `traced`, each reply's server profile is kept too. Returns the
/// tally and the loop's wall time.
pub fn closed_loop(
    core: &ServerCore,
    set: &ServeSet,
    seed: u64,
    clients: usize,
    dur: Duration,
    traced: bool,
) -> (Tally, u64) {
    let n = set.jobs.len();
    let orders: Vec<Vec<u32>> = (0..clients).map(|c| gen::draws(n, seed, c, DRAWS)).collect();
    let barrier = Barrier::new(clients + 1);
    let (tallies, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut conn = ConnState::new();
                    let mut tally = Tally { lat_ns: Vec::with_capacity(DRAWS), ..Tally::default() };
                    barrier.wait();
                    let deadline = Instant::now() + dur;
                    for k in 0.. {
                        let j = order[k % order.len()] as usize;
                        let t = Instant::now();
                        core.handle_line(&mut conn, &set.jobs[j].frame);
                        let lat = elapsed_ns(t);
                        let ok = set.correct(j, &conn.resp);
                        tally.attempted += 1;
                        tally.failed += u64::from(!ok);
                        tally.misses += u64::from(!is_hit(&conn.resp));
                        tally.updates += set.expect[j].updates;
                        tally.lat_ns.push(lat);
                        if traced {
                            tally.prof.push(profile(&conn.resp, lat));
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let tallies: Vec<Tally> =
            handles.into_iter().map(|h| h.join().expect("client panicked")).collect();
        (tallies, elapsed_ns(t0))
    });
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    (tally, wall)
}

/// Client-side latency percentiles and throughput of one segment of a
/// closed loop.
pub struct LoopStats {
    samples: usize,
    /// The highest percentile with at least 10 samples beyond it.
    tail: u32,
    p50_us: f64,
    tail_us: f64,
    jobs_per_s: f64,
    mpoints_per_s: f64,
}

impl LoopStats {
    /// Percentiles of the per-job latencies `lat_ns`, with the segment's
    /// throughputs.
    pub fn new(mut lat_ns: Vec<u64>, jobs_per_s: f64, mpoints_per_s: f64) -> LoopStats {
        lat_ns.sort_unstable();
        let tail = tail_percentile(lat_ns.len()).unwrap_or(50);
        LoopStats {
            samples: lat_ns.len(),
            tail,
            p50_us: percentile(&lat_ns, 50.0) as f64 / 1e3,
            tail_us: percentile(&lat_ns, tail as f64) as f64 / 1e3,
            jobs_per_s,
            mpoints_per_s,
        }
    }
}

pub fn loop_stats(tally: &Tally, wall_ns: u64) -> LoopStats {
    LoopStats::new(
        tally.lat_ns.clone(),
        tally.lat_ns.len() as f64 * 1e9 / wall_ns as f64,
        tally.updates as f64 * 1e3 / wall_ns as f64,
    )
}

/// Report each loop statistic at the quiet quartile of `segs`: the 25th
/// percentile of the segments' latencies and the 75th of their rates.
/// Host noise that covers up to three quarters of the segments does not
/// move it; a slower program moves every segment.
pub fn loop_metrics(report: &mut Report, segs: &[LoopStats], unit_name: &str) {
    let quiet = |f: fn(&LoopStats) -> f64, q| quantile(&segs.iter().map(f).collect::<Vec<_>>(), q);
    report.metric("host_mpoints_per_s", quiet(|s| s.mpoints_per_s, 75.0), "Mpoint/s");
    report.metric("jobs_per_s", quiet(|s| s.jobs_per_s, 75.0), "1/s");
    report.metric("latency_p50_us", quiet(|s| s.p50_us, 25.0), "us");
    report.metric("latency_p99_us", quiet(|s| s.tail_us, 25.0), "us");
    let tail = segs.iter().map(|s| s.tail).min().unwrap_or(50);
    let samples: usize = segs.iter().map(|s| s.samples).sum();
    report.note(format!(
        "latency over {samples} {unit_name} in {} segment(s){}; \
         latency_p99_us is p{tail}, the highest percentile with at least 10 samples beyond it{}",
        segs.len(),
        if segs.len() > 1 {
            ", each statistic at its quiet quartile of segments (25th percentile of latencies, \
             75th of rates)"
        } else {
            ""
        },
        if tail == 99 { "" } else { " (p99 needs 1000 samples)" }
    ));
}

/// The counters of a reply's `"counters"` object.
fn reply_counters(resp: &str) -> Option<PerfCounters> {
    let reply = Json::parse(resp).ok()?;
    let c = reply.get("counters")?;
    let get = |k: &str| c.get(k).and_then(Json::as_f64).map(|v| v as u64);
    Some(PerfCounters {
        mma_ops: get("mma_ops")?,
        mma_sp_ops: get("mma_sp_ops")?,
        mma_fp16_ops: get("mma_fp16_ops")?,
        metadata_loads: get("metadata_loads")?,
        cuda_flops: get("cuda_flops")?,
        shuffle_ops: get("shuffle_ops")?,
        shared_load_requests: get("shared_load_requests")?,
        shared_store_requests: get("shared_store_requests")?,
        global_bytes_read: get("global_bytes_read")?,
        global_bytes_written: get("global_bytes_written")?,
        l2_bytes: get("l2_bytes")?,
        staged_copy_bytes: get("staged_copy_bytes")?,
        points_updated: get("points_updated")?,
    })
}

/// Parse the `ScheduleParams::describe` form (`32x16/double/b4/f3`).
fn parse_params(s: &str) -> Option<ScheduleParams> {
    let mut parts = s.split('/');
    let (rows, cols) = parts.next()?.split_once('x')?;
    let staging = Staging::parse(parts.next()?)?;
    let mma_batch = parts.next()?.strip_prefix('b')?.parse().ok()?;
    let fuse_override = match parts.next() {
        None => None,
        Some(f) => Some(f.strip_prefix('f')?.parse().ok()?),
    };
    let p = ScheduleParams {
        tile_rows: rows.parse().ok()?,
        tile_cols: cols.parse().ok()?,
        staging,
        mma_batch,
        fuse_override,
    };
    (parts.next().is_none() && p.validate().is_ok()).then_some(p)
}

/// The schedule parameters of `core`'s plan-cache entry for `shape`,
/// from its `stats`.
fn entry_params(core: &ServerCore, shape: &Shape) -> Option<ScheduleParams> {
    let stats = core.stats_json(None);
    let plans = stats.get("cache")?.get("plans")?.as_arr()?;
    let entry = plans.iter().find(|e| {
        let size = e.get("size").and_then(Json::as_arr).unwrap_or(&[]);
        e.get("kernel").and_then(Json::as_str) == Some(shape.kernel)
            && size.len() == shape.size.len()
            && size.iter().zip(&shape.size).all(|(a, &b)| a.as_f64() == Some(b as f64))
    })?;
    parse_params(entry.get("params")?.as_str()?)
}

/// A100-modeled GStencil/s of what `core` serves: every distinct job
/// once, its reply's counters costed on the block of the plan the server
/// holds for its shape (the cache entry's params, which `tune_on_miss`
/// chose). Returns the median over the jobs, and how many jobs ran a
/// plan whose block does not fit an A100 SM (occupancy 0: its modeled
/// time means nothing, so a median and not a total). Replies are
/// checked like any other.
fn served_modeled(
    core: &ServerCore,
    set: &ServeSet,
    report: &mut Report,
) -> Result<(f64, usize), String> {
    let model = CostModel::a100();
    let mut conn = ConnState::new();
    let mut per_job = Vec::with_capacity(set.jobs.len());
    let mut unfit = 0;
    for (j, job) in set.jobs.iter().enumerate() {
        core.handle_line(&mut conn, &job.frame);
        report.check(set.correct(j, &conn.resp));
        let counters =
            reply_counters(&conn.resp).ok_or_else(|| format!("no counters in {}", conn.resp))?;
        let s = &set.shapes[job.shape];
        let params = entry_params(core, s)
            .ok_or_else(|| format!("no plan-cache entry for {} {:?}", s.kernel, s.size))?;
        let kernel = stencil_core::kernels::by_name(s.kernel).expect("kernels checked");
        let block = Plan::new_with_params(&kernel, config(), params).block_resources();
        let est = model.estimate(&counters, &block);
        unfit += usize::from(est.occupancy == 0.0);
        per_job.push(est.gstencil_per_sec(counters.points_updated));
    }
    Ok((median(&per_job), unfit))
}

/// The `serve-*` end-to-end measurement.
pub fn measure(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<Report, String> {
    let set = ServeSet::new(spec.shapes.clone(), gen::jobs(&spec.shapes, seed, spec.grid_seeds))?;
    let mut report = Report::default();
    let (mut setups, mut segs) = (Vec::new(), Vec::new());
    let (mut attempted, mut misses) = (0, 0);
    let segments = SERVERS * SEGMENTS_PER_SERVER;
    let segment = Duration::from_secs_f64(seconds / segments as f64);
    for server in 0..SERVERS {
        let (core, ns, warm) = setup(&set, CLIENTS);
        report.absorb(warm.attempted, warm.failed);
        setups.push(ns);
        for k in 0..SEGMENTS_PER_SERVER {
            let order_seed =
                seed.wrapping_add((server * SEGMENTS_PER_SERVER + k) as u64 * 0x9E37_79B9);
            let (tally, wall) = closed_loop(&core, &set, order_seed, CLIENTS, segment, false);
            report.absorb(tally.attempted, tally.failed);
            (attempted, misses) = (attempted + tally.attempted, misses + tally.misses);
            segs.push(loop_stats(&tally, wall));
        }
    }
    report.metric("setup_s", median_u64(&setups) / 1e9, "s");
    // the server's own plans come from `tune_on_miss`, whose winner
    // depends on host timing, so their modeled figure differs from server
    // to server; it is the per-layer serve.modeled_gstencil_per_s
    report.metric("modeled_gstencil_per_s", set.modeled_gstencil, "GStencil/s");
    loop_metrics(&mut report, &segs, "jobs");
    report.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
    report.note(format!(
        "closed loop, {CLIENTS} clients, {SERVERS} servers, {} distinct jobs over {} shapes; \
         miss share {:.4}",
        set.jobs.len(),
        set.shapes.len(),
        misses as f64 / attempted.max(1) as f64
    ));
    report.note(
        "modeled_gstencil_per_s: the job population on default plans, offline (ExecSession); \
         the server's own plans are measured by the traced run",
    );
    Ok(report)
}

fn cache_stats(core: &ServerCore) -> [f64; 4] {
    let stats = core.stats_json(None);
    let cache = stats.get("cache");
    let get = |k: &str| cache.and_then(|c| c.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
    [get("hits"), get("misses"), get("evictions"), get("coalesced")]
}

/// Allocations per cache hit: one client, jobs in set order twice,
/// counting the heap allocations of each `handle_line` that hit.
pub fn allocs_per_hit(core: &ServerCore, set: &ServeSet, report: &mut Report) -> f64 {
    let mut conn = ConnState::new();
    let (mut hits, mut allocs) = (0u64, 0u64);
    for pass in 0..2 {
        for (j, job) in set.jobs.iter().enumerate() {
            let a0 = allocation_count();
            core.handle_line(&mut conn, &job.frame);
            let a1 = allocation_count();
            report.check(set.correct(j, &conn.resp));
            if pass > 0 && is_hit(&conn.resp) {
                hits += 1;
                allocs += a1 - a0;
            }
        }
    }
    allocs as f64 / hits.max(1) as f64
}

fn p50_us(v: impl Iterator<Item = u64>) -> f64 {
    let mut v: Vec<u64> = v.collect();
    v.sort_unstable();
    percentile(&v, 50.0) as f64 / 1e3
}

/// The serve front-end, cache and tune layers on `core` (already warm):
/// a traced closed loop for `dur`, the allocation pass, `parse_frame`
/// timing and `tune_on_miss` timing. `warm` holds the warm-up profiles,
/// whose misses carry the planning times. Returns the traced tally.
pub fn layer_metrics(
    core: &ServerCore,
    set: &ServeSet,
    seed: u64,
    clients: usize,
    dur: Duration,
    warm: &Tally,
    report: &mut Report,
) -> Result<(Tally, u64), String> {
    let before = cache_stats(core);
    let (tally, wall) = closed_loop(core, set, seed, clients, dur, true);
    let after = cache_stats(core);
    report.absorb(tally.attempted, tally.failed);
    let d: Vec<f64> = before.iter().zip(&after).map(|(b, a)| a - b).collect();
    report.metric("serve.cache.hit_ratio", d[0] / (d[0] + d[1]).max(1.0), "1");
    report.metric("serve.cache.evictions", d[2], "count");
    report.metric("serve.cache.coalesced", d[3], "count");

    let hits: Vec<&Prof> = tally.prof.iter().filter(|p| p.hit).collect();
    report.metric("serve.checkout_us_p50", p50_us(hits.iter().map(|p| p.plan_ns)), "us");
    report.metric("serve.fill_us_p50", p50_us(hits.iter().map(|p| p.fill_ns)), "us");
    report.metric("serve.exec_us_p50", p50_us(hits.iter().map(|p| p.exec_ns)), "us");
    report.metric("serve.digest_us_p50", p50_us(hits.iter().map(|p| p.digest_ns)), "us");
    let self_ns = hits
        .iter()
        .map(|p| p.lat_ns.saturating_sub(p.plan_ns + p.fill_ns + p.exec_ns + p.digest_ns));
    report.metric("serve.self_us_p50", p50_us(self_ns), "us");
    let misses = warm.prof.iter().chain(&tally.prof).filter(|p| !p.hit).map(|p| p.plan_ns);
    report.metric("serve.plan_us_p50", p50_us(misses), "us");
    report.note(format!(
        "serve layers over {} traced jobs ({} hits); plan_us from {} misses incl. warm-up",
        tally.prof.len(),
        hits.len(),
        warm.prof.iter().chain(&tally.prof).filter(|p| !p.hit).count()
    ));

    let aph = allocs_per_hit(core, set, report);
    report.metric("serve.allocs_per_hit", aph, "count");
    let (gstencil, unfit) = served_modeled(core, set, report)?;
    report.metric("serve.modeled_gstencil_per_s", gstencil, "GStencil/s");
    report.metric("serve.unfit_plan_share", unfit as f64 / set.jobs.len() as f64, "1");

    // parse_frame over the workload's frames, in batches of >= 1000
    let per_batch = 1000usize.div_ceil(set.jobs.len());
    let mut batch_ns = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        for _ in 0..per_batch {
            for job in &set.jobs {
                let _ = black_box(proto::parse_frame(black_box(&job.frame)));
            }
        }
        batch_ns.push(elapsed_ns(t) / (per_batch * set.jobs.len()) as u64);
    }
    batch_ns.sort_unstable();
    report.metric("serve.proto.parse_ns_p50", percentile(&batch_ns, 50.0) as f64, "ns");

    let budget = ServeConfig::default().tune_budget;
    let mut tune_ns = Vec::new();
    for (i, s) in set.shapes.iter().enumerate() {
        let kernel =
            stencil_core::kernels::by_name(s.kernel).expect("kernels checked in ServeSet::new");
        let t = Instant::now();
        black_box(stencil_cli::tune::tune_on_miss(
            &kernel,
            config(),
            &s.size,
            set.first_grid_seed(i),
            s.iters,
            budget,
        ));
        tune_ns.push(elapsed_ns(t));
    }
    report.metric("tune.on_miss_ms_p50", p50_us(tune_ns.into_iter()) / 1e3, "ms");
    Ok((tally, wall))
}

/// Ledger jobs for the distinct shapes of a set (first grid seed each),
/// with their reference outputs.
pub fn ledger_jobs(set: &ServeSet) -> Vec<LedgerJob<'static>> {
    set.shapes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kernel = stencil_core::kernels::by_name(s.kernel).expect("kernels checked");
            LedgerJob::new(kernel, &s.size, s.iters, gen::grid(&s.size, set.first_grid_seed(i)))
        })
        .collect()
}

/// The `serve-*` traced run: an untraced closed loop for half the time,
/// a traced one for the other half, then the executor ledger over the
/// distinct shapes and a checkpoint probe on the largest.
pub fn trace(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    scratch: &std::path::Path,
) -> Result<Report, String> {
    let set = ServeSet::new(spec.shapes.clone(), gen::jobs(&spec.shapes, seed, spec.grid_seeds))?;
    let mut report = Report::default();
    let (core, _, warm) = setup(&set, CLIENTS);
    report.absorb(warm.attempted, warm.failed);
    let half = Duration::from_secs_f64(seconds / 2.0);
    let (plain, plain_wall) = closed_loop(&core, &set, seed, CLIENTS, half, false);
    report.absorb(plain.attempted, plain.failed);
    let (traced, traced_wall) =
        layer_metrics(&core, &set, seed, CLIENTS, half, &warm, &mut report)?;
    let jps = |t: &Tally, wall: u64| t.attempted as f64 / wall as f64;
    report.metric(
        "trace.overhead_pct",
        (jps(&plain, plain_wall) / jps(&traced, traced_wall) - 1.0) * 100.0,
        "%",
    );
    let jobs = ledger_jobs(&set);
    let led = ledger::run(&jobs, Duration::from_secs_f64(seconds / 10.0))?;
    report.absorb(led.attempted, led.failed);
    led.exact_metrics(&mut report);
    led.timed_metrics(&mut report);
    let largest = jobs.iter().max_by_key(|j| j.input.len()).expect("at least one shape");
    ledger::ckpt_probe(largest, scratch, &mut report)?;
    report.note("trace.overhead_pct: untraced over traced closed-loop jobs/s");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tail_note(n: u64) -> String {
        let tally = Tally { lat_ns: (1..=n).collect(), ..Tally::default() };
        let mut r = Report::default();
        loop_metrics(&mut r, &[loop_stats(&tally, 1_000_000_000)], "jobs");
        r.notes.join(" ")
    }

    #[test]
    fn report_names_the_highest_percentile_with_ten_beyond() {
        assert!(tail_note(1000).contains("latency_p99_us is p99,"), "{}", tail_note(1000));
        assert!(tail_note(999).contains("latency_p99_us is p98,"), "{}", tail_note(999));
        assert!(tail_note(60).contains("latency_p99_us is p83,"), "{}", tail_note(60));
        assert!(tail_note(60).contains("over 60 jobs"), "states the sample count");
    }

    #[test]
    fn replies_are_checked_against_the_offline_run() {
        let shapes = vec![Shape { kernel: "Heat-2D", size: vec![16, 16], iters: 2 }];
        let set = ServeSet::new(shapes.clone(), gen::jobs(&shapes, 5, 1)).unwrap();
        let core = ServerCore::new(ServeConfig::default());
        let mut conn = ConnState::new();
        core.handle_line(&mut conn, &set.jobs[0].frame);
        assert!(set.correct(0, &conn.resp), "{}", conn.resp);
        let wrong = conn.resp.replacen("\"digest\":\"crc32:", "\"digest\":\"crc32:0", 1);
        assert!(!set.correct(0, &wrong), "a digest mismatch is a failure");
        core.handle_line(&mut conn, "{\"kernel\":\"Heat-2D\",\"size\":[16,16],\"iters\":0}");
        assert!(!set.correct(0, &conn.resp), "an error reply is a failure");
    }

    #[test]
    fn modeled_figure_reads_the_servers_reply_and_plan() {
        for p in [
            ScheduleParams::default(),
            ScheduleParams {
                tile_rows: 32,
                tile_cols: 16,
                staging: Staging::Double,
                mma_batch: 4,
                fuse_override: Some(3),
            },
        ] {
            assert_eq!(parse_params(&p.describe()), Some(p));
        }
        assert_eq!(parse_params("8x8/single/b1/f2/x"), None);
        assert_eq!(parse_params("7x8/single/b1"), None, "invalid params are rejected");

        let shapes = vec![Shape { kernel: "Box-2D9P", size: vec![32, 32], iters: 2 }];
        let set = ServeSet::new(shapes.clone(), gen::jobs(&shapes, 5, 1)).unwrap();
        let core = ServerCore::new(ServeConfig::default());
        let mut conn = ConnState::new();
        core.handle_line(&mut conn, &set.jobs[0].frame);
        let params = entry_params(&core, &shapes[0]).expect("the job's shape is cached");
        let kernel = stencil_core::kernels::by_name("Box-2D9P").unwrap();
        let mut sess = ExecSession::with_params(&kernel, config(), &[32, 32], params);
        sess.fill_with(|i| stencil_cli::grid_value(set.jobs[0].grid_seed, i));
        let want = sess.run(2);
        assert_eq!(reply_counters(&conn.resp).map(|c| c.fields()), Some(want.fields()));
        let mut report = Report::default();
        let (modeled, unfit) = served_modeled(&core, &set, &mut report).unwrap();
        let est = CostModel::a100().estimate(&want, &sess.block());
        assert_eq!(modeled, est.gstencil_per_sec(want.points_updated));
        assert_eq!(unfit, usize::from(est.occupancy == 0.0));
        assert_eq!((report.attempted, report.failed), (1, 0));
    }
}
