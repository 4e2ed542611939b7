//! Zero-allocation steady-state executor loop: once a [`Stepper`] is
//! warmed up, further time steps perform **no heap allocation** and
//! spawn **no threads** — the double-buffered grids, the tiling, the
//! weight fragments, the counter slots and the per-worker scratch are
//! all reused, and the worker pool persists (see DESIGN.md, "Host-side
//! performance model"). The serve daemon extends the guarantee to whole
//! requests: a warm plan-cache hit answers without allocating or
//! spawning either.
//!
//! This binary installs [`CountingAllocator`] as its global allocator,
//! so [`allocation_count`] observes every heap allocation the process
//! makes.

use foundation::alloc_counter::{allocation_count, CountingAllocator};
use foundation::par::threads_spawned;
use lorastencil::{ExecConfig, Plan, Stepper};
use stencil_core::kernels;
use tcu_sim::GlobalArray;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One test function (not two) so the `FOUNDATION_THREADS` mutations
/// cannot race another test in this binary.
#[test]
fn steady_state_steps_allocate_nothing_and_spawn_nothing() {
    // The executors' hot paths carry compiled-in `foundation::obs::span`
    // sites; with tracing disabled each costs one relaxed atomic load —
    // no clock read, no event, no allocation — so the assertions below
    // also prove the observability layer is free when off.
    assert!(!foundation::obs::enabled(), "span tracing must default to off");
    let plan = Plan::new(&kernels::box_2d9p(), ExecConfig::full());
    let mut input = GlobalArray::new(64, 64);
    for r in 0..64 {
        for c in 0..64 {
            input.poke(r, c, ((r * 13 + c * 7) % 19) as f64 * 0.25 - 1.0);
        }
    }
    let mut stepper = Stepper::new(plan, vec![input]);

    // Allocation assertion under sequential lanes: each pool worker
    // lazily allocates its tile scratch on the first tile it ever runs,
    // and the OS scheduler decides when a worker first wins a lane, so
    // only the single-lane loop has a deterministic allocation profile.
    std::env::set_var("FOUNDATION_THREADS", "1");
    stepper.step();
    stepper.step(); // warm-up: counter slots, main-thread scratch
    let allocs = allocation_count();
    for _ in 0..8 {
        stepper.step();
    }
    assert_eq!(
        allocation_count(),
        allocs,
        "steady-state steps must not allocate (FOUNDATION_THREADS=1)"
    );

    // Checkpointing must not poison the hot loop: capturing and
    // persisting a snapshot allocates (it clones the live planes and
    // encodes them), but the steps *between* checkpoints must stay
    // allocation-free — the snapshot hook may not leave any per-step
    // allocation behind in the stepper.
    let store_dir = std::env::temp_dir().join("lorastencil-steady-ckpt");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = stencil_core::checkpoint::CheckpointStore::new(&store_dir, 2).unwrap();
    let kernel = kernels::box_2d9p();
    let fingerprint =
        lorastencil::checkpoint::plan_fingerprint(&kernel, ExecConfig::full(), &[64, 64]).unwrap();
    for round in 0..3u64 {
        // a checkpoint boundary: copy + encode + fsync (may allocate)
        let planes = stepper.planes();
        let snap = stencil_core::checkpoint::Snapshot {
            flags: stencil_core::checkpoint::FLAG_SEEDED_INPUT,
            fingerprint,
            step: round,
            steps_total: 3,
            every: 1,
            seed: 0,
            rng: [0; 4],
            kernel: kernel.name.clone(),
            config: ExecConfig::full().tag(),
            method: "LoRAStencil".into(),
            extents: vec![64, 64],
            counters: tcu_sim::PerfCounters::new(),
            planes: planes
                .iter()
                .map(|p| stencil_core::checkpoint::Plane {
                    rows: p.rows(),
                    cols: p.cols(),
                    data: p.as_slice().to_vec(),
                })
                .collect(),
        };
        store.save(&snap).unwrap();
        // ... and the steps between checkpoints stay allocation-free
        let allocs = allocation_count();
        for _ in 0..4 {
            stepper.step();
        }
        assert_eq!(
            allocation_count(),
            allocs,
            "steps between checkpoints must not allocate (round {round})"
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    // The serve stack inherits the guarantee: a warm cache-hit request
    // allocates nothing and spawns nothing. The first request plans
    // (and tunes) the shape; the second warms the pooled session plus
    // the connection's job-spec/response buffers; after that the whole
    // request path — zero-copy frame parse, pool checkout, fill, run,
    // digest, response write, tenant metrics — reuses what it has.
    let core = stencil_cli::serve::ServerCore::new(stencil_cli::serve::ServeConfig::default());
    let mut conn = stencil_cli::serve::ConnState::new();
    let frame = r#"{"kernel":"Box-2D9P","size":[16,16],"iters":1,"seed":3,"values":"none"}"#;
    for _ in 0..2 {
        let _ = core.handle_line(&mut conn, frame);
        assert!(conn.resp.contains("\"ok\":true"), "warm-up failed: {}", conn.resp);
    }
    let allocs = allocation_count();
    let spawned = threads_spawned();
    for _ in 0..8 {
        let _ = core.handle_line(&mut conn, frame);
        assert!(conn.resp.contains("\"cache\":\"hit\""), "not a hit: {}", conn.resp);
    }
    assert_eq!(
        allocation_count(),
        allocs,
        "warm serve cache hits must not allocate (FOUNDATION_THREADS=1)"
    );
    assert_eq!(threads_spawned(), spawned, "warm serve cache hits must not spawn threads");

    // Spawn assertion under parallel lanes: the pool grows eagerly on
    // the first call that wants more lanes, so after one warm-up step
    // the worker count is deterministic and must stay flat — at every
    // pool width, including one wider than the job count divides evenly.
    for lanes in ["2", "7"] {
        std::env::set_var("FOUNDATION_THREADS", lanes);
        stepper.step(); // warm-up: grows the pool to `lanes - 1` workers
        let spawned = threads_spawned();
        for _ in 0..8 {
            stepper.step();
        }
        assert_eq!(
            threads_spawned(),
            spawned,
            "steady-state steps must not spawn threads (FOUNDATION_THREADS={lanes})"
        );
    }
    std::env::remove_var("FOUNDATION_THREADS");
}
