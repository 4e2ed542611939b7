#!/usr/bin/env bash
# Hermetic CI for the LoRAStencil reproduction suite.
#
# The workspace has zero external dependencies (see DESIGN.md), so every
# step runs with --offline against an empty registry. Exits non-zero on
# the first failure. Each step reports its wall time.
#
# Fuzz verification (tests/fuzz_differential.rs) runs twice: inside the
# ordinary test passes with its default per-engine budgets, and as a
# dedicated bounded step whose case count honors STENCIL_VERIFY_CASES —
# export STENCIL_VERIFY_CASES=2000 (and optionally STENCIL_VERIFY_SEED)
# for a long soak run. See README.md "Fuzz verification".
set -euo pipefail
cd "$(dirname "$0")"

# step <name> <command...>: run a command, report its wall time
step() {
    local name=$1
    shift
    echo "== $name"
    local t0=$SECONDS
    "$@"
    echo "   [$name: $((SECONDS - t0))s]"
}

fmt_check() {
    if cargo fmt --version >/dev/null 2>&1; then
        cargo fmt --all --check
    else
        echo "   rustfmt not installed; skipping format check"
    fi
}

serial_tests() {
    # single-lane pass: results must be bit-identical to the parallel pass
    FOUNDATION_THREADS=1 cargo test -q --offline --workspace
}

run_examples() {
    local ex
    for ex in examples/*.rs; do
        ex=$(basename "$ex" .rs)
        echo "   -- example $ex"
        cargo run --release --offline --example "$ex" >/dev/null
    done
}

fuzz_bounded() {
    # bounded by default; STENCIL_VERIFY_CASES scales all three engines
    STENCIL_VERIFY_CASES="${STENCIL_VERIFY_CASES:-25}" \
        cargo test -q --offline --test fuzz_differential
}

quick_bench() {
    # cargo bench runs the binary with the package dir as cwd, so the
    # report paths must be rooted. Full measurement windows (no --quick):
    # the guard below needs a stable best-of-many, and the whole suite
    # still measures in ~2s. The checked-in tuning DB is installed so
    # the report reflects the tuned schedules a user actually gets.
    LORASTENCIL_TUNING_DB="$PWD/tuning.json" \
        cargo bench --offline -p bench-suite --bench executors -- \
        --baseline "$PWD/BENCH_pr2.json" --json "$PWD/BENCH_pr7.json"
}

bench_guard() {
    # machine-check the fresh report against the checked-in baseline:
    # any tracked kernel more than 10% slower than BENCH_pr2.json fails.
    # Perf gates on shared machines flake, so a tripped guard re-measures
    # — only three consecutive over-threshold readings fail the build.
    local attempt
    for attempt in 1 2 3; do
        if cargo run --release --offline -p bench-suite --bin bench_guard -- \
            --json "$PWD/BENCH_pr7.json" --max-regression 0.10; then
            return 0
        fi
        if [ "$attempt" -lt 3 ]; then
            echo "   guard tripped (attempt $attempt of 3); re-measuring"
            quick_bench
        fi
    done
    echo "error: benchmark regression confirmed on 3 consecutive runs" >&2
    exit 1
}

tune_smoke() {
    # bounded end-to-end autotune: a small budget must still produce a
    # valid DB, and a run under that DB must keep the schedule-invariant
    # counters and verified values of the default schedule (DESIGN.md §12)
    local db=target/ci-tune.json
    local cli="cargo run --release --offline -p stencil-cli --bin lorastencil-cli --"
    rm -f "$db"
    $cli tune --kernel Box-2D9P --size 96 --iters 2 --budget 6 --reps 3 \
        --db "$db" | sed 's/^/   /'
    local plain tuned
    plain=$($cli run --kernel Box-2D9P --size 96 --iters 2 --verify)
    tuned=$($cli run --kernel Box-2D9P --size 96 --iters 2 --verify --tuning-db "$db")
    # the schedule choice is free; MMA count, shuffle count, shared-load
    # requests and the verified max |Δ| are not
    local invariant='s/^counters: \([0-9]*\) MMAs.*, \([0-9]*\) shuffles, \([0-9]*\)+.*/\1 \2 \3/p
                     s/^verification.*/&/p'
    if ! diff <(sed -n "$invariant" <<<"$plain") <(sed -n "$invariant" <<<"$tuned"); then
        echo "error: tuned schedule changed an invariant counter or the values" >&2
        exit 1
    fi
    rm -f "$db"
}

backend_smoke() {
    # one kernel per dimension on all four device backends, each
    # verified against the naive reference. Within a backend family the
    # outputs are bit-identical (sparse tensor cores skip only exact-zero
    # products; SIMD keeps the scalar path's per-element tap order), so
    # the saved grids are compared byte-for-byte: sparse vs tcu, simd vs
    # cuda. Across families the accumulation order differs, which is
    # what --verify is for.
    local cli="cargo run --release --offline -p stencil-cli --bin lorastencil-cli --"
    local kernel size out
    for spec in "Heat-1D:4096" "Heat-2D:96x96" "Heat-3D:8x24x24"; do
        kernel=${spec%%:*}; size=${spec##*:}
        local backend
        for backend in tcu sparse simd cuda; do
            $cli run --kernel "$kernel" --size "$size" --iters 2 --verify \
                --backend "$backend" --save "target/ci-backend-$backend.bin" >/dev/null \
                || { echo "error: $kernel on backend $backend failed" >&2; exit 1; }
        done
        cmp -s target/ci-backend-tcu.bin target/ci-backend-sparse.bin \
            || { echo "error: $kernel: sparse output differs from dense TCU" >&2; exit 1; }
        cmp -s target/ci-backend-cuda.bin target/ci-backend-simd.bin \
            || { echo "error: $kernel: SIMD output differs from scalar CUDA" >&2; exit 1; }
        echo "   $kernel $size: 4 backends verified, sparse==tcu, simd==cuda"
    done
    rm -f target/ci-backend-*.bin
}

profile_smoke() {
    # run the profiler on a small 2-D workload, check the breakdown
    # names every instrumented host phase, and validate the emitted
    # chrome trace with the CLI's own Json::parse-based validator
    local out trace=target/ci-profile-trace.json
    out=$(cargo run --release --offline -p stencil-cli --bin lorastencil-cli -- \
        profile --kernel Box-2D9P --size 96 --iters 4 --trace-out "$trace")
    echo "$out" | sed 's/^/   /'
    local phase
    for phase in plan decompose fuse frag_build apply rdg_gather mma_batch pointwise; do
        if ! grep -q "$phase" <<<"$out"; then
            echo "error: profile breakdown is missing phase '$phase'" >&2
            exit 1
        fi
    done
    cargo run --release --offline -p stencil-cli --bin lorastencil-cli -- \
        validate-trace --load "$trace"
}

crash_resume_smoke() {
    # end-to-end crash consistency: run 6 steps with checkpointing, tear
    # the newest snapshot the way a mid-write crash would, resume, and
    # demand the resumed counters match an uninterrupted run exactly
    local dir=target/ci-ckpt cli="cargo run --release --offline -p stencil-cli --bin lorastencil-cli --"
    rm -rf "$dir"
    local straight interrupted resumed
    straight=$($cli run --kernel Box-2D9P --size 64 --iters 6 --verify)
    $cli run --kernel Box-2D9P --size 64 --iters 6 --verify \
        --checkpoint-dir "$dir" --checkpoint-every 3 >/dev/null
    # crash simulation: the newest snapshot is torn mid-write
    local newest
    newest=$(ls "$dir"/ckpt-*.lscp | sort | tail -1)
    head -c 100 "$newest" >"$newest.torn" && mv "$newest.torn" "$newest"
    resumed=$($cli resume --checkpoint-dir "$dir" --verify)
    grep -q "skipping invalid snapshot" <<<"$resumed" \
        || { echo "error: torn snapshot was not reported" >&2; exit 1; }
    # the counters line is a full execution digest; it must be identical
    if ! diff <(grep "points_updated" <<<"$straight") \
        <(grep "points_updated" <<<"$resumed"); then
        echo "error: resumed run diverged from the uninterrupted run" >&2
        exit 1
    fi
    rm -rf "$dir"
}

checkpoint_battery() {
    # the fault-injection battery again under a single lane: recovery
    # and bit-identical resume must not depend on the pool width
    FOUNDATION_THREADS=1 cargo test -q --offline --test checkpoint
}

flake_hunt() {
    # the serve and observability suites must be green at every
    # --test-threads width and on every repeat: they share a process
    # with other servers and tracers, so leaked global state shows up
    # as a red run here. Any red run fails the step.
    local threads i t
    for threads in 1 2 8; do
        cargo test -q --offline --test serve_protocol --test serve_determinism \
            --test observability -- --test-threads="$threads" >/dev/null \
            || { echo "error: serve/observability tests failed at --test-threads=$threads" >&2; exit 1; }
    done
    for t in serve_protocol observability; do
        for i in $(seq 1 20); do
            cargo test -q --offline --test "$t" >/dev/null \
                || { echo "error: $t failed on repeat $i of 20" >&2; exit 1; }
        done
        echo "   $t: 20 of 20 green"
    done
}

serve_smoke() {
    # end-to-end daemon smoke: serve over a unix socket, a plan-miss then
    # a cache-hit of the same job must answer one digest, the served
    # invariant counters must equal what an offline `run` of the
    # identical job reports, hostile frames get typed errors, `stats`
    # sees the tenant, and `shutdown` exits cleanly.
    local sock=target/ci-serve.sock
    local cli="cargo run --release --offline -p stencil-cli --bin lorastencil-cli --"
    rm -f "$sock"
    $cli serve --socket "$sock" >target/ci-serve.log 2>&1 &
    local pid=$!
    local i
    for i in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.1; done
    [ -S "$sock" ] || { echo "error: serve socket never appeared" >&2; kill "$pid" 2>/dev/null; exit 1; }
    local frame='{"kernel":"Box-2D49P","size":[40,40],"iters":3,"seed":11,"tenant":"ci"}'
    local first second
    first=$($cli submit --socket "$sock" --frame "$frame")
    second=$($cli submit --socket "$sock" --frame "$frame")
    grep -q '"cache":"miss"' <<<"$first" \
        || { echo "error: first job did not plan: $first" >&2; kill "$pid"; exit 1; }
    grep -q '"cache":"hit"' <<<"$second" \
        || { echo "error: second job did not hit the plan cache: $second" >&2; kill "$pid"; exit 1; }
    if ! diff <(grep -o '"digest":"[^"]*"' <<<"$first") <(grep -o '"digest":"[^"]*"' <<<"$second"); then
        echo "error: the cache hit changed the digest" >&2; kill "$pid"; exit 1
    fi
    # invariant-counter parity with the offline CLI on the identical
    # job. Only the Prediction-class counters are compared: the daemon
    # schedule-tunes on a cache miss, and descriptive counters (L2/HBM
    # staging traffic, store requests) legitimately move with the tuned
    # schedule — the determinism contract (DESIGN.md §13) pins values
    # and invariants, not the schedule.
    local o_mma o_shuf o_shload
    read -r o_mma o_shuf o_shload < <($cli run --kernel Box-2D49P --size 40 --iters 3 \
        | sed -n 's/^counters: \([0-9]*\) MMAs, [0-9]* CUDA flops, \([0-9]*\) shuffles, \([0-9]*\)+[0-9]* shared req, .*$/\1 \2 \3/p')
    [ -n "$o_mma" ] || { echo "error: could not parse offline counters" >&2; kill "$pid"; exit 1; }
    local kv
    for kv in "mma_ops:$o_mma" "shuffle_ops:$o_shuf" "shared_load_requests:$o_shload"; do
        grep -q "\"${kv%%:*}\":${kv##*:}[,}]" <<<"$second" || {
            echo "error: served counter ${kv%%:*} diverged from the offline run (want $kv): $second" >&2
            kill "$pid"; exit 1
        }
    done
    local bad
    bad=$($cli submit --socket "$sock" --frame 'not json {')
    { grep -q '"ok":false' <<<"$bad" && grep -q '"kind":"parse"' <<<"$bad" \
        && grep -q '"offset":' <<<"$bad"; } \
        || { echo "error: malformed frame did not get a typed parse error: $bad" >&2; kill "$pid"; exit 1; }
    local stats
    stats=$($cli submit --socket "$sock" --frame '{"op":"stats"}')
    { grep -q '"ci"' <<<"$stats" && grep -q '"coalesced"' <<<"$stats"; } \
        || { echo "error: stats is missing the tenant or the cache fields: $stats" >&2; kill "$pid"; exit 1; }
    $cli submit --socket "$sock" --frame '{"op":"shutdown"}' >/dev/null
    wait "$pid" || { echo "error: serve exited non-zero after shutdown" >&2; exit 1; }
    rm -f "$sock" target/ci-serve.log
}

loadgen_bench() {
    # drive the daemon core in-process: warm cache-hit throughput must
    # beat cold re-planning by >=5x (the loadgen retries 3 times before
    # failing), and open-loop p50/p99 latency lands in BENCH_pr8.json.
    # The report entries carry no speedup_vs_baseline, so bench_guard
    # treats them as informational; the >=5x gate is loadgen's own.
    cargo run --release --offline -p bench-suite --bin loadgen -- \
        --json "$PWD/BENCH_pr8.json" | sed 's/^/   /'
}

emit_smoke() {
    # multi-target codegen smoke: every emit target across one kernel
    # per dimensionality and all four device backends must render
    # non-empty, and each target's output is diffed byte-for-byte
    # against its checked-in goldens (tests/snapshots/{cuda,hip,wgsl}/)
    # — any drift fails the build. Regenerate goldens
    # deliberately with UPDATE_SNAPSHOTS=1 (see tests/codegen_snapshots.rs).
    local cli="cargo run --release --offline -p stencil-cli --bin lorastencil-cli --"
    local kernel backend target out=target/ci-emit.out
    for kernel in Heat-1D Box-2D49P Heat-3D; do
        for backend in tcu sparse simd cuda; do
            for target in cuda hip wgsl; do
                $cli emit --kernel "$kernel" --backend "$backend" --target "$target" >"$out" \
                    || { echo "error: emit $kernel/$backend/$target failed" >&2; exit 1; }
                [ -s "$out" ] || { echo "error: emit $kernel/$backend/$target is empty" >&2; exit 1; }
            done
        done
        # golden pin: `emit --target <t>` == the checked-in snapshot
        local stem golden spec
        stem=$(tr '[:upper:]' '[:lower:]' <<<"$kernel")
        for spec in cuda:cu hip:hip wgsl:wgsl; do
            target=${spec%%:*}
            golden="tests/snapshots/$target/$stem.${spec##*:}"
            $cli emit --kernel "$kernel" --target "$target" >"$out"
            diff -u "$golden" "$out" \
                || { echo "error: $kernel $target listing drifted from $golden" >&2; exit 1; }
        done
        echo "   $kernel: 3 targets x 4 backends emitted; every target matches its golden"
    done
    # a near-miss --target spelling must fail with a suggestion
    if $cli emit --kernel Heat-1D --target wsgl >/dev/null 2>"$out"; then
        echo "error: emit accepted bogus target wsgl" >&2; exit 1
    fi
    grep -q "did you mean wgsl?" "$out" \
        || { echo "error: no 'did you mean wgsl?' suggestion for --target wsgl" >&2; exit 1; }
    rm -f "$out"
}

perfbench_tests() {
    # perfbench is a workspace of its own (so the benchmark can build it
    # from any checkout); build and test it against the current crates so
    # a public-API break fails here, not when the benchmark next runs.
    # Its exact_counts test also re-checks zero allocs and zero spawns
    # per step and per serve hit at FOUNDATION_THREADS 1 and 2.
    cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
}

dep_audit() {
    if cargo tree --offline --workspace --prefix none 2>/dev/null \
        | grep -vE "^\s*$|^\[dev-dependencies\]$" \
        | grep -v "(/"; then
        echo "error: external dependency found in cargo tree" >&2
        exit 1
    fi
}

step "cargo fmt --check" fmt_check
step "cargo build --release --offline" cargo build --release --offline --workspace
step "cargo test -q --offline" cargo test -q --offline --workspace
step "cargo test -q --offline (FOUNDATION_THREADS=1)" serial_tests
step "examples (cargo run --release --example *)" run_examples
step "bounded fuzz (STENCIL_VERIFY_CASES=${STENCIL_VERIFY_CASES:-25})" fuzz_bounded
step "quick executor bench (tuned schedules, writes BENCH_pr7.json)" quick_bench
step "bench regression guard (>10% vs BENCH_pr2.json fails)" bench_guard
step "tune smoke (bounded autotune + invariant-counter check)" tune_smoke
step "backend smoke (4 backends x 3 dims, verify + in-family bit-identity)" backend_smoke
step "profile smoke (stencil-cli profile + trace validation)" profile_smoke
step "crash-resume smoke (run, tear newest snapshot, resume)" crash_resume_smoke
step "flake hunt (serve + observability at 1/2/8 test threads, 20 repeats)" flake_hunt
step "serve smoke (daemon over unix socket: parity, errors, shutdown)" serve_smoke
step "serve loadgen (hit vs cold-plan >=5x gate, writes BENCH_pr8.json)" loadgen_bench
step "emit smoke (3 targets x 4 backends x 3 dims; golden diff per target)" emit_smoke
step "checkpoint battery (FOUNDATION_THREADS=1)" checkpoint_battery
step "perfbench build + tests (benchmark crate against the workspace)" perfbench_tests
step "dependency audit (workspace members only)" dep_audit

echo "CI green"
