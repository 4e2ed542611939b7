//! The C-family emitter: the CUDA/WMMA listing of the paper and its
//! HIP/rocWMMA analogue for CDNA GPUs, rendered from one source. The
//! CUDA listing is the reference output of the codegen layer
//! (byte-stable, pinned by checked-in goldens and the ci.sh emit-smoke
//! diff).
//!
//! Renders `cp.async` staging (§IV-B), `wmma::load_matrix_sync`
//! fragment loads (Eq. 12), the per-term `mma.sync.aligned.m8n8k4.f64`
//! chains of RDG (§III-B) — `mma.sp` with packed 2:4 metadata for
//! compressed terms on the sparse backend — and the butterfly register
//! reinterpretation of BVS (§III-D), which appears as *no code at all*
//! on the T side, only as the swapped row mapping baked into the V
//! constants. Scalar ablation backends get an honest scalar tap loop
//! over raw `u`/`v` factor tables instead of fragment constants.
//!
//! A [`Dialect`] is the only per-target input: spellings and nouns are
//! data, and every mechanism gap is a branch on its [`Caps`] — without
//! `cp_async` the staging lowers to a plain staged copy (double-buffered
//! prefetches lose their hardware overlap), and without `sparse_mma`
//! sparse-backend plans run every term's dense chain, each annotated
//! with the fallback. The per-lane constant tables are the A100
//! `m8n8k4` mapping on every dialect (on CDNA it occupies lanes 0..31
//! of the 64-wide wave; the capability header says so).

use super::{banner, lit, tile_name, Caps, ChainLower, Cx, EmitState, Target};
use crate::rdg::{build_u_frags, build_v_frags};
use crate::schedule::{AccFold, AccSplit, BackendKind, Op, Schedule, Staging};
use std::fmt::Write as _;
use tcu_sim::{CopyMode, FragASp};

/// Everything that differs between two C-family WMMA targets.
pub struct Dialect {
    /// The target this dialect renders.
    target: Target,
    /// The target's capability matrix; every fallback branches on it.
    caps: Caps,
    /// WMMA namespace (`wmma` / `rocwmma`).
    ns: &'static str,
    /// Lane-id call.
    lane: &'static str,
    /// Warp/wave barrier call.
    barrier: &'static str,
    /// Shuffle call up to its value argument.
    shfl: &'static str,
    /// The double-buffered slot wait line, split around the slot number.
    slot_wait: (&'static str, &'static str),
    /// The SIMT group noun (warp / wave).
    warp: &'static str,
    /// The on-chip scratchpad noun (shared / LDS).
    shared: &'static str,
    /// The same, as a modifier ("no shared-memory staging").
    shared_mem: &'static str,
    /// The scalar cores' name (CUDA / scalar).
    scalar_cores: &'static str,
    /// The scalar accumulator's comment.
    scalar_acc: &'static str,
    /// The matrix units' name (tensor / matrix).
    mma_cores: &'static str,
    /// The architecture named by fallback comments.
    arch: &'static str,
    /// The vector register file named by the staged-copy fallback.
    vregs: &'static str,
    /// Capability header after the banner (empty for the reference).
    header: &'static str,
}

/// NVIDIA CUDA on the A100: everything in the capability matrix.
pub const CUDA: Dialect = Dialect {
    target: Target::Cuda,
    caps: Caps { wmma: true, sparse_mma: true, cp_async: true, subgroup_shuffle: true },
    ns: "wmma",
    lane: "laneid()",
    barrier: "__syncwarp()",
    shfl: "__shfl_sync(~0u, ",
    slot_wait: ("asm volatile(\"cp.async.wait_group 1;\"); // slot ", " is landed"),
    warp: "warp",
    shared: "shared",
    shared_mem: "shared-memory",
    scalar_cores: "CUDA",
    scalar_acc: "scalar (CUDA-core)",
    mma_cores: "tensor",
    arch: "Ampere",
    vregs: "registers",
    header: "",
};

/// AMD HIP on CDNA: WMMA and shuffles, but no `cp.async` and no f64
/// structured sparsity.
pub const HIP: Dialect = Dialect {
    target: Target::Hip,
    caps: Caps { wmma: true, sparse_mma: false, cp_async: false, subgroup_shuffle: true },
    ns: "rocwmma",
    lane: "__lane_id()",
    barrier: "__builtin_amdgcn_wave_barrier()",
    shfl: "__shfl(",
    slot_wait: ("__builtin_amdgcn_s_waitcnt(0); // vmcnt(0): slot ", " loads landed"),
    warp: "wave",
    shared: "LDS",
    shared_mem: "LDS",
    scalar_cores: "scalar",
    scalar_acc: "scalar-core",
    mma_cores: "matrix",
    arch: "CDNA",
    vregs: "VGPR",
    header: "\
// ------------------------------------------------------------ HIP / CDNA
// capability audit — how LoRAStencil's mechanisms land on this target:
//   wmma m8n8k4 f64    : NATIVE    rocWMMA fragments on the matrix cores
//   2:4 sparse mma.sp  : FALLBACK  no f64 structured sparsity on CDNA;
//                                  sparse-plan terms run the dense chain
//   cp.async staging   : FALLBACK  no global->LDS bypass instruction;
//                                  staged copy through the register file
//   subgroup shuffle   : NATIVE    __shfl across the wave (wave64: the
//                                  m8n8k4 layout occupies lanes 0..31)
// ------------------------------------------------------------------------
",
};

/// Render one term's dense weight-constant tables (the `U_k`/`V_k`
/// fragments) as `__constant__` arrays: one U/V pair per rank-1 term.
fn dense_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let u = build_u_frags(term, sched.geo);
    writeln!(out, "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ)", term.side()).unwrap();
    writeln!(out, "__constant__ double U{ti}[{}][32] = {{ /* per-lane A fragments */", u.len())
        .unwrap();
    for frag in &u {
        let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
        writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
    }
    writeln!(out, "}};").unwrap();
    dense_v_table(sched, ti, out);
}

/// The dense per-lane V table (shared by the dense and sparse chains —
/// only the U side compresses).
fn dense_v_table(sched: &Schedule, ti: usize, out: &mut String) {
    let use_bvs = sched.split == AccSplit::Bvs;
    let v = build_v_frags(&sched.terms[ti].term, sched.geo, use_bvs);
    writeln!(
        out,
        "__constant__ double V{ti}[{}][32] = {{ /* per-lane B fragments{} */",
        v.len(),
        if use_bvs { ", butterfly-row-swapped (Eq. 17)" } else { "" }
    )
    .unwrap();
    for frag in &v {
        let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
        writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
    }
    writeln!(out, "}};").unwrap();
}

/// Render one term's 2:4-compressed tables for the sparse backend: the
/// surviving U values, the packed metadata words that steer `mma.sp`'s
/// operand muxes, and the (dense) V table.
fn sparse_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let sp: Vec<FragASp> = build_u_frags(term, sched.geo)
        .iter()
        .map(|f| FragASp::compress(f).expect("chain_lower only picks MmaSparse for 2:4 terms"))
        .collect();
    writeln!(
        out,
        "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ), U 2:4-compressed",
        term.side()
    )
    .unwrap();
    writeln!(
        out,
        "__constant__ double U{ti}sp[{}][16] = {{ /* 2 surviving values per row */",
        sp.len()
    )
    .unwrap();
    for frag in &sp {
        let row: Vec<String> =
            frag.vals.iter().flat_map(|pair| pair.iter().map(|x| lit(*x))).collect();
        writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
    }
    writeln!(out, "}};").unwrap();
    let meta: Vec<String> = sp.iter().map(|frag| format!("{:#010x}", pack_meta(frag))).collect();
    writeln!(
        out,
        "// sparsity metadata: 2-bit k index per surviving value, 4 bits/row, row 0 at LSB"
    )
    .unwrap();
    writeln!(out, "__constant__ unsigned U{ti}meta[{}] = {{{}}};", sp.len(), meta.join(", "))
        .unwrap();
    dense_v_table(sched, ti, out);
}

/// Pack one fragment's 2-bit K indices into the `mma.sp` metadata word:
/// row `r`, slot `s` lands at bits `4r + 2s`.
pub(crate) fn pack_meta(frag: &FragASp) -> u32 {
    let mut m = 0u32;
    for (r, pair) in frag.idx.iter().enumerate() {
        for (s, idx) in pair.iter().enumerate() {
            m |= u32::from(*idx) << (4 * r + 2 * s);
        }
    }
    m
}

/// Render one term's raw factor tables for the scalar-chain backends
/// (CUDA-core / tuned-SIMD ablations): the chain taps `u`/`v` directly,
/// so per-lane fragment constants would be dead weight.
fn scalar_term_tables(sched: &Schedule, ti: usize, out: &mut String) {
    let term = &sched.terms[ti].term;
    let shift = sched.geo.h - term.radius();
    writeln!(
        out,
        "// term {ti}: {0}x{0} rank-1 pyramid level (u ⊗ vᵀ) — raw factors, scalar chain",
        term.side()
    )
    .unwrap();
    let us: Vec<String> = term.u.iter().map(|x| lit(*x)).collect();
    let vs: Vec<String> = term.v.iter().map(|x| lit(*x)).collect();
    writeln!(out, "__constant__ double u{ti}[{}] = {{{}}};", term.u.len(), us.join(", ")).unwrap();
    writeln!(out, "__constant__ double v{ti}[{}] = {{{}}};", term.v.len(), vs.join(", ")).unwrap();
    writeln!(out, "const int shift{ti} = {shift};   // band offset h - h_t (Eq. 10)").unwrap();
}

impl Dialect {
    /// Emit the global→shared staging of one S×S window (2-D/3-D
    /// [`Op::Stage`]); `src` names the input pointer being staged and
    /// `slot` the shared window the copy lands in.
    fn stage(&self, sched: &Schedule, src: &str, slot: u8, out: &mut String) {
        let (lane, shared) = (self.lane, self.shared);
        let s = sched.geo.s;
        let h = sched.h;
        let tile = tile_name(sched, slot);
        let is_async = sched.copy_mode == CopyMode::Async;
        if is_async && self.caps.cp_async {
            writeln!(out, "  // §IV-B: cp.async global->shared copy, bypassing the register file")
                .unwrap();
            writeln!(out, "  for (int e = {lane}; e < {s}*{s}; e += 32) {{").unwrap();
            writeln!(
                out,
                "    const int rr = mod(r0 - {h} + e / {s}, rows), cc = mod(c0 - {h} + e % {s}, cols);"
            )
            .unwrap();
            writeln!(out, "    asm volatile(\"cp.async.ca.shared.global [%0], [%1], 8;\" ::")
                .unwrap();
            writeln!(
                out,
                "      \"r\"(&{tile}[e / {s}][e % {s}]), \"l\"(&{src}[rr * cols + cc]));"
            )
            .unwrap();
            writeln!(out, "  }}").unwrap();
            if sched.staging == Staging::Double {
                writeln!(out, "  // no wait here: the copy drains while the live slot's MMA")
                    .unwrap();
                writeln!(out, "  // chain runs (cp.async.wait_group before this slot is read)")
                    .unwrap();
            } else {
                writeln!(out, "  asm volatile(\"cp.async.wait_all;\");").unwrap();
            }
        } else {
            if is_async {
                let (arch, vregs) = (self.arch, self.vregs);
                writeln!(
                    out,
                    "  // §IV-B analogue: no cp.async on {arch} — staged copy global -> {vregs} -> {shared}"
                )
                .unwrap();
                if sched.staging == Staging::Double {
                    writeln!(
                        out,
                        "  // (the prefetch overlap now relies on the compiler hoisting these"
                    )
                    .unwrap();
                    writeln!(out, "  //  loads across the live slot's MMA chain)").unwrap();
                }
            } else {
                writeln!(out, "  // staged copy: global -> registers -> {shared}").unwrap();
            }
            writeln!(out, "  for (int e = {lane}; e < {s}*{s}; e += 32)").unwrap();
            writeln!(out, "    {tile}[e / {s}][e % {s}] = {src}[mod(r0 - {h} + e / {s}, rows) * cols + mod(c0 - {h} + e % {s}, cols)];").unwrap();
        }
        writeln!(out, "  {};", self.barrier).unwrap();
    }

    /// Emit the X fragment loads ([`Op::FragBuild`], Eq. 12) from shared
    /// window `slot`.
    fn frag_build(&self, sched: &Schedule, slot: u8, declared: &mut bool, out: &mut String) {
        let ns = self.ns;
        let geo = sched.geo;
        let s = geo.s;
        let tile = tile_name(sched, slot);
        writeln!(out).unwrap();
        writeln!(
            out,
            "  // Eq. 12: load the {}x{} window once as {} B fragments, reused by every term",
            s,
            s,
            geo.row_blocks() * geo.col_blocks()
        )
        .unwrap();
        if !*declared {
            writeln!(
                out,
                "  {ns}::fragment<{ns}::matrix_b, 8, 8, 4, double, {ns}::col_major> X[{}][{}];",
                geo.row_blocks(),
                geo.col_blocks()
            )
            .unwrap();
            *declared = true;
        }
        if sched.staging == Staging::Double && sched.copy_mode == CopyMode::Async {
            let (head, tail) = self.slot_wait;
            writeln!(out, "  {head}{slot}{tail}").unwrap();
        }
        writeln!(out, "  for (int rb = 0; rb < {}; ++rb)", geo.row_blocks()).unwrap();
        writeln!(out, "    for (int cb = 0; cb < {}; ++cb)", geo.col_blocks()).unwrap();
        writeln!(out, "      {ns}::load_matrix_sync(X[rb][cb], &{tile}[4 * rb][8 * cb], {s});")
            .unwrap();
    }

    /// Emit one RDG matrix chain ([`Op::MmaChain`]) on the selected backend.
    fn chain(&self, cx: &Cx, ti: usize, out: &mut String) {
        let (ns, lane, mma_cores) = (self.ns, self.lane, self.mma_cores);
        let sched = cx.sched;
        let geo = sched.geo;
        writeln!(out).unwrap();
        let lower = cx.chain_lower(self.caps, ti);
        if lower == ChainLower::Scalar {
            let term = &sched.terms[ti].term;
            let on = if sched.backend == BackendKind::SimdCore {
                "tuned SIMD lanes".to_string()
            } else {
                format!("{} cores", self.scalar_cores)
            };
            writeln!(out, "  // ---- RDG term {ti} on {on} (ablation: {mma_cores} cores off) ----")
                .unwrap();
            writeln!(out, "  for (int e = {lane}; e < 64; e += 32) {{").unwrap();
            writeln!(out, "    const int p = e / 8, q = e % 8; double s = 0.0;").unwrap();
            writeln!(
                out,
                "    for (int i = 0; i < {}; ++i)   // T = U{ti} · X (vertical gather)",
                term.u.len()
            )
            .unwrap();
            writeln!(
                out,
                "      for (int j = 0; j < {}; ++j) // R += T · V{ti} (horizontal gather)",
                term.v.len()
            )
            .unwrap();
            writeln!(
                out,
                "        s += u{ti}[i] * v{ti}[j] * tile[p + shift{ti} + i][q + shift{ti} + j];"
            )
            .unwrap();
            writeln!(out, "    acc_s[e] += s;").unwrap();
            writeln!(out, "  }}").unwrap();
            return;
        }
        if lower == ChainLower::MmaSparse {
            writeln!(
                out,
                "  // ---- RDG term {ti} (§III-B, 2:4 sparse): acc += U{ti} · X · V{ti} ----"
            )
            .unwrap();
        } else {
            writeln!(out, "  // ---- RDG term {ti} (§III-B): acc += U{ti} · X · V{ti} ----")
                .unwrap();
            if sched.backend == BackendKind::SparseTcu {
                if self.caps.sparse_mma {
                    writeln!(
                        out,
                        "  // (2:4 validator rejects this term — a U row has >2 nonzeros in its"
                    )
                    .unwrap();
                    writeln!(out, "  //  4-wide k window — dense chain fallback)").unwrap();
                } else {
                    writeln!(
                        out,
                        "  // (no f64 2:4 sparse tensor cores on {} — dense chain fallback)",
                        self.arch
                    )
                    .unwrap();
                }
            }
        }
        writeln!(out, "  for (int j = 0; j < {}; ++j) {{", geo.col_blocks()).unwrap();
        writeln!(out, "    {ns}::fragment<{ns}::accumulator, 8, 8, 4, double> T;").unwrap();
        writeln!(out, "    {ns}::fill_fragment(T, 0.0);").unwrap();
        if lower == ChainLower::MmaSparse {
            writeln!(
                out,
                "    for (int k = 0; k < {}; ++k)   // step 1: sparse vertical gather",
                geo.row_blocks()
            )
            .unwrap();
            writeln!(
                out,
                "      // mma.sp.sync.aligned.m8n8k4.f64: U{ti}meta steers the 2:4 operand muxes"
            )
            .unwrap();
            writeln!(out, "      mma_sp_sync(T, fragA_sp(U{ti}sp[k]), X[k][j], U{ti}meta[k]);")
                .unwrap();
        } else {
            writeln!(
                out,
                "    for (int k = 0; k < {}; ++k)   // step 1: vertical gather",
                geo.row_blocks()
            )
            .unwrap();
            writeln!(out, "      {ns}::mma_sync(T, fragA(U{ti}[k]), X[k][j], T);").unwrap();
        }
        let (a0, a1) = if sched.split == AccSplit::Bvs {
            writeln!(out, "    // step 2 + §III-D BVS: T's register 0/1 ARE the two A fragments —")
                .unwrap();
            writeln!(
                out,
                "    // zero shuffles; the butterfly row swap lives in the V{ti} constants"
            )
            .unwrap();
            ("reinterpretA(T.x[0])", "reinterpretA(T.x[1])")
        } else {
            let shfl = self.shfl;
            writeln!(
                out,
                "    // step 2 without BVS: natural column split needs cross-lane shuffles"
            )
            .unwrap();
            writeln!(out, "    double lo = {shfl}T.x[0], shuf_lo({lane}));").unwrap();
            writeln!(out, "    double hi = {shfl}T.x[1], shuf_hi({lane}));").unwrap();
            ("fragA_from(lo, hi, 0)", "fragA_from(lo, hi, 1)")
        };
        writeln!(out, "    {ns}::mma_sync(acc, {a0}, fragB(V{ti}[2 * j + 0]), acc);").unwrap();
        writeln!(out, "    {ns}::mma_sync(acc, {a1}, fragB(V{ti}[2 * j + 1]), acc);").unwrap();
        writeln!(out, "  }}").unwrap();
    }

    /// Emit the pointwise pyramid tip ([`Op::Pointwise`], §III-C).
    fn tip(&self, sched: &Schedule, weight: f64, out: &mut String) {
        if weight == 0.0 {
            return;
        }
        let lane = self.lane;
        let h = sched.h;
        writeln!(out).unwrap();
        writeln!(out, "  // §III-C pyramid tip: 1x1 term, no matrix multiply needed").unwrap();
        if matches!(sched.backend, BackendKind::CudaCore | BackendKind::SimdCore) {
            writeln!(out, "  for (int e = {lane}; e < 64; e += 32)").unwrap();
            writeln!(out, "    acc_s[e] += {weight:.17e} * tile[{h} + e / 8][{h} + e % 8];")
                .unwrap();
        } else {
            for r in 0..2 {
                writeln!(
                    out,
                    "  acc.x[{r}] += {weight:.17e} * tile[{h} + accRow({lane})][{h} + accCol({lane}, {r})];"
                )
                .unwrap();
            }
        }
    }

    /// Declare the shared input window(s): one per warp, or a two-slot
    /// ping-pong array under double-buffered staging.
    fn tile_decl(&self, sched: &Schedule, out: &mut String) {
        let warp = self.warp;
        let s = sched.geo.s;
        if sched.staging == Staging::Double {
            writeln!(
                out,
                "  __shared__ double tile[2][{s}][{s}];   // double-buffered window slots per {warp}"
            )
            .unwrap();
        } else {
            writeln!(out, "  __shared__ double tile[{s}][{s}];   // one input window per {warp}")
                .unwrap();
        }
    }

    /// Emit the fused 1-D segment pack + banded gather ([`Op::RdgGather`],
    /// §IV-C).
    fn gather_1d(&self, sched: &Schedule, out: &mut String) {
        let lane = self.lane;
        let sl = sched.seg_len;
        let h = sched.h;
        writeln!(out, "  // §IV-C: pack 8 overlapping {sl}-long segments as the rows of X")
            .unwrap();
        let is_async = sched.copy_mode == CopyMode::Async;
        if is_async && self.caps.cp_async {
            writeln!(out, "  for (int e = {lane}; e < 8 * {sl}; e += 32) {{").unwrap();
            writeln!(
                out,
                "    const int seg = e / {sl}, c = mod(i0 + 8 * seg - {h} + e % {sl}, n);"
            )
            .unwrap();
            writeln!(out, "    asm volatile(\"cp.async.ca.shared.global [%0], [%1], 8;\" ::")
                .unwrap();
            writeln!(out, "      \"r\"(&seg_tile[seg][e % {sl}]), \"l\"(&in[c]));").unwrap();
            writeln!(out, "  }}").unwrap();
            writeln!(out, "  asm volatile(\"cp.async.wait_all;\");").unwrap();
        } else {
            if is_async {
                writeln!(out, "  // (no cp.async on {} — staged copy fallback)", self.arch)
                    .unwrap();
            } else {
                writeln!(out, "  // staged copy: global -> registers -> {}", self.shared).unwrap();
            }
            writeln!(out, "  for (int e = {lane}; e < 8 * {sl}; e += 32)").unwrap();
            writeln!(
                out,
                "    seg_tile[e / {sl}][e % {sl}] = in[mod(i0 + 8 * (e / {sl}) - {h} + e % {sl}, n)];"
            )
            .unwrap();
        }
        writeln!(out, "  {};", self.barrier).unwrap();
        writeln!(out).unwrap();
        writeln!(
            out,
            "  // the single banded MM gathers the whole dimension: {} chained MMAs, no MCM",
            sched.v1d.len()
        )
        .unwrap();
        writeln!(out, "  for (int blk = 0; blk < {}; ++blk)", sched.v1d.len()).unwrap();
        writeln!(
            out,
            "    {}::mma_sync(acc, fragA(&seg_tile[0][4 * blk]), fragB(V1D[blk]), acc);",
            self.ns
        )
        .unwrap();
    }
}

impl super::Emitter for Dialect {
    fn target(&self) -> Target {
        self.target
    }

    fn caps(&self) -> Caps {
        self.caps
    }

    fn prologue(&self, cx: &Cx, out: &mut String) {
        banner(cx, out);
        out.push_str(self.header);
    }

    fn term_tables(&self, cx: &Cx, ti: usize, out: &mut String) {
        match cx.chain_lower(self.caps, ti) {
            ChainLower::Mma | ChainLower::MmaEmulated => dense_term_tables(cx.sched, ti, out),
            ChainLower::MmaSparse => sparse_term_tables(cx.sched, ti, out),
            ChainLower::Scalar => scalar_term_tables(cx.sched, ti, out),
        }
    }

    /// The 1-D banded `V` table (Eq. 11 — the single gather matrix).
    fn banded_table(&self, cx: &Cx, out: &mut String) {
        let sched = cx.sched;
        writeln!(
            out,
            "// banded gather matrix V (Eq. 11): {}x8 as {} B fragments",
            sched.seg_len,
            sched.v1d.len()
        )
        .unwrap();
        writeln!(
            out,
            "__constant__ double V1D[{}][32] = {{ /* per-lane B fragments */",
            sched.v1d.len()
        )
        .unwrap();
        for frag in &sched.v1d {
            let row: Vec<String> = frag.lanes.iter().map(|x| lit(*x)).collect();
            writeln!(out, "  {{{}}},", row.join(", ")).unwrap();
        }
        writeln!(out, "}};").unwrap();
    }

    fn kernel_open(&self, cx: &Cx, out: &mut String) {
        let sched = cx.sched;
        writeln!(out).unwrap();
        let fn_name = cx.fn_name();
        let input = if sched.dims == 3 {
            "const double* const* __restrict__ planes"
        } else {
            "const double* __restrict__ in"
        };
        writeln!(out, "__global__ void lorastencil_{fn_name}({input},").unwrap();
        if sched.dims == 1 {
            writeln!(out, "                               double* __restrict__ outp, int n) {{")
                .unwrap();
            writeln!(
                out,
                "  __shared__ double seg_tile[8][{}];   // 8 overlapping segments per {}",
                sched.seg_len, self.warp
            )
            .unwrap();
            writeln!(out, "  const int i0 = 64 * (blockIdx.x * blockDim.y + threadIdx.y);")
                .unwrap();
        } else {
            writeln!(
                out,
                "                               double* __restrict__ outp, int rows, int cols) {{"
            )
            .unwrap();
            if sched.dims == 3 {
                writeln!(
                    out,
                    "  // one output plane per blockIdx.z; input planes wrap periodically"
                )
                .unwrap();
            }
            self.tile_decl(sched, out);
            writeln!(out, "  const int r0 = 8 * (blockIdx.y * blockDim.y + threadIdx.y);").unwrap();
            writeln!(out, "  const int c0 = 8 * blockIdx.x;").unwrap();
            if sched.dims == 3 {
                writeln!(out, "  const int z = blockIdx.z;").unwrap();
            }
        }
        writeln!(out).unwrap();
        if matches!(sched.backend, BackendKind::CudaCore | BackendKind::SimdCore)
            || sched.fold != AccFold::FragOnly
        {
            writeln!(out, "  double acc_s[64] = {{0.0}};   // {} accumulator", self.scalar_acc)
                .unwrap();
        }
        if cx.uses_fragments() {
            let ns = self.ns;
            writeln!(out, "  {ns}::fragment<{ns}::accumulator, 8, 8, 4, double> acc;").unwrap();
            writeln!(out, "  {ns}::fill_fragment(acc, 0.0);").unwrap();
        }
    }

    fn op(&self, cx: &Cx, i: usize, op: &Op, st: &mut EmitState, out: &mut String) {
        let sched = cx.sched;
        let h = sched.h;
        match *op {
            Op::Stage { dz, slot } => {
                writeln!(out).unwrap();
                let src = if sched.dims == 3 {
                    if sched.staging != Staging::Double {
                        writeln!(
                            out,
                            "  // ---- plane dz={dz}: 2-D dependency gathering (Algorithm 2 line 8) ----"
                        )
                        .unwrap();
                    } else if self.caps.cp_async {
                        writeln!(
                            out,
                            "  // ---- prefetch plane dz={dz} into slot {slot} (overlaps the live"
                        )
                        .unwrap();
                        writeln!(out, "  //      slot's MMA chain; Algorithm 2 line 8) ----")
                            .unwrap();
                    } else {
                        writeln!(
                            out,
                            "  // ---- prefetch plane dz={dz} into slot {slot} (software-pipelined;"
                        )
                        .unwrap();
                        writeln!(out, "  //      Algorithm 2 line 8) ----").unwrap();
                    }
                    writeln!(out, "  const double* in{dz} = planes[mod(z + {dz} - {h}, nz)];")
                        .unwrap();
                    format!("in{dz}")
                } else {
                    "in".to_string()
                };
                self.stage(sched, &src, slot, out);
            }
            Op::FragBuild { slot } => self.frag_build(sched, slot, &mut st.x_declared, out),
            Op::RdgGather => self.gather_1d(sched, out),
            Op::MmaChain { term } => self.chain(cx, term as usize, out),
            Op::Pointwise { weight } => self.tip(sched, weight, out),
            Op::PointwisePlane { dz, weight } => {
                writeln!(out).unwrap();
                writeln!(
                    out,
                    "  // ---- plane dz={dz}: single center weight, point-wise on {} cores",
                    self.scalar_cores
                )
                .unwrap();
                writeln!(
                    out,
                    "  //      (Algorithm 2 line 5; no {} staging) ----",
                    self.shared_mem
                )
                .unwrap();
                writeln!(out, "  const double* pw{i} = planes[mod(z + {dz} - {h}, nz)];").unwrap();
                writeln!(out, "  for (int e = {}; e < 64; e += 32)", self.lane).unwrap();
                writeln!(
                    out,
                    "    acc_s[e] += {weight:.17e} * pw{i}[(r0 + e / 8) * cols + c0 + e % 8];"
                )
                .unwrap();
            }
            Op::SkipPlane { dz } => {
                writeln!(out).unwrap();
                writeln!(out, "  // ---- plane dz={dz}: all-zero, skipped ----").unwrap();
            }
        }
    }

    fn epilogue(&self, cx: &Cx, out: &mut String) {
        let (ns, lane) = (self.ns, self.lane);
        let sched = cx.sched;
        writeln!(out).unwrap();
        // sparse shares the tensor-core epilogue (the accumulator layout is
        // the dense one); SIMD shares the scalar store
        match (sched.backend, sched.fold) {
            (BackendKind::TcuF64 | BackendKind::SparseTcu, AccFold::Merge) => {
                writeln!(
                    out,
                    "  // fold the {}-core accumulator into the scalar one",
                    self.mma_cores
                )
                .unwrap();
                writeln!(out, "  acc_s[accIdx({lane}, 0)] += acc.x[0];").unwrap();
                writeln!(out, "  acc_s[accIdx({lane}, 1)] += acc.x[1];").unwrap();
                writeln!(out, "  store_scalar_tile(&outp[r0 * cols + c0], acc_s, cols);").unwrap();
            }
            (BackendKind::TcuF64 | BackendKind::SparseTcu, _) => {
                let (dst, ld) = if sched.dims == 1 {
                    ("&outp[i0]", "8")
                } else {
                    ("&outp[r0 * cols + c0]", "cols")
                };
                writeln!(out, "  {ns}::store_matrix_sync({dst}, acc, {ld}, {ns}::mem_row_major);")
                    .unwrap();
            }
            (BackendKind::CudaCore | BackendKind::SimdCore, _) => {
                writeln!(out, "  store_scalar_tile(&outp[r0 * cols + c0], acc_s, cols);").unwrap();
            }
        }
        writeln!(out, "}}").unwrap();
    }

    fn op_anchor(&self, cx: &Cx, i: usize, op: &Op) -> Option<String> {
        let sched = cx.sched;
        match *op {
            Op::Stage { slot, .. } => {
                Some(format!("{}[e / {}]", tile_name(sched, slot), sched.geo.s))
            }
            Op::FragBuild { .. } => Some("Eq. 12".to_string()),
            Op::RdgGather => Some("fragB(V1D[blk])".to_string()),
            Op::MmaChain { term } => Some(format!("---- RDG term {term} ")),
            Op::Pointwise { weight } => (weight != 0.0).then(|| "pyramid tip".to_string()),
            Op::PointwisePlane { .. } => Some(format!("pw{i}[")),
            Op::SkipPlane { dz } => Some(format!("plane dz={dz}: all-zero")),
        }
    }

    fn term_table_refs(&self, cx: &Cx, ti: usize) -> Vec<super::TableRef> {
        let r = |decl: String, usage: String| super::TableRef { decl, usage };
        match cx.chain_lower(self.caps, ti) {
            ChainLower::Mma | ChainLower::MmaEmulated => vec![
                r(format!("__constant__ double U{ti}["), format!("fragA(U{ti}[")),
                r(format!("__constant__ double V{ti}["), format!("fragB(V{ti}[")),
            ],
            ChainLower::MmaSparse => vec![
                r(format!("__constant__ double U{ti}sp["), format!("fragA_sp(U{ti}sp[")),
                r(format!("__constant__ unsigned U{ti}meta["), format!("U{ti}meta[k]")),
                r(format!("__constant__ double V{ti}["), format!("fragB(V{ti}[")),
            ],
            ChainLower::Scalar => vec![
                r(format!("__constant__ double u{ti}["), format!("u{ti}[i]")),
                r(format!("__constant__ double v{ti}["), format!("v{ti}[j]")),
                r(format!("const int shift{ti} ="), format!("shift{ti} + ")),
            ],
        }
    }

    fn banded_table_refs(&self, _cx: &Cx) -> Vec<super::TableRef> {
        vec![super::TableRef {
            decl: "__constant__ double V1D[".to_string(),
            usage: "fragB(V1D[blk])".to_string(),
        }]
    }
}
