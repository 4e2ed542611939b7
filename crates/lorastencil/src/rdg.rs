//! Residual Dimension Gathering (§III-B): the Matrix Chain Multiplication
//! `U · X · V` on simulated tensor-core fragments.
//!
//! For one rank-1 term `C = u ⊗ vᵀ` and an input tile `X` of side `S`
//! (`S ≥ m + 2h`, multiple of 8), the `m×m = 8×8` output tile is
//!
//! * **Step 1 (vertical gather)**: `T = U · X`, with `U` the 8×S banded
//!   expansion of `u` (Eq. 10). `S/4 × S/8` MMA operations.
//! * **Step 2 (horizontal gather)**: `R = T · V`, with `V` the S×8 banded
//!   expansion of `v` (Eq. 11). `T` is re-used as a left operand through
//!   Butterfly Vector Swapping (§III-D): the accumulator's even/odd column
//!   sets are reinterpreted as A fragments with zero cross-lane shuffles
//!   while the matching rows of `V` are permuted identically (Eq. 17).
//!   `S/4` MMA operations.
//!
//! For `h = 3` (`S = 16`) this is the paper's 8 + 4 = 12 MMA example.

use crate::decompose::RankOneTerm;
use stencil_core::WeightMatrix;
use tcu_sim::{FragA, FragASp, FragAcc, FragB, SharedTile, SimContext, MMA_K, MMA_M, MMA_N};

/// Output tile side processed by one warp (`m`).
pub const TILE_M: usize = 8;

/// Geometry of one RDG tile computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdgGeometry {
    /// Kernel radius `h` of the full (possibly fused) kernel.
    pub h: usize,
    /// Padded input tile side `S` (multiple of 8, ≥ `m + 2h`).
    pub s: usize,
}

impl RdgGeometry {
    /// Geometry for a kernel of radius `h`.
    pub fn for_radius(h: usize) -> Self {
        let need = TILE_M + 2 * h;
        let s = need.div_ceil(8) * 8;
        RdgGeometry { h, s: s.max(16) }
    }

    /// Number of 4-row blocks of the input tile (`S/4`).
    pub fn row_blocks(&self) -> usize {
        self.s / MMA_K
    }

    /// Number of 8-column blocks of the input tile (`S/8`).
    pub fn col_blocks(&self) -> usize {
        self.s / MMA_N
    }

    /// MMA instructions one rank-1 term costs on this geometry
    /// (step 1 + step 2).
    pub fn mma_per_term(&self) -> u64 {
        (self.row_blocks() * self.col_blocks() + self.row_blocks()) as u64
    }

    /// Shared-memory bytes of the input tile.
    pub fn tile_bytes(&self) -> u32 {
        (self.s * self.s * std::mem::size_of::<f64>()) as u32
    }
}

/// The input tile's B fragments, loaded once per tile and re-used by every
/// rank-1 term of the decomposition (the fragment-reuse property §III-C
/// relies on: "the input matrix utilized for each RDG in PMA remains
/// constant").
#[derive(Debug, Clone)]
pub struct XFragments {
    geo: RdgGeometry,
    /// Row-major `frags[row_block * col_blocks + col_block]`, each 4×8.
    /// Flat so [`XFragments::load_into`] can reuse one allocation across
    /// tiles.
    frags: Vec<FragB>,
}

impl XFragments {
    /// An empty fragment set to be filled by [`XFragments::load_into`]
    /// (per-worker scratch).
    pub fn empty(geo: RdgGeometry) -> Self {
        XFragments { geo, frags: Vec::new() }
    }

    /// Load all `S/4 × S/8` fragments of the tile (charging one shared
    /// load request each — the quantity Eq. 12 counts).
    pub fn load(ctx: &mut SimContext, tile: &SharedTile, geo: RdgGeometry) -> Self {
        let mut x = XFragments::empty(geo);
        x.load_into(ctx, tile, geo);
        x
    }

    /// Allocation-reusing [`XFragments::load`]: refill `self` from a new
    /// tile, keeping the fragment buffer's capacity. Counter accounting
    /// is identical.
    pub fn load_into(&mut self, ctx: &mut SimContext, tile: &SharedTile, geo: RdgGeometry) {
        self.load_into_at(ctx, tile, geo, 0, 0);
    }

    /// [`XFragments::load_into`] from a sub-window of a larger staged
    /// tile: the fragments cover the S×S window whose top-left corner is
    /// `(r_off, c_off)` inside `tile`. Macro-tiled schedules stage one
    /// large window and rebuild fragments per 8×8 sub-tile through this.
    pub fn load_into_at(
        &mut self,
        ctx: &mut SimContext,
        tile: &SharedTile,
        geo: RdgGeometry,
        r_off: usize,
        c_off: usize,
    ) {
        self.geo = geo;
        self.frags.clear();
        self.frags.reserve(geo.row_blocks() * geo.col_blocks());
        for rb in 0..geo.row_blocks() {
            for cb in 0..geo.col_blocks() {
                self.frags.push(tile.load_frag_b(
                    ctx,
                    (r_off + rb * MMA_K) as isize,
                    (c_off + cb * MMA_N) as isize,
                ));
            }
        }
    }

    /// Tile geometry.
    pub fn geometry(&self) -> RdgGeometry {
        self.geo
    }

    /// Fragment for `(row_block, col_block)`.
    #[inline]
    pub fn frag(&self, rb: usize, cb: usize) -> &FragB {
        &self.frags[rb * self.geo.col_blocks() + cb]
    }

    /// Element `(r, c)` of the underlying tile, reconstructed from the
    /// owning fragment (register re-use; charges nothing).
    pub fn peek(&self, r: usize, c: usize) -> f64 {
        self.frag(r / MMA_K, c / MMA_N).get(r % MMA_K, c % MMA_N)
    }
}

/// Build the banded `U` weight fragments for a term (Eq. 10): `S/4`
/// A-fragments, fragment `k` covering `U` columns `4k..4k+4`.
///
/// `U[i][j] = u[t]` iff `j = i + (h − h_t) + t`; the `h − h_t` band shift
/// centers pyramid terms smaller than the kernel. Weights live in
/// registers/constant memory on real hardware, so no loads are charged.
pub fn build_u_frags(term: &RankOneTerm, geo: RdgGeometry) -> Vec<FragA> {
    let shift = geo.h - term.radius();
    let mut frags = vec![FragA::zero(); geo.row_blocks()];
    for i in 0..MMA_M {
        for (t, &w) in term.u.iter().enumerate() {
            let j = i + shift + t;
            debug_assert!(j < geo.s);
            frags[j / MMA_K].set(i, j % MMA_K, w);
        }
    }
    frags
}

/// Build the banded `V` weight fragments for a term (Eq. 11), pre-permuted
/// for the chosen step-2 accumulator split: `S/4` B-fragments, fragment
/// `2j + half` matching the A fragment extracted from accumulator tile `j`
/// with column set `cols[half]`.
///
/// `V[r][q] = v[t]` iff `r = q + (h − h_t) + t`. With BVS the rows are
/// butterfly-permuted (`{0,2,4,6}` / `{1,3,5,7}` within each 8-row block),
/// compensating the shuffle-free accumulator reinterpretation (Eq. 17);
/// without BVS the natural `{0..4}` / `{4..8}` split is used.
pub fn build_v_frags(term: &RankOneTerm, geo: RdgGeometry, use_bvs: bool) -> Vec<FragB> {
    let _bvs = foundation::obs::span("bvs_build");
    let shift = geo.h - term.radius();
    // dense V first
    let mut v_dense = vec![[0.0f64; MMA_N]; geo.s];
    for q in 0..MMA_N {
        for (t, &w) in term.v.iter().enumerate() {
            let r = q + shift + t;
            debug_assert!(r < geo.s);
            v_dense[r][q] = w;
        }
    }
    let col_sets = if use_bvs { FragAcc::BUTTERFLY_COLS } else { FragAcc::NATURAL_COLS };
    let mut frags = Vec::with_capacity(geo.row_blocks());
    for j in 0..geo.col_blocks() {
        for cols in col_sets {
            let mut f = FragB::zero();
            for (k, &c) in cols.iter().enumerate() {
                let r = j * MMA_N + c;
                for q in 0..MMA_N {
                    f.set(k, q, v_dense[r][q]);
                }
            }
            frags.push(f);
        }
    }
    frags
}

/// Column sets used to split step-1 accumulators into step-2 A fragments.
fn split_cols(use_bvs: bool) -> [[usize; MMA_K]; 2] {
    if use_bvs {
        FragAcc::BUTTERFLY_COLS
    } else {
        FragAcc::NATURAL_COLS
    }
}

/// One rank-1 term's weight fragments, prebuilt once per plan: they
/// depend only on `(term, geometry, use_bvs)`, never on the input tile,
/// so the executors hoist them out of the per-tile loop (on real
/// hardware they live in registers/constant memory for the whole grid).
#[derive(Debug, Clone)]
pub struct TermFrags {
    /// Banded `U` A-fragments (Eq. 10).
    u: Vec<FragA>,
    /// 2:4-compressed forms of the `U` fragments; `Some` only when the
    /// sparse lowering proved **every** fragment of the term satisfies
    /// the 2:4 pattern (see [`TermFrags::build_sparse`]).
    u_sp: Option<Vec<FragASp>>,
    /// Banded, split-permuted `V` B-fragments (Eq. 11 / Eq. 17).
    v: Vec<FragB>,
    /// Accumulator column split matching `v`'s permutation.
    cols: [[usize; MMA_K]; 2],
}

impl TermFrags {
    /// Build the fragments for one term on the given geometry.
    pub fn build(term: &RankOneTerm, geo: RdgGeometry, use_bvs: bool) -> Self {
        TermFrags {
            u: build_u_frags(term, geo),
            u_sp: None,
            v: build_v_frags(term, geo, use_bvs),
            cols: split_cols(use_bvs),
        }
    }

    /// [`TermFrags::build`] with the 2:4 compression attempted for the
    /// SparseTcu backend. The fallback policy is **per term**: `u_sp` is
    /// populated only when every `U` fragment passes the validator
    /// ([`tcu_sim::FragASp::compress`]); one incompressible fragment
    /// sends the whole term down the dense path, so a term executes
    /// either fully sparse or fully dense — never mixed — and the
    /// counter model stays closed-form.
    pub fn build_sparse(term: &RankOneTerm, geo: RdgGeometry, use_bvs: bool) -> Self {
        let mut tf = TermFrags::build(term, geo, use_bvs);
        tf.u_sp = tf.u.iter().map(FragASp::compress).collect();
        tf
    }

    /// Whether this term lowered to the sparse path (all `U` fragments
    /// 2:4-compressed).
    pub fn is_sparse(&self) -> bool {
        self.u_sp.is_some()
    }

    /// Build the fragments for every term of a decomposition.
    pub fn build_all(terms: &[RankOneTerm], geo: RdgGeometry, use_bvs: bool) -> Vec<TermFrags> {
        terms.iter().map(|t| TermFrags::build(t, geo, use_bvs)).collect()
    }
}

/// Whether a rank-1 term is 2:4-compressible on this geometry — the
/// same decision [`TermFrags::build_sparse`] makes, exported so the
/// counter-exactness model predicts per-term sparse/dense splits from
/// first principles. Banded `U` rows carry `term.u`'s nonzero pattern,
/// so taps ≥ 3 without interior zeros always fail (some row has three
/// nonzeros inside one aligned 4-column window) while 1–2-tap terms and
/// star-like terms with interior zeros compress.
pub fn term_is_sparse(term: &RankOneTerm, geo: RdgGeometry) -> bool {
    build_u_frags(term, geo).iter().all(|f| FragASp::compress(f).is_some())
}

/// Largest MMA-chain batch [`rdg_apply_term_frags_into`] accepts (enough
/// for any radius ≤ 16 kernel: `S/4 ≤ 10` step-1 fragments per column
/// block).
pub const MAX_MMA_BATCH: usize = 16;

/// Apply one rank-1 term to a loaded input tile given its prebuilt
/// weight fragments — the full RDG Matrix Chain Multiplication on
/// tensor cores, `out += U · X · V`, with no allocation. The step-1
/// `U · X` MMAs issue in register-resident chains of up to `batch`
/// instructions ([`SimContext::mma_chain_into`]); `batch ≤ 1` issues
/// them one at a time. Any batch is bit-identical and charges the same
/// counters — only the host-side accumulator traffic changes. The step-2 MMAs cannot chain across
/// column blocks (each consumes a freshly extracted A fragment).
pub fn rdg_apply_term_frags_into(
    ctx: &mut SimContext,
    x: &XFragments,
    tf: &TermFrags,
    out: &mut FragAcc,
    batch: usize,
) {
    let geo = x.geo;
    let batch = batch.min(MAX_MMA_BATCH);
    // Step 1: T = U · X, one accumulator tile per 8-column block.
    for j in 0..geo.col_blocks() {
        let mut t_acc = FragAcc::zero();
        if batch <= 1 {
            for (k, u_frag) in tf.u.iter().enumerate() {
                ctx.mma_into(u_frag, x.frag(k, j), &mut t_acc);
            }
        } else {
            let rb = geo.row_blocks();
            let mut k = 0;
            while k < rb {
                let end = (k + batch).min(rb);
                let n = end - k;
                let mut a_refs: [&FragA; MAX_MMA_BATCH] = [&tf.u[0]; MAX_MMA_BATCH];
                let mut b_refs: [&FragB; MAX_MMA_BATCH] = [x.frag(0, j); MAX_MMA_BATCH];
                for (i, kk) in (k..end).enumerate() {
                    a_refs[i] = &tf.u[kk];
                    b_refs[i] = x.frag(kk, j);
                }
                ctx.mma_chain_into(&a_refs[..n], &b_refs[..n], &mut t_acc);
                k = end;
            }
        }
        // Step 2: out += T_j · V_j, splitting the accumulator into two A
        // fragments (shuffle-free under BVS).
        for (half, &col_set) in tf.cols.iter().enumerate() {
            let a = ctx.acc_to_a(&t_acc, col_set);
            ctx.mma_into(&a, &tf.v[2 * j + half], out);
        }
    }
}

/// SparseTcu form of [`rdg_apply_term_frags_into`]: step-1 `U · X`
/// issues as structured-sparse `mma.sp` instructions against the
/// compressed fragments (charging `mma_sp_ops`), after one metadata
/// load per `U` fragment (`metadata_loads += S/4`, amortized across the
/// column blocks that reuse the fragment). Step 2 is unchanged — its A
/// operands are freshly extracted accumulators, data-dependent and
/// dense. Falls back to the dense path verbatim when the term did not
/// compress ([`TermFrags::is_sparse`] false).
///
/// Results are bit-identical to the dense path: the pruned step-1
/// products are signed zeros and the surviving ones accumulate in the
/// same increasing-K order (see [`SimContext::mma_sp_into`]).
pub fn rdg_apply_term_sparse_into(
    ctx: &mut SimContext,
    x: &XFragments,
    tf: &TermFrags,
    out: &mut FragAcc,
    batch: usize,
) {
    let Some(u_sp) = &tf.u_sp else {
        rdg_apply_term_frags_into(ctx, x, tf, out, batch);
        return;
    };
    let geo = x.geo;
    ctx.metadata_loads(geo.row_blocks() as u64);
    for j in 0..geo.col_blocks() {
        // sparse MMAs issue one at a time: the metadata registers are
        // single-buffered, so `mma.sp` chains are not modeled (results
        // are bit-identical to any chaining anyway)
        let mut t_acc = FragAcc::zero();
        for (k, u_frag) in u_sp.iter().enumerate() {
            ctx.mma_sp_into(u_frag, x.frag(k, j), &mut t_acc);
        }
        for (half, &col_set) in tf.cols.iter().enumerate() {
            let a = ctx.acc_to_a(&t_acc, col_set);
            ctx.mma_into(&a, &tf.v[2 * j + half], out);
        }
    }
}

/// Apply the pointwise pyramid tip: `acc[r][q] += pw · X[h+r][h+q]`,
/// executed on CUDA cores (the 1×1 term needs no matrix multiply,
/// §III-C); input values are register re-uses of already-loaded fragments.
pub fn apply_pointwise(ctx: &mut SimContext, x: &XFragments, pw: f64, acc: &mut FragAcc) {
    if pw == 0.0 {
        return;
    }
    let h = x.geo.h;
    for r in 0..MMA_M {
        for q in 0..MMA_N {
            let v = acc.get(r, q) + pw * x.peek(h + r, h + q);
            acc.set(r, q, v);
        }
    }
    ctx.cuda_flops(2 * (MMA_M * MMA_N) as u64);
}

/// Issue-overhead multiplier for the scalar CUDA-core RDG path: like all
/// scalar stencil loops, address arithmetic and loop control issue
/// alongside each FMA, holding sustained throughput to ~7 % of FP64
/// peak (same modeling as the CUDA-core baselines).
pub const CUDA_RDG_ISSUE_OVERHEAD: u64 = 14;

/// CUDA-core reference path for the ablation (Fig. 9 "RDG w/o TCU"): the
/// same `U · X · V` chain evaluated with scalar FMAs, charging CUDA-core
/// FLOPs (and no MMAs). Band sparsity is exploited, as a hand-written
/// CUDA-core kernel would.
pub fn rdg_apply_term_cuda(
    ctx: &mut SimContext,
    x: &XFragments,
    term: &RankOneTerm,
    acc: &mut [[f64; MMA_N]; MMA_M],
) {
    let geo = x.geo;
    let n_t = term.u.len();
    let shift = geo.h - term.radius();
    // T = U · X (8 × S semi-gather matrix), then R += T · V
    let mut t_mat = vec![vec![0.0f64; geo.s]; MMA_M];
    for (p, row) in t_mat.iter_mut().enumerate() {
        for (c, out) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for (k, &w) in term.u.iter().enumerate() {
                s += w * x.peek(p + shift + k, c);
            }
            *out = s;
        }
    }
    ctx.cuda_flops((2 * n_t * MMA_M * geo.s) as u64 * CUDA_RDG_ISSUE_OVERHEAD);
    // R += T · V
    for (p, row) in t_mat.iter().enumerate() {
        for q in 0..MMA_N {
            let mut s = 0.0;
            for (k, &w) in term.v.iter().enumerate() {
                s += w * row[q + shift + k];
            }
            acc[p][q] += s;
        }
    }
    ctx.cuda_flops((2 * n_t * MMA_M * MMA_N + MMA_M * MMA_N) as u64 * CUDA_RDG_ISSUE_OVERHEAD);
}

/// Issue-overhead multiplier for the tuned host-SIMD RDG path: chunked
/// `f64x4`-style unrolling amortizes address arithmetic and loop control
/// across four lanes, so each FMA issues with ~2 companion ops instead
/// of the scalar path's 14. The FLOP *count* is identical to the scalar
/// path — only the issue efficiency differs.
pub const SIMD_RDG_ISSUE_OVERHEAD: u64 = 2;

/// Width of one SIMD chunk (`f64x4`: one AVX2 register / NEON pair).
pub const SIMD_LANES: usize = 4;

/// Stack capacity of the SIMD path's per-row T buffer; covers radii ≤ 32
/// (`S = 8 + 2·32 = 72`). Larger radii spill to one heap buffer.
pub const SIMD_MAX_S: usize = 72;

/// Tuned host-SIMD reference path (the honest "no tensor cores" compare
/// point): the same `U · X · V` chain as [`rdg_apply_term_cuda`], but
/// register-blocked — the inner loops broadcast one tap weight against
/// four contiguous lanes, the T matrix lives in a stack buffer, and
/// nothing is heap-allocated for radii ≤ 32. Each output element sums
/// its taps in the same order as the scalar path, so the values are
/// bit-identical to [`rdg_apply_term_cuda`]; only the charged issue
/// overhead differs ([`SIMD_RDG_ISSUE_OVERHEAD`] vs
/// [`CUDA_RDG_ISSUE_OVERHEAD`]).
pub fn rdg_apply_term_simd(
    ctx: &mut SimContext,
    x: &XFragments,
    term: &RankOneTerm,
    acc: &mut [[f64; MMA_N]; MMA_M],
) {
    let geo = x.geo;
    let n_t = term.u.len();
    let shift = geo.h - term.radius();
    // T = U · X, register-blocked: SIMD_LANES independent column lanes
    // per chunk, each lane summing taps in increasing-k order (the same
    // per-element order as the scalar path)
    let mut t_stack = [0.0f64; SIMD_MAX_S * MMA_M];
    let mut t_heap: Vec<f64> = Vec::new();
    let (t_buf, stride) = if geo.s <= SIMD_MAX_S {
        (&mut t_stack[..], SIMD_MAX_S)
    } else {
        t_heap.resize(MMA_M * geo.s, 0.0);
        (&mut t_heap[..], geo.s)
    };
    for p in 0..MMA_M {
        let row = &mut t_buf[p * stride..p * stride + geo.s];
        let mut c = 0;
        while c + SIMD_LANES <= geo.s {
            let mut lanes = [0.0f64; SIMD_LANES];
            for (k, &w) in term.u.iter().enumerate() {
                let r = p + shift + k;
                for (li, lane) in lanes.iter_mut().enumerate() {
                    *lane += w * x.peek(r, c + li);
                }
            }
            row[c..c + SIMD_LANES].copy_from_slice(&lanes);
            c += SIMD_LANES;
        }
        while c < geo.s {
            let mut s = 0.0;
            for (k, &w) in term.u.iter().enumerate() {
                s += w * x.peek(p + shift + k, c);
            }
            row[c] = s;
            c += 1;
        }
    }
    ctx.cuda_flops((2 * n_t * MMA_M * geo.s) as u64 * SIMD_RDG_ISSUE_OVERHEAD);
    // R += T · V: MMA_N = 8 outputs per row = exactly two f64x4 chunks
    for (p, acc_row) in acc.iter_mut().enumerate() {
        let row = &t_buf[p * stride..p * stride + geo.s];
        let mut q0 = 0;
        while q0 + SIMD_LANES <= MMA_N {
            let mut lanes = [0.0f64; SIMD_LANES];
            for (k, &w) in term.v.iter().enumerate() {
                for (li, lane) in lanes.iter_mut().enumerate() {
                    *lane += w * row[q0 + li + shift + k];
                }
            }
            for (li, &lane) in lanes.iter().enumerate() {
                acc_row[q0 + li] += lane;
            }
            q0 += SIMD_LANES;
        }
    }
    ctx.cuda_flops((2 * n_t * MMA_M * MMA_N + MMA_M * MMA_N) as u64 * SIMD_RDG_ISSUE_OVERHEAD);
}

/// Dense reference for tests: directly evaluate `(U X V)[p][q] =
/// Σ_{i,j} u_i X[p+shift+i][q+shift+j] v_j` from a dense tile.
pub fn rdg_reference(tile: &WeightMatrix, term: &RankOneTerm, h: usize) -> [[f64; MMA_N]; MMA_M] {
    let shift = h - term.radius();
    let mut out = [[0.0; MMA_N]; MMA_M];
    for (p, row) in out.iter_mut().enumerate() {
        for (q, o) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &ui) in term.u.iter().enumerate() {
                for (j, &vj) in term.v.iter().enumerate() {
                    s += ui * vj * tile.get(p + shift + i, q + shift + j);
                }
            }
            *o = s;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;

    fn random_tile(s: usize, seed: u64) -> (SharedTile, WeightMatrix) {
        let mut tile = SharedTile::new(s, s);
        let mut vals = vec![0.0; s * s];
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for v in vals.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
        }
        for r in 0..s {
            for c in 0..s {
                tile.poke(r, c, vals[r * s + c]);
            }
        }
        // dense copy for the reference (WeightMatrix needs an odd side,
        // so pad by one zero row/column)
        let dense =
            WeightMatrix::from_fn(s + 1, |i, j| if i < s && j < s { vals[i * s + j] } else { 0.0 });
        (tile, dense)
    }

    #[test]
    fn geometry_matches_paper_example() {
        // h = 3 → S = 16, 12 MMAs per term (8 step-1 + 4 step-2, §III-B).
        let geo = RdgGeometry::for_radius(3);
        assert_eq!(geo.s, 16);
        assert_eq!(geo.mma_per_term(), 12);
        // h = 1 (Box-2D9P unfused) also uses a 16×16 tile (Fig. 7).
        assert_eq!(RdgGeometry::for_radius(1).s, 16);
        // h = 5 → 8+10 = 18 → S = 24
        assert_eq!(RdgGeometry::for_radius(5).s, 24);
    }

    #[test]
    fn rdg_tcu_matches_dense_reference_full_term() {
        let geo = RdgGeometry::for_radius(3);
        let (tile, dense) = random_tile(geo.s, 42);
        let term = RankOneTerm::new(
            vec![0.1, 0.2, 0.3, 0.4, 0.3, 0.2, 0.1],
            vec![1.0, -1.0, 2.0, 0.5, 2.0, -1.0, 1.0],
        );
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let mut acc = FragAcc::zero();
        rdg_apply_term_frags_into(&mut ctx, &x, &TermFrags::build(&term, geo, true), &mut acc, 1);
        let want = rdg_reference(&dense, &term, geo.h);
        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!(
                    (acc.get(p, q) - want[p][q]).abs() < 1e-12,
                    "({p},{q}): {} vs {}",
                    acc.get(p, q),
                    want[p][q]
                );
            }
        }
        assert_eq!(ctx.counters.mma_ops, geo.mma_per_term());
        assert_eq!(ctx.counters.shuffle_ops, 0, "BVS must be shuffle-free");
    }

    #[test]
    fn rdg_smaller_pyramid_term_is_centered() {
        // a radius-1 term inside a radius-3 kernel geometry
        let geo = RdgGeometry::for_radius(3);
        let (tile, dense) = random_tile(geo.s, 7);
        let term = RankOneTerm::new(vec![1.0, 2.0, 1.0], vec![0.5, 1.0, 0.5]);
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let mut acc = FragAcc::zero();
        rdg_apply_term_frags_into(&mut ctx, &x, &TermFrags::build(&term, geo, true), &mut acc, 1);
        let want = rdg_reference(&dense, &term, geo.h);
        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!((acc.get(p, q) - want[p][q]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn bvs_and_natural_split_agree_but_only_bvs_is_shuffle_free() {
        let geo = RdgGeometry::for_radius(2);
        let (tile, _) = random_tile(geo.s, 3);
        let term = RankOneTerm::new(vec![0.2, 0.5, 1.0, 0.5, 0.2], vec![0.1, 0.7, 1.0, 0.7, 0.1]);

        let mut ctx_bvs = SimContext::new();
        let x1 = XFragments::load(&mut ctx_bvs, &tile, geo);
        let mut acc_bvs = FragAcc::zero();
        let tf_bvs = TermFrags::build(&term, geo, true);
        rdg_apply_term_frags_into(&mut ctx_bvs, &x1, &tf_bvs, &mut acc_bvs, 1);

        let mut ctx_nat = SimContext::new();
        let x2 = XFragments::load(&mut ctx_nat, &tile, geo);
        let mut acc_nat = FragAcc::zero();
        let tf_nat = TermFrags::build(&term, geo, false);
        rdg_apply_term_frags_into(&mut ctx_nat, &x2, &tf_nat, &mut acc_nat, 1);

        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!((acc_bvs.get(p, q) - acc_nat.get(p, q)).abs() < 1e-12);
            }
        }
        assert_eq!(ctx_bvs.counters.shuffle_ops, 0);
        // natural split shuffles twice per accumulator split
        assert_eq!(ctx_nat.counters.shuffle_ops, 2 * 2 * geo.col_blocks() as u64);
        assert_eq!(ctx_bvs.counters.mma_ops, ctx_nat.counters.mma_ops);
    }

    #[test]
    fn batched_term_apply_is_bit_identical_for_every_batch_width() {
        for h in [1usize, 3, 5] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(geo.s, 1000 + h as u64);
            let taps = 2 * h + 1;
            let term = RankOneTerm::new(
                (0..taps).map(|t| 0.3 + 0.1 * t as f64).collect(),
                (0..taps).map(|t| 1.1 - 0.2 * t as f64).collect(),
            );
            let mut ctx = SimContext::new();
            let x = XFragments::load(&mut ctx, &tile, geo);
            let tf = TermFrags::build(&term, geo, true);
            let mut base = FragAcc::zero();
            rdg_apply_term_frags_into(&mut ctx, &x, &tf, &mut base, 1);
            let base_mmas = ctx.counters.mma_ops;
            for batch in [1usize, 2, 3, 4, 8, 16, 64] {
                let mut ctx_b = SimContext::new();
                let xb = XFragments::load(&mut ctx_b, &tile, geo);
                let mut acc = FragAcc::zero();
                rdg_apply_term_frags_into(&mut ctx_b, &xb, &tf, &mut acc, batch);
                for p in 0..MMA_M {
                    for q in 0..MMA_N {
                        assert_eq!(
                            acc.get(p, q).to_bits(),
                            base.get(p, q).to_bits(),
                            "h={h} batch={batch} ({p},{q})"
                        );
                    }
                }
                assert_eq!(
                    ctx_b.counters.mma_ops, base_mmas,
                    "batch={batch} must charge Eq. 16 MMAs"
                );
            }
        }
    }

    #[test]
    fn offset_fragment_loads_match_a_direct_subwindow() {
        // stage a 24×24 window, load the S×S sub-window at (8, 8) via
        // load_into_at, and compare against loading a directly-staged copy
        let geo = RdgGeometry::for_radius(1); // S = 16
        let (big, _) = random_tile(24, 77);
        let mut small = SharedTile::new(geo.s, geo.s);
        for r in 0..geo.s {
            for c in 0..geo.s {
                small.poke(r, c, big.peek(8 + r, 8 + c));
            }
        }
        let mut ctx_a = SimContext::new();
        let mut xa = XFragments::empty(geo);
        xa.load_into_at(&mut ctx_a, &big, geo, 8, 8);
        let mut ctx_b = SimContext::new();
        let xb = XFragments::load(&mut ctx_b, &small, geo);
        for r in 0..geo.s {
            for c in 0..geo.s {
                assert_eq!(xa.peek(r, c).to_bits(), xb.peek(r, c).to_bits());
            }
        }
        assert_eq!(ctx_a.counters.shared_load_requests, ctx_b.counters.shared_load_requests);
    }

    #[test]
    fn cuda_path_matches_tcu_path() {
        let geo = RdgGeometry::for_radius(3);
        let (tile, _) = random_tile(geo.s, 11);
        let k = stencil_core::kernels::box_2d49p();
        let d = decompose::decompose(k.weights_2d(), 1e-12);

        let mut ctx_tcu = SimContext::new();
        let x = XFragments::load(&mut ctx_tcu, &tile, geo);
        let mut acc = FragAcc::zero();
        for tf in &TermFrags::build_all(&d.terms, geo, true) {
            rdg_apply_term_frags_into(&mut ctx_tcu, &x, tf, &mut acc, 1);
        }
        apply_pointwise(&mut ctx_tcu, &x, d.pointwise, &mut acc);

        let mut ctx_cuda = SimContext::new();
        let x2 = XFragments::load(&mut ctx_cuda, &tile, geo);
        let mut acc_cuda = [[0.0; MMA_N]; MMA_M];
        for t in &d.terms {
            rdg_apply_term_cuda(&mut ctx_cuda, &x2, t, &mut acc_cuda);
        }
        for (p, row) in acc_cuda.iter_mut().enumerate() {
            for (q, v) in row.iter_mut().enumerate() {
                *v += d.pointwise * x2.peek(geo.h + p, geo.h + q);
            }
        }

        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert!((acc.get(p, q) - acc_cuda[p][q]).abs() < 1e-12);
            }
        }
        assert_eq!(ctx_cuda.counters.mma_ops, 0);
        assert!(ctx_cuda.counters.cuda_flops > 0);
        assert_eq!(ctx_tcu.counters.mma_ops, 3 * geo.mma_per_term());
    }

    #[test]
    fn simd_path_is_bit_identical_to_cuda_path_at_one_seventh_the_overhead() {
        // the tuned SIMD path re-orders nothing: each output element sums
        // its taps in the same order as the scalar loop, so values match
        // to the bit and only the issue-overhead multiplier differs
        for h in [1usize, 3, 4] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(geo.s, 600 + h as u64);
            let term = RankOneTerm::new(
                vec![0.25; 2 * h + 1],
                (0..2 * h + 1).map(|i| 0.5 + 0.125 * i as f64).collect(),
            );

            let mut ctx_cuda = SimContext::new();
            let x_cuda = XFragments::load(&mut ctx_cuda, &tile, geo);
            let mut acc_cuda = [[0.0; MMA_N]; MMA_M];
            rdg_apply_term_cuda(&mut ctx_cuda, &x_cuda, &term, &mut acc_cuda);

            let mut ctx_simd = SimContext::new();
            let x_simd = XFragments::load(&mut ctx_simd, &tile, geo);
            let mut acc_simd = [[0.0; MMA_N]; MMA_M];
            rdg_apply_term_simd(&mut ctx_simd, &x_simd, &term, &mut acc_simd);

            for p in 0..MMA_M {
                for q in 0..MMA_N {
                    assert_eq!(
                        acc_simd[p][q].to_bits(),
                        acc_cuda[p][q].to_bits(),
                        "h={h} ({p},{q})"
                    );
                }
            }
            // identical FLOP count, scaled by 2 instead of 14
            assert_eq!(
                ctx_simd.counters.cuda_flops * CUDA_RDG_ISSUE_OVERHEAD,
                ctx_cuda.counters.cuda_flops * SIMD_RDG_ISSUE_OVERHEAD,
                "h={h}"
            );
            assert_eq!(ctx_simd.counters.mma_ops, 0);
            assert_eq!(ctx_simd.counters.shuffle_ops, 0);
        }
    }

    #[test]
    fn x_fragments_charge_eq12_loads() {
        // Eq. 12: ab/8 fragments for the whole grid ⇔ S²/32 per 64-point
        // tile; for S=16 that is 8 fragment loads.
        let geo = RdgGeometry::for_radius(3);
        let tile = SharedTile::new(geo.s, geo.s);
        let mut ctx = SimContext::new();
        let _ = XFragments::load(&mut ctx, &tile, geo);
        assert_eq!(ctx.counters.shared_load_requests, 8);
    }

    #[test]
    fn bvs_keeps_the_mma_pipeline_unbroken() {
        // the point of BVS (§III-D): with it, the whole per-term chain is
        // MMAs and pipelined fragment loads; without it, shuffles sit in
        // the middle of the chain and stall the tensor pipeline
        let geo = RdgGeometry::for_radius(3);
        let (tile, _) = random_tile(geo.s, 99);
        let term = RankOneTerm::new(
            vec![0.1, 0.2, 0.3, 0.4, 0.3, 0.2, 0.1],
            vec![1.0, -1.0, 2.0, 0.5, 2.0, -1.0, 1.0],
        );
        let burst = |use_bvs: bool| {
            let mut ctx = SimContext::new();
            ctx.enable_trace();
            let x = XFragments::load(&mut ctx, &tile, geo);
            let tf = TermFrags::build(&term, geo, use_bvs);
            rdg_apply_term_frags_into(&mut ctx, &x, &tf, &mut FragAcc::zero(), 1);
            let t = ctx.take_trace().unwrap();
            (t.longest_mma_burst(), t.count(|e| matches!(e, tcu_sim::TraceEvent::AccExtract { shuffles, .. } if *shuffles > 0)))
        };
        let (bvs_burst, bvs_stalls) = burst(true);
        let (nat_burst, nat_stalls) = burst(false);
        assert_eq!(bvs_stalls, 0);
        assert!(nat_stalls > 0);
        assert!(
            bvs_burst > nat_burst,
            "BVS burst {bvs_burst} must exceed shuffled burst {nat_burst}"
        );
        // BVS: the full 12-MMA chain issues back to back
        assert_eq!(bvs_burst as u64, geo.mma_per_term());
    }

    #[test]
    fn sparse_term_apply_is_bit_identical_and_charges_sparse_counters() {
        // a 3-tap u with an interior zero: every banded U row carries two
        // nonzeros two columns apart — at most two per aligned 4-window,
        // so every fragment is 2:4-compressible (v may stay dense: only
        // the A operand is constrained)
        for h in [1usize, 3] {
            let geo = RdgGeometry::for_radius(h);
            let (tile, _) = random_tile(geo.s, 500 + h as u64);
            let term = RankOneTerm::new(vec![0.75, 0.0, -0.25], vec![0.5, 1.0, 1.25]);
            assert!(term_is_sparse(&term, geo), "≤2-nonzero u rows always compress");

            let tf_sp = TermFrags::build_sparse(&term, geo, true);
            assert!(tf_sp.is_sparse());
            let mut ctx_sp = SimContext::new();
            let x_sp = XFragments::load(&mut ctx_sp, &tile, geo);
            let mut acc_sp = FragAcc::zero();
            rdg_apply_term_sparse_into(&mut ctx_sp, &x_sp, &tf_sp, &mut acc_sp, 1);

            let tf_d = TermFrags::build(&term, geo, true);
            let mut ctx_d = SimContext::new();
            let x_d = XFragments::load(&mut ctx_d, &tile, geo);
            let mut acc_d = FragAcc::zero();
            rdg_apply_term_frags_into(&mut ctx_d, &x_d, &tf_d, &mut acc_d, 1);

            for p in 0..MMA_M {
                for q in 0..MMA_N {
                    assert_eq!(
                        acc_sp.get(p, q).to_bits(),
                        acc_d.get(p, q).to_bits(),
                        "h={h} ({p},{q})"
                    );
                }
            }
            let rb = geo.row_blocks() as u64;
            let cb = geo.col_blocks() as u64;
            assert_eq!(ctx_sp.counters.mma_sp_ops, rb * cb, "step 1 all sparse");
            assert_eq!(ctx_sp.counters.mma_ops, rb, "step 2 stays dense");
            assert_eq!(ctx_sp.counters.metadata_loads, rb, "one per U fragment");
            assert_eq!(ctx_d.counters.mma_sp_ops, 0);
        }
    }

    #[test]
    fn dense_fallback_term_charges_no_sparse_counters() {
        // a 7-tap dense-banded term: interior rows carry up to 4 nonzeros
        // in one aligned window → validator rejects, term falls back
        let geo = RdgGeometry::for_radius(3);
        let (tile, _) = random_tile(geo.s, 900);
        let term = RankOneTerm::new(
            vec![0.1, 0.2, 0.3, 0.4, 0.3, 0.2, 0.1],
            vec![1.0, -1.0, 2.0, 0.5, 2.0, -1.0, 1.0],
        );
        assert!(!term_is_sparse(&term, geo));
        let tf = TermFrags::build_sparse(&term, geo, true);
        assert!(!tf.is_sparse(), "7 dense taps cannot satisfy 2:4");
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let mut acc = FragAcc::zero();
        rdg_apply_term_sparse_into(&mut ctx, &x, &tf, &mut acc, 1);
        assert_eq!(ctx.counters.mma_sp_ops, 0);
        assert_eq!(ctx.counters.metadata_loads, 0);
        assert_eq!(ctx.counters.mma_ops, geo.mma_per_term());
        // fallback result equals the plain dense apply
        let mut want = FragAcc::zero();
        let x_want = XFragments::load(&mut SimContext::new(), &tile, geo);
        let tf_dense = TermFrags::build(&term, geo, true);
        rdg_apply_term_frags_into(&mut SimContext::new(), &x_want, &tf_dense, &mut want, 1);
        for p in 0..MMA_M {
            for q in 0..MMA_N {
                assert_eq!(acc.get(p, q).to_bits(), want.get(p, q).to_bits());
            }
        }
    }

    #[test]
    fn star_like_term_with_interior_zeros_compresses() {
        // taps [a, 0, 0, 0, b]: rows have two nonzeros four apart — they
        // land in different aligned 4-windows, one nonzero per window
        let geo = RdgGeometry::for_radius(3);
        let term = RankOneTerm::new(vec![0.5, 0.0, 0.0, 0.0, -0.5], vec![1.0, 0.0, 0.0, 0.0, 1.0]);
        assert!(term_is_sparse(&term, geo));
    }

    #[test]
    fn pointwise_zero_is_free() {
        let geo = RdgGeometry::for_radius(1);
        let tile = SharedTile::new(geo.s, geo.s);
        let mut ctx = SimContext::new();
        let x = XFragments::load(&mut ctx, &tile, geo);
        let flops0 = ctx.counters.cuda_flops;
        let mut acc = FragAcc::zero();
        apply_pointwise(&mut ctx, &x, 0.0, &mut acc);
        assert_eq!(ctx.counters.cuda_flops, flops0);
    }
}
