//! Benchmarks (foundation's in-tree harness) of the LoRAStencil algorithm components:
//! decomposition strategies (PMA pyramid, star split, Jacobi eigen,
//! Jacobi SVD), the RDG tile chain (with and without BVS), and the
//! kernel-fusion convolution.

use foundation::bench::{black_box, Bench};
use lorastencil::decompose::{eigen, pyramid, star, svd};
use lorastencil::rdg::{rdg_apply_term_frags_into, RdgGeometry, TermFrags, XFragments};
use lorastencil::{decompose, fusion};
use stencil_core::kernels;
use tcu_sim::{FragAcc, SharedTile, SimContext};

fn bench_decompose(c: &mut Bench) {
    let box49 = kernels::box_2d49p();
    let w = box49.weights_2d();
    c.bench_function("decompose_pyramidal_7x7", |b| {
        b.iter(|| pyramid::pyramidal(black_box(w), 1e-12).unwrap())
    });
    c.bench_function("decompose_eigen_7x7", |b| {
        b.iter(|| eigen::eigen(black_box(w), 1e-12).unwrap())
    });
    c.bench_function("decompose_svd_7x7", |b| b.iter(|| svd::svd(black_box(w), 1e-12)));
    let star13 = kernels::star_2d13p();
    c.bench_function("decompose_star_7x7", |b| {
        b.iter(|| star::star(black_box(star13.weights_2d()), 1e-12).unwrap())
    });
    c.bench_function("decompose_auto_7x7", |b| {
        b.iter(|| decompose::decompose(black_box(w), 1e-12))
    });
}

fn bench_rdg_tile(c: &mut Bench) {
    let geo = RdgGeometry::for_radius(3);
    let mut tile = SharedTile::new(geo.s, geo.s);
    for r in 0..geo.s {
        for cc in 0..geo.s {
            tile.poke(r, cc, ((r * 31 + cc * 7) % 13) as f64 * 0.4);
        }
    }
    let k = kernels::box_2d49p();
    let d = decompose::decompose(k.weights_2d(), 1e-12);
    let frags_bvs = TermFrags::build_all(&d.terms, geo, true);
    let frags_nat = TermFrags::build_all(&d.terms, geo, false);

    c.bench_function("rdg_full_tile_bvs", |b| {
        b.iter(|| {
            let mut ctx = SimContext::new();
            let x = XFragments::load(&mut ctx, &tile, geo);
            let mut acc = FragAcc::zero();
            for tf in &frags_bvs {
                rdg_apply_term_frags_into(&mut ctx, &x, tf, &mut acc, 1);
            }
            black_box(acc)
        })
    });
    c.bench_function("rdg_full_tile_no_bvs", |b| {
        b.iter(|| {
            let mut ctx = SimContext::new();
            let x = XFragments::load(&mut ctx, &tile, geo);
            let mut acc = FragAcc::zero();
            for tf in &frags_nat {
                rdg_apply_term_frags_into(&mut ctx, &x, tf, &mut acc, 1);
            }
            black_box(acc)
        })
    });
}

fn bench_fusion(c: &mut Bench) {
    let k9 = kernels::box_2d9p();
    c.bench_function("fuse_box_2d9p_3x", |b| b.iter(|| fusion::fuse_kernel(black_box(&k9), 3)));
    let k3d = kernels::heat_3d();
    c.bench_function("fuse_heat_3d_2x", |b| b.iter(|| fusion::fuse_kernel(black_box(&k3d), 2)));
}

fn main() {
    let mut c = Bench::from_args();
    bench_decompose(&mut c);
    bench_rdg_tile(&mut c);
    bench_fusion(&mut c);
    c.finish();
}
