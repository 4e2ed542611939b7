//! Benchmarks (foundation's in-tree harness) of the extension subsystems: the FP16 fragment
//! model, the kernel-spec parser, grid checkpoint I/O, CUDA-listing
//! generation, and distributed execution.

use foundation::bench::{black_box, Bench};
use lorastencil::{codegen, ExecConfig, Plan};
use stencil_core::{io, kernels, spec, Grid2D, GridData};
use tcu_sim::fp16::{quantize_f16, Acc16, Frag16};
use tcu_sim::SimContext;

fn bench_fp16(c: &mut Bench) {
    c.bench_function("fp16_quantize", |b| b.iter(|| quantize_f16(black_box(0.123456789))));
    let mut ctx = SimContext::new();
    let a = Frag16::from_fn(|i, j| (i as f64 - j as f64) * 0.1);
    let bb = Frag16::from_fn(|i, j| (i + j) as f64 * 0.05);
    c.bench_function("mma16_m16n16k16", |b| {
        b.iter(|| black_box(ctx.mma16(black_box(&a), black_box(&bb), &Acc16::zero())))
    });
}

fn bench_spec(c: &mut Bench) {
    let text = spec::render_kernel(&kernels::box_2d49p());
    c.bench_function("spec_parse_7x7", |b| {
        b.iter(|| spec::parse_kernel(black_box(&text)).unwrap())
    });
    c.bench_function("spec_render_7x7", |b| {
        let k = kernels::box_2d49p();
        b.iter(|| spec::render_kernel(black_box(&k)))
    });
}

fn bench_io(c: &mut Bench) {
    let g = GridData::D2(Grid2D::from_fn(128, 128, |r, cc| (r * cc) as f64 * 0.01));
    c.bench_function("io_encode_128x128", |b| b.iter(|| io::encode(black_box(&g))));
    let bytes = io::encode(&g);
    c.bench_function("io_decode_128x128", |b| b.iter(|| io::decode(black_box(&bytes)).unwrap()));
}

fn bench_codegen(c: &mut Bench) {
    let plan = Plan::new(&kernels::box_2d49p(), ExecConfig::full());
    c.bench_function("codegen_emit_box2d49p", |b| {
        b.iter(|| codegen::emit(black_box(&plan), codegen::Target::Cuda))
    });
}

fn bench_distributed(c: &mut Bench) {
    let grid = Grid2D::from_fn(128, 64, |r, cc| (r + cc) as f64 * 0.1);
    c.bench_function("distributed_4dev_128x64", |b| {
        b.iter(|| {
            multi_gpu::run_distributed(
                black_box(&kernels::box_2d9p()),
                black_box(&grid),
                3,
                4,
                ExecConfig::full(),
            )
        })
    });
}

fn main() {
    let mut c = Bench::from_args();
    bench_fp16(&mut c);
    bench_spec(&mut c);
    bench_io(&mut c);
    bench_codegen(&mut c);
    bench_distributed(&mut c);
    c.finish();
}
