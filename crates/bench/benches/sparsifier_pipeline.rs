//! Benchmarks for the two-pass sparsifier pipeline (Corollary 2) and its
//! numerical verification machinery.

use criterion::{criterion_group, criterion_main, Criterion};
use dsg_graph::{gen, GraphStream};
use dsg_sparsifier::{resistance, spectral, Laplacian, SparsifierParams, TwoPassSparsifier};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparsifier_pipeline");
    group.sample_size(10);
    group.bench_function("k24_clique", |b| {
        let g = gen::complete(24);
        let net = GraphStream::insert_only(&g, 1).net_multiset();
        let mut params = SparsifierParams::new(2, 0.5, 2);
        params.z_factor = 0.03;
        params.j_factor = 0.4;
        b.iter(|| black_box(TwoPassSparsifier::build(&net, params)));
    });
    group.finish();
}

fn bench_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("spectral_verification");
    group.sample_size(10);
    group.bench_function("exact_eps_n64", |b| {
        let g = gen::erdos_renyi(64, 0.3, 3);
        let l = Laplacian::from_graph(&g);
        b.iter(|| black_box(spectral::spectral_epsilon(&l, &l)));
    });
    group.bench_function("effective_resistance_n128", |b| {
        let g = gen::erdos_renyi(128, 0.1, 4);
        let l = Laplacian::from_graph(&g);
        b.iter(|| black_box(resistance::effective_resistance(&l, 0, 64)));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_verification);
criterion_main!(benches);
