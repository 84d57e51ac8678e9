//! Benchmarks for the two-pass spanner (Theorem 1): stream-update
//! throughput and whole-pipeline latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsg_graph::{gen, GraphStream, StreamAlgorithm};
use dsg_spanner::{SpannerParams, TwoPassSpanner};
use std::hint::black_box;

fn bench_pass1_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("twopass_pass1_update");
    for n in [128usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let g = gen::erdos_renyi(n, 8.0 / n as f64, 3);
            let stream = GraphStream::insert_only(&g, 4);
            let mut alg = TwoPassSpanner::new(n, SpannerParams::new(2, 5));
            alg.begin_pass(0);
            let updates = stream.updates();
            let mut i = 0usize;
            b.iter(|| {
                alg.process(black_box(&updates[i % updates.len()]));
                i += 1;
            });
        });
    }
    group.finish();
}

fn bench_full_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("twopass_full");
    group.sample_size(10);
    for (n, k) in [(96usize, 2usize), (192, 2), (96, 3)] {
        group.bench_with_input(
            BenchmarkId::new(format!("k{k}"), n),
            &(n, k),
            |b, &(n, k)| {
                let g = gen::erdos_renyi(n, 10.0 / n as f64, 6);
                let net = GraphStream::with_churn(&g, 1.0, 7).net_multiset();
                b.iter(|| black_box(TwoPassSpanner::build(&net, SpannerParams::new(k, 8))));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pass1_update, bench_full_run);
criterion_main!(benches);
