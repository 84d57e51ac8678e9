//! Epoch-refresh microbenchmarks (E26's criterion counterpart): for each
//! artifact — spanning forest, distance oracle, exact cut Laplacian — the
//! cost of advancing a 1%-churn epoch and building that artifact once
//! from the new snapshot, which is all an epoch refresh does.
//!
//! Next to them, the two stages of the epoch advance itself on an
//! n = 2000, m = 8000 sketch pair: `agm_fork` (a shard fork — pointer
//! copies) and `agm_remerge` with 1% / 10% / 100% of the vertices dirty
//! (100% is the full merge).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsg_agm::AgmSketch;
use dsg_graph::{gen, Edge, Graph, GraphStream, StreamUpdate, Vertex};
use dsg_service::{EpochSnapshot, GraphConfig, GraphRegistry};
use std::hint::black_box;

/// `k` deterministic non-edges of `g`, toggled on/off between epochs so
/// every iteration's segment diff holds exactly `k` changes.
fn toggle_edges(g: &Graph, k: usize) -> Vec<Edge> {
    let n = g.num_vertices();
    let mut out = Vec::with_capacity(k);
    'hunt: for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            if !g.has_edge(u, v) {
                out.push(Edge::new(u, v));
                if out.len() >= k {
                    break 'hunt;
                }
            }
        }
    }
    out
}

/// One artifact's per-epoch refresh at 1% churn: each bench iteration
/// applies the toggle batch, seals an epoch, and builds just the artifact
/// under test — the whole refresh cost, since every epoch builds its
/// artifacts from its own snapshot.
fn bench_artifact(c: &mut Criterion, name: &str, n: usize, p: f64, build: fn(&EpochSnapshot)) {
    let g = gen::erdos_renyi(n, p, 31);
    let toggles = toggle_edges(&g, (g.num_edges() / 100).max(1));
    let registry = GraphRegistry::new();
    let tenant = registry
        .create("t", GraphConfig::new(n).seed(7))
        .expect("fresh registry");
    tenant
        .apply(GraphStream::insert_only(&g, 32).updates())
        .expect("valid stream");
    build(&tenant.advance_epoch());
    let mut on = false;
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function("churn_1pct", |b| {
        b.iter(|| {
            let batch: Vec<StreamUpdate> = toggles
                .iter()
                .map(|e| {
                    if on {
                        StreamUpdate::delete(e.u(), e.v())
                    } else {
                        StreamUpdate::insert(e.u(), e.v())
                    }
                })
                .collect();
            on = !on;
            tenant.apply(&batch).expect("valid batch");
            build(black_box(&tenant.advance_epoch()));
        });
    });
    group.finish();
}

fn bench_forest(c: &mut Criterion) {
    bench_artifact(c, "incremental_forest", 160, 0.05, |snap| {
        black_box(snap.forest());
    });
}

fn bench_oracle(c: &mut Criterion) {
    bench_artifact(c, "incremental_oracle", 160, 0.05, |snap| {
        black_box(snap.oracle());
    });
}

fn bench_cut(c: &mut Criterion) {
    bench_artifact(c, "incremental_cut", 160, 0.05, |snap| {
        black_box(snap.cut_data());
    });
}

/// Fork and remerge of two shard sketches that split an n = 2000,
/// m = 8000 graph between them.
fn bench_advance(c: &mut Criterion) {
    let n = 2000;
    let g = gen::gnm(n, 4 * n, 31);
    let mut shards = vec![AgmSketch::new(n, 7), AgmSketch::new(n, 7)];
    for (i, e) in g.edges().iter().enumerate() {
        shards[i % 2].update(*e, 1);
    }
    let prev = shards[0].remerge(&shards, &vec![true; n]);

    c.bench_function("agm_fork", |b| b.iter(|| black_box(shards[0].clone())));

    let mut group = c.benchmark_group("agm_remerge");
    group.sample_size(10);
    for pct in [1usize, 10, 100] {
        let dirty: Vec<bool> = (0..n).map(|v| v % 100 < pct).collect();
        let id = BenchmarkId::from_parameter(format!("dirty_{pct}pct"));
        group.bench_with_input(id, &dirty, |b, dirty| {
            b.iter(|| black_box(prev.remerge(&shards, dirty)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_advance,
    bench_forest,
    bench_oracle,
    bench_cut
);
criterion_main!(benches);
