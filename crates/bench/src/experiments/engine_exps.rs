//! Experiment E18: the sharded ingest engine — throughput vs shard count
//! and end-to-end answer equivalence (sharded vs single-sketch).

use crate::Scale;
use dsg_core::engine::EngineBuilder;
use dsg_core::prelude::*;
use dsg_engine::{EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_graph::components::is_spanning_forest;
use dsg_graph::gen;
use dsg_util::{space::human_bytes, Table};

/// E18: sharded AGM ingest throughput and snapshot sizes per shard count,
/// plus the answer-equivalence checks the engine's correctness rests on.
pub fn engine(scale: Scale) {
    let n = scale.pick(400usize, 150);
    let churn = 2.0;
    let seed = 42u64;
    let g = gen::erdos_renyi(n, scale.pick(0.04, 0.08), 7);
    let stream = GraphStream::with_churn(&g, churn, 8);
    let updates: Vec<EdgeUpdate> = stream
        .updates()
        .iter()
        .map(|up| EdgeUpdate::new(up.edge.index(n), up.delta as i128))
        .collect();
    println!(
        "\n## E18 — sharded ingest engine (n = {n}, {} updates, AGM sketch)\n",
        updates.len()
    );

    // Reference: one sketch, one thread, no engine.
    let t0 = std::time::Instant::now();
    let mut direct = dsg_agm::AgmSketch::new(n, seed);
    for up in &updates {
        LinearSketch::update(&mut direct, up.key, up.delta);
    }
    let direct_secs = t0.elapsed().as_secs_f64();
    let direct_forest = direct.spanning_forest();

    let mut t = Table::new(&[
        "shards",
        "wall time",
        "updates/s",
        "speedup",
        "snapshot bytes",
        "forest == direct",
    ]);
    let mut s1_secs = direct_secs;
    for shards in [1usize, 2, 4, 8] {
        let cfg = EngineConfig::new(shards).batch_size(256);
        let t0 = std::time::Instant::now();
        let mut eng = ShardedEngine::start(cfg, |_| dsg_agm::AgmSketch::new(n, seed));
        eng.push_all(&updates);
        let run = eng.finish();
        let secs = t0.elapsed().as_secs_f64();
        if shards == 1 {
            s1_secs = secs;
        }
        let snap_bytes: usize = run.snapshots().iter().map(Vec::len).sum();
        let merged = run.merged().expect("at least one shard");
        let forest = merged.spanning_forest();
        t.add_row(&[
            shards.to_string(),
            format!("{:.1} ms", secs * 1e3),
            format!("{:.0}", updates.len() as f64 / secs),
            format!("{:.2}x", s1_secs / secs),
            human_bytes(snap_bytes),
            (forest.edges == direct_forest.edges).to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "(direct single-sketch baseline: {:.1} ms; speedup is vs the S=1 engine \
         and tracks available cores — this host reports {})",
        direct_secs * 1e3,
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    );
    assert!(
        is_spanning_forest(&g, &direct_forest.edges),
        "direct forest invalid"
    );

    // End-to-end equivalence through the builder driver: forest via wire
    // snapshots.
    let b = EngineBuilder::new(n).shards(4).seed(seed);
    let wire_forest = b.spanning_forest_via_wire(&stream);
    println!(
        "wire-shipped snapshot path: forest == direct: {}",
        wire_forest.edges == direct_forest.edges
    );
    assert_eq!(
        wire_forest.edges, direct_forest.edges,
        "wire-shipped forest diverged"
    );
    println!();
}
