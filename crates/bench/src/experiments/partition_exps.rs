//! Experiment E22: edge-partitioned ingest — cancel churn where the
//! update lands.
//!
//! The engine routes every update by a deterministic hash of its
//! canonical edge id, so an edge's insert and its later delete always
//! reach the same worker and annihilate in that worker's live sketch.
//! The workload holds the **live graph constant** while insert/delete
//! churn grows the stream ~10x; per-shard fork bytes must stay
//! byte-for-byte flat. The retired round-robin router is simulated as
//! the baseline: batches dealt out blind to edge identity, so a churn
//! pair's two updates usually land on different shards and neither can
//! cancel — its forks carry O(stream) residue. Both partitions still
//! merge to the same sketch (linearity is partition-blind); the
//! difference is purely what each worker holds *live*.

use crate::Scale;
use dsg_agm::AgmSketch;
use dsg_engine::{merge_tree, EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_graph::{gen, GraphStream};
use dsg_service::GraphConfig;
use dsg_sketch::LinearSketch;
use dsg_store::{DurableRegistry, ScratchDir, StoreOptions};
use dsg_util::Table;
use std::time::Instant;

/// E22: per-shard live state must follow the shard's live subgraph, not
/// its share of the stream.
pub fn partition(scale: Scale) {
    let n = scale.pick(200usize, 80);
    let shards = 4usize;
    let batch = 64usize;
    let seed = 17u64;
    let g = gen::erdos_renyi(n, scale.pick(0.05, 0.1), 41);
    println!(
        "\n## E22 — edge-partitioned ingest (n = {n}, {} live edges, {shards} shards; \
         churn grows the stream ~10x at constant live graph)\n",
        g.num_edges(),
    );
    println!(
        "host parallelism: {} hardware threads\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );

    let mut t = Table::new(&[
        "churn",
        "updates",
        "hash fork bytes (max shard)",
        "rr fork bytes (max shard)",
        "fork",
        "epoch advance",
        "checkpoint",
        "ingest rate",
    ]);
    // (stream length, hash-partitioned fork bytes, round-robin fork bytes)
    let mut rows: Vec<(usize, Vec<usize>, Vec<usize>)> = Vec::new();
    for churn in [0.0, 4.5] {
        let stream = GraphStream::with_churn(&g, churn, 42);

        // Hash-partitioned engine: the one in production.
        let cfg = EngineConfig::new(shards).batch_size(batch);
        let mut eng = ShardedEngine::start(cfg, |_| AgmSketch::new(n, seed));
        let t0 = Instant::now();
        for up in stream.updates() {
            eng.push(EdgeUpdate::new(up.edge.index(n), up.delta as i128));
        }
        let ingest_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let forks = eng.snapshot_shards();
        let fork_ms = t0.elapsed().as_secs_f64() * 1e3;
        let hash_bytes: Vec<usize> = forks.iter().map(|s| s.to_bytes().len()).collect();
        let run = eng.finish();

        // The retired router, simulated: batches dealt round-robin,
        // blind to edge identity.
        let mut rr: Vec<AgmSketch> = (0..shards).map(|_| AgmSketch::new(n, seed)).collect();
        for (i, up) in stream.updates().iter().enumerate() {
            rr[(i / batch) % shards].update(up.edge, up.delta as i128);
        }
        let rr_bytes: Vec<usize> = rr.iter().map(|s| s.to_bytes().len()).collect();

        // Bit-identity: both partitions merge to the single-threaded
        // sketch of the whole stream — routing is a pure locality choice.
        let mut single = AgmSketch::new(n, seed);
        for up in stream.updates() {
            single.update(up.edge, up.delta as i128);
        }
        let single_bytes = LinearSketch::to_bytes(&single);
        let merged = run.merged().expect("at least one shard");
        assert_eq!(
            LinearSketch::to_bytes(&merged),
            single_bytes,
            "hash-partitioned merge diverged from the single-threaded replay"
        );
        let rr_merged = merge_tree(rr).expect("at least one shard");
        assert_eq!(
            LinearSketch::to_bytes(&rr_merged),
            single_bytes,
            "round-robin merge diverged from the single-threaded replay"
        );

        // Epoch-advance and checkpoint cost on the full durable stack at
        // this churn level.
        let config = GraphConfig::new(n)
            .seed(seed)
            .shards(shards)
            .batch_size(batch);
        let dir = ScratchDir::new("e22");
        let dreg =
            DurableRegistry::open(dir.path(), StoreOptions::default()).expect("fresh registry");
        let served = dreg.create("p", config).expect("fresh tenant");
        for chunk in stream.updates().chunks(batch) {
            served.apply(chunk).expect("valid stream");
        }
        let t0 = Instant::now();
        served.advance_epoch().expect("epoch advance");
        let advance_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        served.checkpoint().expect("checkpoint");
        let cp_ms = t0.elapsed().as_secs_f64() * 1e3;

        t.add_row(&[
            format!("{churn:.1}"),
            stream.len().to_string(),
            hash_bytes.iter().max().copied().unwrap_or(0).to_string(),
            rr_bytes.iter().max().copied().unwrap_or(0).to_string(),
            format!("{fork_ms:.1} ms"),
            format!("{advance_ms:.1} ms"),
            format!("{cp_ms:.1} ms"),
            format!("{:.0}/s", stream.len() as f64 / ingest_s),
        ]);
        rows.push((stream.len(), hash_bytes, rr_bytes));
    }
    println!("{t}");

    let (len0, hash0, _) = &rows[0];
    let (len1, hash1, rr1) = &rows[rows.len() - 1];
    assert!(
        *len1 >= 10 * *len0,
        "churn workload must grow the stream 10x ({len0} -> {len1})"
    );
    // The tentpole claim, byte for byte: because cancellation is local to
    // the shard the edge hashes to, every shard's fork under 10x churn is
    // IDENTICAL to its fork under the clean stream.
    assert_eq!(
        hash0, hash1,
        "hash-partitioned shard forks must stay byte-for-byte flat under churn"
    );
    // The baseline cannot do this: uncancelled churn residue bloats the
    // round-robin forks.
    let hash_max = hash1.iter().max().copied().unwrap_or(0);
    let rr_max = rr1.iter().max().copied().unwrap_or(0);
    assert!(
        rr_max as f64 >= 1.3 * hash_max as f64,
        "round-robin forks should carry visible churn residue \
         (rr {rr_max} vs hash {hash_max} bytes)"
    );
    println!(
        "stream grew {:.1}x; hash-partitioned forks byte-identical across churn levels, \
         round-robin forks {:.2}x larger; merges bit-identical to single-threaded replay ✓\n",
        *len1 as f64 / *len0 as f64,
        rr_max as f64 / hash_max as f64,
    );
}
