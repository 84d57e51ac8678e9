//! Experiment E21: log compaction by linearity — epoch advance, artifact
//! rebuild, checkpoint size, and recovery on long delete-heavy streams,
//! where raw-log cost diverges from graph size.
//!
//! The workload holds the **live graph constant** while insert/delete
//! churn grows the stream ~10x. Under the retired raw-log design every
//! per-epoch cost tracked stream length; under compacted net-edge
//! segments they must track the live graph — asserted, not just printed —
//! while pinned-epoch answers stay bit-identical to raw-log
//! single-threaded recomputes.

use crate::Scale;
use dsg_graph::{gen, GraphStream, Vertex};
use dsg_service::{GraphConfig, GraphRegistry};
use dsg_spanner::baswana_sen;
use dsg_spanner::oracle::DistanceOracle;
use dsg_store::{DurableRegistry, ScratchDir, StoreOptions};
use dsg_util::Table;
use std::time::Instant;

/// E21: costs must follow the graph, answers must follow the stream.
pub fn compaction(scale: Scale) {
    let n = scale.pick(160usize, 60);
    let batch = 64usize;
    let g = gen::erdos_renyi(n, scale.pick(0.06, 0.12), 31);
    let config = GraphConfig::new(n).seed(9).shards(2).batch_size(batch);
    println!(
        "\n## E21 — log compaction by linearity (n = {n}, {} live edges, \
         churn grows the stream ~10x at constant live graph)\n",
        g.num_edges(),
    );

    let mut t = Table::new(&[
        "churn",
        "updates",
        "net edges",
        "epoch advance",
        "oracle build (net)",
        "oracle build (raw log)",
        "checkpoint bytes",
        "recovery",
    ]);
    // (stream length, checkpoint bytes, net-build ms, recovery ms)
    let mut rows: Vec<(usize, u64, f64, f64)> = Vec::new();
    for churn in [0.0, 2.0, 4.5] {
        let stream = GraphStream::with_churn(&g, churn, 32);

        // In-memory serving: ingest, advance an epoch, lazily build the
        // distance oracle from the sealed compacted segment.
        let reg = GraphRegistry::new();
        let served = reg.create("c", config).expect("fresh registry");
        served.apply(stream.updates()).expect("valid stream");
        let t0 = Instant::now();
        let epoch = served.advance_epoch();
        let advance_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let oracle = epoch.oracle();
        let net_ms = t0.elapsed().as_secs_f64() * 1e3;

        // The raw-log single-threaded recompute: replay the whole stream
        // into its final graph, then build the same Baswana–Sen spanner
        // (the reference the compacted answers must match, bit for bit).
        let t0 = Instant::now();
        let p = config.oracle_params();
        let raw = baswana_sen::build_spanner(&stream.final_graph(), p.k, p.seed);
        let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
        let raw_oracle = DistanceOracle::new(raw, config.oracle_stretch());
        for i in 0..(n as Vertex) {
            let (u, v) = (i % 7, (i * 13 + 1) % n as Vertex);
            if u != v {
                assert_eq!(
                    oracle.estimate(u, v),
                    raw_oracle.estimate(u, v),
                    "pinned-epoch distance diverged from raw-log recompute at ({u}, {v})"
                );
            }
        }
        let mut offline = dsg_agm::AgmSketch::new(n, config.seed);
        for up in stream.updates() {
            offline.update(up.edge, up.delta as i128);
        }
        assert_eq!(
            epoch.forest().result.edges,
            offline.spanning_forest().edges,
            "pinned-epoch forest diverged from raw-log recompute"
        );

        // Durable: checkpoint size and recovery cost at this churn.
        let dir = ScratchDir::new("e21");
        let dreg =
            DurableRegistry::open(dir.path(), StoreOptions::default()).expect("fresh registry");
        let durable = dreg.create("c", config).expect("fresh tenant");
        for chunk in stream.updates().chunks(batch) {
            durable.apply(chunk).expect("valid stream");
        }
        durable.checkpoint().expect("checkpoint");
        let cp_bytes = std::fs::metadata(durable.dir().join(dsg_store::CHECKPOINT_FILE))
            .expect("checkpoint file")
            .len();
        drop((durable, dreg)); // crash
        let t0 = Instant::now();
        let dreg = DurableRegistry::open(dir.path(), StoreOptions::default()).expect("recovery");
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        let recovered = dreg.get("c").expect("tenant");
        assert_eq!(
            recovered.snapshot().total_updates(),
            stream.len() as u64,
            "recovery lost updates"
        );

        let net_edges = epoch.net_edges().num_edges();
        t.add_row(&[
            format!("{churn:.1}"),
            stream.len().to_string(),
            net_edges.to_string(),
            format!("{advance_ms:.1} ms"),
            format!("{net_ms:.1} ms"),
            format!("{raw_ms:.1} ms"),
            cp_bytes.to_string(),
            format!("{recover_ms:.1} ms"),
        ]);
        rows.push((stream.len(), cp_bytes, net_ms, recover_ms));
    }
    println!("{t}");

    let (len0, bytes0, build0, rec0) = rows[0];
    let (len2, bytes2, build2, rec2) = rows[rows.len() - 1];
    assert!(
        len2 >= 10 * len0,
        "churn workload must grow the stream 10x ({len0} -> {len2})"
    );
    // Checkpoint bytes are a function of the live graph: byte-for-byte
    // flat modulo nothing — the net segment and sketches are identical —
    // but allow a hair of slack for future metadata.
    assert!(
        bytes2 <= bytes0 + bytes0 / 50 + 1024,
        "checkpoint bytes must stay flat under churn ({bytes0} -> {bytes2})"
    );
    // Artifact build reads the compacted segment, so its cost tracks the
    // live graph, not the stream; allow generous noise on shared CI.
    assert!(
        build2 <= 5.0 * build0.max(0.5),
        "compacted oracle build must stay flat under churn ({build0:.1} -> {build2:.1} ms)"
    );
    assert!(
        rec2 <= 5.0 * rec0.max(0.5),
        "post-checkpoint recovery must stay flat under churn ({rec0:.1} -> {rec2:.1} ms)"
    );
    println!(
        "stream grew {:.1}x; checkpoint {:.2}x, oracle build {:.2}x, recovery {:.2}x — \
         O(graph), not O(stream); answers bit-identical to raw-log recomputes ✓",
        len2 as f64 / len0 as f64,
        bytes2 as f64 / bytes0 as f64,
        build2 / build0.max(1e-9),
        rec2 / rec0.max(1e-9),
    );

    // Cut artifacts ride the same segment: the served cut is the exact
    // cut of the stream's final graph, however long the stream churned.
    let stream = GraphStream::with_churn(&g, 2.0, 33);
    let reg = GraphRegistry::new();
    let served = reg.create("cut", config).expect("fresh registry");
    served.apply(stream.updates()).expect("valid stream");
    let served_cut = served.advance_epoch().cut_data();
    let exact = dsg_sparsifier::Laplacian::from_graph(&stream.final_graph());
    for shift in 0..4 {
        let mut side = vec![false; n];
        for (v, s) in side.iter_mut().enumerate() {
            *s = (v + shift) % 3 == 0;
        }
        assert_eq!(
            served_cut.laplacian.cut_value(&side).to_bits(),
            exact.cut_value(&side).to_bits(),
            "pinned-epoch cut diverged from the exact cut of the stream's final graph"
        );
    }
    println!("served cut over the compacted segment equals the exact cut of the final graph ✓");
    println!();
}
