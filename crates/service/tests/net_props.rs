//! Order-insensitivity: the correctness ground of log compaction.
//!
//! Every epoch artifact is a function of the stream's **net edge
//! multiset** — never of update order, interleaving, or stream length.
//! These properties pit streams with wildly different shapes (pure
//! permutations; insert/delete interleavings at different churn volumes)
//! but equal net effect against each other and demand bit-identical
//! epochs: sketch bytes, sealed segments, forest edges, component labels,
//! oracle distances, and cut values. Forests and cuts are also checked
//! exact against the sealed segment's live graph. Plus the guard
//! rail that makes cancellation sound: a deletion below net
//! multiplicity zero is a typed, whole-batch-atomic error.

use dsg_agm::AgmSketch;
use dsg_engine::{merge_tree, EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_graph::components::{connected_components, is_spanning_forest};
use dsg_graph::{gen, Edge, Graph, GraphStream, StreamUpdate, Vertex};
use dsg_service::{EpochSnapshot, GraphConfig, GraphRegistry, Query, Response, ServiceError};
use dsg_sketch::LinearSketch;
use dsg_spanner::baswana_sen;
use dsg_sparsifier::Laplacian;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// Ingests a full stream into a fresh served graph and advances one
/// epoch.
fn epoch_of(config: GraphConfig, updates: &[StreamUpdate]) -> Arc<dsg_service::EpochSnapshot> {
    let reg = GraphRegistry::new();
    let served = reg.create("g", config).unwrap();
    served.apply(updates).unwrap();
    served.advance_epoch()
}

/// Served cuts are exact: on three fixed sides, the snapshot answers
/// bit-for-bit what the Laplacian of the live graph `g` cuts.
fn assert_cuts_exact(snap: &EpochSnapshot, g: &Graph) {
    let exact = Laplacian::from_graph(g);
    let n = g.num_vertices();
    for shift in 0..3 {
        let side: Vec<Vertex> = (0..n as Vertex).filter(|v| (v + shift) % 3 == 0).collect();
        let mut in_side = vec![false; n];
        for &v in &side {
            in_side[v as usize] = true;
        }
        let Response::CutEstimate(served) = snap.execute(&Query::CutEstimate(side)).unwrap() else {
            panic!("wrong response variant");
        };
        assert_eq!(
            served.to_bits(),
            exact.cut_value(&in_side).to_bits(),
            "served cut {served} of side {shift} is not the exact cut"
        );
    }
}

/// The served forest is exact: its labels are the smallest-vertex
/// components of the sealed segment's live graph, and its edges form a
/// spanning forest of that graph with `n − num_components` edges.
fn assert_forest_exact(snap: &EpochSnapshot) {
    let g = snap.net_edges().final_graph();
    let forest = snap.forest();
    assert_eq!(forest.labels, connected_components(&g), "labels");
    assert!(
        is_spanning_forest(&g, &forest.edges),
        "not a spanning forest"
    );
    assert_eq!(
        forest.edges.len(),
        g.num_vertices() - forest.num_components,
        "forest size"
    );
}

proptest! {
    /// Permutations: two insertion-only deliveries of the same edge set
    /// in different orders produce bit-identical epochs.
    #[test]
    fn artifacts_invariant_under_permutation(
        graph_seed in 0u64..30,
        order_a in 0u64..1000,
        order_b in 0u64..1000,
        shards in 1usize..4,
    ) {
        let n = 24;
        let g = gen::erdos_renyi(n, 0.18, graph_seed);
        let config = GraphConfig::new(n).seed(5).shards(shards).batch_size(8);
        let ea = epoch_of(config, GraphStream::insert_only(&g, order_a).updates());
        let eb = epoch_of(config, GraphStream::insert_only(&g, order_b).updates());
        prop_assert_eq!(
            LinearSketch::to_bytes(ea.sketch()),
            LinearSketch::to_bytes(eb.sketch()),
            "sketch bytes diverged under permutation"
        );
        prop_assert_eq!(ea.net_edges().entries(), eb.net_edges().entries());
        prop_assert_eq!(&ea.forest().edges, &eb.forest().edges);
        prop_assert_eq!(&ea.forest().labels, &eb.forest().labels);
        assert_forest_exact(&ea);
        let (oa, ob) = (ea.oracle(), eb.oracle());
        for u in 0..n as Vertex {
            prop_assert_eq!(oa.estimate(u, (u + 5) % n as Vertex),
                ob.estimate(u, (u + 5) % n as Vertex));
        }
    }

    /// Interleavings: insert/delete schedules at different churn volumes
    /// (1x vs 3x the live edges, different shuffles, different deletion
    /// placements) with equal net effect produce bit-identical epochs —
    /// even though one stream is several times the other's length.
    #[test]
    fn artifacts_invariant_under_churn_interleavings(
        graph_seed in 0u64..30,
        churn_seed_a in 0u64..500,
        churn_seed_b in 0u64..500,
        shards in 1usize..4,
    ) {
        let n = 24;
        let g = gen::erdos_renyi(n, 0.18, graph_seed);
        let config = GraphConfig::new(n).seed(7).shards(shards).batch_size(8);
        let sa = GraphStream::with_churn(&g, 1.0, churn_seed_a);
        let sb = GraphStream::with_churn(&g, 3.0, churn_seed_b);
        let ea = epoch_of(config, sa.updates());
        let eb = epoch_of(config, sb.updates());
        prop_assert_eq!(
            LinearSketch::to_bytes(ea.sketch()),
            LinearSketch::to_bytes(eb.sketch()),
            "sketch bytes diverged under interleaving"
        );
        prop_assert_eq!(ea.net_edges().entries(), eb.net_edges().entries());
        prop_assert_eq!(&ea.forest().edges, &eb.forest().edges);
        prop_assert_eq!(ea.forest().num_components, eb.forest().num_components);
        assert_forest_exact(&ea);
        assert_forest_exact(&eb);
        let (oa, ob) = (ea.oracle(), eb.oracle());
        for u in 0..n as Vertex {
            prop_assert_eq!(oa.estimate(3, u), ob.estimate(3, u));
        }
        assert_cuts_exact(&ea, &g);
        assert_cuts_exact(&eb, &g);
    }

    /// Routing invariance up the whole stack: a multi-shard
    /// hash-partitioned graph and a single-threaded (1-shard) graph fed
    /// the same churn-heavy stream publish bit-identical epochs — sketch
    /// bytes, sealed segment, forest, labels, oracle distances, exact
    /// cuts. The
    /// engine's partition of the edge space must be unobservable in every
    /// served answer.
    #[test]
    fn artifacts_invariant_under_shard_topology(
        graph_seed in 0u64..30,
        churn_seed in 0u64..500,
        shards in 2usize..5,
    ) {
        let n = 24;
        let g = gen::erdos_renyi(n, 0.18, graph_seed);
        let stream = GraphStream::with_churn(&g, 2.0, churn_seed);
        let base = GraphConfig::new(n).seed(9).batch_size(8);
        let multi = epoch_of(base.shards(shards), stream.updates());
        let single = epoch_of(base.shards(1), stream.updates());
        prop_assert_eq!(
            LinearSketch::to_bytes(multi.sketch()),
            LinearSketch::to_bytes(single.sketch()),
            "sketch bytes diverged across shard topologies"
        );
        prop_assert_eq!(multi.net_edges().entries(), single.net_edges().entries());
        prop_assert_eq!(&multi.forest().edges, &single.forest().edges);
        prop_assert_eq!(&multi.forest().labels, &single.forest().labels);
        assert_forest_exact(&multi);
        assert_forest_exact(&single);
        let (om, os) = (multi.oracle(), single.oracle());
        for u in 0..n as Vertex {
            prop_assert_eq!(om.estimate(u, (u + 7) % n as Vertex),
                os.estimate(u, (u + 7) % n as Vertex));
        }
        assert_cuts_exact(&multi, &g);
        assert_cuts_exact(&single, &g);
    }

    /// The guard rail: a deletion that would drive net multiplicity below
    /// zero is rejected with a typed error, whole-batch-atomically, at
    /// any position in the batch.
    #[test]
    fn deletions_below_zero_are_guarded(
        graph_seed in 0u64..30,
        bad_at in 0usize..6,
    ) {
        let n = 16;
        let g = gen::erdos_renyi(n, 0.3, graph_seed);
        let stream = GraphStream::insert_only(&g, graph_seed ^ 0x5A);
        let reg = GraphRegistry::new();
        let served = reg.create("g", GraphConfig::new(n).seed(1)).unwrap();
        served.apply(stream.updates()).unwrap();

        // A batch that is fine up to `bad_at`, then over-deletes a pair
        // that was already deleted once.
        let victim = stream.updates()[0].edge;
        let mut batch: Vec<StreamUpdate> = (0..bad_at)
            .map(|i| StreamUpdate::insert((i % 3) as Vertex, 10 + (i % 5) as Vertex))
            .collect();
        batch.push(StreamUpdate::delete(victim.u(), victim.v())); // legal: live
        batch.push(StreamUpdate::delete(victim.u(), victim.v())); // below zero
        let before = served.advance_epoch();
        match served.apply(&batch) {
            Err(ServiceError::NegativeMultiplicity { edge }) => {
                prop_assert_eq!(edge, victim);
            }
            other => prop_assert!(false, "expected NegativeMultiplicity, got {:?}", other),
        }
        // Atomic: nothing from the bad batch landed — not even its legal
        // prefix.
        let after = served.advance_epoch();
        prop_assert_eq!(after.total_updates(), before.total_updates());
        prop_assert_eq!(
            LinearSketch::to_bytes(after.sketch()),
            LinearSketch::to_bytes(before.sketch())
        );
    }
}

/// Full bit-identity check between two epoch snapshots of the same
/// stream position: sketch bytes, sealed segment, forest edge set +
/// labels + component count, every oracle distance row, and the cut
/// Laplacian down to the bit patterns of its weights and degrees.
fn assert_bit_identical(a: &EpochSnapshot, b: &EpochSnapshot, ctx: &str) {
    assert_eq!(
        LinearSketch::to_bytes(a.sketch()),
        LinearSketch::to_bytes(b.sketch()),
        "sketch bytes diverged: {ctx}"
    );
    assert_eq!(a.net_edges().entries(), b.net_edges().entries(), "{ctx}");
    let (fa, fb) = (a.forest(), b.forest());
    assert_eq!(fa.edges, fb.edges, "forest diverged: {ctx}");
    assert_eq!(fa.labels, fb.labels, "labels diverged: {ctx}");
    assert_eq!(fa.num_components, fb.num_components, "{ctx}");
    let (oa, ob) = (a.oracle(), b.oracle());
    let n = a.num_vertices();
    for u in 0..n as Vertex {
        assert_eq!(
            oa.estimates_from(u),
            ob.estimates_from(u),
            "oracle row {u} diverged: {ctx}"
        );
    }
    let (ca, cb) = (a.cut_data(), b.cut_data());
    let bits = |l: &Laplacian| -> Vec<(Vertex, Vertex, u64)> {
        l.edge_triples()
            .iter()
            .map(|&(u, v, w)| (u, v, w.to_bits()))
            .collect()
    };
    assert_eq!(
        bits(&ca.laplacian),
        bits(&cb.laplacian),
        "laplacian weights diverged: {ctx}"
    );
    for v in 0..n as Vertex {
        assert_eq!(
            ca.laplacian.degree(v).to_bits(),
            cb.laplacian.degree(v).to_bits(),
            "degree {v} diverged: {ctx}"
        );
    }
}

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Deterministic churn batch: deletes ~`frac` of the live edges and
/// inserts about half as many fresh pairs, keeping `live` in sync.
fn churn_batch(live: &mut HashSet<Edge>, n: usize, frac: f64, rng: &mut u64) -> Vec<StreamUpdate> {
    let mut batch = Vec::new();
    let kill = ((live.len() as f64 * frac) as usize).max(1);
    let mut pool: Vec<Edge> = live.iter().copied().collect();
    pool.sort_unstable();
    for _ in 0..kill {
        let idx = (lcg(rng) as usize) % pool.len();
        let e = pool.swap_remove(idx);
        live.remove(&e);
        batch.push(StreamUpdate::delete(e.u(), e.v()));
    }
    let mut added = 0;
    while added < kill / 2 + 1 {
        let u = (lcg(rng) % n as u64) as Vertex;
        let v = (lcg(rng) % n as u64) as Vertex;
        if u == v {
            continue;
        }
        let e = Edge::new(u.min(v), u.max(v));
        if live.insert(e) {
            batch.push(StreamUpdate::insert(e.u(), e.v()));
            added += 1;
        }
    }
    batch
}

/// Deletes every live edge and inserts as many fresh pairs, none of them
/// live before the batch, keeping `live` in sync.
fn replace_all(live: &mut HashSet<Edge>, n: usize, rng: &mut u64) -> Vec<StreamUpdate> {
    let mut old: Vec<Edge> = live.iter().copied().collect();
    old.sort_unstable();
    let mut batch: Vec<StreamUpdate> = old
        .iter()
        .map(|e| StreamUpdate::delete(e.u(), e.v()))
        .collect();
    let mut fresh = HashSet::new();
    while fresh.len() < old.len() {
        let e = fresh_edge(live, n, rng);
        live.insert(e);
        fresh.insert(e);
        batch.push(StreamUpdate::insert(e.u(), e.v()));
    }
    *live = fresh;
    batch
}

/// The epoch-chain contract end to end: N successive epochs advanced on
/// one graph (each re-merging only its dirty vertices into the previous
/// epoch's sketch, and building its artifacts once from its own segment)
/// are bit-identical — sketch bytes, forest, labels, oracle distances,
/// cut Laplacian — to the same epochs each built from scratch off the
/// full stream, at several churn levels up to replacing every live edge
/// (`frac` 1.0). Every epoch's oracle is the Baswana–Sen spanner of its
/// own segment's live graph.
#[test]
fn incremental_epoch_chain_matches_scratch_builds() {
    let n = 30;
    let g = gen::erdos_renyi(n, 0.25, 31);
    for frac in [0.08f64, 0.3, 1.0] {
        let config = GraphConfig::new(n).seed(17).shards(2).batch_size(16);
        let reg = GraphRegistry::new();
        let chained = reg.create("g", config).unwrap();
        let mut cumulative: Vec<StreamUpdate> = GraphStream::insert_only(&g, 32).updates().to_vec();
        chained.apply(&cumulative).unwrap();
        chained.advance_epoch();
        let mut live: HashSet<Edge> = g.edges().iter().copied().collect();
        let mut rng = 0xDEAD_BEEF ^ (frac.to_bits());
        for epoch in 0..4 {
            let batch = if frac < 1.0 {
                churn_batch(&mut live, n, frac, &mut rng)
            } else {
                replace_all(&mut live, n, &mut rng)
            };
            chained.apply(&batch).unwrap();
            cumulative.extend_from_slice(&batch);
            let snap = chained.advance_epoch();
            let scratch = epoch_of(config, &cumulative);
            let ctx = format!("chain epoch {epoch}, churn {frac}");
            assert_bit_identical(&snap, &scratch, &ctx);
            let bs07 = baswana_sen::build_spanner(
                &snap.net_edges().final_graph(),
                config.spanner_k,
                config.oracle_params().seed,
            );
            assert_eq!(
                snap.oracle().spanner().edges(),
                bs07.edges(),
                "served spanner is not BS07 of the segment: {ctx}"
            );
        }
    }
}

/// A pair that is not live, for insert-only steps.
fn fresh_edge(live: &HashSet<Edge>, n: usize, rng: &mut u64) -> Edge {
    loop {
        let u = (lcg(rng) % n as u64) as Vertex;
        let v = (lcg(rng) % n as u64) as Vertex;
        if u != v && !live.contains(&Edge::new(u.min(v), u.max(v))) {
            return Edge::new(u.min(v), u.max(v));
        }
    }
}

/// What one step of the epoch chain below feeds the graph.
#[derive(Clone, Copy)]
enum Feed {
    Nothing,
    OneInsert,
    /// Insert then delete the same fresh pair: net zero, two dirty vertices.
    InsertThenDelete,
    Churn(f64),
}

/// How one step of the epoch chain below publishes.
#[derive(Clone, Copy)]
enum Publish {
    Memory,
    Checkpoint,
    /// `checkpoint_state`, then continue on a graph restored from it.
    Restore,
}

/// The dirty-vertex remerge is unobservable: along a chain of epochs of
/// mixed size, published by every path in turn, each snapshot's sketch
/// is byte-for-byte a single sketch fed the whole stream and a full
/// `merge_tree` over fresh forks of a twin engine; an epoch without
/// updates keeps its predecessor's forest; and no published snapshot is
/// changed by the epochs after it, although they share its states.
#[test]
fn remerged_epoch_chain_is_bit_identical_to_full_merges() {
    use Feed::*;
    use Publish::*;
    let n = 40;
    let g = gen::erdos_renyi(n, 0.2, 41);
    let steps = [
        (Churn(0.01), Memory),
        (Nothing, Memory),
        (OneInsert, Checkpoint),
        (Churn(0.4), Memory),
        (InsertThenDelete, Memory),
        (Churn(0.01), Restore),
        (Nothing, Memory),
        (Churn(0.4), Memory),
        (OneInsert, Memory),
        (Churn(0.01), Checkpoint),
        (InsertThenDelete, Memory),
    ];
    for shards in 1usize..=4 {
        let config = GraphConfig::new(n).seed(19).shards(shards).batch_size(8);
        let mut reg = GraphRegistry::new();
        let mut served = reg.create("g", config).unwrap();
        let engine_cfg = EngineConfig::new(shards).batch_size(8);
        let mut twin = ShardedEngine::start(engine_cfg, |_| AgmSketch::new(n, 19));
        let mut single = AgmSketch::new(n, 19);
        let mut live: HashSet<Edge> = g.edges().iter().copied().collect();
        let mut rng = 0xC0FFEE ^ shards as u64;
        // (snapshot, its bytes and freshly decoded forest at publish time)
        let mut held: Vec<(Arc<EpochSnapshot>, Vec<u8>, Vec<Edge>)> = Vec::new();

        let load = GraphStream::insert_only(&g, 42).updates().to_vec();
        let mut batches = vec![(load, Memory)];
        for (feed, publish) in steps {
            let batch = match feed {
                Nothing => Vec::new(),
                OneInsert => {
                    let e = fresh_edge(&live, n, &mut rng);
                    live.insert(e);
                    vec![StreamUpdate::insert(e.u(), e.v())]
                }
                InsertThenDelete => {
                    let e = fresh_edge(&live, n, &mut rng);
                    vec![
                        StreamUpdate::insert(e.u(), e.v()),
                        StreamUpdate::delete(e.u(), e.v()),
                    ]
                }
                Churn(frac) => churn_batch(&mut live, n, frac, &mut rng),
            };
            batches.push((batch, publish));
        }

        for (step, (batch, publish)) in batches.into_iter().enumerate() {
            let ctx = format!("shards {shards}, step {step}");
            served.apply(&batch).unwrap();
            for up in &batch {
                twin.push(EdgeUpdate::new(up.edge.index(n), up.delta as i128));
                single.update(up.edge, up.delta as i128);
            }
            let prev = served.snapshot();
            let snap = match publish {
                Memory => served.advance_epoch(),
                Checkpoint | Restore => {
                    let state = served.checkpoint_state();
                    let forks = state.shards.iter().map(|s| s.sketch.clone()).collect();
                    assert_eq!(
                        merge_tree::<AgmSketch>(forks).unwrap().to_bytes(),
                        single.to_bytes(),
                        "persisted forks: {ctx}"
                    );
                    let snap = served.snapshot();
                    if matches!(publish, Restore) {
                        reg = GraphRegistry::new();
                        served = reg.restore("g", config, state).unwrap();
                        assert_eq!(
                            served.snapshot().sketch().to_bytes(),
                            snap.sketch().to_bytes(),
                            "restored: {ctx}"
                        );
                    }
                    snap
                }
            };
            let bytes = snap.sketch().to_bytes();
            assert_eq!(bytes, single.to_bytes(), "vs single sketch: {ctx}");
            assert_eq!(
                bytes,
                merge_tree(twin.snapshot_shards()).unwrap().to_bytes(),
                "vs full merge of fresh forks: {ctx}"
            );
            assert_eq!(snap.total_updates(), twin.pushed(), "{ctx}");
            if batch.is_empty() {
                assert_eq!(snap.forest().edges, prev.forest().edges, "{ctx}");
                assert_eq!(snap.forest().labels, prev.forest().labels, "{ctx}");
            }
            let forest = snap.sketch().spanning_forest().edges;
            held.push((snap, bytes, forest));
        }

        // Snapshot isolation under sharing: decode every held epoch again.
        for (snap, bytes, forest) in &held {
            let ctx = format!("shards {shards}, held epoch {}", snap.epoch());
            assert_eq!(&snap.sketch().to_bytes(), bytes, "{ctx}");
            assert_eq!(&snap.sketch().spanning_forest().edges, forest, "{ctx}");
        }
    }
}

/// Invalid deltas are typed errors too (the compacted log can only cancel
/// ±1 steps).
#[test]
fn invalid_deltas_are_typed_errors() {
    let reg = GraphRegistry::new();
    let served = reg.create("g", GraphConfig::new(8)).unwrap();
    let mut up = StreamUpdate::insert(0, 1);
    up.delta = 3;
    assert!(matches!(
        served.apply(&[up]),
        Err(ServiceError::InvalidDelta { delta: 3 })
    ));
    assert_eq!(served.advance_epoch().total_updates(), 0);
}
