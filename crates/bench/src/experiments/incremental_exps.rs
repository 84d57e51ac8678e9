//! Experiment E26: the epoch advance costs O(changes).
//!
//! The merged sketch is linear per vertex, so `advance_epoch` re-merges
//! only the endpoints of the epoch's updates and shares every other state
//! with the previous epoch. The table times a 1%-churn advance against
//! one whose batch touches every vertex (the cost of a full merge),
//! checking after each that the published sketch is byte-for-byte a
//! single sketch of the whole stream.
//!
//! The epoch's artifacts are not part of this experiment: each is built
//! once per epoch from that epoch's own snapshot, so an epoch's refresh
//! costs exactly one build of each artifact it serves.

use crate::Scale;
use dsg_agm::AgmSketch;
use dsg_graph::{gen, Edge, GraphStream, StreamUpdate, Vertex};
use dsg_service::{GraphConfig, GraphRegistry, ServedGraph};
use dsg_sketch::LinearSketch;
use dsg_util::Table;
use std::collections::HashSet;
use std::time::Instant;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Deterministic balanced churn batch: `k/2` deletions of live edges and
/// `k/2` insertions of fresh pairs, so the live size stays put while the
/// segment diff has ~`k` changes.
fn churn_batch(live: &mut HashSet<Edge>, n: usize, k: usize, rng: &mut u64) -> Vec<StreamUpdate> {
    let mut batch = Vec::with_capacity(k);
    let mut pool: Vec<Edge> = live.iter().copied().collect();
    pool.sort_unstable();
    for _ in 0..k / 2 {
        let e = pool.swap_remove((lcg(rng) as usize) % pool.len());
        live.remove(&e);
        batch.push(StreamUpdate::delete(e.u(), e.v()));
    }
    let mut added = 0;
    while added < k - k / 2 {
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

/// One kind of epoch's advance cost: medians over the trial epochs.
#[derive(Debug, Clone, Copy)]
struct AdvanceCost {
    /// Vertices the advance re-merged (`TenantEpochStats::last_dirty_vertices`).
    dirty_vertices: u64,
    /// Wall time of `advance_epoch()`, ms — includes draining the
    /// epoch's still-queued batches through the shard workers.
    advance_ms: f64,
    /// The merge phase alone, ms, from the tenant's own
    /// `dsg_service_epoch_phase_nanos{phase="merge"}` histogram.
    merge_ms: f64,
}

/// Sum of the tenant's merge-phase histogram so far, nanoseconds.
fn merge_phase_nanos(g: &ServedGraph) -> u64 {
    let series = format!(
        "dsg_service_epoch_phase_nanos{{graph=\"{}\",phase=\"merge\"}}",
        g.name()
    );
    g.metrics().histogram(&series).map_or(0, |h| h.sum)
}

/// A net-zero batch with every vertex as an endpoint: each ring pair
/// `{v, v+1}` is toggled and toggled back.
fn touch_every_vertex(live: &HashSet<Edge>, n: usize) -> Vec<StreamUpdate> {
    let mut batch = Vec::with_capacity(2 * n);
    for v in 0..n as Vertex {
        let w = (v + 1) % n as Vertex;
        let e = Edge::new(v.min(w), v.max(w));
        let toggle = |delete: bool| match delete {
            true => StreamUpdate::delete(e.u(), e.v()),
            false => StreamUpdate::insert(e.u(), e.v()),
        };
        let is_live = live.contains(&e);
        batch.extend([toggle(is_live), toggle(!is_live)]);
    }
    batch
}

/// Alternates 1%-churn epochs with epochs that touch every vertex over a
/// sparse `G(n, 4n)` tenant and returns the `(1% churn, all dirty)`
/// advance costs. Asserts after every advance that the published sketch
/// equals a single sketch fed the whole stream, byte for byte.
fn measure_advance(n: usize, trials: usize) -> (AdvanceCost, AdvanceCost) {
    let g = gen::gnm(n, 4 * n, 33);
    let reg = GraphRegistry::new();
    let tenant = reg
        .create("advance", GraphConfig::new(n).seed(7).shards(2))
        .expect("fresh registry");
    let mut single = AgmSketch::new(n, 7);
    let mut live: HashSet<Edge> = g.edges().iter().copied().collect();
    let mut rng = 0xAD7A ^ n as u64;
    let k = (g.num_edges() / 100).max(2);

    let mut advance = |batch: &[StreamUpdate], ctx: &str| -> AdvanceCost {
        tenant.apply(batch).expect("valid batch");
        for up in batch {
            single.update(up.edge, up.delta as i128);
        }
        let merge_before = merge_phase_nanos(&tenant);
        let t0 = Instant::now();
        let snap = tenant.advance_epoch();
        let advance_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            snap.sketch().to_bytes(),
            single.to_bytes(),
            "remerged sketch diverged from a single sketch of the stream: n {n}, {ctx}"
        );
        AdvanceCost {
            dirty_vertices: tenant.epoch_stats().last_dirty_vertices,
            advance_ms,
            merge_ms: (merge_phase_nanos(&tenant) - merge_before) as f64 / 1e6,
        }
    };

    advance(GraphStream::insert_only(&g, 34).updates(), "load");
    let (mut low, mut all) = (Vec::new(), Vec::new());
    for trial in 0..trials {
        let batch = churn_batch(&mut live, n, k, &mut rng);
        low.push(advance(&batch, &format!("1% churn, trial {trial}")));
        let batch = touch_every_vertex(&live, n);
        all.push(advance(&batch, &format!("all dirty, trial {trial}")));
    }
    let summarize = |xs: &[AdvanceCost]| AdvanceCost {
        dirty_vertices: xs[0].dirty_vertices,
        advance_ms: median(xs.iter().map(|c| c.advance_ms).collect()),
        merge_ms: median(xs.iter().map(|c| c.merge_ms).collect()),
    };
    let (low, all) = (summarize(&low), summarize(&all));
    assert_eq!(
        all.dirty_vertices, n as u64,
        "the ring touches every vertex"
    );
    (low, all)
}

/// The advance half of E26: the merge re-sums only dirty vertices, so a
/// 1%-churn advance must beat an all-dirty one — by at least 2x from
/// n = 1000 up; below that constant overheads dominate and the ratio is
/// printed, not gated.
fn advance_table(scale: Scale) {
    let sizes: &[usize] = scale.pick(&[200, 1000, 2000], &[110, 1000]);
    let trials = scale.pick(5usize, 3);
    println!(
        "### Epoch advance: dirty-vertex remerge (sparse G(n, 4n), 2 shards; medians over \
         {trials} epochs per kind; sketch bytes checked against a single sketch after every \
         advance)\n"
    );
    let mut t = Table::new(&[
        "n",
        "epoch",
        "dirty vertices",
        "advance",
        "merge phase",
        "merge speedup",
    ]);
    for &n in sizes {
        let (low, all) = measure_advance(n, trials);
        let speedup = all.merge_ms / low.merge_ms.max(1e-9);
        for (label, c, ratio) in [
            ("1% churn", low, format!("{speedup:.1}x")),
            ("all dirty", all, "1.0x".to_string()),
        ] {
            t.add_row(&[
                n.to_string(),
                label.to_string(),
                c.dirty_vertices.to_string(),
                format!("{:.2} ms", c.advance_ms),
                format!("{:.2} ms", c.merge_ms),
                ratio,
            ]);
        }
        if n >= 1000 {
            assert!(
                all.merge_ms >= 2.0 * low.merge_ms,
                "at n = {n} a 1%-churn merge must be >= 2x faster than an all-dirty one \
                 ({:.2} ms vs {:.2} ms)",
                low.merge_ms,
                all.merge_ms
            );
        }
    }
    println!("{t}");
    println!(
        "1%-churn advances re-merge only the touched vertices (>= 2x faster than an \
         all-dirty merge at n >= 1000), sketch bytes identical to a single sketch ✓\n"
    );
}

/// E26: a 1%-churn advance re-merges only the touched vertices.
pub fn incremental(scale: Scale) {
    println!("\n## E26 — O(changes) epoch advance\n");
    advance_table(scale);
}
