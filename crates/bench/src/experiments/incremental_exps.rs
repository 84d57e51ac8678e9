//! Experiment E26: incremental epoch artifacts — O(changes) refresh.
//!
//! Every derived artifact (spanning forest, distance oracle, cut
//! Laplacian) is an exact function of the compacted net segment, and the
//! segment diff between consecutive epochs is computable in one merge
//! scan. Because the sketches are linear, applying the signed diff to the
//! retained pass state reproduces the full-rebuild state **bit for bit**
//! — so a low-churn epoch can refresh its forest and oracle by patching
//! the previous epoch's instead of rebuilding from the whole segment. The
//! cut Laplacian is the segment's own exact Laplacian, built in one
//! O(live edges) scan on both sides; a splice would cost the same.
//!
//! The workload advances epochs over a dense live graph under batches of
//! known churn. At each churn level a tenant chain patches every epoch
//! from its predecessor, and each epoch is also built from scratch on a
//! fresh tenant (no predecessor) fed the same live edges. The headline
//! (asserted, not just printed): at 1% churn the refresh of all three
//! artifacts on the patching chain is at least 5x faster than the full
//! rebuild, with bit-identical forest edges, oracle rows, and cut values.
//! Higher churn levels chart how the patch's lead narrows as the diff
//! grows.
//!
//! The advance itself is O(changes) too: the merged sketch is linear per
//! vertex, so `advance_epoch` re-merges only the endpoints of the epoch's
//! updates and shares every other state with the previous epoch. The
//! second table times a 1%-churn advance against one whose batch touches
//! every vertex (the cost of a full merge), checking after each that the
//! published sketch is byte-for-byte a single sketch of the whole stream.

use crate::Scale;
use dsg_agm::AgmSketch;
use dsg_graph::{gen, Edge, GraphStream, StreamUpdate, Vertex};
use dsg_service::{EpochSnapshot, GraphConfig, GraphRegistry, ServedGraph};
use dsg_sketch::LinearSketch;
use dsg_util::Table;
use std::collections::HashSet;
use std::time::Instant;

/// One churn level's measurement: medians over the trial epochs.
#[derive(Debug, Clone, Copy)]
pub struct RefreshSample {
    /// Median wall time to refresh all three artifacts on the patching
    /// chain (forest and oracle patched, cut Laplacian built), ms.
    pub patch_ms: f64,
    /// Median wall time for the same refresh as full rebuilds, ms.
    pub rebuild_ms: f64,
    /// Live edges in the graph the epochs advance over.
    pub live_edges: usize,
    /// Segment-diff changes per epoch (deletions + insertions).
    pub delta_changes: usize,
}

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

/// Builds all three artifacts; what the timers bracket.
fn build_all(snap: &EpochSnapshot) {
    let _ = snap.forest();
    let _ = snap.oracle();
    let _ = snap.cut_data();
}

/// Patched and full snapshots of the same stream position must agree on
/// every answer, bit for bit.
fn assert_identical(patched: &EpochSnapshot, full: &EpochSnapshot, ctx: &str) {
    let (fa, fb) = (patched.forest(), full.forest());
    assert_eq!(fa.result.edges, fb.result.edges, "forest diverged: {ctx}");
    assert_eq!(fa.labels, fb.labels, "labels diverged: {ctx}");
    let (oa, ob) = (patched.oracle(), full.oracle());
    let n = patched.num_vertices();
    for u in 0..n as Vertex {
        assert_eq!(
            oa.estimates_from(u),
            ob.estimates_from(u),
            "oracle row {u} diverged: {ctx}"
        );
    }
    let (ca, cb) = (patched.cut_data(), full.cut_data());
    let wa: Vec<u64> = ca
        .laplacian
        .edge_triples()
        .iter()
        .map(|&(_, _, w)| w.to_bits())
        .collect();
    let wb: Vec<u64> = cb
        .laplacian
        .edge_triples()
        .iter()
        .map(|&(_, _, w)| w.to_bits())
        .collect();
    assert_eq!(wa, wb, "laplacian weights diverged: {ctx}");
    for shift in 0..3 {
        let mut side = vec![false; n];
        for (v, s) in side.iter_mut().enumerate() {
            *s = (v + shift) % 3 == 0;
        }
        assert_eq!(
            ca.laplacian.cut_value(&side).to_bits(),
            cb.laplacian.cut_value(&side).to_bits(),
            "cut value diverged: {ctx}"
        );
    }
}

/// Runs a patching epoch chain for `trials` churn epochs, builds each
/// epoch from scratch on a fresh tenant beside it, and returns the median
/// refresh times. Also asserts bit-identity between the two at every
/// epoch.
pub fn measure_refresh(n: usize, p: f64, churn_frac: f64, trials: usize) -> RefreshSample {
    let g = gen::erdos_renyi(n, p, 31);
    let base = GraphStream::insert_only(&g, 32);
    let config = GraphConfig::new(n).seed(7).shards(2);
    let reg = GraphRegistry::new();
    let patch_g = reg.create("patch", config).expect("fresh registry");
    patch_g.apply(base.updates()).expect("valid stream");
    build_all(&patch_g.advance_epoch());

    let mut live: HashSet<Edge> = g.edges().iter().copied().collect();
    let k = ((g.num_edges() as f64 * churn_frac).round() as usize).max(2);
    let mut rng = 0x5EED ^ churn_frac.to_bits();
    let (mut patch_times, mut full_times) = (Vec::new(), Vec::new());
    let mut full_incremental = 0;
    for trial in 0..trials {
        let batch = churn_batch(&mut live, n, k, &mut rng);
        patch_g.apply(&batch).expect("valid batch");

        let patched = patch_g.advance_epoch();
        let t0 = Instant::now();
        build_all(&patched);
        patch_times.push(t0.elapsed().as_secs_f64() * 1e3);

        // A tenant with no predecessor has nothing to patch from: it
        // builds every artifact from its sealed segment.
        let mut edges: Vec<Edge> = live.iter().copied().collect();
        edges.sort_unstable();
        let current: Vec<StreamUpdate> = edges
            .iter()
            .map(|e| StreamUpdate::insert(e.u(), e.v()))
            .collect();
        let fresh = GraphRegistry::new();
        let full_g = fresh.create("full", config).expect("fresh registry");
        full_g.apply(&current).expect("valid stream");
        let rebuilt = full_g.advance_epoch();
        let t0 = Instant::now();
        build_all(&rebuilt);
        full_times.push(t0.elapsed().as_secs_f64() * 1e3);
        full_incremental += full_g.epoch_stats().incremental_builds;

        assert_identical(
            &patched,
            &rebuilt,
            &format!("churn {churn_frac}, trial {trial}"),
        );
    }
    // The two sides must really have split paths: every post-warmup
    // forest and oracle refresh patched on one side and rebuilt on the
    // other (the cut Laplacian has no patch path).
    let stats = patch_g.epoch_stats();
    assert_eq!(
        stats.incremental_builds,
        (trials * 2) as u64,
        "patch chain must patch the forest and oracle every epoch"
    );
    assert!(stats.last_patch_nanos > 0, "patch duration recorded");
    assert_eq!(
        full_incremental, 0,
        "a tenant with no predecessor must build from scratch"
    );
    RefreshSample {
        patch_ms: median(patch_times),
        rebuild_ms: median(full_times),
        live_edges: g.num_edges(),
        delta_changes: k,
    }
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

/// E26: at 1% churn, the patching chain's artifact refresh is at least 5x
/// faster than a full rebuild — with bit-identical answers at every churn level —
/// and the advance that precedes it re-merges only the touched vertices.
pub fn incremental(scale: Scale) {
    let n = scale.pick(200usize, 110);
    let p = scale.pick(0.2, 0.3);
    let trials = scale.pick(3usize, 2);
    println!(
        "\n## E26 — incremental epoch artifacts (n = {n}, p = {p}, dense so the segment \
         dominates the diff; medians over {trials} churn epochs per level)\n"
    );

    let mut t = Table::new(&[
        "churn",
        "live edges",
        "diff changes",
        "patched refresh",
        "full rebuild",
        "speedup",
    ]);
    let mut at_one_pct = None;
    for churn_frac in [0.01, 0.10, 0.50] {
        let s = measure_refresh(n, p, churn_frac, trials);
        let speedup = s.rebuild_ms / s.patch_ms.max(1e-9);
        t.add_row(&[
            format!("{:.0}%", churn_frac * 100.0),
            s.live_edges.to_string(),
            s.delta_changes.to_string(),
            format!("{:.2} ms", s.patch_ms),
            format!("{:.2} ms", s.rebuild_ms),
            format!("{speedup:.1}x"),
        ]);
        if churn_frac == 0.01 {
            at_one_pct = Some((s, speedup));
        }
    }
    println!("{t}");

    let (s, speedup) = at_one_pct.expect("1% level measured");
    assert!(
        s.rebuild_ms >= 5.0 * s.patch_ms,
        "at 1% churn the patched refresh must be >= 5x faster than a full rebuild \
         (patch {:.2} ms vs rebuild {:.2} ms)",
        s.patch_ms,
        s.rebuild_ms
    );
    println!(
        "1% churn ({} changes over {} live edges): patched refresh {speedup:.1}x faster than \
         full rebuild, all answers bit-identical ✓ — higher churn narrows the lead, and the \
         service patches the forest and oracle at every churn level\n",
        s.delta_changes, s.live_edges
    );

    advance_table(scale);
}
