//! Direct micro-loops over single layers, on the workload's own inputs.
//!
//! Each loop calls one layer's public functions from outside, on the
//! update stream, live edges and sealed segments the traced pass left
//! standing, at the workload's own `n`. A loop runs a few rounds and
//! reports the median round. Loops over the per-update layers take a
//! prefix of the stream, so that the whole traced run stays short.

use crate::harness::{tenant_config, TENANT};
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::Live;
use dsg_agm::AgmSketch;
use dsg_core::{SpannerBuilder, SparsifierBuilder};
use dsg_engine::{EdgeUpdate, EngineConfig, ShardedEngine};
use dsg_graph::{CompactedLog, GraphStream, NetMultiset, StreamUpdate};
use dsg_hash::{KWiseHash, SplitMix64};
use dsg_service::{LoadGen, MetricRegistry, QueryMix, QueryService};
use dsg_sketch::{L0Sampler, LinearSketch, SparseRecovery};
use dsg_store::{
    read_checkpoint, write_checkpoint, SyncPolicy, Wal, WalConfig, WalPosition, WalRecord,
};
use dsg_util::SpaceUsage;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub type Values = BTreeMap<&'static str, f64>;

const ROUNDS: usize = 3;
/// Updates the per-update loops take from the front of the load stream
/// (one AGM update costs ~0.2 ms at n=2000).
const UPDATE_PREFIX: usize = 2048;
/// Decoding budget of the program's own L0 levels.
const LEVEL_BUDGET: usize = 8;

/// Median over [`ROUNDS`] of the seconds one call of `f` takes.
fn seconds(mut f: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&rounds).unwrap_or(0.0)
}

fn hashing(live: &Live, keys: &[(u64, i128)], out: &mut Values) {
    let hash = KWiseHash::new(4, live.seed);
    let secs = seconds(|| {
        let mut acc = 0u64;
        for &(key, _) in keys {
            acc ^= hash.hash(black_box(key));
        }
        black_box(acc);
    });
    out.insert("hashing.kwise_hash_ns", secs * 1e9 / keys.len() as f64);
}

fn sketch(live: &Live, keys: &[(u64, i128)], out: &mut Values) {
    let pairs = dsg_graph::ids::num_pairs(live.n).max(1);
    let universe_bits = 64 - pairs.leading_zeros();
    let secs = seconds(|| {
        let mut sketch = SparseRecovery::new(LEVEL_BUDGET, live.seed);
        for &(key, delta) in keys {
            sketch.update(key, delta);
        }
        black_box(&sketch);
    });
    out.insert("sketch.ssparse_update_ns", secs * 1e9 / keys.len() as f64);
    let secs = seconds(|| {
        let mut sampler = L0Sampler::new(universe_bits, live.seed);
        for &(key, delta) in keys {
            sampler.update(key, delta);
        }
        black_box(&sampler);
    });
    out.insert("sketch.l0_update_ns", secs * 1e9 / keys.len() as f64);

    // Decodes, on the live edges: sparse recovery within its budget, and
    // L0 samples of vectors the size of a vertex neighbourhood or more.
    let live_keys: Vec<u64> = live.live_edges.iter().map(|e| e.index(live.n)).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let sparse: Vec<SparseRecovery> = live_keys
        .chunks(LEVEL_BUDGET - 2)
        .take(256)
        .map(|chunk| {
            let mut s = SparseRecovery::new(LEVEL_BUDGET, live.seed);
            chunk.iter().for_each(|&k| s.update(k, 1));
            s
        })
        .collect();
    let start = Instant::now();
    for s in &sparse {
        attempted += 1;
        failed += u64::from(black_box(s.decode()).is_err());
    }
    out.insert(
        "sketch.ssparse_decode_us",
        start.elapsed().as_secs_f64() * 1e6 / sparse.len().max(1) as f64,
    );
    let samplers: Vec<L0Sampler> = live_keys
        .chunks(64)
        .take(128)
        .enumerate()
        .map(|(i, chunk)| {
            let mut s = L0Sampler::new(universe_bits, live.seed ^ i as u64);
            chunk.iter().for_each(|&k| s.update(k, 1));
            s
        })
        .collect();
    let start = Instant::now();
    for s in &samplers {
        attempted += 1;
        // A nonzero vector must yield a sample.
        failed += u64::from(!matches!(black_box(s.sample()), Ok(Some(_))));
    }
    out.insert(
        "sketch.l0_sample_us",
        start.elapsed().as_secs_f64() * 1e6 / samplers.len().max(1) as f64,
    );
    out.insert(
        "sketch.decode_fail_ratio",
        failed as f64 / attempted.max(1) as f64,
    );
}

fn agm(live: &Live, updates: &[StreamUpdate], out: &mut Values) {
    let snap = live.tenant.snapshot();
    let sketch = snap.sketch();
    let secs = seconds(|| {
        let mut fresh = AgmSketch::new(live.n, live.seed);
        for up in updates {
            fresh.update(up.edge, i128::from(up.delta));
        }
        black_box(&fresh);
    });
    out.insert("agm.update_ns", secs * 1e9 / updates.len() as f64);
    out.insert(
        "agm.clone_ms",
        seconds(|| drop(black_box(sketch.clone()))) * 1e3,
    );
    let mut merged = Vec::new();
    for _ in 0..ROUNDS {
        let mut target = sketch.clone();
        let start = Instant::now();
        LinearSketch::merge(&mut target, sketch);
        merged.push(start.elapsed().as_secs_f64());
        black_box(&target);
    }
    out.insert("agm.merge_ms", median(&merged).unwrap_or(0.0) * 1e3);
    out.insert(
        "agm.forest_ms",
        seconds(|| drop(black_box(sketch.spanning_forest()))) * 1e3,
    );
    out.insert("agm.sketch_bytes", sketch.space_bytes() as f64);

    let mut frame = Vec::new();
    let secs = seconds(|| frame = LinearSketch::to_bytes(sketch));
    let megabytes = frame.len() as f64 / 1e6;
    out.insert("sketch.wire_encode_mb_per_s", megabytes / secs);
    let secs = seconds(|| drop(black_box(AgmSketch::from_bytes(&frame))));
    out.insert("sketch.wire_decode_mb_per_s", megabytes / secs);
}

fn engine(live: &Live, keys: &[(u64, i128)], out: &mut Values) {
    let updates: Vec<EdgeUpdate> = keys.iter().map(|&(k, d)| EdgeUpdate::new(k, d)).collect();
    for (shards, name) in [
        (2, "engine.updates_per_s"),
        (1, "engine.single_shard_updates_per_s"),
    ] {
        let secs = seconds(|| {
            let config = EngineConfig::new(shards).batch_size(256);
            let mut engine = ShardedEngine::start(config, |_| AgmSketch::new(live.n, live.seed));
            engine.push_all(&updates);
            black_box(engine.finish().total_updates);
        });
        out.insert(name, updates.len() as f64 / secs);
    }
}

fn graph(live: &Live, updates: &[StreamUpdate], out: &mut Values) {
    let secs = seconds(|| {
        let mut log = CompactedLog::new(live.n);
        for chunk in updates.chunks(256) {
            if log.check_batch(chunk).is_ok() {
                chunk.iter().for_each(|up| log.apply(up));
            }
        }
        black_box(log.live_edges());
    });
    out.insert("graph.compact_apply_ns", secs * 1e9 / updates.len() as f64);
    let all = &live.load_updates;
    out.insert(
        "graph.net_from_updates_ms",
        seconds(|| drop(black_box(NetMultiset::from_updates(live.n, all)))) * 1e3,
    );
    const REPEATS: usize = 64;
    let delta = live.cur_net.diff(&live.prev_net);
    let secs = seconds(|| {
        for _ in 0..REPEATS {
            black_box(live.cur_net.diff(black_box(&live.prev_net)));
        }
    });
    out.insert("graph.diff_ms", secs * 1e3 / REPEATS as f64);
    let secs = seconds(|| {
        for _ in 0..REPEATS {
            black_box(live.prev_net.apply_delta(black_box(&delta)));
        }
    });
    out.insert("graph.apply_delta_ms", secs * 1e3 / REPEATS as f64);
}

fn live_stream(live: &Live) -> GraphStream {
    let inserts = live
        .live_edges
        .iter()
        .map(|e| StreamUpdate::insert(e.u(), e.v()))
        .collect();
    GraphStream::new(live.n, inserts)
}

fn spanner(live: &Live, out: &mut Values) {
    let config = tenant_config(live.n, live.seed);
    let stream = live_stream(live);
    let builder = SpannerBuilder::new(live.n).params(config.oracle_params());
    let mut edges = 0;
    let secs = seconds(|| edges = builder.build_from_stream(&stream).spanner.num_edges());
    out.insert("spanner.build_ms", secs * 1e3);
    out.insert("spanner.edges", edges as f64);

    let oracle = live.tenant.snapshot().oracle();
    let n = live.n as u32;
    black_box(oracle.estimate(0, n - 1));
    const HITS: u32 = 20_000;
    let secs = seconds(|| {
        for i in 0..HITS {
            black_box(oracle.estimate(0, black_box(1 + i % (n - 1))));
        }
    });
    out.insert("spanner.oracle_hit_ns", secs * 1e9 / f64::from(HITS));
    // 64 sources in rotation through a 32-row FIFO cache: every call is a
    // miss and runs one BFS.
    let sources = 64.min(n);
    let secs = seconds(|| {
        for i in 0..2 * sources {
            let source = i % sources;
            black_box(oracle.estimate(source, (source + 1) % n));
        }
    });
    out.insert(
        "spanner.oracle_miss_us",
        secs * 1e6 / f64::from(2 * sources),
    );
}

fn sparsifier(live: &Live, out: &mut Values) {
    let config = tenant_config(live.n, live.seed);
    let stream = live_stream(live);
    let builder = SparsifierBuilder::new(live.n).params(config.cut_params());
    let start = Instant::now();
    let built = builder.build_from_stream(&stream);
    out.insert("sparsifier.build_ms", start.elapsed().as_secs_f64() * 1e3);
    out.insert("sparsifier.edges", built.sparsifier.num_edges() as f64);

    let cut = live.tenant.snapshot().cut_data();
    let mut rng = SplitMix64::new(live.seed);
    let sides: Vec<Vec<bool>> = (0..256)
        .map(|_| (0..live.n).map(|_| rng.next_below(2) == 1).collect())
        .collect();
    let secs = seconds(|| {
        for side in &sides {
            black_box(cut.laplacian.cut_value(black_box(side)));
        }
    });
    out.insert("sparsifier.cut_query_us", secs * 1e6 / sides.len() as f64);
}

fn pool(live: &Live, out: &mut Values) {
    const WORKERS: usize = 2;
    const IN_FLIGHT: u64 = 64;
    let load = LoadGen::new(live.n, QueryMix::membership_only(), live.seed);
    let before = live.registry.telemetry().snapshot();
    let service = QueryService::start(Arc::clone(&live.registry), WORKERS);
    let mut round_trips = Vec::new();
    for i in 0..2_000 {
        let start = Instant::now();
        black_box(service.query_blocking(TENANT, load.query(i)).is_ok());
        round_trips.push(start.elapsed().as_secs_f64() * 1e6);
    }
    out.insert(
        "service.pool_roundtrip_us",
        median(&round_trips).unwrap_or(0.0),
    );
    let windows = 128;
    let start = Instant::now();
    for w in 0..windows {
        let tickets: Vec<_> = (0..IN_FLIGHT)
            .map(|i| service.submit(TENANT, load.query(w * IN_FLIGHT + i)))
            .collect();
        for ticket in tickets {
            black_box(ticket.wait().is_ok());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    out.insert(
        "service.pool_query_per_s",
        (windows * IN_FLIGHT) as f64 / secs,
    );
    service.shutdown();
    let diff = live.registry.telemetry().snapshot().diff(&before);
    let sum_of = |name: &str| diff.histogram(name).map_or(0, |h| h.sum) as f64;
    let wait = sum_of("dsg_service_pool_queue_wait_nanos");
    let execute = sum_of("dsg_service_pool_execute_nanos");
    let share = if wait + execute > 0.0 {
        wait / (wait + execute)
    } else {
        0.0
    };
    out.insert("service.pool_queue_wait_share", share);
}

fn store(live: &Live, durable_dir: &Path, scratch: &Path, out: &mut Values) -> Result<(), String> {
    let err = |e: dsg_store::StoreError| e.to_string();
    // The WAL alone, buffered append and fsync timed apart.
    let wal_dir = scratch.join("wal-micro");
    let manual = WalConfig {
        sync: SyncPolicy::Manual,
        ..WalConfig::default()
    };
    let mut wal = Wal::open(&wal_dir, manual).map_err(err)?;
    let (mut appends, mut syncs) = (Vec::new(), Vec::new());
    let mut last = wal.position();
    for chunk in live.load_updates.chunks(64) {
        let start = Instant::now();
        last = wal.append_batch(chunk).map_err(err)?;
        appends.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        wal.sync().map_err(err)?;
        syncs.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(wal);
    out.insert("store.wal_append_us", median(&appends).unwrap_or(0.0));
    out.insert("store.wal_fsync_us", median(&syncs).unwrap_or(0.0));
    // No rotation happens below the 4 MiB segment size, so the offset is
    // the log's length.
    out.insert(
        "store.wal_bytes_per_update",
        last.offset as f64 / live.load_updates.len() as f64,
    );
    let origin = WalPosition {
        segment: 0,
        offset: 0,
    };
    let mut replayed = 0u64;
    let secs = seconds(|| {
        replayed = 0;
        let seen = Wal::replay(&wal_dir, origin, |record, _| {
            if let WalRecord::Batch(updates) = record {
                replayed += updates.len() as u64;
            }
            Ok(())
        });
        black_box(seen.is_ok());
    });
    out.insert("store.replay_updates_per_s", replayed as f64 / secs);

    // The checkpoint frame of the workload's own tenant, read and
    // written back to a scratch directory.
    let mut checkpoint = None;
    let secs = seconds(|| checkpoint = read_checkpoint(durable_dir).ok());
    out.insert("store.checkpoint_read_ms", secs * 1e3);
    let checkpoint = checkpoint.ok_or("the durable tenant left no readable checkpoint")?;
    let copy_dir = scratch.join("checkpoint-micro");
    std::fs::create_dir_all(&copy_dir).map_err(|e| e.to_string())?;
    let mut bytes = 0;
    let secs = seconds(|| bytes = write_checkpoint(&copy_dir, &checkpoint).unwrap_or(0));
    out.insert("store.checkpoint_write_ms", secs * 1e3);
    out.insert("store.checkpoint_bytes", bytes as f64);
    Ok(())
}

fn telemetry(out: &mut Values) {
    let registry = MetricRegistry::new();
    let histogram = registry.histogram("benchmark_probe_nanos");
    const RECORDS: u64 = 1_000_000;
    let secs = seconds(|| {
        for i in 0..RECORDS {
            histogram.record(black_box(i));
        }
    });
    out.insert("telemetry.record_ns", secs * 1e9 / RECORDS as f64);
}

/// Runs every micro-loop the workload's layers allow: the sparsifier
/// loops only where the workload builds one (`with_cut`), the store loops
/// only where it left a durable directory.
pub fn measure(
    live: &Live,
    with_cut: bool,
    scratch: &Path,
    rec: &Recorder,
) -> Result<Values, String> {
    let mut out = Values::new();
    let prefix = &live.load_updates[..live.load_updates.len().min(UPDATE_PREFIX)];
    let keys: Vec<(u64, i128)> = prefix
        .iter()
        .map(|up| (up.edge.index(live.n), i128::from(up.delta)))
        .collect();
    rec.span("micro.hashing", || hashing(live, &keys, &mut out));
    rec.span("micro.sketch", || sketch(live, &keys, &mut out));
    rec.span("micro.agm", || agm(live, prefix, &mut out));
    rec.span("micro.engine", || engine(live, &keys, &mut out));
    rec.span("micro.graph", || graph(live, prefix, &mut out));
    rec.span("micro.spanner", || spanner(live, &mut out));
    if with_cut {
        rec.span("micro.sparsifier", || sparsifier(live, &mut out));
    }
    rec.span("micro.service_pool", || pool(live, &mut out));
    if let Some(dir) = &live.durable_dir {
        rec.span("micro.store", || store(live, dir, scratch, &mut out))?;
    }
    rec.span("micro.telemetry", || telemetry(&mut out));
    Ok(out)
}
