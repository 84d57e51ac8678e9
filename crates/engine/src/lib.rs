//! # dsg-engine — sharded multi-threaded sketch ingest
//!
//! The paper's opening scenario has edge updates "distributed and
//! presented online … on multiple servers": because every sketch in this
//! workspace is *linear*, each server can sketch only its local share of
//! the stream and a coordinator merges the (small) sketches instead of
//! collecting the (large) streams. This crate is that scenario as a
//! subsystem:
//!
//! * [`ShardedEngine`] partitions an incoming update stream across `S`
//!   worker shards (`std::thread` + bounded channels) by **edge
//!   identity** — every update to the same coordinate routes to
//!   [`shard_for`]`(key) % S`, so an insertion and its later deletion
//!   land on the same worker and cancel inside that worker's sketch —
//!   delivering updates in per-shard batches to amortize synchronization;
//! * any [`LinearSketch`] plugs in directly through the blanket
//!   [`EngineSketch`] impl — `AgmSketch`, `SparseRecovery`, `L0Sampler`,
//!   `DistinctEstimator`, …;
//! * shard results flow back to the coordinator either in memory
//!   ([`EngineRun::merged`], a log-depth [`merge_tree`]) or as wire-format
//!   snapshots ([`EngineRun::snapshots`] → [`reduce_snapshots`]), the
//!   serialized path a real multi-server deployment would ship over the
//!   network.
//!
//! Correctness rests entirely on linearity: any K-way partition of a
//! stream, sketched under the same shared seed and merged in any order,
//! is bit-identical to one sketch of the whole stream. That freedom is
//! why the router may choose the partition that makes cancellation
//! *local*: with hash-by-edge routing, a shard's state is a sketch of the
//! net multiset of its slice of the edge space, so its size tracks the
//! live subgraph owned by the shard — not the stream history that flowed
//! through it. Property tests in `tests/` and
//! `tests/integration_engine.rs` at the workspace root pin the
//! partition-invariance down end to end (identical sketch bytes and
//! spanning forests versus single-threaded and round-robin splits).
//!
//! ```
//! use dsg_engine::{EdgeUpdate, EngineConfig, ShardedEngine};
//! use dsg_sketch::{LinearSketch, SparseRecovery};
//!
//! let cfg = EngineConfig::new(4).batch_size(64);
//! let mut engine = ShardedEngine::start(cfg, |_shard| SparseRecovery::new(8, 42));
//! for key in 0..100u64 {
//!     engine.push(EdgeUpdate::new(key, 1));
//! }
//! for key in 0..97u64 {
//!     engine.push(EdgeUpdate::new(key, -1));
//! }
//! let merged = engine.finish().merged().unwrap();
//! assert_eq!(
//!     merged.decode().unwrap(),
//!     vec![(97, 1), (98, 1), (99, 1)],
//! );
//! ```

#![deny(clippy::unwrap_used)]

use dsg_sketch::{LinearSketch, WireError};
use dsg_telemetry::{trace, Counter, EventKind, FlightRecorder, Gauge, Histogram};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// The canonical routing function of the edge-partitioned engine: which
/// of `shards` workers owns coordinate `key`.
///
/// This is a splitmix64-style finalizer over the canonical edge id (for
/// graph streams, `dsg_graph::pair_to_index`), so the partition is
/// deterministic, stateless, and uniform even on structured key spaces.
/// Determinism is what makes cancellation local — a `+1` and its later
/// `-1` hash identically and meet in the same worker's sketch — and what
/// lets a checkpoint validate that a persisted per-shard segment really
/// belongs to the shard that claims it.
///
/// **Stability:** this function is part of the persistent format.
/// Checkpoints (dsg-store format v3) persist per-shard net segments and
/// re-validate them against `shard_for` on decode; changing the hash
/// would orphan every existing checkpoint.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_for(key: u64, shards: usize) -> usize {
    assert!(shards > 0, "need at least one shard");
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// One signed update to the sketched vector: `x[key] += delta`.
///
/// For graph streams, `key` is the edge coordinate under
/// `dsg_graph::pair_to_index` and `delta` is `±1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeUpdate {
    /// The updated coordinate.
    pub key: u64,
    /// The signed change.
    pub delta: i128,
}

impl EdgeUpdate {
    /// Creates an update.
    pub fn new(key: u64, delta: i128) -> Self {
        Self { key, delta }
    }
}

/// Shape of a sharded ingest run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of worker shards (threads).
    pub shards: usize,
    /// Updates per batch handed to a shard. Larger batches amortize
    /// channel synchronization; smaller batches reduce latency and peak
    /// buffering. 256 is a good default for µs-scale sketch updates.
    pub batch_size: usize,
    /// Bounded channel depth per shard, in batches (backpressure: a
    /// producer that outruns every shard blocks instead of buffering
    /// unboundedly).
    pub queue_depth: usize,
}

impl EngineConfig {
    /// A config with `shards` workers and default batching.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        Self {
            shards,
            batch_size: 256,
            queue_depth: 4,
        }
    }

    /// A config sized to the machine (one shard per available core).
    pub fn auto() -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(shards)
    }

    /// Overrides the batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Overrides the per-shard queue depth (in batches).
    ///
    /// # Panics
    ///
    /// Panics if `queue_depth == 0`.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "queue depth must be positive");
        self.queue_depth = queue_depth;
        self
    }
}

/// What a shard worker must be able to do: ingest update batches, be
/// folded into a coordinator-side reduction, and fork a frozen view of
/// its state for live snapshots.
///
/// Every [`LinearSketch`] gets this for free via the blanket impl; a
/// shard type that is not one implements it directly.
pub trait EngineSketch: Send + 'static {
    /// Ingests a batch of updates.
    fn apply_batch(&mut self, batch: &[EdgeUpdate]);

    /// Folds another shard's result into `self` (linearity: the result
    /// sketches the union of both sub-streams).
    fn absorb(&mut self, other: Self);

    /// A frozen view of this shard's current state, taken between
    /// batches: nothing the worker ingests afterwards may show through
    /// it. This is what an epoch snapshot collects while the worker keeps
    /// ingesting — see [`ShardedEngine::snapshot_shards`].
    ///
    /// It runs on the worker thread, so its cost is ingest stall. The
    /// blanket impl is `Clone`: a deep copy, O(state), for the flat
    /// sketches; O(vertices · rounds) pointer copies for `AgmSketch`,
    /// whose states are shared copy-on-write — there the worker pays for
    /// a state's copy on its first write to it while a fork still holds
    /// it, and pays nothing once the fork is dropped.
    fn fork(&self) -> Self;
}

impl<S: LinearSketch + Clone + Send + 'static> EngineSketch for S {
    fn apply_batch(&mut self, batch: &[EdgeUpdate]) {
        for up in batch {
            self.update(up.key, up.delta);
        }
    }

    fn absorb(&mut self, other: Self) {
        self.merge(&other);
    }

    fn fork(&self) -> Self {
        self.clone()
    }
}

/// The ingest-side telemetry handles of a [`ShardedEngine`]. The caller
/// builds the handles (typically from a `dsg_telemetry::MetricRegistry`,
/// with its own naming scheme) and installs them via
/// [`ShardedEngine::set_metrics`]; the default is all no-op handles, so
/// an uninstrumented engine pays one predictable branch per batch.
///
/// All recording happens on the producer thread at **batch** granularity
/// — one counter add per dispatched batch, never one per update — so the
/// hot path stays allocation-free and O(1) per event.
#[derive(Debug, Clone, Default)]
pub struct EngineMetrics {
    /// Updates routed to each shard, in shard order (counted when the
    /// shard's batch dispatches). Leave empty for "no per-shard
    /// counters"; otherwise the length must match the shard count.
    pub routed: Vec<Counter>,
    /// Batches handed to shard workers.
    pub batches_sent: Counter,
    /// Nanoseconds the producer spent blocked in `send` on the bounded
    /// shard channels — queue backpressure made visible.
    pub send_wait: Histogram,
    /// Live max/mean routed-update ratio across shards
    /// ([`load_balance_ratio`] of the routed counts, updated per
    /// dispatch).
    pub load_balance: Gauge,
    /// Flight recorder for per-batch trace events (one
    /// [`EventKind::EngineBatch`] per dispatch, under the dispatching
    /// thread's ambient trace id).
    pub tracer: FlightRecorder,
    /// Interned tenant token for the recorder's events (0 = none).
    pub tenant: u32,
}

impl EngineMetrics {
    /// All-no-op handles (what [`Default`] gives you).
    pub fn noop() -> Self {
        Self::default()
    }
}

/// The load-balance statistic of a run's
/// [`per_shard_updates`](EngineRun::per_shard_updates) and of the live
/// [`EngineMetrics::load_balance`] gauge: max shard load over mean shard
/// load, `1.0` for an empty or shard-less run. `1.0` is a perfectly even
/// split; hash-partitioning keeps this within a small constant of 1 on
/// streams whose updates spread over many edges, while a stream dominated
/// by a handful of hot edges can legitimately skew it (all updates for an
/// edge *must* colocate for cancellation).
pub fn load_balance_ratio(per_shard: &[u64]) -> f64 {
    let total: u64 = per_shard.iter().sum();
    if total == 0 || per_shard.is_empty() {
        return 1.0;
    }
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean = total as f64 / per_shard.len() as f64;
    max / mean
}

/// A message to a shard worker: either a batch of updates or a request to
/// ship back a fork of the shard's current state. Channel FIFO order makes
/// snapshots consistent: a fork reflects exactly the batches sent before
/// the request, never a torn prefix of one.
enum ShardMsg<S> {
    Batch(Vec<EdgeUpdate>),
    Snapshot(SyncSender<S>),
}

/// A running sharded ingest: `S` worker threads, each owning one sketch
/// and a **fixed slice of the edge space** — every update routes to
/// [`shard_for`]`(key, S)`, so all updates for an edge land on the same
/// worker.
///
/// For a linear sketch *any* deterministic partition of the stream merges
/// to the same state, so the router is free to optimize for locality:
/// partitioning by edge identity makes insert/delete churn cancel inside
/// the worker where it lands, keeping each shard's state O(live subgraph
/// ∩ shard) instead of O(stream history). Load balance comes from the
/// hash, not from rotation — see [`load_balance_ratio`] for the skew
/// diagnostic.
#[derive(Debug)]
pub struct ShardedEngine<S: EngineSketch> {
    senders: Vec<SyncSender<ShardMsg<S>>>,
    workers: Vec<JoinHandle<(S, u64)>>,
    /// One fill buffer per shard; a shard's buffer is dispatched to its
    /// worker when it reaches `batch_size`.
    buffers: Vec<Vec<EdgeUpdate>>,
    batch_size: usize,
    pushed: u64,
    /// Updates dispatched to each shard so far — the producer-side view
    /// feeding the live load-balance gauge.
    routed_counts: Vec<u64>,
    metrics: EngineMetrics,
}

/// The completed result of a sharded ingest.
#[derive(Debug)]
pub struct EngineRun<S> {
    /// One sketch per shard, in shard order.
    pub shards: Vec<S>,
    /// Updates each shard ingested. Under hash-partitioning these track
    /// how the *stream's edges* hashed across shards — near-uniform for
    /// spread-out key sets, skewed if a few hot edges dominate the
    /// stream. Summarize with [`load_balance_ratio`].
    pub per_shard_updates: Vec<u64>,
    /// Total updates pushed through the engine.
    pub total_updates: u64,
}

impl<S: EngineSketch> EngineRun<S> {
    /// Reduces the shard sketches to one via [`merge_tree`].
    pub fn merged(self) -> Option<S> {
        merge_tree(self.shards)
    }
}

impl<S: LinearSketch + Send + 'static> EngineRun<S> {
    /// Serializes every shard sketch into its wire snapshot — what each
    /// server ships to the coordinator in the distributed deployment.
    pub fn snapshots(&self) -> Vec<Vec<u8>> {
        self.shards.iter().map(|s| s.to_bytes()).collect()
    }
}

impl<S: EngineSketch> ShardedEngine<S> {
    /// Spawns the shard workers. `make_shard(i)` builds shard `i`'s sketch
    /// on the caller's thread — all shards must be built from the same
    /// shared seed/parameters or the final merge will (correctly) panic.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned.
    pub fn start<F: FnMut(usize) -> S>(cfg: EngineConfig, mut make_shard: F) -> Self {
        let sketches: Vec<S> = (0..cfg.shards).map(&mut make_shard).collect();
        Self::spawn(cfg, sketches, 0)
    }

    /// Spawns the shard workers from **pre-existing** shard states — the
    /// recovery path of a durability layer: a checkpoint stores every
    /// shard's sketch (`LinearSketch::to_bytes` frames), and `restore`
    /// resumes ingest exactly where the checkpoint froze it. By linearity
    /// the restored engine is indistinguishable from one that ingested the
    /// whole stream uninterrupted. Because routing is the stateless
    /// [`shard_for`], resuming with the same shard count re-derives the
    /// same partition — shard `i`'s restored state keeps receiving exactly
    /// the keys it owned before the restart.
    ///
    /// `already_pushed` seeds the [`pushed`](ShardedEngine::pushed)
    /// counter so stream positions keep counting from the true start of
    /// the stream, not from the restart.
    ///
    /// # Panics
    ///
    /// Panics if `sketches.len() != cfg.shards`, or if a worker thread
    /// cannot be spawned.
    pub fn restore(cfg: EngineConfig, sketches: Vec<S>, already_pushed: u64) -> Self {
        assert_eq!(
            sketches.len(),
            cfg.shards,
            "restore requires one sketch per shard"
        );
        Self::spawn(cfg, sketches, already_pushed)
    }

    /// Shared worker-spawning plumbing behind [`start`](ShardedEngine::start)
    /// and [`restore`](ShardedEngine::restore).
    fn spawn(cfg: EngineConfig, sketches: Vec<S>, already_pushed: u64) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.batch_size > 0, "batch size must be positive");
        assert_eq!(sketches.len(), cfg.shards, "one sketch per shard");
        let mut senders = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        for (shard, mut sketch) in sketches.into_iter().enumerate() {
            let (tx, rx): (_, Receiver<ShardMsg<S>>) = sync_channel(cfg.queue_depth.max(1));
            let handle = std::thread::Builder::new()
                .name(format!("dsg-engine-shard-{shard}"))
                .spawn(move || {
                    let mut applied = 0u64;
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            ShardMsg::Batch(batch) => {
                                applied += batch.len() as u64;
                                sketch.apply_batch(&batch);
                            }
                            // A dropped reply receiver just means the
                            // coordinator gave up on the snapshot; the
                            // worker keeps ingesting either way.
                            ShardMsg::Snapshot(reply) => {
                                let _ = reply.send(sketch.fork());
                            }
                        }
                    }
                    (sketch, applied)
                })
                .expect("failed to spawn engine shard");
            senders.push(tx);
            workers.push(handle);
        }
        Self {
            senders,
            workers,
            buffers: (0..cfg.shards)
                .map(|_| Vec::with_capacity(cfg.batch_size))
                .collect(),
            batch_size: cfg.batch_size,
            pushed: already_pushed,
            routed_counts: vec![0; cfg.shards],
            metrics: EngineMetrics::noop(),
        }
    }

    /// Installs telemetry handles (see [`EngineMetrics`]). The engine
    /// starts with all-no-op handles; installing live ones turns on
    /// per-batch recording without touching the ingest API.
    ///
    /// # Panics
    ///
    /// Panics if `metrics.routed` is non-empty but its length disagrees
    /// with the shard count.
    pub fn set_metrics(&mut self, metrics: EngineMetrics) {
        assert!(
            metrics.routed.is_empty() || metrics.routed.len() == self.senders.len(),
            "per-shard counters must match the shard count"
        );
        self.metrics = metrics;
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Total updates pushed so far (including any still buffered).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Takes a consistent snapshot of every shard **without** tearing the
    /// workers down: flushes the buffered tail batches, asks each worker
    /// to [`fork`](EngineSketch::fork) its state between batches, and
    /// returns the forks in shard order. Every update pushed before this
    /// call is reflected in the forks; none pushed after is — per-channel
    /// FIFO delivery is the whole synchronization story. Ingest can
    /// continue immediately.
    ///
    /// The call blocks until every worker has drained its queue
    /// (including the tail batches flushed here) and forked, so it costs
    /// the queued sketching work plus one `fork` per shard — see
    /// [`EngineSketch::fork`] for what that is per sketch type.
    ///
    /// Under hash-partitioning, fork `i` is a sketch of exactly the net
    /// sub-stream of the keys shard `i` owns ([`shard_for`]`(key, S) ==
    /// i`), so its serialized size is O(live subgraph ∩ shard) no matter
    /// how much churn has flowed through.
    ///
    /// This is the epoch-advance primitive of the serving layer: reduce
    /// the forks (in memory, or serialized through [`reduce_snapshots`])
    /// to get the coordinator sketch frozen at this stream position.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker has hung up (i.e. panicked).
    pub fn snapshot_shards(&mut self) -> Vec<S> {
        self.flush();
        let replies: Vec<Receiver<S>> = self
            .senders
            .iter()
            .map(|tx| {
                let (rtx, rrx) = sync_channel(1);
                tx.send(ShardMsg::Snapshot(rtx))
                    .expect("engine shard hung up early");
                rrx
            })
            .collect();
        replies
            .into_iter()
            .map(|rx| rx.recv().expect("engine shard dropped snapshot request"))
            .collect()
    }

    /// Enqueues one update, routed to its owning shard by
    /// [`shard_for`]`(update.key, S)` (delivered when that shard's batch
    /// fills or at [`finish`](ShardedEngine::finish)).
    pub fn push(&mut self, update: EdgeUpdate) {
        self.pushed += 1;
        let shard = shard_for(update.key, self.senders.len());
        self.buffers[shard].push(update);
        if self.buffers[shard].len() >= self.batch_size {
            self.dispatch(shard);
        }
    }

    /// Enqueues a slice of updates.
    pub fn push_all(&mut self, updates: &[EdgeUpdate]) {
        for &up in updates {
            self.push(up);
        }
    }

    /// Sends shard `shard`'s buffered batch to its worker.
    fn dispatch(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        let batch = std::mem::replace(
            &mut self.buffers[shard],
            Vec::with_capacity(self.batch_size),
        );
        let len = batch.len() as u64;
        {
            // Time only the channel send: when it blocks, the bounded
            // queue is exerting backpressure and this histogram shows it.
            let _wait = self.metrics.send_wait.start_timer();
            self.senders[shard]
                .send(ShardMsg::Batch(batch))
                .expect("engine shard hung up early");
        }
        self.routed_counts[shard] += len;
        self.metrics.batches_sent.inc();
        self.metrics.tracer.record(
            EventKind::EngineBatch,
            trace::current_trace_id(),
            self.metrics.tenant,
            len,
        );
        if let Some(counter) = self.metrics.routed.get(shard) {
            counter.add(len);
        }
        if self.metrics.load_balance.is_active() {
            self.metrics
                .load_balance
                .set(load_balance_ratio(&self.routed_counts));
        }
    }

    /// Flushes every shard's buffered tail batch.
    fn flush(&mut self) {
        for shard in 0..self.senders.len() {
            self.dispatch(shard);
        }
    }

    /// Flushes the tail batches, closes the channels, joins every worker,
    /// and returns the per-shard sketches.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any shard worker.
    pub fn finish(mut self) -> EngineRun<S> {
        self.flush();
        // Take the channels and handles out so the Drop impl (which joins
        // whatever is left) sees an already-shut-down engine.
        drop(std::mem::take(&mut self.senders));
        let workers = std::mem::take(&mut self.workers);
        let mut shards = Vec::with_capacity(workers.len());
        let mut per_shard_updates = Vec::with_capacity(workers.len());
        for handle in workers {
            let (sketch, applied) = handle.join().expect("engine shard panicked");
            shards.push(sketch);
            per_shard_updates.push(applied);
        }
        EngineRun {
            shards,
            per_shard_updates,
            total_updates: self.pushed,
        }
    }
}

/// Dropping an engine without [`finish`](ShardedEngine::finish) still
/// shuts it down **deterministically**: the channels close and every
/// worker thread is joined (not detached), so no shard thread outlives
/// its engine — a durability layer can flush and delete files right after
/// the drop without racing a straggler. The buffered tail batch is
/// discarded (only `finish` promises delivery); a worker that panicked is
/// ignored here because propagating from `drop` would abort.
impl<S: EngineSketch> Drop for ShardedEngine<S> {
    fn drop(&mut self) {
        self.senders.clear(); // hang up: workers drain their queue and exit
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Log-depth pairwise reduction of shard results — the coordinator's
/// merge tree. Returns `None` for an empty input.
pub fn merge_tree<S: EngineSketch>(mut shards: Vec<S>) -> Option<S> {
    while shards.len() > 1 {
        let mut next = Vec::with_capacity(shards.len().div_ceil(2));
        let mut it = shards.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.absorb(b);
            }
            next.push(a);
        }
        shards = next;
    }
    shards.pop()
}

/// Decodes wire snapshots (one per shard) and merge-tree-reduces them —
/// the coordinator side of the shipped-snapshot protocol.
///
/// # Errors
///
/// The first [`WireError`] hit while decoding a snapshot.
pub fn reduce_snapshots<S: LinearSketch + Clone + Send + 'static>(
    snapshots: &[Vec<u8>],
) -> Result<Option<S>, WireError> {
    let decoded = snapshots
        .iter()
        .map(|b| S::from_bytes(b))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(merge_tree(decoded))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dsg_sketch::SparseRecovery;

    fn updates(n: u64) -> Vec<EdgeUpdate> {
        (0..n).map(|i| EdgeUpdate::new(i % 37, 1)).collect()
    }

    /// Deterministic pseudo-random keys (LCG, masked to 48 bits so they
    /// stay canonical field elements for the sketches) for balance tests.
    fn random_keys(n: usize, mut state: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 16
            })
            .collect()
    }

    #[test]
    fn sharded_ingest_equals_direct() {
        for shards in [1usize, 2, 4, 7] {
            let ups = updates(1000);
            let mut direct = SparseRecovery::new(64, 5);
            for up in &ups {
                LinearSketch::update(&mut direct, up.key, up.delta);
            }
            let cfg = EngineConfig::new(shards).batch_size(13);
            let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(64, 5));
            eng.push_all(&ups);
            let merged = eng.finish().merged().unwrap();
            assert_eq!(merged.to_bytes(), direct.to_bytes(), "shards={shards}");
        }
    }

    #[test]
    fn routing_is_deterministic_and_covers_all_shards() {
        for shards in 1usize..=8 {
            let mut hit = vec![false; shards];
            for key in 0..1000u64 {
                let s = shard_for(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for(key, shards), "routing must be stateless");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "every shard owns some keys");
        }
    }

    #[test]
    fn hash_partitioning_balances_uniform_streams() {
        let shards = 4usize;
        let keys = random_keys(20_000, 0xD5A1_7E5D);
        let cfg = EngineConfig::new(shards).batch_size(64);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(8, 1));
        for &k in &keys {
            eng.push(EdgeUpdate::new(k, 1));
        }
        let run = eng.finish();
        assert_eq!(run.total_updates, 20_000);
        assert_eq!(run.per_shard_updates.iter().sum::<u64>(), 20_000);
        // Hash-partitioning is skew-tolerant, not perfectly even: bound
        // the max/mean load ratio instead of asserting exact counts.
        let ratio = load_balance_ratio(&run.per_shard_updates);
        assert!(
            (1.0..1.1).contains(&ratio),
            "uniform keys should balance within 10% of even, got {ratio}"
        );
        // Every update for a key must have landed on the owning shard:
        // counts must equal the routing function's own histogram.
        let mut expect = vec![0u64; shards];
        for &k in &keys {
            expect[shard_for(k, shards)] += 1;
        }
        assert_eq!(run.per_shard_updates, expect);
    }

    #[test]
    fn load_balance_reports_skew() {
        // One hot key carrying half the stream colocates on its shard.
        let cfg = EngineConfig::new(4).batch_size(64);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(8, 1));
        for i in 0..300 {
            eng.push(EdgeUpdate::new(7, if i % 2 == 0 { 1 } else { -1 }));
        }
        for k in random_keys(300, 0x5EED) {
            eng.push(EdgeUpdate::new(k, 1));
        }
        let run = eng.finish();
        let ratio = load_balance_ratio(&run.per_shard_updates);
        assert!(ratio > 1.5, "a hot key must show as skew, got {ratio}");
    }

    #[test]
    fn tail_batch_flushed_on_finish() {
        let cfg = EngineConfig::new(2).batch_size(1000); // never fills
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(8, 2));
        eng.push(EdgeUpdate::new(3, 7));
        let merged = eng.finish().merged().unwrap();
        assert_eq!(merged.decode().unwrap(), vec![(3, 7)]);
    }

    #[test]
    fn empty_run_yields_empty_sketch() {
        let cfg = EngineConfig::new(3);
        let eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(8, 3));
        let run = eng.finish();
        assert_eq!(run.total_updates, 0);
        assert!(run.merged().unwrap().is_zero());
    }

    #[test]
    fn merge_tree_handles_all_sizes() {
        for k in 0usize..9 {
            let shards: Vec<SparseRecovery> = (0..k)
                .map(|i| {
                    let mut s = SparseRecovery::new(16, 9);
                    LinearSketch::update(&mut s, i as u64, 1);
                    s
                })
                .collect();
            match merge_tree(shards) {
                None => assert_eq!(k, 0),
                Some(m) => assert_eq!(m.decode().unwrap().len(), k),
            }
        }
    }

    #[test]
    fn snapshot_reduction_matches_in_memory() {
        let ups = updates(500);
        let cfg = EngineConfig::new(3).batch_size(32);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(64, 11));
        eng.push_all(&ups);
        let run = eng.finish();
        let snaps = run.snapshots();
        let shipped: SparseRecovery = reduce_snapshots(&snaps).unwrap().unwrap();
        let direct = run.merged().unwrap();
        assert_eq!(shipped.to_bytes(), direct.to_bytes());
    }

    #[test]
    fn corrupted_snapshot_rejected() {
        let mut s = SparseRecovery::new(8, 13);
        LinearSketch::update(&mut s, 1, 1);
        let mut snap = s.to_bytes();
        let last = snap.len() - 1;
        snap[last] ^= 0x55;
        let res: Result<Option<SparseRecovery>, _> = reduce_snapshots(&[snap]);
        assert!(res.is_err());
    }

    #[test]
    fn live_snapshot_freezes_prefix_and_ingest_continues() {
        let ups = updates(1000);
        let cfg = EngineConfig::new(3).batch_size(16);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(64, 21));
        let cut = 600usize;
        eng.push_all(&ups[..cut]);
        let frozen = merge_tree(eng.snapshot_shards()).unwrap();
        // The snapshot must equal a direct sketch of exactly the prefix…
        let mut direct_prefix = SparseRecovery::new(64, 21);
        for up in &ups[..cut] {
            LinearSketch::update(&mut direct_prefix, up.key, up.delta);
        }
        assert_eq!(frozen.to_bytes(), direct_prefix.to_bytes());
        // …and the engine keeps ingesting afterwards, unaffected.
        eng.push_all(&ups[cut..]);
        let full = eng.finish().merged().unwrap();
        let mut direct_full = SparseRecovery::new(64, 21);
        for up in &ups {
            LinearSketch::update(&mut direct_full, up.key, up.delta);
        }
        assert_eq!(full.to_bytes(), direct_full.to_bytes());
    }

    #[test]
    fn agm_forks_stay_frozen_prefixes_while_ingest_continues() {
        // AgmSketch forks share their states with the live workers
        // (copy-on-write); ingest after the fork must never show through.
        use dsg_agm::AgmSketch;
        let n = 20usize;
        let pairs = (n * (n - 1) / 2) as u64;
        let ups: Vec<EdgeUpdate> = random_keys(400, 0xA6)
            .into_iter()
            .map(|k| EdgeUpdate::new(k % pairs, 1))
            .collect();
        let cfg = EngineConfig::new(3).batch_size(16);
        let mut eng = ShardedEngine::start(cfg, |_| AgmSketch::new(n, 21));
        let mut direct = AgmSketch::new(n, 21);
        let mut held: Vec<(Vec<AgmSketch>, Vec<u8>)> = Vec::new();
        for chunk in ups.chunks(100) {
            eng.push_all(chunk);
            for up in chunk {
                LinearSketch::update(&mut direct, up.key, up.delta);
            }
            // Hold the raw forks (not a merged copy) across later ingest.
            held.push((eng.snapshot_shards(), direct.to_bytes()));
        }
        let full = eng.finish().merged().unwrap();
        assert_eq!(full.to_bytes(), direct.to_bytes());
        for (i, (forks, prefix_bytes)) in held.into_iter().enumerate() {
            let frozen = merge_tree(forks).unwrap();
            assert_eq!(frozen.to_bytes(), prefix_bytes, "snapshot {i}");
        }
    }

    #[test]
    fn repeated_snapshots_are_monotone_prefixes() {
        let ups = updates(300);
        let cfg = EngineConfig::new(2).batch_size(7);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(64, 33));
        let mut direct = SparseRecovery::new(64, 33);
        for (i, up) in ups.iter().enumerate() {
            eng.push(*up);
            LinearSketch::update(&mut direct, up.key, up.delta);
            if (i + 1) % 100 == 0 {
                assert_eq!(eng.pushed(), (i + 1) as u64);
                let snap = merge_tree(eng.snapshot_shards()).unwrap();
                assert_eq!(snap.to_bytes(), direct.to_bytes(), "epoch at {}", i + 1);
            }
        }
        let run = eng.finish();
        assert_eq!(run.total_updates, 300);
    }

    #[test]
    fn snapshot_of_empty_engine_is_zero() {
        let cfg = EngineConfig::new(2);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(8, 4));
        let snap = merge_tree(eng.snapshot_shards()).unwrap();
        assert!(snap.is_zero());
        eng.push(EdgeUpdate::new(5, 2));
        let merged = eng.finish().merged().unwrap();
        assert_eq!(merged.decode().unwrap(), vec![(5, 2)]);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn mismatched_shard_seeds_caught_at_merge() {
        let cfg = EngineConfig::new(2).batch_size(4);
        let mut eng = ShardedEngine::start(cfg, |shard| SparseRecovery::new(8, shard as u64));
        eng.push_all(&updates(10));
        let _ = eng.finish().merged();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        EngineConfig::new(0);
    }

    #[test]
    fn restored_engine_resumes_bit_identically() {
        let ups = updates(900);
        let cut = 500usize;
        let cfg = EngineConfig::new(3).batch_size(17);
        // First life: ingest a prefix, then "crash" at a batch boundary by
        // finishing and keeping the per-shard states.
        let mut first = ShardedEngine::start(cfg, |_| SparseRecovery::new(64, 77));
        first.push_all(&ups[..cut]);
        let run = first.finish();
        assert_eq!(run.total_updates, cut as u64);
        // Second life: restore from the per-shard states and ingest the rest.
        let mut second = ShardedEngine::restore(cfg, run.shards, run.total_updates);
        assert_eq!(second.pushed(), cut as u64);
        second.push_all(&ups[cut..]);
        let merged = second.finish().merged().unwrap();
        let mut direct = SparseRecovery::new(64, 77);
        for up in &ups {
            LinearSketch::update(&mut direct, up.key, up.delta);
        }
        assert_eq!(merged.to_bytes(), direct.to_bytes());
    }

    #[test]
    #[should_panic(expected = "one sketch per shard")]
    fn restore_rejects_shard_count_mismatch() {
        let cfg = EngineConfig::new(3);
        let _ = ShardedEngine::restore(cfg, vec![SparseRecovery::new(8, 1)], 0);
    }

    #[test]
    fn drop_without_finish_joins_cleanly() {
        let cfg = EngineConfig::new(4).batch_size(8);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(32, 9));
        eng.push_all(&updates(200));
        drop(eng); // must join all four workers, not detach them
    }

    #[test]
    fn auto_config_is_positive() {
        assert!(EngineConfig::auto().shards >= 1);
    }

    #[test]
    fn instrumented_engine_counts_routed_updates_and_batches() {
        let shards = 3usize;
        let reg = dsg_telemetry::MetricRegistry::new();
        let metrics = EngineMetrics {
            routed: (0..shards)
                .map(|s| reg.counter(&format!("routed_total{{shard=\"{s}\"}}")))
                .collect(),
            batches_sent: reg.counter("batches_total"),
            send_wait: reg.histogram("send_wait_nanos"),
            load_balance: reg.gauge("load_balance"),
            ..EngineMetrics::default()
        };
        let keys = random_keys(5000, 0xBEEF);
        let cfg = EngineConfig::new(shards).batch_size(64);
        let mut eng = ShardedEngine::start(cfg, |_| SparseRecovery::new(8, 1));
        eng.set_metrics(metrics);
        for &k in &keys {
            eng.push(EdgeUpdate::new(k, 1));
        }
        let run = eng.finish();
        // Every pushed update must be counted on its owning shard.
        let mut expect = vec![0u64; shards];
        for &k in &keys {
            expect[shard_for(k, shards)] += 1;
        }
        let snap = reg.snapshot();
        for (s, &want) in expect.iter().enumerate() {
            assert_eq!(
                snap.counter(&format!("routed_total{{shard=\"{s}\"}}")),
                Some(want),
                "shard {s} routed counter"
            );
        }
        let batches = snap.counter("batches_total").unwrap();
        assert!(batches >= (5000 / 64) as u64, "batches counted: {batches}");
        assert_eq!(
            snap.histogram("send_wait_nanos").unwrap().count(),
            batches,
            "one send-wait sample per dispatched batch"
        );
        let gauge = snap.gauge("load_balance").unwrap();
        let ratio = load_balance_ratio(&run.per_shard_updates);
        assert!(
            (gauge - ratio).abs() < 1e-12,
            "final live gauge {gauge} must equal the run's ratio {ratio}"
        );
    }

    #[test]
    fn load_balance_ratio_is_shared_with_engine_run() {
        assert_eq!(load_balance_ratio(&[]), 1.0);
        assert_eq!(load_balance_ratio(&[0, 0]), 1.0);
        assert!((load_balance_ratio(&[300, 100, 100, 100]) - 2.0).abs() < 1e-12);
    }
}
