//! The durable mode of the service layer: [`DurableGraph`] and
//! [`DurableRegistry`].
//!
//! The layering is WAL-ahead, checkpoint-behind:
//!
//! * **`apply` / `advance_epoch`** first append a record to the tenant's
//!   [`Wal`] (durable per the [`SyncPolicy`]), then
//!   apply the same operation to the in-memory [`ServedGraph`]. The WAL
//!   is therefore always *ahead of or equal to* memory, and replaying it
//!   can only re-create operations that were acknowledged (or were about
//!   to be).
//! * **`checkpoint`** captures the served graph's state atomically at an
//!   epoch boundary ([`ServedGraph::checkpoint_state`]), rotates the WAL
//!   so the capture point is a segment boundary, writes the checkpoint
//!   file with that position, and compacts away every older segment —
//!   bounding disk at one checkpoint plus the post-checkpoint tail.
//! * **`DurableRegistry::open`** recovers every tenant directory found
//!   under the root: restore the checkpoint into a live engine
//!   ([`GraphRegistry::restore`]), then replay the WAL tail through the
//!   normal `apply`/`advance_epoch` path. By linearity the recovered
//!   sketches are bit-identical to an uninterrupted run of the durable
//!   prefix — the property `crates/store/tests/crash_matrix.rs` exercises
//!   for every possible torn tail.
//!
//! All three durable operations on one graph serialize on the tenant's
//! WAL lock, so the WAL's record order is exactly the order operations
//! reached the engine; readers ([`DurableGraph::query`],
//! [`DurableGraph::snapshot`]) never take that lock.

use crate::checkpoint::{read_checkpoint, write_checkpoint, Checkpoint, CHECKPOINT_FILE};
use crate::wal::{ReplaySummary, Wal, WalConfig, WalMetrics, WalPosition, WalRecord};
use crate::{StoreError, SyncPolicy};
use dsg_agm::AgmSketch;
use dsg_graph::{StreamUpdate, Vertex};
use dsg_service::audit::{self, QualityVerdict};
use dsg_service::{
    EpochSnapshot, GraphConfig, GraphRegistry, PersistedGraph, PersistedShard, Query, Response,
    ServedGraph, ServiceError,
};
use dsg_telemetry::{series, trace, Counter, EventKind, FlightRecorder, Histogram, MetricRegistry};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs of a durable registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreOptions {
    /// WAL shape: sync cadence and segment rollover size.
    pub wal: WalConfig,
}

impl StoreOptions {
    /// Sets the WAL sync policy (default: [`SyncPolicy::EveryBatch`]).
    pub fn sync(mut self, policy: SyncPolicy) -> Self {
        self.wal.sync = policy;
        self
    }

    /// Sets the WAL segment rollover size in bytes.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.wal.segment_bytes = bytes;
        self
    }
}

/// What one [`DurableGraph::checkpoint`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The epoch the checkpoint captured (capture advances an epoch).
    pub epoch: u64,
    /// Updates covered by the checkpoint.
    pub total_updates: u64,
    /// The WAL position the checkpoint covers; replay resumes here.
    pub wal_pos: WalPosition,
    /// WAL segment files compacted away (they predate `wal_pos`).
    pub segments_removed: usize,
}

/// How one tenant came back during [`DurableRegistry::open`], phase
/// timings included (the same durations land in the registry's
/// `dsg_store_recovery_phase_nanos{phase=…}` series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRecovery {
    /// The tenant's name.
    pub name: String,
    /// Epoch restored from the checkpoint file.
    pub checkpoint_epoch: u64,
    /// Complete WAL records replayed after the checkpoint.
    pub records_replayed: usize,
    /// Whether a torn (partially written) final record was truncated.
    pub torn_tail: bool,
    /// Reading, checksum-validating, and decoding the checkpoint file.
    pub checkpoint_load: Duration,
    /// Restoring the checkpoint into a live engine (workers spawned
    /// pre-loaded, compacted logs re-seeded).
    pub restore: Duration,
    /// Replaying the post-checkpoint WAL tail through normal ingest.
    pub replay: Duration,
    /// Scanning the last segment for a torn tail and positioning the
    /// append handle.
    pub wal_open: Duration,
    /// Verdict of the post-recovery self-audit: one
    /// `dsg_service::audit::self_audit` battery over the recovered epoch,
    /// each answer verified against an exact recompute off its sealed
    /// segment. Every served answer is exact or inside a bound that
    /// always holds, so a recovery that comes back with
    /// `quality.violations > 0` restored a state that serves wrong
    /// answers — corrupt artifacts, not just lost updates.
    pub quality: QualityVerdict,
}

/// Per-tenant telemetry handles of the durability layer, resolved once
/// at create/recover time. `Default` is all-no-op.
#[derive(Debug, Clone, Default)]
struct StoreMetrics {
    wal: WalMetrics,
    checkpoint_write_nanos: Histogram,
    checkpoint_written_bytes: Counter,
    checkpoint_read_nanos: Histogram,
    checkpoint_read_bytes: Counter,
    recovery_restore_nanos: Histogram,
    recovery_replay_nanos: Histogram,
    recovery_wal_open_nanos: Histogram,
    tracer: FlightRecorder,
    tenant: u32,
}

impl StoreMetrics {
    fn for_tenant(
        reg: &MetricRegistry,
        tracer: &FlightRecorder,
        graph: &str,
        policy: SyncPolicy,
    ) -> Self {
        let tenant = tracer.intern(graph);
        let g = |name: &str| series(name, &[("graph", graph)]);
        let phase = |p: &str| {
            reg.histogram(&series(
                "dsg_store_recovery_phase_nanos",
                &[("graph", graph), ("phase", p)],
            ))
        };
        Self {
            wal: WalMetrics {
                append_nanos: reg.histogram(&g("dsg_store_wal_append_nanos")),
                fsync_nanos: reg.histogram(&series(
                    "dsg_store_wal_fsync_nanos",
                    &[("graph", graph), ("policy", policy.label())],
                )),
                appended_bytes: reg.counter(&g("dsg_store_wal_appended_bytes_total")),
                segments_rotated: reg.counter(&g("dsg_store_wal_segments_rotated_total")),
                segments_compacted: reg.counter(&g("dsg_store_wal_segments_compacted_total")),
            },
            checkpoint_write_nanos: reg.histogram(&g("dsg_store_checkpoint_write_nanos")),
            checkpoint_written_bytes: reg.counter(&g("dsg_store_checkpoint_written_bytes_total")),
            checkpoint_read_nanos: reg.histogram(&g("dsg_store_checkpoint_read_nanos")),
            checkpoint_read_bytes: reg.counter(&g("dsg_store_checkpoint_read_bytes_total")),
            recovery_restore_nanos: phase("restore"),
            recovery_replay_nanos: phase("replay"),
            recovery_wal_open_nanos: phase("wal_open"),
            tracer: tracer.clone(),
            tenant,
        }
    }

    /// Records one flight-recorder event under the ambient trace id.
    #[inline]
    fn trace(&self, kind: EventKind, payload: u64) {
        self.tracer
            .record(kind, trace::current_trace_id(), self.tenant, payload);
    }
}

/// A [`ServedGraph`] whose mutations persist: updates and epoch advances
/// are written to a write-ahead log before they touch memory, and
/// [`checkpoint`](DurableGraph::checkpoint) bounds the log. Obtained from
/// [`DurableRegistry::create`] / [`DurableRegistry::get`].
#[derive(Debug)]
pub struct DurableGraph {
    dir: PathBuf,
    graph: Arc<ServedGraph>,
    wal: Mutex<Wal>,
    /// Set by [`DurableRegistry::remove`] under the WAL lock: once true,
    /// durable mutations through surviving handles fail instead of
    /// acknowledging writes into unlinked files.
    closed: AtomicBool,
    metrics: StoreMetrics,
}

impl DurableGraph {
    /// The tenant's name.
    pub fn name(&self) -> &str {
        self.graph.name()
    }

    /// Fails durable mutations on a removed tenant. Must be called with
    /// the WAL lock held: [`DurableRegistry::remove`] sets the flag under
    /// that lock, so a successful check here cannot race the removal.
    fn ensure_open(&self) -> Result<(), StoreError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(StoreError::TenantRemoved(self.name().to_string()));
        }
        Ok(())
    }

    /// The graph's configuration.
    pub fn config(&self) -> &GraphConfig {
        self.graph.config()
    }

    /// The tenant's directory (checkpoint file plus WAL segments).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying served graph — for wiring a
    /// [`QueryService`](dsg_service::QueryService) pool or reading epoch
    /// snapshots directly. Mutations through this handle bypass the WAL
    /// and will not survive a crash; use the durable methods instead.
    pub fn served(&self) -> &Arc<ServedGraph> {
        &self.graph
    }

    /// The current epoch snapshot (lock-free with respect to the WAL).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.graph.snapshot()
    }

    /// Executes a query against the current epoch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Service`] wrapping the query's own failure.
    pub fn query(&self, query: &Query) -> Result<Response, StoreError> {
        Ok(self.graph.query(query)?)
    }

    /// Durably appends a batch of stream updates: WAL record first
    /// (durable per the sync policy), then the in-memory engine. Returns
    /// the total updates ingested so far.
    ///
    /// # Errors
    ///
    /// [`StoreError::Service`] if any update names a vertex outside
    /// `[0, n)`, drives a pair's net multiplicity below zero, or carries
    /// a delta outside ±1; [`StoreError::InvalidUpdate`] if an update
    /// would be refused by the WAL decoder at recovery time (delta not
    /// ±1, non-finite weight, degenerate edge) — all rejected before
    /// anything is written, so the log never holds a record replay
    /// cannot accept and the WAL and engine never diverge.
    /// [`StoreError::Io`] if the append fails,
    /// [`StoreError::TenantRemoved`] after a durable remove.
    pub fn apply(&self, updates: &[StreamUpdate]) -> Result<u64, StoreError> {
        for up in updates {
            // The log's own acceptance predicate: anything replay would
            // call corruption is refused here, while the operation can
            // still be refused.
            if !crate::wal::is_replayable(up) {
                return Err(StoreError::InvalidUpdate(
                    "delta must be ±1, weight finite, edge endpoints distinct",
                ));
            }
        }
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        self.ensure_open()?;
        // Validation (vertex range + net-multiplicity non-negativity),
        // the WAL append, and the in-memory apply all run under ONE
        // ingest-lock hold inside apply_logged, so the state checked is
        // exactly the state the batch lands on — the log never
        // acknowledges a record memory would refuse, even against
        // writers bypassing durability through `served()`.
        self.graph.apply_logged(updates, || {
            wal.append_batch(updates)?;
            self.metrics
                .trace(EventKind::WalAppend, updates.len() as u64);
            Ok(())
        })
    }

    /// Durably applies one edge insertion.
    ///
    /// # Errors
    ///
    /// As [`apply`](DurableGraph::apply).
    pub fn insert(&self, u: Vertex, v: Vertex) -> Result<u64, StoreError> {
        self.apply(&[StreamUpdate::insert(u, v)])
    }

    /// Durably applies one edge deletion.
    ///
    /// # Errors
    ///
    /// As [`apply`](DurableGraph::apply).
    pub fn delete(&self, u: Vertex, v: Vertex) -> Result<u64, StoreError> {
        self.apply(&[StreamUpdate::delete(u, v)])
    }

    /// Durably advances an epoch: an epoch-advance marker is logged, then
    /// the epoch is published. Replay re-advances at exactly this point,
    /// so recovered epoch counters match the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the marker cannot be logged (the epoch is
    /// then *not* advanced — durability failures never let memory run
    /// ahead of an acknowledged log), [`StoreError::TenantRemoved`]
    /// after a durable remove.
    pub fn advance_epoch(&self) -> Result<Arc<EpochSnapshot>, StoreError> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        self.ensure_open()?;
        let next = self.graph.snapshot().epoch() + 1;
        wal.append_epoch_marker(next)?;
        let snap = self.graph.advance_epoch();
        debug_assert_eq!(snap.epoch(), next, "epoch advanced outside the WAL lock");
        Ok(snap)
    }

    /// Captures a checkpoint and compacts the log: fork every shard at an
    /// epoch boundary, rotate the WAL so the capture point is a segment
    /// boundary, write the checkpoint file atomically, then delete every
    /// segment the checkpoint covers. After this, recovery costs
    /// *checkpoint restore + post-checkpoint tail replay* instead of a
    /// full-log replay.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures,
    /// [`StoreError::TenantRemoved`] after a durable remove. A failure
    /// partway through is safe at every step: the capture's own epoch
    /// advance is logged as a marker *before* the capture (so the old
    /// checkpoint + full WAL replay to matching epoch numbers even if
    /// the new checkpoint never lands), the checkpoint file is staged
    /// and atomically renamed, and compaction runs only after the
    /// rename.
    pub fn checkpoint(&self) -> Result<CheckpointStats, StoreError> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        self.ensure_open()?;
        // Checkpoints reuse an ambient trace id (a traced caller sees its
        // own id on the store events) or mint a fresh one.
        let trace_id = match trace::current_trace_id() {
            0 => self.metrics.tracer.next_trace_id(),
            ambient => ambient,
        };
        let _scope = trace::scoped(trace_id);
        // The capture inside checkpoint_state advances an epoch; log it
        // like any other advance so a replay that never sees the new
        // checkpoint file still reproduces the same epoch sequence.
        let next = self.graph.snapshot().epoch() + 1;
        wal.append_epoch_marker(next)?;
        let state = self.graph.checkpoint_state();
        debug_assert_eq!(state.epoch, next, "epoch advanced outside the WAL lock");
        let wal_pos = wal.rotate()?;
        let cp = Checkpoint {
            config: *self.graph.config(),
            epoch: state.epoch,
            total_updates: state.total_updates,
            wal_pos,
            shards: state.shards,
        };
        let bytes = self
            .metrics
            .checkpoint_write_nanos
            .time(|| write_checkpoint(&self.dir, &cp))?;
        self.metrics.checkpoint_written_bytes.add(bytes as u64);
        self.metrics.trace(EventKind::CheckpointWrite, bytes as u64);
        let segments_removed = wal.compact_before(wal_pos)?;
        Ok(CheckpointStats {
            epoch: cp.epoch,
            total_updates: cp.total_updates,
            wal_pos,
            segments_removed,
        })
    }

    /// Flushes and fsyncs buffered WAL appends — the manual durability
    /// point under [`SyncPolicy::Manual`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the flush or sync fails,
    /// [`StoreError::TenantRemoved`] after a durable remove.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut wal = self.wal.lock().expect("wal lock poisoned");
        self.ensure_open()?;
        wal.sync()
    }

    /// The WAL position right after the last appended record.
    pub fn wal_position(&self) -> WalPosition {
        self.wal.lock().expect("wal lock poisoned").position()
    }
}

/// A [`GraphRegistry`] whose tenants live on disk: `create`, `apply`,
/// `advance_epoch`, and `remove` persist, and [`open`](DurableRegistry::open)
/// recovers every tenant found under the root directory.
///
/// Layout: `root/<name>/` holds one tenant — its [`CHECKPOINT_FILE`] plus
/// WAL segments. Tenant names are restricted to `[A-Za-z0-9_.-]` (no
/// leading dot) so they map to directory names verbatim.
#[derive(Debug)]
pub struct DurableRegistry {
    root: PathBuf,
    options: StoreOptions,
    shared: Arc<GraphRegistry>,
    tenants: Mutex<HashMap<String, Arc<DurableGraph>>>,
    recovery: Vec<TenantRecovery>,
}

/// Checks a tenant name is usable as a directory name.
fn validate_name(name: &str) -> Result<(), StoreError> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'));
    if ok {
        Ok(())
    } else {
        Err(StoreError::InvalidName(name.to_string()))
    }
}

impl DurableRegistry {
    /// Opens (or initializes) a durable registry rooted at `root`,
    /// recovering every tenant directory found there: checkpoint restore,
    /// then WAL-tail replay through the live engine. A tenant directory
    /// without a checkpoint file is an aborted `create` (the checkpoint
    /// write is what makes a create durable) and is cleaned away.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Frame`]
    /// if a checkpoint fails validation, [`StoreError::CorruptLog`] if a
    /// WAL holds a fully-present-but-invalid record. Recovery is
    /// all-or-nothing: a damaged tenant fails the whole open rather than
    /// silently serving a subset.
    pub fn open(root: &Path, options: StoreOptions) -> Result<Self, StoreError> {
        Self::open_with_telemetry(root, options, Arc::new(MetricRegistry::new()))
    }

    /// Like [`open`](DurableRegistry::open), but recording into the given
    /// metric registry — share one registry across stores, or pass
    /// [`MetricRegistry::noop`] to disable instrumentation entirely.
    ///
    /// # Errors
    ///
    /// As [`open`](DurableRegistry::open).
    pub fn open_with_telemetry(
        root: &Path,
        options: StoreOptions,
        telemetry: Arc<MetricRegistry>,
    ) -> Result<Self, StoreError> {
        Self::open_with_observability(root, options, telemetry, FlightRecorder::noop())
    }

    /// Like [`open_with_telemetry`](DurableRegistry::open_with_telemetry),
    /// but also wiring a [`FlightRecorder`]: recovery, WAL appends, and
    /// checkpoints emit causal trace events alongside the engine's and
    /// service layer's, so one `/tracez` dump shows a query's full path
    /// through the durable stack.
    ///
    /// # Errors
    ///
    /// As [`open`](DurableRegistry::open).
    pub fn open_with_observability(
        root: &Path,
        options: StoreOptions,
        telemetry: Arc<MetricRegistry>,
        tracer: FlightRecorder,
    ) -> Result<Self, StoreError> {
        std::fs::create_dir_all(root)?;
        let shared = Arc::new(GraphRegistry::with_observability(telemetry, tracer));
        let mut names = Vec::new();
        for entry in std::fs::read_dir(root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(name) = entry.file_name().to_str().map(String::from) else {
                continue;
            };
            if entry.path().join(CHECKPOINT_FILE).exists() {
                names.push(name);
                continue;
            }
            let segments = crate::wal::list_segments(&entry.path())?;
            let mut wal_bytes = 0u64;
            for (_, path) in &segments {
                wal_bytes += std::fs::metadata(path)?.len();
            }
            if wal_bytes > 0 {
                // WAL records with no checkpoint cannot be an aborted
                // create (a create appends nothing before its initial
                // checkpoint lands) — this is a tenant whose checkpoint
                // file was lost. Deleting it would destroy acknowledged
                // records; refuse loudly instead.
                return Err(StoreError::MissingCheckpoint(
                    entry.path().join(CHECKPOINT_FILE),
                ));
            }
            if validate_name(&name).is_ok() && !segments.is_empty() {
                // Aborted create (valid tenant name, an empty WAL was
                // started, but the checkpoint that makes a create durable
                // never landed): clean it away. Anything else — an
                // unrelated directory the operator keeps under the root —
                // is left strictly alone.
                std::fs::remove_dir_all(entry.path())?;
            }
        }
        names.sort_unstable();
        let mut tenants = HashMap::with_capacity(names.len());
        let mut recovery = Vec::with_capacity(names.len());
        for name in names {
            let dir = root.join(&name);
            let (graph, report) = Self::recover_tenant(&shared, &name, dir, options)?;
            tenants.insert(name, graph);
            recovery.push(report);
        }
        Ok(Self {
            root: root.to_path_buf(),
            options,
            shared,
            tenants: Mutex::new(tenants),
            recovery,
        })
    }

    /// Restores one tenant from its checkpoint and replays its WAL tail.
    fn recover_tenant(
        shared: &Arc<GraphRegistry>,
        name: &str,
        dir: PathBuf,
        options: StoreOptions,
    ) -> Result<(Arc<DurableGraph>, TenantRecovery), StoreError> {
        let metrics =
            StoreMetrics::for_tenant(shared.telemetry(), shared.tracer(), name, options.wal.sync);
        // One trace id spans the whole recovery: every phase event below,
        // plus the engine/service events emitted by the replay itself,
        // share it — a recovery reads as one causal chain in `/tracez`.
        let recovery_trace = metrics.tracer.next_trace_id();
        let _scope = trace::scoped(recovery_trace);
        let started = Instant::now();
        let cp = read_checkpoint(&dir)?;
        let checkpoint_load = started.elapsed();
        metrics
            .checkpoint_read_nanos
            .record_duration(checkpoint_load);
        metrics.trace(EventKind::CheckpointLoad, checkpoint_load.as_nanos() as u64);
        if let Ok(meta) = std::fs::metadata(dir.join(CHECKPOINT_FILE)) {
            metrics.checkpoint_read_bytes.add(meta.len());
        }
        let config = cp.config;
        let started = Instant::now();
        let graph = shared.restore(
            name,
            config,
            PersistedGraph {
                epoch: cp.epoch,
                total_updates: cp.total_updates,
                shards: cp.shards,
            },
        )?;
        let restore = started.elapsed();
        metrics.recovery_restore_nanos.record_duration(restore);
        metrics.trace(EventKind::RecoveryRestore, restore.as_nanos() as u64);
        // Replay first (read-only: a torn tail is dropped logically and
        // reported), then open for append (which truncates the torn tail
        // physically so new records never land after garbage).
        let started = Instant::now();
        let summary = Self::replay_into(&graph, &dir, cp.wal_pos)?;
        let replay = started.elapsed();
        metrics.recovery_replay_nanos.record_duration(replay);
        metrics.trace(EventKind::RecoveryReplay, replay.as_nanos() as u64);
        let started = Instant::now();
        let mut wal = Wal::open(&dir, options.wal)?;
        wal.set_metrics(metrics.wal.clone());
        let wal_open = started.elapsed();
        metrics.recovery_wal_open_nanos.record_duration(wal_open);
        metrics.trace(EventKind::RecoveryWalOpen, wal_open.as_nanos() as u64);
        let durable = Arc::new(DurableGraph {
            dir,
            graph,
            wal: Mutex::new(wal),
            closed: AtomicBool::new(false),
            metrics,
        });
        // Post-recovery self-audit: before this tenant serves anything,
        // force one audit pass over the recovered epoch so the recovery
        // report carries a quality verdict, not just phase timings.
        let quality = audit::self_audit(&durable.graph.snapshot());
        if !quality.clean() {
            durable
                .metrics
                .trace(EventKind::QualityViolation, quality.violations);
        }
        let report = TenantRecovery {
            name: name.to_string(),
            checkpoint_epoch: cp.epoch,
            records_replayed: summary.records,
            torn_tail: summary.torn_tail,
            checkpoint_load,
            restore,
            replay,
            wal_open,
            quality,
        };
        Ok((durable, report))
    }

    /// Replays the WAL tail from `from` through the restored graph's
    /// normal ingest path.
    fn replay_into(
        graph: &Arc<ServedGraph>,
        dir: &Path,
        from: WalPosition,
    ) -> Result<ReplaySummary, StoreError> {
        Wal::replay(dir, from, |record, pos| match record {
            WalRecord::Batch(updates) => {
                graph.apply(&updates)?;
                Ok(())
            }
            WalRecord::EpochAdvance(epoch) => {
                let snap = graph.advance_epoch();
                if snap.epoch() == epoch {
                    Ok(())
                } else {
                    // The marker's epoch is an integrity cross-check: a
                    // mismatch means the log and checkpoint disagree.
                    Err(StoreError::CorruptLog {
                        segment: pos.segment,
                        offset: pos.offset,
                        reason: "epoch marker out of sequence with checkpoint",
                    })
                }
            }
        })
    }

    /// How each tenant came back during [`open`](DurableRegistry::open)
    /// (empty for a fresh root), sorted by tenant name.
    pub fn recovery_report(&self) -> &[TenantRecovery] {
        &self.recovery
    }

    /// The options this registry was opened with.
    pub fn options(&self) -> StoreOptions {
        self.options
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared in-memory registry behind the durable tenants — the
    /// handle a [`QueryService`](dsg_service::QueryService) worker pool
    /// takes. Creating graphs directly on this registry bypasses
    /// durability.
    pub fn shared(&self) -> &Arc<GraphRegistry> {
        &self.shared
    }

    /// Creates a new durable tenant: directory, empty WAL, and an initial
    /// epoch-0 checkpoint (the write that makes the create durable).
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidName`] for names unusable as directories,
    /// [`StoreError::TenantExists`] if durable state already exists,
    /// [`StoreError::Service`] if the name is live in the shared
    /// registry, [`StoreError::Io`] on filesystem failures.
    pub fn create(&self, name: &str, config: GraphConfig) -> Result<Arc<DurableGraph>, StoreError> {
        validate_name(name)?;
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let dir = self.root.join(name);
        if tenants.contains_key(name) || dir.join(CHECKPOINT_FILE).exists() {
            return Err(StoreError::TenantExists(name.to_string()));
        }
        let graph = self.shared.create(name, config)?;
        let metrics = StoreMetrics::for_tenant(
            self.shared.telemetry(),
            self.shared.tracer(),
            name,
            self.options.wal.sync,
        );
        let staged = (|| -> Result<Wal, StoreError> {
            std::fs::create_dir_all(&dir)?;
            let mut wal = Wal::open(&dir, self.options.wal)?;
            wal.set_metrics(metrics.wal.clone());
            let cp = Checkpoint {
                config,
                epoch: 0,
                total_updates: 0,
                wal_pos: wal.position(),
                shards: (0..config.shards)
                    .map(|_| PersistedShard {
                        sketch: AgmSketch::new(config.n, config.seed),
                        net: dsg_graph::NetMultiset::empty(config.n),
                    })
                    .collect(),
            };
            let bytes = metrics
                .checkpoint_write_nanos
                .time(|| write_checkpoint(&dir, &cp))?;
            metrics.checkpoint_written_bytes.add(bytes as u64);
            metrics.trace(EventKind::CheckpointWrite, bytes as u64);
            Ok(wal)
        })();
        let wal = match staged {
            Ok(wal) => wal,
            Err(e) => {
                // Roll back so a retry can succeed: neither a live
                // in-memory graph nor a half-made directory may survive
                // a failed create.
                let _ = self.shared.remove(name);
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        let durable = Arc::new(DurableGraph {
            dir,
            graph,
            wal: Mutex::new(wal),
            closed: AtomicBool::new(false),
            metrics,
        });
        tenants.insert(name.to_string(), Arc::clone(&durable));
        Ok(durable)
    }

    /// Looks up a durable tenant by name.
    ///
    /// # Errors
    ///
    /// [`StoreError::Service`] wrapping
    /// [`ServiceError::UnknownGraph`] if nothing is registered.
    pub fn get(&self, name: &str) -> Result<Arc<DurableGraph>, StoreError> {
        self.tenants
            .lock()
            .expect("tenant map poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::Service(ServiceError::UnknownGraph(name.to_string())))
    }

    /// Removes a tenant durably: close its WAL gate, unregister it, shut
    /// its engine down (shard workers and the WAL handle are dropped —
    /// workers are *joined*, not detached, so no thread still touches the
    /// files), and delete its directory. Irreversible. Surviving
    /// [`DurableGraph`] handles keep answering *reads* from memory, but
    /// every durable mutation through them fails with
    /// [`StoreError::TenantRemoved`] — otherwise an `apply` racing the
    /// removal could acknowledge a write into an unlinked file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Service`] wrapping
    /// [`ServiceError::UnknownGraph`] if nothing is registered,
    /// [`StoreError::Io`] if the directory cannot be deleted.
    pub fn remove(&self, name: &str) -> Result<(), StoreError> {
        let durable = {
            let mut tenants = self.tenants.lock().expect("tenant map poisoned");
            tenants
                .remove(name)
                .ok_or_else(|| StoreError::Service(ServiceError::UnknownGraph(name.to_string())))?
        };
        {
            // Taking the WAL lock drains any in-flight durable op;
            // setting the flag under it means every later op observes it
            // before touching the WAL (ensure_open runs under this lock).
            let _wal = durable.wal.lock().expect("wal lock poisoned");
            durable.closed.store(true, Ordering::Release);
        }
        self.shared.remove(name)?;
        let dir = durable.dir.clone();
        // If this was the last handle, dropping it joins the engine's
        // shard workers and flushes + closes the WAL before the files go.
        drop(durable);
        std::fs::remove_dir_all(&dir)?;
        Ok(())
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tenants
            .lock()
            .expect("tenant map poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.lock().expect("tenant map poisoned").len()
    }

    /// Whether the registry has no tenants.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use crate::ScratchDir;
    use dsg_sketch::LinearSketch;

    fn path_updates(range: std::ops::Range<u32>) -> Vec<StreamUpdate> {
        range.map(|v| StreamUpdate::insert(v, v + 1)).collect()
    }

    #[test]
    fn create_apply_crash_recover_roundtrip() {
        let dir = ScratchDir::new("durable-roundtrip");
        let config = GraphConfig::new(10).seed(3).shards(2).batch_size(4);
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        assert!(reg.is_empty());
        let g = reg.create("t", config).unwrap();
        g.apply(&path_updates(0..6)).unwrap();
        let snap = g.advance_epoch().unwrap();
        assert_eq!(snap.epoch(), 1);
        g.apply(&path_updates(6..9)).unwrap();
        let reference = {
            g.advance_epoch().unwrap();
            LinearSketch::to_bytes(g.snapshot().sketch())
        };
        drop((g, reg)); // crash

        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        assert_eq!(reg.names(), vec!["t".to_string()]);
        let report = &reg.recovery_report()[0];
        assert_eq!(report.checkpoint_epoch, 0);
        assert!(report.records_replayed >= 4); // 2 batches + 2 markers
        assert!(
            report.quality.samples >= 6 && report.quality.clean(),
            "recovered epoch must pass the self-audit: {:?}",
            report.quality
        );
        let g = reg.get("t").unwrap();
        assert_eq!(g.snapshot().epoch(), 2);
        assert_eq!(
            LinearSketch::to_bytes(g.snapshot().sketch()),
            reference,
            "recovered sketch diverged"
        );
        match g.query(&Query::SameComponent(0, 9)).unwrap() {
            Response::SameComponent(connected) => assert!(connected),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn checkpoint_compacts_and_recovery_uses_the_tail() {
        let dir = ScratchDir::new("durable-compact");
        let config = GraphConfig::new(12).seed(5).shards(2).batch_size(4);
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", config).unwrap();
        g.apply(&path_updates(0..5)).unwrap();
        let stats = g.checkpoint().unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.total_updates, 5);
        assert_eq!(stats.segments_removed, 1, "pre-checkpoint segment stays?");
        g.apply(&path_updates(5..8)).unwrap();
        let reference = {
            g.advance_epoch().unwrap();
            LinearSketch::to_bytes(g.snapshot().sketch())
        };
        drop((g, reg)); // crash

        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let report = &reg.recovery_report()[0];
        assert_eq!(report.checkpoint_epoch, 1);
        assert_eq!(report.records_replayed, 2, "tail is one batch + marker");
        let g = reg.get("t").unwrap();
        assert_eq!(LinearSketch::to_bytes(g.snapshot().sketch()), reference);
        // A second checkpoint keeps compacting.
        let stats = g.checkpoint().unwrap();
        assert!(stats.segments_removed >= 1);
    }

    #[test]
    fn remove_deletes_durable_state() {
        let dir = ScratchDir::new("durable-remove");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg.create("gone", GraphConfig::new(6)).unwrap();
        g.insert(0, 1).unwrap();
        let tenant_dir = g.dir().to_path_buf();
        drop(g);
        reg.remove("gone").unwrap();
        assert!(!tenant_dir.exists(), "tenant dir must be deleted");
        assert!(reg.is_empty());
        assert!(matches!(
            reg.remove("gone"),
            Err(StoreError::Service(ServiceError::UnknownGraph(_)))
        ));
        drop(reg);
        // Reopen: the removed tenant must not resurrect.
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        assert!(reg.is_empty());
    }

    #[test]
    fn duplicate_and_invalid_names_are_rejected() {
        let dir = ScratchDir::new("durable-names");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        reg.create("ok-name_1", GraphConfig::new(4)).unwrap();
        assert!(matches!(
            reg.create("ok-name_1", GraphConfig::new(4)),
            Err(StoreError::TenantExists(_))
        ));
        for bad in ["", ".hidden", "a/b", "a b", "ü"] {
            assert!(
                matches!(
                    reg.create(bad, GraphConfig::new(4)),
                    Err(StoreError::InvalidName(_))
                ),
                "name {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn manual_sync_still_recovers_after_clean_close() {
        let dir = ScratchDir::new("durable-manual");
        let options = StoreOptions::default().sync(SyncPolicy::Manual);
        let reg = DurableRegistry::open(dir.path(), options).unwrap();
        let g = reg.create("m", GraphConfig::new(8).shards(2)).unwrap();
        g.apply(&path_updates(0..7)).unwrap();
        g.sync().unwrap(); // the caller-owned durability point
        drop((g, reg));
        let reg = DurableRegistry::open(dir.path(), options).unwrap();
        let g = reg.get("m").unwrap();
        g.advance_epoch().unwrap();
        assert_eq!(g.snapshot().total_updates(), 7);
    }

    #[test]
    fn failed_checkpoint_write_still_recovers_from_old_checkpoint_and_log() {
        let dir = ScratchDir::new("durable-cpfail");
        let config = GraphConfig::new(10).seed(4).shards(2).batch_size(4);
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", config).unwrap();
        g.apply(&path_updates(0..5)).unwrap();
        g.advance_epoch().unwrap(); // epoch 1
                                    // Sabotage the checkpoint staging path: a directory squatting on
                                    // the temp-file name makes write_checkpoint fail mid-sequence,
                                    // AFTER the capture advanced the epoch and rotated the WAL.
        std::fs::create_dir(g.dir().join("checkpoint.tmp")).unwrap();
        assert!(matches!(g.checkpoint(), Err(StoreError::Io(_))));
        std::fs::remove_dir(g.dir().join("checkpoint.tmp")).unwrap();
        // The tenant keeps working: the failed capture's epoch advance
        // (1 -> 2) was logged as a marker, so the epoch sequence in the
        // WAL stays replayable against the ORIGINAL epoch-0 checkpoint.
        g.apply(&path_updates(5..8)).unwrap();
        let snap = g.advance_epoch().unwrap();
        assert_eq!(snap.epoch(), 3);
        let reference = LinearSketch::to_bytes(snap.sketch());
        drop((g, reg)); // crash

        let reg = DurableRegistry::open(dir.path(), StoreOptions::default())
            .expect("old checkpoint + full WAL must recover after a failed checkpoint");
        assert_eq!(reg.recovery_report()[0].checkpoint_epoch, 0);
        let g = reg.get("t").unwrap();
        assert_eq!(g.snapshot().epoch(), 3);
        assert_eq!(LinearSketch::to_bytes(g.snapshot().sketch()), reference);
    }

    #[test]
    fn open_cleans_aborted_creates_but_leaves_foreign_directories_alone() {
        let dir = ScratchDir::new("durable-foreign");
        // An unrelated directory an operator keeps under the root.
        std::fs::create_dir_all(dir.path().join("backups")).unwrap();
        std::fs::write(dir.path().join("backups/precious.txt"), b"keep me").unwrap();
        // An aborted create: valid tenant name, WAL started, but the
        // durable-making checkpoint never landed.
        let aborted = dir.path().join("half");
        std::fs::create_dir_all(&aborted).unwrap();
        std::fs::write(aborted.join("wal-00000000.seg"), b"").unwrap();
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        assert!(reg.is_empty());
        assert!(
            dir.path().join("backups/precious.txt").exists(),
            "open() must not delete unrelated directories"
        );
        assert!(!aborted.exists(), "aborted create must be cleaned away");
    }

    #[test]
    fn lost_checkpoint_with_surviving_wal_refuses_to_open() {
        let dir = ScratchDir::new("durable-lostcp");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", GraphConfig::new(8)).unwrap();
        g.apply(&path_updates(0..5)).unwrap();
        let tenant_dir = g.dir().to_path_buf();
        drop((g, reg));
        // The checkpoint file is lost but acknowledged WAL records
        // survive: this must NOT be treated as an aborted create and
        // deleted — it is a loud missing-checkpoint error.
        std::fs::remove_file(tenant_dir.join(crate::CHECKPOINT_FILE)).unwrap();
        assert!(matches!(
            DurableRegistry::open(dir.path(), StoreOptions::default()),
            Err(StoreError::MissingCheckpoint(_))
        ));
        assert!(
            !crate::wal::list_segments(&tenant_dir).unwrap().is_empty(),
            "the WAL records must survive the refused open"
        );
    }

    #[test]
    fn failed_create_rolls_back_and_retry_succeeds() {
        let dir = ScratchDir::new("durable-createfail");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        // Sabotage the initial checkpoint write of the upcoming create.
        let tenant_dir = dir.path().join("t");
        std::fs::create_dir_all(tenant_dir.join("checkpoint.tmp")).unwrap();
        assert!(matches!(
            reg.create("t", GraphConfig::new(6)),
            Err(StoreError::Io(_))
        ));
        // Rolled back everywhere: not in the durable map, not in the
        // shared registry, no directory — so a retry just works.
        assert!(reg.is_empty());
        assert!(reg.shared().is_empty());
        assert!(!tenant_dir.exists());
        let g = reg.create("t", GraphConfig::new(6)).unwrap();
        g.insert(0, 1).unwrap();
    }

    #[test]
    fn surviving_handles_cannot_write_after_remove() {
        let dir = ScratchDir::new("durable-closed");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", GraphConfig::new(8)).unwrap();
        g.insert(0, 1).unwrap();
        g.advance_epoch().unwrap();
        let survivor = reg.get("t").unwrap();
        reg.remove("t").unwrap();
        // Durable mutations through the surviving handle must fail loudly
        // instead of acknowledging writes into unlinked files.
        assert!(matches!(
            survivor.insert(1, 2),
            Err(StoreError::TenantRemoved(_))
        ));
        assert!(matches!(
            survivor.advance_epoch(),
            Err(StoreError::TenantRemoved(_))
        ));
        assert!(matches!(
            survivor.checkpoint(),
            Err(StoreError::TenantRemoved(_))
        ));
        assert!(matches!(survivor.sync(), Err(StoreError::TenantRemoved(_))));
        // Reads still serve from memory.
        match survivor.query(&Query::SameComponent(0, 1)).unwrap() {
            Response::SameComponent(connected) => assert!(connected),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn updates_that_cannot_replay_are_rejected_up_front() {
        let dir = ScratchDir::new("durable-badupdate");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg.create("t", GraphConfig::new(8)).unwrap();
        let before = g.wal_position();
        let mut zero_delta = StreamUpdate::insert(0, 1);
        zero_delta.delta = 0;
        let mut nan_weight = StreamUpdate::insert(0, 1);
        nan_weight.weight = f64::NAN;
        for bad in [zero_delta, nan_weight] {
            assert!(matches!(
                g.apply(&[StreamUpdate::insert(2, 3), bad]),
                Err(StoreError::InvalidUpdate(_))
            ));
        }
        assert_eq!(g.wal_position(), before, "rejected batch reached the WAL");
        g.advance_epoch().unwrap();
        assert_eq!(g.snapshot().total_updates(), 0);
    }

    #[test]
    fn telemetry_traces_wal_checkpoint_and_recovery() {
        let dir = ScratchDir::new("durable-telemetry");
        let config = GraphConfig::new(10).seed(7).shards(2).batch_size(4);
        let telemetry = Arc::new(MetricRegistry::new());
        let reg = DurableRegistry::open_with_telemetry(
            dir.path(),
            StoreOptions::default(),
            Arc::clone(&telemetry),
        )
        .unwrap();
        let g = reg.create("t", config).unwrap();
        g.apply(&path_updates(0..6)).unwrap();
        g.checkpoint().unwrap();
        g.apply(&path_updates(6..9)).unwrap();
        g.advance_epoch().unwrap();

        let snap = telemetry.snapshot();
        assert!(
            snap.counter("dsg_store_wal_appended_bytes_total{graph=\"t\"}")
                .unwrap_or(0)
                > 0,
            "appended bytes uncounted"
        );
        assert!(
            snap.counter("dsg_store_wal_segments_rotated_total{graph=\"t\"}")
                .unwrap_or(0)
                >= 1,
            "checkpoint rotation uncounted"
        );
        assert!(
            snap.counter("dsg_store_wal_segments_compacted_total{graph=\"t\"}")
                .unwrap_or(0)
                >= 1,
            "checkpoint compaction uncounted"
        );
        let appends = snap
            .histogram("dsg_store_wal_append_nanos{graph=\"t\"}")
            .expect("append histogram missing");
        assert!(appends.count() >= 4, "2 batches + 2 markers appended");
        let fsyncs = snap
            .histogram("dsg_store_wal_fsync_nanos{graph=\"t\",policy=\"every_batch\"}")
            .expect("fsync histogram missing (policy label wrong?)");
        assert!(fsyncs.count() >= 4, "EveryBatch syncs each append");
        let cp_writes = snap
            .histogram("dsg_store_checkpoint_write_nanos{graph=\"t\"}")
            .expect("checkpoint-write histogram missing");
        assert_eq!(cp_writes.count(), 2, "initial create + explicit checkpoint");
        assert!(
            snap.counter("dsg_store_checkpoint_written_bytes_total{graph=\"t\"}")
                .unwrap_or(0)
                > 0
        );
        drop((g, reg)); // crash

        let reg = DurableRegistry::open_with_telemetry(
            dir.path(),
            StoreOptions::default(),
            Arc::clone(&telemetry),
        )
        .unwrap();
        let report = &reg.recovery_report()[0];
        assert!(
            report.checkpoint_load + report.restore + report.replay + report.wal_open
                > Duration::ZERO,
            "recovery phase durations must be populated"
        );
        let snap = telemetry.snapshot();
        assert!(
            snap.counter("dsg_store_checkpoint_read_bytes_total{graph=\"t\"}")
                .unwrap_or(0)
                > 0
        );
        for phase in ["restore", "replay", "wal_open"] {
            let h = snap
                .histogram(&format!(
                    "dsg_store_recovery_phase_nanos{{graph=\"t\",phase=\"{phase}\"}}"
                ))
                .unwrap_or_else(|| panic!("recovery phase {phase} missing"));
            assert_eq!(h.count(), 1, "one recovery per open for phase {phase}");
        }
        // Every store series lands in the Prometheus rendering too.
        let text = telemetry.render_prometheus();
        assert!(text.contains("dsg_store_wal_append_nanos"));
        assert!(text.contains("dsg_store_recovery_phase_nanos"));
    }

    #[test]
    fn flight_recorder_captures_wal_checkpoint_and_recovery_events() {
        let dir = ScratchDir::new("durable-tracing");
        let config = GraphConfig::new(10).seed(2).shards(2).batch_size(4);
        let open = |cap| {
            DurableRegistry::open_with_observability(
                dir.path(),
                StoreOptions::default(),
                Arc::new(MetricRegistry::new()),
                FlightRecorder::with_capacity(cap),
            )
        };
        let reg = open(256).unwrap();
        let g = reg.create("t", config).unwrap();
        g.apply(&path_updates(0..6)).unwrap();
        g.checkpoint().unwrap();
        let events = reg.shared().tracer().dump();
        let kind_count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert!(kind_count(EventKind::WalAppend) >= 1, "apply untraced");
        // Two checkpoints wrote (create's initial + the explicit one).
        assert_eq!(kind_count(EventKind::CheckpointWrite), 2);
        // The explicit checkpoint mints its own trace id (the create's
        // initial checkpoint runs untraced — ambient id 0).
        let cp = events
            .iter()
            .rfind(|e| e.kind == EventKind::CheckpointWrite)
            .unwrap();
        assert_ne!(cp.trace_id, 0, "checkpoint must mint a trace id");
        assert_eq!(
            reg.shared().tracer().tenant_name(cp.tenant).as_deref(),
            Some("t")
        );
        // Leave a post-checkpoint tail so recovery has records to replay.
        g.apply(&path_updates(6..9)).unwrap();
        drop((g, reg)); // crash

        let reg = open(256).unwrap();
        let events = reg.shared().tracer().dump();
        let recovered: Vec<_> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::CheckpointLoad
                        | EventKind::RecoveryRestore
                        | EventKind::RecoveryReplay
                        | EventKind::RecoveryWalOpen
                )
            })
            .collect();
        assert_eq!(
            recovered.len(),
            4,
            "all four recovery phases must be traced"
        );
        let id = recovered[0].trace_id;
        assert_ne!(id, 0);
        assert!(
            recovered.iter().all(|e| e.trace_id == id),
            "recovery phases must share one causal trace id"
        );
        // The replay's own ingest events join the recovery's chain.
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::IngestBatch && e.trace_id == id),
            "replayed batches must carry the recovery trace id"
        );
    }

    #[test]
    fn out_of_range_batch_never_touches_the_wal() {
        let dir = ScratchDir::new("durable-range");
        let reg = DurableRegistry::open(dir.path(), StoreOptions::default()).unwrap();
        let g = reg.create("r", GraphConfig::new(5)).unwrap();
        let before = g.wal_position();
        assert!(matches!(
            g.apply(&[StreamUpdate::insert(0, 1), StreamUpdate::insert(2, 9)]),
            Err(StoreError::Service(ServiceError::VertexOutOfRange { .. }))
        ));
        assert_eq!(g.wal_position(), before, "rejected batch reached the WAL");
    }
}
