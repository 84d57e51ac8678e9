//! Flight recorder: lock-free, fixed-capacity structured event tracing.
//!
//! Where the metric handles in this crate answer "how many / how long on
//! average", the flight recorder answers "what did *this* request do":
//! every event carries a **causal trace id** minted at the request
//! boundary (or an epoch/recovery boundary) so a dump can be filtered to
//! one request's full chain across service and store layers.
//!
//! The cost model mirrors the metric handles:
//!
//! * **No-op recorder** ([`FlightRecorder::noop`]): [`record`] is one
//!   branch on an `Option`, nothing else. Same shape as a no-op
//!   [`Counter`](crate::Counter).
//! * **Active recorder**: one monotonic-clock read plus five relaxed
//!   atomic stores into a pre-allocated per-thread ring — no allocation,
//!   no locking on the hot path (the per-thread ring is created and
//!   registered on a thread's *first* event, which takes a mutex once).
//! * **Disabled at runtime** ([`FlightRecorder::set_enabled`]): one extra
//!   relaxed load after the `Option` branch. This is how benchmarks and
//!   the watchdog pause recording without tearing down the rings.
//!
//! Each thread writes its own ring, so writes never contend. Slots are
//! seqlock-protected: the writer bumps a per-slot sequence word to an
//! odd value, writes the event fields, then publishes an even value;
//! [`dump`](FlightRecorder::dump) re-checks the sequence around its
//! reads and skips any slot that changed mid-read, so concurrent
//! wrap-around can *lose* a racing event but never tear one.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// What happened. Stored in the event word as a `u16`; the names are the
/// `name` field of the Chrome `trace_event` rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A query entered [`QueryService::submit`]; payload = variant index.
    QuerySubmit = 1,
    /// A worker picked the query up; payload = queue wait, nanoseconds.
    QueryDequeue = 2,
    /// A worker finished executing; payload = execution nanoseconds.
    QueryExecute = 3,
    /// A derived artifact was built; payload = artifact index.
    ArtifactBuild = 4,
    /// A batch of updates was applied to a served graph; payload = batch
    /// length.
    IngestBatch = 5,
    /// The sharded engine dispatched a batch; payload = batch length.
    EngineBatch = 6,
    /// Epoch advance: shard sketches forked under the ingest lock.
    EpochFork = 7,
    /// Epoch advance: forks merged into the coordinator sketch.
    EpochMerge = 8,
    /// Epoch advance: compacted log sealed; payload = sealed net edges.
    EpochSeal = 9,
    /// Epoch advance took the wire path; payload = total frame bytes.
    EpochWire = 10,
    /// A wire frame was decoded; payload = the trace id recovered from
    /// the frame trailer (0 for untraced v1 frames).
    WireDecode = 11,
    /// A new epoch snapshot was published; payload = epoch number.
    EpochPublish = 12,
    /// A WAL batch was appended; payload = record count.
    WalAppend = 13,
    /// A checkpoint was written; payload = checkpoint epoch.
    CheckpointWrite = 14,
    /// A checkpoint was loaded during recovery; payload = nanoseconds.
    CheckpointLoad = 15,
    /// Recovery restored the in-memory graph; payload = nanoseconds.
    RecoveryRestore = 16,
    /// Recovery replayed the WAL tail; payload = records replayed.
    RecoveryReplay = 17,
    /// Recovery reopened the WAL for appends; payload = nanoseconds.
    RecoveryWalOpen = 18,
    /// The watchdog flagged a query over threshold; payload = latency in
    /// nanoseconds.
    SlowQuery = 19,
    /// The accuracy auditor caught a served answer outside its guarantee;
    /// payload = query variant index.
    QualityViolation = 20,
}

impl EventKind {
    /// Event name used by the Chrome `trace_event` rendering.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::QuerySubmit => "query_submit",
            EventKind::QueryDequeue => "query_dequeue",
            EventKind::QueryExecute => "query_execute",
            EventKind::ArtifactBuild => "artifact_build",
            EventKind::IngestBatch => "ingest_batch",
            EventKind::EngineBatch => "engine_batch",
            EventKind::EpochFork => "epoch_fork",
            EventKind::EpochMerge => "epoch_merge",
            EventKind::EpochSeal => "epoch_seal",
            EventKind::EpochWire => "epoch_wire",
            EventKind::WireDecode => "wire_decode",
            EventKind::EpochPublish => "epoch_publish",
            EventKind::WalAppend => "wal_append",
            EventKind::CheckpointWrite => "checkpoint_write",
            EventKind::CheckpointLoad => "checkpoint_load",
            EventKind::RecoveryRestore => "recovery_restore",
            EventKind::RecoveryReplay => "recovery_replay",
            EventKind::RecoveryWalOpen => "recovery_wal_open",
            EventKind::SlowQuery => "slow_query",
            EventKind::QualityViolation => "quality_violation",
        }
    }

    fn from_u16(raw: u16) -> Option<Self> {
        Some(match raw {
            1 => EventKind::QuerySubmit,
            2 => EventKind::QueryDequeue,
            3 => EventKind::QueryExecute,
            4 => EventKind::ArtifactBuild,
            5 => EventKind::IngestBatch,
            6 => EventKind::EngineBatch,
            7 => EventKind::EpochFork,
            8 => EventKind::EpochMerge,
            9 => EventKind::EpochSeal,
            10 => EventKind::EpochWire,
            11 => EventKind::WireDecode,
            12 => EventKind::EpochPublish,
            13 => EventKind::WalAppend,
            14 => EventKind::CheckpointWrite,
            15 => EventKind::CheckpointLoad,
            16 => EventKind::RecoveryRestore,
            17 => EventKind::RecoveryReplay,
            18 => EventKind::RecoveryWalOpen,
            19 => EventKind::SlowQuery,
            20 => EventKind::QualityViolation,
            _ => return None,
        })
    }
}

/// One recorded event: 40 bytes, `Copy`, no heap.
///
/// `tenant` is an interned token from [`FlightRecorder::intern`] (0 =
/// none); `payload` is a kind-specific detail word documented on each
/// [`EventKind`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder was created (monotonic).
    pub nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// Causal chain this event belongs to (0 = untraced).
    pub trace_id: u64,
    /// Interned tenant token (0 = none).
    pub tenant: u32,
    /// Kind-specific detail word.
    pub payload: u64,
}

/// One seqlock-protected event slot. The writer publishes `2n + 2` in
/// `seq` once slot contents hold event number `n`; readers skip the slot
/// unless they observe that exact value before *and* after reading the
/// data words.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    nanos: AtomicU64,
    /// `kind as u64 | (tenant as u64) << 16`.
    meta: AtomicU64,
    trace_id: AtomicU64,
    payload: AtomicU64,
}

/// A single thread's event ring. Exactly one thread writes; any thread
/// may read via [`Ring::read_into`].
struct Ring {
    slots: Box<[Slot]>,
    /// Number of events ever written to this ring (writer-owned).
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, Slot::default);
        Ring {
            slots: slots.into_boxed_slice(),
            head: AtomicU64::new(0),
        }
    }

    /// Writer side: only the owning thread calls this.
    fn push(&self, ev: TraceEvent) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        // Seqlock write: odd marks the slot busy, even publishes event n.
        slot.seq.store(2 * n + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.nanos.store(ev.nanos, Ordering::Relaxed);
        slot.meta.store(
            ev.kind as u64 | (u64::from(ev.tenant) << 16),
            Ordering::Relaxed,
        );
        slot.trace_id.store(ev.trace_id, Ordering::Relaxed);
        slot.payload.store(ev.payload, Ordering::Relaxed);
        slot.seq.store(2 * n + 2, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
    }

    /// Reader side: appends every event still intact in the ring. Events
    /// overwritten (or mid-write) while we read are skipped, never torn.
    fn read_into(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let oldest = head.saturating_sub(cap);
        for n in oldest..head {
            let slot = &self.slots[(n % cap) as usize];
            let want = 2 * n + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let nanos = slot.nanos.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let payload = slot.payload.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != want {
                continue;
            }
            let Some(kind) = EventKind::from_u16((meta & 0xffff) as u16) else {
                continue;
            };
            out.push(TraceEvent {
                nanos,
                kind,
                trace_id,
                tenant: (meta >> 16) as u32,
                payload,
            });
        }
    }
}

/// A captured slow-request window: the triggering request's identity
/// plus every event that shares its trace id or falls inside the
/// surrounding time window at capture time.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Trace id of the request that tripped the watchdog.
    pub trace_id: u64,
    /// Human label (for slow queries, the query variant).
    pub label: String,
    /// The latency that tripped the threshold, nanoseconds.
    pub latency_nanos: u64,
    /// Recorder-relative capture time, nanoseconds.
    pub at_nanos: u64,
    /// The captured event window, globally time-ordered.
    pub events: Vec<TraceEvent>,
}

/// How many incidents [`FlightRecorder::capture_incident`] retains
/// (oldest dropped first).
pub const MAX_INCIDENTS: usize = 32;

struct RecorderCore {
    /// Distinguishes recorders in thread-local ring caches.
    id: usize,
    start: Instant,
    capacity: usize,
    enabled: AtomicBool,
    rings: Mutex<Vec<Arc<Ring>>>,
    tenants: Mutex<Vec<String>>,
    incidents: Mutex<VecDeque<Incident>>,
    trace_counter: AtomicU64,
}

static NEXT_RECORDER_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread cache of `(recorder id, ring)` pairs, so [`record`]
    /// finds this thread's ring without touching the shared mutex.
    static THREAD_RINGS: RefCell<Vec<(usize, Weak<Ring>)>> = const { RefCell::new(Vec::new()) };

    /// Ambient trace id for the current thread (see [`scoped`]).
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// Handle to a flight recorder, or a no-op. Clones share the same rings,
/// incidents, and trace-id counter, mirroring the metric-handle model:
/// plumb clones everywhere, pay nothing when no-op.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    core: Option<Arc<RecorderCore>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.core {
            Some(core) => f
                .debug_struct("FlightRecorder")
                .field("capacity", &core.capacity)
                .finish(),
            None => f.write_str("FlightRecorder::noop"),
        }
    }
}

impl FlightRecorder {
    /// An active recorder whose per-thread rings each hold `capacity`
    /// events (rounded up to a power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        FlightRecorder {
            core: Some(Arc::new(RecorderCore {
                id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                capacity,
                enabled: AtomicBool::new(true),
                rings: Mutex::new(Vec::new()),
                tenants: Mutex::new(Vec::new()),
                incidents: Mutex::new(VecDeque::new()),
                trace_counter: AtomicU64::new(1),
            })),
        }
    }

    /// A recorder that records nothing: [`record`](Self::record) is one
    /// branch, [`next_trace_id`](Self::next_trace_id) returns 0.
    pub fn noop() -> Self {
        FlightRecorder { core: None }
    }

    /// Whether this handle points at a live recorder.
    pub fn is_active(&self) -> bool {
        self.core.is_some()
    }

    /// Runtime toggle: a disabled recorder keeps its rings but
    /// [`record`](Self::record) returns after one extra relaxed load.
    pub fn set_enabled(&self, enabled: bool) {
        if let Some(core) = &self.core {
            core.enabled.store(enabled, Ordering::Relaxed);
        }
    }

    /// Mints a fresh nonzero trace id (0 on a no-op recorder, so
    /// untraced and no-op paths look identical downstream).
    pub fn next_trace_id(&self) -> u64 {
        match &self.core {
            Some(core) => core.trace_counter.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Interns `name`, returning a stable nonzero token for
    /// [`TraceEvent::tenant`] (0 on a no-op recorder).
    pub fn intern(&self, name: &str) -> u32 {
        let Some(core) = &self.core else { return 0 };
        let mut tenants = core.tenants.lock().expect("recorder tenants poisoned");
        if let Some(i) = tenants.iter().position(|t| t == name) {
            return (i + 1) as u32;
        }
        tenants.push(name.to_string());
        tenants.len() as u32
    }

    /// The name behind an interned token, if any.
    pub fn tenant_name(&self, token: u32) -> Option<String> {
        let core = self.core.as_ref()?;
        let tenants = core.tenants.lock().expect("recorder tenants poisoned");
        tenants.get(token.checked_sub(1)? as usize).cloned()
    }

    /// Nanoseconds since this recorder was created (0 when no-op).
    pub fn now_nanos(&self) -> u64 {
        match &self.core {
            Some(core) => core.start.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Records one event into the calling thread's ring.
    #[inline]
    pub fn record(&self, kind: EventKind, trace_id: u64, tenant: u32, payload: u64) {
        let Some(core) = &self.core else { return };
        if !core.enabled.load(Ordering::Relaxed) {
            return;
        }
        let ev = TraceEvent {
            nanos: core.start.elapsed().as_nanos() as u64,
            kind,
            trace_id,
            tenant,
            payload,
        };
        THREAD_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(id, _)| *id == core.id) {
                if let Some(ring) = weak.upgrade() {
                    ring.push(ev);
                    return;
                }
            }
            // First event from this thread (or the recorder this entry
            // pointed at is gone): build a ring, register it, cache it.
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            let ring = Arc::new(Ring::new(core.capacity));
            core.rings
                .lock()
                .expect("recorder rings poisoned")
                .push(Arc::clone(&ring));
            cache.push((core.id, Arc::downgrade(&ring)));
            ring.push(ev);
        });
    }

    /// Merges every thread's ring into one globally time-ordered dump.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let Some(core) = &self.core else {
            return Vec::new();
        };
        let rings: Vec<Arc<Ring>> = core.rings.lock().expect("recorder rings poisoned").clone();
        let mut out = Vec::new();
        for ring in rings {
            ring.read_into(&mut out);
        }
        out.sort_by_key(|ev| ev.nanos);
        out
    }

    /// Captures the events around a slow request into the bounded
    /// incident buffer: everything sharing `trace_id`, plus any event
    /// within `window_nanos` of now. Keeps the newest [`MAX_INCIDENTS`].
    pub fn capture_incident(
        &self,
        trace_id: u64,
        label: String,
        latency_nanos: u64,
        window_nanos: u64,
    ) {
        let Some(core) = &self.core else { return };
        let at_nanos = core.start.elapsed().as_nanos() as u64;
        let events: Vec<TraceEvent> = self
            .dump()
            .into_iter()
            .filter(|ev| {
                (trace_id != 0 && ev.trace_id == trace_id)
                    || at_nanos.saturating_sub(ev.nanos) <= window_nanos
            })
            .collect();
        let mut incidents = core.incidents.lock().expect("recorder incidents poisoned");
        if incidents.len() >= MAX_INCIDENTS {
            incidents.pop_front();
        }
        incidents.push_back(Incident {
            trace_id,
            label,
            latency_nanos,
            at_nanos,
            events,
        });
    }

    /// The captured incidents, oldest first.
    pub fn incidents(&self) -> Vec<Incident> {
        match &self.core {
            Some(core) => core
                .incidents
                .lock()
                .expect("recorder incidents poisoned")
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Renders the current dump plus incidents as Chrome `trace_event`
    /// JSON (loadable in chrome://tracing or Perfetto). Timestamps are
    /// microseconds as the format requires; `args.nanos` keeps full
    /// precision.
    pub fn render_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for ev in self.dump() {
            if !first {
                out.push(',');
            }
            first = false;
            self.render_event(&mut out, &ev);
        }
        out.push_str("],\"incidents\":[");
        let mut first = true;
        for inc in self.incidents() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"trace_id\":{},\"label\":{},\"latency_nanos\":{},\"at_nanos\":{},\"events\":[",
                inc.trace_id,
                json_string(&inc.label),
                inc.latency_nanos,
                inc.at_nanos
            ));
            let mut first_ev = true;
            for ev in &inc.events {
                if !first_ev {
                    out.push(',');
                }
                first_ev = false;
                self.render_event(&mut out, ev);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    fn render_event(&self, out: &mut String, ev: &TraceEvent) {
        let tenant = self
            .tenant_name(ev.tenant)
            .unwrap_or_else(|| ev.tenant.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"trace_id\":{},\"tenant\":{},\"payload\":{},\"nanos\":{}}}}}",
            ev.kind.as_str(),
            ev.nanos as f64 / 1000.0,
            ev.tenant,
            ev.trace_id,
            json_string(&tenant),
            ev.payload,
            ev.nanos
        ));
    }
}

/// Minimal JSON string escaper for labels and tenant names.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The calling thread's ambient trace id (0 if none is in scope).
///
/// Layers that cannot thread an id through their signatures — artifact
/// builders under `OnceLock`, WAL appends inside `DurableGraph::apply` —
/// read this instead; the layer that owns the request boundary installs
/// it with [`scoped`].
pub fn current_trace_id() -> u64 {
    CURRENT_TRACE.with(|c| c.get())
}

/// Installs `id` as the calling thread's ambient trace id until the
/// returned guard drops (restoring whatever was in scope before).
#[must_use = "the trace id is uninstalled when the guard drops"]
pub fn scoped(id: u64) -> TraceScope {
    let prev = CURRENT_TRACE.with(|c| c.replace(id));
    TraceScope { prev }
}

/// Guard from [`scoped`]; restores the previous ambient id on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;

    #[test]
    fn noop_recorder_records_nothing() {
        let rec = FlightRecorder::noop();
        assert!(!rec.is_active());
        rec.record(EventKind::QuerySubmit, 1, 0, 0);
        assert!(rec.dump().is_empty());
        assert_eq!(rec.next_trace_id(), 0);
        assert_eq!(rec.intern("g"), 0);
    }

    #[test]
    fn records_and_dumps_in_time_order() {
        let rec = FlightRecorder::with_capacity(64);
        let t = rec.next_trace_id();
        assert_ne!(t, 0);
        rec.record(EventKind::QuerySubmit, t, 0, 3);
        rec.record(EventKind::QueryExecute, t, 0, 7);
        let dump = rec.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].kind, EventKind::QuerySubmit);
        assert_eq!(dump[1].kind, EventKind::QueryExecute);
        assert!(dump[0].nanos <= dump[1].nanos);
        assert!(dump.iter().all(|ev| ev.trace_id == t));
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..20u64 {
            rec.record(EventKind::IngestBatch, 1, 0, i);
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 8);
        let payloads: Vec<u64> = dump.iter().map(|ev| ev.payload).collect();
        assert_eq!(payloads, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let rec = FlightRecorder::with_capacity(8);
        rec.set_enabled(false);
        rec.record(EventKind::QuerySubmit, 1, 0, 0);
        assert!(rec.dump().is_empty());
        rec.set_enabled(true);
        rec.record(EventKind::QuerySubmit, 1, 0, 0);
        assert_eq!(rec.dump().len(), 1);
    }

    #[test]
    fn interning_round_trips() {
        let rec = FlightRecorder::with_capacity(8);
        let a = rec.intern("social");
        let b = rec.intern("roads");
        assert_eq!(rec.intern("social"), a);
        assert_ne!(a, b);
        assert_eq!(rec.tenant_name(a).as_deref(), Some("social"));
        assert_eq!(rec.tenant_name(0), None);
        assert_eq!(rec.tenant_name(99), None);
    }

    #[test]
    fn multi_thread_dump_merges_all_rings() {
        let rec = FlightRecorder::with_capacity(64);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = rec.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    rec.record(EventKind::EngineBatch, t + 1, 0, i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 40);
        assert!(dump.windows(2).all(|w| w[0].nanos <= w[1].nanos));
    }

    #[test]
    fn incidents_filter_by_trace_and_window() {
        let rec = FlightRecorder::with_capacity(64);
        let slow = rec.next_trace_id();
        let other = rec.next_trace_id();
        rec.record(EventKind::QuerySubmit, slow, 0, 0);
        rec.record(EventKind::QuerySubmit, other, 0, 1);
        rec.record(EventKind::QueryExecute, slow, 0, 2);
        // Window 0: only the matching trace id survives the filter
        // (modulo events recorded in the same instant).
        rec.capture_incident(slow, "connectivity".to_string(), 123, 0);
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.trace_id, slow);
        assert_eq!(inc.label, "connectivity");
        assert_eq!(inc.latency_nanos, 123);
        assert!(inc.events.iter().filter(|ev| ev.trace_id == slow).count() >= 2);
        // A huge window captures everything.
        rec.capture_incident(slow, "again".to_string(), 1, u64::MAX);
        assert_eq!(rec.incidents()[1].events.len(), 3);
    }

    #[test]
    fn incident_buffer_is_bounded() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..(MAX_INCIDENTS + 5) {
            rec.capture_incident(i as u64 + 1, format!("q{i}"), 1, 0);
        }
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), MAX_INCIDENTS);
        assert_eq!(incidents[0].label, "q5");
    }

    #[test]
    fn scoped_trace_id_nests_and_restores() {
        assert_eq!(current_trace_id(), 0);
        {
            let _a = scoped(7);
            assert_eq!(current_trace_id(), 7);
            {
                let _b = scoped(9);
                assert_eq!(current_trace_id(), 9);
            }
            assert_eq!(current_trace_id(), 7);
        }
        assert_eq!(current_trace_id(), 0);
    }

    #[test]
    fn chrome_trace_renders_events_and_incidents() {
        let rec = FlightRecorder::with_capacity(16);
        let tenant = rec.intern("social");
        let t = rec.next_trace_id();
        rec.record(EventKind::QuerySubmit, t, tenant, 0);
        rec.capture_incident(t, "distance".to_string(), 55, u64::MAX);
        let json = rec.render_chrome_trace();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"query_submit\""));
        assert!(json.contains("\"incidents\":["));
        assert!(json.contains("\"distance\""));
        assert!(json.contains("\"social\""));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
