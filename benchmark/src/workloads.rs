//! The four workloads.
//!
//! Each is a tenant's life written out as calls into the pinned public
//! API: loads (create → apply in batches → `advance_epoch()`), churn
//! epochs, closed query loops of one caller, and — behind the store —
//! checkpoint and recovery cycles. One thread generates all load; the
//! shard workers are the program's own. Work is a fixed function of
//! `--seconds`, sized on the 2-core sandbox so that the timed phase lasts
//! about that long: fixed work, not fixed time, so that counts repeat
//! exactly and both sides of a comparison do the same thing.

use crate::churn::SlidingWindow;
use crate::harness::{
    expect_of, new_registry, tenant_config, BarrierClock, EpochKind, FirstTouch, Pass, Tenant,
    TENANT,
};
use crate::reference::Reference;
use dsg_graph::{Edge, GraphStream, NetMultiset, StreamUpdate};
use dsg_service::{GraphRegistry, LoadGen, MetricsSnapshot, QueryMix, ServedGraph};
use dsg_store::{DurableRegistry, StoreOptions};
use dsg_util::SpaceUsage;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Name and reason of each workload, in the order `BENCHMARK.json` lists
/// them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "ingest_churn",
        "n=2000 m=8000, 24000 updates with 1x decoy churn into a fresh in-memory tenant: hashing, sketch, agm and engine do nearly all the work; spanner, sparsifier and store do none",
    ),
    (
        "epoch_serve",
        "same n=2000 graph preloaded, 1% sliding-window epochs then 20000 queries on 16 hot sources that fit the oracle cache: fork/merge/seal, diff and the patch paths dominate, ingest is negligible",
    ),
    (
        "cut_small",
        "n=128 m=512 with KP12: epochs alternate 2% churn (patch) and 40% (rebuild), cut queries on 128 sources, 4x the oracle cache: the sparsifier does most of the work, both ways through the artifact layer",
    ),
    (
        "durable_recover",
        "n=1000 m=4000 through DurableRegistry, WAL fsync every batch: durable ingest, then checkpoint / drop / open / first answer cycles: the store writes beside reads of the same frames",
    ),
];

/// Share of `m` deleted and inserted per low-churn epoch.
const LOW_CHURN: f64 = 0.01;

/// How much work one pass does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub n: usize,
    pub m: usize,
    /// Timed loads; one untimed warm-up load runs first.
    pub loads: usize,
    /// Timed units: low-churn epochs after each load (`ingest_churn`),
    /// epochs or patch/rebuild pairs after the loads (`epoch_serve`,
    /// `cut_small`), or recovery cycles (`durable_recover`). The last
    /// three run untimed warm-up units first.
    pub units: usize,
    /// Closed query loops after each epoch or cycle.
    pub loops: u64,
    /// Queries per loop.
    pub queries: u64,
}

impl Scale {
    /// The work of `workload` for a timed phase of about `seconds` on the
    /// 2-core sandbox; `smoke` shrinks every graph to n ≤ 128 and every
    /// count to the minimum that still emits each metric.
    pub fn of(workload: &str, seconds: f64, smoke: bool) -> Option<Self> {
        let count = |each: f64, min: usize| ((seconds / each).round() as usize).max(min);
        let scale = match (workload, smoke) {
            // One load with its three epochs takes about 4 s.
            ("ingest_churn", false) => Self {
                n: 2000,
                m: 8000,
                loads: count(4.0, 2),
                units: 3,
                loops: 4,
                queries: 20_000,
            },
            // A load takes about 1.4 s, an epoch about 0.37 s.
            ("epoch_serve", false) => Self {
                n: 2000,
                m: 8000,
                loads: count(5.0, 2),
                units: count(0.55, 4),
                loops: 3,
                queries: 20_000,
            },
            // A patch/rebuild pair takes about 3.6 s; a load 45 ms, so there
            // are many: its ingest and recovery samples are milliseconds
            // long, and one scheduling hiccup is a large share of one.
            ("cut_small", false) => Self {
                n: 128,
                m: 512,
                loads: count(0.5, 8),
                units: count(4.0, 2),
                loops: 4,
                queries: 10_000,
            },
            // A load takes about 1.3 s, a cycle about 1.3 s.
            ("durable_recover", false) => Self {
                n: 1000,
                m: 4000,
                loads: count(4.0, 2),
                units: count(2.0, 3),
                loops: 6,
                queries: 20_000,
            },
            ("ingest_churn" | "epoch_serve" | "durable_recover", true) => Self {
                n: 96,
                m: 384,
                loads: 2,
                units: 2,
                loops: 1,
                queries: 2_000,
            },
            ("cut_small", true) => Self {
                n: 32,
                m: 96,
                loads: 2,
                units: 1,
                loops: 1,
                queries: 2_000,
            },
            _ => return None,
        };
        Some(scale)
    }
}

/// Sums of the program's own telemetry over the sampled part of a pass,
/// read from the tenant's slice of the public registry.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Telemetry {
    pub fork_ns: u64,
    pub fork_count: u64,
    pub merge_ns: u64,
    pub merge_count: u64,
    pub seal_ns: u64,
    pub seal_count: u64,
    pub artifacts_patched: u64,
    pub artifacts_rebuilt: u64,
    pub oracle_hits: u64,
    pub oracle_misses: u64,
    pub send_wait_ns: u64,
    pub batches_sent: u64,
    pub routed: Vec<u64>,
}

impl Telemetry {
    /// Adds what `diff` — a [`MetricsSnapshot::diff`] between two
    /// boundaries of one tenant — counted.
    pub fn absorb(&mut self, diff: &MetricsSnapshot) {
        for (name, _) in diff.iter() {
            let family = name.split('{').next().unwrap_or(name);
            let counter = diff.counter(name).unwrap_or(0);
            let (sum, count) = diff.histogram(name).map_or((0, 0), |h| (h.sum, h.count()));
            match family {
                "dsg_service_epoch_phase_nanos" => {
                    let (ns, n) = if name.contains("phase=\"fork\"") {
                        (&mut self.fork_ns, &mut self.fork_count)
                    } else if name.contains("phase=\"merge\"") {
                        (&mut self.merge_ns, &mut self.merge_count)
                    } else if name.contains("phase=\"seal\"") {
                        (&mut self.seal_ns, &mut self.seal_count)
                    } else {
                        continue;
                    };
                    *ns += sum;
                    *n += count;
                }
                "dsg_service_artifact_incremental_total" => self.artifacts_patched += counter,
                "dsg_service_artifact_full_total" => self.artifacts_rebuilt += counter,
                "dsg_service_oracle_cache_hits_total" => self.oracle_hits += counter,
                "dsg_service_oracle_cache_misses_total" => self.oracle_misses += counter,
                "dsg_engine_send_wait_nanos" => self.send_wait_ns += sum,
                "dsg_engine_batches_sent_total" => self.batches_sent += counter,
                "dsg_engine_updates_routed_total" => {
                    let shard = name
                        .split("shard=\"")
                        .nth(1)
                        .and_then(|rest| rest.split('"').next())
                        .and_then(|s| s.parse::<usize>().ok());
                    if let Some(shard) = shard {
                        if self.routed.len() <= shard {
                            self.routed.resize(shard + 1, 0);
                        }
                        self.routed[shard] += counter;
                    }
                }
                _ => {}
            }
        }
    }
}

/// What is left standing when a pass ends, for the layer micro-loops to
/// run on the workload's own inputs.
#[derive(Debug)]
pub struct Live {
    pub n: usize,
    pub seed: u64,
    /// The in-memory registry and tenant (for `durable_recover`, the
    /// in-memory twin fed the same stream).
    pub registry: Arc<GraphRegistry>,
    pub tenant: Arc<ServedGraph>,
    /// The sealed segments of the last two epochs.
    pub prev_net: Arc<NetMultiset>,
    pub cur_net: Arc<NetMultiset>,
    /// The edges live in `cur_net`, by the harness's own record.
    pub live_edges: Vec<Edge>,
    /// The update stream of one load.
    pub load_updates: Vec<StreamUpdate>,
    /// The durable tenant's directory, checkpointed and closed.
    pub durable_dir: Option<PathBuf>,
}

#[derive(Debug)]
pub struct Outcome {
    pub pass: Pass,
    pub telemetry: Telemetry,
    pub sketch_bytes: f64,
    pub live: Live,
}

/// Everything a pass is told.
#[derive(Debug, Clone)]
pub struct Job {
    pub workload: String,
    pub seed: u64,
    pub scale: Scale,
    /// Flight recorder on (`GraphRegistry::with_observability`).
    pub observe: bool,
    /// Where durable tenants and scratch files live; inside the checkout.
    pub scratch: PathBuf,
}

/// Runs one pass of `job.workload`, recording into `pass`.
pub fn run(job: &Job, pass: Pass) -> Result<Outcome, String> {
    match job.workload.as_str() {
        "ingest_churn" => ingest_churn(job, pass),
        "epoch_serve" => epochs(job, pass, &EPOCH_SERVE),
        "cut_small" => epochs(job, pass, &CUT_SMALL),
        "durable_recover" => durable_recover(job, pass),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Engine batch size, and the size of the in-memory workloads' `apply()`
/// calls.
const BATCH: usize = 256;
/// Size of `durable_recover`'s `apply()` calls: one WAL record and one
/// fsync each.
const DURABLE_BATCH: usize = 64;

fn create_mem(
    job: &Job,
    pass: &Pass,
    n: usize,
) -> Result<(Arc<GraphRegistry>, Arc<ServedGraph>), String> {
    pass.timed("service.create", || {
        let registry = new_registry(job.observe);
        let graph = registry
            .create(TENANT, tenant_config(n, job.seed))
            .map_err(|e| e.to_string())?;
        Ok((registry, graph))
    })
    .0
}

/// Dropping the last handles joins the tenant's shard workers.
fn drop_mem(pass: &Pass, registry: Arc<GraphRegistry>, graph: Arc<ServedGraph>) {
    pass.rec.span("service.drop", || drop((graph, registry)));
}

fn model_of(pass: &Pass, window: &SlidingWindow) -> Reference {
    pass.rec.span("harness.reference", || {
        Reference::new(window.num_vertices(), window.live_edges())
    })
}

/// `ingest_churn`: every repetition loads a fresh tenant with the whole
/// churned stream, then runs a few low-churn epochs with their membership
/// loops so that every end-to-end metric has a value here too.
fn ingest_churn(job: &Job, mut pass: Pass) -> Result<Outcome, String> {
    let Scale {
        n, m, loads, units, ..
    } = job.scale;
    let touches = [FirstTouch::connectivity()];
    let load = LoadGen::new(n, QueryMix::membership_only(), job.seed);
    let mut telemetry = Telemetry::default();
    let mut loops = 0;
    let mut last = None;
    for rep in 0..=loads {
        pass.sampling = rep > 0;
        let setup = Instant::now();
        let (mut window, stream) = pass.rec.span("graph.gen", || {
            let window = SlidingWindow::new(n, m, job.seed);
            let stream = GraphStream::with_churn(&window.live_graph(), 1.0, job.seed);
            (window, stream)
        });
        let recovery = Instant::now();
        let (registry, graph) = create_mem(job, &pass, n)?;
        pass.sample("setup_s", setup.elapsed().as_secs_f64());
        let tenant = Tenant::Mem(Arc::clone(&graph));
        let mut model = model_of(&pass, &window);
        let mut applied = 0;
        let loaded = pass.load(&tenant, stream.updates(), BATCH, &mut applied)?;
        let first = pass.finish_epoch(&tenant, loaded, &touches, EpochKind::Rebuild, &mut model);
        pass.sample("recovery_s", recovery.elapsed().as_secs_f64());

        let mut snap = first;
        let mut prev_net = Arc::clone(snap.net_edges());
        for _ in 0..units {
            let churn = window.slide(window.churn_size(LOW_CHURN));
            let mut model = model_of(&pass, &window);
            pass.apply_all(&tenant, &churn, BATCH, &mut applied)?;
            let advanced = pass.advance(&tenant, applied)?;
            prev_net = Arc::clone(snap.net_edges());
            snap = pass.finish_epoch(&tenant, advanced, &touches, EpochKind::Patch, &mut model);
            pass.query_loops(&tenant, &load, &mut loops, job.scale, &mut model, &snap);
        }
        if pass.sampling {
            telemetry.absorb(&graph.metrics());
        }
        if rep == loads {
            last = Some((registry, graph, prev_net, snap, stream, window));
        } else {
            drop(tenant);
            drop_mem(&pass, registry, graph);
        }
    }
    let (registry, tenant, prev_net, snap, stream, window) = last.ok_or("no load ran")?;
    Ok(Outcome {
        pass,
        telemetry,
        sketch_bytes: snap.sketch().space_bytes() as f64,
        live: Live {
            n,
            seed: job.seed,
            registry,
            tenant,
            prev_net,
            cur_net: Arc::clone(snap.net_edges()),
            live_edges: window.live_edges().collect(),
            load_updates: stream.updates().to_vec(),
            durable_dir: None,
        },
    })
}

/// What tells `epoch_serve` and `cut_small` apart.
struct EpochShape {
    /// Churn of each epoch of one timed unit, with the kind of refresh the
    /// default `churn_threshold` gives it.
    unit: &'static [(f64, EpochKind)],
    /// Untimed units before the timed ones.
    warm_up: usize,
    cut: bool,
    hot_sources: usize,
}

const EPOCH_SERVE: EpochShape = EpochShape {
    unit: &[(LOW_CHURN, EpochKind::Patch)],
    warm_up: 2,
    cut: false,
    hot_sources: 16,
};

const CUT_SMALL: EpochShape = EpochShape {
    unit: &[(0.02, EpochKind::Patch), (0.40, EpochKind::Rebuild)],
    warm_up: 1,
    cut: true,
    hot_sources: 128,
};

/// `epoch_serve` and `cut_small`: loads that preload the window (each one
/// a set-up sample), then churn epochs on the last tenant, each followed
/// by a closed query loop.
fn epochs(job: &Job, mut pass: Pass, shape: &EpochShape) -> Result<Outcome, String> {
    let Scale {
        n, m, loads, units, ..
    } = job.scale;
    // The loads ask for the forest and the oracle only: the first KP12
    // build belongs to the warm-up epochs, not to every set-up.
    let load_touches = [FirstTouch::connectivity(), FirstTouch::distance(n)];
    let mut touches = load_touches.to_vec();
    let mut mix = QueryMix::read_heavy();
    mix.cut = 0;
    if shape.cut {
        touches.push(FirstTouch::cut(n));
        mix.cut = 20;
    }
    let load = LoadGen::new(n, mix, job.seed).hot_sources(shape.hot_sources);

    let mut kept = None;
    for rep in 0..=loads {
        pass.sampling = rep > 0;
        let setup = Instant::now();
        let window = pass
            .rec
            .span("graph.gen", || SlidingWindow::new(n, m, job.seed));
        let preload = window.preload();
        let recovery = Instant::now();
        let (registry, graph) = create_mem(job, &pass, n)?;
        let tenant = Tenant::Mem(Arc::clone(&graph));
        let mut model = model_of(&pass, &window);
        let mut applied = 0;
        let loaded = pass.load(&tenant, &preload, BATCH, &mut applied)?;
        let expect = expect_of(&loaded.0);
        let (conn, rest) = load_touches.split_at(1);
        let conn_wall = pass.first_answers(&tenant, conn, EpochKind::Rebuild, &mut model, expect);
        pass.sample("recovery_s", recovery.elapsed().as_secs_f64());
        let rest_wall = pass.first_answers(&tenant, rest, EpochKind::Rebuild, &mut model, expect);
        if !shape.cut {
            let wall = loaded.1 + conn_wall + rest_wall;
            pass.sample(EpochKind::Rebuild.sample(), wall.as_secs_f64() * 1e3);
        }
        pass.sample("setup_s", setup.elapsed().as_secs_f64());
        if rep == loads {
            kept = Some((registry, graph, window, preload, applied, loaded.0));
        } else {
            drop(tenant);
            drop_mem(&pass, registry, graph);
        }
    }
    let (registry, graph, mut window, preload, mut applied, mut snap) =
        kept.ok_or("no load ran")?;
    let tenant = Tenant::Mem(Arc::clone(&graph));

    let mut telemetry = Telemetry::default();
    let mut base = graph.metrics();
    let mut prev_net = Arc::clone(snap.net_edges());
    let mut loops = 0;
    for unit in 0..shape.warm_up + units {
        pass.sampling = unit >= shape.warm_up;
        if unit == shape.warm_up {
            base = graph.metrics();
        }
        for &(churn, kind) in shape.unit {
            let updates = window.slide(window.churn_size(churn));
            let mut model = model_of(&pass, &window);
            pass.apply_all(&tenant, &updates, BATCH, &mut applied)?;
            let advanced = pass.advance(&tenant, applied)?;
            prev_net = Arc::clone(snap.net_edges());
            snap = pass.finish_epoch(&tenant, advanced, &touches, kind, &mut model);
            pass.query_loops(&tenant, &load, &mut loops, job.scale, &mut model, &snap);
        }
    }
    telemetry.absorb(&graph.metrics().diff(&base));
    Ok(Outcome {
        pass,
        telemetry,
        sketch_bytes: snap.sketch().space_bytes() as f64,
        live: Live {
            n,
            seed: job.seed,
            registry,
            tenant: graph,
            prev_net,
            cur_net: Arc::clone(snap.net_edges()),
            live_edges: window.live_edges().collect(),
            load_updates: preload,
            durable_dir: None,
        },
    })
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// `durable_recover`: fresh-directory durable loads, then on the last
/// tenant cycles of churn tail → `checkpoint()` → a tail left in the WAL →
/// drop → `open()` → first answer. An in-memory twin is fed the same
/// batches; after every recovery the recovered sketch must equal the
/// twin's byte for byte.
fn durable_recover(job: &Job, mut pass: Pass) -> Result<Outcome, String> {
    let Scale {
        n, m, loads, units, ..
    } = job.scale;
    let touches = [FirstTouch::connectivity()];
    let load = LoadGen::new(n, QueryMix::membership_only(), job.seed);
    let options = StoreOptions::default();
    let store_err = |e: dsg_store::StoreError| e.to_string();

    let mut kept = None;
    for rep in 0..=loads {
        pass.sampling = rep > 0;
        let root = job.scratch.join(format!("store-{rep}"));
        let setup = Instant::now();
        let (window, stream) = pass.rec.span("graph.gen", || {
            let window = SlidingWindow::new(n, m, job.seed);
            let stream = GraphStream::with_churn(&window.live_graph(), 1.0, job.seed);
            (window, stream)
        });
        let (registry, _) = pass.timed("store.open", || DurableRegistry::open(&root, options));
        let registry = registry.map_err(store_err)?;
        let (graph, _) = pass.timed("store.create", || {
            registry.create(TENANT, tenant_config(n, job.seed))
        });
        let graph = graph.map_err(store_err)?;
        pass.sample("setup_s", setup.elapsed().as_secs_f64());
        let tenant = Tenant::Durable(Arc::clone(&graph));
        let mut model = model_of(&pass, &window);
        let mut applied = 0;
        let loaded = pass.load(&tenant, stream.updates(), DURABLE_BATCH, &mut applied)?;
        let snap = pass.finish_epoch(&tenant, loaded, &touches, EpochKind::Rebuild, &mut model);
        drop(tenant);
        if rep == loads {
            kept = Some((root, registry, graph, window, stream, applied, snap));
        } else {
            pass.rec.span("store.drop", || drop((graph, registry)));
            pass.rec
                .span("harness.cleanup", || std::fs::remove_dir_all(&root))
                .map_err(|e| e.to_string())?;
        }
    }
    let (root, mut registry, mut graph, mut window, stream, mut applied, mut snap) =
        kept.ok_or("no load ran")?;
    let tenant_dir = root.join(TENANT);

    // The twin is outside the measurement: its spans are the harness's.
    let (twin_registry, twin) = pass.rec.span("harness.twin", || {
        let twin_registry = new_registry(job.observe);
        let twin = twin_registry
            .create(TENANT, tenant_config(n, job.seed))
            .map_err(|e| e.to_string())?;
        for chunk in stream.updates().chunks(DURABLE_BATCH) {
            twin.apply(chunk).map_err(|e| e.to_string())?;
        }
        twin.advance_epoch();
        Ok::<_, String>((twin_registry, twin))
    })?;

    let mut prev_net = Arc::clone(snap.net_edges());
    let mut loops = 0;
    for cycle in 0..=units {
        pass.sampling = cycle > 0;
        let durable = Tenant::Durable(Arc::clone(&graph));
        // A 5% tail, sealed into an epoch and then checkpointed.
        let tail = window.slide(window.churn_size(0.05));
        let mut model = model_of(&pass, &window);
        pass.apply_all(&durable, &tail, DURABLE_BATCH, &mut applied)?;
        let advanced = pass.advance(&durable, applied)?;
        pass.finish_epoch(&durable, advanced, &touches, EpochKind::Patch, &mut model);
        let (result, wall) = pass.timed("store.checkpoint", || graph.checkpoint());
        pass.tally(result.is_ok(), || format!("checkpoint failed: {result:?}"));
        result.map_err(store_err)?;
        pass.sample("checkpoint_ms", wall.as_secs_f64() * 1e3);
        let on_disk = dir_bytes(&tenant_dir).map_err(|e| e.to_string())?;
        pass.sample("checkpoint_dir_bytes", on_disk as f64);
        // A 2% tail that only the WAL holds when the process "dies".
        let wal_tail = window.slide(window.churn_size(0.02));
        let mut model = model_of(&pass, &window);
        pass.apply_all(&durable, &wal_tail, DURABLE_BATCH, &mut applied)?;
        let (result, _) = pass.timed("store.sync", || durable.sync());
        pass.tally(result.is_ok(), || format!("sync failed: {result:?}"));
        result?;
        pass.rec
            .span("store.drop", || drop((durable, graph, registry)));

        let clock = BarrierClock::start();
        let (reopened, _) = pass.timed("store.open", || DurableRegistry::open(&root, options));
        pass.tally(reopened.is_ok(), || format!("open failed: {reopened:?}"));
        let reopened = reopened.map_err(store_err)?;
        let (found, _) = pass.timed("store.get", || reopened.get(TENANT));
        pass.tally(found.is_ok(), || format!("get failed: {found:?}"));
        graph = found.map_err(store_err)?;
        let recovered = Tenant::Durable(Arc::clone(&graph));
        let (epoch, _) = pass.advance(&recovered, applied)?;
        let expect = expect_of(&epoch);
        pass.first_answers(&recovered, &touches, EpochKind::Patch, &mut model, expect);
        let wall = clock
            .stop(&recovered.snapshot(), applied)
            .map_err(|short| short.to_string())?;
        pass.sample("recovery_s", wall.as_secs_f64());
        for report in reopened.recovery_report() {
            pass.sample(
                "recovery_load_ms",
                report.checkpoint_load.as_secs_f64() * 1e3,
            );
            pass.sample("recovery_restore_ms", report.restore.as_secs_f64() * 1e3);
            pass.sample("recovery_replay_ms", report.replay.as_secs_f64() * 1e3);
            pass.sample("recovery_wal_open_ms", report.wal_open.as_secs_f64() * 1e3);
        }

        let same = pass.rec.span("harness.twin", || {
            for chunk in tail
                .chunks(DURABLE_BATCH)
                .chain(wal_tail.chunks(DURABLE_BATCH))
            {
                twin.apply(chunk).map_err(|e| e.to_string())?;
            }
            let twin_epoch = twin.advance_epoch();
            Ok::<_, String>(
                dsg_sketch::LinearSketch::to_bytes(twin_epoch.sketch())
                    == dsg_sketch::LinearSketch::to_bytes(epoch.sketch()),
            )
        })?;
        pass.tally(same, || {
            format!("cycle {cycle}: recovered sketch bytes differ from the in-memory twin's")
        });
        pass.query_loops(&recovered, &load, &mut loops, job.scale, &mut model, &epoch);
        prev_net = Arc::clone(snap.net_edges());
        snap = epoch;
        registry = reopened;
    }
    // Leave a checkpointed, closed directory behind for the store's
    // micro-loops.
    pass.sampling = false;
    let (result, _) = pass.timed("store.checkpoint", || graph.checkpoint());
    result.map_err(store_err)?;
    pass.rec.span("store.drop", || drop((graph, registry)));
    let mut telemetry = Telemetry::default();
    telemetry.absorb(&twin.metrics());
    Ok(Outcome {
        pass,
        telemetry,
        sketch_bytes: snap.sketch().space_bytes() as f64,
        live: Live {
            n,
            seed: job.seed,
            registry: twin_registry,
            tenant: twin,
            prev_net,
            cur_net: Arc::clone(snap.net_edges()),
            live_edges: window.live_edges().collect(),
            load_updates: stream.updates().to_vec(),
            durable_dir: Some(tenant_dir),
        },
    })
}
