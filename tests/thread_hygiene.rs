//! Regression test for deterministic thread shutdown.
//!
//! A durable close ("remove the tenant, then delete its files") is only
//! safe if no shard worker or query-pool thread can outlive its handle:
//! `ShardedEngine` joins its workers on drop (not detach), `QueryService`
//! joins its pool on drop, and `GraphRegistry::remove` + last-handle drop
//! therefore release every thread synchronously. This test cycles many
//! create/serve/remove rounds and asserts the process thread count comes
//! back to its baseline — a leak of even one thread per round shows up
//! as dozens here.

use dsg_service::{GraphConfig, GraphRegistry, Query, QueryService};
use dsg_store::{DurableRegistry, ScratchDir, StoreOptions};
use std::sync::{Arc, Mutex};

/// The thread count is process-wide and the harness runs this file's
/// tests on parallel threads: each test holds this for its whole body, so
/// neither counts the other's workers into its baseline or its total.
static COUNTING: Mutex<()> = Mutex::new(());

/// Live thread count of this process (Linux; `None` elsewhere).
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.count())
}

#[test]
fn create_remove_cycles_leak_no_threads() {
    let _alone = COUNTING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let Some(_) = thread_count() else {
        eprintln!("skipping: /proc/self/task unavailable on this platform");
        return;
    };

    let registry = Arc::new(GraphRegistry::new());
    // One warm-up round, so lazily spawned runtime threads (if any) are
    // counted into the baseline.
    run_round(&registry, "warmup");
    let baseline = thread_count().expect("probed above");

    for i in 0..25 {
        run_round(&registry, &format!("g{i}"));
        assert!(registry.is_empty(), "round {i} left a graph registered");
    }
    let after = thread_count().expect("probed above");
    assert!(
        after <= baseline,
        "thread leak: {baseline} threads at baseline, {after} after 25 create/remove rounds"
    );
}

/// One full lifecycle: create a sharded graph, serve a query through a
/// worker pool, then tear everything down.
fn run_round(registry: &Arc<GraphRegistry>, name: &str) {
    let g = registry
        .create(name, GraphConfig::new(10).shards(3).batch_size(4))
        .expect("name is fresh");
    g.insert(0, 1).expect("in range");
    g.advance_epoch();
    let pool = QueryService::start(Arc::clone(registry), 4);
    pool.query_blocking(name, Query::Connectivity)
        .expect("pool serves");
    pool.shutdown(); // joins all 4 workers
    registry.remove(name).expect("registered above");
    drop(g); // last handle: joins all 3 shard workers
}

#[test]
fn durable_create_remove_cycles_leak_no_threads_or_files() {
    let _alone = COUNTING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let Some(_) = thread_count() else {
        eprintln!("skipping: /proc/self/task unavailable on this platform");
        return;
    };

    let dir = ScratchDir::new("thread-hygiene");
    let registry = DurableRegistry::open(dir.path(), StoreOptions::default()).expect("open");
    durable_round(&registry, "warmup");
    let baseline = thread_count().expect("probed above");

    for i in 0..10 {
        durable_round(&registry, &format!("g{i}"));
    }
    let after = thread_count().expect("probed above");
    assert!(
        after <= baseline,
        "thread leak: {baseline} at baseline, {after} after 10 durable rounds"
    );
    // remove() must also have deleted every tenant directory.
    let leftover = std::fs::read_dir(dir.path()).expect("root exists").count();
    assert_eq!(leftover, 0, "durable remove left tenant files behind");
}

/// One durable lifecycle: create (checkpoint + WAL on disk), write, epoch,
/// remove (joins workers, then deletes the directory).
fn durable_round(registry: &DurableRegistry, name: &str) {
    let g = registry
        .create(name, GraphConfig::new(8).shards(2).batch_size(4))
        .expect("name is fresh");
    g.insert(0, 1).expect("in range");
    g.advance_epoch().expect("epoch advance");
    drop(g); // registry keeps its own handle until remove()
    registry.remove(name).expect("registered above");
}
