//! Every metric the benchmark emits, by name. `BENCHMARK.json` lists the
//! same names, units, directions and bounds; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
    /// A count the same seed must reproduce exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload emits every one.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_updates_per_s", "1/s", Higher, 0.25),
    e2e("epoch_refresh_ms", "ms", Lower, 0.25),
    e2e("epoch_rebuild_ms", "ms", Lower, 0.25),
    e2e("query_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("query_p99_us", "us", Lower, 0.25),
    e2e("recovery_s", "s", Lower, 0.25),
    MetricDef {
        exact: true,
        ..e2e("sketch_bytes", "B", Lower, 0.03)
    },
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single layers, from the traced run. A workload that does not run a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: [MetricDef; 71] = [
    layer("hashing.kwise_hash_ns", "ns", Lower),
    layer("sketch.ssparse_update_ns", "ns", Lower),
    layer("sketch.l0_update_ns", "ns", Lower),
    layer("sketch.ssparse_decode_us", "us", Lower),
    layer("sketch.l0_sample_us", "us", Lower),
    layer("sketch.decode_fail_ratio", "ratio", Lower),
    layer("sketch.wire_encode_mb_per_s", "MB/s", Higher),
    layer("sketch.wire_decode_mb_per_s", "MB/s", Higher),
    layer("agm.update_ns", "ns", Lower),
    layer("agm.clone_ms", "ms", Lower),
    layer("agm.merge_ms", "ms", Lower),
    layer("agm.forest_ms", "ms", Lower),
    count("agm.sketch_bytes", "B", Lower),
    layer("engine.updates_per_s", "1/s", Higher),
    layer("engine.single_shard_updates_per_s", "1/s", Higher),
    layer("engine.send_wait_share", "ratio", Lower),
    count("engine.load_balance", "ratio", Lower),
    count("engine.batches_sent", "count", Lower),
    layer("graph.compact_apply_ns", "ns", Lower),
    layer("graph.net_from_updates_ms", "ms", Lower),
    layer("graph.diff_ms", "ms", Lower),
    layer("graph.apply_delta_ms", "ms", Lower),
    layer("spanner.build_ms", "ms", Lower),
    count("spanner.edges", "count", Lower),
    layer("spanner.oracle_hit_ns", "ns", Lower),
    layer("spanner.oracle_miss_us", "us", Lower),
    count("spanner.stretch_max", "ratio", Lower),
    layer("sparsifier.build_ms", "ms", Lower),
    count("sparsifier.edges", "count", Lower),
    layer("sparsifier.cut_query_us", "us", Lower),
    count("sparsifier.max_cut_err", "ratio", Lower),
    count("sparsifier.cut_rel_err_p95", "ratio", Lower),
    layer("service.apply_us_per_batch", "us", Lower),
    layer("service.advance_ms", "ms", Lower),
    layer("service.fork_ms", "ms", Lower),
    layer("service.merge_ms", "ms", Lower),
    layer("service.seal_ms", "ms", Lower),
    layer("service.forest_first_ms.patch", "ms", Lower),
    layer("service.forest_first_ms.rebuild", "ms", Lower),
    layer("service.oracle_first_ms.patch", "ms", Lower),
    layer("service.oracle_first_ms.rebuild", "ms", Lower),
    layer("service.cut_first_ms.patch", "ms", Lower),
    layer("service.cut_first_ms.rebuild", "ms", Lower),
    count("service.artifact_patched", "count", Higher),
    count("service.artifact_rebuilt", "count", Lower),
    layer("service.query_connectivity_ns", "ns", Lower),
    layer("service.query_same_component_ns", "ns", Lower),
    layer("service.query_distance_ns", "ns", Lower),
    layer("service.query_is_far_ns", "ns", Lower),
    layer("service.query_cut_ns", "ns", Lower),
    layer("service.query_stats_ns", "ns", Lower),
    layer("service.oracle_cache_hit_ratio", "ratio", Higher),
    layer("service.pool_roundtrip_us", "us", Lower),
    layer("service.pool_query_per_s", "1/s", Higher),
    layer("service.pool_queue_wait_share", "ratio", Lower),
    layer("store.wal_append_us", "us", Lower),
    layer("store.wal_fsync_us", "us", Lower),
    count("store.wal_bytes_per_update", "B", Lower),
    layer("store.checkpoint_ms", "ms", Lower),
    layer("store.checkpoint_write_ms", "ms", Lower),
    layer("store.checkpoint_read_ms", "ms", Lower),
    count("store.checkpoint_bytes", "B", Lower),
    layer("store.checkpoint_dir_bytes", "B", Lower),
    layer("store.recovery_load_ms", "ms", Lower),
    layer("store.recovery_restore_ms", "ms", Lower),
    layer("store.recovery_replay_ms", "ms", Lower),
    layer("store.recovery_wal_open_ms", "ms", Lower),
    layer("store.replay_updates_per_s", "1/s", Higher),
    layer("telemetry.trace_overhead_pct", "%", Lower),
    layer("telemetry.record_ns", "ns", Lower),
    layer("harness.unattributed_share", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{object, parse, Value};
    use crate::workloads::WORKLOADS;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        parse(&text).expect("BENCHMARK.json is strict JSON")
    }

    fn check_list(listed: &[Value], defs: &[MetricDef], with_bound: bool) {
        assert_eq!(listed.len(), defs.len());
        for (entry, def) in listed.iter().zip(defs) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str);
            assert_eq!(field("name"), Some(def.name));
            assert_eq!(field("unit"), Some(def.unit), "{}", def.name);
            assert_eq!(field("better"), Some(def.better.as_str()), "{}", def.name);
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, def.bound.filter(|_| with_bound), "{}", def.name);
            let keys = object(entry).expect("object").len();
            assert_eq!(keys, if with_bound { 4 } else { 3 }, "{}", def.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let m = manifest();
        let list = |k: &str| m.get(k).and_then(Value::as_array).expect("list");
        check_list(list("end_to_end"), &END_TO_END, true);
        check_list(list("per_layer"), &PER_LAYER, false);
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(why));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            let name_ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(def.name.chars().all(name_ok), "{}", def.name);
            assert!(def.unit.chars().all(unit_ok), "{}", def.unit);
            assert!(def.bound.is_none_or(|b| (0.0..=0.25).contains(&b)));
        }
        assert_eq!(
            find("setup_s").map(|d| (d.unit, d.better)),
            Some(("s", Lower))
        );
    }
}
