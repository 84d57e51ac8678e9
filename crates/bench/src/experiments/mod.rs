//! One module per experiment family; each `run` prints the tables recorded
//! in `EXPERIMENTS.md`.

pub mod additive_exps;
pub mod audit_exps;
pub mod compaction_exps;
pub mod engine_exps;
pub mod incremental_exps;
pub mod lowerbound_exps;
pub mod partition_exps;
pub mod service_exps;
pub mod sketch_exps;
pub mod spanner_exps;
pub mod sparsifier_exps;
pub mod store_exps;
pub mod telemetry_exps;
pub mod tracing_exps;

use crate::Scale;

/// All experiment names, in E-index order.
pub const ALL: &[&str] = &[
    "spanner-size",
    "spanner-stretch",
    "spanner-space",
    "cluster-expansion",
    "cluster-diameter",
    "additive",
    "lowerbound",
    "sparsifier",
    "ss08",
    "sparse-recovery",
    "distinct",
    "agm-forest",
    "weighted",
    "baseline-compare",
    "connectivity-estimates",
    "ablation-budget",
    "ablation-levels",
    "engine",
    "service",
    "store",
    "compaction",
    "partition",
    "telemetry",
    "tracing",
    "audit",
    "incremental",
];

/// Dispatches one experiment by name. Returns false for unknown names.
pub fn run(name: &str, scale: Scale) -> bool {
    match name {
        "spanner-size" => spanner_exps::spanner_size(scale),
        "spanner-stretch" => spanner_exps::spanner_stretch(scale),
        "spanner-space" => spanner_exps::spanner_space(scale),
        "cluster-expansion" => spanner_exps::cluster_expansion(scale),
        "cluster-diameter" => spanner_exps::cluster_diameter(scale),
        "additive" => additive_exps::additive(scale),
        "lowerbound" => lowerbound_exps::lowerbound(scale),
        "sparsifier" => sparsifier_exps::sparsifier(scale),
        "ss08" => sparsifier_exps::ss08(scale),
        "sparse-recovery" => sketch_exps::sparse_recovery(scale),
        "distinct" => sketch_exps::distinct(scale),
        "agm-forest" => sketch_exps::agm_forest(scale),
        "weighted" => spanner_exps::weighted(scale),
        "baseline-compare" => spanner_exps::baseline_compare(scale),
        "connectivity-estimates" => sparsifier_exps::connectivity_estimates(scale),
        "ablation-budget" => spanner_exps::ablation_budget(scale),
        "ablation-levels" => spanner_exps::ablation_levels(scale),
        "engine" => engine_exps::engine(scale),
        "service" => service_exps::service(scale),
        "store" => store_exps::store(scale),
        "compaction" => compaction_exps::compaction(scale),
        "partition" => partition_exps::partition(scale),
        "telemetry" => telemetry_exps::telemetry(scale),
        "tracing" => tracing_exps::tracing(scale),
        "audit" => audit_exps::audit(scale),
        "incremental" => incremental_exps::incremental(scale),
        _ => return false,
    }
    true
}
