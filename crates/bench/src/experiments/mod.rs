//! One module per experiment family; each `run` prints the tables of one
//! row of DESIGN.md's experiment index (E1–E17). E2, E5 and E12 also
//! return their rows, which `tests/claims.rs` gates.

pub mod additive_exps;
pub mod lowerbound_exps;
pub mod sketch_exps;
pub mod spanner_exps;
pub mod sparsifier_exps;

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
];

/// Dispatches one experiment by name. Returns false for unknown names.
pub fn run(name: &str, scale: Scale) -> bool {
    match name {
        "spanner-size" => spanner_exps::spanner_size(scale),
        "spanner-stretch" => {
            spanner_exps::spanner_stretch(scale);
        }
        "spanner-space" => spanner_exps::spanner_space(scale),
        "cluster-expansion" => spanner_exps::cluster_expansion(scale),
        "cluster-diameter" => {
            spanner_exps::cluster_diameter(scale);
        }
        "additive" => additive_exps::additive(scale),
        "lowerbound" => lowerbound_exps::lowerbound(scale),
        "sparsifier" => sparsifier_exps::sparsifier(scale),
        "ss08" => sparsifier_exps::ss08(scale),
        "sparse-recovery" => sketch_exps::sparse_recovery(scale),
        "distinct" => sketch_exps::distinct(scale),
        "agm-forest" => {
            sketch_exps::agm_forest(scale);
        }
        "weighted" => spanner_exps::weighted(scale),
        "baseline-compare" => spanner_exps::baseline_compare(scale),
        "connectivity-estimates" => sparsifier_exps::connectivity_estimates(scale),
        "ablation-budget" => spanner_exps::ablation_budget(scale),
        "ablation-levels" => spanner_exps::ablation_levels(scale),
        _ => return false,
    }
    true
}
