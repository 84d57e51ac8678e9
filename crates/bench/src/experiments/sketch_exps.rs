//! Experiments E10–E12: the sketching substrates (Theorems 8, 9, 10).

use crate::Scale;
use dsg_agm::AgmSketch;
use dsg_graph::components::is_spanning_forest;
use dsg_graph::{gen, GraphStream};
use dsg_sketch::{DistinctEstimator, SparseRecovery};
use dsg_util::{space::human_bytes, stats::success_rate, SpaceUsage, Table};

/// E10 (Theorem 8's role): `SKETCH_B` exact-recovery rate vs support size.
pub fn sparse_recovery(scale: Scale) {
    println!("\n## E10 — SKETCH_B decode success vs support (budget B = 16)\n");
    let budget = 16;
    let trials = scale.pick(300u64, 100);
    let mut t = Table::new(&[
        "support",
        "success rate",
        "false decodes",
        "bytes (nominal)",
    ]);
    for support in [4usize, 8, 16, 24, 32, 48, 64, 96, 128] {
        let mut outcomes = Vec::new();
        let mut false_decodes = 0usize;
        let mut nominal = 0usize;
        for seed in 0..trials {
            let mut sk = SparseRecovery::new(budget, seed * 31 + support as u64);
            for i in 0..support as u64 {
                sk.update(i * 7919 + seed, 1 + (i as i128 % 3));
            }
            nominal = sk.nominal_bytes();
            match sk.decode() {
                Ok(items) => {
                    if items.len() == support {
                        outcomes.push(true);
                    } else {
                        false_decodes += 1;
                        outcomes.push(false);
                    }
                }
                Err(_) => outcomes.push(false),
            }
        }
        t.add_row(&[
            support.to_string(),
            format!("{:.3}", success_rate(outcomes)),
            false_decodes.to_string(),
            human_bytes(nominal),
        ]);
    }
    println!("{t}");
    println!("(success should be ~1.0 at or below B and collapse above it, failures detected)\n");
}

/// E11 (Theorem 9's role): distinct-elements accuracy vs space.
pub fn distinct(scale: Scale) {
    println!("\n## E11 — distinct elements: relative error vs sketch size\n");
    let true_support = scale.pick(50_000u64, 10_000);
    let trials = scale.pick(10u64, 4);
    let mut t = Table::new(&["eps param", "reps", "mean rel err", "max rel err", "bytes"]);
    for (eps, reps) in [(1.0, 5usize), (0.5, 7), (0.25, 9)] {
        let mut errs = Vec::new();
        let mut bytes = 0usize;
        for seed in 0..trials {
            let mut d = DistinctEstimator::new(20, eps, reps, seed * 13 + 1);
            for i in 0..true_support {
                d.update(i * 3 + 1, 1);
            }
            bytes = d.space_bytes();
            let est = d.estimate().expect("decodable") as f64;
            errs.push((est - true_support as f64).abs() / true_support as f64);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let max = errs.iter().cloned().fold(0.0f64, f64::max);
        t.add_row(&[
            format!("{eps:.2}"),
            reps.to_string(),
            format!("{mean:.3}"),
            format!("{max:.3}"),
            human_bytes(bytes),
        ]);
    }
    println!("{t}");
}

/// One row of E12: AGM forests over the trials at one `(n, churn)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestRow {
    /// Vertices.
    pub n: usize,
    /// Decoy insert/delete pairs per live edge.
    pub churn: f64,
    /// Share of trials whose decoded forest is a spanning forest.
    pub correct: f64,
    /// Sampler decode failures summed over the trials.
    pub decode_failures: usize,
    /// Bytes of the touched sketch cells (last trial).
    pub touched_bytes: usize,
    /// Nominal sketch bytes (last trial).
    pub nominal_bytes: usize,
}

/// E12 (Theorem 10): AGM spanning forests under deletion churn. Prints
/// the table and returns its rows.
pub fn agm_forest(scale: Scale) -> Vec<ForestRow> {
    println!("\n## E12 — AGM spanning forest correctness under churn\n");
    let ns: &[usize] = scale.pick(&[64, 128, 256][..], &[64, 128][..]);
    let trials = scale.pick(10u64, 4);
    let mut rows = Vec::new();
    for &n in ns {
        for churn in [0.0, 1.0, 3.0] {
            let mut correct = Vec::new();
            let mut row = ForestRow {
                n,
                churn,
                correct: 0.0,
                decode_failures: 0,
                touched_bytes: 0,
                nominal_bytes: 0,
            };
            for seed in 0..trials {
                let g = gen::erdos_renyi(n, 6.0 / n as f64, seed * 17 + n as u64);
                let stream = GraphStream::with_churn(&g, churn, seed * 19 + 3);
                let mut sk = AgmSketch::new(n, seed * 23 + 5);
                for up in stream.updates() {
                    sk.update(up.edge, up.delta as i128);
                }
                row.touched_bytes = sk.space_bytes();
                row.nominal_bytes = sk.nominal_bytes();
                let f = sk.spanning_forest();
                row.decode_failures += f.decode_failures;
                correct.push(is_spanning_forest(&g, &f.edges));
            }
            row.correct = success_rate(correct);
            rows.push(row);
        }
    }
    let mut t = Table::new(&[
        "n",
        "churn",
        "correct forests",
        "decode failures",
        "bytes (touched)",
        "bytes (nominal)",
    ]);
    for r in &rows {
        t.add_row(&[
            r.n.to_string(),
            format!("{:.0}x", r.churn),
            format!("{:.2}", r.correct),
            r.decode_failures.to_string(),
            human_bytes(r.touched_bytes),
            human_bytes(r.nominal_bytes),
        ]);
    }
    println!("{t}");
    rows
}
