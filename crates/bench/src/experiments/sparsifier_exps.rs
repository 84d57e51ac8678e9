//! Experiments E8, E9, E15: spectral sparsification (Corollary 2, the SS08
//! baseline of Theorem 7, and Lemma 22's connectivity estimates).

use crate::Scale;
use dsg_graph::{gen, GraphStream};
use dsg_sparsifier::estimate::{ConnectivityEstimator, EstimateParams, NestedSamplers};
use dsg_sparsifier::kp12::measure_quality;
use dsg_sparsifier::{
    cut, resistance, spectral, ss08, Laplacian, SparsifierParams, TwoPassSparsifier,
};
use dsg_util::{space::human_bytes, Table};

/// E8 (Corollary 2): exact spectral eps of the two-pass streaming
/// sparsifier vs sampling-round budget.
pub fn sparsifier(scale: Scale) {
    println!("\n## E8 — two-pass streaming sparsifier: eps vs sampling rounds\n");
    let n = scale.pick(32, 24);
    let g = gen::complete(n);
    println!(
        "input: K_{n} ({} edges), streamed with churn\n",
        g.num_edges()
    );
    let mut t = Table::new(&[
        "z_factor",
        "rounds Z",
        "instances",
        "edges",
        "exact eps",
        "cut dev",
        "sketch bytes",
    ]);
    let z_factors: &[f64] = scale.pick(&[0.02, 0.05, 0.1, 0.2][..], &[0.02, 0.08][..]);
    for &z_factor in z_factors {
        let mut params = SparsifierParams::new(2, 0.5, 77);
        params.z_factor = z_factor;
        params.j_factor = 0.4;
        let net = GraphStream::with_churn(&g, 0.5, 83).net_multiset();
        let out = TwoPassSparsifier::build(&net, params)
            .into_output()
            .expect("both passes ran");
        let q = measure_quality(&g, &out.sparsifier);
        let cut_dev = cut::max_cut_deviation(
            &Laplacian::from_graph(&g),
            &Laplacian::from_weighted(&out.sparsifier),
            200,
            89,
        );
        t.add_row(&[
            format!("{z_factor:.2}"),
            params.z_rounds(n).to_string(),
            (out.stats.estimate_instances + out.stats.sample_instances).to_string(),
            q.edges.to_string(),
            format!("{:.3}", q.epsilon),
            format!("{cut_dev:.3}"),
            human_bytes(out.stats.sketch_bytes),
        ]);
    }
    println!("{t}");
    println!("(eps should fall as Z grows — Lemma 22's averaging; size grows accordingly)\n");
}

/// E9 (Theorem 7): the SS08 effective-resistance baseline.
pub fn ss08(scale: Scale) {
    println!("\n## E9 — SS08 baseline: resistance sampling quality\n");
    let n = scale.pick(64, 40);
    let g = gen::with_random_weights(&gen::complete(n), 1.0, 1.0, 91);
    let mut t = Table::new(&["eps target", "oversample", "edges", "of m", "exact eps"]);
    for (eps, oversample) in [(0.8, 0.5), (0.5, 0.5), (0.3, 1.0)] {
        let h = ss08::sparsify(&g, eps, oversample, 97);
        let measured = spectral::spectral_epsilon(
            &Laplacian::from_weighted(&g),
            &Laplacian::from_weighted(&h),
        );
        t.add_row(&[
            format!("{eps:.1}"),
            format!("{oversample:.1}"),
            h.num_edges().to_string(),
            format!(
                "{:.1}%",
                100.0 * h.num_edges() as f64 / g.num_edges() as f64
            ),
            format!("{measured:.3}"),
        ]);
    }
    println!("{t}");
}

/// E15 (Lemma 22 / equation (1)): `q̂(e)` vs exact effective resistance.
pub fn connectivity_estimates(scale: Scale) {
    println!("\n## E15 — robust connectivity estimates q̂ vs effective resistance\n");
    let clique = scale.pick(12, 8);
    let g = gen::barbell(clique, 2);
    let n = g.num_vertices();
    println!("input: barbell of two K_{clique} with a 2-edge bridge (n={n})\n");
    let k = 2;
    let params = EstimateParams::for_graph(n, 1 << k);
    let samplers = NestedSamplers::new(params.j_reps, params.t_levels, 101);
    let est = ConnectivityEstimator::from_graph_offline(&g, params, &samplers, k, 103);
    let l = Laplacian::from_graph(&g);
    // Bucket edges by resistance and report mean q̂ per bucket.
    let mut rows: Vec<(f64, f64)> = resistance::all_edge_resistances(&l)
        .into_iter()
        .map(|(e, _, r)| (r, est.query(e)))
        .collect();
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let mut t = Table::new(&[
        "R_e bucket",
        "edges",
        "mean q-hat",
        "min q-hat",
        "max q-hat",
    ]);
    let buckets = [(0.0, 0.25), (0.25, 0.75), (0.75, 1.01)];
    for (lo, hi) in buckets {
        let sel: Vec<f64> = rows
            .iter()
            .filter(|(r, _)| *r >= lo && *r < hi)
            .map(|(_, q)| *q)
            .collect();
        if sel.is_empty() {
            continue;
        }
        let mean = sel.iter().sum::<f64>() / sel.len() as f64;
        let min = sel.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sel.iter().cloned().fold(0.0f64, f64::max);
        t.add_row(&[
            format!("[{lo:.2}, {hi:.2})"),
            sel.len().to_string(),
            format!("{mean:.4}"),
            format!("{min:.4}"),
            format!("{max:.4}"),
        ]);
    }
    println!("{t}");
    println!("(q̂ must grow with R_e — equation (1): q̂(e) = Ω(R_e / λ^2))\n");
}
