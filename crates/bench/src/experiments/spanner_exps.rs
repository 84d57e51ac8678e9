//! Experiments E1–E5, E13, E14, E16, E17: the two-pass multiplicative
//! spanner (Theorem 1 and its supporting lemmas/claims), weighted reduction
//! and ablations.

use crate::Scale;
use dsg_graph::{gen, Graph, GraphStream};
use dsg_spanner::cluster::NodeId;
use dsg_spanner::{baswana_sen, offline, twopass, verify, SpannerParams, TwoPassSpanner};
use dsg_util::{space::human_bytes, Table};
use std::collections::HashSet;

/// A test graph dense enough that spanner size, not input size, binds:
/// `m ≈ min(C(n,2), 6 n^{1.5})` edges.
fn dense_input(n: usize, seed: u64) -> Graph {
    let max_m = n * (n - 1) / 2;
    let m = ((6.0 * (n as f64).powf(1.5)) as usize).min(max_m);
    gen::gnm(n, m, seed)
}

/// Both passes over the net effect of `stream` (bit-identical to
/// replaying it, space figures included).
fn build(stream: &GraphStream, params: SpannerParams) -> twopass::TwoPassOutput {
    TwoPassSpanner::build(&stream.net_multiset(), params)
        .into_output()
        .expect("both passes ran")
}

fn run_spanner(g: &Graph, k: usize, seed: u64) -> twopass::TwoPassOutput {
    let stream = GraphStream::with_churn(g, 1.0, seed ^ 0xC0FFEE);
    build(&stream, SpannerParams::new(k, seed))
}

/// E1 (Lemma 12): spanner size vs the `O(k n^{1+1/k} log n)` bound.
pub fn spanner_size(scale: Scale) {
    println!("\n## E1 — spanner size vs Lemma 12 bound `k n^(1+1/k) log2 n`\n");
    let ns: &[usize] = scale.pick(&[64, 128, 256, 512][..], &[64, 128][..]);
    let mut t = Table::new(&["n", "k", "m", "spanner", "bound", "ratio"]);
    for &n in ns {
        for k in [1usize, 2, 3] {
            let g = dense_input(n, 7 + n as u64);
            let out = run_spanner(&g, k, 100 + k as u64);
            let bound = k as f64 * (n as f64).powf(1.0 + 1.0 / k as f64) * (n as f64).log2();
            t.add_row(&[
                n.to_string(),
                k.to_string(),
                g.num_edges().to_string(),
                out.spanner.num_edges().to_string(),
                format!("{bound:.0}"),
                format!("{:.3}", out.spanner.num_edges() as f64 / bound),
            ]);
        }
    }
    println!("{t}");
}

/// One row of E2: stretch of the two-pass spanner over the trials at
/// one `(n, k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchRow {
    /// Vertices.
    pub n: usize,
    /// Hierarchy depth; the guarantee is stretch `2^k`.
    pub k: usize,
    /// Largest measured stretch over the trials.
    pub max_stretch: f64,
    /// Mean measured stretch over the trials.
    pub mean_stretch: f64,
    /// Trials whose stretch exceeded `2^k`.
    pub violations: usize,
}

/// E2 (Lemma 13 / Theorem 1): measured stretch vs the `2^k` guarantee.
/// Prints the table and returns its rows.
pub fn spanner_stretch(scale: Scale) -> Vec<StretchRow> {
    println!("\n## E2 — multiplicative stretch vs the 2^k guarantee\n");
    let ns: &[usize] = scale.pick(&[64, 128, 256][..], &[64, 96][..]);
    let trials = scale.pick(5, 2);
    let mut rows = Vec::new();
    for &n in ns {
        for k in [1usize, 2, 3] {
            let mut max_stretch: f64 = 1.0;
            let mut sum = 0.0;
            let mut violations = 0;
            for trial in 0..trials {
                let g = gen::erdos_renyi(n, 12.0 / n as f64, 50 + trial);
                let out = run_spanner(&g, k, 200 + trial * 7 + k as u64);
                let s = verify::max_multiplicative_stretch(&g, &out.spanner, n.min(80));
                if s > (1u64 << k) as f64 {
                    violations += 1;
                }
                max_stretch = max_stretch.max(s);
                sum += s;
            }
            rows.push(StretchRow {
                n,
                k,
                max_stretch,
                mean_stretch: sum / trials as f64,
                violations,
            });
        }
    }
    let mut t = Table::new(&["n", "k", "2^k", "max stretch", "mean stretch", "violations"]);
    for r in &rows {
        t.add_row(&[
            r.n.to_string(),
            r.k.to_string(),
            (1u64 << r.k).to_string(),
            format!("{:.2}", r.max_stretch),
            format!("{:.2}", r.mean_stretch),
            r.violations.to_string(),
        ]);
    }
    println!("{t}");
    rows
}

/// E3 (Theorem 1): measured sketch bytes vs `n^{1+1/k}` scaling; pass
/// count is 2 by construction.
pub fn spanner_space(scale: Scale) {
    println!("\n## E3 — two-pass space vs the ~O(n^(1+1/k)) shape\n");
    let ns: &[usize] = scale.pick(&[64, 128, 256, 512][..], &[64, 128][..]);
    let k = 2;
    let mut t = Table::new(&[
        "n",
        "pass1 bytes",
        "pass2 bytes",
        "n^(1+1/k)",
        "pass1 / shape",
        "pass2 / shape",
    ]);
    for &n in ns {
        let g = dense_input(n, 11 + n as u64);
        let out = run_spanner(&g, k, 300 + n as u64);
        let shape = (n as f64).powf(1.0 + 1.0 / k as f64);
        t.add_row(&[
            n.to_string(),
            human_bytes(out.stats.pass1_bytes),
            human_bytes(out.stats.pass2_bytes),
            format!("{shape:.0}"),
            format!("{:.1}", out.stats.pass1_bytes as f64 / shape),
            format!("{:.1}", out.stats.pass2_bytes as f64 / shape),
        ]);
    }
    println!("{t}");
    println!("(ratios should stay near-constant as n doubles — polylog drift is expected)\n");
}

/// E4 (Claim 11): terminal neighborhood sizes vs `(C log n) n^{(i+1)/k}`.
pub fn cluster_expansion(scale: Scale) {
    println!("\n## E4 — terminal neighborhoods |N(T_u)| vs Claim 11 bound\n");
    let n = scale.pick(256, 96);
    let k = 3;
    // A sparse graph produces terminals at every level (dense graphs only
    // terminate at the top).
    let g = gen::erdos_renyi(n, 3.0 / n as f64, 13);
    let out = run_spanner(&g, k, 400);
    let adj = g.adjacency();
    let mut t = Table::new(&[
        "level i",
        "terminals",
        "max |N(T_u)|",
        "bound log2(n)*n^((i+1)/k)",
    ]);
    for i in 0..k {
        let mut max_nbhd = 0usize;
        let mut count = 0usize;
        for node in out.forest.terminals() {
            if node.level as usize != i {
                continue;
            }
            count += 1;
            let members: HashSet<u32> = out.forest.members(node).into_iter().collect();
            let mut nbhd: HashSet<u32> = HashSet::new();
            for &m in &members {
                for &w in adj.neighbors(m) {
                    if !members.contains(&w) {
                        nbhd.insert(w);
                    }
                }
            }
            max_nbhd = max_nbhd.max(nbhd.len());
        }
        let bound = (n as f64).log2() * (n as f64).powf((i + 1) as f64 / k as f64);
        t.add_row(&[
            i.to_string(),
            count.to_string(),
            max_nbhd.to_string(),
            format!("{bound:.0}"),
        ]);
    }
    println!("{t}");
}

/// One row of E5: the witness trees of one clustering level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiameterRow {
    /// Clustering level `i`.
    pub level: usize,
    /// Cluster centers at this level.
    pub clusters: usize,
    /// Largest witness-tree diameter.
    pub max_diameter: u32,
    /// Lemma 13's bound `2^{i+1} − 2`.
    pub bound: u64,
    /// Clusters above the bound, or without a witness tree.
    pub violations: usize,
}

/// E5 (Lemma 13 induction): cluster diameters vs `2^{i+1} - 2`. Prints
/// the table and returns its rows.
pub fn cluster_diameter(scale: Scale) -> Vec<DiameterRow> {
    println!("\n## E5 — witness-tree diameters vs Lemma 13's 2^(i+1)-2\n");
    let n = scale.pick(256, 96);
    let k = 3;
    let g = dense_input(n, 17);
    let out = run_spanner(&g, k, 500);
    let mut rows = Vec::new();
    for level in 0..k {
        let bound = (1u64 << (level + 1)) - 2;
        let mut row = DiameterRow {
            level,
            clusters: 0,
            max_diameter: 0,
            bound,
            violations: 0,
        };
        for u in out.forest.centers_at(level).collect::<Vec<_>>() {
            row.clusters += 1;
            match out.forest.witness_diameter(NodeId::new(level, u)) {
                Some(d) => {
                    row.max_diameter = row.max_diameter.max(d);
                    if d as u64 > bound {
                        row.violations += 1;
                    }
                }
                None => row.violations += 1,
            }
        }
        rows.push(row);
    }
    let mut t = Table::new(&[
        "level i",
        "clusters",
        "max diameter",
        "bound 2^(i+1)-2",
        "violations",
    ]);
    for r in &rows {
        t.add_row(&[
            r.level.to_string(),
            r.clusters.to_string(),
            r.max_diameter.to_string(),
            r.bound.to_string(),
            r.violations.to_string(),
        ]);
    }
    println!("{t}");
    rows
}

/// E13 (Remark 14): weighted graphs via geometric weight classes.
pub fn weighted(scale: Scale) {
    println!("\n## E13 — weighted spanners via weight classes (Remark 14)\n");
    let n = scale.pick(128, 64);
    let k = 2;
    let gamma = 0.5;
    let mut t = Table::new(&[
        "wmax/wmin",
        "classes",
        "stretch",
        "bound 2^k(1+g)",
        "edges",
        "m",
    ]);
    for ratio in [4.0, 64.0, 1024.0] {
        let g = gen::with_random_weights(&gen::erdos_renyi(n, 10.0 / n as f64, 19), 1.0, ratio, 23);
        let stream = GraphStream::weighted_with_churn(&g, 1.0, 29);
        let mut alg =
            dsg_spanner::WeightedTwoPassSpanner::new(n, gamma, SpannerParams::new(k, 600));
        dsg_graph::pass::run(&mut alg, &stream);
        let out = alg.into_output().expect("finished");
        let stretch = verify::max_weighted_stretch(&g, &out.spanner, n.min(64));
        t.add_row(&[
            format!("{ratio:.0}"),
            out.per_class.len().to_string(),
            format!("{stretch:.2}"),
            format!("{:.2}", (1u64 << k) as f64 * (1.0 + gamma)),
            out.spanner.num_edges().to_string(),
            g.num_edges().to_string(),
        ]);
    }
    println!("{t}");
}

/// E14: passes/stretch/size against the Baswana–Sen and offline baselines.
pub fn baseline_compare(scale: Scale) {
    println!("\n## E14 — two-pass 2^k vs Baswana–Sen (2k-1) vs offline basic algorithm\n");
    let n = scale.pick(256, 96);
    let g = dense_input(n, 31);
    let mut t = Table::new(&[
        "algorithm",
        "model",
        "passes",
        "stretch bound",
        "measured",
        "edges",
    ]);
    for k in [2usize, 3] {
        let stream_out = run_spanner(&g, k, 700 + k as u64);
        let s1 = verify::max_multiplicative_stretch(&g, &stream_out.spanner, n.min(80));
        t.add_row(&[
            format!("two-pass (k={k})"),
            "dynamic stream".to_string(),
            "2".to_string(),
            (1u64 << k).to_string(),
            format!("{s1:.2}"),
            stream_out.spanner.num_edges().to_string(),
        ]);
        let off = offline::build_spanner(&g, SpannerParams::new(k, 800 + k as u64));
        let s2 = verify::max_multiplicative_stretch(&g, &off.spanner, n.min(80));
        t.add_row(&[
            format!("offline basic (k={k})"),
            "offline".to_string(),
            "-".to_string(),
            (1u64 << k).to_string(),
            format!("{s2:.2}"),
            off.spanner.num_edges().to_string(),
        ]);
        let bs = baswana_sen::build_spanner(&g, k, 900 + k as u64);
        let s3 = verify::max_multiplicative_stretch(&g, &bs, n.min(80));
        t.add_row(&[
            format!("Baswana–Sen (k={k})"),
            "offline".to_string(),
            "-".to_string(),
            (2 * k - 1).to_string(),
            format!("{s3:.2}"),
            bs.num_edges().to_string(),
        ]);
    }
    println!("{t}");
}

/// E16 (ablation): pass-1 sketch decode budget `B`.
pub fn ablation_budget(scale: Scale) {
    println!("\n## E16 — ablation: pass-1 sketch budget B\n");
    let n = scale.pick(192, 96);
    let g = dense_input(n, 37);
    let mut t = Table::new(&[
        "budget B",
        "sketch fails",
        "table fails",
        "stretch",
        "edges",
        "pass1 bytes",
    ]);
    for budget in [2usize, 4, 8, 16] {
        let params = SpannerParams::new(2, 1000 + budget as u64).with_sketch_budget(budget);
        let stream = GraphStream::with_churn(&g, 1.0, 41);
        let out = build(&stream, params);
        let stretch = verify::max_multiplicative_stretch(&g, &out.spanner, n.min(64));
        t.add_row(&[
            budget.to_string(),
            out.stats.sketch_decode_failures.to_string(),
            out.stats.table_decode_failures.to_string(),
            format!("{stretch:.2}"),
            out.spanner.num_edges().to_string(),
            human_bytes(out.stats.pass1_bytes),
        ]);
    }
    println!("{t}");
}

/// E17 (ablation): number of edge-sampling levels `E_j`.
pub fn ablation_levels(scale: Scale) {
    println!("\n## E17 — ablation: edge-sampling levels (default log2 n^2)\n");
    let n = scale.pick(192, 96);
    let g = dense_input(n, 43);
    let full_levels = SpannerParams::new(2, 0).edge_levels(n);
    let mut t = Table::new(&["levels", "terminals", "sketch fails", "stretch", "edges"]);
    for levels in [3usize, 6, 10, full_levels] {
        let params = SpannerParams::new(2, 1100 + levels as u64).with_max_edge_levels(levels);
        let stream = GraphStream::with_churn(&g, 1.0, 47);
        let out = build(&stream, params);
        let stretch = verify::max_multiplicative_stretch(&g, &out.spanner, n.min(64));
        t.add_row(&[
            levels.to_string(),
            out.stats.num_terminals.to_string(),
            out.stats.sketch_decode_failures.to_string(),
            format!("{stretch:.2}"),
            out.spanner.num_edges().to_string(),
        ]);
    }
    println!("{t}");
}
