//! Answer verification: every served answer checked against an exact
//! recompute off the sealed segment it was served from.
//!
//! Every served answer carries a contract, and each artifact behind it
//! is built once per epoch from that epoch's sealed segment: the distance
//! oracle answers within stretch `2k − 1` ([`GraphConfig::oracle_stretch`];
//! it is the Baswana–Sen spanner of the segment, and Baswana–Sen is Las
//! Vegas, so the bound always holds), while the forest and cut values are
//! exact (union–find and the Laplacian of the same segment). No honest
//! answer can fail its check, so a violation is a bug — corrupt state or
//! a wrong artifact — never bad luck. The checks: `exact ≤ served ≤
//! (2k − 1) · exact` for distances, equality for cuts, components and
//! stats.
//!
//! [`self_audit`] runs one fixed battery over a snapshot. `dsg-store`
//! runs it after recovery, so every `TenantRecovery` carries a
//! [`QualityVerdict`], and the admin endpoint runs it on each tenant's
//! current snapshot per `/qualityz` scrape. The recompute is cheap
//! because the sealed segment is O(live graph), not O(stream length):
//! an exact BFS / union–find / Laplacian cut over
//! [`NetMultiset::final_graph`] costs one pass over current edges.
//!
//! [`GraphConfig::oracle_stretch`]: crate::GraphConfig::oracle_stretch
//! [`NetMultiset::final_graph`]: dsg_graph::NetMultiset::final_graph

use crate::epoch::EpochSnapshot;
use crate::query::{Query, Response};
use dsg_graph::bfs::{bfs_distances, UNREACHABLE};
use dsg_graph::components::connected_components;
use dsg_graph::Vertex;
use dsg_sparsifier::Laplacian;
use std::collections::HashMap;
use std::sync::Arc;

/// The verdict of one audited answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFinding {
    /// Whether the served answer broke its guarantee.
    pub violation: bool,
    /// Observed deviation in parts per thousand: the stretch ratio above
    /// 1 for distances, the relative error for cuts and counts, and
    /// 0/1000 for boolean disagreements.
    pub error_permille: u64,
    /// Human-readable one-liner (what was served vs what is exact).
    pub detail: String,
}

/// Integer-only quality verdict (exact-equality friendly) of one
/// [`self_audit`]: carried by `dsg_store::TenantRecovery` and rendered
/// per tenant by `/qualityz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QualityVerdict {
    /// Queries audited.
    pub samples: u64,
    /// Guarantee violations among them.
    pub violations: u64,
}

impl QualityVerdict {
    /// Whether every audited answer met its guarantee.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Memoized exact-recompute artifacts for one epoch snapshot: the
/// `final_graph` materialization (O(live graph) thanks to compaction) is
/// paid once, and component labels, per-source exact BFS rows and the
/// Laplacian are each computed at most once, however many answers of
/// the same epoch are verified against it.
pub struct ExactCache {
    snap: Arc<EpochSnapshot>,
    graph: dsg_graph::Graph,
    adj: dsg_graph::graph::Adjacency,
    labels: Option<Vec<Vertex>>,
    rows: HashMap<Vertex, Vec<u32>>,
    laplacian: Option<Laplacian>,
}

impl ExactCache {
    /// Materializes the exact graph for `snap`; everything else is lazy.
    pub fn new(snap: Arc<EpochSnapshot>) -> Self {
        let graph = snap.net_edges().final_graph();
        let adj = graph.adjacency();
        Self {
            snap,
            graph,
            adj,
            labels: None,
            rows: HashMap::new(),
            laplacian: None,
        }
    }

    /// Smallest-vertex component labels of the exact graph.
    fn labels(&mut self) -> &[Vertex] {
        if self.labels.is_none() {
            self.labels = Some(connected_components(&self.graph));
        }
        self.labels.as_deref().unwrap_or_default()
    }

    /// Exact BFS distance row from `u`, memoized per source.
    fn row(&mut self, u: Vertex) -> &[u32] {
        self.rows
            .entry(u)
            .or_insert_with(|| bfs_distances(&self.adj, u))
    }

    fn laplacian(&mut self) -> &Laplacian {
        if self.laplacian.is_none() {
            self.laplacian = Some(Laplacian::from_graph(&self.graph));
        }
        self.laplacian
            .as_ref()
            .expect("laplacian was just inserted")
    }
}

/// Verifies one served answer against an exact recompute off the
/// snapshot's sealed net segment, memoizing shared work in `cache`
/// (which must be built from the answering snapshot). Returns `None`
/// only for responses that do not correspond to the query variant.
pub fn verify_cached(
    cache: &mut ExactCache,
    query: &Query,
    response: &Response,
) -> Option<AuditFinding> {
    match (query, response) {
        (Query::Connectivity, Response::Connectivity { num_components, .. }) => {
            let exact = cache
                .labels()
                .iter()
                .enumerate()
                .filter(|&(i, &l)| l == i as Vertex)
                .count();
            Some(boolean_finding(
                *num_components == exact,
                format!("components: served {num_components}, exact {exact}"),
            ))
        }
        (Query::SameComponent(u, v), Response::SameComponent(served)) => {
            let labels = cache.labels();
            let exact = labels.get(*u as usize) == labels.get(*v as usize);
            Some(boolean_finding(
                *served == exact,
                format!("same_component({u},{v}): served {served}, exact {exact}"),
            ))
        }
        (Query::Distance(u, v), Response::Distance(served)) => {
            Some(verify_distance(cache, *u, *v, *served))
        }
        (Query::IsFar { u, v, threshold }, Response::IsFar(served)) => {
            Some(verify_is_far(cache, *u, *v, *threshold, *served))
        }
        (Query::CutEstimate(side), Response::CutEstimate(served)) => {
            Some(verify_cut(cache, side, *served))
        }
        (Query::Stats, Response::Stats(stats)) => Some(boolean_finding(
            stats.epoch == cache.snap.epoch() && stats.total_updates == cache.snap.total_updates(),
            format!(
                "stats: served epoch {} at {} updates, snapshot epoch {} at {}",
                stats.epoch,
                stats.total_updates,
                cache.snap.epoch(),
                cache.snap.total_updates()
            ),
        )),
        _ => None,
    }
}

/// One-shot convenience over [`verify_cached`]: builds a throwaway
/// [`ExactCache`] for `snap`. Fine for single verifications; a battery
/// over one epoch ([`self_audit`]) keeps a cache across calls instead.
pub fn verify_answer(
    snap: &Arc<EpochSnapshot>,
    query: &Query,
    response: &Response,
) -> Option<AuditFinding> {
    verify_cached(&mut ExactCache::new(Arc::clone(snap)), query, response)
}

fn boolean_finding(agree: bool, detail: String) -> AuditFinding {
    AuditFinding {
        violation: !agree,
        error_permille: if agree { 0 } else { 1000 },
        detail,
    }
}

/// The oracle contract is a sandwich: `exact ≤ served ≤ (2k − 1) · exact`,
/// with reachability agreeing exactly (the spanner is a subgraph).
fn verify_distance(
    cache: &mut ExactCache,
    u: Vertex,
    v: Vertex,
    served: Option<u32>,
) -> AuditFinding {
    let stretch = cache.snap.config().oracle_stretch();
    let exact = cache.row(u).get(v as usize).copied().unwrap_or(UNREACHABLE);
    match (exact, served) {
        (UNREACHABLE, None) => AuditFinding {
            violation: false,
            error_permille: 0,
            detail: format!("distance({u},{v}): both unreachable"),
        },
        (UNREACHABLE, Some(est)) => AuditFinding {
            violation: true,
            error_permille: 1000,
            detail: format!("distance({u},{v}): served {est}, exactly unreachable"),
        },
        (d, None) => AuditFinding {
            violation: true,
            error_permille: 1000,
            detail: format!("distance({u},{v}): served unreachable, exactly {d}"),
        },
        (d, Some(est)) => {
            let violation = (est as u64) < d as u64 || est as u64 > stretch * d as u64;
            // Stretch above exact, in permille (0 when est == exact).
            let error_permille = if d == 0 {
                u64::from(est != 0) * 1000
            } else {
                ((est as u64 * 1000) / d as u64).saturating_sub(1000)
            };
            AuditFinding {
                violation,
                error_permille,
                detail: format!("distance({u},{v}): served {est}, exact {d}, stretch ≤ {stretch}"),
            }
        }
    }
}

/// `IsFar` inherits the oracle sandwich: a `false` implies
/// `exact ≤ threshold`; a `true` implies `(2k − 1) · exact > threshold`
/// (the estimate that exceeded the threshold is itself
/// ≤ `(2k − 1) · exact`).
fn verify_is_far(
    cache: &mut ExactCache,
    u: Vertex,
    v: Vertex,
    threshold: u32,
    served: bool,
) -> AuditFinding {
    let stretch = cache.snap.config().oracle_stretch();
    let exact = cache.row(u).get(v as usize).copied().unwrap_or(UNREACHABLE);
    let ok = if served {
        exact == UNREACHABLE || stretch * exact as u64 > threshold as u64
    } else {
        exact != UNREACHABLE && exact as u64 <= threshold as u64
    };
    boolean_finding(
        ok,
        format!("is_far({u},{v},{threshold}): served {served}, exact distance {exact}"),
    )
}

/// Served cuts are read off the Laplacian of the same sealed segment the
/// audit rebuilds, so anything but equality is a bug.
fn verify_cut(cache: &mut ExactCache, side: &[Vertex], served: f64) -> AuditFinding {
    let mut in_side = vec![false; cache.graph.num_vertices()];
    for &v in side {
        if let Some(slot) = in_side.get_mut(v as usize) {
            *slot = true;
        }
    }
    let exact = cache.laplacian().cut_value(&in_side);
    let error = if exact <= f64::EPSILON {
        served.abs()
    } else {
        (served - exact).abs() / exact
    };
    AuditFinding {
        violation: served != exact,
        error_permille: (error * 1000.0) as u64,
        detail: format!(
            "cut(|side|={}): served {served:.3}, exact {exact:.3}",
            side.len()
        ),
    }
}

/// One forced audit pass over a snapshot: a deterministic six-query
/// battery that exercises the forest, the distance oracle, the cut
/// Laplacian and the stats probe, and verifies each answer exactly. The
/// first call on an epoch builds whichever of its artifacts no query has
/// built yet, once each, as the first query would; the cut costs one
/// O(live edges) Laplacian build.
pub fn self_audit(snap: &Arc<EpochSnapshot>) -> QualityVerdict {
    let n = snap.num_vertices() as Vertex;
    let far = n.saturating_sub(1);
    let battery = [
        Query::Connectivity,
        Query::SameComponent(0, far),
        Query::Distance(0, far),
        Query::IsFar {
            u: 0,
            v: far,
            threshold: 2,
        },
        Query::CutEstimate((0..n / 2).collect()),
        Query::Stats,
    ];
    let mut cache = ExactCache::new(Arc::clone(snap));
    let mut verdict = QualityVerdict::default();
    for query in battery {
        let Ok(response) = snap.execute(&query) else {
            continue;
        };
        if let Some(finding) = verify_cached(&mut cache, &query, &response) {
            verdict.samples += 1;
            verdict.violations += u64::from(finding.violation);
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)] // test code may unwrap freely

    use super::*;
    use crate::{GraphConfig, GraphRegistry};
    use dsg_graph::StreamUpdate;

    fn registry_with_path(n: usize) -> GraphRegistry {
        let registry = GraphRegistry::new();
        let g = registry
            .create("g", GraphConfig::new(n).seed(5).shards(2))
            .unwrap();
        let updates: Vec<StreamUpdate> = (0..n as Vertex - 1)
            .map(|v| StreamUpdate::insert(v, v + 1))
            .collect();
        g.apply(&updates).unwrap();
        g.advance_epoch();
        registry
    }

    #[test]
    fn honest_answers_audit_clean() {
        let registry = registry_with_path(24);
        let snap = registry.get("g").unwrap().snapshot();
        let verdict = self_audit(&snap);
        assert!(verdict.samples >= 6, "battery must run: {verdict:?}");
        assert!(verdict.clean(), "honest snapshot must audit clean");
    }

    #[test]
    fn wrong_answers_are_violations() {
        let registry = registry_with_path(16);
        let snap = registry.get("g").unwrap().snapshot();
        // Wrong connectivity: the path has exactly one component.
        let f = verify_answer(
            &snap,
            &Query::Connectivity,
            &Response::Connectivity {
                connected: false,
                num_components: 3,
            },
        )
        .unwrap();
        assert!(f.violation);
        // Underestimated distance breaks the subgraph lower bound.
        let f =
            verify_answer(&snap, &Query::Distance(0, 15), &Response::Distance(Some(1))).unwrap();
        assert!(f.violation, "{f:?}");
        // A sane distance passes.
        let f = verify_answer(
            &snap,
            &Query::Distance(0, 15),
            &Response::Distance(Some(15)),
        )
        .unwrap();
        assert!(!f.violation, "{f:?}");
        assert_eq!(f.error_permille, 0);
        // Absurd cut value trips the equality check.
        let f = verify_answer(
            &snap,
            &Query::CutEstimate(vec![0, 1, 2]),
            &Response::CutEstimate(900.0),
        )
        .unwrap();
        assert!(f.violation, "{f:?}");
    }

    #[test]
    fn distance_beyond_2k_minus_1_is_a_violation() {
        // At k = 2 the oracle contract is stretch 2k − 1 = 3: a served
        // 4·d is inside the paper's 2^k but outside the contract.
        let registry = registry_with_path(16);
        let snap = registry.get("g").unwrap().snapshot();
        assert_eq!(snap.config().spanner_k, 2);
        let distance = |served: u32| {
            verify_answer(
                &snap,
                &Query::Distance(0, 3),
                &Response::Distance(Some(served)),
            )
            .unwrap()
        };
        assert!(!distance(9).violation, "3·d is inside 2k − 1");
        let f = distance(12);
        assert!(f.violation, "4·d must be a violation: {f:?}");
        assert_eq!(f.error_permille, 3000);
        // `IsFar` inherits the bound: exact distance 3, so a `true` is
        // only allowed below threshold 3·3 = 9.
        let is_far = |threshold: u32| {
            verify_answer(
                &snap,
                &Query::IsFar {
                    u: 0,
                    v: 3,
                    threshold,
                },
                &Response::IsFar(true),
            )
            .unwrap()
        };
        assert!(!is_far(8).violation);
        assert!(is_far(10).violation, "4·d > 10 but 3·d is not");
    }

    #[test]
    fn cut_off_by_half_is_a_violation() {
        // Served cuts are exact, so 1.5× the exact value is a violation
        // even though it is well inside a ×3 sandwich.
        let registry = registry_with_path(16);
        let snap = registry.get("g").unwrap().snapshot();
        let cut = |served: f64| {
            verify_answer(
                &snap,
                &Query::CutEstimate(vec![0, 1, 2]),
                &Response::CutEstimate(served),
            )
            .unwrap()
        };
        // The path crosses {0, 1, 2} on one edge (2, 3).
        let exact = cut(1.0);
        assert!(!exact.violation, "{exact:?}");
        assert_eq!(exact.error_permille, 0);
        let f = cut(1.5);
        assert!(f.violation, "{f:?}");
        assert_eq!(f.error_permille, 500);
    }

    #[test]
    fn self_audit_catches_a_poisoned_oracle_row() {
        // A row of zeros serves distance 0 for every target, below the
        // exact distance: the battery's distance and far/near probes
        // both break their contract.
        let registry = registry_with_path(16);
        let snap = registry.get("g").unwrap().snapshot();
        snap.oracle().poison_cached_row(0, vec![0; 16]);
        let verdict = self_audit(&snap);
        assert_eq!(verdict.samples, 6, "{verdict:?}");
        assert_eq!(verdict.violations, 2, "{verdict:?}");
        // Stats that disagree with their own snapshot are a violation too.
        let Response::Stats(mut stats) = snap.execute(&Query::Stats).unwrap() else {
            panic!("wrong response variant");
        };
        stats.total_updates += 1;
        let f = verify_answer(&snap, &Query::Stats, &Response::Stats(stats)).unwrap();
        assert!(f.violation, "{f:?}");
    }
}
