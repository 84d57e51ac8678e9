//! The exact model every served answer is checked against.
//!
//! Built from the harness's own record of the live edges (never from the
//! program's output): union-find components, breadth-first distances with
//! one memoized row per source, and exact cut sizes. Shares no code with
//! the crates under test.

use dsg_graph::{Edge, Vertex};
use dsg_service::{Query, Response};
use std::collections::HashMap;

/// A cut estimate may sit this factor above or below the exact cut — the
/// sandwich the program's own quality auditor enforces.
pub const CUT_SLACK: f64 = 3.0;

/// The sandwich is enforced on cuts of at least this many edges (three
/// times `cut_small`'s average degree). Below it KP12 at n=128 is not
/// reliable: over 14 seeds, 1 cut query in 2 000 — always one vertex
/// against the rest, 3 to 14 edges — came back under a third of the exact
/// value, while every cut of 16 edges or more stayed within ×[0.43, 1.63].
/// Smaller cuts still count in the error metrics, and must still be finite
/// and non-negative.
pub const MIN_CHECKED_CUT: f64 = 24.0;

const UNREACHED: u32 = u32::MAX;

/// What the served snapshot must report besides graph answers.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    /// Stretch guarantee `2^k` of the distance oracle.
    pub stretch: u32,
    /// Updates applied so far, which `Stats` must echo.
    pub total_updates: u64,
}

/// Result of checking one answer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Verdict {
    pub ok: bool,
    /// Served ÷ exact distance, for connected pairs at distance ≥ 1.
    pub stretch: Option<f64>,
    /// |served − exact| ÷ exact, for cuts with at least one crossing edge.
    pub cut_rel_err: Option<f64>,
}

impl Verdict {
    fn plain(ok: bool) -> Self {
        Self {
            ok,
            ..Self::default()
        }
    }
}

#[derive(Debug)]
pub struct Reference {
    n: usize,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<Vertex>>,
    labels: Vec<Vertex>,
    num_components: usize,
    rows: HashMap<Vertex, Vec<u32>>,
}

fn find(parent: &mut [Vertex], mut v: Vertex) -> Vertex {
    while parent[v as usize] != v {
        parent[v as usize] = parent[parent[v as usize] as usize];
        v = parent[v as usize];
    }
    v
}

impl Reference {
    /// The model of the simple graph holding exactly `edges` (each once).
    pub fn new(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let edges: Vec<Edge> = edges.into_iter().collect();
        let mut adjacency = vec![Vec::new(); n];
        let mut parent: Vec<Vertex> = (0..n as Vertex).collect();
        for e in &edges {
            adjacency[e.u() as usize].push(e.v());
            adjacency[e.v() as usize].push(e.u());
            let (a, b) = (find(&mut parent, e.u()), find(&mut parent, e.v()));
            if a != b {
                parent[a as usize] = b;
            }
        }
        let labels: Vec<Vertex> = (0..n as Vertex).map(|v| find(&mut parent, v)).collect();
        let num_components = (0..n).filter(|&v| labels[v] as usize == v).count();
        Self {
            n,
            edges,
            adjacency,
            labels,
            num_components,
            rows: HashMap::new(),
        }
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        self.labels[u as usize] == self.labels[v as usize]
    }

    /// Exact hop distance, `None` when disconnected.
    pub fn distance(&mut self, u: Vertex, v: Vertex) -> Option<u32> {
        let adjacency = &self.adjacency;
        let row = self.rows.entry(u).or_insert_with(|| {
            let mut dist = vec![UNREACHED; adjacency.len()];
            dist[u as usize] = 0;
            let mut queue = std::collections::VecDeque::from([u]);
            while let Some(x) = queue.pop_front() {
                for &y in &adjacency[x as usize] {
                    if dist[y as usize] == UNREACHED {
                        dist[y as usize] = dist[x as usize] + 1;
                        queue.push_back(y);
                    }
                }
            }
            dist
        });
        Some(row[v as usize]).filter(|&d| d != UNREACHED)
    }

    /// Exact number of edges with exactly one endpoint in `side`.
    pub fn cut(&self, side: &[Vertex]) -> f64 {
        let mut in_side = vec![false; self.n];
        for &v in side {
            in_side[v as usize] = true;
        }
        self.edges
            .iter()
            .filter(|e| in_side[e.u() as usize] != in_side[e.v() as usize])
            .count() as f64
    }

    /// Checks one served answer. An answer of the wrong variant, or one
    /// outside its guarantee, is a failed operation:
    /// connectivity must equal union-find; a distance must lie in
    /// `[d, stretch·d]` and be `None` exactly when disconnected; `IsFar`
    /// must agree with every estimate in that interval; a cut of at least
    /// [`MIN_CHECKED_CUT`] edges must lie inside the ×[`CUT_SLACK`]
    /// sandwich; `Stats` must echo the applied update count.
    pub fn check(&mut self, query: &Query, response: &Response, expect: Expect) -> Verdict {
        match (query, response) {
            (
                Query::Connectivity,
                Response::Connectivity {
                    connected,
                    num_components,
                },
            ) => Verdict::plain(
                *num_components == self.num_components && *connected == (self.num_components == 1),
            ),
            (Query::SameComponent(u, v), Response::SameComponent(same)) => {
                Verdict::plain(*same == self.same_component(*u, *v))
            }
            (Query::Distance(u, v), Response::Distance(served)) => {
                match (self.distance(*u, *v), served) {
                    (None, None) => Verdict::plain(true),
                    (Some(0), Some(0)) => Verdict::plain(true),
                    (Some(d), Some(s)) if d > 0 => Verdict {
                        ok: *s >= d && u64::from(*s) <= u64::from(expect.stretch) * u64::from(d),
                        stretch: Some(f64::from(*s) / f64::from(d)),
                        cut_rel_err: None,
                    },
                    _ => Verdict::plain(false),
                }
            }
            (Query::IsFar { u, v, threshold }, Response::IsFar(far)) => {
                let ok = match self.distance(*u, *v) {
                    None => *far,
                    Some(d) if d > *threshold => *far,
                    Some(d)
                        if u64::from(expect.stretch) * u64::from(d) <= u64::from(*threshold) =>
                    {
                        !*far
                    }
                    // The guarantee allows estimates on both sides of the
                    // threshold here.
                    Some(_) => true,
                };
                Verdict::plain(ok)
            }
            (Query::CutEstimate(side), Response::CutEstimate(served)) => {
                let exact = self.cut(side);
                let sandwiched =
                    *served <= CUT_SLACK * exact + 1e-9 && *served >= exact / CUT_SLACK - 1e-9;
                let ok =
                    served.is_finite() && *served >= 0.0 && (sandwiched || exact < MIN_CHECKED_CUT);
                Verdict {
                    ok,
                    stretch: None,
                    cut_rel_err: (exact > 0.0).then(|| (served - exact).abs() / exact),
                }
            }
            (Query::Stats, Response::Stats(stats)) => Verdict::plain(
                stats.num_vertices == self.n && stats.total_updates == expect.total_updates,
            ),
            _ => Verdict::plain(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path 0-1-2-3 plus the separate edge 4-5; vertex 6 isolated.
    fn model() -> Reference {
        let edges = [(0, 1), (1, 2), (2, 3), (4, 5)];
        Reference::new(7, edges.iter().map(|&(u, v)| Edge::new(u, v)))
    }

    const EXPECT: Expect = Expect {
        stretch: 4,
        total_updates: 4,
    };

    #[test]
    fn components_distances_and_cuts_are_exact() {
        let mut r = model();
        assert_eq!(r.num_components, 3);
        assert!(r.same_component(0, 3));
        assert!(!r.same_component(3, 4));
        assert_eq!(r.distance(0, 3), Some(3));
        assert_eq!(r.distance(0, 0), Some(0));
        assert_eq!(r.distance(0, 5), None);
        assert_eq!(r.cut(&[0, 1]), 1.0);
        assert_eq!(r.cut(&[1, 4]), 3.0);
        assert_eq!(r.cut(&[6]), 0.0);
    }

    #[test]
    fn right_answers_pass() {
        let mut r = model();
        let conn = Response::Connectivity {
            connected: false,
            num_components: 3,
        };
        assert!(r.check(&Query::Connectivity, &conn, EXPECT).ok);
        let same = Response::SameComponent(true);
        assert!(r.check(&Query::SameComponent(0, 2), &same, EXPECT).ok);
        let v = r.check(&Query::Distance(0, 3), &Response::Distance(Some(9)), EXPECT);
        assert!(v.ok, "3 ≤ 9 ≤ 4·3");
        assert_eq!(v.stretch, Some(3.0));
        assert!(
            r.check(&Query::Distance(0, 5), &Response::Distance(None), EXPECT)
                .ok
        );
    }

    /// K5,5 between {0..4} and {5..9}: a cut of 25 edges, above
    /// [`MIN_CHECKED_CUT`].
    fn dense() -> (Reference, Query) {
        let edges = (0..5).flat_map(|u| (5..10).map(move |v| Edge::new(u, v)));
        (
            Reference::new(10, edges),
            Query::CutEstimate((0..5).collect()),
        )
    }

    #[test]
    fn cuts_are_sandwiched_from_the_checked_size_up() {
        let (mut r, side) = dense();
        let v = r.check(&side, &Response::CutEstimate(37.5), EXPECT);
        assert!(v.ok);
        assert_eq!(v.cut_rel_err, Some(0.5));
        for wrong in [76.0, 8.0, f64::NAN, -1.0] {
            assert!(
                !r.check(&side, &Response::CutEstimate(wrong), EXPECT).ok,
                "{wrong}"
            );
        }
        // A small cut is measured but not failed, unless it is not a cut
        // value at all.
        let mut r = model();
        let small = Query::CutEstimate(vec![1, 4]);
        let v = r.check(&small, &Response::CutEstimate(0.5), EXPECT);
        assert!(v.ok);
        assert!(v.cut_rel_err.is_some_and(|e| (e - 5.0 / 6.0).abs() < 1e-12));
        assert!(!r.check(&small, &Response::CutEstimate(-0.5), EXPECT).ok);
        assert!(
            !r.check(&small, &Response::CutEstimate(f64::INFINITY), EXPECT)
                .ok
        );
    }

    #[test]
    fn a_deliberately_wrong_answer_is_counted_as_failed() {
        let mut r = model();
        let wrong = [
            (
                Query::Connectivity,
                Response::Connectivity {
                    connected: true,
                    num_components: 1,
                },
            ),
            (Query::SameComponent(0, 4), Response::SameComponent(true)),
            // Below the true distance, and beyond the stretch.
            (Query::Distance(0, 3), Response::Distance(Some(2))),
            (Query::Distance(0, 3), Response::Distance(Some(13))),
            // Connected pair served as disconnected, and the reverse.
            (Query::Distance(0, 3), Response::Distance(None)),
            (Query::Distance(0, 5), Response::Distance(Some(2))),
            // Wrong variant for the query.
            (Query::Connectivity, Response::SameComponent(true)),
        ];
        let failed = wrong
            .iter()
            .filter(|(q, resp)| !r.check(q, resp, EXPECT).ok)
            .count();
        assert_eq!(failed, wrong.len());
    }

    #[test]
    fn is_far_is_checked_only_where_the_guarantee_decides() {
        let mut r = model();
        let far = |u, v, threshold| Query::IsFar { u, v, threshold };
        // d = 3 > 2: every estimate ≥ 3 is far.
        assert!(r.check(&far(0, 3, 2), &Response::IsFar(true), EXPECT).ok);
        assert!(!r.check(&far(0, 3, 2), &Response::IsFar(false), EXPECT).ok);
        // 4·d = 4 ≤ 5: no estimate can exceed the threshold.
        assert!(r.check(&far(0, 1, 5), &Response::IsFar(false), EXPECT).ok);
        assert!(!r.check(&far(0, 1, 5), &Response::IsFar(true), EXPECT).ok);
        // d = 3 ≤ 5 < 12: either answer is within the guarantee.
        assert!(r.check(&far(0, 3, 5), &Response::IsFar(true), EXPECT).ok);
        assert!(r.check(&far(0, 3, 5), &Response::IsFar(false), EXPECT).ok);
        // Disconnected pairs are always far.
        assert!(!r.check(&far(0, 5, 7), &Response::IsFar(false), EXPECT).ok);
    }

    #[test]
    fn stats_must_echo_the_applied_count() {
        use dsg_service::{ArtifactStatus, GraphStats};
        let mut r = model();
        let stats = |total_updates| {
            Response::Stats(GraphStats {
                epoch: 1,
                num_vertices: 7,
                total_updates,
                artifacts: ArtifactStatus::default(),
            })
        };
        assert!(r.check(&Query::Stats, &stats(4), EXPECT).ok);
        assert!(!r.check(&Query::Stats, &stats(3), EXPECT).ok);
    }
}
