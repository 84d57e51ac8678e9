//! The signed vertex-incidence encoding behind AGM sketches.
//!
//! For an `n`-vertex graph, vertex `u` is associated with the vector
//! `a_u ∈ Z^{C(n,2)}` over edge coordinates:
//!
//! * `a_u[{u,v}] = +1` if the edge `{u,v}` is present and `u < v`,
//! * `a_u[{u,v}] = -1` if the edge is present and `u > v`,
//! * `0` elsewhere.
//!
//! The point of the signs: for any vertex set `S`,
//! `Σ_{u ∈ S} a_u` is supported exactly on the boundary edges `∂S` — each
//! internal edge appears once with `+1` and once with `-1` and cancels.
//! Sampling a nonzero coordinate of the summed sketch therefore yields an
//! outgoing edge of the supernode `S`, which is all Borůvka needs.

use dsg_graph::{pair_to_index, Edge, Vertex};

/// The sign with which edge `e` appears in the incidence vector of its
/// endpoint `w`: `+1` for the smaller endpoint, `-1` for the larger.
///
/// Routes through [`Edge::is_lower_endpoint`], the shared
/// debug-assert-backed endpoint check: debug builds panic on a foreign
/// vertex, release builds degrade to a `-1` contribution so a malformed
/// update cannot abort an ingest shard mid-stream.
///
/// # Examples
///
/// ```
/// use dsg_agm::incidence::incidence_sign;
/// use dsg_graph::Edge;
///
/// let e = Edge::new(3, 7);
/// assert_eq!(incidence_sign(3, &e), 1);
/// assert_eq!(incidence_sign(7, &e), -1);
/// ```
pub fn incidence_sign(w: Vertex, e: &Edge) -> i128 {
    if e.is_lower_endpoint(w) {
        1
    } else {
        -1
    }
}

/// The stream coordinate of an edge in an `n`-vertex graph (alias of
/// [`Edge::index`] for symmetry with [`incidence_sign`]).
pub fn edge_coordinate(e: &Edge, n: usize) -> u64 {
    pair_to_index(e.u(), e.v(), n)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn signs_cancel_over_both_endpoints() {
        let e = Edge::new(2, 9);
        assert_eq!(incidence_sign(2, &e) + incidence_sign(9, &e), 0);
    }

    #[test]
    #[cfg(debug_assertions)] // release builds degrade instead of panicking
    #[should_panic(expected = "not an endpoint")]
    fn foreign_vertex_panics() {
        incidence_sign(5, &Edge::new(1, 2));
    }

    #[test]
    fn coordinate_matches_pair_index() {
        let e = Edge::new(4, 11);
        assert_eq!(edge_coordinate(&e, 20), pair_to_index(4, 11, 20));
    }
}
