//! Per-terminal Dijkstra state for the simultaneous searches.
//!
//! Each active terminal `u` runs its own labelling with the individual
//! distance function `l_u(e) = c(e) + w(u)·d(e)` (Eq. (4)). Labels live
//! in epoch-stamped dense [`VertexTable`] slabs: graph backends expose
//! compact (window-local) vertex ids, so a slab is window-sized, clears
//! in `O(1)`, and — pooled through the
//! [`SolverWorkspace`](crate::SolverWorkspace) — is reused across
//! searches and solves without reallocating.

use crate::table::VertexTable;
use cds_graph::{EdgeId, SteinerGraph, VertexId};

/// Sentinel parent vertex marking a seed label (no predecessor).
/// `u32::MAX` is never a reachable window-local vertex id: label slabs
/// are dense arrays indexed by vertex, so a real id that large could
/// not be allocated.
pub const NO_PARENT: VertexId = VertexId::MAX;

/// One vertex's complete label: distance, predecessor, and settled
/// flag in a single slab record. The relaxation loop is the solver's
/// hottest code and probes all three per neighbor; separate `dist` /
/// `parent` / `settled` tables cost it up to five scattered cache
/// lines per vertex (each table's stamp and value arrays), a combined
/// record costs two (one stamp, one record).
#[derive(Debug, Clone, Copy)]
pub struct Label {
    /// Best known `g` value (true `l_u` distance, without heuristic).
    pub dist: f64,
    /// Predecessor (vertex, edge); vertex is [`NO_PARENT`] for seeds.
    pub parent: (VertexId, EdgeId),
    /// Permanently labelled.
    pub settled: bool,
}

impl Default for Label {
    fn default() -> Self {
        // the resize fill of a growing slab — unreachable until stamped
        Label { dist: f64::INFINITY, parent: (NO_PARENT, 0), settled: false }
    }
}

impl Label {
    /// A fresh (unsettled) seed label at distance `dist`.
    pub fn seed(dist: f64) -> Self {
        Label { dist, parent: (NO_PARENT, 0), settled: false }
    }
}

/// Dijkstra state of one active terminal.
#[derive(Debug, Clone, Default)]
pub struct Search {
    /// Terminal slot this search belongs to.
    pub terminal: usize,
    /// Delay weight `w(u)` of the terminal.
    pub weight: f64,
    /// The terminal's position `π(u)`.
    pub origin: VertexId,
    /// Per-vertex labels: distance, predecessor, settled flag.
    pub labels: VertexTable<Label>,
    /// Raw tree delay (`Σ d`, unweighted) from `origin` to each seed —
    /// needed by the Steiner re-embedding (§III-D). Seeds are the
    /// component's vertices under §III-A discounting, else just the
    /// origin.
    pub seed_raw_delay: VertexTable<f64>,
}

impl Search {
    /// A fresh search with no labels.
    pub fn new(terminal: usize, weight: f64, origin: VertexId) -> Self {
        Search { terminal, weight, origin, ..Search::default() }
    }

    /// Re-initializes a (possibly recycled) search for a new terminal,
    /// clearing all labels but keeping the slabs' capacity — the
    /// workspace-reuse fast path: a rip-up & re-route loop starts one
    /// search per terminal per net, and the label tables are the
    /// solver's hottest state. With epoch-stamped tables the clear is
    /// two epoch bumps, `O(1)`.
    pub fn reset(&mut self, terminal: usize, weight: f64, origin: VertexId) {
        self.terminal = terminal;
        self.weight = weight;
        self.origin = origin;
        self.labels.clear();
        self.seed_raw_delay.clear();
    }

    /// Walks parents from `to` back to a seed: the edges in seed→`to`
    /// order into a caller-owned buffer (cleared first), returning the
    /// seed vertex — the allocation-free path of the merge loop.
    ///
    /// # Panics
    ///
    /// Panics if `to` was never labelled.
    pub fn extract_path_into(&self, to: VertexId, out: &mut Vec<EdgeId>) -> VertexId {
        assert!(self.labels.contains(to), "extracting an unlabelled vertex");
        out.clear();
        let mut cur = to;
        while let Some(Label { parent: (from, edge), .. }) = self.labels.get(cur) {
            if from == NO_PARENT {
                break;
            }
            out.push(edge);
            cur = from;
        }
        out.reverse();
        cur
    }

    /// The vertex sequence of a seed→`to` path returned by
    /// [`extract_path_into`](Self::extract_path_into), starting at the
    /// seed, into a caller-owned buffer (cleared first).
    pub fn path_vertices_into<G: SteinerGraph + ?Sized>(
        &self,
        graph: &G,
        edges: &[EdgeId],
        seed: VertexId,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        out.push(seed);
        let mut cur = seed;
        for &e in edges {
            cur = graph.endpoints(e).other(cur);
            out.push(cur);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_extraction_orders_from_seed() {
        let mut s = Search::new(0, 1.0, 7);
        s.labels.insert(7, Label::seed(0.0));
        s.labels.insert(8, Label { dist: 1.0, parent: (7, 100), settled: false });
        s.labels.insert(9, Label { dist: 2.0, parent: (8, 101), settled: false });
        let mut edges = vec![55];
        assert_eq!(s.extract_path_into(9, &mut edges), 7);
        assert_eq!(edges, vec![100, 101]);
        assert_eq!(s.extract_path_into(7, &mut edges), 7);
        assert!(edges.is_empty());
    }

    #[test]
    fn reset_clears_labels_in_place() {
        let mut s = Search::new(0, 1.0, 7);
        s.labels.insert(7, Label { settled: true, ..Label::seed(0.0) });
        s.seed_raw_delay.insert(7, 0.5);
        s.reset(3, 2.0, 9);
        assert_eq!(s.terminal, 3);
        assert!(!s.labels.contains(7));
        assert_eq!(s.seed_raw_delay.get(7), None);
    }
}
