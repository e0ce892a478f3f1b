//! Plane r-arborescences (Steiner topologies).
//!
//! The comparison algorithms of §IV-A first compute a topology in the
//! plane "considering total length instead of congestion cost" and embed
//! it into the routing graph afterwards. This module is that plane
//! representation: an arena-allocated rooted tree whose nodes carry gcell
//! positions.

use crate::penalty::{lambda_split, BifurcationConfig};
use cds_geom::Point;

/// Index of a node within a [`Topology`].
pub type NodeId = u32;

/// What a tree node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The source of the net. Node 0 in every tree.
    Root,
    /// Sink number `usize` (index into the instance's sink list).
    Sink(usize),
    /// A branching or pass-through point.
    Steiner,
}

/// A rooted tree in the plane. Node 0 is always the root; every other
/// node has a parent. Multiple nodes may share a position (the paper's
/// trees allow this; it is how bifurcation-compatibility is achieved
/// without changing lengths).
///
/// ```
/// use cds_topo::{Topology, NodeKind};
/// use cds_geom::Point;
///
/// let mut t = Topology::new(Point::new(0, 0));
/// let s = t.add_steiner(Point::new(2, 0), t.root());
/// t.add_sink(0, Point::new(2, 3), s);
/// t.add_sink(1, Point::new(4, 0), s);
/// assert_eq!(t.length(), 2 + 3 + 2);
/// assert_eq!(t.node_kind(0), NodeKind::Root);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    pos: Vec<Point>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
}

impl Topology {
    /// A tree consisting only of the root.
    pub fn new(root_pos: Point) -> Self {
        Topology {
            kinds: vec![NodeKind::Root],
            pos: vec![root_pos],
            parent: vec![None],
            children: vec![Vec::new()],
        }
    }

    /// The root's id (always 0).
    pub fn root(&self) -> NodeId {
        0
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of `v`.
    pub fn node_kind(&self, v: NodeId) -> NodeKind {
        self.kinds[v as usize]
    }

    /// Position of `v`.
    pub fn position(&self, v: NodeId) -> Point {
        self.pos[v as usize]
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v as usize]
    }

    /// Children of `v`.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v as usize]
    }

    /// Ids of all sink nodes as (sink index, node) pairs.
    pub fn sink_nodes(&self) -> Vec<(usize, NodeId)> {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(i, k)| match k {
                NodeKind::Sink(s) => Some((*s, i as NodeId)),
                _ => None,
            })
            .collect()
    }

    /// Adds a node of arbitrary kind under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not exist or `kind` is `Root`.
    pub fn add_node(&mut self, kind: NodeKind, pos: Point, parent: NodeId) -> NodeId {
        assert!((parent as usize) < self.kinds.len(), "unknown parent");
        assert!(kind != NodeKind::Root, "a tree has exactly one root");
        let id = self.kinds.len() as NodeId;
        self.kinds.push(kind);
        self.pos.push(pos);
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.children[parent as usize].push(id);
        id
    }

    /// Adds sink `sink_idx` under `parent`.
    pub fn add_sink(&mut self, sink_idx: usize, pos: Point, parent: NodeId) -> NodeId {
        self.add_node(NodeKind::Sink(sink_idx), pos, parent)
    }

    /// Adds a Steiner node under `parent`.
    pub fn add_steiner(&mut self, pos: Point, parent: NodeId) -> NodeId {
        self.add_node(NodeKind::Steiner, pos, parent)
    }

    /// Moves `v` (with its subtree) under `new_parent`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is the root or `new_parent` lies inside `v`'s
    /// subtree (which would create a cycle).
    pub fn reparent(&mut self, v: NodeId, new_parent: NodeId) {
        // INVARIANT: documented panic contract - reparenting the root is a caller bug.
        let old = self.parent[v as usize].expect("cannot reparent the root");
        assert!(!self.in_subtree(new_parent, v), "reparent would create a cycle");
        self.children[old as usize].retain(|&c| c != v);
        self.children[new_parent as usize].push(v);
        self.parent[v as usize] = Some(new_parent);
    }

    /// Inserts a Steiner node at `pos` on the arc between `v` and its
    /// parent, returning the new node (which becomes `v`'s parent).
    ///
    /// # Panics
    ///
    /// Panics if `v` is the root.
    pub fn split_arc(&mut self, v: NodeId, pos: Point) -> NodeId {
        // INVARIANT: documented panic contract - splitting the root's (absent) incoming arc is a caller bug.
        let p = self.parent[v as usize].expect("root has no incoming arc");
        let s = self.add_steiner(pos, p);
        self.reparent(v, s);
        s
    }

    /// Whether `query` lies in the subtree rooted at `sub`.
    pub fn in_subtree(&self, query: NodeId, sub: NodeId) -> bool {
        let mut cur = Some(query);
        while let Some(c) = cur {
            if c == sub {
                return true;
            }
            cur = self.parent[c as usize];
        }
        false
    }

    /// Total L1 length of all arcs. Nodes detached by
    /// [`contract_pass_throughs`](Self::contract_pass_throughs) do not
    /// contribute.
    pub fn length(&self) -> i64 {
        (1..self.num_nodes() as NodeId)
            .filter_map(|v| {
                let p = self.parent[v as usize]?;
                Some(self.pos[v as usize].l1(self.pos[p as usize]))
            })
            .sum()
    }

    /// Nodes in depth-first preorder starting at the root.
    pub fn dfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.num_nodes());
        self.dfs_order_into(&mut order, &mut Vec::new());
        order
    }

    /// [`dfs_order`](Self::dfs_order) into caller-owned buffers: `order`
    /// is cleared and filled, `stack` is scratch. Warm buffers make it
    /// allocation-free.
    pub fn dfs_order_into(&self, order: &mut Vec<NodeId>, stack: &mut Vec<NodeId>) {
        order.clear();
        stack.clear();
        stack.push(self.root());
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children(v).iter().rev() {
                stack.push(c);
            }
        }
    }

    /// Total sink delay weight inside each node's subtree. `weights` is
    /// indexed by sink index.
    pub fn subtree_weights(&self, weights: &[f64]) -> Vec<f64> {
        let mut w = Vec::with_capacity(self.num_nodes());
        self.subtree_weights_into(weights, &self.dfs_order(), &mut w);
        w
    }

    /// [`subtree_weights`](Self::subtree_weights) into `out` (cleared
    /// and filled), given this topology's [`dfs_order`](Self::dfs_order).
    pub fn subtree_weights_into(&self, weights: &[f64], order: &[NodeId], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.num_nodes(), 0.0);
        for &v in order.iter().rev() {
            if let NodeKind::Sink(s) = self.node_kind(v) {
                out[v as usize] += weights[s];
            }
            for &c in self.children(v) {
                let wc = out[c as usize];
                out[v as usize] += wc;
            }
        }
    }

    /// Plane delay from the root to *every node* under the linear model:
    /// `delay_per_unit` per gcell of L1 length, plus λ-split bifurcation
    /// penalties per Eq. (3) at every node with exactly two children.
    ///
    /// # Panics
    ///
    /// Panics if some node has more than two children and `bif.dbif > 0`
    /// — call [`binarize`](Self::binarize) first.
    pub fn node_delays(
        &self,
        weights: &[f64],
        delay_per_unit: f64,
        bif: &BifurcationConfig,
    ) -> Vec<f64> {
        let sub_w = self.subtree_weights(weights);
        let mut delay = vec![0.0f64; self.num_nodes()];
        for &v in &self.dfs_order() {
            let kids = self.children(v);
            if kids.len() > 2 && bif.dbif > 0.0 {
                // INVARIANT: documented precondition - callers binarize before evaluating with dbif > 0.
                panic!("bifurcation penalties need a binarized topology");
            }
            let lambdas: Vec<f64> = if kids.len() == 2 {
                let (lx, ly) =
                    lambda_split(sub_w[kids[0] as usize], sub_w[kids[1] as usize], bif.eta);
                vec![lx, ly]
            } else {
                vec![0.0; kids.len()]
            };
            for (i, &c) in kids.iter().enumerate() {
                delay[c as usize] = delay[v as usize]
                    + self.pos[c as usize].l1(self.pos[v as usize]) as f64 * delay_per_unit
                    + lambdas[i] * bif.dbif;
            }
        }
        delay
    }

    /// Plane delay from the root to every sink; see
    /// [`node_delays`](Self::node_delays). Returns (sink index, delay)
    /// pairs.
    ///
    /// # Panics
    ///
    /// As for [`node_delays`](Self::node_delays).
    pub fn sink_delays(
        &self,
        weights: &[f64],
        delay_per_unit: f64,
        bif: &BifurcationConfig,
    ) -> Vec<(usize, f64)> {
        let delay = self.node_delays(weights, delay_per_unit, bif);
        self.sink_nodes().into_iter().map(|(s, v)| (s, delay[v as usize])).collect()
    }

    /// Returns an equivalent *bifurcation-compatible* tree: the root and
    /// all sinks are leaves, and every internal node has at most two
    /// children. Extra nodes are inserted at identical positions, so no
    /// arc length or root–sink distance changes (§I: "as we allow
    /// multiple vertices with the same position, any Steiner tree can be
    /// transformed into such a tree without changing the total length or
    /// any source-sink length").
    pub fn binarize(&self) -> Topology {
        let mut out = Topology::new(self.position(self.root()));
        // Map old node -> new "attachment" node under which old children hang.
        let mut attach = vec![0 as NodeId; self.num_nodes()];
        for &v in &self.dfs_order() {
            if v == self.root() {
                if self.children(v).is_empty() {
                    attach[v as usize] = out.root();
                } else {
                    // root must be a leaf: hang everything under a Steiner twin
                    let s = out.add_steiner(self.position(v), out.root());
                    attach[v as usize] = s;
                }
                continue;
            }
            // INVARIANT: the root was handled and skipped earlier in the loop, so v has a parent.
            let parent_attach = attach[self.parent(v).expect("non-root") as usize];
            // find a free slot (≤ 2 children) at the parent's attachment,
            // extending with same-position Steiner nodes as needed
            let slot = out.free_slot(parent_attach);
            match self.node_kind(v) {
                NodeKind::Sink(s) => {
                    if self.children(v).is_empty() {
                        out.add_sink(s, self.position(v), slot);
                        attach[v as usize] = slot; // unused
                    } else {
                        // sink with children: Steiner twin carries the subtree,
                        // the sink itself becomes a leaf under it
                        let tw = out.add_steiner(self.position(v), slot);
                        out.add_sink(s, self.position(v), tw);
                        attach[v as usize] = tw;
                    }
                }
                NodeKind::Steiner => {
                    let s = out.add_steiner(self.position(v), slot);
                    attach[v as usize] = s;
                }
                // INVARIANT: the single root was handled before the match, and no other node carries Root kind.
                NodeKind::Root => unreachable!("only one root"),
            }
        }
        out
    }

    /// Walks down same-position Steiner extensions of `v` until a node
    /// with fewer than two children is found (fewer than one for the
    /// root), inserting zero-length extension Steiner nodes as necessary.
    /// The returned node can take one more child without breaking
    /// bifurcation compatibility. Used by [`binarize`](Self::binarize)
    /// and by baselines that grow binary trees incrementally.
    pub fn attach_slot(&mut self, v: NodeId) -> NodeId {
        self.free_slot(v)
    }

    fn free_slot(&mut self, v: NodeId) -> NodeId {
        let mut cur = v;
        loop {
            let is_root = cur == self.root();
            let cap = if is_root { 1 } else { 2 };
            if self.children(cur).len() < cap {
                return cur;
            }
            // push one existing child chainwise: add an extension Steiner
            // node at the same position adopting the last child slot
            let pos = self.position(cur);
            // INVARIANT: cur was selected for exceeding the child cap (cap >= 1), so it has at least one child.
            let last = *self.children(cur).last().expect("cap > 0");
            let ext = self.add_steiner(pos, cur);
            self.reparent(last, ext);
            cur = ext;
        }
    }

    /// Removes pass-through Steiner nodes (exactly one child, collinear
    /// or not — position is kept implicitly by L1 additivity only when
    /// collinear, so only *zero-detour* pass-throughs are removed).
    /// Returns the number of nodes removed.
    pub fn contract_pass_throughs(&mut self) -> usize {
        let mut removed = 0;
        for v in 1..self.num_nodes() as NodeId {
            if self.node_kind(v) != NodeKind::Steiner || self.children(v).len() != 1 {
                continue;
            }
            let p = match self.parent(v) {
                Some(p) => p,
                None => continue,
            };
            let c = self.children(v)[0];
            let direct = self.pos[p as usize].l1(self.pos[c as usize]);
            let via_v = self.pos[p as usize].l1(self.pos[v as usize])
                + self.pos[v as usize].l1(self.pos[c as usize]);
            if direct == via_v {
                self.reparent(c, p);
                self.children[p as usize].retain(|&x| x != v);
                self.parent[v as usize] = None; // detached; ids stay stable
                removed += 1;
            }
        }
        removed
    }

    /// Checks structural invariants (each non-root reachable from the
    /// root, parent/child symmetry). Returns an error string on failure.
    pub fn validate(&self) -> Result<(), String> {
        let order = self.dfs_order();
        let mut seen = vec![false; self.num_nodes()];
        for &v in &order {
            if seen[v as usize] {
                return Err(format!("node {v} visited twice (cycle)"));
            }
            seen[v as usize] = true;
            for &c in self.children(v) {
                if self.parent(c) != Some(v) {
                    return Err(format!("child {c} of {v} disagrees about its parent"));
                }
            }
        }
        // detached nodes (from contract_pass_throughs) are tolerated only
        // if they are Steiner nodes with no children
        for v in 0..self.num_nodes() as NodeId {
            if !seen[v as usize]
                && (self.node_kind(v) != NodeKind::Steiner || !self.children(v).is_empty())
            {
                return Err(format!("node {v} unreachable from the root"));
            }
        }
        Ok(())
    }

    /// Whether the tree is bifurcation compatible: root and sinks are
    /// leaves, internal nodes have at most two children.
    pub fn is_bifurcation_compatible(&self) -> bool {
        if self.children(self.root()).len() > 1 {
            return false;
        }
        (1..self.num_nodes() as NodeId).all(|v| match self.node_kind(v) {
            NodeKind::Sink(_) => self.children(v).is_empty(),
            _ => self.children(v).len() <= 2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn star(n: usize) -> (Topology, Vec<f64>) {
        let mut t = Topology::new(Point::new(0, 0));
        for i in 0..n {
            t.add_sink(i, Point::new(i as i32 + 1, 0), t.root());
        }
        (t, vec![1.0; n])
    }

    #[test]
    fn star_length_and_delays() {
        let (t, w) = star(3);
        assert_eq!(t.length(), 1 + 2 + 3);
        let mut d = t.sink_delays(&w, 2.0, &BifurcationConfig::ZERO);
        d.sort_by_key(|a| a.0);
        assert_eq!(d, vec![(0, 2.0), (1, 4.0), (2, 6.0)]);
    }

    #[test]
    fn binarize_makes_compatible_and_preserves_metrics() {
        let (t, w) = star(5);
        assert!(!t.is_bifurcation_compatible());
        let b = t.binarize();
        b.validate().unwrap();
        assert!(b.is_bifurcation_compatible());
        assert_eq!(b.length(), t.length());
        // with dbif = 0, sink delays are unchanged
        let mut d0 = t.sink_delays(&w, 1.0, &BifurcationConfig::ZERO);
        let mut d1 = b.sink_delays(&w, 1.0, &BifurcationConfig::ZERO);
        d0.sort_by_key(|a| a.0);
        d1.sort_by_key(|a| a.0);
        for ((s0, x), (s1, y)) in d0.iter().zip(&d1) {
            assert_eq!(s0, s1);
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn lambda_penalty_favours_heavy_subtree() {
        // root -- s with two sinks; sink 0 heavy, sink 1 light
        let mut t = Topology::new(Point::new(0, 0));
        let s = t.add_steiner(Point::new(1, 0), t.root());
        t.add_sink(0, Point::new(2, 0), s);
        t.add_sink(1, Point::new(1, 1), s);
        let w = vec![10.0, 1.0];
        let bif = BifurcationConfig::new(4.0, 0.25);
        let delays = t.sink_delays(&w, 1.0, &bif);
        let d: std::collections::HashMap<usize, f64> = delays.into_iter().collect();
        // heavy sink gets λ = η = 0.25 → penalty 1.0; light gets 3.0
        assert!((d[&0] - (2.0 + 1.0)).abs() < 1e-9);
        assert!((d[&1] - (2.0 + 3.0)).abs() < 1e-9);
    }

    #[test]
    fn reparent_and_split() {
        let mut t = Topology::new(Point::new(0, 0));
        let a = t.add_sink(0, Point::new(4, 0), t.root());
        let s = t.split_arc(a, Point::new(2, 0));
        assert_eq!(t.parent(a), Some(s));
        assert_eq!(t.length(), 4);
        let b = t.add_sink(1, Point::new(2, 2), s);
        assert_eq!(t.length(), 6);
        t.reparent(b, t.root());
        assert_eq!(t.length(), 4 + 4);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn reparent_into_own_subtree_panics() {
        let mut t = Topology::new(Point::new(0, 0));
        let s = t.add_steiner(Point::new(1, 0), t.root());
        let c = t.add_steiner(Point::new(2, 0), s);
        t.reparent(s, c);
    }

    #[test]
    fn contract_removes_collinear_pass_through() {
        let mut t = Topology::new(Point::new(0, 0));
        let s = t.add_steiner(Point::new(1, 0), t.root());
        t.add_sink(0, Point::new(3, 0), s);
        assert_eq!(t.contract_pass_throughs(), 1);
        assert_eq!(t.length(), 3);
        t.validate().unwrap();
    }

    proptest! {
        /// binarize preserves total length and all root–sink distances on
        /// random topologies.
        #[test]
        fn binarize_preserves(parents in proptest::collection::vec(0usize..8, 1..12),
                              xs in proptest::collection::vec((-20i32..20, -20i32..20), 12)) {
            let mut t = Topology::new(Point::new(0, 0));
            let mut ids = vec![t.root()];
            for (i, &p) in parents.iter().enumerate() {
                let parent = ids[p.min(ids.len() - 1)];
                let (x, y) = xs[i];
                // alternate sinks and steiner nodes
                let id = if i % 2 == 0 {
                    t.add_sink(i / 2, Point::new(x, y), parent)
                } else {
                    t.add_steiner(Point::new(x, y), parent)
                };
                ids.push(id);
            }
            let nsinks = parents.len().div_ceil(2);
            let w = vec![1.0; nsinks];
            let b = t.binarize();
            b.validate().unwrap();
            prop_assert!(b.is_bifurcation_compatible());
            prop_assert_eq!(b.length(), t.length());
            let mut d0 = t.sink_delays(&w, 1.0, &BifurcationConfig::ZERO);
            let mut d1 = b.sink_delays(&w, 1.0, &BifurcationConfig::ZERO);
            d0.sort_by_key(|a| a.0);
            d1.sort_by_key(|a| a.0);
            prop_assert_eq!(d0.len(), d1.len());
            for (x, y) in d0.iter().zip(&d1) {
                prop_assert_eq!(x.0, y.0);
                prop_assert!((x.1 - y.1).abs() < 1e-9);
            }
        }
    }
}
