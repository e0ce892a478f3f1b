//! The `cdst/2` `state` section's two translations: routed trees
//! between the forest's structural dump and the document's kind-coded
//! form, and the deterministic work counters between [`RouterStats`]
//! and [`StateStats`]. The array orders are the document format — this
//! module is the one place that spells them.

use crate::RouterStats;
use cds_instgen::io::doc::{StateStats, StateTree};
use cds_topo::{NodeKind, TreeDump};

/// Decodes a serialized checkpoint tree into the forest's structural
/// dump form (`cdst/2` kind codes: `-1` root, `-2` Steiner, `>= 0` the
/// sink index). Importing the dump reproduces node ids, CSR layout and
/// enumeration order bit-for-bit.
pub(crate) fn state_tree_to_dump(st: &StateTree) -> TreeDump {
    TreeDump {
        kinds: st
            .kinds
            .iter()
            .map(|&k| match k {
                -1 => NodeKind::Root,
                -2 => NodeKind::Steiner,
                j if j >= 0 => NodeKind::Sink(j as usize),
                // INVARIANT: validate_state_tree rejected any code below -2 at parse time.
                k => panic!("bad checkpoint node kind code {k}"),
            })
            .collect(),
        vertices: st.vertices.clone(),
        parents: st.parents.clone(),
        path_len: st.path_len.clone(),
        path_edges: st.path_edges.clone(),
    }
}

/// The inverse of [`state_tree_to_dump`], plus the summary spans the
/// dump does not carry (delays, wirelength, vias).
pub(crate) fn dump_to_state_tree(
    dump: TreeDump,
    sink_delays: &[f64],
    wl: f64,
    vias: usize,
) -> StateTree {
    StateTree {
        kinds: dump
            .kinds
            .iter()
            .map(|k| match k {
                NodeKind::Root => -1,
                NodeKind::Steiner => -2,
                NodeKind::Sink(j) => *j as i64,
            })
            .collect(),
        vertices: dump.vertices,
        parents: dump.parents,
        path_len: dump.path_len,
        path_edges: dump.path_edges,
        sink_delays: sink_delays.to_vec(),
        wirelength_gcells: wl,
        vias: vias as u64,
    }
}

/// The counters of `stats` a checkpoint carries: `dirty` is `[fresh,
/// overflow, timing, price, weight, budget]`, `kernel` is `[settled,
/// pushed, popped, decreased, bucket_scans]`. Wall clocks, the arena
/// peak and the cancellation flag are not checkpoint state.
pub(crate) fn stats_to_state(stats: &RouterStats) -> StateStats {
    StateStats {
        rerouted_per_iter: stats.rerouted_per_iter.clone(),
        dirty: [
            stats.dirty_fresh,
            stats.dirty_overflow,
            stats.dirty_timing,
            stats.dirty_price,
            stats.dirty_weight,
            stats.dirty_budget,
        ],
        usage_recounts: stats.usage_recounts,
        sta_nodes_retimed: stats.sta_nodes_retimed as usize,
        kernel: [
            stats.kernel_settled,
            stats.kernel_pushed,
            stats.kernel_popped,
            stats.kernel_decreased,
            stats.kernel_bucket_scans,
        ],
    }
}

/// The inverse of [`stats_to_state`] for a run resuming after
/// `iteration` completed iterations. Restored iterations have no
/// wall-clock record; `iter_wall_s` is zero-padded so the
/// per-iteration arrays stay aligned with the counters.
pub(crate) fn state_to_stats(s: &StateStats, iteration: usize) -> RouterStats {
    let [dirty_fresh, dirty_overflow, dirty_timing, dirty_price, dirty_weight, dirty_budget] =
        s.dirty;
    let [kernel_settled, kernel_pushed, kernel_popped, kernel_decreased, kernel_bucket_scans] =
        s.kernel;
    RouterStats {
        rerouted_per_iter: s.rerouted_per_iter.clone(),
        dirty_fresh,
        dirty_overflow,
        dirty_timing,
        dirty_price,
        dirty_weight,
        dirty_budget,
        usage_recounts: s.usage_recounts,
        sta_nodes_retimed: s.sta_nodes_retimed as u64,
        kernel_settled,
        kernel_pushed,
        kernel_popped,
        kernel_decreased,
        kernel_bucket_scans,
        iter_wall_s: vec![0.0; iteration],
        ..RouterStats::default()
    }
}
