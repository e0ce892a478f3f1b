//! The chip's timing DAG as the rip-up loop sees it: one node per net
//! root and per sink, one *net arc* per sink (rewritten from the routed
//! delays every iteration), fixed cell arcs along the chains.

use cds_geom::Point;
use cds_instgen::Chip;
use cds_sta::TimingGraph;

/// Timing-node bookkeeping per net.
pub(crate) struct NetNodes {
    /// Timing node of each sink, `[net][sink]`.
    pub(crate) sink_node: Vec<Vec<u32>>,
    /// Net arc root → sink, `[net][sink]`.
    pub(crate) sink_arc: Vec<Vec<u32>>,
}

/// Builds the chip's timing DAG: one node per net root and per sink,
/// net arcs (updated every iteration) and fixed cell arcs along the
/// chains; ATs at chain heads, RATs at all true endpoints.
pub(crate) fn build_timing_graph(chip: &Chip) -> (TimingGraph, NetNodes) {
    let mut count = 0u32;
    let mut root_node = Vec::with_capacity(chip.nets.len());
    let mut sink_node = Vec::with_capacity(chip.nets.len());
    for net in &chip.nets {
        root_node.push(count);
        count += 1;
        let mut s = Vec::with_capacity(net.sinks.len());
        for _ in &net.sinks {
            s.push(count);
            count += 1;
        }
        sink_node.push(s);
    }
    let mut tg = TimingGraph::new(count as usize);
    // net arcs with placeholder direct-delay estimates, matching the
    // generator's typical-layer model so RAT distribution is sane
    let typ = cds_instgen::typical_delay_per_gcell(&chip.delay_model);
    let est = |a: Point, b: Point| -> f64 {
        a.l1(b) as f64 * typ * 1.15 + 2.0 * chip.grid.spec().via_delay
    };
    let mut sink_arc = Vec::with_capacity(chip.nets.len());
    for (i, net) in chip.nets.iter().enumerate() {
        let mut arcs = Vec::with_capacity(net.sinks.len());
        for (j, &s) in net.sinks.iter().enumerate() {
            arcs.push(tg.add_arc(root_node[i], sink_node[i][j], est(net.root, s)));
        }
        sink_arc.push(arcs);
    }
    // chains: cell arcs, inputs, RATs
    for chain in &chip.chains {
        // INVARIANT: workload validation rejects empty chains at parse time.
        let first = chain.links.first().expect("chains are nonempty");
        tg.set_input(root_node[first.net], 0.0);
        // prefix of estimated stage delays, for distributing the RAT
        // over intermediate endpoints. A chain of L links crosses
        // L−1 cells (between consecutive stages); the terminal link
        // ends at true endpoints with no downstream cell, so neither
        // the total nor the terminal endpoints' RAT positions may
        // count one.
        let mut prefix = 0.0;
        let mut est_total = 0.0;
        for (li, link) in chain.links.iter().enumerate() {
            let net = &chip.nets[link.net];
            let stage_sink = match link.cont_sink {
                Some(s) => net.sinks[s],
                None => {
                    // INVARIANT: workload validation rejects nets without sinks at parse time.
                    *net.sinks.iter().max_by_key(|&&s| s.l1(net.root)).expect("nets have sinks")
                }
            };
            let cell = if li + 1 == chain.links.len() { 0.0 } else { chip.cell_delay_ps };
            est_total += est(net.root, stage_sink) + cell;
        }
        let scale = chain.rat_ps / est_total.max(1e-9);
        for (li, link) in chain.links.iter().enumerate() {
            let net = &chip.nets[link.net];
            let downstream_cell =
                if li + 1 == chain.links.len() { 0.0 } else { chip.cell_delay_ps };
            for (j, &s) in net.sinks.iter().enumerate() {
                let is_cont = link.cont_sink == Some(j);
                if is_cont {
                    // cell arc to the next stage's root
                    let next = chain.links[li + 1].net;
                    tg.add_arc(sink_node[link.net][j], root_node[next], chip.cell_delay_ps);
                } else {
                    // endpoint: RAT proportional to its estimated
                    // position on the chain
                    let rat = (prefix + est(net.root, s) + downstream_cell) * scale;
                    tg.set_required(sink_node[link.net][j], rat);
                }
            }
            let stage_sink = match link.cont_sink {
                Some(s) => net.sinks[s],
                None => {
                    // INVARIANT: workload validation rejects nets without sinks at parse time.
                    *net.sinks.iter().max_by_key(|&&s| s.l1(net.root)).expect("nets have sinks")
                }
            };
            prefix += est(net.root, stage_sink) + chip.cell_delay_ps;
        }
    }
    (tg, NetNodes { sink_node, sink_arc })
}
