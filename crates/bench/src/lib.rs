#![forbid(unsafe_code)]
//! Experiment harnesses that regenerate the paper's tables and figures.
//!
//! Each table/figure of the evaluation section has a binary in
//! `src/bin/` (run with `cargo run -p cds-bench --release --bin tableN`).
//! This library holds the shared machinery: chip suites, the
//! instance-level comparison of Tables I/II, the routing-level
//! comparison of Tables IV/V, and the formatting that mirrors the
//! paper's rows.
//!
//! Scaling knobs (environment variables):
//!
//! * `CDST_DIVISOR` — net-count divisor for the Table III suite
//!   (default 800; the paper's chips divided by 800 run in minutes).
//! * `CDST_CHIPS` — comma-separated subset of chips (default all 8).
//! * `CDST_SEED` — base seed (default 1).

use cds_instgen::{Chip, ChipSpec};
use cds_metrics::RunMetrics;
use cds_router::{OracleWorkspace, Router, RouterConfig, SteinerMethod};
use cds_topo::BifurcationConfig;

/// Reads a `usize` environment knob.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads a `u64` environment knob.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The chip suite selected by the environment (see module docs).
pub fn selected_suite() -> Vec<Chip> {
    let divisor = env_usize("CDST_DIVISOR", 800);
    let seed = env_u64("CDST_SEED", 1);
    let filter: Option<Vec<String>> = std::env::var("CDST_CHIPS")
        .ok()
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect());
    ChipSpec::paper_suite(divisor, seed)
        .into_iter()
        .filter(|spec| filter.as_ref().is_none_or(|f| f.iter().any(|x| x == &spec.name)))
        .map(|spec| spec.generate())
        .collect()
}

/// The sink-count buckets of Tables I/II.
pub const BUCKETS: [(&str, usize, usize); 4] =
    [("3-5", 3, 5), ("6-14", 6, 14), ("15-29", 15, 29), (">=30", 30, usize::MAX)];

/// One row of a Table I/II reproduction: per-method average objective
/// increase over the best of the four, per bucket.
#[derive(Debug, Clone, Default)]
pub struct InstanceTable {
    /// instances per bucket
    pub count: [usize; 4],
    /// accumulated relative increase per bucket × method (L1, SL, PD, CD)
    pub incr: [[f64; 4]; 4],
}

impl InstanceTable {
    /// Accumulates one instance's objectives (paper order L1, SL, PD, CD).
    pub fn add(&mut self, num_sinks: usize, objectives: [f64; 4]) {
        let Some(bucket) =
            BUCKETS.iter().position(|&(_, lo, hi)| num_sinks >= lo && num_sinks <= hi)
        else {
            return;
        };
        let best = objectives.iter().cloned().fold(f64::INFINITY, f64::min);
        if best <= 0.0 || best.is_nan() {
            return;
        }
        for (m, &o) in objectives.iter().enumerate() {
            self.incr[bucket][m] += o / best - 1.0;
        }
        self.count[bucket] += 1;
    }

    /// Merges another accumulator (per-chip → suite totals).
    pub fn merge(&mut self, other: &InstanceTable) {
        for b in 0..4 {
            self.count[b] += other.count[b];
            for m in 0..4 {
                self.incr[b][m] += other.incr[b][m];
            }
        }
    }

    /// Prints the table in the paper's layout.
    pub fn print(&self, title: &str) {
        println!("{title}");
        println!("{:>6} {:>10} {:>8} {:>8} {:>8} {:>8}", "|S|", "#inst", "L1", "SL", "PD", "CD");
        let mut tot = [0.0f64; 4];
        let mut tot_n = 0usize;
        for (b, &(label, _, _)) in BUCKETS.iter().enumerate() {
            let n = self.count[b];
            if n == 0 {
                continue;
            }
            print!("{label:>6} {n:>10}");
            for (acc, inc) in tot.iter_mut().zip(&self.incr[b]) {
                print!(" {:>7.2}%", inc / n as f64 * 100.0);
                *acc += inc;
            }
            println!();
            tot_n += n;
        }
        if tot_n > 0 {
            print!("{:>6} {tot_n:>10}", "all");
            for t in tot {
                print!(" {:>7.2}%", t / tot_n as f64 * 100.0);
            }
            println!();
        }
    }
}

/// Runs the Table I/II experiment on one chip: route with the CD oracle
/// (harvesting weights/budgets/prices), then present every harvested
/// instance identically to all four methods. The replay prices are the
/// run's post-loop vector (`RoutingOutcome::prices`) — not necessarily
/// what any single iteration routed on, but identical across the four
/// methods, which is what the comparison needs.
pub fn instance_comparison(chip: &Chip, use_dbif: bool, iterations: usize) -> InstanceTable {
    let router = Router::new(
        chip,
        RouterConfig { iterations, harvest: true, use_dbif, ..Default::default() },
    );
    let out = router.run();
    let bif = if use_dbif {
        BifurcationConfig::new(chip.delay_model.dbif_ps(), 0.25)
    } else {
        BifurcationConfig::ZERO
    };
    let mut table = InstanceTable::default();
    let mut ws = OracleWorkspace::new();
    for h in &out.harvest {
        let mut objs = [0.0f64; 4];
        for (i, m) in SteinerMethod::ALL.iter().enumerate() {
            // budgets are empty when the final iteration routed before
            // any STA-derived budgets existed (single-iteration runs)
            let budgets = (!h.budgets.is_empty()).then_some(h.budgets.as_slice());
            let oracle = m.oracle();
            objs[i] = router
                .route_one_with(h.net, oracle, &out.prices, &h.weights, budgets, bif, &mut ws)
                .1;
        }
        table.add(chip.nets[h.net].sinks.len(), objs);
    }
    table
}

/// Runs the Table IV/V experiment on one chip: a full router run per
/// method. Returns (method, metrics) rows in the paper's order.
pub fn routing_comparison(
    chip: &Chip,
    use_dbif: bool,
    iterations: usize,
) -> Vec<(SteinerMethod, RunMetrics)> {
    SteinerMethod::ALL
        .iter()
        .map(|&m| {
            let out = Router::new(
                chip,
                RouterConfig { method: m, iterations, use_dbif, ..Default::default() },
            )
            .run();
            (m, out.metrics)
        })
        .collect()
}

/// Runs and prints a complete Table IV/V (all chips × all methods),
/// including the paper's summary block.
pub fn print_routing_table(use_dbif: bool, title: &str) {
    let iterations = env_usize("CDST_ITER", 4);
    println!("{title}");
    print_routing_header();
    let mut sums: Vec<(SteinerMethod, RunMetrics)> = Vec::new();
    let mut chips = 0usize;
    for chip in selected_suite() {
        chips += 1;
        for (m, metrics) in routing_comparison(&chip, use_dbif, iterations) {
            println!("{}", metrics.table_row(&chip.name, &m.to_string()));
            match sums.iter_mut().find(|(sm, _)| *sm == m) {
                Some((_, s)) => {
                    s.ws += metrics.ws;
                    s.tns += metrics.tns;
                    s.ace4 += metrics.ace4;
                    s.wl_m += metrics.wl_m;
                    s.vias += metrics.vias;
                    s.walltime_s += metrics.walltime_s;
                }
                None => sums.push((m, metrics)),
            }
        }
    }
    println!("-- all (WS/TNS/WL/vias summed, ACE4 averaged) --");
    for (m, mut s) in sums {
        s.ace4 /= chips.max(1) as f64;
        println!("{}", s.table_row("all", &m.to_string()));
    }
}

/// Prints the Table IV/V header.
pub fn print_routing_header() {
    println!(
        "{:>4} {:>3} {:>9} {:>12} {:>7} {:>9} {:>10} {:>9}",
        "Chip", "Run", "WS[ps]", "TNS[ps]", "ACE4[%]", "WL[m]", "Vias", "Wall[s]"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_from_three() {
        let mut t = InstanceTable::default();
        t.add(3, [1.0, 1.0, 1.0, 1.0]);
        t.add(14, [2.0, 1.0, 1.0, 1.0]);
        t.add(29, [1.0, 1.0, 1.0, 1.0]);
        t.add(64, [1.0, 1.0, 1.0, 1.5]);
        assert_eq!(t.count, [1, 1, 1, 1]);
        assert!((t.incr[1][0] - 1.0).abs() < 1e-12, "L1 100% over best in bucket 2");
        assert!((t.incr[3][3] - 0.5).abs() < 1e-12);
        // sub-3-sink instances are ignored, as in the paper
        t.add(2, [1.0, 1.0, 1.0, 1.0]);
        assert_eq!(t.count, [1, 1, 1, 1]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = InstanceTable::default();
        a.add(4, [1.0, 2.0, 1.0, 1.0]);
        let mut b = InstanceTable::default();
        b.add(4, [1.5, 1.0, 1.0, 1.0]);
        a.merge(&b);
        assert_eq!(a.count[0], 2);
        assert!((a.incr[0][0] - 0.5).abs() < 1e-12);
        assert!((a.incr[0][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn env_knobs_default() {
        assert_eq!(env_usize("CDST_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("CDST_DOES_NOT_EXIST", 9), 9);
    }
}
