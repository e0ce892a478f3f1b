//! Canonical JSON rendering of a [`RoutingOutcome`].
//!
//! One definition shared by every consumer that must agree
//! byte-for-byte: `cds-cli route` prints exactly this, and `cds-serve`
//! archives exactly this as a job's result — which is what makes "a job
//! submitted over HTTP returns the same JSON as a local route" a
//! testable contract rather than two formatters drifting apart. All
//! deterministic fields (metrics, stats counters, checksum) are
//! bit-stable across runs; the wall-clock and arena observability
//! fields (`walltime_s`, `iter_wall_s`, `route_wall_s`,
//! `peak_arena_bytes`) are the only ones that vary between identical
//! runs.

use crate::{RouterConfig, RouterStats, RoutingOutcome};
use cds_instgen::Chip;
use std::fmt::Write as _;

/// JSON-safe float: shortest-round-trip for finite values, `null`
/// otherwise (JSON has no inf/NaN literals).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// JSON string escaping — chip names are free-form tokens and may
/// contain `"` or `\`.
pub fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The run-level aggregates block: total wall seconds (whole run and
/// the routing loop's share), peak arena bytes across iterations, and
/// total oracle calls — the headline numbers per-iteration arrays bury.
fn totals_json(stats: &RouterStats, walltime_s: f64) -> String {
    format!(
        "{{\"wall_s\": {}, \"route_wall_s\": {}, \"peak_arena_bytes\": {}, \
         \"oracle_calls\": {}, \"iterations_completed\": {}}}",
        json_f64(walltime_s),
        json_f64(stats.route_wall_s()),
        stats.peak_arena_bytes,
        stats.total_rerouted(),
        stats.iterations_completed()
    )
}

/// Renders the full result document: chip/grid identification, the
/// resolved configuration, metrics, run-level totals, rip-up stats, and
/// the outcome checksum.
pub fn outcome_json(chip: &Chip, config: &RouterConfig, out: &RoutingOutcome) -> String {
    let spec = chip.grid.spec();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"chip\": \"{}\",\n  \"nets\": {},\n  \"grid\": {{\"nx\": {}, \"ny\": {}, \
         \"layers\": {}, \"edges\": {}}},\n",
        json_escape(&chip.name),
        chip.nets.len(),
        spec.nx,
        spec.ny,
        spec.layers.len(),
        chip.grid.graph().num_edges()
    );
    let _ = writeln!(
        s,
        "  \"config\": {{\"oracle\": \"{}\", \"threads\": {}, \"iterations\": {}, \
         \"incremental\": {}, \"price_tol\": {}, \
         \"shards\": {}, \"checkpoint_every\": {}}},",
        config.method,
        config.threads,
        config.iterations,
        config.incremental,
        json_f64(config.price_tol),
        config.shards,
        config.checkpoint_every
    );
    let m = &out.metrics;
    let _ = writeln!(
        s,
        "  \"metrics\": {{\"ws_ps\": {}, \"tns_ps\": {}, \"ace4_pct\": {}, \
         \"wirelength_m\": {}, \"vias\": {}, \"walltime_s\": {}}},",
        json_f64(m.ws),
        json_f64(m.tns),
        json_f64(m.ace4),
        json_f64(m.wl_m),
        m.vias,
        json_f64(m.walltime_s)
    );
    let st = &out.stats;
    let _ = writeln!(s, "  \"totals\": {},", totals_json(st, m.walltime_s));
    let per: Vec<String> = st.rerouted_per_iter.iter().map(|r| r.to_string()).collect();
    let walls: Vec<String> = st.iter_wall_s.iter().map(|&w| json_f64(w)).collect();
    let _ = writeln!(
        s,
        "  \"stats\": {{\"rerouted_per_iter\": [{}], \"oracle_calls\": {}, \
         \"dirty\": {{\"fresh\": {}, \"overflow\": {}, \"timing\": {}, \"price\": {}, \
         \"weight\": {}, \"budget\": {}}}, \"usage_recounts\": {}, \"sta_nodes_retimed\": {}, \
         \"kernel\": {{\"settled\": {}, \"pushed\": {}, \"popped\": {}, \"decreased\": {}, \
         \"bucket_scans\": {}}}, \
         \"iter_wall_s\": [{}], \"peak_arena_bytes\": {}, \"cancelled\": {}}},",
        per.join(", "),
        st.total_rerouted(),
        st.dirty_fresh,
        st.dirty_overflow,
        st.dirty_timing,
        st.dirty_price,
        st.dirty_weight,
        st.dirty_budget,
        st.usage_recounts,
        st.sta_nodes_retimed,
        st.kernel_settled,
        st.kernel_pushed,
        st.kernel_popped,
        st.kernel_decreased,
        st.kernel_bucket_scans,
        walls.join(", "),
        st.peak_arena_bytes,
        st.cancelled
    );
    let _ = write!(s, "  \"checksum\": \"{:#018x}\"\n}}", out.checksum());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Router, RouterConfig};
    use cds_instgen::ChipSpec;

    #[test]
    fn outcome_json_carries_totals_and_checksum() {
        let chip = ChipSpec { num_nets: 12, ..ChipSpec::small_test(3) }.generate();
        let config = RouterConfig { iterations: 2, threads: 2, ..RouterConfig::default() };
        let out = Router::new(&chip, config.clone()).run();
        let json = outcome_json(&chip, &config, &out);
        for key in [
            "\"totals\":",
            "\"wall_s\":",
            "\"route_wall_s\":",
            "\"peak_arena_bytes\":",
            "\"oracle_calls\":",
            "\"iterations_completed\": 2",
            "\"cancelled\": false",
            "\"shards\": 1",
            "\"checkpoint_every\": 0",
            "\"kernel\":",
            "\"settled\":",
            "\"bucket_scans\":",
        ] {
            assert!(json.contains(key), "missing {key} in: {json}");
        }
        assert!(json.contains(&format!("{:#018x}", out.checksum())));
        // The default config routes with the CD oracle, whose kernel
        // counters must be non-zero in the report.
        assert!(!json.contains("\"kernel\": {\"settled\": 0,"), "kernel counters stayed zero");
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
