//! Plain-text serialization of chips and nets.
//!
//! Experiments should be shareable without re-running the generator:
//! the [`doc`] submodule defines the `cdst/1` *chip document* format
//! (grid, layers, capacities, workload, config overrides) used by
//! `cds-cli` and the `tests/fixtures/` archive, so harvested workloads
//! can be archived next to EXPERIMENTS.md and replayed byte-identically.
//! This module holds the two workload records every document shares —
//! their writers, and the per-record parsers the document reader calls,
//! so the record grammar exists exactly once:
//!
//! ```text
//! net <root_x> <root_y> : [<x> <y> ...]
//! chain <rat_ps> : <net>[/<cont_sink>] ...
//! ```
//!
//! Serialization is *total*: every line the writers emit parses back to
//! the value it came from, bit-identically. Floats are printed with
//! shortest-round-trip (`{:?}`) formatting, and a sink-less net's
//! `net x y :` record is accepted by the parser.
//!
//! # Examples
//!
//! ```
//! use cds_instgen::io::{chains_to_string, nets_to_string};
//! use cds_instgen::{Chain, ChainLink, Net};
//! use cds_geom::Point;
//!
//! let nets = vec![Net { root: Point::new(1, 2), sinks: vec![Point::new(3, 4)] }];
//! assert_eq!(nets_to_string(&nets), "net 1 2 : 3 4\n");
//! let chains = vec![Chain { links: vec![ChainLink { net: 0, cont_sink: None }], rat_ps: 0.5 }];
//! assert_eq!(chains_to_string(&chains), "chain 0.5 : 0\n");
//! ```

pub mod doc;

use crate::{Chain, ChainLink, Net};
use cds_geom::Point;
use std::fmt::Write as _;

/// Error from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWorkloadError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseWorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseWorkloadError {}

/// Serializes nets to the text format.
pub fn nets_to_string(nets: &[Net]) -> String {
    let mut out = String::new();
    for n in nets {
        let _ = write!(out, "net {} {} :", n.root.x, n.root.y);
        for s in &n.sinks {
            let _ = write!(out, " {} {}", s.x, s.y);
        }
        out.push('\n');
    }
    out
}

/// Serializes chains to the text format.
pub fn chains_to_string(chains: &[Chain]) -> String {
    let mut out = String::new();
    for c in chains {
        // {:?} is shortest-round-trip: parse_chain_record recovers
        // rat_ps bit-exactly ({} used to truncate to ~1e-9 relative error)
        let _ = write!(out, "chain {:?} :", c.rat_ps);
        for l in &c.links {
            match l.cont_sink {
                Some(s) => {
                    let _ = write!(out, " {}/{}", l.net, s);
                }
                None => {
                    let _ = write!(out, " {}", l.net);
                }
            }
        }
        out.push('\n');
    }
    out
}

fn err(line: usize, message: impl Into<String>) -> ParseWorkloadError {
    ParseWorkloadError { line, message: message.into() }
}

/// Parses the payload of one `net` record (everything after `net `) —
/// the [`doc`] parser's `net` handler.
pub(crate) fn parse_net_record(rest: &str, line: usize) -> Result<Net, ParseWorkloadError> {
    let (head, tail) = rest.split_once(':').ok_or_else(|| err(line, "missing ':' separator"))?;
    let mut hp = head.split_whitespace();
    let root = Point::new(
        hp.next().and_then(|v| v.parse().ok()).ok_or_else(|| err(line, "bad root x"))?,
        hp.next().and_then(|v| v.parse().ok()).ok_or_else(|| err(line, "bad root y"))?,
    );
    if let Some(extra) = hp.next() {
        return Err(err(line, format!("unexpected token {extra} after root coordinates")));
    }
    let coords: Vec<i32> = tail
        .split_whitespace()
        .map(|v| v.parse().map_err(|_| err(line, format!("bad coordinate {v}"))))
        .collect::<Result<_, _>>()?;
    // an empty tail is a sink-less net: the writer emits `net x y :` for
    // it, so the parser must accept it (serialization is total)
    if !coords.len().is_multiple_of(2) {
        return Err(err(line, "sink coordinates must come in pairs"));
    }
    let sinks = coords.chunks(2).map(|c| Point::new(c[0], c[1])).collect();
    Ok(Net { root, sinks })
}

/// Parses the payload of one `chain` record (everything after `chain `).
pub(crate) fn parse_chain_record(rest: &str, line: usize) -> Result<Chain, ParseWorkloadError> {
    let (head, tail) = rest.split_once(':').ok_or_else(|| err(line, "missing ':' separator"))?;
    let rat_ps: f64 = head.trim().parse().map_err(|_| err(line, "bad RAT"))?;
    let mut links = Vec::new();
    for tok in tail.split_whitespace() {
        let link = match tok.split_once('/') {
            Some((n, s)) => ChainLink {
                net: n.parse().map_err(|_| err(line, format!("bad net {n}")))?,
                cont_sink: Some(s.parse().map_err(|_| err(line, format!("bad sink {s}")))?),
            },
            None => ChainLink {
                net: tok.parse().map_err(|_| err(line, format!("bad net {tok}")))?,
                cont_sink: None,
            },
        };
        links.push(link);
    }
    if links.is_empty() {
        return Err(err(line, "empty chain"));
    }
    // INVARIANT: the empty-chain case returned an error just above, so links is nonempty.
    if links.last().expect("nonempty").cont_sink.is_some() {
        return Err(err(line, "last link must not continue"));
    }
    Ok(Chain { links, rat_ps })
}

#[cfg(test)]
mod tests {
    use super::doc::parse_chip_doc;
    use super::*;
    use crate::ChipSpec;

    /// Parses writer output one record per line, the way the document
    /// reader hands records over.
    fn parse_lines<T>(
        text: &str,
        prefix: &str,
        record: fn(&str, usize) -> Result<T, ParseWorkloadError>,
    ) -> Vec<T> {
        text.lines()
            .enumerate()
            .map(|(i, l)| record(l.strip_prefix(prefix).expect("record keyword"), i + 1).unwrap())
            .collect()
    }

    /// The smallest document head a workload record can follow.
    const HEAD: &str =
        "cdst/1\nchip t\ntech 2\ncelldelay 1.0\ngrid 4 4 1 1.0 1.0 1.0 1.0\nlayer H : 1.0 1.0 1.0\n";

    #[test]
    fn roundtrip_generated_chip() {
        let chip = ChipSpec::small_test(5).generate();
        let nets = parse_lines(&nets_to_string(&chip.nets), "net ", parse_net_record);
        let chains = parse_lines(&chains_to_string(&chip.chains), "chain ", parse_chain_record);
        assert_eq!(nets, chip.nets);
        // {:?} RAT formatting makes the round trip bit-exact
        assert_eq!(chains, chip.chains);
    }

    #[test]
    fn rat_round_trips_bit_exactly() {
        // Regression: rat_ps used to be written with `{}` (Display),
        // which truncates — round trips only held to ~1e-9 relative
        // error. Shortest-round-trip `{:?}` formatting recovers the
        // exact bits, including awkward values.
        let chains: Vec<Chain> = [0.1 + 0.2, 1.0 / 3.0, 1e-300, 7.0e300, 123456.78901234567]
            .into_iter()
            .map(|rat_ps| Chain { links: vec![ChainLink { net: 0, cont_sink: None }], rat_ps })
            .collect();
        let parsed = parse_lines(&chains_to_string(&chains), "chain ", parse_chain_record);
        assert_eq!(parsed.len(), chains.len());
        for (a, b) in parsed.iter().zip(&chains) {
            assert_eq!(a.rat_ps.to_bits(), b.rat_ps.to_bits(), "{} drifted", b.rat_ps);
        }
    }

    #[test]
    fn sink_less_net_round_trips() {
        // Regression: the writer emits `net x y :` for a sink-less net,
        // which the parser used to reject — write → parse was partial.
        let nets = vec![
            Net { root: Point::new(3, -4), sinks: Vec::new() },
            Net { root: Point::new(0, 0), sinks: vec![Point::new(1, 1)] },
        ];
        assert_eq!(parse_lines(&nets_to_string(&nets), "net ", parse_net_record), nets);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let doc = parse_chip_doc(&format!("{HEAD}# comment\n\nnet 0 0 : 1 1\n")).unwrap();
        assert_eq!(doc.nets.len(), 1);
        assert!(doc.chains.is_empty());
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let e = parse_net_record("0 0 : 1", 1).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("pairs"));

        // comments and blank lines count towards the reported line
        let e = parse_chip_doc(&format!("{HEAD}# ok\n\nnet 0 0 0 : 1 1\n")).unwrap_err();
        assert_eq!(e.line, 9);
        assert!(e.message.contains("after root"), "{e}");

        let e = parse_chain_record("x : 1", 1).unwrap_err();
        assert!(e.message.contains("RAT"));

        let e = parse_chain_record("5 : 1/0", 1).unwrap_err();
        assert!(e.message.contains("continue"), "{e}");
    }

    #[test]
    fn display_formats_error() {
        let e = ParseWorkloadError { line: 3, message: "boom".into() };
        assert_eq!(e.to_string(), "line 3: boom");
    }
}
