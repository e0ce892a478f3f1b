//! `cds-perf compare A.json B.json`: the regression verdict between two
//! result files written by `cds-perf run` (A the parent, B the change).
//!
//! Per (end-to-end metric, workload) it prints both medians, the
//! relative difference with its base, the bound from the registry, and
//! a verdict:
//!
//! * `ok` — B's median is not worse than A's by more than the bound;
//! * `worse` — it is, and the runs resolve it;
//! * `unresolved` — the wider of the two run-to-run spreads (IQR ÷
//!   median) exceeds the bound, so the runs cannot tell — unless every
//!   run of B reads better than every run of A (`ok`) or every run of B
//!   reads worse than every run of A by more than the bound (`worse`).
//!
//! Exact counters and checksums are diffed as well: on one commit two
//! result sets must agree on every one of them.

use crate::json::Json;
use crate::registry::{Better, END_TO_END};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is *worse* (negative: better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// The verdict rule of the module docs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse_by = worsening(a, b, better);
    if spread(a).max(spread(b)) <= bound {
        return if worse_by > bound { Verdict::Worse } else { Verdict::Ok };
    }
    // too noisy for the medians: only unanimous runs resolve it
    let badness = |v: f64| if better == Better::Lower { v } else { -v };
    let (a_best, a_worst) = a
        .iter()
        .map(|&v| badness(v))
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
    if b.iter().all(|&v| badness(v) < a_best) {
        Verdict::Ok
    } else if b.iter().all(|&v| badness(v) > a_worst + bound * median(a).abs()) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

fn values(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let v: Vec<f64> = file
        .at(&["workloads", workload, "end_to_end", metric, "values"])?
        .arr()
        .iter()
        .filter_map(Json::num)
        .collect();
    (!v.is_empty()).then_some(v)
}

/// Renders the comparison table; returns it with the number of `worse`
/// and `unresolved` rows and of differing counters/checksums.
///
/// # Errors
///
/// A file that is not a `cds-perf run` result.
pub fn compare(a: &Json, b: &Json) -> Result<(String, usize, usize, usize), String> {
    use std::fmt::Write as _;
    let workloads = a.get("workloads").ok_or("A has no workloads")?.members();
    let mut out = String::new();
    let (mut worse, mut unresolved, mut differing) = (0, 0, 0);
    let _ = writeln!(
        out,
        "{:<12} {:<20} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    for (name, wa) in workloads {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (values(a, name, m.name), values(b, name, m.name)) else {
                return Err(format!("{name}.{} is missing from a file", m.name));
            };
            let v = verdict(&va, &vb, m.better, m.bound);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            let _ = writeln!(
                out,
                "{:<12} {:<20} {:>12.5} {:>12.5} {:>+8.1}% {:>5.0}%  {} ({} better; spread A {:.1}% B {:.1}%; n {}/{})",
                name,
                m.name,
                median(&va),
                median(&vb),
                100.0 * (median(&vb) - median(&va)) / median(&va).abs(),
                100.0 * m.bound,
                v.as_str(),
                m.better.as_str(),
                100.0 * spread(&va),
                100.0 * spread(&vb),
                va.len(),
                vb.len()
            );
        }
        // exact integers and checksums: any difference is a real change
        let wb = b.at(&["workloads", name]).ok_or_else(|| format!("B lacks workload {name}"))?;
        for key in ["counters", "checksums"] {
            if wa.get(key) != wb.get(key) {
                differing += 1;
                let _ = writeln!(out, "{name:<12} {key} differ between the files");
            }
        }
    }
    let _ = writeln!(
        out,
        "{worse} worse, {unresolved} unresolved, {differing} workloads with differing counters/checksums"
    );
    Ok((out, worse, unresolved, differing))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rule() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // inside the bound
        assert_eq!(verdict(&a, &[10.5, 10.6, 10.4, 10.5, 10.5], Better::Lower, 0.10), Verdict::Ok);
        // beyond it, tight runs
        assert_eq!(
            verdict(&a, &[11.5, 11.6, 11.4, 11.5, 11.5], Better::Lower, 0.10),
            Verdict::Worse
        );
        // the same numbers are an improvement when higher is better
        assert_eq!(verdict(&a, &[11.5, 11.6, 11.4, 11.5, 11.5], Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(verdict(&a, &[8.0, 8.1, 7.9, 8.0, 8.0], Better::Higher, 0.10), Verdict::Worse);
        // spread wider than the bound: unresolved …
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&a, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        // … unless every run of B beats every run of A
        assert_eq!(verdict(&noisy, &[7.0, 7.5, 7.9, 7.2, 7.4], Better::Lower, 0.10), Verdict::Ok);
        // … or loses to every run of A by more than the bound
        assert_eq!(
            verdict(&noisy, &[14.0, 15.0, 13.5, 14.2, 16.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert!((worsening(&a, &[11.0], Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(&a, &[11.0], Better::Higher) + 0.1).abs() < 1e-12);
    }
}
