//! The Lagrangean price and multiplier policy, as pure functions of
//! slices and scalars: edge prices from the usage history
//! ([`prices`], [`blend_history`]), sink delay weights from slacks
//! ([`INITIAL_WEIGHT`], [`updated_weight`]), and the SL delay budgets
//! ([`budget`]). The rip-up loop (`loop_state`) is their only caller;
//! every constant of the schedule lives here.

/// Multiplicative-weight congestion pricing: `base · exp(min(6,
/// price_alpha · iteration · usage_hist / capacity))` per edge. A price
/// never drops below base cost (A* admissibility) and grows
/// exponentially with utilization, sharpening each iteration. The
/// exponent is capped so hopeless hot spots do not destroy the price
/// landscape for everyone else.
pub(crate) fn prices(
    base: &[f64],
    capacity: &[f64],
    usage_hist: &[f64],
    price_alpha: f64,
    iteration: usize,
) -> Vec<f64> {
    let alpha = price_alpha * iteration as f64;
    base.iter()
        .zip(capacity)
        .zip(usage_hist)
        .map(|((&b, &cap), &u)| b * (alpha * u / cap.max(1e-9)).min(6.0).exp())
        .collect()
}

/// Blends this iteration's usage into the pricing history (the first
/// iteration seeds it). Damping avoids the herding oscillation of
/// cost-seeking oracles on frozen prices.
pub(crate) fn blend_history(hist: &mut [f64], usage: &[f64], iteration: usize) {
    for (h, &u) in hist.iter_mut().zip(usage) {
        *h = if iteration == 0 { u } else { 0.5 * *h + 0.5 * u };
    }
}

/// Every sink's starting delay weight (Lagrange multiplier). Nonzero
/// so each sink's delay is weakly priced from the first route on — TNS
/// counts all endpoints, and a zero-weight sink would be free to
/// meander.
pub(crate) const INITIAL_WEIGHT: f64 = 0.05;

/// The multiplicative slack update of one delay weight: negative slack
/// grows it, positive slack decays it, at temperature `tau_ps`, clamped
/// to `[1e-3, 2]`. A sink without a finite slack (no required time
/// downstream) keeps its weight.
pub(crate) fn updated_weight(w: f64, slack_ps: f64, tau_ps: f64) -> f64 {
    if slack_ps.is_finite() {
        (w * (-slack_ps / tau_ps).exp()).clamp(1e-3, 2.0)
    } else {
        w
    }
}

/// The absolute delay budget of one sink: what timing actually allows
/// it — the achieved delay plus its slack — floored at `direct`, the
/// direct-connection delay, which is always achievable. Unconstrained
/// sinks (non-finite slack) get an effectively unbounded budget.
pub(crate) fn budget(achieved: f64, slack: f64, direct: f64) -> f64 {
    let allowed = if slack.is_finite() { achieved + slack } else { f64::MAX / 4.0 };
    allowed.max(direct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prices_start_at_base_and_stay_within_base_times_e6() {
        let base = [1.0, 2.5, 0.75, 3.0];
        let cap = [4.0, 0.0, 1e-12, 8.0];
        let hist = [2.0, 5.0, 1e30, 0.0];
        let first = prices(&base, &cap, &hist, 1.0, 0);
        assert!(
            first.iter().zip(&base).all(|(p, b)| p.to_bits() == b.to_bits()),
            "iteration 0 is base, bit for bit: {first:?}"
        );
        for (alpha, iteration) in [(1.0, 1), (0.25, 3), (1e300, 1000), (0.0, 7)] {
            let p = prices(&base, &cap, &hist, alpha, iteration);
            for (e, (&p, &b)) in p.iter().zip(&base).enumerate() {
                assert!(p.is_finite() && p >= b, "edge {e}: price {p} vs base {b}");
                assert!(p / b <= 6f64.exp() * (1.0 + 1e-12), "edge {e}: exponent above 6");
            }
        }
        // unused edges stay at base whatever the iteration
        assert_eq!(prices(&base, &cap, &hist, 1.0, 9)[3], base[3]);
    }

    #[test]
    fn updated_weight_is_clamped_monotone_and_ignores_missing_slack() {
        let slacks = [-1e6, -400.0, -80.0, -1.0, 0.0, 1.0, 80.0, 400.0, 1e6];
        for w in [1e-3, INITIAL_WEIGHT, 0.7, 2.0] {
            let updated = slacks.map(|s| updated_weight(w, s, 250.0));
            assert!(updated.iter().all(|u| (1e-3..=2.0).contains(u)), "{w}: {updated:?}");
            // the more negative the slack, the larger the weight
            assert!(updated.windows(2).all(|p| p[0] >= p[1]), "{w}: {updated:?}");
            assert_eq!(updated[4], w, "zero slack leaves the weight alone");
            for missing in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                assert_eq!(updated_weight(w, missing, 250.0), w);
            }
        }
    }

    #[test]
    fn budget_is_achieved_plus_slack_floored_at_the_direct_delay() {
        assert_eq!(budget(120.0, 30.0, 50.0), 150.0);
        assert_eq!(budget(120.0, -100.0, 50.0), 50.0);
        assert_eq!(budget(120.0, -1e9, 50.0), 50.0);
        assert!(budget(120.0, f64::INFINITY, 50.0) > 1e300);
    }
}
