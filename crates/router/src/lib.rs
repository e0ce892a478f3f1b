#![forbid(unsafe_code)]
//! Timing-constrained global routing with a Steiner tree oracle.
//!
//! A laptop-scale reproduction of the routing framework the paper
//! evaluates in (§IV, after Held et al. \[13\]): Lagrangean relaxation of
//! the global timing and routing constraints turns the per-net subproblem
//! into exactly the cost-distance Steiner tree problem of Eq. (1) — edge
//! prices `c(e)` from congestion, sink delay weights `w(t)` from timing
//! criticality. The loop:
//!
//! 1. price every edge from current usage (multiplicative weights,
//!    prices never drop below base cost so A* stays admissible),
//! 2. rip-up & re-route with the configured oracle (L1/SL/PD/CD, §IV-A)
//!    inside a bounding-box window, in parallel — every net in the
//!    first iteration, then (by default) only *dirty* nets: overflow
//!    touchers, negative-slack nets, and nets whose window prices /
//!    weights / budgets drifted beyond [`RouterConfig::price_tol`]
//!    (clean nets keep their routes; see the `schedule` module docs),
//! 3. run STA over the chip's timing chains — incrementally, only the
//!    cones of changed arcs — and update the delay weights from
//!    slacks, repeat.
//!
//! Outputs are the paper's Table IV/V columns: WS, TNS, ACE4, wirelength,
//! vias, walltime, plus [`RouterStats`] (how much rip-up actually ran).
//!
//! # Module map
//!
//! `config` — the knobs and their textual form · `pricing` — the price
//! and multiplier policy, pure functions · `loop_state` — the rip-up
//! loop's carry, its one iteration, `Mode` · `schedule` — the dirty-net
//! tracker · `dispatch` — per-net routing and the worker pool ·
//! `timing` — the chip's timing DAG · `checkpoint` — the `cdst/2`
//! state translations · `outcome` — results, stats, checksum ·
//! [`oracle`] — the Steiner oracles · [`report`] — the route JSON.
//!
//! # Examples
//!
//! ```no_run
//! use cds_instgen::ChipSpec;
//! use cds_router::{Router, RouterConfig, SteinerMethod};
//!
//! let chip = ChipSpec::small_test(1).generate();
//! let config = RouterConfig { method: SteinerMethod::Cd, ..RouterConfig::default() };
//! let outcome = Router::new(&chip, config).run();
//! println!("WS {:.0}ps TNS {:.0}ps ACE4 {:.1}%", outcome.metrics.ws,
//!          outcome.metrics.tns, outcome.metrics.ace4);
//! ```

mod checkpoint;
mod config;
mod dispatch;
mod loop_state;
pub mod oracle;
mod outcome;
mod pricing;
pub mod report;
mod schedule;
mod timing;

pub use config::RouterConfig;
pub use dispatch::WorkerPool;
pub use oracle::{
    CdOracle, L1Oracle, OracleRequest, OracleWorkspace, PdOracle, SlOracle, SteinerMethod,
    SteinerOracle, UnknownMethod,
};
pub use outcome::{HarvestedInstance, NetView, RoutedNet, RouterStats, RoutingOutcome};

use cds_instgen::io::doc::StateSection;
use cds_instgen::Chip;
use cds_topo::BifurcationConfig;
use loop_state::LoopState;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Cooperative run control shared between a
/// [`Router::run_checkpointed`] call and whoever may want to stop it
/// (another thread, a server's `DELETE /jobs/:id` handler, a signal
/// hook).
///
/// Cancellation is checked once per rip-up iteration, *before*
/// iterations `1..`: the first iteration always completes, so a
/// cancelled run still returns a [`RoutingOutcome`] in which every net
/// has a route, final metrics/STA are consistent with the routed state,
/// and [`RouterStats::cancelled`] is set with the per-iteration
/// counters covering exactly the iterations that ran.
#[derive(Debug, Default)]
pub struct RunControl {
    cancelled: AtomicBool,
}

impl RunControl {
    /// A fresh, uncancelled control.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; the run stops before its next rip-up
    /// iteration. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// The timing-constrained global router.
///
/// Dispatches every per-net routing call through a
/// [`SteinerOracle`] trait object: [`new`](Router::new) resolves the
/// configured [`SteinerMethod`] to its built-in oracle, and
/// [`with_oracle`](Router::with_oracle) accepts any external
/// implementation — the router itself never inspects the method again.
pub struct Router<'a> {
    pub(crate) chip: &'a Chip,
    pub(crate) config: RouterConfig,
    /// Chip-wide per-edge delays, computed once — window views index
    /// them directly with global edge ids, so no per-net delay vector
    /// is ever built.
    pub(crate) delays: Vec<f64>,
    pub(crate) oracle: Box<dyn SteinerOracle>,
}

impl<'a> Router<'a> {
    /// Prepares a router for `chip` with the built-in oracle named by
    /// `config.method`.
    pub fn new(chip: &'a Chip, config: RouterConfig) -> Self {
        let oracle = Box::new(config.method.oracle());
        Self::with_oracle(chip, config, oracle)
    }

    /// Prepares a router that routes every net with the given oracle
    /// (`config.method` is ignored for routing and kept only for
    /// labels).
    pub fn with_oracle(
        chip: &'a Chip,
        config: RouterConfig,
        oracle: Box<dyn SteinerOracle>,
    ) -> Self {
        let delays = chip.grid.graph().delays();
        Router { chip, config, delays, oracle }
    }

    /// The oracle this router dispatches to.
    pub fn oracle(&self) -> &dyn SteinerOracle {
        self.oracle.as_ref()
    }

    /// The bifurcation config this run uses.
    pub fn bif(&self) -> BifurcationConfig {
        if self.config.use_dbif {
            BifurcationConfig::new(self.chip.delay_model.dbif_ps(), self.config.eta)
        } else {
            BifurcationConfig::ZERO
        }
    }

    /// Runs the full rip-up & re-route loop.
    ///
    /// With [`RouterConfig::incremental`] (the default), iterations
    /// after the first rip up only the nets the dirty-net scheduler
    /// marks (see [`RouterConfig::price_tol`]); clean nets keep their
    /// previous [`RoutedNet`] verbatim, usage is maintained by
    /// subtracting a ripped net's old edges and adding its new ones
    /// (with periodic exact recounts), and timing is refreshed by
    /// re-propagating only the cones of the arcs that changed
    /// ([`cds_sta::IncrementalSta`]). Determinism is preserved: the schedule is
    /// derived from shared per-iteration state, every per-net result
    /// depends only on that net's inputs, and results are identical
    /// across thread counts.
    pub fn run(&self) -> RoutingOutcome {
        self.run_checkpointed(
            &mut WorkerPool::new(),
            &RunControl::new(),
            &mut |_, _| {},
            None,
            &mut |_, _| {},
        )
    }

    /// [`run`](Self::run) with externally-owned warm state, cooperative
    /// control, and the checkpoint/resume surface — the form a
    /// long-running service and `cds-cli route` drive:
    ///
    /// * `pool` supplies the per-thread oracle workspaces and scratch
    ///   forests, kept warm across calls (and across different chips);
    ///   [`run`](Self::run) is exactly this with a throwaway pool.
    ///   Reuse is bit-identical to a fresh pool.
    /// * `ctrl` is polled between rip-up iterations; see [`RunControl`]
    ///   for the partial-result contract of a cancelled run.
    /// * `progress` is called after every completed iteration with the
    ///   iteration index and the stats accumulated so far (its
    ///   `rerouted_per_iter`/`iter_wall_s` tails are that iteration's
    ///   entries) — a server's status endpoint reads its snapshots.
    /// * with [`RouterConfig::checkpoint_every`] set, `on_checkpoint`
    ///   receives `(completed_iterations, state)` after every K-th
    ///   completed rip-up iteration (never after the final one — a
    ///   finished run has nothing to resume). The [`StateSection`] is
    ///   the `cdst/2` `state` payload: ledgers, per-net scheduler
    ///   state, every routed tree, and the deterministic work counters.
    /// * with `resume` set, the loop restores that state and continues
    ///   from its absolute iteration number — preserving the price
    ///   schedule (`alpha = price_alpha · iteration`), the recount
    ///   phase, and the dirty tracker's references — so the resumed
    ///   run's outcome checksum is bit-for-bit the uninterrupted run's
    ///   (pinned by `checkpoint_resume_reproduces_the_uninterrupted_checksum`).
    ///
    /// # Panics
    ///
    /// Panics if `resume` does not belong to this chip/config (ledger
    /// or arity mismatch, or an incremental run handed the state of an
    /// `incremental = false` one, which carries no scheduler state).
    /// Parse-level validation (`cdst/2` documents) catches malformed
    /// state before it gets here.
    pub fn run_checkpointed(
        &self,
        pool: &mut WorkerPool,
        ctrl: &RunControl,
        progress: &mut dyn FnMut(usize, &RouterStats),
        resume: Option<&StateSection>,
        on_checkpoint: &mut dyn FnMut(usize, StateSection),
    ) -> RoutingOutcome {
        let start = Instant::now();
        let mut state = match resume {
            Some(s) => LoopState::restore(self, s),
            None => LoopState::fresh(self),
        };
        // workers are reused across nets, rip-up iterations, and
        // (through the caller's pool) whole jobs
        let workers = pool.ensure(self.num_workers());
        let (iterations, every) = (self.config.iterations, self.config.checkpoint_every);
        for iter in resume.map_or(0, |s| s.iteration)..iterations {
            // cooperative cancellation point: iteration 0 always runs,
            // so even a cancelled outcome has every net routed
            if iter > 0 && ctrl.is_cancelled() {
                state.stats.cancelled = true;
                break;
            }
            let iter_start = Instant::now();
            let prices = state.step(self, iter, workers);
            state.stats.iter_wall_s.push(iter_start.elapsed().as_secs_f64());
            progress(iter, &state.stats);

            // periodic resumable checkpoint — after the weight/budget
            // update so the state is exactly the loop's carry into the
            // next iteration; the final iteration is skipped (a
            // finished run has nothing to resume)
            if every > 0 && (iter + 1) % every == 0 && iter + 1 < iterations {
                on_checkpoint(iter + 1, state.export(iter + 1, &prices));
            }
        }
        let mut outcome = state.finish(self);
        outcome.metrics.walltime_s = start.elapsed().as_secs_f64();
        outcome
    }
}

#[cfg(test)]
mod tests;
