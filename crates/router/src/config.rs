//! The router's tuning knobs and their textual form — the `key value`
//! pairs of a `cdst` document's `config` records, `cds-cli --set`, and
//! a daemon submission's query string all pass through
//! [`RouterConfig::set_knob`], which is therefore where outside values
//! are range-checked.

use crate::SteinerMethod;

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Which Steiner oracle to use.
    pub method: SteinerMethod,
    /// Rip-up & re-route iterations.
    pub iterations: usize,
    /// Worker threads (the paper uses 16).
    pub threads: usize,
    /// Use the calibrated bifurcation penalty (`d_bif > 0` tables) or not.
    pub use_dbif: bool,
    /// λ shielding limit η.
    pub eta: f64,
    /// RNG seed (forwarded to CD's randomized placement).
    pub seed: u64,
    /// Routing window margin around each net's bounding box (gcells).
    pub window_margin: u32,
    /// Congestion price exponent per unit utilization, scaled by the
    /// iteration number.
    pub price_alpha: f64,
    /// Temperature (ps) of the slack → delay-weight update.
    pub weight_tau_ps: f64,
    /// Collect final-iteration instances for the Table I/II comparisons.
    pub harvest: bool,
    /// Incremental rip-up & re-route: after the first full iteration,
    /// reroute only *dirty* nets — a net touching an overflowed edge, a
    /// net with a negative-slack sink, or a net whose window prices /
    /// delay weights / budgets moved beyond [`price_tol`](Self::price_tol)
    /// since it was last routed — while clean nets keep their previous
    /// [`RoutedNet`](crate::RoutedNet) verbatim, with incremental usage
    /// accounting and incremental STA. `false` is the full-reroute reference backend
    /// (every net, every iteration), which incremental mode reproduces
    /// bit-identically at `price_tol: 0.0` (pinned by
    /// `tests/incremental.rs`).
    pub incremental: bool,
    /// Dirtiness tolerance of incremental mode: a clean net's window
    /// prices, delay weights and budgets (when the oracle reads them)
    /// must have stayed within this accumulated relative change since
    /// the net was last routed. `0.0` means "rip up on any bit of
    /// change" — exact but rarely skipping, because the sharpening
    /// price schedule (`alpha = price_alpha · iteration`) moves every
    /// used edge's price every iteration by roughly
    /// `exp(utilization) − 1`. The default of `2.0` lets a clean net's
    /// window prices move up to ~3× before a refresh reroute, which on
    /// a converging chip means quiet nets are revisited every few
    /// iterations while overflow/negative-slack nets (the nets that
    /// matter) are ripped up unconditionally every iteration.
    pub price_tol: f64,
    /// Every `recount_every` iterations incremental mode recomputes the
    /// usage vector exactly from all routed nets (and asserts the
    /// incremental accounting matched), bounding float drift from
    /// subtract/add cycles. `0` disables periodic recounts.
    pub recount_every: usize,
    /// Region-parallel routing: partition the die into this many
    /// rectangular shards ([`cds_graph::ShardGrid`]) and schedule each
    /// iteration's rip-up in two phases — nets whose routing window lies entirely
    /// inside one shard are claimed a whole shard at a time
    /// (embarrassingly parallel, good worker locality), then the
    /// boundary-crossing nets run through the plain per-net work queue.
    /// Purely a scheduling knob: per-net results depend only on per-net
    /// inputs and the merge stays in global net order, so results are
    /// bit-identical across shard counts (pinned alongside the thread
    /// pins). `1` (the default) is the unsharded work queue.
    pub shards: usize,
    /// Emit a resumable checkpoint (`cdst/2` `state` section) after
    /// every this many completed rip-up iterations, except after the
    /// final one. `0` (the default) disables checkpointing. A run
    /// resumed from such a checkpoint reproduces the uninterrupted
    /// run's checksum bit-for-bit (see
    /// [`Router::run_checkpointed`](crate::Router::run_checkpointed)).
    pub checkpoint_every: usize,
}

impl RouterConfig {
    /// Sets one knob from a textual `key value` pair — the interpreter
    /// of a `cdst/1` document's `config` records and `cds-cli`'s
    /// `--set` overrides. Keys are the field names of this struct
    /// (`oracle` is accepted as an alias for `method`); booleans accept
    /// `true/false/1/0/on/off`. [`records`](Self::records) is the
    /// inverse.
    ///
    /// # Errors
    ///
    /// An unknown key, an unparsable value, or a value outside the
    /// range the router can run with (`iterations < 1`, a non-finite
    /// float, `eta` outside `[0, 1]`, `weight_tau_ps <= 0`, negative
    /// `price_alpha` or `price_tol`), as a human-readable message
    /// naming key and value.
    pub fn set_knob(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value {v} for {key}"))
        }
        /// A finite float that passes `ok` — a NaN let through here
        /// would surface as a solver assert inside the first routed net.
        fn float(key: &str, v: &str, ok: fn(f64) -> bool, want: &str) -> Result<f64, String> {
            let x: f64 = num(key, v)?;
            if x.is_finite() && ok(x) {
                Ok(x)
            } else {
                Err(format!("bad value {v} for {key} (want {want})"))
            }
        }
        fn boolean(key: &str, v: &str) -> Result<bool, String> {
            match v {
                "true" | "1" | "on" => Ok(true),
                "false" | "0" | "off" => Ok(false),
                _ => Err(format!("bad boolean {v} for {key} (want true/false/1/0/on/off)")),
            }
        }
        match key {
            "method" | "oracle" => self.method = value.parse().map_err(|e| format!("{e}"))?,
            "iterations" => {
                // iteration 0 is what routes every net: a run of zero
                // iterations would report an unrouted chip as a result
                self.iterations = match num(key, value)? {
                    0 => return Err(format!("bad value {value} for {key} (want an integer >= 1)")),
                    n => n,
                }
            }
            "threads" => self.threads = num(key, value)?,
            "use_dbif" => self.use_dbif = boolean(key, value)?,
            "eta" => {
                self.eta = float(key, value, |x| (0.0..=1.0).contains(&x), "a number in [0, 1]")?
            }
            "seed" => self.seed = num(key, value)?,
            "window_margin" => self.window_margin = num(key, value)?,
            "price_alpha" => {
                self.price_alpha = float(key, value, |x| x >= 0.0, "a finite number >= 0")?
            }
            "weight_tau_ps" => {
                self.weight_tau_ps = float(key, value, |x| x > 0.0, "a finite number > 0")?
            }
            "harvest" => self.harvest = boolean(key, value)?,
            "incremental" => self.incremental = boolean(key, value)?,
            "price_tol" => {
                self.price_tol = float(key, value, |x| x >= 0.0, "a finite number >= 0")?
            }
            "recount_every" => self.recount_every = num(key, value)?,
            // batched search is gone; checkpoints written while it was
            // a knob carry `batch false`, which must keep loading
            "batch" => {
                if boolean(key, value)? {
                    return Err(format!(
                        "bad value {value} for {key} (batched search was removed)"
                    ));
                }
            }
            "shards" => self.shards = num(key, value)?,
            "checkpoint_every" => self.checkpoint_every = num(key, value)?,
            _ => return Err(format!("unknown router knob {key}")),
        }
        Ok(())
    }

    /// This config as `config` records — every knob
    /// [`set_knob`](Self::set_knob) accepts, in field order — so a
    /// checkpoint document resumed without any flags routes under
    /// exactly the config the interrupted run used. Replaying the
    /// records through `set_knob` reproduces `self`.
    pub fn records(&self) -> Vec<(String, String)> {
        let b = |v: bool| if v { "true" } else { "false" }.to_string();
        vec![
            ("oracle".into(), self.method.to_string()),
            ("iterations".into(), self.iterations.to_string()),
            ("threads".into(), self.threads.to_string()),
            ("use_dbif".into(), b(self.use_dbif)),
            ("eta".into(), format!("{:?}", self.eta)),
            ("seed".into(), self.seed.to_string()),
            ("window_margin".into(), self.window_margin.to_string()),
            ("price_alpha".into(), format!("{:?}", self.price_alpha)),
            ("weight_tau_ps".into(), format!("{:?}", self.weight_tau_ps)),
            ("harvest".into(), b(self.harvest)),
            ("incremental".into(), b(self.incremental)),
            ("price_tol".into(), format!("{:?}", self.price_tol)),
            ("recount_every".into(), self.recount_every.to_string()),
            ("shards".into(), self.shards.to_string()),
            ("checkpoint_every".into(), self.checkpoint_every.to_string()),
        ]
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            method: SteinerMethod::Cd,
            iterations: 5,
            threads: std::thread::available_parallelism().map_or(8, |p| p.get()).min(16),
            use_dbif: false,
            eta: 0.25,
            seed: 0xC0FFEE,
            window_margin: 6,
            price_alpha: 1.0,
            weight_tau_ps: 250.0,
            harvest: false,
            incremental: true,
            price_tol: 2.0,
            recount_every: 4,
            shards: 1,
            checkpoint_every: 0,
        }
    }
}
