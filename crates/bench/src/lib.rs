//! Shared harness for regenerating the paper's tables and figures.
//!
//! The `repro` binary and the figure benches both drive experiments
//! through [`Harness`], which builds scenes, runs the simulator for each
//! design variant, and memoizes reports so a figure that needs the
//! baseline and three designs does not re-simulate the baseline four
//! times.
//!
//! # Module map
//!
//! | module | role |
//! |---|---|
//! | crate root | [`Harness`] (memoizing runner), [`Variant`] (design + experiment knobs), [`Sweep`] (job-matrix builder), [`CsvSink`] |
//! | [`pool`] | `std::thread::scope` worker pool with deterministic, input-ordered merge |
//! | [`manifest`] | `BENCH_repro.json` run manifests (per-figure wall-times, cells/sec, per-cell report summaries) |
//! | [`microbench`] | std-only timing harness for the `benches/fig*.rs` targets |
//!
//! # Parallel sweeps
//!
//! The experiment matrix — every `(workload, resolution, variant)` cell
//! of Table II × the design points — is embarrassingly parallel. Build the
//! cell list with [`Sweep`], fan it out with [`Harness::precompute`],
//! then print figures from the warm cache; because the pool merges
//! results in input order and the printers only read memoized reports,
//! the output (stdout tables, `results/*.csv`) is byte-identical to a
//! serial run. See `docs/PARALLELISM.md` for the design and the
//! `PIMGFX_THREADS` override.
//!
//! ```no_run
//! use pimgfx_bench::{Harness, Sweep, Variant};
//! use pimgfx::Design;
//!
//! let mut h = Harness::new(2);
//! let columns = Harness::columns(true);
//! let sweep = Sweep::matrix(&columns, &[Variant::Design(Design::Baseline),
//!                                       Variant::Design(Design::ATfim)]);
//! let stats = h.precompute(&sweep)?; // parallel fan-out
//! assert_eq!(stats.cells_executed, sweep.len());
//! // every later h.run(...) on these cells is a cache hit
//! # Ok::<(), pimgfx_types::Error>(())
//! ```

// --- lint wall (checked byte-for-byte by `cargo xtask lint`) ---
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::dbg_macro, clippy::print_stdout, clippy::print_stderr)]

pub mod manifest;
pub mod pool;

use pimgfx::{
    Design, FragmentStreamCache, FrontendCacheStats, RenderReport, SampleKey, SimConfig, Simulator,
};
use pimgfx_quality::psnr;
use pimgfx_types::{ConfigError, Error, FxHashSet, Result};
use pimgfx_workloads::{Game, Resolution, SceneCache, SceneTrace, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result alias for harness operations, which can fail on configuration
/// *or* I/O (CSV output).
pub type HarnessResult<T> = std::result::Result<T, Error>;

/// A design variant to simulate — a design point plus the experiment
/// knobs the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// Plain design at default settings (A-TFIM at the default 0.01π).
    Design(Design),
    /// Baseline GPU with anisotropic filtering disabled (Fig. 4).
    AnisoOff,
    /// A-TFIM at an explicit angle threshold, as a fraction of π.
    AtfimThreshold(f32),
    /// A-TFIM with recalculation disabled entirely (`A-TFIM-no`).
    AtfimNoRecalc,
    /// A-TFIM without child-texel consolidation (ablation).
    AtfimNoConsolidation,
    /// A-TFIM without offload-package compression (ablation).
    AtfimNoCompression,
}

impl Variant {
    /// Stable key for memoization and report labels.
    pub fn label(self) -> String {
        match self {
            Variant::Design(d) => d.label().to_string(),
            Variant::AnisoOff => "aniso-off".to_string(),
            Variant::AtfimThreshold(f) => format!("a-tfim@{f}pi"),
            Variant::AtfimNoRecalc => "a-tfim-no".to_string(),
            Variant::AtfimNoConsolidation => "a-tfim-noconsol".to_string(),
            Variant::AtfimNoCompression => "a-tfim-nocompress".to_string(),
        }
    }

    /// Builds the simulator configuration for this variant.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn config(self) -> Result<SimConfig> {
        match self {
            Variant::Design(d) => SimConfig::builder().design(d).build(),
            Variant::AnisoOff => SimConfig::builder()
                .design(Design::Baseline)
                .max_aniso(1)
                .build(),
            Variant::AtfimThreshold(f) => SimConfig::builder()
                .design(Design::ATfim)
                .angle_threshold_pi_fraction(f)
                .build(),
            Variant::AtfimNoRecalc => SimConfig::builder()
                .design(Design::ATfim)
                .no_recalculation()
                .build(),
            Variant::AtfimNoConsolidation => SimConfig::builder()
                .design(Design::ATfim)
                .consolidation(false)
                .build(),
            Variant::AtfimNoCompression => SimConfig::builder()
                .design(Design::ATfim)
                .offload_compression(false)
                .build(),
        }
    }
}

/// The angle thresholds (fractions of π) swept by Figs. 14–16, strictest
/// first, ending with the no-recalculation configuration.
pub const THRESHOLD_SWEEP: [f32; 4] = [0.005, 0.01, 0.05, 0.1];

/// Everything the reproduction can regenerate, in output order: the
/// section names accepted by the `repro` binary and by `pimgfx-serve`
/// job submissions.
pub const SECTIONS: [&str; 14] = [
    "table1", "table2", "fig2", "fig4", "fig5", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "overhead", "ablation",
];

/// The design variants a section's benchmark-matrix cells need (empty
/// for the sections that print static tables or run bespoke structural
/// sweeps — `table1`, `table2`, `overhead`; the `ablation` section's
/// structural sweeps stay serial because each probes a bespoke
/// `SimConfig`, not a [`Variant`]).
///
/// Shared between the `repro` precompute fan-out and `pimgfx-serve`
/// job expansion, so a served section simulates exactly the cells the
/// batch binary would.
pub fn section_variants(section: &str) -> Vec<Variant> {
    let designs = || Design::ALL.map(Variant::Design).to_vec();
    let thresholds = || {
        let mut v: Vec<Variant> = vec![Variant::Design(Design::Baseline)];
        v.extend(THRESHOLD_SWEEP.map(Variant::AtfimThreshold));
        v.push(Variant::AtfimNoRecalc);
        v
    };
    match section {
        "fig2" => vec![Variant::Design(Design::Baseline)],
        "fig4" => vec![Variant::Design(Design::Baseline), Variant::AnisoOff],
        "fig5" => vec![
            Variant::Design(Design::Baseline),
            Variant::Design(Design::BPim),
        ],
        "fig10" | "fig11" | "fig13" => designs(),
        "fig12" => {
            let mut v = designs();
            v.push(Variant::AtfimThreshold(0.01));
            v.push(Variant::AtfimThreshold(0.05));
            v
        }
        "fig14" | "fig15" | "fig16" => thresholds(),
        "ablation" => vec![
            Variant::Design(Design::Baseline),
            Variant::Design(Design::ATfim),
            Variant::AtfimNoConsolidation,
            Variant::AtfimNoCompression,
        ],
        _ => Vec::new(),
    }
}

/// One cell of the experiment matrix: a benchmark column — a
/// [`Workload`] (Table II game or procedural [`SyntheticSpec`]) at a
/// resolution — plus the design variant to simulate on it.
///
/// [`SyntheticSpec`]: pimgfx_workloads::SyntheticSpec
pub type Cell = (Workload, Resolution, Variant);

/// Builder for the job matrix a parallel sweep executes.
///
/// A sweep is an ordered list of [`Cell`]s; [`Harness::precompute`]
/// deduplicates it (first occurrence wins), skips already-memoized
/// cells, and fans the rest out across the [`pool`]. Order matters only
/// for reproducible scheduling — results are merged deterministically
/// either way.
///
/// # Examples
///
/// ```
/// use pimgfx_bench::{Sweep, Variant};
/// use pimgfx::Design;
/// use pimgfx_workloads::{Game, Resolution};
///
/// let columns = [(Game::Doom3, Resolution::R320x240)];
/// let sweep = Sweep::matrix(&columns, &[Variant::Design(Design::Baseline)])
///     .cell(Game::Doom3, Resolution::R320x240, Variant::AnisoOff);
/// assert_eq!(sweep.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    cells: Vec<Cell>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cross product `columns × variants`, columns-major (all
    /// variants of a column are adjacent, matching the serial printers'
    /// traversal order). Columns are any workload identity — bare
    /// [`Game`]s and full [`Workload`]s both work.
    pub fn matrix<W: Into<Workload> + Copy>(
        columns: &[(W, Resolution)],
        variants: &[Variant],
    ) -> Self {
        let mut s = Self::new();
        s.extend_matrix(columns, variants);
        s
    }

    /// Appends one cell.
    #[must_use]
    pub fn cell(
        mut self,
        workload: impl Into<Workload>,
        res: Resolution,
        variant: Variant,
    ) -> Self {
        self.cells.push((workload.into(), res, variant));
        self
    }

    /// Appends the cross product `columns × variants`.
    pub fn extend_matrix<W: Into<Workload> + Copy>(
        &mut self,
        columns: &[(W, Resolution)],
        variants: &[Variant],
    ) {
        for &(w, r) in columns {
            for &v in variants {
                self.cells.push((w.into(), r, v));
            }
        }
    }

    /// Merges another sweep's cells after this one's.
    pub fn extend(&mut self, other: &Sweep) {
        self.cells.extend_from_slice(&other.cells);
    }

    /// The cells in insertion order (duplicates retained; precompute
    /// deduplicates).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells (including duplicates).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cell has been added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// What a [`Harness::precompute`] fan-out actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells simulated by this call (deduplicated, cache misses only).
    pub cells_executed: usize,
    /// Worker threads the pool used.
    pub workers: usize,
    /// Wall-clock time of the fan-out (scene builds + simulations).
    pub wall: Duration,
}

impl SweepStats {
    /// Cells per wall-clock second (0 when nothing ran).
    pub fn cells_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 || self.cells_executed == 0 {
            0.0
        } else {
            self.cells_executed as f64 / secs
        }
    }
}

/// Wall-clock split of one simulated cell: time spent obtaining the
/// variant-invariant frontend artifact (the [`pimgfx::FragmentStream`];
/// near zero on a stream-cache hit) versus time spent in the
/// variant-specific backend replay. A cell replayed in a variant batch
/// is charged an even share of the batch's split, so the cells of a
/// fan-out still sum to its work. Surfaced per cell in the run
/// manifest (schema v3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WallSplit {
    /// Milliseconds spent in `FragmentStreamCache::get` — the frontend
    /// build on a miss, a map lookup on a hit.
    pub frontend_ms: f64,
    /// Milliseconds spent replaying the backend (all timing models).
    pub backend_ms: f64,
    /// Replay lanes the backend pass actually used (after the
    /// simulator's clamp to the cluster count; 1 = fully serial replay).
    /// Surfaced per cell in the run manifest (schema v4).
    pub replay_lanes: usize,
}

/// Memoizing experiment runner.
#[derive(Debug)]
pub struct Harness {
    /// Frames per walkthrough.
    frames: usize,
    scenes: SceneCache,
    streams: Arc<FragmentStreamCache>,
    // BTreeMap, not a hash map: report cells are iterated into CSV and
    // manifest output, so the container order itself must be stable.
    reports: BTreeMap<(Workload, Resolution, String), RenderReport>,
    walls: BTreeMap<(String, String), WallSplit>,
    /// Pinned replay lane count (tests and A/B probes); `None` derives
    /// lanes from the shared [`pool`] budget and `PIMGFX_REPLAY_LANES`.
    replay_lanes_pin: Option<usize>,
    /// Load-balance accounting accumulated across `precompute` calls:
    /// per-cell wall milliseconds and the pool capacity
    /// (`workers × fan-out wall`) those cells ran under.
    lb: LoadBalanceAccum,
}

/// Accumulator behind [`Harness::load_balance`].
#[derive(Debug, Clone, Copy, Default)]
struct LoadBalanceAccum {
    cells: usize,
    sum_cell_ms: f64,
    max_cell_ms: f64,
    capacity_ms: f64,
}

/// Load-balance summary of a harness's parallel fan-outs (schema v4's
/// `load_balance` manifest block): how even the per-cell wall times
/// were and how much of the pool's capacity the cells actually filled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Slowest single cell, wall milliseconds.
    pub max_cell_ms: f64,
    /// Mean cell wall milliseconds.
    pub mean_cell_ms: f64,
    /// `Σ cell_ms / Σ (workers × fan-out wall)` — 1.0 means every
    /// worker was busy for the whole fan-out; low values mean the pool
    /// idled behind stragglers (what LPT ordering exists to prevent).
    pub pool_utilization: f64,
}

impl Harness {
    /// Creates a harness rendering `frames` frames per column.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: usize) -> Self {
        assert!(frames > 0, "need at least one frame");
        Self {
            frames,
            scenes: SceneCache::new(frames),
            streams: Arc::new(FragmentStreamCache::new(SimConfig::default().tile_px)),
            reports: BTreeMap::new(),
            walls: BTreeMap::new(),
            replay_lanes_pin: None,
            lb: LoadBalanceAccum::default(),
        }
    }

    /// Like [`Harness::new`], but with the scene cache bounded to
    /// `scene_capacity` resident columns (LRU eviction) — the
    /// constructor for long-lived processes such as `pimgfx-serve`,
    /// where an unbounded cache would grow with every distinct column
    /// ever requested. Evictions are visible via
    /// [`SceneCache::evictions`] on [`Harness::scenes`].
    ///
    /// # Panics
    ///
    /// Panics if `frames` or `scene_capacity` is zero.
    pub fn with_scene_capacity(frames: usize, scene_capacity: usize) -> Self {
        assert!(frames > 0, "need at least one frame");
        Self {
            frames,
            scenes: SceneCache::with_capacity(frames, scene_capacity),
            // Frontend streams are bounded alongside the scenes: a
            // stream is useless once its scene is gone, and both grow
            // with the set of distinct columns ever requested.
            streams: Arc::new(FragmentStreamCache::with_capacity(
                SimConfig::default().tile_px,
                scene_capacity,
            )),
            reports: BTreeMap::new(),
            walls: BTreeMap::new(),
            replay_lanes_pin: None,
            lb: LoadBalanceAccum::default(),
        }
    }

    /// Frames per walkthrough column.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The benchmark columns of Table II, or a reduced quick set.
    pub fn columns(quick: bool) -> Vec<(Workload, Resolution)> {
        let games = if quick {
            vec![
                (Game::Doom3, Resolution::R320x240),
                (Game::Wolfenstein, Resolution::R640x480),
            ]
        } else {
            Game::benchmark_matrix()
        };
        games
            .into_iter()
            .map(|(g, r)| (Workload::Game(g), r))
            .collect()
    }

    /// Short label for a column ("doom3-320x240", or
    /// "syn.&lt;params&gt;-1920x1080" for a synthetic column).
    pub fn column_label(workload: impl Into<Workload>, res: Resolution) -> String {
        format!("{}-{res}", workload.into())
    }

    /// The shared scene cache (each column's trace is built once and
    /// shared across variants and worker threads).
    pub fn scenes(&self) -> &SceneCache {
        &self.scenes
    }

    /// Scene-cache evictions so far (always 0 for [`Harness::new`]'s
    /// unbounded cache) — surfaced in the run manifest.
    pub fn scene_evictions(&self) -> u64 {
        self.scenes.evictions()
    }

    /// The shared frontend-stream cache (each column's rasterized
    /// fragment stream is built once and replayed by every variant).
    pub fn streams(&self) -> &Arc<FragmentStreamCache> {
        &self.streams
    }

    /// Snapshot of the frontend-stream cache's hit/miss/eviction
    /// counters — surfaced in the run manifest (schema v3).
    pub fn frontend_cache_stats(&self) -> FrontendCacheStats {
        self.streams.stats()
    }

    /// The wall-clock frontend/backend split recorded when a cell was
    /// simulated, keyed by `(column label, variant label)`. `None` for
    /// cells never run by this harness.
    pub fn wall_split(&self, column: &str, variant: &str) -> Option<WallSplit> {
        self.walls
            .get(&(column.to_string(), variant.to_string()))
            .copied()
    }

    /// Pins the replay lane count for every subsequent cell simulation
    /// (`Some(1)` forces fully serial replay; `None` restores the
    /// default: the shared [`pool`] budget split, overridable via
    /// `PIMGFX_REPLAY_LANES`). Exists so equivalence tests can sweep
    /// lane counts without racing each other over the environment.
    pub fn set_replay_lanes(&mut self, lanes: Option<usize>) {
        self.replay_lanes_pin = lanes;
    }

    /// Load-balance summary of every [`Harness::precompute`] fan-out so
    /// far, or `None` when no parallel fan-out has run (the serve job
    /// manifests and `--serial` runs therefore omit the block).
    pub fn load_balance(&self) -> Option<LoadBalance> {
        if self.lb.cells == 0 {
            return None;
        }
        Some(LoadBalance {
            max_cell_ms: self.lb.max_cell_ms,
            mean_cell_ms: self.lb.sum_cell_ms / self.lb.cells as f64,
            pool_utilization: if self.lb.capacity_ms > 0.0 {
                (self.lb.sum_cell_ms / self.lb.capacity_ms).min(1.0)
            } else {
                0.0
            },
        })
    }

    /// Resolves the replay lane count for cells running under a
    /// `cell_workers`-wide pool: the pinned value when set, else the
    /// shared-budget split (see [`pool::configured_replay_lanes`]).
    fn replay_lanes(&self, cell_workers: usize) -> Result<usize> {
        match self.replay_lanes_pin {
            Some(n) => Ok(n.max(1)),
            None => pool::configured_replay_lanes(cell_workers),
        }
    }

    /// Runs (or recalls) one experiment cell.
    ///
    /// This is the *serial* path: a cache miss simulates the cell on the
    /// calling thread. Use [`Harness::precompute`] first to fan a whole
    /// job matrix out across workers; subsequent `run` calls then hit
    /// the memoized reports.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation failures.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use pimgfx_bench::{Harness, Variant};
    /// use pimgfx::Design;
    /// use pimgfx_workloads::{Game, Resolution};
    ///
    /// let mut h = Harness::new(2);
    /// let report = h.run(Game::Doom3, Resolution::R320x240,
    ///                    Variant::Design(Design::ATfim))?;
    /// println!("{} cycles", report.total_cycles);
    /// # Ok::<(), pimgfx_types::Error>(())
    /// ```
    pub fn run(
        &mut self,
        workload: impl Into<Workload>,
        res: Resolution,
        variant: Variant,
    ) -> HarnessResult<&RenderReport> {
        let workload = workload.into();
        let key = (workload, res, variant.label());
        if !self.reports.contains_key(&key) {
            let scene = self.scenes.get(workload, res);
            // One cell on the calling thread: the whole budget is
            // available to the lane level.
            let lanes = self.replay_lanes(1)?;
            let (mut reports, wall) =
                simulate_batch(&scene, &[variant.config()?], &self.streams, lanes)?;
            let report = reports.pop().ok_or_else(|| {
                ConfigError::new("harness", "a one-cell batch returned no report")
            })?;
            self.walls
                .insert((Self::column_label(workload, res), variant.label()), wall);
            self.reports.insert(key.clone(), report);
        }
        self.reports
            .get(&key)
            .ok_or_else(|| ConfigError::new("harness", "report cache lost a just-run cell").into())
    }

    /// Fans every not-yet-memoized cell of `sweep` out across the
    /// worker [`pool`] and memoizes the results.
    ///
    /// Cells are deduplicated (first occurrence wins); unique scenes are
    /// built first — also in parallel — so no worker ever rebuilds a
    /// column another variant already needs. Each column's cells are
    /// then grouped by [`SampleKey`] and replayed in
    /// batches that share one sampling pass
    /// ([`Simulator::render_replay_batch`]); cells with equal
    /// configurations (`a-tfim` and `a-tfim@0.01pi`) share one
    /// simulator and each keeps a copy of its report. Batches are
    /// scheduled dynamically. The merge is deterministic (input order),
    /// which together with the serial printers makes parallel output
    /// byte-identical to serial output.
    ///
    /// # Errors
    ///
    /// Propagates the first configuration failure before simulating
    /// anything, then the first simulation failure in cell order;
    /// reports from cells before the failing one stay memoized.
    pub fn precompute(&mut self, sweep: &Sweep) -> HarnessResult<SweepStats> {
        // det:boundary — sweep wall-time for SweepStats reporting only;
        // simulated cycles come from the replay, never from this clock.
        let start = Instant::now();

        // Deduplicate against both the sweep itself and the cache.
        let mut seen: FxHashSet<(Workload, Resolution, String)> = FxHashSet::default();
        let mut todo: Vec<TodoCell> = Vec::new();
        for &(w, r, v) in sweep.cells() {
            let label = v.label();
            let key = (w, r, label.clone());
            if !self.reports.contains_key(&key) && seen.insert(key) {
                todo.push((w, r, v, label));
            }
        }
        let workers = pool::worker_count(todo.len())?;
        if todo.is_empty() {
            return Ok(SweepStats {
                cells_executed: 0,
                workers,
                wall: start.elapsed(),
            });
        }

        // Phase 1: build each unique scene — and its frontend fragment
        // stream — once, in parallel. Pre-warming the stream cache here
        // means phase 2's workers all hit it, so no two workers ever
        // duplicate a column's rasterization work by racing on a cold
        // entry.
        let mut columns: Vec<(Workload, Resolution)> = Vec::new();
        for &(w, r, _, _) in &todo {
            if !columns.contains(&(w, r)) {
                columns.push((w, r));
            }
        }
        let scenes = &self.scenes;
        let streams = &self.streams;
        let warmed: Vec<Result<()>> =
            pool::run_ordered(&columns, pool::worker_count(columns.len())?, |&(w, r)| {
                streams.get(&scenes.get(w, r)).map(|_| ())
            });
        for w in warmed {
            w?;
        }

        // Phase 2: simulate all cells, batched. A column's cells that
        // share a sample key replay as one batch over one shared
        // sampling pass, and cells with equal configurations share one
        // simulator (see `plan_batches`). Batches are handed to the pool
        // in LPT order — heaviest expected batch first (longest-
        // processing-time list scheduling) — so a straggler starts early
        // instead of serializing the tail of the fan-out. The atomic-
        // cursor pool pulls batches in slice order; the scatter below
        // restores `todo` order before any result is memoized, so
        // downstream bytes are unaffected by the schedule.
        let batches = plan_batches(&todo, workers)?;
        let workers = pool::worker_count(batches.len())?;
        let lanes = self.replay_lanes(workers)?;
        let batch_results: Vec<HarnessResult<(Vec<RenderReport>, WallSplit)>> =
            pool::run_ordered(&batches, workers, |b| {
                simulate_batch(&scenes.get(b.workload, b.res), &b.configs, streams, lanes)
            });
        // Scatter back to sweep order. Each cell of a batch is charged
        // an even share of the batch's wall time, so the per-cell times
        // still partition the fan-out. A failed batch reports its error
        // at its first cell in sweep order.
        let mut results: Vec<Option<HarnessResult<(RenderReport, WallSplit)>>> =
            (0..todo.len()).map(|_| None).collect();
        for (batch, result) in batches.iter().zip(batch_results) {
            match result {
                Ok((reports, total)) => {
                    let share = 1.0 / batch.cells.iter().map(Vec::len).sum::<usize>() as f64;
                    let wall = WallSplit {
                        frontend_ms: total.frontend_ms * share,
                        backend_ms: total.backend_ms * share,
                        replay_lanes: total.replay_lanes,
                    };
                    for (report, cells) in reports.into_iter().zip(&batch.cells) {
                        if let Some((&last, rest)) = cells.split_last() {
                            for &cell in rest {
                                results[cell] = Some(Ok((report.clone(), wall)));
                            }
                            results[last] = Some(Ok((report, wall)));
                        }
                    }
                }
                Err(e) => {
                    if let Some(&first) = batch.cells.iter().flatten().min() {
                        results[first] = Some(Err(e));
                    }
                }
            }
        }

        let wall = start.elapsed();
        let cells_executed = todo.len();
        let mut lb_batch = LoadBalanceAccum::default();
        for ((w, r, v, label), result) in todo.into_iter().zip(results) {
            let (report, wall) = result.ok_or_else(|| {
                ConfigError::new("harness", "a batch returned no report for one of its cells")
            })??;
            let cell_ms = wall.frontend_ms + wall.backend_ms;
            lb_batch.cells += 1;
            lb_batch.sum_cell_ms += cell_ms;
            lb_batch.max_cell_ms = lb_batch.max_cell_ms.max(cell_ms);
            self.walls
                .insert((Self::column_label(w, r), v.label()), wall);
            self.reports.insert((w, r, label), report);
        }
        self.lb.cells += lb_batch.cells;
        self.lb.sum_cell_ms += lb_batch.sum_cell_ms;
        self.lb.max_cell_ms = self.lb.max_cell_ms.max(lb_batch.max_cell_ms);
        self.lb.capacity_ms += workers as f64 * wall.as_secs_f64() * 1000.0;
        Ok(SweepStats {
            cells_executed,
            workers,
            wall,
        })
    }

    /// Every memoized report, sorted by `(column label, variant label)`
    /// — the deterministic order the run manifest records.
    pub fn report_cells(&self) -> Vec<(String, String, &RenderReport)> {
        let mut cells: Vec<(String, String, &RenderReport)> = self
            .reports
            .iter()
            .map(|((w, r, label), rep)| (Self::column_label(*w, *r), label.clone(), rep))
            .collect();
        cells.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        cells
    }

    /// Convenience: the baseline report for a column.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation failures.
    pub fn baseline(
        &mut self,
        workload: impl Into<Workload>,
        res: Resolution,
    ) -> HarnessResult<RenderReport> {
        Ok(self
            .run(workload, res, Variant::Design(Design::Baseline))?
            .clone())
    }

    /// PSNR of a variant's last frame against the baseline's.
    ///
    /// # Errors
    ///
    /// Propagates configuration and simulation failures, and the
    /// metric's dimension-mismatch rejection (impossible here by
    /// construction — both frames come from the same resolution cell —
    /// but surfaced rather than swallowed).
    pub fn psnr_vs_baseline(
        &mut self,
        workload: impl Into<Workload>,
        res: Resolution,
        variant: Variant,
    ) -> HarnessResult<f64> {
        let workload = workload.into();
        let base = self.baseline(workload, res)?;
        let img = self.run(workload, res, variant)?.image.clone();
        psnr(&base.image, &img)
    }
}

/// Optional CSV output for figure data.
///
/// When constructed with a directory, every call to
/// [`CsvSink::write_figure`] drops a `<figure>.csv` file there; with
/// `None` it is a no-op, so the `repro` printers call it
/// unconditionally.
#[derive(Debug, Clone, Default)]
pub struct CsvSink {
    dir: Option<std::path::PathBuf>,
}

impl CsvSink {
    /// Creates a sink writing into `dir` (created if missing), or a
    /// no-op sink for `None`.
    ///
    /// # Errors
    ///
    /// Fails if the requested output directory cannot be created.
    pub fn new(dir: Option<std::path::PathBuf>) -> HarnessResult<Self> {
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)
                .map_err(|e| Error::io(format!("creating csv directory {}", d.display()), e))?;
        }
        Ok(Self { dir })
    }

    /// Writes one figure's data as CSV: a header row and one row per
    /// benchmark/series entry. No-op without a directory.
    ///
    /// # Errors
    ///
    /// Fails if the CSV file cannot be written.
    pub fn write_figure(
        &self,
        figure: &str,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> HarnessResult<()> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        let path = dir.join(format!("{figure}.csv"));
        std::fs::write(&path, out).map_err(|e| Error::io(format!("writing {}", path.display()), e))
    }
}

/// A reduced benchmark scene for criterion runs: small enough for
/// repeated timed iterations, large enough to exercise every pipeline
/// stage (geometry, raster, all filter phases, caches, ROP).
pub fn bench_scene() -> SceneTrace {
    let mut profile = Game::Doom3.profile();
    profile.floor_quads = 4;
    profile.texture_count = 4;
    profile.texture_size = 128;
    profile.facing_props = 1;
    pimgfx_workloads::build_scene_unchecked(&profile, Resolution::R320x240, 1)
}

/// Expected relative cost of one cell, for LPT scheduling: pixel count
/// scaled by a per-variant class weight seeded from measured
/// `backend_wall_ms` classes (an a-tfim replay runs the per-corner
/// parent probe machinery and costs roughly 1.5–2.3× a baseline replay
/// of the same column; every other variant lands in one class). The
/// weight only orders the job hand-off — results are merged in sweep
/// order regardless — so a misclassified cell costs wall time, never
/// bytes.
fn cell_cost_weight(res: Resolution, variant: Variant) -> u64 {
    let class = match variant {
        Variant::Design(Design::ATfim)
        | Variant::AtfimThreshold(_)
        | Variant::AtfimNoRecalc
        | Variant::AtfimNoConsolidation
        | Variant::AtfimNoCompression => 2,
        _ => 1,
    };
    res.pixels() * class
}

/// A cell still to simulate: its column, variant and variant label.
type TodoCell = (Workload, Resolution, Variant, String);

/// One pool task of a [`Harness::precompute`] fan-out: distinct
/// configurations of one column sharing one [`SampleKey`], replayed as
/// one batch. `cells[i]` lists the cells (indices into the todo list)
/// that `configs[i]` serves, and `weights[i]` its LPT cost.
#[derive(Debug)]
struct Batch {
    workload: Workload,
    res: Resolution,
    key: SampleKey,
    configs: Vec<SimConfig>,
    cells: Vec<Vec<usize>>,
    weights: Vec<u64>,
}

/// Plans the batches of a fan-out over `cells` on `workers` workers.
///
/// Cells are grouped by (column, [`SampleKey`]) in sweep order, and
/// cells with equal configurations fold into one simulator. Each group
/// then splits into near-equal contiguous batches of at most
/// ⌈cells / (2·workers)⌉ simulators, so the pool still gets about two
/// tasks per worker to balance. The batches come back in LPT order:
/// heaviest summed [`cell_cost_weight`] first, ties in sweep order.
///
/// # Errors
///
/// The first cell, in sweep order, whose variant has no valid
/// configuration.
fn plan_batches(cells: &[TodoCell], workers: usize) -> Result<Vec<Batch>> {
    let mut groups: Vec<Batch> = Vec::new();
    for (i, &(workload, res, variant, _)) in cells.iter().enumerate() {
        let config = variant.config()?;
        let key = config.sample_key();
        let gi = match groups
            .iter()
            .position(|g| g.workload == workload && g.res == res && g.key == key)
        {
            Some(gi) => gi,
            None => {
                groups.push(Batch {
                    workload,
                    res,
                    key,
                    configs: Vec::new(),
                    cells: Vec::new(),
                    weights: Vec::new(),
                });
                groups.len() - 1
            }
        };
        let group = &mut groups[gi];
        match group.configs.iter().position(|c| *c == config) {
            Some(m) => group.cells[m].push(i),
            None => {
                group.configs.push(config);
                group.cells.push(vec![i]);
                group.weights.push(cell_cost_weight(res, variant));
            }
        }
    }
    let cap = cells.len().div_ceil(2 * workers.max(1)).max(1);
    let mut batches: Vec<Batch> = Vec::new();
    for g in groups {
        let n = g.configs.len();
        let size = n.div_ceil(n.div_ceil(cap));
        for start in (0..n).step_by(size) {
            let part = start..(start + size).min(n);
            batches.push(Batch {
                workload: g.workload,
                res: g.res,
                key: g.key,
                configs: g.configs[part.clone()].to_vec(),
                cells: g.cells[part.clone()].to_vec(),
                weights: g.weights[part].to_vec(),
            });
        }
    }
    // Stable descending sort: equal-weight batches keep their sweep
    // order, making the schedule itself deterministic.
    batches.sort_by_key(|b| std::cmp::Reverse(b.weights.iter().sum::<u64>()));
    Ok(batches)
}

/// Simulates one batch of same-key configurations on one column: the
/// worker-thread body of every sweep (each worker owns its
/// [`Simulator`]s; only the scene and the frontend stream are shared,
/// read-only).
///
/// The variant-invariant frontend comes from the stream cache (built on
/// first use, replayed by every later variant of the column); the
/// batch replays it through [`Simulator::render_replay_batch`] with
/// `lanes` precompute lanes, which is byte-identical to a direct
/// `render_trace` of each configuration at any lane count. The returned
/// [`WallSplit`] is the whole batch's wall time split between the two
/// passes, with the effective lane count.
fn simulate_batch(
    scene: &Arc<SceneTrace>,
    configs: &[SimConfig],
    streams: &FragmentStreamCache,
    lanes: usize,
) -> HarnessResult<(Vec<RenderReport>, WallSplit)> {
    let mut sims = configs
        .iter()
        .map(|c| Simulator::new(c.clone()))
        .collect::<Result<Vec<_>>>()?;
    let Some(first) = configs.first() else {
        return Ok((Vec::new(), WallSplit::default()));
    };
    if first.tile_px != streams.tile_px() {
        // A batch binned at a different tile size cannot replay the
        // shared stream; render directly (no variant does this today).
        // det:boundary — backend wall-time for WallSplit reporting.
        let start = Instant::now();
        let reports = sims
            .iter_mut()
            .map(|sim| sim.render_trace(scene))
            .collect::<Result<Vec<_>>>()?;
        let backend_ms = start.elapsed().as_secs_f64() * 1000.0;
        return Ok((
            reports,
            WallSplit {
                frontend_ms: 0.0,
                backend_ms,
                replay_lanes: 1,
            },
        ));
    }
    // Mirror the simulator's internal clamp so the manifest records the
    // lane count the replay actually ran with.
    let lanes_eff = lanes.clamp(1, first.shader.clusters.max(1));
    // det:boundary — frontend wall-time for WallSplit reporting.
    let start = Instant::now();
    let stream = streams.get(scene)?;
    let frontend_ms = start.elapsed().as_secs_f64() * 1000.0;
    // det:boundary — backend wall-time for WallSplit reporting.
    let start = Instant::now();
    let reports = Simulator::render_replay_batch(&mut sims, &stream, lanes_eff)?;
    let backend_ms = start.elapsed().as_secs_f64() * 1000.0;
    Ok((
        reports,
        WallSplit {
            frontend_ms,
            backend_ms,
            replay_lanes: lanes_eff,
        },
    ))
}

/// Runs one variant over a scene and returns its report (bench body).
///
/// # Errors
///
/// Propagates configuration and simulation failures.
pub fn run_variant(scene: &SceneTrace, variant: Variant) -> Result<RenderReport> {
    let config = variant.config()?;
    let mut sim = Simulator::new(config)?;
    sim.render_trace(scene)
}

/// Runs one variant over a scene through a shared frontend-stream cache
/// — the replay counterpart of [`run_variant`], with byte-identical
/// results. Used by `pimgfx-serve`, where many variants of one job (and
/// consecutive jobs on the same column) share the frontend pass.
///
/// # Errors
///
/// Propagates configuration and simulation failures. Falls back to a
/// direct render when the variant's tile size does not match the
/// cache's.
pub fn run_variant_replay(
    scene: &Arc<SceneTrace>,
    variant: Variant,
    streams: &FragmentStreamCache,
) -> Result<RenderReport> {
    run_variant_replay_lanes(scene, variant, streams, 1)
}

/// [`run_variant_replay`] with an explicit replay lane count: the
/// backend replays through `lanes` precompute lanes (byte-identical to
/// serial at any count — see `crates/core/tests/lane_equivalence.rs`).
/// `pimgfx-serve` workers pass [`pool::configured_replay_lanes`] here so
/// the job-level fan-out and the lane level share one thread budget.
///
/// # Errors
///
/// Propagates configuration and simulation failures. Falls back to a
/// direct render when the variant's tile size does not match the
/// cache's.
pub fn run_variant_replay_lanes(
    scene: &Arc<SceneTrace>,
    variant: Variant,
    streams: &FragmentStreamCache,
    lanes: usize,
) -> Result<RenderReport> {
    let config = variant.config()?;
    let mut sim = Simulator::new(config)?;
    if sim.config().tile_px != streams.tile_px() {
        return sim.render_trace(scene);
    }
    let stream = streams.get(scene)?;
    sim.render_replay_lanes(&stream, lanes)
}

/// Runs several variants of one scene through the worker [`pool`],
/// returning reports in `variants` order (the parallel counterpart of
/// mapping [`run_variant`] — used by the `fig*` micro-benchmarks to
/// time sweep fan-out).
///
/// # Errors
///
/// Propagates the first configuration or simulation failure, in
/// variant order.
pub fn run_variants_parallel(
    scene: &SceneTrace,
    variants: &[Variant],
) -> Result<Vec<RenderReport>> {
    let workers = pool::worker_count(variants.len())?;
    pool::run_ordered(variants, workers, |&v| run_variant(scene, v))
        .into_iter()
        .collect()
}

/// Minimal std-only micro-benchmark harness for the `benches/fig*.rs`
/// targets (all declared `harness = false`).
///
/// The workspace builds offline with zero external dependencies, so the
/// figure benches cannot link criterion; this module provides the small
/// subset they need — named benchmark groups, a sample count, and
/// wall-clock statistics printed per function.
// Printing timing lines to stdout is this module's entire job.
#[allow(clippy::print_stdout)]
pub mod microbench {
    pub use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// A named group of timed functions (mirrors the criterion group
    /// shape so the `fig*.rs` sources stay close to their original form).
    #[derive(Debug)]
    pub struct BenchGroup {
        name: String,
        samples: usize,
    }

    impl BenchGroup {
        /// Starts a group; `name` prefixes every printed line.
        pub fn new(name: impl Into<String>) -> Self {
            Self {
                name: name.into(),
                samples: 10,
            }
        }

        /// Sets how many timed samples each function runs (min 1).
        pub fn sample_size(&mut self, samples: usize) {
            self.samples = samples.max(1);
        }

        /// Times `f` over the configured number of samples (after one
        /// untimed warm-up call) and prints min/median/mean wall time.
        pub fn bench_function<R>(&mut self, id: impl AsRef<str>, mut f: impl FnMut() -> R) {
            black_box(f());
            let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
            for _ in 0..self.samples {
                // det:boundary — this *is* the wall-clock being measured.
                let start = Instant::now();
                black_box(f());
                times.push(start.elapsed());
            }
            times.sort_unstable();
            let min = times[0];
            let median = times[times.len() / 2];
            let mean = times.iter().sum::<Duration>() / times.len() as u32;
            println!(
                "{}/{:<28} min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  ({} samples)",
                self.name,
                id.as_ref(),
                min,
                median,
                mean,
                times.len()
            );
        }

        /// Ends the group (kept for criterion-shape compatibility).
        pub fn finish(self) {}
    }
}

/// Geometric mean of a slice (the paper's "average speedup" style).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // float:reassoc-ok — slice-order reduction over ≤ tens of values;
    // consumed at 3-sig-fig display precision, far beyond any ULP drift.
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    // float:reassoc-ok — slice-order reduction over ≤ tens of values;
    // consumed at 3-sig-fig display precision, far beyond any ULP drift.
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_are_unique() {
        let labels = [
            Variant::Design(Design::Baseline).label(),
            Variant::Design(Design::ATfim).label(),
            Variant::AnisoOff.label(),
            Variant::AtfimThreshold(0.05).label(),
            Variant::AtfimNoRecalc.label(),
            Variant::AtfimNoConsolidation.label(),
            Variant::AtfimNoCompression.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }

    #[test]
    fn variant_configs_build() {
        for v in [
            Variant::Design(Design::STfim),
            Variant::AnisoOff,
            Variant::AtfimThreshold(0.005),
            Variant::AtfimNoRecalc,
            Variant::AtfimNoConsolidation,
            Variant::AtfimNoCompression,
        ] {
            assert!(v.config().is_ok(), "{}", v.label());
        }
    }

    #[test]
    fn aniso_off_uses_trilinear() {
        let c = Variant::AnisoOff.config().expect("valid");
        assert_eq!(c.sampler.max_aniso, 1);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn csv_sink_writes_and_noop() {
        // No-op sink does nothing.
        let sink = CsvSink::new(None).expect("no-op sink");
        sink.write_figure("nothing", &["a"], &[vec!["1".to_string()]])
            .expect("no-op write");

        // Real sink writes a parseable CSV.
        let dir = std::env::temp_dir().join("pimgfx_csv_test");
        let sink = CsvSink::new(Some(dir.clone())).expect("temp dir sink");
        sink.write_figure(
            "figx",
            &["benchmark", "value"],
            &[vec!["doom3".to_string(), "1.50".to_string()]],
        )
        .expect("csv written");
        let body = std::fs::read_to_string(dir.join("figx.csv")).expect("file written");
        assert_eq!(
            body,
            "benchmark,value
doom3,1.50
"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quick_columns_are_subset_of_full() {
        let full = Harness::columns(false);
        for c in Harness::columns(true) {
            assert!(full.contains(&c));
        }
        assert_eq!(full.len(), 10);
    }

    #[test]
    fn sweep_matrix_is_columns_major() {
        let columns = [
            (Game::Doom3, Resolution::R320x240),
            (Game::Wolfenstein, Resolution::R640x480),
        ];
        let variants = [
            Variant::Design(Design::Baseline),
            Variant::Design(Design::ATfim),
        ];
        let sweep = Sweep::matrix(&columns, &variants);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep.cells()[0].0, Workload::Game(Game::Doom3));
        assert_eq!(
            sweep.cells()[1].0,
            Workload::Game(Game::Doom3),
            "variants adjacent"
        );
        assert_eq!(sweep.cells()[2].0, Workload::Game(Game::Wolfenstein));
    }

    #[test]
    fn synthetic_columns_share_the_harness_with_games() {
        use pimgfx_workloads::SyntheticSpec;
        let spec = SyntheticSpec {
            seed: 0xC0FFEE,
            triangles: 400,
            textures: 2,
            texture_size: 32,
            kind_mask: 0x3,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 4,
        };
        let label = Harness::column_label(spec, Resolution::R320x240);
        assert_eq!(label, format!("{spec}-320x240"));

        let mut h = Harness::new(1);
        let cycles = h
            .run(
                spec,
                Resolution::R320x240,
                Variant::Design(Design::Baseline),
            )
            .expect("synthetic cell simulates")
            .total_cycles;
        assert!(cycles > 0);
        // Memoized under the synthetic workload key, reported under its label.
        let cells = h.report_cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].0, label);
    }

    #[test]
    fn sweep_builder_composes() {
        let mut a = Sweep::new().cell(
            Game::Doom3,
            Resolution::R320x240,
            Variant::Design(Design::Baseline),
        );
        assert!(!a.is_empty());
        let b = Sweep::new().cell(Game::Doom3, Resolution::R320x240, Variant::AnisoOff);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert!(Sweep::new().is_empty());
    }

    #[test]
    fn sweep_stats_rate() {
        let s = SweepStats {
            cells_executed: 10,
            workers: 2,
            wall: std::time::Duration::from_secs(5),
        };
        assert!((s.cells_per_sec() - 2.0).abs() < 1e-12);
        let idle = SweepStats {
            cells_executed: 0,
            workers: 1,
            wall: std::time::Duration::ZERO,
        };
        assert_eq!(idle.cells_per_sec(), 0.0);
    }

    fn tiny_synthetic() -> pimgfx_workloads::SyntheticSpec {
        pimgfx_workloads::SyntheticSpec {
            seed: 0xC0FFEE,
            triangles: 400,
            textures: 2,
            texture_size: 32,
            kind_mask: 0x3,
            grazing_milli: 500,
            overdraw: 1,
            path_frames: 4,
        }
    }

    #[test]
    fn equal_configs_simulate_once_and_report_under_both_labels() {
        // `a-tfim` and `a-tfim@0.01pi` build the same configuration.
        let plain = Variant::Design(Design::ATfim);
        let pinned = Variant::AtfimThreshold(0.01);
        assert_ne!(plain.label(), pinned.label());
        assert_eq!(
            plain.config().expect("valid"),
            pinned.config().expect("valid")
        );

        let spec = tiny_synthetic();
        let sweep = Sweep::new().cell(spec, Resolution::R320x240, plain).cell(
            spec,
            Resolution::R320x240,
            pinned,
        );
        let mut h = Harness::new(1);
        let stats = h.precompute(&sweep).expect("sweep");
        assert_eq!(stats.cells_executed, 2, "both memoized cells count");
        let cells = h.report_cells();
        assert_eq!(cells.len(), 2);
        assert!(
            cells[0].2 == cells[1].2,
            "one simulation, two equal reports"
        );
        // The one simulation's wall time is split between the labels.
        let column = Harness::column_label(spec, Resolution::R320x240);
        let a = h.wall_split(&column, &plain.label()).expect("wall");
        let b = h.wall_split(&column, &pinned.label()).expect("wall");
        assert_eq!(a, b);
    }

    #[test]
    fn batches_group_by_column_and_sample_key() {
        let columns = Harness::columns(true);
        let variants: Vec<Variant> = {
            let mut out: Vec<Variant> = Vec::new();
            for s in SECTIONS {
                for v in section_variants(s) {
                    if !out.iter().any(|o| o.label() == v.label()) {
                        out.push(v);
                    }
                }
            }
            out
        };
        assert_eq!(variants.len(), 12);
        let todo: Vec<TodoCell> = Sweep::matrix(&columns, &variants)
            .cells()
            .iter()
            .map(|&(w, r, v)| (w, r, v, v.label()))
            .collect();
        let batches = plan_batches(&todo, 2).expect("plan");
        // Per column: {baseline, b-pim, s-tfim}, {aniso-off}, and the
        // seven distinct A-TFIM configurations split 4 + 3 under the
        // ⌈24 / 4⌉ = 6 cap.
        let mut sizes: Vec<usize> = batches.iter().map(|b| b.configs.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 1, 3, 3, 3, 3, 4, 4]);
        // Every cell lands in exactly one batch, every batch shares one
        // key, and the order is LPT.
        let mut seen: Vec<usize> = batches.iter().flat_map(|b| b.cells.concat()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..todo.len()).collect::<Vec<_>>());
        for b in &batches {
            assert!(b.configs.iter().all(|c| c.sample_key() == b.key));
        }
        let weights: Vec<u64> = batches.iter().map(|b| b.weights.iter().sum()).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]), "{weights:?}");
    }

    #[test]
    fn harness_exposes_frames_and_scene_cache() {
        let h = Harness::new(3);
        assert_eq!(h.frames(), 3);
        assert_eq!(h.scenes().frames(), 3);
        assert!(h.report_cells().is_empty());
    }

    #[test]
    fn harness_scene_capacity_bounds_the_cache() {
        let h = Harness::with_scene_capacity(2, 3);
        assert_eq!(h.scenes().capacity(), Some(3));
        assert_eq!(h.scenes().evictions(), 0);
        assert_eq!(Harness::new(2).scenes().capacity(), None);
    }

    #[test]
    fn section_variants_cover_every_section() {
        // Static sections expand to nothing; every figure section
        // includes the baseline (the normalization denominator).
        for s in SECTIONS {
            let vs = section_variants(s);
            match s {
                "table1" | "table2" | "overhead" => assert!(vs.is_empty(), "{s}"),
                _ => assert!(
                    vs.contains(&Variant::Design(Design::Baseline)),
                    "{s} must include the baseline"
                ),
            }
        }
        assert!(section_variants("not-a-section").is_empty());
        // fig14-16 sweep every threshold plus the no-recalc point.
        assert_eq!(
            section_variants("fig14").len(),
            1 + THRESHOLD_SWEEP.len() + 1
        );
    }
}
