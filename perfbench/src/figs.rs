//! `figs-quick` and `cell-hires`: the figure matrix and one hi-res
//! column, each run through `pimgfx_bench::Harness`.
//!
//! One pass builds a fresh harness, so every pass pays the same scene
//! and frontend builds (the set-up) and simulates every cell from cold
//! report caches. The first pass is a warm-up: it is checked but not
//! timed.

use crate::metrics::{self, bucket_of, median, percentile, ratio, sum, Outcome};
use crate::oracle;
use crate::span::{self, SpanId, Tracer};
use crate::Ctx;
use pimgfx::{Design, RenderReport};
use pimgfx_bench::{section_variants, Harness, Sweep, Variant, SECTIONS};
use pimgfx_workloads::{Game, Resolution, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Frames per column, as the paper's figures are reproduced.
pub const FRAMES: usize = 2;
/// Measured passes made even when `--seconds` has run out.
const MIN_PASSES: usize = 3;

/// The two matrix shapes this module runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Quick columns × every section's variants, one `precompute`.
    FigsQuick,
    /// `doom3-1280x1024`, each design its own one-cell `precompute`.
    CellHires,
}

impl Shape {
    /// The workload name.
    pub fn name(self) -> &'static str {
        match self {
            Shape::FigsQuick => "figs-quick",
            Shape::CellHires => "cell-hires",
        }
    }

    fn columns(self) -> Vec<(Workload, Resolution)> {
        match self {
            Shape::FigsQuick => Harness::columns(true),
            Shape::CellHires => vec![(Workload::Game(Game::Doom3), Resolution::R1280x1024)],
        }
    }

    fn variants(self) -> Vec<Variant> {
        match self {
            Shape::FigsQuick => {
                let mut out: Vec<Variant> = Vec::new();
                for s in SECTIONS {
                    for v in section_variants(s) {
                        if !out.iter().any(|o| o.label() == v.label()) {
                            out.push(v);
                        }
                    }
                }
                out
            }
            Shape::CellHires => Design::ALL.map(Variant::Design).to_vec(),
        }
    }

    /// The variants whose PSNR against the baseline a pass computes:
    /// Fig. 15's for the figure matrix, plus plain A-TFIM everywhere.
    fn psnr_variants(self) -> Vec<Variant> {
        let mut v = match self {
            Shape::FigsQuick => section_variants("fig15"),
            Shape::CellHires => Vec::new(),
        };
        v.retain(|x| *x != Variant::Design(Design::Baseline));
        v.push(Variant::Design(Design::ATfim));
        v
    }

    /// The cells of one pass, columns-major. The inputs are the paper's
    /// fixed columns, so the seed does not change them; a shuffled order
    /// would change the pool's schedule, and with it the timings.
    fn cells(self) -> Vec<(Workload, Resolution, Variant)> {
        self.columns()
            .into_iter()
            .flat_map(|(w, r)| self.variants().into_iter().map(move |v| (w, r, v)))
            .collect()
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
struct Pass {
    setup_s: f64,
    /// Host seconds the cells took (the one `precompute`, or the sum of
    /// the one-cell ones).
    cells_s: f64,
    /// Per-cell host ms: wall-split frontend + backend, or the one-cell
    /// `precompute` wall.
    cell_ms: Vec<f64>,
    samples: u64,
    backend_ms: BTreeMap<&'static str, f64>,
    backend_samples: BTreeMap<&'static str, u64>,
    lanes: usize,
    fragments: u64,
    quads: u64,
    hit_ratio: f64,
    evictions: u64,
    pool_utilization: f64,
    max_cell_ms: f64,
    cells: usize,
    failed: usize,
    digests: Vec<String>,
    /// `(column, design)` → report, kept from the warm-up pass only.
    designs: BTreeMap<(String, &'static str), RenderReport>,
    psnr_atfim_db: Vec<f64>,
}

fn run_pass(shape: Shape, ctx: &Ctx, tracer: &Tracer, keep_reports: bool) -> Result<Pass, String> {
    let err = |e: pimgfx_types::Error| e.to_string();
    let mut h = Harness::new(FRAMES);
    let mut p = Pass::default();
    let cells = shape.cells();
    let (body, _) = tracer.time(
        "bench.pass",
        None,
        None,
        |root: SpanId| -> Result<(), String> {
            for (w, r) in shape.columns() {
                let (scene, d_scene) =
                    tracer.time("workloads.scene", root, None, |_| h.scenes().get(w, r));
                let (stream, d_front) =
                    tracer.time("frontend.build", root, None, |_| h.streams().get(&scene));
                let stream = stream.map_err(|e| e.to_string())?;
                p.fragments += stream.fragment_count();
                p.quads += stream.quad_count();
                p.setup_s += (d_scene + d_front).as_secs_f64();
            }
            match shape {
                Shape::FigsQuick => {
                    let sweep = cells
                        .iter()
                        .fold(Sweep::new(), |s, &(w, r, v)| s.cell(w, r, v));
                    let (stats, d) =
                        tracer.time("harness.precompute", root, None, |_| h.precompute(&sweep));
                    let stats = stats.map_err(err)?;
                    if stats.cells_executed != sweep.len() {
                        return Err(format!(
                            "precompute ran {} of {} cells",
                            stats.cells_executed,
                            sweep.len()
                        ));
                    }
                    p.cells_s = d.as_secs_f64();
                }
                Shape::CellHires => {
                    for &(w, r, v) in &cells {
                        let sweep = Sweep::new().cell(w, r, v);
                        let (stats, d) =
                            tracer.time("harness.precompute", root, None, |_| h.precompute(&sweep));
                        stats.map_err(err)?;
                        p.cells_s += d.as_secs_f64();
                        p.cell_ms.push(d.as_secs_f64() * 1e3);
                    }
                }
            }
            for (w, r) in shape.columns() {
                for v in shape.psnr_variants() {
                    let (db, _) =
                        tracer.time("quality.psnr", root, None, |_| h.psnr_vs_baseline(w, r, v));
                    let db = db.map_err(err)?;
                    if v == Variant::Design(Design::ATfim) {
                        p.psnr_atfim_db.push(db);
                    }
                }
            }
            Ok(())
        },
    );
    body?;
    let cache = h.frontend_cache_stats();
    p.hit_ratio = ratio(cache.hits as f64, (cache.hits + cache.misses) as f64);
    p.evictions = cache.evictions;
    if let Some(lb) = h.load_balance() {
        p.pool_utilization = lb.pool_utilization;
        p.max_cell_ms = lb.max_cell_ms;
    }
    for (column, variant, report) in h.report_cells() {
        p.cells += 1;
        let (digest, ok) = oracle::check_report(
            &ctx.expected,
            shape.name(),
            &column,
            &variant,
            report,
            false,
        );
        if !ok {
            p.failed += 1;
        }
        p.digests.push(oracle::digest_line(
            shape.name(),
            &column,
            &variant,
            &digest,
        ));
        p.samples += report.texture.samples;
        let split = h
            .wall_split(&column, &variant)
            .ok_or_else(|| format!("no wall split for {column} {variant}"))?;
        if shape == Shape::FigsQuick {
            p.cell_ms.push(split.frontend_ms + split.backend_ms);
        }
        let bucket = bucket_of(&variant);
        *p.backend_ms.entry(bucket).or_insert(0.0) += split.backend_ms;
        *p.backend_samples.entry(bucket).or_insert(0) += report.texture.samples;
        p.lanes = p.lanes.max(split.replay_lanes);
        if keep_reports && bucket != "other" {
            p.designs.insert((column.clone(), bucket), report.clone());
        }
    }
    Ok(p)
}

/// Runs `figs-quick` or `cell-hires`.
///
/// # Errors
///
/// A simulation or configuration failure (the run cannot continue).
pub fn run(shape: Shape, ctx: &Ctx) -> Result<(Outcome, Vec<String>), String> {
    // The warm-up pass is untraced: the span dump and the per-layer
    // figures describe the measured passes only.
    let warm = run_pass(shape, ctx, &Tracer::new(false), true)?;
    let mut attempted = warm.cells as u64;
    let mut failed = warm.failed as u64;
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let p = run_pass(shape, ctx, &ctx.tracer, false)?;
        attempted += p.cells as u64;
        failed += p.failed as u64;
        if p.digests != warm.digests {
            eprintln!("[perfbench] a pass produced different cells than the warm-up");
            failed += 1;
        }
        passes.push(p);
    }

    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let cell_ms: Vec<f64> = passes.iter().flat_map(|p| p.cell_ms.clone()).collect();
    let cells_per_s = per_pass(&|p| ratio(p.cells as f64, p.cells_s));
    let mut values = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    put("setup_s", median(&per_pass(&|p| p.setup_s)));
    put("cells_per_s", median(&cells_per_s));
    put(
        "msamples_per_s",
        median(&per_pass(&|p| ratio(p.samples as f64 / 1e6, p.cells_s))),
    );
    put("job_p50_ms", percentile(&cell_ms, 50.0));
    put("job_p90_ms", percentile(&cell_ms, 90.0));
    put("peak_rss_mb", metrics::peak_rss_mb()?);

    // Per-layer metrics.
    let spans = ctx.tracer.spans();
    let selfs = span::self_times_ns(&spans);
    let n = passes.len() as f64;
    let scene_ms = span::self_ms(&spans, &selfs, "workloads.scene");
    let build_ms = span::self_ms(&spans, &selfs, "frontend.build");
    let fragments = warm.fragments as f64;
    put("workloads.scene_ms", median(&scene_ms));
    put("workloads.scenes_built", shape.columns().len() as f64);
    put("frontend.build_ms", median(&build_ms));
    put(
        "frontend.ns_per_fragment",
        ratio(sum(&build_ms) * 1e6, fragments * n),
    );
    put("frontend.fragments", fragments);
    put("frontend.quads", warm.quads as f64);
    put("frontend.hit_ratio", warm.hit_ratio);
    put(
        "frontend.evictions",
        passes.iter().map(|p| p.evictions).sum::<u64>() as f64,
    );
    for bucket in metrics::backend_buckets() {
        let ms = median(&per_pass(&|p| {
            p.backend_ms.get(bucket).copied().unwrap_or(0.0)
        }));
        let samples = warm.backend_samples.get(bucket).copied().unwrap_or(0) as f64;
        put(&format!("backend.ms.{bucket}"), ms);
        put(
            &format!("backend.ns_per_sample.{bucket}"),
            ratio(ms * 1e6, samples),
        );
    }
    put("backend.lanes", warm.lanes as f64);
    put(
        "harness.precompute_ms",
        sum(&span::self_ms(&spans, &selfs, "harness.precompute")) / n,
    );
    put(
        "harness.pool_utilization",
        median(&per_pass(&|p| p.pool_utilization)),
    );
    put("harness.max_cell_ms", median(&per_pass(&|p| p.max_cell_ms)));
    put(
        "quality.psnr_ms",
        sum(&span::self_ms(&spans, &selfs, "quality.psnr")) / n,
    );
    for name in crate::serve::SERVE_METRICS {
        put(name, 0.0);
    }
    values.extend(oracle::sim_metrics(&warm.designs, &warm.psnr_atfim_db));
    values.insert("trace.cells_per_s".into(), median(&cells_per_s));
    values.insert("trace.job_p50_ms".into(), percentile(&cell_ms, 50.0));

    eprintln!(
        "[perfbench] {}: {} measured passes of {} cells, {} cell timings",
        shape.name(),
        passes.len(),
        warm.cells,
        cell_ms.len()
    );
    let outcome = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    };
    Ok((outcome, warm.digests))
}
