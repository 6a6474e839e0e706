//! Correctness oracle: per-cell digests, the committed expected
//! digests, and the simulated counts derived from checked reports.

use crate::metrics::ratio;
use pimgfx::{Design, RenderReport};
use pimgfx_bench::geomean;
use pimgfx_bench::manifest::{fnv1a_digest, CellSummary};
use pimgfx_engine::trace::stage;
use std::collections::BTreeMap;

/// Expected digests for the default seed, generated with
/// `--emit-digests` (one `<workload> <column> <variant> <digest>` line
/// per cell).
pub const COMMITTED: &str = include_str!("../expected/digests.txt");

/// Digest of a cell as the run manifests and served job manifests
/// record it.
pub fn cell_digest(summary: &CellSummary) -> String {
    fnv1a_digest(&summary.to_json_object())
}

/// What a digest check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The digest equals the expected one.
    Match,
    /// The digest differs from the expected one.
    Mismatch,
    /// No digest is expected for this cell.
    Unknown,
}

/// Expected digests by `(workload, column, variant)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    map: BTreeMap<(String, String, String), String>,
}

impl Expected {
    /// Parses the digest file format.
    ///
    /// # Errors
    ///
    /// Names the first line that does not have four fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [w, c, v, d] = f[..] else {
                return Err(format!(
                    "digest line {} has {} fields, want 4",
                    i + 1,
                    f.len()
                ));
            };
            map.insert((w.into(), c.into(), v.into()), d.to_string());
        }
        Ok(Self { map })
    }

    /// Compares one cell's digest with the expected one.
    pub fn check(&self, workload: &str, column: &str, variant: &str, digest: &str) -> Check {
        match self.map.get(&(
            workload.to_string(),
            column.to_string(),
            variant.to_string(),
        )) {
            Some(want) if want == digest => Check::Match,
            Some(_) => Check::Mismatch,
            None => Check::Unknown,
        }
    }
}

/// The digest-file line for one cell.
pub fn digest_line(workload: &str, column: &str, variant: &str, digest: &str) -> String {
    format!("{workload} {column} {variant} {digest}")
}

/// Summarizes a report and checks it: its audit must pass and, when
/// `expected` holds a digest for the cell, the digest must match.
/// Returns the digest and whether the cell passed; a cell with no
/// expected digest passes when `unknown_ok`.
pub fn check_report(
    expected: &Expected,
    workload: &str,
    column: &str,
    variant: &str,
    report: &RenderReport,
    unknown_ok: bool,
) -> (String, bool) {
    let summary = CellSummary::from_report(column, variant, report);
    let digest = cell_digest(&summary);
    let check = expected.check(workload, column, variant, &digest);
    let digest_ok = match check {
        Check::Match => true,
        Check::Mismatch => false,
        Check::Unknown => unknown_ok,
    };
    if !digest_ok {
        eprintln!("[perfbench] {check:?} digest: {workload} {column} {variant} {digest}");
    }
    let audit_ok = summary.audit_ok();
    if !audit_ok {
        eprintln!(
            "[perfbench] audit failed: {column} {variant}: {}",
            summary.trace_audit
        );
    }
    (digest, digest_ok && audit_ok)
}

/// The simulated per-design counts and the paper's A-TFIM quantities,
/// from one report per `(column, design)` of a workload.
///
/// `psnr_atfim_db` holds one A-TFIM-vs-baseline PSNR per column.
pub fn sim_metrics(
    cells: &BTreeMap<(String, &'static str), RenderReport>,
    psnr_atfim_db: &[f64],
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for d in Design::ALL {
        let reports: Vec<&RenderReport> = cells
            .iter()
            .filter(|((_, label), _)| *label == d.label())
            .map(|(_, r)| r)
            .collect();
        let sum = |f: &dyn Fn(&RenderReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();
        let samples = sum(&|r| r.texture.samples);
        let l1_hits = sum(&|r| r.texture.l1_hits);
        let l1_all = sum(&|r| r.texture.l1_hits + r.texture.l1_misses + r.texture.l1_angle_misses);
        let l2_hits = sum(&|r| r.texture.l2_hits);
        let l2_all = sum(&|r| r.texture.l2_hits + r.texture.l2_misses + r.texture.l2_angle_misses);
        let angle = sum(&|r| r.texture.l1_angle_misses + r.texture.l2_angle_misses);
        let child = sum(&|r| r.texture.child_reads);
        let merged = sum(&|r| r.texture.merged_child_reads);
        let l = d.label();
        let mut put = |k: &str, v: f64| {
            out.insert(format!("{k}.{l}"), v);
        };
        put("texture.samples", samples as f64);
        put("texture.l1_hit_ratio", ratio(l1_hits as f64, l1_all as f64));
        put("texture.l2_hit_ratio", ratio(l2_hits as f64, l2_all as f64));
        put("texture.angle_misses", angle as f64);
        put(
            "mem.external_bytes",
            sum(&|r| r.traffic.total().get()) as f64,
        );
        put("mem.internal_bytes", sum(&|r| r.internal_bytes) as f64);
        put(
            "pim.offload_packages",
            sum(&|r| r.texture.offload_packages) as f64,
        );
        put(
            "pim.consolidation_ratio",
            ratio(merged as f64, (child + merged) as f64),
        );
        put(
            "shader.window_stalls",
            sum(&|r| r.trace.counters(stage::SHADER_WINDOW).stalls) as f64,
        );
        put("sim.cycles", sum(&|r| r.total_cycles) as f64);
    }
    // The paper's averages (Figs. 10, 11, 13) are geometric means over
    // the columns, as the repro harness prints them.
    let (mut tex, mut render, mut energy) = (Vec::new(), Vec::new(), Vec::new());
    for ((column, label), atfim) in cells {
        if *label != Design::ATfim.label() {
            continue;
        }
        if let Some(base) = cells.get(&(column.clone(), Design::Baseline.label())) {
            tex.push(atfim.texture_speedup_vs(base));
            render.push(atfim.render_speedup_vs(base));
            energy.push(atfim.energy_normalized_to(base));
        }
    }
    out.insert("sim.texture_speedup.a-tfim".into(), geomean(&tex));
    out.insert("sim.render_speedup.a-tfim".into(), geomean(&render));
    out.insert("energy.norm.a-tfim".into(), geomean(&energy));
    out.insert(
        "quality.psnr_db.a-tfim".into(),
        pimgfx_bench::mean(psnr_atfim_db),
    );
    out
}
