//! Metric names, units, the result line, and the small statistics the
//! workloads share.

use pimgfx::Design;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("msamples_per_s", "Msample/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run, in output order.
/// A layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("workloads.scene_ms", "ms");
    add("workloads.scenes_built", "count");
    add("frontend.build_ms", "ms");
    add("frontend.ns_per_fragment", "ns");
    add("frontend.fragments", "count");
    add("frontend.quads", "count");
    add("frontend.hit_ratio", "ratio");
    add("frontend.evictions", "count");
    for bucket in backend_buckets() {
        add(&format!("backend.ms.{bucket}"), "ms");
    }
    for bucket in backend_buckets() {
        add(&format!("backend.ns_per_sample.{bucket}"), "ns");
    }
    add("backend.lanes", "count");
    add("harness.precompute_ms", "ms");
    add("harness.pool_utilization", "ratio");
    add("harness.max_cell_ms", "ms");
    add("quality.psnr_ms", "ms");
    add("serve.submit_ms", "ms");
    add("serve.queued_ms", "ms");
    add("serve.run_ms", "ms");
    add("serve.fetch_ms", "ms");
    add("serve.polls_per_job", "count");
    add("serve.manifest_bytes", "B");
    add("serve.busy_rejections", "count");
    add("serve.stream_hit_ratio", "ratio");
    add("serve.stream_evictions", "count");
    for (prefix, unit) in SIM_COUNTS {
        for d in Design::ALL {
            add(&format!("{prefix}.{}", d.label()), unit);
        }
    }
    add("sim.texture_speedup.a-tfim", "x");
    add("sim.render_speedup.a-tfim", "x");
    add("energy.norm.a-tfim", "x");
    add("quality.psnr_db.a-tfim", "dB");
    add("trace.cells_per_s", "1/s");
    add("trace.job_p50_ms", "ms");
    m
}

/// Simulated per-design counts: they repeat exactly for a seed.
pub const SIM_COUNTS: [(&str, &str); 10] = [
    ("texture.samples", "count"),
    ("texture.l1_hit_ratio", "ratio"),
    ("texture.l2_hit_ratio", "ratio"),
    ("texture.angle_misses", "count"),
    ("mem.external_bytes", "B"),
    ("mem.internal_bytes", "B"),
    ("pim.offload_packages", "count"),
    ("pim.consolidation_ratio", "ratio"),
    ("shader.window_stalls", "count"),
    ("sim.cycles", "cycles"),
];

/// Backend time buckets: the four designs, then every other variant.
pub fn backend_buckets() -> Vec<&'static str> {
    let mut b: Vec<&'static str> = Design::ALL.iter().map(|d| d.label()).collect();
    b.push("other");
    b
}

/// The backend bucket of a variant label.
pub fn bucket_of(variant: &str) -> &'static str {
    Design::ALL
        .iter()
        .map(|d| d.label())
        .find(|l| *l == variant)
        .unwrap_or("other")
}

/// Whether `name` is a valid metric name: starts with a letter or
/// digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// The result of one run: the last line of standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output was checked and matched.
    pub correct: bool,
    /// Cells or jobs attempted.
    pub attempted: u64,
    /// Cells or jobs that failed (audit, digest, job state, transport).
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// The result line, with exactly the metrics of `defs` in order.
    ///
    /// # Errors
    ///
    /// Names a metric of `defs` the workload did not produce, or a
    /// value that is not finite.
    pub fn to_json(&self, defs: &[(String, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for (name, unit) in defs {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("workload did not produce metric `{name}`"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// The end-to-end definitions with owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Median (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile, linearly interpolated between the two nearest order
/// statistics (0 for an empty slice). With few samples, as `cell-hires`
/// has, this is steadier than the nearest rank.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sum (+0 for an empty slice, where `Iterator::sum` gives -0).
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() + 0.0
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (VmHWM) of this process, in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or carries no VmHWM line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing `{line}`: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&xs), 6.0);
        assert_eq!(percentile(&xs, 90.0), 10.0);
        assert_eq!(percentile(&xs, 95.0), 10.5);
        assert_eq!(percentile(&xs, 100.0), 11.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut o = Outcome {
            correct: true,
            attempted: 2,
            failed: 0,
            values: BTreeMap::new(),
        };
        let defs = vec![("setup_s".to_string(), "s")];
        assert!(o.to_json(&defs).is_err());
        o.values.insert("setup_s".to_string(), 0.25);
        assert_eq!(
            o.to_json(&defs).expect("complete"),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
