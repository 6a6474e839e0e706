//! The benchmark's own contract: metric names, the digest oracle, and
//! failure counting on the serving path.

use pim_perfbench::metrics::{end_to_end, per_layer, valid_name, valid_unit};
use pim_perfbench::oracle::{self, Check, Expected};
use pim_perfbench::serve::{self, Plane};
use pim_perfbench::span::Tracer;
use pimgfx::{Design, FragmentStreamCache, SimConfig};
use pimgfx_bench::manifest::CellSummary;
use pimgfx_bench::{run_variant_replay, Harness, Variant};
use pimgfx_workloads::{Resolution, SceneCache, SyntheticSpec, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

const LAYERS: [&str; 13] = [
    "workloads",
    "frontend",
    "backend",
    "harness",
    "quality",
    "serve",
    "texture",
    "mem",
    "pim",
    "shader",
    "sim",
    "energy",
    "trace",
];

fn tiny_spec(seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        seed,
        triangles: 40,
        textures: 1,
        texture_size: 16,
        kind_mask: 0x1,
        grazing_milli: 400,
        overdraw: 1,
        path_frames: 2,
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, f: &str| -> Option<String> {
        let tag = format!("\"{f}\": \"");
        let at = obj.find(&tag)? + tag.len();
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    body.split('}')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

#[test]
fn metric_names_follow_the_grammar_and_match_benchmark_json() {
    let e2e = end_to_end();
    let layers = per_layer();
    let mut seen = BTreeSet::new();
    for (name, unit) in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(name.clone()), "metric {name} listed twice");
    }
    for (name, _) in &layers {
        let layer = name.split('.').next().unwrap_or_default();
        assert!(LAYERS.contains(&layer), "{name} names no known layer");
    }
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && *u == "s"));
    assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));

    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let owned = |v: &[(String, &str)]| -> Vec<(String, String)> {
        v.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
    };
    assert_eq!(listed(&json, "end_to_end"), owned(&e2e));
    assert_eq!(listed(&json, "per_layer"), owned(&layers));
    assert!(!valid_name(".starts-with-dot") && !valid_name("has space"));
    assert!(!valid_name(&"x".repeat(65)) && !valid_unit(""));
}

#[test]
fn committed_digests_cover_every_default_seed_cell() {
    let text = oracle::COMMITTED;
    Expected::parse(text).expect("committed digests parse");
    let count = |w: &str| {
        text.lines()
            .filter(|l| l.starts_with(&format!("{w} ")))
            .count()
    };
    assert_eq!(count("figs-quick"), 24);
    assert_eq!(count("cell-hires"), 4);
    assert_eq!(count("serve-evict"), serve::COLUMNS * Design::ALL.len());
    assert!(Expected::parse("figs-quick only-three-fields x").is_err());
}

#[test]
fn digest_check_rejects_a_perturbed_cell() {
    let scenes = SceneCache::new(2);
    let streams = FragmentStreamCache::new(SimConfig::default().tile_px);
    let w = Workload::Synthetic(tiny_spec(7));
    let column = Harness::column_label(w, Resolution::R320x240);
    let scene = scenes.get(w, Resolution::R320x240);
    let report = run_variant_replay(&scene, Variant::Design(Design::Baseline), &streams)
        .expect("tiny cell simulates");
    let summary = CellSummary::from_report(&column, "baseline", &report);
    let digest = oracle::cell_digest(&summary);
    let expected =
        Expected::parse(&oracle::digest_line("t", &column, "baseline", &digest)).expect("parses");

    assert_eq!(
        expected.check("t", &column, "baseline", &digest),
        Check::Match
    );
    let (_, ok) = oracle::check_report(&expected, "t", &column, "baseline", &report, false);
    assert!(ok, "the unmodified cell passes");

    let mut perturbed = summary.clone();
    perturbed.total_cycles += 1;
    let bad = oracle::cell_digest(&perturbed);
    assert_eq!(
        expected.check("t", &column, "baseline", &bad),
        Check::Mismatch
    );

    let mut report2 = report.clone();
    report2.texture.samples += 1;
    let (_, ok) = oracle::check_report(&expected, "t", &column, "baseline", &report2, false);
    assert!(!ok, "a perturbed report fails its digest check");
    assert_eq!(
        expected.check("t", &column, "a-tfim", &digest),
        Check::Unknown
    );
}

#[test]
fn failed_frac_counts_a_job_rejected_at_submit() {
    let good = tiny_spec(11);
    let bad = SyntheticSpec {
        triangles: 0,
        ..tiny_spec(12)
    };
    assert!(bad.validate().is_err(), "the injected spec is out of range");
    let keys = [(0, Design::Baseline), (1, Design::Baseline)];
    let jobs = [
        serve::job_spec(good, Design::Baseline),
        serve::job_spec(bad, Design::Baseline),
    ];

    let plane = Plane::start(1).expect("plane binds");
    let records = serve::closed_loop(
        plane.addr,
        &jobs,
        1,
        jobs.len(),
        Instant::now(),
        &Tracer::new(false),
    );
    plane.stop().expect("plane drains");
    assert_eq!(records.len(), 2, "both jobs were attempted");
    assert!(records[0].ok && !records[1].ok);

    let scenes = SceneCache::new(2);
    let streams = FragmentStreamCache::new(SimConfig::default().tile_px);
    let w = Workload::Synthetic(good);
    let column = Harness::column_label(w, Resolution::R320x240);
    let report = run_variant_replay(
        &scenes.get(w, Resolution::R320x240),
        Variant::Design(Design::Baseline),
        &streams,
    )
    .expect("local replay");
    let digest = oracle::cell_digest(&CellSummary::from_report(&column, "baseline", &report));
    let local = BTreeMap::from([((0, "baseline"), digest)]);

    let failed = serve::failures(&records, &keys, &local);
    assert_eq!(failed, 1);
    assert_eq!(failed as f64 / records.len() as f64, 0.5);
}

#[test]
fn serve_inputs_derive_from_the_seed() {
    let a = serve::columns(42);
    assert_eq!(a, serve::columns(42));
    assert_ne!(a, serve::columns(1042));
    for spec in &a {
        spec.validate().expect("generated specs are valid");
    }
    let order = serve::job_order(42, serve::COLUMNS * Design::ALL.len());
    let distinct: BTreeSet<(usize, &str)> = order.iter().map(|&(c, d)| (c, d.label())).collect();
    assert_eq!(
        distinct.len(),
        order.len(),
        "each round covers every pair once"
    );
    assert_ne!(order, serve::job_order(1042, order.len()));
}
