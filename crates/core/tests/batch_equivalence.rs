//! Variant-batch equivalence: replaying several simulators that share a
//! sample key as one batch — one phase-1 sampling pass per chunk of
//! tiles, consumed by every simulator's own phase 2 — must give each
//! simulator a [`RenderReport`] equal to its solo serial replay, at any
//! lane count. Batches with mixed sample keys are rejected.

use pimgfx::{Design, FragmentStream, RenderReport, SimConfig, Simulator};
use pimgfx_workloads::{build_workload, Game, Resolution, SyntheticSpec, Workload};
use std::sync::Arc;

/// The synthetic column CI exercises (same spec as the workflow's
/// `pimgfx-gen` invocation).
fn ci_synthetic() -> Workload {
    Workload::Synthetic(SyntheticSpec {
        seed: 0xc0ffee,
        triangles: 400,
        textures: 2,
        texture_size: 32,
        kind_mask: 0x3,
        grazing_milli: 500,
        overdraw: 1,
        path_frames: 4,
    })
}

/// The distinct configurations behind the figure matrix's variants:
/// the four designs, Fig. 4's aniso-off baseline, the A-TFIM threshold
/// sweep (0.01π is the default) with recalculation off, and the two
/// A-TFIM ablations.
fn figure_configs() -> Vec<SimConfig> {
    let b = || SimConfig::builder();
    let mut configs: Vec<SimConfig> = Design::ALL
        .iter()
        .map(|&d| b().design(d).build().expect("valid"))
        .collect();
    configs.push(b().max_aniso(1).build().expect("valid"));
    for f in [0.005, 0.05, 0.1] {
        let c = b().design(Design::ATfim).angle_threshold_pi_fraction(f);
        configs.push(c.build().expect("valid"));
    }
    let atfim = || b().design(Design::ATfim);
    configs.push(atfim().no_recalculation().build().expect("valid"));
    configs.push(atfim().consolidation(false).build().expect("valid"));
    configs.push(atfim().offload_compression(false).build().expect("valid"));
    configs
}

/// `figure_configs` grouped by sample key, in first-occurrence order.
fn key_groups() -> Vec<Vec<SimConfig>> {
    let mut groups: Vec<Vec<SimConfig>> = Vec::new();
    for c in figure_configs() {
        match groups
            .iter_mut()
            .find(|g| g[0].sample_key() == c.sample_key())
        {
            Some(g) => g.push(c),
            None => groups.push(vec![c]),
        }
    }
    groups
}

fn solo(stream: &FragmentStream, config: &SimConfig) -> RenderReport {
    let mut sim = Simulator::new(config.clone()).expect("sim");
    sim.render_replay(stream).expect("solo replay")
}

fn assert_batch_equivalence(workload: Workload, resolution: Resolution, frames: usize) {
    let scene = Arc::new(build_workload(workload, resolution, frames));
    let stream = FragmentStream::build(scene, SimConfig::default().tile_px).expect("stream");
    for group in key_groups() {
        let solos: Vec<RenderReport> = group.iter().map(|c| solo(&stream, c)).collect();
        for lanes in [1, 2] {
            let mut sims: Vec<Simulator> = group
                .iter()
                .map(|c| Simulator::new(c.clone()).expect("sim"))
                .collect();
            let batch =
                Simulator::render_replay_batch(&mut sims, &stream, lanes).expect("batch replay");
            assert_eq!(batch.len(), group.len());
            for ((config, want), got) in group.iter().zip(&solos).zip(&batch) {
                let label = format!(
                    "{workload:?} {resolution:?} {} batch of {} lanes={lanes}",
                    config.design,
                    group.len()
                );
                got.audit().expect("batch audit");
                // Headline fields first for a readable failure, then the
                // full report (timing, stats, traffic, energy, trace, and
                // every pixel of the frame image).
                assert_eq!(want.total_cycles, got.total_cycles, "cycles: {label}");
                assert_eq!(want.texture, got.texture, "texture stats: {label}");
                assert_eq!(want.traffic, got.traffic, "traffic: {label}");
                assert!(want == got, "full report diverged: {label}");
            }
        }
    }
}

#[test]
fn figure_variants_fall_into_three_sample_key_groups() {
    // Baseline, B-PIM and S-TFIM share the conventional record; the
    // aniso-off baseline samples differently; every A-TFIM variant
    // shares the A-TFIM record.
    let sizes: Vec<usize> = key_groups().iter().map(Vec::len).collect();
    assert_eq!(sizes, vec![3, 7, 1]);
}

#[test]
fn doom3_batches_match_solo_replays() {
    // 300 tiles per frame: chunk boundaries fall mid-frame, and the
    // second frame starts a fresh chunk sequence.
    assert_batch_equivalence(Workload::Game(Game::Doom3), Resolution::R320x240, 2);
}

#[test]
fn synthetic_batches_match_solo_replays() {
    assert_batch_equivalence(ci_synthetic(), Resolution::R320x240, 1);
}

#[test]
fn compressed_texture_batches_match_solo_replays() {
    // Block compression transcodes the textures once per batch; every
    // member must sample the transcoded texels.
    let scene = Arc::new(build_workload(
        Workload::Game(Game::Doom3),
        Resolution::R320x240,
        1,
    ));
    let stream = FragmentStream::build(scene, SimConfig::default().tile_px).expect("stream");
    let group: Vec<SimConfig> = [Design::BPim, Design::STfim]
        .iter()
        .map(|&d| {
            SimConfig::builder()
                .design(d)
                .compressed_textures(true)
                .build()
                .expect("valid")
        })
        .collect();
    let mut sims: Vec<Simulator> = group
        .iter()
        .map(|c| Simulator::new(c.clone()).expect("sim"))
        .collect();
    let batch = Simulator::render_replay_batch(&mut sims, &stream, 1).expect("batch");
    for (config, got) in group.iter().zip(&batch) {
        assert!(solo(&stream, config) == *got, "{}", config.design);
    }
}

#[test]
fn mixed_sample_keys_are_rejected() {
    let scene = Arc::new(build_workload(ci_synthetic(), Resolution::R320x240, 1));
    let stream = FragmentStream::build(scene, SimConfig::default().tile_px).expect("stream");
    let mixed = [
        SimConfig::default(),
        SimConfig::builder()
            .design(Design::ATfim)
            .build()
            .expect("valid"),
    ];
    let mut sims: Vec<Simulator> = mixed
        .iter()
        .map(|c| Simulator::new(c.clone()).expect("sim"))
        .collect();
    let err = Simulator::render_replay_batch(&mut sims, &stream, 1)
        .expect_err("a batch must share one sample key");
    assert!(err.to_string().contains("sample key"), "{err}");
    // So is a batch whose tile size does not match the stream's.
    let mut coarse = vec![Simulator::new(SimConfig {
        tile_px: 32,
        ..SimConfig::default()
    })
    .expect("sim")];
    assert!(Simulator::render_replay_batch(&mut coarse, &stream, 1).is_err());
    // An empty batch is an empty result.
    assert!(Simulator::render_replay_batch(&mut [], &stream, 2)
        .expect("empty batch")
        .is_empty());
}
