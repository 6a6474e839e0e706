//! Frozen replay golden: the FNV-1a digest of every solo replay's full
//! [`RenderReport`] — cycles, counters, traffic, energy, stage traces
//! and every pixel of the frame image — on a small matrix of columns
//! and design points, checked against `replay_golden.txt`.
//!
//! The equivalence suites (`lane_equivalence`, `batch_equivalence`)
//! compare laned and batched replays against the solo replay; this
//! golden pins the solo replay itself, so a change to any replay path
//! that moves simulated behaviour shows here even when every path moves
//! together. A digest changes only with a deliberate refresh: on a
//! mismatch the failure message prints the file's new content.

use pimgfx::{Design, FragmentStream, RenderReport, SimConfig, Simulator};
use pimgfx_workloads::{build_workload, Game, Resolution, Workload};
use std::fmt::Write as _;
use std::sync::Arc;

mod common;
use common::ci_synthetic;

/// The committed digests: `column variant digest` per line.
const GOLDEN: &str = include_str!("replay_golden.txt");

/// FNV-1a over the report's `Debug` rendering. `RenderReport` and every
/// type inside it derive `Debug` and `PartialEq` together, and floats
/// print in their shortest round-trip form, so two reports that compare
/// unequal render differently.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(report: &RenderReport) -> String {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{report:?}").expect("hashing into memory cannot fail");
    format!("{:016x}", h.0)
}

fn design(d: Design) -> SimConfig {
    SimConfig::builder().design(d).build().expect("valid")
}

/// Replays every `(variant, config)` solo on one column and checks the
/// digests against the committed lines for that column.
fn check_column(workload: Workload, frames: usize, variants: &[(&str, SimConfig)]) {
    let resolution = Resolution::R320x240;
    let column = format!("{workload}-{resolution}");
    let scene = Arc::new(build_workload(workload, resolution, frames));
    let stream = FragmentStream::build(scene, SimConfig::default().tile_px).expect("stream");
    let got: Vec<String> = variants
        .iter()
        .map(|(variant, config)| {
            let report = Simulator::new(config.clone())
                .expect("sim")
                .render_replay(&stream)
                .expect("replay");
            report.audit().expect("audit");
            format!("{column} {variant} {}", digest(&report))
        })
        .collect();
    let want: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(column.as_str()))
        .collect();
    assert!(
        got == want,
        "replay digests of {column} moved; if the change is deliberate, \
         replace its lines in replay_golden.txt with:\n{}",
        got.join("\n")
    );
}

#[test]
fn doom3_replays_match_the_golden() {
    check_column(
        Workload::Game(Game::Doom3),
        2,
        &[
            ("baseline", design(Design::Baseline)),
            (
                "aniso-off",
                SimConfig::builder().max_aniso(1).build().expect("valid"),
            ),
            ("b-pim", design(Design::BPim)),
            ("s-tfim", design(Design::STfim)),
            ("a-tfim", design(Design::ATfim)),
            (
                "a-tfim-no-recalc",
                SimConfig::builder()
                    .design(Design::ATfim)
                    .no_recalculation()
                    .build()
                    .expect("valid"),
            ),
            (
                "b-pim-bc1",
                SimConfig::builder()
                    .design(Design::BPim)
                    .compressed_textures(true)
                    .build()
                    .expect("valid"),
            ),
        ],
    );
}

#[test]
fn synthetic_replays_match_the_golden() {
    let variants: Vec<(&str, SimConfig)> = Design::ALL
        .iter()
        .map(|&d| (d.label(), design(d)))
        .collect();
    check_column(ci_synthetic(), 1, &variants);
}
