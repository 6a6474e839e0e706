//! Inputs shared by the replay test suites.

use pimgfx_workloads::{SyntheticSpec, Workload};

/// The synthetic column CI exercises (same spec as the workflow's
/// `pimgfx-gen` invocation).
pub fn ci_synthetic() -> Workload {
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
