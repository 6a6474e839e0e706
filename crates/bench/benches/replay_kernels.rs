//! Micro-benchmark: the texture filter kernels.
//!
//! Times one full sampler pass over the real rasterized fragment
//! distribution of the reduced benchmark scene, per filter mode — a
//! kernel-level regression timer under the whole-sweep throughput
//! numbers in EXPERIMENTS.md (kernel inventory in docs/PERFORMANCE.md).
//! The kernels' bit-identity to the reference filters is asserted by
//! the unit tests in `pimgfx_texture::filter`, not here.

use pimgfx::SimConfig;
use pimgfx_bench::bench_scene;
use pimgfx_bench::microbench::BenchGroup;
use pimgfx_texture::{FetchSet, FilterMode, Sampler, SamplerConfig};
use pimgfx_types::Vec2;

fn main() {
    let scene = bench_scene();
    let mut raster = pimgfx_raster::Rasterizer::with_tile_size(
        scene.width(),
        scene.height(),
        SimConfig::default().tile_px,
    );
    raster.begin_frame();
    let mut frags = Vec::new();
    for draw in &scene.draws {
        raster.bind_texture(draw.texture);
        for tri in &draw.triangles {
            frags.extend(raster.rasterize(&scene.cameras[0], tri));
        }
    }

    let mut group = BenchGroup::new("replay_kernels");
    group.sample_size(10);
    for filter in [
        FilterMode::Bilinear,
        FilterMode::Trilinear,
        FilterMode::Anisotropic,
    ] {
        let sampler = Sampler::new(SamplerConfig {
            filter,
            ..SamplerConfig::default()
        });
        let mut set = FetchSet::new();
        group.bench_function(format!("{filter:?}").to_lowercase(), || {
            let mut acc = 0.0f32;
            for f in &frags {
                let tex = scene.texture(f.texture);
                let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
                let ddx = Vec2::new(f.duv_dx.x * scale.x, f.duv_dx.y * scale.y);
                let ddy = Vec2::new(f.duv_dy.x * scale.x, f.duv_dy.y * scale.y);
                let info = sampler.sample_into(tex, f.uv, ddx, ddy, &mut set);
                acc += info.color.r + set.len() as f32;
            }
            acc
        });
    }
    group.finish();
}
