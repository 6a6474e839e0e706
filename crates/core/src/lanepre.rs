//! Phase-1 lane precomputation for cluster-parallel backend replay.
//!
//! The backend replay has two kinds of work per fragment quad:
//!
//! 1. **Pure functional work** — sampler filtering math, texel line
//!    addressing, footprint/corner geometry, and (for A-TFIM) the
//!    child-averaging kernels. These depend only on the fragment, the
//!    texture, and the immutable layout: no caches, no servers, no
//!    cross-quad order.
//! 2. **Order-sensitive timing work** — L1/L2 probes, the A-TFIM
//!    parent-value store, DRAM/HMC/MTU/logic-layer servers, and the
//!    ROP. These mutate shared state whose evolution depends on the
//!    exact global tile order.
//!
//! Cluster-parallel replay splits the two into phases: phase 1 runs
//! kind-1 work for every shader cluster's tile lane in parallel (the
//! lane partition is `TileScheduler::cluster_for`, identical to the
//! serial path's per-tile cluster assignment), recording the results in
//! per-lane [`LanePre`] buffers; phase 2 then walks the tiles in the
//! original serial order, consuming one record per fragment, and runs
//! only kind-2 work. Every cache probe, server issue, and stats
//! increment happens in the same order with the same operands as the
//! serial path, so the resulting [`RenderReport`](crate::RenderReport)
//! is byte-identical **by construction** — the property the
//! `lane_equivalence` test suite pins for every design.
//!
//! For A-TFIM the phase-1 pass is *speculative*: it computes the
//! child-averaged value of every parent corner even though phase 2 may
//! reuse a stored value instead. Speculation trades redundant
//! functional work for parallelism — the redundant values are
//! bit-identical to what a phase-2 recompute would produce (same
//! kernel, same operands), so consuming them never changes results.

use crate::config::SimConfig;
use crate::design::Design;
use crate::stream::StreamData;
use crate::texpath;
use pimgfx_raster::Fragment;
use pimgfx_shader::TileScheduler;
use pimgfx_texture::{filter, FetchSet, MippedTexture, Sampler, SamplerConfig, TextureLayout};
use pimgfx_types::{Radians, Rgba};

/// One precomputed A-TFIM parent corner: the wrapped texel coordinate
/// (the functional-store key), its cache-line address, and the
/// speculatively computed child-average value.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CornerPre {
    /// Wrapped texel x (texture space).
    pub wx: u32,
    /// Wrapped texel y (texture space).
    pub wy: u32,
    /// Cache-line address of the parent texel.
    pub line: u64,
    /// `average_children` result for this corner, computed with the
    /// fragment's own probe offsets — bit-identical to what the serial
    /// path computes on a reuse miss.
    pub value: Rgba,
}

/// Per-mip-level precomputed data for one A-TFIM fragment.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LevelPre {
    /// Mip level index.
    pub level: u8,
    /// True when every probe offset collapsed onto the parent texel
    /// (plain fetch, no offload, no angle tag).
    pub degenerate: bool,
    /// Bilinear x weight at this level.
    pub fx: f32,
    /// Bilinear y weight at this level.
    pub fy: f32,
}

/// Phase-1 record for one A-TFIM fragment: everything the GPU-side pass
/// derives from the footprint alone, before touching caches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AtfimPre {
    /// The angle tag (orientation-doubled plus camera angle).
    pub angle: Radians,
    /// Anisotropy ratio of the footprint.
    pub aniso_ratio: u32,
    /// Texel count an equivalent conventional filter would fetch.
    pub conventional_texels: u32,
    /// Whether the major anisotropy axis is x-dominant.
    pub major_axis_x: bool,
    /// Mip blend weight between the two contributing levels.
    pub w: f32,
    /// Per-level geometry; `[1]` is unused when `level_count == 1`.
    pub levels: [LevelPre; 2],
    /// 1 or 2 mip levels contribute.
    pub level_count: u8,
}

/// Phase-1 output for one cluster lane, in lane-local consumption
/// order (the serial tile order restricted to this cluster). Flat SoA
/// buffers with prefix indices so steady-state replay never allocates.
#[derive(Debug, Default)]
pub(crate) struct LanePre {
    /// Per-fragment filtered color (conventional and S-TFIM designs).
    pub colors: Vec<Rgba>,
    /// Per-fragment texel count (conventional and S-TFIM designs).
    pub texels: Vec<u32>,
    /// Per-fragment anisotropy ratio (conventional and S-TFIM designs).
    pub aniso: Vec<u32>,
    /// Per-fragment prefix into [`LanePre::lines`] (conventional
    /// designs); `line_start.len() == fragment count + 1`.
    pub line_start: Vec<u32>,
    /// Deduplicated per-fragment cache-line addresses, first-occurrence
    /// order (conventional designs).
    pub lines: Vec<u64>,
    /// Per-quad prefix into [`LanePre::quad_lines`] (S-TFIM);
    /// `quad_line_start.len() == quad count + 1`.
    pub quad_line_start: Vec<u32>,
    /// Deduplicated per-quad request lines, first-occurrence order
    /// (S-TFIM).
    pub quad_lines: Vec<u64>,
    /// Per-fragment A-TFIM records.
    pub at: Vec<AtfimPre>,
    /// Per-fragment start offset into [`LanePre::corners`] (A-TFIM);
    /// each fragment owns `level_count * 4` consecutive corners.
    pub at_corner_start: Vec<u32>,
    /// Flat parent-corner records (A-TFIM), 4 per contributing level,
    /// fine level first — the serial probe-discovery order.
    pub corners: Vec<CornerPre>,
}

impl LanePre {
    /// Clears every buffer for the next frame, keeping capacity.
    pub fn clear(&mut self) {
        self.colors.clear();
        self.texels.clear();
        self.aniso.clear();
        self.line_start.clear();
        self.lines.clear();
        self.quad_line_start.clear();
        self.quad_lines.clear();
        self.at.clear();
        self.at_corner_start.clear();
        self.corners.clear();
    }
}

/// Per-lane consumption cursor: how many fragments and quads of the
/// lane's [`LanePre`] buffer phase 2 has consumed so far this frame.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LaneCursor {
    /// Fragments consumed.
    pub frag: usize,
    /// Quads consumed.
    pub quad: usize,
}

/// The phase-1 worker: a copy of the design's pure sampling
/// configuration, safe to run on any thread against shared read-only
/// stream/texture data.
#[derive(Debug, Clone)]
pub(crate) struct Precomputer {
    design: Design,
    sampler: Sampler,
}

impl Precomputer {
    /// Builds a precomputer matching the texture path a simulator with
    /// this configuration instantiates (same sampler, same reorder
    /// flag), so phase-1 colors are bit-identical to serial ones.
    pub fn new(config: &SimConfig) -> Self {
        let sampler_config = SamplerConfig {
            reordered: config.design == Design::ATfim,
            ..config.sampler
        };
        Self {
            design: config.design,
            sampler: Sampler::new(sampler_config),
        }
    }

    /// Fills `buf` with one frame's phase-1 records for cluster
    /// `lane`: walks the frame's tiles in stream order, keeps those the
    /// scheduler assigns to `lane`, and precomputes every quad.
    #[allow(clippy::too_many_arguments)]
    pub fn fill_lane(
        &self,
        lane: usize,
        data: &StreamData,
        tile_range: std::ops::Range<usize>,
        scheduler: &TileScheduler,
        textures: &[&MippedTexture],
        layouts: &[TextureLayout],
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        buf.clear();
        if matches!(self.design, Design::Baseline | Design::BPim) {
            buf.line_start.push(0);
        }
        if self.design == Design::STfim {
            buf.quad_line_start.push(0);
        }
        for te in &data.tiles[tile_range] {
            if scheduler.cluster_for(te.coord) != lane {
                continue;
            }
            let mut offset = te.frag_start as usize;
            let quad_end = (te.quad_start + te.quad_len) as usize;
            for &len in &data.quad_lens[te.quad_start as usize..quad_end] {
                let quad = &data.fragments[offset..offset + len as usize];
                offset += len as usize;
                let tex = textures[quad[0].texture.index()];
                let layout = &layouts[quad[0].texture.index()];
                match self.design {
                    Design::Baseline | Design::BPim => {
                        self.pre_conventional(quad, tex, layout, buf, scratch);
                    }
                    Design::STfim => self.pre_stfim(quad, tex, layout, buf, scratch),
                    Design::ATfim => self.pre_atfim(quad, tex, layout, buf, scratch),
                }
            }
        }
    }

    /// Conventional phase 1: the full sampler pass plus per-fragment
    /// line dedup — the exact computation `quad_conventional` performs
    /// before its first cache probe.
    fn pre_conventional(
        &self,
        quad: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        for frag in quad {
            let (ddx, ddy) = texpath::texel_derivs(tex, frag);
            let info = self
                .sampler
                .sample_into(tex, frag.uv, ddx, ddy, &mut scratch.fetches);
            let texels = info.conventional_texels.max(scratch.fetches.len() as u32);
            texpath::dedup_lines_into(
                scratch.fetches.fetches(),
                layout,
                &mut scratch.line_addrs,
                &mut scratch.lines,
            );
            buf.colors.push(info.color);
            buf.texels.push(texels);
            buf.aniso.push(info.aniso_ratio);
            buf.lines.extend_from_slice(&scratch.lines);
            buf.line_start.push(buf.lines.len() as u32);
        }
    }

    /// S-TFIM phase 1: the sampler pass plus the quad-wide request-line
    /// dedup (first-occurrence order across the quad's fragments).
    fn pre_stfim(
        &self,
        quad: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        let quad_lines_before = buf.quad_lines.len();
        for frag in quad {
            let (ddx, ddy) = texpath::texel_derivs(tex, frag);
            let info = self
                .sampler
                .sample_into(tex, frag.uv, ddx, ddy, &mut scratch.fetches);
            let texels = info.conventional_texels.max(scratch.fetches.len() as u32);
            layout.texel_line_addrs_into(scratch.fetches.fetches(), &mut scratch.line_addrs);
            for &line in &scratch.line_addrs {
                if !buf.quad_lines[quad_lines_before..].contains(&line) {
                    buf.quad_lines.push(line);
                }
            }
            buf.colors.push(info.color);
            buf.texels.push(texels);
            buf.aniso.push(info.aniso_ratio);
        }
        buf.quad_line_start.push(buf.quad_lines.len() as u32);
    }

    /// A-TFIM phase 1: footprint geometry, per-corner addressing, and
    /// the speculative child-average value of every corner, computed
    /// with the fragment's own probe offsets (the operands a serial
    /// recompute uses).
    fn pre_atfim(
        &self,
        quad: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        for frag in quad {
            let (ddx, ddy) = texpath::texel_derivs(tex, frag);
            let fp = self.sampler.footprint(ddx, ddy);
            let (fine, coarse, w) = fp.mip_levels(tex.max_level());
            let orientation = fp.major_axis.y.atan2(fp.major_axis.x);
            let angle = Radians::new(
                2.0 * orientation.rem_euclid(std::f32::consts::PI) + frag.camera_angle.as_f32(),
            );
            let two_levels = !(coarse == fine || w == 0.0);
            let mut pre = AtfimPre {
                angle,
                aniso_ratio: fp.aniso_ratio,
                conventional_texels: fp.conventional_texel_count(),
                major_axis_x: fp.major_axis.x.abs() >= fp.major_axis.y.abs(),
                w,
                levels: [LevelPre::default(); 2],
                level_count: if two_levels { 2 } else { 1 },
            };
            buf.at_corner_start.push(buf.corners.len() as u32);
            let level_divs = [(fine, 1i64), (coarse, 2)];
            for (li, &(level, div)) in level_divs
                .iter()
                .take(usize::from(pre.level_count))
                .enumerate()
            {
                let (x0, y0, fx, fy) = filter::bilinear_corners(tex, frag.uv, level);
                let img = tex.level(level);
                let wrap = tex.wrap();
                let fine_scale = 1.0 / (1u32 << fine.min(31)) as f32;
                filter::probe_offsets_into(&fp, fp.aniso_ratio, fine_scale, &mut scratch.offsets);
                if div != 1 {
                    for o in scratch.offsets.iter_mut() {
                        *o = (o.0 / div, o.1 / div);
                    }
                }
                let degenerate = scratch.offsets.iter().all(|&o| o == (0, 0));
                pre.levels[li] = LevelPre {
                    level: level as u8,
                    degenerate,
                    fx,
                    fy,
                };
                for (cx, cy) in [(0i64, 0i64), (1, 0), (0, 1), (1, 1)] {
                    let wx = wrap.wrap(x0 + cx, img.width());
                    let wy = wrap.wrap(y0 + cy, img.height());
                    let line = layout.texel_line_addr(wx, wy, level);
                    // The serial path's reuse-miss recompute: same kernel,
                    // same operands (the unwrapped coordinate is what the
                    // serial path passes, so clamped wraps agree too).
                    let value =
                        filter::average_children(tex, x0 + cx, y0 + cy, level, &scratch.offsets);
                    buf.corners.push(CornerPre {
                        wx,
                        wy,
                        line,
                        value,
                    });
                }
            }
            buf.at.push(pre);
        }
    }
}

/// Per-worker scratch buffers for phase-1 fills (no steady-state
/// allocation, mirroring the serial path's `PathScratch`).
#[derive(Debug, Default)]
pub(crate) struct PreScratch {
    fetches: FetchSet,
    line_addrs: Vec<u64>,
    lines: Vec<u64>,
    offsets: Vec<(i64, i64)>,
}

/// Resolves the phase-1 worker count for a replay: `lanes` capped to
/// the cluster count (a lane per cluster is the maximum useful width).
pub(crate) fn lane_workers(lanes: usize, clusters: usize) -> usize {
    lanes.clamp(1, clusters.max(1))
}

/// Runs phase 1 for one frame: fills every cluster's [`LanePre`] buffer
/// across `workers` scoped threads (contiguous cluster chunks — the
/// round-robin tile partition keeps per-cluster loads near-uniform, so
/// static chunking balances well). Output is keyed by cluster index and
/// therefore independent of worker count and scheduling.
#[allow(clippy::too_many_arguments)]
pub(crate) fn precompute_frame(
    pre: &Precomputer,
    data: &StreamData,
    tile_range: std::ops::Range<usize>,
    scheduler: &TileScheduler,
    textures: &[&MippedTexture],
    layouts: &[TextureLayout],
    bufs: &mut [LanePre],
    workers: usize,
) {
    let clusters = bufs.len();
    let workers = lane_workers(workers, clusters);
    if workers <= 1 {
        let mut scratch = PreScratch::default();
        for (lane, buf) in bufs.iter_mut().enumerate() {
            pre.fill_lane(
                lane,
                data,
                tile_range.clone(),
                scheduler,
                textures,
                layouts,
                buf,
                &mut scratch,
            );
        }
        return;
    }
    let chunk = clusters.div_ceil(workers);
    std::thread::scope(|scope| {
        for (ci, bufs_chunk) in bufs.chunks_mut(chunk).enumerate() {
            let tile_range = tile_range.clone();
            scope.spawn(move || {
                let mut scratch = PreScratch::default();
                for (bi, buf) in bufs_chunk.iter_mut().enumerate() {
                    pre.fill_lane(
                        ci * chunk + bi,
                        data,
                        tile_range.clone(),
                        scheduler,
                        textures,
                        layouts,
                        buf,
                        &mut scratch,
                    );
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_workloads::{build_scene_unchecked, Game, Resolution, SceneTrace};

    fn tiny_scene() -> SceneTrace {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        build_scene_unchecked(&profile, Resolution::R320x240, 1)
    }

    #[test]
    fn lane_fill_is_worker_count_invariant() {
        let scene = tiny_scene();
        let data = StreamData::build(&scene, SimConfig::default().tile_px).expect("stream");
        let config = SimConfig::builder()
            .design(Design::ATfim)
            .build()
            .expect("valid");
        let pre = Precomputer::new(&config);
        let clusters = config.shader.clusters;
        let scheduler = TileScheduler::new(clusters, scene.width().div_ceil(config.tile_px));
        let textures: Vec<&MippedTexture> = scene.textures.iter().collect();
        let layouts: Vec<TextureLayout> = scene
            .textures
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let dims: Vec<(u32, u32)> = (0..t.level_count())
                    .map(|l| (t.level(l).width(), t.level(l).height()))
                    .collect();
                TextureLayout::new(t.id(), 0x1000_0000 + ((i as u64) << 20), &dims)
            })
            .collect();
        let fe = &data.frames[0];
        let range = fe.tile_start as usize..(fe.tile_start + fe.tile_len) as usize;
        let mut serial: Vec<LanePre> = (0..clusters).map(|_| LanePre::default()).collect();
        precompute_frame(
            &pre,
            &data,
            range.clone(),
            &scheduler,
            &textures,
            &layouts,
            &mut serial,
            1,
        );
        for workers in [2, 4, 16] {
            let mut wide: Vec<LanePre> = (0..clusters).map(|_| LanePre::default()).collect();
            precompute_frame(
                &pre,
                &data,
                range.clone(),
                &scheduler,
                &textures,
                &layouts,
                &mut wide,
                workers,
            );
            for (a, b) in serial.iter().zip(&wide) {
                assert_eq!(a.at.len(), b.at.len());
                assert_eq!(a.at_corner_start, b.at_corner_start);
                assert!(a
                    .corners
                    .iter()
                    .zip(&b.corners)
                    .all(|(x, y)| x.line == y.line && x.value == y.value));
            }
        }
        // Every fragment of the frame landed in exactly one lane.
        let total: usize = serial.iter().map(|l| l.at.len()).sum();
        let expect: usize = data.tiles
            [(fe.tile_start as usize)..(fe.tile_start + fe.tile_len) as usize]
            .iter()
            .map(|t| t.frag_len as usize)
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn lane_workers_clamps() {
        assert_eq!(lane_workers(0, 16), 1);
        assert_eq!(lane_workers(1, 16), 1);
        assert_eq!(lane_workers(4, 16), 4);
        assert_eq!(lane_workers(64, 16), 16);
        assert_eq!(lane_workers(4, 0), 1);
    }
}
