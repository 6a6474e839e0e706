//! The frame-level simulator.
//!
//! Functional-first, timing-directed: each frame is actually rendered
//! (transform → clip → rasterize → texture filter → ROP, producing a
//! real image), and every texel fetch, cache probe, package transfer,
//! and buffer write is simultaneously charged to the configured hardware
//! model. A frame's cycle count is the completion time of its slowest
//! resource — compute pipelines, texture units, external interface, or
//! DRAM banks — which is how the bandwidth-bound behavior the paper
//! targets emerges without a hand-tuned bottleneck switch.
//!
//! # Thread safety
//!
//! [`Simulator`] is `Send + Sync` (asserted at compile time below): it
//! owns all of its mutable state and uses no interior mutability, so a
//! parallel sweep (`pimgfx-bench`) can give each worker thread its own
//! simulator while all workers share one read-only
//! [`SceneTrace`]. Rendering still takes
//! `&mut self` — one simulator is one hardware instance; parallelism
//! comes from running independent experiment cells, never from sharing
//! a simulator.

use crate::backend::MemoryBackend;
use crate::config::{SampleKey, SimConfig};
use crate::design::Design;
use crate::geometry;
use crate::lanepre::{self, LanePre};
use crate::rop::Rop;
use crate::stats::{FrameStats, RenderReport};
use crate::stream::{FragmentStream, FrameEntry, StreamData};
use crate::texpath::TexturePath;
use pimgfx_energy::{EnergyModel, EnergyParams};
use pimgfx_engine::trace::{stage, StageCounters, StageTrace};
use pimgfx_engine::{Cycle, InFlightWindow};
use pimgfx_mem::MemorySystem;
use pimgfx_quality::FrameImage;
use pimgfx_raster::RasterStats;
use pimgfx_shader::{ShaderCores, ShaderProgram, TileScheduler};
use pimgfx_texture::{MippedTexture, TextureLayout};
use pimgfx_types::{ConfigError, Result, Rgba};
use pimgfx_workloads::SceneTrace;

/// Base address of the simulated texture heap.
const TEXTURE_BASE: u64 = 0x1000_0000;

/// The assembled simulator for one design point.
///
/// # Examples
///
/// ```no_run
/// use pimgfx::{Design, SimConfig, Simulator};
/// use pimgfx_workloads::{build_scene, Game, Resolution};
///
/// let scene = build_scene(Game::Doom3, Resolution::R320x240, 1);
/// let config = SimConfig::builder().design(Design::ATfim).build()?;
/// let mut sim = Simulator::new(config)?;
/// let report = sim.render_trace(&scene)?;
/// println!("{report}");
/// # Ok::<(), pimgfx_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    mem: MemoryBackend,
    cores: ShaderCores,
    texture: TexturePath,
}

// Sweep workers move simulators across threads and share scene traces
// by reference; keep both guarantees checked at compile time so a new
// field with interior mutability cannot silently break the parallel
// harness.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Simulator>();
    assert_send_sync::<crate::stats::RenderReport>();
};

impl Simulator {
    /// Builds a simulator from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration is inconsistent
    /// (see [`SimConfig::validate`]) or a component rejects its
    /// parameters.
    pub fn new(config: SimConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            mem: MemoryBackend::from_config(&config)?,
            cores: ShaderCores::new(config.shader),
            texture: TexturePath::new(&config)?,
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The texture path (stats and load-balance diagnostics).
    pub fn texture_path(&self) -> &TexturePath {
        &self.texture
    }

    /// Renders every frame of `scene`, returning the accumulated report
    /// (the image is the last frame's).
    ///
    /// # Examples
    ///
    /// Render a short synthetic trace on the paper's baseline GPU and
    /// read the headline metric (total cycles):
    ///
    /// ```
    /// use pimgfx::{Design, SimConfig, Simulator};
    /// use pimgfx_workloads::{build_scene, Game, Resolution};
    ///
    /// let config = SimConfig::builder().design(Design::Baseline).build()?;
    /// let mut sim = Simulator::new(config)?;
    /// let scene = build_scene(Game::Doom3, Resolution::R320x240, 1);
    /// let report = sim.render_trace(&scene)?;
    /// assert!(report.total_cycles > 0);
    /// # Ok::<(), pimgfx_types::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scene is empty.
    pub fn render_trace(&mut self, scene: &SceneTrace) -> Result<RenderReport> {
        // The variant-invariant frontend (rasterize, bin, quad-group)
        // followed immediately by the variant-specific backend — the
        // same two passes a cached replay runs, so a direct render and
        // a replay are byte-identical by construction.
        let data = StreamData::build(scene, self.config.tile_px)?;
        Self::replay_batch(std::slice::from_mut(self), scene, &data, 1)?
            .pop()
            .ok_or_else(|| ConfigError::new("simulator", "a one-simulator replay lost its report"))
    }

    /// Renders from a prebuilt [`FragmentStream`] instead of
    /// rasterizing, producing a report byte-identical to
    /// [`render_trace`](Self::render_trace) on the stream's scene. All
    /// cycle-bearing stages — geometry timing, shading, texture layout,
    /// filtering, caching, ROP, DRAM, energy — still run per call, so
    /// every design point replays its own timing; only the purely
    /// functional frontend is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the stream was binned at a
    /// different tile size than this simulator's configuration.
    pub fn render_replay(&mut self, stream: &FragmentStream) -> Result<RenderReport> {
        self.render_replay_lanes(stream, 1)
    }

    /// Renders from a prebuilt [`FragmentStream`] with the backend's
    /// pure per-fragment work spread over up to `lanes` worker threads:
    /// a [`render_replay_batch`](Self::render_replay_batch) of one.
    ///
    /// `lanes <= 1` fills the records on the calling thread (no extra
    /// threads); lane counts above the cluster count are clamped — one
    /// lane per cluster is the maximum useful width. The report is
    /// byte-identical for any lane count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the stream was binned at a
    /// different tile size than this simulator's configuration.
    pub fn render_replay_lanes(
        &mut self,
        stream: &FragmentStream,
        lanes: usize,
    ) -> Result<RenderReport> {
        Self::render_replay_batch(std::slice::from_mut(self), stream, lanes)?
            .pop()
            .ok_or_else(|| ConfigError::new("simulator", "a one-simulator replay lost its report"))
    }

    /// Replays one [`FragmentStream`] on every simulator of `sims`,
    /// sharing their pure sampling work, and returns one report per
    /// simulator in order — each byte-identical to that simulator's
    /// solo [`render_replay`](Self::render_replay).
    ///
    /// The replay runs in two phases per chunk of tiles. Phase 1
    /// partitions the chunk's tiles into per-shader-cluster lanes (the
    /// partition is `TileScheduler::cluster_for` — identical to the
    /// serial tile assignment) and precomputes every quad's
    /// order-independent work on up to `lanes` threads: sampler
    /// filtering, texel addressing, and the A-TFIM speculative parent
    /// recomputes. Phase 2 then walks the chunk's tiles in the original
    /// serial order once per simulator, consuming those records, so
    /// every cache probe, memory-server access, and stats increment
    /// happens with the same operands in the same sequence as a solo
    /// serial replay. Records are kept for one chunk only (two with
    /// `lanes > 1`, where helper threads fill chunk `k + 1` while the
    /// calling thread consumes chunk `k`), so the buffers never scale
    /// with the frame.
    ///
    /// Phase 1 reads only the configuration's [`SampleKey`], so every
    /// simulator of a batch must share one.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the stream was binned at a
    /// different tile size than a simulator's configuration, or when
    /// the simulators' sample keys differ.
    ///
    /// [`SampleKey`]: crate::SampleKey
    pub fn render_replay_batch(
        sims: &mut [Simulator],
        stream: &FragmentStream,
        lanes: usize,
    ) -> Result<Vec<RenderReport>> {
        for sim in sims.iter() {
            if stream.tile_px() != sim.config.tile_px {
                return Err(ConfigError::new(
                    "simulator",
                    format!(
                        "stream binned at tile_px {} cannot replay on tile_px {}",
                        stream.tile_px(),
                        sim.config.tile_px
                    ),
                ));
            }
        }
        if let Some((first, rest)) = sims.split_first() {
            let key = first.config.sample_key();
            if let Some(other) = rest.iter().find(|s| s.config.sample_key() != key) {
                return Err(ConfigError::new(
                    "simulator",
                    format!(
                        "a replay batch must share one sample key: {} and {} sample differently",
                        first.config.design, other.config.design
                    ),
                ));
            }
        }
        Self::replay_batch(sims, stream.scene(), stream.data(), lanes)
    }

    /// The variant-specific backend over an already-built fragment
    /// stream: drives shading, texturing, ROP, memory, and energy for
    /// every simulator of `sims` (which share one sample key). The pure
    /// per-fragment work runs as a chunked phase-1 precompute shared by
    /// all of them on up to `lanes` threads (see [`crate::lanepre`]).
    fn replay_batch(
        sims: &mut [Simulator],
        scene: &SceneTrace,
        data: &StreamData,
        lanes: usize,
    ) -> Result<Vec<RenderReport>> {
        let Some(first) = sims.first() else {
            return Ok(Vec::new());
        };
        let key = first.config.sample_key();
        let inputs = ReplayInputs::new(scene, data, &key);
        let lanes = lanepre::lane_workers(lanes, key.clusters);
        let mut replays: Vec<Replay<'_>> = sims
            .iter_mut()
            .map(|sim| Replay::new(sim, &inputs))
            .collect();

        // Every frame's tiles in chunks, tagged with their frame. A frame
        // without tiles still gets one empty chunk, so it opens and
        // closes.
        let mut chunks: Vec<std::ops::Range<usize>> = Vec::new();
        let mut chunk_frame: Vec<usize> = Vec::new();
        for (f, fe) in data.frames.iter().enumerate() {
            let tiles = fe.tile_start as usize..(fe.tile_start + fe.tile_len) as usize;
            for start in (tiles.start..tiles.end.max(tiles.start + 1)).step_by(CHUNK_TILES) {
                chunks.push(start..(start + CHUNK_TILES).min(tiles.end));
                chunk_frame.push(f);
            }
        }
        let src = lanepre::ChunkSource {
            data,
            scheduler: &inputs.scheduler,
            textures: inputs.textures(),
            layouts: &inputs.layouts,
        };
        lanepre::for_each_chunk(&key, lanes, &src, &chunks, |k, records| {
            let f = chunk_frame[k];
            let opens = k == 0 || chunk_frame[k - 1] != f;
            let closes = chunk_frame.get(k + 1) != Some(&f);
            for r in &mut replays {
                if opens {
                    r.begin_frame();
                }
                r.tiles(chunks[k].clone(), records);
                if closes {
                    r.end_frame(&data.frames[f]);
                }
            }
        });
        Ok(replays.into_iter().map(Replay::finish).collect())
    }

    /// Snapshot of every compute-side stage's cumulative counters:
    /// shader ALUs, the in-flight-window stall total, the full texture
    /// path (GPU pipes plus MTU / A-TFIM logic layers), and the ROP.
    fn compute_trace(&self, rop: &Rop, window_stalls: u64) -> StageTrace {
        let mut t = StageTrace::new();
        t.record(
            stage::SHADER_ALU,
            StageCounters::busy(self.cores.total_busy().get()),
        );
        t.record(stage::SHADER_WINDOW, StageCounters::stalled(window_stalls));
        self.texture.record_trace(&mut t);
        rop.record_trace(&mut t);
        t
    }

    /// Resets all hardware state (between independent experiments).
    pub fn reset(&mut self) {
        self.mem.reset();
        self.cores.reset();
        self.texture.reset();
    }
}

/// Screen tiles per chunk of a replay: phase 1 fills
/// the records of this many tiles, then every simulator of the batch
/// consumes them. Small enough that the records never grow with the
/// frame and stay near 1 MB (on `figs-quick`, 64-tile chunks raised
/// the peak RSS ~12 MB above whole-cell replays, 32-tile chunks ~3 MB,
/// 16-tile chunks not at all); large enough that a chunk's hand-off
/// stays in the noise (same cells/s at 16, 32 and 64 tiles).
const CHUNK_TILES: usize = 16;

/// A cluster may work this many tiles ahead of its oldest unretired
/// one — texture latency beyond that slack throttles issue, as finite
/// in-flight fragment storage does in hardware.
const TILE_WINDOW: usize = 4;

/// What every simulator of a batch shares for one replay: the stream,
/// the textures' placement in the simulated address space, the
/// (optionally transcoded) textures, and the tile→cluster partition.
/// All of it derives from the batch's [`SampleKey`](crate::SampleKey).
struct ReplayInputs<'a> {
    scene: &'a SceneTrace,
    data: &'a StreamData,
    layouts: Vec<TextureLayout>,
    /// The block-compressed round trip of every texture, when the key
    /// asks for compressed textures.
    transcoded: Option<Vec<MippedTexture>>,
    scheduler: TileScheduler,
}

impl<'a> ReplayInputs<'a> {
    fn new(scene: &'a SceneTrace, data: &'a StreamData, key: &SampleKey) -> Self {
        // Lay textures out in the simulated address space. With several
        // HMC cubes, textures go round-robin into per-cube regions so a
        // whole mip pyramid always lives in one cube (§V-E). (The GDDR5
        // baseline validates to one cube.)
        let cubes = key.hmc_cubes.max(1) as u64;
        let mut layouts: Vec<TextureLayout> = Vec::with_capacity(scene.textures.len());
        let mut next_offset = vec![0u64; cubes as usize];
        for (i, tex) in scene.textures.iter().enumerate() {
            let dims: Vec<(u32, u32)> = (0..tex.level_count())
                .map(|l| (tex.level(l).width(), tex.level(l).height()))
                .collect();
            let cube = i as u64 % cubes;
            let base = TEXTURE_BASE
                + cube * crate::backend::CUBE_REGION_BYTES
                + next_offset[cube as usize];
            let layout = TextureLayout::new(tex.id(), base, &dims);
            next_offset[cube as usize] += layout.total_bytes().next_multiple_of(4096);
            layouts.push(layout);
        }

        // Optional block compression: transcode the textures through the
        // codec so the functional renderer samples the lossy texels the
        // hardware would read.
        let transcoded = key.compressed_textures.then(|| {
            scene
                .textures
                .iter()
                .map(|t| pimgfx_texture::CompressedTexture::encode(t).decode(t))
                .collect()
        });
        Self {
            scene,
            data,
            layouts,
            transcoded,
            scheduler: TileScheduler::new(key.clusters, scene.width().div_ceil(key.tile_px)),
        }
    }

    /// The textures the sampler reads, indexed by texture id.
    fn textures(&self) -> &[MippedTexture] {
        self.transcoded.as_deref().unwrap_or(&self.scene.textures)
    }
}

/// One simulator's replay in progress: the per-run accumulators and
/// the current frame's state, advanced by
/// [`begin_frame`](Replay::begin_frame), [`tiles`](Replay::tiles) (once
/// per chunk) and [`end_frame`](Replay::end_frame),
/// and turned into a report by [`finish`](Replay::finish).
struct Replay<'a> {
    sim: &'a mut Simulator,
    inputs: &'a ReplayInputs<'a>,
    rop: Rop,
    fragment_program: ShaderProgram,
    image: FrameImage,
    raster_total: RasterStats,
    clock: Cycle,
    frames: u32,
    per_frame: Vec<FrameStats>,
    samples_before: u64,
    per_frame_trace: Vec<StageTrace>,
    trace_snapshot: StageTrace,
    window_stalls: u64,
    quad_results: Vec<(Rgba, Cycle)>,
    /// Start of the current frame.
    frame_start: Cycle,
    /// Geometry completion of the current frame.
    geom_done: Cycle,
    /// Running end of the current frame.
    frame_end: Cycle,
    /// Per-cluster in-flight windows of the current frame.
    windows: Vec<InFlightWindow>,
    /// Per-cluster count of phase-1 fragment records consumed in the
    /// current chunk.
    cursors: Vec<usize>,
}

impl<'a> Replay<'a> {
    fn new(sim: &'a mut Simulator, inputs: &'a ReplayInputs<'a>) -> Self {
        let scene = inputs.scene;
        let (width, height) = (scene.width(), scene.height());
        let clusters = sim.config.shader.clusters;
        Self {
            rop: Rop::new(width, height, sim.config.tile_px),
            fragment_program: ShaderProgram::new(scene.shader_alu_ops, 1),
            image: FrameImage::filled(width, height, Rgba::BLACK),
            raster_total: RasterStats::default(),
            clock: Cycle::ZERO,
            frames: 0,
            per_frame: Vec::with_capacity(scene.cameras.len()),
            samples_before: 0,
            per_frame_trace: Vec::with_capacity(scene.cameras.len()),
            trace_snapshot: StageTrace::new(),
            window_stalls: 0,
            quad_results: Vec::new(),
            frame_start: Cycle::ZERO,
            geom_done: Cycle::ZERO,
            frame_end: Cycle::ZERO,
            windows: Vec::with_capacity(clusters),
            cursors: vec![0; clusters],
            sim,
            inputs,
        }
    }

    /// Opens a frame: geometry processing (its vertex traffic and ALU
    /// work are timing, so it runs per variant, not in the frontend)
    /// and fresh in-flight windows.
    fn begin_frame(&mut self) {
        self.frame_start = self.clock;
        self.rop.begin_frame();
        self.image.fill(Rgba::BLACK);
        self.geom_done = geometry::process_frame(
            self.frame_start,
            self.inputs.scene,
            &mut self.sim.cores,
            &mut self.sim.mem,
        );
        self.frame_end = self.geom_done;
        let geom_done = self.geom_done;
        self.windows.clear();
        self.windows.extend(
            (0..self.sim.config.shader.clusters)
                .map(|_| InFlightWindow::new(TILE_WINDOW, geom_done)),
        );
    }

    /// Fragment processing over the stream's tiles `range` of the
    /// current frame, in stream order. Every quad consumes its phase-1
    /// record from its cluster's buffer in `pre` (filled for exactly
    /// this range).
    fn tiles(&mut self, range: std::ops::Range<usize>, pre: &[LanePre]) {
        let inputs = self.inputs;
        let data = inputs.data;
        let textures = inputs.textures();
        let sim = &mut *self.sim;
        self.cursors.fill(0);
        for te in &data.tiles[range] {
            let cluster = inputs.scheduler.cluster_for(te.coord);
            let issue_at = self.windows[cluster].gate_from(self.geom_done);
            let alu_done = sim.cores.shade_fragments(
                cluster,
                issue_at,
                u64::from(te.frag_len),
                &self.fragment_program,
            );
            let mut tile_done = alu_done;
            // Texture requests are issued at 2x2-quad granularity (the
            // texture unit serves whole fragment groups); the stream
            // stores each tile's fragments quad-contiguously, in the
            // same first-occurrence quad order the simulator always
            // issued.
            let mut offset = te.frag_start as usize;
            let quad_end = (te.quad_start + te.quad_len) as usize;
            for &len in &data.quad_lens[te.quad_start as usize..quad_end] {
                let quad = &data.fragments[offset..offset + len as usize];
                offset += len as usize;
                sim.texture.sample_quad(
                    cluster,
                    issue_at,
                    quad,
                    &textures[quad[0].texture.index()],
                    &mut sim.mem,
                    &pre[cluster],
                    &mut self.cursors[cluster],
                    &mut self.quad_results,
                );
                for (frag, &(color, done)) in quad.iter().zip(&self.quad_results) {
                    tile_done = tile_done.max(done);
                    self.image.put(frag.x, frag.y, color.clamped());
                    self.rop.retire(frag);
                }
            }
            self.windows[cluster].retire(tile_done);
            self.frame_end = self.frame_end.max(tile_done);
        }
    }

    /// Closes a frame: ROP write-back, then the per-frame statistics
    /// and trace slice.
    fn end_frame(&mut self, fe: &FrameEntry) {
        let rop_done = self.rop.flush_frame(self.frame_end, &mut self.sim.mem);
        self.frame_end = self
            .frame_end
            .max(rop_done)
            .max(self.sim.texture.last_completion());

        self.clock = self.frame_end;
        // Per-frame trace slice: the compute-side counters are
        // cumulative, so each frame is the delta since the last
        // snapshot (the windows are per-frame, so their stalls
        // accumulate into a running total first).
        self.window_stalls += self.windows.iter().map(InFlightWindow::stalls).sum::<u64>();
        let cumulative = self.sim.compute_trace(&self.rop, self.window_stalls);
        self.per_frame_trace
            .push(cumulative.delta_since(&self.trace_snapshot));
        self.trace_snapshot = cumulative;
        let samples_now = self.sim.texture.stats().samples;
        self.per_frame.push(FrameStats {
            frame: self.frames,
            cycles: self.frame_end.since(self.frame_start).get(),
            // The frontend captured per-frame raster counters when it
            // built the stream.
            fragments: fe.raster.fragments_out,
            texture_samples: samples_now - self.samples_before,
        });
        self.samples_before = samples_now;
        let r = fe.raster;
        let total = &mut self.raster_total;
        total.triangles_in += r.triangles_in;
        total.triangles_clipped += r.triangles_clipped;
        total.hiz_rejected += r.hiz_rejected;
        total.z_tests += r.z_tests;
        total.fragments_out += r.fragments_out;
        total.tiles_touched += r.tiles_touched;
        self.frames += 1;
    }

    /// Energy accounting, conservation checks, and the report.
    fn finish(self) -> RenderReport {
        let sim = self.sim;
        sim.mem.sync_traffic();
        let mut energy = EnergyModel::new(EnergyParams::default());
        energy.add_shader_busy(sim.cores.total_busy());
        energy.add_texture_busy(sim.texture.gpu_busy());
        energy.add_pim_busy(sim.texture.pim_busy());
        energy.add_cache_accesses(sim.texture.cache_accesses());
        let external = sim.mem.traffic().total().get();
        let internal = sim.mem.internal_bytes();
        match sim.config.design {
            Design::Baseline => {
                energy.add_gddr5_bytes(external);
                energy.add_dram_bytes(internal);
            }
            _ => {
                energy.add_link_bytes(external);
                energy.add_tsv_bytes(internal + external);
                energy.add_dram_bytes(internal);
            }
        }

        // Conservation invariants (debug builds). Frames run back to
        // back, so the per-frame partition must cover the run exactly;
        // per-class traffic can never exceed the grand total; and no
        // aggregate busy counter can exceed its unit count x wall-clock.
        debug_assert_eq!(
            self.per_frame.iter().map(|f| f.cycles).sum::<u64>(),
            self.clock.get(),
            "per-frame cycles must partition total_cycles"
        );
        debug_assert_eq!(
            self.per_frame
                .iter()
                .map(|f| f.texture_samples)
                .sum::<u64>(),
            sim.texture.stats().samples,
            "per-frame texture samples must sum to the trace total"
        );
        debug_assert_eq!(
            self.per_frame.iter().map(|f| f.fragments).sum::<u64>(),
            self.raster_total.fragments_out,
            "per-frame fragments must sum to the raster total"
        );
        debug_assert!(
            sim.mem
                .traffic()
                .bytes(pimgfx_mem::TrafficClass::TextureFetch)
                <= sim.mem.traffic().total(),
            "texture traffic cannot exceed total external traffic"
        );
        debug_assert!(
            sim.cores.total_busy().get()
                <= self
                    .clock
                    .get()
                    .saturating_mul(sim.config.shader.clusters as u64),
            "aggregate shader busy cycles cannot exceed clusters x wall-clock"
        );

        // Assemble the full stage trace: the compute-side stages plus
        // the memory-side stages (recorded once, post-`sync_traffic`).
        let mut trace = sim.compute_trace(&self.rop, self.window_stalls);
        sim.mem.record_trace(&mut trace);

        let report = RenderReport {
            design: sim.config.design,
            frames: self.frames,
            total_cycles: self.clock.get(),
            texture: *sim.texture.stats(),
            traffic: sim.mem.traffic().clone(),
            internal_bytes: internal,
            raster: self.raster_total,
            shader_busy_cycles: sim.cores.total_busy().get(),
            texture_busy_cycles: sim.texture.gpu_busy().get(),
            pim_busy_cycles: sim.texture.pim_busy().get(),
            energy: energy.report(),
            image: self.image,
            per_frame: self.per_frame,
            trace,
            per_frame_trace: self.per_frame_trace,
        };
        debug_assert!(
            report.audit().is_ok(),
            "cycle-accounting audit failed: {:?}",
            report.audit().err()
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_workloads::{build_scene_unchecked, Game, Resolution};

    /// A miniature trace that keeps debug-mode tests fast.
    fn tiny_scene() -> SceneTrace {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        build_scene_unchecked(&profile, Resolution::R320x240, 1)
    }

    fn run(design: Design) -> RenderReport {
        let scene = tiny_scene();
        let config = SimConfig::builder().design(design).build().expect("valid");
        let mut sim = Simulator::new(config).expect("valid");
        sim.render_trace(&scene).expect("render")
    }

    #[test]
    fn baseline_renders_and_reports() {
        let r = run(Design::Baseline);
        assert!(r.total_cycles > 0);
        assert!(r.texture.samples > 1000);
        assert!(r.traffic.total().get() > 0);
        assert!(r.energy.total_nj() > 0.0);
        assert_eq!(r.frames, 1);
        assert!(r.image.mean_luma() > 0.01, "frame is not black");
    }

    #[test]
    fn all_designs_render_consistent_images() {
        let base = run(Design::Baseline);
        for d in [Design::BPim, Design::STfim] {
            let r = run(d);
            // Exact filtering designs produce the identical image.
            let db = pimgfx_quality::psnr(&base.image, &r.image).expect("same resolution");
            assert!(db > 55.0, "{d} diverged: {db} dB");
        }
        // A-TFIM at the default threshold is approximate but close.
        let at = run(Design::ATfim);
        let db = pimgfx_quality::psnr(&base.image, &at.image).expect("same resolution");
        assert!(db > 30.0, "a-tfim too lossy: {db} dB");
    }

    #[test]
    fn atfim_beats_baseline_on_texture_latency() {
        let base = run(Design::Baseline);
        let at = run(Design::ATfim);
        assert!(
            at.texture_speedup_vs(&base) > 1.0,
            "a-tfim speedup {:.2} (base {:.1} vs atfim {:.1} cycles)",
            at.texture_speedup_vs(&base),
            base.texture.avg_latency(),
            at.texture.avg_latency()
        );
    }

    #[test]
    fn stfim_inflates_texture_traffic() {
        let bpim = run(Design::BPim);
        let st = run(Design::STfim);
        assert!(
            st.texture_traffic() > bpim.texture_traffic(),
            "s-tfim {} vs b-pim {}",
            st.texture_traffic(),
            bpim.texture_traffic()
        );
    }

    #[test]
    fn empty_scene_is_rejected() {
        let mut scene = tiny_scene();
        scene.cameras.clear();
        let mut sim = Simulator::new(SimConfig::default()).expect("valid");
        assert!(sim.render_trace(&scene).is_err());
    }

    #[test]
    fn per_frame_stats_partition_the_trace() {
        let mut profile = Game::Doom3.profile();
        profile.floor_quads = 4;
        profile.texture_count = 4;
        profile.facing_props = 1;
        let scene = build_scene_unchecked(&profile, Resolution::R320x240, 3);
        let mut sim = Simulator::new(SimConfig::default()).expect("valid");
        let r = sim.render_trace(&scene).expect("renders");
        assert_eq!(r.per_frame.len(), 3);
        let cycle_sum: u64 = r.per_frame.iter().map(|f| f.cycles).sum();
        assert_eq!(cycle_sum, r.total_cycles, "frames partition the run");
        let sample_sum: u64 = r.per_frame.iter().map(|f| f.texture_samples).sum();
        assert_eq!(sample_sum, r.texture.samples);
        assert!(r.per_frame.iter().all(|f| f.fragments > 0));
        assert_eq!(r.per_frame[1].frame, 1);
    }

    #[test]
    fn trace_audit_passes_for_all_designs() {
        for d in [Design::Baseline, Design::BPim, Design::STfim, Design::ATfim] {
            let r = run(d);
            r.audit().unwrap_or_else(|e| panic!("{d}: {e}"));
            assert!(!r.trace.is_empty());
            assert_eq!(r.trace.busy_sum("tex."), r.texture_busy_cycles, "{d}");
            assert_eq!(r.per_frame_trace.len(), 1, "{d}");
        }
    }

    #[test]
    fn reset_allows_reuse() {
        let scene = tiny_scene();
        let mut sim = Simulator::new(SimConfig::default()).expect("valid");
        let a = sim.render_trace(&scene).expect("first");
        sim.reset();
        let b = sim.render_trace(&scene).expect("second");
        assert_eq!(a.total_cycles, b.total_cycles, "reset restores determinism");
        assert_eq!(a.texture.samples, b.texture.samples);
    }
}
