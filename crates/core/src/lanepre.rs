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
//! `lane_equivalence` and `batch_equivalence` suites pin for every
//! design.
//!
//! Kind-1 work depends only on the configuration's
//! [`SampleKey`], so one set of records serves every simulator of a
//! batch with that key: phase 1 runs once per chunk of tiles and each
//! simulator consumes the chunk through its own phase 2. Records are
//! kept for one chunk at a time (two when helper threads fill the next
//! chunk while the current one is consumed), never a whole frame.
//!
//! For A-TFIM the phase-1 pass is *speculative*: it computes the
//! child-averaged value of every parent corner even though phase 2 may
//! reuse a stored value instead. Speculation trades redundant
//! functional work for parallelism — the redundant values are
//! bit-identical to what a phase-2 recompute would produce (same
//! kernel, same operands), so consuming them never changes results.

use crate::config::{RecordKind, SampleKey};
use crate::stream::StreamData;
use crate::texpath;
use pimgfx_raster::Fragment;
use pimgfx_shader::TileScheduler;
use pimgfx_texture::{filter, FetchSet, MippedTexture, Sampler, TextureLayout};
use pimgfx_types::{Radians, Rgba};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Per-fragment filtered color (conventional record).
    pub colors: Vec<Rgba>,
    /// Per-fragment texel count (conventional record).
    pub texels: Vec<u32>,
    /// Per-fragment anisotropy ratio (conventional record).
    pub aniso: Vec<u32>,
    /// Per-fragment prefix into [`LanePre::lines`] (conventional
    /// record); `line_start.len() == fragment count + 1`.
    pub line_start: Vec<u32>,
    /// Deduplicated per-fragment cache-line addresses, first-occurrence
    /// order (conventional record).
    pub lines: Vec<u64>,
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
    /// Clears every buffer for the next chunk, keeping capacity.
    pub fn clear(&mut self) {
        self.colors.clear();
        self.texels.clear();
        self.aniso.clear();
        self.line_start.clear();
        self.lines.clear();
        self.at.clear();
        self.at_corner_start.clear();
        self.corners.clear();
    }

    /// The deduplicated cache lines of conventional fragment `i`.
    pub fn fragment_lines(&self, i: usize) -> &[u64] {
        &self.lines[self.line_start[i] as usize..self.line_start[i + 1] as usize]
    }
}

/// The phase-1 worker: a copy of the key's pure sampling
/// configuration, safe to run on any thread against shared read-only
/// stream/texture data.
#[derive(Debug, Clone)]
struct Precomputer {
    kind: RecordKind,
    sampler: Sampler,
}

impl Precomputer {
    /// Builds a precomputer matching the texture path of every
    /// simulator with this sample key (same sampler, same reorder
    /// flag), so phase-1 colors are bit-identical to serial ones.
    pub fn new(key: &SampleKey) -> Self {
        Self {
            kind: key.kind,
            sampler: Sampler::new(key.sampler),
        }
    }

    /// Fills `buf` with one chunk's phase-1 records for cluster
    /// `lane`: walks the chunk's tiles in stream order, keeps those the
    /// scheduler assigns to `lane`, and precomputes every quad.
    fn fill_lane(
        &self,
        lane: usize,
        src: &ChunkSource<'_>,
        tile_range: Range<usize>,
        buf: &mut LanePre,
        scratch: &mut PreScratch,
    ) {
        buf.clear();
        if self.kind == RecordKind::Conventional {
            buf.line_start.push(0);
        }
        let data = src.data;
        for te in &data.tiles[tile_range] {
            if src.scheduler.cluster_for(te.coord) != lane {
                continue;
            }
            let mut offset = te.frag_start as usize;
            let quad_end = (te.quad_start + te.quad_len) as usize;
            for &len in &data.quad_lens[te.quad_start as usize..quad_end] {
                let quad = &data.fragments[offset..offset + len as usize];
                offset += len as usize;
                let tex = &src.textures[quad[0].texture.index()];
                let layout = &src.layouts[quad[0].texture.index()];
                match self.kind {
                    RecordKind::Conventional => {
                        self.pre_conventional(quad, tex, layout, buf, scratch);
                    }
                    RecordKind::Atfim => self.pre_atfim(quad, tex, layout, buf, scratch),
                }
            }
        }
    }

    /// Conventional phase 1: the full sampler pass plus per-fragment
    /// line dedup — the exact computation `quad_conventional` performs
    /// before its first cache probe. S-TFIM consumes the same record
    /// (its quad request lines are a dedup of these lines).
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
struct PreScratch {
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

/// The read-only inputs phase 1 samples: the stream, the tile→cluster
/// partition, the textures as sampled, and their layouts.
#[derive(Debug)]
pub(crate) struct ChunkSource<'a> {
    /// The fragment stream.
    pub data: &'a StreamData,
    /// The tile→cluster partition (the lane partition).
    pub scheduler: &'a TileScheduler,
    /// The sampled textures, indexed by texture id.
    pub textures: &'a [MippedTexture],
    /// The textures' placement, indexed by texture id.
    pub layouts: &'a [TextureLayout],
}

/// Runs phase 1 over every tile range of `chunks`, in order, and hands
/// each chunk's per-cluster records to `consume` (on the calling
/// thread) before moving on. Records are keyed by cluster index, so
/// what `consume` sees is independent of `workers` and scheduling.
///
/// With one worker the calling thread fills a chunk, then consumes it.
/// With more, `workers - 1` helper threads live for the whole call and
/// the records are double-buffered: while the calling thread consumes
/// chunk `k`, the helpers fill chunk `k + 1`, and the calling thread
/// joins them once it is done. Participants claim clusters one at a
/// time, so uneven clusters balance dynamically.
pub(crate) fn for_each_chunk(
    key: &SampleKey,
    workers: usize,
    src: &ChunkSource<'_>,
    chunks: &[Range<usize>],
    mut consume: impl FnMut(usize, &[LanePre]),
) {
    let pre = Precomputer::new(key);
    let clusters = key.clusters;
    let workers = lane_workers(workers, clusters);
    if workers <= 1 {
        let mut bufs: Vec<LanePre> = (0..clusters).map(|_| LanePre::default()).collect();
        let mut scratch = PreScratch::default();
        for (k, range) in chunks.iter().enumerate() {
            for (lane, buf) in bufs.iter_mut().enumerate() {
                pre.fill_lane(lane, src, range.clone(), buf, &mut scratch);
            }
            consume(k, &bufs);
        }
        return;
    }

    let shared = Pipeline::new(clusters, workers);
    let job_of = |k: usize| Job {
        gen: k as u64 + 1,
        set: k % 2,
        range: chunks[k].clone(),
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| shared.helper(&pre, src));
        }
        // Stops the helpers when the calling thread leaves the scope,
        // unwinding included, so a panic cannot strand them waiting.
        let _stop = StopOnDrop(&shared);
        let mut scratch = PreScratch::default();
        let mut bufs: Vec<LanePre> = Vec::with_capacity(clusters);
        if !chunks.is_empty() {
            shared.publish(job_of(0));
            shared.participate(&pre, src, &job_of(0), &mut scratch);
            shared.wait();
        }
        for k in 0..chunks.len() {
            if k + 1 < chunks.len() {
                shared.publish(job_of(k + 1));
            }
            shared.take_set(k % 2, &mut bufs);
            consume(k, &bufs);
            shared.restore_set(k % 2, &mut bufs);
            if k + 1 < chunks.len() {
                shared.participate(&pre, src, &job_of(k + 1), &mut scratch);
                shared.wait();
            }
        }
    });
}

/// One phase-1 job: fill record set `set` for the tiles `range`.
#[derive(Debug, Clone, Default)]
struct Job {
    /// Job number, from 1; 0 means no job yet.
    gen: u64,
    set: usize,
    range: Range<usize>,
}

/// Published job plus the stop flag, behind [`Pipeline::job`].
#[derive(Debug, Default)]
struct JobSlot {
    job: Job,
    stop: bool,
}

/// The state the calling thread and the helpers of [`for_each_chunk`]
/// share. A job is complete once every participant has left its claim
/// loop, which is also what makes resetting the claim counter for the
/// next job safe.
#[derive(Debug)]
struct Pipeline {
    /// Two record sets, one per cluster each: one being consumed, one
    /// being filled.
    sets: [Vec<Mutex<LanePre>>; 2],
    // lock:rank(50, core.lanepre.job)
    job: Mutex<JobSlot>,
    // lock:rank(51, core.lanepre.started)
    started: Condvar,
    /// Next cluster of the current job to claim.
    claim: AtomicUsize,
    /// Participants that left the current job's claim loop.
    // lock:rank(52, core.lanepre.left)
    left: Mutex<usize>,
    // lock:rank(53, core.lanepre.finished)
    finished: Condvar,
    participants: usize,
}

/// Locks `m`, taking the data even if a panicking thread poisoned it
/// (the panic itself propagates when the thread scope joins).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pipeline {
    fn new(clusters: usize, participants: usize) -> Self {
        let set = || {
            (0..clusters)
                .map(|_| Mutex::new(LanePre::default()))
                .collect()
        };
        Self {
            sets: [set(), set()],
            job: Mutex::new(JobSlot::default()),
            started: Condvar::new(),
            claim: AtomicUsize::new(0),
            left: Mutex::new(0),
            finished: Condvar::new(),
            participants,
        }
    }

    /// Starts `job`. Only called once the previous job is complete, so
    /// no participant is claiming while the counters reset.
    fn publish(&self, job: Job) {
        *lock(&self.left) = 0;
        let mut slot = lock(&self.job);
        self.claim.store(0, Ordering::Relaxed);
        slot.job = job;
        self.started.notify_all();
    }

    /// Claims and fills clusters of `job` until none are left.
    fn participate(
        &self,
        pre: &Precomputer,
        src: &ChunkSource<'_>,
        job: &Job,
        scratch: &mut PreScratch,
    ) {
        // Counts this participant out even if a fill panics, so the
        // calling thread's `wait` cannot hang.
        struct Leave<'p>(&'p Pipeline);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                let mut left = lock(&self.0.left);
                *left += 1;
                if *left == self.0.participants {
                    self.0.finished.notify_all();
                }
            }
        }
        let _leave = Leave(self);
        let set = &self.sets[job.set];
        loop {
            let lane = self.claim.fetch_add(1, Ordering::Relaxed);
            let Some(buf) = set.get(lane) else {
                break;
            };
            pre.fill_lane(lane, src, job.range.clone(), &mut lock(buf), scratch);
        }
    }

    /// Blocks until every participant has left the current job.
    fn wait(&self) {
        let mut left = lock(&self.left);
        while *left < self.participants {
            left = self
                .finished
                .wait(left)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A helper thread: joins every job until stopped.
    fn helper(&self, pre: &Precomputer, src: &ChunkSource<'_>) {
        let mut scratch = PreScratch::default();
        let mut seen = 0;
        loop {
            let job = {
                let mut slot = lock(&self.job);
                while slot.job.gen == seen && !slot.stop {
                    slot = self
                        .started
                        .wait(slot)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if slot.stop {
                    return;
                }
                slot.job.clone()
            };
            seen = job.gen;
            self.participate(pre, src, &job, &mut scratch);
        }
    }

    /// Moves record set `set` out into `bufs` for consumption.
    fn take_set(&self, set: usize, bufs: &mut Vec<LanePre>) {
        bufs.clear();
        bufs.extend(self.sets[set].iter().map(|m| std::mem::take(&mut *lock(m))));
    }

    /// Moves the consumed records back, keeping their capacity.
    fn restore_set(&self, set: usize, bufs: &mut Vec<LanePre>) {
        for (m, buf) in self.sets[set].iter().zip(bufs.drain(..)) {
            *lock(m) = buf;
        }
    }
}

/// Stops a [`Pipeline`]'s helpers when dropped.
struct StopOnDrop<'p>(&'p Pipeline);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        lock(&self.0.job).stop = true;
        self.0.started.notify_all();
    }
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
        let data = StreamData::build(&scene, crate::SimConfig::default().tile_px).expect("stream");
        let config = crate::SimConfig::builder()
            .design(crate::Design::ATfim)
            .build()
            .expect("valid");
        let key = config.sample_key();
        let scheduler = TileScheduler::new(key.clusters, scene.width().div_ceil(config.tile_px));
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
        let src = ChunkSource {
            data: &data,
            scheduler: &scheduler,
            textures: &scene.textures,
            layouts: &layouts,
        };
        let fe = &data.frames[0];
        let frame = fe.tile_start as usize..(fe.tile_start + fe.tile_len) as usize;
        let chunks: Vec<Range<usize>> = frame
            .clone()
            .step_by(32)
            .map(|s| s..(s + 32).min(frame.end))
            .collect();
        assert!(chunks.len() > 2, "the frame must span several chunks");
        // Per chunk and cluster: corner starts and (line, value) pairs.
        type Summary = Vec<Vec<(Vec<u32>, Vec<(u64, Rgba)>)>>;
        let summarize = |workers: usize| -> Summary {
            let mut out = Summary::new();
            for_each_chunk(&key, workers, &src, &chunks, |k, lanes| {
                assert_eq!(k, out.len(), "chunks arrive in order");
                out.push(
                    lanes
                        .iter()
                        .map(|l| {
                            let corners = l.corners.iter().map(|c| (c.line, c.value));
                            (l.at_corner_start.clone(), corners.collect())
                        })
                        .collect(),
                );
            });
            out
        };
        let serial = summarize(1);
        assert_eq!(serial.len(), chunks.len());
        for workers in [2, 4, 16] {
            assert!(serial == summarize(workers), "workers={workers}");
        }
        // Every fragment of the frame landed in exactly one lane.
        let total: usize = serial
            .iter()
            .flatten()
            .map(|(starts, _)| starts.len())
            .sum();
        let expect: usize = data.tiles[frame].iter().map(|t| t.frag_len as usize).sum();
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
