//! The per-design texture sampling path: functional color plus timing.
//!
//! This module is where the four designs actually diverge:
//!
//! * **Baseline / B-PIM** — the full conventional filter runs on the
//!   GPU texture unit; every texel line goes L1 → L2 → memory.
//! * **S-TFIM** — no GPU caches; texture requests ship to the MTUs in
//!   the logic layer as 64-byte packages and filtered textures come back
//!   as 80-byte responses.
//! * **A-TFIM** — the GPU fetches only the 8 parent texels per sample;
//!   cache lines carry camera-angle tags; misses are offloaded to the
//!   logic layer, which expands them into child texels internally. The
//!   functional side reuses *previously computed* parent values on
//!   angle-compatible hits — exactly the approximation whose quality
//!   Figs. 14–16 measure.
//!
//! Requests are issued at **fragment-quad granularity** (2×2 pixels):
//! the paper's texture units serve whole fragment tiles (§II-A), so one
//! S-TFIM request package or one A-TFIM offload package covers a quad,
//! not a single pixel.

use crate::backend::MemoryBackend;
use crate::config::SimConfig;
use crate::design::Design;
use crate::lanepre::LanePre;
use crate::parent_store::ParentStore;
use crate::stats::TextureStats;
use crate::texunit::TextureUnits;
use pimgfx_engine::trace::StageTrace;
use pimgfx_engine::{Cycle, Duration};
use pimgfx_mem::{packet, MemRequest, MemorySystem, TrafficClass};
use pimgfx_pim::{AtfimLogicLayer, MtuBank, OffloadUnit, ParentFetchBatch, TextureRequest};
use pimgfx_raster::Fragment;
use pimgfx_texture::{
    filter, CacheOutcome, FetchSet, MippedTexture, Sampler, TextureCache, TextureLayout,
};
use pimgfx_types::{Radians, Result, Rgba, Vec2};

/// Latency of an L1 texture-cache hit, cycles.
const L1_HIT_CYCLES: u64 = 1;
/// Latency of an L2 texture-cache hit, cycles.
const L2_HIT_CYCLES: u64 = 8;

/// Reusable per-path scratch buffers: cleared and refilled every quad so
/// the steady-state sampling loop performs no heap allocation.
#[derive(Debug, Default)]
struct PathScratch {
    /// Fetch-trace recorder for [`Sampler::sample_into`].
    fetches: FetchSet,
    /// Per-fetch line addresses (batch-computed, pre-dedup).
    line_addrs: Vec<u64>,
    /// Deduplicated line addresses of one fragment's fetch trace.
    lines: Vec<u64>,
    /// Quad-wide deduplicated request lines (S-TFIM); drained into the
    /// MTU request each quad and its capacity reclaimed afterwards.
    stfim_lines: Vec<u64>,
    /// Probe offsets of the current anisotropic kernel.
    offsets: Vec<(i64, i64)>,
    /// Quad-level deduplicated offload miss lines (A-TFIM).
    quad_miss: Vec<u64>,
    /// Quad-level deduplicated plain miss lines (A-TFIM).
    plain_lines: Vec<u64>,
    /// Per-fragment A-TFIM results for the current quad.
    parts: Vec<AtfimFragment>,
}

/// An inline list of cache-line addresses, capacity 8 — a fragment's
/// parent texels are at most 4 bilinear corners × 2 mip levels, so the
/// per-fragment A-TFIM line sets never heap-allocate.
#[derive(Debug, Clone, Copy, Default)]
struct LineList {
    lines: [u64; 8],
    len: u8,
}

impl LineList {
    fn push(&mut self, line: u64) {
        debug_assert!(usize::from(self.len) < self.lines.len());
        self.lines[usize::from(self.len)] = line;
        self.len += 1;
    }

    fn as_slice(&self) -> &[u64] {
        &self.lines[..usize::from(self.len)]
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The texture subsystem of one simulated GPU, specialized by design.
#[derive(Debug)]
pub struct TexturePath {
    design: Design,
    sampler: Sampler,
    angle_threshold: Radians,
    units: TextureUnits,
    l1: Vec<TextureCache>,
    l2: TextureCache,
    /// S-TFIM MTU banks, one per HMC cube.
    mtus: Option<Vec<MtuBank>>,
    /// A-TFIM logic layers, one per HMC cube.
    atfim: Option<Vec<AtfimLogicLayer>>,
    offload: OffloadUnit,
    /// A-TFIM functional store: last computed value and camera angle per
    /// parent texel.
    parent_values: ParentStore,
    /// Bytes per texel line on the wire (64 raw; 16 under block
    /// compression).
    line_bytes: u32,
    /// Reusable per-quad scratch buffers (no steady-state allocation).
    scratch: PathScratch,
    stats: TextureStats,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbeOutcome {
    L1Hit,
    L2Hit,
    Miss,
}

/// Per-fragment functional result of the A-TFIM GPU-side pass.
#[derive(Debug, Clone, Copy)]
struct AtfimFragment {
    color: Rgba,
    parents: u32,
    hit_ready: Duration,
    /// Misses that need the logic layer (non-degenerate aniso kernels).
    miss_lines: LineList,
    /// Misses whose kernel collapsed to a single texel per parent: a
    /// plain memory read, no offload.
    plain_miss_lines: LineList,
    aniso_ratio: u32,
    major_axis_x: bool,
}

impl TexturePath {
    /// Builds the texture path for a configuration.
    ///
    /// # Errors
    ///
    /// Propagates cache-geometry errors.
    pub fn new(config: &SimConfig) -> Result<Self> {
        let l1 = (0..config.texture_units.units)
            .map(|_| TextureCache::new(config.l1_cache))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            design: config.design,
            sampler: Sampler::new(config.sample_key().sampler),
            angle_threshold: config.angle_threshold,
            units: TextureUnits::new(config.texture_units),
            l1,
            l2: TextureCache::new(config.l2_cache)?,
            mtus: (config.design == Design::STfim).then(|| {
                (0..config.hmc_cubes.max(1))
                    .map(|_| MtuBank::new(config.mtus, config.mtu))
                    .collect()
            }),
            atfim: (config.design == Design::ATfim).then(|| {
                (0..config.hmc_cubes.max(1))
                    .map(|_| AtfimLogicLayer::new(config.atfim))
                    .collect()
            }),
            offload: OffloadUnit::new(config.compress_offload),
            parent_values: ParentStore::default(),
            line_bytes: if config.compressed_textures { 16 } else { 64 },
            scratch: PathScratch::default(),
            stats: TextureStats::default(),
        })
    }

    /// The accumulated texture statistics.
    pub fn stats(&self) -> &TextureStats {
        &self.stats
    }

    /// The sampler in use (for footprint queries).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// GPU texture-unit busy cycles (energy).
    pub fn gpu_busy(&self) -> Duration {
        self.units.total_busy()
    }

    /// Per-texture-unit busy cycles (load-balance diagnostics).
    pub fn per_unit_busy(&self) -> Vec<u64> {
        self.units.per_unit_busy()
    }

    /// Logic-layer compute busy cycles (energy; zero for non-PIM paths).
    pub fn pim_busy(&self) -> Duration {
        let mtu: Duration = self.mtus.iter().flatten().map(MtuBank::filter_busy).sum();
        let at: Duration = self
            .atfim
            .iter()
            .flatten()
            .map(AtfimLogicLayer::compute_busy)
            .sum();
        mtu + at
    }

    /// Latest texture completion (frame-end accounting).
    pub fn last_completion(&self) -> Cycle {
        self.units.last_completion()
    }

    /// Records every texture-path stage into `trace`: the GPU
    /// address/filter pipes always, plus the MTU bank (S-TFIM) or the
    /// A-TFIM logic layer when the design instantiates them. The
    /// recorded busy cycles conserve [`TexturePath::gpu_busy`] and
    /// [`TexturePath::pim_busy`] by construction — the auditor checks
    /// exactly that.
    pub fn record_trace(&self, trace: &mut StageTrace) {
        self.units.record_trace(trace);
        for bank in self.mtus.iter().flatten() {
            bank.record_trace(trace);
        }
        for logic in self.atfim.iter().flatten() {
            logic.record_trace(trace);
        }
    }

    /// Samples a single fragment (convenience wrapper over
    /// [`TexturePath::sample_quad`] for tests and tools).
    pub fn sample(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frag: &Fragment,
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
    ) -> (Rgba, Cycle) {
        self.sample_quad(cluster, issue, std::slice::from_ref(frag), tex, layout, mem)
            .pop()
            // lint:allow(no-panic) — sample_quad returns exactly one entry per input fragment and we pass exactly one
            .expect("one fragment in, one sample out")
    }

    /// Samples a fragment quad (1–4 fragments sharing one texture
    /// request); returns `(color, completion)` per fragment in order.
    ///
    /// # Panics
    ///
    /// Panics if `frags` is empty or the fragments reference different
    /// textures.
    pub fn sample_quad(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
    ) -> Vec<(Rgba, Cycle)> {
        let mut out = Vec::with_capacity(frags.len());
        self.sample_quad_into(cluster, issue, frags, tex, layout, mem, &mut out);
        out
    }

    /// Allocation-free variant of [`TexturePath::sample_quad`]: clears
    /// `out` and fills it with one `(color, completion)` per fragment,
    /// letting the hot replay loop reuse a single buffer across quads.
    ///
    /// # Panics
    ///
    /// Panics if `frags` is empty or the fragments reference different
    /// textures.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_quad_into(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        assert!(!frags.is_empty(), "a quad needs at least one fragment");
        debug_assert!(frags.iter().all(|f| f.texture == frags[0].texture));

        out.clear();
        match self.design {
            Design::Baseline | Design::BPim => {
                self.quad_conventional(cluster, issue, frags, tex, layout, mem, out);
            }
            Design::STfim => self.quad_stfim(cluster, issue, frags, tex, layout, mem, out),
            Design::ATfim => self.quad_atfim(cluster, issue, frags, tex, layout, mem, out),
        }
        for (_, done) in out.iter() {
            self.stats.samples += 1;
            self.stats.latency_cycles += done.since(issue).get();
        }
    }

    /// Phase-2 twin of [`TexturePath::sample_quad_into`] for
    /// cluster-parallel replay: consumes one precomputed record per
    /// fragment from the quad's lane buffer instead of re-running the
    /// pure sampling math, then drives the identical order-sensitive
    /// tail (caches, servers, stats). Byte-identical to the serial
    /// entry point by construction — see `crate::lanepre`.
    ///
    /// # Panics
    ///
    /// Panics if `frags` is empty or the lane buffer runs dry (a lane
    /// partition mismatch between phases — a bug by definition).
    /// `cursor` counts the lane's fragments consumed so far.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample_quad_pre(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        mem: &mut MemoryBackend,
        pre: &LanePre,
        cursor: &mut usize,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        assert!(!frags.is_empty(), "a quad needs at least one fragment");
        debug_assert!(frags.iter().all(|f| f.texture == frags[0].texture));

        out.clear();
        match self.design {
            Design::Baseline | Design::BPim => {
                self.quad_conventional_pre(cluster, issue, frags.len(), mem, pre, cursor, out);
            }
            Design::STfim => {
                self.quad_stfim_pre(cluster, issue, frags.len(), mem, pre, cursor, out)
            }
            Design::ATfim => {
                self.quad_atfim_pre(cluster, issue, frags.len(), tex, mem, pre, cursor, out);
            }
        }
        for (_, done) in out.iter() {
            self.stats.samples += 1;
            self.stats.latency_cycles += done.since(issue).get();
        }
    }

    /// Conventional phase-2 consume: stored color/texel/line records in,
    /// the shared [`TexturePath::conventional_fragment`] tail out.
    #[allow(clippy::too_many_arguments)]
    fn quad_conventional_pre(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frag_count: usize,
        mem: &mut MemoryBackend,
        pre: &LanePre,
        cursor: &mut usize,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        for i in *cursor..*cursor + frag_count {
            self.conventional_fragment(
                cluster,
                issue,
                pre.texels[i],
                pre.aniso[i],
                pre.colors[i],
                pre.fragment_lines(i),
                mem,
                out,
            );
        }
        *cursor += frag_count;
    }

    /// S-TFIM phase-2 consume: the conventional records in, the shared
    /// [`TexturePath::stfim_quad_tail`] out. The quad's request lines
    /// are the first-occurrence dedup of its fragments' deduplicated
    /// lines, concatenated — equal to the serial path's dedup of the raw
    /// fetch lines, because a per-fragment dedup keeps every line's
    /// first occurrence and so preserves the quad-wide first-occurrence
    /// order.
    #[allow(clippy::too_many_arguments)]
    fn quad_stfim_pre(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frag_count: usize,
        mem: &mut MemoryBackend,
        pre: &LanePre,
        cursor: &mut usize,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        let mut texel_total = 0u32;
        self.scratch.stfim_lines.clear();
        for i in *cursor..*cursor + frag_count {
            let texels = pre.texels[i];
            self.stats.conventional_texels += u64::from(texels);
            self.stats.record_aniso(pre.aniso[i]);
            texel_total += texels;
            dedup_extend(&mut self.scratch.stfim_lines, pre.fragment_lines(i));
            // Completion is quad-wide and not known yet; patched by the
            // tail, exactly like the serial path.
            out.push((pre.colors[i], issue));
        }
        *cursor += frag_count;
        self.stfim_quad_tail(cluster, issue, texel_total, mem, out);
    }

    /// A-TFIM phase-2 consume: probes and reuse decisions against live
    /// cache/functional state, corner values from the speculative
    /// phase-1 records, then the shared
    /// [`TexturePath::atfim_quad_tail`].
    #[allow(clippy::too_many_arguments)]
    fn quad_atfim_pre(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frag_count: usize,
        tex: &MippedTexture,
        mem: &mut MemoryBackend,
        pre: &LanePre,
        cursor: &mut usize,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut parts = std::mem::take(&mut scratch.parts);
        parts.clear();
        for i in *cursor..*cursor + frag_count {
            parts.push(self.atfim_fragment_pre(cluster, tex, pre, i));
        }
        *cursor += frag_count;
        self.atfim_quad_tail(cluster, issue, &parts, mem, out, &mut scratch);
        scratch.parts = parts;
        self.scratch = scratch;
    }

    /// Phase-2 twin of [`TexturePath::atfim_fragment`]: identical probe
    /// sequence, reuse rule, and store updates against the live caches
    /// and functional store, but every corner's recompute value comes
    /// from the speculative phase-1 record (bit-identical operands, so
    /// bit-identical values).
    fn atfim_fragment_pre(
        &mut self,
        cluster: usize,
        tex: &MippedTexture,
        pre: &LanePre,
        idx: usize,
    ) -> AtfimFragment {
        let tex_id = tex.id().raw();
        let at = &pre.at[idx];
        let angle = at.angle;
        self.stats.conventional_texels += u64::from(at.conventional_texels);
        self.stats.record_aniso(at.aniso_ratio);

        let mut parent_lines = LineList::default();
        let mut miss_lines = LineList::default();
        let mut plain_miss_lines = LineList::default();
        let mut hit_ready = Duration::ZERO;
        let mut line_hit = [false; 8];

        let corner_base = pre.at_corner_start[idx] as usize;
        let mut level_colors = [Rgba::TRANSPARENT; 2];
        for (li, level_color) in level_colors
            .iter_mut()
            .enumerate()
            .take(usize::from(at.level_count))
        {
            let lv = at.levels[li];
            let level = usize::from(lv.level);
            let dims = (tex.level(level).width(), tex.level(level).height());
            let degenerate = lv.degenerate;
            let mut corners = [Rgba::TRANSPARENT; 4];
            for (ci, corner) in pre.corners[corner_base + li * 4..corner_base + li * 4 + 4]
                .iter()
                .enumerate()
            {
                let line = corner.line;
                let slot = match parent_lines.as_slice().iter().position(|&l| l == line) {
                    Some(i) => i,
                    None => {
                        let i = usize::from(parent_lines.len);
                        parent_lines.push(line);
                        let outcome = if degenerate {
                            self.probe_plain(cluster, line)
                        } else {
                            self.probe_with_angle(cluster, line, angle)
                        };
                        line_hit[i] = !matches!(outcome, ProbeOutcome::Miss);
                        match outcome {
                            ProbeOutcome::L1Hit => {
                                hit_ready = hit_ready.max(Duration::new(L1_HIT_CYCLES));
                            }
                            ProbeOutcome::L2Hit => {
                                hit_ready = hit_ready.max(Duration::new(L2_HIT_CYCLES));
                            }
                            ProbeOutcome::Miss if degenerate => plain_miss_lines.push(line),
                            ProbeOutcome::Miss => miss_lines.push(line),
                        }
                        i
                    }
                };
                // Same reuse rule as the serial path: the stored parent
                // value is legal only on a hardware cache hit with a
                // compatible angle; otherwise consume the speculative
                // phase-1 recompute and store it.
                let cached_in_hw = line_hit[slot];
                let reuse = match self.parent_values.get(tex_id, level, corner.wx, corner.wy) {
                    Some((stored_angle, value))
                        if cached_in_hw && stored_angle.abs_diff(angle) <= self.angle_threshold =>
                    {
                        Some(value)
                    }
                    _ => None,
                };
                corners[ci] = match reuse {
                    Some(v) => v,
                    None => {
                        self.parent_values.insert(
                            tex_id,
                            level,
                            dims,
                            corner.wx,
                            corner.wy,
                            (angle, corner.value),
                        );
                        corner.value
                    }
                };
            }
            *level_color = corners[0]
                .lerp(corners[1], lv.fx)
                .lerp(corners[2].lerp(corners[3], lv.fx), lv.fy);
        }
        let color = if at.level_count == 1 {
            level_colors[0]
        } else {
            level_colors[0].lerp(level_colors[1], at.w)
        };

        AtfimFragment {
            color,
            parents: u32::from(parent_lines.len),
            hit_ready,
            miss_lines,
            plain_miss_lines,
            aniso_ratio: at.aniso_ratio,
            major_axis_x: at.major_axis_x,
        }
    }

    /// Baseline / B-PIM: full filtering on the GPU texture unit.
    #[allow(clippy::too_many_arguments)]
    fn quad_conventional(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let sampler = self.sampler;
        for frag in frags {
            let (ddx, ddy) = texel_derivs(tex, frag);
            let info = sampler.sample_into(tex, frag.uv, ddx, ddy, &mut scratch.fetches);
            let texels = info.conventional_texels.max(scratch.fetches.len() as u32);
            dedup_lines_into(
                scratch.fetches.fetches(),
                layout,
                &mut scratch.line_addrs,
                &mut scratch.lines,
            );
            self.conventional_fragment(
                cluster,
                issue,
                texels,
                info.aniso_ratio,
                info.color,
                &scratch.lines,
                mem,
                out,
            );
        }
        self.scratch = scratch;
    }

    /// The order-sensitive conventional per-fragment tail — address
    /// generation, cache probes, memory fetches, filtering — shared
    /// verbatim by the serial path and the phase-2 consume path so both
    /// drive caches and units identically.
    #[allow(clippy::too_many_arguments)]
    fn conventional_fragment(
        &mut self,
        cluster: usize,
        issue: Cycle,
        texels: u32,
        aniso_ratio: u32,
        color: Rgba,
        lines: &[u64],
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        self.stats.conventional_texels += u64::from(texels);
        self.stats.record_aniso(aniso_ratio);
        let addr_done = self.units.generate_addresses(cluster, issue, texels);
        let mut data_ready = addr_done;
        for &line in lines {
            let ready = self.fetch_line(cluster, addr_done, line, mem);
            data_ready = data_ready.max(ready);
        }
        self.stats.texels_filtered_gpu += u64::from(texels);
        let done = self.units.filter(cluster, data_ready, texels);
        out.push((color, done));
    }

    /// S-TFIM: one request package per quad to the cluster's MTU; the
    /// filtered textures come back in one response.
    #[allow(clippy::too_many_arguments)]
    fn quad_stfim(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let sampler = self.sampler;
        scratch.stfim_lines.clear();
        let mut texel_total = 0u32;
        for frag in frags {
            let (ddx, ddy) = texel_derivs(tex, frag);
            let info = sampler.sample_into(tex, frag.uv, ddx, ddy, &mut scratch.fetches);
            let texels = info.conventional_texels.max(scratch.fetches.len() as u32);
            self.stats.conventional_texels += u64::from(texels);
            self.stats.record_aniso(info.aniso_ratio);
            texel_total += texels;
            layout.texel_line_addrs_into(scratch.fetches.fetches(), &mut scratch.line_addrs);
            dedup_extend(&mut scratch.stfim_lines, &scratch.line_addrs);
            // Completion is quad-wide and not known yet; patched below.
            out.push((info.color, issue));
        }
        self.scratch = scratch;
        self.stfim_quad_tail(cluster, issue, texel_total, mem, out);
    }

    /// The order-sensitive S-TFIM quad tail — package to the MTU bank,
    /// response back — shared verbatim by the serial path and the
    /// phase-2 consume path so both drive the servers identically. The
    /// quad's deduplicated request lines are in `scratch.stfim_lines`;
    /// they are drained into the request and the capacity handed back
    /// afterwards so steady state stays allocation-free.
    fn stfim_quad_tail(
        &mut self,
        cluster: usize,
        issue: Cycle,
        texel_total: u32,
        mem: &mut MemoryBackend,
        out: &mut [(Rgba, Cycle)],
    ) {
        let quad_lines = std::mem::take(&mut self.scratch.stfim_lines);

        // The whole request maps to one cube: all its texels belong to
        // one texture, which the simulator placed inside one cube region.
        let cube = mem.cube_index(quad_lines.first().copied().unwrap_or(0));
        let hmc = mem
            .hmc_for(quad_lines.first().copied().unwrap_or(0))
            // lint:allow(no-panic) — design/backend pairing is rejected by SimConfig::validate, so S-TFIM always runs over HMC
            .expect("S-TFIM requires an HMC backend (enforced by Simulator::new)");
        hmc.record_external_traffic(TrafficClass::TextureFetch, packet::TFIM_REQUEST_BYTES);
        let at_cube = hmc.send_to_cube(issue, packet::TFIM_REQUEST_BYTES);
        let mut req = TextureRequest {
            texel_line_addrs: quad_lines,
            texel_count: texel_total,
            line_bytes: self.line_bytes,
        };
        // Clusters share MTUs round-robin when fewer MTUs than clusters
        // are configured (the paper's area-saving variant, §IV).
        // lint:allow(no-panic) — TexturePath::new allocates MTU banks whenever the design is S-TFIM; this branch is S-TFIM-only
        let banks = self.mtus.as_mut().expect("S-TFIM path owns MTUs");
        let bank = &mut banks[cube];
        let mtu = cluster % bank.len();
        let mtu_done = bank.process(mtu, at_cube, &req, hmc);
        hmc.record_external_traffic(TrafficClass::TextureFetch, packet::TFIM_RESPONSE_BYTES);
        let done = hmc.send_to_host(mtu_done, packet::TFIM_RESPONSE_BYTES);
        self.stats.offload_packages += 1;
        self.scratch.stfim_lines = std::mem::take(&mut req.texel_line_addrs);
        for entry in out.iter_mut() {
            entry.1 = done;
        }
    }

    /// A-TFIM: parent texels through angle-tagged caches; quad-level
    /// misses offloaded in one package to the logic layer.
    #[allow(clippy::too_many_arguments)]
    fn quad_atfim(
        &mut self,
        cluster: usize,
        issue: Cycle,
        frags: &[Fragment],
        tex: &MippedTexture,
        layout: &TextureLayout,
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        // GPU-side functional + cache pass, per fragment.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut parts = std::mem::take(&mut scratch.parts);
        parts.clear();
        for f in frags {
            parts.push(self.atfim_fragment(cluster, f, tex, layout, &mut scratch));
        }
        self.atfim_quad_tail(cluster, issue, &parts, mem, out, &mut scratch);
        scratch.parts = parts;
        self.scratch = scratch;
    }

    /// The order-sensitive A-TFIM quad tail — address generation, plain
    /// reads, the offload package, per-fragment filtering — shared
    /// verbatim by the serial path and the phase-2 consume path so both
    /// drive the memory-side servers identically.
    fn atfim_quad_tail(
        &mut self,
        cluster: usize,
        issue: Cycle,
        parts: &[AtfimFragment],
        mem: &mut MemoryBackend,
        out: &mut Vec<(Rgba, Cycle)>,
        scratch: &mut PathScratch,
    ) {
        // Address generation for the quad's parents.
        let total_parents: u32 = parts.iter().map(|p| p.parents).sum();
        let addr_done = self
            .units
            .generate_addresses(cluster, issue, total_parents.max(1));

        // One offload package for all quad misses.
        scratch.quad_miss.clear();
        for p in parts {
            dedup_extend(&mut scratch.quad_miss, p.miss_lines.as_slice());
        }
        // Degenerate-kernel misses are ordinary texel reads.
        scratch.plain_lines.clear();
        for p in parts {
            dedup_extend(&mut scratch.plain_lines, p.plain_miss_lines.as_slice());
        }
        let mut plain_ready = addr_done;
        for &line in &scratch.plain_lines {
            let req = MemRequest::read(TrafficClass::TextureFetch, line, self.line_bytes);
            plain_ready = plain_ready.max(mem.access_external(addr_done, &req));
        }

        let mut miss_ready = addr_done;
        if let Some(&first_miss) = scratch.quad_miss.first() {
            let ratio = parts.iter().map(|p| p.aniso_ratio).max().unwrap_or(1);
            let axis_x = parts.iter().filter(|p| p.major_axis_x).count() * 2 >= parts.len();
            // Parent and child texels share a mip pyramid and therefore
            // a cube (§V-E): one cube serves the whole batch.
            let cube = mem.cube_index(first_miss);
            let hmc = mem
                .hmc_for(first_miss)
                // lint:allow(no-panic) — design/backend pairing is rejected by SimConfig::validate, so A-TFIM always runs over HMC
                .expect("A-TFIM requires an HMC backend (enforced by Simulator::new)");
            let pkg_bytes = self.offload.package_bytes(&scratch.quad_miss);
            hmc.record_external_traffic(TrafficClass::TextureFetch, pkg_bytes);
            let at_cube = hmc.send_to_cube(addr_done, pkg_bytes);
            // The package takes the miss lines and hands the buffer back
            // afterwards, so steady state stays allocation-free.
            let mut batch = ParentFetchBatch {
                parent_line_addrs: std::mem::take(&mut scratch.quad_miss),
                aniso_ratio: ratio,
                major_axis_x: axis_x,
                line_bytes: self.line_bytes,
            };
            let resp = self
                .atfim
                .as_mut()
                // lint:allow(no-panic) — TexturePath::new allocates the logic layer whenever the design is A-TFIM; this branch is A-TFIM-only
                .expect("A-TFIM path owns the logic layer")[cube]
                .process(at_cube, &batch, hmc);
            scratch.quad_miss = std::mem::take(&mut batch.parent_line_addrs);
            let resp_bytes = self.offload.response_bytes(scratch.quad_miss.len());
            hmc.record_external_traffic(TrafficClass::TextureFetch, resp_bytes);
            miss_ready = hmc.send_to_host(resp.completion, resp_bytes);
            self.stats.offload_packages += 1;
            self.stats.child_reads += resp.child_reads;
            self.stats.merged_child_reads += resp.merged_reads;
        }

        // Per-fragment GPU-side bilinear/trilinear over the parents.
        for p in parts {
            let mut data_ready = addr_done + p.hit_ready;
            if !p.miss_lines.is_empty() {
                data_ready = data_ready.max(miss_ready);
            }
            if !p.plain_miss_lines.is_empty() {
                data_ready = data_ready.max(plain_ready);
            }
            self.stats.texels_filtered_gpu += u64::from(p.parents);
            let done = self.units.filter(cluster, data_ready, p.parents.max(1));
            out.push((p.color, done));
        }
    }

    /// The A-TFIM GPU-side pass for one fragment: probe angle-tagged
    /// caches, reuse or recompute parent values, and report the misses.
    fn atfim_fragment(
        &mut self,
        cluster: usize,
        frag: &Fragment,
        tex: &MippedTexture,
        layout: &TextureLayout,
        scratch: &mut PathScratch,
    ) -> AtfimFragment {
        let (ddx, ddy) = texel_derivs(tex, frag);
        let fp = self.sampler.footprint(ddx, ddy);
        let (fine, coarse, w) = fp.mip_levels(tex.max_level());
        // The cached tag must identify the *child-texel set* a parent was
        // computed with (paper Fig. 8: same address, different camera
        // angles => different child sets). The pixel's camera angle
        // induces both angular degrees of freedom of that set — the
        // anisotropy line's orientation in texture space and its
        // obliqueness (which fixes the span) — so the tag encodes both:
        // the orientation doubled (so its natural period π matches the
        // 2π circular comparison) plus the surface camera angle.
        let orientation = fp.major_axis.y.atan2(fp.major_axis.x);
        let angle = Radians::new(
            2.0 * orientation.rem_euclid(std::f32::consts::PI) + frag.camera_angle.as_f32(),
        );
        self.stats.conventional_texels += u64::from(fp.conventional_texel_count());
        self.stats.record_aniso(fp.aniso_ratio);

        let mut parent_lines = LineList::default();
        let mut miss_lines = LineList::default();
        let mut plain_miss_lines = LineList::default();
        let mut hit_ready = Duration::ZERO;
        // Cache outcome per probed line, parallel to `parent_lines`:
        // reuse of the stored parent value is only legal on a cache *hit*
        // — a capacity miss refetches and recomputes in hardware, so the
        // functional side must too.
        let mut line_hit = [false; 8];

        let mut level_color = |path: &mut Self,
                               scratch: &mut PathScratch,
                               level: usize,
                               div: i64|
         -> Rgba {
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
            let offsets = &scratch.offsets;
            // Degenerate kernel: every probe lands on the parent texel
            // itself (common at the coarser of the two blended levels).
            // The "average over children" is then exactly the texel — no
            // child set exists, so there is nothing to offload and no
            // camera angle to compare: it is an ordinary texel fetch.
            let degenerate = offsets.iter().all(|&o| o == (0, 0));
            let mut corners = [Rgba::TRANSPARENT; 4];
            for (ci, (cx, cy)) in [(0i64, 0i64), (1, 0), (0, 1), (1, 1)]
                .into_iter()
                .enumerate()
            {
                let wx = wrap.wrap(x0 + cx, img.width());
                let wy = wrap.wrap(y0 + cy, img.height());
                let line = layout.texel_line_addr(wx, wy, level);
                let slot = match parent_lines.as_slice().iter().position(|&l| l == line) {
                    Some(i) => i,
                    None => {
                        let i = usize::from(parent_lines.len);
                        parent_lines.push(line);
                        let outcome = if degenerate {
                            path.probe_plain(cluster, line)
                        } else {
                            path.probe_with_angle(cluster, line, angle)
                        };
                        line_hit[i] = !matches!(outcome, ProbeOutcome::Miss);
                        match outcome {
                            ProbeOutcome::L1Hit => {
                                hit_ready = hit_ready.max(Duration::new(L1_HIT_CYCLES));
                            }
                            ProbeOutcome::L2Hit => {
                                hit_ready = hit_ready.max(Duration::new(L2_HIT_CYCLES));
                            }
                            ProbeOutcome::Miss if degenerate => plain_miss_lines.push(line),
                            ProbeOutcome::Miss => miss_lines.push(line),
                        }
                        i
                    }
                };
                // Functional: reuse the stored parent value only when the
                // cache actually hit (with a compatible angle); any miss —
                // capacity or angle — recomputes with this fragment's own
                // footprint, as the hardware would.
                let cached_in_hw = line_hit[slot];
                let reuse = match path.parent_values.get(tex.id().raw(), level, wx, wy) {
                    Some((stored_angle, value))
                        if cached_in_hw && stored_angle.abs_diff(angle) <= path.angle_threshold =>
                    {
                        Some(value)
                    }
                    _ => None,
                };
                corners[ci] = match reuse {
                    Some(v) => v,
                    None => {
                        let v = filter::average_children(tex, x0 + cx, y0 + cy, level, offsets);
                        let dims = (img.width(), img.height());
                        path.parent_values
                            .insert(tex.id().raw(), level, dims, wx, wy, (angle, v));
                        v
                    }
                };
            }
            corners[0]
                .lerp(corners[1], fx)
                .lerp(corners[2].lerp(corners[3], fx), fy)
        };

        let c_fine = level_color(self, scratch, fine, 1);
        let color = if coarse == fine || w == 0.0 {
            c_fine
        } else {
            let c_coarse = level_color(self, scratch, coarse, 2);
            c_fine.lerp(c_coarse, w)
        };

        AtfimFragment {
            color,
            parents: u32::from(parent_lines.len),
            hit_ready,
            miss_lines,
            plain_miss_lines,
            aniso_ratio: fp.aniso_ratio,
            major_axis_x: fp.major_axis.x.abs() >= fp.major_axis.y.abs(),
        }
    }

    /// Probes L1 then L2 (without angle tags) and fetches from memory on
    /// a double miss. Returns when the line is available to the texture
    /// unit.
    fn fetch_line(
        &mut self,
        cluster: usize,
        issue: Cycle,
        line: u64,
        mem: &mut MemoryBackend,
    ) -> Cycle {
        match self.l1[cluster].access(line) {
            CacheOutcome::Hit => {
                self.stats.l1_hits += 1;
                issue + Duration::new(L1_HIT_CYCLES)
            }
            _ => {
                self.stats.l1_misses += 1;
                match self.l2.access(line) {
                    CacheOutcome::Hit => {
                        self.stats.l2_hits += 1;
                        issue + Duration::new(L2_HIT_CYCLES)
                    }
                    _ => {
                        self.stats.l2_misses += 1;
                        let req =
                            MemRequest::read(TrafficClass::TextureFetch, line, self.line_bytes);
                        mem.access_external(issue, &req)
                    }
                }
            }
        }
    }

    /// Plain (angle-free) probe of L1 then L2 for degenerate kernels.
    fn probe_plain(&mut self, cluster: usize, line: u64) -> ProbeOutcome {
        match self.l1[cluster].access(line) {
            CacheOutcome::Hit => {
                self.stats.l1_hits += 1;
                return ProbeOutcome::L1Hit;
            }
            _ => self.stats.l1_misses += 1,
        }
        match self.l2.access(line) {
            CacheOutcome::Hit => {
                self.stats.l2_hits += 1;
                ProbeOutcome::L2Hit
            }
            _ => {
                self.stats.l2_misses += 1;
                ProbeOutcome::Miss
            }
        }
    }

    /// Angle-tagged probe of L1 then L2 (A-TFIM).
    fn probe_with_angle(&mut self, cluster: usize, line: u64, angle: Radians) -> ProbeOutcome {
        match self.l1[cluster].access_with_angle(line, Some(angle), self.angle_threshold) {
            CacheOutcome::Hit => {
                self.stats.l1_hits += 1;
                return ProbeOutcome::L1Hit;
            }
            CacheOutcome::AngleMiss => {
                self.stats.l1_angle_misses += 1;
                // An angle miss forces recalculation regardless of L2.
                let _ = self
                    .l2
                    .access_with_angle(line, Some(angle), self.angle_threshold);
                return ProbeOutcome::Miss;
            }
            CacheOutcome::Miss => self.stats.l1_misses += 1,
        }
        match self
            .l2
            .access_with_angle(line, Some(angle), self.angle_threshold)
        {
            CacheOutcome::Hit => {
                self.stats.l2_hits += 1;
                ProbeOutcome::L2Hit
            }
            CacheOutcome::AngleMiss => {
                self.stats.l2_angle_misses += 1;
                ProbeOutcome::Miss
            }
            CacheOutcome::Miss => {
                self.stats.l2_misses += 1;
                ProbeOutcome::Miss
            }
        }
    }

    /// Total L1+L2 accesses (for the cache-energy term).
    pub fn cache_accesses(&self) -> u64 {
        self.stats.l1_hits
            + self.stats.l1_misses
            + self.stats.l1_angle_misses
            + self.stats.l2_hits
            + self.stats.l2_misses
            + self.stats.l2_angle_misses
    }

    /// Resets all state for a fresh run.
    pub fn reset(&mut self) {
        self.units.reset();
        for c in &mut self.l1 {
            c.reset();
        }
        self.l2.reset();
        for m in self.mtus.iter_mut().flatten() {
            m.reset();
        }
        for a in self.atfim.iter_mut().flatten() {
            a.reset();
        }
        self.offload.reset();
        self.parent_values.reset();
        self.stats = TextureStats::default();
    }
}

/// Derivatives in base-level texel units for one fragment. Shared with
/// the phase-1 lane precomputer, which must feed the sampler the exact
/// operands the serial path does.
pub(crate) fn texel_derivs(tex: &MippedTexture, frag: &Fragment) -> (Vec2, Vec2) {
    let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
    (
        Vec2::new(frag.duv_dx.x * scale.x, frag.duv_dx.y * scale.y),
        Vec2::new(frag.duv_dy.x * scale.x, frag.duv_dy.y * scale.y),
    )
}

/// Deduplicated cache-line addresses of a fetch trace, written into a
/// caller-provided scratch buffer (cleared first) so the per-quad hot
/// loop does not allocate. Order is **first occurrence**, not sorted:
/// the lines feed LRU caches, so reordering them would change hit/miss
/// sequences and therefore timing.
///
/// Addressing runs as a batch over the flat trace first
/// ([`TextureLayout::texel_line_addrs_into`], via the `addrs` scratch),
/// then the dedup folds the resulting flat `u64` slice: bulk arithmetic
/// over SoA buffers, order-sensitive logic scalar.
pub(crate) fn dedup_lines_into(
    fetches: &[pimgfx_texture::TexelFetch],
    layout: &TextureLayout,
    addrs: &mut Vec<u64>,
    lines: &mut Vec<u64>,
) {
    layout.texel_line_addrs_into(fetches, addrs);
    lines.clear();
    dedup_extend(lines, addrs);
}

/// Appends every line of `lines` that `out` does not hold yet, in
/// order: a first-occurrence dedup that extends an existing list.
pub(crate) fn dedup_extend(out: &mut Vec<u64>, lines: &[u64]) {
    for &line in lines {
        if !out.contains(&line) {
            out.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimgfx_texture::TextureImage;
    use pimgfx_types::TextureId;

    fn test_texture() -> (MippedTexture, TextureLayout) {
        let tex = MippedTexture::with_full_chain(TextureImage::from_fn(32, 32, |x, y| {
            Rgba::new(x as f32 / 31.0, y as f32 / 31.0, 0.3, 1.0)
        }))
        .with_id(TextureId::new(0));
        let dims: Vec<(u32, u32)> = (0..tex.level_count())
            .map(|l| (tex.level(l).width(), tex.level(l).height()))
            .collect();
        let layout = TextureLayout::new(TextureId::new(0), 1 << 24, &dims);
        (tex, layout)
    }

    fn frag(uv: Vec2, d: f32, angle: f32) -> Fragment {
        Fragment {
            x: 0,
            y: 0,
            depth: 0.5,
            uv,
            duv_dx: Vec2::new(d, 0.0),
            duv_dy: Vec2::new(0.0, d / 8.0),
            camera_angle: Radians::new(angle),
            texture: TextureId::new(0),
        }
    }

    fn make(design: Design) -> (TexturePath, MemoryBackend) {
        let config = SimConfig::builder().design(design).build().expect("valid");
        (
            TexturePath::new(&config).expect("valid"),
            MemoryBackend::from_config(&config).expect("valid"),
        )
    }

    /// `dedup_lines_into` must produce exactly what the old
    /// allocate-per-quad dedup produced: same lines, same first-occurrence
    /// order (the order drives LRU cache state and thus timing).
    #[test]
    fn dedup_lines_into_preserves_order_and_content() {
        let (_, layout) = test_texture();
        let fetches: Vec<pimgfx_texture::TexelFetch> = [
            (4u32, 4u32, 0u8),
            (5, 4, 0),
            (4, 4, 0), // duplicate texel
            (20, 9, 0),
            (2, 2, 1),
            (5, 4, 0), // duplicate texel
            (3, 2, 1), // may share a line with (2,2,1)
        ]
        .into_iter()
        .map(|(x, y, level)| pimgfx_texture::TexelFetch { x, y, level })
        .collect();

        // Reference: the historical fresh-Vec dedup.
        let mut want: Vec<u64> = Vec::new();
        for f in &fetches {
            let line = layout.texel_line_addr(f.x, f.y, usize::from(f.level));
            if !want.contains(&line) {
                want.push(line);
            }
        }

        let mut addrs = Vec::new();
        let mut got = vec![0xdead_beef; 2]; // stale scratch must be cleared
        dedup_lines_into(&fetches, &layout, &mut addrs, &mut got);
        assert_eq!(got, want);
        // Reuse without clearing in between: still identical.
        dedup_lines_into(&fetches, &layout, &mut addrs, &mut got);
        assert_eq!(got, want);
    }

    /// S-TFIM's phase-2 consume builds a quad's request lines from the
    /// per-fragment deduplicated lines of the conventional record; that
    /// must equal the serial path's dedup of the quad's raw fetch lines,
    /// order included (the order is the MTU's request order).
    #[test]
    fn quad_dedup_of_fragment_lines_matches_raw_quad_dedup() {
        let (_, layout) = test_texture();
        let mut rng = pimgfx_types::TinyRng::seed_from_u64(0x57f1);
        for _ in 0..500 {
            let quad: Vec<Vec<pimgfx_texture::TexelFetch>> = (0..1 + rng.next_u64() % 4)
                .map(|_| {
                    (0..rng.next_u64() % 24)
                        .map(|_| pimgfx_texture::TexelFetch {
                            x: (rng.next_u64() % 12) as u32,
                            y: (rng.next_u64() % 12) as u32,
                            level: (rng.next_u64() % 2) as u8,
                        })
                        .collect()
                })
                .collect();
            let mut addrs = Vec::new();
            // Serial path: the quad-wide dedup of every raw fetch line.
            let mut raw = Vec::new();
            for fetches in &quad {
                layout.texel_line_addrs_into(fetches, &mut addrs);
                dedup_extend(&mut raw, &addrs);
            }
            // Record path: dedup per fragment, then across the quad.
            let mut lines = Vec::new();
            let mut from_record = Vec::new();
            for fetches in &quad {
                dedup_lines_into(fetches, &layout, &mut addrs, &mut lines);
                dedup_extend(&mut from_record, &lines);
            }
            assert_eq!(raw, from_record);
        }
    }

    #[test]
    fn all_designs_produce_similar_colors() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.4, 0.6), 0.25, 0.3);
        let mut colors = Vec::new();
        for d in Design::ALL {
            let (mut path, mut mem) = make(d);
            let (c, done) = path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
            assert!(done > Cycle::ZERO, "{d}");
            colors.push(c);
        }
        for c in &colors[1..] {
            assert!(
                colors[0].max_channel_diff(*c) < 0.02,
                "designs disagree: {:?} vs {:?}",
                colors[0],
                c
            );
        }
    }

    #[test]
    fn baseline_uses_caches() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.1, 0.2);
        let (mut path, mut mem) = make(Design::Baseline);
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        let first_misses = path.stats().l1_misses;
        assert!(first_misses > 0);
        // Repeat: everything hits now.
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert!(path.stats().l1_hits > 0);
        assert_eq!(path.stats().l1_misses, first_misses);
    }

    #[test]
    fn stfim_bypasses_caches_and_ships_one_package_per_quad() {
        let (tex, layout) = test_texture();
        let quad: Vec<Fragment> = (0..4)
            .map(|i| frag(Vec2::new(0.5 + i as f32 * 0.01, 0.5), 0.1, 0.2))
            .collect();
        let (mut path, mut mem) = make(Design::STfim);
        let out = path.sample_quad(0, Cycle::ZERO, &quad, &tex, &layout, &mut mem);
        assert_eq!(out.len(), 4);
        assert_eq!(path.stats().l1_hits + path.stats().l1_misses, 0);
        assert_eq!(path.stats().offload_packages, 1, "one package per quad");
        assert_eq!(
            mem.traffic().bytes(TrafficClass::TextureFetch).get(),
            packet::TFIM_REQUEST_BYTES + packet::TFIM_RESPONSE_BYTES
        );
        // All four fragments complete together.
        assert!(out.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn atfim_offloads_misses_then_reuses() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.5, 0.2);
        let (mut path, mut mem) = make(Design::ATfim);
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert_eq!(path.stats().offload_packages, 1);
        assert!(path.stats().child_reads > 0);
        // Same fragment again: parents hit with the same angle.
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert_eq!(path.stats().offload_packages, 1, "no second offload");
        assert!(path.stats().l1_hits > 0);
    }

    #[test]
    fn atfim_quad_shares_one_package() {
        let (tex, layout) = test_texture();
        let quad: Vec<Fragment> = (0..4)
            .map(|i| frag(Vec2::new(0.3 + i as f32 * 0.01, 0.6), 0.5, 0.2))
            .collect();
        let (mut path, mut mem) = make(Design::ATfim);
        let out = path.sample_quad(0, Cycle::ZERO, &quad, &tex, &layout, &mut mem);
        assert_eq!(out.len(), 4);
        assert_eq!(path.stats().offload_packages, 1);
    }

    #[test]
    fn atfim_angle_change_forces_recalculation() {
        let (tex, layout) = test_texture();
        let (mut path, mut mem) = make(Design::ATfim);
        let f1 = frag(Vec2::new(0.5, 0.5), 0.5, 0.0);
        let f2 = frag(Vec2::new(0.5, 0.5), 0.5, 1.0); // far outside 0.01π
        path.sample(0, Cycle::ZERO, &f1, &tex, &layout, &mut mem);
        let packages_before = path.stats().offload_packages;
        path.sample(0, Cycle::ZERO, &f2, &tex, &layout, &mut mem);
        assert!(path.stats().offload_packages > packages_before);
        assert!(path.stats().l1_angle_misses > 0);
    }

    #[test]
    fn atfim_fetches_fewer_external_bytes_than_baseline_on_aniso() {
        let (tex, layout) = test_texture();
        // A strongly anisotropic fragment.
        let f = frag(Vec2::new(0.3, 0.7), 0.5, 0.4);
        let (mut base, mut mem_b) = make(Design::BPim);
        base.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem_b);
        let (mut at, mut mem_a) = make(Design::ATfim);
        at.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem_a);
        let b = mem_b.traffic().bytes(TrafficClass::TextureFetch).get();
        let a = mem_a.traffic().bytes(TrafficClass::TextureFetch).get();
        assert!(a <= b + 80, "A-TFIM {a} bytes vs B-PIM {b} bytes");
    }

    #[test]
    fn latency_accumulates_in_stats() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.2, 0.2), 0.2, 0.1);
        let (mut path, mut mem) = make(Design::Baseline);
        path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert_eq!(path.stats().samples, 1);
        assert!(path.stats().latency_cycles > 0);
        assert!(path.gpu_busy() > Duration::ZERO);
        path.reset();
        assert_eq!(path.stats().samples, 0);
    }

    #[test]
    fn degenerate_kernels_bypass_the_offload_path() {
        let (tex, layout) = test_texture();
        // An isotropic, minified fragment: probes collapse onto the
        // parent texel, so nothing should ship to the logic layer.
        let f = Fragment {
            x: 0,
            y: 0,
            depth: 0.5,
            uv: Vec2::new(0.5, 0.5),
            duv_dx: Vec2::new(0.125, 0.0), // 4 texels on a 32-texel base
            duv_dy: Vec2::new(0.0, 0.125),
            camera_angle: Radians::new(0.2),
            texture: pimgfx_types::TextureId::new(0),
        };
        let (mut path, mut mem) = make(Design::ATfim);
        let (_, done) = path.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut mem);
        assert!(done > Cycle::ZERO);
        assert_eq!(path.stats().offload_packages, 0, "no children, no offload");
        assert_eq!(path.stats().child_reads, 0);
        // The parent lines were still fetched (as plain reads).
        assert!(mem.traffic().bytes(TrafficClass::TextureFetch).get() > 0);
    }

    #[test]
    fn compressed_textures_shrink_line_fetches() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.1, 0.2);
        let raw_cfg = SimConfig::default();
        let bc_cfg = SimConfig::builder()
            .compressed_textures(true)
            .build()
            .expect("valid");
        let mut raw = TexturePath::new(&raw_cfg).expect("valid");
        let mut raw_mem = MemoryBackend::from_config(&raw_cfg).expect("valid");
        let mut bc = TexturePath::new(&bc_cfg).expect("valid");
        let mut bc_mem = MemoryBackend::from_config(&bc_cfg).expect("valid");
        raw.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut raw_mem);
        bc.sample(0, Cycle::ZERO, &f, &tex, &layout, &mut bc_mem);
        let raw_bytes = raw_mem.traffic().bytes(TrafficClass::TextureFetch).get();
        let bc_bytes = bc_mem.traffic().bytes(TrafficClass::TextureFetch).get();
        assert!(
            bc_bytes < raw_bytes,
            "BC1 lines are 16B, not 64B: {bc_bytes} vs {raw_bytes}"
        );
    }

    #[test]
    fn atfim_functional_reuse_changes_pixels_at_loose_threshold() {
        let (tex, layout) = test_texture();
        let config = SimConfig::builder()
            .design(Design::ATfim)
            .angle_threshold_pi_fraction(0.005)
            .build()
            .expect("valid");
        let mut strict = TexturePath::new(&config).expect("valid");
        let mut mem1 = MemoryBackend::from_config(&config).expect("valid");

        let loose_cfg = SimConfig::builder()
            .design(Design::ATfim)
            .no_recalculation()
            .build()
            .expect("valid");
        let mut loose = TexturePath::new(&loose_cfg).expect("valid");
        let mut mem2 = MemoryBackend::from_config(&loose_cfg).expect("valid");

        // Two fragments, same texels, different view angle and footprint.
        let f1 = frag(Vec2::new(0.5, 0.5), 0.5, 0.1);
        let mut f2 = frag(Vec2::new(0.5, 0.5), 0.5, 0.9);
        f2.duv_dx = Vec2::new(0.9, 0.0);

        strict.sample(0, Cycle::ZERO, &f1, &tex, &layout, &mut mem1);
        let (c_strict, _) = strict.sample(0, Cycle::ZERO, &f2, &tex, &layout, &mut mem1);
        loose.sample(0, Cycle::ZERO, &f1, &tex, &layout, &mut mem2);
        let (c_loose, _) = loose.sample(0, Cycle::ZERO, &f2, &tex, &layout, &mut mem2);
        assert!(
            c_strict.max_channel_diff(c_loose) > 1e-4,
            "approximation should be visible: {c_strict:?} vs {c_loose:?}"
        );
    }
}
