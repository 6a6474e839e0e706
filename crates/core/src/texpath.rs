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
//! The designs diverge only after the sampler: the pure sampling math
//! (filtering, footprints, texel addressing, A-TFIM corner values) runs
//! in phase 1 (`crate::lanepre`), and this module consumes its records
//! and drives the order-sensitive caches, servers and stats.
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
use pimgfx_texture::{CacheOutcome, MippedTexture, TextureCache};
use pimgfx_types::{Radians, Result, Rgba};

/// Latency of an L1 texture-cache hit, cycles.
const L1_HIT_CYCLES: u64 = 1;
/// Latency of an L2 texture-cache hit, cycles.
const L2_HIT_CYCLES: u64 = 8;

/// Reusable per-path scratch buffers: cleared and refilled every quad so
/// the steady-state sampling loop performs no heap allocation.
#[derive(Debug, Default)]
struct PathScratch {
    /// Quad-wide deduplicated request lines (S-TFIM); moved into the
    /// MTU request each quad and its capacity reclaimed afterwards.
    stfim_lines: Vec<u64>,
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

    /// Samples a fragment quad (1–4 fragments sharing one texture
    /// request) from its phase-1 records: consumes one record per
    /// fragment from the quad's cluster buffer `pre`, starting at
    /// `cursor` (the cluster's fragments consumed so far, advanced past
    /// the quad), and drives the order-sensitive tail — caches,
    /// servers, stats. Clears `out` and fills it with one
    /// `(color, completion)` per fragment, in order.
    ///
    /// # Panics
    ///
    /// Panics if `frags` is empty or the buffer runs dry (a lane
    /// partition mismatch between the phases — a bug by definition).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample_quad(
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
        let records = *cursor..*cursor + frags.len();
        *cursor = records.end;
        match self.design {
            Design::Baseline | Design::BPim => {
                self.quad_conventional_pre(cluster, issue, records, mem, pre, out);
            }
            Design::STfim => self.quad_stfim_pre(cluster, issue, records, mem, pre, out),
            Design::ATfim => self.quad_atfim_pre(cluster, issue, records, tex, mem, pre, out),
        }
        for (_, done) in out.iter() {
            self.stats.samples += 1;
            self.stats.latency_cycles += done.since(issue).get();
        }
    }

    /// Baseline / B-PIM: full filtering on the GPU texture unit. Per
    /// fragment of the quad, the recorded color, texel count and
    /// deduplicated lines drive address generation, the cache probes,
    /// memory fetches and the filter pipe.
    fn quad_conventional_pre(
        &mut self,
        cluster: usize,
        issue: Cycle,
        records: std::ops::Range<usize>,
        mem: &mut MemoryBackend,
        pre: &LanePre,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        for i in records {
            let texels = pre.texels[i];
            self.stats.conventional_texels += u64::from(texels);
            self.stats.record_aniso(pre.aniso[i]);
            let addr_done = self.units.generate_addresses(cluster, issue, texels);
            let mut data_ready = addr_done;
            for &line in pre.fragment_lines(i) {
                let ready = self.fetch_line(cluster, addr_done, line, mem);
                data_ready = data_ready.max(ready);
            }
            self.stats.texels_filtered_gpu += u64::from(texels);
            let done = self.units.filter(cluster, data_ready, texels);
            out.push((pre.colors[i], done));
        }
    }

    /// S-TFIM: one request package per quad to the cluster's MTU; the
    /// filtered textures come back in one response. S-TFIM consumes the
    /// conventional record: the quad's request lines are the
    /// first-occurrence dedup of its fragments' deduplicated lines,
    /// concatenated — equal to the dedup of the quad's raw fetch lines,
    /// because a per-fragment dedup keeps every line's first occurrence
    /// and so preserves the quad-wide first-occurrence order.
    fn quad_stfim_pre(
        &mut self,
        cluster: usize,
        issue: Cycle,
        records: std::ops::Range<usize>,
        mem: &mut MemoryBackend,
        pre: &LanePre,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        // The line buffer moves into the request and comes back after,
        // so steady state stays allocation-free.
        let mut quad_lines = std::mem::take(&mut self.scratch.stfim_lines);
        quad_lines.clear();
        let mut texel_total = 0u32;
        for i in records {
            let texels = pre.texels[i];
            self.stats.conventional_texels += u64::from(texels);
            self.stats.record_aniso(pre.aniso[i]);
            texel_total += texels;
            dedup_extend(&mut quad_lines, pre.fragment_lines(i));
            // Completion is quad-wide and not known yet; patched below.
            out.push((pre.colors[i], issue));
        }

        // The whole request maps to one cube: all its texels belong to
        // one texture, which the simulator placed inside one cube region.
        let first = quad_lines.first().copied().unwrap_or(0);
        let cube = mem.cube_index(first);
        let hmc = mem
            .hmc_for(first)
            // lint:allow(no-panic) — design/backend pairing is rejected by SimConfig::validate, so S-TFIM always runs over HMC
            .expect("S-TFIM requires an HMC backend (enforced by Simulator::new)");
        hmc.record_external_traffic(TrafficClass::TextureFetch, packet::TFIM_REQUEST_BYTES);
        let at_cube = hmc.send_to_cube(issue, packet::TFIM_REQUEST_BYTES);
        let req = TextureRequest {
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
        self.scratch.stfim_lines = req.texel_line_addrs;
        for entry in out.iter_mut() {
            entry.1 = done;
        }
    }

    /// A-TFIM: parent texels through angle-tagged caches (per fragment,
    /// [`TexturePath::atfim_fragment_pre`]); the quad's misses offloaded
    /// in one package to the logic layer, then per-fragment filtering
    /// over the parents.
    #[allow(clippy::too_many_arguments)]
    fn quad_atfim_pre(
        &mut self,
        cluster: usize,
        issue: Cycle,
        records: std::ops::Range<usize>,
        tex: &MippedTexture,
        mem: &mut MemoryBackend,
        pre: &LanePre,
        out: &mut Vec<(Rgba, Cycle)>,
    ) {
        let mut parts = std::mem::take(&mut self.scratch.parts);
        parts.clear();
        for i in records {
            parts.push(self.atfim_fragment_pre(cluster, tex, pre, i));
        }

        // Address generation for the quad's parents.
        let total_parents: u32 = parts.iter().map(|p| p.parents).sum();
        let addr_done = self
            .units
            .generate_addresses(cluster, issue, total_parents.max(1));

        // One offload package for all quad misses.
        let scratch = &mut self.scratch;
        scratch.quad_miss.clear();
        for p in &parts {
            dedup_extend(&mut scratch.quad_miss, p.miss_lines.as_slice());
        }
        // Degenerate-kernel misses are ordinary texel reads.
        scratch.plain_lines.clear();
        for p in &parts {
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
            let batch = ParentFetchBatch {
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
            scratch.quad_miss = batch.parent_line_addrs;
            let resp_bytes = self.offload.response_bytes(scratch.quad_miss.len());
            hmc.record_external_traffic(TrafficClass::TextureFetch, resp_bytes);
            miss_ready = hmc.send_to_host(resp.completion, resp_bytes);
            self.stats.offload_packages += 1;
            self.stats.child_reads += resp.child_reads;
            self.stats.merged_child_reads += resp.merged_reads;
        }

        // Per-fragment GPU-side bilinear/trilinear over the parents.
        for p in &parts {
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
        self.scratch.parts = parts;
    }

    /// The A-TFIM GPU-side pass for one fragment: probe the angle-tagged
    /// caches, reuse or recompute parent values, and report the misses.
    /// The footprint, angle tag and corner geometry come from the
    /// phase-1 record, and so does every corner's recompute value — a
    /// speculative child average, bit-identical to computing it here
    /// (same kernel, same operands).
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
        // Cache outcome per probed line, parallel to `parent_lines`:
        // reuse of the stored parent value is only legal on a cache *hit*
        // — a capacity miss refetches and recomputes in hardware, so the
        // functional side must too.
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
            // Degenerate kernel: every probe lands on the parent texel
            // itself (common at the coarser of the two blended levels).
            // The "average over children" is then exactly the texel — no
            // child set exists, so there is nothing to offload and no
            // camera angle to compare: it is an ordinary texel fetch.
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
                // Functional: reuse the stored parent value only when the
                // cache actually hit (with a compatible angle); any miss —
                // capacity or angle — recomputes with this fragment's own
                // footprint, as the hardware would, and stores the value.
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
    use crate::lanepre;
    use pimgfx_texture::{TextureImage, TextureLayout};
    use pimgfx_types::{TextureId, Vec2};

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

    /// A texture path with its memory and the configuration whose
    /// sample key records the quads it consumes.
    struct Rig {
        config: SimConfig,
        path: TexturePath,
        mem: MemoryBackend,
    }

    impl Rig {
        fn new(config: SimConfig) -> Self {
            Self {
                path: TexturePath::new(&config).expect("valid"),
                mem: MemoryBackend::from_config(&config).expect("valid"),
                config,
            }
        }

        fn design(design: Design) -> Self {
            Self::new(SimConfig::builder().design(design).build().expect("valid"))
        }

        /// Records `frags` as one quad with the phase-1 precomputer,
        /// then consumes the record on cluster 0 at cycle 0.
        fn sample_quad(
            &mut self,
            frags: &[Fragment],
            tex: &MippedTexture,
            layout: &TextureLayout,
        ) -> Vec<(Rgba, Cycle)> {
            let pre = lanepre::record_quad(&self.config.sample_key(), frags, tex, layout);
            let mut out = Vec::new();
            self.path.sample_quad(
                0,
                Cycle::ZERO,
                frags,
                tex,
                &mut self.mem,
                &pre,
                &mut 0,
                &mut out,
            );
            out
        }

        fn sample(
            &mut self,
            frag: &Fragment,
            tex: &MippedTexture,
            layout: &TextureLayout,
        ) -> (Rgba, Cycle) {
            self.sample_quad(std::slice::from_ref(frag), tex, layout)[0]
        }
    }

    #[test]
    fn all_designs_produce_similar_colors() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.4, 0.6), 0.25, 0.3);
        let mut colors = Vec::new();
        for d in Design::ALL {
            let (c, done) = Rig::design(d).sample(&f, &tex, &layout);
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
        let mut rig = Rig::design(Design::Baseline);
        rig.sample(&f, &tex, &layout);
        let first_misses = rig.path.stats().l1_misses;
        assert!(first_misses > 0);
        // Repeat: everything hits now.
        rig.sample(&f, &tex, &layout);
        assert!(rig.path.stats().l1_hits > 0);
        assert_eq!(rig.path.stats().l1_misses, first_misses);
    }

    #[test]
    fn stfim_bypasses_caches_and_ships_one_package_per_quad() {
        let (tex, layout) = test_texture();
        let quad: Vec<Fragment> = (0..4)
            .map(|i| frag(Vec2::new(0.5 + i as f32 * 0.01, 0.5), 0.1, 0.2))
            .collect();
        let mut rig = Rig::design(Design::STfim);
        let out = rig.sample_quad(&quad, &tex, &layout);
        assert_eq!(out.len(), 4);
        assert_eq!(rig.path.stats().l1_hits + rig.path.stats().l1_misses, 0);
        assert_eq!(rig.path.stats().offload_packages, 1, "one package per quad");
        assert_eq!(
            rig.mem.traffic().bytes(TrafficClass::TextureFetch).get(),
            packet::TFIM_REQUEST_BYTES + packet::TFIM_RESPONSE_BYTES
        );
        // All four fragments complete together.
        assert!(out.windows(2).all(|w| w[0].1 == w[1].1));
    }

    #[test]
    fn atfim_offloads_misses_then_reuses() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.5, 0.2);
        let mut rig = Rig::design(Design::ATfim);
        rig.sample(&f, &tex, &layout);
        assert_eq!(rig.path.stats().offload_packages, 1);
        assert!(rig.path.stats().child_reads > 0);
        // Same fragment again: parents hit with the same angle.
        rig.sample(&f, &tex, &layout);
        assert_eq!(rig.path.stats().offload_packages, 1, "no second offload");
        assert!(rig.path.stats().l1_hits > 0);
    }

    #[test]
    fn atfim_quad_shares_one_package() {
        let (tex, layout) = test_texture();
        let quad: Vec<Fragment> = (0..4)
            .map(|i| frag(Vec2::new(0.3 + i as f32 * 0.01, 0.6), 0.5, 0.2))
            .collect();
        let mut rig = Rig::design(Design::ATfim);
        let out = rig.sample_quad(&quad, &tex, &layout);
        assert_eq!(out.len(), 4);
        assert_eq!(rig.path.stats().offload_packages, 1);
    }

    #[test]
    fn atfim_angle_change_forces_recalculation() {
        let (tex, layout) = test_texture();
        let mut rig = Rig::design(Design::ATfim);
        let f1 = frag(Vec2::new(0.5, 0.5), 0.5, 0.0);
        let f2 = frag(Vec2::new(0.5, 0.5), 0.5, 1.0); // far outside 0.01π
        rig.sample(&f1, &tex, &layout);
        let packages_before = rig.path.stats().offload_packages;
        rig.sample(&f2, &tex, &layout);
        assert!(rig.path.stats().offload_packages > packages_before);
        assert!(rig.path.stats().l1_angle_misses > 0);
    }

    #[test]
    fn atfim_fetches_fewer_external_bytes_than_baseline_on_aniso() {
        let (tex, layout) = test_texture();
        // A strongly anisotropic fragment.
        let f = frag(Vec2::new(0.3, 0.7), 0.5, 0.4);
        let mut base = Rig::design(Design::BPim);
        base.sample(&f, &tex, &layout);
        let mut at = Rig::design(Design::ATfim);
        at.sample(&f, &tex, &layout);
        let b = base.mem.traffic().bytes(TrafficClass::TextureFetch).get();
        let a = at.mem.traffic().bytes(TrafficClass::TextureFetch).get();
        assert!(a <= b + 80, "A-TFIM {a} bytes vs B-PIM {b} bytes");
    }

    #[test]
    fn latency_accumulates_in_stats() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.2, 0.2), 0.2, 0.1);
        let mut rig = Rig::design(Design::Baseline);
        rig.sample(&f, &tex, &layout);
        assert_eq!(rig.path.stats().samples, 1);
        assert!(rig.path.stats().latency_cycles > 0);
        assert!(rig.path.gpu_busy() > Duration::ZERO);
        rig.path.reset();
        assert_eq!(rig.path.stats().samples, 0);
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
            texture: TextureId::new(0),
        };
        let mut rig = Rig::design(Design::ATfim);
        let (_, done) = rig.sample(&f, &tex, &layout);
        assert!(done > Cycle::ZERO);
        assert_eq!(
            rig.path.stats().offload_packages,
            0,
            "no children, no offload"
        );
        assert_eq!(rig.path.stats().child_reads, 0);
        // The parent lines were still fetched (as plain reads).
        assert!(rig.mem.traffic().bytes(TrafficClass::TextureFetch).get() > 0);
    }

    #[test]
    fn compressed_textures_shrink_line_fetches() {
        let (tex, layout) = test_texture();
        let f = frag(Vec2::new(0.5, 0.5), 0.1, 0.2);
        let mut raw = Rig::new(SimConfig::default());
        let mut bc = Rig::new(
            SimConfig::builder()
                .compressed_textures(true)
                .build()
                .expect("valid"),
        );
        raw.sample(&f, &tex, &layout);
        bc.sample(&f, &tex, &layout);
        let raw_bytes = raw.mem.traffic().bytes(TrafficClass::TextureFetch).get();
        let bc_bytes = bc.mem.traffic().bytes(TrafficClass::TextureFetch).get();
        assert!(
            bc_bytes < raw_bytes,
            "BC1 lines are 16B, not 64B: {bc_bytes} vs {raw_bytes}"
        );
    }

    #[test]
    fn atfim_functional_reuse_changes_pixels_at_loose_threshold() {
        let (tex, layout) = test_texture();
        let mut strict = Rig::new(
            SimConfig::builder()
                .design(Design::ATfim)
                .angle_threshold_pi_fraction(0.005)
                .build()
                .expect("valid"),
        );
        let mut loose = Rig::new(
            SimConfig::builder()
                .design(Design::ATfim)
                .no_recalculation()
                .build()
                .expect("valid"),
        );

        // Two fragments, same texels, different view angle and footprint.
        let f1 = frag(Vec2::new(0.5, 0.5), 0.5, 0.1);
        let mut f2 = frag(Vec2::new(0.5, 0.5), 0.5, 0.9);
        f2.duv_dx = Vec2::new(0.9, 0.0);

        strict.sample(&f1, &tex, &layout);
        let (c_strict, _) = strict.sample(&f2, &tex, &layout);
        loose.sample(&f1, &tex, &layout);
        let (c_loose, _) = loose.sample(&f2, &tex, &layout);
        assert!(
            c_strict.max_channel_diff(c_loose) > 1e-4,
            "approximation should be visible: {c_strict:?} vs {c_loose:?}"
        );
    }
}
