//! Sampler configuration and the user-facing sampling entry point.

use crate::filter::{
    anisotropic_conventional, anisotropic_reordered, bilinear, point, trilinear, FetchSet,
    FilterMode, SampleTrace,
};
use crate::footprint::Footprint;
use crate::mipmap::MippedTexture;
use pimgfx_types::Vec2;

/// Sampler state: filter mode, anisotropy cap, filtering order.
///
/// Matches the knobs the paper sweeps — `max_aniso = 1` reproduces the
/// "anisotropic filtering disabled" experiment of Fig. 4, and
/// `reordered = true` switches to the A-TFIM filtering order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Filtering pipeline to run.
    pub filter: FilterMode,
    /// Maximum anisotropy ratio (probes), ≥ 1. 16 is the paper's maximum.
    pub max_aniso: u32,
    /// When true, run anisotropic averaging *first* (the A-TFIM order of
    /// Fig. 7B); the sample trace then records parent fetches only.
    pub reordered: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            filter: FilterMode::Anisotropic,
            max_aniso: 16,
            reordered: false,
        }
    }
}

/// A stateless texture sampler.
///
/// # Examples
///
/// ```
/// use pimgfx_texture::{FilterMode, MippedTexture, Sampler, SamplerConfig, TextureImage};
/// use pimgfx_types::{Rgba, Vec2};
///
/// let tex = MippedTexture::with_full_chain(TextureImage::filled(16, 16, Rgba::WHITE));
/// let sampler = Sampler::new(SamplerConfig::default());
/// let s = sampler.sample(&tex, Vec2::new(0.5, 0.5), Vec2::new(0.5, 0.0), Vec2::new(0.0, 0.5));
/// assert!(s.color.max_channel_diff(Rgba::WHITE) < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sampler {
    config: SamplerConfig,
}

/// The scalar half of a [`SampleTrace`]: everything [`Sampler::sample`]
/// returns except the fetch list, which [`Sampler::sample_into`] leaves in
/// the caller's reusable [`FetchSet`] instead of a fresh `Vec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleInfo {
    /// Filtered RGBA result.
    pub color: pimgfx_types::Rgba,
    /// Texels the conventional pipeline would have fetched (see
    /// [`SampleTrace::conventional_texels`]).
    pub conventional_texels: u32,
    /// The anisotropy ratio actually applied.
    pub aniso_ratio: u32,
}

impl Sampler {
    /// Creates a sampler with the given configuration.
    pub fn new(config: SamplerConfig) -> Self {
        Self {
            config: SamplerConfig {
                max_aniso: config.max_aniso.max(1),
                ..config
            },
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// Computes the footprint this sampler would use for the given
    /// derivatives (taking the filter mode into account).
    pub fn footprint(&self, duv_dx: Vec2, duv_dy: Vec2) -> Footprint {
        let max_aniso = match self.config.filter {
            FilterMode::Anisotropic => self.config.max_aniso,
            _ => 1,
        };
        let fp = Footprint::from_derivatives(duv_dx, duv_dy, max_aniso);
        match self.config.filter {
            FilterMode::Anisotropic => fp,
            // Non-aniso modes widen the kernel to the major axis.
            _ => fp.isotropic(),
        }
    }

    /// Samples `tex` at normalized coordinates `uv` with screen-space
    /// derivatives given in *base-level texel units*.
    ///
    /// Returns the filtered color plus the texel-fetch trace used by the
    /// timing layer.
    pub fn sample(&self, tex: &MippedTexture, uv: Vec2, duv_dx: Vec2, duv_dy: Vec2) -> SampleTrace {
        let mut fetches = FetchSet::new();
        let info = self.sample_into(tex, uv, duv_dx, duv_dy, &mut fetches);
        SampleTrace {
            color: info.color,
            fetches: fetches.fetches().to_vec(),
            conventional_texels: info.conventional_texels,
            aniso_ratio: info.aniso_ratio,
        }
    }

    /// [`Sampler::sample`] writing its fetch trace into a caller-provided
    /// [`FetchSet`] (cleared first) instead of allocating a `Vec` — the
    /// simulator's per-fragment hot path.
    pub fn sample_into(
        &self,
        tex: &MippedTexture,
        uv: Vec2,
        duv_dx: Vec2,
        duv_dy: Vec2,
        fetches: &mut FetchSet,
    ) -> SampleInfo {
        fetches.clear();
        let fp = self.footprint(duv_dx, duv_dy);
        match self.config.filter {
            FilterMode::Point => {
                let (fine, _, _) = fp.mip_levels(tex.max_level());
                let color = point(tex, uv, fine, fetches);
                SampleInfo {
                    color,
                    conventional_texels: fetches.len() as u32,
                    aniso_ratio: 1,
                }
            }
            FilterMode::Bilinear => {
                let (fine, _, _) = fp.mip_levels(tex.max_level());
                let color = bilinear(tex, uv, fine, fetches);
                SampleInfo {
                    color,
                    conventional_texels: fetches.len() as u32,
                    aniso_ratio: 1,
                }
            }
            FilterMode::Trilinear => {
                let color = trilinear(tex, uv, fp.lod, fetches);
                SampleInfo {
                    color,
                    conventional_texels: fetches.len() as u32,
                    aniso_ratio: 1,
                }
            }
            FilterMode::Anisotropic => {
                if self.config.reordered {
                    let mut children = 0;
                    let color = anisotropic_reordered(tex, uv, &fp, fetches, &mut children);
                    SampleInfo {
                        color,
                        conventional_texels: children as u32,
                        aniso_ratio: fp.aniso_ratio,
                    }
                } else {
                    let color = anisotropic_conventional(tex, uv, &fp, fetches);
                    // ALU work is one read+MAC per probe texel, *including*
                    // re-reads of texels shared between probes (the fetch
                    // list is deduplicated for the memory side only).
                    let (fine, coarse, w) = fp.mip_levels(tex.max_level());
                    let levels = if coarse == fine || w == 0.0 { 1 } else { 2 };
                    SampleInfo {
                        color,
                        conventional_texels: fp.aniso_ratio * 4 * levels,
                        aniso_ratio: fp.aniso_ratio,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::TextureImage;
    use pimgfx_types::Rgba;

    fn tex() -> MippedTexture {
        MippedTexture::with_full_chain(TextureImage::from_fn(32, 32, |x, y| {
            Rgba::new(x as f32 / 31.0, y as f32 / 31.0, 0.0, 1.0)
        }))
    }

    #[test]
    fn default_config_is_full_aniso() {
        let c = SamplerConfig::default();
        assert_eq!(c.filter, FilterMode::Anisotropic);
        assert_eq!(c.max_aniso, 16);
        assert!(!c.reordered);
    }

    #[test]
    fn max_aniso_is_clamped_to_one() {
        let s = Sampler::new(SamplerConfig {
            max_aniso: 0,
            ..SamplerConfig::default()
        });
        assert_eq!(s.config().max_aniso, 1);
    }

    #[test]
    fn non_aniso_modes_use_isotropic_footprint() {
        let s = Sampler::new(SamplerConfig {
            filter: FilterMode::Trilinear,
            ..SamplerConfig::default()
        });
        let fp = s.footprint(Vec2::new(8.0, 0.0), Vec2::new(0.0, 1.0));
        assert_eq!(fp.aniso_ratio, 1);
        assert!((fp.lod - 3.0).abs() < 1e-5, "widened to major axis");
    }

    #[test]
    fn sample_modes_have_expected_fetch_counts() {
        let t = tex();
        let uv = Vec2::new(0.37, 0.61);
        let dx = Vec2::new(1.3, 0.0);
        let dy = Vec2::new(0.0, 1.3);
        let count = |mode| {
            Sampler::new(SamplerConfig {
                filter: mode,
                ..SamplerConfig::default()
            })
            .sample(&t, uv, dx, dy)
            .fetches
            .len()
        };
        assert_eq!(count(FilterMode::Point), 1);
        assert_eq!(count(FilterMode::Bilinear), 4);
        assert!(count(FilterMode::Trilinear) <= 8);
        assert!(count(FilterMode::Trilinear) > 4);
    }

    #[test]
    fn reordered_sampling_matches_conventional_color() {
        let t = tex();
        let conv = Sampler::new(SamplerConfig::default());
        let reord = Sampler::new(SamplerConfig {
            reordered: true,
            ..SamplerConfig::default()
        });
        for (uv, dx, dy) in [
            (
                Vec2::new(0.5, 0.5),
                Vec2::new(6.0, 0.0),
                Vec2::new(0.0, 1.5),
            ),
            (
                Vec2::new(0.21, 0.83),
                Vec2::new(0.0, 12.0),
                Vec2::new(2.0, 0.0),
            ),
        ] {
            let a = conv.sample(&t, uv, dx, dy);
            let b = reord.sample(&t, uv, dx, dy);
            assert!(
                a.color.max_channel_diff(b.color) < 1e-4,
                "mismatch at {uv:?}: {:?} vs {:?}",
                a.color,
                b.color
            );
            // The reorder slashes external fetches.
            assert!(b.fetches.len() <= 8);
            assert!(a.fetches.len() >= b.fetches.len());
        }
    }

    #[test]
    fn reordered_trace_reports_children_as_conventional_texels() {
        let t = tex();
        let reord = Sampler::new(SamplerConfig {
            reordered: true,
            ..SamplerConfig::default()
        });
        let s = reord.sample(
            &t,
            Vec2::new(0.5, 0.5),
            Vec2::new(8.0, 0.0),
            Vec2::new(0.0, 1.0),
        );
        assert_eq!(s.aniso_ratio, 8);
        // ratio × 4 corners × (1 or 2 levels, depending on fractional LOD).
        assert!(s.conventional_texels == 8 * 4 || s.conventional_texels == 8 * 8);
    }

    #[test]
    fn sample_into_matches_sample_across_modes() {
        let t = tex();
        let mut set = FetchSet::new();
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
            FilterMode::Anisotropic,
        ] {
            // One reused set across every mode: `sample_into` must clear
            // it, and `sample` must copy out exactly what was recorded.
            for reordered in [false, true] {
                let s = Sampler::new(SamplerConfig {
                    filter,
                    reordered,
                    ..SamplerConfig::default()
                });
                for (uv, dx, dy) in [
                    (
                        Vec2::new(0.37, 0.61),
                        Vec2::new(6.0, 0.0),
                        Vec2::new(0.0, 1.5),
                    ),
                    (
                        Vec2::new(0.9, 0.1),
                        Vec2::new(0.0, 12.0),
                        Vec2::new(2.0, 0.0),
                    ),
                ] {
                    let full = s.sample(&t, uv, dx, dy);
                    let info = s.sample_into(&t, uv, dx, dy, &mut set);
                    assert_eq!(full.color, info.color);
                    assert_eq!(full.conventional_texels, info.conventional_texels);
                    assert_eq!(full.aniso_ratio, info.aniso_ratio);
                    assert_eq!(full.fetches.as_slice(), set.fetches());
                }
            }
        }
    }

    #[test]
    fn aniso_disabled_fetches_fewer_texels() {
        let t = tex();
        let on = Sampler::new(SamplerConfig::default());
        let off = Sampler::new(SamplerConfig {
            max_aniso: 1,
            ..SamplerConfig::default()
        });
        let uv = Vec2::new(0.5, 0.5);
        let dx = Vec2::new(16.0, 0.0);
        let dy = Vec2::new(0.0, 1.0);
        let s_on = on.sample(&t, uv, dx, dy);
        let s_off = off.sample(&t, uv, dx, dy);
        assert!(s_on.fetches.len() > s_off.fetches.len());
        assert_eq!(s_off.aniso_ratio, 1);
    }
}
