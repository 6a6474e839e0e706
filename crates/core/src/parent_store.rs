//! The A-TFIM functional parent store: the last computed value and
//! camera angle of every parent texel, per texture and mip level.
//!
//! Lookups sit on the A-TFIM replay's per-corner hot path, and the keys
//! are dense: a frame touches most texels of the levels it samples, in
//! spatially coherent runs. So instead of hashing `(texture, level, x,
//! y)` the store keeps one page table per `(texture, level)` of 8×8-texel
//! pages. A page holds its 64 values plus a `u64` mask of which are
//! set; it is allocated on the first insert into it and dropped by
//! [`ParentStore::reset`]. Lookups are two bounds-checked index steps.

use pimgfx_types::{Radians, Rgba};

/// Page edge, texels.
const PAGE_EDGE: u32 = 8;

/// One 8×8-texel page: row-major values and their valid bits.
#[derive(Debug)]
struct Page {
    valid: u64,
    values: [(Radians, Rgba); 64],
}

/// The page table of one `(texture, level)`, sized from the level's
/// dimensions on its first insert.
#[derive(Debug, Default)]
struct LevelPages {
    width: u32,
    height: u32,
    pages: Vec<Option<Box<Page>>>,
}

impl LevelPages {
    /// Page index and bit of texel `(x, y)`, or `None` outside the
    /// level.
    fn locate(&self, x: u32, y: u32) -> Option<(usize, u32)> {
        if x >= self.width || y >= self.height {
            return None;
        }
        let pages_x = self.width.div_ceil(PAGE_EDGE);
        let page = (y / PAGE_EDGE) * pages_x + x / PAGE_EDGE;
        let bit = (y % PAGE_EDGE) * PAGE_EDGE + x % PAGE_EDGE;
        Some((page as usize, bit))
    }
}

/// Parent values keyed by `(texture, level, x, y)`, with the lookup
/// semantics of a map over those keys (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ParentStore {
    /// Indexed by texture id, then mip level.
    levels: Vec<Vec<LevelPages>>,
}

impl ParentStore {
    /// The value stored for texel `(x, y)` of `level` of texture `tex`.
    pub fn get(&self, tex: u32, level: usize, x: u32, y: u32) -> Option<(Radians, Rgba)> {
        let table = self.levels.get(tex as usize)?.get(level)?;
        let (page, bit) = table.locate(x, y)?;
        let page = table.pages[page].as_deref()?;
        (page.valid >> bit & 1 == 1).then(|| page.values[bit as usize])
    }

    /// Stores `value` for texel `(x, y)` of `level` of texture `tex`,
    /// whose dimensions are `dims`. A level's table takes its
    /// dimensions from its first insert; an insert with other
    /// dimensions (another scene replayed without a reset) starts the
    /// level's table afresh.
    pub fn insert(
        &mut self,
        tex: u32,
        level: usize,
        dims: (u32, u32),
        x: u32,
        y: u32,
        value: (Radians, Rgba),
    ) {
        debug_assert!(x < dims.0 && y < dims.1, "parent texel outside its level");
        let tex = tex as usize;
        if self.levels.len() <= tex {
            self.levels.resize_with(tex + 1, Vec::new);
        }
        let levels = &mut self.levels[tex];
        if levels.len() <= level {
            levels.resize_with(level + 1, LevelPages::default);
        }
        let table = &mut levels[level];
        if (table.width, table.height) != dims {
            let pages = dims.0.div_ceil(PAGE_EDGE) as usize * dims.1.div_ceil(PAGE_EDGE) as usize;
            *table = LevelPages {
                width: dims.0,
                height: dims.1,
                pages: Vec::new(),
            };
            table.pages.resize_with(pages, || None);
        }
        let Some((page, bit)) = table.locate(x, y) else {
            return;
        };
        let page = table.pages[page].get_or_insert_with(|| {
            Box::new(Page {
                valid: 0,
                values: [(Radians::default(), Rgba::default()); 64],
            })
        });
        page.valid |= 1 << bit;
        page.values[bit as usize] = value;
    }

    /// Drops every stored value and page.
    pub fn reset(&mut self) {
        self.levels.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashMap;
    use pimgfx_types::TinyRng;

    /// A seeded get/insert stream over several textures, with level
    /// sizes that are not multiples of the page edge, must read back
    /// exactly what a hash map over the same keys reads back — before
    /// and after a reset.
    #[test]
    fn matches_a_hash_map_reference() {
        // (texture, level) → level dimensions; odd sizes straddle pages.
        let dims = |tex: u32, level: usize| -> (u32, u32) {
            let base = [(37u32, 21u32), (64, 64), (13, 50)][tex as usize];
            ((base.0 >> level).max(1), (base.1 >> level).max(1))
        };
        let mut rng = TinyRng::seed_from_u64(0x5eed);
        let mut store = ParentStore::default();
        let mut reference: FxHashMap<(u32, usize, u32, u32), (Radians, Rgba)> =
            FxHashMap::default();
        for round in 0..2 {
            for step in 0..20_000u32 {
                let tex = (rng.next_u64() % 3) as u32;
                let level = (rng.next_u64() % 4) as usize;
                let (w, h) = dims(tex, level);
                let x = (rng.next_u64() % u64::from(w)) as u32;
                let y = (rng.next_u64() % u64::from(h)) as u32;
                assert_eq!(
                    store.get(tex, level, x, y),
                    reference.get(&(tex, level, x, y)).copied(),
                    "round {round} step {step}: ({tex}, {level}, {x}, {y})"
                );
                if rng.next_u64().is_multiple_of(2) {
                    let value = (
                        Radians::new(rng.next_f32()),
                        Rgba::new(rng.next_f32(), rng.next_f32(), rng.next_f32(), 1.0),
                    );
                    store.insert(tex, level, (w, h), x, y, value);
                    reference.insert((tex, level, x, y), value);
                }
            }
            // Every key the reference holds reads back identically.
            for (&(tex, level, x, y), &v) in &reference {
                assert_eq!(store.get(tex, level, x, y), Some(v));
            }
            store.reset();
            reference.clear();
            for tex in 0..3 {
                assert_eq!(store.get(tex, 0, 0, 0), None, "reset drops texture {tex}");
            }
        }
    }

    #[test]
    fn lookups_outside_a_level_miss() {
        let mut store = ParentStore::default();
        let v = (Radians::new(0.5), Rgba::new(0.1, 0.2, 0.3, 1.0));
        store.insert(2, 1, (9, 3), 8, 2, v);
        assert_eq!(store.get(2, 1, 8, 2), Some(v));
        assert_eq!(store.get(2, 1, 9, 2), None);
        assert_eq!(store.get(2, 1, 8, 3), None);
        assert_eq!(store.get(2, 0, 8, 2), None);
        assert_eq!(store.get(1, 1, 8, 2), None);
        assert_eq!(store.get(7, 1, 8, 2), None);
    }
}
