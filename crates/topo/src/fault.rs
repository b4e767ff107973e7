//! Fault maps: which tiles of the wafer are dead.
//!
//! The paper's whole design philosophy is driven by the expectation that a
//! few of the 2048 chiplets will fail assembly even at 99.998 % per-chiplet
//! bonding yield (Sec. V). After assembly the DfT flow localises the faulty
//! tiles and records them in a *fault map* that the kernel software uses to
//! pick network paths (Sec. VI). [`FaultMap`] is that artifact, plus the
//! random sampling used for the Monte-Carlo studies behind Figs. 4 and 6.

use std::fmt;

use rand::seq::index::sample;
use rand::Rng;

use crate::{TileArray, TileCoord};

/// The set of faulty tiles of a [`TileArray`], stored as a bitset.
///
/// # Examples
///
/// ```
/// use wsp_topo::{FaultMap, TileArray, TileCoord};
///
/// let array = TileArray::new(8, 8);
/// let mut faults = FaultMap::none(array);
/// faults.mark_faulty(TileCoord::new(3, 3));
/// assert_eq!(faults.fault_count(), 1);
/// assert!(faults.is_healthy(TileCoord::new(0, 0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMap {
    array: TileArray,
    bits: Vec<u64>,
}

impl FaultMap {
    /// Creates a fault map with every tile healthy.
    pub fn none(array: TileArray) -> Self {
        let words = array.tile_count().div_ceil(64);
        FaultMap {
            array,
            bits: vec![0; words],
        }
    }

    /// Creates a fault map with the given tiles faulty.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate lies outside `array`.
    pub fn from_faulty<I>(array: TileArray, faulty: I) -> Self
    where
        I: IntoIterator<Item = TileCoord>,
    {
        let mut map = FaultMap::none(array);
        for tile in faulty {
            map.mark_faulty(tile);
        }
        map
    }

    /// Samples a fault map with exactly `count` faulty tiles chosen
    /// uniformly at random without replacement.
    ///
    /// This is the fault model behind Fig. 6 ("a set of randomly generated
    /// fault maps"): assembly failures are independent of position.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the number of tiles.
    pub fn sample_uniform<R: Rng + ?Sized>(array: TileArray, count: usize, rng: &mut R) -> Self {
        assert!(
            count <= array.tile_count(),
            "cannot make {count} of {} tiles faulty",
            array.tile_count()
        );
        let mut map = FaultMap::none(array);
        for idx in sample(rng, array.tile_count(), count) {
            map.set_index(idx);
        }
        map
    }

    /// The tile array this map covers.
    #[inline]
    pub fn array(&self) -> TileArray {
        self.array
    }

    /// Marks `tile` faulty. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the array.
    pub fn mark_faulty(&mut self, tile: TileCoord) {
        let idx = self.array.index_of(tile);
        self.set_index(idx);
    }

    /// Returns `true` when `tile` is faulty.
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the array.
    #[inline]
    pub fn is_faulty(&self, tile: TileCoord) -> bool {
        let idx = self.array.index_of(tile);
        self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Returns `true` when `tile` is healthy.
    ///
    /// # Panics
    ///
    /// Panics if `tile` lies outside the array.
    #[inline]
    pub fn is_healthy(&self, tile: TileCoord) -> bool {
        !self.is_faulty(tile)
    }

    /// Number of faulty tiles.
    pub fn fault_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of healthy tiles.
    pub fn healthy_count(&self) -> usize {
        self.array.tile_count() - self.fault_count()
    }

    /// Iterates over the faulty tiles in row-major order.
    pub fn faulty_tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        self.array.tiles().filter(move |&t| self.is_faulty(t))
    }

    /// Iterates over the healthy tiles in row-major order.
    pub fn healthy_tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        self.array.tiles().filter(move |&t| self.is_healthy(t))
    }

    /// Returns `true` when every in-bounds neighbour of `tile` is faulty.
    ///
    /// Such a tile is unusable even if internally healthy: no clock can be
    /// forwarded to it and no network path can reach it (the yellow tile of
    /// Fig. 4).
    pub fn is_isolated(&self, tile: TileCoord) -> bool {
        self.array.neighbors(tile).all(|n| self.is_faulty(n))
    }

    /// Merges another fault map into this one (union of faults).
    ///
    /// # Panics
    ///
    /// Panics if the two maps cover different arrays.
    pub fn union_with(&mut self, other: &FaultMap) {
        assert_eq!(
            self.array, other.array,
            "cannot union fault maps over different arrays"
        );
        for (w, o) in self.bits.iter_mut().zip(&other.bits) {
            *w |= o;
        }
    }

    #[inline]
    fn set_index(&mut self, idx: usize) {
        self.bits[idx / 64] |= 1u64 << (idx % 64);
    }
}

impl fmt::Display for FaultMap {
    /// Renders the map as an ASCII grid: `.` healthy, `X` faulty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for y in 0..self.array.rows() {
            for x in 0..self.array.cols() {
                let c = if self.is_faulty(TileCoord::new(x, y)) {
                    'X'
                } else {
                    '.'
                };
                write!(f, "{c}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::seeded_rng;

    fn array8() -> TileArray {
        TileArray::new(8, 8)
    }

    #[test]
    fn empty_map_is_all_healthy() {
        let map = FaultMap::none(array8());
        assert_eq!(map.fault_count(), 0);
        assert_eq!(map.healthy_count(), 64);
        assert!(map.array().tiles().all(|t| map.is_healthy(t)));
    }

    #[test]
    fn from_faulty_collects() {
        let faults = [TileCoord::new(0, 0), TileCoord::new(7, 7)];
        let mut map = FaultMap::from_faulty(array8(), faults);
        assert_eq!(map.faulty_tiles().collect::<Vec<_>>(), faults);
        // Marking a tile is idempotent.
        map.mark_faulty(TileCoord::new(4, 4));
        map.mark_faulty(TileCoord::new(4, 4));
        assert!(map.is_faulty(TileCoord::new(4, 4)));
        assert_eq!(map.fault_count(), 3);
    }

    #[test]
    fn sample_uniform_has_exact_count() {
        let mut rng = seeded_rng(3);
        for count in [0, 1, 5, 64] {
            let map = FaultMap::sample_uniform(array8(), count, &mut rng);
            assert_eq!(map.fault_count(), count);
        }
    }

    #[test]
    fn sample_uniform_is_deterministic_per_seed() {
        let a = FaultMap::sample_uniform(array8(), 6, &mut seeded_rng(11));
        let b = FaultMap::sample_uniform(array8(), 6, &mut seeded_rng(11));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cannot make")]
    fn sample_uniform_rejects_overflow() {
        let _ = FaultMap::sample_uniform(array8(), 65, &mut seeded_rng(0));
    }

    #[test]
    fn isolation_detection() {
        let array = array8();
        let centre = TileCoord::new(3, 3);
        let ring: Vec<TileCoord> = array.neighbors(centre).collect();
        let map = FaultMap::from_faulty(array, ring);
        assert!(map.is_isolated(centre));
        assert!(!map.is_isolated(TileCoord::new(0, 0)));
    }

    #[test]
    fn union_merges_faults() {
        let mut a = FaultMap::from_faulty(array8(), [TileCoord::new(1, 1)]);
        let b = FaultMap::from_faulty(array8(), [TileCoord::new(2, 2)]);
        a.union_with(&b);
        assert_eq!(a.fault_count(), 2);
        assert!(a.is_faulty(TileCoord::new(1, 1)));
        assert!(a.is_faulty(TileCoord::new(2, 2)));
    }

    #[test]
    fn display_draws_grid() {
        let map = FaultMap::from_faulty(TileArray::new(3, 2), [TileCoord::new(1, 0)]);
        assert_eq!(map.to_string(), ".X.\n...\n");
    }
}
