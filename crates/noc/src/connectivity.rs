//! Monte-Carlo connectivity analysis of the dual-DoR scheme (Fig. 6).
//!
//! For a given fault map, a source-destination pair is *disconnected* when
//! no usable network offers a fully healthy DoR path between them. A DoR
//! path is one row segment plus one column segment, so the destinations a
//! source reaches in a row form a bit mask over that row: its XY targets
//! are its healthy row run ANDed with every row it crosses, its YX
//! targets the healthy run around its column. Sources of one row run
//! share their XY masks, so the counting kernel walks each row run's
//! masks outward one 64-bit word at a time and popcounts them against
//! the runs of each row. A map costs O(row runs × rows × words per run)
//! word operations instead of one probe per pair: about 40 runs × 32
//! one-word rows for a 32×32 wafer with a few faults, against ~523 000
//! pairs.

use rand::Rng;
use wsp_common::rng::stream_seed;
use wsp_topo::{FaultMap, TileArray, TileCoord};

/// The routing schemes compared in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingScheme {
    /// A single X-Y dimension-ordered network (the conventional baseline).
    SingleXy,
    /// The paper's two independent networks: a pair is connected if either
    /// the X-Y or the Y-X path is healthy.
    DualXyYx,
}

impl std::fmt::Display for RoutingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingScheme::SingleXy => f.write_str("single DoR network"),
            RoutingScheme::DualXyYx => f.write_str("two DoR networks"),
        }
    }
}

/// Prefix-sum oracle answering "is this row/column segment fault-free?"
/// in O(1), for the per-pair network choices of
/// [`crate::kernel::RoutePlanner`].
#[derive(Debug, Clone)]
pub(crate) struct SegmentOracle {
    /// `row_prefix[y][x]` = number of faulty tiles in row `y` at columns `< x`.
    row_prefix: Vec<Vec<u32>>,
    /// `col_prefix[x][y]` = number of faulty tiles in column `x` at rows `< y`.
    col_prefix: Vec<Vec<u32>>,
}

impl SegmentOracle {
    pub(crate) fn new(faults: &FaultMap) -> Self {
        let array = faults.array();
        let cols = usize::from(array.cols());
        let rows = usize::from(array.rows());
        let mut row_prefix = vec![vec![0u32; cols + 1]; rows];
        let mut col_prefix = vec![vec![0u32; rows + 1]; cols];
        for y in 0..rows {
            for x in 0..cols {
                let faulty = faults.is_faulty(TileCoord::new(x as u16, y as u16)) as u32;
                row_prefix[y][x + 1] = row_prefix[y][x] + faulty;
                col_prefix[x][y + 1] = col_prefix[x][y] + faulty;
            }
        }
        SegmentOracle {
            row_prefix,
            col_prefix,
        }
    }

    /// No faults in row `y`, columns `x0..=x1` (order-insensitive)?
    #[inline]
    pub(crate) fn row_clear(&self, y: u16, x0: u16, x1: u16) -> bool {
        let (lo, hi) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let row = &self.row_prefix[usize::from(y)];
        row[usize::from(hi) + 1] - row[usize::from(lo)] == 0
    }

    /// No faults in column `x`, rows `y0..=y1` (order-insensitive)?
    #[inline]
    pub(crate) fn col_clear(&self, x: u16, y0: u16, y1: u16) -> bool {
        let (lo, hi) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        let col = &self.col_prefix[usize::from(x)];
        col[usize::from(hi) + 1] - col[usize::from(lo)] == 0
    }

    /// XY-path health: row segment in the source row, then column segment
    /// in the destination column (endpoints included).
    #[inline]
    pub(crate) fn xy_connected(&self, s: TileCoord, d: TileCoord) -> bool {
        self.row_clear(s.y, s.x, d.x) && self.col_clear(d.x, s.y, d.y)
    }

    /// YX-path health: column segment in the source column, then row
    /// segment in the destination row.
    #[inline]
    pub(crate) fn yx_connected(&self, s: TileCoord, d: TileCoord) -> bool {
        self.col_clear(s.x, s.y, d.y) && self.row_clear(d.y, s.x, d.x)
    }
}

/// The healthy tiles of a fault map as row bit masks: row `y` is `words`
/// consecutive `u64`s, and bit `x % 64` of its word `x / 64` is set when
/// tile `(x, y)` is healthy. Bits past the last column stay clear, so a
/// row wider than 64 columns simply spans several words.
struct HealthyRows {
    cols: usize,
    rows: usize,
    words: usize,
    bits: Vec<u64>,
}

impl HealthyRows {
    fn new(faults: &FaultMap) -> Self {
        let array = faults.array();
        let cols = usize::from(array.cols());
        let rows = usize::from(array.rows());
        let words = cols.div_ceil(64);
        let mut bits = vec![0u64; rows * words];
        for tile in faults.healthy_tiles() {
            let (x, y) = (usize::from(tile.x), usize::from(tile.y));
            bits[y * words + x / 64] |= 1 << (x % 64);
        }
        HealthyRows {
            cols,
            rows,
            words,
            bits,
        }
    }

    /// The words of row `y`.
    #[inline]
    fn row(&self, y: usize) -> &[u64] {
        &self.bits[y * self.words..(y + 1) * self.words]
    }

    #[inline]
    fn is_healthy(&self, x: usize, y: usize) -> bool {
        self.bits[y * self.words + x / 64] >> (x % 64) & 1 != 0
    }

    /// The healthy run `lo..=hi` of its row holding each tile, row-major;
    /// a faulty tile's entry is the empty run `(1, 0)`.
    fn runs(&self) -> Vec<(usize, usize)> {
        let mut runs = vec![(1, 0); self.rows * self.cols];
        for (y, row) in runs.chunks_exact_mut(self.cols).enumerate() {
            let mut x = 0;
            while x < self.cols {
                let lo = x;
                while x < self.cols && self.is_healthy(x, y) {
                    x += 1;
                }
                if x > lo {
                    row[lo..x].fill((lo, x - 1));
                }
                x += 1;
            }
        }
        runs
    }
}

/// The bits of columns `lo..=hi` that fall in word `w` of a row, which
/// must overlap them.
#[inline]
fn span_mask(lo: usize, hi: usize, w: usize) -> u64 {
    let first = w * 64;
    debug_assert!(lo <= hi && lo < first + 64 && hi >= first);
    // Both shifts stay below 64, so a span covering the whole word
    // yields all ones rather than overflowing a `1 << 64`.
    (!0u64 << lo.saturating_sub(first)) & (!0u64 >> (63 - (hi - first).min(63)))
}

/// The first column at or after `from` whose bit is set in `words`, a
/// row's words from the one holding column `base` on.
#[inline]
fn next_set(words: &[u64], base: usize, from: usize) -> Option<usize> {
    let mut w = (from - base) / 64;
    let mut bits = *words.get(w)? & (!0u64 << ((from - base) % 64));
    while bits == 0 {
        w += 1;
        bits = *words.get(w)?;
    }
    Some(base + w * 64 + bits.trailing_zeros() as usize)
}

/// Exact Fig. 6 counts of one fault map over its unordered healthy pairs:
/// `(single, dual, total)`, where `single` pairs lack a round trip on one
/// X-Y network, `dual` pairs lack one on both networks, and `total` is
/// the number of pairs.
///
/// For a healthy source `s = (xs, ys)` and a row `y`, with `R(y, xs)` the
/// healthy run of row `y` containing column `xs` and `V` the AND of the
/// row masks from `ys` to `y`, the destinations with a clear XY path are
/// `R(ys, xs) & V`, and those with a clear YX path are `R(y, xs)` when
/// column `xs` is healthy from `ys` to `y` (none otherwise). XY(d→s)
/// covers the tiles of YX(s→d), so a pair lacks a single-network round
/// trip when `!(XY && YX)` and a dual one when `!XY && !YX`. Both
/// predicates are symmetric in the pair and false for `s = d`, so summing
/// the per-source counts counts each pair exactly twice.
///
/// Every source of one row run `[a, b]` shares `R(ys, xs)` and so `V`,
/// and bit `xs` of `V` is set exactly when column `xs` is healthy from
/// `ys` to `y`. The kernel therefore walks `V` outward from each row run,
/// one word of the run at a time, until it empties. In row `y`, each run
/// `[c, d]` that holds `m` bits of `V` gives those `m` sources `d - c + 1`
/// YX targets, `m` of them also XY targets. A map costs O(row runs × rows
/// × words per run), plus one step per such `[c, d]`.
fn disconnected_counts(faults: &FaultMap) -> (u64, u64, u64) {
    let grid = HealthyRows::new(faults);
    let (cols, rows) = (grid.cols, grid.rows);
    let healthy: u64 = grid.bits.iter().map(|w| u64::from(w.count_ones())).sum();
    let runs = grid.runs();
    let mut v_words = vec![0u64; grid.words];
    let (mut single, mut dual) = (0u64, 0u64);
    for ys in 0..rows {
        let mut xs = 0;
        while xs < cols {
            let (a, b) = runs[ys * cols + xs];
            if a > b {
                xs += 1;
                continue;
            }
            // `v` holds the words `wa..wb` of the run.
            let (wa, wb) = (a / 64, b / 64 + 1);
            let v = &mut v_words[wa..wb];
            // Over the run's sources: XY targets, YX targets, and targets
            // reached both ways.
            let (mut xy, mut yx, mut both) = (0u64, 0u64, 0u64);
            // North from the source row (itself included), then south.
            for (start, step) in [(ys as isize, -1isize), (ys as isize + 1, 1)] {
                for (w, word) in (wa..).zip(v.iter_mut()) {
                    *word = span_mask(a, b, w);
                }
                let mut y = start;
                while (0..rows as isize).contains(&y) {
                    let yu = y as usize;
                    let mut alive = 0u64;
                    for (word, bits) in v.iter_mut().zip(&grid.row(yu)[wa..wb]) {
                        *word &= bits;
                        alive |= *word;
                        xy += u64::from(word.count_ones());
                    }
                    if alive == 0 {
                        break;
                    }
                    let mut from = a;
                    while let Some(x) = next_set(v, wa * 64, from) {
                        let (c, d) = runs[yu * cols + x];
                        let m: u64 = (x / 64..(d / 64 + 1).min(wb))
                            .map(|w| u64::from((v[w - wa] & span_mask(x, d, w)).count_ones()))
                            .sum();
                        yx += m * (d - c + 1) as u64;
                        both += m * m;
                        from = d + 1;
                    }
                    y += step;
                }
            }
            // Each source's XY count is that of the run, shared.
            let width = (b - a + 1) as u64;
            single += width * healthy - both;
            dual += width * (healthy - xy) - (yx - both);
            xs = b + 1;
        }
    }
    debug_assert!(
        single % 2 == 0 && dual % 2 == 0,
        "each unordered pair is counted from both ends"
    );
    let total = healthy * healthy.saturating_sub(1) / 2;
    (single / 2, dual / 2, total)
}

/// `count / total`, or 0 for a map with fewer than two healthy tiles.
fn fraction(count: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        count as f64 / total as f64
    }
}

/// Fraction of healthy-tile pairs that cannot complete a request/response
/// round trip under the given scheme.
///
/// The semantics follow Sec. VI: with a **single** X-Y network, the
/// request rides XY(src→dst) and the response XY(dst→src) — two distinct
/// physical L-paths that must *both* be healthy. With the paper's **two**
/// networks, the response returns on the complementary network along the
/// same tiles as the request, so the pair communicates whenever *either*
/// of its two L-paths survives. Pairs where an endpoint is itself faulty
/// are excluded: the paper measures connectivity among working chiplets.
///
/// # Examples
///
/// ```
/// use wsp_noc::connectivity::{disconnected_fraction, RoutingScheme};
/// use wsp_topo::{FaultMap, TileArray};
///
/// let clean = FaultMap::none(TileArray::new(16, 16));
/// assert_eq!(disconnected_fraction(&clean, RoutingScheme::SingleXy), 0.0);
/// ```
pub fn disconnected_fraction(faults: &FaultMap, scheme: RoutingScheme) -> f64 {
    let (single, dual, total) = disconnected_counts(faults);
    match scheme {
        RoutingScheme::SingleXy => fraction(single, total),
        RoutingScheme::DualXyYx => fraction(dual, total),
    }
}

/// One point of the Fig. 6 sweep: average disconnection at a fault count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectivityPoint {
    /// Number of faulty chiplets injected.
    pub faulty_chiplets: usize,
    /// Mean disconnected-pair fraction with a single X-Y network.
    pub single_network: f64,
    /// Mean disconnected-pair fraction with the dual X-Y / Y-X networks.
    pub dual_network: f64,
}

/// The Fig. 6 Monte-Carlo sweep over random fault maps.
///
/// # Examples
///
/// ```
/// use wsp_noc::ConnectivitySweep;
/// use wsp_topo::TileArray;
///
/// let sweep = ConnectivitySweep::new(TileArray::new(16, 16), 8);
/// let mut rng = wsp_common::seeded_rng(3);
/// let points = sweep.run(&[0, 2, 4], &mut rng);
/// assert_eq!(points.len(), 3);
/// assert_eq!(points[0].single_network, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectivitySweep {
    array: TileArray,
    trials: usize,
}

impl ConnectivitySweep {
    /// Creates a sweep over `array` averaging `trials` random fault maps
    /// per point.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    pub fn new(array: TileArray, trials: usize) -> Self {
        assert!(trials > 0, "at least one trial required");
        ConnectivitySweep { array, trials }
    }

    /// The paper's setting: the full 32×32 wafer.
    pub fn paper_sweep(trials: usize) -> Self {
        ConnectivitySweep::new(TileArray::new(32, 32), trials)
    }

    /// Number of Monte-Carlo trials per fault count.
    #[inline]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Runs the sweep for each fault count, averaging both schemes over
    /// the same fault maps (paired comparison, as in the paper).
    pub fn run<R: Rng + ?Sized>(
        &self,
        fault_counts: &[usize],
        rng: &mut R,
    ) -> Vec<ConnectivityPoint> {
        fault_counts
            .iter()
            .map(|&count| {
                let mut single = 0.0;
                let mut dual = 0.0;
                for _ in 0..self.trials {
                    let faults = FaultMap::sample_uniform(self.array, count, rng);
                    let (s, d) = both_fractions(&faults);
                    single += s;
                    dual += d;
                }
                ConnectivityPoint {
                    faulty_chiplets: count,
                    single_network: single / self.trials as f64,
                    dual_network: dual / self.trials as f64,
                }
            })
            .collect()
    }

    /// Like [`ConnectivitySweep::run`] but deterministic per `(seed, point)`
    /// so points can be computed independently, in any order.
    pub fn run_point(&self, fault_count: usize, seed: u64) -> ConnectivityPoint {
        let mut single = 0.0;
        let mut dual = 0.0;
        for trial in 0..self.trials {
            let mut rng = wsp_common::seeded_rng(stream_seed(
                seed,
                (fault_count as u64) << 32 | trial as u64,
            ));
            let faults = FaultMap::sample_uniform(self.array, fault_count, &mut rng);
            let (s, d) = both_fractions(&faults);
            single += s;
            dual += d;
        }
        ConnectivityPoint {
            faulty_chiplets: fault_count,
            single_network: single / self.trials as f64,
            dual_network: dual / self.trials as f64,
        }
    }
}

/// Single- and dual-network disconnected fractions of one fault map
/// (round-trip semantics, unordered pairs).
fn both_fractions(faults: &FaultMap) -> (f64, f64) {
    let (single, dual, total) = disconnected_counts(faults);
    (fraction(single, total), fraction(dual, total))
}

/// Whether the healthy tiles of `faults` form one mesh-connected region
/// (and there is at least one of them).
///
/// This is the usability predicate of the kernel layer: store-and-forward
/// relaying can hop along any healthy-tile chain, so a workload routes
/// between every pair of owners exactly when this holds. The serving
/// layer uses the same predicate for slice admission.
pub fn healthy_region_connected(faults: &FaultMap) -> bool {
    let array = faults.array();
    let Some(start) = faults.healthy_tiles().next() else {
        return false;
    };
    let mut seen = vec![false; array.tile_count()];
    seen[array.index_of(start)] = true;
    let mut stack = vec![start];
    let mut reached = 1usize;
    while let Some(tile) = stack.pop() {
        for nb in array.neighbors(tile) {
            let idx = array.index_of(nb);
            if !seen[idx] && faults.is_healthy(nb) {
                seen[idx] = true;
                reached += 1;
                stack.push(nb);
            }
        }
    }
    reached == faults.healthy_count()
}

/// No connected fault map was found within the retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConnectedError {
    /// The array sampled over.
    pub array: TileArray,
    /// Faulty tiles requested per map.
    pub fault_count: usize,
    /// Attempts made before giving up.
    pub budget: usize,
}

impl std::fmt::Display for SampleConnectedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no connected fault map with {} faults on {}x{} within {} attempts",
            self.fault_count,
            self.array.cols(),
            self.array.rows(),
            self.budget
        )
    }
}

impl std::error::Error for SampleConnectedError {}

/// Samples a uniform fault map whose healthy region is connected
/// ([`healthy_region_connected`]), retrying with deterministic sub-seeds
/// up to `budget` attempts.
///
/// Attempt `i` draws from `stream_seed(seed, i)`, so every attempt's map
/// is a pure function of `(array, count, seed, i)`: a retry never
/// perturbs any other draw in the caller (the failure mode of threading
/// one shared RNG stream through a resample loop, where one unlucky map
/// shifted every later sample). Returns the map and the attempt index
/// that produced it (0 = first try).
///
/// # Errors
///
/// [`SampleConnectedError`] when all `budget` attempts produced maps with
/// a split (or empty) healthy region.
///
/// # Examples
///
/// ```
/// use wsp_noc::connectivity::sample_connected_fault_map;
/// use wsp_topo::TileArray;
///
/// let (map, attempt) =
///     sample_connected_fault_map(TileArray::new(8, 8), 4, 7, 32).expect("findable");
/// assert_eq!(map.fault_count(), 4);
/// assert!(attempt < 32);
/// ```
pub fn sample_connected_fault_map(
    array: TileArray,
    count: usize,
    seed: u64,
    budget: usize,
) -> Result<(FaultMap, usize), SampleConnectedError> {
    for attempt in 0..budget {
        let mut rng = wsp_common::seeded_rng(stream_seed(seed, attempt as u64));
        let map = FaultMap::sample_uniform(array, count, &mut rng);
        if healthy_region_connected(&map) {
            return Ok((map, attempt));
        }
    }
    Err(SampleConnectedError {
        array,
        fault_count: count,
        budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{path_is_healthy, NetworkKind};
    use wsp_common::seeded_rng;

    /// Fig. 6 counts by brute force, sharing no code with the counting
    /// kernel or [`SegmentOracle`]: walks the DoR paths of every unordered
    /// healthy pair tile by tile with the Sec. VI definitions, a round trip
    /// on one network needing XY(s→d) and XY(d→s), one on two networks
    /// needing XY(s→d) or YX(s→d). Returns `(single, dual, total)`.
    fn naive_counts(faults: &FaultMap) -> (u64, u64, u64) {
        let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
        let (mut single, mut dual, mut total) = (0, 0, 0);
        for (i, &s) in healthy.iter().enumerate() {
            for &d in &healthy[i + 1..] {
                total += 1;
                let xy = path_is_healthy(faults, s, d, NetworkKind::Xy);
                single += u64::from(!(xy && path_is_healthy(faults, d, s, NetworkKind::Xy)));
                dual += u64::from(!(xy || path_is_healthy(faults, s, d, NetworkKind::Yx)));
            }
        }
        (single, dual, total)
    }

    #[test]
    fn kernel_matches_naive_path_walks() {
        // Exact f64 equality, for rows of one word, rows ending on a word
        // boundary, rows spanning two and three words, and fault counts
        // from a clean map to a fully faulty one. Each map is one that
        // `run_point` draws, so the sweep average is checked as well.
        const SEED: u64 = 5;
        const TRIALS: usize = 2;
        let arrays = [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 2),
            (7, 5),
            (16, 16),
            (32, 32),
            (63, 2),
            (64, 3),
            (65, 3),
            (130, 2),
        ];
        for (cols, rows) in arrays {
            let array = TileArray::new(cols, rows);
            let tiles = array.tile_count();
            let mut counts = vec![
                0,
                1,
                3,
                tiles / 4,
                tiles.saturating_sub(2),
                tiles - 1,
                tiles,
            ];
            counts.retain(|&count| count <= tiles);
            counts.sort_unstable();
            counts.dedup();
            let sweep = ConnectivitySweep::new(array, TRIALS);
            for count in counts {
                let (mut single_sum, mut dual_sum) = (0.0, 0.0);
                for trial in 0..TRIALS {
                    let mut rng =
                        seeded_rng(stream_seed(SEED, (count as u64) << 32 | trial as u64));
                    let faults = FaultMap::sample_uniform(array, count, &mut rng);
                    let (single, dual, total) = naive_counts(&faults);
                    let fraction = |n: u64| {
                        if total == 0 {
                            0.0
                        } else {
                            n as f64 / total as f64
                        }
                    };
                    let label = format!("{cols}x{rows}, {count} faults, trial {trial}");
                    assert_eq!(
                        disconnected_fraction(&faults, RoutingScheme::SingleXy),
                        fraction(single),
                        "single, {label}"
                    );
                    assert_eq!(
                        disconnected_fraction(&faults, RoutingScheme::DualXyYx),
                        fraction(dual),
                        "dual, {label}"
                    );
                    single_sum += fraction(single);
                    dual_sum += fraction(dual);
                }
                let point = sweep.run_point(count, SEED);
                assert_eq!(point.single_network, single_sum / TRIALS as f64);
                assert_eq!(point.dual_network, dual_sum / TRIALS as f64);
            }
        }
    }

    #[test]
    fn clean_wafer_is_fully_connected() {
        let clean = FaultMap::none(TileArray::new(16, 16));
        assert_eq!(disconnected_fraction(&clean, RoutingScheme::SingleXy), 0.0);
        assert_eq!(disconnected_fraction(&clean, RoutingScheme::DualXyYx), 0.0);
    }

    #[test]
    fn oracle_matches_explicit_path_walk() {
        // The O(1) oracle must agree with walking the actual DoR path.
        let array = TileArray::new(12, 12);
        let mut rng = seeded_rng(31);
        for _ in 0..20 {
            let faults = FaultMap::sample_uniform(array, 10, &mut rng);
            let oracle = SegmentOracle::new(&faults);
            for s in array.tiles() {
                for d in [
                    TileCoord::new(0, 0),
                    TileCoord::new(11, 11),
                    TileCoord::new(5, 7),
                    TileCoord::new(s.y % 12, s.x % 12),
                ] {
                    assert_eq!(
                        oracle.xy_connected(s, d),
                        path_is_healthy(&faults, s, d, NetworkKind::Xy),
                        "XY mismatch {s}→{d}"
                    );
                    assert_eq!(
                        oracle.yx_connected(s, d),
                        path_is_healthy(&faults, s, d, NetworkKind::Yx),
                        "YX mismatch {s}→{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn healthy_region_connectivity_predicate() {
        let array = TileArray::new(4, 4);
        // Clean: connected. Fully faulty: not (no healthy tile at all).
        assert!(healthy_region_connected(&FaultMap::none(array)));
        assert!(!healthy_region_connected(&FaultMap::from_faulty(
            array,
            array.tiles()
        )));
        // A faulty middle column splits the region.
        let wall: Vec<TileCoord> = (0..4).map(|y| TileCoord::new(1, y)).collect();
        assert!(!healthy_region_connected(&FaultMap::from_faulty(
            array,
            wall.clone()
        )));
        // ...unless one side of the wall is entirely faulty too.
        let mut one_side = wall;
        one_side.extend((0..4).map(|y| TileCoord::new(0, y)));
        assert!(healthy_region_connected(&FaultMap::from_faulty(
            array, one_side
        )));
    }

    #[test]
    fn connected_sampling_retries_with_deterministic_sub_seeds() {
        // Regression pin for the resample-loop fix: on a 4×4 array with 6
        // faults, seed 2's first draw has a split healthy region, and the
        // bounded deterministic retry finds a connected map on attempt 1.
        let array = TileArray::new(4, 4);
        let first_draw = FaultMap::sample_uniform(
            array,
            6,
            &mut seeded_rng(wsp_common::rng::stream_seed(2, 0)),
        );
        assert!(
            !healthy_region_connected(&first_draw),
            "seed 2 attempt 0 was expected to need a retry:\n{first_draw}"
        );
        let (map, attempt) = sample_connected_fault_map(array, 6, 2, 32).expect("budget suffices");
        assert_eq!(attempt, 1);
        assert_eq!(map.fault_count(), 6);
        assert!(healthy_region_connected(&map));
        // Deterministic: the same call yields the same map and attempt,
        // and the successful attempt is reproducible directly from its
        // sub-seed without replaying the failed draws.
        assert_eq!(
            sample_connected_fault_map(array, 6, 2, 32),
            Ok((map.clone(), attempt))
        );
        let direct = FaultMap::sample_uniform(
            array,
            6,
            &mut seeded_rng(wsp_common::rng::stream_seed(2, attempt as u64)),
        );
        assert_eq!(direct, map);
    }

    #[test]
    fn connected_sampling_reports_exhausted_budget() {
        // 3 faults on a 2×2 mesh leave one healthy tile (connected), but 4
        // of 4 leave none — every attempt fails and the error is loud.
        let array = TileArray::new(2, 2);
        let err = sample_connected_fault_map(array, 4, 9, 5).expect_err("cannot connect");
        assert_eq!(err.budget, 5);
        assert_eq!(err.fault_count, 4);
        assert!(err.to_string().contains("within 5 attempts"));
        let (_, attempt) = sample_connected_fault_map(array, 3, 9, 5).expect("one tile is fine");
        assert_eq!(attempt, 0);
    }

    #[test]
    fn dual_never_worse_than_single() {
        let array = TileArray::new(16, 16);
        let mut rng = seeded_rng(8);
        for faults in (0..10).map(|_| FaultMap::sample_uniform(array, 6, &mut rng)) {
            let s = disconnected_fraction(&faults, RoutingScheme::SingleXy);
            let d = disconnected_fraction(&faults, RoutingScheme::DualXyYx);
            assert!(d <= s, "dual {d} worse than single {s}");
        }
    }

    #[test]
    fn fig6_shape_at_five_faults() {
        // Paper: with 5 faulty chiplets on the 32×32 wafer, a single DoR
        // network disconnects >12 % of pairs; two networks keep it <2 %.
        let sweep = ConnectivitySweep::paper_sweep(30);
        let mut rng = seeded_rng(42);
        let points = sweep.run(&[5], &mut rng);
        let p = points[0];
        assert!(
            p.single_network > 0.12,
            "single-network disconnection {:.3} too low (paper: >12%)",
            p.single_network
        );
        assert!(
            p.dual_network < 0.02,
            "dual-network disconnection {:.3} too high",
            p.dual_network
        );
        assert!(p.single_network / p.dual_network > 5.0);
    }

    #[test]
    fn disconnection_grows_with_fault_count() {
        let sweep = ConnectivitySweep::new(TileArray::new(32, 32), 10);
        let mut rng = seeded_rng(11);
        let points = sweep.run(&[1, 3, 5, 8], &mut rng);
        for w in points.windows(2) {
            assert!(w[1].single_network >= w[0].single_network);
            assert!(w[1].dual_network >= w[0].dual_network);
        }
    }

    #[test]
    fn residual_dual_disconnections_concentrate_on_colinear_pairs() {
        // Sec. VI: "The paths that still get disconnected with two DoR
        // networks mostly connect those pairs of chiplets that are in the
        // same row/column." Colinear pairs share a single physical path on
        // both networks, so their per-pair disconnection *rate* is far
        // higher; and with one fault they are the only residuals, because
        // the XY and YX paths of a non-colinear pair only intersect at the
        // endpoints.
        let array = TileArray::new(32, 32);
        let mut rng = seeded_rng(17);
        let mut colinear_dead = 0u64;
        let mut colinear_total = 0u64;
        let mut other_dead = 0u64;
        let mut other_total = 0u64;
        for _ in 0..10 {
            let faults = FaultMap::sample_uniform(array, 5, &mut rng);
            let oracle = SegmentOracle::new(&faults);
            let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
            for &s in &healthy {
                for &d in &healthy {
                    if s == d {
                        continue;
                    }
                    let dead = !oracle.xy_connected(s, d) && !oracle.yx_connected(s, d);
                    if s.is_colinear_with(d) {
                        colinear_total += 1;
                        colinear_dead += dead as u64;
                    } else {
                        other_total += 1;
                        other_dead += dead as u64;
                    }
                }
            }
        }
        let colinear_rate = colinear_dead as f64 / colinear_total as f64;
        let other_rate = other_dead as f64 / other_total as f64;
        assert!(
            colinear_rate > 3.0 * other_rate,
            "colinear rate {colinear_rate:.4} vs non-colinear rate {other_rate:.4}"
        );
    }

    #[test]
    fn single_fault_residuals_are_exclusively_colinear() {
        // With exactly one interior fault, a non-colinear pair always has
        // one healthy path (the two DoR paths only share the endpoints).
        let array = TileArray::new(16, 16);
        let mut rng = seeded_rng(29);
        for _ in 0..10 {
            let faults = FaultMap::sample_uniform(array, 1, &mut rng);
            let oracle = SegmentOracle::new(&faults);
            let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
            for &s in &healthy {
                for &d in &healthy {
                    if s == d {
                        continue;
                    }
                    if !oracle.xy_connected(s, d) && !oracle.yx_connected(s, d) {
                        assert!(
                            s.is_colinear_with(d),
                            "non-colinear pair {s}→{d} disconnected by one fault"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn run_point_is_deterministic() {
        let sweep = ConnectivitySweep::new(TileArray::new(16, 16), 5);
        let a = sweep.run_point(4, 99);
        let b = sweep.run_point(4, 99);
        assert_eq!(a, b);
        assert_eq!(a.faulty_chiplets, 4);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_rejected() {
        let _ = ConnectivitySweep::new(TileArray::new(8, 8), 0);
    }

    #[test]
    fn display_names_schemes() {
        assert_eq!(RoutingScheme::SingleXy.to_string(), "single DoR network");
        assert_eq!(RoutingScheme::DualXyYx.to_string(), "two DoR networks");
    }
}
