//! Chiplet-vs-monolithic economics (Sec. I's motivating argument).
//!
//! The paper's case for chiplet assembly over a monolithic waferscale die
//! (Cerebras-style) rests on yield economics: a monolithic wafer must
//! carry redundant cores and links because *every* defect lands on the
//! one product, while pre-tested known-good chiplets discard defects at
//! die granularity before they reach the wafer. This module quantifies
//! that with the standard negative-binomial (clustered-defect) die-yield
//! model and the workspace's bonding model.
//!
//! The paper states the qualitative conclusion ("can provide significant
//! performance and cost benefits"); the numbers here are our calibration,
//! flagged as an extension in `DESIGN.md`.

use std::fmt;

use wsp_common::units::SquareMillimeters;

use crate::bonding::BondingModel;

/// Fabrication defect model (negative binomial).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectModel {
    /// Defect density in defects per cm².
    pub defects_per_cm2: f64,
    /// Clustering parameter α (≈3 for mature logic processes; → ∞
    /// recovers the Poisson model).
    pub clustering_alpha: f64,
}

impl DefectModel {
    /// A mature 40 nm-class process: 0.25 defects/cm², α = 3.
    pub fn mature_40nm() -> Self {
        DefectModel {
            defects_per_cm2: 0.25,
            clustering_alpha: 3.0,
        }
    }

    /// Die yield for the given area (negative binomial):
    /// `y = (1 + A·D₀/α)^(−α)`.
    ///
    /// # Panics
    ///
    /// Panics if the area is non-positive.
    pub fn die_yield(&self, area: SquareMillimeters) -> f64 {
        assert!(area.value() > 0.0, "die area must be positive");
        let a_cm2 = area.value() / 100.0;
        (1.0 + a_cm2 * self.defects_per_cm2 / self.clustering_alpha).powf(-self.clustering_alpha)
    }
}

/// Outcome of comparing the two integration approaches for one system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproachComparison {
    /// Probability a chiplet die is good as fabricated.
    pub chiplet_die_yield: f64,
    /// Expected fraction of fabricated chiplet dies wasted (discarded at
    /// pre-bond test).
    pub chiplet_discard_fraction: f64,
    /// Probability the assembled chiplet wafer has ≤ `tolerated_faults`
    /// faulty tiles.
    pub chiplet_system_yield: f64,
    /// Monolithic yield with **no** redundancy: every one of the tiles
    /// must be defect-free.
    pub monolithic_raw_yield: f64,
    /// Fraction of monolithic area that must be provisioned as redundant
    /// spares to reach the chiplet system yield.
    pub monolithic_redundancy_needed: f64,
}

/// Compares chiplet assembly against a monolithic waferscale die for a
/// system of `tiles` tiles of `tile_area` each.
///
/// `tolerated_faults` is the number of dead tiles the architecture can
/// route around (the whole point of Sec. VI).
///
/// # Examples
///
/// ```
/// use wsp_assembly::{compare_approaches, DefectModel, RedundancyScheme, BondingModel};
/// use wsp_common::units::SquareMillimeters;
///
/// let cmp = compare_approaches(
///     1024,
///     SquareMillimeters(11.0),
///     DefectModel::mature_40nm(),
///     &BondingModel::paper_compute_chiplet(RedundancyScheme::DualPillar),
///     5,
/// );
/// // Monolithic without redundancy is hopeless; chiplets are fine.
/// assert!(cmp.monolithic_raw_yield < 1e-10);
/// assert!(cmp.chiplet_system_yield > 0.99);
/// ```
pub fn compare_approaches(
    tiles: u32,
    tile_area: SquareMillimeters,
    defects: DefectModel,
    bonding: &BondingModel,
    tolerated_faults: u32,
) -> ApproachComparison {
    let die_yield = defects.die_yield(tile_area);

    // Chiplet path: bad dies are discarded pre-bond (wasted silicon but
    // not wasted wafers); the assembled system fails only if bonding
    // kills more tiles than the architecture tolerates.
    let p_tile_fault = 1.0 - bonding.chiplet_yield();
    let system_yield = binomial_at_most(tiles, p_tile_fault, tolerated_faults);

    // Monolithic path: every tile region must be defect-free (no pre-test
    // possible). With redundancy, r spare fraction tolerates r·tiles dead.
    let monolithic_raw = die_yield.powi(tiles as i32);
    let redundancy = monolithic_redundancy_for(tiles, 1.0 - die_yield, system_yield);

    ApproachComparison {
        chiplet_die_yield: die_yield,
        chiplet_discard_fraction: 1.0 - die_yield,
        chiplet_system_yield: system_yield,
        monolithic_raw_yield: monolithic_raw,
        monolithic_redundancy_needed: redundancy,
    }
}

/// P(X ≤ k) for X ~ Binomial(n, p), computed stably in log space.
fn binomial_at_most(n: u32, p: f64, k: u32) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if k >= n { 1.0 } else { 0.0 };
    }
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let mut total = 0.0;
    for i in 0..=k.min(n) {
        let ln_coeff = ln_choose(n, i);
        total += (ln_coeff + f64::from(i) * ln_p + f64::from(n - i) * ln_q).exp();
    }
    total.min(1.0)
}

fn ln_choose(n: u32, k: u32) -> f64 {
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: u32) -> f64 {
    (1..=n).map(|i| f64::from(i).ln()).sum()
}

/// Smallest spare fraction r such that a monolithic die with `n·(1+r)`
/// tile regions, each failing with probability `p_region`, keeps at least
/// `n` working regions with probability ≥ `target`.
fn monolithic_redundancy_for(n: u32, p_region: f64, target: f64) -> f64 {
    for spares in 0..=n {
        let total = n + spares;
        // Works when at most `spares` of the `total` regions are dead.
        if binomial_at_most(total, p_region, spares) >= target {
            return f64::from(spares) / f64::from(n);
        }
    }
    1.0
}

impl fmt::Display for ApproachComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chiplet system yield {:.2}% (discarding {:.0}% of dies pre-bond) vs monolithic raw {:.2e} (needs {:.0}% redundancy)",
            self.chiplet_system_yield * 100.0,
            self.chiplet_discard_fraction * 100.0,
            self.monolithic_raw_yield,
            self.monolithic_redundancy_needed * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RedundancyScheme;

    fn paper_comparison(tolerated: u32) -> ApproachComparison {
        compare_approaches(
            1024,
            SquareMillimeters(11.0),
            DefectModel::mature_40nm(),
            &BondingModel::paper_compute_chiplet(RedundancyScheme::DualPillar),
            tolerated,
        )
    }

    #[test]
    fn die_yield_decreases_with_area() {
        let d = DefectModel::mature_40nm();
        let small = d.die_yield(SquareMillimeters(10.0));
        let large = d.die_yield(SquareMillimeters(100.0));
        assert!(small > large);
        assert!((0.9..1.0).contains(&small));
    }

    #[test]
    fn poisson_limit_of_clustering() {
        // α → ∞ approaches e^{-A·D}.
        let area = SquareMillimeters(50.0);
        let nb = DefectModel {
            defects_per_cm2: 0.5,
            clustering_alpha: 1e9,
        };
        let poisson = (-0.5 * 0.5f64).exp();
        assert!((nb.die_yield(area) - poisson).abs() < 1e-6);
    }

    #[test]
    fn chiplets_beat_monolithic_by_orders_of_magnitude() {
        let cmp = paper_comparison(5);
        // 1024 × 11 mm² monolithic: yield ~ (0.973)^1024 ≈ 10^-13.
        assert!(cmp.monolithic_raw_yield < 1e-10);
        assert!(cmp.chiplet_system_yield > 0.99);
        // The chiplet price: a few percent of dies discarded pre-bond.
        assert!((0.01..0.10).contains(&cmp.chiplet_discard_fraction));
        // The monolithic fix is heavy redundancy.
        assert!(cmp.monolithic_redundancy_needed > 0.02);
    }

    #[test]
    fn fault_tolerance_raises_chiplet_system_yield() {
        let strict = paper_comparison(0);
        let tolerant = paper_comparison(5);
        assert!(tolerant.chiplet_system_yield >= strict.chiplet_system_yield);
    }

    #[test]
    fn binomial_tail_sanity() {
        // X ~ B(10, 0.5): P(X ≤ 5) ≈ 0.623.
        let p = binomial_at_most(10, 0.5, 5);
        assert!((p - 0.6230).abs() < 1e-3, "got {p}");
        assert_eq!(binomial_at_most(10, 0.0, 0), 1.0);
        assert_eq!(binomial_at_most(10, 1.0, 9), 0.0);
        assert_eq!(binomial_at_most(10, 1.0, 10), 1.0);
    }

    #[test]
    fn redundancy_search_is_monotone_in_defect_rate() {
        let low = monolithic_redundancy_for(100, 0.01, 0.99);
        let high = monolithic_redundancy_for(100, 0.05, 0.99);
        assert!(high > low);
    }

    #[test]
    fn display_summarises_comparison() {
        let s = paper_comparison(5).to_string();
        assert!(s.contains("chiplet system yield"));
        assert!(s.contains("redundancy"));
    }

    #[test]
    #[should_panic(expected = "area must be positive")]
    fn zero_area_rejected() {
        let _ = DefectModel::mature_40nm().die_yield(SquareMillimeters(0.0));
    }
}
