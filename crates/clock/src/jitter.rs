//! Jitter accumulation along the forwarding chain (Sec. IV).
//!
//! Two jitter constraints appear in the paper: the system crystal must
//! keep *absolute* jitter under ~100 ps (one reason a passive waferscale
//! CDN is hopeless), and the forwarded clock accrues random jitter at
//! every tile's buffers and I/O drivers. Footnote 3 explains why the
//! *phase* component is harmless — inter-chiplet communication crosses
//! through asynchronous FIFOs — but cycle-to-cycle jitter still erodes
//! each tile's internal timing margin, so the accumulation must stay
//! within the synchronous-domain budget.
//!
//! Uncorrelated per-hop jitter adds in power: after `N` hops the RMS is
//! `√N ×` the per-hop RMS (a random walk), not `N ×`.

use wsp_common::units::{Hertz, Seconds};

/// Random-jitter accumulation model for the forwarded clock.
///
/// # Examples
///
/// ```
/// use wsp_clock::JitterModel;
///
/// let model = JitterModel::paper_model();
/// // The paper's worst chain (~62 hops) stays within the 300 MHz budget.
/// assert!(model.max_hops_within_budget() >= 62);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    per_hop_rms: Seconds,
    /// Peak-estimation multiplier (jitter is ~Gaussian; 3σ ≈ 99.7 %).
    sigma_factor: f64,
    /// Fraction of the clock period available to absorb jitter after
    /// logic depth and setup margins.
    period_budget_fraction: f64,
    /// Nominal clock.
    frequency: Hertz,
}

impl JitterModel {
    /// Absolute jitter bound the off-wafer crystal must meet (Sec. IV:
    /// "ensuring absolute jitter performance of sub-100 pico-seconds").
    pub const CRYSTAL_ABSOLUTE_LIMIT: Seconds = Seconds(100e-12);

    /// Calibrated model: ~5 ps RMS added per forwarding hop (buffers, mux
    /// and two I/O drivers), 3σ peak estimate, 10 % of the 300 MHz period
    /// budgeted for accumulated jitter.
    pub fn paper_model() -> Self {
        JitterModel {
            per_hop_rms: Seconds(5e-12),
            sigma_factor: 3.0,
            period_budget_fraction: 0.10,
            frequency: Hertz::from_megahertz(300.0),
        }
    }

    /// Creates a custom model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or the budget fraction is
    /// not in `(0, 1)`.
    pub fn new(
        per_hop_rms: Seconds,
        sigma_factor: f64,
        period_budget_fraction: f64,
        frequency: Hertz,
    ) -> Self {
        assert!(per_hop_rms.value() > 0.0, "per-hop jitter must be positive");
        assert!(sigma_factor > 0.0, "sigma factor must be positive");
        assert!(
            (0.0..1.0).contains(&period_budget_fraction) && period_budget_fraction > 0.0,
            "budget fraction must be in (0, 1)"
        );
        assert!(frequency.value() > 0.0, "frequency must be positive");
        JitterModel {
            per_hop_rms,
            sigma_factor,
            period_budget_fraction,
            frequency,
        }
    }

    /// Per-hop RMS jitter.
    #[inline]
    pub fn per_hop_rms(&self) -> Seconds {
        self.per_hop_rms
    }

    /// Accumulated RMS jitter after `hops` forwarding hops (`√N` law).
    pub fn accumulated_rms(&self, hops: u32) -> Seconds {
        self.per_hop_rms * f64::from(hops).sqrt()
    }

    /// Peak (σ-factor) jitter estimate after `hops`.
    pub fn peak(&self, hops: u32) -> Seconds {
        self.accumulated_rms(hops) * self.sigma_factor
    }

    /// The jitter budget: the fraction of one period reserved for it.
    pub fn budget(&self) -> Seconds {
        self.frequency.period() * self.period_budget_fraction
    }

    /// Whether a chain of `hops` stays inside the budget.
    pub fn within_budget(&self, hops: u32) -> bool {
        self.peak(hops).value() <= self.budget().value()
    }

    /// Longest chain that stays inside the budget.
    pub fn max_hops_within_budget(&self) -> u32 {
        let per_hop = self.per_hop_rms.value() * self.sigma_factor;
        let ratio = self.budget().value() / per_hop;
        (ratio * ratio).floor() as u32
    }

    /// Whether a crystal with the given absolute jitter can source the
    /// system clock.
    pub fn crystal_acceptable(absolute_jitter: Seconds) -> bool {
        absolute_jitter.value() <= Self::CRYSTAL_ABSOLUTE_LIMIT.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_follows_sqrt_law() {
        let model = JitterModel::paper_model();
        let one = model.accumulated_rms(1).value();
        let four = model.accumulated_rms(4).value();
        let sixteen = model.accumulated_rms(16).value();
        assert!((four / one - 2.0).abs() < 1e-9);
        assert!((sixteen / four - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_chain_is_within_budget() {
        let model = JitterModel::paper_model();
        // Worst chain on 32×32 is ~62 hops: 3σ√62·5 ps ≈ 118 ps against a
        // 333 ps budget (10 % of 3.33 ns).
        assert!(model.within_budget(62));
        let peak = model.peak(62);
        assert!((100e-12..150e-12).contains(&peak.value()), "peak {peak:?}");
    }

    #[test]
    fn budget_limits_chain_length() {
        let model = JitterModel::paper_model();
        let max = model.max_hops_within_budget();
        assert!(model.within_budget(max));
        assert!(!model.within_budget(max + 1));
        // Far beyond the wafer's needs, but not unbounded.
        assert!(max > 62);
        assert!(max < 100_000);
    }

    #[test]
    fn noisier_hops_shorten_the_chain() {
        let clean = JitterModel::paper_model();
        let noisy = JitterModel::new(Seconds(20e-12), 3.0, 0.10, Hertz::from_megahertz(300.0));
        assert!(noisy.max_hops_within_budget() < clean.max_hops_within_budget());
    }

    #[test]
    fn faster_clock_tightens_the_budget() {
        let slow = JitterModel::paper_model();
        let fast = JitterModel::new(Seconds(5e-12), 3.0, 0.10, Hertz::from_megahertz(600.0));
        assert!(fast.budget().value() < slow.budget().value());
        assert!(fast.max_hops_within_budget() < slow.max_hops_within_budget());
    }

    #[test]
    fn crystal_limit_matches_the_paper() {
        assert!(JitterModel::crystal_acceptable(Seconds(80e-12)));
        assert!(!JitterModel::crystal_acceptable(Seconds(150e-12)));
    }

    #[test]
    #[should_panic(expected = "budget fraction")]
    fn invalid_budget_rejected() {
        let _ = JitterModel::new(Seconds(5e-12), 3.0, 1.5, Hertz(3e8));
    }
}
