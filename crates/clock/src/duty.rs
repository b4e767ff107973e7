//! Duty-cycle distortion along the forwarding chain (Sec. IV).
//!
//! Every tile the clock traverses adds a little duty-cycle distortion —
//! pull-up/pull-down imbalance in buffers, the forwarding mux, and the
//! inter-chiplet I/O drivers all widen one phase at the expense of the
//! other. Left uncorrected the distortion accumulates linearly: at 5 % per
//! tile the clock is dead within ten tiles. The paper's two defences, both
//! modelled here:
//!
//! 1. **forward the *inverted* clock**, so the distortion alternates
//!    between the two half-cycles and stays bounded at one tile's worth;
//! 2. **a digital duty-cycle-correction (DCC) unit** that squeezes any
//!    residual distortion back towards 50 %.

use std::fmt;

/// The digital duty-cycle corrector in each tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DccUnit {
    /// Fraction of the incoming distortion that survives correction
    /// (0 = perfect corrector, 1 = no correction).
    residual: f64,
}

impl DccUnit {
    /// Creates a corrector leaving the given residual fraction.
    ///
    /// # Panics
    ///
    /// Panics if `residual` is outside `[0, 1]`.
    pub fn new(residual: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&residual),
            "residual {residual} outside [0, 1]"
        );
        DccUnit { residual }
    }

    /// An all-digital 50 % corrector in the spirit of the cited Wang &
    /// Wang design: ~10 % residual distortion.
    pub fn paper_dcc() -> Self {
        DccUnit::new(0.1)
    }

    /// Residual distortion fraction.
    #[inline]
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Applies the correction to a duty cycle.
    #[inline]
    pub fn correct(&self, duty: f64) -> f64 {
        0.5 + self.residual * (duty - 0.5)
    }
}

/// Model of duty-cycle evolution along a forwarding chain.
///
/// # Examples
///
/// ```
/// use wsp_clock::DutyCycleModel;
///
/// // The paper's cautionary example: 5 % distortion per tile and no
/// // mitigation kills the clock within ten tiles...
/// let naive = DutyCycleModel::new(0.05, false, None);
/// assert_eq!(naive.max_hops(100), Some(9));
///
/// // ...while inverting the forwarded clock keeps it alive indefinitely.
/// let inverting = DutyCycleModel::new(0.05, true, None);
/// assert_eq!(inverting.max_hops(100), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycleModel {
    distortion_per_tile: f64,
    invert_on_forward: bool,
    dcc: Option<DccUnit>,
}

impl DutyCycleModel {
    /// Creates a distortion model.
    ///
    /// `distortion_per_tile` is the signed duty-cycle shift added by one
    /// tile's buffers/mux/IO drivers (e.g. `0.05` = +5 % of a period).
    ///
    /// # Panics
    ///
    /// Panics if `|distortion_per_tile| >= 0.5` (the clock would die inside
    /// a single tile).
    pub fn new(distortion_per_tile: f64, invert_on_forward: bool, dcc: Option<DccUnit>) -> Self {
        assert!(
            distortion_per_tile.abs() < 0.5,
            "per-tile distortion {distortion_per_tile} kills the clock in one hop"
        );
        DutyCycleModel {
            distortion_per_tile,
            invert_on_forward,
            dcc,
        }
    }

    /// The paper's production configuration: 5 % worst-case per-tile
    /// distortion, inverted forwarding, and the DCC enabled.
    pub fn paper_model() -> Self {
        DutyCycleModel::new(0.05, true, Some(DccUnit::paper_dcc()))
    }

    /// Per-tile distortion.
    #[inline]
    pub fn distortion_per_tile(&self) -> f64 {
        self.distortion_per_tile
    }

    /// The DCC unit, if enabled.
    #[inline]
    pub fn dcc(&self) -> Option<DccUnit> {
        self.dcc
    }

    /// Duty cycle observed at each tile of a chain `hops` tiles long,
    /// starting from an ideal 50 % clock at the generator.
    ///
    /// Entry `k` is the duty cycle *as seen by the logic of tile `k+1`* in
    /// the chain (after that tile's optional DCC). A value outside
    /// `(0, 1)` means the clock pulse has collapsed and propagation stops;
    /// the returned trace is truncated at the first dead tile.
    pub fn propagate(&self, hops: u32) -> Vec<f64> {
        let mut trace = Vec::with_capacity(hops as usize);
        // Duty of the signal *driven onto the link* by the previous tile.
        let mut line_duty = 0.5;
        for _ in 0..hops {
            // The link + receiving tile's buffers add distortion.
            let mut duty = line_duty + self.distortion_per_tile;
            if let Some(dcc) = self.dcc {
                duty = dcc.correct(duty);
            }
            const EPS: f64 = 1e-9;
            if duty <= EPS || duty >= 1.0 - EPS {
                trace.push(duty);
                break;
            }
            trace.push(duty);
            // What this tile forwards: the (optionally inverted) clock.
            line_duty = if self.invert_on_forward {
                1.0 - duty
            } else {
                duty
            };
        }
        trace
    }

    /// Number of hops the clock survives, or `None` if it survives the
    /// whole probe length of `probe_hops` (treat as unbounded for bounded
    /// inputs: with inversion or DCC the distortion converges).
    pub fn max_hops(&self, probe_hops: u32) -> Option<u32> {
        let trace = self.propagate(probe_hops);
        const EPS: f64 = 1e-9;
        let died = trace.last().is_some_and(|&d| d <= EPS || d >= 1.0 - EPS);
        if died {
            Some(trace.len() as u32 - 1)
        } else {
            None
        }
    }

    /// Worst deviation from 50 % anywhere along a chain of `hops` tiles.
    pub fn worst_distortion(&self, hops: u32) -> f64 {
        self.propagate(hops)
            .iter()
            .map(|d| (d - 0.5).abs())
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for DutyCycleModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}% per tile, inversion {}, DCC {}",
            self.distortion_per_tile * 100.0,
            if self.invert_on_forward { "on" } else { "off" },
            if self.dcc.is_some() { "on" } else { "off" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_forwarding_dies_in_ten_tiles() {
        // Paper: "a 5% distortion per tile could kill the clock with in
        // just 10 tiles" — duty hits 100 % at hop 10.
        let model = DutyCycleModel::new(0.05, false, None);
        let trace = model.propagate(64);
        assert_eq!(trace.len(), 10);
        assert!((trace[9] - 1.0).abs() < 1e-6);
        assert_eq!(model.max_hops(64), Some(9));
    }

    #[test]
    fn inversion_bounds_distortion_to_one_tile() {
        let model = DutyCycleModel::new(0.05, true, None);
        let trace = model.propagate(1000);
        assert_eq!(trace.len(), 1000);
        // Alternates between 55 % and 50 %: bounded by one tile's worth.
        assert!(model.worst_distortion(1000) <= 0.05 + 1e-12);
        assert_eq!(model.max_hops(1000), None);
        assert!((trace[0] - 0.55).abs() < 1e-12);
        assert!((trace[1] - 0.50).abs() < 1e-12);
    }

    #[test]
    fn dcc_shrinks_residual_distortion() {
        let without = DutyCycleModel::new(0.05, true, None);
        let with = DutyCycleModel::paper_model();
        assert!(with.worst_distortion(100) < without.worst_distortion(100));
        // Residual fixed point for r=0.1, d=0.05: r·d/(1−r·…) ≈ 0.5 %.
        assert!(with.worst_distortion(100) < 0.01);
    }

    #[test]
    fn dcc_alone_also_stabilises() {
        // Even without inversion, a DCC per tile bounds the accumulation:
        // e* = r·d / (1 − r).
        let model = DutyCycleModel::new(0.05, false, Some(DccUnit::new(0.1)));
        assert_eq!(model.max_hops(1000), None);
        let expected = 0.1 * 0.05 / (1.0 - 0.1);
        assert!((model.worst_distortion(1000) - expected).abs() < 1e-3);
    }

    #[test]
    fn negative_distortion_symmetry() {
        let pos = DutyCycleModel::new(0.05, false, None);
        let neg = DutyCycleModel::new(-0.05, false, None);
        assert_eq!(pos.max_hops(64), neg.max_hops(64));
    }

    #[test]
    fn paper_model_survives_full_wafer_diameter() {
        // Worst forwarding chains on the 32×32 wafer are ~62 tiles.
        let model = DutyCycleModel::paper_model();
        assert_eq!(model.max_hops(62), None);
        assert!(model.worst_distortion(62) < 0.01);
    }

    #[test]
    fn dcc_correct_is_affine_towards_half() {
        let dcc = DccUnit::new(0.2);
        assert!((dcc.correct(0.7) - 0.54).abs() < 1e-12);
        assert!((dcc.correct(0.5) - 0.5).abs() < 1e-12);
        assert!((dcc.correct(0.3) - 0.46).abs() < 1e-12);
        assert_eq!(dcc.residual(), 0.2);
    }

    #[test]
    #[should_panic(expected = "kills the clock in one hop")]
    fn absurd_distortion_rejected() {
        let _ = DutyCycleModel::new(0.6, true, None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_dcc_residual_rejected() {
        let _ = DccUnit::new(1.5);
    }

    #[test]
    fn display_summarises_configuration() {
        let s = DutyCycleModel::paper_model().to_string();
        assert!(s.contains("5.0% per tile"));
        assert!(s.contains("inversion on"));
        assert!(s.contains("DCC on"));
    }
}
