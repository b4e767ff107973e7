//! Property test for the PDN's red/black SOR ordering: it must converge
//! to the sequential lexicographic sweep's solution within a microvolt.

use proptest::prelude::*;
use wsp_common::units::{Amps, Ohms, Volts};
use wsp_pdn::{LoadModel, PdnConfig};
use wsp_topo::TileArray;

/// A PDN instance over an `n×n` grid with a per-tile current ramp.
fn pdn_config(n: u16, milliamps: f64) -> PdnConfig {
    PdnConfig::new(
        TileArray::new(n, n),
        Volts(2.5),
        Ohms::from_milliohms(2.0),
        Ohms::from_milliohms(1.0),
        LoadModel::ConstantCurrent(Amps(milliamps / 1e3)),
        [true; 4],
    )
}

proptest! {
    /// Red/black SOR converges to the same solution as the sequential
    /// lexicographic sweep within a microvolt per tile.
    #[test]
    fn red_black_pdn_matches_lexicographic_within_a_microvolt(
        n in 2u16..12,
        milliamps in 10.0f64..200.0,
    ) {
        let cfg = pdn_config(n, milliamps);
        let lex = cfg.solve().expect("lexicographic converges");
        let rb = cfg.solve_red_black().expect("red/black converges");

        for ((tile, a), (_, b)) in lex.voltages().zip(rb.voltages()) {
            prop_assert!(
                (a.value() - b.value()).abs() < 1e-6,
                "tile {tile}: lexicographic {} vs red/black {}",
                a.value(),
                b.value()
            );
        }
    }
}
