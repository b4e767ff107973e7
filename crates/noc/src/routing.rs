//! Dimension-ordered routing on the waferscale mesh.
//!
//! Both networks use deterministic dimension-ordered routing (DoR) to stay
//! deadlock-free: the X-Y network exhausts horizontal hops before turning,
//! the Y-X network the opposite. A packet's path is therefore a function of
//! its endpoints only, which is what makes the O(1) prefix-sum connectivity
//! analysis in [`crate::connectivity`] possible.

use std::fmt;

use wsp_topo::{FaultMap, TileCoord};

/// Which of the two independent mesh networks a packet rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Dimension-ordered X-then-Y routing.
    Xy,
    /// Dimension-ordered Y-then-X routing.
    Yx,
}

impl NetworkKind {
    /// The complementary network — responses to requests sent on `self`
    /// return on this one so both directions traverse the same tiles
    /// (Fig. 7).
    #[inline]
    pub fn complement(self) -> NetworkKind {
        match self {
            NetworkKind::Xy => NetworkKind::Yx,
            NetworkKind::Yx => NetworkKind::Xy,
        }
    }
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkKind::Xy => f.write_str("X-Y network"),
            NetworkKind::Yx => f.write_str("Y-X network"),
        }
    }
}

/// The dimension-ordered path from `from` to `to` on the given network,
/// including both endpoints.
///
/// # Examples
///
/// ```
/// use wsp_noc::{dor_path, NetworkKind};
/// use wsp_topo::TileCoord;
///
/// let path = dor_path(TileCoord::new(0, 0), TileCoord::new(2, 1), NetworkKind::Xy);
/// assert_eq!(path.len(), 4); // (0,0) → (1,0) → (2,0) → (2,1)
/// ```
pub fn dor_path(from: TileCoord, to: TileCoord, network: NetworkKind) -> Vec<TileCoord> {
    let mut path = Vec::with_capacity(from.manhattan_distance(to) as usize + 1);
    let mut cur = from;
    path.push(cur);
    let step_x = |cur: &mut TileCoord, path: &mut Vec<TileCoord>| {
        while cur.x != to.x {
            cur.x = if to.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(*cur);
        }
    };
    let step_y = |cur: &mut TileCoord, path: &mut Vec<TileCoord>| {
        while cur.y != to.y {
            cur.y = if to.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(*cur);
        }
    };
    match network {
        NetworkKind::Xy => {
            step_x(&mut cur, &mut path);
            step_y(&mut cur, &mut path);
        }
        NetworkKind::Yx => {
            step_y(&mut cur, &mut path);
            step_x(&mut cur, &mut path);
        }
    }
    path
}

/// Whether every tile on the DoR path between two tiles (endpoints
/// included) is healthy, i.e. whether a packet can actually traverse it.
///
/// # Panics
///
/// Panics if either endpoint lies outside the fault map's array.
pub fn path_is_healthy(
    faults: &FaultMap,
    from: TileCoord,
    to: TileCoord,
    network: NetworkKind,
) -> bool {
    dor_path(from, to, network)
        .into_iter()
        .all(|t| faults.is_healthy(t))
}

/// The next hop a router at `at` takes towards `to` on `network`, or
/// `None` when `at == to` (local delivery).
pub fn next_hop(at: TileCoord, to: TileCoord, network: NetworkKind) -> Option<TileCoord> {
    if at == to {
        return None;
    }
    let toward_x = |at: TileCoord| {
        Some(TileCoord::new(
            if to.x > at.x { at.x + 1 } else { at.x - 1 },
            at.y,
        ))
    };
    let toward_y = |at: TileCoord| {
        Some(TileCoord::new(
            at.x,
            if to.y > at.y { at.y + 1 } else { at.y - 1 },
        ))
    };
    match network {
        NetworkKind::Xy => {
            if at.x != to.x {
                toward_x(at)
            } else {
                toward_y(at)
            }
        }
        NetworkKind::Yx => {
            if at.y != to.y {
                toward_y(at)
            } else {
                toward_x(at)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_topo::TileArray;

    #[test]
    fn xy_path_goes_x_first() {
        let path = dor_path(TileCoord::new(1, 1), TileCoord::new(4, 3), NetworkKind::Xy);
        assert_eq!(
            path,
            vec![
                TileCoord::new(1, 1),
                TileCoord::new(2, 1),
                TileCoord::new(3, 1),
                TileCoord::new(4, 1),
                TileCoord::new(4, 2),
                TileCoord::new(4, 3),
            ]
        );
    }

    #[test]
    fn yx_path_goes_y_first() {
        let path = dor_path(TileCoord::new(1, 1), TileCoord::new(4, 3), NetworkKind::Yx);
        assert_eq!(
            path,
            vec![
                TileCoord::new(1, 1),
                TileCoord::new(1, 2),
                TileCoord::new(1, 3),
                TileCoord::new(2, 3),
                TileCoord::new(3, 3),
                TileCoord::new(4, 3),
            ]
        );
    }

    #[test]
    fn paths_handle_negative_offsets() {
        let path = dor_path(TileCoord::new(4, 3), TileCoord::new(1, 1), NetworkKind::Xy);
        assert_eq!(path.first(), Some(&TileCoord::new(4, 3)));
        assert_eq!(path.last(), Some(&TileCoord::new(1, 1)));
        assert_eq!(path.len(), 6);
    }

    #[test]
    fn degenerate_path_is_single_tile() {
        let t = TileCoord::new(2, 2);
        assert_eq!(dor_path(t, t, NetworkKind::Xy), vec![t]);
        assert_eq!(next_hop(t, t, NetworkKind::Yx), None);
    }

    #[test]
    fn request_and_response_share_the_physical_path() {
        // Fig. 7: request A→B on X-Y, response B→A on Y-X traverse the
        // same set of tiles (in opposite orders).
        let a = TileCoord::new(2, 7);
        let b = TileCoord::new(9, 3);
        let mut request = dor_path(a, b, NetworkKind::Xy);
        let response = dor_path(b, a, NetworkKind::Yx);
        request.reverse();
        assert_eq!(request, response);
    }

    #[test]
    fn colinear_pairs_have_identical_paths_on_both_networks() {
        let a = TileCoord::new(2, 5);
        let b = TileCoord::new(9, 5);
        assert_eq!(
            dor_path(a, b, NetworkKind::Xy),
            dor_path(a, b, NetworkKind::Yx)
        );
    }

    #[test]
    fn next_hop_walks_the_path() {
        for network in [NetworkKind::Xy, NetworkKind::Yx] {
            let from = TileCoord::new(6, 1);
            let to = TileCoord::new(2, 4);
            let path = dor_path(from, to, network);
            let mut cur = from;
            for expected in &path[1..] {
                cur = next_hop(cur, to, network).expect("not at destination");
                assert_eq!(cur, *expected);
            }
            assert_eq!(next_hop(cur, to, network), None);
        }
    }

    #[test]
    fn path_health_respects_faults() {
        let array = TileArray::new(8, 8);
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(7, 7);
        // Fault on the XY path (corner (7,0)? no — XY path goes along row 0
        // then column 7). Block row 0.
        let faults = FaultMap::from_faulty(array, [TileCoord::new(4, 0)]);
        assert!(!path_is_healthy(&faults, a, b, NetworkKind::Xy));
        assert!(path_is_healthy(&faults, a, b, NetworkKind::Yx));
        // Faulty endpoint blocks both.
        let dead_src = FaultMap::from_faulty(array, [a]);
        assert!(!path_is_healthy(&dead_src, a, b, NetworkKind::Xy));
        assert!(!path_is_healthy(&dead_src, a, b, NetworkKind::Yx));
    }

    #[test]
    fn complement_is_involutive() {
        assert_eq!(NetworkKind::Xy.complement(), NetworkKind::Yx);
        assert_eq!(NetworkKind::Yx.complement().complement(), NetworkKind::Yx);
    }

    #[test]
    fn display_names_networks() {
        assert_eq!(NetworkKind::Xy.to_string(), "X-Y network");
        assert_eq!(NetworkKind::Yx.to_string(), "Y-X network");
    }

    #[test]
    fn path_length_is_manhattan_plus_one() {
        let mut rng = wsp_common::seeded_rng(5);
        use rand::RngExt;
        for _ in 0..200 {
            let a = TileCoord::new(rng.random_range(0..32), rng.random_range(0..32));
            let b = TileCoord::new(rng.random_range(0..32), rng.random_range(0..32));
            for network in [NetworkKind::Xy, NetworkKind::Yx] {
                assert_eq!(
                    dor_path(a, b, network).len() as u32,
                    a.manhattan_distance(b) + 1
                );
            }
        }
    }
}
