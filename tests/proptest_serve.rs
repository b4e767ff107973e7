//! Property tests for the serving layer's slice confinement: a job
//! placed on slice A must never inject or deliver a packet whose path
//! leaves A's rectangle — across `{dense, wheel}` stepping,
//! random wafer fault maps, and every slice of the partition.
//!
//! Confinement holds by construction (a slice machine is built over the
//! slice's own local array, so there is no wider fabric to escape into);
//! these properties pin the construction: the restricted fault map is
//! exactly the wafer map's window, every fabric link that ever carried a
//! packet maps back into the slice rectangle in wafer coordinates, no
//! boundary-crossing link carries traffic, and machine outcomes are
//! bit-identical across stepping modes.

use proptest::prelude::*;
use wsp_common::seeded_rng;
use wsp_common::stepping::Stepping;
use wsp_noc::NetworkKind;
use wsp_sched::{build_halo_slice_machine, partition, restrict_faults, slice_usable};
use wsp_tile::MemoryModelKind;
use wsp_topo::{Direction, FaultMap, TileArray, TileCoord, DIRECTIONS};

/// Wafer shapes the properties range over: square, wide, tall.
const WAFERS: [(u16, u16); 3] = [(8, 8), (12, 4), (6, 9)];

/// Slice extents (must divide or underfill the wafers above).
const SLICES: [(u16, u16); 3] = [(4, 4), (3, 3), (2, 4)];

const STEPPINGS: [Stepping; 2] = [Stepping::Dense, Stepping::Wheel];

proptest! {
    /// The slice-local fault map is the wafer map's window: equal tile
    /// by tile under the coordinate mapping, with nothing else mixed in.
    #[test]
    fn restriction_is_the_wafer_window(
        seed in any::<u64>(),
        wafer_idx in 0usize..WAFERS.len(),
        slice_idx in 0usize..SLICES.len(),
        faults in 0usize..10,
    ) {
        let (cols, rows) = WAFERS[wafer_idx];
        let wafer = TileArray::new(cols, rows);
        let map = FaultMap::sample_uniform(wafer, faults, &mut seeded_rng(seed));
        let (sw, sh) = SLICES[slice_idx];
        for slice in partition(wafer, sw, sh) {
            let local = restrict_faults(&map, slice.rect);
            prop_assert_eq!(local.array(), TileArray::new(sw, sh));
            for t in local.array().tiles() {
                prop_assert_eq!(
                    local.is_faulty(t),
                    map.is_faulty(slice.rect.to_wafer(t)),
                    "tile {} of slice {}", t, slice.rect
                );
            }
            // Fault counts agree with the wafer window.
            let in_window = map
                .faulty_tiles()
                .filter(|&t| slice.rect.contains(t))
                .count();
            prop_assert_eq!(local.fault_count(), in_window);
        }
    }

    /// Running a machine-level halo job on a usable slice keeps all
    /// fabric traffic inside the slice rectangle (in wafer coordinates),
    /// never forwards a packet across the slice boundary, and produces
    /// bit-identical stats and link heat maps in every stepping mode.
    #[test]
    fn halo_job_traffic_never_leaves_the_slice(
        seed in any::<u64>(),
        wafer_idx in 0usize..WAFERS.len(),
        slice_idx in 0usize..SLICES.len(),
        faults in 0usize..8,
    ) {
        let (cols, rows) = WAFERS[wafer_idx];
        let wafer = TileArray::new(cols, rows);
        let map = FaultMap::sample_uniform(wafer, faults, &mut seeded_rng(seed));
        let (sw, sh) = SLICES[slice_idx];
        for slice in partition(wafer, sw, sh) {
            if !slice_usable(&map, slice.rect) {
                continue;
            }
            let local = restrict_faults(&map, slice.rect);
            let mut reference: Option<(waferscale::MachineStats, Vec<u64>)> = None;
            for stepping in STEPPINGS {
                let mut m = build_halo_slice_machine(&local, stepping, MemoryModelKind::Fixed);
                let stats = m.run_until_halt(2_000_000).expect("halo job halts");
                let array = local.array();
                let mut heat = Vec::new();
                for network in [NetworkKind::Xy, NetworkKind::Yx] {
                    for t in array.tiles() {
                        for dir in DIRECTIONS {
                            let link = m.fabric().link_stats(network, t, dir);
                            heat.push(link.forwarded);
                            if link.forwarded == 0 && link.peak_occupancy == 0 {
                                continue;
                            }
                            // The source endpoint sits inside the slice...
                            let wafer_tile = slice.rect.to_wafer(t);
                            prop_assert!(
                                slice.rect.contains(wafer_tile),
                                "traffic at {} outside slice {}", wafer_tile, slice.rect
                            );
                            // ...and the link's far endpoint does too: a
                            // link pointing off the slice edge must never
                            // carry a packet.
                            let (dx, dy) = dir.offset();
                            let nx = i32::from(wafer_tile.x) + dx;
                            let ny = i32::from(wafer_tile.y) + dy;
                            prop_assert!(
                                nx >= 0 && ny >= 0,
                                "packet forwarded off the wafer from {wafer_tile}"
                            );
                            let neighbor = TileCoord::new(nx as u16, ny as u16);
                            prop_assert!(
                                slice.rect.contains(neighbor),
                                "packet crossed the slice boundary {} -> {} ({:?})",
                                wafer_tile, neighbor, dir
                            );
                        }
                    }
                }
                match &reference {
                    None => reference = Some((stats, heat)),
                    Some((want_stats, want_heat)) => {
                        prop_assert_eq!(want_stats, &stats, "{:?} stats diverged", stepping);
                        prop_assert_eq!(want_heat, &heat, "{:?} heat map diverged", stepping);
                    }
                }
            }
        }
    }

    /// Analytic kernel jobs are equally confined: the system a job runs
    /// on covers exactly the slice's local array, so its route planner
    /// cannot name a tile outside the rectangle. (The machine-level case
    /// above checks real packets; this pins the system-level workloads.)
    #[test]
    fn kernel_job_system_covers_only_the_slice(
        seed in any::<u64>(),
        wafer_idx in 0usize..WAFERS.len(),
        slice_idx in 0usize..SLICES.len(),
        faults in 0usize..8,
    ) {
        use waferscale::workload::{run_bfs, Graph, GraphKind};
        use waferscale::{SystemConfig, WaferscaleSystem};

        let (cols, rows) = WAFERS[wafer_idx];
        let wafer = TileArray::new(cols, rows);
        let map = FaultMap::sample_uniform(wafer, faults, &mut seeded_rng(seed));
        let (sw, sh) = SLICES[slice_idx];
        for slice in partition(wafer, sw, sh) {
            if !slice_usable(&map, slice.rect) {
                continue;
            }
            let local = restrict_faults(&map, slice.rect);
            let cfg = SystemConfig::with_array(local.array());
            let system = WaferscaleSystem::with_faults(cfg, local.clone());
            prop_assert_eq!(system.config().array(), TileArray::new(sw, sh));
            let g = Graph::generate(
                GraphKind::UniformRandom { avg_degree: 4 },
                64,
                &mut seeded_rng(seed ^ 1),
            );
            let (dist, _report) = run_bfs(&system, &g, 0).expect("usable slice routes");
            prop_assert_eq!(dist, g.reference_bfs(0));
        }
    }
}

/// Non-property pin: `Direction::offset` and `SliceRect::contains`
/// together classify every boundary link of a 4×4 slice at wafer origin
/// (4,4) as outside — the exact predicate the traffic property leans on.
#[test]
fn boundary_links_are_classified_outside() {
    let rect = wsp_sched::SliceRect::new(4, 4, 4, 4);
    for t in [TileCoord::new(4, 4), TileCoord::new(7, 7)] {
        assert!(rect.contains(t));
        for dir in DIRECTIONS {
            let (dx, dy) = dir.offset();
            let nx = i32::from(t.x) + dx;
            let ny = i32::from(t.y) + dy;
            let neighbor = TileCoord::new(nx as u16, ny as u16);
            let inside = rect.contains(neighbor);
            // Corner tiles have exactly two in-slice neighbours.
            if t == TileCoord::new(4, 4) {
                assert_eq!(inside, matches!(dir, Direction::South | Direction::East));
            } else {
                assert_eq!(inside, matches!(dir, Direction::North | Direction::West));
            }
        }
    }
}
