//! The halo-exchange kernel machine: every tile reads a strip of its
//! east neighbour's shared memory — the communication shape of a
//! stencil's boundary exchange, and the repo's standard machine-layer
//! scaling workload. The benches, the property tests, the traced
//! showcase and the serving layer's halo jobs all build the same
//! machine through [`build_halo_machine`], so their numbers are
//! comparable.

use wsp_noc::{NetworkChoice, RoutePlanner};
use wsp_tile::isa::{Program, Reg};
use wsp_tile::MemoryModelKind;
use wsp_topo::{FaultMap, TileCoord};

use crate::config::SystemConfig;
use crate::machine::MultiTileMachine;

/// Words each core reads from its east neighbour.
pub const HALO_WORDS: u32 = 8;

/// Builds the halo-exchange machine over `faults`' array with the given
/// memory backend: every healthy tile's first two cores stream
/// [`HALO_WORDS`] words from the nearest *machine-reachable* healthy
/// tile eastwards (wrapping around the row; a tile with no reachable
/// peer in its row reads itself) and halt. Most tiles spend most cycles
/// blocked on the network — the workload the active-set scheduler is
/// built for. On a fault-free array the peer is simply `(x + 1) % cols`.
/// The machine steps with the default [`Stepping`]; callers that want
/// another set it on the returned machine.
///
/// Reachability is the machine's own: the kernel route planner's dual
/// DoR networks plus a single relay. That is *stricter* than the
/// connected-healthy-region predicate the scheduler admits slices by —
/// a fault maze can leave two healthy tiles connected only through
/// multiple intermediates, which the analytic kernels price as
/// store-and-forward but the ISA machine cannot route. Skipping such
/// pairs (rather than faulting the core) keeps every admitted slice
/// able to serve halo jobs.
///
/// [`Stepping`]: wsp_common::stepping::Stepping
pub fn build_halo_machine(faults: &FaultMap, memory: MemoryModelKind) -> MultiTileMachine {
    let array = faults.array();
    let cfg = SystemConfig::with_array(array).with_memory_model(memory);
    let planner = RoutePlanner::new(faults.clone());
    let mut m = MultiTileMachine::new(cfg, faults.clone());
    for t in faults.healthy_tiles() {
        let east = (1..=array.cols())
            .map(|dx| TileCoord::new((t.x + dx) % array.cols(), t.y))
            .find(|&e| faults.is_healthy(e) && planner.choose(t, e) != NetworkChoice::Disconnected)
            .unwrap_or(t);
        for core in 0..2u32 {
            let base = m.global_address(east, core * 64).expect("healthy target");
            let program = Program::builder()
                .ldi(Reg::R1, base)
                .ldi(Reg::R5, 0)
                .ldi(Reg::R3, HALO_WORDS)
                .ldi(Reg::R0, 0)
                .label("halo")
                .ld(Reg::R2, Reg::R1, 0)
                .add(Reg::R5, Reg::R5, Reg::R2)
                .addi(Reg::R1, Reg::R1, 4)
                .addi(Reg::R3, Reg::R3, -1)
                .bne(Reg::R3, Reg::R0, "halo")
                .halt()
                .build()
                .expect("builds");
            m.load_program(t, core as usize, &program)
                .expect("healthy tile");
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_topo::TileArray;

    #[test]
    fn halo_machine_runs_and_sums_the_strip() {
        let faults = FaultMap::none(TileArray::new(2, 2));
        let mut m = build_halo_machine(&faults, MemoryModelKind::Fixed);
        let stats = m.run_until_halt(100_000).expect("halts");
        // 4 tiles × 2 cores × HALO_WORDS remote loads.
        assert_eq!(stats.remote_accesses, 4 * 2 * u64::from(HALO_WORDS));
        assert!(stats.network_stall_cycles > 0);
    }
}
