//! The halo-exchange kernel machine: every tile reads a strip of its
//! east neighbour's shared memory — the communication shape of a
//! stencil's boundary exchange, and the repo's standard machine-layer
//! scaling workload (benches, property tests, and the traced showcase
//! all build the same machine so their numbers are comparable).

use wsp_tile::isa::{Program, Reg};
use wsp_tile::MemoryModelKind;
use wsp_topo::{FaultMap, TileArray, TileCoord};

use crate::config::{LatencyModel, SystemConfig};
use crate::machine::MultiTileMachine;

/// Words each core reads from its east neighbour.
pub const HALO_WORDS: u32 = 8;

/// Builds an `n`×`n` fabric-model machine with every tile's first two
/// cores running the halo-exchange read loop against their east
/// neighbour (wrapping at the seam). Each core issues [`HALO_WORDS`]
/// remote loads and halts, so most tiles spend most cycles blocked on
/// the network — the workload the active-set scheduler is built for.
///
/// # Panics
///
/// Panics if `n == 0` (an empty array has no tiles to load).
pub fn build_halo_machine(n: u16, threads: usize) -> MultiTileMachine {
    build_halo_machine_with_memory(n, threads, MemoryModelKind::Fixed)
}

/// [`build_halo_machine`] with an explicit memory backend — the
/// machine-layer arm of the memory-fidelity sweep.
pub fn build_halo_machine_with_memory(
    n: u16,
    threads: usize,
    memory: MemoryModelKind,
) -> MultiTileMachine {
    let array = TileArray::new(n, n);
    let cfg = SystemConfig::with_array(array)
        .with_latency_model(LatencyModel::Fabric)
        .with_memory_model(memory);
    let mut m = MultiTileMachine::new(cfg, FaultMap::none(array));
    m.set_threads(threads);
    for y in 0..n {
        for x in 0..n {
            let east = TileCoord::new((x + 1) % n, y);
            for core in 0..2u32 {
                let base = m.global_address(east, core * 64).expect("mapped");
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
                m.load_program(TileCoord::new(x, y), core as usize, &program)
                    .expect("loads");
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_machine_runs_and_sums_the_strip() {
        let mut m = build_halo_machine(2, 1);
        let stats = m.run_until_halt(100_000).expect("halts");
        // 4 tiles × 2 cores × HALO_WORDS remote loads.
        assert_eq!(stats.remote_accesses, 4 * 2 * u64::from(HALO_WORDS));
        assert!(stats.network_stall_cycles > 0);
    }
}
