//! Synthetic-traffic simulation on top of the reusable [`Fabric`] engine
//! (Fig. 7).
//!
//! This layer owns everything endpoint-specific about a latency/throughput
//! study: the [`TrafficPattern`] generators, per-cycle Bernoulli injection,
//! the destination's service delay before a response is generated, and the
//! accumulated [`SimReport`] statistics. All queueing, arbitration, and
//! relay behaviour comes from the shared [`Fabric`] — the same engine the
//! ISA-level machine in `waferscale` routes its remote memory traffic
//! through — so congestion numbers measured here transfer directly to
//! workload execution.

use std::collections::VecDeque;
use std::fmt;

use rand::{Rng, RngExt as _};
use wsp_common::stepping::Stepping;
use wsp_topo::{FaultMap, TileArray, TileCoord};

use crate::fabric::{Fabric, FabricPacket, PacketKind};
use crate::kernel::{NetworkChoice, RoutePlanner};
use crate::routing::NetworkKind;

/// Synthetic traffic patterns for the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficPattern {
    /// Every healthy tile sends to a uniformly random healthy tile.
    UniformRandom,
    /// Tile `(x, y)` sends to `(y, x)` — the classic DoR adversary.
    Transpose,
    /// Tile sends to its east neighbour (wrapping to the row start),
    /// modelling nearest-neighbour stencil exchange.
    NeighborEast,
    /// All tiles send to one hot-spot tile (e.g. a shared-memory home).
    HotSpot {
        /// The congested destination.
        target: TileCoord,
    },
}

impl TrafficPattern {
    /// Destination for a packet injected at `src`, or `None` when the
    /// pattern gives this tile nothing to send (self-addressed, or a
    /// transpose that falls off a non-square array).
    ///
    /// `array` supplies the geometry: `NeighborEast` wraps at the array's
    /// real column count, so a faulty rightmost column narrows the healthy
    /// set without silently changing the pattern.
    fn destination<R: Rng + ?Sized>(
        &self,
        src: TileCoord,
        array: TileArray,
        healthy: &[TileCoord],
        rng: &mut R,
    ) -> Option<TileCoord> {
        let dst = match *self {
            TrafficPattern::UniformRandom => healthy[rng.random_range(0..healthy.len())],
            TrafficPattern::Transpose => {
                let dst = TileCoord::new(src.y, src.x);
                if !array.contains(dst) {
                    // Off a non-square array: nothing to send.
                    return None;
                }
                dst
            }
            TrafficPattern::NeighborEast => TileCoord::new((src.x + 1) % array.cols(), src.y),
            TrafficPattern::HotSpot { target } => target,
        };
        (dst != src).then_some(dst)
    }
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// FIFO depth of each router input queue, in packets.
    pub queue_capacity: usize,
    /// Cycles the destination takes to turn a request into a response.
    pub response_delay: u64,
    /// Per-tile request injection probability per cycle, in `[0, 1]`
    /// (a run panics otherwise).
    pub injection_rate: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            queue_capacity: 4,
            response_delay: 2,
            injection_rate: 0.02,
        }
    }
}

/// The dual-network synthetic-traffic simulator.
///
/// # Examples
///
/// ```
/// use wsp_noc::{NocSim, SimConfig, TrafficPattern};
/// use wsp_topo::{FaultMap, TileArray};
///
/// let mut sim = NocSim::new(FaultMap::none(TileArray::new(8, 8)), SimConfig::default());
/// let mut rng = wsp_common::seeded_rng(1);
/// let report = sim.run(TrafficPattern::UniformRandom, 500, &mut rng);
/// assert!(report.responses_delivered > 0);
/// assert_eq!(report.in_flight_at_end, 0);
/// ```
pub struct NocSim {
    array: TileArray,
    planner: RoutePlanner,
    config: SimConfig,
    fabric: Fabric,
    healthy: Vec<TileCoord>,
    /// Responses waiting out the destination's service delay, as
    /// `(ready cycle, response)`. Each is scheduled at `now +
    /// response_delay` with a constant delay and a monotone clock, so
    /// ready cycles never decrease along the queue: FIFO order is
    /// `(ready, scheduling)` order, and the front's ready cycle is the
    /// deadline wheel stepping jumps an empty fabric to.
    pending_responses: VecDeque<(u64, FabricPacket)>,
    stats: SimReport,
    /// Reusable per-step delivery buffer ([`Fabric::tick_into`] clears
    /// it), so the steady-state step allocates nothing.
    delivered_buf: Vec<FabricPacket>,
    /// Reusable per-cycle injection staging buffer.
    inject_buf: Vec<(TileCoord, TileCoord, NetworkChoice)>,
}

impl NocSim {
    /// Creates a simulator over the given fault map.
    ///
    /// # Panics
    ///
    /// Panics unless `config.queue_capacity` is in `1..=u16::MAX`, as
    /// [`Fabric::new`] does.
    pub fn new(faults: FaultMap, config: SimConfig) -> Self {
        let array = faults.array();
        let healthy = faults.healthy_tiles().collect();
        let planner = RoutePlanner::new(faults);
        NocSim {
            array,
            planner,
            config,
            fabric: Fabric::new(array, config.queue_capacity),
            healthy,
            pending_responses: VecDeque::new(),
            stats: SimReport::default(),
            delivered_buf: Vec::new(),
            inject_buf: Vec::new(),
        }
    }

    /// The underlying fabric engine (per-link statistics live here).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable fabric access, e.g. to install a telemetry sink before a
    /// run with [`Fabric::set_sink`].
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Traversal count of the link leaving `tile` in direction `dir` on
    /// the given network — the congestion heat map.
    pub fn link_utilization(
        &self,
        network: NetworkKind,
        tile: TileCoord,
        dir: wsp_topo::Direction,
    ) -> u64 {
        self.fabric.link_utilization(network, tile, dir)
    }

    /// The most-used link: `(network, tile, direction, traversals)`.
    pub fn hottest_link(&self) -> Option<(NetworkKind, TileCoord, wsp_topo::Direction, u64)> {
        self.fabric.hottest_link()
    }

    /// The route planner derived from the fault map.
    pub fn planner(&self) -> &RoutePlanner {
        &self.planner
    }

    /// Runs `warm` injection cycles of the given pattern, then drains all
    /// in-flight traffic, returning the accumulated statistics.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to drain (a deadlock), which the
    /// dual-DoR design guarantees cannot happen — the panic is the
    /// regression alarm for that property.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        pattern: TrafficPattern,
        warm: u64,
        rng: &mut R,
    ) -> SimReport {
        for _ in 0..warm {
            self.inject(pattern, rng);
            self.step();
        }
        self.drain_in_flight();
        self.finish_report()
    }

    /// Runs `bursts` rounds of `burst_len` injection cycles separated by
    /// `gap` idle cycles, then drains — the synchronisation-phase traffic
    /// shape (compute quietly, exchange in a burst) where event-wheel
    /// stepping pays off: the dense sweep ticks every idle gap cycle,
    /// the wheel jumps them.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to drain (a deadlock), as in
    /// [`NocSim::run`].
    pub fn run_bursts<R: Rng + ?Sized>(
        &mut self,
        pattern: TrafficPattern,
        bursts: u64,
        burst_len: u64,
        gap: u64,
        rng: &mut R,
    ) -> SimReport {
        for _ in 0..bursts {
            for _ in 0..burst_len {
                self.inject(pattern, rng);
                self.step();
            }
            self.advance_idle(gap);
        }
        self.drain_in_flight();
        self.finish_report()
    }

    /// Advances exactly `cycles` cycles with no new injections. In-flight
    /// traffic keeps moving; under [`Stepping::Wheel`] every span of the
    /// window in which the fabric is empty is jumped rather than ticked
    /// ([`NocSim::jump_idle`]) — bit-identical to stepping it.
    fn advance_idle(&mut self, cycles: u64) {
        let end = self.fabric.cycle() + cycles;
        while self.fabric.cycle() < end {
            if !self.jump_idle(end) {
                self.step();
            }
        }
    }

    /// Drains all in-flight traffic: no new injections; everything in
    /// flight must complete.
    fn drain_in_flight(&mut self) {
        let mut idle_cycles = 0u64;
        while self.in_flight() > 0 {
            let before = self.in_flight();
            // Unbounded is safe: with the fabric empty, something in
            // flight is a pending response, whose release bounds the jump.
            self.jump_idle(u64::MAX);
            self.step();
            if self.in_flight() == before {
                idle_cycles += 1;
                assert!(
                    idle_cycles < 10_000,
                    "network failed to drain: deadlock with {} packets in flight",
                    self.in_flight()
                );
            } else {
                idle_cycles = 0;
            }
        }
    }

    /// The simulator's one time jump: under [`Stepping::Wheel`], jumps an
    /// empty fabric to cycle `min(limit, ready - 1)`, where `ready` is the
    /// earliest pending response's release cycle, so the next
    /// [`NocSim::step`] releases it exactly when the dense sweep would.
    /// Returns whether any cycle was jumped.
    fn jump_idle(&mut self, limit: u64) -> bool {
        if self.fabric.stepping() != Stepping::Wheel || self.fabric.in_flight() != 0 {
            return false;
        }
        let horizon = self
            .pending_responses
            .front()
            .map_or(limit, |&(ready, _)| ready.saturating_sub(1).min(limit));
        let gap = horizon.saturating_sub(self.fabric.cycle());
        self.fabric.skip_cycles(gap);
        gap > 0
    }

    /// Snapshots the accumulated statistics plus the fabric's counters.
    fn finish_report(&mut self) -> SimReport {
        let mut report = self.stats.clone();
        report.cycles = self.fabric.cycle();
        report.relay_forwards = self.fabric.relay_forwards();
        report.link_traversals = self.fabric.link_traversals();
        report.total_stall_cycles = self.fabric.total_stall_cycles();
        report.peak_link_occupancy = self.fabric.peak_link_occupancy();
        report.in_flight_at_end = self.in_flight();
        report
    }

    /// Packets currently queued anywhere plus responses pending service.
    pub fn in_flight(&self) -> usize {
        self.fabric.in_flight() + self.pending_responses.len()
    }

    /// Injects one cycle of traffic per the pattern: one Bernoulli trial
    /// per healthy tile, each exactly `rng.random_bool(injection_rate)`
    /// on the same draw.
    ///
    /// # Panics
    ///
    /// Panics if `injection_rate` is outside `[0, 1]`.
    fn inject<R: Rng + ?Sized>(&mut self, pattern: TrafficPattern, rng: &mut R) {
        let threshold = bernoulli_threshold(self.config.injection_rate);
        // Stage injections first to avoid borrowing conflicts; the
        // buffer is owned and reused across cycles.
        let mut to_inject = std::mem::take(&mut self.inject_buf);
        to_inject.clear();
        for &src in &self.healthy {
            if !bernoulli(rng, threshold) {
                continue;
            }
            let Some(dst) = pattern.destination(src, self.array, &self.healthy, rng) else {
                continue;
            };
            let choice = self.planner.choose(src, dst);
            if choice == NetworkChoice::Disconnected {
                self.stats.undeliverable += 1;
                continue;
            }
            to_inject.push((src, dst, choice));
        }
        for &(src, dst, choice) in &to_inject {
            // Ids advance even when the injection is refused, so packet
            // id sequences are stable under backpressure.
            let id = self.fabric.allocate_id();
            let packet = FabricPacket::request(id, src, dst, choice, self.fabric.cycle());
            if self.fabric.inject(packet) {
                self.stats.requests_injected += 1;
            } else {
                self.stats.injection_backpressure += 1;
            }
        }
        self.inject_buf = to_inject;
    }

    /// Advances the simulator one cycle.
    fn step(&mut self) {
        // Release responses whose service delay has elapsed, in
        // scheduling order; they join this cycle's arbitration exactly
        // as in-network packets do.
        let next_cycle = self.fabric.cycle() + 1;
        while let Some(&(ready, packet)) = self.pending_responses.front() {
            if ready > next_cycle {
                break;
            }
            self.pending_responses.pop_front();
            // Local injection queues for responses are allowed to grow —
            // the destination tile buffers them in its local memory.
            self.fabric.inject_unbounded(packet);
        }

        let mut delivered = std::mem::take(&mut self.delivered_buf);
        self.fabric.tick_into(&mut delivered);
        for &packet in &delivered {
            self.handle_delivery(packet);
        }
        self.delivered_buf = delivered;
    }

    /// Handles a packet arriving at its final endpoint.
    fn handle_delivery(&mut self, packet: FabricPacket) {
        let now = self.fabric.cycle();
        match packet.kind {
            PacketKind::Request => {
                self.stats.requests_delivered += 1;
                self.stats.request_latency_total += now - packet.injected_at;
                self.stats.max_request_latency =
                    self.stats.max_request_latency.max(now - packet.injected_at);
                // Schedule the response on the complementary network.
                let ready = now + self.config.response_delay;
                debug_assert!(
                    self.pending_responses
                        .back()
                        .is_none_or(|&(last, _)| last <= ready),
                    "response deadlines never decrease"
                );
                self.pending_responses
                    .push_back((ready, FabricPacket::response(&packet)));
            }
            PacketKind::Response => {
                self.stats.responses_delivered += 1;
                let rtt = now - packet.injected_at;
                self.stats.round_trip_latency_total += rtt;
                self.stats.max_round_trip_latency = self.stats.max_round_trip_latency.max(rtt);
                let bucket = (rtt as usize).min(RTT_HISTOGRAM_BUCKETS - 1);
                if self.stats.rtt_histogram.is_empty() {
                    self.stats.rtt_histogram = vec![0; RTT_HISTOGRAM_BUCKETS];
                }
                self.stats.rtt_histogram[bucket] += 1;
            }
        }
    }
}

/// The integer form of a Bernoulli trial with probability `p`:
/// `ceil(p·2⁵³)`, which [`bernoulli`] compares the top 53 bits of a draw
/// against. `random_bool(p)` fires iff `k·2⁻⁵³ < p` for `k = draw >> 11`;
/// both sides are exact in `f64` (`k < 2⁵³`, and scaling by a power of
/// two is exact), so that holds iff `k < p·2⁵³`, iff `k < ceil(p·2⁵³)`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`, as `random_bool` does.
fn bernoulli_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli trial on one draw of `rng`: `rng.random_bool(p)` for
/// `threshold = bernoulli_threshold(p)`, compared as integers.
#[inline]
fn bernoulli<R: Rng + ?Sized>(rng: &mut R, threshold: u64) -> bool {
    rng.next_u64() >> 11 < threshold
}

/// Buckets of the round-trip latency histogram (1 cycle each; the last
/// bucket absorbs the tail).
pub const RTT_HISTOGRAM_BUCKETS: usize = 4096;

/// Accumulated statistics of a simulation run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Simulated cycles (including the drain phase).
    pub cycles: u64,
    /// Requests accepted into the network.
    pub requests_injected: u64,
    /// Requests that reached their destination tile.
    pub requests_delivered: u64,
    /// Responses that made it back to the original requester.
    pub responses_delivered: u64,
    /// Pairs the kernel declared unreachable at injection time.
    pub undeliverable: u64,
    /// Injections refused because the local queue was saturated.
    pub injection_backpressure: u64,
    /// Relay re-injections performed by intermediate tiles.
    pub relay_forwards: u64,
    /// Total link traversals (one per packet per hop) — the utilisation
    /// numerator.
    pub link_traversals: u64,
    /// Cycles arbitration winners spent stalled on full downstream FIFOs.
    pub total_stall_cycles: u64,
    /// Highest occupancy any link input FIFO reached.
    pub peak_link_occupancy: usize,
    /// Sum of request one-way latencies, in cycles.
    pub request_latency_total: u64,
    /// Worst request one-way latency.
    pub max_request_latency: u64,
    /// Sum of request→response round-trip latencies.
    pub round_trip_latency_total: u64,
    /// Worst round-trip latency.
    pub max_round_trip_latency: u64,
    /// Packets still in flight when the run ended (0 after a drain).
    pub in_flight_at_end: usize,
    /// Round-trip latency histogram (1-cycle buckets, tail-capped).
    pub rtt_histogram: Vec<u64>,
}

impl SimReport {
    /// Mean one-way request latency in cycles.
    pub fn mean_request_latency(&self) -> f64 {
        if self.requests_delivered == 0 {
            0.0
        } else {
            self.request_latency_total as f64 / self.requests_delivered as f64
        }
    }

    /// Mean round-trip latency in cycles.
    pub fn mean_round_trip_latency(&self) -> f64 {
        if self.responses_delivered == 0 {
            0.0
        } else {
            self.round_trip_latency_total as f64 / self.responses_delivered as f64
        }
    }

    /// Round-trip latency at the given percentile (0.0–1.0), from the
    /// histogram. Returns 0 when no responses were delivered.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn rtt_percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
        if self.responses_delivered == 0 {
            return 0;
        }
        let target = (p * self.responses_delivered as f64).ceil() as u64;
        let mut seen = 0u64;
        for (latency, &count) in self.rtt_histogram.iter().enumerate() {
            seen += count;
            if seen >= target.max(1) {
                return latency as u64;
            }
        }
        self.max_round_trip_latency
    }

    /// Delivered-request throughput in packets per cycle.
    pub fn throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.requests_delivered as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} req in {} cycles: {:.2} pkt/cy, mean lat {:.1}, mean RTT {:.1}",
            self.requests_injected,
            self.cycles,
            self.throughput(),
            self.mean_request_latency(),
            self.mean_round_trip_latency()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_common::seeded_rng;

    fn clean_sim(n: u16) -> NocSim {
        NocSim::new(FaultMap::none(TileArray::new(n, n)), SimConfig::default())
    }

    #[test]
    fn every_request_gets_a_response() {
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(1);
        let report = sim.run(TrafficPattern::UniformRandom, 300, &mut rng);
        assert!(report.requests_injected > 100);
        assert_eq!(report.requests_delivered, report.requests_injected);
        assert_eq!(report.responses_delivered, report.requests_injected);
        assert_eq!(report.in_flight_at_end, 0);
        assert_eq!(report.undeliverable, 0);
    }

    #[test]
    fn latency_reflects_distance() {
        // A single corner-to-corner packet on an empty 8×8 mesh takes
        // 14 hops; with queueing overhead the one-way latency is close.
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(2);
        // Hot-spot with tiny rate ≈ isolated packets to a fixed target.
        let config = SimConfig {
            injection_rate: 0.001,
            ..SimConfig::default()
        };
        sim.config = config;
        let report = sim.run(
            TrafficPattern::HotSpot {
                target: TileCoord::new(7, 7),
            },
            2000,
            &mut rng,
        );
        assert!(report.requests_delivered > 0);
        let mean = report.mean_request_latency();
        assert!(
            (5.0..25.0).contains(&mean),
            "mean latency {mean} implausible"
        );
        assert!(report.mean_round_trip_latency() > mean);
    }

    #[test]
    fn transpose_traffic_drains_without_deadlock() {
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(3);
        let cfg = SimConfig {
            injection_rate: 0.2, // heavy load
            ..SimConfig::default()
        };
        sim.config = cfg;
        let report = sim.run(TrafficPattern::Transpose, 400, &mut rng);
        assert_eq!(report.responses_delivered, report.requests_injected);
        assert_eq!(report.in_flight_at_end, 0);
    }

    #[test]
    fn hotspot_saturates_but_still_drains() {
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(4);
        let cfg = SimConfig {
            injection_rate: 0.3,
            ..SimConfig::default()
        };
        sim.config = cfg;
        let report = sim.run(
            TrafficPattern::HotSpot {
                target: TileCoord::new(4, 4),
            },
            200,
            &mut rng,
        );
        // The hot spot can only sink a few packets per cycle; backpressure
        // must appear, yet everything injected completes.
        assert_eq!(report.responses_delivered, report.requests_injected);
        assert!(report.max_round_trip_latency > report.mean_round_trip_latency() as u64);
        // The fabric's contention counters must light up under saturation.
        assert!(report.total_stall_cycles > 0);
        assert!(report.peak_link_occupancy > 0);
    }

    #[test]
    fn faulty_tiles_do_not_break_the_rest() {
        let array = TileArray::new(8, 8);
        let mut rng = seeded_rng(5);
        let faults = FaultMap::sample_uniform(array, 4, &mut rng);
        let mut sim = NocSim::new(faults, SimConfig::default());
        let report = sim.run(TrafficPattern::UniformRandom, 300, &mut rng);
        assert!(report.requests_injected > 0);
        assert_eq!(report.responses_delivered, report.requests_injected);
        assert_eq!(report.in_flight_at_end, 0);
    }

    #[test]
    fn relayed_pairs_complete_round_trips() {
        // Same-row pair with the row blocked: only a relay connects them.
        let array = TileArray::new(8, 8);
        let faults = FaultMap::from_faulty(array, [TileCoord::new(4, 3)]);
        let mut sim = NocSim::new(faults, SimConfig::default());
        let planner_choice = sim
            .planner()
            .choose(TileCoord::new(0, 3), TileCoord::new(7, 3));
        assert!(matches!(planner_choice, NetworkChoice::Relay { .. }));

        // Inject a hot-spot pattern aimed at (7,3) from everywhere; the
        // (0,3) source must use the relay.
        let mut rng = seeded_rng(6);
        let cfg = SimConfig {
            injection_rate: 0.05,
            ..SimConfig::default()
        };
        sim.config = cfg;
        let report = sim.run(
            TrafficPattern::HotSpot {
                target: TileCoord::new(7, 3),
            },
            500,
            &mut rng,
        );
        assert!(report.relay_forwards > 0, "no relays exercised");
        assert_eq!(report.responses_delivered, report.requests_injected);
    }

    #[test]
    fn neighbor_traffic_has_low_latency() {
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(7);
        let report = sim.run(TrafficPattern::NeighborEast, 300, &mut rng);
        assert!(report.requests_delivered > 0);
        // Most hops are 1 (wrap-around pairs are longer).
        assert!(report.mean_request_latency() < 8.0);
    }

    #[test]
    fn neighbor_wrap_uses_array_width_not_healthy_extent() {
        // Whole rightmost column faulty: column 7's tiles are gone, so
        // column 6 must still wrap to column 0 of the real 8-wide array —
        // the kernel then reports those pairs per the fault map rather
        // than silently re-shaping the pattern to a 7-wide array.
        let array = TileArray::new(8, 8);
        let faults = FaultMap::from_faulty(array, (0..8).map(|y| TileCoord::new(7, y)));
        let healthy: Vec<TileCoord> = faults.healthy_tiles().collect();
        let mut rng = seeded_rng(21);
        let pattern = TrafficPattern::NeighborEast;
        let src = TileCoord::new(6, 2);
        let dst = pattern
            .destination(src, array, &healthy, &mut rng)
            .expect("wraps");
        assert_eq!(
            dst,
            TileCoord::new(7, 2),
            "wrap column must come from the array"
        );
        // And the full simulation still completes round trips for the
        // pairs the kernel can route.
        let mut sim = NocSim::new(faults, SimConfig::default());
        let report = sim.run(pattern, 300, &mut rng);
        assert_eq!(report.responses_delivered, report.requests_injected);
        // Packets aimed at the faulty wrap column are undeliverable — the
        // honest outcome the old healthy-extent wrap hid.
        assert!(report.undeliverable > 0);
    }

    #[test]
    fn link_utilization_concentrates_at_the_hotspot() {
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(15);
        let target = TileCoord::new(4, 4);
        let report = sim.run(TrafficPattern::HotSpot { target }, 300, &mut rng);
        assert!(report.link_traversals > 0);
        let (_, tile, _, count) = sim.hottest_link().expect("links used");
        // The hottest link feeds the hot spot's immediate neighbourhood.
        assert!(tile.manhattan_distance(target) <= 2, "hottest at {tile}");
        assert!(count > 50);
        // Per-link counts sum to the total traversal counter.
        let mut sum = 0u64;
        for net in [NetworkKind::Xy, NetworkKind::Yx] {
            for t in TileArray::new(8, 8).tiles() {
                for d in wsp_topo::DIRECTIONS {
                    sum += sim.link_utilization(net, t, d);
                }
            }
        }
        assert_eq!(sum, report.link_traversals);
    }

    #[test]
    fn bursty_traffic_is_bit_identical_across_stepping_modes() {
        // Bursts separated by long idle gaps: the shape the event wheel
        // skips. Every counter, latency sum, and the histogram must match
        // the dense reference exactly.
        let run_mode = |stepping: Stepping| {
            let mut sim = clean_sim(8);
            sim.fabric_mut().set_stepping(stepping);
            sim.fabric_mut().set_sampling(32);
            sim.fabric_mut().set_digests(64);
            let mut rng = seeded_rng(11);
            let report = sim.run_bursts(TrafficPattern::Transpose, 5, 6, 400, &mut rng);
            let samples: Vec<(String, Vec<(u64, f64)>)> = sim
                .fabric()
                .timeseries()
                .map(|(name, s)| (name.to_string(), s.points().to_vec()))
                .collect();
            let journal = sim.fabric().journal().expect("digests on").to_text();
            (report, samples, journal)
        };
        assert_eq!(run_mode(Stepping::Wheel), run_mode(Stepping::Dense));
    }

    #[test]
    fn wheel_crosses_idle_gaps_in_constant_ticks() {
        // A single long gap must cost O(in-flight drain), not O(gap):
        // the executed-tick counter stays flat while the cycle counter
        // jumps the whole window — with the library's default stepping.
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(12);
        let report = sim.run_bursts(TrafficPattern::Transpose, 2, 4, 100_000, &mut rng);
        assert!(report.cycles >= 200_000, "cycles {}", report.cycles);
        let ticks = sim.fabric().ticks_executed();
        assert!(
            ticks < 500,
            "wheel executed {ticks} ticks over {} cycles",
            report.cycles
        );
        assert_eq!(report.responses_delivered, report.requests_injected);
    }

    #[test]
    fn idle_window_on_an_empty_wafer_is_one_jump() {
        // The empty-wafer edge case: nothing is in flight, so a wheel
        // must cross a 50 000-cycle idle window in zero ticks yet report
        // the same cycle count (and the same all-zero stats) as the dense
        // sweep.
        let run_mode = |stepping: Stepping| {
            let mut sim = clean_sim(16);
            sim.fabric_mut().set_stepping(stepping);
            sim.advance_idle(50_000);
            (sim.finish_report(), sim.fabric().ticks_executed())
        };
        let (dense_report, dense_ticks) = run_mode(Stepping::Dense);
        let (wheel_report, wheel_ticks) = run_mode(Stepping::Wheel);
        assert_eq!(dense_report, wheel_report);
        assert_eq!(dense_ticks, 50_000);
        assert_eq!(wheel_ticks, 0, "empty wafer must be one jump");
        assert_eq!(wheel_report.cycles, 50_000);
        assert_eq!(wheel_report.requests_injected, 0);
    }

    #[test]
    fn rtt_percentiles_are_ordered_and_bounded() {
        let mut sim = clean_sim(8);
        let mut rng = seeded_rng(9);
        let report = sim.run(TrafficPattern::UniformRandom, 400, &mut rng);
        let p50 = report.rtt_percentile(0.5);
        let p99 = report.rtt_percentile(0.99);
        assert!(p50 > 0);
        assert!(p50 <= p99);
        assert!(p99 <= report.max_round_trip_latency);
        let mean = report.mean_round_trip_latency();
        assert!((p50 as f64) < mean * 2.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_percentile_rejected() {
        let _ = SimReport::default().rtt_percentile(1.5);
    }

    #[test]
    fn transpose_on_non_square_arrays_sends_from_mirrored_tiles_only() {
        let array = TileArray::new(8, 4);
        let healthy: Vec<TileCoord> = array.tiles().collect();
        let mut rng = seeded_rng(22);
        let mut transpose =
            |src| TrafficPattern::Transpose.destination(src, array, &healthy, &mut rng);
        assert_eq!(transpose(TileCoord::new(5, 0)), None, "(0, 5) is off 8x4");
        assert_eq!(transpose(TileCoord::new(3, 1)), Some(TileCoord::new(1, 3)));
        for (cols, rows) in [(8, 4), (4, 8)] {
            let config = SimConfig {
                injection_rate: 0.2,
                ..SimConfig::default()
            };
            let mut sim = NocSim::new(FaultMap::none(TileArray::new(cols, rows)), config);
            let report = sim.run(TrafficPattern::Transpose, 300, &mut rng);
            assert!(report.requests_injected > 0, "{cols}x{rows}");
            assert_eq!(report.requests_delivered, report.requests_injected);
            assert_eq!(report.responses_delivered, report.requests_injected);
            assert_eq!(report.undeliverable, 0);
            assert_eq!(report.in_flight_at_end, 0);
        }
    }

    #[test]
    #[should_panic(expected = "link FIFO depth must be in 1..=65535, got 0")]
    fn zero_depth_sim_is_rejected() {
        let config = SimConfig {
            queue_capacity: 0,
            ..SimConfig::default()
        };
        let _ = NocSim::new(FaultMap::none(TileArray::new(4, 4)), config);
    }

    /// Replays scripted 64-bit draws.
    struct Script(std::vec::IntoIter<u64>);

    impl Rng for Script {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("a scripted draw")
        }
    }

    #[test]
    fn integer_bernoulli_matches_random_bool() {
        const TOP: u64 = (1 << 53) - 1;
        for p in [
            0.0,
            5e-324,
            0.0016,
            0.02,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
        ] {
            let threshold = bernoulli_threshold(p);
            // Draws whose top 53 bits sit at, and one either side of,
            // floor(p·2⁵³) and ceil(p·2⁵³); the low 11 bits must not count.
            let scaled = p * (1u64 << 53) as f64;
            for edge in [scaled.floor() as u64, scaled.ceil() as u64] {
                for k in [edge.saturating_sub(1), edge, edge + 1] {
                    for draw in [k << 11, k << 11 | 0x7ff].into_iter().filter(|_| k <= TOP) {
                        let script = || Script(vec![draw].into_iter());
                        assert_eq!(
                            bernoulli(&mut script(), threshold),
                            script().random_bool(p),
                            "p {p}, top bits {k}"
                        );
                    }
                }
            }
            let (mut float, mut int) = (seeded_rng(2021), seeded_rng(2021));
            for i in 0..100_000 {
                assert_eq!(
                    bernoulli(&mut int, threshold),
                    float.random_bool(p),
                    "p {p}, draw {i}"
                );
            }
            assert_eq!(int.next_u64(), float.next_u64(), "p {p}: streams diverged");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_injection_rate_is_rejected() {
        let _ = bernoulli_threshold(1.5);
    }

    #[test]
    fn report_display_and_derived_stats() {
        let mut sim = clean_sim(4);
        let mut rng = seeded_rng(8);
        let report = sim.run(TrafficPattern::UniformRandom, 200, &mut rng);
        let s = report.to_string();
        assert!(s.contains("req in"));
        assert!(report.throughput() > 0.0);
        let empty = SimReport::default();
        assert_eq!(empty.mean_request_latency(), 0.0);
        assert_eq!(empty.mean_round_trip_latency(), 0.0);
        assert_eq!(empty.throughput(), 0.0);
    }
}
