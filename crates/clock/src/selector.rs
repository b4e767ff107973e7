//! The per-tile clock selection and forwarding FSM (Fig. 3).
//!
//! Every compute chiplet has six candidate clocks — the slow master clock,
//! the software-controlled JTAG/test clock, and one forwarded clock from
//! each of the four neighbours — plus an optional PLL multiplication stage.
//! This module models the selection state machine: boot on the JTAG clock,
//! enter the setup phase, and either generate (edge tiles, via PLL) or
//! auto-select the first forwarded input that reaches the toggle count.

use std::fmt;

use wsp_topo::Direction;

/// A candidate input of the tile clock mux.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockSource {
    /// Software-controlled test clock from the JTAG interface (boot
    /// default; used during testing and program/data load).
    Jtag,
    /// The slow system clock distributed from the off-wafer crystal.
    Master,
    /// The clock forwarded by the neighbouring tile on the given side.
    Forwarded(Direction),
}

impl fmt::Display for ClockSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockSource::Jtag => f.write_str("JTAG clock"),
            ClockSource::Master => f.write_str("master clock"),
            ClockSource::Forwarded(d) => write!(f, "forwarded clock ({d})"),
        }
    }
}

/// Phase of the per-tile clock FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectorPhase {
    /// Power-on default: running on the JTAG clock.
    Boot,
    /// Counting toggles on the forwarded inputs, waiting for the first to
    /// reach the configured toggle count.
    AutoSelection,
    /// A functional clock has been selected and is being forwarded.
    Locked,
}

impl fmt::Display for SelectorPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectorPhase::Boot => f.write_str("boot (JTAG)"),
            SelectorPhase::AutoSelection => f.write_str("auto-selection"),
            SelectorPhase::Locked => f.write_str("locked"),
        }
    }
}

/// The clock selection and forwarding circuitry of one tile.
///
/// # Examples
///
/// ```
/// use wsp_clock::{ClockSelector, ClockSource, SelectorPhase};
/// use wsp_topo::Direction;
///
/// let mut sel = ClockSelector::new();
/// assert_eq!(sel.selected(), ClockSource::Jtag);
/// sel.begin_auto_selection();
/// // The west neighbour's clock toggles 16 times first:
/// for _ in 0..ClockSelector::DEFAULT_TOGGLE_COUNT {
///     sel.observe_toggle(Direction::West);
/// }
/// assert_eq!(sel.phase(), SelectorPhase::Locked);
/// assert_eq!(sel.selected(), ClockSource::Forwarded(Direction::West));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockSelector {
    phase: SelectorPhase,
    selected: ClockSource,
    forwarded: ClockSource,
    toggle_target: u32,
    toggle_counts: [u32; 4],
}

impl ClockSelector {
    /// Default toggle count a forwarded clock must reach to be selected
    /// during auto-selection (Sec. IV).
    pub const DEFAULT_TOGGLE_COUNT: u32 = 16;

    /// Creates a selector in its power-on state: JTAG clock selected and
    /// forwarded, default toggle target.
    pub fn new() -> Self {
        ClockSelector {
            phase: SelectorPhase::Boot,
            selected: ClockSource::Jtag,
            forwarded: ClockSource::Jtag,
            toggle_target: Self::DEFAULT_TOGGLE_COUNT,
            toggle_counts: [0; 4],
        }
    }

    /// Creates a selector with a custom toggle target.
    ///
    /// # Panics
    ///
    /// Panics if `toggle_target` is zero.
    pub fn with_toggle_target(toggle_target: u32) -> Self {
        assert!(toggle_target > 0, "toggle target must be at least 1");
        ClockSelector {
            toggle_target,
            ..ClockSelector::new()
        }
    }

    /// Current FSM phase.
    #[inline]
    pub fn phase(&self) -> SelectorPhase {
        self.phase
    }

    /// The clock currently driving the tile logic.
    #[inline]
    pub fn selected(&self) -> ClockSource {
        self.selected
    }

    /// The clock currently forwarded to all four neighbours.
    #[inline]
    pub fn forwarded(&self) -> ClockSource {
        self.forwarded
    }

    /// The configured auto-selection toggle target.
    #[inline]
    pub fn toggle_target(&self) -> u32 {
        self.toggle_target
    }

    /// Configures this tile as a clock *generator* (edge tiles only in the
    /// prototype): the master clock — optionally PLL-multiplied upstream —
    /// becomes both the functional and the forwarded clock.
    pub fn configure_as_generator(&mut self) {
        self.phase = SelectorPhase::Locked;
        self.selected = ClockSource::Master;
        self.forwarded = ClockSource::Master;
    }

    /// Enters the auto-selection phase: toggle counters reset, the tile
    /// logic keeps running on JTAG until a forwarded clock wins.
    pub fn begin_auto_selection(&mut self) {
        self.phase = SelectorPhase::AutoSelection;
        self.toggle_counts = [0; 4];
    }

    /// Records one observed toggle on the forwarded-clock input from
    /// `from`. If that input is the first to reach the toggle target the
    /// FSM locks onto it and starts forwarding it.
    ///
    /// Returns the newly selected source when this toggle caused the lock.
    pub fn observe_toggle(&mut self, from: Direction) -> Option<ClockSource> {
        if self.phase != SelectorPhase::AutoSelection {
            return None;
        }
        let idx = from.index();
        self.toggle_counts[idx] += 1;
        if self.toggle_counts[idx] >= self.toggle_target {
            let source = ClockSource::Forwarded(from);
            self.phase = SelectorPhase::Locked;
            self.selected = source;
            self.forwarded = source;
            Some(source)
        } else {
            None
        }
    }

    /// Returns to the boot state (JTAG clock), e.g. for re-test.
    pub fn reset(&mut self) {
        *self = ClockSelector::with_toggle_target(self.toggle_target);
    }

    /// [`ClockSelector::begin_auto_selection`] emitting a `clock`
    /// phase-transition instant at time `at` on track `track` (by
    /// convention the tile index).
    pub fn begin_auto_selection_traced(
        &mut self,
        sink: &mut dyn wsp_telemetry::Sink,
        track: u64,
        at: u64,
    ) {
        let from = self.phase;
        self.begin_auto_selection();
        Self::emit_transition(sink, track, at, from, self.phase);
    }

    /// [`ClockSelector::configure_as_generator`] emitting a `clock`
    /// phase-transition instant.
    pub fn configure_as_generator_traced(
        &mut self,
        sink: &mut dyn wsp_telemetry::Sink,
        track: u64,
        at: u64,
    ) {
        let from = self.phase;
        self.configure_as_generator();
        Self::emit_transition(sink, track, at, from, self.phase);
    }

    /// [`ClockSelector::observe_toggle`] emitting a `clock`
    /// phase-transition instant if this toggle caused the lock.
    pub fn observe_toggle_traced(
        &mut self,
        from: Direction,
        sink: &mut dyn wsp_telemetry::Sink,
        track: u64,
        at: u64,
    ) -> Option<ClockSource> {
        let phase_before = self.phase;
        let locked = self.observe_toggle(from);
        if locked.is_some() {
            Self::emit_transition(sink, track, at, phase_before, self.phase);
        }
        locked
    }

    fn emit_transition(
        sink: &mut dyn wsp_telemetry::Sink,
        track: u64,
        at: u64,
        from: SelectorPhase,
        to: SelectorPhase,
    ) {
        if from != to && sink.enabled() {
            let name = format!("{from} -> {to}");
            sink.instant("clock", &name, track, at, &[]);
        }
    }
}

impl Default for ClockSelector {
    fn default() -> Self {
        ClockSelector::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_topo::DIRECTIONS;

    #[test]
    fn boots_on_jtag() {
        let sel = ClockSelector::new();
        assert_eq!(sel.phase(), SelectorPhase::Boot);
        assert_eq!(sel.selected(), ClockSource::Jtag);
        assert_eq!(sel.forwarded(), ClockSource::Jtag);
        assert_eq!(sel.toggle_target(), 16);
        assert_eq!(sel, ClockSelector::default());
    }

    #[test]
    fn first_input_to_toggle_count_wins() {
        let mut sel = ClockSelector::new();
        sel.begin_auto_selection();
        // Interleave toggles, south leading by one: south reaches 16 first.
        for i in 0..16 {
            let south = sel.observe_toggle(Direction::South);
            if i < 15 {
                assert_eq!(south, None);
                assert_eq!(sel.observe_toggle(Direction::North), None);
            } else {
                assert_eq!(south, Some(ClockSource::Forwarded(Direction::South)));
            }
        }
        assert_eq!(sel.phase(), SelectorPhase::Locked);
        assert_eq!(sel.selected(), ClockSource::Forwarded(Direction::South));
    }

    #[test]
    fn lock_is_sticky() {
        let mut sel = ClockSelector::new();
        sel.begin_auto_selection();
        for _ in 0..16 {
            sel.observe_toggle(Direction::East);
        }
        assert_eq!(sel.selected(), ClockSource::Forwarded(Direction::East));
        // Later toggles from other sides change nothing.
        for _ in 0..100 {
            assert_eq!(sel.observe_toggle(Direction::West), None);
        }
        assert_eq!(sel.selected(), ClockSource::Forwarded(Direction::East));
    }

    #[test]
    fn generator_configuration() {
        let mut sel = ClockSelector::new();
        sel.configure_as_generator();
        assert_eq!(sel.phase(), SelectorPhase::Locked);
        assert_eq!(sel.selected(), ClockSource::Master);
        assert_eq!(sel.forwarded(), ClockSource::Master);
    }

    #[test]
    fn custom_toggle_target() {
        let mut sel = ClockSelector::with_toggle_target(4);
        sel.begin_auto_selection();
        for _ in 0..3 {
            assert_eq!(sel.observe_toggle(Direction::West), None);
        }
        assert_eq!(
            sel.observe_toggle(Direction::West),
            Some(ClockSource::Forwarded(Direction::West))
        );
    }

    #[test]
    fn reset_returns_a_locked_selector_to_boot() {
        let mut sel = ClockSelector::with_toggle_target(8);
        sel.configure_as_generator();
        assert_eq!(sel.phase(), SelectorPhase::Locked);
        sel.reset();
        assert_eq!(sel.phase(), SelectorPhase::Boot);
        assert_eq!(sel.selected(), ClockSource::Jtag);
        assert_eq!(sel.toggle_target(), 8);
    }

    #[test]
    fn toggles_ignored_outside_auto_selection() {
        let mut sel = ClockSelector::new();
        for d in DIRECTIONS {
            for _ in 0..100 {
                assert_eq!(sel.observe_toggle(d), None);
            }
        }
        assert_eq!(sel.phase(), SelectorPhase::Boot);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_toggle_target_rejected() {
        let _ = ClockSelector::with_toggle_target(0);
    }

    #[test]
    fn traced_transitions_emit_clock_instants() {
        use wsp_telemetry::{Recorder, Sink};

        let mut recorder = Recorder::new();
        let mut sel = ClockSelector::new();
        sel.begin_auto_selection_traced(&mut recorder, 7, 0);
        for i in 0..16 {
            sel.observe_toggle_traced(Direction::West, &mut recorder, 7, 1 + i);
        }
        assert_eq!(sel.phase(), SelectorPhase::Locked);
        // Exactly two transitions: boot→auto-selection and
        // auto-selection→locked; the 15 non-locking toggles are silent.
        let events = recorder.tracer.events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.category == "clock" && e.track == 7));
        assert_eq!(events[0].name, "boot (JTAG) -> auto-selection");
        assert_eq!(events[1].name, "auto-selection -> locked");

        // Generator paths emit too; no-op transitions don't.
        let mut gen = ClockSelector::new();
        gen.configure_as_generator_traced(&mut recorder, 0, 5);
        assert_eq!(recorder.tracer.len(), 3);
        gen.configure_as_generator_traced(&mut recorder, 0, 6);
        assert_eq!(recorder.tracer.len(), 3, "locked -> locked is silent");

        // A disabled sink records nothing and changes nothing.
        let mut noop = wsp_telemetry::NoopSink;
        let mut quiet = ClockSelector::new();
        quiet.begin_auto_selection_traced(&mut noop, 0, 0);
        assert_eq!(quiet.phase(), SelectorPhase::AutoSelection);
        let _ = noop.enabled();
    }

    #[test]
    fn display_names_sources_and_phases() {
        assert_eq!(ClockSource::Jtag.to_string(), "JTAG clock");
        assert_eq!(
            ClockSource::Forwarded(Direction::East).to_string(),
            "forwarded clock (east)"
        );
        assert_eq!(SelectorPhase::AutoSelection.to_string(), "auto-selection");
    }
}
