//! The [`Stepping`] mode the cycle-level engines share.

/// How a simulator visits its per-cycle work.
///
/// `Wheel` is the default: each executed cycle visits only the active
/// sets the schedulers in `wsp-noc` and `wsp-core` track, and when the
/// synthetic-traffic simulator's fabric is empty, simulated `now` jumps
/// to the next pending response's ready cycle (or the end of an idle
/// window) and the skipped cycles are replayed in bulk. The machine has
/// no such jump: it ticks its fabric every cycle. Both halves are
/// bit-identical to the dense sweep by construction (see DESIGN.md
/// "Simulator internals"), so dense mode exists as the reference the
/// equivalence tests and the CI byte-compare gate run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stepping {
    /// Visit every tile every cycle — the reference sweep.
    Dense,
    /// Visit only tiles the activity tracker says can make progress, and
    /// jump the synthetic-traffic simulator's idle windows.
    #[default]
    Wheel,
}

impl Stepping {
    /// Parses a CLI value (`"dense"` / `"wheel"`).
    pub fn parse(raw: &str) -> Option<Stepping> {
        match raw {
            "dense" => Some(Stepping::Dense),
            "wheel" => Some(Stepping::Wheel),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stepping_parses_and_defaults_to_wheel() {
        assert_eq!(Stepping::parse("dense"), Some(Stepping::Dense));
        assert_eq!(Stepping::parse("wheel"), Some(Stepping::Wheel));
        assert_eq!(Stepping::parse("sparse"), None, "the removed mode");
        assert_eq!(Stepping::parse("turbo"), None);
        assert_eq!(Stepping::default(), Stepping::Wheel);
    }
}
