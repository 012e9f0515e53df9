//! Per-router-class ordered fallback chains for fault-degraded routing.
//!
//! PR 4's graceful degradation *drops* a lane-locked express packet at a
//! dead router — trading livelock for lost traffic. This module gives
//! each [`RouterClass`] a **static, validated, ordered fallback chain**
//! consulted at route-decision time whenever the fault plan disqualifies
//! the packet's preferred output:
//!
//! 1. [`FallbackAction::DemoteToRing`] — the stranded express packet is
//!    re-routed as if it had arrived on the shared twin of its input
//!    (`W_ex → W_sh`, `N_ex → N_sh`), escaping onto the shared
//!    deflection ring. Shared links can never be fault-masked (the plan
//!    validator rejects them as partitioning), so the demoted packet
//!    always has a live path.
//! 2. [`FallbackAction::AlternateChannel`] — in a [`crate::multichannel::MultiNoc`]
//!    bank, a packet that still loses allocation is handed to a parallel
//!    channel instead of being dropped; on a single-channel engine this
//!    step is inert (there is no alternate) and the chain falls through.
//! 3. **Drop** — the implicit, exhausted-chain last resort, identical to
//!    the pre-fallback behavior and still exactly conserved via
//!    [`crate::stats::SimStats::dropped`].
//!
//! Chains are *single-level* and consulted in order (mirroring static
//! fallback-chain proxy designs): each candidate goes through the same
//! validation pipeline, and the first applicable action wins. An empty
//! configuration ([`FallbackConfig::none`], the default) reproduces the
//! drop-at-dead-router behavior bit-for-bit — fallback routing is
//! strictly opt-in, exactly like an empty [`crate::fault::FaultPlan`]
//! reproduces the healthy engine.
//!
//! Every demotion and channel switch is emitted as a
//! [`crate::trace::SimEvent::FaultReroute`] so the attribution layer's
//! `reroute` component and the monitor's detectors see fallback traffic
//! without new event plumbing, and counted in the new
//! [`crate::stats::SimStats::fallback_demotions`] /
//! [`crate::stats::SimStats::fallback_channel_switches`] fields.

use std::fmt;

use crate::router::RouterClass;

/// One step of a fallback chain, tried in chain order when the fault
/// plan disqualifies a packet's preferred output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackAction {
    /// Demote the lane-locked express packet onto the shared deflection
    /// ring (re-route via the shared twin of its input port).
    DemoteToRing,
    /// Hand the packet to a parallel channel of a multi-channel bank.
    /// Inert on a single-channel engine.
    AlternateChannel,
}

impl fmt::Display for FallbackAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackAction::DemoteToRing => f.write_str("demote-to-ring"),
            FallbackAction::AlternateChannel => f.write_str("alternate-channel"),
        }
    }
}

/// Why a [`FallbackConfig`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackError {
    /// A chain lists the same action twice — chains are single-level
    /// and ordered; repeating an action can never make progress.
    DuplicateAction {
        /// Router class code (0..4) of the offending chain.
        class: usize,
        /// The repeated action.
        action: FallbackAction,
    },
    /// `DemoteToRing` on a router class with no express inputs: nothing
    /// can be lane-locked there, so the step would be unreachable.
    DemoteNeedsExpressInput {
        /// Router class code (0..4) of the offending chain.
        class: usize,
    },
    /// `AlternateChannel` ordered before `DemoteToRing`: the chain must
    /// try the cheap same-channel escape before paying for a channel
    /// switch.
    AlternateBeforeDemote {
        /// Router class code (0..4) of the offending chain.
        class: usize,
    },
    /// The selected topology has no express/shared lane pairing, so
    /// fallback chains are meaningless there: only the empty (inert)
    /// configuration is accepted
    /// (see [`crate::topology::Topology::validate_fallback`]).
    UnsupportedTopology,
}

impl fmt::Display for FallbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FallbackError::DuplicateAction { class, action } => {
                write!(f, "class {class} chain lists {action} twice")
            }
            FallbackError::DemoteNeedsExpressInput { class } => write!(
                f,
                "class {class} has no express inputs; demote-to-ring is unreachable there"
            ),
            FallbackError::AlternateBeforeDemote { class } => write!(
                f,
                "class {class} chain orders alternate-channel before demote-to-ring; \
                 the same-channel escape must be tried first"
            ),
            FallbackError::UnsupportedTopology => f.write_str(
                "this topology has no express/shared lane pairing; \
                 only the empty fallback configuration is accepted",
            ),
        }
    }
}

impl std::error::Error for FallbackError {}

/// Static, ordered, per-router-class fallback chains.
///
/// Chains are keyed by `RouterClass::code` (0..4). The default (and
/// [`FallbackConfig::none`]) carries empty chains everywhere, which the
/// engine treats as the exact pre-fallback drop behavior.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FallbackConfig {
    chains: [Vec<FallbackAction>; 4],
}

impl FallbackConfig {
    /// The empty configuration: every chain is empty, and the engine is
    /// bit-identical to one built without fallback routing.
    pub fn none() -> Self {
        FallbackConfig::default()
    }

    /// The standard chain: every express-capable router class demotes
    /// stranded express packets to the shared ring first, then tries an
    /// alternate channel, then drops. Hoplite-class routers (no express
    /// ports — nothing strands there) keep the alternate-channel step
    /// only.
    pub fn standard() -> Self {
        let mut cfg = FallbackConfig::default();
        for code in 0..4 {
            cfg.chains[code] = if code == 0 {
                vec![FallbackAction::AlternateChannel]
            } else {
                vec![
                    FallbackAction::DemoteToRing,
                    FallbackAction::AlternateChannel,
                ]
            };
        }
        cfg
    }

    /// Replaces the chain for one router class, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `class_code >= 4`.
    pub fn with_chain(mut self, class_code: usize, chain: Vec<FallbackAction>) -> Self {
        assert!(class_code < 4, "router class codes are 0..4");
        self.chains[class_code] = chain;
        self
    }

    /// True when every chain is empty (the engine takes the exact
    /// pre-fallback code path).
    pub(crate) fn is_empty(&self) -> bool {
        self.chains.iter().all(Vec::is_empty)
    }

    /// Validates every chain through the same pipeline: no duplicate
    /// actions, demotion only where express inputs exist, and the
    /// same-channel escape ordered before the channel switch.
    pub(crate) fn validate(&self) -> Result<(), FallbackError> {
        for (class, chain) in self.chains.iter().enumerate() {
            let mut seen: Vec<FallbackAction> = Vec::new();
            for &action in chain {
                if seen.contains(&action) {
                    return Err(FallbackError::DuplicateAction { class, action });
                }
                seen.push(action);
            }
            let has_express_input = {
                let rc = RouterClass::from_code(class);
                rc.x_express || rc.y_express
            };
            if chain.contains(&FallbackAction::DemoteToRing) && !has_express_input {
                return Err(FallbackError::DemoteNeedsExpressInput { class });
            }
            if let (Some(alt), Some(demote)) = (
                chain
                    .iter()
                    .position(|&a| a == FallbackAction::AlternateChannel),
                chain
                    .iter()
                    .position(|&a| a == FallbackAction::DemoteToRing),
            ) {
                if alt < demote {
                    return Err(FallbackError::AlternateBeforeDemote { class });
                }
            }
        }
        Ok(())
    }

    /// Compiles the chains into the per-class flag table the engine's
    /// hot path reads. The caller must have run
    /// [`FallbackConfig::validate`] first.
    pub(crate) fn compile(&self) -> CompiledFallback {
        let mut compiled = CompiledFallback::default();
        for (class, chain) in self.chains.iter().enumerate() {
            compiled.demote[class] = chain.contains(&FallbackAction::DemoteToRing);
            compiled.alternate[class] = chain.contains(&FallbackAction::AlternateChannel);
        }
        compiled
    }
}

impl fmt::Display for FallbackConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("no fallback chains");
        }
        let mut first = true;
        for (class, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                continue;
            }
            if !first {
                f.write_str("; ")?;
            }
            first = false;
            write!(f, "class {class}:")?;
            for (i, action) in chain.iter().enumerate() {
                write!(f, "{}{action}", if i == 0 { " " } else { " → " })?;
            }
        }
        Ok(())
    }
}

/// The compiled per-class flag table: chain order collapses to "may
/// demote" / "may switch channel" because the engine consults the steps
/// at fixed points in the cycle (demotion before allocation, channel
/// switch at the drop site), which realizes exactly the validated
/// demote-before-alternate order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CompiledFallback {
    /// Per-class: stranded express inputs demote to the shared ring.
    pub(crate) demote: [bool; 4],
    /// Per-class: allocation losers move to a parallel channel.
    pub(crate) alternate: [bool; 4],
}

impl CompiledFallback {
    /// True when no chain does anything (the pre-fallback code path).
    pub(crate) fn is_inert(&self) -> bool {
        !self.demote.iter().any(|&d| d) && !self.alternate.iter().any(|&a| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_config_is_inert_and_valid() {
        let cfg = FallbackConfig::none();
        assert!(cfg.is_empty());
        assert_eq!(cfg.validate(), Ok(()));
        assert!(cfg.compile().is_inert());
        assert_eq!(cfg.to_string(), "no fallback chains");
    }

    #[test]
    fn standard_config_validates_and_compiles() {
        let cfg = FallbackConfig::standard();
        assert!(!cfg.is_empty());
        assert_eq!(cfg.validate(), Ok(()));
        let compiled = cfg.compile();
        assert!(!compiled.is_inert());
        assert!(!compiled.demote[0], "Hoplite class cannot demote");
        assert!(compiled.alternate[0]);
        for code in 1..4 {
            assert!(compiled.demote[code]);
            assert!(compiled.alternate[code]);
        }
        assert_eq!(
            cfg.chains[3],
            &[
                FallbackAction::DemoteToRing,
                FallbackAction::AlternateChannel
            ]
        );
        assert!(cfg.to_string().contains("demote-to-ring"));
    }

    #[test]
    fn duplicate_action_rejected() {
        let cfg = FallbackConfig::none().with_chain(
            1,
            vec![FallbackAction::DemoteToRing, FallbackAction::DemoteToRing],
        );
        assert_eq!(
            cfg.validate(),
            Err(FallbackError::DuplicateAction {
                class: 1,
                action: FallbackAction::DemoteToRing
            })
        );
    }

    #[test]
    fn demote_requires_express_inputs() {
        let cfg = FallbackConfig::none().with_chain(0, vec![FallbackAction::DemoteToRing]);
        assert_eq!(
            cfg.validate(),
            Err(FallbackError::DemoteNeedsExpressInput { class: 0 })
        );
    }

    #[test]
    fn alternate_must_follow_demote() {
        let cfg = FallbackConfig::none().with_chain(
            3,
            vec![
                FallbackAction::AlternateChannel,
                FallbackAction::DemoteToRing,
            ],
        );
        assert_eq!(
            cfg.validate(),
            Err(FallbackError::AlternateBeforeDemote { class: 3 })
        );
        // Alternate alone is fine in any class.
        let alone = FallbackConfig::none().with_chain(3, vec![FallbackAction::AlternateChannel]);
        assert_eq!(alone.validate(), Ok(()));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(FallbackError::DemoteNeedsExpressInput { class: 0 }
            .to_string()
            .contains("express"));
        assert!(FallbackError::AlternateBeforeDemote { class: 2 }
            .to_string()
            .contains("first"));
        assert!(FallbackError::DuplicateAction {
            class: 1,
            action: FallbackAction::AlternateChannel
        }
        .to_string()
        .contains("twice"));
    }
}
