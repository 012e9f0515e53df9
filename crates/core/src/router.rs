//! Router classes and hardware port connectivity.
//!
//! A FastTrack NoC instantiates routers of different *classes* depending on
//! position (paper Figure 7): fully-loaded FT routers (black), depopulated
//! FTlite routers with express ports in only one dimension (grey), and
//! plain Hoplite routers (white). Independently, the *policy*
//! ([`FtPolicy`]) decides which lane changes the switch multiplexers
//! support (paper Figure 9b vs 9c).
//!
//! This module answers the static hardware question: *from input port `i`,
//! which output ports does the switch physically connect to?* The dynamic
//! question (which output a packet wants) lives in `crate::routing`.

use crate::config::{FtPolicy, NocConfig};
use crate::geom::Coord;
use crate::port::{InPort, OutPort, OutSet};

/// Which express ports a particular router position has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RouterClass {
    /// Router has `W_ex` input and `E_ex` output (X-dimension express).
    pub x_express: bool,
    /// Router has `N_ex` input and `S_ex` output (Y-dimension express).
    pub y_express: bool,
}

impl RouterClass {
    /// Derives the class of the router at `at` for the given configuration.
    ///
    /// Because `D % R == 0`, express chains land only on express-capable
    /// positions, so the express input and output are always co-located.
    pub(crate) fn of(cfg: &NocConfig, at: Coord) -> Self {
        RouterClass {
            x_express: cfg.has_express_at(at.x),
            y_express: cfg.has_express_at(at.y),
        }
    }

    /// Plain Hoplite router (no express ports).
    pub const HOPLITE: RouterClass = RouterClass {
        x_express: false,
        y_express: false,
    };

    /// Fully-loaded FastTrack router (express in both dimensions).
    pub const FULL: RouterClass = RouterClass {
        x_express: true,
        y_express: true,
    };

    /// True if the router has any express port.
    pub(crate) fn has_any_express(self) -> bool {
        self.x_express || self.y_express
    }

    /// Dense class index in `0..4` (bit 0 = X express, bit 1 = Y
    /// express), used to key the route lookup tables.
    #[inline]
    pub(crate) fn code(self) -> usize {
        self.x_express as usize | (self.y_express as usize) << 1
    }

    /// Inverse of [`RouterClass::code`].
    ///
    /// # Panics
    ///
    /// Panics if `code >= 4`.
    pub(crate) fn from_code(code: usize) -> RouterClass {
        assert!(code < 4, "router class codes are 0..4");
        RouterClass {
            x_express: code & 1 != 0,
            y_express: code & 2 != 0,
        }
    }

    /// The set of output ports that physically exist at this router.
    pub(crate) fn available_outputs(self) -> OutSet {
        let mut s = OutSet::from_ports(&[OutPort::EastSh, OutPort::SouthSh, OutPort::Exit]);
        if self.x_express {
            s.insert(OutPort::EastEx);
        }
        if self.y_express {
            s.insert(OutPort::SouthEx);
        }
        s
    }

    /// True if packets can arrive on the given input port here.
    pub(crate) fn has_input(self, port: InPort) -> bool {
        match port {
            InPort::WestEx => self.x_express,
            InPort::NorthEx => self.y_express,
            InPort::WestSh | InPort::NorthSh | InPort::Pe => true,
        }
    }

    /// Human-readable class label matching the paper's Figure 7 shading.
    pub fn label(self) -> &'static str {
        match (self.x_express, self.y_express) {
            (true, true) => "black (FT)",
            (true, false) | (false, true) => "grey (FTlite depopulated)",
            (false, false) => "white (Hoplite)",
        }
    }
}

/// The switch connectivity matrix: which outputs input `port` can reach,
/// for a router of class `class` under lane-change policy `policy`
/// (`None` = baseline Hoplite).
///
/// Encodes the paper's lane-change rules (§IV-B, §IV-D):
///
/// * Express→short transitions exist only at the livelock turns
///   `W_ex → S_sh` and `N_ex → E_sh` (Full policy only).
/// * `N_ex → E_ex` deflection and `W_sh → E_ex` upgrade are permitted
///   (Full policy).
/// * Under [`FtPolicy::Inject`], express packets stay express and short
///   packets stay short; only the PE can place packets on either lane.
/// * Delivery (`Exit`) is reachable from every input.
/// * `N_sh` may take `E_sh` (the Hoplite deflection that guarantees
///   livelock freedom); it never upgrades to express.
pub(crate) fn allowed_outputs(
    policy: Option<FtPolicy>,
    class: RouterClass,
    port: InPort,
) -> OutSet {
    use OutPort::*;
    let base: OutSet = match policy {
        // Baseline Hoplite or a white router inside a FastTrack NoC:
        // only short ports exist, and the class mask below enforces it.
        None => match port {
            InPort::WestEx | InPort::NorthEx => OutSet::empty(),
            InPort::WestSh => OutSet::from_ports(&[EastSh, SouthSh, Exit]),
            InPort::NorthSh => OutSet::from_ports(&[SouthSh, EastSh, Exit]),
            InPort::Pe => OutSet::from_ports(&[EastSh, SouthSh, Exit]),
        },
        // Turning traffic may stay on (W_ex -> S_ex) or upgrade onto
        // (W_sh -> S_ex) the Y express lane — the paper's Figure 8 shows
        // exactly such a path, upgrading in both dimensions mid-flight.
        Some(FtPolicy::Full) => match port {
            InPort::WestEx => OutSet::from_ports(&[EastEx, SouthSh, SouthEx, Exit]),
            InPort::NorthEx => OutSet::from_ports(&[SouthEx, EastEx, EastSh, Exit]),
            InPort::WestSh => OutSet::from_ports(&[EastSh, SouthSh, EastEx, SouthEx, Exit]),
            InPort::NorthSh => OutSet::from_ports(&[SouthSh, EastSh, Exit]),
            InPort::Pe => OutSet::from_ports(&[EastEx, EastSh, SouthEx, SouthSh, Exit]),
        },
        Some(FtPolicy::Inject) => match port {
            InPort::WestEx => OutSet::from_ports(&[EastEx, SouthEx, Exit]),
            InPort::NorthEx => OutSet::from_ports(&[SouthEx, EastEx, Exit]),
            InPort::WestSh => OutSet::from_ports(&[EastSh, SouthSh, Exit]),
            InPort::NorthSh => OutSet::from_ports(&[SouthSh, EastSh, Exit]),
            InPort::Pe => OutSet::from_ports(&[EastEx, EastSh, SouthEx, SouthSh, Exit]),
        },
    };
    base.intersect(class.available_outputs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;

    #[test]
    fn class_derivation_fully_populated() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        for x in 0..8 {
            for y in 0..8 {
                assert_eq!(RouterClass::of(&cfg, Coord::new(x, y)), RouterClass::FULL);
            }
        }
    }

    #[test]
    fn class_derivation_depopulated() {
        // FT(64, 2, 2): express routers every 2 positions per dimension.
        let cfg = NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap();
        assert_eq!(RouterClass::of(&cfg, Coord::new(0, 0)), RouterClass::FULL);
        assert_eq!(
            RouterClass::of(&cfg, Coord::new(1, 0)),
            RouterClass {
                x_express: false,
                y_express: true
            }
        );
        assert_eq!(
            RouterClass::of(&cfg, Coord::new(0, 1)),
            RouterClass {
                x_express: true,
                y_express: false
            }
        );
        assert_eq!(
            RouterClass::of(&cfg, Coord::new(1, 1)),
            RouterClass::HOPLITE
        );
    }

    #[test]
    fn class_derivation_hoplite() {
        let cfg = NocConfig::hoplite(4).unwrap();
        for x in 0..4 {
            for y in 0..4 {
                assert_eq!(
                    RouterClass::of(&cfg, Coord::new(x, y)),
                    RouterClass::HOPLITE
                );
            }
        }
    }

    #[test]
    fn class_labels() {
        assert_eq!(RouterClass::FULL.label(), "black (FT)");
        assert_eq!(RouterClass::HOPLITE.label(), "white (Hoplite)");
        assert_eq!(
            RouterClass {
                x_express: true,
                y_express: false
            }
            .label(),
            "grey (FTlite depopulated)"
        );
    }

    #[test]
    fn available_outputs_by_class() {
        assert_eq!(RouterClass::HOPLITE.available_outputs().len(), 3);
        assert_eq!(RouterClass::FULL.available_outputs().len(), 5);
        let grey = RouterClass {
            x_express: true,
            y_express: false,
        };
        let outs = grey.available_outputs();
        assert!(outs.contains(OutPort::EastEx));
        assert!(!outs.contains(OutPort::SouthEx));
    }

    #[test]
    fn hoplite_connectivity_matches_two_mux_switch() {
        let c = RouterClass::HOPLITE;
        let w = allowed_outputs(None, c, InPort::WestSh);
        assert!(w.contains(OutPort::EastSh));
        assert!(w.contains(OutPort::SouthSh));
        assert!(w.contains(OutPort::Exit));
        assert!(!w.contains(OutPort::EastEx));
        // N may deflect east (livelock rule).
        let n = allowed_outputs(None, c, InPort::NorthSh);
        assert!(n.contains(OutPort::EastSh));
    }

    #[test]
    fn full_policy_express_to_short_only_at_turns() {
        let c = RouterClass::FULL;
        let wex = allowed_outputs(Some(FtPolicy::Full), c, InPort::WestEx);
        // W_ex -> S_sh is the livelock turn; W_ex -> E_sh is forbidden.
        assert!(wex.contains(OutPort::SouthSh));
        assert!(!wex.contains(OutPort::EastSh));
        let nex = allowed_outputs(Some(FtPolicy::Full), c, InPort::NorthEx);
        // N_ex -> E_sh is the livelock turn; N_ex -> S_sh is forbidden.
        assert!(nex.contains(OutPort::EastSh));
        assert!(!nex.contains(OutPort::SouthSh));
        // N_ex may deflect within the express network (paper §IV-D).
        assert!(nex.contains(OutPort::EastEx));
    }

    #[test]
    fn full_policy_short_upgrades() {
        let c = RouterClass::FULL;
        let wsh = allowed_outputs(Some(FtPolicy::Full), c, InPort::WestSh);
        assert!(wsh.contains(OutPort::EastEx)); // blue upgrade link
        assert!(wsh.contains(OutPort::SouthEx));
        let wex = allowed_outputs(Some(FtPolicy::Full), c, InPort::WestEx);
        assert!(wex.contains(OutPort::SouthEx)); // express turn, Fig. 8
                                                 // N_sh never upgrades.
        let nsh = allowed_outputs(Some(FtPolicy::Full), c, InPort::NorthSh);
        assert!(!nsh.contains(OutPort::EastEx));
        assert!(!nsh.contains(OutPort::SouthEx));
    }

    #[test]
    fn inject_policy_isolates_lanes() {
        let c = RouterClass::FULL;
        let wex = allowed_outputs(Some(FtPolicy::Inject), c, InPort::WestEx);
        assert!(wex.contains(OutPort::EastEx));
        assert!(wex.contains(OutPort::SouthEx)); // express turn stays express
        assert!(!wex.contains(OutPort::SouthSh));
        assert!(!wex.contains(OutPort::EastSh));
        let wsh = allowed_outputs(Some(FtPolicy::Inject), c, InPort::WestSh);
        assert!(!wsh.contains(OutPort::EastEx));
        assert!(!wsh.contains(OutPort::SouthEx));
        // The PE can board either lane.
        let pe = allowed_outputs(Some(FtPolicy::Inject), c, InPort::Pe);
        assert_eq!(pe.len(), 5);
    }

    #[test]
    fn exit_reachable_from_every_existing_input() {
        for policy in [None, Some(FtPolicy::Full), Some(FtPolicy::Inject)] {
            for class in [
                RouterClass::HOPLITE,
                RouterClass::FULL,
                RouterClass {
                    x_express: true,
                    y_express: false,
                },
                RouterClass {
                    x_express: false,
                    y_express: true,
                },
            ] {
                for port in InPort::ALL {
                    if class.has_input(port) && !(policy.is_none() && port.is_express()) {
                        assert!(
                            allowed_outputs(policy, class, port).contains(OutPort::Exit),
                            "exit missing for {policy:?} {class:?} {port}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn class_mask_strips_missing_express_ports() {
        let grey = RouterClass {
            x_express: true,
            y_express: false,
        };
        let wsh = allowed_outputs(Some(FtPolicy::Full), grey, InPort::WestSh);
        assert!(wsh.contains(OutPort::EastEx));
        assert!(!wsh.contains(OutPort::SouthEx)); // no Y express here
    }

    /// The switch, pinned: per policy and class code (bit 0: X express,
    /// bit 1: Y express), the outputs of `W_ex | N_ex | W_sh | N_sh | PE`,
    /// `-` where the input does not exist and `*` for all five. Express
    /// leaves for short only at the turns `W_ex → S_sh` and `N_ex → E_sh`
    /// (Full), `N_sh` never upgrades, Inject keeps each lane to itself and
    /// lets the PE board either, and every input reaches `Exit`.
    #[test]
    fn connectivity_matrix_is_pinned() {
        const MATRIX: &str = "
            -      0 | - | - | E_sh S_sh Exit | E_sh S_sh Exit | E_sh S_sh Exit
            Full   0 | - | - | E_sh S_sh Exit | E_sh S_sh Exit | E_sh S_sh Exit
            Full   1 | E_ex S_sh Exit | - | E_ex E_sh S_sh Exit | E_sh S_sh Exit | E_ex E_sh S_sh Exit
            Full   2 | - | E_sh S_ex Exit | E_sh S_ex S_sh Exit | E_sh S_sh Exit | E_sh S_ex S_sh Exit
            Full   3 | E_ex S_ex S_sh Exit | E_ex E_sh S_ex Exit | * | E_sh S_sh Exit | *
            Inject 0 | - | - | E_sh S_sh Exit | E_sh S_sh Exit | E_sh S_sh Exit
            Inject 1 | E_ex Exit | - | E_sh S_sh Exit | E_sh S_sh Exit | E_ex E_sh S_sh Exit
            Inject 2 | - | S_ex Exit | E_sh S_sh Exit | E_sh S_sh Exit | E_sh S_ex S_sh Exit
            Inject 3 | E_ex S_ex Exit | E_ex S_ex Exit | E_sh S_sh Exit | E_sh S_sh Exit | *";
        for row in MATRIX.lines().map(str::trim).filter(|row| !row.is_empty()) {
            let cells: Vec<&str> = row.split(" | ").collect();
            assert_eq!(cells.len(), 1 + InPort::ALL.len(), "{row}");
            let (policy, code) = cells[0].split_once(' ').unwrap();
            let policy = match policy {
                "Full" => Some(FtPolicy::Full),
                "Inject" => Some(FtPolicy::Inject),
                _ => None,
            };
            let class = RouterClass::from_code(code.trim().parse().unwrap());
            for (port, want) in InPort::ALL.into_iter().zip(&cells[1..]) {
                let outs = allowed_outputs(policy, class, port).iter();
                let outs: Vec<String> = outs.map(|out| out.to_string()).collect();
                let exists = class.has_input(port) && !(policy.is_none() && port.is_express());
                let got = if exists { outs.join(" ") } else { "-".into() };
                assert_eq!(
                    got,
                    want.replace('*', "E_ex E_sh S_ex S_sh Exit"),
                    "{row}: {port}"
                );
            }
        }
    }

    #[test]
    fn has_input_matches_class() {
        assert!(!RouterClass::HOPLITE.has_input(InPort::WestEx));
        assert!(RouterClass::HOPLITE.has_input(InPort::WestSh));
        assert!(RouterClass::FULL.has_input(InPort::NorthEx));
        assert!(RouterClass::HOPLITE.has_input(InPort::Pe));
    }
}
