//! The FastTrack routing function: Dimension-Ordered Routing with express
//! preference, deflection fallbacks, and injection-time express
//! eligibility.
//!
//! For each packet at each router, the routing function produces an
//! **ordered preference list** of output ports:
//!
//! 1. the productive ports (express first when the remaining distance
//!    warrants it, then the short lane in the same direction), then
//! 2. deflection fallbacks — east before south (X-ring traffic has
//!    priority and deflecting a Y-phase packet east is the paper's
//!    livelock-avoidance move), same lane as the input first.
//!
//! The port allocator ([`crate::alloc`]) walks this list in priority order.

use crate::config::{FtPolicy, NocConfig};
use crate::geom::Coord;
use crate::port::{InPort, OutPort, OutSet};
use crate::router::{allowed_outputs, RouterClass};

/// An ordered preference list plus the statistics classification sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoutePrefs {
    list: [OutPort; 5],
    len: u8,
    /// Ports whose assignment counts as DOR progress (not a deflection).
    productive: OutSet,
    /// True when the first choice was an express port (used to count
    /// lane demotions: wanted express, was forced onto a short link).
    wanted_express: bool,
}

impl RoutePrefs {
    /// An empty preference list (no ports, nothing productive). Used as
    /// the filler value in the engine's fixed-size per-cycle buffers so
    /// the hot path never heap-allocates.
    pub(crate) const fn empty() -> RoutePrefs {
        RoutePrefs {
            list: [OutPort::Exit; 5],
            len: 0,
            productive: OutSet::empty(),
            wanted_express: false,
        }
    }

    /// The preference list, best first. Never empty for a routable packet.
    pub(crate) fn ports(&self) -> &[OutPort] {
        &self.list[..self.len as usize]
    }

    /// The first-choice port.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty (cannot happen for lists produced by
    /// [`compute_prefs`] on inputs that exist at the router).
    pub(crate) fn primary(&self) -> OutPort {
        self.list[0]
    }

    /// Ports that count as DOR progress.
    pub(crate) fn productive(&self) -> OutSet {
        self.productive
    }

    /// Whether the packet wanted the express lane this cycle.
    pub(crate) fn wanted_express(&self) -> bool {
        self.wanted_express
    }

    /// The full set of ports in the list (for matching feasibility).
    pub(crate) fn as_set(&self) -> OutSet {
        OutSet::from_ports(self.ports())
    }

    fn push(&mut self, p: OutPort) {
        if !self.ports().contains(&p) {
            debug_assert!((self.len as usize) < self.list.len());
            self.list[self.len as usize] = p;
            self.len += 1;
        }
    }
}

/// What a packet wants to do at a router, before port availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Desire {
    /// Travel east (`dx > 0`).
    East {
        /// Boarding/continuing the express lane is warranted here.
        express: bool,
    },
    /// Travel south (`dx == 0`, `dy > 0`).
    South {
        /// Boarding/continuing the express lane is warranted here.
        express: bool,
    },
    /// Arrived (`dx == 0 && dy == 0`): deliver to the PE.
    Exit,
}

/// Computes the DOR desire of a packet at `at` heading for `dst`.
///
/// The express flag is the *topology-level* answer (is this router
/// express-capable in that dimension, and is the remaining distance
/// express-reachable in no more cycles than short hops). Whether the
/// particular input port may actually reach the express output is the
/// connectivity matrix's concern.
pub(crate) fn desire(cfg: &NocConfig, at: Coord, dst: Coord) -> Desire {
    let n = cfg.n();
    let dx = at.dx_to(dst, n);
    let dy = at.dy_to(dst, n);
    if dx > 0 {
        Desire::East {
            express: cfg.has_express_at(at.x) && cfg.express_worthwhile(dx),
        }
    } else if dy > 0 {
        Desire::South {
            express: cfg.has_express_at(at.y) && cfg.express_worthwhile(dy),
        }
    } else {
        Desire::Exit
    }
}

/// Injection-time whole-path express eligibility for the FTlite (Inject)
/// policy: a packet may board the express lane at the PE only if its
/// entire journey — the X leg, the turn, and the Y leg — stays on express
/// links until delivery (paper §IV-B).
fn inject_express_eligible(cfg: &NocConfig, at: Coord, dst: Coord) -> bool {
    let n = cfg.n();
    let dx = at.dx_to(dst, n);
    let dy = at.dy_to(dst, n);
    if dx > 0 {
        // X leg from column at.x, then (if needed) Y leg from row at.y;
        // the turn router (dst.x, at.y) has a South express output iff
        // at.y is an express-capable row position.
        cfg.has_express_at(at.x)
            && cfg.express_worthwhile(dx)
            && (dy == 0 || (cfg.has_express_at(at.y) && cfg.express_worthwhile(dy)))
    } else if dy > 0 {
        cfg.has_express_at(at.y) && cfg.express_worthwhile(dy)
    } else {
        false
    }
}

/// Builds the ordered preference list for a packet arriving on `in_port`
/// at router `at`, heading for `dst`.
///
/// The result is never empty as long as `in_port` exists at the router's
/// class (every existing input reaches at least `Exit` plus one lane).
pub(crate) fn compute_prefs(
    cfg: &NocConfig,
    class: RouterClass,
    in_port: InPort,
    at: Coord,
    dst: Coord,
) -> RoutePrefs {
    let allowed = allowed_outputs(cfg.ft_policy(), class, in_port);
    debug_assert!(
        !allowed.is_empty(),
        "input {in_port} does not exist at {at}"
    );

    let mut prefs = RoutePrefs {
        list: [OutPort::Exit; 5],
        len: 0,
        productive: OutSet::empty(),
        wanted_express: false,
    };

    let n = cfg.n();
    let dx = at.dx_to(dst, n);
    let dy = at.dy_to(dst, n);
    let des = desire(cfg, at, dst);

    // Primary (productive) choices.
    match des {
        Desire::Exit => {
            prefs.productive.insert(OutPort::Exit);
            prefs.push(OutPort::Exit);
        }
        Desire::East { express } => {
            // Escape turn: an express-lane packet whose remaining dx is
            // not express-reachable must leave the lane *now* via the
            // W_ex -> S_sh turn, even at the cost of a misroute south —
            // otherwise it orbits the express ring forever. (Such packets
            // only exist after a last-resort misaligned deflection below.)
            if in_port == InPort::WestEx
                && !cfg.express_aligned(dx)
                && allowed.contains(OutPort::SouthSh)
            {
                prefs.push(OutPort::SouthSh);
            }
            let want_ex = express_choice_for_port(cfg, in_port, at, dst, express);
            if want_ex && allowed.contains(OutPort::EastEx) {
                prefs.wanted_express = true;
                prefs.productive.insert(OutPort::EastEx);
                prefs.push(OutPort::EastEx);
            }
            if allowed.contains(OutPort::EastSh) {
                prefs.productive.insert(OutPort::EastSh);
                prefs.push(OutPort::EastSh);
            }
            // A continuing express packet that is not allowed E_sh (lane
            // isolation) has only E_ex as a productive port; still mark it.
            if prefs.len == 0 && allowed.contains(OutPort::EastEx) {
                prefs.productive.insert(OutPort::EastEx);
                prefs.push(OutPort::EastEx);
            }
        }
        Desire::South { express } => {
            // Escape turn for misaligned Y-express packets: N_ex -> E_sh.
            if in_port == InPort::NorthEx
                && !cfg.express_aligned(dy)
                && allowed.contains(OutPort::EastSh)
            {
                prefs.push(OutPort::EastSh);
            }
            let want_ex = express_choice_for_port(cfg, in_port, at, dst, express);
            if want_ex && allowed.contains(OutPort::SouthEx) {
                prefs.wanted_express = true;
                prefs.productive.insert(OutPort::SouthEx);
                prefs.push(OutPort::SouthEx);
            }
            if allowed.contains(OutPort::SouthSh) {
                prefs.productive.insert(OutPort::SouthSh);
                prefs.push(OutPort::SouthSh);
            }
            if prefs.len == 0 && allowed.contains(OutPort::SouthEx) {
                prefs.productive.insert(OutPort::SouthEx);
                prefs.push(OutPort::SouthEx);
            }
        }
    }

    // The PE never injects onto a deflecting path: it stalls instead
    // (paper: the client port has the lowest priority and waits).
    if in_port == InPort::Pe {
        return prefs;
    }

    // Deflection fallbacks: east lanes before south lanes (X-ring
    // priority; deflecting east preserves Y progress), same lane as the
    // input first so express traffic circulates on express rings.
    //
    // Pass 1 admits an express port only when the packet's remaining
    // offset in that dimension stays express-reachable (offset mod
    // gcd(D, N) is invariant under express hops). Pass 2 then admits the
    // remaining physically-connected ports as true last resorts — a
    // misaligned express deflection is survivable because the escape
    // turns above get such packets off the lane on the next hop.
    let deflect_order: [OutPort; 4] = if in_port.is_express() {
        [
            OutPort::EastEx,
            OutPort::EastSh,
            OutPort::SouthEx,
            OutPort::SouthSh,
        ]
    } else {
        [
            OutPort::EastSh,
            OutPort::EastEx,
            OutPort::SouthSh,
            OutPort::SouthEx,
        ]
    };
    for p in deflect_order {
        let alignment_ok = match p {
            OutPort::EastEx => cfg.express_aligned(dx),
            OutPort::SouthEx => cfg.express_aligned(dy),
            _ => true,
        };
        if alignment_ok && allowed.contains(p) {
            prefs.push(p);
        }
    }
    for p in deflect_order {
        if allowed.contains(p) {
            prefs.push(p);
        }
    }

    debug_assert!(
        prefs.len > 0,
        "empty prefs: {} class {class:?} port {in_port} at {at} dst {dst}",
        cfg.name()
    );
    prefs
}

/// The list a stranded express packet is demoted to by the fallback
/// chain's first step: what its input's shared twin (`W_ex → W_sh`,
/// `N_ex → N_sh`) routes. Empty for every input but an express one under
/// the Inject policy, the only crossbar that strands a packet.
pub(crate) fn demoted_prefs(
    cfg: &NocConfig,
    class: RouterClass,
    in_port: InPort,
    at: Coord,
    dst: Coord,
) -> RoutePrefs {
    match (cfg.ft_policy(), in_port.is_express()) {
        (Some(FtPolicy::Inject), true) => compute_prefs(cfg, class, twin(in_port), at, dst),
        _ => RoutePrefs::empty(),
    }
}

/// The shared input of an express input's lane direction: `W_ex → W_sh`,
/// `N_ex → N_sh`.
pub(crate) fn twin(express: InPort) -> InPort {
    debug_assert!(express.is_express());
    InPort::ALL[express.index() + 2]
}

/// Whether this particular input should *try* the express lane: the
/// topology-level desire, specialized per lane-change policy. Under the
/// Inject policy a short-lane packet never boards express mid-flight, and
/// a PE packet boards only when the whole path is express-reachable.
fn express_choice_for_port(
    cfg: &NocConfig,
    in_port: InPort,
    at: Coord,
    dst: Coord,
    topology_express: bool,
) -> bool {
    match cfg.ft_policy() {
        None => false,
        // Under Full, express alignment is an invariant of every packet on
        // an express input (boarding requires it and every legal move
        // preserves it), so the topology-level desire is the whole answer.
        Some(FtPolicy::Full) => topology_express,
        Some(FtPolicy::Inject) => match in_port {
            // Express packets stay express; connectivity enforces it, the
            // preference merely agrees.
            InPort::WestEx | InPort::NorthEx => true,
            InPort::WestSh | InPort::NorthSh => false,
            InPort::Pe => inject_express_eligible(cfg, at, dst),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;

    fn ft_full(n: u16, d: u16, r: u16) -> NocConfig {
        NocConfig::fasttrack(n, d, r, FtPolicy::Full).unwrap()
    }

    #[test]
    fn desire_follows_dor() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let at = Coord::new(1, 1);
        assert_eq!(
            desire(&cfg, at, Coord::new(5, 4)),
            Desire::East { express: false }
        );
        assert_eq!(
            desire(&cfg, at, Coord::new(1, 4)),
            Desire::South { express: false }
        );
        assert_eq!(desire(&cfg, at, at), Desire::Exit);
    }

    #[test]
    fn desire_express_when_aligned() {
        let cfg = ft_full(8, 2, 1);
        let at = Coord::new(0, 0);
        assert_eq!(
            desire(&cfg, at, Coord::new(4, 0)),
            Desire::East { express: true }
        );
        assert_eq!(
            desire(&cfg, at, Coord::new(3, 0)),
            Desire::East { express: false } // odd offset unreachable with D=2
        );
        assert_eq!(
            desire(&cfg, at, Coord::new(0, 6)),
            Desire::South { express: true }
        );
    }

    #[test]
    fn desire_respects_depopulation() {
        let cfg = NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap();
        // Router at odd x has no X express ports.
        assert_eq!(
            desire(&cfg, Coord::new(1, 0), Coord::new(5, 0)),
            Desire::East { express: false }
        );
        assert_eq!(
            desire(&cfg, Coord::new(2, 0), Coord::new(6, 0)),
            Desire::East { express: true }
        );
    }

    #[test]
    fn hoplite_prefs_basic() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let class = RouterClass::HOPLITE;
        let at = Coord::new(0, 0);
        // Eastbound W packet: E_sh then deflect S_sh.
        let p = compute_prefs(&cfg, class, InPort::WestSh, at, Coord::new(4, 4));
        assert_eq!(p.primary(), OutPort::EastSh);
        assert_eq!(p.ports(), &[OutPort::EastSh, OutPort::SouthSh]);
        // Southbound N packet: S_sh then deflect E_sh (the Hoplite rule).
        let p = compute_prefs(&cfg, class, InPort::NorthSh, at, Coord::new(0, 4));
        assert_eq!(p.ports(), &[OutPort::SouthSh, OutPort::EastSh]);
        // At destination: exit, else loop around.
        let p = compute_prefs(&cfg, class, InPort::WestSh, at, at);
        assert_eq!(p.primary(), OutPort::Exit);
        assert!(p.productive().contains(OutPort::Exit));
    }

    #[test]
    fn pe_prefs_never_deflect() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let p = compute_prefs(
            &cfg,
            RouterClass::HOPLITE,
            InPort::Pe,
            Coord::new(0, 0),
            Coord::new(3, 0),
        );
        assert_eq!(p.ports(), &[OutPort::EastSh]); // no southward injection
    }

    #[test]
    fn ft_full_east_express_preference() {
        let cfg = ft_full(8, 2, 1);
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::WestSh,
            Coord::new(0, 0),
            Coord::new(4, 0),
        );
        assert_eq!(p.primary(), OutPort::EastEx); // upgrade preferred
        assert!(p.wanted_express());
        assert!(p.productive().contains(OutPort::EastSh));
        // Misaligned offset: short lane first, express only as deflection.
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::WestSh,
            Coord::new(0, 0),
            Coord::new(3, 0),
        );
        assert_eq!(p.primary(), OutPort::EastSh);
        assert!(!p.wanted_express());
        assert!(!p.productive().contains(OutPort::EastEx));
    }

    #[test]
    fn ft_full_express_turn() {
        let cfg = ft_full(8, 2, 1);
        // W_ex packet at its destination column turning south, dy = 4:
        // express-aligned dy keeps it on the express lane (S_ex), with
        // the S_sh livelock turn as fallback.
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::WestEx,
            Coord::new(5, 0),
            Coord::new(5, 4),
        );
        assert_eq!(p.primary(), OutPort::SouthEx);
        assert!(p.ports().contains(&OutPort::SouthSh));
        // Misaligned dy = 3: must leave express via the W_ex -> S_sh turn.
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::WestEx,
            Coord::new(5, 0),
            Coord::new(5, 3),
        );
        assert_eq!(p.primary(), OutPort::SouthSh);
    }

    #[test]
    fn ft_full_continuing_express_prefers_express() {
        let cfg = ft_full(8, 2, 1);
        // W_ex packet with dx = 2 (one more express hop).
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::WestEx,
            Coord::new(0, 0),
            Coord::new(2, 5),
        );
        assert_eq!(p.primary(), OutPort::EastEx);
        // E_sh must not appear anywhere: W_ex -> E_sh is forbidden.
        assert!(!p.ports().contains(&OutPort::EastSh));
    }

    #[test]
    fn inject_policy_short_packets_stay_short() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Inject).unwrap();
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::WestSh,
            Coord::new(0, 0),
            Coord::new(4, 0),
        );
        assert_eq!(p.primary(), OutPort::EastSh);
        assert!(!p.ports().contains(&OutPort::EastEx));
    }

    #[test]
    fn inject_eligibility_whole_path() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Inject).unwrap();
        let at = Coord::new(0, 0);
        assert!(inject_express_eligible(&cfg, at, Coord::new(4, 0))); // X only
        assert!(inject_express_eligible(&cfg, at, Coord::new(4, 6))); // X then Y
        assert!(inject_express_eligible(&cfg, at, Coord::new(0, 2))); // Y only
        assert!(!inject_express_eligible(&cfg, at, Coord::new(3, 0))); // odd dx
        assert!(!inject_express_eligible(&cfg, at, Coord::new(4, 3))); // odd dy
        assert!(!inject_express_eligible(&cfg, at, at)); // self
    }

    #[test]
    fn inject_eligibility_depopulated_rows() {
        let cfg = NocConfig::fasttrack(8, 2, 2, FtPolicy::Inject).unwrap();
        // From an express-capable column but a non-express row: the turn
        // router would lack an S_ex output, so an X+Y path is ineligible.
        assert!(!inject_express_eligible(
            &cfg,
            Coord::new(0, 1),
            Coord::new(4, 5)
        ));
        assert!(inject_express_eligible(
            &cfg,
            Coord::new(0, 0),
            Coord::new(4, 4)
        ));
        // Pure X path from a non-express-capable column: ineligible.
        assert!(!inject_express_eligible(
            &cfg,
            Coord::new(1, 0),
            Coord::new(5, 0)
        ));
    }

    #[test]
    fn pe_inject_policy_prefs() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Inject).unwrap();
        // Eligible whole-path: express first, short fallback.
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::Pe,
            Coord::new(0, 0),
            Coord::new(4, 4),
        );
        assert_eq!(p.ports(), &[OutPort::EastEx, OutPort::EastSh]);
        // Ineligible: short lane only.
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::Pe,
            Coord::new(0, 0),
            Coord::new(3, 4),
        );
        assert_eq!(p.ports(), &[OutPort::EastSh]);
    }

    #[test]
    fn deflection_order_prefers_east_and_same_lane() {
        let cfg = ft_full(8, 2, 1);
        // N_ex turning east at its destination row (dy == 0, dx > 0,
        // misaligned): primary E_sh (the livelock turn), deflections keep
        // it on express lanes first.
        let p = compute_prefs(
            &cfg,
            RouterClass::FULL,
            InPort::NorthEx,
            Coord::new(0, 3),
            Coord::new(3, 3),
        );
        assert_eq!(p.primary(), OutPort::EastSh);
        let rest: Vec<_> = p.ports()[1..].to_vec();
        // dx=3 is misaligned for D=2, so the aligned S_ex deflection
        // (dy=0) is preferred and the misaligned E_ex is a last resort.
        assert_eq!(rest, vec![OutPort::SouthEx, OutPort::EastEx]);
        // N_ex -> S_sh is forbidden by connectivity.
        assert!(!p.ports().contains(&OutPort::SouthSh));
    }

    #[test]
    fn prefs_never_empty_for_existing_inputs() {
        for cfg in [
            NocConfig::hoplite(4).unwrap(),
            ft_full(8, 2, 1),
            NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap(),
            NocConfig::fasttrack(8, 4, 2, FtPolicy::Inject).unwrap(),
        ] {
            let n = cfg.n();
            for x in 0..n {
                for y in 0..n {
                    let at = Coord::new(x, y);
                    let class = RouterClass::of(&cfg, at);
                    for port in InPort::ALL {
                        if !class.has_input(port)
                            || (cfg.ft_policy().is_none() && port.is_express())
                        {
                            continue;
                        }
                        for dx in 0..n {
                            for dy in 0..n {
                                let dst = Coord::new(dx, dy);
                                let p = compute_prefs(&cfg, class, port, at, dst);
                                assert!(
                                    !p.ports().is_empty(),
                                    "empty prefs: {} at {at} port {port} dst {dst}",
                                    cfg.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
