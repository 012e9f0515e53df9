//! Per-router output-port allocation.
//!
//! Every cycle, each router must forward **all** of its in-flight input
//! packets somewhere — bufferless deflection routing has no place to park
//! a loser. The allocator walks inputs in hardware priority order
//! (`W_ex > N_ex > W_sh > N_sh`), gives each packet the best port from its
//! preference list, and — before committing a choice — checks that the
//! remaining packets can still all be matched to free ports. This
//! feasibility check is what the paper calls a "suitably designed routing
//! function": a fixed-priority mux cascade whose select logic never
//! strands an in-flight packet.
//!
//! Exit sharing: under [`ExitPolicy::SharedWithSouth`] the delivery port
//! and `S_sh` are one physical resource (Hoplite's two-mux switch), so
//! they occupy a single allocation *slot*.

use std::num::NonZeroU64;

use crate::config::ExitPolicy;
use crate::port::{OutPort, OutSet};
use crate::routing::RoutePrefs;

/// Maximum number of in-flight inputs at one router (W_ex, N_ex, W_sh, N_sh).
pub(crate) const MAX_IN_FLIGHT: usize = 4;

/// Maps an output port to its allocation slot bit.
///
/// Slots: `E_ex=0, E_sh=1, S_ex=2, S_sh=3, Exit=4`, except that under the
/// shared exit policy `Exit` maps onto slot 3 (same resource as `S_sh`).
fn slot_bit(port: OutPort, exit: ExitPolicy) -> u8 {
    match (port, exit) {
        (OutPort::Exit, ExitPolicy::SharedWithSouth) => 1 << 3,
        _ => 1 << port.index(),
    }
}

/// Converts a port set to a slot mask: the set's own bits (port index ==
/// slot index), with the `Exit` bit folded onto `S_sh`'s under the shared
/// exit policy.
fn slot_mask(ports: OutSet, exit: ExitPolicy) -> u8 {
    let bits = ports.bits();
    match exit {
        ExitPolicy::Dedicated => bits,
        ExitPolicy::SharedWithSouth => (bits & 0b0_1111) | ((bits >> 1) & 0b0_1000),
    }
}

/// True if every mask in `masks` can be matched to a distinct free slot.
/// Zero or one mask needs no search; only two or more can contend.
fn feasible(masks: &[u8], free: u8) -> bool {
    match masks {
        [] => true,
        [only] => only & free != 0,
        [first, rest @ ..] => {
            let mut options = first & free;
            while options != 0 {
                let bit = options & options.wrapping_neg();
                options &= options - 1;
                if feasible(rest, free & !bit) {
                    return true;
                }
            }
            false
        }
    }
}

/// Slot mask of `available` less the slots `taken` occupies.
fn free_after(available: OutSet, taken: impl IntoIterator<Item = OutPort>, exit: ExitPolicy) -> u8 {
    taken
        .into_iter()
        .fold(slot_mask(available, exit), |free, p| {
            free & !slot_bit(p, exit)
        })
}

/// The first port in `prefs` that exists at this router and whose slot is
/// still in `free` — for the PE's list, the port it injects on.
pub(crate) fn first_free(
    prefs: &RoutePrefs,
    available: OutSet,
    free: u8,
    exit: ExitPolicy,
) -> Option<OutPort> {
    prefs
        .ports()
        .iter()
        .copied()
        .find(|&p| available.contains(p) && free & slot_bit(p, exit) != 0)
}

/// The allocation result for the in-flight inputs, in the order given.
pub(crate) type Assignment = [Option<OutPort>; MAX_IN_FLIGHT];

/// Allocates output ports to in-flight packets.
///
/// * `inputs` — `(prefs)` per occupied input, already sorted by hardware
///   priority (highest first); at most [`MAX_IN_FLIGHT`] entries.
/// * `available` — output ports that physically exist at this router
///   (always includes `Exit`); pass with `Exit` removed when an external
///   arbiter (multi-channel delivery) blocked delivery this cycle.
/// * `exit` — exit-port sharing policy.
///
/// Returns the chosen output per input. Every input receives a port.
///
/// # Panics
///
/// Panics if the inputs cannot all be matched — this indicates a
/// connectivity-matrix bug, not a runtime condition: the FastTrack port
/// sets satisfy Hall's condition by construction (see module docs of
/// [`crate::router`]). Fault-degraded routers (dead links masked from
/// `available`) can genuinely violate Hall's condition; they must use
/// [`try_allocate`] instead.
pub(crate) fn allocate(inputs: &[RoutePrefs], available: OutSet, exit: ExitPolicy) -> Assignment {
    let mut assignment = try_allocate(inputs, available, exit);
    for (i, slot) in assignment.iter_mut().enumerate().take(inputs.len()) {
        assert!(
            slot.is_some(),
            "allocator stranded an in-flight packet: prefs {:?}, available {available:?}",
            inputs[i].ports()
        );
    }
    assignment
}

/// [`allocate`] without the all-matched guarantee: inputs that cannot be
/// assigned any port (possible when dead links shrink `available` below
/// Hall's condition) come back `None` instead of panicking. On any input
/// set that *can* be fully matched the result is identical to
/// [`allocate`]: the relaxation only engages once the look-ahead proves
/// the remainder unmatchable either way, in which case each packet still
/// takes its best free port and the stranding falls on the
/// lowest-priority loser — exactly how a fixed-priority mux cascade
/// degrades in hardware.
pub(crate) fn try_allocate(
    inputs: &[RoutePrefs],
    available: OutSet,
    exit: ExitPolicy,
) -> Assignment {
    assert!(inputs.len() <= MAX_IN_FLIGHT);
    let mut assignment: Assignment = [None; MAX_IN_FLIGHT];
    let mut free = slot_mask(available, exit);

    // The common visits: nothing in flight, or one packet with nobody
    // behind it to strand — it takes its best port that exists here
    // (every such port's slot is free).
    match inputs {
        [] => return assignment,
        [only] => {
            assignment[0] = first_free(only, available, free, exit);
            return assignment;
        }
        _ => {}
    }

    // Pref sets (as slot masks, pre-intersected with availability) of the
    // inputs not yet assigned; used for the look-ahead feasibility check.
    // The first input is never looked ahead to.
    let mut remaining: [u8; MAX_IN_FLIGHT] = [0; MAX_IN_FLIGHT];
    for (mask, prefs) in remaining.iter_mut().zip(inputs).skip(1) {
        *mask = slot_mask(prefs.as_set().intersect(available), exit);
    }

    for (i, prefs) in inputs.iter().enumerate() {
        let rest = &remaining[i + 1..inputs.len()];
        let mut chosen = None;
        for &p in prefs.ports() {
            if !available.contains(p) {
                continue;
            }
            let bit = slot_bit(p, exit);
            if free & bit == 0 {
                continue;
            }
            if feasible(rest, free & !bit) {
                chosen = Some(p);
                break;
            }
        }
        // No feasibility-preserving choice: the remainder is unmatchable
        // whatever this input does, so take the best free port anyway.
        if chosen.is_none() {
            chosen = first_free(prefs, available, free, exit);
        }
        if let Some(p) = chosen {
            free &= !slot_bit(p, exit);
        }
        assignment[i] = chosen;
    }
    assignment
}

/// Everything a router visit decides for its in-flight inputs, packed
/// into one word so the engine can memoise it (`kernel::DecisionTable`):
/// eight bits per input register — the assigned port's index (or
/// [`Decision::STRANDED`] when it gets none), whether that counts as a
/// deflection, whether it is a lane demotion, whether the Inject
/// policy's stranding rule took the packet, and the dead link its list
/// preferred, if any — then the slot mask left free for the PE, and a
/// top bit that keeps the word nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision(pub(crate) NonZeroU64);

impl Decision {
    const STRANDED: u64 = 7;
    const DEFLECTED: u64 = 1 << 3;
    const DEMOTED: u64 = 1 << 4;
    const STRANDED_EXPRESS: u64 = 1 << 5;
    const AVOIDED_SHIFT: usize = 6;
    const FREE_SHIFT: usize = 8 * MAX_IN_FLIGHT;

    /// Allocates `inputs` — one list per input register in
    /// [`InPort::index`](crate::port::InPort::index) order, the empty
    /// list for an empty register — and classifies each assignment the
    /// way the statistics count it: *deflected* when the port is not
    /// productive, else *demoted* when the packet wanted express and
    /// rides a short link. `must_match` selects [`allocate`] over
    /// [`try_allocate`].
    pub(crate) fn decide(
        inputs: &[RoutePrefs; MAX_IN_FLIGHT],
        available: OutSet,
        exit: ExitPolicy,
        must_match: bool,
    ) -> Decision {
        let mut prefs = [RoutePrefs::empty(); MAX_IN_FLIGHT];
        let mut slots = [0; MAX_IN_FLIGHT];
        let mut n = 0;
        for (slot, input) in inputs.iter().enumerate() {
            if !input.ports().is_empty() {
                (prefs[n], slots[n]) = (*input, slot);
                n += 1;
            }
        }
        let allocator = if must_match { allocate } else { try_allocate };
        let assignment = allocator(&prefs[..n], available, exit);
        let free = free_after(available, assignment.iter().flatten().copied(), exit);
        let mut word = 1 << 63 | u64::from(free) << Self::FREE_SHIFT;
        for i in 0..n {
            let code = assignment[i].map_or(Self::STRANDED, |out| {
                let deflected = !prefs[i].productive().contains(out);
                let demoted = !deflected
                    && prefs[i].wanted_express()
                    && !out.is_express()
                    && out != OutPort::Exit;
                out.index() as u64
                    | if deflected { Self::DEFLECTED } else { 0 }
                    | if demoted { Self::DEMOTED } else { 0 }
            });
            word |= code << (8 * slots[i]);
        }
        Decision(NonZeroU64::new(word).expect("the top bit is set"))
    }

    /// What a router does on a visit with live `outputs`, `dead` being
    /// its dead links: [`Decision::decide`] after the Inject policy's
    /// stranding rule. That crossbar has no express-to-shared turn, so
    /// an express packet whose every productive output is dead would
    /// orbit the express ring forever; it is dropped instead or, with
    /// `demote` (the fallback chain's first step), placed by
    /// `demoted[slot]`, its shared twin's list. An input whose `demoted`
    /// list is empty never strands. Each input also records the first
    /// dead link its list counted productive ([`Decision::avoided`]).
    pub(crate) fn of_visit(
        mut inputs: [RoutePrefs; MAX_IN_FLIGHT],
        demoted: &[RoutePrefs; MAX_IN_FLIGHT],
        outputs: OutSet,
        dead: OutSet,
        exit: ExitPolicy,
        demote: bool,
    ) -> Decision {
        let mut faults = 0;
        for (slot, input) in inputs.iter_mut().enumerate() {
            let productive = input.productive();
            let Some(avoided) = productive.intersect(dead).iter().next() else {
                continue;
            };
            debug_assert!(avoided.is_express(), "only express links die");
            let avoided = 1 + avoided.index() as u64 / 2;
            faults |= avoided << (8 * slot + Self::AVOIDED_SHIFT);
            if !demoted[slot].ports().is_empty() && productive.difference(dead).is_empty() {
                faults |= Self::STRANDED_EXPRESS << (8 * slot);
                if demote {
                    *input = demoted[slot];
                } else {
                    // Dropped: left out of the allocation, assigned no port.
                    *input = RoutePrefs::empty();
                    faults |= Self::STRANDED << (8 * slot);
                }
            }
        }
        let decision = Decision::decide(&inputs, outputs, exit, dead.is_empty());
        Decision(decision.0 | faults)
    }

    /// Bits `8 * slot ..` of the word.
    #[inline]
    fn field(self, slot: usize) -> u64 {
        self.0.get() >> (8 * slot)
    }

    /// The port assigned to the packet in input register `slot`; `None`
    /// when it was stranded — by the Inject rule, or by dead links that
    /// left too few outputs. Meaningless for an empty register.
    #[inline]
    pub(crate) fn out(self, slot: usize) -> Option<OutPort> {
        let code = self.field(slot) & 7;
        (code != Self::STRANDED).then(|| OutPort::ALL[code as usize])
    }

    /// Whether `slot`'s assignment is a deflection.
    #[inline]
    pub(crate) fn deflected(self, slot: usize) -> bool {
        self.field(slot) & Self::DEFLECTED != 0
    }

    /// Whether `slot`'s assignment is a lane demotion.
    #[inline]
    pub(crate) fn demoted(self, slot: usize) -> bool {
        self.field(slot) & Self::DEMOTED != 0
    }

    /// Whether the Inject policy's stranding rule took the express packet
    /// in `slot` ([`Decision::of_visit`]): it is dropped when
    /// [`Decision::out`] is `None`, demoted onto the shared ring
    /// otherwise.
    #[inline]
    pub(crate) fn stranded_express(self, slot: usize) -> bool {
        self.field(slot) & Self::STRANDED_EXPRESS != 0
    }

    /// Whether the stranding rule took any input.
    #[inline]
    pub(crate) fn any_stranded_express(self) -> bool {
        self.0.get() & (Self::STRANDED_EXPRESS * 0x0101_0101) != 0
    }

    /// The first dead link `slot`'s list counted productive.
    #[inline]
    pub(crate) fn avoided(self, slot: usize) -> Option<OutPort> {
        match self.field(slot) >> Self::AVOIDED_SHIFT & 3 {
            0 => None,
            code => Some(OutPort::ALL[2 * (code as usize - 1)]),
        }
    }

    /// The slot mask the in-flight assignments leave free — what
    /// [`first_free`] takes for the PE.
    #[inline]
    pub(crate) fn free(self) -> u8 {
        (self.0.get() >> Self::FREE_SHIFT & 0b1_1111) as u8
    }
}

/// What the PE does once the in-flight inputs are placed: the port it
/// injects on (`None`: it stalls) and, when it injects, the first dead
/// link its list counted productive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Injection {
    pub(crate) out: Option<OutPort>,
    pub(crate) avoided: Option<OutPort>,
}

impl Injection {
    /// The first port of the PE's list `pe` that is live and whose slot
    /// the in-flight inputs left in `free` ([`Decision::free`]).
    pub(crate) fn of(
        pe: &RoutePrefs,
        outputs: OutSet,
        dead: OutSet,
        free: u8,
        exit: ExitPolicy,
    ) -> Injection {
        let out = first_free(pe, outputs, free, exit);
        let avoided = out.and_then(|_| pe.productive().intersect(dead).iter().next());
        Injection { out, avoided }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FtPolicy, NocConfig};
    use crate::geom::Coord;
    use crate::port::InPort;
    use crate::router::RouterClass;
    use crate::routing::compute_prefs;

    fn shared() -> ExitPolicy {
        ExitPolicy::SharedWithSouth
    }

    /// The port the PE injects on once `taken` is assigned: the pair of
    /// calls the engine makes after a router's in-flight decision.
    fn inject(
        pe: &RoutePrefs,
        available: OutSet,
        taken: &[OutPort],
        exit: ExitPolicy,
    ) -> Option<OutPort> {
        first_free(
            pe,
            available,
            free_after(available, taken.iter().copied(), exit),
            exit,
        )
    }

    #[test]
    fn slot_sharing_links_exit_and_south() {
        assert_eq!(
            slot_bit(OutPort::Exit, ExitPolicy::SharedWithSouth),
            slot_bit(OutPort::SouthSh, ExitPolicy::SharedWithSouth)
        );
        assert_ne!(
            slot_bit(OutPort::Exit, ExitPolicy::Dedicated),
            slot_bit(OutPort::SouthSh, ExitPolicy::Dedicated)
        );
    }

    #[test]
    fn feasibility_simple() {
        // Two inputs that both need the same single slot: infeasible.
        assert!(!feasible(&[0b0001, 0b0001], 0b0001));
        // Disjoint: feasible.
        assert!(feasible(&[0b0001, 0b0010], 0b0011));
        // Classic alternating chain.
        assert!(feasible(&[0b0011, 0b0001], 0b0011));
        assert!(!feasible(&[0b0011, 0b0001, 0b0010], 0b0011));
        assert!(feasible(&[], 0));
    }

    /// Hoplite: W at destination (wants exit), N wants south. Exit shares
    /// the S_sh slot, so N must deflect east — the canonical Hoplite
    /// deflection.
    #[test]
    fn hoplite_exit_deflects_north_traffic() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let class = RouterClass::HOPLITE;
        let at = Coord::new(2, 2);
        let w = compute_prefs(&cfg, class, InPort::WestSh, at, at); // at dest
        let n = compute_prefs(&cfg, class, InPort::NorthSh, at, Coord::new(2, 5));
        let avail = class.available_outputs();
        let a = allocate(&[w, n], avail, shared());
        assert_eq!(a[0], Some(OutPort::Exit));
        assert_eq!(a[1], Some(OutPort::EastSh)); // deflected
    }

    /// With a dedicated exit the same scenario lets N proceed south.
    #[test]
    fn dedicated_exit_does_not_block_south() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let class = RouterClass::HOPLITE;
        let at = Coord::new(2, 2);
        let w = compute_prefs(&cfg, class, InPort::WestSh, at, at);
        let n = compute_prefs(&cfg, class, InPort::NorthSh, at, Coord::new(2, 5));
        let a = allocate(&[w, n], class.available_outputs(), ExitPolicy::Dedicated);
        assert_eq!(a[0], Some(OutPort::Exit));
        assert_eq!(a[1], Some(OutPort::SouthSh));
    }

    /// W turning south beats N continuing south (W→S is the highest
    /// priority turn); N deflects east.
    #[test]
    fn turn_priority_deflects_column_traffic() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let class = RouterClass::HOPLITE;
        let at = Coord::new(2, 2);
        let w = compute_prefs(&cfg, class, InPort::WestSh, at, Coord::new(2, 6));
        let n = compute_prefs(&cfg, class, InPort::NorthSh, at, Coord::new(2, 6));
        let a = allocate(&[w, n], class.available_outputs(), shared());
        assert_eq!(a[0], Some(OutPort::SouthSh));
        assert_eq!(a[1], Some(OutPort::EastSh));
    }

    /// The four-input FT(Full) stress case from the design notes: the
    /// feasibility look-ahead must deflect N_ex onto the express ring so
    /// that N_sh is not stranded.
    #[test]
    fn full_router_four_way_conflict_is_resolved() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        let class = RouterClass::FULL;
        let at = Coord::new(2, 2);
        // W_ex turning south with misaligned dy (wants S_sh).
        let wex = compute_prefs(&cfg, class, InPort::WestEx, at, Coord::new(2, 5));
        // N_ex turning east with misaligned dx (wants E_sh).
        let nex = compute_prefs(&cfg, class, InPort::NorthEx, at, Coord::new(5, 2));
        // W_sh continuing east (misaligned dx).
        let wsh = compute_prefs(&cfg, class, InPort::WestSh, at, Coord::new(5, 4));
        // N_sh continuing south (misaligned dy).
        let nsh = compute_prefs(&cfg, class, InPort::NorthSh, at, Coord::new(2, 5));
        let a = allocate(&[wex, nex, wsh, nsh], class.available_outputs(), shared());
        // Everyone got a port, all distinct slots.
        let ports: Vec<_> = a.iter().flatten().copied().collect();
        assert_eq!(ports.len(), 4);
        assert_eq!(a[0], Some(OutPort::SouthSh)); // highest priority turn wins
                                                  // N_sh can only use S_sh/E_sh; S_sh is gone, so it must get E_sh.
        assert_eq!(a[3], Some(OutPort::EastSh));
        // Which forces N_ex off E_sh onto an express deflection.
        assert!(matches!(
            a[1],
            Some(OutPort::EastEx) | Some(OutPort::SouthEx)
        ));
    }

    #[test]
    fn injection_takes_leftover_port() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let class = RouterClass::HOPLITE;
        let at = Coord::new(0, 0);
        let pe = compute_prefs(&cfg, class, InPort::Pe, at, Coord::new(3, 0));
        // Nothing taken: injects east.
        assert_eq!(
            inject(&pe, class.available_outputs(), &[], shared()),
            Some(OutPort::EastSh)
        );
        // East taken: PE stalls (it never deflects).
        assert_eq!(
            inject(&pe, class.available_outputs(), &[OutPort::EastSh], shared()),
            None
        );
    }

    #[test]
    fn injection_blocked_by_shared_exit() {
        let cfg = NocConfig::hoplite(8).unwrap();
        let class = RouterClass::HOPLITE;
        let at = Coord::new(0, 0);
        // PE wants south; a delivery this cycle consumed the shared slot.
        let pe = compute_prefs(&cfg, class, InPort::Pe, at, Coord::new(0, 3));
        assert_eq!(
            inject(&pe, class.available_outputs(), &[OutPort::Exit], shared()),
            None
        );
        // Dedicated exit: south is still free.
        assert_eq!(
            inject(
                &pe,
                class.available_outputs(),
                &[OutPort::Exit],
                ExitPolicy::Dedicated
            ),
            Some(OutPort::SouthSh)
        );
    }
}
