//! Router port naming and small port-set bitmasks.
//!
//! Port names follow the paper's Figure 9: inputs arrive from the **west**
//! (X ring) and the **north** (Y ring) on short (`Sh`) or express (`Ex`)
//! links, plus the local `PE` injection port. Outputs leave **east** and
//! **south**, plus the packet `Exit` (delivery to the local PE).

use std::fmt;

/// Router input ports, in decreasing allocation priority.
///
/// The ordering encodes the paper's priority rules (§IV-C/§IV-D): express
/// inputs carry the highest priority (they host the livelock-critical
/// `W_ex → S_sh` and `N_ex → E_sh` turns), west (X ring, turning) traffic
/// beats north (Y ring) traffic, and the PE injects last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InPort {
    /// West express input (from the router `D` hops west).
    WestEx,
    /// North express input (from the router `D` hops north).
    NorthEx,
    /// West short input (from the adjacent router west).
    WestSh,
    /// North short input (from the adjacent router north).
    NorthSh,
    /// Local PE injection.
    Pe,
}

impl InPort {
    /// All in-flight (non-PE) inputs in allocation priority order.
    pub(crate) const IN_FLIGHT: [InPort; 4] = [
        InPort::WestEx,
        InPort::NorthEx,
        InPort::WestSh,
        InPort::NorthSh,
    ];

    /// All inputs in allocation priority order.
    pub(crate) const ALL: [InPort; 5] = [
        InPort::WestEx,
        InPort::NorthEx,
        InPort::WestSh,
        InPort::NorthSh,
        InPort::Pe,
    ];

    /// True for the two express inputs.
    pub(crate) fn is_express(self) -> bool {
        matches!(self, InPort::WestEx | InPort::NorthEx)
    }

    /// Dense index used by per-port statistics arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            InPort::WestEx => 0,
            InPort::NorthEx => 1,
            InPort::WestSh => 2,
            InPort::NorthSh => 3,
            InPort::Pe => 4,
        }
    }
}

impl fmt::Display for InPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InPort::WestEx => "W_ex",
            InPort::NorthEx => "N_ex",
            InPort::WestSh => "W_sh",
            InPort::NorthSh => "N_sh",
            InPort::Pe => "PE",
        };
        f.write_str(s)
    }
}

/// Router output ports (plus packet exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OutPort {
    /// East express output (to the router `D` hops east).
    EastEx,
    /// East short output (to the adjacent router east).
    EastSh,
    /// South express output (to the router `D` hops south).
    SouthEx,
    /// South short output (to the adjacent router south).
    SouthSh,
    /// Delivery to the local PE.
    Exit,
}

impl OutPort {
    /// All outputs.
    pub const ALL: [OutPort; 5] = [
        OutPort::EastEx,
        OutPort::EastSh,
        OutPort::SouthEx,
        OutPort::SouthSh,
        OutPort::Exit,
    ];

    /// True for the two express outputs.
    pub(crate) fn is_express(self) -> bool {
        matches!(self, OutPort::EastEx | OutPort::SouthEx)
    }

    /// True for the east-bound (X ring) outputs.
    pub fn is_east(self) -> bool {
        matches!(self, OutPort::EastEx | OutPort::EastSh)
    }

    /// Dense index used by bitmasks and statistics arrays.
    pub fn index(self) -> usize {
        match self {
            OutPort::EastEx => 0,
            OutPort::EastSh => 1,
            OutPort::SouthEx => 2,
            OutPort::SouthSh => 3,
            OutPort::Exit => 4,
        }
    }
}

impl fmt::Display for OutPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OutPort::EastEx => "E_ex",
            OutPort::EastSh => "E_sh",
            OutPort::SouthEx => "S_ex",
            OutPort::SouthSh => "S_sh",
            OutPort::Exit => "Exit",
        };
        f.write_str(s)
    }
}

/// A small set of output ports, stored as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct OutSet(u8);

impl OutSet {
    /// The empty set.
    pub(crate) const fn empty() -> Self {
        OutSet(0)
    }

    /// Builds a set from a slice of ports.
    pub(crate) fn from_ports(ports: &[OutPort]) -> Self {
        let mut s = OutSet::empty();
        for &p in ports {
            s.insert(p);
        }
        s
    }

    /// Adds a port to the set.
    pub(crate) fn insert(&mut self, p: OutPort) {
        self.0 |= 1 << p.index();
    }

    /// Removes a port from the set.
    pub(crate) fn remove(&mut self, p: OutPort) {
        self.0 &= !(1 << p.index());
    }

    /// Membership test.
    pub(crate) fn contains(self, p: OutPort) -> bool {
        self.0 & (1 << p.index()) != 0
    }

    /// Number of ports in the set.
    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if no port is in the set.
    pub(crate) fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw bitmask: bit [`OutPort::index`] is set for each member.
    pub(crate) fn bits(self) -> u8 {
        self.0
    }

    /// Set intersection.
    pub(crate) fn intersect(self, other: OutSet) -> OutSet {
        OutSet(self.0 & other.0)
    }

    /// Members of `self` that are not in `other`.
    pub(crate) fn difference(self, other: OutSet) -> OutSet {
        OutSet(self.0 & !other.0)
    }

    /// Iterates over member ports in `OutPort::ALL` order.
    pub(crate) fn iter(self) -> impl Iterator<Item = OutPort> {
        OutPort::ALL.into_iter().filter(move |p| self.contains(*p))
    }
}

impl FromIterator<OutPort> for OutSet {
    fn from_iter<I: IntoIterator<Item = OutPort>>(iter: I) -> Self {
        let mut s = OutSet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inport_priority_order() {
        // The declared order is the allocation priority order.
        assert!(InPort::WestEx < InPort::NorthEx);
        assert!(InPort::NorthEx < InPort::WestSh);
        assert!(InPort::WestSh < InPort::NorthSh);
        assert!(InPort::NorthSh < InPort::Pe);
    }

    #[test]
    fn port_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for p in InPort::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        let mut seen = [false; 5];
        for p in OutPort::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
            assert_eq!(OutPort::ALL[p.index()], p);
        }
    }

    #[test]
    fn express_classification() {
        assert!(InPort::WestEx.is_express());
        assert!(!InPort::WestSh.is_express());
        assert!(OutPort::SouthEx.is_express());
        assert!(!OutPort::Exit.is_express());
        assert!(OutPort::EastEx.is_east() && OutPort::EastSh.is_east());
        assert!(!OutPort::SouthSh.is_east() && !OutPort::SouthEx.is_east());
        assert!(!OutPort::Exit.is_east());
    }

    #[test]
    fn outset_operations() {
        let mut s = OutSet::empty();
        assert!(s.is_empty());
        s.insert(OutPort::EastEx);
        s.insert(OutPort::Exit);
        assert_eq!(s.len(), 2);
        assert!(s.contains(OutPort::EastEx));
        s.remove(OutPort::EastEx);
        assert!(!s.contains(OutPort::EastEx));
        assert_eq!(s.len(), 1);
        assert_eq!(OutSet::from_ports(&OutPort::ALL).len(), 5);
    }

    #[test]
    fn outset_membership() {
        let mut s = OutSet::empty();
        s.insert(OutPort::EastSh);
        assert!(s.contains(OutPort::EastSh));
        assert!(!s.contains(OutPort::Exit));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn outset_set_algebra() {
        let a = OutSet::from_ports(&[OutPort::EastEx, OutPort::EastSh]);
        let b = OutSet::from_ports(&[OutPort::EastSh, OutPort::SouthSh]);
        assert_eq!(a.intersect(b), OutSet::from_ports(&[OutPort::EastSh]));
    }

    #[test]
    fn outset_iter_order() {
        let s = OutSet::from_ports(&[OutPort::Exit, OutPort::EastEx]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![OutPort::EastEx, OutPort::Exit]);
    }

    #[test]
    fn outset_from_iterator() {
        let s: OutSet = [OutPort::SouthEx, OutPort::SouthSh].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(InPort::WestEx.to_string(), "W_ex");
        assert_eq!(OutPort::SouthSh.to_string(), "S_sh");
        assert_eq!(OutPort::Exit.to_string(), "Exit");
    }
}
