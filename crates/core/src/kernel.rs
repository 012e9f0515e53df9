//! Hot-path simulation kernel: precomputed route-decision tables and the
//! struct-of-arrays in-flight packet pool.
//!
//! The per-cycle inner loop of the torus engines spends most of its time
//! answering one question per occupied input register: *which output
//! ports does this packet prefer here?* [`crate::routing::compute_prefs`]
//! answers it with branchy coordinate math, but its result depends on the
//! router position **only** through the [`RouterClass`] (whether the
//! position is express-capable per dimension) and the ring deltas
//! `dx = (dst.x - at.x) mod N`, `dy = (dst.y - at.y) mod N` — every other
//! input is configuration-static — and on each delta only through its
//! *kind* (`offset_kind`). A [`RouteLut`] therefore holds, per `(class, input
//! port)`, the few *distinct* preference lists that can occur and one
//! byte per `(dx, dy)` naming which of them applies: the hot path is one
//! byte load, and the bytes of all four inputs together key the engine's
//! `DecisionTable`, which memoises what the allocator makes of them.
//!
//! The second half of the kernel is the [`PacketPool`]: in-flight packets
//! move out of the link registers into a slab with free-list reuse, and
//! the registers hold compact `u32` slot indices ([`EMPTY_SLOT`] when
//! idle). The register scan — four loads per router per cycle — touches
//! 16 bytes instead of four `Option<Packet>`s, and the routing phase
//! reads only the pool's destination column, keeping the working set of
//! the gather/route phase small enough to stay cache-resident.

use std::sync::Arc;

use crate::alloc::{first_free, Decision, MAX_IN_FLIGHT};
use crate::config::{ExitPolicy, NocConfig};
use crate::geom::Coord;
use crate::packet::Packet;
use crate::port::{InPort, OutPort};
use crate::router::RouterClass;
use crate::routing::{compute_prefs, RoutePrefs};

/// How a torus engine resolves route preferences each cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteMode {
    /// Table lookups against a [`RouteLut`] built at construction (the
    /// default hot path).
    #[default]
    Lut,
    /// Recompute preferences from coordinates every cycle (the reference
    /// path the differential tests compare against).
    Direct,
}

/// Offset kinds per dimension (see [`offset_kind`]).
const KINDS: usize = 5;
/// List ids one `(class, port)` can need: the empty list, then one per
/// pair of offset kinds.
const MAX_LISTS: usize = 1 + KINDS * KINDS;

/// Everything [`compute_prefs`] (with `desire` and
/// `inject_express_eligible` under it) reads of a ring offset: whether it
/// is zero, [`NocConfig::express_aligned`], [`NocConfig::express_worthwhile`].
/// Offsets of equal kind are interchangeable in every preference list.
fn offset_kind(cfg: &NocConfig, delta: u16) -> usize {
    if delta == 0 {
        0
    } else {
        1 + cfg.express_aligned(delta) as usize + 2 * cfg.express_worthwhile(delta) as usize
    }
}

/// Precomputed route preferences for every `(class, in port, dx, dy)`.
///
/// Shared between the channels of a multi-channel bank behind an
/// [`Arc`], so replicating an engine never rebuilds the table.
#[derive(Debug, Clone)]
pub struct RouteLut {
    n: u16,
    /// Per key, which of its `(class, port)`'s `lists` applies.
    ids: Vec<u8>,
    /// The `counts` distinct preference lists of each `(class, port)`
    /// (index `class.code() * 5 + port.index()`). Id 0 is always
    /// [`RoutePrefs::empty`]: what a key that cannot occur holds, and an
    /// empty register in a [`DecisionTable`] key.
    lists: [[RoutePrefs; MAX_LISTS]; 20],
    counts: [u8; 20],
}

impl RouteLut {
    /// Builds the table for `cfg`. Only keys that can occur are filled:
    /// classes realized by some router position, and input ports that
    /// exist at that class under the configuration's policy.
    ///
    /// `compute_prefs` runs once per realized `(class, port, kind of dx,
    /// kind of dy)` — at most 25 times where the offsets number `n²`.
    pub fn build(cfg: &NocConfig) -> Arc<RouteLut> {
        let n = cfg.n();
        let side = n as usize;
        let kinds: Vec<usize> = (0..n).map(|delta| offset_kind(cfg, delta)).collect();
        // One position per express capability stands for its whole class:
        // `compute_prefs` sees position only through the class and the
        // ring deltas.
        let rep_pos = [false, true].map(|ex| (0..n).find(|&p| cfg.has_express_at(p) == ex));
        let mut lut = RouteLut {
            n,
            ids: vec![0; 20 * side * side],
            lists: [[RoutePrefs::empty(); MAX_LISTS]; 20],
            counts: [1; 20],
        };
        for code in 0..4 {
            let (Some(x), Some(y)) = (rep_pos[code & 1], rep_pos[code >> 1]) else {
                continue;
            };
            let (at, class) = (Coord::new(x, y), RouterClass::from_code(code));
            for port in InPort::ALL {
                if !class.has_input(port) || (cfg.ft_policy().is_none() && port.is_express()) {
                    continue;
                }
                let cp = code * 5 + port.index();
                let (lists, count) = (&mut lut.lists[cp], &mut lut.counts[cp]);
                // The id of each pair of kinds, 0 until its first offset
                // pair comes up and is routed for all of them.
                let mut id_of_kinds = [[0; KINDS]; KINDS];
                let rows = lut.ids[cp * side * side..].chunks_exact_mut(side);
                for ((dx, row), &kx) in (0..n).zip(rows).zip(&kinds) {
                    for ((dy, id), &ky) in (0..n).zip(row).zip(&kinds) {
                        let known = &mut id_of_kinds[kx][ky];
                        if *known == 0 {
                            let dst = at.east(dx, n).south(dy, n);
                            let prefs = compute_prefs(cfg, class, port, at, dst);
                            let seen = &lists[..*count as usize];
                            *known = seen.iter().position(|p| *p == prefs).unwrap_or_else(|| {
                                lists[*count as usize] = prefs;
                                *count += 1;
                                *count as usize - 1
                            }) as u8;
                        }
                        *id = *known;
                    }
                }
            }
        }
        Arc::new(lut)
    }

    /// Which of `(class, port)`'s distinct lists a packet at `at` heading
    /// for `dst` gets; never 0 for a key that can occur.
    #[inline]
    pub(crate) fn id(&self, class: RouterClass, port: InPort, at: Coord, dst: Coord) -> u8 {
        let n = self.n as usize;
        let dx = at.dx_to(dst, self.n) as usize;
        let dy = at.dy_to(dst, self.n) as usize;
        self.ids[((class.code() * 5 + port.index()) * n + dx) * n + dy]
    }

    /// `(class, port)`'s distinct preference lists, indexed by id.
    #[inline]
    pub(crate) fn lists(&self, class: RouterClass, port: InPort) -> &[RoutePrefs] {
        let cp = class.code() * 5 + port.index();
        &self.lists[cp][..self.counts[cp] as usize]
    }

    /// The precomputed preference list for a packet arriving on `port` at
    /// a router of `class` at `at`, heading for `dst`. Bit-identical to
    /// [`compute_prefs`] on the same arguments.
    #[inline]
    pub fn lookup(&self, class: RouterClass, port: InPort, at: Coord, dst: Coord) -> RoutePrefs {
        self.lists(class, port)[self.id(class, port, at, dst) as usize]
    }

    /// Table entries (all keys, filled or not).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the table holds no entries (never for a built table).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// An engine's memoised whole-router decisions.
///
/// A healthy router's visit is a pure function of its class and of the
/// preference list in each input register, which a [`RouteLut`] names by
/// a small id: what the allocator makes of a visit is stored under the
/// mixed-radix number `(class; id of W_ex, N_ex, W_sh, N_sh)`, and what
/// the PE may then inject under `(class, PE list id, free slot mask)`.
/// Entries are filled, by the allocator they stand in for, the first time
/// a visit reads them: most keys never occur in a run, and computing all
/// of them would cost several engine builds.
#[derive(Debug, Clone)]
pub(crate) struct DecisionTable {
    lut: Arc<RouteLut>,
    exit: ExitPolicy,
    /// Per class: where its block of `visits` starts, then the weight of
    /// each in-flight input's id.
    base: [usize; 4],
    stride: [[usize; MAX_IN_FLIGHT]; 4],
    visits: Vec<Option<Decision>>,
    /// PE list ids per class in `injects` (the widest class's count).
    pe_lists: usize,
    /// The port the PE takes; the inner `None` is a stall.
    injects: Vec<Option<Option<OutPort>>>,
}

impl DecisionTable {
    /// An all-unfilled table over `lut`'s list ids.
    pub(crate) fn new(lut: Arc<RouteLut>, exit: ExitPolicy) -> DecisionTable {
        let (mut base, mut stride) = ([0; 4], [[0; MAX_IN_FLIGHT]; 4]);
        let (mut len, mut pe_lists) = (0, 0);
        for class in (0..4).map(RouterClass::from_code) {
            base[class.code()] = len;
            let mut weight = 1;
            for port in InPort::IN_FLIGHT {
                stride[class.code()][port.index()] = weight;
                weight *= lut.lists(class, port).len();
            }
            len += weight;
            pe_lists = pe_lists.max(lut.lists(class, InPort::Pe).len());
        }
        DecisionTable {
            lut,
            exit,
            base,
            stride,
            visits: vec![None; len],
            pe_lists,
            injects: vec![None; 4 * pe_lists * 32],
        }
    }

    /// The route table whose ids key this one.
    #[inline]
    pub(crate) fn lut(&self) -> &Arc<RouteLut> {
        &self.lut
    }

    /// What a healthy router of `class` does with its in-flight inputs,
    /// `ids[slot]` being the [`RouteLut::id`] of the packet in that input
    /// register (0 when empty). Debug builds re-derive every hit through
    /// the fill, which checks it.
    #[inline]
    pub(crate) fn visit(&mut self, class: RouterClass, ids: &[u8; MAX_IN_FLIGHT]) -> Decision {
        let stride = &self.stride[class.code()];
        let key = (0..MAX_IN_FLIGHT).fold(self.base[class.code()], |key, slot| {
            key + stride[slot] * ids[slot] as usize
        });
        match self.visits[key] {
            Some(hit) if !cfg!(debug_assertions) => hit,
            _ => self.fill_visit(key, class, ids),
        }
    }

    #[cold]
    fn fill_visit(
        &mut self,
        key: usize,
        class: RouterClass,
        ids: &[u8; MAX_IN_FLIGHT],
    ) -> Decision {
        let inputs =
            InPort::IN_FLIGHT.map(|port| self.lut.lists(class, port)[ids[port.index()] as usize]);
        let decision = Decision::decide(&inputs, class.available_outputs(), self.exit, true);
        debug_assert!(self.visits[key].is_none_or(|hit| hit == decision));
        self.visits[key] = Some(decision);
        decision
    }

    /// The port a healthy router's PE injects on (`None` = it stalls) when
    /// its head packet has PE list `id` and the in-flight inputs left slot
    /// mask `free` ([`Decision::free`]). Checked like [`Self::visit`].
    #[inline]
    pub(crate) fn inject(&mut self, class: RouterClass, id: u8, free: u8) -> Option<OutPort> {
        let key = (class.code() * self.pe_lists + id as usize) * 32 + free as usize;
        match self.injects[key] {
            Some(hit) if !cfg!(debug_assertions) => hit,
            _ => self.fill_inject(key, class, id, free),
        }
    }

    #[cold]
    fn fill_inject(&mut self, key: usize, class: RouterClass, id: u8, free: u8) -> Option<OutPort> {
        let prefs = self.lut.lists(class, InPort::Pe)[id as usize];
        let out = first_free(&prefs, class.available_outputs(), free, self.exit);
        debug_assert!(self.injects[key].is_none_or(|hit| hit == out));
        self.injects[key] = Some(out);
        out
    }
}

/// Register value marking an idle input slot.
pub const EMPTY_SLOT: u32 = u32::MAX;

/// Struct-of-arrays storage for in-flight packets.
///
/// Link registers hold `u32` indices into this pool. The destination
/// column is split out of the full packet record because it is the only
/// field the gather/route phase reads; the rest of the packet (hop
/// counters, ids, timestamps) is touched once per hop in the writeback.
/// Freed slots are recycled LIFO — slot numbers never influence routing
/// or statistics, so reuse order is unobservable.
#[derive(Debug, Clone, Default)]
pub struct PacketPool {
    dst: Vec<Coord>,
    meta: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketPool {
    /// An empty pool with room for `cap` packets before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        PacketPool {
            dst: Vec::with_capacity(cap),
            meta: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Stores a packet, returning its slot index.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.dst[idx as usize] = pkt.dst;
                self.meta[idx as usize] = pkt;
                idx
            }
            None => {
                let idx = self.meta.len() as u32;
                debug_assert!(idx != EMPTY_SLOT, "packet pool exhausted the index space");
                self.dst.push(pkt.dst);
                self.meta.push(pkt);
                idx
            }
        }
    }

    /// The destination of the packet in `idx` (the hot column).
    #[inline]
    pub fn dst(&self, idx: u32) -> Coord {
        self.dst[idx as usize]
    }

    /// The full packet record in `idx`.
    #[inline]
    pub fn get(&self, idx: u32) -> &Packet {
        &self.meta[idx as usize]
    }

    /// The packet record in `idx`, for bumping its hop and deflection
    /// counters in place. The destination is immutable after creation:
    /// writing it here would desynchronize the hot column.
    #[inline]
    pub(crate) fn get_mut(&mut self, idx: u32) -> &mut Packet {
        &mut self.meta[idx as usize]
    }

    /// Writes an updated packet record back into `idx`. The destination
    /// is immutable after creation, so the hot column needs no update.
    #[inline]
    pub fn write(&mut self, idx: u32, pkt: &Packet) {
        debug_assert_eq!(
            self.dst[idx as usize], pkt.dst,
            "packet dst mutated in flight"
        );
        self.meta[idx as usize] = *pkt;
    }

    /// Returns `idx` to the free list without reading it.
    #[inline]
    pub fn release(&mut self, idx: u32) {
        debug_assert!(!self.free.contains(&idx), "double free of pool slot");
        self.free.push(idx);
    }

    /// Removes and returns the packet in `idx`.
    #[inline]
    pub fn remove(&mut self, idx: u32) -> Packet {
        let pkt = self.meta[idx as usize];
        self.release(idx);
        pkt
    }

    /// Packets currently stored.
    pub fn live(&self) -> usize {
        self.meta.len() - self.free.len()
    }

    /// Freed slots available for recycling before the pool must grow.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::FtPolicy;
    use crate::packet::PacketId;
    use crate::port::OutSet;
    use crate::router::allowed_outputs;

    /// The six fabrics the kernel's exhaustive tests cover: every policy,
    /// depopulated and not, two sizes.
    pub(crate) fn configs() -> Vec<NocConfig> {
        vec![
            NocConfig::hoplite(4).unwrap(),
            NocConfig::hoplite(8).unwrap(),
            NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap(),
            NocConfig::fasttrack(8, 2, 2, FtPolicy::Full).unwrap(),
            NocConfig::fasttrack(8, 4, 2, FtPolicy::Inject).unwrap(),
            NocConfig::fasttrack(8, 2, 1, FtPolicy::Inject).unwrap(),
        ]
    }

    /// The allocator's input alphabet: every distinct port list the six
    /// [`configs`] LUTs hold, grouped by the input port it is keyed under
    /// ([`InPort::index`] order; the unfilled-key filler included).
    pub(crate) fn distinct_prefs_by_port() -> [Vec<RoutePrefs>; 5] {
        let mut by_port: [Vec<RoutePrefs>; 5] = Default::default();
        for cfg in configs() {
            let lut = RouteLut::build(&cfg);
            for (cp, lists) in lut.lists.iter().enumerate() {
                let seen = &mut by_port[cp % 5];
                for prefs in &lists[..lut.counts[cp] as usize] {
                    if !seen.iter().any(|p| p.ports() == prefs.ports()) {
                        seen.push(*prefs);
                    }
                }
            }
        }
        by_port
    }

    /// Hoplite and every valid `FT(n², d, r)` under both policies.
    fn fabrics_of_side(n: u16) -> Vec<NocConfig> {
        let mut cfgs = vec![NocConfig::hoplite(n).unwrap()];
        for d in 1..=n / 2 {
            for r in (1..=d).filter(|&r| d.is_multiple_of(r) && n.is_multiple_of(r)) {
                for policy in [FtPolicy::Full, FtPolicy::Inject] {
                    cfgs.push(NocConfig::fasttrack(n, d, r, policy).unwrap());
                }
            }
        }
        cfgs
    }

    /// Checks `lut` against `compute_prefs` for every input port that
    /// exists at each of the given `(at, dst)` node-id pairs.
    fn assert_lut_matches(cfg: &NocConfig, keys: impl Iterator<Item = (usize, usize)>) {
        let lut = RouteLut::build(cfg);
        let n = cfg.n();
        for (id, dst_id) in keys {
            let at = Coord::from_node_id(id, n);
            let dst = Coord::from_node_id(dst_id, n);
            let class = RouterClass::of(cfg, at);
            for port in InPort::ALL
                .into_iter()
                .filter(|&p| exists(cfg.ft_policy(), class, p))
            {
                assert_eq!(
                    lut.lookup(class, port, at, dst),
                    compute_prefs(cfg, class, port, at, dst),
                    "{} at {at} port {port} dst {dst}",
                    cfg.name()
                );
            }
        }
    }

    /// The LUT must agree with `compute_prefs` on every position, input
    /// port, and destination — exhaustively, not just on samples, and on
    /// sides that are not powers of two: `ft:10:4:2` has gcd(D, N) = 2 <
    /// D, where `express_aligned` and `express_worthwhile` disagree most.
    #[test]
    fn lut_matches_computed_prefs_exhaustively() {
        let sides = [4, 6, 8, 10, 12, 16];
        let cfgs = sides.into_iter().flat_map(fabrics_of_side).chain(configs());
        let mut seen_10_4_2 = false;
        for cfg in cfgs {
            seen_10_4_2 |= cfg.name() == "FT(100,4,2)";
            let nodes = cfg.num_nodes();
            assert_lut_matches(
                &cfg,
                (0..nodes).flat_map(|at| (0..nodes).map(move |d| (at, d))),
            );
        }
        assert!(seen_10_4_2);
    }

    /// Sides past 64 work like any other (the offset-kind array is sized
    /// by the side): sampled keys of 72x72 fabrics, every class and ring
    /// offset among them.
    #[test]
    fn lut_matches_computed_prefs_on_a_72_side() {
        for cfg in [
            NocConfig::hoplite(72).unwrap(),
            NocConfig::fasttrack(72, 4, 2, FtPolicy::Full).unwrap(),
            NocConfig::fasttrack(72, 9, 3, FtPolicy::Inject).unwrap(),
            NocConfig::fasttrack(72, 36, 4, FtPolicy::Full).unwrap(),
        ] {
            let nodes = cfg.num_nodes();
            // 73 = side + 1 walks the diagonal, so every (x, y) class
            // residue occurs; 5 is coprime to the side, so every dx does.
            let ats = (0..nodes).step_by(73);
            assert_lut_matches(
                &cfg,
                ats.flat_map(|at| (0..nodes).step_by(5).map(move |d| (at, d))),
            );
        }
    }

    impl DecisionTable {
        /// Visit entries computed so far.
        pub(crate) fn visits_filled(&self) -> usize {
            self.visits.iter().flatten().count()
        }
    }

    /// Whether `port` is an input of `class` on a fabric of `policy`.
    fn exists(policy: Option<FtPolicy>, class: RouterClass, port: InPort) -> bool {
        class.has_input(port) && !(policy.is_none() && port.is_express())
    }

    /// The allocation slot bit `port` takes: `Exit` shares `S_sh`'s under
    /// the shared exit policy.
    fn slot(port: OutPort, exit: ExitPolicy) -> u8 {
        match (port, exit) {
            (OutPort::Exit, ExitPolicy::SharedWithSouth) => 1 << OutPort::SouthSh.index(),
            _ => 1 << port.index(),
        }
    }

    /// The ports of `list` in `avail` whose slot is not `taken`, best first.
    fn open(
        list: &RoutePrefs,
        avail: OutSet,
        exit: ExitPolicy,
        taken: u8,
    ) -> impl Iterator<Item = OutPort> + '_ {
        let ports = list.ports().iter().copied();
        ports.filter(move |&p| avail.contains(p) && slot(p, exit) & taken == 0)
    }

    /// Whether `lists` can take pairwise-distinct open slots, by trying
    /// every port of every list (at most 5^4 tuples).
    fn matchable(lists: &[RoutePrefs], avail: OutSet, exit: ExitPolicy, taken: u8) -> bool {
        let Some((first, rest)) = lists.split_first() else {
            return true;
        };
        open(first, avail, exit, taken).any(|p| matchable(rest, avail, exit, taken | slot(p, exit)))
    }

    /// The router's rule on a visit with outputs `avail`, when its
    /// occupied inputs have a complete matching there: each input, in
    /// priority order, takes the first port of its list whose slot is
    /// still free and that leaves the inputs below it a complete
    /// matching. So none is stranded and no two share a slot. Returns
    /// whether the matching existed.
    fn obeys_the_rule(
        inputs: &[RoutePrefs; MAX_IN_FLIGHT],
        got: Decision,
        avail: OutSet,
        exit: ExitPolicy,
        what: &str,
    ) -> bool {
        let occupied: Vec<usize> = (0..4).filter(|&s| !inputs[s].ports().is_empty()).collect();
        let lists: Vec<RoutePrefs> = occupied.iter().map(|&s| inputs[s]).collect();
        if !matchable(&lists, avail, exit, 0) {
            return false;
        }
        let mut taken = 0;
        for (i, &s) in occupied.iter().enumerate() {
            let rest = &lists[i + 1..];
            let first = open(&lists[i], avail, exit, taken)
                .find(|&p| matchable(rest, avail, exit, taken | slot(p, exit)));
            assert_eq!(got.out(s), first, "{what} on {avail:?}: input {s}");
            taken |= slot(first.expect("a complete matching extends"), exit);
        }
        true
    }

    /// The list rules on every `(class, port, dx, dy)` key of `cfg` that
    /// can occur (see `decision_table_matches_the_allocator_on_every_key`).
    fn assert_lists_obey_the_rules(cfg: &NocConfig, lut: &RouteLut) {
        let (n, side, policy) = (cfg.n(), cfg.n() as usize, cfg.ft_policy());
        let at = |id| RouterClass::of(cfg, Coord::from_node_id(id, n));
        let realized: Vec<RouterClass> = (0..cfg.num_nodes()).map(at).collect();
        let classes = (0..4).map(RouterClass::from_code);
        for class in classes.filter(|c| realized.contains(c)) {
            for port in InPort::ALL
                .into_iter()
                .filter(|&p| exists(policy, class, p))
            {
                let allowed = allowed_outputs(policy, class, port);
                let cp = class.code() * 5 + port.index();
                for (dx, dy) in (0..n).flat_map(|dx| (0..n).map(move |dy| (dx, dy))) {
                    let id = lut.ids[(cp * side + dx as usize) * side + dy as usize];
                    let prefs = lut.lists(class, port)[id as usize];
                    let ports = prefs.ports();
                    let what = format!("{} {class:?} {port} ({dx}, {dy}): {ports:?}", cfg.name());
                    assert!(!ports.is_empty(), "{what}");
                    for (i, &p) in ports.iter().enumerate() {
                        assert!(allowed.contains(p) && !ports[..i].contains(&p), "{what}");
                    }
                    let home = dx == 0 && dy == 0;
                    assert_eq!(ports.contains(&OutPort::Exit), home, "{what}");
                    assert!(!home || ports[0] == OutPort::Exit, "{what}");
                    if policy != Some(FtPolicy::Full) {
                        continue;
                    }
                    for (express, delta) in [(OutPort::EastEx, dx), (OutPort::SouthEx, dy)] {
                        let aligned = cfg.express_aligned(delta);
                        assert!(aligned || !prefs.productive().contains(express), "{what}");
                    }
                    // A misaligned express packet leaves the lane by the
                    // escape turn of the dimension it travels.
                    let escape = match port {
                        InPort::WestEx if !cfg.express_aligned(dx) => Some(OutPort::SouthSh),
                        InPort::NorthEx if dx == 0 && !cfg.express_aligned(dy) => {
                            Some(OutPort::EastSh)
                        }
                        _ => None,
                    };
                    assert!(escape.is_none_or(|turn| ports[0] == turn), "{what}");
                }
            }
        }
    }

    /// The table is the allocator, and the allocator is the paper's
    /// router, on every key: for every class of the kernel fabrics and
    /// every side-8 fabric, under both exit policies,
    /// * every list a LUT holds is non-empty, duplicate-free and inside
    ///   `allowed_outputs`, holding `Exit` exactly at the destination and
    ///   then first. Under the Full policy every express port a list
    ///   counts productive is aligned in its dimension, and a misaligned
    ///   express packet's list starts with its escape turn (DESIGN §5b);
    /// * the memoised visit is `allocate` plus the statistics
    ///   classification, and obeys [`obeys_the_rule`] with the class's
    ///   outputs and again with `Exit` gated off (the multi-channel
    ///   gate), stranding nothing either way;
    /// * the memoised injection is the first port of the PE's list that
    ///   exists and has a free slot, for every slot mask;
    /// * per policy and class, the (input, output) pairs visits and
    ///   injections use over all fabrics are exactly `allowed_outputs`:
    ///   no mux input is dead and none is missing.
    ///
    /// On the kernel fabrics a visit with any subset of the class's
    /// outputs, as at a faulted router, also obeys the rule whenever a
    /// complete matching exists.
    #[test]
    fn decision_table_matches_the_allocator_on_every_key() {
        use crate::alloc::allocate;
        let policies = [None, Some(FtPolicy::Full), Some(FtPolicy::Inject)];
        // Per (policy, class, input): the outputs some fabric used.
        let mut union = [[[OutSet::empty(); 5]; 4]; 3];
        let (kernel, side_8) = (configs(), fabrics_of_side(8));
        for base in kernel
            .iter()
            .chain(side_8.iter().filter(|c| !kernel.contains(c)))
        {
            let p = policies
                .iter()
                .position(|&q| q == base.ft_policy())
                .unwrap();
            // On the kernel fabrics, every subset of a class's outputs as
            // dead links leave them: its 5-bit masks.
            let faulted = if kernel.contains(base) { 32 } else { 0 };
            for exit in [ExitPolicy::SharedWithSouth, ExitPolicy::Dedicated] {
                let cfg = base.clone().with_exit_policy(exit);
                let lut = RouteLut::build(&cfg);
                assert_lists_obey_the_rules(&cfg, &lut);
                let mut table = DecisionTable::new(lut.clone(), exit);
                for class in (0..4).map(RouterClass::from_code) {
                    let used = &mut union[p][class.code()];
                    let avail = class.available_outputs();
                    let mut gated = avail;
                    gated.remove(OutPort::Exit);
                    let all_slots = avail.iter().fold(0, |m, p| m | slot(p, exit));
                    let radix = InPort::IN_FLIGHT.map(|p| lut.lists(class, p).len());
                    for key in 0..radix.iter().product() {
                        let mut rest = key;
                        let ids = radix.map(|r| {
                            let id = (rest % r) as u8;
                            rest /= r;
                            id
                        });
                        let inputs = InPort::IN_FLIGHT
                            .map(|port| lut.lists(class, port)[ids[port.index()] as usize]);
                        let occupied: Vec<usize> = (0..4).filter(|&s| ids[s] != 0).collect();
                        let prefs: Vec<RoutePrefs> = occupied.iter().map(|&s| inputs[s]).collect();
                        let expected = allocate(&prefs, avail, exit);
                        let got = table.visit(class, &ids);
                        assert_eq!(got, table.visit(class, &ids), "a hit repeats the fill");
                        let what = format!("{} {exit:?} {class:?} {ids:?}", cfg.name());
                        let mut taken = 0;
                        for (i, &s) in occupied.iter().enumerate() {
                            let out = expected[i].unwrap();
                            let deflected = !prefs[i].productive().contains(out);
                            let demoted = !deflected
                                && prefs[i].wanted_express()
                                && !out.is_express()
                                && out != OutPort::Exit;
                            assert_eq!(got.out(s), Some(out), "{what}");
                            assert_eq!(got.deflected(s), deflected, "{what}");
                            assert_eq!(got.demoted(s), demoted, "{what}");
                            taken |= slot(out, exit);
                        }
                        assert_eq!(got.free(), all_slots & !taken, "{what}");
                        let gate = Decision::decide(&inputs, gated, exit, false);
                        assert!(obeys_the_rule(&inputs, got, avail, exit, &what), "{what}");
                        assert!(obeys_the_rule(&inputs, gate, gated, exit, &what), "{what}");
                        for &s in &occupied {
                            used[s].insert(got.out(s).unwrap());
                            used[s].insert(gate.out(s).unwrap());
                        }
                        for bits in 0..faulted {
                            let sub = avail
                                .iter()
                                .filter(|p| bits >> p.index() & 1 == 1)
                                .collect();
                            let visit = Decision::decide(&inputs, sub, exit, false);
                            obeys_the_rule(&inputs, visit, sub, exit, &what);
                        }
                    }
                    for (id, pe) in lut.lists(class, InPort::Pe).iter().enumerate().skip(1) {
                        for free in 0u8..32 {
                            let out = table.inject(class, id as u8, free);
                            let first = open(pe, avail, exit, !free).next();
                            assert_eq!(out, first, "{} {class:?} PE {:?}", cfg.name(), pe.ports());
                            if let Some(out) = out {
                                used[InPort::Pe.index()].insert(out);
                            }
                        }
                    }
                }
                assert_eq!(table.visits_filled(), table.visits.len());
            }
        }
        for (p, policy) in policies.into_iter().enumerate() {
            let classes = if policy.is_none() { 1 } else { 4 };
            for class in (0..classes).map(RouterClass::from_code) {
                for port in InPort::ALL {
                    let allowed = allowed_outputs(policy, class, port);
                    let expected = if exists(policy, class, port) {
                        allowed
                    } else {
                        OutSet::empty()
                    };
                    let used = union[p][class.code()][port.index()];
                    assert_eq!(used, expected, "{policy:?} {class:?} {port}");
                }
            }
        }
    }

    #[test]
    fn lut_is_shared_by_clone() {
        let cfg = NocConfig::fasttrack(8, 2, 1, FtPolicy::Full).unwrap();
        let lut = RouteLut::build(&cfg);
        let other = lut.clone();
        assert!(Arc::ptr_eq(&lut, &other));
        assert!(!lut.is_empty());
        assert_eq!(lut.len(), 4 * 5 * 64);
    }

    fn pkt(id: u64, dst: Coord) -> Packet {
        Packet::new(PacketId(id), Coord::new(0, 0), dst, 0, 0)
    }

    #[test]
    fn pool_reuses_freed_slots() {
        let mut pool = PacketPool::with_capacity(4);
        let a = pool.insert(pkt(1, Coord::new(1, 0)));
        let b = pool.insert(pkt(2, Coord::new(2, 0)));
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.dst(a), Coord::new(1, 0));
        assert_eq!(pool.remove(a).id, PacketId(1));
        assert_eq!(pool.live(), 1);
        // The freed slot is recycled before the slab grows.
        let c = pool.insert(pkt(3, Coord::new(3, 3)));
        assert_eq!(c, a);
        assert_eq!(pool.dst(c), Coord::new(3, 3));
        assert_eq!(pool.get(b).id, PacketId(2));
    }

    #[test]
    fn pool_writeback_updates_counters() {
        let mut pool = PacketPool::with_capacity(1);
        let idx = pool.insert(pkt(7, Coord::new(2, 2)));
        let mut p = *pool.get(idx);
        p.short_hops += 1;
        p.deflections += 1;
        pool.write(idx, &p);
        assert_eq!(pool.get(idx).short_hops, 1);
        assert_eq!(pool.get(idx).deflections, 1);
    }
}
