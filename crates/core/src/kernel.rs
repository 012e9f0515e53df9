//! Hot-path simulation kernel: precomputed route-decision tables and the
//! struct-of-arrays in-flight packet pool.
//!
//! The per-cycle inner loop of the torus engines spends most of its time
//! answering one question per occupied input register: *which output
//! ports does this packet prefer here?* `crate::routing::compute_prefs`
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
//! The second half of the kernel is the `PacketPool`: in-flight packets
//! move out of the link registers into a slab with free-list reuse, and
//! the registers hold compact `u32` slot indices (`EMPTY_SLOT` when
//! idle). The register scan — four loads per router per cycle — touches
//! 16 bytes instead of four `Option<Packet>`s, and the routing phase
//! reads only the pool's destination column, keeping the working set of
//! the gather/route phase small enough to stay cache-resident.

use std::num::NonZeroU64;
use std::sync::Arc;

use crate::alloc::{Decision, Injection, MAX_IN_FLIGHT};
use crate::config::{ExitPolicy, FtPolicy, NocConfig};
use crate::geom::Coord;
use crate::packet::Packet;
use crate::port::{InPort, OutPort, OutSet};
use crate::router::RouterClass;
use crate::routing::{compute_prefs, twin, RoutePrefs};

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
    /// Per express `(class, port)` (index `class.code() * 2 +
    /// port.index()`) and list id: the id, among its shared twin's lists,
    /// of what a packet on that list is demoted to when it strands
    /// ([`crate::routing::demoted_prefs`]; 0, the empty list, where
    /// nothing strands). It depends on the offset only through the
    /// express list, so a decision keyed by ids knows it (`build` checks
    /// every key).
    demoted: [[u8; MAX_LISTS]; 8],
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
            demoted: [[0; MAX_LISTS]; 8],
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
            // Only the Inject crossbar strands an express packet; it is
            // demoted to the list its shared twin has at the same offset.
            if cfg.ft_policy() == Some(FtPolicy::Inject) {
                for ex in [InPort::WestEx, InPort::NorthEx] {
                    let keys = |port: InPort| &lut.ids[(code * 5 + port.index()) * side * side..];
                    let twins = keys(ex).iter().zip(keys(twin(ex))).take(side * side);
                    for (&id, &twin) in twins.filter(|(&id, _)| id != 0) {
                        let slot = &mut lut.demoted[code * 2 + ex.index()][id as usize];
                        assert!(*slot == 0 || *slot == twin, "twin list not keyed by id");
                        *slot = twin;
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

    /// What a stranded packet on `(class, port)`'s list `id` is demoted
    /// to: the empty list for a shared or PE port, which never strands.
    pub(crate) fn demoted(&self, class: RouterClass, port: InPort, id: u8) -> RoutePrefs {
        match port.is_express() {
            true => {
                let twin = self.demoted[class.code() * 2 + port.index()][id as usize];
                self.lists(class, self::twin(port))[twin as usize]
            }
            false => RoutePrefs::empty(),
        }
    }

    /// The precomputed preference list for a packet arriving on `port` at
    /// a router of `class` at `at`, heading for `dst`. Bit-identical to
    /// [`compute_prefs`] on the same arguments.
    #[cfg(test)]
    pub(crate) fn lookup(
        &self,
        class: RouterClass,
        port: InPort,
        at: Coord,
        dst: Coord,
    ) -> RoutePrefs {
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
/// A router's visit is a pure function of its class, its live outputs
/// and the preference list in each input register, which a [`RouteLut`]
/// names by a small id. What a visit decides is stored in the block of
/// `(class, live outputs)` under the mixed-radix number `(id of W_ex,
/// N_ex, W_sh, N_sh)`, and what the PE may then inject under `(class,
/// live outputs, PE list id, free slot mask)`. Only `E_ex`, `S_ex` (dead
/// links) and `Exit` (a bank's shut exit gate) can drop out of a class's
/// outputs, so a class has at most eight blocks: the healthy one, made
/// with the table, and seven degraded ones, each appended the first time
/// a visit meets it. Entries are filled, by the allocator they stand in
/// for, the first time a visit reads them: most keys never occur in a
/// run, and computing all of them would cost several engine builds.
#[derive(Debug, Clone)]
pub(crate) struct DecisionTable {
    lut: Arc<RouteLut>,
    exit: ExitPolicy,
    /// Per class: a stranded express packet is demoted onto the shared
    /// ring rather than dropped (the fallback chain's first step).
    demote: [bool; 4],
    /// Per class: its outputs, all live.
    outputs: [OutSet; 4],
    /// Per class: the weight of each in-flight input's id, and the
    /// number of visit keys.
    stride: [[usize; MAX_IN_FLIGHT]; 4],
    keys: [usize; 4],
    /// PE list ids per class in a block's injections (the widest
    /// class's count).
    pe_lists: usize,
    /// Per `8 * class + lost_code(lost outputs)`: where that block
    /// starts in `visits` and in `injects`. The healthy blocks come
    /// first, so a degraded block starting at 0 is not made yet.
    starts: [[usize; 2]; 32],
    /// Every block's visits by key: `Decision` words, so an unfilled
    /// block is zeroed memory.
    visits: Vec<Option<NonZeroU64>>,
    /// Every block's injections by `32 * PE list id + free slot mask`.
    injects: Vec<Option<Injection>>,
}

/// Which of a class's eight blocks has the outputs `lost` (a subset of
/// `E_ex`, `S_ex`, `Exit`) gone: one bit each.
fn lost_code(lost: OutSet) -> usize {
    let bits = usize::from(lost.bits());
    debug_assert_eq!(bits & !0b1_0101, 0, "only E_ex, S_ex and Exit drop out");
    bits & 1 | bits >> 1 & 2 | bits >> 2 & 4
}

/// Stores `value` in the memo `entry`, checking it against a value
/// already there.
fn memo<T: Copy + PartialEq + std::fmt::Debug>(entry: &mut Option<T>, value: T) -> T {
    debug_assert!(
        entry.is_none_or(|hit| hit == value),
        "memoised {entry:?}, decided {value:?}"
    );
    *entry = Some(value);
    value
}

impl DecisionTable {
    /// An all-unfilled table over `lut`'s list ids.
    pub(crate) fn new(lut: Arc<RouteLut>, exit: ExitPolicy, demote: [bool; 4]) -> DecisionTable {
        let classes = (0..4).map(RouterClass::from_code);
        let pe_lists = classes
            .map(|class| lut.lists(class, InPort::Pe).len())
            .max();
        let mut table = DecisionTable {
            lut,
            exit,
            demote,
            outputs: [0, 1, 2, 3].map(|code| RouterClass::from_code(code).available_outputs()),
            stride: [[0; MAX_IN_FLIGHT]; 4],
            keys: [1; 4],
            pe_lists: pe_lists.unwrap_or(0),
            starts: [[0; 2]; 32],
            visits: Vec::new(),
            injects: Vec::new(),
        };
        let mut end = [0; 2];
        for class in (0..4).map(RouterClass::from_code) {
            let c = class.code();
            for port in InPort::IN_FLIGHT {
                table.stride[c][port.index()] = table.keys[c];
                table.keys[c] *= table.lut.lists(class, port).len();
            }
            table.starts[8 * c] = end;
            end = [end[0] + table.keys[c], end[1] + 32 * table.pe_lists];
        }
        // The healthy blocks, in one zeroed allocation each.
        table.visits = vec![None; end[0]];
        table.injects = vec![None; end[1]];
        table
    }

    /// Appends degraded `block`'s unfilled entries.
    fn make(&mut self, block: usize) {
        self.starts[block] = [self.visits.len(), self.injects.len()];
        self.visits
            .resize(self.visits.len() + self.keys[block / 8], None);
        self.injects
            .resize(self.injects.len() + 32 * self.pe_lists, None);
    }

    /// The route table whose ids key this one.
    #[inline]
    pub(crate) fn lut(&self) -> &Arc<RouteLut> {
        &self.lut
    }

    /// Where the block of a `class` router whose live outputs are not
    /// all of its outputs starts, made the first time it is met.
    #[inline(never)]
    fn degraded(&mut self, c: usize, outputs: OutSet) -> [usize; 2] {
        let block = 8 * c + lost_code(self.outputs[c].difference(outputs));
        if self.starts[block][0] == 0 {
            self.make(block);
        }
        self.starts[block]
    }

    /// What a router of `class` with live `outputs` does with its
    /// in-flight inputs, `ids[slot]` being the [`RouteLut::id`] of the
    /// packet in that input register (0 when empty). Debug builds
    /// re-derive every hit, and check it.
    #[inline]
    pub(crate) fn visit(
        &mut self,
        class: RouterClass,
        outputs: OutSet,
        ids: &[u8; MAX_IN_FLIGHT],
    ) -> Decision {
        let c = class.code();
        let stride = &self.stride[c];
        let key = (0..MAX_IN_FLIGHT).fold(0, |key, slot| key + stride[slot] * ids[slot] as usize);
        if outputs != self.outputs[c] {
            return self.visit_degraded(class, outputs, key, ids);
        }
        self.read_visit(class, outputs, self.starts[8 * c][0] + key, ids)
    }

    /// [`Self::visit`] with outputs lost. Out of line, so that the
    /// healthy visit compiles to the bare table read it was before any
    /// fault existed: taking the degraded start inside `visit` made
    /// `torus-saturated` ~5 % slower.
    #[inline(never)]
    fn visit_degraded(
        &mut self,
        class: RouterClass,
        outputs: OutSet,
        key: usize,
        ids: &[u8; MAX_IN_FLIGHT],
    ) -> Decision {
        let at = self.degraded(class.code(), outputs)[0] + key;
        self.read_visit(class, outputs, at, ids)
    }

    /// The visit entry at `at`, filled on a miss.
    #[inline(always)]
    fn read_visit(
        &mut self,
        class: RouterClass,
        outputs: OutSet,
        at: usize,
        ids: &[u8; MAX_IN_FLIGHT],
    ) -> Decision {
        match self.visits[at].map(Decision) {
            Some(hit) if !cfg!(debug_assertions) => hit,
            _ => self.fill_visit(class, outputs, at, ids),
        }
    }

    /// The fill: the lists the ids name, through the allocator.
    #[cold]
    fn fill_visit(
        &mut self,
        class: RouterClass,
        outputs: OutSet,
        at: usize,
        ids: &[u8; MAX_IN_FLIGHT],
    ) -> Decision {
        let id = |port: InPort| ids[port.index()];
        let inputs = InPort::IN_FLIGHT.map(|port| self.lut.lists(class, port)[id(port) as usize]);
        let demoted = InPort::IN_FLIGHT.map(|port| self.lut.demoted(class, port, id(port)));
        let (dead, demote) = (self.dead(class, outputs), self.demote[class.code()]);
        let decision = Decision::of_visit(inputs, &demoted, outputs, dead, self.exit, demote);
        Decision(memo(&mut self.visits[at], decision.0))
    }

    /// What the PE of a router of `class` with live `outputs` does when
    /// its head packet has PE list `id` and the in-flight inputs left
    /// slot mask `free` ([`Decision::free`]). Checked like
    /// [`Self::visit`].
    #[inline]
    pub(crate) fn inject(
        &mut self,
        class: RouterClass,
        outputs: OutSet,
        id: u8,
        free: u8,
    ) -> Injection {
        let c = class.code();
        let start = match outputs == self.outputs[c] {
            true => self.starts[8 * c][1],
            false => self.degraded(c, outputs)[1],
        };
        let at = start + 32 * id as usize + free as usize;
        match self.injects[at] {
            Some(hit) if !cfg!(debug_assertions) => hit,
            _ => self.fill_inject(class, outputs, at, id, free),
        }
    }

    #[cold]
    fn fill_inject(
        &mut self,
        class: RouterClass,
        outputs: OutSet,
        at: usize,
        id: u8,
        free: u8,
    ) -> Injection {
        let pe = self.lut.lists(class, InPort::Pe)[id as usize];
        let dead = self.dead(class, outputs);
        memo(
            &mut self.injects[at],
            Injection::of(&pe, outputs, dead, free, self.exit),
        )
    }

    /// The dead links of a `class` router whose live outputs are
    /// `outputs`: what is lost, less the exit gate.
    fn dead(&self, class: RouterClass, outputs: OutSet) -> OutSet {
        let mut dead = self.outputs[class.code()].difference(outputs);
        dead.remove(OutPort::Exit);
        dead
    }
}

/// Register value marking an idle input slot.
pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// Struct-of-arrays storage for in-flight packets.
///
/// Link registers hold `u32` indices into this pool. The destination
/// column is split out of the full packet record because it is the only
/// field the gather/route phase reads; the rest of the packet (hop
/// counters, ids, timestamps) is touched once per hop in the writeback.
/// Freed slots are recycled LIFO — slot numbers never influence routing
/// or statistics, so reuse order is unobservable.
#[derive(Debug, Clone, Default)]
pub(crate) struct PacketPool {
    dst: Vec<Coord>,
    meta: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketPool {
    /// An empty pool with room for `cap` packets before reallocating.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        PacketPool {
            dst: Vec::with_capacity(cap),
            meta: Vec::with_capacity(cap),
            free: Vec::new(),
        }
    }

    /// Stores a packet, returning its slot index.
    #[inline]
    pub(crate) fn insert(&mut self, pkt: Packet) -> u32 {
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
    pub(crate) fn dst(&self, idx: u32) -> Coord {
        self.dst[idx as usize]
    }

    /// The full packet record in `idx`.
    #[inline]
    pub(crate) fn get(&self, idx: u32) -> &Packet {
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
    #[cfg(test)]
    pub(crate) fn write(&mut self, idx: u32, pkt: &Packet) {
        debug_assert_eq!(
            self.dst[idx as usize], pkt.dst,
            "packet dst mutated in flight"
        );
        self.meta[idx as usize] = *pkt;
    }

    /// Returns `idx` to the free list without reading it.
    #[inline]
    pub(crate) fn release(&mut self, idx: u32) {
        debug_assert!(!self.free.contains(&idx), "double free of pool slot");
        self.free.push(idx);
    }

    /// Removes and returns the packet in `idx`.
    #[inline]
    pub(crate) fn remove(&mut self, idx: u32) -> Packet {
        let pkt = self.meta[idx as usize];
        self.release(idx);
        pkt
    }

    /// Packets currently stored.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.meta.len() - self.free.len()
    }

    /// Freed slots available for recycling before the pool must grow.
    #[inline]
    pub(crate) fn free_slots(&self) -> usize {
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
    use crate::routing::demoted_prefs;
    use crate::topology::Topology;

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
                let what = format!("{} at {at} port {port} dst {dst}", cfg.name());
                let id = lut.id(class, port, at, dst);
                let prefs = compute_prefs(cfg, class, port, at, dst);
                assert_eq!(lut.lookup(class, port, at, dst), prefs, "{what}");
                let demoted = demoted_prefs(cfg, class, port, at, dst);
                assert_eq!(lut.demoted(class, port, id), demoted, "{what}");
            }
        }
    }

    /// The LUT must agree with `compute_prefs` (and, for what a stranded
    /// packet is demoted to, `demoted_prefs`) on every position, input
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
        /// Every made block's visit entries: how many are computed, of
        /// how many.
        pub(crate) fn visits_filled(&self) -> (usize, usize) {
            (self.visits.iter().flatten().count(), self.visits.len())
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
    ///   outputs;
    /// * read with outputs lost — `Exit` gated off (the multi-channel
    ///   gate) on every fabric, and on the kernel fabrics every subset of
    ///   `{E_ex, S_ex, Exit}` the class has, dead links included — the
    ///   visit is `Decision::decide(.., false)` after the Inject policy's
    ///   stranding rule, under both stranding outcomes (drop, demote),
    ///   records the dead link each list preferred, and obeys the rule
    ///   whenever a complete matching exists; with no dead link it
    ///   strands nothing;
    /// * on the kernel fabrics, `Decision::decide(.., false)` on every
    ///   subset of the class's outputs obeys the rule whenever a
    ///   complete matching exists;
    /// * the memoised injection is the first port of the PE's list that
    ///   is live and has a free slot, for every slot mask and every such
    ///   subset;
    /// * per policy and class, the (input, output) pairs visits and
    ///   injections use over all fabrics are exactly `allowed_outputs`:
    ///   no mux input is dead and none is missing.
    #[test]
    fn decision_table_matches_the_allocator_on_every_key() {
        use crate::alloc::allocate;
        let policies = [None, Some(FtPolicy::Full), Some(FtPolicy::Inject)];
        // Per (policy, class, input): the outputs some fabric used.
        let mut union = [[[OutSet::empty(); 5]; 4]; 3];
        let (kernel, side_8) = (configs(), fabrics_of_side(8));
        let droppable = OutSet::from_ports(&[OutPort::EastEx, OutPort::SouthEx, OutPort::Exit]);
        for base in kernel
            .iter()
            .chain(side_8.iter().filter(|c| !kernel.contains(c)))
        {
            let p = policies
                .iter()
                .position(|&q| q == base.ft_policy())
                .unwrap();
            let inject = base.ft_policy() == Some(FtPolicy::Inject);
            for exit in [ExitPolicy::SharedWithSouth, ExitPolicy::Dedicated] {
                let cfg = base.clone().with_exit_policy(exit);
                let lut = RouteLut::build(&cfg);
                assert_lists_obey_the_rules(&cfg, &lut);
                // One table drops stranded express packets, one demotes.
                let mut tables =
                    [false, true].map(|d| DecisionTable::new(lut.clone(), exit, [d; 4]));
                for class in (0..4).map(RouterClass::from_code) {
                    let used = &mut union[p][class.code()];
                    let avail = class.available_outputs();
                    let all_slots = avail.iter().fold(0, |m, p| m | slot(p, exit));
                    // The outputs a visit can lose here: the gate, and on
                    // the kernel fabrics dead express links too.
                    let losable = match kernel.contains(base) {
                        true => avail.intersect(droppable),
                        false => OutSet::from_ports(&[OutPort::Exit]),
                    };
                    let losses: Vec<OutSet> = (0u8..32)
                        .filter(|bits| bits & !losable.bits() == 0)
                        .map(|bits| {
                            let lost = OutPort::ALL.into_iter();
                            lost.filter(|p| bits >> p.index() & 1 == 1).collect()
                        })
                        .collect();
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
                        let got = tables[0].visit(class, avail, &ids);
                        assert_eq!(got, tables[0].visit(class, avail, &ids), "a hit repeats");
                        assert_eq!(got, tables[1].visit(class, avail, &ids), "nothing strands");
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
                        assert!(obeys_the_rule(&inputs, got, avail, exit, &what), "{what}");
                        for &s in &occupied {
                            used[s].insert(got.out(s).unwrap());
                        }
                        for &lost in losses.iter().skip(1) {
                            let outputs = avail.difference(lost);
                            let mut dead = lost;
                            dead.remove(OutPort::Exit);
                            for (demote, table) in tables.iter_mut().enumerate() {
                                let got = table.visit(class, outputs, &ids);
                                let what = format!("{what} lost {lost:?} demote {demote}");
                                // The Inject crossbar strands an express
                                // packet whose productive outputs are all
                                // dead: dropped, or placed by its shared
                                // twin's list.
                                let mut placed = inputs;
                                for &s in &occupied {
                                    let productive = inputs[s].productive();
                                    let avoided = productive.intersect(dead).iter().next();
                                    let stranded = inject
                                        && InPort::ALL[s].is_express()
                                        && avoided.is_some()
                                        && productive.difference(dead).is_empty();
                                    assert_eq!(got.avoided(s), avoided, "{what}");
                                    assert_eq!(got.stranded_express(s), stranded, "{what}");
                                    if stranded {
                                        placed[s] = match demote {
                                            1 => lut.demoted(class, InPort::ALL[s], ids[s]),
                                            _ => RoutePrefs::empty(),
                                        };
                                    }
                                }
                                let plain = Decision::decide(&placed, outputs, exit, false);
                                for &s in &occupied {
                                    let placed = !placed[s].ports().is_empty();
                                    let out = plain.out(s).filter(|_| placed);
                                    assert_eq!(got.out(s), out, "{what}: input {s}");
                                    assert_eq!(got.deflected(s), plain.deflected(s), "{what}");
                                    assert_eq!(got.demoted(s), plain.demoted(s), "{what}");
                                }
                                assert_eq!(got.free(), plain.free(), "{what}");
                                let matched = obeys_the_rule(&placed, got, outputs, exit, &what);
                                assert!(matched || !dead.is_empty(), "{what}");
                                if dead.is_empty() {
                                    for &s in &occupied {
                                        used[s].insert(got.out(s).unwrap());
                                    }
                                }
                            }
                        }
                        // `try_allocate` takes any output set: on every
                        // subset the rule holds where a matching exists.
                        for bits in (0..32).filter(|_| kernel.contains(base)) {
                            let ports = avail.iter().filter(|p| bits >> p.index() & 1 == 1);
                            let sub = ports.collect();
                            let visit = Decision::decide(&inputs, sub, exit, false);
                            obeys_the_rule(&inputs, visit, sub, exit, &what);
                        }
                    }
                    for &lost in &losses {
                        let outputs = avail.difference(lost);
                        let mut dead = lost;
                        dead.remove(OutPort::Exit);
                        for (id, pe) in lut.lists(class, InPort::Pe).iter().enumerate().skip(1) {
                            for free in 0u8..32 {
                                let got = tables[0].inject(class, outputs, id as u8, free);
                                let out = open(pe, outputs, exit, !free).next();
                                let avoided = pe.productive().intersect(dead).iter().next();
                                let what = format!("{} {class:?} PE {:?} {lost:?}", cfg.name(), pe);
                                assert_eq!(got.out, out, "{what}");
                                assert_eq!(got.avoided, out.and(avoided), "{what}");
                                if let (Some(out), true) = (out, lost.is_empty()) {
                                    used[InPort::Pe.index()].insert(out);
                                }
                            }
                        }
                    }
                }
                let (filled, all) = tables[0].visits_filled();
                assert_eq!(filled, all);
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
