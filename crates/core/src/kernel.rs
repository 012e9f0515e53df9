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
//! input is configuration-static. A [`RouteLut`] therefore precomputes
//! the full preference list for every `(class, input port, dx, dy)` key
//! at engine construction, turning the hot path into one table load.
//!
//! The second half of the kernel is the [`PacketPool`]: in-flight packets
//! move out of the link registers into a slab with free-list reuse, and
//! the registers hold compact `u32` slot indices ([`EMPTY_SLOT`] when
//! idle). The register scan — four loads per router per cycle — touches
//! 16 bytes instead of four `Option<Packet>`s, and the routing phase
//! reads only the pool's destination column, keeping the working set of
//! the gather/route phase small enough to stay cache-resident.

use std::sync::Arc;

use crate::config::NocConfig;
use crate::geom::Coord;
use crate::packet::Packet;
use crate::port::InPort;
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

/// Precomputed route preferences for every `(class, in port, dx, dy)`.
///
/// Shared between the channels of a multi-channel bank behind an
/// [`Arc`], so replicating an engine never rebuilds the table.
#[derive(Debug, Clone)]
pub struct RouteLut {
    n: u16,
    prefs: Vec<RoutePrefs>,
}

impl RouteLut {
    /// Builds the table for `cfg`. Only keys that can occur are filled:
    /// classes realized by some router position, and input ports that
    /// exist at that class under the configuration's policy.
    pub fn build(cfg: &NocConfig) -> Arc<RouteLut> {
        let n = cfg.n();
        let nn = n as usize * n as usize;
        let mut prefs = vec![RoutePrefs::empty(); 4 * 5 * nn];
        // One representative position per realized class: positions of
        // equal class share every entry (`compute_prefs` sees position
        // only through the class and the ring deltas).
        let mut reps: [Option<Coord>; 4] = [None; 4];
        for id in 0..cfg.num_nodes() {
            let at = Coord::from_node_id(id, n);
            let rep = &mut reps[RouterClass::of(cfg, at).code()];
            if rep.is_none() {
                *rep = Some(at);
            }
        }
        for (code, rep) in reps.iter().enumerate() {
            let Some(at) = *rep else { continue };
            let class = RouterClass::from_code(code);
            for port in InPort::ALL {
                if !class.has_input(port) || (cfg.ft_policy().is_none() && port.is_express()) {
                    continue;
                }
                for dx in 0..n {
                    for dy in 0..n {
                        let dst = Coord::new((at.x + dx) % n, (at.y + dy) % n);
                        prefs[Self::index(n, code, port, dx, dy)] =
                            compute_prefs(cfg, class, port, at, dst);
                    }
                }
            }
        }
        Arc::new(RouteLut { n, prefs })
    }

    #[inline]
    fn index(n: u16, code: usize, port: InPort, dx: u16, dy: u16) -> usize {
        ((code * 5 + port.index()) * n as usize + dx as usize) * n as usize + dy as usize
    }

    /// The precomputed preference list for a packet arriving on `port` at
    /// a router of `class` at `at`, heading for `dst`. Bit-identical to
    /// [`compute_prefs`] on the same arguments.
    #[inline]
    pub fn lookup(&self, class: RouterClass, port: InPort, at: Coord, dst: Coord) -> RoutePrefs {
        let dx = at.dx_to(dst, self.n);
        let dy = at.dy_to(dst, self.n);
        self.prefs[Self::index(self.n, class.code(), port, dx, dy)]
    }

    /// Table entries (all keys, filled or not).
    pub fn len(&self) -> usize {
        self.prefs.len()
    }

    /// True when the table holds no entries (never for a built table).
    pub fn is_empty(&self) -> bool {
        self.prefs.is_empty()
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
            let nn = lut.n as usize * lut.n as usize;
            for (i, prefs) in lut.prefs.iter().enumerate() {
                let seen = &mut by_port[i / nn % 5];
                if !seen.iter().any(|p| p.ports() == prefs.ports()) {
                    seen.push(*prefs);
                }
            }
        }
        by_port
    }

    /// The LUT must agree with `compute_prefs` on every position, input
    /// port, and destination — exhaustively, not just on samples.
    #[test]
    fn lut_matches_computed_prefs_exhaustively() {
        for cfg in configs() {
            let lut = RouteLut::build(&cfg);
            let n = cfg.n();
            for id in 0..cfg.num_nodes() {
                let at = Coord::from_node_id(id, n);
                let class = RouterClass::of(&cfg, at);
                for port in InPort::ALL {
                    if !class.has_input(port) || (cfg.ft_policy().is_none() && port.is_express()) {
                        continue;
                    }
                    for dst_id in 0..cfg.num_nodes() {
                        let dst = Coord::from_node_id(dst_id, n);
                        assert_eq!(
                            lut.lookup(class, port, at, dst),
                            compute_prefs(&cfg, class, port, at, dst),
                            "{} at {at} port {port} dst {dst}",
                            cfg.name()
                        );
                    }
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
