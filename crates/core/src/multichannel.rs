//! Multi-channel (replicated) Hoplite: `K` independent physical NoC
//! channels sharing each PE's single injection and delivery port.
//!
//! The paper uses Hoplite-2x / Hoplite-3x as the iso-resource comparison
//! points for FastTrack (a 3-channel Hoplite consumes the same wiring as
//! FT(·,2,1)). Fairness rule (paper §V): the client interface is not
//! widened — a PE injects at most one packet per cycle (into whichever
//! channel can take it) and consumes at most one delivery per cycle;
//! arrivals beyond the first deflect inside their own channel.
//!
//! Channel priority rotates every cycle so no channel is structurally
//! favored for injection or delivery.

use crate::config::NocConfig;
use crate::fallback::CompiledFallback;
use crate::fault::{FaultError, FaultPlan};
use crate::kernel::{RouteLut, RouteMode};
use crate::noc::{Noc, StepGates};
use crate::packet::{Delivery, Packet};
use crate::queue::InjectQueues;
use crate::stats::SimStats;
use crate::trace::EventSink;

/// The widest bank a command line or a trace header may ask for. Each
/// channel is a full copy of the fabric's registers, so a count taken
/// from outside the program is an allocation of that size; the paper's
/// widest bank is Hoplite-3x (Fig 13).
pub const MAX_CHANNELS: usize = 16;

/// A bank of replicated NoC channels behind shared PE ports.
#[derive(Debug, Clone)]
pub struct MultiNoc {
    channels: Vec<Noc>,
    gates: StepGates,
    rotation: usize,
    cycle: u64,
    /// Packets evicted by an `AlternateChannel` fallback step, waiting
    /// for a free shared input register on a sibling channel:
    /// `(source channel, node, packet)`. Counted by
    /// [`MultiNoc::in_flight`] so conservation holds across switches.
    pending: Vec<(usize, usize, Packet)>,
}

impl MultiNoc {
    /// Builds `channels` identical copies of the NoC described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(cfg: NocConfig, channels: usize) -> Self {
        MultiNoc::bank(Noc::new(cfg), channels)
    }

    /// Builds `channels` copies of the NoC with the same fault plan
    /// injected into each (a broken router or link is broken in every
    /// replicated channel — the channels share the physical fabric
    /// region). An empty plan is identical to [`MultiNoc::new`].
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn with_faults(
        cfg: NocConfig,
        channels: usize,
        plan: &FaultPlan,
    ) -> Result<Self, FaultError> {
        plan.validate(&cfg)?;
        Ok(MultiNoc::bank(Noc::with_faults(cfg, plan)?, channels))
    }

    /// The bank of `channels` copies of `first`: clones share the route
    /// LUT behind its `Arc`, so the table is computed once per bank.
    fn bank(first: Noc, channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        let nodes = first.config().num_nodes();
        let mut chans = Vec::with_capacity(channels);
        for _ in 1..channels {
            chans.push(first.clone());
        }
        chans.push(first);
        MultiNoc {
            channels: chans,
            gates: StepGates::new(nodes),
            rotation: 0,
            cycle: 0,
            pending: Vec::new(),
        }
    }

    /// Installs compiled fallback chains on every channel, arming
    /// `AlternateChannel` evictions when the bank has a sibling to
    /// switch to.
    pub(crate) fn set_fallback(&mut self, fallback: CompiledFallback) {
        let multi = self.channels.len() > 1;
        for ch in &mut self.channels {
            ch.set_fallback(fallback);
            if multi {
                ch.enable_eviction();
            }
        }
    }

    /// Switches route resolution on every channel. Entering
    /// [`RouteMode::Lut`] builds (or reuses) one table and shares it
    /// across the bank.
    pub(crate) fn set_route_mode(&mut self, mode: RouteMode) {
        match mode {
            RouteMode::Direct => {
                for ch in &mut self.channels {
                    ch.set_route_mode(RouteMode::Direct);
                }
            }
            RouteMode::Lut => {
                let lut = self
                    .channels
                    .iter()
                    .find_map(Noc::lut_handle)
                    .unwrap_or_else(|| RouteLut::build(self.config()));
                for ch in &mut self.channels {
                    ch.install_lut(lut.clone());
                }
            }
        }
    }

    /// See [`Noc::only_failed_injectors_pending`]; all channels share
    /// the fault plan, so channel 0 answers for the bank.
    pub(crate) fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        self.channels[0].only_failed_injectors_pending(queues)
    }

    /// Number of channels.
    pub(crate) fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The per-channel configuration.
    pub fn config(&self) -> &NocConfig {
        self.channels[0].config()
    }

    /// Total packets in flight across all channels, including packets
    /// mid-switch between channels; drivers
    /// must keep cycling until these drain too.
    pub fn in_flight(&self) -> usize {
        self.channels.iter().map(Noc::in_flight).sum::<usize>() + self.pending.len()
    }

    /// Advances all channels by one cycle, enforcing the one-injection /
    /// one-delivery-per-PE rule across them, with an [`EventSink`]
    /// observing all channels. The sink's [`EventSink::set_channel`] is
    /// called before each channel's events so consumers can attribute
    /// them.
    pub(crate) fn step_with_sink<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        self.gates.reset();
        let k = self.channels.len();
        // Land last cycle's channel-switch evictions first: each packet
        // tries the sibling channels in deterministic order and becomes
        // an ordinary shared-ring input this cycle; if every slot is
        // taken it stays pending (still in flight) and retries next
        // cycle.
        if !self.pending.is_empty() {
            let mut retained = Vec::new();
            for (src, node, pkt) in self.pending.drain(..) {
                let adopted = (1..k)
                    .map(|off| (src + off) % k)
                    .any(|ch| self.channels[ch].adopt(node, pkt));
                if !adopted {
                    retained.push((src, node, pkt));
                }
            }
            self.pending = retained;
        }
        for i in 0..k {
            let ch = (self.rotation + i) % k;
            if S::ENABLED {
                sink.set_channel(ch);
            }
            self.channels[ch].step_with_sink(queues, deliveries, Some(&mut self.gates), sink);
            for (node, pkt) in self.channels[ch].take_evicted() {
                self.pending.push((ch, node, pkt));
            }
        }
        self.rotation = (self.rotation + 1) % k;
        self.cycle += 1;
    }

    /// Sum of all channels' statistics.
    pub(crate) fn merged_stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for ch in &self.channels {
            total.merge(ch.stats());
        }
        total
    }

    /// Clears statistics on every channel.
    pub(crate) fn reset_stats(&mut self) {
        for ch in &mut self.channels {
            ch.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Coord;
    use crate::trace::NullSink;

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        MultiNoc::new(NocConfig::hoplite(4).unwrap(), 0);
    }

    #[test]
    fn channels_share_injection_bandwidth() {
        // One node with many queued packets: at most one injection per
        // cycle regardless of channel count.
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut mnoc = MultiNoc::new(cfg, 3);
        let mut q = InjectQueues::new(16);
        for _ in 0..30 {
            q.push(0, Coord::new(2, 0), 0, 0);
        }
        let mut dels = Vec::new();
        mnoc.step_with_sink(&mut q, &mut dels, &mut NullSink);
        // Exactly one packet left the queue.
        assert_eq!((0..q.nodes()).map(|n| q.depth(n)).sum::<usize>(), 29);
        assert_eq!(mnoc.in_flight(), 1);
    }

    #[test]
    fn rotation_balances_channels() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut mnoc = MultiNoc::new(cfg, 2);
        let mut q = InjectQueues::new(16);
        for _ in 0..40 {
            q.push(0, Coord::new(2, 0), 0, 0);
        }
        let mut dels = Vec::new();
        for _ in 0..200 {
            mnoc.step_with_sink(&mut q, &mut dels, &mut NullSink);
            if q.is_empty() && mnoc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(dels.len(), 40);
        let per_channel: Vec<u64> = mnoc
            .channels
            .iter()
            .map(Noc::stats)
            .map(|s| s.injected)
            .collect();
        // Rotation alternates the favored channel, so the split is even.
        assert_eq!(per_channel.iter().sum::<u64>(), 40);
        assert!(
            per_channel.iter().all(|&c| c >= 15),
            "unbalanced: {per_channel:?}"
        );
    }

    #[test]
    fn single_delivery_per_pe_per_cycle() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut mnoc = MultiNoc::new(cfg, 3);
        let mut q = InjectQueues::new(16);
        // Many nodes all targeting (0,0).
        for node in 1..16 {
            for _ in 0..3 {
                q.push(node, Coord::new(0, 0), 0, 0);
            }
        }
        let mut dels = Vec::new();
        for _ in 0..5000 {
            mnoc.step_with_sink(&mut q, &mut dels, &mut NullSink);
            if q.is_empty() && mnoc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(dels.len(), 45);
        let mut per_cycle = std::collections::HashMap::new();
        for d in &dels {
            *per_cycle.entry(d.cycle).or_insert(0u32) += 1;
        }
        assert!(
            per_cycle.values().all(|&c| c <= 1),
            "PE accepted >1 delivery per cycle"
        );
    }

    #[test]
    fn health_monitor_observes_every_channel() {
        use crate::monitor::{HealthMonitor, MonitorConfig};
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut mnoc = MultiNoc::new(cfg, 3);
        let mut q = InjectQueues::new(16);
        for node in 0..16 {
            q.push(node, Coord::new(3, (node % 4) as u16), 0, 0);
        }
        let mut monitor = HealthMonitor::new(
            crate::topology::MonitorShape::torus(4).with_channels(3),
            MonitorConfig::default(),
        );
        let mut dels = Vec::new();
        for c in 0..500 {
            mnoc.step_with_sink(&mut q, &mut dels, &mut monitor);
            let per_channel = mnoc.channels.iter().map(Noc::in_flight).collect::<Vec<_>>();
            assert_eq!(per_channel.iter().sum::<usize>(), mnoc.in_flight());
            assert_eq!(per_channel.len(), 3);
            if q.is_empty() && mnoc.in_flight() == 0 {
                let _ = c;
                break;
            }
        }
        let s = monitor.summary();
        assert_eq!(s.injected, 16);
        assert_eq!(s.delivered, 16);
        assert!(s.healthy());
    }

    #[test]
    fn adopted_packets_keep_occupancy_masks_exact() {
        use crate::packet::PacketId;
        // Channel-switch evictions land through `adopt`, which writes the
        // *current* registers between steps: the adopting channel must
        // visit that router this very cycle, or the packet is lost.
        let cfg = NocConfig::hoplite(8).unwrap();
        let mut mnoc = MultiNoc::new(cfg, 3);
        let mut q = InjectQueues::new(64);
        for node in 0..64 {
            q.push(node, Coord::new(((node + 3) % 8) as u16, 5), 0, 0);
        }
        let mut dels = Vec::new();
        let mut adopted = 0;
        for cycle in 0..500u64 {
            if cycle < 20 {
                // Evicted from channel `cycle % 3` at a spread of nodes.
                let node = (cycle as usize * 11) % 64;
                let pkt = Packet::new(
                    PacketId(1_000 + cycle),
                    Coord::from_node_id(node, 8),
                    Coord::new(2, 6),
                    cycle,
                    0,
                );
                mnoc.pending.push((cycle as usize % 3, node, pkt));
                adopted += 1;
            }
            mnoc.step_with_sink(&mut q, &mut dels, &mut NullSink);
            for ch in &mnoc.channels {
                assert!(ch.occupancy_masks_exact(), "cycle {cycle}");
            }
            if q.is_empty() && mnoc.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(mnoc.in_flight(), 0);
        assert_eq!(dels.len(), 64 + adopted);
    }

    #[test]
    fn merged_stats_sum_channels() {
        let cfg = NocConfig::hoplite(4).unwrap();
        let mut mnoc = MultiNoc::new(cfg, 2);
        let mut q = InjectQueues::new(16);
        for node in 0..16 {
            q.push(node, Coord::new((node % 4) as u16, 3), 0, 0);
        }
        let mut dels = Vec::new();
        for _ in 0..500 {
            mnoc.step_with_sink(&mut q, &mut dels, &mut NullSink);
            if q.is_empty() && mnoc.in_flight() == 0 {
                break;
            }
        }
        let merged = mnoc.merged_stats();
        let sum: u64 = mnoc
            .channels
            .iter()
            .map(Noc::stats)
            .map(|s| s.delivered)
            .sum();
        assert_eq!(merged.delivered, sum);
    }
}
