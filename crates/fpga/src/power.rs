//! Power and energy model (paper Table II and Figure 19).
//!
//! Dynamic power is modeled per resource class and calibrated against
//! Table II's Vivado power numbers for the three 8×8 256-bit designs:
//! Hoplite 9.8 W @344 MHz, FT(64,2,1) 25.1 W @320 MHz, FT(64,2,2)
//! 19.9 W @323 MHz. The long express wires carry a higher per-slice
//! energy (they are driven across faster, higher-capacitance routing
//! tracks), which is what makes FastTrack "2–2.5× more power hungry"
//! despite being only ~2–3× the logic.
//!
//! Workload energy splits the same coefficients into a static/clocking
//! share (paid per cycle) and a per-hop share (paid per link traversal),
//! so a NoC that finishes the workload in fewer cycles with fewer
//! deflections — FastTrack's whole value proposition — wins on energy
//! even at higher peak power (Figure 19).

use fasttrack_core::stats::SimStats;
use fasttrack_core::topology::Topology;

use crate::device::Device;
use crate::resources::{class_spans, noc_cost, wire_slice_bits};

/// Calibrated power coefficients. Units: picojoules per cycle per unit
/// (equivalently µW/MHz per unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Energy per flip-flop per cycle at full activity, pJ.
    pub pj_per_ff: f64,
    /// Energy per LUT per cycle at full activity, pJ.
    pub pj_per_lut: f64,
    /// Energy per slice·bit of short wire per cycle at full activity, pJ.
    pub pj_per_short_slice_bit: f64,
    /// Express-wire energy multiplier over short wire (faster tracks,
    /// higher capacitance per slice spanned).
    pub express_wire_factor: f64,
    /// Fraction of full-activity power burned regardless of traffic
    /// (clock network, control toggling).
    pub static_fraction: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            pj_per_ff: 0.10,
            pj_per_lut: 0.10,
            pj_per_short_slice_bit: 0.019,
            express_wire_factor: 1.25,
            static_fraction: 0.25,
        }
    }
}

impl PowerModel {
    /// Full-activity dynamic power in watts of `channels` copies of the
    /// NoC at `width` bits running at `freq_mhz` (the Table II metric).
    pub fn dynamic_power_w(
        &self,
        device: &Device,
        topo: &dyn Topology,
        width: u32,
        freq_mhz: f64,
        channels: u32,
    ) -> f64 {
        let cost = noc_cost(topo, width).replicated(channels);
        let (short, express) = wire_slice_bits(device, topo, width);
        let pj_per_cycle = self.pj_per_ff * cost.ffs as f64
            + self.pj_per_lut * cost.luts as f64
            + self.pj_per_short_slice_bit
                * channels as f64
                * (short + self.express_wire_factor * express);
        // pJ/cycle × MHz = µW.
        pj_per_cycle * freq_mhz * 1e-6
    }

    /// Energy in joules to run a workload: `cycles` at `freq_mhz` with
    /// the given measured link-traversal counts. A hop of either wire
    /// class is charged the mean span of that class's links (1 for a
    /// class the fabric lacks).
    #[allow(clippy::too_many_arguments)]
    pub fn workload_energy_j(
        &self,
        device: &Device,
        topo: &dyn Topology,
        width: u32,
        freq_mhz: f64,
        channels: u32,
        cycles: u64,
        stats: &SimStats,
    ) -> f64 {
        let p_full = self.dynamic_power_w(device, topo, width, freq_mhz, channels);
        let seconds = cycles as f64 / (freq_mhz * 1e6);
        let static_energy = self.static_fraction * p_full * seconds;

        let tile = device.tile_width_slices(topo.spec().side());
        let w = width as f64;
        let [short_span, express_span] =
            class_spans(topo).map(|(span, links)| span.max(1) as f64 / links.max(1) as f64);
        let e_short = self.pj_per_short_slice_bit * (short_span * tile) * w * 1e-12;
        let e_express = self.express_wire_factor
            * self.pj_per_short_slice_bit
            * (express_span * tile)
            * w
            * 1e-12;
        // Register/logic toggling along each hop (input+output registers
        // plus the switch mux column).
        let e_logic = (2.0 * self.pj_per_ff + self.pj_per_lut) * w * 1e-12;

        let hop_energy = stats.link_usage.short_hops as f64 * (e_short + e_logic)
            + stats.link_usage.express_hops as f64 * (e_express + e_logic);
        static_energy + hop_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::{FtPolicy, NocConfig};
    use fasttrack_core::stats::LinkUsage;

    fn dev() -> Device {
        Device::virtex7_485t()
    }

    fn ft(d: u16, r: u16) -> NocConfig {
        NocConfig::fasttrack(8, d, r, FtPolicy::Full).unwrap()
    }

    #[test]
    fn table2_power_calibration() {
        let m = PowerModel::default();
        let d = dev();
        // Hoplite 8×8 256 b @344 MHz → 9.8 W.
        let p_h = m.dynamic_power_w(&d, &NocConfig::hoplite(8).unwrap(), 256, 344.0, 1);
        assert!((p_h - 9.8).abs() < 0.5, "Hoplite power {p_h}");
        // FT(64,2,1) @320 → 25.1 W (model within ~10%).
        let p_f1 = m.dynamic_power_w(&d, &ft(2, 1), 256, 320.0, 1);
        assert!((p_f1 - 25.1).abs() < 3.0, "FT(64,2,1) power {p_f1}");
        // FT(64,2,2) @323 → 19.9 W (model within ~10%).
        let p_f2 = m.dynamic_power_w(&d, &ft(2, 2), 256, 323.0, 1);
        assert!((p_f2 - 19.9).abs() < 2.5, "FT(64,2,2) power {p_f2}");
        // Paper: FastTrack is 2–2.5× more power hungry.
        let ratio = p_f1 / p_h;
        assert!((2.0..=3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn power_scales_with_frequency_and_channels() {
        let m = PowerModel::default();
        let d = dev();
        let cfg = NocConfig::hoplite(8).unwrap();
        let p1 = m.dynamic_power_w(&d, &cfg, 256, 300.0, 1);
        let p2 = m.dynamic_power_w(&d, &cfg, 256, 600.0, 1);
        assert!((p2 / p1 - 2.0).abs() < 1e-9);
        let p3 = m.dynamic_power_w(&d, &cfg, 256, 300.0, 3);
        assert!((p3 / p1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn workload_energy_rewards_fewer_cycles() {
        let m = PowerModel::default();
        let d = dev();
        let cfg = NocConfig::hoplite(8).unwrap();
        let mut stats = SimStats {
            link_usage: LinkUsage {
                short_hops: 1_000_000,
                express_hops: 0,
            },
            ..Default::default()
        };
        let slow = m.workload_energy_j(&d, &cfg, 256, 344.0, 1, 100_000, &stats);
        let fast = m.workload_energy_j(&d, &cfg, 256, 344.0, 1, 40_000, &stats);
        assert!(fast < slow);
        // Same cycles, fewer hops -> less energy.
        stats.link_usage.short_hops = 200_000;
        let fewer_hops = m.workload_energy_j(&d, &cfg, 256, 344.0, 1, 100_000, &stats);
        assert!(fewer_hops < slow);
    }

    #[test]
    fn express_hops_cost_more_than_short() {
        let m = PowerModel::default();
        let d = dev();
        let cfg = ft(2, 1);
        let short_only = SimStats {
            link_usage: LinkUsage {
                short_hops: 1_000_000,
                express_hops: 0,
            },
            ..Default::default()
        };
        let express_only = SimStats {
            link_usage: LinkUsage {
                short_hops: 0,
                express_hops: 1_000_000,
            },
            ..Default::default()
        };
        let e_s = m.workload_energy_j(&d, &cfg, 256, 320.0, 1, 50_000, &short_only);
        let e_x = m.workload_energy_j(&d, &cfg, 256, 320.0, 1, 50_000, &express_only);
        assert!(e_x > e_s);
        // ...but an express hop covers D routers, so per-distance it is
        // cheaper than D short hops.
        let d_short = SimStats {
            link_usage: LinkUsage {
                short_hops: 2_000_000,
                express_hops: 0,
            },
            ..Default::default()
        };
        let e_2s = m.workload_energy_j(&d, &cfg, 256, 320.0, 1, 50_000, &d_short);
        assert!(e_x < e_2s);
    }
}
