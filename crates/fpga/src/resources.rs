//! NoC-level cost: the routers' LUTs and FFs from the one price list,
//! [`Topology::resource_cost`], plus what it does not cover: the wire
//! bundles crossing a channel cut and the wire length power charges.

use fasttrack_core::config::NocConfig;
use fasttrack_core::topology::Topology;

use crate::device::Device;

/// Aggregate cost of one NoC channel.
#[derive(Debug, Clone, PartialEq)]
pub struct NocCost {
    /// Total LUTs across all routers.
    pub luts: u64,
    /// Total FFs across all routers.
    pub ffs: u64,
    /// Wire bundles crossing each channel cut (`1 + D/R`; 1 for Hoplite).
    pub wire_bundles_per_cut: u32,
    /// Total wire bits crossing one ring cut (`width × bundles`).
    pub wire_bits_per_cut: u64,
}

impl NocCost {
    /// Cost of `channels` replicated copies (multi-channel Hoplite).
    pub fn replicated(&self, channels: u32) -> NocCost {
        NocCost {
            luts: self.luts * channels as u64,
            ffs: self.ffs * channels as u64,
            wire_bundles_per_cut: self.wire_bundles_per_cut * channels,
            wire_bits_per_cut: self.wire_bits_per_cut * channels as u64,
        }
    }
}

/// The aggregate cost of the NoC described by `cfg` at `width` bits:
/// its price-list entry and its `1 + D/R` wire bundles per cut.
pub fn noc_cost(cfg: &NocConfig, width: u32) -> NocCost {
    let (luts, ffs) = cfg.resource_cost().at(width);
    let mult = cfg.wire_multiplier() as u32;
    NocCost {
        luts,
        ffs,
        wire_bundles_per_cut: mult,
        wire_bits_per_cut: width as u64 * mult as u64,
    }
}

/// Total wire length in slice·bits for one NoC channel, split into
/// (short, express). Used by the power model: short links span one router
/// tile, express links span `D` tiles; each ring has `N` short links and
/// `N/R` express links, and there are `2N` rings (N rows + N columns).
pub fn wire_slice_bits(device: &Device, cfg: &NocConfig, width: u32) -> (f64, f64) {
    let n = cfg.n() as f64;
    let tile = device.tile_width_slices(cfg.n());
    let rings = 2.0 * n;
    let short = rings * n * tile * width as f64;
    let express = if cfg.has_express() {
        let links_per_ring = n / cfg.r() as f64;
        rings * links_per_ring * (cfg.d() as f64 * tile) * width as f64
    } else {
        0.0
    };
    (short, express)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::FtPolicy;

    fn ft(n: u16, d: u16, r: u16) -> NocConfig {
        NocConfig::fasttrack(n, d, r, FtPolicy::Full).unwrap()
    }

    #[test]
    fn table2_hoplite_8x8_256b() {
        let cost = noc_cost(&NocConfig::hoplite(8).unwrap(), 256);
        assert_eq!(cost.luts, 33_664); // paper: 34 K
        assert_eq!(cost.ffs, 83_008); // paper: 83 K
        assert_eq!(cost.wire_bundles_per_cut, 1);
    }

    #[test]
    fn table2_ft_64_2_1_256b() {
        let cost = noc_cost(&ft(8, 2, 1), 256);
        assert_eq!(cost.luts, 104_064); // paper: 104 K (2.6×? 1.7–2.6× range)
        assert_eq!(cost.ffs, 150_016); // paper: 150 K (1.8×)
        assert_eq!(cost.wire_bundles_per_cut, 3);
    }

    #[test]
    fn table2_ft_64_2_2_256b() {
        let cost = noc_cost(&ft(8, 2, 2), 256);
        assert_eq!(cost.luts, 69_120); // paper: 69 K (1.7×)
        assert_eq!(cost.ffs, 116_560); // paper: 117 K (1.4×)
        assert_eq!(cost.wire_bundles_per_cut, 2);
    }

    #[test]
    fn paper_size_ratios_hold() {
        // Paper abstract: an 8×8 FastTrack NoC is 1.7–2.5× larger than
        // base Hoplite.
        let hoplite = noc_cost(&NocConfig::hoplite(8).unwrap(), 256);
        for cfg in [ft(8, 2, 1), ft(8, 2, 2)] {
            let c = noc_cost(&cfg, 256);
            let ratio = c.luts as f64 / hoplite.luts as f64;
            assert!(
                (1.6..=3.2).contains(&ratio),
                "{}: ratio {ratio}",
                cfg.name()
            );
        }
    }

    #[test]
    fn replication_scales_linearly() {
        let base = noc_cost(&NocConfig::hoplite(8).unwrap(), 256);
        let tripled = base.replicated(3);
        assert_eq!(tripled.luts, 3 * base.luts);
        assert_eq!(tripled.wire_bundles_per_cut, 3);
    }

    #[test]
    fn wire_slice_totals() {
        let dev = Device::virtex7_485t();
        let (short_h, express_h) = wire_slice_bits(&dev, &NocConfig::hoplite(8).unwrap(), 256);
        assert_eq!(express_h, 0.0);
        // 16 rings × 8 links × 27 slices × 256 bits = 884736.
        assert!((short_h - 884_736.0).abs() < 1.0);
        let (short_f, express_f) = wire_slice_bits(&dev, &ft(8, 2, 1), 256);
        assert_eq!(short_f, short_h);
        assert!((express_f - 2.0 * short_h).abs() < 1.0);
        // Depopulation halves express wiring.
        let (_, express_d) = wire_slice_bits(&dev, &ft(8, 2, 2), 256);
        assert!((express_d - short_h).abs() < 1.0);
    }
}
