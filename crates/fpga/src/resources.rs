//! NoC-level cost: the routers' LUTs and FFs from the one price list,
//! [`Topology::resource_cost`], plus what it does not cover: the wire
//! bundles crossing a channel cut and the wire length power charges.
//! Both read the fabric's links ([`Topology::links`]), so every fabric
//! is wired by the same rule.

use fasttrack_core::topology::{Topology, WireClass};

use crate::device::Device;

/// Aggregate cost of one NoC channel.
#[derive(Debug, Clone, PartialEq)]
pub struct NocCost {
    /// Total LUTs across all routers.
    pub luts: u64,
    /// Total FFs across all routers.
    pub ffs: u64,
    /// Wire bundles crossing each channel cut: the X links' spans per
    /// router, rounded up (`1 + D/R` on a torus, 1 for Hoplite, 2 for a
    /// mesh, `2^δ − 1` for an SHG).
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

/// The aggregate cost of `topo` at `width` bits: its price-list entry
/// and its wire bundles per cut. A cut between two router columns
/// crosses every X link once per router position it spans, so the
/// bundles are the X links' total span over the router count.
pub fn noc_cost(topo: &dyn Topology, width: u32) -> NocCost {
    let (luts, ffs) = topo.resource_cost().at(width);
    let x_span: u64 = topo
        .links()
        .iter()
        .filter(|l| l.port.is_east())
        .map(|l| u64::from(l.span))
        .sum();
    let bundles = x_span.div_ceil(topo.num_nodes() as u64) as u32;
    NocCost {
        luts,
        ffs,
        wire_bundles_per_cut: bundles,
        wire_bits_per_cut: width as u64 * bundles as u64,
    }
}

/// `(total span, links)` of each wire class, `[short, express]`.
pub(crate) fn class_spans(topo: &dyn Topology) -> [(u64, u64); 2] {
    let mut spans = [(0, 0); 2];
    for link in topo.links() {
        let class = &mut spans[usize::from(link.class == WireClass::Express)];
        class.0 += u64::from(link.span);
        class.1 += 1;
    }
    spans
}

/// Total wire length in slice·bits for one NoC channel, split into
/// (short, express): every link's span in router tiles, times the tile
/// width, times the datapath width. Used by the power model.
pub fn wire_slice_bits(device: &Device, topo: &dyn Topology, width: u32) -> (f64, f64) {
    let tile = device.tile_width_slices(topo.spec().side());
    let [short, express] = class_spans(topo).map(|(span, _)| span as f64 * tile * width as f64);
    (short, express)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::{FtPolicy, NocConfig};

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

    /// A cut between two router columns crosses one short bundle and
    /// `D/R` express bundles braided through the ring (paper §IV-A).
    #[test]
    fn torus_bundles_per_cut_are_one_plus_d_over_r() {
        for n in [4, 8, 16] {
            for d in 2..=n / 2 {
                for r in (1..=d).filter(|r| d % r == 0 && n % r == 0) {
                    for policy in [FtPolicy::Full, FtPolicy::Inject] {
                        let cfg = NocConfig::fasttrack(n, d, r, policy).unwrap();
                        let bundles = noc_cost(&cfg, 64).wire_bundles_per_cut;
                        assert_eq!(bundles, u32::from(1 + d / r), "{}", cfg.name());
                    }
                }
            }
            let hoplite = NocConfig::hoplite(n).unwrap();
            assert_eq!(noc_cost(&hoplite, 64).wire_bundles_per_cut, 1);
            // FT(N,1,1) runs Hoplite's datapath, so it has Hoplite's wires.
            let ft1 = NocConfig::fasttrack(n, 1, 1, FtPolicy::Full).unwrap();
            assert_eq!(noc_cost(&ft1, 64), noc_cost(&hoplite, 64));
        }
    }

    /// SHG strides 1, 2, … 2^(δ-1) each cross a cut that many times; a
    /// mesh row crosses it once each way.
    #[test]
    fn shg_and_mesh_bundles_read_their_links() {
        use fasttrack_core::topology::{topology_of, ShgConfig, ShgTopology, TopologySpec};
        for (delta, bundles) in [(1, 1), (2, 3), (3, 7)] {
            let shg = ShgTopology::new(ShgConfig::new(8, delta).unwrap());
            assert_eq!(noc_cost(&shg, 32).wire_bundles_per_cut, bundles);
        }
        let mesh = topology_of(&TopologySpec::Mesh { n: 8, depth: 4 });
        assert_eq!(noc_cost(&*mesh, 32).wire_bundles_per_cut, 2);
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
