//! NoC frequency estimation and routability analysis (paper Table II and
//! Figure 10).
//!
//! A NoC at a given datawidth either **fits** the device or not (wiring
//! capacity across router-tile boundaries, plus LUT/FF budget), and if
//! it fits it closes timing at a frequency limited by the slowest of:
//!
//! * every link, timed over its span in tiles split by its pipeline
//!   registers: a short link through the router's LUT stages
//!   ([`Topology::lut_stages`], Fig 4's curve), an express link as a
//!   physical bypass wire skipping `span` stages (Fig 6's curve), and
//! * a fabric/congestion cap that degrades with system size and
//!   datawidth (calibrated to Table II: Hoplite 8×8 @256 b ≈ 344 MHz,
//!   FT(64,2,·) ≈ 320 MHz, and to Figure 10's width/size trends).
//!
//! The model reads only a fabric's price, links and side, so the torus,
//! the Sparse Hamming Graph and the buffered mesh are clocked alike.

use fasttrack_core::topology::{LinkDesc, Topology, WireClass};

use crate::device::Device;
use crate::resources::noc_cost;
use crate::wire::{physical_express_mhz, virtual_express_mhz};

/// Why a configuration does not fit the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// Channel wiring demand exceeds the tile-boundary wiring capacity.
    WiringOverflow,
    /// Router logic exceeds the device LUT budget.
    LutOverflow,
    /// Router registers exceed the device FF budget.
    FfOverflow,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::WiringOverflow => f.write_str("wiring capacity exceeded"),
            FitError::LutOverflow => f.write_str("device LUT capacity exceeded"),
            FitError::FfOverflow => f.write_str("device FF capacity exceeded"),
        }
    }
}

impl std::error::Error for FitError {}

/// Fabric/congestion frequency cap, MHz (calibrated; see module docs).
fn fabric_cap_mhz(n: u16, width: u32) -> f64 {
    640.0 - 72.0 * (n as f64).log2() - 10.0 * (width.max(8) as f64).log2()
}

/// Checks whether `channels` copies of the NoC at `width` bits fit the
/// device.
///
/// # Errors
///
/// Returns the binding [`FitError`] when the configuration does not fit.
pub fn check_fit(
    device: &Device,
    topo: &dyn Topology,
    width: u32,
    channels: u32,
) -> Result<(), FitError> {
    let cost = noc_cost(topo, width).replicated(channels);
    if cost.wire_bits_per_cut as f64 > device.channel_capacity(topo.spec().side()) {
        return Err(FitError::WiringOverflow);
    }
    if cost.luts > device.luts {
        return Err(FitError::LutOverflow);
    }
    if cost.ffs > device.ffs {
        return Err(FitError::FfOverflow);
    }
    Ok(())
}

/// Estimated post-route frequency, MHz, of a fitting configuration.
///
/// # Errors
///
/// Returns the binding [`FitError`] when the configuration does not fit
/// (Figure 10's "NA" cells).
pub fn noc_frequency_mhz(
    device: &Device,
    topo: &dyn Topology,
    width: u32,
    channels: u32,
) -> Result<f64, FitError> {
    check_fit(device, topo, width, channels)?;
    let side = topo.spec().side();
    let tile = device.tile_width_slices(side).max(1.0);
    let stages = topo.lut_stages();
    // Pipeline registers (paper §V) split a link into shorter timing
    // segments; the segment holding the router's logic binds.
    let link_mhz = |link: &LinkDesc| {
        let segment = (link.span as f64 * tile / link.cycles as f64)
            .ceil()
            .max(1.0) as u32;
        match link.class {
            WireClass::Short => virtual_express_mhz(device, segment, stages),
            WireClass::Express => physical_express_mhz(device, segment, link.span.into()),
        }
    };
    let slowest = topo
        .links()
        .iter()
        .map(link_mhz)
        .fold(f64::INFINITY, f64::min);
    let fabric = fabric_cap_mhz(side, width);
    // Extra channels add placement pressure around the shared PE.
    let channel_derate = 1.0 - 0.03 * (channels.saturating_sub(1)) as f64;

    Ok(slowest.min(fabric).max(50.0) * channel_derate)
}

/// Largest datawidth (from the paper's sweep set) that fits, if any.
pub fn peak_datawidth(device: &Device, topo: &dyn Topology, channels: u32) -> Option<u32> {
    FIG10_WIDTHS
        .iter()
        .rev()
        .copied()
        .find(|&w| check_fit(device, topo, w, channels).is_ok())
}

/// The datawidth sweep of Figure 10.
pub const FIG10_WIDTHS: [u32; 12] = [8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024];

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::{FtPolicy, NocConfig};

    fn dev() -> Device {
        Device::virtex7_485t()
    }

    fn ft(n: u16, d: u16, r: u16) -> NocConfig {
        NocConfig::fasttrack(n, d, r, FtPolicy::Full).unwrap()
    }

    #[test]
    fn table2_frequencies() {
        let d = dev();
        // Paper Table II: Hoplite 344 MHz, FT(64,2,1) 320, FT(64,2,2) 323.
        let hoplite = noc_frequency_mhz(&d, &NocConfig::hoplite(8).unwrap(), 256, 1).unwrap();
        assert!((330.0..=360.0).contains(&hoplite), "Hoplite {hoplite}");
        let ft1 = noc_frequency_mhz(&d, &ft(8, 2, 1), 256, 1).unwrap();
        assert!((305.0..=340.0).contains(&ft1), "FT(64,2,1) {ft1}");
        // "operates at almost the same clock frequency" (0.93×).
        let ratio = ft1 / hoplite;
        assert!((0.85..=1.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn paper_anchor_4x4_d2_supports_512() {
        let d = dev();
        assert!(check_fit(&d, &ft(4, 2, 1), 512, 1).is_ok());
        assert_eq!(
            check_fit(&d, &ft(4, 2, 1), 1024, 1),
            Err(FitError::WiringOverflow)
        );
    }

    #[test]
    fn peak_width_shrinks_with_size_and_express() {
        let d = dev();
        let h4 = peak_datawidth(&d, &NocConfig::hoplite(4).unwrap(), 1).unwrap();
        let h8 = peak_datawidth(&d, &NocConfig::hoplite(8).unwrap(), 1).unwrap();
        let h16 = peak_datawidth(&d, &NocConfig::hoplite(16).unwrap(), 1).unwrap();
        assert!(h4 >= h8 && h8 >= h16, "{h4} {h8} {h16}");
        let f8 = peak_datawidth(&d, &ft(8, 2, 1), 1).unwrap();
        assert!(f8 < h8, "express wiring must reduce peak width");
    }

    #[test]
    fn frequency_declines_with_width_and_size() {
        let d = dev();
        let cfg = NocConfig::hoplite(8).unwrap();
        let f32b = noc_frequency_mhz(&d, &cfg, 32, 1).unwrap();
        let f256b = noc_frequency_mhz(&d, &cfg, 256, 1).unwrap();
        assert!(f32b > f256b);
        let cfg4 = NocConfig::hoplite(4).unwrap();
        let f4 = noc_frequency_mhz(&d, &cfg4, 256, 1).unwrap();
        assert!(f4 > f256b, "smaller systems close timing faster");
    }

    #[test]
    fn multichannel_derates_frequency() {
        let d = dev();
        let cfg = NocConfig::hoplite(8).unwrap();
        let f1 = noc_frequency_mhz(&d, &cfg, 64, 1).unwrap();
        let f3 = noc_frequency_mhz(&d, &cfg, 64, 3).unwrap();
        assert!(f3 < f1);
    }

    /// Longer strides mean longer express wires: each added SHG
    /// dimension stride lowers the clock, and stride 2 clocks like
    /// FT(64,2,1)'s length-2 express links.
    #[test]
    fn shg_clock_falls_as_delta_grows() {
        use fasttrack_core::topology::{ShgConfig, ShgTopology};
        let d = dev();
        let shg = |q, delta| ShgTopology::new(ShgConfig::new(q, delta).unwrap());
        let mhz = |q, delta| noc_frequency_mhz(&d, &shg(q, delta), 8, 1).unwrap();
        assert!(mhz(8, 1) > mhz(8, 2) && mhz(8, 2) > mhz(8, 3));
        // At 16×16 the tiles are half as wide: the fabric cap binds up
        // to stride 2, and strides 4 and 8 fall below it.
        let by_delta = [1, 2, 3, 4].map(|delta| mhz(16, delta));
        assert_eq!(by_delta[0], by_delta[1]);
        assert!(by_delta[1] > by_delta[2] && by_delta[2] > by_delta[3]);
        assert_eq!(
            noc_frequency_mhz(&d, &shg(8, 2), 256, 1),
            noc_frequency_mhz(&d, &ft(8, 2, 1), 256, 1)
        );
    }

    /// The buffered mesh's short links run through its three LUT stages,
    /// which sets its clock inside Table I's buffered-router band
    /// (CONNECT 104, OpenSMART 200, Split-Merge 222 MHz) and below the
    /// one-stage Hoplite's on the same wires.
    #[test]
    fn mesh_clock_is_set_by_its_router_depth() {
        use fasttrack_core::topology::{topology_of, TopologySpec};
        let d = dev();
        let mesh = topology_of(&TopologySpec::Mesh { n: 8, depth: 4 });
        let mhz = noc_frequency_mhz(&d, &*mesh, 256, 1).unwrap();
        assert!((200.0..=230.0).contains(&mhz), "mesh {mhz}");
        assert_eq!(mhz, virtual_express_mhz(&d, 27, 3));
        let hoplite = noc_frequency_mhz(&d, &NocConfig::hoplite(8).unwrap(), 256, 1).unwrap();
        assert!(mhz < hoplite);
    }

    #[test]
    fn lut_overflow_detected() {
        let d = Device {
            luts: 10_000,
            ..dev()
        };
        assert_eq!(
            check_fit(&d, &ft(8, 2, 1), 64, 1),
            Err(FitError::LutOverflow)
        );
    }

    #[test]
    fn fit_error_display() {
        assert!(FitError::WiringOverflow.to_string().contains("wiring"));
    }
}
