//! FPGA device descriptors.
//!
//! The paper maps everything onto a Xilinx Virtex-7 XC7VX485T (-2 speed
//! grade). We model the device by the handful of parameters the NoC cost
//! and timing analysis actually consumes: logic capacity, slice-grid
//! geometry (for wire lengths), wiring capacity per slice column, and the
//! clock-network ceiling.

/// An FPGA device model.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Marketing name, e.g. `Virtex-7 485T (-2)`.
    pub name: &'static str,
    /// Total 6-input LUTs.
    pub luts: u64,
    /// Total flip-flops.
    pub ffs: u64,
    /// Slice-grid columns (X extent in SLICEs).
    pub slice_cols: u32,
    /// Slice-grid rows (Y extent in SLICEs).
    pub slice_rows: u32,
    /// Peak frequency of the global clock network, MHz (the paper
    /// measures ≈710 MHz on the 485T).
    pub clock_ceiling_mhz: f64,
    /// Routable general-interconnect signals per slice column — the
    /// wiring budget the routability analysis charges NoC channels
    /// against (calibrated so a 4×4 D=2 NoC supports 512 b datawidths,
    /// paper §VI-B).
    pub wires_per_slice_col: u32,
}

impl Device {
    /// The Xilinx Virtex-7 XC7VX485T (-2) used throughout the paper.
    pub fn virtex7_485t() -> Self {
        Device {
            name: "Virtex-7 485T (-2)",
            luts: 303_600,
            ffs: 607_200,
            slice_cols: 216,
            slice_rows: 350,
            clock_ceiling_mhz: 710.0,
            wires_per_slice_col: 30,
        }
    }

    /// Width in SLICEs of one router tile when an `n × n` NoC uniformly
    /// tiles the device (the paper locks routers to rectangular regions).
    pub(crate) fn tile_width_slices(&self, n: u16) -> f64 {
        self.slice_cols as f64 / n as f64
    }

    /// Wiring capacity available to NoC channels crossing one tile
    /// boundary (one tile's column budget, derated for user logic).
    pub(crate) fn channel_capacity(&self, n: u16) -> f64 {
        self.tile_width_slices(n) * self.wires_per_slice_col as f64
    }
}

impl Default for Device {
    fn default() -> Self {
        Device::virtex7_485t()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtex7_parameters() {
        let d = Device::virtex7_485t();
        assert_eq!(d.luts, 303_600);
        assert_eq!(d.ffs, 2 * d.luts);
        assert!(d.clock_ceiling_mhz > 700.0);
    }

    #[test]
    fn tile_width_scales_inversely_with_n() {
        let d = Device::virtex7_485t();
        assert!(d.tile_width_slices(4) > d.tile_width_slices(8));
        assert!((d.tile_width_slices(8) - 27.0).abs() < 0.01);
    }

    #[test]
    fn channel_capacity_anchor_4x4_512b() {
        // Paper §VI-B: a 4×4 NoC with D=2 supports 512-bit datawidths.
        // D=2, R=1 needs 3 wires per bit per channel cut.
        let d = Device::virtex7_485t();
        assert!(d.channel_capacity(4) >= 512.0 * 3.0);
        // ...but not 1024 bits.
        assert!(d.channel_capacity(4) < 1024.0 * 3.0);
    }

    #[test]
    fn default_is_virtex7() {
        assert_eq!(Device::default(), Device::virtex7_485t());
    }
}
