//! FPGA wire-delay characterization (paper §III, Figures 4 and 6).
//!
//! The paper runs two placement experiments on the Virtex-7 485T:
//!
//! * **Virtual express links** (Fig 4): two registers `Distance` SLICEs
//!   apart with `Hops` LUT stages between them — the SMART-style model
//!   where a packet tunnels through routers combinationally. On an FPGA
//!   this collapses to ≈200 MHz with two or more LUT hops because every
//!   hop pays the fabric's entry/exit penalty.
//! * **Physical express links** (Fig 6): a pipelined LUT-FF chain with a
//!   dedicated bypass wire skipping `Hops` stages. Frequency degrades
//!   *gracefully* (roughly linearly) with distance, sustaining 250 MHz
//!   over 32–64 SLICEs — the evidence that motivates FastTrack.
//!
//! We reproduce both as calibrated empirical models: digitized anchor
//! points from the paper's figures with log-distance interpolation
//! (virtual) and a fitted linear decline (physical). Absolute numbers are
//! reconstructions; the shapes and the headline anchors (710 MHz ceiling,
//! 250 MHz full-chip traversal, 450 MHz at 128 SLICEs with one hop,
//! ≈200 MHz with ≥2 hops) match the paper's text.

use crate::device::Device;

/// Raw (uncapped) frequency anchors for the virtual-express experiment:
/// `(distance_slices, mhz)` per hop count. Values above the clock ceiling
/// are "purely theoretical" (paper's words) and get capped on query.
const VIRTUAL_ANCHORS_H0: &[(f64, f64)] = &[
    (1.0, 1400.0),
    (4.0, 1000.0),
    (16.0, 700.0),
    (64.0, 550.0),
    (128.0, 480.0),
    (256.0, 250.0),
];
const VIRTUAL_ANCHORS_H1: &[(f64, f64)] = &[
    (1.0, 600.0),
    (8.0, 550.0),
    (32.0, 500.0),
    (128.0, 450.0),
    (256.0, 248.0),
];
const VIRTUAL_ANCHORS_H2: &[(f64, f64)] =
    &[(1.0, 260.0), (16.0, 235.0), (64.0, 220.0), (256.0, 205.0)];
const VIRTUAL_ANCHORS_H3: &[(f64, f64)] = &[(1.0, 215.0), (64.0, 200.0), (256.0, 185.0)];

/// Frequency of the virtual-express experiment circuit (Fig 4): two
/// registers `distance` SLICEs apart with `hops` combinational LUT stages
/// between them, capped at the device clock ceiling.
///
/// # Panics
///
/// Panics if `distance == 0`.
pub fn virtual_express_mhz(device: &Device, distance: u32, hops: u32) -> f64 {
    assert!(distance > 0, "distance must be at least 1 SLICE");
    let d = distance as f64;
    let raw = match hops {
        0 => interp_log(VIRTUAL_ANCHORS_H0, d),
        1 => interp_log(VIRTUAL_ANCHORS_H1, d),
        2 => interp_log(VIRTUAL_ANCHORS_H2, d),
        _ => {
            // Each additional serial LUT hop past 3 shaves a little more;
            // the curve is essentially flat ≈200 MHz (paper's text).
            let base = interp_log(VIRTUAL_ANCHORS_H3, d);
            (base * (1.0 - 0.02 * (hops - 3) as f64)).max(140.0)
        }
    };
    raw.min(device.clock_ceiling_mhz)
}

/// Frequency of the physical-express experiment circuit (Fig 6): a
/// registered bypass wire of `distance` SLICEs skipping `bypassed_hops`
/// LUT-FF stages. Degrades roughly linearly with distance — 250 MHz at
/// ≈64 SLICEs — with a small penalty per bypassed stage (the bypass
/// multiplexing at the endpoints).
///
/// # Panics
///
/// Panics if `distance == 0`.
pub fn physical_express_mhz(device: &Device, distance: u32, bypassed_hops: u32) -> f64 {
    assert!(distance > 0, "distance must be at least 1 SLICE");
    let d = distance as f64;
    // Piecewise: linear decline to 250 MHz at ~64 SLICEs (the paper's
    // anchor), then a gentler tail — long wires chain the fastest
    // routing tracks, so the marginal slice costs less out there.
    let raw = if d <= 64.0 {
        770.0 - 8.1 * d
    } else {
        251.6 - 0.4 * (d - 64.0)
    };
    let hop_penalty = 1.0 - 0.015 * bypassed_hops as f64;
    (raw * hop_penalty.max(0.5)).clamp(150.0, device.clock_ceiling_mhz)
}

/// Piecewise-linear interpolation in log-distance space; clamps outside
/// the anchor range.
fn interp_log(anchors: &[(f64, f64)], d: f64) -> f64 {
    let x = d.ln();
    if d <= anchors[0].0 {
        return anchors[0].1;
    }
    if d >= anchors[anchors.len() - 1].0 {
        return anchors[anchors.len() - 1].1;
    }
    for w in anchors.windows(2) {
        let (d0, f0) = w[0];
        let (d1, f1) = w[1];
        if d <= d1 {
            let t = (x - d0.ln()) / (d1.ln() - d0.ln());
            return f0 + t * (f1 - f0);
        }
    }
    unreachable!("anchor scan covers the clamped range")
}

/// The distances the paper sweeps (powers of two, 2..=256).
pub const SWEEP_DISTANCES: [u32; 8] = [2, 4, 8, 16, 32, 64, 128, 256];

/// The hop counts the paper sweeps (0..=8).
pub const SWEEP_HOPS: [u32; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::virtex7_485t()
    }

    #[test]
    fn ceiling_applies_at_short_distance() {
        assert_eq!(virtual_express_mhz(&dev(), 1, 0), 710.0);
        assert_eq!(physical_express_mhz(&dev(), 1, 0), 710.0);
    }

    #[test]
    fn paper_anchor_points() {
        let d = dev();
        // Full-chip traversal at 250 MHz with no hops (paper §III-1).
        assert!((virtual_express_mhz(&d, 256, 0) - 250.0).abs() < 1.0);
        // One hop: 450 MHz at 128 SLICEs.
        assert!((virtual_express_mhz(&d, 128, 1) - 450.0).abs() < 1.0);
        // Two or more hops: ≈200 MHz regardless of distance.
        for dist in [4, 16, 64, 256] {
            let f = virtual_express_mhz(&d, dist, 3);
            assert!((170.0..=230.0).contains(&f), "got {f} at {dist}");
        }
        // Physical express: ≈250 MHz at 64 SLICEs (paper §III-2).
        let f64s = physical_express_mhz(&d, 64, 2);
        assert!((230.0..=260.0).contains(&f64s), "got {f64s}");
    }

    #[test]
    fn virtual_monotone_in_distance_and_hops() {
        let d = dev();
        for hops in 0..4 {
            let mut prev = f64::INFINITY;
            for dist in SWEEP_DISTANCES {
                let f = virtual_express_mhz(&d, dist, hops);
                assert!(f <= prev + 1e-9, "non-monotone at h={hops} d={dist}");
                prev = f;
            }
        }
        // More serial hops never increases frequency (below the ceiling).
        for dist in [64, 128, 256] {
            let mut prev = f64::INFINITY;
            for hops in SWEEP_HOPS {
                let f = virtual_express_mhz(&d, dist, hops);
                assert!(f <= prev + 1e-9);
                prev = f;
            }
        }
    }

    #[test]
    fn physical_degrades_gracefully_vs_virtual() {
        // The headline claim: with ≥2 LUT stages in play, a physical
        // bypass wire at moderate distance beats the virtual (serial)
        // path dramatically.
        let d = dev();
        for dist in [16, 32, 64] {
            let physical = physical_express_mhz(&d, dist, 4);
            let virt = virtual_express_mhz(&d, dist, 4);
            assert!(
                physical > virt * 1.2,
                "physical {physical} should beat virtual {virt} at {dist}"
            );
        }
    }

    #[test]
    fn physical_floor_and_linearity() {
        let d = dev();
        // The long-wire tail declines gently past 64 SLICEs.
        let f256 = physical_express_mhz(&d, 256, 0);
        assert!((160.0..=200.0).contains(&f256), "got {f256}");
        let f128 = physical_express_mhz(&d, 128, 0);
        assert!(f128 > f256 && f128 < 250.0);
        // Linear region: equal distance increments, equal frequency drops.
        let f32s = physical_express_mhz(&d, 32, 0);
        let f40 = physical_express_mhz(&d, 40, 0);
        let f48 = physical_express_mhz(&d, 48, 0);
        assert!(((f32s - f40) - (f40 - f48)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 1 SLICE")]
    fn zero_distance_rejected() {
        virtual_express_mhz(&dev(), 0, 0);
    }
}
