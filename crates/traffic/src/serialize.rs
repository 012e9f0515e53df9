//! Transfer serialization: logical multi-bit transfers over a NoC of a
//! given datawidth (paper §VI-B).
//!
//! A 512-bit x86 cacheline rides a 512-bit NoC as a single Hoplite-style
//! wide packet; on a 128-bit NoC it must be serialized into four flits.
//! [`flits_for`] gives that count. A batch of transfers is then
//! `flits_for` consecutive cycle-0 records per transfer, tagged with its
//! index and played by a [`ReplaySource`](crate::scenario::ReplaySource):
//! experiments compare *wide-but-slow* against *narrow-but-fast* NoCs on
//! equal terms (cachelines per second, not packets per cycle).

/// Number of flits a transfer needs at `width` bits per packet.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn flits_for(bits: u32, width: u32) -> u32 {
    assert!(width > 0, "datawidth must be positive");
    bits.div_ceil(width).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ReplaySource, ScenarioRecord};
    use fasttrack_core::config::NocConfig;
    use fasttrack_core::sim::SimSession;
    use fasttrack_core::trace::{SimEvent, VecSink};

    /// The batch for `(src, dst, bits)` transfers at `width` bits: each
    /// transfer's flits in a row, tagged with the transfer's index.
    fn batch(width: u32, transfers: &[(usize, usize, u32)]) -> Vec<ScenarioRecord> {
        let flits = |(tag, &(src, dst, bits)): (usize, _)| {
            let record = ScenarioRecord {
                cycle: 0,
                src,
                dst,
                tag: tag as u64,
            };
            std::iter::repeat_n(record, flits_for(bits, width) as usize)
        };
        transfers.iter().enumerate().flat_map(flits).collect()
    }

    #[test]
    fn flit_math() {
        assert_eq!(flits_for(512, 512), 1);
        assert_eq!(flits_for(512, 256), 2);
        assert_eq!(flits_for(512, 96), 6);
        assert_eq!(flits_for(1, 512), 1);
        assert_eq!(flits_for(0, 64), 1); // a transfer is at least one flit
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        flits_for(64, 0);
    }

    #[test]
    fn serialized_batch_delivers_every_flit() {
        let transfers = [(0, 5, 512), (3, 12, 512), (7, 7, 200), (9, 2, 1)];
        let mut sink = VecSink::new();
        let cfg = NocConfig::hoplite(4).unwrap();
        let report = SimSession::new(&cfg)
            .with_sink(&mut sink)
            .run(&mut ReplaySource::new(4, batch(128, &transfers)))
            .unwrap()
            .report;
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 4 + 4 + 2 + 1);
        // Every flit of transfer `i` arrives at its destination, tagged `i`.
        let mut arrived = [0u32; 4];
        for event in &sink.events {
            if let SimEvent::Eject { node, delivery, .. } = event {
                let tag = delivery.packet.tag as usize;
                assert_eq!(*node, transfers[tag].1);
                arrived[tag] += 1;
            }
        }
        assert_eq!(arrived, transfers.map(|(_, _, bits)| flits_for(bits, 128)));
    }

    #[test]
    fn wide_links_need_fewer_cycles_per_cacheline() {
        // 200 cachelines from each PE to a partner: at 512b each is one
        // packet; at 128b it is four — the narrow run takes ~4x longer.
        let transfers: Vec<_> = (0..16)
            .flat_map(|s| std::iter::repeat_n((s, (s + 7) % 16, 512), 200))
            .collect();
        let cfg = NocConfig::hoplite(4).unwrap();
        let cycles = |width| {
            let mut source = ReplaySource::new(4, batch(width, &transfers));
            SimSession::new(&cfg)
                .run(&mut source)
                .unwrap()
                .report
                .cycles
        };
        let ratio = cycles(128) as f64 / cycles(512) as f64;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "serialization ratio {ratio:.2}"
        );
    }
}
