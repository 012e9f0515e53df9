//! No input can panic the readers of recorded traffic: byte edits of a
//! valid scenario trace and of a valid text trace either decode or fail
//! with a typed error, and whatever decodes is a schedule a
//! `ReplaySource` accepts.

use fasttrack_core::fault::Fault;
use fasttrack_core::port::OutPort;
use fasttrack_traffic::scenario::{Expectation, ScenarioHeader, ScenarioRecord, ScenarioTrace};
use fasttrack_traffic::trace_io::parse_trace;
use fasttrack_traffic::ReplaySource;
use proptest::prelude::*;

/// One byte edit: an operation (flip a bit, insert a byte, delete a
/// byte, truncate), a position taken modulo the current length, and
/// the byte it uses.
type Edit = (u8, usize, u8);

fn edit() -> impl Strategy<Value = Edit> {
    (0u8..4, any::<usize>(), any::<u8>())
}

fn mutate(bytes: &mut Vec<u8>, edits: [Edit; 4], count: usize) {
    for &(op, at, byte) in &edits[..count] {
        let at = at % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
}

/// A valid trace whose header sets every key the encoder writes.
fn valid_scenario(noc: &str) -> String {
    let mut header = ScenarioHeader::new(noc, "bernoulli:random");
    header.max_cycles = 5_000;
    header.drained_at = Some(7);
    header.fallback = true;
    header.faults = vec![
        Fault::DeadLink {
            node: 5,
            out: OutPort::EastEx,
        },
        Fault::TransientLink {
            node: 3,
            out: OutPort::SouthSh,
            from: 10,
            until: 20,
            corrupt: true,
        },
        Fault::StalledInjector {
            node: 1,
            from: 0,
            until: 50,
        },
    ];
    header.expect = Some(Expectation {
        delivered: 3,
        cycles: 40,
        dropped: 0,
        truncated: false,
    });
    let record = |cycle, src, dst, tag| ScenarioRecord {
        cycle,
        src,
        dst,
        tag,
    };
    let records = vec![
        record(0, 0, 5, 0),
        record(0, 8, 2, u64::MAX),
        record(4, 7, 1, 12),
    ];
    ScenarioTrace::new(header, records).encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_scenario_traces_never_panic(
        which in 0usize..4,
        edits in proptest::array::uniform4(edit()),
        count in 1usize..=4,
    ) {
        let noc = ["ft:4:2:1", "hoplite:3", "shg:4:2", "mesh:4:2"][which];
        let mut bytes = valid_scenario(noc).into_bytes();
        mutate(&mut bytes, edits, count);
        if let Ok(trace) = ScenarioTrace::decode(&String::from_utf8_lossy(&bytes)) {
            // A decoded schedule is in range for its own header, and the
            // header describes a session or says why not.
            let _ = trace.header.session();
            let _ = trace.replay_source();
        }
    }

    #[test]
    fn mutated_text_traces_never_panic(
        side in 1u16..6,
        edits in proptest::array::uniform4(edit()),
        count in 1usize..=4,
    ) {
        let mut bytes =
            b"# cycle src dst tag\n0 0 5\n\n3 2 1 18446744073709551615\n1 15 0 # late\n".to_vec();
        mutate(&mut bytes, edits, count);
        if let Ok(records) = parse_trace(&String::from_utf8_lossy(&bytes), side) {
            prop_assert!(records.windows(2).all(|w| w[0].cycle <= w[1].cycle));
            ReplaySource::new(side, records);
        }
    }
}

#[test]
fn the_unmutated_inputs_decode() {
    for noc in ["ft:4:2:1", "hoplite:3", "shg:4:2", "mesh:4:2"] {
        let trace = ScenarioTrace::decode(&valid_scenario(noc)).unwrap();
        assert_eq!(trace.records.len(), 3, "{noc}");
    }
}
