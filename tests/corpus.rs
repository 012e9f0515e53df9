//! Scenario-corpus integration tests.
//!
//! Two families:
//!
//! * **Golden round trips** — each of the four case-study generators
//!   is recorded through a [`RecordingSource`], replayed open-loop
//!   through a [`ReplaySource`], and the replay must reproduce the
//!   recorded run *byte-identically*: the same [`SimReport`] and the
//!   same event stream. This pins the trace format's core guarantee
//!   (global push order preserved ⇒ identical `PacketId` assignment ⇒
//!   identical routing decisions).
//!
//! * **Corpus replay** — every checked-in `tests/corpus/*.trace` file
//!   must decode, replay to completion, conserve packets exactly, and
//!   match its embedded expectation. Regressions that change engine
//!   behavior on an archived failure class fail here on plain
//!   `cargo test`.

use fasttrack::core::trace::VecSink;
use fasttrack::prelude::*;
use fasttrack::traffic::dataflow::{lu_dag, DataflowSource};
use fasttrack::traffic::graph::graph_source;
use fasttrack::traffic::graph_gen::rmat;
use fasttrack::traffic::matrix::circuit;
use fasttrack::traffic::multiproc::{parsec_benchmarks, parsec_trace};
use fasttrack::traffic::partition::Partition;
use fasttrack::traffic::scenario::{
    Expectation, RecordingSource, ReplaySource, ScenarioHeader, ScenarioTrace,
};
use fasttrack::traffic::spmv::spmv_source;
use fasttrack::traffic::trace_io::parse_trace;
use fasttrack_cli::commands::{replay_session, SingleRun};

/// Records `src` on `cfg`, replays the captured schedule, and asserts
/// the two runs are indistinguishable (report and event stream).
fn assert_round_trip<S: fasttrack::core::sim::TrafficSource>(
    cfg: &NocConfig,
    src: S,
    max_cycles: u64,
) {
    let mut recording = RecordingSource::new(cfg.n(), src);
    let mut recorded_events = VecSink::new();
    let recorded = SimSession::new(cfg)
        .max_cycles(max_cycles)
        .with_sink(&mut recorded_events)
        .run(&mut recording)
        .unwrap()
        .report;
    assert!(!recorded.truncated, "{}: recording truncated", cfg.name());
    let drained_at = recording.drained_at();
    let records = recording.into_records();
    assert_eq!(
        records.len() as u64,
        recorded.stats.injected,
        "{}: every injected packet must be captured",
        cfg.name()
    );

    let mut replay = ReplaySource::new(cfg.n(), records).hold_until(drained_at);
    let mut replayed_events = VecSink::new();
    let replayed = SimSession::new(cfg)
        .max_cycles(max_cycles)
        .with_sink(&mut replayed_events)
        .run(&mut replay)
        .unwrap()
        .report;

    assert_eq!(recorded, replayed, "{}: reports diverge", cfg.name());
    assert_eq!(
        recorded_events.events,
        replayed_events.events,
        "{}: event streams diverge",
        cfg.name()
    );
}

fn ft4() -> NocConfig {
    NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap()
}

#[test]
fn spmv_record_replay_is_byte_identical() {
    let m = circuit(1000, 4, 2, 3, 21);
    assert_round_trip(&ft4(), spmv_source(&m, 4, Partition::Cyclic), 2_000_000);
}

#[test]
fn graph_record_replay_is_byte_identical() {
    let g = rmat(11, 15_000, 0.57, 0.19, 0.19, 31);
    assert_round_trip(&ft4(), graph_source(&g, 4, Partition::Cyclic), 2_000_000);
}

#[test]
fn dataflow_record_replay_is_byte_identical() {
    // Closed-loop source: releases depend on deliveries, so the replay
    // reproducing it open-loop is the strongest test of the format.
    let src = DataflowSource::new(lu_dag(1200, 48, 2.0, 41), 4, 3);
    assert_round_trip(&ft4(), src, 5_000_000);
}

#[test]
fn multiproc_record_replay_is_byte_identical() {
    let profile = &parsec_benchmarks()[0];
    let cfg = NocConfig::fasttrack(6, 2, 1, FtPolicy::Full).unwrap();
    assert_round_trip(&cfg, parsec_trace(profile, 6, 51), 2_000_000);
}

/// Plays `source` on `noc` and returns the report and the event stream.
fn run_on(
    noc: &TopologySpec,
    mut source: ReplaySource,
) -> (SimReport, Vec<fasttrack::core::trace::SimEvent>) {
    let mut events = VecSink::new();
    let report = SimSession::with_backend(SpecBackend::new(noc, 1))
        .with_sink(&mut events)
        .run(&mut source)
        .unwrap()
        .report;
    (report, events.events)
}

/// A schedule with several pushes per cycle, a gap, and tags.
const TEXT_TRACE: &str = "# cycle src dst tag\n\
    0 0 5\n0 1 6 3\n0 15 0\n2 3 12 9\n7 9 9\n7 4 11 1\n7 4 2\n30 14 1\n";

#[test]
fn text_and_scenario_traces_of_one_schedule_replay_alike() {
    for noc in ["hoplite:4", "shg:4:2", "mesh:4:2"] {
        let topology: TopologySpec = noc.parse().unwrap();
        let records = parse_trace(TEXT_TRACE, 4).unwrap();
        let text = run_on(&topology, ReplaySource::new(4, records.clone()));
        assert_eq!(text.0.stats.delivered, 8, "{noc}");

        let encoded = ScenarioTrace::new(ScenarioHeader::new(noc, "text"), records).encode();
        let SingleRun {
            session,
            mut source,
            ..
        } = replay_session(ScenarioTrace::decode(&encoded).unwrap()).unwrap();
        let mut events = VecSink::new();
        let report = session
            .with_sink(&mut events)
            .run(&mut source)
            .unwrap()
            .report;
        assert_eq!(text.0, report, "{noc}: reports diverge");
        assert_eq!(text.1, events.events, "{noc}: event streams diverge");
    }
}

#[test]
fn unordered_text_trace_plays_like_its_stable_sort() {
    // The same lines as `TEXT_TRACE` out of cycle order; lines of one
    // cycle keep their relative order, which is what a stable sort by
    // cycle restores.
    let unordered = "30 14 1\n7 9 9\n0 0 5\n2 3 12 9\n7 4 11 1\n0 1 6 3\n7 4 2\n0 15 0\n";
    let topology: TopologySpec = "hoplite:4".parse().unwrap();
    let play = |text: &str| {
        run_on(
            &topology,
            ReplaySource::new(4, parse_trace(text, 4).unwrap()),
        )
    };
    assert_eq!(
        parse_trace(unordered, 4).unwrap(),
        parse_trace(TEXT_TRACE, 4).unwrap()
    );
    assert_eq!(play(unordered), play(TEXT_TRACE));
}

/// What the fuzzer archives is what `replay` verifies: each minimized
/// failure, decoded from its encoding and replayed through the CLI's
/// reading of a header, realizes the expectation its header embeds.
#[test]
fn fuzz_archives_replay_to_their_expectations() {
    let outcome = fasttrack_bench::fuzz(&fasttrack_bench::FuzzConfig {
        iters: 60,
        seed: 7,
        threads: 1,
        max_cycles: 30_000,
    });
    assert!(!outcome.failures.is_empty(), "seed 7 finds no failure");
    for failure in &outcome.failures {
        let trace = ScenarioTrace::decode(&failure.trace.encode()).unwrap();
        let expect = trace
            .header
            .expect
            .expect("archived traces embed an outcome");
        let SingleRun {
            session,
            mut source,
            ..
        } = replay_session(trace).unwrap_or_else(|e| panic!("{}: {e}", failure.summary));
        let report = session.run(&mut source).unwrap().report;
        assert_eq!(Expectation::from(&report), expect, "{}", failure.summary);
    }
}

#[test]
fn checked_in_corpus_replays_and_matches_expectations() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "trace"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "tests/corpus must hold at least one minimized entry"
    );
    for path in entries {
        let name = path.display();
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = ScenarioTrace::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // v1 entries re-encode byte-identically under the v2 library:
        // the recorded schema number and key order are preserved.
        assert_eq!(trace.encode(), text, "{name}: re-encode must be stable");
        // The CLI's reading of a header, so this test and `fasttrack
        // replay` cannot disagree about what a trace means.
        let SingleRun {
            session,
            mut source,
            recorded,
            ..
        } = replay_session(trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = session
            .run(&mut source)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .report;
        assert!(report.conserved(), "{name}: conservation violated");
        let (header, _) = recorded.expect("a replayed run carries its header");
        let expect = header
            .expect
            .unwrap_or_else(|| panic!("{name}: corpus entries must embed an expectation"));
        assert_eq!(
            report.stats.delivered, expect.delivered,
            "{name}: delivered"
        );
        assert_eq!(report.cycles, expect.cycles, "{name}: cycles");
        assert_eq!(report.stats.dropped, expect.dropped, "{name}: dropped");
        assert_eq!(report.truncated, expect.truncated, "{name}: truncated");
    }
}

#[test]
fn inject_livelock_corpus_entry_exercises_the_stranded_drop_path() {
    // The archived PR-4 failure class: under the Inject policy, a
    // lane-locked express packet whose only productive ports cross dead
    // express links is dropped (counted, conserved) instead of orbiting
    // forever. The minimized entry must actually reach that path.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/inject_livelock.trace");
    let trace = ScenarioTrace::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let cfg = trace.header.noc_config().unwrap();
    assert_eq!(
        cfg.ft_policy(),
        Some(FtPolicy::Inject),
        "entry must run the Inject policy"
    );
    assert!(
        trace
            .header
            .faults
            .iter()
            .all(|f| matches!(f, Fault::DeadLink { .. }))
            && !trace.header.faults.is_empty(),
        "entry must be minimized to dead links only"
    );
    let expect = trace.header.expect.unwrap();
    assert!(expect.dropped > 0, "entry must realize stranded drops");
    assert!(!expect.truncated, "entry must terminate, not livelock");
}

#[test]
fn reroute_loop_corpus_entry_replays_with_chains_armed() {
    // The archived fallback-chain finding: a Full-policy packet steered
    // off a dying express lane re-enters express and is steered off
    // again (express -> ring -> express). The chains keep it alive —
    // the entry must carry the fallback flag, a dynamic (recovering)
    // fault timeline, and zero drops.
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/reroute_loop.trace");
    let trace = ScenarioTrace::decode(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(trace.header.fallback, "entry must arm the fallback chains");
    assert!(
        trace
            .header
            .faults
            .iter()
            .all(|f| matches!(f, Fault::DownLink { .. }))
            && !trace.header.faults.is_empty(),
        "entry must be minimized to down-then-recover links only"
    );
    let expect = trace.header.expect.unwrap();
    assert_eq!(expect.dropped, 0, "chains must keep every packet alive");
    assert!(!expect.truncated, "entry must terminate, not livelock");
}

#[test]
fn replay_arms_the_chains_a_header_asks_for() {
    // `inject_livelock.trace` strands its one lane-locked packet at a
    // dead express link: chains off it is dropped at cycle 557. The
    // fuzzer also writes such traces with `"fallback":true`, recorded
    // with the standard chains armed — there the packet is demoted to
    // the shared ring and delivered. `fasttrack replay` must rebuild
    // that fabric, not the chain-less one.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let text = std::fs::read_to_string(dir.join("inject_livelock.trace")).unwrap();
    let mut trace = ScenarioTrace::decode(&text).unwrap();
    trace.header.fallback = true;
    trace.header.expect = Some(Expectation {
        delivered: 1,
        cycles: 564,
        dropped: 0,
        truncated: false,
    });
    let path = std::env::temp_dir().join(format!("fasttrack_chains_{}.trace", std::process::id()));
    std::fs::write(&path, trace.encode()).unwrap();
    let replayed = fasttrack_cli::run(vec![
        "replay".into(),
        "--file".into(),
        path.to_str().unwrap().into(),
    ]);
    std::fs::remove_file(&path).unwrap();
    let out = replayed.unwrap_or_else(|e| panic!("chains-armed replay: {e}"));
    assert!(out.contains("expectation verified"), "{out}");
}

/// A recording on the SHG or the mesh replays as it was recorded, and
/// `attribute --trace` / `explain --trace` read it like a torus trace.
/// Only a torus replicates, so a header naming either with more than
/// one channel is refused rather than replayed on one.
#[test]
fn shg_and_mesh_recordings_replay_attribute_and_explain() {
    let cli = |cmd: &str, path: &std::path::Path| {
        let mut argv: Vec<String> = cmd.split(' ').map(String::from).collect();
        argv.push(path.display().to_string());
        fasttrack_cli::run(argv)
    };
    for (noc, kind) in [("shg:4:2", "shg"), ("mesh:4:2", "mesh")] {
        let topology: TopologySpec = noc.parse().unwrap();
        let mut recording =
            RecordingSource::new(4, BernoulliSource::new(4, Pattern::Random, 0.4, 30, 5));
        let report = SimSession::with_backend(SpecBackend::new(&topology, 1))
            .run(&mut recording)
            .unwrap()
            .report;
        let mut header = ScenarioHeader::new(noc, "bernoulli:random");
        header.expect = Some(Expectation::from(&report));
        let trace = recording.into_trace(header);
        let path =
            std::env::temp_dir().join(format!("fasttrack_{kind}_{}.trace", std::process::id()));
        std::fs::write(&path, trace.encode()).unwrap();
        let replayed = cli("replay --file", &path).unwrap_or_else(|e| panic!("{noc}: {e}"));
        assert!(
            replayed.contains("expectation verified"),
            "{noc}: {replayed}"
        );
        let attributed = cli("attribute --trace", &path).unwrap();
        assert!(
            attributed.contains("where the cycles went"),
            "{noc}: {attributed}"
        );
        let explained = cli("explain 0 --trace", &path).unwrap();
        assert!(explained.contains("journey:"), "{noc}: {explained}");

        let mut wide = trace;
        wide.header.channels = 2;
        std::fs::write(&path, wide.encode()).unwrap();
        for cmd in ["replay --file", "attribute --trace", "explain 0 --trace"] {
            let err = cli(cmd, &path).unwrap_err().to_string();
            assert!(err.contains("bad trace header"), "{noc} {cmd}: {err}");
            assert!(
                err.contains("only a torus replicates"),
                "{noc} {cmd}: {err}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }
}
