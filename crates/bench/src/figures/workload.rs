//! Figures 15a–d and the cacheline-serialization ablation: trace,
//! dataflow and transfer sources instead of Bernoulli traffic, so these
//! go to `fasttrack_core::sweep::sweep` directly.

use fasttrack_core::sim::{SimOptions, TrafficSource};
use fasttrack_core::sweep::sweep;
use fasttrack_core::topology::topology_of;
use fasttrack_fpga::device::Device;
use fasttrack_fpga::routability::noc_frequency_mhz;
use fasttrack_traffic::dataflow::{lu_benchmarks, lu_dag, DataflowSource, LuBenchmark};
use fasttrack_traffic::graph::graph_source;
use fasttrack_traffic::graph_gen::{graph_benchmarks, rmat, road_network, GraphBenchmark};
use fasttrack_traffic::matrix::{banded, circuit, power_law, spmv_benchmarks, MatrixBenchmark};
use fasttrack_traffic::multiproc::{parsec_benchmarks, parsec_trace, ParsecProfile};
use fasttrack_traffic::partition::Partition;
use fasttrack_traffic::serialize::{flits_for, Transfer, TransferBatchSource};
use fasttrack_traffic::spmv::spmv_source;

use super::{about, f, ft, hoplite, span, threads, Col, Outcome, Scale};
use crate::runner::{NocUnderTest, PE_LADDER};
use crate::table::Table;

/// The "best FastTrack configuration" at a system size: the D=2
/// variants where the torus admits them (`D <= N/2`), else D=1.
fn fasttrack_candidates(n: u16) -> Vec<NocUnderTest> {
    let d = 2u16.min(n / 2).max(1);
    let depopulated = (d > 1 && n.is_multiple_of(d)).then(|| ft(n, d, d));
    std::iter::once(ft(n, d, 1)).chain(depopulated).collect()
}

/// Completion-time speedup of the best FastTrack candidate over Hoplite
/// on an `n × n` system running `source()`; `Err` names a run that hit
/// the cycle cap, whose cycle count is not a completion time.
fn best_speedup<S: TrafficSource>(n: u16, cap: u64, source: impl Fn() -> S) -> Result<f64, String> {
    let cycles = |nut: NocUnderTest| {
        let report = nut.run(&mut source(), SimOptions::with_max_cycles(cap));
        let done = (!report.truncated).then_some(report.cycles as f64);
        done.ok_or_else(|| format!("{} at {} PEs", nut.label(), report.nodes))
    };
    let base = cycles(hoplite(n))?;
    let mut candidates = fasttrack_candidates(n).into_iter();
    candidates.try_fold(f64::MIN, |best, nut| Ok(best.max(base / cycles(nut)?)))
}

/// Runs `cell(bench, side)` over `benches × sizes` on the sweep pool and
/// adds the table `slug`: each bench's `lead` cells (its name first),
/// then a speedup per size. Returns the speedups `[bench][size]`; a
/// truncated cell fails the figure and reads NaN.
fn speedups(
    out: &mut Outcome,
    slug: &str,
    lead: &[&str],
    benches: Vec<Vec<String>>,
    sizes: &[(usize, u16)],
    cell: impl Fn(usize, u16) -> Result<f64, String> + Sync,
) -> Vec<Vec<f64>> {
    let sides = |b| sizes.iter().map(move |s| (b, s.1));
    let points: Vec<(usize, u16)> = (0..benches.len()).flat_map(sides).collect();
    let results = sweep(points, threads(), |_, (b, n)| cell(b, n));
    let mut headers: Vec<String> = lead.iter().map(|s| s.to_string()).collect();
    headers.extend(sizes.iter().map(|s| format!("{} PEs", s.0)));
    let mut t = Table::new(slug, &headers);
    let mut matrix = Vec::new();
    for (mut line, row) in benches.into_iter().zip(results.chunks(sizes.len())) {
        for config in row.iter().filter_map(|r| r.as_ref().err()) {
            out.truncated(&format!("{} on {config}", line[0]));
        }
        matrix.push(
            row.iter()
                .map(|r| *r.as_ref().unwrap_or(&f64::NAN))
                .collect(),
        );
        line.extend(
            row.iter()
                .map(|r| r.as_ref().map_or("truncated".into(), |v| f(*v, 2))),
        );
        t.add_row(line);
    }
    out.tables.push(t);
    matrix
}

/// The largest speedup at the largest system, as a measured value
/// naming its row.
fn peak(names: &[&str], matrix: &[Vec<f64>]) -> (f64, String) {
    let last = names
        .iter()
        .zip(matrix)
        .map(|(name, row)| (*row.last().expect("sized"), name));
    let (best, name) = last.fold((f64::MIN, &""), |a, b| if b.0 > a.0 { b } else { a });
    (best, format!("{best:.2}× ({name})"))
}

/// Mean speedup per system size, and how it reads.
fn means(matrix: &[Vec<f64>]) -> (Vec<f64>, String) {
    let mean = |s: usize| matrix.iter().map(|row| row[s]).sum::<f64>() / matrix.len() as f64;
    let means: Vec<f64> = (0..matrix[0].len()).map(mean).collect();
    let shown: Vec<String> = means.iter().map(|v| f(*v, 2)).collect();
    (means, format!("mean by system size: {}", shown.join(" → ")))
}

pub(super) fn fig15a(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let stand_in = |name, matrix, local_dominated| MatrixBenchmark {
        name,
        matrix,
        local_dominated,
    };
    let benches = match scale {
        Scale::Paper => spmv_benchmarks(),
        // Scaled-down stand-ins of the same three structure classes.
        Scale::Reduced => vec![
            stand_in("hamm_memplus", banded(2000, 8, 1, 1), true),
            stand_in("human_gene2", power_law(800, 40, 1.6, 5), false),
            stand_in("add20", circuit(1200, 4, 2, 3, 6), false),
        ],
    };
    let sizes = scale.sizes(&PE_LADDER);
    let lead = benches
        .iter()
        .map(|b| vec![b.name.into(), b.matrix.nnz().to_string()])
        .collect();
    let matrix = speedups(
        &mut out,
        "fig15a_spmv",
        &["Matrix", "nnz"],
        lead,
        &sizes,
        |b, n| {
            let partition = Partition::for_local_dominated(benches[b].local_dominated);
            best_speedup(n, 20_000_000, || {
                spmv_source(&benches[b].matrix, n, partition)
            })
        },
    );
    let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
    let (mean, shown) = means(&matrix);
    let grows = mean.windows(2).all(|w| w[1] >= w[0]) && mean.last() > mean.first();
    out.holds("SpMV speedups grow with PE count (Fig 15a)", shown, grows);
    if scale.paper() {
        out.band(
            "up to ~2.5× at 256 PEs (Fig 15a)",
            peak(&names, &matrix),
            about(2.5),
        );
    }
    let local = *matrix[0].last().expect("sized");
    out.known(
        "hamm_memplus, dominated by local coupling, neither needs nor gains from the faster NoC: \
         ~1× (Fig 15a)",
        (
            local,
            format!("{local:.2}× at {} PEs", sizes.last().expect("sized").0),
        ),
        about(1.0),
        1.2..=2.0,
        "the banded stand-in keeps one long-range entry per row; block-partitioned over many PEs \
         those entries become most of the traffic that leaves a PE, and they ride express links",
    );
    out
}

pub(super) fn fig15b(scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let stand_in = |name, graph, partition| {
        // As in the real suite: only the road network keeps a local partition.
        let local_dominated = partition != Partition::Cyclic;
        GraphBenchmark {
            name,
            graph,
            local_dominated,
            partition,
        }
    };
    let benches = match scale {
        Scale::Paper => graph_benchmarks(),
        Scale::Reduced => vec![
            stand_in(
                "wiki-Vote",
                rmat(11, 20_000, 0.57, 0.19, 0.19, 1),
                Partition::Cyclic,
            ),
            stand_in(
                "roadNet-CA",
                road_network(100, 0.01, 2),
                Partition::Grid2d { side: 100 },
            ),
        ],
    };
    // The paper plots graph workloads from 16 PEs up.
    let sizes = scale.sizes(&PE_LADDER[1..]);
    let lead = benches
        .iter()
        .map(|b| vec![b.name.into(), b.graph.num_edges().to_string()])
        .collect();
    let matrix = speedups(
        &mut out,
        "fig15b_graph",
        &["Graph", "edges"],
        lead,
        &sizes,
        |b, n| {
            best_speedup(n, 50_000_000, || {
                graph_source(&benches[b].graph, n, benches[b].partition)
            })
        },
    );
    if scale.paper() {
        let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
        out.known(
            "scale-free graphs gain up to ~2.8× at 256 PEs (Fig 15b)",
            peak(&names, &matrix),
            about(2.8),
            1.6..=2.24,
            "the R-MAT stand-ins (1/4–1/8 of the SNAP graphs' edges, cyclic partition) spread \
             traffic more evenly than the real graphs' hubs do, so Hoplite saturates less",
        );
    }
    let road = &matrix[benches
        .iter()
        .position(|b| b.local_dominated)
        .expect("has roadNet-CA")];
    let shown: Vec<String> = road.iter().map(|v| f(*v, 2)).collect();
    out.band(
        "roadNet-CA, local under its 2-D partition, stays near 1× (Fig 15b)",
        (span(road.iter().copied()).1, shown.join(" → ")),
        about(1.0),
    );
    out
}

pub(super) fn fig15c(scale: Scale) -> Outcome {
    /// PE compute time per dataflow operation (cycles).
    const COMPUTE_CYCLES: u64 = 4;
    let mut out = Outcome::default();
    let stand_in = |(name, nodes, window, seed)| LuBenchmark {
        name,
        dag: lu_dag(nodes, window, 2.0, seed),
    };
    let benches = match scale {
        Scale::Paper => lu_benchmarks(),
        Scale::Reduced => [("s953_3197", 3197, 40, 1), ("s1423_2582", 2582, 36, 2)]
            .map(stand_in)
            .to_vec(),
    };
    let sizes = scale.sizes(&PE_LADDER[1..]);
    let describe = |b: &LuBenchmark| {
        vec![
            b.name.into(),
            b.dag.num_nodes().to_string(),
            b.dag.critical_path_len().to_string(),
        ]
    };
    let (lead, headers) = (
        benches.iter().map(describe).collect(),
        ["Circuit", "nodes", "crit.path"],
    );
    let matrix = speedups(
        &mut out,
        "fig15c_dataflow",
        &headers,
        lead,
        &sizes,
        |b, n| {
            best_speedup(n, 20_000_000, || {
                DataflowSource::new(benches[b].dag.clone(), n, COMPUTE_CYCLES)
            })
        },
    );
    let names: Vec<&str> = benches.iter().map(|b| b.name).collect();
    let claim = "latency-bound dataflow gains modestly: up to ~1.4× (Fig 15c)";
    out.band(claim, peak(&names, &matrix), about(1.4));
    let (mean, shown) = means(&matrix);
    let at_largest = mean.iter().all(|m| m <= mean.last().expect("sized"));
    let claim = "most of the speedup comes at the largest system (Fig 15c: at 256 PEs)";
    out.holds(claim, shown, at_largest);
    out
}

pub(super) fn fig15d(scale: Scale) -> Outcome {
    // The paper runs 32 PEs; the overlay is hosted on a 6×6 torus (the
    // nearest square), which leaves the traffic profile untouched.
    const SIDE: u16 = 6;
    let mut out = Outcome::default();
    let mut profiles = parsec_benchmarks();
    if !scale.paper() {
        profiles.iter_mut().for_each(|p| p.messages_per_pe /= 10);
    }
    let messages = |p: &ParsecProfile| p.messages_per_pe as usize * (SIDE * SIDE) as usize;
    let lead = profiles
        .iter()
        .map(|p| vec![p.name.into(), messages(p).to_string()])
        .collect();
    let headers = ["Benchmark", "Messages"];
    let matrix = speedups(
        &mut out,
        "fig15d_multiproc",
        &headers,
        lead,
        &[(36, SIDE)],
        |b, n| best_speedup(n, 20_000_000, || parsec_trace(&profiles[b], n, 0x00f1_6150)),
    );
    let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    let claim = "up to ~2× for communication-heavy benchmarks such as x264 and dedup (Fig 15d)";
    out.band(claim, peak(&names, &matrix), about(2.0));
    let local = matrix[names
        .iter()
        .position(|&n| n == "freqmine")
        .expect("has freqmine")][0];
    let least = span(matrix.iter().map(|r| r[0])).0;
    out.holds(
        "freqmine, predominantly local, is near 1× and gains least (Fig 15d)",
        format!("{local:.2}×; smallest speedup in the suite {least:.2}×"),
        about(1.0).contains(&local) && local == least,
    );
    out
}

pub(super) fn serial(scale: Scale) -> Outcome {
    const CACHELINE_BITS: u32 = 512;
    const WIDTHS: [u32; 4] = [64, 128, 256, 512];
    let mut out = Outcome::default();
    let device = Device::virtex7_485t();
    let lines_per_pe = if scale.paper() { 400 } else { 50 };
    let nuts = [hoplite(8), ft(8, 2, 1)];
    let points: Vec<(&NocUnderTest, u32)> =
        nuts.iter().flat_map(|n| WIDTHS.map(|w| (n, w))).collect();
    // Per point: `None` when the width does not route, else the clock
    // and the cycles to move a line from every PE to PE+19 (`None` = hit
    // the cycle cap).
    let cells = sweep(points.clone(), threads(), |_, (nut, width)| {
        let mhz = noc_frequency_mhz(&device, &*topology_of(&nut.topology), width, 1).ok()?;
        let line = |src| Transfer {
            src,
            dst: (src + 19) % 64,
            bits: CACHELINE_BITS,
        };
        let lines = (0..64usize).flat_map(|src| (0..lines_per_pe).map(move |_| line(src)));
        let mut source = TransferBatchSource::new(8, width, lines.collect());
        let report = nut.run(&mut source, SimOptions::default());
        Some((mhz, (!report.truncated).then_some(report.cycles)))
    });
    let total = (64 * lines_per_pe) as f64;
    let mlines = |i: usize| cells[i].and_then(|(mhz, cycles)| Some(total / cycles? as f64 * mhz));
    for (i, (nut, width)) in points.iter().enumerate() {
        if matches!(cells[i], Some((_, None))) {
            out.truncated(&format!("{} at {width} b", nut.label()));
        }
    }
    let cols: [Col<usize>; 6] = [
        ("Config", &|&i| points[i].0.label()),
        ("Width (b)", &|&i| points[i].1.to_string()),
        ("Flits/line", &|&i| {
            flits_for(CACHELINE_BITS, points[i].1).to_string()
        }),
        ("MHz or NA", &|&i| {
            cells[i].map_or("NA".into(), |c| f(c.0, 0))
        }),
        ("Makespan (cyc)", &|&i| {
            cells[i]
                .and_then(|c| c.1)
                .map_or("-".into(), |c| c.to_string())
        }),
        ("Mlines/s", &|&i| mlines(i).map_or("-".into(), |m| f(m, 2))),
    ];
    out.table("ablation_serialization", 0..points.len(), &cols);
    // Per NoC: (width, Mlines/s) at each routable width, ascending.
    let routable = |nut: usize| -> Vec<(u32, f64)> {
        (0..4)
            .filter_map(|w| Some((WIDTHS[w], mlines(nut * 4 + w)?)))
            .collect()
    };
    let rising = |r: &[(u32, f64)]| r.windows(2).all(|w| w[1].1 > w[0].1);
    let (base, fast) = (routable(0), routable(1));
    let ((w_base, best_base), (w_fast, best_fast)) = (base[base.len() - 1], fast[fast.len() - 1]);
    out.holds(
        "the widest routable datawidth moves the most cachelines per second on both NoCs: \
         serialization flits cost more cycles than the narrower datapath's clock buys back",
        format!("Hoplite peaks at {w_base} b ({best_base:.0} Mlines/s), FT(64,2,1) at {w_fast} b ({best_fast:.0})"),
        rising(&base) && rising(&fast),
    );
    out.holds(
        "FastTrack's widest routable datawidth is narrower than Hoplite's (3× the wires per bit), \
         yet it still moves more lines per second",
        format!(
            "{w_fast} b vs {w_base} b; {:.2}× the lines/s",
            best_fast / best_base
        ),
        w_fast < w_base && best_fast > best_base,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_traffic::pattern::Pattern;
    use fasttrack_traffic::source::BernoulliSource;

    fn traffic() -> BernoulliSource {
        BernoulliSource::new(4, Pattern::Random, 0.5, 50, 7)
    }

    #[test]
    fn speedup_is_a_ratio_of_completion_times() {
        let s = best_speedup(4, 2_000_000, traffic).unwrap();
        assert!(
            s > 1.0,
            "FT(16,2,·) finishes RANDOM sooner than Hoplite: {s}"
        );
        let labels = |n| {
            fasttrack_candidates(n)
                .into_iter()
                .map(|c| c.label())
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(2), ["FT(4,1,1)"]);
        assert_eq!(labels(8), ["FT(64,2,1)", "FT(64,2,2)"]);
    }

    #[test]
    fn a_truncated_run_is_named_not_divided() {
        // Ten cycles cannot drain 50 packets per PE.
        assert_eq!(
            best_speedup(4, 10, traffic).unwrap_err(),
            "Hoplite 4x4 at 16 PEs"
        );
        let mut out = Outcome::default();
        let (lead, cell) = (vec![vec!["tiny".into()]], |_, n| {
            best_speedup(n, 10, traffic)
        });
        let matrix = speedups(&mut out, "slug", &["Bench"], lead, &[(16, 4)], cell);
        assert!(
            matrix[0][0].is_nan()
                && out
                    .checks
                    .iter()
                    .any(|c| c.verdict == crate::figures::Verdict::Fails)
        );
        let line = out.checks[0].line();
        assert!(
            line.contains("tiny on Hoplite 4x4 at 16 PEs was truncated"),
            "{line}"
        );
        assert!(out.tables[0].to_csv().contains("tiny,truncated"));
    }
}
