//! Token LU-factorization dataflow traffic (paper Figure 15c).
//!
//! Sparse LU factorization of SPICE circuit matrices compiles into a
//! token dataflow graph: an operation fires when all its input tokens
//! arrive, computes for a few cycles, and sends result tokens to its
//! dependents. The workload is *latency-bound* — packets are injected
//! along dependency chains, so NoC latency sits directly on the critical
//! path, and (as the paper notes) these graphs have notoriously low ILP.
//!
//! We synthesize circuit-like DAGs (geometric fan-in from a sliding
//! dependency window, long critical paths) scaled to the node counts the
//! paper's benchmark names carry (e.g. `bomhof3_10656` = 10 656 nodes).

use fasttrack_core::geom::Coord;
use fasttrack_core::packet::Delivery;
use fasttrack_core::queue::InjectQueues;
use fasttrack_core::sim::TrafficSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A dataflow graph: node `i` depends on `deps[i]` (all indices `< i`,
/// so the graph is a DAG by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowGraph {
    deps: Vec<Vec<u32>>,
    succs: Vec<Vec<u32>>,
}

impl DataflowGraph {
    /// Builds a DAG from per-node dependency lists.
    ///
    /// # Panics
    ///
    /// Panics if any dependency is not strictly smaller than its node
    /// (which would break acyclicity).
    pub(crate) fn new(deps: Vec<Vec<u32>>) -> Self {
        let mut succs = vec![Vec::new(); deps.len()];
        for (i, d) in deps.iter().enumerate() {
            for &p in d {
                assert!(
                    (p as usize) < i,
                    "dependency {p} of node {i} breaks DAG order"
                );
                succs[p as usize].push(i as u32);
            }
        }
        DataflowGraph { deps, succs }
    }

    /// Number of operations.
    pub fn num_nodes(&self) -> usize {
        self.deps.len()
    }

    /// Total edges (tokens that must traverse the NoC or a PE).
    pub fn num_edges(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// Dependencies of node `i`.
    pub(crate) fn deps(&self, i: usize) -> &[u32] {
        &self.deps[i]
    }

    /// Dependents of node `i`.
    pub(crate) fn successors(&self, i: usize) -> &[u32] {
        &self.succs[i]
    }

    /// Length of the longest dependency chain (critical path in nodes).
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.deps.len()];
        let mut best = 0;
        for i in 0..self.deps.len() {
            let d = self.deps[i]
                .iter()
                .map(|&p| depth[p as usize] + 1)
                .max()
                .unwrap_or(0);
            depth[i] = d;
            best = best.max(d);
        }
        best + usize::from(!self.deps.is_empty())
    }
}

/// Synthesizes an LU-factorization-style DAG: node `i` draws a geometric
/// number of dependencies from a sliding window `[i - window, i)` — a
/// small window yields the long, thin graphs characteristic of circuit
/// LU (low ILP); a large window adds parallelism.
pub fn lu_dag(nodes: usize, window: usize, avg_fanin: f64, seed: u64) -> DataflowGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut deps = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let mut d = Vec::new();
        if i > 0 {
            // Geometric fan-in with mean avg_fanin, at least one.
            let mut fanin = 1;
            while rng.gen::<f64>() < 1.0 - 1.0 / avg_fanin {
                fanin += 1;
            }
            let lo = i.saturating_sub(window);
            for _ in 0..fanin {
                let p = rng.gen_range(lo..i) as u32;
                if !d.contains(&p) {
                    d.push(p);
                }
            }
        }
        deps.push(d);
    }
    DataflowGraph::new(deps)
}

/// A named LU benchmark (Figure 15c): the paper's name encodes the node
/// count (`s1423_6648` = 6 648 dataflow nodes).
#[derive(Debug, Clone)]
pub struct LuBenchmark {
    /// Benchmark name as in the paper.
    pub name: &'static str,
    /// The synthesized dataflow graph.
    pub dag: DataflowGraph,
}

/// The Figure 15c benchmark suite.
pub fn lu_benchmarks() -> Vec<LuBenchmark> {
    let spec: [(&str, usize, usize, f64); 12] = [
        ("sandia_20105", 20105, 96, 2.2),
        ("simucad_ram2k", 15000, 80, 2.0),
        ("simucad_dac", 12000, 72, 2.1),
        ("sandia_12944", 12944, 72, 2.2),
        ("s953_4568", 4568, 48, 2.0),
        ("s953_3197", 3197, 40, 2.0),
        ("s1494_9156", 9156, 64, 2.1),
        ("s1488_4872", 4872, 48, 2.0),
        ("s1423_6648", 6648, 56, 2.1),
        ("s1423_2582", 2582, 36, 2.0),
        ("ram8k_10823", 10823, 64, 2.2),
        ("bomhof3_10656", 10656, 64, 2.1),
    ];
    spec.iter()
        .enumerate()
        .map(|(i, &(name, nodes, window, fanin))| LuBenchmark {
            name,
            dag: lu_dag(nodes, window, fanin, 0xda7a_0000 + i as u64),
        })
        .collect()
}

/// Dependency-driven traffic source executing a [`DataflowGraph`] on an
/// `n × n` NoC: operations are assigned to PEs round-robin, each PE
/// executes one ready operation at a time (`compute_cycles` each), and
/// every dependency edge whose endpoints differ becomes a NoC packet.
#[derive(Debug, Clone)]
pub struct DataflowSource {
    n: u16,
    compute_cycles: u64,
    /// Remaining un-received inputs per node.
    missing: Vec<u32>,
    /// Ready-to-run operations per PE.
    ready: Vec<Vec<u32>>,
    /// Cycle at which each PE finishes its current operation (paired
    /// with the operation id), if busy.
    running: Vec<Option<(u64, u32)>>,
    /// Operations completed so far.
    completed: usize,
    dag: DataflowGraph,
}

impl DataflowSource {
    /// Creates a source; nodes with no dependencies are ready at cycle 0.
    pub fn new(dag: DataflowGraph, n: u16, compute_cycles: u64) -> Self {
        let pes = n as usize * n as usize;
        let mut missing = Vec::with_capacity(dag.num_nodes());
        let mut ready = vec![Vec::new(); pes];
        for i in 0..dag.num_nodes() {
            let m = dag.deps(i).len() as u32;
            missing.push(m);
            if m == 0 {
                ready[i % pes].push(i as u32);
            }
        }
        // FIFO order: reverse so pop() takes the lowest id first.
        for r in &mut ready {
            r.reverse();
        }
        DataflowSource {
            n,
            compute_cycles,
            missing,
            ready,
            running: vec![None; pes],
            completed: 0,
            dag,
        }
    }

    /// Operations completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    fn pe_of(&self, node: u32) -> usize {
        node as usize % self.ready.len()
    }
}

impl TrafficSource for DataflowSource {
    fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
        let pes = self.ready.len();
        for pe in 0..pes {
            // Finish a running operation: emit its output tokens.
            if let Some((done_at, node)) = self.running[pe] {
                if done_at <= cycle {
                    self.running[pe] = None;
                    self.completed += 1;
                    for s in 0..self.dag.successors(node as usize).len() {
                        let succ = self.dag.successors(node as usize)[s];
                        let dst = self.pe_of(succ);
                        queues.push(pe, Coord::from_node_id(dst, self.n), cycle, succ as u64);
                    }
                }
            }
            // Start the next ready operation.
            if self.running[pe].is_none() {
                if let Some(node) = self.ready[pe].pop() {
                    self.running[pe] = Some((cycle + self.compute_cycles, node));
                }
            }
        }
    }

    fn on_delivery(&mut self, delivery: &Delivery) {
        let node = delivery.packet.tag as usize;
        debug_assert!(self.missing[node] > 0);
        self.missing[node] -= 1;
        if self.missing[node] == 0 {
            let pe = self.pe_of(node as u32);
            self.ready[pe].insert(0, node as u32);
        }
    }

    fn exhausted(&self) -> bool {
        self.completed == self.dag.num_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fasttrack_core::config::{FtPolicy, NocConfig};
    use fasttrack_core::sim::{SimOptions, SimSession};

    #[test]
    fn dag_construction_and_critical_path() {
        // Chain 0 -> 1 -> 2 plus independent 3.
        let dag = DataflowGraph::new(vec![vec![], vec![0], vec![1], vec![]]);
        assert_eq!(dag.num_nodes(), 4);
        assert_eq!(dag.num_edges(), 2);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.critical_path_len(), 3);
    }

    #[test]
    #[should_panic(expected = "breaks DAG order")]
    fn forward_dependency_rejected() {
        DataflowGraph::new(vec![vec![1], vec![]]);
    }

    #[test]
    fn lu_dag_properties() {
        let dag = lu_dag(2000, 40, 2.0, 9);
        assert_eq!(dag.num_nodes(), 2000);
        // Every non-root node has at least one dependency.
        assert!((1..2000).all(|i| !dag.deps(i).is_empty()));
        // Small window ⇒ long critical path (low ILP).
        assert!(
            dag.critical_path_len() > 100,
            "critical path {} too short for an LU-like graph",
            dag.critical_path_len()
        );
    }

    #[test]
    fn dataflow_executes_all_nodes() {
        let dag = lu_dag(500, 20, 2.0, 3);
        let edges = dag.num_edges();
        let mut src = DataflowSource::new(dag, 4, 2);
        let cfg = NocConfig::hoplite(4).unwrap();
        let report = SimSession::new(&cfg).run(&mut src).unwrap().report;
        assert!(!report.truncated, "dataflow did not drain");
        assert_eq!(src.completed(), 500);
        assert_eq!(report.stats.delivered as usize, edges);
    }

    #[test]
    fn dataflow_latency_sensitive_ft_speedup_at_scale() {
        // The paper sees most LU speedup at large PE counts; at small
        // scale FastTrack should at least not lose.
        let dag = lu_dag(1500, 120, 2.2, 5);
        let opts = SimOptions::default();
        let mut s1 = DataflowSource::new(dag.clone(), 4, 1);
        let hoplite = SimSession::new(&NocConfig::hoplite(4).unwrap())
            .options(opts)
            .run(&mut s1)
            .unwrap()
            .report;
        let mut s2 = DataflowSource::new(dag, 4, 1);
        let ft = SimSession::new(&NocConfig::fasttrack(4, 2, 1, FtPolicy::Full).unwrap())
            .options(opts)
            .run(&mut s2)
            .unwrap()
            .report;
        assert!(!hoplite.truncated && !ft.truncated);
        let speedup = hoplite.cycles as f64 / ft.cycles as f64;
        assert!(speedup > 0.9, "FT should not lose on dataflow: {speedup}");
    }

    #[test]
    fn benchmark_names_encode_sizes() {
        let benches = lu_benchmarks();
        assert_eq!(benches.len(), 12);
        let b = benches.iter().find(|b| b.name == "bomhof3_10656").unwrap();
        assert_eq!(b.dag.num_nodes(), 10656);
    }
}
