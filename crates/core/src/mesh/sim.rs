//! Driver glue for the buffered mesh: a [`SessionBackend`] so
//! [`SimSession`](crate::sim::SimSession) (and its shared drive loop)
//! runs the mesh exactly like the torus engines, producing the same
//! [`SimReport`](crate::sim::SimReport) so results compose in one
//! table.

use crate::fault::{FaultError, FaultPlan};
use crate::mesh::config::MeshConfig;
use crate::mesh::noc::MeshNoc;
use crate::mesh::topology::MeshTopology;
use crate::packet::Delivery;
use crate::queue::InjectQueues;
use crate::sim::{SessionBackend, SimEngine};
use crate::stats::SimStats;
use crate::topology::{MonitorShape, Topology};
use crate::trace::EventSink;

impl SimEngine for MeshNoc {
    fn num_nodes(&self) -> usize {
        self.config().num_nodes()
    }

    fn report_name(&self) -> String {
        MeshTopology::new(*self.config()).name()
    }

    fn step_cycle<S: EventSink>(
        &mut self,
        queues: &mut InjectQueues,
        deliveries: &mut Vec<Delivery>,
        sink: &mut S,
    ) {
        self.step_with_sink(queues, deliveries, sink);
    }

    fn in_flight(&self) -> usize {
        MeshNoc::in_flight(self)
    }

    fn reset_stats(&mut self) {
        MeshNoc::reset_stats(self);
    }

    fn only_failed_injectors_pending(&self, queues: &InjectQueues) -> bool {
        MeshNoc::only_failed_injectors_pending(self, queues)
    }

    fn stats_snapshot(&self) -> SimStats {
        self.stats().clone()
    }
}

/// [`SessionBackend`] for the buffered mesh:
/// `SimSession::with_backend(MeshBackend::new(&cfg))` composes sinks,
/// monitors, and (the mesh-supported subset of) fault plans exactly like
/// the torus sessions.
#[derive(Debug, Clone, Copy)]
pub struct MeshBackend {
    cfg: MeshConfig,
}

impl MeshBackend {
    /// A backend building [`MeshNoc`]s from `cfg`.
    pub fn new(cfg: &MeshConfig) -> Self {
        MeshBackend { cfg: *cfg }
    }
}

impl SessionBackend for MeshBackend {
    type Engine = MeshNoc;

    fn build(&self, faults: Option<&FaultPlan>) -> Result<MeshNoc, FaultError> {
        match faults {
            Some(plan) => MeshNoc::with_faults(self.cfg, plan),
            None => Ok(MeshNoc::new(self.cfg)),
        }
    }

    fn monitor_shape(&self) -> MonitorShape {
        MeshTopology::new(self.cfg).monitor_shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Coord;
    use crate::sim::{SimReport, SimSession, TrafficSource};

    struct Batch {
        items: Vec<(usize, Coord)>,
        pushed: bool,
    }

    impl TrafficSource for Batch {
        fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
            if !self.pushed {
                for &(s, d) in &self.items {
                    queues.push(s, d, cycle, 0);
                }
                self.pushed = true;
            }
        }
        fn exhausted(&self) -> bool {
            self.pushed
        }
    }

    fn run_mesh(cfg: &MeshConfig, src: &mut impl TrafficSource) -> SimReport {
        SimSession::with_backend(MeshBackend::new(cfg))
            .run(src)
            .expect("no fault plan attached")
            .report
    }

    #[test]
    fn report_fields_populated() {
        let cfg = MeshConfig::new(4, 4).unwrap();
        let mut src = Batch {
            items: (1..16).map(|i| (i, Coord::new(0, 0))).collect(),
            pushed: false,
        };
        let report = run_mesh(&cfg, &mut src);
        assert!(!report.truncated);
        assert_eq!(report.stats.delivered, 15);
        assert_eq!(report.nodes, 16);
        assert!(report.config_name.contains("Mesh"));
        assert!(report.avg_latency() > 0.0);
    }

    #[test]
    fn mesh_has_no_deflection_tax_at_low_load() {
        // At 10% injection the buffered mesh delivers offered load with
        // short, tight latencies — the "buffered routers are fine at low
        // load" half of the paper's Figure 1 trade-off.
        use crate::config::NocConfig;
        struct Trickle {
            left: u32,
        }
        impl TrafficSource for Trickle {
            fn pump(&mut self, cycle: u64, queues: &mut InjectQueues) {
                if self.left > 0 && cycle.is_multiple_of(10) {
                    let node = (cycle / 10) as usize % 16;
                    queues.push(node, Coord::new(3, 3), cycle, 0);
                    self.left -= 1;
                }
            }
            fn exhausted(&self) -> bool {
                self.left == 0
            }
        }
        let mesh = run_mesh(&MeshConfig::new(4, 4).unwrap(), &mut Trickle { left: 50 });
        let torus = SimSession::new(&NocConfig::hoplite(4).unwrap())
            .run(&mut Trickle { left: 50 })
            .unwrap()
            .report;
        assert!(!mesh.truncated && !torus.truncated);
        assert_eq!(mesh.stats.delivered, 50);
        // Mesh minimal paths are at most as long as unidirectional-torus
        // paths, so mean latency is no worse at trickle load.
        assert!(mesh.avg_latency() <= torus.avg_latency() + 2.0);
    }
}
