//! The buffered mesh as a [`Topology`] implementation.
//!
//! Re-expresses the mesh's geometry through the crate's topology
//! abstraction so sessions, monitors, fault planners, and the
//! iso-resource comparison harness treat it uniformly with the torus
//! and Sparse Hamming Graph backends.
//!
//! Link tagging follows the engine's event convention (see
//! `crate::mesh::noc`): the mesh's bidirectional links report through the
//! torus axis classes, x-axis links as `E_sh` and y-axis links as
//! `S_sh`, all [`WireClass::Short`] — a buffered mesh has no express
//! wires. The per-direction `slot` is [`Dir::index`], so edge routers
//! simply omit the slots that would leave the fabric.

use crate::fault::{Fault, FaultError};
use crate::geom::Coord;
use crate::mesh::config::MeshConfig;
use crate::mesh::noc::axis_port;
use crate::mesh::router::{xy_route, Dir};
use crate::port::OutPort;
use crate::resources::{self, ResourceCost};
use crate::topology::{LinkDesc, MonitorShape, Topology, TopologySpec, WireClass};

/// An `n × n` buffered mesh viewed through the [`Topology`] trait.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MeshTopology {
    cfg: MeshConfig,
}

impl MeshTopology {
    /// Wraps a mesh configuration.
    pub(crate) fn new(cfg: MeshConfig) -> Self {
        MeshTopology { cfg }
    }
}

impl Topology for MeshTopology {
    fn name(&self) -> String {
        self.cfg.name()
    }

    fn spec(&self) -> TopologySpec {
        TopologySpec::Mesh {
            n: self.cfg.n(),
            depth: self.cfg.buffer_depth(),
        }
    }

    fn num_nodes(&self) -> usize {
        self.cfg.num_nodes()
    }

    fn monitor_shape(&self) -> MonitorShape {
        MonitorShape::torus(self.cfg.n())
    }

    fn out_links(&self, node: usize) -> Vec<LinkDesc> {
        let n = self.cfg.n();
        let at = Coord::from_node_id(node, n);
        Dir::ALL
            .iter()
            .filter_map(|&dir| {
                dir.neighbor(at, n).map(|next| LinkDesc {
                    src: node,
                    dst: next.to_node_id(n),
                    slot: dir.index(),
                    port: axis_port(dir),
                    class: WireClass::Short,
                    span: 1,
                    cycles: 1,
                })
            })
            .collect()
    }

    fn route_slot(&self, at: usize, dst: usize) -> usize {
        let n = self.cfg.n();
        let from = Coord::from_node_id(at, n);
        let to = Coord::from_node_id(dst, n);
        xy_route(from, to).map_or(0, Dir::index)
    }

    /// XY routing fixes the fan-ins ([`crate::resources`]): an X input
    /// goes straight or turns, a Y input never turns onto X, nothing
    /// U-turns, and the PE reaches every output, the ejector included
    /// (a self-send). Each link input's register is a FIFO of
    /// `buffer_depth` flits.
    fn resource_cost(&self) -> ResourceCost {
        let depth = self.cfg.buffer_depth();
        let x_axis = |l: &LinkDesc| l.port == OutPort::EastSh;
        (0..self.num_nodes())
            .map(|node| {
                // Links are bidirectional: the router has an input from
                // each side it has an output to, slotted by `Dir`.
                let links = self.out_links(node);
                let fan_in = |out: &LinkDesc| {
                    let feeds = |f: &&LinkDesc| f.slot != out.slot && (x_axis(f) || !x_axis(out));
                    1 + links.iter().filter(feeds).count() as u32
                };
                let muxes = links.iter().map(fan_in).chain([links.len() as u32 + 1]);
                resources::router(muxes, links.len() * (depth + 1) + 1, [false; 2])
            })
            .sum()
    }

    /// The engine's `step` moves a packet from a FIFO head register
    /// through three LUT stages in one cycle: the XY request, the
    /// round-robin grant, and the switch mux it selects.
    fn lut_stages(&self) -> u32 {
        3
    }

    /// XY routing is single-path, so the mesh admits only transient
    /// axis (shared-class) faults, fail-stop routers, and stalled
    /// injectors: a dead link of any port would partition it, and it
    /// has no express link to take down.
    fn validate_fault(&self, fault: &Fault) -> Result<(), FaultError> {
        let nodes = self.num_nodes();
        let node = fault.node();
        if node >= nodes {
            return Err(FaultError::BadNode { node, nodes });
        }
        let window = |from: u64, until: u64| {
            if from >= until {
                Err(FaultError::EmptyWindow { from, until })
            } else {
                Ok(())
            }
        };
        match *fault {
            Fault::DeadLink { out, .. } => Err(FaultError::PartitionsTorus { node, out }),
            Fault::DownLink { out, .. } => Err(FaultError::NoExpressLink { node, out }),
            Fault::TransientLink {
                out, from, until, ..
            } => match out {
                OutPort::Exit => Err(FaultError::NotALink { node }),
                OutPort::EastEx | OutPort::SouthEx => Err(FaultError::NoExpressLink { node, out }),
                OutPort::EastSh | OutPort::SouthSh => window(from, until),
            },
            Fault::FailStopRouter { .. } => Ok(()),
            Fault::StalledInjector { from, until, .. } => window(from, until),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(n: u16) -> MeshTopology {
        MeshTopology::new(MeshConfig::new(n, 4).unwrap())
    }

    #[test]
    fn corner_and_interior_degrees() {
        let t = topo(4);
        assert_eq!(t.out_links(0).len(), 2, "corner: east + south only");
        assert_eq!(t.out_links(5).len(), 4, "interior: all four");
        // Every link's reverse twin exists (bidirectional mesh).
        for l in t.links() {
            assert!(t.out_links(l.dst).iter().any(|r| r.dst == l.src));
        }
    }

    #[test]
    fn mesh_is_strongly_connected_and_has_no_express() {
        let t = topo(4);
        assert!(t.connected_without(&[]));
        assert!(t.express_ports().is_empty());
        assert!(t
            .links()
            .iter()
            .all(|l| l.class == WireClass::Short && l.span == 1));
    }

    #[test]
    fn route_lut_is_xy() {
        let t = topo(4);
        let lut = t.build_route_lut();
        // (0,0) -> (2,1): east first.
        let slot = lut.slot(0, Coord::new(2, 1).to_node_id(4)).unwrap();
        assert_eq!(slot, Dir::East.index());
        // (2,0) -> (2,1): then south.
        let slot = lut.slot(2, Coord::new(2, 1).to_node_id(4)).unwrap();
        assert_eq!(slot, Dir::South.index());
    }

    /// Slots are the engine's direction index, so an edge router's are
    /// sparse: lookups go by `LinkDesc::slot`, never by position.
    #[test]
    fn slots_are_direction_indices() {
        let t = topo(4);
        for l in t.links() {
            let dir = Dir::ALL[l.slot];
            assert_eq!(
                dir.neighbor(Coord::from_node_id(l.src, 4), 4)
                    .unwrap()
                    .to_node_id(4),
                l.dst
            );
        }
        // The corner (0,0) has only its East and South links.
        assert_eq!(t.wire_class(0, Dir::South.index()), Some(WireClass::Short));
        assert_eq!(t.wire_class(0, Dir::East.index()), Some(WireClass::Short));
        assert_eq!(t.wire_class(0, Dir::North.index()), None);
        assert_eq!(t.wire_class(0, Dir::West.index()), None);
    }

    #[test]
    fn fault_validation_matches_engine() {
        let t = topo(4);
        let dead = Fault::DeadLink {
            node: 0,
            out: OutPort::EastSh,
        };
        assert!(
            t.validate_fault(&dead).is_err(),
            "single-path XY: no dead links"
        );
        let transient = Fault::TransientLink {
            node: 1,
            out: OutPort::EastSh,
            from: 0,
            until: 10,
            corrupt: false,
        };
        assert!(t.validate_fault(&transient).is_ok());
    }

    /// The mesh's whole admission table: every fault kind on every
    /// output class, with a live and an empty window, plus a node past
    /// the fabric. XY routing is single-path, so a dead link partitions
    /// whatever its port; the mesh has no express links, so a down link
    /// or an express transient names a link that is not there.
    #[test]
    fn admission_table_covers_every_kind_and_port() {
        use FaultError::*;
        let t = topo(4);
        let node = 5;
        for out in OutPort::ALL {
            for (from, until) in [(10, 20), (20, 20)] {
                let empty = (from >= until).then_some(EmptyWindow { from, until });
                let transient = match out {
                    OutPort::Exit => Err(NotALink { node }),
                    OutPort::EastEx | OutPort::SouthEx => Err(NoExpressLink { node, out }),
                    OutPort::EastSh | OutPort::SouthSh => empty.map_or(Ok(()), Err),
                };
                let table = [
                    (
                        Fault::DeadLink { node, out },
                        Err(PartitionsTorus { node, out }),
                    ),
                    (
                        Fault::DownLink {
                            node,
                            out,
                            from,
                            until,
                        },
                        Err(NoExpressLink { node, out }),
                    ),
                    (
                        Fault::TransientLink {
                            node,
                            out,
                            from,
                            until,
                            corrupt: true,
                        },
                        transient,
                    ),
                    (Fault::FailStopRouter { node, at: from }, Ok(())),
                    (
                        Fault::StalledInjector { node, from, until },
                        empty.map_or(Ok(()), Err),
                    ),
                ];
                for (fault, want) in table {
                    assert_eq!(t.validate_fault(&fault), want, "{fault:?}");
                }
            }
        }
        let nodes = t.num_nodes();
        for fault in [
            Fault::DeadLink {
                node: nodes,
                out: OutPort::EastSh,
            },
            Fault::DownLink {
                node: nodes,
                out: OutPort::EastEx,
                from: 0,
                until: 1,
            },
            Fault::TransientLink {
                node: nodes,
                out: OutPort::Exit,
                from: 1,
                until: 0,
                corrupt: false,
            },
            Fault::FailStopRouter { node: nodes, at: 0 },
            Fault::StalledInjector {
                node: nodes,
                from: 1,
                until: 0,
            },
        ] {
            assert_eq!(
                t.validate_fault(&fault),
                Err(BadNode { node: nodes, nodes }),
                "{fault:?}"
            );
        }
    }

    #[test]
    fn buffers_dominate_ff_cost() {
        let shallow = MeshTopology::new(MeshConfig::new(4, 1).unwrap()).resource_cost();
        let deep = MeshTopology::new(MeshConfig::new(4, 8).unwrap()).resource_cost();
        assert_eq!(shallow.luts_per_bit, deep.luts_per_bit, "depth is FF-only");
        // Per bit: four interior routers of 6 LUTs (a 5:1 exit mux, the
        // PE's self-send included), eight edges of 4 or 3, four corners
        // of 2.
        assert_eq!(shallow.luts_per_bit, 60);
        assert_eq!(shallow.decode_luts, deep.decode_luts);
        // 48 link inputs, each seven flits deeper.
        assert_eq!(deep.ffs_per_bit, shallow.ffs_per_bit + 7 * 48);
        let (shallow_luts, shallow_ffs) = shallow.at(256);
        let (deep_luts, deep_ffs) = deep.at(256);
        assert_eq!(shallow_luts, deep_luts);
        assert!(deep_ffs > 3 * shallow_ffs && deep_ffs > deep_luts);
    }

    #[test]
    fn spec_round_trips_through_core_grammar() {
        let t = topo(4);
        let spec = t.spec();
        assert_eq!(spec.to_string(), "mesh:4:4");
        assert_eq!(spec.to_string().parse::<TopologySpec>().unwrap(), spec);
        assert_eq!(spec.monitor_shape(), t.monitor_shape());
    }
}
