//! The buffered-mesh engine moved into `fasttrack-core` as
//! [`fasttrack_core::mesh`]; this crate only forwards it, for its one
//! remaining caller, the repo benchmark (`benchmark/src/plan.rs:31`
//! imports `fasttrack_mesh::{MeshBackend, MeshConfig}`). ROADMAP item 1
//! PR B moves that import to `fasttrack_core::mesh` and deletes this
//! crate.

pub use fasttrack_core::mesh::*;
