//! Device kernels of the mechanical-interaction offload.
//!
//! The paper ports "the uniform grid algorithm as well as the mechanical
//! force computation as a single GPU kernel" (§IV-B). We split the two
//! concerns into a grid-construction kernel and a force kernel launched
//! back-to-back (the timing model charges one launch overhead each, which
//! matches the cost of a fused kernel with an internal grid pass on real
//! hardware to well under the measurement noise).
//!
//! * [`layout`] — the device layout, declared once: the agent and
//!   displacement column views and the two grid views every kernel holds
//!   instead of naming buffers, with the load sequences the performance
//!   model sees (position triple, successor-chain walk) written once.
//!   Geometry is `bdm_grid::GridGeometry` itself, passed by value (the
//!   GPU analogue of constant-memory parameters), so a grid built on the
//!   host and one built on the device agree voxel-for-voxel by
//!   construction.
//! * [`grid_build::GridBuildKernel`] — atomic head-insertion build of the
//!   paper's linked-list grid ([`layout::ChainGrid`]).
//! * [`mech::ForceKernel`] — one thread per cell, serial neighbor loop,
//!   one Eq. 1 body over a [`mech::CandidateSource`]: successor chains
//!   over ≤ 27 voxels (versions v0/I/II depending on precision and input
//!   ordering) or CSR slices over ≤ 9 x-runs (version IV).
//! * [`mech_shared::SharedMechKernel`] — block-per-voxel shared-memory
//!   tile variant (version III; slower, as the paper found). The tile is
//!   the third candidate shape; its overflow fallback is the chain walk.
//! * [`dynpar::{ParentKernel, ChildKernel, FinishKernel}`] — the §VI
//!   future-work dynamic-parallelism experiment: oversubscribed cells
//!   fan their neighbor loop out to child work-items, one chain walk
//!   each.
//! * [`csr::{CsrCountKernel, CsrScatterKernel}`] — the post-paper version
//!   IV build: a counting sort into [`layout::CsrCells`], so the force
//!   kernel streams contiguous candidate slices instead of chasing
//!   successor links.
//! * [`resident::{IntegrateKernel, CompactKernel}`] — the device-resident
//!   step loop: on-device `pos += disp` integration and on-device column
//!   compaction after host-side deaths, so steady-state steps move no
//!   agent columns over the bus.

pub mod csr;
pub mod dynpar;
pub mod grid_build;
pub mod layout;
pub mod mech;
pub mod mech_shared;
pub mod resident;
