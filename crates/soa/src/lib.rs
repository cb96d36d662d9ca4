//! Structs-of-arrays (SoA) storage for agent state.
//!
//! The paper deliberately baselines on BioDynaMo v0.0.9 because that
//! version stores agent state as *structs-of-arrays*: the x-coordinates of
//! all agents are contiguous in memory, as are the y-coordinates, the
//! diameters, and so on. Two properties of that layout matter for the
//! reproduction:
//!
//! 1. **Device transfers copy whole columns.** Offloading the mechanical
//!    interaction operation needs only the position/diameter/adherence
//!    columns; in SoA form each is a single contiguous `memcpy`-style
//!    transfer (paper §IV-B).
//! 2. **Space-filling-curve sorting is a column permutation.** Improvement
//!    II reorders agents along a Z-order curve; with SoA state this is one
//!    gather per column (see [`Permutation`]).
//!
//! The crate provides [`Column`] (one attribute array), [`SoaVec3`] (a
//! 3-component attribute stored as three scalar columns), [`Permutation`]
//! (validated index permutations with parallel gather), and
//! [`gather_words`] (a column reordered through a shared word buffer).

pub mod column;
pub mod mirror;
pub mod perm;
pub mod vec3col;

pub use column::Column;
pub use mirror::{F32Mirror, F32x4Mirror};
pub use perm::{gather_words, parts, Permutation, Word, MAX_PARTS};
pub use vec3col::{split_mut_at, SoaVec3, Vec3ChunkMut};

/// Index of an agent inside the resource manager's SoA columns.
///
/// A `u32` deliberately: BioDynaMo targets up to a few hundred million
/// agents, and halving the index width halves the memory traffic of the
/// uniform-grid linked lists on the (simulated) GPU.
///
/// `repr(transparent)` guarantees the layout matches `u32` exactly, so
/// bulk consumers (the fused SIMD force pass, GPU-side buffers) may
/// reinterpret an id slice as raw `u32`s without a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct AgentId(pub u32);

impl AgentId {
    /// Sentinel used as the linked-list terminator in the uniform grid
    /// (`Grid::successors_` in the paper's UML, Fig. 5).
    pub const NULL: AgentId = AgentId(u32::MAX);

    /// `true` when this id is the list terminator.
    #[inline(always)]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }

    /// Reinterpret a raw `u32` as an id, mapping the sentinel bit pattern
    /// onto [`AgentId::NULL`]. This is the one place where the raw
    /// encoding (`u32::MAX` = null) meets code that stores ids in plain
    /// `u32` cells — atomics in the parallel grid build, GPU-side
    /// buffers — so the sentinel value is defined here and in
    /// [`AgentId::NULL`] only, never at call sites.
    #[inline(always)]
    pub const fn from_raw(raw: u32) -> Self {
        AgentId(raw)
    }

    /// The index as a `usize` for column access.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a column index; panics if it collides with the
    /// sentinel or exceeds `u32`.
    #[inline(always)]
    pub fn from_index(i: usize) -> Self {
        assert!(i < u32::MAX as usize, "agent index {i} overflows AgentId");
        AgentId(i as u32)
    }
}

/// View an id slice as its raw `u32` indices, zero-copy.
///
/// Sound because [`AgentId`] is `repr(transparent)` over `u32`: same
/// size and alignment, and every bit pattern is valid for both (the
/// [`AgentId::NULL`] sentinel is just `u32::MAX`). Bulk consumers use
/// this to feed id runs straight into vector lanes or device buffers.
#[inline]
pub fn ids_as_raw(ids: &[AgentId]) -> &[u32] {
    // SAFETY: repr(transparent) guarantees identical layout, and `u32`
    // has no validity constraints an `AgentId` could violate.
    unsafe { core::slice::from_raw_parts(ids.as_ptr().cast(), ids.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_view_as_raw_u32() {
        let ids = [AgentId(3), AgentId::NULL, AgentId(0)];
        assert_eq!(ids_as_raw(&ids), &[3, u32::MAX, 0]);
        assert!(ids_as_raw(&[]).is_empty());
    }

    #[test]
    fn agent_id_roundtrip() {
        let id = AgentId::from_index(42);
        assert_eq!(id.index(), 42);
        assert!(!id.is_null());
    }

    #[test]
    fn null_sentinel() {
        assert!(AgentId::NULL.is_null());
        assert_eq!(AgentId::NULL.0, u32::MAX);
    }

    #[test]
    #[should_panic]
    fn sentinel_index_rejected() {
        AgentId::from_index(u32::MAX as usize);
    }
}
