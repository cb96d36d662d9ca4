//! 3-D Hilbert curve — the ablation partner of the Z-order sort.
//!
//! The paper picks the Z-order curve for Improvement II because its key
//! is a cheap bit interleave. The Hilbert curve is the classic
//! alternative: unlike the Z-curve it has **no long jumps** — consecutive
//! keys always sit one voxel apart — at the cost of a more expensive key
//! computation. The shard driver cuts its spans along it; agent storage
//! and the GPU presort keep the Z-order.
//!
//! Implementation: John Skilling, *"Programming the Hilbert curve"*,
//! AIP Conf. Proc. 707 (2004) — the transpose representation, converted
//! to/from a flat key by bit interleaving.

use crate::{COORD_BITS, COORD_MAX};

/// Convert axes to the Hilbert transpose representation (in place).
fn axes_to_transpose(x: &mut [u32; 3]) {
    let n = 3;
    let m = 1u32 << (COORD_BITS - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..n {
            if x[i] & q != 0 {
                x[0] ^= p; // invert
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..n {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[n - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Convert the transpose representation back to axes (in place) —
/// Skilling's inverse.
fn transpose_to_axes(x: &mut [u32; 3]) {
    let n = 3;
    let m = 1u32 << (COORD_BITS - 1);
    // Gray decode by H ^ (H/2).
    let mut t = x[n - 1] >> 1;
    for i in (1..n).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u32;
    while q != m << 1 {
        let p = q - 1;
        for i in (0..n).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Hilbert key of three 21-bit coordinates: the transposed bits,
/// interleaved most-significant first (axis 0 outermost).
pub fn hilbert_encode3(xc: u32, yc: u32, zc: u32) -> u64 {
    debug_assert!(xc <= COORD_MAX && yc <= COORD_MAX && zc <= COORD_MAX);
    let mut x = [xc, yc, zc];
    axes_to_transpose(&mut x);
    let mut key = 0u64;
    for bit in (0..COORD_BITS).rev() {
        for xi in &x {
            key = (key << 1) | ((xi >> bit) & 1) as u64;
        }
    }
    key
}

/// Inverse of [`hilbert_encode3`].
pub fn hilbert_decode3(key: u64) -> (u32, u32, u32) {
    let mut x = [0u32; 3];
    let mut k = key;
    for bit in 0..COORD_BITS {
        for i in (0..3).rev() {
            x[i] |= ((k & 1) as u32) << bit;
            k >>= 1;
        }
    }
    transpose_to_axes(&mut x);
    (x[0], x[1], x[2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for (x, y, z) in [
            (0, 0, 0),
            (1, 0, 0),
            (1, 2, 3),
            (255, 1023, 7),
            (COORD_MAX, COORD_MAX, COORD_MAX),
            (COORD_MAX, 0, 12345),
        ] {
            assert_eq!(hilbert_decode3(hilbert_encode3(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn origin_is_key_zero() {
        assert_eq!(hilbert_encode3(0, 0, 0), 0);
    }

    #[test]
    fn keys_are_unique_on_a_small_cube() {
        let mut keys = std::collections::HashSet::new();
        for z in 0..8u32 {
            for y in 0..8 {
                for x in 0..8 {
                    assert!(keys.insert(hilbert_encode3(x, y, z)));
                }
            }
        }
        assert_eq!(keys.len(), 512);
    }

    /// The defining Hilbert property: walking the curve in key order
    /// moves exactly one unit step along exactly one axis every time.
    #[test]
    fn consecutive_keys_are_grid_neighbors() {
        // Enumerate an 8×8×8 block in key order by sorting.
        let mut cells: Vec<(u64, (u32, u32, u32))> = Vec::new();
        for z in 0..8u32 {
            for y in 0..8 {
                for x in 0..8 {
                    cells.push((hilbert_encode3(x, y, z), (x, y, z)));
                }
            }
        }
        cells.sort_unstable();
        for w in cells.windows(2) {
            let (_, (ax, ay, az)) = w[0];
            let (_, (bx, by, bz)) = w[1];
            let d = (ax as i64 - bx as i64).abs()
                + (ay as i64 - by as i64).abs()
                + (az as i64 - bz as i64).abs();
            assert_eq!(
                d,
                1,
                "Hilbert step must be a unit move: {:?} → {:?}",
                (ax, ay, az),
                (bx, by, bz)
            );
        }
    }

    /// The Z-curve makes long jumps between octants; Hilbert never does.
    #[test]
    fn hilbert_has_no_long_jumps_where_zorder_does() {
        let mut z_jumps = 0;
        let mut cells: Vec<(u64, (u32, u32, u32))> = Vec::new();
        for z in 0..8u32 {
            for y in 0..8 {
                for x in 0..8 {
                    cells.push((crate::encode3(x, y, z), (x, y, z)));
                }
            }
        }
        cells.sort_unstable();
        for w in cells.windows(2) {
            let (_, (ax, ay, az)) = w[0];
            let (_, (bx, by, bz)) = w[1];
            let d = (ax as i64 - bx as i64).abs()
                + (ay as i64 - by as i64).abs()
                + (az as i64 - bz as i64).abs();
            if d > 1 {
                z_jumps += 1;
            }
        }
        assert!(z_jumps > 0, "the Z-curve should jump between blocks");
    }
}
