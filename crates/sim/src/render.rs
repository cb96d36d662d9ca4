//! Cross-section rendering — the paper's Fig. 2.
//!
//! "A visualization of the cell division module in BioDynaMo
//! (cross-sectional view). The colors represent the diameter of the
//! cells." The reproduction renders the same thing without a
//! visualization stack: an axis-aligned slab of the population is
//! projected onto a pixel grid, each cell drawn as a disk colored by its
//! diameter through a blue→red colormap, written as a binary PPM (P6)
//! any image viewer opens.

use crate::rm::ResourceManager;
use bdm_math::Aabb;
use std::io::{self, Write};

/// A simple RGB raster.
#[derive(Debug, Clone)]
pub struct Image {
    width: usize,
    height: usize,
    /// Row-major RGB bytes.
    pixels: Vec<[u8; 3]>,
}

impl Image {
    /// A `width × height` image filled with `background`.
    pub fn new(width: usize, height: usize, background: [u8; 3]) -> Self {
        assert!(width > 0 && height > 0);
        Self {
            width,
            height,
            pixels: vec![background; width * height],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel accessor.
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        self.pixels[y * self.width + x]
    }

    /// Set a pixel (ignores out-of-range coordinates).
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = rgb;
        }
    }

    /// Draw a filled disk.
    pub fn fill_disk(&mut self, cx: f64, cy: f64, radius: f64, rgb: [u8; 3]) {
        let x0 = ((cx - radius).floor().max(0.0)) as usize;
        let x1 = ((cx + radius).ceil().min(self.width as f64 - 1.0)) as usize;
        let y0 = ((cy - radius).floor().max(0.0)) as usize;
        let y1 = ((cy + radius).ceil().min(self.height as f64 - 1.0)) as usize;
        let r2 = radius * radius;
        for y in y0..=y1 {
            for x in x0..=x1 {
                let dx = x as f64 + 0.5 - cx;
                let dy = y as f64 + 0.5 - cy;
                if dx * dx + dy * dy <= r2 {
                    self.set(x, y, rgb);
                }
            }
        }
    }

    /// Write as binary PPM (P6).
    pub fn write_ppm<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        for p in &self.pixels {
            w.write_all(p)?;
        }
        Ok(())
    }
}

/// Blue→red colormap over `[0, 1]` (Fig. 2's diameter scale).
pub fn colormap(t: f64) -> [u8; 3] {
    let t = t.clamp(0.0, 1.0);
    // Blue (small) → cyan → yellow → red (large), piecewise linear.
    let (r, g, b) = if t < 1.0 / 3.0 {
        let u = t * 3.0;
        (0.0, u, 1.0)
    } else if t < 2.0 / 3.0 {
        let u = (t - 1.0 / 3.0) * 3.0;
        (u, 1.0, 1.0 - u)
    } else {
        let u = (t - 2.0 / 3.0) * 3.0;
        (1.0, 1.0 - u, 0.0)
    };
    [(r * 255.0) as u8, (g * 255.0) as u8, (b * 255.0) as u8]
}

/// Render a cross-sectional view of the population: every cell whose
/// center lies within `slab_half` of the `z = slice_z` plane is drawn as
/// a disk, colored by diameter across the population's diameter range.
pub fn render_cross_section(
    rm: &ResourceManager,
    space: &Aabb<f64>,
    slice_z: f64,
    slab_half: f64,
    width: usize,
) -> Image {
    let extent = space.extents();
    let height = ((width as f64) * extent.y / extent.x).round().max(1.0) as usize;
    let mut img = Image::new(width, height, [20, 20, 24]);
    let scale = width as f64 / extent.x;

    let n = rm.len();
    let (mut d_lo, mut d_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for i in 0..n {
        d_lo = d_lo.min(rm.diameter(i));
        d_hi = d_hi.max(rm.diameter(i));
    }
    let d_span = (d_hi - d_lo).max(1e-9);

    // Draw back-to-front by |z - slice| so in-plane cells win overlaps.
    let mut order: Vec<usize> = (0..n)
        .filter(|&i| (rm.position(i).z - slice_z).abs() <= slab_half)
        .collect();
    order.sort_by(|&a, &b| {
        let da = (rm.position(a).z - slice_z).abs();
        let db = (rm.position(b).z - slice_z).abs();
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    for i in order {
        let p = rm.position(i);
        let rel = p - space.min;
        let t = (rm.diameter(i) - d_lo) / d_span;
        img.fill_disk(
            rel.x * scale,
            (extent.y - rel.y) * scale, // image y grows downward
            rm.diameter(i) * 0.5 * scale,
            colormap(t),
        );
    }
    img
}

/// Render through a [`crate::simulation::Simulation`]'s mid-plane.
pub fn render_simulation(sim: &crate::simulation::Simulation, width: usize) -> Image {
    let space = sim.params().space;
    let slab = sim.rm().largest_diameter().max(1.0);
    render_cross_section(sim.rm(), &space, space.center().z, slab, width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellBuilder;
    use bdm_math::Vec3;

    const BG: [u8; 3] = [20, 20, 24];

    /// Pixels differing from the background.
    fn painted(img: &Image) -> usize {
        img.pixels.iter().filter(|&&p| p != BG).count()
    }

    #[test]
    fn colormap_endpoints_and_monotone_red() {
        assert_eq!(colormap(0.0), [0, 0, 255]);
        assert_eq!(colormap(1.0), [255, 0, 0]);
        // The red channel is non-decreasing in t.
        let mut last = 0u8;
        for k in 0..=20 {
            let [r, _, _] = colormap(k as f64 / 20.0);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    fn disk_is_drawn_within_radius() {
        let mut img = Image::new(40, 40, BG);
        img.fill_disk(20.0, 20.0, 5.0, [255, 0, 0]);
        assert_eq!(img.get(20, 20), [255, 0, 0]);
        assert_eq!(img.get(20, 24), [255, 0, 0]);
        assert_eq!(img.get(20, 27), BG);
        // Roughly πr² pixels painted.
        let area = painted(&img) as f64;
        assert!((area - std::f64::consts::PI * 25.0).abs() < 15.0);
    }

    #[test]
    fn cross_section_only_shows_the_slab() {
        let mut rm = ResourceManager::new();
        rm.add(CellBuilder::new(Vec3::new(0.0, 0.0, 0.0)).diameter(4.0));
        rm.add(CellBuilder::new(Vec3::new(5.0, 5.0, 50.0)).diameter(4.0)); // far off-plane
        let space = Aabb::cube(20.0);
        let img = render_cross_section(&rm, &space, 0.0, 3.0, 100);
        assert!(painted(&img) > 0, "in-plane cell must render");
        // Only one disk: the painted area matches a single r=5px disk.
        let area = painted(&img) as f64;
        let r_px = 2.0 * 100.0 / 40.0; // radius 2 in a 40-unit-wide, 100px image
        assert!((area - std::f64::consts::PI * r_px * r_px).abs() < 20.0);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(7, 3, BG);
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n7 3\n255\n"));
        assert_eq!(buf.len(), b"P6\n7 3\n255\n".len() + 7 * 3 * 3);
    }

    #[test]
    fn aspect_ratio_follows_space() {
        let mut rm = ResourceManager::new();
        rm.add(CellBuilder::new(Vec3::zero()).diameter(1.0));
        let space = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(40.0, 20.0, 10.0));
        let img = render_cross_section(&rm, &space, 5.0, 10.0, 200);
        assert_eq!(img.width(), 200);
        assert_eq!(img.height(), 100);
    }
}
