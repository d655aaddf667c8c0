//! Procedural image generation: rasterization primitives and the two
//! unpaired image domains consumed by the VSAIT workload.
//!
//! The paper evaluates VSAIT on GTA→Cityscapes-style unpaired translation.
//! Here two *procedural* domains with deliberately different statistics
//! stand in: domain A is smooth (gradients + flat geometric shapes, a
//! game-render look), domain B is textured (noise fields + different
//! intensity distribution, a photo look). What the workload exercises —
//! feature extraction, hashing, binding — depends only on those
//! statistics, not on photographic content.

use nsai_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw a filled primitive into a flat grayscale buffer.
///
/// `shape_type` selects the primitive: 0 = disc, 1 = square, 2 = diamond,
/// 3 = ring, 4 = cross. Out-of-bounds pixels are clipped.
pub fn draw_disc(
    data: &mut [f32],
    res: usize,
    cy: usize,
    cx: usize,
    radius: usize,
    intensity: f32,
    shape_type: usize,
) {
    let r = radius as isize;
    let (cy, cx) = (cy as isize, cx as isize);
    for dy in -r..=r {
        for dx in -r..=r {
            let inside = match shape_type % 5 {
                0 => dy * dy + dx * dx <= r * r,
                1 => true, // square: the whole bounding box
                2 => dy.abs() + dx.abs() <= r,
                3 => {
                    let d2 = dy * dy + dx * dx;
                    d2 <= r * r && d2 >= (r - 1).max(0) * (r - 1).max(0) / 2
                }
                _ => dy == 0 || dx == 0,
            };
            if !inside {
                continue;
            }
            let (y, x) = (cy + dy, cx + dx);
            if y >= 0 && x >= 0 && (y as usize) < res && (x as usize) < res {
                data[y as usize * res + x as usize] = intensity;
            }
        }
    }
}

/// Draw a shape with a *fractional* radius and anti-aliased edges.
///
/// [`draw_disc`] quantizes the radius to whole pixels, which collapses
/// nearby radii into identical images at low resolutions (at 16×16 an RPM
/// cell is 5 px and five of the six size grades truncate to radius 1).
/// Here each edge pixel gets partial coverage `clamp(r + 0.5 - d, 0, 1)`
/// of `intensity`, so every fractional radius produces a distinct image.
/// Pixels are combined with `max`, matching overlapping-object behavior.
pub fn draw_disc_soft(
    data: &mut [f32],
    res: usize,
    cy: usize,
    cx: usize,
    radius: f32,
    intensity: f32,
    shape_type: usize,
) {
    let r = radius.max(0.0);
    let span = r.ceil() as isize + 1;
    let (cy, cx) = (cy as isize, cx as isize);
    for dy in -span..=span {
        for dx in -span..=span {
            let (ay, ax) = (dy.unsigned_abs() as f32, dx.unsigned_abs() as f32);
            // Distance from the shape edge in the metric that defines it.
            let d = match shape_type % 5 {
                0 => (ay * ay + ax * ax).sqrt(), // disc: Euclidean
                1 => ay.max(ax),                 // square: Chebyshev
                2 => ay + ax,                    // diamond: L1
                3 => {
                    // Ring: distance from the circle of radius r·0.75,
                    // rescaled so coverage falls off at the same rate.
                    let inner = (ay * ay + ax * ax).sqrt() - r * 0.75;
                    r + inner.abs() - r * 0.25
                }
                _ => {
                    // Cross: axis-aligned arms of length r.
                    if dy == 0 {
                        ax
                    } else if dx == 0 {
                        ay
                    } else {
                        f32::INFINITY
                    }
                }
            };
            let coverage = (r + 0.5 - d).clamp(0.0, 1.0);
            if coverage <= 0.0 {
                continue;
            }
            let (y, x) = (cy + dy, cx + dx);
            if y >= 0 && x >= 0 && (y as usize) < res && (x as usize) < res {
                let px = &mut data[y as usize * res + x as usize];
                *px = px.max(intensity * coverage);
            }
        }
    }
}

/// Which procedural domain to sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Smooth gradients + flat shapes (synthetic-render statistics).
    Synthetic,
    /// Textured noise + shifted intensity distribution (photo statistics).
    Textured,
}

/// Generator for unpaired image batches from the two domains.
#[derive(Debug)]
pub struct DomainGenerator {
    rng: StdRng,
    res: usize,
}

impl DomainGenerator {
    /// Create a generator for `res × res` single-channel images.
    ///
    /// # Panics
    ///
    /// Panics if `res < 8`.
    pub fn new(res: usize, seed: u64) -> Self {
        assert!(res >= 8, "resolution must be at least 8");
        DomainGenerator {
            rng: StdRng::seed_from_u64(seed),
            res,
        }
    }

    /// Sample a batch `[n, 1, res, res]` from a domain.
    pub fn sample(&mut self, domain: Domain, n: usize) -> Tensor {
        let res = self.res;
        let mut data = Vec::with_capacity(n * res * res);
        for _ in 0..n {
            let img = match domain {
                Domain::Synthetic => self.synthetic_image(),
                Domain::Textured => self.textured_image(),
            };
            data.extend_from_slice(&img);
        }
        Tensor::from_vec(data, &[n, 1, res, res]).expect("length matches")
    }

    /// Smooth domain: a directional gradient plus 2–4 flat shapes.
    fn synthetic_image(&mut self) -> Vec<f32> {
        let res = self.res;
        let mut img = vec![0.0f32; res * res];
        let gx: f32 = self.rng.gen_range(-0.4..0.4);
        let gy: f32 = self.rng.gen_range(-0.4..0.4);
        let base: f32 = self.rng.gen_range(0.2..0.5);
        for y in 0..res {
            for x in 0..res {
                img[y * res + x] = (base + gx * x as f32 / res as f32 + gy * y as f32 / res as f32)
                    .clamp(0.0, 1.0);
            }
        }
        for _ in 0..self.rng.gen_range(2..=4) {
            let cy = self.rng.gen_range(0..res);
            let cx = self.rng.gen_range(0..res);
            let r = self.rng.gen_range(res / 10..res / 4);
            let intensity = self.rng.gen_range(0.6..1.0);
            let shape = self.rng.gen_range(0..3);
            draw_disc(&mut img, res, cy, cx, r, intensity, shape);
        }
        img
    }

    /// Textured domain: value-noise field with a darker, compressed
    /// intensity distribution.
    fn textured_image(&mut self) -> Vec<f32> {
        let res = self.res;
        // Coarse noise lattice, bilinearly upsampled, plus fine noise.
        let coarse = 8usize;
        let lattice: Vec<f32> = (0..coarse * coarse)
            .map(|_| self.rng.gen_range(0.0..0.6))
            .collect();
        let mut img = vec![0.0f32; res * res];
        for y in 0..res {
            for x in 0..res {
                let fy = y as f32 / res as f32 * (coarse - 1) as f32;
                let fx = x as f32 / res as f32 * (coarse - 1) as f32;
                let (y0, x0) = (fy as usize, fx as usize);
                let (ty, tx) = (fy - y0 as f32, fx - x0 as f32);
                let y1 = (y0 + 1).min(coarse - 1);
                let x1 = (x0 + 1).min(coarse - 1);
                let v = lattice[y0 * coarse + x0] * (1.0 - ty) * (1.0 - tx)
                    + lattice[y0 * coarse + x1] * (1.0 - ty) * tx
                    + lattice[y1 * coarse + x0] * ty * (1.0 - tx)
                    + lattice[y1 * coarse + x1] * ty * tx;
                let fine: f32 = self.rng.gen_range(-0.08..0.08);
                img[y * res + x] = (v + fine).clamp(0.0, 1.0);
            }
        }
        img
    }
}

/// Mean absolute horizontal gradient — a cheap texture statistic that
/// separates the two domains.
pub fn batch_roughness(batch: &Tensor) -> f32 {
    let dims = batch.dims();
    let (n, res) = (dims[0], dims[3]);
    let h = dims[2];
    let mut total = 0.0f32;
    let mut count = 0usize;
    for i in 0..n {
        let base = i * h * res;
        for y in 0..h {
            for x in 1..res {
                total +=
                    (batch.data()[base + y * res + x] - batch.data()[base + y * res + x - 1]).abs();
                count += 1;
            }
        }
    }
    total / count.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_have_requested_shape() {
        let mut g = DomainGenerator::new(32, 1);
        let batch = g.sample(Domain::Synthetic, 3);
        assert_eq!(batch.dims(), &[3, 1, 32, 32]);
        assert!(batch.data().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn domains_have_a_measurable_gap() {
        let mut g = DomainGenerator::new(32, 2);
        let synth = g.sample(Domain::Synthetic, 8);
        let tex = g.sample(Domain::Textured, 8);
        // The textured domain is rougher.
        assert!(
            batch_roughness(&tex) > 2.0 * batch_roughness(&synth),
            "roughness: tex {} vs synth {}",
            batch_roughness(&tex),
            batch_roughness(&synth)
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DomainGenerator::new(16, 3).sample(Domain::Textured, 2);
        let b = DomainGenerator::new(16, 3).sample(Domain::Textured, 2);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn draw_disc_clips_at_borders() {
        let mut img = vec![0.0f32; 8 * 8];
        draw_disc(&mut img, 8, 0, 0, 3, 1.0, 0);
        // No panic; some pixels set.
        assert!(img.contains(&1.0));
    }

    #[test]
    fn shape_types_differ() {
        let mut disc = vec![0.0f32; 16 * 16];
        let mut square = vec![0.0f32; 16 * 16];
        draw_disc(&mut disc, 16, 8, 8, 4, 1.0, 0);
        draw_disc(&mut square, 16, 8, 8, 4, 1.0, 1);
        let disc_count = disc.iter().filter(|v| **v > 0.0).count();
        let square_count = square.iter().filter(|v| **v > 0.0).count();
        assert!(square_count > disc_count);
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn resolution_validation() {
        let _ = DomainGenerator::new(4, 1);
    }
}
