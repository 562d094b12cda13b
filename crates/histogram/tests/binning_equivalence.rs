//! Binning arithmetic ≡ its libm form.
//!
//! `Mass::from_f64` quantizes with integer exponent/mantissa arithmetic
//! and `Grid::col_of`/`row_of` clamp before a truncating cast instead of
//! calling `floor`. Both must give, for every input, exactly what the
//! floating-point forms give:
//!
//! * `(x * 2f64.powi(75)).round() as i128` for the mass, saturation and
//!   NaN → 0 included;
//! * `(u * n).floor().clamp(0.0, n - 1.0) as u32` for the cell index.

use rand::{Rng, RngExt, SeedableRng};
use sj_geo::{Extent, Rect};
use sj_histogram::{Grid, Mass};

/// The quantization as the floating-point expression writes it.
#[allow(clippy::cast_possible_truncation)]
fn libm_mass(x: f64) -> i128 {
    (x * 2f64.powi(75)).round() as i128
}

/// The cell index with the explicit `floor`.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn floor_index(v: f64, lo: f64, extent: f64, n: u32) -> u32 {
    let n = f64::from(n);
    let u = (v - lo) / extent;
    (u * n).floor().clamp(0.0, n - 1.0) as u32
}

/// Values every input set includes: signed zeros, subnormals, the
/// smallest normals, NaN (several payloads, both signs) and infinities.
fn specials() -> Vec<f64> {
    let mut xs = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits(0x000F_FFFF_FFFF_FFFF),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::from_bits(0xFFF8_0000_0000_0000),
        f64::INFINITY,
    ];
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    xs.extend(negated);
    xs
}

#[test]
fn mass_from_f64_equals_the_libm_form() {
    let mut xs = specials();
    let unit = 2f64.powi(-75);
    // Exact half-unit ties and their neighbours, at several magnitudes.
    for k in [0u64, 1, 2, 3, 1 << 20, (1 << 51) - 1, (1 << 51) + 1] {
        #[allow(clippy::cast_precision_loss)]
        let tie = (k as f64 + 0.5) * unit;
        xs.extend([tie, tie.next_up(), tie.next_down()]);
    }
    // The 2¹²⁷ saturation edge (2⁵² · 2⁷⁵) and a unit both sides of it.
    let edge = 2f64.powi(52);
    xs.extend([edge, edge.next_down(), edge.next_up(), 2f64.powi(53)]);
    // Around one half and one unit of the fixed-point grid.
    for v in [unit, unit / 2.0, unit / 4.0, 0.5, 1.0] {
        xs.extend([v, v.next_up(), v.next_down()]);
    }
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    xs.extend(negated);
    // Random bit patterns, and random values in the range histogram
    // contributions actually take.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0b1e_0075);
    for _ in 0..200_000 {
        xs.push(f64::from_bits(rng.next_u64()));
        xs.push(rng.next_f64() * 2f64.powi(rng.random_range(-80..60i32)));
    }
    for x in xs {
        assert_eq!(
            Mass::from_f64(x).raw_units(),
            libm_mass(x),
            "x = {x:e} ({:#018x})",
            x.to_bits()
        );
    }
}

#[test]
fn cell_index_equals_the_floor_form() {
    let extents = [
        Rect::new(0.0, 0.0, 1.0, 1.0),
        Rect::new(-3.5, 2.25, 7.0, 9.0),
        Rect::new(-1e-150, -1e-150, 1e-150, 1e-150),
        Rect::new(-1e150, 1e150, 1e151, 1e152),
        Rect::new(0.1, 0.2, 0.3, 0.7),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0c01_0f00);
    for rect in extents {
        for level in [0, 1, 3, 7, Grid::MAX_LEVEL] {
            let grid = Grid::new(level, Extent::new(rect)).unwrap();
            let n = grid.cells_per_axis();
            let mut xs = specials();
            let mut ys = specials();
            // Every cell edge and its neighbours, on both axes.
            for i in 0..=n {
                let x = rect.xlo + f64::from(i) * grid.cell_width();
                let y = rect.ylo + f64::from(i) * grid.cell_height();
                xs.extend([x, x.next_up(), x.next_down()]);
                ys.extend([y, y.next_up(), y.next_down()]);
            }
            for _ in 0..2_000 {
                xs.push(f64::from_bits(rng.next_u64()));
                ys.push(f64::from_bits(rng.next_u64()));
                xs.push(rng.random_range(rect.xlo..rect.xhi));
                ys.push(rng.random_range(rect.ylo..rect.yhi));
            }
            let (w, h) = (rect.xhi - rect.xlo, rect.yhi - rect.ylo);
            for x in xs {
                let want = floor_index(x, rect.xlo, w, n);
                assert_eq!(grid.col_of(x), want, "col_of({x:e}) at level {level}");
            }
            for y in ys {
                let want = floor_index(y, rect.ylo, h, n);
                assert_eq!(grid.row_of(y), want, "row_of({y:e}) at level {level}");
            }
        }
    }
}
