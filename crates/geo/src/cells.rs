//! A uniform square grid over the plane.

use crate::Position;

/// A uniform grid of square cells, `cell` metres on a side, with cell
/// `(0, 0)` at the origin: maps a position to the packed key of the cell
/// holding it.
///
/// The radio medium files its nodes under these keys, and the traffic
/// simulation keys its vehicles with the same grid to report which of
/// them crossed into another cell in a step, so both sides share this
/// one arithmetic.
///
/// # Example
///
/// ```
/// use geonet_geo::{CellGrid, Position};
///
/// let grid = CellGrid::new(500.0);
/// assert_eq!(grid.index(-1.0), -1);
/// assert_eq!(grid.key_of(Position::new(499.0, 20.0)), grid.key_of(Position::new(0.0, 0.0)));
/// assert_ne!(grid.key_of(Position::new(501.0, 20.0)), grid.key_of(Position::new(0.0, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGrid {
    cell: f64,
    /// `1 / cell`.
    inv_cell: f64,
}

impl Default for CellGrid {
    /// A grid of 1 m cells.
    fn default() -> Self {
        CellGrid::new(1.0)
    }
}

impl CellGrid {
    /// A grid of `cell`-metre cells.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not finite and positive.
    #[must_use]
    pub fn new(cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "invalid cell size: {cell}");
        CellGrid { cell, inv_cell: 1.0 / cell }
    }

    /// The cell edge, metres.
    #[must_use]
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// The cell index of coordinate `v`: `floor(v / cell)` away from cell
    /// edges, and monotone in `v`. A multiply and a floor written out, as
    /// `f64::floor` and a division would cost a libm call and a divide per
    /// coordinate.
    #[must_use]
    #[inline]
    pub fn index(&self, v: f64) -> i32 {
        let q = v * self.inv_cell;
        let t = q as i32;
        t.saturating_sub(i32::from(f64::from(t) > q))
    }

    /// The packed key of cell `(cx, cy)`.
    #[must_use]
    #[inline]
    pub fn key(cx: i32, cy: i32) -> u64 {
        (u64::from(cx as u32) << 32) | u64::from(cy as u32)
    }

    /// The key of the cell holding `p`.
    #[must_use]
    #[inline]
    pub fn key_of(&self, p: Position) -> u64 {
        Self::key(self.index(p.x), self.index(p.y))
    }

    /// Whether `x` lies in the column of the cell with key `key`: whether
    /// [`CellGrid::index`] of `x` is the key's `cx`. Decided without a
    /// float-to-int conversion: `index` is `floor(x / cell)` over the
    /// `i32` range, and `cx` and `cx + 1` are exact in `f64`. Never `true`
    /// for an `x` outside the column; may be `false` for one inside it
    /// only where `index` saturates.
    #[must_use]
    #[inline]
    pub fn column_holds(&self, key: u64, x: f64) -> bool {
        let lo = f64::from((key >> 32) as u32 as i32);
        let q = x * self.inv_cell;
        lo <= q && q < lo + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_floors_both_signs() {
        // The radio medium's tests cover cell edges to the ulp.
        let g = CellGrid::new(486.0);
        for (v, i) in
            [(0.0, 0), (485.9, 0), (486.1, 1), (-0.1, -1), (-486.1, -2), (-1e13, i32::MIN)]
        {
            assert_eq!(g.index(v), i, "v = {v}");
        }
    }

    #[test]
    fn keys_pack_both_indices() {
        let g = CellGrid::new(10.0);
        assert_eq!(g.key_of(Position::new(-5.0, 25.0)), CellGrid::key(-1, 2));
        assert_ne!(CellGrid::key(1, 2), CellGrid::key(2, 1));
        assert_eq!(CellGrid::default().cell(), 1.0);
    }

    #[test]
    fn column_holds_exactly_the_column_of_the_key() {
        for cell in [1.0, 30.0, 486.0, 1_283.0] {
            let g = CellGrid::new(cell);
            for k in -300..300 {
                let edge = f64::from(k) * cell;
                let mut x = edge;
                for _ in 0..3 {
                    x = x.next_down();
                }
                for _ in 0..7 {
                    for probe in [edge - cell / 2.0, edge + cell / 3.0, x] {
                        let key = g.key_of(Position::new(probe, 2.5));
                        assert_eq!(g.column_holds(key, x), g.index(x) == g.index(probe));
                    }
                    x = x.next_up();
                }
            }
        }
        // Past the `i32` range the answer may be `false`, never a wrong
        // `true`.
        let g = CellGrid::new(1.0);
        let key = g.key_of(Position::new(-1e13, 0.0));
        assert!(!g.column_holds(key, 0.0));
    }

    #[test]
    #[should_panic(expected = "invalid cell size")]
    fn rejects_zero_cells() {
        let _ = CellGrid::new(0.0);
    }
}
