//! Lock-free shared embedding matrices (Hogwild-style).
//!
//! The original word2vec parallelizes SGD with Hogwild \[38\]: threads update
//! the shared parameter matrices without synchronization. Every trainer kind
//! here follows that model within a machine, reading and writing the shared
//! [`HogwildMatrix`] a whole row at a time; it hands out no reference into
//! its storage.

use std::cell::Cell;

/// A dense `rows × dim` matrix of `f32` that the trainer threads of one
/// machine share without locks.
///
/// # The data race
/// [`copy_row_into`](Self::copy_row_into) and [`store_row`](Self::store_row)
/// take `&self` and do not synchronize. Two threads calling them on the same
/// row at the same time, at least one of them storing, is a **data race**,
/// and by Rust's rules a data race is undefined behaviour, whatever the
/// values are used for afterwards. These two methods are the only place the
/// race can happen: nothing else reads or writes the storage while the matrix
/// is shared, and at `threads = 1` there is none. A sound row API is to
/// replace them (ROADMAP.md, "A learner without data races").
pub struct HogwildMatrix {
    data: Box<[Cell<f32>]>,
    rows: usize,
    dim: usize,
}

// SAFETY: not sound — sharing lets two threads reach one row's cells through
// `copy_row_into` and `store_row` at once, the data race documented above.
unsafe impl Sync for HogwildMatrix {}

impl HogwildMatrix {
    /// Creates a zero-initialized matrix.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        let data = (0..rows * dim).map(|_| Cell::new(0.0)).collect();
        Self { data, rows, dim }
    }

    /// Creates a matrix initialized uniformly in `[-0.5/dim, 0.5/dim)`, the
    /// word2vec initialization for the input matrix.
    pub fn random_init(rows: usize, dim: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let scale = 1.0 / dim as f32;
        let data = (0..rows * dim)
            .map(|_| Cell::new(((next() >> 11) as f32 / (1u64 << 53) as f32 - 0.5) * scale))
            .collect();
        Self { data, rows, dim }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Copies row `r` into `dst`, which must be `dim` floats long.
    pub fn copy_row_into(&self, r: usize, dst: &mut [f32]) {
        let cells = &self.data[r * self.dim..(r + 1) * self.dim];
        assert_eq!(dst.len(), cells.len(), "copy_row_into: row length");
        for (x, cell) in dst.iter_mut().zip(cells) {
            *x = cell.get();
        }
    }

    /// Overwrites row `r` from `src`, which must be `dim` floats long.
    pub fn store_row(&self, r: usize, src: &[f32]) {
        let cells = &self.data[r * self.dim..(r + 1) * self.dim];
        assert_eq!(src.len(), cells.len(), "store_row: row length");
        for (cell, &x) in cells.iter().zip(src) {
            cell.set(x);
        }
    }

    /// Consumes the matrix and returns the underlying storage (row-major).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
            .into_vec()
            .into_iter()
            .map(Cell::into_inner)
            .collect()
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rows * self.dim * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_dimensions() {
        let m = HogwildMatrix::zeros(4, 8);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.memory_bytes(), 4 * 8 * 4);
        let mut row = [1.0f32; 8];
        m.copy_row_into(2, &mut row);
        assert!(row.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn random_init_is_bounded_and_seeded() {
        let a = HogwildMatrix::random_init(10, 16, 7);
        let b = HogwildMatrix::random_init(10, 16, 7);
        let c = HogwildMatrix::random_init(10, 16, 8);
        let bound = 0.5 / 16.0 + 1e-6;
        let (a, b, c) = (a.into_vec(), b.into_vec(), c.into_vec());
        for r in 0..10 {
            let (ra, rb, rc) = (&a[r * 16..][..16], &b[r * 16..][..16], &c[r * 16..][..16]);
            assert_eq!(ra, rb, "same seed must give the same init");
            assert!(ra.iter().any(|&x| x != 0.0));
            assert!(ra.iter().all(|&x| x.abs() <= bound));
            assert_ne!(ra, rc, "different seeds should differ");
        }
    }

    #[test]
    fn row_round_trip() {
        let m = HogwildMatrix::zeros(3, 4);
        m.store_row(1, &[1.0, 2.0, 3.0, 4.0]);
        let mut buf = [0.0f32; 4];
        m.copy_row_into(1, &mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0, 4.0]);
        let v = m.into_vec();
        assert_eq!(&v[4..8], &[1.0, 2.0, 3.0, 4.0]);
    }
}
