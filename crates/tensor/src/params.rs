//! Parameter storage shared by models and optimizers.
//!
//! A [`ParamStore`] owns every trainable matrix of a model. Layers hold
//! [`ParamId`] handles; each forward pass copies the current values onto the
//! [`crate::tape::Tape`] as leaves, and the optimizer applies gradients back
//! into the store. The store serialises with `serde`, which is how trained
//! models are checkpointed.
//!
//! Each parameter carries its own storage [`Precision`]. The default is
//! [`Precision::F32`] — a plain [`Matrix`], bit-identical to every earlier
//! revision of this crate. Large lookup tables (node/time embeddings) can be
//! converted to [`Precision::Bf16`] with [`ParamStore::set_precision`]: the
//! payload shrinks to 2 bytes/scalar and gather bandwidth halves, while all
//! arithmetic stays f32 — rows are decoded on gather
//! ([`ParamStore::gather_rows_f32`]), gradients are f32, and the optimizer
//! updates a decoded f32 copy before rounding back
//! ([`ParamStore::encode_from_f32`]). The rounding is nearest-even with
//! relative error ≤ 2⁻⁸ per scalar (see [`crate::bf16`]).

use crate::bf16::{bf16_decode, bf16_decode_slice, bf16_encode_slice};
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Stable handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(usize);

impl ParamId {
    pub(crate) fn index(self) -> usize {
        self.0
    }

    pub(crate) fn from_index(i: usize) -> Self {
        ParamId(i)
    }
}

/// Numeric storage format of a parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Precision {
    /// 4 bytes/scalar, exact; the default everywhere.
    F32,
    /// 2 bytes/scalar, relative rounding error ≤ 2⁻⁸; opt-in for
    /// embedding tables. Arithmetic still happens in f32.
    Bf16,
}

impl Precision {
    /// Payload bytes per scalar in this format.
    pub fn bytes_per_scalar(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 => 2,
        }
    }

    /// Stable lowercase name (persisted in configs / logs).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
        }
    }
}

#[derive(Clone, Serialize, Deserialize)]
enum Storage {
    F32(Matrix),
    Bf16 {
        rows: usize,
        cols: usize,
        bits: Vec<u16>,
    },
}

impl Storage {
    fn shape(&self) -> (usize, usize) {
        match self {
            Storage::F32(m) => m.shape(),
            Storage::Bf16 { rows, cols, .. } => (*rows, *cols),
        }
    }

    fn len(&self) -> usize {
        match self {
            Storage::F32(m) => m.len(),
            Storage::Bf16 { bits, .. } => bits.len(),
        }
    }
}

#[derive(Clone, Serialize, Deserialize)]
struct Entry {
    name: String,
    value: Storage,
}

/// Owns the trainable parameters of a model.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    entries: Vec<Entry>,
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with a diagnostic name; returns its handle.
    /// New parameters always start at [`Precision::F32`]; convert with
    /// [`ParamStore::set_precision`] after init.
    pub fn create(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.entries.push(Entry {
            name: name.into(),
            value: Storage::F32(value),
        });
        ParamId(self.entries.len() - 1)
    }

    /// Current value of an f32 parameter.
    ///
    /// # Panics
    /// For [`Precision::Bf16`] parameters — those have no resident f32
    /// matrix; use [`ParamStore::decode_f32`] or
    /// [`ParamStore::gather_rows_f32`].
    #[expect(
        clippy::panic,
        reason = "documented `# Panics`: borrowing a bf16 table as f32 is a caller bug"
    )]
    pub fn value(&self, id: ParamId) -> &Matrix {
        match &self.entries[id.0].value {
            Storage::F32(m) => m,
            Storage::Bf16 { .. } => panic!(
                "parameter `{}` is stored bf16; decode it instead of borrowing",
                self.entries[id.0].name
            ),
        }
    }

    /// Mutable access to an f32 parameter (used by optimizers).
    ///
    /// # Panics
    /// For [`Precision::Bf16`] parameters (see [`ParamStore::value`]).
    #[expect(
        clippy::panic,
        reason = "documented `# Panics`: borrowing a bf16 table as f32 is a caller bug"
    )]
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        let entry = &mut self.entries[id.0];
        match &mut entry.value {
            Storage::F32(m) => m,
            Storage::Bf16 { .. } => panic!(
                "parameter `{}` is stored bf16; decode it instead of borrowing",
                entry.name
            ),
        }
    }

    /// Storage precision of a parameter.
    pub fn precision(&self, id: ParamId) -> Precision {
        match &self.entries[id.0].value {
            Storage::F32(_) => Precision::F32,
            Storage::Bf16 { .. } => Precision::Bf16,
        }
    }

    /// `(rows, cols)` of a parameter, regardless of storage format.
    pub fn shape(&self, id: ParamId) -> (usize, usize) {
        self.entries[id.0].value.shape()
    }

    /// Convert a parameter's storage format in place. `F32 -> Bf16`
    /// rounds each scalar to nearest-even (lossy, ≤ 2⁻⁸ relative);
    /// `Bf16 -> F32` is exact. Converting to the current format is a
    /// no-op.
    pub fn set_precision(&mut self, id: ParamId, precision: Precision) {
        let entry = &mut self.entries[id.0];
        match (&entry.value, precision) {
            (Storage::F32(m), Precision::Bf16) => {
                let (rows, cols) = m.shape();
                let mut bits = vec![0u16; m.len()];
                bf16_encode_slice(m.as_slice(), &mut bits);
                entry.value = Storage::Bf16 { rows, cols, bits };
            }
            (Storage::Bf16 { rows, cols, bits }, Precision::F32) => {
                let mut data = vec![0f32; bits.len()];
                bf16_decode_slice(bits, &mut data);
                entry.value = Storage::F32(Matrix::from_vec(*rows, *cols, data));
            }
            _ => {}
        }
    }

    /// Decode a parameter to a fresh f32 [`Matrix`] (exact for both
    /// storage formats). The optimizer uses this as the working copy for
    /// bf16 parameters.
    pub fn decode_f32(&self, id: ParamId) -> Matrix {
        match &self.entries[id.0].value {
            Storage::F32(m) => m.clone(),
            Storage::Bf16 { rows, cols, bits } => {
                let mut data = vec![0f32; bits.len()];
                bf16_decode_slice(bits, &mut data);
                Matrix::from_vec(*rows, *cols, data)
            }
        }
    }

    /// Write f32 values back into a parameter, rounding to the entry's
    /// storage format (nearest-even for bf16, exact for f32).
    ///
    /// # Panics
    /// If `src`'s shape differs from the parameter's.
    pub fn encode_from_f32(&mut self, id: ParamId, src: &Matrix) {
        let entry = &mut self.entries[id.0];
        assert_eq!(
            src.shape(),
            entry.value.shape(),
            "shape mismatch writing back `{}`",
            entry.name
        );
        match &mut entry.value {
            Storage::F32(m) => m.as_mut_slice().copy_from_slice(src.as_slice()),
            Storage::Bf16 { bits, .. } => bf16_encode_slice(src.as_slice(), bits),
        }
    }

    /// Decode selected rows into `out` (`out.rows() == idx.len()`,
    /// `out.cols() == cols`). This is the hot embedding-gather path: for
    /// bf16 tables only the indexed rows are decoded, never the full
    /// table.
    ///
    /// # Panics
    /// If `out`'s shape is not `(idx.len(), cols)` or an index is out of
    /// range.
    pub fn gather_rows_f32(&self, id: ParamId, idx: &[u32], out: &mut Matrix) {
        let (rows, cols) = self.entries[id.0].value.shape();
        assert_eq!(out.shape(), (idx.len(), cols), "gather output shape");
        let dst = out.as_mut_slice();
        match &self.entries[id.0].value {
            Storage::F32(m) => {
                let src = m.as_slice();
                for (i, &r) in idx.iter().enumerate() {
                    let r = r as usize;
                    assert!(r < rows, "gather index {r} out of {rows} rows");
                    dst[i * cols..(i + 1) * cols].copy_from_slice(&src[r * cols..(r + 1) * cols]);
                }
            }
            Storage::Bf16 { bits, .. } => {
                for (i, &r) in idx.iter().enumerate() {
                    let r = r as usize;
                    assert!(r < rows, "gather index {r} out of {rows} rows");
                    bf16_decode_slice(
                        &bits[r * cols..(r + 1) * cols],
                        &mut dst[i * cols..(i + 1) * cols],
                    );
                }
            }
        }
    }

    /// Diagnostic name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar count across all parameters (model size).
    pub fn total_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// Total payload bytes across all parameters — 4/scalar for f32
    /// entries, 2/scalar for bf16. The memory benchmark reports this to
    /// show the bf16 table halving.
    pub fn param_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match &e.value {
                Storage::F32(m) => m.len() * 4,
                Storage::Bf16 { bits, .. } => bits.len() * 2,
            })
            .sum()
    }

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// True if any parameter contains NaN/Inf (training health check).
    pub fn any_non_finite(&self) -> bool {
        self.entries.iter().any(|e| match &e.value {
            Storage::F32(m) => m.has_non_finite(),
            Storage::Bf16 { bits, .. } => bits.iter().any(|&h| !bf16_decode(h).is_finite()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.create("w1", Matrix::zeros(2, 3));
        let b = s.create("w2", Matrix::full(1, 4, 2.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.value(a).shape(), (2, 3));
        assert_eq!(s.value(b).get(0, 0), 2.0);
        assert_eq!(s.name(a), "w1");
        assert_eq!(s.total_scalars(), 10);
        assert_eq!(s.precision(a), Precision::F32);
        assert_eq!(s.param_bytes(), 40);
    }

    #[test]
    fn mutation_via_handle() {
        let mut s = ParamStore::new();
        let a = s.create("w", Matrix::zeros(1, 1));
        s.value_mut(a).set(0, 0, 5.0);
        assert_eq!(s.value(a).item(), 5.0);
    }

    #[test]
    fn non_finite_detector() {
        let mut s = ParamStore::new();
        let a = s.create("w", Matrix::zeros(1, 2));
        assert!(!s.any_non_finite());
        s.value_mut(a).set(0, 1, f32::NAN);
        assert!(s.any_non_finite());
        // The detector must survive the bf16 round trip too.
        s.set_precision(a, Precision::Bf16);
        assert!(s.any_non_finite());
    }

    #[test]
    fn bf16_conversion_halves_bytes_and_bounds_error() {
        let mut s = ParamStore::new();
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.37).collect();
        let a = s.create("table", Matrix::from_vec(8, 8, vals.clone()));
        assert_eq!(s.param_bytes(), 64 * 4);
        s.set_precision(a, Precision::Bf16);
        assert_eq!(s.precision(a), Precision::Bf16);
        assert_eq!(s.param_bytes(), 64 * 2);
        assert_eq!(s.shape(a), (8, 8));
        let dec = s.decode_f32(a);
        for (d, &x) in dec.as_slice().iter().zip(&vals) {
            assert!((d - x).abs() <= x.abs() / 256.0 + 1e-30, "{d} vs {x}");
        }
        // Converting back to f32 is exact w.r.t. the rounded values.
        s.set_precision(a, Precision::F32);
        assert_eq!(s.value(a).as_slice(), dec.as_slice());
    }

    #[test]
    fn gather_decodes_only_requested_rows() {
        let mut s = ParamStore::new();
        let vals: Vec<f32> = (0..12).map(|i| i as f32 * 1.25).collect();
        let a = s.create("t", Matrix::from_vec(4, 3, vals));
        let mut out_f32 = Matrix::zeros(3, 3);
        s.gather_rows_f32(a, &[2, 0, 2], &mut out_f32);
        assert_eq!(out_f32.row(0), s.value(a).row(2));
        assert_eq!(out_f32.row(1), s.value(a).row(0));
        s.set_precision(a, Precision::Bf16);
        let mut out_bf = Matrix::zeros(3, 3);
        s.gather_rows_f32(a, &[2, 0, 2], &mut out_bf);
        let dec = s.decode_f32(a);
        assert_eq!(out_bf.row(0), dec.row(2));
        assert_eq!(out_bf.row(1), dec.row(0));
        assert_eq!(out_bf.row(0), out_bf.row(2));
    }

    #[test]
    #[should_panic(expected = "stored bf16")]
    fn borrowing_a_bf16_param_panics() {
        let mut s = ParamStore::new();
        let a = s.create("t", Matrix::zeros(2, 2));
        s.set_precision(a, Precision::Bf16);
        let _ = s.value(a);
    }

    #[test]
    fn encode_from_f32_respects_storage() {
        let mut s = ParamStore::new();
        let a = s.create("t", Matrix::zeros(1, 2));
        s.set_precision(a, Precision::Bf16);
        s.encode_from_f32(a, &Matrix::from_vec(1, 2, vec![1.0, 0.1]));
        let dec = s.decode_f32(a);
        assert_eq!(dec.get(0, 0), 1.0); // exact in bf16
        assert!((dec.get(0, 1) - 0.1).abs() <= 0.1 / 256.0); // rounded
    }
}
