//! Parameter storage shared by models and optimizers.
//!
//! A [`ParamStore`] owns every trainable matrix of a model. Layers hold
//! [`ParamId`] handles; each forward pass copies the current values onto the
//! [`crate::tape::Tape`] as leaves, and the optimizer applies gradients back
//! into the store. The store serialises with `serde`, which is how trained
//! models are checkpointed.
//!
//! A parameter is a named f32 [`Matrix`] and nothing else: table memory
//! is bounded by `(n + T)·d` scalars (the paper's §IV argument), and a
//! step pays for the rows it gathers, not for the width of a scalar
//! (`docs/ARCHITECTURE.md`, "Why parameters are stored f32 only").

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

#[derive(Clone, Serialize, Deserialize)]
struct Entry {
    name: String,
    value: Matrix,
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
    pub fn create(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.entries.push(Entry {
            name: name.into(),
            value,
        });
        ParamId(self.entries.len() - 1)
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0].value
    }

    /// Mutable access to a parameter (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0].value
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

    /// Iterate over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// True if any parameter contains NaN/Inf (training health check).
    pub fn any_non_finite(&self) -> bool {
        self.entries.iter().any(|e| e.value.has_non_finite())
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
    }

    /// `model.json`'s parameter layout: an entry's `value` is the matrix
    /// itself, with no enum tag around it.
    #[test]
    fn serde_round_trip_pins_the_entry_layout() {
        let mut s = ParamStore::new();
        let a = s.create("w", Matrix::from_vec(1, 2, vec![0.5, -2.0]));
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            r#"{"entries":[{"name":"w","value":{"rows":1,"cols":2,"data":[0.5,-2.0]}}]}"#
        );
        let back: ParamStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name(a), "w");
        assert_eq!(back.value(a), s.value(a));
    }
}
