//! Model checkpointing: save/load a trained TGAE as JSON.
//!
//! Everything a model needs to regenerate graphs — config, parameter
//! store, layer wiring — is serde-serialisable, so a checkpoint is a
//! single self-describing file. JSON is chosen over a binary format
//! because checkpoints at TGAE's scale are small (the biggest tensors are
//! the `n x d` embedding/decoder tables) and diffable.

use crate::model::Tgae;
use std::io::BufReader;
use std::path::Path;
use tg_tensor::nn::Embedding;

/// Errors produced by checkpoint I/O.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error (missing path, permissions, short write, …).
    Io(std::io::Error),
    /// JSON (de)serialisation error (corrupt or incompatible checkpoint).
    Codec(serde_json::Error),
    /// The checkpoint decoded, but its declared shape disagrees with its
    /// own parameter tables.
    Shape(String),
    /// The checkpoint decoded, but a parameter holds a NaN or an infinity
    /// (a JSON number past `f32`'s range, such as `1e999`, reads as one).
    NonFinite(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint io error: {e}"),
            PersistError::Codec(e) => write!(f, "checkpoint codec error: {e}"),
            PersistError::Shape(msg) => write!(f, "checkpoint shape error: {msg}"),
            PersistError::NonFinite(msg) => write!(f, "checkpoint value error: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Codec(e)
    }
}

/// Write any serialisable document as JSON (the shared primitive behind
/// model checkpoints and the session's [`TrainCheckpoint`]s).
///
/// The write is atomic: bytes land in a tmp sibling that is fsynced and
/// renamed over `path`, so a crash mid-save can tear the tmp file but
/// never the previous checkpoint at `path`.
///
/// [`TrainCheckpoint`]: crate::trainer::TrainCheckpoint
pub fn save_json<T: serde::Serialize>(
    value: &T,
    path: impl AsRef<Path>,
) -> Result<(), PersistError> {
    let bytes = serde_json::to_string(value)?.into_bytes();
    tg_graph::io::atomic_write_bytes(path, &bytes)?;
    Ok(())
}

/// Read a JSON document written by [`save_json`].
pub fn load_json<T: serde::Deserialize>(path: impl AsRef<Path>) -> Result<T, PersistError> {
    let f = std::fs::File::open(path)?;
    Ok(serde_json::from_reader(BufReader::new(f))?)
}

/// Write a model checkpoint.
pub fn save(model: &Tgae, path: impl AsRef<Path>) -> Result<(), PersistError> {
    save_json(model, path)
}

/// Load a model checkpoint. A model whose `n_nodes` / `n_timestamps`
/// differ from the row counts of its node and time embedding tables, or
/// with a non-finite parameter, is refused ([`check_shape`]), so a caller
/// may size other inputs by the model's shape and generate from it.
pub fn load(path: impl AsRef<Path>) -> Result<Tgae, PersistError> {
    let model: Tgae = load_json(path)?;
    check_shape(&model)?;
    Ok(model)
}

/// Refuse a model whose `n_nodes` / `n_timestamps` differ from the row
/// counts of its node and time embedding tables, or a parameter of which
/// holds a NaN or an infinity.
pub fn check_shape(model: &Tgae) -> Result<(), PersistError> {
    let store = &model.store;
    if store.any_non_finite() {
        let names: Vec<&str> = store
            .ids()
            .filter(|&id| store.value(id).has_non_finite())
            .map(|id| store.name(id))
            .collect();
        return Err(PersistError::NonFinite(format!(
            "parameter {} holds a NaN or an infinity",
            names.join(", ")
        )));
    }
    let rows = |emb: &Embedding| {
        let table = model.store.ids().find(|&id| id == emb.table)?;
        Some(model.store.value(table).rows())
    };
    let (node_rows, time_rows) = (
        rows(&model.features.node_emb),
        rows(&model.features.time_emb),
    );
    if node_rows != Some(model.n_nodes) || time_rows != Some(model.n_timestamps) {
        return Err(PersistError::Shape(format!(
            "model declares {} nodes x {} timestamps, its embedding tables hold {node_rows:?} x {time_rows:?} rows",
            model.n_nodes, model.n_timestamps
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TgaeConfig;
    use crate::shared::SharedRun;
    use crate::trainer::{train_loop, LoopHooks};
    use tg_graph::{TemporalEdge, TemporalGraph};

    fn toy() -> TemporalGraph {
        let edges: Vec<TemporalEdge> = (0..12)
            .map(|i| TemporalEdge::new(i % 4, (i + 1) % 4, i % 3))
            .collect();
        TemporalGraph::from_edges(4, 3, edges)
    }

    #[test]
    fn save_load_roundtrip_preserves_generation() {
        let g = toy();
        let mut cfg = TgaeConfig::tiny();
        cfg.epochs = 4;
        let mut model = Tgae::new(g.n_nodes(), g.n_timestamps(), cfg);
        train_loop(&mut model, &g, LoopHooks::none()).expect("train");
        let dir = std::env::temp_dir().join("tgae_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        save(&model, &path).expect("save");
        let restored = load(&path).expect("load");
        assert_eq!(restored.n_nodes, model.n_nodes);
        assert_eq!(restored.n_parameters(), model.n_parameters());
        let simulate = |m: Tgae| SharedRun::new(m, g.clone()).unwrap().simulate(1).unwrap();
        assert_eq!(simulate(model).edges(), simulate(restored).edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let Err(err) = load("/definitely/not/a/path.json") else {
            panic!("expected error")
        };
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.to_string().contains("io error"));
    }

    #[test]
    fn load_refuses_a_shape_its_tables_do_not_have() {
        let dir = std::env::temp_dir().join(format!("tgae_ckpt_shape_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let model = Tgae::new(4, 3, TgaeConfig::tiny());
        for (n_nodes, n_timestamps) in [(4, 1 << 40), (1 << 40, 3), (5, 3)] {
            let mut lying = model.clone();
            lying.n_nodes = n_nodes;
            lying.n_timestamps = n_timestamps;
            save(&lying, &path).expect("save");
            let Err(err) = load(&path) else {
                panic!("loaded a {n_nodes}x{n_timestamps} model over 4x3 tables")
            };
            assert!(matches!(err, PersistError::Shape(_)), "{err}");
        }
        save(&model, &path).expect("save");
        load(&path).expect("the true shape loads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_garbage_errors() {
        let dir = std::env::temp_dir().join("tgae_ckpt_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"{not json").unwrap();
        let Err(err) = load(&path) else {
            panic!("expected error")
        };
        assert!(matches!(err, PersistError::Codec(_)));
        std::fs::remove_file(&path).ok();
    }
}
