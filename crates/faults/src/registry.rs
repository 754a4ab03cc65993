//! The declared fault points.
//!
//! A fault point is a `pub const` of [`FaultPoint`] in this module, and
//! [`FaultPoint`]'s field is private, so this file is the only place one
//! can be made: `fail_point!` / [`crate::eval`] / [`crate::arm`] take
//! `&FaultPoint`, and an undeclared or misspelt point does not compile.
//!
//! ```compile_fail
//! // no constructor outside `tg_faults::registry`
//! let forged = tg_faults::registry::FaultPoint { name: "store.write.block" };
//! ```
//!
//! What a compiler cannot see is checked where it can be: a `TG_FAULTS`
//! entry is matched against [`FAULT_POINTS`] when the variable is read
//! and an unknown name is reported like any other malformed entry, and
//! `tests/liveness.rs` fails when a point declared here is no longer
//! named by any other crate.
//!
//! The table is data, not behavior — it compiles identically with and
//! without the `enabled` feature.

/// One declared fault point. Only this module can build one.
#[derive(Debug)]
pub struct FaultPoint {
    name: &'static str,
}

impl FaultPoint {
    /// The point's wire name: the left-hand side of a `TG_FAULTS` entry
    /// and the `point` of a [`crate::FaultError`].
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// A throwaway point for this crate's unit tests of the machinery.
    #[cfg(test)]
    pub(crate) const fn fixture(name: &'static str) -> FaultPoint {
        FaultPoint { name }
    }
}

/// Declares each point as a `pub const` named after its wire name
/// (`store.write.block` → `STORE_WRITE_BLOCK`, the spelling
/// `tests/liveness.rs` looks for) and lists them all in [`FAULT_POINTS`].
macro_rules! fault_points {
    ($($(#[$doc:meta])* $ident:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $ident: FaultPoint = FaultPoint { name: $name };)*

        /// Every declared point, sorted by name: what `TG_FAULTS` may arm.
        pub const FAULT_POINTS: &[&FaultPoint] = &[$(&$ident),*];
    };
}

fault_points! {
    /// Wraps the trace-buffer flush in `tgx-cli` before a traced process
    /// exits (arg: trace file path). Telemetry is best-effort by
    /// contract: a trigger here must cost at most the trace, never the
    /// run's exit status.
    OBS_FLUSH = "obs.flush";
    /// Inside the atomic byte-buffer writer after a partial prefix of the
    /// payload has been written to the tmp sibling (arg: destination
    /// path). Proves torn writes never replace a good generation.
    PERSIST_ATOMIC_PARTIAL = "persist.atomic.partial";
    /// At the start of every atomic commit (JSON artifacts, edge lists,
    /// TGES stores), before the tmp sibling is created (arg: destination
    /// path).
    PERSIST_ATOMIC_START = "persist.atomic.start";
    /// After the tmp sibling is fully written and fsynced but before the
    /// rename commit (arg: destination path, e.g. the `.tgs` file of a
    /// store). Proves the commit point is the rename.
    PERSIST_ATOMIC_UNRENAMED = "persist.atomic.unrenamed";
    /// Evaluated once per accepted connection in the tg-serve accept
    /// loop; a trigger drops that one connection without taking the
    /// daemon down.
    SERVE_ACCEPT = "serve.accept";
    /// Evaluated per generation work unit while streaming a served
    /// simulation (arg: `t:<t> chunk:<c>`). A panic here must be
    /// contained to a typed `internal` error frame.
    SERVE_GENERATE_UNIT = "serve.generate.unit";
    /// Evaluated per decoded request frame (arg: the frame's op). Proves
    /// malformed/poisoned requests answer a typed error on the same
    /// connection.
    SERVE_REQUEST_DECODE = "serve.request.decode";
    /// Evaluated while assembling a `status` report in tg-serve. Proves
    /// an introspection failure answers a typed `internal` error frame on
    /// the same connection without taking the daemon or its data-plane
    /// requests down.
    SERVE_STATUS = "serve.status";
    /// Before each SoA block read in the TGES reader (arg: `block:<k>`).
    STORE_READ_BLOCK = "store.read.block";
    /// Before each SoA block flush in the TGES writer (arg: `block:<k>`).
    STORE_WRITE_BLOCK = "store.write.block";
    /// Wraps each rotating training-checkpoint write (arg: checkpoint
    /// path). Pairs with `persist.atomic.*` to prove resume falls back
    /// across generations.
    TRAIN_CHECKPOINT_WRITE = "train.checkpoint.write";
}

/// Fixtures for this crate's unit test of `fail_point!`, which resolves
/// its argument in this module. They are not in [`FAULT_POINTS`], so
/// `TG_FAULTS` cannot arm them.
#[cfg(test)]
pub(crate) const T_MACRO: FaultPoint = FaultPoint::fixture("t.macro");
#[cfg(test)]
pub(crate) const T_MACRO_ARG: FaultPoint = FaultPoint::fixture("t.macro.arg");

/// Look up a declared fault point by its exact wire name.
pub fn lookup(name: &str) -> Option<&'static FaultPoint> {
    FAULT_POINTS
        .binary_search_by(|p| p.name.cmp(name))
        .ok()
        .map(|i| FAULT_POINTS[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        for w in FAULT_POINTS.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "registry must stay sorted/unique: `{}` >= `{}`",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn lookup_finds_every_entry_and_rejects_strangers() {
        for p in FAULT_POINTS {
            let hit = lookup(p.name).expect("registered point must resolve");
            assert_eq!(hit.name, p.name);
        }
        assert!(lookup("no.such.point").is_none());
        assert!(lookup("").is_none());
    }

    #[test]
    fn scopes_are_as_declared() {
        // a test fixture is not in the table, a production point is
        assert!(lookup(T_MACRO.name).is_none());
        assert!(lookup(T_MACRO_ARG.name).is_none());
        assert!(lookup(STORE_WRITE_BLOCK.name).is_some());
    }
}
