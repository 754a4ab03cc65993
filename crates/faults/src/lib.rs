#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]
//! `tg-faults`: deterministic fault injection for the tgx workspace.
//!
//! Long-lived pipelines need to *prove* their failure handling, not just
//! claim it. This crate provides `fail`-crate-style **fault points** —
//! named places in the code where a test or a CI job can deterministically
//! inject an error, a panic, a hang, or a process death:
//!
//! ```ignore
//! fn flush_block(&mut self) -> Result<(), StoreError> {
//!     tg_faults::fail_point!(STORE_WRITE_BLOCK);
//!     // ... the real work ...
//! }
//! ```
//!
//! Every point is a constant declared in [`registry`]; a name that is
//! not declared there does not compile.
//!
//! # Zero cost when disabled
//!
//! The `enabled` cargo feature gates the whole machinery. Without it,
//! [`eval`] / [`eval_lazy`] are `#[inline(always)]` stubs returning
//! `Ok(())`, so every `fail_point!` folds to nothing under optimization —
//! no branch, no atomic load, and (for the lazy-argument form) not even
//! the argument's construction. `tgx-cli` turns the feature on by
//! default; library consumers and benchmarks that don't, pay nothing.
//!
//! # Activating points
//!
//! Points are configured for the whole process from the `TG_FAULTS`
//! environment variable (read once, at the first evaluation), or for one
//! thread of a test with [`arm`], whose guard disarms the point when it
//! drops. The spec grammar is `point=action[,modifier=value]*` entries
//! separated by `;`, where `point` is a declared point's wire name — an
//! entry that is malformed or names a point [`registry`] does not declare
//! is reported on stderr and arms nothing:
//!
//! ```text
//! TG_FAULTS="persist.atomic.unrenamed=exit:33,arg=simulated.edges;store.write.block=err,after=2"
//! ```
//!
//! Actions: `off`, `err`, `panic`, `abort`, `exit:CODE`, `sleep:MILLIS`.
//! Modifiers:
//!
//! - `after=N` — skip the first `N` matching evaluations;
//! - `max=N` — trigger at most `N` times in this process;
//! - `arg=SUBSTR` — only match evaluations whose call-site argument
//!   contains `SUBSTR` (e.g. `arg=block:3` to target one store block).

pub mod registry;

use registry::FaultPoint;
#[cfg(feature = "enabled")]
use std::sync::atomic::Ordering;

/// The error a triggered `err` fault point returns through `?`.
///
/// Converts into `std::io::Error` and `String`, so fault points drop into
/// functions returning either without per-crate glue (store/core/graph
/// errors add their own `From` impls on top of the `io::Error` one).
#[derive(Debug, Clone)]
pub struct FaultError {
    /// Name of the fault point that fired.
    pub point: String,
    /// The call-site argument at the firing evaluation, if any.
    pub arg: Option<String>,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "injected fault at `{}` ({a})", self.point),
            None => write!(f, "injected fault at `{}`", self.point),
        }
    }
}

impl std::error::Error for FaultError {}

impl From<FaultError> for std::io::Error {
    fn from(e: FaultError) -> Self {
        std::io::Error::other(e)
    }
}

impl From<FaultError> for String {
    fn from(e: FaultError) -> Self {
        e.to_string()
    }
}

/// Evaluate a fault point, named by its constant in [`registry`].
/// Expands to an [`eval`]/[`eval_lazy`] call followed by `?`, so the
/// enclosing function's error type must implement `From<FaultError>`
/// (directly, or via `From<std::io::Error>`).
///
/// ```ignore
/// tg_faults::fail_point!(STORE_WRITE_BLOCK);
/// tg_faults::fail_point!(STORE_WRITE_BLOCK, format!("block:{k}"));
/// ```
///
/// The two-argument form takes anything `String: From<T>`; the argument
/// expression is **not evaluated** in disabled builds.
#[macro_export]
macro_rules! fail_point {
    ($point:ident) => {
        $crate::eval(&$crate::registry::$point, ::std::option::Option::None)?
    };
    ($point:ident, $arg:expr) => {
        $crate::eval_lazy(&$crate::registry::$point, || {
            ::std::string::String::from($arg)
        })?
    };
}

/// RAII guard of an [`arm`]ed fault point: the point is disarmed when the
/// guard drops, on a normal return and on an unwinding panic alike.
#[derive(Debug)]
#[must_use = "the point is disarmed when the guard is dropped"]
pub struct Armed {
    #[cfg(feature = "enabled")]
    point: &'static str,
    /// `!Send`: the spec lives in the arming thread's table; dropping the
    /// guard elsewhere would leave it armed there.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Whether this build carries the fault-point machinery (the `enabled`
/// cargo feature). Tests that need injection should early-return when
/// this is `false` instead of failing.
pub const fn is_compiled() -> bool {
    cfg!(feature = "enabled")
}

// ---------------------------------------------------------------------
// Disabled build: inline no-op stubs. The bodies below compile away
// entirely; `fail_point!` costs nothing on any path.
// ---------------------------------------------------------------------

/// Evaluate the fault point `point`. No-op unless the `enabled` feature
/// is on and a matching spec is active.
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn eval(_point: &FaultPoint, _arg: Option<&str>) -> Result<(), FaultError> {
    Ok(())
}

/// [`eval`] with a lazily built argument (not constructed when disabled).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn eval_lazy<F: FnOnce() -> String>(_point: &FaultPoint, _arg: F) -> Result<(), FaultError> {
    Ok(())
}

/// Arm a fault point for the calling thread. Errors in disabled builds
/// (the machinery is compiled out).
#[cfg(not(feature = "enabled"))]
pub fn arm(_point: &FaultPoint, _spec: &str) -> Result<Armed, String> {
    Err("tg-faults was compiled without the `enabled` feature".into())
}

/// Times `point` has been evaluated (0 in disabled builds).
#[cfg(not(feature = "enabled"))]
pub fn hits(_point: &FaultPoint) -> u64 {
    0
}

/// Times `point` has actually triggered its action (0 in disabled builds).
#[cfg(not(feature = "enabled"))]
pub fn triggers(_point: &FaultPoint) -> u64 {
    0
}

// ---------------------------------------------------------------------
// Enabled build: the real machinery.
// ---------------------------------------------------------------------

#[cfg(feature = "enabled")]
mod imp {
    use crate::registry::{lookup, FaultPoint};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    #[derive(Clone, Debug, PartialEq)]
    pub(super) enum Action {
        Off,
        Err,
        Panic,
        Abort,
        Exit(i32),
        Sleep(u64),
    }

    #[derive(Clone, Debug)]
    pub(super) struct PointSpec {
        pub action: Action,
        /// Maximum number of triggers.
        pub max: Option<u64>,
        /// Matching evaluations to skip before the first trigger.
        pub after: u64,
        /// Substring the call-site argument must contain to match.
        pub arg: Option<String>,
    }

    #[derive(Default)]
    pub(super) struct Registry {
        pub points: HashMap<&'static str, PointSpec>,
        /// Evaluations per point (matched or not).
        pub hits: HashMap<&'static str, u64>,
        /// Matching evaluations per point (drives `after`).
        pub matches: HashMap<&'static str, u64>,
        /// Trigger counts per point (drives `max`).
        pub triggers: HashMap<&'static str, u64>,
    }

    thread_local! {
        /// What this thread's live [`crate::Armed`] guards have armed: per
        /// point, a registry holding its spec and the counters it runs up.
        /// A point armed here is decided here, whatever `TG_FAULTS` says
        /// about it, and no other thread sees it.
        pub(super) static LOCAL: std::cell::RefCell<HashMap<&'static str, Registry>> =
            std::cell::RefCell::default();
    }

    pub(super) static ACTIVE: AtomicBool = AtomicBool::new(false);
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    pub(super) static INIT: std::sync::Once = std::sync::Once::new();

    /// The registry, locked.
    #[expect(
        clippy::expect_used,
        reason = "a thread that panicked under the lock left the counters half-updated; \
                  fault decisions made from them would not be the seeded ones"
    )]
    pub(super) fn lock() -> MutexGuard<'static, Registry> {
        REGISTRY
            .get_or_init(|| Mutex::new(Registry::default()))
            .lock()
            .expect("fault registry poisoned")
    }

    pub(super) fn parse_spec(spec: &str) -> Result<PointSpec, String> {
        let mut parts = spec.split(',').map(str::trim);
        let action_str = parts.next().ok_or("empty fault spec")?;
        let action = match action_str.split_once(':') {
            None => match action_str {
                "off" => Action::Off,
                "err" => Action::Err,
                "panic" => Action::Panic,
                "abort" => Action::Abort,
                other => return Err(format!("unknown fault action `{other}`")),
            },
            Some(("exit", code)) => Action::Exit(
                code.parse()
                    .map_err(|_| format!("bad exit code `{code}`"))?,
            ),
            Some(("sleep", ms)) => {
                Action::Sleep(ms.parse().map_err(|_| format!("bad sleep millis `{ms}`"))?)
            }
            Some((other, _)) => return Err(format!("unknown fault action `{other}`")),
        };
        let mut out = PointSpec {
            action,
            max: None,
            after: 0,
            arg: None,
        };
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("fault modifier `{part}` is not key=value"))?;
            match k {
                "max" => {
                    out.max = Some(v.parse().map_err(|_| format!("bad max `{v}`"))?);
                }
                "after" => {
                    out.after = v.parse().map_err(|_| format!("bad after `{v}`"))?;
                }
                "arg" => out.arg = Some(v.to_string()),
                other => return Err(format!("unknown fault modifier `{other}`")),
            }
        }
        Ok(out)
    }

    /// Parse one `TG_FAULTS` entry, `point=spec`, against the registry.
    pub(super) fn parse_entry(entry: &str) -> Result<(&'static FaultPoint, PointSpec), String> {
        let (name, spec) = entry
            .split_once('=')
            .ok_or("malformed entry, expected point=action")?;
        let point =
            lookup(name.trim()).ok_or_else(|| format!("unknown fault point `{}`", name.trim()))?;
        Ok((point, parse_spec(spec)?))
    }

    /// Parse a whole `TG_FAULTS` value: the points it arms, and one
    /// warning per entry it ignores. A malformed entry is ignored, and so
    /// is a later entry for a point an earlier one already armed.
    pub(super) fn parse_env(spec: &str) -> (Vec<(&'static str, PointSpec)>, Vec<String>) {
        let mut armed: Vec<(&'static str, PointSpec)> = Vec::new();
        let mut warnings = Vec::new();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let why = match parse_entry(entry) {
                Ok((point, _)) if armed.iter().any(|(name, _)| *name == point.name()) => {
                    format!("`{}` is already armed by an earlier entry", point.name())
                }
                Ok((point, ps)) => {
                    armed.push((point.name(), ps));
                    continue;
                }
                Err(e) => e,
            };
            warnings.push(format!(
                "tg-faults: ignoring TG_FAULTS entry `{entry}`: {why}"
            ));
        }
        (armed, warnings)
    }

    pub(super) fn init_from_env() {
        let mut reg = lock();
        if let Ok(spec) = std::env::var("TG_FAULTS") {
            let (armed, warnings) = parse_env(&spec);
            for warning in warnings {
                eprintln!("{warning}");
            }
            reg.points.extend(armed);
        }
        if !reg.points.is_empty() {
            ACTIVE.store(true, Ordering::Relaxed);
        }
    }
}

/// Evaluate the fault point `point` with an optional call-site argument.
/// Returns `Err(FaultError)` when an active `err` spec triggers; `panic`,
/// `abort`, `exit`, and `sleep` actions act directly.
#[cfg(feature = "enabled")]
pub fn eval(point: &FaultPoint, arg: Option<&str>) -> Result<(), FaultError> {
    use imp::*;
    INIT.call_once(init_from_env);
    if !any_armed() {
        return Ok(());
    }
    eval_active(point, arg)
}

/// [`eval`] with a lazily built argument (only constructed when some
/// fault point is active).
#[cfg(feature = "enabled")]
pub fn eval_lazy<F: FnOnce() -> String>(point: &FaultPoint, arg: F) -> Result<(), FaultError> {
    use imp::*;
    INIT.call_once(init_from_env);
    if !any_armed() {
        return Ok(());
    }
    let arg = arg();
    eval_active(point, Some(&arg))
}

/// Whether `TG_FAULTS` or one of this thread's [`Armed`] guards has any
/// point armed (the fast path of [`eval`] when nothing is).
#[cfg(feature = "enabled")]
fn any_armed() -> bool {
    imp::ACTIVE.load(Ordering::Relaxed) || imp::LOCAL.with(|l| !l.borrow().is_empty())
}

#[cfg(feature = "enabled")]
fn eval_active(point: &FaultPoint, arg: Option<&str>) -> Result<(), FaultError> {
    use imp::*;
    let point = point.name();
    // Decide under the borrow or the lock; act after releasing it (a
    // sleeping or panicking point must not wedge sibling threads'
    // evaluations, nor keep this thread's table borrowed while it unwinds).
    let local = LOCAL.with(|l| {
        l.borrow_mut()
            .get_mut(point)
            .map(|reg| decide(reg, point, arg))
    });
    let action = local.unwrap_or_else(|| decide(&mut lock(), point, arg));
    let err = FaultError {
        point: point.to_string(),
        arg: arg.map(str::to_string),
    };
    match action {
        imp::Action::Off => Ok(()),
        imp::Action::Err => Err(err),
        #[expect(
            clippy::panic,
            reason = "the `panic` action: panicking here is the feature"
        )]
        imp::Action::Panic => panic!("{err}"),
        imp::Action::Abort => {
            eprintln!("tg-faults: {err}: aborting");
            std::process::abort()
        }
        imp::Action::Exit(code) => {
            eprintln!("tg-faults: {err}: exiting with code {code}");
            std::process::exit(code)
        }
        imp::Action::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
    }
}

/// What an evaluation of `point` with `arg` does under `reg`'s spec for
/// it, counting the evaluation, the match and the trigger.
#[cfg(feature = "enabled")]
fn decide(reg: &mut imp::Registry, point: &'static str, arg: Option<&str>) -> imp::Action {
    use imp::*;
    *reg.hits.entry(point).or_insert(0) += 1;
    let Some(spec) = reg.points.get(point).cloned() else {
        return Action::Off;
    };
    if spec.action == Action::Off {
        return Action::Off;
    }
    if let Some(filter) = &spec.arg {
        if !arg.is_some_and(|a| a.contains(filter.as_str())) {
            return Action::Off;
        }
    }
    let match_idx = {
        let c = reg.matches.entry(point).or_insert(0);
        let idx = *c;
        *c += 1;
        idx
    };
    if match_idx < spec.after {
        return Action::Off;
    }
    let fired = reg.triggers.entry(point).or_insert(0);
    if spec.max.is_some_and(|max| *fired >= max) {
        return Action::Off;
    }
    *fired += 1;
    spec.action
}

/// Arm `point` with `spec` on the calling thread until the returned guard
/// drops, e.g. `let _armed = arm(&registry::STORE_WRITE_BLOCK, "err,max=1")?;`.
///
/// Only evaluations made by this thread see the spec, so tests running
/// side by side in one process cannot trip each other's points; a `max=`
/// budget is counted in memory.
/// Arming a point this thread has already armed replaces its spec, and
/// the first of the two guards to drop disarms it.
#[cfg(feature = "enabled")]
pub fn arm(point: &FaultPoint, spec: &str) -> Result<Armed, String> {
    use imp::*;
    let parsed = parse_spec(spec)?;
    let point = point.name();
    let reg = Registry {
        points: [(point, parsed)].into(),
        ..Registry::default()
    };
    LOCAL.with(|l| l.borrow_mut().insert(point, reg));
    Ok(Armed {
        point,
        _not_send: std::marker::PhantomData,
    })
}

#[cfg(feature = "enabled")]
impl Drop for Armed {
    fn drop(&mut self) {
        // `try_with`: a guard dropped while the thread's locals are being
        // torn down has nothing left to disarm
        let _ = imp::LOCAL.try_with(|l| l.borrow_mut().remove(self.point));
    }
}

/// Times `point` has been evaluated since process start (matched or not).
#[cfg(feature = "enabled")]
pub fn hits(point: &FaultPoint) -> u64 {
    imp::lock().hits.get(point.name()).copied().unwrap_or(0)
}

/// Times `point` has actually triggered its action in this process.
#[cfg(feature = "enabled")]
pub fn triggers(point: &FaultPoint) -> u64 {
    imp::lock().triggers.get(point.name()).copied().unwrap_or(0)
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    const ELSEWHERE: FaultPoint = FaultPoint::fixture("elsewhere");
    const NOTHING_SET: FaultPoint = FaultPoint::fixture("nothing.set");
    const T_ARG: FaultPoint = FaultPoint::fixture("t.arg");
    const T_BUDGET: FaultPoint = FaultPoint::fixture("t.budget");
    const T_ERR: FaultPoint = FaultPoint::fixture("t.err");
    const X: FaultPoint = FaultPoint::fixture("x");

    // `TG_FAULTS` arms a process-global table; these tests fill it the way
    // `init_from_env` does, so they serialize on a lock and clear() between
    // scenarios.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn set(point: &FaultPoint, spec: &str) -> Result<(), String> {
        let parsed = imp::parse_spec(spec)?;
        imp::lock().points.insert(point.name(), parsed);
        imp::ACTIVE.store(true, Ordering::Relaxed);
        Ok(())
    }

    fn remove(point: &FaultPoint) {
        imp::lock().points.remove(point.name());
    }

    /// Disarm every point and reset all counters.
    fn clear() {
        let mut reg = imp::lock();
        reg.points.clear();
        reg.hits.clear();
        reg.matches.clear();
        reg.triggers.clear();
        imp::ACTIVE.store(false, Ordering::Relaxed);
    }

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        // read the environment now, not in the middle of a scenario
        imp::INIT.call_once(imp::init_from_env);
        clear();
        g
    }

    #[test]
    fn inactive_points_are_ok() {
        let _g = locked();
        // nothing configured: the fast path skips even hit counting
        assert!(eval(&NOTHING_SET, None).is_ok());
        assert_eq!(hits(&NOTHING_SET), 0);
        // once any point is active, unmatched points are counted but inert
        set(&ELSEWHERE, "err").unwrap();
        assert!(eval(&NOTHING_SET, None).is_ok());
        assert_eq!(hits(&NOTHING_SET), 1);
        assert_eq!(triggers(&NOTHING_SET), 0);
    }

    #[test]
    fn err_action_fires_and_counts() {
        let _g = locked();
        set(&T_ERR, "err").unwrap();
        let e = eval(&T_ERR, None).unwrap_err();
        assert!(e.to_string().contains("t.err"));
        assert_eq!(triggers(&T_ERR), 1);
        remove(&T_ERR);
        assert!(eval(&T_ERR, None).is_ok());
    }

    #[test]
    fn max_and_after_budgets() {
        let _g = locked();
        set(&T_BUDGET, "err,after=2,max=1").unwrap();
        assert!(eval(&T_BUDGET, None).is_ok());
        assert!(eval(&T_BUDGET, None).is_ok());
        assert!(eval(&T_BUDGET, None).is_err()); // third matching eval
        assert!(eval(&T_BUDGET, None).is_ok()); // budget exhausted
        assert_eq!(triggers(&T_BUDGET), 1);
        assert_eq!(hits(&T_BUDGET), 4);
    }

    #[test]
    fn arg_filter_matches_substring() {
        let _g = locked();
        set(&T_ARG, "err,arg=shard:1").unwrap();
        assert!(eval(&T_ARG, Some("shard:0")).is_ok());
        assert!(eval(&T_ARG, None).is_ok());
        assert!(eval(&T_ARG, Some("shard:1")).is_err());
        assert!(eval_lazy(&T_ARG, || "shard:12".to_string()).is_err());
    }

    #[test]
    fn spec_parse_errors_are_loud() {
        let _g = locked();
        assert!(set(&X, "explode").is_err());
        assert_eq!(
            set(&X, "err,p=0.5").unwrap_err(),
            "unknown fault modifier `p`"
        );
        assert!(set(&X, "exit:nope").is_err());
        assert!(set(&X, "err,bogus=1").is_err());
        assert!(set(&X, "sleep:10,arg=a,max=2,after=1").is_ok());
    }

    #[test]
    fn env_entries_are_checked_against_the_registry() {
        let (point, spec) = imp::parse_entry("store.write.block=abort,arg=block:1,max=1").unwrap();
        assert_eq!(point.name(), "store.write.block");
        assert_eq!(spec.action, imp::Action::Abort);
        // a name the table does not know is reported, not armed
        let e = imp::parse_entry("store.write.blokc=abort").unwrap_err();
        assert_eq!(e, "unknown fault point `store.write.blokc`");
        // ... and so are this crate's own test fixtures
        assert!(imp::parse_entry("t.macro=err").is_err());
        assert!(imp::parse_entry("store.write.block")
            .unwrap_err()
            .contains("malformed"));
        assert!(imp::parse_entry("store.write.block=explode").is_err());
    }

    #[test]
    fn a_repeated_env_point_keeps_its_first_entry_and_warns() {
        let (armed, warnings) = imp::parse_env(
            "store.write.block=err,arg=x; store.write.blokc=err;\
             store.write.block=err,arg=y;;persist.atomic.start=panic",
        );
        let names: Vec<&str> = armed.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["store.write.block", "persist.atomic.start"]);
        assert_eq!(armed[0].1.arg.as_deref(), Some("x"));
        assert_eq!(
            warnings,
            [
                "tg-faults: ignoring TG_FAULTS entry `store.write.blokc=err`: \
                 unknown fault point `store.write.blokc`",
                "tg-faults: ignoring TG_FAULTS entry `store.write.block=err,arg=y`: \
                 `store.write.block` is already armed by an earlier entry",
            ]
        );
    }

    #[test]
    fn fail_point_macro_compiles_both_forms() {
        let _g = locked();
        fn f() -> Result<(), String> {
            fail_point!(T_MACRO);
            fail_point!(T_MACRO_ARG, format!("x:{}", 1));
            Ok(())
        }
        assert!(f().is_ok());
        set(&registry::T_MACRO_ARG, "err,arg=x:1").unwrap();
        assert!(f().unwrap_err().contains("t.macro.arg"));
    }

    const T_GUARD: FaultPoint = FaultPoint::fixture("t.guard");

    #[test]
    fn arm_is_scoped_to_the_guard_and_survives_a_panic() {
        let caught = std::panic::catch_unwind(|| {
            let _armed = arm(&T_GUARD, "err").unwrap();
            assert!(eval(&T_GUARD, None).is_err());
            panic!("unwinding past the guard");
        });
        assert!(caught.is_err());
        assert!(eval(&T_GUARD, None).is_ok());
        assert!(arm(&T_GUARD, "explode").is_err());
    }

    #[test]
    fn arm_is_invisible_to_a_sibling_thread() {
        let _armed = arm(&T_GUARD, "err").unwrap();
        let (armed_tx, armed_rx) = std::sync::mpsc::channel();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let sibling = std::thread::spawn(move || {
            // evaluate only once the main thread is known to hold the guard
            armed_rx.recv().unwrap();
            seen_tx.send(eval(&T_GUARD, None).is_ok()).unwrap();
        });
        assert!(eval(&T_GUARD, None).is_err());
        armed_tx.send(()).unwrap();
        assert!(
            seen_rx.recv().unwrap(),
            "a sibling thread saw the armed point"
        );
        sibling.join().unwrap();
        assert!(eval(&T_GUARD, None).is_err());
    }
}
