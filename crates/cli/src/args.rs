//! Tiny argument parser: `<subcommand> [--key value | --flag] [positional…]`.
//!
//! No external parser crates are available offline, and the surface is
//! small enough that a hand-rolled `--key value` scanner beats carrying a
//! vendored clap. Flags without values are recorded as booleans;
//! everything not starting with `--` is positional. Every way a command
//! line can be wrong is decided here, as a [`CliError::Usage`] (exit 2).

use crate::errors::CliError;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::str::FromStr;

/// Parsed command line: subcommand, `--key value` pairs, `--flag`s, and
/// positional operands, in order.
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: BTreeSet<String>,
    positional: Vec<String>,
    used: RefCell<BTreeSet<String>>,
    operands_read: Cell<bool>,
}

/// Option keys that take a value; everything else starting with `--` is a
/// boolean flag. Keeping this list explicit makes `--verify model.json`
/// parse as flag + positional instead of silently eating the operand.
const VALUE_KEYS: &[&str] = &[
    "run-dir",
    "preset",
    "scale",
    "data-seed",
    "edges",
    "buckets",
    "epochs",
    "batch-centers",
    "seed",
    "checkpoint-every",
    "master",
    "out",
    "generated",
    "observed",
    "n-nodes",
    "n-timestamps",
    "store",
    "block-edges",
    "checkpoint-keep",
    "salvage",
    "root",
    "addr",
    "socket",
    "cache",
    "max-cost",
    "run-id",
];

impl Args {
    /// Parse everything after the subcommand.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut flags = BTreeSet::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                if VALUE_KEYS.contains(&key) {
                    let val = argv
                        .get(i + 1)
                        .ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?;
                    pairs.push((key.to_string(), val.clone()));
                    i += 2;
                } else {
                    flags.insert(key.to_string());
                    i += 1;
                }
            } else {
                positional.push(argv[i].clone());
                i += 1;
            }
        }
        Ok(Args {
            pairs,
            flags,
            positional,
            used: RefCell::new(BTreeSet::new()),
            operands_read: Cell::new(false),
        })
    }

    /// Last value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.used.borrow_mut().insert(key.to_string());
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Value of `--key`, parsed, if given: the one place a value is parsed.
    pub fn get_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        let bad = |v: &str| CliError::Usage(format!("--{key}: cannot parse `{v}`"));
        let parsed = self.get(key).map(|v| v.parse().map_err(|_| bad(v)));
        parsed.transpose()
    }

    /// Value of `--key`, parsed, or `default`.
    pub fn get_parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// Value of `--key`, parsed, required.
    pub fn require<T: FromStr>(&self, key: &str) -> Result<T, CliError> {
        self.get_opt(key)?
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    /// Whether `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.used.borrow_mut().insert(name.to_string());
        self.flags.contains(name)
    }

    /// Positional operands, in order.
    pub fn positional(&self) -> &[String] {
        self.operands_read.set(true);
        &self.positional
    }

    /// Refuse any `--option` this subcommand never looked at (catches
    /// typos like `--epoch 2` for `--epochs 2`), and any operand if it
    /// read none. Every subcommand calls this before its first side
    /// effect, so a refused command line has written nothing.
    pub fn reject_unused(&self) -> Result<(), CliError> {
        let used = self.used.borrow();
        let options = self.pairs.iter().map(|(k, _)| k).chain(&self.flags);
        let mut unread: Vec<String> = options
            .filter(|k| !used.contains(*k))
            .map(|k| format!("--{k}"))
            .collect();
        if !self.operands_read.get() {
            unread.extend(self.positional.iter().cloned());
        }
        if unread.is_empty() {
            return Ok(());
        }
        let msg = format!("unknown argument(s): {}", unread.join(", "));
        Err(CliError::Usage(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn pairs_flags_and_positionals() {
        let a = Args::parse(&argv(&[
            "--run-dir",
            "/tmp/r",
            "--verify",
            "a.edges",
            "b.edges",
            "--epochs",
            "2",
        ]))
        .unwrap();
        assert_eq!(a.get("run-dir"), Some("/tmp/r"));
        assert!(a.flag("verify"));
        assert!(!a.flag("stats"));
        assert_eq!(a.get_parsed("epochs", 1usize).unwrap(), 2);
        assert_eq!(a.positional(), &["a.edges".to_string(), "b.edges".into()]);
        a.reject_unused().unwrap();
    }

    #[test]
    fn missing_value_and_unknown_key_error() {
        assert!(Args::parse(&argv(&["--run-dir"])).is_err());
        let a = Args::parse(&argv(&["--epochs", "2", "--bogus"])).unwrap();
        assert_eq!(a.get_parsed("epochs", 1usize).unwrap(), 2);
        let err = a.reject_unused().unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn require_and_parse_errors() {
        let a = Args::parse(&argv(&["--epochs", "two"])).unwrap();
        assert!(a.get_parsed("epochs", 1usize).is_err());
        assert!(a.require::<usize>("master").is_err());
    }
}
