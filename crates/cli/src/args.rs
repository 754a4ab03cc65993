//! Tiny argument parser: `<subcommand> [--key value | --flag] [positional…]`.
//!
//! No external parser crates are available offline, and the surface is
//! small enough that a hand-rolled `--key value` scanner beats carrying a
//! vendored clap. Flags without values are recorded as booleans;
//! everything not starting with `--` is positional.

use std::collections::BTreeSet;

/// Parsed command line: subcommand, `--key value` pairs, `--flag`s, and
/// positional operands, in order.
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: BTreeSet<String>,
    positional: Vec<String>,
    used: std::cell::RefCell<BTreeSet<String>>,
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
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut flags = BTreeSet::new();
        let mut positional = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                if VALUE_KEYS.contains(&key) {
                    let val = argv
                        .get(i + 1)
                        .ok_or_else(|| format!("--{key} needs a value"))?;
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
            used: std::cell::RefCell::new(BTreeSet::new()),
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

    /// Value of `--key`, parsed, or `default`.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// Value of `--key`, parsed, required.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self
            .get(key)
            .ok_or_else(|| format!("--{key} is required"))?;
        v.parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`"))
    }

    /// Whether `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.used.borrow_mut().insert(name.to_string());
        self.flags.contains(name)
    }

    /// Positional operands, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Error on any `--option` this subcommand never looked at (catches
    /// typos like `--epoch 2` for `--epochs 2`).
    pub fn reject_unused(&self) -> Result<(), String> {
        let used = self.used.borrow();
        let unknown: Vec<String> = self
            .pairs
            .iter()
            .map(|(k, _)| k.clone())
            .chain(self.flags.iter().cloned())
            .filter(|k| !used.contains(k))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(format!("unknown option(s): --{}", unknown.join(", --")))
        }
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
        assert!(a.reject_unused().unwrap_err().contains("bogus"));
    }

    #[test]
    fn require_and_parse_errors() {
        let a = Args::parse(&argv(&["--epochs", "two"])).unwrap();
        assert!(a.get_parsed("epochs", 1usize).is_err());
        assert!(a.require::<usize>("master").is_err());
    }
}
