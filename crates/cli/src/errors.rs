//! Typed process failure for `tgx-cli`: every way a run can end
//! unsuccessfully gets a distinct exit code, so schedulers and scripts
//! can react without parsing stderr.
//!
//! ```text
//! 0  success
//! 1  other failure (I/O, engine error, …)
//! 2  usage error (unknown flag/subcommand/operand, a flag value that
//!    does not parse or is refused, missing/contradictory args): the
//!    command line is checked whole before anything is written
//! 3  ingest/store corruption (unreadable or damaged TGES input)
//! 4  reserved (unused; never renumbered)
//! 5  reserved (unused; never renumbered)
//! 6  server busy (retry later): `tgx-cli client` was refused by
//!    admission control or the model cache
//! ```
//!
//! [`EXIT_CODES`] is the table: `--help` prints it, and
//! `exit_codes_are_distinct_and_stable` holds [`CliError::exit_code`],
//! the list above and the README to it.

/// The exit-code contract, row `i` being code `i` and its meaning.
pub const EXIT_CODES: [(i32, &str); 7] = [
    (0, "success"),
    (1, "other failure"),
    (2, "usage error"),
    (3, "ingest/store corruption"),
    (4, "reserved (unused; never renumbered)"),
    (5, "reserved (unused; never renumbered)"),
    (6, "server busy (retry later)"),
];

/// The `EXIT CODES` section of `--help`, one line per table row.
pub fn exit_codes_help() -> String {
    let rows = EXIT_CODES.map(|(code, meaning)| format!("  {code}  {meaning}\n"));
    format!("\nEXIT CODES:\n{}", rows.concat())
}

/// A failed `tgx-cli` invocation, tagged with its process exit code.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line: unknown subcommand/flag/operand, a refused flag
    /// value, missing or contradictory arguments. Exit 2, before the
    /// subcommand has written anything.
    Usage(String),
    /// A store/ingest input is unreadable or damaged. Exit 3.
    Corruption(String),
    /// A `tgx-cli client` request was refused as busy by the server's
    /// admission control or saturated model cache. Exit 6.
    Busy(String),
    /// Anything else. Exit 1.
    Other(String),
}

impl CliError {
    /// The process exit code this failure maps to, a row of
    /// [`EXIT_CODES`].
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Other(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Corruption(_) => 3,
            CliError::Busy(_) => 6,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Corruption(m)
            | CliError::Busy(m)
            | CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Other(m)
    }
}

/// A failed [`tg_graph::io::commit_atomic`] step. Exit 1.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Other(e.to_string())
    }
}

/// A `TG_FAULTS` point that fired inside a commit. Exit 1.
impl From<tg_faults::FaultError> for CliError {
    fn from(e: tg_faults::FaultError) -> Self {
        CliError::Other(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_stable() {
        let cases = [
            (CliError::Other("x".into()), 1),
            (CliError::Usage("x".into()), 2),
            (CliError::Corruption("x".into()), 3),
            (CliError::Busy("x".into()), 6),
        ];
        for (e, code) in &cases {
            assert_eq!(e.exit_code(), *code, "{e}");
        }
        // the table: row i is code i, and every failure row but the
        // reserved ones has a variant; no variant exits a reserved code
        for (i, (code, meaning)) in EXIT_CODES.iter().enumerate() {
            assert_eq!(*code, i as i32);
            let reserved = meaning.starts_with("reserved");
            assert_eq!(
                i != 0 && !reserved,
                cases.iter().any(|(_, c)| c == code),
                "exit {code} ({meaning})"
            );
        }

        // the module doc above lists exactly the table, in its words
        let root = env!("CARGO_MANIFEST_DIR");
        let source = std::fs::read_to_string(format!("{root}/src/errors.rs")).unwrap();
        let documented: Vec<&str> = source
            .lines()
            .filter_map(|l| l.strip_prefix("//! "))
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .collect();
        assert_eq!(documented.len(), EXIT_CODES.len(), "{documented:?}");
        for ((code, meaning), line) in EXIT_CODES.iter().zip(documented) {
            assert!(line.starts_with(&format!("{code}  {meaning}")), "{line}");
        }

        // the README's stability paragraph names every code a script can
        // branch on
        let readme = std::fs::read_to_string(format!("{root}/../../README.md")).unwrap();
        let (_, promise) = readme
            .split_once("Exit codes are stable")
            .expect("README lost the `Exit codes are stable` sentence");
        let promise = promise.split("\n\n").next().unwrap();
        for (code, _) in EXIT_CODES.iter().filter(|(code, _)| *code != 1) {
            assert!(
                promise.contains(&format!("`{code}` ")),
                "README lost `{code}`"
            );
        }
    }

    #[test]
    fn string_errors_default_to_exit_1() {
        let e: CliError = String::from("boom").into();
        assert_eq!(e.exit_code(), 1);
        assert_eq!(e.to_string(), "boom");
    }
}
