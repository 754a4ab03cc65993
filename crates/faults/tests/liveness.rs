//! Registry → code liveness, the direction a compiler cannot see: a
//! point that is declared but no longer evaluated anywhere still
//! compiles, still parses in `TG_FAULTS`, and arms nothing. Every point
//! in `FAULT_POINTS` must be named, by its constant, in the library or
//! binary sources of some other crate. Only non-test mentions count: a
//! file is read up to its `#[cfg(test)] mod`, and `//` comments are cut.

use std::fs;
use std::path::{Path, PathBuf};
use tg_faults::registry::FAULT_POINTS;

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `line` names `ident` as a whole word outside a `//` comment.
fn names(line: &str, ident: &str) -> bool {
    let code = line.split("//").next().unwrap_or("");
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .any(|word| word == ident)
}

/// Some line of `src` above its `#[cfg(test)] mod` names `ident`.
fn shipped_code_names(src: &str, ident: &str) -> bool {
    let shipped = src.split("#[cfg(test)]\nmod ").next().unwrap_or("");
    shipped.lines().any(|line| names(line, ident))
}

#[test]
fn every_declared_point_is_evaluated_by_another_crate() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut files = Vec::new();
    for krate in fs::read_dir(crates).unwrap() {
        let krate = krate.unwrap().path();
        if krate.join("src").is_dir() && krate.file_name().unwrap() != "faults" {
            rust_sources(&krate.join("src"), &mut files);
        }
    }
    let sources: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(f).unwrap())
        .collect();
    assert!(sources.len() > 50, "found only {} sources", sources.len());

    for point in FAULT_POINTS {
        let ident = point.name().to_uppercase().replace('.', "_");
        assert!(
            sources.iter().any(|src| shipped_code_names(src, &ident)),
            "fault point `{}` is declared in crates/faults/src/registry.rs but no \
             crates/*/src file outside crates/faults names `{ident}` above its \
             `#[cfg(test)] mod` — delete the declaration or restore the \
             injection site",
            point.name()
        );
    }
}

#[test]
fn a_comment_a_longer_identifier_or_a_unit_test_is_not_a_use() {
    assert!(names(
        "    tg_faults::fail_point!(STORE_WRITE_BLOCK, p);",
        "STORE_WRITE_BLOCK"
    ));
    assert!(names(
        "use tg_faults::registry::{SERVE_ACCEPT, SERVE_STATUS};",
        "SERVE_STATUS"
    ));
    assert!(!names(
        "// was: fail_point!(STORE_WRITE_BLOCK)",
        "STORE_WRITE_BLOCK"
    ));
    assert!(!names(
        "let x = STORE_WRITE_BLOCK_LATER;",
        "STORE_WRITE_BLOCK"
    ));

    let unit_test_only = "fn flush() {}\n\n#[cfg(test)]\nmod tests {\n    \
                          use tg_faults::registry::STORE_WRITE_BLOCK;\n}\n";
    assert!(!shipped_code_names(unit_test_only, "STORE_WRITE_BLOCK"));
    assert!(shipped_code_names(
        "fn flush() { fail_point!(STORE_WRITE_BLOCK); }\n#[cfg(test)]\nmod tests {}\n",
        "STORE_WRITE_BLOCK"
    ));
}
