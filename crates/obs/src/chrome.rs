//! Merge per-process span JSONL files into Chrome `trace_event` JSON.
//!
//! Input files are the format written by [`crate::trace`]: one
//! process-header line (`{"meta":"process",…}`) followed by one
//! completed span per line. The merger:
//!
//! - normalises every process onto one time axis using the
//!   `epoch_ns` wall-clock anchor from each header (earliest anchor
//!   becomes `ts = 0`);
//! - emits one complete event (`"ph":"X"`) per span, with its id and
//!   parent id as arguments, and a `process_name` metadata event per
//!   file.
//!
//! The output loads directly in `chrome://tracing` / Perfetto.
//!
//! Parsing is a purpose-built field extractor, not a JSON parser: the
//! input is this crate's own fixed-key-order format, and keeping the
//! crate dependency-free matters more than tolerating foreign JSONL.

use crate::push_json_str;
use std::path::{Path, PathBuf};

/// What a merge did, for CLI reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergeSummary {
    /// Distinct processes (input files with a valid header).
    pub processes: usize,
    /// Total spans merged.
    pub spans: usize,
}

struct ProcessHeader {
    pid: u64,
    label: String,
    epoch_ns: u64,
}

struct SpanRec {
    pid: u64,
    tid: u64,
    id: u64,
    parent: u64,
    name: String,
    /// Absolute start in ns (header epoch + relative start).
    abs_ns: u64,
    dur_ns: u64,
}

/// Extract the integer value of `"key":` from a record line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the string value of `"key":"…"` from a record line,
/// undoing the escapes [`push_json_str`] produces.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                esc => out.push(esc),
            },
            c => out.push(c),
        }
    }
    None
}

/// Merge `inputs` (trace JSONL files, one per process) into a Chrome
/// `trace_event` JSON file at `out`. Inputs that are missing or lack
/// a valid header are skipped — one lost file must not take the rest
/// of the timeline with it. Errors only on unwritable output or when
/// no input yields a header.
pub fn merge_traces(inputs: &[PathBuf], out: &Path) -> Result<MergeSummary, String> {
    let mut headers: Vec<ProcessHeader> = Vec::new();
    let mut spans: Vec<SpanRec> = Vec::new();

    for path in inputs {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let mut lines = text.lines();
        let Some(header_line) = lines.next() else {
            continue;
        };
        if field_str(header_line, "meta").as_deref() != Some("process") {
            continue;
        }
        let (Some(pid), Some(epoch_ns)) = (
            field_u64(header_line, "pid"),
            field_u64(header_line, "epoch_ns"),
        ) else {
            continue;
        };
        let label = field_str(header_line, "label").unwrap_or_else(|| format!("pid{pid}"));
        headers.push(ProcessHeader {
            pid,
            label,
            epoch_ns,
        });
        for line in lines {
            let (Some(tid), Some(id), Some(start_ns)) = (
                field_u64(line, "tid"),
                field_u64(line, "id"),
                field_u64(line, "start_ns"),
            ) else {
                continue;
            };
            spans.push(SpanRec {
                pid,
                tid,
                id,
                parent: field_u64(line, "parent").unwrap_or(0),
                name: field_str(line, "name").unwrap_or_default(),
                abs_ns: epoch_ns.saturating_add(start_ns),
                dur_ns: field_u64(line, "dur_ns").unwrap_or(0),
            });
        }
    }

    if headers.is_empty() {
        return Err("no trace input had a valid process header".to_string());
    }

    let t0 = headers.iter().map(|h| h.epoch_ns).min().unwrap_or(0);
    let us = |abs_ns: u64| (abs_ns.saturating_sub(t0)) as f64 / 1000.0;

    let mut json = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push_event = |json: &mut String, body: &str| {
        if !first {
            json.push(',');
        }
        first = false;
        json.push_str(body);
    };

    for h in &headers {
        let mut ev = format!(
            "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":",
            h.pid
        );
        push_json_str(&mut ev, &h.label);
        ev.push_str("}}");
        push_event(&mut json, &ev);
    }

    for s in &spans {
        let mut ev = format!(
            "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":",
            s.pid,
            s.tid,
            us(s.abs_ns),
            s.dur_ns as f64 / 1000.0,
        );
        push_json_str(&mut ev, &s.name);
        ev.push_str(&format!(
            ",\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.id, s.parent
        ));
        push_event(&mut json, &ev);
    }
    json.push_str("]}");

    std::fs::write(out, &json).map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(MergeSummary {
        processes: headers.len(),
        spans: spans.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, body: &str) -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, body).unwrap();
        p
    }

    #[test]
    fn merges_two_processes_onto_one_axis() {
        let dir = std::env::temp_dir().join(format!("tg_obs_chrome_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // driver: pid 1, anchor 1_000ns; one root + one supervise span
        let driver = write(
            &dir,
            "driver.jsonl",
            "{\"meta\":\"process\",\"pid\":1,\"label\":\"driver\",\"epoch_ns\":1000}\n\
             {\"pid\":1,\"tid\":1,\"id\":101,\"parent\":0,\"name\":\"root\",\"start_ns\":0,\"dur_ns\":5000}\n\
             {\"pid\":1,\"tid\":1,\"id\":102,\"parent\":101,\"name\":\"supervise\",\"start_ns\":100,\"dur_ns\":4000}\n",
        );
        // worker: pid 2, anchor 2_000ns
        let worker = write(
            &dir,
            "shard.jsonl",
            "{\"meta\":\"process\",\"pid\":2,\"label\":\"shard_0\",\"epoch_ns\":2000}\n\
             {\"pid\":2,\"tid\":1,\"id\":201,\"parent\":102,\"name\":\"worker\",\"start_ns\":0,\"dur_ns\":1000}\n",
        );
        let missing = dir.join("never_written.jsonl");
        let out = dir.join("trace.json");
        let sum = merge_traces(&[driver, worker, missing], &out).unwrap();
        assert_eq!(
            sum,
            MergeSummary {
                processes: 2,
                spans: 3
            }
        );
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"driver\""));
        assert!(json.contains("\"name\":\"shard_0\""));
        // worker root starts at epoch 2000 → ts = (2000-1000)/1000 = 1µs
        assert!(json.contains("\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":1,"));
        assert!(json.contains("\"args\":{\"id\":201,\"parent\":102}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_when_nothing_parses() {
        let dir = std::env::temp_dir().join(format!("tg_obs_chrome_err_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let junk = write(&dir, "junk.jsonl", "not a header\n");
        assert!(merge_traces(&[junk], &dir.join("out.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn field_extractors_roundtrip_escapes() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        let line = format!("{{\"name\":{s},\"id\":7}}");
        assert_eq!(field_str(&line, "name").unwrap(), "a\"b\\c\nd");
        assert_eq!(field_u64(&line, "id").unwrap(), 7);
    }
}
