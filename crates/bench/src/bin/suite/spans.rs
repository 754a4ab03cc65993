//! Reading the span JSONL that `tg_obs::trace` writes, and turning it
//! into per-name self times.
//!
//! A span's **self time** is its duration minus the part of its interval
//! that its direct children cover. Children are clipped to the parent's
//! interval and overlapping children (cross-thread spans adopted with
//! `span_with_parent` may run in parallel) are counted once, so self
//! time is never negative and the self times of a single-threaded tree
//! sum exactly to the root's duration.

use std::collections::BTreeMap;

/// One completed span record.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Recording thread.
    pub tid: u64,
    /// Span id, unique in the file.
    pub id: u64,
    /// Parent span id, `0` for a root.
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Start, in ns since the process anchor.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 / 1e9
    }
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    // span names are `&'static str` identifiers: no escapes to undo
    Some(&rest[..rest.find('"')?])
}

/// Parse a trace JSONL file's text. The process-header line and any
/// line that is not a complete span record are skipped.
pub fn parse_jsonl(text: &str) -> Vec<Span> {
    text.lines()
        .filter_map(|line| {
            Some(Span {
                tid: field_u64(line, "tid")?,
                id: field_u64(line, "id")?,
                parent: field_u64(line, "parent")?,
                name: field_str(line, "name")?.to_string(),
                start_ns: field_u64(line, "start_ns")?,
                dur_ns: field_u64(line, "dur_ns")?,
            })
        })
        .collect()
}

/// Self time of every span, aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns().min(spans[p].end_ns());
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

/// Totals of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub n: u64,
    /// Summed duration, ns.
    pub dur_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// A parsed trace: the spans, their self times and the per-name totals.
pub struct Trace {
    spans: Vec<Span>,
    selfs: Vec<u64>,
    by_name: BTreeMap<String, NameTotals>,
}

impl Trace {
    /// Index a set of spans.
    pub fn new(spans: Vec<Span>) -> Trace {
        let selfs = self_times(&spans);
        let mut by_name: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name.clone()).or_default();
            e.n += 1;
            e.dur_ns += s.dur_ns;
            e.self_ns += own;
        }
        Trace {
            spans,
            selfs,
            by_name,
        }
    }

    /// Spans in the trace.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals for one span name (zeros when it never ran).
    pub fn totals(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Summed duration of a name, in seconds.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals(name).dur_ns as f64 / 1e9
    }

    /// Every duration recorded under a name, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The first span recorded under a name.
    pub fn first(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Summed self time of `root` and all its descendants, ns.
    pub fn subtree_self_ns(&self, root: u64) -> u64 {
        let mut kids: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut start = None;
        for (i, s) in self.spans.iter().enumerate() {
            kids.entry(s.parent).or_default().push(i);
            if s.id == root {
                start = Some(i);
            }
        }
        let mut total = 0u64;
        let mut stack: Vec<usize> = start.into_iter().collect();
        while let Some(i) = stack.pop() {
            total += self.selfs[i];
            if let Some(c) = kids.get(&self.spans[i].id) {
                stack.extend(c);
            }
        }
        total
    }

    /// The `n` names with the most self time, as an aligned text table.
    pub fn top_table(&self, n: usize) -> String {
        let mut rows: Vec<(&String, &NameTotals)> = self.by_name.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let all: u64 = self.selfs.iter().sum();
        let mut out = format!(
            "{:<44} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "count", "self ms", "total ms", "self %"
        );
        for (name, t) in rows.into_iter().take(n) {
            out.push_str(&format!(
                "{:<44} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                t.n,
                t.self_ns as f64 / 1e6,
                t.dur_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all.max(1) as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, id: u64, parent: u64, name: &str, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            tid,
            id,
            parent,
            name: name.to_string(),
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn parses_the_tracer_format_and_skips_the_header() {
        let text = "{\"meta\":\"process\",\"pid\":9,\"label\":\"x\",\"epoch_ns\":5}\n\
            {\"pid\":9,\"tid\":1,\"id\":38654705665,\"parent\":0,\"name\":\"bench.stage\",\"start_ns\":100,\"dur_ns\":900}\n\
            {\"pid\":9,\"tid\":2,\"id\":38654705666,\"parent\":38654705665,\"name\":\"engine.unit\",\"start_ns\":150,\"dur_ns\":50}\n\
            garbage\n";
        let spans = parse_jsonl(text);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], span(1, 38654705665, 0, "bench.stage", 100, 900));
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].name, "engine.unit");
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // root 0..100, child 10..60, grandchild 20..30
        let spans = vec![
            span(1, 1, 0, "root", 0, 100),
            span(1, 2, 1, "child", 10, 50),
            span(1, 3, 2, "grandchild", 20, 10),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        let trace = Trace::new(spans);
        // single-threaded tree: self times sum to the root's duration
        assert_eq!(trace.subtree_self_ns(1), 100);
        assert_eq!(trace.subtree_self_ns(2), 50);
    }

    #[test]
    fn sibling_spans_add_up() {
        let spans = vec![
            span(1, 1, 0, "step", 0, 100),
            span(1, 2, 1, "forward", 0, 40),
            span(1, 3, 1, "backward", 40, 45),
        ];
        assert_eq!(self_times(&spans), vec![15, 40, 45]);
        let trace = Trace::new(spans);
        assert_eq!(trace.totals("forward").self_ns, 40);
        assert_eq!(trace.totals("missing"), NameTotals::default());
    }

    #[test]
    fn cross_thread_children_overlap_once_and_are_clipped() {
        // two workers run in parallel under one parent, one of them
        // outliving it: coverage is the union, clipped to the parent
        let spans = vec![
            span(1, 1, 0, "execute", 100, 100),
            span(2, 2, 1, "unit", 110, 60),
            span(3, 3, 1, "unit", 130, 90),
        ];
        // union of [110,170) and [130,200) inside [100,200) is 90 ns
        assert_eq!(self_times(&spans), vec![10, 60, 90]);
    }

    #[test]
    fn per_name_totals_and_top_table() {
        let trace = Trace::new(vec![
            span(1, 1, 0, "a", 0, 10),
            span(1, 2, 0, "a", 20, 30),
            span(1, 3, 0, "b", 60, 5),
        ]);
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace.totals("a"),
            NameTotals {
                n: 2,
                dur_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(trace.durations("a"), vec![1e-8, 3e-8]);
        assert_eq!(trace.first("b").map(|s| s.id), Some(3));
        let table = trace.top_table(1);
        assert!(table.contains("a ") && !table.contains("\nb "));
    }
}
