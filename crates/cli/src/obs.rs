//! The CLI's telemetry glue. The `simulate --trace` plumbing: installing
//! the span sink, the best-effort flush (with its `obs.flush` fault
//! point), and the Chrome rendering. And [`ObsObserver`], the
//! `train --telemetry` epoch observer.
//!
//! Telemetry is **best-effort by contract**: every failure in here warns
//! on stderr and lets the run proceed — a run must never lose its edges
//! or its model because its telemetry could not be written. The
//! `obs.flush` fault point exists to test exactly that contract (see
//! `tests/trace.rs` and `crates/faults`).

use crate::rundir::RunDir;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use tg_obs::memtrack;
use tgae::{EpochEvent, RunObserver, TrainControl};

/// A [`RunObserver`] that appends each epoch's loss, wall time, and heap
/// high-water mark to a `telemetry.jsonl` file. The heap reading comes
/// from [`memtrack`], which `main.rs` installs as the global allocator.
///
/// Telemetry is *observation only*: the observer always returns
/// [`TrainControl::Continue`] and touches nothing the seeded training
/// trajectory depends on, so a run with telemetry writes bit-identical
/// parameters to one without (regression-tested in
/// `telemetry_does_not_perturb_training`).
pub struct ObsObserver {
    sink: Option<BufWriter<File>>,
}

impl ObsObserver {
    /// An observer appending one JSON record per epoch to `path`
    /// (`{"epoch":..,"loss":..,"wall_ns":..,"heap_peak_bytes":..,"heap_live_bytes":..}`).
    pub fn with_file(path: &Path) -> std::io::Result<ObsObserver> {
        Ok(ObsObserver {
            sink: Some(BufWriter::new(File::create(path)?)),
        })
    }
}

impl RunObserver for ObsObserver {
    fn on_epoch_end(&mut self, event: &EpochEvent) -> TrainControl {
        let heap_peak = memtrack::peak_bytes();
        let heap_live = memtrack::current_bytes();
        if let Some(w) = self.sink.as_mut() {
            // Telemetry is best-effort by contract: a full disk must not
            // abort a training run, so write errors drop the file sink
            // rather than propagate.
            let line = format!(
                "{{\"epoch\":{},\"n_epochs\":{},\"loss\":{},\"wall_ns\":{},\"heap_peak_bytes\":{},\"heap_live_bytes\":{}}}",
                event.epoch,
                event.n_epochs,
                event.loss,
                event.wall.as_nanos(),
                heap_peak,
                heap_live
            );
            // Flushed per epoch so a crashed run still leaves its
            // trajectory on disk up to the last completed epoch.
            let ok = writeln!(w, "{line}").is_ok() && w.flush().is_ok();
            if !ok {
                self.sink = None;
            }
        }
        TrainControl::Continue
    }
}

/// Install the trace sink for a `simulate --trace` run. Returns whether
/// a sink is live (installation failure only warns).
pub fn install_trace(run_dir: &RunDir) -> bool {
    let path = run_dir.trace_spans_path();
    match tg_obs::trace::install(&path, "simulate") {
        Ok(()) => true,
        Err(e) => {
            eprintln!(
                "tgx-cli: tracing disabled (cannot install sink at {}: {e})",
                path.display()
            );
            tg_obs::trace::enabled()
        }
    }
}

/// Flush this process's trace buffers to the sink installed at `path`,
/// warn-and-continue on failure (`path` is also the `obs.flush` fault
/// point's argument).
pub fn flush_trace(path: &Path) {
    if !tg_obs::trace::enabled() {
        return;
    }
    let path = path.display().to_string();
    if let Err(e) = tg_faults::eval(&tg_faults::registry::OBS_FLUSH, Some(&path)) {
        eprintln!("tgx-cli: trace flush skipped ({path}): {e}");
        return;
    }
    if let Err(e) = tg_obs::trace::flush() {
        eprintln!("tgx-cli: trace flush failed ({path}): {e}");
    }
}

/// Render the run's span file as `trace.json` (Chrome `trace_event`
/// format, loadable in `chrome://tracing` / Perfetto). Failure only
/// warns.
pub fn render_trace(run_dir: &RunDir, quiet: bool) {
    let out = run_dir.trace_json_path();
    match tg_obs::chrome::merge_traces(&[run_dir.trace_spans_path()], &out) {
        Ok(summary) => {
            if !quiet {
                eprintln!("trace: {} spans -> {}", summary.spans, out.display());
            }
        }
        Err(e) => eprintln!("tgx-cli: trace render failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::Duration;

    fn event(epoch: usize, loss: f32) -> EpochEvent {
        EpochEvent {
            epoch,
            n_epochs: 3,
            loss,
            wall: Duration::from_millis(4),
        }
    }

    fn tmp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tgx_obs_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("telemetry.jsonl")
    }

    #[test]
    fn file_sink_writes_one_record_per_epoch() {
        let path = tmp_file("file");
        let mut obs = ObsObserver::with_file(&path).unwrap();
        for e in 0..3 {
            obs.on_epoch_end(&event(e, 0.5));
        }
        drop(obs);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"epoch\":0,\"n_epochs\":3,\"loss\":0.5,"));
        assert!(lines[2].contains("\"epoch\":2"));
        assert!(lines[2].contains("\"heap_peak_bytes\":"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
