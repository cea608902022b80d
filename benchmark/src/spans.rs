//! Host-side spans of a traced run, recorded by the benchmark around its
//! calls into the program: `rep ⊃ {setup, segment…, tail}` from the
//! observer stamps, plus one span per probe call. Kept in memory and
//! written once, at exit, as a Chrome trace.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ftsg_core::config::AppEvent;

use crate::rep::Stamps;

struct Span {
    name: String,
    /// Timeline row: one per series, one for the probes.
    track: &'static str,
    /// The span that caused this one.
    parent: Option<usize>,
    /// Spans of one rep (or one probe) share this number.
    group: usize,
    start: Instant,
    end: Instant,
}

/// The spans of one process.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// The durations of one rep's child spans, seconds.
pub struct RepSpans {
    pub setup: f64,
    /// Spans that start at an epoch boundary and end at rank 0's next
    /// event (the next boundary, or a committed recovery).
    pub epochs: Vec<f64>,
    /// Last event → `run()` returns: whatever follows the last boundary or
    /// recovery (final detection, combination, reductions), rank teardown
    /// and report assembly.
    pub tail: f64,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans { origin, spans: Vec::new() }
    }

    fn push(
        &mut self,
        name: String,
        track: &'static str,
        parent: Option<usize>,
        group: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { name, track, parent, group, start, end });
        self.spans.len() - 1
    }

    /// Record one rep and its children from the observer stamps.
    pub fn rep(&mut self, track: &'static str, index: usize, stamps: &Stamps) -> RepSpans {
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        let rep = self.push(format!("rep[{index}]"), track, None, index, stamps.call, stamps.ret);
        let mut out = RepSpans { setup: 0.0, epochs: Vec::new(), tail: 0.0 };
        let mut prev: Option<(AppEvent, Instant)> = None;
        for &(ev, at) in &stamps.events {
            match prev {
                None => {
                    self.push("setup".into(), track, Some(rep), index, stamps.call, at);
                    out.setup = secs(stamps.call, at);
                }
                Some((AppEvent::Epoch { step, .. }, since)) => {
                    self.push(format!("epoch@{step}"), track, Some(rep), index, since, at);
                    out.epochs.push(secs(since, at));
                }
                Some((AppEvent::Recovered { step, .. }, since)) => {
                    self.push(format!("after-recovery@{step}"), track, Some(rep), index, since, at);
                }
            }
            prev = Some((ev, at));
        }
        if let Some((_, since)) = prev {
            self.push("tail".into(), track, Some(rep), index, since, stamps.ret);
            out.tail = secs(since, stamps.ret);
        }
        out
    }

    /// Time one probe call: `f` returns the seconds it measured itself
    /// (`None`: use the call's own duration). Returns those seconds.
    pub fn probe(&mut self, name: &str, trial: usize, f: impl FnOnce() -> Option<f64>) -> f64 {
        let start = Instant::now();
        let inner = f();
        let end = Instant::now();
        self.push(format!("{name}[{trial}]"), "probes", None, trial, start, end);
        inner.unwrap_or((end - start).as_secs_f64())
    }

    /// Write everything as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        const TRACKS: [&str; 5] = ["reference", "plain", "traced", "twin", "probes"];
        let mut out = String::from("{\"traceEvents\": [\n");
        for (tid, track) in TRACKS.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{track}\"}}}},"
            );
        }
        for (id, s) in self.spans.iter().enumerate() {
            let tid = TRACKS.iter().position(|t| *t == s.track).unwrap_or(TRACKS.len());
            let ts = (s.start - self.origin).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {ts:.3}, \"dur\": {dur:.3}, \
                 \"args\": {{\"id\": {id}, \"parent\": {parent}, \"group\": {}}}}}{sep}",
                s.name, s.track, s.group
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_rep_decomposes_into_setup_epochs_and_tail() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let stamps = Stamps {
            call: at(0),
            events: vec![
                (AppEvent::Epoch { step: 0, steps: 30 }, at(10)),
                (AppEvent::Epoch { step: 15, steps: 30 }, at(30)),
                (AppEvent::Recovered { step: 30, ranks: 1 }, at(70)),
            ],
            ret: at(100),
        };
        let mut spans = Spans::new(t0);
        let rep = spans.rep("plain", 3, &stamps);
        assert_eq!(rep.setup, 0.010);
        assert_eq!(rep.epochs, [0.020, 0.040]);
        assert_eq!(rep.tail, 0.030);
        // The children tile the rep: nothing is counted twice or lost.
        let total = rep.setup + rep.epochs.iter().sum::<f64>() + rep.tail;
        assert!((total - 0.100).abs() < 1e-12);
        assert_eq!(spans.spans.len(), 5);
        assert!(spans.spans[1..].iter().all(|s| s.parent == Some(0) && s.group == 3));
        assert_eq!(spans.probe("p", 0, || Some(1.5)), 1.5);
    }
}
