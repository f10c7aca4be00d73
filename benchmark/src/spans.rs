//! Spans recorded by the benchmark's own code around each call into a
//! layer (in-program spans are a later change), kept in memory and written
//! out once at the end of the traced run.

use crate::json::Json;
use std::time::Instant;

/// One timed call: which layer, when, caused by which span, for which
/// source batch (10 ms step of the replayed traffic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u32,
}

/// Times calls and, while recording, keeps their spans.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
        }
    }

    /// Spans are kept only while recording (the replays record their last
    /// repetition, so the file shows one representative pass per layer).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let at = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: None,
            batch: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f`, returns its result and how long it took in nanoseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: usize,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let took = start.elapsed().as_nanos() as u64;
        if self.recording {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + took,
                parent,
                batch: batch as u32,
            });
        }
        (out, took)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as `[name, start_ns, end_ns, parent, batch]` rows;
    /// `parent` is the row index of the causing span, or `"-"` for a root.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "batch"]
                        .into_iter()
                        .map(Json::str)
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![
                                Json::str(s.name),
                                Json::Int(s.start_ns),
                                Json::Int(s.end_ns),
                                s.parent.map_or(Json::str("-"), |p| Json::Int(p as u64)),
                                Json::Int(s.batch as u64),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new();
        let (_, ns) = t.time("quiet", None, 0, || 1 + 1);
        assert!(t.spans().is_empty(), "nothing kept while not recording");
        assert!(ns < 1_000_000);

        t.set_recording(true);
        let root = t.open("replay");
        let ((), a) = t.time("child", root, 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        let root = root.expect("recording");
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(t.spans()[1].batch, 3);
        assert!(a >= 2_000_000);
        let total = t.spans()[root].end_ns - t.spans()[root].start_ns;
        assert!(total >= a, "a parent covers its children");
        assert!(t.to_json().render().contains("\"child\""));
    }
}
