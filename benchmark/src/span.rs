//! In-memory spans around the benchmark's calls into each layer.
//!
//! The spans live in the benchmark's own files: one is opened before a
//! call into a crate's public function and closed after it, so nothing
//! under `crates/` is instrumented. They are kept in memory and written
//! out once, when the traced run ends. End-to-end numbers always come
//! from a run with the tracer off, where `enter`/`exit` reduce to one
//! branch.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The function called, e.g. `System::run_checked[sst/gzip]`.
    pub name: String,
    /// The crate directory the call enters (`sim`, `workloads`, ...);
    /// `bench` for the benchmark's own grouping spans.
    pub layer: &'static str,
    /// Optional attribution key (`core.sst`, `sst_l100`, ...) and the
    /// simulated instructions the call committed.
    pub tag: &'static str,
    pub insts: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Which timed repeat of the workload the span belongs to.
    pub repeat: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` inside when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    pub enabled: bool,
    pub repeat: u32,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            repeat: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: &'static str, name: impl FnOnce() -> String) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name(),
            layer,
            tag: "",
            insts: 0,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            repeat: self.repeat,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        self.exit_tagged(open, "", 0);
    }

    /// Closes a span, recording which model or load point it ran and how
    /// many simulated instructions it committed.
    pub fn exit_tagged(&mut self, open: Open, tag: &'static str, insts: u64) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.tag = tag;
        s.insts = insts;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part covered by
    /// its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time per layer over the spans below (and including) `root`.
    pub fn layer_self_ns(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let own = self.self_ns();
        let mut by_layer = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.is_under(i, root) {
                *by_layer.entry(s.layer).or_insert(0) += own[i];
            }
        }
        by_layer
    }

    fn is_under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Committed instructions and nanoseconds summed over spans carrying
    /// `tag`.
    pub fn tagged(&self, tag: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.tag == tag)
            .fold((0, 0), |(i, ns), s| (i + s.insts, ns + s.dur_ns()))
    }

    /// The trace file: one object per span, parents by index.
    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(&s.name)),
                        ("layer", Json::str(s.layer)),
                        ("tag", Json::str(s.tag)),
                        ("insts", Json::Num(s.insts as f64)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::str(workload)),
                        ("repeat", Json::Num(s.repeat as f64)),
                    ])
                })
                .collect(),
        )
    }

    #[cfg(test)]
    fn push_raw(
        &mut self,
        layer: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: String::new(),
            layer,
            tag: "",
            insts: 0,
            start_ns: start,
            end_ns: end,
            parent,
            repeat: 0,
        });
        self.spans.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut t = Tracer::new(true);
        let root = t.push_raw("bench", 0, 100, None);
        let a = t.push_raw("sim", 10, 40, Some(root)); // sibling 1
        let _b = t.push_raw("workloads", 50, 70, Some(root)); // sibling 2
        let _c = t.push_raw("mem", 15, 25, Some(a)); // nested under a
        assert_eq!(t.self_ns(), vec![50, 20, 20, 10]);
        let by_layer = t.layer_self_ns(root);
        assert_eq!(by_layer["bench"], 50);
        assert_eq!(by_layer["sim"], 20);
        assert_eq!(by_layer["workloads"], 20);
        assert_eq!(by_layer["mem"], 10);
        // Self times under a root sum to the root's duration.
        assert_eq!(by_layer.values().sum::<u64>(), 100);
        // A subtree query leaves the siblings out.
        assert_eq!(t.layer_self_ns(a).values().sum::<u64>(), 30);
    }

    #[test]
    fn enter_exit_links_parents_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("bench", || "outer".into());
        let inner = t.enter("sim", || "inner".into());
        t.exit_tagged(inner, "core.sst", 42);
        t.exit(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.tagged("core.sst").0, 42);

        let mut off = Tracer::new(false);
        let s = off.enter("sim", || unreachable!("name is not built when off"));
        off.exit(s);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_json_carries_the_span_fields() {
        let mut t = Tracer::new(true);
        let s = t.enter("sim", || "System::run_checked[sst/gzip]".into());
        t.exit(s);
        let doc = t.to_json("core_compute");
        let first = &doc.as_arr().unwrap()[0];
        for key in [
            "name", "layer", "start_ns", "end_ns", "parent", "workload", "repeat", "self_ns",
        ] {
            assert!(first.get(key).is_some(), "{key}");
        }
    }
}
