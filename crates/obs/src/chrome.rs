//! Chrome-trace/Perfetto JSON export.
//!
//! Emits the [Trace Event Format] consumed by `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev): a `{"traceEvents": [...]}`
//! object whose entries are duration pairs (`"B"`/`"E"`) for phase
//! spans, complete events (`"X"`) for miss lifetimes, instants (`"i"`)
//! for checkpoint/defer/replay markers, and counters (`"C"`) for DQ/STB
//! occupancy. One simulated cycle maps to one microsecond of viewer
//! time.
//!
//! Tracks are addressed by `(pid, tid)`: the harness gives each job a
//! process and each core (plus its memory port) a thread, so a whole
//! CMP run opens as parallel swimlanes.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! The writer is hand-rolled string building — `sst-obs` sits below the
//! harness and carries no dependencies — with full JSON string escaping
//! for the caller-supplied process/track names.

use crate::{Event, TraceBuf};

/// Builds one Chrome-trace JSON document from any number of tracks.
pub struct ChromeTrace {
    body: String,
    first: bool,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace {
            body: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn raw(&mut self, obj: &str) {
        if self.first {
            self.first = false;
        } else {
            self.body.push_str(",\n");
        }
        self.body.push_str(obj);
    }

    /// Names process `pid` (one per job).
    pub fn name_process(&mut self, pid: u64, name: &str) {
        let obj = format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
        self.raw(&obj);
    }

    /// Names thread `(pid, tid)` (one per core track or mem track).
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        let obj = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
        self.raw(&obj);
    }

    /// Exports every event in `buf` onto track `(pid, tid)`. Counter
    /// samples are named `<counter_prefix>:dq` / `<counter_prefix>:stb`
    /// (counters are per-process in the viewer, so the prefix keeps
    /// multiple cores apart).
    pub fn add_track(&mut self, pid: u64, tid: u64, counter_prefix: &str, buf: &TraceBuf) {
        let prefix = escape(counter_prefix);
        for e in buf.events() {
            let obj = match *e {
                Event::PhaseSpan { phase, start, end } => {
                    // A balanced B/E pair; spans tile the timeline, so the
                    // per-track B/E stream is monotone and depth-1 nested.
                    self.raw(&format!(
                        "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{start}}}",
                        phase.label()
                    ));
                    format!("{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{end}}}")
                }
                Event::CkptTake { at, live } => {
                    instant(pid, tid, at, "ckpt-take", &format!("\"live\":{live}"))
                }
                Event::CkptCommit { at, merged } => {
                    instant(pid, tid, at, "ckpt-commit", &format!("\"merged\":{merged}"))
                }
                Event::CkptRollback {
                    at,
                    scout,
                    squashed,
                } => instant(
                    pid,
                    tid,
                    at,
                    "rollback",
                    &format!("\"scout\":{scout},\"squashed\":{squashed}"),
                ),
                Event::Defer { at, cause } => instant(
                    pid,
                    tid,
                    at,
                    "defer",
                    &format!("\"cause\":\"{}\"", cause.label()),
                ),
                Event::Redefer { at } => instant(pid, tid, at, "redefer", ""),
                Event::ReplayPass {
                    at,
                    executed,
                    redeferred,
                } => instant(
                    pid,
                    tid,
                    at,
                    "replay-pass",
                    &format!("\"executed\":{executed},\"redeferred\":{redeferred}"),
                ),
                Event::ReplayFail { at, seq } => {
                    instant(pid, tid, at, "replay-fail", &format!("\"seq\":{seq}"))
                }
                Event::Occupancy { at, dq, stb } => {
                    self.raw(&format!(
                        "{{\"name\":\"{prefix}:dq\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{at},\"args\":{{\"entries\":{dq}}}}}"
                    ));
                    format!(
                        "{{\"name\":\"{prefix}:stb\",\"ph\":\"C\",\"pid\":{pid},\"tid\":{tid},\"ts\":{at},\"args\":{{\"entries\":{stb}}}}}"
                    )
                }
                Event::MissSpan {
                    start,
                    end,
                    block,
                    deep,
                } => {
                    let name = if deep { "miss:mem" } else { "miss:L2" };
                    let dur = end.saturating_sub(start);
                    format!(
                        "{{\"name\":\"{name}\",\"cat\":\"mem\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{start},\"dur\":{dur},\"args\":{{\"block\":\"{block:#x}\"}}}}"
                    )
                }
            };
            self.raw(&obj);
        }
        if buf.dropped() > 0 {
            // Surface ring overflow in the trace itself rather than
            // silently under-reporting.
            let obj = format!(
                "{{\"name\":\"trace-ring-dropped\",\"ph\":\"i\",\"s\":\"g\",\"pid\":{pid},\"tid\":{tid},\"ts\":0,\"args\":{{\"events\":{}}}}}",
                buf.dropped()
            );
            self.raw(&obj);
        }
    }

    /// The complete JSON document.
    pub fn finish(mut self) -> String {
        self.body.push_str("\n]}\n");
        self.body
    }
}

impl Default for ChromeTrace {
    fn default() -> ChromeTrace {
        ChromeTrace::new()
    }
}

fn instant(pid: u64, tid: u64, at: u64, name: &str, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{at},\"args\":{{{args}}}}}"
    )
}

/// JSON string escaping for caller-supplied names.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeferCause, Phase};

    fn buf() -> TraceBuf {
        let mut b = TraceBuf::new();
        b.set_phase(Phase::Normal, 0);
        b.set_phase(Phase::Ea, 10);
        b.push(Event::CkptTake { at: 10, live: 1 });
        b.push(Event::Defer {
            at: 12,
            cause: DeferCause::CacheMiss,
        });
        b.push(Event::Occupancy {
            at: 13,
            dq: 3,
            stb: 1,
        });
        b.set_phase(Phase::Replay, 20);
        b.push(Event::ReplayPass {
            at: 25,
            executed: 3,
            redeferred: 1,
        });
        b.push(Event::CkptCommit { at: 25, merged: 3 });
        b.push(Event::MissSpan {
            start: 12,
            end: 80,
            block: 0x4000,
            deep: true,
        });
        b.close(30);
        b
    }

    #[test]
    fn export_is_balanced_and_monotone() {
        let mut t = ChromeTrace::new();
        t.name_process(1, "sst/oltp");
        t.name_thread(1, 0, "core0");
        t.add_track(1, 0, "core0", &buf());
        let json = t.finish();

        // Well-formed array envelope.
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));

        // Balanced, monotone B/E stream: scan the emitted objects in
        // order, tracking depth and last timestamp.
        let mut depth = 0i64;
        let mut last_ts = 0u64;
        for line in json.lines() {
            let line = line.trim_end_matches(',');
            if !line.contains("\"ph\":\"B\"") && !line.contains("\"ph\":\"E\"") {
                continue;
            }
            let ts: u64 = line
                .split("\"ts\":")
                .nth(1)
                .and_then(|s| s.split(['}', ',']).next())
                .and_then(|s| s.parse().ok())
                .expect("B/E event has ts");
            assert!(ts >= last_ts, "timestamps are monotone: {line}");
            last_ts = ts;
            if line.contains("\"ph\":\"B\"") {
                depth += 1;
            } else {
                depth -= 1;
            }
            assert!(depth >= 0, "E without matching B");
        }
        assert_eq!(depth, 0, "every B has an E");

        // The payloads made it through.
        assert!(json.contains("\"cause\":\"cache_miss\""));
        assert!(json.contains("miss:mem"));
        assert!(json.contains("\"block\":\"0x4000\""));
        assert!(json.contains("core0:dq"));
    }

    #[test]
    fn names_are_escaped() {
        let mut t = ChromeTrace::new();
        t.name_process(1, "evil\"name\\with\nnasties");
        let json = t.finish();
        assert!(json.contains("evil\\\"name\\\\with\\nnasties"));
    }

    #[test]
    fn dropped_events_are_flagged() {
        let mut b = TraceBuf::with_capacity(2);
        for i in 0..5 {
            b.push(Event::Redefer { at: i });
        }
        let mut t = ChromeTrace::new();
        t.add_track(0, 0, "c", &b);
        let json = t.finish();
        assert!(json.contains("trace-ring-dropped"));
        assert!(json.contains("\"events\":3"));
    }
}
