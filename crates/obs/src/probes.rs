//! The one attachment point for the record-only layers.
//!
//! Every owner of a pipeline or a memory port — each core model and each
//! `MemPort` — holds one [`Probes`] and nothing else for observability.
//! All three probes (event trace, host stage timers, speculation taint)
//! start off: a disabled probe is a `None`, so every emission, timer or
//! taint site costs one discriminant test and reads no clock. Nothing an
//! owner does ever depends on a probe, so enabling one never changes a
//! run's result. A memory port only ever enables the first two; taint
//! is a core's.

use std::time::Instant;

use crate::{Cycle, Event, HostTimes, LeakageSummary, Phase, Stage, TaintState, TraceBuf};

/// An owner's event trace, host stage timers and speculation taint, each
/// present only while enabled.
#[derive(Debug, Default)]
pub struct Probes {
    trace: Option<Box<TraceBuf>>,
    prof: Option<Box<HostTimes>>,
    taint: Option<Box<TaintState>>,
}

impl Probes {
    /// Starts recording events into a fresh [`TraceBuf`] (a no-op when
    /// already recording).
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Box::default);
    }

    /// Starts accumulating host stage times (a no-op when already on).
    pub fn enable_prof(&mut self) {
        self.prof.get_or_insert_with(Box::default);
    }

    /// Starts recording speculation taint into a fresh [`TaintState`] (a
    /// no-op when already recording).
    pub fn enable_taint(&mut self) {
        self.taint.get_or_insert_with(Box::default);
    }

    /// Records `e` when tracing.
    #[inline]
    pub fn emit(&mut self, e: Event) {
        if let Some(tb) = self.trace.as_mut() {
            tb.push(e);
        }
    }

    /// [`TraceBuf::set_phase`] when tracing.
    #[inline]
    pub fn set_phase(&mut self, phase: Phase, now: Cycle) {
        if let Some(tb) = self.trace.as_mut() {
            tb.set_phase(phase, now);
        }
    }

    /// [`TraceBuf::sample_occupancy`] when tracing.
    #[inline]
    pub fn sample_occupancy(&mut self, at: Cycle, dq: u32, stb: u32) {
        if let Some(tb) = self.trace.as_mut() {
            tb.sample_occupancy(at, dq, stb);
        }
    }

    /// Starts a stage timer when profiling: `None` (and no clock read)
    /// otherwise.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        self.prof.is_some().then(Instant::now)
    }

    /// Credits the time since `t0` (from [`Probes::start`]) to `stage`.
    #[inline]
    pub fn stop(&mut self, stage: Stage, t0: Option<Instant>) {
        if let (Some(p), Some(t)) = (self.prof.as_deref_mut(), t0) {
            p.add(stage, t.elapsed().as_nanos() as u64);
        }
    }

    /// The recorded trace with its open phase span closed at `now`;
    /// tracing is off afterwards. `None` when tracing was never enabled.
    pub fn take_trace(&mut self, now: Cycle) -> Option<TraceBuf> {
        self.trace.take().map(|mut tb| {
            tb.close(now);
            *tb
        })
    }

    /// The accumulated host stage times, when profiling is enabled.
    pub fn host_times(&self) -> Option<&HostTimes> {
        self.prof.as_deref()
    }

    /// The taint recorder, when taint is enabled.
    #[inline]
    pub fn taint(&mut self) -> Option<&mut TaintState> {
        self.taint.as_deref_mut()
    }

    /// The leakage summary recorded so far, when taint is enabled.
    pub fn leakage(&self) -> Option<&LeakageSummary> {
        self.taint.as_deref().map(|t| &t.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut p = Probes::default();
        p.set_phase(Phase::Normal, 0);
        p.emit(Event::Redefer { at: 1 });
        p.sample_occupancy(2, 1, 1);
        assert!(p.take_trace(3).is_none());
    }

    #[test]
    fn take_trace_closes_the_open_span_and_disables() {
        let mut p = Probes::default();
        p.enable_trace();
        p.set_phase(Phase::Normal, 0);
        p.emit(Event::Redefer { at: 1 });
        p.enable_trace();
        let tb = p.take_trace(4).expect("tracing was enabled");
        let evs: Vec<_> = tb.events().copied().collect();
        assert_eq!(
            evs,
            [
                Event::Redefer { at: 1 },
                Event::PhaseSpan {
                    phase: Phase::Normal,
                    start: 0,
                    end: 4
                },
            ],
            "re-enabling keeps the ring; the span closes at `now`"
        );
        assert!(p.take_trace(5).is_none(), "taking the trace disables it");
    }
}
