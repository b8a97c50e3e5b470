//! The timing loop shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::span::Tracer;
use crate::stats::{median, Summary};

/// Operations attempted and failed. An operation is one simulation run,
/// one harness job, or one verification check.
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; `what` is only built when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// What one timed unit simulated, derived after the clock stopped.
#[derive(Clone, Debug, Default)]
pub struct UnitOut {
    /// Committed simulated instructions.
    pub insts: u64,
    /// Simulated cycles, summed over the unit's runs.
    pub cycles: u64,
    /// FNV-1a digest of every result structure the unit produced; equal
    /// digests mean no simulated statistic moved.
    pub digest: u64,
    /// Exact per-layer counts (they repeat for a seed).
    pub counts: BTreeMap<&'static str, f64>,
}

/// FNV-1a over the `Debug` text of a result structure.
pub fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes(), FNV_OFFSET)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    bytes.iter().fold(seed, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One rung of the end-to-end ladder.
pub trait Ladder {
    /// Inputs built before the clock starts.
    type Input;
    /// Raw results handed from the timed unit to the untimed check.
    type Raw;

    /// Builds the unit's inputs from the seed. Timed as `setup_s`.
    fn setup(&mut self, tr: &mut Tracer) -> Self::Input;

    /// The timed unit. Does the work and nothing else.
    fn unit(&mut self, input: Self::Input, tr: &mut Tracer) -> Self::Raw;

    /// Untimed, after every unit: checks the raw results and condenses
    /// them.
    fn check(&mut self, raw: Self::Raw, tr: &mut Tracer, ops: &mut Ops) -> UnitOut;

    /// Untimed, once per process, after the timed repeats: the workload's
    /// correctness checks against an independent path (co-simulation,
    /// another thread count, a detailed reference run). May add counts to
    /// `reference`; `wall` is the timed unit's summary, for ratios.
    fn verify(&mut self, reference: &mut UnitOut, wall: &Summary, tr: &mut Tracer, ops: &mut Ops);
}

/// How long and how often to time.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Wall-clock budget for the timed loop (set-up plus unit).
    pub seconds: f64,
    /// Timed repeats made even when the budget is already spent.
    pub min_repeats: usize,
}

pub struct Measured {
    pub wall: Summary,
    pub setup: Summary,
    /// Median wall of the repeats that ran with the tracer on, over the
    /// median of those that ran with it off (`None` when not tracing).
    pub trace_overhead_ratio: Option<f64>,
    pub reference: UnitOut,
    pub ops: Ops,
}

/// Warms up once, repeats set-up + unit until the budget is spent, then
/// verifies. Every repeat's digest must equal the warm-up's. When the
/// tracer is on, every second repeat runs with it off, so that one process
/// yields the traced-to-untraced ratio.
pub fn drive<L: Ladder>(ladder: &mut L, budget: Budget, tr: &mut Tracer) -> Measured {
    let mut ops = Ops::default();
    let tracing = tr.enabled;

    // Warm-up: first-touch page faults and allocator growth stay out of
    // the timed repeats. Its results are the reference for the rest.
    tr.enabled = false;
    let input = ladder.setup(tr);
    let raw = ladder.unit(input, tr);
    let mut reference = ladder.check(raw, tr, &mut ops);

    let (mut wall, mut setup, mut traced_wall, mut plain_wall) = (vec![], vec![], vec![], vec![]);
    let started = Instant::now();
    loop {
        let repeat = wall.len();
        tr.enabled = tracing && repeat % 2 == 0;
        tr.repeat = repeat as u32;
        let span = tr.enter("bench", || format!("repeat {repeat}"));
        let t0 = Instant::now();
        let input = ladder.setup(tr);
        let t1 = Instant::now();
        let raw = ladder.unit(input, tr);
        let t2 = Instant::now();
        let out = ladder.check(raw, tr, &mut ops);
        tr.exit(span);

        let unit_s = (t2 - t1).as_secs_f64();
        setup.push((t1 - t0).as_secs_f64());
        wall.push(unit_s);
        if tracing {
            if tr.enabled {
                &mut traced_wall
            } else {
                &mut plain_wall
            }
            .push(unit_s);
        }
        ops.check(out.digest == reference.digest, || {
            format!(
                "repeat {repeat}: digest {:016x} != warm-up's {:016x}",
                out.digest, reference.digest
            )
        });

        // Stop when one more repeat would overrun the budget.
        let next = median(&wall) + median(&setup);
        if wall.len() >= budget.min_repeats
            && started.elapsed().as_secs_f64() + next > budget.seconds
        {
            break;
        }
    }
    tr.enabled = false;
    let wall = Summary::of(&wall);
    ladder.verify(&mut reference, &wall, tr, &mut ops);
    tr.enabled = tracing;

    let trace_overhead_ratio = (!traced_wall.is_empty() && !plain_wall.is_empty())
        .then(|| median(&traced_wall) / median(&plain_wall));
    Measured {
        wall,
        setup: Summary::of(&setup),
        trace_overhead_ratio,
        reference,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        units: u32,
        flaky: bool,
    }

    impl Ladder for Fake {
        type Input = u32;
        type Raw = u32;
        fn setup(&mut self, _: &mut Tracer) -> u32 {
            7
        }
        fn unit(&mut self, input: u32, _: &mut Tracer) -> u32 {
            self.units += 1;
            input
        }
        fn check(&mut self, raw: u32, _: &mut Tracer, ops: &mut Ops) -> UnitOut {
            ops.check(raw == 7, || "input lost".into());
            let digest = if self.flaky { u64::from(self.units) } else { 1 };
            UnitOut {
                insts: 100,
                cycles: 200,
                digest,
                ..UnitOut::default()
            }
        }
        fn verify(&mut self, reference: &mut UnitOut, _: &Summary, _: &mut Tracer, ops: &mut Ops) {
            ops.check(true, String::new);
            reference.counts.insert("verified", 1.0);
        }
    }

    const QUICK: Budget = Budget {
        seconds: 0.0,
        min_repeats: 3,
    };

    #[test]
    fn drive_warms_up_verifies_and_makes_the_minimum_repeats() {
        let mut f = Fake {
            units: 0,
            flaky: false,
        };
        let m = drive(&mut f, QUICK, &mut Tracer::new(false));
        assert_eq!(f.units, 4, "one warm-up and three timed repeats");
        assert_eq!((m.wall.n, m.setup.n), (3, 3));
        // 4 checks, 1 verify, 3 digest comparisons.
        assert_eq!((m.ops.attempted, m.ops.failed), (8, 0));
        assert_eq!(m.reference.counts["verified"], 1.0);
        assert!(m.trace_overhead_ratio.is_none());
    }

    #[test]
    fn a_repeat_that_disagrees_with_the_warm_up_is_a_failed_operation() {
        let mut f = Fake {
            units: 0,
            flaky: true,
        };
        let m = drive(&mut f, QUICK, &mut Tracer::new(false));
        assert_eq!(m.ops.failed, 3);
        assert!(m.ops.failures[0].contains("digest"));
    }

    #[test]
    fn a_traced_run_records_spans_for_every_other_repeat() {
        let mut f = Fake {
            units: 0,
            flaky: false,
        };
        let mut tr = Tracer::new(true);
        let budget = Budget {
            min_repeats: 4,
            ..QUICK
        };
        let m = drive(&mut f, budget, &mut tr);
        assert!(m.trace_overhead_ratio.is_some());
        let repeats: Vec<u32> = tr.spans().iter().map(|s| s.repeat).collect();
        assert_eq!(repeats, vec![0, 2]);
        assert!(tr.enabled, "the tracer is handed back switched on");
    }

    #[test]
    fn digests_differ_when_the_text_differs() {
        assert_ne!(digest_of(&(1, 2)), digest_of(&(1, 3)));
        assert_eq!(digest_of(&"x"), digest_of(&"x"));
    }
}
