//! Sampling pin: every number `run_sampled` reports, held to a committed
//! table.
//!
//! Sampled simulation interleaves the functional interpreter, functional
//! warming (cache tags + branch predictor) and short detailed intervals;
//! a host-side change to any of the three (how warming is batched, which
//! thread applies it, how the interpreter reports its effects) promises to
//! change no reported number. This test compares the build against
//! `sampling_pin.txt`, written by an earlier commit: five models on a
//! ~1 M-instruction oltp under a period-100 000 / interval-5 000 schedule
//! with 20 000 warming instructions and again under continuous warming,
//! plus SST on a ~10 M-instruction oltp under the measurement ladder's own
//! schedule (period 2 000 000, interval 20 000, continuous warming). Each
//! row holds `insts`, `intervals`, `detailed_insts`, `detailed_cycles` and
//! every per-interval CPI as the bits of its `f64`.
//!
//! The ladder's schedule also carries the accuracy gate: its sampled CPI
//! must stay within 3% of the CPI a fully detailed run of the same
//! program measures past its warm-up.
//!
//! A change that is *meant* to move sampled numbers regenerates the table
//! in the same commit and says so:
//!
//! ```sh
//! cargo test -p sst-sim --test sampling_pin -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use sst_sim::{run_sampled, CoreModel, SampledResult, SamplingConfig, System};
use sst_workloads::{oltp_sized, Scale};

const SEED: u64 = 12345;
const TABLE: &str = include_str!("sampling_pin.txt");

fn models() -> [CoreModel; 5] {
    [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo128,
    ]
}

/// `warm: None` is continuous warming: the whole gap between intervals.
fn schedule(period: u64, interval: u64, warm: Option<u64>) -> SamplingConfig {
    SamplingConfig {
        period,
        interval,
        warm: warm.unwrap_or(period - interval - 1),
        ..SamplingConfig::default()
    }
}

fn line(txns: i64, cfg: &SamplingConfig, r: &SampledResult) -> String {
    let mut s = format!(
        "{} {} txns={txns} period={} interval={} warm={} insts={} intervals={} \
         detailed_insts={} detailed_cycles={} cpis=",
        r.model,
        r.workload,
        cfg.period,
        cfg.interval,
        cfg.warm,
        r.insts,
        r.intervals,
        r.detailed_insts,
        r.detailed_cycles
    );
    let bits: Vec<String> = r
        .cpis
        .iter()
        .map(|c| format!("{:016x}", c.to_bits()))
        .collect();
    write!(s, "{}", bits.join(",")).unwrap();
    s
}

fn measure() -> String {
    let mut runs: Vec<(CoreModel, i64, SamplingConfig)> = Vec::new();
    for cfg in [
        schedule(100_000, 5_000, Some(20_000)),
        schedule(100_000, 5_000, None),
    ] {
        for model in models() {
            runs.push((model, 16_000, cfg.clone()));
        }
    }
    runs.push((CoreModel::Sst, 160_000, schedule(2_000_000, 20_000, None)));

    let mut out = String::new();
    for (model, txns, cfg) in runs {
        let w = oltp_sized(Scale::Smoke, SEED, 0, txns);
        let label = model.label();
        let r = run_sampled(model, &w, &cfg)
            .unwrap_or_else(|e| panic!("{label} on {} ({txns} txns): {e}", w.name));
        out.push_str(&line(txns, &cfg, &r));
        out.push('\n');
    }
    out
}

#[test]
fn sampled_numbers_match_the_committed_table() {
    let now = measure();
    assert_eq!(now.lines().count(), TABLE.lines().count(), "row count");
    for (got, want) in now.lines().zip(TABLE.lines()) {
        assert_eq!(got, want, "a sampled number moved (see the module doc)");
    }
}

/// Sampled CPI against the detailed run's post-warm-up CPI: sampled
/// intervals all land past the workload's declared warm-up, so the
/// reference leaves out the cold start that sampling is built to skip.
/// The simulators are deterministic, so an error above 3% is a modelling
/// bug, not noise.
#[test]
fn ladder_schedule_cpi_is_within_3_percent_of_detailed() {
    let w = oltp_sized(Scale::Smoke, SEED, 0, 160_000);
    let sampled = run_sampled(CoreModel::Sst, &w, &schedule(2_000_000, 20_000, None))
        .expect("sampled run");
    let r = System::new(CoreModel::Sst, &w)
        .without_cosim()
        .run_checked(2_000_000_000)
        .expect("detailed run");
    let detailed = (r.cycles - r.warmup_cycles) as f64 / (r.insts - r.warmup_insts) as f64;
    let err = (sampled.cpi - detailed).abs() / detailed;
    assert!(
        err <= 0.03,
        "sampled CPI {:.5} vs detailed {detailed:.5}: {:.2}% off",
        sampled.cpi,
        err * 100.0
    );
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let table = measure();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/sampling_pin.txt");
    std::fs::write(path, table).unwrap();
}
