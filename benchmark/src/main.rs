//! `sst-benchmark`: the repository's measurement ladder.
//!
//! Six end-to-end workloads and one rung per layer, all timed from outside
//! the crates through their public functions. See `benchmark/README.md`.

mod compare;
mod driver;
mod json;
mod ladders;
mod registry;
mod report;
mod rungs;
mod span;
mod stats;

use std::path::{Path, PathBuf};

use sst_workloads::Scale;

use driver::{drive, Budget, Measured};
use json::Json;
use registry::{Source, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS};
use rungs::{Metrics, Rungs};
use span::Tracer;
use stats::Summary;

const USAGE: &str = "\
usage: benchmark/run.sh [options]
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --print-spec

Without --workload, runs every workload, each in a child process of its own,
and prints every metric by name with its unit.

options:
  --workload NAME  run one workload in this process and print its result as
                   one JSON object on the last line
  --seed N         the only source of variation (default 12345)
  --seconds S      how long the timed loop of one run measures (default 12)
  --trace [0|1]    1: record spans around every call into a layer, report the
                   per-layer metrics and write benchmark/out/trace*.json;
                   end-to-end numbers come only from runs with tracing off
  --out FILE       also write the full report (medians, quartiles, n) as JSON
  --quick          smoke scale, one repeat, small rungs: a <20 s check that
                   everything runs. Not for numbers.
  --compare A B    compare two --out reports: per workload and end-to-end
                   metric both medians, the relative difference, the bound
                   and within / improved / unresolved / differs; exact
                   metrics must be identical. Exits 1 on any 'differs'.
  --print-spec     print BENCHMARK.json as rendered from the metric tables";

/// Parsed command line for the measuring modes.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub quick: bool,
}

enum Mode {
    Measure(Opts),
    Compare(PathBuf, PathBuf),
    PrintSpec,
    Help,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: None,
        quick: false,
    };
    let mut pending_trace_value = false;
    while let Some(a) = args.next() {
        // `--trace` takes an optional 0|1.
        if std::mem::take(&mut pending_trace_value) && (a == "0" || a == "1") {
            o.trace = a == "1";
            continue;
        }
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--help" | "-h" => return Ok(Mode::Help),
            "--print-spec" => return Ok(Mode::PrintSpec),
            "--compare" => {
                let (a, b) = (value("two report files")?, value("two report files")?);
                return Ok(Mode::Compare(a.into(), b.into()));
            }
            "--workload" => {
                let name = value("a workload name")?;
                if registry::workload(&name).is_none() {
                    let known: Vec<_> = registry::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        known.join(", ")
                    ));
                }
                o.workload = Some(name);
            }
            "--seed" => {
                o.seed = value("a u64")?
                    .parse()
                    .map_err(|_| "--seed needs a u64".to_string())?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(0.0..=3600.0).contains(&o.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                o.trace = true;
                pending_trace_value = true;
            }
            "--out" => o.out = Some(value("a file")?.into()),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Mode::Measure(o))
}

fn main() {
    let code = match parse_args(std::env::args().skip(1)) {
        Ok(Mode::Help) => {
            println!("{USAGE}");
            0
        }
        Ok(Mode::PrintSpec) => {
            print!("{}", registry::benchmark_json().render_pretty());
            0
        }
        Ok(Mode::Compare(a, b)) => compare::compare_files(&a, &b),
        Ok(Mode::Measure(o)) if o.workload.is_some() => run_one(&o),
        Ok(Mode::Measure(o)) => report::run_all(&o),
        Err(e) => {
            eprintln!("sst-benchmark: {e}\n\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// The benchmark's directory in the checkout it was built from; `out/`
/// beneath it holds everything a run writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

const COMPUTE: &[&str] = &["gzip", "matmul"];
const MISSHEAVY: &[&str] = &["oltp", "erp", "web", "mcf", "gcc", "gups", "chase", "mlp8"];
/// ~63.5 instructions per transaction: 40.6M instructions.
const SAMPLED_TXNS: i64 = 640_000;

/// Runs one workload in this process and prints its result line.
fn run_one(o: &Opts) -> i32 {
    let name = o
        .workload
        .as_deref()
        .expect("run_one is called with a workload");
    if o.quick {
        println!("--quick: smoke scale, one repeat. Not for numbers.");
    }
    let scale = if o.quick { Scale::Smoke } else { Scale::Full };
    let scratch = out_dir().join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("sst-benchmark: cannot create {}: {e}", out_dir().display());
        return 1;
    }

    // A traced run splits its time: the workload's repeats (alternately
    // traced and untraced, which gives the tracing overhead) take two
    // fifths, the rungs a fixed amount of work.
    let budget = match (o.trace, o.quick) {
        (false, false) => Budget {
            seconds: o.seconds,
            min_repeats: 3,
        },
        (false, true) => Budget {
            seconds: 0.0,
            min_repeats: 1,
        },
        (true, false) => Budget {
            seconds: o.seconds * 0.4,
            min_repeats: 2,
        },
        (true, true) => Budget {
            seconds: 0.0,
            min_repeats: 2,
        },
    };
    let mut tr = Tracer::new(o.trace);
    let mut measured = match name {
        "core_compute" => drive(
            &mut ladders::CoreMatrix::new(COMPUTE, scale, o.seed, o.quick),
            budget,
            &mut tr,
        ),
        // Smoke footprints for the memory-heavy simulations: at full scale
        // the host itself is DRAM-bound on their 32 MiB images, and on a
        // shared VM that moved the same binary and seed by 25%.
        "core_missheavy" => drive(
            &mut ladders::CoreMatrix::new(MISSHEAVY, Scale::Smoke, o.seed, o.quick),
            budget,
            &mut tr,
        ),
        "cmp16" => drive(&mut ladders::Cmp16 { seed: o.seed }, budget, &mut tr),
        "sampled_oltp" => {
            let txns = if o.quick {
                SAMPLED_TXNS / 10
            } else {
                SAMPLED_TXNS
            };
            drive(
                &mut ladders::SampledOltp::new(txns, o.seed),
                budget,
                &mut tr,
            )
        }
        "traffic_oltp" => drive(
            &mut ladders::TrafficOltp {
                quick: o.quick,
                seed: o.seed,
            },
            budget,
            &mut tr,
        ),
        "study_e4" => drive(
            &mut ladders::StudyE4::new(o.seed, scratch.join("e4")),
            budget,
            &mut tr,
        ),
        other => unreachable!("parse_args admits only registered workloads, got {other}"),
    };

    let mut per_layer = Metrics::new();
    if o.trace {
        let rungs = Rungs {
            seed: o.seed,
            scale,
            shrink: if o.quick { 10 } else { 1 },
            scratch: &scratch.join("cache"),
        };
        per_layer = rungs.run_all(&mut tr, &mut measured.ops);
        workload_metrics(name, o, &measured, &tr, &mut per_layer);
        let path = out_dir().join(format!("trace.{name}.json"));
        if let Err(e) = std::fs::write(&path, tr.to_json(name).render()) {
            measured
                .ops
                .check(false, || format!("cannot write {}: {e}", path.display()));
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    print_result(name, o, &measured, &per_layer)
}

/// Per-layer values measured on the traced workload's own calls.
fn workload_metrics(name: &str, o: &Opts, m: &Measured, tr: &Tracer, out: &mut Metrics) {
    for (key, value) in &m.reference.counts {
        out.insert((*key).to_string(), *value);
    }
    out.insert("sim.cycles".into(), m.reference.cycles as f64);
    out.insert("sim.insts".into(), m.reference.insts as f64);
    let drifted = report::baseline_digest(name, o).is_some_and(|d| d != m.reference.digest);
    out.insert("sim.drift".into(), f64::from(u8::from(drifted)));

    // Throughput per model and per load point, from the tagged spans.
    let tags = ladders::models().map(|(_, tag)| (tag, format!("{tag}.minst_per_s")));
    let points = ladders::traffic_points()
        .map(|(_, _, tag)| (tag, format!("sim.service.minst_per_s.{tag}")));
    for (tag, metric) in tags.into_iter().chain(points) {
        let (insts, ns) = tr.tagged(tag);
        if ns > 0 {
            out.insert(metric, insts as f64 * 1e3 / ns as f64);
        }
    }
    // Sampling is bound by functional warming when its wall is close to
    // what the functional instructions alone cost at the traced
    // interpreter's rate (measured by the isa rung in this same process).
    if let (Some(functional), Some(rate)) = (
        m.reference.counts.get("sim.sampling.functional_insts"),
        out.get("isa.interp.run_traced_minst_per_s"),
    ) {
        out.insert(
            "sim.sampling.warm_bound_ratio".into(),
            m.wall.median / (functional / (rate * 1e6)),
        );
    }

    // Self time per layer over the traced repeats, and how much of their
    // wall the layer spans account for.
    let roots: Vec<usize> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.layer == "bench" && s.name.starts_with("repeat"))
        .map(|(i, _)| i)
        .collect();
    let (mut wall_ns, mut bench_ns) = (0u64, 0u64);
    for layer in ["workloads", "sim", "traffic", "harness"] {
        out.insert(format!("bench.self_ms.{layer}"), 0.0);
    }
    for &root in &roots {
        wall_ns += tr.spans()[root].dur_ns();
        for (layer, ns) in tr.layer_self_ns(root) {
            if layer == "bench" {
                bench_ns += ns;
            } else {
                *out.entry(format!("bench.self_ms.{layer}")).or_insert(0.0) +=
                    ns as f64 / 1e6 / roots.len() as f64;
            }
        }
    }
    out.insert(
        "bench.span_coverage".into(),
        1.0 - bench_ns as f64 / wall_ns.max(1) as f64,
    );
    out.insert("bench.spans".into(), tr.spans().len() as f64);
    out.insert(
        "bench.trace_overhead_ratio".into(),
        m.trace_overhead_ratio.unwrap_or(0.0),
    );
    out.insert(
        "bench.ops_failed_share".into(),
        m.ops.failed as f64 / m.ops.attempted.max(1) as f64,
    );
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn summary_json(value: f64, unit: &str, s: Option<&Summary>, scale: impl Fn(f64) -> f64) -> Json {
    let mut pairs = vec![("value", Json::Num(value)), ("unit", Json::str(unit))];
    if let Some(s) = s {
        pairs.extend([
            ("q1", Json::Num(scale(s.q1))),
            ("q3", Json::Num(scale(s.q3))),
            ("min", Json::Num(scale(s.min))),
            ("max", Json::Num(scale(s.max))),
            ("n", Json::Num(s.n as f64)),
        ]);
    }
    Json::obj(pairs)
}

/// The two documents a single-workload run prints.
struct ResultDocs {
    /// `#detail`: every metric with its quartiles, the result digest and
    /// the failure messages — what the all-workloads mode reads.
    detail: Json,
    /// The last line: `correct`, `attempted`, `failed`, `metrics`.
    result: Json,
}

/// Names the measurements as metrics: every end-to-end metric for an
/// untraced run, every per-layer metric for a traced one.
fn result_docs(name: &str, o: &Opts, m: &Measured, per_layer: &Metrics) -> ResultDocs {
    let (mut attempted, mut failed) = (m.ops.attempted, m.ops.failed);
    let mut failures = m.ops.failures.clone();
    let mut fail = |what: String| {
        attempted += 1;
        failed += 1;
        failures.push(what);
    };

    let mut metrics: Vec<(String, Json)> = Vec::new();
    if o.trace {
        let mut produced = per_layer.clone();
        for metric in PER_LAYER {
            let value = match (produced.remove(metric.name), metric.source) {
                (Some(v), _) => v,
                (None, Source::Workload) => 0.0,
                (None, Source::Rung) => {
                    fail(format!("rung {} produced no value", metric.name));
                    0.0
                }
            };
            metrics.push((
                metric.name.to_string(),
                summary_json(value, metric.unit, None, |x| x),
            ));
        }
        for stray in produced.keys() {
            fail(format!(
                "{stray} was measured but is not a registered metric"
            ));
        }
    } else {
        // Quartiles of a rate are the reciprocal quartiles of the time.
        let insts = m.reference.insts as f64;
        let rate = |wall: f64| insts / wall / 1e6;
        let inverse = Summary {
            q1: m.wall.q3,
            q3: m.wall.q1,
            min: m.wall.max,
            max: m.wall.min,
            ..m.wall
        };
        for metric in END_TO_END {
            let json = match metric.name {
                "sim_minst_per_s" => {
                    summary_json(rate(m.wall.median), metric.unit, Some(&inverse), rate)
                }
                "setup_s" => summary_json(m.setup.median, metric.unit, Some(&m.setup), |x| x),
                "peak_rss_mb" => summary_json(peak_rss_mb(), metric.unit, None, |x| x),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            metrics.push((metric.name.to_string(), json));
        }
    }

    let value_and_unit = Json::Obj(
        metrics
            .iter()
            .map(|(k, v)| {
                let pick = |key| (key, v.get(key).cloned().unwrap_or(Json::Null));
                (k.clone(), Json::obj([pick("value"), pick("unit")]))
            })
            .collect(),
    );
    ResultDocs {
        detail: Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(o.seed as f64)),
            ("quick", Json::Bool(o.quick)),
            ("repeats", Json::Num(m.wall.n as f64)),
            ("digest", Json::str(format!("{:016x}", m.reference.digest))),
            (
                if o.trace { "per_layer" } else { "end_to_end" },
                Json::Obj(metrics),
            ),
            (
                "failures",
                Json::Arr(failures.iter().map(Json::str).collect()),
            ),
        ]),
        result: Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", value_and_unit),
        ]),
    }
}

/// Prints one section of a `#detail` document — every metric by name with
/// its unit, and its quartiles where it has them — then the failures.
pub fn print_metrics(detail: &Json, section: &str) {
    for (name, m) in detail.get(section).and_then(Json::as_obj).unwrap_or(&[]) {
        let num = |key| m.get(key).and_then(Json::as_f64);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let spread = match (num("q1"), num("q3"), num("n")) {
            (Some(q1), Some(q3), Some(n)) => format!("  [q1 {q1:.6} q3 {q3:.6} n {n}]"),
            _ => String::new(),
        };
        println!(
            "  {name:<42} {:>16.6} {unit}{spread}",
            num("value").unwrap_or(0.0)
        );
    }
    for f in detail.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("  FAILED: {}", f.as_str().unwrap_or("?"));
    }
}

/// Prints the human-readable table, the `#detail` line, and last the
/// result object the contract asks for.
fn print_result(name: &str, o: &Opts, m: &Measured, per_layer: &Metrics) -> i32 {
    let docs = result_docs(name, o, m, per_layer);
    let count = |key| docs.result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "{name}: seed {}, {} timed repeat(s), {} operation(s), {} failed",
        o.seed,
        m.wall.n,
        count("attempted"),
        count("failed")
    );
    print_metrics(
        &docs.detail,
        if o.trace { "per_layer" } else { "end_to_end" },
    );
    println!("#detail {}", docs.detail.render());
    println!("{}", docs.result.render());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let Ok(Mode::Measure(o)) = parse(&[
            "--workload",
            "cmp16",
            "--seed",
            "777",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]) else {
            panic!("expected a measuring mode");
        };
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("cmp16"), 777, 10.0, true)
        );
        let Ok(Mode::Measure(o)) = parse(&["--trace", "0", "--quick"]) else {
            panic!()
        };
        assert!(!o.trace && o.quick && o.workload.is_none());
        // A bare --trace switches tracing on and swallows nothing.
        let Ok(Mode::Measure(o)) = parse(&["--trace", "--seed", "9"]) else {
            panic!()
        };
        assert!(o.trace);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "minus-one"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--compare", "only-one.json"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    fn fake_measured() -> Measured {
        let wall = Summary::of(&[2.0, 2.5, 1.5]);
        Measured {
            wall,
            setup: Summary::of(&[0.25, 0.5]),
            trace_overhead_ratio: None,
            reference: driver::UnitOut {
                insts: 4_000_000,
                cycles: 9,
                digest: 0xabc,
                ..Default::default()
            },
            ops: driver::Ops {
                attempted: 7,
                failed: 0,
                failures: vec![],
            },
        }
    }

    fn opts(trace: bool) -> Opts {
        Opts {
            workload: Some("cmp16".into()),
            seed: 5,
            seconds: 1.0,
            trace,
            out: None,
            quick: false,
        }
    }

    #[test]
    fn the_result_line_has_the_contracts_shape_and_survives_a_round_trip() {
        let docs = result_docs("cmp16", &opts(false), &fake_measured(), &Metrics::new());
        let back = Json::parse(&docs.result.render()).expect("the result line parses");
        assert_eq!(back, docs.result);
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        let metrics = back.get("metrics").and_then(Json::as_obj).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (_, m) in metrics {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        // 4M instructions in a 2 s median unit.
        assert_eq!(
            back.get("metrics")
                .unwrap()
                .get("sim_minst_per_s")
                .unwrap()
                .get("value"),
            Some(&Json::Num(2.0))
        );
        // The detail line carries the quartiles; a faster quartile is a higher rate.
        let rate = docs
            .detail
            .get("end_to_end")
            .unwrap()
            .get("sim_minst_per_s")
            .unwrap();
        assert!(rate.get("q1").and_then(Json::as_f64) < rate.get("q3").and_then(Json::as_f64));
        assert_eq!(Json::parse(&docs.detail.render()).unwrap(), docs.detail);
    }

    #[test]
    fn a_traced_result_lists_every_per_layer_metric_and_flags_gaps() {
        // No rung ran: every rung metric is a failed operation, every
        // workload counter defaults to zero, and a stray name is flagged.
        let stray = Metrics::from([("not.registered".to_string(), 1.0)]);
        let docs = result_docs("cmp16", &opts(true), &fake_measured(), &stray);
        let metrics = docs.result.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let rungs = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Rung)
            .count();
        assert_eq!(
            docs.result.get("failed"),
            Some(&Json::Num((rungs + 1) as f64))
        );
        assert_eq!(docs.result.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn every_registered_workload_is_dispatched() {
        // `run_one` matches on these names; keep the two lists together.
        let dispatched = [
            "core_compute",
            "core_missheavy",
            "cmp16",
            "sampled_oltp",
            "traffic_oltp",
            "study_e4",
        ];
        let registered: Vec<_> = registry::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(registered, dispatched);
    }
}
