//! The all-workloads mode: one child process per workload, one report.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::registry::WORKLOADS;
use crate::{out_dir, Opts};

/// The committed seed-12345 report (`run.sh --trace --out
/// benchmark/baseline.json`): the latest numbers, and the digests that
/// `sim.drift` compares against.
fn baseline() -> Option<Json> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baseline.json");
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// The baseline's result digest for `workload`, when this run is
/// comparable with the baseline (same seed, full scale).
pub fn baseline_digest(workload: &str, o: &Opts) -> Option<u64> {
    let base = baseline()?;
    if o.quick || base.get("seed").and_then(Json::as_f64) != Some(o.seed as f64) {
        return None;
    }
    let hex = base
        .get("workloads")?
        .get(workload)?
        .get("digest")?
        .as_str()?;
    u64::from_str_radix(hex, 16).ok()
}

/// What one child printed: its `#detail` object and its result object.
struct ChildOutput {
    detail: Json,
    result: Json,
}

/// Re-executes this binary for one workload, so that peak memory is per
/// workload and no allocator state leaks from one workload to the next.
fn run_child(workload: &str, o: &Opts, trace: bool) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or("child printed no #detail line")
        .and_then(|l| Json::parse(l).map_err(|_| "child's #detail line is not JSON"))?;
    let result = text
        .lines()
        .last()
        .ok_or("child printed nothing")
        .and_then(|l| Json::parse(l).map_err(|_| "child's last line is not JSON"))?;
    Ok(ChildOutput { detail, result })
}

/// Runs every workload, prints every metric, and optionally writes the
/// report. Returns the exit code: 0 only when no operation failed.
pub fn run_all(o: &Opts) -> i32 {
    if o.quick {
        println!("--quick: smoke scale, one repeat. Not for numbers.");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "sst-benchmark: {} workloads, seed {}, {} s each, host cpus {nproc} (one simulation at a time)",
        WORKLOADS.len(),
        o.seed,
        o.seconds
    );
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    for w in WORKLOADS {
        let mut entry: Vec<(String, Json)> = Vec::new();
        let passes: &[bool] = if o.trace { &[false, true] } else { &[false] };
        for &trace in passes {
            let section = if trace { "per_layer" } else { "end_to_end" };
            match run_child(w.name, o, trace) {
                Ok(child) => {
                    let count =
                        |key| child.result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                    attempted += count("attempted");
                    failed += count("failed");
                    println!(
                        "\n{} [{section}]  attempted {} failed {}",
                        w.name,
                        count("attempted"),
                        count("failed")
                    );
                    crate::print_metrics(&child.detail, section);
                    let metrics = child
                        .detail
                        .get(section)
                        .and_then(Json::as_obj)
                        .unwrap_or(&[]);
                    if !trace {
                        entry.push((
                            "digest".into(),
                            child.detail.get("digest").cloned().unwrap_or(Json::Null),
                        ));
                    }
                    entry.push((
                        format!("{section}_attempted"),
                        Json::Num(count("attempted") as f64),
                    ));
                    entry.push((
                        format!("{section}_failed"),
                        Json::Num(count("failed") as f64),
                    ));
                    entry.push((section.into(), Json::Obj(metrics.to_vec())));
                }
                // A child that panics or exits non-zero is one failed
                // operation, not the end of the run.
                Err(e) => {
                    attempted += 1;
                    failed += 1;
                    println!("\n{} [{section}]  FAILED: {e}", w.name);
                    entry.push((format!("{section}_attempted"), Json::Num(1.0)));
                    entry.push((format!("{section}_failed"), Json::Num(1.0)));
                }
            }
            if trace {
                let path = out_dir().join(format!("trace.{}.json", w.name));
                if let Some(Json::Arr(s)) = std::fs::read_to_string(path)
                    .ok()
                    .and_then(|t| Json::parse(&t).ok())
                {
                    spans.extend(s);
                }
            }
        }
        workloads.push((w.name.to_string(), Json::Obj(entry)));
    }
    println!(
        "\nops_failed_share: {failed} of {attempted} operations failed ({})",
        failed as f64 / attempted.max(1) as f64
    );
    if o.trace {
        let path = out_dir().join("trace.json");
        match std::fs::write(&path, Json::Arr(spans).render()) {
            Ok(()) => println!("(spans written to {})", path.display()),
            Err(e) => eprintln!("sst-benchmark: cannot write {}: {e}", path.display()),
        }
    }
    if let Some(path) = &o.out {
        let doc = Json::obj([
            ("seed", Json::Num(o.seed as f64)),
            ("seconds", Json::Num(o.seconds)),
            ("quick", Json::Bool(o.quick)),
            ("host_cpus", Json::Num(nproc as f64)),
            ("workloads", Json::Obj(workloads)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render_pretty()) {
            eprintln!("sst-benchmark: cannot write {}: {e}", path.display());
            return 1;
        }
        println!("(report written to {})", path.display());
    }
    i32::from(failed > 0)
}
