//! `sst-run trace`: capture a Chrome-trace/Perfetto timeline for an
//! experiment's single-core jobs.
//!
//! ```text
//! sst-run trace e3 --model sst --out trace.json
//! ```
//!
//! Re-runs the selected jobs with the typed event sink enabled (the
//! cache is deliberately bypassed — cached results carry no rings) and
//! writes one JSON document that loads directly in `chrome://tracing`
//! or [ui.perfetto.dev](https://ui.perfetto.dev). Each job becomes a
//! process; its core pipeline and memory port become the two threads
//! underneath. Alongside the file, the per-phase cycle table of every
//! traced run is printed — the same rows that land in `RunResult::phases`
//! — so the terminal answers "where did the cycles go" without opening
//! the viewer.
//!
//! Tracing is observation-only: the traced `RunResult` is byte-identical
//! to an untraced run (enforced by `crates/sim/tests/trace_equiv.rs`),
//! so the numbers printed here agree exactly with `sst-run <exp>`.

use sst_obs::ChromeTrace;
use sst_sim::System;
use sst_workloads::Workload;

use crate::job::JobKind;
use crate::{registry, Env};

const TRACE_USAGE: &str = "\
usage: sst-run trace <experiment>... [options]

Re-runs the experiment's single-core jobs with event tracing enabled
and writes one Chrome-trace JSON (open in chrome://tracing or
ui.perfetto.dev). Each job is a process; core and memory-port rings
are its threads. Per-phase cycle tables are printed alongside.

options:
  --model M       only jobs whose name starts with \"M/\" (the model
                  token, e.g. sst, ea, scout, io, o128); repeatable
  --workload W    only jobs of workload W (the part after '/'); repeatable
  --out PATH      where to write the JSON (default: trace.json)
  --help          this text

environment:
  SST_SCALE / SST_SEED / SST_MAX_CYCLES as for sst-run (tracing an
  experiment at full scale can produce very large files; smoke scale
  is usually what you want in a viewer)

exit status: 0 when every selected job ran, 1 otherwise.";

/// One selected-and-traced job, ready for export and table printing.
struct Traced {
    name: String,
    result: sst_sim::RunResult,
    trace: sst_sim::SystemTrace,
}

/// Entry point for `sst-run trace <args>`. Returns the process exit code.
pub fn trace_main<I: Iterator<Item = String>>(mut args: I) -> i32 {
    let mut tokens: Vec<String> = Vec::new();
    let mut models: Vec<String> = Vec::new();
    let mut workloads: Vec<String> = Vec::new();
    let mut out = String::from("trace.json");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{TRACE_USAGE}");
                return 0;
            }
            "--model" => match args.next() {
                Some(m) => models.push(m),
                None => return trace_arg_err("--model needs a model token"),
            },
            "--workload" => match args.next() {
                Some(w) => workloads.push(w),
                None => return trace_arg_err("--workload needs a workload name"),
            },
            "--out" => match args.next() {
                Some(p) => out = p,
                None => return trace_arg_err("--out needs a path"),
            },
            other if other.starts_with('-') => {
                return trace_arg_err(&format!("unknown option {other:?}"));
            }
            _ => tokens.push(a),
        }
    }
    if tokens.is_empty() {
        eprintln!("{TRACE_USAGE}");
        return 2;
    }
    match Env::from_os() {
        Ok(env) => run_trace(&tokens, &models, &workloads, &out, &env),
        Err(e) => {
            eprintln!("sst-run trace: {e}");
            2
        }
    }
}

/// The work behind [`trace_main`], with the environment passed in so
/// tests can pin the scale without touching process-global env vars.
fn run_trace(
    tokens: &[String],
    models: &[String],
    workloads: &[String],
    out: &str,
    env: &Env,
) -> i32 {
    let mut selected: Vec<(String, sst_sim::CoreModel, String, sst_mem::MemConfig)> = Vec::new();
    for t in tokens {
        let exp = match registry::find(t) {
            Some(e) => e,
            None => {
                eprintln!("sst-run trace: unknown experiment {t:?} (try sst-run --list)");
                return 2;
            }
        };
        for job in (exp.jobs)(env) {
            // Tracing is a single-core instrument: CMP/traffic jobs are
            // skipped (their cores multiplex workload slices and would
            // need per-core rings the CmpSystem does not expose yet).
            let (model, workload, mem) = match job.kind {
                JobKind::Single { model, workload, mem }
                | JobKind::Leakage { model, workload, mem } => (model, workload, mem),
                _ => continue,
            };
            let (tok, wname) = match job.name.split_once('/') {
                Some((m, w)) => (m.to_string(), w.to_string()),
                None => (job.name.clone(), workload.clone()),
            };
            if !models.is_empty() && !models.contains(&tok) {
                continue;
            }
            if !workloads.is_empty() && !workloads.contains(&wname) {
                continue;
            }
            selected.push((job.name, model, workload, mem));
        }
    }
    if selected.is_empty() {
        eprintln!(
            "sst-run trace: no single-core jobs matched (models {models:?}, workloads {workloads:?})"
        );
        return 2;
    }

    println!(
        "sst-run trace: {} job(s), scale={}, writing {}",
        selected.len(),
        env.scale_token(),
        out
    );

    let mut traced: Vec<Traced> = Vec::new();
    for (name, model, workload, mem) in selected {
        let w = match Workload::by_name(&workload, env.scale, env.seed) {
            Some(w) => w,
            None => {
                eprintln!("sst-run trace: {name}: unknown workload {workload:?}");
                return 1;
            }
        };
        let sys = System::with_mem(model, &w, &mem).without_cosim().with_tracing();
        match sys.run_with_trace(env.max_cycles) {
            Ok((result, trace)) => traced.push(Traced { name, result, trace }),
            Err(e) => {
                eprintln!("sst-run trace: {name}: {e}");
                return 1;
            }
        }
    }
    let out = out.to_string();

    // Export: one process per job, core ring on tid 0, mem ring on tid 1.
    let mut chrome = ChromeTrace::new();
    for (i, t) in traced.iter().enumerate() {
        let pid = i as u64 + 1;
        chrome.name_process(pid, &t.name);
        if let Some(core) = &t.trace.core {
            chrome.name_thread(pid, 0, "core");
            chrome.add_track(pid, 0, &format!("{}:core", t.name), core);
        }
        if let Some(mem) = &t.trace.mem {
            chrome.name_thread(pid, 1, "mem");
            chrome.add_track(pid, 1, &format!("{}:mem", t.name), mem);
        }
    }
    if let Err(e) = std::fs::write(&out, chrome.finish()) {
        eprintln!("sst-run trace: cannot write {out}: {e}");
        return 1;
    }

    for t in &traced {
        print_phase_table(&t.name, &t.result);
    }
    println!("(trace written to {out} — open in chrome://tracing or ui.perfetto.dev)");
    0
}

/// Prints the per-phase cycle table of one run; the rows are
/// `RunResult::phases` and sum exactly to `RunResult::cycles`.
fn print_phase_table(name: &str, r: &sst_sim::RunResult) {
    println!("{name}: {} insts, {} cycles, IPC {:.3}", r.insts, r.cycles, r.ipc());
    let total: u64 = r.phases.iter().map(|&(_, v)| v).sum();
    for (phase, cycles) in &r.phases {
        let pct = if total == 0 { 0.0 } else { *cycles as f64 * 100.0 / total as f64 };
        println!("  {phase:<8} {cycles:>14} cycles  {pct:>5.1}%");
    }
    if total != r.cycles {
        // Cannot happen for the in-tree models (the equivalence suite
        // pins it); loud is better than wrong if a new model slips.
        println!("  WARNING: phase rows sum to {total}, run took {} cycles", r.cycles);
    }
}

fn trace_arg_err(msg: &str) -> i32 {
    eprintln!("sst-run trace: {msg}\n\n{TRACE_USAGE}");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_mentions_the_canonical_invocation() {
        assert!(TRACE_USAGE.contains("--model"));
        assert!(TRACE_USAGE.contains("--out"));
    }

    #[test]
    fn end_to_end_smoke_trace() {
        // Trace one model on one workload of e3 into a temp file and
        // check the JSON envelope. The Env is passed directly (not via
        // process env vars) so parallel tests cannot race on SST_SCALE.
        let dir = std::env::temp_dir().join(format!("sst-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let env = Env {
            scale: sst_workloads::Scale::Smoke,
            seed: 7,
            max_cycles: 200_000_000,
        };
        let code = run_trace(
            &["e3".to_string()],
            &["sst".to_string()],
            &["gzip".to_string()],
            path.to_str().unwrap(),
            &env,
        );
        assert_eq!(code, 0);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"ph\":\"B\""), "has phase spans");
        assert!(body.contains("process_name"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_experiment_is_rejected() {
        let env = Env {
            scale: sst_workloads::Scale::Smoke,
            seed: 7,
            max_cycles: 1,
        };
        assert_eq!(run_trace(&["zzz".to_string()], &[], &[], "/dev/null", &env), 2);
    }
}
