//! The experiment registry: every reproduced table/figure declares its
//! jobs and a fold that assembles the published tables from job results.

use std::collections::BTreeMap;

use sst_sim::report::Table;
use sst_sim::{CmpResult, RunResult};
use sst_traffic::TrafficResult;

use crate::experiments;
use crate::job::{JobOutput, JobSpec};
use crate::Env;

/// One element of a fold's output stream.
pub enum FoldItem {
    /// A named table, printed as markdown and persisted as
    /// `results/<name>.csv`.
    Table(String, Table),
    /// A free-form line (shape checks, headline numbers).
    Note(String),
}

/// What a fold produces: an ordered stream of tables and notes.
#[derive(Default)]
pub struct Fold {
    /// Tables and notes, emitted in declaration order.
    pub items: Vec<FoldItem>,
}

impl Fold {
    /// Appends a table.
    pub fn table(&mut self, name: impl Into<String>, t: Table) {
        self.items.push(FoldItem::Table(name.into(), t));
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.items.push(FoldItem::Note(s.into()));
    }

    /// The tables alone, in order.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.items.iter().filter_map(|i| match i {
            FoldItem::Table(n, t) => Some((n.as_str(), t)),
            FoldItem::Note(_) => None,
        })
    }
}

/// Completed job results, addressed by job name. Handed to fold steps
/// once every job of the experiment has succeeded.
pub struct RunCtx<'a> {
    results: &'a BTreeMap<String, JobOutput>,
}

impl<'a> RunCtx<'a> {
    /// Wraps a result map.
    pub fn new(results: &'a BTreeMap<String, JobOutput>) -> RunCtx<'a> {
        RunCtx { results }
    }

    /// The single-run result of job `name`.
    ///
    /// # Panics
    ///
    /// Panics if the job does not exist or is not a single run — both are
    /// registry-definition bugs, not runtime conditions.
    pub fn run(&self, name: &str) -> &RunResult {
        self.results
            .get(name)
            .unwrap_or_else(|| panic!("no job named {name:?}"))
            .run()
    }

    /// The CMP result of job `name`.
    ///
    /// # Panics
    ///
    /// Panics if the job does not exist or is not a CMP run.
    pub fn chip(&self, name: &str) -> &CmpResult {
        self.results
            .get(name)
            .unwrap_or_else(|| panic!("no job named {name:?}"))
            .cmp()
    }

    /// The traffic result of job `name`.
    ///
    /// # Panics
    ///
    /// Panics if the job does not exist or is not a traffic run.
    pub fn traffic(&self, name: &str) -> &TrafficResult {
        self.results
            .get(name)
            .unwrap_or_else(|| panic!("no job named {name:?}"))
            .traffic()
    }
}

/// One experiment: identity, job declaration, and fold.
pub struct Experiment {
    /// Short id (`"e4"`, `"a1"`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Family the experiment belongs to — groups `sst-run --list` output
    /// (`"paper"` for E1-E13, `"ablation"` for A1-A4, `"traffic"` for the
    /// E14 service-level family, `"internal"` for hidden fixtures).
    pub family: &'static str,
    /// What the paper says the result should look like.
    pub paper_note: &'static str,
    /// Excluded from `sst-run all` (the fault-injection experiment).
    pub hidden: bool,
    /// Declares the experiment's jobs for an environment.
    pub jobs: fn(&Env) -> Vec<JobSpec>,
    /// Assembles tables from completed job results.
    pub fold: fn(&Env, &RunCtx) -> Fold,
}

/// Every experiment, in publication order. `hidden` entries are
/// addressable by id but excluded from `all`.
pub fn all() -> Vec<Experiment> {
    experiments::all()
}

/// Resolves a CLI token to an experiment: exact id (case-insensitive) or
/// a legacy binary name (`"e4_vs_ooo"` → `"e4"`).
pub fn find(token: &str) -> Option<Experiment> {
    let token = token.to_ascii_lowercase();
    let id = token.split('_').next().unwrap_or(&token);
    all().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_study() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        for want in [
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14", "a1", "a2", "a3", "a4",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate experiment ids");
    }

    #[test]
    fn find_accepts_ids_and_legacy_names() {
        assert_eq!(find("e4").unwrap().id, "e4");
        assert_eq!(find("E4").unwrap().id, "e4");
        assert_eq!(find("e4_vs_ooo").unwrap().id, "e4");
        assert_eq!(find("a3_confidence_gate").unwrap().id, "a3");
        assert_eq!(find("e10_cmp_throughput").unwrap().id, "e10");
        assert!(find("zzz").is_none());
    }

    #[test]
    fn job_names_are_unique_within_each_experiment() {
        let env = Env {
            scale: sst_workloads::Scale::Smoke,
            seed: 1,
            max_cycles: 1,
        };
        for e in all() {
            let jobs = (e.jobs)(&env);
            let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
            let n = names.len();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), n, "duplicate job names in {}", e.id);
        }
    }

    #[test]
    fn hidden_experiments_exist_but_do_not_leak() {
        let xfail = all().into_iter().find(|e| e.id == "xfail").expect("xfail");
        assert!(xfail.hidden);
    }

    #[test]
    fn every_experiment_declares_a_known_family() {
        for e in all() {
            assert!(
                ["paper", "ablation", "traffic", "internal"].contains(&e.family),
                "{}: unknown family {:?}",
                e.id,
                e.family
            );
            assert_eq!(e.family == "internal", e.hidden, "{}", e.id);
        }
    }
}
