//! Tables 1–3: giant component and user coverage per ad hoc method,
//! standalone and as GA initializer.
//!
//! A table is the table view of its scenario's GA batch
//! ([`crate::batch::run_ga_batch`]), which also yields the matching
//! figure; this module holds the row types and their renderings.

use crate::scenario::Scenario;
use wmn_placement::registry::AdHocMethod;

/// One row of a paper table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRow {
    /// The ad hoc method.
    pub method: AdHocMethod,
    /// Giant component size of the GA best (ad hoc method initializing GA).
    pub giant_by_ga: usize,
    /// User coverage of the GA best.
    pub coverage_by_ga: usize,
    /// Giant component size of the standalone ad hoc placement.
    pub giant_standalone: usize,
    /// User coverage of the standalone ad hoc placement.
    pub coverage_standalone: usize,
}

/// A full reproduced table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableResult {
    /// The client-distribution scenario.
    pub scenario: Scenario,
    /// Routers in the evaluated instance (64 at paper scale; more under
    /// [`crate::scenario::ScenarioScale`]).
    pub router_count: usize,
    /// Clients in the evaluated instance (192 at paper scale).
    pub client_count: usize,
    /// One row per ad hoc method, in paper order.
    pub rows: Vec<TableRow>,
}

impl TableResult {
    /// The row for `method`, if present.
    pub fn row(&self, method: AdHocMethod) -> Option<&TableRow> {
        self.rows.iter().find(|r| r.method == method)
    }

    /// The method with the largest GA giant component (the paper's winner —
    /// HotSpot on all three tables).
    pub fn best_ga_method(&self) -> Option<AdHocMethod> {
        self.rows
            .iter()
            .max_by_key(|r| (r.giant_by_ga, r.coverage_by_ga))
            .map(|r| r.method)
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| Method | Giant comp. by GA | Coverage by GA | Giant comp. (standalone) | Coverage (standalone) |\n|---|---|---|---|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} |\n",
                r.method.name(),
                r.giant_by_ga,
                r.coverage_by_ga,
                r.giant_standalone,
                r.coverage_standalone
            ));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut rows: Vec<Vec<String>> = vec![vec![
            "method".to_owned(),
            "giant_by_ga".to_owned(),
            "coverage_by_ga".to_owned(),
            "giant_standalone".to_owned(),
            "coverage_standalone".to_owned(),
        ]];
        for r in &self.rows {
            rows.push(vec![
                r.method.name().to_owned(),
                r.giant_by_ga.to_string(),
                r.coverage_by_ga.to_string(),
                r.giant_standalone.to_string(),
                r.coverage_standalone.to_string(),
            ]);
        }
        crate::csv::render(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::run_ga_batch;
    use crate::scenario::ExperimentConfig;
    use wmn_obs::TelemetryRecorder;

    fn quick_table(scenario: Scenario) -> TableResult {
        run_ga_batch(scenario, &ExperimentConfig::quick(), None)
            .unwrap()
            .table
    }

    #[test]
    fn table_has_seven_rows_in_paper_order() {
        let t = quick_table(Scenario::Normal);
        let methods: Vec<&str> = t.rows.iter().map(|r| r.method.name()).collect();
        assert_eq!(
            methods,
            vec!["Random", "ColLeft", "Diag", "Cross", "Near", "Corners", "HotSpot"]
        );
    }

    #[test]
    fn ga_dominates_standalone() {
        // The paper's headline observation: the GA improves every ad hoc
        // method far above its standalone quality.
        let t = quick_table(Scenario::Normal);
        for r in &t.rows {
            assert!(
                r.giant_by_ga >= r.giant_standalone,
                "{}: GA {} < standalone {}",
                r.method.name(),
                r.giant_by_ga,
                r.giant_standalone
            );
        }
    }

    #[test]
    fn values_are_bounded() {
        let t = quick_table(Scenario::Weibull);
        for r in &t.rows {
            assert!(r.giant_by_ga <= 64 && r.giant_standalone <= 64);
            assert!(r.coverage_by_ga <= 192 && r.coverage_standalone <= 192);
        }
    }

    #[test]
    fn markdown_and_csv_render() {
        let t = quick_table(Scenario::Exponential);
        let md = t.to_markdown();
        assert!(md.contains("| HotSpot |"));
        assert_eq!(md.lines().count(), 2 + 7);
        let csv = t.to_csv();
        assert!(csv.starts_with("method,"));
        assert_eq!(csv.lines().count(), 1 + 7);
    }

    #[test]
    fn deterministic_per_config() {
        let a = quick_table(Scenario::Normal);
        let b = quick_table(Scenario::Normal);
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_table_matches_plain_and_collects_counters() {
        let config = ExperimentConfig::quick();
        let mut recorder = TelemetryRecorder::new();
        let recorded = run_ga_batch(Scenario::Normal, &config, Some(&mut recorder))
            .unwrap()
            .table;
        assert_eq!(recorded, quick_table(Scenario::Normal));
        // Seven GA runs of `generations` each.
        assert_eq!(
            recorder.counters().get("ga.generations"),
            Some(&((7 * config.generations) as u64))
        );
        assert!(recorder.counters().contains_key("topology.batch_repairs"));
    }

    #[test]
    fn row_lookup_and_best() {
        let t = quick_table(Scenario::Normal);
        assert!(t.row(AdHocMethod::HotSpot).is_some());
        assert!(t.best_ga_method().is_some());
    }
}
