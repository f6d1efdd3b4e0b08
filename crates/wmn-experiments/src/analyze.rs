//! Telemetry analysis behind the `wmn-report` binary.
//!
//! Reads back the artifacts `--telemetry <dir>` writes (see
//! [`crate::telemetry`]) and turns them into human-readable reports:
//!
//! * `flame` — renders the phase-attribution tree of a
//!   `wmn-telemetry/v2` document as a **counter-weighted flamegraph**:
//!   every line is a phase scope, weighted by the deterministic work
//!   counters recorded inside it rather than by wall-clock samples, so
//!   the rendered split (e.g. edge repair vs component repair vs
//!   coverage inside `apply_moves`) is byte-identical for every thread
//!   count and machine.
//! * `diff` — compares the flat counter profiles (and, when both sides
//!   carry one, the attribution trees) of two documents and lists every
//!   drifted key in the `  <key>: baseline <b> -> run <r>` form that
//!   `scripts/check_counters.sh` gates on. A relative `--threshold`
//!   tolerates bounded drift.
//! * `summarize` — a one-screen digest of a run's counters and phases.
//! * `baseline` — rewrites a telemetry document into the committed
//!   `COUNTERS_baseline.json` shape (`wmn-counters-baseline/v1`),
//!   byte-compatible with what the retired `jq` pipeline produced.
//!
//! Inputs are validated strictly by their `schema` member: the readers
//! here accept `wmn-telemetry/v2` and `wmn-counters-baseline/v1`, and
//! reject anything else — in particular the retired `wmn-telemetry/v1`
//! shape — with an error naming both the found and the expected schema,
//! instead of guessing at missing members.

use crate::error::{write_file, ExperimentError};
use crate::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Schema identifier of `telemetry.json` documents this reader accepts.
pub const TELEMETRY_SCHEMA: &str = "wmn-telemetry/v2";
/// Schema identifier of counter-baseline documents (read and written).
pub const BASELINE_SCHEMA: &str = "wmn-counters-baseline/v1";

/// The canonical baseline workload (must match
/// `scripts/check_counters.sh`, which runs exactly this command line).
pub const BASELINE_WORKLOAD: &str = "fig3 --quick --threads 1 --ga-threads 1 (fixed seeds 2009/42)";
/// How to regenerate the committed baseline.
pub const BASELINE_REFRESH: &str = "scripts/check_counters.sh --refresh";

/// One node of a parsed phase-attribution tree (the reader-side mirror
/// of `wmn_obs::PhaseNode`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttributionNode {
    /// Counter deltas recorded directly in this scope.
    pub counters: BTreeMap<String, u64>,
    /// Nested phase scopes.
    pub children: BTreeMap<String, AttributionNode>,
}

impl AttributionNode {
    /// Sum of this node's own counter deltas.
    pub fn self_total(&self) -> u64 {
        self.counters.values().sum()
    }

    /// Sum of this node's and every descendant's counter deltas.
    pub fn total(&self) -> u64 {
        self.self_total()
            + self
                .children
                .values()
                .map(AttributionNode::total)
                .sum::<u64>()
    }

    /// `true` when the node records nothing at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.children.is_empty()
    }

    fn flatten_into(&self, prefix: &str, out: &mut BTreeMap<String, u64>) {
        for (name, delta) in &self.counters {
            *out.entry(format!("{prefix}.{name}")).or_insert(0) += delta;
        }
        for (name, child) in &self.children {
            child.flatten_into(&format!("{prefix}.{name}"), out);
        }
    }

    /// Flattens the tree to `phase.<path>.<counter>` keys (the same form
    /// `wmn_obs::PhaseNode::for_each_flat` emits).
    pub fn flatten(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (name, child) in &self.children {
            child.flatten_into(&format!("phase.{name}"), &mut out);
        }
        out
    }
}

/// Which accepted document shape a [`Doc`] was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocKind {
    /// A `wmn-telemetry/v2` run document.
    Telemetry,
    /// A `wmn-counters-baseline/v1` committed baseline.
    Baseline,
}

/// A validated, loaded counter document.
#[derive(Debug, Clone)]
pub struct Doc {
    /// Where it was read from (a label in tests).
    pub path: PathBuf,
    /// Which schema it carried.
    pub kind: DocKind,
    /// The producing binary (`telemetry.json` only).
    pub bin: Option<String>,
    /// Flat counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Number of recorded histograms (`telemetry.json` only).
    pub histograms: usize,
    /// The phase-attribution tree (empty for baselines).
    pub attribution: AttributionNode,
}

impl Doc {
    /// Sum of all flat counter values.
    pub fn counter_total(&self) -> u64 {
        self.counters.values().sum()
    }
}

fn counters_from(
    value: &JsonValue,
    what: &str,
    label: &str,
) -> Result<BTreeMap<String, u64>, ExperimentError> {
    let JsonValue::Object(members) = value else {
        return Err(ExperimentError::report(format!(
            "{label}: {what} is not a JSON object"
        )));
    };
    let mut out = BTreeMap::new();
    for (key, v) in members {
        let n = v.as_u64().ok_or_else(|| {
            ExperimentError::report(format!(
                "{label}: {what} member {key:?} is not a non-negative integer"
            ))
        })?;
        out.insert(key.clone(), n);
    }
    Ok(out)
}

fn attribution_from(value: &JsonValue, label: &str) -> Result<AttributionNode, ExperimentError> {
    let JsonValue::Object(members) = value else {
        return Err(ExperimentError::report(format!(
            "{label}: attribution node is not a JSON object"
        )));
    };
    let mut node = AttributionNode::default();
    for (key, v) in members {
        match key.as_str() {
            "counters" => node.counters = counters_from(v, "attribution counters", label)?,
            "children" => {
                let JsonValue::Object(kids) = v else {
                    return Err(ExperimentError::report(format!(
                        "{label}: attribution children is not a JSON object"
                    )));
                };
                for (name, child) in kids {
                    node.children
                        .insert(name.clone(), attribution_from(child, label)?);
                }
            }
            other => {
                return Err(ExperimentError::report(format!(
                    "{label}: unexpected attribution member {other:?}"
                )))
            }
        }
    }
    Ok(node)
}

/// Parses and validates one document from its rendered text.
///
/// # Errors
///
/// Rejects malformed JSON, unknown schemas (naming both found and
/// expected), and structurally invalid members.
pub fn parse_doc(label: &Path, contents: &str) -> Result<Doc, ExperimentError> {
    let display = label.display();
    let value =
        json::parse(contents).map_err(|e| ExperimentError::report(format!("{display}: {e}")))?;
    let schema = value
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| {
            ExperimentError::report(format!("{display}: missing string member \"schema\""))
        })?;
    let kind = match schema {
        TELEMETRY_SCHEMA => DocKind::Telemetry,
        BASELINE_SCHEMA => DocKind::Baseline,
        "wmn-telemetry/v1" => {
            return Err(ExperimentError::report(format!(
                "{display}: schema \"wmn-telemetry/v1\" is no longer readable — this tool \
                 expects \"{TELEMETRY_SCHEMA}\" (v2 added the phase-attribution tree and \
                 parented spans); regenerate the telemetry with a current build"
            )))
        }
        other => {
            return Err(ExperimentError::report(format!(
                "{display}: unsupported schema {other:?} (expected \"{TELEMETRY_SCHEMA}\" \
                 or \"{BASELINE_SCHEMA}\")"
            )))
        }
    };
    let label_str = display.to_string();
    let counters = counters_from(
        value.get("counters").ok_or_else(|| {
            ExperimentError::report(format!("{display}: missing member \"counters\""))
        })?,
        "counters",
        &label_str,
    )?;
    let mut doc = Doc {
        path: label.to_path_buf(),
        kind,
        bin: value
            .get("bin")
            .and_then(JsonValue::as_str)
            .map(str::to_owned),
        counters,
        histograms: 0,
        attribution: AttributionNode::default(),
    };
    match kind {
        DocKind::Telemetry => {
            if let Some(JsonValue::Object(h)) = value.get("histograms") {
                doc.histograms = h.len();
            }
            let attribution = value.get("attribution").ok_or_else(|| {
                ExperimentError::report(format!(
                    "{display}: missing member \"attribution\" (required by {TELEMETRY_SCHEMA})"
                ))
            })?;
            let JsonValue::Object(phases) = attribution else {
                return Err(ExperimentError::report(format!(
                    "{display}: \"attribution\" is not a JSON object"
                )));
            };
            for (name, child) in phases {
                doc.attribution
                    .children
                    .insert(name.clone(), attribution_from(child, &label_str)?);
            }
        }
        DocKind::Baseline => {}
    }
    Ok(doc)
}

/// Resolves `path` (a `telemetry.json`, a baseline file, or a telemetry
/// directory containing `telemetry.json`) and loads the document.
///
/// # Errors
///
/// I/O failures name the file; schema and shape violations are
/// [`ExperimentError::Report`]s.
pub fn load_doc(path: &Path) -> Result<Doc, ExperimentError> {
    let file = if path.is_dir() {
        path.join("telemetry.json")
    } else {
        path.to_path_buf()
    };
    let contents =
        std::fs::read_to_string(&file).map_err(|e| ExperimentError::io(file.clone(), e))?;
    parse_doc(&file, &contents)
}

/// `numerator / denominator` as a per-mille, floor-rounded — integer
/// math so the rendered percentages are bit-identical everywhere.
fn per_mille(numerator: u64, denominator: u64) -> u64 {
    if denominator == 0 {
        0
    } else {
        ((u128::from(numerator) * 1000) / u128::from(denominator)) as u64
    }
}

fn fmt_pct(numerator: u64, denominator: u64) -> String {
    let pm = per_mille(numerator, denominator);
    format!("{}.{}", pm / 10, pm % 10)
}

fn flame_node(out: &mut String, name: &str, node: &AttributionNode, depth: usize, total: u64) {
    let weight = node.total();
    let indent = "  ".repeat(depth);
    let _ = writeln!(
        out,
        "{:>5}% {:>14}  {indent}{name}",
        fmt_pct(weight, total),
        weight
    );
    // Work recorded directly in a scope that also has children renders as
    // a `[self]` leaf, so sibling percentages always sum to the parent.
    if !node.children.is_empty() && node.self_total() > 0 {
        let _ = writeln!(
            out,
            "{:>5}% {:>14}  {indent}  [self]",
            fmt_pct(node.self_total(), total),
            node.self_total()
        );
    }
    for (child_name, child) in sorted_children(node) {
        flame_node(out, child_name, child, depth + 1, total);
    }
}

/// Children ordered heaviest-first (ties broken by name) — the
/// flamegraph reading order.
fn sorted_children(node: &AttributionNode) -> Vec<(&str, &AttributionNode)> {
    let mut kids: Vec<(&str, &AttributionNode)> =
        node.children.iter().map(|(n, c)| (n.as_str(), c)).collect();
    kids.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(b.0)));
    kids
}

/// Renders the counter-weighted flamegraph of a telemetry document.
///
/// # Errors
///
/// Baselines carry no attribution tree and are rejected.
pub fn flame(doc: &Doc) -> Result<String, ExperimentError> {
    if doc.kind != DocKind::Telemetry {
        return Err(ExperimentError::report(format!(
            "{}: `flame` needs a {TELEMETRY_SCHEMA} document (baselines carry no \
             attribution tree)",
            doc.path.display()
        )));
    }
    let mut out = String::new();
    let bin = doc.bin.as_deref().unwrap_or("?");
    let _ = writeln!(out, "counter-weighted flamegraph: {bin}");
    let flat = doc.counter_total();
    let attributed = doc.attribution.total();
    let _ = writeln!(
        out,
        "attributed {attributed} of {flat} counter units ({}%)",
        fmt_pct(attributed, flat)
    );
    if attributed == 0 {
        out.push_str("no phase-attributed work recorded\n");
        return Ok(out);
    }
    out.push('\n');
    for (name, child) in sorted_children(&doc.attribution) {
        flame_node(&mut out, name, child, 0, attributed);
    }
    Ok(out)
}

fn diff_section(
    out: &mut String,
    what: &str,
    baseline: &BTreeMap<String, u64>,
    run: &BTreeMap<String, u64>,
    threshold_pct: f64,
) -> usize {
    let mut keys: Vec<&String> = baseline.keys().chain(run.keys()).collect();
    keys.sort();
    keys.dedup();
    let compared = keys.len();
    let mut drift_lines = String::new();
    let mut drifted = 0usize;
    for key in keys {
        let b = baseline.get(key).copied().unwrap_or(0);
        let r = run.get(key).copied().unwrap_or(0);
        if b == r {
            continue;
        }
        let relative = (r.abs_diff(b) as f64) * 100.0 / (b.max(1) as f64);
        if relative <= threshold_pct {
            continue;
        }
        drifted += 1;
        let _ = writeln!(drift_lines, "  {key}: baseline {b} -> run {r}");
    }
    if drifted == 0 {
        let _ = writeln!(out, "{what}: {compared} keys compared, all match");
    } else {
        let _ = writeln!(out, "{what} drifted ({drifted} of {compared} keys):");
        out.push_str(&drift_lines);
    }
    drifted
}

/// The outcome of a `diff`: the rendered report and whether any key
/// drifted beyond the threshold.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// The rendered report.
    pub report: String,
    /// `true` when at least one key drifted beyond the threshold.
    pub drifted: bool,
}

/// Compares two documents' flat counters (and attribution trees when
/// both sides have one). `threshold_pct` is the tolerated relative
/// drift per key, in percent (0 = exact).
pub fn diff(baseline: &Doc, run: &Doc, threshold_pct: f64) -> DiffOutcome {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline: {} ({} counters)",
        baseline.path.display(),
        baseline.counters.len()
    );
    let _ = writeln!(
        out,
        "run:      {} ({} counters)",
        run.path.display(),
        run.counters.len()
    );
    let mut drifted = diff_section(
        &mut out,
        "counters",
        &baseline.counters,
        &run.counters,
        threshold_pct,
    );
    if !baseline.attribution.is_empty() && !run.attribution.is_empty() {
        drifted += diff_section(
            &mut out,
            "phase attribution",
            &baseline.attribution.flatten(),
            &run.attribution.flatten(),
            threshold_pct,
        );
    }
    DiffOutcome {
        report: out,
        drifted: drifted > 0,
    }
}

/// Counts the lines of `spans.jsonl` next to a telemetry document, if
/// present (spans are wall-clock and stay out of deterministic output;
/// the count itself is structural).
fn span_count(doc_path: &Path) -> Option<usize> {
    let spans = doc_path.parent()?.join("spans.jsonl");
    let text = std::fs::read_to_string(spans).ok()?;
    Some(text.lines().count())
}

/// One counter family's digest: the keys sharing a first dotted segment.
#[derive(Debug, Default)]
struct CounterFamily<'a> {
    keys: usize,
    total: u64,
    /// The part of `total` recorded inside phase scopes.
    attributed: u64,
    /// The family's key with the largest value (ties: the first by name).
    largest: &'a str,
    largest_value: u64,
}

/// The family of a counter key: its first dotted segment.
fn family_of(key: &str) -> &str {
    key.split('.').next().unwrap_or(key)
}

/// Adds `node`'s counters, and its descendants', into per-family sums.
fn attributed_by_family(node: &AttributionNode, out: &mut BTreeMap<String, u64>) {
    for (key, delta) in &node.counters {
        *out.entry(family_of(key).to_owned()).or_insert(0) += delta;
    }
    for child in node.children.values() {
        attributed_by_family(child, out);
    }
}

/// `doc`'s flat counters grouped by family, in family-name order.
fn counter_families(doc: &Doc) -> BTreeMap<&str, CounterFamily<'_>> {
    let mut families: BTreeMap<&str, CounterFamily<'_>> = BTreeMap::new();
    for (key, &value) in &doc.counters {
        let family = families.entry(family_of(key)).or_default();
        family.keys += 1;
        family.total += value;
        if family.keys == 1 || value > family.largest_value {
            family.largest = key;
            family.largest_value = value;
        }
    }
    let mut attributed = BTreeMap::new();
    attributed_by_family(&doc.attribution, &mut attributed);
    for (name, family) in &mut families {
        family.attributed = attributed.get(*name).copied().unwrap_or(0);
    }
    families
}

/// Renders a one-screen digest of a document.
pub fn summarize(doc: &Doc) -> String {
    let mut out = String::new();
    let schema = match doc.kind {
        DocKind::Telemetry => TELEMETRY_SCHEMA,
        DocKind::Baseline => BASELINE_SCHEMA,
    };
    let _ = writeln!(
        out,
        "run summary: {} ({schema})",
        doc.bin.as_deref().unwrap_or("baseline")
    );
    let _ = writeln!(out, "source: {}", doc.path.display());
    // Counters of different families count different things (BFS edge
    // visits, moved routers, GA generations), so each family is summed
    // alone and never added to another.
    let families = counter_families(doc);
    let _ = writeln!(
        out,
        "counters: {} keys in {} families (each family summed alone)",
        doc.counters.len(),
        families.len()
    );
    if !families.is_empty() {
        let _ = writeln!(
            out,
            "  {:<14} {:>4} {:>14} {:>11}  largest",
            "family", "keys", "total", "attributed"
        );
    }
    for (name, family) in &families {
        let attributed = if doc.kind == DocKind::Telemetry {
            format!("{}%", fmt_pct(family.attributed, family.total))
        } else {
            "-".to_owned()
        };
        let _ = writeln!(
            out,
            "  {name:<14} {:>4} {:>14} {attributed:>11}  {}",
            family.keys, family.total, family.largest
        );
    }
    if doc.kind == DocKind::Telemetry {
        let phases: Vec<&str> = doc
            .attribution
            .children
            .keys()
            .map(String::as_str)
            .collect();
        if !phases.is_empty() {
            let _ = writeln!(
                out,
                "phases: {} (see `wmn-report flame`)",
                phases.join(", ")
            );
        }
        let _ = writeln!(out, "histograms: {} recorded", doc.histograms);
        if let Some(n) = span_count(&doc.path) {
            let _ = writeln!(out, "spans: {n} recorded (wall-clock; see spans.jsonl)");
        }
    }
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders `doc`'s counters as a `wmn-counters-baseline/v1` document,
/// byte-compatible with the `jq` output the old refresh path produced
/// (2-space pretty print, trailing newline).
pub fn render_baseline(doc: &Doc, workload: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{BASELINE_SCHEMA}\",");
    let _ = writeln!(out, "  \"workload\": \"{}\",", json_escape(workload));
    let _ = writeln!(out, "  \"refresh\": \"{BASELINE_REFRESH}\",");
    if doc.counters.is_empty() {
        out.push_str("  \"counters\": {}\n");
    } else {
        out.push_str("  \"counters\": {\n");
        let last = doc.counters.len() - 1;
        for (i, (key, value)) in doc.counters.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            let _ = writeln!(out, "    \"{}\": {value}{comma}", json_escape(key));
        }
        out.push_str("  }\n");
    }
    out.push_str("}\n");
    out
}

/// What a `wmn-report` invocation produced: text for stdout and the
/// process exit code (`diff` exits 1 on drift).
#[derive(Debug, Clone)]
pub struct Report {
    /// Text for stdout.
    pub stdout: String,
    /// Process exit code.
    pub exit_code: i32,
}

const USAGE: &str = "usage: wmn-report <command> ...\n\
  flame <dir|telemetry.json>                     counter-weighted flamegraph\n\
  diff <baseline|dir> <run|dir> [--threshold P]  per-counter/per-phase drift (exit 1 on drift)\n\
  summarize <dir|telemetry.json>                 one-screen run digest\n\
  baseline <dir|telemetry.json> [--out FILE] [--workload TEXT]\n\
                                                 rewrite counters as COUNTERS_baseline.json";

fn usage_err(detail: &str) -> ExperimentError {
    ExperimentError::report(format!("{detail}\n{USAGE}"))
}

/// Runs one `wmn-report` invocation (everything after the program
/// name). Pure except for reading the inputs and `baseline --out`.
///
/// # Errors
///
/// Usage errors, unreadable inputs, and schema violations. Counter
/// drift is not an error — it is `exit_code` 1 in the returned
/// [`Report`].
pub fn run(args: &[String]) -> Result<Report, ExperimentError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| usage_err("missing command"))?;
    match command.as_str() {
        "flame" => {
            let [path] = rest else {
                return Err(usage_err("flame takes exactly one input path"));
            };
            let doc = load_doc(Path::new(path))?;
            Ok(Report {
                stdout: flame(&doc)?,
                exit_code: 0,
            })
        }
        "summarize" => {
            let [path] = rest else {
                return Err(usage_err("summarize takes exactly one input path"));
            };
            let doc = load_doc(Path::new(path))?;
            Ok(Report {
                stdout: summarize(&doc),
                exit_code: 0,
            })
        }
        "diff" => {
            let mut threshold = 0.0f64;
            let mut paths: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                if arg == "--threshold" {
                    let value = it
                        .next()
                        .ok_or_else(|| usage_err("--threshold needs a value"))?;
                    threshold = value.parse().map_err(|_| {
                        usage_err(&format!("--threshold {value:?} is not a number"))
                    })?;
                    if threshold.is_nan() || threshold < 0.0 {
                        return Err(usage_err("--threshold must be >= 0"));
                    }
                } else {
                    paths.push(arg);
                }
            }
            let [baseline_path, run_path] = paths[..] else {
                return Err(usage_err("diff takes exactly two input paths"));
            };
            let baseline = load_doc(Path::new(baseline_path))?;
            let run_doc = load_doc(Path::new(run_path))?;
            let outcome = diff(&baseline, &run_doc, threshold);
            Ok(Report {
                stdout: outcome.report,
                exit_code: i32::from(outcome.drifted),
            })
        }
        "baseline" => {
            let mut out_path: Option<PathBuf> = None;
            let mut workload = BASELINE_WORKLOAD.to_owned();
            let mut paths: Vec<&String> = Vec::new();
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--out" => {
                        let value = it.next().ok_or_else(|| usage_err("--out needs a path"))?;
                        out_path = Some(PathBuf::from(value));
                    }
                    "--workload" => {
                        let value = it
                            .next()
                            .ok_or_else(|| usage_err("--workload needs a value"))?;
                        workload = value.clone();
                    }
                    _ => paths.push(arg),
                }
            }
            let [path] = paths[..] else {
                return Err(usage_err("baseline takes exactly one input path"));
            };
            let doc = load_doc(Path::new(path))?;
            let rendered = render_baseline(&doc, &workload);
            match out_path {
                Some(target) => {
                    write_file(&target, &rendered)?;
                    Ok(Report {
                        stdout: format!(
                            "wrote {} ({} counters)\n",
                            target.display(),
                            doc.counters.len()
                        ),
                        exit_code: 0,
                    })
                }
                None => Ok(Report {
                    stdout: rendered,
                    exit_code: 0,
                }),
            }
        }
        other => Err(usage_err(&format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ExperimentConfig;
    use crate::telemetry::render_telemetry_json;
    use wmn_obs::{Recorder, TelemetryRecorder};

    fn label() -> PathBuf {
        PathBuf::from("test/telemetry.json")
    }

    /// A recorder whose attribution reproduces the canonical
    /// edge/component/coverage split under `ga > evaluate > apply_moves`.
    fn sample_recorder() -> TelemetryRecorder {
        let mut rec = TelemetryRecorder::new();
        rec.counter("ga.generations", 40);
        {
            let mut ga = wmn_obs::phase(&mut rec, "ga");
            ga.counter("ga.children_evaluated", 10);
            let mut evaluate = wmn_obs::phase(&mut ga, "evaluate");
            let mut apply = wmn_obs::phase(&mut evaluate, "apply_moves");
            {
                let mut edge = wmn_obs::phase(&mut apply, "edge_repair");
                edge.counter("topology.edges_linked", 45);
            }
            {
                let mut component = wmn_obs::phase(&mut apply, "component_repair");
                component.counter("connectivity.repairs", 30);
            }
            {
                let mut coverage = wmn_obs::phase(&mut apply, "coverage");
                coverage.counter("coverage.disk_queries", 25);
            }
        }
        rec.value("ga.generation.diff_routers", 3);
        rec
    }

    fn sample_doc() -> Doc {
        let rendered =
            render_telemetry_json("fig3", &ExperimentConfig::quick(), &sample_recorder());
        parse_doc(&label(), &rendered).unwrap()
    }

    #[test]
    fn parses_a_real_v2_document() {
        let doc = sample_doc();
        assert_eq!(doc.kind, DocKind::Telemetry);
        assert_eq!(doc.bin.as_deref(), Some("fig3"));
        assert_eq!(doc.counters["ga.generations"], 40);
        assert_eq!(doc.counters["topology.edges_linked"], 45);
        assert_eq!(doc.histograms, 1);
        assert_eq!(doc.attribution.total(), 110);
        let apply = &doc.attribution.children["ga"].children["evaluate"].children["apply_moves"];
        assert_eq!(apply.children["edge_repair"].total(), 45);
        assert_eq!(apply.children["component_repair"].total(), 30);
        assert_eq!(apply.children["coverage"].total(), 25);
        // Telemetry written before the connectivity modes were removed
        // carries `"connectivity"` in its config block; it still reads.
        let rendered =
            render_telemetry_json("fig3", &ExperimentConfig::quick(), &sample_recorder());
        let old = rendered.replacen("}", ",\"connectivity\":\"dynamic\"}", 1);
        assert!(old.contains("\"scale_area\":1,\"connectivity\":\"dynamic\"}"));
        let old = parse_doc(&label(), &old).unwrap();
        assert_eq!(old.counters, doc.counters);
        assert_eq!(old.attribution, doc.attribution);
    }

    #[test]
    fn rejects_the_retired_v1_schema_loudly() {
        let v1 = "{\"schema\":\"wmn-telemetry/v1\",\"bin\":\"fig3\",\"counters\":{}}";
        let err = parse_doc(&label(), v1).unwrap_err().to_string();
        assert!(err.contains("wmn-telemetry/v1"), "{err}");
        assert!(err.contains("wmn-telemetry/v2"), "{err}");
        assert!(err.contains("regenerate"), "{err}");
    }

    #[test]
    fn rejects_unknown_schemas_and_missing_members() {
        let unknown = "{\"schema\":\"wmn-telemetry/v9\",\"counters\":{}}";
        let err = parse_doc(&label(), unknown).unwrap_err().to_string();
        assert!(err.contains("wmn-telemetry/v9"), "{err}");
        assert!(err.contains("wmn-telemetry/v2"), "{err}");

        let no_attribution = "{\"schema\":\"wmn-telemetry/v2\",\"bin\":\"fig3\",\"counters\":{}}";
        let err = parse_doc(&label(), no_attribution).unwrap_err().to_string();
        assert!(err.contains("attribution"), "{err}");
    }

    #[test]
    fn accepts_baseline_documents() {
        let doc = sample_doc();
        let rendered = render_baseline(&doc, BASELINE_WORKLOAD);
        let baseline = parse_doc(Path::new("COUNTERS_baseline.json"), &rendered).unwrap();
        assert_eq!(baseline.kind, DocKind::Baseline);
        assert_eq!(baseline.counters, doc.counters);
        assert!(baseline.attribution.is_empty());
        // A baseline written before the connectivity modes were removed
        // carries a `"connectivity"` header member; it still reads, and
        // only its counters count.
        let old = rendered.replacen(
            "  \"counters\"",
            "  \"connectivity\": \"dynamic\",\n  \"counters\"",
            1,
        );
        assert!(old.contains("\"connectivity\": \"dynamic\""));
        let old = parse_doc(Path::new("COUNTERS_baseline.json"), &old).unwrap();
        assert_eq!(old.counters, baseline.counters);
    }

    #[test]
    fn baseline_rendering_matches_the_jq_shape() {
        let mut doc = sample_doc();
        doc.counters = BTreeMap::from([("a.b".to_owned(), 1), ("c".to_owned(), 22)]);
        let rendered = render_baseline(&doc, "w");
        assert_eq!(
            rendered,
            "{\n  \"schema\": \"wmn-counters-baseline/v1\",\n  \"workload\": \"w\",\n  \
             \"refresh\": \"scripts/check_counters.sh --refresh\",\n  \
             \"counters\": {\n    \"a.b\": 1,\n    \
             \"c\": 22\n  }\n}\n"
        );
    }

    #[test]
    fn flame_renders_the_split_with_deterministic_percentages() {
        let doc = sample_doc();
        let text = flame(&doc).unwrap();
        assert!(
            text.contains("attributed 110 of 150 counter units (73.3%)"),
            "{text}"
        );
        // Children sort heaviest-first; the 45/30/25 split reads in order.
        let edge = text.find("edge_repair").unwrap();
        let component = text.find("component_repair").unwrap();
        let coverage = text.find("coverage\n").unwrap();
        assert!(edge < component && component < coverage, "{text}");
        assert!(text.contains("40.9%"), "{text}");
        assert!(text.contains("27.2%"), "{text}");
        assert!(text.contains("22.7%"), "{text}");
        // `ga` holds own counters plus children, so a [self] leaf appears.
        assert!(text.contains("[self]"), "{text}");
    }

    #[test]
    fn flame_rejects_baselines() {
        let doc = sample_doc();
        let rendered = render_baseline(&doc, "w");
        let baseline = parse_doc(Path::new("b.json"), &rendered).unwrap();
        let err = flame(&baseline).unwrap_err().to_string();
        assert!(err.contains("attribution"), "{err}");
    }

    #[test]
    fn diff_reports_matching_profiles_cleanly() {
        let doc = sample_doc();
        let outcome = diff(&doc, &doc, 0.0);
        assert!(!outcome.drifted);
        assert!(outcome
            .report
            .contains("counters: 5 keys compared, all match"));
        assert!(outcome
            .report
            .contains("phase attribution: 4 keys compared, all match"));
    }

    #[test]
    fn diff_lists_drift_in_the_gate_format_and_honors_thresholds() {
        let baseline = sample_doc();
        let mut run = sample_doc();
        run.counters.insert("ga.generations".to_owned(), 44);
        run.counters.insert("search.extra".to_owned(), 2);
        let outcome = diff(&baseline, &run, 0.0);
        assert!(outcome.drifted);
        assert!(
            outcome
                .report
                .contains("  ga.generations: baseline 40 -> run 44"),
            "{}",
            outcome.report
        );
        assert!(
            outcome
                .report
                .contains("  search.extra: baseline 0 -> run 2"),
            "{}",
            outcome.report
        );
        // 10% drift on ga.generations tolerated at threshold 10; the new
        // key (relative drift 200% against max(b,1)=1) still fails.
        let tolerant = diff(&baseline, &run, 10.0);
        assert!(tolerant.drifted);
        assert!(
            !tolerant.report.contains("ga.generations"),
            "{}",
            tolerant.report
        );
        let lax = diff(&baseline, &run, 1000.0);
        assert!(!lax.drifted);
    }

    #[test]
    fn diff_compares_phase_attribution_when_both_sides_have_it() {
        let baseline = sample_doc();
        let mut run = sample_doc();
        // Same flat totals, shifted attribution: 5 units move from the
        // edge_repair scope to the coverage scope.
        let apply = &mut run
            .attribution
            .children
            .get_mut("ga")
            .unwrap()
            .children
            .get_mut("evaluate")
            .unwrap()
            .children
            .get_mut("apply_moves")
            .unwrap()
            .children;
        *apply
            .get_mut("edge_repair")
            .unwrap()
            .counters
            .get_mut("topology.edges_linked")
            .unwrap() -= 5;
        *apply
            .get_mut("coverage")
            .unwrap()
            .counters
            .get_mut("coverage.disk_queries")
            .unwrap() += 5;
        let outcome = diff(&baseline, &run, 0.0);
        assert!(outcome.drifted);
        assert!(outcome
            .report
            .contains("counters: 5 keys compared, all match"));
        assert!(
            outcome.report.contains(
                "  phase.ga.evaluate.apply_moves.edge_repair.topology.edges_linked: \
                 baseline 45 -> run 40"
            ),
            "{}",
            outcome.report
        );
    }

    #[test]
    fn summarize_is_one_screen_and_names_the_top_work() {
        let doc = sample_doc();
        let text = summarize(&doc);
        assert!(
            text.contains("run summary: fig3 (wmn-telemetry/v2)"),
            "{text}"
        );
        // Families are summed alone: no line adds generations to edges.
        assert!(
            text.contains("counters: 5 keys in 4 families (each family summed alone)"),
            "{text}"
        );
        assert!(!text.contains("150"), "{text}");
        assert!(!text.contains("work units"), "{text}");
        let row = |family: &str| {
            text.lines()
                .find(|l| l.split_whitespace().next() == Some(family))
                .unwrap_or_else(|| panic!("no {family} row: {text}"))
                .split_whitespace()
                .collect::<Vec<_>>()
        };
        // ga.generations (40) is recorded outside every phase, the
        // children count (10) inside `ga`.
        assert_eq!(row("ga"), ["ga", "2", "50", "20.0%", "ga.generations"]);
        assert_eq!(
            row("topology"),
            ["topology", "1", "45", "100.0%", "topology.edges_linked"]
        );
        assert_eq!(
            row("connectivity"),
            ["connectivity", "1", "30", "100.0%", "connectivity.repairs"]
        );
        assert!(
            text.contains("phases: ga (see `wmn-report flame`)"),
            "{text}"
        );
        assert!(text.lines().count() <= 24, "{text}");
    }

    #[test]
    fn run_dispatches_and_reports_usage_errors() {
        let err = run(&[]).unwrap_err().to_string();
        assert!(err.contains("usage: wmn-report"), "{err}");
        let err = run(&["explode".to_owned()]).unwrap_err().to_string();
        assert!(err.contains("unknown command"), "{err}");
        let err = run(&["diff".to_owned(), "a".to_owned()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("exactly two"), "{err}");
        let err = run(&[
            "diff".to_owned(),
            "a".to_owned(),
            "b".to_owned(),
            "--threshold".to_owned(),
            "x".to_owned(),
        ])
        .unwrap_err()
        .to_string();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn run_round_trips_through_files() {
        let dir = std::env::temp_dir().join("wmn-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        crate::telemetry::write_telemetry(
            &dir,
            "fig3",
            &ExperimentConfig::quick(),
            &sample_recorder(),
        )
        .unwrap();
        // Directory and explicit-file inputs resolve to the same doc.
        let flame_out = run(&["flame".to_owned(), dir.display().to_string()]).unwrap();
        assert_eq!(flame_out.exit_code, 0);
        assert!(flame_out.stdout.contains("edge_repair"));
        let baseline_path = dir.join("base.json");
        let wrote = run(&[
            "baseline".to_owned(),
            dir.join("telemetry.json").display().to_string(),
            "--out".to_owned(),
            baseline_path.display().to_string(),
        ])
        .unwrap();
        assert_eq!(wrote.exit_code, 0);
        let clean = run(&[
            "diff".to_owned(),
            baseline_path.display().to_string(),
            dir.display().to_string(),
        ])
        .unwrap();
        assert_eq!(clean.exit_code, 0, "{}", clean.stdout);
        let summary = run(&["summarize".to_owned(), dir.display().to_string()]).unwrap();
        assert!(summary.stdout.contains("spans:"), "{}", summary.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
