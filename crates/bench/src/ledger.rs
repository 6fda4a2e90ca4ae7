//! The perf ledger: machine-readable `BENCH_<fig>.json` artifacts.
//!
//! Every bench leg measured by [`crate::measure`] and passed to
//! [`crate::record`] deposits a [`LedgerEntry`] into a process-global sink;
//! `figures ledger` runs each [`crate::FIGURES`] entry and then calls
//! [`write_fig`], which — when `SKELCL_LEDGER_DIR` is set — serializes the
//! figure's legs into one schema-versioned JSON document.
//! CI uploads those documents as artifacts and feeds two of them (the
//! checked-in seed and the fresh run) to the `benchdiff` binary, which
//! exits non-zero when any leg regressed past the threshold
//! ([`diff_ledgers`]).
//!
//! Because every modeled quantity in this repository is *virtual* —
//! deterministic functions of the workload and the device model, not of
//! host wall-clock — a ledger diff is noise-free: any delta is a real
//! behaviour change in the runtime or the model, which is what makes a
//! hard-failing CI gate viable where wall-clock benchmarks would flake.
//!
//! # Environment contract
//!
//! * `SKELCL_LEDGER_DIR` — directory to write `BENCH_<fig>.json` into.
//!   Unset ⇒ [`write_fig`] is a no-op (local figure runs stay
//!   artifact-free).
//! * `SKELCL_RUN_ID` — identifier stamped into the document (CI passes the
//!   commit SHA). Unset ⇒ `"local"`.
//!
//! # Schema
//!
//! `{"schema_version":1,"fig":…,"run_id":…,"legs":[…]}` where each leg is
//! `{"label","config","virtual_s","pct_of_peak","bound","latency"}`.
//! `config` is parsed from the leg label's tokens ([`config_from_label`])
//! so diffs can explain *what* a leg is without re-deriving it from free
//! text; `latency` reuses the telemetry histogram object (`null` for
//! figure legs without a serving latency distribution). The version bumps
//! on renames/removals/meaning changes, not on additions — the same
//! contract as [`skelcl::telemetry`].

use skelcl::report::json::{self, Json};
use skelcl::report::RunReport;
use skelcl::telemetry::histogram_json;
use skelcl::HistogramSnapshot;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;

/// Version of the `BENCH_*.json` layout (see *Schema* in the module docs).
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// One measured bench leg, keyed by its report label.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The leg's report label, e.g. `fig_iterate heat 64x64 n=3 batched
    /// x2` — unique within a figure and stable across runs.
    pub label: String,
    /// Structured configuration parsed from the label tokens.
    pub config: Vec<(String, String)>,
    /// Modeled seconds of the leg, build time excluded — the quantity the
    /// figures report and the regression gate compares.
    pub virtual_s: f64,
    /// Roofline verdict: achieved % of the modeled peak of the bound
    /// resource.
    pub pct_of_peak: f64,
    /// Which resource bounds the leg (`compute` / `memory` / `transfer`).
    pub bound: String,
    /// End-to-end latency distribution for serving legs; `None` for plain
    /// kernel figures.
    pub latency: Option<HistogramSnapshot>,
}

/// Structured config from a leg label: `x<N>` tokens become `devices`,
/// `<R>x<C>` tokens become `shape`, `k=v` tokens pass through, and the
/// remaining words join into `workload`. Pairs are key-sorted so the
/// serialized object (whose parse is key-ordered) round-trips exactly.
pub fn config_from_label(label: &str) -> Vec<(String, String)> {
    let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let mut cfg = Vec::new();
    let mut words = Vec::new();
    for tok in label.split([' ', '/']).filter(|t| !t.is_empty()) {
        if let Some(n) = tok.strip_prefix('x').filter(|n| all_digits(n)) {
            cfg.push(("devices".to_string(), n.to_string()));
        } else if let Some((k, v)) = tok.split_once('=') {
            cfg.push((k.to_string(), v.to_string()));
        } else if tok
            .split_once('x')
            .is_some_and(|(r, c)| all_digits(r) && all_digits(c))
        {
            cfg.push(("shape".to_string(), tok.to_string()));
        } else {
            words.push(tok);
        }
    }
    if !words.is_empty() {
        cfg.push(("workload".to_string(), words.join(" ")));
    }
    cfg.sort();
    cfg
}

/// The process-global sink the harness timers deposit legs into.
static SINK: Mutex<Vec<LedgerEntry>> = Mutex::new(Vec::new());

/// Record one leg; a later leg with the same label replaces the earlier
/// one (sweeps may re-run a configuration — last measurement wins).
pub fn record_leg(entry: LedgerEntry) {
    let mut sink = SINK.lock().unwrap();
    match sink.iter_mut().find(|e| e.label == entry.label) {
        Some(slot) => *slot = entry,
        None => sink.push(entry),
    }
}

/// Record a leg from its [`RunReport`] alone, so `virtual_s`,
/// `pct_of_peak` and `bound` all come from the one measured window (build
/// time excluded) — the hook [`crate::record`] calls.
pub fn record_report(report: &RunReport) {
    record_leg(LedgerEntry {
        label: report.label.clone(),
        config: config_from_label(&report.label),
        virtual_s: report.window_s,
        pct_of_peak: report.roofline.pct_of_modeled_peak(),
        bound: report.roofline.bound().to_string(),
        latency: report.latency,
    });
}

/// Snapshot of figure `fig`'s legs in the sink, in first recording order:
/// those whose label's first token (split at ' ' or '/') is exactly `fig`,
/// so `fig_demo` never picks up `fig_demo2`'s legs.
pub fn legs_for(fig: &str) -> Vec<LedgerEntry> {
    SINK.lock()
        .unwrap()
        .iter()
        .filter(|e| e.label.split([' ', '/']).next() == Some(fig))
        .cloned()
        .collect()
}

/// One figure's ledger document: the unit `benchdiff` compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub schema_version: u64,
    /// Figure name, e.g. `fig_iterate`.
    pub fig: String,
    /// Run identifier (commit SHA in CI, `local` otherwise).
    pub run_id: String,
    pub legs: Vec<LedgerEntry>,
}

impl Ledger {
    /// Assemble a ledger for `fig` from the process-global sink.
    pub fn collect(fig: &str, run_id: &str) -> Ledger {
        Ledger {
            schema_version: LEDGER_SCHEMA_VERSION,
            fig: fig.to_string(),
            run_id: run_id.to_string(),
            legs: legs_for(fig),
        }
    }

    /// Serialize into the `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"fig\":\"{}\",\"run_id\":\"{}\",\"legs\":[",
            self.schema_version,
            skelcl::report::json_escape(&self.fig),
            skelcl::report::json_escape(&self.run_id),
        );
        for (i, leg) in self.legs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cfg: Vec<String> = leg
                .config
                .iter()
                .map(|(k, v)| {
                    format!(
                        "\"{}\":\"{}\"",
                        skelcl::report::json_escape(k),
                        skelcl::report::json_escape(v)
                    )
                })
                .collect();
            let _ = write!(
                out,
                "{{\"label\":\"{}\",\"config\":{{{}}},\"virtual_s\":{},\
                 \"pct_of_peak\":{},\"bound\":\"{}\",\"latency\":{}}}",
                skelcl::report::json_escape(&leg.label),
                cfg.join(","),
                skelcl::report::json_num(leg.virtual_s),
                skelcl::report::json_num(leg.pct_of_peak),
                leg.bound,
                match &leg.latency {
                    Some(h) => histogram_json(h),
                    None => "null".to_string(),
                },
            );
        }
        out.push_str("]}");
        out
    }

    /// Parse a `BENCH_*.json` document; rejects unknown schema versions.
    pub fn parse(text: &str) -> Result<Ledger, String> {
        let doc = json::parse(text)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_num)
            .ok_or("missing schema_version")? as u64;
        if version != LEDGER_SCHEMA_VERSION {
            return Err(format!(
                "unknown ledger schema version {version} (this build understands \
                 {LEDGER_SCHEMA_VERSION})"
            ));
        }
        let str_field = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let num_field = |j: &Json, key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let mut legs = Vec::new();
        for leg in doc
            .get("legs")
            .and_then(Json::as_arr)
            .ok_or("missing legs array")?
        {
            let config = leg
                .get("config")
                .and_then(Json::as_obj)
                .map(|o| {
                    o.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                        .collect()
                })
                .unwrap_or_default();
            let latency = match leg.get("latency") {
                None | Some(Json::Null) => None,
                Some(h) => Some(parse_histogram(h)?),
            };
            legs.push(LedgerEntry {
                label: str_field(leg, "label")?,
                config,
                virtual_s: num_field(leg, "virtual_s")?,
                pct_of_peak: num_field(leg, "pct_of_peak")?,
                bound: str_field(leg, "bound")?,
                latency,
            });
        }
        Ok(Ledger {
            schema_version: version,
            fig: str_field(&doc, "fig")?,
            run_id: str_field(&doc, "run_id")?,
            legs,
        })
    }

    /// Load and parse a ledger file.
    pub fn load(path: &std::path::Path) -> Result<Ledger, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ledger::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn parse_histogram(h: &Json) -> Result<HistogramSnapshot, String> {
    let opt = |key: &str| h.get(key).and_then(Json::as_num);
    Ok(HistogramSnapshot {
        count: opt("count").ok_or("latency missing count")? as u64,
        sum: opt("sum").ok_or("latency missing sum")?,
        min: opt("min"),
        max: opt("max"),
        p50: opt("p50"),
        p90: opt("p90"),
        p99: opt("p99"),
        dropped: opt("dropped").unwrap_or(0.0) as u64,
    })
}

/// Write `BENCH_<fig>.json` for `fig` into `$SKELCL_LEDGER_DIR`, stamped
/// with `$SKELCL_RUN_ID`. No-op (returns `None`) when the directory
/// variable is unset — plain figure runs produce no artifacts. Panics on IO
/// failure: a requested artifact that can't be written must fail the run,
/// not silently vanish from CI.
pub fn write_fig(fig: &str) -> Option<PathBuf> {
    let dir = std::env::var("SKELCL_LEDGER_DIR").ok()?;
    let run_id = std::env::var("SKELCL_RUN_ID").unwrap_or_else(|_| "local".to_string());
    let ledger = Ledger::collect(fig, &run_id);
    let path = PathBuf::from(dir).join(format!("BENCH_{fig}.json"));
    std::fs::create_dir_all(path.parent().unwrap())
        .unwrap_or_else(|e| panic!("create ledger dir for {}: {e}", path.display()));
    std::fs::write(&path, ledger.to_json())
        .unwrap_or_else(|e| panic!("write ledger {}: {e}", path.display()));
    println!(
        "ledger: wrote {} ({} leg(s), run {run_id})",
        path.display(),
        ledger.legs.len()
    );
    Some(path)
}

/// One leg's old-vs-new comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LegDelta {
    pub label: String,
    pub old_s: f64,
    pub new_s: f64,
}

impl LegDelta {
    /// Fractional change in virtual seconds: `+0.25` = 25 % slower.
    pub fn change(&self) -> f64 {
        if self.old_s > 0.0 {
            self.new_s / self.old_s - 1.0
        } else if self.new_s > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// The result of diffing two ledgers under a regression threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Fractional slowdown above which a leg counts as regressed
    /// (`0.20` = fail legs that got ≥ 20 % slower).
    pub threshold: f64,
    /// Legs present in both ledgers, in the new ledger's order.
    pub deltas: Vec<LegDelta>,
    /// Labels only in the old ledger (leg disappeared).
    pub only_old: Vec<String>,
    /// Labels only in the new ledger (leg appeared).
    pub only_new: Vec<String>,
}

impl DiffReport {
    /// The deltas whose slowdown exceeds the threshold.
    pub fn regressions(&self) -> Vec<&LegDelta> {
        self.deltas
            .iter()
            .filter(|d| d.change() > self.threshold)
            .collect()
    }

    /// True when the diff should fail a CI gate: any leg regressed past
    /// the threshold, or a previously-measured leg vanished (a silent
    /// coverage loss must not read as a pass).
    pub fn failed(&self) -> bool {
        !self.regressions().is_empty() || !self.only_old.is_empty()
    }

    /// Human-readable per-leg table (one line each), regressions marked.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.deltas {
            let pct = d.change() * 100.0;
            let mark = if d.change() > self.threshold {
                "  REGRESSED"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{:<56} {:>12.6e} -> {:>12.6e}  {:>+8.2}%{}",
                d.label, d.old_s, d.new_s, pct, mark
            );
        }
        for l in &self.only_old {
            let _ = writeln!(out, "{l:<56} MISSING from new ledger");
        }
        for l in &self.only_new {
            let _ = writeln!(out, "{l:<56} new leg (no baseline)");
        }
        out
    }
}

/// Compare `new` against the `old` baseline: legs are matched by label.
pub fn diff_ledgers(old: &Ledger, new: &Ledger, threshold: f64) -> DiffReport {
    let mut deltas = Vec::new();
    let mut only_new = Vec::new();
    for leg in &new.legs {
        match old.legs.iter().find(|o| o.label == leg.label) {
            Some(o) => deltas.push(LegDelta {
                label: leg.label.clone(),
                old_s: o.virtual_s,
                new_s: leg.virtual_s,
            }),
            None => only_new.push(leg.label.clone()),
        }
    }
    let only_old = old
        .legs
        .iter()
        .filter(|o| !new.legs.iter().any(|n| n.label == o.label))
        .map(|o| o.label.clone())
        .collect();
    DiffReport {
        threshold,
        deltas,
        only_old,
        only_new,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, virtual_s: f64) -> LedgerEntry {
        LedgerEntry {
            label: label.to_string(),
            config: config_from_label(label),
            virtual_s,
            pct_of_peak: 61.5,
            bound: "compute".to_string(),
            latency: None,
        }
    }

    fn ledger(legs: Vec<LedgerEntry>) -> Ledger {
        Ledger {
            schema_version: LEDGER_SCHEMA_VERSION,
            fig: "fig_test".to_string(),
            run_id: "deadbeef".to_string(),
            legs,
        }
    }

    #[test]
    fn label_tokens_become_structured_config() {
        let cfg = config_from_label("fig_iterate heat 512x512 n=3 batched x2");
        assert_eq!(
            cfg,
            vec![
                ("devices".into(), "2".into()),
                ("n".into(), "3".into()),
                ("shape".into(), "512x512".into()),
                ("workload".into(), "fig_iterate heat batched".into()),
            ]
        );
        // Slash-separated variant labels split too.
        let cfg = config_from_label("fig_executor/coalesced");
        assert_eq!(
            cfg,
            vec![("workload".into(), "fig_executor coalesced".into())]
        );
    }

    #[test]
    fn ledger_json_round_trips() {
        let mut with_latency = entry("fig_test serving x2", 0.5);
        let h = skelcl::Histogram::default();
        h.observe(1e-3);
        with_latency.latency = Some(h.snapshot());
        let before = ledger(vec![entry("fig_test plain 64x64 x1", 1.25), with_latency]);
        let after = Ledger::parse(&before.to_json()).expect("round trip");
        assert_eq!(before, after);
    }

    #[test]
    fn unknown_schema_version_is_rejected() {
        let text = ledger(vec![])
            .to_json()
            .replace("\"schema_version\":1", "\"schema_version\":99");
        let err = Ledger::parse(&text).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
    }

    #[test]
    fn diff_flags_regressions_and_vanished_legs() {
        let old = ledger(vec![entry("a", 1.0), entry("b", 1.0), entry("gone", 1.0)]);
        let new = ledger(vec![entry("a", 1.1), entry("b", 1.3), entry("fresh", 1.0)]);
        let diff = diff_ledgers(&old, &new, 0.20);
        assert_eq!(diff.deltas.len(), 2);
        let regressed: Vec<&str> = diff
            .regressions()
            .iter()
            .map(|d| d.label.as_str())
            .collect();
        assert_eq!(regressed, ["b"], "only the ≥20% slowdown regresses");
        assert_eq!(diff.only_old, ["gone"]);
        assert_eq!(diff.only_new, ["fresh"]);
        assert!(diff.failed(), "regression + vanished leg fail the gate");

        // Inside the threshold and with full coverage, the gate passes.
        let ok = diff_ledgers(
            &old,
            &ledger(vec![entry("a", 1.1), entry("b", 1.15), entry("gone", 0.9)]),
            0.20,
        );
        assert!(!ok.failed(), "{:?}", ok.regressions());
    }

    #[test]
    fn sink_dedupes_by_label_last_wins() {
        // Use labels no real figure produces so parallel tests can't collide.
        record_leg(entry("ledger_selftest leg_a", 1.0));
        record_leg(entry("ledger_selftest leg_a", 2.0));
        record_leg(entry("ledger_selftest leg_b", 3.0));
        let legs = legs_for("ledger_selftest");
        assert_eq!(legs.len(), 2);
        assert_eq!(legs[0].virtual_s, 2.0, "last measurement wins");
        assert_eq!(legs[1].virtual_s, 3.0);
    }
}
