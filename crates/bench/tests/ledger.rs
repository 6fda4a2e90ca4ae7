//! End-to-end pin of the perf-ledger contract: `write_fig` produces a
//! parseable schema-versioned `BENCH_*.json`, the `benchdiff` binary
//! honours its documented exit codes (0 within threshold / 1 regression
//! or coverage loss / 2 usage-IO-parse error) against real files, and the
//! figure table and the committed seed ledgers name the same figures.

use skelcl_bench::ledger::{
    config_from_label, diff_ledgers, record_leg, Ledger, LedgerEntry, LEDGER_SCHEMA_VERSION,
};
use skelcl_bench::FIGURES;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skelcl-ledger-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn entry(label: &str, virtual_s: f64) -> LedgerEntry {
    LedgerEntry {
        label: label.to_string(),
        config: config_from_label(label),
        virtual_s,
        pct_of_peak: 50.0,
        bound: "compute".to_string(),
        latency: None,
    }
}

fn ledger(fig: &str, run_id: &str, legs: Vec<LedgerEntry>) -> Ledger {
    Ledger {
        schema_version: LEDGER_SCHEMA_VERSION,
        fig: fig.to_string(),
        run_id: run_id.to_string(),
        legs,
    }
}

fn write(dir: &std::path::Path, name: &str, l: &Ledger) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, l.to_json()).unwrap();
    path
}

fn benchdiff(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args(args)
        .output()
        .expect("benchdiff binary runs");
    (
        out.status.code().expect("benchdiff exits normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn benchdiff_exit_codes_match_the_documented_contract() {
    let dir = scratch_dir("exitcodes");
    let base = ledger(
        "fig_demo",
        "seed",
        vec![
            entry("fig_demo alpha 64x64 x1", 1.0),
            entry("fig_demo beta n=3 x2", 2.0),
        ],
    );
    let ok = ledger(
        "fig_demo",
        "head",
        vec![
            // 10% slower: inside the default 20% threshold.
            entry("fig_demo alpha 64x64 x1", 1.1),
            entry("fig_demo beta n=3 x2", 1.9),
        ],
    );
    let regressed = ledger(
        "fig_demo",
        "head",
        vec![
            // 25% slower: an injected regression past the 20% threshold.
            entry("fig_demo alpha 64x64 x1", 1.25),
            entry("fig_demo beta n=3 x2", 2.0),
        ],
    );
    let old_p = write(&dir, "old.json", &base);
    let ok_p = write(&dir, "ok.json", &ok);
    let bad_p = write(&dir, "bad.json", &regressed);

    let (code, stdout, _) = benchdiff(&[old_p.to_str().unwrap(), ok_p.to_str().unwrap()]);
    assert_eq!(code, 0, "within threshold must exit 0:\n{stdout}");
    assert!(stdout.contains("OK: 2 leg(s)"), "{stdout}");

    let (code, stdout, _) = benchdiff(&[old_p.to_str().unwrap(), bad_p.to_str().unwrap()]);
    assert_eq!(code, 1, "injected 25% regression must exit 1:\n{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("FAIL: 1 leg(s)"), "{stdout}");

    // A looser threshold lets the same pair pass.
    let (code, _, _) = benchdiff(&[
        "--threshold",
        "0.30",
        old_p.to_str().unwrap(),
        bad_p.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "25% slowdown passes a 30% threshold");

    // Usage / IO / parse errors all exit 2.
    let (code, _, stderr) = benchdiff(&[old_p.to_str().unwrap()]);
    assert_eq!(code, 2, "missing operand is a usage error");
    assert!(stderr.contains("usage:"), "{stderr}");
    let (code, _, _) = benchdiff(&[old_p.to_str().unwrap(), "/nonexistent/ledger.json"]);
    assert_eq!(code, 2, "unreadable file is an IO error");
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{not json").unwrap();
    let (code, _, _) = benchdiff(&[old_p.to_str().unwrap(), garbage.to_str().unwrap()]);
    assert_eq!(code, 2, "parse failure is an error, not a pass");
}

#[test]
fn vanished_baseline_leg_fails_the_gate() {
    let dir = scratch_dir("vanished");
    let old = ledger("fig_demo", "seed", vec![entry("a", 1.0), entry("b", 1.0)]);
    let new = ledger("fig_demo", "head", vec![entry("a", 1.0)]);
    let old_p = write(&dir, "old.json", &old);
    let new_p = write(&dir, "new.json", &new);
    let (code, stdout, _) = benchdiff(&[old_p.to_str().unwrap(), new_p.to_str().unwrap()]);
    assert_eq!(code, 1, "losing a measured leg must not read as a pass");
    assert!(stdout.contains("MISSING from new ledger"), "{stdout}");
}

#[test]
fn write_fig_persists_recorded_legs_when_dir_is_set() {
    // Env mutation is confined to this one test; the figure name is
    // unique so parallel tests recording into the shared sink can't leak
    // into the written figure. `fig_writetest2` shares its prefix and must
    // stay out of it.
    let dir = scratch_dir("writefig");
    record_leg(entry("fig_writetest warm 128x128 x2", 0.125));
    record_leg(entry("fig_writetest/served", 0.25));
    record_leg(entry("fig_writetest2 warm 128x128 x1", 0.5));
    std::env::set_var("SKELCL_LEDGER_DIR", &dir);
    std::env::set_var("SKELCL_RUN_ID", "cafe1234");
    let path = skelcl_bench::ledger::write_fig("fig_writetest").expect("dir set => writes");
    std::env::remove_var("SKELCL_LEDGER_DIR");
    std::env::remove_var("SKELCL_RUN_ID");

    assert_eq!(path, dir.join("BENCH_fig_writetest.json"));
    let loaded = Ledger::load(&path).expect("written ledger parses");
    assert_eq!(loaded.schema_version, LEDGER_SCHEMA_VERSION);
    assert_eq!(loaded.fig, "fig_writetest");
    assert_eq!(loaded.run_id, "cafe1234");
    assert_eq!(loaded.legs.len(), 2);
    assert_eq!(loaded.legs[0].virtual_s, 0.125);
    assert_eq!(
        loaded.legs[0].config,
        vec![
            ("devices".to_string(), "2".to_string()),
            ("shape".to_string(), "128x128".to_string()),
            ("workload".to_string(), "fig_writetest warm".to_string()),
        ]
    );

    // Diffing a ledger against itself is clean at any threshold.
    assert!(!diff_ledgers(&loaded, &loaded, 0.0).failed());
}

#[test]
fn figure_table_and_committed_seeds_name_the_same_figures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut names = HashSet::new();
    for fig in FIGURES {
        assert!(names.insert(fig.name), "{} is registered twice", fig.name);
        let seed = root.join(format!("BENCH_{}.json", fig.name));
        let ledger = Ledger::load(&seed).unwrap_or_else(|e| panic!("seed of {}: {e}", fig.name));
        assert_eq!(ledger.fig, fig.name, "{}", seed.display());
    }
    for file in std::fs::read_dir(&root).expect("repo root lists") {
        let file = file.expect("dir entry").file_name();
        let file = file.to_string_lossy();
        if let Some(stem) = file
            .strip_prefix("BENCH_")
            .and_then(|f| f.strip_suffix(".json"))
        {
            assert!(names.contains(stem), "seed {file} has no FIGURES entry");
        }
    }
}

#[test]
fn figures_ledger_rejects_an_unknown_name_with_the_registered_list() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["ledger", "no_such_fig"])
        .output()
        .expect("figures binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for fig in FIGURES {
        assert!(stderr.contains(fig.name), "{stderr}");
    }
}
