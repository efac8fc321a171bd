//! End-to-end tests of the `aspp` command-line binary.

use std::process::{Command, Output};

fn aspp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aspp"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn help_lists_every_command() {
    let out = aspp(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "case-study",
        "usage",
        "impact",
        "detection",
        "selection",
        "stealth",
        "mitigate",
        "simulate",
        "corpus",
        "measure",
    ] {
        assert!(text.contains(cmd), "help misses {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = aspp(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn case_study_prints_the_anomalous_route() {
    let out = aspp(&["case-study"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("7018 4134 9318 32934 32934 32934"));
    assert!(text.contains("Table I"));
}

#[test]
fn simulate_reports_impact_and_data_plane() {
    let out = aspp(&[
        "simulate",
        "--victim",
        "20000",
        "--attacker",
        "100",
        "--padding",
        "5",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("hijacks"));
    assert!(text.contains("data plane"));
    assert!(text.contains("mitigation"));
}

#[test]
fn simulate_validates_inputs() {
    let out = aspp(&["simulate", "--attacker", "100"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--victim"));

    let out = aspp(&[
        "simulate",
        "--victim",
        "20000",
        "--attacker",
        "100",
        "--strategy",
        "bogus",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));
}

#[test]
fn corpus_then_measure_round_trips() {
    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("corpus.txt");
    let path = file.to_str().unwrap();

    let out = aspp(&["corpus", "--out", path, "--prefixes", "20", "--seed", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("table entries"));

    let out = aspp(&["measure", path]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("table prepending fraction"));
    assert!(text.contains("padding depth shares"));
    std::fs::remove_file(file).ok();
}

#[test]
fn measure_rejects_missing_and_malformed_files() {
    let out = aspp(&["measure", "/nonexistent/corpus.txt"]);
    assert!(!out.status.success());

    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "BOGUS|line\n").unwrap();
    let out = aspp(&["measure", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    std::fs::remove_file(bad).ok();
}

#[test]
fn stealth_matrix_shows_aspp_evasion() {
    let out = aspp(&["stealth"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("ASPP strip"));
    assert!(text.contains("origin hijack"));
}

#[test]
fn impact_figure_selector_works() {
    let out = aspp(&["impact", "--figure", "9"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Figure 9"));
    assert!(!text.contains("Figure 10"));

    let out = aspp(&["impact", "--figure", "99"]);
    assert!(!out.status.success());
}

/// The report without its `wall:` line, which is the only part that may
/// differ between runs.
fn report_body(output: &Output) -> String {
    stdout(output)
        .lines()
        .filter(|l| !l.starts_with("wall:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn estimate_exact_honours_serial() {
    let args = ["estimate", "--scale", "smoke", "--seed", "5", "--exact"];
    let batch = aspp(&args);
    assert!(batch.status.success(), "{}", stdout(&batch));
    let serial = aspp(&[&args[..], &["--serial"]].concat());
    assert!(serial.status.success(), "{}", stdout(&serial));
    assert!(stdout(&serial).contains("[serial]"));
    assert!(report_body(&batch).contains("cross-validation"));
    assert_eq!(report_body(&serial), report_body(&batch));
}

#[test]
fn scenario_and_estimate_manifests_time_topology_generation() {
    let dir = std::env::temp_dir().join("aspp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (command, phase) in [("scenario", "scenario"), ("estimate", "estimate")] {
        let file = dir.join(format!("{command}_phases.manifest.json"));
        let path = file.to_str().unwrap();
        let out = aspp(&[
            command,
            "--scale",
            "smoke",
            "--seed",
            "4",
            "--manifest",
            path,
        ]);
        assert!(out.status.success(), "{}", stdout(&out));
        let manifest = std::fs::read_to_string(&file).unwrap();
        let start = manifest.find("\"wall_ms\":{").expect("manifest has phases");
        let phases = &manifest[start..start + manifest[start..].find('}').unwrap()];
        for name in ["generate", phase] {
            assert!(
                phases.contains(&format!("\"{name}\":")),
                "{command} manifest misses {name}: {phases}"
            );
        }
        std::fs::remove_file(file).ok();
    }
}
