//! `fig3_runtime --metrics` end to end: every ablation CI gates on
//! writes its identity verdict into the `em-metrics-v1` stream.

use std::process::Command;

#[test]
fn each_requested_ablation_writes_a_true_verdict_line() {
    let path = std::env::temp_dir().join(format!("fig3-verdicts-{}.jsonl", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_fig3_runtime"))
        .args(["--dataset", "hepth", "--scale", "0.002", "--seed", "7"])
        .args(["--incremental", "both", "--shards", "2"])
        .args(["--warm-start", "on", "--churn", "on", "--metrics"])
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn fig3_runtime");
    let text = std::fs::read_to_string(&path).expect("read the metrics file");
    std::fs::remove_file(&path).ok();
    assert!(status.success(), "fig3_runtime exited with {status}");

    for line in text.lines() {
        assert!(
            line.starts_with("{\"schema\": \"em-metrics-v1\", \"kind\": \""),
            "not an em-metrics-v1 line: {line}"
        );
    }
    let verdicts: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"kind\": \"verdict\""))
        .collect();
    let count = |key: &str, value: bool| {
        let field = format!("\"{key}\": {value}");
        verdicts.iter().filter(|l| l.contains(&field)).count()
    };
    assert_eq!(count("outputs_identical", true), 1);
    assert_eq!(count("shard_outputs_identical", true), 1);
    // Sequential and sharded-4 (the warm and churn ablations shard at
    // least four ways).
    assert_eq!(count("warm_start_identical", true), 2);
    // Three churn regimes × two backends.
    assert_eq!(count("churn_outputs_identical", true), 6);
    for line in &verdicts {
        assert!(!line.contains(": false"), "a verdict failed: {line}");
    }
}
