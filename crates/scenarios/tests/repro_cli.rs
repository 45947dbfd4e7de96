//! End-to-end checks of the `repro` binary's command line.

use std::process::Command;

/// Runs `repro` with `args` and returns its exit success and stderr.
fn repro(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    (out.status.success(), String::from_utf8(out.stderr).expect("utf-8 stderr"))
}

/// Every campaign names its own setting on the progress lines: fig14a's
/// runs must not be reported under fig7e's last label, and the first run
/// of each two-run side carries an ETA.
#[test]
fn campaign_progress_names_each_setting() {
    let args = ["--runs", "2", "--duration", "10", "--jobs", "1", "fig7e", "fig14a"];
    let (ok, stderr) = repro(&args);
    assert!(ok, "repro failed:\n{stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    let at = |prefix: &str| {
        lines.iter().position(|l| l.starts_with(prefix)).unwrap_or_else(|| {
            panic!("no {prefix:?} line in:\n{stderr}");
        })
    };
    let fig14a = &lines[at("# experiment fig7e") + 1..at("# experiment fig14a")];
    assert!(!fig14a.is_empty(), "fig14a printed no progress:\n{stderr}");
    assert!(
        fig14a.iter().all(|l| !l.contains("[2 directions")),
        "fig14a runs reported under fig7e's setting:\n{}",
        fig14a.join("\n")
    );
    assert!(fig14a.iter().any(|l| l.contains("ETA")), "no ETA:\n{}", fig14a.join("\n"));
}

/// A misspelt experiment is rejected before any experiment runs.
#[test]
fn unknown_experiment_fails_before_running_anything() {
    let (ok, stderr) = repro(&["--runs", "1", "--duration", "10", "fig7e", "fig7x"]);
    assert!(!ok);
    assert!(stderr.contains("unknown experiment fig7x"), "got:\n{stderr}");
    assert!(!stderr.contains("# experiment fig7e"), "fig7e ran first:\n{stderr}");
}
