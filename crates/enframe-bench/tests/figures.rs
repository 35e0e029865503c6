//! The figure table is total: the `figures` binary lists exactly the
//! eight sweeps and refuses a name it does not know. (A whole sweep is
//! minutes even at smoke size, so no test runs one; the loop they all
//! share is covered by the lib test
//! `sweep_emits_one_complete_ok_row_per_engine`.)

use std::process::Command;

const SWEEPS: [&str; 8] = [
    "fig6_left",
    "fig6_right",
    "fig7_mutex",
    "fig7_conditional",
    "fig8_certain",
    "fig9_workers",
    "fig_bdd",
    "ablations",
];

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs")
}

#[test]
fn no_argument_lists_exactly_the_eight_sweeps() {
    let out = figures(&[]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    let listed: Vec<&str> = stdout
        .lines()
        .map(|line| line.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(listed, SWEEPS, "{stdout}");
}

#[test]
fn an_unknown_name_fails_and_prints_the_list() {
    // A known name before the typo must not start running either.
    let out = figures(&["fig7_mutex", "fig7_mutexx"]);
    assert!(!out.status.success(), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing may run: {out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 message");
    assert!(stderr.contains("fig7_mutexx"), "{stderr}");
    for name in SWEEPS {
        assert!(
            stderr
                .lines()
                .any(|line| line.split_whitespace().next() == Some(name)),
            "{name} missing from: {stderr}"
        );
    }
}
