//! The `repro` command line: bad arguments print the usage and every entry
//! name and exit with status 2 before any corpus is built; a good one runs.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts")
}

#[test]
fn bad_arguments_print_the_usage_and_exit_2() {
    let cases: [&[&str]; 5] = [
        &["--sed", "7", "all"],
        &["all", "--seed"],
        &["--seed", "abc", "all"],
        &["fig10_coverage", "fig99"],
        &[],
    ];
    for args in cases {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        for (name, ..) in sqp_experiments::EXPERIMENTS {
            assert!(stderr.contains(name), "{args:?}: usage lacks {name}");
        }
    }
}

#[test]
fn a_named_entry_runs() {
    let out = repro(&["fig03_toy_pst"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("verdict: EXACT MATCH"), "{stdout}");
}
