//! The `dgsf-expt` command line: an unknown subcommand is a usage error,
//! not a silent successful run.

use std::process::Command;

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_dgsf-expt"))
        .arg("no-such-experiment")
        .output()
        .expect("dgsf-expt runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    let err = String::from_utf8(out.stderr).expect("usage is UTF-8");
    assert!(err.contains("usage: dgsf-expt <"), "{err}");
    for cmd in ["table2", "restart", "sjf", "all", "trace", "attribute"] {
        assert!(err.contains(cmd), "usage lists {cmd}: {err}");
    }
}
