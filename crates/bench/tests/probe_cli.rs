//! Every `ookami-bench` binary parses its command line through the shared
//! probe harness: `--help` exits 0, an unknown flag (a typo such as
//! `--smok` must not silently run full mode) or a value-taking flag
//! without its value exits 2. None of these runs any workload.

use std::process::Command;

/// Every binary with the value-taking flags it accepts.
const BINS: [(&str, &str, &[&str]); 14] = [
    ("ablations", env!("CARGO_BIN_EXE_ablations"), &[]),
    ("accuracy", env!("CARGO_BIN_EXE_accuracy"), &[]),
    (
        "benchdiff",
        env!("CARGO_BIN_EXE_benchdiff"),
        &["--baseline", "--current", "--out"],
    ),
    ("cachesim", env!("CARGO_BIN_EXE_cachesim"), &[]),
    ("figures", env!("CARGO_BIN_EXE_figures"), &[]),
    ("forkjoin", env!("CARGO_BIN_EXE_forkjoin"), &[]),
    (
        "ookamicheck",
        env!("CARGO_BIN_EXE_ookamicheck"),
        &["--json"],
    ),
    ("ookamiprof", env!("CARGO_BIN_EXE_ookamiprof"), &[]),
    (
        "ookamiserve",
        env!("CARGO_BIN_EXE_ookamiserve"),
        &["--addr"],
    ),
    ("ookamistat", env!("CARGO_BIN_EXE_ookamistat"), &["--trace"]),
    ("report", env!("CARGO_BIN_EXE_report"), &[]),
    ("spmv", env!("CARGO_BIN_EXE_spmv"), &[]),
    ("svereplay", env!("CARGO_BIN_EXE_svereplay"), &[]),
    ("tables", env!("CARGO_BIN_EXE_tables"), &[]),
];

fn exit_code(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe)
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary starts");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code(), text)
}

#[test]
fn help_exits_0_on_every_binary() {
    for (name, exe, _) in BINS {
        let (code, text) = exit_code(exe, &["--help"]);
        assert_eq!(code, Some(0), "{name} --help: {text}");
        assert!(
            text.contains("usage"),
            "{name} --help printed no usage: {text}"
        );
    }
}

#[test]
fn unknown_flag_exits_2_on_every_binary() {
    for (name, exe, _) in BINS {
        let (code, text) = exit_code(exe, &["--smok"]);
        assert_eq!(code, Some(2), "{name} --smok: {text}");
        assert!(
            text.contains("--smok"),
            "{name} did not name the flag: {text}"
        );
    }
}

#[test]
fn missing_value_exits_2() {
    for (name, exe, options) in BINS {
        for opt in options {
            let (code, text) = exit_code(exe, &[opt]);
            assert_eq!(code, Some(2), "{name} {opt} without a value: {text}");
            assert!(text.contains("needs a value"), "{name} {opt}: {text}");
        }
    }
}

#[test]
fn deleted_flags_are_rejected() {
    for (name, args) in [
        ("benchdiff", &["--tol", "0.5"][..]),
        ("ookamistat", &["--serve", "127.0.0.1:0"]),
        ("ookamiprof", &["--serve", "127.0.0.1:0"]),
        ("ookamiprof", &["--out", "x.json"]),
        ("ookamiprof", &["--collapsed", "x"]),
        ("ookamiserve", &["--iterations", "1"]),
        ("ookamiserve", &["--bench-dir", "."]),
        ("ookamiserve", &["--smoke"]),
        ("forkjoin", &["100"]),
        ("report", &["--derive", "x.json", "--threads", "2"]),
    ] {
        let exe = BINS
            .iter()
            .find(|b| b.0 == name)
            .map(|b| b.1)
            .expect("listed binary");
        let (code, text) = exit_code(exe, args);
        assert_eq!(code, Some(2), "{name} {args:?}: {text}");
    }
}
