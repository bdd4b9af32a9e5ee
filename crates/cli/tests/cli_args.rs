//! The `tbpoint` binary's argument handling: an unknown command, an
//! unknown flag, or a valued flag whose value is missing or malformed is
//! a usage error (exit 2 and a message naming the offender), never a
//! silent default.

use std::process::Command;

#[test]
fn usage_errors_exit_2_and_name_the_offender() {
    let cases: &[(&[&str], i32, &str)] = &[
        (&["bench"], 2, "unknown command \"bench\""),
        (&["profile", "spmv"], 2, "unknown command \"profile\""),
        (&["eval", "--quick"], 2, "unknown argument \"--quick\""),
        (&["eval", "--check", "F"], 2, "unknown argument \"--check\""),
        (
            &["eval", "--counts-out", "F"],
            2,
            "unknown argument \"--counts-out\"",
        ),
        (&["fig5", "--samples", "abc"], 2, "--samples needs"),
        (
            &["fig5", "--threads", "2"],
            2,
            "unknown argument \"--threads\"",
        ),
        (&["eval", "--artifacts"], 2, "--artifacts needs"),
        (&["table6", "--scale", "huge"], 2, "unknown scale \"huge\""),
        (&["table6", "--jobs", "2"], 2, "unknown argument \"--jobs\""),
        (
            &["serve", "--retries", "2"],
            2,
            "unknown argument \"--retries\"",
        ),
        (
            &["table6", "--pool-workers", "0"],
            2,
            "--pool-workers needs a worker count",
        ),
        // Rejected while parsing, before any unit runs: a resumed unit
        // has no trace.
        (
            &[
                "eval",
                "--scale",
                "tiny",
                "--trace-out",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_trace.jsonl"),
                "--resume",
                "--artifacts",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_artifacts"),
            ],
            2,
            "--trace-out cannot be combined with --resume",
        ),
        (&["table6", "--scale", "tiny"], 0, ""),
    ];
    for &(args, code, fragment) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_tbpoint"))
            .args(args)
            .output()
            .expect("spawn tbpoint");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.contains(fragment), "{args:?}: {stderr}");
    }
}
