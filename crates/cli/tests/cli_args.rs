//! The `tbpoint` binary's argument handling: an unknown command, an
//! unknown flag, a valued flag whose value is missing or malformed, or
//! `--trace-out` on a command that cannot honour it is a usage error (exit 2 and a message naming the offender), never a
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
        // Zero is no bound: each of these would compute nothing,
        // fail at the first unit or reject every request.
        (
            &[
                "eval",
                "--scale",
                "tiny",
                "--max-units",
                "0",
                "--artifacts",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_artifacts"),
            ],
            2,
            "--max-units needs a positive integer",
        ),
        (
            &[
                "eval",
                "--scale",
                "tiny",
                "--cycle-budget",
                "0",
                "--artifacts",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_artifacts"),
            ],
            2,
            "--cycle-budget needs a positive cycle count",
        ),
        (
            &["serve", "--max-pending", "0"],
            2,
            "--max-pending needs a positive integer",
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
        // Commands that trace nothing, and `all`, whose two sweeps
        // would write the one trace file twice.
        (
            &[
                "fig8",
                "--scale",
                "tiny",
                "--trace-out",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_trace.jsonl"),
                "--artifacts",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_artifacts"),
            ],
            2,
            "--trace-out is not honoured by \"fig8\"",
        ),
        (
            &[
                "all",
                "--scale",
                "tiny",
                "--trace-out",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_trace.jsonl"),
                "--artifacts",
                concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_args_artifacts"),
            ],
            2,
            "--trace-out cannot be combined with all",
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
