//! An injected request panic is contained without a word on stderr: the
//! request gets a normal failure response carrying the panic message,
//! and `tbpoint serve` prints only its counters line, even with
//! `RUST_BACKTRACE=1`.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn injected_request_panic_leaves_only_the_counters_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tbpoint"))
        .args(["serve", "--pool-workers", "1"])
        .env("RUST_BACKTRACE", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tbpoint serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(
            b"{\"id\":\"boom\",\"cmd\":\"simulate\",\"bench\":\"hotspot\",\"fault\":\"panic\"}\n",
        )
        .expect("write request");
    let out = child.wait_with_output().expect("wait for tbpoint serve");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let response: tbpoint_serve::Response =
        serde_json::from_str(stdout.trim_end()).expect("one response line");
    assert_eq!(response.id, "boom");
    assert_eq!(response.status, "error");
    assert!(
        response.error.contains("injected request panic"),
        "{}",
        response.error
    );

    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr:\n{stderr}");
    assert!(
        lines[0].starts_with("serve: admitted=1 ") && lines[0].ends_with(" failed=1"),
        "{}",
        lines[0]
    );
}
