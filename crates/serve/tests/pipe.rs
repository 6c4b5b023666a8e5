//! Pipe mode of the real `ltf-serve` binary: every stdin line draws one
//! stdout line, a line that is not UTF-8 included, a reader that goes
//! away ends the daemon quietly, and a stdin that cannot be read ends it
//! with one error line.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const NOT_UTF8_REPLY: &str = r#"{"id":null,"status":"error","kind":"parse","heuristic":null,"message":"request line is not valid UTF-8"}"#;

/// Feed `input` to a pipe-mode daemon and return its reply lines.
fn replies(input: &[u8]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ltf-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ltf-serve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input)
        .expect("write stdin");
    let out = child.wait_with_output().expect("ltf-serve output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 replies");
    stdout.lines().map(str::to_string).collect()
}

/// The first line is answered although the second is not UTF-8 and sits
/// in the same batch; the second is one `parse` reply; the third is
/// served and counts the error.
#[test]
fn invalid_utf8_line_is_one_parse_reply() {
    let got = replies(b"{\"cmd\":\"heuristics\"}\n\xff\xfe bad\n{\"cmd\":\"stats\"}\n");
    assert_eq!(got.len(), 3, "{got:?}");
    assert!(got[0].starts_with(r#"{"status":"ok","heuristics""#));
    assert_eq!(got[1], NOT_UTF8_REPLY);
    assert!(
        got[2].contains(r#""errors":1,"errors_by_kind":{"parse":1}"#),
        "{}",
        got[2]
    );
}

/// A rejected line is counted after the lines read before it, as a
/// serial run counts it: a `stats` request ahead of it in the same batch
/// does not see its error.
#[test]
fn a_rejected_line_is_counted_in_line_order() {
    let got = replies(b"{\"cmd\":\"stats\"}\n\xff\n");
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got[0].contains(r#""errors":0,"#), "{}", got[0]);
    assert_eq!(got[1], NOT_UTF8_REPLY);
}

/// A reader that goes away ends pipe mode quietly: exit status 0 and
/// nothing on stderr, although replies were still due. The first full
/// batch is answered before the reader leaves.
#[test]
fn closed_reader_ends_pipe_mode_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ltf-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ltf-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let line = b"{\"cmd\":\"heuristics\"}\n";
    for _ in 0..64 {
        stdin.write_all(line).expect("write stdin");
    }
    stdin.flush().expect("flush stdin");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first reply");
    assert!(
        first.starts_with(r#"{"status":"ok","heuristics""#),
        "{first}"
    );
    // The reader is gone; the daemon may exit before it reads all of these.
    for _ in 64..300 {
        if stdin.write_all(line).is_err() {
            break;
        }
    }
    drop(stdin);
    let out = child.wait_with_output().expect("ltf-serve exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}

/// A stdin that fails to read (here a directory) is one line on stderr and
/// exit status 1, not a panic.
#[test]
fn unreadable_stdin_is_one_error_line() {
    let dir = File::open(env!("CARGO_MANIFEST_DIR")).expect("open the crate directory");
    let out = Command::new(env!("CARGO_BIN_EXE_ltf-serve"))
        .stdin(Stdio::from(dir))
        .output()
        .expect("run ltf-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("ltf-serve: stdin:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}
