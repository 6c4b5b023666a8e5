//! Pipe mode of the real `ltf-serve` binary: every stdin line draws one
//! stdout line before the next line is read, a line that is not UTF-8
//! included, a reader that goes away ends the daemon quietly, and a stdin
//! that cannot be read ends it with one error line.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

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

/// The first line is answered although the second is not UTF-8; the
/// second is one `parse` reply; the third is served and counts the error.
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

/// A rejected line is counted in line order: a `stats` request ahead of
/// it does not see its error.
#[test]
fn a_rejected_line_is_counted_in_line_order() {
    let got = replies(b"{\"cmd\":\"stats\"}\n\xff\n");
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got[0].contains(r#""errors":0,"#), "{}", got[0]);
    assert_eq!(got[1], NOT_UTF8_REPLY);
}

/// A reader that goes away ends pipe mode quietly: exit status 0 and
/// nothing on stderr, although replies were still due.
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

/// Each line is answered while stdin stays open: a client may wait for
/// one reply before it sends the next line. The replies are read on a
/// thread, so a daemon that holds them fails the test instead of hanging
/// it.
#[test]
fn each_reply_comes_before_the_next_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ltf-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ltf-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in stdout.lines() {
            if tx.send(line.expect("read stdout")).is_err() {
                break;
            }
        }
    });
    for round in 0..2 {
        stdin
            .write_all(b"{\"cmd\":\"heuristics\"}\n")
            .expect("write stdin");
        stdin.flush().expect("flush stdin");
        let reply = match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(reply) => reply,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("no reply to line {round} with stdin open: {e}");
            }
        };
        assert!(
            reply.starts_with(r#"{"status":"ok","heuristics""#),
            "{reply}"
        );
    }
    drop(stdin);
    let status = child.wait().expect("ltf-serve exit");
    assert!(status.success(), "{status:?}");
    reader.join().expect("reader thread");
    assert!(rx.try_recv().is_err(), "a reply nobody asked for");
}

/// A `stats` request counts every line before it: two identical solves
/// are one miss and one hit.
#[test]
fn stats_counts_the_lines_before_it() {
    let solve = r#"{"id":1,"heuristic":"rltf","graph":{"tasks":[{"name":"a","exec":2.0},{"name":"b","exec":3.0}],"edges":[{"src":0,"dst":1,"volume":1.0}]},"platform":{"speeds":[1.0,1.0],"delays":[0.0,0.5,0.5,0.0]},"config":{"epsilon":1,"period":30.0}}"#;
    let got = replies(format!("{solve}\n{solve}\n{{\"cmd\":\"stats\"}}\n").as_bytes());
    assert_eq!(got.len(), 3, "{got:?}");
    assert!(got[0].contains(r#""cached":false"#), "{}", got[0]);
    assert!(got[1].contains(r#""cached":true"#), "{}", got[1]);
    for field in [
        r#""served":2,"ok":2,"#,
        r#""cache_hits":1,"cache_misses":1,"cache_len":1,"#,
    ] {
        assert!(got[2].contains(field), "{field} missing from {}", got[2]);
    }
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
