//! The TCP transport of the real `ltf-serve` binary: a plain client
//! socket (Nagle on, delayed ACKs) gets its replies without a stall, a
//! cache hit on one connection is answered while another connection's
//! miss is still solving, `{"cmd":"stats"}` counts the requests of every
//! connection, a line nested too deep to parse, too long to buffer or
//! not in UTF-8 leaves the daemon serving, and so does running out of
//! file descriptors.

use ltf_graph::generate::{layered, LayeredConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// An `ltf-serve --listen 127.0.0.1:0` process, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open: the daemon logs one line per closed connection.
    _stderr: Option<BufReader<ChildStderr>>,
}

impl Daemon {
    fn start() -> Self {
        Self::start_with(&[])
    }

    /// A daemon with extra command-line flags.
    fn start_with(flags: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ltf-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ltf-serve");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        stderr.read_line(&mut line).expect("daemon stderr");
        let addr = line
            .trim()
            .strip_prefix("ltf-serve: listening on ")
            .unwrap_or_else(|| panic!("no listening line: {line:?}"))
            .to_string();
        Self {
            child,
            addr,
            _stderr: Some(stderr),
        }
    }

    /// A client connection with the socket defaults: Nagle stays on.
    fn connect(&self) -> Conn {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            stream,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Conn {
    fn send(&mut self, lines: &str) {
        self.stream
            .write_all(format!("{lines}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        assert!(reply.ends_with('\n'), "connection closed: {reply:?}");
        reply.pop();
        reply
    }

    fn call(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Whether a reply byte is waiting, without blocking.
    fn reply_waiting(&mut self) -> bool {
        if !self.reader.buffer().is_empty() {
            return true;
        }
        self.stream.set_nonblocking(true).unwrap();
        let waiting = match self.stream.peek(&mut [0u8; 1]) {
            Ok(n) => n > 0,
            Err(e) if e.kind() == ErrorKind::WouldBlock => false,
            Err(e) => panic!("peek: {e}"),
        };
        self.stream.set_nonblocking(false).unwrap();
        waiting
    }
}

/// A two-task request; every id shares one cache key.
fn small(id: u64) -> String {
    format!(
        r#"{{"id":{id},"heuristic":"rltf","graph":{{"tasks":[{{"name":"a","exec":2.0}},{{"name":"b","exec":3.0}}],"edges":[{{"src":0,"dst":1,"volume":1.0}}]}},"platform":{{"speeds":[1.0,1.0],"delays":[0.0,0.5,0.5,0.0]}},"config":{{"epsilon":1,"period":30.0}}}}"#
    )
}

/// A request whose solve takes far longer than a cached round trip, in
/// few bytes: unit weights and a contended star of 40 processors.
fn long(id: u64) -> String {
    let graph = layered(
        &LayeredConfig {
            tasks: 100,
            target_edges: Some(120),
            exec_range: (1.0, 1.0),
            volume_range: (1.0, 1.0),
            ..LayeredConfig::default()
        },
        &mut StdRng::seed_from_u64(7),
    );
    let m = 40;
    let speeds = vec!["1"; m].join(",");
    let links: Vec<String> = (1..m).map(|u| format!("[0,{u},0.5]")).collect();
    format!(
        r#"{{"id":{id},"heuristic":"rltf","graph":{},"platform":{{"speeds":[{speeds}],"topology":{{"links":[{}],"model":"Contended"}}}},"config":{{"epsilon":7,"period":1e9}}}}"#,
        serde_json::to_string(&graph).expect("graph"),
        links.join(",")
    )
}

/// A plain client socket waits for no delayed ACK: with a reply written
/// in two parts, each round trip here took ~40 ms.
#[test]
fn sequential_round_trips_do_not_stall() {
    let daemon = Daemon::start();
    let mut conn = daemon.connect();
    let t0 = Instant::now();
    for id in 0..100 {
        let reply = conn.call(&small(id));
        assert!(
            reply.starts_with(&format!(r#"{{"id":{id},"status":"ok""#)),
            "{reply}"
        );
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "100 round trips took {elapsed:?}"
    );
}

/// Connections solve in parallel: B's cache hit comes back while A's
/// miss is still solving, and the stats count both connections.
#[test]
fn hit_is_answered_while_another_connection_solves() {
    let daemon = Daemon::start();
    let (mut a, mut b) = (daemon.connect(), daemon.connect());
    let first = b.call(&small(1));
    assert!(first.contains(r#""cached":false"#), "{first}");

    // A stats line, then the long miss: once the stats reply is back, A's
    // connection thread has gone on to the long line.
    a.send(&format!("{}\n{}", r#"{"cmd":"stats"}"#, long(2)));
    let stats = a.recv();
    assert!(stats.contains(r#""served":1,"#), "{stats}");

    // Each hit takes well under a millisecond; behind a lock held for the
    // whole solve, they would wait for it.
    const HITS: u64 = 20;
    for id in 3..3 + HITS {
        let hit = b.call(&small(id));
        assert!(hit.contains(r#""cached":true"#), "{hit}");
        assert!(
            !a.reply_waiting(),
            "the long solve finished before hit {id} was answered"
        );
    }
    let solved = a.recv();
    assert!(solved.starts_with(r#"{"id":2,"#), "{solved}");

    let stats = b.call(r#"{"cmd":"stats"}"#);
    for field in [
        format!(r#""served":{},"#, HITS + 2),
        format!(r#""cache_hits":{HITS},"#),
        r#""cache_misses":2,"#.to_string(),
    ] {
        assert!(stats.contains(&field), "{field} missing from {stats}");
    }
}

/// A line nested far deeper than a connection thread's stack is answered
/// with a `parse` error instead of aborting the daemon, and the next
/// connection is served.
#[test]
fn deep_nesting_is_a_parse_error_not_an_abort() {
    let daemon = Daemon::start();
    let reply = daemon.connect().call(&"[".repeat(1_000_000));
    assert!(reply.contains(r#""kind":"parse""#), "{reply}");
    assert!(reply.contains("nesting deeper than 128 levels"), "{reply}");
    let reply = daemon.connect().call(&small(1));
    assert!(reply.starts_with(r#"{"id":1,"status":"ok""#), "{reply}");
}

#[test]
fn over_long_line_is_too_large_and_the_daemon_keeps_serving() {
    // Two tasks and one edge (enough for `small`) put the line limit at
    // 256 × 3 bytes + 1 MiB.
    let daemon = Daemon::start_with(&["--max-tasks", "2", "--max-edges", "1"]);
    let mut conn = daemon.connect();
    conn.send(&format!(
        "{}\n{}",
        "x".repeat(2 << 20),
        r#"{"cmd":"heuristics"}"#
    ));
    let reply = conn.recv();
    assert!(
        reply.starts_with(r#"{"id":null,"status":"error","kind":"too-large""#),
        "{reply}"
    );
    assert!(
        reply.contains("request line exceeds 1049344 bytes"),
        "{reply}"
    );
    let reply = conn.recv();
    assert!(reply.starts_with(r#"{"status":"ok""#), "{reply}");
    let reply = daemon.connect().call(&small(1));
    assert!(reply.starts_with(r#"{"id":1,"status":"ok""#), "{reply}");
}

/// A line that is not UTF-8 is one `parse` reply with a null `id`, the
/// next line on the same connection is served, and so is a new
/// connection.
#[test]
fn invalid_utf8_line_is_a_parse_error_and_the_connection_keeps_serving() {
    let daemon = Daemon::start();
    let mut conn = daemon.connect();
    conn.stream
        .write_all(b"{\"cmd\":\"heuristics\"}\n\xff\xfe bad\n{\"cmd\":\"stats\"}\n")
        .expect("send");
    let reply = conn.recv();
    assert!(
        reply.starts_with(r#"{"status":"ok","heuristics""#),
        "{reply}"
    );
    assert_eq!(
        conn.recv(),
        r#"{"id":null,"status":"error","kind":"parse","heuristic":null,"message":"request line is not valid UTF-8"}"#
    );
    let reply = conn.recv();
    assert!(
        reply.contains(r#""errors":1,"errors_by_kind":{"parse":1}"#),
        "{reply}"
    );
    let reply = daemon.connect().call(&small(1));
    assert!(reply.starts_with(r#"{"id":1,"status":"ok""#), "{reply}");
}

/// Lines of `path` that contain `needle`.
fn count_lines(path: &PathBuf, needle: &str) -> usize {
    let bytes = std::fs::read(path).expect("read the daemon's stderr");
    String::from_utf8_lossy(&bytes)
        .lines()
        .filter(|line| line.contains(needle))
        .count()
}

/// Out of file descriptors, the accept loop pauses before it retries
/// instead of spinning on `EMFILE` (a core and ~17 MB/s of "accept
/// failed" lines), and a connection left waiting is served once others
/// close.
#[test]
fn accept_pauses_when_out_of_file_descriptors() {
    let log = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("accept-emfile-{}.err", std::process::id()));
    let child = Command::new("sh")
        .args([
            "-c",
            r#"ulimit -n 16 && exec "$0" --listen 127.0.0.1:0"#,
            env!("CARGO_BIN_EXE_ltf-serve"),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(File::create(&log).expect("create the stderr log"))
        .spawn()
        .expect("spawn ltf-serve");
    let mut daemon = Daemon {
        child,
        addr: String::new(),
        _stderr: None,
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while daemon.addr.is_empty() {
        assert!(Instant::now() < deadline, "the daemon never listened");
        std::thread::sleep(Duration::from_millis(20));
        let text = std::fs::read_to_string(&log).expect("read the daemon's stderr");
        if let Some(addr) = text
            .lines()
            .find_map(|line| line.strip_prefix("ltf-serve: listening on "))
        {
            daemon.addr = addr.to_string();
        }
    }
    // 16 descriptors leave room for about 12 connections; the rest wait
    // in the listen queue with their request sent.
    let mut conns: Vec<Conn> = (0..20).map(|_| daemon.connect()).collect();
    for conn in &mut conns {
        conn.send(r#"{"cmd":"heuristics"}"#);
    }
    std::thread::sleep(Duration::from_secs(1));
    let failures = count_lines(&log, "accept failed");
    assert!(
        (1..=100).contains(&failures),
        "{failures} failed accepts in 1 s"
    );
    let (mut answered, mut waiting) = (Vec::new(), Vec::new());
    for mut conn in conns {
        if conn.reply_waiting() {
            answered.push(conn);
        } else {
            waiting.push(conn);
        }
    }
    assert!(
        !answered.is_empty() && !waiting.is_empty(),
        "{} answered, {} waiting",
        answered.len(),
        waiting.len()
    );
    answered.truncate(answered.len().saturating_sub(8));
    let first = &mut waiting[0];
    first
        .stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reply = first.recv();
    assert!(
        reply.starts_with(r#"{"status":"ok","heuristics""#),
        "{reply}"
    );
    drop(daemon);
    let _ = std::fs::remove_file(&log);
}
