//! The request-line loop both transports run, and its bounded line
//! reader. A pipe-mode daemon runs [`answer`] on stdin and stdout, the
//! TCP transport on each connection.
//!
//! `BufRead::lines()` buffers a whole line before anyone looks at it, so
//! one endless line grows the daemon's memory without limit, and it ends
//! the stream with an error at the first line that is not UTF-8. [`Lines`]
//! splits and strips lines exactly as `lines()` does, but stops buffering
//! once a line passes its byte limit: the rest of that line is read and
//! dropped up to the next newline. An over-long line and a line that is
//! not UTF-8 each come back as one [`Line::Rejected`], for the caller to
//! answer in its place ([`crate::Service::reject`]), and reading goes on
//! with the next line.

use crate::Service;
use std::io::{self, BufRead, Read, Write};

/// The side of an [`answer`] loop that failed.
#[derive(Debug)]
pub enum Failed {
    /// Reading a request line failed.
    Read(io::Error),
    /// Writing a reply failed.
    Write(io::Error),
}

/// Answer `input`'s request lines on `output` until `input` ends. Blank
/// lines are skipped; every other line gets one reply line, from
/// [`Service::handle_line`] or, for a line over [`Service::line_limit`]
/// or not in UTF-8, from [`Service::reject`]. Each reply goes out with
/// its newline in one `write_all`, and is flushed before the next line is
/// read, so a client may wait for each reply before it sends more.
pub fn answer(
    service: &Service,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), Failed> {
    for line in Lines::new(input, service.line_limit()) {
        let mut reply = match line.map_err(Failed::Read)? {
            Line::Text(line) if line.trim().is_empty() => continue,
            Line::Text(line) => service.handle_line(&line),
            Line::Rejected(why) => service.reject(why),
        };
        reply.push('\n');
        output
            .write_all(reply.as_bytes())
            .and_then(|()| output.flush())
            .map_err(Failed::Write)?;
    }
    Ok(())
}

/// One line of input.
#[derive(Debug, PartialEq, Eq)]
pub enum Line {
    /// A line within the limit, without its `\n` or `\r\n`.
    Text(String),
    /// A line that is not handed over as text; its bytes were discarded.
    Rejected(Reject),
}

/// Why a [`Line`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The line is longer than the limit.
    TooLong,
    /// The line is not valid UTF-8. It is not decoded lossily: a `U+FFFD`
    /// in a task name would then be solved as if it had been sent.
    NotUtf8,
}

/// Iterator over the lines of a reader, each at most `limit` bytes before
/// its newline (a `\r` ending a `\r\n` counts).
pub struct Lines<R> {
    inner: R,
    limit: usize,
}

impl<R: BufRead> Lines<R> {
    /// Read `inner` line by line, rejecting lines over `limit` bytes.
    pub fn new(inner: R, limit: usize) -> Self {
        Self { inner, limit }
    }

    /// The next line, or `None` at end of input.
    fn read(&mut self) -> io::Result<Option<Line>> {
        let mut buf = Vec::new();
        // A line that fits is at most `limit` bytes plus its newline, so
        // reading one byte more than that tells the two cases apart.
        let cap = (self.limit as u64).saturating_add(1);
        if (&mut self.inner).take(cap).read_until(b'\n', &mut buf)? == 0 {
            return Ok(None);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > self.limit {
            self.skip_line()?;
            return Ok(Some(Line::Rejected(Reject::TooLong)));
        }
        Ok(Some(match String::from_utf8(buf) {
            Ok(s) => Line::Text(s),
            Err(_) => Line::Rejected(Reject::NotUtf8),
        }))
    }

    /// Drop the input up to and including the next newline, a buffer at a
    /// time, without keeping any of it.
    fn skip_line(&mut self) -> io::Result<()> {
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(());
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.inner.consume(i + 1);
                    return Ok(());
                }
                None => {
                    let n = chunk.len();
                    self.inner.consume(n);
                }
            }
        }
    }
}

impl<R: BufRead> Iterator for Lines<R> {
    type Item = io::Result<Line>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn lines(input: &[u8], limit: usize) -> Vec<Line> {
        Lines::new(input, limit).map(Result::unwrap).collect()
    }

    fn text(s: &str) -> Line {
        Line::Text(s.to_string())
    }

    const TOO_LONG: Line = Line::Rejected(Reject::TooLong);
    const NOT_UTF8: Line = Line::Rejected(Reject::NotUtf8);

    #[test]
    fn strips_newlines_like_std_lines() {
        let input = b"a\nbb\r\n\nc\r\rd\r";
        let std: Vec<Line> = input.lines().map(|l| Line::Text(l.unwrap())).collect();
        assert_eq!(lines(input, 64), std);
        assert_eq!(
            lines(input, 64),
            [text("a"), text("bb"), text(""), text("c\r\rd\r")]
        );
        assert!(lines(b"", 64).is_empty());
    }

    #[test]
    fn the_limit_is_inclusive() {
        assert_eq!(
            lines(b"abcd\nabcde\nxy", 4),
            [text("abcd"), TOO_LONG, text("xy")]
        );
        // A CRLF line's `\r` counts toward the limit.
        assert_eq!(lines(b"abc\r\nabcd\r\n", 4), [text("abc"), TOO_LONG]);
        // An over-long last line without a newline is still one reply.
        assert_eq!(lines(b"ok\nabcdefgh", 4), [text("ok"), TOO_LONG]);
    }

    /// Hands out at most three bytes per read, so lines arrive split
    /// across reads (and an over-long one across many).
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.0.len().min(out.len()).min(3);
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn lines_split_across_reads_still_work() {
        let input = b"abcde\r\nabcdefghijkl\nxyz\nabcdef\n";
        let got: Vec<Line> = Lines::new(BufReader::with_capacity(2, Trickle(input)), 6)
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, [text("abcde"), TOO_LONG, text("xyz"), text("abcdef")]);
    }

    /// A line that is not UTF-8 is one rejected line, not a stream
    /// error, and the lines after it are read as usual (a last line
    /// without its newline too).
    #[test]
    fn invalid_utf8_is_an_error() {
        assert_eq!(
            lines(b"\xff\nok\n\xff\xfe bad\r\nb\xc3\xa9\n\xc3", 64),
            [NOT_UTF8, text("ok"), NOT_UTF8, text("b\u{e9}"), NOT_UTF8]
        );
    }
}
