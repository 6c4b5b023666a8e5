//! The TCP transport: one thread per connection, each answering its
//! request lines in order, one reply line apiece. Connections share the
//! [`Service`] — its cache and counters — and solve in parallel (see the
//! engine's concurrency notes).

use crate::lines::{Line, Lines};
use crate::Service;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};

/// Accept connections on `listener` and serve each on its own thread,
/// until the process exits.
pub fn serve(listener: &TcpListener, service: &Service) {
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            match stream {
                Ok(stream) => {
                    scope.spawn(move || {
                        let peer = stream.peer_addr();
                        // A read or write error ends the connection, the
                        // same as the peer closing it.
                        let _ = answer(service, &stream);
                        if let Ok(peer) = peer {
                            eprintln!("ltf-serve: {peer} disconnected");
                        }
                    });
                }
                Err(e) => eprintln!("ltf-serve: accept failed: {e}"),
            }
        }
    });
}

/// Answer `stream`'s lines until EOF. Each reply goes out with its
/// newline in one write, and Nagle is off: with Nagle on, a short segment
/// waits until the peer acknowledges the previous one, and a peer that
/// delays its ACK (~40 ms on Linux) stalls every reply ending in one.
/// A line over [`Service::line_limit`] or not in UTF-8 gets one error
/// reply ([`Service::reject`]).
fn answer(service: &Service, stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut out = stream;
    for line in Lines::new(BufReader::new(stream), service.line_limit()) {
        let mut reply = match line? {
            Line::Text(line) if line.trim().is_empty() => continue,
            Line::Text(line) => service.handle_line(&line),
            Line::Rejected(why) => service.reject(why),
        };
        reply.push('\n');
        out.write_all(reply.as_bytes())?;
    }
    Ok(())
}
