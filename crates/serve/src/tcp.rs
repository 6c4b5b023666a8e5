//! The TCP transport: one thread per connection, each answering its
//! request lines in order, one reply line apiece ([`answer`]).
//! Connections share the [`Service`] — its cache and counters — and solve
//! in parallel (see the engine's concurrency notes).

use crate::lines::answer;
use crate::Service;
use std::io::BufReader;
use std::net::TcpListener;
use std::time::Duration;

/// How long the accept loop waits after a failed `accept`. The usual
/// failure is running out of file descriptors, which lasts until a
/// connection closes: retrying at once would spin a core and flood stderr.
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

/// Accept connections on `listener` and serve each on its own thread,
/// until the process exits. Nagle is off on every connection: with Nagle
/// on, a short segment waits until the peer acknowledges the previous
/// one, and a peer that delays its ACK (~40 ms on Linux) stalls every
/// reply ending in one.
pub fn serve(listener: &TcpListener, service: &Service) {
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            match stream {
                Ok(stream) => {
                    scope.spawn(move || {
                        let peer = stream.peer_addr();
                        // A read or write error ends the connection, the
                        // same as the peer closing it.
                        if stream.set_nodelay(true).is_ok() {
                            let _ = answer(service, BufReader::new(&stream), &stream);
                        }
                        if let Ok(peer) = peer {
                            eprintln!("ltf-serve: {peer} disconnected");
                        }
                    });
                }
                Err(e) => {
                    eprintln!("ltf-serve: accept failed: {e}");
                    std::thread::sleep(ACCEPT_PAUSE);
                }
            }
        }
    });
}
