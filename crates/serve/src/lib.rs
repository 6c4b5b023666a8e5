//! Scheduler-as-a-service for the LTF / R-LTF strategy family.
//!
//! The `ltf-serve` binary wraps this library: a daemon that reads
//! line-delimited JSON solve requests (stdin/stdout pipe mode, or a TCP
//! listener via `--listen`), answers each with a typed solution or a
//! structured error, memoizes solutions in an LRU keyed by
//! `(graph fingerprint, platform fingerprint, heuristic, config)`, and
//! reports per-request service-time statistics on demand. The wire
//! formats are specified in `docs/protocol.md` at the repo root.
//!
//! * [`proto`] — the wire protocol: request/response types and parsing,
//! * [`engine`] — the [`Service`]: one request path, [`Service::handle_line`],
//!   shareable between threads,
//! * [`tcp`] — the TCP accept loop, one thread per connection,
//! * [`lines`] — the request-line loop of both transports
//!   ([`lines::answer`]) and its bounded line reader,
//! * [`cache`] — the [`LruCache`] and instance fingerprints,
//! * [`stats`] — service-time percentiles and outcome counters.
//!
//! Beyond single solves, a daemon doubles as a **campaign worker**: a
//! `{"cmd":"shard",...}` request ([`ShardRequest`]) carries a full
//! campaign spec plus a `"K/N"` shard selector, and the reply streams
//! back that shard's enumerated fronts for the `ltf-campaign`
//! coordinator to merge (connect mode). The compute path is the same
//! `ltf_experiments::campaign` code a spawned worker runs, so spawn
//! mode, connect mode and a serial run are byte-identical by
//! construction.
//!
//! Two properties the tests pin, which everything above relies on:
//!
//! * **A malformed request line never terminates the service** — every
//!   input line gets exactly one response line, errors included
//!   (`tests/protocol_errors.rs`).
//! * **Responses are bit-stable** — timings appear only in `stats`
//!   replies, and the caches change no reply but its `cached` flag, so
//!   piped output diffs cleanly against committed goldens
//!   (`tests/golden/`).

pub mod cache;
pub mod engine;
pub mod lines;
pub mod proto;
pub mod stats;
pub mod tcp;

pub use cache::{CacheKey, LruCache};
pub use engine::{Service, ServiceConfig};
pub use proto::{ErrResponse, OkResponse, Request, ShardRequest, SolutionWire, SolveRequest};
pub use stats::StatsReport;
