//! # cfd-serve
//!
//! The resident service behind `cfd serve`: a dependency-free TCP
//! line-protocol server that keeps datasets — and their amortizable
//! derived state — in memory across requests, so N clients pay the
//! ingest/index cost once instead of once per `cfd` invocation.
//!
//! Three subsystems (one module each, protocol grammar in DESIGN.md
//! §12):
//!
//! * [`registry`] — named relations ingested once through the chunked
//!   pipeline, each shared behind an `Arc` — with the value regions
//!   its columns build on first use — and admitted against a
//!   server-wide byte budget;
//! * [`jobs`] — discover/check/repair jobs with per-job cancellation
//!   flags, run by a fixed worker pool behind a *bounded* queue
//!   (overload is a structured `queue_full` error, not unbounded
//!   buffering);
//! * [`server`] — the accept loop and per-connection reader/writer
//!   threads that stream newline-delimited JSON replies, job progress
//!   events, and final `Discovery`/`ValidationReport` documents to
//!   many concurrent sockets.
//!
//! [`client`] is the matching client side: one request per write on a
//! `TCP_NODELAY` socket, and replies told apart from job events.
//!
//! [`faultpoint`] is the chaos-testing harness: named
//! fault-injection points threaded through the stack (free when
//! disarmed) that the `inject` op of a `--faults` server arms to
//! simulate dead sockets, torn frames, stalls, and panics. The
//! failure-mode contract — which error code a client sees for each
//! trigger, and which are retryable — is DESIGN.md §14.
//!
//! Results are *identical to the one-shot CLI*: jobs make the calls
//! `cfd discover` and `cfd check` make (`discover_with`,
//! `validate_with`), and discovery output is independent of thread
//! count by the determinism contract, so a server answer can be diffed
//! byte-for-byte against `cfd discover` / `cfd check` (the integration
//! tests do exactly that). A discover request's `cache_budget_mb` only
//! adds a note: no algorithm keeps partitions under a budget.
//!
//! ```
//! use cfd_serve::client::{Client, ClientRead};
//! use cfd_serve::protocol::{ok_reply, Request};
//! use cfd_serve::server::{ServeOptions, Server};
//!
//! // requests are one JSON object per line, tagged with an "op"
//! let req = Request::parse(r#"{"op": "ping"}"#).unwrap();
//! assert_eq!(req, Request::Ping);
//!
//! // bind on an ephemeral port, serve on a background thread
//! let server = Server::bind(&ServeOptions::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr, None).unwrap();
//! client.send(r#"{"op": "ping"}"#).unwrap();
//! let pong = ok_reply("ping", Vec::<(String, _)>::new()).to_string();
//! assert_eq!(client.reply(|_event| {}).unwrap(), ClientRead::Line(pong));
//! client.send(r#"{"op": "shutdown"}"#).unwrap();
//! let ClientRead::Line(bye) = client.reply(|_event| {}).unwrap() else {
//!     panic!("no shutdown reply")
//! };
//! assert!(bye.contains("\"shutdown\""));
//! handle.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faultpoint;
pub mod jobs;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;

pub use faultpoint::FaultAction;
pub use jobs::{Job, JobKind, JobOutcome, JobQueue, JobSpec};
pub use protocol::{LineRead, Request, ServeError, DEFAULT_MAX_LINE};
pub use registry::{Dataset, DatasetRegistry};
pub use server::{ServeOptions, Server};
pub use session::ObsSession;
