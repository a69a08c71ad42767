//! # eirs-net — the networked serving front end.
//!
//! Everything below `eirs_serve` is a library call: you hand the engine
//! a batch of arrivals and read decisions back. This crate puts that
//! engine behind a socket, closing the loop a real deployment needs:
//!
//! ```text
//!  clients ──(eirsnp01 frames)──▶ listener ─▶ per-shard queues ─▶ ServeEngine
//!     ▲                                                              │
//!     └────────────── decision frames ◀── batched admissions ────────┘
//!
//!        observe (ShardMetrics) ─▶ re-optimize (eirs_opt) ─▶ hot-swap
//! ```
//!
//! * [`protocol`] — the `eirsnp01` wire format: length-prefixed,
//!   checksummed binary frames. Decoding is strict; corrupt streams are
//!   torn down, never resynchronized or silently truncated.
//! * [`queue`] — bounded hand-off queues between the connection router
//!   and the engine loop (capacity is the backpressure/shed mechanism),
//!   and the doorbell the idle engine loop parks on.
//! * [`server`] — the accept loop, seq-assigning router, write-ahead
//!   journaling, batched engine loop, and the **atomic policy
//!   hot-swap**: control frames or CLI triggers install a freshly
//!   compiled table at an exact arrival-sequence barrier, journaled so
//!   replay reproduces the decision digest bit for bit. An
//!   `optimize:<family>` swap re-runs the `eirs_opt` search against the
//!   live engine's observed per-class arrival rates.
//! * [`client`] — the load generator: N concurrent pipelined
//!   connections, per-request wall-clock latency histograms.
//!
//! The front end preserves the serving layer's accounting exactly:
//! `completions + engine rejections + net sheds = client arrivals`
//! ([`ServeReport::accounting_balanced`]), and a journaled networked
//! run replays offline to the same digest
//! (`eirs_serve::replay_journal`).

pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::{run_client, ClientConfig, ClientReport};
pub use protocol::{Frame, ProtocolError};
pub use queue::BoundedQueue;
pub use server::{
    resolve_swap, serve, validate_swap_spec, CompileFn, NetConfig, ReoptSettings, ServeReport,
    SwapTrigger,
};
