//! # dmp-service
//!
//! The platform boundary the paper's DMMS (Fig. 2) implies but a
//! library alone cannot provide: a **durable, sharded market gateway**.
//! Buyers and sellers talk to the arbiter over a network interface, and
//! the platform is accountable for every allocation and payment it
//! makes — so every externally-visible mutation is event-sourced:
//!
//! * [`command`] — each mutation (enroll, deposit, offer, ask, license
//!   grant, run_round) is one serializable [`command::Command`];
//! * [`wire`] — a hand-rolled JSON codec (no crates.io access, so no
//!   serde) with a proptest round-trip suite;
//! * [`journal`] — a length-prefixed, CRC-protected write-ahead log:
//!   commands are fsync'd *before* they are applied;
//! * [`snapshot`] — periodic compacted command checkpoints carrying a
//!   state digest that **verifies** recovery reproduced the exact
//!   pre-crash state (leaning on the bit-identical round pipeline);
//! * [`shard`] — participants hash across M [`dmp_core::DataMarket`]
//!   shards sharing one catalog + ledger substrate; every round is a
//!   two-phase exchange (shard-parallel candidate phase → one global
//!   clearing pass → ordered settlement), so an M-shard deployment
//!   clears exactly the trades the 1-shard market would;
//! * [`node`] — [`node::ServiceNode`]: journal → apply → snapshot, and
//!   `snapshot + journal replay` crash recovery;
//! * [`gateway`] — an **evented HTTP/1.1 server**: one reactor thread
//!   multiplexing every connection over an OS readiness queue (epoll
//!   via the `compat/polling` shim), request pipelining with ordered
//!   write-out, timer-wheel idle timeouts, and a sharded apply pool
//!   executing journaled commands off the reactor (`reactor`,
//!   [`timer`]);
//! * [`client`] — a minimal blocking client for tests, benches and
//!   examples, with transparent keep-alive reconnection and a
//!   pipelined batch helper;
//! * [`codec`] — the versioned, bit-exact wire codec for the candidate
//!   sets and candidate-phase exports the distributed round protocol
//!   ships between processes;
//! * [`coordinator`] / [`worker`] — the **distributed exchange**: a
//!   coordinator process owns the journal, the global clearing pass and
//!   settlement ordering, and farms the candidate phase out to N
//!   shard-worker processes over the internal RPC surface
//!   (`/internal/*`), re-dispatching work from live replicas when a
//!   worker dies mid-round.
//!
//! ```no_run
//! use std::sync::Arc;
//! use dmp_core::market::MarketConfig;
//! use dmp_service::gateway::{Gateway, GatewayConfig};
//! use dmp_service::node::{ServiceConfig, ServiceNode};
//!
//! let cfg = ServiceConfig::new("./market-data", MarketConfig::external(7));
//! let node = Arc::new(ServiceNode::open(cfg).unwrap());
//! let gateway = Gateway::serve(node, GatewayConfig::default()).unwrap();
//! println!("serving on {}", gateway.addr());
//! ```

pub mod client;
pub mod codec;
pub mod command;
pub mod coordinator;
pub mod error;
pub mod gateway;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod node;
pub(crate) mod reactor;
pub mod shard;
pub mod snapshot;
pub mod state;
#[cfg(any(test, feature = "test-support"))]
pub mod test_support;
pub mod timer;
pub mod wire;
pub mod worker;

pub use client::Client;
pub use command::{AskSpec, Command, LicenseSpec, OfferSpec};
pub use coordinator::WorkerPool;
pub use error::ServiceError;
pub use gateway::{Gateway, GatewayConfig};
pub use journal::Journal;
pub use node::{ServiceConfig, ServiceNode};
pub use shard::{MergedRoundReport, Outcome, RoundDistributor, ShardRouter};
pub use wire::{Json, WireError};
pub use worker::{WorkerConfig, WorkerNode};
