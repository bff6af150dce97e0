//! # qonductor-consensus
//!
//! Fault-tolerance substrate for the Qonductor control plane (§4): a
//! majority-quorum replicated key-value store, a typed append-only replicated
//! log over it with snapshot compaction — the control plane's journal of job
//! and tenant state — and leader election *inside* that store ([`lease::StoreElection`]): the leader
//! lease is a CAS'd key in the same quorum KV that holds the journal, so the
//! election and the data share one fault domain.

#![warn(missing_docs)]
#![warn(clippy::let_underscore_must_use)]

mod kvstore;
mod lease;
pub mod log;

pub use kvstore::{ReplicatedKvStore, StoreError};
pub use lease::StoreElection;
pub use log::{LogEntry, ReplicatedLog};
