//! # qonductor-consensus
//!
//! Fault-tolerance substrate for the Qonductor control plane (§4): a
//! majority-quorum replicated store, a typed append-only replicated log on it
//! with snapshot compaction — the control plane's journal of job and tenant
//! state, kept on every replica as a vector of lines — and leader election
//! *inside* that store ([`lease::StoreElection`]): the leader lease is a
//! CAS'd key in the same quorum store that holds the journal, so the election
//! and the data share one fault domain.

#![warn(missing_docs)]
#![warn(clippy::let_underscore_must_use)]

mod kvstore;
mod lease;
pub mod log;

pub use kvstore::{ReplicatedKvStore, StoreError};
pub use lease::StoreElection;
pub use log::{LogEntry, ReplicatedLog};
