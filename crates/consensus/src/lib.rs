//! # qonductor-consensus
//!
//! Fault-tolerance substrate for the Qonductor control plane (§4): a
//! majority-quorum replicated store ([`ReplicatedStore`]) that holds exactly
//! what the control plane journals — one journal of job and tenant state with
//! its snapshot, and one typed leader lease `(node, term)` per replica — a
//! typed append-only log over that journal with snapshot compaction
//! ([`ReplicatedLog`]), and leader election *inside* the store
//! ([`StoreElection`]): the lease is committed through the same quorum and
//! the same write counter as the journal, so the election and the data share
//! one fault domain.

#![warn(missing_docs)]
#![warn(clippy::let_underscore_must_use)]

mod kvstore;
mod lease;
mod log;

pub use kvstore::{ReplicatedStore, StoreError};
pub use lease::StoreElection;
pub use log::{LogEntry, ReplicatedLog};
