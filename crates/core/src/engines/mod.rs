//! The four subsystem engines the cluster simulation is composed of.
//!
//! Each engine owns one subsystem's private state and handles one
//! event enum, the arm of [`Event`] that names it:
//!
//! * [`HostEngine`] ([`HostEvent`]): program scheduling, CPU/memory
//!   charging, host message delivery and I/O completion;
//! * [`FabricEngine`] ([`FabricEvent`]): the packet reliability
//!   protocol: injection, fault fates, NAK/timeout retransmission,
//!   completion notices;
//! * [`DispatchEngine`] ([`DispatchEvent`]): active switches and
//!   active TCAs: handler dispatch, the mapped-flow reorder buffer,
//!   handler-trap migration to a host-side fallback engine;
//! * [`StorageEngine`] ([`StorageEvent`]): TCA/SCSI/disk requests,
//!   read scheduling, and archive-write aggregation.
//!
//! Each engine's `on_event` takes only its own enum and matches it
//! without a wildcard arm, and `Cluster::handle` matches the four arms
//! of [`Event`]. An event handed to the wrong engine, or a variant no
//! engine handles, does not compile. The `deny` below keeps a `_ =>`
//! or binding catch-all from hiding a new variant again; clippy reports
//! a catch-all that covers one variant under the second lint, so both
//! are needed.
//!
//! Engines never call each other: cross-subsystem effects travel as
//! events through the [`EventBus`], so every interaction is an ordered,
//! timestamped occurrence in the deterministic event queue.
//!
//! # Adding an engine
//!
//! 1. Add a `<Name>Event` enum (with its snapshot tags) and an
//!    [`Event`] arm wrapping it.
//! 2. Implement the engine's `on_event` over that enum, reaching
//!    shared services only through the [`EventBus`].
//! 3. Compose it in [`crate::cluster::Cluster`]: construct it in
//!    `new`, hand it its arm in `handle`, and fold its counters into
//!    `stats`/`RunReport` if it reports any.
//!
//! [`Event`]: crate::events::Event
//! [`EventBus`]: crate::events::EventBus
//! [`HostEvent`]: crate::events::HostEvent
//! [`FabricEvent`]: crate::events::FabricEvent
//! [`DispatchEvent`]: crate::events::DispatchEvent
//! [`StorageEvent`]: crate::events::StorageEvent

#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

pub mod dispatch;
pub mod fabric;
pub mod host;
pub mod storage;

#[cfg(test)]
mod tests;

pub use dispatch::DispatchEngine;
pub use fabric::FabricEngine;
pub use host::{HostCtx, HostEngine, HostProgram};
pub use storage::StorageEngine;
