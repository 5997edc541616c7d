//! # smc-util — zero-dependency workspace utilities
//!
//! The workspace builds fully offline: no crates.io dependencies. This crate
//! supplies the two things third-party crates used to provide:
//!
//! * [`sync`] — `Mutex`/`RwLock` wrappers over `std::sync` with a
//!   `parking_lot`-style API (no poison `Result`s at every call site);
//! * [`rng`] — a small, seeded PCG pseudo-random generator standing in for
//!   `rand::StdRng` in the TPC-H generator, workloads, and tests.
//!
//! Plus [`backoff`] — bounded exponential retry backoff with deterministic
//! seeded jitter, shared by the maintenance coordinator and the allocator's
//! OOM recovery ladder — and [`spsc`], the bounded lock-free
//! single-producer/single-consumer ring the serve layer uses to route
//! requests from connection threads to shard threads.
//!
//! And [`hash`] — [`IntMap`]/[`IntSet`], hash tables with a small unkeyed
//! integer hasher, used by the TPC-H query plans' key-based joins and
//! group-bys in place of `SipHash`.

#![warn(missing_docs)]

pub mod backoff;
pub mod hash;
pub mod rng;
pub mod spsc;
pub mod sync;

pub use backoff::Backoff;
pub use hash::{IntMap, IntSet};
pub use rng::Pcg32;
pub use sync::{Mutex, RwLock};
