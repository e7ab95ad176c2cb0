//! `bp-sync` — the workspace's concurrency-primitive shim.
//!
//! Every library file in the workspace that synchronizes between threads
//! imports its primitives from this module instead of `std::sync` /
//! `std::thread` (the `sync-shim` bp-lint rule enforces the boundary).
//! The module has two personalities:
//!
//! - **Normal builds** (the default): transparent, zero-cost re-exports of
//!   the `std` primitives. `crate::sync::Mutex` *is* `std::sync::Mutex`;
//!   nothing is wrapped, nothing is instrumented, and the enforced
//!   `BENCH_exec.json` gates see the exact same machine code as before.
//!
//! - **`--features bp_sanitize`**: the same names resolve to instrumented
//!   wrappers (`shim`) backed by a sanitizer runtime (`sanitize`).
//!   Inside a `sanitize::explore` session every lock acquire/release,
//!   atomic load/store/RMW, `OnceLock` access and scoped spawn/join is a
//!   *schedule point*: a seeded controller serializes the participating
//!   threads and deterministically permutes which thread runs next, while
//!   per-thread vector clocks and per-lock locksets feed a happens-before
//!   race detector and a lock-acquisition-order cycle detector. Findings
//!   are reported as structured `sanitize::SyncViolation`s carrying both
//!   access sites, both clocks, and the primitive's construction site.
//!
//! The instrumented API is a strict subset of `std`'s: code that compiles
//! against this module compiles identically under both personalities.
//!
//! See `README.md` ("Concurrency sanitizer") for how to run the model
//! tests and read a violation report.

/// Shared ownership is never a schedule point; `Arc` is re-exported
/// unconditionally so callers have a single import path for all of their
/// synchronization needs.
pub use std::sync::Arc;

#[cfg(not(feature = "bp_sanitize"))]
pub use std::sync::{Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "bp_sanitize"))]
pub use std::thread::scope;

/// Atomic types and memory orderings.
///
/// `Ordering` is always the real `std` enum — the instrumented wrappers
/// take it as an argument and model its release/acquire semantics rather
/// than replacing it.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(feature = "bp_sanitize"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    #[cfg(feature = "bp_sanitize")]
    pub use super::shim::{AtomicBool, AtomicU64, AtomicUsize};
}

#[cfg(feature = "bp_sanitize")]
pub mod shim;

#[cfg(feature = "bp_sanitize")]
mod runtime;

#[cfg(feature = "bp_sanitize")]
pub use shim::{
    scope, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard, Scope,
    ScopedJoinHandle,
};

/// The sanitizer's public surface: schedule exploration ([`sanitize::explore`],
/// [`sanitize::replay`]) and the structured findings it reports.
#[cfg(feature = "bp_sanitize")]
pub mod sanitize {
    pub use super::runtime::{
        explore, replay, AccessSite, ScheduleReport, SyncViolation, ViolationKind,
    };
}
