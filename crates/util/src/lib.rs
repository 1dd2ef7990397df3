//! # px-util — the zero-dependency substrate
//!
//! Everything the workspace previously pulled from the crates.io registry,
//! reimplemented in-tree so the whole reproduction builds and tests fully
//! offline (`cargo build --release --offline && cargo test -q --offline`):
//!
//! * [`rng`] — deterministic PRNGs behind an [`rng::Rng`] trait
//!   (replaces `rand`): SplitMix64 seeding, xoshiro256** for the property
//!   harness, and the exact xorshift64* stream the workload input
//!   generators have always used.
//! * [`prop`] — a minimal property-testing harness (replaces `proptest`):
//!   seeded case generation, size ramping, shrinking-lite, and the
//!   [`px_prop!`] macro.
//! * [`pool`] — a self-scheduling job pool (workers claim indices from one
//!   shared cursor and stream results through a bounded channel) — the one
//!   scheduler: the campaign driver and the bench sweeps both run on it.
//! * [`par`] — [`par_map`], an order-preserving parallel map over [`pool`]
//!   with per-item panic containment (replaces `crossbeam::thread::scope`
//!   in the bench sweep harness).
//! * [`json`] — a hand-rolled JSON value model, emitter **and parser** with
//!   deterministic float formatting (replaces `serde` for typed result
//!   rows and the campaign journal reader).
//! * [`digest`] — the chainable FNV-1a-64 every determinism gate hashes
//!   architectural results with.
//! * [`memo`] — the NT-path replay cache's hit/miss counters.
//!
//! Nothing in here depends on any other workspace crate, so every crate —
//! including `px-isa` at the bottom of the graph — can use it from tests.

pub mod digest;
pub mod json;
pub mod memo;
pub mod par;
pub mod pool;
pub mod prop;
pub mod rng;

pub use digest::{fnv1a64, from_hex, hex64, parse_hex64, to_hex};
pub use json::{Json, ToJson};
pub use memo::MemoCounters;
pub use par::{panic_message, par_map};
pub use pool::{run_pool, PoolRun};
pub use prop::{any_bool, any_i32, any_i64, any_u32, any_u8, just, vec_exact, vec_of, Strategy};
pub use rng::{Rng, SplitMix64, XorShift64Star, Xoshiro256};
