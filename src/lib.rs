//! Umbrella crate for the PathExpander reproduction workspace.
//!
//! Re-exports the member crates so that integration tests and examples can use
//! a single dependency. See the individual crates for the real APIs:
//! [`px_isa`], [`px_lang`], [`px_mach`], [`pathexpander`], [`px_detect`],
//! [`px_workloads`].

pub use pathexpander;
pub use px_detect;
pub use px_isa;
pub use px_lang;
pub use px_mach;
pub use px_workloads;
