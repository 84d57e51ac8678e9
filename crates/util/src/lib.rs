//! Shared utilities for the dynamic-stream graph workspace.
//!
//! This crate hosts the cross-cutting concerns that every other crate in the
//! workspace relies on:
//!
//! * [`SpaceUsage`] — measured space accounting. The currency of the paper
//!   ("Spanners and Sparsifiers in Dynamic Streams", Kapralov–Woodruff,
//!   PODC 2014) is *bits of sketch state*; every sketch and streaming
//!   algorithm in this workspace reports its real memory footprint through
//!   this trait so experiments can compare measured space against the
//!   `~O(n^{1+1/k})`-style bounds claimed by the theorems.
//! * [`stats`] — small summary-statistics helpers (mean/median/quantiles)
//!   used when aggregating repeated randomized trials.
//! * [`table`] — a fixed-width table renderer used by the experiment harness
//!   to print the rows recorded in DESIGN.md's experiment index.
//!
//! # Examples
//!
//! ```
//! use dsg_util::SpaceUsage;
//!
//! let v: Vec<u64> = vec![1, 2, 3];
//! assert_eq!(v.space_bytes(), 3 * 8);
//! ```

pub mod json;
pub mod space;
pub mod stats;
pub mod table;

pub use space::SpaceUsage;
pub use stats::Summary;
pub use table::Table;
