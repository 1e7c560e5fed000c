//! # ssr-analysis — experiment analysis toolkit
//!
//! Turns raw trial measurements from [`ssr_engine`] runs into the
//! paper-style artefacts the experiment binaries print:
//!
//! * [`stats`] — distributional summaries (mean/median/p95/max, Wilson
//!   "whp" bounds);
//! * [`regression`] — power-law fits `T(n) ≈ c·n^α(·logᵝn)` for
//!   complexity-shape verification;
//! * [`sweep`](mod@sweep) — the parameter-sweep driver (grid × trials → rows);
//! * [`table`] — aligned plain-text / Markdown table rendering.
//!
//! ```
//! use ssr_analysis::{sweep::{sweep, SweepOptions}, regression::fit_power_law};
//! use ssr_core::generic::GenericRanking;
//! use ssr_engine::Init;
//!
//! let res = sweep(
//!     &[16.0, 32.0, 64.0],
//!     |x| GenericRanking::new(x as usize),
//!     Init::Stacked,
//!     &SweepOptions::new(4),
//! );
//! let fit = res.fit_median();
//! println!("A_G exponent ≈ {:.2}", fit.exponent); // ≈ 2
//! ```

// `unsafe_code = "forbid"` comes from [workspace.lints] in the root manifest.
// Truncation-cast audit (workspace denies `cast_possible_truncation`):
// statistics code narrows f64 ranks/quantile indices and u64 trial
// counts to usize; all are bounded by in-memory sample sizes.
#![allow(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod ecdf;
pub mod exact;
pub mod ks;
pub mod modelcheck;
pub mod regression;
pub mod stats;
pub mod sweep;
pub mod table;

pub use bootstrap::{bootstrap_ci, median_ci, BootstrapOptions, ConfidenceInterval};
pub use ecdf::{Ecdf, Histogram};
pub use exact::expected_interactions;
pub use ks::ks_two_sample;
pub use modelcheck::{verify_stability, ModelCheckError, StabilityCertificate};
pub use regression::{fit_power_law, fit_power_law_with_polylog, PowerLawFit};
pub use stats::Summary;
pub use sweep::{sweep, SweepOptions, SweepResult, SweepRow};
pub use table::Table;
