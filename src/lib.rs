//! # Stardust
//!
//! A complete, from-scratch Rust implementation of **"A Unified Framework
//! for Monitoring Data Streams in Real Time"** (Bulut & Singh, ICDE 2005):
//! multi-resolution stream summarization with incremental feature
//! computation, MBR-based space/accuracy trading, per-level MBR indexing,
//! and the three monitoring query classes — aggregates (bursts,
//! volatility), variable-length patterns, and correlations.
//!
//! This crate is a façade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `stardust-core` | summarizer (Alg. 1), engine, query algorithms (Alg. 2–4, §5.3), `MonitorSpec` |
//! | [`index`] | `stardust-index` | banded `PointTable`; R\*-tree with forced reinsertion and deletion (GeneralMatch's index) |
//! | [`dsp`] | `stardust-dsp` | Haar DWT, incremental half-merge (Lemma A.1), MBR transform (App. A) |
//! | [`baselines`] | `stardust-baselines` | SWT, StatStream and its sliding DFT, GeneralMatch, MR-Index, linear scan |
//! | [`datagen`] | `stardust-datagen` | seeded workload generators for every §6 experiment |
//! | [`runtime`] | `stardust-runtime` | sharded, multi-threaded ingestion & query runtime |
//! | [`server`] | `stardust-server` | multi-client TCP ingest/query service + wire client |
//!
//! ## Quickstart
//!
//! ```
//! use stardust::core::config::Config;
//! use stardust::core::transform::TransformKind;
//! use stardust::core::query::aggregate::{AggregateMonitor, WindowSpec};
//!
//! // Detect bursts over windows whose right size we do not know a priori:
//! // monitor several at once over one summary.
//! let config = Config::online(TransformKind::Sum, 20, 5, 5);
//! let windows: Vec<WindowSpec> = (1..=8)
//!     .map(|k| WindowSpec { window: 20 * k, threshold: 25.0 * k as f64 })
//!     .collect();
//! let mut monitor = AggregateMonitor::new(config, &windows);
//! for t in 0..1000u32 {
//!     let x = if (400..450).contains(&t) { 4.0 } else { 1.0 };
//!     monitor.push(x);
//! }
//! assert!(monitor.stats().true_alarms > 0);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the harness regenerating every table and figure of
//! the paper's evaluation.

pub mod cli;

pub use stardust_baselines as baselines;
pub use stardust_core as core;
pub use stardust_datagen as datagen;
pub use stardust_dsp as dsp;
pub use stardust_index as index;
pub use stardust_runtime as runtime;
pub use stardust_server as server;
