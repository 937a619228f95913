//! `xcbcd` — a concurrent multi-tenant depsolve/deploy service over
//! the XCBC stack.
//!
//! The paper's XCBC/XNIT tooling manages one campus cluster at a time;
//! this crate is the "cluster-building as a service" axis: many campus
//! tenants share one daemon that depsolves against tenant repo views,
//! runs XNIT overlay deploys on tenant node databases, and answers
//! monitoring/trace reads — all behind admission control so one noisy
//! tenant cannot starve the rest.
//!
//! The crate is organized as four planes:
//!
//! - [`api`]: the typed surface — [`SvcOp`] / [`SvcRequest`] /
//!   [`SvcResponse`], with canonical text forms that round-trip
//!   through the journal.
//! - [`admission`]: per-tenant token buckets ([`QuotaTable`]) plus a
//!   tick-windowed global queue limit, decided serially in arrival
//!   order so the accept/reject stream is scheduling-independent.
//!   Rejections are typed ([`RejectReason`]): `quota-exceeded` wins
//!   over `backpressure`, and backpressure consumes no token.
//! - the cache plane: a [`ShardedSolveCache`](xcbc_yum::ShardedSolveCache)
//!   bank with tenant-salted keys — tenants share shards but can never
//!   share entries, so cache counters are per-shard *and* per-run
//!   deterministic.
//! - [`journal`] + [`service`]: every accepted request is journaled at
//!   admission; the footer records response-body digests and cache
//!   totals, and [`replay`] re-executes the file single-threaded to
//!   byte-identical bodies regardless of the original worker count.
//!
//! ```
//! use xcbc_svc::{serve, replay, SvcWorkload};
//!
//! let workload = SvcWorkload { tenants: 3, requests: 12, seed: 7, ..Default::default() };
//! let report = serve(&workload.generate(), &workload.config(4));
//! let replayed = replay(&report.journal_text).unwrap();
//! assert!(replayed.is_clean());
//! ```

pub mod admission;
pub mod api;
pub mod journal;
pub mod service;
pub mod workload;

pub use admission::{AdmissionController, QuotaTable, TenantQuota};
pub use api::{body_digest, Disposition, RejectReason, SvcOp, SvcRequest, SvcResponse};
pub use journal::{Journal, JournalEntry};
pub use service::{replay, serve, ReplayReport, SvcConfig, SvcReport, MAX_SHARDS};
pub use workload::{tenant_names, SvcWorkload};
