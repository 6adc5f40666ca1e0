//! # zeus-fleet
//!
//! A sharded, multi-tenant serving fleet over [`zeus_serve::ZeusServer`]:
//! the scale-out layer for the paper's motivating deployment (continuous
//! monitoring over many camera corpora for many consumers), which a
//! single admission queue and result cache cannot carry.
//!
//! Three fleet-level contracts, each promoted from a single-process
//! invariant:
//!
//! * **Routing** ([`hrw`]): a corpus lives on the shard its
//!   [`CorpusId`](zeus_serve::CorpusId) rendezvous-hashes to — a pure
//!   function of `(fingerprint, shard count)`, stable across restarts,
//!   and growing the fleet N → N+1 moves only ~1/(N+1) of corpora, all
//!   of them onto the new shard.
//! * **Quota** ([`zeus_serve::quota`]): every tenant holds a token
//!   bucket; the router gates each submission before it touches a
//!   shard. Under-quota traffic is never shed by the gate; over-quota
//!   traffic is shed most-over-quota-first as pressure rises.
//! * **Replication** ([`FleetRouter`]): a corpus whose router-observed
//!   traffic crosses the hot threshold gets its
//!   [`PlanStore`](zeus_serve::PlanStore) entries pushed to sibling
//!   shards — failover and resharding never retrain, and hot-corpus
//!   traffic round-robins across the replicas.
//!
//! Per-shard telemetry stays on each shard's own
//! [`ObsHub`](zeus_obs::ObsHub); [`FleetRouter::fleet_snapshot`] merges
//! them with the router's `fleet.*` namespace into one rollup
//! ([`zeus_obs::ObsSnapshot::merge`]).

#![warn(missing_docs)]

pub mod hrw;
pub mod router;

pub use router::{FleetConfig, FleetError, FleetRouter, Routed};
pub use zeus_serve::quota::{Decision, FairShareGate, QuotaSpec, TenantId};
