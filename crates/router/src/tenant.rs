//! Tenants, quotas, and per-tenant accounting.
//!
//! The router is multi-tenant: every submission names a [`TenantId`], and
//! each tenant can be bounded by a [`TenantQuota`] so one flooding tenant
//! cannot monopolize the shard queues. Quotas are enforced *at the
//! router*, before any shard sees the request — a refused submission
//! hands the request back by value
//! ([`RouterError::TenantOverQuota`](crate::RouterError::TenantOverQuota)),
//! mirroring the engine's own
//! [`QueueFull`](mdq_engine::EngineError::QueueFull) admission idiom.
//!
//! Accounting is a strict ledger per tenant:
//! `completed + failed + rejected + dropped == submitted` once all
//! handles have resolved — pinned by the router stress scenario in
//! `tests/engine_stress.rs`.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A tenant identity. Plain `u64` newtype: the router does not
/// authenticate tenants, it accounts and bounds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant {}", self.0)
    }
}

/// Bounds on one tenant's use of the router: a cap on its jobs submitted
/// but not yet resolved. The default is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantQuota {
    /// Cap on in-flight jobs; `None` for unlimited.
    pub max_in_flight: Option<usize>,
}

impl TenantQuota {
    /// No bounds (the default for tenants never given a quota).
    #[must_use]
    pub fn unlimited() -> Self {
        TenantQuota::default()
    }

    /// Caps in-flight jobs at `limit`.
    #[must_use]
    pub fn with_max_in_flight(mut self, limit: usize) -> Self {
        self.max_in_flight = Some(limit);
        self
    }
}

/// Shared per-tenant state: the quota and the live ledger. Handles hold
/// an `Arc` to it so completions are recorded even after topology
/// changes.
#[derive(Debug, Default)]
pub(crate) struct TenantState {
    pub(crate) quota: Mutex<TenantQuota>,
    /// Jobs submitted but not yet resolved (the quota gauge).
    pub(crate) in_flight: AtomicUsize,
    /// Every submission attempt, accepted or not.
    pub(crate) submitted: AtomicU64,
    /// Jobs that resolved successfully.
    pub(crate) completed: AtomicU64,
    /// Jobs that resolved with an [`EngineError`](mdq_engine::EngineError).
    pub(crate) failed: AtomicU64,
    /// Submissions refused by quota or by a shard (handed back by value).
    pub(crate) rejected: AtomicU64,
    /// Accepted jobs whose handle was dropped before its result was
    /// observed (the job still ran; its outcome is unknown to the ledger).
    pub(crate) dropped: AtomicU64,
}

impl TenantState {
    /// Tries to reserve one in-flight slot under `limit`; on success the
    /// gauge is already incremented. Lock-free (CAS loop).
    pub(crate) fn try_reserve(&self, limit: Option<usize>) -> Result<(), usize> {
        match limit {
            None => {
                self.in_flight.fetch_add(1, Ordering::AcqRel);
                Ok(())
            }
            Some(limit) => self
                .in_flight
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < limit).then_some(n + 1)
                })
                .map(|_| ()),
        }
    }

    /// Releases a reserved slot.
    pub(crate) fn release(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn stats(&self, tenant: TenantId) -> TenantStats {
        TenantStats {
            tenant,
            in_flight: self.in_flight.load(Ordering::Acquire),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time ledger for one tenant
/// ([`RouterStats::tenants`](crate::RouterStats::tenants)).
///
/// Once every handle has resolved,
/// `completed + failed + rejected + dropped == submitted`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: TenantId,
    /// Jobs currently submitted but unresolved.
    pub in_flight: usize,
    /// Every submission attempt, accepted or refused.
    pub submitted: u64,
    /// Jobs that resolved successfully.
    pub completed: u64,
    /// Jobs that resolved with an engine error.
    pub failed: u64,
    /// Submissions refused (over quota, no shards, or shard queue full).
    pub rejected: u64,
    /// Accepted jobs whose handle was dropped unobserved.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_is_a_hard_gate() {
        let state = TenantState::default();
        assert!(state.try_reserve(Some(2)).is_ok());
        assert!(state.try_reserve(Some(2)).is_ok());
        assert_eq!(state.try_reserve(Some(2)), Err(2));
        state.release();
        assert!(state.try_reserve(Some(2)).is_ok());
        // Unlimited never refuses.
        for _ in 0..100 {
            assert!(state.try_reserve(None).is_ok());
        }
    }
}
