//! Admission control: per-tenant token buckets plus a global
//! queue-depth window, decided serially in arrival order.
//!
//! Determinism is the design constraint everything here serves. A real
//! server would gate on live queue occupancy — which depends on worker
//! scheduling — and its reject set would then differ run to run. `xcbcd`
//! instead models queue depth on the *arrival clock*: the admission
//! window counts requests accepted in the current tick, so the full
//! accept/reject stream is a pure function of the submitted requests
//! and the quota table, independent of how many workers later execute
//! the accepted ones. That is what lets the CI quick-gate diff journals
//! from 1-worker and 4-worker runs for byte identity.
//!
//! Rejection-reason precedence: the tenant bucket is checked *before*
//! the global window, so a tenant that is out of tokens hears
//! `quota-exceeded` even at a moment the service is also saturated —
//! its own quota is the thing it can act on. Backpressure rejections
//! consume no tokens (the request never entered the system).

use crate::api::RejectReason;
use std::collections::BTreeMap;
use std::fmt;
use xcbc_fault::Mutation;

/// One tenant's token-bucket parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Tokens refilled per elapsed admission tick.
    pub rate: u32,
    /// Bucket capacity (burst size). A zero-capacity tenant is valid
    /// and is rejected `quota-exceeded` on every request.
    pub burst: u32,
}

impl TenantQuota {
    /// A quota of `rate` tokens/tick with burst capacity `burst`.
    pub fn new(rate: u32, burst: u32) -> TenantQuota {
        TenantQuota { rate, burst }
    }
}

/// The per-tenant quota configuration, text round-trippable so the
/// journal header carries the exact admission policy of a run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuotaTable {
    quotas: BTreeMap<String, TenantQuota>,
}

impl QuotaTable {
    /// An empty table.
    pub fn new() -> QuotaTable {
        QuotaTable::default()
    }

    /// Set a tenant's quota (replacing any previous one).
    pub fn set(&mut self, tenant: impl Into<String>, quota: TenantQuota) {
        self.quotas.insert(tenant.into(), quota);
    }

    /// A tenant's quota. Unknown tenants get a zero quota: the service
    /// only serves tenants it was configured for.
    pub fn get(&self, tenant: &str) -> TenantQuota {
        self.quotas
            .get(tenant)
            .copied()
            .unwrap_or(TenantQuota { rate: 0, burst: 0 })
    }

    /// Configured tenants, in name order.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, TenantQuota)> {
        self.quotas.iter().map(|(t, q)| (t.as_str(), *q))
    }

    /// Number of configured tenants.
    pub fn len(&self) -> usize {
        self.quotas.len()
    }

    /// True when no tenant is configured.
    pub fn is_empty(&self) -> bool {
        self.quotas.is_empty()
    }

    /// Parse one `tenant=<name> rate=<r> burst=<b>` line (the form the
    /// table's `Display` impl emits, one line per tenant).
    pub fn parse_line(line: &str) -> Result<(String, TenantQuota), String> {
        let mut tenant = None;
        let mut rate = None;
        let mut burst = None;
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed quota field {field:?}"))?;
            match key {
                "tenant" => tenant = Some(value.to_string()),
                "rate" => {
                    rate = Some(value.parse::<u32>().map_err(|e| format!("rate: {e}"))?);
                }
                "burst" => {
                    burst = Some(value.parse::<u32>().map_err(|e| format!("burst: {e}"))?);
                }
                other => return Err(format!("unknown quota field {other:?}")),
            }
        }
        match (tenant, rate, burst) {
            (Some(t), Some(r), Some(b)) => Ok((t, TenantQuota { rate: r, burst: b })),
            _ => Err(format!("incomplete quota line {line:?}")),
        }
    }
}

impl fmt::Display for QuotaTable {
    /// One `tenant=<name> rate=<r> burst=<b>` line per tenant, in name
    /// order; [`QuotaTable::parse_line`] reads each line back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (tenant, quota) in &self.quotas {
            writeln!(
                f,
                "tenant={tenant} rate={} burst={}",
                quota.rate, quota.burst
            )?;
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: u32,
    last_tick: u64,
}

/// The serial admission controller. Feed it every request in arrival
/// order; it answers accept/reject deterministically.
#[derive(Debug)]
pub struct AdmissionController {
    quotas: QuotaTable,
    queue_limit: usize,
    buckets: BTreeMap<String, Bucket>,
    window_tick: u64,
    window_accepted: usize,
    mutation: Option<Mutation>,
    leaked: bool,
}

impl AdmissionController {
    /// A controller over `quotas` with a global per-tick admission
    /// window of `queue_limit` requests (clamped to at least 1).
    /// Buckets start full (a tenant can burst immediately).
    pub fn new(quotas: QuotaTable, queue_limit: usize) -> AdmissionController {
        let buckets = quotas
            .tenants()
            .map(|(t, q)| {
                (
                    t.to_string(),
                    Bucket {
                        tokens: q.burst,
                        last_tick: 0,
                    },
                )
            })
            .collect();
        AdmissionController {
            quotas,
            queue_limit: queue_limit.max(1),
            buckets,
            window_tick: 0,
            window_accepted: 0,
            mutation: None,
            leaked: false,
        }
    }

    /// Plant a [`Mutation::SvcLeakQuota`] defect (no-op for the journal
    /// mutation, which lives in the engine).
    pub fn with_mutation(mut self, mutation: Option<Mutation>) -> AdmissionController {
        self.mutation = mutation;
        self
    }

    /// The global per-tick admission window.
    pub fn queue_limit(&self) -> usize {
        self.queue_limit
    }

    /// Decide one request. `tick` values must be non-decreasing across
    /// calls (arrival order).
    pub fn admit(&mut self, tenant: &str, tick: u64) -> Result<(), RejectReason> {
        if tick != self.window_tick {
            self.window_tick = tick;
            self.window_accepted = 0;
        }
        let quota = self.quotas.get(tenant);
        let bucket = self.buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: quota.burst,
            last_tick: 0,
        });
        // refill exactly at tick boundaries: `elapsed` whole ticks have
        // passed since the last refill, each worth `rate` tokens
        let elapsed = tick.saturating_sub(bucket.last_tick);
        bucket.tokens = bucket
            .tokens
            .saturating_add((elapsed.min(u64::from(u32::MAX)) as u32).saturating_mul(quota.rate))
            .min(quota.burst);
        bucket.last_tick = tick;

        if bucket.tokens == 0 {
            if self.mutation == Some(Mutation::SvcLeakQuota) && !self.leaked {
                // the planted defect: wave the first starved request
                // through without a token
                self.leaked = true;
                self.window_accepted += 1;
                return Ok(());
            }
            return Err(RejectReason::QuotaExceeded);
        }
        if self.window_accepted >= self.queue_limit {
            // no token consumed: the request never entered the system
            return Err(RejectReason::Backpressure);
        }
        bucket.tokens -= 1;
        self.window_accepted += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: &[(&str, u32, u32)]) -> QuotaTable {
        let mut t = QuotaTable::new();
        for &(name, rate, burst) in entries {
            t.set(name, TenantQuota::new(rate, burst));
        }
        t
    }

    #[test]
    fn quota_table_round_trips() {
        let t = table(&[("campus-a", 3, 6), ("campus-b", 1, 2), ("idle", 0, 0)]);
        let text = t.to_string();
        let mut parsed = QuotaTable::new();
        for line in text.lines() {
            let (tenant, quota) = QuotaTable::parse_line(line).unwrap();
            parsed.set(tenant, quota);
        }
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_string(), text);
        assert_eq!(parsed.get("campus-a"), TenantQuota::new(3, 6));
        assert_eq!(parsed.get("nobody"), TenantQuota::new(0, 0));
        assert!(QuotaTable::parse_line("tenant=x rate=1").is_err());
        assert!(QuotaTable::parse_line("tenant=x rate=1 burst=zzz").is_err());
        assert!(QuotaTable::parse_line("tenant=x rate=1 burst=2 color=red").is_err());
    }

    #[test]
    fn zero_capacity_tenant_is_always_quota_rejected() {
        let mut ac = AdmissionController::new(table(&[("dead", 0, 0)]), 8);
        for tick in 0..5 {
            assert_eq!(ac.admit("dead", tick), Err(RejectReason::QuotaExceeded));
        }
        // unknown tenants behave the same (zero default quota)
        assert_eq!(ac.admit("ghost", 5), Err(RejectReason::QuotaExceeded));
    }

    #[test]
    fn bucket_refills_exactly_at_tick_boundary() {
        let mut ac = AdmissionController::new(table(&[("a", 1, 1)]), 8);
        assert_eq!(ac.admit("a", 0), Ok(()), "burst token");
        assert_eq!(
            ac.admit("a", 0),
            Err(RejectReason::QuotaExceeded),
            "same tick: nothing refilled yet"
        );
        assert_eq!(
            ac.admit("a", 1),
            Ok(()),
            "one elapsed tick refills one token"
        );
        assert_eq!(ac.admit("a", 1), Err(RejectReason::QuotaExceeded));
        // a long gap refills at most `burst`
        assert_eq!(ac.admit("a", 100), Ok(()));
        assert_eq!(ac.admit("a", 100), Err(RejectReason::QuotaExceeded));
    }

    #[test]
    fn quota_precedes_backpressure_when_both_apply() {
        let mut ac = AdmissionController::new(table(&[("fat", 8, 8), ("thin", 1, 1)]), 2);
        // fill the tick-0 window with the fat tenant
        assert_eq!(ac.admit("fat", 0), Ok(()));
        assert_eq!(ac.admit("fat", 0), Ok(()));
        assert_eq!(
            ac.admit("fat", 0),
            Err(RejectReason::Backpressure),
            "window full, tokens available"
        );
        // drain thin's only token... it still has one, so it must hear
        // backpressure first; drain it at tick 1 then check precedence
        assert_eq!(ac.admit("thin", 1), Ok(()));
        assert_eq!(ac.admit("fat", 1), Ok(()));
        assert_eq!(ac.admit("fat", 1), Err(RejectReason::Backpressure));
        // window full AND thin's bucket empty: the tenant-level reason wins
        assert_eq!(
            ac.admit("thin", 1),
            Err(RejectReason::QuotaExceeded),
            "quota is checked before the global window"
        );
    }

    #[test]
    fn backpressure_consumes_no_token() {
        let mut ac = AdmissionController::new(table(&[("a", 0, 1), ("b", 8, 8)]), 1);
        assert_eq!(ac.admit("b", 0), Ok(()));
        // window now full; a's only (burst) token must survive the rejection
        assert_eq!(ac.admit("a", 0), Err(RejectReason::Backpressure));
        assert_eq!(ac.admit("a", 1), Ok(()), "token was not consumed");
        assert_eq!(
            ac.admit("a", 2),
            Err(RejectReason::QuotaExceeded),
            "rate 0: gone now"
        );
    }

    #[test]
    fn leak_quota_mutation_admits_exactly_one_starved_request() {
        let mut ac = AdmissionController::new(table(&[("dead", 0, 0)]), 8)
            .with_mutation(Some(Mutation::SvcLeakQuota));
        assert_eq!(ac.admit("dead", 0), Ok(()), "the planted leak");
        assert_eq!(ac.admit("dead", 0), Err(RejectReason::QuotaExceeded));
    }
}
