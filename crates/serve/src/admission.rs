//! Budget-aware admission control: the paper's resource bounds enforced at
//! the door, per tenant, before a request ever reaches the engine.
//!
//! Inside the engine a [`ResourceSpec`](beas_access::ResourceSpec) caps how
//! many tuples *one* query may
//! access. A multi-tenant front-end needs the same discipline across
//! requests: a tenant hammering the server with maximal-budget queries must
//! run out of *its own* allowance instead of degrading everyone else's
//! latency. Each [`Tenant`] therefore owns:
//!
//! * a **token bucket** denominated in *budget tuples per second* — the cost
//!   of a query is the tuple budget its spec resolves to (the same number
//!   the planner enforces), the cost of an update is its row count. An
//!   empty bucket means `429 Too Many Requests` with a `Retry-After` telling
//!   the client when the bucket will cover the request;
//! * a **max in-flight** cap with a **bounded wait queue**: when every
//!   admitted slot is busy, up to `max_queue` requests wait at most
//!   `max_queue_wait` for a slot, and everything beyond that is rejected
//!   immediately — bounded queues instead of collapse under overload.
//!
//! Admission is decided entirely in the front-end; the engine below stays a
//! pure bounded-evaluation core.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-tenant admission policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// Sustained allowance, in budget tuples per second (token-bucket refill
    /// rate).
    pub tuples_per_sec: f64,
    /// Bucket capacity: the largest burst of budget tuples the tenant may
    /// spend at once. Also the hard cap on a single request's cost.
    pub burst_tuples: f64,
    /// Maximum concurrently admitted requests.
    pub max_inflight: usize,
    /// Maximum requests allowed to wait for an in-flight slot; beyond this
    /// the request is rejected immediately.
    pub max_queue: usize,
    /// Longest a queued request waits for a slot before it is rejected.
    pub max_queue_wait: Duration,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            tuples_per_sec: 100_000.0,
            burst_tuples: 200_000.0,
            max_inflight: 64,
            max_queue: 256,
            max_queue_wait: Duration::from_millis(500),
        }
    }
}

impl TenantPolicy {
    /// A policy with the given sustained rate and burst, keeping the default
    /// concurrency caps.
    pub fn with_rate(tuples_per_sec: f64, burst_tuples: f64) -> Self {
        TenantPolicy {
            tuples_per_sec,
            burst_tuples,
            ..TenantPolicy::default()
        }
    }

    /// Sets the in-flight / queue concurrency caps.
    pub fn with_concurrency(mut self, max_inflight: usize, max_queue: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self.max_queue = max_queue;
        self
    }

    /// Sets the bounded queue wait.
    pub fn with_queue_wait(mut self, wait: Duration) -> Self {
        self.max_queue_wait = wait;
        self
    }
}

/// Why a request was turned away. The server answers `429` + `Retry-After`
/// for the retryable variants ([`Rejection::OverBudget`],
/// [`Rejection::Busy`]) and a non-retryable `400` for
/// [`Rejection::TooExpensive`] — waiting can never admit a request whose
/// cost exceeds the tenant's burst capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejection {
    /// The token bucket cannot cover the request's cost yet; retry once it
    /// has refilled.
    OverBudget {
        /// Suggested client back-off.
        retry_after: Duration,
    },
    /// The request's cost exceeds the tenant's burst capacity — no amount of
    /// waiting makes it admissible.
    TooExpensive {
        /// The request's cost in budget tuples.
        cost: f64,
        /// The tenant's burst capacity.
        burst: f64,
    },
    /// The in-flight cap and the bounded wait queue are both full (or the
    /// queue wait timed out).
    Busy {
        /// Suggested client back-off.
        retry_after: Duration,
    },
}

impl Rejection {
    /// The `Retry-After` value to advertise, in seconds (ceiling, min 1).
    pub fn retry_after_secs(&self) -> u64 {
        match self {
            Rejection::OverBudget { retry_after } | Rejection::Busy { retry_after } => {
                (retry_after.as_secs_f64().ceil() as u64).max(1)
            }
            Rejection::TooExpensive { .. } => 1,
        }
    }
}

/// Token-bucket state (behind the tenant's mutex).
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// In-flight / queue accounting (behind the tenant's mutex + condvar).
#[derive(Debug, Default)]
struct Slots {
    active: usize,
    queued: usize,
}

/// One tenant: its policy plus the live admission state.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant name (the wire `tenant` field).
    pub name: String,
    /// The admission policy.
    pub policy: TenantPolicy,
    bucket: Mutex<Bucket>,
    slots: Mutex<Slots>,
    slot_freed: Condvar,
}

impl Tenant {
    fn new(name: String, policy: TenantPolicy) -> Self {
        Tenant {
            name,
            policy,
            bucket: Mutex::new(Bucket {
                tokens: policy.burst_tuples,
                last_refill: Instant::now(),
            }),
            slots: Mutex::new(Slots::default()),
            slot_freed: Condvar::new(),
        }
    }

    /// Tries to admit a request of `cost` budget tuples: charges the token
    /// bucket, then acquires an in-flight slot (waiting boundedly). On
    /// success the returned guard holds the slot until dropped.
    pub fn admit(&self, cost: f64) -> Result<InflightGuard<'_>, Rejection> {
        let cost = cost.max(0.0);
        if cost > self.policy.burst_tuples {
            return Err(Rejection::TooExpensive {
                cost,
                burst: self.policy.burst_tuples,
            });
        }

        // --- token bucket: budget enforcement at the door
        {
            let mut bucket = self.bucket.lock().expect("bucket poisoned");
            let now = Instant::now();
            let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * self.policy.tuples_per_sec)
                .min(self.policy.burst_tuples);
            bucket.last_refill = now;
            if bucket.tokens < cost {
                let missing = cost - bucket.tokens;
                let rate = self.policy.tuples_per_sec.max(f64::MIN_POSITIVE);
                return Err(Rejection::OverBudget {
                    retry_after: Duration::from_secs_f64((missing / rate).min(3600.0)),
                });
            }
            bucket.tokens -= cost;
        }

        // --- in-flight slot with a bounded wait queue
        let mut slots = self.slots.lock().expect("slots poisoned");
        if slots.active < self.policy.max_inflight {
            slots.active += 1;
            return Ok(InflightGuard { tenant: self });
        }
        if slots.queued >= self.policy.max_queue {
            drop(slots);
            self.refund(cost);
            return Err(Rejection::Busy {
                retry_after: self.policy.max_queue_wait,
            });
        }
        slots.queued += 1;
        let deadline = Instant::now() + self.policy.max_queue_wait;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                slots.queued -= 1;
                drop(slots);
                self.refund(cost);
                return Err(Rejection::Busy {
                    retry_after: self.policy.max_queue_wait,
                });
            }
            let (guard, timeout) = self
                .slot_freed
                .wait_timeout(slots, remaining)
                .expect("slots poisoned");
            slots = guard;
            if slots.active < self.policy.max_inflight {
                slots.queued -= 1;
                slots.active += 1;
                return Ok(InflightGuard { tenant: self });
            }
            if timeout.timed_out() {
                slots.queued -= 1;
                drop(slots);
                self.refund(cost);
                return Err(Rejection::Busy {
                    retry_after: self.policy.max_queue_wait,
                });
            }
        }
    }

    /// Returns tokens to the bucket: work that was charged but never
    /// performed. Used internally when a queued request times out, and by
    /// the streaming endpoint to refund the unconsumed steps of a refinement
    /// schedule whose client disconnected early.
    pub fn refund(&self, cost: f64) {
        let mut bucket = self.bucket.lock().expect("bucket poisoned");
        bucket.tokens = (bucket.tokens + cost.max(0.0)).min(self.policy.burst_tuples);
    }

    /// Reconciles a *predicted* charge against the actual spend once the
    /// work has run: the difference is refunded (actual below the charge) or
    /// surcharged (actual above it). Unlike [`Tenant::refund`], a surcharge
    /// may drive the bucket **negative** — the tenant ran up real debt that
    /// the refill has to pay down before anything else is admitted — which
    /// is what keeps accuracy-target requests that spend past their searched
    /// budget (a set difference escalating) from outrunning their allowance.
    pub fn settle(&self, charged: f64, actual: f64) {
        let delta = charged.max(0.0) - actual.max(0.0);
        let mut bucket = self.bucket.lock().expect("bucket poisoned");
        bucket.tokens = (bucket.tokens + delta).min(self.policy.burst_tuples);
    }

    /// The current token balance (refilled to now); for tests and metrics.
    pub fn tokens(&self) -> f64 {
        let mut bucket = self.bucket.lock().expect("bucket poisoned");
        let now = Instant::now();
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.policy.tuples_per_sec).min(self.policy.burst_tuples);
        bucket.last_refill = now;
        bucket.tokens
    }

    /// Currently admitted (in-flight) requests.
    pub fn inflight(&self) -> usize {
        self.slots.lock().expect("slots poisoned").active
    }
}

/// An admitted request's slot; dropping it frees the slot and wakes one
/// queued waiter.
#[derive(Debug)]
pub struct InflightGuard<'t> {
    tenant: &'t Tenant,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut slots = self.tenant.slots.lock().expect("slots poisoned");
        slots.active = slots.active.saturating_sub(1);
        drop(slots);
        self.tenant.slot_freed.notify_one();
    }
}

/// The tenant registry the server routes admission through.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: HashMap<String, Tenant>,
    /// Tenant used for requests that name no tenant, when configured.
    default_tenant: Option<String>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TenantRegistry::default()
    }

    /// Registers a tenant (replacing any previous policy under the name).
    pub fn register(&mut self, name: impl Into<String>, policy: TenantPolicy) {
        let name = name.into();
        self.tenants.insert(name.clone(), Tenant::new(name, policy));
    }

    /// Routes requests that name no tenant to `name` (which must be
    /// registered).
    pub fn set_default(&mut self, name: impl Into<String>) {
        self.default_tenant = Some(name.into());
    }

    /// Resolves a request's tenant: the named one, or the default.
    pub fn resolve(&self, name: Option<&str>) -> Option<&Tenant> {
        match name {
            Some(n) => self.tenants.get(n),
            None => self
                .default_tenant
                .as_deref()
                .and_then(|n| self.tenants.get(n)),
        }
    }

    /// Iterates the registered tenants (sorted by name, for stable output).
    pub fn tenants(&self) -> Vec<&Tenant> {
        let mut all: Vec<&Tenant> = self.tenants.values().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_admits_until_empty_then_rejects_with_retry_after() {
        let tenant = Tenant::new(
            "t".into(),
            TenantPolicy::with_rate(100.0, 250.0), // 100 tuples/s, burst 250
        );
        // burst covers two 100-tuple requests plus one 50
        for _ in 0..2 {
            drop(tenant.admit(100.0).expect("within burst"));
        }
        drop(tenant.admit(50.0).expect("exact remainder"));
        let rejected = tenant.admit(100.0).expect_err("bucket must be empty");
        match rejected {
            Rejection::OverBudget { retry_after } => {
                // 100 missing tokens at 100/s ≈ 1s
                assert!(retry_after.as_secs_f64() <= 1.1);
                assert!(rejected.retry_after_secs() >= 1);
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
    }

    #[test]
    fn bucket_refills_over_time() {
        let tenant = Tenant::new("t".into(), TenantPolicy::with_rate(100_000.0, 1000.0));
        drop(tenant.admit(1000.0).expect("burst"));
        assert!(matches!(
            tenant.admit(1000.0),
            Err(Rejection::OverBudget { .. })
        ));
        std::thread::sleep(Duration::from_millis(20));
        // ~2000 tokens refilled, capped at burst
        drop(tenant.admit(1000.0).expect("refilled"));
        assert!(tenant.tokens() < 1000.0);
    }

    #[test]
    fn oversized_requests_are_rejected_outright() {
        let tenant = Tenant::new("t".into(), TenantPolicy::with_rate(1e6, 100.0));
        match tenant.admit(101.0) {
            Err(Rejection::TooExpensive { cost, burst }) => {
                assert_eq!(cost, 101.0);
                assert_eq!(burst, 100.0);
            }
            other => panic!("expected TooExpensive, got {other:?}"),
        };
    }

    #[test]
    fn inflight_cap_queues_boundedly_and_frees_on_drop() {
        let policy = TenantPolicy::with_rate(1e9, 1e9)
            .with_concurrency(1, 0)
            .with_queue_wait(Duration::from_millis(50));
        let tenant = Tenant::new("t".into(), policy);
        let guard = tenant.admit(1.0).expect("first slot");
        assert_eq!(tenant.inflight(), 1);
        // queue depth 0: immediate Busy
        assert!(matches!(tenant.admit(1.0), Err(Rejection::Busy { .. })));
        drop(guard);
        assert_eq!(tenant.inflight(), 0);
        drop(tenant.admit(1.0).expect("slot freed"));
    }

    #[test]
    fn queued_request_wakes_when_a_slot_frees() {
        let policy = TenantPolicy::with_rate(1e9, 1e9)
            .with_concurrency(1, 4)
            .with_queue_wait(Duration::from_secs(5));
        let tenant = Tenant::new("t".into(), policy);
        let guard = tenant.admit(1.0).expect("first slot");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| tenant.admit(1.0).map(drop));
            std::thread::sleep(Duration::from_millis(30));
            drop(guard);
            waiter.join().unwrap().expect("queued request admitted");
        });
    }

    #[test]
    fn queue_timeout_refunds_the_charge() {
        let policy = TenantPolicy::with_rate(0.001, 100.0)
            .with_concurrency(1, 4)
            .with_queue_wait(Duration::from_millis(30));
        let tenant = Tenant::new("t".into(), policy);
        let _guard = tenant.admit(10.0).expect("slot");
        let before = tenant.tokens();
        assert!(matches!(tenant.admit(50.0), Err(Rejection::Busy { .. })));
        // the 50 tokens charged for the timed-out request came back
        assert!(tenant.tokens() >= before - 1.0, "charge must be refunded");
    }

    #[test]
    fn settle_refunds_overcharges_and_surcharges_into_debt() {
        let tenant = Tenant::new("t".into(), TenantPolicy::with_rate(0.001, 1000.0));
        // over-prediction: charged 400, spent 100 → 300 comes back
        drop(tenant.admit(400.0).expect("burst"));
        tenant.settle(400.0, 100.0);
        assert!(tenant.tokens() >= 899.0, "refund must land");
        // under-prediction: charged 100, spent 1500 → the bucket goes into
        // debt and further requests are rejected until the refill pays it off
        drop(tenant.admit(100.0).expect("covered"));
        tenant.settle(100.0, 1500.0);
        assert!(tenant.tokens() < 0.0, "surcharge must create debt");
        assert!(matches!(
            tenant.admit(1.0),
            Err(Rejection::OverBudget { .. })
        ));
    }

    #[test]
    fn registry_resolves_named_and_default_tenants() {
        let mut reg = TenantRegistry::new();
        reg.register("gold", TenantPolicy::default());
        reg.register("free", TenantPolicy::with_rate(100.0, 100.0));
        reg.set_default("free");
        assert_eq!(reg.resolve(Some("gold")).unwrap().name, "gold");
        assert_eq!(reg.resolve(None).unwrap().name, "free");
        assert!(reg.resolve(Some("nobody")).is_none());
        assert_eq!(reg.len(), 2);
        let names: Vec<&str> = reg.tenants().iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["free", "gold"]);
    }
}
