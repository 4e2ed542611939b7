//! Serve-side observability: one server instance's job counts and
//! latency histograms, all-tenants and per tenant.
//!
//! Every counter and histogram is a field of [`ServerMetrics`], which
//! the owning [`ServerCore`](super::ServerCore) holds by value — two
//! servers in one process never share stats, and a fresh server reports
//! zeros. Plan-cache outcomes are counted by the
//! [`PlanCache`](super::cache::PlanCache) itself. Tenant stats live
//! behind a `Mutex<HashMap>` — lookups by `&str` allocate nothing once a
//! tenant exists, so the steady-state guarantee covers multi-tenant
//! traffic too.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use foundation::json::{Json, ToJson};
use foundation::obs::Histogram;

/// Job accounting for one population (all tenants, or one tenant):
/// request counts and an end-to-end latency histogram.
pub struct TenantStats {
    pub jobs_ok: AtomicU64,
    pub jobs_err: AtomicU64,
    pub latency: Histogram,
}

impl TenantStats {
    fn new() -> Self {
        TenantStats {
            jobs_ok: AtomicU64::new(0),
            jobs_err: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }

    fn record(&self, ok: bool, latency_ns: u64) {
        if ok {
            self.jobs_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.jobs_err.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record_ns(latency_ns);
    }
}

/// All of one server's metrics.
pub struct ServerMetrics {
    /// Every job answered, whatever its tenant (parse to response-ready).
    pub all: TenantStats,
    /// Connections refused at the `max_conns` limit.
    pub rejected: AtomicU64,
    tenants: Mutex<HashMap<String, Arc<TenantStats>>>,
}

impl ServerMetrics {
    pub fn new() -> Self {
        ServerMetrics {
            all: TenantStats::new(),
            rejected: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The stats bucket for `tenant`, creating it on first sighting
    /// (the only allocating path; repeat tenants are a map lookup).
    pub fn tenant(&self, tenant: &str) -> Arc<TenantStats> {
        let mut map = self.tenants.lock().unwrap();
        if let Some(t) = map.get(tenant) {
            return Arc::clone(t);
        }
        let t = Arc::new(TenantStats::new());
        map.insert(tenant.to_string(), Arc::clone(&t));
        t
    }

    /// Record one finished job for the all-tenants and tenant metrics.
    pub fn record(&self, tenant: &str, ok: bool, latency_ns: u64) {
        self.all.record(ok, latency_ns);
        self.tenant(tenant).record(ok, latency_ns);
    }

    /// Tenant table for the `stats` op (sorted by name for stable output).
    pub fn tenants_json(&self) -> Json {
        let map = self.tenants.lock().unwrap();
        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        Json::Obj(
            names
                .into_iter()
                .map(|name| {
                    let t = &map[name];
                    (
                        name.clone(),
                        Json::obj([
                            ("jobs_ok", t.jobs_ok.load(Ordering::Relaxed).to_json()),
                            ("jobs_err", t.jobs_err.load(Ordering::Relaxed).to_json()),
                            ("p50_ns", t.latency.quantile_ns(0.5).to_json()),
                            ("p99_ns", t.latency.quantile_ns(0.99).to_json()),
                            ("max_ns", t.latency.max_ns().to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_by_tenant_and_outcome() {
        let m = ServerMetrics::new();
        m.record("alice", true, 1_000);
        m.record("alice", true, 3_000);
        m.record("bob", false, 9_000);
        assert_eq!(m.all.jobs_ok.load(Ordering::Relaxed), 2);
        assert_eq!(m.all.jobs_err.load(Ordering::Relaxed), 1);
        assert_eq!(m.all.latency.count(), 3);
        assert_eq!(m.all.latency.max_ns(), 9_000);
        let alice = m.tenant("alice");
        assert_eq!(alice.jobs_ok.load(Ordering::Relaxed), 2);
        assert_eq!(alice.jobs_err.load(Ordering::Relaxed), 0);
        assert!(alice.latency.quantile_ns(0.5) >= 1_000);
        let t = m.tenants_json();
        assert!(t.get("bob").and_then(|b| b.get("jobs_err")).is_some());
        // a second instance starts from zero
        let fresh = ServerMetrics::new();
        assert_eq!(fresh.all.jobs_ok.load(Ordering::Relaxed), 0);
        assert_eq!(fresh.all.latency.count(), 0);
    }
}
