//! Coordinator-side cluster metrics and the `GET /metrics` endpoint.
//!
//! The coordinator records, per query: the budget allocation handed to each
//! shard (tariff floor + proportional slack), the latency of every shard
//! call (open/fetch/leaf/close alike, as observed from the coordinator), and
//! the time spent merging shard leaf results into the final answer, and the
//! fault-tolerance counters — retries, timeouts, reconnects and
//! degraded-away shards per shard, plus how many answers went out flagged
//! `partial`. The [`MetricsServer`] exposes the whole snapshot as JSON
//! through `beas-serve`'s [`listen`]: a thread per connection, so an idle
//! keep-alive scraper neither blocks other scrapes nor holds up shutdown.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use beas_serve::http::{error_body, listen, Listener, Request};
use beas_serve::{Json, LatencyHistogram};

use crate::error::Result;

/// Per-shard counters of one [`ClusterMetrics`].
#[derive(Debug, Default)]
struct ShardCounters {
    /// Protocol calls routed to this shard.
    calls: u64,
    /// Latency of those calls as observed by the coordinator.
    latency: LatencyHistogram,
    /// Sum of budget shares allocated to this shard across queries.
    allocated_total: u64,
    /// The share of the most recent query.
    last_share: usize,
    /// The tariff floor of the most recent query.
    last_tariff: usize,
    /// Calls to this shard that were retried after a transient failure.
    retries: u64,
    /// Calls to this shard that exceeded their deadline.
    timeouts: u64,
    /// Connections re-established to this shard after a first connect.
    reconnects: u64,
    /// Queries answered without this shard (its retry budget exhausted
    /// under `DegradedPolicy::PartialAnswer`).
    degraded: u64,
}

#[derive(Debug, Default)]
struct Inner {
    queries: u64,
    /// Queries answered `partial` (at least one shard degraded away).
    degraded_answers: u64,
    shards: Vec<ShardCounters>,
}

/// Aggregate storage-tier counters across a cluster's shard engines (summed
/// [`beas_core::EngineStats`] storage fields). All zero for a cluster whose
/// shards run without a durable store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageCounters {
    /// Segments written across all shard stores.
    pub segments_written: u64,
    /// Segments loaded (snapshot opens + lazy page-ins).
    pub segments_loaded: u64,
    /// WAL bytes appended since the last compaction.
    pub wal_bytes: u64,
    /// WAL batches replayed on warm restarts.
    pub replayed_batches: u64,
    /// Paged levels faulted into memory on demand.
    pub page_ins: u64,
}

/// Closure that samples the cluster's storage counters on demand.
type StorageProvider = Box<dyn Fn() -> StorageCounters + Send + Sync>;

/// Coordinator metrics: per-shard budget allocation and latency, plus merge
/// time. Cheap to record (one mutex around per-shard counters; the merge
/// histogram is lock-free).
pub struct ClusterMetrics {
    inner: Mutex<Inner>,
    merge: LatencyHistogram,
    storage: Mutex<Option<StorageProvider>>,
}

impl std::fmt::Debug for ClusterMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterMetrics")
            .field("queries", &self.queries())
            .field("merge_count", &self.merge.count())
            .finish()
    }
}

impl ClusterMetrics {
    /// Metrics for a cluster of `shards` nodes.
    pub fn new(shards: usize) -> Self {
        ClusterMetrics {
            inner: Mutex::new(Inner {
                queries: 0,
                degraded_answers: 0,
                shards: (0..shards).map(|_| ShardCounters::default()).collect(),
            }),
            merge: LatencyHistogram::default(),
            storage: Mutex::new(None),
        }
    }

    /// Installs the storage sampler: called on every [`ClusterMetrics::
    /// to_json`] to add a `storage` object to the snapshot. The coordinator
    /// wires a closure summing the shard engines' storage counters.
    pub fn set_storage_provider(
        &self,
        provider: impl Fn() -> StorageCounters + Send + Sync + 'static,
    ) {
        *self.storage.lock().expect("metrics poisoned") = Some(Box::new(provider));
    }

    /// The current storage counters (`None` until a provider is installed).
    pub fn storage(&self) -> Option<StorageCounters> {
        let provider = self.storage.lock().expect("metrics poisoned");
        provider.as_ref().map(|p| p())
    }

    /// Records one query's budget allocation (`shares[s]`, with `tariffs[s]`
    /// the enforced floor).
    pub fn record_allocation(&self, shares: &[usize], tariffs: &[usize]) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.queries += 1;
        for (s, counters) in inner.shards.iter_mut().enumerate() {
            let share = shares.get(s).copied().unwrap_or(0);
            counters.allocated_total += share as u64;
            counters.last_share = share;
            counters.last_tariff = tariffs.get(s).copied().unwrap_or(0);
        }
    }

    /// Records one protocol call to shard `shard`.
    pub fn record_shard_call(&self, shard: usize, latency: Duration) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        if let Some(counters) = inner.shards.get_mut(shard) {
            counters.calls += 1;
            counters.latency.record(latency);
        }
    }

    /// Records one merge (leaf composition) duration.
    pub fn record_merge(&self, latency: Duration) {
        self.merge.record(latency);
    }

    /// Records one retried call to shard `shard`.
    pub fn record_retry(&self, shard: usize) {
        self.bump(shard, |c| c.retries += 1);
    }

    /// Records one deadline-exceeded call to shard `shard`.
    pub fn record_timeout(&self, shard: usize) {
        self.bump(shard, |c| c.timeouts += 1);
    }

    /// Records one re-established connection to shard `shard`.
    pub fn record_reconnect(&self, shard: usize) {
        self.bump(shard, |c| c.reconnects += 1);
    }

    /// Records one query degraded around shard `shard` (and, once per query,
    /// one partial answer — call once per lost shard; the partial-answer
    /// count is bumped by [`ClusterMetrics::record_degraded_answer`]).
    pub fn record_degraded(&self, shard: usize) {
        self.bump(shard, |c| c.degraded += 1);
    }

    /// Records one answer that went out flagged `partial`.
    pub fn record_degraded_answer(&self) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        inner.degraded_answers += 1;
    }

    fn bump(&self, shard: usize, f: impl FnOnce(&mut ShardCounters)) {
        let mut inner = self.inner.lock().expect("metrics poisoned");
        if let Some(counters) = inner.shards.get_mut(shard) {
            f(counters);
        }
    }

    /// Queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.inner.lock().expect("metrics poisoned").queries
    }

    /// The full snapshot served under `GET /metrics`.
    pub fn to_json(&self) -> Json {
        let inner = self.inner.lock().expect("metrics poisoned");
        let shards: Vec<Json> = inner
            .shards
            .iter()
            .enumerate()
            .map(|(s, c)| {
                Json::obj(vec![
                    ("shard", Json::Int(s as i64)),
                    ("calls", Json::Int(c.calls as i64)),
                    ("latency_mean_us", Json::Num(c.latency.mean_us())),
                    (
                        "latency_p99_us",
                        Json::Int(c.latency.quantile_us(0.99) as i64),
                    ),
                    ("budget_last_share", Json::Int(c.last_share as i64)),
                    ("budget_last_tariff", Json::Int(c.last_tariff as i64)),
                    (
                        "budget_allocated_total",
                        Json::Int(c.allocated_total as i64),
                    ),
                    ("retries", Json::Int(c.retries as i64)),
                    ("timeouts", Json::Int(c.timeouts as i64)),
                    ("reconnects", Json::Int(c.reconnects as i64)),
                    ("degraded", Json::Int(c.degraded as i64)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("queries", Json::Int(inner.queries as i64)),
            ("degraded_answers", Json::Int(inner.degraded_answers as i64)),
            (
                "merge",
                Json::obj(vec![
                    ("count", Json::Int(self.merge.count() as i64)),
                    ("mean_us", Json::Num(self.merge.mean_us())),
                    ("p99_us", Json::Int(self.merge.quantile_us(0.99) as i64)),
                ]),
            ),
            ("shards", Json::Arr(shards)),
        ];
        drop(inner);
        if let Some(storage) = self.storage() {
            fields.push((
                "storage",
                Json::obj(vec![
                    (
                        "segments_written",
                        Json::Int(storage.segments_written as i64),
                    ),
                    ("segments_loaded", Json::Int(storage.segments_loaded as i64)),
                    ("wal_bytes", Json::Int(storage.wal_bytes as i64)),
                    (
                        "replayed_batches",
                        Json::Int(storage.replayed_batches as i64),
                    ),
                    ("page_ins", Json::Int(storage.page_ins as i64)),
                ]),
            ));
        }
        Json::obj(fields)
    }
}

/// A running `GET /metrics` endpoint. Shut down explicitly with
/// [`Listener::shutdown`] or implicitly on drop.
pub type MetricsServer = Listener;

/// Serves `metrics` as JSON under `GET /metrics` on `bind`
/// (e.g. `"127.0.0.1:0"`).
pub fn serve_metrics(metrics: Arc<ClusterMetrics>, bind: &str) -> Result<MetricsServer> {
    let handler = move |request: &Request| {
        if request.method == "GET" && request.path == "/metrics" {
            (200, metrics.to_json().to_string())
        } else {
            (404, error_body("not found"))
        }
    };
    Ok(listen(bind, "cluster-metrics", 16 * 1024, handler)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn metrics_snapshot_carries_allocation_latency_and_merge() {
        let metrics = ClusterMetrics::new(2);
        metrics.record_allocation(&[70, 30], &[60, 0]);
        metrics.record_shard_call(0, Duration::from_micros(120));
        metrics.record_shard_call(1, Duration::from_micros(80));
        metrics.record_merge(Duration::from_micros(40));
        let json = metrics.to_json();
        assert_eq!(json.get("queries").and_then(Json::as_i64), Some(1));
        let shards = json.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(
            shards[0].get("budget_last_share").and_then(Json::as_i64),
            Some(70)
        );
        assert_eq!(
            shards[0].get("budget_last_tariff").and_then(Json::as_i64),
            Some(60)
        );
        assert_eq!(shards[1].get("calls").and_then(Json::as_i64), Some(1));
        let merge = json.get("merge").unwrap();
        assert_eq!(merge.get("count").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn storage_counters_appear_once_a_provider_is_installed() {
        let metrics = ClusterMetrics::new(1);
        assert!(metrics.to_json().get("storage").is_none());
        assert!(metrics.storage().is_none());
        metrics.set_storage_provider(|| StorageCounters {
            segments_written: 7,
            segments_loaded: 5,
            wal_bytes: 4096,
            replayed_batches: 2,
            page_ins: 3,
        });
        let storage = metrics.to_json().get("storage").cloned().unwrap();
        assert_eq!(
            storage.get("segments_written").and_then(Json::as_i64),
            Some(7)
        );
        assert_eq!(storage.get("wal_bytes").and_then(Json::as_i64), Some(4096));
        assert_eq!(
            storage.get("replayed_batches").and_then(Json::as_i64),
            Some(2)
        );
        assert_eq!(storage.get("page_ins").and_then(Json::as_i64), Some(3));
        assert_eq!(metrics.storage().unwrap().segments_loaded, 5);
    }

    #[test]
    fn metrics_endpoint_serves_get_metrics_and_404s_elsewhere() {
        let metrics = Arc::new(ClusterMetrics::new(1));
        metrics.record_allocation(&[42], &[12]);
        let server = serve_metrics(Arc::clone(&metrics), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let fetch = |path: &str| -> (u16, String) {
            use std::io::{Read, Write};
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "GET {path} HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n"
            )
            .unwrap();
            let mut text = String::new();
            stream.read_to_string(&mut text).unwrap();
            let status: u16 = text
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let body = text
                .split("\r\n\r\n")
                .nth(1)
                .unwrap_or_default()
                .to_string();
            (status, body)
        };

        let (status, body) = fetch("/metrics");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"budget_last_share\":42"), "{body}");
        assert!(body.contains("\"shards\""), "{body}");
        let (status, _) = fetch("/nope");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn idle_keep_alive_scraper_blocks_neither_other_scrapes_nor_shutdown() {
        use beas_serve::Client;
        let metrics = Arc::new(ClusterMetrics::new(1));
        let server = serve_metrics(metrics, "127.0.0.1:0").unwrap();
        let timeout = Duration::from_secs(5);
        // a scraper that connected, scraped once and went idle, connection open
        let mut idle = Client::connect(server.addr(), timeout).unwrap();
        assert_eq!(idle.get("/metrics").unwrap().status, 200);
        // and one that connected and never sent a byte
        let silent = TcpStream::connect(server.addr()).unwrap();
        let mut second = Client::connect(server.addr(), timeout).unwrap();
        assert_eq!(second.get("/metrics").unwrap().status, 200);
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "shutdown waited {:?} for idle connections",
            start.elapsed()
        );
        // the idle connections were closed, not left half-open
        assert!(idle.get("/metrics").is_err());
        drop(silent);
    }
}
