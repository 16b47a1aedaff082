//! TCP shard serving: [`ShardServer`] exposes one [`ShardNode`] over a
//! socket, [`TcpShardTransport`] drives a cluster of them from the
//! coordinator.
//!
//! Framing reuses `beas-serve`'s std-only HTTP/1.1 machinery — each protocol
//! message is a `POST /shard` whose body is the request JSON, each response
//! the response JSON, with fragments and leaf results inside as one base64
//! column frame each ([`crate::protocol::relation_to_frame`]) — so the bytes
//! on the wire are exactly the serialized messages
//! [`InProcessTransport`](crate::InProcessTransport) round-trips in memory,
//! and any HTTP client can poke a shard for debugging. The server
//! side is `beas_serve::http::listen`, the one accept and connection loop of
//! the workspace: `TCP_NODELAY` on, and every message — request and response
//! alike — written head and body in one buffer. A hop is then a loopback
//! round trip (tens of microseconds); a second write per message on a socket
//! without `NODELAY` would hold the body for the peer's delayed ACK, 40 ms
//! per call. Shutdown ends every accepted connection, so a killed shard is
//! gone from the coordinator's pool at once.
//!
//! The transport keeps a **connection pool** per shard (keep-alive, one
//! connection per in-flight call), **reconnects automatically** when a
//! pooled connection died, and maps a per-call deadline onto socket
//! read/write timeouts, surfacing overruns as
//! [`ClusterError::Timeout`]. Shard endpoints are re-pointable at runtime
//! ([`TcpShardTransport::set_addr`]) so a shard that rejoins on a new port
//! picks up where it left off — the session state it lost is re-established
//! by the coordinator's `no_session` healing, which re-sends the request
//! with its step's `open`.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use beas_serve::http::{error_body, listen, write_response, Listener};
use beas_serve::{parse_json, Client, Json};

use crate::error::{ClusterError, Result};
use crate::metrics::ClusterMetrics;
use crate::shard::ShardNode;
use crate::transport::ShardTransport;

/// The largest request body a shard server accepts (fetch key lists grow
/// with the query, not the data, so this is generous).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One [`ShardNode`] served over TCP, a thread per connection. Dropping the
/// server (or calling [`ShardServer::shutdown`]) closes the listener *and*
/// ends every accepted connection, so a "killed" shard really disappears
/// from the coordinator's connection pool instead of lingering half-open.
#[derive(Debug)]
pub struct ShardServer {
    listener: Listener,
}

impl ShardServer {
    /// Serves `node` on `bind` (e.g. `"127.0.0.1:0"`).
    pub fn serve(node: Arc<ShardNode>, bind: &str) -> Result<Self> {
        let name = format!("shard-server-{}", node.shard());
        // no connection cap and no idle timeout: the transport's pooled
        // keep-alive connections stay open between queries
        let listener = listen(
            bind,
            &name,
            MAX_BODY,
            usize::MAX,
            None,
            move |request, stream| {
                let (status, body) = if request.method == "POST" && request.path == "/shard" {
                    let text = String::from_utf8_lossy(&request.body);
                    (200, node.handle_text(&text))
                } else {
                    (404, error_body("not found"))
                };
                write_response(stream, status, &body, request.keep_alive, &[])
            },
        )?;
        Ok(ShardServer { listener })
    }

    /// The bound address (useful with a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Stops serving: closes the listener and ends every open connection.
    pub fn shutdown(self) {
        self.listener.shutdown();
    }
}

/// One shard's endpoint state inside a [`TcpShardTransport`].
#[derive(Debug)]
struct Endpoint {
    addr: Mutex<SocketAddr>,
    /// Idle keep-alive connections, most recently used last.
    pool: Mutex<VecDeque<Client>>,
    /// Whether this endpoint ever connected — a later connect is a
    /// *re*connect worth counting.
    ever_connected: AtomicBool,
}

/// A [`ShardTransport`] over TCP shard servers, with per-shard connection
/// pooling, automatic reconnect and per-call deadlines. See the module docs
/// for the framing and failure semantics; retry ordering is the
/// coordinator's job ([`RetryPolicy`](crate::RetryPolicy)) — the transport
/// reports each failure exactly once, as [`ClusterError::Transport`] or
/// [`ClusterError::Timeout`].
#[derive(Debug)]
pub struct TcpShardTransport {
    endpoints: Vec<Endpoint>,
    /// Timeout for connects and for calls with no deadline.
    default_timeout: Duration,
    metrics: Option<Arc<ClusterMetrics>>,
}

impl TcpShardTransport {
    /// A transport where shard `i` is served at `addrs[i]`.
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        TcpShardTransport {
            endpoints: addrs
                .into_iter()
                .map(|addr| Endpoint {
                    addr: Mutex::new(addr),
                    pool: Mutex::new(VecDeque::new()),
                    ever_connected: AtomicBool::new(false),
                })
                .collect(),
            default_timeout: Duration::from_secs(10),
            metrics: None,
        }
    }

    /// Sets the timeout used for connects and for calls without a deadline.
    pub fn with_default_timeout(mut self, timeout: Duration) -> Self {
        self.default_timeout = timeout;
        self
    }

    /// Counts reconnects into `metrics` (see
    /// [`ClusterMetrics::record_reconnect`]).
    pub fn with_metrics(mut self, metrics: Arc<ClusterMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Re-points shard `shard` at `addr` (a shard rejoining on a new port)
    /// and drops its pooled connections to the old address.
    pub fn set_addr(&self, shard: usize, addr: SocketAddr) {
        if let Some(endpoint) = self.endpoints.get(shard) {
            *endpoint.addr.lock().expect("addr poisoned") = addr;
            endpoint.pool.lock().expect("pool poisoned").clear();
        }
    }

    /// The current address of shard `shard`.
    pub fn addr(&self, shard: usize) -> Option<SocketAddr> {
        self.endpoints
            .get(shard)
            .map(|e| *e.addr.lock().expect("addr poisoned"))
    }

    /// Pops a pooled connection or opens a fresh one.
    fn checkout(&self, shard: usize, timeout: Duration) -> Result<Client> {
        let endpoint = self
            .endpoints
            .get(shard)
            .ok_or_else(|| ClusterError::Config(format!("no shard {shard}")))?;
        if let Some(client) = endpoint.pool.lock().expect("pool poisoned").pop_back() {
            return Ok(client);
        }
        let addr = *endpoint.addr.lock().expect("addr poisoned");
        let client = Client::connect(addr, timeout).map_err(|e| ClusterError::Transport {
            shard,
            message: format!("connect to {addr}: {e}"),
        })?;
        if endpoint.ever_connected.swap(true, Ordering::SeqCst) {
            if let Some(metrics) = &self.metrics {
                metrics.record_reconnect(shard);
            }
        }
        Ok(client)
    }

    /// Returns a healthy connection to the pool.
    fn checkin(&self, shard: usize, client: Client) {
        if let Some(endpoint) = self.endpoints.get(shard) {
            endpoint
                .pool
                .lock()
                .expect("pool poisoned")
                .push_back(client);
        }
    }
}

impl ShardTransport for TcpShardTransport {
    fn call(&self, shard: usize, request: &Json) -> Result<Json> {
        self.call_deadline(shard, request, None)
    }

    fn call_deadline(
        &self,
        shard: usize,
        request: &Json,
        deadline: Option<Instant>,
    ) -> Result<Json> {
        let start = Instant::now();
        // map the absolute deadline to a socket timeout for this call
        let timeout = match deadline {
            Some(deadline) => {
                let remaining = deadline.saturating_duration_since(start);
                if remaining.is_zero() {
                    return Err(ClusterError::Timeout {
                        shard,
                        elapsed: Duration::ZERO,
                        deadline: Duration::ZERO,
                    });
                }
                remaining
            }
            None => self.default_timeout,
        };
        let mut client = self.checkout(shard, timeout)?;
        if let Err(e) = client.set_timeout(timeout) {
            return Err(ClusterError::Transport {
                shard,
                message: format!("set timeout: {e}"),
            });
        }
        // a failed exchange drops the connection (it may hold half a
        // response); the next call reconnects
        let response = client
            .post("/shard", &request.to_string())
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    ClusterError::Timeout {
                        shard,
                        elapsed: start.elapsed(),
                        deadline: timeout,
                    }
                }
                _ => ClusterError::Transport {
                    shard,
                    message: e.to_string(),
                },
            })?;
        if response.status != 200 {
            return Err(ClusterError::Transport {
                shard,
                message: format!("shard answered HTTP {}", response.status),
            });
        }
        let json = parse_json(&response.body)
            .map_err(|e| ClusterError::Wire(format!("bad response from shard {shard}: {e}")))?;
        self.checkin(shard, client);
        Ok(json)
    }

    fn shards(&self) -> usize {
        self.endpoints.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_to_dead_port_is_a_transport_error() {
        // bind-then-drop to get a port nothing listens on
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let transport =
            TcpShardTransport::new(vec![addr]).with_default_timeout(Duration::from_millis(200));
        let err = transport
            .call(0, &Json::obj(vec![("op", Json::Str("stats".into()))]))
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::Transport { shard: 0, .. })
                || matches!(err, ClusterError::Timeout { shard: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn a_shard_hop_does_not_wait_for_a_delayed_ack() {
        use beas_relal::{Attribute, Database, DatabaseSchema, RelationSchema};
        let schema = DatabaseSchema::new(vec![RelationSchema::new(
            "poi",
            vec![Attribute::categorical("city"), Attribute::int("stars")],
        )]);
        let cluster = crate::ClusterHandle::builder(Database::new(schema), 1)
            .build()
            .unwrap();
        let server = ShardServer::serve(Arc::clone(&cluster.nodes()[0]), "127.0.0.1:0").unwrap();
        let transport = TcpShardTransport::new(vec![server.addr()]);
        // sequential calls reuse the one pooled keep-alive connection; with
        // head and body in separate segments on a socket without NODELAY
        // every call waited 40 ms for the peer's delayed ACK (8.8 s in all)
        let ping = crate::protocol::stats_request(0, false);
        let start = Instant::now();
        for _ in 0..200 {
            let response = transport.call(0, &ping).unwrap();
            assert_eq!(
                crate::protocol::error_code(&response),
                Some(crate::protocol::NO_SESSION)
            );
        }
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "200 hops took {:?}",
            start.elapsed()
        );
        assert_eq!(transport.endpoints[0].pool.lock().unwrap().len(), 1);
        server.shutdown();
    }
}
