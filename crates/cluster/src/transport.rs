//! Transport abstraction between coordinator and shards.
//!
//! The protocol is transport-agnostic JSON with relations inside as base64
//! column frames (see [`crate::protocol`]); a transport only moves one
//! request to one shard and brings its response back. Every call is a data
//! message (`fetch` or `leaf`, opening the session on a shard's first one)
//! or a `close`, so an answer costs one call per fetch node and per
//! shard-local leaf, plus one `close` per shard that served more than one. [`InProcessTransport`]
//! — the reference implementation behind a freshly built cluster, the tests
//! and the examples — still serializes every message to wire text and
//! parses it back, so the full encode/decode path, frames included, is
//! exercised even without sockets: a TCP transport
//! ([`TcpShardTransport`](crate::tcp::TcpShardTransport)) sees
//! byte-identical traffic. [`FaultInjectingTransport`] decorates any inner
//! transport with a seeded fault schedule for chaos testing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use beas_serve::{parse_json, Json};

use crate::error::{ClusterError, Result};
use crate::shard::ShardNode;

/// Moves protocol messages between the coordinator and shard `shard`.
pub trait ShardTransport: Send + Sync {
    /// Sends `request` to shard `shard` and returns its response.
    fn call(&self, shard: usize, request: &Json) -> Result<Json>;

    /// Like [`ShardTransport::call`], bounded by an absolute deadline:
    /// transports that can (e.g. TCP via socket timeouts) give up with
    /// [`ClusterError::Timeout`] once `deadline` passes. The default ignores
    /// the deadline — correct for in-process calls, which cannot block on a
    /// peer.
    fn call_deadline(
        &self,
        shard: usize,
        request: &Json,
        deadline: Option<Instant>,
    ) -> Result<Json> {
        let _ = deadline;
        self.call(shard, request)
    }

    /// Number of reachable shards.
    fn shards(&self) -> usize;
}

/// In-process transport over a set of [`ShardNode`]s, round-tripping every
/// message through its serialized wire form.
#[derive(Debug, Clone)]
pub struct InProcessTransport {
    nodes: Vec<Arc<ShardNode>>,
}

impl InProcessTransport {
    /// A transport over `nodes` (shard `i` is `nodes[i]`).
    pub fn new(nodes: Vec<Arc<ShardNode>>) -> Self {
        InProcessTransport { nodes }
    }

    /// The shard nodes behind this transport.
    pub fn nodes(&self) -> &[Arc<ShardNode>] {
        &self.nodes
    }
}

impl ShardTransport for InProcessTransport {
    fn call(&self, shard: usize, request: &Json) -> Result<Json> {
        let node = self
            .nodes
            .get(shard)
            .ok_or_else(|| ClusterError::Config(format!("no shard {shard}")))?;
        let response = node.handle_text(&request.to_string());
        parse_json(&response)
            .map_err(|e| ClusterError::Wire(format!("bad response from shard {shard}: {e}")))
    }

    fn shards(&self) -> usize {
        self.nodes.len()
    }
}

/// The kinds of fault [`FaultInjectingTransport`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The request never reaches the shard (connect refused, send failed):
    /// safe to retry unconditionally.
    Drop,
    /// The request reaches the shard and takes effect, but the response is
    /// lost (connection reset mid-read) — the at-least-once hazard the
    /// shard-side idempotency ledger exists for.
    Disconnect,
    /// The response arrives corrupted: the injected corruption guarantees a
    /// JSON parse failure, never a silently-wrong parseable payload.
    Garble,
    /// The response is delivered late. Past the caller's deadline this
    /// surfaces as a timeout *after* the shard did the work — semantically a
    /// slow disconnect.
    Delay,
}

/// Per-call fault probabilities of a [`FaultInjectingTransport`], in parts
/// per 1000 of calls. The four rates may sum to at most 1000; the remainder
/// is the healthy path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultRates {
    /// Requests dropped before reaching the shard (‰).
    pub drop: u32,
    /// Responses lost after the shard executed the request (‰).
    pub disconnect: u32,
    /// Responses corrupted into unparseable bytes (‰).
    pub garble: u32,
    /// Responses delayed by 200 µs (‰).
    pub delay: u32,
}

impl FaultRates {
    /// A mixed profile exercising every fault kind at `permille` ‰ each.
    pub fn uniform(permille: u32) -> Self {
        FaultRates {
            drop: permille,
            disconnect: permille,
            garble: permille,
            delay: permille,
        }
    }
}

/// How long an injected delay fault stalls the call.
const INJECTED_DELAY: Duration = Duration::from_micros(200);

/// A [`ShardTransport`] decorator injecting faults by a seeded, deterministic
/// schedule — the chaos harness behind `tests/chaos.rs`. Faults are chosen
/// per call from a splitmix64 stream, so a (seed, call sequence) pair
/// replays the exact same schedule. Independent of the schedule, any shard
/// can be hard-failed with [`FaultInjectingTransport::set_down`].
///
/// The decorator distinguishes faults *before* the shard executes (drops)
/// from faults *after* (disconnects, garbles, late delays): the latter leave
/// shard state
/// changed with the coordinator unaware — exactly the at-least-once hazard a
/// retry layer must tolerate without double-billing.
pub struct FaultInjectingTransport {
    inner: Arc<dyn ShardTransport>,
    rates: FaultRates,
    rng: AtomicU64,
    down: Vec<AtomicBool>,
    injected: AtomicU64,
}

impl FaultInjectingTransport {
    /// Decorates `inner` with a fault schedule seeded by `seed`.
    pub fn new(inner: Arc<dyn ShardTransport>, seed: u64, rates: FaultRates) -> Self {
        let shards = inner.shards();
        FaultInjectingTransport {
            inner,
            rates,
            rng: AtomicU64::new(seed),
            down: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            injected: AtomicU64::new(0),
        }
    }

    /// Hard-fails (or revives) `shard`: while down, every call to it errors
    /// without reaching the inner transport.
    pub fn set_down(&self, shard: usize, down: bool) {
        if let Some(flag) = self.down.get(shard) {
            flag.store(down, Ordering::SeqCst);
        }
    }

    /// Total faults injected so far (schedule and down-switches alike).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The next value of the seeded splitmix64 stream.
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Draws the scheduled fault for one call, if any.
    fn draw(&self) -> Option<Fault> {
        let roll = (self.next_rand() % 1000) as u32;
        let ladder = [
            (self.rates.drop, Fault::Drop),
            (self.rates.disconnect, Fault::Disconnect),
            (self.rates.garble, Fault::Garble),
            (self.rates.delay, Fault::Delay),
        ];
        let mut edge = 0;
        for (rate, kind) in ladder {
            edge += rate;
            if roll < edge {
                return Some(kind);
            }
        }
        None
    }
}

impl std::fmt::Debug for FaultInjectingTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjectingTransport")
            .field("rates", &self.rates)
            .field("injected", &self.injected())
            .finish_non_exhaustive()
    }
}

impl ShardTransport for FaultInjectingTransport {
    fn call(&self, shard: usize, request: &Json) -> Result<Json> {
        self.call_deadline(shard, request, None)
    }

    fn call_deadline(
        &self,
        shard: usize,
        request: &Json,
        deadline: Option<Instant>,
    ) -> Result<Json> {
        if self
            .down
            .get(shard)
            .map(|f| f.load(Ordering::SeqCst))
            .unwrap_or(false)
        {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::Transport {
                shard,
                message: "injected outage: shard is down".to_string(),
            });
        }
        let fault = self.draw();
        if fault == Some(Fault::Drop) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(ClusterError::Transport {
                shard,
                message: "injected fault: request dropped".to_string(),
            });
        }
        // every other fault lets the shard execute the request first
        let response = self.inner.call_deadline(shard, request, deadline)?;
        match fault {
            None | Some(Fault::Drop) => Ok(response),
            Some(Fault::Disconnect) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                Err(ClusterError::Transport {
                    shard,
                    message: "injected fault: connection reset before response".to_string(),
                })
            }
            Some(Fault::Garble) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                // corrupt like a truncated/overwritten read buffer would: the
                // result must fail to parse, never parse to something else
                let text = response.to_string();
                let mut cut = text.len() / 2;
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                let garbled = format!("{}\u{0}<<garbled>>", &text[..cut]);
                match parse_json(&garbled) {
                    Ok(_) => Err(ClusterError::Wire(format!(
                        "injected fault: garbled response from shard {shard}"
                    ))),
                    Err(e) => Err(ClusterError::Wire(format!(
                        "bad response from shard {shard}: {e}"
                    ))),
                }
            }
            Some(Fault::Delay) => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(INJECTED_DELAY);
                if let Some(deadline) = deadline {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ClusterError::Timeout {
                            shard,
                            elapsed: INJECTED_DELAY,
                            deadline: Duration::ZERO,
                        });
                    }
                }
                Ok(response)
            }
        }
    }

    fn shards(&self) -> usize {
        self.inner.shards()
    }
}
