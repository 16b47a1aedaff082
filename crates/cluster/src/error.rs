//! Error type of the cluster layer.
//!
//! Transport-level failures carry **per-shard context** — which shard, how
//! many attempts, elapsed time versus the deadline — so a partial-failure
//! cause is diagnosable from the coordinator's error alone, without shard
//! logs. [`ClusterError::is_retryable`] is the single classification the
//! retry driver consults.

use std::fmt;
use std::time::Duration;

use beas_core::BeasError;
use beas_serve::WireError;

/// Anything that can go wrong between a coordinator and its shards.
#[derive(Debug)]
pub enum ClusterError {
    /// An engine-side failure (planning, execution, budget enforcement).
    Engine(BeasError),
    /// A malformed wire message (query, relation frame or value encoding).
    Wire(String),
    /// A protocol violation: a shard answered something the coordinator did
    /// not expect (missing field, divergent plan, unknown session).
    Protocol(String),
    /// A bad cluster configuration (zero shards, unknown relation in a
    /// constraint spec).
    Config(String),
    /// An I/O failure of the metrics endpoint.
    Io(std::io::Error),
    /// One call to one shard failed at the transport layer (connect, send or
    /// receive) — retryable.
    Transport {
        /// The shard the call targeted.
        shard: usize,
        /// What the transport reported.
        message: String,
    },
    /// One call to one shard exceeded its deadline — retryable while overall
    /// time remains.
    Timeout {
        /// The shard the call targeted.
        shard: usize,
        /// Time spent before giving up.
        elapsed: Duration,
        /// The per-call deadline that was exceeded.
        deadline: Duration,
    },
    /// A shard exhausted its retry budget (terminal): the full per-shard
    /// context of the failed exchange.
    ShardFailed(Box<ShardFailure>),
}

/// The context of a shard giving up: everything the retry driver knew when it
/// stopped.
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// The shard that failed.
    pub shard: usize,
    /// The protocol op the failed exchange carried (`fetch`, `leaf`, or
    /// `open` for a shard that planned the step divergently).
    pub op: String,
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Wall-clock time spent across all attempts.
    pub elapsed: Duration,
    /// The overall deadline the retries ran under.
    pub deadline: Duration,
    /// The last per-attempt error observed.
    pub last_error: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} `{}` failed after {} attempt(s) in {:.1?} (deadline {:.1?}): {}",
            self.shard, self.op, self.attempts, self.elapsed, self.deadline, self.last_error
        )
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Engine(e) => write!(f, "engine error: {e}"),
            ClusterError::Wire(msg) => write!(f, "wire error: {msg}"),
            ClusterError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClusterError::Config(msg) => write!(f, "config error: {msg}"),
            ClusterError::Io(e) => write!(f, "io error: {e}"),
            ClusterError::Transport { shard, message } => {
                write!(f, "transport error (shard {shard}): {message}")
            }
            ClusterError::Timeout {
                shard,
                elapsed,
                deadline,
            } => write!(
                f,
                "timeout (shard {shard}): {elapsed:.1?} elapsed of {deadline:.1?} deadline"
            ),
            ClusterError::ShardFailed(failure) => write!(f, "{failure}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Engine(e) => Some(e),
            ClusterError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl ClusterError {
    /// Whether a retry of the same call could succeed. Transport failures,
    /// timeouts and garbled wire payloads are transient; engine, protocol
    /// and configuration errors are deterministic and final.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClusterError::Transport { .. }
                | ClusterError::Timeout { .. }
                | ClusterError::Wire(_)
                | ClusterError::Io(_)
        )
    }
}

impl From<BeasError> for ClusterError {
    fn from(e: BeasError) -> Self {
        ClusterError::Engine(e)
    }
}

impl From<beas_access::AccessError> for ClusterError {
    fn from(e: beas_access::AccessError) -> Self {
        ClusterError::Engine(BeasError::from(e))
    }
}

impl From<WireError> for ClusterError {
    fn from(e: WireError) -> Self {
        ClusterError::Wire(e.to_string())
    }
}

impl From<beas_relal::codec::CodecError> for ClusterError {
    fn from(e: beas_relal::codec::CodecError) -> Self {
        ClusterError::Wire(format!("bad frame: {e}"))
    }
}

impl From<std::io::Error> for ClusterError {
    fn from(e: std::io::Error) -> Self {
        ClusterError::Io(e)
    }
}

/// Cluster result alias.
pub type Result<T> = std::result::Result<T, ClusterError>;
