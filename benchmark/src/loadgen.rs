//! The open-loop load generator: requests go out on a schedule fixed by the
//! seed whether or not earlier ones have been answered, and every latency
//! is timed from the moment the request was *due*, so a stall in the server
//! shows up in the requests queued behind it.
//!
//! One process, one thread per connection, at most `nproc` connections.
//! Threads sleep until a request is due and never spin: on a two-core box
//! the generator shares the cores with the server it measures.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use beas_serve::Client;

use crate::inputs::{Digest, Rng};
use crate::stats::{self, Summary};

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the start of the step at which the request is due.
    pub due_s: f64,
    /// Index of the request body to send.
    pub body: usize,
}

/// A Poisson arrival schedule at `rate` requests per second over
/// `duration_s`: exponential gaps from `rng`; bodies cycle through one
/// seeded permutation of `0..bodies`.
pub fn schedule(rate: f64, duration_s: f64, bodies: usize, rng: &mut Rng) -> Vec<Arrival> {
    let mut order: Vec<usize> = (0..bodies).collect();
    rng.shuffle(&mut order);
    let mut out = Vec::new();
    let mut due_s = 0.0;
    loop {
        due_s += -(1.0 - rng.unit()).ln() / rate;
        if due_s >= duration_s {
            return out;
        }
        out.push(Arrival {
            due_s,
            body: order[out.len() % bodies.max(1)],
        });
    }
}

/// What happened to one scheduled request. Times are seconds after the
/// start of the step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it was due.
    pub due_s: f64,
    /// How late the generator itself sent it: time past `due_s` during which
    /// its connection was idle (waiting for the previous response does not
    /// count — that is the server's queue, and it is in the latency).
    pub late_s: f64,
    /// When the response was complete.
    pub done_s: f64,
    /// The body sent.
    pub body: usize,
    /// HTTP status, 0 for a transport error.
    pub status: u16,
    /// FNV-1a of the response body.
    pub response_hash: u64,
}

impl Sample {
    /// Latency from the intended send time, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }
}

/// FNV-1a of a response body, the form expected responses are kept in.
pub fn body_hash(body: &str) -> u64 {
    let mut digest = Digest::default();
    digest.bytes(body.as_bytes());
    digest.value()
}

/// Sends `arrivals` to `POST path` at `addr` over `connections` keep-alive
/// connections (request `i` goes to connection `i % connections`, each
/// connection sends its share in order). Returns one sample per arrival, in
/// schedule order.
pub fn drive(
    addr: SocketAddr,
    path: &str,
    connections: usize,
    arrivals: &[Arrival],
    bodies: &[String],
) -> Result<Vec<Sample>, String> {
    let timeout = Duration::from_secs(10);
    let mut clients = (0..connections)
        .map(|_| Client::connect(addr, timeout).map_err(|e| format!("connect to {addr}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut per_connection: Vec<Vec<(usize, Sample)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let mut free_s = 0.0f64;
                    for (i, arrival) in arrivals.iter().enumerate().skip(c).step_by(connections) {
                        let now_s = start.elapsed().as_secs_f64();
                        if now_s < arrival.due_s {
                            std::thread::sleep(Duration::from_secs_f64(arrival.due_s - now_s));
                        }
                        let sent_s = start.elapsed().as_secs_f64();
                        let (status, response_hash) = match client.post(path, &bodies[arrival.body])
                        {
                            Ok(response) => (response.status, body_hash(&response.body)),
                            Err(_) => (0, 0),
                        };
                        let done_s = start.elapsed().as_secs_f64();
                        samples.push((
                            i,
                            Sample {
                                due_s: arrival.due_s,
                                late_s: sent_s - arrival.due_s.max(free_s),
                                done_s,
                                body: arrival.body,
                                status,
                                response_hash,
                            },
                        ));
                        free_s = done_s;
                    }
                    samples
                })
            })
            .collect();
        for handle in handles {
            per_connection.push(handle.join().expect("a load-generator thread panicked"));
        }
    });
    let mut all: Vec<(usize, Sample)> = per_connection.into_iter().flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    Ok(all.into_iter().map(|(_, s)| s).collect())
}

/// Latency limit on the tail, in milliseconds.
pub const SLO_TAIL_MS: f64 = 10.0;

/// A generator that ran later than this at its own p99 did not offer the
/// rate it claims; the step is invalid, not slow. With two server workers
/// and two generator threads on two cores a woken generator thread waits
/// for a core: 1.2–1.3 ms at p99 at every rate on the box the sizes were
/// chosen on (spinning through the last 300 µs made it 2.3 ms, because a
/// spinning thread is pre-empted where a sleeping one is woken).
pub const MAX_LATE_P99_MS: f64 = 2.0;

/// One fixed-rate step, analysed.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency summary over the step's requests (ms, from due time).
    pub latency: Summary,
    /// p99 of how late the generator sent (ms).
    pub late_p99_ms: f64,
    /// Requests due but unanswered one second into the step (half-way for
    /// steps shorter than two seconds).
    pub backlog_early: usize,
    /// Requests due but unanswered at the end of the step.
    pub backlog_end: usize,
    /// Requests that were refused or failed in transport.
    pub failed: usize,
}

impl Step {
    /// Analyses the samples of one step of `duration_s` at `rate`.
    pub fn of(rate: f64, duration_s: f64, samples: &[Sample]) -> Step {
        let latencies: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let mut late: Vec<f64> = samples.iter().map(|s| s.late_s * 1e3).collect();
        late.sort_by(f64::total_cmp);
        let backlog_at = |t: f64| {
            samples
                .iter()
                .filter(|s| s.due_s <= t && s.done_s > t)
                .count()
        };
        Step {
            rate,
            latency: stats::summarize(&latencies),
            late_p99_ms: stats::quantile_sorted(&late, 0.99),
            backlog_early: backlog_at(if duration_s >= 2.0 {
                1.0
            } else {
                duration_s / 2.0
            }),
            backlog_end: backlog_at(duration_s),
            failed: samples.iter().filter(|s| s.status != 200).count(),
        }
    }

    /// The generator kept its schedule.
    pub fn valid(&self) -> bool {
        self.late_p99_ms <= MAX_LATE_P99_MS
    }

    /// The step met the latency limit: a valid generator, nothing refused,
    /// tail within [`SLO_TAIL_MS`], and a backlog that did not grow (two
    /// requests of slack: one connection's worth of chance).
    pub fn in_slo(&self) -> bool {
        self.valid()
            && self.failed == 0
            && self.latency.tail.value <= SLO_TAIL_MS
            && self.backlog_end <= self.backlog_early + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_at_the_asked_rate() {
        let a = schedule(400.0, 5.0, 7, &mut Rng::new(42, 1));
        let b = schedule(400.0, 5.0, 7, &mut Rng::new(42, 1));
        assert_eq!(a, b);
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|x| x.body < 7 && x.due_s < 5.0));
        assert_ne!(a, schedule(400.0, 5.0, 7, &mut Rng::new(7, 1)));
    }

    #[test]
    fn backlog_counts_due_but_unanswered() {
        let sample = |due_s: f64, done_s: f64| Sample {
            due_s,
            late_s: 0.0,
            done_s,
            body: 0,
            status: 200,
            response_hash: 0,
        };
        // answered promptly for a second, then the server stalls
        let mut samples: Vec<Sample> = (0..10)
            .map(|i| sample(i as f64 / 10.0, i as f64 / 10.0 + 0.01))
            .collect();
        samples.extend((0..10).map(|i| sample(1.5 + i as f64 / 20.0, 9.0)));
        let step = Step::of(10.0, 2.0, &samples);
        assert_eq!((step.backlog_early, step.backlog_end), (0, 10));
        assert!(!step.in_slo());
    }
}
