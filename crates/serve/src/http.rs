//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`: request
//! parsing with a hard body cap, `Expect: 100-continue` handling, keep-alive,
//! and response writing. Just enough protocol for the JSON wire — TLS, HTTP/2
//! and gRPC are ROADMAP follow-ups.
//!
//! Every server in the workspace — the query front-end, the cluster's shard
//! servers and its `/metrics` endpoint — runs on the one accept loop here,
//! [`listen`]: one thread per accepted connection, at most `max_connections`
//! of them at once (the next connection waits in the listen backlog), each
//! serving one request at a time off a keep-alive connection with
//! `TCP_NODELAY` on and **one write per message** — head and body leave in a
//! single buffer ([`write_response`]), because two writes are two segments
//! and, without `NODELAY`, the second waits out the peer's delayed ACK
//! (40 ms on Linux) of the first. Every open connection is registered in the
//! server's `Connections`, so shutdown wakes the threads blocked on idle
//! keep-alive connections at once instead of polling or waiting them out.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::json::Json;

/// Maximum accepted size of the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target (path only; any query string is kept verbatim).
    pub path: String,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding.
    pub keep_alive: bool,
    /// Whether the request was HTTP/1.0 (which must not receive chunked
    /// transfer encoding — RFC 9112 §7.1.1).
    pub http1_0: bool,
}

impl Request {
    /// The first value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8.
    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Bad("request body is not valid UTF-8".into()))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The client closed the connection (normal end of keep-alive).
    Closed,
    /// An I/O error (timeout, reset).
    Io(std::io::Error),
    /// A malformed request head or body (HTTP 400).
    Bad(String),
    /// The declared body exceeds the configured cap (HTTP 413).
    TooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
}

/// Reads one request from the connection. `max_body` caps the accepted
/// `Content-Length`; an oversized declaration is reported *before* reading
/// the body so the server can reject without buffering it.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Request, HttpError> {
    // ---- request line
    let line = read_line(reader)?;
    if line.is_empty() {
        return Err(HttpError::Closed);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Bad(format!("malformed request line `{line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version `{version}`")));
    }
    let http_10 = version == "HTTP/1.0";

    // ---- headers
    let mut headers = Vec::new();
    let mut head_bytes = line.len();
    loop {
        let line = read_line(reader)?;
        head_bytes += line.len() + 2;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::Bad("request head too large".into()));
        }
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };

    let connection = header("connection").unwrap_or("").to_ascii_lowercase();
    let keep_alive = if http_10 {
        connection.contains("keep-alive")
    } else {
        !connection.contains("close")
    };

    // ---- body
    if header("transfer-encoding").is_some() {
        return Err(HttpError::Bad(
            "chunked transfer encoding is not supported".into(),
        ));
    }
    // RFC 9112 §6.3: a length that is not 1*DIGIT, or two that disagree,
    // leaves the message boundary ambiguous — reject rather than guess
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str());
    let content_length: usize = match lengths.next() {
        None => 0,
        Some(v) => {
            if let Some(other) = lengths.find(|other| *other != v) {
                return Err(HttpError::Bad(format!(
                    "conflicting content-length `{v}` and `{other}`"
                )));
            }
            v.parse()
                .ok()
                .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| HttpError::Bad(format!("bad content-length `{v}`")))?
        }
    };
    if content_length > max_body {
        return Err(HttpError::TooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    // curl sends `Expect: 100-continue` for non-trivial bodies and waits for
    // the interim response before transmitting them
    if header("expect")
        .map(|v| v.eq_ignore_ascii_case("100-continue"))
        .unwrap_or(false)
    {
        reader
            .get_mut()
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .map_err(HttpError::Io)?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;

    Ok(Request {
        method: method.to_string(),
        path: target.to_string(),
        headers,
        body,
        keep_alive,
        http1_0: http_10,
    })
}

/// Reads one CRLF-terminated line (without the terminator).
fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, HttpError> {
    let mut line = Vec::new();
    // cap pathological lines at the head limit
    let mut limited = reader.by_ref().take(MAX_HEAD_BYTES as u64 + 2);
    let n = limited
        .read_until(b'\n', &mut line)
        .map_err(HttpError::Io)?;
    if n == 0 {
        return Ok(String::new()); // EOF
    }
    while matches!(line.last(), Some(b'\n' | b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Bad("non-UTF-8 request head".into()))
}

/// The reason phrase for the status codes the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// The head of a response: status line, content type, `framing` (the
/// `content-length` or `transfer-encoding` line), extra headers, blank line.
fn response_head(
    status: u16,
    framing: &str,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> String {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n{framing}\r\n",
        reason(status),
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if !keep_alive {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Writes the head of a `Transfer-Encoding: chunked` response (for the
/// streamed refinement frames of `POST /query/stream`). Frames follow via
/// [`write_chunk`]; the body ends with [`finish_chunked`].
pub fn write_chunked_head(
    stream: &mut TcpStream,
    status: u16,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let framing = "transfer-encoding: chunked";
    stream.write_all(response_head(status, framing, keep_alive, extra_headers).as_bytes())
}

/// Writes one chunk of a chunked response — size line, data and terminator
/// in a single write, so the client sees the frame as soon as it is produced
/// (anytime answers must not sit in a buffer until the final step).
pub fn write_chunk(stream: &mut TcpStream, data: &str) -> std::io::Result<()> {
    if data.is_empty() {
        return Ok(()); // an empty chunk would terminate the body
    }
    stream.write_all(format!("{:x}\r\n{data}\r\n", data.len()).as_bytes())
}

/// Terminates a chunked response (the zero-size chunk).
pub fn finish_chunked(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")
}

/// Writes one JSON response, head and body in a single write: on a
/// `TCP_NODELAY` socket two writes are two segments, and without it the
/// second waits for the peer's delayed ACK of the first. `extra_headers`
/// lets handlers attach e.g. `Retry-After`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
) -> std::io::Result<()> {
    let framing = format!("content-length: {}", body.len());
    let mut message = response_head(status, &framing, keep_alive, extra_headers);
    message.push_str(body);
    stream.write_all(message.as_bytes())
}

/// The body of an error response: `{"error": message}`.
pub fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::Str(message.to_string()))]).to_string()
}

/// The open connections of one server plus its stop flag: what the
/// connection cap and shutdown need.
#[derive(Debug, Default)]
struct Connections {
    stopping: AtomicBool,
    next_id: AtomicU64,
    /// A clone of every connection being served, until its loop returns.
    open: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled when a connection leaves `open` and when the server stops.
    changed: Condvar,
}

/// Removes a connection from its [`Connections`] when its loop returns.
struct Registered<'a> {
    conns: &'a Connections,
    id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        if let Ok(mut open) = self.conns.open.lock() {
            open.remove(&self.id);
        }
        self.conns.changed.notify_all();
    }
}

impl Connections {
    /// Whether [`Connections::stop`] was called.
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Marks the server as stopping, wakes the accept loop if it waits at
    /// the connection cap, and closes the read half of every open
    /// connection: a thread blocked reading an idle connection sees end of
    /// input and returns, one that is answering a request still delivers its
    /// response first. Returns `false` when the server was stopping already.
    fn stop(&self) -> bool {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return false;
        }
        // taking the lock orders the flag before a waiter's next check
        if let Ok(open) = self.open.lock() {
            for stream in open.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        self.changed.notify_all();
        true
    }

    /// Blocks until fewer than `max` connections are open or the server
    /// stops; returns whether it is still running.
    fn wait_below(&self, max: usize) -> bool {
        let open = self
            .open
            .lock()
            .expect("a connection thread panicked holding the registry");
        let _open = self
            .changed
            .wait_while(open, |open| open.len() >= max && !self.stopping())
            .expect("a connection thread panicked holding the registry");
        !self.stopping()
    }

    fn register(&self, stream: &TcpStream) -> std::io::Result<Registered<'_>> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let clone = stream.try_clone()?;
        self.open
            .lock()
            .expect("a connection thread panicked holding the registry")
            .insert(id, clone);
        Ok(Registered { conns: self, id })
    }
}

/// Serves one connection until the peer closes it, a read times out, an
/// error, or shutdown: reads requests off the keep-alive connection and hands
/// each to `respond`. A request that cannot be parsed is answered `400`, one
/// over `max_body` bytes `413`, and the connection closed — after either, the
/// position in the byte stream is unknown. `timeout` bounds every read and
/// write.
fn serve_connection(
    stream: TcpStream,
    conns: &Connections,
    max_body: usize,
    timeout: Option<Duration>,
    respond: impl Fn(&Request, &mut TcpStream) -> std::io::Result<()>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    while !conns.stopping() {
        let request = match read_request(&mut reader, max_body) {
            Ok(request) => request,
            Err(HttpError::Closed) => return Ok(()),
            Err(HttpError::Io(e)) => return Err(e),
            Err(HttpError::Bad(message)) => {
                return write_response(&mut stream, 400, &error_body(&message), false, &[]);
            }
            Err(HttpError::TooLarge { declared, limit }) => {
                let message =
                    format!("request body of {declared} bytes exceeds the {limit}-byte limit");
                return write_response(&mut stream, 413, &error_body(&message), false, &[]);
            }
        };
        respond(&request, &mut stream)?;
        if !request.keep_alive {
            break;
        }
    }
    Ok(())
}

/// A running [`listen`] server. Shut down explicitly with
/// [`Listener::shutdown`] or implicitly on drop.
#[derive(Debug)]
pub struct Listener {
    addr: SocketAddr,
    conns: Arc<Connections>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Listener {
    /// The bound address (useful with a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, ends every open connection — a thread blocked
    /// reading an idle one returns at once, a request in flight is still
    /// answered — and joins the accept and connection threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.conns.stop();
        if let Some(accept) = self.accept.take() {
            // wake the accept loop; bounded, so a full backlog cannot hang
            // shutdown
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
            let _ = accept.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `bind` (e.g. `"127.0.0.1:0"`) and serves every connection with
/// `respond`, which writes each request's response to the stream it is
/// given (normally one [`write_response`]; a streamed route writes chunks).
/// One accept thread named `name`, one thread named `{name}-conn` per
/// connection. At most `max_connections` (min 1) connections are served at
/// once: a connection counts from the moment it is accepted, and the loop
/// waits for one to close before it accepts the next, which meanwhile waits
/// in the listen backlog. `idle_timeout` bounds every read and write; `None`
/// lets an idle keep-alive connection stay open as long as the peer keeps it.
pub fn listen<H>(
    bind: &str,
    name: &str,
    max_body: usize,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    respond: H,
) -> std::io::Result<Listener>
where
    H: Fn(&Request, &mut TcpStream) -> std::io::Result<()> + Send + Sync + 'static,
{
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?;
    let conns = Arc::new(Connections::default());
    let accept_conns = Arc::clone(&conns);
    let conn_name = format!("{name}-conn");
    let max_connections = max_connections.max(1);
    let accept = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let (conns, respond) = (&*accept_conns, &respond);
            // the scope joins the connection threads when the loop ends
            std::thread::scope(|scope| {
                while conns.wait_below(max_connections) {
                    let Ok((stream, _)) = listener.accept() else {
                        // a persistent accept error (descriptor exhaustion)
                        // must not spin; let connections finish and free some
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    // registered before the stop flag is read: a connection
                    // `stop` did not see in the registry is dropped here
                    let Ok(registered) = conns.register(&stream) else {
                        continue;
                    };
                    if conns.stopping() {
                        break;
                    }
                    // if no thread can be spawned the connection is dropped
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn_scoped(scope, move || {
                            let _ =
                                serve_connection(stream, conns, max_body, idle_timeout, respond);
                            drop(registered);
                        });
                }
            });
        })?;
    Ok(Listener {
        addr,
        conns,
        accept: Some(accept),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::sync::mpsc;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn echo_server() -> Listener {
        listen(
            "127.0.0.1:0",
            "echo",
            64,
            usize::MAX,
            None,
            |request, stream| {
                let (status, body) = if request.path == "/echo" {
                    (200, String::from_utf8_lossy(&request.body).into_owned())
                } else {
                    (404, error_body("not found"))
                };
                write_response(stream, status, &body, request.keep_alive, &[])
            },
        )
        .unwrap()
    }

    #[test]
    fn listen_serves_keep_alive_requests_and_rejects_bad_ones() {
        let server = echo_server();
        let mut client = Client::connect(server.addr(), TIMEOUT).unwrap();
        for body in ["\"a\"", "\"bc\""] {
            let response = client.post("/echo", body).unwrap();
            assert_eq!((response.status, response.body.as_str()), (200, body));
        }
        assert_eq!(client.get("/nope").unwrap().status, 404);
        // over the body cap: 413 naming both sizes, then the connection closes
        let response = client.post("/echo", &"x".repeat(65)).unwrap();
        assert_eq!(response.status, 413);
        assert!(response.body.contains("65 bytes exceeds the 64-byte limit"));
        assert_eq!(response.header("connection"), Some("close"));
        assert!(client.get("/echo").is_err());
        // not HTTP at all: 400, closed
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"EHLO\r\n\r\n").unwrap();
        let mut text = String::new();
        raw.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        // finished connections leave the registry
        drop(client);
        let deadline = std::time::Instant::now() + TIMEOUT;
        while !server.conns.open.lock().unwrap().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "registry never emptied"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
    }

    /// Sends `request` in one write and reads until the server closes.
    fn raw_exchange(addr: SocketAddr, request: &str) -> String {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(TIMEOUT)).unwrap();
        raw.write_all(request.as_bytes()).unwrap();
        let mut text = String::new();
        raw.read_to_string(&mut text).unwrap();
        text
    }

    #[test]
    fn ambiguous_content_length_is_rejected_and_identical_duplicates_are_not() {
        let server = echo_server();
        // a signed length: `usize::from_str` accepts `+5`, HTTP does not
        let text = raw_exchange(
            server.addr(),
            "POST /echo HTTP/1.1\r\ncontent-length: +5\r\n\r\nhello",
        );
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        assert!(text.contains("bad content-length `+5`"), "{text}");
        // two lengths that disagree: honouring the first would serve the
        // remaining bytes as a second, smuggled request
        let smuggled = "GET /nope HTTP/1.1\r\n\r\n";
        let text = raw_exchange(
            server.addr(),
            &format!(
                "POST /echo HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: {}\r\n\r\nhello{smuggled}",
                5 + smuggled.len()
            ),
        );
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        assert!(text.contains("conflicting content-length"), "{text}");
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
        // the same length twice frames the message unambiguously
        let text = raw_exchange(
            server.addr(),
            "POST /echo HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\
             Connection: close\r\n\r\nhello",
        );
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello"), "{text}");
        server.shutdown();
    }

    #[test]
    fn shutdown_ends_idle_connections_but_answers_the_request_in_flight() {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let server = listen(
            "127.0.0.1:0",
            "slow",
            64,
            usize::MAX,
            None,
            move |request, stream| {
                started_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
                write_response(stream, 200, "\"done\"", request.keep_alive, &[])
            },
        )
        .unwrap();
        let idle = TcpStream::connect(server.addr()).unwrap();
        let addr = server.addr();
        let in_flight = std::thread::spawn(move || {
            let mut client = Client::connect(addr, TIMEOUT).unwrap();
            let first = client.get("/").unwrap();
            (first.status, first.body, client.get("/").is_err())
        });
        // the handler is running: stop, and only then let it answer
        started_rx.recv().unwrap();
        assert!(server.conns.stop());
        release_tx.send(()).unwrap();
        let (status, body, closed_after) = in_flight.join().unwrap();
        assert_eq!((status, body.as_str()), (200, "\"done\""));
        assert!(
            closed_after,
            "the connection must not serve another request"
        );
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        // the idle connection was closed by the server, not left half-open
        let mut idle = idle;
        idle.set_read_timeout(Some(TIMEOUT)).unwrap();
        assert_eq!(idle.read(&mut [0; 1]).unwrap(), 0);
    }
}
