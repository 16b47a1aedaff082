//! A minimal blocking HTTP/1.1 client over one keep-alive connection — just
//! enough to drive the server from tests, examples and the benchmark without
//! pulling in a dependency.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::{parse, Json};

/// One keep-alive connection to a server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

/// A received response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// The first value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> std::io::Result<Json> {
        parse(&self.body).map_err(|e| std::io::Error::other(format!("bad response JSON: {e}")))
    }
}

impl Client {
    /// Connects to `addr` with a read/write timeout.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Adjusts the read/write timeout of the underlying connection, e.g. to
    /// bound an individual request by the time remaining before a deadline.
    pub fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))
    }

    /// Issues a `GET`.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, None)
    }

    /// Issues a `POST` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let body = body.unwrap_or("");
        // head and body in one write: see `http::write_response`
        let message = format!(
            "{method} {path} HTTP/1.1\r\nhost: beas\r\ncontent-length: {}\r\ncontent-type: application/json\r\n\r\n{body}",
            body.len()
        );
        self.reader.get_mut().write_all(message.as_bytes())?;
        self.read_response()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::other(format!("malformed status line `{status_line}`"))
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        // interim 100 Continue responses carry no body; read the real one
        if status == 100 {
            return self.read_response();
        }
        let chunked = headers
            .iter()
            .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
        let body = if chunked {
            self.read_chunked_body()?
        } else {
            let length: usize = headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            let mut body = vec![0u8; length];
            self.reader.read_exact(&mut body)?;
            body
        };
        let body = String::from_utf8(body)
            .map_err(|_| std::io::Error::other("non-UTF-8 response body"))?;
        Ok(Response {
            status,
            headers,
            body,
        })
    }

    /// Decodes a `Transfer-Encoding: chunked` body (the streamed refinement
    /// frames of `POST /query/stream`). The concatenated chunks are returned
    /// as the body; since the server writes one newline-terminated JSON frame
    /// per chunk, `body.lines()` recovers the frames.
    fn read_chunked_body(&mut self) -> std::io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let size_line = self.read_line()?;
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                std::io::Error::other(format!("malformed chunk size `{size_line}`"))
            })?;
            if size == 0 {
                // the terminating chunk's trailing CRLF
                self.read_line()?;
                return Ok(body);
            }
            let mut chunk = vec![0u8; size];
            self.reader.read_exact(&mut chunk)?;
            body.extend_from_slice(&chunk);
            // the CRLF after each chunk's data
            self.read_line()?;
        }
    }
}
