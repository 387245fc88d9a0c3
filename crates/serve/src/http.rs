//! A deliberately minimal HTTP/1.1 subset, enough for a JSON API on a
//! loopback socket: one request per connection (`Connection: close`),
//! request bodies sized by `Content-Length`, and hard caps on header and
//! body sizes *and read time* so a misbehaving peer — oversized, slow,
//! or silent — cannot balloon or pin the daemon.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::{io_err, ServeError};

/// Maximum accepted size of the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Default wall-clock budget for reading one complete request. A
/// slow-loris peer that trickles header bytes (each one resetting a
/// naive per-read timeout) still cannot hold a connection handler past
/// this deadline.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The request path, without its query string.
    pub path: String,
    /// The query string after `?` (empty when there is none).
    pub query: String,
    /// The request body (empty when none was sent).
    pub body: String,
}

/// An HTTP response to be serialized.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`), emitted verbatim.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response (the Prometheus exposition endpoint).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error response: `{"error": <message>}`.
    pub fn error(status: u16, message: &str) -> Response {
        let mut body = String::from("{\"error\":");
        body.push_str(&llc_sharing::json::Value::Str(message.to_string()).render());
        body.push('}');
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// Adds a header to the response.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// Adds a `Retry-After` header — the server's backpressure hint on
    /// 429/503 answers, honored by the retrying [`crate::Client`].
    #[must_use]
    pub fn retry_after(self, secs: u64) -> Response {
        self.with_header("Retry-After", secs.to_string())
    }
}

/// The standard reason phrase for the status codes this API uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// `true` when an I/O error is one of the two kinds a timed-out socket
/// read surfaces as (platform-dependent).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one HTTP request from `stream` with the default deadline.
///
/// # Errors
///
/// See [`read_request_deadline`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ServeError> {
    read_request_deadline(stream, DEFAULT_READ_DEADLINE)
}

/// Reads one HTTP request from `stream`, spending at most `deadline` of
/// wall-clock time across *all* reads — the socket read timeout is
/// re-armed with the remaining budget before every read, so a peer
/// drip-feeding bytes cannot extend its welcome.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for malformed or oversized requests,
/// [`ServeError::Timeout`] when the deadline lapses mid-request, and
/// [`ServeError::Io`] for other socket failures.
pub fn read_request_deadline(
    stream: &mut TcpStream,
    deadline: Duration,
) -> Result<Request, ServeError> {
    let started = Instant::now();
    let arm = |stream: &TcpStream, context: &str| -> Result<(), ServeError> {
        let left = deadline.saturating_sub(started.elapsed());
        if left.is_zero() {
            return Err(ServeError::Timeout {
                context: context.to_string(),
            });
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(|e| io_err("arming the read deadline", e))
    };
    arm(stream, "reading request line")?;
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| {
        if is_timeout(&e) {
            ServeError::Timeout {
                context: "reading request line".into(),
            }
        } else {
            io_err("reading request line", e)
        }
    })?;
    if line.is_empty() {
        return Err(ServeError::Protocol("empty request".into()));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ServeError::Protocol("missing path".into()))?;
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let (path, query) = (path.to_string(), query.to_string());
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::Protocol(format!(
            "unsupported version {version:?}"
        )));
    }

    let mut content_length = 0usize;
    loop {
        arm(reader.get_ref(), "reading headers")?;
        line.clear();
        reader.read_line(&mut line).map_err(|e| {
            if is_timeout(&e) {
                ServeError::Timeout {
                    context: "reading headers".into(),
                }
            } else {
                io_err("reading header", e)
            }
        })?;
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(ServeError::Protocol("request headers too large".into()));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| ServeError::Protocol(format!("bad content-length {value:?}")))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::Protocol(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES} byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        arm(reader.get_ref(), "reading request body")?;
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                // A body shorter than its declared Content-Length — a
                // truncated request — is the peer's protocol error.
                return Err(ServeError::Protocol(format!(
                    "request body truncated at {filled} of {content_length} bytes"
                )));
            }
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                return Err(ServeError::Timeout {
                    context: "reading request body".into(),
                })
            }
            Err(e) => return Err(io_err("reading request body", e)),
        }
    }
    let body = String::from_utf8(body)
        .map_err(|_| ServeError::Protocol("request body is not UTF-8".into()))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Serializes `response` onto `stream` (the response's content type,
/// explicit length, extra headers, `Connection: close`).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

/// Parses an HTTP response (status code and body) from raw bytes — the
/// client side of the exchange. Tolerant of anything after the status
/// code on the status line; the body is everything past the blank line.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] for responses without a parsable
/// status line or header terminator.
pub fn parse_response(raw: &[u8]) -> Result<(u16, String), ServeError> {
    let (status, _, body) = parse_response_full(raw)?;
    Ok((status, body))
}

/// A fully parsed response: status, headers (lower-cased names, in wire
/// order) and body.
pub type ParsedResponse = (u16, Vec<(String, String)>, String);

/// Parses an HTTP response including its headers (lower-cased names) —
/// the retrying client needs `retry-after`.
///
/// # Errors
///
/// See [`parse_response`].
pub fn parse_response_full(raw: &[u8]) -> Result<ParsedResponse, ServeError> {
    let text = String::from_utf8_lossy(raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ServeError::Protocol("missing status code".into()))?;
    let head_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| ServeError::Protocol("missing header terminator".into()))?;
    let headers = text[..head_end]
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    let body = text[head_end + 4..].to_string();
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn round_trip(raw: &str) -> Result<Request, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_string();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw.as_bytes()).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let r = read_request(&mut conn);
        writer.join().expect("writer");
        r
    }

    #[test]
    fn parses_request_with_body() {
        let r = round_trip("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .expect("parse");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/jobs");
        assert_eq!(r.body, "{\"a\":1}");
    }

    #[test]
    fn parses_bodyless_get() {
        let r = round_trip("get /store/stats HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/store/stats");
        assert!(r.query.is_empty());
        assert!(r.body.is_empty());
    }

    #[test]
    fn splits_the_query_string_off_the_path() {
        let r = round_trip("GET /jobs/7?wait_ms=250 HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(r.path, "/jobs/7");
        assert_eq!(r.query, "wait_ms=250");
    }

    #[test]
    fn rejects_garbage_and_oversized() {
        assert!(round_trip("\r\n").is_err());
        assert!(round_trip("GET\r\n\r\n").is_err());
        assert!(round_trip("GET / SPDY/99\r\n\r\n").is_err());
        assert!(round_trip("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(round_trip(&huge).is_err());
    }

    #[test]
    fn truncated_body_is_a_protocol_error_not_a_hang() {
        // Content-Length promises 50 bytes, the peer sends 5 and closes:
        // the server must answer with a typed error immediately.
        let err = round_trip("POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nhello")
            .expect_err("truncated body");
        assert!(
            matches!(&err, ServeError::Protocol(msg) if msg.contains("truncated")),
            "{err}"
        );
    }

    #[test]
    fn slow_loris_hits_the_read_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            // Drip the request line a byte at a time, slower than the
            // deadline allows in total.
            for b in b"GET /healthz" {
                if s.write_all(&[*b]).is_err() {
                    return; // server gave up on us, as it should
                }
                thread::sleep(Duration::from_millis(30));
            }
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let started = Instant::now();
        let err = read_request_deadline(&mut conn, Duration::from_millis(150))
            .expect_err("must time out");
        assert!(matches!(err, ServeError::Timeout { .. }), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "deadline must bound the total read time"
        );
        drop(conn);
        writer.join().expect("writer");
    }

    #[test]
    fn response_round_trips_through_parser() {
        let r = Response::error(404, "no such job \"7\"");
        let raw = format!(
            "HTTP/1.1 {} {}\r\nContent-Length: {}\r\n\r\n{}",
            r.status,
            reason(r.status),
            r.body.len(),
            r.body
        );
        let (status, body) = parse_response(raw.as_bytes()).expect("parse");
        assert_eq!(status, 404);
        let v = llc_sharing::json::parse(&body).expect("valid JSON");
        assert_eq!(
            v.field("error").and_then(llc_sharing::json::Value::as_str),
            Some("no such job \"7\"")
        );
        assert!(parse_response(b"garbage").is_err());
    }

    #[test]
    fn extra_headers_ride_along_and_parse_back() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let response = Response::error(429, "queue full").retry_after(7);
            write_response(&mut conn, &response).expect("write");
        });
        let mut s = TcpStream::connect(addr).expect("connect");
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).expect("read");
        server.join().expect("server");
        let (status, headers, body) = parse_response_full(&raw).expect("parse");
        assert_eq!(status, 429);
        assert!(body.contains("queue full"));
        assert_eq!(
            headers
                .iter()
                .find(|(n, _)| n == "retry-after")
                .map(|(_, v)| v.as_str()),
            Some("7")
        );
    }
}
