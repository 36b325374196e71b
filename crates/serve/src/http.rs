//! A hand-rolled HTTP/1.1 layer over raw byte streams.
//!
//! The build environment vendors every dependency as a minimal shim, so there
//! is no hyper/tokio to lean on: this module implements exactly the protocol
//! surface the prediction service needs — an incremental request parser
//! ([`RequestBuffer`]) that survives partial reads and pipelined requests,
//! and a [`Response`] writer. Anything malformed or oversized becomes a typed
//! [`HttpError`] carrying the 4xx/5xx status to answer with; the parser never
//! panics on hostile input (`tests` below feed it truncations, garbage, and
//! oversized payloads). Protocol rejections use a fixed status vocabulary:
//! `400` (malformed request line, header, or Content-Length), `411` (POST or
//! PUT without a Content-Length), `413` (declared body over the limit),
//! `431` (head over the limit), `501` (transfer-encoding), and `505`
//! (unsupported protocol version).
//!
//! Deliberately out of scope (see ROADMAP "Open items"): chunked
//! transfer-encoding (answered with `501`), HTTP/2, and TLS.
//!
//! [`serve_connections`] is the one acceptor and keep-alive connection loop
//! behind both `difftune-serve` and `difftune-router`: each server only
//! supplies a [`Handler`].

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default cap on the request head (request line + headers).
pub const DEFAULT_MAX_HEAD_BYTES: usize = 16 * 1024;

/// Default cap on a request body.
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Size limits applied while parsing requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Maximum bytes of request line + headers before `431` is returned.
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` before `413` is returned.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: DEFAULT_MAX_HEAD_BYTES,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (path and query, exactly as sent).
    pub path: String,
    /// Headers in arrival order, with lowercased names and trimmed values.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(key, _)| *key == name)
            .map(|(_, value)| value.as_str())
    }

    /// True when the client asked for the connection to close after this
    /// request (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|value| value.eq_ignore_ascii_case("close"))
    }
}

/// A protocol-level error: the status code to answer with plus a message for
/// the JSON error body. The connection closes after the error is written
/// (framing can no longer be trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    /// The HTTP status code (4xx or 5xx).
    pub status: u16,
    /// Human-readable description, returned in the error body.
    pub message: String,
}

impl HttpError {
    /// A `400 Bad Request` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}: {}",
            self.status,
            reason(self.status),
            self.message
        )
    }
}

impl std::error::Error for HttpError {}

/// The standard reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// An incremental request parser: bytes go in via [`RequestBuffer::push`] in
/// whatever fragments the socket delivers, complete requests come out via
/// [`RequestBuffer::next_request`]. Bytes beyond the first request stay
/// buffered, so pipelined requests parse one by one.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
}

impl RequestBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        RequestBuffer::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Tries to parse one complete request off the front of the buffer.
    ///
    /// Returns `Ok(None)` when more bytes are needed, `Ok(Some(request))`
    /// when a full request was consumed (remaining bytes stay buffered for
    /// the next call), and `Err` when the stream violates the protocol or a
    /// limit — the caller should answer with [`Response::from_error`] and
    /// close.
    pub fn next_request(&mut self, limits: &HttpLimits) -> Result<Option<Request>, HttpError> {
        let Some(head_end) = find_head_end(&self.buf) else {
            if self.buf.len() > limits.max_head_bytes {
                return Err(HttpError {
                    status: 431,
                    message: format!(
                        "request head exceeds {} bytes without terminating",
                        limits.max_head_bytes
                    ),
                });
            }
            return Ok(None);
        };
        if head_end > limits.max_head_bytes {
            return Err(HttpError {
                status: 431,
                message: format!("request head exceeds {} bytes", limits.max_head_bytes),
            });
        }

        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::bad_request("request head is not valid UTF-8"))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (Some(method), Some(path), Some(version), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(HttpError::bad_request(format!(
                "malformed request line {request_line:?}"
            )));
        };
        if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
            return Err(HttpError::bad_request(format!(
                "malformed method {method:?}"
            )));
        }
        if path.is_empty() || !path.starts_with('/') {
            return Err(HttpError::bad_request(format!(
                "request target {path:?} must be an absolute path"
            )));
        }
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(HttpError {
                status: 505,
                message: format!("unsupported protocol version {version:?}"),
            });
        }

        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::bad_request(format!(
                    "malformed header line {line:?}"
                )));
            };
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::bad_request(format!(
                    "malformed header name {name:?}"
                )));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        if headers.iter().any(|(name, _)| name == "transfer-encoding") {
            return Err(HttpError {
                status: 501,
                message: "transfer-encoding is not supported; send Content-Length".to_string(),
            });
        }

        let content_lengths: Vec<&str> = headers
            .iter()
            .filter(|(name, _)| name == "content-length")
            .map(|(_, value)| value.as_str())
            .collect();
        let body_len = match content_lengths.as_slice() {
            [] => {
                // Methods that carry a payload must frame it: without a
                // Content-Length the parser cannot tell where the body ends,
                // so a bare POST/PUT is `411` rather than "empty body".
                if method == "POST" || method == "PUT" {
                    return Err(HttpError {
                        status: 411,
                        message: format!("{method} requests must declare a Content-Length"),
                    });
                }
                0usize
            }
            [single] => single.parse::<usize>().map_err(|_| {
                HttpError::bad_request(format!("invalid Content-Length {single:?}"))
            })?,
            _ => return Err(HttpError::bad_request("conflicting Content-Length headers")),
        };
        if body_len > limits.max_body_bytes {
            return Err(HttpError {
                status: 413,
                message: format!(
                    "request body of {body_len} bytes exceeds the {}-byte limit",
                    limits.max_body_bytes
                ),
            });
        }

        let total = head_end + 4 + body_len;
        if self.buf.len() < total {
            return Ok(None); // body still in flight
        }

        let body = self.buf[head_end + 4..total].to_vec();
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            headers,
            body,
        };
        self.buf.drain(..total);
        Ok(Some(request))
    }
}

/// Index of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: Vec<u8>,
    /// Whether the server will close the connection after this response
    /// (`Connection: close` is advertised accordingly).
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            close: false,
        }
    }

    /// The JSON error response for a protocol or application error. Protocol
    /// errors (passed from [`RequestBuffer::next_request`]) additionally close
    /// the connection, because request framing can no longer be trusted.
    pub fn from_error(error: &HttpError, close: bool) -> Self {
        let body = serde_json::to_string(&serde::Value::Map(vec![(
            "error".to_string(),
            serde::Value::Str(error.message.clone()),
        )]))
        .expect("an error body always serializes");
        Response {
            close,
            ..Response::json(error.status, body)
        }
    }

    /// Serializes status line, headers, and body to the writer.
    pub fn write_to(&self, writer: &mut impl std::io::Write) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// The endpoint a request path names: `/v1/<endpoint>` is an alias of
/// `/<endpoint>`, so both spellings route (and meter) as one endpoint and
/// their responses are byte-identical by construction.
pub fn endpoint_path(path: &str) -> &str {
    path.strip_prefix("/v1")
        .filter(|rest| rest.starts_with('/'))
        .unwrap_or(path)
}

/// A server's request handling, plugged into [`serve_connections`].
pub trait Handler: Send + Sync + 'static {
    /// Answers one parsed request. The connection loop adds
    /// `Connection: close` when the client asked for it or the
    /// per-connection request cap is reached.
    fn handle(&self, request: &Request) -> Response;

    /// True once the server stops taking new work: the acceptor stops
    /// accepting, and connections close instead of reading another request.
    /// The acceptor checks it as each connection arrives, so a handler that
    /// starts stopping wakes it with a throwaway connection.
    fn stopping(&self) -> bool;

    /// Called after each response is written, with the request's
    /// [`endpoint_path`] (empty when the request never parsed), the status,
    /// and the time from parse to written response.
    fn finished(&self, _endpoint_path: &str, _status: u16, _elapsed: Duration) {}
}

/// A running acceptor from [`serve_connections`]. Dropping it shuts it down.
#[derive(Debug)]
pub struct Acceptor {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    read_timeout: Duration,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stops accepting, then waits for in-flight connections to finish,
    /// bounded by the idle timeout (connections notice the stop at their
    /// next read). Later calls do nothing.
    pub fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
        let deadline = Instant::now() + self.read_timeout + Duration::from_secs(1);
        while self.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the acceptor thread (`<thread_name>-acceptor`), which serves every
/// connection on its own thread (`<thread_name>-conn`) with a pipelined
/// keep-alive loop:
///
/// * every complete request already buffered is answered in order before
///   the next read;
/// * a protocol error is answered with its [`HttpError`] status and
///   `Connection: close`, then the connection closes;
/// * the response to request number `max_requests` (`0` = unlimited) says
///   `Connection: close`, so pooled clients retire the connection instead
///   of hitting a surprise reset;
/// * a connection idle for `read_timeout` closes;
/// * the stop flags ([`Acceptor::shutdown`] and [`Handler::stopping`]) are
///   checked before *and* after each blocking read, so requests fully
///   buffered before a stop are answered and bytes arriving after it are
///   closed unanswered, for the client to retry elsewhere.
///
/// # Errors
///
/// I/O errors from reading the listener's address or spawning the thread.
pub fn serve_connections<H: Handler>(
    listener: TcpListener,
    thread_name: &str,
    handler: Arc<H>,
    limits: HttpLimits,
    read_timeout: Duration,
    max_requests: usize,
) -> std::io::Result<Acceptor> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let thread = {
        let stop = Arc::clone(&stop);
        let active = Arc::clone(&active);
        let conn_name = format!("{thread_name}-conn");
        std::thread::Builder::new()
            .name(format!("{thread_name}-acceptor"))
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) || handler.stopping() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let handler = Arc::clone(&handler);
                    let stop = Arc::clone(&stop);
                    let conn_active = Arc::clone(&active);
                    active.fetch_add(1, Ordering::SeqCst);
                    let spawned =
                        std::thread::Builder::new()
                            .name(conn_name.clone())
                            .spawn(move || {
                                serve_connection(
                                    stream,
                                    &*handler,
                                    &stop,
                                    &limits,
                                    read_timeout,
                                    max_requests,
                                );
                                conn_active.fetch_sub(1, Ordering::SeqCst);
                            });
                    if spawned.is_err() {
                        active.fetch_sub(1, Ordering::SeqCst);
                    }
                }
            })?
    };
    Ok(Acceptor {
        addr,
        stop,
        active,
        read_timeout,
        thread: Some(thread),
    })
}

/// One connection's keep-alive loop (see [`serve_connections`]).
fn serve_connection(
    mut stream: TcpStream,
    handler: &impl Handler,
    stop: &AtomicBool,
    limits: &HttpLimits,
    read_timeout: Duration,
    max_requests: usize,
) {
    let stopping = || stop.load(Ordering::SeqCst) || handler.stopping();
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return;
    }
    let mut parser = RequestBuffer::new();
    let mut read_buf = [0u8; 16 * 1024];
    let mut answered = 0usize;
    loop {
        // Answer every complete request already buffered (pipelining).
        loop {
            match parser.next_request(limits) {
                Ok(Some(request)) => {
                    let started = Instant::now();
                    let mut response = handler.handle(&request);
                    answered += 1;
                    response.close = response.close
                        || request.wants_close()
                        || (max_requests > 0 && answered >= max_requests);
                    let written = response.write_to(&mut stream);
                    handler.finished(
                        endpoint_path(&request.path),
                        response.status,
                        started.elapsed(),
                    );
                    if written.is_err() || response.close {
                        return;
                    }
                }
                Ok(None) => break,
                Err(error) => {
                    let _ = Response::from_error(&error, true).write_to(&mut stream);
                    handler.finished("", error.status, Duration::ZERO);
                    return;
                }
            }
        }
        if stopping() {
            return;
        }
        match stream.read(&mut read_buf) {
            Ok(n) if n > 0 && !stopping() => parser.push(&read_buf[..n]),
            // End of stream, a stop that landed during the read, the idle
            // timeout, or a broken socket: close. A fresh request comes on
            // a fresh connection.
            _ => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut buffer = RequestBuffer::new();
        buffer.push(raw);
        buffer.next_request(&HttpLimits::default())
    }

    #[test]
    fn a_simple_get_parses() {
        let request = parse_one(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .expect("complete request");
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert!(request.body.is_empty());
        assert!(!request.wants_close());
    }

    #[test]
    fn a_post_with_body_parses_and_respects_content_length() {
        let request = parse_one(b"POST /predict HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .unwrap()
            .expect("complete request");
        assert_eq!(request.method, "POST");
        assert_eq!(request.body, b"{\"a\":1}");
    }

    #[test]
    fn partial_reads_accumulate_until_the_request_completes() {
        // One byte at a time: the parser must return Ok(None) at every prefix
        // and produce the request exactly once the final byte lands.
        let raw: &[u8] = b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nok";
        let mut buffer = RequestBuffer::new();
        let limits = HttpLimits::default();
        for (i, byte) in raw.iter().enumerate() {
            buffer.push(std::slice::from_ref(byte));
            let parsed = buffer.next_request(&limits).expect("prefixes never error");
            if i + 1 < raw.len() {
                assert!(parsed.is_none(), "premature parse at byte {i}");
            } else {
                let request = parsed.expect("final byte completes the request");
                assert_eq!(request.body, b"ok");
                assert!(buffer.is_empty());
            }
        }
    }

    #[test]
    fn pipelined_requests_parse_one_by_one() {
        let mut buffer = RequestBuffer::new();
        buffer.push(b"GET /healthz HTTP/1.1\r\n\r\nPOST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /metrics HTTP/1.1\r\n\r\n");
        let limits = HttpLimits::default();
        let first = buffer.next_request(&limits).unwrap().expect("first");
        assert_eq!(first.path, "/healthz");
        let second = buffer.next_request(&limits).unwrap().expect("second");
        assert_eq!(
            (second.path.as_str(), second.body.as_slice()),
            ("/predict", b"hi".as_slice())
        );
        let third = buffer.next_request(&limits).unwrap().expect("third");
        assert_eq!(third.path, "/metrics");
        assert_eq!(buffer.next_request(&limits).unwrap(), None);
    }

    #[test]
    fn malformed_input_becomes_4xx_not_a_panic() {
        for (raw, status) in [
            (b"garbage\r\n\r\n".as_slice(), 400), // no method/path/version
            (b"GET /x HTTP/1.1 extra\r\n\r\n".as_slice(), 400), // 4-part request line
            (b"get /x HTTP/1.1\r\n\r\n".as_slice(), 400), // lowercase method
            (b"GET x HTTP/1.1\r\n\r\n".as_slice(), 400), // relative target
            (b"GET /x HTTP/2\r\n\r\n".as_slice(), 505), // unsupported version
            (b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n".as_slice(), 400), // malformed header
            (
                b"POST /x HTTP/1.1\r\nContent-Length: nan\r\n\r\n".as_slice(),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n".as_slice(),
                400,
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
                501,
            ),
            (b"POST /x HTTP/1.1\r\n\r\n".as_slice(), 411), // payload method, no framing
            (b"PUT /x HTTP/1.1\r\n\r\n".as_slice(), 411),
            (b"GET /\xff\xfe HTTP/1.1\r\n\r\n".as_slice(), 400), // non-UTF-8 head
        ] {
            let error = parse_one(raw).expect_err("malformed input must error");
            assert_eq!(error.status, status, "input {raw:?}");
        }
    }

    #[test]
    fn oversized_bodies_and_heads_are_rejected() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 16,
        };

        // Declared body over the limit: rejected from the header alone,
        // before any body bytes arrive.
        let mut buffer = RequestBuffer::new();
        buffer.push(b"POST /predict HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        assert_eq!(buffer.next_request(&limits).unwrap_err().status, 413);

        // Head that never terminates: rejected once it exceeds the cap, so a
        // slow-loris stream cannot grow the buffer forever.
        let mut buffer = RequestBuffer::new();
        buffer.push(b"GET /x HTTP/1.1\r\n");
        for _ in 0..8 {
            buffer.push(b"X-Padding: aaaaaaaaaaaaaaaa\r\n");
        }
        assert_eq!(buffer.next_request(&limits).unwrap_err().status, 431);

        // A complete head that is simply too large is also rejected.
        let mut buffer = RequestBuffer::new();
        buffer.push(b"GET /x HTTP/1.1\r\nX-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n");
        assert_eq!(buffer.next_request(&limits).unwrap_err().status, 431);
    }

    #[test]
    fn connection_close_is_honored_and_responses_serialize() {
        let request = parse_one(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .expect("complete request");
        assert!(request.wants_close());

        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::from_error(&HttpError::bad_request("nope"), true)
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"nope\"}"));
    }

    /// Echoes each request's path, records what [`Handler::finished`] saw,
    /// and stops on demand.
    #[derive(Default)]
    struct Echo {
        stopping: AtomicBool,
        finished: std::sync::Mutex<Vec<(String, u16)>>,
    }

    impl Handler for Echo {
        fn handle(&self, request: &Request) -> Response {
            Response::text(200, request.path.clone())
        }

        fn stopping(&self) -> bool {
            self.stopping.load(Ordering::SeqCst)
        }

        fn finished(&self, endpoint_path: &str, status: u16, _elapsed: Duration) {
            let mut finished = self.finished.lock().unwrap();
            finished.push((endpoint_path.to_string(), status));
        }
    }

    /// A loopback acceptor over `handler`, and a client connected to it.
    fn loopback(handler: &Arc<Echo>, max_requests: usize) -> (Acceptor, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let acceptor = serve_connections(
            listener,
            "http-test",
            Arc::clone(handler),
            HttpLimits::default(),
            Duration::from_secs(5),
            max_requests,
        )
        .unwrap();
        let client = TcpStream::connect(acceptor.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        (acceptor, client)
    }

    /// Sends `raw` and reads until the server closes the connection.
    fn exchange(client: &mut TcpStream, raw: &[u8]) -> String {
        use std::io::Write;
        client.write_all(raw).unwrap();
        let mut out = String::new();
        client.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn pipelined_requests_in_one_write_are_answered_in_order() {
        let handler = Arc::new(Echo::default());
        let (_acceptor, mut client) = loopback(&handler, 0);
        let out = exchange(
            &mut client,
            b"GET /v1/first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let first = out.find("/v1/first").expect("first answered");
        let second = out.find("/second").expect("second answered");
        assert!(first < second, "{out}");
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2, "{out}");
        assert!(out.ends_with("Connection: close\r\n\r\n/second"), "{out}");
        // The hook sees the `/v1`-normalized endpoint path.
        assert_eq!(
            *handler.finished.lock().unwrap(),
            [("/first".to_string(), 200), ("/second".to_string(), 200)]
        );
    }

    #[test]
    fn a_malformed_request_gets_its_status_and_connection_close() {
        let handler = Arc::new(Echo::default());
        let (_acceptor, mut client) = loopback(&handler, 0);
        let out = exchange(&mut client, b"GET /x HTTP/2\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 505 "), "{out}");
        assert!(out.contains("Connection: close\r\n"), "{out}");
        assert_eq!(*handler.finished.lock().unwrap(), [(String::new(), 505)]);
    }

    #[test]
    fn the_request_cap_closes_with_the_capped_response() {
        let handler = Arc::new(Echo::default());
        let (_acceptor, mut client) = loopback(&handler, 2);
        let out = exchange(
            &mut client,
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
        );
        let connection: Vec<&str> = out
            .lines()
            .filter(|line| line.starts_with("Connection: "))
            .collect();
        assert_eq!(connection, ["Connection: keep-alive", "Connection: close"]);
        assert!(out.ends_with("/b"), "{out}");
    }

    #[test]
    fn bytes_arriving_after_stopping_are_closed_unanswered() {
        use std::io::Write;
        let handler = Arc::new(Echo::default());
        let (_acceptor, mut client) = loopback(&handler, 0);
        client.write_all(b"GET /before HTTP/1.1\r\n\r\n").unwrap();
        let mut answer = Vec::new();
        while !answer.ends_with(b"/before") {
            let mut buf = [0u8; 1024];
            let n = client.read(&mut buf).unwrap();
            assert!(n > 0, "closed before answering");
            answer.extend_from_slice(&buf[..n]);
        }

        handler.stopping.store(true, Ordering::SeqCst);
        client.write_all(b"GET /after HTTP/1.1\r\n\r\n").unwrap();
        // Closed without an answer: a clean end of stream, or a reset when
        // the bytes were still unread as the socket closed.
        let mut rest = Vec::new();
        let _ = client.read_to_end(&mut rest);
        assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
        assert_eq!(handler.finished.lock().unwrap().len(), 1);
    }

    // Fuzz-style property tests: the parser is a pure function of the byte
    // stream regardless of how reads fragment it, and hostile preambles only
    // ever map to the documented status vocabulary (module docs above).
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// A valid POST with an arbitrary binary body parses to the same
        /// request no matter how the bytes are split across reads: every
        /// proper prefix yields `Ok(None)`, the final chunk yields exactly
        /// the one-shot parse, and nothing stays buffered.
        #[test]
        fn byte_splits_never_change_the_parse(
            seed in 0u64..1_000_000,
            body_len in 0usize..64,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let body: Vec<u8> = (0..body_len).map(|_| rng.gen_range(0u8..=255)).collect();
            let mut raw = format!(
                "POST /predict HTTP/1.1\r\nHost: fleet\r\nContent-Length: {body_len}\r\n\r\n"
            )
            .into_bytes();
            raw.extend_from_slice(&body);

            let limits = HttpLimits::default();
            let expected = {
                let mut buffer = RequestBuffer::new();
                buffer.push(&raw);
                buffer.next_request(&limits).unwrap().expect("one-shot parse")
            };

            let mut buffer = RequestBuffer::new();
            let mut offset = 0usize;
            while offset < raw.len() {
                // Bias toward tiny chunks so header/body boundaries are hit.
                let chunk = rng.gen_range(1usize..=8).min(raw.len() - offset);
                buffer.push(&raw[offset..offset + chunk]);
                offset += chunk;
                let parsed = buffer.next_request(&limits);
                if offset < raw.len() {
                    proptest::prop_assert_eq!(parsed, Ok(None), "early parse at byte {}", offset);
                } else {
                    let request = parsed.unwrap().expect("final chunk completes the request");
                    proptest::prop_assert_eq!(&request, &expected);
                    proptest::prop_assert!(buffer.is_empty());
                }
            }
        }

        /// Random hostile preambles (biased toward protocol punctuation)
        /// never panic the parser, and every rejection carries one of the
        /// documented statuses: 400, 411, 413, 431, 501, or 505.
        #[test]
        fn hostile_preambles_map_to_documented_statuses(
            seed in 0u64..1_000_000,
            len in 0usize..200,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            const ALPHABET: &[u8] = b"\r\n :/.GETPOSTHTTP1\xff\x00abcdefgh0123456789-";
            let mut raw: Vec<u8> = (0..len)
                .map(|_| ALPHABET[rng.gen_range(0usize..ALPHABET.len())])
                .collect();
            raw.extend_from_slice(b"\r\n\r\n");

            let mut buffer = RequestBuffer::new();
            buffer.push(&raw);
            match buffer.next_request(&HttpLimits::default()) {
                // A lucky draw can form a valid request (or one still
                // waiting on a declared body); both are acceptable.
                Ok(_) => {}
                Err(error) => proptest::prop_assert!(
                    matches!(error.status, 400 | 411 | 413 | 431 | 501 | 505),
                    "undocumented status {} for {:?}",
                    error.status,
                    raw
                ),
            }
        }
    }
}
