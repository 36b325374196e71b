//! The load generator: a closed loop for throughput and a seeded open loop
//! (Poisson arrivals) for latency, each over keep-alive connections with one
//! thread per connection. The closed loop takes its requests from a feed,
//! so however fast the server answers, it never runs out.
//!
//! The open loop pipelines: a connection writes each request when its
//! scheduled time comes, whether or not earlier responses are back, and
//! reads responses in order in between. Latency is timed from the scheduled
//! send, so a stall that delays later sends is charged to them, and the
//! generator reports how late it sent.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How long a connection waits for an outstanding response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
/// Below this much slack before the next send, the open loop sends instead
/// of waiting for a response.
const MIN_WAIT: Duration = Duration::from_micros(50);

/// One generated `/predict` request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The JSON body.
    pub body: Arc<str>,
    /// The full HTTP/1.1 request as written to the socket.
    pub raw: Arc<[u8]>,
    /// Blocks the request carries.
    pub blocks: usize,
}

impl Request {
    pub fn new(body: String, blocks: usize) -> Request {
        let raw = format!(
            "POST /predict HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Request {
            body: body.into(),
            raw: raw.into(),
            blocks,
        }
    }
}

/// One response: status and body.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

/// A keep-alive connection with an incremental response parser.
struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr)
            .map_err(|error| format!("cannot connect to {addr}: {error}"))?;
        stream.set_nodelay(true).ok();
        Ok(Connection {
            stream,
            buf: Vec::new(),
            scratch: vec![0; 64 * 1024],
        })
    }

    fn send(&mut self, raw: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(raw)
            .map_err(|error| format!("write failed: {error}"))
    }

    /// A complete response from the buffer, if one has arrived.
    fn parse(&mut self) -> Result<Option<Reply>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("malformed status line in {head:?}"))?;
        let length: usize = head
            .lines()
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse().ok())
            .ok_or_else(|| format!("response without Content-Length: {head:?}"))?;
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply { status, body }))
    }

    /// Reads once, waiting at most `wait`; false when nothing arrived.
    fn fill(&mut self, wait: Duration) -> Result<bool, String> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(1))))
            .map_err(|error| format!("cannot set read timeout: {error}"))?;
        match self.stream.read(&mut self.scratch) {
            Ok(0) => Err("the server closed the connection".to_string()),
            Ok(n) => {
                self.buf.extend_from_slice(&self.scratch[..n]);
                Ok(true)
            }
            Err(error)
                if matches!(
                    error.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(error) => Err(format!("read failed: {error}")),
        }
    }

    /// Blocks until one whole response is in.
    fn recv(&mut self) -> Result<Reply, String> {
        let deadline = Instant::now() + RESPONSE_TIMEOUT;
        loop {
            if let Some(reply) = self.parse()? {
                return Ok(reply);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err("timed out waiting for a response".to_string());
            }
            self.fill(deadline - now)?;
        }
    }
}

/// One request's fate in a phase: its index into the phase's request list
/// and the reply (`None` when the connection failed before it came back).
pub type Answer = (usize, Option<Reply>);

/// What a closed-loop phase measured.
#[derive(Debug)]
pub struct Closed {
    /// Every request sent, with its reply (`None` when the connection
    /// failed before it came back).
    pub sent: Vec<(Request, Option<Reply>)>,
    /// Round-trip time of every answered request, in ms.
    pub rtt_ms: Vec<f64>,
    /// When each answered request completed and how many blocks it carried.
    pub completions: Vec<(Instant, usize)>,
}

/// Sends requests taken from `next` over `connections` keep-alive
/// connections until `duration` has passed or `next` runs out. Each
/// connection keeps `depth` requests in flight: it writes the next one as
/// soon as an answer comes back.
pub fn closed_loop(
    addr: &str,
    next: &(dyn Fn() -> Option<Request> + Sync),
    connections: usize,
    depth: usize,
    duration: Duration,
) -> Result<Closed, String> {
    let mut links: Vec<Connection> = (0..connections)
        .map(|_| Connection::open(addr))
        .collect::<Result<_, _>>()?;
    let deadline = Instant::now() + duration;
    let per_connection: Vec<Closed> = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .iter_mut()
            .enumerate()
            .map(|(c, link)| {
                scope.spawn(move || {
                    let closed = drive_closed(link, next, depth.max(1), deadline);
                    if let Err(error) = &closed.1 {
                        eprintln!("perfbench: closed loop connection {c}: {error}");
                    }
                    closed.0
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let mut closed = Closed {
        sent: Vec::new(),
        rtt_ms: Vec::new(),
        completions: Vec::new(),
    };
    for part in per_connection {
        closed.sent.extend(part.sent);
        closed.rtt_ms.extend(part.rtt_ms);
        closed.completions.extend(part.completions);
    }
    Ok(closed)
}

/// One closed-loop connection; returns what it measured and how it ended.
fn drive_closed(
    link: &mut Connection,
    next: &(dyn Fn() -> Option<Request> + Sync),
    depth: usize,
    deadline: Instant,
) -> (Closed, Result<(), String>) {
    let mut closed = Closed {
        sent: Vec::new(),
        rtt_ms: Vec::new(),
        completions: Vec::new(),
    };
    let mut in_flight: VecDeque<(Request, Instant)> = VecDeque::with_capacity(depth);
    let mut outcome = Ok(());
    loop {
        while in_flight.len() < depth && Instant::now() < deadline {
            let Some(request) = next() else { break };
            let sent = Instant::now();
            if let Err(error) = link.send(&request.raw) {
                closed.sent.push((request, None));
                outcome = Err(error);
                break;
            }
            in_flight.push_back((request, sent));
        }
        if outcome.is_err() {
            break;
        }
        let Some((request, sent)) = in_flight.pop_front() else {
            break;
        };
        match link.recv() {
            Ok(reply) => {
                let done = Instant::now();
                closed.rtt_ms.push((done - sent).as_secs_f64() * 1e3);
                closed.completions.push((done, request.blocks));
                closed.sent.push((request, Some(reply)));
            }
            Err(error) => {
                closed.sent.push((request, None));
                outcome = Err(error);
                break;
            }
        }
    }
    closed
        .sent
        .extend(in_flight.into_iter().map(|(request, _)| (request, None)));
    (closed, outcome)
}

/// Sends every request in `requests` once over one connection, in order,
/// each after the previous answer.
pub fn each_once(addr: &str, requests: &[Request]) -> Result<Closed, String> {
    let cursor = AtomicUsize::new(0);
    let next = || {
        requests
            .get(cursor.fetch_add(1, Ordering::Relaxed))
            .cloned()
    };
    closed_loop(addr, &next, 1, 1, Duration::from_secs(60))
}

/// What an open-loop phase measured.
#[derive(Debug)]
pub struct Open {
    pub answers: Vec<Answer>,
    /// Per answered request: its scheduled send (seconds into the phase)
    /// and its latency from then to the complete response, in ms.
    pub latency_ms: Vec<(f64, f64)>,
    /// Per sent request: its scheduled send and how late it went out (actual
    /// − scheduled send, in ms).
    pub late_ms: Vec<(f64, f64)>,
    /// Span of the schedule, in seconds.
    pub schedule_s: f64,
    /// The schedule's time zero.
    pub start: Instant,
}

/// Poisson arrival offsets at `rate` per second over `duration`.
fn poisson_schedule(rng: &mut StdRng, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut at = 0.0;
    let mut offsets = Vec::new();
    loop {
        let uniform: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        at += -uniform.ln() / rate;
        if at >= duration.as_secs_f64() {
            return offsets;
        }
        offsets.push(Duration::from_secs_f64(at));
    }
}

/// Sends requests on a seeded Poisson schedule of `rate` requests/s in
/// total, split evenly over `connections`, for `duration`. Connection `c`
/// sends its `k`-th scheduled request as request `c + k * C`; the schedule
/// must not need more requests than `requests` holds.
pub fn open_loop(
    addr: &str,
    requests: &[Request],
    connections: usize,
    rate: f64,
    duration: Duration,
    seed: u64,
) -> Result<Open, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let schedules: Vec<Vec<Duration>> = (0..connections)
        .map(|_| poisson_schedule(&mut rng, rate / connections as f64, duration))
        .collect();
    let needed = schedules
        .iter()
        .enumerate()
        .map(|(c, schedule)| c + schedule.len().saturating_sub(1) * connections + 1)
        .max()
        .unwrap_or(0);
    if needed > requests.len() {
        return Err(format!(
            "the open-loop schedule needs {needed} requests but only {} were generated",
            requests.len()
        ));
    }
    let mut links: Vec<Connection> = (0..connections)
        .map(|_| Connection::open(addr))
        .collect::<Result<_, _>>()?;
    // Start a little ahead so every thread is waiting before the first send.
    let start = Instant::now() + Duration::from_millis(20);
    type Measured = (Vec<Answer>, Vec<(f64, f64)>, Vec<(f64, f64)>);
    let per_connection: Vec<Measured> = std::thread::scope(|scope| {
        let handles: Vec<_> = links
            .iter_mut()
            .zip(&schedules)
            .enumerate()
            .map(|(c, (link, schedule))| {
                scope.spawn(move || {
                    let index = |k: usize| c + k * connections;
                    let result = drive_open(link, requests, schedule, &index, start);
                    if let Err(error) = &result.3 {
                        eprintln!("perfbench: open loop connection {c}: {error}");
                    }
                    (result.0, result.1, result.2)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("open-loop thread panicked"))
            .collect()
    });
    let mut open = Open {
        answers: Vec::new(),
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        schedule_s: duration.as_secs_f64(),
        start,
    };
    for (answers, latency, late) in per_connection {
        open.answers.extend(answers);
        open.latency_ms.extend(latency);
        open.late_ms.extend(late);
    }
    open.answers.sort_by_key(|(index, _)| *index);
    Ok(open)
}

/// One open-loop connection: send on schedule, read in order in between.
/// Returns answers, latencies, lateness, and how the connection ended.
#[allow(clippy::type_complexity)]
fn drive_open(
    link: &mut Connection,
    requests: &[Request],
    schedule: &[Duration],
    index: &dyn Fn(usize) -> usize,
    start: Instant,
) -> (
    Vec<Answer>,
    Vec<(f64, f64)>,
    Vec<(f64, f64)>,
    Result<(), String>,
) {
    let n = schedule.len();
    let mut answers = Vec::with_capacity(n);
    let mut latency = Vec::with_capacity(n);
    let mut late = Vec::with_capacity(n);
    let (mut sent, mut received) = (0usize, 0usize);
    let mut outcome = Ok(());
    while received < n {
        let now = Instant::now();
        let due = schedule.get(sent).map(|offset| start + *offset);
        if let Some(due) = due.filter(|due| now >= *due) {
            if let Err(error) = link.send(&requests[index(sent)].raw) {
                outcome = Err(error);
                break;
            }
            late.push((
                schedule[sent].as_secs_f64(),
                (Instant::now() - due).as_secs_f64() * 1e3,
            ));
            sent += 1;
            continue;
        }
        match link.parse() {
            Ok(Some(reply)) => {
                let offset = schedule[received];
                let latency_ms = (Instant::now() - (start + offset)).as_secs_f64() * 1e3;
                latency.push((offset.as_secs_f64(), latency_ms));
                answers.push((index(received), Some(reply)));
                received += 1;
                continue;
            }
            Ok(None) => {}
            Err(error) => {
                outcome = Err(error);
                break;
            }
        }
        let wait = due.map_or(RESPONSE_TIMEOUT, |due| due - now);
        if received == sent {
            // Nothing outstanding: sleep until the next send is due.
            std::thread::sleep(wait);
        } else if wait >= MIN_WAIT {
            match link.fill(wait) {
                Ok(false) if due.is_none() => {
                    outcome = Err("timed out waiting for a response".to_string());
                    break;
                }
                Ok(_) => {}
                Err(error) => {
                    outcome = Err(error);
                    break;
                }
            }
        }
    }
    // Whatever the schedule still called for counts as unanswered.
    answers.extend((received..n).map(|k| (index(k), None)));
    (answers, latency, late, outcome)
}
