//! The open-loop load generator.
//!
//! Each connection gets one thread and a fixed schedule of requests,
//! each due at a set offset from the phase start. A request is sent when
//! it falls due whether or not earlier ones were answered (pipelined,
//! in order), so a slow server faces a growing queue rather than a
//! politely slowing client. Latency is measured from the moment a request
//! was *due*, so a stall also charges every request queued behind it; how
//! late the generator itself sent is recorded separately.
//!
//! Connections stay open across phases. A thread sleeps in `ppoll` until
//! its next request is due or a response arrives, with the kernel's timer
//! slack set to 1 ns so wake-ups land on time.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cpm_reactor::{encode_request, Decoder, Framing, Msg, BINARY_PREAMBLE};

use crate::spans;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

fn wait_ready(fd: i32, want_write: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: one valid pollfd and timespec, both outliving the call.
    unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Req {
    /// When it falls due, ns after the phase start.
    pub due_ns: u64,
    /// The request payload (JSON, no newline).
    pub payload: String,
    /// The id the payload carries (and the response must echo).
    pub id: String,
    /// The exact expected response: text before and after the echoed
    /// id. `None` accepts any `"ok":true` response echoing the id.
    pub expect: Option<Arc<(String, String)>>,
    /// Caller-defined request class, for per-class latencies.
    pub class: u8,
}

/// A generator connection, kept open across phases.
pub struct Wire {
    addr: SocketAddr,
    framing: Framing,
    stream: Option<TcpStream>,
    dec: Decoder,
}

impl Wire {
    /// Dials `addr` and negotiates `framing`.
    pub fn connect(addr: SocketAddr, framing: Framing) -> Wire {
        let mut w = Wire {
            addr,
            framing,
            stream: None,
            dec: Decoder::with_framing(framing, 64 << 20),
        };
        w.redial();
        w
    }

    fn redial(&mut self) {
        self.dec = Decoder::with_framing(self.framing, 64 << 20);
        self.stream = TcpStream::connect(self.addr).ok().and_then(|mut s| {
            s.set_nodelay(true).ok()?;
            if self.framing == Framing::Binary {
                s.write_all(&[BINARY_PREAMBLE]).ok()?;
            }
            s.set_nonblocking(true).ok()?;
            Some(s)
        });
    }
}

/// What one connection observed in one phase.
#[derive(Clone, Debug, Default)]
pub struct ConnResult {
    /// `(class, due ns, ns from due to response)` per correct response.
    pub lat: Vec<(u8, u64, u64)>,
    /// ns from due to send, per sent request.
    pub late: Vec<u64>,
    /// Requests that failed, were answered wrongly, or got no answer.
    pub failed: u64,
    /// Requests still unanswered when the last one fell due.
    pub backlog_at_end: u64,
    /// First few failure descriptions.
    pub errors: Vec<String>,
}

impl ConnResult {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

fn check(req: &Req, resp: &str) -> Result<(), String> {
    let ok = match &req.expect {
        Some(exp) => {
            let (pre, post) = (&exp.0, &exp.1);
            resp.len() == pre.len() + req.id.len() + post.len()
                && resp.starts_with(pre.as_str())
                && resp[pre.len()..].starts_with(req.id.as_str())
                && resp.ends_with(post.as_str())
        }
        None => {
            resp.starts_with("{\"ok\":true") && resp.contains(&format!("\"id\":\"{}\"", req.id))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{}: unexpected response {}", req.id, clip(resp)))
    }
}

fn clip(s: &str) -> &str {
    let end = s.char_indices().nth(160).map_or(s.len(), |(i, _)| i);
    &s[..end]
}

/// Runs one connection's schedule, starting at `t0`. Gives up `grace`
/// after the last request fell due.
pub fn run_conn(wire: &mut Wire, reqs: &[Req], t0: Instant, grace: Duration) -> ConnResult {
    let mut res = ConnResult::default();
    // SAFETY: plain prctl on the calling thread.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if wire.stream.is_none() {
        wire.redial();
    }
    let Some(stream) = wire.stream.as_mut() else {
        for r in reqs {
            res.fail(format!("{}: cannot connect", r.id));
        }
        return res;
    };
    let fd = stream.as_raw_fd();
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0usize;
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut chunk = vec![0u8; 1 << 16];
    let last_due = reqs.last().map_or(0, |r| r.due_ns);
    let give_up = Duration::from_nanos(last_due) + grace;
    let mut backlog_recorded = false;
    let mut closed = false;
    loop {
        let now = t0.elapsed();
        let now_ns = now.as_nanos() as u64;
        while next < reqs.len() && reqs[next].due_ns <= now_ns {
            let r = &reqs[next];
            encode_request(wire.framing, &r.payload, &mut out);
            res.late.push(now_ns - r.due_ns);
            inflight.push_back(next);
            next += 1;
        }
        if next == reqs.len() && !backlog_recorded {
            res.backlog_at_end = inflight.len() as u64;
            backlog_recorded = true;
        }
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(0) => break,
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => wire.dec.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        let recv_ns = t0.elapsed().as_nanos() as u64;
        while let Some(msg) = wire.dec.next_msg() {
            let Some(idx) = inflight.pop_front() else {
                res.fail("response without a request".into());
                continue;
            };
            let r = &reqs[idx];
            match msg {
                Msg::Payload(s) => match check(r, &s) {
                    Ok(()) => res
                        .lat
                        .push((r.class, r.due_ns, recv_ns.saturating_sub(r.due_ns))),
                    Err(e) => res.fail(e),
                },
                other => res.fail(format!("{}: bad frame {other:?}", r.id)),
            }
        }
        if next == reqs.len() && inflight.is_empty() && out.is_empty() {
            break;
        }
        if closed || now > give_up {
            let lost = (reqs.len() - next) + inflight.len();
            for _ in 0..lost {
                res.fail(format!(
                    "no response (connection {})",
                    if closed { "closed" } else { "timed out" }
                ));
            }
            // The stream is out of step with its schedule: start afresh.
            wire.stream = None;
            break;
        }
        let until_due = if next < reqs.len() {
            Duration::from_nanos(reqs[next].due_ns.saturating_sub(now_ns))
        } else {
            Duration::from_millis(5)
        };
        if !until_due.is_zero() {
            wait_ready(fd, !out.is_empty(), until_due.min(Duration::from_millis(5)));
        }
    }
    res
}

/// Runs `plans[i]` on `wires[i]`, one thread per connection (pinned to
/// `cpu` when given), from a common start, and returns the
/// per-connection results.
pub fn run_phase(
    wires: &mut [Wire],
    plans: &[Vec<Req>],
    grace: Duration,
    cpu: Option<usize>,
) -> Vec<ConnResult> {
    let t0 = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|scope| {
        let threads: Vec<_> = wires
            .iter_mut()
            .zip(plans)
            .map(|(wire, reqs)| {
                scope.spawn(move || {
                    if let Some(cpu) = cpu {
                        crate::util::pin_to(cpu);
                    }
                    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
                    let _g = spans::span("gen.conn");
                    run_conn(wire, reqs, t0, grace)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join().unwrap_or_else(|_| {
                    let mut r = ConnResult::default();
                    r.fail("generator thread panicked".into());
                    r
                })
            })
            .collect()
    })
}

/// Keeps `depth` requests outstanding on `wire` for `seconds` after `t0`
/// (a closed loop with a window), taking the `i`-th request from
/// `make(i)`. Returns the result and the arrival time (ns after `t0`) of
/// every correct response.
pub fn saturate(
    wire: &mut Wire,
    make: &dyn Fn(usize) -> Req,
    depth: usize,
    t0: Instant,
    seconds: f64,
) -> (ConnResult, Vec<u64>) {
    let mut res = ConnResult::default();
    // SAFETY: plain prctl on the calling thread.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if wire.stream.is_none() {
        wire.redial();
    }
    let Some(stream) = wire.stream.as_mut() else {
        res.fail("cannot connect".into());
        return (res, Vec::new());
    };
    let fd = stream.as_raw_fd();
    let end = Duration::from_secs_f64(seconds);
    let mut inflight: VecDeque<Req> = VecDeque::new();
    let mut issued = 0usize;
    let mut arrivals = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = t0.elapsed();
        if now < end {
            while inflight.len() < depth {
                let r = make(issued);
                issued += 1;
                encode_request(wire.framing, &r.payload, &mut out);
                inflight.push_back(r);
            }
        }
        let mut broken = false;
        let mut pos = 0;
        while pos < out.len() {
            match stream.write(&out[pos..]) {
                Ok(0) => break,
                Ok(n) => pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    wait_ready(fd, true, Duration::from_millis(5))
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        out.clear();
        match stream.read(&mut chunk) {
            Ok(0) => broken = true,
            Ok(n) => wire.dec.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => broken = true,
        }
        let arrived = t0.elapsed().as_nanos() as u64;
        while let Some(msg) = wire.dec.next_msg() {
            let Some(r) = inflight.pop_front() else {
                res.fail("response without a request".into());
                continue;
            };
            match msg {
                Msg::Payload(s) => match check(&r, &s) {
                    Ok(()) => arrivals.push(arrived),
                    Err(e) => res.fail(e),
                },
                other => res.fail(format!("{}: bad frame {other:?}", r.id)),
            }
        }
        if broken || t0.elapsed() > end + Duration::from_secs(5) {
            for r in inflight.drain(..) {
                res.fail(format!("{}: no response", r.id));
            }
            wire.stream = None;
            break;
        }
        if t0.elapsed() >= end && inflight.is_empty() {
            break;
        }
        if inflight.len() >= depth || t0.elapsed() >= end {
            wait_ready(fd, false, Duration::from_millis(5));
        }
    }
    (res, arrivals)
}

/// Due times, in ns, of `rate` requests/s for `seconds`, from `offset_ns`.
pub fn schedule(rate: f64, seconds: f64, offset_ns: u64) -> Vec<u64> {
    let count = (rate * seconds).round().max(1.0) as u64;
    let gap = 1e9 / rate;
    (0..count)
        .map(|i| offset_ns + (i as f64 * gap) as u64)
        .collect()
}
