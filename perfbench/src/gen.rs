//! The open-loop load generator.
//!
//! Clients of an allocation server are independent users, so load is
//! open loop: arrival frames leave on a seeded Poisson schedule whether
//! or not earlier decisions have come back, and each request is timed
//! from its *intended* send time. A stall anywhere (server, socket or
//! generator) therefore shows up in the latency of every request queued
//! behind it instead of silently slowing the offered load.
//!
//! One connection, two threads: the calling thread sends, a second
//! thread receives. Both wait by yielding rather than sleeping or
//! blocking: on a virtual machine an idle CPU can take milliseconds to
//! wake, which would show up as latency that is neither the server's
//! nor the network's. The generator speaks `eirs_net::protocol` directly;
//! `eirs_net::client` pipelines without bound and cannot time requests
//! from their intended send time.

use eirs_net::protocol::{encode_frame, read_frame, read_magic, write_magic, Frame};
use eirs_queueing::Exponential;
use eirs_sim::{Arrival, ArrivalSource, PoissonStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Send gaps shorter than this are waited out by yielding, not sleeping.
const SPIN_BELOW: Duration = Duration::from_millis(2);

/// The two plain specs the generator alternates hot-swaps between.
pub const SWAP_SPECS: [&str; 2] = ["threshold:3", "curve:2+0.5i"];

/// What one open-loop phase sends: a pure function of its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Intended send offset of each arrival, ns from the phase start.
    pub offsets_ns: Vec<u64>,
    /// The arrival each frame carries (workload clock, class, size).
    pub arrivals: Vec<Arrival>,
    /// A `swap` control frame follows every `swap_every`-th arrival.
    pub swap_every: usize,
}

/// Builds the schedule for `rate` req/s over `duration_s` seconds. The
/// send times are a Poisson process seeded by `seed`; the payloads are
/// the model's Poisson stream (`k` servers per shard, `route_shards`
/// shards, load `rho` per shard, µ_I = µ_E = 1, λ_I = λ_E).
pub fn schedule(
    seed: u64,
    rate: f64,
    duration_s: f64,
    rho: f64,
    shards: usize,
    k: u32,
    swap_every: usize,
) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F5C_4ED0_1E00);
    let mut offsets_ns = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random();
        t += -(1.0f64 - u).ln() / rate;
        if t >= duration_s {
            break;
        }
        offsets_ns.push((t * 1e9) as u64);
    }
    let mut arrivals = model_stream(seed, rho, shards, k);
    let arrivals = (0..offsets_ns.len())
        .map(|_| arrivals.next_arrival().expect("Poisson streams never end"))
        .collect();
    Schedule {
        offsets_ns,
        arrivals,
        swap_every,
    }
}

/// The model's arrival stream: Poisson, exponential sizes, load `rho`
/// on each of `shards` clusters of `k` servers.
pub fn model_stream(seed: u64, rho: f64, shards: usize, k: u32) -> PoissonStream {
    // λ_I = λ_E = λ/2 and µ_I = µ_E = 1 give load λ/k per shard.
    let lambda = rho * k as f64 * shards as f64;
    PoissonStream::new(
        lambda / 2.0,
        lambda / 2.0,
        Box::new(Exponential::new(1.0)),
        Box::new(Exponential::new(1.0)),
        seed,
    )
}

/// One decision frame as received.
#[derive(Debug, Clone, Copy)]
pub struct Received {
    /// Receipt, ns from the phase start.
    pub at_ns: u64,
    /// Server-assigned sequence number (`u64::MAX` when shed).
    pub seq: u64,
    /// Policy generation that decided it.
    pub generation: u32,
    /// Whether the arrival was admitted.
    pub admitted: bool,
}

/// What the generator saw.
#[derive(Debug, Default)]
pub struct GenResult {
    /// Per request: its decision, if one came back.
    pub decisions: Vec<Option<Received>>,
    /// Requests that got more than one decision.
    pub duplicates: u64,
    /// Per request: actual minus intended send time, ns.
    pub lag_ns: Vec<u64>,
    /// `swap` control frames sent, with the number of arrivals sent
    /// before each.
    pub swaps_sent: Vec<(usize, &'static str)>,
    /// Control acknowledgements received.
    pub control_oks: u64,
    /// Error frames or decode failures seen by the receiver.
    pub errors: Vec<String>,
    /// CPU seconds used by the two generator threads.
    pub cpu_s: f64,
    /// The phase start on the trace clock, ns.
    pub t0_ns: u64,
}

impl GenResult {
    /// Latency of each request in µs from its intended send time; shed
    /// or missing requests are `+inf` (over any limit).
    pub fn latencies_us(&self, sched: &Schedule) -> Vec<f64> {
        self.decisions
            .iter()
            .zip(&sched.offsets_ns)
            .map(|(d, &due)| match d {
                Some(r) if r.admitted => r.at_ns.saturating_sub(due) as f64 / 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    /// Requests shed or never answered.
    pub fn failures(&self) -> u64 {
        self.decisions
            .iter()
            .filter(|d| !d.is_some_and(|r| r.admitted))
            .count() as u64
            + self.errors.len() as u64
    }
}

/// Completes the protocol handshake on a connected stream.
pub fn handshake(mut stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    let fail = |e: eirs_net::ProtocolError| std::io::Error::other(e.to_string());
    write_magic(&mut stream).map_err(fail)?;
    read_magic(&mut stream).map_err(fail)?;
    Ok(stream)
}

/// Runs one open-loop phase over an already handshaken connection and
/// closes it with `BYE`.
pub fn run(stream: TcpStream, sched: &Schedule) -> GenResult {
    let n = sched.offsets_ns.len();
    stream
        .set_nonblocking(true)
        .expect("make the connection non-blocking");
    let reader = stream
        .try_clone()
        .expect("clone the connection's read half");
    // Start a little ahead so the first frames are not already late.
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut out = GenResult::default();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(reader, n, t0));
        let cpu0 = crate::util::thread_cpu_s();
        let (lag_ns, swaps_sent) = send(stream, sched, t0);
        let send_cpu = crate::util::thread_cpu_s() - cpu0;
        let (decisions, duplicates, control_oks, errors, recv_cpu) =
            receiver.join().expect("receiver thread panicked");
        out = GenResult {
            decisions,
            duplicates,
            lag_ns,
            swaps_sent,
            control_oks,
            errors,
            cpu_s: send_cpu + recv_cpu,
            t0_ns: crate::trace::ns_of(t0),
        };
    });
    out
}

type Swaps = Vec<(usize, &'static str)>;

fn send(mut stream: TcpStream, sched: &Schedule, t0: Instant) -> (Vec<u64>, Swaps) {
    let n = sched.offsets_ns.len();
    let mut lag_ns = vec![0u64; n];
    let mut swaps = Vec::new();
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut i = 0;
    while i < n {
        let due = t0 + Duration::from_nanos(sched.offsets_ns[i]);
        let now = Instant::now();
        if now < due {
            // A sleeping thread on an idle virtual CPU can wake
            // milliseconds late, so only long gaps sleep; short ones
            // yield until due.
            if due - now > SPIN_BELOW {
                std::thread::sleep(due - now - SPIN_BELOW);
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        // Everything due by now goes out in one write.
        let now_ns = now.saturating_duration_since(t0).as_nanos() as u64;
        buf.clear();
        let first = i;
        while i < n && sched.offsets_ns[i] <= now_ns {
            let a = sched.arrivals[i];
            buf.extend_from_slice(&encode_frame(&Frame::Arrival {
                req_id: i as u64,
                class: a.class,
                time: a.time,
                size: a.size,
            }));
            i += 1;
            if sched.swap_every > 0 && i % sched.swap_every == 0 {
                let spec = SWAP_SPECS[(i / sched.swap_every) % 2];
                buf.extend_from_slice(&encode_frame(&Frame::Control(format!("swap {spec}"))));
                swaps.push((i, spec));
            }
        }
        let sent_ns = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
        for (j, lag) in lag_ns.iter_mut().enumerate().take(i).skip(first) {
            *lag = sent_ns.saturating_sub(sched.offsets_ns[j]);
        }
        if write_all(&mut stream, &buf).is_err() {
            break;
        }
    }
    let _ = write_all(&mut stream, &encode_frame(&Frame::Bye));
    (lag_ns, swaps)
}

/// `write_all` on a non-blocking socket, yielding while it is full.
fn write_all(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The read half of a non-blocking socket, yielding until data comes.
struct Polling(TcpStream);

impl Read for Polling {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.0.read(buf) {
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                r => return r,
            }
        }
    }
}

type ReceiverOut = (Vec<Option<Received>>, u64, u64, Vec<String>, f64);

fn receive(stream: TcpStream, n: usize, t0: Instant) -> ReceiverOut {
    let cpu0 = crate::util::thread_cpu_s();
    let mut r = BufReader::with_capacity(64 * 1024, Polling(stream));
    let mut decisions: Vec<Option<Received>> = vec![None; n];
    let (mut duplicates, mut oks) = (0u64, 0u64);
    let mut errors = Vec::new();
    loop {
        match read_frame(&mut r) {
            Ok(Some(Frame::Decision {
                req_id,
                seq,
                generation,
                admitted,
                ..
            })) => {
                let at_ns = Instant::now().saturating_duration_since(t0).as_nanos() as u64;
                match decisions.get_mut(req_id as usize) {
                    Some(slot @ None) => {
                        *slot = Some(Received {
                            at_ns,
                            seq,
                            generation,
                            admitted,
                        })
                    }
                    Some(Some(_)) => duplicates += 1,
                    None => errors.push(format!("decision for unknown request {req_id}")),
                }
            }
            Ok(Some(Frame::ControlOk(_))) => oks += 1,
            Ok(Some(Frame::Bye)) | Ok(None) => break,
            Ok(Some(Frame::Error(e))) => errors.push(e),
            Ok(Some(other)) => errors.push(format!("unexpected frame {other:?}")),
            Err(e) => {
                errors.push(e.to_string());
                break;
            }
        }
    }
    let cpu = crate::util::thread_cpu_s() - cpu0;
    (decisions, duplicates, oks, errors, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, 20_000.0, 0.05, 0.7, 8, 4, 100);
        let b = schedule(7, 20_000.0, 0.05, 0.7, 8, 4, 100);
        let c = schedule(8, 20_000.0, 0.05, 0.7, 8, 4, 100);
        assert_eq!(a, b);
        assert_ne!(a.offsets_ns, c.offsets_ns);
        assert_ne!(a.arrivals, c.arrivals);
        // About rate × duration arrivals, strictly increasing.
        assert!((800..1200).contains(&a.offsets_ns.len()));
        assert!(a.offsets_ns.windows(2).all(|w| w[0] < w[1]));
    }

    /// A stand-in server that answers every arrival at once, except that
    /// it stops reading for `pause` after the `after`-th arrival.
    fn stub_server(after: usize, pause: Duration) -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.set_nodelay(true).unwrap();
            read_magic(&mut s).unwrap();
            write_magic(&mut s).unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut n = 0;
            while let Ok(Some(f)) = read_frame(&mut r) {
                match f {
                    Frame::Arrival { req_id, .. } => {
                        n += 1;
                        if n == after {
                            std::thread::sleep(pause);
                        }
                        let d = Frame::Decision {
                            req_id,
                            seq: req_id,
                            shard: 0,
                            i: 0,
                            j: 0,
                            generation: 0,
                            alloc_inelastic: 0.0,
                            alloc_elastic: 0.0,
                            admitted: true,
                        };
                        s.write_all(&encode_frame(&d)).unwrap();
                    }
                    Frame::Bye => {
                        s.write_all(&encode_frame(&Frame::Bye)).unwrap();
                        break;
                    }
                    _ => {}
                }
            }
        });
        addr
    }

    #[test]
    fn a_receiver_stall_shows_in_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(60);
        let sched = schedule(3, 2_000.0, 0.3, 0.7, 8, 4, 0);
        let after = 200;
        let addr = stub_server(after, stall);
        let res = run(
            handshake(TcpStream::connect(addr).unwrap()).unwrap(),
            &sched,
        );
        let lat = res.latencies_us(&sched);
        assert!(lat.iter().all(|l| l.is_finite()), "every request answered");
        // The stall starts when arrival `after` is read. Every request
        // intended within the following 30 ms waited for the stall to
        // end, so its latency is at least the rest of the stall.
        let stall_start = sched.offsets_ns[after - 1];
        let stall_ns = stall.as_nanos() as u64;
        let behind: Vec<usize> = (after..sched.offsets_ns.len())
            .filter(|&i| sched.offsets_ns[i] < stall_start + stall_ns / 2)
            .collect();
        assert!(behind.len() >= 20, "the stall window holds requests");
        for &i in &behind {
            let rest_us = (stall_start + stall_ns - sched.offsets_ns[i]) as f64 / 1e3;
            assert!(
                lat[i] >= rest_us * 0.9,
                "request {i} latency {} µs hides a stall with {rest_us} µs left",
                lat[i]
            );
        }
        // Requests well before the stall were fast.
        let before = quantile_of(&lat[..after / 2], 0.5);
        assert!(before < 20_000.0, "pre-stall median {before} µs");
    }

    fn quantile_of(v: &[f64], q: f64) -> f64 {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        crate::util::quantile_sorted(&s, q)
    }
}
