//! Load phases over loopback: closed loop (capacity, one connection and
//! one thread per lane) and open loop (latency at a fixed rate, one
//! connection per lane, all driven from one thread), every response
//! verified.

use crate::client::{wait_readable, Conn, Response};
use crate::workload::{get_wire, Expected, Kind, Request, Workload};
use arrayflex_serve::SimulateResponse;
use serde::{Deserialize, Value};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Interval between status polls of a running job.
pub const JOB_POLL: Duration = Duration::from_millis(5);

/// How long an open-loop lane waits for its last replies after its
/// schedule ends.
const IO_DEADLINE: Duration = Duration::from_secs(60);

/// What one lane observed in one phase.
#[derive(Debug, Default, Clone)]
pub struct LaneStats {
    pub attempted: u64,
    pub failed: u64,
    /// Failures whose response arrived but did not verify.
    pub mismatches: u64,
    /// Completion time of every verified operation, from phase start.
    pub completions_s: Vec<f64>,
    /// Open loop: due time to verified completion, per operation; closed
    /// loop: send to verified completion (submit to verified result for a
    /// job).
    pub latencies_us: Vec<f64>,
    /// Open loop: how late each operation was written against its due time.
    pub lateness_us: Vec<f64>,
    pub job_submit_ms: Vec<f64>,
    pub job_turnaround_ms: Vec<f64>,
    pub polls: u64,
    pub useful_polls: u64,
    pub first_error: Option<String>,
}

impl LaneStats {
    fn fail(&mut self, mismatch: bool, why: String) {
        self.failed += 1;
        if mismatch {
            self.mismatches += 1;
        }
        if self.first_error.is_none() {
            self.first_error = Some(why);
        }
    }

    pub fn merge(lanes: Vec<LaneStats>) -> LaneStats {
        let mut all = LaneStats::default();
        for lane in lanes {
            all.attempted += lane.attempted;
            all.failed += lane.failed;
            all.mismatches += lane.mismatches;
            all.completions_s.extend(lane.completions_s);
            all.latencies_us.extend(lane.latencies_us);
            all.lateness_us.extend(lane.lateness_us);
            all.job_submit_ms.extend(lane.job_submit_ms);
            all.job_turnaround_ms.extend(lane.job_turnaround_ms);
            all.polls += lane.polls;
            all.useful_polls += lane.useful_polls;
            if all.first_error.is_none() {
                all.first_error = lane.first_error;
            }
        }
        all
    }
}

/// Checks one final response against the request's expected outcome.
///
/// # Errors
///
/// A description of the mismatch.
pub fn verify(request: &Request, response: &Response) -> Result<(), String> {
    if response.status != 200 {
        return Err(format!(
            "{} answered {}: {}",
            request.kind.path(),
            response.status,
            String::from_utf8_lossy(&response.body[..response.body.len().min(200)])
        ));
    }
    match &request.expected {
        Expected::Bytes(expected) => {
            if response.body != **expected {
                return Err(format!(
                    "{} body differs from the direct library call ({} vs {} bytes)",
                    request.kind.path(),
                    response.body.len(),
                    expected.len()
                ));
            }
        }
        Expected::Simulate(expected) => {
            let text =
                std::str::from_utf8(&response.body).map_err(|_| "non-UTF-8 simulate body")?;
            let got: SimulateResponse = serde_json::from_str(text)
                .map_err(|e| format!("undecodable simulate body: {e}"))?;
            if !(got.cycles_match && got.functionally_correct) {
                return Err(format!("simulation failed its own cross-check: {got:?}"));
            }
            if got != *expected {
                return Err(format!(
                    "simulate fields differ from the direct call: {got:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Parses a job status document into `(id, status, completed)`.
fn job_status(response: &Response) -> Result<(String, String, u64), String> {
    let text = std::str::from_utf8(&response.body).map_err(|_| "non-UTF-8 job status")?;
    let value: Value = serde_json::from_str(text).map_err(|e| format!("job status: {e}"))?;
    match (value.get("id"), value.get("status"), value.get("completed")) {
        (Some(Value::Str(id)), Some(Value::Str(status)), Some(completed)) => {
            let completed =
                u64::from_value(completed).map_err(|e| format!("job status `completed`: {e}"))?;
            Ok((id.clone(), status.clone(), completed))
        }
        _ => Err(format!("unexpected job status document: {text}")),
    }
}

/// A lane's position in its operation stream, kept across phases.
pub struct Cursor {
    pub lane: usize,
    pub next: usize,
    /// Draw from the workload's job stream instead of its main stream.
    pub jobs: bool,
}

impl Cursor {
    fn take(&mut self, workload: &Workload) -> u32 {
        let ops = if self.jobs {
            &workload.job_lanes[self.lane]
        } else {
            &workload.lanes[self.lane]
        };
        let op = ops[self.next % ops.len()];
        self.next += 1;
        op
    }
}

fn job_path(id: &str) -> String {
    format!("/v1/jobs/{id}")
}

/// Runs one operation to completion on `conn` (closed loop).
fn run_closed_op(
    conn: &mut Conn,
    request: &Request,
    stats: &mut LaneStats,
) -> Result<(), (bool, String)> {
    let io = |e: std::io::Error| (false, format!("transport: {e}"));
    let submitted = Instant::now();
    conn.send(&request.wire).map_err(io)?;
    let first = conn.recv().map_err(io)?;
    if request.kind != Kind::Job {
        return verify(request, &first).map_err(|e| (true, e));
    }
    if first.status != 202 {
        return Err((true, format!("/v1/jobs answered {}", first.status)));
    }
    stats
        .job_submit_ms
        .push(submitted.elapsed().as_secs_f64() * 1e3);
    let (id, _, mut completed) = job_status(&first).map_err(|e| (true, e))?;
    loop {
        std::thread::sleep(JOB_POLL);
        conn.send(&get_wire(&job_path(&id))).map_err(io)?;
        let status = conn.recv().map_err(io)?;
        stats.polls += 1;
        let (_, state, done) = job_status(&status).map_err(|e| (true, e))?;
        if done != completed || state != "running" {
            stats.useful_polls += 1;
        }
        completed = done;
        match state.as_str() {
            "running" => continue,
            "completed" => break,
            other => return Err((true, format!("job {id} ended {other}"))),
        }
    }
    conn.send(&get_wire(&format!("/v1/jobs/{id}/result")))
        .map_err(io)?;
    let result = conn.recv().map_err(io)?;
    verify(request, &result).map_err(|e| (true, e))?;
    stats
        .job_turnaround_ms
        .push(submitted.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// Closed loop: the lane sends its next operation only after the previous
/// one completed, until `duration` has passed.
pub fn closed_lane(
    addr: SocketAddr,
    workload: &Workload,
    cursor: &mut Cursor,
    duration: Duration,
) -> LaneStats {
    let mut stats = LaneStats::default();
    let mut conn = match Conn::open(addr) {
        Ok(conn) => conn,
        Err(e) => {
            stats.attempted += 1;
            stats.fail(false, format!("connect: {e}"));
            return stats;
        }
    };
    let start = Instant::now();
    while start.elapsed() < duration {
        let request = &workload.pool[cursor.take(workload) as usize];
        stats.attempted += 1;
        let sent = Instant::now();
        match run_closed_op(&mut conn, request, &mut stats) {
            Ok(()) => {
                let done = start.elapsed().as_secs_f64();
                let latency = sent.elapsed().as_secs_f64() * 1e6;
                stats.completions_s.push(done);
                stats.latencies_us.push(latency);
            }
            Err((mismatch, why)) => {
                stats.fail(mismatch, why);
                if !mismatch {
                    // The connection is unusable: close it before opening
                    // its replacement, so the lane never holds two.
                    drop(conn);
                    conn = match Conn::open(addr) {
                        Ok(fresh) => fresh,
                        Err(_) => break,
                    };
                }
            }
        }
    }
    stats
}

/// Open loop on one thread: operation `j` is due at `start + j / rate` and
/// goes to lane `j % lanes`, where it is written at its due time whether
/// or not earlier replies arrived (HTTP/1.1 pipelining on the lane's one
/// connection). Latency runs from the due time, and `lateness_us` keeps
/// how late each write was. One thread drives every lane, so the
/// generator competes with the server for the cores with one thread
/// only. Job operations are not supported here: they run closed-loop
/// only.
pub fn open_loop(
    addr: SocketAddr,
    workload: &Workload,
    cursors: &mut [Cursor],
    start: Instant,
    duration: Duration,
    rate: f64,
) -> LaneStats {
    let mut stats = LaneStats::default();
    let lanes = cursors.len();
    let mut conns = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        match Conn::open(addr) {
            Ok(conn) => conns.push(conn),
            Err(e) => {
                stats.attempted += 1;
                stats.fail(false, format!("connect: {e}"));
                return stats;
            }
        }
    }
    let end = start + duration;
    let due_of = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    let mut j = 0usize;
    // Per lane, (pool index, due time) of every written request awaiting
    // its reply, oldest first.
    let mut in_flight: Vec<VecDeque<(u32, Instant)>> = vec![VecDeque::new(); lanes];
    let drain_deadline = end + IO_DEADLINE;
    loop {
        let now = Instant::now();
        let mut next_due = due_of(j);
        while next_due <= now && next_due < end {
            let lane = j % lanes;
            let index = cursors[lane].take(workload);
            let request = &workload.pool[index as usize];
            stats.attempted += 1;
            if request.kind == Kind::Job {
                stats.fail(false, "job operations run closed-loop only".into());
                return stats;
            }
            let written = conns[lane].send(&request.wire);
            stats
                .lateness_us
                .push(Instant::now().duration_since(next_due).as_secs_f64() * 1e6);
            if let Err(e) = written {
                stats.fail(false, format!("transport: {e}"));
                return stats;
            }
            in_flight[lane].push_back((index, next_due));
            j += 1;
            next_due = due_of(j);
        }
        for (lane, conn) in conns.iter_mut().enumerate() {
            loop {
                let response = match conn.poll(Duration::ZERO) {
                    Ok(Some(response)) => response,
                    Ok(None) => break,
                    Err(e) => {
                        let owed: usize = in_flight.iter().map(VecDeque::len).sum();
                        for _ in 0..owed.max(1) {
                            stats.fail(false, format!("transport: {e}"));
                        }
                        return stats;
                    }
                };
                let done = Instant::now();
                let Some((index, due)) = in_flight[lane].pop_front() else {
                    stats.fail(false, "response without a request".into());
                    return stats;
                };
                match verify(&workload.pool[index as usize], &response) {
                    Ok(()) => {
                        stats
                            .completions_s
                            .push(done.duration_since(start).as_secs_f64());
                        stats
                            .latencies_us
                            .push(done.duration_since(due).as_secs_f64() * 1e6);
                    }
                    Err(why) => stats.fail(true, why),
                }
            }
        }
        let sending = next_due < end;
        let owed: usize = in_flight.iter().map(VecDeque::len).sum();
        if !sending && owed == 0 {
            break;
        }
        let now = Instant::now();
        if now > drain_deadline {
            for _ in 0..owed {
                stats.fail(false, "no response within the drain deadline".into());
            }
            break;
        }
        let wake = if sending { next_due } else { drain_deadline };
        if let Err(e) = wait_readable(&conns, wake.saturating_duration_since(now)) {
            stats.fail(false, format!("transport: {e}"));
            return stats;
        }
    }
    stats
}

/// Runs `lane_fn` once per lane: lane 0 on the calling thread and every
/// other lane on one spawned thread, so the generator never runs more
/// threads than lanes. Returns the per-lane results and the most threads
/// the process had while they ran.
pub fn on_lanes<F>(cursors: &mut [Cursor], lane_fn: F) -> (Vec<LaneStats>, usize)
where
    F: Fn(&mut Cursor) -> LaneStats + Sync,
{
    let (first, rest) = cursors.split_first_mut().expect("at least one lane");
    // A joined thread can stay in the count for a moment while the kernel
    // reaps it: let the previous phase's lane threads go first.
    let reaped = Instant::now();
    while process_threads() > 1 && reaped.elapsed() < Duration::from_millis(10) {
        std::thread::sleep(Duration::from_micros(50));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .map(|cursor| scope.spawn(|| lane_fn(cursor)))
            .collect();
        let threads = process_threads();
        let mut results = vec![lane_fn(first)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("lane thread panicked")),
        );
        (results, threads)
    })
}

/// Threads of this process right now.
pub fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{self, Expected};
    use arrayflex_serve::conn::{Parsed, RecvBuffer, RequestParser};
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// Serves one connection, answering each request with `answer(body)`.
    fn fake_server(answer: impl Fn(&str) -> (u16, Vec<u8>) + Send + 'static) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buffer = RecvBuffer::new();
            let mut parser = RequestParser::new(1 << 20);
            let mut chunk = [0u8; 1 << 16];
            loop {
                match parser.next_request(&mut buffer) {
                    Parsed::Request(request) => {
                        let (status, body) = answer(std::str::from_utf8(&request.body).unwrap());
                        let head = format!(
                            "HTTP/1.1 {status} X\r\ncontent-length: {}\r\n\r\n",
                            body.len()
                        );
                        if stream
                            .write_all(head.as_bytes())
                            .and_then(|()| stream.write_all(&body))
                            .is_err()
                        {
                            return;
                        }
                    }
                    Parsed::NeedMore => match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buffer.extend(&chunk[..n]),
                    },
                    Parsed::Reject { .. } => return,
                }
            }
        });
        addr
    }

    fn expected_bytes(w: &Workload, body: &str) -> Vec<u8> {
        let request = w.pool.iter().find(|r| r.body == body).unwrap();
        match &request.expected {
            Expected::Bytes(bytes) => bytes.to_vec(),
            Expected::Simulate(_) => unreachable!("plan workload"),
        }
    }

    fn closed_run(
        w: &Arc<Workload>,
        answer: impl Fn(&str) -> (u16, Vec<u8>) + Send + 'static,
    ) -> LaneStats {
        let addr = fake_server(answer);
        let mut cursor = Cursor {
            lane: 0,
            next: 0,
            jobs: false,
        };
        closed_lane(addr, w, &mut cursor, Duration::from_millis(200))
    }

    use std::sync::Arc;

    #[test]
    fn corrupted_responses_count_as_failed_and_faithful_ones_do_not() {
        let w = Arc::new(workload::build("plan_zipf", 5, 1).unwrap());
        let faithful = Arc::clone(&w);
        let ok = closed_run(&w, move |body| (200, expected_bytes(&faithful, body)));
        assert!(ok.attempted > 0);
        assert_eq!((ok.failed, ok.mismatches), (0, 0), "{:?}", ok.first_error);

        let flipping = Arc::clone(&w);
        let bad = closed_run(&w, move |body| {
            let mut bytes = expected_bytes(&flipping, body);
            let middle = bytes.len() / 2;
            bytes[middle] ^= 1;
            (200, bytes)
        });
        assert!(bad.attempted > 0);
        assert_eq!(bad.failed, bad.attempted);
        assert_eq!(bad.mismatches, bad.attempted);

        let shedding = Arc::clone(&w);
        let shed = closed_run(&w, move |body| (503, expected_bytes(&shedding, body)));
        assert_eq!(shed.failed, shed.attempted);
    }

    #[test]
    fn the_open_loop_keeps_its_schedule_and_verifies_every_reply() {
        let w = Arc::new(workload::build("plan_zipf", 5, 1).unwrap());
        let faithful = Arc::clone(&w);
        let addr = fake_server(move |body| (200, expected_bytes(&faithful, body)));
        let mut cursors = [Cursor {
            lane: 0,
            next: 0,
            jobs: false,
        }];
        let stats = open_loop(
            addr,
            &w,
            &mut cursors,
            Instant::now(),
            Duration::from_millis(200),
            200.0,
        );
        // 200/s for 0.2 s: operations 0..40 are due, each verified once.
        assert_eq!(stats.attempted, 40);
        assert_eq!(
            (stats.failed, stats.mismatches),
            (0, 0),
            "{:?}",
            stats.first_error
        );
        assert_eq!(cursors[0].next, 40);
        assert_eq!(stats.latencies_us.len(), 40);
        assert_eq!(stats.lateness_us.len(), 40);
    }

    #[test]
    fn a_simulation_with_a_wrong_field_fails_verification() {
        let w = workload::build("simulate_mix", 5, 1).unwrap();
        let request = &w.pool[0];
        let Expected::Simulate(expected) = &request.expected else {
            panic!("simulate workload")
        };
        let good = serde_json::to_string(expected).unwrap().into_bytes();
        assert!(verify(
            request,
            &Response {
                status: 200,
                body: good
            }
        )
        .is_ok());
        let mut wrong = expected.clone();
        wrong.simulated_cycles += 1;
        let body = serde_json::to_string(&wrong).unwrap().into_bytes();
        assert!(verify(request, &Response { status: 200, body }).is_err());
    }
}
