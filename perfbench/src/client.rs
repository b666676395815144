//! A minimal keep-alive HTTP/1.1 client over one `TcpStream`: pipelined
//! writes, in-order response framing by `content-length`.

use std::ffi::{c_int, c_short, c_ulong, c_void};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connections the generator holds open right now, and the most it ever
/// held at once (checked against `nproc` at the end of a run).
static OPEN: AtomicUsize = AtomicUsize::new(0);
static PEAK_OPEN: AtomicUsize = AtomicUsize::new(0);

/// The most connections the generator held open at once.
pub fn peak_connections() -> usize {
    PEAK_OPEN.load(Ordering::SeqCst)
}

/// One framed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// An open connection with its receive buffer.
pub struct Conn {
    stream: TcpStream,
    /// Received bytes live in `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let open = OPEN.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK_OPEN.fetch_max(open, Ordering::SeqCst);
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    /// Writes all of `bytes`, waiting for the socket to drain when full.
    pub fn send(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket closed")),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !wait_ready(&self.stream, POLLOUT, IO_TIMEOUT)? {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "send stalled"));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Blocks until one whole response is buffered and returns it.
    pub fn recv(&mut self) -> io::Result<Response> {
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            if let Some(response) = self.poll(deadline.saturating_duration_since(Instant::now()))? {
                return Ok(response);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no response in time",
                ));
            }
        }
    }

    /// Returns a buffered response, or waits at most `wait` for bytes and
    /// returns `None` when no response completed.
    pub fn poll(&mut self, wait: Duration) -> io::Result<Option<Response>> {
        if let Some(response) = self.take_response()? {
            return Ok(Some(response));
        }
        if wait_ready(&self.stream, POLLIN, wait)? {
            self.fill()?;
        }
        self.take_response()
    }

    /// Reads what the socket holds into the buffer.
    fn fill(&mut self) -> io::Result<()> {
        loop {
            if self.end == self.buf.len() {
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                } else {
                    self.buf.resize(self.buf.len() * 2, 0);
                }
            }
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn take_response(&mut self) -> io::Result<Option<Response>> {
        match parse_response(&self.buf[self.start..self.end])? {
            Some((response, used)) => {
                self.start += used;
                if self.start == self.end {
                    self.start = 0;
                    self.end = 0;
                }
                Ok(Some(response))
            }
            None => Ok(None),
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        OPEN.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How long one send or receive may stall before the connection counts
/// as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits until `stream` is ready for `events` or `wait` passes.
fn wait_ready(stream: &TcpStream, events: c_short, wait: Duration) -> io::Result<bool> {
    wait_fds(
        &mut [PollFd {
            fd: stream.as_raw_fd(),
            events,
            revents: 0,
        }],
        wait,
    )
}

/// Waits until any of `conns` has bytes to read or `wait` passes.
///
/// # Errors
///
/// A failed `ppoll`.
pub fn wait_readable(conns: &[Conn], wait: Duration) -> io::Result<bool> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    wait_fds(&mut fds, wait)
}

/// Waits until one of `fds` is ready or `wait` passes. `ppoll` sleeps on
/// a high-resolution timer; socket timeouts and `poll` round to scheduler
/// ticks or milliseconds, which would make the open loop send late.
fn wait_fds(fds: &mut [PollFd], wait: Duration) -> io::Result<bool> {
    let timeout = Timespec {
        tv_sec: wait.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fds` points at `fds.len()` live, properly laid out `pollfd`
    // values and `timeout` at a live `timespec` for the duration of the
    // call; a null signal mask leaves the mask unchanged.
    let ready = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &timeout,
            std::ptr::null(),
        )
    };
    match ready {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response: {what}"),
    )
}

/// Frames one response off the front of `bytes`: the response and the
/// number of bytes it used, or `None` when more bytes are needed.
pub fn parse_response(bytes: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| malformed("status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| malformed("content-length"))?;
            }
        }
    }
    let body_start = head_end + 4;
    if bytes.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((
        Response {
            status,
            body: bytes[body_start..body_start + length].to_vec(),
        },
        body_start + length,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_frame_in_order_and_wait_for_whole_bodies() {
        let two = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n";
        let (first, used) = parse_response(two).unwrap().unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"ok"[..]));
        let (second, rest) = parse_response(&two[used..]).unwrap().unwrap();
        assert_eq!((second.status, rest), (503, two.len() - used));
        assert!(parse_response(&two[..used - 1]).unwrap().is_none());
    }
}
