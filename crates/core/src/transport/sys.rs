//! Raw-syscall shim for the Linux readiness facilities the TCP poller
//! needs: `epoll` and the TCP keepalive socket options.
//!
//! The build environment has no registry access, so — same pattern as the
//! `vendor/` stand-ins from PR 1 — this declares the handful of C symbols
//! directly instead of pulling in `libc`/`mio`. Everything here is a thin
//! `io::Result` wrapper over one syscall; all policy (interest tracking,
//! fairness, teardown) lives in [`super::tcp::poller`].
//!
//! Only compiled on Linux; on other targets `transport::tcp` falls back to
//! the legacy two-threads-per-connection pump backend.
#![cfg(target_os = "linux")]
#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readiness flags (kernel `EPOLL*` bit values).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the write half (half-close); lets the poller observe EOF
/// without waiting for a zero-byte read.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const SOL_SOCKET: i32 = 1;
const SO_KEEPALIVE: i32 = 9;
const IPPROTO_TCP: i32 = 6;
const TCP_KEEPIDLE: i32 = 4;
const TCP_KEEPINTVL: i32 = 5;
const TCP_KEEPCNT: i32 = 6;

/// Mirror of the kernel's `struct epoll_event`. The kernel declares it
/// packed on x86-64 (and only there) so the 64-bit `data` field sits at
/// offset 4.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token, returned verbatim with each event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const std::ffi::c_void, len: u32) -> i32;
    fn getsockopt(
        fd: i32,
        level: i32,
        name: i32,
        value: *mut std::ffi::c_void,
        len: *mut u32,
    ) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance. Closed on drop.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a new close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data: token };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Register `fd` with the given interest set and token.
    ///
    /// Registration is effective immediately, even against a concurrent
    /// [`Epoll::wait`] on another thread — the poller relies on this to
    /// avoid a wakeup pipe.
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replace the interest set for an already-registered `fd`.
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Remove `fd` from the interest set.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until readiness events arrive or `timeout` elapses; returns
    /// how many entries of `events` were filled. `None` blocks forever and
    /// a zero timeout only polls. `EINTR` is retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            // Round up so a positive timeout never busy-spins as 0ms.
            Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
        };
        loop {
            let n = unsafe {
                epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

fn set_opt_i32(fd: RawFd, level: i32, name: i32, value: i32) -> io::Result<()> {
    let len = std::mem::size_of::<i32>() as u32;
    cvt(unsafe { setsockopt(fd, level, name, (&value as *const i32).cast(), len) }).map(|_| ())
}

/// Enable TCP keepalive on `fd`, with the probe cadence derived from the
/// application heartbeat interval (kernel granularity is whole seconds, so
/// sub-second heartbeats round up to 1s probes).
pub fn set_keepalive(fd: RawFd, interval: Duration) -> io::Result<()> {
    let secs = i32::try_from(interval.as_secs().max(1)).unwrap_or(i32::MAX);
    set_opt_i32(fd, SOL_SOCKET, SO_KEEPALIVE, 1)?;
    set_opt_i32(fd, IPPROTO_TCP, TCP_KEEPIDLE, secs)?;
    set_opt_i32(fd, IPPROTO_TCP, TCP_KEEPINTVL, secs)?;
    set_opt_i32(fd, IPPROTO_TCP, TCP_KEEPCNT, 3)
}

/// Read back whether `SO_KEEPALIVE` is enabled on `fd` (used by tests).
pub fn keepalive_enabled(fd: RawFd) -> io::Result<bool> {
    let mut value: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    cvt(unsafe {
        getsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, (&mut value as *mut i32).cast(), &mut len)
    })?;
    Ok(value != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readable_after_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server.as_raw_fd(), EPOLLIN, 7).unwrap();

        // Nothing to read yet: a short wait times out empty.
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        let n = epoll.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);

        use std::io::Write;
        (&client).write_all(b"ping").unwrap();
        let n = epoll.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        epoll.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn keepalive_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        assert!(!keepalive_enabled(client.as_raw_fd()).unwrap());
        set_keepalive(client.as_raw_fd(), Duration::from_millis(200)).unwrap();
        assert!(keepalive_enabled(client.as_raw_fd()).unwrap());
    }
}
