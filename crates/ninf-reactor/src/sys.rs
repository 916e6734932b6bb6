//! Readiness polling over raw file descriptors: epoll on Linux, poll(2)
//! elsewhere on unix — via direct FFI declarations, no external crate. The
//! std runtime already links libc, so declaring the four syscall wrappers
//! `extern "C"` adds no dependency.
//!
//! The [`Poller`] API is the least common denominator of the two backends:
//! level-triggered readiness, one `u64` token per registered fd, explicit
//! interest in readable/writable. Level-triggering is deliberate — the
//! reactor can stop draining a connection mid-buffer (backpressure) and the
//! next wait still reports it readable.
//!
//! A wait takes a [`Duration`] and never ends early for want of resolution:
//! epoll waits to the nanosecond (`epoll_pwait2`); without it, and on the
//! poll(2) backend, the timeout is rounded *up* to whole milliseconds.

#![allow(clippy::upper_case_acronyms)]

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// `timeout` in whole milliseconds, rounded up.
fn ceil_ms(timeout: Duration) -> c_int {
    let ms = timeout.as_nanos().div_ceil(1_000_000);
    ms.min(c_int::MAX as u128) as c_int
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket buffer can accept bytes without blocking.
    pub writable: bool,
    /// Error or hangup — the owner should read to collect the error and
    /// tear the connection down.
    pub error: bool,
}

/// Interest set for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

#[cfg(target_os = "linux")]
mod backend {
    use super::*;
    use std::os::raw::c_long;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Matches the kernel ABI: packed on x86_64 (12 bytes).
    #[repr(C, packed)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// `epoll_pwait2` in the unified syscall table (Linux 5.11+); older C
    /// libraries have no wrapper for it.
    const SYS_EPOLL_PWAIT2: c_long = 441;
    const ENOSYS: i32 = 38;
    const EPERM: i32 = 1;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn syscall(number: c_long, ...) -> c_long;
        fn close(fd: c_int) -> c_int;
    }

    /// epoll-backed poller: O(ready) wakeups regardless of fd count — the
    /// property the C10k core depends on.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let buf = (0..1024)
                .map(|_| EpollEvent { events: 0, data: 0 })
                .collect();
            Ok(Poller { epfd, buf })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut events = EPOLLRDHUP;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            if unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: pre-2.6.9 kernels require a non-null event pointer for
            // DEL; harmless on modern kernels.
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Wait up to `timeout` and append ready events: `epoll_pwait2` to
        /// the nanosecond, or `epoll_wait` rounded up to whole milliseconds
        /// where that is absent (an old kernel, or a sandbox that filters
        /// it).
        pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let (buf, max) = (self.buf.as_mut_ptr(), self.buf.len() as c_int);
            // The kernel's `__kernel_timespec`: two 64-bit fields everywhere.
            let secs = timeout.as_secs().min(i64::MAX as u64) as i64;
            let ts = [secs, i64::from(timeout.subsec_nanos())];
            let n = loop {
                let (fd, n, ts) = (self.epfd as c_long, max as c_long, ts.as_ptr());
                let none = std::ptr::null::<u64>();
                // SAFETY: `buf` is a live allocation of `max` events, `ts`
                // outlives the call, and a null sigmask keeps the mask.
                let mut n = unsafe {
                    syscall(SYS_EPOLL_PWAIT2, fd, buf, n, ts, none, 0 as c_long) as c_int
                };
                let errno = io::Error::last_os_error().raw_os_error();
                if n < 0 && matches!(errno, Some(ENOSYS | EPERM)) {
                    // SAFETY: as above.
                    n = unsafe { epoll_wait(self.epfd, buf, max, ceil_ms(timeout)) };
                }
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                events.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is owned by this poller and closed exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    use super::*;
    use std::os::raw::{c_short, c_ulong};

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// poll(2)-backed fallback: O(n) per wait, portable to every unix.
    pub struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<u64>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn events_for(interest: Interest) -> c_short {
            let mut e = 0;
            if interest.readable {
                e |= POLLIN;
            }
            if interest.writable {
                e |= POLLOUT;
            }
            e
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.push(PollFd {
                fd,
                events: Self::events_for(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            match self.fds.iter().position(|p| p.fd == fd) {
                Some(i) => {
                    self.fds[i].events = Self::events_for(interest);
                    self.tokens[i] = token;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            match self.fds.iter().position(|p| p.fd == fd) {
                Some(i) => {
                    self.fds.swap_remove(i);
                    self.tokens.swap_remove(i);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        /// Wait up to `timeout`, rounded up to whole milliseconds, and
        /// append ready events.
        pub fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let timeout_ms = ceil_ms(timeout);
            let n = loop {
                // SAFETY: `fds` is a live slice of `fds.len()` pollfds.
                let n =
                    unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                if p.revents != 0 {
                    events.push(PollEvent {
                        token,
                        readable: p.revents & (POLLIN | POLLHUP) != 0,
                        writable: p.revents & POLLOUT != 0,
                        error: p.revents & (POLLERR | POLLHUP) != 0,
                    });
                }
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
compile_error!("ninf-reactor requires a unix host (epoll or poll)");

pub use backend::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_readable_when_bytes_arrive() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Duration::ZERO).unwrap();
        assert!(events.is_empty(), "no bytes yet");

        a.write_all(b"ping").unwrap();
        poller.wait(&mut events, Duration::from_secs(1)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut buf = [0u8; 8];
        let n = (&b).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn level_triggered_readability_persists_until_drained() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        a.write_all(b"xx").unwrap();

        for _ in 0..2 {
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_secs(1)).unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.readable),
                "undrained fd must stay readable (level-triggered)"
            );
        }
    }

    #[test]
    fn interest_modification_masks_events() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
        a.write_all(b"data").unwrap();

        // Drop read interest: pending bytes must no longer wake us.
        poller
            .modify(
                b.as_raw_fd(),
                3,
                Interest {
                    readable: false,
                    writable: false,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(50)).unwrap();
        assert!(events.iter().all(|e| !e.readable), "read interest removed");

        poller.modify(b.as_raw_fd(), 3, Interest::READ).unwrap();
        events.clear();
        poller.wait(&mut events, Duration::from_secs(1)).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
    }

    #[test]
    fn a_sub_millisecond_wait_is_not_cut_to_zero() {
        // Nothing is registered, so only the timeout ends each wait; a
        // wait truncated to whole milliseconds would return at once.
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        for us in [1, 300, 999] {
            let want = Duration::from_micros(us);
            let t0 = std::time::Instant::now();
            poller.wait(&mut events, want).unwrap();
            assert!(t0.elapsed() >= want, "a {us} µs wait ended early");
        }
        assert!(events.is_empty());
    }

    #[test]
    fn peer_close_reports_readable_eof() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_secs(1)).unwrap();
        let ev = events.iter().find(|e| e.token == 9).expect("hangup event");
        assert!(ev.readable, "EOF must surface as readable (read returns 0)");
    }
}
