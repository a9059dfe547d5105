//! OS readiness notification for the verifier ingress
//! (`tlc_core::verify::remote`).
//!
//! A carrier front door holds hundreds of thousands of mostly-idle
//! peers, so the ingress loop in `tlc-core::verify::remote` blocks in
//! the kernel until some socket is actually ready. This module is the
//! thin, std-only syscall shim underneath it, and the only place that
//! knows how ready sockets are found:
//!
//! * [`Readiness`] — a safe registry/wait API over **epoll** on Linux
//!   (level-triggered, the semantics the buffer-pool deferral relies
//!   on) with a portable **poll(2)** fallback so macOS and CI-generic
//!   targets still build and run,
//! * [`bind_reuseport`] — a `SO_REUSEPORT` TCP listener factory, so N
//!   acceptor shards can bind the same address and let the kernel
//!   spread incoming connections across them, and
//!   [`try_bind_reuseport`], the probe the server uses to fall back to
//!   one std listener and one shard where the address cannot be shared.
//!
//! The backend is chosen by `cfg`: epoll on Linux, `poll(2)` on other
//! Unix, and an `Unsupported` error elsewhere.
//!
//! This is the **only** module outside `tlc-crypto` allowed to contain
//! `unsafe` (tlc-net's manifest denies `unsafe_code`): every block is a
//! raw libc call with a `// SAFETY:` audit, and nothing unsafe escapes
//! the safe API. No wall-clock time is read here — timeouts are caller
//! arguments passed straight to the kernel.
//!
//! On non-Unix targets every constructor returns
//! [`io::ErrorKind::Unsupported`], which the ingress server hands back
//! from `bind`.

use std::io;
use std::net::TcpListener;
#[cfg(unix)]
use std::net::{SocketAddr, SocketAddrV4};
#[cfg(unix)]
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

#[cfg(not(unix))]
/// Raw file descriptor stand-in so the API type-checks off Unix.
pub type RawFd = i32;

/// The descriptor to register `source` under.
#[cfg(unix)]
pub fn raw_fd(source: &impl AsRawFd) -> RawFd {
    source.as_raw_fd()
}

/// Stand-in off Unix, where no [`Readiness`] exists to register with.
#[cfg(not(unix))]
pub fn raw_fd<T>(_source: &T) -> RawFd {
    -1
}

/// Identifies a registered stream in [`Event`]s. The ingress uses the
/// connection id; [`Token::LISTENER`] marks the acceptor socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

impl Token {
    /// Conventional token for the shard's listener socket.
    pub const LISTENER: Token = Token(u64::MAX);
}

/// Which readiness classes a registration asks to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    /// Wake when the stream is readable (or the peer hung up — a read
    /// will then observe EOF/error, which is how the driver wants it).
    pub readable: bool,
    /// Wake when the stream accepts more bytes (outbox draining).
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of a healthy connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Neither direction: the registration stays parked (paused reads
    /// with an empty outbox). Level-triggered backends simply never
    /// report it until interest is restored with `modify`.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// One readiness notification out of [`Readiness::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the stream was registered with.
    pub token: Token,
    /// Bytes (or EOF) can be read without blocking.
    pub readable: bool,
    /// Bytes can be written without blocking.
    pub writable: bool,
    /// The peer closed or the socket errored; the stream should be
    /// driven to EOF and reaped.
    pub closed: bool,
}

/// Which kernel mechanism a [`Readiness`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadinessBackend {
    /// Linux `epoll`, level-triggered. O(ready) per wait.
    Epoll,
    /// Portable `poll(2)`. O(registered) per wait — the fallback, not
    /// the fast path.
    Poll,
}

impl ReadinessBackend {
    /// Stable name for logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            ReadinessBackend::Epoll => "epoll",
            ReadinessBackend::Poll => "poll",
        }
    }
}

// ---------------------------------------------------------------------
// Raw libc declarations. Everything the shim calls is listed here once,
// with the constants transcribed from the kernel/libc headers for the
// targets we gate on.
// ---------------------------------------------------------------------
#[cfg(unix)]
mod sys {
    #![allow(non_camel_case_types)]
    use std::os::raw::{c_int, c_short, c_void};

    #[cfg(target_os = "linux")]
    pub type nfds_t = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type nfds_t = std::os::raw::c_uint;

    #[repr(C)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    pub const AF_INET: c_int = 2;
    pub const SOCK_STREAM: c_int = 1;

    #[cfg(target_os = "linux")]
    pub const SOL_SOCKET: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const SO_REUSEADDR: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const SO_REUSEPORT: c_int = 15;
    #[cfg(not(target_os = "linux"))]
    pub const SOL_SOCKET: c_int = 0xffff;
    #[cfg(not(target_os = "linux"))]
    pub const SO_REUSEADDR: c_int = 0x0004;
    #[cfg(not(target_os = "linux"))]
    pub const SO_REUSEPORT: c_int = 0x0200;

    /// `struct sockaddr_in`, IPv4 only — all the sharded bind needs.
    /// Linux has no `sin_len`; the BSDs (macOS included) lead with it.
    #[cfg(target_os = "linux")]
    #[repr(C)]
    pub struct sockaddr_in {
        pub sin_family: u16,
        pub sin_port: u16, // big-endian
        pub sin_addr: u32, // big-endian
        pub sin_zero: [u8; 8],
    }
    #[cfg(not(target_os = "linux"))]
    #[repr(C)]
    pub struct sockaddr_in {
        pub sin_len: u8,
        pub sin_family: u8,
        pub sin_port: u16, // big-endian
        pub sin_addr: u32, // big-endian
        pub sin_zero: [u8; 8],
    }

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

#[cfg(target_os = "linux")]
mod sys_epoll {
    #![allow(non_camel_case_types)]
    use std::os::raw::c_int;

    /// Kernel `struct epoll_event`. Packed on x86-64 only — the one
    /// architecture whose kernel ABI declares it `__attribute__
    /// ((packed))`; everywhere else natural alignment matches.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// Events decoded per `wait` call; more ready sockets simply surface on
/// the next call (level-triggered semantics make that lossless).
const WAIT_BATCH: usize = 256;

#[cfg(target_os = "linux")]
struct EpollImp {
    /// The epoll instance fd, closed on drop.
    epfd: RawFd,
    /// Scratch buffer reused across waits.
    buf: Vec<sys_epoll::epoll_event>,
}

#[cfg(target_os = "linux")]
impl Drop for EpollImp {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from a successful `epoll_create1` and is
        // owned exclusively by this struct; closing it exactly once on
        // drop cannot double-close or touch another descriptor.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

#[cfg(unix)]
#[derive(Default)]
struct PollImp {
    /// Registered fds in registration order. Linear rebuild per wait —
    /// acceptable for the portable fallback.
    slots: Vec<(RawFd, Token, Interest)>,
}

enum Imp {
    #[cfg(target_os = "linux")]
    Epoll(EpollImp),
    #[cfg(unix)]
    Poll(PollImp),
    #[cfg(not(unix))]
    Unsupported,
}

/// A registry of non-blocking streams plus a blocking-with-timeout
/// `wait` that reports which are ready. Level-triggered on every
/// backend: a stream that stays readable keeps being reported, which
/// is what lets the ingress *defer* a read (buffer-pool exhaustion,
/// paused connection) by masking interest instead of buffering bytes.
pub struct Readiness {
    imp: Imp,
}

impl Readiness {
    /// Opens the platform's preferred backend: epoll on Linux, poll(2)
    /// elsewhere on Unix. Fails with [`io::ErrorKind::Unsupported`] on
    /// other targets.
    pub fn new() -> io::Result<Readiness> {
        #[cfg(target_os = "linux")]
        {
            Self::with_backend(ReadinessBackend::Epoll)
        }
        #[cfg(all(unix, not(target_os = "linux")))]
        {
            Self::with_backend(ReadinessBackend::Poll)
        }
        #[cfg(not(unix))]
        {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no readiness backend on this platform",
            ))
        }
    }

    /// Opens a specific backend (tests run both on Linux).
    pub fn with_backend(backend: ReadinessBackend) -> io::Result<Readiness> {
        match backend {
            ReadinessBackend::Epoll => {
                #[cfg(target_os = "linux")]
                {
                    let epfd = unsafe {
                        // SAFETY: epoll_create1 takes only a flags word and
                        // returns a fresh fd or -1; no pointers involved.
                        sys_epoll::epoll_create1(sys_epoll::EPOLL_CLOEXEC)
                    };
                    if epfd < 0 {
                        return Err(io::Error::last_os_error());
                    }
                    Ok(Readiness {
                        imp: Imp::Epoll(EpollImp {
                            epfd,
                            buf: vec![sys_epoll::epoll_event { events: 0, data: 0 }; WAIT_BATCH],
                        }),
                    })
                }
                #[cfg(not(target_os = "linux"))]
                {
                    Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "epoll is Linux-only",
                    ))
                }
            }
            ReadinessBackend::Poll => {
                #[cfg(unix)]
                {
                    Ok(Readiness {
                        imp: Imp::Poll(PollImp::default()),
                    })
                }
                #[cfg(not(unix))]
                {
                    Err(io::Error::new(
                        io::ErrorKind::Unsupported,
                        "poll(2) requires a Unix target",
                    ))
                }
            }
        }
    }

    /// Which mechanism this instance uses.
    pub fn backend(&self) -> ReadinessBackend {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => ReadinessBackend::Epoll,
            #[cfg(unix)]
            Imp::Poll(_) => ReadinessBackend::Poll,
            #[cfg(not(unix))]
            Imp::Unsupported => ReadinessBackend::Poll,
        }
    }

    #[cfg(target_os = "linux")]
    fn epoll_mask(interest: Interest) -> u32 {
        let mut ev = sys_epoll::EPOLLRDHUP;
        if interest.readable {
            ev |= sys_epoll::EPOLLIN;
        }
        if interest.writable {
            ev |= sys_epoll::EPOLLOUT;
        }
        ev
    }

    #[cfg(target_os = "linux")]
    fn epoll_ctl(
        &mut self,
        op: std::os::raw::c_int,
        fd: RawFd,
        ev: u32,
        data: u64,
    ) -> io::Result<()> {
        let Imp::Epoll(imp) = &mut self.imp else {
            return Err(io::Error::new(io::ErrorKind::Unsupported, "not epoll"));
        };
        let mut event = sys_epoll::epoll_event { events: ev, data };
        let rc = unsafe {
            // SAFETY: `event` is a live, properly laid out epoll_event for
            // the duration of the call; the kernel copies it before
            // returning. `epfd` is our owned epoll fd; `fd` validity is
            // the caller's contract (register/modify/deregister take fds
            // of streams the ingress still owns).
            sys_epoll::epoll_ctl(imp.epfd, op, fd, &mut event)
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Adds `fd` with the given token and interest. The stream must
    /// already be non-blocking and must stay alive until
    /// [`deregister`](Self::deregister) (or close, on epoll).
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => {
                let mask = Self::epoll_mask(interest);
                self.epoll_ctl(sys_epoll::EPOLL_CTL_ADD, fd, mask, token.0)
            }
            #[cfg(unix)]
            Imp::Poll(imp) => {
                if imp.slots.iter().any(|(f, _, _)| *f == fd) {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                imp.slots.push((fd, token, interest));
                Ok(())
            }
            #[cfg(not(unix))]
            Imp::Unsupported => Err(io::Error::new(io::ErrorKind::Unsupported, "no backend")),
        }
    }

    /// Updates the interest (and token) of a registered fd.
    pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => {
                let mask = Self::epoll_mask(interest);
                self.epoll_ctl(sys_epoll::EPOLL_CTL_MOD, fd, mask, token.0)
            }
            #[cfg(unix)]
            Imp::Poll(imp) => {
                for slot in &mut imp.slots {
                    if slot.0 == fd {
                        slot.1 = token;
                        slot.2 = interest;
                        return Ok(());
                    }
                }
                Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
            }
            #[cfg(not(unix))]
            Imp::Unsupported => Err(io::Error::new(io::ErrorKind::Unsupported, "no backend")),
        }
    }

    /// Removes a registered fd. Call *before* dropping the stream: the
    /// poll fallback keeps its own table (a recycled fd number would
    /// alias), and doing the same on epoll keeps both backends honest.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => self.epoll_ctl(sys_epoll::EPOLL_CTL_DEL, fd, 0, 0),
            #[cfg(unix)]
            Imp::Poll(imp) => {
                let before = imp.slots.len();
                imp.slots.retain(|(f, _, _)| *f != fd);
                if imp.slots.len() == before {
                    return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
                }
                Ok(())
            }
            #[cfg(not(unix))]
            Imp::Unsupported => Err(io::Error::new(io::ErrorKind::Unsupported, "no backend")),
        }
    }

    /// Blocks up to `timeout_ms` (0 returns immediately; negative waits
    /// forever — the ingress never does) and appends ready events to
    /// `events` (cleared first). Returns the number of events.
    /// `EINTR` surfaces as zero events, like a timeout.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        events.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(imp) => {
                let rc = unsafe {
                    // SAFETY: `buf` is a live, exclusively borrowed slice of
                    // epoll_event with capacity `buf.len()`; the kernel
                    // writes at most `maxevents` entries into it and the
                    // return value bounds how many we read back.
                    sys_epoll::epoll_wait(
                        imp.epfd,
                        imp.buf.as_mut_ptr(),
                        imp.buf.len() as std::os::raw::c_int,
                        timeout_ms,
                    )
                };
                if rc < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(e);
                }
                for raw in imp.buf.iter().take(rc as usize) {
                    let bits = raw.events;
                    let closed = bits
                        & (sys_epoll::EPOLLHUP | sys_epoll::EPOLLERR | sys_epoll::EPOLLRDHUP)
                        != 0;
                    events.push(Event {
                        token: Token(raw.data),
                        // HUP/ERR imply "read will not block" (it will
                        // observe EOF or the error), which is how the
                        // driver learns about them.
                        readable: bits
                            & (sys_epoll::EPOLLIN | sys_epoll::EPOLLHUP | sys_epoll::EPOLLERR)
                            != 0,
                        writable: bits & sys_epoll::EPOLLOUT != 0,
                        closed,
                    });
                }
                Ok(events.len())
            }
            #[cfg(unix)]
            Imp::Poll(imp) => {
                if imp.slots.is_empty() {
                    if timeout_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
                    }
                    return Ok(0);
                }
                let mut fds: Vec<sys::pollfd> = imp
                    .slots
                    .iter()
                    .map(|(fd, _, interest)| {
                        let mut ev = 0;
                        if interest.readable {
                            ev |= sys::POLLIN;
                        }
                        if interest.writable {
                            ev |= sys::POLLOUT;
                        }
                        sys::pollfd {
                            fd: *fd,
                            events: ev,
                            revents: 0,
                        }
                    })
                    .collect();
                let rc = unsafe {
                    // SAFETY: `fds` is a live, exclusively borrowed array of
                    // `fds.len()` pollfd entries; poll(2) reads `events` and
                    // writes `revents` in place, never past the length we
                    // pass.
                    sys::poll(fds.as_mut_ptr(), fds.len() as sys::nfds_t, timeout_ms)
                };
                if rc < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(0);
                    }
                    return Err(e);
                }
                for (slot, raw) in imp.slots.iter().zip(fds.iter()) {
                    let bits = raw.revents;
                    if bits == 0 {
                        continue;
                    }
                    let closed = bits & (sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0;
                    events.push(Event {
                        token: slot.1,
                        readable: bits & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
                        writable: bits & sys::POLLOUT != 0,
                        closed,
                    });
                }
                Ok(events.len())
            }
            #[cfg(not(unix))]
            Imp::Unsupported => Err(io::Error::new(io::ErrorKind::Unsupported, "no backend")),
        }
    }
}

/// Binds a TCP listener with `SO_REUSEPORT` (and `SO_REUSEADDR`) set
/// *before* bind, so several acceptor shards can share one address and
/// the kernel load-balances incoming connections across them. IPv4
/// only — the sharded ingress binds concrete v4 addresses; anything
/// else falls back to a single std listener at the call site. The
/// returned listener is already non-blocking.
#[cfg(unix)]
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
    let v4: SocketAddrV4 = match addr {
        SocketAddr::V4(v4) => v4,
        SocketAddr::V6(_) => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "reuseport shim is IPv4-only",
            ))
        }
    };
    let fd = unsafe {
        // SAFETY: socket() takes three plain ints and returns an fd or -1.
        sys::socket(sys::AF_INET, sys::SOCK_STREAM, 0)
    };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // From here every error path must close `fd`; wrap it immediately
    // so drop handles that.
    let owned = unsafe {
        // SAFETY: `fd` is a fresh, valid socket owned by nobody else;
        // OwnedFd takes sole ownership and closes it exactly once.
        std::os::fd::OwnedFd::from_raw_fd(fd)
    };

    let on: std::os::raw::c_int = 1;
    for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
        let rc = unsafe {
            // SAFETY: `on` outlives the call and the length passed is
            // exactly `size_of::<c_int>()`; setsockopt only reads it.
            sys::setsockopt(
                owned.as_raw_fd(),
                sys::SOL_SOCKET,
                opt,
                (&on as *const std::os::raw::c_int).cast(),
                std::mem::size_of::<std::os::raw::c_int>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
    }

    #[cfg(target_os = "linux")]
    let sa = sys::sockaddr_in {
        sin_family: sys::AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from_be_bytes(v4.ip().octets()).to_be(),
        sin_zero: [0; 8],
    };
    #[cfg(not(target_os = "linux"))]
    let sa = sys::sockaddr_in {
        sin_len: std::mem::size_of::<sys::sockaddr_in>() as u8,
        sin_family: sys::AF_INET as u8,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from_be_bytes(v4.ip().octets()).to_be(),
        sin_zero: [0; 8],
    };
    let rc = unsafe {
        // SAFETY: `sa` is a fully initialised sockaddr_in living across the
        // call, and the length passed is its exact size; bind only reads.
        sys::bind(
            owned.as_raw_fd(),
            (&sa as *const sys::sockaddr_in).cast(),
            std::mem::size_of::<sys::sockaddr_in>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let rc = unsafe {
        // SAFETY: plain int arguments on a socket we own.
        sys::listen(owned.as_raw_fd(), 1024)
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    let listener = unsafe {
        // SAFETY: ownership of the fd transfers from `owned` (forgotten via
        // into_raw_fd) to the TcpListener — exactly one owner at all times.
        TcpListener::from_raw_fd(std::os::fd::IntoRawFd::into_raw_fd(owned))
    };
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Stub for non-Unix targets.
#[cfg(not(unix))]
pub fn bind_reuseport(_addr: std::net::SocketAddr) -> io::Result<TcpListener> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "SO_REUSEPORT shim requires a Unix target",
    ))
}

/// Probes which listener mode the platform supports for an address:
/// `Some(listener)` when a reuseport socket could be bound (sharded
/// accept works), `None` when the caller should fall back to one std
/// listener and a single shard.
pub fn try_bind_reuseport(addr: std::net::SocketAddr) -> Option<TcpListener> {
    bind_reuseport(addr).ok()
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener as StdListener, TcpStream};

    fn backends() -> Vec<ReadinessBackend> {
        let mut v = vec![ReadinessBackend::Poll];
        if Readiness::with_backend(ReadinessBackend::Epoll).is_ok() {
            v.push(ReadinessBackend::Epoll);
        }
        v
    }

    #[test]
    fn readable_and_writable_events() {
        for backend in backends() {
            let listener = StdListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let mut r = Readiness::with_backend(backend).unwrap();
            r.register(server.as_raw_fd(), Token(7), Interest::READ)
                .unwrap();

            // Nothing to read yet: wait times out empty.
            let mut events = Vec::new();
            r.wait(&mut events, 10).unwrap();
            assert!(events.is_empty(), "{backend:?}: spurious event");

            client.write_all(b"ping").unwrap();
            // Give the loopback a few chances to deliver.
            let mut seen = false;
            for _ in 0..100 {
                r.wait(&mut events, 50).unwrap();
                if events.iter().any(|e| e.token == Token(7) && e.readable) {
                    seen = true;
                    break;
                }
            }
            assert!(seen, "{backend:?}: readable never reported");

            // Level-triggered: still readable until drained.
            r.wait(&mut events, 10).unwrap();
            assert!(
                events.iter().any(|e| e.token == Token(7) && e.readable),
                "{backend:?}: not level-triggered"
            );

            // Masking read interest silences it.
            r.modify(server.as_raw_fd(), Token(7), Interest::NONE)
                .unwrap();
            r.wait(&mut events, 10).unwrap();
            assert!(events.is_empty(), "{backend:?}: masked fd reported");

            // Writable interest on an idle socket fires immediately.
            r.modify(
                server.as_raw_fd(),
                Token(7),
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
            r.wait(&mut events, 50).unwrap();
            assert!(
                events.iter().any(|e| e.token == Token(7) && e.writable),
                "{backend:?}: writable never reported"
            );

            r.deregister(server.as_raw_fd()).unwrap();
            r.wait(&mut events, 10).unwrap();
            assert!(events.is_empty(), "{backend:?}: deregistered fd reported");
        }
    }

    #[test]
    fn hangup_reports_closed_or_readable() {
        for backend in backends() {
            let listener = StdListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let client = TcpStream::connect(addr).unwrap();
            let (mut server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let mut r = Readiness::with_backend(backend).unwrap();
            r.register(server.as_raw_fd(), Token(1), Interest::READ)
                .unwrap();
            drop(client);

            let mut events = Vec::new();
            let mut seen = false;
            for _ in 0..100 {
                r.wait(&mut events, 50).unwrap();
                if events
                    .iter()
                    .any(|e| e.token == Token(1) && (e.readable || e.closed))
                {
                    seen = true;
                    break;
                }
            }
            assert!(seen, "{backend:?}: hangup never surfaced");
            // And a read now observes EOF rather than blocking.
            let mut buf = [0u8; 8];
            assert_eq!(server.read(&mut buf).unwrap(), 0);
        }
    }

    #[test]
    fn reuseport_listeners_share_an_address() {
        let a = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = a.local_addr().unwrap();
        let b = bind_reuseport(addr).expect("second reuseport bind");
        assert_eq!(b.local_addr().unwrap().port(), addr.port());

        // Connections land on one of the two listeners.
        let mut delivered = 0;
        for _ in 0..8 {
            let _c = TcpStream::connect(addr).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(5));
            for l in [&a, &b] {
                if l.accept().is_ok() {
                    delivered += 1;
                }
            }
        }
        assert!(delivered >= 8, "accepted {delivered}/8");
    }
}
