//! Portable `poll(2)` backend: a registry of fds re-submitted to the
//! kernel on every wait. O(registered fds) per call where epoll is
//! O(ready fds) — fine as a fallback and as a conformance oracle for
//! the epoll backend, not meant for 10k-connection deployments.

#![allow(non_camel_case_types, reason = "C type names, spelled as in <poll.h>")]

use std::collections::BTreeMap;
use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;
use std::sync::Mutex;
use std::time::Duration;

use crate::{timeout_ms, Event, Interest};

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[repr(C)]
#[derive(Clone, Copy)]
struct pollfd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type nfds_t = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type nfds_t = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
}

/// A `poll(2)`-backed readiness queue.
pub struct PollPoller {
    registry: Mutex<BTreeMap<RawFd, (usize, Interest)>>,
}

impl PollPoller {
    /// Create an empty registry.
    pub fn new() -> io::Result<PollPoller> {
        Ok(PollPoller {
            registry: Mutex::new(BTreeMap::new()),
        })
    }

    /// Start watching `fd` under `token`.
    pub fn register(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut reg = self.registry.lock().unwrap();
        if reg.insert(fd, (token, interest)).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        Ok(())
    }

    /// Change the interest set (and/or token) of a registered fd.
    pub fn modify(&self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut reg = self.registry.lock().unwrap();
        match reg.get_mut(&fd) {
            Some(slot) => {
                *slot = (token, interest);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut reg = self.registry.lock().unwrap();
        match reg.remove(&fd) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Block until a registered fd is ready or `timeout` elapses
    /// (`None` = wait forever). Replaces the contents of `events`.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        // Snapshot the registry so other threads can (de)register while
        // this thread sleeps in the kernel.
        let (mut fds, tokens): (Vec<pollfd>, Vec<usize>) = {
            let reg = self.registry.lock().unwrap();
            reg.iter()
                .map(|(&fd, &(token, interest))| {
                    let mut ev = 0i16;
                    if interest.read {
                        ev |= POLLIN;
                    }
                    if interest.write {
                        ev |= POLLOUT;
                    }
                    (
                        pollfd {
                            fd,
                            events: ev,
                            revents: 0,
                        },
                        token,
                    )
                })
                .unzip()
        };
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, timeout_ms(timeout)) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0); // match the epoll backend's EINTR shape
            }
            return Err(err);
        }
        for (pfd, &token) in fds.iter().zip(&tokens) {
            let bits = pfd.revents;
            if bits == 0 || bits & POLLNVAL != 0 {
                // POLLNVAL: the fd was closed without deregistering —
                // skip the stale slot (the owner is mid-teardown).
                continue;
            }
            events.push(Event {
                token,
                readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: bits & (POLLOUT | POLLHUP | POLLERR) != 0,
                closed: bits & POLLHUP != 0,
            });
        }
        Ok(events.len())
    }
}
