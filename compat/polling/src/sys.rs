//! Raw Linux syscall-wrapper declarations. No `libc` crate exists in
//! this offline workspace, but the symbols below live in the C runtime
//! (`glibc`/`musl`) that every Rust binary on Linux already links, so a
//! plain `extern "C"` block reaches them.

#![allow(
    non_camel_case_types,
    reason = "C type names, spelled as in <sys/epoll.h>"
)]

use std::ffi::{c_int, c_void};

pub const EPOLL_CLOEXEC: c_int = 0o2000000;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EFD_CLOEXEC: c_int = 0o2000000;
pub const EFD_NONBLOCK: c_int = 0o4000;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (so the
/// 64-bit `data` field sits at offset 4); other architectures use
/// natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn eventfd(initval: u32, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}
