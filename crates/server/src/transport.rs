//! Byte transports a connection runs over: TCP sockets in production, the
//! in-memory [`duplex`](crate::pipe::duplex) pipe in tests and chaos drills.
//!
//! The service needs exactly three things from a transport: blocking
//! [`Read`]/[`Write`], a bounded I/O timeout (the idle-reaping backstop), and
//! a [`Hangup`] handle another thread can use to kill the connection — the
//! teeth behind request deadlines and the drain deadline. Both directions of
//! a connection go through one `Shared` handle, so the frame reader and
//! frame sink can each own a clone while the underlying socket stays single.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A handle that can interrupt a blocked transport from another thread.
/// Hanging up is idempotent and infallible (best effort).
pub trait Hangup: Send + Sync {
    /// Kill the transport: blocked and future reads/writes fail promptly.
    fn hangup(&self);
}

/// A connection's byte stream, as the service consumes it.
pub trait Transport: Read + Write + Send {
    /// A handle that can kill this transport from another thread.
    fn hangup_handle(&self) -> Box<dyn Hangup>;

    /// Bound every blocking read/write by `timeout` (`None` = block forever).
    /// Timed-out operations fail with [`std::io::ErrorKind::WouldBlock`] or
    /// [`std::io::ErrorKind::TimedOut`].
    fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()>;
}

struct TcpHangup(TcpStream);

impl Hangup for TcpHangup {
    fn hangup(&self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// A hangup handle for transports that could not produce one (e.g. a failed
/// `try_clone`): hanging up does nothing, the idle timeout still reaps.
struct NoopHangup;

impl Hangup for NoopHangup {
    fn hangup(&self) {}
}

impl Transport for TcpStream {
    fn hangup_handle(&self) -> Box<dyn Hangup> {
        match self.try_clone() {
            Ok(clone) => Box::new(TcpHangup(clone)),
            Err(_) => Box::new(NoopHangup),
        }
    }

    fn set_io_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)?;
        self.set_write_timeout(timeout)
    }
}

/// Clonable [`Read`] + [`Write`] over one transport, so a
/// [`FrameReader`](f2_io::FrameReader) and a [`FrameSink`](f2_io::FrameSink)
/// can share it. Request/reply traffic is strictly sequential per connection,
/// so the mutex is uncontended; a poisoned lock (a panicked holder) degrades
/// to using the transport anyway — the connection is being torn down.
pub(crate) struct Shared<T: ?Sized>(Arc<Mutex<T>>);

impl<T> Shared<T> {
    pub(crate) fn new(transport: T) -> Self {
        Shared(Arc::new(Mutex::new(transport)))
    }
}

impl<T: ?Sized> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: Read + ?Sized> Read for Shared<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).read(buf)
    }
}

impl<T: Write + ?Sized> Write for Shared<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).flush()
    }
}
