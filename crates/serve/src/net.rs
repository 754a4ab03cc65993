//! Transport abstraction: one server speaks TCP or a Unix socket.
//!
//! Internal module — the public surface only ever sees `Conn` as an
//! opaque `Read + Write` stream handed to the per-connection worker.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// One accepted client connection.
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Bound each blocking read on this connection (`None`: no bound).
    pub(crate) fn set_read_timeout(&self, limit: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(limit),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(limit),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The bound accept socket. Non-blocking so the accept loop can poll the
/// drain flag between connections.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix {
        listener: UnixListener,
        /// Removed on drop so a restarted server can re-bind the path.
        path: PathBuf,
    },
}

impl Listener {
    pub(crate) fn bind_tcp(addr: &str) -> io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Listener::Tcp(listener))
    }

    #[cfg(unix)]
    pub(crate) fn bind_unix(path: &std::path::Path) -> io::Result<Listener> {
        use std::os::unix::fs::FileTypeExt;
        // A stale socket file from a crashed predecessor blocks the bind;
        // anything else at the path is not ours to delete.
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path)?,
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("{} exists and is not a socket", path.display()),
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(Listener::Unix {
            listener,
            path: path.to_path_buf(),
        })
    }

    /// The TCP address actually bound (None for Unix sockets). Lets
    /// callers bind port 0 and discover the ephemeral port.
    pub(crate) fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix { .. } => None,
        }
    }

    /// Human-readable endpoint description for the startup banner.
    pub(crate) fn endpoint(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<tcp>".to_string()),
            #[cfg(unix)]
            Listener::Unix { path, .. } => path.display().to_string(),
        }
    }

    /// Accept one pending connection; `Ok(None)` when none is waiting.
    /// The accepted stream is switched back to blocking mode (accepted
    /// sockets may inherit the listener's non-blocking flag on some
    /// platforms).
    pub(crate) fn accept_nonblocking(&self) -> io::Result<Option<Conn>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    // Frames are small request/response writes; Nagle +
                    // delayed ACK would add tens of ms per exchange.
                    stream.set_nodelay(true)?;
                    Ok(Some(Conn::Tcp(stream)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            #[cfg(unix)]
            Listener::Unix { listener, .. } => match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    Ok(Some(Conn::Unix(stream)))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}
