//! The blocking connection layer: one line loop and one threaded
//! acceptor, shared by every blocking transport.
//!
//! * [`serve_lines`] is the request/response loop: read a line, skip it if
//!   blank, answer it through a closure, write the reply line, stop at
//!   EOF or after a closing reply. The threaded server, the stdio
//!   transport and the router front all run it; the event loop
//!   (`event_loop.rs`) mirrors its framing on nonblocking sockets.
//! * [`spawn_acceptor`] is the thread-per-connection accept loop: it sets
//!   the socket timeouts and nodelay, wraps both halves in a
//!   [`FaultyStream`] at the sites the caller names, and hands them to a
//!   per-connection handler on a thread of its own. The threaded server
//!   and the router front differ only in those sites and the handler.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::serve::faults::{FaultPlan, FaultSite, FaultyStream};

/// The longest request line either framing accepts, its newline
/// included. A longer line closes the connection dirty, with no reply:
/// [`serve_lines`] reads at most one byte past it, and the event loop
/// drops a connection whose read buffer grows past it. Replies are not
/// capped (a `max_batch` page can be larger).
pub(crate) const MAX_LINE_BYTES: usize = 4 << 20;

/// One response line plus whether the connection should close after it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The JSON response line (no trailing newline).
    pub text: String,
    /// True after a `bye` (or a shutdown refusal).
    pub close: bool,
}

/// Serves one blocking connection until EOF or a closing reply.
///
/// Framing is `BufRead::lines`: `\n` terminates a line, a trailing `\r`
/// before it is stripped, a final unterminated line is still answered,
/// and invalid UTF-8 is an I/O error. Blank lines get no reply. Each
/// reply is flushed before the next line is read, so replies come back in
/// request order and nothing after a closing reply is read. A line longer
/// than [`MAX_LINE_BYTES`] ends the connection as an I/O error would.
///
/// Returns true when an I/O error (on either half) or an over-long line
/// ended the connection rather than a clean EOF or closing reply.
pub(crate) fn serve_lines(
    mut reader: impl BufRead,
    mut writer: impl Write,
    mut answer: impl FnMut(&str) -> Reply,
) -> bool {
    loop {
        let mut buf = String::new();
        let cap = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(cap).read_line(&mut buf) {
            Ok(0) => return false,
            Ok(n) if n <= MAX_LINE_BYTES => {}
            _ => return true,
        }
        let line = buf.strip_suffix('\n');
        let line = line.map_or(&buf[..], |l| l.strip_suffix('\r').unwrap_or(l));
        if line.trim().is_empty() {
            continue;
        }
        let reply = answer(line);
        if writeln!(writer, "{}", reply.text)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return true;
        }
        if reply.close {
            return false;
        }
    }
}

/// Binds `addr` and spawns a thread-per-connection accept loop named
/// `{name}-accept`. Each accepted socket gets `timeouts` (read, write) —
/// a silent or non-draining peer then fails its next I/O call instead of
/// pinning its thread forever — and nodelay, and its two halves are
/// wrapped in [`FaultyStream`]s drawing from `sites` (read, write) of
/// `faults`. `handle` then runs on a detached `{name}-conn` thread; the
/// socket closes when it returns.
///
/// # Errors
/// Propagates the bind failure.
pub(crate) fn spawn_acceptor<H>(
    addr: &str,
    name: &str,
    timeouts: (Option<Duration>, Option<Duration>),
    faults: Option<Arc<FaultPlan>>,
    sites: (FaultSite, FaultSite),
    handle: H,
) -> std::io::Result<TcpServerHandle>
where
    H: Fn(BufReader<FaultyStream<&TcpStream>>, BufWriter<FaultyStream<&TcpStream>>)
        + Send
        + Sync
        + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let handle = Arc::new(handle);
    let conn_name = format!("{name}-conn");
    let accept = std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let handle = handle.clone();
                let faults = faults.clone();
                // Connection threads are detached: they exit at client
                // EOF / `bye`, and shutdown only needs to stop this loop.
                let _ = std::thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || {
                        // Best-effort: a socket racing into error here
                        // just dies on its first read.
                        let _ = stream.set_read_timeout(timeouts.0);
                        let _ = stream.set_write_timeout(timeouts.1);
                        // One full frame per write: Nagle + delayed ACK
                        // would otherwise stall small lines for tens of
                        // milliseconds.
                        let _ = stream.set_nodelay(true);
                        let (read_site, write_site) = sites;
                        handle(
                            BufReader::new(FaultyStream::with_sites(
                                &stream,
                                faults.clone(),
                                read_site,
                                write_site,
                            )),
                            BufWriter::new(FaultyStream::with_sites(
                                &stream, faults, read_site, write_site,
                            )),
                        );
                    });
            }
        })
        .expect("spawn accept thread");
    Ok(TcpServerHandle {
        addr: local,
        stop,
        waker: None,
        accept: Some(accept),
    })
}

/// A running TCP transport; dropping it (or calling
/// [`TcpServerHandle::shutdown`]) stops accepting new connections.
pub struct TcpServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Present on the event-loop transport: shutdown wakes the poller
    /// instead of self-connecting to unblock a blocking accept.
    waker: Option<Arc<lsc_reactor::Waker>>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl TcpServerHandle {
    /// Assembles the handle for the event-loop transport (the threaded
    /// acceptor builds its own in [`spawn_acceptor`]).
    pub(crate) fn for_event_loop(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        waker: Arc<lsc_reactor::Waker>,
        thread: std::thread::JoinHandle<()>,
    ) -> TcpServerHandle {
        TcpServerHandle {
            addr,
            stop,
            waker: Some(waker),
            accept: Some(thread),
        }
    }

    /// The bound address (use with `addr().port()` after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the transport and joins its thread. Threaded: existing
    /// connections keep draining on their own threads. Event loop: open
    /// connections are closed (their sessions drop; resume tokens keep
    /// working across a reconnect, as always).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        match &self.waker {
            // The event loop is parked in epoll_wait; the wake pipe pulls
            // it out without touching any socket.
            Some(waker) => waker.wake(),
            // Unblock the blocking accept call.
            // lsc-analyze: allow(unrouted-io) reason="wake-the-acceptor self-connect during shutdown; not a data path"
            None => drop(TcpStream::connect(self.addr)),
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Runs the loop over `input`, answering each line with its own text
    /// (closing after `bye`); returns (lines answered, bytes written,
    /// dirty).
    fn run(input: &[u8]) -> (Vec<String>, String, bool) {
        let mut seen = Vec::new();
        let mut out = Vec::new();
        let dirty = serve_lines(Cursor::new(input), &mut out, |line| {
            seen.push(line.to_string());
            Reply {
                text: format!("<{line}>"),
                close: line == "bye",
            }
        });
        (seen, String::from_utf8(out).unwrap(), dirty)
    }

    #[test]
    fn trailing_carriage_return_is_stripped() {
        let (seen, out, dirty) = run(b"a\r\nb\n");
        assert_eq!(seen, ["a", "b"]);
        assert_eq!(out, "<a>\n<b>\n");
        assert!(!dirty);
    }

    #[test]
    fn blank_lines_get_no_reply() {
        let (seen, out, dirty) = run(b"\n  \r\na\n\t\n");
        assert_eq!(seen, ["a"]);
        assert_eq!(out, "<a>\n");
        assert!(!dirty);
    }

    #[test]
    fn unterminated_final_line_is_answered_at_eof() {
        let (seen, out, dirty) = run(b"a\nb");
        assert_eq!(seen, ["a", "b"]);
        assert_eq!(out, "<a>\n<b>\n");
        assert!(!dirty);
    }

    #[test]
    fn nothing_after_a_closing_reply_is_read() {
        let (seen, out, dirty) = run(b"a\nbye\nc\n\xff\n");
        assert_eq!(seen, ["a", "bye"]);
        assert_eq!(out, "<a>\n<bye>\n");
        assert!(
            !dirty,
            "input after bye must not be read, bad bytes included"
        );
    }

    #[test]
    fn invalid_utf8_reports_the_connection_dirty() {
        let (seen, out, dirty) = run(b"a\n\xff\xfe\nb\n");
        assert_eq!(seen, ["a"]);
        assert_eq!(out, "<a>\n");
        assert!(dirty);
    }

    #[test]
    fn a_line_past_the_cap_closes_the_connection_without_a_reply() {
        let mut at_cap = vec![b'a'; MAX_LINE_BYTES - 1];
        at_cap.push(b'\n');
        let (seen, _, dirty) = run(&[b"x\n", at_cap.as_slice(), b"y\n"].concat());
        assert_eq!(seen.len(), 3, "a line of exactly the cap is served");
        assert!(!dirty);

        let over = vec![b'a'; MAX_LINE_BYTES + 1];
        for tail in [&b""[..], b"\n", b"\ny\n"] {
            let (seen, out, dirty) = run(&[b"x\n", over.as_slice(), tail].concat());
            assert_eq!(seen, ["x"]);
            assert_eq!(out, "<x>\n", "no reply for the over-long line");
            assert!(dirty);
        }
    }

    #[test]
    fn a_failing_writer_reports_the_connection_dirty() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut answered = 0;
        let dirty = serve_lines(Cursor::new(b"a\nb\n"), Broken, |_| {
            answered += 1;
            Reply {
                text: "x".to_string(),
                close: false,
            }
        });
        assert!(dirty);
        assert_eq!(answered, 1, "the loop must stop at the failed write");
    }
}
