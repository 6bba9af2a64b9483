//! The protocol client: the one place that frames requests and reads
//! replies for every client of `cfd serve` — `cfd client`, the perf
//! guard and the integration tests.
//!
//! Two framing rules live here so no caller can get them wrong:
//!
//! * a request goes out as **one write** of `line + "\n"` on a socket
//!   with `TCP_NODELAY` set. A request split into two writes (body,
//!   then newline) lets Nagle's algorithm hold the newline back until
//!   the server's delayed ACK fires, about 40 ms per round trip;
//! * a reply is told from a job event by its first key: replies lead
//!   with `"ok"`, events with `"event"` (DESIGN.md §12).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What one blocking read produced, with hangups and timeouts made
/// explicit so a caller can react instead of wedging.
#[derive(Debug, PartialEq, Eq)]
pub enum ClientRead {
    /// One line, trailing whitespace stripped.
    Line(String),
    /// The server closed the connection.
    Eof,
    /// No data arrived within the connection's I/O timeout.
    TimedOut,
}

/// One protocol connection. Writes go straight to the socket under the
/// read buffer, which they leave untouched.
pub struct Client {
    r: BufReader<TcpStream>,
}

impl Client {
    /// Connects with `TCP_NODELAY` set. `io_timeout`, when given, bounds
    /// every read and write on the connection.
    pub fn connect(addr: impl ToSocketAddrs, io_timeout: Option<Duration>) -> io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(io_timeout)?;
        s.set_write_timeout(io_timeout)?;
        Ok(Client {
            r: BufReader::new(s),
        })
    }

    /// Sends one request as a single write of `request + "\n"`.
    pub fn send<T: std::fmt::Display + ?Sized>(&mut self, request: &T) -> io::Result<()> {
        self.r
            .get_mut()
            .write_all(format!("{request}\n").as_bytes())
    }

    /// Reads one line.
    pub fn read(&mut self) -> io::Result<ClientRead> {
        let mut line = String::new();
        match self.r.read_line(&mut line) {
            Ok(0) => Ok(ClientRead::Eof),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(ClientRead::Line(line))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(ClientRead::TimedOut)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads up to the next reply, handing each job event line that
    /// arrives first to `on_event`. A hangup or timeout ends the wait
    /// early, as it does for [`read`](Client::read).
    pub fn reply(&mut self, mut on_event: impl FnMut(String)) -> io::Result<ClientRead> {
        loop {
            match self.read()? {
                ClientRead::Line(l) if !l.starts_with("{\"ok\"") => on_event(l),
                other => return Ok(other),
            }
        }
    }

    /// Half-closes the connection: the server sees EOF after the last
    /// request and keeps streaming events until its side is done.
    pub fn finish_sending(&self) -> io::Result<()> {
        self.r.get_ref().shutdown(Shutdown::Write)
    }
}
