//! A blocking client for the synthesis service.

use std::io::{self, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use sortsynth_cache::KernelQuery;
use sortsynth_isa::Machine;

use crate::proto::{read_message, write_message, Request, Response};

/// One connection to a synthesis server. Requests are pipelined strictly:
/// each call writes one request frame and blocks for its response frame.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Caps how long a single response is awaited (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request and awaits its response.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_message(&mut self.stream, request)?;
        read_message::<Response>(&mut self.stream)?
            .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "server closed connection"))
    }

    /// Health check.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.request(&Request::Ping)
    }

    /// Synthesizes (or fetches) the kernel for `query` on the server's
    /// default route.
    pub fn synth(&mut self, query: KernelQuery, timeout_ms: Option<u64>) -> io::Result<Response> {
        self.synth_with(query, timeout_ms, None)
    }

    /// Synthesizes with an explicit route: a backend name (`astar`,
    /// `cegis`, …), `portfolio` to race, or `None` for the server default.
    pub fn synth_with(
        &mut self,
        query: KernelQuery,
        timeout_ms: Option<u64>,
        backend: Option<String>,
    ) -> io::Result<Response> {
        self.request(&Request::Synth {
            query,
            timeout_ms,
            backend,
        })
    }

    /// Checks a program's correctness.
    pub fn check(&mut self, machine: Machine, program: String) -> io::Result<Response> {
        self.request(&Request::Check { machine, program })
    }

    /// Requests static throughput analysis of a program.
    pub fn analyze(&mut self, machine: Machine, program: String) -> io::Result<Response> {
        self.request(&Request::Analyze { machine, program })
    }

    /// Fetches the server's Prometheus metrics exposition.
    pub fn metrics(&mut self) -> io::Result<Response> {
        self.request(&Request::Metrics)
    }

    /// Fetches the server's live counters and gauges.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request(&Request::Stats)
    }

    /// Attaches to the in-flight synthesis of `query` (admitted under
    /// `backend`, `None` for the default route). The server streams
    /// [`Response::Progress`] frames; read them with [`Client::next_frame`]
    /// until one has `finished = true` (or a non-progress response ends the
    /// stream), after which the connection is back in request/response.
    pub fn begin_watch(
        &mut self,
        query: KernelQuery,
        backend: Option<String>,
        wait_ms: Option<u64>,
    ) -> io::Result<()> {
        write_message(
            &mut self.stream,
            &Request::Watch {
                query,
                backend,
                wait_ms,
            },
        )
    }

    /// Reads the next frame of an in-progress watch stream.
    pub fn next_frame(&mut self) -> io::Result<Response> {
        read_message::<Response>(&mut self.stream)?
            .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "server closed connection"))
    }

    /// Convenience wrapper: attaches to `query`'s flight and collects every
    /// streamed [`sortsynth_obs::SearchProgress`] until the stream ends.
    /// Errors with the server's message if there is no matching flight.
    pub fn watch(
        &mut self,
        query: KernelQuery,
        backend: Option<String>,
        wait_ms: Option<u64>,
    ) -> io::Result<Vec<sortsynth_obs::SearchProgress>> {
        self.begin_watch(query, backend, wait_ms)?;
        let mut frames = Vec::new();
        loop {
            match self.next_frame()? {
                Response::Progress(frame) => {
                    let finished = frame.finished;
                    frames.push(frame);
                    if finished {
                        return Ok(frames);
                    }
                }
                Response::Error { message } => return Err(io::Error::other(message)),
                other => {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        format!("unexpected watch response: {other:?}"),
                    ))
                }
            }
        }
    }
}
