//! A small blocking client over the wire protocol, with explicit
//! pipelining: `send` buffers requests locally, `flush` pushes them in
//! one write, `recv` reads responses back in FIFO order. The
//! convenience methods (`fire`, `start`, …) are send + flush + recv —
//! one round trip each — and are what the CLI uses; a pipelining caller
//! uses the split form to keep many requests in flight.

use crate::protocol::{
    self, Fault, Request, Response, WireError, WireOutcome, WireStats, WireStatus,
};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures: transport, framing, or a typed server fault.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server broke framing (or sent an unknown response kind).
    Wire(WireError),
    /// The server answered with a typed fault.
    Fault(Fault),
    /// The server closed the connection mid-response.
    Closed,
    /// The response kind does not match the request (server bug).
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Fault(fault) => write!(f, "server fault: {fault}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Unexpected(what) => write!(f, "unexpected response kind: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

/// A connection to a `ctr serve` endpoint.
pub struct Client {
    stream: TcpStream,
    /// Requests encoded but not yet written.
    tx: Vec<u8>,
    /// Bytes read; `rx[rx_at..]` are not yet decoded.
    rx: Vec<u8>,
    rx_at: usize,
    chunk: Vec<u8>,
    /// Payload scratch reused across `send` calls.
    scratch: Vec<u8>,
}

impl Client {
    /// Connects (TCP, `TCP_NODELAY`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            tx: Vec::new(),
            rx: Vec::new(),
            rx_at: 0,
            chunk: vec![0u8; 64 * 1024],
            scratch: Vec::new(),
        })
    }

    /// The underlying stream — for a caller that clones it to split
    /// sending and receiving across threads.
    pub fn raw_stream(&self) -> &TcpStream {
        &self.stream
    }

    // --- Pipelining primitives --------------------------------------------

    /// Buffers one request locally (nothing is written yet).
    pub fn send(&mut self, req: &Request) {
        self.scratch.clear();
        protocol::encode_request(req, &mut self.scratch);
        protocol::encode_frame(&self.scratch, &mut self.tx);
    }

    /// Writes every buffered request in one burst.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.tx.is_empty() {
            self.stream.write_all(&self.tx)?;
            self.tx.clear();
        }
        self.stream.flush()
    }

    /// Reads the next response (FIFO with respect to sent requests).
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some((consumed, payload)) = protocol::split_frame(&self.rx[self.rx_at..])? {
                let resp = protocol::decode_response(payload)?;
                self.rx_at += consumed;
                return Ok(resp);
            }
            // Compact once per socket read, not once per response: what
            // is left is at most the prefix of one frame.
            self.rx.drain(..self.rx_at);
            self.rx_at = 0;
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return Err(ClientError::Closed);
            }
            self.rx.extend_from_slice(&self.chunk[..n]);
        }
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req);
        self.flush()?;
        self.recv()
    }

    // --- One-round-trip conveniences --------------------------------------

    /// Deploys workflow source; returns the deployed name.
    pub fn deploy(&mut self, source: &str) -> Result<String, ClientError> {
        match self.round_trip(&Request::Deploy {
            source: source.to_owned(),
        })? {
            Response::Name(name) => Ok(name),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("deploy wants Name")),
        }
    }

    /// Starts an instance of `workflow`.
    pub fn start(&mut self, workflow: &str) -> Result<u64, ClientError> {
        match self.round_trip(&Request::Start {
            workflow: workflow.to_owned(),
        })? {
            Response::InstanceId(id) => Ok(id),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("start wants InstanceId")),
        }
    }

    /// Fires one event.
    pub fn fire(&mut self, instance: u64, event: &str) -> Result<WireStatus, ClientError> {
        match self.round_trip(&Request::Fire {
            instance,
            event: event.to_owned(),
        })? {
            Response::Status(status) => Ok(status),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("fire wants Status")),
        }
    }

    /// Fires an ordered batch on one instance.
    pub fn fire_batch(
        &mut self,
        instance: u64,
        events: &[String],
    ) -> Result<Vec<WireOutcome>, ClientError> {
        match self.round_trip(&Request::FireBatch {
            instance,
            events: events.to_vec(),
        })? {
            Response::Outcomes(outcomes) => Ok(outcomes),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("fire_batch wants Outcomes")),
        }
    }

    /// Fires a mixed `(instance, event)` batch.
    pub fn fire_many(&mut self, pairs: &[(u64, String)]) -> Result<Vec<WireOutcome>, ClientError> {
        match self.round_trip(&Request::FireMany {
            pairs: pairs.to_vec(),
        })? {
            Response::Outcomes(outcomes) => Ok(outcomes),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("fire_many wants Outcomes")),
        }
    }

    /// Observable eligible events of an instance.
    pub fn eligible(&mut self, instance: u64) -> Result<Vec<String>, ClientError> {
        match self.round_trip(&Request::Eligible { instance })? {
            Response::Names(names) => Ok(names),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("eligible wants Names")),
        }
    }

    /// A consistent fleet snapshot (the canonical text format).
    pub fn snapshot(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&Request::Snapshot)? {
            Response::Text(text) => Ok(text),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("snapshot wants Text")),
        }
    }

    /// Store / fleet counters.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("stats wants Stats")),
        }
    }

    /// Pending `(tick, due_ms)` timers of an instance, due order.
    pub fn timers(&mut self, instance: u64) -> Result<Vec<(String, u64)>, ClientError> {
        match self.round_trip(&Request::Timers { instance })? {
            Response::Timers(timers) => Ok(timers),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("timers wants Timers")),
        }
    }

    /// Advances the fleet clock to `to_ms`, firing every due timer;
    /// returns the `(instance, tick)` firings in order.
    pub fn advance(&mut self, to_ms: u64) -> Result<Vec<(u64, String)>, ClientError> {
        match self.round_trip(&Request::Advance { to_ms })? {
            Response::Fired(fired) => Ok(fired),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("advance wants Fired")),
        }
    }

    /// Cancels the pending timer guarding `event` on `instance`.
    pub fn cancel_timer(&mut self, instance: u64, event: &str) -> Result<(), ClientError> {
        match self.round_trip(&Request::CancelTimer {
            instance,
            event: event.to_owned(),
        })? {
            Response::Unit => Ok(()),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("cancel_timer wants Unit")),
        }
    }

    /// Asks the server to stop (acknowledged before it does).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Unit => Ok(()),
            Response::Error(fault) => Err(ClientError::Fault(fault)),
            _ => Err(ClientError::Unexpected("shutdown wants Unit")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// Responses arriving several to a read, with a frame torn across
    /// two reads, come back whole and in order: the receive cursor and
    /// the once-per-read compaction lose and duplicate nothing.
    #[test]
    fn recv_walks_a_read_of_many_frames_and_a_torn_one() {
        let responses: Vec<Response> = (0..40u64)
            .map(|i| match i % 3 {
                0 => Response::InstanceId(i),
                1 => Response::Name(format!("workflow_{i}")),
                _ => Response::Status(WireStatus::Running),
            })
            .collect();
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for resp in &responses {
            let mut payload = Vec::new();
            protocol::encode_response(resp, &mut payload);
            protocol::encode_frame(&payload, &mut bytes);
            ends.push(bytes.len());
        }
        // Tear inside frame 13's header and inside frame 29's payload.
        let cuts = [ends[12] + 3, ends[28] + protocol::FRAME_HEADER + 1];

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (go, wait) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut from = 0;
            for to in cuts.into_iter().chain([bytes.len()]) {
                stream.write_all(&bytes[from..to]).unwrap();
                stream.flush().unwrap();
                from = to;
                // The next piece leaves only once the client has used
                // up this one.
                let _ = wait.recv();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        for (i, want) in responses.iter().enumerate() {
            if i == 13 || i == 29 {
                go.send(()).unwrap();
            }
            assert_eq!(&client.recv().unwrap(), want, "response {i}");
        }
        assert_eq!(client.rx_at, client.rx.len(), "nothing left over");
        drop(go);
        server.join().unwrap();
        assert!(matches!(client.recv(), Err(ClientError::Closed)));
    }
}
