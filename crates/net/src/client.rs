//! A blocking, pipelined client for the NACU wire protocol.
//!
//! [`NetClient`] keeps many request ids in flight on one socket: call
//! [`NetClient::send`] repeatedly, then collect replies with
//! [`NetClient::recv`] — replies arrive in *completion* order, so match
//! them to requests by the echoed id, or use [`NetClient::call`] for the
//! simple one-in-one-out pattern.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use nacu::Function;
use nacu_fixed::Fx;

use crate::proto::{
    decode_reply, max_reply_payload, push_request, read_payload_into, DecodeError, ReadError,
    ReplyFrame,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed or the server hung up mid-frame.
    Read(ReadError),
    /// The server closed the connection at a frame boundary.
    Disconnected,
    /// The server sent bytes that do not decode as a reply.
    Malformed(DecodeError),
    /// Writing the request failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Read(e) => write!(f, "read failed: {e}"),
            Self::Disconnected => write!(f, "server closed the connection"),
            Self::Malformed(e) => write!(f, "malformed reply: {e}"),
            Self::Io(e) => write!(f, "write failed: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking pipelined connection to a [`crate::server::serve`] plane.
#[derive(Debug)]
pub struct NetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Reply payload buffer, reused across pipelined frames. The cursor
    /// is reset at every frame boundary by [`read_payload_into`], so a
    /// short read mid-frame can never leave a previous reply's bytes
    /// posing as the next frame's header or payload.
    recv_buf: Vec<u8>,
    /// Request frame bytes, reused across sends: each frame's header and
    /// codes are encoded straight from the caller's operands into it.
    send_buf: Vec<u8>,
    next_id: u64,
    max_reply_ops: u32,
}

impl NetClient {
    /// Connects to a serving plane.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            recv_buf: Vec::new(),
            send_buf: Vec::new(),
            next_id: 1,
            max_reply_ops: 1 << 20,
        })
    }

    /// Sends one request frame without waiting; returns the request id
    /// to match against [`ReplyFrame::id`]. `deadline_micros` of 0 means
    /// no deadline.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the write fails.
    pub fn send(
        &mut self,
        function: Function,
        operands: &[Fx],
        deadline_micros: u64,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let format = operands.first().map_or_else(
            || nacu_fixed::QFormat::new(4, 11).expect("paper format"),
            Fx::format,
        );
        self.send_buf.clear();
        push_request(
            &mut self.send_buf,
            function,
            format,
            id,
            deadline_micros,
            operands.iter().map(|fx| fx.raw() as i16),
        );
        self.writer
            .write_all(&self.send_buf)
            .map_err(ClientError::Io)?;
        Ok(id)
    }

    /// Blocks for the next reply frame, whichever request it answers.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] on a clean server hang-up,
    /// [`ClientError::Read`] / [`ClientError::Malformed`] otherwise.
    pub fn recv(&mut self) -> Result<ReplyFrame, ClientError> {
        read_payload_into(
            &mut self.reader,
            max_reply_payload(self.max_reply_ops),
            &mut self.recv_buf,
        )
        .map_err(ClientError::Read)?
        .ok_or(ClientError::Disconnected)?;
        decode_reply(&self.recv_buf).map_err(ClientError::Malformed)
    }

    /// Send + receive for unpipelined callers. The received reply is
    /// the next completion on the socket; with no other requests in
    /// flight it necessarily answers this call.
    ///
    /// # Errors
    ///
    /// As [`NetClient::send`] and [`NetClient::recv`].
    pub fn call(
        &mut self,
        function: Function,
        operands: &[Fx],
        deadline_micros: u64,
    ) -> Result<ReplyFrame, ClientError> {
        self.send(function, operands, deadline_micros)?;
        self.recv()
    }

    /// Sends raw pre-encoded bytes — the robustness tests' way of
    /// feeding the server garbage through a real socket.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the write fails.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.writer.write_all(bytes).map_err(ClientError::Io)
    }

    /// Half-closes the write side so the server sees a clean EOF while
    /// replies can still be read.
    pub fn finish_sending(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Write);
    }
}
