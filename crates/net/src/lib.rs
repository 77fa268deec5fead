//! `nacu-net` — the TCP wire protocol and admission-controlled network
//! serving plane for the NACU engine.
//!
//! Until this crate, the only way into the engine was an in-process
//! [`nacu_engine::EngineHandle::submit`] call. `nacu-net` puts the
//! serving stack on a socket, std-only like everything else:
//!
//! * [`proto`] — the length-prefixed binary batch protocol: one frame
//!   per request (magic, version, function id, Qm.f format tag,
//!   client request id, relative deadline, raw i16 codes), one frame
//!   per reply (status, detail code, echoed id, output codes). Typed
//!   encode/decode with exhaustive error variants; malformed bytes
//!   never panic.
//! * [`server`] — a TCP listener with per-connection pipelining (many
//!   in-flight ids per socket, replies in completion order) and layered
//!   admission control: per-client token-bucket quotas, deadline-based
//!   load shedding against the modeled hardware floor, the engine's
//!   exact `Busy` backpressure surfaced as a typed BUSY frame, and a
//!   bounded connection limit.
//! * [`client`] — a blocking pipelined client for examples, tests and
//!   the `net_loadgen` bench bin.
//!
//! Start a plane with [`ServeNet::serve_net`] on any engine handle; it
//! mirrors `serve_obs`. Every admission outcome lands in the engine's
//! `net_*` counters, so the `/metrics` scrape and CI exporters see the
//! network plane for free, and submit/reply flight-recorder spans carry
//! the connection id.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientError, NetClient};
pub use proto::{
    code, decode_reply, decode_request, encode_reply, encode_request, DecodeError, ReadError,
    ReplyFrame, RequestFrame, Status, MAGIC, VERSION,
};
pub use server::{serve, NetConfig, NetServer, Quota};

use nacu_engine::EngineHandle;

/// Extension trait putting `serve_net` on [`EngineHandle`], mirroring
/// `serve_obs`. (An inherent method is impossible: `nacu-net` depends
/// on the engine, not the other way around.)
pub trait ServeNet {
    /// Starts the network serving plane on `addr` with default tunables.
    ///
    /// # Errors
    ///
    /// As [`serve`]: the bind failure, `InvalidInput` for engine
    /// formats wider than the wire's 16-bit codes, or a thread-spawn
    /// failure.
    fn serve_net(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<NetServer>;

    /// As [`ServeNet::serve_net`] with explicit tunables.
    ///
    /// # Errors
    ///
    /// As [`ServeNet::serve_net`].
    fn serve_net_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<NetServer>;
}

impl ServeNet for EngineHandle {
    fn serve_net(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<NetServer> {
        serve(self, addr, NetConfig::default())
    }

    fn serve_net_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        serve(self, addr, config)
    }
}
