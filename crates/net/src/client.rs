//! The serving client: connection reuse, reconnect, retry with backoff,
//! and cross-wire deadline accounting.

use std::sync::Arc;

use unn_observe::Clock;
use unn_serve::{Reply, Request, RetryPolicy};
use unn_wire::{
    decode_frame, encode_frame, encode_frame_checked, frame_bytes, ErrorCode, Frame, Hello,
    HelloAck, RequestBatch, WireError, ANY_EPOCH, WIRE_VERSION,
};

use crate::{Duplex, NetError};

/// Client tuning.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// The index epoch to demand in the handshake ([`ANY_EPOCH`] = accept
    /// whatever the server holds).
    pub expected_epoch: u64,
    /// Transport-level retry: each failed attempt burns one retry and
    /// charges its exponential backoff to the deadline budget — the same
    /// machinery the dispatcher uses shard-side.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            expected_epoch: ANY_EPOCH,
            retry: RetryPolicy::default(),
        }
    }
}

/// Always-on per-client transport totals (the observe-gated global
/// counters aggregate the same quantities process-wide).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Frames received.
    pub frames_in: u64,
    /// Frames sent.
    pub frames_out: u64,
    /// Body bytes received.
    pub bytes_in: u64,
    /// Body bytes sent.
    pub bytes_out: u64,
    /// Reconnects after the initial connection.
    pub reconnects: u64,
    /// Request attempts that failed and were retried.
    pub retried_attempts: u64,
}

type Connector = Box<dyn FnMut() -> Result<Box<dyn Duplex>, NetError> + Send>;

/// A serving client over any [`Duplex`] transport.
///
/// The connector closure is invoked lazily on first use and again after
/// any transport failure — connection reuse with reconnect. Every
/// connection is handshaken before queries flow.
pub struct NetClient {
    connector: Connector,
    conn: Option<Box<dyn Duplex>>,
    server: Option<HelloAck>,
    cfg: ClientConfig,
    clock: Arc<dyn Clock + Send + Sync>,
    stats: ClientStats,
    ever_connected: bool,
}

impl NetClient {
    /// A client that dials through `connector`.
    pub fn new(
        connector: impl FnMut() -> Result<Box<dyn Duplex>, NetError> + Send + 'static,
        cfg: ClientConfig,
        clock: Arc<dyn Clock + Send + Sync>,
    ) -> Self {
        Self {
            connector: Box::new(connector),
            conn: None,
            server: None,
            cfg,
            clock,
            stats: ClientStats::default(),
            ever_connected: false,
        }
    }

    /// The server's handshake acknowledgement, once connected.
    pub fn server_info(&self) -> Option<HelloAck> {
        self.server
    }

    /// Transport totals so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Ensures a handshaken connection exists, dialing if needed.
    pub fn connect(&mut self) -> Result<HelloAck, NetError> {
        if self.conn.is_some() {
            if let Some(ack) = self.server {
                return Ok(ack);
            }
        }
        if self.ever_connected {
            self.stats.reconnects += 1;
            unn_observe::net_reconnect();
        }
        let mut conn = (self.connector)()?;
        let ack = match handshake(&mut conn, &self.cfg, &mut self.stats) {
            Ok(ack) => ack,
            Err(e) => {
                self.server = None;
                return Err(e);
            }
        };
        self.ever_connected = true;
        self.conn = Some(conn);
        self.server = Some(ack);
        Ok(ack)
    }

    /// Serves one batch with no deadline budget.
    pub fn serve(&mut self, requests: &[Request]) -> Result<Vec<Reply>, NetError> {
        self.serve_within(requests, u64::MAX)
    }

    /// Serves one batch within a deadline budget of `budget_nanos`.
    ///
    /// Each attempt sends the budget *remaining* — elapsed clock time plus
    /// modeled retry backoff plus transport-injected delay already
    /// subtracted — so the server's admission ladder sees the deadline the
    /// client actually has left, and its degraded answers stay honest
    /// across the wire. Transport failures retry on a fresh connection per
    /// [`ClientConfig::retry`]; handshake rejections do not. A batch that
    /// encodes past the wire's limits fails with [`NetError::TooLarge`]
    /// before anything is sent, and leaves the connection as it was.
    pub fn serve_within(
        &mut self,
        requests: &[Request],
        budget_nanos: u64,
    ) -> Result<Vec<Reply>, NetError> {
        let t0 = self.clock.now_nanos();
        let mut modeled_nanos = 0u64;
        let mut last_err = NetError::ConnectionClosed;
        for attempt in 0..=self.cfg.retry.max_retries {
            if attempt > 0 {
                self.stats.retried_attempts += 1;
                modeled_nanos = modeled_nanos.saturating_add(self.cfg.retry.backoff_nanos(attempt));
            }
            let elapsed = self
                .clock
                .now_nanos()
                .saturating_sub(t0)
                .saturating_add(modeled_nanos);
            if budget_nanos != u64::MAX && elapsed >= budget_nanos {
                return Err(NetError::BudgetExhausted { budget_nanos });
            }
            let remaining = if budget_nanos == u64::MAX {
                u64::MAX
            } else {
                budget_nanos - elapsed
            };
            let batch = encode_frame_checked(&Frame::RequestBatch(RequestBatch {
                budget_nanos: remaining,
                requests: requests.to_vec(),
            }))
            .map_err(|e| match e {
                WireError::LengthOverflow { len, cap, .. } => NetError::TooLarge { len, cap },
                other => NetError::Wire(other),
            })?;
            match self.try_once(requests, &batch, &mut modeled_nanos) {
                Ok(replies) => return Ok(replies),
                Err(e) => {
                    // Any failed attempt invalidates the connection: the
                    // stream may hold half a frame, so reuse is unsafe.
                    self.conn = None;
                    self.server = None;
                    if !e.retryable() {
                        return Err(e);
                    }
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn try_once(
        &mut self,
        requests: &[Request],
        batch: &[u8],
        modeled_nanos: &mut u64,
    ) -> Result<Vec<Reply>, NetError> {
        self.connect()?;
        let Some(conn) = self.conn.as_mut() else {
            return Err(NetError::ConnectionClosed);
        };
        send_body(conn.as_mut(), batch, &mut self.stats)?;
        *modeled_nanos = modeled_nanos.saturating_add(conn.take_injected_nanos());
        let body = conn.read_frame()?;
        self.stats.frames_in += 1;
        self.stats.bytes_in += body.len() as u64;
        unn_observe::net_frame_in(body.len() as u64);
        match decode_frame(&body) {
            Ok(Frame::ReplyBatch(rb)) => {
                if rb.replies.len() != requests.len() {
                    return Err(NetError::Protocol {
                        what: format!(
                            "{} replies for {} requests",
                            rb.replies.len(),
                            requests.len()
                        ),
                    });
                }
                Ok(rb.replies)
            }
            Ok(Frame::Error(e)) => Err(NetError::Remote {
                code: e.code,
                detail: e.detail,
            }),
            Ok(other) => Err(NetError::Protocol {
                what: format!("unexpected {other:?} as reply"),
            }),
            Err(e) => {
                unn_observe::net_decode_error();
                Err(NetError::Wire(e))
            }
        }
    }
}

fn send_body(conn: &mut dyn Duplex, body: &[u8], stats: &mut ClientStats) -> Result<(), NetError> {
    stats.frames_out += 1;
    stats.bytes_out += body.len() as u64;
    unn_observe::net_frame_out(body.len() as u64);
    conn.write(&frame_bytes(body))
}

fn handshake(
    conn: &mut Box<dyn Duplex>,
    cfg: &ClientConfig,
    stats: &mut ClientStats,
) -> Result<HelloAck, NetError> {
    let hello = Frame::Hello(Hello {
        version: WIRE_VERSION,
        expected_epoch: cfg.expected_epoch,
    });
    send_body(conn.as_mut(), &encode_frame(&hello), stats)?;
    let body = conn.read_frame()?;
    stats.frames_in += 1;
    stats.bytes_in += body.len() as u64;
    unn_observe::net_frame_in(body.len() as u64);
    match decode_frame(&body) {
        Ok(Frame::HelloAck(ack)) => Ok(ack),
        Ok(Frame::Error(e)) => {
            if e.code == ErrorCode::VersionMismatch {
                unn_observe::net_version_mismatch();
            }
            Err(NetError::Handshake {
                code: e.code,
                ours: e.ours,
                theirs: e.theirs,
                detail: e.detail,
            })
        }
        Ok(other) => Err(NetError::Protocol {
            what: format!("unexpected {other:?} as handshake ack"),
        }),
        Err(e) => {
            unn_observe::net_decode_error();
            Err(NetError::Wire(e))
        }
    }
}
