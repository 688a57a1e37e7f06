//! The sans-io server connection state machine.
//!
//! [`Connection::feed`] consumes arbitrary byte chunks (frames may arrive
//! split or coalesced), reassembles complete frames, and appends the
//! server's response bytes to an output buffer. Both the TCP connection
//! threads and the in-memory [`LoopbackDuplex`](crate::LoopbackDuplex)
//! drive this same machine, so every protocol decision is tested without
//! sockets.

use std::sync::{Arc, Mutex};

use unn_serve::Dispatcher;
use unn_wire::{
    decode_frame, encode_frame, encode_frame_checked, frame_bytes, frame_split, ErrorCode,
    ErrorFrame, Frame, Hello, HelloAck, ReplyBatch, WireError, ANY_EPOCH, WIRE_VERSION,
};

/// Server-side protocol configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerConfig {
    /// The index epoch this server's dispatcher snapshot was taken at;
    /// advertised in the handshake and checked against
    /// [`Hello::expected_epoch`].
    pub index_epoch: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    AwaitHello,
    Ready,
    Dead,
}

/// One server-side connection: a protocol stage, a reassembly buffer, and
/// a handle to the shared dispatcher.
pub struct Connection {
    dispatcher: Arc<Mutex<Dispatcher>>,
    cfg: ServerConfig,
    buf: Vec<u8>,
    stage: Stage,
}

impl Connection {
    /// A fresh connection awaiting its handshake.
    pub fn new(dispatcher: Arc<Mutex<Dispatcher>>, cfg: ServerConfig) -> Self {
        Self {
            dispatcher,
            cfg,
            buf: Vec::new(),
            stage: Stage::AwaitHello,
        }
    }

    /// True once a protocol violation has killed this connection; the
    /// transport should flush `out` and close.
    pub fn is_dead(&self) -> bool {
        self.stage == Stage::Dead
    }

    /// Consumes one chunk of stream bytes, appending any response bytes to
    /// `out`. Total: corrupt input kills the connection with a typed
    /// [`ErrorFrame`], never a panic.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<u8>) {
        if self.stage == Stage::Dead {
            return;
        }
        self.buf.extend_from_slice(bytes);
        loop {
            let (body, used) = match frame_split(&self.buf) {
                Ok(Some((body, used))) => (body.to_vec(), used),
                Ok(None) => return,
                Err(e) => {
                    // The frame boundary is lost; the stream cannot recover.
                    unn_observe::net_decode_error();
                    self.die(
                        out,
                        ErrorCode::Malformed,
                        0,
                        0,
                        &format!("unrecoverable length prefix: {e}"),
                    );
                    return;
                }
            };
            self.buf.drain(..used);
            unn_observe::net_frame_in(body.len() as u64);
            let frame = match decode_frame(&body) {
                Ok(frame) => frame,
                Err(e) => {
                    unn_observe::net_decode_error();
                    self.die(out, ErrorCode::Malformed, 0, 0, &format!("bad frame: {e}"));
                    return;
                }
            };
            self.handle(frame, out);
            if self.stage == Stage::Dead {
                return;
            }
        }
    }

    fn handle(&mut self, frame: Frame, out: &mut Vec<u8>) {
        match (self.stage, frame) {
            (Stage::AwaitHello, Frame::Hello(hello)) => self.handshake(hello, out),
            (Stage::Ready, Frame::RequestBatch(batch)) => {
                let replies = {
                    // A poisoned dispatcher lock only means another
                    // connection thread panicked mid-serve; the dispatcher's
                    // state is a well-formed snapshot, so heal and continue.
                    let mut d = self
                        .dispatcher
                        .lock()
                        .unwrap_or_else(|poison| poison.into_inner());
                    d.serve_with_deadline(&batch.requests, batch.budget_nanos)
                };
                emit(out, &Frame::ReplyBatch(ReplyBatch { replies }));
            }
            (Stage::AwaitHello, other) => {
                let what = frame_name(&other);
                self.die(
                    out,
                    ErrorCode::Malformed,
                    0,
                    0,
                    &format!("expected Hello, got {what}"),
                );
            }
            (Stage::Ready, other) => {
                let what = frame_name(&other);
                self.die(
                    out,
                    ErrorCode::Malformed,
                    0,
                    0,
                    &format!("unexpected {what} after handshake"),
                );
            }
            (Stage::Dead, _) => {}
        }
    }

    fn handshake(&mut self, hello: Hello, out: &mut Vec<u8>) {
        if hello.version != WIRE_VERSION {
            unn_observe::net_version_mismatch();
            self.die(
                out,
                ErrorCode::VersionMismatch,
                u64::from(WIRE_VERSION),
                u64::from(hello.version),
                "protocol version not supported",
            );
            return;
        }
        if hello.expected_epoch != ANY_EPOCH && hello.expected_epoch != self.cfg.index_epoch {
            self.die(
                out,
                ErrorCode::EpochMismatch,
                self.cfg.index_epoch,
                hello.expected_epoch,
                "index epoch not available",
            );
            return;
        }
        let (total_live, mc_rounds) = {
            let d = self
                .dispatcher
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            (d.total_live() as u64, d.mc_rounds() as u64)
        };
        emit(
            out,
            &Frame::HelloAck(HelloAck {
                version: WIRE_VERSION,
                index_epoch: self.cfg.index_epoch,
                total_live,
                mc_rounds,
            }),
        );
        self.stage = Stage::Ready;
    }

    fn die(&mut self, out: &mut Vec<u8>, code: ErrorCode, ours: u64, theirs: u64, detail: &str) {
        emit(
            out,
            &Frame::Error(ErrorFrame {
                code,
                ours,
                theirs,
                detail: detail.to_string(),
            }),
        );
        self.stage = Stage::Dead;
        self.buf.clear();
    }
}

/// Appends `frame` to `out`. A frame beyond the limits the peer's decoder
/// enforces is answered by an [`ErrorCode::TooLarge`] frame instead; the
/// connection stays up.
fn emit(out: &mut Vec<u8>, frame: &Frame) {
    let body = encode_frame_checked(frame).unwrap_or_else(|e| {
        let (ours, theirs) = match e {
            WireError::LengthOverflow { len, cap, .. } => (cap, len),
            _ => (0, 0),
        };
        encode_frame(&Frame::Error(ErrorFrame {
            code: ErrorCode::TooLarge,
            ours,
            theirs,
            detail: format!("reply not sent: {e}"),
        }))
    });
    unn_observe::net_frame_out(body.len() as u64);
    out.extend_from_slice(&frame_bytes(&body));
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello(_) => "Hello",
        Frame::HelloAck(_) => "HelloAck",
        Frame::RequestBatch(_) => "RequestBatch",
        Frame::ReplyBatch(_) => "ReplyBatch",
        Frame::Error(_) => "Error",
    }
}
