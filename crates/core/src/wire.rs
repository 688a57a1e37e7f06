//! Façade over the [`unn_wire`] binary protocol: the session frames the
//! serving tier speaks between [`NetClient`](crate::net::NetClient) and
//! [`NetServer`](crate::net::NetServer), their codecs and their limits.

pub use unn_wire::{
    decode_frame, decode_reply_body, decode_request_body, encode_frame, encode_frame_checked,
    encode_reply_body, encode_request_body, frame_bytes, frame_split, tag, ErrorCode, ErrorFrame,
    Frame, Hello, HelloAck, Reader, ReplyBatch, RequestBatch, WireError, Writer, ANY_EPOCH, MAGIC,
    MAX_FRAME_LEN, WIRE_VERSION,
};
