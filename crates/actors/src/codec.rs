//! Length-delimited JSON framing over TCP.
//!
//! Each frame is a 4-byte big-endian length followed by a JSON-encoded
//! [`WireMsg`](crate::wire::WireMsg). Frames are capped to keep a
//! misbehaving peer from ballooning memory.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::panic_in_result_fn,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use bytes::{Buf, BufMut, BytesMut};
use tokio::io::{AsyncReadExt, AsyncWriteExt};

use crate::wire::WireMsg;

/// Upper bound on a single frame (control messages are tiny; this is
/// generous headroom).
pub const MAX_FRAME: usize = 1 << 20;

/// Errors from the codec.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// Peer sent an oversized frame.
    TooLarge(usize),
    /// Peer sent malformed JSON.
    Malformed(serde_json::Error),
    /// The connection closed.
    Closed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io: {e}"),
            CodecError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            CodecError::Malformed(e) => write!(f, "malformed frame: {e}"),
            CodecError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Encodes a message into a length-prefixed frame.
pub fn encode(msg: &WireMsg) -> BytesMut {
    #[expect(
        clippy::expect_used,
        reason = "encode side: a locally built WireMsg always serializes"
    )]
    let body = serde_json::to_vec(msg).expect("WireMsg serializes");
    let mut buf = BytesMut::with_capacity(4 + body.len());
    buf.put_u32(body.len() as u32);
    buf.put_slice(&body);
    buf
}

/// Writes one frame.
pub async fn write_frame<W: AsyncWriteExt + Unpin>(
    w: &mut W,
    msg: &WireMsg,
) -> Result<(), CodecError> {
    let buf = encode(msg);
    w.write_all(&buf).await?;
    Ok(())
}

/// Reads one frame.
pub async fn read_frame<R: AsyncReadExt + Unpin>(r: &mut R) -> Result<WireMsg, CodecError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf).await {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(CodecError::Closed),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).await?;
    serde_json::from_slice(&body).map_err(CodecError::Malformed)
}

/// Decodes a frame from a buffer (sans-io variant for tests).
pub fn decode_buf(buf: &mut BytesMut) -> Result<Option<WireMsg>, CodecError> {
    let Some(header) = buf.get(0..4) else {
        return Ok(None);
    };
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(header);
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::TooLarge(len));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let body = buf.split_to(len);
    serde_json::from_slice(&body)
        .map(Some)
        .map_err(CodecError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_addr::McastAddr;

    #[test]
    fn encode_decode_buffer() {
        let m = WireMsg::Bgmp(bgmp::BgmpMsg::Join(McastAddr(0xE000_0005)));
        let mut buf = encode(&m);
        // Partial reads yield None until the frame is complete.
        let mut partial = BytesMut::from(&buf[..3]);
        assert!(matches!(decode_buf(&mut partial), Ok(None)));
        let out = decode_buf(&mut buf).unwrap().unwrap();
        assert!(matches!(out, WireMsg::Bgmp(bgmp::BgmpMsg::Join(_))));
        assert!(buf.is_empty());
    }

    #[test]
    fn garbage_json_body_is_malformed_not_panic() {
        // A peer can put arbitrary bytes in a well-framed body; decode
        // must surface a typed error.
        let body = b"{\"definitely\": not json";
        let mut buf = BytesMut::new();
        buf.put_u32(body.len() as u32);
        buf.put_slice(body);
        assert!(matches!(
            decode_buf(&mut buf),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_header_yields_none_not_panic() {
        // Fewer than 4 header bytes: wait for more input, never index
        // past the end.
        for n in 0..4usize {
            let mut buf = BytesMut::from(&[0xFFu8; 4][..n]);
            assert!(matches!(decode_buf(&mut buf), Ok(None)), "n={n}");
        }
    }

    #[tokio::test]
    async fn malformed_frame_over_socket_is_typed_error() {
        let (mut a, mut b) = tokio::io::duplex(4096);
        let body = b"\x00\x01\x02 not json at all";
        let mut frame = BytesMut::new();
        frame.put_u32(body.len() as u32);
        frame.put_slice(body);
        a.write_all(&frame).await.unwrap();
        assert!(matches!(
            read_frame(&mut b).await,
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32((MAX_FRAME + 1) as u32);
        buf.put_slice(&[0u8; 8]);
        assert!(matches!(decode_buf(&mut buf), Err(CodecError::TooLarge(_))));
    }

    #[tokio::test]
    async fn roundtrip_over_duplex() {
        let (mut a, mut b) = tokio::io::duplex(4096);
        let m = WireMsg::Hello { router: 42 };
        write_frame(&mut a, &m).await.unwrap();
        let got = read_frame(&mut b).await.unwrap();
        assert!(matches!(got, WireMsg::Hello { router: 42 }));
        drop(a);
        assert!(matches!(read_frame(&mut b).await, Err(CodecError::Closed)));
    }
}
