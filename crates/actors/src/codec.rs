//! Length-delimited framing of snapshot bytes over TCP.
//!
//! Each frame is a 4-byte big-endian length followed by the canonical
//! [`Snapshot`] encoding of one value — a [`core::Wire`] between two
//! border-router shells, or the sender's ASN in the hello frame that
//! opens a connection. The body decoder is the snapshot codec's, so
//! its totality, fuzzing and allocation bounds carry over; the length
//! is checked against [`MAX_FRAME`] before anything is allocated.
//!
//! [`core::Wire`]: masc_bgmp_core::Wire

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

use snapshot::{Dec, Enc, SnapError, Snapshot};
use std::io::{Read, Write};

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
    /// The frame body is not one whole encoded value.
    Malformed(SnapError),
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

/// Encodes a value into a length-prefixed frame.
pub fn encode<T: Snapshot>(msg: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(0);
    msg.encode(&mut enc);
    let mut buf = enc.finish();
    let len = (buf.len() - 4) as u32;
    if let Some(header) = buf.get_mut(..4) {
        header.copy_from_slice(&len.to_be_bytes());
    }
    buf
}

/// Writes one frame.
pub fn write_frame<T: Snapshot, W: Write>(w: &mut W, msg: &T) -> Result<(), CodecError> {
    w.write_all(&encode(msg))?;
    Ok(())
}

/// Reads one frame.
pub fn read_frame<T: Snapshot, R: Read>(r: &mut R) -> Result<T, CodecError> {
    let mut header = [0u8; 4];
    match r.read_exact(&mut header) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(CodecError::Closed),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut dec = Dec::new(&body);
    let msg = T::decode(&mut dec).map_err(CodecError::Malformed)?;
    dec.finish().map_err(CodecError::Malformed)?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgmp::BgmpMsg;
    use masc_bgmp_core::Wire;
    use mcast_addr::McastAddr;

    fn join() -> Wire {
        Wire::Bgmp {
            from: 3,
            to: 4,
            msg: BgmpMsg::Join(McastAddr(0xE000_0005)),
        }
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body);
        frame
    }

    /// Reads one frame from a stream that carries `bytes` in pieces
    /// split at `cuts`, and then closes.
    fn read_in_pieces(bytes: &[u8], cuts: &[usize]) -> Result<Wire, CodecError> {
        read_frame(&mut Pieces { bytes, cuts, at: 0 })
    }

    /// A reader that returns at most the bytes up to the next cut, so
    /// each cut is a short read.
    struct Pieces<'a> {
        bytes: &'a [u8],
        cuts: &'a [usize],
        at: usize,
    }

    impl std::io::Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let next = self.cuts.iter().find(|&&c| c > self.at);
            let end = next.map_or(self.bytes.len(), |&c| c.min(self.bytes.len()));
            let n = buf.len().min(end - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn encode_decode_buffer() {
        // A frame that arrives in pieces — inside the header, inside
        // the body — is read once it is whole.
        let buf = encode(&join());
        let out = read_in_pieces(&buf, &[2, 5, buf.len() - 1]).unwrap();
        assert!(matches!(
            out,
            Wire::Bgmp {
                msg: BgmpMsg::Join(_),
                ..
            }
        ));
    }

    #[test]
    fn garbage_body_is_malformed_not_panic() {
        // A peer can put arbitrary bytes in a well-framed body; decode
        // must surface a typed error.
        let got = read_in_pieces(&framed(b"\xFF definitely not a wire message"), &[]);
        assert!(matches!(got, Err(CodecError::Malformed(_))));
    }

    #[test]
    fn truncated_header_yields_none_not_panic() {
        // Fewer than 4 header bytes, in pieces, then the stream ends:
        // `Closed`, never an index past the end.
        for n in 0..4usize {
            let cuts: Vec<usize> = (0..n).collect();
            let got = read_in_pieces(&[0xFFu8; 4][..n], &cuts);
            assert!(matches!(got, Err(CodecError::Closed)), "n={n}");
        }
    }

    #[test]
    fn malformed_frame_over_socket_is_typed_error() {
        let mut b = &framed(b"\x00\x01\x02 not a wire message")[..];
        assert!(matches!(
            read_frame::<Wire, _>(&mut b),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            read_in_pieces(&buf, &[]),
            Err(CodecError::TooLarge(_))
        ));
    }

    #[test]
    fn roundtrip_over_duplex() {
        let mut a = Vec::new();
        write_frame(&mut a, &42u32).unwrap();
        write_frame(&mut a, &join()).unwrap();
        let mut b = &a[..];
        assert_eq!(read_frame::<u32, _>(&mut b).unwrap(), 42);
        let got: Wire = read_frame(&mut b).unwrap();
        assert_eq!(encode(&got), encode(&join()));
        assert!(matches!(
            read_frame::<Wire, _>(&mut b),
            Err(CodecError::Closed)
        ));
    }
}
