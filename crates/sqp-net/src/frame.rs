//! Frame transport: `u32` little-endian length prefix + body, over any
//! `Read`/`Write` pair.
//!
//! The read path distinguishes the three ways a stream can stop making
//! sense — a clean EOF **between** frames (normal disconnect), an EOF
//! **inside** a frame (torn write / dropped peer), and a length prefix the
//! receiver refuses (zero or over-limit) — because a server reacts
//! differently to each: close silently, close silently, or send a typed
//! `R_ERROR` and then close. The body buffer is caller-owned and reused
//! across frames, so steady-state reads allocate nothing once the buffer
//! has grown to the connection's working frame size.

use crate::wire::{WireError, LEN_PREFIX};
use std::io::{self, Read, Write};

/// Outcome of one [`read_frame`] call.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame body now fills the caller's buffer.
    Frame,
    /// The peer closed the stream cleanly at a frame boundary.
    CleanEof,
    /// The length prefix was unacceptable; **no body bytes were
    /// consumed**, so the stream is desynchronized and must be closed
    /// (after optionally sending the typed error).
    Reject(WireError),
}

/// Read one frame body into `buf` (cleared and refilled by this call).
///
/// Returns [`FrameRead::CleanEof`] only when the stream ends exactly at a
/// frame boundary; an EOF mid-prefix or mid-body surfaces as an
/// [`io::ErrorKind::UnexpectedEof`] error.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>, max_body: usize) -> io::Result<FrameRead> {
    let mut prefix = [0u8; LEN_PREFIX];
    let mut got = 0;
    while got < LEN_PREFIX {
        match r.read(&mut prefix[got..])? {
            0 if got == 0 => return Ok(FrameRead::CleanEof),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len == 0 {
        return Ok(FrameRead::Reject(WireError::EmptyFrame));
    }
    if len > max_body {
        return Ok(FrameRead::Reject(WireError::FrameTooLarge {
            len: len as u64,
            max: max_body as u64,
        }));
    }
    // `len` is bounded by `max_body`, so this reserve cannot be driven
    // past the configured limit by a hostile prefix; once the buffer has
    // grown to the connection's working size it allocates nothing. The
    // body is read into the spare capacity, which a `TcpStream` fills
    // without initialising it first.
    buf.clear();
    buf.reserve(len);
    if r.take(len as u64).read_to_end(buf)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof inside frame body",
        ));
    }
    Ok(FrameRead::Frame)
}

/// Write one frame (`prefix + body`) and flush.
///
/// The body must already be a complete wire message; its length is
/// checked against `max_body` so a server never emits a frame its own
/// reader would refuse.
pub fn write_frame(w: &mut impl Write, body: &[u8], max_body: usize) -> io::Result<()> {
    debug_assert!(!body.is_empty(), "a frame body always carries an opcode");
    if body.len() > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            WireError::FrameTooLarge {
                len: body.len() as u64,
                max: max_body as u64,
            },
        ));
    }
    let prefix = (body.len() as u32).to_le_bytes();
    // One vectored write puts prefix+body into the kernel buffer in a
    // single syscall — under TCP_NODELAY that is also a single segment on
    // the wire, so a reader never observes a torn prefix from a flushed
    // writer. Partial writes (rare on blocking sockets) finish plainly.
    let slices = [io::IoSlice::new(&prefix), io::IoSlice::new(body)];
    let total = LEN_PREFIX + body.len();
    let mut written = w.write_vectored(&slices)?;
    while written < total {
        let n = if written < LEN_PREFIX {
            w.write(&prefix[written..])?
        } else {
            w.write(&body[written - LEN_PREFIX..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "stream refused frame bytes",
            ));
        }
        written += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip_and_boundary_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"\x05hello", 64).unwrap();
        write_frame(&mut stream, b"\x06", 64).unwrap();

        let mut r = Cursor::new(stream);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut r, &mut buf, 64).unwrap(),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"\x05hello");
        assert!(matches!(
            read_frame(&mut r, &mut buf, 64).unwrap(),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"\x06");
        assert!(matches!(
            read_frame(&mut r, &mut buf, 64).unwrap(),
            FrameRead::CleanEof
        ));
    }

    #[test]
    fn torn_frames_are_unexpected_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"\x05hello", 64).unwrap();
        let mut buf = Vec::new();
        // Every strict prefix that is not a frame boundary must error.
        for cut in 1..stream.len() {
            let mut r = Cursor::new(&stream[..cut]);
            let err = read_frame(&mut r, &mut buf, 64).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn zero_and_oversized_prefixes_are_rejected_without_reading_bodies() {
        let mut buf = Vec::new();

        let mut r = Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut r, &mut buf, 64).unwrap(),
            FrameRead::Reject(WireError::EmptyFrame)
        ));

        let mut huge = (1_000_000u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 8]);
        let mut r = Cursor::new(huge);
        assert!(matches!(
            read_frame(&mut r, &mut buf, 64).unwrap(),
            FrameRead::Reject(WireError::FrameTooLarge {
                len: 1_000_000,
                max: 64
            })
        ));
        // The reject consumed only the prefix.
        assert_eq!(r.position(), 4);

        // And the writer refuses to emit what a reader would refuse.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[0u8; 65], 64).is_err());
    }
}
