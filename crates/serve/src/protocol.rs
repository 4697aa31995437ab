//! Newline-delimited JSON framing.
//!
//! One message per line, UTF-8, no embedded newlines (the vendored
//! `serde_json` escapes them). Reads are capped at
//! [`MAX_LINE_BYTES`] so a hostile or broken peer cannot balloon the
//! server's memory by never sending a newline.

use serde::{de::DeserializeOwned, Serialize};
use std::io::{self, BufRead, Write};

/// Upper bound on one framed message. Large enough for a full-grid
/// result table, small enough to bound a connection's memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// Writes one message as a JSON line and flushes it.
///
/// The body and its newline go out in one `write_all`: on a socket
/// without `TCP_NODELAY`, a second small write waits for the peer's
/// delayed ACK, adding tens of milliseconds to every round trip.
///
/// # Errors
///
/// Propagates I/O errors; serialisation failures surface as
/// `InvalidData`.
pub fn write_msg<W: Write, T: Serialize>(w: &mut W, msg: &T) -> io::Result<()> {
    let mut line = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Reads one JSON line. Returns `Ok(None)` on clean EOF before any
/// bytes of a new message.
///
/// # Errors
///
/// - `InvalidData` for malformed JSON, non-UTF-8 bytes, or a line
///   exceeding [`MAX_LINE_BYTES`];
/// - `UnexpectedEof` when the peer dies mid-line.
pub fn read_msg<R: BufRead, T: DeserializeOwned>(r: &mut R) -> io::Result<Option<T>> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = r.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-message",
            ));
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            r.consume(pos + 1);
            break;
        }
        line.extend_from_slice(buf);
        let n = buf.len();
        r.consume(n);
        if line.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("message exceeds {MAX_LINE_BYTES} bytes"),
            ));
        }
    }
    if line.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("message exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let text = std::str::from_utf8(&line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    // A blank line between messages is tolerated (telnet users exist).
    if text.trim().is_empty() {
        return read_msg(r);
    }
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Request;
    use std::io::BufReader;

    #[test]
    fn messages_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &Request::Ping).unwrap();
        write_msg(&mut wire, &Request::Stats).unwrap();
        let mut r = BufReader::new(wire.as_slice());
        assert_eq!(read_msg::<_, Request>(&mut r).unwrap(), Some(Request::Ping));
        assert_eq!(
            read_msg::<_, Request>(&mut r).unwrap(),
            Some(Request::Stats)
        );
        assert_eq!(read_msg::<_, Request>(&mut r).unwrap(), None);
    }

    #[test]
    fn each_message_is_one_write() {
        // Counts `write` calls; each accepts the whole buffer, so a
        // message framed in one `write_all` shows up as exactly one.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        write_msg(&mut w, &Request::Ping).unwrap();
        assert_eq!(w.writes, 1);
        write_msg(&mut w, &Request::Stats).unwrap();
        assert_eq!(w.writes, 2);
        assert_eq!(w.bytes, b"\"Ping\"\n\"Stats\"\n");
    }

    #[test]
    fn blank_lines_are_skipped_and_eof_mid_line_errors() {
        let mut r = BufReader::new(&b"\n\n\"Ping\"\n\"Sta"[..]);
        assert_eq!(read_msg::<_, Request>(&mut r).unwrap(), Some(Request::Ping));
        let err = read_msg::<_, Request>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_lines_are_rejected_not_buffered_forever() {
        // A "line" that never ends: reader must bail at the cap, not
        // accumulate until OOM.
        struct Endless;
        impl io::Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                for b in buf.iter_mut() {
                    *b = b'x';
                }
                Ok(buf.len())
            }
        }
        let mut r = BufReader::new(Endless);
        let err = read_msg::<_, Request>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn malformed_json_is_invalid_data() {
        let mut r = BufReader::new(&b"{nope\n"[..]);
        let err = read_msg::<_, Request>(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
