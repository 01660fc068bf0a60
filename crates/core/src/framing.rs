//! The CRC-checked record layer under every file and wire boundary.
//!
//! Four formats carry IEEE CRC32s: the study checkpoint
//! ([`crate::checkpoint`], one `CRC xxxxxxxx` trailer over the whole
//! file), the sweep journal ([`crate::sweep`]) and the result-cache file
//! ([`crate::service::ResultCache`]), both with a ` CRC xxxxxxxx`
//! trailer on every line, and the service's length-prefixed wire frames.
//! This module holds what they share:
//!
//! * [`crc32`], the per-line codec ([`crc_line`], [`check_crc_line`]) and
//!   the one line scanner ([`scan_crc_lines`]);
//! * [`TokenReader`], the only parser of record tokens;
//! * the file I/O every format needs: [`read_optional`],
//!   [`write_durable`] (create, write, fsync file and parent directory,
//!   as one chaos-intercepted operation) and [`io_error`];
//! * the frame codec: [`write_frame`], [`read_frame`] and the deadline-
//!   aware [`read_frame_conn`] it is built on.
//!
//! The formats keep their own write disciplines on purpose, because a
//! crash leaves different things behind: the checkpoint is a whole-file
//! snapshot (temp file, CRC trailer, rename), since a per-line CRC
//! cannot tell a file cut at a line boundary from a whole one; the
//! journal is append-only, so only its final line can tear; the cache
//! file is rewritten whole, so any bad line refuses it.

use crate::chaos::{intercept_write, IoSite};
use crate::checkpoint::StudyError;
use std::io::{self, Read, Write};
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// IEEE CRC32 (the zlib/PNG polynomial), bitwise.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// What every CRC-failure diagnostic says. The client recognises a
/// server's report of a request corrupted in flight by this text.
pub(crate) const CRC_FAILURE: &str = "fails its CRC";

// ---------------------------------------------------------------------
// CRC-trailed lines
// ---------------------------------------------------------------------

/// Appends the per-line CRC trailer.
pub(crate) fn crc_line(body: &str) -> String {
    format!("{body} CRC {:08x}\n", crc32(body.as_bytes()))
}

/// Splits a line into its body and verifies the CRC trailer. `None`
/// means the line is torn or rotted.
pub(crate) fn check_crc_line(line: &str) -> Option<&str> {
    let (body, hex) = line.rsplit_once(" CRC ")?;
    let stated = u32::from_str_radix(hex, 16).ok()?;
    (crc32(body.as_bytes()) == stated).then_some(body)
}

/// A text checked line by line against [`crc_line`] trailers.
pub(crate) struct CrcLines<'a> {
    /// Every line that verifies: its 1-based number and its body.
    pub(crate) bodies: Vec<(usize, &'a str)>,
    /// The first bad line — failing its CRC or missing its newline — as
    /// its 1-based number and the byte offset where it starts.
    pub(crate) first_bad: Option<(usize, usize)>,
    /// Lines in the text, a final line without its newline included.
    pub(crate) lines: usize,
}

/// Checks every line of `text`. A final line without its newline is bad
/// even when its CRC holds: an append that crashed before the newline
/// would otherwise have the next record concatenated onto it.
pub(crate) fn scan_crc_lines(text: &str) -> CrcLines<'_> {
    let mut scan = CrcLines {
        bodies: Vec::new(),
        first_bad: None,
        lines: 0,
    };
    let mut pos = 0;
    while pos < text.len() {
        scan.lines += 1;
        let (line, next) = match text[pos..].find('\n') {
            Some(nl) => (Some(&text[pos..pos + nl]), pos + nl + 1),
            None => (None, text.len()),
        };
        match line.and_then(check_crc_line) {
            Some(body) => scan.bodies.push((scan.lines, body)),
            None => {
                scan.first_bad.get_or_insert((scan.lines, pos));
            }
        }
        pos = next;
    }
    scan
}

// ---------------------------------------------------------------------
// Record tokens
// ---------------------------------------------------------------------

/// Reads the whitespace-separated tokens of one record line, reporting
/// every failure as [`StudyError::Corrupt`] at that line.
pub(crate) struct TokenReader<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> TokenReader<'a> {
    /// A reader over `text`, which is line `line` (1-based) of its file.
    pub(crate) fn new(text: &'a str, line: usize) -> Self {
        TokenReader { rest: text, line }
    }

    /// A [`StudyError::Corrupt`] at this reader's line.
    pub(crate) fn corrupt(&self, what: impl Into<String>) -> StudyError {
        StudyError::Corrupt {
            line: self.line,
            what: what.into(),
        }
    }

    /// The next token.
    pub(crate) fn next(&mut self) -> Result<&'a str, StudyError> {
        let text = self
            .rest
            .trim_start_matches(|c: char| c.is_ascii_whitespace());
        let end = text
            .find(|c: char| c.is_ascii_whitespace())
            .unwrap_or(text.len());
        if end == 0 {
            return Err(self.corrupt("truncated record"));
        }
        self.rest = &text[end..];
        Ok(&text[..end])
    }

    /// Consumes the token `word`.
    pub(crate) fn keyword(&mut self, word: &str) -> Result<(), StudyError> {
        let got = self.next()?;
        if got == word {
            Ok(())
        } else {
            Err(self.corrupt(format!("expected {word:?}, got {got:?}")))
        }
    }

    /// The next token as a decimal integer.
    pub(crate) fn int<T: FromStr>(&mut self) -> Result<T, StudyError> {
        let t = self.next()?;
        t.parse()
            .map_err(|_| self.corrupt(format!("bad integer {t:?}")))
    }

    /// The next token as a hexadecimal `u64` (seeds, hashes, keys).
    pub(crate) fn hex(&mut self) -> Result<u64, StudyError> {
        let t = self.next()?;
        u64::from_str_radix(t, 16).map_err(|_| self.corrupt(format!("bad hex {t:?}")))
    }

    /// The next token as the 16-hex-digit image of an `f64`'s bits.
    pub(crate) fn f64_bits(&mut self) -> Result<f64, StudyError> {
        let t = self.next()?;
        u64::from_str_radix(t, 16)
            .map(f64::from_bits)
            .map_err(|_| self.corrupt(format!("bad f64 bits {t:?}")))
    }

    /// The free text after the next separating space, verbatim: it may
    /// hold any characters, spaces included. Writers always put the
    /// space there, even before empty text.
    pub(crate) fn rest_of_line(&mut self) -> Result<&'a str, StudyError> {
        let text = self
            .rest
            .strip_prefix(' ')
            .ok_or_else(|| self.corrupt("truncated record"))?;
        self.rest = "";
        Ok(text)
    }

    /// Fails unless every token of a `record` record was consumed.
    pub(crate) fn end(&self, record: &str) -> Result<(), StudyError> {
        if self
            .rest
            .trim_start_matches(|c: char| c.is_ascii_whitespace())
            .is_empty()
        {
            Ok(())
        } else {
            Err(self.corrupt(format!("trailing tokens on {record} record")))
        }
    }
}

// ---------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------

/// A [`StudyError::Io`] naming `path`.
pub(crate) fn io_error(path: &Path, e: io::Error) -> StudyError {
    StudyError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// Reads `path` whole; `Ok(None)` when no such file exists.
pub(crate) fn read_optional(path: &Path) -> Result<Option<String>, StudyError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_error(path, e)),
    }
}

/// Syncs `path`'s parent directory, making a just-created or renamed
/// entry durable (on Unix the entry lives in the directory, which has
/// its own cache).
pub(crate) fn fsync_parent(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        if let Some(parent) = path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            std::fs::File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Creates (or truncates) `path` and writes `bytes` to it durably: the
/// file and its parent directory are fsynced before this returns. The
/// whole write is one chaos-intercepted operation at `site`.
pub(crate) fn write_durable(site: IoSite, path: &Path, bytes: &[u8]) -> Result<(), StudyError> {
    intercept_write(site, path, bytes, |bytes| {
        let mut file = std::fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fsync_parent(path)
    })
    .map_err(|e| io_error(path, e))
}

// ---------------------------------------------------------------------
// Wire frames
// ---------------------------------------------------------------------

/// Largest frame either side of the wire protocol will accept.
pub const MAX_FRAME: usize = 16 << 20;

fn too_big(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds MAX_FRAME"),
    )
}

fn closed_mid_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-frame")
}

/// Renders the wire image of one frame: big-endian `u32` length,
/// big-endian `u32` CRC-32 of the payload, then the payload.
pub(crate) fn frame_bytes(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME {
        return Err(too_big(payload.len()));
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one CRC-checked, length-prefixed frame (big-endian `u32`
/// length, big-endian `u32` payload CRC-32, then the payload) and
/// flushes.
///
/// # Errors
///
/// Propagates the underlying write error; refuses payloads over
/// [`MAX_FRAME`] as [`io::ErrorKind::InvalidData`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(payload)?)?;
    w.flush()
}

/// Reads one CRC-checked, length-prefixed frame from a *blocking*
/// reader. `Ok(None)` means the peer closed the connection cleanly
/// before a frame started.
///
/// The payload buffer grows as bytes actually arrive (in steps of at
/// most 64 KiB), so a hostile header claiming [`MAX_FRAME`] bytes on a
/// connection that then stalls or closes never costs a 16 MiB
/// allocation up front.
///
/// # Errors
///
/// [`io::ErrorKind::UnexpectedEof`] when the peer closes mid-frame;
/// [`io::ErrorKind::InvalidData`] for frames over [`MAX_FRAME`] or
/// payloads failing their CRC.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    Ok(match read_frame_conn(r, None)? {
        FrameIn::Frame(payload) => Some(payload),
        FrameIn::Closed | FrameIn::Evicted => None,
    })
}

/// One read attempt from a frame loop.
pub(crate) enum FrameIn {
    /// A whole frame arrived.
    Frame(Vec<u8>),
    /// Clean EOF before a frame, or the stop flag was raised while idle.
    Closed,
    /// The peer stalled mid-frame past the read deadline: evict it.
    Evicted,
}

/// How a connection socket with a read timeout is read: the deadline a
/// started frame must finish within, and a flag polled while idle
/// between frames (shutdown).
pub(crate) type ConnRead<'a> = (Duration, &'a dyn Fn() -> bool);

/// Reads one frame. Without `conn` the reader is treated as blocking:
/// every read error but `Interrupted` fails the frame. With `conn`, a
/// read timeout ("would block") is a tick: idle ticks *between* frames
/// are free — a connected client may stay silent forever — unless the
/// stop flag is up, but once the first byte of a frame arrives the rest
/// must follow within the deadline or the peer is reported as
/// [`FrameIn::Evicted`].
pub(crate) fn read_frame_conn(
    r: &mut impl Read,
    conn: Option<ConnRead<'_>>,
) -> io::Result<FrameIn> {
    // A failed read: `Ok(None)` reads again, `Ok(Some(_))` ends the
    // frame, `Err` fails it. `started` is when the frame's first byte
    // arrived, `None` while idle.
    let stalled = |e: io::Error, started: Option<Instant>| -> io::Result<Option<FrameIn>> {
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(None);
        }
        let Some((deadline, stop)) = conn.filter(|_| is_would_block(&e)) else {
            return Err(e);
        };
        Ok(match started {
            None if stop() => Some(FrameIn::Closed),
            Some(t) if t.elapsed() >= deadline => Some(FrameIn::Evicted),
            _ => None,
        })
    };
    // Header: length then CRC. The length is checked against the cap as
    // soon as it is in, before the CRC arrives.
    let mut header = [0u8; 8];
    let mut filled = 0;
    let mut started: Option<Instant> = None;
    let frame_len = |h: &[u8; 8]| u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize;
    while filled < 8 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameIn::Closed),
            Ok(0) => return Err(closed_mid_frame()),
            Ok(n) => {
                started.get_or_insert_with(Instant::now);
                filled += n;
                if filled >= 4 && frame_len(&header) > MAX_FRAME {
                    return Err(too_big(frame_len(&header)));
                }
            }
            Err(e) => {
                if let Some(end) = stalled(e, started)? {
                    return Ok(end);
                }
            }
        }
    }
    let len = frame_len(&header);
    let want = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    let mut chunk = [0u8; 4096];
    while payload.len() < len {
        let step = (len - payload.len()).min(chunk.len());
        match r.read(&mut chunk[..step]) {
            Ok(0) => return Err(closed_mid_frame()),
            Ok(n) => payload.extend_from_slice(&chunk[..n]),
            Err(e) => {
                if let Some(end) = stalled(e, started)? {
                    return Ok(end);
                }
            }
        }
    }
    let got = crc32(&payload);
    if got != want {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame payload {CRC_FAILURE} (header {want:08x}, payload {got:08x})"),
        ));
    }
    Ok(FrameIn::Frame(payload))
}

/// Whether an error is the "no data within the socket timeout" signal.
/// `set_read_timeout` surfaces as either kind depending on platform.
pub(crate) fn is_would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_lines_carry_verifiable_crcs() {
        let line = crc_line("S 3 total 1");
        let body = check_crc_line(line.trim_end()).unwrap();
        assert_eq!(body, "S 3 total 1");
        assert!(check_crc_line("S 3 total 1 CRC 00000000").is_none());
        assert!(check_crc_line("no trailer at all").is_none());
    }
}
