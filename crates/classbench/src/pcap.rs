//! Classic pcap reading and writing, restricted to the classification
//! 5-tuple.
//!
//! The ROADMAP's "real trace replay" item: engines should be drivable by
//! *captured* traffic, not only synthetic ClassBench traces. This module
//! implements the classic libpcap capture format (the 24-byte global
//! header with magic `0xa1b2c3d4`, then per-packet records) just deep
//! enough to move [`Header`]s in and out:
//!
//! * [`PcapReader`] — a streaming [`crate::TraceSource`] over a capture
//!   file, parsing records in place out of one refillable byte window
//!   (the capture is never materialised, so a multi-gigabyte tcpdump
//!   file replays in constant memory; an in-memory capture *is* the
//!   window and is never copied). Both byte orders and both timestamp
//!   resolutions (micro/nanosecond magic) are accepted; link types
//!   Ethernet (1, with optional single VLAN tag) and raw IPv4 (101)
//!   are supported. Only the 5-tuple segments the
//!   lookup engines consume are parsed: source and destination address,
//!   the four bytes after the IPv4 header as source/destination port
//!   (exact for TCP/UDP; for other protocols the classifiers treat
//!   ports as opaque 16-bit dimensions anyway — but non-first IPv4
//!   fragments, whose post-header bytes are mid-payload, read as port
//!   0), and the protocol number. Records that are well-formed but not
//!   IPv4 (ARP, IPv6, captures too short for an IP header) are counted
//!   in [`PcapReader::skipped`] and skipped; *structural* damage — a
//!   bad magic, a record header cut short, a packet body shorter than
//!   its declared `incl_len`, an `incl_len` beyond any plausible snap
//!   length — is a typed [`PcapError`], and the reader stays poisoned
//!   on it (re-reporting rather than resynchronising, since offsets
//!   past the damage are meaningless).
//! * [`PcapWriter`] / [`write_pcap`] — emit a minimal raw-IPv4 capture
//!   (20-byte IP header with a correct checksum plus the two port
//!   words) that round-trips through [`PcapReader`] bit-exactly and
//!   opens in standard tools.

use crate::source::{TraceError, TraceEvent, TraceSource, DEFAULT_CHUNK};
use spc_types::Header;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Classic pcap magic, microsecond timestamps.
const MAGIC_USEC: u32 = 0xa1b2_c3d4;
/// Classic pcap magic, nanosecond timestamps (we ignore timestamps, so
/// it is accepted and treated identically).
const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
/// Bytes in the pcap global (file) header.
const FILE_HEADER_LEN: usize = 24;
/// Bytes in a per-packet record header.
const RECORD_HEADER_LEN: usize = 16;
/// LINKTYPE_ETHERNET.
const LINK_ETHERNET: u32 = 1;
/// LINKTYPE_RAW (raw IP starting at the first byte).
const LINK_RAW_IP: u32 = 101;

/// Error from the pcap reader/writer.
#[derive(Debug)]
#[non_exhaustive]
pub enum PcapError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file ends before the 24-byte pcap global header.
    TruncatedFileHeader {
        /// Bytes actually present.
        len: usize,
    },
    /// The first four bytes are not a known pcap magic in either byte
    /// order.
    BadMagic {
        /// The magic as read (little-endian).
        magic: u32,
    },
    /// The capture's link type is neither Ethernet (1) nor raw IP (101).
    UnsupportedLinkType {
        /// The link type from the global header.
        link: u32,
    },
    /// A per-packet record header (16 bytes) is cut short by end of
    /// file.
    TruncatedRecordHeader {
        /// File offset of the truncated record.
        offset: usize,
        /// Bytes actually present there.
        have: usize,
    },
    /// A packet body is shorter than the `incl_len` its record header
    /// declared.
    TruncatedPacketBody {
        /// File offset of the record.
        offset: usize,
        /// Bytes the record header promised.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// A record declares an `incl_len` beyond any plausible snap length
    /// — corrupt length fields must not drive the packet buffer's
    /// allocation.
    OversizedPacket {
        /// File offset of the record.
        offset: usize,
        /// The declared capture length.
        incl_len: usize,
        /// The accepted maximum (the global header's snap length,
        /// clamped to `[65535, 64 MiB]`).
        cap: usize,
    },
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o failed: {e}"),
            PcapError::TruncatedFileHeader { len } => write!(
                f,
                "pcap global header truncated: {len} bytes, need {FILE_HEADER_LEN}"
            ),
            PcapError::BadMagic { magic } => {
                write!(f, "not a classic pcap file: magic {magic:#010x}")
            }
            PcapError::UnsupportedLinkType { link } => write!(
                f,
                "unsupported pcap link type {link} (supported: {LINK_ETHERNET} \
                 Ethernet, {LINK_RAW_IP} raw IP)"
            ),
            PcapError::TruncatedRecordHeader { offset, have } => write!(
                f,
                "pcap record header at offset {offset} truncated: \
                 {have} bytes, need {RECORD_HEADER_LEN}"
            ),
            PcapError::TruncatedPacketBody { offset, need, have } => write!(
                f,
                "pcap packet at offset {offset} truncated: record declares \
                 {need} bytes, file holds {have}"
            ),
            PcapError::OversizedPacket {
                offset,
                incl_len,
                cap,
            } => write!(
                f,
                "pcap packet at offset {offset} declares {incl_len} captured \
                 bytes, beyond the plausible snap length {cap}"
            ),
        }
    }
}

impl std::error::Error for PcapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Parses the classification 5-tuple out of one captured packet, or
/// `None` when the packet is well-formed pcap but not parsable IPv4
/// (to be skipped, not an error).
fn parse_five_tuple(packet: &[u8], link: u32) -> Option<Header> {
    let ip = match link {
        LINK_RAW_IP => packet,
        _ => {
            // Ethernet: 14-byte header, EtherType at 12; one 802.1Q tag
            // (0x8100) pushes the payload out by 4.
            if packet.len() < 14 {
                return None;
            }
            let ethertype = u16::from_be_bytes([packet[12], packet[13]]);
            match ethertype {
                0x0800 => &packet[14..],
                0x8100 if packet.len() >= 18 => {
                    let inner = u16::from_be_bytes([packet[16], packet[17]]);
                    if inner != 0x0800 {
                        return None;
                    }
                    &packet[18..]
                }
                _ => return None,
            }
        }
    };
    if ip.len() < 20 || ip[0] >> 4 != 4 {
        return None;
    }
    let ihl = usize::from(ip[0] & 0x0f) * 4;
    if ihl < 20 || ip.len() < ihl {
        return None;
    }
    let proto = ip[9];
    let src = u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]);
    let dst = u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]);
    // The two 16-bit words after the IP header are the source and
    // destination port for every port-bearing transport. They read as 0
    // when the capture's snap length cut them off, and for non-first
    // fragments (fragment offset > 0), where the post-header bytes are
    // mid-payload, not a transport header.
    let fragment_offset = u16::from_be_bytes([ip[6], ip[7]]) & 0x1fff;
    let (sport, dport) = if fragment_offset == 0 && ip.len() >= ihl + 4 {
        (
            u16::from_be_bytes([ip[ihl], ip[ihl + 1]]),
            u16::from_be_bytes([ip[ihl + 2], ip[ihl + 3]]),
        )
    } else {
        (0, 0)
    };
    Some(Header::new(src.into(), dst.into(), sport, dport, proto))
}

/// A streaming [`TraceSource`] over a classic pcap capture.
///
/// ```
/// use spc_classbench::{write_pcap, PcapReader, TraceSource};
/// use spc_types::Header;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = vec![Header::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 1234, 80, 6)];
/// let dir = std::env::temp_dir().join(format!("spc_pcap_doc_{}.pcap", std::process::id()));
/// write_pcap(&dir, trace.iter().copied())?;
/// let replayed = PcapReader::open(&dir)?.collect_headers()?;
/// assert_eq!(replayed, trace);
/// # std::fs::remove_file(&dir)?;
/// # Ok(())
/// # }
/// ```
pub struct PcapReader {
    window: Window,
    /// Capture offset of the next unparsed byte — the offsets in errors.
    pos: usize,
    swapped: bool,
    link: u32,
    /// Largest `incl_len` accepted, from the global header's snap
    /// length clamped to `[65535, 64 MiB]` — a corrupt record must not
    /// drive the window's growth.
    snap_cap: usize,
    chunk: usize,
    packets: u64,
    skipped: u64,
    /// Structural damage already reported; re-reported on every
    /// subsequent pull instead of resynchronising past it.
    poisoned: Option<Poisoned>,
}

/// Bytes a streaming reader asks its input for at a time.
const WINDOW_LEN: usize = 64 * 1024;

/// The bytes read from the input and not yet consumed: `buf[head..tail]`.
/// A record that lies wholly inside is parsed where it is; one that
/// straddles `tail` moves the rest to the front and reads on behind it.
struct Window {
    /// `None` once the input ended (or for an in-memory capture, whose
    /// `buf` holds all there is).
    input: Option<Box<dyn io::Read>>,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Window {
    fn bytes(&self) -> &[u8] {
        &self.buf[self.head..self.tail]
    }

    /// Whether `n` unconsumed bytes are there, reading more if not — the
    /// partial-fill primitive distinguishing clean EOF (`bytes()` empty)
    /// from truncation (short but not empty).
    fn holds(&mut self, n: usize) -> io::Result<bool> {
        if self.tail - self.head >= n {
            return Ok(true);
        }
        self.refill(n)
    }

    #[cold]
    fn refill(&mut self, n: usize) -> io::Result<bool> {
        let Some(input) = &mut self.input else {
            return Ok(false);
        };
        self.buf.copy_within(self.head..self.tail, 0);
        self.tail -= self.head;
        self.head = 0;
        if self.buf.len() < n {
            self.buf.resize(n, 0);
        }
        while self.tail < n {
            match input.read(&mut self.buf[self.tail..]) {
                Ok(0) => {
                    self.input = None;
                    return Ok(false);
                }
                Ok(got) => self.tail += got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// The structural-damage classes a reader latches (everything but
/// [`PcapError::Io`], whose payload cannot be replayed — an I/O failure
/// re-reports as a fresh generic I/O error).
#[derive(Debug, Clone, Copy)]
enum Poisoned {
    RecordHeader {
        offset: usize,
        have: usize,
    },
    PacketBody {
        offset: usize,
        need: usize,
        have: usize,
    },
    Oversized {
        offset: usize,
        incl_len: usize,
        cap: usize,
    },
    Io,
}

impl Poisoned {
    fn to_error(self) -> PcapError {
        match self {
            Poisoned::RecordHeader { offset, have } => {
                PcapError::TruncatedRecordHeader { offset, have }
            }
            Poisoned::PacketBody { offset, need, have } => {
                PcapError::TruncatedPacketBody { offset, need, have }
            }
            Poisoned::Oversized {
                offset,
                incl_len,
                cap,
            } => PcapError::OversizedPacket {
                offset,
                incl_len,
                cap,
            },
            Poisoned::Io => PcapError::Io(io::Error::other(
                "the pcap stream already failed with an i/o error",
            )),
        }
    }
}

impl fmt::Debug for PcapReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcapReader")
            .field("pos", &self.pos)
            .field("link", &self.link)
            .field("packets", &self.packets)
            .field("skipped", &self.skipped)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl PcapReader {
    /// Opens a capture file, streaming it through the reader's window —
    /// the capture is never loaded whole.
    ///
    /// # Errors
    ///
    /// [`PcapError::Io`] on filesystem failure, plus everything
    /// [`PcapReader::new`] rejects.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, PcapError> {
        Self::new(Box::new(fs::File::open(path)?))
    }

    /// Wraps an in-memory capture, which becomes the reader's window as
    /// it is: no byte of it is copied.
    ///
    /// # Errors
    ///
    /// As [`PcapReader::new`].
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, PcapError> {
        Self::start(Window {
            input: None,
            head: 0,
            tail: data.len(),
            buf: data,
        })
    }

    /// Wraps any byte stream, reading and validating the 24-byte global
    /// header. The stream is read a window (64 KiB) at a time, so it
    /// needs no buffering of its own.
    ///
    /// # Errors
    ///
    /// [`PcapError::TruncatedFileHeader`] for fewer than 24 bytes,
    /// [`PcapError::BadMagic`] for an unknown magic,
    /// [`PcapError::UnsupportedLinkType`] for a link type other than
    /// Ethernet or raw IP, [`PcapError::Io`] on read failure.
    pub fn new(input: Box<dyn io::Read>) -> Result<Self, PcapError> {
        Self::windowed(input, WINDOW_LEN)
    }

    /// [`PcapReader::new`] with a window of `len` bytes (it still grows
    /// to hold a longer record).
    fn windowed(input: Box<dyn io::Read>, len: usize) -> Result<Self, PcapError> {
        Self::start(Window {
            input: Some(input),
            buf: vec![0; len],
            head: 0,
            tail: 0,
        })
    }

    fn start(mut window: Window) -> Result<Self, PcapError> {
        if !window.holds(FILE_HEADER_LEN)? {
            return Err(PcapError::TruncatedFileHeader {
                len: window.bytes().len(),
            });
        }
        let header = window.bytes();
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        // The magic is written in the capturing host's byte order: if the
        // little-endian read comes out byte-swapped, every multi-byte
        // field in the file is big-endian.
        let swapped = match magic {
            MAGIC_USEC | MAGIC_NSEC => false,
            m if m.swap_bytes() == MAGIC_USEC || m.swap_bytes() == MAGIC_NSEC => true,
            _ => return Err(PcapError::BadMagic { magic }),
        };
        let link = u32_at(header, 20, swapped);
        if link != LINK_ETHERNET && link != LINK_RAW_IP {
            return Err(PcapError::UnsupportedLinkType { link });
        }
        let snap_cap = (u32_at(header, 16, swapped) as usize).clamp(65_535, 1 << 26);
        window.head += FILE_HEADER_LEN;
        Ok(PcapReader {
            window,
            pos: FILE_HEADER_LEN,
            swapped,
            link,
            snap_cap,
            chunk: DEFAULT_CHUNK,
            packets: 0,
            skipped: 0,
            poisoned: None,
        })
    }

    /// Sets the headers-per-event chunk size (clamped to at least 1).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Headers yielded so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Well-formed records skipped so far because they were not parsable
    /// IPv4 (ARP, IPv6, truncated-below-IP-header captures, ...).
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    fn poison(&mut self, p: Poisoned) -> PcapError {
        self.poisoned = Some(p);
        p.to_error()
    }

    /// Whether the window holds `n` unconsumed bytes; a failed read
    /// poisons the reader.
    fn holds(&mut self, n: usize) -> Result<bool, PcapError> {
        match self.window.holds(n) {
            Ok(held) => Ok(held),
            Err(_) => Err(self.poison(Poisoned::Io)),
        }
    }

    /// Appends parsable IPv4 packets to `out` until it holds `limit` or
    /// the capture ends. Damage is an error; the packets before it are
    /// in `out` all the same.
    fn fill(&mut self, out: &mut Vec<Header>, limit: usize) -> Result<(), PcapError> {
        if let Some(p) = self.poisoned {
            return Err(p.to_error());
        }
        loop {
            // Every record wholly inside the window is parsed where it
            // lies; nothing in this loop calls out, so its cursor and
            // counts stay in registers.
            let bytes = self.window.bytes();
            let (yielded, mut skipped, mut at) = (out.len(), 0, 0);
            while out.len() < limit {
                let rest = &bytes[at..];
                if rest.len() < RECORD_HEADER_LEN {
                    break;
                }
                let incl_len = u32_at(rest, 8, self.swapped) as usize;
                if incl_len > self.snap_cap {
                    break;
                }
                let record_len = RECORD_HEADER_LEN + incl_len;
                if rest.len() < record_len {
                    break;
                }
                match parse_five_tuple(&rest[RECORD_HEADER_LEN..record_len], self.link) {
                    Some(h) => out.push(h),
                    None => skipped += 1,
                }
                at += record_len;
            }
            self.window.head += at;
            self.pos += at;
            self.packets += (out.len() - yielded) as u64;
            self.skipped += skipped;
            if out.len() >= limit || !self.admit_record()? {
                return Ok(());
            }
        }
    }

    /// Brings the next record wholly into the window — the one place
    /// bytes are read and damage is found. `Ok(false)` at the clean end
    /// of the capture.
    fn admit_record(&mut self) -> Result<bool, PcapError> {
        let offset = self.pos;
        if !self.holds(RECORD_HEADER_LEN)? {
            let have = self.window.bytes().len();
            self.pos += have;
            if have == 0 {
                return Ok(false);
            }
            return Err(self.poison(Poisoned::RecordHeader { offset, have }));
        }
        let incl_len = u32_at(self.window.bytes(), 8, self.swapped) as usize;
        if incl_len > self.snap_cap {
            self.pos += RECORD_HEADER_LEN;
            return Err(self.poison(Poisoned::Oversized {
                offset,
                incl_len,
                cap: self.snap_cap,
            }));
        }
        if !self.holds(RECORD_HEADER_LEN + incl_len)? {
            let have = self.window.bytes().len();
            self.pos += have;
            return Err(self.poison(Poisoned::PacketBody {
                offset,
                need: incl_len,
                have: have - RECORD_HEADER_LEN,
            }));
        }
        Ok(true)
    }

    /// Advances to the next parsable IPv4 packet, or `None` at end of
    /// capture.
    #[cfg(test)]
    fn next_packet(&mut self) -> Result<Option<Header>, PcapError> {
        let mut one = Vec::new();
        self.fill(&mut one, 1)?;
        Ok(one.pop())
    }
}

/// The `u32` at `buf[off..off + 4]` in the capture's byte order.
fn u32_at(buf: &[u8], off: usize, swapped: bool) -> u32 {
    let mut b = [0; 4];
    b.copy_from_slice(&buf[off..off + 4]);
    if swapped {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

impl TraceSource for PcapReader {
    fn next_event(&mut self) -> Result<Option<TraceEvent>, TraceError> {
        let mut chunk = Vec::with_capacity(self.chunk.min(4096));
        let filled = self.fill(&mut chunk, self.chunk);
        if !chunk.is_empty() {
            // The packets before damage are good and go out first; the
            // poisoned reader reports it again on the next pull.
            return Ok(Some(TraceEvent::Headers(chunk)));
        }
        filled?;
        Ok(None)
    }
}

/// RFC 1071 ones'-complement checksum over the 20-byte IP header.
fn ipv4_checksum(header: &[u8; 20]) -> u16 {
    let mut sum = 0u32;
    for word in header.chunks(2) {
        sum += u32::from(u16::from_be_bytes([word[0], word[1]]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Streams [`Header`]s into a classic pcap capture (little-endian,
/// microsecond magic, raw-IP link type): each header becomes a 24-byte
/// packet — a 20-byte IPv4 header with a valid checksum followed by the
/// two port words — with monotonically increasing timestamps.
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    w: W,
    written: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Bytes one header occupies in the capture body.
    const PACKET_LEN: u32 = 24;

    /// Wraps a writer and emits the pcap global header.
    ///
    /// # Errors
    ///
    /// [`PcapError::Io`] on write failure.
    pub fn new(mut w: W) -> Result<Self, PcapError> {
        w.write_all(&MAGIC_USEC.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?; // version major
        w.write_all(&4u16.to_le_bytes())?; // version minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&65_535u32.to_le_bytes())?; // snaplen
        w.write_all(&LINK_RAW_IP.to_le_bytes())?;
        Ok(PcapWriter { w, written: 0 })
    }

    /// Appends one header as a captured packet.
    ///
    /// # Errors
    ///
    /// [`PcapError::Io`] on write failure.
    pub fn write_header(&mut self, h: &Header) -> Result<(), PcapError> {
        let ts_sec = (self.written / 1_000_000) as u32;
        let ts_usec = (self.written % 1_000_000) as u32;
        self.w.write_all(&ts_sec.to_le_bytes())?;
        self.w.write_all(&ts_usec.to_le_bytes())?;
        self.w.write_all(&Self::PACKET_LEN.to_le_bytes())?; // incl_len
        self.w.write_all(&Self::PACKET_LEN.to_le_bytes())?; // orig_len

        let mut ip = [0u8; 20];
        ip[0] = 0x45; // version 4, IHL 5
        ip[2..4].copy_from_slice(&(Self::PACKET_LEN as u16).to_be_bytes());
        ip[8] = 64; // TTL
        ip[9] = h.proto;
        ip[12..16].copy_from_slice(&h.src_ip.0.to_be_bytes());
        ip[16..20].copy_from_slice(&h.dst_ip.0.to_be_bytes());
        let csum = ipv4_checksum(&ip);
        ip[10..12].copy_from_slice(&csum.to_be_bytes());
        self.w.write_all(&ip)?;
        self.w.write_all(&h.src_port.to_be_bytes())?;
        self.w.write_all(&h.dst_port.to_be_bytes())?;
        self.written += 1;
        Ok(())
    }

    /// Headers written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`PcapError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<W, PcapError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// One-shot convenience: writes `headers` to a pcap file at `path`,
/// returning how many packets were written.
///
/// # Errors
///
/// [`PcapError::Io`] on filesystem failure.
pub fn write_pcap<P, I>(path: P, headers: I) -> Result<u64, PcapError>
where
    P: AsRef<Path>,
    I: IntoIterator<Item = Header>,
{
    let file = fs::File::create(path)?;
    let mut w = PcapWriter::new(io::BufWriter::new(file))?;
    for h in headers {
        w.write_header(&h)?;
    }
    let n = w.written();
    w.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FilterKind, RuleSetGenerator, TraceGenerator};

    fn sample_trace(len: usize) -> Vec<Header> {
        let rules = RuleSetGenerator::new(FilterKind::Fw, 150)
            .seed(21)
            .generate();
        // locality + background traffic: repeats, odd protocols, random
        // ports on non-port protocols — all must round-trip.
        TraceGenerator::new()
            .seed(5)
            .match_fraction(0.7)
            .locality(0.3)
            .generate(&rules, len)
    }

    fn to_bytes(trace: &[Header]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for h in trace {
            w.write_header(h).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_in_memory_equals_trace() {
        let trace = sample_trace(300);
        let bytes = to_bytes(&trace);
        assert_eq!(bytes.len(), FILE_HEADER_LEN + trace.len() * (16 + 24));
        let mut reader = PcapReader::from_bytes(bytes).unwrap().with_chunk(64);
        let mut got = Vec::new();
        while let Some(ev) = reader.next_event().unwrap() {
            match ev {
                TraceEvent::Headers(h) => {
                    assert!(h.len() <= 64);
                    got.extend(h);
                }
                other => panic!("pcap sources emit headers only: {other:?}"),
            }
        }
        assert_eq!(got, trace);
        assert_eq!(reader.packets(), trace.len() as u64);
        assert_eq!(reader.skipped(), 0);
    }

    #[test]
    fn roundtrip_through_a_file() {
        let trace = sample_trace(64);
        let path = std::env::temp_dir().join(format!("spc_pcap_test_{}.pcap", std::process::id()));
        let n = write_pcap(&path, trace.iter().copied()).unwrap();
        assert_eq!(n, 64);
        let got = PcapReader::open(&path).unwrap().collect_headers().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(got, trace);
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let e = PcapReader::open("/nonexistent/spc.pcap").unwrap_err();
        assert!(matches!(e, PcapError::Io(_)), "{e}");
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = to_bytes(&sample_trace(2));
        bytes[0..4].copy_from_slice(&0xfeed_beefu32.to_le_bytes());
        let e = PcapReader::from_bytes(bytes).unwrap_err();
        assert!(
            matches!(e, PcapError::BadMagic { magic: 0xfeed_beef }),
            "{e}"
        );
    }

    #[test]
    fn short_file_header_is_typed() {
        let bytes = to_bytes(&sample_trace(1));
        let e = PcapReader::from_bytes(bytes[..10].to_vec()).unwrap_err();
        assert!(
            matches!(e, PcapError::TruncatedFileHeader { len: 10 }),
            "{e}"
        );
    }

    #[test]
    fn unsupported_link_type_is_typed() {
        let mut bytes = to_bytes(&sample_trace(1));
        bytes[20..24].copy_from_slice(&228u32.to_le_bytes()); // LINKTYPE_IPV4
        let e = PcapReader::from_bytes(bytes).unwrap_err();
        assert!(
            matches!(e, PcapError::UnsupportedLinkType { link: 228 }),
            "{e}"
        );
    }

    #[test]
    fn truncated_record_header_is_typed() {
        let bytes = to_bytes(&sample_trace(3));
        // Cut inside the third record's 16-byte header.
        let cut = FILE_HEADER_LEN + 2 * (16 + 24) + 7;
        let mut reader = PcapReader::from_bytes(bytes[..cut].to_vec()).unwrap();
        let mut seen = 0;
        let e = loop {
            match reader.next_packet() {
                Ok(Some(_)) => seen += 1,
                Ok(None) => panic!("truncation must not read as end of capture"),
                Err(e) => break e,
            }
        };
        assert_eq!(seen, 2, "the intact records still replay");
        assert!(
            matches!(
                e,
                PcapError::TruncatedRecordHeader { offset, have: 7 }
                    if offset == FILE_HEADER_LEN + 2 * 40
            ),
            "{e}"
        );
    }

    #[test]
    fn truncated_packet_body_is_typed() {
        let bytes = to_bytes(&sample_trace(2));
        // Cut inside the second record's 24-byte body.
        let cut = FILE_HEADER_LEN + 40 + 16 + 5;
        let mut reader = PcapReader::from_bytes(bytes[..cut].to_vec()).unwrap();
        assert!(reader.next_packet().unwrap().is_some());
        let e = reader.next_packet().unwrap_err();
        assert!(
            matches!(
                e,
                PcapError::TruncatedPacketBody {
                    need: 24,
                    have: 5,
                    ..
                }
            ),
            "{e}"
        );
        // The error is sticky state-wise: the reader does not advance
        // past the damage and reports it again.
        assert!(matches!(
            reader.next_packet().unwrap_err(),
            PcapError::TruncatedPacketBody { .. }
        ));
    }

    #[test]
    fn big_endian_and_nanosecond_captures_replay() {
        let trace = sample_trace(5);
        let le = to_bytes(&trace);

        // Rewrite the whole capture big-endian (every header field
        // byte-swapped; packet bodies stay network order).
        let mut be = Vec::with_capacity(le.len());
        for off in (0..FILE_HEADER_LEN).step_by(4) {
            // magic/thiszone/sigfigs/snaplen/network are u32s; the two
            // u16 versions at offset 4 swap within their own width.
            if off == 4 {
                be.extend_from_slice(&[le[5], le[4], le[7], le[6]]);
            } else {
                be.extend_from_slice(&[le[off + 3], le[off + 2], le[off + 1], le[off]]);
            }
        }
        let mut pos = FILE_HEADER_LEN;
        while pos < le.len() {
            for field in 0..4 {
                let f = pos + field * 4;
                be.extend_from_slice(&[le[f + 3], le[f + 2], le[f + 1], le[f]]);
            }
            be.extend_from_slice(&le[pos + 16..pos + 40]);
            pos += 40;
        }
        let got = PcapReader::from_bytes(be)
            .unwrap()
            .collect_headers()
            .unwrap();
        assert_eq!(got, trace, "byte-swapped capture must replay identically");

        // Nanosecond magic: same layout, different magic.
        let mut ns = le.clone();
        ns[0..4].copy_from_slice(&MAGIC_NSEC.to_le_bytes());
        let got = PcapReader::from_bytes(ns)
            .unwrap()
            .collect_headers()
            .unwrap();
        assert_eq!(got, trace);
    }

    /// Hand-rolls an Ethernet-linktype capture: plain, VLAN-tagged and
    /// non-IP frames, plus a snap-length capture that cut the ports off.
    #[test]
    fn ethernet_frames_vlan_and_skips() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_USEC.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&65_535u32.to_le_bytes());
        bytes.extend_from_slice(&LINK_ETHERNET.to_le_bytes());

        let ip_body = |h: &Header, with_ports: bool| {
            let mut ip = vec![0u8; 20];
            ip[0] = 0x45;
            ip[9] = h.proto;
            ip[12..16].copy_from_slice(&h.src_ip.0.to_be_bytes());
            ip[16..20].copy_from_slice(&h.dst_ip.0.to_be_bytes());
            if with_ports {
                ip.extend_from_slice(&h.src_port.to_be_bytes());
                ip.extend_from_slice(&h.dst_port.to_be_bytes());
            }
            ip
        };
        let mut record = |payload: &[u8]| {
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
        };

        let a = Header::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 1000, 80, 6);
        let b = Header::new([9, 9, 9, 9].into(), [8, 8, 8, 8].into(), 53, 53, 17);
        let c = Header::new([4, 4, 4, 4].into(), [3, 3, 3, 3].into(), 0, 0, 50);

        // Plain Ethernet + IPv4 + TCP.
        let mut frame = vec![0u8; 12];
        frame.extend_from_slice(&0x0800u16.to_be_bytes());
        frame.extend_from_slice(&ip_body(&a, true));
        record(&frame);
        // ARP frame: well-formed, not IP -> skipped.
        let mut arp = vec![0u8; 12];
        arp.extend_from_slice(&0x0806u16.to_be_bytes());
        arp.extend_from_slice(&[0u8; 28]);
        record(&arp);
        // VLAN-tagged IPv4 + UDP.
        let mut vlan = vec![0u8; 12];
        vlan.extend_from_slice(&0x8100u16.to_be_bytes());
        vlan.extend_from_slice(&7u16.to_be_bytes()); // VLAN id
        vlan.extend_from_slice(&0x0800u16.to_be_bytes());
        vlan.extend_from_slice(&ip_body(&b, true));
        record(&vlan);
        // Runt frame (shorter than an Ethernet header) -> skipped.
        record(&[0u8; 6]);
        // ESP-ish packet snapped right after the IP header: ports read
        // as 0, which is what header `c` carries.
        let mut esp = vec![0u8; 12];
        esp.extend_from_slice(&0x0800u16.to_be_bytes());
        esp.extend_from_slice(&ip_body(&c, false));
        record(&esp);

        let mut reader = PcapReader::from_bytes(bytes).unwrap();
        let got = {
            let mut out = Vec::new();
            while let Some(h) = reader.next_packet().unwrap() {
                out.push(h);
            }
            out
        };
        assert_eq!(got, vec![a, b, c]);
        assert_eq!(reader.skipped(), 2, "ARP + runt");
    }

    #[test]
    fn non_first_fragments_read_ports_as_zero() {
        // A fragmented UDP datagram: the first fragment carries the real
        // transport header, the second carries mid-payload bytes where
        // ports would be — which must NOT be read as ports.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_USEC.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&65_535u32.to_le_bytes());
        bytes.extend_from_slice(&LINK_RAW_IP.to_le_bytes());
        let mut record = |frag_field: u16, after_header: [u8; 4]| {
            let mut ip = [0u8; 24];
            ip[0] = 0x45;
            ip[6..8].copy_from_slice(&frag_field.to_be_bytes());
            ip[9] = 17;
            ip[12..16].copy_from_slice(&[10, 0, 0, 1]);
            ip[16..20].copy_from_slice(&[10, 0, 0, 2]);
            ip[20..24].copy_from_slice(&after_header);
            bytes.extend_from_slice(&[0u8; 8]);
            bytes.extend_from_slice(&24u32.to_le_bytes());
            bytes.extend_from_slice(&24u32.to_le_bytes());
            bytes.extend_from_slice(&ip);
        };
        // First fragment (MF set, offset 0): real ports 53 -> 8080.
        record(0x2000, {
            let mut b = [0u8; 4];
            b[0..2].copy_from_slice(&53u16.to_be_bytes());
            b[2..4].copy_from_slice(&8080u16.to_be_bytes());
            b
        });
        // Second fragment (offset 185): payload bytes that would decode
        // as garbage ports.
        record(185, [0xde, 0xad, 0xbe, 0xef]);
        let got = PcapReader::from_bytes(bytes)
            .unwrap()
            .collect_headers()
            .unwrap();
        assert_eq!((got[0].src_port, got[0].dst_port), (53, 8080));
        assert_eq!(
            (got[1].src_port, got[1].dst_port),
            (0, 0),
            "mid-payload bytes must not be read as ports"
        );
    }

    #[test]
    fn oversized_incl_len_is_typed_not_an_allocation() {
        let mut bytes = to_bytes(&sample_trace(1));
        // Corrupt the first record's incl_len to 4 GiB - 1.
        bytes[FILE_HEADER_LEN + 8..FILE_HEADER_LEN + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = PcapReader::from_bytes(bytes).unwrap();
        let e = reader.next_packet().unwrap_err();
        assert!(
            matches!(
                e,
                PcapError::OversizedPacket {
                    incl_len, cap: 65_535, ..
                } if incl_len == u32::MAX as usize
            ),
            "{e}"
        );
        // Poisoned: the damage is re-reported, not skipped past.
        assert!(matches!(
            reader.next_packet().unwrap_err(),
            PcapError::OversizedPacket { .. }
        ));
    }

    /// A stream that hands out at most `step` bytes per `read`.
    struct Trickle {
        data: io::Cursor<Vec<u8>>,
        step: usize,
    }

    impl io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.step);
            self.data.read(&mut buf[..n])
        }
    }

    /// `data` through every way bytes reach a reader: adopted whole,
    /// streamed 1, 7 and 4 096 bytes per `read`, and streamed through a
    /// window of `window` bytes.
    fn readers(data: &[u8], window: usize) -> Vec<Result<PcapReader, PcapError>> {
        let trickle = |step| -> Box<dyn io::Read> {
            Box::new(Trickle {
                data: io::Cursor::new(data.to_vec()),
                step,
            })
        };
        vec![
            PcapReader::from_bytes(data.to_vec()),
            PcapReader::new(trickle(1)),
            PcapReader::new(trickle(7)),
            PcapReader::new(trickle(4096)),
            PcapReader::windowed(trickle(usize::MAX), window),
            PcapReader::windowed(trickle(7), window),
        ]
    }

    /// Everything a consumer can see of a reader: the headers it
    /// yields, its counters, and the error it ends on (which must be
    /// the error it goes on reporting).
    fn drain(reader: Result<PcapReader, PcapError>) -> (Vec<Header>, u64, u64, Option<String>) {
        let mut reader = match reader {
            Ok(r) => r.with_chunk(64),
            Err(e) => return (Vec::new(), 0, 0, Some(format!("{e:?}"))),
        };
        let mut got = Vec::new();
        let error = loop {
            match reader.next_event() {
                Ok(Some(TraceEvent::Headers(h))) => got.extend(h),
                Ok(Some(other)) => panic!("pcap sources emit headers only: {other:?}"),
                Ok(None) => break None,
                Err(TraceError::Pcap(e)) => {
                    let error = format!("{e:?}");
                    let again = reader.next_event().unwrap_err();
                    assert_eq!(format!("{again:?}"), format!("Pcap({error})"), "sticky");
                    break Some(error);
                }
                Err(other) => panic!("pcap sources fail as pcap: {other:?}"),
            }
        };
        (got, reader.packets(), reader.skipped(), error)
    }

    /// A capture of `payloads` with every header field in the given
    /// byte order.
    fn capture_of(link: u32, big_endian: bool, payloads: &[Vec<u8>]) -> Vec<u8> {
        let word = |v: u32| {
            if big_endian {
                v.to_be_bytes()
            } else {
                v.to_le_bytes()
            }
        };
        let mut bytes = Vec::new();
        for v in [MAGIC_USEC, 0x0004_0002, 0, 0, 65_535, link] {
            bytes.extend_from_slice(&word(v));
        }
        if big_endian {
            bytes[4..8].copy_from_slice(&[0, 2, 0, 4]); // two u16 versions
        }
        for (i, payload) in payloads.iter().enumerate() {
            for v in [i as u32, 0, payload.len() as u32, payload.len() as u32] {
                bytes.extend_from_slice(&word(v));
            }
            bytes.extend_from_slice(payload);
        }
        bytes
    }

    #[test]
    fn the_window_is_invisible() {
        let trace = sample_trace(200);
        let ip_packets: Vec<Vec<u8>> = to_bytes(&trace)[FILE_HEADER_LEN..]
            .chunks(40)
            .map(|record| record[RECORD_HEADER_LEN..].to_vec())
            .collect();
        // The same packets as Ethernet frames — every third one behind
        // a VLAN tag — with an ARP frame and a runt between them.
        let mut frames = Vec::new();
        for (i, ip) in ip_packets.iter().enumerate() {
            let mut frame = vec![0u8; 12];
            if i % 3 == 0 {
                frame.extend_from_slice(&[0x81, 0x00, 0x00, 0x07]);
            }
            frame.extend_from_slice(&[0x08, 0x00]);
            frame.extend_from_slice(ip);
            frames.push(frame);
            if i % 5 == 0 {
                let mut arp = vec![0u8; 12];
                arp.extend_from_slice(&[0x08, 0x06]);
                arp.extend_from_slice(&[0u8; 28]);
                frames.push(arp);
                frames.push(vec![0u8; 6]);
            }
        }
        for (what, bytes, skipped) in [
            ("raw IP", capture_of(LINK_RAW_IP, false, &ip_packets), 0),
            (
                "raw IP, big-endian",
                capture_of(LINK_RAW_IP, true, &ip_packets),
                0,
            ),
            ("Ethernet", capture_of(LINK_ETHERNET, false, &frames), 80),
            (
                "Ethernet, big-endian",
                capture_of(LINK_ETHERNET, true, &frames),
                80,
            ),
        ] {
            // One record and a byte: every record straddles the window.
            let longest = frames.iter().map(Vec::len).max().unwrap();
            for (i, reader) in readers(&bytes, RECORD_HEADER_LEN + longest + 1)
                .into_iter()
                .enumerate()
            {
                assert_eq!(
                    drain(reader),
                    (trace.clone(), 200, skipped, None),
                    "{what} through reader {i}"
                );
            }
        }
    }

    #[test]
    fn damage_reads_the_same_through_every_window() {
        let good = to_bytes(&sample_trace(3));
        let mut bad_magic = good.clone();
        bad_magic[0..4].copy_from_slice(&0xfeed_beefu32.to_le_bytes());
        let mut bad_link = good.clone();
        bad_link[20..24].copy_from_slice(&228u32.to_le_bytes());
        let mut oversized = good.clone();
        oversized[FILE_HEADER_LEN + 40 + 8..FILE_HEADER_LEN + 40 + 12]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        for (what, bytes, yielded, error) in [
            ("bad magic", bad_magic, 0, "BadMagic { magic: 4276993775 }"),
            (
                "short file header",
                good[..10].to_vec(),
                0,
                "TruncatedFileHeader { len: 10 }",
            ),
            (
                "link type",
                bad_link,
                0,
                "UnsupportedLinkType { link: 228 }",
            ),
            (
                "cut record header",
                good[..FILE_HEADER_LEN + 2 * 40 + 7].to_vec(),
                2,
                "TruncatedRecordHeader { offset: 104, have: 7 }",
            ),
            (
                "cut packet body",
                good[..FILE_HEADER_LEN + 40 + 16 + 5].to_vec(),
                1,
                "TruncatedPacketBody { offset: 64, need: 24, have: 5 }",
            ),
            (
                "oversized",
                oversized,
                1,
                "OversizedPacket { offset: 64, incl_len: 4294967295, cap: 65535 }",
            ),
        ] {
            for (i, reader) in readers(&bytes, 41).into_iter().enumerate() {
                let (got, packets, _, e) = drain(reader);
                assert_eq!(
                    (got.len(), packets, e.as_deref()),
                    (yielded, yielded as u64, Some(error)),
                    "{what} through reader {i}"
                );
            }
        }
    }

    #[test]
    fn damage_keeps_the_packets_before_it() {
        // 300 good records and a damaged 301st: the reader owes its
        // consumer 256 + 44 headers and then the error, however the
        // chunk boundary falls.
        let trace = sample_trace(301);
        let good = to_bytes(&trace);
        let last = FILE_HEADER_LEN + 300 * 40;
        let mut oversized = good.clone();
        oversized[last + 8..last + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        for (bytes, error) in [
            (good[..last + 9].to_vec(), "TruncatedRecordHeader"),
            (good[..last + 16 + 3].to_vec(), "TruncatedPacketBody"),
            (oversized, "OversizedPacket"),
        ] {
            let mut reader = PcapReader::from_bytes(bytes.clone())
                .unwrap()
                .with_chunk(256);
            for want in [&trace[..256], &trace[256..300]] {
                match reader.next_event() {
                    Ok(Some(TraceEvent::Headers(h))) => assert_eq!(h, want, "{error}"),
                    other => panic!("{error}: the good packets come first, not {other:?}"),
                }
            }
            assert_eq!(reader.packets(), 300);
            for _ in 0..2 {
                let e = reader.next_event().unwrap_err();
                assert!(format!("{e:?}").contains(error), "{e}");
            }
            // Through the collecting adapter the error wins, but every
            // good packet was parsed on the way to it.
            let mut reader = PcapReader::from_bytes(bytes).unwrap();
            let e = (&mut reader).collect_headers().unwrap_err();
            assert!(format!("{e:?}").contains(error), "{e}");
            assert_eq!(reader.packets(), 300);
        }
    }

    #[test]
    fn a_failing_stream_yields_what_it_delivered() {
        struct Failing(io::Cursor<Vec<u8>>);
        impl io::Read for Failing {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.read(buf) {
                    Ok(0) => Err(io::Error::other("the tap went away")),
                    got => got,
                }
            }
        }
        let trace = sample_trace(5);
        let mut reader =
            PcapReader::new(Box::new(Failing(io::Cursor::new(to_bytes(&trace))))).unwrap();
        match reader.next_event() {
            Ok(Some(TraceEvent::Headers(h))) => assert_eq!(h, trace),
            other => panic!("the delivered packets come first, not {other:?}"),
        }
        for _ in 0..2 {
            assert!(matches!(
                reader.next_event(),
                Err(TraceError::Pcap(PcapError::Io(_)))
            ));
        }
    }

    #[test]
    fn empty_capture_is_an_empty_source() {
        let bytes = to_bytes(&[]);
        let mut reader = PcapReader::from_bytes(bytes).unwrap();
        assert!(reader.next_event().unwrap().is_none());
        assert_eq!(reader.packets(), 0);
    }

    #[test]
    fn checksum_is_valid() {
        // Recompute over the emitted header with its checksum field
        // zeroed; inserting the stored checksum must verify to 0.
        let bytes = to_bytes(&sample_trace(1));
        let ip = &bytes[FILE_HEADER_LEN + 16..FILE_HEADER_LEN + 36];
        let mut sum = 0u32;
        for w in ip.chunks(2) {
            sum += u32::from(u16::from_be_bytes([w[0], w[1]]));
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        assert_eq!(sum, 0xffff, "ones'-complement sum over a valid header");
    }

    #[test]
    fn error_display_is_informative() {
        for (e, needle) in [
            (PcapError::BadMagic { magic: 1 }, "magic"),
            (PcapError::TruncatedFileHeader { len: 3 }, "global header"),
            (PcapError::UnsupportedLinkType { link: 9 }, "link type 9"),
            (
                PcapError::TruncatedRecordHeader {
                    offset: 24,
                    have: 2,
                },
                "record header",
            ),
            (
                PcapError::TruncatedPacketBody {
                    offset: 24,
                    need: 9,
                    have: 2,
                },
                "declares 9",
            ),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
