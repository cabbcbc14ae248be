//! The replay wire protocol.
//!
//! One ASCII request line from client to server:
//!
//! ```text
//! LSW1 <start> <duration> <client> <ip> <as> <country> <object> <camera> <bytes> <avg_bw> <status>\n
//! ```
//!
//! i.e. the [`ScheduledTransfer`] the driver is re-offering, in trace
//! coordinates. The server answers with exactly one status line —
//! `OK <wire_bytes>\n` or `BUSY\n` — then, on `OK`, streams `wire_bytes`
//! payload bytes paced at the feed's encoded bitrate and closes. The
//! original trace fields ride the request so the server's completion log
//! (the characterization tap) is in trace coordinates even though the
//! wire traffic is time- and byte-compressed.
//!
//! Every node that accepts LSW1 connections — the origin's reactor
//! shards and each edge relay — reads them through the two helpers
//! here: [`read_request_line`] for the bounded line (the relay also
//! reads the origin's status line with it) and [`peer_gone`] for the
//! stray bytes a streaming subscriber should never send.

use crate::clock::Nanos;
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::schedule::ScheduledTransfer;
use std::io::{self, Read};

/// Maximum request line length a server will buffer before giving up,
/// newline included.
pub const MAX_REQUEST_LINE: usize = 256;

/// What one round of line reading produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReqRead {
    /// Still waiting for the newline (the source would block).
    Pending,
    /// A complete line, without its `\n` or `\r\n`.
    Line(String),
    /// The peer closed, failed, or overflowed [`MAX_REQUEST_LINE`].
    Dead,
}

/// Reads line bytes into `buf` until the newline, `WouldBlock`, or
/// failure. Each read asks for at most the room left under
/// [`MAX_REQUEST_LINE`], so `buf` never grows past it, even
/// transiently; a full buffer without a newline is a protocol
/// violation. On [`ReqRead::Line`], `buf` keeps whatever followed the
/// newline (payload, when this is a status line).
pub fn read_request_line(r: &mut impl Read, buf: &mut Vec<u8>) -> ReqRead {
    let mut scratch = [0u8; MAX_REQUEST_LINE];
    loop {
        let room = MAX_REQUEST_LINE.saturating_sub(buf.len());
        if room == 0 {
            return ReqRead::Dead;
        }
        match r.read(&mut scratch[..room]) {
            Ok(0) => return ReqRead::Dead,
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                if let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&buf[..nl])
                        .trim_end_matches('\r')
                        .to_owned();
                    buf.drain(..=nl);
                    return ReqRead::Line(line);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReqRead::Pending,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReqRead::Dead,
        }
    }
}

/// Drains stray readable bytes from a streaming subscriber (which never
/// legitimately sends after its request); returns true when the peer
/// has hung up (read EOF or a hard error).
pub fn peer_gone(r: &mut impl Read) -> bool {
    let mut sink = [0u8; 4096];
    loop {
        match r.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// Formats the request line for one scheduled transfer (no newline).
pub fn encode_request(t: &ScheduledTransfer) -> String {
    format!(
        "LSW1 {} {} {} {} {} {}{} {} {} {} {} {}",
        t.start,
        t.duration,
        t.client.0,
        t.ip.0,
        t.as_id.0,
        t.country.0[0] as char,
        t.country.0[1] as char,
        t.object.0,
        t.camera,
        t.bytes,
        t.avg_bandwidth,
        t.status,
    )
}

/// Parses a request line (without the trailing newline).
pub fn parse_request(line: &str) -> Option<ScheduledTransfer> {
    let mut f = line.split_ascii_whitespace();
    if f.next()? != "LSW1" {
        return None;
    }
    let start = f.next()?.parse().ok()?;
    let duration = f.next()?.parse().ok()?;
    let client = ClientId(f.next()?.parse().ok()?);
    let ip = Ipv4Addr(f.next()?.parse().ok()?);
    let as_id = AsId(f.next()?.parse().ok()?);
    let country = f.next()?.as_bytes();
    let country = CountryCode(<[u8; 2]>::try_from(country).ok()?);
    let object = ObjectId(f.next()?.parse().ok()?);
    let camera = f.next()?.parse().ok()?;
    let bytes = f.next()?.parse().ok()?;
    let avg_bandwidth = f.next()?.parse().ok()?;
    let status = f.next()?.parse().ok()?;
    if f.next().is_some() {
        return None;
    }
    Some(ScheduledTransfer {
        start,
        duration,
        client,
        ip,
        as_id,
        country,
        object,
        camera,
        bytes,
        avg_bandwidth,
        status,
    })
}

/// Bytes actually moved over the wire for a transfer of `bytes` trace
/// bytes at the given compression: the byte budget shrinks with time so
/// the *rate* on the wire stays the trace's rate. Non-empty transfers
/// always move at least one byte, so completion is observable.
pub fn wire_budget(bytes: u64, compression: f64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    ((bytes as f64 / compression.max(1.0)).ceil() as u64).max(1)
}

/// Wire pacing position of a feed: bytes a subscriber of a feed encoded
/// at `rate` trace-bytes/second is entitled to after `elapsed` replay
/// nanoseconds. The trace rate carries over to the wire unchanged (both
/// bytes and seconds divide by the compression factor).
pub fn paced_position(rate: u64, elapsed: Nanos) -> u64 {
    ((u128::from(rate) * u128::from(elapsed)) / 1_000_000_000).min(u128::from(u64::MAX)) as u64
}

/// Inverse of [`paced_position`]: nanoseconds after joining a feed
/// encoded at `rate` trace-bytes/second at which the broadcast has
/// produced `bytes` — the reactor's next pacing deadline. Rounds up,
/// so the position at the returned time is at least `bytes`.
pub fn pacing_deadline(rate: u64, bytes: u64) -> Nanos {
    let r = u128::from(rate.max(1));
    let num = u128::from(bytes) * 1_000_000_000;
    u64::try_from(num.div_ceil(r)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// One scripted `read` result.
    enum Step {
        Data(Vec<u8>),
        Fail(io::ErrorKind),
    }

    /// A fake socket replaying a script of reads; an exhausted script
    /// reads as EOF. A data step longer than the caller's buffer is
    /// served across several reads.
    struct Script(VecDeque<Step>);

    impl Script {
        fn new(steps: impl IntoIterator<Item = Step>) -> Self {
            Self(steps.into_iter().collect())
        }
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Step::Fail(kind)) => Err(kind.into()),
                Some(Step::Data(mut d)) => {
                    let n = d.len().min(out.len());
                    out[..n].copy_from_slice(&d[..n]);
                    if n < d.len() {
                        self.0.push_front(Step::Data(d.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn data(bytes: &[u8]) -> Step {
        Step::Data(bytes.to_vec())
    }

    fn read_line(steps: impl IntoIterator<Item = Step>) -> (ReqRead, Vec<u8>) {
        let mut buf = Vec::new();
        let got = read_request_line(&mut Script::new(steps), &mut buf);
        (got, buf)
    }

    fn line(s: &str) -> ReqRead {
        ReqRead::Line(s.to_owned())
    }

    #[test]
    fn line_split_across_reads_is_joined() {
        let (got, _) = read_line([data(b"LSW1 1"), data(b" 2"), data(b" 3\n")]);
        assert_eq!(got, line("LSW1 1 2 3"));

        // Split across readiness rounds: the partial line waits in buf.
        let mut buf = Vec::new();
        let mut src = Script::new([data(b"LSW1 1"), Step::Fail(io::ErrorKind::WouldBlock)]);
        assert_eq!(read_request_line(&mut src, &mut buf), ReqRead::Pending);
        assert_eq!(buf, b"LSW1 1");
        let mut src = Script::new([data(b" 2\n")]);
        assert_eq!(read_request_line(&mut src, &mut buf), line("LSW1 1 2"));
    }

    #[test]
    fn crlf_is_trimmed() {
        assert_eq!(read_line([data(b"LSW1 x\r\n")]).0, line("LSW1 x"));
        assert_eq!(read_line([data(b"\r\n")]).0, line(""));
    }

    #[test]
    fn bytes_after_the_newline_stay_in_the_buffer() {
        let (got, rest) = read_line([data(b"OK 5\nab")]);
        assert_eq!(got, line("OK 5"));
        assert_eq!(rest, b"ab");
    }

    #[test]
    fn line_budget_is_exact() {
        // MAX_REQUEST_LINE bytes, newline included: accepted, even when
        // the peer sends more right behind it.
        let mut exact = vec![b'a'; MAX_REQUEST_LINE - 1];
        exact.push(b'\n');
        let (got, _) = read_line([Step::Data(exact.clone())]);
        assert_eq!(got, line(&"a".repeat(MAX_REQUEST_LINE - 1)));
        exact.extend_from_slice(b"stray");
        assert_eq!(
            read_line([Step::Data(exact)]).0,
            line(&"a".repeat(MAX_REQUEST_LINE - 1))
        );

        // One byte more: rejected, in one read or trickled.
        let mut over = vec![b'a'; MAX_REQUEST_LINE];
        over.push(b'\n');
        assert_eq!(read_line([Step::Data(over.clone())]).0, ReqRead::Dead);
        let trickle = over.chunks(7).map(data);
        let (got, buf) = read_line(trickle);
        assert_eq!(got, ReqRead::Dead);
        assert_eq!(
            buf.len(),
            MAX_REQUEST_LINE,
            "buffer never passes the budget"
        );
    }

    #[test]
    fn eof_before_the_newline_is_dead() {
        assert_eq!(read_line([data(b"LSW1 1 2")]).0, ReqRead::Dead);
        assert_eq!(read_line([]).0, ReqRead::Dead);
    }

    #[test]
    fn hard_errors_are_dead() {
        let (got, _) = read_line([data(b"LSW1"), Step::Fail(io::ErrorKind::ConnectionReset)]);
        assert_eq!(got, ReqRead::Dead);
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let (got, _) = read_line([
            Step::Fail(io::ErrorKind::Interrupted),
            data(b"LSW1"),
            Step::Fail(io::ErrorKind::Interrupted),
            data(b" 9\n"),
        ]);
        assert_eq!(got, line("LSW1 9"));
    }

    #[test]
    fn would_block_is_pending() {
        let (got, buf) = read_line([Step::Fail(io::ErrorKind::WouldBlock)]);
        assert_eq!(got, ReqRead::Pending);
        assert!(buf.is_empty());
    }

    #[test]
    fn peer_gone_tells_hangups_from_strays() {
        let gone = |steps: Vec<Step>| peer_gone(&mut Script::new(steps));
        // EOF, with or without strays first.
        assert!(gone(vec![]));
        assert!(gone(vec![data(b"junk"), data(&[0u8; 9000])]));
        // A hard error.
        assert!(gone(vec![
            data(b"x"),
            Step::Fail(io::ErrorKind::ConnectionReset)
        ]));
        // Strays drained, then the socket would block: still connected.
        assert!(!gone(vec![
            data(&[7u8; 5000]),
            Step::Fail(io::ErrorKind::Interrupted),
            data(b"more"),
            Step::Fail(io::ErrorKind::WouldBlock),
        ]));
        assert!(!gone(vec![Step::Fail(io::ErrorKind::WouldBlock)]));
    }

    fn transfer() -> ScheduledTransfer {
        ScheduledTransfer {
            start: 1234,
            duration: 567,
            client: ClientId(42),
            ip: Ipv4Addr(0x7f000001),
            as_id: AsId(7),
            country: CountryCode(*b"BR"),
            object: ObjectId(3),
            camera: 2,
            bytes: 1_000_000,
            avg_bandwidth: 350_000,
            status: 200,
        }
    }

    #[test]
    fn request_round_trips() {
        let t = transfer();
        let line = encode_request(&t);
        assert!(line.len() < MAX_REQUEST_LINE);
        assert_eq!(parse_request(&line), Some(t));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert_eq!(parse_request(""), None);
        assert_eq!(parse_request("GET / HTTP/1.0"), None);
        assert_eq!(parse_request("LSW1 1 2 3"), None);
        let mut line = encode_request(&transfer());
        line.push_str(" extra");
        assert_eq!(parse_request(&line), None);
    }

    #[test]
    fn wire_budget_scales_and_floors() {
        assert_eq!(wire_budget(1_000_000, 100.0), 10_000);
        assert_eq!(wire_budget(5, 100.0), 1); // floor at one observable byte
        assert_eq!(wire_budget(0, 100.0), 0);
        assert_eq!(wire_budget(999, 1.0), 999);
        assert_eq!(wire_budget(100, 0.5), 100); // compression clamps at 1x
    }

    #[test]
    fn pacing_position_is_linear_in_time() {
        assert_eq!(paced_position(48_000, 1_000_000_000), 48_000);
        assert_eq!(paced_position(48_000, 500_000_000), 24_000);
        assert_eq!(paced_position(0, u64::MAX), 0);
    }

    #[test]
    fn pacing_deadline_inverts_position() {
        assert_eq!(pacing_deadline(48_000, 48_000), 1_000_000_000);
        assert_eq!(pacing_deadline(48_000, 24_000), 500_000_000);
        assert_eq!(pacing_deadline(0, 100), pacing_deadline(1, 100));
        // Round-trip: by the returned deadline the position covers the
        // requested bytes, and one nanosecond earlier it does not.
        for (rate, bytes) in [(3u64, 10u64), (48_000, 1), (999_999, 123_456)] {
            let d = pacing_deadline(rate, bytes);
            assert!(paced_position(rate, d) >= bytes);
            assert!(paced_position(rate, d - 1) < bytes);
        }
    }
}
