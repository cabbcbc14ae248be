//! The trace container and Table-1 style summary statistics.

use crate::event::LogEntry;
use serde::{Deserialize, Serialize};

/// An in-memory trace: log entries plus the collection horizon.
///
/// Entries are kept sorted by transfer **start** time — the order in which
/// requests arrived at the server — because every interarrival analysis in
/// the paper is phrased over arrival order. (The on-disk WMS log is sorted
/// by stop time; [`Trace::from_entries`] re-sorts.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<LogEntry>,
    /// Collection horizon in seconds (28 days in the paper).
    horizon: u32,
}

impl Trace {
    /// Builds a trace from entries, sorting by start time (stable, so ties
    /// preserve log order).
    pub fn from_entries(mut entries: Vec<LogEntry>, horizon: u32) -> Self {
        entries.sort_by_key(|e| (e.start, e.timestamp, e.client));
        Self { entries, horizon }
    }

    /// The trace horizon in seconds.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// All entries, sorted by start time.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of transfers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Transfer start times, in seconds, in arrival order.
    pub fn start_times(&self) -> impl Iterator<Item = f64> + '_ {
        self.entries.iter().map(|e| e.start as f64)
    }

    /// Computes the Table-1 style summary.
    ///
    /// AS, country and object are 16-bit keys, tracked in dense seen-arrays;
    /// client ids and IPs are counted by sort and dedup.
    pub fn summary(&self) -> TraceSummary {
        let mut ases = vec![false; 1 << 16];
        let mut countries = vec![false; 1 << 16];
        let mut objects = vec![false; 1 << 16];
        let mut bytes: u64 = 0;
        for e in &self.entries {
            ases[usize::from(e.as_id.0)] = true;
            countries[usize::from(u16::from_be_bytes(e.country.0))] = true;
            objects[usize::from(e.object.0)] = true;
            bytes = bytes.saturating_add(e.bytes);
        }
        TraceSummary {
            days: self.horizon as f64 / 86_400.0,
            objects: count_set(&objects),
            client_ases: count_set(&ases),
            countries: count_set(&countries),
            client_ips: count_distinct(self.entries.iter().map(|e| e.ip.0)),
            users: count_distinct(self.entries.iter().map(|e| e.client.0)),
            transfers: self.entries.len(),
            bytes,
        }
    }
}

fn count_set(seen: &[bool]) -> usize {
    seen.iter().filter(|&&s| s).count()
}

fn count_distinct(keys: impl Iterator<Item = u32>) -> usize {
    let mut keys: Vec<u32> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Basic statistics of a trace — the rows of the paper's Table 1.
///
/// (Session count is deliberately absent: it depends on the sessionization
/// timeout `T_o` and is reported by [`crate::session::Sessions`].)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Log period in days.
    pub days: f64,
    /// Total number of live objects.
    pub objects: usize,
    /// Total number of client autonomous systems.
    pub client_ases: usize,
    /// Total number of client countries.
    pub countries: usize,
    /// Total number of distinct client IPs.
    pub client_ips: usize,
    /// Total number of users (player IDs).
    pub users: usize,
    /// Total number of transfers.
    pub transfers: usize,
    /// Total content served in bytes.
    pub bytes: u64,
}

impl TraceSummary {
    /// Total content served in terabytes (Table 1 reports "> 8 TB").
    pub fn terabytes(&self) -> f64 {
        self.bytes as f64 / (1u64 << 40) as f64
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Log period              {:.1} days", self.days)?;
        writeln!(f, "Total # of live objects {}", self.objects)?;
        writeln!(f, "Total # of client ASs   {}", self.client_ases)?;
        writeln!(f, "Total # of countries    {}", self.countries)?;
        writeln!(f, "Total # of client IPs   {}", self.client_ips)?;
        writeln!(f, "Total # of users        {}", self.users)?;
        writeln!(f, "Total # of transfers    {}", self.transfers)?;
        write!(f, "Total content served    {:.2} TB", self.terabytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogEntryBuilder;
    use crate::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};

    fn entry(start: u32, dur: u32, client: u32, ip: u32, as_id: u16, obj: u16) -> LogEntry {
        LogEntryBuilder::new()
            .span(start, dur)
            .client(ClientId(client))
            .origin(Ipv4Addr(ip), AsId(as_id), CountryCode(*b"BR"))
            .object(ObjectId(obj), 0)
            .transfer_stats(1_000, 34_000, 0.0)
            .build()
    }

    #[test]
    fn entries_sorted_by_start() {
        let t = Trace::from_entries(
            vec![
                entry(50, 5, 1, 1, 1, 0),
                entry(10, 5, 2, 2, 1, 0),
                entry(30, 5, 3, 3, 2, 1),
            ],
            100,
        );
        let starts: Vec<u32> = t.entries().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![10, 30, 50]);
    }

    #[test]
    fn summary_counts_distinct() {
        let t = Trace::from_entries(
            vec![
                entry(0, 1, 1, 10, 1, 0),
                entry(1, 1, 1, 10, 1, 0), // same client/ip/AS
                entry(2, 1, 2, 20, 1, 1),
                entry(3, 1, 3, 30, 2, 0),
            ],
            86_400,
        );
        let s = t.summary();
        assert_eq!(s.users, 3);
        assert_eq!(s.client_ips, 3);
        assert_eq!(s.client_ases, 2);
        assert_eq!(s.objects, 2);
        assert_eq!(s.transfers, 4);
        assert_eq!(s.bytes, 4_000);
        assert_eq!(s.countries, 1);
        assert!((s.days - 1.0).abs() < 1e-12);
    }

    #[test]
    fn terabytes_conversion() {
        let s = TraceSummary {
            days: 28.0,
            objects: 2,
            client_ases: 1,
            countries: 1,
            client_ips: 1,
            users: 1,
            transfers: 1,
            bytes: 9 * (1u64 << 40),
        };
        assert!((s.terabytes() - 9.0).abs() < 1e-12);
        let text = s.to_string();
        assert!(text.contains("9.00 TB"));
        assert!(text.contains("28.0 days"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::from_entries(vec![], 100);
        assert!(t.is_empty());
        let s = t.summary();
        assert_eq!(s.transfers, 0);
        assert_eq!(s.users, 0);
    }
}
