//! The sessionizer: grouping each client's transfers into sessions.
//!
//! §2.2 of the paper defines a *client session* as the interval during
//! which a client is actively requesting live objects, such that no gap
//! with zero active transfers exceeds the timeout `T_o` (1,500 s in the
//! paper, §4.1). A session's ON time is its span; the OFF time is the gap
//! to the same client's next session (Fig 12); the transfers inside a
//! session yield the per-session counts (Fig 13) and the intra-session
//! interarrivals (Fig 14).

use crate::event::LogEntry;
use crate::ids::ClientId;
use crate::trace::Trace;
use lsw_stats::par::Parallelism;
use serde::{Deserialize, Serialize};

/// Sessionization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Session timeout `T_o` in seconds: a silence longer than this ends
    /// the session.
    pub timeout: f64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            timeout: lsw_stats::paper::SESSION_TIMEOUT_SECS,
        }
    }
}

/// One identified session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Session {
    /// The client owning the session.
    pub client: ClientId,
    /// Session start (first transfer's start), seconds.
    pub start: u32,
    /// Session end (latest transfer stop seen), seconds.
    pub end: u32,
    /// Offset of the session's first transfer in [`Sessions::entry_order`].
    pub first: u32,
    /// Number of transfers in the session.
    pub transfers: u32,
}

impl Session {
    /// Session ON time in seconds (`end − start`).
    pub fn on_time(&self) -> u32 {
        self.end - self.start
    }
}

/// The result of sessionizing a trace: sessions in arrival order, plus the
/// transfer ordering that ties each session back to trace entries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sessions {
    config: SessionConfig,
    /// Sessions sorted by start time.
    sessions: Vec<Session>,
    /// Indices into `Trace::entries()`, grouped contiguously by session and
    /// sorted by transfer start within each session.
    entry_order: Vec<u32>,
}

/// Borrowed column views of the four transfer fields sessionization
/// reads — the `ltc` columnar fast path hands these straight out of block
/// columns, so no `LogEntry` array is ever materialized.
///
/// All slices must have equal length; record `i` is the transfer
/// `(client[i], start[i], timestamp[i], stop[i])`.
#[derive(Debug, Clone, Copy)]
pub struct TransferColumns<'a> {
    /// Client ids.
    pub client: &'a [u32],
    /// Transfer start times (seconds).
    pub start: &'a [u32],
    /// Log timestamps (seconds) — the canonical-order tiebreak.
    pub timestamp: &'a [u32],
    /// Transfer stop times (seconds).
    pub stop: &'a [u32],
}

/// Uniform read access to the transfer fields the sessionizer needs, so
/// one core algorithm serves both the entry-array path and the columnar
/// (`ltc`) path.
trait TransferView: Sync {
    fn len(&self) -> usize;
    fn client(&self, i: u32) -> ClientId;
    fn start(&self, i: u32) -> u32;
    fn timestamp(&self, i: u32) -> u32;
    fn stop(&self, i: u32) -> u32;
}

impl TransferView for &[LogEntry] {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn client(&self, i: u32) -> ClientId {
        self[i as usize].client
    }
    fn start(&self, i: u32) -> u32 {
        self[i as usize].start
    }
    fn timestamp(&self, i: u32) -> u32 {
        self[i as usize].timestamp
    }
    fn stop(&self, i: u32) -> u32 {
        self[i as usize].stop()
    }
}

impl TransferView for TransferColumns<'_> {
    fn len(&self) -> usize {
        self.client.len()
    }
    fn client(&self, i: u32) -> ClientId {
        ClientId(self.client[i as usize])
    }
    fn start(&self, i: u32) -> u32 {
        self.start[i as usize]
    }
    fn timestamp(&self, i: u32) -> u32 {
        self.timestamp[i as usize]
    }
    fn stop(&self, i: u32) -> u32 {
        self.stop[i as usize]
    }
}

impl Sessions {
    /// Identifies sessions in a trace, using the automatic worker count.
    ///
    /// Two transfers of the same client belong to the same session when the
    /// silent gap between them (previous session end to next transfer
    /// start) does not exceed `config.timeout`. Overlapping transfers (a
    /// client watching both feeds, Fig 1) always share a session.
    pub fn identify(trace: &Trace, config: SessionConfig) -> Self {
        Self::identify_with(trace, config, Parallelism::auto())
    }

    /// Identifies sessions with an explicit worker count. The result is
    /// identical at every worker count: transfers are ordered by the
    /// canonical total key `(client, start, timestamp, index)`, the
    /// ordered index list is partitioned at client boundaries, and each
    /// worker sessionizes whole clients independently.
    pub fn identify_with(trace: &Trace, config: SessionConfig, par: Parallelism) -> Self {
        Self::identify_view(&trace.entries(), config, par)
    }

    /// Identifies sessions directly from column slices — the `ltc`
    /// columnar fast path. Produces exactly what [`identify`](Self::identify)
    /// produces on the equivalent entry array: the canonical `(client,
    /// start, timestamp, index)` sort makes [`Sessions::all`] independent
    /// of the input record order.
    pub fn identify_columns(
        cols: TransferColumns<'_>,
        config: SessionConfig,
        par: Parallelism,
    ) -> Self {
        assert!(
            cols.start.len() == cols.client.len()
                && cols.timestamp.len() == cols.client.len()
                && cols.stop.len() == cols.client.len(),
            "transfer columns must have equal lengths"
        );
        Self::identify_view(&cols, config, par)
    }

    /// The shared core behind both identify paths.
    fn identify_view<V: TransferView>(view: &V, config: SessionConfig, par: Parallelism) -> Self {
        assert!(config.timeout >= 0.0, "negative session timeout");
        // Canonical order: (client, start, timestamp, index) is a total
        // key, so the unstable sort is deterministic even on duplicate
        // entries.
        let mut order: Vec<u32> = (0..view.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (view.client(i), view.start(i), view.timestamp(i), i));

        // Partition the ordered list into contiguous shards, nudging each
        // boundary forward to the next client boundary so no client's run
        // is split across workers.
        let shards = client_shards(&order, view, par.threads());
        let parts: Vec<(Vec<Session>, Vec<u32>)> = if shards.len() == 1 {
            vec![sessionize_run(&order, view, config.timeout)]
        } else {
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|r| {
                        let run = &order[r.clone()];
                        s.spawn(move || sessionize_run(run, view, config.timeout))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(shard) => shard,
                        Err(payload) => std::panic::resume_unwind(payload),
                    })
                    .collect()
            })
        };

        // Concatenate in shard order: shards are contiguous slices of the
        // canonical order, so the joined entry_order equals the sequential
        // one exactly; session `first` offsets shift by the prefix length.
        let mut sessions = Vec::new();
        let mut entry_order = Vec::with_capacity(view.len());
        for (mut shard_sessions, mut shard_order) in parts {
            let offset = entry_order.len() as u32;
            for s in &mut shard_sessions {
                s.first += offset;
            }
            sessions.append(&mut shard_sessions);
            entry_order.append(&mut shard_order);
        }
        // (start, end, client) is unique across sessions — one client's
        // sessions are time-disjoint — so this sort is deterministic too.
        sessions.sort_by_key(|s| (s.start, s.end, s.client));
        Self {
            config,
            sessions,
            entry_order,
        }
    }

    /// The configuration used.
    pub fn config(&self) -> SessionConfig {
        self.config
    }

    /// Sessions in start-time order.
    pub fn all(&self) -> &[Session] {
        &self.sessions
    }

    /// Number of sessions identified (the y-axis of Fig 9).
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no sessions were identified.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The session-grouped transfer index order (into `Trace::entries()`).
    ///
    /// This is the canonical `(client, start, timestamp, index)` order at
    /// every worker count: each client's transfers are contiguous and
    /// sorted by `(start, timestamp)`. The Fig 9 timeout sweep reads the
    /// per-client gaps off it without sorting again.
    pub fn entry_order(&self) -> &[u32] {
        &self.entry_order
    }

    /// The trace entries of one session.
    pub fn entries_of<'t>(&self, s: &Session, trace: &'t Trace) -> Vec<&'t LogEntry> {
        self.entry_order[s.first as usize..(s.first + s.transfers) as usize]
            .iter()
            .map(|&i| &trace.entries()[i as usize])
            .collect()
    }

    /// Session ON times `l(i)` in seconds (Fig 11).
    pub fn on_times(&self) -> Vec<f64> {
        self.sessions.iter().map(|s| s.on_time() as f64).collect()
    }

    /// Session OFF times `f(i)` in seconds (Fig 12): for consecutive
    /// sessions `i, j` of the *same* client, `t(j) − t(i) − l(i)`.
    pub fn off_times(&self) -> Vec<f64> {
        // Group by client: collect (client, start, end) and sort.
        let mut by_client: Vec<(ClientId, u32, u32)> = self
            .sessions
            .iter()
            .map(|s| (s.client, s.start, s.end))
            .collect();
        by_client.sort_unstable();
        let mut out = Vec::new();
        for w in by_client.windows(2) {
            let (c1, _, end1) = w[0];
            let (c2, start2, _) = w[1];
            if c1 == c2 {
                out.push(start2 as f64 - end1 as f64);
            }
        }
        out
    }

    /// Transfers per session (Fig 13).
    pub fn transfers_per_session(&self) -> Vec<u64> {
        self.sessions
            .iter()
            .map(|s| u64::from(s.transfers))
            .collect()
    }

    /// Interarrival times between transfers *within* the same session
    /// (Fig 14), across all sessions.
    pub fn intra_session_interarrivals(&self, trace: &Trace) -> Vec<f64> {
        let entries = trace.entries();
        let mut out = Vec::new();
        for s in &self.sessions {
            let idxs = &self.entry_order[s.first as usize..(s.first + s.transfers) as usize];
            for w in idxs.windows(2) {
                let a = entries[w[0] as usize].start as f64;
                let b = entries[w[1] as usize].start as f64;
                debug_assert!(b >= a, "session transfers out of order");
                out.push(b - a);
            }
        }
        out
    }

    /// Session arrival times `t(i)` in start order.
    pub fn arrival_times(&self) -> Vec<f64> {
        self.sessions.iter().map(|s| s.start as f64).collect()
    }

    /// Client interarrival times (§3.3): gaps between consecutive session
    /// arrivals that belong to *different* clients.
    pub fn client_interarrivals(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for w in self.sessions.windows(2) {
            if w[0].client != w[1].client {
                out.push(w[1].start as f64 - w[0].start as f64);
            }
        }
        out
    }

    /// Sessions per client (Fig 7 right), one count per client in
    /// ascending client-id order. (The order is fixed, though
    /// `RankFrequency::from_counts` does not depend on it.)
    pub fn session_counts_per_client(&self) -> Vec<u64> {
        let mut clients: Vec<u32> = self.sessions.iter().map(|s| s.client.0).collect();
        clients.sort_unstable();
        run_lengths(&clients)
    }
}

/// The lengths of the runs of equal values in sorted `keys`.
fn run_lengths(keys: &[u32]) -> Vec<u64> {
    keys.chunk_by(|a, b| a == b)
        .map(|run| run.len() as u64)
        .collect()
}

/// Splits the canonically ordered index list into at most `workers`
/// contiguous shards whose boundaries always coincide with client
/// boundaries (a client's whole run lands in exactly one shard).
fn client_shards<V: TransferView>(
    order: &[u32],
    view: &V,
    workers: usize,
) -> Vec<std::ops::Range<usize>> {
    let n = order.len();
    let workers = workers.min(n).max(1);
    let mut shards = Vec::with_capacity(workers);
    let mut start = 0usize;
    for w in 1..=workers {
        if start >= n {
            break;
        }
        let mut end = if w == workers {
            n
        } else {
            (n * w / workers).max(start + 1)
        };
        // Advance to the next client boundary.
        while end < n && view.client(order[end]) == view.client(order[end - 1]) {
            end += 1;
        }
        shards.push(start..end);
        start = end;
    }
    if shards.is_empty() {
        shards.push(0..0);
    }
    shards
}

/// Sessionizes one canonical-order run of transfer indices (whole clients
/// only). Returns sessions in client-run order plus the run's entry order;
/// `Session::first` offsets are local to the returned entry order.
fn sessionize_run<V: TransferView>(
    order: &[u32],
    view: &V,
    timeout: f64,
) -> (Vec<Session>, Vec<u32>) {
    let mut sessions = Vec::new();
    let mut entry_order = Vec::with_capacity(order.len());
    let mut i = 0usize;
    while i < order.len() {
        let client = view.client(order[i]);
        // The run of this client's transfers.
        let mut j = i;
        while j < order.len() && view.client(order[j]) == client {
            j += 1;
        }
        // Split the run into sessions.
        let mut s_start = view.start(order[i]);
        let mut s_end = view.stop(order[i]);
        let mut first = entry_order.len() as u32;
        let mut count = 1u32;
        entry_order.push(order[i]);
        for &idx in &order[i + 1..j] {
            let (e_start, e_stop) = (view.start(idx), view.stop(idx));
            let gap = e_start as f64 - s_end as f64;
            if gap > timeout {
                sessions.push(Session {
                    client,
                    start: s_start,
                    end: s_end,
                    first,
                    transfers: count,
                });
                s_start = e_start;
                s_end = e_stop;
                first = entry_order.len() as u32;
                count = 1;
            } else {
                s_end = s_end.max(e_stop);
                count += 1;
            }
            entry_order.push(idx);
        }
        sessions.push(Session {
            client,
            start: s_start,
            end: s_end,
            first,
            transfers: count,
        });
        i = j;
    }
    (sessions, entry_order)
}

/// Transfers per client (Fig 7 left), one count per client in ascending
/// client-id order. Lives here (not on [`Sessions`]) because it needs only
/// the trace.
pub fn transfer_counts_per_client(trace: &Trace) -> Vec<u64> {
    let mut clients: Vec<u32> = trace.entries().iter().map(|e| e.client.0).collect();
    clients.sort_unstable();
    run_lengths(&clients)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogEntryBuilder;

    fn entry(client: u32, start: u32, dur: u32) -> LogEntry {
        LogEntryBuilder::new()
            .span(start, dur)
            .client(ClientId(client))
            .build()
    }

    fn cfg(timeout: f64) -> SessionConfig {
        SessionConfig { timeout }
    }

    #[test]
    fn single_client_gap_splits_sessions() {
        // Transfers at 0-10 and 2000-2010 with To = 1500: two sessions.
        let t = Trace::from_entries(vec![entry(1, 0, 10), entry(1, 2000, 10)], 86_400);
        let s = Sessions::identify(&t, cfg(1500.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.all()[0].transfers, 1);
        // OFF time = 2000 - 10 = 1990.
        assert_eq!(s.off_times(), vec![1990.0]);
    }

    #[test]
    fn gap_equal_to_timeout_does_not_split() {
        // "does not exceed" To ⇒ gap == To stays in-session.
        let t = Trace::from_entries(vec![entry(1, 0, 10), entry(1, 1510, 5)], 86_400);
        let s = Sessions::identify(&t, cfg(1500.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.all()[0].transfers, 2);
        assert_eq!(s.all()[0].on_time(), 1515);
    }

    #[test]
    fn overlapping_transfers_share_session() {
        // Client watches both feeds simultaneously (Fig 1).
        let t = Trace::from_entries(vec![entry(1, 0, 100), entry(1, 20, 30)], 86_400);
        let s = Sessions::identify(&t, cfg(1500.0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.all()[0].on_time(), 100);
        assert_eq!(s.all()[0].transfers, 2);
    }

    #[test]
    fn session_end_is_max_stop_not_last_stop() {
        // Second transfer ends before the first: end must stay at 100.
        let t = Trace::from_entries(vec![entry(1, 0, 100), entry(1, 50, 10)], 86_400);
        let s = Sessions::identify(&t, cfg(1500.0));
        assert_eq!(s.all()[0].end, 100);
        // A transfer at 1700 is within To of end=100? gap = 1600 > 1500 ⇒ split.
        let t2 = Trace::from_entries(
            vec![entry(1, 0, 100), entry(1, 50, 10), entry(1, 1700, 5)],
            86_400,
        );
        let s2 = Sessions::identify(&t2, cfg(1500.0));
        assert_eq!(s2.len(), 2);
    }

    #[test]
    fn clients_sessionized_independently() {
        let t = Trace::from_entries(
            vec![
                entry(1, 0, 10),
                entry(2, 5, 10),
                entry(1, 100, 10),
                entry(2, 5000, 1),
            ],
            86_400,
        );
        let s = Sessions::identify(&t, cfg(1500.0));
        // Client 1: one session (gap 90 ≤ 1500). Client 2: two sessions.
        assert_eq!(s.len(), 3);
        let per_client = s.session_counts_per_client();
        let mut pc = per_client.clone();
        pc.sort_unstable();
        assert_eq!(pc, vec![1, 2]);
    }

    #[test]
    fn transfers_per_session_and_intra_arrivals() {
        let t = Trace::from_entries(
            vec![entry(1, 0, 10), entry(1, 30, 10), entry(1, 90, 10)],
            86_400,
        );
        let s = Sessions::identify(&t, cfg(1500.0));
        assert_eq!(s.transfers_per_session(), vec![3]);
        assert_eq!(s.intra_session_interarrivals(&t), vec![30.0, 60.0]);
    }

    #[test]
    fn client_interarrivals_skip_same_client() {
        let t = Trace::from_entries(
            vec![entry(1, 0, 1), entry(2, 10, 1), entry(3, 25, 1)],
            86_400,
        );
        let s = Sessions::identify(&t, cfg(1500.0));
        assert_eq!(s.client_interarrivals(), vec![10.0, 15.0]);
    }

    #[test]
    fn timeout_sweep_monotone() {
        // Fig 9's premise: smaller To ⇒ more sessions, monotonically.
        let mut entries = Vec::new();
        for c in 0..20u32 {
            for k in 0..30u32 {
                entries.push(entry(c, k * 700 + c * 13, 20));
            }
        }
        let t = Trace::from_entries(entries, 86_400);
        let mut prev = usize::MAX;
        for to in [60.0, 300.0, 700.0, 1_500.0, 4_000.0] {
            let n = Sessions::identify(&t, cfg(to)).len();
            assert!(n <= prev, "sessions must not increase with To");
            prev = n;
        }
        // Extremes: To=0 ⇒ almost every transfer its own session;
        // To=huge ⇒ one session per client.
        assert_eq!(Sessions::identify(&t, cfg(1e9)).len(), 20);
    }

    #[test]
    fn entries_of_returns_session_transfers() {
        let t = Trace::from_entries(
            vec![entry(1, 0, 10), entry(1, 30, 10), entry(1, 5_000, 10)],
            86_400,
        );
        let s = Sessions::identify(&t, cfg(1500.0));
        assert_eq!(s.len(), 2);
        let first = s.entries_of(&s.all()[0], &t);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].start, 0);
        assert_eq!(first[1].start, 30);
        let second = s.entries_of(&s.all()[1], &t);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].start, 5_000);
    }

    #[test]
    fn transfer_counts_per_client_totals() {
        let t = Trace::from_entries(vec![entry(1, 0, 1), entry(1, 5, 1), entry(2, 9, 1)], 86_400);
        let mut counts = transfer_counts_per_client(&t);
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn sharded_identify_matches_sequential() {
        // Many interleaved clients with multi-session timelines, so the
        // shard boundaries land mid-list and must snap to client runs.
        let mut entries = Vec::new();
        for c in 0..37u32 {
            for k in 0..12u32 {
                entries.push(entry(c, k * 1_600 + c * 7, 25 + (k % 5)));
            }
        }
        let t = Trace::from_entries(entries, 86_400);
        let seq = Sessions::identify_with(&t, cfg(1500.0), Parallelism::fixed(1));
        assert!(seq.len() > 37, "fixture must split sessions");
        for workers in [2, 3, 8, 64] {
            let par = Sessions::identify_with(&t, cfg(1500.0), Parallelism::fixed(workers));
            assert_eq!(par.all(), seq.all(), "sessions differ at {workers} workers");
            assert_eq!(
                par.entry_order(),
                seq.entry_order(),
                "entry order differs at {workers} workers"
            );
        }
    }

    #[test]
    fn entry_order_is_client_contiguous_and_time_sorted() {
        // Interleaved clients, duplicate starts (ordered by timestamp) and
        // exact duplicates, so every tiebreak of the canonical key shows.
        let mut entries = Vec::new();
        for c in 0..29u32 {
            for k in 0..11u32 {
                let start = (k * 1_300 + c * 17) % 9_000;
                entries.push(entry(c, start, 5 + (k % 4) * 40));
                if k % 3 == 0 {
                    entries.push(entry(c, start, 5 + (k % 4) * 40));
                    entries.push(entry(c, start, 1));
                }
            }
        }
        let t = Trace::from_entries(entries, 86_400);
        for workers in [1, 3, 8] {
            let s = Sessions::identify_with(&t, cfg(1500.0), Parallelism::fixed(workers));
            let order = s.entry_order();
            assert_eq!(order.len(), t.len());
            // Clients whose run has started; a client seen again is split.
            let mut seen =
                std::collections::BTreeSet::from([t.entries()[order[0] as usize].client]);
            for w in order.windows(2) {
                let (a, b) = (&t.entries()[w[0] as usize], &t.entries()[w[1] as usize]);
                if a.client == b.client {
                    assert!(
                        (a.start, a.timestamp) <= (b.start, b.timestamp),
                        "client {:?} out of order at {workers} workers",
                        a.client
                    );
                } else {
                    assert!(
                        seen.insert(b.client),
                        "client {:?} split at {workers} workers",
                        b.client
                    );
                }
            }
            assert_eq!(seen.len(), 29, "workers = {workers}");
        }
    }

    #[test]
    fn columnar_path_matches_entry_path() {
        // Unsorted, interleaved record order: the canonical sort inside
        // identify makes both paths agree session-for-session.
        let mut entries = Vec::new();
        for c in 0..23u32 {
            for k in 0..9u32 {
                entries.push(entry(c, ((k * 1_700 + c * 31) % 20_000) + k, 10 + (k % 7)));
            }
        }
        let t = Trace::from_entries(entries.clone(), 86_400);
        let from_trace = Sessions::identify(&t, cfg(1500.0));

        // Columns in raw (pre-sort) record order.
        let client: Vec<u32> = entries.iter().map(|e| e.client.0).collect();
        let start: Vec<u32> = entries.iter().map(|e| e.start).collect();
        let timestamp: Vec<u32> = entries.iter().map(|e| e.timestamp).collect();
        let stop: Vec<u32> = entries.iter().map(|e| e.stop()).collect();
        for workers in [1, 3, 8] {
            let from_cols = Sessions::identify_columns(
                TransferColumns {
                    client: &client,
                    start: &start,
                    timestamp: &timestamp,
                    stop: &stop,
                },
                cfg(1500.0),
                Parallelism::fixed(workers),
            );
            assert_eq!(from_cols.all(), from_trace.all(), "workers = {workers}");
        }
    }

    #[test]
    fn empty_trace_yields_no_sessions() {
        let t = Trace::from_entries(vec![], 100);
        let s = Sessions::identify(&t, SessionConfig::default());
        assert!(s.is_empty());
        assert!(s.off_times().is_empty());
        assert!(s.client_interarrivals().is_empty());
    }
}
