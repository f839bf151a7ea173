//! Metric value types for the traffic layer: log2 message-size histograms
//! and the rank×rank communication matrix.
//!
//! Both are deterministic functions of the algorithm and problem (unlike
//! wall times), which is what lets the `report-gate` CI mode compare them
//! *exactly* against a committed reference report.

use std::fmt::Write as _;

/// Number of log2 size buckets: bucket 0 holds zero-byte messages, bucket
/// `k ≥ 1` holds sizes in `[2^(k-1), 2^k)`, so bucket 64 holds
/// `[2^63, u64::MAX]` and the buckets partition `u64` exactly.
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a message of `size` bytes falls into.
///
/// `0 → 0`, otherwise `floor(log2(size)) + 1`. Every `u64` maps to exactly
/// one bucket (pinned by a property test).
#[inline]
pub fn size_bucket(size: u64) -> usize {
    if size == 0 {
        0
    } else {
        64 - size.leading_zeros() as usize
    }
}

/// Human label for a bucket: the inclusive size range it covers.
pub fn bucket_label(bucket: usize) -> String {
    assert!(bucket < HIST_BUCKETS, "bucket {bucket} out of range");
    match bucket {
        0 => "0 B".to_owned(),
        1 => "1 B".to_owned(),
        64 => format!("≥ {}", fmt_bytes(1u64 << 63)),
        k => format!(
            "{}–{}",
            fmt_bytes(1u64 << (k - 1)),
            fmt_bytes((1u64 << k) - 1)
        ),
    }
}

/// Formats a byte count with a binary-prefix unit.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} {}", UNITS[0])
    } else if v >= 100.0 {
        format!("{v:.0} {}", UNITS[u])
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// A log2 message-size histogram: counts per bucket plus running totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SizeHistogram {
    counts: Vec<u64>,
    /// Total messages recorded (= sum of bucket counts).
    pub msgs: u64,
    /// Total payload bytes recorded.
    pub bytes: u64,
}

impl SizeHistogram {
    /// An empty histogram.
    pub fn new() -> SizeHistogram {
        SizeHistogram::default()
    }

    /// Records one message of `size` bytes.
    pub fn record(&mut self, size: u64) {
        self.add_bucket(size_bucket(size), 1, size);
    }

    /// Records `msgs` messages of `bytes` bytes in all, every one of them
    /// in bucket `b`.
    pub(crate) fn add_bucket(&mut self, b: usize, msgs: u64, bytes: u64) {
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += msgs;
        self.msgs += msgs;
        self.bytes += bytes;
    }

    /// Rebuilds a histogram from sparse `(bucket, count)` pairs plus the
    /// byte total (the JSON wire form). Fails on out-of-range or duplicate
    /// buckets, and on a byte total the bucket ranges cannot add up to;
    /// `msgs` is recomputed as the sum of counts.
    pub fn from_parts(buckets: &[(usize, u64)], bytes: u64) -> Result<SizeHistogram, String> {
        let mut h = SizeHistogram::new();
        let (mut lo, mut hi) = (0u128, 0u128);
        for &(b, c) in buckets {
            if b >= HIST_BUCKETS {
                return Err(format!(
                    "bucket {b} out of range (max {})",
                    HIST_BUCKETS - 1
                ));
            }
            if h.counts.len() <= b {
                h.counts.resize(b + 1, 0);
            }
            if h.counts[b] != 0 {
                return Err(format!("bucket {b} appears twice"));
            }
            h.counts[b] = c;
            h.msgs += c;
            // Bucket `b` holds sizes in `[2^(b-1), 2^b - 1]` (bucket 0: only 0).
            let (min, max) = match b {
                0 => (0, 0),
                b => (1u128 << (b - 1), (1u128 << b) - 1),
            };
            lo = lo.saturating_add(min * c as u128);
            hi = hi.saturating_add(max * c as u128);
        }
        if !(lo..=hi).contains(&(bytes as u128)) {
            return Err(format!(
                "{bytes} B is outside the buckets' range [{lo}, {hi}]"
            ));
        }
        h.bytes = bytes;
        Ok(h)
    }

    /// Count in one bucket (0 for buckets never touched).
    pub fn count(&self, bucket: usize) -> u64 {
        self.counts.get(bucket).copied().unwrap_or(0)
    }

    /// Non-empty `(bucket, count)` pairs in bucket order.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
            .collect()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.msgs == 0
    }

    /// Renders the histogram as horizontal bars, one line per non-empty
    /// bucket, `width` characters for the largest count.
    pub fn render_bars(&self, width: usize) -> String {
        let nz = self.nonzero();
        let max = nz.iter().map(|&(_, c)| c).max().unwrap_or(1);
        let mut out = String::new();
        for (b, c) in nz {
            let bar = (c as f64 / max as f64 * width as f64).ceil() as usize;
            let _ = writeln!(
                out,
                "  {:<16} {:>8}  {}",
                bucket_label(b),
                c,
                "#".repeat(bar.max(1))
            );
        }
        out
    }
}

/// One direction's counters between a pair of ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Payload bytes.
    pub bytes: u64,
    /// Message count.
    pub msgs: u64,
}

impl CellCounts {
    /// Accumulates another cell into this one.
    pub fn add(&mut self, other: CellCounts) {
        self.bytes += other.bytes;
        self.msgs += other.msgs;
    }
}

/// The rank×rank communication matrix of one run: `send[src][dst]` is what
/// rank `src` pushed toward `dst`, counted once, by the sender, at send
/// time. What a receiver matched is its own recv counters; for every
/// delivered message the two agree, which is what
/// [`crate::TrafficReport::check_consistency`] checks column by column.
///
/// Only touched cells are stored (one ordered map per row): a rank talks to
/// a few dozen peers whatever the world size, so the footprint follows the
/// traffic pattern — a dense `p²` grid would take ~150 MB at p = 3072.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommMatrix {
    /// `send[src][dst]`; a stored cell is never all-zero.
    send: Vec<Row>,
}

/// One matrix row: peer rank → counters, touched cells only.
pub(crate) type Row = std::collections::BTreeMap<usize, CellCounts>;

impl CommMatrix {
    /// An all-zero matrix for `p` ranks.
    pub fn new(p: usize) -> CommMatrix {
        CommMatrix {
            send: vec![Row::new(); p],
        }
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.send.len()
    }

    /// Rebuilds a matrix from its sparse wire form, `(src, dst, counts)`
    /// cells. Unlisted cells are zero, and so is a listed all-zero one.
    /// Fails on a cell listed twice; callers validate that indices are in
    /// range when parsing.
    pub fn from_sparse(
        p: usize,
        cells: &[(usize, usize, CellCounts)],
    ) -> Result<CommMatrix, String> {
        let mut m = CommMatrix::new(p);
        for &(src, dst, c) in cells {
            if c != CellCounts::default() && m.send[src].insert(dst, c).is_some() {
                return Err(format!("cell ({src},{dst}) appears twice"));
            }
        }
        Ok(m)
    }

    /// Nonzero cells in row-major `(src, dst, counts)` order. Cells that
    /// carried only zero-byte messages (barriers) still count — "nonzero"
    /// means any bytes *or* any messages. This is the sparse wire form: at
    /// p = 3072 a dense `p²` grid is tens of MB of JSON while the populated
    /// cells are a few thousand rows.
    pub fn cells(&self) -> impl Iterator<Item = (usize, usize, CellCounts)> + '_ {
        self.send
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |(&j, &c)| (i, j, c)))
    }

    /// What `src` sent toward `dst`.
    pub fn sent(&self, src: usize, dst: usize) -> CellCounts {
        self.send[src].get(&dst).copied().unwrap_or_default()
    }

    /// Installs rank `rank`'s recorded row (every recorded cell carries at
    /// least one message, so none is all-zero).
    pub(crate) fn set_row(&mut self, rank: usize, sent_to: Row) {
        self.send[rank] = sent_to;
    }

    /// Everything rank `src` sent, over all destinations.
    pub fn send_row_total(&self, src: usize) -> CellCounts {
        let mut t = CellCounts::default();
        for &c in self.send[src].values() {
            t.add(c);
        }
        t
    }

    /// Renders a text heatmap of sent bytes: rows are senders, columns
    /// receivers, shaded by bytes relative to the busiest cell. Above 64
    /// ranks each cell sums a block of contiguous ranks, so the grid stays
    /// at most 64×64 (the header states the bin width); it is filled in one
    /// pass over the stored cells.
    pub fn render_heatmap(&self) -> String {
        const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        const MAX_BINS: usize = 64;
        let p = self.ranks();
        let width = p.div_ceil(MAX_BINS).max(1);
        let bins = p.div_ceil(width);
        let mut grid = vec![0u64; bins * bins];
        for (src, dst, c) in self.cells() {
            grid[src / width * bins + dst / width] += c.bytes;
        }
        let max = grid.iter().copied().max().unwrap_or(0);
        let mut out = String::new();
        let bin = if width > 1 {
            format!(" / {width}")
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "  send-side bytes, row = src rank{bin}, col = dst rank{bin} (max cell {}):",
            fmt_bytes(max)
        );
        let _ = write!(out, "       ");
        for dst in 0..bins {
            let _ = write!(out, "{:>3}", dst % 100);
        }
        out.push('\n');
        for (src, row) in grid.chunks(bins).enumerate() {
            let _ = write!(out, "  {src:>4} ");
            for &b in row {
                let shade = if max == 0 || b == 0 {
                    SHADES[0]
                } else {
                    // Rank cells on a linear scale into the 9 non-blank
                    // shades; any nonzero cell gets at least the lightest.
                    let idx = (b as f64 / max as f64 * 9.0).ceil() as usize;
                    SHADES[idx.clamp(1, 9)]
                };
                let _ = write!(out, "  {shade}");
            }
            let _ = writeln!(out, "   | {}", fmt_bytes(row.iter().sum()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_cells_round_trip() {
        let mut m = CommMatrix::new(4);
        m.set_row(
            1,
            Row::from([
                (2, CellCounts { bytes: 64, msgs: 2 }),
                (3, CellCounts { bytes: 0, msgs: 1 }), // zero-byte barrier msg
            ]),
        );
        let send: Vec<_> = m.cells().collect();
        assert_eq!(send.len(), 2, "{send:?}");
        assert_eq!(send[0], (1, 2, CellCounts { bytes: 64, msgs: 2 }));
        assert_eq!(send[1], (1, 3, CellCounts { bytes: 0, msgs: 1 }));
        assert_eq!(CommMatrix::from_sparse(4, &send).unwrap(), m);
        // An explicitly listed all-zero cell is the same matrix as an
        // unlisted one; a cell listed twice is refused, not merged.
        let mut padded = send.clone();
        padded.push((0, 3, CellCounts::default()));
        assert_eq!(CommMatrix::from_sparse(4, &padded).unwrap(), m);
        assert_eq!(m.sent(0, 3), CellCounts::default());
        padded.push(send[0]);
        let e = CommMatrix::from_sparse(4, &padded).unwrap_err();
        assert!(e.contains("(1,2) appears twice"), "{e}");
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert_eq!(size_bucket(2), 2);
        assert_eq!(size_bucket(3), 2);
        assert_eq!(size_bucket(4), 3);
        assert_eq!(size_bucket(1023), 10);
        assert_eq!(size_bucket(1024), 11);
        assert_eq!(size_bucket(u64::MAX), 64);
        assert_eq!(size_bucket(1u64 << 63), 64);
        assert_eq!(size_bucket((1u64 << 63) - 1), 63);
    }

    #[test]
    fn histogram_counts() {
        let mut h = SizeHistogram::new();
        for s in [0u64, 1, 7, 8, 8, 1024] {
            h.record(s);
        }
        assert_eq!(h.msgs, 6);
        assert_eq!(h.bytes, 1 + 7 + 8 + 8 + 1024);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(3), 1); // 7 ∈ [4,8)
        assert_eq!(h.count(4), 2); // 8 ∈ [8,16)
        assert_eq!(h.count(11), 1); // 1024 ∈ [1024,2048)
        let total: u64 = h.nonzero().iter().map(|&(_, c)| c).sum();
        assert_eq!(total, h.msgs);

        // Two 8-byte messages at once are two `record(8)`s.
        let mut h2 = SizeHistogram::new();
        h2.record(1);
        h2.add_bucket(size_bucket(8), 2, 16);
        h2.record(0);
        h2.record(7);
        h2.record(1024);
        assert_eq!(h2, h);
        assert!(h2.render_bars(20).contains('#'));
    }

    #[test]
    fn bucket_labels_cover_all() {
        for b in 0..HIST_BUCKETS {
            assert!(!bucket_label(b).is_empty());
        }
        assert_eq!(bucket_label(0), "0 B");
        assert_eq!(bucket_label(1), "1 B");
        assert_eq!(bucket_label(2), "2 B–3 B");
        assert!(bucket_label(11).starts_with("1.0 KiB"));
    }

    #[test]
    fn matrix_totals() {
        let m = CommMatrix::from_sparse(
            3,
            &[
                (0, 1, CellCounts { bytes: 10, msgs: 1 }),
                (0, 2, CellCounts { bytes: 20, msgs: 2 }),
            ],
        )
        .unwrap();
        assert_eq!(m.send_row_total(0), CellCounts { bytes: 30, msgs: 3 });
        assert_eq!(m.send_row_total(1), CellCounts::default());
        let map = m.render_heatmap();
        assert!(map.contains("row = src rank, col = dst rank"), "{map}");
    }

    #[test]
    fn histogram_bytes_must_fit_the_buckets() {
        // One message in bucket 3 is 4–7 bytes.
        assert!(SizeHistogram::from_parts(&[(3, 1)], 4).is_ok());
        assert!(SizeHistogram::from_parts(&[(3, 1)], 7).is_ok());
        for bytes in [3, 8] {
            let e = SizeHistogram::from_parts(&[(3, 1)], bytes).unwrap_err();
            assert!(e.contains("outside the buckets' range [4, 7]"), "{e}");
        }
        assert!(SizeHistogram::from_parts(&[(0, 1)], 5).is_err());
        assert!(SizeHistogram::from_parts(&[(64, 1)], u64::MAX).is_ok());
        assert!(SizeHistogram::from_parts(&[(64, 2)], u64::MAX).is_err());
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(800), "800 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 << 20).starts_with("3.0 MiB"));
    }
}
