//! Cross-machine communication accounting.
//!
//! The paper's complexity analyses (§2.2, §2.3, §3.1) are phrased in terms of
//! the number of cross-machine messages `N`, their sizes `M(·)`, and the
//! network bandwidth `B`; the experiments report message counts directly
//! (Figure 10(c)) and communication-bound running times. [`CommStats`]
//! counts the messages and bytes of the algorithm, and [`WireStats`] the
//! frames, bytes and seconds a socket transport measured on the wire.

/// Types that know their own serialized size on the wire.
///
/// Message sizes follow the paper's accounting (§3.1, Example 1): an 8-byte
/// slot per scalar field, so a node2vec walker message is 32 B, a HuGE-D
/// message `24 + 8·L` B and an InCoM message 80 B.
pub trait MessageSize {
    /// Size of this message in bytes when sent across machines.
    fn size_bytes(&self) -> usize;
}

/// Measured on-the-wire traffic of a socket transport, reported next to the
/// accounted [`CommStats`] bytes so the two can be compared directly.
/// All-zero for in-memory runs (nothing crossed a wire).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames put on the wire by this endpoint.
    pub frames_sent: u64,
    /// Frames received by this endpoint.
    pub frames_received: u64,
    /// Total bytes sent, headers included.
    pub bytes_sent: u64,
    /// Total bytes received, headers included.
    pub bytes_received: u64,
    /// Payload bytes of superstep batch/delivery frames only — the measured
    /// counterpart of [`CommStats::bytes`] (control traffic excluded).
    pub batch_bytes_sent: u64,
    /// Wall-clock nanoseconds spent blocked in socket sends/receives.
    pub wire_nanos: u64,
}

impl WireStats {
    /// Merges another record into this one (sums every counter).
    pub fn merge(&mut self, other: &WireStats) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.batch_bytes_sent += other.batch_bytes_sent;
        self.wire_nanos += other.wire_nanos;
    }

    /// Measured wire time in seconds.
    pub fn wire_secs(&self) -> f64 {
        self.wire_nanos as f64 / 1e9
    }
}

/// Aggregated communication statistics for one run (or one machine).
///
/// Equality compares the **logical trace** — messages, bytes, steps,
/// supersteps — and deliberately ignores [`CommStats::wire`]: measured wire
/// traffic is a property of the deployment (which transport, how many
/// processes), not of the algorithm, and the bit-identity properties assert
/// that the *algorithm* is unchanged across transports.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Number of cross-machine messages.
    pub messages: u64,
    /// Total bytes carried by cross-machine messages.
    pub bytes: u64,
    /// Walker (or work-item) steps that stayed on the local machine.
    pub local_steps: u64,
    /// Walker steps that had to hop to a different machine.
    pub remote_steps: u64,
    /// Number of BSP supersteps executed.
    pub supersteps: u64,
    /// Measured on-the-wire traffic (all-zero unless a socket transport ran).
    pub wire: WireStats,
}

impl PartialEq for CommStats {
    fn eq(&self, other: &Self) -> bool {
        self.messages == other.messages
            && self.bytes == other.bytes
            && self.local_steps == other.local_steps
            && self.remote_steps == other.remote_steps
            && self.supersteps == other.supersteps
    }
}

impl Eq for CommStats {}

impl CommStats {
    /// An empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a cross-machine message of `bytes` bytes.
    pub fn record_message(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.remote_steps += 1;
    }

    /// Records a step that stayed local.
    pub fn record_local_step(&mut self) {
        self.local_steps += 1;
    }

    /// Merges another record into this one.
    pub fn merge(&mut self, other: &CommStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.local_steps += other.local_steps;
        self.remote_steps += other.remote_steps;
        self.supersteps = self.supersteps.max(other.supersteps);
        self.wire.merge(&other.wire);
    }

    /// Total steps, local and remote.
    pub fn total_steps(&self) -> u64 {
        self.local_steps + self.remote_steps
    }

    /// Fraction of steps that stayed on the local machine (1.0 when no step
    /// was taken).
    pub fn locality(&self) -> f64 {
        let total = self.total_steps();
        if total == 0 {
            1.0
        } else {
            self.local_steps as f64 / total as f64
        }
    }

    /// Average message size in bytes (0 when no message was sent).
    pub fn avg_message_bytes(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.bytes as f64 / self.messages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = CommStats::new();
        a.record_message(80);
        a.record_message(80);
        a.record_local_step();
        let mut b = CommStats::new();
        b.record_message(32);
        b.record_local_step();
        b.record_local_step();
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 192);
        assert_eq!(a.local_steps, 3);
        assert_eq!(a.remote_steps, 3);
        assert_eq!(a.total_steps(), 6);
        assert!((a.locality() - 0.5).abs() < 1e-12);
        assert!((a.avg_message_bytes() - 64.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_edge_cases() {
        let s = CommStats::new();
        assert_eq!(s.locality(), 1.0);
        assert_eq!(s.avg_message_bytes(), 0.0);
    }

    #[test]
    fn equality_is_logical_and_ignores_wire_measurements() {
        let mut a = CommStats::new();
        a.record_message(80);
        let mut b = a.clone();
        b.wire.frames_sent = 12;
        b.wire.bytes_sent = 4096;
        b.wire.wire_nanos = 1_000_000;
        // Same logical trace, different deployment measurements: equal.
        assert_eq!(a, b);
        b.record_local_step();
        assert_ne!(a, b);
        // Merge sums wire counters alongside the logical trace.
        a.merge(&b);
        assert_eq!(a.wire.frames_sent, 12);
        assert_eq!(a.wire.bytes_sent, 4096);
        assert!((a.wire.wire_secs() - 1e-3).abs() < 1e-12);
    }
}
