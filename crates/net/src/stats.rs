//! Network traffic counters.

/// Counters for messages handled by a network substrate.
///
/// The scalability analysis (§4.5) reasons about message load — how many
/// requests hit the central server versus how load spreads across peer
/// pools — so both transports keep these counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted for delivery.
    pub delivered: u64,
    /// Messages lost to the random drop rate.
    pub dropped_random: u64,
    /// Messages refused because an endpoint was dead.
    pub dropped_dead: u64,
    /// Messages refused because the endpoints were partitioned apart.
    pub dropped_partition: u64,
}

impl NetStats {
    /// Total messages offered to the network.
    pub fn offered(&self) -> u64 {
        self.delivered + self.dropped()
    }

    /// Total messages lost, for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped_random + self.dropped_dead + self.dropped_partition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = NetStats {
            delivered: 90,
            dropped_random: 4,
            dropped_dead: 5,
            dropped_partition: 1,
        };
        assert_eq!(s.offered(), 100);
        assert_eq!(s.dropped(), 10);
    }

    #[test]
    fn empty_stats_have_zero_loss() {
        assert_eq!(NetStats::default().dropped(), 0);
        assert_eq!(NetStats::default().offered(), 0);
    }
}
