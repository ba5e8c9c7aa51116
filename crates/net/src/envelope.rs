//! Message envelopes.

use penelope_units::{NodeId, SimTime};

/// A message in flight between two nodes.
///
/// The envelope carries both the send and the delivery timestamp so metrics
/// (turnaround time, §4.5.2) can be computed without side tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual time at which the message was sent.
    pub sent_at: SimTime,
    /// Virtual time at which the message arrives at `dst`.
    pub deliver_at: SimTime,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// Map the payload, keeping routing metadata (used when wrapping
    /// protocol-specific messages into the simulator's unified event type).
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> Envelope<N> {
        Envelope {
            src: self.src,
            dst: self.dst,
            sent_at: self.sent_at,
            deliver_at: self.deliver_at,
            msg: f(self.msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_metadata() {
        let e = Envelope {
            src: NodeId::new(3),
            dst: NodeId::new(4),
            sent_at: SimTime::from_secs(1),
            deliver_at: SimTime::from_secs(2),
            msg: 7u32,
        };
        let e2 = e.map(|v| v * 2);
        assert_eq!(e2.msg, 14);
        assert_eq!(e2.src, NodeId::new(3));
        assert_eq!(e2.dst, NodeId::new(4));
        assert_eq!(e2.sent_at, SimTime::from_secs(1));
        assert_eq!(e2.deliver_at, SimTime::from_secs(2));
    }
}
