//! A channel-based transport for the thread-per-node runtime.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};

use penelope_testkit::rng::Rng;
use penelope_units::{NodeId, SimTime};

use crate::envelope::Envelope;
use crate::fault::FaultPlane;

struct Inner<M> {
    senders: Vec<Mutex<Sender<Envelope<M>>>>,
    faults: RwLock<FaultPlane>,
}

/// An in-process message network for `penelope-runtime`: one unbounded
/// channel per node, with the same [`FaultPlane`] semantics as the simulated
/// network enforced at send time, and — like [`SimNet`](crate::SimNet) —
/// routing that is a function of the caller's clock and RNG.
pub struct ThreadNet<M> {
    inner: Arc<Inner<M>>,
}

impl<M> Clone for ThreadNet<M> {
    fn clone(&self) -> Self {
        ThreadNet {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// A node's handle on the [`ThreadNet`]: its receive queue plus the shared
/// send side.
pub struct ThreadEndpoint<M> {
    id: NodeId,
    net: ThreadNet<M>,
    rx: Receiver<Envelope<M>>,
}

impl<M: Send> ThreadNet<M> {
    /// Create a network of `n` nodes, returning the shared handle and one
    /// endpoint per node (index = `NodeId`).
    pub fn new(n: usize) -> (Self, Vec<ThreadEndpoint<M>>) {
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(Mutex::new(tx));
            receivers.push(rx);
        }
        let net = ThreadNet {
            inner: Arc::new(Inner {
                senders,
                faults: RwLock::new(FaultPlane::healthy()),
            }),
        };
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| ThreadEndpoint {
                id: NodeId::new(i as u32),
                net: net.clone(),
                rx,
            })
            .collect();
        (net, endpoints)
    }

    /// Send `msg` from `src` to `dst` at `now`. Returns `false` if the
    /// message was lost to the fault plane's drop rate or refused (dead
    /// endpoint, partition, unknown destination).
    ///
    /// The fault decision is [`FaultPlane::carries`], with the loss drawn
    /// from the caller's `rng`. In-process channel delivery is
    /// effectively instant, matching the sub-millisecond LAN of the paper's
    /// testbed, so `deliver_at == sent_at` here.
    pub fn send<R: Rng + ?Sized>(
        &self,
        src: NodeId,
        dst: NodeId,
        msg: M,
        now: SimTime,
        rng: &mut R,
    ) -> bool {
        if !self.inner.faults.read().unwrap().carries(src, dst, rng) {
            return false;
        }
        let Some(tx) = self.inner.senders.get(dst.index()) else {
            return false;
        };
        let env = Envelope {
            src,
            dst,
            sent_at: now,
            deliver_at: now,
            msg,
        };
        tx.lock().unwrap().send(env).is_ok()
    }

    /// Apply a mutation to the shared fault plane (kill/revive/partition,
    /// drop rate).
    pub fn with_faults<T>(&self, f: impl FnOnce(&mut FaultPlane) -> T) -> T {
        f(&mut self.inner.faults.write().unwrap())
    }
}

impl<M: Send> ThreadEndpoint<M> {
    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Send from this endpoint; see [`ThreadNet::send`].
    pub fn send<R: Rng + ?Sized>(&self, dst: NodeId, msg: M, now: SimTime, rng: &mut R) -> bool {
        self.net.send(self.id, dst, msg, now, rng)
    }

    /// Non-blocking receive. Messages addressed to a node that has since
    /// been killed are dropped here (a dead node must not act on traffic).
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        // `Err` is an empty or a disconnected queue: nothing to deliver.
        while let Ok(env) = self.rx.try_recv() {
            if self.net.inner.faults.read().unwrap().is_alive(self.id) {
                return Some(env);
            }
            // Drain silently while dead.
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::rng::TestRng;
    use std::thread;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Send at time zero with a throwaway loss stream.
    fn send<M: Send>(net: &ThreadNet<M>, src: u32, dst: u32, msg: M) -> bool {
        let mut rng = TestRng::seed_from_u64(0);
        net.send(n(src), n(dst), msg, SimTime::ZERO, &mut rng)
    }

    #[test]
    fn point_to_point_delivery() {
        let (net, eps) = ThreadNet::<u32>::new(3);
        let mut rng = TestRng::seed_from_u64(0);
        assert!(net.send(n(0), n(2), 42, SimTime::from_secs(3), &mut rng));
        let env = eps[2].try_recv().expect("msg");
        assert_eq!(env.msg, 42);
        assert_eq!(env.src, n(0));
        assert_eq!(env.sent_at, SimTime::from_secs(3));
        assert_eq!(env.latency(), penelope_units::SimDuration::ZERO);
    }

    #[test]
    fn try_recv_empty_is_none() {
        let (_net, eps) = ThreadNet::<u32>::new(2);
        assert!(eps[0].try_recv().is_none());
    }

    #[test]
    fn dead_destination_refused() {
        let (net, eps) = ThreadNet::<u32>::new(2);
        net.with_faults(|f| f.kill(n(1)));
        assert!(!send(&net, 0, 1, 1));
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn dead_receiver_drains_queued_traffic() {
        let (net, eps) = ThreadNet::<u32>::new(2);
        assert!(send(&net, 0, 1, 7));
        // The message is already queued when the node dies.
        net.with_faults(|f| f.kill(n(1)));
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn unknown_destination_refused() {
        let (net, _eps) = ThreadNet::<u32>::new(2);
        assert!(!send(&net, 0, 9, 1));
    }

    #[test]
    fn partition_enforced() {
        let (net, eps) = ThreadNet::<u32>::new(4);
        net.with_faults(|f| {
            f.partition(vec![
                [n(0), n(1)].into_iter().collect(),
                [n(2), n(3)].into_iter().collect(),
            ])
        });
        assert!(!send(&net, 0, 2, 1));
        assert!(send(&net, 0, 1, 2));
        assert_eq!(eps[1].try_recv().unwrap().msg, 2);
    }

    #[test]
    fn drop_rate_draws_once_per_send_from_the_callers_stream() {
        let (net, eps) = ThreadNet::<u32>::new(2);
        let mut rng = TestRng::seed_from_u64(7);
        // A healthy plane draws nothing.
        assert!(net.send(n(0), n(1), 0, SimTime::ZERO, &mut rng));
        assert_eq!(rng.next_u64(), TestRng::seed_from_u64(7).next_u64());

        net.with_faults(|f| f.set_drop_rate(0.5));
        let mut rng = TestRng::seed_from_u64(7);
        let mut oracle = TestRng::seed_from_u64(7);
        for k in 0..200 {
            // One draw per send, dead destination or not.
            if k == 100 {
                net.with_faults(|f| f.kill(n(1)));
            }
            let lost = oracle.gen_bool(0.5);
            let sent = net.send(n(0), n(1), k, SimTime::ZERO, &mut rng);
            assert_eq!(sent, !lost && k < 100, "send {k}");
        }
        assert_eq!(rng.next_u64(), oracle.next_u64());
        net.with_faults(|f| f.revive(n(1)));
        let got = std::iter::from_fn(|| eps[1].try_recv()).count();
        assert!(
            (30..=70).contains(&(got - 1)),
            "{got} of 100 survived 50 % loss"
        );
    }

    #[test]
    fn concurrent_senders_all_arrive() {
        let (net, mut eps) = ThreadNet::<u64>::new(9);
        let sink = eps.pop().unwrap(); // node 8
        let handles: Vec<_> = (0..8u32)
            .map(|i| {
                let net = net.clone();
                thread::spawn(move || {
                    for k in 0..100u64 {
                        assert!(send(&net, i, 8, u64::from(i) * 1000 + k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while sink.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 800);
    }

    #[test]
    fn endpoint_send_uses_own_id() {
        let (_net, eps) = ThreadNet::<u32>::new(2);
        let mut rng = TestRng::seed_from_u64(0);
        assert!(eps[0].send(n(1), 5, SimTime::ZERO, &mut rng));
        let env = eps[1].try_recv().unwrap();
        assert_eq!(env.src, n(0));
        assert_eq!(eps[0].id(), n(0));
    }
}
