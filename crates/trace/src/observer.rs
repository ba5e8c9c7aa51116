//! The `Observer` trait and its zero-cost plumbing.

use std::fmt;
use std::sync::Arc;

use penelope_units::{NodeId, SimDuration, SimTime};

use crate::event::{EventKind, TraceEvent};

/// A sink for protocol events.
///
/// Observers take `&self`: implementations use interior mutability (an
/// observer may be shared with other threads, such as a daemon's), and
/// substrates hold them behind a [`SharedObserver`] so configs stay `Clone`.
pub trait Observer: Send + Sync {
    /// Receive one event.
    fn on_event(&self, ev: &TraceEvent);

    /// Whether this observer wants events at all. Emission sites skip even
    /// *constructing* events when this is `false`, which is what makes the
    /// no-op observer free on the hot path.
    fn enabled(&self) -> bool {
        true
    }
}

/// The do-nothing observer: `enabled()` is `false`, so emission sites never
/// build an event for it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NoopObserver;

impl Observer for NoopObserver {
    fn on_event(&self, _ev: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// A cheaply clonable handle to an observer, embeddable in config structs.
///
/// `Default` is the no-op observer, so existing configs gain observability
/// without changing behaviour; `emit` takes a closure so disabled observers
/// cost one boolean load and nothing else.
#[derive(Clone)]
pub struct SharedObserver(Arc<dyn Observer>);

impl SharedObserver {
    /// Wrap an observer.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        SharedObserver(observer)
    }

    /// The no-op observer.
    pub fn noop() -> Self {
        SharedObserver(Arc::new(NoopObserver))
    }

    /// Whether the underlying observer wants events.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Build and deliver an event — but only if the observer is enabled.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if self.0.enabled() {
            self.0.on_event(&build());
        }
    }

    /// Deliver an already-built event (used when fanning out).
    pub fn on_event(&self, ev: &TraceEvent) {
        self.0.on_event(ev);
    }
}

impl Default for SharedObserver {
    fn default() -> Self {
        SharedObserver::noop()
    }
}

impl fmt::Debug for SharedObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedObserver")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl<T: Observer + 'static> From<Arc<T>> for SharedObserver {
    fn from(observer: Arc<T>) -> Self {
        SharedObserver(observer)
    }
}

/// The one place a [`TraceEvent`] is stamped: an observer, whether it was
/// listening when attached (cached, so a silent emission site costs one
/// local load instead of a virtual call) and the decider period events
/// are binned by. Every substrate and the engine emit through one of these.
#[derive(Clone, Debug)]
pub struct Stamper {
    obs: SharedObserver,
    on: bool,
    period_ns: u64,
}

impl Stamper {
    /// Stamp for `obs`, binning events into periods of length `period`.
    pub fn new(obs: SharedObserver, period: SimDuration) -> Self {
        Stamper {
            on: obs.enabled(),
            obs,
            period_ns: period.as_nanos().max(1),
        }
    }

    /// Whether anyone is listening; hosts that elide work only a trace
    /// could see ask this first.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Stamp `kind()` as happening on `node` at `at` and deliver it; the
    /// closure runs only when someone is listening.
    #[inline]
    pub fn emit(&self, at: SimTime, node: NodeId, kind: impl FnOnce() -> EventKind) {
        if self.on {
            self.obs.on_event(&TraceEvent {
                at,
                node,
                period: at.as_nanos() / self.period_ns,
                kind: kind(),
            });
        }
    }
}

/// Deliver every event to each of a set of observers.
#[derive(Default)]
pub struct FanoutObserver {
    sinks: Vec<SharedObserver>,
}

impl FanoutObserver {
    /// Fan out to `sinks`.
    pub fn new(sinks: Vec<SharedObserver>) -> Self {
        FanoutObserver { sinks }
    }

    /// Combine two observer handles into one, skipping disabled sides.
    /// Returns a no-op handle when both sides are disabled.
    pub fn pair(a: SharedObserver, b: SharedObserver) -> SharedObserver {
        match (a.enabled(), b.enabled()) {
            (false, false) => SharedObserver::noop(),
            (true, false) => a,
            (false, true) => b,
            (true, true) => SharedObserver::new(Arc::new(FanoutObserver::new(vec![a, b]))),
        }
    }
}

impl Observer for FanoutObserver {
    fn on_event(&self, ev: &TraceEvent) {
        for sink in &self.sinks {
            if sink.enabled() {
                sink.on_event(ev);
            }
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(SharedObserver::enabled)
    }
}

impl fmt::Debug for FanoutObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutObserver")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingBufferObserver;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_secs(1),
            node: NodeId::new(0),
            period: 1,
            kind: EventKind::RequestTimeout { seq },
        }
    }

    #[test]
    fn noop_is_disabled_and_emit_skips_construction() {
        let obs = SharedObserver::noop();
        assert!(!obs.enabled());
        let mut built = false;
        obs.emit(|| {
            built = true;
            ev(0)
        });
        assert!(!built, "emit must not build events for a disabled observer");
    }

    #[test]
    fn stamper_bins_by_period_and_skips_construction_when_silent() {
        let ring = Arc::new(RingBufferObserver::unbounded());
        let st = Stamper::new(ring.clone().into(), SimDuration::from_millis(500));
        assert!(st.enabled());
        st.emit(SimTime::from_secs(1), NodeId::new(0), || {
            EventKind::RequestTimeout { seq: 9 }
        });
        let mut stamped = ev(9);
        stamped.period = 2;
        assert_eq!(ring.events(), [stamped]);

        let silent = Stamper::new(SharedObserver::noop(), SimDuration::ZERO);
        assert!(!silent.enabled());
        silent.emit(SimTime::from_secs(1), NodeId::new(0), || {
            unreachable!("a silent stamper must not build the event")
        });
    }

    #[test]
    fn fanout_pair_collapses_disabled_sides() {
        let ring = Arc::new(RingBufferObserver::unbounded());
        let combined = FanoutObserver::pair(SharedObserver::noop(), ring.clone().into());
        combined.emit(|| ev(1));
        assert_eq!(ring.len(), 1);

        let both_off = FanoutObserver::pair(SharedObserver::noop(), SharedObserver::noop());
        assert!(!both_off.enabled());
    }

    #[test]
    fn fanout_delivers_to_every_sink() {
        let a = Arc::new(RingBufferObserver::unbounded());
        let b = Arc::new(RingBufferObserver::unbounded());
        let fan = FanoutObserver::pair(a.clone().into(), b.clone().into());
        fan.emit(|| ev(7));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.events()[0], ev(7));
    }
}
