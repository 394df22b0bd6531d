//! The position-update input queue (Section 3.4): a bounded FIFO whose
//! overflow behavior is exactly the "random update dropping" failure mode
//! LIRA prevents, plus the arrival/service rate estimation THROTLOOP needs.

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;

use lira_core::throt_loop::QueueObservation;

/// A bounded FIFO of position updates with drop accounting.
///
/// Each entry carries the sim time at which it was offered (NaN when
/// enqueued through the untimed [`UpdateQueue::offer`]), so
/// [`UpdateQueue::service_at`] can report per-update queueing latency
/// without a second bookkeeping structure.
#[derive(Debug, Clone)]
pub struct UpdateQueue<T> {
    items: VecDeque<(f64, T)>,
    capacity: usize,
    arrived: u64,
    dropped: u64,
    serviced: u64,
    /// Arrivals in the current observation window.
    window_arrived: u64,
}

impl<T> UpdateQueue<T> {
    /// Creates a queue holding at most `capacity` updates (`B` in the paper).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be positive");
        UpdateQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            arrived: 0,
            dropped: 0,
            serviced: 0,
            window_arrived: 0,
        }
    }

    /// The maximum queue size `B`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue length.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offers an update. A full queue drops it (tail drop) and returns
    /// `false` — the server-actuated shedding the paper argues against.
    pub fn offer(&mut self, item: T) -> bool {
        self.offer_at(f64::NAN, item)
    }

    /// [`Self::offer`] with an arrival timestamp (sim seconds), so later
    /// [`Self::service_at`] calls can report the update's queueing
    /// latency.
    pub fn offer_at(&mut self, now_s: f64, item: T) -> bool {
        self.arrived += 1;
        self.window_arrived += 1;
        if self.items.len() >= self.capacity {
            self.dropped += 1;
            false
        } else {
            self.items.push_back((now_s, item));
            true
        }
    }

    /// Dequeues up to `n` updates for processing, in FIFO order, with
    /// their arrival timestamps (the value passed to [`Self::offer_at`];
    /// NaN for untimed offers). The caller computes queueing latency as
    /// `now − arrived_at`. The updates count as serviced at once: dropping
    /// the iterator early still removes all of them.
    pub fn service_at(&mut self, n: usize) -> Drain<'_, (f64, T)> {
        let take = n.min(self.items.len());
        self.serviced += take as u64;
        self.items.drain(..take)
    }

    /// Lifetime arrivals.
    #[inline]
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Lifetime drops.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Lifetime serviced updates.
    #[inline]
    pub fn serviced(&self) -> u64 {
        self.serviced
    }

    /// Fraction of arrivals dropped so far.
    pub fn drop_fraction(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.dropped as f64 / self.arrived as f64
        }
    }

    /// Closes the current observation window of `window_seconds` and
    /// returns the `(λ, μ)` observation THROTLOOP consumes. The service
    /// rate reported is the server's *capacity* `service_capacity`
    /// (updates/sec), not merely the number it happened to drain — an idle
    /// server must read as underloaded, not as zero-capacity.
    pub fn window_observation(
        &mut self,
        window_seconds: f64,
        service_capacity: f64,
    ) -> QueueObservation {
        assert!(window_seconds > 0.0);
        let obs = QueueObservation {
            arrival_rate: self.window_arrived as f64 / window_seconds,
            service_rate: service_capacity,
        };
        self.window_arrived = 0;
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dequeues up to `n` items, dropping their timestamps.
    fn service<T>(q: &mut UpdateQueue<T>, n: usize) -> Vec<T> {
        q.service_at(n).map(|(_, item)| item).collect()
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut q = UpdateQueue::new(3);
        assert!(q.offer(1));
        assert!(q.offer(2));
        assert!(q.offer(3));
        assert!(!q.offer(4), "overflow must drop");
        assert_eq!(q.len(), 3);
        assert_eq!(q.dropped(), 1);
        assert_eq!(service(&mut q, 2), vec![1, 2]);
        assert!(q.offer(5));
        assert_eq!(service(&mut q, 10), vec![3, 5]);
        assert!(q.is_empty());
        assert_eq!(q.serviced(), 4);
        assert_eq!(q.arrived(), 5);
    }

    #[test]
    fn drop_fraction() {
        let mut q = UpdateQueue::new(2);
        assert_eq!(q.drop_fraction(), 0.0);
        q.offer(());
        q.offer(());
        q.offer(());
        q.offer(());
        assert_eq!(q.drop_fraction(), 0.5);
    }

    #[test]
    fn window_observation_rates() {
        let mut q = UpdateQueue::new(100);
        for i in 0..50 {
            q.offer(i);
        }
        service(&mut q, 20);
        let obs = q.window_observation(10.0, 3.5);
        assert_eq!(obs.arrival_rate, 5.0);
        assert_eq!(obs.service_rate, 3.5);
        // Window counters reset.
        let obs2 = q.window_observation(10.0, 3.5);
        assert_eq!(obs2.arrival_rate, 0.0);
    }

    #[test]
    fn overload_scenario_feeds_throtloop() {
        use lira_core::throt_loop::ThrotLoop;
        let mut q = UpdateQueue::new(100);
        let mut loop_ctl = ThrotLoop::new(100).unwrap();
        // 200 updates/s arriving, capacity 100/s: z should drop toward 0.5.
        for _ in 0..5 {
            for i in 0..200 {
                q.offer(i);
            }
            service(&mut q, 100);
            let obs = q.window_observation(1.0, 100.0);
            loop_ctl.observe(obs);
        }
        assert!(loop_ctl.throttle() < 0.55, "z = {}", loop_ctl.throttle());
    }

    #[test]
    fn service_zero_and_empty() {
        let mut q: UpdateQueue<u8> = UpdateQueue::new(4);
        assert!(service(&mut q, 0).is_empty());
        assert!(service(&mut q, 10).is_empty());
        q.offer(1);
        assert!(service(&mut q, 0).is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn overflow_accounting_at_exact_capacity() {
        // Filling to exactly `B` drops nothing; only the `B+1`-th arrival
        // is tail-dropped, and freeing one slot re-admits exactly one.
        let mut q = UpdateQueue::new(4);
        for i in 0..4 {
            assert!(q.offer(i), "item {i} fits");
        }
        assert_eq!((q.len(), q.dropped()), (4, 0));
        assert!(!q.offer(4));
        assert!(!q.offer(5));
        assert_eq!((q.len(), q.dropped(), q.arrived()), (4, 2, 6));
        assert_eq!(service(&mut q, 1), vec![0]);
        assert!(q.offer(6));
        assert!(!q.offer(7));
        assert_eq!((q.len(), q.dropped()), (4, 3));
    }

    #[test]
    fn window_counters_reset_independently_of_lifetime() {
        let mut q = UpdateQueue::new(10);
        for i in 0..6 {
            q.offer(i);
        }
        service(&mut q, 4);
        let w1 = q.window_observation(2.0, 7.0);
        assert_eq!(w1.arrival_rate, 3.0);
        // Lifetime counters survive the window close...
        assert_eq!((q.arrived(), q.serviced(), q.dropped()), (6, 4, 0));
        // ...while the window starts from zero and counts only new traffic.
        q.offer(100);
        service(&mut q, 10);
        let w2 = q.window_observation(1.0, 7.0);
        assert_eq!(w2.arrival_rate, 1.0);
        assert_eq!((q.arrived(), q.serviced()), (7, 7));
        // An empty window reads as silent, not as stale traffic.
        let w3 = q.window_observation(5.0, 7.0);
        assert_eq!(w3.arrival_rate, 0.0);
    }

    #[test]
    fn zero_service_capacity_window_is_safe_for_throtloop() {
        // An outage window: arrivals piled up but the server drained
        // nothing (capacity estimate 0). The observation must flow
        // through THROTLOOP without dividing by zero — z steps down at
        // the clamp and stays finite.
        use lira_core::throt_loop::ThrotLoop;
        let mut q = UpdateQueue::new(8);
        for i in 0..20 {
            q.offer(i);
        }
        let obs = q.window_observation(1.0, 0.0);
        assert_eq!(obs.service_rate, 0.0);
        assert_eq!(obs.arrival_rate, 20.0);
        let mut ctl = ThrotLoop::new(8).unwrap();
        let z = ctl.observe(obs);
        assert!(z.is_finite() && (z - 0.5).abs() < 1e-12, "z = {z}");
    }

    #[test]
    fn timestamped_offers_report_queueing_latency() {
        let mut q = UpdateQueue::new(4);
        q.offer_at(10.0, "a");
        q.offer_at(11.0, "b");
        q.offer(
            "c", // untimed: arrival timestamp is NaN
        );
        let now = 12.5;
        let served: Vec<(f64, &str)> = q.service_at(3).collect();
        let latencies: Vec<f64> = served.iter().map(|(t, _)| now - t).collect();
        assert_eq!(served[0].1, "a");
        assert!((latencies[0] - 2.5).abs() < 1e-12);
        assert!((latencies[1] - 1.5).abs() < 1e-12);
        assert!(latencies[2].is_nan(), "untimed offers carry no latency");
        // Mixed-API use keeps the counters coherent.
        assert_eq!((q.arrived(), q.serviced(), q.dropped()), (3, 3, 0));
    }

    #[test]
    fn dropping_the_drain_early_still_services_every_taken_update() {
        let mut q = UpdateQueue::new(8);
        for i in 0..6 {
            q.offer_at(i as f64, i);
        }
        let mut drain = q.service_at(4);
        assert_eq!(drain.len(), 4);
        assert_eq!(drain.next(), Some((0.0, 0)));
        drop(drain);
        assert_eq!((q.len(), q.serviced()), (2, 4));
        assert_eq!(service(&mut q, 10), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "window_seconds > 0.0")]
    fn rejects_zero_window() {
        let mut q: UpdateQueue<u8> = UpdateQueue::new(4);
        q.window_observation(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        UpdateQueue::<u32>::new(0);
    }
}
