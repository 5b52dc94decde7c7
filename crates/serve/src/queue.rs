//! The server's bounded MPMC job queue, built on `Mutex` + `Condvar`
//! (std-only).
//!
//! This is the backpressure point of the service: the accept loop pushes
//! with the non-blocking [`FairQueue::try_push`] and turns `Full` into a
//! `Busy` reply instead of buffering unboundedly, while workers block in
//! [`FairQueue::pop_batch`] until work or shutdown arrives. Closing the
//! queue wakes every waiter but lets them drain what is already queued —
//! that drain is what makes shutdown graceful.
//!
//! The queue keeps one deficit-round-robin lane per client, each with its
//! *own* capacity, so one greedy client fills only its own lane (and sees
//! `Busy`) while other clients' lanes stay shallow and keep their latency.
//! Workers drain lanes round-robin, each lane spending a per-visit
//! deficit measured in request cost (segments), which is what makes the
//! fairness *weighted*: a client sending huge batches drains no faster
//! than one sending small ones.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`FairQueue::try_push`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The client's lane is at capacity (backpressure — reply `Busy`).
    Full,
    /// The queue was closed (shutdown in progress).
    Closed,
}

/// Depths reported by a successful [`FairQueue::try_push`]: the pushing
/// client's lane depth feeds the per-lane gauge, the total feeds the
/// existing `serve.queue_depth` histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FairDepth {
    /// Items queued in the pushed lane, after the push.
    pub lane: usize,
    /// Items queued across all lanes, after the push.
    pub total: usize,
}

struct Lane<T> {
    key: String,
    /// Deficit-round-robin credit, in cost units. Topped up by `quantum`
    /// each visit; an emptied lane forfeits what is left (standard DRR —
    /// idle lanes must not hoard credit).
    deficit: u64,
    items: VecDeque<(u64, T)>,
}

struct FairState<T> {
    lanes: Vec<Lane<T>>,
    /// Round-robin cursor into `lanes`.
    cursor: usize,
    closed: bool,
    total: usize,
}

/// Per-client fair queue: one bounded FIFO lane per client id, drained
/// deficit-round-robin. The anonymous lane (key `""`) serves untagged
/// clients and absorbs new ids once `max_lanes` distinct lanes exist, so
/// hostile id churn cannot grow memory or dodge its own backlog.
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    ready: Condvar,
    lane_cap: usize,
    max_lanes: usize,
    quantum: u64,
}

impl<T> FairQueue<T> {
    /// A queue of up to `max_lanes` lanes holding `lane_cap` items each,
    /// spending `quantum` cost units per lane visit (all ≥ 1).
    pub fn new(lane_cap: usize, max_lanes: usize, quantum: u64) -> Self {
        assert!(lane_cap >= 1, "lane capacity must be at least 1");
        assert!(max_lanes >= 1, "lane count must be at least 1");
        FairQueue {
            state: Mutex::new(FairState {
                lanes: Vec::new(),
                cursor: 0,
                closed: false,
                total: 0,
            }),
            ready: Condvar::new(),
            lane_cap,
            max_lanes,
            quantum: quantum.max(1),
        }
    }

    /// Enqueue into `lane_key`'s lane without blocking, charging `cost`
    /// (≥ 1 is enforced) against that lane's round-robin share. `Full`
    /// means *that lane* is full — other clients may still be admitted,
    /// which is the whole point.
    pub fn try_push(
        &self,
        lane_key: &str,
        cost: u64,
        item: T,
    ) -> Result<FairDepth, (T, PushError)> {
        let mut s = self.state.lock().expect("queue lock poisoned");
        if s.closed {
            return Err((item, PushError::Closed));
        }
        // Route new ids past the lane bound into the anonymous lane.
        let mut key = lane_key;
        if !s.lanes.iter().any(|l| l.key == key) && s.lanes.len() >= self.max_lanes {
            key = "";
        }
        let lane = match s.lanes.iter_mut().find(|l| l.key == key) {
            Some(lane) => lane,
            None => {
                s.lanes.push(Lane {
                    key: key.to_string(),
                    deficit: 0,
                    items: VecDeque::new(),
                });
                s.lanes.last_mut().expect("just pushed")
            }
        };
        if lane.items.len() >= self.lane_cap {
            return Err((item, PushError::Full));
        }
        lane.items.push_back((cost.max(1), item));
        let depth = FairDepth {
            lane: lane.items.len(),
            total: s.total + 1,
        };
        s.total += 1;
        drop(s);
        self.ready.notify_one();
        Ok(depth)
    }

    /// Dequeue up to `max` items deficit-round-robin, blocking while the
    /// queue is empty and open. Returns an empty vec only when the queue
    /// is closed *and* fully drained.
    pub fn pop_batch(&self, max: usize) -> Vec<T> {
        let max = max.max(1);
        let mut s = self.state.lock().expect("queue lock poisoned");
        loop {
            if s.total > 0 {
                let batch = Self::drain(&mut s, max, self.quantum);
                if s.total > 0 {
                    self.ready.notify_one();
                }
                return batch;
            }
            if s.closed {
                return Vec::new();
            }
            s = self.ready.wait(s).expect("queue lock poisoned");
        }
    }

    /// One DRR sweep over the lanes. Terminates because every visit adds
    /// `quantum` to the visited lane's deficit, so any head item becomes
    /// affordable after finitely many visits.
    fn drain(s: &mut FairState<T>, max: usize, quantum: u64) -> Vec<T> {
        let mut batch = Vec::with_capacity(max.min(s.total));
        while batch.len() < max && s.total > 0 {
            debug_assert!(!s.lanes.is_empty(), "total > 0 implies a lane");
            s.cursor %= s.lanes.len();
            let lane = &mut s.lanes[s.cursor];
            lane.deficit = lane.deficit.saturating_add(quantum);
            while batch.len() < max {
                match lane.items.front() {
                    Some(&(cost, _)) if cost <= lane.deficit => {
                        let (cost, item) = lane.items.pop_front().expect("front exists");
                        lane.deficit -= cost;
                        s.total -= 1;
                        batch.push(item);
                    }
                    _ => break,
                }
            }
            if lane.items.is_empty() {
                // Emptied lanes forfeit their remaining deficit and their
                // slot (freeing it for a fresh id).
                s.lanes.remove(s.cursor);
            } else {
                s.cursor += 1;
            }
        }
        batch
    }

    /// Close the queue: producers are refused from now on, consumers
    /// drain the remainder and then observe the close. Idempotent.
    pub fn close(&self) {
        let mut s = self.state.lock().expect("queue lock poisoned");
        s.closed = true;
        drop(s);
        self.ready.notify_all();
    }

    /// Total queued items across all lanes (snapshot).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").total
    }

    /// True when no items are queued in any lane.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(lane key, depth)` for every live lane — the per-lane gauge sweep.
    pub fn lane_depths(&self) -> Vec<(String, usize)> {
        let s = self.state.lock().expect("queue lock poisoned");
        s.lanes
            .iter()
            .map(|l| (l.key.clone(), l.items.len()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn push(q: &FairQueue<&'static str>, lane: &str, item: &'static str) -> FairDepth {
        q.try_push(lane, 1, item).unwrap()
    }

    #[test]
    fn fair_queue_interleaves_lanes_round_robin() {
        let q: FairQueue<&str> = FairQueue::new(16, 8, 1);
        for item in ["g1", "g2", "g3"] {
            push(&q, "greedy", item);
        }
        push(&q, "polite", "p1");
        // DRR with unit costs and quantum 1 alternates lanes: the polite
        // item rides out in position 1, not behind the whole greedy lane.
        assert_eq!(q.pop_batch(4), vec!["g1", "p1", "g2", "g3"]);
    }

    #[test]
    fn fair_queue_lane_cap_is_per_client() {
        let q: FairQueue<&str> = FairQueue::new(2, 8, 1);
        push(&q, "greedy", "g1");
        push(&q, "greedy", "g2");
        // Greedy's lane is full...
        assert_eq!(q.try_push("greedy", 1, "g3"), Err(("g3", PushError::Full)));
        // ...but a different client is still admitted.
        assert_eq!(push(&q, "polite", "p1"), FairDepth { lane: 1, total: 3 });
    }

    #[test]
    fn fair_queue_weighted_by_cost() {
        let q: FairQueue<&str> = FairQueue::new(16, 8, 2);
        // "heavy" queues one cost-6 batch; "light" queues three cost-1s.
        q.try_push("heavy", 6, "H").unwrap();
        for item in ["l1", "l2", "l3"] {
            q.try_push("light", 1, item).unwrap();
        }
        // Heavy's visits accrue deficit 2, 4, 6 — its cost-6 batch only
        // becomes affordable on the third visit, by which time light has
        // fully drained: heavy cannot crowd out light by batching.
        assert_eq!(q.pop_batch(10), vec!["l1", "l2", "l3", "H"]);
    }

    #[test]
    fn fair_queue_new_ids_past_bound_share_anonymous_lane() {
        let q: FairQueue<&str> = FairQueue::new(2, 2, 1);
        push(&q, "a", "a1");
        push(&q, "b", "b1");
        // Two lanes exist; c and d collapse into the "" lane, whose cap
        // they now share.
        push(&q, "c", "c1");
        push(&q, "d", "d1");
        assert_eq!(q.try_push("e", 1, "e1"), Err(("e1", PushError::Full)));
        assert_eq!(q.len(), 4);
        let depths = q.lane_depths();
        assert!(depths.contains(&("".to_string(), 2)), "depths: {depths:?}");
    }

    #[test]
    fn fair_queue_close_drains_then_reports_closed() {
        let q: FairQueue<&str> = FairQueue::new(4, 4, 1);
        push(&q, "a", "a1");
        q.close();
        assert_eq!(q.try_push("a", 1, "a2"), Err(("a2", PushError::Closed)));
        assert_eq!(q.pop_batch(4), vec!["a1"], "queued work must drain");
        assert!(q.pop_batch(4).is_empty(), "then the close is observed");
    }

    #[test]
    fn fair_queue_blocked_consumer_wakes_on_push_and_close() {
        let q: Arc<FairQueue<u8>> = Arc::new(FairQueue::new(2, 2, 1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop_batch(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push("x", 1, 42).unwrap();
        assert_eq!(consumer.join().unwrap(), vec![42]);
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop_batch(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(consumer.join().unwrap().is_empty());
    }

    #[test]
    fn fair_queue_emptied_lane_frees_its_slot() {
        let q: FairQueue<&str> = FairQueue::new(2, 2, 1);
        push(&q, "a", "a1");
        push(&q, "b", "b1");
        assert_eq!(q.pop_batch(4).len(), 2);
        // Both lanes drained away entirely; a fresh id gets its own lane
        // again instead of the anonymous one.
        assert_eq!(push(&q, "c", "c1"), FairDepth { lane: 1, total: 1 });
        assert_eq!(q.lane_depths(), vec![("c".to_string(), 1)]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn fair_queue_zero_lane_cap_rejected() {
        let _ = FairQueue::<u8>::new(0, 4, 1);
    }
}
