//! Request-to-send admission control (§VI-B3).
//!
//! At peak load 3FS clients see incast congestion: many storage services
//! transmit to one client NIC at once. The fix is receiver-side admission:
//! a storage service asks the client's permission before transferring, and
//! the client "limits the number of concurrent senders". This module is the
//! admission queue of the incast experiment and of the 3FS throughput model
//! (`ff_3fs::throughput`). The executable 3FS client (`ff_3fs::client`)
//! caps its concurrent reads with a semaphore of its own.

use std::collections::VecDeque;

/// A FIFO admission controller: at most `limit` grants outstanding.
#[derive(Debug)]
pub struct RtsController<T> {
    limit: usize,
    in_flight: usize,
    queue: VecDeque<T>,
}

impl<T> RtsController<T> {
    /// Admit at most `limit` concurrent senders (`limit ≥ 1`).
    pub fn new(limit: usize) -> Self {
        assert!(limit >= 1, "RTS limit must be at least 1");
        RtsController {
            limit,
            in_flight: 0,
            queue: VecDeque::new(),
        }
    }

    /// A sender requests permission. Returns `Some(token)` when admitted
    /// immediately; otherwise the token is queued and will be returned by a
    /// later [`complete`](Self::complete).
    #[must_use]
    pub fn request(&mut self, token: T) -> Option<T> {
        if self.in_flight < self.limit {
            self.in_flight += 1;
            Some(token)
        } else {
            self.queue.push_back(token);
            None
        }
    }

    /// A granted transfer finished; returns the next queued sender to
    /// admit, if any (the grant transfers to it).
    #[must_use]
    pub fn complete(&mut self) -> Option<T> {
        assert!(self.in_flight > 0, "complete() without an active grant");
        match self.queue.pop_front() {
            Some(next) => Some(next), // grant moves to the next sender
            None => {
                self.in_flight -= 1;
                None
            }
        }
    }

    /// Transfers currently admitted.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Senders waiting for a grant.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The concurrency limit.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_limit() {
        let mut rts = RtsController::new(2);
        assert_eq!(rts.request("a"), Some("a"));
        assert_eq!(rts.request("b"), Some("b"));
        assert_eq!(rts.request("c"), None);
        assert_eq!(rts.in_flight(), 2);
        assert_eq!(rts.queued(), 1);
    }

    #[test]
    fn completion_hands_grant_to_next() {
        let mut rts = RtsController::new(1);
        assert_eq!(rts.request(1), Some(1));
        assert_eq!(rts.request(2), None);
        assert_eq!(rts.request(3), None);
        assert_eq!(rts.complete(), Some(2));
        assert_eq!(rts.in_flight(), 1);
        assert_eq!(rts.complete(), Some(3));
        assert_eq!(rts.complete(), None);
        assert_eq!(rts.in_flight(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut rts = RtsController::new(1);
        let _ = rts.request(0);
        for i in 1..=5 {
            assert_eq!(rts.request(i), None);
        }
        let order: Vec<i32> = std::iter::from_fn(|| rts.complete()).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "without an active grant")]
    fn complete_without_grant_panics() {
        let mut rts = RtsController::<u8>::new(1);
        let _ = rts.complete();
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_limit_rejected() {
        let _ = RtsController::<u8>::new(0);
    }
}
