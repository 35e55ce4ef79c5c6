//! Multi-producer single-consumer FIFO channels — the subset of
//! `crossbeam-channel`'s API the workspace uses, plus `recv_timeout`,
//! built on a mutex-protected queue and a condition variable.
//!
//! Disconnect semantics match crossbeam: `send` fails once the receiver
//! is gone; `recv` drains remaining messages and then fails once every
//! sender is gone. These semantics are what lets the allreduce executor
//! detect a dead peer rank instead of hanging.

use crate::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when the receiver is dropped;
/// carries the unsent message back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message available right now.
    Empty,
    /// All senders are gone and the queue is drained.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed without a message.
    Timeout,
    /// All senders are gone and the queue is drained.
    Disconnected,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver: bool,
}

/// The sending half; cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; there is exactly one per channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// An unbounded mpsc channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver: true,
        }),
        cv: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Enqueue a message; fails (returning it) if the receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.state.lock();
        if !st.receiver {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        drop(st);
        self.shared.cv.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.shared.cv.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue a message, blocking while the channel is empty; fails once
    /// every sender is gone and the queue is drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(m) = st.queue.pop_front() {
                return Ok(m);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            self.shared.cv.wait(&mut st);
        }
    }

    /// Dequeue without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.state.lock();
        if let Some(m) = st.queue.pop_front() {
            return Ok(m);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// [`Receiver::recv`] with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock();
        loop {
            if let Some(m) = st.queue.pop_front() {
                return Ok(m);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            self.shared.cv.wait_for(&mut st, deadline - now);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Senders never block (unbounded), so there is no one to wake.
        self.shared.state.lock().receiver = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn timeout_fires_on_empty_channel() {
        let (tx, rx) = unbounded::<u8>();
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(10));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn cross_thread_delivery_and_disconnect_wakeup() {
        let (tx, rx) = unbounded::<usize>();
        let h = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx); // unblocks the receiver's final recv with RecvError
        let got = h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }
}
