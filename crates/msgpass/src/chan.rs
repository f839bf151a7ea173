//! A minimal unbounded MPSC channel (Mutex + Condvar).
//!
//! Replaces `crossbeam-channel` so the runtime builds with no external
//! dependencies. Semantics match what the fabric needs: many cloned
//! senders, one receiver per rank, unbounded buffering (sends are eager and
//! never block), and disconnect detection on both sides. The receiver has
//! one operation, the blocking [`Receiver::recv_timed`], and the runtime
//! calls it from one place (the private `pull` in `comm`): there is no
//! polling path.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

/// The sending half; clonable, never blocks.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; blocks until a message or sender disconnect.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The receiver was dropped before (or while) the message was sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendError;

/// Every sender was dropped and the queue is drained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Creates a connected sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

// Rank threads panic while holding no channel locks, but a panicking rank
// can poison a mutex between another thread's lock attempts; recovering the
// inner state keeps the error that surfaces the *original* panic.
fn lock<T>(shared: &Shared<T>) -> std::sync::MutexGuard<'_, State<T>> {
    shared
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<T> Sender<T> {
    /// Enqueues `value`; fails only if the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError> {
        let mut st = lock(&self.shared);
        if !st.receiver_alive {
            return Err(SendError);
        }
        st.queue.push_back(value);
        drop(st);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.shared).senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.shared);
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives and reports how many seconds this call
    /// spent *blocked* on the condvar; fails once all senders are gone and
    /// the queue is empty. A message already queued returns `0.0` without
    /// ever reading the clock, so the fast path stays free of `Instant`
    /// overhead — only calls that actually wait pay for the two timestamps.
    /// This is the primitive behind the runtime's wait-time attribution.
    pub fn recv_timed(&self) -> Result<(T, f64), RecvError> {
        let mut st = lock(&self.shared);
        if let Some(v) = st.queue.pop_front() {
            return Ok((v, 0.0));
        }
        if st.senders == 0 {
            return Err(RecvError);
        }
        let blocked_from = std::time::Instant::now();
        loop {
            st = self
                .shared
                .ready
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(v) = st.queue.pop_front() {
                return Ok((v, blocked_from.elapsed().as_secs_f64()));
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        lock(&self.shared).receiver_alive = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv_timed().unwrap(), (i, 0.0));
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel();
        let tx2 = tx.clone();
        std::thread::scope(|s| {
            s.spawn(move || tx.send(1u32).unwrap());
            s.spawn(move || tx2.send(2u32).unwrap());
            let (a, _) = rx.recv_timed().unwrap();
            let (b, _) = rx.recv_timed().unwrap();
            assert_eq!(a + b, 3);
        });
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                tx.send(7u8).unwrap();
            });
            assert_eq!(rx.recv_timed().unwrap().0, 7);
        });
    }

    #[test]
    fn recv_timed_reports_blocked_seconds_only() {
        let (tx, rx) = channel();
        tx.send(1u8).unwrap();
        // Already queued: zero wait, no clock read.
        assert_eq!(rx.recv_timed().unwrap(), (1, 0.0));
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                tx.send(2u8).unwrap();
            });
            let (v, wait) = rx.recv_timed().unwrap();
            assert_eq!(v, 2);
            assert!(wait >= 0.010, "expected a measurable block, got {wait}");
        });
    }

    #[test]
    fn disconnect_detection() {
        let (tx, rx) = channel::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timed(), Ok((1, 0.0))); // buffered message still delivered
        assert_eq!(rx.recv_timed(), Err(RecvError));

        let (tx, rx) = channel::<u8>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError));
    }
}
